"""Test-only references shared by several test modules: the inverse of
vec_to_herm, the incomparability of two cone elements, two families of
polyhedral cones (rotated orthants and the n-gon cones), the per-kind
lattice rules, the order-unit norm by bisection and in closed form, the
spectral faces by the eigenvalues of the whole operator, a ratio's
decomposition with every bracket computed as the ratio is built, and
from_derivation's split of its consequent by the family's projectors."""

import numpy as np

from eudoxus.cone_space import TOL, ConeSpace, Face, Membership
from eudoxus.derivation_algebra import (
    CLUSTER_TOL,
    EIG_FLOOR,
    _derivation_residuals,
    spectral_faces,
)
from eudoxus.exact_rational import stern_brocot_bracket
from eudoxus.face_lattice import face_of
from eudoxus.ratio_calculus import NotComparable, Ratio, RealOracleFromValue


def herm_to_vec(A):
    """Hermitian k x k matrix -> real vector of length k^2 (isometric), the
    inverse of vec_to_herm: each diagonal entry, then sqrt(2) times the
    real and imaginary parts of each entry above it, row by row."""
    A = np.asarray(A, dtype=complex)
    k = A.shape[0]
    out = []
    for i in range(k):
        out.append(A[i, i].real)
        for j in range(i + 1, k):
            out.append(np.sqrt(2.0) * A[i, j].real)
            out.append(np.sqrt(2.0) * A[i, j].imag)
    return np.array(out)


def incomparable(space, a, b):
    """Orthogonal cone elements whose generated faces meet only at zero."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if not (space.contains(a) and space.contains(b)):
        raise ValueError("incomparability is defined for cone elements")
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na <= TOL or nb <= TOL:
        return True
    if abs(np.dot(a, b)) > 1e-8 * na * nb:
        return False
    return np.linalg.norm(face_of(space, a).projector @ face_of(space, b).projector) <= 1e-7


def rotated_orthant(n, seed):
    """The orthant of R^n turned by the Q of a seeded Gaussian's QR, as a
    polyhedral cone."""
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, n)))
    return ConeSpace.polyhedral(list(q.T))


def ngon_cone(n):
    """The cone over a regular n-gon in R^3, scaled to be self-dual for odd
    n; the 3-gon cone is a rotated orthant."""
    r = np.cos(np.pi / n) ** -0.5
    return ConeSpace.polyhedral([np.array([1.0, r * np.cos(2 * np.pi * i / n),
                                           r * np.sin(2 * np.pi * i / n)])
                                 for i in range(n)])


def lattice_by_kind(space):
    """The per-kind lattice rules: a Jordan algebra is associative when the
    Peirce 1/2-space of a frame of e is zero (the compressions U_c of the
    frame elements sum to I); a polyhedral cone is a lattice when it has
    dim extreme rays."""
    if space.kind == "polyhedral":
        return space._rays.shape[1] == space.dim
    _, (C,) = space._spectral(space._e[None])
    return np.trace(np.eye(space.dim) - space._U(C.T).sum(axis=0)) < 0.5


def norm_by_bisection(space, x, u):
    """inf {t : -t u <= x <= t u} by doubling from t = 1, then 80 halvings."""
    hi = 1.0
    while not (space.leq(-hi * u, x) and space.leq(x, hi * u)):
        hi *= 2.0
    lo = 0.0
    for _ in range(80):
        mid = (lo + hi) / 2.0
        if space.leq(-mid * u, x) and space.leq(x, mid * u):
            hi = mid
        else:
            lo = mid
    return hi


def polyhedral_unit_norm(space, x, u):
    """The closed form max_j |<d_j, x>| / <d_j, u> over the unit dual
    generators d_j of a polyhedral cone."""
    D = space.dual_generators
    return float(np.max(np.abs(D.T @ x) / (D.T @ u)))


def loop_clusters(values):
    """Reference: clusters grown one sorted value at a time, each value
    joining the cluster of its predecessor u when within CLUSTER_TOL
    max(|u|, |v|) or EIG_FLOOR n max|v| of it."""
    floor = EIG_FLOOR * len(values) * max(abs(v) for v in values)
    groups = []
    for v in sorted(values):
        u = groups[-1][-1] if groups else None
        if groups and v - u <= max(CLUSTER_TOL * max(abs(u), abs(v)), floor):
            groups[-1].append(v)
        else:
            groups.append([v])
    return groups


def eigvalsh_spectral_faces(space, delta):
    """Reference: the spectral faces by the dim eigenvalues of delta, one
    checked Face per cluster of np.linalg.eigvalsh(delta) (loop_clusters),
    each with its eigenvalues, the kind's _eigenfaces handed that
    clustering for the one it makes of its own values.  A cluster of
    eigenvalues that are no spectral value of delta e, such as a Peirce
    mean (lam_i + lam_j) / 2 on lorentz or a matrix kind, gets the zero
    face; returns [(mean, Face, cluster)]."""
    M = np.asarray(delta, dtype=float)
    if _derivation_residuals(space, M[None])[1][0]:
        raise ValueError("operator is not a derivation")
    if np.linalg.norm(M - M.T) > 1e-9 * max(1.0, np.linalg.norm(M)):
        raise ValueError("spectral faces need a self-adjoint derivation")
    groups = loop_clusters(np.linalg.eigvalsh(M))
    lams = [float(np.mean(g)) for g in groups]
    cuts = np.array([(g[-1] + h[0]) / 2.0 for g, h in zip(groups, groups[1:])])
    _, W, runs = space._eigenfaces(M, lambda values: (lams, cuts))
    P = space._run_projectors(W, runs)
    return [(lam, Face(space, p, w), g) for lam, p, w, g in zip(lams, P, W, groups)]


def eager_decomposition(space, family, a, max_den):
    """Reference: the (lam, bracket, component) entries of the ratio
    M a : a over the spectral family of M, each face's Stern-Brocot bracket
    computed as its pieces are split off, as _ratio_from_family built them
    before the brackets were deferred to the first read; a multiplier is
    bracketed when above TOL times the largest |lam| of a face with pieces."""
    parts = family.projectors @ a
    terms = space._frame_terms(parts)
    floor = TOL * max((abs(lam) for lam, t in zip(family.lams, terms) if t), default=0.0)
    out = []
    for lam, face_terms in zip(family.lams.tolist(), terms):
        bracket = None
        if face_terms and lam > floor:
            bracket = stern_brocot_bracket(RealOracleFromValue(lam), max_den)
        out += [(lam, bracket, coeff * comp) for coeff, comp in face_terms]
    return out


def frame_split_from_derivation(space, delta, max_den):
    """Reference: from_derivation as it split the consequent before its
    pieces were read off the family's runs: a = sum of the witnesses, every
    projector of the family built, the parts P a split by one stacked
    _frame_terms, and the parts required to sum back to a."""
    family = spectral_faces(space, delta)
    a = family.witnesses.sum(axis=0)
    if space.membership(a) is not Membership.INTERIOR:
        raise ValueError("spectral-face units do not sum to an order unit")
    if max_den < 1:
        raise ValueError("max_den must be a positive integer")
    parts = family.projectors @ a
    pieces = [(lam, coeff * comp)
              for lam, terms in zip(family.lams.tolist(), space._frame_terms(parts))
              for coeff, comp in terms]
    if np.linalg.norm(parts.sum(axis=0) - a) > 1e-7 * max(1.0, np.linalg.norm(a)):
        raise NotComparable("consequent does not decompose along the "
                            "antecedent's spectral faces")
    return Ratio(space, np.asarray(delta, dtype=float) @ a, a, pieces, max_den)
