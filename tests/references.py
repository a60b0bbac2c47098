"""Test-only references shared by several test modules: the inverse of
vec_to_herm, the incomparability of two cone elements, two families of
polyhedral cones (rotated orthants and the n-gon cones), the per-kind
lattice rules, the order-unit norm by bisection and in closed form, the
spectral faces by the eigenvalues of the whole operator, a ratio's
decomposition with every bracket computed as the ratio is built,
from_derivation's split of its consequent by the family's projectors,
cut equality by two brackets a pair over the joint eigenvalues of the two
operators and by the operator norm, and a ratio's operator by the rule
that decomposes each of its pieces."""

import numpy as np

from eudoxus.cone_space import TOL, ConeSpace, Face, Membership
from eudoxus.derivation_algebra import (
    CLUSTER_TOL,
    EIG_FLOOR,
    _cluster,
    _derivation_residuals,
    spectral_faces,
)
from eudoxus.exact_rational import stern_brocot_bracket
from eudoxus.face_lattice import face_of, facial_derivative
from eudoxus.ratio_calculus import NotComparable, Ratio, RealOracleFromValue, to_derivation


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


def cuts_equal(o1, o2, max_den):
    """Reference: do two cuts agree at denominator resolution max_den?  True
    iff their Stern-Brocot brackets overlap, one bracket per cut."""
    lo1, hi1 = stern_brocot_bracket(o1, max_den)
    lo2, hi2 = stern_brocot_bracket(o2, max_den)
    return not (hi1 < lo2 or hi2 < lo1)


def blockwise_joint_eigenvalues(A, B):
    """Reference: the paired eigenvalues of commuting symmetric A and B, as
    ratio_equal paired the operators of two ratios before it read their
    multipliers off a common frame: each block of V^T B V on an eigenspace
    of A (a run of _cluster) diagonalized by one eigvalsh call, paired with
    its mean.  On a Jordan kind most pairs are Peirce means
    ((lam_i + lam_j) / 2, (mu_i + mu_j) / 2)."""
    w, V = np.linalg.eigh(A)
    means, cuts = _cluster(w)
    B = V.T @ B @ V
    ends = [*np.searchsorted(w, cuts).tolist(), len(w)]
    return [(float(lam), float(mu)) for lam, i, j in zip(means, [0] + ends, ends)
            for mu in (np.linalg.eigvalsh(B[i:j, i:j]) if j - i > 1 else (B[i, i],))]


def two_bracket_ratio_equal(r, s, max_den):
    """Reference: ratio_equal at max_den of two ratios it finds comparable,
    as it compared them over the joint eigenvalues of their operators, two
    brackets a pair: the pairs of blockwise_joint_eigenvalues, those with a
    value at or below the floor at tolerance, every other pair by
    cuts_equal.  Returns the verdict, the pairs compared by cuts, and the
    pair that decided False (None for True)."""
    pairs = blockwise_joint_eigenvalues(to_derivation(r).mat, to_derivation(s).mat)
    floor = TOL * max((abs(lam) for pair in pairs for lam in pair), default=0.0)
    cut_pairs = []
    for lam_r, lam_s in pairs:
        if lam_r <= floor or lam_s <= floor:
            if abs(lam_r - lam_s) > 1e-8 * max(1.0, abs(lam_r), abs(lam_s)):
                return False, cut_pairs, (lam_r, lam_s)
            continue
        cut_pairs.append((lam_r, lam_s))
        if not cuts_equal(RealOracleFromValue(lam_r), RealOracleFromValue(lam_s), max_den):
            return False, cut_pairs, (lam_r, lam_s)
    return True, cut_pairs, None


def operator_norm_ratio_equal(r, s):
    """Reference: ratio_equal without max_den as it decided on the operators,
    ||delta_r - delta_s||_2 <= 1e-8 max(||delta_r||_2, ||delta_s||_2, 1).
    Returns both sides."""
    dr, ds = to_derivation(r), to_derivation(s)
    return np.linalg.norm(dr.mat - ds.mat, 2), 1e-8 * max(dr.norm(), ds.norm(), 1.0)


def support_units(space, X):
    """Reference: the support idempotent of each row of X on a Jordan kind,
    as to_derivation found it before a ratio or a family kept its units: the
    frame elements of one _spectral(X) whose eigenvalue lies above the face
    band TOL max(1, |x|)."""
    band = TOL * np.maximum(1.0, np.linalg.norm(X, axis=1))
    w, frame = space._spectral(X)
    return np.einsum("fdr,fr->fd", frame, (w > band[:, None]).astype(float))


def support_rule_derivation(space, lams, X):
    """Reference: the operator of the pieces X (rows) at the multipliers lams
    by the rule that decomposes every piece: L(sum lam_i c_i) over the
    support_units c_i on a Jordan kind; on a polyhedral cone, the sum over
    the distinct lam of lam times the facial derivative of face_of the sum
    of the pieces at lam."""
    lams = np.asarray(lams, dtype=float)
    X = np.asarray(X, dtype=float).reshape(-1, space.dim)
    if space.kind == "polyhedral":
        return sum((lam * facial_derivative(face_of(space, X[lams == lam].sum(axis=0))).mat
                    for lam in np.unique(lams)), np.zeros((space.dim, space.dim)))
    return space._L(lams @ support_units(space, X))
