"""Derivations of a cone and their spectral facial structure.

A derivation is a linear operator whose one-parameter exponential group
preserves the cone; self-adjoint derivations are the operator form of
ratios.  The module provides verification, a basis of the derivation Lie
algebra per cone kind (with an independent tangency-system oracle), the
Lie center and the orientability dichotomy, and the finite facial
spectral theorem: every self-adjoint derivation decomposes over an
increasing family of faces and is reconstructed from it exactly.
"""

import functools
import math

import numpy as np

from eudoxus.cone_space import (
    Face,
    Membership,
    _check_projectors,
    _face_band,
    _rank_split,
)

DEFAULT_T_GRID = (-4.0, -2.0, -1.0, -0.5, -0.25, 0.25, 0.5, 1.0, 2.0, 4.0)

# an operator is a derivation when its distance from Der(cone) is at most
# DER_TOL max(||M||, 1) (Frobenius)
DER_TOL = 1e-9


class Verdict:
    """Outcome of a check that cannot always be decided exactly."""

    def __init__(self, status, detail="", witness=None):
        assert status in ("Verified", "Refuted", "Unknown",
                          "Orientable", "NotOrientable")
        self.status = status
        self.detail = detail
        self.witness = witness

    def __bool__(self):
        return self.status in ("Verified", "Orientable")

    def __repr__(self):
        if self.detail:
            return "%s(%s)" % (self.status, self.detail)
        return self.status


class _Refutation(Verdict):
    """A Refuted verdict whose witness is search(), run when first read: a
    caller that only needs the decision pays for no search."""

    def __init__(self, detail, search):
        self.status, self.detail, self._search = "Refuted", detail, search

    @functools.cached_property
    def witness(self):
        return self._search()


class NotSelfAdjointDerivation(ValueError):
    """spectral_faces refuses the operator: it lies outside Der(cone), or
    it is not self-adjoint."""


class Derivation:
    """Linear operator on coords whose exponentials preserve the cone.
    Array-like: np.asarray(delta) is its matrix."""

    def __init__(self, host, mat):
        mat = np.asarray(mat, dtype=float)
        if mat.shape != (host.dim, host.dim):
            raise ValueError("operator shape does not match the space")
        self.host = host
        self.mat = mat

    @property
    def selfadjoint(self):
        return not _asymmetric(self.mat)

    def __array__(self, dtype=None, copy=None):
        return np.array(self.mat, dtype=dtype, copy=copy)

    def __call__(self, x):
        return self.mat @ np.asarray(x, dtype=float)

    def norm(self):
        return float(np.linalg.norm(self.mat, 2))

    def __repr__(self):
        return "Derivation(dim=%d, selfadjoint=%s)" % (self.host.dim, self.selfadjoint)


# ---------------------------------------------------------------------------
# verification

def derivation_basis(space):
    """A basis of the Lie algebra of cone derivations, orthonormal in
    the Frobenius inner product.

    Jordan kinds: an orthonormal basis of L(V) + [L(V), L(V)], which is
    the diagonal matrices for the orthant; scaling, boosts and spatial
    rotations for lorentz; X -> L X + X L^T for L in M_k(R) for
    psd_real(k); X -> L X + X L^* for complex L for hermitian(k) (the
    anti-Hermitian scalar acts trivially, so the count is 2k^2 - 1).
    polyhedral: exp(tM) fixes each unit extreme ray, so M = B diag(mu) B^-1
    over a basis B of the rays, mu constant on each component of the rays'
    matroid (two basis rays share a fundamental circuit); one element per
    component.
    Read-only views of the rows of the cone's cached frame.
    """
    d = space.dim
    return [Derivation(space, q.reshape(d, d)) for q in space._der_frame]


def tangency_dimension_oracle(space, samples=120, rng=None, symmetric_only=False):
    """Independent count of dim Der(cone) from the tangency system
    <y, M x> = 0 over complementary boundary pairs (x extreme in the
    cone, y extreme in its dual with <y, x> = 0): orthogonal elements of
    sampled Jordan frames, or generator / dual-generator pairs.  Knows
    nothing of the parametrizations by L, so it serves as an oracle for
    their counts.  For symmetric M the rows symmetrize, and the count is
    taken inside Sym(dim)."""
    if rng is None:
        rng = np.random.default_rng(7)
    d = space.dim
    pairs = space._complementary_pairs(samples, rng)
    if symmetric_only:
        rows, ncols = [np.kron(y, x) + np.kron(x, y) for x, y in pairs], d * (d + 1) // 2
    else:
        rows, ncols = [np.kron(y, x) for x, y in pairs], d * d
    s = np.linalg.svd(np.array(rows), compute_uv=False)
    return ncols - int(np.sum(s > 1e-7 * max(s[0], 1.0)))


def _pow2_scaled(V):
    """(V / s, s), s the power of two that brings max|V| into [1, 2): exact."""
    # as LAPACK's dnrm2 scales (Blue, ACM TOMS 4(1), 1978): no square overflows
    s = math.ldexp(1.0, math.frexp(np.abs(V).max(initial=0.0))[1] - 1)
    return V / s, s


def _asymmetric(M):
    """The self-adjointness test: ||M - M^T|| > DER_TOL max(||M||, 1), scaled."""
    M, s = _pow2_scaled(M)
    return bool(np.linalg.norm(M - M.T) > DER_TOL * max(np.linalg.norm(M), 1.0 / s))


def _derivation_residuals(space, Ms):
    """Frobenius distances of a stack of operators (f, dim, dim) from
    Der(cone), and which of them is_derivation refutes: residual above
    DER_TOL max(||M||, 1).  One projection of the _pow2_scaled stack onto
    the cone's cached orthonormal frame."""
    Q = space._der_frame
    V, s = _pow2_scaled(Ms.reshape(len(Ms), Q.shape[1]))
    R = V - (V @ Q.T) @ Q
    res = np.sqrt(np.vecdot(R, R))
    return res * s, res > DER_TOL * np.maximum(np.sqrt(np.vecdot(V, V)), 1.0 / s)


def _der_verdict(space, M):
    """(M, verdict): M as a float array of the space's shape with finite
    entries (else ValueError), and whether its residual puts it in Der."""
    M = Derivation(space, M).mat
    if not np.isfinite(M).all():
        raise ValueError("operator has non-finite entries")
    (res,), (outside,) = _derivation_residuals(space, M[None])
    if not outside:
        return M, Verdict("Verified", "inside the derivation parametrization")
    return M, Verdict("Refuted", "outside the derivation parametrization (residual %.3g)" % res)


def is_derivation(space, M):
    """Does exp(tM) preserve the cone for every real t?

    Decided exactly by membership in the span of derivation_basis (for
    polyhedral cones, the extreme-ray eigenvector condition): M is
    projected onto the cone's cached orthonormal frame of Der, and M is a
    derivation when the residual is at most DER_TOL max(||M||, 1).  A
    Refuted verdict carries a (t, x) witness, t on DEFAULT_T_GRID, when
    one of 60 cone points drawn at seed 3 is expelled, else None; the
    search (_expel_witness) runs when the witness is first read.  A wrong
    shape or non-finite entries raise ValueError.
    """
    M, verdict = _der_verdict(space, M)
    if verdict:
        return verdict
    return _Refutation(verdict.detail, lambda: _expel_witness(space, M))


def expm(A):
    """scipy.linalg.expm, imported on call: only the witness search of a
    refuted is_derivation needs it, and it runs when the witness is read,
    so a process that reads no witness never loads scipy for it."""
    from scipy import linalg
    return linalg.expm(A)


def _expel_witness(space, M):
    rng = np.random.default_rng(3)
    for _ in range(60):
        x = space.sample_cone_point(rng)
        if np.linalg.norm(x) < 1e-9:
            continue
        for t in DEFAULT_T_GRID:
            # an image too large for its norm to be finite says nothing, so
            # its overflow is skipped below rather than warned about
            with np.errstate(over="ignore", invalid="ignore"):
                y = expm(t * M) @ x
                nrm = np.linalg.norm(y)
            if np.isfinite(nrm) and space.membership(y) is Membership.OUTSIDE:
                return (t, x)
    return None


# ---------------------------------------------------------------------------
# the Lie algebra

def selfadjoint_derivations(space):
    """Basis of the symmetric part of Der(cone): the home of ratios.

    Jordan kinds: L(e_i) for the orthant and lorentz, 2 L(S) = (X -> S X
    + X S) over the symmetric or Hermitian matrix units S for the matrix
    kinds; polyhedral: the B diag(mu) B^-1 of derivation_basis with the
    components of rays that are not orthogonal joined, which makes them
    symmetric.  The basis is built once per space, as one stack, and
    returned as read-only views of its rows.
    """
    return [Derivation(space, m) for m in space._selfadjoint_mats]


def _structure_table(left, mats, Q):
    """ads (k, r, n), ads[i][:, j] the coordinates of [L_i, B_j] over the
    orthonormal rows of Q (r, dim^2) spanning mats (n, dim, dim), for the
    operators left (k, dim, dim), and the largest distance of such a
    commutator from the span; one L_i at a time, so no step holds more
    than n dim^2 entries."""
    n = len(mats)
    ads = np.empty((len(left), len(Q), n))
    worst = 0.0
    for i, B in enumerate(left):
        C = (B @ mats - mats @ B).reshape(n, -1)
        coords = C @ Q.T
        ads[i] = coords.T
        worst = max(worst, float(np.max(np.linalg.norm(C - coords @ Q, axis=1))))
    return ads, worst


def _centroid(ad_x, ad_y, y):
    """(basis, rank): an orthonormal basis (Frobenius) of the centroid of
    a Lie algebra of dimension q generated by x and y, the q x q matrices
    commuting with ad_x and ad_y, and the rank of the words of y in ad_x
    and ad_y; basis is None when that rank is below q.

    The words are iterated brackets of x and y, so rank q proves that x
    and y generate the algebra; as ad is a Lie homomorphism, commuting
    with ad_x and ad_y is then commuting with every ad_a.  A centroid
    element T commutes with ad_y, and [y, y] = 0, so h = T y lies in
    H = ker ad_y, and T maps each word of y to the same word of h.  The
    words are built a level at a time, each level the images of the last
    under ad_x and ad_y made orthonormal against the words so far by one
    SVD; the same combinations of the words of each basis element h of H
    are carried along (W_h).  At rank q the words W_y are orthogonal, so
    the candidates T_h = W_h W_y^T span a space that holds the centroid,
    and the centroid is the null space of their commutators with ad_x
    and ad_y.  No array has more than 2 (dim H + 1) q^2 entries."""
    q = len(y)
    A = np.array([ad_x, ad_y])
    # row 0 holds the words of y, row 1 + i those of the basis element h_i of H
    W = S = np.concatenate([y[None], _rank_split(ad_y)[1]])[:, None] / np.linalg.norm(y)
    while len(S[0]) and W.shape[1] < q:
        S = (S[:, None] @ A.mT).reshape(len(W), -1, q)
        S = S - (S[0] @ W[0].T) @ W
        u, s, _ = np.linalg.svd(S[0], full_matrices=False)
        keep = s > 1e-8 * max(s[0], 1.0)
        S = (u[:, keep].T / s[keep, None]) @ S
        W = np.concatenate([W, S], axis=1)
    if W.shape[1] < q:
        return None, W.shape[1]
    # T_h y = h, so the candidates are independent: a QR basis needs no cut
    C = np.linalg.qr((W[1:].mT @ W[0]).reshape(len(W) - 1, -1).T)[0].T.reshape(-1, q, q)
    comm = np.concatenate([C @ a - a @ C for a in A], axis=1).reshape(len(C), -1)
    return list(np.tensordot(_rank_split(comm.T)[1], C, axes=1)), q


def orientability(space):
    """Connes dichotomy for the quotient of Der(cone) by its center.

    The centre is the common centraliser of two fixed-seed generic
    elements x, y of the cached orthonormal Der frame: the null space of
    their maps [ad_x; ad_y], one structure table (whose brackets with x
    also catch a frame not closed under commutator); its orthonormal
    complement K spans the quotient, whose maps are K ad K^T.  This holds
    as Der is reductive on every kind: on a self-dual cone D^T is in Der
    with D (exp(tD^T) preserves K* = K), and a real matrix Lie algebra
    closed under transposition is reductive (Knapp, Lie Groups Beyond an
    Introduction, 2nd ed., ch. I); a polyhedral Der, B diag(mu) B^-1 over
    one ray basis, is abelian.  In a reductive algebra a generic x is
    regular semisimple, with centraliser z + h, h a Cartan subalgebra,
    and a generic y has a part in every root space of h, so C(x) and C(y)
    meet in the centre z; in the (non-reductive) Heisenberg algebra h_5
    they meet in dimension 3, its centre having dimension 1.
    Odd quotient dimension refutes immediately; otherwise the centroid of
    the quotient, the q x q matrices commuting with every adjoint map, is
    searched for a complex structure J, J^2 = -I.  The centroid is read
    off x and y alone (_centroid): when the words of y in ad_x and ad_y
    span the quotient, x and y generate it, and the centroid is the
    commutant of their two maps.  When they span less (y not regular, or
    the quotient not generated by x and y), the verdict is Unknown, with
    their rank and q.
    """
    Q = space._der_frame
    mats = Q.reshape(len(Q), space.dim, space.dim)
    xy = np.random.default_rng(13).standard_normal((2, len(mats)))
    ads, res = _structure_table(np.tensordot(xy, mats, axes=1), mats, Q)
    if res > 1e-9:
        raise ValueError("basis not closed under commutator (residual %.3g)" % res)
    K = _rank_split(ads.reshape(-1, len(mats)))[0]
    q = len(K)
    if q == 0:
        return Verdict("Orientable", "commutative degenerate case (quotient dimension 0)")
    if q % 2 == 1:
        return Verdict("NotOrientable", "odd dimension %d" % q)
    cent, rank = _centroid(*(K @ ads @ K.T), K @ xy[1])
    if cent is None:
        return Verdict("Unknown", "words of a generic element have rank %d, quotient dimension %d"
                       % (rank, q))
    J = _complex_structure(cent)
    if J is not None:
        return Verdict("Orientable", "centroid contains a complex structure", witness=J)
    if len(cent) <= 2:
        return Verdict("NotOrientable", "no complex structure in centroid")
    return Verdict("Unknown", "centroid of dimension %d not searched exhaustively" % len(cent))


def _complex_structure(cent):
    """An element J of the span with J^2 = -I, if a basis element gives
    one.  I lies in every centroid, so in one of dimension two or less
    the traceless parts of all elements are collinear; in a larger one,
    the J with J^2 = -I are a measure-zero set of combinations.  Each
    candidate is taken at unit Frobenius norm, so the absolute floors
    below do not see the centroid's scale."""
    for T in cent:
        q = len(T)
        I = np.eye(q)
        T = T / np.linalg.norm(T)
        # remove the trace part, then rescale the remainder
        T0 = T - (np.trace(T) / q) * I
        sq = T0 @ T0
        off = sq - (np.trace(sq) / q) * I
        if np.linalg.norm(T0) < 1e-9 or np.linalg.norm(off) > 1e-7 * max(np.linalg.norm(sq), 1.0):
            continue
        lam = np.trace(sq) / q
        if lam < -1e-12:
            J = T0 / np.sqrt(-lam)
            if np.linalg.norm(J @ J + I) < 1e-7:
                return J
    return None


# ---------------------------------------------------------------------------
# spectral faces

class SpectralFaceFamily:
    """Increasing family of the nonzero faces of a self-adjoint derivation,
    one per run of its spectral values.

    Built from three stacks: the strictly increasing eigenvalues lams
    (f,), the span projectors (f, dim, dim) and the witnesses (f, dim).
    Building a family checks every projector (idempotent and symmetric to
    1e-10) in one call and every witness against its face, |P_k w_k - w_k|
    within the face band, in one test.  spectral_faces builds the family
    of a derivation from lams, the witnesses and its kind's runs: there the
    projectors are built and checked alike on their first read.  entries,
    the (eigenvalue, Face) pairs, are built through Face only when read or
    when the family is iterated."""

    def __init__(self, host, lams, projectors, witnesses):
        self.host = host
        self.lams = _increasing(lams)
        self.witnesses = np.asarray(witnesses, dtype=float)
        self.projectors = _checked_family(np.asarray(projectors, dtype=float), self.witnesses)

    @functools.cached_property
    def entries(self):
        return [(float(lam), Face(self.host, P, w))
                for lam, P, w in zip(self.lams, self.projectors, self.witnesses)]

    @functools.cached_property
    def _units(self):
        """The unit of each witness's face, which reconstruct_from_faces
        reads: the kind's _supports, one decomposition of the witnesses
        on a Jordan kind, which refuses a witness outside the cone."""
        return self.host._supports(self.witnesses)

    def __iter__(self):
        return iter(self.entries)

    def __len__(self):
        return len(self.lams)


class _RunFamily(SpectralFaceFamily):
    """The family spectral_faces builds: lams, the witnesses and the runs the
    kind's _eigenfaces clustered, from which the projectors (U_c of each
    witness c on a Jordan kind, the span of the run's rays on a polyhedral
    cone) are built and checked on their first read, and the minimal pieces
    of the witnesses on theirs; parts(a), a point's part in each face, reads
    the projectors only on a polyhedral cone.  Each witness is its own
    face's unit (a sum of frame elements, or of unit rays), so the witnesses
    are set as _units in place of the cached property, and
    reconstruct_from_faces decomposes none."""

    def __init__(self, host, lams, witnesses, runs):
        self.host = host
        self.lams = _increasing(lams)
        self.witnesses = self._units = witnesses
        self._runs = runs

    @functools.cached_property
    def projectors(self):
        return _checked_family(self.host._run_projectors(self.witnesses, self._runs),
                               self.witnesses)

    def parts(self, a):
        """The part of a in each face (f, dim), by the kind's _run_parts: the
        Peirce parts U_c a of the witnesses c by Jordan products on a Jordan
        kind, with no projector; P a over the checked projectors on a
        polyhedral cone."""
        return self.host._run_parts(self.witnesses, self._runs, a, lambda: self.projectors)

    @functools.cached_property
    def pieces(self):
        """(lam, component) over the minimal pieces of each witness in turn:
        the run's frame elements on a Jordan kind, the witness's frame terms
        on a polyhedral cone."""
        return self.host._run_pieces(self.lams, self.witnesses, self._runs)


def _increasing(lams):
    lams = np.asarray(lams, dtype=float)
    if np.any(np.diff(lams) <= 0):
        raise ValueError("eigenvalues must be strictly increasing")
    return lams


def _checked_family(P, W):
    """The projector stack P, once every projector is idempotent and symmetric
    (_check_projectors) and every witness w_k of W lies in its face."""
    _check_projectors(P)
    off = (P @ W[:, :, None])[:, :, 0] - W
    if np.any(np.vecdot(off, off) > _face_band(W) ** 2):
        raise ValueError("witness does not lie in its face")
    return P


# n computed values (spectral values of delta e, ray quotients, or eigenvalues
# for ratio_equal) are off by round-off of order n eps max|v| (Weyl; Golub &
# Van Loan, Matrix Computations, 4th ed., 8.1): neighbours within CLUSTER_TOL
# of the larger of the two share a spectral face, and so do neighbours within
# EIG_FLOOR n max|v| = 16 n eps max|v|, where that round-off outweighs it
CLUSTER_TOL = 1e-8
EIG_FLOOR = 16 * np.finfo(float).eps


def _cluster(values):
    """(means, cuts) of the runs of n sorted values whose neighbours lie within
    CLUSTER_TOL of the larger, or within EIG_FLOOR n max|v| (so n zeros are
    one run); cuts are the midpoints of the gaps between runs, which a chained
    run's mean can lie beyond.  Offsets from a run's first value are summed:
    a mean is within an ulp of the exact one.  A value that is not finite
    (an inf past the float range, or a nan) raises ValueError."""
    # the band is scale-invariant and keeps apart small eigenvalues beside
    # large ones down to a gap of EIG_FLOOR n max|v|; a running sum of the
    # values would drift by several ulps over a dozen of them
    v = np.sort(values)
    if not (math.isfinite(v[0]) and math.isfinite(v[-1])):  # nan sorts last
        raise ValueError("spectral values are not finite: %r" % (v.tolist(),))
    a = np.abs(v)
    band = np.maximum(CLUSTER_TOL * np.maximum(a[:-1], a[1:]),
                      EIG_FLOOR * len(v) * max(a[0], a[-1]))
    new = np.concatenate(([True], v[1:] - v[:-1] > band))  # does v[i] start a run?
    starts = new.nonzero()[0]
    run = new.cumsum() - 1
    first = v[starts]
    means = first + np.add.reduceat(v - first[run], starts) / np.bincount(run)
    return means, (v[starts[1:] - 1] + first[1:]) / 2.0


def spectral_faces(space, delta):
    """Faces cut out of the cone by the eigenspaces of a self-adjoint
    derivation, a Derivation or a matrix, checked alike: _der_verdict
    (no witness search), then _asymmetric, either refusal a
    NotSelfAdjointDerivation.  The kind's _eigenfaces runs _cluster on the
    r spectral values of delta e (delta = L(delta e), Jordan kinds) or the
    Rayleigh quotients of the extreme rays, and gives each run's mean and
    witness; the family builds the faces, one checked stack, when its
    projectors are first read, and no Face unless iterated.  A spectral
    value past the float range (a finite delta can have one) raises a plain
    ValueError there, so every multiplier of a ratio is finite."""
    M, verdict = _der_verdict(space, delta)
    if not verdict:
        raise NotSelfAdjointDerivation("operator is not a derivation: %r" % verdict)
    if _asymmetric(M):
        raise NotSelfAdjointDerivation("spectral faces need a self-adjoint derivation")
    return _RunFamily(space, *space._eigenfaces(M, _cluster))


def reconstruct_from_faces(space, family):
    """The finite facial spectral theorem: sum_k lam_k delta_(F_k) over the
    family's faces, through the kind hook that to_derivation uses, with the
    units of the witnesses' faces: on a Jordan kind L(sum_k lam_k c_k), the
    c_k the witnesses themselves for a family from spectral_faces, and
    their support idempotents for one built with arbitrary witnesses, and
    R diag(mu) R+ over the extreme rays R on a polyhedral cone.  The faces
    are mutually orthogonal, so this is the telescoped sum_k (lam_k -
    lam_(k+1)) delta_(F_1 v ... v F_k).  Round-trips spectral_faces."""
    return Derivation(space, space._ratio_derivation(family.lams, family._units))
