"""Finite-dimensional inner-product spaces ordered by a self-dual cone.

Built-in cone kinds (nonnegative orthant, second-order cone, real
symmetric and complex Hermitian positive semidefinite cones) plus
finitely generated polyhedral cones.  Matrix cones are carried in
isometric vectorization so that the trace inner product coincides with
the Euclidean one on coordinates and every linear operator is a plain
matrix.

The four built-in kinds are the symmetric cones of the Euclidean Jordan
algebras R^n, the spin factor, Sym(k, R) and Herm(k, C) (Faraut &
Koranyi, Analysis on Symmetric Cones, ch. III-IV).  Each kind class
supplies four primitives: its unit e, its multiplication operator L(a)
(x -> a o x) as a dim x dim matrix, the spectral decompositions
x = sum_i lam_i c_i over Jordan frames (c_i) of a whole stack of points
in one call, and one Jordan frame of two points (_joint_frame), a frame
of both when they operator-commute.  _JordanSpace derives the
rest once: the membership margin is lam_min, project = sum lam_i^+ c_i,
the face of a is the Peirce compression U_c = 2 L(c)^2 - L(c) for the
support idempotent c of a, its orthogonal face is U_(e - c), the
order-unit norm is max |lam(U_y x)| for the quadratic representation U_y
of y = u^(-1/2), the derivations are L(V) + [L(V), L(V)], and two
ratios' multipliers are paired by their coordinates on a common frame
(_frame_pairs).
Polyhedral cones carry no Jordan product and answer the same private
hooks from their extreme rays and facet incidence table, built in numpy by
one double description of the unit generators (_facet_table).  The public
methods all live on ConeSpace; the kind classes only supply the hooks.

Every kind builds faces in stacks through one pair of hooks: _faces_of
maps points (f, dim) to span projectors (f, dim, dim) and witnesses, and
_orthogonal_faces maps those to the orthogonal faces'.  _face_points
gives the faces that decide facial homogeneity: those of the extreme
rays, or U_c for the partial sums c of one Jordan frame of e.  Face (one
projector and witness, checked when built) and _checked_faces (a hook's
stack with its orthogonal faces, every projector checked) live here too.
No kind builds a face for sum lam delta_F (_ratio_derivation): it is
L(sum lam c) on a Jordan kind, R diag(mu) R+ over the extreme rays on a
polyhedral cone (_ray_multipliers).  The spectral faces of a self-adjoint
derivation come from _eigenfaces, which clusters the kind's own values
(the spectral values of delta e, or the extreme rays' quotients) and
returns the means, the witnesses and the runs, but no projector:
_run_projectors builds a run's faces only for a caller that reads them,
and _run_pieces gives the runs' minimal pieces.

The single tolerance knob TOL classifies membership: Boundary is a band
of relative width TOL around the topological boundary, and every strict
comparison downstream routes through it, as does the face band.
"""

import functools
import itertools
import math
import operator
from enum import Enum

import numpy as np

TOL = 1e-9

SQRT2 = np.sqrt(2.0)

# round-off allowed in the Der frame's Q Q^T = I, far below the relative
# threshold of derivation_algebra.DER_TOL
FRAME_ORTHONORMAL_TOL = 1e-12

# a common frame of two commuting points a, b (_MatrixSpace._joint_frame):
# eigh reads a's eigenvectors across a gap d to within about eps |a| / d,
# which moves b by that times b's own gap there.  Across a gap of a above
# FRAME_SPLIT_GAP |a| they are kept (b moves by under 1e-9 of |b|); a's
# runs within it are split by b, and b's ties within FRAME_TIE_GAP |b|
# there by a again, which moves b by less than the width of the ties
FRAME_SPLIT_GAP = 1e-5
FRAME_TIE_GAP = 1e-9


class Membership(Enum):
    INTERIOR = "Interior"
    BOUNDARY = "Boundary"
    OUTSIDE = "Outside"


# ---------------------------------------------------------------------------
# isometric vectorizations

def sym_to_vec(A):
    """Symmetric k x k matrix -> vector of length k(k+1)/2.

    Off-diagonal entries scaled by sqrt(2) so <A,B>_F = <vec A, vec B>.
    """
    A = np.asarray(A, dtype=float)
    k = A.shape[0]
    out = []
    for i in range(k):
        out.append(A[i, i])
        for j in range(i + 1, k):
            out.append(SQRT2 * A[i, j])
    return np.array(out)


def vec_to_sym(v):
    v = np.asarray(v, dtype=float)
    d = len(v)
    k = int(round((np.sqrt(8 * d + 1) - 1) / 2))
    if k * (k + 1) // 2 != d:
        raise ValueError("length is not a triangular number")
    A = np.zeros((k, k))
    idx = 0
    for i in range(k):
        A[i, i] = v[idx]
        idx += 1
        for j in range(i + 1, k):
            A[i, j] = A[j, i] = v[idx] / SQRT2
            idx += 1
    return A


def vec_to_herm(v):
    v = np.asarray(v, dtype=float)
    d = len(v)
    k = int(round(np.sqrt(d)))
    if k * k != d:
        raise ValueError("length is not a perfect square")
    A = np.zeros((k, k), dtype=complex)
    idx = 0
    for i in range(k):
        A[i, i] = v[idx]
        idx += 1
        for j in range(i + 1, k):
            re = v[idx] / SQRT2
            im = v[idx + 1] / SQRT2
            idx += 2
            A[i, j] = re + 1j * im
            A[j, i] = re - 1j * im
    return A


@np.errstate(over="ignore")  # a norm that overflows raises below
def _face_band(X):
    """TOL max(1, |x|) for a point or each row of a stack: eigenvalues (dual
    pairings) up to it count as zero.  A norm that is not finite raises."""
    band = TOL * np.maximum(1.0, np.sqrt(np.vecdot(X, X)))
    if not np.isfinite(band).all():
        raise ValueError("vector norm is not finite")
    return band


def _row_norms(Z):
    """|z| of each row of a stack, under the caller's np.errstate(over=
    "ignore").  A finite row whose square sum overflows is divided by its
    largest entry first, as LAPACK's dnrm2 scales, so its norm is inf only
    past the float range.  The test is one BLAS call, nz . nz: it is
    finite when no norm overflowed (finite norms too large for it pass
    through the rescaling unchanged)."""
    nz = np.sqrt(np.vecdot(Z, Z))
    if not math.isfinite(nz.dot(nz)):
        s = np.abs(Z).max(axis=1)
        big = np.isinf(nz) & np.isfinite(s)
        W = Z[big] / s[big, None]
        nz[big] = s[big] * np.sqrt(np.vecdot(W, W))
    return nz


def _face_pieces(lams, terms):
    """(lam, coefficient * component) over the frame terms of each face in
    turn, at the face's lam."""
    return [(lam, coeff * comp)
            for lam, face_terms in zip(lams.tolist(), terms)
            for coeff, comp in face_terms]


def _close_runs(w, gap):
    """(start, stop) of each run of two or more sorted values w whose
    neighbours lie within gap."""
    ends = [0, *(np.flatnonzero(np.diff(w) > gap) + 1).tolist(), len(w)]
    return [(i, j) for i, j in zip(ends, ends[1:]) if j - i > 1]


def _in_runs(x, cuts):
    """Indicators (len(cuts) + 1, len(x)) of the run of x between sorted cuts."""
    return np.searchsorted(cuts, x) == np.arange(len(cuts) + 1)[:, None]


# ---------------------------------------------------------------------------
# faces

# squared Frobenius norms of P P - P and P - P^T allowed in a projector:
# idempotent and symmetric to 1e-10
PROJECTOR_SQ_TOL = 1e-20


def _check_projectors(P):
    """Raise unless each projector of a stack (f, dim, dim) is idempotent
    and symmetric to within PROJECTOR_SQ_TOL."""
    f, d, _ = P.shape
    E = (P @ P - P).reshape(f, d * d)
    if np.vecdot(E, E).max(initial=0.0) > PROJECTOR_SQ_TOL:
        raise ValueError("projector is not idempotent")
    A = (P - P.transpose(0, 2, 1)).reshape(f, d * d)
    if np.vecdot(A, A).max(initial=0.0) > PROJECTOR_SQ_TOL:
        raise ValueError("projector is not symmetric")


class Face:
    """A face of the host cone: span projector plus witness.

    witness is a relative-interior element of the face (the face's own
    canonical unit); the zero vector for the trivial face.
    """

    def __init__(self, host, projector, witness):
        projector = np.asarray(projector, dtype=float)
        _check_projectors(projector[None])
        self.host = host
        self.projector = projector
        self.witness = np.asarray(witness, dtype=float)
        self.dim = int(round(np.trace(projector)))

    def contains(self, x):
        x = np.asarray(x, dtype=float)
        if not self.host.contains(x):
            return False
        nrm = np.linalg.norm(x)
        return np.linalg.norm(self.projector @ x - x) <= TOL * max(1.0, nrm)

    def __repr__(self):
        return "Face(dim=%d of %r)" % (self.dim, self.host)


def _checked_faces(space, faces):
    """Stacks (P, W, Pp): faces (P, W) from a face hook and their orthogonal
    faces' projectors, every projector checked."""
    P, W = faces
    Pp, _ = space._orthogonal_faces(P, W)
    _check_projectors(P)
    _check_projectors(Pp)
    return P, W, Pp


# ---------------------------------------------------------------------------
# polyhedral helpers

def _incidence(R, D):
    """Generator-facet table: a unit generator lies on a unit facet normal
    when it pairs with it at most TOL times the facet's largest pairing."""
    P = R.T @ D
    return P <= TOL * np.max(P, axis=0)


def _unit_columns(G):
    """G with every column scaled to unit norm; scaling by the largest
    entry first keeps the norms finite and nonzero across the float range."""
    G = G / np.max(np.abs(G), axis=0)
    return G / np.linalg.norm(G, axis=0)


def _first_distinct(T):
    """The indices, in order, of the first of each set of equal rows of a
    boolean table: np.unique(T, axis=0, return_index=True)'s, sorted, by one
    dict over the packed rows."""
    first = {}
    for i, row in enumerate(np.packbits(T, axis=1)):
        first.setdefault(row.tobytes(), i)
    return np.fromiter(first.values(), int, len(first))


def _pivots(A, k):
    """The indices of k columns of A, each in turn the column farthest from
    the span of those already picked (Businger & Golub, Numer. Math. 7,
    1965), as a pivoted QR orders them; the first on a tie."""
    A = A.copy()
    picked = []
    for _ in range(k):
        j = int(np.argmax(np.vecdot(A, A, axis=0)))
        picked.append(j)
        q = A[:, j] / np.linalg.norm(A[:, j])
        A -= q[:, None] * (q @ A)
    return picked


# the most entries one blocked comparison or product of a polyhedral cone's
# construction holds at once: 512 KiB of uint64 or float64
BLOCK_ENTRIES = 1 << 16


def _double_description(R):
    """The extreme rays, as unit rows, of {y : R^T y >= 0} for unit columns R
    spanning a pointed cone (Motzkin, Raiffa, Thompson & Thrall, 1953;
    Fukuda & Prodon, LNCS 1120, 1996).  The simplicial cone of dim _pivots
    columns has the rows of the inverse as its rays; each other generator
    in turn keeps the rays on its non-negative side and joins each adjacent
    pair across it.  A pairing is tight within TOL times the step's largest,
    and each ray carries the generators it is tight on as bits packed in
    uint64 words.  Two rays are adjacent when their common tight set holds
    at least dim - 2 generators and no third ray's contains it; the join is
    tight on that set and on the new generator."""
    d, m = R.shape
    basis = _pivots(R, d)
    Y = np.linalg.inv(R[:, basis])
    Y /= np.sqrt(np.vecdot(Y, Y))[:, None]
    words = (m + 63) // 64
    bit = np.packbits(np.eye(m, 64 * words, dtype=bool), axis=1).view(np.uint64)
    Z = np.bitwise_or.reduce(bit[basis], axis=0) ^ bit[basis]
    for j in sorted(set(range(m)) - set(basis)):
        s = Y @ R[:, j]
        size = np.abs(s)
        band = TOL * size.max()
        Z[size <= band] |= bit[j]
        neg = s < -band
        if not neg.any():
            continue
        pos = s > band
        common = Z[pos][:, None] & Z[neg]
        shared = np.bitwise_count(common).sum(axis=2, dtype=np.min_scalar_type(m))
        p, n = np.divmod(np.flatnonzero(shared >= d - 2), shared.shape[1])
        C = common[p, n]
        held = np.empty(len(C), int)  # how many rays' tight sets hold each C
        step = max(1, BLOCK_ENTRIES // (len(Z) * words))
        for i in range(0, len(C), step):
            c = C[i:i + step, None]
            held[i:i + step] = ((Z & c) == c).all(axis=2).sum(axis=1)
        adjacent = held == 2
        p, n, C = p[adjacent], n[adjacent], C[adjacent]
        new = s[pos][p, None] * Y[neg][n] - s[neg][n, None] * Y[pos][p]
        new /= np.sqrt(np.vecdot(new, new))[:, None]
        Y = np.concatenate([Y[~neg], new])
        Z = np.concatenate([Z[~neg], C | bit[j]])
    return Y


def _facet_table(R):
    """(D, T): the unit dual generators D of cone(R), R full-dimensional,
    pointed and of unit columns, and their incidence table T = _incidence(R,
    D): _double_description's rays, the first of each set with equal
    incidence columns kept."""
    D = _double_description(R).T
    T = _incidence(R, D)
    first = _first_distinct(T.T)
    return D[:, first], T[:, first]


# scipy is imported where a polyhedral projection or the pointedness LP first
# calls it, so a cone whose generator sum certifies it pointed is built and
# analyzed without it; the solvers stay module-level names, which a tracer or
# a test can patch
def nnls(*args, **kwargs):
    """scipy.optimize.nnls, imported on call."""
    from scipy import optimize
    return optimize.nnls(*args, **kwargs)


def linprog(*args, **kwargs):
    """scipy.optimize.linprog, imported on call."""
    from scipy import optimize
    return optimize.linprog(*args, **kwargs)


# HiGHS's primal feasibility tolerance: linprog accepts a constraint
# residual up to this as feasible
LP_FEASIBILITY_TOL = 1e-7


def _is_pointed(G):
    """cone(G) of unit generators G is pointed iff 0 is not a nontrivial
    nonnegative combination of them.

    First a certificate from Gordan's alternative (Schrijver, Theory of
    Linear and Integer Programming, ch. 7): y = G 1, the sum of the
    generators, with mu = min G^T y.  Every lambda >= 0 has
    y . G lambda >= mu sum(lambda), so with sum(lambda) = 1,
    |G lambda|_inf >= |G lambda| / sqrt(dim) >= mu / (sqrt(dim) |y|).  When
    that exceeds LP_FEASIBILITY_TOL, no lambda the LP below could accept
    exists, and the cone is pointed.  Otherwise the LP decides.
    """
    dim, m = G.shape
    y = G.sum(axis=1)
    if np.min(y @ G) > LP_FEASIBILITY_TOL * math.sqrt(dim) * np.linalg.norm(y):
        return True
    res = linprog(
        c=np.zeros(m),
        A_eq=np.vstack([G, np.ones((1, m))]),
        b_eq=np.concatenate([np.zeros(dim), [1.0]]),
        bounds=[(0, None)] * m,
        method="highs",
    )
    return not res.success


def _orthonormal_span(mats):
    """An orthonormal basis (Frobenius) of the span of an iterable of d x d matrices.

    Block Gram-Schmidt: each block of 64 matrices is projected off the
    basis so far (twice, for stability), and the singular directions of
    the remainder above 1e-9 of the block's largest norm (or of 1) extend
    the basis.  Blocks are taken from the iterable one at a time, and small
    blocks keep the SVD workspace, and so peak memory, small.
    """
    mats, Q = iter(mats), None
    while block := [m.reshape(-1) for m in itertools.islice(mats, 64)]:
        B = np.array(block)
        Q = np.empty((0, B.shape[1])) if Q is None else Q
        floor = 1e-9 * max(1.0, np.max(np.linalg.norm(B, axis=1)))
        for _ in range(2):
            B = B - (B @ Q.T) @ Q
        if np.linalg.norm(B) > floor:  # no singular value exceeds the Frobenius norm
            _, s, vt = np.linalg.svd(B, full_matrices=False)
            Q = np.vstack([Q, vt[s > floor]])
    if Q is None:
        return []
    d = math.isqrt(Q.shape[1])
    return list(Q.reshape(len(Q), d, d))


def _rank_split(A):
    """Orthonormal rows spanning the row space and the null space of A by
    one SVD, full if A is wide, with the rank cut 1e-8 max(s_max, 1)."""
    _, s, vt = np.linalg.svd(A, full_matrices=A.shape[0] < A.shape[1])
    rank = int(np.sum(s > 1e-8 * np.max(s, initial=1.0)))
    return vt[:rank], vt[rank:]


def _size(n, least, message):
    """operator.index(n), so a float raises TypeError; below least, ValueError."""
    n = operator.index(n)
    if n < least:
        raise ValueError(message)
    return n


@functools.cache
def _shared(make, *args):
    """make(*args), built once per argument tuple of validated sizes."""
    return make(*args)


# ---------------------------------------------------------------------------

class ConeSpace:
    """An inner-product space R^dim together with a closed pointed cone.

    Construct through the classmethods orthant / lorentz / psd_real /
    hermitian / polyhedral, which return the kind classes below that
    supply the private hooks.  Immutable after construction; all queries
    are pure.  Each Jordan kind and size is one shared object, whose cached
    constants are built once; a polyhedral cone's are freed with it.
    """

    def __init__(self, kind, dim, param=None, generators=None, dual_generators=None):
        self.kind = kind
        self.dim = dim
        self.param = param
        self.generators = generators
        self.dual_generators = dual_generators

    # -- constructors -------------------------------------------------------

    @classmethod
    def orthant(cls, n):
        return _shared(_Orthant, _size(n, 1, "orthant dimension must be >= 1"))

    @classmethod
    def lorentz(cls, n):
        return _shared(_Lorentz, _size(n, 2, "lorentz cone needs ambient dimension >= 2"))

    @classmethod
    def psd_real(cls, k):
        k = _size(k, 1, "matrix size must be >= 1")
        return _shared(_MatrixSpace, "psd_real", k, k * (k + 1) // 2, vec_to_sym, _symmetric_units)

    @classmethod
    def hermitian(cls, k):
        k = _size(k, 1, "matrix size must be >= 1")
        return _shared(_MatrixSpace, "hermitian", k, k * k, vec_to_herm, _hermitian_units)

    @classmethod
    def polyhedral(cls, generators):
        G = np.column_stack([np.asarray(g, dtype=float) for g in generators])
        if not np.isfinite(G).all():
            raise ValueError("generator entries are not finite")
        if not np.all(np.any(G, axis=0)):
            raise ValueError("zero generator")
        # the presentation checks see unit generators, so no scale decides them
        R = _unit_columns(G)
        if np.linalg.matrix_rank(R, tol=1e-10) < G.shape[0]:
            raise ValueError("generators do not span the space; cone has empty interior")
        if not _is_pointed(R):
            raise ValueError("cone contains a line")
        return _Polyhedral(G, R, *_facet_table(R))

    def __repr__(self):
        return "ConeSpace(%s, param=%d, dim=%d)" % (self.kind, self.param, self.dim)

    # -- basic geometry -----------------------------------------------------

    def _check_dim(self, x):
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise ValueError("dimension mismatch: expected %d, got %s" % (self.dim, x.shape))
        return x

    def _check_finite(self, x):
        # not on membership: its norm check rejects these vectors too, so
        # contains, leq, lt and the bisection norm pay for no second check
        x = self._check_dim(x)
        if not np.isfinite(x).all():
            raise ValueError("vector entries are not finite")
        return x

    # a norm past the float range is rejected, not scaled (the margins take
    # raw norms).  np.errstate costs less as a decorator than as a with, and
    # np.linalg.norm's own steps (ravel, dot, sqrt: the same bits) skip its
    # Python overhead: together they cost about what np.linalg.norm does
    @np.errstate(over="ignore")
    def membership(self, x):
        """INTERIOR, BOUNDARY or OUTSIDE within the band TOL max(|x|, 1).
        A vector whose norm is not finite (a nan or inf entry, or a norm
        past the float range) raises ValueError."""
        x = self._check_dim(x)
        v = x.ravel(order="K")
        nrm = math.sqrt(v.dot(v))
        if not math.isfinite(nrm):
            raise ValueError("vector norm is not finite")
        if nrm == 0.0:
            return Membership.BOUNDARY
        m = self._margin(x)
        # absolute floor so roundoff-sized vectors stay on the boundary
        band = TOL * max(nrm, 1.0)
        if m > band:
            return Membership.INTERIOR
        if m < -band:
            return Membership.OUTSIDE
        return Membership.BOUNDARY

    def contains(self, x):
        return self.membership(x) is not Membership.OUTSIDE

    def leq(self, x, y):
        return self.contains(np.asarray(y, dtype=float) - np.asarray(x, dtype=float))

    def lt(self, x, y):
        y = np.asarray(y, dtype=float)
        d = y - np.asarray(x, dtype=float)
        if not self.contains(d):
            return False
        # the norms as membership takes them (contains kept d's finite); y's
        # may overflow, to an inf band that no d exceeds
        v, w = d.ravel(order="K"), y.ravel(order="K")
        with np.errstate(over="ignore"):
            return math.sqrt(v.dot(v)) > TOL * max(1.0, math.sqrt(w.dot(w)))

    def is_self_dual(self):
        return self._self_dual

    def is_order_unit(self, u):
        return self.membership(u) is Membership.INTERIOR

    def canonical_unit(self):
        """A distinguished order unit: the Jordan unit (all-ones / apex
        direction / identity matrix) or the sum of unit extreme rays."""
        return self._e.copy()

    def L(self, a):
        """The Jordan multiplication operator x -> a o x as a dim x dim
        matrix; polyhedral cones carry no Jordan product and raise."""
        return self._L(self._check_dim(a))

    @functools.cached_property
    def _selfadjoint_mats(self):
        """_derivation_mats(selfadjoint=True) as one read-only (k, dim, dim) stack."""
        S = np.array(self._derivation_mats(selfadjoint=True)).reshape(-1, self.dim, self.dim)
        S.flags.writeable = False
        return S

    @functools.cached_property
    def _der_frame(self):
        """_derivation_mats(), Frobenius-orthonormal, as the rows of one read-only
        (n, dim^2) array Q: M lies ||v - Q^T (Q v)|| from Der, v = M.reshape(-1)."""
        Q = np.array([m.reshape(-1) for m in self._derivation_mats()])
        Q.flags.writeable = False
        err = np.max(np.abs(Q @ Q.T - np.eye(len(Q))))
        assert err <= FRAME_ORTHONORMAL_TOL, "derivation basis is not orthonormal (%.3g)" % err
        return Q

    # -- Jordan / Moreau decomposition --------------------------------------

    def project(self, x):
        """Nearest point of the cone (metric projection)."""
        return self._project(self._check_finite(x))

    def jordan_decompose(self, x):
        """x = x_plus - x_minus with both parts in the cone and orthogonal.
        Each part is computed on its own, not as the difference of x and
        the other, so it lies in the cone to its own roundoff, not to that
        of x."""
        return self._jordan_parts(self._check_finite(x))

    # -- order-unit norm -----------------------------------------------------

    def order_unit_norm(self, x, u=None):
        """inf {t >= 0 : -t u <= x <= t u} for an order unit u (default
        the canonical unit)."""
        x = self._check_finite(x)
        if u is not None:
            u = self._check_dim(u)
            if not self.is_order_unit(u):
                raise ValueError("u is not an order unit")
        if not np.any(x):
            return 0.0
        return self._unit_norm(x, u)

    # -- sampling ------------------------------------------------------------

    def sample_vector(self, rng):
        return rng.standard_normal(self.dim)

    def sample_cone_point(self, rng):
        """A random point of the cone (projection of a Gaussian; random
        conic combination of generators for polyhedral kinds, which may
        not support projection)."""
        return self._sample_cone_point(rng)

    def sample_interior_point(self, rng):
        x = self.sample_cone_point(rng)
        u = self.canonical_unit()
        return x + (0.1 + 0.1 * np.linalg.norm(x)) * u / np.linalg.norm(u)


# ---------------------------------------------------------------------------
# the Jordan kinds

class _JordanSpace(ConeSpace):
    """The symmetric cone of a Euclidean Jordan algebra, derived from the
    kind's unit _e, its _L(a) and its _spectral(X), which decomposes a
    stack of points X (f, dim) in one call: eigenvalues w (f, r) and frame
    elements as columns C (f, dim, r), so X[i] = C[i] @ w[i].  A single
    point goes in as x[None].  Each kind also gives the eigenvalues of one
    point, _eigvals(x), without the frame, and _joint_frame(a, b), a frame
    (dim, r) of both a and b when they operator-commute, each of its
    elements read off whichever of the two tells it apart from the others
    by the larger gap, so that round-off in the frame of two close values
    of one moves the other by no more than round-off."""

    _self_dual = True

    def __init__(self, kind, dim, param, e):
        super().__init__(kind, dim, param=param)
        self._e = e
        self._key = (kind, param)

    def _margin(self, x):
        return float(np.min(self._eigvals(x)))

    def _project(self, x):
        w, C = self._spectral(x[None])
        return C[0] @ np.maximum(w[0], 0.0)

    def _jordan_parts(self, x):
        w, C = self._spectral(x[None])
        return C[0] @ np.maximum(w[0], 0.0), C[0] @ np.maximum(-w[0], 0.0)

    def _unit_norm(self, x, u):
        if u is not None:
            # quadratic representation 2 L(y)^2 - L(y^2) of y = u^(-1/2)
            w, C = self._spectral(u[None])
            Ly = self._L(C[0] @ w[0] ** -0.5)
            x = (2.0 * Ly @ Ly - self._L(C[0] @ (1.0 / w[0]))) @ x
        return float(np.max(np.abs(self._eigvals(x))))

    def _sample_cone_point(self, rng):
        return self.project(rng.standard_normal(self.dim))

    def _U(self, C):
        """Peirce compressions 2 L(c)^2 - L(c) of a stack of idempotents
        (f, dim): the projectors onto the spans of the faces they support.
        L is linear, so the L(c) come from one tensordot with the L(e_j)."""
        L = np.tensordot(C, self._L_units, axes=1)
        return 2.0 * L @ L - L

    def _cone_spectral(self, X, band):
        """_spectral(X) of a stack of cone points: an eigenvalue below minus
        its row's face band raises."""
        w, frame = self._spectral(X)
        if not np.all(np.min(w, axis=1) >= -band):
            raise ValueError("point is outside the cone")
        return w, frame

    def _supports(self, X):
        """The support idempotent of each row of X: the sum of its frame
        elements above the face band, from one _spectral(X)."""
        band = _face_band(X)
        w, frame = self._cone_spectral(X, band)
        return (frame @ (w > band[:, None])[..., None])[..., 0]

    # -- faces (projectors, witnesses) ------------------------------------------

    def _faces_of(self, X):
        C = self._supports(X)
        return self._U(C), C

    def _orthogonal_faces(self, P, W):
        # the witness of a Jordan face is its unit, the idempotent c
        C = self._e - W
        return self._U(C), C

    def _eigenfaces(self, M, cluster):
        """M = L(M e) for a self-adjoint derivation: (means, c, runs) for c the
        frame elements of M e summed over each run cluster finds in its w, and
        runs the run indicators (f, r) with the frame (dim, r)."""
        (w,), (frame,) = self._spectral((M @ self._e)[None])
        lams, cuts = cluster(w)
        runs = _in_runs(w, cuts)
        return lams, runs @ frame.T, (runs, frame)

    def _run_projectors(self, C, runs):
        """The faces U_c of the units c of the runs of _eigenfaces."""
        return self._U(C)

    def _run_pieces(self, lams, C, runs):
        """(lam, frame element) for the frame elements of each run of
        _eigenfaces in turn, at the run's lam: the minimal pieces of the units
        c, with no second spectral call."""
        indicators, frame = runs
        k, i = indicators.nonzero()
        return list(zip(lams[k].tolist(), frame.T[i]))

    def _frame_terms(self, A):
        """Frame terms above the face band of each row of A, by one _cone_spectral(A)."""
        band = _face_band(A)
        w, frame = self._cone_spectral(A, band)
        return [[(float(lam), C[:, i].copy()) for i, lam in enumerate(row) if lam > b]
                for row, C, b in zip(w, frame, band)]

    def _face_points(self):
        """The faces U_c of the proper partial sums c of a frame of e, from
        one _spectral: they decide every face (is_facially_homogeneous)."""
        _, (frame,) = self._spectral(self._e[None])
        C = np.cumsum(frame[:, :-1], axis=1).T
        return (self._U(C), C), "every rank by transitivity"

    # -- derivations ----------------------------------------------------------

    def _ratio_derivation(self, lams, C):
        """sum lam_i delta_F_i over the faces F_i = U_(c_i) of a ratio's
        pieces or a spectral family's witnesses, given by their support
        idempotents c_i (rows of C, from _supports, or the frame elements and
        their run sums that the package splits off a frame).  By the Peirce
        decomposition the facial derivative of U_c is L(c), which is 1 on
        V(c, 1), 1/2 on V(c, 1/2) and 0 on V(c, 0); so the sum is the one
        operator L(sum lam_i c_i): no projector is built, and no point is
        decomposed."""
        return self._L(lams @ C)

    def _frame_pairs(self, terms):
        """The multiplier pairs of two ratios given by their terms (lams, C),
        as _ratio_derivation takes them, with max|lams| near 1: the
        coordinates (2, r) of a = lams @ C (delta e) and of b on one frame of
        both, and the distance of each from the point its coordinates
        rebuild, relative to its norm (0 for the zero point).  L(a) and L(b)
        commute exactly when a and b share a frame (Faraut & Koranyi, ch.
        II).  The frame is the kind's _joint_frame of the lexicographically
        first of a and b and the other, so both orders of a pair read one
        frame; no operator is built."""
        X = np.array([lams @ C for lams, C in terms])
        first = int(X[1].tolist() < X[0].tolist())
        frame = self._joint_frame(X[first], X[1 - first])
        coords = (X @ frame) / np.vecdot(frame, frame, axis=0)
        R = X - coords @ frame.T
        norms = np.sqrt(np.vecdot(X, X))
        return coords, np.divide(np.sqrt(np.vecdot(R, R)), norms, out=np.zeros(2), where=norms > 0.0)

    def _selfadjoint_units(self):
        return np.eye(self.dim)

    @functools.cached_property
    def _L_units(self):
        """The L(e_j) of the coordinate units, shape (dim, dim, dim), built
        on first use."""
        return np.array([self._L(u) for u in np.eye(self.dim)])

    def _derivation_mats(self, selfadjoint=False):
        """Self-adjoint derivations L(s) over the kind's units; all
        derivations as an orthonormal basis of L(V) + [L(V), L(V)]."""
        if selfadjoint:
            return [self._L(s) for s in self._selfadjoint_units()]
        Ls = self._L_units
        brackets = (A @ B - B @ A for A, B in itertools.combinations(Ls, 2))
        return _orthonormal_span(Ls) + _orthonormal_span(brackets)

    def _complementary_pairs(self, samples, rng):
        """Orthogonal frame elements of sampled random frames, from one
        _spectral of the (samples, dim) stack."""
        _, frames = self._spectral(rng.standard_normal((samples, self.dim)))
        return [(C[:, i], C[:, j]) for C in frames
                for i, j in itertools.permutations(range(frames.shape[2]), 2)]


class _Orthant(_JordanSpace):
    """R^n with the coordinatewise product; its frame is the coordinate
    basis."""

    def __init__(self, n):
        super().__init__("orthant", n, n, np.ones(n))
        self._frame = np.eye(n)
        self._frame.setflags(write=False)

    def _L(self, a):
        return np.diag(a)

    def _eigvals(self, x):
        return x

    def _spectral(self, X):
        """The rows of X are their eigenvalues, over the coordinate frame
        broadcast to (f, n, n)."""
        return X, np.broadcast_to(self._frame, (len(X),) + self._frame.shape)

    def _project(self, x):
        # sum lam_i^+ c_i over the coordinate frame, without the d x d product
        return np.maximum(x, 0.0)

    def _joint_frame(self, a, b):
        """The coordinate frame, every point's."""
        return self._frame

    def _derivation_mats(self, selfadjoint=False):
        """The L(e_j) commute, so every bracket [L(e_i), L(e_j)] is zero and
        Der is the span of the L(e_j) alone: no bracket is formed."""
        if selfadjoint:
            return super()._derivation_mats(selfadjoint=True)
        return _orthonormal_span(self._L_units)

    def _jordan_parts(self, x):
        return np.maximum(x, 0.0), np.maximum(-x, 0.0)


_PLUS_MINUS = np.array([1.0, -1.0])


class _Lorentz(_JordanSpace):
    """The spin factor R x R^(n-1), (t, z) o (s, y) = (ts + <z, y>,
    ty + sz); the frame of (t, z) is (1, +-z/|z|)/2 with eigenvalues
    t +- |z|."""

    def __init__(self, n):
        e = np.zeros(n)
        e[0] = 1.0
        super().__init__("lorentz", n, n, e)

    def _L(self, a):
        M = a[0] * np.eye(self.dim)
        M[0, 1:] = M[1:, 0] = a[1:]
        return M

    # no overflow warning: |z| is rescaled where its square overflows, and
    # t +- |z| past the float range is an inf spectral value, which
    # spectral_faces refuses
    @np.errstate(over="ignore")
    def _eigvals(self, x):
        z = x[1:]
        nz = math.sqrt(z.dot(z))
        if not math.isfinite(nz):
            (nz,) = _row_norms(z[None])
        return np.array([x[0] + nz, x[0] - nz])

    def _joint_frame(self, a, b):
        """The frame of whichever of a and b has the larger |z| against its
        norm, a's on a tie.  Its z/|z| is read to within about eps of the
        norm over |z|, which moves the other point, whose |z| is no larger
        against its norm, by about eps of its norm; a point in R e (z = 0)
        has every frame."""
        nz = _row_norms(np.array([a[1:], b[1:]]))
        x = b if nz[1] * math.sqrt(a.dot(a)) > nz[0] * math.sqrt(b.dot(b)) else a
        return self._spectral(x[None])[1][0]

    @np.errstate(over="ignore")
    def _spectral(self, X):
        """Eigenvalues t +- |z| (f, 2) and frames (f, n, 2); a row with
        z = 0 takes e_1 for z/|z|.  z/2 is divided by |z|, as 2|z| may
        overflow where |z| does not."""
        Z = X[:, 1:]
        nz = _row_norms(Z)
        C = np.zeros((len(X), self.dim, 2))
        C[:, 0] = 0.5
        C[:, 1, 0] = 0.5  # overwritten below unless z = 0
        np.divide(0.5 * Z, nz[:, None], out=C[:, 1:, 0], where=nz[:, None] > 0.0)
        np.negative(C[:, 1:, 0], out=C[:, 1:, 1])
        return X[:, :1] + nz[:, None] * _PLUS_MINUS, C


def _symmetric_units(k):
    """E_ii and E_ij + E_ji, row by row over the upper triangle."""
    for i in range(k):
        for j in range(i, k):
            S = np.zeros((k, k))
            S[i, j] = S[j, i] = 1.0
            yield S


def _hermitian_units(k):
    """E_ii, then E_ij + E_ji and i(E_ij - E_ji) for each i < j."""
    for i in range(k):
        S = np.zeros((k, k), dtype=complex)
        S[i, i] = 1.0
        yield S
    for i in range(k):
        for j in range(i + 1, k):
            for val in (1.0, 1.0j):
                S = np.zeros((k, k), dtype=complex)
                S[i, j], S[j, i] = val, np.conj(val)
                yield S


class _MatrixSpace(_JordanSpace):
    """Sym(k, R) or Herm(k, C) with A o B = (AB + BA)/2, carried through
    the isometry T (k^2 x dim) from coordinates to row-major matrix
    entries; the frame of X is its rank-one eigenprojections."""

    def __init__(self, kind, k, d, unvec, units):
        self._k = k
        self._T = np.array([unvec(e).reshape(-1) for e in np.eye(d)]).T
        self._units = units
        super().__init__(kind, d, k, self._vec(np.eye(k)))

    def _unvec(self, x):
        return (self._T @ x).reshape(self._k, self._k)

    def _vec(self, A):
        return (self._T.conj().T @ A.reshape(-1)).real

    # no overflow warning: spectral_faces refuses non-finite operators
    @np.errstate(over="ignore", invalid="ignore")
    def _L(self, a):
        # columns (A X_j + X_j A)/2 for the matrices X_j = unvec(e_j)
        k, d = self._k, self.dim
        A = self._unvec(a)
        X = self._T.reshape(k, k, d)
        AX = (A @ X.reshape(k, k * d)).reshape(k, k, d)
        XA = (X.transpose(0, 2, 1) @ A).transpose(0, 2, 1)
        L = (self._T.conj().T @ (AX + XA).reshape(k * k, d)).real / 2.0
        return (L + L.T) / 2.0

    def _eigvals(self, x):
        return np.linalg.eigvalsh(self._unvec(x))

    def _spectral(self, X):
        """One batched eigh of the (f, k, k) matrices: eigenvalues (f, k),
        and their frames (_frames)."""
        k = self._k
        w, V = np.linalg.eigh((X @ self._T.T).reshape(-1, k, k))
        return w, self._frames(V)

    def _frames(self, V):
        """The frames (f, dim, k) of unitary stacks V (f, k, k): the
        vectorised rank-one projections v v^H on their columns."""
        k = self._k
        outer = V[:, :, None, :] * V.conj()[:, None, :, :]
        return (self._T.conj().T @ outer.reshape(-1, k * k, k)).real

    def _joint_frame(self, a, b):
        """The eigenvectors of a, where a's values lie within FRAME_SPLIT_GAP
        |a| turned to those of b on their span W (the compression W^H B W),
        and where b's values lie within FRAME_TIE_GAP |b| there turned back
        to a's: a pair of eigenvectors is split by a where a has them apart,
        else by b where b does, so that it holds against the round-off of a
        close but distinct pair of values of either beside a far larger one.
        Each eigh past the first is of a run's size."""
        A, B = self._unvec(a), self._unvec(b)
        w, V = np.linalg.eigh(A)
        for i, j in _close_runs(w, FRAME_SPLIT_GAP * np.linalg.norm(a)):
            mu, U = np.linalg.eigh(V[:, i:j].conj().T @ B @ V[:, i:j])
            W = V[:, i:j] @ U
            for p, q in _close_runs(mu, FRAME_TIE_GAP * np.linalg.norm(b)):
                W[:, p:q] = W[:, p:q] @ np.linalg.eigh(W[:, p:q].conj().T @ A @ W[:, p:q])[1]
            V[:, i:j] = W
        return self._frames(V[None])[0]

    def _selfadjoint_units(self):
        # 2 L(S) is X -> S X + X S for the matrix unit S
        return [2.0 * self._vec(S) for S in self._units(self._k)]


# ---------------------------------------------------------------------------
# polyhedral cones

class _Polyhedral(ConeSpace):
    """cone(G) with unit dual generators D.  The hooks read the unit
    extreme rays R and their facet incidence, never the presentation G
    (Kaibel & Pfetsch, Comput. Geom. 23, 2002): a generator is extreme
    when its facets meet in a line, i.e. no generator lies on a strict
    superset of them, and one is kept per incidence row.  Self-dual means
    min R^T R >= -TOL and min D^T D >= -TOL."""

    def __init__(self, G, R, D, T):
        super().__init__("polyhedral", G.shape[0], generators=G, dual_generators=D)
        n = np.sum(T, axis=1)
        U = T.astype(float)  # the shared facet counts by one BLAS product, exact
        inside = np.any((U @ U.T == n[:, None]) & (n > n[:, None]), axis=1)
        first = _first_distinct(T)
        keep = first[~inside[first]]
        self._rays, self._incidence = R[:, keep], T[keep]
        self._key = ("polyhedral", self._rays.shape, self._rays.tobytes())
        self._e = np.sum(self._rays, axis=1)
        # D^T D a block of facets at a time, so that no f x f array is formed
        rays, f = self._rays, D.shape[1]
        step = max(1, BLOCK_ENTRIES // f)
        self._self_dual = bool(np.min(rays.T @ rays) >= -TOL and all(
            np.min(D[:, i:i + step].T @ D) >= -TOL for i in range(0, f, step)))

    def __repr__(self):
        return "ConeSpace(polyhedral, dim=%d, %d generators)" % (
            self.dim, self.generators.shape[1])

    def _margin(self, x):
        return float(np.min(self.dual_generators.T @ x))

    def _project(self, x):
        if not self._self_dual:
            raise ValueError("Jordan decomposition needs a self-dual cone")
        coeff, _ = nnls(self._rays, x)
        return self._rays @ coeff

    def _jordan_parts(self, x):
        # Moreau: x_minus is the projection of -x, as the polar cone is -K
        return self._project(x), self._project(-x)

    def _unit_norm(self, x, u):
        """Bisection for x / 2^k, max |x / 2^k| in [1, 2), times 2^k: exact,
        as the norm is positively homogeneous, and at every scale as fine as
        the membership band is relative above norm 1."""
        u = self._e if u is None else u
        k = math.frexp(float(np.max(np.abs(x))))[1] - 1
        x = np.ldexp(x, -k)
        hi = 1.0
        while not (self.leq(-hi * u, x) and self.leq(x, hi * u)):
            hi *= 2.0
        lo = 0.0
        for _ in range(80):
            mid = (lo + hi) / 2.0
            if self.leq(-mid * u, x) and self.leq(x, mid * u):
                hi = mid
            else:
                lo = mid
        return math.ldexp(hi, k)

    def _L(self, a):
        raise ValueError("a polyhedral cone carries no Jordan product")

    def _sample_cone_point(self, rng):
        return self.generators @ rng.exponential(size=self.generators.shape[1])

    # -- faces (projector, witness) -------------------------------------------

    def _generator_faces(self, masks):
        """The faces spanned by the unit extreme rays each row of the boolean
        masks (f, m) selects: projectors (f, dim, dim) and witnesses (f, dim),
        the sums of the rays, by stacked SVDs grouped by ray count under
        scipy.linalg.orth's rank cut: one LAPACK call per mask, so equal masks
        give equal projectors; no ray gives the zero face, all the identity."""
        R, d = self._rays, self.dim
        m = R.shape[1]
        counts = np.sum(masks, axis=1)
        P = np.zeros((len(masks), d, d))
        P[counts == m] = np.eye(d)
        for k in set(counts.tolist()) - {0, m}:
            rows = np.flatnonzero(counts == k)
            B = R.T[np.nonzero(masks[rows])[1].reshape(len(rows), k)].transpose(0, 2, 1)
            U, s, _ = np.linalg.svd(B, full_matrices=False)
            U = U * (s > max(d, k) * np.finfo(float).eps * s[:, :1])[:, None, :]
            P[rows] = U @ U.transpose(0, 2, 1)
        return P, masks @ R.T

    def _pairings(self, X):
        """The pairings of each row of a stack with the unit dual generators,
        and the face band; one below minus the band raises."""
        pairing = X @ self.dual_generators
        band = _face_band(X)[..., None]
        if not np.all(pairing >= -band):
            raise ValueError("point is outside the cone")
        return pairing, band

    def _face_masks(self, X):
        """The extreme rays in the face of each row of X, a boolean stack
        (f, m): the rays on every facet the row lies on within the face band."""
        pairing, band = self._pairings(X)
        active = pairing <= band
        return active.astype(int) @ self._incidence.T == np.sum(active, axis=1)[:, None]

    def _faces_of(self, X):
        return self._generator_faces(self._face_masks(X))

    def _orthogonal_faces(self, P, W):
        # the extreme rays each projector kills
        return self._generator_faces(np.linalg.norm(P @ self._rays, axis=-2) <= 1e-8)

    def _eigenfaces(self, M, cluster):
        """Every unit extreme ray r is an eigenvector of M in Der, and they
        span: (means, witnesses, runs) of the runs cluster finds in the
        quotients r^T M r / r^T r, runs the ray masks (f, m) and a run's
        witness the sum of its rays."""
        R = self._rays
        v = np.vecdot(R, M @ R, axis=0) / np.vecdot(R, R, axis=0)
        lams, cuts = cluster(v)
        runs = _in_runs(v, cuts)
        return lams, runs @ R.T, runs

    def _run_projectors(self, W, runs):
        """The faces spanning the rays of each run of _eigenfaces."""
        return self._generator_faces(runs)[0]

    def _run_pieces(self, lams, W, runs):
        """The frame terms of each run's witness, the sum of its rays, at the
        run's lam."""
        return _face_pieces(lams, self._frame_terms(W))

    def _frame_terms(self, A):
        """Ray coordinates above the face band of each row of A, by one _pairings(A)
        and one stacked one-column solve, so each row's equal a one-row call's."""
        _, band = self._pairings(A)
        R = self._rays
        if R.shape[1] != self.dim:
            # no incomparable split available in general: one block per row
            return [[(1.0, a)] for a in A]
        return [[(float(c[i]), R[:, i].copy()) for i in range(self.dim) if c[i] > b]
                for c, (b,) in zip(np.linalg.solve(R, A[..., None])[..., 0], band)]

    def _face_points(self):
        """The faces (P, W) of the unit extreme rays, labelled "exhaustive":
        they decide every face (face_lattice.is_facially_homogeneous)."""
        return self._faces_of(self._rays.T), "exhaustive"

    # -- derivations ----------------------------------------------------------

    def _supports(self, X):
        """The points themselves: _ray_multipliers reads the face of each
        piece off the piece itself, as _faces_of does."""
        return X

    @functools.cached_property
    def _ray_pinv(self):
        """pinv(R) of the unit extreme rays R: R R+ = I, as they span."""
        return np.linalg.pinv(self._rays)

    def _ray_multipliers(self, lams, X):
        """Each unit extreme ray's multiplier (m,): the lam of the pieces (rows
        of X) whose faces hold it, 0 in none (as L(sum lam c) is 0 off sum c);
        a ray held at two lams, or a piece outside the cone, raises."""
        held, lams = self._face_masks(X), lams[:, None]
        top = np.where(held, lams, -np.inf).max(axis=0, initial=-np.inf)
        if np.any(held & (lams != top)):
            raise ValueError("extreme ray in the faces of pieces with different multipliers")
        return np.where(held.any(axis=0), top, 0.0)

    def _ratio_derivation(self, lams, X):
        """sum lam delta_F over the faces of the pieces (rows of X) as the one
        operator R diag(mu) R+ over the unit extreme rays R, mu their
        _ray_multipliers: each ray is an eigenvector of every derivation
        (Kaibel & Pfetsch), and R R+ = I.  No face is built."""
        return (self._rays * self._ray_multipliers(lams, X)) @ self._ray_pinv

    def _frame_pairs(self, terms):
        """The _ray_multipliers of two ratios' terms (lams, C): every extreme
        ray is an eigenvector of every derivation, so the rays are a frame of
        every pair and both residuals are zero; no operator is built."""
        return np.array([self._ray_multipliers(lams, C) for lams, C in terms]), np.zeros(2)

    @functools.cached_property
    def _ray_basis(self):
        """(B, B^-1, S): a basis B of the unit extreme rays R by _pivots, its
        inverse, and the fundamental circuits S, the supports of the columns
        of B^-1 R; both Der frames read them."""
        R = self._rays
        B = R[:, _pivots(R, self.dim)]
        return B, np.linalg.inv(B), np.abs(np.linalg.solve(B, R)) > TOL

    def _derivation_mats(self, selfadjoint=False):
        """derivation_basis's B diag(mu) B^-1 over the _ray_basis B, mu
        constant on each component of the rays' matroid (Oxley, Matroid
        Theory, 2nd ed., ch. 4): two basis rays share a multiplier when one
        fundamental circuit holds both.  The component indicators span the
        null space of the Laplacian of that 0/1 graph.  selfadjoint also
        joins the circuits of rays that are not orthogonal, whose multipliers
        a symmetric M must equal, and takes the symmetric parts."""
        B, B_inv, S = self._ray_basis
        if selfadjoint:
            R = self._rays
            S = S @ (np.abs(R.T @ R) > TOL)
        A = S @ S.T
        M = B @ (_rank_split(np.diag(A.sum(axis=1)) - A)[1][:, :, None] * B_inv)
        return _orthonormal_span((M + M.mT) / 2 if selfadjoint else M)

    def _complementary_pairs(self, samples, rng):
        """Extreme-ray / dual-generator pairs with zero pairing."""
        return [(self._rays[:, i], self.dual_generators[:, j])
                for i, j in zip(*np.nonzero(self._incidence))]
