"""Polyhedral cones built from one double-description facet table, against
the brute-force references they replaced and against Qhull, which built the
table before (scipy.spatial.ConvexHull, imported here as a reference)."""

import importlib.util
import itertools
import math
import pathlib
import time

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog, nnls
from scipy.spatial import ConvexHull
from test_face_lattice import _tilted_orthant, polyhedral_cones

from eudoxus import cli, cone_space
from eudoxus.cone_space import (
    LP_FEASIBILITY_TOL,
    TOL,
    ConeSpace,
    _is_pointed,
    _orthonormal_span,
    _rank_split,
    _symmetric_units,
    _unit_columns,
)
from eudoxus.derivation_algebra import (
    derivation_basis,
    is_derivation,
    orientability,
    selfadjoint_derivations,
    tangency_dimension_oracle,
)
from eudoxus.face_lattice import face_of, is_facially_homogeneous, is_riesz


def polyhedral_dual_generators(G):
    """The unit dual generators a polyhedral cone builds from the generators
    G (columns): the facet table of their unit columns, as
    ConeSpace.polyhedral takes it, without the presentation checks."""
    return cone_space._facet_table(_unit_columns(np.asarray(G, dtype=float)))[0]


def qhull_dual_generators(G):
    """Reference facet enumeration, the table cones were built from before:
    the inner unit normals of the facets of conv(0, unit generators) through
    0 (Qhull; Barber, Dobkin & Huhdanpaa, ACM TOMS 22, 1996), once per set of
    generators held, since Qhull splits facets into simplices."""
    R = _unit_columns(np.asarray(G, dtype=float))
    if len(R) == 1:
        return np.sign(R[:, :1])
    hull = ConvexHull(np.vstack([np.zeros(len(R)), R.T]))
    D = -hull.equations[np.any(hull.simplices == 0, axis=1), :-1].T
    _, first = np.unique(cone_space._incidence(R, D), axis=1, return_index=True)
    return D[:, np.sort(first)]


def subset_dual_generators(G):
    """Reference facet enumeration: the null vector of every (dim - 1)-subset
    of generators that pairs with all generators with one sign.  Distinct
    normals are told apart absolutely at 1e-9 (np.allclose's default
    relative 1e-5 would merge facets 1e-7 apart)."""
    G = np.asarray(G, dtype=float)
    dim, m = G.shape
    if dim == 1:
        return np.array([[1.0]]) if np.all(G > 0) else np.array([[-1.0]])
    rays = []
    for subset in itertools.combinations(range(m), dim - 1):
        _, s, vt = np.linalg.svd(G[:, subset].T, full_matrices=True)
        if int(np.sum(s > 1e-10)) != dim - 1:
            continue
        y = vt[-1]
        pair = G.T @ y
        scale = max(np.max(np.abs(pair)), 1.0)
        if np.all(pair >= -1e-10 * scale):
            cand = y
        elif np.all(pair <= 1e-10 * scale):
            cand = -y
        else:
            continue
        cand = cand / np.linalg.norm(cand)
        if not any(np.allclose(cand, r, rtol=0.0, atol=1e-9) for r in rays):
            rays.append(cand)
    return np.column_stack(rays)


def _in_cone(G, X):
    """Reference membership: is every column of X in cone(columns of G)?
    Nonnegative least-squares residuals within the membership band."""
    return all(nnls(G, x)[1] <= TOL * max(1.0, np.linalg.norm(x)) for x in X.T)


def _same_unit_vectors(A, B, tol=1e-8):
    if A.shape != B.shape:
        return False
    dist = np.linalg.norm(A[:, :, None] - B[:, None, :], axis=0)
    return bool(np.all(dist.min(axis=1) <= tol) and np.all(dist.min(axis=0) <= tol))


def _ngon(n, h=1.0):
    r = np.cos(np.pi / n) ** -0.5
    return np.array([[h, r * np.cos(2 * np.pi * i / n), r * np.sin(2 * np.pi * i / n)]
                     for i in range(n)]).T


def _rotated_orthant(d, seed=0):
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((d, d)))
    return q


def _square_with_facet_generators():
    square = np.array([[1, 1, 1], [1, -1, 1], [1, -1, -1], [1, 1, -1]], dtype=float).T
    on_facets = np.array([[1, 0, 1], [1, 1, 0], [1, 0.3, -1], [2, 2, 2]], dtype=float).T
    return np.column_stack([square, on_facets])


def _random_cones():
    rng = np.random.default_rng(5)
    for d in range(3, 7):
        for m in (d + 1, 8, 12):
            for _ in range(3):
                G = rng.standard_normal((d, m))
                G[0] = np.abs(G[0]) + 0.5
                yield "random d%d m%d" % (d, m), G


FACET_CASES = ([("%d-gon" % n, _ngon(n)) for n in range(3, 16)]
               + [("rotated orthant %d" % d, _rotated_orthant(d)) for d in range(2, 9)]
               + [("2-D angle %g" % t, np.array([[1.0, 0.0], [np.cos(t), np.sin(t)]]).T)
                  for t in (0.1, 1.0, np.pi / 2, 2.0, 3.0, 3.14)]
               + [("square with facet generators", _square_with_facet_generators())]
               + [("wide %d-gon h=%g" % (n, h), _ngon(n, h))
                  for n in (3, 4, 7, 12) for h in (1e-2, 1e-4, 1e-6, 1e-8)]
               + list(_random_cones()))


@pytest.mark.parametrize("G", [G for _, G in FACET_CASES], ids=[n for n, _ in FACET_CASES])
def test_double_description_facets_match_qhull_and_the_subset_reference(G):
    D = polyhedral_dual_generators(G)
    assert _same_unit_vectors(D, qhull_dual_generators(G))
    assert _same_unit_vectors(D, subset_dual_generators(G))


# the subset reference takes every (dim - 1)-subset of generators; past this
# many it is left out, and Qhull alone is the reference
MAX_SUBSETS = 4000


@st.composite
def facet_generators(draw):
    """Generator columns of pointed full-dimensional cones: random ones in
    R^2..R^8 (up to 40 generators, in the half-space x_0 > 0),
    rotated orthants tilted by eps-sized noise, wide n-gons (height h down
    to 1e-8), and either of the last two with redundant generators (conic
    combinations) and repeated ones (positive multiples) mixed in."""
    family = draw(st.sampled_from(["random", "tilted", "ngon"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    if family == "random":
        dim = draw(st.integers(2, 8))
        G = rng.standard_normal((dim, draw(st.integers(dim, 40))))
        G[0] = np.abs(G[0]) + 0.1
        return G
    if family == "tilted":
        dim = draw(st.integers(2, 8))
        eps = draw(st.sampled_from([0.0, 1e-10, 1e-8, 1e-3, 0.3]))
        G = np.linalg.qr(rng.standard_normal((dim, dim)))[0] + eps * rng.standard_normal((dim, dim))
    else:
        G = _ngon(draw(st.integers(3, 24)), 10.0 ** -draw(st.integers(0, 8)))
    if draw(st.booleans()):
        m = G.shape[1]
        extra = np.column_stack([G @ rng.exponential(size=(m, 3)),
                                 rng.uniform(0.5, 4.0, 2) * G[:, rng.integers(0, m, 2)]])
        G = np.column_stack([G, extra])[:, rng.permutation(m + 5)]
    return G


@given(G=facet_generators())
@settings(max_examples=200, deadline=None)
def test_double_description_facets_match_qhull_and_the_subset_reference_at_random(G):
    D = polyhedral_dual_generators(G)
    assert _same_unit_vectors(D, qhull_dual_generators(G))
    if math.comb(G.shape[1], G.shape[0] - 1) <= MAX_SUBSETS:
        assert _same_unit_vectors(D, subset_dual_generators(G))


def test_the_constructor_tables_are_the_standalone_ones():
    # one pass over the unit generators gives the cone the arrays that the
    # standalone facet table and the earlier ray selection (np.unique over
    # the incidence rows, an integer product for the shared facets) give
    for _, G in FACET_CASES:
        sp = _cone(G)
        R = _unit_columns(G)
        D = polyhedral_dual_generators(G)
        T = cone_space._incidence(R, D)
        n = np.sum(T, axis=1)
        inside = np.any((T.astype(int) @ T.T == n[:, None]) & (n > n[:, None]), axis=1)
        _, first = np.unique(T, axis=0, return_index=True)
        keep = np.sort(first[~inside[first]])
        assert np.array_equal(sp.dual_generators, D)
        assert np.array_equal(sp._rays, R[:, keep]) and np.array_equal(sp._incidence, T[keep])
        assert sp._key == ("polyhedral", sp._rays.shape, R[:, keep].tobytes())


def _plain_presentations():
    return {
        "quadrant": np.eye(2),
        "octant": np.eye(3),
        "3-gon": _ngon(3),
        "5-gon": _ngon(5),
        "rotated orthant 4": _rotated_orthant(4, seed=2),
        "1-D": np.array([[1.5]]),
    }


def _verdicts(sp):
    return (len(derivation_basis(sp)), len(selfadjoint_derivations(sp)), is_riesz(sp)[0],
            repr(is_facially_homogeneous(sp)), sp.is_self_dual(), repr(orientability(sp)))


def _cone(G):
    return ConeSpace.polyhedral(list(G.T))


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("name", sorted(_plain_presentations()))
def test_verdicts_do_not_depend_on_the_presentation(name, seed):
    # a conic combination and a repeated direction add no extreme ray
    G = _plain_presentations()[name]
    rng = np.random.default_rng(seed)
    extra = np.column_stack([G @ rng.exponential(size=G.shape[1]), 2.5 * G[:, seed % G.shape[1]]])
    noisy = np.column_stack([G, extra])[:, rng.permutation(G.shape[1] + 2)]
    sp = _cone(noisy)
    assert sp.generators.shape[1] == G.shape[1] + 2  # the spec keeps the presentation
    assert _verdicts(sp) == _verdicts(_cone(G))


def _analyze_lines(tmp_path, capsys, sp):
    path = tmp_path / "cone.txt"
    path.write_text("kind = polyhedral\ndim = %d\n" % sp.dim + "".join(
        "gen = %s\n" % ",".join(repr(float(v)) for v in g) for g in sp.generators.T))
    code = cli.main(["analyze", str(path)])
    return code, capsys.readouterr().out


@pytest.mark.parametrize("scale", [1e-13, 1e-11, 1e-9, 1e13])
@pytest.mark.parametrize("name", ["quadrant", "5-gon"])
def test_presentation_checks_do_not_depend_on_scale(tmp_path, capsys, name, scale):
    G = _plain_presentations()[name]
    base, sp = _cone(G), _cone(scale * G)
    assert np.allclose(sp._rays, base._rays, rtol=0, atol=1e-15)
    # the faces of single rays and of pairs of rays
    m = G.shape[1]
    for s in itertools.chain(itertools.combinations(range(m), 1), itertools.combinations(range(m), 2)):
        x = np.sum(base._rays[:, list(s)], axis=1)
        assert np.linalg.norm(face_of(sp, x).projector - face_of(base, x).projector) <= 1e-12
    assert _analyze_lines(tmp_path, capsys, sp) == _analyze_lines(tmp_path, capsys, base)


def test_only_zero_or_non_finite_generators_are_rejected():
    quadrant = _cone(np.array([[1e-200, 0.0], [0.0, 1e300]]))
    assert np.allclose(quadrant._rays, np.eye(2), rtol=0, atol=1e-15)
    with pytest.raises(ValueError, match="zero generator"):
        ConeSpace.polyhedral([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="not finite"):
            ConeSpace.polyhedral([[1.0, 0.0], [bad, 1.0]])


SIGN_CASES = dict(_plain_presentations(), square=_square_with_facet_generators(),
                  **{"skew %g" % t: np.array([[1.0, 0.0], [np.cos(t), np.sin(t)]]).T
                     for t in (0.3, 1.0, 2.0, 3.0)})


@pytest.mark.parametrize("name", sorted(SIGN_CASES))
def test_self_duality_sign_test_matches_nnls_reference(name):
    G = SIGN_CASES[name]
    sp = _cone(G)
    D = sp.dual_generators
    assert sp.is_self_dual() == (_in_cone(D, G) and _in_cone(G, D))


def test_thirty_generators_in_six_dimensions_build_quickly():
    G = np.abs(np.random.default_rng(0).standard_normal((6, 30)))
    start = time.perf_counter()
    sp = _cone(G)
    assert time.perf_counter() - start < 1.0
    assert np.all(sp.dual_generators.T @ G >= -TOL)


@pytest.mark.parametrize("G", [_ngon(600), np.abs(np.random.default_rng(0).standard_normal((8, 40)))],
                         ids=["600-gon", "40 in R^8"])
def test_large_facet_tables_build_quickly(G):
    # 600 and 3,240 facets
    start = time.perf_counter()
    sp = _cone(G)
    assert time.perf_counter() - start < 1.0
    assert np.all(sp.dual_generators.T @ G >= -TOL)


def linprog_pointed(R):
    """Reference: cone(R) is pointed iff no lambda >= 0 with sum 1 has
    R lambda = 0, by one HiGHS feasibility LP; also its line witness."""
    dim, m = R.shape
    res = linprog(np.zeros(m), A_eq=np.vstack([R, np.ones((1, m))]),
                  b_eq=np.concatenate([np.zeros(dim), [1.0]]), bounds=[(0, None)] * m,
                  method="highs")
    return not res.success, res.x


@st.composite
def margin_generators(draw):
    """Unit generators in R^2..R^6, rotated at random, pointed by a margin
    h from 1e-10 to 1e-5 or containing a line, with a_i in [0.5, 2]:
    "balanced", the pairs (h a_i, v_i) and (h a_i', -v_i), whose generator
    sum certifies a margin of about h; "skewed", the (h a_i, v_i), whose
    sum mostly does not; "line", the (h, v_i) and -(h, v_0)."""
    family = draw(st.sampled_from(["balanced", "skewed", "line"]))
    dim = draw(st.integers(2, 6))
    # half of the draws in 4e-10 to 1e-9, where an nnls test of pointedness
    # once disagreed with the LP
    h = 10.0 ** draw(st.one_of(st.floats(-10, -5), st.floats(-9.4, -9)))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    V = rng.standard_normal((dim - 1, rng.integers(1, 2 * dim + 1)))
    if family == "balanced":
        V = np.hstack([V, -V])
    if family != "line":
        G = np.vstack([h * rng.uniform(0.5, 2.0, V.shape[1]), V])
    else:
        G = np.vstack([np.full(V.shape[1], h), V])
        G = np.column_stack([G, -G[:, 0]])
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    return _unit_columns(q @ G)


@given(R=margin_generators())
@settings(max_examples=300)
def test_pointedness_agrees_with_the_linprog_reference(R):
    got = _is_pointed(R)
    want, witness = linprog_pointed(R)
    # HiGHS applies its tolerance to a scaled problem, so near the margin it
    # may return a line witness that misses the tolerance (|R lambda|_inf
    # 2e-6 on a balanced set in R^4 at h = 9.3e-7); only there may the
    # certificate, which proves no witness within the tolerance exists, differ
    assert got == want or (got and np.max(np.abs(R @ witness)) > LP_FEASIBILITY_TOL)


def test_rotated_orthants_and_ngons_build_without_an_lp(monkeypatch):
    calls = []
    real = cone_space.linprog
    monkeypatch.setattr(cone_space, "linprog", lambda *a, **k: calls.append(1) or real(*a, **k))
    for d in range(2, 9):
        for seed in range(3):
            _cone(_rotated_orthant(d, seed))
    for n in range(3, 14):
        _cone(_ngon(n))
    assert calls == []
    # a pointed cone whose generator sum is no certificate goes to the LP:
    # ten generators near 167 degrees outweigh (1, 0)
    _cone(np.array([[1.0, 0.0]] + [[np.cos(t), np.sin(t)] for t in np.linspace(2.9, 2.95, 10)]).T)
    assert calls == [1]


@pytest.mark.parametrize("G", [_ngon(7), _rotated_orthant(5, 2), _square_with_facet_generators()],
                         ids=["7-gon", "orthant5", "square"])
def test_repeated_masks_give_the_one_row_faces(G):
    sp = _cone(G)
    d, m = sp._rays.shape
    rows = np.random.default_rng(4).random((12, m)) < 0.4
    masks = np.vstack([rows, np.zeros((1, m), bool), rows[::-1], np.ones((1, m), bool), rows[:3]])
    P, W = sp._generator_faces(masks)
    assert not P[12].any() and np.array_equal(P[25], np.eye(d))
    # the witnesses are one product of the whole stack, so only round-off close
    for mask, p, w in zip(masks, P, W):
        one_p, one_w = sp._generator_faces(mask[None])
        assert np.array_equal(one_p[0], p)
        assert np.allclose(one_w[0], w, rtol=0.0, atol=1e-12)


def test_bench_kernel_targets_resolve():
    # the traced bench patches these names; a rename in src/ would break it
    path = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for owner, name in tracing._kernel_targets():
        assert callable(vars(owner).get(name)), "%s.%s" % (owner.__name__, name)


def kron_derivation_mats(space, selfadjoint=False):
    """Reference, the polyhedral Der before the ray multipliers: the
    operators M keeping every extreme ray g an eigenvector,
    (I - g g^T) M g = 0, optionally restricted to symmetric M, as the null
    space of the m dim x dim^2 Kronecker system by its full SVD."""
    d = space.dim
    A = np.vstack([np.kron(np.eye(d) - np.outer(g, g), g) for g in space._rays.T])
    S = np.eye(d * d)
    if selfadjoint:
        # parametrize M by its upper triangle through the symmetrizer
        S = np.array([U.reshape(-1) for U in _symmetric_units(d)]).T
    _, s, vt = np.linalg.svd(A @ S)
    return [(S @ c).reshape(d, d) for c in vt[np.sum(s > 1e-8 * max(s[0], 1.0)):]]


def ray_multiplier_derivation_mats(space, selfadjoint=False):
    """Reference, the polyhedral Der before the rays' matroid: R diag(lam) R^+
    over the unit extreme rays R for the lam with R diag(lam) (I - R^+ R) = 0,
    as the null space of that (dim m) x m system by one thin SVD;
    selfadjoint adds rows for the antisymmetric parts of the r_i s_i^T, s_i
    the rows of R^+, scaled as R^+ may be large, and sums the symmetric parts."""
    R, Rp = space._rays, np.linalg.pinv(space._rays)
    K = np.einsum("ai,ib->iab", R, Rp)  # the r_i s_i^T
    A = np.einsum("ai,ij->aji", R, np.eye(len(K)) - Rp @ R).reshape(-1, len(K))
    if selfadjoint:
        B = (K - K.mT).reshape(len(K), -1).T
        A = np.vstack([A, B / max(1.0, np.max(np.abs(B)))])
        K = (K + K.mT) / 2
    return _orthonormal_span(list(np.tensordot(_rank_split(A)[1], K, axes=1)))


def _assert_same_span(got, want):
    # equal counts, projectors onto the spans within 1e-9 (Frobenius)
    assert len(got) == len(want)
    P, Q = (scipy.linalg.orth(np.array([m.reshape(-1) for m in mats]).T) for mats in (got, want))
    assert np.linalg.norm(P @ P.T - Q @ Q.T) <= 1e-9


def _bases(sp):
    # the self-adjoint basis is symmetric to 1e-12 and Frobenius-orthonormal
    sym = selfadjoint_derivations(sp)
    assert all(np.linalg.norm(b.mat - b.mat.T) <= 1e-12 * max(1.0, np.linalg.norm(b.mat))
               for b in sym)
    V = np.array([b.mat.reshape(-1) for b in sym])
    assert np.allclose(V @ V.T, np.eye(len(V)), rtol=0, atol=1e-12)
    return [b.mat for b in derivation_basis(sp)], [b.mat for b in sym]


def _assert_both_references(sp):
    full, sym = _bases(sp)
    for reference in (kron_derivation_mats, ray_multiplier_derivation_mats):
        _assert_same_span(full, reference(sp))
        _assert_same_span(sym, reference(sp, selfadjoint=True))
    return full, sym


@given(sp=polyhedral_cones())
@settings(max_examples=60)
def test_ray_multipliers_span_the_kronecker_derivations(sp):
    full, sym = _assert_both_references(sp)
    assert len(full) == tangency_dimension_oracle(sp)
    assert len(sym) == tangency_dimension_oracle(sp, symmetric_only=True)


@pytest.mark.parametrize("eps", [1e-6, 1e-10])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_near_orthants_off_the_rank_margin_agree_with_the_kronecker_system(n, eps):
    # every generator of a rotated orthant moved by eps-sized noise; from
    # about 3e-10 to 3e-8 the rays' inner products and circuit coefficients
    # sit near TOL, where the references' rank cuts count derivations
    # differently (of 200 bases, up to 96 at 3e-9); at 1e-6 and 1e-10 all agree
    for seed in range(4):
        _assert_both_references(_tilted_orthant(n, eps, seed))


@pytest.mark.parametrize("eps", [3e-9, 1e-8])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_selfadjoint_basis_of_near_orthants_is_verified(n, eps):
    # the rays' inner products, about eps, lie above TOL, so each
    # self-adjoint basis element is symmetric and keeps every ray an
    # eigenvector: is_derivation, deciding within DER_TOL, must not refute it
    for seed in range(20):
        sp = _tilted_orthant(n, eps, seed)
        for b in selfadjoint_derivations(sp):
            assert is_derivation(sp, b.mat).status == "Verified"


# (generators, (full, self-adjoint) counts or None); block_diag gives the
# direct sum of cones in the orthogonal sum of their spaces
SPAN_CASES = ([pytest.param(_ngon(n, h), None, id="%d-%g" % (n, h))
               for n in (3, 4, 7, 12) for h in (1e-2, 1e-4, 1e-6)]
              + [pytest.param(scipy.linalg.block_diag(_ngon(4), _ngon(5)), (2, 2),
                              id="4-gon+5-gon"),
                 pytest.param(scipy.linalg.block_diag(_ngon(5), [[1.0]]), (2, 2),
                              id="5-gon+ray"),
                 pytest.param(scipy.linalg.block_diag(_rotated_orthant(3, 1) @ _ngon(3),
                                                      _ngon(4), [[1.0]]),
                              (5, 5), id="rotated 3-gon+4-gon+ray")])


@pytest.mark.parametrize("G, counts", SPAN_CASES)
def test_wide_ngons_agree_with_the_kronecker_system(G, counts):
    # the wide n-gons: R^+ grows like 1/h, where the ray-multiplier
    # reference must scale its antisymmetric rows (unscaled, the 4-gon at
    # 1e-6 would count two self-adjoint derivations in a one-dimensional
    # Der); the direct sums: one multiplier per summand's components
    full, sym = _assert_both_references(_cone(G))
    assert counts is None or (len(full), len(sym)) == counts


def test_both_der_frames_pivot_and_factor_once(monkeypatch):
    # analyze reads the full and the self-adjoint frame: one ray basis
    sp = _cone(_ngon(7))
    calls = []
    pivots, inv = cone_space._pivots, np.linalg.inv
    monkeypatch.setattr(cone_space, "_pivots", lambda *a: calls.append("pivots") or pivots(*a))
    monkeypatch.setattr(np.linalg, "inv", lambda *a: calls.append("inv") or inv(*a))
    assert (len(derivation_basis(sp)), len(selfadjoint_derivations(sp))) == (1, 1)
    assert calls == ["pivots", "inv"]


def test_polyhedral_derivations_need_no_pinv_and_no_ray_sized_svd(monkeypatch):
    # the 400-gon's Der comes from a 3 x 3 Laplacian on a basis of rays:
    # no pseudo-inverse and no system with a row or column per ray
    sp = _cone(_ngon(400))
    pinv_calls, svd_shapes = [], []

    def counting(calls, fn):
        def wrapper(a, *args, **kwargs):
            calls.append(np.shape(a))
            return fn(a, *args, **kwargs)
        return wrapper
    for owner in (np.linalg, scipy.linalg):
        monkeypatch.setattr(owner, "pinv", counting(pinv_calls, owner.pinv))
        monkeypatch.setattr(owner, "svd", counting(svd_shapes, owner.svd))
    full, sym = sp._derivation_mats(), sp._derivation_mats(selfadjoint=True)
    assert (len(full), len(sym)) == (1, 1)
    assert pinv_calls == []
    assert svd_shapes and all(400 not in shape for shape in svd_shapes)
