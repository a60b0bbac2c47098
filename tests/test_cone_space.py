import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from eudoxus import cone_space
from eudoxus.cli import parse_cone_spec
from eudoxus.cone_space import (
    ConeSpace,
    Membership,
    _face_band,
    _rank_split,
    sym_to_vec,
    vec_to_herm,
    vec_to_sym,
)
from eudoxus.face_lattice import minimal_decomposition
from references import herm_to_vec, ngon_cone, norm_by_bisection, polyhedral_unit_norm


def all_kinds():
    return [
        ConeSpace.orthant(3),
        ConeSpace.lorentz(3),
        ConeSpace.psd_real(2),
        ConeSpace.hermitian(2),
    ]


finite = st.floats(-10, 10, allow_nan=False, allow_infinity=False)


@given(arrays(float, (3, 3), elements=finite))
@settings(max_examples=100, deadline=None)
def test_sym_vec_roundtrip_isometry(A):
    A = (A + A.T) / 2
    v = sym_to_vec(A)
    assert np.allclose(vec_to_sym(v), A, atol=1e-12)
    assert np.isclose(np.dot(v, v), np.sum(A * A), atol=1e-9)


@given(arrays(float, (2, 2), elements=finite),
       arrays(float, (2, 2), elements=finite))
@settings(max_examples=100, deadline=None)
def test_herm_vec_roundtrip_isometry(Re, Im):
    A = Re + 1j * Im
    A = (A + A.conj().T) / 2
    v = herm_to_vec(A)
    assert v.shape == (4,)
    assert np.allclose(vec_to_herm(v), A, atol=1e-12)
    assert np.isclose(np.dot(v, v), np.sum(np.abs(A) ** 2), atol=1e-9)


def test_membership_orthant():
    sp = ConeSpace.orthant(3)
    assert sp.membership(np.array([1.0, 2.0, 3.0])) is Membership.INTERIOR
    assert sp.membership(np.array([1.0, 0.0, 3.0])) is Membership.BOUNDARY
    assert sp.membership(np.array([1.0, -1.0, 3.0])) is Membership.OUTSIDE


def test_membership_lorentz():
    sp = ConeSpace.lorentz(3)
    assert sp.membership(np.array([2.0, 1.0, 0.0])) is Membership.INTERIOR
    assert sp.membership(np.array([1.0, 1.0, 0.0])) is Membership.BOUNDARY
    assert sp.membership(np.array([1.0, 2.0, 0.0])) is Membership.OUTSIDE


def test_membership_psd():
    sp = ConeSpace.psd_real(2)
    assert sp.membership(sym_to_vec(np.eye(2))) is Membership.INTERIOR
    assert sp.membership(sym_to_vec(np.diag([1.0, 0.0]))) is Membership.BOUNDARY
    assert sp.membership(sym_to_vec(np.diag([1.0, -1.0]))) is Membership.OUTSIDE


def test_tiny_roundoff_vectors_are_boundary():
    sp = ConeSpace.psd_real(2)
    assert sp.membership(np.array([-1e-16, 1e-16, -2e-16])) is Membership.BOUNDARY


def test_self_duality_builtin_kinds():
    for sp in all_kinds():
        assert sp.is_self_dual()


def test_polyhedral_self_duality():
    th = 0.3
    rot = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    assert ConeSpace.polyhedral([rot[:, 0], rot[:, 1]]).is_self_dual()
    skew = ConeSpace.polyhedral([np.array([1.0, 0.0]), np.array([1.0, 1.0])])
    assert not skew.is_self_dual()


def test_each_jordan_kind_and_size_is_one_object():
    sp = ConeSpace.orthant(3)
    assert ConeSpace.orthant(3) is sp
    assert ConeSpace.orthant(np.int64(3)) is sp
    assert parse_cone_spec("kind = orthant\ndim = 3\n") is sp
    assert ConeSpace.lorentz(3) is not sp
    assert ConeSpace.psd_real(2) is not ConeSpace.hermitian(2)
    gens = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
    assert ConeSpace.polyhedral(gens) is not ConeSpace.polyhedral(gens)


@pytest.mark.parametrize("make, size", [(ConeSpace.orthant, 3), (ConeSpace.psd_real, 2)],
                         ids=["orthant", "psd_real"])
def test_a_float_size_raises_before_and_after_the_int_size_is_built(monkeypatch, make, size):
    # an empty cache, as in a fresh process
    monkeypatch.setattr(cone_space, "_shared", functools.cache(cone_space._shared.__wrapped__))
    for _ in range(2):
        with pytest.raises(TypeError):
            make(float(size))
        assert make(size) is make(size)


@pytest.mark.parametrize("make", [ConeSpace.orthant, ConeSpace.lorentz, ConeSpace.psd_real,
                                  ConeSpace.hermitian], ids=lambda make: make.__name__)
def test_sizes_below_the_least_raise_on_every_call(make):
    for size in (0, -1, 0, -1):
        with pytest.raises(ValueError):
            make(size)


def test_polyhedral_rejects_bad_generators():
    with pytest.raises(ValueError):
        ConeSpace.polyhedral([np.zeros(2), np.array([1.0, 0.0])])
    with pytest.raises(ValueError):
        ConeSpace.polyhedral([np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])])
    with pytest.raises(ValueError):
        ConeSpace.polyhedral([np.array([1.0, 0.0]), np.array([-1.0, 0.0]),
                              np.array([0.0, 1.0])])


def test_soc_projection_closed_form():
    sp = ConeSpace.lorentz(3)
    p = sp.project(np.array([0.0, 1.0, 0.0]))
    assert np.allclose(p, [0.5, 0.5, 0.0], atol=1e-12)


def test_jordan_decompose_soc_boundary_case():
    sp = ConeSpace.lorentz(3)
    xp, xm = sp.jordan_decompose(np.array([0.0, 1.0, 0.0]))
    assert np.allclose(xp, [0.5, 0.5, 0.0], atol=1e-12)
    assert np.allclose(xm, [0.5, -0.5, 0.0], atol=1e-12)


def test_jordan_decompose_properties():
    rng = np.random.default_rng(3)
    for sp in all_kinds():
        for _ in range(50):
            x = sp.sample_vector(rng)
            xp, xm = sp.jordan_decompose(x)
            assert np.allclose(xp - xm, x, atol=1e-9)
            assert sp.membership(xp) is not Membership.OUTSIDE
            assert sp.membership(xm) is not Membership.OUTSIDE
            assert abs(np.dot(xp, xm)) < 1e-9 * max(np.dot(x, x), 1e-30)


def test_projection_properties():
    rng = np.random.default_rng(4)
    for sp in all_kinds():
        for _ in range(30):
            x = sp.sample_vector(rng)
            p = sp.project(x)
            assert sp.membership(p) is not Membership.OUTSIDE
            assert np.allclose(sp.project(p), p, atol=1e-8)
            # residual lies in the polar cone, orthogonal to the projection
            assert abs(np.dot(p, x - p)) < 1e-8 * max(np.dot(x, x), 1.0)


def test_order_unit_norm_psd_example():
    sp = ConeSpace.psd_real(2)
    x = sym_to_vec(np.diag([2.0, -5.0]))
    assert np.isclose(sp.order_unit_norm(x), 5.0, atol=1e-9)


def test_order_unit_norm_orthant():
    sp = ConeSpace.orthant(3)
    assert np.isclose(sp.order_unit_norm(np.array([1.0, -4.0, 2.0])), 4.0)
    u = np.array([1.0, 2.0, 1.0])
    assert np.isclose(sp.order_unit_norm(np.array([0.0, -4.0, 0.0]), u), 2.0)


def test_order_unit_norm_axioms():
    rng = np.random.default_rng(5)
    for sp in all_kinds():
        u = sp.canonical_unit()
        for _ in range(20):
            x = sp.sample_vector(rng)
            y = sp.sample_vector(rng)
            nx = sp.order_unit_norm(x, u)
            ny = sp.order_unit_norm(y, u)
            assert nx >= -1e-12
            assert sp.order_unit_norm(x + y, u) <= nx + ny + 1e-7
            assert np.isclose(sp.order_unit_norm(2.5 * x, u), 2.5 * nx, atol=1e-7)
            # the defining bracket -|x| u <= x <= |x| u holds
            assert sp.leq(x, (nx + 1e-9) * u)
            assert sp.leq(-(nx + 1e-9) * u, x)


def test_lorentz_norm_matches_bisection():
    sp = ConeSpace.lorentz(4)
    rng = np.random.default_rng(6)
    u = sp.canonical_unit()
    for _ in range(20):
        x = sp.sample_vector(rng)
        closed = sp.order_unit_norm(x, u)
        brute = norm_by_bisection(sp, x, u)
        assert np.isclose(closed, brute, atol=1e-6)


def test_canonical_unit_is_interior():
    for sp in all_kinds():
        assert sp.membership(sp.canonical_unit()) is Membership.INTERIOR
        assert sp.is_order_unit(sp.canonical_unit())


def test_boundary_point_is_not_order_unit():
    sp = ConeSpace.orthant(3)
    assert not sp.is_order_unit(np.array([1.0, 0.0, 1.0]))


def test_order_relation():
    sp = ConeSpace.orthant(2)
    assert sp.leq(np.array([1.0, 1.0]), np.array([2.0, 1.0]))
    assert sp.lt(np.array([1.0, 1.0]), np.array([2.0, 1.0]))
    assert not sp.lt(np.array([1.0, 1.0]), np.array([1.0, 1.0]))
    assert not sp.lt(np.array([1.0, 1.0]), np.array([2.0, 0.0]))


def test_samples_land_where_promised():
    rng = np.random.default_rng(7)
    for sp in all_kinds() + [ConeSpace.polyhedral([np.array([1.0, 0.0]),
                                                   np.array([1.0, 1.0])])]:
        for _ in range(20):
            assert sp.membership(sp.sample_cone_point(rng)) is not Membership.OUTSIDE
            assert sp.membership(sp.sample_interior_point(rng)) is Membership.INTERIOR


def test_order_unit_norm_matches_bisection_at_noncanonical_unit():
    rng = np.random.default_rng(12)
    # the polygons check the polyhedral closed form against the bisection
    for sp in (ConeSpace.orthant(4), ConeSpace.lorentz(4), ConeSpace.psd_real(3),
               ConeSpace.hermitian(2), ngon_cone(4), ngon_cone(5), ngon_cone(13)):
        for _ in range(5):
            u = sp.sample_interior_point(rng)
            assert not np.allclose(u, sp.canonical_unit())
            x = sp.sample_vector(rng)
            assert np.isclose(sp.order_unit_norm(x, u), norm_by_bisection(sp, x, u),
                              atol=1e-6)


@pytest.mark.parametrize("n", range(3, 14))
def test_polyhedral_order_unit_norm_is_exactly_homogeneous(n):
    sp = ngon_cone(n)
    x = np.random.default_rng(n).standard_normal(3)
    norm = sp.order_unit_norm(x)
    for j in range(-100, 101):
        assert sp.order_unit_norm(2.0 ** j * x) == 2.0 ** j * norm


@pytest.mark.parametrize("n", range(3, 14))
def test_polyhedral_order_unit_norm_matches_the_closed_form_at_every_scale(n):
    # the bisection's absolute band floor answered 8.27e-25 at 1e-30 u on the
    # 5-gon, and its 1e18 cap and the norm check of 1e300 u raised.  The norm
    # is the closed form of x / 2^k times 2^k, so it is the reference's to a
    # few ulps at every scale
    sp = ngon_cone(n)
    u = sp.canonical_unit()
    rng = np.random.default_rng(n)
    for scale in (1e-30, 1e-10, 1.0, 1e19, 1e100, 1e300):
        for x in [u] + [rng.standard_normal(3) for _ in range(5)]:
            want = polyhedral_unit_norm(sp, scale * x, u)
            assert abs(sp.order_unit_norm(scale * x) - want) <= 4 * np.spacing(want)
    # entries near 1e308 with a norm of at most 1e308, where the reference's
    # pairings may overflow: it reads x / 1e308 instead, and the division and
    # the product round twice
    for x in [u] + [rng.uniform(-1, 1, 3) for _ in range(5)]:
        x = x / np.max(np.abs(x))
        x = 1e308 * x / max(1.0, polyhedral_unit_norm(sp, x, u))
        want = polyhedral_unit_norm(sp, x / 1e308, u) * 1e308
        assert abs(sp.order_unit_norm(x) - want) <= 4 * np.spacing(want)


def test_polyhedral_self_duality_is_decided_once(monkeypatch):
    from eudoxus import cone_space

    r = np.cos(np.pi / 5) ** -0.5
    sp = ConeSpace.polyhedral([np.array([1.0, r * np.cos(2 * np.pi * i / 5),
                                         r * np.sin(2 * np.pi * i / 5)]) for i in range(5)])
    calls = []
    real_nnls = cone_space.nnls
    monkeypatch.setattr(cone_space, "nnls", lambda *a: calls.append(1) or real_nnls(*a))
    assert sp.is_self_dual()
    sp.project(np.array([0.2, 1.0, -0.5]))
    assert len(calls) == 1


def test_jordan_multiplication_operator():
    sp = ConeSpace.psd_real(3)
    rng = np.random.default_rng(13)
    A, X = (sym_to_vec((M + M.T) / 2) for M in rng.standard_normal((2, 3, 3)))
    want = sym_to_vec((vec_to_sym(A) @ vec_to_sym(X) + vec_to_sym(X) @ vec_to_sym(A)) / 2)
    assert np.allclose(sp.L(A) @ X, want, atol=1e-12)
    assert np.allclose(sp.L(sp.canonical_unit()), np.eye(sp.dim), atol=1e-12)
    with pytest.raises(ValueError):
        ConeSpace.polyhedral([np.array([1.0, 0.0]), np.array([0.0, 1.0])]).L(np.ones(2))


@pytest.mark.parametrize("sp", all_kinds() + [ConeSpace.polyhedral(
    [np.array([1.0, 0.0]), np.array([1.0, 1.0])])], ids=repr)
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_membership_rejects_non_finite_vectors(sp, bad):
    # a non-finite vector is neither inside the cone nor on its boundary
    x = sp.canonical_unit()
    x[-1] = bad
    for query in (sp.membership, sp.contains):
        with pytest.raises(ValueError, match="not finite"):
            query(x)
    with pytest.raises(ValueError, match="not finite"):  # the norm overflows
        sp.membership(1e200 * sp.canonical_unit())


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("sp", all_kinds() + [ConeSpace.polyhedral(
    [np.array([1.0, 0.0]), np.array([1.0, 1.0])])], ids=repr)
def test_a_norm_past_the_float_range_is_rejected_without_a_warning(sp):
    # the vector is rejected, not scaled: a scaled norm would pass it to
    # a margin that takes raw norms, and on lorentz the interior point
    # (3e200, 1e200, 1e200) would come back OUTSIDE
    points = [1e200 * sp.canonical_unit()]
    if sp.kind == "lorentz":
        points.append(np.array([3e200, 1e200, 1e200]))
    for x in points:
        for query in (sp.membership, sp.contains,
                      lambda x: minimal_decomposition(sp, x), lambda x: _face_band(x)):
            with pytest.raises(ValueError, match="not finite"):
                query(x)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("sp", all_kinds() + [ngon_cone(3)], ids=repr)
def test_an_order_unit_norm_past_the_float_range_raises_without_a_warning(sp):
    # at u = e / 1000 the norm of x = (1.7e308, 1, ..., 1) is about 1.7e311:
    # the polygon's power-of-two rescaling raised OverflowError, and orthant
    # and lorentz returned inf with an overflow warning
    x = np.ones(sp.dim)
    x[0] = 1.7e308
    with pytest.raises(ValueError, match="order-unit norm is not finite"):
        sp.order_unit_norm(x, 1e-3 * sp.canonical_unit())
    assert np.isfinite(sp.order_unit_norm(x))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_lorentz_reads_a_point_whose_squared_norm_overflows_as_psd_real_does():
    # |z|^2 overflows above about 1.3e154 with every entry finite: project
    # and jordan_decompose gave [inf nan nan] and the norm inf.  The same
    # points in Sym(2), whose eigh scales, are the reference
    lor, psd = ConeSpace.lorentz(3), ConeSpace.psd_real(2)
    to_sym = lambda x: sym_to_vec(np.array([[x[0] + x[1], x[2]], [x[2], x[0] - x[1]]]) / np.sqrt(2.0))
    for x in (np.array([1e200, 5e199, 0.0]), np.array([0.0, 3e307, 4e307]),
              np.array([-2e250, 1e250, -1e250])):
        y = to_sym(x)
        assert np.allclose(to_sym(lor.project(x)), psd.project(y), rtol=1e-12, atol=0.0)
        for p, q in zip(lor.jordan_decompose(x), psd.jordan_decompose(y)):
            assert np.allclose(to_sym(p), q, rtol=1e-12, atol=0.0)
        assert lor.order_unit_norm(x) == pytest.approx(psd.order_unit_norm(y) * np.sqrt(2.0),
                                                       rel=1e-12)
    assert lor.order_unit_norm(np.array([1e200, 5e199, 0.0])) == pytest.approx(1.5e200, rel=1e-15)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_lt_of_a_point_with_itself_past_the_float_range_is_false_without_a_warning():
    # y - y = 0 is in the cone, and the band of y's overflowing norm is inf
    sp = ConeSpace.orthant(2)
    y = np.array([1e200, 1e200])
    assert not sp.lt(y, y)


@pytest.mark.parametrize("sp", all_kinds() + [ConeSpace.polyhedral(
    [np.array([1.0, 0.0]), np.array([1.0, 1.0])])], ids=repr)
def test_lt_matches_the_norm_reference(sp):
    # steps from inside the cone down to the band TOL max(1, |y|), and
    # steps outside it; points up to 1e6
    rng = np.random.default_rng(11)
    e = sp.canonical_unit()
    for scale in (1e-3, 1.0, 1e6):
        for step in (0.0, 1e-12, 1e-9, 1e-6, 1.0):
            x = scale * rng.standard_normal(sp.dim)
            for y in (x + step * scale * e, x - step * scale * e,
                      x + step * scale * rng.standard_normal(sp.dim)):
                d = y - x
                want = sp.contains(d) and np.linalg.norm(d) > cone_space.TOL * max(1.0, np.linalg.norm(y))
                assert sp.lt(x, y) == want, (scale, step)


@pytest.mark.parametrize("sp", all_kinds() + [ConeSpace.polyhedral(
    [np.array([1.0, 0.0]), np.array([1.0, 1.0])])], ids=repr)
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_queries_reject_non_finite_vectors(sp, bad):
    # an error, not a nan answer; the polyhedral cone here is not
    # self-dual, and its project checks the entries before saying so
    x = sp.canonical_unit()
    x[-1] = bad
    for query in (sp.project, sp.jordan_decompose, sp.order_unit_norm):
        with pytest.raises(ValueError, match="not finite"):
            query(x)
    with pytest.raises(ValueError, match="not finite"):
        sp.order_unit_norm(sp.canonical_unit(), u=x)


@pytest.mark.parametrize("A,rank", [(np.array([[1.0, 2.0, 2.0]]), 1), (np.zeros((0, 3)), 0),
                                    (np.zeros((2, 3)), 0), (np.ones((4, 3)), 1)],
                         ids=["1x3 row", "0x3", "2x3 zero", "4x3 ones"])
def test_rank_split_gives_the_whole_null_space(A, rank):
    # a thin SVD of a wide matrix drops null directions: the 1x3 row would
    # keep none of its two, the 0x3 matrix none of its three
    row, null = _rank_split(A)
    assert (len(row), len(null)) == (rank, 3 - rank)
    Q = np.vstack([row, null])
    assert np.allclose(Q @ Q.T, np.eye(3), rtol=0, atol=1e-12)
    assert np.allclose(A @ null.T, 0.0, rtol=0, atol=1e-12)


def _repeated_rows(sp, rng):
    """Points with repeated eigenvalues over random frames (lorentz: z = 0),
    and the zero point."""
    _, frames = sp._spectral(rng.standard_normal((3, sp.dim)))
    r = frames.shape[2]
    spectra = [np.resize([1.0, 1.0, -2.0], r), np.full(r, -3.0), np.zeros(r)]
    return np.array([C @ w for C, w in zip(frames, spectra)])


@pytest.mark.parametrize("sp", [ConeSpace.orthant(5), ConeSpace.lorentz(2), ConeSpace.lorentz(6),
                                ConeSpace.psd_real(4), ConeSpace.hermitian(3)], ids=repr)
def test_stacked_spectral_matches_the_rows(sp):
    # frames of repeated eigenvalues are not unique: compare what does not
    # depend on them, the reconstruction, the projection and the sum of the
    # frame elements at each eigenvalue
    rng = np.random.default_rng(0)
    X = np.vstack([rng.standard_normal((6, sp.dim)), _repeated_rows(sp, rng)])
    w, C = sp._spectral(X)
    r = w.shape[1]
    assert C.shape == (len(X), sp.dim, r)
    assert sp._spectral(X[:0])[1].shape == (0, sp.dim, r)
    for x, wi, Ci in zip(X, w, C):
        (w0,), (C0,) = sp._spectral(x[None])
        assert np.allclose(np.sort(wi), np.sort(sp._eigvals(x)), rtol=0, atol=1e-12)
        assert np.allclose(Ci @ wi, x, rtol=0, atol=1e-12)
        assert np.allclose(Ci @ np.maximum(wi, 0.0), C0 @ np.maximum(w0, 0.0), rtol=0, atol=1e-12)
        for lam in wi:
            assert np.allclose(Ci @ (np.abs(wi - lam) <= 1e-8), C0 @ (np.abs(w0 - lam) <= 1e-8),
                               rtol=0, atol=1e-12)
        # a Jordan frame: orthogonal idempotents summing to the unit
        products = np.array([[sp.L(a) @ b for b in Ci.T] for a in Ci.T])
        assert np.allclose(products, np.eye(r)[:, :, None] * Ci.T[:, None, :], rtol=0, atol=1e-12)
        assert np.allclose(Ci.sum(axis=1), sp.canonical_unit(), rtol=0, atol=1e-12)
    # the support idempotents of a stack of cone points, against each row's
    P = np.array([sp._project(x) for x in X])
    for p, c in zip(P, sp._supports(P)):
        assert np.allclose(c, sp._supports(p[None])[0], rtol=0, atol=1e-12)


@functools.lru_cache(maxsize=None)
def _self_dual_cone(kind, n, seed):
    if kind == "rotated":
        q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, n)))
        return ConeSpace.polyhedral(list(q.T))
    if kind == "ngon":
        r = np.cos(np.pi / n) ** -0.5
        return ConeSpace.polyhedral([[1.0, r * np.cos(2 * np.pi * i / n), r * np.sin(2 * np.pi * i / n)]
                                     for i in range(n)])
    return getattr(ConeSpace, kind)(n)


# all five kinds, up to the benchmark's largest query sizes
self_dual_cones = st.one_of(
    st.tuples(st.just("orthant"), st.integers(1, 64), st.just(0)),
    st.tuples(st.just("lorentz"), st.integers(2, 64), st.just(0)),
    st.tuples(st.sampled_from(["psd_real", "hermitian"]), st.integers(1, 8), st.just(0)),
    st.tuples(st.just("rotated"), st.integers(2, 8), st.integers(0, 20)),
    # odd n: for even n the cone is isometric to its dual, not equal to it
    st.tuples(st.just("ngon"), st.integers(1, 7).map(lambda i: 2 * i + 1), st.just(0)),
).map(lambda args: _self_dual_cone(*args))


@given(sp=self_dual_cones, seed=st.integers(0, 2**16),
       scale=st.sampled_from([1e-6, 1e-3, 1.0, 1e3, 1e6, 1e9]),
       shape=st.sampled_from(["gaussian", "inside", "repeated"]))
@settings(max_examples=200)
def test_jordan_moreau_decomposition_at_generic_sizes(sp, seed, scale, shape):
    """x = x+ - x-: both parts in the cone, orthogonal within the face band,
    project idempotent, x+ the sum of its minimal decomposition, and
    |x|_u <= max(|x+|_u, |x-|_u) at an interior u other than the unit."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(sp.dim)
    if shape == "inside":
        x = sp.sample_interior_point(rng)
    elif shape == "repeated" and sp.generators is not None:
        x = sp.generators @ rng.integers(-1, 2, sp.generators.shape[1])
    elif shape == "repeated":
        x = _repeated_rows(sp, rng)[rng.integers(3)]
    x = scale * x
    xp, xm = sp.jordan_decompose(x)
    band = _face_band(x)
    assert np.allclose(xp - xm, x, rtol=0, atol=band)
    assert sp.contains(xp) and sp.contains(xm)
    assert abs(np.dot(xp, xm)) <= band * max(1.0, np.linalg.norm(x))
    assert np.linalg.norm(sp.project(xp) - xp) <= band
    # each dropped eigenvalue is at most the band, on orthogonal frame
    # elements of norm at most 1
    parts = minimal_decomposition(sp, xp)
    assert np.linalg.norm(sum(c * a for c, a in parts) - xp) <= np.sqrt(sp.dim) * band
    # -x- <= x <= x+, so the order-unit norm of x is at most the larger part's
    u = sp.sample_interior_point(rng)
    norms = [sp.order_unit_norm(v, u) for v in (x, xp, xm)]
    assert norms[0] <= max(norms[1:]) * (1 + 1e-6) + band
