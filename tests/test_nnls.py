"""The polyhedral projection's numpy active set, cone_space.nnls, against
scipy.optimize.nnls, the solver it replaced, imported here as a reference:
coefficients, residual norms and projections on the n-gon cones (3 to 13,
101 and 601) and on rotated orthants in R^2 to R^32; the closed-form
projection of cones in R^3 against both on random cones; Moreau's
conditions on the projections at generic sizes; and the iteration cap."""

import functools
from fractions import Fraction

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from eudoxus.cone_space import ConeSpace, Membership, _face_band, nnls
from references import ngon_cone, rotated_orthant
from test_polyhedral import r3_generators

BAND = 1e-12


@functools.cache
def _cone(kind, n):
    return ngon_cone(n) if kind == "ngon" else rotated_orthant(n, n)


def _points(sp, seed):
    """Gaussians from 1e-3 to 1e3, signed combinations of a few extreme
    rays (points near faces), and points of the cone and of its negative."""
    rng = np.random.default_rng(seed)
    R = sp._rays
    X = [10.0 ** rng.integers(-3, 4) * rng.standard_normal(sp.dim) for _ in range(20)]
    for _ in range(20):
        c = np.zeros(R.shape[1])
        picked = rng.choice(R.shape[1], size=min(3, R.shape[1]), replace=False)
        c[picked] = rng.standard_normal(len(picked))
        X.append(R @ c)
    return X + [sp.sample_cone_point(rng), -sp.sample_cone_point(rng)]


def _exact_coefficients(A, b):
    """The least-squares coefficients of b on the independent columns of A,
    by the normal equations in exact rational arithmetic."""
    A = [[Fraction(v) for v in row] for row in A.T.tolist()]
    b = [Fraction(v) for v in b.tolist()]
    k = len(A)
    M = [[sum(p * q for p, q in zip(A[i], A[j])) for j in range(k)]
         + [sum(p * q for p, q in zip(A[i], b))] for i in range(k)]
    for i in range(k):
        pivot = next(r for r in range(i, k) if M[r][i] != 0)
        M[i], M[pivot] = M[pivot], M[i]
        for r in range(k):
            if r != i:
                f = M[r][i] / M[i][i]
                M[r] = [p - f * q for p, q in zip(M[r], M[i])]
    return np.array([float(M[i][k] / M[i][i]) for i in range(k)])


def _dual_gap(A, b, c):
    """How far c >= 0 is from the minimiser of |A c - b| by the KKT
    conditions: the largest positive dual w = A^T (b - A c), or the largest
    |w| on a positive coefficient."""
    w = A.T @ (b - A @ c)
    return max(np.max(w, initial=0.0), np.max(np.abs(w[c > 0]), initial=0.0))


CONES = ([("ngon", n) for n in [*range(3, 14), 101, 601]]
         + [("rotated", n) for n in range(2, 33)])


@pytest.mark.parametrize("kind,n", CONES)
def test_nnls_and_project_match_scipy(kind, n):
    sp = _cone(kind, n)
    R = sp._rays
    for x in _points(sp, n):
        bound = BAND * max(1.0, np.linalg.norm(x))
        c, rnorm = nnls(R, x)
        assert np.all(c >= 0.0) and _dual_gap(R, x, c) <= bound
        assert abs(rnorm - np.linalg.norm(R @ c - x)) <= bound
        want, want_rnorm = scipy.optimize.nnls(R, x)
        if _dual_gap(R, x, want) > bound:
            # scipy 1.17's nnls misses the minimiser, and misreports its
            # residual, on some rotated-orthant points whose pairings with
            # the rays are round-off zeros (x = R c for c with zeros); the
            # projection scipy gave there was not orthogonal to its residual
            assert np.linalg.norm(R @ c - x) <= np.linalg.norm(R @ want - x)
            continue
        assert np.linalg.norm(R @ c - R @ want) <= bound
        assert abs(rnorm - want_rnorm) <= bound
        if sp.membership(x) is Membership.OUTSIDE:
            # the rays of the face x projects into are independent, so the
            # coefficients are unique.  On the 601-gon, whose neighbouring
            # rays are 0.007 rad apart, scipy's differ from the exact ones by
            # up to 1e-11 |x|; there the exact solve on the support is the
            # reference
            if n == 601:
                support = c > 0
                want = np.zeros_like(c)
                want[support] = _exact_coefficients(R[:, support], x)
            assert np.max(np.abs(c - want)) <= bound
        if sp.is_self_dual():
            assert np.linalg.norm(sp.project(x) - R @ want) <= bound


@given(G=r3_generators(), seed=st.integers(0, 2**16))
@settings(max_examples=200, deadline=None)
def test_r3_projection_matches_nnls_and_scipy(G, seed):
    # the nearest face shadow is the projection onto any pointed cone in R^3;
    # project refuses a cone that is not self-dual, so most of these cones
    # are read through the hook it calls for a point outside the facets
    sp = ConeSpace.polyhedral(list(G.T))
    R, D = sp._rays, sp.dual_generators
    for x in _points(sp, seed):
        if np.min(x @ D) >= 0.0:
            continue
        bound = BAND * max(1.0, np.linalg.norm(x))
        p = sp._project_outside(x)
        assert np.linalg.norm(p - R @ scipy.optimize.nnls(R, x)[0]) <= bound
        want = R @ nnls(R, x)[0]
        if np.linalg.norm(want - x) > np.linalg.norm(p - x) + bound:
            # the active set stops early on some points within 1e-5 of a
            # wide cone (an n-gon at h = 1e-6), whose duals there are
            # round-off sized; its point is then farther from x than the
            # closed form's, which is scipy's
            continue
        assert np.linalg.norm(p - want) <= bound


def _jordan_parts_of_an_interior_point(monkeypatch, sp):
    """jordan_decompose of an interior point of sp, and the nnls calls it made."""
    from eudoxus import cone_space

    calls = []
    monkeypatch.setattr(cone_space, "nnls", lambda *a: calls.append(a) or nnls(*a))
    x = sp.sample_interior_point(np.random.default_rng(0))
    return x, sp.jordan_decompose(x), calls


def test_project_keeps_a_point_of_the_cone_and_answers_its_negative_at_once(monkeypatch):
    x, (xp, xm), calls = _jordan_parts_of_an_interior_point(monkeypatch, _cone("rotated", 4))
    # x itself, and -x (R^T x <= 0) by the active set's first dual test
    assert np.array_equal(xp, x) and not np.any(xm)
    assert len(calls) == 1 and np.array_equal(calls[0][1], -x)


@pytest.mark.parametrize("n", [3, 7, 601])
def test_project_in_r3_keeps_a_point_of_the_cone_and_answers_its_negative_without_nnls(
        monkeypatch, n):
    x, (xp, xm), calls = _jordan_parts_of_an_interior_point(monkeypatch, _cone("ngon", n))
    # x itself, and -x by the ray shadows, which are all 0
    assert np.array_equal(xp, x) and not np.any(xm)
    assert calls == []


@pytest.mark.parametrize("kind,n", [("ngon", 5), ("ngon", 13), ("ngon", 601),
                                    ("rotated", 6), ("rotated", 32)])
def test_project_is_exactly_homogeneous_up_to_the_float_range(kind, n):
    # nnls solves for x / 2^k, max |x / 2^k| in [1, 2), so the projection of
    # 2^j x is 2^j times that of x, also where |x|^2 overflows
    sp = _cone(kind, n)
    rng = np.random.default_rng(n)
    for x in [rng.standard_normal(sp.dim) for _ in range(5)]:
        p, (xp, xm) = sp.project(x), sp.jordan_decompose(x)
        for j in (-1000, -300, 300, 1000):
            assert np.array_equal(sp.project(2.0 ** j * x), 2.0 ** j * p)
            yp, ym = sp.jordan_decompose(2.0 ** j * x)
            assert np.array_equal(yp, 2.0 ** j * xp) and np.array_equal(ym, 2.0 ** j * xm)


self_dual_polyhedral = st.one_of(
    st.tuples(st.just("ngon"), st.sampled_from([3, 5, 7, 9, 11, 13, 101, 601])),
    st.tuples(st.just("rotated"), st.integers(2, 32)),
).map(lambda args: _cone(*args))


@given(sp=self_dual_polyhedral, seed=st.integers(0, 2**16),
       scale=st.sampled_from([1e-6, 1e-3, 1.0, 1e3, 1e6, 1e9]),
       shape=st.sampled_from(["gaussian", "rays"]))
@settings(max_examples=200, deadline=None)
def test_projection_satisfies_moreau_conditions(sp, seed, scale, shape):
    """p = project(x): p in K, x - p in the polar cone -K (so p - x in K),
    <p, p - x> = 0 within the face band, and project(p) = p."""
    rng = np.random.default_rng(seed)
    R = sp._rays
    if shape == "gaussian":
        x = rng.standard_normal(sp.dim)
    else:
        x = R @ (rng.standard_normal(R.shape[1]) * (rng.random(R.shape[1]) < 0.3))
    x = scale * x
    p = sp.project(x)
    band = _face_band(x)
    assert sp.contains(p) and sp.contains(p - x)
    assert abs(np.dot(p, p - x)) <= band * max(1.0, np.linalg.norm(x))
    assert np.linalg.norm(sp.project(p) - p) <= band


def test_the_iteration_cap_raises():
    sp = _cone("ngon", 5)
    R, x = sp._rays, np.array([0.2, 1.0, -0.5])
    solves = []
    real_lstsq = np.linalg.lstsq

    def counting(*args, **kwargs):
        solves.append(1)
        return real_lstsq(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.linalg, "lstsq", counting)
        c, _ = nnls(R, x)
    assert len(solves) >= 2
    # the answer comes within the solves it takes, and one fewer raises
    assert np.array_equal(nnls(R, x, maxiter=len(solves))[0], c)
    with pytest.raises(RuntimeError, match="did not converge"):
        nnls(R, x, maxiter=len(solves) - 1)
