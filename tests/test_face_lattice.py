import itertools
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eudoxus import cone_space, face_lattice
from eudoxus.cone_space import TOL, ConeSpace, Membership, sym_to_vec
from eudoxus.derivation_algebra import Verdict, is_derivation
from eudoxus.face_lattice import (
    Face,
    face_of,
    facial_derivative,
    is_facially_homogeneous,
    is_riesz,
    minimal_decomposition,
)


def orthogonal_face(F):
    """F-perp, cone elements orthogonal to every element of F (U_(e - c)
    for a Jordan face U_c): the kind's _orthogonal_faces hook on a
    one-face stack."""
    (P,), (W,) = F.host._orthogonal_faces(F.projector[None], F.witness[None])
    return Face(F.host, P, W)


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


def all_kinds():
    return [
        ConeSpace.orthant(3),
        ConeSpace.lorentz(3),
        ConeSpace.psd_real(2),
        ConeSpace.hermitian(2),
    ]


def _rotated_orthant(n, seed=4):
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, n)))
    return ConeSpace.polyhedral(list(q.T))


def largest_kinds():
    # the largest sizes the benchmark sweeps
    return [ConeSpace.orthant(24), ConeSpace.lorentz(24), ConeSpace.psd_real(5),
            ConeSpace.hermitian(5), _rotated_orthant(6)]


def test_orthant_face_is_support():
    sp = ConeSpace.orthant(4)
    F = face_of(sp, np.array([1.0, 0.0, 2.0, 0.0]))
    assert F.dim == 2
    assert np.allclose(F.projector, np.diag([1.0, 0.0, 1.0, 0.0]))
    G = orthogonal_face(F)
    assert G.dim == 2
    assert np.allclose(F.projector @ G.projector, 0.0, atol=1e-12)


def test_interior_point_gives_whole_face():
    for sp in all_kinds():
        F = face_of(sp, sp.canonical_unit())
        assert F.dim == sp.dim
        assert orthogonal_face(F).is_zero()


def test_zero_gives_zero_face():
    sp = ConeSpace.orthant(3)
    assert face_of(sp, np.zeros(3)).is_zero()


def test_face_of_and_decomposition_share_one_zero_band():
    # norm 9.9e-10 but eigenvalue 1.4e-9: above the band TOL * max(1, |a|)
    sp = ConeSpace.lorentz(3)
    a = 0.7e-9 * np.array([1.0, 1.0, 0.0])
    assert face_of(sp, a).dim == len(minimal_decomposition(sp, a)) == 1
    for space in all_kinds() + [_rotated_orthant(3)]:
        assert face_of(space, np.zeros(space.dim)).is_zero()


def test_lorentz_boundary_ray_face():
    sp = ConeSpace.lorentz(3)
    x = np.array([1.0, 1.0, 0.0])
    F = face_of(sp, x)
    assert F.dim == 1
    assert F.contains(x)
    G = orthogonal_face(F)
    assert G.dim == 1
    assert G.contains(np.array([1.0, -1.0, 0.0]))


def test_psd_face_from_rank():
    sp = ConeSpace.psd_real(2)
    F = face_of(sp, sym_to_vec(np.diag([1.0, 0.0])))
    assert F.dim == 1
    G = orthogonal_face(F)
    assert G.contains(sym_to_vec(np.diag([0.0, 1.0])))


def test_face_projector_is_idempotent_and_symmetric():
    rng = np.random.default_rng(2)
    for sp in all_kinds() + largest_kinds():
        for _ in range(20):
            a = sp.sample_cone_point(rng)
            F = face_of(sp, a)
            P = F.projector
            assert np.allclose(P @ P, P, atol=1e-9)
            assert np.allclose(P, P.T, atol=1e-12)
            assert F.contains(a) and F.contains(F.witness)
            G = orthogonal_face(F)
            assert np.allclose(P @ G.projector, 0.0, atol=1e-9)
            assert abs(np.dot(a, G.witness)) <= 1e-9 * max(1.0, np.linalg.norm(a))


def test_facial_derivative_formula_and_spectrum():
    sp = ConeSpace.orthant(3)
    F = face_of(sp, np.array([1.0, 1.0, 0.0]))
    d = facial_derivative(F)
    P = F.projector
    Q = orthogonal_face(F).projector
    assert np.allclose(d.mat, 0.5 * (np.eye(3) + P - Q), atol=1e-12)
    assert np.allclose(sorted(np.linalg.eigvalsh(d.mat)), [0.0, 1.0, 1.0], atol=1e-12)


def test_facial_derivative_acts_as_expected():
    # identity on the face, zero on the orthogonal face, one half between
    sp = ConeSpace.lorentz(3)
    x = np.array([1.0, 1.0, 0.0])
    F = face_of(sp, x)
    d = facial_derivative(F)
    assert np.allclose(d(x), x, atol=1e-9)
    assert np.allclose(d(np.array([1.0, -1.0, 0.0])), 0.0, atol=1e-9)
    assert np.allclose(d(np.array([0.0, 0.0, 1.0])), [0.0, 0.0, 0.5], atol=1e-9)


@pytest.mark.parametrize("sp", [ConeSpace.orthant(3), ConeSpace.lorentz(4), ConeSpace.psd_real(3),
                                ConeSpace.hermitian(2), _rotated_orthant(4)], ids=repr)
def test_facial_derivative_builds_no_face(monkeypatch, sp):
    F = face_of(sp, sp.sample_cone_point(np.random.default_rng(2)))
    expected = 0.5 * (np.eye(sp.dim) + F.projector - orthogonal_face(F).projector)
    built = []
    init = face_lattice.Face.__init__

    def counting(self, *args):
        built.append(args)
        init(self, *args)
    monkeypatch.setattr(face_lattice.Face, "__init__", counting)
    assert np.array_equal(facial_derivative(F).mat, expected)
    assert built == []


JORDAN_KINDS = ([ConeSpace.orthant(n) for n in (1, 3, 8, 24)]
                + [ConeSpace.lorentz(n) for n in (2, 3, 8, 24)]
                + [ConeSpace.psd_real(k) for k in (1, 2, 3, 5)]
                + [ConeSpace.hermitian(k) for k in (1, 2, 3, 5)])


@given(sp=st.sampled_from(JORDAN_KINDS), seed=st.integers(0, 2**16), shift=st.floats(-1.0, 1.5))
@settings(max_examples=150)
def test_facial_derivative_is_L_of_the_face_unit(sp, seed, shift):
    # Peirce: L(c) is 1 on V(c, 1), 1/2 on V(c, 1/2), 0 on V(c, 0); the
    # shift draws faces of every rank, from the whole cone to the zero face
    x = sp.project(np.random.default_rng(seed).standard_normal(sp.dim)
                   - shift * sp.canonical_unit())
    F = face_of(sp, x)
    assert np.linalg.norm(facial_derivative(F).mat - sp.L(F.witness)) <= 1e-12


def test_incomparable():
    sp = ConeSpace.orthant(3)
    assert incomparable(sp, np.array([1.0, 0.0, 0.0]), np.array([0.0, 2.0, 0.0]))
    assert not incomparable(sp, np.array([1.0, 1.0, 0.0]), np.array([0.0, 2.0, 0.0]))


def test_minimal_decomposition_lorentz_example():
    sp = ConeSpace.lorentz(3)
    parts = minimal_decomposition(sp, np.array([2.0, 1.0, 0.0]))
    assert len(parts) == 2
    got = {(round(c, 9), tuple(np.round(v, 9))) for c, v in parts}
    assert got == {(3.0, (0.5, 0.5, 0.0)), (1.0, (0.5, -0.5, 0.0))}


def test_minimal_decomposition_properties():
    rng = np.random.default_rng(11)
    for sp in all_kinds() + largest_kinds():
        for _ in range(20):
            a = sp.sample_cone_point(rng)
            parts = minimal_decomposition(sp, a)
            total = sum(c * v for c, v in parts)
            assert np.allclose(total, a, atol=1e-8 * max(1.0, np.linalg.norm(a)))
            for c, v in parts:
                assert c > 0
                # minimal elements generate one-dimensional (extreme-ray) faces
                assert face_of(sp, v).dim == 1
            for i in range(len(parts)):
                for j in range(i + 1, len(parts)):
                    assert incomparable(sp, parts[i][1], parts[j][1])


def test_riesz_classification():
    assert is_riesz(ConeSpace.orthant(3))[0]
    assert is_riesz(ConeSpace.lorentz(2))[0]
    assert is_riesz(ConeSpace.psd_real(1))[0]
    assert not is_riesz(ConeSpace.psd_real(2))[0]
    assert not is_riesz(ConeSpace.lorentz(3))[0]
    assert not is_riesz(ConeSpace.hermitian(2))[0]


def test_riesz_failure_witness_is_concrete():
    for sp in (ConeSpace.psd_real(2), ConeSpace.lorentz(3)):
        ok, witness = is_riesz(sp)
        assert not ok
        assert witness is not None
        a, c, x = witness["a"], witness["c"], witness["x"]
        assert sp.membership(a) is not Membership.OUTSIDE
        assert sp.membership(c) is not Membership.OUTSIDE
        # x lies in the face of a + c but outside face(a) + face(c)
        assert face_of(sp, a + c).contains(x)
        span = np.column_stack([face_of(sp, a).projector,
                                face_of(sp, c).projector])
        coef, _, _, _ = np.linalg.lstsq(span, x, rcond=None)
        assert np.linalg.norm(span @ coef - x) > 1e-3


def test_facial_homogeneity():
    assert is_facially_homogeneous(ConeSpace.orthant(3))
    assert is_facially_homogeneous(ConeSpace.psd_real(2))
    assert is_facially_homogeneous(ConeSpace.lorentz(3))


def test_face_contains_rejects_outside_points():
    sp = ConeSpace.orthant(3)
    F = face_of(sp, np.array([1.0, 1.0, 0.0]))
    assert F.contains(np.array([2.0, 1.0, 0.0]))
    assert not F.contains(np.array([0.0, 0.0, 1.0]))
    assert not F.contains(np.array([1.0, -1.0, 0.0]))


def _ngon_cone(n):
    r = np.cos(np.pi / n) ** -0.5
    return ConeSpace.polyhedral([np.array([1.0, r * np.cos(2 * np.pi * i / n),
                                           r * np.sin(2 * np.pi * i / n)])
                                 for i in range(n)])


# generator subsets the loop reference tries, smallest first
MAX_SUBSETS = 4096


def loop_facially_homogeneous(space, sample_budget=25, rng=None):
    """Reference: the check one face at a time, as it was before the faces
    were stacked.  The zero face, the whole cone, then face_of of each face
    point (extreme-ray subset sums, or sample_budget sampled points), each
    with its own orthogonal_face and is_derivation call, up to the first
    face that refutes."""
    if rng is None:
        rng = np.random.default_rng(0)
    if space.kind == "polyhedral":
        R = space._rays
        m = R.shape[1]
        subsets = itertools.chain.from_iterable(
            itertools.combinations(range(m), r) for r in range(1, m + 1))
        points = (np.sum(R[:, list(s)], axis=1) for s in itertools.islice(subsets, MAX_SUBSETS))
        how = ("exhaustive" if 2 ** m - 1 <= MAX_SUBSETS
               else "first %d generator subsets" % MAX_SUBSETS)
    else:
        points = [space.sample_cone_point(rng) for _ in range(sample_budget)]
        points = [x for x in points if np.linalg.norm(x) > 1e-9]
        how = "sampled faces"
    d = space.dim
    faces = itertools.chain([Face(space, np.zeros((d, d)), np.zeros(d)),
                             Face(space, np.eye(d), space.canonical_unit())],
                            (face_of(space, x) for x in points))
    for F in faces:
        verdict = is_derivation(space, F.projector - orthogonal_face(F).projector, rng=rng)
        if verdict.status == "Refuted":
            return Verdict("Refuted", "face of dim %d" % F.dim, witness=(F, verdict.witness))
    return Verdict("Verified", how)


def _redundant(sp, seed):
    # a conic combination and a repeated direction add no extreme ray
    G = sp._rays
    rng = np.random.default_rng(seed)
    extra = np.column_stack([G @ rng.exponential(size=G.shape[1]), 2.5 * G[:, 0]])
    return ConeSpace.polyhedral(list(np.column_stack([G, extra])[:, rng.permutation(G.shape[1] + 2)].T))


HOMOGENEITY_CASES = (
    [ConeSpace.orthant(n) for n in (1, 2, 5, 12, 24)]
    + [ConeSpace.lorentz(n) for n in (2, 3, 6, 24)]
    + [ConeSpace.psd_real(k) for k in (1, 2, 3, 4, 5)]
    + [ConeSpace.hermitian(k) for k in (1, 2, 3, 4, 5)]
    + [_rotated_orthant(n, seed) for n in (2, 3, 5, 8) for seed in (1, 4)]
    + [_ngon_cone(n) for n in range(3, 14)]
    + [_redundant(sp, seed) for seed, sp in enumerate(
        [_rotated_orthant(3), _rotated_orthant(5), _ngon_cone(3), _ngon_cone(4), _ngon_cone(7)])])


@given(sp=st.sampled_from(HOMOGENEITY_CASES), seed=st.integers(0, 2**16),
       budget=st.sampled_from([0, 1, 5, 25, 60]))
@settings(max_examples=120)
def test_stacked_homogeneity_matches_the_loop_reference(sp, seed, budget):
    got = is_facially_homogeneous(sp, budget, np.random.default_rng(seed))
    want = loop_facially_homogeneous(sp, budget, np.random.default_rng(seed))
    assert repr(got) == repr(want)
    if want.witness is None:
        assert got.witness is None
        return
    (F, expelled), (G, want_expelled) = got.witness, want.witness
    assert F.dim == G.dim
    assert np.linalg.norm(F.projector - G.projector) <= 1e-12
    assert np.linalg.norm(F.witness - G.witness) <= 1e-12
    if want_expelled is None:
        assert expelled is None
    else:
        assert expelled[0] == want_expelled[0]
        assert np.array_equal(expelled[1], want_expelled[1])


@pytest.mark.parametrize("sp", [ConeSpace.orthant(5), ConeSpace.lorentz(6), ConeSpace.psd_real(4),
                                ConeSpace.hermitian(3), _rotated_orthant(5), _ngon_cone(7),
                                _redundant(_ngon_cone(4), 1)], ids=repr)
def test_each_stacked_face_is_the_face_of_its_point(sp):
    # the faces the check tests, face by face: those of the unit extreme
    # rays, or of the nonzero ones of 25 sampled points
    rng = np.random.default_rng(5)
    if sp.kind == "polyhedral":
        points = list(sp._rays.T)
    else:
        points = [x for x in (sp.sample_cone_point(rng) for _ in range(25))
                  if np.linalg.norm(x) > 1e-9]
    faces, _ = sp._face_points(25, np.random.default_rng(5))
    P, W, Pp = cone_space._checked_faces(sp, faces)
    assert len(P) == len(W) == len(Pp) == len(points)
    for x, p, pp, w in zip(points, P, Pp, W):
        F = face_of(sp, x)
        assert np.linalg.norm(p - F.projector) <= 1e-12
        assert np.linalg.norm(pp - orthogonal_face(F).projector) <= 1e-12
        assert np.linalg.norm(w - F.witness) <= 1e-12


def _counting_faces(monkeypatch, sp):
    """The number of faces in the stack the check builds."""
    sizes = []
    face_points = sp._face_points

    def counting(budget, rng):
        (P, W), how = face_points(budget, rng)
        sizes.append(len(P))
        return (P, W), how
    monkeypatch.setattr(sp, "_face_points", counting)
    return sizes


def test_facial_homogeneity_stops_at_the_first_refuting_face(monkeypatch):
    # the 13-gon cone is refuted by a ray face, from the stack of its 13
    # ray faces alone
    sp = _ngon_cone(13)
    sizes = _counting_faces(monkeypatch, sp)
    verdict = is_facially_homogeneous(sp)
    assert repr(verdict) == "Refuted(face of dim 1)"
    assert verdict.witness[1] is not None
    assert sizes == [13]


@pytest.mark.parametrize("n", [12, 13, 24])
def test_polyhedral_homogeneity_is_exhaustive_from_the_ray_faces(monkeypatch, n):
    # 2^n - 1 ray subsets, but the n ray faces decide every face
    sp = _rotated_orthant(n)
    sizes = _counting_faces(monkeypatch, sp)
    t0 = time.perf_counter()
    assert repr(is_facially_homogeneous(sp)) == "Verified(exhaustive)"
    assert time.perf_counter() - t0 < 2.0
    assert sizes == [n]


def _ngon_plus_ray(n):
    # the direct sum of the n-gon cone in R^3 and a ray: n + 1 rays in R^4
    gens = [np.append(g, 0.0) for g in _ngon_cone(n).generators.T]
    return ConeSpace.polyhedral(gens + [np.eye(4)[3]])


def _tilted_orthant(n, eps, seed):
    # a rotated orthant whose generators are moved by eps-sized noise
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return ConeSpace.polyhedral(list((q + eps * rng.standard_normal((n, n))).T))


@st.composite
def polyhedral_cones(draw):
    """Random generator sets (dim 2-5, at most 10 generators, in the open
    half-space x_0 > 0, so pointed), simplicial cones near and at rotated
    orthants, and n-gon + ray sums."""
    family = draw(st.sampled_from(["generators", "simplicial", "ngon+ray"]))
    if family == "ngon+ray":
        return _ngon_plus_ray(draw(st.integers(3, 9)))
    dim = draw(st.integers(2, 5))
    seed = draw(st.integers(0, 2**16))
    if family == "simplicial":
        return _tilted_orthant(dim, draw(st.sampled_from([0.0, 1e-3, 0.3])), seed)
    G = np.random.default_rng(seed).standard_normal((draw(st.integers(dim, 10)), dim))
    G[:, 0] = np.abs(G[:, 0]) + 0.1
    return ConeSpace.polyhedral(list(G))


def _assert_same_verdict(got, want):
    assert repr(got) == repr(want)
    if want.witness is None:
        assert got.witness is None
        return
    (F, expelled), (G, want_expelled) = got.witness, want.witness
    assert np.linalg.norm(F.projector - G.projector) <= 1e-12
    assert np.linalg.norm(F.witness - G.witness) <= 1e-12
    assert (expelled is None) == (want_expelled is None)
    if expelled is not None:
        assert expelled[0] == want_expelled[0]
        assert np.array_equal(expelled[1], want_expelled[1])


@given(sp=polyhedral_cones(), seed=st.integers(0, 2**16))
@settings(max_examples=60)
def test_ray_faces_decide_like_every_generator_subset(sp, seed):
    got = is_facially_homogeneous(sp, rng=np.random.default_rng(seed))
    _assert_same_verdict(got, loop_facially_homogeneous(sp, rng=np.random.default_rng(seed)))


@pytest.mark.parametrize("eps,status", [(1e-8, "Refuted"), (1e-11, "Verified")])
@pytest.mark.parametrize("n", [3, 4, 5])
def test_near_orthogonal_rays_outside_the_band_agree_with_every_subset(n, eps, status):
    # rays orthogonal only to about 3e-10 to 5e-10 may verify where some
    # larger subset face refutes; to 1e-8 and 1e-11 both decide alike
    for seed in range(3):
        sp = _tilted_orthant(n, eps, seed)
        got = is_facially_homogeneous(sp)
        assert got.status == status
        _assert_same_verdict(got, loop_facially_homogeneous(sp))


@pytest.mark.parametrize("sp", [ConeSpace.orthant(5), ConeSpace.lorentz(6), ConeSpace.psd_real(4),
                                ConeSpace.hermitian(3)], ids=repr)
@pytest.mark.parametrize("budget", [0, 1, 25])
def test_one_spectral_decomposition_per_sampled_face(monkeypatch, sp, budget):
    # one stacked decomposition of the Gaussians gives both their
    # projections and their faces
    calls = []
    spectral = sp._spectral

    def counting(X):
        calls.append(X.shape)
        return spectral(X)
    monkeypatch.setattr(sp, "_spectral", counting)
    assert is_facially_homogeneous(sp, budget, np.random.default_rng(1))
    assert calls == [(budget, sp.dim)]


def test_only_the_refuting_face_is_built(monkeypatch):
    # faces that verify are decided in the stack alone
    calls = []

    def counting(module, name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)
    for module, name in [(face_lattice, "Face"), (face_lattice, "face_of"),
                         (face_lattice, "is_derivation")]:
        counting(module, name)
    for sp in [ConeSpace.orthant(5), ConeSpace.lorentz(6), ConeSpace.psd_real(3),
               ConeSpace.hermitian(3), _rotated_orthant(6), _ngon_cone(3)]:
        assert is_facially_homogeneous(sp)
    assert calls == []
    for n in (5, 13):
        assert not is_facially_homogeneous(_ngon_cone(n))
    assert calls == ["is_derivation", "Face"] * 2


def test_sampled_homogeneity_keeps_its_label():
    assert repr(is_facially_homogeneous(ConeSpace.hermitian(2))) == "Verified(sampled faces)"
    assert repr(is_facially_homogeneous(_ngon_cone(3))) == "Verified(exhaustive)"
