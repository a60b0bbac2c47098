import itertools
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eudoxus import cone_space, derivation_algebra, face_lattice
from eudoxus.cone_space import ConeSpace, Membership, sym_to_vec, vec_to_herm, vec_to_sym
from eudoxus.derivation_algebra import Verdict, _derivation_residuals, is_derivation
from eudoxus.face_lattice import (
    Face,
    face_of,
    facial_derivative,
    is_facially_homogeneous,
    is_riesz,
    minimal_decomposition,
)
from references import herm_to_vec, incomparable, lattice_by_kind, ngon_cone, rotated_orthant


def orthogonal_face(F):
    """F-perp, cone elements orthogonal to every element of F (U_(e - c)
    for a Jordan face U_c): the kind's _orthogonal_faces hook on a
    one-face stack."""
    (P,), (W,) = F.host._orthogonal_faces(F.projector[None], F.witness[None])
    return Face(F.host, P, W)


def all_kinds():
    return [
        ConeSpace.orthant(3),
        ConeSpace.lorentz(3),
        ConeSpace.psd_real(2),
        ConeSpace.hermitian(2),
    ]


def largest_kinds():
    # the largest sizes the benchmark sweeps
    return [ConeSpace.orthant(24), ConeSpace.lorentz(24), ConeSpace.psd_real(5),
            ConeSpace.hermitian(5), rotated_orthant(6, 4)]


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
        assert orthogonal_face(F).dim == 0


def test_zero_gives_zero_face():
    sp = ConeSpace.orthant(3)
    assert face_of(sp, np.zeros(3)).dim == 0


def test_face_of_and_decomposition_share_one_zero_band():
    # norm 9.9e-10 but eigenvalue 1.4e-9: above the band TOL * max(1, |a|)
    sp = ConeSpace.lorentz(3)
    a = 0.7e-9 * np.array([1.0, 1.0, 0.0])
    assert face_of(sp, a).dim == len(minimal_decomposition(sp, a)) == 1
    for space in all_kinds() + [rotated_orthant(3, 4)]:
        assert face_of(space, np.zeros(space.dim)).dim == 0


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
                                ConeSpace.hermitian(2), rotated_orthant(4, 4)], ids=repr)
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


RIESZ_CASES = ([ConeSpace.orthant(n) for n in range(1, 21)]
               + [ConeSpace.lorentz(n) for n in range(2, 9)]
               + [ConeSpace.psd_real(k) for k in range(1, 6)]
               + [ConeSpace.hermitian(k) for k in range(1, 5)]
               + [rotated_orthant(n, seed) for n in range(2, 7) for seed in range(3)]
               + [ngon_cone(n) for n in range(3, 14)]
               + [ConeSpace.polyhedral([np.array([2.0])])])


@pytest.mark.parametrize("sp", RIESZ_CASES, ids=repr)
def test_riesz_matches_the_rule_of_each_kind(sp):
    # a lattice exactly when the unit splits into dim minimal pieces
    assert is_riesz(sp)[0] == lattice_by_kind(sp)


@pytest.mark.parametrize("sp", [ConeSpace.psd_real(k) for k in range(2, 6)]
                         + [ConeSpace.lorentz(n) for n in range(3, 9)]
                         + [ConeSpace.hermitian(k) for k in range(2, 5)], ids=repr)
def test_riesz_failure_witness_is_concrete(sp):
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


@pytest.mark.parametrize("n", range(4, 14))
def test_riesz_failure_of_a_non_simplicial_cone_names_its_reason(n):
    ok, witness = is_riesz(ngon_cone(n))
    assert not ok
    assert witness == {"reason": "non-simplicial: the unit is 1 piece in dimension 3"}


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


# generator subsets the loop reference tries, smallest first
MAX_SUBSETS = 4096


def frame_partial_sums(space):
    """The proper partial sums c_1, c_1 + c_2, ..., c_1 + ... + c_(r-1) of
    the Jordan frame of the unit, read from its minimal decomposition."""
    frame = [c for _, c in minimal_decomposition(space, space.canonical_unit())]
    return list(itertools.accumulate(frame))[:-1]


def loop_facially_homogeneous(space):
    """Reference: the check one face at a time, as it was before the faces
    were stacked.  The zero face, the whole cone, then face_of of each face
    point (extreme-ray subset sums, or the proper partial sums of the frame
    of the unit), each with its own orthogonal_face and is_derivation call,
    up to the first face that refutes."""
    if space.kind == "polyhedral":
        R = space._rays
        m = R.shape[1]
        subsets = itertools.chain.from_iterable(
            itertools.combinations(range(m), r) for r in range(1, m + 1))
        points = (np.sum(R[:, list(s)], axis=1) for s in itertools.islice(subsets, MAX_SUBSETS))
        how = ("exhaustive" if 2 ** m - 1 <= MAX_SUBSETS
               else "first %d generator subsets" % MAX_SUBSETS)
    else:
        points = frame_partial_sums(space)
        how = "every rank by transitivity"
    d = space.dim
    faces = itertools.chain([Face(space, np.zeros((d, d)), np.zeros(d)),
                             Face(space, np.eye(d), space.canonical_unit())],
                            (face_of(space, x) for x in points))
    for F in faces:
        verdict = is_derivation(space, F.projector - orthogonal_face(F).projector)
        if verdict.status == "Refuted":
            return Verdict("Refuted", "face of dim %d" % F.dim, witness=(F, verdict.witness))
    return Verdict("Verified", how)


@pytest.mark.parametrize("n", [5, 13])
def test_a_refuted_homogeneity_searches_its_witness_when_read(monkeypatch, n):
    sp = ngon_cone(n)
    calls, search = [], derivation_algebra._expel_witness

    def counting(space, M):
        calls.append(1)
        return search(space, M)
    monkeypatch.setattr(derivation_algebra, "_expel_witness", counting)
    verdict = is_facially_homogeneous(sp)
    assert repr(verdict) == "Refuted(face of dim 1)" and calls == []
    F, (t, x) = verdict.witness
    assert calls == [1]
    # the eager search on the refuting face's operator, read once
    want_t, want_x = search(sp, F.projector - orthogonal_face(F).projector)
    assert t == want_t and np.array_equal(x, want_x)
    assert verdict.witness[0] is F and calls == [1]


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
    + [rotated_orthant(n, seed) for n in (2, 3, 5, 8) for seed in (1, 4)]
    + [ngon_cone(n) for n in range(3, 14)]
    + [_redundant(sp, seed) for seed, sp in enumerate(
        [rotated_orthant(3, 4), rotated_orthant(5, 4), ngon_cone(3), ngon_cone(4), ngon_cone(7)])])


@pytest.mark.parametrize("sp", HOMOGENEITY_CASES, ids=repr)
def test_stacked_homogeneity_matches_the_loop_reference(sp):
    got = is_facially_homogeneous(sp)
    want = loop_facially_homogeneous(sp)
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
                                ConeSpace.hermitian(3), rotated_orthant(5, 4), ngon_cone(7),
                                _redundant(ngon_cone(4), 1)], ids=repr)
def test_each_stacked_face_is_the_face_of_its_point(sp):
    # the faces the check tests, face by face: those of the unit extreme
    # rays, or of the proper partial sums of the frame of the unit
    points = list(sp._rays.T) if sp.kind == "polyhedral" else frame_partial_sums(sp)
    faces, _ = sp._face_points()
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

    def counting():
        (P, W), how = face_points()
        sizes.append(len(P))
        return (P, W), how
    monkeypatch.setattr(sp, "_face_points", counting)
    return sizes


def test_facial_homogeneity_stops_at_the_first_refuting_face(monkeypatch):
    # the 13-gon cone is refuted by a ray face, from the stack of its 13
    # ray faces alone
    sp = ngon_cone(13)
    sizes = _counting_faces(monkeypatch, sp)
    verdict = is_facially_homogeneous(sp)
    assert repr(verdict) == "Refuted(face of dim 1)"
    assert verdict.witness[1] is not None
    assert sizes == [13]


@pytest.mark.parametrize("n", [12, 13, 24])
def test_polyhedral_homogeneity_is_exhaustive_from_the_ray_faces(monkeypatch, n):
    # 2^n - 1 ray subsets, but the n ray faces decide every face
    sp = rotated_orthant(n, 4)
    sizes = _counting_faces(monkeypatch, sp)
    t0 = time.perf_counter()
    assert repr(is_facially_homogeneous(sp)) == "Verified(exhaustive)"
    assert time.perf_counter() - t0 < 2.0
    assert sizes == [n]


def _ngon_plus_ray(n):
    # the direct sum of the n-gon cone in R^3 and a ray: n + 1 rays in R^4
    gens = [np.append(g, 0.0) for g in ngon_cone(n).generators.T]
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


@given(sp=polyhedral_cones())
@settings(max_examples=60)
def test_ray_faces_decide_like_every_generator_subset(sp):
    _assert_same_verdict(is_facially_homogeneous(sp), loop_facially_homogeneous(sp))


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
def test_one_spectral_decomposition_of_the_unit(monkeypatch, sp):
    # one decomposition of e gives the frame whose partial sums are the faces
    calls = []
    spectral = sp._spectral

    def counting(X):
        calls.append(X.shape)
        return spectral(X)
    monkeypatch.setattr(sp, "_spectral", counting)
    assert is_facially_homogeneous(sp)
    assert calls == [(1, sp.dim)]


@pytest.mark.parametrize("sp, faces", [(ConeSpace.orthant(1), 0), (ConeSpace.psd_real(1), 0),
                                       (ConeSpace.hermitian(1), 0), (ConeSpace.orthant(64), 63)]
                         + [(ConeSpace.lorentz(n), 1) for n in (2, 3, 8, 24)]
                         + [(ConeSpace.psd_real(k), k - 1) for k in (2, 3, 5)]
                         + [(ConeSpace.hermitian(k), k - 1) for k in (2, 3, 5)], ids=repr)
def test_one_face_per_proper_rank(monkeypatch, sp, faces):
    # r - 1 faces, the k-th of rank k: none at rank 1, one on every lorentz
    sizes = _counting_faces(monkeypatch, sp)
    assert repr(is_facially_homogeneous(sp)) == "Verified(every rank by transitivity)"
    assert sizes == [faces]
    (_, W), _ = sp._face_points()
    assert [len(minimal_decomposition(sp, c)) for c in W] == list(range(1, faces + 1))


def _automorphism(sp, rng):
    """A random automorphism of the Jordan algebra as an orthogonal dim x dim
    matrix: a coordinate permutation (orthant), a rotation of the spatial
    part (lorentz), X -> Q X Q^T (psd_real) or X -> U X U^* (hermitian)."""
    n = sp.dim
    if sp.kind == "orthant":
        return np.eye(n)[rng.permutation(n)]
    if sp.kind == "lorentz":
        g = np.eye(n)
        g[1:, 1:] = np.linalg.qr(rng.standard_normal((n - 1, n - 1)))[0]
        return g
    k = sp.param
    if sp.kind == "psd_real":
        Q = np.linalg.qr(rng.standard_normal((k, k)))[0]
        return np.column_stack([sym_to_vec(Q @ vec_to_sym(u) @ Q.T) for u in np.eye(n)])
    U = np.linalg.qr(rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)))[0]
    return np.column_stack([herm_to_vec(U @ vec_to_herm(u) @ U.conj().T) for u in np.eye(n)])


MOVABLE_KINDS = ([ConeSpace.orthant(n) for n in (2, 5, 12)]
                 + [ConeSpace.lorentz(n) for n in (2, 3, 8)]
                 + [ConeSpace.psd_real(k) for k in (2, 3, 5)]
                 + [ConeSpace.hermitian(k) for k in (2, 3, 5)])


@given(sp=st.sampled_from(MOVABLE_KINDS), seed=st.integers(0, 2**16))
@settings(max_examples=80)
def test_frame_faces_moved_by_an_automorphism_still_pass(sp, seed):
    # g U_c g^T = U_(g c) is the face of another idempotent of the same
    # rank, and g Der g^T = Der: the moved faces pass as the frame faces do
    rng = np.random.default_rng(seed)
    g = _automorphism(sp, rng)
    x = sp.sample_vector(rng)
    assert np.linalg.norm(g.T @ g - np.eye(sp.dim)) <= 1e-12
    assert np.linalg.norm(g @ sp.canonical_unit() - sp.canonical_unit()) <= 1e-12
    assert np.linalg.norm(g @ sp.L(x) @ g.T - sp.L(g @ x)) <= 1e-12 * np.linalg.norm(x)
    (P, W), _ = sp._face_points()
    C = W @ g.T
    P, W, Pp = cone_space._checked_faces(sp, (g @ P @ g.T, C))
    assert np.linalg.norm(P - sp._U(C)) <= 1e-12 * max(1, len(P))
    assert not np.any(_derivation_residuals(sp, P - Pp)[1])


@pytest.mark.parametrize("sp", [ConeSpace.lorentz(4), ConeSpace.psd_real(3),
                                ConeSpace.hermitian(3)], ids=repr)
def test_a_projector_that_is_no_face_is_refuted_by_the_same_path(monkeypatch, sp):
    # control: the first frame face swapped for a random rank-one projector,
    # which is no face of the cone, is refuted at that face
    (P, W), how = sp._face_points()
    v = np.random.default_rng(6).standard_normal(sp.dim)
    v /= np.linalg.norm(v)
    P = P.copy()
    P[0] = np.outer(v, v)
    monkeypatch.setattr(sp, "_face_points", lambda: ((P, W), how))
    verdict = is_facially_homogeneous(sp)
    assert repr(verdict) == "Refuted(face of dim 1)"
    assert np.array_equal(verdict.witness[0].projector, P[0])


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
               ConeSpace.hermitian(3), rotated_orthant(6, 4), ngon_cone(3)]:
        assert is_facially_homogeneous(sp)
    assert calls == []
    for n in (5, 13):
        assert not is_facially_homogeneous(ngon_cone(n))
    assert calls == ["is_derivation", "Face"] * 2


def test_homogeneity_keeps_its_labels():
    assert (repr(is_facially_homogeneous(ConeSpace.hermitian(2)))
            == "Verified(every rank by transitivity)")
    assert repr(is_facially_homogeneous(ngon_cone(3))) == "Verified(exhaustive)"
