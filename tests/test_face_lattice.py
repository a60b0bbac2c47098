import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eudoxus import face_lattice
from eudoxus.cone_space import ConeSpace, Membership, sym_to_vec
from eudoxus.face_lattice import (
    face_of,
    facial_derivative,
    incomparable,
    is_facially_homogeneous,
    is_minimal,
    is_riesz,
    minimal_decomposition,
    orthogonal_face,
    whole_face,
    zero_face,
)


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
        assert F.is_whole()
        assert orthogonal_face(F).is_zero()


def test_zero_gives_zero_face():
    sp = ConeSpace.orthant(3)
    assert face_of(sp, np.zeros(3)).is_zero()
    assert zero_face(sp).dim == 0
    assert whole_face(sp).dim == 3


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
                assert is_minimal(sp, v)
            for i in range(len(parts)):
                for j in range(i + 1, len(parts)):
                    assert incomparable(sp, parts[i][1], parts[j][1])


def test_is_minimal():
    sp = ConeSpace.orthant(3)
    assert is_minimal(sp, np.array([0.0, 3.0, 0.0]))
    assert not is_minimal(sp, np.array([1.0, 1.0, 0.0]))


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


def _counting_face_of(monkeypatch):
    calls = []

    def counting(space, a):
        calls.append(1)
        return face_of(space, a)
    monkeypatch.setattr(face_lattice, "face_of", counting)
    return calls


def test_facial_homogeneity_stops_at_the_first_refuting_face(monkeypatch):
    # the 4,096 candidate faces of the 13-gon cone are built only as tested
    calls = _counting_face_of(monkeypatch)
    verdict = is_facially_homogeneous(_ngon_cone(13))
    assert repr(verdict) == "Refuted(face of dim 1)"
    assert verdict.witness[1] is not None
    assert len(calls) <= 3


@pytest.mark.parametrize("n,how", [(12, "exhaustive"), (13, "first 4096 generator subsets")])
def test_polyhedral_homogeneity_says_how_many_subsets_it_tried(monkeypatch, n, how):
    # 2^12 - 1 subsets fit under the cap, 2^13 - 1 do not
    calls = _counting_face_of(monkeypatch)
    assert repr(is_facially_homogeneous(_rotated_orthant(n))) == "Verified(%s)" % how
    assert len(calls) == min(2 ** n - 1, 4096)


def test_sampled_homogeneity_keeps_its_label():
    assert repr(is_facially_homogeneous(ConeSpace.hermitian(2))) == "Verified(sampled faces)"
    assert repr(is_facially_homogeneous(_ngon_cone(3))) == "Verified(exhaustive)"
