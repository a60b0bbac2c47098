import numpy as np
import pytest

from eudoxus.cone_space import ConeSpace, herm_to_vec, sym_to_vec, vec_to_herm, vec_to_sym
from eudoxus.derivation_algebra import (
    Derivation,
    SpectralFaceFamily,
    derivation_basis,
    is_derivation,
    lie_center,
    lie_closure_residual,
    orientability,
    reconstruct_from_faces,
    selfadjoint_derivations,
    spectral_faces,
    tangency_dimension_oracle,
)
from eudoxus.face_lattice import whole_face


def _random_selfadjoint(space, rng):
    basis = selfadjoint_derivations(space)
    coef = rng.standard_normal(len(basis))
    return Derivation(space, sum(c * b.mat for c, b in zip(coef, basis)))


def _rotated_orthant(n, seed):
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, n)))
    return ConeSpace.polyhedral(list(q.T))


def _ngon_cone(n):
    r = np.cos(np.pi / n) ** -0.5
    return ConeSpace.polyhedral([np.array([1.0, r * np.cos(2 * np.pi * i / n),
                                           r * np.sin(2 * np.pi * i / n)])
                                 for i in range(n)])


def test_dimension_table():
    assert len(derivation_basis(ConeSpace.orthant(3))) == 3
    assert len(derivation_basis(ConeSpace.psd_real(2))) == 4
    assert len(derivation_basis(ConeSpace.lorentz(3))) == 4
    assert len(derivation_basis(ConeSpace.hermitian(2))) == 7


def test_selfadjoint_dimension_table():
    assert len(selfadjoint_derivations(ConeSpace.orthant(3))) == 3
    assert len(selfadjoint_derivations(ConeSpace.psd_real(2))) == 3
    assert len(selfadjoint_derivations(ConeSpace.lorentz(3))) == 3
    assert len(selfadjoint_derivations(ConeSpace.hermitian(2))) == 4


def test_tangency_oracle_agrees_with_parametrization():
    for sp in (ConeSpace.orthant(3), ConeSpace.psd_real(2),
               ConeSpace.lorentz(3), ConeSpace.hermitian(2)):
        assert tangency_dimension_oracle(sp) == len(derivation_basis(sp))
        assert (tangency_dimension_oracle(sp, symmetric_only=True)
                == len(selfadjoint_derivations(sp)))


def test_polyhedral_dimension():
    th = 0.3
    rot = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    sp = ConeSpace.polyhedral([rot[:, 0], rot[:, 1]])
    assert len(derivation_basis(sp)) == 2
    assert tangency_dimension_oracle(sp) == 2


def test_basis_elements_are_derivations():
    rng = np.random.default_rng(1)
    for sp in (ConeSpace.orthant(3), ConeSpace.psd_real(2), ConeSpace.lorentz(3)):
        for b in derivation_basis(sp):
            assert is_derivation(sp, b.mat, rng=rng)
        d = _random_selfadjoint(sp, rng)
        assert is_derivation(sp, d.mat, rng=rng)


def test_non_derivation_is_refuted_with_witness():
    sp = ConeSpace.orthant(2)
    M = np.array([[0.0, 1.0], [0.0, 0.0]])
    verdict = is_derivation(sp, M)
    assert verdict.status == "Refuted"
    assert verdict.witness is not None


def test_lie_closure():
    for sp in (ConeSpace.orthant(3), ConeSpace.psd_real(2),
               ConeSpace.lorentz(3), ConeSpace.hermitian(2)):
        assert lie_closure_residual(derivation_basis(sp)) < 1e-9


def test_orthant_algebra_is_abelian():
    basis = derivation_basis(ConeSpace.orthant(3))
    assert len(lie_center(basis)) == len(basis)


def test_orientability_table():
    assert orientability(ConeSpace.orthant(3)).status == "Orientable"
    assert orientability(ConeSpace.hermitian(2)).status == "Orientable"
    v = orientability(ConeSpace.psd_real(2))
    assert v.status == "NotOrientable"
    assert "odd" in v.detail
    assert orientability(ConeSpace.lorentz(3)).status == "NotOrientable"


def test_hermitian_orientability_witness_squares_to_minus_one():
    v = orientability(ConeSpace.hermitian(2))
    J = v.witness
    assert J is not None
    assert np.linalg.norm(J @ J + np.eye(J.shape[0])) < 1e-7


def test_spectral_faces_orthant():
    sp = ConeSpace.orthant(3)
    fam = spectral_faces(sp, np.diag([1.0, 2.0, 2.0]))
    lams = [lam for lam, _ in fam]
    dims = [F.dim for _, F in fam]
    assert np.allclose(lams, [1.0, 2.0])
    assert dims == [1, 2]


def test_spectral_faces_psd_zero_face_case():
    # L = diag(0, 1) has operator eigenvalues 0, 1, 2; the middle
    # eigenspace (off-diagonal matrices) meets the cone only at zero
    sp = ConeSpace.psd_real(2)
    L = np.diag([0.0, 1.0])
    basis = selfadjoint_derivations(sp)
    u = sp.canonical_unit()
    target = sym_to_vec(2.0 * L)
    A = np.array([b.mat @ u for b in basis]).T
    coef = np.linalg.lstsq(A, target, rcond=None)[0]
    M = sum(c * b.mat for c, b in zip(coef, basis))
    fam = spectral_faces(sp, M)
    entries = [(round(lam, 9), F.dim) for lam, F in fam]
    assert entries == [(0.0, 1), (1.0, 0), (2.0, 1)]
    rec = reconstruct_from_faces(sp, fam)
    assert np.linalg.norm(rec.mat - M) < 1e-9


def test_spectral_faces_lorentz():
    sp = ConeSpace.lorentz(3)
    d = _random_selfadjoint(sp, np.random.default_rng(8))
    fam = spectral_faces(sp, d)
    lams = [lam for lam, _ in fam]
    assert len(fam) == 3
    assert np.isclose(lams[1], (lams[0] + lams[2]) / 2.0)
    dims = [F.dim for _, F in fam]
    assert dims == [1, 0, 1]


def test_multiple_of_identity_has_whole_face():
    sp = ConeSpace.lorentz(3)
    fam = spectral_faces(sp, 1.5 * np.eye(3))
    assert len(fam) == 1
    lam, F = fam.entries[0]
    assert np.isclose(lam, 1.5)
    assert F.same_as(whole_face(sp))


def test_reconstruction_roundtrip():
    rng = np.random.default_rng(21)
    for sp in (ConeSpace.orthant(3), ConeSpace.lorentz(3),
               ConeSpace.psd_real(2), ConeSpace.hermitian(2),
               # the benchmark's largest sizes
               ConeSpace.orthant(24), ConeSpace.lorentz(24), ConeSpace.psd_real(5),
               ConeSpace.hermitian(5), _rotated_orthant(6, 3)):
        for _ in range(25):
            d = _random_selfadjoint(sp, rng)
            rec = reconstruct_from_faces(sp, spectral_faces(sp, d))
            assert np.linalg.norm(rec.mat - d.mat) < 1e-9 * max(1.0, d.norm())


def test_family_requires_increasing_eigenvalues():
    sp = ConeSpace.orthant(2)
    F = whole_face(sp)
    with pytest.raises(ValueError):
        SpectralFaceFamily(sp, [(2.0, F), (1.0, F)])


def test_spectral_faces_rejects_nonsymmetric():
    sp = ConeSpace.orthant(2)
    with pytest.raises(ValueError):
        spectral_faces(sp, np.array([[1.0, 1.0], [0.0, 2.0]]))


def test_exponentials_preserve_cone():
    from scipy.linalg import expm

    rng = np.random.default_rng(31)
    for sp in (ConeSpace.orthant(3), ConeSpace.psd_real(2), ConeSpace.lorentz(3)):
        d = _random_selfadjoint(sp, rng)
        for t in (-2.0, -0.5, 0.5, 2.0):
            E = expm(t * d.mat)
            for _ in range(10):
                x = sp.sample_cone_point(rng)
                assert sp.margin(E @ x) >= -1e-7 * max(np.linalg.norm(E @ x), 1e-12)


def test_commutative_orientability_at_size():
    # full-matrix SVDs of the tall Lie systems would need gigabytes at this size
    v = orientability(ConeSpace.orthant(24))
    assert v.status == "Orientable"
    assert "quotient dimension 0" in v.detail


@pytest.mark.parametrize("sp", [_rotated_orthant(n, seed) for n in (4, 5, 6) for seed in (1, 2)]
                         + [_ngon_cone(n) for n in (3, 5, 7)], ids=repr)
def test_polyhedral_commutative_der_is_orientable(sp):
    # Der is commutative: nothing is left after quotienting the centre
    assert lie_closure_residual(derivation_basis(sp)) < 1e-9
    assert orientability(sp).status == "Orientable"


def _legacy_units(kind, k):
    """Matrix units S in the order selfadjoint_derivations has always used."""
    def unit(i, j, val):
        S = np.zeros((k, k), dtype=complex)
        S[i, j], S[j, i] = val, np.conj(val)
        return S
    if kind == "psd_real":
        return [unit(i, j, 1.0).real for i in range(k) for j in range(i, k)]
    return ([unit(i, i, 1.0) for i in range(k)]
            + [unit(i, j, v) for i in range(k) for j in range(i + 1, k) for v in (1.0, 1.0j)])


@pytest.mark.parametrize("kind,k", [("psd_real", k) for k in (1, 2, 3, 5)]
                         + [("hermitian", k) for k in (1, 2, 3, 5)])
def test_selfadjoint_basis_is_pinned_for_matrix_kinds(kind, k):
    # X -> S X + X S over the matrix units, column by column through vec
    sp = getattr(ConeSpace, kind)(k)
    unvec, tovec = (vec_to_sym, sym_to_vec) if kind == "psd_real" else (vec_to_herm, herm_to_vec)
    got = [b.mat for b in selfadjoint_derivations(sp)]
    units = _legacy_units(kind, k)
    assert len(got) == len(units)
    for S, M in zip(units, got):
        want = np.column_stack([tovec(S @ unvec(e) + unvec(e) @ S) for e in np.eye(sp.dim)])
        assert np.max(np.abs(M - want)) < 1e-12


@pytest.mark.parametrize("n", [2, 3, 8, 24])
def test_selfadjoint_basis_is_pinned_for_orthant_and_lorentz(n):
    got = np.array([b.mat for b in selfadjoint_derivations(ConeSpace.orthant(n))])
    assert np.array_equal(got, np.array([np.diag(e) for e in np.eye(n)]))
    boosts = [np.eye(n)]
    for i in range(1, n):
        M = np.zeros((n, n))
        M[0, i] = M[i, 0] = 1.0
        boosts.append(M)
    got = np.array([b.mat for b in selfadjoint_derivations(ConeSpace.lorentz(n))])
    assert np.array_equal(got, np.array(boosts))
