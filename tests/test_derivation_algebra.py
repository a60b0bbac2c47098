import functools
import gc
import itertools
import json
import math
import os
import subprocess
import sys
import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

import eudoxus
from eudoxus import cone_space, derivation_algebra, ratio_calculus
from eudoxus.cone_space import (
    TOL,
    ConeSpace,
    Membership,
    _rank_split,
    sym_to_vec,
    vec_to_herm,
    vec_to_sym,
)
from eudoxus.derivation_algebra import (
    DEFAULT_T_GRID,
    EIG_FLOOR,
    Derivation,
    NotSelfAdjointDerivation,
    SpectralFaceFamily,
    _centroid,
    _complex_structure,
    _der_verdict,
    _derivation_residuals,
    _asymmetric,
    _structure_table,
    derivation_basis,
    is_derivation,
    orientability,
    reconstruct_from_faces,
    selfadjoint_derivations,
    spectral_faces,
    tangency_dimension_oracle,
)
from eudoxus.face_lattice import Face, face_of, facial_derivative, minimal_decomposition
import references
from references import (
    eigvalsh_spectral_faces,
    frame_split_from_derivation,
    herm_to_vec,
    lattice_by_kind,
    loop_clusters,
    ngon_cone,
    rotated_orthant,
    support_rule_derivation,
)
from test_face_lattice import _tilted_orthant


# references for _structure_table and orientability's centre: the Lie
# closure residual and the centre of any basis, over an orthonormal frame
# of its span
def _span_frame(basis):
    mats = np.array([b.mat for b in basis])
    return mats, scipy.linalg.orth(mats.reshape(len(mats), -1).T).T


def lie_closure_residual(basis):
    """Largest distance of a commutator of two basis elements from the
    span of the basis: zero when the span is a Lie algebra."""
    mats, Q = _span_frame(basis)
    return _structure_table(mats, mats, Q)[1]


def all_maps_centre_split(mats, Q):
    """Reference: the centre of span(mats) and its orthonormal complement
    K, as combinations of mats, by one thin SVD of the whole (n r x n)
    structure table _structure_table(mats, mats, Q), the brackets of every
    pair of basis elements: the centre of any Lie algebra, reductive or
    not; returns (centre, K, table).  A span not closed under commutator
    raises ValueError."""
    ads, res = _structure_table(mats, mats, Q)
    if res > 1e-9:
        raise ValueError("basis not closed under commutator (residual %.3g)" % res)
    K, centre = _rank_split(ads.reshape(-1, len(mats)))
    return centre, K, ads


def lie_center(basis):
    """Elements of span(basis) commuting with the whole basis, read from
    the brackets over an orthonormal basis of the span
    (all_maps_centre_split)."""
    mats, Q = _span_frame(basis)
    return [Derivation(basis[0].host, np.tensordot(c, mats, axes=1))
            for c in all_maps_centre_split(mats, Q)[0]]


# two faces are the same when their projectors differ by at most this (Frobenius)
SAME_FACE_TOL = 1e-8


def same_face(F, G):
    return np.linalg.norm(F.projector - G.projector) <= SAME_FACE_TOL


def family_of(space, entries):
    """A SpectralFaceFamily from (eigenvalue, Face) pairs, through its stacks."""
    d = space.dim
    return SpectralFaceFamily(space, np.array([lam for lam, _ in entries], dtype=float),
                              np.array([F.projector for _, F in entries]).reshape(-1, d, d),
                              np.array([F.witness for _, F in entries]).reshape(-1, d))


def _random_selfadjoint(space, rng):
    basis = selfadjoint_derivations(space)
    coef = rng.standard_normal(len(basis))
    return Derivation(space, sum(c * b.mat for c, b in zip(coef, basis)))


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
            assert is_derivation(sp, b.mat)
        d = _random_selfadjoint(sp, rng)
        assert is_derivation(sp, d.mat)


def test_non_derivation_is_refuted_with_witness():
    sp = ConeSpace.orthant(2)
    M = np.array([[0.0, 1.0], [0.0, 0.0]])
    verdict = is_derivation(sp, M)
    assert verdict.status == "Refuted"
    assert verdict.witness is not None


@pytest.mark.parametrize("sp, M, status", [
    (ConeSpace.orthant(2), np.array([[0.0, 1e155], [0.0, 0.0]]), "Refuted"),
    (ConeSpace.lorentz(3), np.diag([1e155, 0.0, 0.0]), "Refuted"),
    (ConeSpace.orthant(2), np.diag([1e155, 2e155]), "Verified"),
    (ConeSpace.lorentz(3), 1e155 * np.eye(3), "Verified"),
], ids=["orthant-shear", "lorentz-diag", "orthant-diag", "lorentz-scaling"])
def test_the_decision_holds_where_squared_entries_overflow(sp, M, status):
    # entries above about 1.3e154 have squares past the float range: the
    # decision is the one at 1e150, and the residual is finite
    assert _der_verdict(sp, M)[1].status == status
    assert _der_verdict(sp, M * 1e-5)[1].status == status
    assert np.isfinite(_derivation_residuals(sp, M[None])[0]).all()


@given(seed=st.integers(0, 2**16), scale=st.sampled_from([1e-100, 1e-6, 1.0, 1e6, 1e100]),
       off=st.sampled_from([0.0, 1e-12, 1e-10, 1e-9, 1e-8, 1.0]))
@settings(max_examples=150)
def test_the_selfadjointness_test_is_the_raw_rule_where_its_norms_are_finite(seed, scale, off):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((4, 4))
    M = scale * (A + A.T + off * (A - A.T))
    raw = np.linalg.norm(M - M.T) > 1e-9 * max(1.0, np.linalg.norm(M))
    assert _asymmetric(M) == raw
    assert Derivation(ConeSpace.orthant(4), M).selfadjoint == (not raw)


def test_a_rotation_is_not_selfadjoint_where_its_squares_overflow():
    # the raw squares of a 1e155 rotation overflow, and inf > 1e-9 inf is
    # false: the rotation passed as self-adjoint
    sp = ConeSpace.lorentz(3)
    for scale in (1e150, 1e155, 1e300):
        M = scale * np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, -1.0, 0.0]])
        assert _der_verdict(sp, M)[1]
        assert _asymmetric(M) and not Derivation(sp, M).selfadjoint
        for op in (M, Derivation(sp, M)):
            with pytest.raises(NotSelfAdjointDerivation,
                               match="spectral faces need a self-adjoint derivation"):
                spectral_faces(sp, op)


def test_a_refuted_derivation_searches_its_witness_when_read(monkeypatch):
    sp = ConeSpace.orthant(2)
    M = np.array([[0.0, 1.0], [0.0, 0.0]])  # a shear
    calls, search = [], derivation_algebra._expel_witness

    def counting(space, M):
        calls.append(1)
        return search(space, M)
    monkeypatch.setattr(derivation_algebra, "_expel_witness", counting)
    verdict = is_derivation(sp, M)
    assert verdict.status == "Refuted" and calls == []
    t, x = verdict.witness
    assert calls == [1]
    # the eager search's witness, read once
    want_t, want_x = search(sp, M)
    assert t == want_t and np.array_equal(x, want_x)
    assert verdict.witness[0] == t and calls == [1]


def test_only_a_witness_search_creates_a_generator(monkeypatch):
    sp = ConeSpace.orthant(2)
    M = np.array([[0.0, 1.0], [0.0, 0.0]])
    expected = is_derivation(sp, M).witness
    made = []
    default_rng = np.random.default_rng

    def counting(*args, **kwargs):
        made.append(args)
        return default_rng(*args, **kwargs)
    monkeypatch.setattr(np.random, "default_rng", counting)
    assert is_derivation(sp, np.diag([1.0, 2.0]))
    assert made == []
    # a refuted call draws its witness from the same default generator
    t, x = is_derivation(sp, M).witness
    assert made == [(3,)]
    assert t == expected[0] and np.array_equal(x, expected[1])


def test_lie_closure():
    for sp in (ConeSpace.orthant(3), ConeSpace.psd_real(2),
               ConeSpace.lorentz(3), ConeSpace.hermitian(2)):
        assert lie_closure_residual(derivation_basis(sp)) < 1e-9


def test_orthant_algebra_is_abelian():
    basis = derivation_basis(ConeSpace.orthant(3))
    assert len(lie_center(basis)) == len(basis)


def _units(sp, *pairs):
    """The matrix units E_ij (1-based) as Derivations of sp."""
    units = []
    for i, j in pairs:
        E = np.zeros((sp.dim, sp.dim))
        E[i - 1, j - 1] = 1.0
        units.append(Derivation(sp, E))
    return units


def test_common_centraliser_is_not_the_centre_of_the_heisenberg_algebra():
    # h_5: [E12, E24] = [E13, E34] = E14, all other brackets 0.  It is not
    # reductive, and the common centraliser of orientability's two generic
    # elements has dimension 3 where the centre, span{E14}, has dimension 1:
    # reading the centre off x and y needs the reductive Der of a cone
    basis = _units(ConeSpace.orthant(4), (1, 2), (1, 3), (2, 4), (3, 4), (1, 4))
    mats = np.array([b.mat for b in basis])
    xy = np.random.default_rng(13).standard_normal((2, 5))
    ads = _structure_table(np.tensordot(xy, mats, axes=1), mats, mats.reshape(5, -1))[0]
    assert len(_rank_split(ads.reshape(-1, 5))[1]) == 3
    (c,) = lie_center(basis)
    E14 = basis[-1].mat
    assert np.linalg.norm(c.mat - np.sum(c.mat * E14) * E14) < 1e-12 * np.linalg.norm(c.mat)


def test_a_frame_not_closed_under_commutator_raises(monkeypatch):
    # [E12, E23] = E13 lies outside span{E12, E23}
    units = _units(ConeSpace.orthant(3), (1, 2), (2, 3))
    with pytest.raises(ValueError, match="not closed under commutator"):
        lie_center(units)
    # the shared orthant(3) gets its own frame back after the test
    sp = ConeSpace.orthant(3)
    monkeypatch.setattr(sp, "_der_frame", np.array([u.mat.reshape(-1) for u in units]))
    with pytest.raises(ValueError, match="not closed under commutator"):
        orientability(sp)


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


def assert_the_nonzero_faces_of_the_eigvalsh_reference(sp, delta, family):
    """family holds the nonzero faces of eigvalsh_spectral_faces(sp, delta),
    in order: projectors and witnesses to 1e-12, and each lam within the
    round-off band EIG_FLOOR dim max|mu| of the mean of its cluster of
    operator eigenvalues, in which _cluster counts two values as one (lam
    is the mean of other values, the spectral values of delta e or the ray
    quotients, each computed with its own round-off)."""
    want = [(mu, F) for mu, F, _ in eigvalsh_spectral_faces(sp, delta) if F.dim > 0]
    assert len(family) == len(want)
    band = EIG_FLOOR * sp.dim * np.abs(np.linalg.eigvalsh(delta)).max()
    for lam, P, w, (mu, F) in zip(family.lams, family.projectors, family.witnesses, want):
        assert abs(lam - mu) <= band
        assert np.linalg.norm(P - F.projector) <= 1e-12
        assert np.linalg.norm(w - F.witness) <= 1e-12
    assert [F.dim for _, F in family] == [F.dim for _, F in want]


# one cone of each kind
FIVE_KINDS = [ConeSpace.orthant(3), ConeSpace.lorentz(3), ConeSpace.psd_real(2),
              ConeSpace.hermitian(2), rotated_orthant(3, 1)]


def _compression(sp):
    """(2 delta_F, c) for F the face of the last piece c of the unit's
    minimal decomposition: 2 L(c) on a Jordan kind, 2 L(diag(0, 1)) on
    psd_real(2).  Its spectral values are 0 and 2; its operator eigenvalue
    1, the Peirce mean, is none, and cuts out only the zero face, on the
    kinds whose Peirce 1/2-space is not zero (not a lattice)."""
    coeff, comp = minimal_decomposition(sp, sp.canonical_unit())[-1]
    c = coeff * comp
    return 2.0 * facial_derivative(face_of(sp, c)).mat, c


@pytest.mark.parametrize("sp", FIVE_KINDS, ids=repr)
def test_spectral_faces_psd_zero_face_case(sp):
    # the eigvalsh reference had the zero face of the Peirce mean 1, which
    # the spectral values of delta e never name
    M, c = _compression(sp)
    fam = spectral_faces(sp, M)
    assert_the_nonzero_faces_of_the_eigvalsh_reference(sp, M, fam)
    entries = [(round(lam, 9), F.dim) for lam, F in fam]
    assert entries == [(0.0, face_of(sp, sp.canonical_unit() - c).dim), (2.0, 1)]
    zero = [(round(mu, 9), F.dim) for mu, F, _ in eigvalsh_spectral_faces(sp, M) if F.dim == 0]
    assert zero == ([] if lattice_by_kind(sp) else [(1.0, 0)])
    rec = reconstruct_from_faces(sp, fam)
    assert np.linalg.norm(rec.mat - M) < 1e-9


@pytest.mark.parametrize("sp", FIVE_KINDS, ids=repr)
def test_spectral_faces_lorentz(sp):
    # a generic self-adjoint derivation has one face of dim 1 per piece of
    # the unit; on lorentz(3) the eigvalsh reference also had the zero face
    # of the Peirce mean of the two spectral values
    d = _random_selfadjoint(sp, np.random.default_rng(8))
    fam = spectral_faces(sp, d)
    assert_the_nonzero_faces_of_the_eigvalsh_reference(sp, d, fam)
    assert [F.dim for _, F in fam] == [1] * len(minimal_decomposition(sp, sp.canonical_unit()))
    if sp.kind == "lorentz":
        want = eigvalsh_spectral_faces(sp, d)
        assert [F.dim for _, F, _ in want] == [1, 0, 1]
        assert np.isclose(want[1][0], fam.lams.mean())


def test_multiple_of_identity_has_whole_face():
    sp = ConeSpace.lorentz(3)
    fam = spectral_faces(sp, 1.5 * np.eye(3))
    assert len(fam) == 1
    lam, F = fam.entries[0]
    assert np.isclose(lam, 1.5)
    assert same_face(F, Face(sp, np.eye(sp.dim), sp.canonical_unit()))


def test_reconstruction_roundtrip():
    rng = np.random.default_rng(21)
    for sp in (ConeSpace.orthant(3), ConeSpace.lorentz(3),
               ConeSpace.psd_real(2), ConeSpace.hermitian(2),
               # the benchmark's largest sizes
               ConeSpace.orthant(24), ConeSpace.lorentz(24), ConeSpace.psd_real(5),
               ConeSpace.hermitian(5), rotated_orthant(6, 3)):
        for _ in range(25):
            d = _random_selfadjoint(sp, rng)
            rec = reconstruct_from_faces(sp, spectral_faces(sp, d))
            assert np.linalg.norm(rec.mat - d.mat) < 1e-9 * max(1.0, d.norm())


def loop_reconstruct_from_faces(space, family):
    """Reference: the telescoped reconstruction one face at a time, the
    form of the facial spectral theorem over the increasing faces.  The
    facial derivative of face_of of each cumulative witness, a witness of
    norm at most TOL giving 0, summed by increments
    lam_k (delta_k - delta_(k-1))."""
    entries = list(family)
    if not entries:
        return Derivation(space, np.zeros((space.dim, space.dim)))
    acc = np.zeros(space.dim)
    mat = np.zeros((space.dim, space.dim))
    prev = None  # facial derivative of the previous cumulative face
    for lam, F in entries:
        acc = acc + F.witness
        if np.linalg.norm(acc) <= 1e-9:
            cur = np.zeros((space.dim, space.dim))
        else:
            cur = facial_derivative(face_of(space, acc)).mat
        if prev is None:
            mat = mat + lam * cur
        else:
            mat = mat + lam * (cur - prev)
        prev = cur
    return Derivation(space, mat)


# all five kinds up to the largest sizes the benchmark sweeps
SPECTRAL_CONES = ([ConeSpace.orthant(n) for n in (1, 3, 8, 24)]
                  + [ConeSpace.lorentz(n) for n in (2, 3, 8, 24)]
                  + [ConeSpace.psd_real(k) for k in (1, 2, 3, 5)]
                  + [ConeSpace.hermitian(k) for k in (1, 2, 3, 5)]
                  + [rotated_orthant(n, seed) for n in (3, 6) for seed in (1, 2)]
                  + [ngon_cone(n) for n in (3, 5, 13)])


def _spectrum_case(sp, seed, spectrum):
    """A self-adjoint derivation with a generic spectrum, a repeated one
    (integer coefficients), a multiple of I, or zero."""
    rng = np.random.default_rng(seed)
    basis = selfadjoint_derivations(sp)
    if spectrum == "zero":
        return np.zeros((sp.dim, sp.dim))
    if spectrum == "identity":
        return float(rng.integers(-2, 3)) * np.eye(sp.dim)
    n = len(basis)
    coef = rng.integers(-2, 3, n) if spectrum == "repeated" else rng.standard_normal(n)
    return sum(c * b.mat for c, b in zip(coef, basis))


@given(sp=st.sampled_from(SPECTRAL_CONES), seed=st.integers(0, 2**16),
       spectrum=st.sampled_from(["generic", "repeated", "identity"]))
@settings(max_examples=150)
def test_operators_from_the_kept_units_match_the_support_rule(sp, seed, spectrum):
    # the ratios of every building path and the family of spectral_faces
    # keep the units of their faces; the reference decomposes each piece
    delta = _spectrum_case(sp, seed, spectrum)
    family = spectral_faces(sp, delta)
    u = sp.canonical_unit()
    a = family.projectors.sum(axis=0) @ sp.sample_interior_point(np.random.default_rng(seed))
    r = ratio_calculus.from_derivation(sp, delta, max_den=64)
    twice = ratio_calculus.from_derivation(sp, 2.0 * np.eye(sp.dim), max_den=64)
    built = [r, ratio_calculus.ratio_from_pair(sp, delta @ u, u, max_den=64),
             ratio_calculus.ratio_from_pair(sp, delta @ a, a, max_den=64),
             ratio_calculus.compose(r, twice, max_den=64), ratio_calculus.add(r, twice, max_den=64)]
    cases = [(ratio_calculus.to_derivation(q).mat, q.lambdas(), [c for _, c in q.pieces])
             for q in built]
    cases.append((reconstruct_from_faces(sp, family).mat, family.lams, family.witnesses))
    for got, lams, pieces in cases:
        want = support_rule_derivation(sp, lams, pieces)
        assert np.linalg.norm(got - want) <= 1e-12 * max(1.0, np.linalg.norm(want))


@given(sp=st.sampled_from(SPECTRAL_CONES), seed=st.integers(0, 2**16),
       spectrum=st.sampled_from(["generic", "repeated", "identity"]),
       partner=st.sampled_from(["itself", "affine", "near", "shifted"]))
@settings(max_examples=200)
def test_ratio_equal_without_max_den_is_the_operator_norm_rule(sp, seed, spectrum, partner):
    # ||L(x)||_2 = max |lam(x)| on a Jordan kind, and a polyhedral cone's
    # extreme rays are eigenvectors of both operators, so max |lam_j - mu_j|
    # over the frame pairs is ||delta_r - delta_s||_2; near and shifted
    # straddle the band with eps from 1e-13 to 1e-5, and a gap within
    # round-off (1e-6 of the band) of it is decided by round-off
    delta = _spectrum_case(sp, seed, spectrum)
    rng = np.random.default_rng(seed + 1)
    eps = 10.0 ** -rng.integers(5, 14)
    other = {"itself": delta,
             "affine": rng.uniform(-2, 2) * np.eye(sp.dim) + rng.uniform(0.5, 2) * delta,
             "near": (1.0 + eps) * delta,
             "shifted": delta + eps * np.eye(sp.dim)}[partner]
    r, s = (ratio_calculus.from_derivation(sp, d, max_den=64) for d in (delta, other))
    for x, y in ((r, r), (r, s), (s, r)):
        gap, band = references.operator_norm_ratio_equal(x, y)
        if abs(gap - band) > 1e-6 * band:
            assert ratio_calculus.ratio_equal(x, y) is bool(gap <= band)


@given(sp=st.sampled_from(SPECTRAL_CONES), seed=st.integers(0, 2**16),
       spectrum=st.sampled_from(["generic", "repeated", "identity"]))
@settings(max_examples=150)
def test_stacked_reconstruction_matches_the_loop_reference(sp, seed, spectrum):
    delta = _spectrum_case(sp, seed, spectrum)
    family = spectral_faces(sp, delta)
    got = reconstruct_from_faces(sp, family).mat
    want = loop_reconstruct_from_faces(sp, family).mat
    assert np.linalg.norm(got - want) <= 1e-12 * max(1.0, np.linalg.norm(delta))


@given(sp=st.sampled_from(SPECTRAL_CONES), seed=st.integers(0, 2**16),
       spectrum=st.sampled_from(["generic", "repeated"]))
@settings(max_examples=100)
def test_reconstruction_matches_the_loop_on_witnesses_other_than_the_units(sp, seed, spectrum):
    # the witnesses P_k x of an interior x lie in the relative interiors of
    # their faces, and are not the faces' units (the idempotents c_k)
    delta = _spectrum_case(sp, seed, spectrum)
    family = spectral_faces(sp, delta)
    x = sp.sample_interior_point(np.random.default_rng(seed))
    family = SpectralFaceFamily(sp, family.lams, family.projectors, family.projectors @ x)
    got = reconstruct_from_faces(sp, family).mat
    want = loop_reconstruct_from_faces(sp, family).mat
    assert np.linalg.norm(got - want) <= 1e-12 * max(1.0, np.linalg.norm(delta))
    assert np.linalg.norm(got - delta) <= 1e-9 * max(1.0, np.linalg.norm(delta))


@pytest.mark.parametrize("sp", [ConeSpace.orthant(3), ConeSpace.lorentz(3), ConeSpace.psd_real(2),
                                ConeSpace.hermitian(2), rotated_orthant(3, 1), ngon_cone(5)],
                         ids=repr)
def test_the_empty_family_reconstructs_zero(sp):
    d = sp.dim
    family = SpectralFaceFamily(sp, np.zeros(0), np.zeros((0, d, d)), np.zeros((0, d)))
    got = reconstruct_from_faces(sp, family).mat
    assert np.array_equal(got, loop_reconstruct_from_faces(sp, family).mat)
    assert np.array_equal(got, np.zeros((d, d)))


@pytest.mark.parametrize("sp", FIVE_KINDS, ids=repr)
def test_stacked_reconstruction_matches_the_loop_on_the_psd_zero_face_case(sp):
    # 2 L(c): the eigvalsh reference's middle face, of the Peirce mean 1, is
    # zero on the kinds that are not lattices, and the family leaves it out
    delta, _ = _compression(sp)
    family = spectral_faces(sp, delta)
    assert_the_nonzero_faces_of_the_eigvalsh_reference(sp, delta, family)
    assert len(family) == 2
    got = reconstruct_from_faces(sp, family).mat
    assert np.linalg.norm(got - loop_reconstruct_from_faces(sp, family).mat) <= 1e-12
    assert np.linalg.norm(got - delta) <= 1e-12


@pytest.mark.parametrize("sp", [ConeSpace.orthant(3), ConeSpace.lorentz(3), ConeSpace.psd_real(2),
                                ConeSpace.hermitian(2), rotated_orthant(3, 1), ngon_cone(5)],
                         ids=repr)
def test_a_point_outside_the_cone_raises_on_every_face_path(sp):
    # r an extreme ray (a unit ray, or a frame element of the unit); with
    # witnesses -r the cumulative witnesses -r and -2r lie outside the cone:
    # face_of raised on them one face at a time, the stacked hooks raise too
    r = (sp._rays[:, 0] if sp.kind == "polyhedral"
         else minimal_decomposition(sp, sp.canonical_unit())[0][1])
    P = face_of(sp, r).projector
    family = family_of(sp, [(1.0, Face(sp, P, -r)), (2.0, Face(sp, P, -r))])
    with pytest.raises(ValueError, match="point is outside the cone"):
        loop_reconstruct_from_faces(sp, family)
    with pytest.raises(ValueError, match="point is outside the cone"):
        reconstruct_from_faces(sp, family)
    with pytest.raises(ValueError, match="point is outside the cone"):
        face_of(sp, -2.0 * r)
    with pytest.raises(ValueError, match="point is outside the cone"):
        ratio_calculus.to_derivation(ratio_calculus.Ratio(
            sp, r, r, [(1.0, sp.canonical_unit()), (2.0, -2.0 * r)], 10**6))


def test_family_rejects_witnesses_outside_their_faces():
    # the witnesses swapped between the two faces: the projectors describe
    # diag(1, 2), the cumulative witnesses would reconstruct diag(2, 1)
    sp = ConeSpace.orthant(2)
    e0, e1 = np.eye(2)
    with pytest.raises(ValueError, match="witness does not lie in its face"):
        family_of(sp, [(1.0, Face(sp, np.diag([1.0, 0.0]), e1)),
                       (2.0, Face(sp, np.diag([0.0, 1.0]), e0))])
    # a witness off its face by less than the face band is kept
    family = family_of(sp, [(1.0, Face(sp, np.diag([1.0, 0.0]), e0 + 0.5e-9 * e1)),
                            (2.0, Face(sp, np.diag([0.0, 1.0]), e1))])
    assert np.linalg.norm(reconstruct_from_faces(sp, family).mat - np.diag([1.0, 2.0])) <= 1e-8


def loop_cluster(values):
    return [float(np.mean(g)) for g in loop_clusters(values)]


def _within_an_ulp_of_the_means(lams, groups):
    """Each lam is within an ulp of the exact mean of its group (fsum);
    np.mean's running sum, which loop_cluster keeps, is up to 4 ulps off
    it over 3 to 24 nearly equal values."""
    means = [math.fsum(g) / len(g) for g in groups]
    return len(lams) == len(means) and all(
        abs(lam - m) <= np.spacing(abs(m)) for lam, m in zip(lams, means))


def loop_minimal_decomposition(space, a):
    """Reference: a membership test, then the kind's frame terms."""
    if space.membership(a) is Membership.OUTSIDE:
        raise ValueError("point is outside the cone")
    return space._frame_terms(a[None])[0]


def loop_ratio_from_family(space, delta, family, a, max_den):
    """Reference: _ratio_from_family one nonzero Face at a time."""
    pieces = []
    recovered = np.zeros(space.dim)
    for lam, F in family:
        aF = F.projector @ a
        recovered = recovered + aF
        for coeff, comp in loop_minimal_decomposition(space, aF):
            pieces.append((float(lam), coeff * comp))
    if np.linalg.norm(recovered - a) > 1e-7 * max(1.0, np.linalg.norm(a)):
        raise ratio_calculus.NotComparable("consequent does not decompose along the "
                                           "antecedent's spectral faces")
    return ratio_calculus.Ratio(space, delta.mat @ a, a, pieces, max_den)


SPECTRA = st.sampled_from(["generic", "repeated", "identity", "zero"])


@given(sp=st.sampled_from(SPECTRAL_CONES), seed=st.integers(0, 2**16), spectrum=SPECTRA)
@settings(max_examples=150)
def test_stacked_spectral_faces_match_the_loop_reference(sp, seed, spectrum):
    delta = _spectrum_case(sp, seed, spectrum)
    family = spectral_faces(sp, delta)
    assert_the_nonzero_faces_of_the_eigvalsh_reference(sp, delta, family)
    # each lam is within an ulp of the exact mean of its run of the values
    # the kind clusters (the spectral values of delta e, or the ray quotients)
    values = []
    sp._eigenfaces(delta, lambda v: values.append(v) or derivation_algebra._cluster(v))
    assert _within_an_ulp_of_the_means(family.lams, loop_clusters(values[0]))


def test_clusters_chain_and_average_as_in_the_loop_reference():
    # 1, 1 + 0.6e-8, 1 + 1.2e-8 chain into one cluster though its ends are
    # 1.2e-8 apart; 0 and 1e-14 share the band EIG_FLOOR n max|v| = 7.5e-14
    values = [3.0, 1.0 + 1.2e-8, 1.0, 1.0 + 0.6e-8, 0.0, 1e-14, -2.0]
    groups = loop_clusters(values)
    assert [len(g) for g in groups] == [1, 2, 3, 1]
    assert _within_an_ulp_of_the_means(derivation_algebra._cluster(values)[0], groups)
    # n copies of 0.1: the running sum gives 0.1 + 1 ulp at n = 3
    assert derivation_algebra._cluster([0.1] * 3)[0].tolist() == [0.1]
    assert loop_cluster([0.1] * 3) == [0.1 + np.spacing(0.1)]


def test_cluster_cuts_split_the_gaps_between_runs():
    # 1 + (0, 0.9, 1.8, 2.7) 1e-8 chain into one run with mean 1 + 1.35e-8,
    # which the midpoint of the means, 1 + 2.575e-8, would cut in two
    values = 1.0 + np.array([0.0, 0.9, 1.8, 2.7, 3.8]) * 1e-8
    means, cuts = derivation_algebra._cluster(values)
    assert len(means) == 2 and (means[0] + means[1]) / 2.0 < values[3]
    assert cuts.tolist() == [(values[3] + values[4]) / 2.0]
    assert np.searchsorted(cuts, values).tolist() == [0, 0, 0, 0, 1]
    # the band is relative to max|v|: the same runs at every scale
    for scale in (1e-12, 1e-6, 1e6, 1e12):
        assert np.searchsorted(derivation_algebra._cluster(scale * values)[1],
                               scale * values).tolist() == [0, 0, 0, 0, 1]
    # an all-zero spectrum is one run
    assert [len(c) for c in derivation_algebra._cluster(np.zeros(4))] == [1, 0]


def _rotation(theta):
    return np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])


# operators whose distinct eigenvalues a band of 1e-8, absolute or relative
# to the spectral radius, merged at some scale (1e-9 and 1.001e-9, or 1
# and 1.005 beside 1e6), and polyhedral ones whose faces an absolute
# eigenvector test lost at 1e9
SCALED_OPERATORS = [
    (ConeSpace.orthant(2), np.diag([1.0, 1.001])),
    (ConeSpace.orthant(3), np.diag([1.0, 1.005, 1e6])),
    (ConeSpace.orthant(3), np.diag([1.0, 2.0, 1e9])),
    (ConeSpace.polyhedral([np.array([3.0, 1.0]), np.array([-1.0, 3.0])]),
     np.array([[1.1, -0.3], [-0.3, 1.9]])),
    (ConeSpace.polyhedral(list(_rotation(0.3).T)),
     _rotation(0.3) @ np.diag([1.0, 2.0]) @ _rotation(0.3).T),
]


def _at_both_ends(test):
    for sp, M in SCALED_OPERATORS:
        for scale in (1e-9, 1e9):
            test = example(sp=sp, seed=0, spectrum=M, scale=scale)(test)
    return test


@given(sp=st.sampled_from(SPECTRAL_CONES), seed=st.integers(0, 2**16), spectrum=SPECTRA,
       scale=st.sampled_from([1e-9, 1e-6, 1e6, 1e9]))
@_at_both_ends
@settings(max_examples=150)
def test_spectral_faces_are_scale_invariant(sp, seed, spectrum, scale):
    fixed = isinstance(spectrum, np.ndarray)
    delta = spectrum if fixed else _spectrum_case(sp, seed, spectrum)
    unit, scaled = spectral_faces(sp, delta), spectral_faces(sp, scale * delta)
    assert [F.dim for _, F in scaled] == [F.dim for _, F in unit]
    radius = np.abs(unit.lams).max()
    if fixed:
        # every eigenvalue of SCALED_OPERATORS is its own face of dim 1
        assert [F.dim for _, F in unit] == [1] * len(delta)
        assert np.all(np.abs(unit.lams - np.linalg.eigvalsh(delta)) <= 1e-12 * radius)
    assert np.all(np.abs(scaled.lams - scale * unit.lams) <= 1e-12 * scale * radius)
    back = reconstruct_from_faces(sp, scaled).mat
    assert np.linalg.norm(back - scale * delta) <= 1e-9 * scale * np.linalg.norm(delta)


def _outcome(run):
    """(error type, message, None) if run raises a ValueError, else
    (None, None, result)."""
    try:
        return None, None, run()
    except ValueError as exc:
        return type(exc), str(exc), None


def _consequent(sp, family, seed, kind):
    """The sum of the faces' witnesses (from_derivation's), a point split
    along the faces, an interior point that in general does not split, one
    face's witness (a boundary point), or a split point's negative (outside
    the cone)."""
    x = sp.sample_interior_point(np.random.default_rng(seed))
    split = sum(F.projector @ x for _, F in family)
    return {"units": sum(F.witness for _, F in family),
            "split": split, "unsplit": x, "negated": -split,
            "boundary": family.entries[0][1].witness}[kind]


@given(sp=st.sampled_from(SPECTRAL_CONES), seed=st.integers(0, 2**16), spectrum=SPECTRA,
       kind=st.sampled_from(["units", "split", "unsplit", "negated", "boundary"]))
@settings(max_examples=150)
def test_stacked_ratio_from_family_matches_the_loop_reference(sp, seed, spectrum, kind):
    delta = Derivation(sp, _spectrum_case(sp, seed, spectrum))
    family = spectral_faces(sp, delta)
    a = _consequent(sp, family, seed, kind)
    got = _outcome(lambda: ratio_calculus._ratio_from_family(sp, delta, family, a, 64))
    want = _outcome(lambda: loop_ratio_from_family(sp, delta, family, a, 64))
    assert got[:2] == want[:2]
    if want[2] is None:
        return
    r, s = got[2], want[2]
    assert r.lambdas() == s.lambdas()
    assert [b for _, b, _ in r.decomposition] == [b for _, b, _ in s.decomposition]
    # a part with a repeated eigenvalue has no one frame inside that
    # eigenspace, so the pieces are compared by what the frame does not
    # choose: for each lam, the sum of its pieces and their sorted
    # coefficients, a piece's norm over that of a frame element (every
    # frame element of a kind has one norm: a unit ray, or a primitive
    # idempotent)
    tol = 1e-12 * max(1.0, np.linalg.norm(a))
    unit = np.linalg.norm(minimal_decomposition(sp, sp.canonical_unit())[0][1])
    for lam in dict.fromkeys(r.lambdas()):
        p, q = ([comp for mu, _, comp in t.decomposition if mu == lam] for t in (r, s))
        assert np.linalg.norm(sum(p) - sum(q)) <= tol
        coeffs_p, coeffs_q = (np.sort(np.linalg.norm(x, axis=1)) / unit for x in (p, q))
        assert np.abs(coeffs_p - coeffs_q).max() <= tol
    assert np.array_equal(r.antecedent, s.antecedent)


@functools.lru_cache(maxsize=None)
def _generic_cone(kind, n, seed):
    if kind == "rotated":
        return rotated_orthant(n, seed)
    if kind == "ngon":
        return ngon_cone(n)
    if kind == "random":
        # n + seed % 7 positive generators in R^n
        G = np.random.default_rng(seed).uniform(0.1, 1.0, (n, n + seed % 7))
        return ConeSpace.polyhedral(list(G.T))
    return getattr(ConeSpace, kind)(n)


# every kind at any size up to the benchmark's largest
generic_cones = st.one_of(
    st.tuples(st.sampled_from(["orthant", "lorentz"]), st.integers(2, 24), st.just(0)),
    st.tuples(st.sampled_from(["psd_real", "hermitian"]), st.integers(1, 5), st.just(0)),
    st.tuples(st.sampled_from(["rotated", "random"]), st.integers(2, 6), st.integers(0, 20)),
    st.tuples(st.just("ngon"), st.integers(3, 13), st.just(0)),
).map(lambda args: _generic_cone(*args))


@given(sp=generic_cones, seed=st.integers(0, 2**16), spectrum=SPECTRA)
@settings(max_examples=120)
def test_spectral_faces_round_trip_at_generic_sizes(sp, seed, spectrum):
    delta = _spectrum_case(sp, seed, spectrum)
    back = reconstruct_from_faces(sp, spectral_faces(sp, delta)).mat
    assert np.linalg.norm(back - delta) <= 1e-9 * max(1.0, np.linalg.norm(delta))


@given(sp=generic_cones, seed=st.integers(0, 2**16), spectrum=SPECTRA)
@settings(max_examples=120)
def test_from_derivation_round_trips_at_generic_sizes(sp, seed, spectrum):
    delta = _spectrum_case(sp, seed, spectrum)
    back = ratio_calculus.to_derivation(ratio_calculus.from_derivation(sp, delta, max_den=64)).mat
    assert np.linalg.norm(back - delta) <= 1e-9 * max(1.0, np.linalg.norm(delta))


# the four Jordan kinds at generic sizes
jordan_cones = st.one_of(
    st.tuples(st.sampled_from(["orthant", "lorentz"]), st.integers(2, 24)),
    st.tuples(st.sampled_from(["psd_real", "hermitian"]), st.integers(1, 6)),
).map(lambda args: getattr(ConeSpace, args[0])(args[1]))


@given(sp=jordan_cones, seed=st.integers(0, 2**16), spectrum=SPECTRA)
@settings(max_examples=120)
def test_jordan_parts_match_the_checked_projectors_at_generic_sizes(sp, seed, spectrum):
    # the parts ratio_from_pair splits, U_c a = 2 c o (c o a) - c o a by the
    # kind's _run_parts with no projector, against P a over the family's
    # checked stack, for a split order unit a; and a' : a gives back delta
    delta = _spectrum_case(sp, seed, spectrum)
    family = spectral_faces(sp, delta)
    a = family.projectors.sum(axis=0) @ sp.sample_interior_point(np.random.default_rng(seed))
    off = family.parts(a) - family.projectors @ a
    assert np.linalg.norm(off, axis=1).max() <= 1e-12 * max(1.0, np.linalg.norm(a))
    r = ratio_calculus.ratio_from_pair(sp, delta @ a, a, max_den=64)
    back = ratio_calculus.to_derivation(r).mat
    assert np.linalg.norm(back - delta) <= 1e-9 * max(1.0, np.linalg.norm(delta))


# rotated orthants whose generators are moved by eps, on both sides of the
# pairing TOL above which the self-adjoint derivations join two rays
TILTED_ORTHANTS = [_tilted_orthant(n, eps, seed) for n in (3, 5)
                   for eps in (0.0, 1e-10, 1e-9, 1e-8) for seed in (1, 2)]


@given(sp=st.sampled_from(SPECTRAL_CONES + TILTED_ORTHANTS), seed=st.integers(0, 2**16),
       spectrum=st.sampled_from(["generic", "repeated", "any derivation"]))
@settings(max_examples=200)
def test_from_derivation_matches_the_frame_split_reference(sp, seed, spectrum):
    # the pieces read off the family's runs against the projector rule, the
    # parts P a of the witnesses' sum a split by _frame_terms: they differ
    # by round-off (up to 2e-9 on tilted cones), their derivations do not;
    # a random derivation is refused alike when it is not self-adjoint
    if spectrum == "any derivation":
        coef = np.random.default_rng(seed).standard_normal(len(derivation_basis(sp)))
        delta = sum(c * b.mat for c, b in zip(coef, derivation_basis(sp)))
    else:
        delta = _spectrum_case(sp, seed, spectrum)
    *refused, got = _outcome(lambda: ratio_calculus.from_derivation(sp, delta, max_den=64))
    *want_refused, want = _outcome(lambda: frame_split_from_derivation(sp, delta, 64))
    assert refused == want_refused
    if got is None:
        return
    assert got.lambdas() == want.lambdas()
    assert np.array_equal(got.consequent, want.consequent)
    back = ratio_calculus.to_derivation(got).mat
    assert (np.linalg.norm(back - ratio_calculus.to_derivation(want).mat)
            <= 1e-12 * max(1.0, np.linalg.norm(delta)))


def test_from_derivation_refuses_witnesses_that_are_not_orthogonal(monkeypatch):
    # the narrow cone's first two rays are not orthogonal: a family giving
    # them different multipliers does not split its unit, which the
    # witnesses' Gram matrix says as the parts P a did
    sp = ConeSpace.polyhedral([np.array([1.0, 0.2, 0.0]), np.array([0.2, 1.0, 0.0]),
                               np.array([0.0, 0.0, 1.0])])
    runs = np.eye(3, dtype=bool)
    family = derivation_algebra._RunFamily(sp, np.array([1.0, 2.0, 3.0]), runs @ sp._rays.T, runs)
    for module in (ratio_calculus, references):
        monkeypatch.setattr(module, "spectral_faces", lambda space, delta: family)
    for run in (lambda: ratio_calculus.from_derivation(sp, np.eye(3)),
                lambda: frame_split_from_derivation(sp, np.eye(3), 10**6)):
        with pytest.raises(ratio_calculus.NotComparable, match="does not decompose"):
            run()


def _counting(calls, name, f):
    def wrapped(*args, **kwargs):
        calls.append(name)
        return f(*args, **kwargs)
    return wrapped


def _count_stacks(monkeypatch, calls):
    """Count the projector stacks built (_U on a Jordan kind, _generator_faces
    on a polyhedral cone) and checked (_check_projectors) into calls."""
    monkeypatch.setattr(cone_space._JordanSpace, "_U",
                        _counting(calls, "build", cone_space._JordanSpace._U))
    monkeypatch.setattr(cone_space._Polyhedral, "_generator_faces",
                        _counting(calls, "build", cone_space._Polyhedral._generator_faces))
    check = _counting(calls, "check", cone_space._check_projectors)
    monkeypatch.setattr(cone_space, "_check_projectors", check)
    monkeypatch.setattr(derivation_algebra, "_check_projectors", check)


STACK_CONES = [ConeSpace.orthant(4), ConeSpace.lorentz(5), ConeSpace.psd_real(3),
               ConeSpace.hermitian(3), rotated_orthant(3, 1), ngon_cone(5)]


@pytest.mark.parametrize("sp", STACK_CONES, ids=repr)
def test_from_derivation_compose_and_add_build_no_family_stack(monkeypatch, sp):
    delta = _spectrum_case(sp, 7, "generic")
    r = ratio_calculus.from_derivation(sp, delta, max_den=64)
    s = ratio_calculus.from_derivation(sp, 2.0 * delta + np.eye(sp.dim), max_den=64)
    calls = []
    _count_stacks(monkeypatch, calls)
    ratio_calculus.from_derivation(sp, delta, max_den=64)
    assert calls == []
    # nor does the kind hook of to_derivation, on any kind: L(sum lam c) on a
    # Jordan kind, R diag(mu) R+ over the extreme rays on a polyhedral cone
    ratio_calculus.to_derivation(r)
    ratio_calculus.compose(r, s, max_den=64)
    ratio_calculus.add(r, s, max_den=64)
    reconstruct_from_faces(sp, spectral_faces(sp, delta))
    assert calls == []


@pytest.mark.parametrize("sp", STACK_CONES, ids=repr)
def test_ratio_from_pair_builds_and_checks_one_family_stack(monkeypatch, sp):
    # on a Jordan kind the parts U_c a are Jordan products of the witnesses,
    # and no stack is built or checked; a polyhedral cone builds and checks
    # the family's span projectors once
    delta = _spectrum_case(sp, 7, "generic")
    e = sp.canonical_unit()
    calls = []
    _count_stacks(monkeypatch, calls)
    r = ratio_calculus.ratio_from_pair(sp, delta @ e, e, max_den=64)
    assert calls == (["build", "check"] if sp.kind == "polyhedral" else [])
    assert r.lambdas()


@pytest.mark.parametrize("sp", [ConeSpace.orthant(4), ConeSpace.lorentz(5), ConeSpace.psd_real(3),
                                ConeSpace.hermitian(3), rotated_orthant(3, 1), ngon_cone(5)],
                         ids=repr)
def test_spectral_paths_check_one_stack_and_build_no_face(monkeypatch, sp):
    delta = _spectrum_case(sp, 7, "generic")
    calls = []
    check = _counting(calls, "check", cone_space._check_projectors)
    monkeypatch.setattr(cone_space, "_check_projectors", check)
    monkeypatch.setattr(derivation_algebra, "_check_projectors", check)
    monkeypatch.setattr(Face, "__init__", _counting(calls, "Face", Face.__init__))
    monkeypatch.setattr(sp, "membership", _counting(calls, "membership", sp.membership))
    ratio_calculus.from_derivation(sp, delta, max_den=64)
    # the order-unit test of the units; the family's projectors are never read
    assert calls == ["membership"]
    calls.clear()
    family = spectral_faces(sp, delta)
    assert calls == []
    # the stack is checked once, on its first read
    assert family.projectors is family.projectors
    assert calls == ["check"]
    calls.clear()
    reconstruct_from_faces(sp, family)
    # the kind hook of to_derivation checks no projector: L(sum lam_k c_k) on
    # a Jordan kind, R diag(mu) R+ over the extreme rays on a polyhedral cone
    assert calls == []
    calls.clear()
    minimal_decomposition(sp, sp.canonical_unit())
    assert calls == []
    # only a caller that reads the faces gets Faces, one per entry
    assert len(family.entries) == calls.count("Face") == len(family)


def _below_the_band(sp, depth):
    """A point with one eigenvalue (dual pairing) at -depth times its face
    band and the rest positive or zero: on a Jordan kind e - r - s r for a
    frame element r of the unit, on a polyhedral cone the sum of the rays
    on a facet, moved off it by s along the facet's unit normal."""
    if sp.kind == "polyhedral":
        d = sp.dual_generators[:, 0]
        base, direction = sp._rays[:, sp._incidence[:, 0]].sum(axis=1), -d
    else:
        r = minimal_decomposition(sp, sp.canonical_unit())[0][1]
        base, direction = sp.canonical_unit() - r, -r
    s = depth * TOL * max(1.0, np.linalg.norm(base))
    return base + s * direction


@pytest.mark.parametrize("sp", [ConeSpace.orthant(3), ConeSpace.lorentz(3), ConeSpace.psd_real(2),
                                ConeSpace.hermitian(2), rotated_orthant(3, 1), ngon_cone(5)],
                         ids=repr)
def test_minimal_decomposition_raises_below_the_face_band(sp):
    with pytest.raises(ValueError, match="point is outside the cone"):
        minimal_decomposition(sp, _below_the_band(sp, 2.0))
    # inside the band the point is a boundary point and decomposes
    terms = minimal_decomposition(sp, _below_the_band(sp, 0.5))
    assert terms and all(c > 0 for c, _ in terms)


def _cone_point_stack(sp, rng, f):
    """f cone points over six decades of norm, most on the boundary: the
    projections of Gaussians on a Jordan kind, combinations of about half
    the extreme rays on a polyhedral cone."""
    if sp.kind == "polyhedral":
        R = sp._rays
        A = (rng.exponential(size=(f, R.shape[1])) * (rng.random((f, R.shape[1])) < 0.5)) @ R.T
    else:
        A = np.array([sp.project(x) for x in rng.standard_normal((f, sp.dim))])
    return A * 10.0 ** rng.uniform(-3.0, 3.0, size=(f, 1))


@given(sp=st.sampled_from(SPECTRAL_CONES), seed=st.integers(0, 2**16), f=st.integers(1, 6))
@settings(max_examples=150)
def test_stacked_frame_terms_match_one_row_calls(sp, seed, f):
    A = _cone_point_stack(sp, np.random.default_rng(seed), f)
    got = sp._frame_terms(A)
    assert len(got) == f
    for a, terms in zip(A, got):
        want = sp._frame_terms(a[None])[0]
        assert [lam for lam, _ in terms] == [lam for lam, _ in want]
        for (_, piece), (_, ref) in zip(terms, want):
            assert np.linalg.norm(piece - ref) <= 1e-12


@pytest.mark.parametrize("sp", [ConeSpace.orthant(3), ConeSpace.lorentz(3), ConeSpace.psd_real(2),
                                ConeSpace.hermitian(2), rotated_orthant(3, 1), ngon_cone(5)],
                         ids=repr)
def test_stacked_frame_terms_of_no_rows_and_of_a_row_below_the_band(sp):
    assert sp._frame_terms(np.empty((0, sp.dim))) == []
    inside = np.array([sp.canonical_unit(), _below_the_band(sp, 0.5)])
    assert [bool(terms) for terms in sp._frame_terms(inside)] == [True, True]
    with pytest.raises(ValueError, match="point is outside the cone"):
        sp._frame_terms(np.vstack([inside, _below_the_band(sp, 2.0)]))


def test_from_derivation_decomposes_all_faces_in_one_spectral_call(monkeypatch):
    def spectral_calls(lams):
        sp = ConeSpace.orthant(24)
        calls = []
        monkeypatch.setattr(sp, "_spectral", _counting(calls, "spectral", sp._spectral))
        r = ratio_calculus.from_derivation(sp, np.diag(lams), max_den=64)
        assert sorted(r.lambdas()) == sorted(lams)
        return len(calls)

    assert spectral_calls(np.arange(1.0, 25.0)) == spectral_calls(np.repeat([1.0, 2.0], 12))


def _selfadjoint_builds(monkeypatch, sp, make):
    """How often three ratio_from_pair calls on the spaces make() returns
    build the self-adjoint basis of sp."""
    calls, build = [], sp._derivation_mats

    def counted(selfadjoint=False):
        calls.append(selfadjoint)
        return build(selfadjoint=selfadjoint)

    monkeypatch.setitem(vars(sp), "_derivation_mats", counted)
    rng = np.random.default_rng(11)
    for _ in range(3):
        space = make()
        ratio_calculus.ratio_from_pair(space, rng.standard_normal(space.dim),
                                       space.canonical_unit(), max_den=64)
    return calls.count(True)


def test_ratio_from_pair_builds_the_selfadjoint_basis_once_per_space(monkeypatch):
    sp = rotated_orthant(4, 2)
    assert _selfadjoint_builds(monkeypatch, sp, lambda: sp) == 1
    assert len(selfadjoint_derivations(sp)) == 4


def test_a_jordan_kind_and_size_shares_one_selfadjoint_basis(monkeypatch):
    # an earlier use of hermitian(4) may have built it already
    sp = ConeSpace.hermitian(4)
    assert _selfadjoint_builds(monkeypatch, sp, lambda: ConeSpace.hermitian(4)) <= 1
    assert ConeSpace.hermitian(4) is sp
    assert len(selfadjoint_derivations(sp)) == 16


@pytest.mark.parametrize("make", [functools.partial(ConeSpace.orthant, 3),
                                  functools.partial(ConeSpace.lorentz, 3),
                                  functools.partial(ngon_cone, 5)],
                         ids=["orthant", "lorentz", "ngon"])
def test_cached_derivation_bases_are_read_only(make):
    sp = make()
    for basis in (derivation_basis(sp), selfadjoint_derivations(sp)):
        with pytest.raises(ValueError, match="read-only"):
            basis[0].mat[0, 1] = 5.0
    with pytest.raises(ValueError, match="read-only"):
        sp._der_frame[0, 1] = 5.0
    # a later cone of a Jordan kind is this one, so its frame is this
    # frame, unchanged; a later polyhedral cone builds its own
    fresh = make()
    Q = fresh._der_frame
    assert is_derivation(fresh, (np.arange(1.0, len(Q) + 1) @ Q).reshape(3, 3))
    assert is_derivation(ConeSpace.orthant(3), np.diag([1.0, 2.0, 3.0]))


def test_the_der_frame_takes_the_brackets_as_a_stream():
    # orthant(64) has 2016 brackets, all zero, of 32 KB each: a list of them
    # alone held 66 MB, and the frame build peaked at 71 MB; the orthant's
    # frame now forms none, and is the same frame
    sp = cone_space._Orthant(64)  # not the shared orthant(64): a fresh build
    tracemalloc.start()
    try:
        Q = sp._der_frame
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 * 2**20
    Ls = list(sp._L_units)
    listed = cone_space._orthonormal_span(Ls) + cone_space._orthonormal_span(
        [A @ B - B @ A for A, B in itertools.combinations(Ls, 2)])
    assert np.array_equal(Q, np.array([m.reshape(-1) for m in listed]))


def test_a_der_frame_with_nonzero_brackets_takes_them_as_a_stream():
    # psd_real(10) has 1485 brackets of 24 KB each, which span 45 dimensions:
    # a list of them alone holds 34 MB, and a frame build from it peaked at
    # 43 MB
    sp = cone_space._MatrixSpace("psd_real", 10, 55, vec_to_sym,
                                 cone_space._symmetric_units)  # a fresh build
    tracemalloc.start()
    try:
        Q = sp._der_frame
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    Ls = list(sp._L_units)
    listed = cone_space._orthonormal_span(Ls) + cone_space._orthonormal_span(
        [A @ B - B @ A for A, B in itertools.combinations(Ls, 2)])
    assert len(Q) == 100 and np.array_equal(Q, np.array([m.reshape(-1) for m in listed]))


def test_polyhedral_cones_are_freed_with_their_constants():
    refs = []
    for seed in range(50):
        sp = rotated_orthant(4, seed)
        assert is_derivation(sp, np.eye(4))
        assert len(derivation_basis(sp)) == 4
        assert orientability(sp)
        refs.append(weakref.ref(sp))
    del sp
    gc.collect()
    assert sum(ref() is not None for ref in refs) == 0


def test_family_requires_increasing_eigenvalues():
    sp = ConeSpace.orthant(2)
    F = Face(sp, np.eye(sp.dim), sp.canonical_unit())
    with pytest.raises(ValueError):
        family_of(sp, [(2.0, F), (1.0, F)])


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
                assert sp._margin(E @ x) >= -1e-7 * max(np.linalg.norm(E @ x), 1e-12)


def test_commutative_orientability_at_size():
    # full-matrix SVDs of the tall Lie systems would need gigabytes at this size
    v = orientability(ConeSpace.orthant(24))
    assert v.status == "Orientable"
    assert "quotient dimension 0" in v.detail


@pytest.mark.parametrize("sp", [rotated_orthant(n, seed) for n in (4, 5, 6) for seed in (1, 2)]
                         + [ngon_cone(n) for n in (3, 5, 7)], ids=repr)
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


# ---------------------------------------------------------------------------
# membership by projection, against the least-squares reference

def span_residual(basis_mats, M):
    """Reference: distance of M from the span of basis_mats by one
    least-squares solve, as is_derivation decided it before the cached
    orthonormal projection."""
    A = np.array([b.reshape(-1) for b in basis_mats]).T
    v = M.reshape(-1)
    coef, _, _, _ = np.linalg.lstsq(A, v, rcond=None)
    return float(np.linalg.norm(A @ coef - v))


# all five kinds, up to the benchmark's largest sizes
CONES = ([ConeSpace.orthant(n) for n in (1, 3, 8, 24)]
         + [ConeSpace.lorentz(n) for n in (2, 3, 8, 24)]
         + [ConeSpace.psd_real(k) for k in (1, 2, 3, 5)]
         + [ConeSpace.hermitian(k) for k in (1, 2, 3, 5)]
         + [rotated_orthant(n, 5) for n in (3, 6)] + [ngon_cone(n) for n in (3, 7)])
cones = st.sampled_from(CONES)
seeds = st.integers(0, 2**32 - 1)
scales = st.sampled_from([1e-6, 1e-3, 1.0, 1e3, 1e6])


def _combination(sp, rng, scale):
    basis = derivation_basis(sp)
    return sum(c * b.mat for c, b in zip(scale * rng.standard_normal(len(basis)), basis))


def _off_span(sp, rng):
    """A unit-norm operator orthogonal to Der(cone), or None when Der is everything."""
    Q = np.array([b.mat.reshape(-1) for b in derivation_basis(sp)])
    g = rng.standard_normal(sp.dim * sp.dim)
    g = g - (g @ Q.T) @ Q
    if np.linalg.norm(g) < 1e-6:
        return None
    return (g / np.linalg.norm(g)).reshape(sp.dim, sp.dim)


@pytest.mark.parametrize("sp", CONES, ids=repr)
def test_derivation_basis_is_orthonormal(sp):
    Q = np.array([b.mat.reshape(-1) for b in derivation_basis(sp)])
    assert np.max(np.abs(Q @ Q.T - np.eye(len(Q)))) < 1e-12


@given(sp=cones, seed=seeds, scale=scales, off=st.sampled_from([0.0, 1e-12, 1e-6, 1.0]))
@settings(max_examples=150)
def test_projection_residual_matches_lstsq_reference(sp, seed, scale, off):
    rng = np.random.default_rng(seed)
    E = _off_span(sp, rng)
    M = _combination(sp, rng, scale)
    if E is not None:
        M = M + off * scale * E
    mats = [b.mat for b in derivation_basis(sp)]
    G = rng.standard_normal((sp.dim, sp.dim))  # a generic operator, mostly off the span
    got = _derivation_residuals(sp, np.array([M, G]))[0]
    assert abs(got[0] - span_residual(mats, M)) <= 1e-12 * max(np.linalg.norm(M), 1.0)
    assert abs(got[1] - span_residual(mats, G)) <= 1e-12 * np.linalg.norm(G)


@given(sp=cones, seed=seeds, scale=scales)
@settings(max_examples=100)
def test_stacked_decision_matches_is_derivation(sp, seed, scale):
    # derivations, ones pushed off Der by 1e-12 .. 1 of their scale (no
    # product of scale and push near the threshold), and a generic
    # operator, decided in one stack
    rng = np.random.default_rng(seed)
    E = _off_span(sp, rng)
    Ms = [_combination(sp, rng, scale) for _ in range(4)]
    if E is not None:
        Ms = [M + off * scale * E for M, off in zip(Ms, [0.0, 1e-12, 1e-5, 1.0])]
    Ms.append(scale * rng.standard_normal((sp.dim, sp.dim)))
    want = [not _der_verdict(sp, M)[1] for M in Ms]
    assert list(_derivation_residuals(sp, np.array(Ms))[1]) == want


@given(sp=cones, seed=seeds, scale=scales)
@settings(max_examples=100)
def test_basis_combinations_are_verified(sp, seed, scale):
    M = _combination(sp, np.random.default_rng(seed), scale)
    assert is_derivation(sp, M).status == "Verified"


@pytest.mark.filterwarnings("error::RuntimeWarning")  # expm's overflow is skipped, not warned
@given(sp=cones, seed=seeds, scale=scales, off=st.sampled_from([1e-6, 1e-3, 1.0]))
@settings(max_examples=100)
def test_combinations_with_an_off_span_part_are_refuted(sp, seed, scale, off):
    rng = np.random.default_rng(seed)
    E = _off_span(sp, rng)
    if E is None:  # orthant(1), lorentz(2), psd_real(1), hermitian(1): Der is all operators
        assert len(derivation_basis(sp)) == sp.dim * sp.dim
        return
    M = _combination(sp, rng, scale) + off * max(scale, 1.0) * E
    verdict = is_derivation(sp, M)
    assert verdict.status == "Refuted"
    assert "residual" in verdict.detail
    # the search is fixed: a second call finds the same witness, and a
    # witness is a cone point that exp(tM) expels, t on the grid
    again = is_derivation(sp, M).witness
    if verdict.witness is None:
        assert again is None
        return
    t, x = verdict.witness
    assert t == again[0] and np.array_equal(x, again[1])
    assert t in DEFAULT_T_GRID and sp.membership(x) is not Membership.OUTSIDE
    with np.errstate(over="ignore", invalid="ignore"):
        assert sp.membership(scipy.linalg.expm(t * M) @ x) is Membership.OUTSIDE


def _pairwise_closure_residual(mats):
    """Reference: one least-squares solve per commutator."""
    return max([span_residual(mats, A @ B - B @ A)
                for i, A in enumerate(mats) for B in mats[i + 1:]], default=0.0)


@given(sp=cones, seed=seeds, generic=st.integers(0, 3), size=st.integers(1, 12))
@settings(max_examples=60)
def test_batched_lie_closure_residual_matches_pairwise(sp, seed, generic, size):
    # a subset of the basis (often not closed under brackets) and some generic operators
    rng = np.random.default_rng(seed)
    basis = derivation_basis(sp)
    mats = [basis[i].mat for i in rng.permutation(len(basis))[:size]]
    mats += [rng.standard_normal((sp.dim, sp.dim)) for _ in range(generic)]
    got = lie_closure_residual([Derivation(sp, m) for m in mats])
    want = _pairwise_closure_residual(mats)
    assert abs(got - want) <= 1e-12 * max(1.0, max(np.linalg.norm(m) for m in mats) ** 2)


@pytest.mark.parametrize("sp", CONES, ids=repr)
def test_full_basis_is_closed_as_in_the_reference(sp):
    mats = [b.mat for b in derivation_basis(sp)]
    got = lie_closure_residual(derivation_basis(sp))
    assert got < 1e-9
    if len(mats) <= 30:  # the pairwise reference costs n^2 / 2 solves
        assert abs(got - _pairwise_closure_residual(mats)) <= 1e-12


@pytest.mark.parametrize("sp", [ConeSpace.lorentz(3), ngon_cone(5)], ids=repr)
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_is_derivation_rejects_non_finite_operators(sp, bad):
    M = np.eye(sp.dim)
    M[0, -1] = bad
    with pytest.raises(ValueError, match="non-finite"):
        is_derivation(sp, M)


@pytest.mark.parametrize("sp", [ConeSpace.orthant(4), ConeSpace.psd_real(1), rotated_orthant(3, 2)],
                         ids=repr)
def test_each_operator_is_verified_once(monkeypatch, sp):
    # products of commuting derivations stay derivations on these cones, so
    # compose gives a Ratio; the one decision is spectral_faces' Der residual
    delta = _random_selfadjoint(sp, np.random.default_rng(4)).mat
    partner = 1.5 * np.eye(sp.dim) + 0.5 * delta  # commutes with delta
    r = ratio_calculus.from_derivation(sp, delta, max_den=64)
    s = ratio_calculus.from_derivation(sp, partner, max_den=64)
    calls = []
    residuals = derivation_algebra._derivation_residuals

    def counting(space, Ms):
        calls.append(len(Ms))
        return residuals(space, Ms)
    monkeypatch.setattr(derivation_algebra, "_derivation_residuals", counting)
    for run in (lambda: ratio_calculus.from_derivation(sp, delta, max_den=64),
                lambda: ratio_calculus.compose(r, s, max_den=64),
                lambda: ratio_calculus.add(r, s, max_den=64),
                lambda: ratio_calculus.ratio_from_pair(sp, delta @ sp.canonical_unit(),
                                                       sp.canonical_unit(), max_den=64)):
        calls.clear()
        out = run()
        assert isinstance(out, ratio_calculus.Ratio)
        assert calls == [1]


def test_compose_outside_der_skips_the_witness_search(monkeypatch):
    # compose needs only the decision; an expelled witness would be thrown away
    sp = ConeSpace.lorentz(4)
    delta = _random_selfadjoint(sp, np.random.default_rng(4)).mat
    r = ratio_calculus.from_derivation(sp, delta, max_den=64)
    s = ratio_calculus.from_derivation(sp, 1.5 * np.eye(sp.dim) + 0.5 * delta, max_den=64)

    def no_expm(*args):
        raise AssertionError("witness search in compose")
    monkeypatch.setattr(derivation_algebra, "expm", no_expm)
    assert isinstance(ratio_calculus.compose(r, s, max_den=64), ratio_calculus.JordanOnly)


def test_from_derivation_outside_der_skips_the_witness_search(monkeypatch):
    # from_derivation and spectral_faces only raise on a refuted operator
    sp = ConeSpace.lorentz(4)
    M = np.zeros((4, 4))
    M[1, 0] = 1.0  # not a derivation: a shear into the spatial part

    def no_expm(*args):
        raise AssertionError("witness search for a dropped witness")
    monkeypatch.setattr(derivation_algebra, "expm", no_expm)
    for op in (M, Derivation(sp, M)):
        for refuse in (ratio_calculus.from_derivation, spectral_faces):
            with pytest.raises(NotSelfAdjointDerivation, match=r"not a derivation: Refuted\(outside"):
                refuse(sp, op)


# symmetric operators outside Der(cone): their eigenvalues are not the
# multipliers of any ratio, so no spectral family may be built from them
NOT_DERIVATIONS = [
    (ConeSpace.orthant(2), np.array([[1.0, 2.0], [2.0, 1.0]])),
    (ConeSpace.lorentz(3), np.diag([1.0, 2.0, 3.0])),
    # L(diag(p, q)) acts on the coordinates of psd_real(2) as p, (p + q) / 2 and q
    (ConeSpace.psd_real(2), np.diag([1.0, 2.0, 4.0])),
]


@pytest.mark.parametrize("sp, M", NOT_DERIVATIONS, ids=["orthant", "lorentz", "psd_real"])
def test_spectral_faces_refuses_a_symmetric_operator_outside_der(sp, M):
    # a bare array gave lam (-1, 3), (1, 2, 3) and (1, 2, 4), and rebuilt 3I, I
    # and 2 L(diag(1, 4)), though from_derivation and the CLI refused them
    assert not _asymmetric(M) and _derivation_residuals(sp, M[None])[1][0]
    for op in (M, Derivation(sp, M)):
        with pytest.raises(NotSelfAdjointDerivation, match="operator is not a derivation"):
            reconstruct_from_faces(sp, spectral_faces(sp, op))
        with pytest.raises(NotSelfAdjointDerivation, match="operator is not a derivation"):
            ratio_calculus.from_derivation(sp, op)


@pytest.mark.parametrize("M, message", [
    (np.eye(3), "operator shape does not match the space"),
    (np.diag([1.0, np.nan]), "operator has non-finite entries"),
    (np.diag([1.0, np.inf]), "operator has non-finite entries"),
])
def test_spectral_faces_raises_a_plain_value_error_on_a_malformed_operator(M, message):
    with pytest.raises(ValueError, match=message) as info:
        spectral_faces(ConeSpace.orthant(2), M)
    assert not isinstance(info.value, NotSelfAdjointDerivation)


def old_compose(r, s, max_den):
    """Reference: compose as it decided before spectral_faces did, the
    product's symmetry first and then its Der residual."""
    dr, ds = ratio_calculus.to_derivation(r).mat, ratio_calculus.to_derivation(s).mat
    prod = dr @ ds
    if _asymmetric(prod) or _derivation_residuals(r.host, prod[None])[1][0]:
        return ratio_calculus.JordanOnly(Derivation(r.host, 0.5 * (prod + ds @ dr)))
    return ratio_calculus.from_derivation(r.host, prod, max_den=max_den)


def _compose_pairs(sp, rng):
    """Commuting pairs (a ratio with itself and with a I + b delta) and a
    pair of independent ratios, which commute on no cone here but the
    orthant."""
    delta, other = (_random_selfadjoint(sp, rng).mat for _ in range(2))
    r, s, t = (ratio_calculus.from_derivation(sp, M, max_den=64)
               for M in (delta, 1.5 * np.eye(sp.dim) + 0.5 * delta, other))
    return [(r, r), (r, s), (s, r), (r, t)]


@pytest.mark.parametrize("sp", [ConeSpace.orthant(3), ConeSpace.lorentz(3), ConeSpace.lorentz(4),
                                ConeSpace.psd_real(2), ConeSpace.hermitian(2),
                                rotated_orthant(3, 1), ngon_cone(5)], ids=repr)
def test_compose_returns_what_the_old_rule_returned(sp):
    rng = np.random.default_rng(17)
    pairs = _compose_pairs(sp, rng) + _compose_pairs(sp, rng)
    if sp.kind == "lorentz" and sp.dim == 3:
        # ROADMAP item 1's pair: 1.6e-9 off symmetric, still JordanOnly
        e = np.array([1.0, 0.0, 0.0])
        pairs.append((ratio_calculus.ratio_from_pair(sp, np.array([1.0, 5e-8, 0.0]), e),
                      ratio_calculus.ratio_from_pair(sp, np.array([25.0, 0.0, 1.0]), e)))
    kinds = set()
    for r, s in pairs:
        got, want = ratio_calculus.compose(r, s, max_den=64), old_compose(r, s, 64)
        assert type(got) is type(want)
        kinds.add(type(got))
        if isinstance(got, ratio_calculus.JordanOnly):
            assert np.array_equal(got.derivation.mat, want.derivation.mat)
        else:
            assert got.lambdas() == want.lambdas()
            prod = ratio_calculus.to_derivation(r).mat @ ratio_calculus.to_derivation(s).mat
            back = ratio_calculus.to_derivation(got).mat
            assert np.linalg.norm(back - prod) <= 1e-9 * max(1.0, np.linalg.norm(prod))
    # the self-adjoint derivations of the orthant and of these polyhedral
    # cones commute, and their products are ratios; on the other Jordan kinds
    # every product leaves Der (ROADMAP item 1)
    if sp.kind in ("lorentz", "psd_real", "hermitian"):
        assert kinds == {ratio_calculus.JordanOnly}
    else:
        assert kinds and all(issubclass(k, ratio_calculus.Ratio) for k in kinds)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("sp", [ConeSpace.orthant(2), ConeSpace.lorentz(3), ConeSpace.psd_real(2)],
                         ids=repr)
def test_compose_of_an_overflowing_product_raises(sp):
    a = sp.canonical_unit()
    r = ratio_calculus.ratio_from_pair(sp, 1e200 * np.linspace(1.0, 2.0, sp.dim) * a
                                       if sp.kind == "orthant" else 1e200 * a, a, max_den=64)
    with pytest.raises(ValueError, match="non-finite") as info:
        ratio_calculus.compose(r, r, max_den=64)
    assert not isinstance(info.value, NotSelfAdjointDerivation)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("sp", [ConeSpace.orthant(2), ConeSpace.lorentz(3), ConeSpace.psd_real(2),
                                ConeSpace.hermitian(2)], ids=repr)
def test_add_of_an_overflowing_sum_raises(sp):
    a = sp.canonical_unit()
    r = ratio_calculus.ratio_from_pair(sp, 1e308 * a, a, max_den=64)
    with pytest.raises(ValueError, match="non-finite") as info:
        ratio_calculus.add(r, r, max_den=64)
    assert not isinstance(info.value, NotSelfAdjointDerivation)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_lorentz_spectral_faces_past_the_square_range():
    # delta e = (1e200, 5e199, 0): |z|^2 overflowed and the one face read
    # lambda nan; (1e308, 1e308, 0) has the spectral value 2e308, past the
    # float range, which is refused, and not as a non-derivation
    sp = ConeSpace.lorentz(3)
    family = spectral_faces(sp, np.array([[1e200, 5e199, 0.0], [5e199, 1e200, 0.0],
                                          [0.0, 0.0, 1e200]]))
    assert family.lams.tolist() == pytest.approx([5e199, 1.5e200], rel=1e-15)
    assert [F.dim for _, F in family] == [1, 1]
    with pytest.raises(ValueError, match="spectral values are not finite") as info:
        spectral_faces(sp, 1e308 * np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))
    assert not isinstance(info.value, NotSelfAdjointDerivation)


# ---------------------------------------------------------------------------
# the Lie centre and the centroid, against the commutator-loop,
# stacked-Kronecker and all-maps references

def loop_center_and_adjoint(basis, K):
    """Reference: the (n d^2) x n commutator table whose null space is the
    centre, and the quotient action over the complement K (coefficients
    over the basis), built as d x d matrices one commutator at a time."""
    mats = [b.mat for b in basis]
    A = np.vstack([np.array([(Bi @ Bj - Bj @ Bi).reshape(-1) for Bi in mats]).T
                   for Bj in mats])
    comp = np.tensordot(K, np.array(mats), axes=1)
    Q = np.array([X.reshape(-1) for X in comp]).T
    ads = []
    for B in mats:
        ad = np.zeros((len(comp), len(comp)))
        for i, X in enumerate(comp):
            ad[:, i] = Q.T @ (B @ X - X @ B).reshape(-1)
        ads.append(ad)
    return A, ads


def matrix_space_quotient(basis, center):
    """Reference: the adjoint action on Der/centre as orientability found
    it before the structure constants, in an orthonormal complement of
    the centre's d x d matrices, shape (n, q, q)."""
    mats = np.array([b.mat for b in basis])
    Q = scipy.linalg.orth(mats.reshape(len(mats), -1).T)
    if center:
        Qc = scipy.linalg.orth(np.array([c.mat.reshape(-1) for c in center]).T)
        u, s, _ = np.linalg.svd(Q - Qc @ (Qc.T @ Q), full_matrices=False)
        Q = u[:, s > 1e-8]
    q = Q.shape[1]
    d = mats.shape[1]
    comp = Q.T.reshape(q, d, d)
    return np.array([((B @ comp - comp @ B).reshape(q, d * d) @ Q).T for B in mats])


def kron_centroid(ads):
    """Reference: the centroid from one SVD of the stacked Kronecker
    systems I (x) ad - ad^T (x) I, as orientability found it before its
    two stages.  In row-major vec this solves C ad^T = ad^T C, the
    transposed system; the spans agree because each ad of the
    Frobenius-orthonormal Der basis is self- or skew-adjoint."""
    q = ads[0].shape[0]
    A = np.vstack([np.kron(np.eye(q), ad) - np.kron(ad.T, np.eye(q)) for ad in ads])
    _, s, vt = np.linalg.svd(A, full_matrices=False)
    rank = int(np.sum(s > 1e-8 * max(s[0] if len(s) else 1.0, 1.0)))
    return [c.reshape(q, q) for c in vt[rank:]]


def two_stage_centroid(ads):
    """Reference: the centroid as orientability found it before the
    regular element, in two stages: the commutant N of one fixed-seed
    generic combination X of the ad_i by one q^2 x q^2 SVD, then the
    elements of N commuting with every ad_i by one SVD of their stacked
    (n q^2) x dim N commutators."""
    q = ads.shape[1]
    I = np.eye(q)
    X = np.tensordot(np.random.default_rng(13).standard_normal(len(ads)), ads, axes=1)
    # row-major vec: vec(X C - C X) = (X (x) I - I (x) X^T) vec C
    N = _rank_split(np.kron(X, I) - np.kron(I, X.T))[1].reshape(-1, q, q)
    A = np.vstack([(ad @ N - N @ ad).reshape(len(N), q * q).T for ad in ads])
    return list(np.tensordot(_rank_split(A)[1], N, axes=1))


def kron_orientability(sp):
    """Reference: orientability with the matrix-space quotient and the
    stacked-Kronecker centroid."""
    basis = derivation_basis(sp)
    cent = kron_centroid(matrix_space_quotient(basis, lie_center(basis)))
    if _complex_structure(cent) is not None:
        return "Orientable(centroid contains a complex structure)"
    if len(cent) <= 2:
        return "NotOrientable(no complex structure in centroid)"
    return "Unknown(centroid of dimension %d not searched exhaustively)" % len(cent)


def all_maps_quotient_action(sp):
    """Reference: the centre and K of the cached Der frame of sp, and the
    action of every frame element on Der/centre, K ad_i K^T, shape
    (n, q, q)."""
    Q = sp._der_frame
    centre, K, ads = all_maps_centre_split(Q.reshape(len(Q), sp.dim, sp.dim), Q)
    return centre, K, K @ ads @ K.T


def all_maps_centroid(K, ads):
    """Reference: (basis, rank), the centroid as orientability found it
    before the two generic elements.  One fixed-seed generic element y of
    the quotient (ad_a = sum_i K_ai ad_i); words W = (y, ad_a y, ad_b ad_a
    y), (q^2 + q + 1) x q; candidates T_h = W_h W_y^+ over a basis of
    ker ad_y; their commutators with all q maps ad_a folded one map at a
    time into an r x r triangular factor."""
    q = len(K)
    A = np.tensordot(K, ads, axes=1)

    def words(v):
        Av = A @ v
        return np.vstack([v, Av, (Av @ A.mT).reshape(-1, q)])

    y = np.random.default_rng(13).standard_normal(q)
    u, s, vt = np.linalg.svd(words(y), full_matrices=False)
    rank = int(np.sum(s > 1e-8 * max(s[0], 1.0)))
    if rank < q:
        return None, rank
    Z = (u / s) @ vt
    H = _rank_split(np.tensordot(y, A, axes=1))[1]
    cands = np.array([(words(h).T @ Z).reshape(-1) for h in H])
    C = np.linalg.svd(cands, full_matrices=False)[2].reshape(-1, q, q)
    R = np.empty((0, len(C)))
    for ad in A:
        S = (C @ ad - ad @ C).reshape(len(C), -1).T
        R = np.linalg.qr(np.vstack([R, S]), mode="r")
    null = _rank_split(R)[1]
    return list(np.tensordot(null, C, axes=1)), rank


def frame_split(sp):
    """(centre, K, ads, xy) of the cached Der frame of sp, by orientability's
    steps: ads the maps of the two fixed-seed generic elements xy over the
    frame, K the row space of [ad_x; ad_y] and the centre its null space,
    the common centraliser of x and y."""
    Q = sp._der_frame
    mats = Q.reshape(len(Q), sp.dim, sp.dim)
    xy = np.random.default_rng(13).standard_normal((2, len(Q)))
    ads = _structure_table(np.tensordot(xy, mats, axes=1), mats, Q)[0]
    K, centre = _rank_split(ads.reshape(-1, len(Q)))
    return centre, K, ads, xy


def frame_table(sp):
    """The whole structure table of the cached Der frame of sp, (n, n, n)."""
    Q = sp._der_frame
    mats = Q.reshape(len(Q), sp.dim, sp.dim)
    return _structure_table(mats, mats, Q)[0]


def _span_projector(mats):
    V = np.array([m.reshape(-1) for m in mats])
    return V.T @ np.linalg.pinv(V.T)


# the Jordan cones with an even quotient dimension up to hermitian(3)
EVEN_QUOTIENT = [ConeSpace.lorentz(4), ConeSpace.lorentz(5), ConeSpace.psd_real(3),
                 ConeSpace.hermitian(2), ConeSpace.hermitian(3)]


@pytest.mark.parametrize("sp", EVEN_QUOTIENT + [ConeSpace.lorentz(3), ConeSpace.psd_real(2),
                                                rotated_orthant(4, 1), ngon_cone(5)], ids=repr)
def test_commutator_tables_match_the_loop_reference(sp):
    basis = derivation_basis(sp)
    center, K, pair, xy = frame_split(sp)
    table = frame_table(sp)
    got = K @ table @ K.T
    A, ads = loop_center_and_adjoint(basis, K)
    # lie_center and the centre rows span the null space of the loop table,
    # as combinations of the basis, and K is their orthonormal complement
    mats = np.array([b.mat.reshape(-1) for b in basis])
    null = np.linalg.svd(A)[2][np.linalg.matrix_rank(A, tol=1e-8 * max(np.abs(A).max(), 1.0)):]
    want = _span_projector([c @ mats for c in null])
    assert np.linalg.norm(_span_projector([c.mat for c in lie_center(basis)]) - want) < 1e-8
    assert np.linalg.norm(_span_projector([c @ mats for c in center]) - want) < 1e-8
    assert len(center) + len(K) == len(basis)
    assert np.max(np.abs(K @ K.T - np.eye(len(K))), initial=0.0) < 1e-12
    assert np.max(np.abs(K @ center.T), initial=0.0) < 1e-12
    assert got.shape == np.shape(ads)
    assert np.max(np.abs(got - np.array(ads)), initial=0.0) < 1e-12
    # the maps of the two generic elements are their combinations of the table
    assert np.max(np.abs(pair - np.tensordot(xy, table, axes=1))) < 1e-12
    # and the centre is the one the whole table gives
    want_centre, want_K, _ = all_maps_quotient_action(sp)
    assert len(want_centre) == len(center) and len(want_K) == len(K)
    assert np.linalg.norm(_span_projector(center) - _span_projector(want_centre)) < 1e-8


@pytest.mark.parametrize("sp", EVEN_QUOTIENT + [ConeSpace.hermitian(4), ConeSpace.psd_real(5),
                                                ConeSpace.lorentz(8)], ids=repr)
def test_centroid_matches_the_kronecker_reference(sp):
    # every reference is taken in the K of _centre_split, over the whole table
    _, K, pair, xy = frame_split(sp)
    table = frame_table(sp)
    ads = K @ table @ K.T
    assert ads.shape[1] % 2 == 0
    got, rank = _centroid(*(K @ pair @ K.T), K @ xy[1])
    assert rank == len(K)
    for want in (kron_centroid(ads), two_stage_centroid(ads), all_maps_centroid(K, ads)[0]):
        assert len(got) == len(want)
        assert np.linalg.norm(_span_projector(got) - _span_projector(want)) < 1e-8
    # orthonormal, and commuting with the whole adjoint action
    G = np.array([C.reshape(-1) for C in got])
    assert np.max(np.abs(G @ G.T - np.eye(len(got)))) < 1e-10
    assert max(np.linalg.norm(ad @ C - C @ ad) for ad in ads for C in got) < 1e-9


@pytest.mark.parametrize("sp", EVEN_QUOTIENT, ids=repr)
def test_orientability_matches_the_kronecker_reference(sp):
    assert repr(orientability(sp)) == kron_orientability(sp)


def test_centroid_of_a_reductive_action_matches_the_kronecker_reference():
    # gl(3) = sl(3) + R over an orthonormal basis whose first element is
    # central (ad = 0): the words of y still span, H has dimension 3, and
    # only the identities of the two ideals commute with every ad_a, so a
    # candidate outside the centroid survives unless the commutators with
    # ad_x and ad_y, which generate every ad_a, cut it out
    units = np.eye(9).reshape(9, 3, 3)
    Q = np.linalg.qr(np.vstack([np.eye(3).reshape(1, 9), units.reshape(9, 9)]).T)[0].T
    ads, residual = _structure_table(Q.reshape(9, 3, 3), Q.reshape(9, 3, 3), Q)
    assert residual < 1e-12 and np.abs(ads[0]).max() < 1e-12
    xy = np.random.default_rng(13).standard_normal((2, 9))
    got, rank = _centroid(*np.tensordot(xy, ads, axes=1), xy[1])
    want = kron_centroid(ads)
    assert rank == 9 and len(got) == len(want) == 2
    assert np.linalg.norm(_span_projector(got) - _span_projector(want)) < 1e-8
    reference, _ = all_maps_centroid(np.eye(9), ads)
    assert np.linalg.norm(_span_projector(got) - _span_projector(reference)) < 1e-8


@pytest.mark.parametrize("q", [2, 4])
def test_centroid_of_an_action_its_element_does_not_generate_is_unknown(monkeypatch, q):
    # with ad_x = ad_y = 0 the words of y are y alone: rank 1 < q, so the
    # centroid (all q x q matrices, which hold a J) is not claimed either
    # way; the maps of x and y below have the first q frame elements as
    # their row space K and vanish on those rows, so K ad K^T = 0
    sp = ConeSpace.hermitian(2)
    n = len(derivation_basis(sp))
    zero = np.zeros((q, q))
    assert _centroid(zero, zero, np.ones(q)) == (None, 1)
    ads = np.zeros((2, n, n))
    ads[:, q:, :q] = np.random.default_rng(0).standard_normal((2, n - q, q))
    monkeypatch.setattr(derivation_algebra, "_structure_table", lambda left, mats, Q: (ads, 0.0))
    v = orientability(sp)
    assert v.status == "Unknown"
    assert repr(v) == "Unknown(words of a generic element have rank 1, quotient dimension %d)" % q


def test_orientability_witness_commutes_with_the_adjoint_action():
    sp = ConeSpace.hermitian(3)
    J = orientability(sp).witness
    K = frame_split(sp)[1]
    ads = K @ frame_table(sp) @ K.T
    assert np.linalg.norm(J @ J + np.eye(len(J))) < 1e-7
    assert max(np.linalg.norm(ad @ J - J @ ad) for ad in ads) < 1e-8


@pytest.mark.parametrize("sp,want", [
    (ConeSpace.hermitian(4), "Orientable(centroid contains a complex structure)"),
    (ConeSpace.lorentz(8), "NotOrientable(no complex structure in centroid)"),
    (ConeSpace.psd_real(5), "NotOrientable(no complex structure in centroid)"),
], ids=repr)
def test_orientability_closed_forms_beyond_the_reference(sp, want):
    # Der/centre is sl(4, C) (complex), so(1, 7) and sl(5, R) (simple real forms)
    assert repr(orientability(sp)) == want


@pytest.mark.parametrize("scale", [1e-12, 1e-6, 1.0, 1e6])
def test_one_dimensional_centroid_is_decided_at_any_scale(scale):
    # its element, at unit norm, decides: the absolute floors cannot
    J0 = np.kron(np.eye(2), [[0.0, -1.0], [1.0, 0.0]])
    J = _complex_structure([scale * J0])
    assert J is not None and np.linalg.norm(J @ J + np.eye(4)) < 1e-7
    assert _complex_structure([scale * np.eye(4)]) is None
    assert _complex_structure([scale * np.diag([1.0, 1.0, -1.0, -1.0])]) is None


@pytest.mark.parametrize("theta", [0.0, 1e-9, 1e-3, 0.7, np.pi / 2, 2.5])
def test_two_dimensional_centroid_is_decided_by_its_basis(theta):
    # any orthonormal basis of span{I, J}: one element has a traceless part
    # of norm at least 1/sqrt(2), which rescales to the complex structure
    q = 6
    J0 = np.kron(np.eye(q // 2), [[0.0, -1.0], [1.0, 0.0]])
    I, J0 = np.eye(q) / np.sqrt(q), J0 / np.sqrt(q)
    c, s = np.cos(theta), np.sin(theta)
    J = _complex_structure([c * I + s * J0, -s * I + c * J0])
    assert J is not None and np.linalg.norm(J @ J + np.eye(q)) < 1e-7
    assert _complex_structure([np.eye(q), np.diag([1.0, -1.0] * 3)]) is None


def _closed_forms():
    # Der/centre: so(1, n-1), sl(k, R) and sl(k, C) (the realification,
    # q = 2k^2 - 2); so(1, 3) = sl(2, C) is the one complex Lorentz case
    for n in range(3, 9):
        yield ConeSpace.lorentz(n), 1, n * (n - 1) // 2, "Orientable" if n == 4 else "NotOrientable"
    for k in range(2, 6):
        yield ConeSpace.psd_real(k), 1, k * k - 1, "NotOrientable"
    for k in range(2, 5):
        yield ConeSpace.hermitian(k), 1, 2 * k * k - 2, "Orientable"
    # Der is commutative: all of it is the centre
    for sp in ([ConeSpace.orthant(n) for n in (1, 3, 8)]
               + [rotated_orthant(n, seed) for n in (4, 6) for seed in (1, 2)]
               + [ngon_cone(n) for n in (3, 4, 7)]):
        yield sp, len(derivation_basis(sp)), 0, "Orientable"


@pytest.mark.parametrize("sp,centre,q,status", list(_closed_forms()), ids=repr)
def test_centre_quotient_and_verdict_closed_forms(sp, centre, q, status):
    got_centre, K, ads, xy = frame_split(sp)
    assert (len(got_centre), len(K)) == (centre, q)
    assert (K @ ads @ K.T).shape == (2, q, q)
    assert len(lie_center(derivation_basis(sp))) == centre
    assert orientability(sp).status == status


def _reductive_cones():
    """(id, factory) of cones whose Der is reductive (self-dual) or abelian
    (polyhedral), on which the centre is read off two generic elements."""
    for n in range(1, 13):
        yield "orthant(%d)" % n, functools.partial(ConeSpace.orthant, n)
    for n in range(2, 11):
        yield "lorentz(%d)" % n, functools.partial(ConeSpace.lorentz, n)
    for k in range(1, 6):
        yield "psd_real(%d)" % k, functools.partial(ConeSpace.psd_real, k)
    for k in range(1, 5):
        yield "hermitian(%d)" % k, functools.partial(ConeSpace.hermitian, k)
    for n in range(2, 7):
        for seed in range(3):
            yield "rotated(%d,%d)" % (n, seed), functools.partial(rotated_orthant, n, seed)
            for eps in (1e-10, 1e-9, 1e-8, 1e-6):
                yield ("tilted(%d,%g,%d)" % (n, eps, seed),
                       functools.partial(_tilted_orthant, n, eps, seed))
    for n in range(3, 14):
        yield "ngon(%d)" % n, functools.partial(ngon_cone, n)


@pytest.mark.parametrize("make", [pytest.param(make, id=name) for name, make in _reductive_cones()])
def test_common_centraliser_of_two_generic_elements_is_the_centre(make):
    sp = make()
    centre, K, _, _ = frame_split(sp)
    want_centre, want_K, _ = all_maps_quotient_action(sp)
    assert (len(centre), len(K)) == (len(want_centre), len(want_K))
    assert np.linalg.norm(centre.T @ centre - want_centre.T @ want_centre) < 1e-8


@pytest.mark.parametrize("sp", [ConeSpace.orthant(20), ConeSpace.lorentz(5), ConeSpace.psd_real(3),
                                ConeSpace.hermitian(2), rotated_orthant(5, 1), ngon_cone(5)],
                         ids=repr)
def test_orientability_builds_one_structure_table_over_two_elements(monkeypatch, sp):
    sp._der_frame  # built before the spy
    lefts, table = [], derivation_algebra._structure_table

    def spying_table(left, mats, Q):
        lefts.append(len(left))
        return table(left, mats, Q)
    monkeypatch.setattr(derivation_algebra, "_structure_table", spying_table)
    orientability(sp)
    assert lefts == [2]


# the preamble of a script run by run_limited: a 3 GiB address-space limit
LIMITED = """
import json, resource, sys, time
resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))
"""


def run_limited(script, arg):
    """Run LIMITED + script in one fresh process with one BLAS thread and
    the JSON of arg as its argument; returns the JSON it prints."""
    src = os.path.dirname(os.path.dirname(eudoxus.__file__))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run([sys.executable, "-c", LIMITED + script, json.dumps(arg)], env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout)


# orientability's time per cone, and, in a second call, the quotient
# dimension and the peak traced allocation of its centroid step
WORST_CASES = """
import tracemalloc
from eudoxus import derivation_algebra
from eudoxus.cone_space import ConeSpace
centroid, traced = derivation_algebra._centroid, []


def traced_centroid(ad_x, ad_y, y):
    tracemalloc.start()
    try:
        return centroid(ad_x, ad_y, y)
    finally:
        traced.append([len(y), tracemalloc.get_traced_memory()[1]])
        tracemalloc.stop()
out = []
for kind, k in json.loads(sys.argv[1]):
    sp = getattr(ConeSpace, kind)(k)
    t = time.perf_counter()
    status = derivation_algebra.orientability(sp).status
    seconds = time.perf_counter() - t
    derivation_algebra._centroid = traced_centroid
    derivation_algebra.orientability(sp)
    derivation_algebra._centroid = centroid
    out.append([status, seconds] + traced.pop())
print(json.dumps(out))
"""


def test_orientability_worst_cases_within_time_and_memory():
    # sl(5, C), sl(7, R) and so(1, 11): 8, 8 and 45 s with the q^2 x q^2
    # Kronecker centroid
    cones = [("hermitian", 5), ("psd_real", 7), ("lorentz", 12)]
    got = run_limited(WORST_CASES, cones)
    assert [status for status, *_ in got] == ["Orientable", "NotOrientable", "NotOrientable"]
    for (kind, k), (_, seconds, q, peak) in zip(cones, got):
        assert seconds <= 5.0, (kind, k, seconds)
        # a few arrays of at most q (q^2 + q + 1) doubles; one q^2 x q^2
        # array alone is q / 8 times this bound
        assert peak <= 8 * 8 * q * (q * q + q + 1), (kind, k, peak)


# the analyze command's CHECK lines and time for rotated orthants, each
# written to a spec file in the given directory
ANALYZE_ROTATED = """
import contextlib, io, os
import numpy as np
from eudoxus import cli
tmp, dims = json.loads(sys.argv[1])
out = []
for d in dims:
    q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((d, d)))
    path = os.path.join(tmp, "rotated-%d.txt" % d)
    with open(path, "w") as fh:
        fh.write("kind = polyhedral\\ndim = %d\\n" % d)
        fh.writelines("gen = %s\\n" % ",".join(repr(float(v)) for v in g) for g in q.T)
    buf = io.StringIO()
    t = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["analyze", path])
    seconds = time.perf_counter() - t
    checks = [line for line in buf.getvalue().splitlines() if line.startswith("CHECK")]
    out.append([code, checks, seconds])
print(json.dumps(out))
"""


def test_analyze_of_large_rotated_orthants_within_time_and_memory(tmp_path):
    # about 10 and 58 s when Der came from the m dim x dim^2 Kronecker system
    dims = [48, 64]
    got = run_limited(ANALYZE_ROTATED, [str(tmp_path), dims])
    assert len(got) == len(dims)
    for d, (code, checks, seconds) in zip(dims, got):
        assert code == 0
        assert checks == [
            "CHECK derivation_dimension PASS full %d, selfadjoint %d" % (d, d),
            "CHECK facially_homogeneous PASS exhaustive",
            "CHECK orientability PASS Orientable(commutative degenerate case (quotient dimension 0))",
            "CHECK riesz PASS lattice",
            "CHECK self_dual PASS",
        ]
        assert seconds <= 3.0, (d, seconds)


# the analyze command on a Lorentz spec at the given path, under an
# address-space limit of the given MiB if one is given: exit code,
# orientability CHECK lines, stderr, seconds and peak RSS in MiB
ANALYZE_LORENTZ = """
import contextlib, io
path, dim, cap = json.loads(sys.argv[1])
if cap:
    resource.setrlimit(resource.RLIMIT_AS, (cap << 20, cap << 20))
from eudoxus import cli
with open(path, "w") as fh:
    fh.write("kind = lorentz\\ndim = %d\\n" % dim)
out, err = io.StringIO(), io.StringIO()
t = time.perf_counter()
with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
    code = cli.main(["analyze", path])
seconds = time.perf_counter() - t
checks = [line for line in out.getvalue().splitlines() if line.startswith("CHECK orientability")]
# the high-water mark of this process image: ru_maxrss would count the
# pages of the forked parent
with open("/proc/self/status") as fh:
    rss = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:")) / 1024
print(json.dumps([code, checks, err.getvalue(), seconds, rss]))
"""


@pytest.mark.parametrize("dim,max_seconds,max_rss", [(24, 5.0, 400), (32, 30.0, 1000)])
def test_analyze_of_large_lorentz_cones_within_time_and_memory(tmp_path, dim, max_seconds, max_rss):
    # so(1, 23) and so(1, 31), q = 276 and 496: 35 s and 1.08 GB, and a
    # MemoryError traceback, when the centroid folded all q adjoint maps
    path = str(tmp_path / "lorentz.txt")
    code, checks, err, seconds, rss = run_limited(ANALYZE_LORENTZ, [path, dim, None])
    assert code == 0, err
    assert checks == ["CHECK orientability PASS NotOrientable(no complex structure in centroid)"]
    assert seconds <= max_seconds, (dim, seconds)
    assert rss <= max_rss, (dim, rss)


# the analyze command on orthant(n), its spec written to the given path:
# exit code, CHECK lines and seconds
ANALYZE_ORTHANT = """
import contextlib, io
path, n = json.loads(sys.argv[1])
from eudoxus import cli
with open(path, "w") as fh:
    fh.write("kind = orthant\\ndim = %d\\n" % n)
out = io.StringIO()
t = time.perf_counter()
with contextlib.redirect_stdout(out):
    code = cli.main(["analyze", path])
seconds = time.perf_counter() - t
print(json.dumps([code, [line for line in out.getvalue().splitlines() if line.startswith("CHECK")],
                  seconds]))
"""


def test_analyze_of_orthant_128_within_two_seconds(tmp_path):
    # 2.8 s when the Der frame formed all 8128 brackets, every one zero
    code, checks, seconds = run_limited(ANALYZE_ORTHANT, [str(tmp_path / "orthant.txt"), 128])
    assert code == 0
    assert checks == [
        "CHECK derivation_dimension PASS full 128, selfadjoint 128",
        "CHECK facially_homogeneous PASS every rank by transitivity",
        "CHECK orientability PASS Orientable(commutative degenerate case (quotient dimension 0))",
        "CHECK riesz PASS lattice",
        "CHECK self_dual PASS",
    ]
    assert seconds <= 2.0, seconds


def test_analyze_out_of_memory_is_an_error_not_a_traceback(tmp_path):
    # lorentz(32) needs more than 550 MiB of address space
    path = str(tmp_path / "lorentz.txt")
    code, checks, err, _, _ = run_limited(ANALYZE_LORENTZ, [path, 32, 400])
    assert code == 2 and checks == []
    assert err.startswith("error: out of memory (") and "Traceback" not in err


@pytest.mark.parametrize("sp", [ConeSpace.hermitian(3), ConeSpace.hermitian(4), ConeSpace.lorentz(7)],
                         ids=repr)
def test_centre_and_quotient_need_no_orth_and_no_tall_svd(monkeypatch, sp):
    # the centre and the quotient come from the 2n x n maps of two generic
    # elements, where the matrix-space path stacked n d^2 rows and ran
    # orth three times; _centroid's own systems are not counted
    n = len(derivation_basis(sp))  # builds the cached frame first
    orth_calls, svd_rows, in_centroid = [], [], []
    orth, svd, centroid = scipy.linalg.orth, np.linalg.svd, derivation_algebra._centroid

    def counting_orth(*args, **kwargs):
        orth_calls.append(1)
        return orth(*args, **kwargs)

    def counting_svd(a, *args, **kwargs):
        if not in_centroid:
            svd_rows.append(np.shape(a)[0])
        return svd(a, *args, **kwargs)

    def uncounted_centroid(*args):
        in_centroid.append(1)
        try:
            return centroid(*args)
        finally:
            in_centroid.pop()
    monkeypatch.setattr(scipy.linalg, "orth", counting_orth)
    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    monkeypatch.setattr(derivation_algebra, "_centroid", uncounted_centroid)
    orientability(sp)
    assert orth_calls == []
    assert svd_rows and max(svd_rows) <= 2 * n


@pytest.mark.parametrize("sp, want", [
    (ConeSpace.lorentz(24), []),
    (ConeSpace.hermitian(5), [("eigh", (1, 5, 5))]),
    (ngon_cone(7), []),
], ids=repr)
def test_spectral_faces_make_no_operator_sized_eigen_call(monkeypatch, sp, want):
    # the faces come from the spectral values of delta e (in closed form on
    # lorentz, one batched k x k eigh on a matrix kind) or the ray quotients,
    # where one dim x dim eigvalsh of delta clustered all its eigenvalues
    delta = _spectrum_case(sp, 5, "generic")
    derivation_basis(sp)  # builds the cached frame first
    shapes = []

    def recording(name, f):
        def wrapped(a, *args, **kwargs):
            shapes.append((name, np.shape(a)))
            return f(a, *args, **kwargs)
        return wrapped
    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, recording(name, getattr(np.linalg, name)))
    spectral_faces(sp, delta)
    assert all(shape != (sp.dim, sp.dim) for _, shape in shapes)
    assert shapes == want
