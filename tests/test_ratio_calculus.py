import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eudoxus import face_lattice, ratio_calculus
from eudoxus.cone_space import ConeSpace, sym_to_vec
from eudoxus.conjunct_product import DimWord, Quantity, conjunct
from eudoxus.derivation_algebra import Derivation, selfadjoint_derivations, spectral_faces
from eudoxus.exact_rational import FractionCutOracle
from eudoxus.face_lattice import face_of, facial_derivative, minimal_decomposition
from eudoxus.ratio_calculus import (
    JordanOnly,
    NotAnOrderUnit,
    NotComparable,
    Ratio,
    add,
    classic_ratio_equal,
    compose,
    compositio_check,
    cuts_equal,
    eudoxus_equal_three,
    eudoxus_equal_two,
    ex_aequali_check,
    from_derivation,
    quadrature_demo,
    quadrature_ratio_demo,
    ratio_equal,
    RealOracleFromValue,
    ratio_from_pair,
    to_derivation,
)
from references import eager_decomposition, incomparable, ngon_cone, rotated_orthant

positive_fractions = st.fractions(min_value=Fraction(1, 50),
                                  max_value=Fraction(100),
                                  max_denominator=50)


def _orthant_ratio(lams, sp=None):
    sp = sp or ConeSpace.orthant(len(lams))
    a = np.ones(len(lams))
    return ratio_from_pair(sp, np.array(lams, dtype=float), a, max_den=64)


def test_ratio_from_pair_orthant():
    sp = ConeSpace.orthant(2)
    r = ratio_from_pair(sp, np.array([2.0, 6.0]), np.array([1.0, 2.0]))
    assert sorted(r.lambdas()) == pytest.approx([2.0, 3.0])
    for lam, bracket, _ in r.decomposition:
        lo, hi = bracket
        assert lo == hi == Fraction(lam)
    assert min(r.lambdas()) > 0


def test_ratio_rejects_non_order_unit_consequent():
    sp = ConeSpace.orthant(2)
    with pytest.raises(NotAnOrderUnit):
        ratio_from_pair(sp, np.array([1.0, 1.0]), np.array([1.0, 0.0]))


def test_ratio_rejects_non_diagonal_antecedent():
    # the antecedent solves a derivation equation, but the consequent
    # diag(1, 2) is not diagonal in that derivation's eigenbasis
    sp = ConeSpace.psd_real(2)
    a = sym_to_vec(np.diag([1.0, 2.0]))
    a_prime = sym_to_vec(np.array([[0.0, 3.0], [3.0, 0.0]]))
    with pytest.raises(NotComparable):
        ratio_from_pair(sp, a_prime, a)


def test_negative_multiplier_is_admitted_without_a_bracket():
    sp = ConeSpace.orthant(2)
    r = ratio_from_pair(sp, np.array([-1.0, 2.0]), np.array([1.0, 1.0]))
    assert sorted(r.lambdas()) == pytest.approx([-1.0, 2.0])
    lam, bracket, _ = min(r.decomposition, key=lambda e: e[0])
    assert bracket is None


def test_to_derivation_maps_consequent_to_antecedent():
    sp = ConeSpace.orthant(3)
    a = np.array([1.0, 2.0, 1.0])
    a_prime = np.array([0.5, 6.0, 0.5])
    r = ratio_from_pair(sp, a_prime, a)
    d = to_derivation(r)
    assert np.allclose(d(a), a_prime, atol=1e-9)


def test_derivation_roundtrip_all_kinds():
    rng = np.random.default_rng(17)
    for sp in (ConeSpace.orthant(3), ConeSpace.lorentz(3),
               ConeSpace.psd_real(2), ConeSpace.hermitian(2)):
        basis = selfadjoint_derivations(sp)
        for _ in range(10):
            coef = rng.uniform(0.2, 2.0, len(basis))
            d = Derivation(sp, sum(c * b.mat for c, b in zip(coef, basis)))
            r = from_derivation(sp, d, max_den=64)
            back = to_derivation(r)
            assert np.linalg.norm(back.mat - d.mat) < 1e-9 * max(1.0, d.norm())
            assert ratio_equal(from_derivation(sp, back, max_den=64), r)


def test_ratio_equal_and_not_comparable():
    sp = ConeSpace.psd_real(2)
    u = sp.canonical_unit()
    r = ratio_from_pair(sp, sym_to_vec(np.diag([1.0, 2.0])), u)
    s = ratio_from_pair(sp, sym_to_vec(np.array([[2.0, 1.0], [1.0, 2.0]])), u)
    assert ratio_equal(r, r)
    assert ratio_equal(r, r, max_den=1000)
    with pytest.raises(NotComparable):
        ratio_equal(r, s)


@pytest.mark.parametrize("scale", [1.0, 1e150, 1e155])
def test_commutation_is_decided_where_the_norm_product_overflows(scale):
    # ||dr|| ||ds|| overflows above about 1e154; the test runs on the
    # _pow2_scaled operators, so every scale decides as scale 1 does
    sp = ConeSpace.psd_real(2)
    u = sp.canonical_unit()
    r = ratio_from_pair(sp, scale * sym_to_vec(np.diag([1.0, 2.0])), u)
    s = ratio_from_pair(sp, scale * sym_to_vec(np.array([[2.0, 1.0], [1.0, 2.0]])), u)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for max_den in (None, 10**6):
            with pytest.raises(NotComparable):
                ratio_equal(r, s, max_den=max_den)
            assert ratio_equal(r, r, max_den=max_den)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_the_residual_test_of_a_pair_holds_where_its_norm_overflows():
    # |a'| overflows above about 1e154, and inf > 1e-8 inf is false: the
    # residual test accepted any antecedent.  It runs on the _pow2_scaled
    # residual and antecedent, so each scale decides as scale 1 does
    sp = ConeSpace.psd_real(2)
    r = ratio_from_pair(sp, 1e155 * sym_to_vec(np.diag([1.0, 2.0])), sp.canonical_unit())
    assert r.lambdas() == pytest.approx([1e155, 2e155], rel=1e-12)
    # on the 5-gon cone Der is the scalars: only multiples of the unit
    # are face-diagonal over it
    sp = ngon_cone(5)
    u = sp.canonical_unit()
    for scale in (1.0, 1e155):
        with pytest.raises(NotComparable, match="not face-diagonal"):
            ratio_from_pair(sp, scale * (u + np.array([0.0, 0.1, 0.0])), u)
        assert ratio_from_pair(sp, scale * u, u).lambdas() == pytest.approx([scale], rel=1e-12)


@given(seed=st.integers(0, 2**16), scale=st.sampled_from([1e-100, 1e-6, 1.0, 1e6, 1e100]),
       off=st.sampled_from([0.0, 1e-9, 5e-9, 1e-8, 2e-8, 1e-7, 1.0]))
@settings(max_examples=150)
def test_the_residual_test_of_a_pair_is_the_raw_rule_where_its_norms_are_finite(seed, scale, off):
    # on the 5-gon cone Der is the scalars: an antecedent off the unit's
    # line by about off (relative) straddles the 1e-8 residual band
    sp = ngon_cone(5)
    u = sp.canonical_unit()
    a_prime = scale * (u + off * np.random.default_rng(seed).standard_normal(3))
    A = (sp._selfadjoint_mats @ u).T
    coef = np.linalg.lstsq(A, a_prime, rcond=None)[0]
    raw = np.linalg.norm(A @ coef - a_prime) > 1e-8 * max(1.0, np.linalg.norm(a_prime))
    assert (ratio_calculus._solve_selfadjoint_derivation(sp, u, a_prime) is None) == raw


def test_ratio_equal_distinguishes_unequal_comparable():
    r = _orthant_ratio([1.0, 2.0])
    s = _orthant_ratio([1.0, 3.0])
    assert not ratio_equal(r, s)
    assert not ratio_equal(r, s, max_den=100)


def _square_ratio(sp):
    # the polyhedral cone of the orthogonal rays (3, 1) and (-1, 3)
    return ratio_from_pair(sp, np.array([1.1, 2.3]), np.ones(2), max_den=64)


def test_ratios_over_different_cones_are_not_comparable():
    r = _orthant_ratio([1.0, 2.0, 3.0])
    s = ratio_from_pair(ConeSpace.lorentz(3), np.array([2.0, 0.5, 0.0]),
                        np.array([1.0, 0.0, 0.0]), max_den=64)
    qr, qs = Quantity(r, DimWord(("a",))), Quantity(s, DimWord(("b",)))
    for run in (lambda: compose(r, s), lambda: add(r, s), lambda: ratio_equal(r, s),
                lambda: conjunct(qr, qs)):
        with pytest.raises(NotComparable, match="ratios live over different cones"):
            run()
    # two polyhedral cones built apart from one presentation are one cone
    gens = [np.array([3.0, 1.0]), np.array([-1.0, 3.0])]
    r, s = (_square_ratio(ConeSpace.polyhedral(gens)) for _ in range(2))
    assert r.host is not s.host
    assert ratio_equal(r, s) and ratio_equal(r, s, max_den=64)
    assert sorted(compose(r, s).lambdas()) == pytest.approx([1.4 ** 2, 2.9 ** 2])
    assert sorted(add(r, s).lambdas()) == pytest.approx([2.8, 5.8])
    q = conjunct(Quantity(r, DimWord(("a",))), Quantity(s, DimWord(("b",))))
    assert sorted(q.magnitude.lambdas()) == pytest.approx([1.4 ** 2, 2.9 ** 2])


def test_joint_eigenvalues_group_as_spectral_faces_do():
    # 1 and 1.005 beside 1e6, and 1 and 2 beside 1e9, are distinct eigenvalues:
    # a band of 1e-8 max|v| merged them
    B = np.diag([5.0, 6.0, 7.0, 8.0])
    for w in ([1.005, 1.0, 1e6, 1.005], [2.0, 1.0, 1e9, 2.0]):
        pairs = ratio_calculus._joint_eigenvalues(np.diag(w), B)
        assert pairs == [(w[1], 6.0), (w[0], 5.0), (w[0], 8.0), (w[2], 7.0)]
        r = ratio_from_pair(ConeSpace.orthant(3), np.array(w[1:]), np.ones(3))
        assert sorted(r.lambdas()) == sorted(w[1:])


def test_compose_decides_symmetry_as_spectral_faces_does():
    # dr ds is 1.6e-9 off symmetric (relative): above the one 1e-9 band,
    # so compose returns the symmetrized product and does not pass it on
    sp = ConeSpace.lorentz(3)
    r = ratio_from_pair(sp, np.array([1.0, 5e-8, 0.0]), np.array([1.0, 0.0, 0.0]))
    for t in (15.0, 20.0, 25.0):
        s = ratio_from_pair(sp, np.array([t, 0.0, 1.0]), np.array([1.0, 0.0, 0.0]))
        assert isinstance(compose(r, s), JordanOnly)


def test_compose_commuting_ratios():
    r = _orthant_ratio([2.0, 3.0])
    s = _orthant_ratio([5.0, 7.0])
    rs = compose(r, s, max_den=64)
    assert isinstance(rs, Ratio)
    assert sorted(rs.lambdas()) == pytest.approx([10.0, 21.0])


def test_compose_noncommuting_falls_back_to_jordan():
    sp = ConeSpace.psd_real(2)
    u = sp.canonical_unit()
    r = ratio_from_pair(sp, sym_to_vec(np.diag([1.0, 2.0])), u)
    s = ratio_from_pair(sp, sym_to_vec(np.array([[2.0, 1.0], [1.0, 2.0]])), u)
    out = compose(r, s)
    assert isinstance(out, JordanOnly)
    dr, ds = to_derivation(r).mat, to_derivation(s).mat
    assert np.allclose(out.derivation.mat, (dr @ ds + ds @ dr) / 2, atol=1e-12)


def test_add_ratios():
    r = _orthant_ratio([2.0, 3.0])
    s = _orthant_ratio([5.0, 7.0])
    total = add(r, s, max_den=64)
    assert sorted(total.lambdas()) == pytest.approx([7.0, 10.0])


@given(a=positive_fractions, b=positive_fractions)
@settings(max_examples=100, deadline=None)
def test_cut_equality_variants_agree(a, b):
    o1, o2 = FractionCutOracle(a), FractionCutOracle(b)
    probes = [Fraction(m, n) for m in range(1, 8) for n in range(1, 8)] + [a, b]
    three = eudoxus_equal_three(o1, o2, probes)
    two = eudoxus_equal_two(o1, o2, probes)
    assert three == two
    if a == b:
        assert three
        assert cuts_equal(o1, o2, 100)
    else:
        assert cuts_equal(o1, o2, max(a.denominator, b.denominator)) == (a == b)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0, -1.0])
def test_banded_oracle_rejects_non_finite_and_non_positive(value):
    # a NaN cut is never hit nor above, so its bracket would never end
    with pytest.raises(ValueError):
        RealOracleFromValue(value)


@given(a=positive_fractions, b=positive_fractions, c=positive_fractions,
       k=positive_fractions)
@settings(max_examples=100, deadline=None)
def test_ex_aequali_exact(a, b, c, k):
    # perturbed hypothesis: a:b = b':c' and b:c = a':b'
    bp = k * b
    cp = k * b * b / a
    ap = k * b * b / c
    assert ex_aequali_check(a, b, c, ap, bp, cp) is True


def test_ex_aequali_vacuous():
    assert ex_aequali_check(1, 2, 3, 4, 5, 6) == "Vacuous"


@given(ap=positive_fractions, a=positive_fractions, k=positive_fractions)
@settings(max_examples=100, deadline=None)
def test_compositio_exact(ap, a, k):
    assert compositio_check(ap, a, k * ap, k * a) is True


def test_compositio_vacuous():
    assert compositio_check(1, 2, 2, 3) == "Vacuous"


def test_quadrature_brackets_one_third():
    k = 1024
    lower, upper, gap = quadrature_demo(lambda x: x * x, k)
    # exact step sums of the square
    assert lower == Fraction((k - 1) * k * (2 * k - 1), 6 * k**3)
    assert upper == Fraction(k * (k + 1) * (2 * k + 1), 6 * k**3)
    assert lower < Fraction(1, 3) < upper
    assert upper - lower == Fraction(1, k)
    assert gap == upper / lower - 1


def test_quadrature_bracket_tightens_with_refinement():
    widths = [quadrature_demo(lambda x: x * x, k)[1]
              - quadrature_demo(lambda x: x * x, k)[0]
              for k in (4, 16, 64)]
    assert widths == [Fraction(1, 4), Fraction(1, 16), Fraction(1, 64)]


def test_quadrature_fixed_column_ratio_transfers():
    rho, low_ok, up_ok = quadrature_ratio_demo(lambda x: x * x,
                                               lambda x: 2 * x * x, 128)
    assert rho == 2
    assert low_ok and up_ok


def test_quadrature_rejects_non_monotone():
    with pytest.raises(ValueError):
        quadrature_demo(lambda x: x - x * x, 16)


def test_classic_ratio_equal():
    assert classic_ratio_equal(2, 3, 4, 6)
    assert not classic_ratio_equal(2, 3, 5, 6)


# ---------------------------------------------------------------------------
# to_derivation: the closed form L(sum lam_i c_i) against the projector sum

def projector_to_derivation(r):
    """The projector form of to_derivation, the reference for the closed
    form: sum lam_i (1/2)(I + P_F_i - P_F_i-perp) over the faces F_i of
    the decomposition pieces."""
    total = np.zeros((r.host.dim, r.host.dim))
    for lam, _, piece in r.decomposition:
        total = total + lam * facial_derivative(face_of(r.host, piece)).mat
    return total


ALL_KINDS = ([ConeSpace.orthant(n) for n in (1, 3, 8, 24)]
             + [ConeSpace.lorentz(n) for n in (2, 3, 8, 24)]
             + [ConeSpace.psd_real(k) for k in (1, 2, 3, 5)]
             + [ConeSpace.hermitian(k) for k in (1, 2, 3, 5)]
             + [rotated_orthant(3, 1), rotated_orthant(5, 2), ngon_cone(3), ngon_cone(5)])


def _random_ratio(sp, seed, repeated, unit):
    """A ratio over sp from a random self-adjoint derivation: integer
    coefficients give repeated eigenvalues; unit picks the sum of the
    spectral-face units as consequent, else a random element split
    along the spectral faces (pieces that are not idempotents)."""
    rng = np.random.default_rng(seed)
    basis = selfadjoint_derivations(sp)
    coef = rng.integers(-2, 3, len(basis)) if repeated else rng.standard_normal(len(basis))
    delta = sum(c * b.mat for c, b in zip(coef, basis))
    if unit:
        return from_derivation(sp, delta, max_den=64)
    x = sp.sample_interior_point(rng)
    a = sum(F.projector @ x for _, F in spectral_faces(sp, delta))
    return ratio_from_pair(sp, delta @ a, a, max_den=64)


@given(sp=st.sampled_from(ALL_KINDS), seed=st.integers(0, 2**16),
       repeated=st.booleans(), unit=st.booleans())
@settings(max_examples=150)
def test_to_derivation_matches_the_projector_sum(sp, seed, repeated, unit):
    r = _random_ratio(sp, seed, repeated, unit)
    want = projector_to_derivation(r)
    got = to_derivation(r).mat
    assert np.linalg.norm(got - want) <= 1e-12 * max(1.0, np.linalg.norm(want))


def test_to_derivation_on_a_simplicial_cone_that_is_not_self_dual():
    # a narrow cone in the (x, y) plane times the ray along z: its first two
    # extreme rays are not orthogonal, so their facial derivatives do not
    # add up to the derivation that is 1 on their span
    sp = ConeSpace.polyhedral([np.array([1.0, 0.2, 0.0]), np.array([0.2, 1.0, 0.0]),
                               np.array([0.0, 0.0, 1.0])])
    assert not sp.is_self_dual()
    delta = np.diag([1.0, 1.0, 3.0])
    r = from_derivation(sp, delta, max_den=64)
    assert r.lambdas() == [1.0, 1.0, 3.0]
    assert np.linalg.norm(to_derivation(r).mat - delta) <= 1e-12
    half = from_derivation(sp, 0.5 * np.eye(3), max_den=64)
    assert np.linalg.norm(to_derivation(half).mat - 0.5 * np.eye(3)) <= 1e-12


def test_simplicial_pieces_are_lattice_disjoint_not_incomparable():
    # the unit splits into its two extreme-ray pieces, which are not
    # orthogonal; a ratio over it still round-trips through its derivation
    sp = ConeSpace.polyhedral([np.array([1.0, 0.2]), np.array([0.2, 1.0])])
    u = sp.canonical_unit()
    (a, x), (b, y) = minimal_decomposition(sp, u)
    assert np.linalg.norm(a * x + b * y - u) <= 1e-12
    assert not incomparable(sp, a * x, b * y)
    r = ratio_from_pair(sp, 3.0 * u, u, max_den=64)
    assert len(r.decomposition) == 2
    delta = to_derivation(r).mat
    assert np.linalg.norm(delta - 3.0 * np.eye(2)) <= 1e-12
    assert np.linalg.norm(delta @ r.consequent - r.antecedent) <= 1e-12
    # the Rayleigh quotients r^T delta r / r^T r of delta = 3 I round to
    # 3 + 1 ulp on these rays: within the per-run bound of one ulp a value
    back = from_derivation(sp, delta, max_den=64).lambdas()
    assert len(back) == 2 and all(abs(l - m) <= 2 * np.spacing(m)
                                  for l, m in zip(back, r.lambdas()))


def _counting(calls, name, f):
    def wrapped(*args, **kwargs):
        calls.append(name)
        return f(*args, **kwargs)
    return wrapped


@pytest.mark.parametrize("sp, builds_faces", [
    (ConeSpace.orthant(4), False), (ConeSpace.lorentz(5), False),
    (ConeSpace.psd_real(3), False), (ConeSpace.hermitian(3), False),
    (rotated_orthant(3, 1), True)], ids=repr)
def test_to_derivation_builds_no_face_on_a_jordan_kind(monkeypatch, sp, builds_faces):
    r = _random_ratio(sp, 5, False, True)
    calls = []
    monkeypatch.setattr(face_lattice, "face_of", _counting(calls, "face_of", face_lattice.face_of))
    for name in ("_faces_of", "_orthogonal_faces"):
        monkeypatch.setattr(sp, name, _counting(calls, name, getattr(sp, name)))
    monkeypatch.setattr(face_lattice.Face, "__init__",
                        _counting(calls, "Face", face_lattice.Face.__init__))
    to_derivation(r)
    # a polyhedral cone keeps the projector sum: one stacked call of each
    # face hook over all the pieces, and no Face
    assert calls == (["_faces_of", "_orthogonal_faces"] if builds_faces else [])


def test_ratio_equal_and_compose_build_each_derivation_once(monkeypatch):
    sp = ConeSpace.psd_real(2)
    u = sp.canonical_unit()
    r = ratio_from_pair(sp, sym_to_vec(np.diag([1.0, 2.0])), u)
    s = ratio_from_pair(sp, sym_to_vec(np.array([[2.0, 1.0], [1.0, 2.0]])), u)
    calls = []
    monkeypatch.setattr(ratio_calculus, "to_derivation", _counting(calls, "to", to_derivation))
    for run in (lambda: ratio_equal(r, r), lambda: ratio_equal(r, r, max_den=1000),
                lambda: compose(r, s)):
        calls.clear()
        run()
        assert len(calls) == 2
    calls.clear()
    with pytest.raises(NotComparable):
        ratio_equal(r, s)
    assert len(calls) == 2


# ---------------------------------------------------------------------------
# brackets are computed when decomposition is read, once per multiplier

def _count_brackets(monkeypatch):
    calls = []
    monkeypatch.setattr(ratio_calculus, "stern_brocot_bracket",
                        _counting(calls, "bracket", ratio_calculus.stern_brocot_bracket))
    return calls


@pytest.mark.parametrize("sp", [ConeSpace.orthant(4), ConeSpace.lorentz(5), ConeSpace.psd_real(3),
                                ConeSpace.hermitian(2), rotated_orthant(3, 1)], ids=repr)
def test_building_composing_and_adding_ratios_computes_no_bracket(monkeypatch, sp):
    calls = _count_brackets(monkeypatch)
    r = _random_ratio(sp, 5, False, True)  # from_derivation
    s = _random_ratio(sp, 6, False, False)  # ratio_from_pair
    for out in (compose(r, r), compose(r, s), add(r, s), add(r, r)):
        if isinstance(out, Ratio):
            out.lambdas()
            to_derivation(out)
    assert min(len(r.pieces), len(s.pieces)) > 0
    assert calls == []


@pytest.mark.parametrize("sp, antecedent, distinct", [
    (ConeSpace.orthant(5), np.array([2.0, 2.0, 3.0, -1.0, 0.0]), 2),
    (ConeSpace.psd_real(3), sym_to_vec(np.diag([2.0, 2.0, 3.0])), 2),
    (ConeSpace.lorentz(3), np.array([0.0, 0.0, 0.0]), 0)], ids=["orthant", "psd_real", "zero"])
def test_decomposition_brackets_each_distinct_multiplier_once(monkeypatch, sp, antecedent,
                                                              distinct):
    calls = _count_brackets(monkeypatch)
    r = ratio_from_pair(sp, antecedent, sp.canonical_unit(), max_den=64)
    assert calls == []
    entries = r.decomposition
    assert len(calls) == distinct < len(entries) == len(r.pieces)
    assert [lam for lam, _, _ in entries] == r.lambdas()
    assert all((b is None) == (lam <= ratio_calculus.TOL) for lam, b, _ in entries)
    assert r.decomposition is entries and len(calls) == distinct


def test_a_ratio_refuses_a_max_den_below_one():
    sp = ConeSpace.orthant(2)
    with pytest.raises(ValueError, match="max_den must be a positive integer"):
        ratio_from_pair(sp, np.array([0.0, 0.0]), np.ones(2), max_den=0)


@given(sp=st.sampled_from(ALL_KINDS), seed=st.integers(0, 2**16), repeated=st.booleans(),
       unit=st.booleans(), max_den=st.sampled_from([1, 64, 10**6]))
@settings(max_examples=150)
def test_lazy_decomposition_equals_the_eager_reference(sp, seed, repeated, unit, max_den):
    # the delta and consequent of _random_ratio, through _ratio_from_family
    # itself so that both sides split one family
    rng = np.random.default_rng(seed)
    basis = selfadjoint_derivations(sp)
    coef = rng.integers(-2, 3, len(basis)) if repeated else rng.standard_normal(len(basis))
    delta = sum(c * b.mat for c, b in zip(coef, basis))
    family = spectral_faces(sp, delta)
    a = (family.witnesses.sum(axis=0) if unit
         else family.projectors.sum(axis=0) @ sp.sample_interior_point(rng))
    r = ratio_calculus._ratio_from_family(sp, delta, family, a, max_den)
    want = eager_decomposition(sp, family, a, max_den)
    got = r.decomposition
    assert len(got) == len(want)
    for (lam, bracket, comp), (lam_w, bracket_w, comp_w) in zip(got, want):
        assert lam == lam_w and bracket == bracket_w
        assert np.array_equal(comp, comp_w)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_lorentz_ratio_past_the_square_range_keeps_finite_multipliers():
    # |z|^2 overflows above about 1.3e154: the multipliers read nan, and the
    # brackets, had they run, would have been refused
    sp = ConeSpace.lorentz(3)
    r = ratio_from_pair(sp, np.array([1e200, 5e199, 0.0]), sp.canonical_unit())
    assert r.lambdas() == pytest.approx([5e199, 1.5e200], rel=1e-12)
    assert [b is not None for _, b, _ in r.decomposition] == [True, True]
