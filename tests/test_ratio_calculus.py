import itertools
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eudoxus import cone_space, face_lattice, ratio_calculus
from eudoxus.cone_space import TOL, ConeSpace, sym_to_vec
from eudoxus.conjunct_product import DimWord, Quantity, conjunct
from eudoxus.derivation_algebra import (
    Derivation,
    SpectralFaceFamily,
    reconstruct_from_faces,
    selfadjoint_derivations,
    spectral_faces,
)
from eudoxus.exact_rational import FractionCutOracle, stern_brocot_bracket
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
from references import (
    cuts_equal,
    eager_decomposition,
    herm_to_vec,
    incomparable,
    ngon_cone,
    rotated_orthant,
    two_bracket_ratio_equal,
)
from test_face_lattice import _tilted_orthant

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


@pytest.mark.parametrize("sp, to_vec", [(ConeSpace.psd_real(4), sym_to_vec),
                                        (ConeSpace.hermitian(4), herm_to_vec)], ids=["psd_real", "herm"])
def test_the_common_frame_splits_each_run_of_close_values(sp, to_vec):
    # a repeats 1.005 (or 2) beside a far larger value, and b, which commutes
    # with a, splits that run: each pair is a multiplier of each ratio, four
    # pairs over the frame and no Peirce mean, and 1 stays apart from 1.005
    # beside 1e6 and from 2 beside 1e9.  a's 1 and 1 + 2e-8 beside 1e4 are
    # kept apart by _cluster, but eigh reads their eigenvectors to within
    # about eps 1e4 / 2e-8, or 1e-4, which would move b by 1e-4 of its norm
    # off a's own frame: b tells them apart on the frame of both.  Where
    # b ties 2 and 2 + 1e-13 and a has 1 and 1 + 1e-6 there, a tells them
    # apart, in either order
    q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((4, 4)))
    u = sp.canonical_unit()
    close, tied = [1.0, 1.0 + 1e-6, 5.0, 3.0], [2.0, 2.0 + 1e-13, 7.0, 8.0]
    for w, mus in (([1.005, 1.0, 1e6, 1.005], [5.0, 6.0, 7.0, 8.0]),
                   ([2.0, 1.0, 1e9, 2.0], [5.0, 6.0, 7.0, 8.0]),
                   ([1.0, 1.0 + 2e-8, 1e4, 3.0], [5.0, 6.0, 7.0, 8.0]),
                   (close, tied), (tied, close)):
        r = ratio_from_pair(sp, to_vec(q @ np.diag(w) @ q.T), u)
        s = ratio_from_pair(sp, to_vec(q @ np.diag(mus) @ q.T), u)
        for x, y, want in ((r, s, sorted(zip(w, mus))), (s, r, sorted(zip(mus, w)))):
            got = sorted(zip(*ratio_calculus._multiplier_pairs(x, y)))
            assert np.allclose(got, want, rtol=1e-9, atol=1e-15 * max(w))
            for max_den in (None, 64, 10**6):
                assert ratio_equal(x, y, max_den=max_den) is False
        r = ratio_from_pair(ConeSpace.orthant(3), np.array(w[1:]), np.ones(3))
        assert sorted(r.lambdas()) == sorted(w[1:])


def test_a_commuting_pair_whose_combination_repeats_a_value_is_comparable():
    # A + t B, t = (sqrt 5 - 1)/2, has the repeated eigenvalue 1.5 + t/2,
    # which A and B do not share: a frame read off that one combination
    # could not rebuild A and B.  A's own frame has two values
    t = (math.sqrt(5.0) - 1.0) / 2.0
    c, sn = math.cos(0.3), math.sin(0.3)
    q = np.array([[c, -sn], [sn, c]])
    sp = ConeSpace.psd_real(2)
    u = sp.canonical_unit()
    r = ratio_from_pair(sp, sym_to_vec(q @ np.diag([1.5, 1.5 - t / 2.0]) @ q.T), u)
    s = ratio_from_pair(sp, sym_to_vec(q @ np.diag([1.0, 1.5]) @ q.T), u)
    for x, y in ((r, s), (s, r)):
        for max_den in (None, 64, 10**6):
            assert ratio_equal(x, y, max_den=max_den) is False
        assert two_bracket_ratio_equal(x, y, 64)[0] is False


@pytest.mark.parametrize("t, z", [(1.0, 0.0), (1.0, 0.5), (1e4, 1.5e-4), (1e4, 1.0)])
def test_a_lorentz_pair_reads_the_frame_of_the_wider_split(t, z):
    # a = (t, z d + 8e-16 t n) for unit d and n normal to it, d off by
    # round-off of t, and b = (2.5, d), which comes second in the order
    # _frame_pairs takes: the frame is the one of the larger |z| against
    # the norm, a's at (1, 0.5) and b's otherwise.  a = e has every frame
    # (its own would take e_1, off d).  At 1e4 a's values 1e4 +- 1.5e-4
    # lie past _cluster's band, but its own frame is 5e-8 off d, which
    # would move b by 2e-8 of its norm and fail the commutation test that
    # the operators pass (||[L(a), L(b)]|| is 4e-16 of ||L(a)|| ||L(b)||);
    # b's d moves a by 8e-16 of its norm
    sp = ConeSpace.lorentz(4)
    e = sp.canonical_unit()
    d, n = np.array([0.0, 0.6, 0.8]), np.array([0.0, 0.8, -0.6])
    r = ratio_from_pair(sp, np.r_[t, z * d + 8e-16 * t * n], e)
    s = ratio_from_pair(sp, np.r_[2.5, d], e)
    want = [(t - z, 1.5), (t + z, 3.5)]
    for x, y, pairs in ((r, s, want), (s, r, [p[::-1] for p in want])):
        got = sorted(zip(*ratio_calculus._multiplier_pairs(x, y)))
        assert np.allclose(got, sorted(pairs), rtol=1e-12)
        for max_den in (None, 64, 10**6):
            assert ratio_equal(x, y, max_den=max_den) is False


def test_the_lorentz_pair_that_compose_calls_non_commuting_is_not_comparable():
    # a = (1, 5e-8, 0) has two values 1e-7 apart, which its frame keeps
    # apart, and b = (25, 0, 1) lies 1/25 of its norm off that frame.  The
    # commutator test passed this pair (||[L(a), L(b)]|| about 7e-8 against
    # 1e-8 ||L(a)|| ||L(b)||) and compared it, where compose, from the
    # symmetry of the product, calls it non-commuting
    sp = ConeSpace.lorentz(3)
    e = sp.canonical_unit()
    r = ratio_from_pair(sp, np.array([1.0, 5e-8, 0.0]), e)
    s = ratio_from_pair(sp, np.array([25.0, 0.0, 1.0]), e)
    for x, y in ((r, s), (s, r)):
        for max_den in (None, 64, 10**6):
            with pytest.raises(NotComparable, match="matched decomposition"):
                ratio_equal(x, y, max_den=max_den)
    assert isinstance(compose(r, s), JordanOnly)

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


@pytest.mark.parametrize("sp", [ConeSpace.orthant(4), ConeSpace.lorentz(5), ConeSpace.psd_real(3),
                                ConeSpace.hermitian(3), rotated_orthant(3, 1), ngon_cone(5)],
                         ids=repr)
def test_to_derivation_builds_no_face_on_any_kind(monkeypatch, sp):
    # L(sum lam_i c_i) on a Jordan kind, R diag(mu) R+ over the extreme rays
    # on a polyhedral cone, with mu read off the pieces' face masks
    r = _random_ratio(sp, 5, False, True)
    calls = []
    monkeypatch.setattr(face_lattice, "face_of", _counting(calls, "face_of", face_lattice.face_of))
    for name in ("_faces_of", "_orthogonal_faces"):
        monkeypatch.setattr(sp, name, _counting(calls, name, getattr(sp, name)))
    monkeypatch.setattr(face_lattice.Face, "__init__",
                        _counting(calls, "Face", face_lattice.Face.__init__))
    to_derivation(r)
    assert calls == []


@pytest.mark.parametrize("sp", [ConeSpace.orthant(4), ConeSpace.lorentz(5), ConeSpace.psd_real(3),
                                ConeSpace.hermitian(3)], ids=repr)
def test_the_operator_of_a_ratio_or_family_split_off_a_frame_takes_no_spectral_call(monkeypatch,
                                                                                    sp):
    # their pieces are frame elements and their witnesses sums of them, each
    # its own support idempotent; the public constructors decompose theirs
    rng = np.random.default_rng(3)
    basis = selfadjoint_derivations(sp)
    delta = sum(c * b.mat for c, b in zip(rng.standard_normal(len(basis)), basis))
    u = sp.canonical_unit()
    r = from_derivation(sp, delta, max_den=64)
    twice = from_derivation(sp, 2.0 * np.eye(sp.dim), max_den=64)
    built = {"from_derivation": r,
             "ratio_from_pair": ratio_from_pair(sp, delta @ u, u, max_den=64),
             "compose": compose(r, twice, max_den=64),
             "add": add(r, twice, max_den=64)}
    family = spectral_faces(sp, delta)
    calls = []
    monkeypatch.setattr(sp, "_spectral", _counting(calls, "spectral", sp._spectral))
    for how, ratio in built.items():
        assert isinstance(ratio, Ratio), how
        to_derivation(ratio)
        assert calls == [], how
    reconstruct_from_faces(sp, family)
    assert calls == []
    to_derivation(Ratio(sp, r.antecedent, r.consequent, r.pieces, 64))
    assert calls == ["spectral"]
    reconstruct_from_faces(sp, SpectralFaceFamily(sp, family.lams, family.projectors,
                                                  family.witnesses))
    assert calls == ["spectral"] * 2


def _commuting_pair(sp, seed, case):
    """Two commuting ratios over sp: a random one and one from a I + b delta
    (generic), from integer coefficients and twice them plus I, with
    repeated multipliers (repeated), from (1 + eps) delta, eps from 1e-13
    to 1e-5, whose brackets may or may not overlap (near), from
    delta + 1e-9 I, whose Peirce means on a Jordan kind may be bracketed
    apart where its multipliers are not (shifted), or two on the faces of
    a random one, the first with two multipliers close beside a large one
    (_close_multipliers) and the second with random ones (close)."""
    rng = np.random.default_rng(seed)
    basis = selfadjoint_derivations(sp)
    n = len(basis)
    coef = rng.integers(-2, 3, n) if case == "repeated" else rng.standard_normal(n)
    delta = sum(c * b.mat for c, b in zip(coef, basis))
    if case == "close":
        witnesses = spectral_faces(sp, delta).witnesses
        delta, other = (sp._ratio_derivation(lams, witnesses) for lams in
                        (_close_multipliers(rng, len(witnesses)), rng.uniform(-2, 2, len(witnesses))))
    else:
        other = {"generic": rng.uniform(-2, 2) * np.eye(sp.dim) + rng.uniform(0.5, 2) * delta,
                 "repeated": 2.0 * delta + np.eye(sp.dim),
                 "near": (1.0 + 10.0 ** -rng.integers(5, 14)) * delta,
                 "shifted": delta + 1e-9 * np.eye(sp.dim)}[case]
    return from_derivation(sp, delta, max_den=64), from_derivation(sp, other, max_den=64)


def _close_multipliers(rng, m):
    """m multipliers, the first 10^4 to 10^8 and the others from 1 to 2,
    two of which lie 1.5e-7.5 to 1.5e-4 apart (for m = 2, the two 1e-8 to
    10^-7.5 of the first apart).  eigh reads the frame elements of such a
    pair to within about eps times the large value over their gap, and
    the two are mostly kept apart by _cluster: a partner that has them far
    apart tells them apart on the frame of both."""
    lams = rng.uniform(1.0, 2.0, m)
    lams[0] = 10.0 ** rng.uniform(4.0, 8.0)
    if m == 2:
        lams[1] = lams[0] * (1.0 + 10.0 ** -rng.uniform(7.5, 8.0))
    elif m > 2:
        lams[2] = lams[1] + 1.5 * 10.0 ** -rng.uniform(4.0, 7.5)
    return lams


def _on_its_band(lam, mu):
    """Whether |lam - mu| lies within round-off (1e-14 of the scale) of the
    tolerance band 1e-8 max(1, |lam|, |mu|), where round-off decides."""
    scale = max(1.0, abs(lam), abs(mu))
    return abs(abs(lam - mu) - 1e-8 * scale) <= 1e-14 * scale


def _peirce_mean(lams, mus, pair):
    """Whether pair is ((lam_i + lam_j)/2, (mu_i + mu_j)/2) for two frame
    pairs i != j and no frame pair itself, to 1e-12 of the scale."""
    def near(p, q):
        return all(abs(a - b) <= 1e-12 * max(1.0, abs(a), abs(b)) for a, b in zip(p, q))
    frame = list(zip(lams.tolist(), mus.tolist()))
    means = [((a + c) / 2.0, (b + d) / 2.0) for (a, b), (c, d) in itertools.combinations(frame, 2)]
    return not any(near(pair, p) for p in frame) and any(near(pair, m) for m in means)


def _recording_values(values, bracket):
    def wrapped(oracle, max_den):
        values.append(oracle.value)
        return bracket(oracle, max_den)
    return wrapped


@given(sp=st.sampled_from(ALL_KINDS), seed=st.integers(0, 2**16),
       case=st.sampled_from(["generic", "repeated", "near", "shifted", "close"]),
       max_den=st.sampled_from([64, 10**6]))
@settings(max_examples=250)
def test_ratio_equal_brackets_each_value_once_and_keeps_its_verdict(sp, seed, case, max_den):
    # the old rule compared all dim joint eigenvalue pairs of the operators:
    # the frame pairs and, on a Jordan kind, their Peirce means.  A verdict
    # changes only from False to True where a Peirce mean's brackets are
    # disjoint and every frame pair's overlap, or where a pair compared at
    # tolerance sits on its band to within round-off (near at eps = 1e-8).
    # A ratio equals itself; the old rule could find it unequal where its
    # _cluster of the operator's values chained a Peirce mean with two
    # close multipliers and paired the run's mean with each (close)
    r, s = _commuting_pair(sp, seed, case)
    for x, y in ((r, r), (r, s), (s, r)):
        want, _, failed = two_bracket_ratio_equal(x, y, max_den)
        values = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ratio_calculus, "stern_brocot_bracket",
                       _recording_values(values, ratio_calculus.stern_brocot_bracket))
            got = ratio_equal(x, y, max_den=max_den)
        lams, mus = ratio_calculus._multiplier_pairs(x, y)
        floor = TOL * max(np.abs(lams).max(), np.abs(mus).max())
        pairs = list(zip(lams.tolist(), mus.tolist()))
        above = {lam for pair in pairs if min(pair) > floor for lam in pair}
        assert len(values) == len(set(values)) and set(values) <= above
        if got:
            assert set(values) == above
        if x is y:
            assert got is True
        elif got and not want:
            assert _peirce_mean(lams, mus, failed) or _on_its_band(*failed)
        elif want and not got:
            assert any(min(pair) <= floor and _on_its_band(*pair) for pair in pairs)


def _ratio_at_scale(sp, delta, k, how, rng):
    """The ratio of 2^k delta, by from_derivation or by ratio_from_pair over
    a random consequent split along the spectral faces."""
    delta = np.ldexp(delta, k)
    if how == "from_derivation":
        return from_derivation(sp, delta, max_den=64)
    a = spectral_faces(sp, delta).projectors.sum(axis=0) @ sp.sample_interior_point(rng)
    return ratio_from_pair(sp, delta @ a, a, max_den=64)


def _verdict(r, s, max_den):
    try:
        return ratio_equal(r, s, max_den=max_den)
    except NotComparable:
        return NotComparable


SYMMETRY_CONES = ALL_KINDS + [_tilted_orthant(3, 0.05, 1), _tilted_orthant(4, 0.05, 2), ngon_cone(13)]


@given(sp=st.sampled_from(SYMMETRY_CONES), seed=st.integers(0, 2**16),
       partner=st.sampled_from(["itself", "round_trip", "affine", "random"]),
       how=st.tuples(*[st.sampled_from(["from_derivation", "ratio_from_pair"])] * 2),
       k=st.integers(-900, 900), j=st.one_of(st.none(), st.integers(-900, 900)),
       max_den=st.sampled_from([64, 10**6, None]))
@settings(max_examples=300)
def test_ratio_equal_is_reflexive_and_symmetric(sp, seed, partner, how, k, j, max_den):
    # at 2^k a one-ulp difference of two multipliers gives disjoint brackets
    # (near 1e300 the banded hit is the band's first integer): a ratio's
    # multipliers are paired with themselves bit for bit, and both orders of
    # a pair read one frame.  j None puts the partner at the same scale, and
    # a round trip is built from r's own operator
    rng = np.random.default_rng(seed)
    basis = selfadjoint_derivations(sp)
    delta = sum(c * b.mat for c, b in zip(rng.standard_normal(len(basis)), basis))
    r = _ratio_at_scale(sp, delta, k, how[0], rng)
    if partner == "round_trip":
        s = _ratio_at_scale(sp, to_derivation(r).mat, 0, how[1], rng)
    else:
        other = {"itself": delta,
                 "affine": rng.uniform(-2, 2) * np.eye(sp.dim) + rng.uniform(0.5, 2) * delta,
                 "random": sum(c * b.mat for c, b in zip(rng.standard_normal(len(basis)), basis))}
        s = _ratio_at_scale(sp, other[partner], k if j is None else j, how[1], rng)
    assert ratio_equal(r, r, max_den=max_den) is True
    assert ratio_equal(s, s, max_den=max_den) is True
    assert _verdict(r, s, max_den) is _verdict(s, r, max_den)


def test_one_ratio_built_two_ways_compares_alike_in_both_orders():
    # delta at 2^396 from its spectral faces and from the pair delta e : e.
    # Both orders of a pair read the frame of one of them: had each read
    # the frame of its first ratio, the coordinates would differ by an ulp
    # in one order only, and the pair compare equal one way round
    sp = ConeSpace.lorentz(3)
    basis = selfadjoint_derivations(sp)
    coef = np.random.default_rng(87).standard_normal(len(basis))
    delta = np.ldexp(sum(c * b.mat for c, b in zip(coef, basis)), 396)
    e = sp.canonical_unit()
    r = from_derivation(sp, delta, max_den=64)
    s = ratio_from_pair(sp, delta @ e, e, max_den=64)
    for max_den in (None, 64, 10**6):
        assert ratio_equal(r, s, max_den=max_den) is ratio_equal(s, r, max_den=max_den)


def test_a_ratio_at_1e300_equals_itself():
    # its two multipliers were paired with the joint eigenvalues of the one
    # operator, 9.999999999999998e299 with 9.999999999999999e299, whose
    # banded brackets collapse on different first hits
    sp = ConeSpace.psd_real(2)
    r = ratio_from_pair(sp, 1e300 * sym_to_vec(np.diag([1.0, 2.0])), sp.canonical_unit())
    for max_den in (None, 64, 10**6):
        assert ratio_equal(r, r, max_den=max_den) is True


@pytest.mark.parametrize("sp, k", [
    (ConeSpace.orthant(8), 0), (ConeSpace.lorentz(24), 0), (ConeSpace.psd_real(5), 5),
    (ConeSpace.hermitian(5), 5), (rotated_orthant(5, 2), 0), (ngon_cone(5), 0)], ids=repr)
def test_ratio_equal_makes_no_operator_sized_eigen_call_and_builds_no_derivation(monkeypatch,
                                                                              sp, k):
    # the pairs come from the fixed frame of the orthant, the closed-form
    # frames of lorentz, one k x k eigh on a matrix kind (and one per run
    # it splits, and per tie of the other point in a run), and the
    # polyhedral operators from the kind's hook
    pairs = [_commuting_pair(sp, 5, case) for case in ("generic", "repeated", "close")]
    shapes, calls = [], []

    def recording(name, f):
        def wrapped(a, *args, **kwargs):
            shapes.append((name, np.shape(a)))
            return f(a, *args, **kwargs)
        return wrapped
    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, recording(name, getattr(np.linalg, name)))
    monkeypatch.setattr(ratio_calculus, "to_derivation", _counting(calls, "to", to_derivation))
    for r, s in pairs:
        for x, y in ((r, r), (r, s), (s, r)):
            for max_den in (None, 64):
                ratio_equal(x, y, max_den=max_den)
    assert calls == []
    assert all(name == "eigh" and shape[-1] <= k for name, shape in shapes)
    assert (shapes == []) == (k == 0)


@pytest.mark.parametrize("sp", [rotated_orthant(5, 2), ngon_cone(5), ngon_cone(13)], ids=repr)
def test_polyhedral_ratio_equal_and_operators_run_no_svd_and_build_no_face(monkeypatch, sp):
    # ratio_equal pairs the ray multipliers of the pieces' face masks, with
    # no operator; to_derivation and reconstruct_from_faces are R diag(mu) R+,
    # R+ a per-cone constant built on the first call
    pairs = [_commuting_pair(sp, 5, case) for case in ("generic", "repeated", "close")]
    family = spectral_faces(sp, to_derivation(pairs[0][0]).mat)
    calls = []
    monkeypatch.setattr(sp, "_ratio_derivation",
                        _counting(calls, "derivation", sp._ratio_derivation))
    monkeypatch.setattr(cone_space._Polyhedral, "_generator_faces",
                        _counting(calls, "faces", cone_space._Polyhedral._generator_faces))
    for name in ("svd", "pinv"):
        monkeypatch.setattr(np.linalg, name, _counting(calls, name, getattr(np.linalg, name)))
    for r, s in pairs:
        for x, y in ((r, r), (r, s), (s, r)):
            for max_den in (None, 64, 10**6):
                ratio_equal(x, y, max_den=max_den)
    assert calls == []
    for r, s in pairs:
        to_derivation(r)
        to_derivation(s)
    reconstruct_from_faces(sp, family)
    assert calls == ["derivation"] * 7


def test_a_ray_in_the_faces_of_two_pieces_with_different_multipliers_raises():
    # on the 5-gon cone the edges r0 + r1 and r1 + r2 share the ray r1, and
    # Der is the scalars: no derivation is 1 on one edge and 2 on the other
    sp = ngon_cone(5)
    r0, r1, r2 = sp._rays.T[:3]
    w1, w2 = r0 + r1, r1 + r2
    r = Ratio(sp, None, w1 + w2, [(1.0, w1), (2.0, w2)], 64)
    for run in (lambda: to_derivation(r), lambda: ratio_equal(r, r)):
        with pytest.raises(ValueError, match="different multipliers"):
            run()
    # one multiplier on both edges is no conflict
    same = Ratio(sp, None, w1 + w2, [(2.0, w1), (2.0, w2)], 64)
    assert ratio_equal(same, same)


def test_ratio_equal_builds_no_derivation_and_compose_builds_each_once(monkeypatch):
    sp = ConeSpace.psd_real(2)
    u = sp.canonical_unit()
    r = ratio_from_pair(sp, sym_to_vec(np.diag([1.0, 2.0])), u)
    s = ratio_from_pair(sp, sym_to_vec(np.array([[2.0, 1.0], [1.0, 2.0]])), u)
    calls = []
    monkeypatch.setattr(ratio_calculus, "to_derivation", _counting(calls, "to", to_derivation))
    for run, built in ((lambda: ratio_equal(r, r), 0), (lambda: ratio_equal(r, r, max_den=1000), 0),
                       (lambda: compose(r, s), 2)):
        calls.clear()
        run()
        assert len(calls) == built
    calls.clear()
    with pytest.raises(NotComparable):
        ratio_equal(r, s)
    assert calls == []


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


def _brackets(r):
    return [bracket for _, bracket, _ in r.decomposition]


def _max_den_calls(max_den):
    """The four entries that take a max_den, each called with this one, and
    the brackets they give."""
    sp = ConeSpace.orthant(2)
    r = _orthant_ratio([2.0, 3.0])
    root2 = np.array([math.sqrt(2.0), 3.0])
    return [lambda: stern_brocot_bracket(RealOracleFromValue(math.sqrt(2.0)), max_den),
            lambda: _brackets(ratio_from_pair(sp, root2, np.ones(2), max_den=max_den)),
            lambda: _brackets(from_derivation(sp, np.diag(root2), max_den=max_den)),
            lambda: ratio_equal(r, r, max_den=max_den)]


@pytest.mark.parametrize("max_den, error, match", [
    (math.nan, TypeError, "cannot be interpreted as an integer"),
    (math.inf, TypeError, "cannot be interpreted as an integer"),
    (2.5, TypeError, "cannot be interpreted as an integer"),
    (0, ValueError, "max_den must be a positive integer"),
    (-1, ValueError, "max_den must be a positive integer")])
def test_max_den_must_be_an_integer_of_at_least_one(max_den, error, match):
    # nan and inf passed the old test max_den < 1: sqrt(2) then read as the
    # exact hit 19601/13860, the walk never stopping at a denominator cap
    for call in _max_den_calls(max_den):
        with pytest.raises(error, match=match):
            call()


def test_max_den_may_be_a_numpy_integer():
    got = [call() for call in _max_den_calls(np.int64(64))]
    assert got == [call() for call in _max_den_calls(64)]


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


def _bracket_pattern(r):
    return [bracket is None for _, bracket, _ in r.decomposition]


@given(sp=st.sampled_from(ALL_KINDS), seed=st.integers(0, 2**16), repeated=st.booleans(),
       unit=st.booleans(), scale=st.sampled_from([1e-6, 1e6]))
@settings(max_examples=150)
def test_scaling_a_ratio_changes_no_bracket_pattern(sp, seed, repeated, unit, scale):
    # multipliers over twenty powers of 3, and zero and negative ones: a
    # multiplier is positive at the ratio's own scale, so the same ones are
    # bracketed at every scale
    rng = np.random.default_rng(seed)
    basis = selfadjoint_derivations(sp)
    coef = rng.integers(-2, 3, len(basis)) if repeated else rng.standard_normal(len(basis))
    delta = sum(c * 3.0 ** -k * b.mat
                for c, k, b in zip(coef, rng.integers(0, 21, len(basis)), basis))
    if unit:
        r, s = (from_derivation(sp, d, max_den=64) for d in (delta, scale * delta))
    else:
        x = sp.sample_interior_point(rng)
        a = spectral_faces(sp, delta).projectors.sum(axis=0) @ x
        r, s = (ratio_from_pair(sp, d @ a, a, max_den=64) for d in (delta, scale * delta))
    assert _bracket_pattern(r) == _bracket_pattern(s)


@pytest.mark.parametrize("lams, cut_pairs", [
    ([1e-9, 2e-9], 2), ([5e-10, 1e3], 1), ([0.0, 1.0], 1), ([-1.0, 2.0], 1)])
@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
def test_ratio_equal_compares_cuts_of_the_multipliers_positive_at_its_scale(monkeypatch, lams,
                                                                            cut_pairs, scale):
    # a pair is compared by its cuts when both multipliers lie above TOL
    # times the joint largest, at every scale; r against itself pairs each
    # multiplier with itself, so the pairs compared by cuts are the values
    # bracketed, one bracket each
    calls = _count_brackets(monkeypatch)
    r = _orthant_ratio(scale * np.array(lams))
    assert ratio_equal(r, r, max_den=10**6)
    assert len(calls) == cut_pairs
    assert _bracket_pattern(r) == [lam <= 0.0 or lam == 5e-10 for lam in lams]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_lorentz_ratio_past_the_square_range_keeps_finite_multipliers():
    # |z|^2 overflows above about 1.3e154: the multipliers read nan, and the
    # brackets, had they run, would have been refused
    sp = ConeSpace.lorentz(3)
    r = ratio_from_pair(sp, np.array([1e200, 5e199, 0.0]), sp.canonical_unit())
    assert r.lambdas() == pytest.approx([5e199, 1.5e200], rel=1e-12)
    assert [b is not None for _, b, _ in r.decomposition] == [True, True]
