from fractions import Fraction

import numpy as np
import pytest

from eudoxus.cone_space import ConeSpace, sym_to_vec
from eudoxus.conjunct_product import (
    DEGREE_CAP,
    DimWord,
    Quantity,
    conjunct,
)
from eudoxus.ratio_calculus import JordanOnly, ratio_from_pair, to_derivation


def test_word_concatenation_free_vs_symmetric():
    cm = DimWord(("cm",), "free")
    s = DimWord(("s",), "free")
    assert (cm * s).symbols == ("cm", "s")
    assert cm * s != s * cm
    cm_s = DimWord(("cm",), "symmetric")
    s_s = DimWord(("s",), "symmetric")
    assert cm_s * s_s == s_s * cm_s


def test_word_exponents_and_degree():
    # a symmetric word keeps its symbols sorted: the exponent vector
    w = DimWord(("L", "T", "L"), "symmetric")
    assert w.symbols == ("L", "L", "T")
    assert DimWord().symbols == ()
    assert repr(DimWord()) == "1"


def test_word_mode_mixing_and_cap():
    with pytest.raises(ValueError):
        DimWord(("a",), "free") * DimWord(("b",), "symmetric")
    with pytest.raises(ValueError):
        DimWord(("x",) * (DEGREE_CAP + 1))


def test_quantity_validation():
    with pytest.raises(ValueError):
        Quantity(-1, DimWord())
    with pytest.raises(TypeError):
        Quantity("two", DimWord())


@pytest.mark.parametrize("magnitude", [float("nan"), float("inf"), float("-inf"), 0, Fraction(0)],
                         ids=["nan", "inf", "-inf", "zero", "fraction-zero"])
def test_quantity_needs_a_finite_positive_scalar(magnitude):
    with pytest.raises(ValueError, match="finite and positive"):
        Quantity(magnitude, DimWord(("a",)))


def test_definition_anchor_products():
    density = Quantity(2, DimWord(("density",)))
    volume2 = Quantity(2, DimWord(("volume",)))
    volume3 = Quantity(3, DimWord(("volume",)))
    velocity = Quantity(2, DimWord(("velocity",)))
    matter = Quantity(2, DimWord(("matter",)))
    assert conjunct(density, volume2).magnitude == 4
    assert conjunct(density, volume3).magnitude == 6
    assert conjunct(velocity, matter).magnitude == 4


def test_conjunct_fraction_magnitudes_exact():
    q = conjunct(Quantity(Fraction(2, 3), DimWord(("a",))),
                 Quantity(Fraction(9, 4), DimWord(("b",))))
    assert q.magnitude == Fraction(3, 2)
    assert q.word == DimWord(("a", "b"))


def test_conjunct_rejects_mixed_magnitudes():
    sp = ConeSpace.orthant(2)
    r = ratio_from_pair(sp, np.array([2.0, 3.0]), np.array([1.0, 1.0]), max_den=64)
    with pytest.raises(ValueError):
        conjunct(Quantity(2, DimWord(("a",))), Quantity(r, DimWord(("b",))))


def test_conjunct_ratio_magnitudes_compose():
    sp = ConeSpace.orthant(2)
    r = ratio_from_pair(sp, np.array([2.0, 3.0]), np.array([1.0, 1.0]), max_den=64)
    s = ratio_from_pair(sp, np.array([5.0, 7.0]), np.array([1.0, 1.0]), max_den=64)
    q = conjunct(Quantity(r, DimWord(("a",))), Quantity(s, DimWord(("b",))))
    assert sorted(q.magnitude.lambdas()) == pytest.approx([10.0, 21.0])


def test_noncommutative_witness_scalar_words():
    cm, sec = Quantity(2, DimWord(("cm",), "free")), Quantity(3, DimWord(("s",), "free"))
    q12, q21 = conjunct(cm, sec), conjunct(sec, cm)
    assert q12.word != q21.word
    assert q12.magnitude == q21.magnitude == 6
    cm, sec = Quantity(2, DimWord(("cm",), "symmetric")), Quantity(3, DimWord(("s",), "symmetric"))
    assert conjunct(cm, sec).word == conjunct(sec, cm).word


def _both_orders(r, s):
    """The conjunct products of r [A] and s [B] in both orders."""
    qa, qb = Quantity(r, DimWord(("A",), "free")), Quantity(s, DimWord(("B",), "free"))
    return conjunct(qa, qb), conjunct(qb, qa)


def test_noncommutative_witness_ratio_pair():
    sp = ConeSpace.psd_real(2)
    u = sp.canonical_unit()
    r = ratio_from_pair(sp, sym_to_vec(np.diag([1.0, 2.0])), u, max_den=64)
    s = ratio_from_pair(sp, sym_to_vec(np.array([[2.0, 1.0], [1.0, 2.0]])), u,
                        max_den=64)
    q12, q21 = _both_orders(r, s)
    # the operators do not commute, so conjunct keeps only their symmetrized product
    assert isinstance(q12.magnitude, JordanOnly) and isinstance(q21.magnitude, JordanOnly)
    dr, ds = to_derivation(r).mat, to_derivation(s).mat
    assert np.linalg.norm(dr @ ds - ds @ dr) > 1e-9 * max(1.0, np.linalg.norm(dr @ ds))
    assert q12.word != q21.word


def test_commuting_ratio_pair_is_order_insensitive():
    sp = ConeSpace.orthant(2)
    r = ratio_from_pair(sp, np.array([2.0, 3.0]), np.array([1.0, 1.0]), max_den=64)
    s = ratio_from_pair(sp, np.array([5.0, 7.0]), np.array([1.0, 1.0]), max_den=64)
    q12, q21 = _both_orders(r, s)
    m12, m21 = to_derivation(q12.magnitude).mat, to_derivation(q21.magnitude).mat
    assert np.linalg.norm(m12 - m21) <= 1e-9 * max(1.0, np.linalg.norm(m12))
