"""Multiplication of dimensioned quantities by tensor words.

A quantity is a magnitude (positive real, exact fraction, or a Ratio
over a cone) tagged with a dimension word.  Words live in the free
tensor algebra over opaque dimension symbols, or in its fully symmetric
quotient; the conjunct product concatenates (or adds exponents) and
multiplies magnitudes.  Ratio-valued magnitudes multiply by ratio
composition, so the product is order-sensitive exactly when the host
ratios fail to commute.
"""

from fractions import Fraction

import numpy as np

from eudoxus.ratio_calculus import (
    JordanOnly,
    Ratio,
    classic_compose,
    classic_ratio_equal,
    compose,
    to_derivation,
)

DEGREE_CAP = 8


class DimWord:
    """A dimension word: ordered symbols (free mode) or an exponent
    vector (symmetric mode).  The empty word is dimensionless."""

    def __init__(self, symbols=(), mode="free"):
        if mode not in ("free", "symmetric"):
            raise ValueError("mode must be free or symmetric")
        self.mode = mode
        symbols = tuple(symbols)
        if mode == "symmetric":
            symbols = tuple(sorted(symbols))
        if len(symbols) > DEGREE_CAP:
            raise ValueError("word degree exceeds the cap (%d)" % DEGREE_CAP)
        self.symbols = symbols

    @property
    def degree(self):
        return len(self.symbols)

    def exponents(self):
        out = {}
        for s in self.symbols:
            out[s] = out.get(s, 0) + 1
        return out

    def __mul__(self, other):
        if self.mode != other.mode:
            raise ValueError("cannot mix free and symmetric words")
        return DimWord(self.symbols + other.symbols, self.mode)

    def __eq__(self, other):
        return (isinstance(other, DimWord) and self.mode == other.mode
                and self.symbols == other.symbols)

    def __hash__(self):
        return hash((self.mode, self.symbols))

    def __repr__(self):
        if not self.symbols:
            return "1"
        return "*".join(self.symbols)


class Quantity:
    """A magnitude together with its dimension word."""

    def __init__(self, magnitude, word):
        if isinstance(magnitude, (int, float, Fraction)):
            if magnitude <= 0:
                raise ValueError("scalar magnitudes must be positive")
        elif not isinstance(magnitude, (Ratio, JordanOnly)):
            raise TypeError("magnitude must be a number, Fraction or Ratio")
        self.magnitude = magnitude
        self.word = word

    def __repr__(self):
        return "%s [%s]" % (self.magnitude, self.word)


def conjunct(q1, q2):
    """The conjunct product: concatenated (or exponent-summed) word,
    multiplied magnitudes.  Ratio magnitudes compose as operators and
    must share a host cone."""
    word = q1.word * q2.word
    m1, m2 = q1.magnitude, q2.magnitude
    if isinstance(m1, Ratio) and isinstance(m2, Ratio):
        if m1.host is not m2.host:
            raise ValueError("ratio magnitudes live over different cones")
        return Quantity(compose(m1, m2), word)
    if isinstance(m1, Ratio) or isinstance(m2, Ratio):
        raise ValueError("cannot mix scalar and ratio magnitudes")
    if isinstance(m1, Fraction) or isinstance(m2, Fraction):
        return Quantity(Fraction(m1) * Fraction(m2), word)
    return Quantity(m1 * m2, word)


def rectangle_representation_check(a_prime, a, b_prime, b):
    """The rectangle representation of ratio composition on segments.

    Checks that the ratio of the rectangles a'xb' : axb equals the
    composition of the side ratios, and that pairing with a fixed side
    intertwines fraction actions (step one of the argument).
    """
    a_prime, a = Fraction(a_prime), Fraction(a)
    b_prime, b = Fraction(b_prime), Fraction(b)
    if min(a_prime, a, b_prime, b) <= 0:
        raise ValueError("segments must be positive")
    area_num, area_den = a_prime * b_prime, a * b
    comp_num, comp_den = classic_compose(a_prime, a, b_prime, b)
    if not classic_ratio_equal(area_num, area_den, comp_num, comp_den):
        return False
    # x -> x (x) b intertwines every fraction action q
    for q in (Fraction(3, 2), Fraction(2, 5), Fraction(7, 1)):
        if (q * a_prime) * b != q * (a_prime * b):
            return False
    return True


def one_dim_collapse_check(d, ratio_num=2, ratio_den=1):
    """Degree-d powers of a single dimension symbol stay one-dimensional
    and the ratio of d-th powers is the d-th power of the ratio."""
    if d < 1:
        raise ValueError("degree must be >= 1")
    word = DimWord(("L",) * d, mode="symmetric")
    if word.degree != d:
        return False
    num, den = Fraction(ratio_num), Fraction(ratio_den)
    powered = (num / den) ** d
    chained_num, chained_den = Fraction(1), Fraction(1)
    for _ in range(d):
        chained_num, chained_den = (chained_num * num, chained_den * den)
    return classic_ratio_equal(chained_num, chained_den,
                               powered.numerator, powered.denominator)


def noncommutative_witness(mode="free", delta_pair=None):
    """Order sensitivity of the conjunct product.

    With scalar magnitudes, free-mode words over distinct symbols differ
    under swapping while symmetric-mode words coincide.  With a
    noncommuting pair of ratios over a cone, the magnitudes themselves
    differ in operator norm.  Returns (q12, q21, equal).
    """
    if delta_pair is not None:
        r, s = delta_pair
        w1 = DimWord(("A",), "free")
        w2 = DimWord(("B",), "free")
        q12 = conjunct(Quantity(r, w1), Quantity(s, w2))
        q21 = conjunct(Quantity(s, w2), Quantity(r, w1))
        m12 = _operator_of(q12.magnitude, r, s)
        m21 = _operator_of(q21.magnitude, s, r)
        equal = bool(np.linalg.norm(m12 - m21) <= 1e-9 * max(1.0, np.linalg.norm(m12)))
        return q12, q21, equal
    one = Quantity(2, DimWord(("cm",), mode))
    two = Quantity(3, DimWord(("s",), mode))
    q12 = conjunct(one, two)
    q21 = conjunct(two, one)
    equal = q12.word == q21.word
    return q12, q21, equal


def _operator_of(magnitude, r, s):
    if isinstance(magnitude, JordanOnly):
        # keep the raw operator product for the order-sensitivity test
        return to_derivation(r).mat @ to_derivation(s).mat
    return to_derivation(magnitude).mat
