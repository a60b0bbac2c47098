"""Multiplication of dimensioned quantities by tensor words.

A quantity is a magnitude (positive real, exact fraction, or a Ratio
over a cone) tagged with a dimension word.  Words live in the free
tensor algebra over opaque dimension symbols, or in its fully symmetric
quotient; the conjunct product concatenates (or adds exponents) and
multiplies magnitudes.  Ratio-valued magnitudes multiply by ratio
composition (ratio_calculus.compose): a commuting pair gives a Ratio, and
a noncommuting pair the flagged symmetrized product JordanOnly, which is
the same in both orders.  Free-mode words keep the order; symmetric ones
do not.
"""

import math
from fractions import Fraction

from eudoxus.ratio_calculus import JordanOnly, Ratio, compose

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
            if not 0 < magnitude < math.inf:
                raise ValueError("scalar magnitudes must be finite and positive, got %r" % magnitude)
        elif not isinstance(magnitude, (Ratio, JordanOnly)):
            raise TypeError("magnitude must be a number, Fraction or Ratio")
        self.magnitude = magnitude
        self.word = word

    def __repr__(self):
        return "%s [%s]" % (self.magnitude, self.word)


def conjunct(q1, q2):
    """The conjunct product: concatenated (or exponent-summed) word,
    multiplied magnitudes.  Ratio magnitudes compose as operators, and
    compose raises NotComparable unless they share a host cone."""
    word = q1.word * q2.word
    m1, m2 = q1.magnitude, q2.magnitude
    if isinstance(m1, Ratio) and isinstance(m2, Ratio):
        return Quantity(compose(m1, m2), word)
    if isinstance(m1, Ratio) or isinstance(m2, Ratio):
        raise ValueError("cannot mix scalar and ratio magnitudes")
    if isinstance(m1, Fraction) or isinstance(m2, Fraction):
        return Quantity(Fraction(m1) * Fraction(m2), word)
    return Quantity(m1 * m2, word)
