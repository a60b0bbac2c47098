"""Exact fraction arithmetic and Stern-Brocot bracketing of order cuts.

A positive cut (the value of a ratio) is addressed only through a
``CutOracle`` answering the two questions the classical theory allows:
does the fraction m/n lie strictly above the cut, and does it hit the
cut exactly.  Every fraction then falls into one of three classes
(below / equal / above), and mediant descent through the Stern-Brocot
tree brackets the cut by the best fractions with bounded denominator.

All arithmetic is exact; fractions are ``fractions.Fraction`` (python
integers never overflow, which matters because mediant convergents grow
fast).
"""

from fractions import Fraction

LESS, EQUAL, GREATER = -1, 0, 1

CLASS_BELOW = "I"
CLASS_EQUAL = "II"
CLASS_ABOVE = "III"


def compare(p, q):
    """Cross-multiplication comparison of two fractions.

    Returns LESS, EQUAL or GREATER.  Exact for arbitrary magnitudes.
    """
    p = Fraction(p)
    q = Fraction(q)
    lhs = p.numerator * q.denominator
    rhs = q.numerator * p.denominator
    if lhs < rhs:
        return LESS
    if lhs > rhs:
        return GREATER
    return EQUAL


class CutOracle:
    """Interface for a positive cut addressed by fraction queries.

    strict_above(m, n) must answer whether m/n lies strictly above the
    cut (in the host order: n * antecedent < m * consequent), and must
    be monotone: once true for m/n it is true for every larger fraction.
    exact_hit(m, n) answers whether m/n equals the cut; it can be true
    for at most one reduced fraction.
    """

    def strict_above(self, m, n):
        raise NotImplementedError

    def exact_hit(self, m, n):
        raise NotImplementedError


class FractionCutOracle(CutOracle):
    """Oracle for a cut at a known exact value: a fraction, or a real
    given as a binary float.

    Comparisons are exact against the binary representation, so the
    bracket always contains the float; for irrational targets the float
    itself is within one ulp, far below any bracket width reachable with
    moderate denominators.
    """

    def __init__(self, value):
        value = Fraction(value)
        if value <= 0:
            raise ValueError("cut must be positive")
        self.value = value

    def strict_above(self, m, n):
        return Fraction(m, n) > self.value

    def exact_hit(self, m, n):
        return Fraction(m, n) == self.value


# a real cut is the same oracle at the float's exact binary value
RealCutOracle = FractionCutOracle


def classify_fraction(q, oracle):
    """Place a positive fraction in class I (below the cut), II (equal)
    or III (above), per the three-way partition of the fraction field
    induced by a cut."""
    q = Fraction(q)
    if q <= 0:
        raise ValueError("only positive fractions are classified")
    m, n = q.numerator, q.denominator
    if oracle.exact_hit(m, n):
        return CLASS_EQUAL
    if oracle.strict_above(m, n):
        return CLASS_ABOVE
    return CLASS_BELOW


def stern_brocot_bracket(oracle, max_den):
    """Bracket a positive cut by mediant descent in the Stern-Brocot tree.

    Returns (lo, hi) with lo <= cut <= hi and both denominators at most
    max_den.  If the oracle reports an exact hit the bracket collapses,
    lo == hi.  Otherwise lo and hi are Stern-Brocot neighbours of the
    cut, so hi - lo == 1/(lo.den * hi.den).
    """
    if max_den < 1:
        raise ValueError("max_den must be a positive integer")
    # tree root: 0/1 below everything positive, 1/0 the formal upper end
    lo_n, lo_d = 0, 1
    hi_n, hi_d = 1, 0
    while True:
        m, n = lo_n + hi_n, lo_d + hi_d
        if n > max_den and hi_d > 0:
            return Fraction(lo_n, lo_d), Fraction(hi_n, hi_d)
        if oracle.exact_hit(m, n):
            q = Fraction(m, n)
            return q, q
        if oracle.strict_above(m, n):
            hi_n, hi_d = m, n
        else:
            lo_n, lo_d = m, n
