"""Exact fraction arithmetic and Stern-Brocot bracketing of order cuts.

A positive cut (the value of a ratio) is addressed only through a
``CutOracle`` answering the two questions the classical theory allows:
does the fraction m/n lie strictly above the cut, and does it hit the
cut exactly.  Every fraction then falls into one of three classes
(below / equal / above), and mediant descent through the Stern-Brocot
tree brackets the cut by the best fractions with bounded denominator.
The descent jumps along each run of equal steps (the continued-fraction
form of the walk), so a bracket costs O(log max_den + log(cut + 1/cut))
oracle queries however large the partial quotients of the cut are.

All arithmetic is exact and in python integers, which never overflow
(mediant convergents grow fast): the walk carries each fraction as its
numerator and denominator, a query on m/n is one integer
cross-multiplication against the cut, and only the bracket comes back
as ``fractions.Fraction``.
"""

import math
import operator
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

    strict_above(m, n) answers whether m/n lies strictly above the cut
    (in the host order: n * antecedent < m * consequent); exact_hit(m, n)
    whether m/n counts as equal to it.  Bracketing relies on the three
    classes of classify_fraction coming in order: strict_above is
    monotone (once true for m/n it is true for every larger fraction),
    the union of exact_hit and strict_above is upward-closed, and no
    exact hit lies above a fraction that is strictly above and not a
    hit.  The three classes are disjoint: no fraction is both strictly
    above and a hit, so a fraction strictly above needs no second query.
    The hits may be one fraction (an exact cut) or an interval of them
    (a band around a floating value).  Queries come with m, n > 0.
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
    moderate denominators.  The value is kept as integers p/q, and m/n
    is compared by the cross-multiplication m*q against n*p (n > 0).
    """

    def __init__(self, value):
        try:
            value = Fraction(value)  # ValueError on nan, OverflowError on +-inf
        except OverflowError:
            raise ValueError("cut must be finite, got %r" % (value,)) from None
        if value <= 0:
            raise ValueError("cut must be positive")
        self.p, self.q = value.numerator, value.denominator

    def strict_above(self, m, n):
        return m * self.q > n * self.p

    def exact_hit(self, m, n):
        return m * self.q == n * self.p


# a real cut is the same oracle at the float's exact binary value
RealCutOracle = FractionCutOracle


def _side(oracle, m, n):
    """Where m/n lies against the cut: LESS, EQUAL or GREATER.  One query
    when m/n is strictly above the cut; exact_hit only when it is not,
    which the oracle's disjoint classes allow."""
    if oracle.strict_above(m, n):
        return GREATER
    return EQUAL if oracle.exact_hit(m, n) else LESS


_CLASS_OF_SIDE = {LESS: CLASS_BELOW, EQUAL: CLASS_EQUAL, GREATER: CLASS_ABOVE}


def classify_fraction(q, oracle):
    """Place a positive fraction in class I (below the cut), II (equal)
    or III (above), per the three-way partition of the fraction field
    induced by a cut."""
    q = Fraction(q)
    if q <= 0:
        raise ValueError("only positive fractions are classified")
    return _CLASS_OF_SIDE[_side(oracle, q.numerator, q.denominator)]


def stern_brocot_bracket(oracle, max_den):
    """Bracket a positive cut by mediant descent in the Stern-Brocot tree.

    Returns (lo, hi) with lo <= cut <= hi and both denominators at most
    max_den, an integer of at least 1.  If the oracle reports an exact
    hit the bracket collapses, lo == hi.  Otherwise lo and hi are
    Stern-Brocot neighbours of the cut, so hi - lo == 1/(lo.den * hi.den).

    The descent goes by runs of equal steps (the partial quotients of
    the cut's continued fraction), not one mediant at a time: a run is
    measured by exponential search and then bisection on its monotone
    stop condition, and the fraction it stops at is the first step of
    the next run.  The result is the one-step-at-a-time descent's, with
    O(log max_den + log(cut + 1/cut)) queries in place of the sum of the
    partial quotients.
    """
    max_den = operator.index(max_den)  # nan, inf or 2.5 raise TypeError
    if max_den < 1:
        raise ValueError("max_den must be a positive integer")
    # tree root: 0/1 below everything positive, 1/0 the formal upper end;
    # invariant: the mediant of lo and hi lies on `side` of the cut
    lo, hi = (0, 1), (1, 0)
    side = _side(oracle, 1, 1)
    while side != EQUAL:
        # the run replaces end a by a + k*b, k = 1, 2, ..., while those
        # mediants stay on `side`; it moves toward end b, which stays
        (a_n, a_d), (b_n, b_d) = (lo, hi) if side == LESS else (hi, lo)
        # last k whose denominator fits; the first run up from 1/0 has no
        # cap and ends at the cut itself
        cap = (max_den - a_d) // b_d if b_d else math.inf
        # good: last k known to stay on `side`; bad: first k known to leave
        # it, found by galloping k = 1 + 1, 1 + 2, 1 + 4, ... then bisection
        good, bad, stride = 1, None, 1
        while (bad - good > 1) if bad else (good != cap):
            if bad:
                k = (good + bad) // 2
            else:
                k = min(1 + stride, cap)
                stride *= 2
            where = _side(oracle, a_n + k * b_n, a_d + k * b_d)
            if where == side:
                good = k
            else:
                bad, bad_side = k, where
        a = (a_n + good * b_n, a_d + good * b_d)
        lo, hi = (a, (b_n, b_d)) if side == LESS else ((b_n, b_d), a)
        if bad is None:
            return Fraction(*lo), Fraction(*hi)
        side = bad_side
    q = Fraction(lo[0] + hi[0], lo[1] + hi[1])
    return q, q
