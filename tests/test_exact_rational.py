import math
from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from eudoxus.exact_rational import (
    CLASS_ABOVE,
    CLASS_BELOW,
    CLASS_EQUAL,
    EQUAL,
    GREATER,
    LESS,
    FractionCutOracle,
    RealCutOracle,
    classify_fraction,
    compare,
    stern_brocot_bracket,
)
from eudoxus.ratio_calculus import RealOracleFromValue


def linear_bracket(oracle, max_den):
    """Reference: the one-mediant-per-step Stern-Brocot descent that the
    run-length walk must reproduce exactly."""
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


class CountingOracle:
    """Pass-through oracle that counts the queries made of it."""

    def __init__(self, oracle):
        self.oracle = oracle
        self.queries = 0

    def strict_above(self, m, n):
        self.queries += 1
        return self.oracle.strict_above(m, n)

    def exact_hit(self, m, n):
        self.queries += 1
        return self.oracle.exact_hit(m, n)


def test_compare_basic():
    assert compare(Fraction(1, 2), Fraction(2, 3)) == LESS
    assert compare(Fraction(3, 4), Fraction(3, 4)) == EQUAL
    assert compare(Fraction(7, 5), Fraction(4, 3)) == GREATER


def test_compare_large_magnitudes_exact():
    big = Fraction(10**40 + 1, 10**40)
    assert compare(big, Fraction(1)) == GREATER
    assert compare(big, big) == EQUAL


def test_classify_fraction_three_classes():
    oracle = FractionCutOracle(Fraction(3, 7))
    assert classify_fraction(Fraction(2, 7), oracle) == CLASS_BELOW
    assert classify_fraction(Fraction(3, 7), oracle) == CLASS_EQUAL
    assert classify_fraction(Fraction(1, 2), oracle) == CLASS_ABOVE


def test_classify_fraction_rejects_nonpositive():
    oracle = FractionCutOracle(Fraction(1, 2))
    try:
        classify_fraction(Fraction(0), oracle)
    except ValueError:
        pass
    else:
        raise AssertionError("expected ValueError")


def test_sqrt2_bracket_small_denominator():
    # best denominator-5 neighbours of sqrt(2) are 7/5 and 3/2
    lo, hi = stern_brocot_bracket(RealCutOracle(2.0**0.5), max_den=5)
    assert lo == Fraction(7, 5)
    assert hi == Fraction(3, 2)


def test_sqrt2_bracket_contains_target():
    lo, hi = stern_brocot_bracket(RealCutOracle(2.0**0.5), max_den=10**6)
    assert lo * lo < 2 < hi * hi
    assert lo <= Fraction(2.0**0.5) <= hi
    assert hi - lo < Fraction(1, 10**11)


def test_exact_hit_collapses_bracket():
    lo, hi = stern_brocot_bracket(FractionCutOracle(Fraction(2, 3)), max_den=10)
    assert lo == hi == Fraction(2, 3)


@given(num=st.integers(1, 400), den=st.integers(1, 50),
       max_den=st.integers(1, 200), banded=st.booleans())
@settings(max_examples=200, deadline=None)
def test_bracket_properties(num, den, max_den, banded):
    # the exact oracle of num/den, or the banded one of its float, whose
    # value is an exact dyadic rational
    target = Fraction(num, den)
    if banded:
        oracle = RealOracleFromValue(float(target))
        value = Fraction(float(target))
    else:
        oracle, value = FractionCutOracle(target), target
    lo, hi = stern_brocot_bracket(oracle, max_den)
    assert lo.denominator <= max_den and hi.denominator <= max_den
    if not banded and target.denominator <= max_den:
        assert lo == hi == target
    if lo == hi:
        assert oracle.exact_hit(lo.numerator, lo.denominator)
    else:
        assert lo <= value <= hi
        # Stern-Brocot neighbours a/b < c/d satisfy the unimodular relation bc - ad = 1
        assert lo.denominator * hi.numerator - lo.numerator * hi.denominator == 1


@given(num=st.integers(1, 100), den=st.integers(1, 100))
@settings(max_examples=100, deadline=None)
def test_classification_matches_comparison(num, den):
    target = Fraction(17, 12)
    oracle = FractionCutOracle(target)
    q = Fraction(num, den)
    expected = {LESS: CLASS_BELOW, EQUAL: CLASS_EQUAL, GREATER: CLASS_ABOVE}
    assert classify_fraction(q, oracle) == expected[compare(q, target)]


def test_max_den_validation():
    try:
        stern_brocot_bracket(FractionCutOracle(Fraction(1)), 0)
    except ValueError:
        pass
    else:
        raise AssertionError("expected ValueError")


# cuts whose continued fractions have one partial quotient near 10^j
LONG_RUNS = [v for j in range(1, 7)
             for v in (Fraction(10**j + 1, 10**j), Fraction(10**j - 1, 10**j),
                       Fraction(10**j), Fraction(1, 10**j))]

# a run of a equal steps costs at most 2 ceil(log2 a) + 1 probes of at most
# two queries each, and its partial quotient a multiplies the denominator
# (or, in the first run, the value) by at least a; 6 leaves room for the
# short runs and the capped last run
QUERIES_PER_BIT = 6


def query_bound(value, max_den):
    v = float(value)
    return QUERIES_PER_BIT * (math.log2(max_den) + math.log2(v + 1 / v) + 1)


# random values stay within 10^+-3, where the linear reference is quick;
# the long runs reach 10^+-6
@given(value=st.one_of(
           st.sampled_from(LONG_RUNS),
           st.sampled_from(LONG_RUNS).map(float),
           st.fractions(min_value=Fraction(1, 10**3), max_value=10**3,
                        max_denominator=10**9),
           st.floats(min_value=1e-3, max_value=1e3)),
       oracle_cls=st.sampled_from([FractionCutOracle, RealOracleFromValue]),
       max_den=st.one_of(st.integers(1, 10**6),
                         st.integers(0, 6).map(lambda e: 10**e)))
@settings(max_examples=100)
def test_run_walk_matches_linear_walk(value, oracle_cls, max_den):
    counted = CountingOracle(oracle_cls(value))
    bracket = stern_brocot_bracket(counted, max_den)
    assert bracket == linear_bracket(oracle_cls(value), max_den)
    assert counted.queries <= query_bound(value, max_den)


def test_run_walk_no_dearer_than_linear_on_short_runs():
    # partial quotients 1 and 2: the exponential search must not double
    # the cost of cuts without long runs
    for value in (2.0**0.5, (1 + 5.0**0.5) / 2):
        for max_den in (64, 10**6):
            fast = CountingOracle(RealCutOracle(value))
            slow = CountingOracle(RealCutOracle(value))
            assert stern_brocot_bracket(fast, max_den) == linear_bracket(slow, max_den)
            assert fast.queries <= slow.queries


def test_huge_and_tiny_cuts_bracket_in_few_queries():
    # runs of 10^12 steps, out of the linear reference's reach
    for value in (Fraction(10**12), Fraction(1, 10**12),
                  Fraction(10**12 + 1, 10**12)):
        counted = CountingOracle(FractionCutOracle(value))
        lo, hi = stern_brocot_bracket(counted, 10**6)
        assert lo <= value <= hi
        assert counted.queries <= query_bound(value, 10**6)


# exact cut values: fractions with numerator and denominator up to 10^40, and
# floats over the whole positive range at their exact dyadic value
exact_values = st.one_of(
    st.builds(Fraction, st.integers(1, 10**40), st.integers(1, 10**40)),
    st.floats(min_value=5e-324, max_value=1e308).map(Fraction))


def _queries(data, value, bound=None):
    """(m, n) with m, n >= 1: arbitrary; a multiple of the value's own
    numerator and denominator moved by at most one, so exact hits are drawn
    too; or n * value moved by up to 4e-9 relative, across the edges of
    the banded oracle's hit band (about 1e-9 (m + n value))."""
    how = data.draw(st.sampled_from(["any", "multiple", "band"]), label="how")
    if how == "any":
        ints = st.integers(1, bound) if bound else st.integers(min_value=1)
        return data.draw(ints, label="m"), data.draw(ints, label="n")
    if how == "multiple":
        k = data.draw(st.integers(1, 10**6), label="k")
        m = k * value.numerator + data.draw(st.integers(-1, 1), label="shift")
        n = k * value.denominator
    else:
        n = data.draw(st.integers(1, 10**12), label="n")
        t = Fraction(data.draw(st.floats(-4e-9, 4e-9), label="t"))
        m = round(n * value * (1 + t))
    m = max(m, 1)
    assume(bound is None or max(m, n) <= bound)
    return m, n


@given(value=exact_values, data=st.data())
@settings(max_examples=300)
def test_fraction_oracle_queries_agree_with_fraction_comparison(value, data):
    m, n = _queries(data, value)
    oracle = FractionCutOracle(value)
    assert oracle.strict_above(m, n) == (Fraction(m, n) > value)
    assert oracle.exact_hit(m, n) == (Fraction(m, n) == value)


@given(value=st.one_of(exact_values, st.floats(min_value=5e-324, max_value=1e308)),
       banded=st.booleans(), data=st.data())
@settings(max_examples=300)
def test_no_fraction_is_both_strictly_above_and_a_hit(value, banded, data):
    # the disjointness that lets _side skip exact_hit above the cut; m and n
    # stay below 10^300, where the banded oracle's float arithmetic holds
    oracle = RealOracleFromValue(float(value)) if banded else FractionCutOracle(value)
    m, n = _queries(data, Fraction(value), bound=10**300)
    assert not (oracle.strict_above(m, n) and oracle.exact_hit(m, n))


def test_classify_asks_one_query_above_the_cut_and_two_below():
    for oracle in (FractionCutOracle(Fraction(17, 12)), RealOracleFromValue(17 / 12)):
        for q, queries in ((Fraction(3, 2), 1), (Fraction(4, 3), 2)):
            counted = CountingOracle(oracle)
            classify_fraction(q, counted)
            assert counted.queries == queries
