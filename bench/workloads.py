"""Seeded op lists for the four benchmark workloads, each op with its check.

An op is `(label, run, check)`: `run()` makes the program calls that are
timed and returns their output, `check(output)` decides outside the timed
region whether that output is correct.  `build(name, seed, workdir)` does the
workload's set-up (inputs from the seed, cone construction, one warm-up op per
cone) and returns the op list.  The structure of every op list (cone kinds,
sizes, op kinds, long-run cut values) is fixed; the seed draws the vectors,
derivations, rotations, fractions and the op order, so that every seed costs
about the same.

Program calls go through module attributes (`ratio_calculus.compose`, not a
name imported into this file), so that the tracer's wrappers see them.
"""

import contextlib
import io
import math
import os
from fractions import Fraction

import numpy as np

from eudoxus import cli
from eudoxus import cone_space
from eudoxus import derivation_algebra
from eudoxus import exact_rational
from eudoxus import ratio_calculus

ConeSpace = cone_space.ConeSpace
OUTSIDE = cone_space.Membership.OUTSIDE

# Largest swept sizes; why larger ones are left out is in README.md.
ROUNDTRIP_CONES = ([("orthant", n) for n in (2, 4, 8, 16, 24)]
                   + [("lorentz", n) for n in (3, 4, 8, 16, 24)]
                   + [("psd_real", k) for k in (2, 3, 4, 5)]
                   + [("hermitian", k) for k in (2, 3, 4, 5)])
ANALYZE_CONES = ([("orthant", n) for n in range(1, 21)]
                 + [("lorentz", n) for n in range(2, 8)]
                 + [("psd_real", k) for k in range(1, 5)]
                 + [("hermitian", k) for k in range(1, 4)]
                 + [("rotated", d) for d in (4, 4, 5, 5, 6, 6)]
                 + [("polygon", n) for n in range(3, 14, 2)])
QUERY_CONES = ([("orthant", n) for n in (4, 16, 64)]
               + [("lorentz", n) for n in (4, 16, 64)]
               + [("psd_real", k) for k in (2, 4, 8)]
               + [("hermitian", k) for k in (2, 4, 8)]
               + [("polygon", n) for n in range(3, 14, 2)])

ROUNDTRIP_MAX_DEN = 64
BRACKET_MAX_DEN = 10**6
LONG_RUN_J = range(1, 6)


def _space(kind, n, rng):
    if kind in ("orthant", "lorentz", "psd_real", "hermitian"):
        return getattr(ConeSpace, kind)(n)
    return ConeSpace.polyhedral(_generators(kind, n, rng))


def _generators(kind, n, rng):
    """Rotated orthant in R^n, or the self-dual cone over the regular n-gon."""
    if kind == "rotated":
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        return list(q.T)
    r = math.cos(math.pi / n) ** -0.5
    return [np.array([1.0, r * math.cos(2 * math.pi * i / n), r * math.sin(2 * math.pi * i / n)])
            for i in range(n)]


def _close(a, b, scale=1.0, tol=1e-9):
    return float(np.linalg.norm(np.asarray(a) - np.asarray(b), 2)) < tol * max(1.0, scale)


# ---------------------------------------------------------------------------
# ratio_roundtrip

def _roundtrip_ops(space, delta, partner):
    """Six ops on one self-adjoint derivation; `partner` commutes with it."""
    den = ROUNDTRIP_MAX_DEN

    def fd(mat):
        return ratio_calculus.from_derivation(space, mat, max_den=den)
    scale = np.linalg.norm(delta, 2)
    unit = space.canonical_unit()
    image = delta @ unit

    def roundtrip():
        return ratio_calculus.to_derivation(fd(delta)).mat

    def facial_spectral():
        family = derivation_algebra.spectral_faces(space, delta)
        return derivation_algebra.reconstruct_from_faces(space, family).mat

    def equal():
        r = fd(delta)
        back = fd(ratio_calculus.to_derivation(r).mat)
        return ratio_calculus.ratio_equal(r, back, max_den=den)

    def compose():
        return ratio_calculus.compose(fd(delta),
                                      fd(partner), max_den=den)

    def check_compose(out):
        prod = delta @ partner
        if isinstance(out, ratio_calculus.JordanOnly):
            return _close(out.derivation.mat, prod, np.linalg.norm(prod, 2))
        return _close(ratio_calculus.to_derivation(out).mat, prod, np.linalg.norm(prod, 2))

    def add():
        return ratio_calculus.add(fd(delta),
                                  fd(partner), max_den=den)

    def from_pair():
        return ratio_calculus.ratio_from_pair(space, image, unit, max_den=den)

    same = lambda mat: _close(mat, delta, scale)
    total = delta + partner
    return [
        ("roundtrip", roundtrip, same),
        ("facial_spectral", facial_spectral, same),
        ("ratio_equal", equal, lambda eq: eq is True),
        ("compose", compose, check_compose),
        ("add", add, lambda out: _close(ratio_calculus.to_derivation(out).mat, total,
                                        np.linalg.norm(total, 2))),
        ("ratio_from_pair", from_pair,
         lambda r: same(ratio_calculus.to_derivation(r).mat)),
    ]


def ratio_roundtrip(rng):
    ops, warmups = [], []
    for kind, n in ROUNDTRIP_CONES:
        space = _space(kind, n, rng)
        basis = [b.mat for b in derivation_algebra.selfadjoint_derivations(space)]
        for _ in range(3):
            delta = sum(c * b for c, b in zip(rng.standard_normal(len(basis)), basis))
            a, b = rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0)
            partner = a * np.eye(space.dim) + b * delta
            ops += [("%s(%d) %s" % (kind, n, label), run, check)
                    for label, run, check in _roundtrip_ops(space, delta, partner)]
        warmups.append(ops[-1])
    return ops, warmups


# ---------------------------------------------------------------------------
# cut_bracket

def _long_runs():
    """Cut values whose continued fractions have one partial quotient near 10^j."""
    out = []
    for j in LONG_RUN_J:
        p = 10**j
        out += [Fraction(p + 1, p), Fraction(p - 1, p), Fraction(p), Fraction(1, p)]
    return out


def _bracket_ok(lo, hi, value, exact_hit, max_den=BRACKET_MAX_DEN):
    """lo <= value <= hi; collapsed on an exact hit, else Stern-Brocot neighbours."""
    if lo.denominator > max_den or hi.denominator > max_den:
        return False
    if lo == hi:
        return exact_hit(lo)
    return lo < value < hi and hi - lo == Fraction(1, lo.denominator * hi.denominator)


def _banded(value):
    """Exact-hit test for the banded float oracles: RayCutOracle and
    RealOracleFromValue count m/n as a hit when |m - n v| <= 1e-9 (m + n v),
    about 2e-9 v; twice that allows for rounding."""
    return lambda q: abs(float(q) - value) <= 4e-9 * value


def _direct_op(oracle_cls, value):
    exact = Fraction(value)
    oracle = oracle_cls(value)

    def check(bracket):
        return _bracket_ok(bracket[0], bracket[1], exact, lambda q: q == exact)
    return (oracle_cls.__name__, lambda: exact_rational.stern_brocot_bracket(oracle, BRACKET_MAX_DEN),
            check)


def _pair_op(space, lams):
    """ratio_from_pair whose multipliers are `lams`: RayCutOracle brackets."""
    unit = space.canonical_unit()
    if space.kind == "orthant":
        image = np.array(lams) * unit
    else:  # lorentz(3): eigenvalues mean +- |boost| on the two rays
        hi, lo = max(lams), min(lams)
        image = np.array([(hi + lo) / 2.0, (hi - lo) / 2.0, 0.0])

    def check(r):
        got = sorted(lam for lam, _, _ in r.decomposition)
        if not np.allclose(got, sorted(lams), rtol=1e-9, atol=0.0):
            return False
        return all(_bracket_ok(lo, hi, Fraction(lam), _banded(lam))
                   for lam, (lo, hi), _ in r.decomposition)
    run = lambda: ratio_calculus.ratio_from_pair(space, image, unit, max_den=BRACKET_MAX_DEN)
    return ("ratio_from_pair %s" % space.kind, run, check)


def _equal_op(space, lams, other):
    """ratio_equal at max_den 10^6: RealOracleFromValue brackets."""
    unit = space.canonical_unit()
    r = ratio_calculus.ratio_from_pair(space, np.array(lams) * unit, unit,
                                       max_den=ROUNDTRIP_MAX_DEN)
    s = ratio_calculus.ratio_from_pair(space, np.array(other) * unit, unit,
                                       max_den=ROUNDTRIP_MAX_DEN)
    expect = lams == other
    run = lambda: ratio_calculus.ratio_equal(r, s, max_den=BRACKET_MAX_DEN)
    return ("ratio_equal", run, lambda eq: eq is expect)


def _classify_op(oracle, value, fractions):
    exact = Fraction(value)
    want = [exact_rational.CLASS_EQUAL if q == exact else
            exact_rational.CLASS_ABOVE if q > exact else exact_rational.CLASS_BELOW
            for q in fractions]
    run = lambda: [exact_rational.classify_fraction(q, oracle) for q in fractions]
    return ("classify_fraction x%d" % len(fractions), run, lambda got: got == want)


def _quadratic_irrationals(rng, count):
    """(a + sqrt(b)) / c: periodic continued fractions with small partial quotients."""
    out = []
    for _ in range(count):
        b = int(rng.integers(2, 1000))
        while math.isqrt(b) ** 2 == b:
            b += 1
        out.append((int(rng.integers(0, 10)) + math.sqrt(b)) / int(rng.integers(1, 10)))
    return out


def cut_bracket(rng):
    orthant, lorentz = ConeSpace.orthant(2), ConeSpace.lorentz(3)
    longs = _long_runs()
    quadratic = _quadratic_irrationals(rng, 12)
    shorts = quadratic + [float(10 ** rng.uniform(-2.0, 2.0)) for _ in range(12)]
    direct, pairs, equals = [], [], []
    for value in longs:
        direct.append(_direct_op(exact_rational.FractionCutOracle, value))
        direct.append(_direct_op(exact_rational.RealCutOracle, float(value)))
    for _ in range(12):  # exact fractions with denominators on both sides of max_den
        den = int(10 ** rng.uniform(1.0, 9.0))
        direct.append(_direct_op(exact_rational.FractionCutOracle,
                                 Fraction(int(rng.integers(1, 10 * den)), den)))
    for value in shorts:
        direct.append(_direct_op(exact_rational.RealCutOracle, value))
    long_floats = [float(v) for v in longs]
    # partners are quadratic irrationals, whose brackets cost about the same for every seed
    for i, value in enumerate(long_floats):
        partner = quadratic[i % len(quadratic)]
        pairs.append(_pair_op(orthant if i % 2 else lorentz, [value, partner]))
    for i, value in enumerate([v for v in long_floats if v < 2.0] + shorts[::3]):
        partner = quadratic[i % len(quadratic)]
        equals.append(_equal_op(orthant, [value, partner], [value, partner]))
        equals.append(_equal_op(orthant, [value, partner], [value * (1 + 1e-4), partner]))
    classify = []
    for value in shorts[::3]:
        fractions = [Fraction(int(rng.integers(1, 10**4)), int(rng.integers(1, 10**4)))
                     for _ in range(20)]
        classify.append(_classify_op(exact_rational.RealCutOracle(value), value, fractions))
    return direct + pairs + equals + classify, pairs[:2]  # pairs alternate the cones


# ---------------------------------------------------------------------------
# cone_analyze

def _expected_analysis(kind, n):
    """Closed-form analyze results: derivation dimensions (full, selfadjoint),
    lattice, facial homogeneity, and the accepted orientability verdicts."""
    if kind == "orthant":
        return (n, n), True, True, {"Orientable"}
    if kind == "lorentz":
        commutative = n == 2
        return ((1 + n * (n - 1) // 2, n), commutative, True,
                {"Orientable" if commutative or n == 4 else "NotOrientable"})
    if kind == "psd_real":
        return (n * n, n * (n + 1) // 2), n == 1, True, {"Orientable" if n == 1 else "NotOrientable"}
    if kind == "hermitian":
        return (2 * n * n - 1, n * n), n == 1, True, {"Orientable"}
    simplicial = kind == "rotated" or n == 3
    # Der is commutative, so the closed form is Orientable, but analyze reports
    # NotOrientable for these cones (the quotient by the centre keeps round-off
    # directions); both are accepted, so that a fix does not count as a failure.
    return ((n, n) if simplicial else (1, 1)), simplicial, simplicial, {"Orientable",
                                                                        "NotOrientable"}


def _spec_text(kind, n, rng):
    if kind in ("psd_real", "hermitian"):
        return "kind = %s\nk = %d\n" % (kind, n)
    if kind in ("orthant", "lorentz"):
        return "kind = %s\ndim = %d\n" % (kind, n)
    gens = _generators(kind, n, rng)
    return "kind = polyhedral\ndim = %d\n" % len(gens[0]) + "".join(
        "gen = %s\n" % ",".join(repr(float(v)) for v in g) for g in gens)


def _analyze_check(kind, n):
    dims, lattice, homogeneous, orientations = _expected_analysis(kind, n)

    def check(out):
        code, text = out
        checks = {}
        for line in text.splitlines():
            if line.startswith("CHECK "):
                _, name, status, *detail = line.split(" ", 3)
                checks[name] = (status, detail[0] if detail else "")
        orient = checks.get("orientability", ("", ""))
        return (code == (0 if homogeneous else 1)
                and checks.get("self_dual") == ("PASS", "")
                and checks.get("derivation_dimension") == (
                    "PASS", "full %d, selfadjoint %d" % dims)
                and checks.get("riesz") == ("PASS", "lattice" if lattice else "not a lattice")
                and checks.get("facially_homogeneous", ("",))[0] == (
                    "PASS" if homogeneous else "FAIL")
                and orient[0] == "PASS" and orient[1].split("(")[0] in orientations)
    return check


def cone_analyze(rng, workdir, seed):
    spec_dir = os.path.join(workdir, "specs")
    os.makedirs(spec_dir, exist_ok=True)
    ops = []
    for i, (kind, n) in enumerate(ANALYZE_CONES):
        path = os.path.join(spec_dir, "%02d-%s-%d.txt" % (i, kind, n))
        text = _spec_text(kind, n, rng)
        with open(path, "w") as fh:
            fh.write(text)
        # fills derivation_algebra's basis cache, as a first analyze would
        derivation_algebra.derivation_basis(cli.parse_cone_spec(text))
        argv = ["--seed", str(seed), "analyze", path]

        def run(argv=argv):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
            return code, buf.getvalue()
        ops.append(("analyze %s(%d)" % (kind, n), run, _analyze_check(kind, n)))
    return ops, ops[:1]  # warm-up: the smallest spec only


# ---------------------------------------------------------------------------
# cone_queries

def _query_ops(space, rng, vectors):
    unit = space.canonical_unit()
    band = lambda x: 1e-9 * max(1.0, float(np.dot(x, x)))
    ops = []
    for i in range(vectors):
        # the same mix for every seed: shifted inward or not, y above or below x
        x = rng.standard_normal(space.dim)
        if i % 2:
            x = x + 2.0 * np.linalg.norm(x) * unit / np.linalg.norm(unit)
        upward = i % 4 < 2
        y = x + (1.0 if upward else -1.0) * space.sample_interior_point(rng)

        def member(out, x=x):
            moved = np.linalg.norm(space.project(x) - x) > 1e-9 * max(1.0, np.linalg.norm(x))
            return (out is OUTSIDE) == moved

        def projected(p, x=x):
            return (space.contains(p) and space.contains(p - x)
                    and _close(space.project(p), p, np.linalg.norm(p))
                    and abs(np.dot(p - x, p)) <= band(x))

        def jordan(parts, x=x):
            xp, xm = parts
            return (space.contains(xp) and space.contains(xm)
                    and _close(xp - xm, x, np.linalg.norm(x))
                    and abs(np.dot(xp, xm)) <= band(x))

        def unit_norm(t, x=x):
            if t == 0.0:
                return not np.any(x)
            hi, lo = t * (1 + 1e-6), t * (1 - 1e-6)
            return (space.leq(-hi * unit, x) and space.leq(x, hi * unit)
                    and not (space.leq(-lo * unit, x) and space.leq(x, lo * unit)))

        ops += [
            ("membership", lambda x=x: space.membership(x), member),
            ("project", lambda x=x: space.project(x), projected),
            ("jordan_decompose", lambda x=x: space.jordan_decompose(x), jordan),
            ("order_unit_norm", lambda x=x: space.order_unit_norm(x), unit_norm),
            ("leq", lambda x=x, y=y: space.leq(x, y), lambda out, u=upward: out == u),
            ("lt", lambda x=x, y=y: space.lt(x, y), lambda out, u=upward: out == u),
        ]
    label = "%s(dim %d)" % (space.kind, space.dim)
    return [("%s %s" % (label, name), run, check) for name, run, check in ops]


def cone_queries(rng):
    per_cone = [_query_ops(_space(kind, n, rng), rng, 6) for kind, n in QUERY_CONES]
    return [op for ops in per_cone for op in ops], [ops[0] for ops in per_cone]


# ---------------------------------------------------------------------------

def build(name, seed, workdir):
    """Set up a workload: returns its op list in seeded order, after running
    one warm-up op per cone and checking it."""
    rng = np.random.default_rng(seed)
    if name == "cone_analyze":
        ops, warmups = cone_analyze(rng, workdir, seed)
    else:
        ops, warmups = {"ratio_roundtrip": ratio_roundtrip, "cut_bracket": cut_bracket,
                        "cone_queries": cone_queries}[name](rng)
    for label, run, check in warmups:
        if not check(run()):
            raise RuntimeError("warm-up op failed its check: %s" % label)
    return [ops[i] for i in rng.permutation(len(ops))]
