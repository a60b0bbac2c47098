"""Command-line front end: cone-spec files, commands, reports.

Cone specs are line-oriented key = value text (kind, dim or k, one gen
line per generator for polyhedral cones, # comments).  Reports carry
human-readable sections plus machine lines `CHECK <name> PASS|FAIL|
UNKNOWN <detail>`, sorted by name so parallel evaluation can never
change the output.  Exit codes: 0 all pass, 1 any failure, 2 usage or
parse error, or out of memory.
"""

import argparse
import functools
import sys
from fractions import Fraction

import numpy as np

from eudoxus.cone_space import ConeSpace
from eudoxus.conjunct_product import DimWord, Quantity, conjunct
from eudoxus.derivation_algebra import (
    derivation_basis,
    orientability,
    reconstruct_from_faces,
    selfadjoint_derivations,
    spectral_faces,
)
from eudoxus.face_lattice import is_facially_homogeneous, is_riesz
from eudoxus.krein_states import KreinSpace
from eudoxus.ratio_calculus import (
    JordanOnly,
    add,
    compose,
    quadrature_demo,
    ratio_equal,
    ratio_from_pair,
    NotComparable,
)
from eudoxus import suite


# the size key each kind takes: matrix kinds their order k, the others dim
SIZE_KEYS = {"orthant": "dim", "lorentz": "dim", "psd_real": "k", "hermitian": "k",
             "polyhedral": "dim"}
KINDS = tuple(SIZE_KEYS)


class SpecError(ValueError):
    def __init__(self, line_no, message):
        super().__init__("line %d: %s" % (line_no, message))
        self.line_no = line_no


def parse_cone_spec(text):
    """Parse the cone-spec text format into a ConeSpace.

    Each kind takes only its own size key (SIZE_KEYS).  Polyhedral cones
    take gen lines of one length, which an optional dim must equal; the
    other kinds take none.  Errors name the offending line (0 for
    something missing).
    """
    kind = None
    size = None  # (line_no, key, value)
    gens = []  # (line_no, generator)
    for line_no, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise SpecError(line_no, "expected key = value")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key == "kind":
            if value not in KINDS:
                raise SpecError(line_no, "unknown kind %r" % value)
            kind = value
        elif key in ("dim", "k"):
            try:
                n = int(value)
            except ValueError:
                raise SpecError(line_no, "bad integer %r for %s" % (value, key))
            if n < 1:
                raise SpecError(line_no, "%s must be positive" % key)
            size = (line_no, key, n)
        elif key == "gen":
            try:
                gens.append((line_no, [float(v) for v in value.split(",")]))
            except ValueError:
                raise SpecError(line_no, "bad generator %r" % value)
        else:
            raise SpecError(line_no, "unknown key %r" % key)
    if kind is None:
        raise SpecError(0, "missing kind")
    want = SIZE_KEYS[kind]
    if size is not None and size[1] != want:
        raise SpecError(size[0], "%s takes %s, not %s" % (kind, want, size[1]))
    if kind != "polyhedral":
        if gens:
            raise SpecError(gens[0][0], "%s takes no gen lines" % kind)
        if size is None:
            raise SpecError(0, "missing %s" % want)
    elif not gens:
        raise SpecError(0, "polyhedral cone needs gen lines")
    else:
        length = len(gens[0][1])
        for line_no, g in gens:
            if len(g) != length:
                raise SpecError(line_no, "generator has %d entries, the first has %d"
                                % (len(g), length))
        if size is not None and size[2] != length:
            raise SpecError(size[0], "dim = %d but the generators have %d entries"
                            % (size[2], length))
    try:
        if kind != "polyhedral":
            return getattr(ConeSpace, kind)(size[2])
        return ConeSpace.polyhedral([g for _, g in gens])
    except ValueError as exc:
        raise SpecError(0, str(exc))


class Report:
    """Result lines plus free-form sections; machine lines sorted."""

    def __init__(self, seed):
        self.seed = seed
        self.sections = []
        self.checks = {}

    def section(self, text):
        self.sections.append(text)

    def check(self, name, status, detail=""):
        assert status in ("PASS", "FAIL", "UNKNOWN")
        assert name not in self.checks, "duplicate check %r" % name
        self.checks[name] = (status, detail)

    def exit_code(self):
        if all(s == "PASS" for s, _ in self.checks.values()):
            return 0
        return 1

    def render(self):
        out = ["# seed = %d" % self.seed]
        out.extend(self.sections)
        for name in sorted(self.checks):
            status, detail = self.checks[name]
            line = "CHECK %s %s" % (name, status)
            if detail:
                line += " " + detail
            out.append(line)
        return "\n".join(out) + "\n"


def _parse_vector(text):
    return np.array([float(v) for v in text.split(",")])


def _parse_matrix(text):
    rows = [[float(v) for v in row.split(",")] for row in text.split(";")]
    if len({len(row) for row in rows}) > 1:
        raise ValueError("matrix rows differ in length: %s"
                         % ", ".join(str(len(row)) for row in rows))
    return np.array(rows)


def _load_space(path):
    with open(path) as fh:
        return parse_cone_spec(fh.read())


def _status(flag):
    return "PASS" if flag else "FAIL"


def cmd_analyze(args, report):
    space = _load_space(args.spec)
    report.section("analyze %r" % space)
    report.check("self_dual", _status(space.is_self_dual()))
    fh = is_facially_homogeneous(space)
    report.check("facially_homogeneous",
                 {"Verified": "PASS", "Refuted": "FAIL"}.get(fh.status, "UNKNOWN"),
                 fh.detail)
    riesz, witness = is_riesz(space)
    report.check("riesz", "PASS", "lattice" if riesz else "not a lattice")
    report.check("derivation_dimension", "PASS",
                 "full %d, selfadjoint %d" % (len(derivation_basis(space)),
                                              len(selfadjoint_derivations(space))))
    o = orientability(space)
    report.check("orientability",
                 "UNKNOWN" if o.status == "Unknown" else "PASS", repr(o))


def cmd_ratio(args, report):
    if args.action != "make" and None in (args.antecedent2, args.consequent2):
        raise ValueError("ratio %s needs --antecedent2 and --consequent2" % args.action)
    space = _load_space(args.spec)
    pairs = [(args.antecedent, args.consequent)]
    if args.action != "make":
        pairs.append((args.antecedent2, args.consequent2))
    try:
        r, *rest = [ratio_from_pair(space, _parse_vector(ap), _parse_vector(a), max_den=args.max_den)
                    for ap, a in pairs]
    except NotComparable as exc:
        report.check("ratio_%s" % args.action, "FAIL", str(exc))
        return
    if args.action == "make":
        report.section("lambdas: %s" % (["%.9g" % l for l in r.lambdas()]))
        report.section("brackets: %s" % ([b for _, b, _ in r.decomposition]))
        report.check("ratio_make", "PASS", "%d components" % len(r.pieces))
        return
    (s,) = rest
    if args.action == "eq":
        try:
            eq = ratio_equal(r, s, max_den=args.max_den)
            report.check("ratio_eq", "PASS", "equal" if eq else "unequal")
        except NotComparable as exc:
            report.check("ratio_eq", "UNKNOWN", "not comparable: %s" % exc)
    elif args.action == "compose":
        out = compose(r, s, max_den=args.max_den)
        if isinstance(out, JordanOnly):
            report.check("ratio_compose", "PASS",
                         "JB-only symmetrized product (factors do not commute)")
        else:
            report.section("lambdas: %s" % (["%.9g" % l for l in out.lambdas()]))
            report.check("ratio_compose", "PASS",
                         "%d components" % len(out.pieces))
    elif args.action == "add":
        out = add(r, s, max_den=args.max_den)
        report.section("lambdas: %s" % (["%.9g" % l for l in out.lambdas()]))
        report.check("ratio_add", "PASS", "%d components" % len(out.pieces))


def cmd_derivation(args, report):
    space = _load_space(args.spec)
    if args.action == "spectrum":
        if args.matrix is None:
            raise ValueError("derivation spectrum needs --matrix")
        fam = spectral_faces(space, _parse_matrix(args.matrix))
        for lam, F in fam:
            report.section("lambda %.9g: face dim %d" % (lam, F.dim))
        report.check("derivation_spectrum", "PASS", "%d spectral faces" % len(fam))
    elif args.action == "roundtrip":
        if args.samples < 1 or not 0.0 < args.tol < np.inf:
            raise ValueError("need --samples >= 1 and a finite --tol > 0, got %d and %r"
                             % (args.samples, args.tol))
        rng = np.random.default_rng(args.seed)
        basis = selfadjoint_derivations(space)
        worst = 0.0
        for _ in range(args.samples):
            c = rng.standard_normal(len(basis))
            M = sum(ci * b.mat for ci, b in zip(c, basis))
            fam = spectral_faces(space, M)
            back = reconstruct_from_faces(space, fam)
            worst = max(worst, float(np.linalg.norm(back.mat - M, 2)))
        report.check("derivation_roundtrip", _status(worst < args.tol),
                     "worst residual %.3g over %d samples" % (worst, args.samples))


def cmd_demo(args, report):
    if args.what == "quadrature":
        lower, upper, gap = quadrature_demo(lambda x: x * x, args.k)
        report.section("inscribed %s, circumscribed %s" % (lower, upper))
        report.check("demo_quadrature",
                     _status(lower < Fraction(1, 3) < upper),
                     "width %s, ultimate ratio gap %.3g" % (upper - lower, float(gap)))
    elif args.what == "conjunct":
        density = Quantity(Fraction(args.density), DimWord(("mass", "vol^-1"), "free"))
        volume = Quantity(Fraction(args.volume), DimWord(("vol",), "free"))
        q = conjunct(density, volume)
        report.section("%s [matter]" % q.magnitude)
        report.check("demo_conjunct", "PASS", "%s [matter]" % q.magnitude)
    elif args.what == "krein":
        space = ConeSpace.orthant(args.n)
        kr = KreinSpace(space)
        pures = kr.pure_states()
        report.section("pure states (functionals):")
        for s in pures:
            report.section("  " + ",".join("%.6g" % v for v in s.functional))
        report.section("gelfand matrix (rows = basis images):")
        for i in range(space.dim):
            e = np.zeros(space.dim)
            e[i] = 1.0
            report.section("  " + ",".join("%.6g" % v for v in kr.gelfand_map(e)))
        report.check("demo_krein", _status(len(pures) == args.n),
                     "%d pure states" % len(pures))


def cmd_suite(args, report):
    for name, passed, detail, secs in suite.run_all(seed=args.seed):
        report.check(name, _status(passed), "%s (%.2fs)" % (detail, secs))


@functools.cache
def build_parser():
    """The argument parser, built once per process and shared by every
    main call: parse_args keeps no state between calls."""
    p = argparse.ArgumentParser(prog="eudoxus",
                                description="cone ratios, derivations and demos")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=str, default=None)
    sub = p.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze")
    pa.add_argument("spec")

    pr = sub.add_parser("ratio")
    pr.add_argument("action", choices=["make", "eq", "compose", "add"])
    pr.add_argument("spec")
    pr.add_argument("--antecedent", required=True)
    pr.add_argument("--consequent", required=True)
    pr.add_argument("--antecedent2")
    pr.add_argument("--consequent2")
    pr.add_argument("--max-den", type=int, default=10**6, dest="max_den")

    pd = sub.add_parser("derivation")
    pd.add_argument("action", choices=["spectrum", "roundtrip"])
    pd.add_argument("spec")
    pd.add_argument("--matrix")
    pd.add_argument("--tol", type=float, default=1e-9)
    pd.add_argument("--samples", type=int, default=500)

    pm = sub.add_parser("demo")
    pm.add_argument("what", choices=["quadrature", "conjunct", "krein"])
    pm.add_argument("--k", type=int, default=1024)
    pm.add_argument("--density", type=int, default=2)
    pm.add_argument("--volume", type=int, default=2)
    pm.add_argument("--n", type=int, default=3)

    ps = sub.add_parser("suite")
    ps.add_argument("what", choices=["all"])
    return p


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    report = Report(args.seed)
    try:
        if args.command == "analyze":
            cmd_analyze(args, report)
        elif args.command == "ratio":
            cmd_ratio(args, report)
        elif args.command == "derivation":
            cmd_derivation(args, report)
        elif args.command == "demo":
            cmd_demo(args, report)
        elif args.command == "suite":
            cmd_suite(args, report)
    except (SpecError, OSError, ValueError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2
    except MemoryError as exc:
        sys.stderr.write("error: out of memory (%s)\n" % (str(exc) or "no detail"))
        return 2
    text = report.render()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return report.exit_code()


if __name__ == "__main__":
    sys.exit(main())
