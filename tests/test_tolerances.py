"""Guard: tolerance literals may not spread.

A float literal in (0, 1e-6] outside a module-level UPPER_CASE constant
is a tolerance with no name.  Each module may hold at most the number it
holds now (CEILINGS, every module not listed 0); a change that moves a
band decision onto a named constant lowers the ceiling with it.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "eudoxus"
SMALLEST_BAND = 1e-6
CEILINGS = {"cli": 1, "cone_space": 4, "derivation_algebra": 8, "krein_states": 3,
            "ratio_calculus": 5, "suite": 12}


def _named_constant(node):
    return isinstance(node, (ast.Assign, ast.AnnAssign)) and all(
        isinstance(t, ast.Name) and t.id.isupper()
        for t in (node.targets if isinstance(node, ast.Assign) else [node.target]))


def _tolerance_literals(tree):
    """The lines of the float literals 0 < v <= SMALLEST_BAND outside the
    module-level UPPER_CASE constants."""
    return sorted(n.lineno for stmt in tree.body if not _named_constant(stmt)
                  for n in ast.walk(stmt)
                  if isinstance(n, ast.Constant) and type(n.value) is float
                  and 0 < n.value <= SMALLEST_BAND)


def test_no_module_holds_more_tolerance_literals_than_its_ceiling():
    over = {}
    for path in sorted(SRC.glob("*.py")):
        lines = _tolerance_literals(ast.parse(path.read_text()))
        if len(lines) > CEILINGS.get(path.stem, 0):
            over[path.name] = lines
    assert not over, "tolerance literals above the ceiling (lines): %s" % over


def test_guard_sees_unnamed_tolerances():
    tree = ast.parse("TOL = 1e-9\n"
                     "PAIR = (1e-7, 2e-8)\n"
                     "band = 1e-8\n"
                     "def f(x, tol=1e-10):\n"
                     "    RATE = 1e-12\n"
                     "    return x < -3e-7 or x > 1e-5 or x == 0.0 or x > 1 or x > 1e-6\n")
    assert _tolerance_literals(tree) == [3, 4, 5, 6, 6]
