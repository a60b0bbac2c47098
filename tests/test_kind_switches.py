"""Guard: only the cone kind classes may know which kind they are.

Outside them, the sole comparison of a `kind` allowed is parse_cone_spec
checking an input string against the known kinds.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "eudoxus"
ALLOWED_FUNCTIONS = {"parse_cone_spec"}


def _mentions_kind(node):
    return any((isinstance(n, ast.Attribute) and n.attr == "kind")
               or (isinstance(n, ast.Name) and n.id == "kind")
               for n in ast.walk(node))


def _kind_comparisons(tree):
    """Yield (line, enclosing function and class names) per comparison of a kind."""
    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            scope = scope + [node]
        if isinstance(node, ast.Compare) and any(
                isinstance(op, (ast.Eq, ast.NotEq, ast.In, ast.NotIn)) for op in node.ops):
            if any(_mentions_kind(part) for part in [node.left] + node.comparators):
                yield node.lineno, scope
        for child in ast.iter_child_nodes(node):
            yield from visit(child, scope)
    yield from visit(tree, [])


def _kind_classes(tree):
    """The classes derived from ConeSpace in one module (not ConeSpace)."""
    names = {"ConeSpace"}
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and any(
                isinstance(b, ast.Name) and b.id in names for b in node.bases):
            names.add(node.name)
    return names - {"ConeSpace"}


def test_no_kind_switches_outside_the_kind_classes():
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        allowed = ALLOWED_FUNCTIONS | (_kind_classes(tree) if path.name == "cone_space.py" else set())
        for line, scope in _kind_comparisons(tree):
            if not allowed & {node.name for node in scope}:
                offenders.append("%s:%d" % (path.name, line))
    assert not offenders, "kind switches outside the kind classes: %s" % offenders


def test_guard_sees_a_kind_switch():
    tree = ast.parse("def f(space):\n    if space.kind == 'orthant':\n        return 1\n")
    assert [line for line, _ in _kind_comparisons(tree)] == [2]
