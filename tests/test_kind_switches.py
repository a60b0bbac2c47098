"""Guard: only the cone kind classes may know which kind they are.

Outside them, the sole comparison of a `kind` allowed is parse_cone_spec
checking an input string against the known kinds.  Outside cone_space
no code tests a space against a kind class with isinstance or probes it
for a private hook with hasattr: what differs by kind is a hook.
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


def _kind_probes(tree, kind_classes):
    """Yield the line of each isinstance test against one of kind_classes
    and of each hasattr probe of a private name."""
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and len(node.args) == 2):
            continue
        target = node.args[1]
        if node.func.id == "isinstance":
            names = {n.id for n in ast.walk(target) if isinstance(n, ast.Name)}
            names |= {n.attr for n in ast.walk(target) if isinstance(n, ast.Attribute)}
            if names & kind_classes:
                yield node.lineno
        elif (node.func.id == "hasattr" and isinstance(target, ast.Constant)
              and isinstance(target.value, str) and target.value.startswith("_")):
            yield node.lineno


def _cone_space_kind_classes():
    return _kind_classes(ast.parse((SRC / "cone_space.py").read_text()))


def test_no_kind_probes_outside_cone_space():
    kind_classes = _cone_space_kind_classes()
    offenders = ["%s:%d" % (path.name, line)
                 for path in sorted(SRC.glob("*.py")) if path.name != "cone_space.py"
                 for line in _kind_probes(ast.parse(path.read_text()), kind_classes)]
    assert not offenders, "kind probes outside cone_space: %s" % offenders


def test_guard_sees_kind_probes():
    assert {"_JordanSpace", "_Polyhedral"} <= _cone_space_kind_classes()
    tree = ast.parse("def f(space):\n"
                     "    if isinstance(space, _Polyhedral):\n"
                     "        return 1\n"
                     "    if isinstance(space, (int, cone_space._JordanSpace)):\n"
                     "        return 2\n"
                     "    if hasattr(space, '_L') or hasattr(space, 'dim'):\n"
                     "        return 3\n"
                     "    return isinstance(space, ConeSpace)\n")
    assert sorted(_kind_probes(tree, _cone_space_kind_classes())) == [2, 4, 6]


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
