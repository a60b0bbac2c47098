"""Guard: no module keeps a mutable container at module level.

A dict, list or set bound at module level to a lower-case name is state
that outlives the objects it describes: a cache keyed by the data of a
cone holds every cone it has seen.  A per-cone constant belongs on the
cone, as a functools.cached_property.  UPPER_CASE constants and dunders
such as __all__ are allowed.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "eudoxus"
CONTAINERS = {"dict", "list", "set"}


def _is_container(node):
    if isinstance(node, (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)):
        return True
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in CONTAINERS)


def _allowed(name):
    return name.isupper() or (name.startswith("__") and name.endswith("__"))


def _module_containers(tree):
    """The (line, name) of each module-level binding of a container to a
    name that is neither UPPER_CASE nor a dunder."""
    pairs = []
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign):
            pairs += [(target, stmt.value) for target in stmt.targets]
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            pairs.append((stmt.target, stmt.value))
    found = []
    while pairs:
        target, value = pairs.pop()
        if isinstance(target, ast.Tuple) and isinstance(value, ast.Tuple):
            pairs += zip(target.elts, value.elts)
        elif isinstance(target, ast.Name) and not _allowed(target.id) and _is_container(value):
            found.append((value.lineno, target.id))
    return sorted(found)


def test_no_module_keeps_a_mutable_container():
    offenders = ["%s:%d %s" % (path.name, line, name) for path in sorted(SRC.glob("*.py"))
                 for line, name in _module_containers(ast.parse(path.read_text()))]
    assert not offenders, "module-level containers: %s" % offenders


def test_guard_sees_module_level_containers():
    tree = ast.parse("_cache = {}\n"
                     "seen = set()\n"
                     "TABLE = {'a': 1}\n"
                     "__all__ = ['f']\n"
                     "names: list = list()\n"
                     "pair, SIZES = [], [1]\n"
                     "squares = {i: i * i for i in range(3)}\n"
                     "shape = (1, 2)\n"
                     "def f():\n"
                     "    local = {}\n"
                     "    return local\n")
    assert _module_containers(tree) == [(1, "_cache"), (2, "seen"), (5, "names"),
                                        (6, "pair"), (7, "squares")]
