"""Guard: the eudoxus modules import each other in one direction.

Every import of an eudoxus module sits at module level, so the graph of
module-level imports is the whole dependency graph, and that graph has no
cycle.  An import placed inside a function hides a cycle: the modules
load only because the import waits until the function runs.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "eudoxus"
PACKAGE = "eudoxus"


def _targets(node, modules):
    """The package modules (by stem; __init__ for the package itself) an
    import statement loads."""
    if isinstance(node, ast.Import):
        paths = [alias.name.split(".") for alias in node.names]
    elif node.level:
        paths = [[PACKAGE] + (node.module.split(".") if node.module else [])]
    else:
        paths = [node.module.split(".")] if node.module else []
    found = set()
    for path in paths:
        if path[0] != PACKAGE:
            continue
        if len(path) > 1:
            found.add(path[1])
        elif isinstance(node, ast.ImportFrom):
            # from eudoxus import name: a submodule, or a name of the package
            found |= {a.name if a.name in modules else "__init__" for a in node.names}
        else:
            found.add("__init__")
    return found & (modules | {"__init__"})


def _imports(tree, modules):
    """(line, target, nested) for each import of a package module; nested
    when the import sits inside a function or class."""
    out = []

    def visit(node, nested):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            out.extend((node.lineno, t, nested) for t in sorted(_targets(node, modules)))
        nested = nested or isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                             ast.ClassDef, ast.Lambda))
        for child in ast.iter_child_nodes(node):
            visit(child, nested)
    visit(tree, False)
    return out


def _cycle(graph):
    """A list of modules that import each other in a ring, or None."""
    state = {}  # 1 on the current path, 2 done

    def visit(node, path):
        state[node] = 1
        for nxt in sorted(graph.get(node, ())):
            if state.get(nxt) == 1:
                return path[path.index(nxt):] + [nxt]
            if nxt not in state:
                found = visit(nxt, path + [nxt])
                if found:
                    return found
        state[node] = 2
        return None
    for start in sorted(graph):
        if start not in state:
            found = visit(start, [start])
            if found:
                return found
    return None


def _sources():
    return {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def test_no_function_imports_an_eudoxus_module():
    trees = _sources()
    modules = set(trees) - {"__init__"}
    offenders = ["%s.py:%d imports %s" % (name, line, target)
                 for name, tree in trees.items()
                 for line, target, nested in _imports(tree, modules) if nested]
    assert not offenders, "imports inside functions: %s" % offenders


def test_the_module_graph_has_no_cycle():
    trees = _sources()
    modules = set(trees) - {"__init__"}
    graph = {name: {t for _, t, nested in _imports(tree, modules) if not nested}
             for name, tree in trees.items()}
    assert _cycle(graph) is None, "import cycle: %s" % " -> ".join(_cycle(graph))


def test_guard_sees_nested_imports_and_cycles():
    modules = {"a", "b", "c"}
    tree = ast.parse("import numpy as np\n"
                     "from eudoxus.a import f\n"
                     "from eudoxus import b, __version__\n"
                     "import eudoxus.c.sub\n"
                     "from . import a\n"
                     "def g():\n"
                     "    from eudoxus.b import h\n"
                     "    return h\n"
                     "class K:\n"
                     "    def m(self):\n"
                     "        import eudoxus\n")
    assert _imports(tree, modules) == [(2, "a", False), (3, "__init__", False), (3, "b", False),
                                       (4, "c", False), (5, "a", False), (7, "b", True),
                                       (11, "__init__", True)]
    assert _cycle({"a": {"b"}, "b": {"c"}, "c": set()}) is None
    assert _cycle({"a": {"b"}, "b": {"c"}, "c": {"a"}}) == ["a", "b", "c", "a"]
    assert _cycle({"a": {"a"}}) == ["a", "a"]
