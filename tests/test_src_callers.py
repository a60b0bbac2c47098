"""Guard: every function in src/eudoxus has a caller outside the tests.

Each module-level def and each def in a module-level class must be named
somewhere in src/eudoxus or bench/*.py outside its own body: as a Name,
as the attribute of an Attribute, or as an import alias.  Dunders are
exempt, since Python calls them.  A mention inside a string does not
count, and neither does a call from the function's own body.  A function
that only the tests call belongs in the tests.

Attributes are matched by name alone, not by the class they belong to, so
a homonym can hide a dead def: the str method call line.partition("=") in
cli would keep alive a module function named partition that nothing calls.

A method that every subclass in its module overrides is as dead: no
subclass inherits it, so it runs only on instances of its own class, and in
src no class that has subclasses is built itself.  A body that only raises
NotImplementedError declares an interface and stays.  The guard follows the
bases defined in the module and does not see a call through super(), which
in src reaches only dunders, exempt anyway.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "eudoxus"
BENCH = ROOT / "bench"


def _defs(tree):
    """(qualified name, node) of the module-level defs and the defs of the
    module-level classes, dunders left out."""
    found = []
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found.append((stmt.name, stmt))
        elif isinstance(stmt, ast.ClassDef):
            found += [("%s.%s" % (stmt.name, f.name), f) for f in stmt.body
                      if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))]
    return [(name, node) for name, node in found
            if not (node.name.startswith("__") and node.name.endswith("__"))]


def _mentions(tree):
    """(name, node) for each Name, Attribute and import alias of a tree."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.append((node.id, node))
        elif isinstance(node, ast.Attribute):
            found.append((node.attr, node))
        elif isinstance(node, ast.alias):
            found.append((node.name.split(".")[-1], node))
            if node.asname:
                found.append((node.asname, node))
    return found


def _uncalled(trees, checked):
    """The "module:name" of each def in the trees named by checked that no
    tree mentions outside the def's own body."""
    mentions = [m for tree in trees.values() for m in _mentions(tree)]
    out = []
    for module in checked:
        for name, node in _defs(trees[module]):
            inside = {id(n) for n in ast.walk(node)}
            if not any(m == node.name and id(n) not in inside for m, n in mentions):
                out.append("%s:%s" % (module, name))
    return out


def _is_interface(node):
    """Is the body of a def, past its docstring, one raise NotImplementedError?"""
    body = node.body[1:] if ast.get_docstring(node) is not None else node.body
    return (len(body) == 1 and isinstance(body[0], ast.Raise)
            and "NotImplementedError" in {n.id for n in ast.walk(body[0]) if isinstance(n, ast.Name)})


def _overridden(tree):
    """The "Class.method" of each method of a module-level class that no
    subclass in the module inherits, dunders and interfaces left out."""
    classes = {c.name: c for c in tree.body if isinstance(c, ast.ClassDef)}
    methods = {name: {f.name: f for f in c.body if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))}
               for name, c in classes.items()}

    def lineage(name):
        """name and its ancestors among the module's classes, nearest first."""
        while name in classes:
            yield name
            name = next((b.id for b in classes[name].bases
                         if isinstance(b, ast.Name) and b.id in classes), None)

    out = []
    for name in classes:
        subs = [c for c in classes if c != name and name in lineage(c)]
        for method, node in methods[name].items() if subs else ():
            if method.startswith("__") or _is_interface(node):
                continue
            # the class whose method an instance of each subclass runs
            if all(next(k for k in lineage(c) if method in methods[k]) != name for c in subs):
                out.append("%s.%s" % (name, method))
    return out


def test_no_src_method_is_overridden_by_every_subclass():
    found = ["%s:%s" % (p.name, m) for p in sorted(SRC.glob("*.py"))
             for m in _overridden(ast.parse(p.read_text()))]
    assert not found, "methods every subclass overrides: %s" % found


def test_guard_sees_a_method_every_subclass_overrides():
    tree = ast.parse("class Base:\n"
                     "    def hook(self):\n"
                     "        return 0\n"
                     "    def shared(self):\n"
                     "        return 1\n"
                     "    def interface(self):\n"
                     "        \"Each subclass answers.\"\n"
                     "        raise NotImplementedError\n"
                     "class A(Base):\n"
                     "    def hook(self):\n"
                     "        return 2\n"
                     "    def interface(self):\n"
                     "        return 3\n"
                     "class B(Base):\n"
                     "    def hook(self):\n"
                     "        return 4\n"
                     "    def shared(self):\n"
                     "        return 5\n"
                     "    def interface(self):\n"
                     "        return 6\n"
                     "class C(A):\n"
                     "    def hook(self):\n"
                     "        return 7\n")
    # A, and so C, inherit Base.shared; C, A's only subclass, overrides
    # A.hook, which is flagged beside Base.hook
    assert _overridden(tree) == ["Base.hook", "A.hook"]


def test_every_src_function_has_a_caller_outside_the_tests():
    src = {"eudoxus/" + p.name: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    bench = {"bench/" + p.name: ast.parse(p.read_text()) for p in sorted(BENCH.glob("*.py"))}
    uncalled = _uncalled({**src, **bench}, sorted(src))
    assert not uncalled, "functions only the tests call: %s" % uncalled


def test_guard_sees_string_only_and_self_only_defs():
    trees = {"a": ast.parse("import b\n"
                            "def used_in_a_string():\n"
                            "    return 1\n"
                            "def recursive(n):\n"
                            "    return recursive(n - 1) if n else 0\n"
                            "def called():\n"
                            "    return 'used_in_a_string'\n"
                            "class K:\n"
                            "    def __init__(self):\n"
                            "        self.x = 1\n"
                            "    def method(self):\n"
                            "        return self.x\n"
                            "    def unread(self):\n"
                            "        return 2\n"),
             "b": ast.parse("from a import called as c, K\n"
                            "c()\n"
                            "K().method()\n")}
    assert _uncalled(trees, ["a"]) == ["a:used_in_a_string", "a:recursive", "a:K.unread"]
