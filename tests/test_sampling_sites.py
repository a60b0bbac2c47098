"""Guard: sampling stays where it is allowed.

A function that calls `default_rng` or takes an `rng` parameter draws
random inputs.  Decisions are made exactly, so only the acceptance
battery (`suite`), the CLI's sampled derivation roundtrip, the
independent tangency oracle, the witness search of a refuted
`is_derivation`, `orientability`'s fixed-seed generic pair and the cone
kinds' sampling hooks may draw.  A new sampled decision shows up as an
edit to ALLOWED.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "eudoxus"
ALLOWED_MODULES = {"suite"}
ALLOWED = {
    "cli.cmd_derivation",
    "derivation_algebra.tangency_dimension_oracle",
    "derivation_algebra._expel_witness",
    "derivation_algebra.orientability",
    "cone_space.ConeSpace.sample_vector",
    "cone_space.ConeSpace.sample_cone_point",
    "cone_space.ConeSpace.sample_interior_point",
    "cone_space._JordanSpace._sample_cone_point",
    "cone_space._JordanSpace._complementary_pairs",
    "cone_space._Polyhedral._sample_cone_point",
    "cone_space._Polyhedral._complementary_pairs",
}


def _draws(node):
    """Does this function, apart from the functions nested in it, call
    default_rng or take an rng parameter?"""
    args = node.args
    if any(a.arg == "rng" for a in args.posonlyargs + args.args + args.kwonlyargs):
        return True
    stack = list(node.body)
    while stack:
        n = stack.pop()
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(n, ast.Call) and (
                (isinstance(n.func, ast.Attribute) and n.func.attr == "default_rng")
                or (isinstance(n.func, ast.Name) and n.func.id == "default_rng")):
            return True
        stack.extend(ast.iter_child_nodes(n))
    return False


def _sampling_sites(tree, module):
    """The dotted names (module.Class.function) of the functions that draw."""
    sites = set()

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = scope + [node.name]
            if not isinstance(node, ast.ClassDef) and _draws(node):
                sites.add(".".join([module] + scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)
    visit(tree, [])
    return sites


def _all_sites():
    return {site for path in sorted(SRC.glob("*.py"))
            for site in _sampling_sites(ast.parse(path.read_text()), path.stem)}


def test_only_allowed_functions_sample():
    offenders = sorted(site for site in _all_sites()
                       if site not in ALLOWED and site.split(".")[0] not in ALLOWED_MODULES)
    assert not offenders, "sampling outside the allow-list: %s" % offenders


def test_allow_list_names_only_sampling_functions():
    # a sampler that goes takes its entry with it
    assert ALLOWED <= _all_sites(), sorted(ALLOWED - _all_sites())


def test_guard_sees_sampling_sites():
    tree = ast.parse("import numpy as np\n"
                     "from numpy.random import default_rng\n"
                     "def a(space, rng):\n"
                     "    return rng.random()\n"
                     "def b(space):\n"
                     "    return np.random.default_rng(3).random()\n"
                     "def c(space, *, rng=None):\n"
                     "    return 1\n"
                     "class K:\n"
                     "    def d(self):\n"
                     "        return default_rng()\n"
                     "def e(space):\n"
                     "    def inner(rng):\n"
                     "        return rng\n"
                     "    return inner\n"
                     "def f(space, seed):\n"
                     "    return seed\n")
    assert _sampling_sites(tree, "m") == {"m.a", "m.b", "m.c", "m.K.d", "m.e.inner"}
