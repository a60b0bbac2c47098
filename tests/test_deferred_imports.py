"""Guard: scipy is loaded only where it is used.

Only the pointedness LP that a cone's generator sum does not certify
(linprog) and the witness search of a refuted is_derivation (expm) call
scipy, and each of those imports its routine when it runs; the search runs
only when the witness is read.  So a process that works on the Jordan kinds
alone loads no scipy module, and neither does one that builds a pentagon or
a rotated orthant and analyzes it: the facets come from numpy (the
pentagon's from the angular order of its rays, the orthant's from a double
description) and the Der basis from numpy pivots, and the refuted facial
homogeneity of the pentagon searches no witness that nothing reads.  Nor
does a decision that refuses an operator without a witness: a compose that
falls back to JordanOnly, or a derivation spectrum of a matrix outside
Der(cone).  Nor do the point queries on a polyhedral cone: membership,
order and the order-unit norm read the facets, and a projection (so a
Jordan decomposition) is the nearest face shadow in R^3 and cone_space's
numpy active set elsewhere.

Other test modules import scipy at module level, so in this process the
deferred imports are already satisfied.  Only a fresh interpreter shows
what a command loads, and that the deferred path gives the answers it
gives here.
"""

import json
import os
import subprocess
import sys

import eudoxus

# polyhedral_answers(directory, loaded): the stdout of analyze on the specs of
# a pentagon cone and a rotated orthant in R^5, a refuted is_derivation's
# verdict and then its sampled witness, the pointedness of a cone only the LP
# decides, and a polyhedral projection, as JSON values; loaded(stage) is
# called after each
POLYHEDRAL = """
import contextlib, io, os
import numpy as np
from eudoxus import cli
from eudoxus.cone_space import ConeSpace, _is_pointed
from eudoxus.derivation_algebra import is_derivation


def pentagon():
    n, r = 5, np.cos(np.pi / 5) ** -0.5
    return [(1.0, float(r * np.cos(2 * np.pi * i / n)), float(r * np.sin(2 * np.pi * i / n)))
            for i in range(n)]


def polyhedral_answers(directory, loaded):
    rotated = np.linalg.qr(np.random.default_rng(0).standard_normal((5, 5)))[0]
    analyze = []
    for name, gens in (("pentagon", pentagon()), ("rotated", [tuple(g) for g in rotated.T.tolist()])):
        spec = os.path.join(directory, "%s.spec" % name)
        with open(spec, "w") as fh:
            fh.write("kind = polyhedral\\n" + "".join(
                "gen = %s\\n" % ", ".join(repr(v) for v in g) for g in gens))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            analyze.append([cli.main(["analyze", spec]), out.getvalue()])
    loaded("analyze")
    shear = np.array([[0.0, 1.0], [0.0, 0.0]])
    verdict = is_derivation(ConeSpace.orthant(2), shear)
    loaded("verdict")
    t, x = verdict.witness
    loaded("witness")
    # ten generators near 167 degrees outweigh (1, 0): no certificate
    G = np.array([[1.0, 0.0]] + [[np.cos(a), np.sin(a)] for a in np.linspace(2.9, 2.95, 10)]).T
    pointed = bool(_is_pointed(G))
    loaded("pointed")
    projection = ConeSpace.polyhedral(pentagon()).project(np.array([1.0, 2.0, -3.0]))
    return {"analyze": analyze, "pointed": pointed, "project": projection.tolist(),
            "is_derivation": [verdict.status, verdict.detail, t, x.tolist()]}
"""

SCIPY_MODULES = """
import sys


def scipy_modules():
    return sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
"""

FRESH = POLYHEDRAL + SCIPY_MODULES + """
import json


directory = sys.argv[1]
report = {"import": scipy_modules(), "stages": {}}
codes = []
for kind, dim, antecedent, consequent in (("orthant", 2, "1,2", "1,1"),
                                          ("lorentz", 3, "3,1,1", "1,0,0")):
    spec = os.path.join(directory, "%s.spec" % kind)
    with open(spec, "w") as fh:
        fh.write("kind = %s\\ndim = %d\\n" % (kind, dim))
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(cli.main(["ratio", "make", spec,
                               "--antecedent", antecedent, "--consequent", consequent]))
        codes.append(cli.main(["analyze", spec]))
# the product of two ratios on lorentz(3) leaves Der: JordanOnly, exit 0;
# a symmetric matrix outside Der(orthant(2)) is refused, exit 2
with contextlib.redirect_stdout(io.StringIO()) as out:
    codes.append(cli.main(["ratio", "compose", os.path.join(directory, "lorentz.spec"),
                           "--antecedent", "3,1,0", "--consequent", "1,0,0",
                           "--antecedent2", "3,1,0", "--consequent2", "1,0,0"]))
report["compose"] = out.getvalue().splitlines()[-1]
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    codes.append(cli.main(["derivation", "spectrum", os.path.join(directory, "orthant.spec"),
                           "--matrix", "1,2;2,1"]))
report["jordan"] = [codes, scipy_modules()]
report["answers"] = polyhedral_answers(
    directory, lambda stage: report["stages"].__setitem__(stage, scipy_modules()))
print(json.dumps(report))
"""

# the six point queries of the benchmark's cone_queries on a pentagon and a
# rotated orthant in R^5, after the cones are built: the scipy modules loaded
# after each stage, and the answers as JSON values
QUERIES = POLYHEDRAL + SCIPY_MODULES + """
import json


def query_answers():
    rng = np.random.default_rng(1)
    rotated = np.linalg.qr(rng.standard_normal((5, 5)))[0]
    spaces = [ConeSpace.polyhedral(pentagon()), ConeSpace.polyhedral(list(rotated.T))]
    loaded = [scipy_modules()]
    answers = []
    for space in spaces:
        u = space.canonical_unit()
        # outside K and -K, inside K, and inside -K
        for x in (rng.standard_normal(space.dim), u + 0.1 * rng.standard_normal(space.dim), -u):
            y = x + space.sample_interior_point(rng)
            xp, xm = space.jordan_decompose(x)
            answers.append([space.membership(x).value, space.project(x).tolist(),
                            xp.tolist(), xm.tolist(), space.order_unit_norm(x),
                            space.leq(x, y), space.lt(x, y), space.lt(y, x)])
    loaded.append(scipy_modules())
    return loaded, answers


if __name__ == "__main__":
    print(json.dumps(query_answers()))
"""


def _fresh(script, *args):
    src = os.path.dirname(os.path.dirname(eudoxus.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run([sys.executable, "-c", script, *map(str, args)],
                         env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout)


def test_jordan_commands_load_no_scipy_and_polyhedral_answers_match(tmp_path):
    fresh = _fresh(FRESH, tmp_path)
    assert fresh["import"] == []
    assert fresh["jordan"] == [[0, 0, 0, 0, 0, 2], []]
    assert fresh["compose"] == "CHECK ratio_compose PASS JB-only symmetrized product " \
                               "(factors do not commute)"
    # polyhedral cones built and analyzed, and a refutation decided, on numpy
    # alone; reading the witness loads scipy.linalg (expm), the LP scipy.optimize
    stages = fresh["stages"]
    assert stages["analyze"] == [] and stages["verdict"] == []
    assert "scipy.linalg" in stages["witness"] and "scipy.optimize" not in stages["witness"]
    assert "scipy.optimize" in stages["pointed"]
    # the deferred imports gave the answers this process gives
    namespace = {}
    exec(POLYHEDRAL, namespace)
    here = json.loads(json.dumps(namespace["polyhedral_answers"](str(tmp_path), lambda stage: None)))
    assert fresh["answers"] == here
    # the pentagon is not facially homogeneous, so its analyze exits 1
    (pentagon_code, pentagon_out), (rotated_code, rotated_out) = here["analyze"]
    assert (pentagon_code, rotated_code) == (1, 0)
    assert "CHECK self_dual PASS" in pentagon_out and "CHECK self_dual PASS" in rotated_out
    assert here["pointed"] and here["is_derivation"][0] == "Refuted"


def test_polyhedral_point_queries_load_no_scipy_and_match():
    (built, queried), answers = _fresh(QUERIES)
    assert built == [] and queried == []
    namespace = {}
    exec(QUERIES, namespace)
    here = json.loads(json.dumps(namespace["query_answers"]()[1]))
    assert answers == here
    # the three points of each cone: outside K and -K, inside K, inside -K
    assert [a[0] for a in answers] == ["Outside", "Interior", "Outside"] * 2
