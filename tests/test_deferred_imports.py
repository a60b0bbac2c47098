"""Guard: scipy is loaded only where it is used.

Only polyhedral cones (Qhull, pivoted QR, nnls, the pointedness LP) and the
witness search of a refuted is_derivation (expm) call scipy, and each of
those imports its routine when it runs.  A process that works on the
Jordan kinds alone loads no scipy module, and neither does a decision that
refuses an operator without a witness: a compose that falls back to
JordanOnly, or a derivation spectrum of a matrix outside Der(cone).

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

# polyhedral_answers(directory): the stdout of analyze on a pentagon cone's
# spec, the pointedness of a cone only the LP decides, a polyhedral
# projection and a refuted is_derivation's sampled witness, as JSON values
POLYHEDRAL = """
import contextlib, io, os
import numpy as np
from eudoxus import cli
from eudoxus.cone_space import ConeSpace, _is_pointed
from eudoxus.derivation_algebra import is_derivation


def polyhedral_answers(directory):
    n, r = 5, np.cos(np.pi / 5) ** -0.5
    gens = [(1.0, float(r * np.cos(2 * np.pi * i / n)), float(r * np.sin(2 * np.pi * i / n)))
            for i in range(n)]
    spec = os.path.join(directory, "pentagon.spec")
    with open(spec, "w") as fh:
        fh.write("kind = polyhedral\\n" + "".join("gen = %r, %r, %r\\n" % g for g in gens))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["analyze", spec])
    # ten generators near 167 degrees outweigh (1, 0): no certificate
    G = np.array([[1.0, 0.0]] + [[np.cos(t), np.sin(t)] for t in np.linspace(2.9, 2.95, 10)]).T
    projection = ConeSpace.polyhedral(gens).project(np.array([1.0, 2.0, -3.0]))
    shear = np.array([[0.0, 1.0], [0.0, 0.0]])
    verdict = is_derivation(ConeSpace.orthant(2), shear)
    t, x = verdict.witness
    return {"analyze": [code, out.getvalue()], "pointed": bool(_is_pointed(G)),
            "project": projection.tolist(),
            "is_derivation": [verdict.status, verdict.detail, t, x.tolist()]}
"""

FRESH = POLYHEDRAL + """
import json, sys


def scipy_modules():
    return sorted(name for name in sys.modules if name.split(".")[0] == "scipy")


directory = sys.argv[1]
report = {"import": scipy_modules()}
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
report["answers"] = polyhedral_answers(directory)
report["polyhedral"] = scipy_modules()
print(json.dumps(report))
"""


def _fresh(directory):
    src = os.path.dirname(os.path.dirname(eudoxus.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run([sys.executable, "-c", FRESH, str(directory)],
                         env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout)


def test_jordan_commands_load_no_scipy_and_polyhedral_answers_match(tmp_path):
    fresh = _fresh(tmp_path)
    assert fresh["import"] == []
    assert fresh["jordan"] == [[0, 0, 0, 0, 0, 2], []]
    assert fresh["compose"] == "CHECK ratio_compose PASS JB-only symmetrized product " \
                               "(factors do not commute)"
    # the deferred imports ran, and gave the answers this process gives
    assert {"scipy.linalg", "scipy.optimize", "scipy.spatial"} <= set(fresh["polyhedral"])
    namespace = {}
    exec(POLYHEDRAL, namespace)
    here = json.loads(json.dumps(namespace["polyhedral_answers"](str(tmp_path))))
    assert fresh["answers"] == here
    assert "CHECK self_dual PASS" in here["analyze"][1] and here["pointed"]
    assert here["is_derivation"][0] == "Refuted"
