"""Import boundaries: each subcommand loads only the heavy modules it runs.

numpy, scipy and :mod:`gft.verify` are imported on first use, so the
closed-form subcommands start without them.  Every check runs in a fresh
interpreter, because the test process itself has long since loaded them all.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import gft

SRC = str(pathlib.Path(gft.__file__).resolve().parents[1])
HEAVY = ("numpy", "scipy", "scipy.optimize", "gft.verify")


def run_fresh(code: str):
    """JSON printed on the last stdout line of ``python -c code``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


LOADED = f"[m for m in {HEAVY!r} if m in sys.modules]"


def test_cli_import_loads_no_heavy_module():
    assert run_fresh(f"import sys, gft.cli; print(__import__('json').dumps({LOADED}))") == []


CASES = [
    (["radius", "--problem", "inclusion"], []),
    (["radius", "--problem", "k-starlike", "--k", "1"], []),
    (["bound", "--class", "sl", "--alpha", "0.5", "--which", "a4"], []),
    (["bound", "--class", "symmetric-convex", "--which", "h2"], []),
    (["extremal", "--phi", "psi", "--n", "2", "--order", "8"], []),
    (["--format", "text", "extremal", "--phi", "cos_sqrt_z", "--kind", "d"], []),
    (["curves", "--id", "tau3", "--samples", "64"], []),
    (["--format", "json", "curves", "--id", "tau", "--samples", "64"], []),
    (["classify", "--phi", "sqrt_1_plus_z", "--grid", "64"], []),
    (["verify", "--suite", "lemmas", "--density", "32"], ["numpy", "gft.verify"]),
    (["verify", "--suite", "bloch"], ["numpy", "gft.verify"]),
    (["verify", "--suite", "hankel", "--density", "32"],
     ["numpy", "scipy", "scipy.optimize", "gft.verify"]),
]


@pytest.mark.parametrize("argv, loaded", CASES, ids=[" ".join(argv) for argv, _ in CASES])
def test_subcommand_loads_only_what_it_runs(argv, loaded):
    code = (
        "import io, json, sys\n"
        "from gft import cli\n"
        f"before = {LOADED}\n"
        f"status = cli.main({argv!r}, stream=io.StringIO())\n"
        f"print(json.dumps([status, before, {LOADED}]))\n"
    )
    assert run_fresh(code) == [0, [], loaded]


def test_minimize_shim_defers_scipy_and_stays_the_polish_hook():
    code = (
        "import json, sys\n"
        "from gft import bounds\n"
        "before = 'scipy.optimize' in sys.modules\n"
        "res = bounds.minimize(lambda x: (x[0] - 1.0) ** 2, [0.0], method='Nelder-Mead')\n"
        "calls = []\n"
        "shim = bounds.minimize\n"
        "bounds.minimize = lambda *a, **k: calls.append(1) or shim(*a, **k)\n"
        "bounds.schwarz_functional_H(1.0, 0.5, 32)\n"
        "print(json.dumps([before, 'scipy.optimize' in sys.modules,\n"
        "                  abs(float(res.x[0]) - 1.0) < 1e-3, float(res.fun) < 1e-6,\n"
        "                  int(res.nfev) > 0, len(calls)]))\n"
    )
    # scipy absent until the first call; the polish looks the module global up
    assert run_fresh(code) == [False, True, True, True, True, 1]
