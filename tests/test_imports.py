"""Import boundaries: each subcommand loads only the modules it runs.

``import gft`` loads no submodule, and the CLI imports each gft module when a
subcommand first runs it. numpy comes in only with :mod:`gft.verify`, so the
closed-form subcommands and the exact conjecture suite start without it, and
no subcommand loads scipy. ``numpy.polynomial`` comes in only with the first
Gauss-Legendre quadrature, so the sweep suites start without it.
Every check runs in a fresh interpreter, because the test process itself has
long since loaded them all.
"""

import importlib
import json
import os
import pathlib
import pkgutil
import subprocess
import sys

import pytest

import gft

SRC = str(pathlib.Path(gft.__file__).resolve().parents[1])


def run_fresh(code: str):
    """JSON printed on the last stdout line of ``python -c code``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


# every gft module loaded, and numpy, numpy.polynomial or scipy if loaded
LOADED = ("sorted(m for m in sys.modules if m.split('.')[0] == 'gft'"
          " or m in ('numpy', 'numpy.polynomial', 'scipy'))")


def test_package_import_loads_no_submodule():
    assert run_fresh(f"import sys, gft; print(__import__('json').dumps({LOADED}))") == ["gft"]


def test_package_binds_t_series_once_extremal_loads():
    # bench/selftest.py checks that tracing patches the package's t_series
    code = ("import json, gft\n"
            "before = hasattr(gft, 't_series')\n"
            "from gft import extremal\n"
            "print(json.dumps([before, gft.t_series is extremal.t_series]))\n")
    assert run_fresh(code) == [False, True]


def test_bounds_import_loads_neither_numpy_nor_verify():
    # the grid oracles import numpy and gft.verify when they first run
    assert run_fresh(f"import sys, gft.bounds; print(__import__('json').dumps({LOADED}))") == [
        "gft", "gft.bounds"]


@pytest.mark.parametrize("name", sorted(m.name for m in pkgutil.iter_modules(gft.__path__)))
def test_every_export_exists(name):
    module = importlib.import_module(f"gft.{name}")
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


def test_cli_import_loads_no_heavy_module():
    assert run_fresh(f"import sys, gft.cli; print(__import__('json').dumps({LOADED}))") == [
        "gft", "gft.cli"]


CLI = ["gft", "gft.cli"]
RADIUS = ["gft", "gft.cli", "gft.radius"]
BOUNDS = ["gft", "gft.bounds", "gft.cli"]
CLASSIFY = ["gft", "gft.catalog", "gft.cli", "gft.series"]
EXTREMAL = ["gft", "gft.catalog", "gft.cli", "gft.extremal", "gft.series"]
NUMERIC = ["gft", "gft.bounds", "gft.catalog", "gft.cli", "gft.extremal", "gft.radius",
           "gft.series", "gft.verify", "numpy"]
QUADRATURE = NUMERIC + ["numpy.polynomial"]  # the Gauss-Legendre nodes are built on first use

# the stdlib modules a cold process avoids where it can: dataclasses and the
# inspect it pulls in cost about 12 ms, csv is needed only to write CSV
OPTIONAL_STDLIB = ("csv", "dataclasses", "inspect")
NONE = []
DATACLASSES = ["dataclasses", "inspect"]  # gft.catalog defines dataclasses

CASES = [
    (["radius", "--problem", "inclusion"], RADIUS, NONE),
    (["radius", "--problem", "k-starlike", "--k", "1"], RADIUS, NONE),
    (["bound", "--class", "sl", "--alpha", "0.5", "--which", "a4"], BOUNDS, NONE),
    (["bound", "--class", "symmetric-convex", "--which", "h2"], BOUNDS, NONE),
    (["extremal", "--phi", "psi", "--n", "2", "--order", "8"], EXTREMAL, DATACLASSES),
    (["--format", "text", "extremal", "--phi", "cos_sqrt_z", "--kind", "d"], EXTREMAL,
     DATACLASSES),
    (["curves", "--id", "tau3", "--samples", "64"], RADIUS, ["csv"]),
    (["--format", "json", "curves", "--id", "tau", "--samples", "64"], RADIUS, NONE),
    (["classify", "--phi", "sqrt_1_plus_z", "--grid", "64"], CLASSIFY, DATACLASSES),
    (["verify", "--suite", "conjecture"], EXTREMAL, DATACLASSES),
    (["verify", "--suite", "lemmas", "--density", "32"], NUMERIC, DATACLASSES),
    (["verify", "--suite", "bloch"], NUMERIC, DATACLASSES),
    (["verify", "--suite", "membership", "--samples", "10"], QUADRATURE, DATACLASSES),
    (["verify", "--suite", "hankel", "--density", "32"], NUMERIC, DATACLASSES),
]


@pytest.mark.parametrize("argv, loaded, stdlib", CASES,
                         ids=[" ".join(argv) for argv, _, _ in CASES])
def test_subcommand_loads_only_what_it_runs(argv, loaded, stdlib):
    code = (
        "import io, json, sys\n"
        "from gft import cli\n"
        f"before = {LOADED}\n"
        f"status = cli.main({argv!r}, stream=io.StringIO())\n"
        f"stdlib = [m for m in {OPTIONAL_STDLIB!r} if m in sys.modules]\n"
        f"print(json.dumps([status, before, {LOADED}, stdlib]))\n"
    )
    assert run_fresh(code) == [0, CLI, loaded, stdlib]


def test_oracles_load_no_scipy_and_minimize_stays_the_polish_hook():
    code = (
        "import json, sys\n"
        "from gft import bounds, verify\n"
        "calls = []\n"
        "polish = bounds.minimize\n"
        "bounds.minimize = lambda *a, **k: calls.append(1) or polish(*a, **k)\n"
        "bounds.a4_bound(bounds.alpha_class_params(0.5), (1.0, 0.5, 1 / 3), 32)\n"
        "bounds.a2a3_a4_bound(bounds.alpha_class_params(0.5), (1.0, 0.5, 1 / 3), 32)\n"
        "verify.maximize_second_hankel_oracle(bounds.alpha_class_params(0.5), (1.0, 0.5, 1 / 3), 32)\n"
        "verify.bloch_seminorm_bound()\n"
        "print(json.dumps([len(calls), [m for m in sys.modules if m.split('.')[0] == 'scipy']]))\n"
    )
    # the polish looks the module global up at call time; only the Hankel
    # oracle polishes
    assert run_fresh(code) == [1, []]
