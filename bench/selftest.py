#!/usr/bin/env python3
"""Checks of the benchmark itself. Run from the repository root:

    python3 bench/selftest.py

* the ``-X importtime`` split and the digest comparison on fixed inputs;
* tracing: every namespace that bound a traced name is patched and restored,
  and self times add up to the op spans;
* a deliberately corrupted reference makes every workload report failed ops
  (``failed_frac`` > 0, ``correct`` false, exit code 1), while the captured
  reference reports none;
* in a directory holding only ``BENCHMARK.json`` and ``bench/`` the benchmark
  exits non-zero without printing a result.

Prints one line per check and exits 1 if any fails.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import importsplit  # noqa: E402
import inproc  # noqa: E402
import spans  # noqa: E402

RESULTS = []


def check(name: str, ok: bool, detail: str = "") -> None:
    RESULTS.append(ok)
    print(f"{'ok  ' if ok else 'FAIL'} {name}{': ' + detail if detail and not ok else ''}", flush=True)


IMPORTTIME = """\
import time: self [us] | cumulative | imported package
import time:       100 |        100 | encodings
import time:        50 |         50 |     gft.series
import time:        10 |         10 |           numpy._core
import time:      1000 |       1010 |         numpy
import time:         5 |          5 |             numpy.f2py
import time:       200 |        205 |           scipy.optimize._minimize
import time:       300 |        505 |         scipy.optimize
import time:         7 |          7 |         fractions
import time:        40 |       1562 |       gft.bounds
import time:        20 |       1632 |     gft.catalog
import time:        30 |       1662 | gft
"""


def check_importsplit() -> None:
    got = importsplit.split(IMPORTTIME)
    want = {"total": 1662e-6, "numpy": 1010e-6, "scipy": 505e-6, "gft": 140e-6, "other": 7e-6}
    check("importtime split by package boundary",
          all(abs(got[k] - v) < 1e-12 for k, v in want.items()), f"{got}")
    check("importtime split adds up", abs(sum(v for k, v in got.items() if k != "total") - got["total"]) < 1e-12)


def check_compare() -> None:
    cases = [
        ({"a": 1.0}, {"a": 1.0 + 1e-10}, True),
        ({"a": 1.0}, {"a": 1.1}, False),
        ({"a": True}, {"a": 1}, False),
        ({"a": 0}, {"a": 0}, True),
        ({"a": "x"}, {"a": "y"}, False),
        ({"a": [1.0, 2.0]}, {"a": [1.0]}, False),
        ({"a": 1.0}, {"b": 1.0}, False),
    ]
    ok = all((inproc.compare(got, ref, 1e-6, 1e-9) is None) == same for got, ref, same in cases)
    check("digest comparison honours types and tolerance", ok)


def check_tracing() -> None:
    import gft  # noqa: F401
    from gft import bounds, extremal, series, verify

    before = (verify.t_series, extremal.t_series, verify.bisect_root, verify.second_hankel,
              getattr(verify, "minimize", None), getattr(bounds, "minimize", None), series.TruncatedSeries.mul)
    tracer = spans.Tracer()
    undo = spans.install(tracer)
    try:
        patched = set(undo.patched)
        want = {("gft.verify", "t_series"), ("gft.extremal", "t_series"), ("gft", "t_series"),
                ("gft.verify", "bisect_root"), ("gft.radius", "bisect_root"), ("gft.verify", "second_hankel"),
                ("TruncatedSeries", "mul"), ("TruncatedSeries", "__call__")}
        if before[4] is not None:
            want |= {("gft.verify", "minimize"), ("gft.bounds", "minimize")}
        check("tracing patches every namespace that bound a name", want <= patched, f"missing {want - patched}")
        tracer.run_op(0, verify.conjecture_check, 3, 6)
        tracer.run_op(1, lambda: verify.maximize_second_hankel_oracle(
            bounds.alpha_class_params(0.5), bounds.PhiCoeffs(1.0, 0.5, 1 / 3), density=32))
    finally:
        undo()
    after = (verify.t_series, extremal.t_series, verify.bisect_root, verify.second_hankel,
             getattr(verify, "minimize", None), getattr(bounds, "minimize", None), series.TruncatedSeries.mul)
    check("tracing restores the originals", all(a is b for a, b in zip(before, after)))
    summary = tracer.summary()
    check("cross-module calls are traced",
          summary["calls"].get("extremal.t_series", 0) == 3 and summary["calls"].get("series.exp.exact", 0) == 3
          and summary["calls"].get("verify.hankel_oracle", 0) == 1,
          f"{summary['calls']}")
    self_sum, root_sum = sum(tracer.self_time), tracer.root_total()
    check("self times add up to the op spans", abs(self_sum - root_sum) <= 1e-9 * root_sum,
          f"{self_sum} vs {root_sum}")


def corrupt(value):
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, float)):
        return value + 1 + abs(value)
    if isinstance(value, str):
        return "corrupted"
    if isinstance(value, list):
        return [corrupt(v) for v in value]
    if isinstance(value, dict):
        return {k: corrupt(v) for k, v in value.items()}
    return value


def run_bench(cwd: Path, workload: str, reference: Path | None = None) -> tuple:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7", "--seconds", "2", "--trace", "0"]
    if reference is not None:
        cmd += ["--reference", str(reference)]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result


def check_corrupted_reference(tmp: Path) -> None:
    reference = json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))
    bad = dict(reference)
    for workload in ("cli-cold", "membership", "oracles", "series-build"):
        bad[workload] = {k: corrupt(v) for k, v in reference[workload].items()}
    bad_path = tmp / "corrupted-reference.json"
    bad_path.write_text(json.dumps(bad), encoding="utf-8")
    for workload in ("cli-cold", "membership", "oracles", "series-build"):
        code, result = run_bench(ROOT, workload, bad_path)
        ok = (code == 1 and result is not None and not result["correct"]
              and result["failed"] > 0 and result["failed"] == result["attempted"])
        check(f"corrupted reference fails every {workload} op", ok, f"exit {code}, {result}")
    code, result = run_bench(ROOT, "series-build")
    check("captured reference passes", code == 0 and result is not None and result["correct"]
          and result["failed"] == 0, f"exit {code}, {result}")


def check_without_sources(tmp: Path) -> None:
    bare = tmp / "bare"
    bare.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "membership", "--seed", "1",
                           "--seconds", "2", "--trace", "0"], cwd=bare, capture_output=True, text=True, timeout=180)
    check("without src/ the benchmark exits non-zero and prints no result",
          proc.returncode != 0 and not proc.stdout.strip(), f"exit {proc.returncode}, stdout {proc.stdout!r}")


def main() -> int:
    check_importsplit()
    check_compare()
    check_tracing()
    out = BENCH / "out"
    out.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out) as tmp:
        check_without_sources(Path(tmp))
        check_corrupted_reference(Path(tmp))
    return 0 if all(RESULTS) else 1


if __name__ == "__main__":
    sys.exit(main())
