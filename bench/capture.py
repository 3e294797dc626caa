#!/usr/bin/env python3
"""Capture ``bench/reference.json``: the expected output of every pool entry.

Run from the repository root, at the commit whose outputs are the reference:

    python3 bench/capture.py

For ``cli-cold`` it runs every command of the pool as a fresh process and
stores the exit code and a hash of the stdout bytes; for the in-process
workloads it stores each sub-op's digest. It refuses to write a reference in
which any op fails its own verdict (exit code, violations, oracle above bound),
so the benchmark's inputs are ones on which no operation fails.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
import sys  # noqa: E402
from concurrent.futures import ThreadPoolExecutor  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import cli_cold  # noqa: E402
import inproc  # noqa: E402
import run  # noqa: E402

VERDICTS = (
    "oracle_le_bound", "matches_closed_form", "holds", "exceeds_unit_disk",
    "below_seminorm_bound", "identity_holds", "all_inside", "exact",
)


def verdict_failures(key: str, digest: dict) -> list:
    bad = [f"{key}: {v} is false" for v in VERDICTS if digest.get(v) is False]
    if digest.get("violations", 0):
        bad.append(f"{key}: {digest['violations']} violations")
    return bad


def main() -> int:
    reference = {"tolerance": inproc.TOLERANCE}
    problems = []
    for workload, kinds in inproc.ROUNDS.items():
        entries = reference[workload] = {}
        for kind in kinds:
            runner, pool = inproc.KINDS[kind]
            for params in pool:
                key = inproc.key(kind, params)
                digest = json.loads(json.dumps(runner(params)))
                entries[key] = digest
                problems += verdict_failures(key, digest)
        print(f"{workload}: {len(entries)} entries", file=sys.stderr)

    env, cwd = run.child_env(), str(ROOT)
    argvs = [argv for kind in cli_cold.CYCLE for argv in cli_cold.POOLS[kind]]
    with ThreadPoolExecutor(max_workers=2) as pool:
        results = list(pool.map(lambda argv: cli_cold.run_child(argv, env, cwd)[3], argvs))
    reference["cli-cold"] = {}
    for argv, digest in zip(argvs, results):
        reference["cli-cold"][cli_cold.key(argv)] = digest
        if digest["exit"] != 0:
            problems.append(f"{cli_cold.key(argv)}: exit {digest['exit']}")
    print(f"cli-cold: {len(reference['cli-cold'])} entries", file=sys.stderr)

    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    reference["environment"] = run.environment()
    with open(BENCH / "reference.json", "w", encoding="utf-8") as fh:
        json.dump(reference, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
