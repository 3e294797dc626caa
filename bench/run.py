#!/usr/bin/env python3
"""gft benchmark: end-to-end timings per workload, per-layer timings when traced.

Run from the repository root:

    python3 bench/run.py --workload membership --seed 1 --seconds 20 --trace 0

Workloads (see ``BENCHMARK.json`` for why each exists):

* ``cli-cold``     each op is a fresh ``python -m gft.cli ...`` process
* ``membership``   each op is one ``verify.verify_class_membership_bounds`` call
* ``oracles``      each op is one round of the brute-force oracle mix
* ``series-build`` each op is one round of exact and float series construction

``--trace 0`` runs the closed loop (one client, the next op starts when the
previous one ends) for ``--seconds`` and reports the end-to-end metrics.
Op and set-up times are rescaled to nominal machine speed with reference
tasks timed between them (see ``calibrate`` and ``calibrate_process``).
``--trace 1`` measures the import split with ``-X importtime`` and then, for
every workload, runs a fixed seed-independent set of ops in-process three
times: warm-up, untraced, and with spans around gft's public functions. It
reports the per-layer metrics as ``<workload>.<layer metric>`` plus each
workload's tracing overhead; the spans go to ``bench/out/``.

Every op's output is checked against ``bench/reference.json`` (captured with
``bench/capture.py``); an op that raises, exits non-zero or differs counts as
failed. The last line of stdout is the JSON result; the lines before it list
every metric with its unit, and the environment. BLAS threads are pinned to 1
in this process and in every child.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
WORKLOADS = ("cli-cold", "membership", "oracles", "series-build")

SETUP_PROBES = 5   # fresh processes timed from start to first op; median reported
IMPORT_RUNS = 3    # -X importtime runs in a traced run; median per package
INTERPRETER_RUNS = 5
ROUNDS_GENERATED = 2000  # in-process rounds drawn per run (cycled if a run needs more)
CLI_OPS_GENERATED = 400


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def setup(workload: str, seed: int, reference_path: Path):
    """Import gft, draw the workload's inputs from the seed, load the reference."""
    import gft  # noqa: F401

    with open(reference_path, encoding="utf-8") as fh:
        reference = json.load(fh)
    if workload == "cli-cold":
        import cli_cold

        return cli_cold.make_ops(seed, CLI_OPS_GENERATED), reference
    import inproc

    return inproc.make_rounds(workload, seed, ROUNDS_GENERATED), reference


# Machine-speed calibration. On a shared VM the same work runs up to ~50%
# slower for stretches of seconds to minutes (other tenants on the host), which
# no run length averages out. Fixed reference tasks are therefore timed between
# ops, and times are reported rescaled to nominal speed: multiplied by
# (nominal time of the task) / (its measured time). The raw figures are printed
# next to the metrics. Nominal times: uncontended 2-vCPU Xeon VM, Python 3.11.
#
# In-process ops: a pure-Python kernel; each op uses the mean of the
# calibrations just before and after it.
#
# Fresh processes (cold CLI ops, set-up probes): the kernel hardly tracks them,
# since most of their time is process start and module loading. The task is a
# pair of fresh interpreters, a bare one and one that imports numpy (geometric
# mean of the two factors), and a run uses its median factor. The task's speed
# swings between about as much as a cold op's and twice as much, depending on
# the period, so the factor is applied with exponent PROCESS_ELASTICITY. On
# 20 s stretches, ten-run sets and quiet and drifting periods (2-vCPU VM), 0.75
# kept the spread of cold-op medians lowest in the worst period: a coefficient
# of variation of 0.07 where raw times had 0.16 and the full factor 0.10.
CAL_ITERATIONS = 30000
CAL_NOMINAL_S = 0.004
PROCESS_REFERENCES = (("pass", 0.07), ("import numpy", 0.2))  # (code, nominal s)
PROCESS_ELASTICITY = 0.75


def calibrate() -> float:
    """Nominal-speed factor: CAL_NOMINAL_S over the kernel's wall time now."""
    start = time.perf_counter()
    acc, z, s = 0j, 0.5 + 0.25j, 0
    for i in range(CAL_ITERATIONS):
        s += i * i % 7
        acc = acc * z + i
    return CAL_NOMINAL_S / (time.perf_counter() - start)


def calibrate_process() -> float:
    """Nominal-speed factor for fresh processes: the reference interpreters now."""
    log_factor = 0.0
    for code, nominal in PROCESS_REFERENCES:
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=child_env(), cwd=ROOT, check=True, timeout=60)
        log_factor += math.log(nominal / (time.perf_counter() - start))
    return math.exp(PROCESS_ELASTICITY * log_factor / len(PROCESS_REFERENCES))


def probe_setup(args) -> float:
    """Wall time from starting a fresh process until it is ready for its first op."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe", "--workload", args.workload,
           "--seed", str(args.seed), "--reference", str(args.reference)]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL, env=child_env(), cwd=ROOT)
    line = proc.stdout.readline()
    ready = time.perf_counter()
    proc.stdout.close()
    if proc.wait(timeout=60) != 0 or line.strip() != b"ready":
        raise RuntimeError("setup probe failed")
    return ready - start


def tail(values: list) -> tuple:
    """(value, percentile, ops beyond) at the highest percentile with ten ops beyond it.

    With fewer than 11 ops that is the minimum, the value with the most ops
    beyond it, so the metric does not jump when a slow run completes one op
    fewer.
    """
    ordered = sorted(values)
    n = len(ordered)
    idx = max(n - 11, 0)
    return ordered[idx], 100.0 * (idx + 1) / n, n - 1 - idx


# -- untraced runs ---------------------------------------------------------------------


def cli_op(reference, rss: list):
    """One cold CLI process: (wall s, cpu s, why it failed or None)."""
    import cli_cold

    env, cwd = child_env(), str(ROOT)

    def op(argv):
        wall, cpu, rss_kb, got = cli_cold.run_child(argv, env, cwd)
        rss.append(rss_kb)
        return wall, cpu, cli_cold.check(argv, got, reference)
    return op


def inproc_op(workload, reference):
    """One in-process round: (wall s, cpu s, why it failed or None)."""
    import inproc

    def op(rnd):
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            digests, error = inproc.run_round(rnd), None
        except Exception as exc:  # an op that raises counts as failed
            digests, error = None, f"{rnd[0][0]}: raised {exc!r}"
        c1, w1 = time.process_time(), time.perf_counter()
        return w1 - w0, c1 - c0, error or inproc.check_round(workload, rnd, digests, reference)
    return op


def closed_loop(op, ops, seconds: float, speed):
    """Run ops back to back for ``seconds``; rows of (wall, cpu, speed factor).

    ``speed`` runs between consecutive ops; an op's factor is the mean of the
    calibrations just before and just after it.
    """
    op(ops[0])  # warm-up: first calls pay lazy set-up and fill the page cache
    rows, failures = [], []
    start = time.perf_counter()
    before = speed()
    i = 1
    while True:
        wall, cpu, why = op(ops[i % len(ops)])
        after = speed()
        i += 1
        rows.append((wall, cpu, (before + after) / 2))
        before = after
        if why:
            failures.append(why)
        if time.perf_counter() - start >= seconds:
            return rows, failures


def run_untraced(args):
    setups, setup_factors = [], [calibrate_process()]
    for _ in range(SETUP_PROBES):
        setups.append(probe_setup(args))
        setup_factors.append(calibrate_process())
    setup_factor = statistics.median(setup_factors)
    ops, reference = setup(args.workload, args.seed, args.reference)
    rss = []
    if args.workload == "cli-cold":
        rows, failures = closed_loop(cli_op(reference, rss), ops, args.seconds, calibrate_process)
        run_factor = statistics.median(f for _, _, f in rows)
        rows = [(w, c, run_factor) for w, c, _ in rows]
    else:
        rows, failures = closed_loop(inproc_op(args.workload, reference), ops, args.seconds, calibrate)
    if args.workload == "cli-cold":
        peak_mb = statistics.median(rss) / 1024.0
    else:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    n = len(rows)
    walls = [w * f for w, _, f in rows]
    tail_s, tail_pct, beyond = tail(walls)
    raw_walls = [w for w, _, _ in rows]
    metrics = {
        "setup_s": statistics.median(setups) * setup_factor,
        "op_p50_ms": statistics.median(walls) * 1e3,
        "op_tail_ms": tail_s * 1e3,
        "op_cpu_ms": statistics.median(c * f for _, c, f in rows) * 1e3,
        "ops_per_s": (n - len(failures)) / sum(walls),
        "peak_rss_mb": peak_mb,
        "failed_frac": len(failures) / n,
    }
    notes = {
        "setup_s": f"median of {SETUP_PROBES} fresh processes; raw {statistics.median(setups):.4f} s; "
                   f"speed factor {setup_factor:.3f}",
        "op_p50_ms": f"n={n}; raw {statistics.median(raw_walls) * 1e3:.2f} ms; "
                     f"median speed factor {statistics.median(f for _, _, f in rows):.3f}",
        "op_tail_ms": f"p{tail_pct:.1f}, n={n}, {beyond} ops beyond; "
                      f"raw {tail(raw_walls)[0] * 1e3:.2f} ms",
        "op_cpu_ms": f"median user+sys, n={n}",
        "ops_per_s": f"closed loop, 1 client; raw {(n - len(failures)) / sum(raw_walls):.4f} 1/s",
        "peak_rss_mb": "median over op processes" if args.workload == "cli-cold" else "this process",
        "failed_frac": f"{len(failures)}/{n}",
    }
    return n, failures, metrics, notes


# -- traced runs -----------------------------------------------------------------------


def measure_imports() -> dict:
    import importsplit

    env = child_env()
    splits, interpreter = [], []
    for _ in range(IMPORT_RUNS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import gft"], env=env,
                              cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        splits.append(importsplit.split(proc.stderr))
    for _ in range(INTERPRETER_RUNS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, cwd=ROOT, check=True, timeout=60)
        interpreter.append(time.perf_counter() - start)
    out = {f"import.{k}_s": statistics.median(s[k] for s in splits) for k in splits[0]}
    out["cli.interpreter_s"] = statistics.median(interpreter)
    return out


def _cli_inproc(argv):
    import cli_cold
    from gft import cli

    buf = io.StringIO()
    code = cli.main(list(argv), stream=buf)
    return cli_cold.digest(code, buf.getvalue().encode())


def _trace_workload(workload, seed, reference, failures):
    """Untraced then traced pass over the workload's fixed traced set."""
    import spans

    if workload == "cli-cold":
        import cli_cold

        ops, run_op = cli_cold.trace_ops(seed), _cli_inproc
        check = lambda op, got: cli_cold.check(op, got, reference)  # noqa: E731
    else:
        import inproc

        ops, run_op = inproc.trace_rounds(workload, seed), inproc.run_round
        check = lambda op, got: inproc.check_round(workload, op, got, reference)  # noqa: E731

    def one_pass(call):
        total = 0.0
        for i, op in enumerate(ops):
            start = time.perf_counter()
            try:
                got, error = call(i, op), None
            except Exception as exc:  # an op that raises counts as failed
                got, error = None, f"raised {exc!r}"
            total += time.perf_counter() - start
            why = error or check(op, got)
            if why:
                failures.append(f"{workload}: {why}")
        return total

    one_pass(lambda i, op: run_op(op))  # warm-up: first calls of every kind pay lazy set-up
    untraced = one_pass(lambda i, op: run_op(op))
    tracer = spans.Tracer()
    undo = spans.install(tracer)
    try:
        traced = one_pass(lambda i, op: tracer.run_op(i, run_op, op))
    finally:
        undo()
    layers = spans.layer_metrics(tracer)
    layers["trace.overhead_s"] = traced - untraced

    # the self times must add up to the op spans, and those to the traced wall time
    self_sum = sum(tracer.self_time)
    root_sum = tracer.root_total()
    if not (abs(self_sum - root_sum) <= 1e-6 * root_sum and 0.99 * traced <= root_sum <= traced):
        failures.append(f"{workload}: trace inconsistent: self {self_sum!r}, "
                        f"op spans {root_sum!r}, traced wall {traced!r}")

    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"spans-{workload}-seed{seed}.csv.gz"
    tracer.write(spans_path)
    lines = [
        f"{workload}: {len(ops)} ops, {len(tracer.names)} spans -> {spans_path.relative_to(ROOT)}; "
        f"untraced {untraced:.3f} s, traced {traced:.3f} s ({100 * (traced / untraced - 1):+.1f}%); "
        f"self-time sum {self_sum:.6f} s = op spans {root_sum:.6f} s = {root_sum / traced:.5f} of traced wall",
    ]
    return layers, lines, len(ops), untraced, root_sum


SHARE_GROUPS = {
    "series.call + verify.structural_eval": ("series.call.self_s", "verify.structural_eval.self_s"),
    "bounds.polish + verify sweeps": (
        "bounds.polish.self_s", "verify.hankel_oracle.self_s", "verify.lemma_sweeps.self_s",
        "verify.counterexample.self_s", "verify.bloch_norm_estimate.self_s",
    ),
    "exact series split": ("series.mul.exact.self_s", "series.exp.exact.self_s", "series.compose.exact.self_s"),
    "catalog.coeff": ("catalog.coeff.self_s",),
}


def shares(workload, layers, imports, n_ops, untraced_s, traced_s) -> list:
    """Share of an op's time per layer group; on cli-cold, of a whole cold process."""
    if workload == "cli-cold":
        basis = n_ops * (imports["cli.interpreter_s"] + imports["import.total_s"]) + untraced_s
        out = [f"{workload} share import.total: {n_ops * imports['import.total_s'] / basis:.3f}"]
        scale = untraced_s / traced_s / basis
    else:
        out, scale = [], 1.0 / traced_s
    for label, names in SHARE_GROUPS.items():
        out.append(f"{workload} share {label}: {sum(layers[n] for n in names) * scale:.3f}")
    return out


def run_traced(args):
    """Per-layer metrics of every workload, named ``<workload>.<layer metric>``."""
    metrics = measure_imports()
    _, reference = setup(args.workload, args.seed, args.reference)
    failures, extra, attempted = [], [], 0
    for workload in WORKLOADS:
        layers, lines, n_ops, untraced, traced = _trace_workload(workload, args.seed, reference, failures)
        attempted += 3 * n_ops
        metrics.update({f"{workload}.{name}": value for name, value in layers.items()})
        extra += lines + shares(workload, layers, metrics, n_ops, untraced, traced)
    return attempted, failures, metrics, {}, extra


# -- output ----------------------------------------------------------------------------


def environment(seed=None, workload=None) -> dict:
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    env = {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "seed": seed,
        "workload": workload,
    }
    if "numpy" in sys.modules:
        try:
            blas = sys.modules["numpy"].show_config(mode="dicts")["Build Dependencies"]["blas"]
            env["blas"] = f"{blas.get('name')} {blas.get('version')}"
        except (KeyError, TypeError, AttributeError):
            env["blas"] = None
    return env


def report(args, attempted, failures, metrics, notes, extra):
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    shown = {m["name"] for m in listed}
    for name in sorted(metrics):
        if metrics[name] == 0 and name not in shown:
            continue
        unit = units.get(name) or ("s" if name.endswith("_s") else "frac" if name.endswith("_frac") else "count")
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"# {name} = {metrics[name]!r} {unit}{note}")
    for line in extra:
        print(f"# {line}")
    for why in failures[:10]:
        print(f"# FAILED {why}")
    print(f"# env {json.dumps(environment(args.seed, args.workload), sort_keys=True)}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in listed},
    }
    print(json.dumps(result))
    sys.stdout.flush()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reference", type=Path, default=BENCH / "reference.json")
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    missing = [p for p in (SRC / "gft" / "__init__.py", SPEC, args.reference) if not p.is_file()]
    if missing:
        print(f"error: {', '.join(map(str, missing))} not found; run from a gft checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.probe:
        setup(args.workload, args.seed, args.reference)
        print("ready", flush=True)
        return 0
    if args.trace:
        attempted, failures, metrics, notes, extra = run_traced(args)
    else:
        (attempted, failures, metrics, notes), extra = run_untraced(args), []
    report(args, attempted, failures, metrics, notes, extra)
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
