"""The ``cli-cold`` workload: every op is a fresh ``python -m gft.cli`` process.

The commands are those of the README's CLI section whose own compute is
small, with parameters from fixed grids inside their documented ranges. The op
mix is a fixed cycle of subcommands; the seed picks each op's parameters.
Flags that no handler reads (``--tolerance``, ``--truncation-order``,
``verify --json``) are never passed.
"""

from __future__ import annotations

import hashlib
import os
import random
import subprocess
import sys
import time

from draws import cycled

PHIS = (
    "cos_sqrt_minus_z",
    "cos_sqrt_z",
    "one_minus_log_one_minus_z",
    "psi",
    "sqrt_1_minus_z",
    "sqrt_1_plus_z",
)


def _radius():
    out = [["radius", "--problem", "k-starlike", "--k", k] for k in ("0.25", "0.5", "1", "1.5", "2", "3", "4")]
    out += [["radius", "--problem", "convex", "--alpha", a] for a in ("0", "0.1", "0.25", "0.4", "0.5", "0.6", "0.75", "0.9")]
    out += [["radius", "--problem", "starlike-order", "--alpha", a] for a in ("0.31", "0.4", "0.5", "0.7", "0.9")]
    out += [["radius", "--problem", "m-beta", "--beta", b] for b in ("1.1", "1.5", "2", "3")]
    out += [["radius", "--problem", "strongly-starlike", "--gamma", g] for g in ("0.1", "0.25", "0.4", "0.5")]
    out += [["radius", "--problem", "majorization"], ["radius", "--problem", "inclusion"]]
    return out


def _bound():
    out = []
    for alpha in ("0", "0.25", "0.5", "0.75", "1"):
        for which in ("h2", "a4", "a2a3a4", "a5", "h3"):
            out.append(["bound", "--class", "sl", "--alpha", alpha, "--which", which])
        for t in ("0.5", "1", "2"):
            out.append(["bound", "--class", "sl", "--alpha", alpha, "--which", "fekete", "--t", t])
    for klass in ("symmetric-starlike", "symmetric-convex"):
        out.append(["bound", "--class", klass, "--which", "h2"])
        out.append(["bound", "--class", klass, "--which", "h2", "--b1", "2", "--b2", "2", "--b3", "2"])
    return out


def _extremal():
    out = []
    for phi in PHIS:
        for n in ("1", "2", "3"):
            out.append(["extremal", "--phi", phi, "--n", n, "--order", "8"])
            out.append(["extremal", "--phi", phi, "--n", n, "--order", "12", "--kind", "d"])
    out += [["--format", "text", "extremal", "--phi", phi, "--n", "3", "--order", "4"] for phi in PHIS]
    return out


def _curves():
    out = []
    for cid in ("tau", "tau1", "tau2", "tau3", "tau4"):
        for samples in ("32", "64", "128", "256"):
            out.append(["curves", "--id", cid, "--samples", samples])
            out.append(["--format", "json", "curves", "--id", cid, "--samples", samples])
    return out


def _classify():
    return [["classify", "--phi", phi, "--grid", g] for phi in PHIS for g in ("64", "128", "256")]


def _verify():
    out = [["verify", "--suite", "bloch"], ["verify", "--suite", "conjecture"]]
    for d in ("32", "40", "48"):
        out.append(["verify", "--suite", "lemmas", "--density", d])
        out.append(["verify", "--suite", "hankel", "--density", d])
    return out


POOLS = {
    "radius": _radius(),
    "bound": _bound(),
    "extremal": _extremal(),
    "curves": _curves(),
    "classify": _classify(),
    "verify": _verify(),
}
CYCLE = ("radius", "bound", "extremal", "curves", "classify", "verify")

# Commands of a traced (in-process) run: a fixed set that reaches every layer
# the CLI uses; the seed only shuffles their order.
TRACE_SET = [
    ["radius", "--problem", "k-starlike", "--k", "1"],
    ["radius", "--problem", "inclusion"],
    ["bound", "--class", "sl", "--alpha", "0.5", "--which", "a4"],
    ["bound", "--class", "sl", "--alpha", "0.25", "--which", "h3"],
    ["extremal", "--phi", "psi", "--n", "2", "--order", "8"],
    ["extremal", "--phi", "cos_sqrt_z", "--n", "1", "--order", "12", "--kind", "d"],
    ["curves", "--id", "tau3", "--samples", "128"],
    ["--format", "json", "curves", "--id", "tau", "--samples", "64"],
    ["classify", "--phi", "psi", "--grid", "128"],
    ["classify", "--phi", "cos_sqrt_z", "--grid", "256"],
    ["verify", "--suite", "lemmas", "--density", "40"],
    ["verify", "--suite", "hankel", "--density", "40"],
    ["verify", "--suite", "conjecture"],
    ["verify", "--suite", "bloch"],
]


def key(argv) -> str:
    return " ".join(argv)


def make_ops(seed: int, count: int) -> list:
    rng = random.Random(f"cli-cold:{seed}")
    streams = {kind: cycled(POOLS[kind], rng) for kind in CYCLE}
    return [next(streams[CYCLE[i % len(CYCLE)]]) for i in range(count)]


def trace_ops(seed: int) -> list:
    ops = [list(argv) for argv in TRACE_SET]
    random.Random(f"trace:cli-cold:{seed}").shuffle(ops)
    return ops


def digest(exit_code: int, stdout: bytes) -> dict:
    return {"exit": exit_code, "sha256": hashlib.sha256(stdout).hexdigest(), "bytes": len(stdout)}


def run_child(argv, env: dict, cwd: str):
    """Run one CLI process; returns (wall_s, cpu_s, peak_rss_kb, digest)."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "gft.cli", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, stdin=subprocess.DEVNULL,
        env=env, cwd=cwd,
    )
    stdout = proc.stdout.read()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss, digest(proc.returncode, stdout)


def check(argv, got: dict, reference: dict) -> str | None:
    ref = reference["cli-cold"].get(key(argv))
    if ref is None:
        return f"{key(argv)}: no reference"
    if got != ref:
        return f"{key(argv)}: exit {got['exit']}, {got['bytes']} bytes, stdout differs from reference"
    return None
