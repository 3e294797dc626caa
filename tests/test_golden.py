"""Golden CLI outputs: stdout bytes and exit code of the fast README commands.

Each case in ``CASES`` has a file ``golden/<name>.out`` whose first line is
``exit <code>`` and whose remainder is the exact stdout of the command.
Refactors must leave these bytes unchanged.  After a deliberate output
change, rewrite the files with

    PYTHONPATH=src python tests/test_golden.py

The benchmark's ``cli-cold`` workload checks each fresh-process command by
the exit code, byte count and sha256 of its stdout, recorded in
``bench/reference.json``; ``test_cli_cold_reference`` replays every one of
those commands in process.  ``test_inproc_reference`` replays every pool
entry of every sub-op of the in-process ``membership``, ``oracles`` and
``series-build`` workloads, with the runners, ``compare`` and tolerances of
``bench/inproc.py``.  Both only read ``bench/``.
"""

import hashlib
import io
import json
import pathlib
import sys

import pytest

from gft.cli import main

GOLDEN = pathlib.Path(__file__).with_name("golden")
BENCH = pathlib.Path(__file__).parents[1] / "bench"
REFERENCE = json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))

sys.path.insert(0, str(BENCH))
try:
    import inproc  # imports its sibling bench/draws.py
finally:
    sys.path.remove(str(BENCH))

CASES = {
    "radius_k_starlike": ["radius", "--problem", "k-starlike", "--k", "1"],
    "radius_convex": ["radius", "--problem", "convex", "--alpha", "0.25"],
    "radius_inclusion": ["radius", "--problem", "inclusion"],
    "radius_inclusion_text": ["--format", "text", "radius", "--problem", "inclusion"],
    "radius_starlike_order": ["radius", "--problem", "starlike-order", "--alpha", "0.5"],
    "radius_m_beta": ["radius", "--problem", "m-beta", "--beta", "2"],
    "radius_strongly_starlike": ["radius", "--problem", "strongly-starlike", "--gamma", "0.25"],
    "radius_majorization": ["radius", "--problem", "majorization"],
    "bound_h3_star": ["bound", "--class", "sl", "--alpha", "0", "--which", "h3"],
    "bound_fekete": ["bound", "--class", "sl", "--alpha", "0.5", "--which", "fekete", "--t", "1.0"],
    "bound_symmetric": ["bound", "--class", "symmetric-starlike", "--which", "h2",
                        "--b1", "2", "--b2", "2", "--b3", "2"],
    "bound_symmetric_convex": ["bound", "--class", "symmetric-convex", "--which", "h2"],
    **{f"bound_sl_{which}": ["bound", "--class", "sl", "--alpha", "0.75", "--which", which]
       for which in ("h2", "a4", "a2a3a4", "a5", "h3")},
    "bound_h3_text": ["--format", "text", "bound", "--class", "sl", "--alpha", "0.5",
                      "--which", "h3"],
    "extremal_json": ["extremal", "--phi", "psi", "--n", "1", "--order", "8"],
    "extremal_text": ["--format", "text", "extremal", "--phi", "psi", "--n", "3", "--order", "4"],
    "extremal_d": ["extremal", "--phi", "psi", "--n", "2", "--order", "12", "--kind", "d"],
    "curves_csv": ["curves", "--id", "tau", "--samples", "512"],
    "curves_json": ["--format", "json", "curves", "--id", "tau4", "--samples", "256"],
    "verify_hankel": ["verify", "--suite", "hankel", "--density", "64"],
    "verify_hankel_32": ["verify", "--suite", "hankel", "--density", "32"],
    "verify_lemmas": ["verify", "--suite", "lemmas", "--density", "64"],
    "verify_lemmas_48": ["verify", "--suite", "lemmas", "--density", "48"],
    "verify_bloch": ["verify", "--suite", "bloch"],
    "verify_conjecture": ["verify", "--suite", "conjecture"],
    "verify_counterexamples": ["verify", "--suite", "counterexamples"],
    "verify_membership": ["--seed", "42", "verify", "--suite", "membership", "--samples", "24"],
    # the CLI default of 200 samples
    "verify_membership_200": ["--seed", "42", "verify", "--suite", "membership"],
    "classify": ["classify", "--phi", "cos_sqrt_z", "--grid", "256"],
}


def render(argv) -> str:
    stream = io.StringIO()
    code = main(argv, stream=stream)
    return f"exit {code}\n{stream.getvalue()}"


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name):
    expected = (GOLDEN / f"{name}.out").read_bytes().decode("utf-8")
    assert render(CASES[name]) == expected


COLD = REFERENCE["cli-cold"]


@pytest.mark.parametrize("command", sorted(COLD))
def test_cli_cold_reference(command):
    stream = io.StringIO()
    code = main(command.split(" "), stream=stream)
    stdout = stream.getvalue().encode("utf-8")
    got = {"exit": code, "bytes": len(stdout), "sha256": hashlib.sha256(stdout).hexdigest()}
    assert got == COLD[command]


REPLAYED = [
    (workload, kind, params)
    for workload, kinds in inproc.ROUNDS.items()
    for kind in kinds
    for params in inproc.KINDS[kind][1]
]


@pytest.mark.parametrize(
    "workload, kind, params", REPLAYED, ids=[inproc.key(k, p) for _, k, p in REPLAYED]
)
def test_inproc_reference(workload, kind, params):
    tol = inproc.TOLERANCE[workload]
    ref = REFERENCE[workload][inproc.key(kind, params)]
    digest = inproc.KINDS[kind][0](params)
    assert inproc.compare(digest, ref, tol["rtol"], tol["atol"]) is None


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in CASES.items():
        (GOLDEN / f"{name}.out").write_text(render(argv), encoding="utf-8", newline="")
