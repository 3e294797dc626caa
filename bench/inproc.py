"""In-process workloads: ``membership``, ``oracles`` and ``series-build``.

Each workload runs *rounds*. A round is a fixed sequence of sub-op kinds, and
each sub-op draws its parameters from a fixed pool with a seeded RNG, so the
inputs follow from the seed while ``reference.json`` can still hold the
expected result of every pool entry. A sub-op returns a *digest*: the verdicts
and key values of the gft calls it made, as plain JSON data that
:func:`compare` checks against the reference within the workload's tolerance.

Only public functions of gft are called here.
"""

from __future__ import annotations

import functools
import hashlib
import json
import random
from fractions import Fraction

from draws import cycled
from gft import bounds, catalog, extremal, radius, verify

CATALOG = (
    "cos_sqrt_minus_z",
    "cos_sqrt_z",
    "one_minus_log_one_minus_z",
    "psi",
    "sqrt_1_minus_z",
    "sqrt_1_plus_z",
)
ALPHAS = (0.0, 0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875, 1.0)
# first three coefficients of 1 - log(1+z) in the positive-slope convention
PSI_B = (1.0, 0.5, 1.0 / 3.0)

MEMBERSHIP_SAMPLES = 24  # Schwarz samples per verify_class_membership_bounds call
MEMBERSHIP_SEEDS = tuple(range(1000, 1048))

# Float tolerances (absolute + relative) per workload. Membership margins get
# 1e-4 so that evaluating the Schwarz samples in closed form instead of as
# order-32 series (a documented ~1e-5 effect at |z| = 0.9) still passes;
# a wrong margin is off by far more.
TOLERANCE = {
    "membership": {"rtol": 0.0, "atol": 1e-4},
    "oracles": {"rtol": 1e-6, "atol": 1e-9},
    "series-build": {"rtol": 1e-9, "atol": 1e-12},
}


# -- digests -----------------------------------------------------------------------


def _f(x) -> float:
    return float(x)


def _exact_hash(coeffs) -> dict:
    """Exactness flag and a hash of the exact rational coefficients."""
    exact = all(isinstance(c, (int, Fraction)) for c in coeffs)
    text = "|".join(str(Fraction(c)) if exact else repr(c) for c in coeffs)
    return {"exact": exact, "sha256": hashlib.sha256(text.encode()).hexdigest()}


def _points(pts) -> list:
    return [[_f(p.real), _f(p.imag)] for p in pts]


# -- membership ----------------------------------------------------------------------


def _membership(p):
    rep = verify.verify_class_membership_bounds(MEMBERSHIP_SAMPLES, seed=p["seed"]).as_dict()
    digest = {k: _f(rep[k]) for k in (
        "worstReLoMargin", "worstReHiMargin", "worstImMargin",
        "worstGrowthLoMargin", "worstGrowthHiMargin",
    )}
    digest["coeffMargins"] = {k: _f(v) for k, v in rep["coeffMargins"].items()}
    digest["violations"] = len(rep["violations"])
    digest["samples"] = int(rep["samples"])
    return digest


# -- oracles -------------------------------------------------------------------------


def _hankel(p):
    params = bounds.alpha_class_params(p["alpha"])
    b = bounds.PhiCoeffs(*PSI_B)
    oracle = _f(verify.maximize_second_hankel_oracle(params, b, density=p["density"]))
    bound = _f(bounds.second_hankel(params, b).value)
    return {"oracle": oracle, "bound": bound, "oracle_le_bound": bool(oracle <= bound + 1e-9)}


def _a4(p, oracle, closed_form):
    value = _f(oracle(bounds.alpha_class_params(p["alpha"]), PSI_B, p["grid"]).value)
    sharp = _f(closed_form(p["alpha"]).value)
    return {"value": value, "matches_closed_form": bool(abs(value - sharp) <= 1e-9)}


def _lemma(p):
    rep = verify.lemma_p1p2_check(p["v"], p["density"])
    return {"max_lhs": _f(rep["max_lhs"]), "holds": bool(rep["max_violation"] <= 1e-9)}


def _p31(p):
    rep = verify.eq_p31_check(p["density"])
    return {
        "max_cubic": _f(rep["max_cubic"]),
        "max_quartic": _f(rep["max_quartic_on_power_maps"]),
        "holds": bool(rep["max_violation_cubic"] <= 1e-9 and rep["max_violation_quartic"] <= 1e-9),
    }


def _counterexample(p):
    rep = verify.vector_space_counterexample(p["scan_density"])
    return {
        "normalized_max_abs": _f(rep["normalized_max_abs"]),
        "omega_abs_at_z0": _f(rep["omega_abs_at_z0"]),
        "exceeds_unit_disk": bool(rep["exceeds_unit_disk"]),
    }


@functools.cache
def _seminorm_bound() -> float:
    return _f(verify.bloch_seminorm_bound()["value"])


def _bloch(p):
    sample = verify.sample_schwarz(p["kind"], p["params"], seed=p["seed"])
    value = _f(verify.bloch_norm_estimate(sample, grid_size=p["grid"], radial_count=p["radial"]))
    return {"value": value, "below_seminorm_bound": bool(value <= _seminorm_bound() + 1e-9)}


def _classify(p):
    rec = catalog.classify(catalog.make_spec(p["phi"]), grid_size=p["grid"])
    return {
        "typically_real_shift": bool(rec.typically_real_shift),
        "positive_real_part": bool(rec.positive_real_part),
        "real_coefficients": bool(rec.real_coefficients),
        "min_real_part": _f(rec.min_real_part),
    }


def _tau3(p):
    return {"points": _points(radius.curve_points("tau3", p["samples"]))}


# -- series-build --------------------------------------------------------------------


def _structural(p, builder):
    fn = builder(catalog.make_spec(p["phi"]), p["n"], p["order"], exact=True)
    return _exact_hash(fn.series.coeffs)


def _compose_exact(p):
    order = p["order"]
    outer = catalog.make_spec(p["outer"]).series(order, exact=True)
    inner = extremal.t_series(catalog.make_spec(p["inner"]), 1, order, exact=True).series
    return _exact_hash(outer.compose(inner, order).coeffs)


def _conjecture(p):
    rep = verify.conjecture_check(p["n_max"], p["m_max"])
    table = json.dumps({str(k): v for k, v in rep["table"].items()}, sort_keys=True)
    return {
        "table_sha256": hashlib.sha256(table.encode()).hexdigest(),
        "violations": len(rep["violations"]),
    }


def _sl_table(p):
    alpha = Fraction(p["p"], p["q"])
    table = bounds.sl_bound_table(alpha)
    table["h3_alpha"] = bounds.h3_bound_sl_alpha(alpha).value
    return {k: str(v) for k, v in sorted(table.items())}


_ENVELOPES = {"growth": "growth_envelope_starlike", "distortion": "distortion_envelope_convex"}


def _envelope(p):
    envelope = getattr(extremal, _ENVELOPES[p["which"]])  # looked up per call, so tracing sees it
    lo, hi = envelope(catalog.make_spec(p["phi"]), p["r"])
    return {"lo": _f(lo), "hi": _f(hi)}


def _lambda(p):
    rep = verify.lambda_combination_check(p["lam"], p["m"], p["n"], order=p["order"])
    g = [complex(c) for c in rep["g_series"].coeffs]
    return {
        "all_inside": bool(rep["all_inside"]),
        "worst_margin": _f(rep["worst_margin"]),
        "identity_holds": bool(rep["series_identity_error"] < 1e-9),
        "g_real": [c.real for c in g],
        "g_imag_max": max(abs(c.imag) for c in g),
    }


# -- pools and rounds ------------------------------------------------------------------

_SAMPLES = (
    [{"kind": "monomial", "params": {"m": m}, "seed": 0} for m in (1, 2, 3, 4)]
    + [{"kind": "mobius_eta", "params": {"eta": e}, "seed": 0} for e in (0.0, 0.25, 0.5, 0.75, 1.0)]
    + [{"kind": "random_poly_normalized", "params": None, "seed": s} for s in range(8)]
    + [{"kind": "scaled_blaschke", "params": None, "seed": s} for s in range(8)]
)

KINDS = {
    # kind: (runner, parameter pool)
    "membership": (_membership, [{"seed": s} for s in MEMBERSHIP_SEEDS]),
    "hankel": (_hankel, [{"alpha": a, "density": d} for a in ALPHAS for d in (32, 40, 48)]),
    "a4": (
        lambda p: _a4(p, bounds.a4_bound, bounds.a4_bound_sl),
        [{"alpha": a, "grid": g} for a in ALPHAS for g in (32, 48)],
    ),
    "a2a3a4": (
        lambda p: _a4(p, bounds.a2a3_a4_bound, bounds.a2a3_a4_bound_sl),
        [{"alpha": a, "grid": g} for a in ALPHAS for g in (32, 48)],
    ),
    "lemma": (
        _lemma,
        [{"v": v, "density": d}
         for v in (-1.0, -0.5, 0.0, 0.25, 0.5, 0.75, 23.0 / 24.0, 1.0, 1.5, 2.0, 3.0)
         for d in (32, 48)],
    ),
    "p31": (_p31, [{"density": d} for d in (32, 40, 48)]),
    "counterexample": (_counterexample, [{"scan_density": s} for s in (36, 42, 48)]),
    "bloch": (_bloch, [dict(s, grid=16, radial=8) for s in _SAMPLES]),
    "classify": (_classify, [{"phi": phi, "grid": g} for phi in CATALOG for g in (64, 128, 256)]),
    "tau3": (_tau3, [{"samples": s} for s in (32, 64, 96, 128)]),
    "t_exact": (
        lambda p: _structural(p, extremal.t_series),
        [{"phi": phi, "n": n, "order": o} for phi in CATALOG for n in (1, 2, 3, 4) for o in (24, 32, 40)],
    ),
    "d_exact": (
        lambda p: _structural(p, extremal.d_series),
        [{"phi": phi, "n": n, "order": o} for phi in CATALOG for n in (1, 2, 3, 4) for o in (24, 32, 40)],
    ),
    "compose_exact": (
        _compose_exact,
        [{"outer": a, "inner": b, "order": o} for a in CATALOG for b in CATALOG for o in (20, 24, 28)],
    ),
    "conjecture": (
        _conjecture,
        [{"n_max": n, "m_max": m} for n in (2, 3, 4, 5) for m in (5, 6, 7, 8, 9, 10)],
    ),
    "sl_table": (
        _sl_table,
        [{"p": p, "q": q} for q in range(1, 13) for p in range(q + 1) if Fraction(p, q).denominator == q],
    ),
    "envelope": (
        _envelope,
        [{"which": w, "phi": phi, "r": r}
         for w in _ENVELOPES for phi in CATALOG for r in (0.955, 0.96, 0.97, 0.98, 0.99)],
    ),
    "lambda": (
        _lambda,
        [{"lam": lam, "m": m, "n": n, "order": 24}
         for lam in (0.0, 0.25, 0.5, 0.75, 1.0) for m in (1, 2, 3) for n in (1, 2, 3)],
    ),
}

ROUNDS = {
    "membership": ("membership",),
    "oracles": ("hankel", "a4", "a2a3a4", "lemma", "p31", "counterexample", "bloch", "classify", "tau3"),
    "series-build": (
        "t_exact", "d_exact", "compose_exact", "conjecture", "sl_table", "envelope", "lambda",
    ),
}

# Rounds in a traced run: a fixed set, independent of the seed (which only
# shuffles their order), so that trace counts repeat exactly between runs.
TRACE_ROUNDS = {"membership": 3, "oracles": 6, "series-build": 24}


def key(kind: str, params: dict) -> str:
    return f"{kind} {json.dumps(params, sort_keys=True)}"


def make_rounds(workload: str, seed: int, count: int) -> list:
    """``count`` rounds with parameters drawn from the pools by ``seed``."""
    rng = random.Random(f"{workload}:{seed}")
    streams = {kind: cycled(KINDS[kind][1], rng) for kind in ROUNDS[workload]}
    return [[(kind, next(streams[kind])) for kind in ROUNDS[workload]] for _ in range(count)]


def trace_rounds(workload: str, seed: int) -> list:
    """The fixed traced set: pool entries at an even stride, in seeded order."""
    count = TRACE_ROUNDS[workload]
    rounds = []
    for j in range(count):
        rnd = []
        for kind in ROUNDS[workload]:
            pool = KINDS[kind][1]
            rnd.append((kind, pool[(j * len(pool)) // count]))
        rounds.append(rnd)
    random.Random(f"trace:{workload}:{seed}").shuffle(rounds)
    return rounds


def run_round(rnd) -> list:
    return [KINDS[kind][0](params) for kind, params in rnd]


def compare(got, ref, rtol: float, atol: float, path: str = "") -> str | None:
    """First difference between a digest and its reference, or None."""
    if isinstance(ref, bool) or isinstance(ref, str) or ref is None:
        return None if got == ref and type(got) is type(ref) else f"{path}: {got!r} != {ref!r}"
    if isinstance(ref, (int, float)):
        if isinstance(got, bool) or not isinstance(got, (int, float)):
            return f"{path}: {got!r} is not a number"
        if isinstance(ref, int) and isinstance(got, int):  # counts compare exactly
            return None if got == ref else f"{path}: {got!r} != {ref!r}"
        return None if abs(got - ref) <= atol + rtol * abs(ref) else f"{path}: {got!r} != {ref!r}"
    if isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            return f"{path}: length differs"
        for i, (g, r) in enumerate(zip(got, ref)):
            diff = compare(g, r, rtol, atol, f"{path}[{i}]")
            if diff:
                return diff
        return None
    if isinstance(ref, dict):
        if not isinstance(got, dict) or set(got) != set(ref):
            return f"{path}: keys differ"
        for k in ref:
            diff = compare(got[k], ref[k], rtol, atol, f"{path}.{k}")
            if diff:
                return diff
        return None
    return f"{path}: unsupported reference type {type(ref).__name__}"


def check_round(workload: str, rnd, digests, reference: dict) -> str | None:
    """None if every digest of the round matches the reference, else why not."""
    tol = TOLERANCE[workload]
    refs = reference[workload]
    for (kind, params), digest in zip(rnd, digests):
        k = key(kind, params)
        if k not in refs:
            return f"{k}: no reference"
        diff = compare(digest, refs[k], tol["rtol"], tol["atol"], k)
        if diff:
            return diff
    return None
