"""Command-line entry point.

Subcommands map one-to-one onto the library modules:

    radius    closed-form and root-found radius constants
    bound     coefficient-functional bounds (classes: sl, symmetric classes)
    extremal  structural-function coefficients
    curves    boundary-curve samples for plotting (CSV: re,im)
    verify    brute-force verification suites
    classify  grid classification of a catalog generator

Output is JSON by default (sorted keys, so identical invocations are
byte-identical); ``curves`` speaks RFC-4180 CSV by default, and ``radius``,
``bound`` and ``extremal`` have a text form.  A ``--format`` the subcommand
does not render (see ``FORMATS``) is a usage error.

``radius --problem``, ``bound --class/--which`` and ``verify --suite`` pick an
entry of ``RADIUS_PROBLEMS``, ``SL_BOUNDS`` (or the symmetric-class ``h2``)
and ``SUITES``.  An entry's parameters are the optional flags it reads, with
their defaults; an explicit flag the picked entry does not read is a usage
error, and so is ``--seed``, read only by ``verify --suite membership``,
anywhere else.  Configuration precedence: command-line flags > key=value file
named by $GFT_CONFIG > built-in defaults; a file ``output_format`` the
subcommand does not render is rejected, while a file ``seed`` is a default
that unseeded runs ignore.  Exit codes: 0 success, 1 computation rejected,
2 usage error.

Only the numeric ``verify`` suites import numpy (through :mod:`gft.verify`),
so the closed-form subcommands and the exact ``verify --suite conjecture``
start without it; numpy is the only runtime dependency.
"""

from __future__ import annotations

import argparse
import csv
import functools
import inspect
import json
import math
import os
import sys
from dataclasses import dataclass
from fractions import Fraction

from . import bounds, catalog, extremal, radius

__all__ = ["Config", "load_config", "main"]

EXIT_OK = 0
EXIT_REJECTED = 1
EXIT_USAGE = 2

# output formats each subcommand renders, its default first; an explicit
# --format outside the tuple is a usage error, a config-file one is rejected
FORMATS = {
    "radius": ("json", "text"),
    "bound": ("json", "text"),
    "extremal": ("json", "text"),
    "curves": ("csv", "json"),
    "verify": ("json",),
    "classify": ("json",),
}


@dataclass
class Config:
    seed: int = 42
    output_format: str | None = None  # None: the subcommand's default

    def validate(self) -> "Config":
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        return self


_CONFIG_KEYS = {"seed": int, "output_format": str}


def load_config(env: dict | None = None) -> Config:
    """Defaults, overlaid with the key=value file named by $GFT_CONFIG.

    Blank lines and ``#`` comments are skipped; any other line must set one
    of the known keys, so a misspelt or retired key is an error.
    """
    env = os.environ if env is None else env
    cfg = Config()
    path = env.get("GFT_CONFIG")
    if path:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                for n, line in enumerate(fh, start=1):
                    line = line.strip()
                    if not line or line.startswith("#"):
                        continue
                    key, eq, value = line.partition("=")
                    key = key.strip()
                    if not eq or key not in _CONFIG_KEYS:
                        raise ValueError(
                            f"GFT_CONFIG line {n}: expected one of "
                            f"{', '.join(_CONFIG_KEYS)} as key=value, got {line!r}"
                        )
                    setattr(cfg, key, _CONFIG_KEYS[key](value.strip()))
        except OSError as exc:
            raise ValueError(f"cannot read GFT_CONFIG file {path!r}: {exc}") from exc
    return cfg


def _emit_json(payload, stream) -> None:
    # serialised in full before writing, so a non-finite value rejects the
    # whole payload instead of leaving half of it on the stream
    stream.write(json.dumps(payload, sort_keys=True, allow_nan=False) + "\n")


def _finite(x: float) -> float:
    x = float(x)
    if not math.isfinite(x):
        raise ValueError("non-finite value in output")
    return x


# -- selector tables -------------------------------------------------------------------
# Each entry's parameters are the optional flags it reads, with their defaults.


RADIUS_PROBLEMS = {
    "starlike-order": lambda alpha: {
        "alpha": alpha, "radius": _finite(radius.radius_starlike_order(alpha))},
    "m-beta": lambda beta: {"beta": beta, "radius": _finite(radius.radius_M_beta(beta))},
    "convex": lambda alpha: dict(radius.radius_convex_order(alpha).as_dict(), alpha=alpha),
    "strongly-starlike": lambda gamma: {
        "gamma": gamma,
        "gammaMax": radius.strongly_starlike_gamma_max(),
        "radius": _finite(radius.radius_strongly_starlike(gamma)),
    },
    "k-starlike": lambda k: dict(radius.radius_k_starlike(k).as_dict(), k=k),
    "majorization": lambda: radius.majorization_radius().as_dict(),
    "inclusion": lambda: radius.inclusion_constants().as_dict(),
}

SL_BOUNDS = {
    "fekete": lambda alpha=0.0, t=1.0: bounds.fekete_szego_sl(alpha, t),
    "h2": lambda alpha=0.0: bounds.h2_bound_sl(alpha),
    "a4": lambda alpha=0.0: bounds.a4_bound_sl(alpha),
    "a2a3a4": lambda alpha=0.0: bounds.a2a3_a4_bound_sl(alpha),
    "a5": lambda alpha=0.0: bounds.a5_bound_sl(alpha),
    "h3": lambda alpha=0.0: (
        bounds.h3_bound_sl_star() if alpha == 0 else bounds.h3_bound_sl_alpha(alpha)),
}


def _symmetric_h2(kind: str, b1=1.0, b2=0.5, b3=1.0 / 3.0):
    return bounds.second_hankel_symmetric(kind, bounds.PhiCoeffs(b1, b2, b3))


def _select_bound(args):
    if args.klass == "sl":
        return SL_BOUNDS[args.which]
    if args.which != "h2":
        raise LookupError(f"--class {args.klass} only has --which h2")
    return functools.partial(_symmetric_h2, args.klass.removeprefix("symmetric-"))


# The numeric suites import gft.verify (and so numpy) when they run.


def _membership(seed, samples=200):  # seed: --seed, else the GFT_CONFIG value
    from . import verify

    payload = verify.verify_class_membership_bounds(samples, seed=seed).as_dict()
    worst = min(v for k, v in payload.items() if k.startswith("worst"))
    payload["failed"] = min(worst, *payload["coeffMargins"].values()) < -1e-6
    return payload


def _hankel(density=64):
    from . import verify

    rows = []
    for alpha in (0.0, 0.25, 0.5, 0.75, 1.0):
        params = bounds.alpha_class_params(alpha)
        b = bounds.PhiCoeffs(1.0, 0.5, 1.0 / 3.0)
        oracle = verify.maximize_second_hankel_oracle(params, b, density=density)
        bound_val = float(bounds.second_hankel(params, b).value)
        rows.append({"alpha": alpha, "oracle": oracle, "bound": bound_val,
                     "margin": bound_val - oracle})
    failed = any(row["oracle"] > row["bound"] + 1e-9 for row in rows)
    return {"suite": "hankel", "rows": rows, "failed": failed}


def _lemmas(density=64):
    from . import verify

    reports = {
        "p1p2_v0": verify.lemma_p1p2_check(0.0, density),
        "p1p2_v2": verify.lemma_p1p2_check(2.0, density),
        "p1p2_v2324": verify.lemma_p1p2_check(23.0 / 24.0, density),
        "p31": verify.eq_p31_check(density),
    }
    worst = max(
        v for r in reports.values() for k, v in r.items() if k.startswith("max_violation")
    )
    return {"suite": "lemmas", "reports": reports, "failed": worst > 1e-9}


def _bloch():
    from . import verify

    env = verify.bloch_class_envelope()
    return {"suite": "bloch", "r0": env["r0"], "value": env["value"],
            "gridArgmax": env["grid_argmax"],
            "failed": abs(env["r0"] - env["grid_argmax"]) > 1e-3}


def _conjecture():  # exact, so it runs without numpy
    report = extremal.conjecture_check(5, 10)
    return {"suite": "conjecture", **report, "failed": bool(report["violations"])}


def _counterexamples():
    from . import verify

    report = verify.vector_space_counterexample()
    return {"suite": "counterexamples", "omegaAbsAtZ0": report["omega_abs_at_z0"],
            "normalizedMaxAbs": report["normalized_max_abs"],
            "exceedsUnitDisk": report["exceeds_unit_disk"],
            "failed": not report["exceeds_unit_disk"]}


SUITES = {
    "membership": _membership,
    "hankel": _hankel,
    "lemmas": _lemmas,
    "bloch": _bloch,
    "conjecture": _conjecture,
    "counterexamples": _counterexamples,
}


# -- subcommand handlers --------------------------------------------------------------
# radius, bound and verify call ``args.run``: the selected entry with its flags bound


def _cmd_radius(args, cfg: Config, out) -> int:
    payload = dict(args.run(), problem=args.problem)
    if cfg.output_format == "text":
        for key in sorted(payload):
            out.write(f"{key}: {payload[key]}\n")
    else:
        _emit_json(payload, out)
    return EXIT_OK


def _cmd_bound(args, cfg: Config, out) -> int:
    payload = args.run().as_dict()
    if cfg.output_format == "text":
        out.write(f"value: {payload['value']}\ncase: {payload['caseLabel']}\n")
    else:
        _emit_json(payload, out)
    return EXIT_OK


def _cmd_extremal(args, cfg: Config, out) -> int:
    spec = catalog.make_spec(args.phi)
    builder = extremal.t_series if args.kind == "t" else extremal.d_series
    fn = builder(spec, args.n, args.order, exact=True)
    coeffs = fn.series.coeffs
    payload = {
        "phi": args.phi,
        "n": args.n,
        "kind": args.kind,
        "order": args.order,
        "coefficients": [_finite(float(c)) for c in coeffs],
        "rational": [str(Fraction(c)) for c in coeffs],
    }
    if cfg.output_format == "text":
        for k, c in enumerate(coeffs):
            out.write(f"a_{k} = {float(c):+.12f}  ({Fraction(c)})\n")
    else:
        _emit_json(payload, out)
    return EXIT_OK


def _cmd_curves(args, cfg: Config, out) -> int:
    points = radius.curve_points(args.id, args.samples)
    if cfg.output_format == "json":
        payload = {
            "id": args.id,
            "samples": len(points),
            "points": [[_finite(p.real), _finite(p.imag)] for p in points],
        }
        _emit_json(payload, out)
    else:
        writer = csv.writer(out)
        writer.writerow(["re", "im"])
        for p in points:
            writer.writerow([repr(_finite(p.real)), repr(_finite(p.imag))])
    return EXIT_OK


def _cmd_verify(args, cfg: Config, out) -> int:
    payload = args.run()
    _emit_json(payload, out)
    return EXIT_REJECTED if payload["failed"] else EXIT_OK


def _cmd_classify(args, cfg: Config, out) -> int:
    spec = catalog.make_spec(args.phi)
    record = catalog.classify(spec, grid_size=args.grid)
    payload = {
        "phi": args.phi,
        "typicallyRealShift": record.typically_real_shift,
        "positiveRealPart": record.positive_real_part,
        "realCoefficients": record.real_coefficients,
        "minRealPart": _finite(record.min_real_part),
    }
    _emit_json(payload, out)
    return EXIT_OK


# -- parser ---------------------------------------------------------------------------


def _selected_flags(p, select, **types):
    """Add the flags whose use depends on the entry ``select(args)`` picks.

    They have no default, so ``main`` can tell a given flag from an unset one.
    """
    for name, kind in types.items():
        p.add_argument(f"--{name}", type=kind, default=argparse.SUPPRESS)
    p.set_defaults(select=select, optional=tuple(types))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gft",
        description="Starlike-function toolkit for the logarithmic generator",
        allow_abbrev=False,  # keeps subcommand flags like --t out of top-level prefix matching
    )
    parser.add_argument("--format", choices=("json", "csv", "text"), default=None,
                        help="json or text for radius, bound and extremal; csv (default) "
                             "or json for curves; json for verify and classify")
    parser.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                        help="sample seed of verify --suite membership (default 42)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("radius", help="radius constants")
    p.add_argument("--problem", required=True, choices=RADIUS_PROBLEMS)
    _selected_flags(p, lambda a: RADIUS_PROBLEMS[a.problem],
                    alpha=float, beta=float, gamma=float, k=float)
    p.set_defaults(handler=_cmd_radius)

    p = sub.add_parser("bound", help="coefficient-functional bounds")
    p.add_argument("--class", dest="klass", required=True,
                   choices=("sl", "symmetric-starlike", "symmetric-convex"))
    p.add_argument("--which", required=True, choices=SL_BOUNDS)
    _selected_flags(p, _select_bound, alpha=float, t=float, b1=float, b2=float, b3=float)
    p.set_defaults(handler=_cmd_bound)

    p = sub.add_parser("extremal", help="structural-function coefficients")
    p.add_argument("--phi", required=True, choices=catalog.CATALOG_NAMES)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--order", type=int, default=8)
    p.add_argument("--kind", choices=("t", "d"), default="t")
    p.set_defaults(handler=_cmd_extremal)

    p = sub.add_parser("curves", help="boundary-curve samples")
    p.add_argument("--id", required=True, choices=radius.CURVE_IDS)
    p.add_argument("--samples", type=int, default=256)
    p.set_defaults(handler=_cmd_curves)

    p = sub.add_parser("verify", help="brute-force verification suites")
    p.add_argument("--suite", required=True, choices=SUITES)
    _selected_flags(p, lambda a: SUITES[a.suite], samples=int, density=int)
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("classify", help="grid classification of a generator")
    p.add_argument("--phi", required=True, choices=catalog.CATALOG_NAMES)
    p.add_argument("--grid", type=int, default=256)
    p.set_defaults(handler=_cmd_classify)

    return parser


def main(argv: list[str] | None = None, stream=None) -> int:
    out = stream if stream is not None else sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.format is not None and args.format not in FORMATS[args.command]:
            parser.error(
                f"--format {args.format} is not rendered by {args.command} "
                f"(choose from {', '.join(FORMATS[args.command])})"
            )
        try:
            run = args.select(args) if "select" in args else None
        except LookupError as exc:  # a selector combination without an entry
            parser.error(str(exc))
        reads = inspect.signature(run).parameters if run else {}
        for flag in ("seed", *getattr(args, "optional", ())):
            if flag in args and flag not in reads:
                known = ", ".join("--" + name for name in reads) or "no optional flag"
                parser.error(f"--{flag} is not read by this {args.command} run"
                             + (f" (it reads {known})" if run else ""))
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        cfg = load_config()
        if args.format is not None:
            cfg.output_format = args.format
        if "seed" in args:
            cfg.seed = args.seed
        cfg.validate()
        rendered = FORMATS[args.command]
        if cfg.output_format is None:
            cfg.output_format = rendered[0]
        elif cfg.output_format not in rendered:  # only a GFT_CONFIG value gets here
            raise ValueError(
                f"GFT_CONFIG output_format={cfg.output_format} is not rendered by "
                f"{args.command} (choose from {', '.join(rendered)})"
            )
        if run:  # an unset flag takes the GFT_CONFIG value of the same name, if any
            kwargs = {k: v for k, v in {**vars(cfg), **vars(args)}.items() if k in reads}
            for name, param in reads.items():
                if param.default is param.empty and name not in kwargs:
                    raise ValueError(f"--{name} required for this {args.command} run")
            args.run = functools.partial(run, **kwargs)
        return args.handler(args, cfg, out)
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_REJECTED


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
