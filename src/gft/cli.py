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
does not render (see ``FORMATS``) is a usage error, and so is a ``--seed``
anywhere but ``verify --suite membership``, the one seeded run.
Configuration precedence: command-line flags > key=value file named by
$GFT_CONFIG > built-in defaults; a file ``output_format`` the subcommand does
not render is rejected, while a file ``seed`` is a default that unseeded runs
ignore.  Exit codes: 0 success, 1 computation rejected, 2 usage error.

Only ``verify`` imports numpy (through :mod:`gft.verify`), and only its
``hankel`` suite imports scipy.optimize, so the closed-form subcommands start
without either.
"""

from __future__ import annotations

import argparse
import csv
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

# (command, suite) of the only run that draws random samples, so the only one
# an explicit --seed may be given to
SEEDED_RUN = ("verify", "membership")


@dataclass
class Config:
    seed: int = 42
    output_format: str | None = None  # None: the subcommand's default

    def validate(self) -> "Config":
        if self.output_format not in (None, "json", "csv", "text"):
            raise ValueError(f"unknown output format {self.output_format!r}")
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


# -- subcommand handlers --------------------------------------------------------------


def _cmd_radius(args, cfg: Config, out) -> int:
    problem = args.problem
    if problem == "starlike-order":
        if args.alpha is None:
            raise ValueError("--alpha required for starlike-order")
        payload = {
            "problem": problem,
            "alpha": args.alpha,
            "radius": _finite(radius.radius_starlike_order(args.alpha)),
        }
    elif problem == "m-beta":
        if args.beta is None:
            raise ValueError("--beta required for m-beta")
        payload = {
            "problem": problem,
            "beta": args.beta,
            "radius": _finite(radius.radius_M_beta(args.beta)),
        }
    elif problem == "convex":
        if args.alpha is None:
            raise ValueError("--alpha required for convex")
        res = radius.radius_convex_order(args.alpha)
        payload = dict(res.as_dict(), problem=problem, alpha=args.alpha)
    elif problem == "strongly-starlike":
        if args.gamma is None:
            raise ValueError("--gamma required for strongly-starlike")
        payload = {
            "problem": problem,
            "gamma": args.gamma,
            "gammaMax": radius.strongly_starlike_gamma_max(),
            "radius": _finite(radius.radius_strongly_starlike(args.gamma)),
        }
    elif problem == "k-starlike":
        if args.k is None:
            raise ValueError("--k required for k-starlike")
        res = radius.radius_k_starlike(args.k)
        payload = dict(res.as_dict(), problem=problem, k=args.k)
    elif problem == "majorization":
        payload = dict(radius.majorization_radius().as_dict(), problem=problem)
    elif problem == "inclusion":
        payload = dict(radius.inclusion_constants().as_dict(), problem=problem)
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(f"unknown radius problem {problem!r}")
    if cfg.output_format == "text":
        for key in sorted(payload):
            out.write(f"{key}: {payload[key]}\n")
    else:
        _emit_json(payload, out)
    return EXIT_OK


def _sl_bound(which: str, alpha: float, t: float) -> bounds.BoundReport:
    if which == "fekete":
        return bounds.fekete_szego_sl(alpha, t)
    if which == "h2":
        return bounds.h2_bound_sl(alpha)
    if which == "a4":
        return bounds.a4_bound_sl(alpha)
    if which == "a2a3a4":
        return bounds.a2a3_a4_bound_sl(alpha)
    if which == "a5":
        return bounds.a5_bound_sl(alpha)
    if which == "h3":
        if alpha == 0:
            return bounds.h3_bound_sl_star()
        return bounds.h3_bound_sl_alpha(alpha)
    raise ValueError(f"unknown bound selector {which!r}")


def _cmd_bound(args, cfg: Config, out) -> int:
    if args.klass == "sl":
        report = _sl_bound(args.which, args.alpha, args.t)
    elif args.klass in ("symmetric-starlike", "symmetric-convex"):
        if args.which != "h2":
            raise ValueError("symmetric classes only expose the h2 bound")
        kind = "starlike" if args.klass == "symmetric-starlike" else "convex"
        b = bounds.PhiCoeffs(args.b1, args.b2, args.b3)
        report = bounds.second_hankel_symmetric(kind, b)
    else:  # pragma: no cover
        raise ValueError(f"unknown class {args.klass!r}")
    payload = report.as_dict()
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
    from . import verify

    suite = args.suite
    failed = False
    if suite == "membership":
        report = verify.verify_class_membership_bounds(args.samples, seed=cfg.seed)
        payload = report.as_dict()
        worst = min(
            payload["worstReLoMargin"],
            payload["worstReHiMargin"],
            payload["worstImMargin"],
            payload["worstGrowthLoMargin"],
            payload["worstGrowthHiMargin"],
            min(payload["coeffMargins"].values()),
        )
        failed = worst < -1e-6
        payload["failed"] = failed
    elif suite == "hankel":
        rows = []
        for alpha in (0.0, 0.25, 0.5, 0.75, 1.0):
            params = bounds.alpha_class_params(alpha)
            b = bounds.PhiCoeffs(1.0, 0.5, 1.0 / 3.0)
            oracle = verify.maximize_second_hankel_oracle(params, b, density=args.density)
            bound_val = float(bounds.second_hankel(params, b).value)
            rows.append({"alpha": alpha, "oracle": oracle, "bound": bound_val,
                         "margin": bound_val - oracle})
            failed = failed or oracle > bound_val + 1e-9
        payload = {"suite": suite, "rows": rows, "failed": failed}
    elif suite == "lemmas":
        reports = {
            "p1p2_v0": verify.lemma_p1p2_check(0.0, args.density),
            "p1p2_v2": verify.lemma_p1p2_check(2.0, args.density),
            "p1p2_v2324": verify.lemma_p1p2_check(23.0 / 24.0, args.density),
            "p31": verify.eq_p31_check(args.density),
        }
        worst = max(
            r.get("max_violation", r.get("max_violation_cubic", 0.0))
            for r in reports.values()
        )
        failed = worst > 1e-9
        payload = {"suite": suite, "reports": reports, "failed": failed}
    elif suite == "bloch":
        env = verify.bloch_class_envelope()
        payload = {
            "suite": suite,
            "r0": env["r0"],
            "value": env["value"],
            "gridArgmax": env["grid_argmax"],
            "failed": abs(env["r0"] - env["grid_argmax"]) > 1e-3,
        }
        failed = payload["failed"]
    elif suite == "conjecture":
        report = verify.conjecture_check(5, 10)
        payload = {"suite": suite, **report, "failed": bool(report["violations"])}
        failed = payload["failed"]
    elif suite == "counterexamples":
        report = verify.vector_space_counterexample()
        payload = {
            "suite": suite,
            "omegaAbsAtZ0": report["omega_abs_at_z0"],
            "normalizedMaxAbs": report["normalized_max_abs"],
            "exceedsUnitDisk": report["exceeds_unit_disk"],
            "failed": not report["exceeds_unit_disk"],
        }
        failed = payload["failed"]
    else:  # pragma: no cover
        raise ValueError(f"unknown suite {suite!r}")
    _emit_json(payload, out)
    return EXIT_REJECTED if failed else EXIT_OK


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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gft",
        description="Starlike-function toolkit for the logarithmic generator",
        allow_abbrev=False,  # keeps subcommand flags like --t out of top-level prefix matching
    )
    parser.add_argument("--format", choices=("json", "csv", "text"), default=None,
                        help="json or text for radius, bound and extremal; csv (default) "
                             "or json for curves; json for verify and classify")
    parser.add_argument("--seed", type=int, default=None,
                        help="sample seed of verify --suite membership (default 42)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("radius", help="radius constants")
    p.add_argument("--problem", required=True,
                   choices=("starlike-order", "m-beta", "convex", "strongly-starlike",
                            "k-starlike", "majorization", "inclusion"))
    p.add_argument("--alpha", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--gamma", type=float)
    p.add_argument("--k", type=float)
    p.set_defaults(handler=_cmd_radius)

    p = sub.add_parser("bound", help="coefficient-functional bounds")
    p.add_argument("--class", dest="klass", required=True,
                   choices=("sl", "symmetric-starlike", "symmetric-convex"))
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--which", required=True,
                   choices=("fekete", "h2", "a4", "a2a3a4", "a5", "h3"))
    p.add_argument("--t", type=float, default=1.0)
    p.add_argument("--b1", type=float, default=1.0)
    p.add_argument("--b2", type=float, default=0.5)
    p.add_argument("--b3", type=float, default=1.0 / 3.0)
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
    p.add_argument("--suite", required=True,
                   choices=("membership", "hankel", "lemmas", "bloch",
                            "conjecture", "counterexamples"))
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--density", type=int, default=64)
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
        if args.seed is not None and (args.command, getattr(args, "suite", None)) != SEEDED_RUN:
            parser.error(f"--seed is read only by {' --suite '.join(SEEDED_RUN)}")
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        cfg = load_config()
        if args.format is not None:
            cfg.output_format = args.format
        if args.seed is not None:
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
        return args.handler(args, cfg, out)
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_REJECTED


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
