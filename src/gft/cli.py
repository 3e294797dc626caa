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
anywhere else.  Options come from the flags alone.  Exit codes: 0 success,
1 computation rejected, 2 usage error.

Each subcommand imports the library modules it runs, when it runs them:
``radius`` and ``curves`` load :mod:`gft.radius`, ``bound`` loads
:mod:`gft.bounds`, ``classify`` loads :mod:`gft.catalog` (and through it
:mod:`gft.series`), ``extremal`` and ``verify --suite conjecture`` load
:mod:`gft.extremal` as well, and the numeric ``verify`` suites load
:mod:`gft.verify`, which brings in every other module and numpy. The parser
takes its ``--phi`` and ``--id`` choices from the package (``gft.CATALOG_NAMES``
and ``gft.CURVE_IDS``), so building it loads no library module. numpy is the
only runtime dependency.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

from . import CATALOG_NAMES, CURVE_IDS

__all__ = ["main"]

EXIT_OK = 0
EXIT_REJECTED = 1
EXIT_USAGE = 2

# output formats each subcommand renders, its default first; a --format
# outside the tuple is a usage error
FORMATS = {
    "radius": ("json", "text"),
    "bound": ("json", "text"),
    "extremal": ("json", "text"),
    "curves": ("csv", "json"),
    "verify": ("json",),
    "classify": ("json",),
}


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
# The radius and bound entries call the modules that _cmd_radius and _cmd_bound
# import as globals before they run an entry.


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


def _membership(seed=42, samples=200):
    from . import verify

    if seed < 0:
        raise ValueError("seed must be nonnegative")
    payload = verify.verify_class_membership_bounds(samples, seed=seed).as_dict()
    worst = min(v for k, v in payload.items() if k.startswith("worst"))
    payload["failed"] = min(worst, *payload["coeffMargins"].values()) < -1e-6
    return payload


def _hankel(density=64):
    from . import bounds, verify

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
    from . import extremal

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


def _cmd_radius(args, out) -> int:
    global radius
    from . import radius

    payload = dict(args.run(), problem=args.problem)
    if args.format == "text":
        for key in sorted(payload):
            out.write(f"{key}: {payload[key]}\n")
    else:
        _emit_json(payload, out)
    return EXIT_OK


def _cmd_bound(args, out) -> int:
    global bounds
    from . import bounds

    payload = args.run().as_dict()
    if args.format == "text":
        out.write(f"value: {payload['value']}\ncase: {payload['caseLabel']}\n")
    else:
        _emit_json(payload, out)
    return EXIT_OK


def _cmd_extremal(args, out) -> int:
    from fractions import Fraction

    from . import catalog, extremal

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
    if args.format == "text":
        for k, c in enumerate(coeffs):
            out.write(f"a_{k} = {float(c):+.12f}  ({Fraction(c)})\n")
    else:
        _emit_json(payload, out)
    return EXIT_OK


def _cmd_curves(args, out) -> int:
    from . import radius

    points = radius.curve_points(args.id, args.samples)
    if args.format == "json":
        payload = {
            "id": args.id,
            "samples": len(points),
            "points": [[_finite(p.real), _finite(p.imag)] for p in points],
        }
        _emit_json(payload, out)
    else:
        import csv

        writer = csv.writer(out)
        writer.writerow(["re", "im"])
        for p in points:
            writer.writerow([repr(_finite(p.real)), repr(_finite(p.imag))])
    return EXIT_OK


def _cmd_verify(args, out) -> int:
    payload = args.run()
    _emit_json(payload, out)
    return EXIT_REJECTED if payload["failed"] else EXIT_OK


def _cmd_classify(args, out) -> int:
    from . import catalog

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


def rational(text: str):
    """An exact Fraction: "0.3" and "3/10" give 3/10.  nan, inf, "1/0" and exponents
    of 100 or more are invalid (10^exponent is built exactly: 10 s for 10^7)."""
    from fractions import Fraction

    _, e, exponent = text.lower().partition("e")
    if e and not abs(int(exponent)) < 100:
        raise ValueError(text)
    try:
        return Fraction(text)
    except ZeroDivisionError:  # "1/0"
        raise ValueError(text) from None


def finite(text: str) -> float:
    """A float other than nan and inf."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(text)
    return value


def _parameters(entry) -> dict[str, bool]:
    """The parameters of a selector entry, in order, each mapped to whether it is
    required (has no default).

    An entry is a function of positional-or-keyword parameters, or a
    ``functools.partial`` of one; the arguments a partial binds are not
    parameters of the entry.
    """
    bound, fixed = (), {}
    if isinstance(entry, functools.partial):
        entry, bound, fixed = entry.func, entry.args, entry.keywords
    code = entry.__code__
    names = code.co_varnames[:code.co_argcount]
    first_default = len(names) - len(entry.__defaults__ or ())
    return {name: i < first_default for i, name in enumerate(names)
            if i >= len(bound) and name not in fixed}


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
                    alpha=finite, beta=finite, gamma=finite, k=finite)
    p.set_defaults(handler=_cmd_radius)

    p = sub.add_parser("bound", help="coefficient-functional bounds")
    p.add_argument("--class", dest="klass", required=True,
                   choices=("sl", "symmetric-starlike", "symmetric-convex"))
    p.add_argument("--which", required=True, choices=SL_BOUNDS)
    _selected_flags(p, _select_bound, alpha=rational, t=finite, b1=finite, b2=finite, b3=finite)
    p.set_defaults(handler=_cmd_bound)

    p = sub.add_parser("extremal", help="structural-function coefficients")
    p.add_argument("--phi", required=True, choices=CATALOG_NAMES)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--order", type=int, default=8)
    p.add_argument("--kind", choices=("t", "d"), default="t")
    p.set_defaults(handler=_cmd_extremal)

    p = sub.add_parser("curves", help="boundary-curve samples")
    p.add_argument("--id", required=True, choices=CURVE_IDS)
    p.add_argument("--samples", type=int, default=256)
    p.set_defaults(handler=_cmd_curves)

    p = sub.add_parser("verify", help="brute-force verification suites")
    p.add_argument("--suite", required=True, choices=SUITES)
    _selected_flags(p, lambda a: SUITES[a.suite], samples=int, density=int)
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("classify", help="grid classification of a generator")
    p.add_argument("--phi", required=True, choices=CATALOG_NAMES)
    p.add_argument("--grid", type=int, default=256)
    p.set_defaults(handler=_cmd_classify)

    return parser


def main(argv: list[str] | None = None, stream=None) -> int:
    out = stream if stream is not None else sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        rendered = FORMATS[args.command]
        if args.format is None:
            args.format = rendered[0]
        elif args.format not in rendered:
            parser.error(f"--format {args.format} is not rendered by {args.command} "
                         f"(choose from {', '.join(rendered)})")
        try:
            run = args.select(args) if "select" in args else None
        except LookupError as exc:  # a selector combination without an entry
            parser.error(str(exc))
        reads = _parameters(run) if run else {}
        for flag in ("seed", *getattr(args, "optional", ())):
            if flag in args and flag not in reads:
                known = ", ".join("--" + name for name in reads) or "no optional flag"
                parser.error(f"--{flag} is not read by this {args.command} run"
                             + (f" (it reads {known})" if run else ""))
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        if run:
            kwargs = {k: v for k, v in vars(args).items() if k in reads}
            for name, required in reads.items():
                if required and name not in kwargs:
                    raise ValueError(f"--{name} required for this {args.command} run")
            args.run = functools.partial(run, **kwargs)
        return args.handler(args, out)
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_REJECTED


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
