"""Structural and extremal functions built from a generator Phi.

For a generator Phi with Phi(0) = 1 the two structural families are

    t_n(z) = z * exp( integral_0^z (Phi(t^n) - 1)/t dt )      (starlike side)
    d_n'(z) =     exp( integral_0^z (Phi(t^n) - 1)/t dt )      (convex side)

linked by z * d_n'(z) = t_n(z).  They solve z f'/f = Phi(z^n) and
1 + z f''/f' = Phi(z^n) respectively and attain the growth/distortion
envelopes of their classes.  Everything here is series-based; the exact
rational path is available whenever the generator has rational coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .catalog import MaMindaSpec, make_spec
from .series import TruncatedSeries

__all__ = [
    "ExtremalFunction",
    "t_series",
    "conjecture_check",
    "d_series",
    "f_from_q",
    "distortion_envelope_convex",
    "growth_envelope_starlike",
    "distortion_envelope_starlike",
    "growth_constant",
]

DEFAULT_EVAL_ORDER = 60
BOUNDARY_EVAL_ORDER = 200  # used for radii beyond 0.95


@dataclass(frozen=True)
class ExtremalFunction:
    """A normalized function f(z) = z + a2 z^2 + ... with its provenance."""

    series: TruncatedSeries
    spec_name: str
    n: int
    kind: str  # "starlike_t", "convex_d" or "from_q"

    def __post_init__(self):
        if self.series[0] != 0 or self.series[1] != 1:
            raise ValueError("extremal function must be normalized: f(0)=0, f'(0)=1")

    def coefficient(self, k: int):
        return self.series[k]

    def __call__(self, z: complex) -> complex:
        return self.series(z)


def _check_order(order: int) -> None:
    # order 0 would cut f = z + ... to its constant term, which is not normalized
    if order < 1:
        raise ValueError("order must be at least 1")


def _structural_exp(spec, n: int, order: int, exact: bool) -> TruncatedSeries:
    """exp(integral_0^z (Phi(t^n) - 1)/t dt) to order - 1: t_n(z)/z and d_n'(z).

    The integral is sum_k C_k z^(n k)/(n k) over the generator coefficients C_k.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    _check_order(order)
    top = order - 1
    coeff = spec.coeff_exact if exact else spec.coeff
    out: list = [0] * (top + 1)
    k = 1
    while n * k <= top:
        c = coeff(k)
        if isinstance(c, (int, Fraction)):
            out[n * k] = Fraction(c, n * k)
        else:
            out[n * k] = c / (n * k)
        k += 1
    return TruncatedSeries(out).exp(top)


def t_series(spec, n: int, order: int, exact: bool = False) -> ExtremalFunction:
    """The starlike structural function z * exp(integral (Phi(t^n)-1)/t)."""
    u = _structural_exp(spec, n, order, exact)
    name = getattr(spec, "name", "custom")
    return ExtremalFunction(u.shifted(1).padded(order), name, n, "starlike_t")


def conjecture_check(n_max: int = 5, m_max: int = 10) -> dict:
    """Coefficient comparison table for the power-substituted structural family.

    Exact rational coefficients of t_n for n = 1..n_max up to order m_max;
    any |a_{m,n}| > |a_{m,1}| lands in ``violations``.
    """
    if n_max < 2 or m_max < 5:
        raise ValueError("need n_max >= 2 and m_max >= 5")
    psi = make_spec("psi")
    table: dict[int, list[Fraction]] = {}
    for n in range(1, n_max + 1):
        series = t_series(psi, n, m_max, exact=True).series
        table[n] = [Fraction(series[m]) for m in range(2, m_max + 1)]
    violations = []
    for n in range(2, n_max + 1):
        for i, m in enumerate(range(2, m_max + 1)):
            if abs(table[n][i]) > abs(table[1][i]):
                violations.append({"m": m, "n": n, "value": str(table[n][i]), "reference": str(table[1][i])})
    return {
        "n_max": n_max,
        "m_max": m_max,
        "table": {n: [str(c) for c in cs] for n, cs in table.items()},
        "violations": violations,
    }


def d_series(spec, n: int, order: int, exact: bool = False) -> ExtremalFunction:
    """The convex structural function: antiderivative of exp(integral ...).

    The derivative of the returned series is d', with z d'(z) = t_n(z).
    """
    u = _structural_exp(spec, n, order, exact)
    name = getattr(spec, "name", "custom")
    return ExtremalFunction(u.antiderivative().padded(order), name, n, "convex_d")


def f_from_q(q: TruncatedSeries, order: int) -> ExtremalFunction:
    """z * exp(integral (q(t)-1)/t dt) for a series q with q(0) = 1."""
    _check_order(order)
    integral = q.integrate_over_t().padded(order - 1)
    u = integral.exp(order - 1)
    return ExtremalFunction(u.shifted(1).padded(order), "from_q", 1, "from_q")


def _eval_order(r: float, order: int | None) -> int:
    if order is not None:
        return order
    return BOUNDARY_EVAL_ORDER if r > 0.95 else DEFAULT_EVAL_ORDER


def _real_or_raise(w: complex, what: str) -> float:
    w = complex(w)
    if abs(w.imag) > 1e-9 * max(1.0, abs(w.real)):
        raise ValueError(f"{what} came out non-real: {w}")
    return w.real


def distortion_envelope_convex(spec: MaMindaSpec, r: float, order: int | None = None) -> tuple[float, float]:
    """(d'(r), d'(-r)) for the convex-side structural function of spec.

    For a generator with negative leading slope this is (lower, upper) for
    |f'| over the class at radius r.
    """
    if not 0 < r < 1:
        raise ValueError("radius must be in (0, 1)")
    n_ord = _eval_order(r, order)
    d = d_series(spec, 1, n_ord)
    dp = d.series.derivative()
    lo = _real_or_raise(dp(r), "d'(r)")
    hi = _real_or_raise(dp(-r), "d'(-r)")
    return lo, hi


def growth_envelope_starlike(spec: MaMindaSpec, r: float, order: int | None = None) -> tuple[float, float]:
    """(t(r), -t(-r)): the modulus envelope for the starlike class at radius r."""
    if not 0 < r < 1:
        raise ValueError("radius must be in (0, 1)")
    n_ord = _eval_order(r, order)
    t = t_series(spec, 1, n_ord)
    lo = _real_or_raise(t(r), "t(r)")
    hi = -_real_or_raise(t(-r), "t(-r)")
    return lo, hi


def distortion_envelope_starlike(
    spec: MaMindaSpec, r: float, order: int | None = None, grid: int = 256
) -> tuple[float, float]:
    """(t'(r), t'(-r)); requires |Phi| to be extremal on the real axis.

    The hypothesis min_{|z|=rho}|Phi(z)| = Phi(rho), max = Phi(-rho) is
    checked on a ``grid``-point circle and a failure raises with the
    offending angle.
    """
    if not 0 < r < 1:
        raise ValueError("radius must be in (0, 1)")
    import cmath

    mod_plus = abs(spec.eval(r))
    mod_minus = abs(spec.eval(-r))
    for j in range(grid):
        theta = 2 * math.pi * j / grid
        m = abs(spec.eval(r * cmath.exp(1j * theta)))
        if m < mod_plus - 1e-12 or m > mod_minus + 1e-12:
            raise ValueError(
                f"|Phi| is not extremal on the real axis at radius {r}: "
                f"|Phi({r}*e^(i{theta:.4f}))| = {m:.6f} outside "
                f"[{mod_plus:.6f}, {mod_minus:.6f}]"
            )
    n_ord = _eval_order(r, order)
    t = t_series(spec, 1, n_ord)
    tp = t.series.derivative()
    return _real_or_raise(tp(r), "t'(r)"), _real_or_raise(tp(-r), "t'(-r)")


def growth_constant(terms: int = 1000) -> float:
    """Limit of sum_{k>=1} (-1)^(k+1)/k^2, summed with consecutive-term pairing.

    This is the logarithmic growth constant of the boundary envelope for the
    logarithmic generator; the exact value is pi^2/12.
    """
    total = 0.0
    j = 1
    while 2 * j <= terms:
        total += 1.0 / (2 * j - 1) ** 2 - 1.0 / (2 * j) ** 2
        j += 1
    if terms % 2 == 1:
        total += 1.0 / terms**2
    return total
