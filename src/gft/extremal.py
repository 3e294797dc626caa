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

import functools
import sys
from dataclasses import dataclass
from fractions import Fraction

from .catalog import MaMindaSpec, make_spec
from .series import TruncatedSeries, _as_int, _index

__all__ = [
    "ExtremalFunction",
    "t_series",
    "conjecture_check",
    "d_series",
    "f_from_q",
    "distortion_envelope_convex",
    "growth_envelope_starlike",
    "growth_constant",
]

# series order of every envelope evaluation, at any radius
ENVELOPE_ORDER = 200


@dataclass(frozen=True)
class ExtremalFunction:
    """A normalized function f(z) = z + a2 z^2 + ..."""

    series: TruncatedSeries

    def __post_init__(self):
        if self.series[0] != 0 or self.series[1] != 1:
            raise ValueError("extremal function must be normalized: f(0)=0, f'(0)=1")

    def __call__(self, z: complex) -> complex:
        return self.series(z)


def _check_order(order: int) -> int:
    # order 0 would cut f = z + ... to its constant term, which is not normalized
    return _as_int(order, "order", 1)


def _structural_exp(coeff, n: int, order: int) -> TruncatedSeries:
    """exp(integral_0^z (Phi(t^n) - 1)/t dt) to order - 1: t_n(z)/z and d_n'(z).

    The integral is sum_k C_k z^(n k)/(n k) over the generator coefficients C_k = coeff(k).
    """
    n, order = _as_int(n, "n", 1), _check_order(order)  # True would read as n = 1
    top = order - 1
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
    u = _structural_exp(spec.coeff_exact if exact else spec.coeff, n, order)
    return ExtremalFunction(u.shifted(1).padded(order))


# Once this module loads, the package binds t_series too, as it did when it
# re-exported the library: bench/selftest.py checks that tracing patches that
# binding (ROADMAP item 9). Binding it here keeps ``import gft`` loading nothing.
sys.modules[__package__].t_series = t_series


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
    u = _structural_exp(spec.coeff_exact if exact else spec.coeff, n, order)
    return ExtremalFunction(u.antiderivative().padded(order))


def f_from_q(q: TruncatedSeries, order: int) -> ExtremalFunction:
    """z * exp(integral (q(t)-1)/t dt) for a series q with q(0) = 1: the route of
    :func:`t_series` at n = 1, with q's coefficients as the generator's."""
    _check_order(order)
    if q[0] != 1:
        raise ValueError("integrand (q-1)/t has a pole unless q(0) = 1")
    return ExtremalFunction(_structural_exp(q.__getitem__, 1, order).shifted(1))


@functools.lru_cache(maxsize=16)
def _envelope_series(spec) -> TruncatedSeries:
    """d' = t/z of spec to order 199 over real floats, built once per generator."""
    return _structural_exp(lambda k: float(spec.coeff_exact(k)), 1, ENVELOPE_ORDER)


def _envelope(spec, r: float, scale: float) -> tuple[float, float]:
    if not 0 < r < 1:
        raise ValueError("radius must be in (0, 1)")
    dp = _envelope_series(spec)
    return dp(r) * scale, dp(-r) * scale


def distortion_envelope_convex(spec: MaMindaSpec, r: float) -> tuple[float, float]:
    """(d'(r), d'(-r)) for the convex-side structural function of spec.

    For a generator with negative leading slope this is (lower, upper) for
    |f'| over the class at radius r. d' is the series that :func:`d_series`
    integrates, cut at order 199. For psi, against exp(Li2(-r)) and exp(Li2(r)), the relative
    error is at most 2.4e-13 up to r = 0.9, 1.6e-8/5.9e-8 at r = 0.955, 2.1e-5/2.1e-4 at 0.99.
    """
    return _envelope(spec, r, 1.0)


def growth_envelope_starlike(spec: MaMindaSpec, r: float) -> tuple[float, float]:
    """(t(r), -t(-r)) = r (d'(r), d'(-r)): the starlike modulus envelope at radius r.

    For psi, against r exp(Li2(-r)) and r exp(Li2(r)), the relative error is that of d': at
    most 2.4e-13 up to r = 0.9, 1.6e-8/5.9e-8 at r = 0.955, 2.1e-5/2.1e-4 at 0.99.
    """
    return _envelope(spec, r, r)


def growth_constant(terms: int = 1000) -> float:
    """Limit of sum_{k>=1} (-1)^(k+1)/k^2, summed with consecutive-term pairing.

    This is the logarithmic growth constant of the boundary envelope for the
    logarithmic generator; the exact value is pi^2/12. ``terms`` is an int >= 1.
    """
    if (n := _index(terms)) is None:  # 2.5 or True would pair another number of terms
        raise ValueError(f"terms must be an int, got {terms!r}")
    if n < 1:  # else the odd tail below adds 1/n^2 to an empty sum
        raise ValueError(f"terms must be at least 1, got {terms!r}")
    total = 0.0
    for j in range(1, n // 2 + 1):
        total += 1.0 / (2 * j - 1) ** 2 - 1.0 / (2 * j) ** 2
    if n % 2 == 1:
        total += 1.0 / n**2
    return total
