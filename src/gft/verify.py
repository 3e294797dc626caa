"""Independent brute-force and sampling oracles.

Everything here deliberately avoids the closed-form machinery it checks:
class members are evaluated by Gauss-Legendre quadrature of the structural
integral, coefficient functionals are swept over the exact Caratheodory
parameter region, and inequalities are reported as margins rather than
raised, so a single grid artifact cannot abort a suite.  All randomness is
seeded; identical seeds give identical reports.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from . import _as_int, bounds
from .bounds import (
    PSI_B,
    ClassParams,
    alpha_class_params,
    second_hankel,
    sl_bound_table,
)
from .catalog import make_spec
# conjecture_check and t_series are re-exported
from .extremal import conjecture_check, growth_envelope_starlike, t_series
from .radius import bisect_root, re_im_envelope
from .series import TruncatedSeries, _warn_outside_disk

__all__ = [
    "CaratheodoryPoint",
    "caratheodory_point",
    "schur_parameters",
    "disk_max",
    "sample_schwarz",
    "sample_suite",
    "structural_eval",
    "structural_deriv",
    "structural_deriv_convex",
    "maximize_second_hankel_oracle",
    "verify_class_membership_bounds",
    "lemma_p1p2_check",
    "eq_p31_check",
    "bloch_norm_estimate",
    "bloch_class_envelope",
    "bloch_seminorm_bound",
    "vector_space_counterexample",
    "lambda_combination_check",
    "conjecture_check",
]

BOUNDARY_GRID = 512
SCHWARZ_SAFETY = 1.001  # random polynomials are shrunk by this factor
SAMPLE_ORDER = 32  # series order of every Schwarz sample


def _circle(grid: int) -> np.ndarray:
    """The ``grid`` points exp(2 pi i j / grid), j = 0..grid-1, of the unit circle."""
    return np.exp(2j * np.pi * np.arange(grid) / grid)


@functools.cache
def _boundary_circle() -> np.ndarray:
    """``_circle(BOUNDARY_GRID)``, where random polynomials take their sup."""
    circle = _circle(BOUNDARY_GRID)
    circle.flags.writeable = False  # shared by every caller
    return circle


def _like(z, values: np.ndarray):
    """``values`` as a Python complex when the input point ``z`` was a scalar."""
    return complex(values) if np.ndim(z) == 0 else values


# -- Schwarz samples -------------------------------------------------------------
#
# A Schwarz function w, a self-map of the disk with w(0) = 0, is held as its
# complex coefficient row w_0 = 0, w_1, ..., w_N.


def _mobius_row(eta: float) -> np.ndarray:
    """z (z + eta)/(1 + eta z) = eta z + sum_{k>=2} (1 - eta^2) (-eta)^(k-2) z^k."""
    row = np.zeros(SAMPLE_ORDER + 1, dtype=complex)
    row[1] = eta
    row[2:] = (1 - eta * eta) * (-eta) ** np.arange(SAMPLE_ORDER - 1)
    return row


def _blaschke_row(seed: int) -> np.ndarray:
    """The ``scaled_blaschke`` sample of ``seed``: scale z prod (a - z)/(1 - conj(a) z) over two
    drawn zeros a; a factor's coefficients are a, then -(1 - |a|^2) conj(a)^(k-1), k >= 1."""
    rng = np.random.default_rng(seed)
    # modest zero radii keep the series truncation far below the
    # boundary-sup headroom of the closed disk of radius 0.999
    radii = rng.uniform(0.1, 0.6, 2)
    angles = rng.uniform(0, 2 * math.pi, 2)
    row = np.zeros(SAMPLE_ORDER + 1, dtype=complex)
    row[1] = float(rng.uniform(0.5, 0.95))
    for r, t in zip(radii, angles):
        a = r * cmath.exp(1j * t)
        factor = np.append(a, -(1 - abs(a) ** 2) * np.conj(a) ** np.arange(SAMPLE_ORDER))
        row = np.convolve(row, factor)[: SAMPLE_ORDER + 1]
    return row


# the params keys each sample kind reads (m defaults to 1, eta to 0.5); any
# other key is rejected, and the two random kinds draw from the seed alone
_SAMPLE_KEYS = {"monomial": {"m"}, "mobius_eta": {"eta"},
                "scaled_blaschke": set(), "random_poly_normalized": set()}


def sample_schwarz(kind: str, params: dict | None = None, seed: int = 0) -> np.ndarray:
    """Deterministic Schwarz-function sample of the requested kind: a fresh complex
    coefficient row of SAMPLE_ORDER + 1 entries (m + 1 for a monomial z^m past that)."""
    if kind not in _SAMPLE_KEYS:
        raise ValueError(f"unknown Schwarz sample kind {kind!r}")
    params = params or {}
    unread = sorted(set(params) - _SAMPLE_KEYS[kind])
    if unread:
        raise ValueError(f"Schwarz sample kind {kind!r} reads no params key {', '.join(unread)}")
    seed = _as_int(seed, "seed", 0)  # True or 1.5 would draw another stream, or none
    if kind == "monomial":
        m = _as_int(params.get("m", 1), "monomial exponent", 1)  # 2.5, "3" or True would build another power
        row = np.zeros(max(SAMPLE_ORDER, m) + 1, dtype=complex)
        row[m] = 1
        return row
    if kind == "mobius_eta":
        eta = params.get("eta", 0.5)
        if isinstance(eta, bool) or not isinstance(eta, (int, float)) or not 0 <= eta <= 1:
            raise ValueError(f"eta must be an int or float in [0, 1], got {eta!r}")
        return _mobius_row(float(eta))
    return _blaschke_row(seed) if kind == "scaled_blaschke" else _random_poly_rows([seed])[0]


def _random_poly_rows(seeds: Sequence[int]) -> np.ndarray:
    """The ``random_poly_normalized`` sample of each seed: a degree-8 polynomial with
    standard complex normal coefficients, scaled to sup |w| = 1/SCHWARZ_SAFETY on the boundary
    circle. The sups take ``np.polyval``'s steps after the first on all rows at once."""
    rows = np.zeros((len(seeds), SAMPLE_ORDER + 1), dtype=complex)
    for row, seed in zip(rows, seeds):
        rng = np.random.default_rng(seed)
        row[1:9] = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    values = rows[:, 8, None].repeat(BOUNDARY_GRID, axis=1)  # y = p[8], the step 0 x + p[8]
    for c in rows[:, 7::-1].T:  # y = y x + p over each row[7::-1]
        values *= _boundary_circle()
        values += c[:, None]
    rows *= (1.0 / (SCHWARZ_SAFETY * np.abs(values).max(axis=1)))[:, None]
    return rows


#: z..z^4 and the Moebius maps at eta = 0, 1/4, 1/2, 3/4, 1: the seed-free head of every suite
_WITNESSES = (*(("monomial", {"m": m}) for m in (1, 2, 3, 4)),
              *(("mobius_eta", {"eta": eta}) for eta in (0.0, 0.25, 0.5, 0.75, 1.0)))


@functools.cache
def _witness_rows() -> np.ndarray:
    """The rows of the ``_WITNESSES``, built once and read-only."""
    rows = np.array([sample_schwarz(kind, params) for kind, params in _WITNESSES])
    rows.flags.writeable = False  # shared by every suite
    return rows


def sample_suite(count: int, seed: int = 42) -> tuple[np.ndarray, list[str]]:
    """A deterministic mix of sample kinds, extremal witnesses first: the samples'
    rows stacked as a (count, SAMPLE_ORDER + 1) complex array, and their kinds.

    After the ``_WITNESSES``, the i-th further sample, drawn from seed + i, is a
    scaled Blaschke product when i % 3 == 2, else a random polynomial (one pass for all).
    Moebius eta = 0 and eta = 1 reproduce the monomials z^2 and z; they stay
    because the benchmark's 24-sample membership digests pin this list.
    """
    n = _as_int(count, "sample count", 1)
    seed = _as_int(seed, "seed", 0)
    extra = range(n - len(_WITNESSES))  # empty below ten samples
    kinds = [kind for kind, _ in _WITNESSES[:n]]
    kinds += ["scaled_blaschke" if i % 3 == 2 else "random_poly_normalized" for i in extra]
    polys = iter(_random_poly_rows([seed + i for i in extra if i % 3 != 2]))
    rows = [*_witness_rows()[:n], *(_blaschke_row(seed + i) if i % 3 == 2 else next(polys) for i in extra)]
    return np.array(rows), kinds


# -- structural evaluation ----------------------------------------------------------
#
# Each function takes a Schwarz function's coefficient row and one point or an
# array of points. A scalar gives a Python complex; an array gives a complex
# array of its shape.

@functools.cache
def _gauss_legendre(count: int = 64) -> tuple[np.ndarray, np.ndarray]:
    """``count`` Gauss-Legendre nodes mapped to [0, 1] (t = s z, dt = z ds), and weights."""
    nodes, weights = np.polynomial.legendre.leggauss(count)
    s = 0.5 * (nodes + 1.0)
    s.flags.writeable = weights.flags.writeable = False  # shared by every caller
    return s, weights


def _powers(z: np.ndarray, n: int) -> np.ndarray:
    """z^0..z^n along a new last axis, by running products."""
    out = np.ones(z.shape + (n + 1,), dtype=complex)
    out[..., 1:] = z[..., None]
    return np.multiply.accumulate(out, axis=-1, out=out)


@functools.cache
def _node_powers(n: int) -> np.ndarray:
    """s_j^k for k < n by rows, one column per node of ``_gauss_legendre()`` (read-only)."""
    table = _gauss_legendre()[0] ** np.arange(n)[:, None]
    table.flags.writeable = False  # shared by every caller
    return table


def _log_ratio_integral(coeffs: np.ndarray, z_powers: np.ndarray) -> np.ndarray:
    """integral_0^z -log(1 + w(t))/t dt by 64-point Gauss-Legendre quadrature.

    w has the coefficient rows ``coeffs`` (..., N+1), broadcast against the
    powers z^0..z^N of the points, ``_powers(z, N)``. In s the integrand is
    -log(1 + w(s z))/s, with w(s z) = sum_k (c_k z^k) s^k at all (point, node)
    pairs one product with the node powers; log(1 + w) is log|1 + w| + i arg(1 + w).
    The structural functions use it, at 64 nodes since the Bloch estimate
    reaches |z| = 0.999 (see ``bloch_norm_estimate`` for their error there);
    the membership growth check needs only |f|, from ``_growth_modulus``.
    """
    s, weights = _gauss_legendre()
    u = (coeffs * z_powers) @ _node_powers(coeffs.shape[-1])
    u += 1
    # -log(u)/s in place of u: u / -s rounds as -u / s does
    log_abs = np.log(np.abs(u))
    u.imag = np.angle(u)
    u.real = log_abs
    u /= -s
    return 0.5 * (u @ weights)


def _structural(omega: np.ndarray, z) -> tuple[np.ndarray, np.ndarray]:
    """z as a complex array, and f(z)/z = exp(integral_0^z (q-1)/t dt) at z for
    q = 1 - log(1 + omega): the core of the three structural functions.

    The integral evaluates the truncated row on the segment [0, z], so a z outside
    the closed disk warns, as :meth:`TruncatedSeries.__call__` does.
    """
    za = np.asarray(z, dtype=complex)
    _warn_outside_disk(np.abs(za).max(initial=0.0), 4)
    return za, np.exp(_log_ratio_integral(omega, _powers(za, omega.size - 1)))


def structural_eval(omega: np.ndarray, z):
    """f(z) = z exp(integral (q-1)/t dt) with q = 1 - log(1 + omega)."""
    za, f_over_z = _structural(omega, z)
    return _like(z, za * f_over_z)


def structural_deriv(omega: np.ndarray, z):
    """f'(z) = f(z) q(z) / z, computed as exp(integral (q-1)/t dt) q(z).

    Exact in terms of the structural formula; the form without the division
    by z also holds at z = 0 and does not overflow for a subnormal z.
    """
    za, f_over_z = _structural(omega, z)
    return _like(z, f_over_z * (1 - np.log(1 + np.polyval(omega[::-1], za))))


def structural_deriv_convex(omega: np.ndarray, z):
    """f'(z) = exp(integral (q-1)/t dt): derivative of the convex-side member."""
    return _like(z, _structural(omega, z)[1])


# -- Caratheodory parameterization -------------------------------------------------


@dataclass(frozen=True)
class CaratheodoryPoint:
    p1: float
    x: complex
    y: complex
    p2: complex
    p3: complex


def _p2(p1, x):
    """Libera-Zlotkiewicz p2 = (p1^2 + x (4 - p1^2)) / 2; array-friendly."""
    return (p1**2 + x * (4 - p1**2)) / 2


def _p2_p3(p1, x):
    """Libera-Zlotkiewicz (p2, p3 at y = 0, dp3/dy); p3 is affine in y.

    Array-friendly: p3 = base + bump * y for the free parameter |y| <= 1.
    """
    s = 4 - p1**2
    base = (p1**3 + 2 * p1 * s * x - p1 * s * x**2) / 4
    bump = 2 * s * (1 - np.abs(x) ** 2) / 4
    return _p2(p1, x), base, bump


def caratheodory_point(p1: float, x: complex, y: complex) -> CaratheodoryPoint:
    """Derived (p2, p3) for admissible parameters p1 in [0,2], |x|,|y| <= 1."""
    if not 0 <= p1 <= 2:
        raise ValueError(f"p1 must lie in [0, 2], got {p1}")
    if abs(x) > 1 + 1e-12 or abs(y) > 1 + 1e-12:
        raise ValueError("x and y must lie in the closed unit disk")
    p2, base, bump = _p2_p3(p1, x)
    return CaratheodoryPoint(p1, complex(x), complex(y), complex(p2), complex(base + bump * y))


def schur_parameters(p1: complex, p2: complex, p3: complex) -> tuple[complex, complex, complex]:
    """Recover the disk parameters (xi, eta, zeta) from a coefficient prefix.

    The prefix extends to a genuine positive-real-part function iff all three
    recovered parameters lie in the closed unit disk.  Uses the first three
    coefficients c_k of w = (p-1)/(p+1).
    """
    c1 = p1 / 2
    c2 = p2 / 2 - p1**2 / 4
    c3 = p3 / 2 - p1 * p2 / 2 + p1**3 / 8
    xi = c1
    r1 = 1 - abs(xi) ** 2
    if r1 <= 0:
        return xi, 0.0, 0.0  # boundary point: higher parameters are unconstrained
    eta = c2 / r1
    r2 = 1 - abs(eta) ** 2
    if r2 <= 0:
        return xi, eta, 0.0
    zeta = (c3 / r1 + xi.conjugate() * eta**2) / r2
    return xi, eta, zeta


# -- polar grids and disk maxima -----------------------------------------------------


def polar_grid(top: float, density: int):
    """Grid t in [0, top] x rho in [0, 1] x phi in [0, 2 pi) as broadcastable axes.

    Returns (t, rho, phi, x) with shapes (d,1,1), (1,d,1), (1,1,d) and the
    disk points x = rho e^(i phi) of shape (1,d,d).  A sweep that evaluates
    only some of the grid's points gathers its inputs from these arrays.  Every
    grid value comes from the same elementwise operations on the same inputs
    whatever points are evaluated with it, so such a sweep holds the bits of
    one evaluation on the full broadcast arrays.
    """
    t = np.linspace(0.0, top, density)[:, None, None]
    rho = np.linspace(0.0, 1.0, density)[None, :, None]
    phi = np.linspace(0.0, 2 * np.pi, density, endpoint=False)[None, None, :]
    return t, rho, phi, rho * np.exp(1j * phi)


def check_density(density: int) -> int:
    """``density`` as an int >= 32: density 1 sweeps one point, too coarse for the sup."""
    return _as_int(density, "density", 32)


def finite_coefficients(b) -> tuple[float, ...]:
    """The generator coefficients ``b`` as floats; a nan or infinite one is rejected,
    as it would leave every grid value nan."""
    coeffs = tuple(float(c) for c in b)
    for i, c in enumerate(coeffs, start=1):
        if not math.isfinite(c):
            raise ValueError(f"generator coefficient b{i} must be finite, got {c!r}")
    return coeffs


def finite_grid(values, coeffs):
    """``values`` when every one is finite.  A finite triple ``coeffs`` so large
    that the grid's products overflow leaves inf or nan there, and no maximum."""
    if not np.isfinite(values).all():
        raise _overflow(coeffs)
    return values


def _overflow(coeffs) -> ValueError:
    return ValueError(f"generator coefficients {coeffs} overflow the grid oracle")


def disk_max(a0, a1, a2, k):
    """max of |a0 + a1 x + a2 x^2| + k (1 - |x|^2) over |x| <= 1, per real row, k >= 0.

    k Y(a0/k, a1/k, a2/k) for the k = 1 maximum Y(A, B, C) of Choi, Kim and
    Sugawa (J. Math. Soc. Japan 59, 2007), each case multiplied through by k:
    none divides by k, and a k = 0 row gets the maximum over the circle.  Each
    row is scaled exactly by the power of 2 at its largest modulus, so that no
    case test underflows (products of four coefficients do from 1e-77).
    """
    e = np.frexp(np.maximum(np.maximum(np.abs(a0), np.abs(a1)), np.maximum(np.abs(a2), k)))[1]
    a0, a1, a2, k = (np.ldexp(v, -e) for v in (a0, a1, a2, k))
    A, B, C = np.abs(a0), np.abs(a1), np.abs(a2)
    g, sq, same = k - C, a1 * a1, a0 * a2 >= 0
    q = -4 * a0 * a2 * (k * k - a2 * a2)
    # np.select evaluates every case: one not taken may divide by a zero or
    # subnormal g or A C and overflow, which the case taken never does
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return np.ldexp(np.select(
            [same & (B >= 2 * g), same,
             (B * B * C * C >= q) & (B < 2 * g), (B < 2 * (k + C)) & (B * B * C * C < q),
             C * (B + 4 * A) <= A * B, A * B <= C * (B - 4 * A)],
            [A + B + C, k + A + sq / (4 * g),
             k - A + sq / (4 * g), k + A + sq / (4 * (k + C)),
             A + B - C, -A + B + C],
            (A + C) * np.sqrt(1 + sq / (4 * A * C))), e)  # a0 a2 = -A C there


# -- second-Hankel brute force ------------------------------------------------------


def _hankel_halves(params: ClassParams, coeffs, p1, x):
    """|a2 a4 - a3^2| split as E0 + E1*y (affine in the free parameter y).

    a2, a3 and the p3-free ``head`` and ``tail`` of a4 are computed once and
    a4 is completed at p3 = base and at p3 = base + bump: the expression tree
    of two whole-formula coefficient evaluations with their shared
    subexpressions evaluated once, so E0 and E1 keep the bits of the two.
    """
    p2, base, bump = _p2_p3(p1, x)
    g2, g3 = params.g2, params.g3
    h2, h3 = params.h2, params.h3
    u, v = params.u, params.v
    b1, b2, b3 = coeffs
    a2 = b1 * p1 / (2 * u)
    a3 = (b2 * p1**2 * u - b1 * (p1**2 - 2 * p2) * u + b1**2 * p1**2 * h2) / (4 * u * v)
    head = (
        p1 * (-2 * b2 * p1**2 + b3 * p1**2 + 4 * b2 * p2) * u * v
        + b1**3 * p1**3 * h2 * h3
        - b1**2 * p1 * (p1**2 - 2 * p2) * (g3 * h2 + (g2 - 2 * h2) * h3)
    )
    tail = (
        p1**3 * (g2 * (g3 + (b2 - 1) * h3) + h2 * ((b2 - 1) * g3 + h3 - 2 * b2 * h3))
        - 4 * p1 * p2 * u * v
    )
    a4_0, a4_1 = ((head + b1 * (tail + 4 * p3 * u * v)) / (8 * u * v * params.w)
                  for p3 in (base, base + bump))
    return a2 * a4_0 - a3**2, a2 * (a4_1 - a4_0)


def _hankel_objective(params: ClassParams, coeffs):
    """The polish's objective: -(|E0| + |E1|) of :func:`_hankel_halves` at the
    vertex (p1, rho, phi), with p1 clamped to [0, 2] and rho to [0, 1].

    Each value has the bits of the tree evaluated on the scalar arguments
    complex(p1) and x = rho e^(i phi), but in Python floats: p1 stays real,
    since every product with its zero imaginary part rounds to the real one's
    value, and the constants that depend only on ``params`` and ``coeffs`` are
    rounded once, in the tree's order.  Two conventions of the tree are kept.
    An unclamped rho is a numpy float, so x and every quotient that depends
    on it are numpy complex scalars, and numpy divides a complex scalar by a
    real one by multiplying with the reciprocal; a clamped rho is a Python
    float, and Python divides exactly.  The bump's |x| is the ``np.abs``
    ufunc, which may round otherwise than ``abs``, and it is squared as a
    numpy float, by ``pow``, which may round otherwise than |x| |x|.
    """
    g2, g3, _, h2, h3, _ = params
    u, v, w = params.u, params.v, params.w
    b1, b2, b3 = coeffs
    u2, uv4, uvw8 = 2 * u, 4 * u * v, 8 * u * v * w
    b1_2, b1_3, m2b2, b2_4 = b1**2, b1**3, -2 * b2, 4 * b2
    k_head = g3 * h2 + (g2 - 2 * h2) * h3
    k_tail = g2 * (g3 + (b2 - 1) * h3) + h2 * ((b2 - 1) * g3 + h3 - 2 * b2 * h3)
    inv3, inv4 = 1.0 / uv4, 1.0 / uvw8

    def neg(vertex):
        p = min(max(vertex[0], 0.0), 2.0)
        r = vertex[1]
        exact = r < 0.0 or r > 1.0
        if exact:
            r = 0.0 if r < 0.0 else 1.0
        x = r * cmath.exp(1j * vertex[2])
        xx, pp = x * x, p * p
        ppp, s = pp * p, 4 - pp
        p2 = (pp + x * s) / 2
        d = pp - 2 * p2
        base = (ppp + 2 * p * s * x - p * s * xx) / 4
        bump = 2 * s * (1 - float(np.abs(x) ** 2)) / 4
        a2 = b1 * p / u2
        n3 = b2 * pp * u - b1 * d * u + b1_2 * pp * h2
        head = (p * (m2b2 * pp + b3 * pp + b2_4 * p2) * u * v + b1_3 * ppp * h2 * h3
                - b1_2 * p * d * k_head)
        tail = ppp * k_tail - 4 * p * p2 * u * v
        n4_0 = head + b1 * (tail + 4 * base * u * v)
        n4_1 = head + b1 * (tail + 4 * (base + bump) * u * v)
        if exact:
            a3, a4_0, a4_1 = n3 / uv4, n4_0 / uvw8, n4_1 / uvw8
        else:
            a3, a4_0, a4_1 = n3 * inv3, n4_0 * inv4, n4_1 * inv4
        return -(abs(a2 * a4_0 - a3 * a3) + abs(a2 * (a4_1 - a4_0)))

    return neg


def maximize_second_hankel_oracle(params: ClassParams, b, density: int = 64) -> float:
    """Lower bound for sup |a2 a4 - a3^2| over the class, by grid + polish.

    The grid covers p1 in [0,2] and x in the closed unit disk; the third
    parameter is maximized in closed form (the functional is affine in it).
    ``b`` is a :class:`PhiCoeffs` or any coefficient triple.  With p1 and ``b``
    real, E0 of :func:`_hankel_halves` is a0 + a1 x + a2 x^2 on each p1 row,
    read off the tree at x = 0, 1, -1, and E1 = K (1 - |x|^2), so :func:`disk_max`
    bounds each row.  The tree runs on the rows whose bound may reach the
    maximum, and its first maximum in grid order starts the polish,
    :func:`gft.bounds.minimize` at call time, on :func:`_hankel_objective`.
    That objective runs on Python floats and keeps both division conventions
    of the tree evaluated on the scalars complex(p1) and x: a quotient that
    depends on x is multiplied by the reciprocal of its real divisor when rho
    lies in [0, 1], as numpy divides a complex scalar, and divided exactly
    when rho was clamped, as Python does.  A finite triple ``b`` so large that
    the arithmetic of the grid or of the polish overflows raises ValueError.
    """
    density = check_density(density)
    fp = ClassParams(*map(float, params))
    coeffs = finite_coefficients(b)
    try:  # b1**2 and b1**3 round as in the tree, by a power that raises on overflow
        objective = _hankel_objective(fp, coeffs)
    except OverflowError:
        raise _overflow(coeffs) from None
    t, rho, phi, x = polar_grid(2.0, density)
    with np.errstate(over="ignore", invalid="ignore"):  # finite_grid reports an overflow
        e0, e1 = _hankel_halves(fp, coeffs, t[:, 0] + 0j, np.array([0.0, 1.0, -1.0]))
        a0, at_1, at_m1 = e0.real.T
        bound = finite_grid(disk_max(
            a0, (at_1 - at_m1) / 2, (at_1 + at_m1) / 2 - a0, np.abs(e1[:, 0])), coeffs)
        # S = |a0 + a1 x + a2 x^2| + |K| (1 - |x|^2) never exceeds its row's bound
        # and is off the tree's value F by at most 7.8e-15 on whole density-48
        # grids (the suite's generator, random b in [-3, 3]^3).  The maximum L of
        # F on the row of the largest bound is attained, and a row whose bound
        # falls short of L by the slack, some 1e5 times that, holds no F as large
        # as L: the first maximum over the rows kept is the full sweep's to the bit.
        r = int(np.argmax(bound))
        e0, e1 = _hankel_halves(fp, coeffs, t[r : r + 1] + 0j, x)
        values = np.abs(e0) + np.abs(e1)
        top = finite_grid(float(values.max()), coeffs)
        rows = np.nonzero(bound >= top - 2e-9 * max(1.0, top))[0]
        if rows.tolist() != [r]:  # else the values of the one row kept are at hand
            e0, e1 = _hankel_halves(fp, coeffs, t[rows] + 0j, x)
            values = np.abs(e0) + np.abs(e1)
    i, j, m = np.unravel_index(int(np.argmax(values)), values.shape)
    best = finite_grid(float(values[i, j, m]), coeffs)
    start = (float(t[rows[i], 0, 0]), float(rho[0, j, 0]), float(phi[0, 0, m]))
    try:  # abs() raises on a finite complex whose modulus overflows
        res = bounds.minimize(objective, start, xatol=1e-10, fatol=1e-13)
    except OverflowError:
        raise _overflow(coeffs) from None
    return finite_grid(float(-res.fun) if -res.fun > best else best, coeffs)


# -- class-membership sampling -------------------------------------------------------


def _cmul(a, b):
    """a * b rounded as Python rounds a complex product, part by part; numpy
    may fuse the multiply-adds of its own product and round differently."""
    return a.real * b.real - a.imag * b.imag + 1j * (a.real * b.imag + a.imag * b.real)


def _class_coefficients(omega: np.ndarray, phi, h, d) -> np.ndarray:
    """a_2..a_{N+1} of the class members stacked, one row per Schwarz function
    and one column per weight set.

    ``omega`` holds w_0 = 0, w_1..w_N of each Schwarz function, ``phi`` the
    generator coefficients 1, phi_1..phi_N, ``h`` the weights 1, h_2..h_N and
    ``d`` the gaps d_n = g_n - h_n, n = 2..N+1, each weight a scalar or one
    entry per column. q = phi(omega) takes the Horner steps of
    :meth:`TruncatedSeries.compose` and the sum order of
    :meth:`TruncatedSeries.mul`, then a_n d_n = sum_{m<n} a_m h_m q_{n-m}, its
    terms from one product, added by ``sum`` in order of m from 0 (np.add.reduce
    sums pairwise where there is one row and one column). Each step rounds as
    Python does on one row's complex scalars, keeping the bits of that route.
    """
    order = omega.shape[1] - 1
    lags = np.arange(order)
    shifted = omega[:, np.maximum(lags - lags[:, None] + 1, 0)]  # w_{n-j} at (j, n - 1)
    q = np.zeros_like(omega)
    q[:, 0] = phi[order]
    for c in reversed(phi[:order]):
        # coefficient n of q * omega is sum_{j<n} q_j w_{n-j}, in order of j
        products = _cmul(q[:, :order, None], shifted)
        acc = products[:, 0]
        for j in range(1, order):
            acc[:, j:] += products[:, j, j:]
        q[:, 0], q[:, 1:] = c, acc
    a = np.ones((order + 1, len(omega), np.size(d[0])), dtype=complex)  # a_1..a_{N+1}
    ah = np.empty_like(a[:order])  # a_m h_m
    for n in range(2, order + 2):
        ah[n - 2] = a[n - 2] * h[n - 2]
        acc = sum(_cmul(ah[: n - 1], q[:, n - 1 : 0 : -1].T[..., None]), 0)
        a[n - 1] = acc.real / d[n - 2] + 1j * (acc.imag / d[n - 2])  # as Python, not by 1/d
    return a[1:]


@dataclass
class MembershipReport:
    samples: int
    seed: int
    worst_re_lo: float
    worst_re_hi: float
    worst_im: float
    worst_growth_lo: float
    worst_growth_hi: float
    coeff_margins: dict
    violations: list

    def as_dict(self) -> dict:
        return {
            "samples": self.samples,
            "seed": self.seed,
            "worstReLoMargin": self.worst_re_lo,
            "worstReHiMargin": self.worst_re_hi,
            "worstImMargin": self.worst_im,
            "worstGrowthLoMargin": self.worst_growth_lo,
            "worstGrowthHiMargin": self.worst_growth_hi,
            "coeffMargins": {k: v for k, v in self.coeff_margins.items()},
            "violations": self.violations,
        }


#: (ray, node) pairs in one block of the membership growth quadrature: the
#: samples are checked a few rows at a time, so that the complex temporaries
#: of a block (128 KB each) stay in a 2 MB L2 cache instead of streaming
#: through memory as arrays over every sample
SLAB_POINTS = 8192
_MEMBERSHIP_RADII = (0.3, 0.6, 0.9)
_MEMBERSHIP_ANGLES = 64
_GROWTH_STRIDE = 8  # growth is checked at every 8th envelope angle, on 8 rays
#: Gauss-Legendre nodes per segment of a growth ray, cut at the radii. The
#: integrand log|1 + w(rho e^(i theta))|/rho is analytic for |rho| < 1, inside
#: the Bernstein ellipse of [0.6, 0.9] with rho = 3, so n nodes err by about
#: 3^(-2n), 5e-16 at 16. Against 64 nodes on [0, r], |f| moved by at most 1.9e-15
#: relative on the suites tests/test_verify.py runs (it holds it to 1e-14)
_RAY_NODES = 16
#: bound on the difference, per part, between log|u| + i arg u and np.log(u)
#: at the envelope points u = 1 + w (seen: 2.8e-16 real, a few ulp imaginary),
#: and so, with the rounding of a margin's subtractions, between the margins
_LOG_SLACK = 1e-14


@functools.cache
def _membership_tables() -> tuple[np.ndarray, ...]:
    """The suite's constants, built once and read-only: the envelope points' powers
    z^k as a (k, point) matrix, the growth rays' rotations e^(ik theta) by (ray, k),
    the ray nodes' powers rho^k by (k, node), segment by segment, and each node's
    weight in its segment over rho; and one row per radius, the Re lo, Re hi and
    |Im| bounds and the growth bounds t(r) and -t(-r), t the structural function
    to order 200 (for the r = 0.9 tail)."""
    circle, (s, weights) = _circle(_MEMBERSHIP_ANGLES), _gauss_legendre(_RAY_NODES)
    segments = list(zip((0.0, *_MEMBERSHIP_RADII), _MEMBERSHIP_RADII))
    rho = np.concatenate([a + (b - a) * s for a, b in segments])
    envs = [re_im_envelope(r) for r in _MEMBERSHIP_RADII]
    growth = [growth_envelope_starlike(make_spec("psi"), r) for r in _MEMBERSHIP_RADII]
    tables = (_powers(np.array(_MEMBERSHIP_RADII)[:, None] * circle, SAMPLE_ORDER)
              .reshape(-1, SAMPLE_ORDER + 1).T, _powers(circle[::_GROWTH_STRIDE], SAMPLE_ORDER),
              rho ** np.arange(SAMPLE_ORDER + 1)[:, None],
              np.concatenate([(b - a) / 2 * weights for a, b in segments]) / rho,
              *(np.array([env[key] for env in envs])[:, None] for key in ("reLo", "reHi", "imAbs")),
              *np.array(growth).T[:, :, None])
    for table in tables:
        table.flags.writeable = False  # shared by every call
    return tables


def _growth_modulus(coeffs: np.ndarray) -> np.ndarray:
    """|f(r e^(i theta))| = r exp(-integral_0^r log|1 + w(rho e^(i theta))|/rho drho) at the
    growth points by (row, radius, ray), for the coefficient rows ``coeffs``: w at all
    (ray, node) pairs is one product, and each segment's sum is taken in node order,
    not by a matrix product, then the segments' running sums give each radius."""
    rotations, powers, weights = _membership_tables()[1:4]
    u = (coeffs[:, None] * rotations) @ powers
    u += 1
    terms = np.log(np.abs(u))
    terms *= weights
    sums = np.add.accumulate(terms.reshape(*terms.shape[:2], -1, _RAY_NODES), axis=-1)[..., -1]
    exponent = np.cumsum(sums, axis=-1).swapaxes(1, 2)  # by (row, radius, ray)
    return np.array(_MEMBERSHIP_RADII)[:, None] * np.exp(-exponent)


_COEFF_KEYS = ("a2", "a3", "fekete_t1", "a4", "a2a3_a4", "a5", "h2_general", "h3")
#: psi's float coefficients 1, psi_1..psi_4, for the a_2..a_5 recurrence
_psi_coeffs = functools.cache(lambda: make_spec("psi").series(4, exact=False).coeffs)


@functools.cache
def _bound_row(alpha: float) -> tuple[float, ...]:
    """The ``_COEFF_KEYS`` bounds at ``alpha``; ``h2_general`` is second_hankel's."""
    frac = Fraction(alpha).limit_denominator(10**6)
    table = sl_bound_table(frac)
    table["h2_general"] = second_hankel(alpha_class_params(float(frac)), PSI_B).value
    return tuple(float(table[key]) for key in _COEFF_KEYS)


def verify_class_membership_bounds(
    sample_count: int = 200,
    seed: int = 42,
    alphas: Sequence[float] = (0.0, 0.5, 1.0),
    tol: float = 1e-6,
) -> MembershipReport:
    """Sample Schwarz functions, build class members, and check every bound.

    The Re/Im envelopes of z f'/f are checked pointwise through the generator
    (z f'/f = 1 - log(1 + w(z)) exactly); the growth envelope is checked on
    |f| evaluated by quadrature; the coefficient functionals are checked for
    each alpha against the closed-form table, with the second Hankel
    functional compared against the general three-case bound.

    The samples' coefficients are stacked as rows: w at the envelope points is
    one product of all rows with the points' powers, and |f| at the growth
    points is integrated once per ray by ``_growth_modulus``, in blocks of at
    most ``SLAB_POINTS`` (ray, node) pairs; it kept the 64-node value to 1.9e-15
    relative wherever measured. The envelope margins take log(1 + w) as log|1 + w| +
    i arg(1 + w), within ``_LOG_SLACK`` of np.log's, and np.log's own margins
    at the few points within twice that of a minimum or of the -tol verdict,
    so every output has np.log's bits on any numpy dispatch. Margins are
    reduced over all rows at once; the violation list is built only for the
    failing samples. ``seed`` is an int >= 0 and ``tol`` finite.
    """
    seed = _as_int(seed, "seed", 0)
    if not len(alphas):
        raise ValueError("alphas must hold at least one alpha")
    if not math.isfinite(tol):  # nan passes every point, +-inf passes or fails all
        raise ValueError(f"tol must be finite, got {tol!r}")
    coeffs, kinds = sample_suite(sample_count, seed)
    env_powers, rays, powers, _, re_lo_env, re_hi_env, im_env, growth_lo, growth_hi = _membership_tables()
    u = (coeffs @ env_powers).reshape(len(coeffs), len(_MEMBERSHIP_RADII), -1)
    u += 1
    # ratio = 1 - log(u) with log(u) = log|u| + i arg u, as the structural
    # quadrature takes it, at some 9 ns a point against numpy's careful complex log
    re = 1 - np.log(np.abs(u))
    re_lo = re - re_lo_env
    re_hi = re_hi_env - re
    im = im_env - np.abs(np.angle(u))
    env_worst = np.minimum(np.minimum(re_lo, re_hi), im)
    # each margin is within _LOG_SLACK of np.log's, so only the points within
    # twice that of a minimum or of the verdict can tell them apart: np.log(u)
    # gives those their margins again, and every output its bits
    near = np.abs(env_worst + tol) <= 2 * _LOG_SLACK
    for margin in (re_lo, re_hi, im):
        near |= margin <= margin.min() + 2 * _LOG_SLACK
    at = np.nonzero(near)
    ratio, r = 1 - np.log(u[at]), at[1]
    re_lo[at] = ratio.real - re_lo_env[r, 0]
    re_hi[at] = re_hi_env[r, 0] - ratio.real
    im[at] = im_env[r, 0] - np.abs(ratio.imag)
    env_worst[at] = np.minimum(np.minimum(re_lo[at], re_hi[at]), im[at])
    block = max(1, SLAB_POINTS // (len(rays) * powers.shape[1]))  # rows of (ray, node) pairs
    fv = np.concatenate([_growth_modulus(coeffs[lo : lo + block]) for lo in range(0, len(coeffs), block)])
    g_lo = fv - growth_lo
    g_hi = growth_hi - fv
    env_bad = (env_worst < -tol).sum(axis=-1)  # per (sample, r)
    growth_bad = (np.minimum(g_lo, g_hi) < -tol).sum(axis=-1)

    tables = [_bound_row(alpha) for alpha in alphas]  # the bounds per (alpha, key)
    h = [1 + k * np.array(alphas, dtype=float) for k in range(5)]  # h_1..h_5, d_n = (n - 1) h_n
    a = _class_coefficients(coeffs[:, :5], _psi_coeffs(), h[:4], [k * h[k] for k in range(1, 5)])
    a2, a3, a4, a5 = a
    a2_sq, a2_a3, a2_a4, a3_sq = _cmul(a[[0, 0, 0, 1]], a[[0, 1, 2, 1]])
    hankel = a2_a4 - a3_sq
    a3_hankel, a4_term, a5_term = _cmul(a[1:], np.stack((hankel, a4 - a2_a3, a3 - a2_sq)))
    h3 = a3_hankel - a4_term + a5_term
    values = np.stack((a2, a3, a3 - a2_sq, a4, a2_a3 - a4, a5, hankel, h3), axis=-1)
    # (sample, check), alpha-major; Python's abs(complex) is the hypot of the parts
    margins = (np.array(tables) - np.hypot(values.real, values.imag)).reshape(len(coeffs), -1)
    checks = [f"{key}@alpha={alpha}" for alpha in alphas for key in _COEFF_KEYS]
    coeff_bad = margins < -tol

    # one violation entry per failing point, in scan order: per failing
    # sample, for each radius the envelope points, then the growth points;
    # then the failing coefficient checks
    violations = []
    failing = env_bad.any(axis=1) | growth_bad.any(axis=1) | coeff_bad.any(axis=1)
    for idx in np.flatnonzero(failing).tolist():
        wheres = []
        for r, n_env, n_growth in zip(_MEMBERSHIP_RADII, env_bad[idx], growth_bad[idx]):
            wheres += [f"envelope r={r}"] * n_env + [f"growth r={r}"] * n_growth
        wheres += [checks[c] for c in np.flatnonzero(coeff_bad[idx])]
        violations.extend({"sample": idx, "kind": kinds[idx], "where": where} for where in wheres)

    return MembershipReport(
        samples=len(coeffs),
        seed=seed,
        worst_re_lo=float(re_lo.min()),
        worst_re_hi=float(re_hi.min()),
        worst_im=float(im.min()),
        worst_growth_lo=float(g_lo.min()),
        worst_growth_hi=float(g_hi.min()),
        coeff_margins=dict(zip(checks, margins.min(axis=0).tolist())),
        violations=violations,
    )


# -- Caratheodory lemma sweeps ---------------------------------------------------------
#
# Both sweeps cover the polar (p1, x) grid of :func:`polar_grid`, with p1 = t and
# s = 4 - t^2, and screen it in closed form. A screen bounds the swept
# expression from above; the expression runs on one ring or point where the
# maximum is likely and gives an attained value L, and then only where the
# screen reaches L less a slack, some 1e4 times the rounding of screen and
# expression. A point left out holds no value as large as L, so each maximum
# is the full sweep's to the bit, and as rounding is monotone, so is each
# violation, a maximum less its bound.


def _p2_ring_bound(v, t, rho):
    """max over phi of |p2 - v t^2| on the rings (t, rho) of p1 = t and |x| = rho.

    There p2 - v t^2 is c + (s/2) rho e^(i phi) with the real
    c = t^2 (1/2 - v), so the maximum is |c| + s rho / 2.
    """
    return np.abs(t * t * (0.5 - v)) + (4 - t * t) / 2 * rho


def lemma_p1p2_check(v: float, grid_density: int = 64) -> dict:
    """Sweep |p2 - v p1^2| against its three-branch bound and the refinements.

    A refinement adds w t^2 to the :func:`_p2_ring_bound` of each ring. For the
    plain value and each refinement, L is the expression's maximum on the ring
    of the largest bound, and the rings whose bound reaches L less the slack are
    kept; the expression runs on the union of the rings kept.
    """
    grid_density = check_density(grid_density)
    if not math.isfinite(4 * v):  # else the bound, 4|v| + 2 at most, overflows
        raise ValueError(f"v must be finite, as must 4 v; got {v!r}")
    if v <= 0:
        bound = -4 * v + 2
    elif v <= 1:
        bound = 2.0
    else:
        bound = 4 * v - 2
    weights = {}  # refinement: weight of |p1|^2 added to the left side
    if 0 < v <= 0.5:
        weights["refined1"] = v
    if 0.5 <= v < 1:
        weights["refined2"] = 1 - v
    p1, rho, _, x = polar_grid(2.0, grid_density)
    t = p1[:, :, 0]
    ring = _p2_ring_bound(v, t, rho[:, :, 0])

    def sweep(i, j):
        """Each report value on the rings (t[i], rho[j]), one row of phi per ring."""
        t_ = p1[i, 0]
        lhs = np.abs(_p2(t_, x[0, j]) - v * t_**2)
        return {"lhs": lhs} | {name: lhs + w * np.abs(t_) ** 2 for name, w in weights.items()}

    # Bounds and values act on magnitudes of at most m = 4|v| + 8 and round off
    # by some 1e-15 m. The largest bound is at least max(2, |4v - 2|) >= m/6,
    # and L at least cos(pi/d) > 0.99 of it, as the grid's phi come within pi/d
    # of the direction of c: the slack 1e-9 L dwarfs the rounding.
    keep = np.zeros(ring.shape, dtype=bool)
    for name, w in {"lhs": 0.0, **weights}.items():
        ring_bound = ring + w * t * t
        i, j = np.unravel_index(np.argmax(ring_bound), ring_bound.shape)
        top = float(sweep([i], [j])[name].max())
        keep |= ring_bound >= top - 1e-9 * top
    peaks = {key: values.max() for key, values in sweep(*keep.nonzero()).items()}
    report = {"v": v, "bound": float(bound), "max_lhs": float(peaks.pop("lhs"))}
    report["max_violation"] = float(report["max_lhs"] - bound)
    for name, peak in peaks.items():
        report[f"max_{name}"] = float(peak)
        report[f"max_violation_{name}"] = float(peak - 2)
    return report


def _cubic_rings(t, rho):
    """(P, Q, R, bump) of the cubic combination on the rings (t, rho), p1 = t, |x| = rho.

    The combination is A + bump y with A = a0 + a1 x + a2 x^2 for a0 = t^3/4,
    a1 = -t s/2, a2 = -t s/4 and bump = s (1 - rho^2)/2, and on each ring
    |A|^2 = P + Q cos(phi) + R cos(phi)^2.
    """
    s = 4 - t * t
    a0, a1, a2 = t**3 / 4, -t * s / 2, -t * s / 4
    r2 = rho * rho
    P = a0 * a0 + a1 * a1 * r2 + a2 * a2 * (r2 * r2) - 2 * a0 * a2 * r2
    Q = 2 * rho * a1 * (a0 + a2 * r2)
    R = 4 * a0 * a2 * r2
    return P, Q, R, s * (1 - r2) / 2


def _cubic_screen(P, Q, R, bump, c):
    """sqrt(P + Q c + R c^2 + 1e-12) + bump, an upper bound of |A| + bump at cos(phi) = c.

    For p1 in [0, 2] the terms of |A|^2 have moduli summing to less than 8, so
    the computed P + Q c + R c^2 is off |A|^2 by less than 1e-13, inside the
    1e-12 allowance: the screen is never below |A| + bump by more than its last
    roundings, some 1e-15. The allowance raises it by at most 1e-6, near A = 0.
    """
    q = (R * c + Q) * c + P
    return np.sqrt(np.maximum(q, 0) + 1e-12) + bump


def _vertex_cos(Q, R):
    """The c in [-1, 1] that maximizes P + Q c + R c^2: the vertex -Q/(2R),
    clipped, where R < 0, else the end sign(Q). Rounding moves c by some
    1e-14/|R| and so lowers the maximum by some 1e-28/|R|, never more than
    4|R|: less than 1e-13 either way."""
    return np.clip(np.divide(-Q, 2 * R, out=np.copysign(1.0, Q), where=R < 0), -1.0, 1.0)


def eq_p31_check(grid_density: int = 64) -> dict:
    """Sweep the cubic Caratheodory combination |p3 - 2 p1 p2 + p1^3| <= 2.

    The sweep covers the polar (p1, x) grid times 16 unimodular y. With
    p3 = base + bump y, the combination is A + bump y for the y-free
    A = base - 2 p1 p2 + p1^3, so |A| + bump bounds it over all y, and
    :func:`_cubic_screen` bounds that in real arithmetic. L is the largest
    value at p1 = 0, x = 0, where A = 0 and bump = 2, the bound itself: any
    grid point would do, and this one leaves the fewest points. The screen at
    each ring's maximizing cos(phi) drops the rings that fall short of L by the
    slack, the screen at each point of the rings left drops points, and the
    expression runs at all 16 y on the points left.

    The quartic combination involving p4 has no three-parameter formula, so
    it is checked on power-map samples w(z) = lam z^m where all p_k are
    available in closed form (p_k = 2 lam^(k/m) when m | k, else 0).
    """
    grid_density = check_density(grid_density)
    p1, rho, phi, x = polar_grid(2.0, grid_density)
    ys = np.exp(1j * np.linspace(0.0, 2 * np.pi, 16, endpoint=False))

    def cubic(i, j, m):
        """The values at the grid points (p1[i], x[j, m]), one row of 16 y each."""
        t = p1[i, 0]
        p2, base, bump = _p2_p3(t, x[0, j, m][:, None])
        return np.abs(base + bump * ys - 2 * t * p2 + t**3)

    # each value acts on magnitudes of at most 40 and rounds off by less than
    # 1e-13, and no screen falls below |A| + bump by 1e-14: a point whose screen
    # falls short of L by the 1e-9 slack holds no value as large as L
    cut = cubic([0], [0], [0]).max() - 1e-9
    P, Q, R, bump = _cubic_rings(p1[:, :, 0], rho[:, :, 0])
    i, j = (_cubic_screen(P, Q, R, bump, _vertex_cos(Q, R)) >= cut).nonzero()
    on_rings = (a[i, j, None] for a in (P, Q, R, bump))
    k, m = (_cubic_screen(*on_rings, np.cos(phi[0, 0])) >= cut).nonzero()
    max_cubic = cubic(i[k], j[k], m).max()
    worst_quartic = _max_quartic_on_power_maps()
    return {
        "max_cubic": float(max_cubic),
        "max_violation_cubic": float(max_cubic - 2),  # monotone rounding: to the bit
        "max_quartic_on_power_maps": worst_quartic,
        "max_violation_quartic": worst_quartic - 2,
    }


@functools.cache
def _max_quartic_on_power_maps() -> float:
    """max |p1^4 - 3 p1^2 p2 + p2^2 + 2 p1 p3 - p4| over 480 power maps lam z^m.

    The samples take no input, so the value is computed once per process.
    """
    worst = 0.0
    for m in (1, 2, 3, 4):
        for lam_abs in np.linspace(0.1, 1.0, 10).tolist():
            for lam_arg in np.linspace(0, 2 * math.pi, 12, endpoint=False).tolist():
                lam = lam_abs * cmath.exp(1j * lam_arg)
                p = [2 * lam ** (k // m) if k % m == 0 else 0.0 for k in range(1, 5)]
                q = p[0] ** 4 - 3 * p[0] ** 2 * p[1] + p[1] ** 2 + 2 * p[0] * p[2] - p[3]
                worst = max(worst, abs(q))
    return worst


# -- Bloch norm -----------------------------------------------------------------------


def bloch_norm_estimate(omega: np.ndarray, grid_size: int = 256, radial_count: int = 128) -> float:
    """sup of (1 - |z|^2) |f'(z)| for the class member f that the row ``omega`` induces.

    The polar grid has ``radial_count`` radii from 0 to 0.999, ends included,
    and ``grid_size`` angles, both ints. f' comes from the structural formula
    (exact pointwise, no truncation) on (radius, angle) blocks of whole circles,
    at most ``SLAB_POINTS`` (point, node) pairs or one circle each, which give
    every circle the bits of a call on that circle alone. Its 64 nodes are not
    enough at the rim: on the benchmark's 25 Bloch samples f' differs from
    256 nodes by up to 1.1e-15 relative at r = 0.9, 3.2e-14 at 0.99 and 4.7e-7
    at 0.999.
    """
    radial_count = _as_int(radial_count, "radial_count", 2)
    grid_size = _as_int(grid_size, "grid_size", 1)
    circle = _circle(grid_size)
    radii = np.linspace(0.0, 0.999, radial_count)[:, None]
    block = max(1, SLAB_POINTS // (grid_size * _gauss_legendre()[0].size))
    best = 0.0
    for r in np.split(radii, range(block, radial_count, block)):
        damped = (1 - r * r) * np.abs(structural_deriv(omega, r * circle))
        best = max(best, *damped.max(axis=1).tolist())  # a nan circle is skipped
    return best


def bloch_class_envelope() -> dict:
    """Maximum of (1-r^2)(1 - log(1-r)) over [0,1) and its stationary radius.

    This is the envelope of the damped generator modulus over the class: it
    bounds (1-|z|^2)|q(z)| for the generator values q = z f'/f, but not
    (1-|z|^2)|f'(z)| itself: the structural extremal exceeds it (see
    :func:`bloch_seminorm_bound` for a valid envelope and the test-suite
    witness).  The stationary radius r0 is the root of the log-derivative's
    numerator 1 - r + 2 r log(1-r) by :func:`bisect_root`, as for the valid
    envelope; ``grid_argmax``, the best of 200,001 radii, is its grid oracle.
    """
    r0 = bisect_root(lambda r: 1 - r + 2 * r * math.log(1 - r), 0.2, 0.7, "bloch_r0").root
    value = (1 - r0 * r0) * (1 - math.log(1 - r0))
    grid = np.linspace(0.0, 0.999, 200001)
    genv = (1 - grid**2) * (1 - np.log1p(-grid))
    grid_argmax = float(grid[int(np.argmax(genv))])
    return {"r0": r0, "value": value, "grid_argmax": grid_argmax}


def _seminorm_slope(r: float) -> float:
    """L'(r) for L = log[(1-r^2)(1 - log(1-r)) exp Li2(r)], using Li2'(r) = -log(1-r)/r."""
    log1 = math.log1p(-r)
    return -2 * r / (1 - r * r) + 1 / ((1 - r) * (1 - log1)) - log1 / r


def bloch_seminorm_bound() -> dict:
    """Valid class-wide envelope for (1-|z|^2)|f'(z)| and its maximum.

    |f'(z)| = |f(z)/z| |q(z)| with the growth bound |f/z| <= exp(Li2(r))
    and max |q| = 1 - log(1-r) on |z| = r, so the seminorm never exceeds
    max_r (1-r^2)(1 - log(1-r)) exp(Li2(r)).  The structural extremal
    attains the inner product at negative real z, so the bound is sharp.
    L' = :func:`_seminorm_slope` falls through zero once on (0, 1), from
    L'(1/2) = 1.23 to L'(0.9) = -3.89, so ``r_star`` is its root by
    :func:`bisect_root` on [1/2, 0.9] and ``value`` the maximum there, from
    one :func:`_li2` call.
    """
    r = bisect_root(_seminorm_slope, 0.5, 0.9, "bloch_r_star").root
    value = (1 - r * r) * (1 - math.log1p(-r)) * math.exp(_li2(complex(r)).real)
    return {"r_star": r, "value": value}


# -- further counterexamples and identities ----------------------------------------------


_LI2_TERMS = tuple(float(Fraction(b) / math.factorial(2 * n + 1)) for n, b in enumerate((
    "1/6 -1/30 1/42 -1/30 5/66 -691/2730 7/6 -3617/510 43867/798 -174611/330 854513/138 "
    "-236364091/2730").split(), start=1))[::-1]


def _li2(w: complex) -> complex:
    """Li2(w) = sum_k w^k / k^2 for |w| <= 1 on a Python complex, to 1e-15 relative.

    For Re w <= 1/2, the Bernoulli series u - u^2/4 + sum_n B_2n u^(2n+1)/(2n+1)! in
    u = -log(1 - w) ('t Hooft and Veltman, Nucl. Phys. B153, 1979), by Horner in u^2 to
    n = 12: as |u| <= pi/3 the rest is below 1e-20 of the sum. The factor w / (1 - (1 - w))
    keeps a tiny w's digits in u. Re w > 1/2 reflects: pi^2/6 - log w log(1 - w) - Li2(1 - w).
    """
    if w.real > 0.5:
        if w == 1:
            return complex(math.pi**2 / 6)
        return math.pi**2 / 6 - cmath.log(w) * cmath.log(1 - w) - _li2(1 - w)
    v = 1 - w
    u = w if v == 1 else -cmath.log(v) * (w / (1 - v))
    t = u * u
    acc = 0.0
    for c in _LI2_TERMS:
        acc = acc * t + c
    return u + u * t * acc - t / 4


def vector_space_counterexample(scan_density: int = 360) -> dict:
    """Failure of additivity: the sum of two class members leaves the class.

    With generators w1 = z and w2 = z^2 the sum z(e^A + e^B) would need the
    Schwarz datum w = exp(-z(A'e^A + B'e^B)/(e^A + e^B)) - 1.  Both that
    normalized transform (which satisfies w(0) = 0) and the flattened
    variant exp(-z(A'e^A + B'e^B))/(e^A + e^B) - 1 (which attains the
    reference witness modulus at z0 = -(1/2 + 2i/3)) are evaluated; the
    normalized transform exceeds modulus 1 elsewhere in the disk, which is
    what refutes closedness under addition.

    ``scan_density`` (an int >= 1) angles per scan radius. The exponents Li2(-z)
    and Li2(-z^2)/2 come from :func:`_li2` point by point; the rest is one array pass.
    """
    scan_density = _as_int(scan_density, "scan_density", 1)
    z0 = -(0.5 + 2j / 3)
    scan = np.array([[0.7], [0.85], [0.95], [0.985]]) * _circle(scan_density)
    z = np.concatenate([scan.ravel(), [z0, 0]])
    z2 = z * z
    e_a = np.exp([_li2(-w) for w in z.tolist()])
    e_b = np.exp(np.array([_li2(-w) for w in z2.tolist()]) / 2)
    num = np.log(1 + z) * e_a + np.log(1 + z2) * e_b
    den = e_a + e_b
    normalized = np.exp(num / den) - 1
    flattened_z0 = np.exp(num[-2]) / den[-2] - 1

    scan_abs = np.abs(normalized[: scan.size])
    i = int(np.argmax(scan_abs))  # first maximum in (radius, angle) scan order
    max_abs = float(scan_abs[i])
    return {
        "z0": z0,
        "omega_abs_at_z0": float(abs(flattened_z0)),
        "normalized_abs_at_z0": float(abs(normalized[-2])),
        "omega_at_0": complex(normalized[-1]),
        "normalized_max_abs": max_abs,
        "normalized_argmax": complex(scan.flat[i]),
        "exceeds_unit_disk": max_abs > 1,
    }


def _psi_blend(lam: float, m: int, n: int, order: int) -> TruncatedSeries:
    """lam psi(z^n) + (1-lam) psi(z^m) to ``order``, psi = 1 - log(1+z).

    psi(z^p) is psi's coefficients spread p apart: the values of the float
    composition of psi with z^p, without its Horner loop of Cauchy products.
    """
    psi = make_spec("psi").series(order).coeffs

    def at_power(p: int) -> TruncatedSeries:
        out = [0.0] * (order + 1)
        out[::p] = psi[: order // p + 1]
        return TruncatedSeries(out)

    return lam * at_power(n) + (1 - lam) * at_power(m)


@functools.lru_cache(maxsize=64)
def _rim_psi(p: int) -> tuple[complex, ...]:
    """psi(z^p) = 1 - log(1 + z^p) at the 256 points z of the circle |z| = 0.99 that
    :func:`lambda_combination_check` scans, one read-only tuple per power p."""
    rim = (0.99 * cmath.exp(2j * math.pi * j / 256) for j in range(256))
    return tuple(1 - cmath.log(1 + z**p) for z in rim)


def lambda_combination_check(lam: float, m: int, n: int, order: int = 48) -> dict:
    """Blended generator membership: the z exp(...) construction stays in class.

    Builds g = z exp(alpha) with
    alpha = (1-lam)/m * sum_k (-z^m)^k/k^2 + lam/n * sum_k (-z^n)^k/k^2,
    verifies z g'/g = lam (1 - log(1+z^n)) + (1-lam)(1 - log(1+z^m)) as a
    series identity, and reports ``worst_margin``, how deep inside the image
    region the blend stays on 256 points of the circle of radius 0.99.
    log(1+z) is convex univalent, so psi(D) is convex and ``all_inside`` is
    True for every accepted input; it stays because the benchmark's
    ``series-build`` digest reads it.
    """
    # 2.5 or True would index another power
    m, n, order = (_as_int(value, name, 1) for name, value in (("m", m), ("n", n), ("order", order)))
    if not 0 <= lam <= 1:
        raise ValueError("lambda must lie in [0, 1]")
    coeffs = [0.0] * (order + 1)
    for p, weight in ((m, 1 - lam), (n, lam)):
        for k in range(1, order // p + 1):
            coeffs[p * k] += weight / p * (-1) ** k / k**2
    alpha_series = TruncatedSeries(coeffs)
    u = alpha_series.exp(order)
    g = u.padded(order - 1).shifted(1)

    # series identity: z g'/g = (u + z u') / u for g = z u
    ratio = (u + u.derivative().shifted(1).padded(order)).divide(u, order)
    blend = _psi_blend(lam, m, n, order)
    max_coeff_err = max(
        abs(complex(ratio[k]) - complex(blend[k])) for k in range(order + 1)
    )

    # w is in the image region iff |exp(1 - w) - 1| < 1, that is iff its
    # margin 1 - |exp(1 - w) - 1| is positive (exactly so in floats)
    worst_margin = math.inf
    for psi_n, psi_m in zip(_rim_psi(n), _rim_psi(m)):
        w = lam * psi_n + (1 - lam) * psi_m
        worst_margin = min(worst_margin, 1 - abs(cmath.exp(1 - w) - 1))
    return {
        "lambda": lam,
        "m": m,
        "n": n,
        "series_identity_error": max_coeff_err,
        "all_inside": worst_margin > 0,
        "worst_margin": worst_margin,
        "g_series": g,
    }
