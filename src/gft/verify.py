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

from .bounds import (
    SLAB_POINTS,
    ClassParams,
    PhiCoeffs,
    alpha_class_params,
    _a4,
    _p3_free_coeffs,
    grid_then_polish,
    polar_grid,
    polar_slabs,
    second_hankel,
    sl_bound_table,
)
from .catalog import make_spec
# conjecture_check and t_series are re-exported
from .extremal import conjecture_check, growth_envelope_starlike, t_series
from .radius import bisect_root, re_im_envelope
from .series import TruncatedSeries

__all__ = [
    "SchwarzSample",
    "CaratheodoryPoint",
    "caratheodory_point",
    "schur_parameters",
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


_BOUNDARY_CIRCLE = _circle(BOUNDARY_GRID)  # random polynomials' sup; boundary_sup at 0.999


def _like(z, values: np.ndarray):
    """``values`` as a Python complex when the input point ``z`` was a scalar."""
    return complex(values) if np.ndim(z) == 0 else values


# -- Schwarz samples -------------------------------------------------------------


@dataclass(frozen=True)
class SchwarzSample:
    """A polynomial self-map of the disk with w(0) = 0."""

    series: TruncatedSeries
    kind: str

    def __call__(self, z):
        return self.series(z)

    def boundary_sup(self) -> float:
        """max |w| on BOUNDARY_GRID points of the circle of radius 0.999."""
        return float(np.abs(self.series(0.999 * _BOUNDARY_CIRCLE)).max())


def _mobius_series(eta: float) -> TruncatedSeries:
    """z (z + eta)/(1 + eta z) = eta z + sum_{k>=2} (1 - eta^2) (-eta)^(k-2) z^k."""
    row = np.zeros(SAMPLE_ORDER + 1)
    row[1] = eta
    row[2:] = (1 - eta * eta) * (-eta) ** np.arange(SAMPLE_ORDER - 1)
    return TruncatedSeries(row.tolist())


def _blaschke_series(zeros: Sequence[complex], scale: float) -> TruncatedSeries:
    """scale z prod (a - z)/(1 - conj(a) z) to SAMPLE_ORDER; a factor's
    coefficients are a, then -(1 - |a|^2) conj(a)^(k-1) for k >= 1."""
    row = np.zeros(SAMPLE_ORDER + 1, dtype=complex)
    row[1] = scale
    for a in zeros:
        factor = np.append(a, -(1 - abs(a) ** 2) * np.conj(a) ** np.arange(SAMPLE_ORDER))
        row = np.convolve(row, factor)[: SAMPLE_ORDER + 1]
    return TruncatedSeries(row.tolist())


# the params keys each sample kind reads (m defaults to 1, eta to 0.5); any
# other key is rejected, and the two random kinds draw from the seed alone
_SAMPLE_KEYS = {"monomial": {"m"}, "mobius_eta": {"eta"},
                "scaled_blaschke": set(), "random_poly_normalized": set()}


def sample_schwarz(kind: str, params: dict | None = None, seed: int = 0) -> SchwarzSample:
    """Deterministic Schwarz-function sample of the requested kind."""
    if kind not in _SAMPLE_KEYS:
        raise ValueError(f"unknown Schwarz sample kind {kind!r}")
    params = params or {}
    unread = sorted(set(params) - _SAMPLE_KEYS[kind])
    if unread:
        raise ValueError(f"Schwarz sample kind {kind!r} reads no params key {', '.join(unread)}")
    if kind == "monomial":
        m = int(params.get("m", 1))
        if m < 1:
            raise ValueError("monomial exponent must be >= 1")
        series = TruncatedSeries([0] * m + [1]).padded(max(SAMPLE_ORDER, m))
    elif kind == "mobius_eta":
        eta = float(params.get("eta", 0.5))
        if not 0 <= eta <= 1:
            raise ValueError("eta must lie in [0, 1]")
        series = _mobius_series(eta)
    elif kind == "scaled_blaschke":
        rng = np.random.default_rng(seed)
        # modest zero radii keep the series truncation far below the
        # boundary-sup headroom of the closed disk of radius 0.999
        radii = rng.uniform(0.1, 0.6, 2)
        angles = rng.uniform(0, 2 * math.pi, 2)
        zeros = [r * cmath.exp(1j * t) for r, t in zip(radii, angles)]
        series = _blaschke_series(zeros, float(rng.uniform(0.5, 0.95)))
    else:
        rng = np.random.default_rng(seed)
        row = np.zeros(SAMPLE_ORDER + 1, dtype=complex)
        row[1:9] = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        sup = float(np.abs(np.polyval(row[8::-1], _BOUNDARY_CIRCLE)).max())
        row *= 1.0 / (SCHWARZ_SAFETY * sup)
        series = TruncatedSeries(row.tolist())
    return SchwarzSample(series, kind)


def sample_suite(count: int, seed: int = 42) -> list[SchwarzSample]:
    """A deterministic mix of sample kinds, extremal witnesses first.

    Moebius eta = 0 and eta = 1 reproduce the monomials z^2 and z; they stay
    because the benchmark's 24-sample membership digests pin this list.
    """
    if count < 1:
        raise ValueError(f"sample count must be at least 1, got {count}")
    samples: list[SchwarzSample] = []
    for m in (1, 2, 3, 4):
        samples.append(sample_schwarz("monomial", {"m": m}))
    for eta in (0.0, 0.25, 0.5, 0.75, 1.0):
        samples.append(sample_schwarz("mobius_eta", {"eta": eta}))
    i = 0
    while len(samples) < count:
        kind = "scaled_blaschke" if i % 3 == 2 else "random_poly_normalized"
        samples.append(sample_schwarz(kind, None, seed=seed + i))
        i += 1
    return samples[:count]


# -- structural evaluation ----------------------------------------------------------
#
# Each function takes one point or an array of points. A scalar gives a Python
# complex; an array gives a complex array of its shape.

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(64)
_GL_S = 0.5 * (_GL_NODES + 1.0)  # nodes mapped to [0, 1]: t = s z, dt = z ds


def _powers(z: np.ndarray, n: int) -> np.ndarray:
    """z^0..z^n along a new last axis, by running products."""
    out = np.ones(z.shape + (n + 1,), dtype=complex)
    out[..., 1:] = z[..., None]
    return np.multiply.accumulate(out, axis=-1, out=out)


def _log_ratio_integral(coeffs: np.ndarray, z: np.ndarray) -> np.ndarray:
    """integral_0^z -log(1 + w(t))/t dt by 64-point Gauss-Legendre quadrature.

    w has the coefficient rows ``coeffs`` (..., N+1), broadcast against the
    points ``z``. In s the integrand is -log(1 + w(s z))/s, with
    w(s z) = sum_k (c_k z^k) s^k at all (point, node) pairs one product with
    the node powers s_j^k, k <= N; log(1 + w) is log|1 + w| + i arg(1 + w).
    """
    n = coeffs.shape[-1]
    u = (coeffs * _powers(z, n - 1)) @ _GL_S ** np.arange(n)[:, None]
    u += 1
    # -log(u)/s in place of u: u / -s rounds as -u / s does
    log_abs = np.log(np.abs(u))
    u.imag = np.angle(u)
    u.real = log_abs
    u /= -_GL_S
    return 0.5 * (u @ _GL_WEIGHTS)


def structural_eval(omega: SchwarzSample, z):
    """f(z) = z exp(integral (q-1)/t dt) with q = 1 - log(1 + omega)."""
    za = np.asarray(z, dtype=complex)
    return _like(z, za * np.exp(_log_ratio_integral(np.asarray(omega.series.coeffs, complex), za)))


def structural_deriv(omega: SchwarzSample, z):
    """f'(z) = f(z) q(z) / z, computed as exp(integral (q-1)/t dt) q(z).

    Exact in terms of the structural formula; the form without the division
    by z also holds at z = 0 and does not overflow for a subnormal z.
    """
    za = np.asarray(z, dtype=complex)
    q = 1 - np.log(1 + omega(za))
    return _like(z, structural_deriv_convex(omega, za) * q)


def structural_deriv_convex(omega: SchwarzSample, z):
    """f'(z) = exp(integral (q-1)/t dt): derivative of the convex-side member."""
    za = np.asarray(z, dtype=complex)
    return _like(z, np.exp(_log_ratio_integral(np.asarray(omega.series.coeffs, complex), za)))


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


# -- second-Hankel brute force ------------------------------------------------------


def _float_params(params: ClassParams) -> ClassParams:
    return ClassParams(*(float(getattr(params, f)) for f in ("g2", "g3", "g4", "h2", "h3", "h4")))


def _hankel_halves(params: ClassParams, coeffs, p1, x):
    """|a2 a4 - a3^2| split as E0 + E1*y (affine in the free parameter y).

    a2, a3 and the p3-free part of a4 are computed once and a4 is completed
    at p3 = base and at p3 = base + bump.  That is the expression tree of two
    :func:`caratheodory_to_coeffs` calls with their shared subexpressions
    evaluated once, so E0 and E1 keep the bits of the two calls.
    """
    p2, base, bump = _p2_p3(p1, x)
    a2, a3, head, tail = _p3_free_coeffs(params, coeffs, p1, p2)
    a4_0 = _a4(params, coeffs, head, tail, base)
    a4_1 = _a4(params, coeffs, head, tail, base + bump)
    e0 = a2 * a4_0 - a3**2
    e1 = a2 * (a4_1 - a4_0)
    return e0, e1


def maximize_second_hankel_oracle(params: ClassParams, b, density: int = 64) -> float:
    """Lower bound for sup |a2 a4 - a3^2| over the class, by grid + polish.

    The grid covers p1 in [0,2] and x in the closed unit disk; the third
    parameter is maximized in closed form (the functional is affine in it).
    ``b`` is a :class:`PhiCoeffs` or a plain coefficient triple.
    """
    if density < 32:
        raise ValueError("density must be at least 32")
    fp = _float_params(params)
    if isinstance(b, PhiCoeffs):
        b = (b.b1, b.b2, b.b3)
    coeffs = tuple(float(c) for c in b)

    def on_grid(p1, x):
        e0, e1 = _hankel_halves(fp, coeffs, p1 + 0j, x)
        return np.abs(e0) + np.abs(e1)

    def neg(v):
        p = min(max(v[0], 0.0), 2.0)
        r = min(max(v[1], 0.0), 1.0)
        e0_, e1_ = _hankel_halves(fp, coeffs, complex(p), r * cmath.exp(1j * v[2]))
        return -(abs(e0_) + abs(e1_))

    return float(grid_then_polish(on_grid, neg, 2.0, density, 1e-10, 1e-13)[0])


# -- class-membership sampling -------------------------------------------------------


def _cmul(a, b):
    """a * b rounded as Python rounds a complex product, part by part; numpy
    may fuse the multiply-adds of its own product and round differently."""
    return a.real * b.real - a.imag * b.imag + 1j * (a.real * b.imag + a.imag * b.real)


def _class_coefficients(omega4: np.ndarray, alphas: np.ndarray) -> list[np.ndarray]:
    """a_2..a_5 of the class members, one row per sample and one column per alpha.

    ``omega4`` holds w_0 = 0, w_1..w_4 of each Schwarz sample. q = psi(omega)
    takes the Horner steps of :meth:`TruncatedSeries.compose` and the sum
    order of :meth:`TruncatedSeries.mul`, then a_n (n-1) h_n =
    sum_{m<n} a_m h_m q_{n-m} with h_m = 1 + (m-1) alpha. Each step rounds as
    Python does on one sample's complex scalars, keeping the bits of that route.
    """
    psi = make_spec("psi").series(4, exact=False).coeffs
    q = np.zeros_like(omega4)
    q[:, 0] = psi[4]
    for c in reversed(psi[:4]):
        # coefficient n of q * omega is sum_{j<n} q_j w_{n-j}, in order of j
        acc = _cmul(q[:, :1], omega4[:, 1:])
        for j in range(1, 4):
            acc[:, j:] += _cmul(q[:, j : j + 1], omega4[:, 1 : 5 - j])
        q[:, 0], q[:, 1:] = c, acc
    h = [1 + (m - 1) * alphas for m in range(1, 6)]
    a = [np.ones((len(omega4), len(alphas)), dtype=complex)]
    for n in range(2, 6):
        acc = 0
        for m in range(1, n):
            acc = acc + _cmul(a[m - 1] * h[m - 1], q[:, n - m, None])
        d = (n - 1) * h[n - 1]
        a.append(acc.real / d + 1j * (acc.imag / d))  # as Python; numpy multiplies by 1/d
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


_MEMBERSHIP_RADII = (0.3, 0.6, 0.9)
_MEMBERSHIP_ANGLES = 64
_GROWTH_STRIDE = 8  # growth is checked at every 8th envelope angle


@functools.cache
def _growth_reference() -> tuple[tuple[float, float], ...]:
    """(t(r), -t(-r)) per membership radius, t the order-200 structural function."""
    psi = make_spec("psi")  # order 200 controls the r=0.9 tail
    return tuple(growth_envelope_starlike(psi, r) for r in _MEMBERSHIP_RADII)


_COEFF_KEYS = ("a2", "a3", "fekete_t1", "a4", "a2a3_a4", "a5", "h2_general", "h3")


@functools.cache
def _bound_row(alpha: float) -> tuple[float, ...]:
    """The ``_COEFF_KEYS`` bounds at ``alpha``; ``h2_general`` is second_hankel's."""
    frac = Fraction(alpha).limit_denominator(10**6)
    table = sl_bound_table(frac)
    table["h2_general"] = second_hankel(
        alpha_class_params(float(frac)), PhiCoeffs(1.0, 0.5, 1.0 / 3.0)
    ).value
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

    The samples' coefficients are stacked as rows and checked in blocks of
    rows: w at the envelope points is one product with the points' powers,
    and a block's growth quadrature holds at most ``SLAB_POINTS`` (point,
    node) pairs. Only the violation list is built sample by sample.
    """
    samples = sample_suite(sample_count, seed=seed)
    coeffs = np.array([omega.series.coeffs for omega in samples], dtype=complex)
    # one row per radius: envelope points, growth points and their bounds
    radii = np.array(_MEMBERSHIP_RADII)[:, None]
    z_env = radii * _circle(_MEMBERSHIP_ANGLES)
    z_growth = z_env[:, ::_GROWTH_STRIDE]
    env_powers = _powers(z_env, coeffs.shape[1] - 1).reshape(-1, coeffs.shape[1]).T
    envs = [re_im_envelope(r) for r in _MEMBERSHIP_RADII]
    re_lo_env, re_hi_env, im_env = (
        np.array([env[key] for env in envs])[:, None] for key in ("reLo", "reHi", "imAbs")
    )
    growth_lo, growth_hi = np.array(_growth_reference()).T[:, :, None]
    worst = dict.fromkeys(("re_lo", "re_hi", "im", "g_lo", "g_hi"), math.inf)
    env_bad, growth_bad = [], []  # failing points per (sample, radius)
    block = max(1, SLAB_POINTS // (z_growth.size * _GL_S.size))
    for lo in range(0, len(samples), block):
        rows = coeffs[lo : lo + block]
        ratio = 1 - np.log(1 + (rows @ env_powers).reshape((-1,) + z_env.shape))
        re_lo = ratio.real - re_lo_env
        re_hi = re_hi_env - ratio.real
        im = im_env - np.abs(ratio.imag)
        fv = np.abs(z_growth * np.exp(_log_ratio_integral(rows[:, None, None, :], z_growth)))
        g_lo = fv - growth_lo
        g_hi = growth_hi - fv
        for key, margin in (("re_lo", re_lo), ("re_hi", re_hi), ("im", im),
                            ("g_lo", g_lo), ("g_hi", g_hi)):
            worst[key] = min(worst[key], float(margin.min()))
        env_bad.extend((np.minimum(np.minimum(re_lo, re_hi), im) < -tol).sum(axis=-1))
        growth_bad.extend((np.minimum(g_lo, g_hi) < -tol).sum(axis=-1))

    tables = [_bound_row(alpha) for alpha in alphas]  # the bounds per (alpha, key)
    a2, a3, a4, a5 = _class_coefficients(coeffs[:, :5], np.array(alphas, dtype=float))
    a2_sq, a2_a3 = _cmul(a2, a2), _cmul(a2, a3)
    hankel = _cmul(a2, a4) - _cmul(a3, a3)
    h3 = _cmul(a3, hankel) - _cmul(a4, a4 - a2_a3) + _cmul(a5, a3 - a2_sq)
    values = np.stack((a2, a3, a3 - a2_sq, a4, a2_a3 - a4, a5, hankel, h3), axis=-1)
    # (sample, check), alpha-major; Python's abs(complex) is the hypot of the parts
    margins = (np.array(tables) - np.hypot(values.real, values.imag)).reshape(len(samples), -1)
    checks = [f"{key}@alpha={alpha}" for alpha in alphas for key in _COEFF_KEYS]
    coeff_bad = [[] for _ in samples]
    for idx, c in zip(*np.nonzero(margins < -tol)):
        coeff_bad[idx].append(checks[c])

    # one violation entry per failing point, in scan order: per sample, for
    # each radius the envelope points, then the growth points; then the
    # failing coefficient checks
    violations = []
    for idx, omega in enumerate(samples):
        wheres = []
        for r, n_env, n_growth in zip(_MEMBERSHIP_RADII, env_bad[idx], growth_bad[idx]):
            wheres += [f"envelope r={r}"] * n_env + [f"growth r={r}"] * n_growth
        violations.extend(
            {"sample": idx, "kind": omega.kind, "where": where} for where in wheres + coeff_bad[idx]
        )

    return MembershipReport(
        samples=sample_count,
        seed=seed,
        worst_re_lo=worst["re_lo"],
        worst_re_hi=worst["re_hi"],
        worst_im=worst["im"],
        worst_growth_lo=worst["g_lo"],
        worst_growth_hi=worst["g_hi"],
        coeff_margins=dict(zip(checks, margins.min(axis=0).tolist())),
        violations=violations,
    )


# -- Caratheodory lemma sweeps ---------------------------------------------------------


def lemma_p1p2_check(v: float, grid_density: int = 64) -> dict:
    """Sweep |p2 - v p1^2| against its three-branch bound and the refinements.

    Each slab of the polar grid contributes its own maxima; a maximum of
    maxima is the maximum, so the report holds the bits of a full sweep.
    """
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
    p1, _, _, x = polar_grid(2.0, grid_density)
    peaks = {}
    for rows in polar_slabs(grid_density):
        t = p1[rows]
        lhs = np.abs(_p2(t, x) - v * t**2)
        slab = {"max_lhs": lhs.max(), "max_violation": (lhs - bound).max()}
        for name, weight in weights.items():
            refined = lhs + weight * np.abs(t) ** 2
            slab[f"max_{name}"] = refined.max()
            slab[f"max_violation_{name}"] = (refined - 2).max()
        for key, peak in slab.items():
            peaks[key] = max(peaks.get(key, peak), peak)
    return {"v": v, "bound": float(bound)} | {k: float(peak) for k, peak in peaks.items()}


def eq_p31_check(grid_density: int = 64) -> dict:
    """Sweep the cubic Caratheodory combination |p3 - 2 p1 p2 + p1^3| <= 2.

    The sweep covers the polar (p1, x) grid times 16 unimodular y. With
    p3 = base + bump y, the combination is A + bump y for the y-free
    A = base - 2 p1 p2 + p1^3, so |A| + bump bounds it over all y. The grid
    is swept in :func:`polar_slabs`, with a running lower bound L: the
    largest value at the first y seen so far. In each slab only the points
    with |A| + bump >= L - 1e-9 are evaluated at all 16 y, by the same
    expression as the full sweep. L never exceeds its final value, the
    largest value at the first y over the whole grid, so the evaluated points
    include every point of a pruning by that final value: the point attaining
    it, and every point that can reach the maximum. Any point left out has
    all 16 values below the final L, and the maximum is the full sweep's to
    the bit.

    The quartic combination involving p4 has no three-parameter formula, so
    it is checked on power-map samples w(z) = lam z^m where all p_k are
    available in closed form (p_k = 2 lam^(k/m) when m | k, else 0).
    """
    p1, _, _, x = polar_grid(2.0, grid_density)
    x = x[..., None]
    ys = np.exp(1j * np.linspace(0.0, 2 * np.pi, 16, endpoint=False))
    lower = max_cubic = max_violation = -math.inf
    for rows in polar_slabs(grid_density):
        t = p1[rows][..., None]
        p2, base, bump = _p2_p3(t, x)
        two_p1_p2 = 2 * t * p2
        p1_cubed = np.broadcast_to(t**3, p2.shape)

        def cubic(at, y):
            return np.abs(base[at] + bump[at] * y - two_p1_p2[at] + p1_cubed[at])

        lower = max(lower, cubic(..., ys[0]).max())
        # The few operations behind |A| + bump and behind each computed
        # |A + bump y| act on magnitudes of at most 40, so each rounds off by
        # less than 1e-13: a point whose bound falls short of L by the 1e-9
        # slack holds no value as large as L, let alone the maximum.
        keep = np.abs(base - two_p1_p2 + p1_cubed) + bump >= lower - 1e-9
        if keep.any():
            values = cubic(tuple(i[:, None] for i in keep.nonzero()), ys)  # (survivor, y)
            max_cubic = max(max_cubic, values.max())
            max_violation = max(max_violation, (values - 2).max())
    report = {
        "max_cubic": float(max_cubic),
        "max_violation_cubic": float(max_violation),
    }
    worst_quartic = _max_quartic_on_power_maps()
    report["max_quartic_on_power_maps"] = worst_quartic
    report["max_violation_quartic"] = worst_quartic - 2
    return report


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


def bloch_norm_estimate(omega: SchwarzSample, grid_size: int = 256, radial_count: int = 128) -> float:
    """sup of (1 - |z|^2) |f'(z)| for the class member f that ``omega`` induces.

    The polar grid has ``radial_count`` radii from 0 to 0.999, ends included,
    and ``grid_size`` angles. f' comes from the structural formula (exact
    pointwise, no truncation). Each radius circle is evaluated as one array,
    so memory stays at one circle's worth.
    """
    if radial_count < 2:
        raise ValueError(f"radial_count must be at least 2, got {radial_count}")
    if grid_size < 1:
        raise ValueError(f"grid_size must be at least 1, got {grid_size}")
    circle = _circle(grid_size)
    best = 0.0
    for r in np.linspace(0.0, 0.999, radial_count):
        best = max(best, float(((1 - r * r) * np.abs(structural_deriv(omega, r * circle))).max()))
    return best


def bloch_class_envelope() -> dict:
    """Maximum of (1-r^2)(1 - log(1-r)) over [0,1) and its stationary radius.

    This is the envelope of the damped generator modulus over the class: it
    bounds (1-|z|^2)|q(z)| for the generator values q = z f'/f, but not
    (1-|z|^2)|f'(z)| itself: the structural extremal exceeds it (see
    :func:`bloch_seminorm_bound` for a valid envelope and the test-suite
    witness).  The stationary radius and peak value are well-defined
    constants of the stated envelope either way.
    """
    r0 = bisect_root(lambda r: 1 - r + 2 * r * math.log(1 - r), 0.2, 0.7, "bloch_r0").root
    value = (1 - r0 * r0) * (1 - math.log(1 - r0))
    grid = np.linspace(0.0, 0.999, 200001)
    genv = (1 - grid**2) * (1 - np.log1p(-grid))
    grid_argmax = float(grid[int(np.argmax(genv))])
    return {"r0": r0, "value": value, "grid_argmax": grid_argmax}


def bloch_seminorm_bound() -> dict:
    """Valid class-wide envelope for (1-|z|^2)|f'(z)| and its maximum.

    |f'(z)| = |f(z)/z| |q(z)| with the growth bound |f/z| <= exp(dilog(r))
    and max |q| = 1 - log(1-r) on |z| = r, so the seminorm never exceeds
    max_r (1-r^2)(1 - log(1-r)) exp(dilog(r)).  The structural extremal
    attains the inner product at negative real z, so the bound is sharp.
    """
    grid = np.linspace(0.0, 0.9999, 200001)
    # dilog(r) = sum_k r^k / k^2 from the _DILOG series at s = min(r, 1 - r):
    # s <= 1/2 puts every term past s^64 below 2^-64 of the sum, and on this
    # grid all 800 terms give the same bits; Euler's reflection
    # dilog(r) = pi^2/6 - ln r ln(1 - r) - dilog(1 - r) covers r > 1/2
    high = grid > 0.5
    s = np.where(high, 1.0 - grid, grid)
    dilog = np.polyval(_DILOG[-65:], -s)
    dilog[high] = np.pi**2 / 6 - np.log(grid[high]) * np.log(s[high]) - dilog[high]
    env = (1 - grid**2) * (1 - np.log1p(-grid)) * np.exp(dilog)
    idx = int(np.argmax(env))
    return {"r_star": float(grid[idx]), "value": float(env[idx])}


# -- further counterexamples and identities ----------------------------------------------


# np.polyval coefficients (highest power first) of the 800-term dilog sum
# sum_k (-z)^k / k^2; the even part sum_k (-1)^k z^(2k) / (2 k^2) is half of
# it at z^2
_DILOG = np.array([(-1) ** k / k**2 for k in range(799, 0, -1)] + [0.0])


def vector_space_counterexample(scan_density: int = 360) -> dict:
    """Failure of additivity: the sum of two class members leaves the class.

    With generators w1 = z and w2 = z^2 the sum z(e^A + e^B) would need the
    Schwarz datum w = exp(-z(A'e^A + B'e^B)/(e^A + e^B)) - 1.  Both that
    normalized transform (which satisfies w(0) = 0) and the flattened
    variant exp(-z(A'e^A + B'e^B))/(e^A + e^B) - 1 (which attains the
    reference witness modulus at z0 = -(1/2 + 2i/3)) are evaluated; the
    normalized transform exceeds modulus 1 elsewhere in the disk, which is
    what refutes closedness under addition.

    The scan, z0 and 0 share one Horner pass of the dilog sum over z and
    z^2; halving its value at z^2 is exact, so the even part carries the bits
    of a pass with halved coefficients.
    """
    z0 = -(0.5 + 2j / 3)
    scan = np.array([[0.7], [0.85], [0.95], [0.985]]) * _circle(scan_density)
    z = np.concatenate([scan.ravel(), [z0, 0]])
    z2 = z * z
    dilog = np.polyval(_DILOG, np.concatenate([z, z2]))
    e_a = np.exp(dilog[: z.size])
    e_b = np.exp(dilog[z.size :] / 2)
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
    if m < 1 or n < 1:
        raise ValueError("m and n must be positive integers")
    if not 0 <= lam <= 1:
        raise ValueError("lambda must lie in [0, 1]")
    coeffs = [0.0] * (order + 1)
    k = 1
    while m * k <= order:
        coeffs[m * k] += (1 - lam) / m * (-1) ** k / k**2
        k += 1
    k = 1
    while n * k <= order:
        coeffs[n * k] += lam / n * (-1) ** k / k**2
        k += 1
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
    for j in range(256):
        z = 0.99 * cmath.exp(2j * math.pi * j / 256)
        w = lam * (1 - cmath.log(1 + z**n)) + (1 - lam) * (1 - cmath.log(1 + z**m))
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
