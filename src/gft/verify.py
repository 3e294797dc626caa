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
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .bounds import (
    ClassParams,
    PhiCoeffs,
    alpha_class_params,
    caratheodory_to_coeffs,
    grid_then_polish,
    polar_grid,
    second_hankel,
    sl_bound_table,
)
from .catalog import in_psi_image, make_spec
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


def _circle(grid: int) -> np.ndarray:
    """The ``grid`` points exp(2 pi i j / grid), j = 0..grid-1, of the unit circle."""
    return np.exp(2j * np.pi * np.arange(grid) / grid)


def _like(z, values: np.ndarray):
    """``values`` as a Python complex when the input point ``z`` was a scalar."""
    return complex(values) if np.ndim(z) == 0 else values


# -- Schwarz samples -------------------------------------------------------------


@dataclass(frozen=True)
class SchwarzSample:
    """A polynomial self-map of the disk with w(0) = 0."""

    series: TruncatedSeries
    kind: str
    params: dict = field(default_factory=dict)

    def __call__(self, z):
        return self.series(z)

    def boundary_sup(self, grid: int = BOUNDARY_GRID, radius: float = 0.999) -> float:
        return float(np.abs(self.series(radius * _circle(grid))).max())


def _mobius_series(eta: float, order: int) -> TruncatedSeries:
    # z (z + eta) / (1 + eta z)
    inv = TruncatedSeries([1] + [(-eta) ** k for k in range(1, order + 1)])
    num = TruncatedSeries([0, eta, 1])
    return num.mul(inv, order)


def _blaschke_series(zeros: Sequence[complex], scale: float, order: int) -> TruncatedSeries:
    out = TruncatedSeries([0, scale])
    for a in zeros:
        ac = complex(a)
        if abs(ac) >= 1:
            raise ValueError("Blaschke zeros must lie inside the disk")
        # (a - z)/(1 - conj(a) z)
        inv = TruncatedSeries([ac.conjugate() ** k for k in range(order + 1)])
        factor = TruncatedSeries([ac, -1]).mul(inv, order)
        out = out.mul(factor, order)
    return out


def sample_schwarz(kind: str, params: dict | None = None, seed: int = 0, order: int = 32) -> SchwarzSample:
    """Deterministic Schwarz-function sample of the requested kind."""
    params = dict(params or {})
    if kind == "monomial":
        m = int(params.get("m", 1))
        if m < 1:
            raise ValueError("monomial exponent must be >= 1")
        series = TruncatedSeries([0] * m + [1]).padded(max(order, m))
    elif kind == "mobius_eta":
        eta = float(params.get("eta", 0.5))
        if not 0 <= eta <= 1:
            raise ValueError("eta must lie in [0, 1]")
        series = _mobius_series(eta, order)
    elif kind == "scaled_blaschke":
        rng = np.random.default_rng(seed)
        n_zeros = int(params.get("n_zeros", 2))
        zeros = params.get("zeros")
        if zeros is None:
            # modest zero radii keep the series truncation far below the
            # boundary-sup headroom of the closed disk of radius 0.999
            radii = rng.uniform(0.1, 0.6, n_zeros)
            angles = rng.uniform(0, 2 * math.pi, n_zeros)
            zeros = [r * cmath.exp(1j * t) for r, t in zip(radii, angles)]
        scale = float(params.get("scale", rng.uniform(0.5, 0.95)))
        params = dict(params, zeros=[complex(z) for z in zeros], scale=scale)
        series = _blaschke_series(zeros, scale, order)
    elif kind == "random_poly_normalized":
        rng = np.random.default_rng(seed)
        degree = int(params.get("degree", 8))
        raw = rng.standard_normal(degree) + 1j * rng.standard_normal(degree)
        poly = TruncatedSeries([0] + list(raw))
        sup = float(np.abs(poly(_circle(BOUNDARY_GRID))).max())
        series = (poly * (1.0 / (SCHWARZ_SAFETY * sup))).padded(max(order, degree))
        params = dict(params, degree=degree)
    else:
        raise ValueError(f"unknown Schwarz sample kind {kind!r}")
    return SchwarzSample(series, kind, params)


def sample_suite(count: int, seed: int = 42, order: int = 32) -> list[SchwarzSample]:
    """A deterministic mix of sample kinds, extremal witnesses first."""
    if count < 1:
        raise ValueError(f"sample count must be at least 1, got {count}")
    samples: list[SchwarzSample] = []
    for m in (1, 2, 3, 4):
        samples.append(sample_schwarz("monomial", {"m": m}, order=order))
    for eta in (0.0, 0.25, 0.5, 0.75, 1.0):
        samples.append(sample_schwarz("mobius_eta", {"eta": eta}, order=order))
    i = 0
    while len(samples) < count:
        kind = "scaled_blaschke" if i % 3 == 2 else "random_poly_normalized"
        samples.append(sample_schwarz(kind, None, seed=seed + i, order=order))
        i += 1
    return samples[:count]


# -- structural evaluation ----------------------------------------------------------
#
# Each function takes one point or an array of points. A scalar gives a Python
# complex; an array gives a complex array of its shape.

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(64)
_GL_S = 0.5 * (_GL_NODES + 1.0)  # nodes mapped to [0, 1]: t = s z, dt = z ds


def _log_ratio_integral(omega: SchwarzSample, z: np.ndarray) -> np.ndarray:
    """integral_0^z -log(1 + w(t))/t dt by 64-point Gauss-Legendre quadrature.

    In s the integrand is -log(1 + w(s z))/s; all (point, node) pairs are
    evaluated at once and summed by one product with the weights.
    """
    w = omega(z[..., None] * _GL_S)
    return 0.5 * ((-np.log(1 + w) / _GL_S) @ _GL_WEIGHTS)


def structural_eval(omega: SchwarzSample, z):
    """f(z) = z exp(integral (q-1)/t dt) with q = 1 - log(1 + omega)."""
    za = np.asarray(z, dtype=complex)
    return _like(z, za * np.exp(_log_ratio_integral(omega, za)))


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
    return _like(z, np.exp(_log_ratio_integral(omega, za)))


# -- Caratheodory parameterization -------------------------------------------------


@dataclass(frozen=True)
class CaratheodoryPoint:
    p1: float
    x: complex
    y: complex
    p2: complex
    p3: complex


def _p2_p3(p1, x):
    """Libera-Zlotkiewicz (p2, p3 at y = 0, dp3/dy); p3 is affine in y.

    Array-friendly: p3 = base + bump * y for the free parameter |y| <= 1.
    """
    s = 4 - p1**2
    p2 = (p1**2 + x * s) / 2
    base = (p1**3 + 2 * p1 * s * x - p1 * s * x**2) / 4
    bump = 2 * s * (1 - np.abs(x) ** 2) / 4
    return p2, base, bump


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
    """|a2 a4 - a3^2| split as E0 + E1*y (affine in the free parameter y)."""
    p2, base, bump = _p2_p3(p1, x)
    a2, a3, a4_0 = caratheodory_to_coeffs(params, coeffs, p1, p2, base)
    _, _, a4_1 = caratheodory_to_coeffs(params, coeffs, p1, p2, base + bump)
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


def _class_coefficients(q: TruncatedSeries, alpha: float, up_to: int = 5) -> list[complex]:
    """a_1..a_{up_to} of the class member with convolution ratio q.

    Solves the triangular recurrence a_n (n-1) h_n = sum_{m<n} a_m h_m q_{n-m}
    with weights h_m = 1 + (m-1) alpha.
    """
    a = [complex(1)]
    for n in range(2, up_to + 1):
        h_n = 1 + (n - 1) * alpha
        acc = 0j
        for m in range(1, n):
            h_m = 1 + (m - 1) * alpha
            acc += a[m - 1] * h_m * complex(q[n - m])
        a.append(acc / ((n - 1) * h_n))
    return a


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
    return tuple(growth_envelope_starlike(psi, r, order=200) for r in _MEMBERSHIP_RADII)


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
    """
    samples = sample_suite(sample_count, seed=seed)
    # one row per radius: envelope points, growth points and their bounds
    radii = np.array(_MEMBERSHIP_RADII)[:, None]
    z_env = radii * _circle(_MEMBERSHIP_ANGLES)
    z_growth = z_env[:, ::_GROWTH_STRIDE]
    envs = [re_im_envelope(r) for r in _MEMBERSHIP_RADII]
    re_lo_env, re_hi_env, im_env = (
        np.array([env[key] for env in envs])[:, None] for key in ("reLo", "reHi", "imAbs")
    )
    growth_lo, growth_hi = np.array(_growth_reference()).T[:, :, None]
    # a2..a5 read only q1..q4, so psi(omega) is composed at order 4
    psi4 = make_spec("psi").series(4, exact=False)
    worst = {
        "re_lo": math.inf,
        "re_hi": math.inf,
        "im": math.inf,
        "g_lo": math.inf,
        "g_hi": math.inf,
    }
    tables = {}
    for alpha in alphas:
        frac = Fraction(alpha).limit_denominator(10**6)
        table = sl_bound_table(frac)
        table["h2_general"] = second_hankel(
            alpha_class_params(float(frac)), PhiCoeffs(1.0, 0.5, 1.0 / 3.0)
        ).value
        tables[alpha] = table
    coeff_margins = {
        (alpha, key): math.inf
        for alpha in alphas
        for key in ("a2", "a3", "fekete_t1", "a4", "a2a3_a4", "a5", "h2_general", "h3")
    }
    violations = []

    for idx, omega in enumerate(samples):
        ratio = 1 - np.log(1 + omega(z_env))
        re_lo = ratio.real - re_lo_env
        re_hi = re_hi_env - ratio.real
        im = im_env - np.abs(ratio.imag)
        fv = np.abs(structural_eval(omega, z_growth))
        g_lo = fv - growth_lo
        g_hi = growth_hi - fv
        for key, margin in (("re_lo", re_lo), ("re_hi", re_hi), ("im", im),
                            ("g_lo", g_lo), ("g_hi", g_hi)):
            worst[key] = min(worst[key], float(margin.min()))
        # one violation entry per failing point, in scan order: per radius,
        # the envelope points, then the growth points
        env_bad = (np.minimum(np.minimum(re_lo, re_hi), im) < -tol).sum(axis=1)
        growth_bad = (np.minimum(g_lo, g_hi) < -tol).sum(axis=1)
        for r, n_env, n_growth in zip(_MEMBERSHIP_RADII, env_bad, growth_bad):
            for where, n in ((f"envelope r={r}", n_env), (f"growth r={r}", n_growth)):
                violations.extend(
                    {"sample": idx, "kind": omega.kind, "where": where} for _ in range(n)
                )

        psi_omega = psi4.compose(omega.series.padded(4), 4)
        for alpha in alphas:
            a = _class_coefficients(psi_omega, alpha)
            a2, a3, a4, a5 = a[1], a[2], a[3], a[4]
            table = tables[alpha]
            checks = {
                "a2": float(table["a2"]) - abs(a2),
                "a3": float(table["a3"]) - abs(a3),
                "fekete_t1": float(table["fekete_t1"]) - abs(a3 - a2 * a2),
                "a4": float(table["a4"]) - abs(a4),
                "a2a3_a4": float(table["a2a3_a4"]) - abs(a2 * a3 - a4),
                "a5": float(table["a5"]) - abs(a5),
                "h2_general": float(table["h2_general"]) - abs(a2 * a4 - a3 * a3),
                "h3": float(table["h3"])
                - abs(a3 * (a2 * a4 - a3 * a3) - a4 * (a4 - a2 * a3) + a5 * (a3 - a2 * a2)),
            }
            for key, margin in checks.items():
                coeff_margins[(alpha, key)] = min(coeff_margins[(alpha, key)], margin)
                if margin < -tol:
                    violations.append(
                        {"sample": idx, "kind": omega.kind, "where": f"{key}@alpha={alpha}"}
                    )

    return MembershipReport(
        samples=sample_count,
        seed=seed,
        worst_re_lo=worst["re_lo"],
        worst_re_hi=worst["re_hi"],
        worst_im=worst["im"],
        worst_growth_lo=worst["g_lo"],
        worst_growth_hi=worst["g_hi"],
        coeff_margins={f"{k[1]}@alpha={k[0]}": v for k, v in coeff_margins.items()},
        violations=violations,
    )


# -- Caratheodory lemma sweeps ---------------------------------------------------------


def _caratheodory_grid(density: int):
    p1, _, _, x = polar_grid(2.0, density)
    return p1, x, _p2_p3(p1, x)[0]


def lemma_p1p2_check(v: float, grid_density: int = 64) -> dict:
    """Sweep |p2 - v p1^2| against its three-branch bound and the refinements."""
    p1, x, p2 = _caratheodory_grid(grid_density)
    lhs = np.abs(p2 - v * p1**2)
    if v <= 0:
        bound = -4 * v + 2
    elif v <= 1:
        bound = 2.0
    else:
        bound = 4 * v - 2
    report = {
        "v": v,
        "bound": float(bound),
        "max_lhs": float(lhs.max()),
        "max_violation": float((lhs - bound).max()),
    }
    if 0 < v <= 0.5:
        refined = lhs + v * np.abs(p1) ** 2
        report["max_refined1"] = float(refined.max())
        report["max_violation_refined1"] = float((refined - 2).max())
    if 0.5 <= v < 1:
        refined = lhs + (1 - v) * np.abs(p1) ** 2
        report["max_refined2"] = float(refined.max())
        report["max_violation_refined2"] = float((refined - 2).max())
    return report


def eq_p31_check(grid_density: int = 64) -> dict:
    """Sweep the cubic Caratheodory combination |p3 - 2 p1 p2 + p1^3| <= 2.

    The sweep covers the polar (p1, x) grid times 16 unimodular y. With
    p3 = base + bump y, the combination is A + bump y for the y-free
    A = base - 2 p1 p2 + p1^3, so |A| + bump bounds it over all y. The pass at
    the first y gives an attained value L, and only grid points with
    |A| + bump >= L - 1e-9 are evaluated at all 16 y, by the same expression
    as the full sweep, so the maximum is the full sweep's to the bit.

    The quartic combination involving p4 has no three-parameter formula, so
    it is checked on power-map samples w(z) = lam z^m where all p_k are
    available in closed form (p_k = 2 lam^(k/m) when m | k, else 0).
    """
    p1, _, _, x = polar_grid(2.0, grid_density)
    p1, x = p1[..., None], x[..., None]
    ys = np.exp(1j * np.linspace(0.0, 2 * np.pi, 16, endpoint=False))
    p2, base, bump = _p2_p3(p1, x)
    two_p1_p2 = 2 * p1 * p2
    p1_cubed = np.broadcast_to(p1**3, p2.shape)

    def cubic(at, y):
        return np.abs(base[at] + bump[at] * y - two_p1_p2[at] + p1_cubed[at])

    lower = cubic(..., ys[0]).max()
    # The few operations behind |A| + bump and behind each computed
    # |A + bump y| act on magnitudes of at most 40, so each rounds off by less
    # than 1e-13: a point whose bound falls short of L by the 1e-9 slack holds
    # no value as large as L, let alone the maximum.
    keep = np.abs(base - two_p1_p2 + p1_cubed) + bump >= lower - 1e-9
    values = cubic(tuple(i[:, None] for i in keep.nonzero()), ys)  # (survivor, y)
    report = {
        "max_cubic": float(values.max()),
        "max_violation_cubic": float((values - 2).max()),
    }
    worst_quartic = 0.0
    for m in (1, 2, 3, 4):
        for lam_abs in np.linspace(0.1, 1.0, 10).tolist():
            for lam_arg in np.linspace(0, 2 * math.pi, 12, endpoint=False).tolist():
                lam = lam_abs * cmath.exp(1j * lam_arg)
                p = [2 * lam ** (k // m) if k % m == 0 else 0.0 for k in range(1, 5)]
                q = p[0] ** 4 - 3 * p[0] ** 2 * p[1] + p[1] ** 2 + 2 * p[0] * p[2] - p[3]
                worst_quartic = max(worst_quartic, abs(q))
    report["max_quartic_on_power_maps"] = worst_quartic
    report["max_violation_quartic"] = worst_quartic - 2
    return report


# -- Bloch norm -----------------------------------------------------------------------


def bloch_norm_estimate(f, grid_size: int = 256, r_max: float = 0.999, radial_count: int = 128) -> float:
    """sup over a polar grid of (1 - |z|^2) |f'(z)|.

    ``f`` is either an object with a ``series`` attribute of order >= 40
    (derivative taken termwise), a bare series, or a :class:`SchwarzSample`,
    in which case the class member it induces is differentiated through the
    structural formula (exact pointwise, no truncation).  Each radius circle
    is evaluated as one array, so memory stays at one circle's worth.
    """
    if isinstance(f, SchwarzSample):
        deriv = lambda z: structural_deriv(f, z)
    else:
        series = f.series if hasattr(f, "series") else f
        if series.order < 40:
            raise ValueError("series order must be at least 40 for a stable estimate")
        deriv = series.derivative()
    circle = _circle(grid_size)
    best = 0.0
    for r in np.linspace(0.0, r_max, radial_count):
        best = max(best, float(((1 - r * r) * np.abs(deriv(r * circle))).max()))
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
    res = bisect_root(
        lambda r: 1 - r + 2 * r * math.log(1 - r), 0.2, 0.7, "bloch_r0"
    )
    r0 = res.root
    value = (1 - r0 * r0) * (1 - math.log(1 - r0))
    grid = np.linspace(0.0, 0.999, 200001)
    genv = (1 - grid**2) * (1 - np.log1p(-grid))
    grid_argmax = float(grid[int(np.argmax(genv))])
    return {
        "r0": r0,
        "value": value,
        "grid_argmax": grid_argmax,
        "norm_bound": value,  # |f(0)| = 0 for normalized members
        "root_result": res,
    }


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


def lambda_combination_check(
    lam: float, m: int, n: int, order: int = 48, radius: float = 0.99, angles: int = 256
) -> dict:
    """Blended generator membership: the z exp(...) construction stays in class.

    Builds g = z exp(alpha) with
    alpha = (1-lam)/m * sum_k (-z^m)^k/k^2 + lam/n * sum_k (-z^n)^k/k^2,
    verifies z g'/g = lam (1 - log(1+z^n)) + (1-lam)(1 - log(1+z^m)) as a
    series identity, and checks that the blend stays inside the image region
    on a boundary-adjacent grid.
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
    psi = make_spec("psi")
    zn = [0.0] * (order + 1)
    zm = [0.0] * (order + 1)
    if n <= order:
        zn[n] = 1.0
    if m <= order:
        zm[m] = 1.0
    psi_series = psi.series(order)
    blend = lam * psi_series.compose(TruncatedSeries(zn), order) + (1 - lam) * psi_series.compose(
        TruncatedSeries(zm), order
    )
    max_coeff_err = max(
        abs(complex(ratio[k]) - complex(blend[k])) for k in range(order + 1)
    )

    worst_margin = math.inf
    inside = True
    for j in range(angles):
        z = radius * cmath.exp(2j * math.pi * j / angles)
        w = lam * (1 - cmath.log(1 + z**n)) + (1 - lam) * (1 - cmath.log(1 + z**m))
        margin = 1 - abs(cmath.exp(1 - w) - 1)
        worst_margin = min(worst_margin, margin)
        inside = inside and in_psi_image(w)
    return {
        "lambda": lam,
        "m": m,
        "n": n,
        "series_identity_error": max_coeff_err,
        "all_inside": inside,
        "worst_margin": worst_margin,
        "g_series": g,
    }

