"""Radius constants, inclusion constants and boundary-curve emission.

All root-found constants use plain bisection on a bracket whose sign change
is known in closed form; every result carries its bracket, residual and
iteration count so downstream checks can re-verify it against a dense scan.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple
from typing import Callable

from . import CURVE_IDS

__all__ = [
    "RadiusResult",
    "InclusionConstants",
    "bisect_root",
    "radius_starlike_order",
    "radius_M_beta",
    "radius_convex_order",
    "radius_strongly_starlike",
    "strongly_starlike_gamma_max",
    "radius_k_starlike",
    "majorization_radius",
    "inclusion_constants",
    "re_im_envelope",
    "curve_points",
    "schwarz_pick_bound",
    "CURVE_IDS",
]

LOG2 = math.log(2.0)
ALPHA_MAX = 1.0 - LOG2                 # vertex of the image region on the real axis
ALPHA_PARABOLIC = 1.0 - 2.0 * LOG2     # parabola offset constant
C0_SQRT = LOG2 * (2.0 - LOG2)          # sqrt(1+cz) inclusion constant

BISECT_WIDTH = 1e-14
BISECT_MAX_ITER = 200


class RadiusResult(namedtuple("RadiusResult", "equation_id bracket root residual iterations")):
    """A bisection root with its bracket (lo, hi), |residual| and iteration count."""

    __slots__ = ()

    def as_dict(self) -> dict:
        return {
            "equationId": self.equation_id,
            "bracket": list(self.bracket),
            "root": self.root,
            "residual": self.residual,
            "iterations": self.iterations,
        }


def bisect_root(fn: Callable[[float], float], lo: float, hi: float, equation_id: str) -> RadiusResult:
    """Bisection on [lo, hi] to width BISECT_WIDTH; needs a strict sign change at the ends.

    A midpoint that rounds to an end (the float spacing there exceeds the width) fixes
    the bracket, so the loop stops with the root that BISECT_MAX_ITER steps give. A sign
    test reads the values' own signs only where their product underflows to 0."""
    f_lo, f_hi = fn(lo), fn(hi)
    if f_lo == 0.0:
        return RadiusResult(equation_id, (lo, hi), lo, 0.0, 0)
    if f_hi == 0.0:
        return RadiusResult(equation_id, (lo, hi), hi, 0.0, 0)
    if (p := f_lo * f_hi) > 0.0 or p == 0.0 and (f_lo < 0.0) == (f_hi < 0.0):
        raise ValueError(
            f"no sign change for {equation_id} on [{lo}, {hi}]: f(lo)={f_lo}, f(hi)={f_hi}"
        )
    a, b = lo, hi
    fa = f_lo
    iterations = 0
    while b - a > BISECT_WIDTH and iterations < BISECT_MAX_ITER:
        mid = 0.5 * (a + b)
        if mid == a or mid == b:
            break
        fm = fn(mid)
        iterations += 1
        if fm == 0.0:
            a = b = mid
            break
        # float zeros keep these compares on CPython's float-float fast path
        if (p := fa * fm) < 0.0 or p == 0.0 and (fa < 0.0) != (fm < 0.0):
            b = mid
        else:
            a, fa = mid, fm
    root = 0.5 * (a + b)
    return RadiusResult(equation_id, (lo, hi), root, abs(fn(root)), iterations)


# -- closed-form radii -------------------------------------------------------


def radius_starlike_order(alpha: float) -> float:
    """Radius of starlikeness of order alpha: exp(1-alpha) - 1.

    Only meaningful for alpha in [1 - log 2, 1); below that the whole disk
    already qualifies and the formula would exceed 1.
    """
    if not ALPHA_MAX - 1e-15 <= alpha < 1:
        raise ValueError(f"alpha must lie in [1 - log 2, 1), got {alpha}")
    return math.exp(1 - alpha) - 1


def radius_M_beta(beta: float) -> float:
    """Radius for the bounded-ratio class Re(zf'/f) < beta: 1 - exp(1-beta)."""
    if not beta > 1:
        raise ValueError(f"beta must exceed 1, got {beta}")
    return 1 - math.exp(1 - beta)


# -- root-found radii ---------------------------------------------------------


def convexity_equation(r: float, alpha: float) -> float:
    return (1 - r) * (1 - math.log(1 + r)) * (1 - math.log(1 + r) - alpha) - r


def radius_convex_order(alpha: float) -> RadiusResult:
    """Smallest positive root of the convexity-of-order-alpha equation."""
    if not 0 <= alpha < 1:
        raise ValueError(f"alpha must lie in [0, 1), got {alpha}")
    return bisect_root(lambda r: convexity_equation(r, alpha), 0.0, 1.0, "root2")


def strongly_starlike_gamma_max() -> float:
    """Largest admissible order for the strongly-starlike radius formula.

    Solves r(gamma) = 1 in closed form: gamma_0 = (2/pi) * atan(pi/3).
    """
    return 2.0 / math.pi * math.atan(math.pi / 3.0)


def radius_strongly_starlike(gamma: float) -> float:
    """Closed-form radius of strong starlikeness of order gamma.

    r(gamma) = sqrt(2 (1 - 1/sqrt(1 + tan^2(tan(gamma pi / 2))))), valid for
    0 < gamma <= gamma_0 where r(gamma_0) = 1.
    """
    gamma0 = strongly_starlike_gamma_max()
    if not 0 < gamma <= gamma0 + 1e-15:
        raise ValueError(f"gamma must lie in (0, {gamma0:.6f}], got {gamma}")
    a = math.tan(math.tan(gamma * math.pi / 2.0))
    return math.sqrt(2.0 * (1.0 - 1.0 / math.sqrt(1.0 + a * a)))


def k_starlike_equation(r: float, k: float) -> float:
    return 1 + r - math.e * (1 - r) ** k


def radius_k_starlike(k: float) -> RadiusResult:
    """Smallest positive root of 1 + r - e(1-r)^k = 0; k=1 gives (e-1)/(e+1).

    The root is about 1/k; where the BISECT_WIDTH-wide bisection cannot give it
    to nine digits (from about k = 1e5 on) this raises ValueError."""
    if not k > 0:
        raise ValueError(f"k must be positive, got {k}")
    res = bisect_root(lambda r: k_starlike_equation(r, k), 0.0, 1.0, "root1")
    if BISECT_WIDTH > 1e-9 * res.root:
        raise ValueError(f"k = {k} is too large: its root, near {1 / k:.3g}, is below what a "
                         f"bisection to width {BISECT_WIDTH} resolves to nine digits")
    return res


def majorization_equation(r: float) -> float:
    return (1 - r * r) * (1 - math.log(1 + r)) - 2 * r


def majorization_radius() -> RadiusResult:
    """Smallest positive root of (1-r^2)(1-log(1+r)) - 2r = 0."""
    return bisect_root(majorization_equation, 0.0, 1.0, "root")


# -- inclusion constants -------------------------------------------------------


def boundary_argument(theta: float) -> float:
    """arg(1 - log(1 + e^(i theta))) for theta in [0, pi)."""
    w = 1 - cmath.log(1 + cmath.exp(1j * theta))
    return math.atan2(w.imag, w.real)


def _argument_stationarity(theta: float) -> float:
    return -2.0 + math.log(2.0 * (1.0 + math.cos(theta))) + theta * math.tan(theta / 2.0)


class InclusionConstants(namedtuple("InclusionConstants", [
    "alpha_max",        # largest starlikeness order contained
    "theta0",           # stationary boundary angle for the argument
    "f_theta0",         # maximal boundary argument |arg w|
    "gamma_min",        # smallest strongly-starlike order containing the class
    "alpha_parabolic",  # largest parabolic-class offset contained
    "c0",               # largest c with sqrt(1+cz)-class contained
])):
    __slots__ = ()

    def as_dict(self) -> dict:
        return {
            "alphaMax": self.alpha_max,
            "theta0": self.theta0,
            "fTheta0": self.f_theta0,
            "gammaMin": self.gamma_min,
            "alphaParabolic": self.alpha_parabolic,
            "c0": self.c0,
        }


def inclusion_constants() -> InclusionConstants:
    """The four embedding constants of the logarithmic starlike class.

    theta0 solves -2 + log(2(1+cos t)) + t tan(t/2) = 0 on (0, pi); the
    boundary argument is maximal (and locally concave) there.
    """
    theta0 = bisect_root(_argument_stationarity, 1e-6, math.pi - 1e-6, "theta0").root
    f0 = abs(boundary_argument(theta0))
    # concavity sanity: theta0 is a local maximum of the boundary argument
    eps = 1e-4
    if not (f0 >= abs(boundary_argument(theta0 - eps)) and f0 >= abs(boundary_argument(theta0 + eps))):
        raise RuntimeError("stationary angle is not a local maximum of the boundary argument")
    return InclusionConstants(
        alpha_max=ALPHA_MAX,
        theta0=theta0,
        f_theta0=f0,
        gamma_min=2.0 * f0 / math.pi,
        alpha_parabolic=ALPHA_PARABOLIC,
        c0=C0_SQRT,
    )


def re_im_envelope(r: float) -> dict:
    """Sharp Re and |Im| bounds for z f'/f over the class at radius r."""
    if not 0 < r < 1:
        raise ValueError(f"radius must lie in (0,1), got {r}")
    return {
        "reLo": 1 - math.log(1 + r),
        "reHi": 1 - math.log(1 - r),
        "imAbs": math.atan(r / math.sqrt(1 - r * r)),
    }


# -- figure curves -------------------------------------------------------------

_TAU2_RAY_LENGTH = 3.0


def curve_points(curve_id: str, samples: int) -> list[complex]:
    """Boundary curves of the image region and of its best dominants/subordinants.

    tau   image boundary: w = 1 - log(1 + e^(i theta)), midpoint angle grid on
          (-pi, pi) (odd sample counts include theta = 0, the vertex 1 - log 2)
    tau1  vertical line Re w = 1 - log 2
    tau2  ray pair |arg w| = gamma_min * pi/2
    tau3  parabola Re w - |w - 1| = 1 - 2 log 2 (solved radially around w = 1)
    tau4  image boundary of sqrt(1 + c0 z): w = sqrt(1 + c0 e^(i theta))
    """
    if samples < 16:
        raise ValueError("at least 16 samples required")
    if curve_id == "tau":
        pts = []
        for j in range(samples):
            theta = -math.pi + (2 * j + 1) * math.pi / samples
            pts.append(1 - cmath.log(1 + cmath.exp(1j * theta)))
        return pts
    if curve_id == "tau1":
        return [
            complex(ALPHA_MAX, -math.pi / 2 + math.pi * j / (samples - 1))
            for j in range(samples)
        ]
    if curve_id == "tau2":
        slope = inclusion_constants().gamma_min * math.pi / 2.0
        pts = []
        half = (samples + 1) // 2
        for j in range(half):
            s = _TAU2_RAY_LENGTH * (j + 1) / half
            pts.append(s * cmath.exp(1j * slope))
        for j in range(samples - half):
            s = _TAU2_RAY_LENGTH * (j + 1) / (samples - half)
            pts.append(s * cmath.exp(-1j * slope))
        return pts
    if curve_id == "tau3":
        alpha = ALPHA_PARABOLIC
        pts = []
        for j in range(samples):
            theta = 2 * math.pi * (j + 1) / (samples + 1)
            cos = math.cos(theta)
            if abs(math.sin(theta)) < 1e-12 and cos > 0:
                continue  # the axis direction away from the vertex never meets the parabola
            rho_closed = (1 - alpha) / (1 - cos)
            fn = lambda rho, cos=cos: (1 + rho * cos) - rho - alpha
            res = bisect_root(fn, 0.0, 2 * rho_closed + 1.0, f"tau3@{theta:.3f}")
            pts.append(1 + res.root * cmath.exp(1j * theta))
        return pts
    if curve_id == "tau4":
        return [
            cmath.sqrt(1 + C0_SQRT * cmath.exp(2j * math.pi * j / samples))
            for j in range(samples)
        ]
    raise ValueError(f"unknown curve id {curve_id!r}; choose from {CURVE_IDS}")


def schwarz_pick_bound(omega_abs: float, z_abs: float) -> float:
    """Upper bound (1-|w|^2)/(1-|z|^2) for |w'(z)| of a self-map w of the disk."""
    if not 0 <= omega_abs <= 1 or not 0 <= z_abs < 1:
        raise ValueError("need |w| <= 1 and |z| < 1")
    return (1 - omega_abs * omega_abs) / (1 - z_abs * z_abs)
