"""Coefficient-functional bounds for convolution-ratio classes.

A class is described by the convolution weights (g2, g3, g4, h2, h3, h4) of
the two kernels, together with the first three expansion coefficients of the
target generator.  Generators are handled in two sign conventions:

* positive leading slope: coefficients (B1, B2, B3) with B1 > 0;
* negative leading slope: coefficients (C1, C2, C3) with C1 < 0.

The conventions are exchanged by B_i = (-1)^i C_i and give identical bounds
(the two generators share the same image), which the test-suite pins down.

The one-parameter family obtained from the weights
g_n = n(1 + (n-1)a), h_n = 1 + (n-1)a interpolates the starlike (a = 0) and
convex (a = 1) classes of the logarithmic generator; its closed-form bound
table from the worked examples is exposed as the ``*_sl`` helpers with exact
rational arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from types import SimpleNamespace
from typing import Any

__all__ = [
    "ClassParams",
    "PhiCoeffs",
    "BoundReport",
    "SchwarzMax",
    "alpha_class_params",
    "SYMMETRIC_STARLIKE_PARAMS",
    "SYMMETRIC_CONVEX_PARAMS",
    "fekete_szego",
    "fekete_szego_positive",
    "max_quadratic_0_4",
    "second_hankel",
    "second_hankel_symmetric",
    "caratheodory_to_coeffs",
    "q_params_a4",
    "q_params_a2a3_a4",
    "polar_grid",
    "grid_then_polish",
    "schwarz_functional_H",
    "a4_bound",
    "a2a3_a4_bound",
    "PSI_COEFFS",
    "sl_threshold_sign",
    "a2_bound_sl",
    "a3_bound_sl",
    "fekete_szego_sl",
    "h2_bound_sl",
    "a4_bound_sl",
    "a2a3_a4_bound_sl",
    "a5_bound_sl",
    "h3_bound_sl_alpha",
    "h3_bound_sl_star",
    "sl_bound_table",
]

#: expansion head of the logarithmic generator 1 - log(1+z)
PSI_COEFFS = (Fraction(-1), Fraction(1, 2), Fraction(-1, 3))


@dataclass(frozen=True)
class ClassParams:
    """Convolution weights of the two kernels (n = 2, 3, 4 terms)."""

    g2: Any
    g3: Any
    g4: Any
    h2: Any
    h3: Any
    h4: Any

    def __post_init__(self):
        for n, (g, h) in enumerate(
            ((self.g2, self.h2), (self.g3, self.h3), (self.g4, self.h4)), start=2
        ):
            if not g > 0:
                raise ValueError(f"g{n} must be positive, got {g}")
            if h < 0:
                raise ValueError(f"h{n} must be nonnegative, got {h}")
            if not g - h > 0:
                raise ValueError(f"g{n} - h{n} must be positive, got {g} - {h}")

    @property
    def u(self):  # g2 - h2
        return self.g2 - self.h2

    @property
    def v(self):  # g3 - h3
        return self.g3 - self.h3

    @property
    def w(self):  # g4 - h4
        return self.g4 - self.h4


def alpha_class_params(alpha) -> ClassParams:
    """Weights n(1+(n-1)a) / (1+(n-1)a) of the derivative-ratio family."""
    if not 0 <= alpha <= 1:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    return ClassParams(
        g2=2 * (1 + alpha),
        g3=3 * (1 + 2 * alpha),
        g4=4 * (1 + 3 * alpha),
        h2=1 + alpha,
        h3=1 + 2 * alpha,
        h4=1 + 3 * alpha,
    )


# weights of the ratio 2zf'/(f(z)-f(-z)) and of its derivative analogue
SYMMETRIC_STARLIKE_PARAMS = ClassParams(2, 3, 4, 0, 1, 0)
SYMMETRIC_CONVEX_PARAMS = ClassParams(4, 9, 16, 0, 3, 0)


@dataclass(frozen=True)
class PhiCoeffs:
    """First three expansion coefficients of a generator with B1 > 0."""

    b1: Any
    b2: Any
    b3: Any

    def __post_init__(self):
        if not self.b1 > 0:
            raise ValueError(f"leading coefficient must be positive, got {self.b1}")

    @classmethod
    def from_counterpart(cls, c1, c2, c3) -> "PhiCoeffs":
        """Map coefficients of a negative-slope generator: B_i = (-1)^i C_i."""
        if not c1 < 0:
            raise ValueError(f"counterpart form needs a negative leading coefficient, got {c1}")
        return cls(-c1, c2, -c3)


@dataclass(frozen=True)
class BoundReport:
    value: Any
    case_label: str
    inputs: dict = field(default_factory=dict)
    extremal_hint: str | None = None

    def as_dict(self) -> dict:
        return {
            "value": float(self.value),
            "caseLabel": self.case_label,
            "inputsEcho": {k: _jsonable(v) for k, v in self.inputs.items()},
            "extremalHint": self.extremal_hint,
        }


def _jsonable(v):
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    return v


# -- Fekete-Szego ---------------------------------------------------------------


def fekete_szego(params: ClassParams, c_coeffs, t) -> BoundReport:
    """Sharp |a3 - t a2^2| bound for a negative-slope generator (C1 < 0).

    Three branches split at

        k1 = (u^2 (C2 + C1) + h2 u C1^2) / (v C1^2)
        k2 = (u^2 (C2 - C1) + h2 u C1^2) / (v C1^2)

    with the middle value -C1/v independent of t.
    """
    c1, c2, c3 = c_coeffs
    if not c1 < 0:
        raise ValueError(
            "fekete_szego expects a negative leading coefficient; "
            "use fekete_szego_positive for the mirrored convention"
        )
    u, v, h2 = params.u, params.v, params.h2
    c1sq = c1 * c1
    k1 = (u * u * (c2 + c1) + h2 * u * c1sq) / (v * c1sq)
    k2 = (u * u * (c2 - c1) + h2 * u * c1sq) / (v * c1sq)
    outer = c2 / v + h2 * c1sq / (v * u)
    inputs = {"t": t, "kappa1": k1, "kappa2": k2, "C": (c1, c2, c3)}
    if t <= k1:
        return BoundReport(
            outer - t * c1sq / (u * u),
            "below_k1",
            inputs,
            "convolution ratio equal to the generator itself (rotations)",
        )
    if t >= k2:
        return BoundReport(
            t * c1sq / (u * u) - outer,
            "above_k2",
            inputs,
            "convolution ratio equal to the generator itself (rotations)",
        )
    return BoundReport(
        -c1 / v,
        "middle",
        inputs,
        "convolution ratio equal to the generator at z^2 (rotations)",
    )


def fekete_szego_positive(params: ClassParams, b: PhiCoeffs, t) -> BoundReport:
    """Same functional for the positive-slope convention (B1 > 0)."""
    return fekete_szego(params, (-b.b1, b.b2, -b.b3), t)


# -- second Hankel determinant ----------------------------------------------------


def max_quadratic_0_4(A, B, C):
    """max of A t^2 + B t + C over t in [0, 4], with the active case label."""
    if B <= 0 and A <= -B / 4:
        return C, "endpoint0"
    if (B >= 0 and A >= -B / 8) or (B <= 0 and A >= -B / 4):
        return 16 * A + 4 * B + C, "endpoint4"
    return (4 * A * C - B * B) / (4 * A), "vertex"


def _hankel_MT(params: ClassParams, b: PhiCoeffs):
    g2, g3, g4 = params.g2, params.g3, params.g4
    h2, h3, h4 = params.h2, params.h3, params.h4
    u, v, w = params.u, params.v, params.w
    b1, b2, b3 = b.b1, b.b2, b.b3
    M = (
        b1**4
        * (
            -(h2**2) * u**2 * w
            + v
            * (
                g2 * g3 * h2**2
                - g3 * h2**3
                + g2**2 * h2 * h3
                - 3 * g2 * h2**2 * h3
                + 2 * h2**3 * h3
                + v * (-g2 * h2**2 + h2**3)
            )
        )
        - b2**2 * u**4 * w
        + b1 * b3 * v**2 * u**3
        + b1**2 * b2 * u**2 * (v * (g3 * h2 + g2 * h3 - 2 * h2 * h3) - 2 * h2 * u * w)
    )
    T = (
        2 * b2 * u**2 * w
        + 2 * b1**2 * h2 * u * w
        - b1**2 * g3 * h2 * v
        - b1**2 * g2 * h3 * v
        + 2 * b1**2 * h2 * h3 * v
        - 2 * b2 * v**2 * u
    )
    return M, T


def _hankel_SD(params: ClassParams, b: PhiCoeffs):
    """M, T and the case quantities S = |T| + B1 v^2 u - 2 B1 u^2 w and
    D = |M| - B1|T|u^2 - B1^2 v^2 u^3 + B1^2 u^4 w."""
    u, v, w = params.u, params.v, params.w
    b1 = b.b1
    M, T = _hankel_MT(params, b)
    absM, absT = abs(M), abs(T)
    S = absT + b1 * v * v * u - 2 * b1 * u * u * w
    D = absM - b1 * absT * u * u - b1 * b1 * v * v * u**3 + b1 * b1 * u**4 * w
    return M, T, S, D


def second_hankel(params: ClassParams, b: PhiCoeffs) -> BoundReport:
    """|a2 a4 - a3^2| bound via the three-case quadratic maximization.

    Admissibility requires v^2 <= 2 u w.  The case conditions are expressed
    through M, T and S = |T| + B1 v^2 u - 2 B1 u^2 w:

        case1:  |M| - B1^2 u^4 w <= 0  and  S <= 0      ->  B1^2 / v^2
        case2:  (S >= 0 and 2|M| - B1|T|u^2 - B1^2 v^2 u^3 >= 0)
                or (S <= 0 and |M| - B1^2 u^4 w >= 0)   ->  |M| / (u^4 v^2 w)
        case3:  S > 0 and 2|M| - B1|T|u^2 - B1^2 v^2 u^3 <= 0
                ->  B1^2/v^2 - B1^2 S^2 / (4 v^2 w D),
                    D = |M| - B1|T|u^2 - B1^2 v^2 u^3 + B1^2 u^4 w
    """
    u, v, w = params.u, params.v, params.w
    b1 = b.b1
    L = u * w
    if not v * v <= 2 * L:
        raise ValueError(
            f"admissibility violated: v^2 = {v * v} exceeds 2 u w = {2 * L}"
        )
    M, T, S, D = _hankel_SD(params, b)
    absM, absT = abs(M), abs(T)
    mixed = 2 * absM - b1 * absT * u * u - b1 * b1 * v * v * u**3
    inputs = {"M": M, "T": T, "S": S, "B": (b.b1, b.b2, b.b3)}
    if absM - b1 * b1 * u**4 * w <= 0 and S <= 0:
        return BoundReport(
            b1 * b1 / (v * v),
            "case1",
            inputs,
            "convolution ratio equal to the generator at z^2 (rotations)",
        )
    if (S >= 0 and mixed >= 0) or (S <= 0 and absM - b1 * b1 * u**4 * w >= 0):
        return BoundReport(absM / (u**4 * v * v * w), "case2", inputs)
    if S > 0 and mixed <= 0:
        value = b1 * b1 / (v * v) - b1 * b1 * S * S / (4 * v * v * w * D)
        return BoundReport(value, "case3", inputs)
    raise ValueError(
        "no case condition matched: "
        f"M={M}, T={T}, S={S}, mixed={mixed}, |M|-B1^2 u^4 w={absM - b1 * b1 * u**4 * w}"
    )


def hankel_quadratic_coefficients(params: ClassParams, b: PhiCoeffs):
    """(A, B, C, scale) with the bound = max(A t^2 + B t + C) / scale on [0,4]."""
    u, v, w = params.u, params.v, params.w
    b1 = b.b1
    _, _, S, D = _hankel_SD(params, b)
    return D, 4 * b1 * u * u * S, 16 * b1 * b1 * u**4 * w, 16 * u**4 * v * v * w


_SYM_LABEL = {"case1": "A", "case2": "B", "case3": "C"}


def second_hankel_symmetric(kind: str, b: PhiCoeffs) -> BoundReport:
    """|a2 a4 - a3^2| for the symmetric-point classes (starlike / convex)."""
    if kind == "starlike":
        params = SYMMETRIC_STARLIKE_PARAMS
    elif kind == "convex":
        params = SYMMETRIC_CONVEX_PARAMS
    else:
        raise ValueError(f"kind must be 'starlike' or 'convex', got {kind!r}")
    report = second_hankel(params, b)
    return BoundReport(
        report.value,
        _SYM_LABEL[report.case_label],
        dict(report.inputs, kind=kind),
        report.extremal_hint,
    )


# -- coefficients from Caratheodory data -------------------------------------------


def caratheodory_to_coeffs(params: ClassParams, coeffs, p1, p2, p3):
    """(a2, a3, a4) of the class member induced by Caratheodory data p1, p2, p3.

    ``coeffs`` is the generator coefficient triple in either sign convention;
    the formulas are polynomial and array-friendly (numpy arrays broadcast).
    """
    g2, g3 = params.g2, params.g3
    h2, h3 = params.h2, params.h3
    u, v, w = params.u, params.v, params.w
    b1, b2, b3 = coeffs
    a2 = b1 * p1 / (2 * u)
    a3 = (b2 * p1**2 * u - b1 * (p1**2 - 2 * p2) * u + b1**2 * p1**2 * h2) / (4 * u * v)
    a4 = (
        p1 * (-2 * b2 * p1**2 + b3 * p1**2 + 4 * b2 * p2) * u * v
        + b1**3 * p1**3 * h2 * h3
        - b1**2 * p1 * (p1**2 - 2 * p2) * (g3 * h2 + (g2 - 2 * h2) * h3)
        + b1
        * (
            p1**3
            * (
                g2 * (g3 + (b2 - 1) * h3)
                + h2 * ((b2 - 1) * g3 + h3 - 2 * b2 * h3)
            )
            - 4 * p1 * p2 * u * v
            + 4 * p3 * u * v
        )
    ) / (8 * u * v * w)
    return a2, a3, a4


# -- fourth-coefficient machinery ----------------------------------------------------


def q_params_a4(params: ClassParams, coeffs):
    """(q1, q2) of the cubic Schwarz functional controlling |a4|."""
    u, v = params.u, params.v
    h2, h3 = params.h2, params.h3
    g2, g3 = params.g2, params.g3
    b1, b2, b3 = coeffs
    denom = b1 * u * v
    cross = g3 * h2 + g2 * h3 - 2 * h2 * h3
    q1 = (2 * b2 * u * v + b1**2 * cross) / denom
    q2 = (b3 * u * v + b1**3 * h2 * h3 + b1 * b2 * cross) / denom
    return q1, q2


def q_params_a2a3_a4(params: ClassParams, coeffs):
    """(q1, q2) of the cubic Schwarz functional controlling |a2 a3 - a4|."""
    u, v = params.u, params.v
    g2, g3, g4 = params.g2, params.g3, params.g4
    h2, h3, h4 = params.h2, params.h3, params.h4
    b1, b2, b3 = coeffs
    denom = b1 * u * u * v
    cross = -g4 + g3 * h2 + g2 * h3 - 2 * h2 * h3 + h4
    q1 = (2 * b2 * u * u * v + b1**2 * u * cross) / denom
    q2 = (
        b3 * u * u * v
        + b1 * b2 * u * cross
        + b1**3 * h2 * (-g4 + g2 * h3 - h2 * h3 + h4)
    ) / denom
    return q1, q2


@dataclass(frozen=True)
class SchwarzMax:
    """Attained lower bound for a Schwarz-coefficient functional maximum."""

    value: float
    xi: float
    eta: complex
    zeta: complex


def _schwarz_inner(q1: float, q2: float, xi, eta):
    """The zeta-free part q2 xi^3 + q1 xi (1-xi^2) eta - xi (1-xi^2) eta^2.

    Uses c1 = xi (rotated real), c2 = (1-xi^2) eta,
    c3 = (1-xi^2)((1-|eta|^2) zeta - xi eta^2) in c3 + q1 c1 c2 + q2 c1^3.
    """
    one_m_xi2 = 1 - xi**2
    return q2 * xi**3 + q1 * xi * one_m_xi2 * eta - xi * one_m_xi2 * eta**2


def _schwarz_cubic_objective(q1: float, q2: float, xi, eta):
    """|c3 + q1 c1 c2 + q2 c1^3| with zeta aligned to the zeta-free part."""
    import numpy as np

    return (1 - xi**2) * (1 - np.abs(eta) ** 2) + np.abs(_schwarz_inner(q1, q2, xi, eta))


def minimize(fun, x0, xatol: float, fatol: float):
    """Nelder-Mead minimum of ``fun`` from ``x0``, as an object with x, fun, nfev.

    The unbounded, non-adaptive simplex method: reflection 1, expansion 2,
    contraction 1/2, shrink 1/2.  Each step does the same numpy operations in
    the same order as the reference implementation that
    ``tests/test_bounds.py`` compares it with, so x, fun and nfev agree with
    it bit for bit.  The initial simplex scales each coordinate of x0 by
    1.05, or sets it to 0.00025 where it is zero.  As in the reference, the
    simplex is sorted twice after the first evaluations and once after every
    step; the search stops, with no further sort, once every vertex lies
    within ``xatol`` and every value within ``fatol`` of the best, or after
    1999 steps (``maxiter`` 2000).  :func:`grid_then_polish` looks this name
    up at call time, so a wrapper assigned to it sees every polish.
    """
    import numpy as np

    nfev = 0

    def f(x):
        nonlocal nfev
        nfev += 1
        return fun(np.copy(x))

    x0 = np.asarray(x0, dtype=float).ravel()
    n = len(x0)
    sim = np.empty((n + 1, n))
    sim[:] = x0
    for k in range(n):
        sim[k + 1, k] = 1.05 * x0[k] if x0[k] != 0 else 0.00025
    fsim = np.array([f(v) for v in sim], dtype=float)
    for _ in range(2):  # argsort may reorder ties even when sorted: sort where the reference does
        ind = np.argsort(fsim)
        sim = np.take(sim, ind, 0)
        fsim = np.take(fsim, ind, 0)
    for _ in range(1999):
        if (np.max(np.abs(sim[1:] - sim[0])) <= xatol
                and np.max(np.abs(fsim[0] - fsim[1:])) <= fatol):
            break
        xbar = np.add.reduce(sim[:-1], 0) / n
        xr = 2 * xbar - sim[-1]
        fxr = f(xr)
        if fxr < fsim[0]:
            xe = 3 * xbar - 2 * sim[-1]
            fxe = f(xe)
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:
            if fxr < fsim[-1]:  # outside contraction
                xc = 1.5 * xbar - 0.5 * sim[-1]
                fxc = f(xc)
                shrink = not fxc <= fxr
            else:  # inside contraction
                xc = 0.5 * xbar + 0.5 * sim[-1]
                fxc = f(xc)
                shrink = not fxc < fsim[-1]
            if shrink:
                for j in range(1, n + 1):
                    sim[j] = sim[0] + 0.5 * (sim[j] - sim[0])
                    fsim[j] = f(sim[j])
            else:
                sim[-1], fsim[-1] = xc, fxc
        ind = np.argsort(fsim)
        sim = np.take(sim, ind, 0)
        fsim = np.take(fsim, ind, 0)
    return SimpleNamespace(x=sim[0], fun=np.min(fsim), nfev=nfev)


def polar_grid(top: float, density: int):
    """Grid t in [0, top] x rho in [0, 1] x phi in [0, 2 pi) as broadcastable axes.

    Returns (t, rho, phi, x) with shapes (d,1,1), (1,d,1), (1,1,d) and the
    disk points x = rho e^(i phi) of shape (1,d,d).
    """
    import numpy as np

    t = np.linspace(0.0, top, density)[:, None, None]
    rho = np.linspace(0.0, 1.0, density)[None, :, None]
    phi = np.linspace(0.0, 2 * np.pi, density, endpoint=False)[None, None, :]
    return t, rho, phi, rho * np.exp(1j * phi)


def grid_then_polish(on_grid, neg, top: float, density: int, xatol: float, fatol: float):
    """Maximum of a function of (t, x) by polar-grid argmax and a simplex polish.

    ``on_grid(t, x)`` evaluates the function on :func:`polar_grid` arrays;
    ``neg((t, rho, phi))`` is its negation at one point, clamping the point
    into the region itself.  Returns (value, point) of the better of the grid
    argmax and the Nelder-Mead polish started from it.
    """
    import numpy as np

    t, rho, phi, x = polar_grid(top, density)
    vals = on_grid(t, x)
    i, j, k = np.unravel_index(int(np.argmax(vals)), vals.shape)
    start = (float(t[i, 0, 0]), float(rho[0, j, 0]), float(phi[0, 0, k]))
    best = float(vals[i, j, k])
    res = minimize(neg, np.array(start), xatol=xatol, fatol=fatol)
    if -res.fun > best:
        return -res.fun, res.x
    return best, start


def schwarz_functional_H(q1: float, q2: float, grid_density: int = 64) -> SchwarzMax:
    """Numerical maximum of |c3 + q1 c1 c2 + q2 c1^3| over Schwarz coefficients.

    Grid over xi in [0,1] (rotation-normalized), eta in the closed unit disk,
    with the unimodular third parameter aligned in closed form, followed by a
    simplex polish.  The result is an attained lower bound of the true
    supremum: a sampled maximum, with no certificate.  For the inputs arising
    here the maximizer sits at a grid vertex and the value is exact.
    """
    if grid_density < 32:
        raise ValueError("grid_density must be at least 32")
    import numpy as np

    q1 = float(q1)
    q2 = float(q2)

    def neg(x):
        xi_c = min(max(x[0], 0.0), 1.0)
        rho_c = min(max(x[1], 0.0), 1.0)
        e = rho_c * np.exp(1j * x[2])
        return -float(_schwarz_cubic_objective(q1, q2, xi_c, e))

    best_val, (xi_b, rho_b, phi_b) = grid_then_polish(
        lambda xi, eta: _schwarz_cubic_objective(q1, q2, xi, eta), neg,
        1.0, grid_density, 1e-9, 1e-12)
    xi_b, rho_b = min(max(xi_b, 0.0), 1.0), min(max(rho_b, 0.0), 1.0)
    eta_b = rho_b * np.exp(1j * phi_b)
    inner = _schwarz_inner(q1, q2, xi_b, eta_b)
    zeta_b = inner / abs(inner) if abs(inner) > 0 else 1.0
    return SchwarzMax(best_val, xi_b, complex(eta_b), complex(zeta_b))


def _cubic_bound(q_params, params: ClassParams, coeffs, grid_density: int) -> BoundReport:
    """|B1|/(g4-h4) * H(q1, q2) for the (q1, q2) that ``q_params`` assigns."""
    q1, q2 = q_params(params, coeffs)
    h = schwarz_functional_H(float(q1), float(q2), grid_density)
    return BoundReport(
        abs(coeffs[0]) / params.w * h.value,
        "schwarz_cubic",
        {"q1": q1, "q2": q2, "xi": h.xi},
    )


def a4_bound(params: ClassParams, coeffs, grid_density: int = 64) -> BoundReport:
    """|a4| <= |B1|/(g4-h4) * H(q1, q2), H evaluated by the maximization oracle."""
    return _cubic_bound(q_params_a4, params, coeffs, grid_density)


def a2a3_a4_bound(params: ClassParams, coeffs, grid_density: int = 64) -> BoundReport:
    """|a2 a3 - a4| <= |B1|/(g4-h4) * H(q1, q2) with the shifted q-parameters."""
    return _cubic_bound(q_params_a2a3_a4, params, coeffs, grid_density)


# -- closed-form table for the logarithmic family -------------------------------------


def _as_exact(alpha):
    """Lift int/float alpha to Fraction when it is exactly representable."""
    if isinstance(alpha, Fraction):
        return alpha
    if isinstance(alpha, int):
        return Fraction(alpha)
    if isinstance(alpha, float) and float(Fraction(alpha)) == alpha:
        return Fraction(alpha)
    return alpha


def _check_alpha(alpha):
    if not 0 <= alpha <= 1:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    return _as_exact(alpha)


def sl_threshold_sign(alpha):
    """Sign of 11 a^2 - 4 a - 1; zero at a = (2 + sqrt 15)/11, the branch point."""
    val = 11 * alpha * alpha - 4 * alpha - 1
    return (val > 0) - (val < 0)


def a2_bound_sl(alpha) -> BoundReport:
    alpha = _check_alpha(alpha)
    return BoundReport(1 / (1 + alpha), "sl-a2", {"alpha": alpha},
                       "convolution ratio equal to the generator (rotations)")


def a3_bound_sl(alpha) -> BoundReport:
    alpha = _check_alpha(alpha)
    return BoundReport(Fraction(3, 4) / (1 + 2 * alpha), "sl-a3", {"alpha": alpha},
                       "convolution ratio equal to the generator (rotations)")


def fekete_szego_sl(alpha, t) -> BoundReport:
    alpha = _check_alpha(alpha)
    return fekete_szego(alpha_class_params(alpha), PSI_COEFFS, t)


def h2_bound_sl(alpha) -> BoundReport:
    """|a2 a4 - a3^2| table value for the logarithmic family.

    Below the branch point this equals the general case1 value 1/(4(1+2a)^2).
    Above it the tabulated closed form is returned; note it dips slightly
    below the general case3 value, so the brute-force oracle is compared
    against :func:`second_hankel` instead of this table entry.
    """
    alpha = _check_alpha(alpha)
    if sl_threshold_sign(alpha) <= 0:
        return BoundReport(
            Fraction(1, 4) / (1 + 2 * alpha) ** 2,
            "case1",
            {"alpha": alpha},
            "convolution ratio equal to the generator at z^2 (rotations)",
        )
    num = 31 * alpha**4 + 136 * alpha**3 - 14 * alpha**2 - 24 * alpha - 3
    den = (
        2
        * (61 * alpha**2 - 20 * alpha - 5)
        * (1 + alpha)
        * (1 + 3 * alpha)
        * (1 + 2 * alpha) ** 2
    )
    return BoundReport(num / den, "case3", {"alpha": alpha})


def a4_bound_sl(alpha) -> BoundReport:
    alpha = _check_alpha(alpha)
    return BoundReport(
        Fraction(19, 36) / (1 + 3 * alpha),
        "sl-a4",
        {"alpha": alpha},
        "convolution ratio equal to the generator (rotations)",
    )


def a2a3_a4_bound_sl(alpha) -> BoundReport:
    alpha = _check_alpha(alpha)
    return BoundReport(
        Fraction(1, 3) / (1 + 3 * alpha),
        "sl-a2a3a4",
        {"alpha": alpha},
        "convolution ratio equal to the generator at z^3 (rotations)",
    )


def a5_bound_sl(alpha) -> BoundReport:
    alpha = _check_alpha(alpha)
    return BoundReport(
        Fraction(107, 288) / (1 + 4 * alpha),
        "sl-a5",
        {"alpha": alpha},
        "convolution ratio equal to the generator (rotations)",
    )


def h3_bound_sl_alpha(alpha) -> BoundReport:
    """Third-Hankel estimate assembled from the five sharp functional bounds."""
    alpha = _check_alpha(alpha)
    if sl_threshold_sign(alpha) <= 0:
        num = (
            949
            + 11388 * alpha
            + 52493 * alpha**2
            + 114974 * alpha**3
            + 117180 * alpha**4
            + 42568 * alpha**5
        )
        den = 1728 * (1 + 4 * alpha) * (1 + 3 * alpha) ** 2 * (1 + 2 * alpha) ** 4
        return BoundReport(num / den, "sl-h3-case1", {"alpha": alpha})
    num = (
        -5069
        - 76035 * alpha
        - 385994 * alpha**2
        - 619570 * alpha**3
        + 831511 * alpha**4
        + 3545777 * alpha**5
        + 3327024 * alpha**6
        + 1298324 * alpha**7
    )
    den = (
        1728
        * (1 + alpha)
        * (1 + 4 * alpha)
        * (1 + 3 * alpha) ** 2
        * (1 + 2 * alpha) ** 3
        * (61 * alpha**2 - 20 * alpha - 5)
    )
    return BoundReport(num / den, "sl-h3-case3", {"alpha": alpha})


def h3_bound_sl_star() -> BoundReport:
    """Sharp |H3(1)| bound for the starlike logarithmic class."""
    return BoundReport(
        Fraction(1, 9),
        "sl-star",
        {},
        "starlike structural function of the generator at z^3",
    )


def h3_assembled_sl(alpha):
    """|a3| H2 + |a4| |a2a3 - a4| + |a5| |a3 - a2^2| from the table entries."""
    alpha = _check_alpha(alpha)
    return (
        a3_bound_sl(alpha).value * h2_bound_sl(alpha).value
        + a4_bound_sl(alpha).value * a2a3_a4_bound_sl(alpha).value
        + a5_bound_sl(alpha).value * fekete_szego_sl(alpha, 1).value
    )


def sl_bound_table(alpha) -> dict:
    """All closed-form functional bounds of the logarithmic family at alpha."""
    alpha = _check_alpha(alpha)
    return {
        "a2": a2_bound_sl(alpha).value,
        "a3": a3_bound_sl(alpha).value,
        "fekete_t1": fekete_szego_sl(alpha, 1).value,
        "h2": h2_bound_sl(alpha).value,
        "a4": a4_bound_sl(alpha).value,
        "a2a3_a4": a2a3_a4_bound_sl(alpha).value,
        "a5": a5_bound_sl(alpha).value,
        "h3": h3_bound_sl_alpha(alpha).value,
    }
