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
rational arithmetic; its third Hankel estimate is assembled from the other
entries of that table.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from operator import add
from types import SimpleNamespace
from typing import Any

__all__ = [
    "ClassParams",
    "PhiCoeffs",
    "BoundReport",
    "alpha_class_params",
    "SYMMETRIC_STARLIKE_PARAMS",
    "SYMMETRIC_CONVEX_PARAMS",
    "fekete_szego",
    "fekete_szego_positive",
    "max_quadratic_0_4",
    "second_hankel",
    "second_hankel_symmetric",
    "q_params_a4",
    "q_params_a2a3_a4",
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


class ClassParams(namedtuple("ClassParams", "g2 g3 g4 h2 h3 h4")):
    """Convolution weights of the two kernels (n = 2, 3, 4 terms)."""

    __slots__ = ()

    def __new__(cls, g2: Any, g3: Any, g4: Any, h2: Any, h3: Any, h4: Any):
        for n, (g, h) in enumerate(((g2, h2), (g3, h3), (g4, h4)), start=2):
            if not g > 0:
                raise ValueError(f"g{n} must be positive, got {g}")
            if h < 0:
                raise ValueError(f"h{n} must be nonnegative, got {h}")
            if not g - h > 0:
                raise ValueError(f"g{n} - h{n} must be positive, got {g} - {h}")
        return super().__new__(cls, g2, g3, g4, h2, h3, h4)

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


class PhiCoeffs(namedtuple("PhiCoeffs", "b1 b2 b3")):
    """First three expansion coefficients of a generator with B1 > 0."""

    __slots__ = ()

    def __new__(cls, b1: Any, b2: Any, b3: Any):
        if not b1 > 0:
            raise ValueError(f"leading coefficient must be positive, got {b1}")
        return super().__new__(cls, b1, b2, b3)

    @classmethod
    def from_counterpart(cls, c1, c2, c3) -> "PhiCoeffs":
        """Map coefficients of a negative-slope generator: B_i = (-1)^i C_i."""
        if not c1 < 0:
            raise ValueError(f"counterpart form needs a negative leading coefficient, got {c1}")
        return cls(-c1, c2, -c3)


class BoundReport(namedtuple("BoundReport", "value case_label inputs extremal_hint")):
    __slots__ = ()

    def __new__(cls, value: Any, case_label: str, inputs: dict | None = None,
                extremal_hint: str | None = None):
        # a fresh dict per report, never one shared default
        return super().__new__(cls, value, case_label, {} if inputs is None else inputs,
                               extremal_hint)

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


# -- fourth-coefficient machinery ----------------------------------------------------


def q_params_a4(params: ClassParams, coeffs):
    """(q1, q2) of the paper's reduction a4 = (B1/w)(c3 + q1 c1 c2 + q2 c1^3) in the
    Schwarz coefficients c_k; no oracle uses it, the tests check it against them."""
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
    """(q1, q2) of the reduction a4 - a2 a3 = (B1/w)(c3 + q1 c1 c2 + q2 c1^3)."""
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


def minimize(fun, x0, xatol: float, fatol: float):
    """Nelder-Mead minimum of ``fun`` from ``x0``, as an object with x, fun, nfev.

    The unbounded, non-adaptive simplex method: reflection 1, expansion 2,
    contraction 1/2, shrink 1/2, on scipy's trajectory: ``tests/test_bounds.py``
    checks that x, fun and nfev agree bit for bit with scipy's Nelder-Mead and
    with the numpy simplex it keeps as a reference.  The steps run on Python
    floats with the rounding of numpy's: ``fun`` gets each vertex as a tuple of
    floats, the centroid adds the vertices left to right as ``np.add.reduce``
    does over the rows (not by ``sum``, which is compensated from Python 3.12
    on), and each sort is ``np.argsort`` of the values, so that ties keep
    numpy's order; the Hankel polish meets ties where the clamp of rho to
    [0, 1] flattens its objective.  The initial simplex
    scales each coordinate of x0 by 1.05, or sets it to 0.00025 where it is
    zero.  As in the reference, the simplex is sorted twice after the first
    evaluations and once after every step; the search stops, with no further
    sort, once every value lies within ``fatol`` and every vertex within
    ``xatol`` of the best, or after 1999 steps (``maxiter`` 2000).  The Hankel
    oracle looks this name up at call time, so a wrapper assigned to it sees
    every polish.
    """
    import numpy as np

    nfev = 0

    def f(x):
        nonlocal nfev
        nfev += 1
        return float(fun(x))

    def sort(sim, fsim):
        ind = np.array(fsim).argsort().tolist()
        return [sim[i] for i in ind], [fsim[i] for i in ind]

    x0 = np.asarray(x0, dtype=float).ravel().tolist()
    n = len(x0)
    sim = [tuple(x0)]
    for k in range(n):
        v = list(x0)
        v[k] = 1.05 * v[k] if v[k] != 0 else 0.00025
        sim.append(tuple(v))
    fsim = [f(v) for v in sim]
    for _ in range(2):  # argsort may reorder ties even when sorted: sort where the reference does
        sim, fsim = sort(sim, fsim)
    for _ in range(1999):
        best, fbest = sim[0], fsim[0]
        if (all(abs(fbest - fv) <= fatol for fv in fsim[1:])
                and all(abs(c - b) <= xatol for v in sim[1:] for c, b in zip(v, best))):
            break
        total = sim[0]
        for v in sim[1:-1]:
            total = list(map(add, total, v))
        xbar, worst = [t / n for t in total], sim[-1]
        xr = tuple(2 * b - w for b, w in zip(xbar, worst))
        fxr = f(xr)
        if fxr < fsim[0]:
            xe = tuple(3 * b - 2 * w for b, w in zip(xbar, worst))
            fxe = f(xe)
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:
            if fxr < fsim[-1]:  # outside contraction
                xc = tuple(1.5 * b - 0.5 * w for b, w in zip(xbar, worst))
                fxc = f(xc)
                shrink = not fxc <= fxr
            else:  # inside contraction
                xc = tuple(0.5 * b + 0.5 * w for b, w in zip(xbar, worst))
                fxc = f(xc)
                shrink = not fxc < fsim[-1]
            if shrink:
                for j in range(1, n + 1):
                    sim[j] = tuple(b + 0.5 * (c - b) for b, c in zip(best, sim[j]))
                    fsim[j] = f(sim[j])
            else:
                sim[-1], fsim[-1] = xc, fxc
        sim, fsim = sort(sim, fsim)
    return SimpleNamespace(x=np.array(sim[0]), fun=np.min(fsim), nfev=nfev)


def _cubic_oracle(functional, label, params: ClassParams, coeffs, grid_density) -> BoundReport:
    """|functional(a2, a3, a4)| maximized over the class on ``grid_density`` rows c1 = xi.

    Rotate the Schwarz function so that xi lies in [0, 1]; its Schur parameters
    eta, zeta give c2 = s eta, c3 = s ((1 - |eta|^2) zeta - xi eta^2), s = 1 - xi^2.
    At fixed xi the functional is A + B c2 + C c3, real for a real generator,
    read off :func:`gft.verify._class_coefficients` at (c2, c3) = (0, 0),
    (1, 0), (0, 1).  The best zeta leaves |A + B s eta - C s xi eta^2| +
    |C| s (1 - |eta|^2), maximized over the eta disk by :func:`gft.verify.disk_max`.
    """
    from .verify import (
        _class_coefficients, check_density, disk_max, finite_coefficients, finite_grid)

    grid_density = check_density(grid_density)
    coeffs = finite_coefficients(coeffs)
    import numpy as np

    xi = np.linspace(0.0, 1.0, grid_density)
    omega = np.zeros((3, grid_density, 4), dtype=complex)  # (c2, c3) = 0, (1, 0), (0, 1)
    omega[..., 1] = xi
    omega[1, :, 2] = omega[2, :, 3] = 1
    with np.errstate(over="ignore", invalid="ignore"):  # finite_grid reports an overflow
        a, b, c = functional(*_class_coefficients(
            omega.reshape(-1, 4), [1.0, *coeffs],
            [1.0, float(params.h2), float(params.h3)],
            [float(params.u), float(params.v), float(params.w)])).reshape(omega.shape[:-1]).real
        b, c, s = b - a, c - a, 1 - xi**2  # A, B, C and s per row
        vals = finite_grid(disk_max(a, b * s, -(c * s * xi), np.abs(c) * s), coeffs)
    i = int(np.argmax(vals))
    return BoundReport(float(vals[i]), label, {"xi": float(xi[i])})


def a4_bound(params: ClassParams, coeffs, grid_density: int = 64) -> BoundReport:
    """|a4| over the class with generator coefficients ``coeffs``, by the grid oracle."""
    return _cubic_oracle(lambda a2, a3, a4: a4, "grid_a4", params, coeffs, grid_density)


def a2a3_a4_bound(params: ClassParams, coeffs, grid_density: int = 64) -> BoundReport:
    """|a2 a3 - a4| over the class with generator coefficients ``coeffs``, by the grid oracle."""
    return _cubic_oracle(lambda a2, a3, a4: a2 * a3 - a4, "grid_a2a3a4", params, coeffs, grid_density)


# -- closed-form table for the logarithmic family -------------------------------------


def _check_alpha(alpha):
    """alpha in [0, 1], an int or float lifted to the Fraction of its exact value."""
    if not 0 <= alpha <= 1:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    return Fraction(alpha) if isinstance(alpha, (int, float)) else alpha


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
    Above it the paper's printed case3 form is returned, which is refuted: it
    lies below an attained value (7/288 at a = 1, where the Hankel oracle
    reaches 0.0280934), so the oracle is compared with :func:`second_hankel`.
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
    """Third-Hankel estimate: the ``h3`` entry of :func:`sl_bound_table`."""
    alpha = _check_alpha(alpha)
    label = "sl-h3-case1" if sl_threshold_sign(alpha) <= 0 else "sl-h3-case3"
    return BoundReport(sl_bound_table(alpha)["h3"], label, {"alpha": alpha})


def h3_bound_sl_star() -> BoundReport:
    """Sharp |H3(1)| bound for the starlike logarithmic class."""
    return BoundReport(
        Fraction(1, 9),
        "sl-star",
        {},
        "starlike structural function of the generator at z^3",
    )


def sl_bound_table(alpha) -> dict:
    """All closed-form functional bounds of the logarithmic family at alpha.

    ``h3`` is assembled from the other entries by the triangle inequality,
    |a3| H2 + |a4| |a2 a3 - a4| + |a5| |a3 - a2^2|.
    """
    alpha = _check_alpha(alpha)
    table = {
        "a2": a2_bound_sl(alpha).value,
        "a3": a3_bound_sl(alpha).value,
        "fekete_t1": fekete_szego_sl(alpha, 1).value,
        "h2": h2_bound_sl(alpha).value,
        "a4": a4_bound_sl(alpha).value,
        "a2a3_a4": a2a3_a4_bound_sl(alpha).value,
        "a5": a5_bound_sl(alpha).value,
    }
    table["h3"] = (table["a3"] * table["h2"] + table["a4"] * table["a2a3_a4"]
                   + table["a5"] * table["fekete_t1"])
    return table
