"""Named catalog of generator functions with negative or positive leading slope.

Each entry is an analytic function Phi with Phi(0) = 1, real coefficients and
Phi(D) symmetric about the real axis, together with its Maclaurin coefficient
generator and a pointwise evaluator.  Entries come in sign-mirrored pairs
(Phi(z) and Phi(-z) share the same image with opposite boundary orientation);
:func:`counterpart` maps between them and builds the mirror of each base entry.

The logarithmic entry ``psi(z) = 1 - log(1+z)`` is the distinguished one: its
image region has the invertible boundary ``|exp(1-w) - 1| = 1``, which gives
the closed-form membership predicate :func:`in_psi_image` used throughout the
verification suites.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from . import CATALOG_NAMES, _as_int
from .series import TruncatedSeries

__all__ = [
    "MaMindaSpec",
    "ClassificationRecord",
    "CATALOG_NAMES",
    "make_spec",
    "counterpart",
    "classify",
    "in_psi_image",
]

REAL_COEFF_TOL = 1e-12
CLASSIFY_COEFFS = 40  # coefficients c_1..c_40 are checked for realness


@dataclass(frozen=True)
class MaMindaSpec:
    """A catalog generator: coefficient stream, evaluator, slope sign."""

    name: str
    coeff_exact: Callable[[int], Fraction]
    eval: Callable[[complex], complex]
    first_coeff_sign: int  # sign of the z-coefficient: -1 or +1

    def coeff(self, k: int) -> complex:
        return complex(self.coeff_exact(k))

    def series(self, order: int, exact: bool = False) -> TruncatedSeries:
        gen = self.coeff_exact if exact else self.coeff
        return TruncatedSeries(gen(k) for k in range(order + 1))

    def __call__(self, z: complex) -> complex:
        return self.eval(z)


def _half_binomial(k: int) -> Fraction:
    """Coefficient of z^k in (1+z)**(1/2): (-1)^(k+1) C(2k, k) / (4^k (2k-1))."""
    return Fraction((-1) ** (k + 1) * math.comb(2 * k, k), 4**k * (2 * k - 1))


def _psi_coeff(k: int) -> Fraction:
    if k == 0:
        return Fraction(1)
    return Fraction((-1) ** k, k)


def _cos_sqrt_z_coeff(k: int) -> Fraction:
    return Fraction((-1) ** k, math.factorial(2 * k))


def _cos_sqrt(z: complex) -> complex:
    # cos(sqrt(z)) is entire in z (even in sqrt(z)), so the branch is irrelevant
    return cmath.cos(cmath.sqrt(z))


_CATALOG: dict[str, tuple[Callable[[int], Fraction], Callable[[complex], complex]]] = {
    "psi": (_psi_coeff, lambda z: 1 - cmath.log(1 + z)),
    "sqrt_1_plus_z": (_half_binomial, lambda z: cmath.sqrt(1 + z)),
    "cos_sqrt_z": (_cos_sqrt_z_coeff, _cos_sqrt),
}

# each base generator and its mirror z -> base(-z), built by counterpart()
_MIRROR = {
    "psi": "one_minus_log_one_minus_z",
    "sqrt_1_plus_z": "sqrt_1_minus_z",
    "cos_sqrt_z": "cos_sqrt_minus_z",
}
_BASE = {mirror: base for base, mirror in _MIRROR.items()}

if CATALOG_NAMES != tuple(sorted([*_CATALOG, *_BASE])):
    raise ImportError("gft.CATALOG_NAMES must list every catalog entry and mirror, sorted")


@functools.cache
def make_spec(name: str) -> MaMindaSpec:
    """The catalog entry of a name, one spec per name; a mirror is the counterpart of its base."""
    base = _BASE.get(name, name)
    try:
        coeff_exact, evaluator = _CATALOG[base]
    except KeyError:
        raise ValueError(
            f"unknown generator {name!r}; available: {', '.join(CATALOG_NAMES)}"
        ) from None
    c0 = coeff_exact(0)
    c1 = coeff_exact(1)
    if c0 != 1:
        raise ValueError(f"catalog entry {name!r} broken: coeff(0) = {c0} != 1")
    if c1 == 0:
        raise ValueError(f"catalog entry {name!r} broken: coeff(1) = 0")
    spec = MaMindaSpec(
        name=base,
        coeff_exact=coeff_exact,
        eval=evaluator,
        first_coeff_sign=1 if c1 > 0 else -1,
    )
    return spec if base == name else counterpart(spec)


def counterpart(spec: MaMindaSpec) -> MaMindaSpec:
    """The mirrored generator z -> spec(-z); coefficients flip sign oddly."""
    base_exact = spec.coeff_exact
    base_eval = spec.eval
    return MaMindaSpec(
        name=_MIRROR.get(spec.name) or _BASE.get(spec.name, spec.name + "_counterpart"),
        coeff_exact=lambda k: -base_exact(k) if k % 2 else base_exact(k),
        eval=lambda z: base_eval(-z),
        first_coeff_sign=-spec.first_coeff_sign,
    )


@dataclass(frozen=True)
class ClassificationRecord:
    typically_real_shift: bool
    positive_real_part: bool
    real_coefficients: bool
    min_real_part: float


_CLASSIFY_RADII = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.99)


def classify(spec: MaMindaSpec, grid_size: int = 256) -> ClassificationRecord:
    """Grid-based classification of a generator.

    ``typically_real_shift`` is the sign test on the first coefficient (the
    shifted function Phi - 1 is typically real iff that coefficient is
    positive, given real coefficients).  ``positive_real_part`` scans a polar
    grid of `_CLASSIFY_RADII` x ``grid_size`` angles, and
    ``real_coefficients`` the first CLASSIFY_COEFFS coefficients.  This is a
    heuristic check, not a certificate.
    """
    grid_size = _as_int(grid_size, "grid_size", 64)  # 64.5 or True is no grid size
    circle = [cmath.exp(1j * (2 * math.pi * j / grid_size)) for j in range(grid_size)]
    min_re = math.inf
    for r in _CLASSIFY_RADII:
        for e in circle:
            w = spec.eval(r * e)
            if w.real < min_re:
                min_re = w.real
    max_imag = max(
        abs(complex(spec.coeff(k)).imag) for k in range(1, CLASSIFY_COEFFS + 1)
    )
    return ClassificationRecord(
        typically_real_shift=complex(spec.coeff(1)).real > 0,
        positive_real_part=min_re > 0,
        real_coefficients=max_imag < REAL_COEFF_TOL,
        min_real_part=min_re,
    )


def in_psi_image(w: complex) -> bool:
    """Membership in the image region of 1 - log(1+z) on the unit disk.

    w = 1 - log(1+z) for some |z| < 1  iff  |exp(1-w) - 1| < 1.
    """
    return abs(cmath.exp(1 - w) - 1) < 1.0
