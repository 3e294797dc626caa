"""Truncated Maclaurin-series arithmetic over complex coefficients.

A :class:`TruncatedSeries` holds the coefficients ``c0, c1, ..., cN`` of the
polynomial ``c0 + c1*z + ... + cN*z**N`` standing in for an analytic function
near the origin.  Everything in this package (generator functions, extremal
functions, subordination witnesses) is carried by this type.

Coefficients may be ``int``, ``float``, ``complex`` or
:class:`fractions.Fraction`.  The ring operations and the exp/log/compose
recurrences only ever divide by small integers, so feeding exact rationals in
gives exact rationals out; that is the "exact path" used for the fixed
rational fixtures in the tests.  Instances are immutable and every operation
is a pure function, so values can be shared freely across threads.
"""

from __future__ import annotations

import cmath
import warnings
from fractions import Fraction
from typing import Iterable

Number = complex | float | int | Fraction

__all__ = ["TruncatedSeries", "Z"]


def _is_finite(c: Number) -> bool:
    if isinstance(c, (int, Fraction)):
        return True
    if isinstance(c, complex):
        return cmath.isfinite(c)
    try:
        return cmath.isfinite(complex(c))
    except (TypeError, ValueError, OverflowError):
        return False


def _div_int(value: Number, k: int) -> Number:
    """value / k, staying exact for int and Fraction inputs."""
    if isinstance(value, (int, Fraction)):
        return Fraction(value, k)
    return value / k


class TruncatedSeries:
    """Maclaurin polynomial ``c0 + c1 z + ... + cN z**N`` of order ``N``."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Number]):
        coeffs = tuple(coeffs)
        if not coeffs:
            raise ValueError("a series needs at least the constant coefficient")
        for k, c in enumerate(coeffs):
            if not _is_finite(c):
                raise ValueError(f"non-finite coefficient at index {k}: {c!r}")
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("TruncatedSeries is immutable")

    # -- basics ------------------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, k: int) -> Number:
        """Coefficient of z**k (0 for k beyond the truncation order)."""
        if k < 0:
            raise IndexError("negative coefficient index")
        return self.coeffs[k] if k <= self.order else 0

    def __len__(self) -> int:
        return len(self.coeffs)

    def __repr__(self) -> str:
        return f"TruncatedSeries({list(self.coeffs)!r})"

    def padded(self, order: int) -> "TruncatedSeries":
        """Same series, zero-padded (or cut) to the given order."""
        if order == self.order:
            return self
        if order < self.order:
            return TruncatedSeries(self.coeffs[: order + 1])
        return TruncatedSeries(self.coeffs + (0,) * (order - self.order))

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "TruncatedSeries | Number") -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            c = list(self.coeffs)
            c[0] = c[0] + other
            return TruncatedSeries(c)
        n = max(self.order, other.order)
        return TruncatedSeries(
            self[k] + other[k] for k in range(n + 1)
        )

    __radd__ = __add__

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries(-c for c in self.coeffs)

    def __sub__(self, other: "TruncatedSeries | Number") -> "TruncatedSeries":
        return self + (-other)

    def __rsub__(self, other: Number) -> "TruncatedSeries":
        return (-self) + other

    def mul(self, other: "TruncatedSeries", order: int | None = None) -> "TruncatedSeries":
        """Cauchy product truncated at ``order`` (default: max of the inputs)."""
        if order is None:
            order = max(self.order, other.order)
        out = []
        for n in range(order + 1):
            lo = max(0, n - other.order)
            hi = min(n, self.order)
            acc = 0
            for j in range(lo, hi + 1):
                acc = acc + self.coeffs[j] * other.coeffs[n - j]
            out.append(acc)
        return TruncatedSeries(out)

    def __mul__(self, other: "TruncatedSeries | Number") -> "TruncatedSeries":
        if isinstance(other, TruncatedSeries):
            return self.mul(other)
        return TruncatedSeries(c * other for c in self.coeffs)

    def __rmul__(self, other: Number) -> "TruncatedSeries":
        return self * other

    # -- calculus ----------------------------------------------------------

    def derivative(self) -> "TruncatedSeries":
        if self.order == 0:
            return TruncatedSeries([0])
        return TruncatedSeries(k * self.coeffs[k] for k in range(1, self.order + 1))

    def antiderivative(self) -> "TruncatedSeries":
        """Termwise antiderivative vanishing at 0; order grows by one."""
        out: list[Number] = [0]
        out.extend(_div_int(self.coeffs[k], k + 1) for k in range(self.order + 1))
        return TruncatedSeries(out)

    def shifted(self, m: int = 1) -> "TruncatedSeries":
        """Multiply by z**m (order grows by m)."""
        return TruncatedSeries((0,) * m + self.coeffs)

    # -- transcendental operations ------------------------------------------

    def exp(self, order: int | None = None) -> "TruncatedSeries":
        """exp of a series with zero constant term.

        Uses the recurrence (exp a)' = a' * exp a, i.e.
        b_m = (1/m) * sum_{j=1..m} j * a_j * b_{m-j},  b_0 = 1.
        """
        if self.coeffs[0] != 0:
            raise ValueError("exp needs a zero constant term")
        if order is None:
            order = self.order
        a = self.padded(order)
        b: list[Number] = [1]
        for m in range(1, order + 1):
            acc = 0
            for j in range(1, m + 1):
                acc = acc + j * a.coeffs[j] * b[m - j]
            b.append(_div_int(acc, m))
        return TruncatedSeries(b)

    def log1p(self, order: int | None = None) -> "TruncatedSeries":
        """log(1 + a) for a with zero constant term (principal branch).

        Computed from L' = a' / (1 + a); the constant term of the result is 0.
        """
        if self.coeffs[0] != 0:
            raise ValueError("log1p needs a zero constant term")
        if order is None:
            order = self.order
        a = self.padded(order)
        inv = (1 + a).reciprocal(order)
        integrand = a.derivative().mul(inv, order - 1 if order > 0 else 0)
        return integrand.antiderivative().padded(order)

    def reciprocal(self, order: int | None = None) -> "TruncatedSeries":
        """1 / a for a with nonzero constant term."""
        if self.coeffs[0] == 0:
            raise ZeroDivisionError("cannot invert a series with zero constant term")
        if order is None:
            order = self.order
        a = self.padded(order)
        c0 = a.coeffs[0]
        if isinstance(c0, (int, Fraction)):
            r: list[Number] = [Fraction(1) / c0]
        else:
            r = [1 / c0]
        for m in range(1, order + 1):
            acc = 0
            for j in range(1, m + 1):
                acc = acc + a.coeffs[j] * r[m - j]
            r.append(-acc / c0)
        return TruncatedSeries(r)

    def divide(self, other: "TruncatedSeries", order: int | None = None) -> "TruncatedSeries":
        """self / other, other having a nonzero constant term."""
        if order is None:
            order = max(self.order, other.order)
        return self.mul(other.reciprocal(order), order)

    def compose(self, inner: "TruncatedSeries", order: int | None = None) -> "TruncatedSeries":
        """self(inner(z)) truncated at ``order``; inner must vanish at 0."""
        if inner.coeffs[0] != 0:
            raise ValueError("composition needs an inner series with zero constant term")
        if order is None:
            order = max(self.order, inner.order)
        inner = inner.padded(order)
        result = TruncatedSeries([self.coeffs[self.order]]).padded(order)
        for k in range(self.order - 1, -1, -1):
            result = result.mul(inner, order) + self.coeffs[k]
        return result

    def integrate_over_t(self) -> "TruncatedSeries":
        """For q with q(0) = 1: the integral of (q(t) - 1)/t from 0 to z.

        Equals sum_{k>=1} c_k z^k / k; rejects q(0) != 1 because the integrand
        would have a pole at the origin.
        """
        if self.coeffs[0] != 1:
            raise ValueError("integrand (q-1)/t has a pole unless q(0) = 1")
        out: list[Number] = [0]
        out.extend(_div_int(self.coeffs[k], k) for k in range(1, self.order + 1))
        return TruncatedSeries(out)

    # -- evaluation ----------------------------------------------------------

    def __call__(self, z: Number) -> complex:
        """Horner evaluation of the truncated polynomial at z."""
        if abs(complex(z)) > 1 + 1e-12:
            warnings.warn(
                "evaluating a truncated Maclaurin series outside the closed "
                "unit disk; the truncation error is uncontrolled",
                stacklevel=2,
            )
        acc: Number = 0
        for c in reversed(self.coeffs):
            acc = acc * z + c
        return acc


Z = TruncatedSeries([0, 1])
