"""Truncated Maclaurin-series arithmetic over complex coefficients.

A :class:`TruncatedSeries` holds the coefficients ``c0, c1, ..., cN`` of the
polynomial ``c0 + c1*z + ... + cN*z**N`` standing in for an analytic function
near the origin.  Everything in this package (generator functions, extremal
functions, subordination witnesses) is carried by this type.

Coefficients may be ``int``, ``float``, ``complex`` or
:class:`fractions.Fraction`.  The ring operations and the exp, reciprocal and
compose recurrences only ever divide by small integers or the constant term,
so feeding exact rationals in gives exact rationals out; that is the "exact
path" used for the fixed rational fixtures in the tests.  On that path ``exp``
and ``compose`` run on integer numerators over a common denominator and build
one ``Fraction`` per output coefficient, with the values and per-coefficient
types (``int`` or ``Fraction``) that the term-by-term rational arithmetic
gives; the Cauchy product and ``reciprocal`` run term by term on every input.
Instances are immutable and every operation is a pure function, so values
can be shared freely across threads.
"""

from __future__ import annotations

import cmath
import math
import operator
import sys
import warnings
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:
    import numpy as np

Number = complex | float | int | Fraction

__all__ = ["TruncatedSeries", "Z"]

_OUTSIDE_DISK = (
    "evaluating a truncated Maclaurin series outside the closed "
    "unit disk; the truncation error is uncontrolled"
)


def _index(value) -> int | None:
    """``value`` as an int, or None: an ``np.int64`` passes, a bool, 40.0 or "3" does not."""
    if isinstance(value, bool) or not hasattr(type(value), "__index__"):
        return None
    return operator.index(value)


def _as_int(value, name: str, least: int) -> int:
    """``value`` as an int >= ``least``, by :func:`_index`."""
    if (n := _index(value)) is None:
        raise ValueError(f"{name} must be an int, got {value!r}")
    if n < least:
        raise ValueError(f"{name} must be at least {least}")
    return n


def _is_finite(c: Number) -> bool:
    # exact types first: an isinstance test against Fraction goes through ABCMeta
    kind = type(c)
    if kind is int or kind is Fraction:
        return True
    if kind is float:
        return math.isfinite(c)
    if kind is complex:
        return cmath.isfinite(c)
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


def _all_exact(coeffs: tuple) -> bool:
    return all(isinstance(c, (int, Fraction)) for c in coeffs)


def _integer_numerators(coeffs: tuple) -> tuple[list[int], int]:
    """Exact coefficients as integer numerators ``n`` over their common denominator
    ``d``: ``coeffs[k] == n[k] / d``."""
    d = math.lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (d // c.denominator) for c in coeffs], d


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
        """Cauchy product truncated at ``order`` (default: max of the inputs).

        Coefficient n is the sum of ``self[j] * other[n-j]`` over the j where
        both factors exist, in increasing j; on exact input it is an ``int``
        when no ``Fraction`` enters its terms, a ``Fraction`` otherwise.
        """
        if order is None:
            order = max(self.order, other.order)
        a, b = self.coeffs, other.coeffs
        top_a, top_b = len(a) - 1, len(b) - 1
        out = []
        for n in range(order + 1):
            acc = 0
            for j in range(max(0, n - top_b), min(n, top_a) + 1):
                acc = acc + a[j] * b[n - j]
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
        When every a_j is an ``int`` or a ``Fraction`` the sums run on integer
        numerators and give ``1`` then ``Fraction`` coefficients: the earlier
        b_i are kept as integer numerators over the running lcm ``den`` of their
        denominators, rescaled only when ``den`` grows, so each b_m is one
        integer sum and one ``Fraction``.  Otherwise the sums run term by term,
        left to right.
        """
        if self.coeffs[0] != 0:
            raise ValueError("exp needs a zero constant term")
        if order is None:
            order = self.order
        a = self.padded(order).coeffs
        weights = [j * c for j, c in enumerate(a)]
        b: list[Number] = [1]
        if _all_exact(a):
            weights, d = _integer_numerators(weights)
            numerators, den = [1], 1
            for m in range(1, order + 1):
                c = Fraction(sum(map(operator.mul, weights[m:0:-1], numerators)), d * m * den)
                b.append(c)
                grow = c.denominator // math.gcd(den, c.denominator)
                if grow > 1:
                    numerators = [x * grow for x in numerators]
                    den *= grow
                numerators.append(c.numerator * (den // c.denominator))
            return TruncatedSeries(b)
        for m in range(1, order + 1):
            acc = 0
            for j in range(1, m + 1):  # no sum(): it rounds floats differently from 3.12 on
                acc = acc + weights[j] * b[m - j]
            b.append(_div_int(acc, m))
        return TruncatedSeries(b)

    def reciprocal(self, order: int | None = None) -> "TruncatedSeries":
        """1 / a for a with nonzero constant term.

        r_m = -(1/a_0) * sum_{j=1..m} a_j * r_{m-j}, summed left to right.  For an
        ``int`` or ``Fraction`` a_0 every r_m of exact input is a ``Fraction``.
        """
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
        """self(inner(z)) truncated at ``order``; inner must vanish at 0.

        Horner's scheme: result = result * inner + c_k from the top coefficient
        down.  When every coefficient of both series is an ``int`` or a
        ``Fraction``, ``inner`` is turned into integer numerators once and the
        running result is kept as integer numerators over one denominator,
        reduced by their gcd at each step; the step for c_k is kept only to
        z^(order - k), since inner^k starts at z^k.  A coefficient is then a ``Fraction``
        exactly where the steps through ``mul`` would make it one.
        """
        if inner.coeffs[0] != 0:
            raise ValueError("composition needs an inner series with zero constant term")
        if order is None:
            order = max(self.order, inner.order)
        inner = inner.padded(order)
        outer = self.coeffs
        if self.order == 0 or not _all_exact(outer + inner.coeffs):
            result = TruncatedSeries([outer[-1]]).padded(order)
            for k in range(self.order - 1, -1, -1):
                result = result.mul(inner, order) + outer[k]
            return result
        g, dg = _integer_numerators(inner.coeffs)
        top = min(self.order, order)
        num, den = [outer[top].numerator] + [0] * (order - top), outer[top].denominator
        for k, c in reversed(tuple(enumerate(outer[:top]))):
            # g[0] == 0, so coefficient n of num * g is sum_{j<n} num[j] * g[n-j]
            num = [sum(map(operator.mul, num[:n], g[n:0:-1])) for n in range(order - k + 1)]
            new_den = math.lcm(den * dg, c.denominator)
            scale = new_den // (den * dg)
            num = [x * scale for x in num]
            num[0] += c.numerator * (new_den // c.denominator)
            common = math.gcd(new_den, *num)
            num, den = [x // common for x in num], new_den // common
        # mul makes coefficient n a Fraction once a Fraction sits at or below n in
        # either factor: all of them after a Fraction c_k with k >= 1, else those
        # from the first Fraction of inner on; a Fraction c_0 adds z^0
        if any(isinstance(c, Fraction) for c in outer[1:]):
            fraction_from = 0
        else:
            fraction_from = next(
                (n for n, c in enumerate(inner.coeffs) if isinstance(c, Fraction)), order + 1)
        return TruncatedSeries(
            Fraction(x, den) if n >= fraction_from or n == 0 and isinstance(outer[0], Fraction)
            else x // den
            for n, x in enumerate(num)
        )

    # -- evaluation ----------------------------------------------------------

    def __call__(self, z: Number | np.ndarray) -> complex | np.ndarray:
        """Horner evaluation of the truncated polynomial at z.

        An ``np.ndarray`` of points is evaluated elementwise in one pass
        (``np.polyval`` over the complex-cast coefficients) and gives a
        complex array of the same shape.
        """
        # numpy is not imported here: a caller holding an ndarray has loaded it
        np = sys.modules.get("numpy")
        if np is not None and isinstance(z, np.ndarray):
            if z.size and np.abs(z).max() > 1 + 1e-12:
                warnings.warn(_OUTSIDE_DISK, stacklevel=2)
            return np.polyval(np.array(self.coeffs[::-1], dtype=complex), z)
        if abs(complex(z)) > 1 + 1e-12:
            warnings.warn(_OUTSIDE_DISK, stacklevel=2)
        acc: Number = 0
        for c in reversed(self.coeffs):
            acc = acc * z + c
        return acc


Z = TruncatedSeries([0, 1])
