"""Truncated Maclaurin-series arithmetic over complex coefficients.

A :class:`TruncatedSeries` holds the coefficients ``c0, c1, ..., cN`` of the
polynomial ``c0 + c1*z + ... + cN*z**N`` standing in for an analytic function
near the origin.  Everything in this package (generator functions, extremal
functions, subordination witnesses) is carried by this type.

Coefficients may be ``int``, ``float``, ``complex`` or
:class:`fractions.Fraction`.  The ring operations and the exp and compose
recurrences only ever divide by small integers, so feeding exact rationals in
gives exact rationals out; that is the "exact path" used for the fixed
rational fixtures in the tests.  On that path ``exp`` and ``compose`` run on
integer numerators over a common denominator and build one ``Fraction`` per
output coefficient: ``exp`` gives ``1``, then the term-by-term recurrence's
``Fraction``s, from integer weights j * a_j summed on the stride s of a series
in z^s (as the structural exponents are); ``compose`` gives a ``Fraction`` at
every power, and its values are its contract.  The Cauchy product runs term
by term on every input.  Indices, orders and shifts are ints (numpy ints
included), orders and shifts >= 0.  Instances are immutable and every
operation is a pure function, so values can be shared freely across threads.
"""

from __future__ import annotations

import cmath
import math
import operator
import warnings
from fractions import Fraction
from typing import Iterable

from . import _as_int, _index

Number = complex | float | int | Fraction

__all__ = ["TruncatedSeries"]

_OUTSIDE_DISK = (
    "evaluating a truncated Maclaurin series outside the closed "
    "unit disk; the truncation error is uncontrolled"
)


def _warn_outside_disk(modulus: float, stacklevel: int) -> None:
    """Warn, at ``warnings.warn``'s ``stacklevel``, when a truncated row is evaluated at
    points of largest modulus ``modulus`` > 1 + 1e-12."""
    if modulus > 1 + 1e-12:
        warnings.warn(_OUTSIDE_DISK, stacklevel=stacklevel)


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
    if type(value) is Fraction:  # Fraction(value, k) takes the slow Rational path
        return Fraction(value.numerator, value.denominator * k)
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
        """Coefficient of z**k (0 beyond the truncation order); k is an int, numpy ints too."""
        if type(k) is not int:  # the one test on the hot path
            if (index := _index(k)) is None:
                raise ValueError(f"index must be an int, got {k!r}")
            k = index
        if k < 0:
            raise IndexError("negative coefficient index")
        return self.coeffs[k] if k <= self.order else 0

    def __len__(self) -> int:
        return len(self.coeffs)

    def __repr__(self) -> str:
        return f"TruncatedSeries({list(self.coeffs)!r})"

    def padded(self, order: int) -> "TruncatedSeries":
        """Same series, zero-padded (or cut) to the given order."""
        order = _as_int(order, "order", 0)
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
        order = max(self.order, other.order) if order is None else _as_int(order, "order", 0)
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
        return TruncatedSeries((0,) * _as_int(m, "m", 0) + self.coeffs)

    # -- transcendental operations ------------------------------------------

    def exp(self, order: int | None = None) -> "TruncatedSeries":
        """exp of a series with zero constant term.

        Uses the recurrence (exp a)' = a' * exp a, i.e.
        b_m = (1/m) * sum_{j=1..m} j * a_j * b_{m-j},  b_0 = 1.
        When every a_j is an ``int`` or a ``Fraction`` the sums run on integer
        numerators and give ``1`` then ``Fraction`` coefficients: the weights
        j * a_j are integers over the lcm ``d`` of the a_j's denominators, and
        the earlier b_i are kept as integer numerators over the running lcm
        ``den`` of their denominators, rescaled only when ``den`` grows, so each
        b_m is one integer sum and one ``Fraction``.  A series in z^s (s the gcd
        of the indices of the nonzero a_j) has its exp in z^s: those sums take
        only the terms that s divides, and every other b_m is ``Fraction(0)``.
        Other input is summed term by term, left to right.
        """
        if self.coeffs[0] != 0:
            raise ValueError("exp needs a zero constant term")
        order = self.order if order is None else _as_int(order, "order", 0)
        a = self.padded(order).coeffs
        b: list[Number] = [1]
        if _all_exact(a):
            nums, d = _integer_numerators(a)
            weights = [j * x for j, x in enumerate(nums)]  # j * a_j over d
            stride = math.gcd(*(j for j, x in enumerate(weights) if x)) or order + 1
            zero, numerators, den = Fraction(0), [1], 1
            for m in range(1, order + 1):
                if m % stride:
                    b.append(zero)
                    numerators.append(0)
                    continue
                c = Fraction(sum(map(operator.mul, weights[m:0:-stride], numerators[0:m:stride])),
                             d * m * den)
                b.append(c)
                grow = c.denominator // math.gcd(den, c.denominator)
                if grow > 1:
                    numerators = [x * grow for x in numerators]
                    den *= grow
                numerators.append(c.numerator * (den // c.denominator))
            return TruncatedSeries(b)
        weights = [j * c for j, c in enumerate(a)]
        for m in range(1, order + 1):
            acc = 0
            for j in range(1, m + 1):  # no sum(): it rounds floats differently from 3.12 on
                acc = acc + weights[j] * b[m - j]
            b.append(_div_int(acc, m))
        return TruncatedSeries(b)

    def compose(self, inner: "TruncatedSeries", order: int | None = None) -> "TruncatedSeries":
        """self(inner(z)) truncated at ``order``; inner must vanish at 0.

        Horner's scheme: result = result * inner + c_k from the top coefficient
        down.  When every coefficient of both series is an ``int`` or a
        ``Fraction``, ``inner`` is turned into integer numerators once and the
        running result is kept as integer numerators over one denominator,
        reduced by their gcd at each step; the step for c_k is kept only to
        z^(order - k), since inner^k starts at z^k, and every coefficient comes
        out a ``Fraction``.  Other input runs the steps through ``mul``.
        """
        if inner.coeffs[0] != 0:
            raise ValueError("composition needs an inner series with zero constant term")
        order = max(self.order, inner.order) if order is None else _as_int(order, "order", 0)
        inner = inner.padded(order)
        outer = self.coeffs
        if not _all_exact(outer + inner.coeffs):
            result = TruncatedSeries([outer[-1]]).padded(order)
            for k in range(self.order - 1, -1, -1):
                result = result.mul(inner, order) + outer[k]
            return result
        g, dg = _integer_numerators(inner.coeffs)
        top = min(self.order, order)
        num, den = [outer[top].numerator] + [0] * (order - top), outer[top].denominator
        for k, c in reversed(tuple(enumerate(outer[:top]))):
            # g[0] == 0, so coefficient n of num * g is sum_{j<n} num[j] * g[n-j]: map
            # stops at the n entries of g[n:0:-1]
            num = [sum(map(operator.mul, num, g[n:0:-1])) for n in range(order - k + 1)]
            new_den = math.lcm(den * dg, c.denominator)
            scale = new_den // (den * dg)
            if scale != 1:
                num = [x * scale for x in num]
            num[0] += c.numerator * (new_den // c.denominator)
            common = math.gcd(new_den, *num)
            num, den = [x // common for x in num], new_den // common
        return TruncatedSeries(Fraction(x, den) for x in num)

    # -- evaluation ----------------------------------------------------------

    def __call__(self, z: Number) -> Number:
        """Horner evaluation of the truncated polynomial at the point z."""
        _warn_outside_disk(abs(complex(z)), 3)
        acc: Number = 0
        for c in reversed(self.coeffs):
            acc = acc * z + c
        return acc
