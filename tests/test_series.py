"""Truncated-series arithmetic: worked examples, invariants, error paths."""

import hashlib
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gft import extremal
from gft.catalog import CATALOG_NAMES, make_spec
from gft.series import TruncatedSeries, Z


def approx_coeffs(series, expected, tol=1e-12):
    assert series.order + 1 >= len(expected)
    for k, e in enumerate(expected):
        assert abs(complex(series[k]) - complex(e)) <= tol, (k, series[k], e)
    for k in range(len(expected), series.order + 1):
        assert abs(complex(series[k])) <= tol


PSI_HEAD = TruncatedSeries([1, -1, Fraction(1, 2)])
PHI_HEAD = TruncatedSeries([1, 1, Fraction(1, 2)])  # mirrored expansion head


class TestAdd:
    def test_cancellation(self):
        s = TruncatedSeries([1, 1]) + TruncatedSeries([1, -1])
        approx_coeffs(s, [2, 0])

    def test_identity(self):
        s = PSI_HEAD + TruncatedSeries([0])
        assert s.coeffs == PSI_HEAD.coeffs

    def test_mirrored_heads(self):
        s = PSI_HEAD + PHI_HEAD
        approx_coeffs(s, [2, 0, 1])

    def test_zero_padding(self):
        s = TruncatedSeries([1]) + TruncatedSeries([0, 0, 0, 5])
        assert s.order == 3
        approx_coeffs(s, [1, 0, 0, 5])


class TestMul:
    def test_difference_of_squares(self):
        s = TruncatedSeries([1, 1]).mul(TruncatedSeries([1, -1]), 2)
        approx_coeffs(s, [1, 0, -1])

    def test_shift(self):
        log_head = TruncatedSeries([1, -1, Fraction(1, 2), Fraction(-1, 3)])
        s = Z.mul(log_head, 4)
        approx_coeffs(s, [0, 1, -1, Fraction(1, 2), Fraction(-1, 3)])

    def test_square_of_head(self):
        s = PSI_HEAD.mul(PSI_HEAD, 2)
        approx_coeffs(s, [1, -2, 2])

    def test_exact_rational(self):
        s = PSI_HEAD.mul(PSI_HEAD, 2)
        assert s[2] == Fraction(2)


class TestExp:
    def test_exp_zero(self):
        approx_coeffs(TruncatedSeries([0]).exp(), [1])

    def test_exp_minus_z(self):
        s = TruncatedSeries([0, -1]).exp(3)
        approx_coeffs(
            s, [1, -1, Fraction(1, 2), Fraction(-1, 6)]
        )

    def test_exp_of_dilog_head_vs_product_of_single_term_exponentials(self):
        # oracle: exp(sum c_k z^k) = prod_k exp(c_k z^k), each factor expanded
        # as a scalar exponential series
        n = 12
        terms = [Fraction((-1) ** k, k * k) for k in range(1, 5)]
        combined = TruncatedSeries(
            [0] + [terms[k - 1] if k <= 4 else 0 for k in range(1, n + 1)]
        ).exp(n)
        product = TruncatedSeries([1])
        for k, c in enumerate(terms, start=1):
            factor = [Fraction(0)] * (n + 1)
            j = 0
            power = Fraction(1)
            fact = 1
            while k * j <= n:
                factor[k * j] = power / fact
                j += 1
                power *= c
                fact *= j
            product = product.mul(TruncatedSeries(factor), n)
        assert combined[1] == Fraction(-1)
        for k in range(n + 1):
            assert combined[k] == product[k]

    def test_rejects_constant_term(self):
        with pytest.raises(ValueError):
            TruncatedSeries([1, 1]).exp()


class TestCompose:
    def test_psi_of_z_squared(self):
        psi = TruncatedSeries([1, -1, Fraction(1, 2)])
        inner = TruncatedSeries([0, 0, 1, 0])
        s = psi.compose(inner, 4)
        approx_coeffs(s, [1, 0, -1, 0, Fraction(1, 2)])

    def test_compose_with_zero(self):
        s = PSI_HEAD.compose(TruncatedSeries([0]), 2)
        approx_coeffs(s, [1, 0, 0])

    def test_psi_of_z_cubed(self):
        psi = TruncatedSeries([1, -1, Fraction(1, 2)])
        inner = TruncatedSeries([0, 0, 0, 1])
        s = psi.compose(inner, 6)
        approx_coeffs(s, [1, 0, 0, -1, 0, 0, Fraction(1, 2)])

    def test_rejects_inner_constant(self):
        with pytest.raises(ValueError):
            PSI_HEAD.compose(TruncatedSeries([1, 1]), 2)


class TestEval:
    def test_head_at_zero(self):
        assert PSI_HEAD(0) == 1

    def test_dilog_exponential_at_half(self):
        # d'(z) = exp(sum (-z)^k / k^2) evaluated through the series machinery
        integral = TruncatedSeries(
            [0] + [Fraction((-1) ** k, k * k) for k in range(1, 61)]
        )
        d_prime = integral.exp(60)
        assert abs(d_prime(0.5) - 0.63864) < 1e-4
        assert abs(d_prime(-0.5) - 1.79004) < 1e-4

    def test_warns_outside_disk(self):
        with pytest.warns(UserWarning, match="outside the closed unit disk") as record:
            PSI_HEAD(2.0)
        assert [w.filename for w in record] == [__file__]  # the caller's line


coeff_lists = st.lists(
    st.floats(min_value=-2, max_value=2, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=8,
)


class TestInvariants:
    @given(coeff_lists, coeff_lists)
    @settings(max_examples=40, deadline=None)
    def test_mul_commutes(self, u, v):
        a, b = TruncatedSeries(u), TruncatedSeries(v)
        n = max(a.order, b.order)
        ab, ba = a.mul(b, n), b.mul(a, n)
        for k in range(n + 1):
            assert abs(complex(ab[k]) - complex(ba[k])) < 1e-12

    @given(coeff_lists, coeff_lists, coeff_lists)
    @settings(max_examples=40, deadline=None)
    def test_mul_distributes(self, u, v, w):
        a, b, c = TruncatedSeries(u), TruncatedSeries(v), TruncatedSeries(w)
        n = max(a.order, b.order, c.order)
        lhs = a.mul(b + c, n)
        rhs = a.mul(b.padded(n), n) + a.mul(c.padded(n), n)
        for k in range(n + 1):
            assert abs(complex(lhs[k]) - complex(rhs[k])) < 1e-11

    @given(coeff_lists, coeff_lists, coeff_lists)
    @settings(max_examples=30, deadline=None)
    def test_composition_associativity(self, u, v, w):
        f = TruncatedSeries(u)
        g = TruncatedSeries([0] + v[:4])
        h = TruncatedSeries([0] + w[:4])
        n = 8
        lhs = f.compose(g, n).compose(h, n)
        rhs = f.compose(g.compose(h, n), n)
        scale = max(1.0, max(abs(complex(c)) for c in lhs.coeffs))
        for k in range(n + 1):
            assert abs(complex(lhs[k]) - complex(rhs[k])) < 1e-10 * scale


def schoolbook_mul(a, b, order):
    """The term-by-term Cauchy product: the reference for TruncatedSeries.mul."""
    out = []
    for n in range(order + 1):
        acc = 0
        for j in range(max(0, n - b.order), min(n, a.order) + 1):
            acc = acc + a.coeffs[j] * b.coeffs[n - j]
        out.append(acc)
    return out


def schoolbook_compose(f, g, order):
    g = g.padded(order)
    result = TruncatedSeries([f.coeffs[-1]]).padded(order)
    for c in reversed(f.coeffs[:-1]):
        result = TruncatedSeries(schoolbook_mul(result, g, order)) + c
    return list(result.coeffs)


def schoolbook_exp(a, order):
    """The term-by-term exp recurrence: the reference for TruncatedSeries.exp."""
    a = a.padded(order)
    b = [1]
    for m in range(1, order + 1):
        acc = 0
        for j in range(1, m + 1):
            acc = acc + j * a.coeffs[j] * b[m - j]
        b.append(Fraction(acc, m) if isinstance(acc, (int, Fraction)) else acc / m)
    return b


def schoolbook_reciprocal(a, order):
    """The term-by-term 1/a recurrence: the reference for TruncatedSeries.reciprocal."""
    a = a.padded(order)
    c0 = a.coeffs[0]
    r = [Fraction(1) / c0 if isinstance(c0, (int, Fraction)) else 1 / c0]
    for m in range(1, order + 1):
        acc = 0
        for j in range(1, m + 1):
            acc = acc + a.coeffs[j] * r[m - j]
        r.append(-acc / c0)
    return r


def same_bits(got, expected):
    """Equal values, equal per-coefficient types, and for floats equal bits."""
    assert [type(c) for c in got] == [type(c) for c in expected]
    assert [repr(c) for c in got] == [repr(c) for c in expected]


exact_numbers = st.one_of(
    st.integers(min_value=-40, max_value=40),
    st.fractions(min_value=-5, max_value=5, max_denominator=24),
)
exact_lists = st.lists(exact_numbers, min_size=1, max_size=8)
complex_lists = st.lists(
    st.one_of(
        st.complex_numbers(max_magnitude=3, allow_nan=False, allow_infinity=False),
        st.floats(min_value=-3, max_value=3),
        st.integers(min_value=-3, max_value=3),
    ),
    min_size=1,
    max_size=8,
)
order_offsets = st.integers(min_value=-3, max_value=3)  # below, at and above the inputs'


class TestProductAgainstSchoolbook:
    @given(exact_lists, exact_lists, order_offsets)
    @settings(max_examples=150, deadline=None)
    def test_exact_mul(self, u, v, offset):
        a, b = TruncatedSeries(u), TruncatedSeries(v)
        order = max(0, max(a.order, b.order) + offset)
        same_bits(a.mul(b, order).coeffs, schoolbook_mul(a, b, order))

    # outer orders far above and below ``order``, ints and Fractions mixed in
    # both series: the exact Horner step for c_k stops at z^(order - k)
    @given(st.lists(exact_numbers, min_size=1, max_size=16), exact_lists,
           st.integers(min_value=0, max_value=12))
    @settings(max_examples=150, deadline=None)
    def test_exact_compose(self, u, v, order):
        f, g = TruncatedSeries(u), TruncatedSeries([0] + v)
        same_bits(f.compose(g, order).coeffs, schoolbook_compose(f, g, order))

    @pytest.mark.parametrize("outer, inner, order", [
        (list(range(1, 13)), [0, 1, -2], 4),  # ints only, outer order 11 above 4
        ([1] * 9 + [Fraction(1, 3)] + [2, 5], [0, 1, 1], 4),  # a Fraction only above order
        ([Fraction(1, 2), 3, -1], [0, 2, 0, Fraction(1, 3), 1], 9),  # outer order 2 below 9
        ([4, -3, 2, 1], [0, Fraction(0), 5], 6),  # a Fraction zero inside inner
        ([7, 2], [0, 3], 0),
    ])
    def test_exact_compose_types_above_and_below_order(self, outer, inner, order):
        f, g = TruncatedSeries(outer), TruncatedSeries(inner)
        same_bits(f.compose(g, order).coeffs, schoolbook_compose(f, g, order))

    @given(exact_lists, exact_lists, order_offsets)
    @settings(max_examples=80, deadline=None)
    def test_exact_divide(self, u, v, offset):
        a, b = TruncatedSeries(u), TruncatedSeries([v[0] or 1] + v[1:])
        order = max(0, max(a.order, b.order) + offset)
        expected = schoolbook_mul(a, b.reciprocal(order), order)
        same_bits(a.divide(b, order).coeffs, expected)

    @given(exact_lists, order_offsets)
    @settings(max_examples=150, deadline=None)
    def test_exact_exp(self, u, offset):
        a = TruncatedSeries([0] + u)
        order = max(0, a.order + offset)
        same_bits(a.exp(order).coeffs, schoolbook_exp(a, order))

    @given(complex_lists, order_offsets)
    @settings(max_examples=150, deadline=None)
    def test_complex_exp_bit_identical(self, u, offset):
        a = TruncatedSeries([0] + u)
        order = max(0, a.order + offset)
        same_bits(a.exp(order).coeffs, schoolbook_exp(a, order))

    @given(exact_lists, order_offsets)
    @settings(max_examples=150, deadline=None)
    def test_exact_reciprocal(self, u, offset):
        a = TruncatedSeries([u[0] or 1] + u[1:])
        order = max(0, a.order + offset)
        same_bits(a.reciprocal(order).coeffs, schoolbook_reciprocal(a, order))

    @given(complex_lists, complex_lists, order_offsets)
    @settings(max_examples=150, deadline=None)
    def test_complex_mul_bit_identical(self, u, v, offset):
        a, b = TruncatedSeries(u), TruncatedSeries(v)
        order = max(0, max(a.order, b.order) + offset)
        same_bits(a.mul(b, order).coeffs, schoolbook_mul(a, b, order))

    def test_int_only_where_no_fraction_term(self):
        a = TruncatedSeries([1, Fraction(1, 2), 2])
        b = TruncatedSeries([3, 4])
        # z^1 and z^2 have a term with 1/2; z^0 and z^3 are int*int, z^4 is empty
        got = a.mul(b, 4).coeffs
        assert [type(c) for c in got] == [int, Fraction, Fraction, int, int]
        assert got == (3, Fraction(11, 2), 8, 8, 0)

    def test_reciprocal_and_divide_values_and_types(self):
        # 1/(2 + z) = 1/2 - z/4 + z^2/8 - ...: every coefficient a Fraction, even a whole one
        got = TruncatedSeries([2, 1]).reciprocal(3).coeffs
        assert [type(c) for c in got] == [Fraction] * 4
        assert got == (Fraction(1, 2), Fraction(-1, 4), Fraction(1, 8), Fraction(-1, 16))
        got = TruncatedSeries([1, -1]).reciprocal(2).coeffs
        assert [type(c) for c in got] == [Fraction] * 3 and got == (1, 1, 1)
        # (2 + 2z)/(2 + z): the products of ints with those Fractions are Fractions
        got = TruncatedSeries([2, 2]).divide(TruncatedSeries([2, 1]), 3).coeffs
        assert [type(c) for c in got] == [Fraction] * 4
        assert got == (1, Fraction(1, 2), Fraction(-1, 4), Fraction(1, 8))

    def test_compose_fraction_only_where_a_term_has_one(self):
        # a Fraction constant of the outer series makes only z^0 a Fraction
        got = TruncatedSeries([Fraction(1, 2), 1]).compose(TruncatedSeries([0, 2, 3]), 3).coeffs
        assert [type(c) for c in got] == [Fraction, int, int, int]
        assert got == (Fraction(1, 2), 2, 3, 0)
        # a Fraction zero at z^0 of the inner series enters every product term
        got = TruncatedSeries([1, 1, 1]).compose(TruncatedSeries([Fraction(0), 1]), 2).coeffs
        assert [type(c) for c in got] == [Fraction, Fraction, Fraction]
        assert got == (1, 1, 1)

    # sha256 of the newline-joined str(Fraction(c)), captured from the term-by-term exp
    @pytest.mark.parametrize("build, phi, n, order, digest", [
        ("t_series", "psi", 1, 200,
         "b583eb95049ace7029addf808ae06812976fbfa8d41e942e0ef990f6d47ee8a1"),
        ("d_series", "cos_sqrt_z", 3, 40,
         "8e1b2b1fa51a639f501bd5437ed76c4cb468d34ea55e9eeea7edf1062c5b7d2a"),
    ])
    def test_exact_structural_digest(self, build, phi, n, order, digest):
        fn = getattr(extremal, build)(make_spec(phi), n, order, exact=True)
        text = "\n".join(str(Fraction(c)) for c in fn.series.coeffs)
        assert hashlib.sha256(text.encode()).hexdigest() == digest


# the coefficients of a series in z^s: exact ones with zeros among them, Fraction(0) too
stride_exact = st.lists(
    st.one_of(exact_numbers, st.sampled_from([0, Fraction(0)])), min_size=1, max_size=8)


def in_powers_of(values, stride):
    """0 + values[0] z^s + values[1] z^(2s) + ..."""
    coeffs = [0] * (stride * len(values) + 1)
    coeffs[stride::stride] = values
    return TruncatedSeries(coeffs)


class TestExpInPowersOfZ:
    """exp of a series in z^s takes only the terms s divides: the same bits as term by term."""

    @given(st.integers(1, 5), stride_exact, st.integers(-12, 12))
    @example(3, [0, 0, 0], 4)  # all zero: every b_m is Fraction(0)
    @example(2, [Fraction(0), Fraction(1, 3)], 9)
    @settings(max_examples=200, deadline=None)
    def test_exact(self, stride, values, offset):
        a = in_powers_of(values, stride)
        order = max(0, a.order + offset)
        same_bits(a.exp(order).coeffs, schoolbook_exp(a, order))

    @given(st.integers(1, 5), complex_lists, st.integers(-12, 12))
    @example(4, [0.0, 0j, 0], 10)
    @settings(max_examples=150, deadline=None)
    def test_complex(self, stride, values, offset):
        a = in_powers_of(values, stride)
        order = max(0, a.order + offset)
        same_bits(a.exp(order).coeffs, schoolbook_exp(a, order))


def termwise_div_int(value, k):
    """value / k, exact as Fraction(value, k): the reference for series._div_int."""
    return Fraction(value, k) if isinstance(value, (int, Fraction)) else value / k


def termwise_structural_exp(coeff, n, order):
    """The structural route term by term: C_k / (n k) at z^(n k), then schoolbook_exp."""
    top = order - 1
    out = [0] * order
    for k in range(1, top // n + 1):
        out[n * k] = termwise_div_int(coeff(k), n * k)
    return schoolbook_exp(TruncatedSeries(out), top)


def reference_coeff(name, exact):
    """The generator's coefficients, a mirror's as (-1)^k times its base's."""
    mirror = {"one_minus_log_one_minus_z": "psi", "sqrt_1_minus_z": "sqrt_1_plus_z",
              "cos_sqrt_minus_z": "cos_sqrt_z"}
    base = make_spec(mirror.get(name, name)).coeff_exact
    sign = -1 if name in mirror else 1
    exact_coeff = lambda k: sign**k * base(k)  # noqa: E731
    return exact_coeff if exact else lambda k: complex(exact_coeff(k))


def same_values_and_bits(got, expected):
    assert list(got) == list(expected)
    same_bits(got, expected)


class TestStructuralRoute:
    """t_series, d_series and f_from_q against the term-by-term route, order by order."""

    @pytest.mark.parametrize("exact", [True, False])
    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("name", CATALOG_NAMES)
    def test_t_and_d_series(self, name, n, exact):
        spec, coeff = make_spec(name), reference_coeff(name, exact)
        for order in range(1, 45):
            u = termwise_structural_exp(coeff, n, order)
            got = extremal.t_series(spec, n, order, exact=exact).series.coeffs
            same_values_and_bits(got, [0] + u)
            got = extremal.d_series(spec, n, order, exact=exact).series.coeffs
            same_values_and_bits(got, [0] + [termwise_div_int(c, k + 1) for k, c in enumerate(u)])

    @pytest.mark.parametrize("exact", [True, False])
    @pytest.mark.parametrize("name", CATALOG_NAMES)
    def test_f_from_q(self, name, exact):
        for order in range(1, 45):
            q = make_spec(name).series(order, exact=exact)
            got = extremal.f_from_q(q, order).series.coeffs
            same_values_and_bits(got, [0] + termwise_structural_exp(q.__getitem__, 1, order))


class TestValidation:
    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            TruncatedSeries([0, float("nan")])

    def test_rejects_inf(self):
        with pytest.raises(ValueError):
            TruncatedSeries([0, complex("inf")])

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("kind", [float, complex, np.float64, np.complex128])
    def test_rejects_non_finite_of_every_float_type(self, kind, bad):
        with pytest.raises(ValueError):
            TruncatedSeries([1, kind(bad)])

    @pytest.mark.parametrize("good", [True, np.int64(3), np.float64(0.5), np.complex128(1j)])
    def test_accepts_finite_subclasses_and_numpy_scalars(self, good):
        assert TruncatedSeries([good]).coeffs == (good,)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            TruncatedSeries([])

    def test_immutable(self):
        s = TruncatedSeries([1, 2])
        with pytest.raises(AttributeError):
            s.coeffs = (0,)

    # True read as order 1, 2.5 failed inside a list product, -1 as an empty series
    @pytest.mark.parametrize("bad, message", [
        (True, "order must be an int, got True"), (2.5, "order must be an int, got 2.5"),
        ("3", "order must be an int, got '3'"), (-1, "order must be at least 0"),
        (np.int64(-2), "order must be at least 0"),
    ])
    @pytest.mark.parametrize("call", [
        lambda s, order: s.mul(PSI_HEAD, order),
        lambda s, order: s.exp(order),
        lambda s, order: (s + 1).reciprocal(order),
        lambda s, order: PSI_HEAD.divide(s + 1, order),
        lambda s, order: PSI_HEAD.compose(s, order),
        lambda s, order: s.padded(order),
    ])
    def test_order_must_be_a_non_negative_int(self, call, bad, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call(TruncatedSeries([0, 1, Fraction(1, 2)]), bad)

    @pytest.mark.parametrize("bad, message", [
        (True, "m must be an int, got True"), (1.0, "m must be an int, got 1.0"),
        (-1, "m must be at least 0"),
    ])
    def test_shift_must_be_a_non_negative_int(self, bad, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            PSI_HEAD.shifted(bad)

    def test_numpy_int_orders_pass(self):
        s = TruncatedSeries([0, 1, Fraction(1, 2)])
        assert s.exp(np.int64(5)).coeffs == s.exp(5).coeffs
        assert s.mul(s, np.int32(3)).coeffs == s.mul(s, 3).coeffs
        assert (s + 1).reciprocal(np.int64(4)).coeffs == (s + 1).reciprocal(4).coeffs
        assert PSI_HEAD.divide(s + 1, np.int64(4)).coeffs == PSI_HEAD.divide(s + 1, 4).coeffs
        assert PSI_HEAD.compose(s, np.int64(4)).coeffs == PSI_HEAD.compose(s, 4).coeffs
        assert s.padded(np.int64(4)).coeffs == s.padded(4).coeffs
        assert s.shifted(np.int64(2)).coeffs == s.shifted(2).coeffs
