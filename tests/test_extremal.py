"""Structural functions: exact coefficients, decimals, defining identities."""

import cmath
import math
import re
from fractions import Fraction

import numpy as np
import pytest

from gft import CATALOG_NAMES, extremal
from gft.catalog import counterpart, make_spec
from gft.extremal import (
    d_series,
    distortion_envelope_convex,
    f_from_q,
    growth_constant,
    growth_envelope_starlike,
    t_series,
)
from gft.series import TruncatedSeries


class FlatSpec:
    """Constant generator Phi = 1 (trivial subordination)."""

    name = "flat"

    def coeff_exact(self, k):
        return Fraction(1) if k == 0 else Fraction(0)

    def coeff(self, k):
        return complex(self.coeff_exact(k))

    def eval(self, z):
        return 1.0 + 0.0j


PSI = make_spec("psi")


class TestTSeries:
    def test_rational_head(self):
        fn = t_series(PSI, 1, 5, exact=True)
        assert fn.series.coeffs[1:] == (
            1,
            Fraction(-1),
            Fraction(3, 4),
            Fraction(-19, 36),
            Fraction(107, 288),
        )

    def test_cubed_variable(self):
        fn = t_series(PSI, 3, 4, exact=True)
        assert fn.series[2] == 0
        assert fn.series[3] == 0
        assert fn.series[4] == Fraction(-1, 3)

    def test_flat_generator_gives_identity(self):
        fn = t_series(FlatSpec(), 2, 8)
        assert all(complex(c) == 0 for c in fn.series.coeffs[2:])
        assert fn.series[1] == 1

    def test_starlike_ode(self):
        # z f'/f must reproduce the generator composed with z^n
        for name in ("psi", "sqrt_1_plus_z"):
            spec = make_spec(name)
            for n in (1, 2, 3):
                order = 20
                fn = t_series(spec, n, order)
                u = fn.series.coeffs[1:]  # f = z * u
                u_series = TruncatedSeries(u)
                num = u_series + u_series.derivative().shifted(1).padded(order - 1)
                ratio = num.divide(u_series, order - 1)
                inner = [0.0] * (order)
                if n < order:
                    inner[n] = 1.0
                target = spec.series(order - 1).compose(TruncatedSeries(inner), order - 1)
                for k in range(order - 1):
                    assert abs(complex(ratio[k]) - complex(target[k])) < 1e-10


@pytest.mark.parametrize("order", [0, -3])
@pytest.mark.parametrize(
    "build",
    [
        lambda order: t_series(PSI, 1, order, exact=True),
        lambda order: d_series(PSI, 2, order),
        lambda order: f_from_q(TruncatedSeries([1, Fraction(-1, 6)]), order),
    ],
    ids=["t_series", "d_series", "f_from_q"],
)
def test_rejects_order_below_one(build, order):
    with pytest.raises(ValueError, match="order must be at least 1"):
        build(order)


class TestDSeries:
    def test_z_dprime_equals_t(self):
        d = d_series(PSI, 1, 12, exact=True)
        t = t_series(PSI, 1, 12, exact=True)
        zdp = d.series.derivative().shifted(1)
        for k in range(13):
            assert zdp[k] == t.series[k]

    def test_half_plane_decimal(self):
        d2 = d_series(PSI, 2, 60)
        val = abs(d2.series.derivative()(0.5))
        assert abs(val - 0.88874) < 1e-4

    def test_flat_generator(self):
        d = d_series(FlatSpec(), 1, 6)
        assert all(complex(c) == 0 for c in d.series.coeffs[2:])

    def test_convexity_ode(self):
        # 1 + z f''/f' must reproduce the generator composed with z^n
        spec = make_spec("psi")
        order = 20
        for n in (1, 2):
            d = d_series(spec, n, order)
            dp = d.series.derivative()
            num = dp + dp.derivative().shifted(1).padded(order - 1)
            ratio = num.divide(dp, order - 1)
            inner = [0.0] * order
            inner[n] = 1.0
            target = spec.series(order - 1).compose(TruncatedSeries(inner), order - 1)
            for k in range(order - 1):
                assert abs(complex(ratio[k]) - complex(target[k])) < 1e-10

    def test_counterpart_sign_alternation(self):
        spec = make_spec("psi")
        mirror = counterpart(spec)
        d_plus = d_series(spec, 1, 16, exact=True).series.derivative()
        d_minus = d_series(mirror, 1, 16, exact=True).series.derivative()
        for k in range(16):
            assert d_minus[k] == (-1) ** k * d_plus[k]


class TestFFromQ:
    def test_rational_mobius_target(self):
        # q = (4 - z)/(4 + z): coefficients 1, then 2(-1)^k / 4^k
        order = 8
        q = TruncatedSeries(
            [Fraction(1)] + [2 * Fraction((-1) ** k, 4**k) for k in range(1, order + 1)]
        )
        fn = f_from_q(q, order)
        # target: 16 z / (4+z)^2 = z * sum (k+1) (-z/4)^k
        for k in range(1, order + 1):
            expected = (k) * Fraction((-1) ** (k - 1), 4 ** (k - 1))
            assert fn.series[k] == expected, k
        assert fn.series[2] == Fraction(-1, 2)

    def test_exponential_target(self):
        order = 8
        q = TruncatedSeries([Fraction(1), Fraction(-1, 6)])
        fn = f_from_q(q, order)
        # z exp(-z/6)
        for k in range(1, order + 1):
            expected = Fraction((-1) ** (k - 1), 6 ** (k - 1)) / math.factorial(k - 1)
            assert fn.series[k] == expected
        assert fn.series[2] == Fraction(-1, 6)

    def test_polynomial_target(self):
        # q = (8-2z)/(8-z) gives exactly z - z^2/8
        order = 10
        q = TruncatedSeries([Fraction(1)] + [-Fraction(1, 8**k) for k in range(1, order + 1)])
        fn = f_from_q(q, order)
        assert fn.series[2] == Fraction(-1, 8)
        for k in range(3, order + 1):
            assert fn.series[k] == 0

    def test_rejects_pole(self):
        with pytest.raises(ValueError):
            f_from_q(TruncatedSeries([0, 1]), 4)

    @pytest.mark.parametrize("name", CATALOG_NAMES)
    @pytest.mark.parametrize("order", [1, 2, 12, 40])
    @pytest.mark.parametrize("exact", [True, False])
    def test_generator_series_gives_t_series(self, name, order, exact):
        # q = the generator's own series: f_from_q takes t_series' route at n = 1
        spec = make_spec(name)
        got = f_from_q(spec.series(order, exact=exact), order).series.coeffs
        expected = t_series(spec, 1, order, exact=exact).series.coeffs
        assert [repr(c) for c in got] == [repr(c) for c in expected]


class TestEnvelopes:
    def test_convex_distortion_decimals(self):
        lo, hi = distortion_envelope_convex(PSI, 0.5)
        assert abs(lo - 0.63864) < 1e-4
        assert abs(hi - 1.79004) < 1e-4

    def test_small_radius_limits(self):
        lo, hi = distortion_envelope_convex(PSI, 1e-9)
        assert abs(lo - 1) < 1e-8 and abs(hi - 1) < 1e-8
        g_lo, g_hi = growth_envelope_starlike(PSI, 1e-9)
        assert abs(g_lo - 1e-9) < 1e-17 and abs(g_hi - 1e-9) < 1e-17

    def test_orientation_witness_sits_inside_envelope(self):
        # the even-generator member has |f'(1/2)| ~ 0.88874, strictly between
        # the envelope ends, while the mirrored-orientation reading of the
        # classical envelope would place it outside
        lo, hi = distortion_envelope_convex(PSI, 0.5)
        val = abs(d_series(PSI, 2, 60).series.derivative()(0.5))
        assert lo < val < hi
        assert not (hi <= val <= lo)

    def test_growth_values_match_dilog_oracle(self):
        # frozen from exp(Li2(-1/2)) and exp(Li2(1/2)) at 30 digits
        lo, hi = growth_envelope_starlike(PSI, 0.5)
        assert abs(lo - 0.31932005004413685) < 1e-12
        assert abs(hi - 0.89502229169565640) < 1e-12

    def test_radius_validation(self):
        with pytest.raises(ValueError):
            distortion_envelope_convex(PSI, 1.5)
        with pytest.raises(ValueError):
            growth_envelope_starlike(PSI, 0.0)

    def test_growth_envelope_on_schwarz_samples(self):
        from gft.verify import sample_suite, structural_eval

        t200 = t_series(PSI, 1, 200)  # r = 0.9 needs the boundary order
        for omega in sample_suite(200, seed=11):
            for r in (0.3, 0.6, 0.9):
                lo, hi = abs(t200(r)), abs(t200(-r))
                for j in range(0, 64, 4):
                    z = r * cmath.exp(2j * math.pi * j / 64)
                    val = abs(structural_eval(omega, z))
                    assert lo - 1e-9 <= val <= hi + 1e-9


def _dilog(x: float, terms: int = 2000) -> float:
    """Li2(x) = sum_k x^k / k^2 for |x| <= 0.9, summed directly (tail below 1e-90)."""
    return math.fsum(x**k / k**2 for k in range(1, terms + 1))


def _complex_route(spec):
    """d' as the envelopes built it before: complex C_k/k, then the exp recurrence."""
    return TruncatedSeries([0] + [spec.coeff(k) / k for k in range(1, 200)]).exp()


class TestEnvelopeSeries:
    @pytest.mark.parametrize("name", CATALOG_NAMES)
    def test_real_series_keeps_the_bits_of_the_complex_route(self, name):
        spec = make_spec(name)
        dp = extremal._envelope_series(spec)
        ref = _complex_route(spec)
        assert dp is extremal._envelope_series(make_spec(name))  # built once
        assert len(dp.coeffs) == len(ref.coeffs) == 200
        assert all(type(c) is float for c in dp.coeffs[1:])
        assert all(c.imag == 0 for c in ref.coeffs[1:])
        assert list(dp.coeffs) == list(ref.coeffs)
        t = ref.shifted(1)
        for r in (0.3, 0.6, 0.9, 0.955, 0.97, 0.99):
            assert growth_envelope_starlike(spec, r) == (t(r).real, -t(-r).real)
            assert distortion_envelope_convex(spec, r) == (ref(r).real, ref(-r).real)

    @pytest.mark.parametrize("name, sign", [("psi", 1), ("one_minus_log_one_minus_z", -1)])
    @pytest.mark.parametrize("r", [0.3, 0.6, 0.9])
    def test_order_200_against_the_dilogarithm(self, name, sign, r):
        # d'(z) = exp(Li2(-z)) for psi and exp(Li2(z)) for its mirror, t(z) = z d'(z);
        # the order-200 cut is below 1e-12 relative up to r = 0.9 (2.4e-13 there)
        at_r, at_minus_r = math.exp(_dilog(-sign * r)), math.exp(_dilog(sign * r))
        g_r, g_minus_r = growth_envelope_starlike(make_spec(name), r)
        d_r, d_minus_r = distortion_envelope_convex(make_spec(name), r)
        for got, exact in ((g_r, r * at_r), (g_minus_r, r * at_minus_r),
                           (d_r, at_r), (d_minus_r, at_minus_r)):
            assert abs(got / exact - 1) <= 1e-12


class TestGrowthConstant:
    def test_value(self):
        assert abs(growth_constant(1000) - 0.822467) < 1e-6

    @pytest.mark.parametrize("terms", [0, -1, -5])
    def test_rejects_fewer_than_one_term(self, terms):
        # the odd tail of the pairing would add 1/terms^2 to an empty sum
        with pytest.raises(ValueError, match="terms must be at least 1"):
            growth_constant(terms)

    def test_against_closed_form(self):
        assert abs(growth_constant(1000) - math.pi**2 / 12) < 1e-6

    # 2.5 used to pair two terms and add 1/2.5^2 (0.75); True summed one term (1.0)
    @pytest.mark.parametrize("terms", [2.5, True, "3", 1000.0, None])
    def test_rejects_non_int_terms(self, terms):
        with pytest.raises(ValueError, match=re.escape(f"terms must be an int, got {terms!r}")):
            growth_constant(terms)

    def test_numpy_int_terms_accepted(self):
        assert growth_constant(np.int64(1000)) == growth_constant(1000)
        assert growth_constant(np.int32(7)) == growth_constant(7)
