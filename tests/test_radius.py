"""Radius constants, inclusion constants and curve emission."""

import cmath
import functools
import math
import re

import numpy as np
import pytest

from gft.catalog import in_psi_image, make_spec
from gft.extremal import t_series
from gft.radius import (
    ALPHA_MAX,
    ALPHA_PARABOLIC,
    BISECT_MAX_ITER,
    BISECT_WIDTH,
    C0_SQRT,
    CURVE_IDS,
    bisect_root,
    convexity_equation,
    curve_points,
    inclusion_constants,
    k_starlike_equation,
    majorization_equation,
    majorization_radius,
    radius_M_beta,
    radius_convex_order,
    radius_k_starlike,
    radius_starlike_order,
    radius_strongly_starlike,
    re_im_envelope,
    schwarz_pick_bound,
    strongly_starlike_gamma_max,
)

LOG2 = math.log(2.0)


def scan_first_root(fn, lo, hi, step=1e-6):
    """Dense-scan oracle: first sign change of fn on [lo, hi]."""
    prev_x, prev_f = lo, fn(lo)
    x = lo + step
    while x <= hi:
        f = fn(x)
        if prev_f == 0:
            return prev_x
        if prev_f * f < 0:
            return 0.5 * (prev_x + x)
        prev_x, prev_f = x, f
        x += step
    raise AssertionError("no sign change found by the scan oracle")


class TestClosedFormRadii:
    def test_starlike_order_at_alpha_max(self):
        assert abs(radius_starlike_order(ALPHA_MAX) - 1.0) < 1e-12

    def test_starlike_order_limit(self):
        assert radius_starlike_order(1 - 1e-12) < 1e-11

    def test_starlike_order_midpoint(self):
        assert abs(radius_starlike_order(0.5) - (math.exp(0.5) - 1)) < 1e-12

    def test_starlike_order_domain(self):
        with pytest.raises(ValueError):
            radius_starlike_order(0.1)
        with pytest.raises(ValueError):
            radius_starlike_order(1.0)

    def test_m_beta(self):
        assert abs(radius_M_beta(1 + LOG2) - 0.5) < 1e-12
        assert radius_M_beta(1 + 1e-12) < 1e-11
        assert abs(radius_M_beta(2.0) - (1 - 1 / math.e)) < 1e-12
        with pytest.raises(ValueError):
            radius_M_beta(1.0)

    def test_strongly_starlike(self):
        gamma0 = strongly_starlike_gamma_max()
        assert abs(gamma0 - 0.514674) < 1e-4
        assert abs(radius_strongly_starlike(gamma0) - 1.0) < 1e-4
        assert radius_strongly_starlike(1e-6) < 1e-2
        # two-step evaluation oracle
        gamma = 0.3
        a = math.tan(math.tan(gamma * math.pi / 2))
        direct = math.sqrt(2 * (1 - 1 / math.hypot(1, a)))
        assert abs(radius_strongly_starlike(gamma) - direct) < 1e-14
        with pytest.raises(ValueError):
            radius_strongly_starlike(0.6)


class TestRootRadii:
    def test_convexity_equation_ends(self):
        for alpha in (0.0, 0.3, 0.9):
            assert convexity_equation(0.0, alpha) == pytest.approx(1 - alpha)
            assert convexity_equation(1.0, alpha) == -1.0

    def test_convex_root_against_scan(self):
        res = radius_convex_order(0.0)
        scanned = scan_first_root(lambda r: convexity_equation(r, 0.0), 0.0, 1.0)
        assert abs(res.root - scanned) < 1e-6
        assert res.residual < 1e-12

    def test_convex_domain(self):
        with pytest.raises(ValueError):
            radius_convex_order(1.0)

    def test_k_starlike_parabolic(self):
        res = radius_k_starlike(1.0)
        assert abs(res.root - (math.e - 1) / (math.e + 1)) < 1e-12
        assert res.equation_id == "root1"

    def test_k_starlike_equation_end(self):
        assert k_starlike_equation(0.0, 2.0) == pytest.approx(1 - math.e)
        assert k_starlike_equation(1.0, 2.0) == pytest.approx(2.0)

    def test_k_starlike_scan(self):
        res = radius_k_starlike(2.0)
        scanned = scan_first_root(lambda r: k_starlike_equation(r, 2.0), 0.0, 1.0)
        assert abs(res.root - scanned) < 1e-6

    def test_k_starlike_large_k_resolves_its_root_to_nine_digits(self):
        # the root is about 1/k; log(1 + r) - 1 - k log(1 - r) has it well
        # conditioned, so Newton's steps from the bisection's root give it
        k = 1e4
        res = radius_k_starlike(k)
        r = res.root
        for _ in range(3):
            r -= (math.log1p(r) - 1 - k * math.log1p(-r)) / (1 / (1 + r) + k / (1 - r))
        assert abs(res.root - r) <= 1e-9 * r
        assert BISECT_WIDTH <= 1e-9 * res.root

    @pytest.mark.parametrize("k", [1e6, 1e15, 1e300])
    def test_k_starlike_root_below_the_bisection_width_raises(self, k):
        # at k = 1e15 the bisection stopped at 3.6e-15 with residual 0.92
        with pytest.raises(ValueError, match="too large"):
            radius_k_starlike(k)

    def test_majorization(self):
        assert majorization_equation(0.0) == 1.0
        assert majorization_equation(1.0) == -2.0
        res = majorization_radius()
        scanned = scan_first_root(majorization_equation, 0.0, 1.0)
        assert abs(res.root - scanned) < 1e-6
        assert res.residual < 1e-12

    def test_bisect_requires_sign_change(self):
        with pytest.raises(ValueError):
            bisect_root(lambda r: 1.0, 0.0, 1.0, "flat")

    def test_bisect_finds_a_root_of_a_tiny_function(self):
        # fa * fm underflows to 0 where |f| < 1e-154, so the signs decide there
        res = bisect_root(lambda r: (r - 0.3) * 1e-200, 0.0, 1.0, "tiny")
        ref = bisect_root(lambda r: r - 0.3, 0.0, 1.0, "unit")
        assert (res.root, res.iterations) == (ref.root, ref.iterations)
        assert abs(res.root - 0.3) <= 1e-14

    def test_bisect_rejects_a_tiny_function_without_a_sign_change(self):
        with pytest.raises(ValueError, match="no sign change"):
            bisect_root(lambda r: 1e-200 * (r + 1), 0.0, 1.0, "tiny")

    @pytest.mark.parametrize("gap", [(0.45, 0.55), (0.2, 0.28), (0.0, 0.1)])
    def test_bisect_steps_through_nan_as_the_product_test_does(self, gap):
        # a nan value fails every sign test, so the bracket's left end moves
        def fn(r):
            return math.nan if gap[0] < r < gap[1] else r - 0.3

        res = bisect_root(fn, 0.0, 1.0, "nan")
        assert (res.root, res.residual) == _bisect_max_iter(fn, 0.0, 1.0)

    @pytest.mark.parametrize("root, lo, hi", [
        (1e6 + 0.3, 0.0, 2e6), (1e6 - 1 / 3, 3.0, 1.5e6), (100.0 + math.pi / 10, 0.0, 200.0),
        (1e8 * math.e, -1.0, 1e9),
    ])
    def test_bisect_stops_once_the_bracket_stops_shrinking(self, root, lo, hi):
        # the float spacing at these roots exceeds BISECT_WIDTH, so the
        # midpoint rounds to an end long before the loop's cap; fn is never
        # 0, so the loop would not stop on a zero either
        def fn(r):
            return math.copysign(1.0 + abs(r - root), r - root)

        res = bisect_root(fn, lo, hi, "far")
        assert res.iterations < 80
        assert (res.root, res.residual) == _bisect_max_iter(fn, lo, hi)
        assert abs(res.root - root) <= 2 * math.ulp(root)

    @pytest.mark.parametrize("seed", range(40))
    def test_bisect_root_equals_the_capped_loop(self, seed):
        rng = np.random.default_rng(seed)
        root, scale = rng.uniform(0.0, 1.0), 10.0 ** rng.integers(-2, 9)

        def fn(r):
            return math.copysign(1.0 + abs(r - root * scale), r - root * scale)

        res = bisect_root(fn, -scale, 2 * scale, "random")
        assert (res.root, res.residual) == _bisect_max_iter(fn, -scale, 2 * scale)


def _bisect_max_iter(fn, lo, hi):
    """(root, residual) of the bisection loop that runs on to BISECT_MAX_ITER steps."""
    a, b, fa = lo, hi, fn(lo)
    for _ in range(BISECT_MAX_ITER):
        if b - a <= BISECT_WIDTH:
            break
        mid = 0.5 * (a + b)
        fm = fn(mid)
        if fm == 0.0:
            a = b = mid
            break
        if fa * fm < 0:
            b = mid
        else:
            a, fa = mid, fm
    root = 0.5 * (a + b)
    return root, abs(fn(root))


class TestMonotonicity:
    def test_starlike_order_decreasing(self):
        grid = np.linspace(ALPHA_MAX, 0.999, 40)
        values = [radius_starlike_order(a) for a in grid]
        assert all(x > y for x, y in zip(values, values[1:]))

    def test_k_starlike_decreasing(self):
        grid = np.linspace(0.25, 4.0, 30)
        values = [radius_k_starlike(k).root for k in grid]
        assert all(x > y for x, y in zip(values, values[1:]))


class TestSharpness:
    @pytest.mark.parametrize("alpha", (0.4, 0.5, 0.6))
    def test_starlike_order_witness(self, alpha):
        # the structural function attains equality at z0 = exp(1-alpha) - 1
        f0 = t_series(make_spec("psi"), 1, 120)
        z0 = radius_starlike_order(alpha)
        series = f0.series
        num = z0 * series.derivative()(z0)
        den = series(z0)
        assert abs((num / den).real - alpha) < 1e-6
        assert abs((num / den).imag) < 1e-9

    def test_convexity_proof_expression_changes_sign(self):
        root = radius_convex_order(0.0).root
        expr = lambda r: (1 - r) * (1 - math.log(1 + r)) ** 2 - r
        assert expr(root - 1e-4) > 0
        assert expr(root + 1e-4) < 0


class TestInclusionConstants:
    def test_decimals(self):
        inc = inclusion_constants()
        assert abs(inc.theta0 - 1.37502) < 1e-4
        assert abs(inc.f_theta0 - 0.88329) < 1e-4
        assert abs(inc.gamma_min - 2 * 0.88329 / math.pi) < 1e-4
        assert abs(inc.gamma_min - 7029 / 12500) < 1e-4
        assert inc.alpha_max == pytest.approx(1 - LOG2)
        assert inc.alpha_parabolic == pytest.approx(1 - 2 * LOG2)
        assert inc.c0 == pytest.approx(LOG2 * (2 - LOG2))

    def test_theta0_is_argument_maximum(self):
        inc = inclusion_constants()
        thetas = np.linspace(0.05, math.pi - 0.05, 400)
        args = [
            abs(cmath.phase(1 - cmath.log(1 + cmath.exp(1j * t)))) for t in thetas
        ]
        grid_best = thetas[int(np.argmax(args))]
        assert abs(grid_best - inc.theta0) < 2e-2
        assert max(args) <= inc.f_theta0 + 1e-6


class TestReImEnvelope:
    def test_small_radius(self):
        env = re_im_envelope(1e-12)
        assert env["reLo"] == pytest.approx(1.0)
        assert env["reHi"] == pytest.approx(1.0)
        assert env["imAbs"] == pytest.approx(0.0, abs=1e-11)

    def test_vertex_limit(self):
        env = re_im_envelope(1 - 1e-12)
        assert abs(env["reLo"] - (1 - LOG2)) < 1e-9

    def test_arcsine_identity(self):
        env = re_im_envelope(0.5)
        assert env["imAbs"] == pytest.approx(math.pi / 6)
        assert env["imAbs"] == pytest.approx(math.asin(0.5))


class TestCurves:
    def test_tau_on_boundary_identity(self):
        for w in curve_points("tau", 257):
            assert abs(abs(cmath.exp(1 - w) - 1) - 1.0) < 1e-10

    def test_tau_passes_through_vertex(self):
        pts = curve_points("tau", 257)  # odd count puts theta = 0 on the grid
        assert min(abs(w - (1 - LOG2)) for w in pts) < 1e-12

    def test_tau1_vertical(self):
        for w in curve_points("tau1", 64):
            assert w.real == pytest.approx(1 - LOG2)

    def test_tau2_slope(self):
        inc = inclusion_constants()
        for w in curve_points("tau2", 64):
            assert abs(abs(cmath.phase(w)) - inc.gamma_min * math.pi / 2) < 1e-12

    def test_tau3_defining_relation_and_vertex(self):
        pts = curve_points("tau3", 129)
        for w in pts:
            assert abs(w.real - abs(w - 1) - ALPHA_PARABOLIC) < 1e-10
        vertex = (1 + ALPHA_PARABOLIC) / 2
        assert min(abs(w - vertex) for w in pts) < 1e-2

    def test_tau4_defining_relation(self):
        for w in curve_points("tau4", 64):
            assert abs(abs(w * w - 1) - C0_SQRT) < 1e-12

    def test_sample_count_contract(self):
        for cid in CURVE_IDS:
            assert len(curve_points(cid, 64)) == 64

    def test_validation(self):
        with pytest.raises(ValueError):
            curve_points("tau", 8)
        with pytest.raises(ValueError):
            curve_points("tau9", 64)

    # 20.0 failed in range with a TypeError; True read as 1 sample
    @pytest.mark.parametrize("bad", [20.0, 16.5, True, False, "20", None])
    def test_samples_must_be_an_int(self, bad):
        for cid in CURVE_IDS:
            with pytest.raises(ValueError, match=re.escape(f"samples must be an int, got {bad!r}")):
                curve_points(cid, bad)

    def test_numpy_int_samples_and_the_floor(self):
        for cid in CURVE_IDS:
            assert curve_points(cid, np.int64(20)) == curve_points(cid, 20)
            for few in (15, np.int64(15)):
                with pytest.raises(ValueError, match="^samples must be at least 16$"):
                    curve_points(cid, few)

    def test_tau_closure_inside_outside(self):
        # points nudged inward/outward along the exponential coordinate
        for j in range(64):
            theta = -math.pi + 2 * math.pi * (j + 0.5) / 64
            inside = 1 - cmath.log(1 + (1 - 1e-3) * cmath.exp(1j * theta))
            outside = 1 - cmath.log(1 + (1 + 1e-3) * cmath.exp(1j * theta))
            assert in_psi_image(inside)
            assert not in_psi_image(outside)


class TestSchwarzPick:
    def test_bound_on_samples(self):
        from gft.verify import sample_suite

        h = 1e-6
        for row in sample_suite(30, seed=5)[0]:
            omega = functools.partial(np.polyval, row[::-1])
            for r in (0.2, 0.5, 0.8):
                for j in range(8):
                    z = r * cmath.exp(2j * math.pi * j / 8)
                    w = omega(z)
                    deriv = abs((omega(z + h) - omega(z - h)) / (2 * h))
                    cap = schwarz_pick_bound(min(abs(w), 1.0), abs(z))
                    assert deriv <= cap + 1e-4

    def test_validation(self):
        with pytest.raises(ValueError):
            schwarz_pick_bound(1.5, 0.5)
