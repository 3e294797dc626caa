"""Brute-force oracles: parameter sweeps, sampling suites, counterexamples."""

import cmath
import hashlib
import json
import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import gft.bounds
from gft import verify
from gft.bounds import (
    ClassParams,
    PhiCoeffs,
    alpha_class_params,
    h2_bound_sl,
    second_hankel,
)
from gft.catalog import in_psi_image, make_spec
from gft.extremal import f_from_q, t_series
from gft.verify import (
    bloch_class_envelope,
    bloch_norm_estimate,
    bloch_seminorm_bound,
    caratheodory_point,
    conjecture_check,
    disk_max,
    eq_p31_check,
    lambda_combination_check,
    lemma_p1p2_check,
    maximize_second_hankel_oracle,
    polar_grid,
    sample_schwarz,
    sample_suite,
    schur_parameters,
    structural_deriv,
    structural_deriv_convex,
    structural_eval,
    vector_space_counterexample,
    verify_class_membership_bounds,
)
from gft.series import TruncatedSeries

B_PSI = PhiCoeffs(1.0, 0.5, 1.0 / 3.0)
PSI_FLOATS = (1.0, 0.5, 1.0 / 3.0)
# odd and even sizes (phi = pi is a grid angle only at even densities), up to 96
GRID_DENSITIES = [32, 33, 37, 48, 96]

# a point of the closed unit disk, drawn on the boundary about half the time
DISK_POINTS = st.builds(
    lambda r, phi: r * cmath.exp(1j * phi),
    st.one_of(st.just(1.0), st.floats(0.0, 1.0)),
    st.floats(0.0, 2 * math.pi, exclude_max=True),
)


class TestCaratheodoryPoint:
    def test_boundary_p1(self):
        cp = caratheodory_point(2.0, 0.3 + 0.4j, -1j)
        assert cp.p2 == pytest.approx(2.0)
        assert cp.p3 == pytest.approx(2.0)

    def test_even_point(self):
        cp = caratheodory_point(0.0, 1.0, 0.0)
        assert cp.p2 == pytest.approx(2.0)
        assert cp.p3 == pytest.approx(0.0)

    def test_cubed_point(self):
        cp = caratheodory_point(0.0, 0.0, 1.0)
        assert cp.p2 == pytest.approx(0.0)
        assert cp.p3 == pytest.approx(2.0)

    def test_region_validated(self):
        with pytest.raises(ValueError):
            caratheodory_point(2.5, 0, 0)
        with pytest.raises(ValueError):
            caratheodory_point(1.0, 1.5, 0)

    def test_genuine_prefix_by_parameter_recovery(self):
        # the prefix extends to a positive-real-part function iff the
        # recovered disk parameters stay inside the closed unit polydisk
        rng = np.random.default_rng(3)
        for _ in range(300):
            p1 = rng.uniform(0, 2)
            x = rng.uniform(0, 1) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
            y = rng.uniform(0, 1) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
            cp = caratheodory_point(p1, x, y)
            xi, eta, zeta = schur_parameters(cp.p1, cp.p2, cp.p3)
            assert abs(xi) <= 1 + 1e-9
            assert abs(eta) <= 1 + 1e-9
            assert abs(zeta) <= 1 + 1e-9
            assert abs(xi - p1 / 2) < 1e-12
            if abs(xi) < 1 - 1e-9:
                assert abs(eta - x) < 1e-9
                if abs(eta) < 1 - 1e-9:
                    assert abs(zeta - y) < 1e-9


def _boundary_sup(row):
    """max |w| on BOUNDARY_GRID points of the circle of radius 0.999."""
    return float(np.abs(np.polyval(row[::-1], 0.999 * verify._boundary_circle())).max())


class TestSampleSchwarz:
    def test_monomial_identity(self):
        s = sample_schwarz("monomial", {"m": 1})
        assert s.dtype == complex and s.shape == (verify.SAMPLE_ORDER + 1,)
        assert s[1] == 1
        assert all(c == 0 for k, c in enumerate(s) if k != 1)

    def test_mobius_limit_is_identity(self):
        s = sample_schwarz("mobius_eta", {"eta": 1.0})
        assert s[1] == pytest.approx(1.0)
        assert np.abs(s[2:]).max() < 1e-15

    def test_mobius_head(self):
        eta = 0.5
        s = sample_schwarz("mobius_eta", {"eta": eta})
        # z(z + eta)/(1 + eta z) = eta z + (1 - eta^2) z^2 - ...
        assert s[1] == pytest.approx(eta)
        assert s[2] == pytest.approx(1 - eta * eta)

    def test_seeded_reproducibility(self):
        a = sample_schwarz("random_poly_normalized", seed=9)
        b = sample_schwarz("random_poly_normalized", seed=9)
        assert a.tobytes() == b.tobytes()
        a[1] = 0  # each call returns a fresh row
        assert b[1] != 0 and sample_schwarz("random_poly_normalized", seed=9)[1] != 0

    def test_suite_respects_unit_bound(self):
        for row in sample_suite(60, seed=21)[0]:
            assert _boundary_sup(row) <= 1.0 + 1e-9

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            sample_schwarz("lacunary")

    @pytest.mark.parametrize("kind, params", [
        ("monomial", {"eta": 0.3}),
        ("monomial", {"m": 2, "degree": 8}),
        ("mobius_eta", {"m": 2}),
        ("mobius_eta", {"eta": 0.5, "scale": 0.9}),
        ("scaled_blaschke", {"n_zeros": 2}),
        ("scaled_blaschke", {"zeros": [0.5]}),
        ("random_poly_normalized", {"degree": 8}),
        ("random_poly_normalized", {"m": 1}),
    ])
    def test_unread_params_key_rejected(self, kind, params):
        with pytest.raises(ValueError, match="reads no params key"):
            sample_schwarz(kind, params, seed=3)

    @pytest.mark.parametrize("kind, params", [
        ("monomial", {"m": 3}),
        ("mobius_eta", {"eta": 0.25}),
        ("scaled_blaschke", {}),
        ("random_poly_normalized", None),
        ("mobius_eta", {"eta": 1}),
    ])
    def test_read_params_keys_accepted(self, kind, params):
        row = sample_schwarz(kind, params, seed=3)
        assert row.dtype == complex and row.shape == (verify.SAMPLE_ORDER + 1,)

    # int() would read 2.5 as 2, "3" as 3 and True as 1
    @pytest.mark.parametrize("m", [2.5, 2.0, "3", True, False, None])
    def test_monomial_exponent_must_be_an_int(self, m):
        with pytest.raises(ValueError, match=re.escape(f"monomial exponent must be an int, got {m!r}")):
            sample_schwarz("monomial", {"m": m})

    @pytest.mark.parametrize("m", [0, -1])
    def test_monomial_exponent_must_be_positive(self, m):
        with pytest.raises(ValueError, match="monomial exponent must be at least 1"):
            sample_schwarz("monomial", {"m": m})

    @pytest.mark.parametrize("m", [np.int64(2), np.int32(3), np.uint8(1)])
    def test_monomial_exponent_accepts_numpy_ints(self, m):
        got = sample_schwarz("monomial", {"m": m})
        assert got.tobytes() == sample_schwarz("monomial", {"m": int(m)}).tobytes()
        assert got.dtype == complex and got.shape == (verify.SAMPLE_ORDER + 1,)

    @pytest.mark.parametrize("m", [verify.SAMPLE_ORDER, verify.SAMPLE_ORDER + 1, 40])
    def test_monomial_row_holds_the_power(self, m):
        row = sample_schwarz("monomial", {"m": m})
        assert row.shape == (max(verify.SAMPLE_ORDER, m) + 1,) and row[m] == 1
        assert np.count_nonzero(row) == 1

    @pytest.mark.parametrize("m", [np.int64(0), np.int64(-2), np.bool_(True)])
    def test_monomial_exponent_rejects_non_positive_numpy_values(self, m):
        with pytest.raises(ValueError, match="monomial exponent must be (an int, got|at least 1)"):
            sample_schwarz("monomial", {"m": m})

    # float() would read "0.5" as 1/2 and True as 1, which builds z
    @pytest.mark.parametrize("eta", ["0.5", True, False, None, 0.5j, [0.5], -0.25, 1.5,
                                     math.nan, math.inf])
    def test_mobius_eta_must_be_a_real_number_in_the_unit_interval(self, eta):
        with pytest.raises(ValueError, match=r"eta must be an int or float in \[0, 1\]"):
            sample_schwarz("mobius_eta", {"eta": eta})


# -- the Cauchy-product sample construction that the closed forms replaced -----------
# The Moebius map as z (z + eta) times the series of 1/(1 + eta z), each Blaschke
# factor as (a - z) times the series of 1/(1 - conj(a) z) multiplied into scale z,
# all by TruncatedSeries.mul; a random polynomial as a series scaled by its sup on
# a freshly built boundary circle. The RNG draws are those of sample_schwarz.


def _ref_mobius(eta):
    inv = TruncatedSeries([1] + [(-eta) ** k for k in range(1, verify.SAMPLE_ORDER + 1)])
    return TruncatedSeries([0, eta, 1]).mul(inv, verify.SAMPLE_ORDER)


def _ref_blaschke(seed):
    rng = np.random.default_rng(seed)
    radii = rng.uniform(0.1, 0.6, 2)
    angles = rng.uniform(0, 2 * math.pi, 2)
    out = TruncatedSeries([0, float(rng.uniform(0.5, 0.95))])
    for r, t in zip(radii, angles):
        a = complex(r * cmath.exp(1j * t))
        inv = TruncatedSeries([a.conjugate() ** k for k in range(verify.SAMPLE_ORDER + 1)])
        factor = TruncatedSeries([a, -1]).mul(inv, verify.SAMPLE_ORDER)
        out = out.mul(factor, verify.SAMPLE_ORDER)
    return out


def _ref_random_poly(seed):
    rng = np.random.default_rng(seed)
    poly = TruncatedSeries([0] + list(rng.standard_normal(8) + 1j * rng.standard_normal(8)))
    circle = np.exp(2j * np.pi * np.arange(verify.BOUNDARY_GRID) / verify.BOUNDARY_GRID)
    sup = float(np.abs(np.polyval(poly.coeffs[::-1], circle)).max())
    return (poly * (1.0 / (verify.SCHWARZ_SAFETY * sup))).padded(verify.SAMPLE_ORDER)


def _coeffs(series):
    return [complex(c) for c in series.coeffs]


def _max_coeff_gap(row, ref):
    assert len(row) == len(ref.coeffs) == verify.SAMPLE_ORDER + 1
    return max(abs(g - r) for g, r in zip(row.tolist(), _coeffs(ref)))


class TestClosedFormSamples:
    @pytest.mark.parametrize("eta", [k / 20 for k in range(21)] + [1 / 3, 0.999])
    def test_mobius_matches_cauchy_product(self, eta):
        got = sample_schwarz("mobius_eta", {"eta": eta})
        assert _max_coeff_gap(got, _ref_mobius(eta)) <= 1e-15

    @pytest.mark.parametrize("kind, ref", [
        ("scaled_blaschke", _ref_blaschke),
        ("random_poly_normalized", _ref_random_poly),
    ])
    def test_seeded_kinds_match_cauchy_product(self, kind, ref):
        for seed in range(64):
            got = sample_schwarz(kind, seed=seed)
            assert _max_coeff_gap(got, ref(seed)) <= 1e-15, seed

    def test_monomials_and_mobius_ends_are_exact(self):
        for m in (1, 2, 3, 4):
            ref = TruncatedSeries([0] * m + [1]).padded(verify.SAMPLE_ORDER)
            assert sample_schwarz("monomial", {"m": m}).tolist() == _coeffs(ref)
        # eta = 0 and eta = 1 reproduce z^2 and z, the monomial samples m = 2
        # and m = 1, coefficient for coefficient. sample_suite keeps both
        # anyway: the 24-sample membership digests of the benchmark reference
        # pin the suite's sample list, and dropping them would shift it.
        for eta, m in ((0.0, 2), (1.0, 1)):
            got = sample_schwarz("mobius_eta", {"eta": eta}).tolist()
            assert got == _coeffs(_ref_mobius(eta))
            assert got == sample_schwarz("monomial", {"m": m}).tolist()


class TestConvexDistortionSandwich:
    def test_sampled_members_between_envelope_ends(self):
        from gft.extremal import d_series
        from gft.verify import structural_deriv_convex

        dp = d_series(make_spec("psi"), 1, 120).series.derivative()
        for omega in sample_suite(200, seed=13)[0]:
            for r in (0.3, 0.5):
                lo, hi = dp(r).real, dp(-r).real
                for j in range(0, 32, 2):
                    z = r * cmath.exp(2j * math.pi * j / 32)
                    val = abs(structural_deriv_convex(omega, z))
                    assert lo - 1e-9 <= val <= hi + 1e-9

    def test_identity_map_touches_both_ends(self):
        from gft.extremal import d_series
        from gft.verify import structural_deriv_convex

        dp = d_series(make_spec("psi"), 1, 120).series.derivative()
        omega = sample_schwarz("monomial", {"m": 1})
        assert abs(structural_deriv_convex(omega, 0.5)) == pytest.approx(dp(0.5).real, abs=1e-12)
        assert abs(structural_deriv_convex(omega, -0.5)) == pytest.approx(dp(-0.5).real, abs=1e-12)


class TestStructuralEval:
    def test_matches_series_route_for_identity_map(self):
        # dual route: quadrature vs truncated-series composition
        omega = sample_schwarz("monomial", {"m": 1})
        psi_series = make_spec("psi").series(60)
        f_series = f_from_q(psi_series, 60).series
        for z in (0.3, -0.45, 0.2 + 0.4j):
            assert abs(structural_eval(omega, z) - f_series(z)) < 1e-10

    def test_derivative_consistency(self):
        omega = sample_schwarz("mobius_eta", {"eta": 0.5})
        h = 1e-6
        for z in (0.4, -0.3 + 0.2j):
            fd = (structural_eval(omega, z + h) - structural_eval(omega, z - h)) / (2 * h)
            assert abs(structural_deriv(omega, z) - fd) < 1e-7

    def test_deriv_warns_outside_disk(self):
        # each function evaluates the truncated row on [0, z], uncontrolled past |z| = 1;
        # the warning points at the caller, as TruncatedSeries.__call__'s does
        omega = sample_schwarz("mobius_eta", {"eta": 0.5})
        for fn in (structural_eval, structural_deriv_convex, structural_deriv):
            for z in (np.array([0.5, 2.0j]), 1.5, 1 + 1e-11, np.array([[0.2], [-1.5j]])):
                with pytest.warns(UserWarning, match="outside the closed unit disk") as record:
                    fn(omega, z)
                assert [w.filename for w in record] == [__file__], fn.__name__
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                fn(omega, np.array([0.999j, 1.0, 0.0, -1 - 5e-13]))
                fn(omega, 1j)
                fn(omega, np.zeros(0))


# -- scalar references for the array evaluation path -------------------------------
# One point and one Gauss-Legendre node at a time, Horner in plain Python and
# cmath throughout: the formulas the array path replaced.

_GL_S, _GL_WEIGHTS = verify._gauss_legendre()


def _horner(row, z):
    acc = 0
    for c in reversed(row.tolist()):
        acc = acc * z + c
    return complex(acc)


def _ref_log_ratio(omega, z):
    if z == 0:
        return 0j
    total = 0j
    for s, weight in zip(_GL_S, _GL_WEIGHTS):
        total += weight * (-cmath.log(1 + _horner(omega, s * z)) / s)
    return 0.5 * total


def _ref_eval(omega, z):
    return z * cmath.exp(_ref_log_ratio(omega, z))


def test_boundary_circle_is_built_once_with_the_circle_bits():
    assert verify._boundary_circle() is verify._boundary_circle()
    assert verify._boundary_circle().tobytes() == verify._circle(verify.BOUNDARY_GRID).tobytes()


@pytest.mark.parametrize("count", [64, verify._RAY_NODES])
def test_gauss_legendre_nodes_are_built_once_per_count_on_the_unit_interval(count):
    nodes, weights = np.polynomial.legendre.leggauss(count)
    s, w = verify._gauss_legendre(count)
    assert verify._gauss_legendre(count) is verify._gauss_legendre(count)
    assert np.array_equal(s, 0.5 * (nodes + 1.0))
    assert np.array_equal(w, weights)
    assert not s.flags.writeable and not w.flags.writeable
    assert np.array_equal(_GL_S, verify._gauss_legendre(64)[0])  # the default count


def test_ray_tables_hold_each_segments_nodes_and_weights():
    # the growth rays' rotations e^(ik theta) by (ray, k); the node radii
    # rho^k by (k, node), _RAY_NODES nodes of each segment between the radii in
    # turn; and each node's Gauss-Legendre weight in its segment, over rho
    rotations, powers, weights = verify._membership_tables()[1:4]
    radii, order = verify._MEMBERSHIP_RADII, verify.SAMPLE_ORDER
    rays = verify._MEMBERSHIP_ANGLES // verify._GROWTH_STRIDE
    turns = np.outer(np.arange(rays), np.arange(order + 1)) % rays  # k theta, in 1/rays turns
    assert rotations.shape == (rays, order + 1)
    assert np.allclose(rotations, np.exp(2j * np.pi * turns / rays), rtol=0, atol=1e-14)
    s, w = verify._gauss_legendre(verify._RAY_NODES)
    assert powers.shape == (order + 1, len(radii) * verify._RAY_NODES)
    rho = powers[1].reshape(len(radii), -1)
    for (a, b), nodes, node_weights in zip(zip((0.0, *radii), radii), rho, weights.reshape(rho.shape)):
        assert np.array_equal(nodes, a + (b - a) * s)
        assert np.array_equal(node_weights, (b - a) / 2 * w / nodes)
    assert np.array_equal(powers[0], np.ones(powers.shape[1]))
    assert np.array_equal(powers, powers[1] ** np.arange(order + 1)[:, None])


def _ref_deriv(omega, z):
    if z == 0:
        return 1 + 0j
    return _ref_eval(omega, z) * (1 - cmath.log(1 + _horner(omega, z))) / z


def _ref_deriv_convex(omega, z):
    return cmath.exp(_ref_log_ratio(omega, z))


def _ref_bloch(deriv, grid_size, radial_count):
    best = 0.0
    for r in np.linspace(0.0, 0.999, radial_count):
        for j in range(grid_size):
            z = r * cmath.exp(2j * math.pi * j / grid_size)
            best = max(best, (1 - r * r) * abs(deriv(z)))
    return best


def _ref_omega_normalized(z):
    # 4,000 terms: at |z| = 0.985 the 800-term sums stop 3e-10 short of Li2
    if z == 0:
        return 0j
    e_a = cmath.exp(sum((-z) ** k / k**2 for k in range(1, 4000)))
    e_b = cmath.exp(sum((-1) ** k * z ** (2 * k) / (2 * k**2) for k in range(1, 4000)))
    num = cmath.log(1 + z) * e_a + cmath.log(1 + z * z) * e_b
    return cmath.exp(num / (e_a + e_b)) - 1


_KINDS = ("monomial", "mobius_eta", "scaled_blaschke", "random_poly_normalized")


def _drawn_sample(kind, seed):
    params = {"monomial": {"m": 1 + seed % 4}, "mobius_eta": {"eta": (seed % 101) / 100}}
    return sample_schwarz(kind, params.get(kind), seed=seed)


def _rel_close(a, b, rel):
    return abs(a - b) <= rel * abs(b)


class TestArrayPath:
    @given(
        st.sampled_from(_KINDS),
        st.integers(0, 10_000),
        st.lists(
            st.tuples(st.floats(0.0, 0.95), st.floats(0.0, 2 * math.pi)), min_size=1, max_size=6
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_structural_functions_match_scalar_reference(self, kind, seed, polar):
        omega = _drawn_sample(kind, seed)
        zs = np.array([r * cmath.exp(1j * t) for r, t in polar])
        for fn, ref in (
            (structural_eval, _ref_eval),
            (structural_deriv, _ref_deriv),
            (structural_deriv_convex, _ref_deriv_convex),
        ):
            values = fn(omega, zs)
            assert values.shape == zs.shape
            for z, v in zip(zs, values):
                assert _rel_close(v, ref(omega, complex(z)), 1e-13), (fn.__name__, z)

    def test_scalar_in_gives_python_complex(self):
        omega = sample_schwarz("mobius_eta", {"eta": 0.5})
        for fn in (structural_eval, structural_deriv, structural_deriv_convex):
            assert type(fn(omega, 0.3 - 0.2j)) is complex
            assert type(fn(omega, 0.0)) is complex
        assert structural_deriv(omega, 0.0) == 1
        assert structural_eval(omega, 0.0) == 0

    @pytest.mark.parametrize(
        "omega",
        [sample_schwarz("monomial", {"m": 40}), np.zeros(1, dtype=complex)],
        ids=["monomial-40", "order-0"],
    )
    def test_orders_other_than_sample_order(self, omega):
        # 41 coefficients and 1: a node-power table sized by SAMPLE_ORDER
        # would drop z^40 (0.95^40 = 0.13) or fail to broadcast
        zs = np.array([0.3, -0.45, 0.2 + 0.4j, 0.95 * cmath.exp(0.7j), -0.95j, 0.95])
        for fn, ref in (
            (structural_eval, _ref_eval),
            (structural_deriv, _ref_deriv),
            (structural_deriv_convex, _ref_deriv_convex),
        ):
            values = fn(omega, zs)
            for z, v in zip(zs, values):
                assert _rel_close(v, ref(omega, complex(z)), 1e-13), (fn.__name__, z)

    def test_bloch_estimate_matches_scalar_loop(self):
        for omega in sample_suite(12, seed=5)[0]:
            est = bloch_norm_estimate(omega, grid_size=10, radial_count=6)
            ref = _ref_bloch(lambda z: _ref_deriv(omega, z), 10, 6)
            assert _rel_close(est, ref, 1e-13)

    def test_counterexample_matches_scalar_sums(self):
        rep = vector_space_counterexample(scan_density=12)
        scan = [
            r * cmath.exp(2j * math.pi * j / 12) for r in (0.7, 0.85, 0.95, 0.985) for j in range(12)
        ]
        values = [abs(_ref_omega_normalized(z)) for z in scan]
        ref_max = max(values)
        assert _rel_close(rep["normalized_max_abs"], ref_max, 1e-13)
        # |omega| is symmetric under conjugation, so a last-digit change may
        # pick the mirror image of the scalar loop's argmax
        ref_arg = scan[values.index(ref_max)]
        arg = rep["normalized_argmax"]
        assert min(abs(arg - ref_arg), abs(arg - ref_arg.conjugate())) < 1e-12
        z0 = rep["z0"]
        assert _rel_close(rep["normalized_abs_at_z0"], abs(_ref_omega_normalized(z0)), 1e-13)

    def test_boundary_sup_matches_scalar_loop(self):
        for omega in sample_suite(12, seed=8)[0]:
            ref = max(
                abs(_horner(omega, 0.999 * cmath.exp(2j * math.pi * j / 512)))
                for j in range(512)
            )
            assert _rel_close(_boundary_sup(omega), ref, 1e-13)


# margins of verify_class_membership_bounds(24, seed=1000) as computed by the
# scalar point loop (one point and one quadrature node at a time)
_MEMBERSHIP_1000 = {
    "worstReLoMargin": 0.0,
    "worstReHiMargin": 0.0,
    "worstImMargin": 1.6206178881705835e-05,
    "worstGrowthLoMargin": 0.0,
    "worstGrowthHiMargin": -7.971401316808624e-13,
}
_COEFF_MARGINS_1000 = {
    "a2@alpha=0.0": 0.0,
    "a3@alpha=0.0": 0.0,
    "fekete_t1@alpha=0.0": 0.0,
    "a4@alpha=0.0": 0.0,
    "a2a3_a4@alpha=0.0": 0.0,
    "a5@alpha=0.0": 0.0,
    "h2_general@alpha=0.0": 0.0,
    "h3@alpha=0.0": 0.43807870370370366,
    "a2@alpha=0.5": 0.0,
    "a3@alpha=0.5": 0.0,
    "fekete_t1@alpha=0.5": 0.0,
    "a4@alpha=0.5": 0.0,
    "a2a3_a4@alpha=0.5": 0.0,
    "a5@alpha=0.5": -1.3877787807814457e-17,
    "h2_general@alpha=0.5": 0.0,
    "h3@alpha=0.5": 0.06476851851851852,
    "a2@alpha=1.0": 0.0,
    "a3@alpha=1.0": 0.0,
    "fekete_t1@alpha=1.0": 0.0,
    "a4@alpha=1.0": 0.0,
    "a2a3_a4@alpha=1.0": 0.0,
    "a5@alpha=1.0": 0.0,
    "h2_general@alpha=1.0": 0.00010097173996913289,
    "h3@alpha=1.0": 0.022511574074074073,
}


def test_membership_matches_scalar_loop_margins():
    rep = verify_class_membership_bounds(24, seed=1000).as_dict()
    assert rep["violations"] == []
    for key, margin in _MEMBERSHIP_1000.items():
        assert rep[key] == pytest.approx(margin, abs=1e-12), key
    assert rep["coeffMargins"].keys() == _COEFF_MARGINS_1000.keys()
    for key, margin in _COEFF_MARGINS_1000.items():
        assert rep["coeffMargins"][key] == pytest.approx(margin, abs=1e-12), key


def test_membership_violation_order_matches_scalar_loop():
    # with the tolerance moved inside the margins many points fail; the list
    # (one entry per failing point, in scan order) is pinned by its digest
    violations = verify_class_membership_bounds(12, seed=1000, tol=-0.05).violations
    text = json.dumps(violations, sort_keys=True).encode()
    assert len(violations) == 370
    assert hashlib.sha256(text).hexdigest() == (
        "762bb83f32b4aef1bee7505a7535000bfe70f57541351162e732c71f0ae13970"
    )


# -- the per-sample membership loop that the stacked path replaced -------------------
# One Schwarz sample at a time: omega evaluated by Horner at the envelope points
# and at every (growth point, node) pair, a complex np.log in the quadrature,
# and psi(omega) composed as a series before the scalar coefficient recurrence.


def _ref_class_coefficients(q, alpha):
    a = [complex(1)]
    for n in range(2, 6):
        h_n = 1 + (n - 1) * alpha
        acc = 0j
        for m in range(1, n):
            h_m = 1 + (m - 1) * alpha
            acc += a[m - 1] * h_m * complex(q[n - m])
        a.append(acc / ((n - 1) * h_n))
    return a


def _ray_nodes():
    """The growth rays' directions; the node radii of each segment between the
    membership radii in turn, and each node's weight in its segment over rho."""
    s, weights = verify._gauss_legendre(verify._RAY_NODES)
    segments = list(zip((0.0, *verify._MEMBERSHIP_RADII), verify._MEMBERSHIP_RADII))
    rho = np.concatenate([a + (b - a) * s for a, b in segments])
    node_weights = np.concatenate([(b - a) / 2 * weights for a, b in segments]) / rho
    return verify._circle(verify._MEMBERSHIP_ANGLES)[:: verify._GROWTH_STRIDE], rho, node_weights


def _ref_growth_modulus(omega):
    # |f| at the growth points by (radius, ray), one ray at a time: w by np.polyval
    # at rho e^(i theta), log|1 + w| times the node weights, each segment's
    # terms added in node order and the segments' sums outward from 0
    rays, rho, node_weights = _ray_nodes()
    terms = np.log(np.abs(1 + np.polyval(omega[::-1], rays[:, None] * rho))) * node_weights
    exponent = np.zeros((len(verify._MEMBERSHIP_RADII), len(rays)))
    for j, row in enumerate(terms):
        total = 0.0
        for k, segment in enumerate(row.reshape(len(verify._MEMBERSHIP_RADII), -1)):
            acc = 0.0
            for term in segment:
                acc = acc + term
            total = total + acc
            exponent[k, j] = total
    return np.array(verify._MEMBERSHIP_RADII)[:, None] * np.exp(-exponent)


def _ref_membership(sample_count, seed, alphas=(0.0, 0.5, 1.0), tol=1e-6):
    rows, kinds = sample_suite(sample_count, seed=seed)
    radii = np.array(verify._MEMBERSHIP_RADII)[:, None]
    z_env = radii * verify._circle(verify._MEMBERSHIP_ANGLES)
    envs = [verify.re_im_envelope(r) for r in verify._MEMBERSHIP_RADII]
    re_lo_env, re_hi_env, im_env = (
        np.array([env[key] for env in envs])[:, None] for key in ("reLo", "reHi", "imAbs")
    )
    growth_lo, growth_hi = verify._membership_tables()[-2:]
    psi4 = make_spec("psi").series(4, exact=False)
    worst = dict.fromkeys(("re_lo", "re_hi", "im", "g_lo", "g_hi"), math.inf)
    tables = {}
    for alpha in alphas:
        frac = Fraction(alpha).limit_denominator(10**6)
        table = verify.sl_bound_table(frac)
        table["h2_general"] = second_hankel(alpha_class_params(float(frac)), B_PSI).value
        tables[alpha] = table
    keys = ("a2", "a3", "fekete_t1", "a4", "a2a3_a4", "a5", "h2_general", "h3")
    coeff_margins = {(alpha, key): math.inf for alpha in alphas for key in keys}
    violations = []
    for idx, (omega, kind) in enumerate(zip(rows, kinds)):
        ratio = 1 - np.log(1 + np.polyval(omega[::-1], z_env))
        re_lo = ratio.real - re_lo_env
        re_hi = re_hi_env - ratio.real
        im = im_env - np.abs(ratio.imag)
        fv = _ref_growth_modulus(omega)
        g_lo = fv - growth_lo
        g_hi = growth_hi - fv
        for key, margin in (("re_lo", re_lo), ("re_hi", re_hi), ("im", im),
                            ("g_lo", g_lo), ("g_hi", g_hi)):
            worst[key] = min(worst[key], float(margin.min()))
        env_bad = (np.minimum(np.minimum(re_lo, re_hi), im) < -tol).sum(axis=1)
        growth_bad = (np.minimum(g_lo, g_hi) < -tol).sum(axis=1)
        for r, n_env, n_growth in zip(verify._MEMBERSHIP_RADII, env_bad, growth_bad):
            for where, n in ((f"envelope r={r}", n_env), (f"growth r={r}", n_growth)):
                violations.extend(
                    {"sample": idx, "kind": kind, "where": where} for _ in range(n)
                )
        psi_omega = psi4.compose(TruncatedSeries(omega[:5].tolist()), 4)
        for alpha in alphas:
            _, a2, a3, a4, a5 = _ref_class_coefficients(psi_omega, alpha)
            table = tables[alpha]
            checks = {
                "a2": float(table["a2"]) - abs(a2),
                "a3": float(table["a3"]) - abs(a3),
                "fekete_t1": float(table["fekete_t1"]) - abs(a3 - a2 * a2),
                "a4": float(table["a4"]) - abs(a4),
                "a2a3_a4": float(table["a2a3_a4"]) - abs(a2 * a3 - a4),
                "a5": float(table["a5"]) - abs(a5),
                "h2_general": float(table["h2_general"]) - abs(a2 * a4 - a3 * a3),
                "h3": float(table["h3"])
                - abs(a3 * (a2 * a4 - a3 * a3) - a4 * (a4 - a2 * a3) + a5 * (a3 - a2 * a2)),
            }
            for key, margin in checks.items():
                coeff_margins[(alpha, key)] = min(coeff_margins[(alpha, key)], margin)
                if margin < -tol:
                    violations.append(
                        {"sample": idx, "kind": kind, "where": f"{key}@alpha={alpha}"}
                    )
    return verify.MembershipReport(
        samples=sample_count,
        seed=seed,
        worst_re_lo=worst["re_lo"],
        worst_re_hi=worst["re_hi"],
        worst_im=worst["im"],
        worst_growth_lo=worst["g_lo"],
        worst_growth_hi=worst["g_hi"],
        coeff_margins={f"{k[1]}@alpha={k[0]}": v for k, v in coeff_margins.items()},
        violations=violations,
    ).as_dict()


@pytest.mark.parametrize("seed", [1000, 1001])
def test_class_coefficients_keep_the_bits_of_the_series_route(seed):
    # every kind, with complex coefficients; the report holds only minima, so
    # each sample's a_2..a_5 are compared here
    omega4 = sample_suite(60, seed=seed)[0][:, :5]
    alphas = (0.0, 0.25, 0.5, 1.0)
    psi4 = make_spec("psi").series(4, exact=False)
    h = [1 + k * np.array(alphas) for k in range(5)]
    got = verify._class_coefficients(omega4, psi4.coeffs, h[:4], [k * h[k] for k in range(1, 5)])
    for idx, omega in enumerate(omega4):
        q = psi4.compose(TruncatedSeries(omega.tolist()), 4)
        for i, alpha in enumerate(alphas):
            assert [complex(a[idx, i]) for a in got] == _ref_class_coefficients(q, alpha)[1:]


@pytest.mark.parametrize("alpha", [0.0, 0.25, 1.0])
def test_membership_class_coefficients_keep_the_bits_one_row_at_a_time(alpha):
    # one row and one weight set: each a_n is a single sum of up to four terms,
    # which np.add.reduce would add pairwise, not in order of m
    psi4 = make_spec("psi").series(4, exact=False)
    h = [1 + k * alpha for k in range(5)]
    for omega in sample_suite(60, seed=1000)[0][:, :5]:
        got = verify._class_coefficients(omega[None], psi4.coeffs, h[:4], [k * h[k] for k in range(1, 5)])
        assert got.shape == (4, 1, 1)
        ref = _ref_class_coefficients(psi4.compose(TruncatedSeries(omega.tolist()), 4), alpha)[1:]
        assert [complex(a[0, 0]) for a in got] == ref


def _assert_membership_equal(got, ref):
    # w by Horner here and by a matrix product in the suite round apart, so
    # |f| may move in its last bits; the lower growth margin showed it in a
    # 64-node quadrature (0.0 -> 2.8e-17 at seed 42), though not on the rays
    # at these seeds
    assert abs(got.pop("worstGrowthLoMargin") - ref.pop("worstGrowthLoMargin")) <= 1e-15
    assert got.keys() == ref.keys()
    for key in ref:
        assert got[key] == ref[key], key


@pytest.mark.parametrize("seed", range(1000, 1048))
def test_stacked_membership_equals_per_sample_loop(seed):
    got = verify_class_membership_bounds(24, seed=seed).as_dict()
    _assert_membership_equal(got, _ref_membership(24, seed))


# blocks hold 21 samples: one short block, one full, one full plus one, ..., ten
@pytest.mark.parametrize("count", [1, 4, 5, 6, 11, 20, 21, 22, 43, 200])
def test_stacked_membership_equals_per_sample_loop_at_block_edges(count):
    got = verify_class_membership_bounds(count, seed=42).as_dict()
    _assert_membership_equal(got, _ref_membership(count, 42))


def test_stacked_membership_violations_equal_per_sample_loop():
    got = verify_class_membership_bounds(24, seed=1000, tol=-0.5).as_dict()
    ref = _ref_membership(24, 1000, tol=-0.5)
    assert len(ref["violations"]) > 500
    assert {v["where"].split(" ")[0] for v in ref["violations"]} >= {"envelope", "growth"}
    assert any("@alpha=" in v["where"] for v in ref["violations"])
    _assert_membership_equal(got, ref)


# -- the block loop that the whole-suite passes replaced ------------------------------
# The suite built one sample_schwarz call at a time, each random polynomial
# normalised by its own np.polyval; then the envelope and growth margins of
# each block of rows computed and reduced block by block, with the point and
# node powers rebuilt on every call.


def _polyval_poly(seed):
    rng = np.random.default_rng(seed)
    row = np.zeros(verify.SAMPLE_ORDER + 1, dtype=complex)
    row[1:9] = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    sup = float(np.abs(np.polyval(row[8::-1], verify._boundary_circle())).max())
    row *= 1.0 / (verify.SCHWARZ_SAFETY * sup)
    return row


_WITNESS_KINDS = ["monomial"] * 4 + ["mobius_eta"] * 5


def _witnesses():
    """The suite's nine seed-free samples, each built on its own."""
    rows = [sample_schwarz("monomial", {"m": m}) for m in (1, 2, 3, 4)]
    return rows + [sample_schwarz("mobius_eta", {"eta": eta}) for eta in (0.0, 0.25, 0.5, 0.75, 1.0)]


def _polyval_suite(count, seed):
    rows, kinds = _witnesses(), list(_WITNESS_KINDS)
    i = 0
    while len(rows) < count:
        if i % 3 == 2:
            rows.append(sample_schwarz("scaled_blaschke", None, seed=seed + i))
            kinds.append("scaled_blaschke")
        else:
            rows.append(_polyval_poly(seed + i))
            kinds.append("random_poly_normalized")
        i += 1
    return np.array(rows[:count]), kinds[:count]


def _block_growth_modulus(rows):
    # |f| at the growth points by (row, radius, ray): w at every (ray, node)
    # pair from the rotated rows and the node powers, built here, and each
    # segment's weighted terms added one node at a time, then segment by segment
    rays, rho, node_weights = _ray_nodes()
    n = rows.shape[-1]
    u = (rows[:, None] * verify._powers(rays, n - 1)) @ rho ** np.arange(n)[:, None]
    terms = np.log(np.abs(u + 1)) * node_weights
    radii = verify._MEMBERSHIP_RADII
    exponent = np.zeros(terms.shape[:2] + (len(radii),))
    for k, segment in enumerate(np.split(terms, len(radii), axis=-1)):
        for j in range(segment.shape[-1]):
            exponent[..., k] += segment[..., j]
        if k:
            exponent[..., k] += exponent[..., k - 1]
    return np.array(radii)[:, None] * np.exp(-exponent.swapaxes(1, 2))


def _block_membership(sample_count, seed, alphas=(0.0, 0.5, 1.0), tol=1e-6):
    coeffs, kinds = _polyval_suite(sample_count, seed)
    radii = np.array(verify._MEMBERSHIP_RADII)[:, None]
    z_env = radii * verify._circle(verify._MEMBERSHIP_ANGLES)
    env_powers = verify._powers(z_env, coeffs.shape[1] - 1).reshape(-1, coeffs.shape[1]).T
    envs = [verify.re_im_envelope(r) for r in verify._MEMBERSHIP_RADII]
    re_lo_env, re_hi_env, im_env = (
        np.array([env[key] for env in envs])[:, None] for key in ("reLo", "reHi", "imAbs")
    )
    growth_lo, growth_hi = verify._membership_tables()[-2:]
    worst = dict.fromkeys(("re_lo", "re_hi", "im", "g_lo", "g_hi"), math.inf)
    env_bad, growth_bad = [], []
    rays = verify._MEMBERSHIP_ANGLES // verify._GROWTH_STRIDE
    block = max(1, verify.SLAB_POINTS // (rays * len(verify._MEMBERSHIP_RADII) * verify._RAY_NODES))
    for lo in range(0, len(coeffs), block):
        rows = coeffs[lo : lo + block]
        ratio = 1 - np.log(1 + (rows @ env_powers).reshape((-1,) + z_env.shape))
        re_lo = ratio.real - re_lo_env
        re_hi = re_hi_env - ratio.real
        im = im_env - np.abs(ratio.imag)
        fv = _block_growth_modulus(rows)
        g_lo = fv - growth_lo
        g_hi = growth_hi - fv
        for key, margin in (("re_lo", re_lo), ("re_hi", re_hi), ("im", im),
                            ("g_lo", g_lo), ("g_hi", g_hi)):
            worst[key] = min(worst[key], float(margin.min()))
        env_bad.extend((np.minimum(np.minimum(re_lo, re_hi), im) < -tol).sum(axis=-1))
        growth_bad.extend((np.minimum(g_lo, g_hi) < -tol).sum(axis=-1))

    tables = [verify._bound_row(alpha) for alpha in alphas]
    psi = make_spec("psi").series(4, exact=False).coeffs
    h = [1 + k * np.array(alphas, dtype=float) for k in range(5)]
    cmul = verify._cmul
    a2, a3, a4, a5 = verify._class_coefficients(
        coeffs[:, :5], psi, h[:4], [k * h[k] for k in range(1, 5)])
    a2_sq, a2_a3 = cmul(a2, a2), cmul(a2, a3)
    hankel = cmul(a2, a4) - cmul(a3, a3)
    h3 = cmul(a3, hankel) - cmul(a4, a4 - a2_a3) + cmul(a5, a3 - a2_sq)
    values = np.stack((a2, a3, a3 - a2_sq, a4, a2_a3 - a4, a5, hankel, h3), axis=-1)
    margins = (np.array(tables) - np.hypot(values.real, values.imag)).reshape(len(coeffs), -1)
    checks = [f"{key}@alpha={alpha}" for alpha in alphas for key in verify._COEFF_KEYS]
    coeff_bad = [[] for _ in kinds]
    for idx, c in zip(*np.nonzero(margins < -tol)):
        coeff_bad[idx].append(checks[c])
    violations = []
    for idx, kind in enumerate(kinds):
        wheres = []
        for r, n_env, n_growth in zip(verify._MEMBERSHIP_RADII, env_bad[idx], growth_bad[idx]):
            wheres += [f"envelope r={r}"] * n_env + [f"growth r={r}"] * n_growth
        violations.extend(
            {"sample": idx, "kind": kind, "where": where} for where in wheres + coeff_bad[idx]
        )
    return verify.MembershipReport(
        samples=sample_count,
        seed=seed,
        worst_re_lo=worst["re_lo"],
        worst_re_hi=worst["re_hi"],
        worst_im=worst["im"],
        worst_growth_lo=worst["g_lo"],
        worst_growth_hi=worst["g_hi"],
        coeff_margins=dict(zip(checks, margins.min(axis=0).tolist())),
        violations=violations,
    ).as_dict()


@pytest.mark.parametrize("seed", range(1000, 1048))  # the benchmark's membership pool
def test_membership_equals_the_block_loop_on_the_pool_seeds(seed):
    assert verify_class_membership_bounds(24, seed=seed).as_dict() == _block_membership(24, seed)


# blocks hold 21 samples; a last block of one row may take another matrix product path
@pytest.mark.parametrize("count", [1, 4, 5, 8, 9, 10, 11, 21, 22, 24, 42, 43, 200])
def test_membership_equals_the_block_loop_at_counts(count):
    assert verify_class_membership_bounds(count, seed=42).as_dict() == _block_membership(count, 42)


def test_membership_violations_equal_the_block_loop():
    got = verify_class_membership_bounds(24, seed=1000, tol=-0.5).as_dict()
    ref = _block_membership(24, 1000, tol=-0.5)
    assert len(ref["violations"]) > 500
    assert got == ref


# -- the growth check's ray quadrature ---------------------------------------------------
# The growth check integrates log|1 + w| once per ray, on _RAY_NODES nodes of
# each segment between the membership radii; the structural functions take 64
# nodes on [0, z]. At the suite's radii, |z| <= 0.9, both sit at rounding
# level, so |f| at every growth point must keep the 64-node value to 1e-14
# relative (seen: 1.9e-15).


_RAY_SUITES = [(24, seed) for seed in range(1000, 1048)] + [(200, seed) for seed in (1, 2, 3, 4, 5, 42)]


@pytest.mark.parametrize("count, seed", _RAY_SUITES)
def test_ray_modulus_equals_the_block_loop_at_every_point(count, seed):
    # the report holds only minima: each point's |f| keeps the bits of the
    # node-by-node sums, whatever the block size
    rows = sample_suite(count, seed)[0]
    assert np.array_equal(verify._growth_modulus(rows), _block_growth_modulus(rows))
    assert np.array_equal(verify._growth_modulus(rows[-3:]), _block_growth_modulus(rows)[-3:])


@pytest.mark.parametrize("count, seed", _RAY_SUITES)
def test_ray_segments_keep_the_64_node_modulus(count, seed):
    radii = verify._MEMBERSHIP_RADII
    assert max(radii) <= 0.9  # the radius the node count rests on
    _, powers, weights = verify._membership_tables()[1:4]
    # the segments tile [0, 0.9] and end at the radii: each integrates 1 to its length
    lengths = (weights * powers[1]).reshape(len(radii), -1).sum(axis=1)
    assert np.allclose(np.cumsum(lengths), radii, rtol=0, atol=1e-15)
    coeffs = sample_suite(count, seed)[0]
    z_growth = np.array(radii)[:, None] * verify._circle(verify._MEMBERSHIP_ANGLES)[:: verify._GROWTH_STRIDE]
    exponent = verify._log_ratio_integral(coeffs[:, None, None, :], verify._powers(z_growth, verify.SAMPLE_ORDER))
    ref = np.abs(z_growth * np.exp(exponent))
    got = verify._growth_modulus(coeffs)
    assert (np.abs(got - ref) <= 1e-14 * ref).all()


# -- the envelope's split log -----------------------------------------------------------
# The suite takes its envelope margins from log|u| + i arg u, u = 1 + w, and
# calls np.log(u) again only where a margin lies within 2 * _LOG_SLACK of a
# minimum or of the verdict. np.angle's SIMD arctan2 differs from libm's atan2,
# so these tests also run with numpy's dispatch disabled.


def _envelope_points(count, seed):
    """u = 1 + w at the suite's envelope points, by (sample, radius, angle)."""
    coeffs = sample_suite(count, seed)[0]
    u = (coeffs @ verify._membership_tables()[0]).reshape(count, len(verify._MEMBERSHIP_RADII), -1)
    return u + 1


def _envelope_margins(re, arg):
    """The Re lo, Re hi and |Im| margins of 1 - log(u) = re - i arg, stacked first."""
    re_lo_env, re_hi_env, im_env = verify._membership_tables()[4:7]
    return np.stack((re - re_lo_env, re_hi_env - re, im_env - np.abs(arg)))


@pytest.mark.parametrize("count, seed", [(24, seed) for seed in range(1000, 1048)] + [(200, 42)])
def test_split_log_is_within_a_tenth_of_the_slack(count, seed):
    u = _envelope_points(count, seed)
    exact = np.log(u)
    assert np.abs(np.log(np.abs(u)) - exact.real).max() <= verify._LOG_SLACK / 10
    assert np.abs(np.angle(u) - exact.imag).max() <= verify._LOG_SLACK / 10


def test_split_log_planted_verdict_equals_the_block_loop():
    # -tol is np.log's margin at a point where the split form's lies below it,
    # and far from every minimum: the split form alone would count that
    # point as failing, and only the verdict's re-evaluation can mend it
    u = _envelope_points(24, 1000)
    exact = np.log(u)
    margins = _envelope_margins(1 - np.log(np.abs(u)), np.angle(u))
    fast, worst = margins.min(axis=0), _envelope_margins(1 - exact.real, exact.imag).min(axis=0)
    far = (margins > margins.min(axis=(1, 2, 3), keepdims=True) + 2 * verify._LOG_SLACK).all(axis=0)
    tol = -float(worst[far & (fast < worst)][0])
    assert ((fast < -tol).sum(axis=-1) != (worst < -tol).sum(axis=-1)).any()
    got = verify_class_membership_bounds(24, seed=1000, tol=tol).as_dict()
    assert repr(got) == repr(_block_membership(24, 1000, tol=tol))


def test_split_log_mid_tol_equals_the_block_loop():
    # 12 of the 24 samples fail at tol = -0.025, by envelope, growth and
    # coefficient checks; the others build no violation entry
    got = verify_class_membership_bounds(24, seed=1000, tol=-0.025).as_dict()
    assert len({v["sample"] for v in got["violations"]}) == 12
    assert {v["where"].split(" ")[0] for v in got["violations"]} >= {"envelope", "growth", "a2@alpha=0.0"}
    assert repr(got) == repr(_block_membership(24, 1000, tol=-0.025))


@pytest.mark.parametrize("seed", range(0, 640, 10))
def test_suite_samples_equal_per_sample_polyval(seed):
    (rows, kinds), (ref_rows, ref_kinds) = sample_suite(40, seed=seed), _polyval_suite(40, seed)
    assert kinds == ref_kinds
    assert rows.tobytes() == ref_rows.tobytes()
    one = sample_schwarz("random_poly_normalized", seed=seed)
    assert one.tobytes() == _polyval_poly(seed).tobytes()


# -- the membership suite's coefficient rows ---------------------------------------------
# sample_suite draws the suite as one complex matrix: its rows must hold the bits
# of each sample drawn on its own, and of the construction they replaced, each
# Blaschke product one np.convolve per zero into the row, in that argument order.


def _convolve_blaschke(seed):
    rng = np.random.default_rng(seed)
    radii = rng.uniform(0.1, 0.6, 2)
    angles = rng.uniform(0, 2 * math.pi, 2)
    zeros = [r * cmath.exp(1j * t) for r, t in zip(radii, angles)]
    row = np.zeros(verify.SAMPLE_ORDER + 1, dtype=complex)
    row[1] = float(rng.uniform(0.5, 0.95))
    for a in zeros:
        factor = np.append(a, -(1 - abs(a) ** 2) * np.conj(a) ** np.arange(verify.SAMPLE_ORDER))
        row = np.convolve(row, factor)[: verify.SAMPLE_ORDER + 1]
    return row


def _reference_rows(count, seed):
    """The suite's rows and kinds, each random sample built on its own."""
    rows, kinds = _witnesses(), list(_WITNESS_KINDS)
    for i in range(count - len(_WITNESS_KINDS)):
        blaschke = i % 3 == 2
        rows.append(_convolve_blaschke(seed + i) if blaschke else _polyval_poly(seed + i))
        kinds.append("scaled_blaschke" if blaschke else "random_poly_normalized")
    return np.array(rows[:count]), kinds[:count]


@pytest.mark.parametrize("count", [1, 9, 10, 11, 12, 21, 22, 43, 200])
@pytest.mark.parametrize("seed", [0, 7, 42, 1000])
def test_membership_rows_equal_the_suite_bit_for_bit(count, seed):
    rows, kinds = sample_suite(count, seed)
    assert rows.shape == (count, verify.SAMPLE_ORDER + 1) and rows.dtype == complex
    # tobytes tells apart what == does not: a signed zero, or a nan
    ref_rows, ref_kinds = _reference_rows(count, seed)
    assert kinds == ref_kinds
    assert rows.tobytes() == ref_rows.tobytes()


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 5, 8, 13, 1000, 1047])
def test_membership_random_kinds_equal_their_rows(seed):
    # the suite's i-th further sample draws from seed + i: a polynomial at i = 0
    # (row 9), a Blaschke product at i = 2 (row 11)
    poly = sample_schwarz("random_poly_normalized", seed=seed)
    blaschke = sample_schwarz("scaled_blaschke", seed=seed + 2)
    assert poly.tobytes() == _polyval_poly(seed).tobytes()
    assert blaschke.tobytes() == _convolve_blaschke(seed + 2).tobytes()
    rows, kinds = sample_suite(12, seed)
    for omega, kind, i in ((poly, "random_poly_normalized", 9), (blaschke, "scaled_blaschke", 11)):
        assert kinds[i] == kind and omega.dtype == complex and omega.shape == (verify.SAMPLE_ORDER + 1,)
        assert rows[i].tobytes() == omega.tobytes()


def test_witnesses_and_tables_are_built_once_and_read_only(monkeypatch):
    built = []
    real_sample, real_envelope = verify.sample_schwarz, verify.re_im_envelope
    monkeypatch.setattr(verify, "sample_schwarz",
                        lambda kind, *args, **kwargs: built.append(kind) or real_sample(kind, *args, **kwargs))
    monkeypatch.setattr(verify, "re_im_envelope", lambda r: built.append(r) or real_envelope(r))
    for cached in (verify._witness_rows, verify._membership_tables, verify._node_powers):
        cached.cache_clear()
    for _ in range(2):
        verify_class_membership_bounds(9, seed=3)
        verify_class_membership_bounds(24, seed=5)  # draws its other samples as rows
    assert built == ["monomial"] * 4 + ["mobius_eta"] * 5 + list(verify._MEMBERSHIP_RADII)
    assert verify._node_powers.cache_info().currsize == 0  # the growth check runs on the rays
    assert verify._witness_rows.cache_info().currsize == 1

    rows = verify._witness_rows()
    assert rows is verify._witness_rows() and not rows.flags.writeable
    with pytest.raises(ValueError):
        rows[0, 1] = 0
    assert rows.dtype == complex and rows.shape == (9, verify.SAMPLE_ORDER + 1)
    assert rows.tobytes() == np.array(_witnesses()).tobytes()
    suite_rows, kinds = sample_suite(24, 5)
    assert suite_rows.flags.writeable and suite_rows[:9].tobytes() == rows.tobytes()
    assert kinds[:9] == _WITNESS_KINDS
    suite_rows[0, 1] = 0  # each suite is a fresh array: the witness rows stay
    assert rows[0, 1] == 1 and sample_suite(24, 5)[0][0, 1] == 1
    tables = verify._membership_tables()
    assert tables is verify._membership_tables()
    rotations, ray_powers, ray_weights = tables[1:4]  # the ray tables
    assert len(rotations) * ray_powers.shape[1] == len(rotations) * ray_weights.size == 384  # a row's pairs
    nodes = verify._node_powers(verify.SAMPLE_ORDER + 1)  # the structural functions' 64 nodes
    for table in tables + (nodes,):
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[..., 0] = 0
    assert nodes is verify._node_powers(verify.SAMPLE_ORDER + 1)
    s = verify._gauss_legendre()[0]
    assert nodes.tobytes() == (s ** np.arange(verify.SAMPLE_ORDER + 1)[:, None]).tobytes()


def test_bound_row_is_cached_per_alpha(monkeypatch):
    built = []
    real = verify.sl_bound_table
    monkeypatch.setattr(verify, "sl_bound_table", lambda alpha: built.append(alpha) or real(alpha))
    verify._bound_row.cache_clear()
    alphas = (0.0, 0.3, 0.5, 1.0)
    for _ in range(2):
        verify_class_membership_bounds(6, seed=7, alphas=alphas)
    assert built == [Fraction(alpha).limit_denominator(10**6) for alpha in alphas]
    for alpha in alphas:
        frac = Fraction(alpha).limit_denominator(10**6)
        table = real(frac)
        table["h2_general"] = second_hankel(alpha_class_params(float(frac)), B_PSI).value
        assert verify._bound_row(alpha) == tuple(float(table[key]) for key in verify._COEFF_KEYS)
    assert len(built) == len(alphas)


@pytest.mark.parametrize("count", [0, -3])
def test_membership_sample_count_below_one_rejected(count):
    with pytest.raises(ValueError):
        sample_suite(count)
    with pytest.raises(ValueError):
        verify_class_membership_bounds(count)


# 2.5 failed in a slice with a TypeError, and True ran one sample
@pytest.mark.parametrize("count", [2.5, 24.0, True, False, "24", None])
def test_membership_sample_count_must_be_an_int(count):
    message = re.escape(f"sample count must be an int, got {count!r}")
    with pytest.raises(ValueError, match=message):
        sample_suite(count)
    with pytest.raises(ValueError, match=message):
        verify_class_membership_bounds(count)


def test_membership_sample_count_reported_as_an_int():
    rep = verify_class_membership_bounds(np.int64(24), seed=1000)
    assert type(rep.samples) is int
    assert repr(rep.as_dict()) == repr(verify_class_membership_bounds(24, seed=1000).as_dict())
    assert sample_suite(np.int32(12), seed=3)[0].tobytes() == sample_suite(12, seed=3)[0].tobytes()


# True ran seed 1 and reported seed True; 1.5 failed in numpy with a TypeError
@pytest.mark.parametrize("seed", [True, False, 1.5, 3.0, "3", None])
def test_sample_seed_must_be_an_int(seed):
    message = re.escape(f"seed must be an int, got {seed!r}")
    for call in (lambda: sample_suite(24, seed=seed),
                 lambda: sample_schwarz("scaled_blaschke", seed=seed),
                 lambda: sample_schwarz("monomial", {"m": 2}, seed=seed),
                 lambda: verify_class_membership_bounds(9, seed=seed)):
        with pytest.raises(ValueError, match=message):
            call()


def test_sample_seed_below_zero_rejected():
    for call in (lambda: sample_suite(5, seed=-1), lambda: sample_schwarz("monomial", seed=-1),
                 lambda: verify_class_membership_bounds(5, seed=-1)):
        with pytest.raises(ValueError, match="seed must be at least 0"):
            call()


def test_membership_seed_reported_as_an_int():
    rep = verify_class_membership_bounds(24, seed=np.int64(1000))
    assert type(rep.seed) is int
    assert repr(rep.as_dict()) == repr(verify_class_membership_bounds(24, seed=1000).as_dict())


# nan counted no violation, +inf passed every check and -inf failed all 5,760
@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf])
def test_membership_tol_must_be_finite(tol):
    with pytest.raises(ValueError, match=re.escape(f"tol must be finite, got {tol!r}")):
        verify_class_membership_bounds(24, seed=1000, tol=tol)


# an empty alphas died in a numpy broadcast
@pytest.mark.parametrize("alphas", [(), []])
def test_membership_alphas_must_not_be_empty(alphas):
    with pytest.raises(ValueError, match="alphas must hold at least one alpha"):
        verify_class_membership_bounds(9, alphas=alphas)


def _coeffs_reference(params, coeffs, p1, p2, p3):
    """(a2, a3, a4) with a4 as one expression, before its p3-free part was shared."""
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


def _coeffs_majorants(params, coeffs, p1, p2, p3):
    """Bounds on |a2|, |a3| and |a4| that add up the moduli of the summands of
    :func:`_coeffs_reference` at p1 >= 0 and moduli p2, p3: a few ulps of
    these bound its rounding, however much its sums cancel."""
    g2, g3 = params.g2, params.g3
    h2, h3 = params.h2, params.h3
    u, v, w = params.u, params.v, params.w
    b1, b2, b3 = map(abs, coeffs)
    c = abs(coeffs[1] - 1)
    a2 = b1 * p1 / (2 * u)
    a3 = (b2 * p1**2 * u + b1 * (p1**2 + 2 * p2) * u + b1**2 * p1**2 * h2) / (4 * u * v)
    a4 = (
        p1 * (2 * b2 * p1**2 + b3 * p1**2 + 4 * b2 * p2) * u * v
        + b1**3 * p1**3 * h2 * h3
        + b1**2 * p1 * (p1**2 + 2 * p2) * (g3 * h2 + abs(g2 - 2 * h2) * h3)
        + b1 * (p1**3 * (g2 * (g3 + c * h3) + h2 * (c * g3 + h3 + 2 * b2 * h3))
                + 4 * p1 * p2 * u * v + 4 * p3 * u * v)
    ) / (8 * u * v * w)
    return a2, a3, a4


def _hankel_grid_reference(params, coeffs, density):
    """The Hankel oracle's grid values on the full (d, d, d) tensor, by two
    whole-formula coefficient calls."""
    p1, _, _, x = polar_grid(2.0, density)
    p1 = p1 + 0j
    s = 4 - p1**2
    p2 = (p1**2 + x * s) / 2
    base = (p1**3 + 2 * p1 * s * x - p1 * s * x**2) / 4
    bump = 2 * s * (1 - np.abs(x) ** 2) / 4
    a2, a3, a4_0 = _coeffs_reference(params, coeffs, p1, p2, base)
    _, _, a4_1 = _coeffs_reference(params, coeffs, p1, p2, base + bump)
    return np.abs(a2 * a4_0 - a3**2) + np.abs(a2 * (a4_1 - a4_0))


def _screened_oracle(params, coeffs, density):
    """The Hankel oracle's value, (p1, x, |E0| + |E1|) of each of its calls
    of the expression tree on arrays (the row probes, the row of the largest
    bound, the rows kept), and (objective, start, xatol, fatol) of each polish."""
    tree, polish = [], []
    halves, minimize = verify._hankel_halves, gft.bounds.minimize

    def recording_halves(params, coeffs, p1, x):
        e0, e1 = halves(params, coeffs, p1, x)
        if np.ndim(x):
            tree.append((p1, x, np.abs(e0) + np.abs(e1)))
        return e0, e1

    def recording_minimize(fun, x0, xatol, fatol):
        polish.append((fun, x0, xatol, fatol))
        return minimize(fun, x0, xatol=xatol, fatol=fatol)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verify, "_hankel_halves", recording_halves)
        mp.setattr(gft.bounds, "minimize", recording_minimize)
        value = maximize_second_hankel_oracle(params, coeffs, density)
    return value, tree, polish


def _assert_screen_keeps_the_full_sweep(params, coeffs, density, full):
    """The screened oracle runs the tree on the row of the largest bound, and
    again on whole rows in grid order unless that row is the one kept; its
    last tree call holds the rows kept. It polishes from the first argmax of
    the full grid values ``full``, with its value bits, and returns what the
    full sweep's polish returns, on an objective that agrees with the grid
    at the start."""
    value, tree, ((neg, start, xatol, fatol),) = _screened_oracle(params, coeffs, density)
    assert len(tree) in (2, 3) and tree[1][2].size == density**2
    p1, x, survivors = tree[-1]
    p1, x = (a.ravel() for a in np.broadcast_arrays(p1, x))
    assert survivors.size % density**2 == 0
    # grid indices of the survivors; at rho = 0 every phi gives x = 0, read as phi = 0
    i = np.rint(p1.real * (density - 1) / 2).astype(int)
    j = np.rint(np.abs(x) * (density - 1)).astype(int)
    m = np.where(j > 0, np.rint(np.angle(x) / (2 * np.pi) * density) % density, 0).astype(int)
    assert np.all(np.diff(np.ravel_multi_index((i, j, m), full.shape)) >= 0)
    t, rho, phi, _ = polar_grid(2.0, density)
    i, j, k = np.unravel_index(int(np.argmax(full)), full.shape)
    assert start == (t[i, 0, 0], rho[0, j, 0], phi[0, 0, k])
    assert survivors.max().view(np.uint64) == full[i, j, k].view(np.uint64)
    best = float(full[i, j, k])
    assert -neg(start) == pytest.approx(best, rel=1e-14)  # the scalar bump may round an ulp off
    res = gft.bounds.minimize(neg, start, xatol=xatol, fatol=fatol)
    assert repr(value) == repr(float(-res.fun) if -res.fun > best else best)


def _planted_halves(params, coeffs, p1, x):
    """Halves of the tree's shape, E0 quadratic in x and E1 = K(p1) (1 - |x|^2),
    whose maximum |E0| + |E1| lies inside the disk, near p1 = 1, x = 1/3."""
    return (p1 - 0.7) + 2 * x - 0.2 * x**2, 3 * p1 * (2 - p1) * (1 - np.abs(x) ** 2)


def _off_grid_halves(params, coeffs, p1, x):
    """Halves of the tree's shape whose rows p1 > 0, 1.0001 |1 - x^2|, have the
    largest bound 2.0002 at x = +-i, off the grid when 4 does not divide d, and
    fall below the row p1 = 0, |1 + x|, which attains its bound 2 at x = 1."""
    return np.where(p1 == 0, 1 + x, 1.0001 * (1 - x**2)), 0 * (p1 + x)


def _objective_of(halves):
    """A factory of polish objectives in the place of ``verify._hankel_objective``:
    -(|E0| + |E1|) of ``halves`` at the vertex, p1 clamped to [0, 2], rho to [0, 1]."""
    def objective(params, coeffs):
        def neg(vertex):
            p, r = min(max(vertex[0], 0.0), 2.0), min(max(vertex[1], 0.0), 1.0)
            e0, e1 = halves(params, coeffs, complex(p), r * cmath.exp(1j * vertex[2]))
            return -(abs(e0) + abs(e1))
        return neg
    return objective


# a real row coefficient: zero a fifth of the time, else of modulus in [1e-3, 3]
ROW_COEFFS = st.just(0.0) | st.floats(1e-3, 3.0) | st.floats(-3.0, -1e-3)


class TestDiskMax:
    """``disk_max``: the closed-form maximum of |a0 + a1 x + a2 x^2| + k (1 - |x|^2)."""

    RADII, ANGLES = 201, 512
    X = (np.linspace(0.0, 1.0, RADII)[:, None]
         * np.exp(2j * np.pi * np.arange(ANGLES) / ANGLES)).ravel()

    def test_spot_values(self):
        assert disk_max(1.0, 0.0, 0.0, 1.0) == 2.0  # 1 + (1 - |x|^2) at x = 0
        assert disk_max(1.0, 2.0, 1.0, 0.0) == 4.0  # |1 + x|^2 at x = 1

    def test_rows_are_independent(self):
        rows = np.array([[1.0, 0.0, 0.0, 1.0], [1.0, 2.0, 1.0, 0.0], [0.1, 0.9, -0.5, 1.0]])
        want = [disk_max(*row) for row in rows]
        assert disk_max(*rows.T).tolist() == want

    @given(ROW_COEFFS, ROW_COEFFS, ROW_COEFFS, st.just(0.0) | st.floats(1e-3, 3.0),
           st.integers(0, 900))
    # at 2^-340 ~ 4.5e-103 the case tests' products of four coefficients underflow
    @example(0.1, 0.2, -0.5, 1.0, 340)
    @settings(max_examples=200, deadline=None)
    def test_exact_under_scaling_by_powers_of_two(self, a0, a1, a2, k, n):
        row = np.ldexp([a0, a1, a2, k], -n)
        assert np.ldexp(disk_max(*row), n) == disk_max(a0, a1, a2, k)

    @given(ROW_COEFFS, ROW_COEFFS, ROW_COEFFS, st.just(0.0) | st.floats(1e-3, 3.0))
    # one example per case, in the order disk_max tries them
    @example(1.0, 2.0, 1.0, 1.0)  # a0 a2 >= 0, |a1| >= 2 (k - |a2|)
    @example(1.0, 0.0, 0.0, 1.0)  # a0 a2 >= 0, interior vertex
    @example(0.1, 0.9, -0.5, 1.0)  # a0 a2 < 0, k - |a0| + a1^2 / (4 (k - |a2|))
    @example(0.1, 0.2, -0.5, 1.0)  # a0 a2 < 0, k + |a0| + a1^2 / (4 (k + |a2|))
    @example(1.0, 1.0, -0.1, 0.0)  # |a0| + |a1| - |a2|
    @example(0.1, 1.0, -1.0, 0.0)  # -|a0| + |a1| + |a2|
    @example(1.0, 0.5, -1.0, 0.0)  # (|a0| + |a2|) sqrt(1 - a1^2 / (4 a0 a2))
    @settings(max_examples=300, deadline=None)
    def test_dense_disk_grid(self, a0, a1, a2, k):
        # the grid never rises above the maximum but by rounding, and falls
        # short of it by at most its resolution: the row function is Lipschitz
        # with |a1| + 2|a2| + 2k, and every point of the disk lies within half
        # a radial step plus one angular step of the grid
        top = float(disk_max(a0, a1, a2, k))
        x = self.X
        grid = float((np.abs(a0 + a1 * x + a2 * x**2) + k * (1 - np.abs(x) ** 2)).max())
        assert grid <= top * (1 + 1e-14)
        step = 0.5 / (self.RADII - 1) + np.pi / self.ANGLES
        assert top - grid <= (abs(a1) + 2 * abs(a2) + 2 * k) * step + 1e-14 * top


class TestHankelOracle:
    def test_sharp_at_starlike_end(self):
        val = maximize_second_hankel_oracle(alpha_class_params(0.0), B_PSI, 64)
        assert val >= 0.249
        assert val <= 0.25 + 1e-9

    def test_degenerate_coefficients(self):
        val = maximize_second_hankel_oracle(alpha_class_params(0.0), (0.0, 0.0, 0.0), 32)
        assert val == 0.0

    def test_convex_end_value(self):
        # frozen from the density-64 grid + simplex polish
        val = maximize_second_hankel_oracle(alpha_class_params(1.0), B_PSI, 64)
        assert val == pytest.approx(0.028093434343, abs=1e-6)

    @pytest.mark.parametrize(
        "alpha", [0.0, 0.25, 0.5, (2 + math.sqrt(15)) / 11, 0.75, 1.0]
    )
    def test_never_exceeds_general_bound(self, alpha):
        params = alpha_class_params(alpha)
        val = maximize_second_hankel_oracle(params, B_PSI, 64)
        assert val <= float(second_hankel(params, B_PSI).value) + 1e-9

    def test_table_gap_above_branch_point_is_surfaced(self):
        # above the branch point the closed-form table entry is smaller than
        # the reachable supremum; the general bound is the one the oracle
        # must respect (see the decisions ledger of this repository)
        val = maximize_second_hankel_oracle(alpha_class_params(1.0), B_PSI, 64)
        assert val > float(h2_bound_sl(Fraction(1)).value)

    def test_density_validated(self):
        with pytest.raises(ValueError):
            maximize_second_hankel_oracle(alpha_class_params(0.0), B_PSI, 16)

    @pytest.mark.parametrize("density", GRID_DENSITIES)
    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
    def test_screened_grid_equals_full_tensor(self, alpha, density):
        params = alpha_class_params(alpha)
        full = _hankel_grid_reference(params, PSI_FLOATS, density)
        _assert_screen_keeps_the_full_sweep(params, PSI_FLOATS, density, full)

    @given(
        st.floats(0.0, 1.0),
        st.tuples(*[st.just(0.0) | st.floats(-3.0, 3.0)] * 3),
        st.integers(32, 64),
    )
    # b1 = 0 leaves a function of p1 alone: the whole p1 = 2 row ties for the maximum
    @example(0.5, (0.0, 1.0, 0.0), 40)
    @settings(max_examples=25, deadline=None)
    def test_screened_grid_equals_full_tensor_for_any_triple(self, alpha, coeffs, density):
        params = alpha_class_params(alpha)
        full = _hankel_grid_reference(params, coeffs, density)
        _assert_screen_keeps_the_full_sweep(params, coeffs, density, full)

    @pytest.mark.parametrize("density", [32, 33, 48])
    def test_screen_keeps_an_interior_maximum(self, monkeypatch, density):
        # the class's maxima sit where E1 = 0 (p1 = 0, p1 = 2 or |x| = 1) in
        # every case tried, so only a functional of the same shape with an
        # interior maximum shows that the screen carries K
        monkeypatch.setattr(verify, "_hankel_halves", _planted_halves)
        monkeypatch.setattr(verify, "_hankel_objective", _objective_of(_planted_halves))
        t, _, _, x = polar_grid(2.0, density)
        e0, e1 = _planted_halves(None, None, t + 0j, x)
        full = np.abs(e0) + np.abs(e1)
        i, j, _ = np.unravel_index(int(np.argmax(full)), full.shape)
        assert 0 < t[i, 0, 0] < 2 and 0 < j < density - 1 and np.abs(e1).max() > 1
        _assert_screen_keeps_the_full_sweep(alpha_class_params(0.5), PSI_FLOATS, density, full)

    @pytest.mark.parametrize("density", [33, 37])
    def test_screen_keeps_a_row_below_the_largest_bound(self, monkeypatch, density):
        # the grid's maximum lies on a row other than the one of the largest
        # bound, so the tree must also run on the rows that bound may reach
        monkeypatch.setattr(verify, "_hankel_halves", _off_grid_halves)
        monkeypatch.setattr(verify, "_hankel_objective", _objective_of(_off_grid_halves))
        t, _, _, x = polar_grid(2.0, density)
        e0, e1 = _off_grid_halves(None, None, t + 0j, x)
        full = np.abs(e0) + np.abs(e1)
        assert full[1:].max() < full[0].max() == 2
        _assert_screen_keeps_the_full_sweep(alpha_class_params(0.5), PSI_FLOATS, density, full)

    @pytest.mark.parametrize("alpha", [0.0, 0.25, 0.5, 0.75, 1.0])
    def test_screen_leaves_few_points_to_the_tree(self, alpha):
        # the suite's grids: the tree runs on the d x 3 row probes and on the
        # row of the largest bound, the one row kept, never on the whole grid
        _, tree, _ = _screened_oracle(alpha_class_params(alpha), PSI_FLOATS, 48)
        assert [values.size for _, _, values in tree] == [3 * 48, 48**2]

    @given(
        st.floats(0.0, 2.0),
        st.floats(0.0, 1.0),
        st.floats(0.0, 2 * math.pi, exclude_max=True),
        st.floats(0.0, 1.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_shared_part_halves_equal_two_coefficient_calls(self, p, r, phi, alpha):
        # the scalar route whose bits the polish objective keeps: a complex p1,
        # a numpy-scalar x
        params = alpha_class_params(alpha)
        p1, x = complex(p), np.float64(r) * cmath.exp(1j * phi)
        p2, base, bump = verify._p2_p3(p1, x)
        (a2, a3, a4_0), (_, _, a4_1) = (
            _coeffs_reference(params, PSI_FLOATS, p1, p2, p3) for p3 in (base, base + bump))
        want = np.array([a2 * a4_0 - a3**2, a2 * (a4_1 - a4_0)])
        got = np.array(verify._hankel_halves(params, PSI_FLOATS, p1, x))
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @staticmethod
    def _assert_objective_is_the_scalar_tree(alpha, coeffs, vertices):
        # the objective on Python floats against -(|E0| + |E1|) of the tree on
        # the scalars the polish passed it before: complex(p1) and x = rho e^(i phi)
        # from a numpy vertex, rho a numpy float unless clamped to [0, 1]
        params = ClassParams(*map(float, alpha_class_params(alpha)))
        objective = verify._hankel_objective(params, coeffs)
        for v in np.asarray(vertices, dtype=float):
            p, r = min(max(v[0], 0.0), 2.0), min(max(v[1], 0.0), 1.0)
            e0, e1 = verify._hankel_halves(params, coeffs, complex(p), r * cmath.exp(1j * v[2]))
            assert repr(objective(tuple(v.tolist()))) == repr(float(-(abs(e0) + abs(e1))))

    @pytest.mark.parametrize("seed", range(20))
    def test_polish_objective_is_the_scalar_tree(self, seed):
        # p1, rho and phi inside and outside their clamp intervals, some exactly
        # at an end, rho exactly 0 and 1
        rng = np.random.default_rng(seed)
        coeffs = tuple(np.where(rng.random(3) < 0.2, 0.0, rng.uniform(-3.0, 3.0, 3)).tolist())
        vertices = np.column_stack([rng.uniform(-0.5, 2.5, 500), rng.uniform(-0.5, 1.5, 500),
                                    rng.uniform(-7.0, 14.0, 500)])
        for k, ends in enumerate(([0.0, 2.0], [0.0, 1.0, -0.0], [0.0, -0.0, 2 * math.pi])):
            at_end = rng.random(500) < 0.2
            vertices[at_end, k] = rng.choice(ends, at_end.sum())
        self._assert_objective_is_the_scalar_tree(rng.random(), coeffs, vertices)

    def test_polish_objective_squares_the_bump_modulus_by_pow(self):
        # |x| = 0.6936...: pow(|x|, 2) rounds to 0.4811473667888733 and the
        # product |x| |x| to ...734, which moves the value by one ulp
        self._assert_objective_is_the_scalar_tree(
            0.8313682401307835, (-0.3170186832800743, -0.5181898395671363, 0.14028615682670154),
            [(1.0629990228719306, 0.6936478694473682, 0.4488138300900273)])

    @given(
        st.floats(0.0, 1.0),
        st.tuples(*[st.just(0.0) | st.floats(-3.0, 3.0)] * 3),
        st.floats(0.0, 2.0),
        DISK_POINTS,
        DISK_POINTS,
    )
    @example(0.0, (3.0034475569827366e-99, 0.0, 0.0), 1.0, 4.6116780750780645e-26 + 0j, 0j)
    @example(0.0, (1.0883198580943672e-158, 0.0, 0.0), 0.5, 0.5 + 0j, 1 + 0j)
    @settings(max_examples=300, deadline=None)
    def test_halves_are_the_recurrence_hankel(self, alpha, coeffs, p1, x, y):
        # the tree against an independent coefficient body: a2 a4 - a3^2 of
        # the recurrence at the Schwarz coefficients of the data (p1, x, y), to
        # 1e-12 of the moduli of the tree's summands (at p1 = 1, x = 4.6e-26 the
        # tree's p1^2 - 2 p2 cancels to 0 and a2 a4 - a3^2 to some 1e-249),
        # plus the smallest normal float: subnormals (b1 = 1e-158 makes a2 a4
        # one) carry no relative precision
        params = alpha_class_params(alpha)
        s = 1 - p1**2 / 4
        c = [0, p1 / 2, s * x, s * ((1 - abs(x) ** 2) * y - p1 / 2 * x**2)]
        a2, a3, a4 = (complex(a[0, 0]) for a in verify._class_coefficients(
            np.array([c], dtype=complex), [1.0, *coeffs], [1.0, params.h2, params.h3],
            [params.u, params.v, params.w]))
        e0, e1 = verify._hankel_halves(params, coeffs, complex(p1), x)
        r, s4 = abs(x), 4 - p1**2
        p2 = (p1**2 + r * s4) / 2  # moduli bounds: |p3| <= |base| + |bump|
        p3 = (p1**3 + 2 * p1 * s4 * r + p1 * s4 * r**2 + 2 * s4 * (1 + r**2)) / 4
        m2, m3, m4 = _coeffs_majorants(params, coeffs, p1, p2, p3)
        assert abs(e0 + e1 * y - (a2 * a4 - a3**2)) <= 1e-12 * (m2 * m4 + m3**2) + 2.0**-1022


NON_FINITE_TRIPLES = [
    tuple(bad if j == i else c for j, c in enumerate(PSI_FLOATS))
    for i in range(3) for bad in (math.nan, math.inf, -math.inf)
]


@pytest.mark.parametrize(
    "oracle", [gft.bounds.a4_bound, gft.bounds.a2a3_a4_bound, maximize_second_hankel_oracle])
@pytest.mark.parametrize("coeffs", NON_FINITE_TRIPLES)
def test_non_finite_coefficient_rejected_before_the_grid(monkeypatch, oracle, coeffs):
    # a nan row bound made the Hankel oracle keep no row and the cubic ones report nan
    def banned(*args):
        raise AssertionError("no grid work on a non-finite coefficient")

    monkeypatch.setattr(verify, "disk_max", banned)
    i = next(j for j, c in enumerate(coeffs) if not math.isfinite(c)) + 1
    with pytest.raises(ValueError, match=f"generator coefficient b{i} must be finite"):
        oracle(alpha_class_params(0.5), coeffs, 32)


@pytest.mark.parametrize("oracle, coeffs", [
    (gft.bounds.a4_bound, (1e200, 0.5, 1 / 3)),
    (gft.bounds.a2a3_a4_bound, (1e200, 0.5, 1 / 3)),
    (maximize_second_hankel_oracle, (1e200, 0.5, 1 / 3)),  # b1**3 overflowed Python's pow
    (maximize_second_hankel_oracle, (1e100, 0.5, 1 / 3)),  # nan row bounds kept no row
    (maximize_second_hankel_oracle, (1.0, 1e200, 1 / 3)),
])
def test_overflowing_finite_triple_rejected(oracle, coeffs):
    # the cubic oracles reported nan, the Hankel oracle raised OverflowError or
    # failed on an empty argmax; numpy's overflow warnings are not raised
    with pytest.raises(ValueError, match=re.escape(f"generator coefficients {coeffs} overflow")):
        oracle(alpha_class_params(0.5), coeffs, 32)


def test_overflowing_polish_rejected(monkeypatch):
    # abs() of a Python complex raises OverflowError when its parts are finite
    # but its modulus is not.  No triple tried kept the grid finite and let the
    # polish overflow (the row bounds overflow first), so the objective is planted.
    def overflowing(params, coeffs):
        return lambda vertex: -abs(complex(1.5e308, 1.5e308))

    monkeypatch.setattr(verify, "_hankel_objective", overflowing)
    with pytest.raises(ValueError, match=re.escape(f"generator coefficients {PSI_FLOATS} overflow")):
        maximize_second_hankel_oracle(alpha_class_params(0.5), PSI_FLOATS, 32)


@pytest.mark.parametrize(
    "oracle", [gft.bounds.a4_bound, gft.bounds.a2a3_a4_bound, maximize_second_hankel_oracle])
def test_large_triple_that_does_not_overflow_is_reported(oracle):
    value = oracle(alpha_class_params(0.5), (1.0, 0.5, 1e300), 32)
    assert 1e298 < getattr(value, "value", value) < math.inf


# every caller of verify.check_density
DENSITY_CALLERS = {
    "a4_bound": lambda d: gft.bounds.a4_bound(alpha_class_params(0.5), PSI_FLOATS, d),
    "a2a3_a4_bound": lambda d: gft.bounds.a2a3_a4_bound(alpha_class_params(0.5), PSI_FLOATS, d),
    "hankel_oracle": lambda d: maximize_second_hankel_oracle(alpha_class_params(0.5), PSI_FLOATS, d),
    "lemma_p1p2_check": lambda d: lemma_p1p2_check(0.0, d),
    "eq_p31_check": eq_p31_check,
}


@pytest.mark.parametrize("density", [40.0, True, "40", None])
@pytest.mark.parametrize("caller", DENSITY_CALLERS)
def test_non_integer_density_rejected(caller, density):
    # 40.0 failed inside np.linspace with a TypeError and True was read as 1
    with pytest.raises(ValueError, match=re.escape(f"density must be an int, got {density!r}")):
        DENSITY_CALLERS[caller](density)


@pytest.mark.parametrize("caller", DENSITY_CALLERS)
def test_numpy_int_density_accepted(caller):
    assert repr(DENSITY_CALLERS[caller](np.int64(32))) == repr(DENSITY_CALLERS[caller](32))


@pytest.fixture(scope="module")
def membership_report():
    return verify_class_membership_bounds(60, seed=42)


@pytest.fixture(scope="module")
def counterexample_report():
    return vector_space_counterexample()


class TestMembership:
    @pytest.fixture()
    def report(self, membership_report):
        return membership_report

    def test_envelope_margins(self, report):
        assert report.worst_re_lo >= -1e-6
        assert report.worst_re_hi >= -1e-6
        assert report.worst_im >= -1e-6

    def test_growth_margins(self, report):
        assert report.worst_growth_lo >= -1e-6
        assert report.worst_growth_hi >= -1e-6

    def test_coefficient_margins(self, report):
        for key, margin in report.coeff_margins.items():
            assert margin >= -1e-6, key

    def test_no_violations(self, report):
        assert report.violations == []

    def test_identity_map_touches_lower_envelope(self, report):
        # omega = z gives the structural extremal: at positive real z the
        # lower Re envelope is met with equality
        assert abs(report.worst_re_lo) < 1e-9

    def test_zero_map_strictly_inside(self):
        zero = np.zeros(1, dtype=complex)
        for r in (0.3, 0.6, 0.9):
            ratio = 1 - cmath.log(1 + complex(np.polyval(zero[::-1], r)))
            assert ratio == 1.0
            assert 1 - math.log(1 + r) < ratio.real < 1 - math.log(1 - r)

    def test_sharp_bounds_nearly_attained(self, report):
        # the extremal witnesses sit in the sample suite, so the sharp table
        # entries are met within numerical noise at every alpha
        for alpha in ("0.0", "0.5", "1.0"):
            for key in ("a2", "a3", "fekete_t1", "a4", "a2a3_a4", "a5"):
                margin = report.coeff_margins[f"{key}@alpha={alpha}"]
                assert -1e-6 <= margin <= 1e-12, (key, alpha)
        # the general Hankel bound is met exactly below the branch point and
        # within its small case-3 slack above it
        assert -1e-6 <= report.coeff_margins["h2_general@alpha=0.0"] <= 1e-12
        assert -1e-6 <= report.coeff_margins["h2_general@alpha=1.0"] <= 1e-3


def _full_p31_values(density):
    """max over the 16 y of |p3 - 2 p1 p2 + p1^3| at every (p1, rho, phi) point.

    The unpruned (d, d, d, 16) sweep, evaluated one p1 row at a time so that
    density 96 stays small; each value is the same elementwise expression.
    """
    t = np.linspace(0.0, 2.0, density)[:, None, None, None]
    rho = np.linspace(0.0, 1.0, density)[None, :, None, None]
    phi = np.linspace(0.0, 2 * np.pi, density, endpoint=False)[None, None, :, None]
    x = rho * np.exp(1j * phi)
    y = np.exp(1j * np.linspace(0.0, 2 * np.pi, 16, endpoint=False))
    rows = []
    for i in range(density):
        p1 = t[i : i + 1]
        s = 4 - p1**2
        p2 = (p1**2 + x * s) / 2
        base = (p1**3 + 2 * p1 * s * x - p1 * s * x**2) / 4
        bump = 2 * s * (1 - np.abs(x) ** 2) / 4
        p3 = base + bump * y
        rows.append(np.abs(p3 - 2 * p1 * p2 + p1**3).max(axis=-1))
    return np.concatenate(rows)


def _lemma_reference(v, density):
    """lemma_p1p2_check on the full (d, d, d) tensor."""
    p1, _, _, x = polar_grid(2.0, density)
    s = 4 - p1**2
    lhs = np.abs((p1**2 + x * s) / 2 - v * p1**2)
    bound = -4 * v + 2 if v <= 0 else (2.0 if v <= 1 else 4 * v - 2)
    report = {"v": v, "bound": float(bound), "max_lhs": float(lhs.max()),
              "max_violation": float((lhs - bound).max())}
    if 0 < v <= 0.5:
        refined = lhs + v * np.abs(p1) ** 2
        report["max_refined1"] = float(refined.max())
        report["max_violation_refined1"] = float((refined - 2).max())
    if 0.5 <= v < 1:
        refined = lhs + (1 - v) * np.abs(p1) ** 2
        report["max_refined2"] = float(refined.max())
        report["max_violation_refined2"] = float((refined - 2).max())
    return report


LEMMA_VS = (-1.0, -0.5, 0.0, 0.25, 0.4, 0.5, 0.75, 23.0 / 24.0, 1.0, 1.5, 3.0)
SWEEP_DENSITIES = [32, 33, 37, 47, 48, 96]


class TestLemmaSweeps:
    def test_v_zero(self):
        rep = lemma_p1p2_check(0.0)
        assert rep["bound"] == 2.0
        assert rep["max_lhs"] == pytest.approx(2.0, abs=1e-12)
        assert rep["max_violation"] <= 1e-9

    def test_v_two(self):
        rep = lemma_p1p2_check(2.0)
        assert rep["bound"] == 6.0
        assert rep["max_lhs"] == pytest.approx(6.0, abs=1e-12)
        assert rep["max_violation"] <= 1e-9

    def test_v_negative(self):
        rep = lemma_p1p2_check(-1.0)
        assert rep["bound"] == 6.0
        assert rep["max_violation"] <= 1e-9

    def test_refinement_for_a5_proof_value(self):
        rep = lemma_p1p2_check(23.0 / 24.0)
        assert rep["max_refined2"] <= 2.0 + 1e-9

    def test_refinement_first_window(self):
        rep = lemma_p1p2_check(0.4)
        assert rep["max_refined1"] <= 2.0 + 1e-9

    def test_cubic_combination(self):
        rep = eq_p31_check(64)
        assert rep["max_cubic"] == pytest.approx(2.0, abs=1e-12)
        assert rep["max_violation_cubic"] <= 1e-9
        assert rep["max_violation_quartic"] <= 1e-9

    @pytest.mark.parametrize("density", SWEEP_DENSITIES)
    def test_pruned_cubic_sweep_equals_full_tensor(self, density):
        rep = eq_p31_check(density)
        full = _full_p31_values(density)
        assert rep["max_cubic"] == float(full.max())
        assert rep["max_violation_cubic"] == float((full - 2).max())

    @pytest.mark.parametrize("density", SWEEP_DENSITIES)
    def test_screened_p1p2_sweep_equals_full_tensor(self, density):
        for v in LEMMA_VS:
            assert repr(lemma_p1p2_check(v, density)) == repr(_lemma_reference(v, density))

    @pytest.mark.parametrize("density", [32, 33, 37, 48, 64])
    def test_screens_bound_every_grid_value(self, density):
        t, rho, phi, x = polar_grid(2.0, density)
        t, rho = t[:, :, 0], rho[:, :, 0]
        for v in LEMMA_VS:
            p1 = t[..., None]
            lhs = np.abs((p1**2 + x * (4 - p1**2)) / 2 - v * p1**2)
            assert (verify._p2_ring_bound(v, t, rho)[..., None] >= lhs - 1e-12).all(), v
        values = _full_p31_values(density)
        P, Q, R, bump = verify._cubic_rings(t, rho)
        per_point = (c[..., None] for c in (P, Q, R, bump))
        at_points = verify._cubic_screen(*per_point, np.cos(phi[0, 0]))
        assert (at_points >= values - 1e-12).all()
        on_rings = verify._cubic_screen(P, Q, R, bump, verify._vertex_cos(Q, R))
        assert (on_rings >= values.max(axis=-1) - 1e-12).all()

    @pytest.mark.parametrize("v, density, sizes", [
        (0.0, 48, [48, 95 * 48]),  # the rings |x| = 1 and p1 = 2 tie at the bound 2
        (3.0, 48, [48, 48 * 48]),  # only the rings p1 = 2 (s = 0) reach the bound 10
        # refined2 ties at 2 on the same rings, and its largest computed bound
        # lies on a ring p1 > 0 where phi = 0 does not attain the maximum
        (0.9, 47, [47, 47, 93 * 47]),
    ])
    def test_p1p2_screen_leaves_few_rings(self, monkeypatch, v, density, sizes):
        seen = []
        p2 = verify._p2
        monkeypatch.setattr(
            verify, "_p2", lambda p1, x: seen.append(np.broadcast(p1, x).size) or p2(p1, x)
        )
        lemma_p1p2_check(v, density)
        assert seen == sizes  # the ring of each largest bound, then the rings kept

    def test_cubic_screen_leaves_few_points(self, monkeypatch):
        seen = []
        p2_p3 = verify._p2_p3
        monkeypatch.setattr(
            verify, "_p2_p3", lambda p1, x: seen.append(np.broadcast(p1, x).size) or p2_p3(p1, x)
        )
        eq_p31_check(48)
        assert seen == [1, 2356]  # the point of L, then the points kept, of 48^3

    @pytest.mark.parametrize("v", [math.nan, math.inf, -math.inf, 5e307, -1e308])
    def test_non_finite_v_rejected(self, v):
        # a nan violation never exceeds the 1e-9 tolerance, so it would pass;
        # past about 4.5e307 the bound 4|v| - 2 overflows and the violation is nan too
        with pytest.raises(ValueError, match="v must be finite"):
            lemma_p1p2_check(v, 32)

    # density 1 sweeps p1 = 0, x = 0 only and would pass vacuously
    @pytest.mark.parametrize("density", [0, 1, 31, -5])
    def test_empty_grid_rejected(self, density):
        with pytest.raises(ValueError, match="density must be at least 32"):
            lemma_p1p2_check(0.0, density)
        with pytest.raises(ValueError, match="density must be at least 32"):
            eq_p31_check(density)

    def test_power_map_quartic_is_computed_once(self):
        # the reference: the power-map loop itself, uncached
        worst = 0.0
        for m in (1, 2, 3, 4):
            for lam_abs in np.linspace(0.1, 1.0, 10).tolist():
                for lam_arg in np.linspace(0, 2 * math.pi, 12, endpoint=False).tolist():
                    lam = lam_abs * cmath.exp(1j * lam_arg)
                    p = [2 * lam ** (k // m) if k % m == 0 else 0.0 for k in range(1, 5)]
                    q = p[0] ** 4 - 3 * p[0] ** 2 * p[1] + p[1] ** 2 + 2 * p[0] * p[2] - p[3]
                    worst = max(worst, abs(q))
        first, second = eq_p31_check(32), eq_p31_check(32)
        assert first["max_quartic_on_power_maps"] == worst
        assert repr(first) == repr(second)
        assert verify._max_quartic_on_power_maps.cache_info().misses == 1

    def test_p31_report_fields_are_plain_floats(self):
        rep = eq_p31_check(32)
        assert set(rep) == {"max_cubic", "max_violation_cubic",
                            "max_quartic_on_power_maps", "max_violation_quartic"}
        assert all(type(v) is float for v in rep.values())

    def test_cubic_boundary_points(self):
        # w = z and w = z^3 attain the cubic bound, w = z^2 annihilates it
        for p in ([2, 2, 2], [0, 0, 2]):
            assert abs(p[2] - 2 * p[0] * p[1] + p[0] ** 3) == 2
        p = [0, 2, 0]
        assert abs(p[2] - 2 * p[0] * p[1] + p[0] ** 3) == 0


class TestBloch:
    def test_class_envelope_constants(self):
        env = bloch_class_envelope()
        assert abs(env["r0"] - 0.453105) < 1e-4
        assert abs(env["value"] - 1.27429) < 1e-4
        assert abs(env["r0"] - env["grid_argmax"]) < 1e-3

    def test_sampled_members_stay_below_corrected_envelope(self):
        cap = bloch_seminorm_bound()["value"]
        for omega in sample_suite(100, seed=7)[0]:
            est = bloch_norm_estimate(omega, grid_size=12, radial_count=20)
            assert est <= cap + 1e-9  # |f(0)| = 0, so norm = sup term

    def test_structural_extremal_exceeds_stated_envelope(self):
        # surfaced gap: the stated envelope bounds the generator values, not
        # |f'| itself; the identity-map member crosses it by a factor > 2
        stated = bloch_class_envelope()["value"]
        cap = bloch_seminorm_bound()["value"]
        est = bloch_norm_estimate(
            sample_schwarz("monomial", {"m": 1}), grid_size=12, radial_count=40
        )
        assert est > stated
        assert est <= cap + 1e-9
        assert cap == pytest.approx(2.7787, abs=1e-3)

    @pytest.mark.parametrize("grid_size, radial_count", [(8, 1), (8, 0), (8, -3), (0, 8), (-1, 8)])
    def test_degenerate_grid_rejected(self, grid_size, radial_count):
        # one radius would be r = 0 alone, where (1 - r^2)|f'| = |f'(0)| = 1
        omega = sample_schwarz("monomial", {"m": 1})
        with pytest.raises(ValueError, match="must be at least"):
            bloch_norm_estimate(omega, grid_size=grid_size, radial_count=radial_count)

    def test_smallest_grid_accepted(self):
        omega = sample_schwarz("monomial", {"m": 1})
        est = bloch_norm_estimate(omega, grid_size=1, radial_count=2)
        assert _rel_close(est, _ref_bloch(lambda z: _ref_deriv(omega, z), 1, 2), 1e-13)

    # a float or bool grid_size used to build a non-uniform circle (16.5 gave
    # 17 points and 2.6901 for w = z) or a single point; a float radial_count
    # raised TypeError
    @pytest.mark.parametrize("grid_size, radial_count, name", [
        (16.5, 8, "grid_size"), (16.0, 8, "grid_size"), (True, 8, "grid_size"),
        (16, 8.0, "radial_count"), (16, True, "radial_count"), (16, "8", "radial_count"),
    ])
    def test_non_int_grid_rejected(self, grid_size, radial_count, name):
        omega = sample_schwarz("monomial", {"m": 1})
        bad = grid_size if name == "grid_size" else radial_count
        with pytest.raises(ValueError, match=re.escape(f"{name} must be an int, got {bad!r}")):
            bloch_norm_estimate(omega, grid_size=grid_size, radial_count=radial_count)

    def test_numpy_int_grid_accepted(self):
        omega = sample_schwarz("monomial", {"m": 1})
        est = bloch_norm_estimate(omega, grid_size=np.int64(16), radial_count=np.int32(8))
        assert est == bloch_norm_estimate(omega, grid_size=16, radial_count=8)

    def test_seminorm_bound_is_attained_by_the_structural_extremal(self):
        # an independent route: the identity-map member's damped |f'| by
        # quadrature at z = -r_star, where it meets the envelope
        bound = bloch_seminorm_bound()
        r = bound["r_star"]
        omega = sample_schwarz("monomial", {"m": 1})
        attained = (1 - r * r) * abs(complex(structural_deriv(omega, np.array([-r]))[0]))
        assert _rel_close(bound["value"], attained, 1e-13)

    def test_seminorm_bound_is_at_least_the_grid_maximum(self):
        # the bisection finds the maximum the 200,001-point grid stops short of
        bound, (grid_r, grid_value) = bloch_seminorm_bound(), _grid_seminorm_bound()
        assert bound["value"] >= grid_value
        assert _rel_close(bound["value"], grid_value, 1e-11)
        assert abs(bound["r_star"] - grid_r) <= 5.0e-6

    def test_seminorm_slope_changes_sign_once(self):
        # so [1/2, 0.9] holds the only stationary point, and it is the maximum
        slopes = np.array([verify._seminorm_slope(r) for r in np.linspace(1e-6, 0.9999, 100001).tolist()])
        assert np.count_nonzero(np.diff(np.sign(slopes))) == 1
        assert slopes[0] > 0 > slopes[-1]
        assert verify._seminorm_slope(0.5) > 0 > verify._seminorm_slope(0.9)

    @pytest.mark.parametrize("r", [0.1, 0.45, 0.7596, 0.9, 0.99])
    def test_seminorm_slope_is_the_log_derivative(self, r):
        def log_envelope(t):
            return math.log((1 - t * t) * (1 - math.log1p(-t))) + verify._li2(complex(t)).real

        h = 1e-6 * (1 - r)
        central = (log_envelope(r + h) - log_envelope(r - h)) / (2 * h)
        assert abs(verify._seminorm_slope(r) - central) <= 1e-6 * max(1.0, abs(central))


def _grid_seminorm_bound():
    """(r, value) at the best of 200,001 radii, each Li2 by a 64-term series.

    The earlier body of bloch_seminorm_bound: dilog(r) = sum_k r^k / k^2 by 64
    terms at s = min(r, 1 - r), with Euler's reflection
    dilog(r) = pi^2/6 - ln r ln(1 - r) - dilog(1 - r) for r > 1/2.
    """
    grid = np.linspace(0.0, 0.9999, 200001)
    high = grid > 0.5
    s = np.where(high, 1.0 - grid, grid)
    dilog = np.polyval([(-1) ** k / k**2 for k in range(64, 0, -1)] + [0.0], -s)
    dilog[high] = np.pi**2 / 6 - np.log(grid[high]) * np.log(s[high]) - dilog[high]
    env = (1 - grid**2) * (1 - np.log1p(-grid)) * np.exp(dilog)
    idx = int(np.argmax(env))
    return float(grid[idx]), float(env[idx])


def _bloch_per_radius(omega, grid_size, radial_count):
    """bloch_norm_estimate as one structural_deriv call per radius circle."""
    circle = verify._circle(grid_size)
    best = 0.0
    for r in np.linspace(0.0, 0.999, radial_count):
        best = max(best, float(((1 - r * r) * np.abs(structural_deriv(omega, r * circle))).max()))
    return best


# blocks of 128 // grid_size circles (one circle from grid_size 65 on): the
# counts cross a block boundary at grid sizes 12 and 16, and fill blocks of one
@pytest.mark.parametrize("grid_size", [1, 12, 16, 100, 129, 256])
@pytest.mark.parametrize("radial_count", [2, 8, 9, 13, 20, 41])
def test_bloch_blocks_equal_the_per_radius_loop(grid_size, radial_count):
    seed = grid_size * 100 + radial_count
    for omega in (sample_schwarz("monomial", {"m": 1}),
                  sample_schwarz("random_poly_normalized", seed=seed),
                  sample_schwarz("scaled_blaschke", seed=seed)):
        est = bloch_norm_estimate(omega, grid_size=grid_size, radial_count=radial_count)
        assert est == _bloch_per_radius(omega, grid_size, radial_count)


class TestVectorSpaceCounterexample:
    @pytest.fixture()
    def report(self, counterexample_report):
        return counterexample_report

    def test_reference_witness_value(self, report):
        assert abs(report["omega_abs_at_z0"] - 1.03053) < 1e-3

    def test_origin_normalization(self, report):
        assert report["omega_at_0"] == 0

    def test_normalized_transform_at_z0(self, report):
        # frozen: the normalized transform is inside the disk at the
        # reference point but exceeds it elsewhere
        assert report["normalized_abs_at_z0"] == pytest.approx(0.7019632737, abs=1e-6)

    def test_sum_leaves_class(self, report):
        assert report["normalized_max_abs"] > 1
        assert report["exceeds_unit_disk"] is True


# the 800-term sum Li2(-w) = sum_k (-w)^k / k^2, np.polyval coefficients
# highest power first; at |w| <= 0.95 its tail is below 1e-21 of the sum
_REF_DILOG = np.array([(-1) ** k / k**2 for k in range(799, 0, -1)] + [0.0])
_LI2 = np.vectorize(lambda w: verify._li2(complex(w)), otypes=[complex])


def _counterexample_by_parts(scan_density):
    """The counterexample report with its own pair of Li2 evaluations per call."""

    def parts(z):
        z = np.asarray(z, dtype=complex)
        e_a = np.exp(_LI2(-z))
        e_b = np.exp(_LI2(-(z * z)) / 2)
        num = np.log(1 + z) * e_a + np.log(1 + z * z) * e_b
        return num, e_a + e_b

    def omega_normalized(z):
        num, den = parts(z)
        return np.exp(num / den) - 1

    def omega_flattened(z):
        num, den = parts(z)
        return np.exp(num) / den - 1

    z0 = -(0.5 + 2j / 3)
    scan = np.array([[0.7], [0.85], [0.95], [0.985]]) * np.exp(
        2j * np.pi * np.arange(scan_density) / scan_density
    )
    scan_abs = np.abs(omega_normalized(scan))
    i = int(np.argmax(scan_abs))
    max_abs = float(scan_abs.flat[i])
    return {
        "z0": z0,
        "omega_abs_at_z0": float(abs(omega_flattened(z0))),
        "normalized_abs_at_z0": float(abs(omega_normalized(z0))),
        "omega_at_0": complex(omega_normalized(0)),
        "normalized_max_abs": max_abs,
        "normalized_argmax": complex(scan.flat[i]),
        "exceeds_unit_disk": max_abs > 1,
    }


@pytest.mark.parametrize("scan_density", [12, 36, 90])
def test_counterexample_single_pass_equals_per_call_parts(scan_density):
    rep = vector_space_counterexample(scan_density)
    ref = _counterexample_by_parts(scan_density)
    assert set(rep) == set(ref)
    for key, value in ref.items():
        assert type(rep[key]) is type(value), key
        assert rep[key] == value, key


# scan densities that are not ints >= 1: 0 and -3 used to fail inside argmax,
# 2.5 scanned another grid and True a single point
@pytest.mark.parametrize("scan_density, message", [
    (0, "scan_density must be at least 1"), (-3, "scan_density must be at least 1"),
    (2.5, "scan_density must be an int, got 2.5"), (True, "scan_density must be an int, got True"),
])
def test_counterexample_rejects_bad_scan_density(scan_density, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        vector_space_counterexample(scan_density)


def test_counterexample_accepts_numpy_int_density():
    assert vector_space_counterexample(np.int64(12)) == vector_space_counterexample(12)


# a point of the closed disk of radius 0.95, often on its boundary or within 1e-6 of 0
DISK_95_POINTS = st.builds(
    lambda r, phi: r * cmath.exp(1j * phi),
    st.one_of(st.just(0.95), st.floats(0.0, 0.95), st.floats(0.0, 1e-6)),
    st.floats(0.0, 2 * math.pi, exclude_max=True),
)


class TestLi2:
    def test_exact_values(self):
        assert verify._li2(1 + 0j) == math.pi**2 / 6
        assert _rel_close(verify._li2(-1 + 0j), -math.pi**2 / 12, 1e-15)
        assert _rel_close(verify._li2(0.5 + 0j), math.pi**2 / 12 - math.log(2) ** 2 / 2, 1e-15)
        assert verify._li2(0j) == 0

    @given(DISK_95_POINTS)
    @example(0.95 + 0j)
    @example(-0.95 + 0j)
    @example(0.95j)
    @example(1e-300 + 0j)
    @settings(max_examples=300, deadline=None)
    def test_matches_the_800_term_sum(self, w):
        # 1e-15 for Li2 and as much again for the Horner sum's own rounding
        ref = complex(np.polyval(_REF_DILOG, -w))
        assert abs(verify._li2(w) - ref) <= 2e-15 * abs(ref)

    @given(DISK_POINTS)
    @settings(max_examples=300, deadline=None)
    def test_conjugation_symmetry(self, w):
        assert verify._li2(w.conjugate()) == verify._li2(w).conjugate()

    @given(DISK_POINTS)
    @example(0.5 + 0.5j)
    @example(cmath.exp(1j * math.pi / 3))
    @example(1 - 1e-12 + 0j)
    @settings(max_examples=300, deadline=None)
    def test_reflection(self, w):
        assume(abs(1 - w) <= 1 and w not in (0, 1))
        a, b = verify._li2(w), verify._li2(1 - w)
        rhs = math.pi**2 / 6 - cmath.log(w) * cmath.log(1 - w)
        assert abs(a + b - rhs) <= 2e-15 * (abs(a) + abs(b) + abs(rhs))

    @given(DISK_POINTS)
    @example(0.985 * cmath.exp(0.3j))
    @example(0.985 + 0j)
    @example(1j)
    @example(-1 + 0j)
    @settings(max_examples=300, deadline=None)
    def test_duplication(self, w):
        # Li2(w) + Li2(-w) = Li2(w^2)/2, also at |w| = 0.985, where the
        # 800-term sum stops 3e-10 short
        a, b = verify._li2(w), verify._li2(-w)
        assert abs(a + b - verify._li2(w * w) / 2) <= 2e-15 * (abs(a) + abs(b))


class TestLambdaCombination:
    def test_collapse_to_structural_function(self):
        rep = lambda_combination_check(1.0, 1, 1, order=12)
        f0 = t_series(make_spec("psi"), 1, 12)
        for k in range(12):
            assert abs(complex(rep["g_series"][k]) - complex(f0.series[k])) < 1e-12

    def test_pure_even_power(self):
        rep = lambda_combination_check(0.0, 2, 1, order=24)
        assert rep["series_identity_error"] < 1e-10
        assert rep["all_inside"] is True

    def test_blend(self):
        rep = lambda_combination_check(0.5, 1, 3, order=48)
        assert rep["series_identity_error"] < 1e-10
        assert rep["all_inside"] is True
        assert rep["worst_margin"] > 0

    @pytest.mark.parametrize("lam", [0.0, 0.3, 1.0])
    @pytest.mark.parametrize("m, n", [(1, 1), (1, 3), (2, 1), (3, 2), (5, 30)])
    @pytest.mark.parametrize("order", [1, 12, 24])
    def test_spread_blend_equals_composed_blend(self, lam, m, n, order):
        psi = make_spec("psi").series(order)

        def composed(p):
            monomial = [0.0] * (order + 1)
            if p <= order:
                monomial[p] = 1.0
            return psi.compose(TruncatedSeries(monomial), order)

        ref = lam * composed(n) + (1 - lam) * composed(m)
        got = verify._psi_blend(lam, m, n, order)
        assert len(got.coeffs) == len(ref.coeffs)
        assert all(complex(g) == complex(r) for g, r in zip(got.coeffs, ref.coeffs))

    # the 45-entry lambda pool of the benchmark's series-build workload
    @pytest.mark.parametrize("lam", [0.0, 0.25, 0.5, 0.75, 1.0])
    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_all_inside_equals_pointwise_image_test(self, lam, m, n):
        rep = lambda_combination_check(lam, m, n, order=24)
        inside = True
        for j in range(256):
            z = 0.99 * cmath.exp(2j * math.pi * j / 256)
            w = lam * (1 - cmath.log(1 + z**n)) + (1 - lam) * (1 - cmath.log(1 + z**m))
            inside = inside and in_psi_image(w)
        assert rep["all_inside"] is inside
        # psi(D) is convex, so every blend of two of its points stays inside
        assert rep["worst_margin"] > 0

    @pytest.mark.parametrize("order", [8, 24, 48])
    @pytest.mark.parametrize("lam", [0, 0.1, 0.25, 0.3, 0.5, 0.75, 0.9, 1])
    def test_margin_equals_the_per_point_loop(self, lam, order):
        for m in range(1, 6):
            for n in range(1, 6):
                rep = lambda_combination_check(lam, m, n, order=order)
                worst_margin = math.inf
                for j in range(256):
                    z = 0.99 * cmath.exp(2j * math.pi * j / 256)
                    w = lam * (1 - cmath.log(1 + z**n)) + (1 - lam) * (1 - cmath.log(1 + z**m))
                    worst_margin = min(worst_margin, 1 - abs(cmath.exp(1 - w) - 1))
                assert repr(rep["worst_margin"]) == repr(worst_margin)
                assert rep["all_inside"] is (worst_margin > 0)

    def test_rim_table_is_one_shared_tuple_per_power(self):
        lambda_combination_check(0.5, 2, 3, order=8)
        for p in (2, 3):
            rim = verify._rim_psi(p)
            assert type(rim) is tuple and len(rim) == 256
            assert verify._rim_psi(p) is rim
            lambda_combination_check(0.25, p, p, order=24)
            assert verify._rim_psi(p) is rim
            for j in (0, 1, 100, 255):
                z = 0.99 * cmath.exp(2j * math.pi * j / 256)
                assert repr(rim[j]) == repr(1 - cmath.log(1 + z**p))
        assert verify._rim_psi(2) != verify._rim_psi(3)

    def test_validation(self):
        with pytest.raises(ValueError):
            lambda_combination_check(1.5, 1, 1)
        with pytest.raises(ValueError):
            lambda_combination_check(0.5, 0, 1)

    # a float or a bool m or n would index a list or build another power
    @pytest.mark.parametrize("m, n, order, name", [
        (2.5, 1, 24, "m"), (True, 1, 24, "m"), (0, 1, 24, "m"), (-1, 1, 24, "m"),
        (1, 2.0, 24, "n"), (1, False, 24, "n"), (1, 0, 24, "n"),
        (1, 1, 0, "order"), (1, 1, -3, "order"), (1, 1, 24.0, "order"),
    ])
    def test_rejects_non_int_or_non_positive_m_n_order(self, m, n, order, name):
        with pytest.raises(ValueError, match=f"{name} must be (an int, got|at least 1)"):
            lambda_combination_check(0.5, m, n, order=order)

    def test_numpy_ints_accepted_and_reported_as_ints(self):
        got = lambda_combination_check(0.5, np.int64(2), np.int32(1), order=np.int64(24))
        ref = lambda_combination_check(0.5, 2, 1, order=24)
        assert type(got["m"]) is int and type(got["n"]) is int
        assert repr(got) == repr(ref)

    def test_numpy_int_zero_rejected(self):
        with pytest.raises(ValueError, match=re.escape("m must be at least 1")):
            lambda_combination_check(0.5, np.int64(0), 1)


class TestConjecture:
    def test_full_table_has_no_violations(self):
        rep = conjecture_check(5, 10)
        assert rep["violations"] == []

    def test_power_three_fourth_coefficient(self):
        rep = conjecture_check(3, 5)
        # |a4| of the cubed family vs the base family: 1/3 <= 19/36
        assert rep["table"][3][2] == "-1/3"
        assert rep["table"][1][2] == "-19/36"

    def test_second_column_trivial(self):
        rep = conjecture_check(2, 5)
        assert rep["table"][2][0] == "0"
        assert rep["table"][1][0] == "-1"

    def test_validation(self):
        with pytest.raises(ValueError):
            conjecture_check(1, 10)
        with pytest.raises(ValueError, match=re.escape("n_max must be at least 2")):
            conjecture_check(1, 10)
        with pytest.raises(ValueError, match=re.escape("m_max must be at least 5")):
            conjecture_check(5, 4)

    # 2.5 failed in range with a TypeError, and True read as n_max = 1
    @pytest.mark.parametrize("bad", [2.5, 5.0, True, "5", None])
    def test_orders_must_be_ints(self, bad):
        with pytest.raises(ValueError, match=re.escape(f"n_max must be an int, got {bad!r}")):
            conjecture_check(bad, 5)
        with pytest.raises(ValueError, match=re.escape(f"m_max must be an int, got {bad!r}")):
            conjecture_check(3, bad)

    def test_numpy_int_orders_read_as_ints(self):
        rep = conjecture_check(np.int64(3), np.int32(5))
        assert type(rep["n_max"]) is int and type(rep["m_max"]) is int
        assert rep == conjecture_check(3, 5)

    def test_reexported_from_extremal(self):
        from gft import extremal

        assert conjecture_check is extremal.conjecture_check
