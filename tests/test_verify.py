"""Brute-force oracles: parameter sweeps, sampling suites, counterexamples."""

import cmath
import hashlib
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gft import verify
from gft.bounds import (
    PhiCoeffs,
    alpha_class_params,
    caratheodory_to_coeffs,
    h2_bound_sl,
    polar_grid,
    polar_slabs,
    second_hankel,
)
from gft.catalog import in_psi_image, make_spec
from gft.extremal import f_from_q, t_series
from gft.verify import (
    SchwarzSample,
    bloch_class_envelope,
    bloch_norm_estimate,
    bloch_seminorm_bound,
    caratheodory_point,
    conjecture_check,
    eq_p31_check,
    lambda_combination_check,
    lemma_p1p2_check,
    maximize_second_hankel_oracle,
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
# 33 and 37 leave a ragged last slab; at 96 a slab is a single row
SLAB_DENSITIES = [32, 33, 37, 48, 96]


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


class TestSampleSchwarz:
    def test_monomial_identity(self):
        s = sample_schwarz("monomial", {"m": 1})
        assert complex(s.series[1]) == 1
        assert all(complex(c) == 0 for k, c in enumerate(s.series.coeffs) if k != 1)

    def test_mobius_limit_is_identity(self):
        s = sample_schwarz("mobius_eta", {"eta": 1.0})
        assert complex(s.series[1]) == pytest.approx(1.0)
        assert max(abs(complex(c)) for c in s.series.coeffs[2:]) < 1e-15

    def test_mobius_head(self):
        eta = 0.5
        s = sample_schwarz("mobius_eta", {"eta": eta})
        # z(z + eta)/(1 + eta z) = eta z + (1 - eta^2) z^2 - ...
        assert complex(s.series[1]) == pytest.approx(eta)
        assert complex(s.series[2]) == pytest.approx(1 - eta * eta)

    def test_seeded_reproducibility(self):
        a = sample_schwarz("random_poly_normalized", seed=9)
        b = sample_schwarz("random_poly_normalized", seed=9)
        assert a.series.coeffs == b.series.coeffs

    def test_suite_respects_unit_bound(self):
        for s in sample_suite(60, seed=21):
            assert s.boundary_sup() <= 1.0 + 1e-9

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
    ])
    def test_read_params_keys_accepted(self, kind, params):
        assert sample_schwarz(kind, params, seed=3).kind == kind


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
    sup = float(np.abs(poly(circle)).max())
    return (poly * (1.0 / (verify.SCHWARZ_SAFETY * sup))).padded(verify.SAMPLE_ORDER)


def _coeffs(series):
    return [complex(c) for c in series.coeffs]


def _max_coeff_gap(got, ref):
    assert len(got.coeffs) == len(ref.coeffs) == verify.SAMPLE_ORDER + 1
    return max(abs(g - r) for g, r in zip(_coeffs(got), _coeffs(ref)))


class TestClosedFormSamples:
    @pytest.mark.parametrize("eta", [k / 20 for k in range(21)] + [1 / 3, 0.999])
    def test_mobius_matches_cauchy_product(self, eta):
        got = sample_schwarz("mobius_eta", {"eta": eta}).series
        assert _max_coeff_gap(got, _ref_mobius(eta)) <= 1e-15

    @pytest.mark.parametrize("kind, ref", [
        ("scaled_blaschke", _ref_blaschke),
        ("random_poly_normalized", _ref_random_poly),
    ])
    def test_seeded_kinds_match_cauchy_product(self, kind, ref):
        for seed in range(64):
            got = sample_schwarz(kind, seed=seed).series
            assert _max_coeff_gap(got, ref(seed)) <= 1e-15, seed

    def test_monomials_and_mobius_ends_are_exact(self):
        for m in (1, 2, 3, 4):
            ref = TruncatedSeries([0] * m + [1]).padded(verify.SAMPLE_ORDER)
            assert _coeffs(sample_schwarz("monomial", {"m": m}).series) == _coeffs(ref)
        # eta = 0 and eta = 1 reproduce z^2 and z, the monomial samples m = 2
        # and m = 1, coefficient for coefficient. sample_suite keeps both
        # anyway: the 24-sample membership digests of the benchmark reference
        # pin the suite's sample list, and dropping them would shift it.
        for eta, m in ((0.0, 2), (1.0, 1)):
            got = _coeffs(sample_schwarz("mobius_eta", {"eta": eta}).series)
            assert got == _coeffs(_ref_mobius(eta))
            assert got == _coeffs(sample_schwarz("monomial", {"m": m}).series)


class TestConvexDistortionSandwich:
    def test_sampled_members_between_envelope_ends(self):
        from gft.extremal import d_series
        from gft.verify import structural_deriv_convex

        dp = d_series(make_spec("psi"), 1, 120).series.derivative()
        for omega in sample_suite(200, seed=13):
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


# -- scalar references for the array evaluation path -------------------------------
# One point and one Gauss-Legendre node at a time, Horner in plain Python and
# cmath throughout: the formulas the array path replaced.

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(64)


def _horner(series, z):
    acc = 0
    for c in reversed(series.coeffs):
        acc = acc * z + c
    return complex(acc)


def _ref_log_ratio(omega, z):
    if z == 0:
        return 0j
    total = 0j
    for node, weight in zip(_GL_NODES, _GL_WEIGHTS):
        s = 0.5 * (node + 1.0)
        total += weight * (-cmath.log(1 + _horner(omega.series, s * z)) / s)
    return 0.5 * total


def _ref_eval(omega, z):
    return z * cmath.exp(_ref_log_ratio(omega, z))


def _ref_deriv(omega, z):
    if z == 0:
        return 1 + 0j
    return _ref_eval(omega, z) * (1 - cmath.log(1 + _horner(omega.series, z))) / z


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
    if z == 0:
        return 0j
    e_a = cmath.exp(sum((-z) ** k / k**2 for k in range(1, 800)))
    e_b = cmath.exp(sum((-1) ** k * z ** (2 * k) / (2 * k**2) for k in range(1, 800)))
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
        [sample_schwarz("monomial", {"m": 40}), SchwarzSample(TruncatedSeries([0]), "zero")],
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
        for omega in sample_suite(12, seed=5):
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
        for omega in sample_suite(12, seed=8):
            ref = max(
                abs(_horner(omega.series, 0.999 * cmath.exp(2j * math.pi * j / 512)))
                for j in range(512)
            )
            assert _rel_close(omega.boundary_sup(), ref, 1e-13)


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


def _ref_structural_eval(omega, z):
    w = omega(z[..., None] * verify._GL_S)
    return z * np.exp(0.5 * ((-np.log(1 + w) / verify._GL_S) @ verify._GL_WEIGHTS))


def _ref_membership(sample_count, seed, alphas=(0.0, 0.5, 1.0), tol=1e-6):
    samples = sample_suite(sample_count, seed=seed)
    radii = np.array(verify._MEMBERSHIP_RADII)[:, None]
    z_env = radii * verify._circle(verify._MEMBERSHIP_ANGLES)
    z_growth = z_env[:, :: verify._GROWTH_STRIDE]
    envs = [verify.re_im_envelope(r) for r in verify._MEMBERSHIP_RADII]
    re_lo_env, re_hi_env, im_env = (
        np.array([env[key] for env in envs])[:, None] for key in ("reLo", "reHi", "imAbs")
    )
    growth_lo, growth_hi = np.array(verify._growth_reference()).T[:, :, None]
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
    for idx, omega in enumerate(samples):
        ratio = 1 - np.log(1 + omega(z_env))
        re_lo = ratio.real - re_lo_env
        re_hi = re_hi_env - ratio.real
        im = im_env - np.abs(ratio.imag)
        fv = np.abs(_ref_structural_eval(omega, z_growth))
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
                    {"sample": idx, "kind": omega.kind, "where": where} for _ in range(n)
                )
        psi_omega = psi4.compose(omega.series.padded(4), 4)
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
                        {"sample": idx, "kind": omega.kind, "where": f"{key}@alpha={alpha}"}
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
    samples = sample_suite(60, seed=seed)
    alphas = (0.0, 0.25, 0.5, 1.0)
    psi4 = make_spec("psi").series(4, exact=False)
    omega4 = np.array([omega.series.padded(4).coeffs for omega in samples], dtype=complex)
    got = verify._class_coefficients(omega4, np.array(alphas))
    for idx, omega in enumerate(samples):
        q = psi4.compose(omega.series.padded(4), 4)
        for i, alpha in enumerate(alphas):
            assert [complex(a[idx, i]) for a in got] == _ref_class_coefficients(q, alpha)[1:]


def _assert_membership_equal(got, ref):
    # log(1 + w) = log|1 + w| + i arg(1 + w) moves the growth quadrature in
    # its last bits; the lower growth margin shows it (0.0 -> 2.8e-17 at seed 42)
    assert abs(got.pop("worstGrowthLoMargin") - ref.pop("worstGrowthLoMargin")) <= 1e-15
    assert got.keys() == ref.keys()
    for key in ref:
        assert got[key] == ref[key], key


@pytest.mark.parametrize("seed", range(1000, 1048))
def test_stacked_membership_equals_per_sample_loop(seed):
    got = verify_class_membership_bounds(24, seed=seed).as_dict()
    _assert_membership_equal(got, _ref_membership(24, seed))


# blocks hold 5 samples: one short block, one full, one full plus one, ..., 40
@pytest.mark.parametrize("count", [1, 4, 5, 6, 11, 200])
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

    @pytest.mark.parametrize("density", SLAB_DENSITIES)
    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
    def test_slabbed_grid_equals_two_call_full_tensor(self, grid_calls, alpha, density):
        params = alpha_class_params(alpha)
        value = maximize_second_hankel_oracle(params, B_PSI, density)
        (call,) = grid_calls
        full = _hankel_grid_reference(params, PSI_FLOATS, density)
        slabbed = call.assembled()
        assert len(call.slabs) == len(polar_slabs(density)) > 1
        assert np.array_equal(slabbed.view(np.uint64), full.view(np.uint64))
        assert np.argmax(slabbed) == np.argmax(full)
        assert repr(value) == repr(float(call.unslabbed(full)[0]))

    @given(
        st.floats(0.0, 2.0),
        st.floats(0.0, 1.0),
        st.floats(0.0, 2 * math.pi, exclude_max=True),
        st.floats(0.0, 1.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_shared_part_halves_equal_two_coefficient_calls(self, p, r, phi, alpha):
        # the scalar arguments the polish passes: a complex p1, a numpy-scalar x
        params = alpha_class_params(alpha)
        p1, x = complex(p), np.float64(r) * cmath.exp(1j * phi)
        p2, base, bump = verify._p2_p3(p1, x)
        calls = [caratheodory_to_coeffs(params, PSI_FLOATS, p1, p2, p3) for p3 in (base, base + bump)]
        for p3, got in zip((base, base + bump), calls):
            ref = _coeffs_reference(params, PSI_FLOATS, p1, p2, p3)
            assert np.array(got).view(np.uint64).tolist() == np.array(ref).view(np.uint64).tolist()
        (a2, a3, a4_0), (_, _, a4_1) = calls
        want = np.array([a2 * a4_0 - a3**2, a2 * (a4_1 - a4_0)])
        got = np.array(verify._hankel_halves(params, PSI_FLOATS, p1, x))
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


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
        zero = SchwarzSample(TruncatedSeries([0]), "zero")
        for r in (0.3, 0.6, 0.9):
            ratio = 1 - cmath.log(1 + zero(r))
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


def _full_p31_tensor(density):
    """|p3 - 2 p1 p2 + p1^3| over the whole (d, d, d, 16) sweep, unpruned."""
    t = np.linspace(0.0, 2.0, density)[:, None, None, None]
    rho = np.linspace(0.0, 1.0, density)[None, :, None, None]
    phi = np.linspace(0.0, 2 * np.pi, density, endpoint=False)[None, None, :, None]
    p1, x = t, rho * np.exp(1j * phi)
    y = np.exp(1j * np.linspace(0.0, 2 * np.pi, 16, endpoint=False))
    s = 4 - p1**2
    p2 = (p1**2 + x * s) / 2
    base = (p1**3 + 2 * p1 * s * x - p1 * s * x**2) / 4
    bump = 2 * s * (1 - np.abs(x) ** 2) / 4
    p3 = base + bump * y
    return np.abs(p3 - 2 * p1 * p2 + p1**3)


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

    @pytest.mark.parametrize("density", [32, 33, 37, 48])
    def test_pruned_cubic_sweep_equals_full_tensor(self, density):
        rep = eq_p31_check(density)
        full = _full_p31_tensor(density)
        assert rep["max_cubic"] == float(full.max())
        assert rep["max_violation_cubic"] == float((full - 2).max())

    @pytest.mark.parametrize("density", SLAB_DENSITIES)
    def test_slabbed_p1p2_sweep_equals_full_tensor(self, density):
        for v in (-1.0, -0.5, 0.0, 0.25, 0.4, 0.5, 0.75, 23.0 / 24.0, 1.0, 1.5, 3.0):
            assert repr(lemma_p1p2_check(v, density)) == repr(_lemma_reference(v, density))

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            lemma_p1p2_check(0.0, 0)
        with pytest.raises(ValueError):
            eq_p31_check(0)

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
        for omega in sample_suite(100, seed=7):
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


_REF_DILOG = np.array([(-1) ** k / k**2 for k in range(799, 0, -1)] + [0.0])


def _counterexample_by_parts(scan_density):
    """The counterexample report with one pair of Horner passes per evaluation."""

    def parts(z):
        z = np.asarray(z, dtype=complex)
        e_a = np.exp(np.polyval(_REF_DILOG, z))
        e_b = np.exp(np.polyval(_REF_DILOG / 2, z * z))
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

    def test_validation(self):
        with pytest.raises(ValueError):
            lambda_combination_check(1.5, 1, 1)
        with pytest.raises(ValueError):
            lambda_combination_check(0.5, 0, 1)


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

    def test_reexported_from_extremal(self):
        from gft import extremal

        assert conjecture_check is extremal.conjecture_check
