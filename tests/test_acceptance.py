"""Acceptance gate: every exit criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion.  Tolerances follow the reference decimals: 1e-4 where five to
six stable digits are available, exact rational equality where the values
are rational, and the explicitly stated sweep/oracle tolerances elsewhere.
"""

import cmath
import math
from fractions import Fraction

import numpy as np

from gft.bounds import (
    PSI_COEFFS,
    PhiCoeffs,
    a2a3_a4_bound,
    a2a3_a4_bound_sl,
    a3_bound_sl,
    a4_bound,
    a4_bound_sl,
    a5_bound_sl,
    alpha_class_params,
    fekete_szego,
    fekete_szego_sl,
    h2_bound_sl,
    h3_bound_sl_star,
    second_hankel,
)
from gft.catalog import make_spec
from gft.extremal import d_series, growth_constant, t_series
from gft.radius import (
    curve_points,
    inclusion_constants,
    k_starlike_equation,
    convexity_equation,
    majorization_equation,
    majorization_radius,
    radius_convex_order,
    radius_k_starlike,
    radius_starlike_order,
)
from gft.verify import (
    bloch_class_envelope,
    caratheodory_point,
    conjecture_check,
    eq_p31_check,
    lemma_p1p2_check,
    maximize_second_hankel_oracle,
    schur_parameters,
    vector_space_counterexample,
    verify_class_membership_bounds,
)

C0 = math.log(2.0) * (2.0 - math.log(2.0))


def report(criterion: int, label: str, checks):
    bad = [name for name, ok in checks if not ok]
    status = "PASS" if not bad else "FAIL"
    print(f"ACCEPTANCE {criterion} {status}: {label}" + (f" [{', '.join(bad)}]" if bad else ""))
    assert not bad, f"criterion {criterion} failed: {bad}"


def test_criterion_1_reference_decimals():
    checks = []
    psi = make_spec("psi")
    dp = d_series(psi, 1, 60).series.derivative()
    checks.append(("d'(1/2)", abs(dp(0.5).real - 0.63864) < 1e-4))
    checks.append(("d'(-1/2)", abs(dp(-0.5).real - 1.79004) < 1e-4))
    dp2 = d_series(psi, 2, 60).series.derivative()
    checks.append(("|d2'(1/2)|", abs(abs(dp2(0.5)) - 0.88874) < 1e-4))
    inc = inclusion_constants()
    checks.append(("theta0", abs(inc.theta0 - 1.37502) < 1e-4))
    checks.append(("arg max", abs(inc.f_theta0 - 0.88329) < 1e-4))
    env = bloch_class_envelope()
    checks.append(("bloch r0", abs(env["r0"] - 0.453105) < 1e-4))
    checks.append(("bloch peak", abs(env["value"] - 1.27429) < 1e-4))
    checks.append(("growth constant", abs(growth_constant(1000) - 0.822467) < 1e-4))
    witness = vector_space_counterexample(scan_density=90)
    checks.append(("witness |w(z0)|", abs(witness["omega_abs_at_z0"] - 1.03053) < 1e-3))
    report(1, "reference decimals reproduced", checks)


def test_criterion_2_exact_rational_coefficients():
    psi = make_spec("psi")
    t1 = t_series(psi, 1, 5, exact=True).series
    t3 = t_series(psi, 3, 4, exact=True).series
    checks = [
        ("t1 head", t1.coeffs[1:] == (1, Fraction(-1), Fraction(3, 4), Fraction(-19, 36), Fraction(107, 288))),
        ("t3 a2", t3[2] == 0),
        ("t3 a3", t3[3] == 0),
        ("t3 a4", t3[4] == Fraction(-1, 3)),
    ]
    report(2, "exact rational structural coefficients", checks)


def test_criterion_3_bound_table():
    zero = Fraction(0)
    checks = [
        ("a3", a3_bound_sl(zero).value == Fraction(3, 4)),
        ("fekete t=1", fekete_szego_sl(zero, 1).value == Fraction(1, 2)),
        ("h2", h2_bound_sl(zero).value == Fraction(1, 4)),
        ("a4", a4_bound_sl(zero).value == Fraction(19, 36)),
        ("a2a3-a4", a2a3_a4_bound_sl(zero).value == Fraction(1, 3)),
        ("a5", a5_bound_sl(zero).value == Fraction(107, 288)),
        ("h2 branch at 1", h2_bound_sl(Fraction(1)).value == Fraction(126, 5184)),
        ("h3 star", h3_bound_sl_star().value == Fraction(1, 9)),
    ]
    # branch agreement at the table branch point
    a = (2 + math.sqrt(15)) / 11
    case1 = 0.25 / (1 + 2 * a) ** 2
    num = 31 * a**4 + 136 * a**3 - 14 * a**2 - 24 * a - 3
    den = 2 * (61 * a**2 - 20 * a - 5) * (1 + a) * (1 + 3 * a) * (1 + 2 * a) ** 2
    checks.append(("h2 branch agreement", abs(case1 - num / den) < 1e-10))
    # fekete branch agreement at both thresholds
    params = alpha_class_params(Fraction(1, 2))
    probe = fekete_szego(params, PSI_COEFFS, 0)
    k1, k2 = probe.inputs["kappa1"], probe.inputs["kappa2"]
    middle = fekete_szego(params, PSI_COEFFS, (k1 + k2) / 2).value
    checks.append(
        ("fekete at k1", abs(float(fekete_szego(params, PSI_COEFFS, k1).value - middle)) < 1e-10)
    )
    checks.append(
        ("fekete at k2", abs(float(fekete_szego(params, PSI_COEFFS, k2).value - middle)) < 1e-10)
    )
    report(3, "closed-form bound table (exact rationals)", checks)


def test_criterion_4_oracle_dominance_and_attainment():
    b = PhiCoeffs(1.0, 0.5, 1.0 / 3.0)
    val = maximize_second_hankel_oracle(alpha_class_params(0.0), b, density=64)
    params = alpha_class_params(0.0)
    a4 = a4_bound(params, PSI_COEFFS, 64).value
    mix = a2a3_a4_bound(params, PSI_COEFFS, 64).value
    checks = [
        ("hankel oracle reaches", val >= 0.249),
        ("hankel oracle bounded", val <= 0.25 + 1e-9),
        ("a4 oracle attains 19/36", abs(a4 - 19 / 36) < 1e-12),
        ("a2a3-a4 oracle attains 1/3", abs(mix - 1 / 3) < 1e-12),
    ]
    report(4, "brute-force oracles dominate and nearly attain", checks)


def scan_first_root(fn, lo, hi, step=1e-6):
    prev_x, prev_f = lo, fn(lo)
    x = lo + step
    while x <= hi:
        f = fn(x)
        if prev_f * f <= 0:
            return 0.5 * (prev_x + x)
        prev_x, prev_f = x, f
        x += step
    raise AssertionError("scan oracle found no root")


def test_criterion_5_radius_roots_and_sharpness():
    checks = []
    conv = radius_convex_order(0.0)
    checks.append(
        ("convexity root vs scan", abs(conv.root - scan_first_root(lambda r: convexity_equation(r, 0.0), 0.0, 1.0)) < 1e-6)
    )
    k2 = radius_k_starlike(2.0)
    checks.append(
        ("conic root vs scan", abs(k2.root - scan_first_root(lambda r: k_starlike_equation(r, 2.0), 0.0, 1.0)) < 1e-6)
    )
    maj = majorization_radius()
    checks.append(
        ("majorization root vs scan", abs(maj.root - scan_first_root(majorization_equation, 0.0, 1.0)) < 1e-6)
    )
    checks.append(
        ("parabolic closed form", abs(radius_k_starlike(1.0).root - (math.e - 1) / (math.e + 1)) < 1e-12)
    )
    f0 = t_series(make_spec("psi"), 1, 120).series
    for alpha in (0.4, 0.5, 0.6):
        z0 = radius_starlike_order(alpha)
        value = z0 * f0.derivative()(z0) / f0(z0)
        checks.append((f"sharpness alpha={alpha}", abs(value.real - alpha) < 1e-6))
    report(5, "radius equations vs scan oracle and sharpness witnesses", checks)


def test_criterion_6_membership_sampling():
    rep = verify_class_membership_bounds(200, seed=42, alphas=(0.0, 0.5, 1.0))
    worst_envelope = min(rep.worst_re_lo, rep.worst_re_hi, rep.worst_im,
                         rep.worst_growth_lo, rep.worst_growth_hi)
    worst_coeff = min(rep.coeff_margins.values())
    checks = [
        ("envelope margins", worst_envelope >= -1e-6),
        ("coefficient margins", worst_coeff >= -1e-6),
        ("no recorded violations", not rep.violations),
    ]
    report(6, "200 seeded samples satisfy all envelopes and bounds", checks)


def test_criterion_7_lemma_sweeps():
    checks = []
    for v in (-0.5, 0.0, 0.25, 23.0 / 24.0, 1.5):
        rep = lemma_p1p2_check(v, 64)
        ok = rep["max_violation"] <= 1e-9
        for key in ("max_violation_refined1", "max_violation_refined2"):
            if key in rep:
                ok = ok and rep[key] <= 1e-9
        checks.append((f"quadratic bound v={v}", ok))
    rng = np.random.default_rng(5)
    recon_ok = True
    for _ in range(500):
        p1 = rng.uniform(0, 2)
        x = rng.uniform(0, 1) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        y = rng.uniform(0, 1) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        cp = caratheodory_point(p1, x, y)
        xi, eta, zeta = schur_parameters(cp.p1, cp.p2, cp.p3)
        recon_ok = recon_ok and max(abs(xi), abs(eta), abs(zeta)) <= 1 + 1e-9
    checks.append(("parameterization reconstruction", recon_ok))
    p31 = eq_p31_check(64)
    checks.append(("cubic combination", p31["max_violation_cubic"] <= 1e-9))
    report(7, "Caratheodory lemma sweeps within 1e-9", checks)


def test_criterion_8_conjecture_report():
    rep = conjecture_check(5, 10)
    checks = [
        ("table generated", len(rep["table"]) == 5 and len(rep["table"][1]) == 9),
        ("violations surfaced", isinstance(rep["violations"], list)),
        ("no violations", rep["violations"] == []),
    ]
    report(8, "coefficient-comparison report generated, zero violations", checks)


def test_criterion_9_figure_curves():
    checks = []
    tau = curve_points("tau", 257)
    checks.append(
        ("tau boundary identity", all(abs(abs(cmath.exp(1 - w) - 1) - 1) < 1e-10 for w in tau))
    )
    tau4 = curve_points("tau4", 256)
    checks.append(
        ("tau4 boundary identity", all(abs(abs(w * w - 1) - C0) < 1e-10 for w in tau4))
    )
    inc = inclusion_constants()
    checks.append(("ray slope constant", abs(inc.gamma_min - 7029 / 12500) < 1e-4))
    tau2 = curve_points("tau2", 64)
    checks.append(
        (
            "tau2 ray angles",
            all(abs(abs(cmath.phase(w)) - inc.gamma_min * math.pi / 2) < 1e-12 for w in tau2),
        )
    )
    report(9, "figure curves satisfy their defining identities", checks)
