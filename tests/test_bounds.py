"""Coefficient-functional bounds: exact tables, case machinery, oracles."""

import math
from fractions import Fraction

import numpy as np
import pytest

from gft.bounds import (
    PSI_COEFFS,
    ClassParams,
    PhiCoeffs,
    SYMMETRIC_CONVEX_PARAMS,
    SYMMETRIC_STARLIKE_PARAMS,
    a2a3_a4_bound,
    a2a3_a4_bound_sl,
    a4_bound,
    a4_bound_sl,
    a5_bound_sl,
    alpha_class_params,
    caratheodory_to_coeffs,
    fekete_szego,
    fekete_szego_positive,
    fekete_szego_sl,
    h2_bound_sl,
    h3_assembled_sl,
    h3_bound_sl_alpha,
    h3_bound_sl_star,
    hankel_quadratic_coefficients,
    max_quadratic_0_4,
    minimize,
    q_params_a2a3_a4,
    q_params_a4,
    schwarz_functional_H,
    second_hankel,
    second_hankel_symmetric,
    sl_bound_table,
)

ALPHA_STAR_FLOAT = (2 + math.sqrt(15)) / 11  # branch point of the h2 table


class TestClassParams:
    def test_alpha_zero(self):
        p = alpha_class_params(Fraction(0))
        assert (p.g2, p.g3, p.g4) == (2, 3, 4)
        assert (p.h2, p.h3, p.h4) == (1, 1, 1)

    def test_alpha_one(self):
        p = alpha_class_params(Fraction(1))
        assert (p.g2, p.g3, p.g4) == (4, 9, 16)
        assert (p.h2, p.h3, p.h4) == (2, 3, 4)

    def test_weight_gaps_positive(self):
        for alpha in np.linspace(0, 1, 21):
            p = alpha_class_params(float(alpha))
            assert p.u > 0 and p.v > 0 and p.w > 0

    def test_rejects_bad_weights(self):
        with pytest.raises(ValueError):
            ClassParams(1, 3, 4, 2, 1, 1)  # g2 - h2 < 0
        with pytest.raises(ValueError):
            ClassParams(2, 3, 4, -1, 1, 1)  # negative weight

    def test_symmetric_params_allow_zero_weights(self):
        assert SYMMETRIC_STARLIKE_PARAMS.h2 == 0
        assert SYMMETRIC_CONVEX_PARAMS.h4 == 0


class TestFeketeSzego:
    def test_sl_below_branch(self):
        alpha = Fraction(1, 4)
        t = Fraction(1, 10)
        rep = fekete_szego_sl(alpha, t)
        assert rep.case_label == "below_k1"
        assert rep.value == Fraction(3, 4) / (1 + 2 * alpha) - t / (1 + alpha) ** 2

    def test_sl_middle(self):
        rep = fekete_szego_sl(Fraction(0), Fraction(1))
        assert rep.case_label == "middle"
        assert rep.value == Fraction(1, 2)

    def test_sl_kappas(self):
        alpha = Fraction(1, 2)
        rep = fekete_szego_sl(alpha, Fraction(0))
        k1 = rep.inputs["kappa1"]
        k2 = rep.inputs["kappa2"]
        assert k1 == (1 + alpha) ** 2 / (4 * (1 + 2 * alpha))
        assert k2 == 5 * (1 + alpha) ** 2 / (4 * (1 + 2 * alpha))

    def test_a3_is_t_zero(self):
        rep = fekete_szego_sl(Fraction(0), Fraction(0))
        assert rep.value == Fraction(3, 4)
        assert rep.case_label == "below_k1"

    def test_branch_continuity_exact(self):
        params = alpha_class_params(Fraction(1, 3))
        probe = fekete_szego(params, PSI_COEFFS, Fraction(0))
        k1, k2 = probe.inputs["kappa1"], probe.inputs["kappa2"]
        at_k1 = fekete_szego(params, PSI_COEFFS, k1)
        just_below = fekete_szego(params, PSI_COEFFS, k1 - Fraction(1, 10**15))
        assert abs(at_k1.value - just_below.value) < Fraction(1, 10**12)
        at_k2 = fekete_szego(params, PSI_COEFFS, k2)
        just_above = fekete_szego(params, PSI_COEFFS, k2 + Fraction(1, 10**15))
        assert abs(at_k2.value - just_above.value) < Fraction(1, 10**12)

    def test_middle_value_independent_of_t(self):
        params = alpha_class_params(Fraction(1, 2))
        probe = fekete_szego(params, PSI_COEFFS, 0)
        k1, k2 = probe.inputs["kappa1"], probe.inputs["kappa2"]
        values = {
            fekete_szego(params, PSI_COEFFS, k1 + (k2 - k1) * Fraction(j, 10)).value
            for j in range(11)
        }
        assert values == {Fraction(1, 2) / (1 + 2 * Fraction(1, 2))}

    def test_middle_value_not_halved(self):
        # regression: the middle branch is B1/v, not B1/(2v)
        rep = fekete_szego_sl(Fraction(0), 1)
        assert rep.value == Fraction(1, 2)
        assert rep.value != Fraction(1, 4)

    def test_counterpart_equivalence(self):
        params = alpha_class_params(Fraction(1, 3))
        b = PhiCoeffs.from_counterpart(*PSI_COEFFS)
        for t in (Fraction(-1), Fraction(0), Fraction(1), Fraction(2)):
            lhs = fekete_szego(params, PSI_COEFFS, t)
            rhs = fekete_szego_positive(params, b, t)
            assert lhs.value == rhs.value
            assert lhs.case_label == rhs.case_label

    def test_rejects_positive_leading_coefficient(self):
        with pytest.raises(ValueError):
            fekete_szego(alpha_class_params(0), (1, Fraction(1, 2), 1), 0)


B_PSI = PhiCoeffs(Fraction(1), Fraction(1, 2), Fraction(1, 3))


class TestSecondHankel:
    def test_sl_zero_is_quarter(self):
        rep = second_hankel(alpha_class_params(Fraction(0)), B_PSI)
        assert rep.value == Fraction(1, 4)
        assert rep.case_label == "case1"

    def test_sl_one_case3_value(self):
        # the three-case machinery lands on 73/2592 at the convex end
        rep = second_hankel(alpha_class_params(Fraction(1)), B_PSI)
        assert rep.case_label == "case3"
        assert rep.value == Fraction(73, 2592)

    @pytest.mark.parametrize("alpha", [Fraction(0), Fraction(1, 4), Fraction(3, 4), Fraction(1)])
    def test_matches_quadratic_scan_oracle(self, alpha):
        params = alpha_class_params(alpha)
        rep = second_hankel(params, B_PSI)
        A, B, C, scale = hankel_quadratic_coefficients(params, B_PSI)
        ts = np.linspace(0.0, 4.0, 400001)
        scan = (float(A) * ts * ts + float(B) * ts + float(C)).max() / float(scale)
        assert abs(float(rep.value) - scan) < 1e-9

    def test_branch_agreement_at_threshold(self):
        params = alpha_class_params(ALPHA_STAR_FLOAT)
        rep = second_hankel(params, PhiCoeffs(1.0, 0.5, 1.0 / 3.0))
        case1_value = 1.0 / float(params.v) ** 2
        assert abs(float(rep.value) - case1_value) < 1e-10

    def test_admissibility_rejected(self):
        bad = ClassParams(2, 30, 4, 1, 1, 1)  # v^2 = 841 > 2uw = 6
        with pytest.raises(ValueError):
            second_hankel(bad, B_PSI)

    def test_case2_synthetic(self):
        b = PhiCoeffs(Fraction(1), Fraction(3), Fraction(1))
        rep = second_hankel(SYMMETRIC_STARLIKE_PARAMS, b)
        assert rep.case_label == "case2"
        assert rep.value == Fraction(496, 256)
        A, B, C, scale = hankel_quadratic_coefficients(SYMMETRIC_STARLIKE_PARAMS, b)
        ts = np.linspace(0.0, 4.0, 400001)
        scan = (float(A) * ts * ts + float(B) * ts + float(C)).max() / float(scale)
        assert abs(float(rep.value) - scan) < 1e-9

    def test_case_coverage_random(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            b = PhiCoeffs(rng.uniform(0.1, 3), rng.uniform(-3, 3), rng.uniform(-3, 3))
            second_hankel(SYMMETRIC_STARLIKE_PARAMS, b)  # must never hit the no-case branch

    def test_counterpart_parity(self):
        # the intermediate polynomials only see b1^2, b1^4, b1 b3, b2: the
        # sign convention cannot change the bound
        from types import SimpleNamespace

        from gft.bounds import _hankel_MT

        c = SimpleNamespace(b1=Fraction(-1), b2=Fraction(1, 2), b3=Fraction(-1, 3))
        for alpha in (Fraction(0), Fraction(1, 2), Fraction(1)):
            params = alpha_class_params(alpha)
            m_c, t_c = _hankel_MT(params, c)
            m_b, t_b = _hankel_MT(params, B_PSI)
            assert (m_c, t_c) == (m_b, t_b)


def _corollary_starlike(b):
    b1, b2, b3 = b.b1, b.b2, b.b3
    M = 16 * b1**2 * b2 - 64 * b2**2 + 32 * b1 * b3
    T = 16 * b2 - 4 * b1**2
    if abs(M) - 64 * b1**2 <= 0 and abs(T) - 24 * b1 <= 0:
        return b1**2 / 4, "A"
    if (abs(M) - 2 * b1 * abs(T) - 16 * b1**2 >= 0 and abs(T) - 24 * b1 >= 0) or (
        abs(M) - 64 * b1**2 >= 0 and abs(T) - 24 * b1 <= 0
    ):
        return abs(M) / 256, "B"
    return (
        b1**2 / 4
        - b1**2 * (abs(T) - 24 * b1) ** 2 / (64 * (abs(M) - 4 * b1 * abs(T) + 32 * b1**2)),
        "C",
    )


def _corollary_convex(b):
    b1, b2, b3 = b.b1, b.b2, b.b3
    M = 128 * (9 * b1**2 * b2 - 32 * b2**2 + 18 * b1 * b3)
    T = 8 * (28 * b2 - 9 * b1**2)
    if abs(M) - 4096 * b1**2 <= 0 and abs(T) - 368 * b1 <= 0:
        return b1**2 / 36, "A"
    if (abs(M) - 8 * b1 * abs(T) - 1152 * b1**2 >= 0 and abs(T) - 368 * b1 >= 0) or (
        abs(T) - 368 * b1 <= 0 and abs(M) - 4096 * b1**2 >= 0
    ):
        return abs(M) / 147456, "B"
    return (
        b1**2 / 36
        - b1**2
        * (abs(T) - 368 * b1) ** 2
        / (2304 * (abs(M) - 16 * b1 * abs(T) + 1792 * b1**2)),
        "C",
    )


class TestSymmetricCorollaries:
    def test_koebe_style_starlike(self):
        rep = second_hankel_symmetric("starlike", PhiCoeffs(2, 2, 2))
        assert float(rep.value) == pytest.approx(1.0)
        assert rep.case_label == "A"

    def test_koebe_style_convex(self):
        rep = second_hankel_symmetric("convex", PhiCoeffs(2, 2, 2))
        assert float(rep.value) == pytest.approx(1 / 9)
        assert rep.case_label == "A"

    def test_degenerate(self):
        rep = second_hankel_symmetric("starlike", PhiCoeffs(1, 0, 0))
        assert float(rep.value) == pytest.approx(1 / 4)
        assert rep.case_label == "A"

    @pytest.mark.parametrize("kind,closed", [("starlike", _corollary_starlike), ("convex", _corollary_convex)])
    def test_matches_closed_corollary_formulas(self, kind, closed):
        rng = np.random.default_rng(1)
        for _ in range(300):
            b = PhiCoeffs(rng.uniform(0.2, 3), rng.uniform(-3, 3), rng.uniform(-3, 3))
            rep = second_hankel_symmetric(kind, b)
            value, label = closed(b)
            assert float(rep.value) == pytest.approx(float(value), abs=1e-12)
            assert rep.case_label == label

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            second_hankel_symmetric("spiral", PhiCoeffs(1, 0, 0))


class TestCaratheodoryToCoeffs:
    def test_full_boundary_gives_structural_coefficients(self):
        params = alpha_class_params(Fraction(0))
        a2, a3, a4 = caratheodory_to_coeffs(params, PSI_COEFFS, 2, 2, 2)
        assert (a2, a3, a4) == (Fraction(-1), Fraction(3, 4), Fraction(-19, 36))

    def test_even_datum(self):
        params = alpha_class_params(Fraction(0))
        a2, a3, a4 = caratheodory_to_coeffs(params, PSI_COEFFS, 0, 2, 0)
        assert a2 == 0
        assert a3 == PSI_COEFFS[0] / params.v
        assert abs(a3) == Fraction(1, 2)
        assert a4 == 0

    def test_zero_datum(self):
        params = alpha_class_params(Fraction(1, 2))
        assert caratheodory_to_coeffs(params, PSI_COEFFS, 0, 0, 0) == (0, 0, 0)


class TestQParams:
    @pytest.mark.parametrize("alpha", [Fraction(0), Fraction(1, 3), Fraction(1)])
    def test_a4_params_alpha_independent(self, alpha):
        q1, q2 = q_params_a4(alpha_class_params(alpha), PSI_COEFFS)
        assert q1 == Fraction(-5, 2)
        assert q2 == Fraction(19, 12)

    def test_a2a3_a4_params(self):
        q1, q2 = q_params_a2a3_a4(alpha_class_params(Fraction(0)), PSI_COEFFS)
        assert (q1, q2) == (Fraction(-1), Fraction(-2, 3))
        q1, q2 = q_params_a2a3_a4(alpha_class_params(Fraction(1)), PSI_COEFFS)
        assert (q1, q2) == (Fraction(-3, 2), Fraction(1, 12))

    def test_a2a3_a4_closed_forms(self):
        for alpha in (Fraction(1, 4), Fraction(2, 3)):
            q1, q2 = q_params_a2a3_a4(alpha_class_params(alpha), PSI_COEFFS)
            assert q1 == -(5 * alpha**2 + 3 * alpha + 1) / ((1 + alpha) * (1 + 2 * alpha))
            assert q2 == (19 * alpha**2 - 12 * alpha - 4) / (6 * (1 + alpha) * (1 + 2 * alpha))

    def test_degenerate_collapse(self):
        params = ClassParams(2, 3, 4, 0, 0, 0)
        q1, q2 = q_params_a4(params, (1, 0, 0))
        assert q1 == 0 and q2 == 0

    def test_symmetric_starlike_pattern(self):
        # direct-substitution oracle for the symmetric weights
        p = SYMMETRIC_STARLIKE_PARAMS
        b1, b2, b3 = 1, Fraction(1, 2), Fraction(1, 3)
        cross = p.g3 * p.h2 + p.g2 * p.h3 - 2 * p.h2 * p.h3
        expect_q1 = (2 * b2 * p.u * p.v + b1**2 * cross) / (b1 * p.u * p.v)
        got_q1, got_q2 = q_params_a4(p, (b1, b2, b3))
        assert got_q1 == expect_q1
        assert got_q2 == (b3 * p.u * p.v + b1**3 * p.h2 * p.h3 + b1 * b2 * cross) / (
            b1 * p.u * p.v
        )


class TestSchwarzFunctionalH:
    def test_a4_input(self):
        h = schwarz_functional_H(-2.5, 19 / 12, 64)
        assert abs(h.value - 19 / 12) < 1e-4
        assert h.xi == pytest.approx(1.0)

    def test_a2a3a4_input(self):
        h = schwarz_functional_H(-1.0, -2 / 3, 64)
        assert abs(h.value - 1.0) < 1e-4
        assert h.xi == pytest.approx(0.0)

    def test_trivial_input(self):
        assert abs(schwarz_functional_H(0.0, 0.0, 64).value - 1.0) < 1e-9

    def test_even_in_q1(self):
        a = schwarz_functional_H(-2.5, 19 / 12, 64)
        b = schwarz_functional_H(2.5, 19 / 12, 64)
        assert abs(a.value - b.value) < 1e-12

    def test_density_validated(self):
        with pytest.raises(ValueError):
            schwarz_functional_H(0, 0, 16)


class TestMinimizeMatchesScipy:
    """The polish is scipy's Nelder-Mead step for step: same x, fun and nfev."""

    @staticmethod
    def objective(rng, dim):
        centre = rng.uniform(-2.0, 2.0, dim)
        scale = rng.uniform(0.1, 3.0, dim)
        wave = rng.uniform(-1.0, 1.0, dim)
        amp = rng.uniform(0.0, 0.5)
        clamp = rng.random() < 0.5  # flat outside [-1, 1]^dim: ties in the simplex

        def f(x):
            y = np.clip(x, -1.0, 1.0) if clamp else x
            return float(np.sum(scale * (y - centre) ** 2) + amp * math.sin(float(wave @ x)))

        return f

    @pytest.mark.parametrize("seed", range(100))
    def test_same_trajectory(self, seed):
        optimize = pytest.importorskip("scipy.optimize")
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(1, 5))
        x0 = rng.uniform(-1.5, 1.5, dim)
        x0[rng.random(dim) < 0.4] = 0.0
        xatol, fatol = 10.0 ** -rng.integers(4, 14, 2)
        if seed % 10 == 0:  # a tenth cannot meet the stopping test and run all 2000 iterations
            xatol = fatol = -1.0
        f = self.objective(rng, dim)
        ours = minimize(f, x0, xatol=xatol, fatol=fatol)
        ref = optimize.minimize(f, x0, method="Nelder-Mead",
                                options={"xatol": xatol, "fatol": fatol, "maxiter": 2000})
        assert ours.x.tobytes() == ref.x.tobytes()
        assert ours.fun == ref.fun
        assert ours.nfev == ref.nfev


class TestFourthCoefficientBounds:
    @pytest.mark.parametrize("alpha", [0, 1])
    def test_a4_generic_matches_table(self, alpha):
        rep = a4_bound(alpha_class_params(Fraction(alpha)), PSI_COEFFS)
        assert abs(float(rep.value) - float(a4_bound_sl(alpha).value)) < 1e-9

    def test_a4_table(self):
        assert a4_bound_sl(Fraction(0)).value == Fraction(19, 36)
        assert a4_bound_sl(Fraction(1)).value == Fraction(19, 144)

    @pytest.mark.parametrize("alpha", [0, 1])
    def test_a2a3a4_generic_matches_table(self, alpha):
        rep = a2a3_a4_bound(alpha_class_params(Fraction(alpha)), PSI_COEFFS)
        assert abs(float(rep.value) - float(a2a3_a4_bound_sl(alpha).value)) < 1e-9

    def test_a2a3a4_table(self):
        assert a2a3_a4_bound_sl(Fraction(0)).value == Fraction(1, 3)
        assert a2a3_a4_bound_sl(Fraction(1)).value == Fraction(1, 12)

    def test_a4_counterpart_equivalence(self):
        # negative- and positive-slope coefficient triples give the same
        # bound: the cubic functional maximum is even in its first parameter
        params = alpha_class_params(Fraction(1, 2))
        from_c = a4_bound(params, PSI_COEFFS)
        from_b = a4_bound(params, (Fraction(1), Fraction(1, 2), Fraction(1, 3)))
        assert abs(float(from_c.value) - float(from_b.value)) < 1e-12

    def test_a4_attained_by_structural_function(self):
        from gft.catalog import make_spec
        from gft.extremal import t_series

        f0 = t_series(make_spec("psi"), 1, 5, exact=True)
        assert abs(f0.series[4]) == a4_bound_sl(Fraction(0)).value

    def test_a2a3a4_attained_by_cubed_structural_function(self):
        from gft.catalog import make_spec
        from gft.extremal import t_series

        ft = t_series(make_spec("psi"), 3, 4, exact=True)
        a2, a3, a4 = ft.series[2], ft.series[3], ft.series[4]
        assert abs(a2 * a3 - a4) == a2a3_a4_bound_sl(Fraction(0)).value


class TestA5Bound:
    def test_values(self):
        assert a5_bound_sl(Fraction(0)).value == Fraction(107, 288)
        assert a5_bound_sl(Fraction(1)).value == Fraction(107, 1440)

    def test_attained_by_structural_function(self):
        from gft.catalog import make_spec
        from gft.extremal import t_series

        f0 = t_series(make_spec("psi"), 1, 5, exact=True)
        assert abs(f0.series[5]) == a5_bound_sl(Fraction(0)).value

    def test_quadratic_machinery(self):
        # the proof's inner maximization: |p1|^2/12 - |p1|^4/576 over |p1| <= 2
        value, label = max_quadratic_0_4(Fraction(-1, 576), Fraction(1, 12), Fraction(0))
        assert value == Fraction(11, 36)
        assert label == "endpoint4"
        assembled = (2 + Fraction(2, 3) + value) / 8
        assert assembled == Fraction(107, 288)

    def test_max_quadratic_against_scan(self):
        rng = np.random.default_rng(2)
        ts = np.linspace(0, 4, 100001)
        for _ in range(50):
            A, B, C = rng.uniform(-3, 3, 3)
            value, _ = max_quadratic_0_4(A, B, C)
            scan = (A * ts * ts + B * ts + C).max()
            assert abs(value - scan) < 1e-7


class TestH2Table:
    def test_alpha_zero(self):
        assert h2_bound_sl(Fraction(0)).value == Fraction(1, 4)

    def test_alpha_one_second_branch(self):
        rep = h2_bound_sl(Fraction(1))
        assert rep.value == Fraction(126, 5184)
        assert rep.case_label == "case3"

    def test_branch_agreement_at_threshold(self):
        alpha = ALPHA_STAR_FLOAT
        case1 = 0.25 / (1 + 2 * alpha) ** 2
        num = 31 * alpha**4 + 136 * alpha**3 - 14 * alpha**2 - 24 * alpha - 3
        den = (
            2
            * (61 * alpha**2 - 20 * alpha - 5)
            * (1 + alpha)
            * (1 + 3 * alpha)
            * (1 + 2 * alpha) ** 2
        )
        assert abs(case1 - num / den) < 1e-10
        assert abs(float(h2_bound_sl(alpha).value) - case1) < 1e-10


class TestH3Table:
    def test_alpha_zero(self):
        assert h3_bound_sl_alpha(Fraction(0)).value == Fraction(949, 1728)

    def test_star_value(self):
        assert h3_bound_sl_star().value == Fraction(1, 9)

    def test_star_attained(self):
        from gft.catalog import make_spec
        from gft.extremal import t_series

        ft = t_series(make_spec("psi"), 3, 5, exact=True).series
        a2, a3, a4, a5 = ft[2], ft[3], ft[4], ft[5]
        assert (a2, a3, a5) == (0, 0, 0)
        assert a4 == Fraction(-1, 3)
        h3 = a3 * (a2 * a4 - a3**2) - a4 * (a4 - a2 * a3) + a5 * (a3 - a2**2)
        assert abs(h3) == Fraction(1, 9)

    def test_assembly_identity_exact(self):
        # the printed rational functions equal the product-sum assembly
        for j in range(11):
            alpha = Fraction(j, 10)
            assert h3_bound_sl_alpha(alpha).value == h3_assembled_sl(alpha)

    def test_branch_labels_flip_at_threshold(self):
        a_minus = Fraction(533907, 1000000)  # just below (2+sqrt(15))/11
        a_plus = Fraction(533908, 1000000)   # just above
        assert h3_bound_sl_alpha(a_minus).case_label == "sl-h3-case1"
        assert h3_bound_sl_alpha(a_plus).case_label == "sl-h3-case3"

    def test_branch_continuity(self):
        # both closed forms evaluated at the same threshold point agree
        a = ALPHA_STAR_FLOAT
        first = (
            949 + 11388 * a + 52493 * a**2 + 114974 * a**3 + 117180 * a**4 + 42568 * a**5
        ) / (1728 * (1 + 4 * a) * (1 + 3 * a) ** 2 * (1 + 2 * a) ** 4)
        second = (
            -5069
            - 76035 * a
            - 385994 * a**2
            - 619570 * a**3
            + 831511 * a**4
            + 3545777 * a**5
            + 3327024 * a**6
            + 1298324 * a**7
        ) / (
            1728
            * (1 + a)
            * (1 + 4 * a)
            * (1 + 3 * a) ** 2
            * (1 + 2 * a) ** 3
            * (61 * a**2 - 20 * a - 5)
        )
        assert abs(first - second) < 1e-9
        assert abs(float(h3_bound_sl_alpha(a).value) - first) < 1e-9

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            h3_bound_sl_alpha(2)


class TestTable:
    def test_full_table_at_zero(self):
        table = sl_bound_table(Fraction(0))
        assert table["a3"] == Fraction(3, 4)
        assert table["fekete_t1"] == Fraction(1, 2)
        assert table["h2"] == Fraction(1, 4)
        assert table["a4"] == Fraction(19, 36)
        assert table["a2a3_a4"] == Fraction(1, 3)
        assert table["a5"] == Fraction(107, 288)
