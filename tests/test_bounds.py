"""Coefficient-functional bounds: exact tables, case machinery, oracles."""

import cmath
import json
import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gft.bounds import (
    PSI_COEFFS,
    BoundReport,
    ClassParams,
    PhiCoeffs,
    SYMMETRIC_CONVEX_PARAMS,
    SYMMETRIC_STARLIKE_PARAMS,
    _hankel_MT,
    a2_bound_sl,
    a2a3_a4_bound,
    a2a3_a4_bound_sl,
    a3_bound_sl,
    a4_bound,
    a4_bound_sl,
    a5_bound_sl,
    alpha_class_params,
    fekete_szego,
    fekete_szego_positive,
    fekete_szego_sl,
    h2_bound_sl,
    h3_bound_sl_alpha,
    h3_bound_sl_star,
    hankel_quadratic_coefficients,
    max_quadratic_0_4,
    minimize,
    q_params_a2a3_a4,
    q_params_a4,
    second_hankel,
    second_hankel_symmetric,
    sl_bound_table,
    sl_threshold_sign,
)
import gft.bounds
import gft.verify
from gft.verify import _class_coefficients, polar_grid

ALPHA_STAR_FLOAT = (2 + math.sqrt(15)) / 11  # branch point of the h2 table

#: exact alpha in [0, 1]
RATIONAL_ALPHAS = st.fractions(min_value=0, max_value=1, max_denominator=10**6)

# a point of the closed unit disk, drawn on the boundary about half the time
DISK_POINTS = st.builds(
    lambda r, phi: r * cmath.exp(1j * phi),
    st.one_of(st.just(1.0), st.floats(0.0, 1.0)),
    st.floats(0.0, 2 * math.pi, exclude_max=True),
)


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

    def test_value_classes_are_immutable_with_value_equality(self):
        params = ClassParams(2, 3, 4, 1, 1, 1)
        assert params == ClassParams(2, 3, 4, 1, 1, 1)
        assert repr(params) == "ClassParams(g2=2, g3=3, g4=4, h2=1, h3=1, h4=1)"
        with pytest.raises(AttributeError):
            params.g2 = 5
        with pytest.raises(ValueError, match="leading coefficient must be positive, got 0"):
            PhiCoeffs(0, 1, 1)
        first, second = BoundReport(1, "a"), BoundReport(1, "a")
        assert first == second
        first.inputs["t"] = 1  # each report has its own inputs dict
        assert second.inputs == {}


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

    @given(
        alpha=RATIONAL_ALPHAS,
        c=st.tuples(
            st.fractions(min_value=-3, max_value=Fraction(-1, 100), max_denominator=100),
            st.fractions(min_value=-3, max_value=3, max_denominator=100),
            st.fractions(min_value=-3, max_value=3, max_denominator=100),
        ),
    )
    @example(alpha=Fraction(0), c=PSI_COEFFS)
    @example(alpha=Fraction(1, 2), c=PSI_COEFFS)
    @example(alpha=Fraction(1), c=PSI_COEFFS)
    @settings(max_examples=100, deadline=None)
    def test_counterpart_parity(self, alpha, c):
        # B_i = (-1)^i C_i.  The Hankel polynomials only see b1^2, b1^4, b1 b3
        # and b2, so the sign convention cannot change the bound; in the
        # reduction c3 + q1 c1 c2 + q2 c1^3, q1 flips sign and q2 does not
        params = alpha_class_params(alpha)
        b = PhiCoeffs.from_counterpart(*c)
        assert (b.b1, b.b2, b.b3) == (-c[0], c[1], -c[2])
        c_ns = SimpleNamespace(b1=c[0], b2=c[1], b3=c[2])
        assert _hankel_MT(params, c_ns) == _hankel_MT(params, b)
        for q_params in (q_params_a4, q_params_a2a3_a4):
            q1_c, q2_c = q_params(params, c)
            assert q_params(params, (b.b1, b.b2, b.b3)) == (-q1_c, q2_c)


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


class TestRecurrenceAtCaratheodoryData:
    """a2..a4 of the recurrence at Libera-Zlotkiewicz data (p1, x, y)."""

    def test_full_boundary_gives_structural_coefficients(self):
        # p1 = 2 is omega = z, whatever x and y
        a2, a3, a4 = _lz_coefficients(alpha_class_params(0.0), PSI_COEFFS, 2.0, 0.3 - 0.4j, 1j)
        for got, want in ((a2, -1), (a3, 3 / 4), (a4, -19 / 36)):
            assert abs(got - want) < 1e-15

    def test_even_datum(self):
        # p1 = 0, x = 1 is omega = z^2
        params = alpha_class_params(0.0)
        a2, a3, a4 = _lz_coefficients(params, PSI_COEFFS, 0.0, 1.0, 0.5j)
        assert abs(a2) < 1e-15 and abs(a4) < 1e-15
        assert abs(a3 - PSI_COEFFS[0] / params.v) < 1e-15
        assert abs(abs(a3) - 1 / 2) < 1e-15

    def test_zero_datum(self):
        params = alpha_class_params(0.5)
        assert _lz_coefficients(params, PSI_COEFFS, 0.0, 0.0, 0.0) == (0, 0, 0)


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


def _schur_coefficients(xi, eta, zeta):
    """(c1, c2, c3) of the Schwarz function with Schur parameters xi, eta, zeta."""
    s = 1 - abs(xi) ** 2
    return xi, s * eta, s * ((1 - abs(eta) ** 2) * zeta - xi.conjugate() * eta**2)


def _lz_coefficients(params, coeffs, p1, x, y):
    """(a2, a3, a4) of the recurrence at the Schwarz coefficients of
    Libera-Zlotkiewicz data: Schur parameters p1/2, x, y."""
    c1, c2, c3 = _schur_coefficients(complex(p1 / 2), complex(x), complex(y))
    return tuple(complex(a[0, 0]) for a in _class_coefficients(
        np.array([[0, c1, c2, c3]]), [1.0, *map(float, coeffs)],
        [1.0, float(params.h2), float(params.h3)],
        [float(params.u), float(params.v), float(params.w)]))


class TestReductionAgainstRecurrence:
    """The paper's reduction (q_params_*) against the coefficient recurrence."""

    @given(
        alpha=st.floats(0.0, 1.0),
        b1=st.one_of(st.floats(0.1, 3.0), st.floats(-3.0, -0.1)),
        b2=st.floats(-3.0, 3.0),
        b3=st.floats(-3.0, 3.0),
        xi=DISK_POINTS,
        eta=DISK_POINTS,
        zeta=DISK_POINTS,
    )
    @settings(max_examples=300, deadline=None)
    def test_q_reduction_is_the_recurrence(self, alpha, b1, b2, b3, xi, eta, zeta):
        params = alpha_class_params(alpha)
        c1, c2, c3 = _schur_coefficients(complex(xi), complex(eta), complex(zeta))
        a2, a3, a4 = (complex(a[0, 0]) for a in _class_coefficients(
            np.array([[0, c1, c2, c3]]), [1.0, b1, b2, b3], [1.0, params.h2, params.h3],
            [params.u, params.v, params.w]))
        for functional, q_params in ((a4, q_params_a4), (a4 - a2 * a3, q_params_a2a3_a4)):
            q1, q2 = q_params(params, (b1, b2, b3))
            reduced = b1 / params.w * (c3 + q1 * c1 * c2 + q2 * c1**3)
            assert abs(functional - reduced) < 1e-12


def _cubic_rows(oracle, params, coeffs, density):
    """The oracle's report and its one ``verify.disk_max`` call: the rows
    (a0, a1, a2, k) and the row maxima."""
    calls = []
    real = gft.verify.disk_max

    def spy(*rows):
        calls.append((rows, real(*rows)))
        return calls[-1][1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gft.verify, "disk_max", spy)
        rep = oracle(params, coeffs, density)
    (call,) = calls
    return (rep, *call)


class TestCubicOracles:
    """``a4_bound`` and ``a2a3_a4_bound``: grid maxima over the coefficient recurrence."""

    @pytest.mark.parametrize("alpha", [Fraction(0), Fraction(1, 4), Fraction(1, 2),
                                       Fraction(3, 4), Fraction(1)])
    @pytest.mark.parametrize("coeffs", [PSI_COEFFS, (1.0, 0.5, 1.0 / 3.0)])
    def test_independent_of_the_closed_forms(self, monkeypatch, alpha, coeffs):
        # neither the paper's q-reduction nor the polish is on the cubic path
        def banned(*args, **kwargs):
            raise AssertionError("the cubic oracles must not call this")

        for name in ("q_params_a4", "q_params_a2a3_a4", "minimize"):
            monkeypatch.setattr(gft.bounds, name, banned)
        params = alpha_class_params(alpha)
        for oracle, closed, xi in ((a4_bound, a4_bound_sl, 1.0), (a2a3_a4_bound, a2a3_a4_bound_sl, 0.0)):
            rep = oracle(params, coeffs)
            assert abs(rep.value - float(closed(alpha).value)) < 1e-12
            # the witness row: omega = z for a4, omega = z^3 (xi = 0) for a2a3a4
            assert rep.inputs == {"xi": xi}
            assert type(rep.inputs["xi"]) is float
            assert json.loads(json.dumps(rep.as_dict()))["inputsEcho"] == rep.inputs

    @pytest.mark.parametrize("oracle, functional", [
        (a4_bound, lambda a2, a3, a4: a4), (a2a3_a4_bound, lambda a2, a3, a4: a2 * a3 - a4)])
    def test_grid_is_the_functional_at_each_schur_point(self, oracle, functional):
        # at a grid point (xi, eta) the functional is F0 + F1 zeta, so its
        # maximum over the disk is |F0| + |F1|; the recurrence gives it at the
        # Schwarz coefficients of zeta = 0 and zeta = 1, not through A, B, C.
        # The oracle's rows, evaluated on the polar grid, are that maximum
        params, coeffs = alpha_class_params(0.3), (0.7, -1.3, 2.1)
        _, rows, _ = _cubic_rows(oracle, params, coeffs, 32)
        t, _, _, x = polar_grid(1.0, 32)
        a0, a1, a2, k = (a[:, None, None] for a in rows)
        xi, eta = np.broadcast_arrays(t, x)
        s = 1 - xi**2
        at = []
        for zeta in (0, 1):
            c = (0 * eta, xi + 0j, s * eta, s * ((1 - abs(eta) ** 2) * zeta - xi * eta**2))
            at.append(functional(*_class_coefficients(
                np.stack(c, axis=-1).reshape(-1, 4), [1.0, *coeffs],
                [1.0, params.h2, params.h3], [params.u, params.v, params.w])).reshape(xi.shape))
        np.testing.assert_allclose(np.abs(a0 + a1 * x + a2 * x**2) + k * (1 - np.abs(x) ** 2),
                                   np.abs(at[0]) + np.abs(at[1] - at[0]), rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("oracle, functional", [
        (a4_bound, lambda a2, a3, a4: a4), (a2a3_a4_bound, lambda a2, a3, a4: a2 * a3 - a4)])
    def test_row_maximum_is_the_functional_over_the_eta_disk(self, oracle, functional):
        # at a row xi and a point eta the functional is F0 + F1 zeta, so its
        # maximum over the zeta disk is |F0| + |F1|; the recurrence gives it at
        # the Schwarz coefficients of zeta = 0 and zeta = 1, not through A, B, C.
        # Its maximum over a dense eta grid never exceeds the row's disk_max and
        # falls short of it by at most the grid's resolution
        params, coeffs, density = alpha_class_params(0.3), (0.7, -1.3, 2.1), 32
        rep, (_, a1, a2, k), rows = _cubic_rows(oracle, params, coeffs, density)
        assert rep.value == rows.max() and rep.inputs["xi"] == np.linspace(0, 1, density)[
            int(np.argmax(rows))]
        radii, angles = 41, 128
        eta = (np.linspace(0.0, 1.0, radii)[:, None]
               * np.exp(2j * np.pi * np.arange(angles) / angles)).ravel()
        xi = np.linspace(0.0, 1.0, density)[:, None] + 0 * eta
        s = 1 - xi**2
        at = []
        for zeta in (0, 1):
            c = (0 * xi, xi + 0j, s * eta, s * ((1 - abs(eta) ** 2) * zeta - xi * eta**2))
            at.append(functional(*_class_coefficients(
                np.stack(c, axis=-1).reshape(-1, 4), [1.0, *coeffs],
                [1.0, params.h2, params.h3], [params.u, params.v, params.w])).reshape(xi.shape))
        grid = (np.abs(at[0]) + np.abs(at[1] - at[0])).max(axis=1)
        # the row function is Lipschitz with |a1| + 2|a2| + 2k in eta, and every
        # point of the disk lies within half a radial step plus one angular
        # step of the grid
        resolution = (np.abs(a1) + 2 * np.abs(a2) + 2 * k) * (0.5 / (radii - 1) + np.pi / angles)
        assert np.all(grid <= rows * (1 + 1e-12))
        assert np.all(rows - grid <= resolution + 1e-12)

    def test_trivial_generator(self):
        # h = 0 and phi = 1 + z: f * G = z (1 + omega), so a4 = c3 / 4
        rep = a4_bound(ClassParams(2, 3, 4, 0, 0, 0), (1, 0, 0))
        assert rep.value == 0.25

    def test_density_validated(self):
        for oracle in (a4_bound, a2a3_a4_bound):
            with pytest.raises(ValueError, match="density must be at least 32"):
                oracle(alpha_class_params(0.5), PSI_COEFFS, 16)

    # odd densities put no phi grid point at +-pi/2; at 96 the grid is finest
    @pytest.mark.parametrize("density", [32, 33, 37, 48, 96])
    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("oracle", [a4_bound, a2a3_a4_bound])
    def test_row_maxima_against_the_full_tensor(self, oracle, alpha, density):
        # the (xi, rho, phi) grid that the row maxima replaced, on the same
        # rows: each row's grid maximum stays below its disk_max but by
        # rounding and falls short of it by at most the grid's resolution; the
        # report is the first largest row
        rep, (a0, a1, a2, k), rows = _cubic_rows(
            oracle, alpha_class_params(alpha), (1.0, 0.5, 1.0 / 3.0), density)
        assert rep.value == rows.max()
        assert rep.inputs["xi"] == np.linspace(0, 1, density)[int(np.argmax(rows))]
        x = polar_grid(1.0, density)[3]
        b0, b1, b2, bk = (a[:, None, None] for a in (a0, a1, a2, k))
        full = (np.abs(b0 + b1 * x + b2 * x**2) + bk * (1 - np.abs(x) ** 2)).max(axis=(1, 2))
        assert np.all(full <= rows * (1 + 1e-14))
        # the Lipschitz bound of the row function times the largest distance
        # from a disk point to the grid: half a radial step plus pi / d of arc
        step = 0.5 / (density - 1) + np.pi / density
        assert np.all(rows - full <= (np.abs(a1) + 2 * np.abs(a2) + 2 * k) * step + 1e-14 * rows)
        assert rep.value >= full.max() * (1 - 1e-15)

    @given(
        st.floats(0.0, 1.0),
        st.tuples(*[st.just(0.0) | st.floats(-3.0, 3.0)] * 3),
        st.integers(32, 64),
        st.sampled_from([a4_bound, a2a3_a4_bound]),
    )
    # a subnormal b1 makes a case that disk_max does not take overflow
    @example(0.0, (2.225073858507203e-309, 1.0, 0.0), 32, a4_bound)
    @settings(max_examples=25, deadline=None)
    def test_never_below_the_full_tensor_grid(self, alpha, coeffs, density, oracle):
        # the (xi, rho, phi) grid that the row maxima replaced, on the same rows:
        # the exact row maximum reaches the grid's maximum up to rounding
        rep, (a0, a1, a2, k), _ = _cubic_rows(oracle, alpha_class_params(alpha), coeffs, density)
        x = polar_grid(1.0, density)[3]
        rows = (a[:, None, None] for a in (a0, a1, a2, k))
        full = max(float((np.abs(a0 + a1 * x + a2 * x**2) + k * (1 - np.abs(x) ** 2)).max())
                   for a0, a1, a2, k in zip(*rows))
        assert rep.value >= full * (1 - 1e-15)


def numpy_simplex(fun, x0, xatol, fatol):
    """The polish as it ran on numpy arrays, kept as the reference that
    :func:`gft.bounds.minimize` follows bit for bit: each step is scipy's,
    with scipy's argsort on every sort."""
    nfev = 0

    def f(x):
        nonlocal nfev
        nfev += 1
        return fun(np.copy(x))

    x0 = np.asarray(x0, dtype=float).ravel()
    n = len(x0)
    sim = np.empty((n + 1, n))
    sim[:] = x0
    for k in range(n):
        sim[k + 1, k] = 1.05 * x0[k] if x0[k] != 0 else 0.00025
    fsim = np.array([f(v) for v in sim], dtype=float)
    for _ in range(2):
        ind = np.argsort(fsim)
        sim = np.take(sim, ind, 0)
        fsim = np.take(fsim, ind, 0)
    for _ in range(1999):
        if (np.max(np.abs(sim[1:] - sim[0])) <= xatol
                and np.max(np.abs(fsim[0] - fsim[1:])) <= fatol):
            break
        xbar = np.add.reduce(sim[:-1], 0) / n
        xr = 2 * xbar - sim[-1]
        fxr = f(xr)
        if fxr < fsim[0]:
            xe = 3 * xbar - 2 * sim[-1]
            fxe = f(xe)
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:
            if fxr < fsim[-1]:
                xc = 1.5 * xbar - 0.5 * sim[-1]
                fxc = f(xc)
                shrink = not fxc <= fxr
            else:
                xc = 0.5 * xbar + 0.5 * sim[-1]
                fxc = f(xc)
                shrink = not fxc < fsim[-1]
            if shrink:
                for j in range(1, n + 1):
                    sim[j] = sim[0] + 0.5 * (sim[j] - sim[0])
                    fsim[j] = f(sim[j])
            else:
                sim[-1], fsim[-1] = xc, fxc
        ind = np.argsort(fsim)
        sim = np.take(sim, ind, 0)
        fsim = np.take(fsim, ind, 0)
    return SimpleNamespace(x=sim[0], fun=np.min(fsim), nfev=nfev)


def polish_case(seed):
    """(objective, x0, xatol, fatol) of a random polish: a shifted quadratic
    with a sine ripple in 1 to 4 dimensions, flat outside [-1, 1]^dim half the
    time so that the simplex meets ties; a tenth cannot meet the stopping test
    and run all 2000 iterations."""
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(1, 5))
    x0 = rng.uniform(-1.5, 1.5, dim)
    x0[rng.random(dim) < 0.4] = 0.0
    xatol, fatol = 10.0 ** -rng.integers(4, 14, 2)
    if seed % 10 == 0:
        xatol = fatol = -1.0
    centre = rng.uniform(-2.0, 2.0, dim)
    scale = rng.uniform(0.1, 3.0, dim)
    wave = rng.uniform(-1.0, 1.0, dim)
    amp = rng.uniform(0.0, 0.5)
    clamp = rng.random() < 0.5

    def f(x):
        y = np.clip(x, -1.0, 1.0) if clamp else x
        return float(np.sum(scale * (y - centre) ** 2) + amp * math.sin(float(wave @ x)))

    return f, x0, xatol, fatol


class TestMinimizeMatchesScipy:
    """The polish is scipy's Nelder-Mead step for step: same x, fun and nfev."""

    @pytest.mark.parametrize("seed", range(100))
    def test_same_trajectory(self, seed):
        optimize = pytest.importorskip("scipy.optimize")
        f, x0, xatol, fatol = polish_case(seed)
        ours = minimize(f, x0, xatol=xatol, fatol=fatol)
        ref = optimize.minimize(f, x0, method="Nelder-Mead",
                                options={"xatol": xatol, "fatol": fatol, "maxiter": 2000})
        assert ours.x.tobytes() == ref.x.tobytes()
        assert ours.fun == ref.fun
        assert ours.nfev == ref.nfev


class TestMinimizeMatchesNumpySimplex:
    """The polish on Python floats keeps the numpy simplex's trajectory, with
    or without scipy installed."""

    @pytest.mark.parametrize("seed", range(100))
    def test_same_trajectory(self, seed):
        f, x0, xatol, fatol = polish_case(seed)
        ours = minimize(f, x0, xatol=xatol, fatol=fatol)
        ref = numpy_simplex(f, x0, xatol=xatol, fatol=fatol)
        assert ours.x.tobytes() == ref.x.tobytes()
        assert repr(ours.fun) == repr(ref.fun)
        assert ours.nfev == ref.nfev

    @pytest.mark.parametrize("x0", [(0.0, 0.0), (1.0, -1.0), (2.0, 0.5, -0.0)])
    def test_ties_keep_numpy_order(self, x0):
        # a flat objective ties every vertex, and numpy's argsort orders the ties
        ours = minimize(lambda x: 1.0, x0, xatol=1e-8, fatol=1e-8)
        ref = numpy_simplex(lambda x: 1.0, x0, xatol=1e-8, fatol=1e-8)
        assert ours.x.tobytes() == ref.x.tobytes()
        assert ours.fun == ref.fun and ours.nfev == ref.nfev


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
        # bound: their class members are f(z) and -f(-z)
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


# The paper's two printed H3(1) estimates for S_l(alpha), below and above the
# branch point, kept as data: the code assembles h3 from the table instead.
def _printed_h3_case1(a):
    num = 949 + 11388 * a + 52493 * a**2 + 114974 * a**3 + 117180 * a**4 + 42568 * a**5
    return num / (1728 * (1 + 4 * a) * (1 + 3 * a) ** 2 * (1 + 2 * a) ** 4)


def _printed_h3_case3(a):
    num = (
        -5069
        - 76035 * a
        - 385994 * a**2
        - 619570 * a**3
        + 831511 * a**4
        + 3545777 * a**5
        + 3327024 * a**6
        + 1298324 * a**7
    )
    den = (
        1728
        * (1 + a)
        * (1 + 4 * a)
        * (1 + 3 * a) ** 2
        * (1 + 2 * a) ** 3
        * (61 * a**2 - 20 * a - 5)
    )
    return num / den


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

    def test_branch_labels_flip_at_threshold(self):
        a_minus = Fraction(533907, 1000000)  # just below (2+sqrt(15))/11
        a_plus = Fraction(533908, 1000000)   # just above
        assert h3_bound_sl_alpha(a_minus).case_label == "sl-h3-case1"
        assert h3_bound_sl_alpha(a_plus).case_label == "sl-h3-case3"

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


def _h3_is_printed_form(alpha):
    rep = h3_bound_sl_alpha(alpha)
    if sl_threshold_sign(alpha) <= 0:
        assert (rep.value, rep.case_label) == (_printed_h3_case1(alpha), "sl-h3-case1")
    else:
        assert (rep.value, rep.case_label) == (_printed_h3_case3(alpha), "sl-h3-case3")


def _h2_case1_is_second_hankel(alpha):
    general = second_hankel(alpha_class_params(alpha), PhiCoeffs.from_counterpart(*PSI_COEFFS))
    assert (general.case_label == "case1") == (sl_threshold_sign(alpha) <= 0)
    if general.case_label == "case1":
        assert h2_bound_sl(alpha).value == general.value


def _a3_is_fekete_szego_at_zero(alpha):
    assert a3_bound_sl(alpha).value == fekete_szego_sl(alpha, 0).value


def _a2_is_c1_over_u(alpha):
    assert a2_bound_sl(alpha).value == abs(PSI_COEFFS[0]) / alpha_class_params(alpha).u


DERIVATIONS = [
    _h3_is_printed_form,
    _h2_case1_is_second_hankel,
    _a3_is_fekete_szego_at_zero,
    _a2_is_c1_over_u,
]
# a grid, and the two sides of the branch point (2 + sqrt 15)/11 = 0.5339079...
DERIVATION_ALPHAS = [Fraction(j, 100) for j in range(101)] + [
    Fraction(533907, 10**6),
    Fraction(533908, 10**6),
]


class TestDerivedTable:
    """Table entries equal, in exact Fractions, the closed forms they derive from."""

    @pytest.mark.parametrize("check", DERIVATIONS)
    def test_on_grid_and_at_branch_point(self, check):
        for alpha in DERIVATION_ALPHAS:
            check(alpha)

    @pytest.mark.parametrize("check", DERIVATIONS)
    @given(alpha=RATIONAL_ALPHAS)
    @settings(max_examples=40, deadline=None)
    def test_at_drawn_rational(self, check, alpha):
        check(alpha)


class TestBoundsDominateFunctionals:
    @given(
        alpha=RATIONAL_ALPHAS,
        p1=st.floats(0.0, 2.0),
        x=DISK_POINTS,
        y=DISK_POINTS,
        t=st.floats(-4.0, 4.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_bound_at_least_functional(self, alpha, p1, x, y, t):
        # admissible Caratheodory data (p1 real by rotation) give a member of
        # the class; each bound must hold for it, up to rounding
        a2, a3, a4 = _lz_coefficients(alpha_class_params(float(alpha)), PSI_COEFFS, p1, x, y)
        params = alpha_class_params(alpha)
        pairs = [
            (a2 * a4 - a3**2, second_hankel(params, B_PSI)),
            (a3 - t * a2**2, fekete_szego(params, PSI_COEFFS, Fraction(t))),
            (a2, a2_bound_sl(alpha)),
            (a3, a3_bound_sl(alpha)),
            (a4, a4_bound_sl(alpha)),
        ]
        for functional, bound in pairs:
            assert abs(functional) <= float(bound.value) + 1e-12, bound.case_label
