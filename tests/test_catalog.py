"""Catalog generators: coefficients vs an FFT Cauchy-integral oracle,
counterpart symmetry, classification flags, image membership."""

import cmath
import math
import re
from fractions import Fraction

import numpy as np
import pytest

from gft.catalog import (
    CATALOG_NAMES,
    MaMindaSpec,
    _half_binomial,
    classify,
    counterpart,
    in_psi_image,
    make_spec,
)

LOG2 = math.log(2.0)


def fft_coefficients(fn, count, radius=0.5, samples=256):
    """Maclaurin coefficients of fn by the Cauchy integral over |z| = radius."""
    zs = radius * np.exp(2j * np.pi * np.arange(samples) / samples)
    vals = np.array([fn(z) for z in zs])
    coeffs = np.fft.fft(vals) / samples
    return [coeffs[k] / radius**k for k in range(count)]


class TestMakeSpec:
    def test_psi_coefficients(self):
        psi = make_spec("psi")
        assert psi.coeff_exact(1) == Fraction(-1)
        assert psi.coeff_exact(2) == Fraction(1, 2)
        assert psi.coeff_exact(3) == Fraction(-1, 3)
        assert classify(psi).typically_real_shift is False

    def test_sqrt_one_plus_z(self):
        spec = make_spec("sqrt_1_plus_z")
        assert spec.coeff_exact(1) == Fraction(1, 2)
        assert spec.coeff_exact(2) == Fraction(-1, 8)
        oracle = fft_coefficients(spec.eval, 6)
        for k in range(6):
            assert abs(spec.coeff(k) - oracle[k]) < 1e-10

    def test_half_binomial_matches_product_recurrence(self):
        c = Fraction(1)  # binom(1/2, k), built term by term
        for k in range(301):
            assert type(_half_binomial(k)) is Fraction
            assert _half_binomial(k) == c, k
            c = c * (Fraction(1, 2) - k) / (k + 1)

    @pytest.mark.parametrize("name, slope", [("sqrt_1_plus_z", 1), ("sqrt_1_minus_z", -1)])
    def test_square_root_squares_to_linear(self, name, slope):
        s = make_spec(name).series(60, exact=True)
        assert s.mul(s, 60).coeffs == (1, slope) + (0,) * 59

    def test_cos_sqrt_z(self):
        spec = make_spec("cos_sqrt_z")
        assert spec.coeff_exact(1) == Fraction(-1, 2)
        assert spec.coeff_exact(2) == Fraction(1, 24)
        oracle = fft_coefficients(spec.eval, 6)
        for k in range(6):
            assert abs(spec.coeff(k) - oracle[k]) < 1e-10

    @pytest.mark.parametrize("name", CATALOG_NAMES)
    def test_all_entries_match_fft_oracle(self, name):
        spec = make_spec(name)
        oracle = fft_coefficients(spec.eval, 8)
        for k in range(8):
            assert abs(spec.coeff(k) - oracle[k]) < 1e-9, (name, k)

    def test_unknown_name_rejected(self):
        for _ in range(2):  # a failed lookup is not cached
            with pytest.raises(ValueError, match="unknown generator 'koebe'"):
                make_spec("koebe")

    @pytest.mark.parametrize("name", CATALOG_NAMES)
    def test_one_spec_per_name(self, name):
        assert make_spec(name) is make_spec(name)
        assert make_spec(name).name == name


class TestCounterpart:
    def test_psi_counterpart_coefficients(self):
        phi = counterpart(make_spec("psi"))
        assert phi.name == "one_minus_log_one_minus_z"
        assert phi.coeff_exact(1) == Fraction(1)
        assert phi.coeff_exact(2) == Fraction(1, 2)
        assert classify(phi).typically_real_shift is True

    @pytest.mark.parametrize("name", CATALOG_NAMES)
    def test_involution(self, name):
        spec = make_spec(name)
        twice = counterpart(counterpart(spec))
        for k in range(8):
            assert twice.coeff_exact(k) == spec.coeff_exact(k)

    @pytest.mark.parametrize("base", ["psi", "sqrt_1_plus_z", "cos_sqrt_z"])
    def test_mirror_coefficient_is_signed_base(self, base):
        spec = make_spec(base)
        for mirror in (counterpart(spec), make_spec(counterpart(spec).name)):
            for k in range(201):
                got, expected = mirror.coeff_exact(k), (-1) ** k * spec.coeff_exact(k)
                assert got == expected and type(got) is type(expected)

    def test_sqrt_pair(self):
        flipped = counterpart(make_spec("sqrt_1_minus_z"))
        target = make_spec("sqrt_1_plus_z")
        for k in range(8):
            assert flipped.coeff_exact(k) == target.coeff_exact(k)

    @pytest.mark.parametrize("name", CATALOG_NAMES)
    def test_pointwise_mirror_on_boundary(self, name):
        spec = make_spec(name)
        mirror = counterpart(spec)
        for j in range(256):
            z = 0.99 * cmath.exp(2j * math.pi * j / 256)
            assert abs(mirror.eval(z) - spec.eval(-z)) < 1e-12


class TestClassify:
    def test_psi_flags(self):
        record = classify(make_spec("psi"))
        assert record.typically_real_shift is False
        assert record.positive_real_part is True
        assert record.real_coefficients is True
        assert record.min_real_part > 0

    def test_mirrored_entry_is_typically_real_shift(self):
        record = classify(make_spec("one_minus_log_one_minus_z"))
        assert record.typically_real_shift is True

    def test_imaginary_coefficient_flagged(self):
        spec = MaMindaSpec(
            name="imaginary",
            coeff_exact=lambda k: 1 if k == 0 else (1j if k == 1 else 0),
            eval=lambda z: 1 + 1j * z,
        )
        record = classify(spec)
        assert record.real_coefficients is False

    def test_grid_size_validated(self):
        with pytest.raises(ValueError, match="grid_size must be at least 64"):
            classify(make_spec("psi"), grid_size=32)

    # 64.5 raised a TypeError from range, and True reported "must be at least 64"
    @pytest.mark.parametrize("grid_size", [64.5, 64.0, True, "64", None])
    def test_non_int_grid_size_rejected(self, grid_size):
        with pytest.raises(ValueError, match=re.escape(f"grid_size must be an int, got {grid_size!r}")):
            classify(make_spec("psi"), grid_size=grid_size)

    def test_numpy_int_grid_size_accepted(self):
        assert classify(make_spec("psi"), grid_size=np.int64(64)) == classify(make_spec("psi"), 64)

    @pytest.mark.parametrize("name", CATALOG_NAMES)
    @pytest.mark.parametrize("grid_size", [64, 100, 128, 255, 256, 1000])
    def test_min_real_part_is_the_point_by_point_scan(self, name, grid_size):
        # the reference builds each circle point afresh for every radius
        spec = make_spec(name)
        min_re = math.inf
        for r in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.99):
            for j in range(grid_size):
                theta = 2 * math.pi * j / grid_size
                w = spec.eval(r * cmath.exp(1j * theta))
                if w.real < min_re:
                    min_re = w.real
        assert repr(classify(spec, grid_size).min_real_part) == repr(min_re)


class TestPsiImage:
    def test_center(self):
        assert in_psi_image(1.0)

    def test_vertex_sides(self):
        vertex = 1 - LOG2
        assert in_psi_image(vertex + 1e-4)
        assert not in_psi_image(vertex - 1e-4)

    def test_interior_points_from_evaluation(self):
        psi = make_spec("psi")
        for j in range(100):
            z = 0.9 * cmath.exp(2j * math.pi * j / 100)
            assert in_psi_image(psi.eval(z))

    def test_interior_grid(self):
        psi = make_spec("psi")
        rng_radii = [0.999 * (k + 1) / 32 for k in range(32)]
        count = 0
        for r in rng_radii:
            for j in range(32):
                z = r * cmath.exp(2j * math.pi * j / 32)
                assert in_psi_image(psi.eval(z)), (r, j)
                count += 1
        assert count == 1024

    def test_boundary_identity(self):
        psi = make_spec("psi")
        for j in range(1, 256):  # skip theta = 0 companion of theta = pi singularity
            theta = -math.pi + 2 * math.pi * (j + 0.5) / 256
            w = psi.eval(cmath.exp(1j * theta))
            assert abs(abs(cmath.exp(1 - w) - 1) - 1.0) < 1e-10


class TestEvalCoefficientConsistency:
    @pytest.mark.parametrize("name", CATALOG_NAMES)
    def test_partial_sums_match_eval(self, name):
        spec = make_spec(name)
        series = spec.series(40)
        for j in range(16):
            z = 0.5 * cmath.exp(2j * math.pi * j / 16)
            assert abs(series(z) - spec.eval(z)) < 1e-8
