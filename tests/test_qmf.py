import math

import numpy as np
import pytest

from loopwave import (
    FilterSystem,
    LaurentPoly,
    SampledSystem,
    base_system,
    certify,
    complete,
    daubechies4_lowpass,
    filters_to_loop,
    loop_to_filters,
    low_pass_check,
    random_paraunitary,
    verify_measure_invariance,
    verify_qmf,
    verify_scalar_qmf,
)
from loopwave.qmf import default_grid, fiber_representatives

from helpers import pointwise_completion, sampled_grid_residual

ROOT2 = math.sqrt(2.0)


class TestVerifyQmf:
    def test_haar_passes(self, haar):
        report = verify_qmf(haar)
        assert report.passed
        assert report.unitary_residual <= 1e-12
        assert report.scalar_residual <= 1e-12
        assert report.grid_residual <= 1e-12
        assert report.low_pass

    def test_base_monomials_pass_exactly(self):
        for n in (2, 3):
            report = verify_qmf(base_system(n), grid_size=16 * n)
            assert report.unitary_residual == 0.0
            assert report.scalar_residual <= 1e-15

    def test_scaled_haar_fails_with_scalar_excess(self):
        bad = FilterSystem(
            2,
            [LaurentPoly(0, (1 / ROOT2, 1 / ROOT2)), LaurentPoly(0, (1 / ROOT2, -1 / ROOT2))],
        )
        report = verify_qmf(bad)
        assert not report.passed
        # fiber norm is 2 instead of 1: autocorrelation at lag 0 is 1 = 1/N + 1/2
        assert report.scalar_residual == pytest.approx(0.5, abs=1e-12)

    def test_exact_and_grid_checks_agree(self):
        for seed in range(6):
            n = 2 + seed % 2
            system = loop_to_filters(random_paraunitary(n, seed % 3, seed))
            report = verify_qmf(system, grid_size=16 * n)
            assert report.passed
            assert report.grid_residual <= 10 * max(report.unitary_residual, 1e-12)

    def test_grid_size_must_be_multiple_of_n(self, haar):
        with pytest.raises(ValueError):
            verify_qmf(haar, grid_size=15)

    @pytest.mark.parametrize("n, grid", [(2, 256), (3, 258), (5, 260), (7, 259), (8, 256), (300, 300)])
    def test_default_grid_is_smallest_multiple_of_n_from_256(self, n, grid):
        assert default_grid(n) == grid

    def test_default_grid_for_scale_3(self):
        system = loop_to_filters(random_paraunitary(3, 2, 5))
        report = verify_qmf(system)
        assert report.passed and report.grid_residual <= 1e-12
        assert certify(system.with_verified(False)).verified
        with pytest.raises(ValueError, match="multiple of 3"):
            verify_qmf(system, grid_size=256)
        with pytest.raises(ValueError, match="multiple of 3"):
            certify(system, grid_size=256)

    def test_grid_completion_default_for_scale_3(self):
        sampled = complete(LaurentPoly(0, (1 / 3, 1 / 3, 1 / 3)), 3, mode="grid")
        assert len(sampled.base_points) == 258
        with pytest.raises(ValueError, match="multiple of 3"):
            complete(LaurentPoly(0, (1 / 3, 1 / 3, 1 / 3)), 3, mode="grid", grid_size=256)

    def test_certify_flags_or_raises(self, haar):
        assert certify(haar).verified
        bad = FilterSystem(2, [LaurentPoly.one(), LaurentPoly.one()])
        with pytest.raises(ValueError):
            certify(bad)


class TestScalarQmf:
    def test_haar(self, haar):
        assert verify_scalar_qmf(haar.filters[0], 2) == pytest.approx(0.0, abs=1e-15)

    def test_monomials(self):
        for n in (2, 3, 5):
            m0 = LaurentPoly.monomial(3, 1 / math.sqrt(n))
            assert verify_scalar_qmf(m0, n) <= 1e-15

    def test_d4_with_grid_oracle(self):
        m0 = daubechies4_lowpass()
        assert verify_scalar_qmf(m0, 2) <= 1e-12
        # independent oracle: |m0(z)|^2 + |m0(-z)|^2 on 256 circle points
        for z in np.exp(2j * np.pi * np.arange(256) / 256):
            assert abs(m0(z)) ** 2 + abs(m0(-z)) ** 2 == pytest.approx(1.0, abs=1e-12)

    def test_detects_violation(self):
        assert verify_scalar_qmf(LaurentPoly.one(), 2) == pytest.approx(0.5)


class TestLowPass:
    def test_haar(self, haar):
        assert low_pass_check(haar.filters[0])

    def test_d4_coefficients_sum_to_one(self):
        assert low_pass_check(daubechies4_lowpass())

    def test_pure_monomial_with_wrong_mass(self):
        assert not low_pass_check(LaurentPoly.monomial(1, 1 / ROOT2))


class TestFir2Completion:
    def test_haar(self, haar):
        system = complete(haar.filters[0], 2, mode="fir2")
        assert isinstance(system, FilterSystem)
        assert system.verified
        assert system.filters[1] == LaurentPoly(0, (0.5, -0.5))

    def test_constant_filter_gets_monomial_partner(self):
        system = complete(LaurentPoly.constant(1 / ROOT2), 2, mode="fir2")
        assert isinstance(system, FilterSystem)
        m1 = system.filters[1]
        assert m1.valuation == 1 and m1.degree == 1
        assert abs(abs(m1.coeff(1)) - 1 / ROOT2) <= 1e-12
        assert verify_qmf(system).unitary_residual <= 1e-12

    def test_d4(self):
        system = complete(daubechies4_lowpass(), 2, mode="fir2")
        assert isinstance(system, FilterSystem)
        report = verify_qmf(system)
        assert report.unitary_residual <= 1e-12
        assert len(system.filters[1].coeffs) == 4

    def test_shifted_input(self):
        m0 = LaurentPoly(-1, (0.5, 0.5))
        system = complete(m0, 2, mode="fir2")
        assert isinstance(system, FilterSystem)
        assert verify_qmf(system).unitary_residual <= 1e-12

    def test_scalar_violation_rejected(self):
        with pytest.raises(ValueError):
            complete(LaurentPoly.one(), 2, mode="fir2")

    def test_wrong_scale_rejected(self):
        with pytest.raises(ValueError):
            complete(LaurentPoly.monomial(0, 1 / math.sqrt(3)), 3, mode="fir2")


class TestGridCompletion:
    def test_random_scale3_filter(self):
        m0 = loop_to_filters(random_paraunitary(3, 2, seed=21)).filters[0]
        sampled = complete(m0, 3, mode="grid", grid_size=99)
        assert isinstance(sampled, SampledSystem)
        assert sampled.unitarity_residual <= 1e-10
        assert sampled.values.shape == (3, 99, 3)
        # row 0 reproduces m0 at the representatives
        for t in range(0, 99, 7):
            expected = [m0(w) for w in sampled.representatives[t]]
            assert np.max(np.abs(sampled.values[0, t] - expected)) <= 1e-12

    def test_deterministic(self):
        m0 = daubechies4_lowpass()
        a = complete(m0, 2, mode="grid", grid_size=64)
        b = complete(m0, 2, mode="grid", grid_size=64)
        assert isinstance(a, SampledSystem) and isinstance(b, SampledSystem)
        assert np.array_equal(a.values, b.values)

    def test_every_point_unitary(self):
        m0 = LaurentPoly(0, (0.25, 0.25, 0.25, 0.25))  # scale-4 averaging filter
        assert verify_scalar_qmf(m0, 4) <= 1e-12
        sampled = complete(m0, 4, mode="grid", grid_size=32)
        assert isinstance(sampled, SampledSystem)
        for t in range(32):
            m = sampled.values[:, t, :]
            assert np.max(np.abs(m @ m.conj().T - np.eye(4))) <= 1e-10

    def test_bad_grid_rejected(self):
        with pytest.raises(ValueError):
            complete(daubechies4_lowpass(), 2, mode="grid", grid_size=33)


class TestMeasureInvariance:
    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_transfer_identity(self, n):
        assert verify_measure_invariance(n, 12) <= 1e-12

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            verify_measure_invariance(1, 4)
        with pytest.raises(ValueError):
            verify_measure_invariance(2, 0)


class TestSections:
    def test_representatives_power_back_to_base(self):
        for n in (2, 3, 4):
            for z in np.exp(2j * np.pi * np.arange(16) / 16):
                reps = fiber_representatives(z, n)
                assert np.max(np.abs(reps**n - z)) <= 1e-12


class TestGridOracles:
    """The one-pass grid evaluation against per-point numpy oracles."""

    @pytest.mark.parametrize("n,degree", [(2, 3), (3, 2), (4, 4), (8, 1)])
    def test_grid_residual_matches_pointwise_fibers(self, n, degree):
        system = loop_to_filters(random_paraunitary(n, degree, seed=n + degree))
        grid = 8 * n
        report = verify_qmf(system, grid_size=grid)
        assert abs(report.grid_residual - sampled_grid_residual(system, grid)) <= 1e-14
        # a system that is not QMF: the grid check sees the same defect
        bent = FilterSystem(n, [system.filters[0] * 1.01] + list(system.filters[1:]))
        report = verify_qmf(bent, grid_size=grid)
        assert report.grid_residual == pytest.approx(sampled_grid_residual(bent, grid), rel=1e-12)
        assert report.grid_residual > 1e-3

    @pytest.mark.parametrize("n,grid", [(2, 64), (3, 99), (4, 32)])
    def test_grid_completion_matches_pointwise_oracle(self, n, grid):
        m0 = loop_to_filters(random_paraunitary(n, 2, seed=5)).filters[0]
        sampled = complete(m0, n, mode="grid", grid_size=grid)
        assert isinstance(sampled, SampledSystem)
        assert np.max(np.abs(sampled.values - pointwise_completion(m0, n, grid))) <= 1e-14
        reps = np.array([fiber_representatives(z, n) for z in sampled.base_points])
        assert np.max(np.abs(sampled.representatives - reps)) <= 1e-15

    def test_fiber_representatives_vectorized(self):
        base = np.exp(2j * np.pi * np.arange(12) / 12)
        stacked = fiber_representatives(base, 3)
        assert stacked.shape == (12, 3)
        for t, z in enumerate(base):
            assert np.max(np.abs(stacked[t] - fiber_representatives(z, 3))) <= 1e-15

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_scalar_residual_is_lag_n_autocorrelation(self, n):
        rng = np.random.default_rng(n)
        m0 = LaurentPoly(-2, rng.standard_normal(3 * n + 1) + 1j * rng.standard_normal(3 * n + 1))
        c = np.array(m0.coeffs)
        auto = np.correlate(c, c, mode="full")  # auto[len(c) - 1 + s] = sum_t c_(t+s) conj(c_t)
        lags = auto[len(c) - 1 :: n].copy()
        lags[0] -= 1.0 / n
        expected = max(np.max(np.abs(lags)), np.max(np.abs(auto[len(c) - 1 :: -n][1:])))
        assert verify_scalar_qmf(m0, n) == pytest.approx(expected, rel=1e-12)
