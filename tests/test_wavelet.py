import math

import numpy as np
import pytest

from loopwave import (
    FilterSystem,
    LaurentPoly,
    base_system,
    cascade,
    check_intertwine,
    complete,
    daubechies4_system,
    haar_system,
    orthonormality_check,
    stretched_box_lowpass,
    synthesize_W,
    wavelets,
)
from loopwave.wavelet import refinement_residual, shift_down

from conftest import seeded_lowpass_system
from helpers import dense_intertwine_residual

ROOT2 = math.sqrt(2.0)


def box_samples(level, support_cells):
    out = np.zeros(support_cells * 2**level + 1)
    out[: 2**level] = 1.0
    return out


class TestCascade:
    @pytest.mark.parametrize("level", [1, 2, 6])
    def test_haar_fixed_point_is_box(self, haar, level):
        phi = cascade(haar.filters[0], 2, level)
        assert phi.seed == "box"
        assert np.max(np.abs(phi.values - box_samples(level, 1))) == 0.0
        assert phi.deltas == (0.0,) * level
        assert phi.converged
        assert phi.integral == pytest.approx(1.0, abs=1e-15)
        assert phi.support == (0.0, 1.0)

    def test_stretched_box_scale3(self):
        phi = cascade(stretched_box_lowpass(3), 3, 4)
        expected = np.zeros(3**4 + 1)
        expected[: 3**4] = 1.0
        assert phi.seed == "box"
        assert np.max(np.abs(phi.values - expected)) == 0.0

    def test_spread_box_comb_not_converged(self):
        # (1 + z^3)/2 refines phi = 1/3 on [0, 3); T has eigenvalue 1 twice,
        # so the box seed is used, and its iterates are a comb of unit cells
        # that never approach phi: each must differ from the one before.
        phi = cascade(LaurentPoly(0, (0.5, 0.0, 0.0, 0.5)), 2, 10)
        assert phi.seed == "box"
        assert min(phi.deltas) >= 0.5
        assert not phi.converged

    def test_d4_support_integral(self, d4):
        phi = cascade(d4.filters[0], 2, 10)
        assert phi.seed == "point"
        assert phi.support == (0.0, 3.0)
        assert len(phi.values) == 3 * 2**10 + 1
        assert phi.integral == pytest.approx(1.0, abs=1e-3)

    def test_shift_recorded(self, haar):
        shifted = haar.filters[0] * LaurentPoly.monomial(2)
        phi = cascade(shifted, 2, 3)
        assert phi.shift == 2
        reference = cascade(haar.filters[0], 2, 3)
        assert np.array_equal(phi.values, reference.values)

    def test_level_zero_is_seed(self, d4):
        # the point seed: the integer values of the 4-tap scaling function
        phi = cascade(d4.filters[0], 2, 0)
        root3 = math.sqrt(3.0)
        expected = np.array([0.0, (1 + root3) / 2, (1 - root3) / 2, 0.0])
        assert phi.seed == "point"
        assert np.max(np.abs(phi.values - expected)) <= 1e-12
        assert not phi.converged

    def test_preconditions(self):
        with pytest.raises(ValueError):
            cascade(LaurentPoly.one(), 2, 3)  # fails scalar QMF
        with pytest.raises(ValueError):
            cascade(LaurentPoly.monomial(0, 1 / ROOT2), 2, 3)  # fails low-pass

    @pytest.mark.parametrize("level", [4, 7])
    def test_refinement_consistency(self, d4, level):
        phi = cascade(d4.filters[0], 2, level)
        bound = 2 * sum(abs(c) for c in d4.filters[0].coeffs) * phi.last_delta
        assert refinement_residual(phi) <= bound + 1e-12

    def test_refinement_exact_for_haar(self, haar):
        phi = cascade(haar.filters[0], 2, 5)
        assert refinement_residual(phi) == 0.0


class TestWavelets:
    def test_haar_wavelet(self, haar):
        phi = cascade(haar.filters[0], 2, 4)
        psi = wavelets(haar, phi)
        half = 2**4
        expected = np.concatenate([np.ones(half), -np.ones(half), [0.0]])
        assert np.max(np.abs(psi.values[0] - expected)) == 0.0
        assert psi.level == 5
        assert psi.start_index == 0
        assert psi.orthonormal_case

    def test_d4_generator_norm(self, d4):
        phi = cascade(d4.filters[0], 2, 10)
        psi = wavelets(d4, phi)
        norm = math.sqrt(float(np.sum(np.abs(psi.values[0]) ** 2)) * psi.step)
        assert norm == pytest.approx(1.0, abs=1e-2)
        assert psi.grid()[0] >= 0.0 and psi.grid()[-1] <= 3.0

    def test_degenerate_base_monomials_flagged(self, haar):
        # formula still applies with a foreign scaling function; flagged as
        # not an orthonormal wavelet case
        phi = cascade(haar.filters[0], 2, 3)
        psi = wavelets(base_system(2), phi)
        assert not psi.orthonormal_case
        assert psi.values.shape[0] == 1
        # psi_1(x) = 2 * (1/sqrt2) phi(2x - 1) = sqrt2 on [1/2, 1)
        assert psi.start_index == 2**3
        expected = np.concatenate([ROOT2 * np.ones(2**3), [0.0]])
        assert np.max(np.abs(psi.values[0] - expected)) <= 1e-12

    def test_scale_mismatch_rejected(self, haar):
        phi = cascade(stretched_box_lowpass(3), 3, 2)
        with pytest.raises(ValueError):
            wavelets(haar, phi)


class TestSynthesizeW:
    def test_delta_reproduces_phi(self, haar):
        phi = cascade(haar.filters[0], 2, 5)
        w = synthesize_W({0: 1.0}, phi)
        assert w.start_index == 0
        assert np.array_equal(w.values, phi.values)

    def test_two_deltas_make_wide_box(self, haar):
        phi = cascade(haar.filters[0], 2, 4)
        w = synthesize_W({0: 1.0, 1: 1.0}, phi)
        expected = np.zeros(2 * 2**4 + 1)
        expected[: 2 * 2**4] = 1.0
        assert np.max(np.abs(w.values - expected)) == 0.0

    def test_linearity(self, d4):
        rng = np.random.default_rng(2)
        phi = cascade(d4.filters[0], 2, 5)
        xi = {int(k): complex(rng.standard_normal()) for k in range(-2, 3)}
        eta = {int(k): complex(rng.standard_normal()) for k in range(0, 4)}
        combo = {k: 2.0 * xi.get(k, 0) + 3.0 * eta.get(k, 0) for k in set(xi) | set(eta)}
        w = synthesize_W(combo, phi)
        wx = synthesize_W(xi, phi)
        we = synthesize_W(eta, phi)
        grid = {q: v for q, v in zip(range(w.start_index, w.start_index + len(w.values)), w.values)}
        for part, scale in ((wx, 2.0), (we, 3.0)):
            for q, v in zip(range(part.start_index, part.start_index + len(part.values)), part.values):
                grid[q] = grid.get(q, 0.0) - scale * v
        assert max(abs(v) for v in grid.values()) <= 1e-12

    def test_empty_sequence(self, haar):
        phi = cascade(haar.filters[0], 2, 3)
        w = synthesize_W({}, phi)
        assert not w.values.any()


class TestIntertwine:
    def test_haar_delta(self, haar):
        phi = cascade(haar.filters[0], 2, 6)
        assert check_intertwine(haar, phi, {0: 1.0}) <= 1e-12

    def test_haar_delta_values_by_hand(self, haar):
        # both sides are (1/sqrt2) * indicator of [0, 2)
        phi = cascade(haar.filters[0], 2, 4)
        eta = shift_down(haar, {0: 1.0})
        assert eta == {0: pytest.approx(1 / ROOT2), 1: pytest.approx(1 / ROOT2)}
        rhs = synthesize_W(eta, phi)
        expected = np.zeros(len(rhs.values))
        expected[: 2 * 2**4] = 1 / ROOT2
        assert np.max(np.abs(rhs.values - expected)) <= 1e-12

    def test_zero_sequence(self, haar):
        phi = cascade(haar.filters[0], 2, 4)
        assert check_intertwine(haar, phi, {}) == 0.0

    def test_haar_random_sequences(self, haar):
        rng = np.random.default_rng(3)
        phi = cascade(haar.filters[0], 2, 6)
        for _ in range(5):
            xi = {int(k): complex(rng.standard_normal()) for k in range(-4, 5)}
            assert check_intertwine(haar, phi, xi) <= 1e-12

    def test_d4_residual_tracks_cascade_convergence(self, d4):
        rng = np.random.default_rng(4)
        xi = {int(k): complex(rng.standard_normal()) for k in range(-2, 3)}
        residuals = []
        for level in (6, 9, 12):
            phi = cascade(d4.filters[0], 2, level)
            assert phi.seed == "point"
            res = check_intertwine(d4, phi, xi)
            scale = math.sqrt(2) * sum(abs(complex(v)) for v in xi.values())
            # point-seeded increments are rounding-level (possibly exactly 0),
            # so the increment bound gets a rounding floor
            bound = 2 * sum(abs(c) for c in d4.filters[0].coeffs) * phi.last_delta
            assert res <= scale * max(bound, 1e-12)
            assert res <= 1e-12 * scale
            residuals.append(res)
        print(f"d4 intertwine residuals at levels 6/9/12: {residuals}")


def _spread_box_system():
    m0 = LaurentPoly(0, (0.5, 0.0, 0.0, 0.5))
    return complete(m0, 2)


INTERTWINE_CASES = {
    "haar": (haar_system, 6, "box", True),
    "d4": (daubechies4_system, 12, "point", True),
    "N=3 low-pass": (lambda: seeded_lowpass_system(3, 2, 4), 6, "point", True),
    "(1+z^3)/2": (_spread_box_system, 8, "box", False),
}


@pytest.mark.parametrize("case", INTERTWINE_CASES)
def test_intertwine_matches_full_grid_synthesis(case):
    make, level, seed, converged = INTERTWINE_CASES[case]
    system = make()
    phi = cascade(system.filters[0], system.n, level)
    assert phi.seed == seed and phi.converged == converged
    rng = np.random.default_rng(5)
    sequences = [
        {0: 1.0},
        {-2: 1j, 4: 0.5},
        {k: complex(rng.standard_normal(), rng.standard_normal()) for k in range(-3, 4)},
    ]
    for xi in sequences:
        assert abs(check_intertwine(system, phi, xi) - dense_intertwine_residual(system, phi, xi)) <= 1e-14


class TestOrthonormality:
    def test_haar_exact(self, haar):
        phi = cascade(haar.filters[0], 2, 6)
        assert orthonormality_check(phi, 4) <= 1e-14

    def test_stretched_box_exact(self):
        phi = cascade(stretched_box_lowpass(3), 3, 4)
        assert orthonormality_check(phi, 3) <= 1e-14

    def test_d4(self, d4):
        phi = cascade(d4.filters[0], 2, 10)
        assert orthonormality_check(phi, 4) <= 1e-3
