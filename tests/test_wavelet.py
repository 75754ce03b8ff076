import dataclasses
import hashlib
import inspect
import math
import tracemalloc

import numpy as np
import pytest

import loopwave
from loopwave import (
    FilterSystem,
    GridFunction,
    LaurentPoly,
    ScalingFunctionSamples,
    WaveletSamples,
    base_system,
    cascade,
    certify,
    check_intertwine,
    complete,
    daubechies4_system,
    haar_system,
    orthonormality_check,
    stretched_box_lowpass,
    synthesize_W,
    wavelets,
)
from loopwave import wavelet
from loopwave.wavelet import refinement_residual

from conftest import seeded_lowpass_system
from helpers import (
    complex_cascade,
    complex_defect,
    complex_intertwine_residual,
    complex_synthesis,
    complex_translate_sum,
    complex_wavelets,
    dense_intertwine_residual,
    gather_refinement_residual,
    loop_cascade,
    loop_synthesis,
    loop_wavelets,
)

ROOT2 = math.sqrt(2.0)


def box_samples(level, support_cells):
    out = np.zeros(support_cells * 2**level + 1)
    out[: 2**level] = 1.0
    return out


def _zero_generator_system() -> FilterSystem:
    """Haar's m_0 beside a zero generator, marked verified without a certificate."""
    return FilterSystem(2, [LaurentPoly(0, (0.5, 0.5)), LaurentPoly.zero()], verified=True)


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
        # scalar residual 4 and m_0(1) = 1: passes at tol 10, and sup |phi| passes 1e6 at iteration 10
        with pytest.raises(ValueError, match="diverged"):
            cascade(LaurentPoly(0, (-0.5, 2, -0.5)), 2, 12, tol=10)

    @pytest.mark.parametrize(
        "call, match",
        [
            (lambda: cascade(LaurentPoly(0, (0.5, 0.5)), 2, -1), "^level must be >= 0$"),
            (lambda: refinement_residual(cascade(LaurentPoly(0, (0.5, 0.5)), 2, 0)), "^refinement residual needs at least one cascade level$"),
            (lambda: wavelets(FilterSystem(2, haar_system().filters), cascade(LaurentPoly(0, (0.5, 0.5)), 2, 3)), "^wavelets require a verified filter system$"),
            (lambda: check_intertwine(haar_system(), cascade(stretched_box_lowpass(3), 3, 2), {0: 1.0}), "^grid incompatibility between system and samples$"),
            (lambda: check_intertwine(haar_system(), cascade(LaurentPoly(0, (0.5, 0.5)), 2, 0), {0: 1.0}), "^intertwining check needs at least one cascade level$"),
            (lambda: orthonormality_check(cascade(LaurentPoly(0, (0.5, 0.5)), 2, 3), -1), "^k_range must be >= 0$"),
            (lambda: wavelets(_zero_generator_system(), cascade(LaurentPoly(0, (0.5, 0.5)), 2, 3)), "^generator filters must be nonzero$"),
        ],
        ids=[
            "cascade level -1",
            "refinement at level 0",
            "wavelets unverified",
            "intertwine scales",
            "intertwine level 0",
            "k_range -1",
            "zero generator",
        ],
    )
    def test_refusals(self, call, match):
        with pytest.raises(ValueError, match=match):
            call()

    def test_samples_of_phi_alone_without_nonzero_generators(self):
        phi = cascade(LaurentPoly(0, (0.5, 0.5)), 2, 3)
        assert wavelet.cascade_samples(_zero_generator_system(), 3) == len(phi.values) == 9

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
        eta = {0: 1 / ROOT2, 1: 1 / ROOT2}  # S_0 delta_0
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


def _shifted(make, power):
    def build():
        system = make()
        return certify(FilterSystem(system.n, [f * LaurentPoly.monomial(power) for f in system.filters]))

    return build


def _n3_lowpass():
    return seeded_lowpass_system(3, 2, 4)


#: name -> (system, filter that phi is cascaded from (None: the system's
#: own m_0), level, seed, converged)
INTERTWINE_CASES = {
    "haar": (haar_system, None, 6, "box", True),
    "d4": (daubechies4_system, None, 12, "point", True),
    "N=3 low-pass": (_n3_lowpass, None, 6, "point", True),
    "(1+z^3)/2": (_spread_box_system, None, 8, "box", False),
    # a nonzero valuation shifts the defect buffer
    "d4 z^-3": (_shifted(daubechies4_system, -3), None, 10, "point", True),
    "N=3 low-pass z^2": (_shifted(_n3_lowpass, 2), None, 6, "point", True),
    # phi refined from another filter of the same scale: O(1) residual
    "d4 phi, haar system": (haar_system, daubechies4_system, 10, "point", True),
    "N=3 phi, other N=3 system": (_n3_lowpass, lambda: seeded_lowpass_system(3, 1, 9), 6, "point", True),
}


@pytest.mark.parametrize("case", INTERTWINE_CASES)
def test_intertwine_matches_full_grid_synthesis(case):
    make, make_source, level, seed, converged = INTERTWINE_CASES[case]
    system = make()
    source = system if make_source is None else make_source()
    phi = cascade(source.filters[0], system.n, level)
    assert phi.seed == seed and phi.converged == converged
    rng = np.random.default_rng(5)
    sequences = [
        {0: 1.0},
        {-2: 1j, 4: 0.5},
        {k: complex(rng.standard_normal(), rng.standard_normal()) for k in range(-3, 4)},
    ]
    for xi in sequences:
        residual = check_intertwine(system, phi, xi)
        assert abs(residual - dense_intertwine_residual(system, phi, xi)) <= 1e-14
        if make_source is not None:
            assert residual >= 1e-2


def _box3_system():
    w = np.exp(2j * np.pi / 3)
    return certify(FilterSystem(3, [LaurentPoly(0, tuple(w ** (i * j) / 3 for j in range(3))) for i in range(3)]))


def _complex_generator_system():
    return certify(FilterSystem(2, [LaurentPoly(0, (0.5, 0.5)), LaurentPoly(0, (0.5j, -0.5j))]))


def _generators_shifted(make):
    """make()'s system with generator i moved by z^(N (i - 1)) after the
    first, z^-N for the first: every generator row has its own valuation."""

    def build():
        system = make()
        n, (m0, *gens) = system.n, system.filters
        powers = [-n] + [n * i for i in range(1, len(gens))]
        return certify(FilterSystem(n, [m0] + [g * LaurentPoly.monomial(p) for g, p in zip(gens, powers)]))

    return build


def _hadamard4_system():
    h = np.array([[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]]) / 4
    return certify(FilterSystem(4, [LaurentPoly(0, tuple(row)) for row in h]))


#: name -> (system, deepest level, seed) for the per-term loop oracles
ORACLE_SYSTEMS = {
    "haar": (haar_system, 8, "box"),
    "d4": (daubechies4_system, 16, "point"),  # several 2^15-sample blocks
    "N=3 box": (_box3_system, 4, "box"),
    "(1+z^3)/2": (_spread_box_system, 8, "box"),
    "N=3 low-pass": (_n3_lowpass, 5, "point"),
    "N=4 low-pass": (lambda: seeded_lowpass_system(4, 2, 7), 4, "point"),
    "complex generator": (_complex_generator_system, 6, "box"),
    "d4 z^-3": (_shifted(daubechies4_system, -3), 8, "point"),
}


@pytest.mark.parametrize("case", ORACLE_SYSTEMS)
class TestLoopOracles:
    """Bit-for-bit agreement with the per-term loops in tests/helpers.py."""

    def test_cascade_values_and_deltas(self, case):
        make, level, seed = ORACLE_SYSTEMS[case]
        system = make()
        m0, n = system.filters[0], system.n
        start = cascade(m0, n, 0)
        assert start.seed == seed
        iterates, deltas = loop_cascade(m0, n, start.values, seed == "point", level)
        for t in range(1, level + 1):
            phi = cascade(m0, n, t)
            assert phi.seed == seed
            assert np.array_equal(phi.values, iterates[t - 1])
            assert phi.deltas == deltas[:t]

    def test_refinement_residual(self, case):
        make, level, _ = ORACLE_SYSTEMS[case]
        system = make()
        for t in range(1, level + 1):
            phi = cascade(system.filters[0], system.n, t)
            assert refinement_residual(phi) == gather_refinement_residual(phi)

    def test_wavelets(self, case):
        make, level, _ = ORACLE_SYSTEMS[case]
        system = make()
        phi = cascade(system.filters[0], system.n, level)
        psi = wavelets(system, phi)
        start, values = loop_wavelets(system, phi)
        assert psi.start_index == start
        assert np.array_equal(psi.values, values)

    def test_synthesize_W(self, case):
        make, level, _ = ORACLE_SYSTEMS[case]
        system = make()
        phi = cascade(system.filters[0], system.n, level)
        xi = {-5: 0.3, -1: 2.0 - 1j, 2: 0.0, 6: 1e-3j}  # gaps, negative keys
        w = synthesize_W(xi, phi)
        start, values = loop_synthesis(xi, phi)
        assert w.start_index == start
        assert np.array_equal(w.values, values)


@pytest.mark.parametrize("case, level", [("N=3 low-pass", 9), ("N=4 low-pass", 8), ("N=3 box", 10), ("(1+z^3)/2", 16)])
def test_increments_across_blocks(case, level):
    # cascade takes the sup and the increment block by block, and with N = 3
    # a block need not start at a coarse point
    make, _, seed = ORACLE_SYSTEMS[case]
    system = make()
    m0, n = system.filters[0], system.n
    phi = cascade(m0, n, level)
    assert len(phi.values) > 3 * wavelet._BLOCK
    iterates, deltas = loop_cascade(m0, n, cascade(m0, n, 0).values, seed == "point", level)
    assert phi.deltas == deltas and np.array_equal(phi.values, iterates[-1])


#: name -> (system, levels) for the complex-arithmetic oracles; the deepest
#: level of each gives outputs longer than one summing block.
COMPLEX_ORACLE_SYSTEMS = {
    "haar": (haar_system, [1, 4, 16]),
    "d4": (daubechies4_system, [1, 6, 14]),
    "N=3 box": (_box3_system, [1, 3, 9]),
    "(1+z^3)/2": (_spread_box_system, [1, 5, 13]),
    "N=3 low-pass": (_n3_lowpass, [1, 4, 9]),
    "N=4 low-pass": (lambda: seeded_lowpass_system(4, 2, 7), [1, 3, 7]),
    "complex generator": (_complex_generator_system, [1, 6, 15]),
    "d4 z^-3": (_shifted(daubechies4_system, -3), [2, 14]),
    # generator rows with their own valuations, the deepest level wider
    # than three summing blocks: real rows, then complex rows on a real phi
    "N=4 real box, generators shifted": (_generators_shifted(_hadamard4_system), [1, 7]),
    "N=3 box, generators shifted": (_generators_shifted(_box3_system), [1, 8]),
}

COMPLEX_ORACLE_XI = [
    {0: 1.0},
    {-1: 0.5, 2: -2.0},  # real weights
    {-2: 1j, 1: 0.25 - 0.5j, 3: 0.0},
]


@pytest.mark.parametrize("case", COMPLEX_ORACLE_SYSTEMS)
class TestComplexOracle:
    """Real taps on real samples sum in float64 and a complex weight on real
    samples sums its two parts apart; every public result must still have
    the bits of the same sums taken in complex arithmetic, as the oracles
    in tests/helpers.py take them."""

    def test_cascade(self, case):
        make, levels = COMPLEX_ORACLE_SYSTEMS[case]
        system = make()
        m0, n = system.filters[0], system.n
        seed = cascade(m0, n, 0).values
        iterates = complex_cascade(m0, n, seed, max(levels))
        for level in levels:
            phi = cascade(m0, n, level)
            assert phi.values.dtype == np.complex128 and not phi.values.flags.writeable
            assert np.array_equal(phi.values, iterates[level - 1])

    def test_wavelets_and_synthesis(self, case):
        make, levels = COMPLEX_ORACLE_SYSTEMS[case]
        system = make()
        for level in levels:
            phi = cascade(system.filters[0], system.n, level)
            psi = wavelets(system, phi)
            start, values = complex_wavelets(system, phi)
            assert psi.values.dtype == np.complex128
            assert psi.start_index == start and np.array_equal(psi.values, values)
            for xi in COMPLEX_ORACLE_XI:
                w = synthesize_W(xi, phi)
                start, values = complex_synthesis(xi, phi)
                assert w.values.dtype == np.complex128
                assert w.start_index == start and np.array_equal(w.values, values)

    def test_refinement_and_intertwining(self, case):
        make, levels = COMPLEX_ORACLE_SYSTEMS[case]
        system = make()
        for level in levels:
            phi = cascade(system.filters[0], system.n, level)
            assert refinement_residual(phi) == float(np.max(np.abs(complex_defect(phi, phi.lowpass))))
            for xi in COMPLEX_ORACLE_XI + [{}]:
                assert check_intertwine(system, phi, xi) == complex_intertwine_residual(system, phi, xi)

    def test_every_sample_written(self, case):
        # byte comparisons: no sample keeps what the memory held before
        make, levels = COMPLEX_ORACLE_SYSTEMS[case]
        system = make()
        m0, n = system.filters[0], system.n
        iterates = complex_cascade(m0, n, cascade(m0, n, 0).values, max(levels))
        for level in levels:
            phi = cascade(m0, n, level)
            assert phi.values.tobytes() == iterates[level - 1].tobytes()
            assert wavelets(system, phi).values.tobytes() == complex_wavelets(system, phi)[1].tobytes()
            for xi in COMPLEX_ORACLE_XI:
                assert synthesize_W(xi, phi).values.tobytes() == complex_synthesis(xi, phi)[1].tobytes()


def test_generator_rows_with_own_valuations_span_blocks():
    for case in ("N=4 real box, generators shifted", "N=3 box, generators shifted"):
        make, levels = COMPLEX_ORACLE_SYSTEMS[case]
        system = make()
        assert len({g.valuation for g in system.filters[1:]}) == system.n - 1
        psi = wavelets(system, cascade(system.filters[0], system.n, max(levels)))
        assert psi.values.shape[1] > 3 * wavelet._BLOCK


@pytest.mark.parametrize("length", [1, 7, wavelet._BLOCK - 1, wavelet._BLOCK, wavelet._BLOCK + 1, 3 * wavelet._BLOCK + 5])
@pytest.mark.parametrize("kind", ["real", "real samples, complex weights", "complex samples, real weights", "complex"])
def test_translate_sum_matches_complex_sum(length, kind):
    rng = np.random.default_rng(length)
    v = rng.standard_normal(max(1, length // 3))
    v[::5] = 0.0  # zero products, whose signs must not show
    weights = list(rng.standard_normal(4))
    if kind.startswith("complex samples") or kind == "complex":
        v = v + 1j * rng.standard_normal(len(v))
    if kind.endswith("complex weights") or kind == "complex":
        weights = [w + 1j * rng.standard_normal() for w in weights]
    weights[1] = 0.0
    starts = sorted(int(s) for s in rng.integers(0, length - len(v) + 1, size=4))
    out = np.empty(length, dtype=complex)
    wavelet._translate_sum(v, starts, weights, out)
    assert out.tobytes() == complex_translate_sum(v, starts, weights, length).tobytes()


def _translate_case(length, kind):
    """v, starts and weights as test_translate_sum_matches_complex_sum draws them."""
    rng = np.random.default_rng(length)
    v = rng.standard_normal(max(1, length // 3))
    v[::5] = 0.0
    weights = list(rng.standard_normal(4))
    if kind.startswith("complex samples") or kind == "complex":
        v = v + 1j * rng.standard_normal(len(v))
    if kind.endswith("complex weights") or kind == "complex":
        weights = [w + 1j * rng.standard_normal() for w in weights]
    weights[1] = 0.0
    return v, sorted(int(s) for s in rng.integers(0, length - len(v) + 1, size=4)), weights


@pytest.mark.parametrize("length", [1, 7, wavelet._BLOCK - 1, wavelet._BLOCK, wavelet._BLOCK + 1, 3 * wavelet._BLOCK + 5])
@pytest.mark.parametrize("kind", ["real", "real samples, complex weights", "complex samples, real weights", "complex"])
def test_translate_sum_writes_every_sample(length, kind):
    v, starts, weights = _translate_case(length, kind)
    expected = complex_translate_sum(v, starts, weights, length)
    out = np.full(length, np.nan, dtype=complex)
    assert wavelet._translate_sum(v, starts, weights, out).tobytes() == expected.tobytes()
    if kind == "real":
        out = np.full(length, np.nan)
        assert wavelet._translate_sum(v, starts, weights, out).tobytes() == expected.real.copy().tobytes()


def test_translate_sum_over_a_window():
    # translates that start before the window or end past it are clipped
    block = wavelet._BLOCK
    rng = np.random.default_rng(3)
    v = rng.standard_normal(block + 77)
    starts, weights = [0, 900, block // 2, 2 * block + 5], [0.5, -1.0j, 2.0, 0.25 + 1j]
    whole = complex_translate_sum(v, starts, weights)
    for lo, hi in [(0, 10), (500, block + 600), (block - 3, 3 * block + 82), (3 * block + 80, 3 * block + 82)]:
        out = np.full(hi - lo, np.nan, dtype=complex)
        wavelet._translate_sum(v, [s - lo for s in starts], weights, out)
        assert out.tobytes() == whole[lo:hi].tobytes()


def test_translate_sum_writes_blocks_no_translate_reaches():
    block = wavelet._BLOCK
    v = np.ones(block // 2)
    starts = [block // 4, 7 * block + block // 8, 7 * block + 3 * block // 8]
    out = np.full(9 * block, np.nan, dtype=complex)
    wavelet._translate_sum(v, starts, [1.0, 2.0, 3.0], out)
    assert out.tobytes() == complex_translate_sum(v, starts, [1.0, 2.0, 3.0], 9 * block).tobytes()


@pytest.mark.parametrize("level", [4, 14])
def test_intertwine_with_keys_far_apart(level):
    # The defect reaches a few lattice steps, so keys 10 apart do not
    # overlap, and keys 10^9 apart give the same residual without summing
    # the gap between them.
    system = daubechies4_system()
    phi = cascade(system.filters[0], 2, level)
    for weight in (1.0, 0.5 - 2j):
        near = check_intertwine(system, phi, {0: 1.0, 10: weight})
        assert check_intertwine(system, phi, {0: 1.0, 10**9: weight}) == near
        assert near == complex_intertwine_residual(system, phi, {0: 1.0, 10: weight})


class _NoImag(np.ndarray):
    """An array whose imaginary part must not be read."""

    @property
    def imag(self):
        raise AssertionError("imaginary part of a sample array read")


class _SealedNumpy:
    """numpy, except that np.empty hands out _NoImag arrays."""

    def __getattr__(self, name):
        return getattr(np, name)

    @staticmethod
    def empty(*args, **kwargs):
        return np.empty(*args, **kwargs).view(_NoImag)


#: name -> (system, level) of real filters whose samples the cascade records as real
REAL_RECORD_SYSTEMS = {"d4": (daubechies4_system, 12), "N=3 box": (_box3_system, 7)}


@pytest.mark.parametrize("case", REAL_RECORD_SYSTEMS)
class TestRealRecord:
    """cascade records that a real filter's samples are real, and the layer
    then sums their real parts without reading an imaginary part or
    keeping a float64 copy."""

    def _outputs(self, system, phi):
        xi = {-1: 0.5 - 1j, 0: 1.0, 2: 0.25j}
        return (
            phi.values.tobytes(),
            wavelets(system, phi).values.tobytes(),
            check_intertwine(system, phi, xi),
            refinement_residual(phi),
        )

    def test_no_imaginary_part_read(self, case, monkeypatch):
        make, level = REAL_RECORD_SYSTEMS[case]
        system = make()
        expected = self._outputs(system, cascade(system.filters[0], system.n, level))
        # every array the layer allocates raises when its imaginary part is read
        monkeypatch.setattr(wavelet, "np", _SealedNumpy())
        phi = cascade(system.filters[0], system.n, level)
        assert phi.real and isinstance(phi.values, _NoImag)
        assert self._outputs(system, phi) == expected

    def test_unrecorded_samples_match_complex_oracle(self, case):
        make, level = REAL_RECORD_SYSTEMS[case]
        system = make()
        recorded = cascade(system.filters[0], system.n, level)
        fields = {f.name: getattr(recorded, f.name) for f in dataclasses.fields(recorded) if f.init and f.name != "real"}
        phi = ScalingFunctionSamples(**fields)
        assert recorded.real and not phi.real
        assert wavelets(system, phi).values.tobytes() == complex_wavelets(system, phi)[1].tobytes()
        assert refinement_residual(phi) == float(np.max(np.abs(complex_defect(phi, phi.lowpass))))
        for xi in COMPLEX_ORACLE_XI:
            assert check_intertwine(system, phi, xi) == complex_intertwine_residual(system, phi, xi)
        assert self._outputs(system, phi) == self._outputs(system, recorded)


def test_cascade_keeps_no_float64_copy():
    # the float64 iterates live only inside the call: the result holds its
    # complex values and nothing of their size besides
    m0 = daubechies4_system().filters[0]
    cascade(m0, 2, 2)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        phi = cascade(m0, 2, 14)
        live = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert phi.real and live <= phi.values.nbytes + 64 * 1024
    assert [f.name for f in dataclasses.fields(phi) if isinstance(getattr(phi, f.name), np.ndarray)] == ["values"]


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


PUBLIC_NAMES = [
    "LaurentPoly",
    "MatrixLaurent",
    "FilterSystem",
    "Loop",
    "act",
    "base_system",
    "certify_loop",
    "filters_to_loop",
    "loop_to_filters",
    "random_paraunitary",
    "transition",
    "QmfReport",
    "SampledSystem",
    "certify",
    "complete",
    "low_pass_check",
    "verify_measure_invariance",
    "verify_qmf",
    "verify_scalar_qmf",
    "Band",
    "CuntzReport",
    "TruncatedRep",
    "adjoint_apply",
    "build_rep",
    "commutant_diagnostic",
    "reconstruct",
    "transition_operator_matrix",
    "verify_cuntz",
    "CornerWitness",
    "Verdict",
    "classify",
    "detect_corner",
    "equivalent",
    "graded_kernels",
    "GridFunction",
    "ScalingFunctionSamples",
    "WaveletSamples",
    "cascade",
    "check_intertwine",
    "orthonormality_check",
    "synthesize_W",
    "wavelets",
    "daubechies4_lowpass",
    "daubechies4_system",
    "haar_system",
    "stretched_box_lowpass",
    "__version__",
]

#: SHA-256 of "name(signature)" for every callable in PUBLIC_NAMES, one per
#: line: a dropped, renamed or re-defaulted parameter changes it.
SIGNATURES_SHA256 = "4c3bc0bef7d6b5bad2d11ca44d76c995d45be10b831bcb053f8ff56a401c25a5"


class TestPublicSurface:
    def test_package_names(self):
        assert loopwave.__all__ == PUBLIC_NAMES

    def test_signatures(self):
        objs = [(name, getattr(loopwave, name)) for name in PUBLIC_NAMES]
        lines = [f"{name}{inspect.signature(obj)}" for name, obj in objs if callable(obj)]
        assert len(lines) == len(PUBLIC_NAMES) - 1  # all but __version__
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == SIGNATURES_SHA256, "\n".join(lines)

    def test_sample_attributes(self, d4):
        phi = cascade(d4.filters[0], 2, 3)
        psi = wavelets(d4, phi)
        w = synthesize_W({-1: 1.0, 2: 0.5}, phi)
        for samples, level in ((phi, 3), (psi, 4), (w, 3)):
            assert (samples.n, samples.level, samples.step) == (2, level, 2.0**-level)
            grid = samples.grid()
            assert len(grid) == samples.values.shape[-1]
            assert grid[0] == samples.start_index * samples.step
        assert phi.start_index == 0
        assert w.start_index == -(2**3)
        assert phi.lowpass == d4.filters[0] and phi.filter_length == 4 and phi.shift == 0
        assert len(phi.deltas) == 3 and phi.seed == "point"
        assert phi.normalization.startswith("refinement phi(x)")
        assert phi.support == (0.0, 3.0)
        assert phi.integral == pytest.approx(1.0, abs=1e-12)
        assert phi.last_delta == phi.deltas[-1] and phi.converged
        assert psi.orthonormal_case

    def test_samples_compare_and_hash_by_identity(self, haar):
        phi = cascade(haar.filters[0], 2, 2)
        other = cascade(haar.filters[0], 2, 2)
        psi = wavelets(haar, phi)
        w = synthesize_W({0: 1.0}, phi)
        assert phi == phi and phi != other
        assert psi == psi and w == w and psi != w
        assert len({phi, other, psi, w}) == 4

    def test_keyword_construction(self, haar):
        values = np.ones(3, dtype=complex)
        phi = ScalingFunctionSamples(
            n=2, level=1, values=values, lowpass=haar.filters[0], filter_length=2, shift=0, deltas=(0.0,), seed="box"
        )
        assert phi.start_index == 0 and phi.integral == 1.5
        psi = WaveletSamples(n=2, level=2, start_index=-1, values=values[None, :], orthonormal_case=False)
        assert list(psi.grid()) == [-0.25, 0.0, 0.25]
        assert list(GridFunction(2, 1, 1, values).grid()) == [0.5, 1.0, 1.5]
