import math

import numpy as np
import pytest

from helpers import (
    coefficient_fibers,
    coefficient_grid,
    grid_eval,
    poly_eval,
    sampled_loop_from_filters,
    sampled_transition,
)
from loopwave import (
    FilterSystem,
    LaurentPoly,
    MatrixLaurent,
    act,
    base_system,
    certify_loop,
    filters_to_loop,
    loop_to_filters,
    random_paraunitary,
    transition,
)
from loopwave.laurent import stack
from loopwave.loopgroup import Loop, decimate

ROOT2 = math.sqrt(2.0)


def dft2_loop():
    return certify_loop(MatrixLaurent.from_constant(np.array([[1, 1], [1, -1]]) / ROOT2))


class TestBijectionAnchors:
    def test_identity_loop_gives_base_monomials(self):
        loop = certify_loop(MatrixLaurent.identity(2))
        system = loop_to_filters(loop)
        assert system.filters[0] == LaurentPoly.monomial(0, 1 / ROOT2)
        assert system.filters[1] == LaurentPoly.monomial(1, 1 / ROOT2)

    def test_haar_loop_to_filters(self, haar):
        system = loop_to_filters(dft2_loop())
        assert system.distance(haar) <= 1e-15

    def test_haar_filters_to_loop(self, haar):
        loop = filters_to_loop(haar)
        assert loop.certified
        assert loop.mat.distance(dft2_loop().mat) <= 1e-15

    def test_monomial_diag_both_ways(self):
        diag = certify_loop(MatrixLaurent.diag([LaurentPoly.one(), LaurentPoly.monomial(1)]))
        system = loop_to_filters(diag)
        assert system.filters[0] == LaurentPoly.monomial(0, 1 / ROOT2)
        assert system.filters[1] == LaurentPoly.monomial(3, 1 / ROOT2)
        back = filters_to_loop(system)
        assert back.mat.distance(diag.mat) <= 1e-15

    def test_base_systems_map_to_identity(self):
        for n in (2, 3, 4):
            loop = filters_to_loop(base_system(n))
            assert loop.mat.distance(MatrixLaurent.identity(n)) == 0.0

    def test_negative_exponent_loop_round_trips(self):
        neg = certify_loop(MatrixLaurent.diag([LaurentPoly.monomial(-1), LaurentPoly.one()]))
        system = loop_to_filters(neg)
        assert system.filters[0] == LaurentPoly.monomial(-2, 1 / ROOT2)
        assert system.filters[1] == LaurentPoly.monomial(1, 1 / ROOT2)
        assert filters_to_loop(system).mat.distance(neg.mat) == 0.0


class TestRoundTrips:
    @pytest.mark.parametrize("seed", range(12))
    def test_loop_round_trip(self, seed):
        n = 2 + seed % 2
        loop = random_paraunitary(n, seed % 4, seed)
        back = filters_to_loop(loop_to_filters(loop))
        assert back.certified
        assert back.mat.distance(loop.mat) <= 1e-12

    @pytest.mark.parametrize("seed", range(8))
    def test_filter_round_trip(self, seed):
        system = loop_to_filters(random_paraunitary(3, 2, seed))
        again = loop_to_filters(filters_to_loop(system))
        assert again.distance(system) <= 1e-12

    def test_verified_iff_paraunitary(self):
        # sqrt(2)-scaled Haar: not QMF, so the polyphase loop is uncertified
        bad = FilterSystem(2, [LaurentPoly(0, (0.5 * ROOT2, 0.5 * ROOT2)), LaurentPoly(0, (0.5 * ROOT2, -0.5 * ROOT2))])
        loop = filters_to_loop(bad)
        assert not loop.certified

    @pytest.mark.parametrize("seed", range(6))
    def test_sampled_fiber_sum_oracle(self, seed):
        # literal fiber sums at 64 circle points agree with the polyphase loop
        system = loop_to_filters(random_paraunitary(2 + seed % 2, 1 + seed % 3, seed))
        loop = filters_to_loop(system)
        for z in np.exp(2j * np.pi * np.arange(64) / 64):
            assert np.max(np.abs(loop.mat.eval(z) - sampled_loop_from_filters(system, z))) <= 1e-10


class TestAction:
    def test_identity_acts_trivially(self, haar):
        assert act(certify_loop(MatrixLaurent.identity(2)), haar).distance(haar) == 0.0

    @pytest.mark.parametrize("seed", range(8))
    def test_loop_acting_on_base_recovers_filters(self, seed):
        n = 2 + seed % 2
        loop = random_paraunitary(n, seed % 3, seed)
        assert act(loop, base_system(n)).distance(loop_to_filters(loop)) <= 1e-14

    @pytest.mark.parametrize("seed", range(6))
    def test_group_action_law(self, seed):
        n = 2 + seed % 2
        a = random_paraunitary(n, 1 + seed % 2, seed)
        b = random_paraunitary(n, 1 + (seed + 1) % 2, seed + 100)
        m = loop_to_filters(random_paraunitary(n, 1, seed + 200))
        ab = certify_loop(a.mat @ b.mat)
        assert act(a, act(b, m)).distance(act(ab, m)) <= 1e-12

    def test_act_preserves_verified(self, haar):
        out = act(dft2_loop(), haar)
        assert out.verified
        report_loop = filters_to_loop(out)
        assert report_loop.certified

    def test_size_mismatch_rejected(self, haar):
        with pytest.raises(ValueError):
            act(random_paraunitary(3, 1, 0), haar)


class TestTransition:
    @pytest.mark.parametrize("seed", range(6))
    def test_self_transition_is_identity(self, seed):
        n = 2 + seed % 2
        m = loop_to_filters(random_paraunitary(n, seed % 3, seed))
        t = transition(m, m)
        assert t.mat.distance(MatrixLaurent.identity(n)) <= 1e-12

    def test_haar_base_transitions_are_star_inverse(self, haar, base2):
        t_hb = transition(haar, base2)
        t_bh = transition(base2, haar)
        # both constant unitaries, mutually star-inverse
        assert all(t_hb.mat[i, j].degree <= 0 <= t_hb.mat[i, j].valuation or t_hb.mat[i, j].is_zero for i in range(2) for j in range(2))
        assert (t_hb.mat @ t_bh.mat).distance(MatrixLaurent.identity(2)) <= 1e-12
        assert t_bh.mat.distance(t_hb.mat.star()) <= 1e-12
        assert t_hb.mat.distance(dft2_loop().mat) <= 1e-12

    @pytest.mark.parametrize("seed", range(8))
    def test_transition_carries_source_to_target(self, seed):
        n = 2 + seed % 2
        m = loop_to_filters(random_paraunitary(n, seed % 3, seed))
        target = act(random_paraunitary(n, 1 + seed % 2, seed + 50), m)
        t = transition(target, m)
        assert t.certified
        assert act(t, m).distance(target) <= 1e-10

    @pytest.mark.parametrize("seed", range(4))
    def test_sampled_fiber_sum_oracle(self, seed):
        n = 2 + seed % 2
        m = loop_to_filters(random_paraunitary(n, 1, seed))
        target = act(random_paraunitary(n, 1, seed + 9), m)
        t = transition(target, m)
        for z in np.exp(2j * np.pi * np.arange(16) / 16):
            assert np.max(np.abs(t.mat.eval(z) - sampled_transition(target, m, z))) <= 1e-9

    def test_unverified_inputs_rejected(self, haar):
        unverified = FilterSystem(2, haar.filters)
        with pytest.raises(ValueError):
            transition(unverified, haar)
        with pytest.raises(ValueError):
            transition(haar, unverified)


class TestRandomParaunitary:
    def test_degree_zero_is_constant(self):
        loop = random_paraunitary(3, 0, seed=5)
        assert all(
            loop.mat[i, j].is_zero or (loop.mat[i, j].valuation == 0 == loop.mat[i, j].degree)
            for i in range(3)
            for j in range(3)
        )

    def test_deterministic_in_seed(self):
        a = random_paraunitary(3, 2, seed=123)
        b = random_paraunitary(3, 2, seed=123)
        assert a.mat.distance(b.mat) == 0.0

    @pytest.mark.parametrize("seed", range(25))
    def test_always_paraunitary(self, seed):
        loop = random_paraunitary(2 + seed % 3, seed % 4, seed)
        ok, residual = loop.mat.is_paraunitary(1e-10)
        assert ok, residual

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            random_paraunitary(2, -1, seed=0)


class TestGuards:
    def test_uncertified_loop_rejected(self):
        plain = Loop(MatrixLaurent.identity(2), certified=False)
        with pytest.raises(ValueError):
            loop_to_filters(plain)
        with pytest.raises(ValueError):
            act(plain, base_system(2))

    def test_certify_rejects_non_paraunitary(self):
        with pytest.raises(ValueError):
            certify_loop(MatrixLaurent.from_constant(np.diag([1.0, 2.0])))

    def test_filter_count_enforced(self):
        with pytest.raises(ValueError):
            FilterSystem(3, [LaurentPoly.one()] * 2)

    @pytest.mark.parametrize(
        "call, error, match",
        [
            (lambda: FilterSystem(1, [LaurentPoly.one()]), ValueError, "^scale must be >= 2, got 1$"),
            (lambda: FilterSystem(2, [LaurentPoly.one(), 1.0]), TypeError, "^filters must be LaurentPoly$"),
            (lambda: base_system(2).distance(base_system(3)), ValueError, "^scale mismatch$"),
        ],
        ids=["scale 1", "non-LaurentPoly filter", "distance across scales"],
    )
    def test_filter_system_refusals(self, call, error, match):
        with pytest.raises(error, match=match):
            call()

    def test_indexing_and_loop_distance(self):
        system = base_system(3)
        assert [system[i] for i in range(3)] == list(system.filters)
        a, b = dft2_loop(), certify_loop(MatrixLaurent.identity(2))
        assert a.distance(b) == a.mat.distance(b.mat) == pytest.approx(1 + 1 / ROOT2)  # at the entry (1, 1)


class TestPolyphaseProducts:
    """act and transition as polyphase products, against the literal fiber sums."""

    @pytest.mark.parametrize("n", [2, 3, 4, 8])
    def test_transition_matches_sampled_fiber_sum(self, n):
        target = loop_to_filters(random_paraunitary(n, 2, seed=n))
        source = loop_to_filters(random_paraunitary(n, 1, seed=n + 50))
        t = coefficient_grid(transition(target, source).mat)
        for z in np.exp(2j * np.pi * np.arange(9) / 9 + 0.1j):
            assert np.max(np.abs(grid_eval(t, z) - sampled_transition(target, source, z))) <= 1e-12

    @pytest.mark.parametrize("n", [2, 3, 4, 8])
    def test_act_is_undone_by_sampled_transition(self, n):
        loop = random_paraunitary(n, 2, seed=n + 7)
        source = loop_to_filters(random_paraunitary(n, 1, seed=n + 8))
        moved = act(loop, source)
        a = coefficient_grid(loop.mat)
        for z in np.exp(2j * np.pi * np.arange(9) / 9 + 0.2j):
            assert np.max(np.abs(sampled_transition(moved, source, z) - grid_eval(a, z))) <= 1e-12

    @pytest.mark.parametrize("n", [2, 3, 4, 8])
    def test_act_matches_its_definition(self, n):
        # n_i(z) = sum_j A_ij(z^N) m_j(z), evaluated point by point
        loop = random_paraunitary(n, 1, seed=n + 9)
        source = loop_to_filters(random_paraunitary(n, 2, seed=n + 10))
        moved = act(loop, source)
        a = coefficient_grid(loop.mat)
        for z in np.exp(2j * np.pi * np.arange(5) / 5 + 0.3j):
            expected = grid_eval(a, z**n) @ np.array([poly_eval(f, z) for f in source.filters])
            got = np.array([poly_eval(f, z) for f in moved.filters])
            assert np.max(np.abs(got - expected)) <= 1e-12


class TestDecimate:
    """decimate against the coefficient-by-coefficient fiber oracle."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_every_offset_residue(self, n):
        rng = np.random.default_rng(30 + n)
        for lo in range(-2 * n - 1, 2 * n + 1):
            polys = [
                LaurentPoly(lo, rng.standard_normal(int(rng.integers(1, 3 * n))) + 1j),
                LaurentPoly.zero(),
                LaurentPoly(lo + int(rng.integers(0, 2 * n)), rng.standard_normal(int(rng.integers(1, 2 * n)))),
            ]
            q0, d = decimate(*stack(polys), n)
            assert q0 == min(p.valuation for p in polys if not p.is_zero) // n
            assert d.shape[1:] == (3, n)
            oracle = coefficient_fibers(polys, n)
            assert all(0 <= q - q0 < len(d) for q, _, _ in oracle)
            for l in range(len(d)):
                for i in range(3):
                    for k in range(n):
                        assert d[l, i, k] == oracle.get((q0 + l, i, k), 0.0)
            assert max(q for q, _, _ in oracle) == q0 + len(d) - 1

    def test_no_lags(self):
        q0, d = decimate(*stack([LaurentPoly.zero()] * 2), 3)
        assert q0 == 0 and d.shape == (0, 2, 3)
        for lo in range(-4, 5):
            q0, d = decimate(lo, np.zeros((0, 2)), 3)
            assert q0 == 0 and d.shape == (0, 2, 3)
