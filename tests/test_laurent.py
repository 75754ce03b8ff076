import math

import numpy as np
import pytest

from loopwave.laurent import TRIM_TOL, LaurentPoly, MatrixLaurent, horner, stack, unit_grid, unstack

from helpers import (
    coefficient_grid,
    convolved,
    grid_distance,
    grid_eval,
    grid_product,
    grid_star,
    numpy_horner,
    padded_sum,
    python_horner,
    reversed_conjugate,
    sampled_paraunitary_residual,
    strided,
)


def random_poly(rng, lo=-4, hi=4):
    offset = int(rng.integers(lo, hi))
    length = int(rng.integers(1, 6))
    coeffs = rng.standard_normal(length) + 1j * rng.standard_normal(length)
    return LaurentPoly(offset, coeffs)


half = LaurentPoly(0, (0.5, 0.5))  # (1+z)/2
half_minus = LaurentPoly(0, (0.5, -0.5))  # (1-z)/2


class TestArithmetic:
    def test_difference_of_squares(self):
        prod = half * half_minus
        assert prod == LaurentPoly(0, (0.25, 0.0, -0.25))

    def test_additive_identity(self):
        p = LaurentPoly(-2, (1.0, 2.0, 3.0))
        assert p + LaurentPoly.zero() == p

    def test_exponent_cancellation(self):
        assert LaurentPoly.monomial(-1) * LaurentPoly.monomial(1) == LaurentPoly.one()

    def test_mul_support_is_minkowski_sum(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            p, q = random_poly(rng), random_poly(rng)
            prod = p * q
            assert prod.valuation == p.valuation + q.valuation
            assert prod.degree == p.degree + q.degree

    def test_scalar_ops(self):
        p = LaurentPoly(1, (2.0, 4.0))
        assert p * 0.5 == LaurentPoly(1, (1.0, 2.0))
        assert p * np.int64(3) == p * 3 == p * np.float64(3)
        assert (p - p).is_zero
        assert p + 3 == 3 + p == LaurentPoly(0, (3.0, 2.0, 4.0))
        assert 3 - p == LaurentPoly(0, (3.0, -2.0, -4.0))
        assert 3 * p == LaurentPoly(1, (6.0, 12.0))

    @pytest.mark.parametrize(
        "p, text",
        [
            (LaurentPoly.zero(), "0"),
            (LaurentPoly.monomial(1), "(1)*z"),
            (LaurentPoly.monomial(-2, 0.5), "(0.5)*z^-2"),
            (LaurentPoly(0, (1.0, 1j)), "(1) + (0+1j)*z"),
        ],
        ids=["zero", "z", "z^k", "complex term"],
    )
    def test_str(self, p, text):
        assert str(p) == text


def edge_poly(rng):
    """A polynomial with an offset in [-6, 6] and 0 to 5 stored coefficients,
    whose end coefficients may lie at, just below or just above TRIM_TOL."""
    length = int(rng.integers(0, 6))
    coeffs = rng.standard_normal(length) + 1j * rng.standard_normal(length)
    for end in (0, -1):
        if length and rng.random() < 0.4:
            coeffs[end] = TRIM_TOL * rng.choice([0.5, 1.0, 1.5, 3.0]) * np.exp(2j * np.pi * rng.random())
    return LaurentPoly(int(rng.integers(-6, 7)), coeffs)


class TestAlgebraValues:
    """Sum, difference, product, adjoint and z -> z^n against numpy oracles
    on the stored coefficients: supports exactly, values within 1e-12."""

    @staticmethod
    def check(got: LaurentPoly, want: tuple[int, np.ndarray]) -> None:
        lo, c = want
        assert (got.offset, len(got.coeffs)) == (lo, len(c))
        assert np.abs(np.array(got.coeffs, dtype=complex) - c).max(initial=0.0) <= 1e-12

    def test_against_oracles(self):
        rng = np.random.default_rng(22)
        polys = [edge_poly(rng) for _ in range(60)] + [LaurentPoly.zero(), LaurentPoly.monomial(-3, 2j), LaurentPoly(5, (TRIM_TOL * 1.5,))]
        assert any(p.is_zero for p in polys) and any(len(p.coeffs) == 1 for p in polys)
        # q differs from p by TRIM_TOL-sized amounts, so p - q trims to a few coefficients or none
        near = [LaurentPoly(p.offset, np.array(p.coeffs) + TRIM_TOL * rng.choice([0.0, 0.5, 1.0, 2.0], len(p.coeffs))) for p in polys]
        pairs = [(p, q) for p in polys for q in polys[::7]] + list(zip(polys, near))
        for p, q in pairs:
            self.check(p + q, padded_sum(p, q))
            self.check(p - q, padded_sum(p, q, -1.0))
            self.check(p * q, convolved(p, q))
        for p in polys:
            self.check(p.star(), reversed_conjugate(p))
            for n in (2, 3, 5):
                self.check(p.compose_power(n), strided(p, n))


class TestStar:
    def test_star_of_z(self):
        assert LaurentPoly.monomial(1).star() == LaurentPoly.monomial(-1)

    def test_star_real_coefficients(self):
        assert half.star() == LaurentPoly(-1, (0.5, 0.5))

    def test_involution(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            p = random_poly(rng)
            assert p.star().star() == p

    def test_star_is_pointwise_conjugate(self):
        rng = np.random.default_rng(3)
        p = random_poly(rng)
        for z in unit_grid(7):
            assert p.star()(z) == pytest.approx(np.conj(p(z)), abs=1e-12)


class TestEval:
    def test_low_pass_values(self):
        assert half(1.0) == pytest.approx(1.0)
        assert half(-1.0) == pytest.approx(0.0)

    def test_cube_at_i(self):
        assert LaurentPoly.monomial(3)(1j) == pytest.approx(-1j)

    def test_rejects_off_circle(self):
        with pytest.raises(ValueError):
            half(0.5)
        with pytest.raises(ValueError):
            half(1.0 + 1e-6)

    def test_ring_homomorphism(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            p, q = random_poly(rng), random_poly(rng)
            z = np.exp(2j * np.pi * rng.random())
            assert (p * q)(z) == pytest.approx(p(z) * q(z), abs=1e-10)
            assert (p + q)(z) == pytest.approx(p(z) + q(z), abs=1e-10)


class TestStack:
    def test_round_trip_with_zeros_negative_offsets_and_disjoint_supports(self):
        polys = [
            LaurentPoly.zero(),
            LaurentPoly(-5, (1.0, 2j)),
            LaurentPoly.zero(),
            LaurentPoly(3, (0.5, 0.0, -1.5)),
            LaurentPoly(-1, (7.0,)),
        ]
        lo, c = stack(polys)
        assert lo == -5 and c.shape == (11, 5)
        for i, p in enumerate(polys):
            assert [c[l, i] for l in range(len(c))] == [p.coeff(lo + l) for l in range(len(c))]
        assert unstack(lo, c) == polys

    def test_random_round_trips(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            polys = [random_poly(rng, -9, 9) if rng.random() < 0.8 else LaurentPoly.zero() for _ in range(4)]
            assert unstack(*stack(polys)) == polys

    def test_all_zero_and_empty(self):
        lo, c = stack([LaurentPoly.zero()] * 3)
        assert lo == 0 and c.shape == (0, 3)
        assert unstack(lo, c) == [LaurentPoly.zero()] * 3
        assert stack([])[1].shape == (0, 0)

    def test_unstack_trims_each_column(self):
        c = np.array([[1e-15, 1.0], [1.0, 0.0], [0.0, 1e-15]])
        assert unstack(-2, c) == [LaurentPoly(-1, (1.0,)), LaurentPoly(-2, (1.0,))]


class TestHorner:
    """The shared Horner against Horner loops kept in the tests, compared with ==."""

    def test_poly_eval_matches_python_loop(self):
        rng = np.random.default_rng(14)
        for _ in range(60):
            p = random_poly(rng, -7, 7)
            for z in np.exp(2j * np.pi * rng.random(6)):
                assert p(z) == python_horner(p, complex(z))
                assert type(p(z)) is complex
        assert LaurentPoly.zero()(1j) == 0.0

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_matrix_eval_matches_numpy_loop(self, n):
        rng = np.random.default_rng(15 + n)
        mat = seeded_matrix(rng, n)
        for z in np.exp(2j * np.pi * rng.random(6)):
            assert np.array_equal(mat.eval(z), numpy_horner(mat.lo, mat.tensor, complex(z), (n, n)))
        zero = MatrixLaurent([[LaurentPoly.zero()] * n] * n)
        assert np.array_equal(zero.eval(1j), np.zeros((n, n)))

    def test_stacked_values_on_points_match_numpy_loop(self):
        rng = np.random.default_rng(16)
        points = unit_grid(12)
        polys = [random_poly(rng, -5, 5) for _ in range(3)] + [LaurentPoly.zero()]
        lo, c = stack(polys)
        assert np.array_equal(horner(lo, c[:, :, None], points), numpy_horner(lo, c[:, :, None], points, (4, 12)))
        lo, c = stack([LaurentPoly.zero()] * 2)
        assert np.array_equal(horner(lo, c[:, :, None], points), np.zeros((2, 12)))


class TestComposePower:
    def test_monomial(self):
        assert LaurentPoly.monomial(1).compose_power(2) == LaurentPoly.monomial(2)

    def test_constant(self):
        assert LaurentPoly.one().compose_power(5) == LaurentPoly.one()

    def test_defining_property(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            p = random_poly(rng)
            z = np.exp(2j * np.pi * rng.random())
            assert p.compose_power(3)(z) == pytest.approx(p(z**3), abs=1e-10)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            half.compose_power(1)


class TestCanonicalization:
    def test_zero_is_structural(self):
        assert LaurentPoly(17, (0.0, 0.0)) == LaurentPoly.zero()
        assert LaurentPoly(17, ()).offset == 0

    def test_end_trimming(self):
        p = LaurentPoly(-1, (0.0, 1.0, 2.0, 0.0))
        assert p.offset == 0
        assert p.coeffs == (1.0, 2.0)

    def test_trimming_changes_eval_below_tolerance(self):
        tiny = 5e-15
        p = LaurentPoly(0, (tiny, 1.0, tiny))
        q = LaurentPoly(1, (1.0,))
        assert p == q
        for z in unit_grid(5):
            assert abs(p(z) - (tiny + z + tiny * z**2)) <= 2 * 1e-14

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            LaurentPoly(0, (1.0, float("nan")))
        with pytest.raises(ValueError):
            LaurentPoly(0, (complex(1, float("inf")),))

    def test_finite_coefficients_whose_sum_overflows(self):
        assert LaurentPoly(0, (1e308, 1e308)).coeffs == (1e308, 1e308)
        assert LaurentPoly(0, np.array([-1e308, -1e308, 1.0])).coeffs == (-1e308, -1e308, 1.0)

    def test_names_the_first_non_finite_coefficient(self):
        for coeffs in ((1, math.nan, math.inf), np.array([1.0, np.nan, np.inf])):
            with pytest.raises(ValueError, match=r"^non-finite coefficient \(nan\+0j\)$"):
                LaurentPoly(0, coeffs)

    def test_array_input_matches_sequence_input(self):
        rng = np.random.default_rng(21)
        for c in [
            rng.standard_normal(6) + 1j * rng.standard_normal(6),
            rng.standard_normal(5),  # float array
            np.array([0.0, -0.0, 1.0, 2j, 0.0]),
            np.arange(4),  # integer array
            (rng.standard_normal((4, 3)) + 0j)[:, 1],  # strided column, as unstack passes it
            np.zeros(0),
        ]:
            p, q = LaurentPoly(-2, c), LaurentPoly(-2, [complex(x) for x in c])
            assert p == q and (p.offset, p.coeffs) == (q.offset, q.coeffs)
            assert all(type(x) is complex for x in p.coeffs)

    def test_array_input_rejects_non_finite(self):
        for bad in (np.array([1.0, np.nan]), np.array([1.0, complex(0, np.inf)])):
            with pytest.raises(ValueError, match="non-finite coefficient"):
                LaurentPoly(0, bad)


class TestMatrix:
    def test_identity_is_neutral(self):
        rng = np.random.default_rng(6)
        mat = MatrixLaurent([[random_poly(rng) for _ in range(2)] for _ in range(2)])
        assert (MatrixLaurent.identity(2) @ mat).distance(mat) == 0.0

    def test_star_of_monomial_diag(self):
        d = MatrixLaurent.diag([LaurentPoly.monomial(1), LaurentPoly.monomial(2)])
        expected = MatrixLaurent.diag([LaurentPoly.monomial(-1), LaurentPoly.monomial(-2)])
        assert d.star().distance(expected) == 0.0

    def test_star_antihomomorphism(self):
        rng = np.random.default_rng(7)
        a = MatrixLaurent([[random_poly(rng) for _ in range(2)] for _ in range(2)])
        b = MatrixLaurent([[random_poly(rng) for _ in range(2)] for _ in range(2)])
        assert ((a @ b).star()).distance(b.star() @ a.star()) <= 1e-12

    def test_paraunitary_times_star_is_identity(self):
        dft = MatrixLaurent.from_constant(np.array([[1, 1], [1, -1]]) / math.sqrt(2))
        assert (dft @ dft.star()).distance(MatrixLaurent.identity(2)) <= 1e-15

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            MatrixLaurent.identity(2) @ MatrixLaurent.identity(3)


class TestParaunitarity:
    def test_scaled_dft(self):
        # star(A) A worked out by hand: rows are orthonormal constants
        dft = MatrixLaurent.from_constant(np.array([[1, 1], [1, -1]]) / math.sqrt(2))
        ok, residual = dft.is_paraunitary(1e-12)
        assert ok and residual <= 1e-15

    def test_monomial_diagonal(self):
        d = MatrixLaurent.diag([LaurentPoly.monomial(1), LaurentPoly.monomial(5)])
        ok, residual = d.is_paraunitary(1e-12)
        assert ok and residual == 0.0

    def test_non_unitary_diagonal_residual(self):
        d = MatrixLaurent.from_constant(np.diag([1.0, 2.0]))
        ok, residual = d.is_paraunitary(1e-10)
        assert not ok
        assert residual == pytest.approx(3.0)

    def test_overflowing_gram_never_passes(self):
        from loopwave import certify_loop

        # Finite coefficients whose Gram matrix overflows to inf.
        mat = MatrixLaurent.from_tensor(0, np.stack([1e200 * np.eye(2), -1e200 * np.eye(2)]))
        with np.errstate(over="ignore", invalid="ignore"):
            ok, residual = mat.is_paraunitary()
            assert not ok and residual == math.inf
            with pytest.raises(ValueError, match=r"^not paraunitary: residual inf > tol 1\.000e-10$"):
                certify_loop(mat)

    def test_sampled_unitarity_follows(self):
        from loopwave import random_paraunitary

        loop = random_paraunitary(3, 2, seed=42)
        for z in unit_grid(16):
            sampled = loop.mat.eval(z)
            defect = np.max(np.abs(sampled.conj().T @ sampled - np.eye(3)))
            assert defect <= 10 * 1e-10


class TestCoefficients:
    def test_diag_coefficients(self):
        d = MatrixLaurent.diag([LaurentPoly.one(), LaurentPoly.monomial(1)])
        assert np.allclose(d.laurent_coefficient(0), np.diag([1.0, 0.0]))
        assert np.allclose(d.laurent_coefficient(1), np.diag([0.0, 1.0]))
        assert np.allclose(d.laurent_coefficient(7), np.zeros((2, 2)))

    def test_reassembly(self):
        rng = np.random.default_rng(8)
        mat = MatrixLaurent([[random_poly(rng) for _ in range(3)] for _ in range(3)])
        rebuilt = None
        for c in mat.support():
            term = MatrixLaurent.from_constant(mat.laurent_coefficient(c))
            term = MatrixLaurent([[p * LaurentPoly.monomial(c) for p in row] for row in term.entries])
            rebuilt = term if rebuilt is None else rebuilt + term
        assert rebuilt is not None
        assert rebuilt.distance(mat) <= 1e-14


def seeded_matrix(rng, n):
    return MatrixLaurent([[random_poly(rng) for _ in range(n)] for _ in range(n)])


class TestTensorAlgebra:
    """@, star and is_paraunitary against entrywise numpy oracles."""

    @pytest.mark.parametrize("n", [2, 3, 4, 8])
    def test_matmul_is_entrywise_convolution(self, n):
        from loopwave import random_paraunitary

        rng = np.random.default_rng(100 + n)
        pairs = [
            (seeded_matrix(rng, n), seeded_matrix(rng, n)),
            (random_paraunitary(n, 3, n).mat, random_paraunitary(n, 1, n + 1).mat),
            (random_paraunitary(n, 0, n).mat, seeded_matrix(rng, n)),
        ]
        for a, b in pairs:
            expected = grid_product(coefficient_grid(a), coefficient_grid(b))
            assert grid_distance(coefficient_grid(a @ b), expected) <= 1e-12

    @pytest.mark.parametrize("n", [2, 3, 4, 8])
    def test_star_is_entrywise_adjoint(self, n):
        from loopwave import random_paraunitary

        rng = np.random.default_rng(200 + n)
        for a in (seeded_matrix(rng, n), random_paraunitary(n, 2, n).mat):
            assert grid_distance(coefficient_grid(a.star()), grid_star(coefficient_grid(a))) == 0.0

    @pytest.mark.parametrize("n", [2, 3, 4, 8])
    def test_is_paraunitary_matches_sampled_residual(self, n):
        from loopwave import random_paraunitary

        rng = np.random.default_rng(300 + n)
        loop = random_paraunitary(n, 3, n).mat
        ok, residual = loop.is_paraunitary()
        assert ok and residual <= 1e-14
        assert sampled_paraunitary_residual(loop) <= 1e-13
        for mat in (seeded_matrix(rng, n), MatrixLaurent.from_constant(1.001 * np.eye(n)) @ loop):
            ok, residual = mat.is_paraunitary()
            assert not ok
            assert residual == pytest.approx(sampled_paraunitary_residual(mat), rel=1e-9)

    def test_loops_at_unit_scale_certify_exactly(self):
        from loopwave import base_system
        from loopwave.loopgroup import polyphase_matrix
        from loopwave.qmf import verify_qmf

        for n in (2, 3, 4, 8):
            assert polyphase_matrix(base_system(n)).is_paraunitary().residual == 0.0
            assert verify_qmf(base_system(n), grid_size=8 * n).unitary_residual == 0.0

    def test_perturbation_above_trim_tol_is_reported(self):
        from loopwave import random_paraunitary

        loop = random_paraunitary(3, 2, seed=5).mat
        for eps in (1e-12, 1e-9):
            bumped = loop.tensor.copy()
            bumped[1, 0, 2] += eps
            mat = MatrixLaurent.from_tensor(loop.lo, bumped)
            residual = mat.is_paraunitary().residual
            assert eps / 10 < residual < 10 * eps
            assert residual == pytest.approx(sampled_paraunitary_residual(mat), rel=1e-2)

    @pytest.mark.parametrize("n", [2, 3, 4, 8])
    def test_rounding_noise_below_trim_tol_reads_zero(self, n):
        # Per-entry trimming at TRIM_TOL: star(A) A - I of a seeded loop holds
        # rounding noise, and an entry whose coefficients all lie at or below
        # 1e-14 counts as exactly zero.
        from loopwave import random_paraunitary

        loop = random_paraunitary(n, 3, seed=n).mat
        grid = coefficient_grid(loop)
        lo, gram = grid_product(grid_star(grid), grid)
        gram[-lo] -= np.eye(n)
        assert 0.0 < np.max(np.abs(gram)) <= 1e-14
        assert loop.is_paraunitary().residual == 0.0


class TestTensorStorage:
    def test_entries_view_matches_trimmed_polys(self):
        rng = np.random.default_rng(9)
        grid = [[random_poly(rng) for _ in range(3)] for _ in range(3)]
        mat = MatrixLaurent(grid)
        rebuilt = MatrixLaurent.from_tensor(mat.lo, mat.tensor)
        assert rebuilt == mat
        assert rebuilt.entries == tuple(tuple(row) for row in grid)

    def test_from_tensor_trims_each_entry_like_laurentpoly(self):
        c = np.zeros((4, 2, 2), dtype=complex)
        c[:, 0, 0] = (5e-15, 1.0, 3e-15, 2.0)
        c[:, 1, 1] = (0.0, 0.0, 1.0, 4e-15)
        c[:, 0, 1] = (2e-15, 0.0, 0.0, 0.0)
        mat = MatrixLaurent.from_tensor(-1, c)
        assert mat[0, 0] == LaurentPoly(-1, c[:, 0, 0])
        assert mat[1, 1] == LaurentPoly(-1, c[:, 1, 1])
        assert mat[0, 1].is_zero
        assert (mat.lo, len(mat.tensor)) == (0, 3)
        assert mat.tensor[1, 0, 0] == 3e-15  # interior coefficients stay
        assert mat.tensor[2, 1, 1] == 0.0  # end coefficients go, entry by entry
        assert mat == MatrixLaurent([list(row) for row in mat.entries])

    def test_support_keeps_gaps_between_entries(self):
        d = MatrixLaurent.diag([LaurentPoly.monomial(2), LaurentPoly.monomial(5)])
        assert d.support() == [2, 5]
        assert sorted(d.coefficients()) == [2, 5]

    def test_zero_matrix(self):
        zero = MatrixLaurent([[LaurentPoly.zero()] * 2] * 2)
        assert len(zero.tensor) == 0 and zero.support() == []
        assert (zero @ MatrixLaurent.identity(2)).max_abs() == 0.0
        assert zero.star() == zero
        assert zero.is_paraunitary() == (False, 1.0)

    def test_zero_matrix_entries_without_cache(self):
        import pickle

        eye = MatrixLaurent.identity(2)
        zeros = ((LaurentPoly.zero(),) * 2,) * 2
        for zero in (
            eye - eye,
            MatrixLaurent.from_tensor(0, np.zeros((1, 2, 2))),
            MatrixLaurent([[LaurentPoly.zero()] * 2] * 2) @ eye,
            (eye - eye).star(),
            pickle.loads(pickle.dumps(eye - eye)),
        ):
            assert zero.entries == zeros
            assert zero[0, 0] == LaurentPoly.zero() and zero.apply(np.ones(2)) == [LaurentPoly.zero()] * 2

    def test_compose_power_is_strided(self):
        rng = np.random.default_rng(10)
        mat = seeded_matrix(rng, 2)
        composed = mat.compose_power(3)
        for i in range(2):
            for j in range(2):
                assert composed[i, j] == mat[i, j].compose_power(3)

    def test_apply_and_eval(self):
        rng = np.random.default_rng(11)
        mat = seeded_matrix(rng, 3)
        v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        z = np.exp(0.7j)
        values = [p(z) for p in mat.apply(v)]
        assert np.max(np.abs(np.array(values) - grid_eval(coefficient_grid(mat), z) @ v)) <= 1e-12
        assert np.max(np.abs(mat.eval(z) - grid_eval(coefficient_grid(mat), z))) <= 1e-12
        with pytest.raises(ValueError):
            mat.eval(0.5)

    def test_immutable_hashable_picklable(self):
        import pickle

        mat = MatrixLaurent.diag([LaurentPoly.monomial(-1, 2j), LaurentPoly.one()])
        with pytest.raises(AttributeError):
            mat.lo = 3
        with pytest.raises(ValueError):
            mat.tensor[0, 0, 0] = 1.0
        back = pickle.loads(pickle.dumps(mat))
        assert back == mat and hash(back) == hash(mat)

    def test_hash_agrees_with_eq_on_signed_zeros(self):
        for minus_zero in (-0.0, complex(0.0, -0.0), complex(-0.0, -0.0)):
            a = MatrixLaurent.from_tensor(0, np.array([1.0, minus_zero, 1.0], dtype=complex).reshape(3, 1, 1))
            b = MatrixLaurent.from_tensor(0, np.array([1.0, 0.0, 1.0], dtype=complex).reshape(3, 1, 1))
            assert a == b and hash(a) == hash(b)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            MatrixLaurent.from_constant(np.array([[1.0, np.nan], [0.0, 1.0]]))

    @pytest.mark.parametrize(
        "call, error, match",
        [
            (lambda: MatrixLaurent([[LaurentPoly.one()] * 2, [LaurentPoly.one()]]), ValueError, "^entries must form a nonempty square grid$"),
            (lambda: MatrixLaurent([[1.0]]), TypeError, "^matrix entries must be LaurentPoly$"),
            (lambda: MatrixLaurent.from_tensor(0, np.zeros((1, 2, 3))), ValueError, r"^coefficient tensor must have shape \(L, n, n\)"),
            (lambda: MatrixLaurent.from_constant(np.zeros((2, 3))), ValueError, "^constant matrix must be square$"),
            (lambda: MatrixLaurent.identity(2).apply(np.ones(3)), ValueError, "^vector length must match matrix size$"),
            (lambda: unit_grid(0), ValueError, "^grid size must be positive$"),
            (lambda: LaurentPoly(1.5, [1, 2]), TypeError, "^'float' object cannot be interpreted as an integer$"),
            (lambda: LaurentPoly(1.5, []), TypeError, "^'float' object cannot be interpreted as an integer$"),
            (lambda: LaurentPoly("3", [1]), TypeError, "^'str' object cannot be interpreted as an integer$"),
            (lambda: LaurentPoly.monomial(2.5), TypeError, "^'float' object cannot be interpreted as an integer$"),
            (lambda: MatrixLaurent.from_tensor(0.7, np.eye(2)[None]), TypeError, "^'float' object cannot be interpreted as an integer$"),
        ],
        ids=[
            "non-square grid",
            "non-LaurentPoly entry",
            "tensor shape",
            "non-square constant",
            "apply length",
            "unit_grid(0)",
            "float offset",
            "float offset, zero polynomial",
            "string offset",
            "float monomial exponent",
            "float tensor lo",
        ],
    )
    def test_refusals(self, call, error, match):
        with pytest.raises(error, match=match):
            call()

    def test_equality_with_other_types_and_repr(self):
        mat = MatrixLaurent.identity(2)
        assert (mat == 3) is False and mat != 3
        assert repr(mat) == "MatrixLaurent(n=2, lo=0, lags=1)"
