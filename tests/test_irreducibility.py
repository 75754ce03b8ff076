import numpy as np
import pytest

from conftest import seeded_loop
from helpers import brute_corner_n2, full_svd_null_space, laurent_witness_residual
from loopwave import (
    LaurentPoly,
    MatrixLaurent,
    certify_loop,
    classify,
    daubechies4_system,
    detect_corner,
    equivalent,
    filters_to_loop,
    graded_kernels,
)
from loopwave.irreducibility import (
    EQUAL,
    EQUAL_MODULO_CORNER,
    INEQUIVALENT,
    IRREDUCIBLE,
    REDUCIBLE,
    _null_space,
    _verify_witness,
)
from loopwave.laurent import CERTIFY_TOL, TRIM_TOL
from loopwave.loopgroup import Loop, random_unitary


def monomial_diag(*exponents):
    return certify_loop(MatrixLaurent.diag([LaurentPoly.monomial(e) for e in exponents]))


class TestGradedKernels:
    def test_identity_has_full_zero_kernel(self):
        kernels = graded_kernels(certify_loop(MatrixLaurent.identity(3)))
        assert set(kernels) == {0}
        assert kernels[0].shape == (3, 3)

    def test_monomial_diagonal(self):
        kernels = graded_kernels(monomial_diag(2, 5))
        assert set(kernels) == {2, 5}
        assert np.max(np.abs(np.abs(kernels[2][:, 0]) - [1.0, 0.0])) <= 1e-12
        assert np.max(np.abs(np.abs(kernels[5][:, 0]) - [0.0, 1.0])) <= 1e-12

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_elementary_factor_dimensions(self, n):
        loop = seeded_loop(n, 1, seed=n)
        kernels = graded_kernels(loop)
        assert {exp: b.shape[1] for exp, b in kernels.items()} == {0: n - 1, 1: 1}

    @pytest.mark.parametrize("seed", range(8))
    def test_mutual_orthogonality_and_isometry(self, seed):
        loop = seeded_loop(2 + seed % 2, seed % 3, seed)
        kernels = graded_kernels(loop)
        exps = sorted(kernels)
        for a in range(len(exps)):
            coeff = loop.mat.laurent_coefficient(exps[a])
            images = coeff @ kernels[exps[a]]
            norms = np.linalg.norm(images, axis=0)
            assert np.max(np.abs(norms - 1.0)) <= 1e-10
            for b in range(a + 1, len(exps)):
                assert np.max(np.abs(kernels[exps[a]].conj().T @ kernels[exps[b]])) <= 1e-10

    def test_uncertified_rejected(self):
        with pytest.raises(ValueError):
            graded_kernels(Loop(MatrixLaurent.identity(2), certified=False))

    @pytest.mark.parametrize("tol", [1.0, float("nan")])
    def test_tolerance_that_decides_no_rank_refused(self, tol):
        loop = seeded_loop(2, 3, 0)
        for search in (graded_kernels, classify):
            with pytest.raises(ValueError, match="decides no rank"):
                search(loop, tol)

    def test_non_orthogonal_kernels_named(self):
        # A(z) = A_0 + A_1 z with ker A_1 = span(1, -1) and ker A_0 = span e_1:
        # not paraunitary, so K_0 and K_1 overlap
        tensor = np.array([[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 1.0]]], dtype=complex)
        loop = Loop(MatrixLaurent.from_tensor(0, tensor), certified=True)
        with pytest.raises(ValueError, match="K_0 and K_1 are not orthogonal"):
            graded_kernels(loop)


class TestNullSpace:
    """Tall and square inputs take the thin SVD; the bases must be those of
    the full SVD, bit for bit."""

    @pytest.mark.parametrize("rows, cols", [(1, 1), (3, 3), (8, 4), (64, 16), (2, 5), (4, 16)])
    def test_against_full_svd(self, rows, cols):
        rng = np.random.default_rng(rows * 100 + cols)
        for rank in sorted({0, 1, min(rows, cols) // 2, min(rows, cols)}):
            x = rng.standard_normal((rows, rank)) + 1j * rng.standard_normal((rows, rank))
            y = rng.standard_normal((rank, cols)) + 1j * rng.standard_normal((rank, cols))
            mat = x @ y
            basis = _null_space(mat, cols)
            assert basis.shape == (cols, cols - rank)
            assert np.array_equal(basis, full_svd_null_space(mat, cols, CERTIFY_TOL))

    @pytest.mark.parametrize("n, degree, seed", [(2, 1, 0), (2, 4, 1), (3, 2, 2), (4, 3, 3), (8, 2, 4), (16, 1, 5)])
    def test_graded_kernel_inputs(self, n, degree, seed):
        loop = seeded_loop(n, degree, seed)
        tensor = loop.mat.tensor
        for lag in range(len(tensor)):
            others = np.delete(tensor, lag, axis=0).reshape(-1, n)
            assert np.array_equal(_null_space(others, n), full_svd_null_space(others, n, CERTIFY_TOL))


class TestDetectCorner:
    def test_identity_full_corner(self):
        witness = detect_corner(certify_loop(MatrixLaurent.identity(3)))
        assert witness is not None
        assert witness.m == 3
        assert witness.exponents == (0, 0, 0)
        assert np.max(np.abs(witness.v_matrix - np.eye(3))) <= 1e-10

    def test_monomial_diagonal(self):
        witness = detect_corner(monomial_diag(2, 5))
        assert witness is not None
        assert witness.m == 2
        assert witness.exponents == (2, 5)
        assert np.max(np.abs(np.abs(witness.v_matrix) - np.eye(2))) <= 1e-10

    def test_constant_unitary_full_corner(self):
        rng = np.random.default_rng(0)
        loop = certify_loop(MatrixLaurent.from_constant(random_unitary(3, rng)))
        witness = detect_corner(loop)
        assert witness is not None
        assert witness.m == 3 and witness.exponents == (0, 0, 0)

    def test_negative_support_only_has_no_corner(self):
        loop = monomial_diag(-1, -2)
        assert detect_corner(loop) is None
        assert classify(loop).status == IRREDUCIBLE

    def test_witness_self_verifies(self):
        for seed in range(10):
            loop = seeded_loop(2, seed % 3, seed)
            witness = detect_corner(loop)
            if witness is None:
                continue
            assert witness.residual <= 1e-10
            # re-check the Laurent identity A(z) v_k = z^{n_k} sum_j V[j,k] v_j
            for k in range(witness.m):
                lhs = loop.mat.apply(witness.vectors[:, k])
                rhs = witness.vectors @ witness.v_matrix[:, k]
                for i in range(loop.n):
                    diff = lhs[i] - LaurentPoly.monomial(witness.exponents[k], rhs[i])
                    assert diff.max_abs() <= 1e-10


class TestWitnessResidual:
    """The tensor re-check of a corner witness against the LaurentPoly
    oracle: the residual must agree to the last bit."""

    @pytest.mark.parametrize("n", [2, 3, 4, 8, 16])
    @pytest.mark.parametrize("degree", range(4))
    def test_matches_oracle(self, n, degree):
        for seed in range(3):
            a = seeded_loop(n, degree, seed)
            turn = MatrixLaurent.from_constant(random_unitary(n, np.random.default_rng(seed + 100)))
            # the transition loop that equivalent(A, V A) searches
            c = certify_loop(a.mat @ (turn @ a.mat).star())
            for loop in (a, c):
                witness = detect_corner(loop)
                if witness is None:
                    continue
                assert witness.residual == laurent_witness_residual(loop, witness.vectors, witness.exponents)

    @staticmethod
    def _trim_case(scale: float, s: float):
        # A(z) = diag(z, scale z) and v = (1, s): entry 1 of A(z) v is
        # scale s z, and (V v)_1 = s lands on the same lag
        tensor = np.zeros((2, 2, 2), dtype=complex)
        tensor[1] = np.diag([1.0, scale])
        loop = Loop(MatrixLaurent.from_tensor(0, tensor), certified=False)
        vectors = np.array([[1.0], [s]], dtype=complex)
        return loop, vectors, (1,)

    @pytest.mark.parametrize(
        "scale, s, expected",
        [
            # both sides at TRIM_TOL: both dropped
            (1.0, TRIM_TOL, 0.0),
            # end coefficient of A(z) v at TRIM_TOL, (V v)_1 above: only -s is left
            (0.5, 2 * TRIM_TOL, 2 * TRIM_TOL),
            # end coefficient just above TRIM_TOL: kept and subtracted
            (0.5, 2 * np.nextafter(TRIM_TOL, 1.0), np.nextafter(TRIM_TOL, 1.0)),
            # (V v)_1 at TRIM_TOL, end coefficient above: only 2 s is left
            (2.0, TRIM_TOL, 2 * TRIM_TOL),
            # (V v)_1 just above TRIM_TOL: kept and subtracted
            (2.0, np.nextafter(TRIM_TOL, 1.0), np.nextafter(TRIM_TOL, 1.0)),
        ],
    )
    def test_trim_rule(self, scale, s, expected):
        loop, vectors, exponents = self._trim_case(scale, s)
        witness = _verify_witness(loop, vectors, exponents)
        assert witness.residual == laurent_witness_residual(loop, vectors, exponents)
        assert witness.residual == expected

    def test_perturbed_vector_raises(self):
        for seed in range(6):
            loop = seeded_loop(3, 1, seed)
            witness = detect_corner(loop)
            assert witness is not None
            vectors = witness.vectors.copy()
            vectors[0, 0] += 1e-8
            with pytest.raises(ValueError, match="re-verification"):
                _verify_witness(loop, vectors, witness.exponents)

    def test_rotated_vector_raises_on_coefficients(self):
        # diag(z^2, z^5, z^-1) with v_0 turned by 1e-8 toward e_2: the vectors
        # stay orthonormal and V unitary, but A(z) v_0 gains a z^-1 term
        loop = certify_loop(MatrixLaurent.diag([LaurentPoly.monomial(e) for e in (2, 5, -1)]))
        eps = 1e-8
        vectors = np.array([[np.cos(eps), 0.0], [0.0, 1.0], [np.sin(eps), 0.0]], dtype=complex)
        assert laurent_witness_residual(loop, vectors, (2, 5)) > 1e-10
        with pytest.raises(ValueError, match="re-verification"):
            _verify_witness(loop, vectors, (2, 5))


class TestClassify:
    def test_identity_reducible(self):
        verdict = classify(certify_loop(MatrixLaurent.identity(2)))
        assert verdict.status == REDUCIBLE
        assert verdict.witness is not None and verdict.witness.m == 2
        assert verdict.semantics_note

    def test_monomial_diag_reducible(self):
        assert classify(monomial_diag(1, 3)).status == REDUCIBLE

    def test_generic_degree_two_irreducible(self):
        verdict = classify(seeded_loop(2, 2, seed=11))
        assert verdict.status == IRREDUCIBLE
        assert verdict.witness is None

    def test_d4_fixture(self):
        # recorded after cross-validation against the brute-force search:
        # the 4-tap orthonormal loop has degree 1, hence a full corner with
        # exponents (0, 1) under the graded-subspace reading
        loop = filters_to_loop(daubechies4_system())
        rank, exps = brute_corner_n2(loop)
        assert (rank, exps) == (2, (0, 1))
        verdict = classify(loop)
        assert verdict.status == REDUCIBLE
        assert verdict.witness is not None
        assert (verdict.witness.m, tuple(sorted(verdict.witness.exponents))) == (2, (0, 1))

    def test_conjugation_invariance(self):
        rng = np.random.default_rng(7)
        for seed in range(6):
            loop = seeded_loop(2, seed % 3, seed + 40)
            u = random_unitary(2, rng)
            conj = certify_loop(
                MatrixLaurent.from_constant(u) @ loop.mat @ MatrixLaurent.from_constant(u.conj().T)
            )
            a, b = classify(loop), classify(conj)
            assert a.status == b.status
            if a.witness is not None:
                assert b.witness is not None
                assert a.witness.m == b.witness.m
                assert sorted(a.witness.exponents) == sorted(b.witness.exponents)

    def test_diagonal_phase_invariance(self):
        # right-multiplication by a unimodular diagonal commuting with the grading
        loop = monomial_diag(2, 5)
        phase = MatrixLaurent.from_constant(np.diag([np.exp(0.3j), np.exp(-1.1j)]))
        twisted = certify_loop(loop.mat @ phase)
        a, b = detect_corner(loop), detect_corner(twisted)
        assert a is not None and b is not None
        assert (a.m, sorted(a.exponents)) == (b.m, sorted(b.exponents))


class TestBruteForceAgreement:
    @pytest.mark.parametrize("seed", range(30))
    def test_oracle_matches_detector(self, seed):
        loop = seeded_loop(2, seed % 3, seed)
        rank, exps = brute_corner_n2(loop)
        witness = detect_corner(loop)
        if witness is None:
            assert rank == 0
        else:
            assert rank == witness.m
            assert exps == tuple(sorted(witness.exponents))


class TestConstructedCorners:
    @pytest.mark.parametrize("seed", range(4))
    def test_rank_one_corner_survives_conjugation(self, seed):
        # diag(z^2, z^-1): only the exponent-2 line is a nonnegative corner
        base = MatrixLaurent.diag([LaurentPoly.monomial(2), LaurentPoly.monomial(-1)])
        u = random_unitary(2, np.random.default_rng(seed))
        loop = certify_loop(
            MatrixLaurent.from_constant(u) @ base @ MatrixLaurent.from_constant(u.conj().T)
        )
        witness = detect_corner(loop)
        assert witness is not None
        assert (witness.m, tuple(witness.exponents)) == (1, (2,))
        assert brute_corner_n2(loop) == (1, (2,))

    def test_block_direct_sum_recovers_planted_corner(self):
        # U (diag(z^3, z) (+) B) U* with B corner-free: the detector must
        # return exactly the planted block, exponents and subspace included
        from conftest import seeded_loop as make_loop

        b = make_loop(2, 2, seed=11)
        assert detect_corner(b) is None
        diag_entries = [LaurentPoly.monomial(3), LaurentPoly.monomial(1)]
        rows = []
        for i in range(4):
            row = []
            for j in range(4):
                if i < 2 and j < 2:
                    row.append(diag_entries[i] if i == j else LaurentPoly.zero())
                elif i >= 2 and j >= 2:
                    row.append(b.mat[i - 2, j - 2])
                else:
                    row.append(LaurentPoly.zero())
            rows.append(row)
        u = random_unitary(4, np.random.default_rng(99))
        loop = certify_loop(
            MatrixLaurent.from_constant(u) @ MatrixLaurent(rows) @ MatrixLaurent.from_constant(u.conj().T)
        )
        witness = detect_corner(loop)
        assert witness is not None
        assert witness.m == 2
        assert tuple(sorted(witness.exponents)) == (1, 3)
        alignment = np.linalg.svd(u[:, :2].conj().T @ witness.vectors, compute_uv=False)
        assert np.min(alignment) > 1 - 1e-9


class TestEquivalent:
    def test_reflexive(self):
        loop = seeded_loop(2, 2, seed=5)
        assert equivalent(loop, loop) == EQUAL

    def test_constant_unitary_factor(self):
        loop = seeded_loop(2, 2, seed=5)
        u = MatrixLaurent.from_constant(random_unitary(2, np.random.default_rng(1)))
        other = certify_loop(u @ loop.mat)
        assert equivalent(loop, other) == EQUAL_MODULO_CORNER

    def test_monomial_diag_factor(self):
        loop = seeded_loop(2, 1, seed=8)
        d = MatrixLaurent.diag([LaurentPoly.monomial(-1), LaurentPoly.one()])
        other = certify_loop(d @ loop.mat)
        # transition loop is diag(z, 1): a full corner with exponents (0, 1)
        assert equivalent(loop, other) == EQUAL_MODULO_CORNER

    def test_haar_against_shifted_haar_fixture(self, haar):
        # fixture verdict recorded from the corner search on the transition loop:
        # C = diag(1, z^-1) only admits the rank-1 nonnegative corner, so the
        # full-corner certificate fails
        a = filters_to_loop(haar)
        d = MatrixLaurent.diag([LaurentPoly.one(), LaurentPoly.monomial(1)])
        b = certify_loop(d @ a.mat)
        assert equivalent(a, b) == INEQUIVALENT

    def test_generic_pair_inequivalent(self):
        assert equivalent(seeded_loop(2, 2, 1), seeded_loop(2, 3, 2)) == INEQUIVALENT

    def test_guards(self):
        loop2 = seeded_loop(2, 1, 0)
        loop3 = seeded_loop(3, 1, 0)
        with pytest.raises(ValueError):
            equivalent(loop2, loop3)
        with pytest.raises(ValueError):
            equivalent(Loop(MatrixLaurent.identity(2), certified=False), loop2)
