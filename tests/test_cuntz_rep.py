import hashlib
import math

import numpy as np
import pytest

from conftest import raised_d4_system, random_vector, seeded_system
from helpers import (
    brute_interior,
    dense_cuntz_residuals,
    dense_symbol_residual,
    dense_weighted_shifts,
    sampled_transition,
    truncated_commutant_dimension,
)
from loopwave import (
    Band,
    FilterSystem,
    LaurentPoly,
    MatrixLaurent,
    TruncatedRep,
    adjoint_apply,
    base_system,
    build_rep,
    certify,
    certify_loop,
    commutant_diagnostic,
    daubechies4_system,
    filters_to_loop,
    haar_system,
    loop_to_filters,
    reconstruct,
    transition_operator_matrix,
    verify_cuntz,
)
from loopwave.cuntz_rep import attractor_band, interior_band

ROOT2 = math.sqrt(2.0)


def unit(rep, k):
    """Basis vector e_k of the output band."""
    v = np.zeros(rep.out_band.size, dtype=complex)
    v[k - rep.out_band.k_min] = 1.0
    return v


class TestBuildRep:
    def test_haar_single_column(self, haar):
        rep = build_rep(haar, Band(0, 0))
        assert rep.out_band == Band(0, 1)
        assert np.allclose(rep.S[0][:, 0], ROOT2 * np.array([0.5, 0.5]))
        assert np.allclose(rep.S[1][:, 0], ROOT2 * np.array([0.5, -0.5]))

    def test_base_monomials_are_index_maps(self):
        rep = build_rep(base_system(3), Band(-2, 2))
        for j in range(3):
            for kk, k in enumerate(rep.in_band.indices()):
                col = rep.S[j][:, kk]
                assert np.count_nonzero(col) == 1
                assert col[3 * k + j - rep.out_band.k_min] == pytest.approx(1.0)

    def test_column_sparsity_is_filter_length(self, d4):
        rep = build_rep(d4, Band(-5, 5))
        for s in rep.S:
            for col in s.T:
                assert np.count_nonzero(col) <= 4

    def test_repr_names_system_and_bands(self, haar):
        rep = build_rep(haar, Band(-2, 2))
        assert repr(rep) == f"TruncatedRep(system={haar!r}, in_band={Band(-2, 2)!r}, out_band={rep.out_band!r})"

    def test_unverified_rejected(self, haar):
        with pytest.raises(ValueError):
            build_rep(haar.with_verified(False), Band(-2, 2))

    def test_matrix_matches_laurent_multiplication(self, d4):
        # independent route: column k of S_i is sqrt(N) * m_i * z^{Nk}
        rep = build_rep(d4, Band(-3, 3))
        for i in range(2):
            for kk, k in enumerate(rep.in_band.indices()):
                poly = d4.filters[i] * LaurentPoly.monomial(2 * k, ROOT2)
                expected = np.array([poly.coeff(p) for p in rep.out_band.indices()])
                assert np.max(np.abs(rep.S[i][:, kk] - expected)) <= 1e-15


class TestAdjoint:
    def test_base_monomial_shifts(self):
        rep = build_rep(base_system(2), Band(-4, 4))
        for k in (-2, 0, 3):
            for j in range(2):
                image = adjoint_apply(rep, j, unit(rep, 2 * k + j))
                expected = np.zeros(rep.in_band.size, dtype=complex)
                expected[k - rep.in_band.k_min] = 1.0
                assert np.allclose(image, expected)
        # wrong residue class annihilates
        assert np.allclose(adjoint_apply(rep, 0, unit(rep, 1)), 0.0)

    def test_haar_adjoint_of_e0(self, haar):
        rep = build_rep(haar, Band(-4, 4))
        image = adjoint_apply(rep, 0, unit(rep, 0))
        expected = np.zeros(rep.in_band.size, dtype=complex)
        expected[-rep.in_band.k_min] = ROOT2 / 2
        assert np.max(np.abs(image - expected)) <= 1e-15

    def test_inner_product_pairing(self):
        rng = np.random.default_rng(3)
        rep = build_rep(seeded_system(3, 2, 5), Band(-6, 6))
        for i in range(3):
            f = random_vector(rep.in_band.size, rng)
            g = random_vector(rep.out_band.size, rng)
            lhs = np.vdot(g, rep.S[i] @ f)
            rhs = np.vdot(adjoint_apply(rep, i, g), f)
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_coefficient_formula(self, d4):
        # (S_i^* f)_k = sqrt(N) sum_t conj(c_t) f_{Nk+t}
        rng = np.random.default_rng(4)
        rep = build_rep(d4, Band(-3, 3))
        f = random_vector(rep.out_band.size, rng)
        for i in range(2):
            image = adjoint_apply(rep, i, f)
            for kk, k in enumerate(rep.in_band.indices()):
                acc = sum(
                    ROOT2 * np.conj(d4.filters[i].coeff(t)) * f[2 * k + t - rep.out_band.k_min]
                    for t in d4.filters[i].support()
                )
                assert image[kk] == pytest.approx(acc, abs=1e-14)

    def test_band_mismatch(self, haar):
        rep = build_rep(haar, Band(-2, 2))
        with pytest.raises(ValueError):
            adjoint_apply(rep, 0, np.zeros(3))
        with pytest.raises(IndexError):
            adjoint_apply(rep, 5, np.zeros(rep.out_band.size))


class TestCuntzRelations:
    def test_haar_band8(self, haar):
        report = verify_cuntz(build_rep(haar, Band(-8, 8)))
        assert report.isometry_residual <= 1e-12
        assert report.completeness_residual <= 1e-12
        assert report.interior is not None

    def test_base_monomials_exact(self):
        report = verify_cuntz(build_rep(base_system(2), Band(-8, 8)))
        assert report.isometry_residual == 0.0
        assert report.completeness_residual == 0.0
        # permutation structure: completeness exact on the whole output band
        assert report.interior == Band(-16, 17)

    @pytest.mark.parametrize("seed", range(5))
    def test_random_loops(self, seed):
        system = seeded_system(3, 2, seed)
        report = verify_cuntz(build_rep(system, Band(-6, 6)))
        assert report.isometry_residual <= 1e-10
        assert report.completeness_residual <= 1e-10

    def test_interior_formula(self, d4):
        rep = build_rep(d4, Band(-8, 8))
        inner = interior_band(rep)
        # N k_min + t_max - N + 1 .. N k_max + t_min + N - 1 with support [0, 3]
        assert inner == Band(2 * -8 + 3 - 2 + 1, 2 * 8 + 0 + 2 - 1)

    def test_negative_support_filters(self, haar):
        from loopwave import FilterSystem, LaurentPoly, certify

        shifted = certify(FilterSystem(2, [f * LaurentPoly.monomial(-1) for f in haar.filters]))
        rep = build_rep(shifted, Band(-6, 6))
        assert rep.out_band == Band(-13, 12)
        report = verify_cuntz(rep)
        assert report.isometry_residual <= 1e-12
        assert report.completeness_residual <= 1e-12
        f = unit(rep, 5)
        _, residual = reconstruct(rep, f)
        assert residual <= 1e-12


class TestReconstruct:
    def test_haar_basis_vector(self, haar):
        rep = build_rep(haar, Band(-8, 8))
        g, residual = reconstruct(rep, unit(rep, 0))
        assert residual <= 1e-12
        assert np.max(np.abs(g - unit(rep, 0))) <= 1e-12

    def test_zero(self, haar):
        rep = build_rep(haar, Band(-4, 4))
        g, residual = reconstruct(rep, np.zeros(rep.out_band.size, dtype=complex))
        assert residual == 0.0 and not g.any()

    @pytest.mark.parametrize("seed", range(5))
    def test_random_interior_vectors(self, seed):
        rng = np.random.default_rng(seed)
        system = seeded_system(2 + seed % 2, 1 + seed % 3, seed)
        rep = build_rep(system, Band(-10, 10))
        inner = interior_band(rep)
        assert inner is not None
        f = np.zeros(rep.out_band.size, dtype=complex)
        lo = inner.k_min - rep.out_band.k_min
        hi = inner.k_max - rep.out_band.k_min
        f[lo : hi + 1] = random_vector(inner.size, rng)
        _, residual = reconstruct(rep, f)
        assert residual <= 1e-10

    def test_support_outside_interior_flagged(self, d4):
        # length-4 filters leave the two leftmost output indices non-interior
        rep = build_rep(d4, Band(-4, 4))
        f = unit(rep, rep.out_band.k_min)
        with pytest.raises(ValueError):
            reconstruct(rep, f)


class TestTransitionSymbols:
    def test_self_transition_is_identity(self, d4):
        rep = build_rep(d4, Band(-6, 6))
        sym = transition_operator_matrix(rep, rep)
        assert sym.distance(MatrixLaurent.identity(2)) <= 1e-12

    def test_base_versus_haar_constant_symbols(self, haar, base2):
        band = Band(-6, 6)
        sym = transition_operator_matrix(build_rep(base2, band), build_rep(haar, band))
        expected = MatrixLaurent.from_constant(np.array([[1, 1], [1, -1]]) / ROOT2)
        assert sym.distance(expected) <= 1e-12

    @pytest.mark.parametrize("seed", range(4))
    def test_symbols_paraunitary(self, seed):
        n = 2 + seed % 2
        band = Band(-6, 6)
        rep_a = build_rep(seeded_system(n, 1, seed), band)
        rep_b = build_rep(seeded_system(n, 2, seed + 30), band)
        sym = transition_operator_matrix(rep_a, rep_b)
        ok, residual = sym.is_paraunitary(1e-10)
        assert ok, residual

    def test_input_band_mismatch_rejected(self, haar, base2):
        with pytest.raises(ValueError):
            transition_operator_matrix(build_rep(base2, Band(-6, 6)), build_rep(haar, Band(-5, 5)))


def _no_interior_rep() -> TruncatedRep:
    return build_rep(daubechies4_system(), Band(0, 0))


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda: Band(3, 2), r"^empty band \[3, 2\]$"),
        (lambda: attractor_band(FilterSystem(2, [LaurentPoly.zero()] * 2)), "^filter system is identically zero$"),
        (lambda: reconstruct(build_rep(haar_system(), Band(-2, 2)), np.zeros(3)), r"^vector length \(3,\) does not match output band size"),
        (lambda: reconstruct(_no_interior_rep(), np.zeros(_no_interior_rep().out_band.size)), "^representation has no interior band$"),
        (
            lambda: transition_operator_matrix(build_rep(haar_system(), Band(-2, 2)), build_rep(base_system(3), Band(-2, 2))),
            "^representations have different scales$",
        ),
    ],
    ids=["empty band", "zero system", "reconstruct length", "reconstruct without interior", "transition across scales"],
)
def test_refusals(call, match):
    with pytest.raises(ValueError, match=match):
        call()


def _shifted(system, k):
    """The system with every filter multiplied by z^k, certified."""
    return certify(FilterSystem(system.n, [f * LaurentPoly.monomial(k) for f in system.filters]))


def _commutant_bytes(report) -> bytes:
    """The dimension, band and singular values of a commutant report, as bytes."""
    ints = np.array([report.dimension, report.band.k_min, report.band.k_max], dtype=np.int64)
    return ints.tobytes() + report.singular_values.tobytes()


COMMUTANT_SYSTEMS = {
    # the loops of acceptance criterion 8
    "identity": loop_to_filters(certify_loop(MatrixLaurent.identity(2))),
    "haar": loop_to_filters(filters_to_loop(haar_system())),
    "d4": loop_to_filters(filters_to_loop(daubechies4_system())),
    "diag(z^2,z^5)": loop_to_filters(
        certify_loop(MatrixLaurent.diag([LaurentPoly.monomial(2), LaurentPoly.monomial(5)]))
    ),
    "elementary-deg1": seeded_system(2, 1, 3),
    "generic-deg2": seeded_system(2, 2, 11),
    **{
        f"N{n} deg{degree}": seeded_system(n, degree, 7 * n + degree)
        for n in (2, 3, 4, 8, 16)
        for degree in (0, 1, 2, 4)
    },
    "N2 deg3 z^5": _shifted(seeded_system(2, 3, 4), 5),
    "N3 deg2 z^-4": _shifted(seeded_system(3, 2, 6), -4),
    "d4 z^-3": _shifted(daubechies4_system(), -3),
}


class TestCommutantDiagnostic:
    def test_base_monomials_reducible_signature(self):
        rep = build_rep(base_system(2), Band(-8, 8))
        report = commutant_diagnostic(rep)
        assert report.dimension > 1

    def test_identity_always_commutes(self):
        rep = build_rep(seeded_system(2, 2, 9), Band(-6, 6))
        report = commutant_diagnostic(rep)
        assert report.dimension >= 1
        assert report.singular_values[0] <= 1e-6

    def test_profile_logged_as_band_grows(self):
        # empirical monotonicity is logged, not asserted
        dims = []
        for half_width in (4, 6, 8):
            rep = build_rep(base_system(2), Band(-half_width, half_width))
            dims.append(commutant_diagnostic(rep).dimension)
        print(f"commutant dimension vs band growth (base monomials): {dims}")
        assert all(d >= 1 for d in dims)

    @pytest.mark.parametrize(
        "system",
        [base_system(2), haar_system(), daubechies4_system(), seeded_system(2, 1, 3), seeded_system(2, 2, 11)],
        ids=["identity", "haar", "d4", "elementary-deg1", "generic-deg2"],
    )
    def test_agrees_with_truncated_oracle(self, system):
        band = Band(-6, 6)
        expected = truncated_commutant_dimension(system, band)
        assert commutant_diagnostic(build_rep(system, band)).dimension == expected

    def test_spread_monomials_pinned(self):
        # diag(z^2, z^5): four fixed points of sigma on K = [-11, -4], whatever the band
        loop = certify_loop(MatrixLaurent.diag([LaurentPoly.monomial(2), LaurentPoly.monomial(5)]))
        system = loop_to_filters(loop)
        for half_width in (11, 12, 24):
            report = commutant_diagnostic(build_rep(system, Band(-half_width, half_width)))
            assert report.dimension == 4
            assert report.band == Band(-11, -4)

    def test_band_missing_attractor_gives_the_attractor_answer(self, d4):
        # K = [-3, 0] for the 4-tap filters
        report = commutant_diagnostic(build_rep(d4, Band(-3, 3)))
        assert report.band == Band(-3, 0)
        assert _commutant_bytes(commutant_diagnostic(build_rep(d4, Band(-2, 2)))) == _commutant_bytes(report)

    @pytest.mark.parametrize("band", [Band(0, 0), Band(3, 4)], ids=str)
    def test_any_band_gives_the_attractor_answer(self, band):
        for name, system in COMMUTANT_SYSTEMS.items():
            expected = _commutant_bytes(commutant_diagnostic(build_rep(system, attractor_band(system))))
            assert _commutant_bytes(commutant_diagnostic(build_rep(system, band))) == expected, name

    def test_counts_singular_values_at_most_tol(self):
        # sigma - I of the identity's filters has two singular values exactly 0
        report = commutant_diagnostic(build_rep(base_system(2), Band(0, 0)), 0.0)
        assert report.dimension == 2 and report.singular_values[1] == 0.0
        d4 = commutant_diagnostic(build_rep(daubechies4_system(), Band(0, 0)))
        at_smallest = commutant_diagnostic(build_rep(daubechies4_system(), Band(0, 0)), float(d4.singular_values[0]))
        assert at_smallest.dimension == d4.dimension == 1

    @pytest.mark.parametrize("system", [haar_system(), daubechies4_system()], ids=["haar", "d4"])
    def test_a_tol_that_counts_none_is_refused(self, system):
        smallest = commutant_diagnostic(build_rep(system, Band(0, 0))).singular_values[0]
        assert smallest > 0.0
        match = f"^tol 0.0 decides no commutant dimension: .* the smallest being {smallest:.3e}$"
        with pytest.raises(ValueError, match=match):
            commutant_diagnostic(build_rep(system, Band(0, 0)), 0.0)

    @pytest.mark.parametrize("tol", [float("nan"), -1.0], ids=["nan", "negative"])
    def test_a_nan_or_negative_tol_is_refused_before_sigma(self, tol, monkeypatch):
        import loopwave.cuntz_rep

        rep = build_rep(daubechies4_system(), Band(0, 0))
        monkeypatch.setattr(loopwave.cuntz_rep, "attractor_band", lambda system: pytest.fail("sigma was built"))
        with pytest.raises(ValueError, match=f"^tol {tol!r} decides no commutant dimension: it is not a number >= 0$"):
            commutant_diagnostic(rep, tol)

    def test_a_loosely_certified_system_counts_none_at_the_default(self):
        # certificate residual 1.37e-5: sigma - I has no singular value at
        # most COMMUTANT_TOL, and the scalars are counted at 1e-4
        rep = build_rep(certify(raised_d4_system(1e-5), tol=1e-4), Band(0, 0))
        with pytest.raises(ValueError, match=r"^tol 1e-06 decides no commutant dimension: .* the smallest being 4\.830e-06$"):
            commutant_diagnostic(rep)
        assert commutant_diagnostic(rep, 1e-4).dimension == 1

    def test_reports_are_pinned(self):
        # SHA-256 of the dimension, K and singular-value bytes on the
        # criterion-8 loops and 23 seeded or shifted systems, N in
        # {2, 3, 4, 8, 16}, degree 0-4.  It pins the kron and SVD of
        # sigma - I; the seeded inputs come from the QR in
        # random_paraunitary and the singular values from LAPACK, so
        # another LAPACK build may need a new pin.
        digest = hashlib.sha256()
        for system in COMMUTANT_SYSTEMS.values():
            digest.update(_commutant_bytes(commutant_diagnostic(build_rep(system, attractor_band(system)))))
        assert digest.hexdigest() == "bde4af6df13f469507c2ffa3832c9bbad08ce4d9ded1e7be4412c038ea228f53"


ORACLE_SYSTEMS = {
    "haar": haar_system(),
    "d4": daubechies4_system(),
    "base3": base_system(3),
    "N2 deg4": seeded_system(2, 4, 1),
    "N3 deg2": seeded_system(3, 2, 5),
    "N4 deg3": seeded_system(4, 3, 2),
    "N8 deg2": seeded_system(8, 2, 3),
    "N3 deg2 z^-4": _shifted(seeded_system(3, 2, 6), -4),
    "d4 z^-3": _shifted(daubechies4_system(), -3),
}
ORACLE_BANDS = [Band(-9, 9), Band(-2, 5), Band(0, 0), Band(3, 4)]


def _dense_built(rep):
    """rep built again from its dense matrices."""
    return TruncatedRep(system=rep.system, in_band=rep.in_band, out_band=rep.out_band, S=rep.S)


def _with_matrix(rep, i, s):
    """A hand-built copy of rep whose S_i is s."""
    mats = list(rep.S)
    mats[i] = s
    return TruncatedRep(system=rep.system, in_band=rep.in_band, out_band=rep.out_band, S=tuple(mats))


class TestAgainstDenseOracles:
    @pytest.mark.parametrize("name", ORACLE_SYSTEMS)
    @pytest.mark.parametrize("band", ORACLE_BANDS, ids=str)
    def test_build_rep(self, name, band):
        system = ORACLE_SYSTEMS[name]
        rep = build_rep(system, band)
        out, mats = dense_weighted_shifts(system, band)
        assert rep.out_band == out
        for s, m in zip(rep.S, mats):
            assert s.shape == m.shape and not s.flags.writeable
            assert np.array_equal(s, m)

    @pytest.mark.parametrize("name", ORACLE_SYSTEMS)
    @pytest.mark.parametrize("band", ORACLE_BANDS, ids=str)
    def test_verify_cuntz(self, name, band):
        rep = build_rep(ORACLE_SYSTEMS[name], band)
        report = verify_cuntz(rep)
        iso, comp = dense_cuntz_residuals(rep)
        assert report.interior == brute_interior(rep)
        assert abs(report.isometry_residual - iso) <= 1e-14
        if report.interior is None:
            assert math.isnan(report.completeness_residual) and math.isnan(comp)
        else:
            assert abs(report.completeness_residual - comp) <= 1e-14

    def test_interior_none_bands_covered(self):
        assert interior_band(build_rep(ORACLE_SYSTEMS["N8 deg2"], Band(0, 0))) is None
        assert interior_band(build_rep(ORACLE_SYSTEMS["d4"], Band(0, 0))) is None

    def test_base_systems_exact(self):
        for n in (2, 3, 4, 8):
            report = verify_cuntz(build_rep(base_system(n), Band(-7, 7)))
            assert report.isometry_residual == 0.0
            assert report.completeness_residual == 0.0

    @pytest.mark.parametrize(
        "name, other",
        [(a, b) for a in ORACLE_SYSTEMS for b in ORACLE_SYSTEMS if ORACLE_SYSTEMS[a].n == ORACLE_SYSTEMS[b].n],
    )
    def test_transition_symbols(self, name, other):
        system_a, system_b = ORACLE_SYSTEMS[name], ORACLE_SYSTEMS[other]
        band = Band(-5, 6)
        rep_a, rep_b = build_rep(system_a, band), build_rep(system_b, band)
        symbols = transition_operator_matrix(rep_a, rep_b)
        assert dense_symbol_residual(rep_a, rep_b, symbols) <= 1e-14
        # symbol_ij(z) = sum over w^N = z of conj(m^(a)_i(w)) m^(b)_j(w)
        for z in np.exp(2j * np.pi * np.array([0.1, 0.37, 0.8])):
            assert np.max(np.abs(symbols.eval(z) - sampled_transition(system_b, system_a, z).T)) <= 1e-12

    def test_in_window_perturbation_reported_at_its_size(self):
        rep = build_rep(ORACLE_SYSTEMS["N3 deg2"], Band(-8, 8))
        s = rep.S[1].copy()
        s[3 * 5 + 2, 5] += 1e-7  # column 5's window starts at row N * 5
        bumped = _with_matrix(rep, 1, s)
        report = verify_cuntz(bumped)
        iso, comp = dense_cuntz_residuals(bumped)
        assert abs(report.isometry_residual - iso) <= 1e-14
        assert abs(report.completeness_residual - comp) <= 1e-14
        assert 1e-8 <= report.isometry_residual <= 1e-6
        assert 1e-8 <= report.completeness_residual <= 1e-6
        with pytest.raises(RuntimeError, match="disagree"):
            transition_operator_matrix(bumped, bumped)
        symbols = transition_operator_matrix(bumped, bumped, tol=1e-6)
        assert 1e-8 <= dense_symbol_residual(bumped, bumped, symbols) <= 1e-6

    def test_off_window_entry_rejected(self):
        """The windows are read when the model is built, so an entry outside
        them is refused there, before any check can run."""
        rep = build_rep(ORACLE_SYSTEMS["d4"], Band(-6, 6))
        s = rep.S[1].copy()
        s[0, rep.in_band.size - 1] = 1e-3  # index N k_min + t_min, outside column k_max's window
        with pytest.raises(ValueError, match="S_1 has nonzero entries outside"):
            _with_matrix(rep, 1, s)

    @pytest.mark.parametrize("name", ["d4", "N3 deg2", "N8 deg2", "d4 z^-3"])
    def test_reconstruct(self, name):
        rng = np.random.default_rng(7)
        rep = build_rep(ORACLE_SYSTEMS[name], Band(-6, 6))
        inner = interior_band(rep)
        f = np.zeros(rep.out_band.size, dtype=complex)
        lo = inner.k_min - rep.out_band.k_min
        f[lo : lo + inner.size] = random_vector(inner.size, rng)
        g, residual = reconstruct(rep, f)
        dense = sum(s @ (s.conj().T @ f) for s in rep.S)
        assert np.max(np.abs(g - dense)) <= 1e-14
        assert residual == pytest.approx(float(np.max(np.abs(dense - f))), abs=1e-14)

    def test_reconstruct_names_first_index_outside(self):
        rep = build_rep(ORACLE_SYSTEMS["d4"], Band(-4, 4))
        inner = interior_band(rep)
        f = np.zeros(rep.out_band.size, dtype=complex)
        f[inner.k_max + 1 - rep.out_band.k_min] = 1.0
        f[inner.k_min - 1 - rep.out_band.k_min] = 1.0
        f[inner.k_min - rep.out_band.k_min] = 1.0
        with pytest.raises(ValueError, match=rf"index {inner.k_min - 1} outside interior \[{inner.k_min}, {inner.k_max}\]"):
            reconstruct(rep, f)


class TestWindowStorage:
    """Every model holds its column windows: build_rep's from the start, and
    a dense-built model's read out of the matrices it is given.  build_rep's
    dense matrices are built only when rep.S is read, and no check or
    commutant reads them.  adjoint_apply is the dense product with rep.S,
    as it always was."""

    @pytest.mark.parametrize("name", ORACLE_SYSTEMS)
    def test_dense_view_on_first_read(self, name):
        system = ORACLE_SYSTEMS[name]
        rep = build_rep(system, Band(-5, 7))
        out, mats = dense_weighted_shifts(system, Band(-5, 7))
        first = rep.S
        assert rep.S is first
        for s, m in zip(first, mats):
            assert not s.flags.writeable and np.array_equal(s, m)
            with pytest.raises(ValueError):
                s[0, 0] = 1.0
        windows, rows = rep.windows
        assert not windows.flags.writeable and not rows.flags.writeable

    @pytest.mark.parametrize("name", ["d4", "N3 deg2", "N8 deg2", "d4 z^-3"])
    def test_checks_never_read_the_dense_view(self, name, monkeypatch):
        rep = build_rep(ORACLE_SYSTEMS[name], Band(-6, 6))
        other = build_rep(ORACLE_SYSTEMS["haar" if rep.n == 2 else name], Band(-6, 6))
        f = np.zeros(rep.out_band.size, dtype=complex)
        inner = interior_band(rep)
        f[inner.k_min - rep.out_band.k_min] = 1.0
        # the same pair built from dense matrices, read here before rep.S is barred
        models = [(rep, other), (_dense_built(rep), _dense_built(other))]

        def no_dense(self):
            raise AssertionError("dense matrices read")

        monkeypatch.setattr(TruncatedRep, "S", property(no_dense))
        for rep, other in models:
            verify_cuntz(rep)
            reconstruct(rep, f)
            transition_operator_matrix(rep, other)
            transition_operator_matrix(other, rep)
            commutant_diagnostic(rep)

    @pytest.mark.parametrize("name", ORACLE_SYSTEMS)
    def test_windows_read_from_dense_matrices(self, name):
        rep = build_rep(ORACLE_SYSTEMS[name], Band(-4, 3))
        dense = _dense_built(rep)
        for mine, read in zip(rep.windows, dense.windows):
            assert np.array_equal(mine, read)
        assert dense.S is rep.S  # the matrices given, as given

    @pytest.mark.parametrize("name", ORACLE_SYSTEMS)
    def test_adjoint_apply_is_the_dense_product(self, name):
        rng = np.random.default_rng(11)
        system = ORACLE_SYSTEMS[name]
        rep = build_rep(system, Band(-7, 9))
        _, mats = dense_weighted_shifts(system, Band(-7, 9))
        f = random_vector(rep.out_band.size, rng)
        for i, s in enumerate(mats):
            assert adjoint_apply(rep, i, f).tobytes() == (s.conj().T @ f).tobytes()


class TestOutermostLags:
    """Hand-built models whose largest residual sits at the outermost lag of
    a banded product, so that a lag range stopping one short shows."""

    @staticmethod
    def _s0_entries(rep, entries, value=2.0):
        """rep with S_0 replaced by value at window positions (a, k): row N k + a."""
        s = np.zeros_like(rep.S[0])
        for a, kk in entries:
            s[rep.n * kk + a, kk] = value
        return _with_matrix(rep, 0, s)

    @staticmethod
    def _window_length(rep):
        return rep.out_band.size - rep.n * (rep.in_band.size - 1)

    @pytest.mark.parametrize("name", ["d4", "N3 deg2", "N4 deg3", "N8 deg2"])
    def test_isometry(self, name):
        rep = build_rep(ORACLE_SYSTEMS[name], Band(-6, 6))
        lag = (self._window_length(rep) - 1) // rep.n
        # columns 4 and 4 + lag share the output index N (4 + lag)
        bad = self._s0_entries(rep, [(rep.n * lag, 4), (0, 4 + lag)])
        iso, _ = dense_cuntz_residuals(bad)
        assert iso == pytest.approx(4.0, abs=1e-12)
        assert abs(verify_cuntz(bad).isometry_residual - iso) <= 1e-14

    @pytest.mark.parametrize("name", ["d4", "N3 deg2", "N4 deg3", "N8 deg2"])
    def test_completeness(self, name):
        rep = build_rep(ORACLE_SYSTEMS[name], Band(-6, 6))
        length = self._window_length(rep)
        bad = self._s0_entries(rep, [(0, 6), (length - 1, 6)])
        _, comp = dense_cuntz_residuals(bad)
        assert comp >= 4.0 - 1.0
        assert abs(verify_cuntz(bad).completeness_residual - comp) <= 1e-14

    @pytest.mark.parametrize("name", ["d4", "N3 deg2"])
    def test_completeness_block_edge(self, name):
        # entry (p, p + 1) with p the last interior index lies outside the block
        rep = build_rep(ORACLE_SYSTEMS[name], Band(-6, 6))
        last = interior_band(rep).k_max - rep.out_band.k_min
        kk = last // rep.n
        bad = self._s0_entries(rep, [(last - rep.n * kk, kk), (last - rep.n * kk + 1, kk)])
        _, comp = dense_cuntz_residuals(bad)
        assert abs(verify_cuntz(bad).completeness_residual - comp) <= 1e-14

    @pytest.mark.parametrize("a", [0, 3], ids=["positive lag", "negative lag"])
    def test_transition_symbols(self, a):
        # d4 windows are (0.48, 0.84, 0.22, -0.13) and (-0.13, -0.22, 0.84, -0.48):
        # an entry at offset 0 meets 0.84 one lag up, at offset 3 one lag down.
        rep = build_rep(ORACLE_SYSTEMS["d4"], Band(-6, 6))
        bad = self._s0_entries(rep, [(a, 6)])
        symbols = transition_operator_matrix(rep, bad, tol=10.0)
        worst = dense_symbol_residual(rep, bad, symbols)
        assert worst == pytest.approx(2 * 0.8365163037378079, rel=1e-12)
        transition_operator_matrix(rep, bad, tol=worst * (1 + 1e-12))
        with pytest.raises(RuntimeError):
            transition_operator_matrix(rep, bad, tol=worst * (1 - 1e-12))
