"""Acceptance suite.

One test per criterion; each prints a single PASS/FAIL line (run with -s to
see them) and enforces its stated tolerance and runtime bound.  Criterion 6
is split into the cascade anchors and the 4-tap intertwining residual at
its stated tolerance.
"""

import csv
import json
import math
import time

import numpy as np

from conftest import random_vector
from helpers import brute_corner_n2
from loopwave import (
    Band,
    FilterSystem,
    LaurentPoly,
    MatrixLaurent,
    act,
    base_system,
    build_rep,
    cascade,
    certify_loop,
    check_intertwine,
    classify,
    commutant_diagnostic,
    complete,
    daubechies4_lowpass,
    daubechies4_system,
    filters_to_loop,
    graded_kernels,
    haar_system,
    loop_to_filters,
    low_pass_check,
    orthonormality_check,
    random_paraunitary,
    reconstruct,
    transition,
    verify_cuntz,
    verify_qmf,
    verify_scalar_qmf,
)
from loopwave import fileio
from loopwave.cli import main
from loopwave.cuntz_rep import interior_band
from loopwave.irreducibility import REDUCIBLE
from loopwave.loopgroup import random_unitary

ROOT2 = math.sqrt(2.0)


def _report(number: int, name: str, ok: bool, elapsed: float, bound: float, checks) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {number} ({name}): {elapsed:.2f}s (bound {bound:g}s)")
    for label, good in checks:
        if not good:
            print(f"    failed: {label}")


def _finish(number, name, checks, t0, bound):
    elapsed = time.perf_counter() - t0
    ok = all(good for _, good in checks)
    _report(number, name, ok and elapsed < bound, elapsed, bound, checks)
    assert ok, [label for label, good in checks if not good]
    assert elapsed < bound
    return elapsed


def test_criterion_1_haar_bijection_anchor():
    t0 = time.perf_counter()
    checks = []
    haar = haar_system()
    loop = filters_to_loop(haar)
    dft = MatrixLaurent.from_constant(np.array([[1, 1], [1, -1]]) / ROOT2)
    checks.append(("loop equals scaled DFT to 1e-12", loop.mat.distance(dft) <= 1e-12))
    back = loop_to_filters(loop)
    checks.append(("loop inverts back to the filters exactly", back.distance(haar) == 0.0))
    _finish(1, "Haar bijection anchor", checks, t0, 1.0)


def test_criterion_2_base_system_anchor():
    t0 = time.perf_counter()
    checks = []
    for n in (2, 3, 4):
        loop = filters_to_loop(base_system(n))
        checks.append(
            (f"base system N={n} maps to the identity loop", loop.mat.distance(MatrixLaurent.identity(n)) <= 1e-12)
        )
        verdict = classify(certify_loop(MatrixLaurent.identity(n)))
        full_zero_corner = (
            verdict.status == REDUCIBLE
            and verdict.witness is not None
            and verdict.witness.m == n
            and set(verdict.witness.exponents) == {0}
        )
        checks.append((f"identity loop N={n} reducible with full corner, all exponents 0", full_zero_corner))
    _finish(2, "base-system anchor", checks, t0, 1.0)


def test_criterion_3_qmf_property_suite():
    t0 = time.perf_counter()
    checks = []
    for seed in range(100):
        n = 2 + seed % 2
        degree = seed % 4
        loop = random_paraunitary(n, degree, seed)
        system = loop_to_filters(loop)
        report = verify_qmf(system, tol=1e-10, grid_size=32 * n)
        round_trip = filters_to_loop(system)
        partner = act(random_paraunitary(n, 1 + seed % 3, seed + 1000), system)
        carried = act(transition(partner, system), system)
        ok = (
            report.passed
            and round_trip.mat.distance(loop.mat) <= 1e-10
            and carried.distance(partner) <= 1e-10
        )
        checks.append((f"seed {seed} (N={n}, degree {degree})", ok))
    _finish(3, "QMF property suite, 100 seeded loops", checks, t0, 10.0)


def test_criterion_4_cuntz_relations():
    t0 = time.perf_counter()
    checks = []
    systems = [("haar", haar_system()), ("d4", daubechies4_system())]
    for seed in range(50):
        n = 2 + seed % 2
        systems.append((f"seed {seed}", loop_to_filters(random_paraunitary(n, seed % 4, seed))))
    rng = np.random.default_rng(42)
    for name, system in systems:
        rep = build_rep(system, Band(-16, 16))
        report = verify_cuntz(rep)
        ok = (
            report.interior is not None
            and report.isometry_residual <= 1e-12
            and report.completeness_residual <= 1e-12
        )
        checks.append((f"{name}: Cuntz residuals on band [-16,16]", ok))
        inner = interior_band(rep)
        lo = inner.k_min - rep.out_band.k_min
        hi = inner.k_max - rep.out_band.k_min
        worst = 0.0
        for _ in range(20):
            f = np.zeros(rep.out_band.size, dtype=complex)
            f[lo : hi + 1] = random_vector(inner.size, rng)
            _, residual = reconstruct(rep, f)
            worst = max(worst, residual)
        checks.append((f"{name}: 20 interior reconstructions", worst <= 1e-10))
    _finish(4, "Cuntz relations and reconstruction", checks, t0, 30.0)


def test_criterion_5_d4_filter_anchors():
    t0 = time.perf_counter()
    checks = []
    m0 = daubechies4_lowpass()
    checks.append(("scalar fiber-norm residual <= 1e-12", verify_scalar_qmf(m0, 2) <= 1e-12))
    checks.append(("low-pass check", low_pass_check(m0)))
    system = complete(m0, 2, mode="fir2")
    assert isinstance(system, FilterSystem)
    checks.append(
        ("fir2 completion passes full verification at 1e-12", verify_qmf(system).unitary_residual <= 1e-12)
    )
    _finish(5, "4-tap filter anchors", checks, t0, 1.0)


def test_criterion_6_cascade_anchors():
    t0 = time.perf_counter()
    checks = []
    haar = haar_system()
    for level in (1, 4, 8):
        phi = cascade(haar.filters[0], 2, level)
        box = np.zeros(len(phi.values))
        box[: 2**level] = 1.0
        checks.append((f"Haar cascade exact box at level {level}", float(np.max(np.abs(phi.values - box))) <= 1e-12))

    d4 = daubechies4_system()
    phi10 = cascade(d4.filters[0], 2, 10)
    checks.append(("d4 level-10 support within [0, 3]", phi10.support == (0.0, 3.0) and len(phi10.values) == 3 * 2**10 + 1))
    checks.append(("d4 level-10 Riemann integral 1 +- 1e-3", abs(phi10.integral - 1.0) <= 1e-3))
    checks.append(("d4 level-10 translate orthonormality <= 1e-3", orthonormality_check(phi10, 4) <= 1e-3))

    rng = np.random.default_rng(7)
    phi_h = cascade(haar.filters[0], 2, 8)
    worst = 0.0
    for _ in range(10):
        xi = {int(k): complex(v) for k, v in zip(range(-4, 6), rng.standard_normal(10))}
        worst = max(worst, check_intertwine(haar, phi_h, xi))
    checks.append(("Haar intertwining residual <= 1e-12 for 10 random sequences", worst <= 1e-12))
    _finish(6, "cascade anchors", checks, t0, 30.0)


def test_criterion_6_d4_intertwining_stated_tolerance():
    t0 = time.perf_counter()
    d4 = daubechies4_system()
    level = 18
    phi = cascade(d4.filters[0], 2, level)
    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(10):
        xi = {int(k): complex(v) for k, v in zip(range(-4, 6), rng.standard_normal(10))}
        worst = max(worst, check_intertwine(d4, phi, xi))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6
    _report(6, "d4 intertwining at the stated 1e-6 tolerance", ok and elapsed < 30.0, elapsed, 30.0, [])
    print(
        f"    measured residual {worst:.3e} at level {level} "
        f"(seed {phi.seed}, cascade increment {phi.last_delta:.3e})"
    )
    if not ok:
        # a box-seeded iterate approaches phi at ratio (1+sqrt(3))/4 per level
        ratio = (1 + math.sqrt(3)) / 4
        needed = math.ceil(math.log(1e-6 / worst) / math.log(ratio)) + level
        print(f"    at contraction ratio {ratio:.4f}, 1e-6 would need level {needed}")
    assert elapsed < 30.0
    assert worst <= 1e-6, f"residual {worst:.3e} > 1e-6; see printed analysis"


def test_criterion_7_corner_detection_suite():
    t0 = time.perf_counter()
    checks = []

    diag_cases = [(0, 1), (2, 5), (1, 3, 4)]
    for exps in diag_cases:
        loop = certify_loop(MatrixLaurent.diag([LaurentPoly.monomial(e) for e in exps]))
        verdict = classify(loop)
        ok = (
            verdict.status == REDUCIBLE
            and verdict.witness is not None
            and verdict.witness.m == len(exps)
            and tuple(sorted(verdict.witness.exponents)) == tuple(sorted(exps))
            and verdict.witness.residual <= 1e-10
        )
        checks.append((f"monomial diagonal {exps} reducible with matching exponents", ok))

    rng = np.random.default_rng(3)
    for n in (2, 3):
        loop = certify_loop(MatrixLaurent.from_constant(random_unitary(n, rng)))
        verdict = classify(loop)
        ok = (
            verdict.status == REDUCIBLE
            and verdict.witness is not None
            and verdict.witness.m == n
            and set(verdict.witness.exponents) == {0}
            and verdict.witness.residual <= 1e-10
        )
        checks.append((f"constant unitary N={n} full corner at exponent 0", ok))

    for n in (2, 3, 4):
        dims = {exp: basis.shape[1] for exp, basis in graded_kernels(random_paraunitary(n, 1, seed=n + 17)).items()}
        checks.append((f"elementary factor N={n} graded kernels of dimensions ({n - 1}, 1)", dims == {0: n - 1, 1: 1}))

    mismatches = []
    for seed in range(100):
        loop = random_paraunitary(2, seed % 3, seed)
        witness = classify(loop).witness
        got = (0, ()) if witness is None else (witness.m, tuple(sorted(witness.exponents)))
        expected = brute_corner_n2(loop)
        if got != expected:
            mismatches.append((seed, got, expected))
        if witness is not None and witness.residual > 1e-10:
            mismatches.append((seed, "witness residual", witness.residual))
    checks.append(("brute-force graded-subspace oracle agrees on 100 seeded loops", not mismatches))
    _finish(7, "corner-detection suite", checks, t0, 60.0)


def test_criterion_8_commutant_consistency_diagnostic():
    # Non-blocking by design: reducible verdicts whose exact commutant (the
    # fixed points of sigma on the attractor band K) is trivial are recorded
    # as known-issue fixtures (the corner reading of reducibility versus the
    # commutant is the documented open point), never silently passed and
    # never failed.
    t0 = time.perf_counter()
    fixtures = {
        "identity": certify_loop(MatrixLaurent.identity(2)),
        "haar": filters_to_loop(haar_system()),
        "d4": filters_to_loop(daubechies4_system()),
        "diag(z^2,z^5)": certify_loop(
            MatrixLaurent.diag([LaurentPoly.monomial(2), LaurentPoly.monomial(5)])
        ),
        "elementary-deg1": random_paraunitary(2, 1, seed=3),
        "generic-deg2": random_paraunitary(2, 2, seed=11),
    }
    expected_known_issues = {"d4", "elementary-deg1"}
    observed_known_issues = set()
    lines = []
    for name, loop in fixtures.items():
        verdict = classify(loop)
        rep = build_rep(loop_to_filters(loop), Band(-24, 24))
        diag = commutant_diagnostic(rep)
        assert diag.dimension >= 1  # the identity always commutes
        if verdict.status == REDUCIBLE and diag.dimension <= 1:
            observed_known_issues.add(name)
            lines.append(
                f"    KNOWN-ISSUE {name}: classified reducible (corner reading) but "
                f"commutant dimension is {diag.dimension} on attractor band "
                f"K = [{diag.band.k_min},{diag.band.k_max}]"
            )
        else:
            lines.append(
                f"    {name}: classify={verdict.status}, commutant dimension {diag.dimension}"
            )
    elapsed = time.perf_counter() - t0
    _report(8, "commutant consistency diagnostic (non-blocking)", True, elapsed, 120.0, [])
    for line in lines:
        print(line)
    # the recorded known-issue set is pinned so silent drift is impossible
    assert observed_known_issues == expected_known_issues


def test_criterion_9_cli_contract(tmp_path, capsys):
    t0 = time.perf_counter()
    checks = []

    haar_path = tmp_path / "haar.json"
    fileio.save_filter_file(haar_path, haar_system())
    bad_path = tmp_path / "scaled.json"
    fileio.save_filter_file(
        bad_path,
        FilterSystem(2, [LaurentPoly(0, (1 / ROOT2, 1 / ROOT2)), LaurentPoly(0, (1 / ROOT2, -1 / ROOT2))]),
    )
    broken_path = tmp_path / "broken.json"
    broken_path.write_text("{")

    checks.append(("verify pass -> exit 0", main(["verify", str(haar_path)]) == 0))
    checks.append(("verify failure -> exit 1", main(["verify", str(bad_path)]) == 1))
    checks.append(("malformed input -> exit 2", main(["verify", str(broken_path)]) == 2))

    loop_path = tmp_path / "loop.json"
    back_path = tmp_path / "back.json"
    checks.append(("convert to loop", main(["convert", str(haar_path), "--to", "loop", "--out", str(loop_path)]) == 0))
    checks.append(
        ("convert back to filters", main(["convert", str(loop_path), "--to", "filters", "--out", str(back_path)]) == 0)
    )
    original = fileio.load_filter_file(haar_path)
    returned = fileio.load_filter_file(back_path)
    assert isinstance(original, FilterSystem) and isinstance(returned, FilterSystem)
    checks.append(("round-trip coefficients stable to 1e-12", returned.distance(original) <= 1e-12))

    capsys.readouterr()
    checks.append(("classify runs on loop file", main(["classify", str(loop_path), "--json"]) == 0))
    verdict = json.loads(capsys.readouterr().out)
    checks.append(("classify reports the constant-unitary corner", verdict["status"] == "reducible"))

    csv_path = tmp_path / "phi.csv"
    checks.append(("cascade emits CSV", main(["cascade", str(haar_path), "--iters", "5", "--out", str(csv_path)]) == 0))
    with open(csv_path) as fh:
        rows = list(csv.reader(fh))
    checks.append(("cascade header and rows", rows[0] == ["x", "phi", "psi_1"] and len(rows) == 2**5 + 2))

    checks.append(("cuntz-check passes", main(["cuntz-check", str(haar_path), "--band", "8"]) == 0))
    capsys.readouterr()
    checks.append(("equiv self is Equal", main(["equiv", str(haar_path), str(haar_path), "--json"]) == 0))
    checks.append(("equiv verdict text", json.loads(capsys.readouterr().out)["verdict"] == "equal"))

    m0_path = tmp_path / "m0.json"
    m0_path.write_text(
        json.dumps({"version": 1, "n": 2, "filters": [{"offset": 0, "coeffs": [[0.5, 0], [0.5, 0]]}]})
    )
    done_path = tmp_path / "completed.json"
    checks.append(("complete fir2", main(["complete", str(m0_path), "--out", str(done_path)]) == 0))
    completed = fileio.load_filter_file(done_path)
    assert isinstance(completed, FilterSystem)
    checks.append(("completion writes the full Haar system", completed.distance(haar_system()) <= 1e-12))

    checks.append(("commutant command runs", main(["commutant", str(haar_path), "--band", "6"]) == 0))
    _finish(9, "CLI contract", checks, t0, 60.0)
