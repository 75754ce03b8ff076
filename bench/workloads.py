"""The three workloads: their inputs, their jobs, and each job's check.

A workload builds its inputs from the seed once, then runs whole rounds of
jobs in a fixed order.  A job's ``run`` is the timed part; its ``check``
runs after the timer stops and returns failure messages (see checks.py).
Jobs drive loopwave only through its public functions and
``loopwave.cli.main``, always looked up at call time so that the tracer's
wrappers are seen.
"""

from __future__ import annotations

import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

import loopwave as lw
import loopwave.cli

import checks as ck


@dataclass
class Job:
    kind: str
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], list[str]]
    #: The job meets a fault of the program on inputs fixed for every seed,
    #: so it fails in every round; it counts in ``failed`` but not against
    #: ``correct``.
    known_fault: bool = False


@dataclass
class Workload:
    build: Callable[[int], Any]
    jobs: Callable[[Any, int], list[Job]]


def _seeds(seed: int, count: int, salt: int = 0) -> list[int]:
    return [int(s) for s in np.random.default_rng([seed, salt]).integers(0, 2**31, size=count)]


def _unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _lowpass(n: int, degree: int, seed: int):
    """A seeded filter system with m_0(1) = 1: a random loop turned by the
    constant unitary that sends its value vector m(1) to e_0, which moves it
    along its orbit under the loop group."""
    loop = lw.random_paraunitary(n, degree, seed)
    at_one = np.array([ck.eval_poly(f, np.array([1.0]))[0] for f in ck.system_arrays(lw.loop_to_filters(loop))])
    phase = at_one[0] / abs(at_one[0])
    w = at_one / phase
    w[0] -= 1.0
    turn = (np.eye(n) - 2.0 * np.outer(w, w.conj()) / np.vdot(w, w).real) / phase
    system = lw.loop_to_filters(lw.certify_loop(lw.MatrixLaurent.from_constant(turn) @ loop.mat))
    m0_at_one = ck.eval_poly(ck.poly_array(system.filters[0]), np.array([1.0]))[0]
    if abs(m0_at_one - 1.0) > 1e-10:
        raise RuntimeError(f"turned system has m_0(1) = {m0_at_one}")
    return system


# -- loop-sweep ----------------------------------------------------------------

#: (N, degree) of each loop-sweep job, from the grid N in {2, 4, 8, 16},
#: degree <= 16.  Degree-1 loops always carry a corner, so the witness
#: checks run in every round.  N = 16 stops at degree 1 and N = 8 at
#: degree 8: (16, 2) and (8, 16) took 1.0-1.8 s and 0.6-1.0 s of a 3.4-5.8 s
#: round, and with them a 25 s run held five or six rounds, too few for
#: each job's median to ride out the host's slow seconds.
LOOP_GRID = [
    (2, 1), (2, 4), (2, 16), (4, 1), (4, 4), (4, 8), (4, 16),
    (8, 2), (8, 4), (8, 8), (16, 1),
]


def _loop_job(n: int, degree: int, seed: int) -> Job:
    turn = _unitary(n, np.random.default_rng(seed))

    def run():
        a = lw.random_paraunitary(n, degree, seed)
        system = lw.loop_to_filters(a)
        back = lw.filters_to_loop(system)
        va = lw.MatrixLaurent.from_constant(turn) @ a.mat
        certificate = va.is_paraunitary()
        report = lw.verify_qmf(system, grid_size=256)
        base = lw.base_system(n)
        again = lw.act(lw.transition(system, base), base)
        verdict = lw.classify(a)
        verdict_equiv = lw.equivalent(a, lw.Loop(va, certified=certificate.ok))
        return a, system, back, certificate, report, again, verdict, verdict_equiv

    def check(out) -> list[str]:
        a, system, back, certificate, report, again, verdict, verdict_equiv = out
        errs = []
        loop = ck.loop_tensor(a.mat.entries)
        filters = ck.system_arrays(system)
        if ck.paraunitary_defect(loop) > 1e-10:
            errs.append("A(z)^H A(z) != I on the circle")
        if ck.polyphase_defect(filters, loop, n) > 1e-10:
            errs.append("filters break m_i(z) = N^-1/2 sum_j A_ij(z^N) z^j")
        if not back.certified or ck.coefficient_distance(ck.loop_tensor(back.mat.entries), loop) > 1e-12:
            errs.append("filters_to_loop does not give back the loop")
        if not certificate.ok or certificate.residual > 1e-10:
            errs.append(f"V A not certified: residual {certificate.residual:.3e}")
        if not report.passed or report.grid_residual > 1e-10:
            errs.append(f"verify_qmf: passed={report.passed}, grid residual {report.grid_residual:.3e}")
        if max(ck.coefficient_distance(x, y) for x, y in zip(ck.system_arrays(again), filters)) > 1e-10:
            errs.append("act(transition(n, m), m) != n")
        w = verdict.witness
        if w is not None and ck.witness_defect(loop, w.vectors, w.exponents, w.v_matrix) > 1e-10:
            errs.append("corner witness fails A(z) v_k = z^n_k V v_k")
        if verdict_equiv != "equal-modulo-corner":
            errs.append(f"equivalent(A, V A) = {verdict_equiv}")
        return errs

    return Job("loop", f"loop N={n} deg={degree}", run, check)


def loop_sweep() -> Workload:
    # Each round draws fresh loop seeds, so no two jobs of a run repeat inputs.
    def jobs(seed: int, round_index: int) -> list[Job]:
        seeds = _seeds(seed, len(LOOP_GRID), salt=round_index + 1)
        return [_loop_job(n, d, s) for (n, d), s in zip(LOOP_GRID, seeds)]

    return Workload(build=lambda seed: seed, jobs=jobs)


# -- representations ---------------------------------------------------------------

#: Band of the commutant probe.  At 12 the probe finds the true dimension on
#: every fixture; at 8 it undercounts diag(z^2, z^5).
COMMUTANT_BAND = 12


def _commutant_fixtures() -> dict[str, Any]:
    """The six loops of acceptance criterion 8."""
    poly, mat = lw.LaurentPoly, lw.MatrixLaurent
    return {
        "identity": lw.certify_loop(mat.identity(2)),
        "haar": lw.filters_to_loop(lw.haar_system()),
        "d4": lw.filters_to_loop(lw.daubechies4_system()),
        "diag(z^2,z^5)": lw.certify_loop(mat.diag([poly.monomial(2), poly.monomial(5)])),
        "elementary-deg1": lw.random_paraunitary(2, 1, seed=3),
        "generic-deg2": lw.random_paraunitary(2, 2, seed=11),
    }


def _interior_vector(system, band, rng) -> np.ndarray:
    """A random vector on the output band, supported in the interior band."""
    n = system.n
    t_min, t_max = ck.support(ck.system_arrays(system))
    out_lo, out_hi = n * band.k_min + t_min, n * band.k_max + t_max
    lo = max(n * band.k_min + t_max - n + 1, out_lo)
    hi = min(n * band.k_max + t_min + n - 1, out_hi)
    f = np.zeros(out_hi - out_lo + 1, dtype=complex)
    f[lo - out_lo : hi - out_lo + 1] = rng.standard_normal(hi - lo + 1) + 1j * rng.standard_normal(hi - lo + 1)
    return f


def _rep_job(name: str, system, band, vector: np.ndarray) -> Job:
    def run():
        rep = lw.build_rep(system, band)
        report = lw.verify_cuntz(rep)
        return rep, (report, lw.reconstruct(rep, vector))

    def check(out):
        rep, recon = out
        return ck.check_rep(rep, ck.system_arrays(system), system.n, band, vector, recon)

    return Job("rep", f"rep {name} band {band.k_max}", run, check)


def _symbol_job(name: str, rep) -> Job:
    return Job(
        "symbols",
        f"symbols {name}",
        lambda: lw.transition_operator_matrix(rep, rep),
        lambda mat: ck.check_identity_symbols(mat, rep.n),
    )


def _commutant_job(name: str, system, band) -> Job:
    expected = ck.fixed_point_dimension(ck.system_arrays(system), system.n)

    def check(report):
        if report.dimension != expected:
            return [f"commutant dimension {report.dimension}, fixed points of sigma give {expected}"]
        return []

    return Job("commutant", f"commutant {name}", lambda: lw.commutant_diagnostic(lw.build_rep(system, band)), check)


def _cascade_job(name: str, system, level: int, xi: dict, orthonormal: bool) -> Job:
    def run():
        phi = lw.cascade(system.filters[0], system.n, level)
        psi = lw.wavelets(system, phi)
        return phi, psi, lw.check_intertwine(system, phi, xi), lw.orthonormality_check(phi, 2)

    def check(out):
        phi, psi, residual, defect = out
        return ck.check_cascade(phi, psi, residual, defect if orthonormal else None)

    return Job("cascade", f"cascade {name} level {level}", run, check)


def _box_third_job(level: int) -> Job:
    m0 = lw.LaurentPoly(0, (0.5, 0.0, 0.0, 0.5))
    return Job("cascade-box", "cascade (1+z^3)/2", lambda: lw.cascade(m0, 2, level), ck.check_box_third, known_fault=True)


def _xi(rng) -> dict:
    return {k: complex(rng.standard_normal(), rng.standard_normal()) for k in range(-2, 3)}


def _build_representations(seed: int) -> dict:
    rng = np.random.default_rng([seed, 99])
    s = _seeds(seed, 5)
    d4 = lw.daubechies4_system()
    seeded = {
        "N=2 deg 4": lw.loop_to_filters(lw.random_paraunitary(2, 4, s[0])),
        "N=4 deg 3": lw.loop_to_filters(lw.random_paraunitary(4, 3, s[1])),
        "N=8 deg 2": lw.loop_to_filters(lw.random_paraunitary(8, 2, s[2])),
    }
    band64, band16 = lw.Band(-64, 64), lw.Band(-16, 16)
    reps = [("d4", d4, band64)] + [(name, system, band64) for name, system in seeded.items()]
    fixtures = {name: lw.loop_to_filters(loop) for name, loop in _commutant_fixtures().items()}
    return {
        "reps": [(name, system, band, _interior_vector(system, band, rng)) for name, system, band in reps],
        "symbols": [(name, lw.build_rep(system, band16)) for name, system in seeded.items()],
        "fixtures": fixtures,
        "cascades": [
            ("d4", d4, 18, _xi(rng), True),
            ("N=3 deg 2", _lowpass(3, 2, s[3]), 9, _xi(rng), False),
            ("N=4 deg 1", _lowpass(4, 1, s[4]), 8, _xi(rng), False),
        ],
    }


def representations() -> Workload:
    # The six commutant probes take about 9 s of a round and the other jobs
    # about 1.3 s, so a 30 s run holds three or four rounds.  The light jobs
    # run twice a round, before and after the probes, so that each of their
    # medians rests on twice the samples, taken apart in time.
    def jobs(inputs: dict, round_index: int) -> list[Job]:
        band = lw.Band(-COMMUTANT_BAND, COMMUTANT_BAND)
        light = (
            [_rep_job(*spec) for spec in inputs["reps"]]
            + [_symbol_job(*spec) for spec in inputs["symbols"]]
            + [_cascade_job(*spec) for spec in inputs["cascades"]]
            + [_box_third_job(10)]
        )
        return light + [_commutant_job(name, system, band) for name, system in inputs["fixtures"].items()] + light

    return Workload(build=_build_representations, jobs=jobs)


# -- cli-files ------------------------------------------------------------------------


def _poly_json(poly: tuple[int, np.ndarray]) -> dict:
    offset, c = poly
    return {"offset": int(offset), "coeffs": [[v.real, v.imag] for v in c]}


def _write_filters(path: Path, n: int, filters) -> None:
    doc = {"version": 1, "n": n, "filters": [_poly_json(f) for f in filters]}
    path.write_text(json.dumps(doc))


def _write_loop(path: Path, loop: tuple[int, np.ndarray]) -> None:
    lo, c = loop
    n = c.shape[1]
    entries = [[_poly_json((lo, c[:, i, j])) for j in range(n)] for i in range(n)]
    path.write_text(json.dumps({"version": 1, "n": n, "entries": entries}))


@dataclass
class CliInputs:
    workdir: Path
    filters: dict = field(default_factory=dict)  # file name -> (n, coefficient arrays)
    loops: dict = field(default_factory=dict)  # file name -> (lo, C)


def _build_cli(seed: int, workdir: Path) -> CliInputs:
    workdir.mkdir(parents=True, exist_ok=True)
    s = _seeds(seed, 8, salt=7)
    inputs = CliInputs(workdir)

    def filters(name: str, n: int, arrays) -> None:
        inputs.filters[name] = (n, arrays)
        _write_filters(workdir / name, n, arrays)

    def system(name: str, system) -> None:
        filters(name, system.n, ck.system_arrays(system))

    def loop(name: str, tensor) -> None:
        inputs.loops[name] = tensor
        _write_loop(workdir / name, tensor)

    system("d4.json", lw.daubechies4_system())
    system("f4.json", lw.loop_to_filters(lw.random_paraunitary(4, 3, s[0])))
    system("f8.json", lw.loop_to_filters(lw.random_paraunitary(8, 4, s[1])))
    system("lp2.json", _lowpass(2, 2, s[2]))
    loop("loop4.json", ck.loop_tensor(lw.random_paraunitary(4, 1, s[3]).mat.entries))
    lo, c = ck.loop_tensor(lw.random_paraunitary(4, 2, s[4]).mat.entries)
    loop("loopA.json", (lo, c))
    loop("loopVA.json", (lo, _unitary(4, np.random.default_rng(s[5])) @ c))
    filters("m0_2.json", 2, ck.system_arrays(_lowpass(2, 3, s[6]))[:1])
    filters("m0_4.json", 4, ck.system_arrays(lw.loop_to_filters(lw.random_paraunitary(4, 2, s[7])))[:1])
    filters("bad.json", 2, [(0, np.array([1.0, 1.0]) / math.sqrt(2)), (0, np.array([1.0, -1.0]) / math.sqrt(2))])
    (workdir / "broken.json").write_text("{")
    return inputs


def _cli_job(inputs: CliInputs, argv: list[str], exit_code: int, check=None, out: str | None = None) -> Job:
    """One ``loopwave.cli.main`` call; ``check(stdout, written bytes)`` follows."""
    d = inputs.workdir
    args = [str(d / a) if a.endswith(".json") or a.endswith(".csv") else a for a in argv]

    def run():
        stdout, stderr = io.StringIO(), io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(stderr):
            code = loopwave.cli.main(args)
        written = (d / out).read_bytes() if out and code == 0 else None
        return code, stdout.getvalue(), written

    def checked(result):
        code, stdout, written = result
        if code != exit_code:
            return [f"exit {code}, expected {exit_code}"]
        return check(stdout, written) if check else []

    return Job("cli-" + argv[0], " ".join(argv), run, checked)


def _cli_jobs(inputs: CliInputs) -> list[Job]:
    def passed(stdout, _):
        report = json.loads(stdout)
        return [] if report["passed"] else [f"report did not pass: {report}"]

    def witness_of(name):
        loop = inputs.loops[name] if name in inputs.loops else ck.polyphase(inputs.filters[name][1], inputs.filters[name][0])

        def check(stdout, _):
            report = json.loads(stdout)
            w = report["witness"]
            if report["status"] not in ("irreducible", "reducible") or (w is None) != (report["status"] == "irreducible"):
                return [f"classify status {report['status']}"]
            if w is None:
                return []
            vectors = np.array([[complex(*c) for c in v] for v in w["vectors"]]).T
            v_matrix = np.array([[complex(*c) for c in row] for row in w["v_matrix"]])
            if ck.witness_defect(loop, vectors, w["exponents"], v_matrix) > 1e-10:
                return ["classify witness fails A(z) v_k = z^n_k V v_k"]
            return []

        return check

    def equiv(stdout, _):
        verdict = json.loads(stdout)["verdict"]
        return [] if verdict == "equal-modulo-corner" else [f"equiv verdict {verdict}"]

    def written_loop(source):
        n, filters = inputs.filters[source]

        def check(_, data):
            loop = ck.loop_from_json(json.loads(data))
            errs = ["written loop is not paraunitary"] if ck.paraunitary_defect(loop) > 1e-10 else []
            if ck.coefficient_distance(loop, ck.polyphase(filters, n)) > 1e-12:
                errs.append("written loop is not the polyphase loop of the filters")
            return errs

        return check

    def written_filters(n, loop=None, m0=None):
        def check(_, data):
            filters = ck.filters_from_json(json.loads(data))
            errs = ["written filters are not QMF"] if ck.qmf_defect(filters, n) > 1e-10 else []
            if loop is not None and ck.polyphase_defect(filters, loop, n) > 1e-10:
                errs.append("written filters break the polyphase identity")
            if m0 is not None and ck.coefficient_distance(filters[0], m0) > 1e-12:
                errs.append("completion changed m_0")
            return errs

        return check

    def grid(_, data):
        return ck.check_grid_completion(data, inputs.filters["m0_4.json"][1][0], 4, 64)

    def csv(name, iters):
        n, filters = inputs.filters[name]
        return lambda _, data: ck.check_cascade_csv(data, filters, n, iters)

    return [
        _cli_job(inputs, ["verify", "d4.json", "--json"], 0, passed),
        _cli_job(inputs, ["verify", "f4.json", "--json"], 0, passed),
        _cli_job(inputs, ["verify", "bad.json", "--json"], 1),
        _cli_job(inputs, ["verify", "broken.json"], 2),
        _cli_job(inputs, ["classify", "loop4.json", "--json"], 0, witness_of("loop4.json")),
        _cli_job(inputs, ["classify", "f8.json", "--json"], 0, witness_of("f8.json")),
        _cli_job(inputs, ["equiv", "loopA.json", "loopVA.json", "--json"], 0, equiv),
        _cli_job(inputs, ["cuntz-check", "f4.json", "--band", "16", "--json"], 0, passed),
        _cli_job(inputs, ["convert", "f8.json", "--to", "loop", "--out", "out_loop.json"], 0, written_loop("f8.json"), "out_loop.json"),
        _cli_job(
            inputs,
            ["convert", "loop4.json", "--to", "filters", "--out", "out_filters.json"],
            0,
            written_filters(4, loop=inputs.loops["loop4.json"]),
            "out_filters.json",
        ),
        _cli_job(
            inputs,
            ["complete", "m0_2.json", "--mode", "fir2", "--out", "out_fir2.json"],
            0,
            written_filters(2, m0=inputs.filters["m0_2.json"][1][0]),
            "out_fir2.json",
        ),
        _cli_job(inputs, ["complete", "m0_4.json", "--mode", "grid", "--grid", "64", "--out", "out_grid.json"], 0, grid, "out_grid.json"),
        _cli_job(inputs, ["cascade", "d4.json", "--iters", "14", "--out", "d4.csv"], 0, csv("d4.json", 14), "d4.csv"),
        _cli_job(inputs, ["cascade", "lp2.json", "--iters", "12", "--out", "lp2.csv"], 0, csv("lp2.json", 12), "lp2.csv"),
    ]


def cli_files(workdir: Path) -> Workload:
    return Workload(build=lambda seed: _build_cli(seed, workdir), jobs=lambda inputs, round_index: _cli_jobs(inputs))


WORKLOADS = {
    "loop-sweep": lambda workdir: loop_sweep(),
    "representations": lambda workdir: representations(),
    "cli-files": cli_files,
}
