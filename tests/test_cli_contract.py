"""The CLI's behaviour contract: a pinned battery of calls, the exit-code
table, and how many certificates each command runs."""

import ast
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest

import loopwave as lw
from loopwave import FilterSystem, LaurentPoly, MatrixLaurent, cli, cuntz_rep, fileio, qmf
from loopwave.cli import main

from conftest import raised_d4_system, seeded_lowpass_system, seeded_system
from golden import assert_golden
from test_cli import COMMANDS, N3_FILTERS, ROOT2, _spread

#: The perturbation of loose.json: its certificate residual lies between the
#: default tolerance and 1e-6.
LOOSE = 3e-8


def _loose_loop() -> MatrixLaurent:
    tensor = np.array(lw.random_paraunitary(2, 3, 5).mat.tensor)
    tensor[0, 0, 0] += LOOSE
    return MatrixLaurent.from_tensor(0, tensor)


#: A constant unitary, the turn by 0.7 radians.
TURN = np.array([[np.cos(0.7), -np.sin(0.7)], [np.sin(0.7), np.cos(0.7)]], dtype=complex)


def _near_turn() -> MatrixLaurent:
    """TURN perturbed by LOOSE, paraunitary only within 1e-6."""
    c = TURN.copy()
    c[0, 0] += LOOSE
    return MatrixLaurent.from_constant(c)


def _fine_pair() -> tuple[MatrixLaurent, MatrixLaurent]:
    """Two loops perturbed by 4e-12 whose transition loop A star(B) has a
    larger certificate residual than either input."""
    pair = []
    for seed in (1, 51):
        tensor = np.array(lw.random_paraunitary(2, 2, seed).mat.tensor)
        tensor[0, 0, 0] += 4e-12
        pair.append(MatrixLaurent.from_tensor(0, tensor))
    return pair[0], pair[1]


def _near_pair(seed: int) -> tuple[MatrixLaurent, MatrixLaurent, float]:
    """(P, U P, tol): a seeded loop P, perturbed by up to tol, which lies
    between 1e-9 and 1e-5, and P turned by a random constant unitary U."""
    rng = np.random.default_rng(seed)
    n, degree = int(rng.choice([2, 3, 4])), int(rng.integers(1, 4))
    mat = lw.random_paraunitary(n, degree, seed).mat
    tol = 10 ** rng.uniform(-9, -5)
    scale = tol * rng.uniform(0.05, 1)
    e = rng.standard_normal(mat.tensor.shape) + 1j * rng.standard_normal(mat.tensor.shape)
    p = MatrixLaurent.from_tensor(mat.lo, mat.tensor + scale * e / np.abs(e).max())
    return p, MatrixLaurent.from_constant(lw.loopgroup.random_unitary(n, rng)) @ p, tol


def _write_inputs(root: Path) -> None:
    """The battery's inputs, written under root; missing.json is not."""
    filters = {
        "haar": lw.haar_system(),
        "d4": lw.daubechies4_system(),
        "lp3": seeded_lowpass_system(3, 2, 4),
        "sys4": seeded_system(4, 2, 7),
        "base2": lw.base_system(2),
        "scaled": FilterSystem(2, [LaurentPoly(0, (1 / ROOT2, 1 / ROOT2)), LaurentPoly(0, (1 / ROOT2, -1 / ROOT2))]),
        "cx": FilterSystem(2, [LaurentPoly(0, (0.5, 0.5)), LaurentPoly(0, (0.5j, -0.5j))]),
    }
    for name, system in filters.items():
        fileio.save_filter_file(root / f"{name}.json", system)
    (root / "n3.json").write_text(json.dumps(N3_FILTERS))
    (root / "m0.json").write_text(json.dumps({"version": 1, "n": 2, "filters": [{"offset": 0, "coeffs": [[0.5, 0], [0.5, 0]]}]}))
    (root / "m0n3.json").write_text(json.dumps({**N3_FILTERS, "filters": N3_FILTERS["filters"][:1]}))
    loops = {
        "ident": MatrixLaurent.identity(2),
        "diag": MatrixLaurent.diag([LaurentPoly.monomial(2), LaurentPoly.monomial(5)]),
        "loop2": lw.random_paraunitary(2, 3, 1).mat,
        "loop4": lw.random_paraunitary(4, 2, 3).mat,
        "loose": _loose_loop(),
        "badloop": MatrixLaurent.from_constant(np.diag([1.0, 2.0])),
    }
    for name, mat in loops.items():
        fileio.save_loop_file(root / f"{name}.json", mat)
    (root / "broken.json").write_text("{not json")
    # Inputs of the exit-code table only, none of them a battery input.
    haar = json.loads((root / "haar.json").read_text())
    ident = json.loads((root / "ident.json").read_text())
    malformed = {
        "coeffs5": {**haar, "filters": [{"offset": 0, "coeffs": 5}] * 2},
        "coeffsnull": {**haar, "filters": [{"offset": 0, "coeffs": None}] * 2},
        "bigint": {**haar, "filters": [{"offset": 0, "coeffs": [[10**400, 0]]}] * 2},
        "bigoffset": {**haar, "filters": [{**f, "offset": 10**20} for f in haar["filters"]]},
        "bigoffsetloop": {**ident, "entries": [[{**e, "offset": 10**20} for e in row] for row in ident["entries"]]},
        "m0huge": {"version": 1, "n": 10**9, "filters": [{"offset": 0, "coeffs": [[0.5, 0], [0.5, 0]]}]},
        "m0far": {"version": 1, "n": 2, "filters": [{"offset": 2**31 - 1, "coeffs": [[0.5, 0], [0.5, 0]]}]},
        "booloffset": {**haar, "filters": [{**f, "offset": True} for f in haar["filters"]]},
        "boolcoeff": {**haar, "filters": [{**f, "coeffs": [[True, False]] + f["coeffs"][1:]} for f in haar["filters"]]},
        "boolversion": {**haar, "version": True},
        # polyphase loops of LAG_BUDGET lags and one more: m_1 times z^2046 and z^2048, and diag(1, z^1024)
        "lagsat": {**haar, "filters": [haar["filters"][0], {**haar["filters"][1], "offset": 2046}]},
        "lagsover": {**haar, "filters": [haar["filters"][0], {**haar["filters"][1], "offset": 2048}]},
        "loopover": {**ident, "entries": [ident["entries"][0], [ident["entries"][1][0], {**ident["entries"][1][1], "offset": 1024}]]},
        # diag(1, z^64): paraunitary, and over the --band 100000 and commutant budgets
        "wideloop": {**ident, "entries": [ident["entries"][0], [ident["entries"][1][0], {**ident["entries"][1][1], "offset": 64}]]},
        # the identity times z^(2^30), whose filters sit at offsets 2^31 and 2^31 + 1
        "loopfar": {**ident, "entries": [[{**e, "offset": 2**30} for e in row] for row in ident["entries"]]},
        # m_1 is placed one above m_0's offset, at 2^31
        "m0odd": {"version": 1, "n": 2, "filters": [{"offset": 2**31 - 1, "coeffs": [[0.5, 0], [0.5, 0], [1e-12, 0]]}]},
        # a grid of N^3 = 10^1200 values, an estimate beyond float range
        "m0vast": {"version": 1, "n": 10**400, "filters": [{"offset": 0, "coeffs": [[0.5, 0], [0.5, 0]]}]},
        # m_0 = (-1/2, 2, -1/2): certificate residual 7.5, scalar residual 4, m_0(1) = 1; its cascade diverges
        "diverging": {**haar, "filters": [{"offset": 0, "coeffs": [[-0.5, 0], [2, 0], [-0.5, 0]]}, {"offset": 0, "coeffs": [[0.5, 0], [-0.5, 0]]}]},
        # every filter identically zero: no attractor band, and a certificate residual of 1
        "zero": {**haar, "filters": [{"offset": 0, "coeffs": [[0, 0]]}] * 2},
    }
    for name, doc in malformed.items():
        (root / f"{name}.json").write_text(json.dumps(doc))
    fileio.save_filter_file(root / "d4p.json", raised_d4_system())
    fileio.save_filter_file(root / "d4loose.json", raised_d4_system(1e-5))


INPUTS = [
    "haar", "d4", "lp3", "sys4", "base2", "scaled", "cx", "n3", "m0", "m0n3",
    "ident", "diag", "loop2", "loop4", "loose", "badloop", "broken", "missing",
]

ARGUMENT_SETS = [
    "verify {p} --json",
    "verify {p} --tol 1e-6",
    "convert {p} --to loop --out out.json",
    "convert {p} --to filters --out out.json",
    "classify {p} --json",
    "classify {p} --tol 1e-6",
    "cascade {p} --iters 4 --out out.csv",
    "cuntz-check {p} --band 3 --json",
    "equiv {p} loop2.json --json",
    "equiv {p} loop2.json --tol 1e-6",
    "complete {p} --mode fir2 --out out.json",
    "complete {p} --mode grid --grid 12 --out out.json",
    "commutant {p} --json",
    "commutant {p} --tol 1e-6",
]

BATTERY = [s.format(p=f"{name}.json").split() for name in INPUTS for s in ARGUMENT_SETS] + [
    "equiv loop2.json loose.json --tol 1e-6".split(),
    "cuntz-check d4.json --band -1".split(),
    "cascade d4.json --iters -1 --out out.csv".split(),
    "commutant d4.json --band -5".split(),
]

def _run(argv: list[str]) -> tuple[int, str, str, bytes | None]:
    """(exit code, stdout, stderr, bytes written to out.*) of one call;
    the written file is removed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    written = None
    for path in (Path("out.json"), Path("out.csv")):
        if path.exists():
            written = path.read_bytes()
            path.unlink()
    return code, out.getvalue(), err.getvalue(), written


def battery_text() -> str:
    """tests/golden/battery.jsonl: one JSON line [argv, exit code, stdout,
    SHA-256 of the bytes written or "-"] per BATTERY call, in order, run in
    a fresh directory of inputs."""
    lines, cwd = [], os.getcwd()
    with tempfile.TemporaryDirectory() as root:
        _write_inputs(Path(root))
        os.chdir(root)
        try:
            for argv in BATTERY:
                code, out, _, written = _run(argv)
                digest = "-" if written is None else hashlib.sha256(written).hexdigest()
                lines.append(json.dumps([argv, code, out, digest]) + "\n")
        finally:
            os.chdir(cwd)
    return "".join(lines)


@pytest.fixture
def inputs(tmp_path, monkeypatch):
    monkeypatch.delenv("LOOPWAVE_TOL", raising=False)
    monkeypatch.chdir(tmp_path)
    _write_inputs(tmp_path)
    return tmp_path


class TestBattery:
    def test_pinned_outputs(self, monkeypatch):
        monkeypatch.delenv("LOOPWAVE_TOL", raising=False)
        assert_golden("battery.jsonl", battery_text())

    def test_json_output_is_strict(self, inputs):
        """Every --json stdout parses as RFC 8259 JSON: a NaN or infinite
        value prints as null, as cuntz-check's completeness residual does
        on a band with no interior."""

        def refuse(constant):
            raise AssertionError(f"{constant} is not JSON")

        for argv in [argv for argv in BATTERY if "--json" in argv]:
            out = _run(argv)[1]
            if out:
                json.loads(out, parse_constant=refuse)
        report = json.loads(_run("cuntz-check d4.json --band 0 --json".split())[1], parse_constant=refuse)
        assert report["interior"] is None and report["completeness_residual"] is None
        assert "\ncompleteness_residual: nan\n" in _run("cuntz-check d4.json --band 0".split())[1]  # text: unchanged


class TestOneOwner:
    """fileio writes every [re, im] pair and every v1 document, and the
    verify and cuntz-check reports are their library dataclasses."""

    def test_the_cli_builds_no_pair_and_no_document(self):
        tree = ast.parse(Path(cli.__file__).read_text())
        built = []
        for node in ast.walk(tree):
            if isinstance(node, ast.List) and [getattr(e, "attr", None) for e in node.elts] == ["real", "imag"]:
                built.append(f"line {node.lineno}: an [re, im] pair")
            if isinstance(node, ast.Dict) and any(isinstance(k, ast.Constant) and k.value == "version" for k in node.keys):
                built.append(f"line {node.lineno}: a versioned document")
        assert built == []

    @pytest.mark.parametrize(
        "argv, report, own",
        [
            ("verify d4.json --json", qmf.QmfReport, {"passed"}),
            ("cuntz-check d4.json --band 3 --json", cuntz_rep.CuntzReport, {"tol", "passed"}),
        ],
        ids=["verify", "cuntz-check"],
    )
    def test_json_keys_are_the_report_fields(self, argv, report, own, inputs):
        code, out, _, _ = _run(argv.split())
        assert code == 0
        assert set(json.loads(out)) == {f.name for f in dataclasses.fields(report)} | own


class TestCallerTolerance:
    """Inputs that pass at --tol are compared at --tol: the transition loop
    A star(B) is certified at the same tolerance."""

    def test_loose_loop_passes_only_at_the_looser_tolerance(self):
        ok, residual = _loose_loop().is_paraunitary(1e-6)
        assert ok and residual > 1e-10

    def test_equiv_cli(self, inputs):
        assert _run(["equiv", "loose.json", "loop2.json"])[0] == 1
        code, out, err, _ = _run(["equiv", "loose.json", "loop2.json", "--tol", "1e-6", "--json"])
        assert (code, err) == (0, "")
        assert json.loads(out)["verdict"] == lw.irreducibility.INEQUIVALENT

    def test_equivalent_library(self):
        a = lw.certify_loop(_loose_loop(), 1e-6)
        b = lw.random_paraunitary(2, 3, 2)
        assert lw.equivalent(a, b, tol=1e-6) == lw.irreducibility.INEQUIVALENT
        with pytest.raises(ValueError, match="not paraunitary"):
            lw.equivalent(a, b)

    def test_corners_are_found_at_the_callers_tolerance(self, inputs):
        """A loop certified only within --tol has its corners searched and
        re-checked at --tol, so the exact verdict comes out, not a crash."""
        fileio.save_loop_file(inputs / "turn.json", _near_turn())
        fileio.save_loop_file(inputs / "uloose.json", MatrixLaurent.from_constant(TURN) @ _loose_loop())
        for argv in (["equiv", "turn.json", "ident.json"], ["equiv", "loose.json", "uloose.json"]):
            code, out, err, _ = _run(argv + ["--tol", "1e-6", "--json"])
            assert (code, err) == (0, "")
            assert json.loads(out)["verdict"] == lw.irreducibility.EQUAL_MODULO_CORNER
        code, out, err, _ = _run(["classify", "turn.json", "--tol", "1e-6", "--json"])
        assert (code, err) == (0, "")
        report = json.loads(out)
        assert (report["status"], report["witness"]["rank"]) == (lw.irreducibility.REDUCIBLE, 2)

    def test_corner_library(self):
        c = lw.certify_loop(_near_turn(), 1e-6)
        ident = lw.certify_loop(MatrixLaurent.identity(2))
        assert lw.equivalent(c, ident, tol=1e-6) == lw.irreducibility.EQUAL_MODULO_CORNER
        assert lw.detect_corner(c, 1e-6).m == 2
        with pytest.raises(ValueError, match="re-verification"):
            lw.detect_corner(c)

    @pytest.mark.parametrize("seed", range(48))
    def test_near_loops_fail_in_one_line(self, seed, inputs):
        """Loops paraunitary only within --tol get a verdict or one failure
        line from classify and equiv, never a traceback."""
        p, up, tol = _near_pair(seed)
        fileio.save_loop_file(inputs / "p.json", p)
        fileio.save_loop_file(inputs / "up.json", up)
        for argv in (["classify", "p.json"], ["equiv", "p.json", "up.json"]):
            code, _, err, _ = _run(argv + ["--tol", repr(tol)])
            assert code in (0, 1)
            assert err == "" or (err.startswith("failure: ") and err.count("\n") == 1)

    @pytest.mark.parametrize("name", ["d4", "r3"])
    def test_rank_decisions_refuse_tol_one(self, name, inputs):
        fileio.save_loop_file(inputs / "r3.json", lw.random_paraunitary(3, 2, 5).mat)
        code, out, err, _ = _run(["classify", f"{name}.json", "--tol", "1"])
        assert (code, out) == (1, "")
        assert err.startswith("failure: tol 1.0 >= 1 decides no rank") and err.count("\n") == 1

    def test_equiv_refusal_names_the_transition_loop(self, inputs):
        """Both inputs pass at --tol but their transition loop does not."""
        p, up, tol = _near_pair(5)
        assert p.is_paraunitary(tol).ok and up.is_paraunitary(tol).ok
        fileio.save_loop_file(inputs / "p.json", p)
        fileio.save_loop_file(inputs / "up.json", up)
        code, out, err, _ = _run(["equiv", "p.json", "up.json", "--tol", repr(tol)])
        assert (code, out) == (1, "")
        assert err.startswith("failure: the loops are not compared: their transition loop A star(B) is not paraunitary")
        assert err.endswith(f" > tol {tol:.3e}\n") and err.count("\n") == 1

    def test_finer_tolerance_than_the_default(self, inputs):
        """Below 1e-10 the transition loop is certified at 1e-10, so inputs
        that pass at --tol are compared even when the product's round-off
        exceeds --tol."""
        a, b = _fine_pair()
        tol = max(a.is_paraunitary().residual, b.is_paraunitary().residual)
        assert 1e-14 < tol < (a @ b.star()).is_paraunitary().residual < 1e-10
        fileio.save_loop_file(inputs / "fa.json", a)
        fileio.save_loop_file(inputs / "fb.json", b)
        for argv in (["equiv", "fa.json", "fb.json", "--tol", repr(tol)], ["equiv", "d4.json", "loop2.json", "--tol", "1e-14"]):
            code, out, err, _ = _run(argv)
            assert (code, out, err) == (0, f"verdict: {lw.irreducibility.INEQUIVALENT}\n", "")


NAN = float("nan")
#: m_0 = (1/3, 1/3, 1/3): scalar QMF residual 1/6, so only a NaN tol could pass it.
THIRDS = LaurentPoly(0, (1 / 3, 1 / 3, 1 / 3))


def _d4_rep():
    return lw.build_rep(lw.daubechies4_system(), lw.Band(-4, 4))


#: (case, call, exception it raises or None for a verdict, match of its message)
NAN_CASES = [
    ("cascade", lambda: lw.cascade(THIRDS, 2, 3, tol=NAN), ValueError, "scalar QMF condition at tol nan: "),
    ("complete fir2", lambda: lw.complete(THIRDS, 2, tol=NAN), ValueError, "scalar QMF condition at tol nan: "),
    ("complete grid", lambda: lw.complete(THIRDS, 2, mode="grid", grid_size=8, tol=NAN), ValueError, "scalar QMF condition at tol nan: "),
    ("transition_operator_matrix", lambda: lw.transition_operator_matrix(_d4_rep(), _d4_rep(), tol=NAN), RuntimeError, "at tol nan: "),
    ("commutant_diagnostic", lambda: lw.commutant_diagnostic(_d4_rep(), NAN), ValueError, "^tol nan decides no commutant"),
    ("graded_kernels", lambda: lw.graded_kernels(lw.random_paraunitary(2, 3, 0), NAN), ValueError, "^tol nan decides no rank: it is NaN$"),
    ("verify_qmf", lambda: lw.verify_qmf(lw.daubechies4_system(), tol=NAN).passed, None, None),
    ("low_pass_check", lambda: lw.low_pass_check(lw.daubechies4_lowpass(), NAN), None, None),
    ("is_paraunitary", lambda: MatrixLaurent.identity(2).is_paraunitary(NAN).ok, None, None),
    ("certify_loop", lambda: lw.certify_loop(MatrixLaurent.identity(2), NAN), ValueError, r"^not certified at tol nan: residual 0\.000e\+00, and NaN compares with nothing$"),
]


class TestOneToleranceRule:
    """Every verdict is written as residual <= tol, so a NaN tol accepts
    nothing, and CERTIFY_TOL is the only default."""

    @pytest.mark.parametrize("call, error, match", [c[1:] for c in NAN_CASES], ids=[c[0] for c in NAN_CASES])
    def test_nan_tol_never_passes(self, call, error, match):
        if error is None:
            assert call() is False
        else:
            with pytest.raises(error, match=match):
                call()

    def test_low_pass_at_the_callers_tol(self):
        d4p = raised_d4_system()
        assert lw.verify_qmf(d4p, tol=1e-6).low_pass
        assert not lw.verify_qmf(d4p).low_pass

    def test_equivalent_names_differing_sizes(self):
        with pytest.raises(ValueError, match="^the loops are not compared: sizes 2 and 4 differ$"):
            lw.equivalent(lw.random_paraunitary(2, 3, 1), lw.random_paraunitary(4, 2, 3))

    def test_one_default_tolerance(self):
        """No module-level name but CERTIFY_TOL is bound to 1e-10, so no
        second default can drift from it."""
        bound = []
        for path in sorted(Path(lw.__file__).parent.glob("*.py")):
            for node in ast.parse(path.read_text()).body:
                if isinstance(node, ast.Assign):
                    targets, value = node.targets, node.value
                elif isinstance(node, ast.AnnAssign) and node.value is not None:
                    targets, value = [node.target], node.value
                else:
                    continue
                if isinstance(value, ast.Constant) and value.value == 1e-10:
                    bound += [f"{path.name}: {t.id}" for t in targets if isinstance(t, ast.Name)]
        assert bound == ["laurent.py: CERTIFY_TOL"]


#: (argv, certificates run, verify_qmf calls) for calls that pass.
CERTIFICATE_COUNTS = [
    ("verify d4.json", 1, 1),
    ("convert d4.json --to loop --out out.json", 1, 0),
    ("convert loop2.json --to filters --out out.json", 1, 0),
    ("classify d4.json", 1, 0),
    ("classify loop4.json", 1, 0),
    ("cascade d4.json --iters 4 --out out.csv", 1, 0),
    ("cascade lp3.json --iters 3 --out out.csv", 1, 0),
    ("cuntz-check d4.json --band 3", 1, 0),
    ("cuntz-check loop2.json --band 3", 1, 0),
    ("commutant d4.json", 1, 0),
    ("commutant loop4.json", 1, 0),
    # two inputs and the transition loop of two loops that differ
    ("equiv d4.json loop2.json", 3, 0),
    # the completed system's certificate, with no grid evaluation
    ("complete m0.json --mode fir2 --out out.json", 1, 0),
    ("complete m0n3.json --mode grid --out out.json", 0, 0),
]


class TestCertificateCount:
    @pytest.mark.parametrize("argv, certificates, reports", CERTIFICATE_COUNTS, ids=[c[0].split(" --out")[0] for c in CERTIFICATE_COUNTS])
    def test_one_certificate_per_input(self, argv, certificates, reports, inputs, monkeypatch):
        calls = {"is_paraunitary": 0, "verify_qmf": 0}

        def counted(owner, name):
            original = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)

        counted(MatrixLaurent, "is_paraunitary")
        counted(qmf, "verify_qmf")
        assert _run(argv.split())[0] == 0
        assert calls == {"is_paraunitary": certificates, "verify_qmf": reports}


def _over_budget_commutant(root: Path) -> str:
    """A QMF file whose attractor band K makes sigma's |K|^4 entries exceed
    the budget."""
    from loopwave.cli import BAND_ENTRY_BUDGET

    j = 1
    while cuntz_rep.attractor_band(_spread(lw.haar_system(), j)).size ** 4 <= BAND_ENTRY_BUDGET:
        j *= 2
    fileio.save_filter_file(root / "wide.json", _spread(lw.haar_system(), j))
    return "wide.json"


#: Per command, each input case that applies: (case, argv, exit code, prefix
#: of the one stderr line, or None when stderr is empty).
CONTRACT = {
    "verify": [
        ("missing file", "verify missing.json", 2, "error: "),
        ("broken JSON", "verify broken.json", 2, "error: "),
        ("wrong kind", "verify loop2.json", 2, "error: "),
        # the report goes to stdout
        ("not paraunitary", "verify scaled.json", 1, None),
        ("over budget", f"verify haar.json --grid {2 * 10**18}", 2, "error: "),
        ("over budget beyond float range", f"verify haar.json --grid {2 * 10**400}", 2, "error: "),
        # checked by the library's grid rule before any budget
        ("over budget, not a multiple of N", f"verify d4.json --grid {2 * 10**18 + 1}", 1, "failure: "),
        ("offset too large", "verify bigoffset.json", 2, "error: "),
        # JSON true and false are not numbers, though bool subclasses int
        ("boolean offset", "verify booloffset.json", 2, "error: "),
        ("boolean coefficient", "verify boolcoeff.json", 2, "error: "),
        ("boolean version", "verify boolversion.json --json", 2, "error: "),
        ("negative size", "verify haar.json --grid -2", 1, "failure: "),
        ("NaN tol", "verify haar.json --tol nan", 2, "error: "),
        # Haar's unitary and scalar residuals are exactly 0
        ("tol 0", "verify haar.json --tol 0", 0, None),
        ("span over budget", "verify lagsover.json", 2, "error: "),
    ],
    "convert --to loop": [
        ("missing file", "convert missing.json --to loop --out out.json", 2, "error: "),
        ("broken JSON", "convert broken.json --to loop --out out.json", 2, "error: "),
        ("wrong kind", "convert loop2.json --to loop --out out.json", 2, "error: "),
        ("not paraunitary", "convert scaled.json --to loop --out out.json", 1, "failure: "),
        ("span at the budget", "convert lagsat.json --to loop --out out.json", 0, None),
        ("span over budget", "convert lagsover.json --to loop --out out.json", 2, "error: "),
        ("NaN tol", "convert haar.json --to loop --out out.json --tol nan", 2, "error: "),
        ("offset too large", "convert bigoffset.json --to loop --out out.json", 2, "error: "),
        ("--out in a missing directory", "convert haar.json --to loop --out nodir/out.json", 2, "error: "),
        ("--out a directory", "convert haar.json --to loop --out .", 2, "error: "),
    ],
    "convert --to filters": [
        ("missing file", "convert missing.json --to filters --out out.json", 2, "error: "),
        ("broken JSON", "convert broken.json --to filters --out out.json", 2, "error: "),
        ("wrong kind", "convert haar.json --to filters --out out.json", 2, "error: "),
        ("not paraunitary", "convert badloop.json --to filters --out out.json", 1, "failure: "),
        ("NaN tol", "convert loop2.json --to filters --out out.json --tol nan", 2, "error: "),
        ("offset too large", "convert bigoffsetloop.json --to filters --out out.json", 2, "error: "),
        # the loop loads, but its filters would not
        ("writes an offset its loader refuses", "convert loopfar.json --to filters --out out.json", 2, "error: "),
        ("span over budget", "convert loopover.json --to filters --out out.json", 2, "error: "),
        ("--out in a missing directory", "convert loop2.json --to filters --out nodir/out.json", 2, "error: "),
        ("--out a directory", "convert loop2.json --to filters --out .", 2, "error: "),
    ],
    "classify": [
        ("missing file", "classify missing.json", 2, "error: "),
        ("broken JSON", "classify broken.json", 2, "error: "),
        ("not paraunitary", "classify badloop.json", 1, "failure: "),
        ("not QMF", "classify scaled.json", 1, "failure: "),
        ("NaN tol", "classify haar.json --tol nan", 2, "error: "),
        ("coeffs not a list", "classify coeffs5.json", 2, "error: "),
        ("coeffs null", "classify coeffsnull.json", 2, "error: "),
        ("integer too large for a float", "classify bigint.json", 2, "error: "),
        ("offset too large", "classify bigoffset.json", 2, "error: "),
        ("span over budget", "classify lagsover.json", 2, "error: "),
        ("loop span over budget", "classify loopover.json", 2, "error: "),
    ],
    "cascade": [
        ("missing file", "cascade missing.json --iters 2 --out out.csv", 2, "error: "),
        ("broken JSON", "cascade broken.json --iters 2 --out out.csv", 2, "error: "),
        ("wrong kind", "cascade loop2.json --iters 2 --out out.csv", 2, "error: "),
        ("not paraunitary", "cascade scaled.json --iters 2 --out out.csv", 1, "failure: "),
        ("not low-pass", "cascade base2.json --iters 2 --out out.csv", 1, "failure: "),
        # |m_0(1) - 1| = 1e-8: low-pass at --tol
        ("low-pass at --tol only", "cascade d4p.json --iters 3 --tol 1e-6 --out out.csv", 0, None),
        ("over budget", f"cascade d4.json --iters {10**9} --out out.csv", 2, "error: "),
        ("over budget beyond float range", f"cascade haar.json --iters {10**400} --out out.csv", 2, "error: "),
        ("diverges", "cascade diverging.json --iters 12 --tol 10 --out out.csv", 1, "failure: "),
        ("negative size", "cascade d4.json --iters -1 --out out.csv", 2, "error: "),
        ("NaN tol", "cascade d4.json --iters 2 --out out.csv --tol nan", 2, "error: "),
        ("offset too large", "cascade bigoffset.json --iters 2 --out out.csv", 2, "error: "),
        ("span over budget", "cascade lagsover.json --iters 2 --out out.csv", 2, "error: "),
        ("--out in a missing directory", "cascade d4.json --iters 2 --out nodir/out.csv", 2, "error: "),
        ("--out a directory", "cascade d4.json --iters 2 --out .", 2, "error: "),
    ],
    "cuntz-check": [
        ("missing file", "cuntz-check missing.json --band 2", 2, "error: "),
        ("broken JSON", "cuntz-check broken.json --band 2", 2, "error: "),
        ("not paraunitary", "cuntz-check badloop.json --band 2", 1, "failure: "),
        ("over budget", f"cuntz-check d4.json --band {10**18}", 2, "error: "),
        ("over budget beyond float range", f"cuntz-check haar.json --band {10**400}", 2, "error: "),
        # estimated from the loop's interleaved filters, before its certificate
        ("over budget, loop file", "cuntz-check wideloop.json --band 100000", 2, "error: "),
        ("span over budget", "cuntz-check loopover.json --band 2", 2, "error: "),
        ("negative size", "cuntz-check d4.json --band -1", 2, "error: "),
        ("NaN tol", "cuntz-check d4.json --band 2 --tol nan", 2, "error: "),
        ("offset too large", "cuntz-check bigoffset.json --band 2", 2, "error: "),
    ],
    "equiv": [
        ("missing file", "equiv missing.json loop2.json", 2, "error: "),
        ("broken JSON", "equiv loop2.json broken.json", 2, "error: "),
        ("not paraunitary", "equiv loop2.json badloop.json", 1, "failure: "),
        ("sizes differ", "equiv loop2.json loop4.json", 1, "failure: the loops are not compared: "),
        ("NaN tol", "equiv loop2.json loop2.json --tol nan", 2, "error: "),
        ("offset too large", "equiv loop2.json bigoffsetloop.json", 2, "error: "),
        ("span over budget", "equiv loop2.json lagsover.json", 2, "error: "),
    ],
    "complete": [
        ("missing file", "complete missing.json --out out.json", 2, "error: "),
        ("broken JSON", "complete broken.json --out out.json", 2, "error: "),
        ("wrong kind", "complete loop2.json --out out.json", 2, "error: "),
        ("not QMF", "complete scaled.json --out out.json", 1, "failure: "),
        ("over budget", f"complete m0.json --mode grid --grid {2 * 10**18} --out out.json", 2, "error: "),
        ("over budget beyond float range", "complete m0vast.json --mode grid --out out.json", 2, "error: "),
        # fir2 builds no grid, so --grid is only checked to be a multiple of N
        ("fir2 at a huge grid", f"complete m0.json --grid {2 * 10**18} --out out.json", 0, None),
        # refused before m_0 is padded to blocks of N
        ("fir2 at n = 10^9", "complete m0huge.json --out out.json", 1, "failure: "),
        # m_1 is placed beside m_0, so the polyphase loop spans at most 2 lags
        ("fir2 at offset 2^31 - 1", "complete m0far.json --out out.json", 0, None),
        ("fir2 writes an offset its loader refuses", "complete m0odd.json --out out.json", 2, "error: "),
        ("span over budget", "complete lagsover.json --out out.json", 2, "error: "),
        ("offset too large", "complete bigoffset.json --out out.json", 2, "error: "),
        ("--out in a missing directory", "complete m0.json --out nodir/out.json", 2, "error: "),
        ("--out a directory", "complete m0.json --out .", 2, "error: "),
        ("negative size", "complete m0.json --grid -2 --out out.json", 1, "failure: "),
        ("NaN tol", "complete m0.json --out out.json --tol nan", 2, "error: "),
    ],
    "commutant": [
        ("missing file", "commutant missing.json", 2, "error: "),
        ("broken JSON", "commutant broken.json", 2, "error: "),
        ("not paraunitary", "commutant badloop.json", 1, "failure: "),
        ("over budget", "commutant {wide}", 2, "error: "),
        ("over budget, loop file", "commutant wideloop.json", 2, "error: "),
        ("span over budget", "commutant loopover.json", 2, "error: "),
        ("negative size", "commutant d4.json --band -5", 2, "error: "),
        ("NaN tol", "commutant d4.json --tol nan", 2, "error: "),
        ("offset too large", "commutant bigoffset.json", 2, "error: "),
        # charged |K| = 0, then refused by its certificate like every other command
        ("identically zero", "commutant zero.json", 1, "failure: zero.json: not paraunitary: residual 1.000e+00 > tol "),
        # the smallest singular value of sigma - I is about 2e-16, so none counts
        ("--commutant-tol 0", "commutant haar.json --commutant-tol 0", 1, "failure: haar.json: tol 0.0 decides no commutant dimension: "),
        # two singular values of the base monomials' sigma - I are exactly 0: dimension 2
        ("--commutant-tol 0, exact system", "commutant base2.json --commutant-tol 0 --json", 0, None),
        # certified at --tol 1e-4 (residual 1.37e-5); the smallest singular value, 4.8e-6, is over the default 1e-6
        (
            "certified at a loose --tol",
            "commutant d4loose.json --tol 1e-4",
            1,
            "failure: d4loose.json: tol 1e-06 decides no commutant dimension: ",
        ),
    ],
}

CONTRACT_CASES = [(command,) + case for command, cases in CONTRACT.items() for case in cases]


class TestExitCodeContract:
    def test_every_command_is_covered(self):
        assert {argv.split()[0] for _, _, argv, _, _ in CONTRACT_CASES} == set(COMMANDS)

    @pytest.mark.parametrize(
        "command, case, argv, code, prefix", CONTRACT_CASES, ids=[f"{c[0]}: {c[1]}" for c in CONTRACT_CASES]
    )
    def test_exit_code(self, command, case, argv, code, prefix, inputs):
        wide = _over_budget_commutant(inputs) if "{wide}" in argv else None
        got, _, err, written = _run(argv.format(wide=wide).split())
        assert got == code
        assert (written is None) == (code != 0 or "--out" not in argv)
        if prefix is None:
            assert err == ""
        else:
            assert err.startswith(prefix) and err.count("\n") == 1


class TestRefusedBeforeTheCertificate:
    """Budgets and spans are read off the loaded input, so a refused call
    runs no certificate, however long that certificate would take."""

    @pytest.mark.parametrize(
        "argv",
        [
            "cuntz-check {wide} --band 100000",
            "cuntz-check wideloop.json --band 100000",
            "commutant {wide}",
            "commutant wideloop.json",
            "verify lagsover.json",
            "classify lagsover.json",
            "classify loopover.json",
            "complete lagsover.json --out out.json",
        ],
    )
    def test_no_certificate(self, argv, inputs, monkeypatch):
        import loopwave.cli

        def refuse(*args, **kwargs):
            pytest.fail("a certificate ran")

        monkeypatch.setattr(loopwave.cli, "certify_loop", refuse)
        monkeypatch.setattr(MatrixLaurent, "is_paraunitary", refuse)
        code, _, err, written = _run(argv.format(wide=_over_budget_commutant(inputs)).split())
        assert (code, written) == (2, None)
        assert err.startswith("error: ") and "over the budget of" in err

    def test_files_at_the_span_budget_verify(self, inputs):
        at = json.loads((inputs / "loopover.json").read_text())
        at["entries"][1][1]["offset"] = 1023
        (inputs / "loopat.json").write_text(json.dumps(at))
        assert len(fileio.load_loop_file(inputs / "loopat.json").tensor) == fileio.LAG_BUDGET
        assert len(lw.filters_to_loop(fileio.load_filter_file(inputs / "lagsat.json")).mat.tensor) == fileio.LAG_BUDGET
        for argv in ("verify lagsat.json", "classify loopat.json"):
            code, _, err, _ = _run(argv.split())
            assert (code, err) == (0, "")

    def test_a_refused_write_leaves_the_file(self, inputs):
        Path("out.json").write_text("kept")
        code, _, err, _ = _run("convert loopfar.json --to filters --out out.json".split())
        assert code == 2
        assert err == "error: out.json: filter 0: offset must be an integer of modulus below 2^31\n"
