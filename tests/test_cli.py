import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from loopwave import FilterSystem, LaurentPoly, MatrixLaurent, base_system, daubechies4_system, haar_system
import loopwave
from loopwave import cuntz_rep, fileio
from loopwave.cli import main

ROOT2 = math.sqrt(2.0)


@pytest.fixture
def haar_path(tmp_path):
    path = tmp_path / "haar.json"
    fileio.save_filter_file(path, haar_system())
    return str(path)


@pytest.fixture
def d4_path(tmp_path):
    path = tmp_path / "d4.json"
    fileio.save_filter_file(path, daubechies4_system())
    return str(path)


@pytest.fixture
def scaled_haar_path(tmp_path):
    bad = FilterSystem(
        2,
        [LaurentPoly(0, (1 / ROOT2, 1 / ROOT2)), LaurentPoly(0, (1 / ROOT2, -1 / ROOT2))],
    )
    path = tmp_path / "scaled-haar.json"
    fileio.save_filter_file(path, bad)
    return str(path)


@pytest.fixture
def identity_loop_path(tmp_path):
    path = tmp_path / "ident.json"
    fileio.save_loop_file(path, MatrixLaurent.identity(2))
    return str(path)


class TestVerify:
    def test_haar_passes(self, haar_path, capsys):
        assert main(["verify", haar_path, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["passed"] is True
        assert report["unitary_residual"] <= 1e-12

    def test_scaled_haar_fails_with_scalar_residual(self, scaled_haar_path, capsys):
        assert main(["verify", scaled_haar_path, "--json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["passed"] is False
        assert report["scalar_residual"] == pytest.approx(0.5, abs=1e-12)

    def test_scale3_default_grid(self, tmp_path, capsys):
        path = tmp_path / "n3.json"
        path.write_text(json.dumps(N3_FILTERS))
        assert main(["verify", str(path), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["passed"] is True
        assert main(["verify", str(path), "--grid", "256"]) == 1
        assert "multiple of 3" in capsys.readouterr().err

    def test_missing_file_is_usage_error(self, tmp_path):
        assert main(["verify", str(tmp_path / "nope.json")]) == 2

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["verify", str(path)]) == 2

    def test_wrong_schema(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"version": 1, "n": 2, "filters": [{"offset": 0}]}))
        assert main(["verify", str(path)]) == 2


class TestConvert:
    def test_haar_to_loop(self, haar_path, tmp_path, capsys):
        out = tmp_path / "haar-loop.json"
        assert main(["convert", haar_path, "--to", "loop", "--out", str(out)]) == 0
        mat = fileio.load_loop_file(out)
        expected = MatrixLaurent.from_constant(np.array([[1, 1], [1, -1]]) / ROOT2)
        assert mat.distance(expected) <= 1e-12

    def test_identity_loop_to_base_filters(self, identity_loop_path, tmp_path):
        out = tmp_path / "filters.json"
        assert main(["convert", identity_loop_path, "--to", "filters", "--out", str(out)]) == 0
        system = fileio.load_filter_file(out)
        assert isinstance(system, FilterSystem)
        assert system.distance(base_system(2)) <= 1e-12

    def test_round_trip_stability(self, d4_path, tmp_path):
        loop_path = tmp_path / "loop.json"
        back_path = tmp_path / "back.json"
        assert main(["convert", d4_path, "--to", "loop", "--out", str(loop_path)]) == 0
        assert main(["convert", str(loop_path), "--to", "filters", "--out", str(back_path)]) == 0
        original = fileio.load_filter_file(d4_path)
        back = fileio.load_filter_file(back_path)
        assert isinstance(original, FilterSystem) and isinstance(back, FilterSystem)
        assert back.distance(original) <= 1e-12

    def test_non_qmf_filters_rejected(self, scaled_haar_path, tmp_path):
        assert main(["convert", scaled_haar_path, "--to", "loop", "--out", str(tmp_path / "x.json")]) == 1

    def test_non_paraunitary_loop_rejected(self, tmp_path):
        path = tmp_path / "badloop.json"
        fileio.save_loop_file(path, MatrixLaurent.from_constant(np.diag([1.0, 2.0])))
        assert main(["convert", str(path), "--to", "filters", "--out", str(tmp_path / "y.json")]) == 1


class TestClassify:
    def test_identity_loop(self, identity_loop_path, capsys):
        assert main(["classify", identity_loop_path, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["status"] == "reducible"
        assert report["witness"]["rank"] == 2
        assert report["witness"]["exponents"] == [0, 0]
        assert "semantics_note" in report

    def test_monomial_diag(self, tmp_path, capsys):
        path = tmp_path / "diag.json"
        fileio.save_loop_file(
            path, MatrixLaurent.diag([LaurentPoly.monomial(2), LaurentPoly.monomial(5)])
        )
        assert main(["classify", str(path), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["status"] == "reducible"
        assert sorted(report["witness"]["exponents"]) == [2, 5]

    def test_d4_filter_file_fixture(self, d4_path, capsys):
        # fixture verdict recorded from the oracle-validated corner search
        assert main(["classify", d4_path, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["status"] == "reducible"
        assert sorted(report["witness"]["exponents"]) == [0, 1]

    def test_malformed_input(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("[]")
        assert main(["classify", str(path)]) == 2


class TestCascadeCommand:
    def test_haar_box_column(self, haar_path, tmp_path, capsys):
        out = tmp_path / "haar.csv"
        assert main(["cascade", haar_path, "--iters", "6", "--out", str(out)]) == 0
        assert "seed=box" in capsys.readouterr().out
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["x", "phi", "psi_1"]
        data = [(float(r[0]), float(r[1])) for r in rows[1:]]
        assert len(data) == 2**6 + 1
        for x, phi in data:
            assert phi == (1.0 if x < 1.0 else 0.0)

    def test_d4_row_count(self, d4_path, tmp_path, capsys):
        out = tmp_path / "d4.csv"
        assert main(["cascade", d4_path, "--iters", "10", "--out", str(out)]) == 0
        assert "seed=point" in capsys.readouterr().out
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 3 * 2**10 + 2  # header + samples spanning [0, 3]
        assert float(rows[1][0]) == 0.0
        assert float(rows[-1][0]) == 3.0

    def test_iters_zero_emits_seed(self, haar_path, tmp_path):
        out = tmp_path / "seed.csv"
        assert main(["cascade", haar_path, "--iters", "0", "--out", str(out)]) == 0
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert [float(r[1]) for r in rows[1:]] == [1.0, 0.0]

    def test_csv_reparses_to_memory_values(self, d4_path, tmp_path):
        from loopwave import cascade, daubechies4_system

        out = tmp_path / "d4.csv"
        assert main(["cascade", d4_path, "--iters", "5", "--out", str(out)]) == 0
        phi = cascade(daubechies4_system().filters[0], 2, 5)
        with open(out) as fh:
            rows = list(csv.reader(fh))
        parsed = np.array([float(r[1]) for r in rows[1:]])
        assert np.max(np.abs(parsed - phi.values.real)) <= 1e-15

    def test_non_low_pass_rejected(self, tmp_path, capsys):
        path = tmp_path / "base.json"
        fileio.save_filter_file(path, base_system(2))
        assert main(["cascade", str(path), "--iters", "3", "--out", str(tmp_path / "x.csv")]) == 1
        err = capsys.readouterr().err
        assert "low-pass" in err

    def test_complex_generator_cells_reparse(self, tmp_path):
        # m_1 scaled by i is still QMF; its samples exercise the complex CSV cells
        system = FilterSystem(
            2, [LaurentPoly(0, (0.5, 0.5)), LaurentPoly(0, (0.5j, -0.5j))]
        )
        path = tmp_path / "cx.json"
        fileio.save_filter_file(path, system)
        out = tmp_path / "cx.csv"
        assert main(["cascade", str(path), "--iters", "3", "--out", str(out)]) == 0
        with open(out) as fh:
            rows = list(csv.reader(fh))
        mid = rows[1 + 2]  # x = 0.25, inside [0, 1/2) where psi_1 = i
        assert complex(mid[2]) == pytest.approx(1j, abs=1e-12)


#: A complex scale-3 low-pass system (a seeded degree-1 loop turned so that
#: m_0(1) = 1); its coefficients are written out so that the CSV below does
#: not depend on random_paraunitary's rounding.
N3_FILTERS = {
    "version": 1,
    "n": 3,
    "filters": [
        {"offset": 0, "coeffs": [[0.22394161170524898, 0.032852435398934975], [0.18426997112837093, 0.171352038395694], [0.0794728194958522, -0.20420447379462903], [0.10939172162808429, -0.03285243539893495], [0.14906336220496244, -0.171352038395694], [0.2538605138374811, 0.20420447379462903]]},
        {"offset": 0, "coeffs": [[0.2828819834016379, -0.26759604437286927], [-0.023929964054298918, -0.13575043606361856], [-0.22739118677668566, -0.00834711613782016], [0.019661012704850173, 0.0899303510085888], [0.1285144810149517, 0.13034240027376753], [-0.17973632629045522, 0.19142084529195166]]},
        {"offset": 0, "coeffs": [[0.10423275829075677, 0.3068312811503773], [-0.23384537180403922, -0.3092717794213418], [-0.1411558284676632, 0.08019056752101186], [0.05282983189779, -0.033964643589487455], [0.05277805636256648, -0.11318494198576641], [0.16516055372058905, 0.06939951632520654]]},
    ],
}


class TestCascadeCsvBytes:
    """The CSV writer's exact output, pinned from the row-by-row csv.writer
    version (numpy 2.4, x86-64); the N = 3 file has complex cells."""

    def test_haar_bytes(self, haar_path, tmp_path):
        out = tmp_path / "haar.csv"
        assert main(["cascade", haar_path, "--iters", "2", "--out", str(out)]) == 0
        assert out.read_bytes() == (
            b"x,phi,psi_1\r\n0.0,1.0,1.0\r\n0.25,1.0,1.0\r\n0.5,1.0,-1.0\r\n"
            b"0.75,1.0,-1.0\r\n1.0,0.0,0.0\r\n"
        )

    def test_scale3_bytes(self, tmp_path, capsys):
        import hashlib

        path = tmp_path / "n3.json"
        path.write_text(json.dumps(N3_FILTERS))
        out = tmp_path / "n3.csv"
        assert main(["cascade", str(path), "--iters", "2", "--out", str(out)]) == 0
        assert "23 rows, seed=point" in capsys.readouterr().out
        data = out.read_bytes()
        assert data.startswith(
            b"x,phi,psi_1,psi_2\r\n0.0,0.0,0.0,0.0\r\n0.1111111111111111,"
            b"(0.19008324775571686+0.06548344420392252j),(0.2909136239124987-0.18709635668784988j),"
        )
        assert len(data) == 3248
        assert hashlib.sha256(data).hexdigest() == "e20e75565b3b02668f3d1dab29fb657dfc7534a6af68926ae40cfb598088ea00"


class TestInputParsedOnce:
    @pytest.mark.parametrize(
        "argv",
        [
            ["classify", "{f}"],
            ["classify", "{l}"],
            ["equiv", "{f}", "{l}"],
            ["cuntz-check", "{f}", "--band", "4"],
            ["commutant", "{l}", "--band", "8"],
            ["convert", "{f}", "--to", "loop", "--out", "{out}"],
            ["convert", "{l}", "--to", "filters", "--out", "{out}"],
        ],
    )
    def test_each_input_read_once(self, argv, haar_path, tmp_path, monkeypatch, capsys):
        loop_path = tmp_path / "loop.json"
        fileio.save_loop_file(loop_path, MatrixLaurent.identity(2))
        reads = []
        original = fileio._load_json
        monkeypatch.setattr(fileio, "_load_json", lambda path: reads.append(path) or original(path))
        args = [a.format(f=haar_path, l=loop_path, out=tmp_path / "out.json") for a in argv]
        assert main(args) == 0
        inputs = [a for a in args[1:] if a.endswith(".json") and "out.json" not in a]
        assert sorted(map(str, reads)) == sorted(inputs)

    def test_convert_rejects_wrong_kind(self, haar_path, identity_loop_path, tmp_path):
        out = str(tmp_path / "x.json")
        assert main(["convert", identity_loop_path, "--to", "loop", "--out", out]) == 2
        assert main(["convert", haar_path, "--to", "filters", "--out", out]) == 2


class TestCuntzCheckCommand:
    def test_haar_band8(self, haar_path, capsys):
        assert main(["cuntz-check", haar_path, "--band", "8", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["isometry_residual"] <= 1e-12
        assert report["completeness_residual"] <= 1e-12

    def test_loop_input_accepted(self, identity_loop_path):
        assert main(["cuntz-check", identity_loop_path, "--band", "4"]) == 0


class TestEquivCommand:
    def test_same_file_equal(self, haar_path, capsys):
        assert main(["equiv", haar_path, haar_path, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["verdict"] == "equal"

    def test_filter_vs_its_loop(self, haar_path, tmp_path, capsys):
        loop_path = tmp_path / "loop.json"
        main(["convert", haar_path, "--to", "loop", "--out", str(loop_path)])
        capsys.readouterr()
        assert main(["equiv", haar_path, str(loop_path), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["verdict"] == "equal"


class TestCompleteCommand:
    def test_haar_m0_fir2(self, tmp_path):
        m0_path = tmp_path / "haar-m0.json"
        m0_path.write_text(
            json.dumps({"version": 1, "n": 2, "filters": [{"offset": 0, "coeffs": [[0.5, 0], [0.5, 0]]}]})
        )
        out = tmp_path / "completed.json"
        assert main(["complete", str(m0_path), "--mode", "fir2", "--out", str(out)]) == 0
        system = fileio.load_filter_file(out)
        assert isinstance(system, FilterSystem)
        assert system.distance(haar_system()) <= 1e-12

    def test_grid_mode_writes_sampled_system(self, tmp_path):
        m0_path = tmp_path / "m0.json"
        third = 1.0 / 3.0
        m0_path.write_text(
            json.dumps(
                {
                    "version": 1,
                    "n": 3,
                    "filters": [{"offset": 0, "coeffs": [[third, 0], [third, 0], [third, 0]]}],
                }
            )
        )
        out = tmp_path / "sampled.json"
        assert main(["complete", str(m0_path), "--mode", "grid", "--grid", "33", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["kind"] == "sampled-system"
        assert doc["grid_size"] == 33
        assert doc["unitarity_residual"] <= 1e-10

    def test_grid_mode_default_grid_scale3(self, tmp_path, capsys):
        m0_path = tmp_path / "m0.json"
        m0_path.write_text(json.dumps({**N3_FILTERS, "filters": N3_FILTERS["filters"][:1]}))
        out = tmp_path / "sampled.json"
        assert main(["complete", str(m0_path), "--mode", "grid", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["grid_size"] == 258
        assert main(["complete", str(m0_path), "--mode", "grid", "--grid", "256", "--out", str(out)]) == 1
        assert "multiple of 3" in capsys.readouterr().err

    def test_scalar_violation_exit1(self, tmp_path):
        m0_path = tmp_path / "bad.json"
        m0_path.write_text(
            json.dumps({"version": 1, "n": 2, "filters": [{"offset": 0, "coeffs": [[1.0, 0]]}]})
        )
        assert main(["complete", str(m0_path), "--mode", "fir2", "--out", str(tmp_path / "x.json")]) == 1


class TestCommutantCommand:
    def test_haar_runs(self, haar_path, capsys):
        assert main(["commutant", haar_path, "--band", "6", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["dimension"] >= 1
        assert "note" in report

    def test_d4_exact_dimension(self, d4_path, capsys):
        assert main(["commutant", d4_path, "--band", "3", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["dimension"] == 1
        assert report["band"] == [-3, 0]

    def test_band_missing_attractor_exit1(self, d4_path, capsys):
        assert main(["commutant", d4_path, "--band", "2"]) == 1
        assert "K = [-3, 0]" in capsys.readouterr().err

    def test_band_defaults_to_attractor(self, d4_path, tmp_path, capsys):
        assert main(["commutant", d4_path, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["band"] == [-3, 0] and report["dimension"] == 1
        path = tmp_path / "n3.json"
        path.write_text(json.dumps(N3_FILTERS))
        assert main(["commutant", str(path), "--json"]) == 0
        expected = cuntz_rep.attractor_band(fileio.load_filter_file(path))
        assert json.loads(capsys.readouterr().out)["band"] == [expected.k_min, expected.k_max]


class TestMemoryError:
    def test_exit2_without_traceback(self, d4_path, monkeypatch, capsys):
        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(cuntz_rep, "build_rep", exhausted)
        assert main(["cuntz-check", d4_path, "--band", "8"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert err.count("\n") == 1


class TestEnvironmentTolerance:
    def test_loopwave_tol_overrides_default(self, scaled_haar_path, monkeypatch, capsys):
        monkeypatch.setenv("LOOPWAVE_TOL", "2.0")
        # residual 1.0 passes at the absurd override tolerance
        assert main(["verify", scaled_haar_path, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["tol"] == 2.0

    def test_invalid_env_value(self, haar_path, monkeypatch):
        monkeypatch.setenv("LOOPWAVE_TOL", "banana")
        assert main(["verify", haar_path]) == 2


class TestConsoleScript:
    def test_import_loads_no_scipy(self):
        src = str(Path(loopwave.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        code = "import sys, loopwave, loopwave.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_entry_point_runs(self, haar_path):
        proc = subprocess.run(
            [sys.executable, "-m", "loopwave.cli", "verify", haar_path],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "passed: True" in proc.stdout
