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
from loopwave import cli, cuntz_rep, fileio
from loopwave.cli import main

from conftest import raised_d4_system, seeded_lowpass_system
from helpers import cascade_csv_bytes, repr_cells

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

    def test_low_pass_refusal_shows_the_defect(self, tmp_path, capsys):
        """The raised d4 is refused at the default tol, with its defect and
        the tol named, and cascades at --tol 1e-6, where verify passes it:
        low-pass is decided at --tol."""
        raised = raised_d4_system()
        path = tmp_path / "d4p.json"
        fileio.save_filter_file(path, raised)
        out = str(tmp_path / "x.csv")
        assert main(["cascade", str(path), "--iters", "3", "--out", out]) == 1
        err = capsys.readouterr().err
        assert err == f"failure: {path}: not paraunitary: residual 1.366e-08 > tol 1.000e-10\n"
        assert main(["verify", str(path), "--tol", "1e-6"]) == 0
        assert main(["cascade", str(path), "--iters", "3", "--tol", "1e-6", "--out", out]) == 0
        capsys.readouterr()
        # between the scalar residual and the low-pass defect only low-pass fails
        defect = abs(raised.filters[0](1.0) - 1)
        assert 0.9e-8 < defect < 1.1e-8
        with pytest.raises(ValueError) as info:
            loopwave.cascade(raised.filters[0], 2, 3, tol=8e-9)
        assert str(info.value) == f"m_0 is not low-pass at tol 8.000e-09: |m_0(1) - 1| = {defect:.3e}"

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
    version (numpy 2.4, x86-64); the N = 3 file has complex cells, and the
    d4 file at 12 iterations spans several write chunks."""

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

    def test_d4_bytes_across_chunks(self, d4_path, tmp_path, capsys):
        import hashlib

        from loopwave.cli import CSV_CHUNK_ROWS

        out = tmp_path / "d4.csv"
        assert main(["cascade", d4_path, "--iters", "12", "--out", str(out)]) == 0
        assert "12289 rows, seed=point" in capsys.readouterr().out
        assert 12289 > 2 * CSV_CHUNK_ROWS
        data = out.read_bytes()
        assert len(data) == 682396
        assert hashlib.sha256(data).hexdigest() == "d88fea3f729afc075ac53c44f7962e37dbb85aa50f38bcff460b94cff96d1841"


class TestCsvCells:
    """Each CSV cell equals one repr of its value: the real part's when the
    imaginary part is at most 1e-12, else the complex value's."""

    ABOVE = float(np.nextafter(1e-12, 1.0))

    @pytest.mark.parametrize(
        "values",
        [
            [complex(0.0, 1.0), complex(0.0, -0.5), complex(-0.0, 1.0), complex(-0.0, -2.5), complex(0.0, 1e-5)],
            [complex(1.0, 2.0), complex(-0.0, 3.0), complex(1.0, -1.0), complex(-4.0, 100.0), complex(12.0, 0.0)],
            [complex(0.5, 1e-12), complex(0.5, -1e-12), complex(0.5, ABOVE), complex(0.5, -ABOVE), complex(0.0, ABOVE), complex(-0.0, -ABOVE)],
            [complex(1e16, 1.0), complex(1.0, 1e16), complex(1e-5, -1e-5), complex(1e-300, 1e300), complex(-1e300, -1e-300)],
            [complex(0.0, math.nan), complex(1.0, math.nan), complex(-2.0, math.inf), complex(0.0, -math.inf), complex(3.0, -math.inf)],
            [complex(math.nan, 1.0), complex(-math.inf, 0.0), complex(1.5e15, -2.0), complex(123456789.0, 0.25)],
        ],
        ids=["zero-real", "integral", "imag-threshold", "magnitudes", "nan-inf-imag", "nan-inf-real"],
    )
    def test_matches_repr(self, values):
        column = np.array(values, dtype=complex)
        assert cli._cells(column) == repr_cells(column)

    def test_seeded_columns(self):
        rng = np.random.default_rng(13)
        column = rng.standard_normal(500) * 10.0 ** rng.integers(-20, 20, 500) + 1j * rng.standard_normal(500)
        column[::3] = column[::3].real
        column[::5] = 1j * column[::5].imag
        column[::7] = np.round(column[::7].real) + 1j * np.round(column[::7].imag)
        assert cli._cells(column) == repr_cells(column)
        assert cli._cells(column.real) == repr_cells(column.real)

    @pytest.mark.parametrize("n, degree, seed, iters", [(2, 2, 3, 11), (4, 2, 5, 6)], ids=["N=2", "N=4"])
    def test_complex_cascade_bytes(self, n, degree, seed, iters, tmp_path, capsys):
        from loopwave import cascade, certify, wavelets
        from loopwave.cli import CSV_CHUNK_ROWS

        system = seeded_lowpass_system(n, degree, seed)
        path = tmp_path / "lp.json"
        fileio.save_filter_file(path, system)
        out = tmp_path / "lp.csv"
        assert main(["cascade", str(path), "--iters", str(iters), "--out", str(out)]) == 0
        loaded = certify(fileio.load_filter_file(path))
        phi = cascade(loaded.filters[0], n, iters)
        assert len(phi.values) > 2 * CSV_CHUNK_ROWS
        expected = cascade_csv_bytes(phi, wavelets(loaded, phi), n)
        assert b"j)" in expected
        assert out.read_bytes() == expected


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

    @pytest.mark.parametrize("grid", ["-2", "0", "3"])
    def test_fir2_grid_not_a_positive_multiple_exit1(self, grid, tmp_path, capsys):
        m0_path = tmp_path / "haar-m0.json"
        m0_path.write_text(
            json.dumps({"version": 1, "n": 2, "filters": [{"offset": 0, "coeffs": [[0.5, 0], [0.5, 0]]}]})
        )
        out = tmp_path / "completed.json"
        assert main(["complete", str(m0_path), "--mode", "fir2", "--grid", grid, "--out", str(out)]) == 1
        assert "multiple of 2" in capsys.readouterr().err
        assert not out.exists()

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

    def test_band_missing_attractor_is_ignored(self, d4_path, capsys):
        assert main(["commutant", d4_path]) == 0
        expected = capsys.readouterr().out
        assert main(["commutant", d4_path, "--band", "2"]) == 0
        assert capsys.readouterr().out == expected
        assert "band: [-3, 0]" in expected

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


class TestCascadeBudget:
    """``cascade --iters`` is refused with exit 2, before anything is
    allocated, when phi and the psi rows would exceed the sample budget."""

    @staticmethod
    def _first_level_over(system):
        from loopwave.cli import CASCADE_SAMPLE_BUDGET
        from loopwave.wavelet import cascade_samples

        level = 0
        while cascade_samples(system, level) <= CASCADE_SAMPLE_BUDGET:
            level += 1
        return level

    @pytest.mark.parametrize("make", [haar_system, daubechies4_system, lambda: seeded_lowpass_system(3, 2, 4)], ids=["haar", "d4", "N=3 low-pass"])
    def test_just_over_the_budget_allocates_nothing(self, make, tmp_path, capsys):
        import tracemalloc

        path = tmp_path / "filters.json"
        fileio.save_filter_file(path, make())
        iters = self._first_level_over(make())
        out = tmp_path / "phi.csv"
        tracemalloc.start()
        try:
            code = main(["cascade", str(path), "--iters", str(iters), "--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert peak < 1 << 20
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith(f"error: --iters {iters} needs about ") and err.count("\n") == 1

    def test_astronomical_iters(self, d4_path, tmp_path, capsys):
        assert main(["cascade", d4_path, "--iters", str(10**9), "--out", str(tmp_path / "x.csv")]) == 2
        assert "needs about inf samples" in capsys.readouterr().err

    @pytest.mark.parametrize("make", [haar_system, daubechies4_system, lambda: seeded_lowpass_system(3, 2, 4)], ids=["haar", "d4", "N=3 low-pass"])
    def test_estimate_counts_the_samples(self, make):
        from loopwave.wavelet import cascade, cascade_samples, wavelets

        system = make()
        for level in range(0, 6):
            phi = cascade(system.filters[0], system.n, level)
            assert cascade_samples(system, level) == phi.values.size + wavelets(system, phi).values.size


def _first_over(need, budget: int, step: int = 1) -> int:
    """The smallest positive multiple v of step with need(v) > budget, for
    need increasing in v."""
    hi = step
    while need(hi) <= budget:
        hi *= 2
    lo = hi // 2 // step * step  # need(lo) <= budget, or lo = 0
    while hi - lo > step:
        mid = (lo + hi) // 2 // step * step
        lo, hi = (mid, hi) if need(mid) <= budget else (lo, mid)
    return hi


def _taps(system) -> int:
    """L, the length of the combined filter support."""
    return max(f.offset + len(f.coeffs) for f in system.filters) - min(f.offset for f in system.filters)


def _spread(system, j: int):
    """The system with m_{N-1} multiplied by z^(N j), whose loop is
    diag(1, ..., 1, z^j) times the system's: a QMF system whose attractor
    band grows with j."""
    filters = list(system.filters)
    filters[-1] = filters[-1] * LaurentPoly.monomial(system.n * j)
    return FilterSystem(system.n, filters, verified=True)


GUARDED_SYSTEMS = [haar_system, daubechies4_system, lambda: seeded_lowpass_system(3, 2, 4)]
GUARDED_IDS = ["haar", "d4", "N=3 low-pass"]


class TestSizeGuards:
    """``--grid`` and ``--band`` are refused with exit 2, before anything is
    allocated, when the arrays they size would exceed their budgets."""

    @staticmethod
    def _traced(argv):
        """(exit code, tracemalloc peak in bytes) of main(argv)."""
        import tracemalloc

        tracemalloc.start()
        try:
            return main(argv), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @staticmethod
    def _refused(argv, option, value, out=None, capsys=None):
        code, peak = TestSizeGuards._traced(argv)
        assert code == 2
        assert peak < 1 << 20
        assert out is None or not out.exists()
        err = capsys.readouterr().err
        assert err.startswith(f"error: {option} {value} needs about ") and err.count("\n") == 1

    @pytest.mark.parametrize("make", GUARDED_SYSTEMS, ids=GUARDED_IDS)
    def test_verify_grid(self, make, tmp_path, capsys):
        from loopwave.cli import GRID_VALUE_BUDGET

        system = make()
        path = tmp_path / "filters.json"
        fileio.save_filter_file(path, system)
        n = system.n
        grid = _first_over(lambda g: g * n, GRID_VALUE_BUDGET, step=n)
        assert (grid - n) * n <= GRID_VALUE_BUDGET
        self._refused(["verify", str(path), "--grid", str(grid)], "--grid", grid, capsys=capsys)

    @pytest.mark.parametrize("mode", ["grid", "fir2"])
    @pytest.mark.parametrize("make", GUARDED_SYSTEMS, ids=GUARDED_IDS)
    def test_complete_grid(self, make, mode, tmp_path, capsys):
        """Grid mode is refused over its budget; fir2 builds no grid, so the
        same --grid completes at N = 2 and fails at N = 3, in little memory."""
        from loopwave.cli import GRID_VALUE_BUDGET

        system = make()
        path = tmp_path / "m0.json"
        fileio.save_filter_file(path, system)
        doc = json.loads(path.read_text())
        path.write_text(json.dumps({**doc, "filters": doc["filters"][:1]}))
        n = system.n
        grid = _first_over(lambda g: g * n * n, GRID_VALUE_BUDGET, step=n)
        out = tmp_path / "sampled.json"
        argv = ["complete", str(path), "--mode", mode, "--grid", str(grid), "--out", str(out)]
        if mode == "grid":
            self._refused(argv, "--grid", grid, out, capsys)
            return
        code, peak = self._traced(argv)
        assert peak < 1 << 20
        assert code == (0 if n == 2 else 1)
        assert out.exists() == (n == 2)
        err = capsys.readouterr().err
        assert err == ("" if n == 2 else f"failure: {path}: fir2 completion is defined only for scale 2\n")

    @pytest.mark.parametrize("offset", [2**31 - 1, -(2**31 - 1)])
    def test_complete_fir2_far_offset(self, offset, tmp_path):
        """fir2 places m_1 beside m_0, so a Haar m_0 at any offset completes
        to a polyphase loop of at most 2 lags, in little memory."""
        path = tmp_path / "m0.json"
        m0 = {"offset": offset, "coeffs": [[0.5, 0], [0.5, 0]]}
        path.write_text(json.dumps({"version": 1, "n": 2, "filters": [m0]}))
        out = tmp_path / "system.json"
        code, peak = self._traced(["complete", str(path), "--out", str(out)])
        assert code == 0 and peak < 1 << 20
        assert len(loopwave.filters_to_loop(fileio.load_filter_file(out)).mat.tensor) <= 2

    @pytest.mark.parametrize("make", GUARDED_SYSTEMS, ids=GUARDED_IDS)
    def test_cuntz_check_band(self, make, tmp_path, capsys):
        from loopwave.cli import BAND_ENTRY_BUDGET

        system = make()
        path = tmp_path / "filters.json"
        fileio.save_filter_file(path, system)
        windows = system.n * _taps(system)
        band = _first_over(lambda b: windows * (2 * b + 1), BAND_ENTRY_BUDGET)
        self._refused(["cuntz-check", str(path), "--band", str(band)], "--band", band, capsys=capsys)

    @pytest.mark.parametrize("make", GUARDED_SYSTEMS, ids=GUARDED_IDS)
    def test_commutant_band(self, make, tmp_path, capsys):
        # sigma has |K|^4 entries, for K the attractor band.
        from loopwave.cli import BAND_ENTRY_BUDGET

        def size(j):
            return cuntz_rep.attractor_band(_spread(make(), j)).size

        j = _first_over(lambda j: size(j) ** 4, BAND_ENTRY_BUDGET)
        assert size(j - 1) ** 4 <= BAND_ENTRY_BUDGET
        path = tmp_path / "filters.json"
        fileio.save_filter_file(path, _spread(make(), j))
        self._refused(["commutant", str(path)], "|K|", size(j), capsys=capsys)

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "{f}", "--grid", str(2 * 10**18)],
            ["complete", "{f}", "--mode", "grid", "--grid", str(2 * 10**18), "--out", "{out}"],
            ["cuntz-check", "{f}", "--band", str(10**18)],
        ],
    )
    def test_astronomical_values(self, argv, haar_path, tmp_path, capsys):
        out = tmp_path / "out.json"
        assert main([a.format(f=haar_path, out=out) for a in argv]) == 2
        assert "needs about " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("make", GUARDED_SYSTEMS, ids=GUARDED_IDS)
    def test_estimates_count_the_entries(self, make, monkeypatch):
        from loopwave import complete

        sigma_sizes = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda a, **kw: sigma_sizes.append(a.size) or svd(a, **kw))
        for j in range(0, 3):
            system = _spread(make(), j)
            cuntz_rep.commutant_diagnostic(cuntz_rep.build_rep(system, cuntz_rep.Band(0, 0)))
            assert sigma_sizes.pop() == cuntz_rep.attractor_band(system).size ** 4
        system = make()
        n, taps = system.n, _taps(system)
        for band in range(0, 4):
            rep = cuntz_rep.build_rep(system, cuntz_rep.Band(-band, band))
            assert rep.windows[0].size == n * taps * (2 * band + 1)
            assert sum(s.size for s in rep.S) == n * (2 * n * band + taps) * (2 * band + 1)
        for grid in (n, 4 * n):
            assert complete(system.filters[0], n, mode="grid", grid_size=grid).values.size == grid * n * n


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

    @pytest.mark.parametrize("value", ["nan", "-1", "-1e-300"])
    @pytest.mark.parametrize(
        "env, argv",
        [
            ("LOOPWAVE_TOL", ["verify", "{f}"]),
            ("LOOPWAVE_TOL", ["verify", "{f}", "--tol", "1e-8"]),
            ("--tol", ["verify", "{f}", "--tol={v}"]),
            ("--tol", ["commutant", "{f}", "--tol={v}"]),
            ("--commutant-tol", ["commutant", "{f}", "--commutant-tol={v}"]),
        ],
    )
    def test_nan_or_negative_refused(self, env, argv, value, d4_path, monkeypatch, capsys):
        if env == "LOOPWAVE_TOL":
            monkeypatch.setenv("LOOPWAVE_TOL", value)
        assert main([a.format(f=d4_path, v=value) for a in argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {env} must be a non-negative number") and captured.err.count("\n") == 1

    def test_zero_is_valid(self, haar_path, tmp_path, monkeypatch, capsys):
        assert main(["verify", haar_path, "--tol", "0"]) == 0
        monkeypatch.setenv("LOOPWAVE_TOL", "0")
        capsys.readouterr()
        # Haar's smallest singular value of sigma - I is not exactly 0, so tol 0
        # counts none, and no commutant has dimension 0.
        assert main(["commutant", haar_path, "--commutant-tol", "0"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"failure: {haar_path}: tol 0.0 decides no commutant dimension: ") and err.count("\n") == 1
        base = tmp_path / "base2.json"
        fileio.save_filter_file(base, base_system(2))
        assert main(["commutant", str(base), "--commutant-tol", "0", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["dimension"] == 2


def _env_importing_loopwave() -> dict[str, str]:
    """The environment with the directory this loopwave came from put
    first on PYTHONPATH, for a subprocess to import the same package."""
    src = str(Path(loopwave.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


class TestConsoleScript:
    def test_import_loads_no_scipy(self):
        code = "import sys, loopwave, loopwave.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=_env_importing_loopwave())
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_entry_point_runs(self, haar_path):
        proc = subprocess.run(
            [sys.executable, "-m", "loopwave.cli", "verify", haar_path],
            capture_output=True,
            text=True,
            env=_env_importing_loopwave(),
        )
        assert proc.returncode == 0
        assert "passed: True" in proc.stdout


#: SHA-256 of each --help text at 80 columns, from the parser that was
#: built on every call (argparse of Python 3.11).
HELP_SHA256 = {
    "": "16da2de7943b68342bb8094b68619f3c993be51516ac8d42927853513b0068d7",
    "verify": "1fca48b337574faada5e2b7ec1aca86e8a07754cb10d7353289cbd1d5438c761",
    "convert": "5c9ce63374665af98bb4fdc424a7e0b497cdf45c000ea4ff24a740a560e8fcdd",
    "classify": "55a7a7e4bf8f4b45ad05dfedbc50a79dce6ce00bc80c36aab979cbcf474e39cc",
    "cascade": "44b2033aacb3f529899b8c00f08bfe76544cc05c4c4e41d1b0ac26f753eb0251",
    "cuntz-check": "2d83b4f528836ec568a18833948ed1760827ebb5aac3e94f6510aadfc65d0288",
    "equiv": "ad8701566582ff73f594542dbd5c0bd9d6b50d2cb949d50cec2182cb2509bec1",
    "complete": "a98175db07b9fd9ed741a7673ea75b4252eea1831335edd05d0a361790e883b5",
    "commutant": "ee761ac99a02ab12615c389e1773203d78a47121d2ce698fc0a375d40a77dc19",
}


class TestCachedParser:
    """One parser serves every main() call of a process; LOOPWAVE_TOL is
    still read on each call."""

    def test_tol_follows_each_call(self, scaled_haar_path, monkeypatch, capsys):
        # residual 1.0: fails at the default tolerance, passes at 2.0
        for env, tol, code in [(None, 1e-10, 1), ("2.0", 2.0, 0), (None, 1e-10, 1)]:
            if env is None:
                monkeypatch.delenv("LOOPWAVE_TOL", raising=False)
            else:
                monkeypatch.setenv("LOOPWAVE_TOL", env)
            assert main(["verify", scaled_haar_path, "--json"]) == code
            assert json.loads(capsys.readouterr().out)["tol"] == tol

    def test_explicit_tol_beats_env(self, scaled_haar_path, monkeypatch, capsys):
        monkeypatch.setenv("LOOPWAVE_TOL", "2.0")
        assert main(["verify", scaled_haar_path, "--tol", "1e-8", "--json"]) == 1
        assert json.loads(capsys.readouterr().out)["tol"] == 1e-8

    def test_invalid_env_with_explicit_tol(self, haar_path, monkeypatch, capsys):
        monkeypatch.setenv("LOOPWAVE_TOL", "banana")
        assert main(["verify", haar_path, "--tol", "1e-8"]) == 2
        assert "LOOPWAVE_TOL is not a number" in capsys.readouterr().err

    def test_built_at_most_once(self, haar_path, monkeypatch, capsys):
        builds = []
        original = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or original())
        cli._parser.cache_clear()
        for argv in (["verify", haar_path], ["classify", haar_path], ["verify", haar_path, "--json"]):
            assert main(argv) == 0
        assert len(builds) == 1

    def test_import_builds_no_parser(self):
        code = (
            "import argparse\n"
            "built = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "argparse.ArgumentParser.__init__ = lambda self, *a, **k: built.append(1) or init(self, *a, **k)\n"
            "import loopwave, loopwave.cli\n"
            "print(len(built))"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=_env_importing_loopwave())
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "0"

    @pytest.mark.parametrize("command", list(HELP_SHA256))
    def test_help_unchanged(self, command, monkeypatch, capsys):
        import hashlib

        monkeypatch.setenv("COLUMNS", "80")
        argv = [command, "--help"] if command else ["--help"]
        texts = []
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 0
            texts.append(capsys.readouterr().out)
        assert texts[0] == texts[1]
        assert hashlib.sha256(texts[0].encode()).hexdigest() == HELP_SHA256[command]
