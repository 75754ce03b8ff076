import json

import numpy as np
import pytest

from loopwave import FilterSystem, LaurentPoly, MatrixLaurent, complete, daubechies4_system
from loopwave.fileio import (
    FileFormatError,
    complex_pairs,
    detect_kind,
    load_filter_file,
    load_loop_file,
    save_filter_file,
    save_loop_file,
    save_sampled_system,
)


def test_filter_round_trip_preserves_negative_offsets(tmp_path):
    system = FilterSystem(
        2,
        [LaurentPoly(-3, (0.5, 0.5)), LaurentPoly(-1, (0.5 + 0.25j, -0.5))],
    )
    path = tmp_path / "f.json"
    save_filter_file(path, system)
    back = load_filter_file(path)
    assert isinstance(back, FilterSystem)
    assert back.distance(system) == 0.0
    assert back.filters[0].offset == -3


def test_loop_round_trip(tmp_path):
    mat = MatrixLaurent.diag([LaurentPoly.monomial(-2, 1j), LaurentPoly.monomial(4)])
    path = tmp_path / "loop.json"
    save_loop_file(path, mat)
    assert load_loop_file(path).distance(mat) == 0.0


def test_detect_kind(tmp_path):
    fpath = tmp_path / "f.json"
    save_filter_file(fpath, daubechies4_system())
    lpath = tmp_path / "l.json"
    save_loop_file(lpath, MatrixLaurent.identity(2))
    assert detect_kind(fpath) == "filters"
    assert detect_kind(lpath) == "loop"
    other = tmp_path / "o.json"
    other.write_text(json.dumps({"version": 1}))
    with pytest.raises(FileFormatError):
        detect_kind(other)


@pytest.mark.parametrize(
    "doc",
    [
        {"version": 2, "n": 2, "filters": []},
        {"version": 1, "n": 1, "filters": []},
        {"version": 1, "n": 2, "filters": [{"offset": 0, "coeffs": [[1, 0]]}]},  # count != n
        {"version": 1, "n": 2, "filters": [{"offset": 0.5, "coeffs": []}] * 2},
        {"version": 1, "n": 2, "filters": [{"offset": 0, "coeffs": [[1]]}] * 2},
        {"version": 1, "n": 2, "filters": [{"offset": 0, "coeffs": [["a", 0]]}] * 2},
        {"version": 1, "n": 2, "filters": [{"offset": 0, "coeffs": 5}] * 2},
        {"version": 1, "n": 2, "filters": [{"offset": 0, "coeffs": None}] * 2},
        {"version": 1, "n": 2, "filters": [{"offset": 0, "coeffs": [[10**400, 0]]}] * 2},  # too large for a float
        {"version": 1, "n": 2, "filters": [{"offset": 2**31, "coeffs": [[1, 0]]}] * 2},
        {"version": 1, "n": 2, "filters": [{"offset": -(2**31), "coeffs": [[1, 0]]}] * 2},
        [{"version": 1, "n": 2, "filters": []}],  # top level not an object
    ],
)
def test_malformed_filter_documents_rejected(tmp_path, doc):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(FileFormatError):
        load_filter_file(path)


def test_non_finite_coefficient_rejected(tmp_path):
    path = tmp_path / "inf.json"
    path.write_text(
        json.dumps({"version": 1, "n": 2, "filters": [{"offset": 0, "coeffs": [[1e999, 0]]}] * 2})
    )
    with pytest.raises(FileFormatError):
        load_filter_file(path)


def test_offsets_below_two_to_the_31_load(tmp_path):
    """Each far offset loads, a span of one lag; the two together span 2^31
    lags, which every read refuses."""
    path = tmp_path / "f.json"

    def write(offsets):
        path.write_text(json.dumps({"version": 1, "n": 2, "filters": [{"offset": t, "coeffs": [[1, 0]]} for t in offsets]}))

    for t in (2**31 - 1, -(2**31 - 1)):
        write([t, t])
        assert [f.offset for f in load_filter_file(path).filters] == [t, t]
    write([2**31 - 1, -(2**31 - 1)])
    for partial in (False, True):
        with pytest.raises(FileFormatError, match="span 2147483648 lags"):
            load_filter_file(path, allow_partial=partial)


def test_partial_load_for_completion_input(tmp_path):
    path = tmp_path / "m0.json"
    path.write_text(json.dumps({"version": 1, "n": 3, "filters": [{"offset": 0, "coeffs": [[0.5, 0]]}]}))
    n, polys = load_filter_file(path, allow_partial=True)
    assert n == 3 and len(polys) == 1
    with pytest.raises(FileFormatError):
        load_filter_file(path)


@pytest.mark.parametrize("count", [0, 3])
def test_partial_filter_count_outside_one_to_n_rejected(tmp_path, count):
    path = tmp_path / "m0.json"
    path.write_text(json.dumps({"version": 1, "n": 2, "filters": [{"offset": 0, "coeffs": [[0.5, 0]]}] * count}))
    with pytest.raises(FileFormatError, match=f"expected between 1 and 2 filters, got {count}$"):
        load_filter_file(path, allow_partial=True)


def test_complex_pairs():
    assert complex_pairs((0.5 + 0j, -1j)) == [[0.5, 0.0], [0.0, -1.0]]
    assert complex_pairs(np.array([[1 + 2j], [3 - 4j]])) == [[[1.0, 2.0]], [[3.0, -4.0]]]
    assert complex_pairs(()) == []


def test_sampled_system_document(tmp_path):
    sampled = complete(LaurentPoly(0, (0.25, 0.25, 0.25, 0.25)), 4, mode="grid", grid_size=8)
    path = tmp_path / "sampled.json"
    save_sampled_system(path, sampled)
    doc = json.loads(path.read_text())
    assert (doc["version"], doc["kind"], doc["n"], doc["grid_size"]) == (1, "sampled-system", 4, 8)
    assert doc["unitarity_residual"] == sampled.unitarity_residual
    for key in ("base_points", "representatives", "values"):
        pairs = np.array(doc[key])
        assert np.array_equal(pairs[..., 0] + 1j * pairs[..., 1], getattr(sampled, key)), key


def test_ragged_loop_grid_rejected(tmp_path):
    path = tmp_path / "ragged.json"
    rec = {"offset": 0, "coeffs": [[1, 0]]}
    path.write_text(json.dumps({"version": 1, "n": 2, "entries": [[rec, rec], [rec]]}))
    with pytest.raises(FileFormatError):
        load_loop_file(path)


def test_load_input_returns_either_kind(tmp_path):
    from loopwave.fileio import load_input

    fpath = tmp_path / "f.json"
    save_filter_file(fpath, daubechies4_system())
    lpath = tmp_path / "l.json"
    mat = MatrixLaurent.diag([LaurentPoly.monomial(-2, 1j), LaurentPoly.monomial(4)])
    save_loop_file(lpath, mat)
    system = load_input(fpath)
    assert isinstance(system, FilterSystem) and system.distance(daubechies4_system()) == 0.0
    loaded = load_input(lpath)
    assert isinstance(loaded, MatrixLaurent) and loaded.distance(mat) == 0.0
    other = tmp_path / "o.json"
    other.write_text(json.dumps({"version": 1}))
    with pytest.raises(FileFormatError):
        load_input(other)
