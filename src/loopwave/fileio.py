"""Versioned JSON file formats for filter systems and loops.

Filter file (version 1):

    {"version": 1, "n": 2,
     "filters": [{"offset": 0, "coeffs": [[0.5, 0.0], [0.5, 0.0]]}, ...]}

Loop file (version 1):

    {"version": 1, "n": 2,
     "entries": [[{"offset": 0, "coeffs": [[re, im], ...]}, ...], ...]}

Every complex value, here and in the sampled-system file of grid-mode
completion (``save_sampled_system``), is an [re, im] pair.  Every loader refuses
a polyphase loop over ``LAG_BUDGET`` lags, and a filter or loop writer passes its
document through the loader first.
"""

from __future__ import annotations

import itertools
import json
import sys
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from .laurent import LaurentPoly, MatrixLaurent
from .loopgroup import FilterSystem
from .qmf import SampledSystem

#: Most lags that the polyphase loop of a file may span.  The certificate's
#: cost grows as lags^2, and with N, which is not charged: a dense loop of
#: 2^10 lags certifies in 2.4 s at N = 16 (2-core x86-64 host, numpy 2.4).
LAG_BUDGET = 1 << 10


class FileFormatError(ValueError):
    """Raised on malformed or out-of-contract input files."""


def _check_lags(path: str | Path, polys: Sequence[LaurentPoly], block: int) -> None:
    """Refuse polynomials whose loop would span more than LAG_BUDGET lags,
    from their supports: exponent t lies at lag floor(t / block), block N
    for filters and 1 for the entries of a loop."""
    live = [p for p in polys if not p.is_zero]
    if live:
        lags = max(p.degree for p in live) // block - min(p.offset for p in live) // block + 1
        if lags > LAG_BUDGET:
            raise FileFormatError(f"{path}: the polyphase loop would span {lags} lags, over the budget of {LAG_BUDGET}")


def complex_pairs(values: Any) -> list:
    """A complex array as nested lists, each complex value an [re, im] pair."""
    return np.array(values, dtype=complex)[..., None].view(float).tolist()


def _polys_to_json(polys: Sequence[LaurentPoly]) -> list[dict[str, Any]]:
    """Records of polys; their coefficients are encoded in one call, not one per polynomial."""
    pairs = iter(complex_pairs([c for p in polys for c in p.coeffs]))
    return [{"offset": p.offset, "coeffs": list(itertools.islice(pairs, len(p.coeffs)))} for p in polys]


def _poly_from_json(obj: Any, where: str) -> LaurentPoly:
    if not isinstance(obj, dict) or "offset" not in obj or not isinstance(obj.get("coeffs"), list):
        raise FileFormatError(f"{where}: expected an object with 'offset' and a 'coeffs' list")
    offset = obj["offset"]
    # |offset| < 2^31 keeps offset N^level inside int64 for the 2^26 samples a cascade may take.
    # Numbers are checked by exact type: JSON true and false load as bool, a subclass of int.
    if type(offset) is not int or abs(offset) >= 1 << 31:
        raise FileFormatError(f"{where}: offset must be an integer of modulus below 2^31")
    coeffs = []
    for idx, pair in enumerate(obj["coeffs"]):
        if (
            not isinstance(pair, (list, tuple))
            or len(pair) != 2
            or not all(type(v) in (int, float) for v in pair)
        ):
            raise FileFormatError(f"{where}: coefficient {idx} must be a [re, im] pair")
        if not all(abs(v) <= sys.float_info.max for v in pair):  # NaN, infinite, or an integer too large
            raise FileFormatError(f"{where}: coefficient {idx} is not finite")
        coeffs.append(complex(float(pair[0]), float(pair[1])))
    return LaurentPoly(offset, coeffs)


def _load_json(path: str | Path) -> Any:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise FileFormatError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"{path}: invalid JSON: {exc}") from exc


def _check_header(doc: Any, path: str | Path) -> int:
    if not isinstance(doc, dict):
        raise FileFormatError(f"{path}: top level must be an object")
    if doc.get("version") != 1 or doc.get("version") is True:
        raise FileFormatError(f"{path}: unsupported version {doc.get('version')!r}")
    n = doc.get("n")
    if not isinstance(n, int) or n < 2:
        raise FileFormatError(f"{path}: 'n' must be an integer >= 2")
    return n


def load_filter_file(path: str | Path, allow_partial: bool = False) -> FilterSystem | tuple[int, list[LaurentPoly]]:
    """Load a filter file; with allow_partial, fewer than n filters are
    accepted and (n, polys) is returned instead of a FilterSystem.  A span
    over ``LAG_BUDGET`` lags is refused before any array is built."""
    n, polys = _filters_from_doc(_load_json(path), path, allow_partial)
    return (n, polys) if allow_partial else FilterSystem(n, polys)


def _filters_from_doc(doc: Any, path: str | Path, allow_partial: bool = False) -> tuple[int, list[LaurentPoly]]:
    n = _check_header(doc, path)
    records = doc.get("filters")
    if not isinstance(records, list):
        raise FileFormatError(f"{path}: 'filters' must be a list")
    polys = [_poly_from_json(rec, f"{path}: filter {i}") for i, rec in enumerate(records)]
    if allow_partial:
        if not 1 <= len(polys) <= n:
            raise FileFormatError(f"{path}: expected between 1 and {n} filters, got {len(polys)}")
    elif len(polys) != n:
        raise FileFormatError(f"{path}: expected exactly {n} filters, got {len(polys)}")
    _check_lags(path, polys, n)
    return n, polys


def save_filter_file(path: str | Path, system: FilterSystem) -> None:
    doc = {"version": 1, "n": system.n, "filters": _polys_to_json(system.filters)}
    _filters_from_doc(doc, path)
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def load_loop_file(path: str | Path) -> MatrixLaurent:
    return _loop_from_doc(_load_json(path), path)


def _loop_from_doc(doc: Any, path: str | Path) -> MatrixLaurent:
    n = _check_header(doc, path)
    grid = doc.get("entries")
    if not isinstance(grid, list) or len(grid) != n or any(not isinstance(row, list) or len(row) != n for row in grid):
        raise FileFormatError(f"{path}: 'entries' must be an {n} x {n} grid")
    rows = [
        [_poly_from_json(grid[i][j], f"{path}: entry ({i},{j})") for j in range(n)]
        for i in range(n)
    ]
    _check_lags(path, [p for row in rows for p in row], 1)
    return MatrixLaurent(rows)


def save_loop_file(path: str | Path, mat: MatrixLaurent) -> None:
    n = mat.n
    records = _polys_to_json([mat[i, j] for i in range(n) for j in range(n)])
    doc = {"version": 1, "n": n, "entries": [records[i * n : (i + 1) * n] for i in range(n)]}
    _loop_from_doc(doc, path)
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def save_sampled_system(path: str | Path, sampled: SampledSystem) -> None:
    doc = {
        "version": 1,
        "kind": "sampled-system",
        "n": sampled.n,
        "grid_size": len(sampled.base_points),
        "unitarity_residual": sampled.unitarity_residual,
        "base_points": complex_pairs(sampled.base_points),
        "representatives": complex_pairs(sampled.representatives),
        "values": complex_pairs(sampled.values),
    }
    Path(path).write_text(json.dumps(doc, sort_keys=True) + "\n")


def load_input(path: str | Path) -> FilterSystem | MatrixLaurent:
    """Read a filter file or a loop file, whichever it is, parsing it once."""
    doc = _load_json(path)
    if _kind(doc, path) == "filters":
        return FilterSystem(*_filters_from_doc(doc, path))
    return _loop_from_doc(doc, path)


def detect_kind(path: str | Path) -> str:
    """'filters' or 'loop', judged by which payload key the file carries."""
    return _kind(_load_json(path), path)


def _kind(doc: Any, path: str | Path) -> str:
    if isinstance(doc, dict):
        if "filters" in doc:
            return "filters"
        if "entries" in doc:
            return "loop"
    raise FileFormatError(f"{path}: neither a filter file nor a loop file")
