"""Command-line front end.

Exit codes: 0 = pass, 1 = mathematical failure (verification, paraunitarity,
low-pass, ...), 2 = I/O or format error, or a request too large for memory.
The LOOPWAVE_TOL environment variable overrides the default tolerance of
every command that takes --tol.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Any

import numpy as np

from . import cuntz_rep, fileio, irreducibility, qmf, wavelet
from .fileio import FileFormatError
from .laurent import MatrixLaurent
from .loopgroup import FilterSystem, Loop, filters_to_loop, loop_to_filters, polyphase_matrix

PASS, FAIL, USAGE = 0, 1, 2


def _default_tol(fallback: float = 1e-10) -> float:
    raw = os.environ.get("LOOPWAVE_TOL")
    if raw is None:
        return fallback
    try:
        return float(raw)
    except ValueError as exc:
        raise FileFormatError(f"LOOPWAVE_TOL is not a number: {raw!r}") from exc


def _emit(report: dict[str, Any], as_json: bool) -> None:
    if as_json:
        print(json.dumps(report, sort_keys=True))
    else:
        for key, value in report.items():
            print(f"{key}: {value}")


def _certified_loop(path: str, mat: MatrixLaurent, tol: float) -> Loop:
    ok, residual = mat.is_paraunitary(tol)
    if not ok:
        raise _MathFailure(
            f"{path}: input does not define a paraunitary loop (residual {residual:.3e})"
        )
    return Loop(mat, certified=True)


def _load_as_loop(path: str, tol: float) -> Loop:
    """Read either file kind as a loop; filter files go through the polyphase map."""
    loaded = fileio.load_input(path)
    mat = polyphase_matrix(loaded) if isinstance(loaded, FilterSystem) else loaded
    return _certified_loop(path, mat, tol)


def _load_system(path: str, tol: float) -> FilterSystem:
    loaded = fileio.load_input(path)
    if isinstance(loaded, FilterSystem):
        return qmf.certify(loaded, tol=tol)
    return loop_to_filters(_certified_loop(path, loaded, tol))


class _MathFailure(Exception):
    """Command-level mathematical failure; maps to exit code 1."""


def _cells(values: np.ndarray) -> list[str]:
    """CSV cells of a sample column: the real part when the imaginary part is
    at most 1e-12, else the complex value."""
    real = list(map(repr, np.real(values).tolist()))
    is_real = np.abs(np.imag(values)) <= 1e-12
    if is_real.all():
        return real
    return [r if ok else repr(c) for r, ok, c in zip(real, is_real.tolist(), values.tolist())]


def cmd_verify(args: argparse.Namespace) -> int:
    loaded = fileio.load_filter_file(args.path)
    assert isinstance(loaded, FilterSystem)
    # Resolved here for the same reason as in qmf.certify.
    grid = qmf.default_grid(loaded.n) if args.grid is None else args.grid
    report = qmf.verify_qmf(loaded, tol=args.tol, grid_size=grid)
    _emit(
        {
            "n": report.n,
            "unitary_residual": report.unitary_residual,
            "scalar_residual": report.scalar_residual,
            "low_pass": report.low_pass,
            "grid_residual": report.grid_residual,
            "tol": report.tol,
            "passed": report.passed,
        },
        args.json,
    )
    return PASS if report.passed else FAIL


def cmd_convert(args: argparse.Namespace) -> int:
    loaded = fileio.load_input(args.path)
    if args.to == "loop":
        if not isinstance(loaded, FilterSystem):
            raise FileFormatError(f"{args.path}: expected a filter file for --to loop")
        loop = filters_to_loop(loaded, tol=args.tol)
        if not loop.certified:
            raise _MathFailure(
                f"{args.path}: filter system is not QMF, refusing to write a non-paraunitary loop"
            )
        fileio.save_loop_file(args.out, loop.mat)
    else:
        if isinstance(loaded, FilterSystem):
            raise FileFormatError(f"{args.path}: expected a loop file for --to filters")
        loop = _certified_loop(args.path, loaded, args.tol)
        fileio.save_filter_file(args.out, loop_to_filters(loop))
    print(f"wrote {args.out}")
    return PASS


def _witness_report(witness: irreducibility.CornerWitness | None) -> dict[str, Any]:
    if witness is None:
        return {"witness": None}
    return {
        "witness": {
            "rank": witness.m,
            "exponents": list(witness.exponents),
            "vectors": [[[c.real, c.imag] for c in witness.vectors[:, k]] for k in range(witness.m)],
            "v_matrix": [[[c.real, c.imag] for c in row] for row in witness.v_matrix],
            "residual": witness.residual,
        }
    }


def cmd_classify(args: argparse.Namespace) -> int:
    loop = _load_as_loop(args.path, args.tol)
    verdict = irreducibility.classify(loop)
    report: dict[str, Any] = {"status": verdict.status}
    report.update(_witness_report(verdict.witness))
    report["semantics_note"] = verdict.semantics_note
    if args.json:
        print(json.dumps(report, sort_keys=True))
    else:
        print(f"status: {verdict.status}")
        if verdict.witness is not None:
            w = verdict.witness
            print(f"corner rank: {w.m}")
            print(f"exponents: {list(w.exponents)}")
            for k in range(w.m):
                vec = ", ".join(f"{c:.6g}" for c in w.vectors[:, k])
                print(f"v_{k} (exponent {w.exponents[k]}): [{vec}]")
            for row in w.v_matrix:
                print("V: [" + ", ".join(f"{c:.6g}" for c in row) + "]")
        print(f"note: {verdict.semantics_note}")
    return PASS


def cmd_cascade(args: argparse.Namespace) -> int:
    loaded = fileio.load_filter_file(args.path)
    assert isinstance(loaded, FilterSystem)
    report = qmf.verify_qmf(loaded, tol=args.tol, grid_size=qmf.default_grid(loaded.n))
    if not report.passed:
        raise _MathFailure(
            f"{args.path}: filter system fails QMF verification "
            f"(unitary residual {report.unitary_residual:.3e})"
        )
    if not report.low_pass:
        raise _MathFailure(
            f"{args.path}: m_0 is not low-pass (m_0(1) must equal 1 for a scaling filter)"
        )
    system = loaded.with_verified(True)
    phi = wavelet.cascade(system.filters[0], system.n, args.iters, tol=args.tol)
    psi = wavelet.wavelets(system, phi)

    # Built column by column and joined with csv's "\r\n" line terminator;
    # no cell holds a character that csv would quote.  Row i holds x = i step,
    # phi there, and each psi at its fine index i N - start (0 off its support).
    rows = len(phi.values)
    columns = [_cells(np.arange(rows) * phi.step), _cells(phi.values)]
    fine = np.arange(rows) * system.n - psi.start_index
    inside = (fine >= 0) & (fine < psi.values.shape[1])
    for g in range(system.n - 1):
        col = np.zeros(rows, dtype=psi.values.dtype)
        col[inside] = psi.values[g, fine[inside]]
        columns.append(_cells(col))
    header = ",".join(["x", "phi"] + [f"psi_{i}" for i in range(1, system.n)])
    with open(args.out, "w", newline="") as fh:
        fh.write("\r\n".join([header] + [",".join(cells) for cells in zip(*columns)]) + "\r\n")
    print(
        f"wrote {args.out} ({len(phi.values)} rows, seed={phi.seed}, "
        f"converged={phi.converged}, last_delta={phi.last_delta:.3e})"
    )
    return PASS


def cmd_cuntz_check(args: argparse.Namespace) -> int:
    system = _load_system(args.path, args.tol)
    rep = cuntz_rep.build_rep(system, cuntz_rep.Band(-args.band, args.band))
    report = cuntz_rep.verify_cuntz(rep)
    interior = report.interior
    _emit(
        {
            "isometry_residual": report.isometry_residual,
            "completeness_residual": report.completeness_residual,
            "interior": None if interior is None else [interior.k_min, interior.k_max],
            "tol": args.tol,
            "passed": report.passes(args.tol),
        },
        args.json,
    )
    return PASS if report.passes(args.tol) else FAIL


def cmd_equiv(args: argparse.Namespace) -> int:
    loop_a = _load_as_loop(args.path_a, args.tol)
    loop_b = _load_as_loop(args.path_b, args.tol)
    verdict = irreducibility.equivalent(loop_a, loop_b, tol=args.tol)
    _emit({"verdict": verdict}, args.json)
    return PASS


def cmd_complete(args: argparse.Namespace) -> int:
    loaded = fileio.load_filter_file(args.path, allow_partial=True)
    assert isinstance(loaded, tuple)
    n, polys = loaded
    m0 = polys[0]
    try:
        result = qmf.complete(m0, n, mode=args.mode, grid_size=args.grid, tol=args.tol)
    except ValueError as exc:
        raise _MathFailure(f"{args.path}: {exc}") from exc
    if isinstance(result, FilterSystem):
        fileio.save_filter_file(args.out, result)
    else:
        doc = {
            "version": 1,
            "kind": "sampled-system",
            "n": result.n,
            "grid_size": len(result.base_points),
            "unitarity_residual": result.unitarity_residual,
            "base_points": [[z.real, z.imag] for z in result.base_points],
            "representatives": [
                [[w.real, w.imag] for w in row] for row in result.representatives
            ],
            "values": [
                [[[v.real, v.imag] for v in fib] for fib in filt] for filt in result.values
            ],
        }
        Path(args.out).write_text(json.dumps(doc, sort_keys=True) + "\n")
    print(f"wrote {args.out}")
    return PASS


def cmd_commutant(args: argparse.Namespace) -> int:
    system = _load_system(args.path, args.tol)
    band = cuntz_rep.attractor_band(system) if args.band is None else cuntz_rep.Band(-args.band, args.band)
    report = cuntz_rep.commutant_diagnostic(cuntz_rep.build_rep(system, band), tol=args.commutant_tol)
    svals = np.array2string(report.singular_values[:16], precision=3, separator=", ")
    _emit(
        {
            "dimension": report.dimension,
            "band": [report.band.k_min, report.band.k_max],
            "leading_singular_values": svals,
            "note": "exact: fixed points of sigma(A) = sum_i V_i A V_i^* on the attractor band",
        },
        args.json,
    )
    return PASS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="loopwave",
        description="Loop-group parametrization of wavelet filter banks: "
        "verify, convert, classify, synthesize.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    tol = _default_tol()

    p = sub.add_parser("verify", help="QMF verification report for a filter file")
    p.add_argument("path")
    p.add_argument("--tol", type=float, default=tol)
    p.add_argument("--grid", type=int, default=None, help="default: the smallest multiple of N at or above 256")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("convert", help="convert between filter and loop files")
    p.add_argument("path")
    p.add_argument("--to", choices=["loop", "filters"], required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--tol", type=float, default=tol)
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("classify", help="irreducibility verdict for a loop or filter file")
    p.add_argument("path")
    p.add_argument("--tol", type=float, default=tol)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("cascade", help="scaling function and wavelet samples as CSV")
    p.add_argument("path")
    p.add_argument("--iters", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--tol", type=float, default=tol)
    p.set_defaults(func=cmd_cascade)

    p = sub.add_parser("cuntz-check", help="isometry/completeness residuals on a band")
    p.add_argument("path")
    p.add_argument("--band", type=int, required=True)
    p.add_argument("--tol", type=float, default=tol)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_cuntz_check)

    p = sub.add_parser("equiv", help="compare two loops modulo monomial corners")
    p.add_argument("path_a")
    p.add_argument("path_b")
    p.add_argument("--tol", type=float, default=tol)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_equiv)

    p = sub.add_parser("complete", help="complete a scalar filter to a full system")
    p.add_argument("path")
    p.add_argument("--mode", choices=["fir2", "grid"], default="fir2")
    p.add_argument("--grid", type=int, default=None, help="default: the smallest multiple of N at or above 256")
    p.add_argument("--out", required=True)
    p.add_argument("--tol", type=float, default=tol)
    p.set_defaults(func=cmd_complete)

    p = sub.add_parser("commutant", help="commutant dimension, exact on the attractor band")
    p.add_argument("path")
    p.add_argument("--band", type=int, default=None, help="input band [-B, B]; default: the attractor band K")
    p.add_argument("--tol", type=float, default=tol)
    p.add_argument("--commutant-tol", type=float, default=1e-6, dest="commutant_tol")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_commutant)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
        return args.func(args)
    except FileFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE
    except _MathFailure as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return FAIL
    except ValueError as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return FAIL
    except MemoryError:
        print("error: out of memory; reduce the requested size (--band, --iters or --grid)", file=sys.stderr)
        return USAGE


if __name__ == "__main__":
    sys.exit(main())
