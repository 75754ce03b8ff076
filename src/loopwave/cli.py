"""Command-line front end.

Exit codes: 0 = pass, 1 = mathematical failure: a report that does not pass,
or any ``ValueError`` a command raises (an input that is not paraunitary,
a filter that is not low-pass, a cascade that diverges, ...); 2 = I/O or
format error, an output its loader refuses, a negative size or tolerance,
or a request over its budget or memory.  ``--json`` writes NaN and
infinities as null: strict JSON.
The LOOPWAVE_TOL environment variable overrides the default tolerance of
every command that takes --tol; it is read on every ``main()`` call, and
``main()`` may be called any number of times in one process.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys
from typing import Any

import numpy as np

from . import cuntz_rep, fileio, irreducibility, qmf, wavelet
from .fileio import FileFormatError
from .laurent import CERTIFY_TOL, MatrixLaurent, stack
from .loopgroup import FilterSystem, Loop, certify_loop, interleave, loop_to_filters, polyphase_matrix

PASS, FAIL, USAGE = 0, 1, 2

#: Rows of the cascade CSV formatted and written at a time.
CSV_CHUNK_ROWS = 4096

#: Most samples, phi and every psi together, that ``cascade`` computes:
#: 2^26 complex samples take 1 GiB.
CASCADE_SAMPLE_BUDGET = 1 << 26

#: Most grid values that ``verify`` (N per grid point) and ``complete``
#: (N^2 per grid point, each written as a JSON pair in grid mode) compute: 2^21
#: complex values take 32 MiB as an array, and about 700 MB while complete
#: builds its JSON (about 330 bytes a value).
GRID_VALUE_BUDGET = 1 << 21

#: Most entries that ``cuntz-check --band B`` (its column windows,
#: N L (2B + 1) for L filter taps) and ``commutant`` (sigma on the attractor
#: band K, |K|^4) compute: 2^24 complex entries take 256 MiB.
BAND_ENTRY_BUDGET = 1 << 24


def _default_tol() -> float:
    raw = os.environ.get("LOOPWAVE_TOL")
    if raw is None:
        return CERTIFY_TOL
    try:
        return float(raw)
    except ValueError as exc:
        raise FileFormatError(f"LOOPWAVE_TOL is not a number: {raw!r}") from exc


def _emit(report: dict[str, Any], as_json: bool) -> None:
    if as_json:
        strict = {k: None if isinstance(v, float) and not math.isfinite(v) else v for k, v in report.items()}
        print(json.dumps(strict, sort_keys=True))
    else:
        for key, value in report.items():
            print(f"{key}: {value}")


def _filters(loaded: FilterSystem | MatrixLaurent) -> FilterSystem:
    """The input's filters, not certified (a loop's are interleaved), to read budgets off."""
    return loaded if isinstance(loaded, FilterSystem) else FilterSystem(loaded.n, interleave(loaded))


def _certify(path: str, loaded: FilterSystem | MatrixLaurent, tol: float) -> Loop:
    """The input's loop (for a filter file, the polyphase loop), once it
    passes one paraunitarity certificate."""
    try:
        return certify_loop(polyphase_matrix(loaded) if isinstance(loaded, FilterSystem) else loaded, tol)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _certified_system(path: str, loaded: FilterSystem | MatrixLaurent, tol: float) -> FilterSystem:
    """The input as a filter system, once its loop passes ``_certify``."""
    loop = _certify(path, loaded, tol)
    return loaded.with_verified(True) if isinstance(loaded, FilterSystem) else loop_to_filters(loop)


class _OverBudget(Exception):
    """A size input whose estimate exceeds its budget; maps to exit code 2."""


def _check_budget(option: str, value: int, need: float, unit: str, budget: int) -> None:
    """Refuse, before anything is allocated, a size input that needs more
    than budget units."""
    if need > budget:
        shown = need if need <= sys.float_info.max else math.inf  # an integer past it has no float
        raise _OverBudget(
            f"{option} {value} needs about {shown:.3g} {unit}, over the budget of {budget}; reduce {option}"
        )


def _cells(values: np.ndarray) -> list[str]:
    """CSV cells of a sample column: repr of the real part when the imaginary
    part is at most 1e-12, else repr of the complex value."""
    is_real = np.abs(np.imag(values)) <= 1e-12
    if is_real.all():
        return list(map(repr, np.real(values).tolist()))
    return [repr(v.real) if r else repr(v) for v, r in zip(values.tolist(), is_real.tolist())]


def cmd_verify(args: argparse.Namespace) -> int:
    loaded = fileio.load_filter_file(args.path)
    assert isinstance(loaded, FilterSystem)
    # Resolved here for the budget; the tracer (bench/spans.py) sums it from verify_qmf's arguments.
    grid = qmf._grid_size(loaded.n, args.grid)
    _check_budget("--grid", grid, grid * loaded.n, "grid values", GRID_VALUE_BUDGET)
    report = qmf.verify_qmf(loaded, tol=args.tol, grid_size=grid)
    _emit({**dataclasses.asdict(report), "passed": report.passed}, args.json)
    return PASS if report.passed else FAIL


def cmd_convert(args: argparse.Namespace) -> int:
    loaded = fileio.load_input(args.path)
    if args.to == "loop":
        if not isinstance(loaded, FilterSystem):
            raise FileFormatError(f"{args.path}: expected a filter file for --to loop")
        fileio.save_loop_file(args.out, _certify(args.path, loaded, args.tol).mat)
    else:
        if isinstance(loaded, FilterSystem):
            raise FileFormatError(f"{args.path}: expected a loop file for --to filters")
        fileio.save_filter_file(args.out, _certified_system(args.path, loaded, args.tol))
    print(f"wrote {args.out}")
    return PASS


def _witness_report(witness: irreducibility.CornerWitness | None) -> dict[str, Any]:
    if witness is None:
        return {"witness": None}
    return {
        "witness": {
            "rank": witness.m,
            "exponents": list(witness.exponents),
            "vectors": fileio.complex_pairs(witness.vectors.T),
            "v_matrix": fileio.complex_pairs(witness.v_matrix),
            "residual": witness.residual,
        }
    }


def cmd_classify(args: argparse.Namespace) -> int:
    loop = _certify(args.path, fileio.load_input(args.path), args.tol)
    verdict = irreducibility.classify(loop, tol=args.tol)
    report: dict[str, Any] = {"status": verdict.status}
    report.update(_witness_report(verdict.witness))
    report["semantics_note"] = verdict.semantics_note
    if args.json:
        _emit(report, True)
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
    samples = wavelet.cascade_samples(loaded, args.iters)
    _check_budget("--iters", args.iters, samples, "samples", CASCADE_SAMPLE_BUDGET)
    system = _certified_system(args.path, loaded, args.tol)
    phi = wavelet.cascade(system.filters[0], system.n, args.iters, tol=args.tol)
    psi = wavelet.wavelets(system, phi)

    # Built column by column, CSV_CHUNK_ROWS rows at a time, and joined with
    # csv's "\r\n" line terminator; no cell holds a character that csv would
    # quote.  Row i holds x = i step, phi there, and each psi at its fine index
    # i N - start (0 off its support).
    rows = len(phi.values)
    header = ",".join(["x", "phi"] + [f"psi_{i}" for i in range(1, system.n)])
    with open(args.out, "w", newline="") as fh:
        fh.write(header + "\r\n")
        for start in range(0, rows, CSV_CHUNK_ROWS):
            index = np.arange(start, min(start + CSV_CHUNK_ROWS, rows))
            columns = [_cells(index * phi.step), _cells(phi.values[index])]
            fine = index * system.n - psi.start_index
            inside = (fine >= 0) & (fine < psi.values.shape[1])
            for g in range(system.n - 1):
                col = np.zeros(len(index), dtype=psi.values.dtype)
                col[inside] = psi.values[g, fine[inside]]
                columns.append(_cells(col))
            fh.write("\r\n".join(map(",".join, zip(*columns))) + "\r\n")
    print(
        f"wrote {args.out} ({len(phi.values)} rows, seed={phi.seed}, "
        f"converged={phi.converged}, last_delta={phi.last_delta:.3e})"
    )
    return PASS


def cmd_cuntz_check(args: argparse.Namespace) -> int:
    loaded = fileio.load_input(args.path)
    taps = len(stack(_filters(loaded).filters)[1])
    _check_budget("--band", args.band, loaded.n * taps * (2 * args.band + 1), "entries", BAND_ENTRY_BUDGET)
    system = _certified_system(args.path, loaded, args.tol)
    rep = cuntz_rep.build_rep(system, cuntz_rep.Band(-args.band, args.band))
    report = cuntz_rep.verify_cuntz(rep)
    passed = report.passes(args.tol)
    interior = None if report.interior is None else [report.interior.k_min, report.interior.k_max]
    _emit({**dataclasses.asdict(report), "interior": interior, "tol": args.tol, "passed": passed}, args.json)
    return PASS if passed else FAIL


def cmd_equiv(args: argparse.Namespace) -> int:
    loop_a = _certify(args.path_a, fileio.load_input(args.path_a), args.tol)
    loop_b = _certify(args.path_b, fileio.load_input(args.path_b), args.tol)
    verdict = irreducibility.equivalent(loop_a, loop_b, tol=args.tol)
    _emit({"verdict": verdict}, args.json)
    return PASS


def cmd_complete(args: argparse.Namespace) -> int:
    loaded = fileio.load_filter_file(args.path, allow_partial=True)
    assert isinstance(loaded, tuple)
    n, polys = loaded
    m0 = polys[0]
    try:
        grid = qmf._grid_size(n, args.grid)
        if args.mode == "grid":  # N^2 values a point; fir2 builds no grid
            _check_budget("--grid", grid, grid * n * n, "grid values", GRID_VALUE_BUDGET)
        result = qmf.complete(m0, n, mode=args.mode, grid_size=grid, tol=args.tol)
    except ValueError as exc:
        raise ValueError(f"{args.path}: {exc}") from exc
    if isinstance(result, FilterSystem):
        fileio.save_filter_file(args.out, result)
    else:
        fileio.save_sampled_system(args.out, result)
    print(f"wrote {args.out}")
    return PASS


def cmd_commutant(args: argparse.Namespace) -> int:
    loaded = fileio.load_input(args.path)
    filters = _filters(loaded)
    # A zero system has no attractor band; |K| = 0 leaves it to the certificate to refuse.
    size = 0 if all(f.is_zero for f in filters.filters) else cuntz_rep.attractor_band(filters).size
    _check_budget("|K|", size, size**4, "entries of sigma", BAND_ENTRY_BUDGET)
    system = _certified_system(args.path, loaded, args.tol)
    try:
        report = cuntz_rep._commutant(system, args.commutant_tol)
    except ValueError as exc:
        raise ValueError(f"{args.path}: {exc}") from exc
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
    # --tol has no default here: main() fills in LOOPWAVE_TOL or CERTIFY_TOL on
    # every call, so that one parser serves every call of a process.

    p = sub.add_parser("verify", help="QMF verification report for a filter file")
    p.add_argument("path")
    p.add_argument("--tol", type=float)
    p.add_argument("--grid", type=int, help=f"default: the smallest multiple of N at or above {qmf.DEFAULT_GRID}")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("convert", help="convert between filter and loop files")
    p.add_argument("path")
    p.add_argument("--to", choices=["loop", "filters"], required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--tol", type=float)
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("classify", help="irreducibility verdict for a loop or filter file")
    p.add_argument("path")
    p.add_argument("--tol", type=float)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("cascade", help="scaling function and wavelet samples as CSV")
    p.add_argument("path")
    p.add_argument("--iters", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--tol", type=float)
    p.set_defaults(func=cmd_cascade)

    p = sub.add_parser("cuntz-check", help="isometry/completeness residuals on a band")
    p.add_argument("path")
    p.add_argument("--band", type=int, required=True)
    p.add_argument("--tol", type=float)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_cuntz_check)

    p = sub.add_parser("equiv", help="compare two loops modulo monomial corners")
    p.add_argument("path_a")
    p.add_argument("path_b")
    p.add_argument("--tol", type=float)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_equiv)

    p = sub.add_parser("complete", help="complete a scalar filter to a full system")
    p.add_argument("path")
    p.add_argument("--mode", choices=["fir2", "grid"], default="fir2")
    p.add_argument("--grid", type=int, help=f"default: the smallest multiple of N at or above {qmf.DEFAULT_GRID}")
    p.add_argument("--out", required=True)
    p.add_argument("--tol", type=float)
    p.set_defaults(func=cmd_complete)

    p = sub.add_parser("commutant", help="commutant dimension, exact on the attractor band")
    p.add_argument("path")
    p.add_argument("--band", type=int, default=None, help="ignored: the commutant is computed on the attractor band K")
    p.add_argument("--tol", type=float)
    p.add_argument("--commutant-tol", type=float, default=cuntz_rep.COMMUTANT_TOL, dest="commutant_tol")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_commutant)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser(), built on the first main() call and kept for the process."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        tol = _default_tol()  # read first, so a bad LOOPWAVE_TOL exits 2 even with --tol
        args = _parser().parse_args(argv)
        if args.tol is None:
            args.tol = tol
        # Tolerances and sizes: 0 is valid (exact inputs certify at exactly 0,
        # and --iters 0 is the seed), NaN is not.
        values = {
            "LOOPWAVE_TOL": tol,
            "--tol": args.tol,
            "--commutant-tol": getattr(args, "commutant_tol", 0.0),
            "--band": getattr(args, "band", None) or 0,
            "--iters": getattr(args, "iters", 0),
        }
        for option, value in values.items():
            if not value >= 0:
                raise FileFormatError(f"{option} must be a non-negative number, got {value!r}")
        return args.func(args)
    except (FileFormatError, _OverBudget, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE
    except ValueError as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return FAIL
    except MemoryError:
        print("error: out of memory; reduce the requested size (--band, --iters or --grid)", file=sys.stderr)
        return USAGE


if __name__ == "__main__":
    sys.exit(main())
