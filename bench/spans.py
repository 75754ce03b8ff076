"""Spans and counters around loopwave's public functions, from outside.

``Tracer.install`` replaces each traced function by a wrapper in every
loopwave module namespace that holds it (``qmf`` and ``cli`` bind
``filters_to_loop`` directly, for example), and the two traced
``MatrixLaurent`` methods on the class itself; ``uninstall`` puts the
originals back.  Each call records a span: its metric name, start, end,
parent span and job.  A layer's time is its self time, the span minus its
child spans, summed over the traced rounds and reported per round.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from collections import defaultdict

#: (module, attribute, span name).  Several functions may share a span name.
SPANS = [
    ("laurent", "MatrixLaurent.is_paraunitary", "laurent.is_paraunitary"),
    ("laurent", "MatrixLaurent.__matmul__", "laurent.matmul"),
    ("loopgroup", "random_paraunitary", "loopgroup.random_paraunitary"),
    ("loopgroup", "loop_to_filters", "loopgroup.polyphase"),
    ("loopgroup", "filters_to_loop", "loopgroup.polyphase"),
    ("loopgroup", "transition", "loopgroup.transition"),
    ("loopgroup", "act", "loopgroup.act"),
    ("qmf", "verify_qmf", "qmf.verify_qmf"),
    ("qmf", "complete", "qmf.complete"),
    ("irreducibility", "classify", "irreducibility.classify"),
    ("irreducibility", "equivalent", "irreducibility.equivalent"),
    ("cuntz_rep", "build_rep", "cuntz_rep.build_rep"),
    ("cuntz_rep", "verify_cuntz", "cuntz_rep.verify_cuntz"),
    ("cuntz_rep", "reconstruct", "cuntz_rep.reconstruct"),
    ("cuntz_rep", "transition_operator_matrix", "cuntz_rep.transition_operator"),
    ("cuntz_rep", "commutant_diagnostic", "cuntz_rep.commutant"),
    ("wavelet", "cascade", "wavelet.cascade"),
    ("wavelet", "wavelets", "wavelet.wavelets"),
    ("wavelet", "check_intertwine", "wavelet.intertwine"),
    ("wavelet", "orthonormality_check", "wavelet.orthonormality"),
    ("fileio", "detect_kind", "fileio.load"),
    ("fileio", "load_filter_file", "fileio.load"),
    ("fileio", "load_loop_file", "fileio.load"),
    ("fileio", "save_filter_file", "fileio.save"),
    ("fileio", "save_loop_file", "fileio.save"),
    ("cli", "main", "cli.main"),
]

SPAN_NAMES = sorted({name for _, _, name in SPANS})

#: Per-round counters reported beside the self times.
COUNTERS = {
    "laurent.is_paraunitary_calls": "count",
    "qmf.grid_points": "count",
    "cuntz_rep.matrix_bytes": "B",
    "wavelet.samples": "count",
    "fileio.bytes_read": "B",
    "fileio.bytes_written": "B",
}

#: Unit of every per-layer metric the traced run reports.
UNITS = {
    **{name + "_s": "s" for name in SPAN_NAMES},
    **COUNTERS,
    "laurent.certificates_per_loop": "ratio",
    "fileio.parses_per_input": "ratio",
    "import.scipy_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}


class Tracer:
    def __init__(self) -> None:
        # Span table: one entry per call, parent is an index or -1.
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.jobs: list[int] = []
        self._stack: list[int] = []
        self._job = -1
        self.counts: dict[str, float] = defaultdict(float)
        # Per-job sets behind the two waste ratios; values are kept alive
        # until the job ends so that ids are not reused.
        self._certified: dict[int, object] = {}
        self._inputs: set[str] = set()
        self._patched: list[tuple[object, str, object]] = []
        self._qmf_signature = None

    # -- spans ----------------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.jobs.append(self._job)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    def begin_job(self, kind: str) -> None:
        self._job += 1
        self._open("job." + kind)

    def end_job(self) -> None:
        self._close(self._stack[-1])
        self.counts["loops_certified"] += len(self._certified)
        self.counts["input_files"] += len(self._inputs)
        self._certified.clear()
        self._inputs.clear()

    def self_times(self) -> dict[str, float]:
        child = [0.0] * len(self.names)
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += self.ends[idx] - self.starts[idx]
        totals: dict[str, float] = defaultdict(float)
        for idx, name in enumerate(self.names):
            totals[name] += self.ends[idx] - self.starts[idx] - child[idx]
        return totals

    # -- counters ---------------------------------------------------------------

    def _count(self, name: str, args: tuple, kwargs: dict, result) -> None:
        c = self.counts
        if name == "laurent.is_paraunitary":
            c["laurent.is_paraunitary_calls"] += 1
            self._certified[id(args[0])] = args[0]
        elif name == "qmf.verify_qmf":
            bound = self._qmf_signature.bind(*args, **kwargs)
            bound.apply_defaults()
            c["qmf.grid_points"] += bound.arguments["grid_size"]
        elif name == "cuntz_rep.build_rep":
            c["cuntz_rep.matrix_bytes"] += sum(s.shape[0] * s.shape[1] * s.itemsize for s in result.S)
        elif name == "wavelet.cascade" or name == "wavelet.wavelets":
            c["wavelet.samples"] += result.values.size
        elif name == "fileio.load":
            path = os.fspath(args[0] if args else kwargs["path"])
            c["fileio.parses"] += 1
            c["fileio.bytes_read"] += os.path.getsize(path)
            self._inputs.add(path)
        elif name == "fileio.save":
            c["fileio.bytes_written"] += os.path.getsize(args[0] if args else kwargs["path"])

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            self._count(name, args, kwargs, result)
            return result

        return traced

    # -- patching ----------------------------------------------------------------

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items() if key == "loopwave" or key.startswith("loopwave.")]
        for module_name, attr, name in SPANS:
            owner = sys.modules["loopwave." + module_name]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[method]
                self._patched.append((cls, method, original))
                setattr(cls, method, self._wrap(name, original))
                continue
            original = getattr(owner, attr)
            if name == "qmf.verify_qmf":
                self._qmf_signature = inspect.signature(original)
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()

    # -- report ---------------------------------------------------------------------

    def metrics(self, rounds: int) -> dict[str, float]:
        """Self times and counters per traced round, and the two waste ratios."""
        times = self.self_times()
        out = {name + "_s": times.get(name, 0.0) / rounds for name in SPAN_NAMES}
        out.update({name: self.counts[name] / rounds for name in COUNTERS})
        c = self.counts
        out["laurent.certificates_per_loop"] = (
            c["laurent.is_paraunitary_calls"] / c["loops_certified"] if c["loops_certified"] else 0.0
        )
        out["fileio.parses_per_input"] = c["fileio.parses"] / c["input_files"] if c["input_files"] else 0.0
        out["trace.spans"] = len(self.names) / rounds
        return out
