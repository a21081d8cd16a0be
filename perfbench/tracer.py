"""Per-layer spans around the public functions of the svoc modules.

The tracer wraps each listed function and rebinds the wrapper under every
name that holds the original in a loaded svoc module (the defining module
and every module that from-imports it), plus `numpy.linalg.eigh`, which
`optimality` reaches as an attribute.  Uninstalling puts every original back.
Spans stay in memory; the caller writes them out when the run ends.

Each span covers the wrapper, so its extent includes the wrapper's own
bookkeeping (argument digests, tracemalloc reads, file sizes).  That
bookkeeping is recorded per span and charged to no layer, so

    sum(self times) + sum(bookkeeping) = sum(top-level span extents).
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import sys
import time
import tracemalloc
from contextlib import contextmanager
from pathlib import Path

import numpy as np

# module -> public functions timed in that layer
LAYERS = {
    "cli": ("run_command",),
    "expr": ("parse_expression",),
    "problem": ("builtin_problem", "load_problem_file"),
    "quadrature": ("make_grid", "singular_weights", "midpoint_weights"),
    "state": ("solve_state", "evaluate_cost", "solve_y1", "solve_y2"),
    "adjoint": ("solve_adjoint",),
    "resolvent": ("build_resolvent", "build_q_kernel", "midpoint_apply_matrix",
                  "node_apply_row"),
    "optimality": ("hamiltonian_fields", "detect_singular", "assemble_m_kernel",
                   "quadratic_form", "second_order_test", "eigh"),
    "oracle": ("fd_expansion_check", "variational_fd_check", "convergence_study",
               "linear_analytic_solution"),
    "reports": ("dump_json", "trajectory_csv", "table_csv"),
}
# functions that get extra statistics
REPEAT = frozenset({"resolvent.build_q_kernel", "resolvent.midpoint_apply_matrix",
                    "optimality.hamiltonian_fields", "state.solve_state",
                    "adjoint.solve_adjoint"})
PEAK = frozenset({"resolvent.build_q_kernel", "optimality.hamiltonian_fields",
                  "optimality.assemble_m_kernel", "optimality.second_order_test"})
EXP = frozenset({"resolvent.build_q_kernel", "optimality.hamiltonian_fields",
                 "optimality.eigh", "state.solve_state", "adjoint.solve_adjoint"})
WRITERS = frozenset({"reports.dump_json", "reports.trajectory_csv", "reports.table_csv"})

FUNCTIONS = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns)


@dataclasses.dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    overhead: float = 0.0        # wrapper bookkeeping inside [start, end]
    repeat: bool = False         # array arguments byte-equal to an earlier call
    peak_bytes: int | None = None
    bytes_written: int = 0


def self_times(spans) -> dict[int, float]:
    """Span extent minus its own bookkeeping minus its direct children's extents."""
    out = {s.id: (s.end - s.start) - s.overhead for s in spans}
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.end - s.start
    return out


def _digest(obj, h, depth: int = 0) -> None:
    if isinstance(obj, np.ndarray):
        h.update(f"{obj.dtype.str}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).view(np.uint8).data)
    elif obj is None or isinstance(obj, (bool, int, float, str)):
        h.update(repr(obj).encode())
    elif isinstance(obj, (tuple, list)):
        h.update(b"(")
        for item in obj:
            _digest(item, h, depth + 1)
        h.update(b")")
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type) and depth < 4:
        h.update(type(obj).__name__.encode())
        for field in dataclasses.fields(obj):
            _digest(getattr(obj, field.name), h, depth + 1)
    else:
        # problems, expressions, closures: the same object within one command
        h.update(f"<{type(obj).__name__}@{id(obj)}>".encode())


def call_key(args, kwargs) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    _digest(args, h)
    _digest(sorted(kwargs.items()), h)
    return h.digest()


class _MemFrame:
    __slots__ = ("base", "peak", "started")

    def __init__(self, base: int, started: bool):
        self.base = base
        self.peak = base
        self.started = started


class Tracer:
    """Collects spans while installed; `memory=True` also records tracemalloc
    peaks for the PEAK functions (slow, so it is a separate pass)."""

    def __init__(self, memory: bool = False):
        self.memory = memory
        self.spans: list[Span] = []
        self._next_id = 0
        self._stack: list[int] = []
        self._seen: dict[str, set] = {}
        self._mem: list[_MemFrame] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "svoc" or name.startswith("svoc."))]
        for qualname in FUNCTIONS:
            mod, fn = qualname.split(".")
            if fn == "eigh":
                holders = [np.linalg]
                original = np.linalg.eigh
            else:
                original = getattr(sys.modules[f"svoc.{mod}"], fn)
                holders = modules
            wrapped = self._wrap(qualname, original)
            for holder in holders:
                for attr, value in list(vars(holder).items()):
                    if value is original:
                        self._restore.append((holder, attr, original))
                        setattr(holder, attr, wrapped)

    def uninstall(self) -> None:
        while self._restore:
            holder, attr, original = self._restore.pop()
            setattr(holder, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- spans ----------------------------------------------------------------

    def _wrap(self, qualname: str, fn):
        tracer = self
        repeat = qualname in REPEAT
        peak = qualname in PEAK
        writer = qualname in WRITERS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            b0 = time.perf_counter()
            span = Span(tracer._next_id, tracer._stack[-1] if tracer._stack else None,
                        qualname, b0, b0)
            tracer._next_id += 1
            if span.parent is None:
                tracer._seen.clear()  # repeats are counted within one command
            if repeat:
                seen = tracer._seen.setdefault(qualname, set())
                key = call_key(args, kwargs)
                span.repeat = key in seen
                seen.add(key)
            frame = tracer._mem_enter() if peak and tracer.memory else None
            tracer._stack.append(span.id)
            t0 = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = time.perf_counter()
                tracer._stack.pop()
                if frame is not None:
                    span.peak_bytes = tracer._mem_exit(frame)
                if writer and isinstance(result, Path):
                    span.bytes_written = result.stat().st_size
                span.end = time.perf_counter()
                span.overhead = (t0 - b0) + (span.end - t1)
                tracer.spans.append(span)

        return traced

    def _mem_enter(self) -> _MemFrame:
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        current, peak = tracemalloc.get_traced_memory()
        if self._mem:
            self._mem[-1].peak = max(self._mem[-1].peak, peak)
        tracemalloc.reset_peak()
        frame = _MemFrame(current, started)
        self._mem.append(frame)
        return frame

    def _mem_exit(self, frame: _MemFrame) -> int:
        _, peak = tracemalloc.get_traced_memory()
        self._mem.pop()
        frame.peak = max(frame.peak, peak)
        if self._mem:
            self._mem[-1].peak = max(self._mem[-1].peak, frame.peak)
        if frame.started:
            tracemalloc.stop()
        return frame.peak - frame.base

    def take(self) -> list[Span]:
        """Hand over the spans recorded so far and start a new batch."""
        spans, self.spans = self.spans, []
        return spans


def round_profile(spans, wall: float) -> dict:
    """Per-function and per-layer totals of one round's spans."""
    selfs = self_times(spans)
    funcs = {name: {"calls": 0, "self_s": 0.0, "repeat_calls": 0, "peak_bytes": 0}
             for name in FUNCTIONS}
    layers = {mod: 0.0 for mod in LAYERS}
    bookkeeping = written = top = 0.0
    for s in spans:
        f = funcs[s.name]
        f["calls"] += 1
        f["self_s"] += selfs[s.id]
        f["repeat_calls"] += s.repeat
        if s.peak_bytes is not None:
            f["peak_bytes"] = max(f["peak_bytes"], s.peak_bytes)
        layers[s.name.split(".")[0]] += selfs[s.id]
        bookkeeping += s.overhead
        written += s.bytes_written
        if s.parent is None:
            top += s.end - s.start
    return {"wall_s": wall, "functions": funcs, "layers": layers,
            "bookkeeping_s": bookkeeping, "unattributed_s": wall - top,
            "bytes_written": written}
