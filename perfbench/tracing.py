"""Span recorder for the traced run, installed from outside the program.

The recorder wraps public functions of ``treedamp`` where the calling module
looks them up: every ``treedamp`` module namespace that binds the original
function gets the wrapper instead, and methods are replaced on their class.
Nothing under ``src/`` changes, and uninstalling puts every original back.

Spans live in memory (name, start, end, parent, case id) until the run ends.
A span's self time is its duration minus the durations of its direct
children; the program is single-threaded, so children never overlap.
"""

from __future__ import annotations

import bisect
import functools
import json
import sys
import time
from dataclasses import dataclass

# Wrapped call sites, as (module, attribute path).  The metric prefix is the
# module's last name plus the attribute path, e.g. "damping.GramSystem.solve".
SPAN_TARGETS = (
    ("treedamp.cli", "main"),
    ("treedamp.config", "ProblemConfig.from_file"),
    ("treedamp.meshing", "build_mesh"),
    ("treedamp.meshing", "Basis.__init__"),
    ("treedamp.meshing", "history_lift"),
    ("treedamp.meshing", "Basis.tree_function"),
    ("treedamp.damping", "solve_damping"),
    ("treedamp.damping", "assemble"),
    ("treedamp.damping", "GramSystem.solve"),
    ("treedamp.damping", "optimality_check"),
    ("treedamp.expressions", "apply_operator"),
    ("treedamp.diagnostics", "quasi_derivatives"),
    ("treedamp.diagnostics", "kirchhoff_residual"),
    ("treedamp.diagnostics", "continuity_report"),
    ("treedamp.diagnostics", "equation_residual"),
    ("treedamp.cauchy", "solve_cauchy"),
    ("treedamp.cauchy", "residual_ell"),
)

# Quantities computed from values the wrapped calls return.  Sizes are those
# of the largest case in a pass; the rest are totals over the pass.
COUNTER_NAMES = (
    "damping.ndof", "damping.nquad", "damping.gram_nnz", "damping.gram_bandwidth",
    "damping.gram_bytes", "damping.basis_values_bytes", "damping.gram_flops",
    "piecewise.polys_built", "meshing.elements", "cauchy.elements", "cli.bytes_written",
)
MAX_COUNTERS = frozenset({
    "damping.ndof", "damping.nquad", "damping.gram_nnz", "damping.gram_bandwidth",
    "damping.gram_bytes", "damping.basis_values_bytes",
})


def span_name(module: str, attr: str) -> str:
    name = f"{module.rsplit('.', 1)[-1]}.{attr}"
    return name[: -len(".__init__")] if name.endswith(".__init__") else name


SPAN_NAMES = tuple(span_name(m, a) for m, a in SPAN_TARGETS)


def per_layer_names() -> list:
    """Every per-layer metric a traced run reports, in a fixed order."""
    names = [f"{s}.{part}" for s in SPAN_NAMES for part in ("calls", "busy_s", "self_s")]
    return names + list(COUNTER_NAMES) + ["trace.overhead_s"]


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at top level
    case: str


class Recorder:
    """In-memory spans and counters, keyed by the case that is running."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict = {}  # case id -> {counter name: value}
        self.case = ""
        self.pauses: list = []  # (start, end) of calibration loops, in time order
        self._stack: list[int] = []

    def count(self, name: str, value) -> None:
        c = self.counters.setdefault(self.case, {})
        c[name] = max(c.get(name, 0), value) if name in MAX_COUNTERS else c.get(name, 0) + value

    def span(self, name: str, fn, on_result=None):
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(rec.spans)
            rec.spans.append(Span(name, 0.0, 0.0, rec._stack[-1] if rec._stack else -1, rec.case))
            rec._stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                rec._stack.pop()
                rec.spans[idx].start, rec.spans[idx].end = start, end
            if on_result is not None:
                on_result(rec, args, result)
            return result

        return wrapper

    # -- summaries ---------------------------------------------------------

    def totals_by_case(self) -> dict:
        """Per case key: calls, busy_s and self_s of every span name, and the
        counters.  Busy time counts a span only when no enclosing span has
        the same name, so recursion is not counted twice.  A span's time
        leaves out the calibration loops (speed.py) that ran inside it."""
        starts = [p[0] for p in self.pauses]

        def duration(s: Span) -> float:
            lo = max(bisect.bisect_left(starts, s.start) - 1, 0)
            hi = bisect.bisect_right(starts, s.end)
            paused = sum(max(0.0, min(end, s.end) - max(start, s.start))
                         for start, end in self.pauses[lo:hi])
            return s.end - s.start - paused

        durations = [duration(s) for s in self.spans]
        child_time = [0.0] * len(self.spans)
        for i, s in enumerate(self.spans):
            if s.parent >= 0:
                child_time[s.parent] += durations[i]
        out: dict = {}
        for i, s in enumerate(self.spans):
            t = out.setdefault(s.case, {})
            dur = durations[i]
            t[f"{s.name}.calls"] = t.get(f"{s.name}.calls", 0) + 1
            t[f"{s.name}.self_s"] = t.get(f"{s.name}.self_s", 0.0) + dur - child_time[i]
            p = s.parent
            while p >= 0 and self.spans[p].name != s.name:
                p = self.spans[p].parent
            if p < 0:
                t[f"{s.name}.busy_s"] = t.get(f"{s.name}.busy_s", 0.0) + dur
        for case, counters in self.counters.items():
            out.setdefault(case, {}).update(counters)
        return out

    def write(self, path) -> None:
        """All spans and counters as JSON, times relative to the first span."""
        t0 = self.spans[0].start if self.spans else 0.0
        with open(path, "w") as fh:
            json.dump({
                "spans": [{"name": s.name, "start": s.start - t0, "end": s.end - t0,
                           "parent": s.parent, "case": s.case} for s in self.spans],
                "counters": self.counters,
            }, fh)


# ---------------------------------------------------------------------------
# Counters computed from wrapped calls' results


def _after_assemble(rec: Recorder, args, gram) -> None:
    import numpy as np

    G = gram.matrix
    ndof, nquad = G.shape[0], gram.basis_values.shape[1]
    rows, cols = np.nonzero(G)
    rec.count("damping.ndof", ndof)
    rec.count("damping.nquad", nquad)
    rec.count("damping.gram_nnz", int(rows.size))
    rec.count("damping.gram_bandwidth", int(np.max(np.abs(rows - cols))) if rows.size else 0)
    rec.count("damping.gram_bytes", int(G.nbytes))
    rec.count("damping.basis_values_bytes", int(gram.basis_values.nbytes))
    rec.count("damping.gram_flops", 8 * ndof * ndof * nquad)


def _mesh_elements(mesh) -> int:
    return sum(len(xs) - 1 for xs in mesh.nodes)


def _after_build_mesh(rec: Recorder, args, mesh) -> None:
    rec.count("meshing.elements", _mesh_elements(mesh))


def _after_solve_cauchy(rec: Recorder, args, y) -> None:
    rec.count("cauchy.elements", _mesh_elements(args[4]))


AFTER = {
    "damping.assemble": _after_assemble,
    "meshing.build_mesh": _after_build_mesh,
    "cauchy.solve_cauchy": _after_solve_cauchy,
}


class Installed:
    """Context manager that puts the recorder's wrappers in place."""

    def __init__(self, rec: Recorder):
        self.rec = rec
        self._undo: list = []

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def __enter__(self):
        import treedamp.cauchy  # noqa: F401  (load every module that is patched)
        import treedamp.cli  # noqa: F401
        from treedamp.piecewise import PiecewisePoly

        modules = [m for k, m in sys.modules.items() if k == "treedamp" or k.startswith("treedamp.")]
        for module_name, attr in SPAN_TARGETS:
            name = span_name(module_name, attr)
            owner = sys.modules[module_name]
            *path, last = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            raw = owner.__dict__[last]
            if isinstance(raw, classmethod):
                self._set(owner, last, classmethod(self.rec.span(name, raw.__func__)))
            elif path:
                self._set(owner, last, self.rec.span(name, raw, AFTER.get(name)))
            else:
                wrapper = self.rec.span(name, raw, AFTER.get(name))
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is raw:
                            self._set(mod, key, wrapper)

        init = PiecewisePoly.__init__
        rec = self.rec

        def counted_init(self_, *args, **kwargs):
            rec.count("piecewise.polys_built", 1)
            init(self_, *args, **kwargs)

        self._set(PiecewisePoly, "__init__", counted_init)
        return self.rec

    def __exit__(self, *exc):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)
        return False
