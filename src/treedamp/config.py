"""Problem and control files as plain JSON; this module is the one reader
of both, and writes the control file.

A problem file fixes the operator order, the delay, the tree, the
coefficient families, the history segment, and solver options.  Numbers
are decimal; complex values are written as two-element ``[re, im]``
arrays.  Coefficients and the history are polynomial data: ``constant``
(one number), ``polynomial`` (global coefficients in ascending powers of
``t``), or ``piecewise`` (breakpoints plus per-piece local coefficients in
ascending powers of ``t - break[i]``).  Missing coefficients default to
zero; the leading ``b`` entry of the full order is mandatory per edge.

Parsing is strict: unknown keys, malformed numbers, and inconsistent
domains are reported with the full field path, so a mistake in a nested
piece surfaces as e.g. ``coefficients[2].data.pieces[1][0]``.  A control
file lists per edge its ``id``, ``breaks`` and ``pieces``, each edge read by
the rules of a ``piecewise`` record.  The coefficient records, the history
and the control edges are all read by :func:`_read_records`: the numbers of
a record list are checked and tabled in one batch, where a real ``x`` is
read as the pair ``[x, 0]``, and the entry-by-entry walk that names the
field runs only once a check has failed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .expressions import CoefficientError, CoefficientSet
from .piecewise import PiecewisePoly, _taylor_shift, _unique
from .trees import Tree, TreeStructureError, build_tree


class ConfigError(ValueError):
    """Invalid problem file; the message carries the offending field path."""


def _fail(path: str, msg: str, index=()):
    """Raise the error of the field ``path`` followed by one ``[i]`` per entry
    of ``index``; callers pass indices so that a path is formatted only for
    a check that fails."""
    raise ConfigError(f"{path}{''.join(f'[{i}]' for i in index)}: {msg}")


def read_json(path):
    """The JSON document in ``path``; an unreadable or malformed file is a
    :class:`ConfigError` naming the file and the position."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc


def _real(x, path: str, *index) -> float:
    """A finite real entry at ``path`` and ``index`` (see :func:`_fail`)."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        _fail(path, f"expected a real number, got {x!r}", index)
    try:
        v = float(x)
    except OverflowError:
        _fail(path, "number is too large for a float", index)
    if not math.isfinite(v):
        _fail(path, "number must be finite", index)
    return v


def _num(x, path: str, *index) -> complex:
    """A scalar entry: plain real or an [re, im] pair."""
    if isinstance(x, list):
        if len(x) != 2:
            _fail(path, "complex value must be a two-element [re, im] array", index)
        return complex(_real(x[0], path, *index, 0), _real(x[1], path, *index, 1))
    return complex(_real(x, path, *index), 0.0)


def _num_out(z: complex):
    z = complex(z)
    if z.imag == 0.0:
        return z.real
    return [z.real, z.imag]


def _check_keys(d: dict, allowed: set, required: set, path: str):
    if not isinstance(d, dict):
        _fail(path, f"expected an object, got {type(d).__name__}")
    for key in d:
        if key not in allowed:
            _fail(path, f"unknown key {key!r} (allowed: {sorted(allowed)})")
    for key in sorted(required):
        if key not in d:
            _fail(path, f"missing required key {key!r}")


# ---------------------------------------------------------------------------
# The per-entry walk.  It names the first bad field of a record, in document
# order, and is the only code that knows the messages; the batch checks below
# run it only after one of them has failed.


def _walk_piecewise(data: dict, a: float, b: float, path: str) -> None:
    """Raise the error of the first bad field of the breakpoints plus per-piece
    local coefficients of ``data`` on [a, b], its keys already checked; the
    end breakpoints snap onto a and b."""
    breaks, pieces = data["breaks"], data["pieces"]
    if not isinstance(breaks, list):
        _fail(path + ".breaks", "expected a list of breakpoints")
    where = path + ".breaks"
    breaks = [_real(x, where, i) for i, x in enumerate(breaks)]
    if len(breaks) < 2:
        _fail(path, "need at least two breakpoints")
    if not isinstance(pieces, list) or len(pieces) != len(breaks) - 1:
        _fail(path + ".pieces", f"expected {len(breaks) - 1} pieces for {len(breaks)} breaks")
    tol = 1e-9 * max(1.0, abs(a), abs(b))
    if abs(breaks[0] - a) > tol or abs(breaks[-1] - b) > tol:
        _fail(path + ".breaks", f"breakpoints must span [{a}, {b}]")
    where = path + ".pieces"
    for i, piece in enumerate(pieces):
        if not isinstance(piece, list) or not piece:
            _fail(where, "expected a non-empty coefficient array", (i,))
        for j, x in enumerate(piece):
            _num(x, where, i, j)
    breaks[0], breaks[-1] = a, b
    if any(y <= x for x, y in zip(breaks, breaks[1:])):
        _fail(path, "breakpoints must be strictly increasing")


def _walk_poly_data(entry: dict, a: float, b: float, path: str) -> None:
    """Raise the error of the first bad field of a {kind, data} record on
    [a, b], its keys already checked."""
    kind = entry["kind"]
    data = entry["data"]
    if kind == "constant":
        _num(data, path + ".data")
    elif kind == "polynomial":
        if not isinstance(data, list) or not data:
            _fail(path + ".data", "expected a non-empty coefficient array")
        for i, x in enumerate(data):
            _num(x, path + ".data", i)
    elif kind == "piecewise":
        _check_keys(data, _DATA_KEYS, _DATA_KEYS, path + ".data")
        _walk_piecewise(data, a, b, path + ".data")
    else:
        _fail(path + ".kind", f"unknown kind {kind!r} (constant | polynomial | piecewise)")


# ---------------------------------------------------------------------------
# Batch checks: every number of a file in one pass, the tables built from
# the result.  Each accepts exactly what the walk above accepts and returns
# None where the walk raises.

_CONSTANT, _POLYNOMIAL, _PIECEWISE = range(3)
_DATA_KEYS = {"breaks", "pieces"}


def _reals(values: list):
    """``values`` as one float array when each is a finite real number,
    else None."""
    if not all(issubclass(t, (int, float)) and not issubclass(t, bool)
               for t in set(map(type, values))):
        return None
    try:
        x = np.array(values, dtype=float)
    except OverflowError:  # an integer no float holds
        return None
    return x if np.isfinite(x).all() else None


def _complexes(values: list):
    """``values``, each a real number or an ``[re, im]`` pair of them, as one
    complex array when every number is finite, else None.  A real ``x`` is
    the pair ``[x, 0.0]`` (any other list, as ``(v, 0.0)``, fails the type
    check), so one :func:`_reals` array ``[re, im, re, im, ...]`` viewed as
    complex holds them all, bit for bit ``complex(re, im)``."""
    parts = _reals(list(chain.from_iterable(v if type(v) is list and len(v) == 2 else (v, 0.0)
                                            for v in values)))
    return None if parts is None else parts.view(complex)


def _poly_item(entry: dict):
    """``(kind, breaks, pieces)`` of a {kind, data} record whose structure
    is sound, else None: a constant is one piece of one entry, a polynomial
    one piece of global coefficients, and a piecewise record's lists hold
    one more break than pieces."""
    kind, data = entry["kind"], entry["data"]
    if kind == "constant":
        return _CONSTANT, None, [[data]]
    if kind == "polynomial":
        return (_POLYNOMIAL, None, [data]) if isinstance(data, list) and data else None
    if kind == "piecewise" and isinstance(data, dict) and data.keys() == _DATA_KEYS:
        return _piecewise_item(data)
    return None


def _piecewise_item(data: dict):
    """:func:`_poly_item` of the ``breaks`` and ``pieces`` of ``data``."""
    breaks, pieces = data["breaks"], data["pieces"]
    if isinstance(breaks, list) and isinstance(pieces, list) and len(pieces) == len(breaks) - 1:
        return _PIECEWISE, breaks, pieces
    return None


def _tables(items: list, spans: list):
    """One piecewise polynomial per item ``(kind, breaks, pieces)`` of
    :func:`_poly_item` on its span ``(a, b)``, or None when a number or a
    breakpoint check fails.

    Every coefficient of every item goes through one :func:`_complexes`
    and every given breakpoint through one :func:`_reals`.  Each piece is a
    row as wide as its item's longest piece, zero-padded, and each item a
    ``(pieces, width)`` view of one buffer of all rows, so no piece is padded
    past its own item's width; a polynomial's global coefficients are
    re-centred at ``a`` by one batched Taylor shift per width.
    """
    if not items:
        return []
    a, b = np.array(spans, dtype=float).T
    kinds = np.array([kind for kind, _, _ in items], dtype=np.intp)
    rows = list(chain.from_iterable(pieces for _, _, pieces in items))
    if not rows or not all(issubclass(t, list) for t in set(map(type, rows))):
        return None
    lens = np.fromiter(map(len, rows), dtype=np.intp, count=len(rows))
    npieces = np.fromiter(map(len, (pieces for _, _, pieces in items)), dtype=np.intp,
                          count=len(items))
    if lens.min() < 1 or npieces.min() < 1:
        return None
    z = _complexes(list(chain.from_iterable(rows)))
    given = _reals(list(chain.from_iterable(br for kind, br, _ in items if kind == _PIECEWISE)))
    if z is None or given is None:
        return None

    # breakpoints: the given ones where there are, [a, b] elsewhere, ends snapped
    first = np.cumsum(npieces + 1) - npieces - 1
    last = first + npieces
    breaks = np.empty(last[-1] + 1)
    pw = kinds == _PIECEWISE
    breaks[np.repeat(pw, npieces + 1)] = given
    tol = 1e-9 * np.maximum(np.maximum(1.0, np.abs(a[pw])), np.abs(b[pw]))
    off = (np.abs(breaks[first[pw]] - a[pw]) > tol) | (np.abs(breaks[last[pw]] - b[pw]) > tol)
    if off.any():
        return None
    breaks[first], breaks[last] = a, b
    step = np.diff(breaks)
    step[first[1:] - 1] = 1.0  # from one item to the next
    if (step <= 0).any():
        return None

    # coefficients: each piece a row as wide as its item's longest piece, the
    # rows back to back in one buffer, zero-padded; each item a view of its own
    start = np.cumsum(npieces) - npieces
    width = np.maximum.reduceat(lens, start)
    size = width * npieces
    at = np.cumsum(size) - size  # each item's place in the buffer
    pad = np.repeat(width, npieces) - lens
    flat = np.zeros(at[-1] + size[-1], dtype=complex)
    flat[np.arange(len(z)) + np.repeat(np.cumsum(pad) - pad, lens)] = z
    shift = kinds == _POLYNOMIAL
    for w in _unique(width[shift]):
        sel = shift & (width == w)
        coefs_at = at[sel, None] + np.arange(w)
        flat[coefs_at] = _taylor_shift(flat[coefs_at], a[sel])
    return [PiecewisePoly._of(breaks[i : i + p + 1], flat[o : o + p * w].reshape(p, w))
            for i, o, p, w in zip(first.tolist(), at.tolist(), npieces.tolist(), width.tolist())]


def _piecewise_out(p: PiecewisePoly) -> dict:
    """``{breaks, pieces}`` of a piecewise polynomial, as the parser reads
    them back."""
    return {
        "breaks": [float(x) for x in p.breaks],
        "pieces": [[_num_out(z) for z in cs] for cs in p.coefs],
    }


def _poly_out(p: PiecewisePoly) -> dict:
    """Canonical {kind, data} for a stored piecewise polynomial."""
    if p.npieces == 1:
        cs = p.coefs[0]
        if cs.size == 1:
            return {"kind": "constant", "data": _num_out(cs[0])}
    return {"kind": "piecewise", "data": _piecewise_out(p)}


_RECORD_KEYS = {"edge", "family", "k", "kind", "data"}
_POLY_KEYS = {"kind", "data"}
_EDGE_KEYS = {"id", "breaks", "pieces"}


def _read_records(records: list, path: str, keys: set, check, walk) -> tuple:
    """The piecewise polynomials of ``records`` and their indices by slot,
    record ``i`` at the field path ``path.format(i)`` with the keys ``keys``.

    A record's keys and its own fields are checked as it is read:
    ``check(record, where, slots)`` returns its slot, its :func:`_poly_item`
    and its domain ``(a, b)``, given the slots of the records before it.
    All numbers are checked in one :func:`_tables` batch after the last
    record.  Where a check fails, ``walk(record, a, b, where)`` runs over
    the records read so far, in document order, to raise the error of the
    first bad number before that of the check.
    """
    slots, items, read, error = {}, [], [], None
    try:
        for i, record in enumerate(records):
            where = path.format(i)
            if not (isinstance(record, dict) and record.keys() == keys):
                _check_keys(record, keys, keys, where)
            slot, item, span = check(record, where, slots)
            slots[slot] = len(items)
            items.append(item)
            read.append((record, *span, where))
            if item is None:
                break
        else:
            tables = _tables(items, [args[1:3] for args in read])
            if tables is not None:
                return slots, tables
    except ConfigError as exc:
        error = exc
    for args in read:
        walk(*args)
    raise error or AssertionError("a batch check failed on data the per-entry walk accepts")


@dataclass(frozen=True)
class SolverOptions:
    """Discretization and comparison settings carried by a problem file."""

    q: int = 8
    tolerance: float = 1e-9


@dataclass(frozen=True)
class ProblemConfig:
    """A parsed, validated problem definition.

    ``edge_ids`` preserves the file's edge identifiers in canonical order,
    so coefficient keys in reports can be mapped back to the user's ids.
    """

    n: int
    tau: float
    tree: Tree
    coeffs: CoefficientSet
    history: PiecewisePoly
    solver: SolverOptions = field(default_factory=SolverOptions)

    @property
    def edge_ids(self) -> tuple:
        return self.tree.original_ids

    @classmethod
    def from_dict(cls, d: dict) -> "ProblemConfig":
        _check_keys(d, {"order", "delay", "edges", "coefficients", "history", "solver"},
                    {"order", "delay", "edges", "coefficients", "history"}, "config")
        n = d["order"]
        if isinstance(n, bool) or not isinstance(n, int) or n < 1:
            _fail("config.order", f"order must be a positive integer, got {n!r}")
        tau = _real(d["delay"], "config.delay")
        if tau <= 0:
            _fail("config.delay", "delay must be positive")

        if not isinstance(d["edges"], list) or not d["edges"]:
            _fail("config.edges", "expected a non-empty edge list")
        parent_map, length_map = {}, {}
        for i, e in enumerate(d["edges"]):
            path = f"config.edges[{i}]"
            _check_keys(e, {"id", "parent", "length"}, {"id", "parent", "length"}, path)
            eid = e["id"]
            if isinstance(eid, bool) or not isinstance(eid, int) or eid < 1:
                _fail(path + ".id", f"edge id must be a positive integer, got {eid!r}")
            if eid in parent_map:
                _fail(path + ".id", f"duplicate edge id {eid}")
            pid = e["parent"]
            if isinstance(pid, bool) or not isinstance(pid, int) or pid < 0:
                _fail(path + ".parent", f"parent must be 0 or an edge id, got {pid!r}")
            L = _real(e["length"], path + ".length")
            if L <= 0:
                _fail(path + ".length", "length must be positive")
            parent_map[eid] = pid
            length_map[eid] = L
        try:
            tree = build_tree(parent_map, length_map)
        except TreeStructureError as exc:
            _fail("config.edges", str(exc))
        if tau >= min(length_map.values()):
            _fail("config.delay", "delay must be smaller than every edge length")

        if not isinstance(d["coefficients"], list):
            _fail("config.coefficients", "expected a list of coefficient records")
        canon = {eid: j for j, eid in enumerate(tree.original_ids, start=1)}

        def record(entry, where, seen):
            eid, fam, k = entry["edge"], entry["family"], entry["k"]
            if isinstance(eid, bool) or not isinstance(eid, int) or eid not in canon:
                _fail(where + ".edge", f"unknown edge id {eid!r}")
            if fam not in ("b", "c"):
                _fail(where + ".family", f"family must be 'b' or 'c', got {fam!r}")
            if isinstance(k, bool) or not isinstance(k, int) or not (0 <= k <= n):
                _fail(where + ".k", f"derivative order must lie in 0..{n}, got {k!r}")
            j = canon[eid]
            if (fam, k, j) in seen:
                _fail(where, f"duplicate coefficient ({fam}, k={k}, edge={eid})")
            return (fam, k, j), _poly_item(entry), (0.0, tree.length(j))

        slots, polys = _read_records(d["coefficients"], "config.coefficients[{}]", _RECORD_KEYS,
                                    record, _walk_poly_data)
        b_map, c_map = {}, {}
        for (fam, k, j), p in zip(slots, polys):
            (b_map if fam == "b" else c_map)[k, j] = p
        for j, eid in enumerate(tree.original_ids, start=1):
            if (n, j) not in b_map:
                _fail("config.coefficients",
                      f"missing mandatory leading coefficient b, k={n}, edge id {eid}")
        try:
            coeffs = CoefficientSet.build(tree, n, tau, b_map, c_map)
        except CoefficientError as exc:
            _fail("config.coefficients", str(exc))
        # the history's errors come after those of the coefficient set
        _, (history,) = _read_records([d["history"]], "config.history", _POLY_KEYS,
                                      lambda h, where, _: (None, _poly_item(h), (-tau, 0.0)),
                                      _walk_poly_data)

        s = d.get("solver", {})
        _check_keys(s, {"q", "tolerance"}, set(), "config.solver")
        q = s.get("q", SolverOptions.q)
        if isinstance(q, bool) or not isinstance(q, int):
            _fail("config.solver.q", f"q must be an integer, got {q!r}")
        tol = _real(s.get("tolerance", SolverOptions.tolerance), "config.solver.tolerance")
        if q < 1:
            _fail("config.solver.q", "q must be a positive integer")
        if tol <= 0:
            _fail("config.solver.tolerance", "tolerance must be positive")
        return cls(n=n, tau=tau, tree=tree, coeffs=coeffs, history=history,
                   solver=SolverOptions(q=q, tolerance=tol))

    @classmethod
    def from_file(cls, path) -> "ProblemConfig":
        return cls.from_dict(read_json(path))

    def to_dict(self) -> dict:
        """Canonical form: canonical edge order, sorted coefficient records,
        absent coefficients (:attr:`CoefficientSet.present`) dropped.
        Parsing the output reproduces it."""
        ids = (0,) + self.edge_ids  # the root's parent is 0
        edges = [{"id": ids[j], "parent": ids[self.tree.parent_of(j)],
                  "length": float(self.tree.length(j))} for j in range(1, self.tree.m + 1)]
        records = []
        for f, j in zip(*np.nonzero(self.coeffs.present)):
            fam, k = divmod(int(f), self.n + 1)
            rec = {"edge": self.edge_ids[j], "family": "bc"[fam], "k": k}
            rec.update(_poly_out((self.coeffs.b, self.coeffs.c)[fam][k][j]))
            records.append(rec)
        records.sort(key=lambda r: (r["family"], r["k"], r["edge"]))
        return {
            "order": self.n,
            "delay": float(self.tau),
            "edges": edges,
            "coefficients": records,
            "history": _poly_out(self.history),
            "solver": {"q": self.solver.q, "tolerance": self.solver.tolerance},
        }


def control_from_file(path, cfg: ProblemConfig) -> tuple:
    """The per-edge control of a control file, edge ``j`` at index ``j - 1``:
    every edge id of ``cfg`` once, each edge a ``piecewise`` record on
    ``[0, T_j]``."""
    d = read_json(path)
    _check_keys(d, {"edges"}, {"edges"}, "control")
    if not isinstance(d["edges"], list):
        _fail("control.edges", "expected a list of edge records")
    canon = {eid: j for j, eid in enumerate(cfg.edge_ids, start=1)}

    def edge(e, where, seen):
        eid = e["id"]
        if isinstance(eid, bool) or not isinstance(eid, int) or eid not in canon:
            _fail(where + ".id", f"unknown edge id {eid!r}")
        j = canon[eid]
        if j in seen:
            _fail(where + ".id", f"duplicate edge id {eid}")
        return j, _piecewise_item(e), (0.0, cfg.tree.length(j))

    slots, comps = _read_records(d["edges"], "control.edges[{}]", _EDGE_KEYS, edge,
                                 _walk_piecewise)
    for eid, j in canon.items():
        if j not in slots:
            raise ConfigError(f"control file lacks edge id {eid}")
    return tuple(comps[slots[j]] for j in range(1, len(canon) + 1))


def control_text(cfg: ProblemConfig, control: tuple) -> str:
    """The control file of the per-edge ``control``, edge ``j`` at index
    ``j - 1``, one edge record per line: :func:`control_from_file` reads it
    back exactly."""
    # without indent json.dumps runs its C encoder
    records = (json.dumps({"id": eid, **_piecewise_out(u)})
               for eid, u in zip(cfg.edge_ids, control))
    return '{"edges": [\n' + ",\n".join(records) + "\n]}\n"
