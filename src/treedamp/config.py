"""Problem definitions as plain JSON files.

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
piece surfaces as e.g. ``coefficients[2].data.pieces[1][0]``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .expressions import CoefficientSet
from .piecewise import PiecewisePoly
from .trees import Tree, build_tree


class ConfigError(ValueError):
    """Invalid problem file; the message carries the offending field path."""


def _fail(path: str, msg: str, index=()):
    """Raise the error of the field ``path`` followed by one ``[i]`` per entry
    of ``index``; callers pass indices so that a path is formatted only for
    a check that fails."""
    raise ConfigError(f"{path}{''.join(f'[{i}]' for i in index)}: {msg}")


def _read_json(path):
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
    v = float(x)
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
    for key in required:
        if key not in d:
            _fail(path, f"missing required key {key!r}")


def _parse_piecewise(breaks, pieces, a: float, b: float, path: str) -> PiecewisePoly:
    """Breakpoints plus per-piece local coefficients into a piecewise
    polynomial on [a, b]; the end breakpoints snap onto a and b."""
    if not isinstance(breaks, list):
        _fail(path + ".breaks", "expected a list of breakpoints")
    where = path + ".breaks"
    breaks = [_real(x, where, i) for i, x in enumerate(breaks)]
    if not isinstance(pieces, list) or len(pieces) != len(breaks) - 1:
        _fail(path + ".pieces", f"expected {len(breaks) - 1} pieces for {len(breaks)} breaks")
    tol = 1e-9 * max(1.0, abs(a), abs(b))
    if abs(breaks[0] - a) > tol or abs(breaks[-1] - b) > tol:
        _fail(path + ".breaks", f"breakpoints must span [{a}, {b}]")
    coefs = []
    where = path + ".pieces"
    for i, piece in enumerate(pieces):
        if not isinstance(piece, list) or not piece:
            _fail(where, "expected a non-empty coefficient array", (i,))
        coefs.append(np.array([_num(x, where, i, j) for j, x in enumerate(piece)]))
    breaks[0], breaks[-1] = a, b
    try:
        return PiecewisePoly(np.array(breaks), coefs)
    except ValueError as exc:
        _fail(path, str(exc))


def _parse_poly_data(entry: dict, a: float, b: float, path: str) -> PiecewisePoly:
    """One {kind, data} record, its keys already checked, into a piecewise
    polynomial on [a, b]."""
    kind = entry["kind"]
    data = entry["data"]
    if kind == "constant":
        return PiecewisePoly.constant(a, b, _num(data, path + ".data"))
    if kind == "polynomial":
        if not isinstance(data, list) or not data:
            _fail(path + ".data", "expected a non-empty coefficient array")
        where = path + ".data"
        coefs = [_num(x, where, i) for i, x in enumerate(data)]
        return PiecewisePoly.from_global_coefs(a, b, coefs)
    if kind == "piecewise":
        _check_keys(data, {"breaks", "pieces"}, {"breaks", "pieces"}, path + ".data")
        return _parse_piecewise(data["breaks"], data["pieces"], a, b, path + ".data")
    _fail(path + ".kind", f"unknown kind {kind!r} (constant | polynomial | piecewise)")


def _piecewise_out(p: PiecewisePoly) -> dict:
    """``{breaks, pieces}`` of a piecewise polynomial, as
    :func:`_parse_piecewise` reads them back."""
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


@dataclass(frozen=True)
class SolverOptions:
    """Discretization and comparison settings carried by a problem file."""

    q: int = 8
    tolerance: float = 1e-9

    def validated(self) -> "SolverOptions":
        if self.q < 1:
            _fail("solver.q", "q must be a positive integer")
        if not (self.tolerance > 0):
            _fail("solver.tolerance", "tolerance must be positive")
        return self


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
        except Exception as exc:
            _fail("config.edges", str(exc))
        if tau >= min(length_map.values()):
            _fail("config.delay", "delay must be smaller than every edge length")

        canon = {eid: j + 1 for j, eid in enumerate(tree.original_ids)}
        b_map, c_map = {}, {}
        if not isinstance(d["coefficients"], list):
            _fail("config.coefficients", "expected a list of coefficient records")
        for i, entry in enumerate(d["coefficients"]):
            path = f"config.coefficients[{i}]"
            _check_keys(entry, {"edge", "family", "k", "kind", "data"},
                        {"edge", "family", "k", "kind", "data"}, path)
            eid = entry["edge"]
            if isinstance(eid, bool) or not isinstance(eid, int) or eid not in canon:
                _fail(path + ".edge", f"unknown edge id {eid!r}")
            fam = entry["family"]
            if fam not in ("b", "c"):
                _fail(path + ".family", f"family must be 'b' or 'c', got {fam!r}")
            k = entry["k"]
            if isinstance(k, bool) or not isinstance(k, int) or not (0 <= k <= n):
                _fail(path + ".k", f"derivative order must lie in 0..{n}, got {k!r}")
            j = canon[eid]
            key = (k, j)
            target = b_map if fam == "b" else c_map
            if key in target:
                _fail(path, f"duplicate coefficient ({fam}, k={k}, edge={eid})")
            target[key] = _parse_poly_data(entry, 0.0, tree.length(j), path)
        for eid, j in canon.items():
            if (n, j) not in b_map:
                _fail("config.coefficients",
                      f"missing mandatory leading coefficient b, k={n}, edge id {eid}")
        try:
            coeffs = CoefficientSet.build(tree, n, tau, b_map, c_map)
        except Exception as exc:
            _fail("config.coefficients", str(exc))

        _check_keys(d["history"], {"kind", "data"}, {"kind", "data"}, "config.history")
        history = _parse_poly_data(d["history"], -tau, 0.0, "config.history")

        solver = SolverOptions()
        if "solver" in d:
            s = d["solver"]
            _check_keys(s, {"q", "tolerance"}, set(), "config.solver")
            q = s.get("q", solver.q)
            if isinstance(q, bool) or not isinstance(q, int):
                _fail("config.solver.q", f"q must be an integer, got {q!r}")
            solver = SolverOptions(
                q=q,
                tolerance=_real(s.get("tolerance", solver.tolerance), "config.solver.tolerance"),
            ).validated()
        return cls(n=n, tau=tau, tree=tree, coeffs=coeffs, history=history, solver=solver)

    @classmethod
    def from_file(cls, path) -> "ProblemConfig":
        return cls.from_dict(_read_json(path))

    def to_dict(self) -> dict:
        """Canonical form: canonical edge order, sorted coefficient records,
        absent coefficients (:attr:`CoefficientSet.present`) dropped.
        Parsing the output reproduces it."""
        edges = []
        for j in range(1, self.tree.m + 1):
            pj = self.tree.parent_of(j)
            edges.append({
                "id": self.edge_ids[j - 1],
                "parent": 0 if pj == 0 else self.edge_ids[pj - 1],
                "length": float(self.tree.length(j)),
            })
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
