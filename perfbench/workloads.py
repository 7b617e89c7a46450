"""Benchmark workloads: seeded inputs, their references, and the per-case checks.

Every workload turns a seed into JSON files on disk plus a case list with,
for each case, the expected answer (``cases.json``).  The program only ever sees the generated files through
``treedamp.cli.main``; the references come either from ``reference.json``
(energies recorded for the unscaled base problems) or from a trajectory that
is manufactured before the case runs.

Seeds change the values in the inputs but never their size: the same trees,
lengths and mesh densities appear under every seed, so run-to-run spread in
the timings comes from the machine and not from the inputs.  See README.md
for why each workload exists.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
REFERENCE_FILE = HERE / "reference.json"
# The case list, with every case's expected answer, written by a generator
# next to the inputs it made.
CASES_FILE = "cases.json"

WORKLOADS = ("configs", "trees", "simulate")

# A damp case fails when its energy is off the reference by more than this
# share, or when the optimality residual the program reports is above
# OPTIMALITY_MAX.  A simulate case fails when the trajectory it writes is off
# the manufactured one by more than ROUNDTRIP_RTOL of the trajectory's size.
ENERGY_RTOL = 1e-12
OPTIMALITY_MAX = 1e-8
ROUNDTRIP_RTOL = 1e-9

CONFIG_NAMES = ("interval", "smoothness_loss", "star")
CONFIG_QS = (4, 8, 16)
# (depth, order) of the binary trees damped at TREES_Q elements per delay.
TREE_SHAPES = ((2, 1), (3, 1), (4, 1), (2, 2), (3, 2), (4, 2))
TREES_Q = 4
# The base problems of the trees workload come from this generator seed; a
# run's own seed only rescales the history and relabels the edges, which
# leaves the work unchanged and the reference energy known exactly.
TREES_BASE_SEED = 0
# (depth, order, q) of the binary trees simulated under a manufactured control.
SIMULATE_SHAPES = ((4, 1, 16), (5, 1, 8), (4, 2, 8), (5, 2, 8))


@dataclass
class Case:
    """One call of ``treedamp.cli.main`` and what its output must show."""

    id: str
    argv: list
    expect: dict = field(default_factory=dict)

    @property
    def command(self) -> str:
        return self.argv[0]


def write_cases(inputs: Path, cases: list) -> None:
    _write(inputs / CASES_FILE, [{"id": c.id, "argv": c.argv, "expect": c.expect} for c in cases])


def load_cases(inputs: Path) -> list:
    """The case list a generator wrote next to its inputs."""
    return [Case(**c) for c in json.loads((inputs / CASES_FILE).read_text())]


# ---------------------------------------------------------------------------
# JSON number helpers (the problem format writes complex values as [re, im])


def _to_complex(x) -> complex:
    return complex(x[0], x[1]) if isinstance(x, list) else complex(x)


def _to_json(z: complex):
    z = complex(z)
    return z.real if z.imag == 0.0 else [z.real, z.imag]


def _scale_history(history: dict, alpha: complex) -> dict:
    """The history record of a problem file multiplied by ``alpha``."""
    kind, data = history["kind"], history["data"]
    if kind == "constant":
        data = _to_json(alpha * _to_complex(data))
    elif kind == "polynomial":
        data = [_to_json(alpha * _to_complex(x)) for x in data]
    elif kind == "piecewise":
        data = {
            "breaks": list(data["breaks"]),
            "pieces": [[_to_json(alpha * _to_complex(x)) for x in piece] for piece in data["pieces"]],
        }
    else:
        raise ValueError(f"unknown history kind {kind!r}")
    return {"kind": kind, "data": data}


def _seeded_alpha(rng: np.random.Generator) -> complex:
    """A complex history scale of modulus in [0.5, 2] and random phase."""
    return complex(np.exp(rng.uniform(math.log(0.5), math.log(2.0)))
                   * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi)))


def _small(rng: np.random.Generator, lo: float = 0.05, hi: float = 0.3) -> complex:
    """A complex number of modulus in [lo, hi]; never zero, so the program
    always does the same work for a coefficient that is present."""
    return complex(rng.uniform(lo, hi) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi)))


def binary_tree_problem(rng: np.random.Generator, depth: int, order: int, q: int,
                        lengths=None) -> dict:
    """A problem file on a full binary tree with ``2**depth - 1`` edges.

    Edge ``i`` has children ``2i`` and ``2i + 1``.  The leading coefficient
    is 1 on every edge; every lower-order ``b`` and ``c`` is a small linear
    polynomial with seeded complex coefficients; the history is a seeded
    quadratic.  ``lengths`` defaults to 2 on every edge.
    """
    m = 2 ** depth - 1
    if lengths is None:
        lengths = [2.0] * m
    edges = [{"id": i, "parent": i // 2, "length": lengths[i - 1]} for i in range(1, m + 1)]
    coefficients = []
    for i in range(1, m + 1):
        coefficients.append({"edge": i, "family": "b", "k": order, "kind": "constant", "data": 1.0})
        for family in ("b", "c"):
            for k in range(order):
                coefficients.append({
                    "edge": i, "family": family, "k": k, "kind": "polynomial",
                    "data": [_to_json(_small(rng)), _to_json(0.1 * _small(rng))],
                })
    history = {"kind": "polynomial",
               "data": [_to_json(_small(rng, 0.5, 1.5)) for _ in range(3)]}
    return {"order": order, "delay": 1.0, "edges": edges, "coefficients": coefficients,
            "history": history, "solver": {"q": q, "tolerance": 1e-9}}


def relabel(problem: dict, perm: dict) -> dict:
    """The same problem with every edge id ``i`` renamed to ``perm[i]``.

    The tree is unchanged, so the energy is too; the program's canonical
    edge order, and with it the DOF numbering, changes."""
    out = dict(problem)
    out["edges"] = [{"id": perm[e["id"]], "parent": perm.get(e["parent"], 0), "length": e["length"]}
                    for e in problem["edges"]]
    out["coefficients"] = [dict(c, edge=perm[c["edge"]]) for c in problem["coefficients"]]
    return out


def _write(path: Path, obj) -> str:
    path.write_text(json.dumps(obj, indent=1) + "\n")
    return str(path)


def load_reference() -> dict:
    return json.loads(REFERENCE_FILE.read_text())["energies"]


# ---------------------------------------------------------------------------
# Workload generators.  Each returns the case list in run order.


def configs_cases(seed: int, root: Path, inputs: Path, reference: dict | None) -> list:
    """``damp`` on each shipped config at q in CONFIG_QS, history scaled by a
    seeded complex alpha; the expected energy is |alpha|^2 times the
    reference (alpha = 1 when ``reference`` is None)."""
    rng = np.random.default_rng([seed, 1])
    cases = []
    for name in CONFIG_NAMES:
        problem = json.loads((root / "configs" / f"{name}.json").read_text())
        alpha = 1.0 if reference is None else _seeded_alpha(rng)
        problem["history"] = _scale_history(problem["history"], alpha)
        path = _write(inputs / f"{name}.json", problem)
        for q in CONFIG_QS:
            cid = f"{name}-q{q}"
            expect = {} if reference is None else {"energy": abs(alpha) ** 2 * reference[cid]}
            cases.append(Case(cid, ["damp", "--config", path, "--q", str(q)], expect))
    return cases


def trees_cases(seed: int, root: Path, inputs: Path, reference: dict | None) -> list:
    """``damp`` on the fixed base binary trees, history scaled by a seeded
    alpha and edge ids permuted by the seed (identity when ``reference`` is
    None, which is how the reference energies are recorded)."""
    base_rng = np.random.default_rng([TREES_BASE_SEED, 2])
    rng = np.random.default_rng([seed, 2])
    cases = []
    for depth, order in TREE_SHAPES:
        problem = binary_tree_problem(base_rng, depth, order, TREES_Q)
        cid = f"d{depth}-o{order}"
        expect = {}
        if reference is not None:
            m = len(problem["edges"])
            ids = rng.permutation(m) + 1
            problem = relabel(problem, {i + 1: int(ids[i]) for i in range(m)})
            alpha = _seeded_alpha(rng)
            problem["history"] = _scale_history(problem["history"], alpha)
            expect = {"energy": abs(alpha) ** 2 * reference[cid]}
        path = _write(inputs / f"tree-{cid}.json", problem)
        cases.append(Case(cid, ["damp", "--config", path, "--q", str(TREES_Q)], expect))
    return cases


def _control_record(edge_ids, components) -> dict:
    """A control in the program's exchange format (exact JSON floats)."""
    return {"edges": [
        {"id": eid, "breaks": [float(x) for x in u.breaks],
         "pieces": [[_to_json(z) for z in cs] for cs in u.coefs]}
        for eid, u in zip(edge_ids, components)
    ]}


def _samples(p, order: int) -> list:
    """Rows ``[t, re y, im y, re y', im y', ...]`` (derivatives below
    ``order``) at the times the program's trajectory.csv samples: every
    break and three equispaced interior points per piece, the last one as a
    left limit."""
    ts = [p.breaks] + [a + (b - a) * np.arange(1, 4) / 4 for a, b in zip(p.breaks[:-1], p.breaks[1:])]
    ts = np.unique(np.concatenate(ts))
    columns = [ts]
    for k in range(order):
        z = p.values(ts, k)
        z[-1] = p.left_limit(ts[-1], k)
        columns += [z.real, z.imag]
    return np.column_stack(columns).tolist()


def simulate_cases(seed: int, root: Path, inputs: Path, reference=None) -> list:
    """``simulate`` under a manufactured control.

    A seeded DOF vector goes through ``Basis.tree_function`` and is added
    to the history lift; the edge operator applied to that trajectory is
    the control.  Forward simulation must give the trajectory back.  Edge
    lengths are a seeded arrangement of a fixed multiset of integers, so
    every seed meshes to the same number of elements.
    """
    from treedamp.config import ProblemConfig
    from treedamp.damping import default_mesh
    from treedamp.expressions import apply_operator
    from treedamp.meshing import Basis, history_lift

    rng = np.random.default_rng([seed, 3])
    cases = []
    for depth, order, q in SIMULATE_SHAPES:
        m = 2 ** depth - 1
        lengths = [2.0 + (i % 2) for i in range(m)]
        rng.shuffle(lengths)
        cid = f"d{depth}-o{order}-q{q}"
        path = _write(inputs / f"sim-{cid}.json", binary_tree_problem(rng, depth, order, q, lengths))
        cfg = ProblemConfig.from_file(path)
        mesh = default_mesh(cfg.tree, cfg.coeffs, q)
        basis = Basis(mesh, cfg.n)
        z = rng.standard_normal(basis.ndof) + 1j * rng.standard_normal(basis.ndof)
        y = history_lift(mesh, cfg.n, cfg.history) + basis.tree_function(z)
        u = [apply_operator(y, cfg.coeffs, j) for j in range(1, cfg.tree.m + 1)]
        control = _write(inputs / f"sim-{cid}-control.json", _control_record(cfg.edge_ids, u))
        expect = {"order": cfg.n, "trajectory": [
            [eid, _samples(y.component(j), cfg.n)] for j, eid in enumerate(cfg.edge_ids, start=1)]}
        cases.append(Case(cid, ["simulate", "--config", path, "--control", control, "--q", str(q)], expect))
    return cases


GENERATORS = {"configs": configs_cases, "trees": trees_cases, "simulate": simulate_cases}


# ---------------------------------------------------------------------------
# Checks.  Each returns (value, problems): the case's answer and a list of
# reasons it is wrong, empty when it is right.


def check_damp(out: Path, expect: dict):
    summary = json.loads((out / "summary.json").read_text())
    energy, ref = summary["energy"], expect["energy"]
    problems = []
    rel = abs(energy - ref) / abs(ref)
    if not rel <= ENERGY_RTOL:
        problems.append(f"energy {energy!r} is off the reference {ref!r} by {rel:.3e} relative")
    if not summary["optimality"] <= OPTIMALITY_MAX:
        problems.append(f"optimality residual {summary['optimality']:.3e} above {OPTIMALITY_MAX}")
    return energy, problems


def check_simulate(out: Path, expect: dict):
    """Largest gap between the written trajectory (values and derivatives
    below the order) and the manufactured one, relative to its size.  Every
    edge must be written with a row at each expected sample time, and no
    other edge may appear."""
    order = expect["order"]
    written: dict = {}
    with open(out / "trajectory.csv", newline="") as fh:
        rows = csv.reader(fh)
        header = next(rows)
        if len(header) != 2 + 2 * order:
            return None, [f"trajectory.csv has {len(header)} columns, expected {2 + 2 * order}"]
        for row in rows:
            written.setdefault(int(row[0]), []).append([float(x) for x in row[1:]])
    problems = []
    expected = {eid: samples for eid, samples in expect["trajectory"]}
    if set(written) - set(expected):
        problems.append(f"unexpected edges {sorted(set(written) - set(expected))} in trajectory.csv")
    worst, scale = 0.0, 1.0
    for eid, want in expected.items():
        got = written.get(eid, [])
        if len(got) != len(want):
            problems.append(f"edge {eid}: {len(got)} rows in trajectory.csv, expected {len(want)}")
            continue
        for w, g in zip(want, got):
            if abs(g[0] - w[0]) > 1e-12 * max(1.0, abs(w[0])):
                problems.append(f"edge {eid}: sample time {g[0]!r}, expected {w[0]!r}")
                break
            for k in range(order):
                want_z = complex(w[1 + 2 * k], w[2 + 2 * k])
                worst = max(worst, abs(complex(g[1 + 2 * k], g[2 + 2 * k]) - want_z))
                scale = max(scale, abs(want_z))
    dist = worst / scale
    if not dist <= ROUNDTRIP_RTOL:
        problems.append(f"round-trip distance {dist:.3e} above {ROUNDTRIP_RTOL}")
    return dist, problems


CHECKS = {"damp": check_damp, "simulate": check_simulate}
