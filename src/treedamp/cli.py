"""Command-line front end.

Four workflows over JSON problem files: ``simulate`` integrates the system
forward under a given control, ``damp`` computes the energy-minimal
control, ``verify`` recomputes a stored solution and checks it, and
``convergence`` runs a refinement ladder.  Results land in an output
directory as CSV (trajectory, control samples), the exact piecewise control
file and a JSON summary; :mod:`treedamp.config` reads and writes the files.

Exit codes: 0 success, 2 invalid input (parse or validation), 3 numerical
failure (indefinite or singular system, a result that overflows, running
out of memory), 4 failed verification or a broken convergence assertion.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .cauchy import residual_ell, solve_cauchy
from .config import ConfigError, ProblemConfig, control_from_file, control_text, read_json
from .damping import default_mesh, solve_damping
from .diagnostics import (continuity_report, detect_persistent_jump, quasi_derivatives,
                          solution_report)
from .expressions import CoefficientError
from .meshing import MeshError
from .piecewise import EdgePieces, _poly_der, _poly_val
from .trees import TreeStructureError

_VALIDATION_ERRORS = (ConfigError, CoefficientError, MeshError, TreeStructureError)


def _csv_samples(funcs, nderiv: int) -> tuple:
    """Per edge the number of sample rows, and the rows ``t`` then the real
    and imaginary parts of the function and of its first ``nderiv - 1``
    derivatives: each piece's left end and three equispaced interior points,
    then the edge's right end, all from one table.  Every point is evaluated
    on the row it was made from; a point that rounds onto the next one of
    its edge is dropped in favour of it, so a sample at a break is read on
    the piece to its right, and the right end on the last piece."""
    pieces, table = EdgePieces.of(funcs)
    ends = pieces.offsets[1:]  # one past every edge's last row
    t = np.empty((len(pieces.edge), 4))
    t[:, 0] = pieces.left
    t[:, 1:] = pieces.left[:, None] + pieces.h[:, None] * np.arange(1, 4) / 4
    t = np.insert(t.ravel(), 4 * ends, pieces.breaks[ends + np.arange(pieces.m)])
    row = np.insert(np.arange(len(pieces.edge)).repeat(4), 4 * ends, ends - 1)
    keep = np.ones(len(t), dtype=bool)
    keep[:-1] = (t[1:] != t[:-1]) | (pieces.edge[row[1:]] != pieces.edge[row[:-1]])
    t, row = t[keep], row[keep]
    s = t - pieces.left[row]
    cols = [t]
    for k in range(nderiv):
        v = _poly_val(_poly_der(table[row], k), s)
        cols += [v.real, v.imag]
    return np.bincount(pieces.edge[row], minlength=pieces.m), np.column_stack(cols)


def _write_rows(path: Path, edge_ids, counts, rows: np.ndarray, names: list) -> None:
    """``edge,t`` then the real and imaginary parts of each derivative in
    ``names``; ``rows`` holds ``counts[e]`` rows of edge ``edge_ids[e]`` in
    turn.  One ``%`` formats an edge's block, and only that block is ever a
    Python list."""
    header = ["edge", "t"] + [f"{part}_{name}" for name in names for part in ("re", "im")]
    # "%.17g" writes the same text as f"{x:.17g}", "-0" included
    fmt = ",".join(["%.17g"] * rows.shape[1]) + "\n"
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for eid, a, b in zip(edge_ids, np.cumsum(counts) - counts, np.cumsum(counts)):
            fh.write((f"{eid}," + fmt) * int(b - a) % tuple(rows[a:b].ravel().tolist()))


def _write_csv(path: Path, cfg: ProblemConfig, funcs, names: list) -> None:
    """``edge,t`` then the real and imaginary parts of each edge's function
    and of its derivatives, one derivative per entry of ``names``, one row
    per sample time."""
    counts, rows = _csv_samples(funcs, len(names))
    _write_rows(path, cfg.edge_ids, counts, rows, names)


def _numbers(value) -> list:
    """The numeric leaves of a JSON value, in document order."""
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        return [x for v in value for x in _numbers(v)]
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return [value]
    return []


def _agrees(stored, fresh, tol: float) -> bool:
    """Whether a stored number matches its recomputed value to ``tol``; a
    stored number that is not finite, or an integer no float can hold,
    matches nothing."""
    try:
        a = float(stored)
    except OverflowError:
        return False
    return math.isfinite(a) and abs(a - fresh) <= tol * max(1.0, abs(a))


def _write_summary(out: Path, summary: dict) -> None:
    """``summary.json`` in ``out``; a number that is not finite is a
    numerical failure, and the file is not written."""
    if not all(map(math.isfinite, _numbers(summary))):
        raise np.linalg.LinAlgError("a result overflowed: the summary holds a number that is "
                                    "not finite")
    (out / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")


def _mesh_q(args, cfg: ProblemConfig) -> int:
    """``--q`` when given, else the config's ``solver.q``."""
    if args.q is None:
        return cfg.solver.q
    if args.q < 1:
        raise ConfigError(f"--q must be a positive integer, got {args.q}")
    return args.q


def cmd_simulate(args) -> int:
    cfg = ProblemConfig.from_file(args.config)
    q = _mesh_q(args, cfg)
    control = control_from_file(args.control, cfg)
    mesh = default_mesh(cfg.tree, cfg.coeffs, q)
    y = solve_cauchy(cfg.tree, cfg.coeffs, cfg.history, control, mesh)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "trajectory.csv", cfg, y.components, [f"y{k}" for k in range(cfg.n)])
    res = residual_ell(y, cfg.coeffs, control)
    summary = {
        "command": "simulate",
        "q": q,
        "residual_per_edge": {str(cfg.edge_ids[j - 1]): res["per_edge"][j - 1]
                              for j in range(1, cfg.tree.m + 1)},
        "residual_total": res["total"],
    }
    _write_summary(out, summary)
    print(f"simulated {cfg.tree.m} edges, equation residual {res['total']:.3e}")
    return 0


def cmd_damp(args) -> int:
    cfg = ProblemConfig.from_file(args.config)
    q = _mesh_q(args, cfg)
    sol = solve_damping(cfg.tree, cfg.coeffs, cfg.history, q=q)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "trajectory.csv", cfg, sol.y.components, [f"y{k}" for k in range(cfg.n)])
    _write_csv(out / "control.csv", cfg, sol.control, ["u"])
    (out / "control.json").write_text(control_text(cfg, sol.control))
    diag = solution_report(sol)
    summary = {
        "command": "damp",
        "order": cfg.n,
        "delay": cfg.tau,
        "q": q,
        "tolerance": cfg.solver.tolerance,
        **diag,
    }
    _write_summary(out, summary)
    print(f"energy J = {sol.energy:.12g}  (ndof {sol.dofs.size}, q {q})")
    print(f"optimality residual {diag['optimality']:.3e}, "
          f"Kirchhoff max {diag['kirchhoff_max']:.3e}")
    for k, v in diag["continuity"].items():
        print(f"max jump of quasi-derivative order {k}: {v:.3e}")
    return 0


def cmd_verify(args) -> int:
    cfg = ProblemConfig.from_file(args.config)
    sol_dir = Path(args.solution)
    path = sol_dir / "summary.json"
    summary = read_json(path)
    if not isinstance(summary, dict):
        raise ConfigError(f"{path}: expected a JSON object")
    q = summary.get("q", cfg.solver.q)
    if isinstance(q, bool) or not isinstance(q, int) or q < 1:
        raise ConfigError(f"{path}: q must be an integer of at least 1, got {q!r}")
    tol = cfg.solver.tolerance
    sol = solve_damping(cfg.tree, cfg.coeffs, cfg.history, q=q)
    diag = solution_report(sol)
    failures = []

    for key, fresh in diag.items():
        if key not in summary:
            failures.append(f"summary has no {key} record")
            continue
        stored, recomputed = _numbers(summary[key]), _numbers(fresh)
        if len(stored) != len(recomputed):
            failures.append(f"{key} mismatch: stored {len(stored)} values, "
                            f"recomputed {len(recomputed)}")
            continue
        for a, b in zip(stored, recomputed):
            if not _agrees(a, b, tol):
                failures.append(f"{key} mismatch: stored {a!r}, recomputed {b!r}")
                break
    if not failures:
        print(f"{len(diag)} stored diagnostics match")

    control_path = sol_dir / "control.json"
    if control_path.exists():
        cells, stored_u, fresh_u = EdgePieces.common(control_from_file(control_path, cfg),
                                                     sol.control)
        scale = max(math.sqrt(cells.norms_sq(stored_u).sum()), 1.0)
        dist = math.sqrt(cells.norms_sq(stored_u - fresh_u).sum())
        if dist > tol * scale:
            failures.append(f"control mismatch: L2 distance {dist:.3e}")
        else:
            print(f"control matches to {dist:.3e}")
    else:
        failures.append("control.json missing from solution directory")

    print(f"optimality residual {diag['optimality']:.3e}, "
          f"Kirchhoff max {diag['kirchhoff_max']:.3e}, "
          f"hermiticity defect {diag['hermiticity']:.3e}")
    if diag["optimality"] > 1e-8:
        failures.append(f"optimality residual {diag['optimality']:.3e} above 1e-8")

    if failures:
        for f in failures:
            print("FAIL:", f, file=sys.stderr)
        return 4
    print("verification passed")
    return 0


def cmd_convergence(args) -> int:
    cfg = ProblemConfig.from_file(args.config)
    try:
        qs = [int(x) for x in args.q.split(",") if x.strip()]
    except ValueError:
        raise ConfigError(f"--q expects a comma-separated integer list, got {args.q!r}")
    if not qs or any(q < 1 for q in qs):
        raise ConfigError(f"--q entries must be positive integers, got {args.q!r}")
    if any(b <= a for a, b in zip(qs, qs[1:])):
        raise ConfigError(f"--q must strictly increase along the ladder, got {args.q!r}")
    tol = cfg.solver.tolerance
    orders = [str(k) for k in range(cfg.n, 2 * cfg.n)]
    top = 2 * cfg.n - 1
    header = ["q", "ndof", "energy", "optimality", "kirchhoff_max"]
    header += [f"jump_{k}" for k in orders]
    print(",".join(header))
    rows, levels = [], []
    for q in qs:
        sol = solve_damping(cfg.tree, cfg.coeffs, cfg.history, q=q)
        qd = quasi_derivatives(sol.coeffs, sol.control)
        row = {"q": q, **solution_report(sol, qd)}
        rows.append(row)
        levels.append(continuity_report(qd, threshold=tol)[top])
        cells = [str(q), str(row["ndof"]), f"{row['energy']:.17g}",
                 f"{row['optimality']:.6e}", f"{row['kirchhoff_max']:.6e}"]
        cells += [f"{row['continuity'][k]:.6e}" for k in orders]
        print(",".join(cells))

    if len(rows) < 2:
        return 0
    code = 0
    for a, b in zip(rows, rows[1:]):
        if b["energy"] > a["energy"] + tol * max(1.0, abs(a["energy"])):
            print(f"ASSERTION FAILED: energy increased from q={a['q']} to q={b['q']}",
                  file=sys.stderr)
            code = 4
    for row in rows:
        if row["optimality"] > 1e-8:
            print(f"ASSERTION FAILED: optimality residual {row['optimality']:.3e} "
                  f"at q={row['q']}", file=sys.stderr)
            code = 4
    first_k, last_k = rows[0]["kirchhoff_max"], rows[-1]["kirchhoff_max"]
    if cfg.tree.d > 0 and last_k > max(0.7 * first_k, tol):
        print("ASSERTION FAILED: Kirchhoff residual did not decay "
              f"({first_k:.3e} -> {last_k:.3e})", file=sys.stderr)
        code = 4
    jump = detect_persistent_jump(levels, exclude_radius=sol.mesh.max_width())
    if jump["persistent"]:
        print(f"smoothness loss detected: order-{top} quasi-derivative jump "
              f"stays at {jump['magnitude']:.3e} under refinement")
    return code


_Q = {"type": int, "required": False,
      "help": "mesh density, a positive integer overriding solver.q"}
# per subcommand: its function, its help and its options, each required
# unless its keyword arguments say otherwise
_COMMANDS = {
    "simulate": (cmd_simulate, "integrate forward under a given control",
                 {"--config": {"help": "problem file (JSON)"},
                  "--control": {"help": "piecewise control file (JSON)"},
                  "--out": {"help": "output directory"}, "--q": _Q}),
    "damp": (cmd_damp, "compute the energy-minimal damping control",
             {"--config": {}, "--out": {}, "--q": _Q}),
    "verify": (cmd_verify, "recompute a stored solution and compare",
               {"--config": {}, "--solution": {"help": "directory written by damp"}}),
    "convergence": (cmd_convergence, "run a refinement ladder",
                    {"--config": {}, "--q": {"help": "comma-separated q list, e.g. 1,2,4,8"}}),
}


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="treedamp",
        description="Energy-optimal damping of delay systems on metric trees.")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (fn, about, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=about)
        for flag, kw in options.items():
            p.add_argument(flag, **{"required": True, **kw})
        p.set_defaults(fn=fn)
    return ap


_PARSER = _parser()  # built once: main runs in process, call after call


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # the finiteness checks report these
            return args.fn(args)
    except _VALIDATION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except np.linalg.LinAlgError as exc:  # includes IndefiniteGramError
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:  # a problem too large for the memory at hand; numpy names the allocation
        print(f"out of memory: {str(exc) or 'MemoryError'}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
