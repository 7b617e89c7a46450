"""Quasi-derivative diagnostics for damping trajectories.

At the optimum, the trajectory solves a self-adjoint boundary value problem
of order ``2n`` whose higher quasi-derivatives are built from the variation
weights by the descending recursion

    y^<n>   = (weight of conj(w^(n))),
    y^<n+l> = (weight of conj(w^(n-l))) - d/dt y^<n+l-1>,

with absolutely continuous orders ``n..2n-1``, a vanishing order ``2n``,
and a balance at every branching vertex: the outgoing value of each order
equals the sum over the child edges of their incoming values.  None of this
is imposed by the discrete minimisation, which is what makes these
quantities diagnostics: their jumps, vertex defects, and weak residuals all
measure how far the computed trajectory is from the optimality structure,
and they collapse under refinement exactly when the solver is right.

All orders live on one whole-tree table per order, laid out on the same
cells: the variation weights of every order come from one call on the
control's table, the recursion is column work on those aligned tables, and
every diagnostic is one pass over them.  A jump is a row's constant term
minus the previous row's value at its right end, a vertex balance is an
edge's last row at its right end minus the sum of its children's first
constants, and the sup norm of the top order is one batched extremum search
over the rows that a coefficient bound cannot rule out.  Per-edge functions
(:class:`~treedamp.piecewise.EdgeFunctions`) are views of the tables, made
only on request; the per-edge algebra that cross-checks these passes
belongs to the test oracle.  Jumps at piece boundaries are never
differentiated; they are recorded, which is the whole point: a persistent
jump that refinement does not remove reproduces the loss-of-smoothness
phenomenon of histories with limited regularity.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .damping import DampingSolution, optimality_check
from .expressions import CoefficientSet, _weight_table
from .piecewise import EdgeFunctions, EdgePieces, PiecewisePoly, _poly_der, _poly_val, _sup_abs

# A jump is persistent when it changed by less than this share of its size
# between the two finest levels of a refinement study; a jump the mesh
# resolves shrinks like the element width instead.
PERSISTENT_CHANGE = 0.10


@dataclass(frozen=True)
class QuasiDerivativeSet:
    """Quasi-derivatives of orders ``n..2n`` on the active windows
    ``[0, l_j]``.

    ``tables[k]`` holds the order ``k`` of every edge on ``cells``;
    ``functions[k]`` reads it per edge (:class:`~treedamp.piecewise.EdgeFunctions`).
    """

    tree: object
    n: int
    cells: EdgePieces
    tables: dict

    @cached_property
    def functions(self) -> dict:
        return {k: EdgeFunctions(self.cells, t) for k, t in self.tables.items()}

    def function(self, k: int, j: int) -> PiecewisePoly:
        return self.functions[k][j - 1]


def quasi_derivatives(coeffs: CoefficientSet, ells) -> QuasiDerivativeSet:
    """Build the quasi-derivative family of a trajectory from its control.

    ``ells`` holds ``L_j y`` at index ``j - 1``, the ``control`` of a
    :class:`~treedamp.damping.DampingSolution`.  Runs the descending
    recursion on the variation weights of every order, laid out on common
    cells, one whole-tree table per order, purely symbolically.
    """
    n = coeffs.n
    cells, weights = _weight_table(coeffs, ells, range(n + 1))
    tables = {n: weights[:, n]}
    for k in range(n + 1, 2 * n + 1):
        below = _poly_der(tables[k - 1])
        tables[k] = weights[:, 2 * n - k].copy()
        tables[k][:, : below.shape[1]] -= below
    return QuasiDerivativeSet(tree=coeffs.tree, n=n, cells=cells, tables=tables)


def kirchhoff_residual(qd: QuasiDerivativeSet) -> dict:
    """Vertex-balance defects of the quasi-derivatives.

    For every branching vertex ``j`` and order ``k = n..2n-1``, the modulus
    of outgoing value minus the sum of incoming child values, both taken as
    one-sided limits: the last row of edge ``j`` at its right end, and the
    first rows' constant terms.  Zero for the exact optimum.
    """
    cells, d, orders = qd.cells, qd.tree.d, range(qd.n, 2 * qd.n)
    last = cells.offsets[1 : d + 1] - 1
    parent = np.asarray(qd.tree.parent[1:], dtype=int) - 1  # every edge but the root has one
    defects = []
    for k in orders:
        table = qd.tables[k]
        into = np.zeros(d, dtype=complex)
        np.add.at(into, parent, table[cells.offsets[1:-1], 0])
        defects.append(np.abs(_poly_val(table[last], cells.h[last]) - into).tolist())
    out = {(j, k): defects[i][j - 1] for j in range(1, d + 1) for i, k in enumerate(orders)}
    out["max"] = max(out.values(), default=0.0)
    return out


def _gaps(qd: QuasiDerivativeSet) -> tuple:
    """The rows with a right neighbour on their edge, and per order ``k =
    n..2n-1`` the ``|gap|`` of right minus left limit at each one's end."""
    cells = qd.cells
    inner = np.flatnonzero(cells.edge[1:] == cells.edge[:-1])
    return inner, {k: np.abs(t[inner + 1, 0] - _poly_val(t[inner], cells.h[inner]))
                   for k, t in sorted(qd.tables.items()) if k < 2 * qd.n}


def continuity_report(qd: QuasiDerivativeSet, threshold: float = 0.0) -> dict:
    """Jump summary per order ``k = n..2n-1``.

    For each order: the largest absolute jump, where it sits, and the full
    list of ``(edge, t, |gap|)`` above ``threshold``, where ``gap`` is the
    right minus the left limit at an interior breakpoint.  These are the
    absolute-continuity proxies: under refinement they vanish at the true
    optimum except where the data itself obstructs smoothness.
    """
    cells, (inner, gaps) = qd.cells, _gaps(qd)
    edge, at = (cells.edge[inner + 1] + 1).tolist(), cells.left[inner + 1].tolist()
    report = {}
    for k, gap in gaps.items():
        keep = np.flatnonzero(gap > threshold)
        entries = [(edge[i], at[i], g) for i, g in zip(keep.tolist(), gap[keep].tolist())]
        if entries:
            worst = max(entries, key=lambda e: e[2])
            report[k] = {"max_jump": worst[2], "location": (worst[0], worst[1]), "jumps": entries}
        else:
            report[k] = {"max_jump": 0.0, "location": None, "jumps": []}
    return report


def equation_residual(qd: QuasiDerivativeSet) -> float:
    """Sup norm of the order-``2n`` quasi-derivative over the tree.

    The exact optimum satisfies ``y^<2n> = 0`` pointwise; the discrete
    trajectory does not, and this quantity decays only weakly.  Reported
    for inspection, not as a convergence criterion.  One extremum search
    runs over the pieces of all edges at once, on those whose coefficient
    bound reaches the largest end value (:func:`~treedamp.piecewise._sup_abs`).
    """
    return _sup_abs(qd.tables[2 * qd.n], qd.cells.h)


def match_jump(entries: list, location: tuple, tol: float) -> float:
    """Magnitude of the jump at (edge, t) in a continuity entry list, 0 if absent."""
    j0, t0 = location
    for j, t, mag in entries:
        if j == j0 and abs(t - t0) <= tol:
            return mag
    return 0.0


def detect_persistent_jump(
    levels: list,
    location: tuple | None = None,
    tol: float = 1e-9,
    exclude_radius: float = 0.0,
) -> dict:
    """Classify a candidate persistent jump across a refinement study.

    ``levels`` holds one continuity entry per refinement level (the dict
    returned by :func:`continuity_report` for a single order), coarse to
    fine.  The jump at ``location`` (edge, t), defaulting to the dominant
    jump of the finest level, is matched by position in the next-coarser
    level; it is flagged persistent when it changed by less than
    ``PERSISTENT_CHANGE`` between those two levels while exceeding ten times
    every competing jump on the finest level.

    ``exclude_radius`` removes same-edge jumps within that distance of the
    candidate from the competition.  This is the localization scale of the
    discretization: an element of class C^{n-1} can place a classical
    derivative jump only at a node, so a discontinuity strictly inside an
    element is rendered as the exact data-induced jump at its true location
    plus aliased node jumps at the ends of the containing element.  Passing
    one element width treats those aliases as part of the same discrete
    feature instead of as independent jumps.
    """
    last = levels[-1]
    if not last["jumps"]:
        return {"persistent": False, "magnitude": 0.0, "location": None}
    loc = location if location is not None else last["location"]
    mag = match_jump(last["jumps"], loc, tol)
    if mag == 0.0:
        return {"persistent": False, "magnitude": 0.0, "location": loc}
    prev = match_jump(levels[-2]["jumps"], loc, tol) if len(levels) > 1 else 0.0
    change = abs(mag - prev) / mag
    radius = max(tol, exclude_radius)
    others = [m for j, t, m in last["jumps"] if j != loc[0] or abs(t - loc[1]) > radius]
    separation = mag / max(others) if others else np.inf
    return {
        "persistent": bool(change < PERSISTENT_CHANGE and separation >= 10.0),
        "location": loc,
        "magnitude": mag,
        "change": change,
        "separation": separation,
    }


def solution_report(sol: DampingSolution, qd: QuasiDerivativeSet | None = None) -> dict:
    """The diagnostics record of a damping solution, ready for JSON.

    Keys: ``ndof``; ``energy``; ``optimality`` (the relative first-variation
    residual of :func:`~treedamp.damping.optimality_check`); ``equation_sup``
    (:func:`equation_residual`); ``kirchhoff``, one ``{vertex, order,
    residual}`` per branching vertex and order, the vertex named by the
    input label of the edge ending there; ``kirchhoff_max``; and
    ``continuity``, the largest jump of each order ``k = n..2n-1`` keyed by
    ``str(k)`` (the ``max_jump`` of :func:`continuity_report`, without its
    list).  The Gram matrix's Hermitian defect is not recorded: its
    factor reads one triangle of each front's block.

    ``qd``, when given, is the solution's :func:`quasi_derivatives`, so a
    caller that needs them too builds them once.
    """
    if qd is None:
        qd = quasi_derivatives(sol.coeffs, sol.control)
    kr = kirchhoff_residual(qd)
    ids = sol.y.tree.original_ids
    return {
        "ndof": int(sol.dofs.size),
        "energy": sol.energy,
        "optimality": optimality_check(sol)["max_rel"],
        "equation_sup": equation_residual(qd),
        "kirchhoff": [
            {"vertex": ids[key[0] - 1], "order": key[1], "residual": v}
            for key, v in kr.items() if key != "max"
        ],
        "kirchhoff_max": kr["max"],
        "continuity": {str(k): float(gap[gap > 0.0].max(initial=0.0))
                       for k, gap in _gaps(qd)[1].items()},
    }
