"""Forward simulation of the controlled system by the method of steps.

On each edge the delayed argument refers either to the prescribed history
(root edge), to the tail of the parent trajectory (near the start), or to a
part of the same edge that lies at least one delay span in the past.  Edges
in canonical order always have their parent finished first, and each edge
starts from the state (derivatives ``0..n-1``) its parent ended with.

Each element is integrated by collocation (Bellen & Zennaro, *Numerical
Methods for Delay Differential Equations*, 2003): the solution there is one
polynomial matched to the running state at the left end and to the relation
at ``g = max(3, n + 1)`` interior Gauss-Legendre points
(:func:`~treedamp.piecewise.gauss_legendre`), of local degree at least
``2n``, so the degree-``(2n - 1)`` trajectories of ``damp`` on the same
elements re-simulate to roundoff (control round trips).

Every element-local step runs once over the mesh's element table.  The
collocation matrix is ``[[D, 0], [C1, C2]]``, ``D = diag(k!/h^k)`` the state
rows, so only the ``(elements, g, g)`` stack ``C2`` is inverted (and refined
twice) to split each element's coefficients into ``x_e = P_e state + Q_e
rhs_e``.  The right-hand sides (the control, less the history's delayed
terms) and the rows of the other delayed reads come from one lookup each on
the mesh's lead-ins (:func:`~treedamp.expressions.lead_ins`): a read before
the edge or in its first delay window lands in the parent's tail element
holding ``s + T_parent``, any other one in an earlier element of the edge.
The one loop left sweeps the tree of delay windows
(:attr:`~treedamp.meshing.DelayMesh.windows`) a depth at a time: every read
in a window lands in its parent's tail or its edge's earlier windows, all of
lower depth.  Per depth, one gather subtracts the delayed reads and one
``(element index, windows)`` chain steps the states ``state <- (B P)_e
state + (B Q)_e rhs_e``, ``B_e`` the end derivatives, from the parents'
exit states; shorter windows are padded with ``B P = I`` and no carry, in
states nothing reads.  Elements wider than the delay are rejected, since
their reads would reach the element itself.  The control is read from its
table, and the trajectory is one table on the elements.
"""

from __future__ import annotations

import math

import numpy as np

from .expressions import CoefficientSet, TreeFunction, check_edge_spans, operator_components
from .meshing import DelayMesh, MeshError, check_history
from .piecewise import (EdgeFunctions, EdgePieces, PiecewisePoly, _find, _poly_val,
                        as_edge_functions, derivative_powers, gauss_legendre)
from .trees import Tree


def solve_cauchy(tree: Tree, coeffs: CoefficientSet, phi: PiecewisePoly, control,
                 mesh: DelayMesh) -> TreeFunction:
    """Integrate the controlled system forward from the history ``phi``.

    ``control`` holds the input on edge ``j``, a function on ``[0, T_j]``,
    at index ``j - 1``, as one table (per-edge functions are tabled first).
    ``mesh`` supplies the element partition of every edge, one node array
    per edge spanning ``[0, T_j]``; an element wider than the delay raises
    :class:`MeshError`, since its delayed reads would reach the element
    itself, and so do a mesh that does not match the tree and a history
    that does not live on ``[-tau, 0]``.  A trajectory that overflows raises
    :class:`numpy.linalg.LinAlgError`.
    """
    control = as_edge_functions(control)
    check_edge_spans(tree, control.pieces.ends, "control")
    el = mesh.elements
    check_edge_spans(tree, el.ends, "mesh", MeshError, "node array")
    n, tau = coeffs.n, coeffs.tau
    check_history(phi, tau)
    reach = tau * (1 + 1e-9)  # the slack DelayMesh.check allows
    if mesh.max_width() > reach:
        raise MeshError(f"element width {mesh.max_width()} exceeds the delay {tau}")
    g = max(3, n + 1)  # Gauss points per element
    deg = n + g  # local coefficients per element, in powers of sigma = (t - left)/h
    sigma = 0.5 * (gauss_legendre(g)[0] + 1.0)
    at1 = np.array([derivative_powers([1.0], k, deg)[0] for k in range(n)])  # k < n, at 1
    at_gauss = np.array([derivative_powers(sigma, k, deg) for k in range(n + 1)])  # at sigma
    fact = np.array([math.factorial(k) for k in range(n)], dtype=float)

    # the tree's elements, their collocation points and every coefficient there
    E = len(el.edge)
    t = el.left[:, None] + el.h[:, None] * sigma  # (E, g)
    values = coeffs.values(el.edge.repeat(g), t.ravel()).reshape(-1, E, g)
    inv_h = el.h[:, None] ** -np.arange(deg)  # d/dt = (1/h) d/dsigma
    window, first, end, parent, depth = mesh.windows

    # reads before the edge or in its first window go to the history (root) or
    # to the parent's tail element holding s + T_parent, the rest to the
    # edge's own: a lookup on the lead-ins in the frame the read comes from
    (lead, lead_src, shift), par = mesh.lead_ins, np.asarray(tree.parent)[el.edge]
    s = t - tau
    before = (s < 0.0) | (window == window[el.offsets[:-1]][el.edge])[:, None]
    up, hist = before & (par > 0)[:, None], before & (par == 0)[:, None]
    s_at = s + np.where(up, np.asarray(tree.lengths)[par - 1, None], 0.0)
    src = lead_src[_find(2 * lead + (shift == 0), el.left[lead_src],
                         (2 * el.edge[:, None] + ~up).ravel(), s_at.ravel())].reshape(E, g)
    cp = control.pieces
    at = _find(cp.edge, cp.left, el.edge.repeat(g), t.ravel())
    rhs = _poly_val(control.table[at], t.ravel() - cp.left[at]).reshape(E, g)
    del at
    for k in np.flatnonzero(coeffs.present[n + 1 :, 0]):
        rhs[hist] -= values[n + 1 + k][hist] * phi.values(s[hist], k)
    values[n + 1 :, hist] = 0.0
    dx = (s_at - el.left[src]).ravel()
    read = np.zeros((E, g, deg), dtype=complex)  # sum of c_k d^k/dt^k at s_at in element src
    for k in np.flatnonzero(coeffs.present[n + 1 :].any(axis=1)):
        dk = derivative_powers(dx, k, deg).reshape(E, g, deg)
        read.real += values[n + 1 + k].real[..., None] * dk  # real parts: no complex copy of dk
        read.imag += values[n + 1 + k].imag[..., None] * dk
    # the collocation rows [C1, C2] of [[D, 0], [C1, C2]], D = diag(k!/h^k) the state rows
    values[: n + 1] *= inv_h.T[: n + 1, :, None]
    C1 = np.einsum("kep,kpi->epi", values[: n + 1], at_gauss[..., :n])
    C2 = np.einsum("kep,kpi->epi", values[: n + 1], at_gauss[..., n:])
    del values, t, s, s_at, dx

    inv = np.linalg.solve(C2, np.eye(g))
    for _ in range(2):  # refine: the state chain amplifies the inverse's error
        inv += inv @ (np.eye(g) - C2 @ inv)
    d_inv = el.h[:, None] ** np.arange(n) / fact  # D^-1
    K = np.empty((E, g, deg), dtype=complex)  # x_e[n:] = K_e z_e = P_e state + Q_e rhs_e
    K[..., n:] = inv
    K[..., :n] = -(inv @ (C1 * d_inv[:, None]))
    del C1, C2, inv
    B = at1 * inv_h[:, :n, None]  # the end state is B_e x_e
    BP = B[..., :n] * d_inv[:, None] + B[..., n:] @ K[..., :n]
    BQ = B[..., n:] @ K[..., n:]
    K *= inv_h[:, n:, None]  # onto powers of t - left

    coef = np.zeros((E, deg), dtype=complex)  # powers of t - left
    exits = np.empty((len(first) + 1, n), dtype=complex)  # state at each window's end
    exits[-1] = [phi.left_limit(0.0, k) for k in range(n)]  # the root start's, parent -1
    lim = first[window] - 1  # the last element before each element's window
    BP = np.concatenate([BP, np.eye(n)[None]])  # row E: the padding's step, state <- state
    size = end - first
    for d in range(depth.max() + 1):
        ws = np.flatnonzero(depth == d)  # the depth's windows
        steps = np.arange(size[ws].max())[:, None]
        pad = steps >= size[ws]  # (element index, windows)
        at = np.where(pad, E, first[ws] + steps)
        rows = at[~pad]  # the depth's elements
        z = np.empty((len(rows), deg), dtype=complex)  # per element: the entering state, then the rhs
        reads = coef[np.minimum(src[rows], lim[rows, None])]
        z[:, n:] = rhs[rows] - np.einsum("epi,epi->ep", read[rows], reads)
        carry = np.zeros(at.shape + (n, 1), dtype=complex)  # 0 on the padding
        carry[~pad, :, 0] = np.einsum("eij,ej->ei", BQ[rows], z[:, n:])
        state = np.empty((len(steps) + 1, len(ws), n, 1), dtype=complex)
        state[0, ..., 0] = exits[parent[ws]]
        Px = np.empty_like(state[0])  # its own buffer: an output viewing x's array is slower
        for P, c, x, y in zip(BP[at], carry, state, state[1:]):  # y = P x + c, all windows
            np.matmul(P, x, Px)
            np.add(Px, c, y)
        z[:, :n] = state[:-1][~pad, :, 0]
        coef[rows, :n] = z[:, :n] / fact
        coef[rows, n:] = np.einsum("eij,ej->ei", K[rows], z)
        exits[ws] = state[size[ws], np.arange(len(ws)), :, 0]
    bad = ~np.isfinite(coef).all(axis=1)
    if bad.any():
        eid = tree.original_ids[el.edge[bad.argmax()]]
        raise np.linalg.LinAlgError(f"the simulated trajectory overflowed on edge id {eid}")
    return TreeFunction(tree, n, EdgeFunctions(el, coef), phi)


def residual_ell(y: TreeFunction, coeffs: CoefficientSet, control) -> dict:
    """Per-edge L2 distance between the applied operator and the control,
    integrated on their common cells (:meth:`EdgePieces.common`)."""
    control = as_edge_functions(control)
    check_edge_spans(y.tree, control.pieces.ends, "control")
    cells, ell, u = EdgePieces.common(operator_components(y, coeffs), control)
    per_edge = np.sqrt(cells.norms_sq(ell - u)).tolist()
    return {"per_edge": per_edge, "total": math.sqrt(sum(r * r for r in per_edge))}
