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
rows, so only the ``g x g`` blocks ``C2`` are inverted to split each
element's coefficients into ``x_e = P_e state + Q_e rhs_e``.  The blocks
and every product of them are kept entries-major, ``(rows, cols,
elements)``: each matrix entry is one vector over the elements, so an
inverse or a product is a fixed number of vector operations for all
elements at once, not one LAPACK or BLAS call per element.  The inverse is
the adjugate over the determinant (:func:`_inverse`), which needs no pivot,
refined once by ``inv += inv (I - C2 inv)``: on the benchmark's round trips
(seeds 21-80, 120 cases) one step brings the geometric-mean distance from
1.31e-13 to 8.24e-14, as a LAPACK inverse refined twice (8.25e-14), and a
second step gains nothing (8.35e-14).  The right-hand sides (the control, less the
history's delayed terms) and the rows of the other delayed reads come from
one lookup each on the mesh's lead-ins
(:func:`~treedamp.expressions.lead_ins`): a read before the edge or in its
first delay window lands in the parent's tail element holding ``s +
T_parent``, any other one in an earlier element of the edge.  The one loop
left sweeps the tree of delay windows
(:attr:`~treedamp.meshing.DelayMesh.windows`) a depth at a time: every read
in a window lands in its parent's tail or its edge's earlier windows, all of
lower depth.  The elements are laid out once in sweep order, each depth a
``(element index, windows)`` grid of slots, so a depth reads contiguous
slices: one gather subtracts the delayed reads, and one product per
element index steps the states of all its windows, ``[state, 1] <- [[(B
P)_e, (B Q)_e rhs_e], [0, 1]] [state, 1]``, ``B_e`` the end derivatives,
from the parents' exit states; shorter windows are padded with ``B P = I``
and no carry, in slots nothing reads.  Elements wider than the delay are
rejected, since their reads would reach the element itself.  The control is
read from its table, and the trajectory is one table on the elements.
"""

from __future__ import annotations

import functools
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
    that does not live on ``[-tau, 0]``.  A trajectory that overflows, or a
    singular collocation block, raises :class:`numpy.linalg.LinAlgError`
    naming the edge.
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
    sigma, at1, at_gauss, fact = _collocation_tables(n)
    g = len(sigma)  # Gauss points per element
    deg = n + g  # local coefficients per element, in powers of sigma = (t - left)/h

    # the sweep's slots: per depth a (steps, windows) grid, step-major, the
    # depths one after another; element e sits at slot pos[e], and a shorter
    # window's steps past its end are padding slots (at = 0, nothing reads them)
    E = len(el.edge)
    window, first, end, parent, depth = mesh.windows
    order = np.argsort(depth, kind="stable")  # the windows, depth by depth
    per = np.bincount(depth)  # windows per depth
    lead = np.cumsum(per) - per  # each depth's first in order
    steps = np.maximum.reduceat((end - first)[order], lead)
    o = np.append(0, np.cumsum(per * steps))  # each depth's first slot, then the count
    col = np.empty_like(order)
    col[order] = np.arange(len(order)) - np.repeat(lead, per)
    pos = (o[depth] + col - per[depth] * first)[window] + per[depth][window] * np.arange(E)
    S = o[-1]
    at, pad = np.zeros(S, dtype=int), np.ones(S, dtype=bool)
    at[pos], pad[pos] = np.arange(E), False

    # every slot's collocation points and every coefficient there, entries-major:
    # a slot's entries lie S apart, each entry is one vector over the slots
    edge, h = el.edge[at], el.h[at]
    t, t_edge = el.left[at] + sigma[:, None] * h, np.tile(edge, g)  # (g, S), and flat
    values = coeffs.values(t_edge, t.ravel()).reshape(-1, g, S)
    inv_h = h ** -np.arange(deg)[:, None]  # d/dt = (1/h) d/dsigma
    # the collocation rows [C1, C2] of [[D, 0], [C1, C2]], D = diag(k!/h^k) the state rows
    C = np.matmul(at_gauss.transpose(1, 2, 0), (values[: n + 1] * inv_h[: n + 1, None]).transpose(1, 0, 2))
    values = values[n + 1 :].copy()  # the delayed terms' c_k, all the reads below need

    # reads before the edge or in its first window go to the history (root) or
    # to the parent's tail element holding s + T_parent, the rest to the
    # edge's own: a lookup on the lead-ins in the frame the read comes from
    (lead_at, lead_src, shift), par = mesh.lead_ins, np.asarray(tree.parent)[edge]
    s = t - tau
    before = (s < 0.0) | (window == window[el.offsets[:-1]][el.edge])[at]
    up, hist = before & (par > 0), before & (par == 0)
    s_at = s + np.where(up, np.asarray(tree.lengths)[par - 1], 0.0)
    src = lead_src[_find(2 * lead_at + (shift == 0), el.left[lead_src],
                         (2 * edge + ~up).ravel(), s_at.ravel())].reshape(g, S)
    cp = control.pieces
    row = _find(cp.edge, cp.left, t_edge, t.ravel())
    rhs = _poly_val(control.table[row], t.ravel() - cp.left[row]).reshape(g, S)
    del row
    for k in np.flatnonzero(coeffs.present[n + 1 :, 0]):
        rhs[hist] -= values[k][hist] * phi.values(s[hist], k)
    values[:, hist] = 0.0
    dx = np.empty((deg, g, S))  # the powers of s_at - left in element src
    dx[0], dx[1] = 1.0, s_at - el.left[src]
    for i in range(2, deg):
        np.multiply(dx[i - 1], dx[1], out=dx[i])
    read = np.zeros((deg, g, S), dtype=complex)  # sum of c_k d^k/dt^k at s_at in element src
    for k in np.flatnonzero(coeffs.present[n + 1 :].any(axis=1)):
        for i in range(k, deg):
            read[i] += values[k] * (math.perm(i, k) * dx[i - k])
    del values, t, t_edge, s, s_at, dx
    # a read lands before its element's window; the padding reads the zero row S
    src = np.where(pad, S, pos[np.minimum(src, (first[window] - 1)[at])])
    rhs[:, pad], read[:, :, pad] = 0.0, 0.0

    # x_e[n:] = K_e z_e, z_e the entering state and then the rhs, from the
    # inverse of C2; the end state is B_e x_e, B_e = diag(h^-k) at1
    C1, C2 = C[:, :n], C[:, n:]
    inv = _inverse(C2, np.asarray(tree.original_ids)[edge])
    R = _mul(C2, inv)  # one refinement step, inv += inv (I - C2 inv): module notes
    np.negative(R, out=R)
    for i in range(g):
        R[i, i] += 1.0
    inv += _mul(inv, R)
    del R
    d_inv = h ** np.arange(n)[:, None] / fact[:, None]  # D^-1
    K = np.concatenate([-_mul(inv, C1 * d_inv), inv], axis=1)
    del C, C1, C2, inv
    BK = (at1[:, n:] @ K.reshape(g, -1)).reshape(n, deg, S) * inv_h[:n, None]  # one product
    K *= inv_h[n:, None]  # onto powers of t - left
    # per slot [[B P, B Q rhs], [0, 1]] steps the state with a 1 appended in
    # one product; the padding's step keeps the state, B P = I and no carry
    step = np.zeros((S, n + 1, n + 1), dtype=complex)
    step[:, :n, :n] = np.where(pad, np.eye(n)[..., None],
                               at1[:, :n, None] * inv_h[:n, None] * d_inv + BK[:, :n]).transpose(2, 0, 1)
    step[:, n, n] = 1.0
    BQ = np.where(pad, 0.0, BK[:, n:])
    del BK

    coef = np.zeros((S + 1, deg), dtype=complex)  # powers of t - left, per slot; row S stays 0
    exits = np.empty((len(first) + 1, n), dtype=complex)  # state at each window's end
    exits[-1] = [phi.left_limit(0.0, k) for k in range(n)]  # the root start's, parent -1
    for d, ws in enumerate(np.split(order, lead[1:])):  # the depth's windows
        sl = slice(o[d], o[d + 1])
        z = np.empty((deg, o[d + 1] - o[d]), dtype=complex)  # per slot: the entering state, then the rhs
        z[n:] = rhs[:, sl] - np.einsum("ipe,pei->pe", read[:, :, sl], coef[src[:, sl]])
        step[sl, :n, n] = np.einsum("ijs,js->si", BQ[:, :, sl], z[n:])
        state = np.empty((steps[d] + 1, len(ws), n + 1, 1), dtype=complex)
        state[0, :, :n, 0], state[0, :, n] = exits[parent[ws]], 1.0
        for P, x, y in zip(step[sl].reshape(steps[d], len(ws), n + 1, n + 1), state, state[1:]):
            np.matmul(P, x, y)  # all windows
        z[:n] = state[:-1, :, :n, 0].reshape(-1, n).T
        coef[sl, :n] = z[:n].T / fact
        coef[sl, n:] = np.einsum("pis,is->sp", K[:, :, sl], z)
        exits[ws] = state[-1, :, :n, 0]
    coef = coef[pos]
    bad = ~np.isfinite(coef).all(axis=1)
    if bad.any():
        eid = tree.original_ids[el.edge[bad.argmax()]]
        raise np.linalg.LinAlgError(f"the simulated trajectory overflowed on edge id {eid}")
    return TreeFunction(tree, n, EdgeFunctions(el, coef), phi)


@functools.cache
def _collocation_tables(n: int) -> tuple:
    """The order-``n`` element's ``g = max(3, n + 1)`` Gauss points
    ``sigma`` on ``[0, 1]``, the derivatives below ``n`` of the powers
    ``sigma^i``, ``i < n + g``, at 1 and those up to ``n`` at the points,
    and ``k!`` for ``k < n``: read-only, computed once per order."""
    g = max(3, n + 1)
    sigma = 0.5 * (gauss_legendre(g)[0] + 1.0)
    at1 = np.array([derivative_powers([1.0], k, n + g)[0] for k in range(n)])
    at_gauss = np.array([derivative_powers(sigma, k, n + g) for k in range(n + 1)])
    fact = np.array([math.factorial(k) for k in range(n)], dtype=float)
    for a in (sigma, at1, at_gauss, fact):
        a.flags.writeable = False
    return sigma, at1, at_gauss, fact


def _mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The products ``a_e @ b_e`` of two entries-major stacks, ``(r, m, E)``
    by ``(m, c, E)``: per row of the result, a sum over the inner index, so
    that no temporary is larger than one ``(c, E)`` row."""
    out = np.empty((a.shape[0], b.shape[1], a.shape[2]), dtype=np.result_type(a, b))
    for r, row in enumerate(out):
        np.multiply(a[r, 0], b[0], out=row)
        for j in range(1, a.shape[1]):
            row += a[r, j] * b[j]
    return out


def _inverse(a: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """The inverses of the blocks ``a_e`` of the entries-major stack ``a``,
    ``(g, g, E)``, as their adjugates over their determinants: a fixed
    number of vector operations over all blocks, with no pivot to choose,
    so a zero entry in a nonsingular block does not break it down.  Every
    cofactor is a minor of ``g - 1`` rows expanded along its first row,
    each smaller minor formed once.  Each block is scaled first by the power
    of two nearest its largest entry, so that the determinant neither
    overflows nor underflows where the entries do not.  A zero determinant
    means the block is singular: :class:`numpy.linalg.LinAlgError` names
    its edge id, ``ids[e]``."""
    g = len(a)
    scale = np.ldexp(1.0, -np.frexp(np.abs(a).max(axis=(0, 1)))[1])
    a, minors, every = a * scale, {}, tuple(range(g))
    det = _minor(a, every, every, minors)
    if not det.all():
        eid = ids[np.argmin(det != 0)]
        raise np.linalg.LinAlgError(f"the collocation block of an element on edge id {eid} is singular")
    over = scale / det
    signed = (over, -over)  # the cofactor signs
    inv = np.empty_like(a)
    for i in range(g):
        for j in range(g):
            cofactor = _minor(a, every[:i] + every[i + 1 :], every[:j] + every[j + 1 :], minors)
            np.multiply(cofactor, signed[(i + j) % 2], out=inv[j, i])
    return inv


def _minor(a: np.ndarray, rows: tuple, cols: tuple, minors: dict) -> np.ndarray:
    """The determinants of the ``rows`` by ``cols`` submatrices of the
    entries-major stack ``a``, expanded along the first row; ``minors``
    keeps every one formed, so none is formed twice."""
    if len(rows) == 1:
        return a[rows[0], cols[0]]
    if (rows, cols) not in minors:
        total = None
        for j, c in enumerate(cols):
            term = a[rows[0], c] * _minor(a, rows[1:], cols[:j] + cols[j + 1 :], minors)
            total = term if total is None else total - term if j % 2 else total + term
        minors[rows, cols] = total
    return minors[rows, cols]


def residual_ell(y: TreeFunction, coeffs: CoefficientSet, control) -> dict:
    """Per-edge L2 distance between the applied operator and the control,
    integrated on their common cells (:meth:`EdgePieces.common`)."""
    control = as_edge_functions(control)
    check_edge_spans(y.tree, control.pieces.ends, "control")
    cells, ell, u = EdgePieces.common(operator_components(y, coeffs), control)
    per_edge = np.sqrt(cells.norms_sq(ell - u)).tolist()
    return {"per_edge": per_edge, "total": math.sqrt(sum(r * r for r in per_edge))}
