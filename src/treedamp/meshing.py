"""Delay-aligned meshes and the constrained Hermite trial space.

The trajectory lives in a conforming Hermite space: elements of degree
``2n-1`` whose value and first ``n-1`` derivatives are shared at the nodes,
on meshes whose nodes contain every delay-wavefront image of the initial
instant, so that the kinks the stepping structure creates sit on element
boundaries.  The history is an essential condition on that space, imposed
through the nodal data of the root start (``phi``'s ``n`` end derivatives);
the minimisation runs over the free nodal data, with every boundary edge
resting on its final delay window.

:func:`build_mesh` places the nodes of the whole tree in a fixed number
of array passes and keeps them as one table of elements
(:attr:`DelayMesh.elements`).  Where an edge's delayed reads land, its
lead-in, the mesh takes from :func:`~treedamp.expressions.lead_ins`, the
delay rule that the trajectories and the weights read too, and searches it
in one lookup for any set of points (:meth:`Basis.locate`).  Its delay
windows form one tree (:attr:`DelayMesh.windows`), which the simulation
sweeps and the Gram factorisation eliminates.  :class:`Basis` adds the
Hermite shapes and nodal-data indices of every element.  Reconstruction,
Gram assembly and simulation read these tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .expressions import TreeFunction, lead_ins
from .piecewise import EdgeFunctions, EdgePieces, PiecewisePoly, _find, derivative_powers
from .trees import Tree


class MeshError(ValueError):
    pass


def _hermite_shapes(n: int, h) -> np.ndarray:
    """Hermite shapes of elements of width ``h`` (a number or an array).

    Returns an array of shape ``np.shape(h) + (2n, 2n)``.  Row ``k`` holds
    the coefficients, in ascending powers of the local variable ``s``
    measured from the left node, of the shape with ``k``-th derivative 1 at
    the left node and all other nodal data zero; row ``n + k`` is the same
    for the right node.
    """
    N = 2 * n
    # conditions in the scaled variable sigma = s/h: derivatives 0..n-1 at
    # sigma = 0 (rows 0..n-1), then at sigma = 1 (rows n..2n-1)
    ends = np.array([derivative_powers([0.0, 1.0], k, N) for k in range(n)])
    M = ends.transpose(1, 0, 2).reshape(N, N)
    X = np.linalg.solve(M, np.eye(N))
    h = np.asarray(h, dtype=float)[..., None, None]
    i = np.arange(N)
    return X.T / h**i * h ** (i % n)[:, None]


@dataclass(frozen=True)
class DelayMesh:
    """Per-edge node sets aligned with the delay stepping structure, kept as
    one table: edge ``j - 1`` of :attr:`elements` holds edge ``j``'s
    elements, their nodes sorted from 0 to ``T_j``.  Edge ``j`` reads its
    delayed values from its :attr:`lead_ins` on ``[-tau, T_j)``: on every
    edge but the root, the parent's tail elements moved back to ``[-tau,
    0]``, then its own; the root edge reads the history before 0."""

    tree: Tree
    tau: float
    q: int
    elements: EdgePieces

    @classmethod
    def from_nodes(cls, tree: Tree, tau: float, q: int, nodes) -> "DelayMesh":
        """The mesh of one sorted node array per edge, edge ``j``'s at ``j - 1``;
        :class:`MeshError` unless every array is finite and strictly increasing."""
        sizes = np.fromiter(map(len, nodes), int, len(nodes))
        el = EdgePieces(np.concatenate(nodes), np.append(0, np.cumsum(sizes - 1)))
        bad = np.append(el.break_edge[~np.isfinite(el.breaks)], el.edge[~(el.h > 0)])
        if bad.size:
            raise MeshError(f"the node array of edge {bad.min() + 1} is not finite and "
                            "strictly increasing")
        return cls(tree, tau, q, el)

    @property
    def nodes(self) -> tuple:
        """Edge ``j``'s node array at index ``j - 1``, views of the table."""
        el = self.elements
        return tuple(el.breaks[el.offsets[e] + e : el.offsets[e + 1] + e + 1] for e in range(el.m))

    @cached_property
    def lead_ins(self) -> tuple:
        """The elements' :func:`~treedamp.expressions.lead_ins`."""
        tree = self.tree
        return lead_ins(self.elements, np.asarray(tree.parent) - 1, np.asarray(tree.lengths), self.tau)

    @cached_property
    def windows(self) -> tuple:
        """The tree of delay windows ``(of, first, end, parent, depth)``: an
        edge's greedy runs of elements, each from the one after the last
        window's on, whose right ends lie within its left node plus ``tau``
        (to the ``1e-9`` slack :meth:`check` allows), at least one.  ``of``
        is each element's window; per window, in element order, its first
        element, the one after its last, its parent (the window before it
        on the edge or the parent edge's last, -1 for the root's first) and
        its depth.  A parent comes before its children.  The depth orders
        both the forward simulation, which steps the windows of one depth
        together, and the Gram factorisation's fronts."""
        el, rows = self.elements, np.arange(len(self.elements.edge))
        reach_to = el.left + self.tau * (1 + 1e-9)
        r = _find(el.edge, el.left, el.edge, reach_to)
        end = el.offsets[1:][el.edge]
        stop = np.maximum(r + ((r == end - 1) & (el.breaks[end + el.edge] <= reach_to)), rows + 1)
        start, at = np.zeros(len(rows), dtype=bool), el.offsets[:-1][np.diff(el.offsets) > 0]
        while len(at):  # one window of every edge per pass
            start[at], at = True, stop[at]
            at = at[at < end[at - 1]]
        of, first = np.cumsum(start) - 1, np.flatnonzero(start)
        prev = rows - 1  # per element, the one before it: on its edge, or the parent's last
        prev[el.offsets[:-1]] = el.offsets[np.asarray(self.tree.parent)] - 1
        parent = np.append(of, -1)[prev[first]]  # -1 before the root
        depth = [0] * len(first) + [-1]  # the depth of parent -1 is -1
        for w, p in enumerate(parent.tolist()):
            depth[w] = depth[p] + 1
        return of, first, stop[first], parent, np.array(depth[:-1])

    def max_width(self) -> float:
        return float(self.elements.h.max())

    def min_width(self) -> float:
        return float(self.elements.h.min())

    def check(self):
        """Assert the structural invariants; returns self for chaining."""
        if self.max_width() > self.tau / self.q * (1 + 1e-9):
            raise MeshError("element width exceeds tau/q")
        el, T = self.elements, np.asarray(self.tree.lengths)
        must = np.stack([np.zeros(len(T)), T - self.tau, T])  # per edge: 0, T_j - tau, T_j
        gap = np.minimum.reduceat(np.abs(el.breaks - must[:, el.break_edge]),
                                  el.offsets[:-1] + np.arange(el.m), axis=1)
        bad = np.argwhere((gap > 1e-9 * np.maximum(1.0, T)).T)  # (edge, node), edge by edge
        if len(bad):
            j, k = bad[0]
            raise MeshError(f"mandatory node {must[k, j]} missing on edge {j + 1}")
        return self


def build_mesh(tree: Tree, tau: float, q: int, sources=(0.0,), local_points=((), ())) -> DelayMesh:
    """Delay-aligned mesh with elements no wider than ``tau/q``.

    ``sources`` are global times (distance from the root along the path)
    whose forward images ``source + k*tau`` become nodes wherever they land;
    the default single source is the initial instant of the root edge.
    ``local_points``, a pair of 0-based edges and local points (as
    :meth:`~treedamp.expressions.CoefficientSet.breakpoints` gives them),
    adds mandatory nodes, used by the solvers to pin coefficient breakpoints
    onto element boundaries.  Per edge, these points, 0, ``T_j - tau`` and
    ``T_j`` are sorted, a point within ``1e-12 * max(1, offset + T_j)`` of its
    predecessor is dropped, and every gap is cut into equal elements.
    """
    if q < 1 or int(q) != q:
        raise MeshError(f"refinement parameter must be a positive integer, got {q}")
    if not (0.0 < tau < min(tree.lengths)):
        raise MeshError(f"delay {tau} must lie in (0, min edge length)")

    m, T, offset = tree.m, np.asarray(tree.lengths), tree.offsets
    count = float(np.sum(T / tau * q))  # no edge has fewer than T_j q / tau elements
    if count > np.iinfo(np.intp).max:
        raise MeshError(f"a mesh of at least {count:.6g} elements is more than an array can index")
    tol = 1e-12 * np.maximum(1.0, offset + T)
    # per edge and source g, the images g + k tau - offset from the first one
    # at the edge's start (to within 1e-9 tau) on, max T / tau + 3 of them,
    # enough to pass every edge's end; only those strictly inside an edge
    # can add a node, since 0 and T_j are nodes already
    g = np.asarray(sources, dtype=float)
    k = np.maximum(np.ceil((offset[:, None] - g) / tau - 1e-9), 0.0)[..., None]
    t = g[:, None] + (k + np.arange(int(T.max() / tau) + 3)) * tau - offset[:, None, None]
    hit = (t > 0.0) & (t < T[:, None, None])
    edge, t = np.nonzero(hit)[0], t[hit]

    # with 0, T - tau, T and the local points strictly inside, sorted per edge
    le, lp = np.asarray(local_points[0], dtype=int), np.asarray(local_points[1], dtype=float)
    inside = (lp > 0.0) & (lp < T[le])
    ids = np.concatenate([np.tile(np.arange(m), 3), edge, le[inside]])
    pts = np.concatenate([np.zeros(m), T - tau, T, t, lp[inside]])
    order = np.lexsort((pts, ids))
    ids, pts = ids[order], pts[order]
    keep = np.append(True, (ids[1:] != ids[:-1]) | (np.diff(pts) > tol[ids[1:]]))
    ids, pts = ids[keep], pts[keep]

    # every gap between kept points cut into equal elements no wider than tau/q
    gap = np.flatnonzero(ids[1:] == ids[:-1])
    a, width = pts[gap], pts[gap + 1] - pts[gap]
    nseg = np.maximum(1, np.ceil(width / (tau / q) - 1e-9)).astype(int)
    at = np.repeat(np.arange(len(gap)), nseg)
    i = np.arange(len(at)) - np.repeat(np.cumsum(nseg) - nseg, nseg) + 1
    offsets = np.append(0, np.cumsum(np.bincount(ids[gap], weights=nseg, minlength=m))).astype(int)
    nodes = a[at] + width[at] * i / nseg[at]  # every node but the edges' first ones
    nodes[offsets[1:] - 1] = T
    nodes = np.insert(nodes, offsets[:-1], 0.0)
    return DelayMesh(tree, float(tau), int(q), EdgePieces(nodes, offsets)).check()


class Basis:
    """Nodal Hermite basis of the constrained perturbation space.

    Degrees of freedom are the derivatives ``0..n-1`` at the free mesh
    nodes.  A node is shared between an edge end and the starts of all its
    child edges (that is what keeps the space conforming across vertices);
    it is not free when it is the start of the root edge, whose values the
    history fixes, or when it lies in the resting tail ``[T_j - tau, T_j]``
    of a boundary edge.

    The mesh's element table (:attr:`DelayMesh.elements`) describes the
    whole tree: edge ``j`` holds its element ids ``offsets[j-1]:offsets[j]``
    and element ``e`` starts at its ``left[e]``, in the edge's coordinate.
    ``shapes[e]`` is the element's ``2n x 2n`` shape matrix (see
    :func:`_hermite_shapes`) and ``rows[e]`` holds the ``2n`` indices of its
    left then right nodal data: a DOF below ``ndof``, the root start's known
    values ``ndof .. ndof+n-1``, or -1 in a resting tail.  Node ``e + 1`` is
    the right end of element ``e``, and an edge's first left end is its
    parent's last right end (node 0, the root start, for the root edge).
    """

    def __init__(self, mesh: DelayMesh, n: int):
        if n < 1:
            raise MeshError("order must be >= 1")
        self.mesh = mesh
        self.n = n
        tree, el = mesh.tree, mesh.elements
        E, T, par = len(el.edge), np.asarray(tree.lengths), np.asarray(tree.parent)
        tail_from = T - mesh.tau - 1e-9 * np.maximum(1.0, T)

        # per node: free unless it is the root start or in a boundary edge's tail
        right = el.breaks[np.arange(E) + el.edge + 1]
        free = np.append(False, (el.edge < tree.d) | (right < tail_from[el.edge]))
        self.ndof = n * int(free.sum())
        first_dof = np.where(free, n * (np.cumsum(free) - 1), -1)  # per node: DOF of derivative 0
        first_dof[0] = self.ndof
        left_node = np.arange(E)
        left_node[el.offsets[:-1]] = el.offsets[par]
        d = first_dof[np.stack([left_node, np.arange(1, E + 1)], 1)][..., None]
        self.rows = np.where(d >= 0, d + np.arange(n), -1).reshape(E, 2 * n)
        self.shapes = _hermite_shapes(n, el.h)

    def locate(self, edge, t: np.ndarray):
        """Tree-wide element ids and local coordinates of the times ``t`` on
        the lead-ins of the 0-based ``edge`` (one per time, or one for all),
        found by one :func:`~treedamp.piecewise._find`; a time in ``[-tau,
        0)`` lands in the parent's tail and is measured from the element's
        left node there.  A 2-D ``t`` holds one row of times per element
        sought, found by the row's first time: one id per row."""
        (lead, src, shift), left = self.mesh.lead_ins, self.mesh.elements.left
        t = np.asarray(t, dtype=float)
        first = t[:, 0] if t.ndim == 2 else t
        i = _find(lead, left[src] - shift, np.broadcast_to(edge, first.shape), first)
        at = i[:, None] if t.ndim == 2 else i
        return src[i], t + shift[at] - left[src[at]]

    def tree_function(self, dofs: np.ndarray, phi: PiecewisePoly | None = None) -> TreeFunction:
        """Member of the discrete space with the given DOF vector, on the
        mesh's elements.  With ``phi`` (on ``[-tau, 0]``) the root start
        carries its ``n`` end derivatives and the history is ``phi``;
        without it both are zero."""
        dofs = np.asarray(dofs, dtype=complex)
        if dofs.shape != (self.ndof,):
            raise ValueError(f"expected {self.ndof} degrees of freedom")
        n = self.n
        phi = PiecewisePoly.zero(-self.mesh.tau, 0.0) if phi is None else phi
        start = [phi.left_limit(0.0, k) for k in range(n)]
        nodal = np.concatenate([dofs, start, [0.0]])[self.rows, None]  # index -1 reads the 0
        # a left and a right shape nearly cancel at high powers: adding each
        # such pair first keeps the cancellation exact
        coefs = (nodal[:, :n] * self.shapes[:, :n] + nodal[:, n:] * self.shapes[:, n:]).sum(axis=1)
        return TreeFunction(self.mesh.tree, n, EdgeFunctions(self.mesh.elements, coefs), phi)


def check_history(phi: PiecewisePoly, tau: float) -> None:
    """Raise :class:`MeshError` unless ``phi`` lives on ``[-tau, 0]``."""
    a, b = phi.domain
    if abs(a + tau) > 1e-9 * max(1.0, tau) or abs(b) > 1e-12:
        raise MeshError(f"history domain [{a}, {b}] does not match [-{tau}, 0]")


def history_lift(mesh: DelayMesh, n: int, phi: PiecewisePoly) -> TreeFunction:
    """The member of the discrete space with history ``phi`` and zero DOFs:
    on the root edge's first element, the Hermite polynomial with ``phi``'s
    end derivatives at the left node, and zero from the next node on."""
    check_history(phi, mesh.tau)
    basis = Basis(mesh, n)
    return basis.tree_function(np.zeros(basis.ndof), phi)
