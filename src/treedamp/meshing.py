"""Delay-aligned meshes and the constrained Hermite trial space.

The trajectory lives in a conforming Hermite space: elements of degree
``2n-1`` whose value and first ``n-1`` derivatives are shared at the nodes,
on meshes whose nodes contain every delay-wavefront image of the initial
instant, so that the kinks the stepping structure creates sit on element
boundaries.  The history is an essential condition on that space, imposed
through the nodal data of the root start (``phi``'s ``n`` end derivatives);
the minimisation runs over the free nodal data, with every boundary edge
resting on its final delay window.

:class:`Basis` owns the element layer: one table of Hermite shapes and
nodal-data indices for the elements of the whole tree, and one table of
every edge's lead-in, where its delayed reads land, searched in one lookup
for any set of points.  Reconstruction (:meth:`Basis.tree_function`) and
Gram assembly read these tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .expressions import TreeFunction
from .piecewise import PiecewisePoly, _find, derivative_powers, merge_breaks
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
    """Per-edge node sets aligned with the delay stepping structure.

    ``nodes[j-1]`` is the sorted node array of edge ``j`` (first entry 0,
    last entry ``T_j``)."""

    tree: Tree
    tau: float
    q: int
    nodes: tuple

    def max_width(self) -> float:
        return max(float(np.max(np.diff(xs))) for xs in self.nodes)

    def min_width(self) -> float:
        return min(float(np.min(np.diff(xs))) for xs in self.nodes)

    def check(self):
        """Assert the structural invariants; returns self for chaining."""
        if self.max_width() > self.tau / self.q * (1 + 1e-9):
            raise MeshError("element width exceeds tau/q")
        for j in range(1, self.tree.m + 1):
            Tj = self.tree.length(j)
            xs = self.nodes[j - 1]
            tol = 1e-9 * max(1.0, Tj)
            for must in (0.0, Tj - self.tau, Tj):
                if np.min(np.abs(xs - must)) > tol:
                    raise MeshError(f"mandatory node {must} missing on edge {j}")
        return self


def build_mesh(tree: Tree, tau: float, q: int, sources=(0.0,),
               local_points: dict | None = None) -> DelayMesh:
    """Delay-aligned mesh with elements no wider than ``tau/q``.

    ``sources`` are global times (distance from the root along the path)
    whose forward images ``source + k*tau`` become nodes wherever they land;
    the default single source is the initial instant of the root edge.
    ``local_points`` maps an edge index to extra mandatory local nodes, used
    by the solvers to pin coefficient breakpoints onto element boundaries.
    """
    if q < 1 or int(q) != q:
        raise MeshError(f"refinement parameter must be a positive integer, got {q}")
    if not (0.0 < tau < min(tree.lengths)):
        raise MeshError(f"delay {tau} must lie in (0, min edge length)")

    all_nodes = []
    for j in range(1, tree.m + 1):
        Tj = tree.length(j)
        offset = tree.depth_offset(j)
        tol = 1e-12 * max(1.0, offset + Tj)
        fronts = set()
        for g in sources:
            k = max(math.ceil((offset - g) / tau - 1e-9), 0)
            while g + k * tau <= offset + Tj + tol:
                t = g + k * tau - offset
                if -tol <= t <= Tj + tol:
                    fronts.add(min(max(t, 0.0), Tj))
                k += 1
        mandatory = {0.0, Tj, Tj - tau} | fronts
        if local_points and j in local_points:
            mandatory |= {float(t) for t in local_points[j] if 0.0 < t < Tj}
        base = merge_breaks([sorted(mandatory)], tol)
        xs = [base[0]]
        hmax = tau / q
        for a, b in zip(base[:-1], base[1:]):
            nseg = max(1, math.ceil((b - a) / hmax - 1e-9))
            xs.extend(a + (b - a) * np.arange(1, nseg + 1) / nseg)
        xs = np.array(xs)
        xs[0], xs[-1] = 0.0, Tj
        all_nodes.append(xs)
    return DelayMesh(tree, float(tau), int(q), tuple(all_nodes)).check()


class Basis:
    """Nodal Hermite basis of the constrained perturbation space.

    Degrees of freedom are the derivatives ``0..n-1`` at the free mesh
    nodes.  A node is shared between an edge end and the starts of all its
    child edges (that is what keeps the space conforming across vertices);
    it is not free when it is the start of the root edge, whose values the
    history fixes, or when it lies in the resting tail ``[T_j - tau, T_j]``
    of a boundary edge.

    One element table describes the whole tree.  Elements are numbered
    edge by edge in canonical order, edge ``j`` holding ids
    ``offsets[j-1]:offsets[j]``.  Element ``e`` starts at ``left[e]`` in its
    edge's coordinate, ``shapes[e]`` is its ``2n x 2n`` shape matrix (see
    :func:`_hermite_shapes`) and ``rows[e]`` holds the ``2n`` indices of its
    left then right nodal data: a DOF below ``ndof``, the root start's known
    values ``ndof .. ndof+n-1``, or -1 in a resting tail.

    Edge ``j`` reads its delayed values from its lead-in on ``[-tau, T_j)``:
    the parent's tail elements moved to ``[-tau, 0]``, then its own.  The
    root edge's lead-in starts at 0; before that it reads the history.  All
    lead-ins form one table ordered by edge: its row ``r`` is an element of
    the 0-based edge ``lead_edge[r]``'s lead-in whose left node lies at
    ``lead_in[r]``, in that edge's coordinate.
    """

    def __init__(self, mesh: DelayMesh, n: int):
        if n < 1:
            raise MeshError("order must be >= 1")
        self.mesh = mesh
        self.n = n
        tree = mesh.tree

        gid = []  # per edge: global node id for each local node
        free = [False]  # per gid; the root start is known from the history
        for j in range(1, tree.m + 1):
            xs = mesh.nodes[j - 1]
            Tj = tree.length(j)
            tail_from = Tj - mesh.tau - 1e-9 * max(1.0, Tj)
            first = 0 if j == 1 else gid[tree.parent_of(j) - 1][-1]
            gid.append(np.append(first, len(free) + np.arange(len(xs) - 1)))
            free += [not (tree.is_boundary(j) and t >= tail_from) for t in xs[1:]]

        free = np.array(free)
        self.ndof = n * int(free.sum())
        first_dof = np.where(free, n * (np.cumsum(free) - 1), -1)  # per gid: DOF of derivative 0
        first_dof[0] = self.ndof
        d = first_dof[np.concatenate([np.stack([g[:-1], g[1:]], 1) for g in gid])][..., None]
        self.rows = np.where(d >= 0, d + np.arange(n), -1).reshape(len(d), 2 * n)
        self.offsets = np.cumsum([0] + [len(g) - 1 for g in gid])
        self.left = np.concatenate([xs[:-1] for xs in mesh.nodes])
        self.shapes = _hermite_shapes(n, np.concatenate([np.diff(xs) for xs in mesh.nodes]))

        # the lead-ins: on every edge but the root, the parent's tail
        # elements moved back by the parent's length; then the edge's own
        T = np.asarray(tree.lengths)
        par = np.array(tree.parent[1:], dtype=int) - 1  # the parents of edges 2..m, 0-based
        elem_edge = np.repeat(np.arange(tree.m), np.diff(self.offsets))
        in_tail = self.left >= (T - mesh.tau - 1e-9 * np.maximum(1.0, T))[elem_edge]
        size = np.bincount(elem_edge[in_tail], minlength=tree.m)[par]  # the tail each child reads
        tail = np.arange(size.sum()) + np.repeat(self.offsets[par + 1] - np.cumsum(size), size)
        edge = np.append(np.repeat(np.arange(1, tree.m), size), elem_edge)
        order = np.argsort(edge, kind="stable")
        self.lead_edge = edge[order]
        self._lead_ids = np.append(tail, np.arange(len(elem_edge)))[order]
        self._lead_shift = np.append(T[par].repeat(size), np.zeros(len(elem_edge)))[order]
        self.lead_in = self.left[self._lead_ids] - self._lead_shift

    def locate(self, edge, t: np.ndarray):
        """Tree-wide element ids and local coordinates of the times ``t`` on
        the lead-ins of the 0-based ``edge`` (one per time, or one for all),
        found by one :func:`~treedamp.piecewise._find`; a time in ``[-tau,
        0)`` lands in the parent's tail and is measured from the element's
        left node there."""
        t = np.asarray(t, dtype=float)
        i = _find(self.lead_edge, self.lead_in, np.broadcast_to(edge, t.shape), t)
        ids = self._lead_ids[i]
        return ids, t + self._lead_shift[i] - self.left[ids]

    def tree_function(self, dofs: np.ndarray, phi: PiecewisePoly | None = None) -> TreeFunction:
        """Member of the discrete space with the given DOF vector.  With
        ``phi`` (on ``[-tau, 0]``) the root start carries its ``n`` end
        derivatives and the history is ``phi``; without it both are zero."""
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
        comps = tuple(PiecewisePoly._of(xs, coefs[a:b])
                      for xs, a, b in zip(self.mesh.nodes, self.offsets, self.offsets[1:]))
        return TreeFunction(self.mesh.tree, n, comps, phi)


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
