"""Delay-aligned meshes and the constrained Hermite trial space.

The minimisation runs over perturbations that vanish on the history window,
match derivatives up to order ``n-1`` across vertices, and rest on the final
delay window of every boundary edge.  The discrete subspace uses Hermite
elements of degree ``2n-1`` (value and first ``n-1`` derivatives shared at
the nodes), on meshes whose nodes contain every delay-wavefront image of the
initial instant, so that the kinks the stepping structure creates sit on
element boundaries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .expressions import TreeFunction
from .piecewise import PiecewisePoly, derivative_powers, merge_breaks
from .trees import Tree


class MeshError(ValueError):
    pass


def _hermite_shapes(n: int, h: float) -> tuple:
    """Shape functions for one element of width ``h``.

    Returns ``(left, right)``: arrays of shape ``(n, 2n)`` whose row ``k``
    holds the coefficients (ascending powers of the scaled local variable
    ``s / h``) of the function with ``k``-th derivative 1 at the matching
    end and all other nodal data zero.  Coefficients are returned already
    rescaled to the unscaled local variable ``s``.
    """
    N = 2 * n
    # conditions in the scaled variable sigma = s/h: derivatives 0..n-1 at
    # sigma = 0 (rows 0..n-1), then at sigma = 1 (rows n..2n-1)
    ends = np.array([derivative_powers([0.0, 1.0], k, N) for k in range(n)])
    M = ends.transpose(1, 0, 2).reshape(N, N)
    X = np.linalg.solve(M, np.eye(N))
    scale = h ** np.arange(N)
    left = np.empty((n, N))
    right = np.empty((n, N))
    for k in range(n):
        left[k] = X[:, k] / scale * h**k
        right[k] = X[:, n + k] / scale * h**k
    return left, right


@dataclass(frozen=True)
class DelayMesh:
    """Per-edge node sets aligned with the delay stepping structure.

    ``nodes[j-1]`` is the sorted node array of edge ``j`` (first entry 0,
    last entry ``T_j``).  ``wavefronts[j-1]`` lists the nodes that are
    forward images of a propagation source, measured along the path from
    the root."""

    tree: Tree
    tau: float
    q: int
    nodes: tuple
    wavefronts: tuple

    def elements(self, j: int):
        xs = self.nodes[j - 1]
        return zip(xs[:-1], xs[1:])

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


def build_mesh(
    tree: Tree,
    tau: float,
    q: int,
    sources=(0.0,),
    local_points: dict | None = None,
) -> DelayMesh:
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
    all_fronts = []
    for j in range(1, tree.m + 1):
        Tj = tree.length(j)
        offset = tree.depth_offset(j)
        tol = 1e-12 * max(1.0, offset + Tj)
        fronts = set()
        for g in sources:
            k0 = math.ceil((offset - g) / tau - 1e-9)
            k = max(k0, 0)
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
        all_fronts.append(tuple(sorted(fronts)))
    return DelayMesh(tree, float(tau), int(q), tuple(all_nodes), tuple(all_fronts)).check()


class Basis:
    """Nodal Hermite basis of the constrained perturbation space.

    Degrees of freedom are the derivatives ``0..n-1`` at the free mesh
    nodes.  A node is shared between an edge end and the starts of all its
    child edges (that is what keeps the space conforming across vertices);
    it is dropped when it is the start of the root edge or when it lies in
    the resting tail ``[T_j - tau, T_j]`` of a boundary edge.
    """

    def __init__(self, mesh: DelayMesh, n: int):
        if n < 1:
            raise MeshError("order must be >= 1")
        self.mesh = mesh
        self.n = n
        tree = mesh.tree

        gid = []  # per edge: global node id for each local node
        positions = []  # per gid: (edge, local t) of the defining occurrence
        free = []
        for j in range(1, tree.m + 1):
            xs = mesh.nodes[j - 1]
            ids = np.empty(len(xs), dtype=int)
            if j == 1:
                start = len(positions)
                positions.append((1, 0.0))
                ids[0] = start
                free.append(False)  # history side of the root vertex is clamped
            else:
                parent = tree.parent_of(j)
                ids[0] = gid[parent - 1][-1]
            Tj = tree.length(j)
            tail_from = Tj - mesh.tau - 1e-9 * max(1.0, Tj)
            for i, t in enumerate(xs[1:], start=1):
                ids[i] = len(positions)
                positions.append((j, float(t)))
                free.append(not (tree.is_boundary(j) and t >= tail_from))
            gid.append(ids)

        self.node_gid = gid
        self.node_positions = positions
        self.free_mask = np.array(free)
        self.free_nodes = np.nonzero(self.free_mask)[0]
        self._dof_of_node = {g: i for i, g in enumerate(self.free_nodes)}
        self._shape_cache: dict = {}

    @property
    def ndof(self) -> int:
        return self.n * len(self.free_nodes)

    def dof_index(self, node_gid: int, k: int) -> int | None:
        """Flat DOF index of derivative ``k`` at a global node, None if clamped."""
        i = self._dof_of_node.get(node_gid)
        return None if i is None else i * self.n + k

    def _shapes(self, h: float):
        key = round(h, 14)
        if key not in self._shape_cache:
            self._shape_cache[key] = _hermite_shapes(self.n, h)
        return self._shape_cache[key]

    def tree_function(self, dofs: np.ndarray) -> TreeFunction:
        """Member of the discrete space with the given DOF vector."""
        dofs = np.asarray(dofs, dtype=complex)
        if dofs.shape != (self.ndof,):
            raise ValueError(f"expected {self.ndof} degrees of freedom")
        tree = self.mesh.tree
        n = self.n

        def nodal(gid_, k):
            p = self.dof_index(gid_, k)
            return 0.0 + 0.0j if p is None else dofs[p]

        comps = []
        for j in range(1, tree.m + 1):
            xs = self.mesh.nodes[j - 1]
            ids = self.node_gid[j - 1]
            coefs = []
            for i in range(len(xs) - 1):
                h = xs[i + 1] - xs[i]
                left, right = self._shapes(h)
                c = np.zeros(2 * n, dtype=complex)
                for k in range(n):
                    c += nodal(ids[i], k) * left[k] + nodal(ids[i + 1], k) * right[k]
                coefs.append(c)
            comps.append(PiecewisePoly(xs, coefs))
        return TreeFunction(tree, n, tuple(comps), PiecewisePoly.zero(-self.mesh.tau, 0.0))

    def unit(self, p: int) -> TreeFunction:
        e = np.zeros(self.ndof, dtype=complex)
        e[p] = 1.0
        return self.tree_function(e)

    def interpolate(self, y: TreeFunction) -> np.ndarray:
        """Nodal DOF vector sampling ``y`` (clamped nodes are ignored)."""
        out = np.zeros(self.ndof, dtype=complex)
        for i, g in enumerate(self.free_nodes):
            j, t = self.node_positions[g]
            for k in range(self.n):
                # take the limit from inside the edge that owns the node
                Tj = self.mesh.tree.length(j)
                if t >= Tj - 1e-12 * max(1.0, Tj):
                    out[i * self.n + k] = y.component(j).left_limit(t, k)
                else:
                    out[i * self.n + k] = y.component(j).right_limit(t, k)
        return out


def history_lift(mesh: DelayMesh, n: int, phi: PiecewisePoly) -> TreeFunction:
    """Extend the history into the tree with minimal footprint.

    The lift equals ``phi`` on the history window, blends along the root
    edge with the Hermite polynomial of degree ``2n-1`` that matches the
    ``n`` one-sided end derivatives of ``phi`` and dies (with ``n-1``
    derivatives) at ``T_1 - tau``, and is zero beyond.  Adding any member of
    the constrained space keeps the history and initial data intact, so the
    discrete minimisation runs over ``lift + span(basis)``.
    """
    tree = mesh.tree
    tau = mesh.tau
    a, b_ = phi.domain
    if abs(a + tau) > 1e-9 * max(1.0, tau) or abs(b_) > 1e-12:
        raise MeshError(f"history domain [{a}, {b_}] does not match [-{tau}, 0]")
    T1 = tree.length(1)
    L = T1 - tau
    left, _right = _hermite_shapes(n, L)
    c = np.zeros(2 * n, dtype=complex)
    for k in range(n):
        c += phi.left_limit(0.0, k) * left[k]
    blend = PiecewisePoly.single(0.0, L, c)
    comp1 = blend.concat(PiecewisePoly.zero(L, T1))
    comps = [comp1]
    for j in range(2, tree.m + 1):
        comps.append(PiecewisePoly.zero(0.0, tree.length(j)))
    return TreeFunction(tree, n, tuple(comps), phi)


def admissibility_report(y: TreeFunction, tau: float) -> dict:
    """Tolerance-style report on membership in the perturbation space.

    Keys: ``history`` (L2 norm of the history), ``start`` (largest initial
    derivative on the root edge), ``vertex`` (largest cross-vertex
    mismatch), ``tails`` (largest L2 norm over a boundary resting window),
    ``smoothness`` (largest sub-order jump inside an edge).  All zero, up
    to roundoff, exactly for admissible perturbations.
    """
    tree = y.tree
    tails = 0.0
    for j in range(tree.d + 1, tree.m + 1):
        Tj = tree.length(j)
        tails = max(tails, math.sqrt(y.component(j).restrict(Tj - tau, Tj).l2_norm_sq()))
    start = max(abs(y.component(1).right_limit(0.0, k)) for k in range(y.n))
    return {
        "history": math.sqrt(y.history.l2_norm_sq()),
        "start": start,
        "vertex": y.vertex_defect(),
        "tails": tails,
        "smoothness": y.smoothness_defect(),
    }


def is_admissible(y: TreeFunction, tau: float, tol: float = 1e-9) -> bool:
    return max(admissibility_report(y, tau).values()) <= tol
