"""Energy-optimal damping by constrained quadratic minimisation.

The optimal trajectory minimises the energy, the squared L2 norm of the
control ``L y``, over ``lift + V_h`` where ``V_h`` is the discrete
perturbation space; equivalently it solves the normal equations
``G x = f`` with the Gram matrix of the energy product on basis pairs and
the right side driven by the history lift.  ``G`` is Hermitian positive
definite whenever the leading coefficients stay away from zero, so the
solve is a single Cholesky factorisation; :func:`optimality_check` then
measures the first variation of the solution on the assembly grid.

Assembly works element by element on the shape and DOF-row tables of
:class:`~treedamp.meshing.Basis`.  At every Gauss point of an edge the
operator row of the basis is the sum of the ``2n`` Hermite shapes of the
element holding ``t`` (weighted by the ``b_k``) and of the element holding
``t - tau`` (weighted by the ``c_k``), which sits on the same edge or on the
parent's tail; those at most ``4n`` values are scattered into the rows of
the DOFs they belong to.  Gauss cells refine every element node, its
``tau``-shift and every coefficient breakpoint, so the integrands are
polynomials on each cell and the quadrature is exact.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .expressions import CoefficientSet, TreeFunction, operator_components
from .meshing import Basis, DelayMesh, build_mesh, history_lift
from .piecewise import PiecewisePoly, derivative_powers, merge_breaks
from .trees import Tree


class IndefiniteGramError(np.linalg.LinAlgError):
    """The Gram matrix failed the positive-definite factorisation.

    The message reports the extreme eigenvalues of the matrix, a condition
    estimate and the smallest element width: a leading coefficient near zero
    and a sliver element both make the energy form degenerate."""


@dataclass
class GramSystem:
    """Normal equations of the discrete minimisation.

    ``matrix[p, r]`` is the energy product of basis function ``r`` against
    basis function ``p``; ``rhs[p]`` is minus the product of the lift
    against basis function ``p``.  The Gauss grid (``points`` per edge,
    ``weights`` flat over all edges in edge order) and the basis-image values
    are kept for reuse by the optimality diagnostics.
    """

    matrix: np.ndarray
    rhs: np.ndarray
    basis: Basis
    points: list
    weights: np.ndarray
    basis_values: np.ndarray  # ndof x nquad values of L w_p

    def hermiticity_defect(self) -> float:
        return float(np.max(np.abs(self.matrix - self.matrix.conj().T)))

    def solve(self) -> np.ndarray:
        if self.matrix.size == 0:
            # fully clamped space: the lift is the only candidate
            return np.zeros(0, dtype=complex)
        try:
            cf = scipy.linalg.cho_factor(self.matrix, lower=False)
        except np.linalg.LinAlgError as exc:
            eig = scipy.linalg.eigvalsh(self.matrix)
            lo, hi = abs(eig[0]), abs(eig[-1])
            cond = hi / lo if lo > 0 else np.inf
            raise IndefiniteGramError(
                f"Gram matrix is not positive definite: eigenvalues from {eig[0]:.3e} "
                f"to {eig[-1]:.3e}, condition estimate {cond:.3e}, smallest element "
                f"width h_min = {self.basis.mesh.min_width():.3e}; a leading coefficient "
                "near zero or a sliver element makes the energy form degenerate"
            ) from exc
        return scipy.linalg.cho_solve(cf, self.rhs)


def _add_rows(L: np.ndarray, basis: Basis, j: int, cols: np.ndarray, t: np.ndarray,
              weights: list) -> None:
    """Add ``sum_k a_k(t) d^k/dt^k`` of the shapes of the element of edge
    ``j`` holding each ``t`` into the free DOF rows of column ``cols`` of
    ``L``, for ``weights = [(k, a_k(t)), ...]``."""
    nodes = basis.mesh.nodes[j - 1]
    shapes = basis.shapes[j - 1]
    e = np.clip(np.searchsorted(nodes, t, side="right") - 1, 0, len(shapes) - 1)
    s = t - nodes[e]
    deg = shapes.shape[-1]
    mono = np.zeros((len(t), deg), dtype=complex)
    for k, a in weights:
        mono += derivative_powers(s, k, deg, a)
    vals = np.einsum("pi,psi->ps", mono, shapes[e])
    rows = basis.rows[j - 1][e]
    free = rows >= 0
    # the rows of one point are distinct DOFs, so the fancy += adds each once
    L[rows[free], np.broadcast_to(cols[:, None], rows.shape)[free]] += vals[free]


def assemble(basis: Basis, lift: TreeFunction, coeffs: CoefficientSet) -> GramSystem:
    """Build the Gram system on the given basis around the given lift.

    The Gauss grid carries one point more than the largest integrand degree
    per cell, so every entry is integrated exactly.
    """
    tree = basis.mesh.tree
    nodes = basis.mesh.nodes
    tau = coeffs.tau
    top = 2 * basis.n - 1  # degree of the Hermite shapes
    lift_ell = operator_components(lift, coeffs)
    terms = [coeffs.terms(j) for j in range(1, tree.m + 1)]

    cells = []
    max_deg = max(p.max_degree for p in lift_ell)
    for j in range(1, tree.m + 1):
        sets = [nodes[j - 1], lift_ell[j - 1].breaks]
        for k, b, c in terms[j - 1]:
            for coef in (b, c):
                if coef is not None:
                    sets.append(coef.breaks)
                    max_deg = max(max_deg, coef.max_degree + top - k)
        if any(c is not None for _, _, c in terms[j - 1]):
            # delayed reads: own nodes shifted by tau, parent's tail moved to [0, tau]
            xs = nodes[j - 1]
            sets.append(np.append(xs[xs < tree.length(j) - tau] + tau, [0.0, tau]))
            if j > 1:
                par = nodes[tree.parent_of(j) - 1]
                Tp = tree.length(tree.parent_of(j))
                sets.append(par[par > Tp - tau] - Tp + tau)
        cells.append(merge_breaks(sets, 1e-12 * max(1.0, tree.length(j))))

    gx, gw = np.polynomial.legendre.leggauss(max_deg + 1)
    points = [(x[:-1, None] + 0.5 * np.diff(x)[:, None] * (gx + 1.0)).ravel() for x in cells]
    weights = np.concatenate([(0.5 * np.diff(x)[:, None] * gw).ravel() for x in cells])
    L = np.zeros((basis.ndof, len(weights)), dtype=complex)
    start = 0
    for j, t in enumerate(points, start=1):
        cols = start + np.arange(len(t))
        start += len(t)
        b_w = [(k, b.values(t)) for k, b, _ in terms[j - 1] if b is not None]
        _add_rows(L, basis, j, cols, t, b_w)
        c_w = [(k, c.values(t)) for k, _, c in terms[j - 1] if c is not None]
        if not c_w:
            continue
        td = t - tau
        own = td >= 0.0
        _add_rows(L, basis, j, cols[own], td[own], [(k, a[own]) for k, a in c_w])
        if j > 1:  # on the root edge the early delayed read is the (zero) history
            p = tree.parent_of(j)
            head = ~own
            _add_rows(L, basis, p, cols[head], td[head] + tree.length(p),
                      [(k, a[head]) for k, a in c_w])
    Lphi = np.concatenate([ell.values(t) for ell, t in zip(lift_ell, points)])
    Lw = L.conj()
    Lw *= weights[None, :]
    G = Lw @ L.T
    f = -(Lw @ Lphi)
    return GramSystem(matrix=G, rhs=f, basis=basis, points=points, weights=weights, basis_values=L)


@dataclass
class DampingSolution:
    """Output of :func:`solve_damping`.

    ``control`` holds the per-edge control ``L_j y`` at index ``j - 1``."""

    y: TreeFunction
    control: tuple
    energy: float
    dofs: np.ndarray
    basis: Basis
    lift: TreeFunction
    gram: GramSystem
    coeffs: CoefficientSet

    @property
    def mesh(self) -> DelayMesh:
        return self.basis.mesh


def default_mesh(tree: Tree, coeffs: CoefficientSet, q: int) -> DelayMesh:
    """Mesh used by the solvers: wavefronts from the initial instant and
    from every branching vertex, coefficient breakpoints pinned to nodes."""
    sources = {0.0}
    for j in range(1, tree.d + 1):
        sources.add(tree.depth_offset(j) + tree.length(j))
    local = {j: coeffs.breakpoints(j) for j in range(1, tree.m + 1)}
    return build_mesh(tree, coeffs.tau, q, sources=tuple(sorted(sources)), local_points=local)


def solve_damping(
    tree: Tree,
    coeffs: CoefficientSet,
    phi: PiecewisePoly,
    q: int = 8,
) -> DampingSolution:
    """Minimise the control cost subject to history and rest constraints.

    The trajectory is the history lift plus the Gram-system solution in the
    constrained Hermite space; the induced control is the edge operator
    applied to the trajectory, and the reported energy is its squared norm.
    """
    for j in range(tree.d + 1, tree.m + 1):
        if tree.length(j) < 2 * coeffs.tau:
            warnings.warn(
                f"boundary edge {j} is shorter than two delay spans; the rest "
                "window consumes most of it and the problem may be stiff",
                stacklevel=2,
            )
    mesh = default_mesh(tree, coeffs, q)
    basis = Basis(mesh, coeffs.n)
    lift = history_lift(mesh, coeffs.n, phi)
    gram = assemble(basis, lift, coeffs)
    x = gram.solve()
    y = lift + basis.tree_function(x)
    u = tuple(operator_components(y, coeffs))
    return DampingSolution(
        y=y,
        control=u,
        energy=sum(p.l2_norm_sq() for p in u),
        dofs=x,
        basis=basis,
        lift=lift,
        gram=gram,
        coeffs=coeffs,
    )


def optimality_check(sol: DampingSolution) -> dict:
    """First-variation residual of the solution against every basis function.

    Evaluates the energy product of the trajectory with each basis function
    on the assembly grid and reports the largest value, in absolute terms
    and relative to the natural scale (trajectory norm times basis-function
    norm).  At the discrete optimum, exact arithmetic would give zero.
    """
    if sol.basis.ndof == 0:
        return {"max_abs": 0.0, "max_rel": 0.0, "per_basis": np.zeros(0, dtype=complex)}
    gram = sol.gram
    u_vals = np.concatenate([u.values(t) for u, t in zip(sol.control, gram.points)])
    resid = (gram.basis_values.conj() * gram.weights[None, :]) @ u_vals
    norms = np.sqrt(np.abs(np.diag(gram.matrix).real))
    ynorm = np.sqrt(max(sol.energy, 0.0))
    scale = norms * ynorm
    rel = np.abs(resid) / np.where(scale > 0, scale, 1.0)
    return {
        "max_abs": float(np.max(np.abs(resid))),
        "max_rel": float(np.max(rel)),
        "per_basis": resid,
    }
