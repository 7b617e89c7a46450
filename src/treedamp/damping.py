"""Energy-optimal damping by constrained quadratic minimisation.

The optimal trajectory minimises the energy, the squared L2 norm of the
control ``L y``, over the discrete space with the given history.  Its free
nodal data ``x`` solve the normal equations ``G x = f``, with ``G`` the
Gram matrix of the energy product on basis pairs (Hermitian positive
definite whenever the leading coefficients stay away from zero) and ``f``
driven by the history.

Assembly runs on the whole tree at once.  One sort builds every edge's
Gauss cells, which refine the element nodes, the coefficient breakpoints
and, where a delayed term is present, the lead-in nodes and the history's
breaks shifted by ``tau``, so the quadrature is exact.  One read of the
coefficient table gives every ``b_k`` and ``c_k`` at every Gauss point.
There the operator row of the basis sums the ``2n`` Hermite shapes of the
element holding ``t``, weighted by the ``b_k``, and of the element of the
edge's lead-in holding ``t - tau``, weighted by the ``c_k``: two lookups
(:meth:`~treedamp.meshing.Basis.locate`), whose values become
entries of ``L`` in the rows of their DOFs.  The root start's ``n`` values,
which the history fixes, have rows after the DOFs; only the root edge's
reads before ``tau`` go to the history itself.

With ``W`` the Gauss weights, ``G = conj(L) W L^T`` is one sparse product.
SuperLU factors it with symmetric pivoting, whose pivots are the
definiteness test, and steps of the corrected seminormal equations (Bjorck
1987) with the same factor recover the accuracy that forming ``G`` squared
away.  :func:`optimality_check` then measures the first variation of the
solution on the assembly grid.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from .expressions import CoefficientSet, TreeFunction, operator_components
from .meshing import Basis, DelayMesh, build_mesh, check_history
from .piecewise import EdgePieces, PiecewisePoly, _find, _poly_val, derivative_powers
from .trees import Tree


class IndefiniteGramError(np.linalg.LinAlgError):
    """The Gram matrix failed the positive-definite factorisation.

    The message reports the pivot ratio of the factor, a condition estimate
    (from the extreme eigenvalues up to ``EIGEN_REPORT_NDOF`` unknowns) and
    the smallest element width: a leading coefficient near zero and a sliver
    element both make the energy form degenerate."""


# Largest number of unknowns for which a failed factorisation also reports
# the extreme eigenvalues of the Gram matrix, from a dense copy.
EIGEN_REPORT_NDOF = 1000

# A pivot whose imaginary part exceeds this fraction of the largest pivot is
# not the real pivot of a Hermitian matrix.
PIVOT_IMAG_RTOL = 1e-8

# Corrected seminormal steps run while each correction is less than half the
# one before; a sequence still contracting after this many steps is an error.
CSNE_MAX_STEPS = 10


class _Stored:
    """``nbytes`` of a compressed sparse array: the bytes it stores."""

    @property
    def nbytes(self) -> int:
        return self.data.nbytes + self.indices.nbytes + self.indptr.nbytes


class SparseCSR(_Stored, scipy.sparse.csr_array):
    pass


class SparseCSC(_Stored, scipy.sparse.csc_array):
    pass


@dataclass
class GramSystem:
    """Normal equations of the discrete minimisation.

    ``basis_values`` is the sparse ndof x nquad table of ``L w_p`` at the
    Gauss points (``points``, on the 0-based edges ``edge``, flat in edge
    order, with ``weights``) and ``lift_values`` is the image of the
    history's zero-DOF member there (:func:`~treedamp.meshing.history_lift`).
    ``matrix`` is the sparse Gram matrix ``conj(L) W L^T``: ``matrix[p, r]``
    is the energy product of basis function ``r`` against basis function
    ``p``; ``rhs`` is minus the product of that member against each one.
    """

    matrix: SparseCSC
    rhs: np.ndarray
    basis: Basis
    points: np.ndarray
    edge: np.ndarray
    weights: np.ndarray
    basis_values: SparseCSR
    lift_values: np.ndarray

    def products(self, values: np.ndarray) -> np.ndarray:
        """``conj(L) W values``: the energy product of a function, given by
        its values at the Gauss points, against every basis function."""
        return (self.basis_values @ (self.weights * values).conj()).conj()

    def hermiticity_defect(self) -> float:
        defect = self.matrix - self.matrix.conj().T
        return float(np.max(np.abs(defect.data), initial=0.0))

    def _indefinite(self, reason: str, pivots=None) -> IndefiniteGramError:
        ndof = self.matrix.shape[0]
        parts = [f"Gram matrix is not positive definite: {reason}"]
        cond = np.inf
        if pivots is not None:
            size = np.abs(pivots)
            cond = size.max() / size.min() if size.min() > 0 else np.inf
            parts.append(f"pivot ratio {cond:.3e}")
        if ndof <= EIGEN_REPORT_NDOF:
            eig = np.linalg.eigvalsh(self.matrix.toarray())
            lo, hi = abs(eig[0]), abs(eig[-1])
            cond = hi / lo if lo > 0 else np.inf
            parts.append(f"eigenvalues from {eig[0]:.3e} to {eig[-1]:.3e}")
        parts.append(f"condition estimate {cond:.3e}, smallest element width "
                     f"h_min = {self.basis.mesh.min_width():.3e}; a leading coefficient "
                     "near zero or a sliver element makes the energy form degenerate")
        return IndefiniteGramError(", ".join(parts))

    def solve(self) -> np.ndarray:
        """The minimiser of the discrete energy over the perturbation space.

        One sparse LU factorisation, with a fill-reducing ordering applied to
        rows and columns alike and every pivot taken on the diagonal: for a
        Hermitian positive definite ``G`` the pivots are real and positive,
        so they are the definiteness test.  Steps of the corrected
        seminormal equations then recover the accuracy that forming ``G``
        squared away: the residual ``L phi + L^T x`` at the Gauss points
        feeds one more solve with the same factor.  The steps stop at the
        first correction that is not below half the previous one, which is
        the roundoff floor, and is not applied; still contracting after
        ``CSNE_MAX_STEPS`` steps raises ``LinAlgError``.
        """
        if self.matrix.shape[0] == 0:
            # fully clamped space: the history's zero-DOF member is the only candidate
            return np.zeros(0, dtype=complex)
        try:
            lu = scipy.sparse.linalg.splu(self.matrix, permc_spec="MMD_AT_PLUS_A",
                                          diag_pivot_thresh=0.0,
                                          options={"SymmetricMode": True})
        except RuntimeError as exc:  # SuperLU: the factor is exactly singular
            raise self._indefinite("the factor is singular") from exc
        piv = lu.U.diagonal()
        if not np.array_equal(lu.perm_r, lu.perm_c):
            raise self._indefinite("a zero pivot forced an off-diagonal one", piv)
        if np.any(piv.real <= 0.0) or np.any(np.abs(piv.imag) > PIVOT_IMAG_RTOL * np.abs(piv).max()):
            raise self._indefinite("a pivot is not real and positive", piv)
        x = lu.solve(self.rhs)
        size = np.inf
        for _ in range(CSNE_MAX_STEPS):
            dx = lu.solve(-self.products(self.lift_values + self.basis_values.T @ x))
            prev, size = size, np.linalg.norm(dx)
            if not size < prev / 2:
                return x
            x += dx
        ratio = np.abs(piv).max() / np.abs(piv).min()
        raise np.linalg.LinAlgError(
            f"corrected seminormal steps still contracting after {CSNE_MAX_STEPS}: pivot "
            f"ratio {ratio:.3e}, last relative correction {size / np.linalg.norm(x):.3e}")


def _operator_rows(basis: Basis, cols: np.ndarray, ids: np.ndarray, s: np.ndarray, a: np.ndarray):
    """COO triples ``(rows, cols, values)`` of ``sum_k a[k] d^k/dt^k``
    applied to the shapes of element ``ids`` at local coordinate ``s``, one
    row per free DOF of the element and column ``cols`` per point."""
    deg = basis.shapes.shape[-1]
    mono = np.zeros((len(s), deg), dtype=complex)
    for k, ak in enumerate(a):
        mono += derivative_powers(s, k, deg, ak)
    vals = np.einsum("pi,psi->ps", mono, basis.shapes[ids])
    rows = basis.rows[ids]
    free = rows >= 0
    return rows[free], np.broadcast_to(cols[:, None], rows.shape)[free], vals[free]


def assemble(basis: Basis, phi: PiecewisePoly, coeffs: CoefficientSet) -> GramSystem:
    """Build the Gram system on the given basis for the history ``phi``.

    ``phi`` enters as the root start's nodal data (its end derivatives) and
    through the root edge's delayed reads before ``tau``.  The Gauss grid
    carries one point more than the largest integrand degree per cell, so
    every entry is integrated exactly.
    """
    mesh, n, ndof, tau = basis.mesh, basis.n, basis.ndof, coeffs.tau
    el, present, (_, fam_edge, fam_breaks) = mesh.elements, coeffs.present, coeffs._families.breaks
    delayed = present[n + 1 :].any(axis=0)  # per edge: a delayed term is present
    heads = phi.breaks[: len(phi.breaks) * delayed[0]] + tau  # none without a delayed term
    lead, src, shift = mesh.lead_ins
    late = delayed[lead]
    # the cells refine the nodes, the coefficients' breaks and the delayed reads' ones
    cells = EdgePieces.merged(
        np.concatenate([el.break_edge, fam_edge, lead[late], np.zeros(len(heads), dtype=int)]),
        np.concatenate([el.breaks, fam_breaks, (el.left[src] - shift)[late] + tau, heads]),
        np.zeros(el.m), np.asarray(mesh.tree.lengths))
    degree = coeffs._families.widths - 1 - np.tile(np.arange(n + 1), 2)[:, None]
    max_deg = max((degree + 2 * n - 1)[present].max(initial=0),
                  (degree[n + 1 :, 0] + phi.max_degree)[present[n + 1 :, 0]].max(initial=0))

    gx, gw = np.polynomial.legendre.leggauss(max_deg + 1)
    t = (cells.left[:, None] + 0.5 * cells.h[:, None] * (gx + 1.0)).ravel()
    weights = (0.5 * cells.h[:, None] * gw).ravel()
    edge = cells.edge.repeat(len(gx))
    cols = np.arange(len(t))
    a = coeffs.values(edge, t)  # b_0..b_n, then c_0..c_n
    td = t - tau
    history = delayed[edge] & (edge == 0) & (td < 0.0)  # the root edge reads phi before tau
    late = delayed[edge] & ~history
    Lphi = np.zeros(len(t), dtype=complex)
    Lphi[history] = sum(c[history] * phi.values(td[history], k) for k, c in enumerate(a[n + 1 :]))
    triples = (_operator_rows(basis, cols, *basis.locate(edge, t), a[: n + 1]),
               _operator_rows(basis, cols[late], *basis.locate(edge[late], td[late]), a[n + 1 :, late]))
    rows, cols, vals = (np.concatenate(part) for part in zip(*triples))
    # a point's delayed read may reach DOFs its own element holds: the
    # conversion from triples sums such duplicates
    L = SparseCSR((vals, (rows, cols)), shape=(ndof + n, len(weights)))
    Lphi += L[ndof:].T @ np.array([phi.left_limit(0.0, k) for k in range(n)])
    L = L[:ndof]
    Lw = L.conj()
    Lw.data *= weights[Lw.indices]
    # G = Lw L^T; its transpose L Lw^T, formed as CSR, stores G as CSC
    Gt = L @ Lw.T
    G = SparseCSC((Gt.data, Gt.indices, Gt.indptr), shape=Gt.shape)
    return GramSystem(matrix=G, rhs=-(Lw @ Lphi), basis=basis, points=t, edge=edge,
                      weights=weights, basis_values=L, lift_values=Lphi)


@dataclass
class DampingSolution:
    """Output of :func:`solve_damping`.

    ``control`` holds the per-edge control ``L_j y`` at index ``j - 1``."""

    y: TreeFunction
    control: tuple
    energy: float
    dofs: np.ndarray
    basis: Basis
    gram: GramSystem
    coeffs: CoefficientSet

    @property
    def mesh(self) -> DelayMesh:
        return self.basis.mesh


def default_mesh(tree: Tree, coeffs: CoefficientSet, q: int) -> DelayMesh:
    """Mesh used by the solvers: wavefronts from the initial instant and
    from every branching vertex, coefficient breakpoints pinned to nodes."""
    ends = (tree.offsets + tree.lengths)[: tree.d]  # the branching vertices' times
    sources = tuple(np.unique(np.append(0.0, ends)).tolist())
    return build_mesh(tree, coeffs.tau, q, sources=sources, local_points=coeffs.breakpoints())


def solve_damping(tree: Tree, coeffs: CoefficientSet, phi: PiecewisePoly,
                  q: int = 8) -> DampingSolution:
    """Minimise the control cost subject to history and rest constraints.

    The trajectory is the member of the constrained Hermite space with
    history ``phi`` whose free nodal data solve the Gram system; the
    induced control is the edge operator applied to the trajectory, and the
    reported energy is its squared norm.  A solution whose energy is not
    finite (the trajectory or the control overflowed) raises
    :class:`numpy.linalg.LinAlgError`.
    """
    for j in range(tree.d + 1, tree.m + 1):
        if tree.length(j) < 2 * coeffs.tau:
            warnings.warn(f"boundary edge {j} is shorter than two delay spans; the rest window "
                          "consumes most of it and the problem may be stiff", stacklevel=2)
    mesh = default_mesh(tree, coeffs, q)
    basis = Basis(mesh, coeffs.n)
    check_history(phi, coeffs.tau)
    gram = assemble(basis, phi, coeffs)
    x = gram.solve()
    y = basis.tree_function(x, phi)
    u = tuple(operator_components(y, coeffs))
    pieces, table = EdgePieces.of(u)
    energy = sum(pieces.norms_sq(table).tolist())
    if not math.isfinite(energy):  # an overflow in y reaches u through b_n y^(n)
        raise np.linalg.LinAlgError(f"the optimal trajectory overflowed: its energy is {energy}")
    return DampingSolution(y=y, control=u, energy=energy, dofs=x, basis=basis, gram=gram,
                           coeffs=coeffs)


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
    pieces, table = EdgePieces.of(sol.control)
    at = _find(pieces.edge, pieces.left, gram.edge, gram.points)
    resid = gram.products(_poly_val(table[at], gram.points - pieces.left[at]))
    norms = np.sqrt(np.abs(gram.matrix.diagonal().real))
    ynorm = np.sqrt(max(sol.energy, 0.0))
    scale = norms * ynorm
    rel = np.abs(resid) / np.where(scale > 0, scale, 1.0)
    return {
        "max_abs": float(np.max(np.abs(resid))),
        "max_rel": float(np.max(rel)),
        "per_basis": resid,
    }
