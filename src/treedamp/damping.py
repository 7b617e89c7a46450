"""Energy-optimal damping by constrained quadratic minimisation.

The optimal trajectory minimises the energy, the squared L2 norm of the
control ``L y``, over the discrete space with the given history.  Its free
nodal data ``x`` solve the normal equations ``G x = f``, with ``G`` the
Gram matrix of the energy product on basis pairs (Hermitian positive
definite whenever the leading coefficients stay away from zero) and ``f``
driven by the history.

*Cell blocks.*  Assembly runs on the whole tree at once.  One sort builds
every edge's Gauss cells, which refine the element nodes, the coefficient
breakpoints and, where a delayed term is present, the lead-in nodes and the
history's breaks shifted by ``tau``, so the quadrature is exact and each
cell lies in one element and reads its delayed values from one lead-in
element (:meth:`~treedamp.meshing.Basis.locate`).  Every cell carries the
same Gauss-Legendre rule, one point more than the largest integrand degree,
from :func:`~treedamp.piecewise.gauss_legendre`, which computes it once
per point count.  One read of the coefficient table gives every ``b_k``
and ``c_k`` at every Gauss point.
There the operator row of the basis has ``4n`` slots: the ``2n`` Hermite
shapes of the cell's element, weighted by the ``b_k``, then the ``2n`` of
its lead-in element at ``t - tau``, weighted by the ``c_k``.  The slots
read the same DOF rows at every point of a cell, so with ``W`` the Gauss
weights, ``G = conj(L) W L^T`` is the scatter of one Hermitian ``4n x 4n``
block per cell, and every product with ``L`` is one batched product per
cell and one scatter.  The root start's ``n`` values, which the history
fixes, and the root edge's reads before ``tau`` go to the lift ``L phi``.

*Fronts along the tau-runs.*  Every delayed read lands on the edge itself,
at most ``tau`` back, or in its parent's tail, so the elimination tree of
``G`` is the tree of the edges' delay windows (Liu 1990), the greedy runs
of elements no longer than ``tau`` that :func:`~treedamp.cauchy.solve_cauchy`
sweeps too.  The factorisation is multifrontal (Duff & Reid 1983): the runs
are eliminated children before parents, deepest first and one batch per
depth, each from a dense front of its own DOFs and the earlier ones that
its cells and its descendants couple it to, which lie within about ``tau``
before it.  The fronts' Cholesky pivots are the definiteness test.  A
scaled pivot ``pivot_j / G_jj``, the share of DOF ``j``'s diagonal that the
elimination left, is free of the DOFs' scale and shows the digits lost; a
spread of ``1/eps`` or more is refused as numerically singular.

*Corrected seminormal steps* (Bjorck 1987) with the same factor recover the
accuracy that forming ``G`` squared away.  The solution's energy is
integrated on the same Gauss points (:meth:`GramSystem.energy`), and
:func:`optimality_check` measures its first variation there.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .expressions import CoefficientSet, TreeFunction, operator_components
from .meshing import Basis, DelayMesh, build_mesh, check_history
from .piecewise import (EdgePieces, PiecewisePoly, _find, _poly_val, _unique, derivative_powers,
                        gauss_legendre)
from .trees import Tree


class IndefiniteGramError(np.linalg.LinAlgError):
    """The Gram matrix failed the positive-definite factorisation, or its
    scaled pivots spread so far that it is numerically singular.

    The message reports the scaled pivot ratio, the largest over the
    smallest ``pivot_j / G_jj`` of the pivots formed, how many were formed,
    and the smallest element width: a leading coefficient near zero and a
    sliver element both make the energy form degenerate."""


# A factor whose largest scaled pivot is this many times its smallest one has
# lost every digit of the smallest: the system is numerically singular.
PIVOT_RATIO_MAX = 1.0 / np.finfo(float).eps

# Corrected seminormal steps run while each correction is less than half the
# one before; a sequence still contracting after this many steps is an error.
CSNE_MAX_STEPS = 10


def _scatter(at: np.ndarray, values: np.ndarray, size: int) -> np.ndarray:
    """The sums of ``values`` over their indices ``at``, a length-``size``
    complex vector; index ``size`` collects what belongs nowhere."""
    out = np.zeros(size + 1, dtype=complex)
    np.add.at(out, at.ravel(), values.ravel())
    return out[:size]


def _ragged(counts: np.ndarray) -> tuple:
    """Owner and index within the owner of ``counts.sum()`` entries laid out
    owner by owner."""
    owner = np.repeat(np.arange(len(counts)), counts)
    return owner, np.arange(len(owner)) - np.repeat(np.cumsum(counts) - counts, counts)


@dataclass
class CellBlocks:
    """The Gram matrix as the sum of its cells' blocks: ``G[rows[c, i],
    rows[c, j]]`` gathers ``blocks[c, i, j]`` over the cells ``c``, a slot
    whose row is -1 (no free DOF) left out.  Answers ``shape``, ``nbytes``,
    ``nonzero``, ``diagonal`` and ``toarray`` as a sparse matrix does."""

    blocks: np.ndarray
    rows: np.ndarray
    ndof: int

    @property
    def shape(self) -> tuple:
        return (self.ndof, self.ndof)

    @property
    def nbytes(self) -> int:
        return self.blocks.nbytes + self.rows.nbytes

    @cached_property
    def at(self) -> np.ndarray:
        """``rows`` with -1 moved onto the spare index ``ndof``."""
        return np.where(self.rows < 0, self.ndof, self.rows)

    def _entries(self) -> tuple:
        """Row and column of every block entry, ``ndof`` for none."""
        return (np.broadcast_to(self.at[:, :, None], self.blocks.shape),
                np.broadcast_to(self.at[:, None, :], self.blocks.shape))

    def toarray(self) -> np.ndarray:
        out = np.zeros((self.ndof + 1, self.ndof + 1), dtype=complex)
        np.add.at(out, self._entries(), self.blocks)
        return out[:-1, :-1]

    def diagonal(self) -> np.ndarray:
        r, c = self._entries()
        return _scatter(r[r == c], self.blocks[r == c], self.ndof)

    def nonzero(self) -> tuple:
        """Rows and columns of the nonzero entries, row by row."""
        r, c = self._entries()
        keys, which = np.unique(r * (self.ndof + 1) + c, return_inverse=True)
        keys = keys[_scatter(which, self.blocks, len(keys)) != 0]
        r, c = np.divmod(keys, self.ndof + 1)
        keep = (r < self.ndof) & (c < self.ndof)
        return r[keep], c[keep]


class _Fronts:
    """The multifrontal layout of a Gram system along the tree's tau-runs.

    A run is a delay window (:attr:`DelayMesh.windows`) that owns free
    nodes, at its elements' right ends; the windows without one, in boundary
    edges' resting tails, are leaves and take no part, so a run's parent and
    depth are its window's.  Every cell couples the nodes of its element and
    of its lead-in element, all on one path to the root, and is taken up by
    the run of the last of them; a run then couples to every node that a
    cell taken up in its subtree reaches above it: its front's boundary.
    The runs factor deepest first, one depth at a time.

    The layout counts nodes, each an ``n x n`` block of DOFs.  Per depth the
    fronts are padded to a common size, ``K`` own nodes, then the
    boundary's, ``F`` in all.  ``acc`` holds, per run, its front's ``(F n,
    K n)`` columns of own DOFs; an entry of ``G`` between two runs is kept
    in the columns of the one eliminated first, one within a run in both of
    its places.  ``cell_at`` maps the entries of the cells' blocks onto it,
    ``size`` or just after it for an entry kept elsewhere.  ``depths`` holds
    per depth, in DOFs: its number of fronts ``B``, ``K`` and ``F``, where its
    columns begin in ``acc``, its fronts' ``(B, F)`` DOFs (``ndof`` for
    padding), which of their own DOFs are real, and where the entries of its
    ``(B, F - K, F - K)`` Schur updates go in ``acc``.
    """

    def __init__(self, basis: Basis, rows: np.ndarray):
        n, ndof = basis.n, basis.ndof
        N, (window, _, _, wparent, wdepth) = ndof // n, basis.mesh.windows
        right = basis.rows[:, n]  # each element's right node, by its first DOF
        free = (right >= 0) & (right < ndof)
        # the runs, in node order: the windows with a free node, whose ancestors all have one
        is_run = np.bincount(window[free], minlength=len(wparent)) > 0
        run_of, runs = np.cumsum(is_run) - 1, np.flatnonzero(is_run)
        node_run = run_of[window[free]]
        k = np.bincount(node_run)  # each run's number of nodes
        first = np.cumsum(k) - k  # and its first one
        parent = np.where(wparent[runs] >= 0, run_of[wparent[runs]], -1)
        gen = wdepth[runs].max() - wdepth[runs]

        # each cell's nodes, taken up by the run of the last one and passed up
        # the runs to the one that owns them: the (run, boundary node) pairs
        nodes = np.where(rows[:, ::n] >= 0, rows[:, ::n] // n, -1)
        last = nodes.max(axis=1)
        up = (nodes >= 0) & (last[:, None] >= 0)
        r, v = np.divmod(_unique(node_run[np.broadcast_to(last[:, None], nodes.shape)[up]] * N
                                 + nodes[up]), N)
        pairs = []
        while len(r):  # one step up the runs per pass
            r, v = r[r != node_run[v]], v[r != node_run[v]]
            pairs.append(r * N + v)
            r = parent[r]
            r, v = r[r >= 0], v[r >= 0]
        pairs = _unique(np.concatenate(pairs))
        pstart = np.searchsorted(pairs // N, np.arange(len(first)))
        b = np.diff(np.append(pstart, len(pairs)))  # boundary nodes per run

        # the padded layout, depth by depth, the runs of one depth in node order
        order = np.lexsort((np.arange(len(first)), gen))
        count = np.bincount(gen)
        K, Bm = np.zeros(len(count), dtype=int), np.zeros(len(count), dtype=int)
        np.maximum.at(K, gen, k)
        np.maximum.at(Bm, gen, b)
        Kr, Fr = K[gen], (K + Bm)[gen]
        base = np.zeros(len(first), dtype=int)
        base[order] = n * n * (np.cumsum(Fr[order] * Kr[order]) - Fr[order] * Kr[order])
        self.size = size = int(n * n * (Fr * Kr).sum())
        d = np.arange(n)

        def block_at(vi, vj):  # where the entries of the n x n blocks G[vi, vj] are kept
            shape = np.broadcast_shapes(vi.shape, vj.shape)
            vi, vj = np.broadcast_to(vi, shape).ravel(), np.broadcast_to(vj, shape).ravel()
            first_at, stride = np.full(len(vi), size), np.zeros(len(vi), dtype=int)
            ok = np.flatnonzero((vi >= 0) & (vj >= 0))
            Ri, R = node_run[vi[ok]], node_run[vj[ok]]
            ok = ok[(Ri == R) | (gen[R] < gen[Ri])]
            i, j, R = vi[ok], vj[ok], node_run[vj[ok]]
            row = i - first[R]
            bnd = np.flatnonzero(node_run[i] != R)
            row[bnd] = Kr[R[bnd]] + np.searchsorted(pairs, R[bnd] * N + i[bnd]) - pstart[R[bnd]]
            stride[ok] = n * Kr[R]
            first_at[ok] = base[R] + n * (row * stride[ok] + j - first[R])
            first_at, stride = first_at.reshape(shape), stride.reshape(shape)
            at = np.empty(shape[:-2] + (shape[-2], n, shape[-1], n), dtype=int)
            for di in range(n):  # each entry of the blocks, a block kept elsewhere after size
                for dj in range(n):
                    at[..., di, :, dj] = first_at + stride * di + dj
            return at.reshape(shape[:-2] + (n * shape[-2], n * shape[-1]))

        owner, i = _ragged(Fr[order])
        run = order[owner]
        node = np.where(i < k[run], first[run] + i, -1)
        bi = i - Kr[run]
        bnd = (bi >= 0) & (bi < b[run])
        node[bnd] = pairs[pstart[run[bnd]] + bi[bnd]] % N
        front = np.where(node[:, None] >= 0, n * node[:, None] + d, ndof).ravel()
        pad = (i < Kr[run]) & (i >= k[run])
        self.unit = (base[run[pad]] + (n * i[pad] * (n * Kr[run[pad]] + 1)))[:, None] \
            + d * (n * Kr[run[pad]] + 1)[:, None]  # padding's own diagonal
        self.cell_at = block_at(nodes[:, :, None], nodes[:, None, :])
        # every front's boundary block, node pair by node pair, then per depth
        owner, i = _ragged(Bm[gen][order] ** 2)
        run, Bn = order[owner], Bm[gen][order][owner]
        at = (np.cumsum(Fr[order]) - Fr[order])[owner] + Kr[run]
        update_at = block_at(node[at + i // Bn, None, None], node[at + i % Bn, None, None])
        self.depths = []
        f0 = a0 = u0 = 0
        for B, Kg, Bg in zip(count, K, Bm):
            F, f1 = n * (Kg + Bg), f0 + B * n * (Kg + Bg)
            self.depths.append((B, n * Kg, F, a0, front[f0:f1].reshape(B, F),
                                front[f0:f1].reshape(B, F)[:, : n * Kg] < ndof,
                                update_at[u0 : u0 + B * Bg * Bg].reshape(B, Bg, Bg, n, n)
                                .transpose(0, 1, 3, 2, 4).ravel()))
            f0, a0, u0 = f1, a0 + B * F * n * Kg, u0 + B * Bg * Bg


@dataclass
class GramSystem:
    """Normal equations of the discrete minimisation.

    ``basis_values`` is the ``(4n, nquad)`` slot table of ``L``: at each
    Gauss point (``points``, on the 0-based edges ``edge``, flat in edge
    order, cell by cell, with ``weights``) the values of the operator on
    the shapes of the cell's element, then of its lead-in element, whose
    DOFs are the cell's row of ``matrix.rows``.  ``lift_values`` is the
    image of the history's zero-DOF member there
    (:func:`~treedamp.meshing.history_lift`).  ``matrix`` is the Gram
    matrix ``conj(L) W L^T`` as cell blocks: ``G[p, r]`` is the energy
    product of basis function ``r`` against basis function ``p``; ``rhs``
    is minus the product of that member against each one.
    """

    matrix: CellBlocks
    rhs: np.ndarray
    basis: Basis
    points: np.ndarray
    edge: np.ndarray
    weights: np.ndarray
    basis_values: np.ndarray
    lift_values: np.ndarray

    @property
    def _slots(self) -> np.ndarray:
        """``basis_values`` as ``(cells, points, 4n)``."""
        return self.basis_values.T.reshape(len(self.matrix.rows), -1, len(self.basis_values))

    def products(self, values: np.ndarray) -> np.ndarray:
        """``conj(L) W values``: the energy product of a function, given by
        its values at the Gauss points, against every basis function."""
        V = self._slots
        wv = (self.weights * values).conj().reshape(len(V), 1, -1)
        return _scatter(self.matrix.at, wv @ V, self.matrix.ndof).conj()

    def images(self, x: np.ndarray) -> np.ndarray:
        """``L^T x``: the operator at the Gauss points on the member of the
        space with DOFs ``x`` and a zero history."""
        return (self._slots @ np.append(x, 0.0)[self.matrix.at][..., None]).ravel()

    def energy(self, x: np.ndarray) -> float:
        """``|W^(1/2) (L phi + L^T x)|^2``, the energy of the member with DOFs
        ``x``, integrated exactly on the Gauss points.  Each value there is
        one short sum of shape values times nodal data, so its roundoff stays
        at that point; the control's local-power coefficients would carry the
        roundoff of a whole weighted sum of shapes through each piece."""
        r = self.lift_values + self.images(x)
        return float(self.weights @ (r.real ** 2 + r.imag ** 2))

    @cached_property
    def _fronts(self) -> _Fronts:
        return _Fronts(self.basis, self.matrix.rows)

    def hermiticity_defect(self) -> float:
        """The largest ``|G[p, r] - conj(G[r, p])|``, with ``G - G^H``
        assembled from the cells' ``B - B^H``."""
        if self.matrix.ndof == 0:
            return 0.0
        B, fr = self.matrix.blocks, self._fronts
        acc = np.zeros(fr.size + self.basis.n, dtype=complex)
        np.add.at(acc, fr.cell_at.ravel(), (B - B.conj().swapaxes(1, 2)).ravel())
        return float(np.abs(acc[: fr.size]).max(initial=0.0))

    @cached_property
    def diagonal(self) -> np.ndarray:
        """``G_jj``, the energy of each basis function."""
        return self.matrix.diagonal().real

    def _health(self, scaled: np.ndarray) -> str:
        """The spread of the scaled pivots formed (1 for none) and h_min, for a message."""
        ratio = scaled.max() / scaled.min() if len(scaled) else 1.0
        return (f"scaled pivot ratio {ratio:.3e} over {len(scaled)} of {self.matrix.ndof} pivots, "
                f"smallest element width h_min = {self.basis.mesh.min_width():.3e}")

    def _indefinite(self, reason: str, scaled: np.ndarray) -> IndefiniteGramError:
        return IndefiniteGramError(
            f"Gram matrix is not positive definite: {reason}; {self._health(scaled)}; a leading "
            "coefficient near zero or a sliver element makes the energy form degenerate")

    def _factor(self) -> tuple:
        """The fronts' eliminations, depth by depth, and the scaled pivots.

        Each front's own block ``A`` is the definiteness test, by its
        Cholesky factor, whose squared diagonal are the pivots; each over
        its DOF's ``G_jj`` is a scaled pivot, in (0, 1] up to roundoff.  One
        solve gives ``M = A^-1 [I, -A_12]``, which maps the front's right-hand
        side and its boundary's solution onto its own DOFs; ``A_21 A^-1``,
        the conjugate transpose of ``-M``'s last columns, carries the
        right-hand side onto the boundary, and ``A_21`` times those columns
        is the Schur update, added to the ancestors' columns.
        """
        fr = self._fronts
        acc = np.zeros(fr.size + self.basis.n, dtype=complex)
        np.add.at(acc, fr.cell_at.ravel(), self.matrix.blocks.ravel())
        acc[fr.unit] = 1.0
        steps, pivots = [], []
        for B, K, F, a0, front, own, update_at in fr.depths:
            P = acc[a0 : a0 + B * F * K].reshape(B, F, K)
            try:
                L = np.linalg.cholesky(P[:, :K])
            except np.linalg.LinAlgError:
                raise self._indefinite("its Cholesky factor failed",
                                       np.concatenate([np.zeros(0), *pivots])) from None
            pivots.append(L.diagonal(axis1=1, axis2=2).real[own] ** 2 / self.diagonal[front[:, :K][own]])
            rhs = np.zeros((B, K, F), dtype=complex)
            rhs[:, np.arange(K), np.arange(K)] = 1.0
            rhs[:, :, K:] = -P[:, K:].conj().swapaxes(1, 2)
            try:
                M = np.linalg.solve(P[:, :K], rhs)
            except np.linalg.LinAlgError:  # the factor passed, but LU meets an exact zero
                raise self._indefinite("the factor is singular", np.concatenate(pivots)) from None
            np.add.at(acc, update_at, (P[:, K:] @ M[:, :, K:]).ravel())
            steps.append((front, -M[:, :, K:].conj().swapaxes(1, 2), M))
        return steps, np.concatenate(pivots)

    @staticmethod
    def _substitute(steps: list, b: np.ndarray) -> np.ndarray:
        """``G^-1 b`` from the fronts' eliminations: down the depths, each
        front's right-hand side onto its boundary, then back up, each
        front's own DOFs from it and from its boundary's."""
        x = np.append(b, 0.0)  # the last entry stands for the padding
        for front, C, _ in steps:
            np.subtract.at(x, front[:, C.shape[2] :].ravel(), (C @ x[front[:, : C.shape[2]], None]).ravel())
        for front, _, M in reversed(steps):
            x[front[:, : M.shape[1]]] = (M @ x[front][..., None])[..., 0]
        return x[:-1]

    def solve(self) -> np.ndarray:
        """The minimiser of the discrete energy over the perturbation space.

        The fronts along the tau-runs factor ``G`` (:meth:`_factor`); a
        pivot that is not positive fails the definiteness test, and scaled
        pivots spread over ``PIVOT_RATIO_MAX`` or more are refused as
        numerically singular, both as :class:`IndefiniteGramError`.  Steps
        of the corrected seminormal equations then recover the accuracy that
        forming ``G`` squared away: the residual ``L phi + L^T x`` at the
        Gauss points feeds one more solve with the same factor.  The steps
        stop at the first correction that is not below half the previous
        one, which is the roundoff floor, and is not applied; still
        contracting after ``CSNE_MAX_STEPS`` steps, and above the roundoff
        of ``x``, raises ``LinAlgError``.
        """
        if self.matrix.ndof == 0:
            # fully clamped space: the history's zero-DOF member is the only candidate
            return np.zeros(0, dtype=complex)
        steps, scaled = self._factor()
        if scaled.max() >= PIVOT_RATIO_MAX * scaled.min():
            raise self._indefinite("its scaled pivots spread over 1/eps: it is numerically singular", scaled)
        x = self._substitute(steps, self.rhs)
        size = np.inf
        for _ in range(CSNE_MAX_STEPS):
            dx = self._substitute(steps, -self.products(self.lift_values + self.images(x)))
            prev, size = size, np.linalg.norm(dx)
            if not size < prev / 2:
                return x
            x += dx
        if size <= np.finfo(float).eps * np.linalg.norm(x):  # converged below roundoff
            return x
        raise np.linalg.LinAlgError(
            f"corrected seminormal steps still contracting after {CSNE_MAX_STEPS}: last relative "
            f"correction {size / np.linalg.norm(x):.3e}, {self._health(scaled)}")


def _operator_slots(basis: Basis, ids: np.ndarray, s: np.ndarray, a: np.ndarray) -> np.ndarray:
    """``sum_k a[k] d^k/dt^k`` applied to the ``2n`` shapes of element
    ``ids[c]`` at the local coordinates ``s[c]`` of cell ``c``: a ``(cells,
    points, 2n)`` table."""
    deg = basis.shapes.shape[-1]
    mono = np.zeros(s.shape + (deg,), dtype=complex)
    for k, ak in enumerate(a):
        mono += derivative_powers(s.ravel(), k, deg, ak.ravel()).reshape(mono.shape)
    return mono @ basis.shapes[ids].swapaxes(1, 2)


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

    gx, gw = gauss_legendre(max_deg + 1)
    t = cells.left[:, None] + 0.5 * cells.h[:, None] * (gx + 1.0)  # (cells, points)
    weights = 0.5 * cells.h[:, None] * gw
    a = coeffs.values(cells.edge.repeat(len(gx)), t.ravel()).reshape(-1, *t.shape)  # b_0..b_n, c_0..c_n
    td = t - tau
    history = delayed[cells.edge] & (cells.edge == 0) & (td[:, 0] < 0.0)  # the root edge reads phi before tau
    late = delayed[cells.edge] & ~history
    V = np.zeros(t.shape + (4 * n,), dtype=complex)
    rows = np.full((len(t), 4 * n), -1)
    ids, s = basis.locate(cells.edge, t)
    V[..., : 2 * n], rows[:, : 2 * n] = _operator_slots(basis, ids, s, a[: n + 1]), basis.rows[ids]
    ids, s = basis.locate(cells.edge[late], td[late])
    V[late, :, 2 * n :] = _operator_slots(basis, ids, s, a[n + 1 :, late])
    rows[late, 2 * n :] = basis.rows[ids]
    Lphi = np.zeros(t.shape, dtype=complex)
    Lphi[history] = sum(c[history] * phi.values(td[history], k) for k, c in enumerate(a[n + 1 :]))
    # the root start's values, which the history fixes, have the rows after the DOFs
    start = np.zeros(ndof + n + 1, dtype=complex)
    start[ndof:-1] = [phi.left_limit(0.0, k) for k in range(n)]
    Lphi += (V @ start[rows][..., None])[..., 0]
    rows[rows >= ndof] = -1
    Vw = V.conj().swapaxes(1, 2) * weights[:, None, :]
    G = CellBlocks(Vw @ V, rows, ndof)
    return GramSystem(matrix=G, rhs=-_scatter(G.at, Vw @ Lphi[..., None], ndof), basis=basis,
                      points=t.ravel(), edge=cells.edge.repeat(len(gx)), weights=weights.ravel(),
                      basis_values=V.reshape(-1, 4 * n).T, lift_values=Lphi.ravel())


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
    sources = tuple(_unique(np.append(0.0, ends)).tolist())
    return build_mesh(tree, coeffs.tau, q, sources=sources, local_points=coeffs.breakpoints())


def solve_damping(tree: Tree, coeffs: CoefficientSet, phi: PiecewisePoly,
                  q: int = 8) -> DampingSolution:
    """Minimise the control cost subject to history and rest constraints.

    The trajectory is the member of the constrained Hermite space with
    history ``phi`` whose free nodal data solve the Gram system; the
    induced control is the edge operator applied to the trajectory, and the
    reported energy is its squared norm, integrated on the assembly's Gauss
    points (:meth:`GramSystem.energy`).  A solution whose energy is not
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
    energy = gram.energy(x)
    if not math.isfinite(energy):  # an overflow in the nodal data reaches L phi + L^T x
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
    norms = np.sqrt(np.abs(gram.diagonal))
    ynorm = np.sqrt(max(sol.energy, 0.0))
    scale = norms * ynorm
    rel = np.abs(resid) / np.where(scale > 0, scale, 1.0)
    return {
        "max_abs": float(np.max(np.abs(resid))),
        "max_rel": float(np.max(rel)),
        "per_basis": resid,
    }
