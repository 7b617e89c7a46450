"""Differential-delay expressions on a metric tree.

The controlled system applies, on every edge ``j``, an operator of order
``n`` acting on the trajectory and on its delayed values,

    (L_j y)(t) = sum_k [ b_kj(t) y_j^(k)(t) + c_kj(t) y_j^(k)(t - tau) ],

where the delayed value is read through the parent edge when ``t < tau``
(and from the prescribed history on the root edge): the one delay rule,
:func:`lead_ins`, which the mesh, the basis and the simulation read too.
This module holds the data types for coefficient families and trajectories
plus the exact algebra on them after the solve: the control ``L y``
(:func:`operator_components`) and the weights of the re-indexed first
variation (:func:`variation_weights`) that the diagnostics are built on.
A :class:`CoefficientSet` stores only the coefficients it is given; a
missing one is zero, and its terms are skipped everywhere.

Both take and give whole-tree tables
(:class:`~treedamp.piecewise.EdgeFunctions`), a trajectory's components
included, in a fixed number of array passes.  Every edge's cells are sorted
in one pass; the rows a cell needs come in by one gather per kind of read:
the trajectory at ``t`` and at ``t - tau`` (its lead-in), every
coefficient, and for the weights the delayed products coming back to where
the lead-ins land.  What is left is row-wise convolution and column work.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .piecewise import (SAME_POLY_RTOL, EdgeFunctions, EdgePieces, PiecewisePoly, _abs_min,
                        _convolve, _find, _gather, _poly_der, _ragged, _taylor_shift, _unique,
                        as_edge_functions)
from .trees import Tree


class CoefficientError(ValueError):
    """Raised when a coefficient family fails validation."""


def check_edge_spans(tree: Tree, ends, what: str, error=ValueError, item="function") -> None:
    """Raise ``error`` unless ``ends`` holds the first and last breaks of
    one ``item`` per edge, edge ``j``'s at index ``j - 1``, running from 0
    to ``T_j`` to the break tolerance."""
    if len(ends) != tree.m:
        raise error(f"{what}: one {item} per edge required, got {len(ends)} for {tree.m} edges")
    (lo, hi), T = np.asarray(ends, dtype=float).T, np.asarray(tree.lengths)
    bad = np.flatnonzero((np.abs(lo) > 1e-12) | (np.abs(hi - T) > 1e-12 * np.maximum(1.0, T)))
    if bad.size:
        j = int(bad[0]) + 1
        raise error(f"{what} on edge {j} has domain [{lo[j - 1]}, {hi[j - 1]}], "
                    f"expected [0, {tree.length(j)}]")


class _Families(NamedTuple):
    """The coefficients of a :class:`CoefficientSet` in one table.

    ``table`` has one row per piece of ``cells``, the union of all the
    coefficients' pieces of an edge, and one column per family ``f``
    (``b_0..b_n``, then ``c_0..c_n``).  ``widths[f, j]`` is the
    coefficient's own table width, and ``breaks`` holds the ``(family,
    edge, point)`` breaks of the present ones.
    """

    cells: EdgePieces
    table: np.ndarray
    widths: np.ndarray
    breaks: tuple


@dataclass(frozen=True)
class CoefficientSet:
    """Operator coefficients ``b_kj``, ``c_kj`` for ``k=0..n``, edges ``1..m``.

    ``terms[f, j]`` is the coefficient of family ``f`` (``b_0..b_n``, then
    ``c_0..c_n``) on edge ``j``, a piecewise polynomial on ``[0, T_j]``; a
    missing key is a zero coefficient.  The leading instantaneous
    coefficient ``b_nj`` is required and must stay away from zero on every
    edge; the leading delayed coefficient ``c_nj``
    may vanish (retarded system) or not (neutral system).
    """

    tree: Tree
    n: int
    tau: float
    terms: dict

    MIN_LEADING = 1e-12

    def __post_init__(self):
        if self.n < 1:
            raise CoefficientError(f"operator order must be >= 1, got {self.n}")
        if not (self.tau > 0.0):
            raise CoefficientError(f"delay must be positive, got {self.tau}")
        Tmin = min(self.tree.lengths)
        if not (self.tau < Tmin):
            raise CoefficientError(
                f"delay {self.tau} must be smaller than the shortest edge {Tmin}"
            )
        for j in range(1, self.tree.m + 1):
            if (self.n, j) not in self.terms:
                raise CoefficientError(f"b[({self.n}, {j})] is required")
        keys = sorted(self.terms)
        (lo, hi), T = (np.array([self.terms[key].domain for key in keys]).T,
                       np.asarray(self.tree.lengths)[[j - 1 for _, j in keys]])
        bad = np.flatnonzero((np.abs(lo) > 1e-12) | (np.abs(hi - T) > 1e-12 * np.maximum(1.0, T)))
        if bad.size:
            (f, j), i = keys[bad[0]], bad[0]
            raise CoefficientError(f"{'bc'[f > self.n]}[{f % (self.n + 1)}] on edge {j} has "
                                   f"domain [{lo[i]}, {hi[i]}], expected [0, {T[i]}]")
        lead = EdgePieces.of(self.terms[self.n, j] for j in range(1, self.tree.m + 1))
        least = lead.pieces.per_edge(_abs_min(lead.table, lead.pieces.h), np.inf).min(axis=1)
        bad = np.flatnonzero(least < self.MIN_LEADING)
        if bad.size:
            raise CoefficientError(
                f"leading coefficient b_{self.n} on edge {bad[0] + 1} reaches "
                f"|.| = {least[bad[0]]:.3e}; it must stay away from zero"
            )

    @cached_property
    def present(self) -> np.ndarray:
        """``present[f, j-1]``: whether family ``f`` (``b_0..b_n``, then
        ``c_0..c_n``) is present on edge ``j``, that is, has a nonzero
        coefficient.  Every term of an absent one is skipped."""
        out = np.zeros((2 * self.n + 2, self.tree.m), dtype=bool)
        f, j = np.array(list(self.terms)).T
        out[f, j - 1] = [p.coefs.any() for p in self.terms.values()]
        return out

    @cached_property
    def _families(self) -> "_Families":
        """Every family (``b_0..b_n``, then ``c_0..c_n``) on each edge's
        common pieces, built on first use: each term's rows are gathered
        onto the cells of its edge, and a missing term's stay zero."""
        m, count, keys = self.tree.m, 2 * self.n + 2, sorted(self.terms)
        fam, edge = np.array(keys).T
        edge = edge - 1
        given = EdgePieces.of(self.terms[key] for key in keys)
        pieces, table = given.pieces, given.table
        cells = EdgePieces.merged(edge[pieces.break_edge], pieces.breaks, np.zeros(m),
                                  np.asarray(self.tree.lengths))
        term, i = _ragged(np.diff(cells.offsets)[edge])  # every term on its edge's cells
        at = cells.offsets[edge[term]] + i
        rows = np.zeros((len(cells.edge), count, table.shape[1]), dtype=complex)
        rows[at, fam[term]] = _gather(table, pieces.edge, pieces.left, term, cells.mid[at],
                                      cells.left[at])
        widths = np.ones((count, m), dtype=int)
        widths[fam, edge] = given.widths
        fam, edge = fam[pieces.break_edge], edge[pieces.break_edge]
        live = self.present[fam, edge]
        return _Families(cells, rows, widths, (fam[live], edge[live], pieces.breaks[live]))

    def values(self, edge: np.ndarray, t: np.ndarray) -> np.ndarray:
        """Every family at the points ``(edge, t)`` (0-based edges), one row
        per family: one lookup in the families table, then Horner's rule
        gathering one power at a time."""
        cells, table = self._families.cells, self._families.table
        src = _find(cells.edge, cells.left, edge, t)
        s, out = t - cells.left[src], np.zeros((table.shape[1], len(t)), dtype=complex)
        for k in range(table.shape[-1] - 1, -1, -1):
            out *= s
            out += table[src, :, k].T
        return out

    def breakpoints(self) -> tuple:
        """The interior points where some coefficient switches polynomial,
        as 0-based edges (ascending) and points.  At every interior break of
        the common pieces, each family's left row re-centred at its right end
        is compared with its right row; a break that every family crosses
        with the same polynomial, to ``SAME_POLY_RTOL`` of their largest
        coefficient, is left out, so the mesh puts no sliver element there."""
        cells, table = self._families.cells, self._families.table
        inner = np.flatnonzero(cells.edge[1:] == cells.edge[:-1])
        left, right = _taylor_shift(table[inner], cells.h[inner]), table[inner + 1]
        scale = np.maximum(np.abs(left).max(axis=-1), np.abs(right).max(axis=-1))
        same = np.abs(left - right).max(axis=-1) <= SAME_POLY_RTOL * scale
        at = inner[~same.all(axis=1)] + 1
        return cells.edge[at], cells.left[at]

    @classmethod
    def build(cls, tree: Tree, n: int, tau: float, b: dict, c: dict) -> "CoefficientSet":
        """Assemble from sparse ``{(k, j): PiecewisePoly | scalar}`` maps:
        ``b[(k, j)]`` is term ``(k, j)`` and ``c[(k, j)]`` term ``(n + 1 +
        k, j)``.

        Missing entries are zero coefficients; ``b[(n, j)]`` is required for
        every edge, and a key outside ``k = 0..n``, ``j = 1..m`` is rejected.
        Scalars are promoted to constants on ``[0, T_j]``.
        """

        valid = {(k, j) for k in range(n + 1) for j in range(1, tree.m + 1)}
        for src, name in ((b, "b"), (c, "c")):
            for key in src:
                if key not in valid:
                    raise CoefficientError(f"{name}[{key!r}] is outside k = 0..{n}, j = 1..{tree.m}")

        def promote(val, j):
            if isinstance(val, PiecewisePoly):
                return val
            return PiecewisePoly._of(np.array([0.0, tree.length(j)]), np.full((1, 1), complex(val)))

        terms = {(k, j): promote(val, j) for (k, j), val in b.items()}
        terms.update({(n + 1 + k, j): promote(val, j) for (k, j), val in c.items()})
        return cls(tree=tree, n=n, tau=tau, terms=terms)

    def _select(self, fams, edges: np.ndarray):
        """The coefficient families ``fams`` (indices into ``b_0..b_n,
        c_0..c_n``) on the 0-based ``edges`` (ascending).

        Returns the rows of their common pieces as ``(label, left, table)``,
        labelled by the edge's position in ``edges`` and with one column of
        ``table`` per family, and the breaks of the coefficients that are not
        zero as ``(position, point)``."""
        cells, table, _, (fam, edge, points) = self._families
        pos = np.full(self.tree.m, -1)
        pos[edges] = np.arange(len(edges))
        wanted = np.zeros(2 * self.n + 2, dtype=bool)
        wanted[list(fams)] = True
        keep = pos[cells.edge] >= 0
        rows = pos[cells.edge[keep]], cells.left[keep], table[keep][:, list(fams)]
        keep = wanted[fam] & (pos[edge] >= 0)
        return rows, (pos[edge[keep]], points[keep])


@dataclass(frozen=True)
class TreeFunction:
    """A trajectory: one piecewise polynomial per edge plus root history.

    ``components[j-1]`` lives on ``[0, T_j]``, all on one table
    (:class:`~treedamp.piecewise.EdgeFunctions`); ``history`` lives on
    ``[-tau, 0]`` and belongs to the root edge.  The delay on any other edge
    is served by the tail of the parent component, so no history is stored
    there.
    """

    tree: Tree
    n: int
    components: EdgeFunctions
    history: PiecewisePoly

    def __post_init__(self):
        check_edge_spans(self.tree, self.components.pieces.ends, "trajectory")
        h0, h1 = self.history.domain
        if abs(h1) > 1e-12 or not h0 < 0:
            raise ValueError(f"history must live on [-tau, 0], got [{h0}, {h1}]")

    @property
    def tau(self) -> float:
        return -self.history.domain[0]

    def component(self, j: int) -> PiecewisePoly:
        return self.components[j - 1]

    def __add__(self, other: "TreeFunction") -> "TreeFunction":
        return self._combine(other, np.add)

    def __sub__(self, other: "TreeFunction") -> "TreeFunction":
        return self._combine(other, np.subtract)

    def _with_history(self) -> EdgeFunctions:
        """The history and then the components, edges ``0..m`` of one table."""
        comps, phi = self.components, self.history
        (rows, hw), w = phi.coefs.shape, comps.table.shape[1]
        table = np.zeros((rows + len(comps.pieces.edge), max(w, hw)), dtype=complex)
        table[:rows, :hw], table[rows:, :w] = phi.coefs, comps.table
        pieces = EdgePieces(np.append(phi.breaks, comps.pieces.breaks),
                            np.append(0, rows + comps.pieces.offsets))
        return EdgeFunctions(pieces, table, np.append(hw, comps.widths))

    def _combine(self, other: "TreeFunction", op) -> "TreeFunction":
        """``op`` of the two trajectories on their common cells, the
        history riding along as one more edge."""
        mine, theirs = self._with_history(), other._with_history()
        cells, a, b = EdgePieces.common(mine, theirs)
        both = EdgeFunctions(cells, op(a, b), np.maximum(mine.widths, theirs.widths))
        return TreeFunction(self.tree, self.n, both.take(np.arange(1, self.tree.m + 1)), both[0])


def lead_ins(pieces: EdgePieces, head: np.ndarray, end: np.ndarray, tau: float) -> tuple:
    """Where the delayed reads of the layout's first ``len(head)`` edges
    land, the one delay rule of the method of steps: a read at ``s = t -
    tau < 0`` lands before edge ``e``, in the pieces of layout edge
    ``head[e]`` (the parent, the history on the root, -1 for none) moved
    back by its ``end`` (its length; 0 for the history), any other one in
    the edge's own pieces.  Returns, ordered by edge, each lead-in row's
    edge, layout row and shift: the head's pieces whose right end lies
    after ``end - tau``, then all of the edge's own, with shift 0.
    """
    own = pieces.offsets[len(head)]  # the rows of the reading edges
    right = pieces.breaks[np.arange(len(pieces.edge)) + pieces.edge + 1]
    late = np.bincount(pieces.edge[right > (end - tau)[pieces.edge]], minlength=pieces.m)
    reader = np.flatnonzero(head >= 0)
    size = late[head[reader]]  # the tail each reader reads: its head's last rows
    tail = np.arange(size.sum()) + np.repeat(pieces.offsets[head[reader] + 1] - np.cumsum(size), size)
    edge = np.append(np.repeat(reader, size), pieces.edge[:own])
    order = np.argsort(edge, kind="stable")
    return (edge[order], np.append(tail, np.arange(own))[order],
            np.append(end[head[reader]].repeat(size), np.zeros(own))[order])


def _trajectory_reads(y: TreeFunction, edges: np.ndarray, delayed: np.ndarray, points):
    """The cells of the 1-based ``edges`` (ascending) and the trajectory on
    them, laid out after the heads that are not among them (the history, a
    parent), whose :func:`lead_ins` serve the reads at ``t - tau``.

    The cells of edge ``j`` are its nodes, the ``points`` given as ``(edge
    position, point)`` and, where ``delayed`` holds, the right ends of its
    lead-in's pieces moved onto ``t``.  Returns the cells, the ``(2 * rows,
    width)`` table of the trajectory on every cell at ``t`` and then at ``t
    - tau``, and per edge the widths of those two reads.
    """
    tree, tau, k = y.tree, y.tau, len(edges)
    lengths = np.append(0.0, tree.lengths)  # index 0: the history, moved back by nothing
    par = np.asarray(tree.parent)[edges - 1]
    heads = np.ones(tree.m + 1, dtype=bool)
    heads[edges] = False
    order = np.concatenate([edges, _unique(par[heads[par]])])
    every = y._with_history()  # edge 0 the history, edge j the component of edge j
    funcs = every.take(order)
    pieces, table = funcs.pieces, funcs.table
    at = np.zeros(tree.m + 1, dtype=int)
    at[order] = np.arange(len(order))
    edge, src, shift = lead_ins(pieces, at[par], lengths[order], tau)
    own, use = pieces.offsets[k], delayed[edge]
    right = pieces.breaks[src + pieces.edge[src] + 1] + (tau - shift)  # on t, as the cells are
    cells = EdgePieces.merged(np.concatenate([pieces.break_edge[: own + k], points[0], edge[use]]),
                              np.concatenate([pieces.breaks[: own + k], points[1], right[use]]),
                              np.zeros(k), lengths[edges])
    reads = _gather(np.concatenate([table[:own], table[src]]),
                   np.concatenate([pieces.edge[:own], k + edge]),
                   np.concatenate([pieces.left[:own], pieces.left[src] + (tau - shift)]),
                   np.concatenate([cells.edge, k + cells.edge]),
                   np.concatenate([cells.mid, cells.mid]), np.concatenate([cells.left, cells.left]))
    return cells, reads, every.widths[edges], np.maximum(every.widths[edges], every.widths[par])


def _operator_table(y: TreeFunction, coeffs: CoefficientSet, edges: np.ndarray):
    """``L_j y`` for the 1-based ``edges`` (ascending) on one table, each
    edge as wide as the algebra of its terms gives, so that a view has no
    padding beyond it, and +0.0 past that width."""
    n = coeffs.n
    (c_label, c_left, c_table), points = coeffs._select(range(2 * n + 2), edges - 1)
    present = coeffs.present[:, edges - 1]
    cells, reads, wy, wd = _trajectory_reads(y, edges, present[n + 1 :].any(axis=0), points)
    R = len(cells.edge)
    coefs = _gather(c_table, c_label, c_left, cells.edge, cells.mid, cells.left)
    acc = np.zeros((R, 1), dtype=complex)
    for k in range(n + 1):
        for f, rows in ((k, reads[:R]), (n + 1 + k, reads[R:])):
            if present[f].any():
                term = _convolve(coefs[:, f], _poly_der(rows, k))
                if term.shape[1] > acc.shape[1]:
                    acc, term = term, acc
                acc[:, : term.shape[1]] += term

    k = np.arange(n + 1)[:, None]
    term_w = coeffs._families.widths[:, edges - 1] - 1 + np.concatenate([np.maximum(wy - k, 1),
                                                                np.maximum(wd - k, 1)])
    widths = np.where(present, term_w, 1).max(axis=0)
    acc = acc[:, : widths.max()]
    acc[np.arange(acc.shape[1]) >= widths[cells.edge, None]] = 0.0  # a swap may leave -0.0 there
    return EdgeFunctions(cells, acc, widths)


def operator_components(y: TreeFunction, coeffs: CoefficientSet) -> EdgeFunctions:
    """``L_j y`` of every edge ``j`` at index ``j - 1``, on one table."""
    return _operator_table(y, coeffs, np.arange(1, y.tree.m + 1))


def apply_operator(y: TreeFunction, coeffs: CoefficientSet, j: int) -> PiecewisePoly:
    """The edge operator ``L_j y`` on ``[0, T_j]``, from edge ``j``'s own
    pieces and its lead-in's only."""
    return _operator_table(y, coeffs, np.array([j]))[0]


def _weight_table(coeffs: CoefficientSet, ells, ks):
    """The weights of ``conj(w^(k))`` for every ``k`` of ``ks`` and every
    edge, on one set of cells per edge: the layout and a ``(rows, len(ks),
    width)`` table.

    The products ``conj(b_k) ell`` and ``conj(c_k) ell`` are formed on the
    control's pieces (refined by the coefficients' breaks, which a control
    ``L y`` already holds).  The weight cells of edge ``j`` are then those
    pieces on ``[0, l_j]``, shifted by ``-tau`` for the edge's own read at
    ``t + tau``, and the children's pieces shifted by ``T_j - tau`` for the
    last delay window.  One gather brings the own products in, one more
    the advanced reads, and the children's reads are summed per cell.
    """
    tree, tau, n, m = coeffs.tree, coeffs.tau, coeffs.n, coeffs.tree.m
    ks = list(ks)
    K = len(ks)
    lengths = np.asarray(tree.lengths)
    par = np.asarray(tree.parent)
    ells = as_edge_functions(ells)
    ell, ell_c = ells.pieces, ells.table
    everyone = np.arange(m)
    families = ks + [n + 1 + k for k in ks]  # b_k, then c_k
    (c_label, c_left, c_table), (c_edge, c_points) = coeffs._select(families, everyone)
    present = coeffs.present[families]
    zeros = np.zeros(m)

    cells = EdgePieces.merged(np.concatenate([ell.break_edge, c_edge]),
                              np.concatenate([ell.breaks, c_points]), zeros, lengths)
    if not np.array_equal(cells.breaks, ell.breaks):
        ell_c = _gather(ell_c, ell.edge, ell.left, cells.edge, cells.mid, cells.left)
    coefs = _gather(c_table, c_label, c_left, cells.edge, cells.mid, cells.left)
    products = _convolve(coefs.conj(), ell_c[:, None])  # (rows, 2K, width)

    active = np.where(everyone < tree.d, lengths, lengths - tau)
    split = lengths + (-tau)  # the start of the last delay window
    be = cells.break_edge
    own = present[:K].any(axis=0)[be]
    reads = present[K:].any(axis=0)[be]
    up = reads & (par[be] > 0)  # a child's first window, read by its parent
    weights = EdgePieces.merged(
        np.concatenate([be[own], be[reads], everyone, par[be[up]] - 1]),
        np.concatenate([cells.breaks[own], cells.breaks[reads] + (-tau), split,
                        cells.breaks[up] + (lengths - tau)[par[be[up]] - 1]]),
        zeros, active)
    out = _gather(products[:, :K], cells.edge, cells.left, weights.edge, weights.mid, weights.left)
    # each edge's delayed products come back to where its reads land, its
    # lead-in: its own cells before its last window, its parent's in that
    # window, each moved into the frame of the cell it comes back to
    edge, cell, shift = lead_ins(weights, par - 1, lengths, tau)
    back = np.flatnonzero((shift > 0) | (weights.mid[cell] < split[edge]))
    edge, cell = edge[back] + m * (shift[back] > 0), cell[back]
    src_left = np.concatenate([cells.left + (-tau), cells.left + (lengths - tau)[par[cells.edge] - 1]])
    advanced = _gather(np.concatenate([products[:, K:]] * 2), np.append(cells.edge, m + cells.edge),
                      src_left, edge, weights.mid[cell], weights.left[cell])
    acc = np.zeros_like(out)
    np.add.at(acc, cell, advanced)
    return weights, out + acc


def variation_weights(coeffs: CoefficientSet, ells, k: int) -> EdgeFunctions:
    """Weights of ``conj(w^(k))`` in the re-indexed first variation, edge
    ``j``'s at index ``j - 1``, on one table.

    After moving every delayed test-function read back to its home edge, the
    first variation becomes a sum of integrals over the active windows
    ``[0, l_j]`` of products (weight) * conj(w_j^(k)).  Given the control
    ``ells`` (``L_nu y`` at index ``nu - 1``), the weight is
    ``conj(b_kj) * ells_j`` on ``[0, l_j]`` plus the advanced read of
    ``conj(c_k) * ells``: ``conj(c_kj) ells_j (t + tau)`` on ``[0, T_j -
    tau]`` and, on the last delay window of an internal edge, the sum over
    the children ``nu`` of ``conj(c_knu) ells_nu (t - T_j + tau)``.
    """
    weights, table = _weight_table(coeffs, ells, [k])
    return EdgeFunctions(weights, table[:, 0])
