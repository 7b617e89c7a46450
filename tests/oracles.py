"""Reference routes the tests check the solver against.

None of these is on the path of a command.  Each recomputes a quantity the
solver produces or relies on by exact piecewise-polynomial algebra, without
the assembly's Gauss grid and without the whole-tree piece tables: the
delayed read and its adjoint, the edge operator and the variation weights as
chains of per-edge operations, the coefficient breaks the mesh must keep,
coefficient by coefficient, the energy and its polarisation straight from
``L y``, the dense Gram system and its minimal energy (the one quantity
integrated on Gauss points, the oracle's own, from the control's values),
the first variation through the re-indexed weights, the generic
quasi-derivative recursion,
membership in the perturbation space from one-sided limits, the delay
mesh edge by edge (every source tried on every edge), its DOF numbering
node by node and its delay windows element by element, the rows of a
piece table that hold a set of points by one sort of rows and queries;
and the file formats entry by entry and edge by edge: a piecewise record
parsed one number at a time, and the CSV sampled one edge at a time.  The
forward simulation is the one route that is not exact: the package's
collocation, with one collocation stack and one delay-window sweep per
edge instead of the whole tree's element table.

The coefficient set's dense tables are kept here as the reference for its
stored terms: every family on every edge, a missing one the zero constant
(:func:`dense_coefficients`, :func:`dense_families`).  So are the small
reads the package leaves to its tests: a piecewise polynomial's value at
one point (:func:`eval_at`), a vertex's children (:func:`children`), a
missing coefficient as zero (:func:`coefficient`), the Gram matrix as
one dense array (:func:`dense_matrix`) and a trajectory from per-edge
components (:func:`tree_function`).  The exchange files' writers entry by
entry are here too: the control file edge by edge (:func:`control_text`)
and a problem file in canonical form (:func:`config_dict`), which no
command writes.

The per-edge algebra itself lives here too, as :class:`Poly`.  The package's
:class:`~treedamp.piecewise.PiecewisePoly` only parses, exchanges, views and
evaluates; the sums, products, restrictions, shifts, integrals and jumps
the routes above are built from are the oracle's own, and the tests of that
algebra are the tests of the reference.
"""

from __future__ import annotations

import json
import math

import numpy as np
import scipy.linalg

from treedamp.expressions import TreeFunction, _Families
from treedamp.piecewise import (BREAK_RTOL, SAME_POLY_RTOL, EdgePieces, PiecewisePoly, _abs_min,
                                _convolve, _gather, _integrals, _poly_der, _poly_val, _taylor_shift,
                                derivative_powers)
from treedamp.meshing import DelayMesh


def eval_at(p, t: float, deriv: int = 0) -> complex:
    """The ``deriv``-th derivative of the piecewise polynomial ``p`` at the
    one point ``t``, right-continuous at interior breaks."""
    return complex(p.values(np.array([t]), deriv)[0])


def children(tree, v: int) -> tuple:
    """The edges leaving vertex ``v`` (0 is the root), in canonical order."""
    return tuple(j for j in range(1, tree.m + 1) if tree.parent_of(j) == v)


def dense_matrix(blocks) -> np.ndarray:
    """The Gram matrix of :class:`~treedamp.damping.CellBlocks` as one dense
    array: every cell's block added at its rows, a slot without a free DOF
    left out."""
    out = np.zeros((blocks.ndof + 1, blocks.ndof + 1), dtype=complex)
    at = blocks.at
    np.add.at(out, (at[:, :, None], at[:, None, :]), blocks.blocks)
    return out[:-1, :-1]


def coefficient(coeffs, f: int, j: int):
    """The coefficient of family ``f`` (``b_0..b_n``, then ``c_0..c_n``) on
    edge ``j``: its term, or the zero constant on ``[0, T_j]`` when the set
    has none."""
    p = coeffs.terms.get((f, j))
    return Poly.zero(0.0, coeffs.tree.length(j)) if p is None else p


def dense_coefficients(coeffs) -> tuple:
    """The tables ``(b, c)`` of every family on every edge, ``b[k][j-1]``
    and ``c[k][j-1]``, a missing term the zero constant built as the set's
    ``build`` once padded it: the dense storage that ``terms`` replaced."""
    n, m, length = coeffs.n, coeffs.tree.m, coeffs.tree.length
    zero = {j: PiecewisePoly._of(np.array([0.0, length(j)]), np.full((1, 1), complex(0.0)))
            for j in range(1, m + 1)}
    return tuple(tuple(tuple(coeffs.terms.get((f, j), zero[j]) for j in range(1, m + 1))
                       for f in range(first, first + n + 1)) for first in (0, n + 1))


def dense_families(coeffs) -> tuple:
    """``_families`` of a coefficient set, the reference for
    :class:`~treedamp.expressions.CoefficientSet`: built from
    :func:`dense_coefficients`, every family on every edge, one gather of
    all ``2 (n + 1) m`` functions onto the merged cells, and ``present``
    read per function."""
    b, c = dense_coefficients(coeffs)
    m, count = coeffs.tree.m, 2 * coeffs.n + 2
    funcs = [p for row in b + c for p in row]
    present = np.reshape([p.coefs.any() for p in funcs], (count, m))
    given = EdgePieces.of(funcs)
    pieces, table = given.pieces, given.table
    cells = EdgePieces.merged(pieces.break_edge % m, pieces.breaks, np.zeros(m),
                              np.asarray(coeffs.tree.lengths))
    rows = _gather(table, pieces.edge, pieces.left,
                   (np.arange(count)[:, None] * m + cells.edge).ravel(),
                   np.tile(cells.mid, count), np.tile(cells.left, count))
    fam, edge = np.divmod(pieces.break_edge, m)
    live = present[fam, edge]
    return _Families(cells, rows.reshape(count, len(cells.edge), -1).transpose(1, 0, 2),
                     np.reshape([p.coefs.shape[1] for p in funcs], (count, m)),
                     (fam[live], edge[live], pieces.breaks[live]), present)


def merge_breaks(arrays, tol: float) -> np.ndarray:
    """Union of breakpoint arrays with coincident points coalesced: a point
    within ``tol`` of its predecessor in sorted order is dropped."""
    pts = np.sort(np.concatenate([np.asarray(a, dtype=float).ravel() for a in arrays]))
    return pts[np.concatenate(([True], np.diff(pts) > tol))]


def find_rows(edge, left, q_edge, q_t) -> np.ndarray:
    """The reference for :func:`treedamp.piecewise._find`: one ``lexsort``
    of rows and queries on ``(edge, t)`` keys, a row sorting before a query
    at the same point, and a count of the rows sorted before each query,
    held to the query edge's first row."""
    rows = len(edge)
    order = np.lexsort((np.repeat([0, 1], [rows, len(q_t)]), np.concatenate([left, q_t]),
                        np.concatenate([edge, q_edge])))
    at = np.flatnonzero(order >= rows)  # where the queries sorted to
    q = order[at] - rows
    # the rows keep their order in the sort, so the rows before a query
    # number one more than the index of the last of them
    src = np.empty(len(q_t), dtype=np.intp)
    src[q] = np.maximum(at - np.arange(len(at)) - 1, np.searchsorted(edge, q_edge[q]))
    return src


def break_tol(p) -> float:
    """The tolerance to which two breaks of ``p`` coincide."""
    return BREAK_RTOL * max(1.0, abs(float(p.breaks[0])), abs(float(p.breaks[-1])))


def piece_at(p, t: float) -> int:
    """The piece of ``p`` that holds ``t``, right-continuous at breaks, the
    end pieces beyond the domain."""
    return min(max(int(np.searchsorted(p.breaks, t, side="right")) - 1, 0), p.npieces - 1)


class Poly(PiecewisePoly):
    """:class:`~treedamp.piecewise.PiecewisePoly` with the per-edge algebra
    the oracle runs on: the ring operations, derivatives, integrals,
    restriction, shifting, concatenation and jumps, each whole-table numpy
    work with no loop over pieces.

    Operands with different breaks are first refined onto the merged
    breaks, each new piece re-centred from the old one holding it by one
    batched Taylor shift.  Every result is a :class:`Poly` again; the other
    operand may be any piecewise polynomial.
    """

    __slots__ = ()

    @classmethod
    def of(cls, p) -> "Poly":
        """``p`` itself as a :class:`Poly`, sharing its table."""
        return p if isinstance(p, cls) else cls._of(p.breaks, p.coefs)

    @classmethod
    def single(cls, a: float, b: float, coefs) -> "Poly":
        """One polynomial piece, coefficients in powers of ``t - a``."""
        return cls([a, b], [np.asarray(coefs)])

    def jumps(self) -> list:
        """(breakpoint, right minus left limit) at every interior breakpoint."""
        left = _poly_val(self._c[:-1], np.diff(self.breaks[:-1]))
        gaps = self._c[1:, 0] - left
        return list(zip(self.breaks[1:-1].tolist(), gaps.tolist()))

    def derivative(self, k: int = 1) -> "Poly":
        return self._of(self.breaks, _poly_der(self._c, k))

    def integral(self) -> complex:
        """Sum of the piece integrals, a running sum in piece order."""
        return complex(np.cumsum(_integrals(self._c, np.diff(self.breaks)))[-1])

    def l2_norm_sq(self) -> float:
        return float((self * self.conj()).integral().real)

    def min_abs(self) -> float:
        """Exact minimum of ``|p|`` over the domain."""
        return float(_abs_min(self._c, np.diff(self.breaks)).min())

    def refined(self, extra_breaks) -> "Poly":
        """Same function on a breakpoint set enlarged by ``extra_breaks``;
        ``self`` itself when no break is new."""
        tol = break_tol(self)
        a, b = self.domain
        extra = np.asarray(extra_breaks, dtype=float).ravel()
        extra = extra[(extra > a + tol) & (extra < b - tol)]
        if not extra.size:
            return self
        return self._onto(merge_breaks([self.breaks, extra], tol))

    def _onto(self, breaks: np.ndarray) -> "Poly":
        """Same function on ``breaks``, which refine ``self.breaks`` up to the
        break tolerance; ``self`` itself when they are ``self.breaks``.  Each
        new piece copies the row of the old piece holding its midpoint."""
        if len(breaks) == len(self.breaks) and np.array_equal(breaks, self.breaks):
            return self
        table = _gather(self._c, np.zeros(self.npieces, dtype=int), self.breaks[:-1],
                        np.zeros(len(breaks) - 1, dtype=int), 0.5 * (breaks[:-1] + breaks[1:]),
                        breaks[:-1])
        return self._of(breaks, table)

    def restrict(self, a: float, b: float) -> "Poly":
        tol = break_tol(self)
        lo, hi = self.domain
        if a < lo - tol or b > hi + tol or b - a <= tol:
            raise ValueError(f"restriction [{a}, {b}] outside domain [{lo}, {hi}]")
        a = min(max(a, lo), hi)
        b = min(max(b, lo), hi)
        i0 = piece_at(self, a + tol)
        i1 = piece_at(self, b - tol)
        breaks = self.breaks[i0 : i1 + 2].copy()
        table = self._c[i0 : i1 + 1]
        if breaks[0] != a:  # the first piece now starts at a
            table = table.copy()
            _taylor_shift(table[:1], np.array([a - breaks[0]]))
        breaks[0], breaks[-1] = a, b
        return self._of(breaks, table)

    def shift(self, dt: float) -> "Poly":
        """Translate the graph: result(t) = self(t - dt)."""
        return self._of(self.breaks + dt, self._c)

    def concat(self, other) -> "Poly":
        tol = max(break_tol(self), break_tol(other))
        if abs(self.breaks[-1] - other.breaks[0]) > tol:
            raise ValueError("domains are not adjacent")
        breaks = np.concatenate([self.breaks, other.breaks[1:]])
        table = np.zeros((self.npieces + other.npieces, max(self._c.shape[1], other.coefs.shape[1])),
                         dtype=complex)
        table[: self.npieces, : self._c.shape[1]] = self._c
        table[self.npieces :, : other.coefs.shape[1]] = other.coefs
        return self._of(breaks, table)

    def conj(self) -> "Poly":
        return self._of(self.breaks, self._c.conj())

    def _aligned(self, other):
        """Both operands on the merged breaks; each is returned itself when
        none of the merged breaks is new to it."""
        other = Poly.of(other)
        if np.array_equal(self.breaks, other.breaks):
            return self, other
        tol = max(break_tol(self), break_tol(other))
        sa, sb = self.domain
        oa, ob = other.domain
        if abs(sa - oa) > tol or abs(sb - ob) > tol:
            raise ValueError(f"domain mismatch: [{sa}, {sb}] vs [{oa}, {ob}]")
        breaks = merge_breaks([self.breaks, other.breaks], tol)
        breaks[0], breaks[-1] = self.breaks[0], self.breaks[-1]
        return self._onto(breaks), other._onto(breaks)

    def __add__(self, other):
        if np.isscalar(other):
            other = Poly.constant(*self.domain, other)
        p, q = self._aligned(other)
        if p._c.shape[1] < q._c.shape[1]:
            p, q = q, p
        table = p._c.copy()
        table[:, : q._c.shape[1]] += q._c
        return self._of(p.breaks, table)

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self):
        return self._of(self.breaks, -self._c)

    def __sub__(self, other):
        if np.isscalar(other):
            other = Poly.constant(*self.domain, other)
        return self.__add__(-Poly.of(other))

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if np.isscalar(other):
            return self._of(self.breaks, self._c * other)
        p, q = self._aligned(other)
        return self._of(p.breaks, _convolve(p._c, q._c))

    def __rmul__(self, other):
        return self.__mul__(other)


def poly(p) -> Poly:
    """Shorthand for :meth:`Poly.of`."""
    return Poly.of(p)


def tree_function(tree, n: int, comps, history) -> TreeFunction:
    """The trajectory of the per-edge ``comps`` (edge ``j``'s at index
    ``j - 1``) and the root ``history``, the components tabled once."""
    return TreeFunction(tree, n, EdgePieces.of(comps), history)


def scaled(y, alpha) -> TreeFunction:
    """The trajectory ``alpha * y``, history included."""
    return tree_function(y.tree, y.n, [poly(p) * alpha for p in y.components],
                         poly(y.history) * alpha)


def g_recursion(weights: list) -> list:
    """Descending recursion on an explicit weight table for one edge.

    ``weights[k]`` is the coefficient of ``conj(w^(k))`` for ``k = 0..n``;
    the return value lists the orders ``n..2n`` in that order.  A separate,
    generic implementation, so the inline recursion of
    :func:`treedamp.diagnostics.quasi_derivatives` can be cross-checked
    against it.
    """
    n = len(weights) - 1
    out = [poly(weights[n])]
    for l in range(1, n + 1):
        out.append(poly(weights[n - l]) - out[-1].derivative())
    return out


def delayed_part(y, j: int):
    """The delayed read ``t -> y_j(t - tau)`` as a function on ``[0, T_j]``."""
    tau = y.tau
    Tj = y.tree.length(j)
    if j == 1:
        head = poly(y.history).shift(tau)
    else:
        p = y.tree.parent_of(j)
        Tp = y.tree.length(p)
        head = poly(y.component(p)).restrict(Tp - tau, Tp).shift(tau - Tp)
    return head.concat(poly(y.component(j)).restrict(0.0, Tj - tau).shift(tau))


def advanced_part(g, tree, tau: float, j: int):
    """The adjoint of :func:`delayed_part` on edge ``j``, on ``[0, l_j]``.

    ``g[nu - 1]`` is a function on ``[0, T_nu]`` per edge ``nu``.  Summed
    over the edges, the integral of ``delayed_part(y, nu) * conj(g[nu - 1])``
    equals that of ``y_j * conj(advanced_part(g, tree, tau, j))`` for every
    ``y`` with zero history: the advanced read ``g_j(t + tau)`` on
    ``[0, T_j - tau]`` and, on the last delay window of an internal edge,
    the sum of the children's reads ``g_nu(t - T_j + tau)``.  ``l_j`` is
    ``T_j`` on internal edges and ``T_j - tau`` on boundary edges, whose
    last window no delayed read reaches.
    """
    Tj = tree.length(j)
    early = poly(g[j - 1]).restrict(tau, Tj).shift(-tau)
    if j > tree.d:
        return early
    reads = [poly(g[nu - 1]).restrict(0.0, tau).shift(Tj - tau) for nu in children(tree, j)]
    return early.concat(sum(reads[1:], reads[0]))


def terms(coeffs, j: int) -> list:
    """``(k, b_kj, c_kj)`` for ``k=0..n``; an absent coefficient is given as
    ``None``.  Multiplying by a zero coefficient would add the lead-in's
    breaks to ``L y``, so every route here skips its term."""
    n, present = coeffs.n, coeffs.present[:, j - 1]
    return [(k, coeffs.terms[k, j] if present[k] else None,
             coeffs.terms[n + 1 + k, j] if present[n + 1 + k] else None) for k in range(n + 1)]


def changes(p) -> np.ndarray:
    """The interior breakpoints where ``p`` switches polynomial: the left
    piece, re-centred at the break, differs from the right one by more
    than ``SAME_POLY_RTOL`` of their largest coefficient."""
    if p.npieces == 1:
        return p.breaks[1:-1]
    left = _taylor_shift(p.coefs[:-1].copy(), np.diff(p.breaks[:-1]))
    right = p.coefs[1:]
    scale = np.maximum(np.abs(left).max(axis=1), np.abs(right).max(axis=1))
    same = np.abs(left - right).max(axis=1) <= SAME_POLY_RTOL * scale
    return p.breaks[1:-1][~same]


def breakpoints(coeffs, j: int) -> np.ndarray:
    """Interior points of edge ``j`` where some coefficient switches
    polynomial, coefficient by coefficient: every one's :func:`changes`,
    merged within ``BREAK_RTOL * max(1, T_j)``."""
    Tj = coeffs.tree.length(j)
    arrays = [np.array([0.0, Tj])]
    for (_, e), p in coeffs.terms.items():
        if e == j:
            arrays.append(changes(p))
    return merge_breaks(arrays, BREAK_RTOL * max(1.0, Tj))[1:-1]


def apply_operator(y, coeffs, j: int):
    """The edge operator ``L_j y`` on ``[0, T_j]``, term by term."""
    acc = Poly.zero(0.0, y.tree.length(j))
    delayed = delayed_part(y, j)
    for k, b, c in terms(coeffs, j):
        if b is not None:
            acc = acc + poly(b) * poly(y.component(j)).derivative(k)
        if c is not None:
            acc = acc + poly(c) * delayed.derivative(k)
    return acc


def operator_components(y, coeffs) -> list:
    """``[L_1 y, ..., L_m y]`` by :func:`apply_operator`."""
    return [apply_operator(y, coeffs, j) for j in range(1, y.tree.m + 1)]


def variation_weights(coeffs, ells, k: int) -> list:
    """Weights of ``conj(w^(k))`` in the re-indexed first variation, edge
    ``j``'s at index ``j - 1``, edge by edge: ``conj(b_kj) * ells_j`` on
    ``[0, l_j]`` plus the advanced read of ``conj(c_k) * ells``.  Each
    product is formed once per edge; a zero coefficient gives a zero
    function without one."""
    tree, tau = coeffs.tree, coeffs.tau
    own, read = [], []
    for j in range(1, tree.m + 1):
        _, b, c = terms(coeffs, j)[k]
        zero = Poly.zero(0.0, tree.length(j))
        own.append(zero if b is None else poly(b).conj() * ells[j - 1])
        read.append(zero if c is None else poly(c).conj() * ells[j - 1])
    return [
        own[j - 1].restrict(0.0, reduced_length(tree, tau, j)) + advanced_part(read, tree, tau, j)
        for j in range(1, tree.m + 1)
    ]


def reduced_length(tree, tau: float, j: int) -> float:
    """Length of the active window of edge ``j``: boundary edges rest on
    their final delay window, internal edges stay active to the far vertex."""
    Tj = tree.length(j)
    return Tj if j <= tree.d else Tj - tau


def eval_delayed(y, j: int, t: float, k: int = 0) -> complex:
    """``y_j^(k)(t)`` for ``t`` in ``[-tau, T_j]``; negative times read the
    parent edge, or the history on the root edge."""
    if t >= 0.0:
        return eval_at(y.component(j), t, k)
    if j == 1:
        return eval_at(y.history, t, k)
    p = y.tree.parent_of(j)
    return eval_at(y.component(p), t + y.tree.length(p), k)


def inner(a, b) -> complex:
    """The integral of ``a`` times ``conj(b)`` over their common domain."""
    return (poly(a) * poly(b).conj()).integral()


def energy(y, coeffs) -> float:
    """The squared L2 norm of ``L y`` over the tree."""
    return sum(poly(p).l2_norm_sq() for p in operator_components(y, coeffs))


def energy_product(y, w, coeffs) -> complex:
    """The integral of ``L y`` against ``conj(L w)`` over the tree."""
    ly, lw = operator_components(y, coeffs), operator_components(w, coeffs)
    return complex(sum((inner(a, b) for a, b in zip(ly, lw)), 0.0j))


def energy_product_reindexed(y, w, coeffs) -> complex:
    """:func:`energy_product` through the re-indexed variation weights.

    Valid when ``w`` is a perturbation (zero history, matched vertices,
    resting tails): every delayed read of ``w`` is moved back to its home
    edge, so only the active windows ``[0, l_j]`` contribute.
    """
    ells = operator_components(y, coeffs)
    total = 0.0j
    for k in range(coeffs.n + 1):
        for j, weight in enumerate(variation_weights(coeffs, ells, k), start=1):
            lj = reduced_length(y.tree, coeffs.tau, j)
            total += inner(weight, poly(w.component(j)).derivative(k).restrict(0.0, lj))
    return complex(total)


def smoothness_defect(y) -> float:
    """Largest jump of a derivative of order below ``n`` inside an edge or
    the history."""
    worst = 0.0
    for p in (*y.components, y.history):
        for k in range(y.n):
            for _, gap in poly(p).derivative(k).jumps():
                worst = max(worst, abs(gap))
    return worst


def vertex_defect(y) -> float:
    """Largest mismatch of a derivative of order below ``n`` across a vertex."""
    worst = 0.0
    for j in range(2, y.tree.m + 1):
        p = y.tree.parent_of(j)
        for k in range(y.n):
            a = y.component(j).right_limit(0.0, k)
            b = y.component(p).left_limit(y.tree.length(p), k)
            worst = max(worst, abs(a - b))
    return worst


def history_defect(y) -> float:
    """Largest mismatch between the end of the history and the start of the
    root edge, over the derivatives of order below ``n``."""
    return max(abs(y.history.left_limit(0.0, k) - y.component(1).right_limit(0.0, k))
               for k in range(y.n))


def admissibility_report(y, tau: float) -> dict:
    """How far ``y`` is from the perturbation space: ``history`` (its L2
    norm), ``start`` (largest initial derivative on the root edge),
    ``vertex``, ``tails`` (largest L2 norm over a boundary resting window)
    and ``smoothness``; all zero up to roundoff for a perturbation."""
    tree = y.tree
    tails = 0.0
    for j in range(tree.d + 1, tree.m + 1):
        Tj = tree.length(j)
        tails = max(tails, math.sqrt(poly(y.component(j)).restrict(Tj - tau, Tj).l2_norm_sq()))
    return {
        "history": math.sqrt(poly(y.history).l2_norm_sq()),
        "start": max(abs(y.component(1).right_limit(0.0, k)) for k in range(y.n)),
        "vertex": vertex_defect(y),
        "tails": tails,
        "smoothness": smoothness_defect(y),
    }


def is_admissible(y, tau: float, tol: float = 1e-9) -> bool:
    return max(admissibility_report(y, tau).values()) <= tol


def unit(basis, p: int):
    """Basis function ``p``: DOF ``p`` set to 1, all others 0."""
    e = np.zeros(basis.ndof, dtype=complex)
    e[p] = 1.0
    return basis.tree_function(e)


def dense_gram(basis, lift, coeffs):
    """The Gram system ``(G, f)`` as dense arrays, by exact piecewise algebra:
    ``G[p, r]`` is the energy product of basis function ``r`` against basis
    function ``p`` and ``f[p]`` minus that of the lift.

    No quadrature grid and no shape tabulation is shared with the assembly.
    The operator images are formed once per function instead of once per
    pair, and an edge where either image is identically zero contributes
    exactly zero.  The lift rides along as the last function.
    """
    return _gram_of([operator_components(u, coeffs) for u in _members(basis, lift)])


def _members(basis, lift) -> list:
    """Every basis function, then the lift."""
    return [unit(basis, p) for p in range(basis.ndof)] + [lift]


def _gram_of(ells) -> tuple:
    """:func:`dense_gram` from the operator images of :func:`_members`."""
    nd = len(ells) - 1
    live = [{j for j, e in enumerate(ell) if any(c.any() for c in e.coefs)} for ell in ells]

    def product(a, b):  # energy_product of function a against function b
        return sum((inner(ells[a][j], ells[b][j]) for j in live[a] & live[b]), 0.0j)

    G = np.array([[product(r, p) for r in range(nd)] for p in range(nd)]).reshape(nd, nd)
    f = np.array([-product(nd, p) for p in range(nd)], dtype=complex)
    return G, f


def control_values(y, coeffs, j: int, t: np.ndarray) -> np.ndarray:
    """``L_j y`` at the times ``t`` of edge ``j``, term by term from the
    values of ``y`` there and at ``t - tau`` (:func:`eval_delayed`'s rule);
    no polynomial of ``L_j y`` is formed."""
    own, d = y.component(j), t - coeffs.tau
    early = d < 0.0
    if j == 1:
        head, at = y.history, d
    else:
        p = y.tree.parent_of(j)
        head, at = y.component(p), d + y.tree.length(p)
    out = np.zeros(len(t), dtype=complex)
    for k, b, c in terms(coeffs, j):
        if b is not None:
            out += b.values(t) * own.values(t, k)
        if c is not None:
            read = np.where(early, head.values(np.where(early, at, head.breaks[0]), k),
                            own.values(np.where(early, 0.0, d), k))
            out += c.values(t) * read
    return out


def _lift_parts(basis, lift) -> list:
    """The lift as ``(weight, function)`` pairs that sum to it: the history
    read alone, then each Hermite shape of the root start, weighted by the
    history's end derivative.  A shape is a row of the basis's table, so
    no weighted sum of shapes is rounded into a polynomial."""
    phi, tree, n, root = lift.history, lift.tree, lift.n, lift.component(1)
    assert list(basis.rows[0, :n]) == list(range(basis.ndof, basis.ndof + n))
    zeros = tuple(PiecewisePoly.zero(0.0, tree.length(j)) for j in range(1, tree.m + 1))
    parts = [(1.0, tree_function(tree, n, zeros, phi))]
    for k in range(n):
        table = np.zeros((root.npieces, 2 * n), dtype=complex)
        table[0] = basis.shapes[0, k]
        shape = tree_function(tree, n, (PiecewisePoly(root.breaks, table),) + zeros[1:],
                              PiecewisePoly.zero(*phi.domain))
        parts.append((phi.left_limit(0.0, k), shape))
    return parts


def dense_energy(basis, lift, coeffs) -> float:
    """The minimal energy on ``lift + span(basis)`` from :func:`dense_gram`,
    solved by a dense Cholesky factorisation.

    The energy is integrated on Gauss points of the pieces of every
    member's ``L y``, exact for their degree, from the control's values
    there: the :func:`control_values` of each basis function and of each
    of :func:`_lift_parts`, weighted and summed point by point.  Summing
    the weighted shapes into the control's local-power coefficients first,
    as ``L y`` does, reads up to about 1e-12 relative off the exact minimum
    on order-3 trees."""
    members = _members(basis, lift)
    ells = [operator_components(u, coeffs) for u in members]
    G, f = _gram_of(ells)
    x = scipy.linalg.cho_solve(scipy.linalg.cho_factor(G), f) if basis.ndof else f
    parts = list(zip(x, members[:-1])) + _lift_parts(basis, lift)
    total = 0.0
    for j, images in enumerate(zip(*ells), start=1):  # the lift's image has its parts' breaks
        breaks = np.unique(np.concatenate([p.breaks for p in images]))
        gx, gw = np.polynomial.legendre.leggauss(max(p.max_degree for p in images) + 1)
        h = np.diff(breaks)[:, None]
        t = (breaks[:-1, None] + 0.5 * h * (gx + 1.0)).ravel()
        u = sum(w * control_values(y, coeffs, j, t) for w, y in parts)
        total += float((0.5 * h * gw).ravel() @ (u.real ** 2 + u.imag ** 2))
    return total


def least_squares_dofs(gram) -> np.ndarray:
    """The minimiser of ``|W^(1/2) (L phi + L^T x)|`` by LAPACK's dense
    SVD-based least-squares solve.  It never forms ``G``, so its error grows
    with the condition number of the weighted images, not with its square."""
    sw, ndof = np.sqrt(gram.weights), gram.matrix.ndof
    slots = gram.basis_values.T  # (points, slots), the slots' DOFs repeated per point of a cell
    rows = np.repeat(gram.matrix.at, len(slots) // len(gram.matrix.at), axis=0)
    A = np.zeros((len(slots), ndof + 1), dtype=complex)
    np.add.at(A, (np.arange(len(slots))[:, None], rows), slots)
    A = A[:, :ndof] * sw[:, None]
    return np.linalg.lstsq(A, -sw * gram.lift_values, rcond=None)[0]


def interpolate(basis, y) -> np.ndarray:
    """DOF vector sampling ``y`` at the free nodes, read element by element:
    the right limit at an element's left node, the left limit at its right
    node.  A node shared by several elements is read once from each; the
    root start (rows from ``ndof`` on) and the resting tails are skipped."""
    n = basis.n
    out = np.zeros(basis.ndof, dtype=complex)
    offsets = basis.mesh.elements.offsets
    for j, xs in enumerate(basis.mesh.nodes, start=1):
        p = y.component(j)
        for e, dofs in enumerate(basis.rows[offsets[j - 1]:offsets[j]]):
            for k in range(n):
                for dof, value in ((dofs[k], p.right_limit(xs[e], k)),
                                   (dofs[n + k], p.left_limit(xs[e + 1], k))):
                    if 0 <= dof < basis.ndof:
                        out[dof] = value
    return out


def depth_offset(tree, j: int) -> float:
    """Total length of the strict ancestors of edge ``j``, nearest first."""
    total, p = 0, tree.parent_of(j)
    while p:
        total, p = total + tree.length(p), tree.parent_of(p)
    return total


def build_mesh(tree, tau: float, q: int, sources=(0.0,), local_points=((), ())) -> DelayMesh:
    """The delay mesh edge by edge, the reference for
    :func:`treedamp.meshing.build_mesh`: every source's images stepped one
    by one onto every edge, merged with the edge's mandatory points as sets,
    every gap split on its own.  ``local_points`` is a pair of 0-based edges
    and points."""
    local = {}
    for e, t in zip(*local_points):
        local.setdefault(int(e) + 1, []).append(t)
    all_nodes = []
    for j in range(1, tree.m + 1):
        Tj = tree.length(j)
        offset = depth_offset(tree, j)
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
        mandatory |= {float(t) for t in local.get(j, ()) if 0.0 < t < Tj}
        base = merge_breaks([sorted(mandatory)], tol)
        xs = [base[0]]
        hmax = tau / q
        for a, b in zip(base[:-1], base[1:]):
            nseg = max(1, math.ceil((b - a) / hmax - 1e-9))
            xs.extend(a + (b - a) * np.arange(1, nseg + 1) / nseg)
        xs = np.array(xs)
        xs[0], xs[-1] = 0.0, Tj
        all_nodes.append(xs)
    return DelayMesh.from_nodes(tree, float(tau), int(q), tuple(all_nodes))


def dof_numbering(mesh, n: int):
    """``(rows, ndof)`` of :class:`~treedamp.meshing.Basis` numbered node by
    node: edge by edge, each edge's first node is its parent's last one and
    every further node gets the next id, free unless it sits in a boundary
    edge's resting tail."""
    tree = mesh.tree
    gid = []  # per edge: global node id for each local node
    free = [False]  # per gid; the root start is known from the history
    for j in range(1, tree.m + 1):
        xs = mesh.nodes[j - 1]
        Tj = tree.length(j)
        tail_from = Tj - mesh.tau - 1e-9 * max(1.0, Tj)
        first = 0 if j == 1 else gid[tree.parent_of(j) - 1][-1]
        gid.append([first] + [len(free) + i for i in range(len(xs) - 1)])
        free += [not (j > tree.d and t >= tail_from) for t in xs[1:]]
    ndof = n * sum(free)
    first, count = [], 0  # per gid: the DOF of derivative 0, -1 when fixed
    for f in free:
        first.append(n * count if f else -1)
        count += f
    first[0] = ndof
    rows = [[first[v] + k if first[v] >= 0 else -1 for v in (a, b) for k in range(n)]
            for g in gid for a, b in zip(g[:-1], g[1:])]
    return np.array(rows, dtype=int).reshape(-1, 2 * n), ndof


def windows(mesh):
    """The delay windows edge by edge, the reference for
    :attr:`treedamp.meshing.DelayMesh.windows`: from an edge's first
    element on, a window takes the next element while that element's right
    node lies within the window's left node plus ``tau`` (to the ``1e-9``
    slack), and at least one; its parent is the window before it on the
    edge, or the parent edge's last window.  Returns ``(of, first, end,
    parent, depth)``."""
    tree, reach = mesh.tree, mesh.tau * (1 + 1e-9)
    of, first, end, parent, depth = [], [], [], [], []
    last = {0: -1}  # per edge: its last window, -1 before the root
    e0 = 0  # the edge's first element
    for j in range(1, tree.m + 1):
        xs = mesh.nodes[j - 1]
        p, a = last[tree.parent_of(j)], 0
        while a < len(xs) - 1:
            b = a + 1
            while b < len(xs) - 1 and xs[b + 1] <= xs[a] + reach:
                b += 1
            of += [len(first)] * (b - a)
            first.append(e0 + a)
            end.append(e0 + b)
            parent.append(p)
            depth.append(depth[p] + 1 if p >= 0 else 0)
            p, a = len(first) - 1, b
        last[j] = p
        e0 += len(xs) - 1
    return tuple(np.array(v, dtype=int) for v in (of, first, end, parent, depth))


def lead_ins(breaks, tree, tau: float):
    """Edge by edge, where the delayed reads land, the reference for
    :func:`treedamp.expressions.lead_ins`: the pieces whose right end lies
    after ``T_p - tau`` of the parent ``p`` (of the history, ``breaks[m]``
    when given, on the root, with ``T_p`` 0), then all of the edge's own.
    ``breaks[j-1]`` holds edge ``j``'s breaks; rows are numbered in that
    order.  Returns the reading edges (0-based), the rows and the shifts."""
    first = np.cumsum([0] + [len(b) - 1 for b in breaks])
    edge, rows, shift = [], [], []
    for j in range(1, tree.m + 1):
        p = tree.parent_of(j)
        head, T = (p - 1, tree.length(p)) if p else (tree.m, 0.0)
        reads = []
        if head < len(breaks):
            reads = [(first[head] + i, T) for i, b in enumerate(breaks[head][1:]) if b > T - tau]
        reads += [(first[j - 1] + i, 0.0) for i in range(len(breaks[j - 1]) - 1)]
        edge += [j - 1] * len(reads)
        rows += [r for r, _ in reads]
        shift += [t for _, t in reads]
    return np.array(edge), np.array(rows), np.array(shift)


def trajectory_distance(y, z) -> float:
    """L2 distance between two trajectories over the tree."""
    return math.sqrt(sum((poly(a) - b).l2_norm_sq() for a, b in zip(y.components, z.components)))


def solve_cauchy(tree, coeffs, phi, control, mesh, terms=False):
    """Forward simulation edge by edge, the reference for
    :func:`treedamp.cauchy.solve_cauchy`: per edge, one inverted ``(elements,
    deg, deg)`` collocation stack (LAPACK, refined twice), delayed reads
    before the edge or in its first delay window evaluated on the history or
    on the parent's finished component, and a sweep of the edge's delay
    windows with the ``n``-vector state chain element by element.

    With ``terms``, also the largest term summed on the way to the
    trajectory's derivatives below ``n``: the largest entry, over the
    elements, of ``|B P_e| |state_e| + |B Q_e| |rhs_e|`` (the state chain)
    and of those derivatives of ``x_e = P_e state_e + Q_e rhs_e`` bounded
    term by term on the element.  It is the scale of their roundoff, which
    exceeds the trajectory's own where the integrated control cancels."""
    n = coeffs.n
    tau = coeffs.tau
    reach = tau * (1 + 1e-9)
    # Gauss points per element: the local degree n + g - 1 is then at least
    # 2n, above the degree 2n - 1 of the trajectories damp computes
    g = max(3, n + 1)
    deg = n + g  # local coefficients per element
    gauss, _ = np.polynomial.legendre.leggauss(g)
    sigma = 0.5 * (gauss + 1.0)  # collocation abscissae on [0, 1]
    # derivatives 0..n-1 of the powers of sigma at the element ends, 0..n at the abscissae
    ends = np.array([derivative_powers([0.0, 1.0], k, deg) for k in range(n)])
    at0, at1 = ends[:, 0], ends[:, 1]
    at_gauss = [derivative_powers(sigma, k, deg) for k in range(n + 1)]

    # every edge's collocation points, and every coefficient on them in one read
    elements = EdgePieces(np.concatenate(mesh.nodes),
                          np.cumsum([0] + [len(xs) - 1 for xs in mesh.nodes]))
    t_all = elements.left[:, None] + elements.h[:, None] * sigma
    values = coeffs.values(elements.edge.repeat(g), t_all.ravel()).reshape(-1, *t_all.shape)

    comps = []
    exits = []  # each edge's state at its far end
    summed = 0.0
    for j in range(1, tree.m + 1):
        xs = mesh.nodes[j - 1]
        h = np.diff(xs)
        E = len(h)
        at = slice(elements.offsets[j - 1], elements.offsets[j])
        t, b, c = t_all[at], values[: n + 1, at], values[n + 1 :, at]  # t: (E, g)
        inv_h = h[:, None] ** -np.arange(deg)  # d/dt = (1/h) d/dsigma
        # delayed reads before the edge starts go to the history or the parent's tail
        if j == 1:
            past, shift = phi, 0.0
            state = np.array([phi.left_limit(0.0, k) for k in range(n)])
        else:
            p = tree.parent_of(j)
            past, shift, state = comps[p - 1], tree.length(p), exits[p - 1]

        # every element's collocation matrix: state rows, then the relation at the abscissae
        A = np.zeros((E, deg, deg), dtype=complex)
        A[:, :n] = at0 * inv_h[:, :n, None]
        for k in np.flatnonzero(coeffs.present[: n + 1, j - 1]):
            A[:, n:] += (b[k] * inv_h[:, k, None])[..., None] * at_gauss[k]
        inv = np.linalg.solve(A, np.eye(deg))
        for _ in range(2):  # refine: the state chain amplifies the inverse's error
            inv += np.einsum("eij,ejk->eik", inv, np.eye(deg) - np.einsum("eij,ejk->eik", A, inv))
        P, Q = inv[..., :n], inv[..., n:]  # x_e = P_e state + Q_e rhs_e
        BI = np.einsum("eij,ejk->eik", at1 * inv_h[:, :n, None], inv)  # the end state is B_e x_e
        BP, BQ = BI[..., :n], BI[..., n:]

        # the window starting at node a ends at node last[a]
        last = np.maximum(np.searchsorted(xs, xs[:-1] + reach, side="right") - 1,
                          np.arange(1, E + 1))
        rhs = control[j - 1].values(t)
        s = t - tau
        before = s < 0.0
        before[: last[0]] = True  # the first window reads only the past
        src = np.maximum(np.searchsorted(xs, s, side="right") - 1, 0)
        read = np.zeros((E, g, deg), dtype=complex)  # sum of c_k d^k/dt^k at t - tau in element src
        for k in np.flatnonzero(coeffs.present[n + 1 :, j - 1]):
            rhs[before] -= c[k][before] * past.values(s[before] + shift, k)
            dk = derivative_powers((s - xs[src]).ravel(), k, deg).reshape(E, g, deg)
            read += np.where(before, 0.0, c[k])[..., None] * dk

        coef = np.zeros((E, deg), dtype=complex)  # powers of t - xs[e]
        states = np.empty((E, n), dtype=complex)  # the state entering each element
        a = 0
        while a < E:
            w = slice(a, last[a])
            if a:
                rhs[w] -= np.einsum("epi,epi->ep", read[w], coef[np.minimum(src[w], a - 1)])
            carry = np.einsum("eij,ej->ei", BQ[w], rhs[w])
            for e in range(a, last[a]):
                states[e] = state
                state = BP[e] @ state + carry[e - a]
            x = np.einsum("eij,ej->ei", P[w], states[w]) + np.einsum("eij,ej->ei", Q[w], rhs[w])
            coef[w] = x * inv_h[w]
            summed = max(summed, np.max(np.einsum("eij,ej->ei", np.abs(BP[w]), np.abs(states[w]))
                                        + np.einsum("eij,ej->ei", np.abs(BQ[w]), np.abs(rhs[w]))))
            tx = np.einsum("eij,ej->ei", np.abs(P[w]), np.abs(states[w])) + \
                np.einsum("eij,ej->ei", np.abs(Q[w]), np.abs(rhs[w]))
            for k in range(n):  # bounds the terms of derivative k anywhere on the element
                summed = max(summed, np.max(tx @ derivative_powers([1.0], k, deg)[0] * inv_h[w, k]))
            a = last[a]
        comps.append(PiecewisePoly._of(xs, coef))
        exits.append(state)

    y = tree_function(tree, n, comps, phi)
    return (y, summed) if terms else y


def weak_residual_symbolic(y, basis, coeffs) -> dict:
    """First variation of ``y`` against every basis function, through
    :func:`energy_product_reindexed`: no quadrature grid, every product is
    integrated piece by piece.  Same keys as
    :func:`treedamp.damping.optimality_check`, with ``max_rel`` relative to
    the norms of ``L y`` and ``L w_p``."""
    if basis.ndof == 0:
        return {"max_abs": 0.0, "max_rel": 0.0, "per_basis": np.zeros(0, dtype=complex)}
    units = [unit(basis, p) for p in range(basis.ndof)]
    vals = np.array([energy_product_reindexed(y, w, coeffs) for w in units])
    norms = np.sqrt([max(energy(w, coeffs), 0.0) for w in units])
    scale = norms * np.sqrt(max(energy(y, coeffs), 0.0))
    rel = np.abs(vals) / np.where(scale > 0, scale, 1.0)
    return {"max_abs": float(np.max(np.abs(vals))), "max_rel": float(np.max(rel)),
            "per_basis": vals}


def energy_dominance_check(sol, trials: int = 100, seed: int = 0) -> dict:
    """Random second-order check that ``sol.y`` is a minimiser.

    Draws random members ``v`` of the discrete perturbation space and
    reports the smallest ``J(y + v) - J(y)`` relative to
    ``max(1, J(y) + J(v))``; ``ok`` when it is above ``-1e-10``.
    """
    rng = np.random.default_rng(seed)
    J = sol.energy
    worst, worst_scale = np.inf, 1.0
    ndof = sol.basis.ndof
    for _ in range(trials):
        v = sol.basis.tree_function(rng.standard_normal(ndof) + 1j * rng.standard_normal(ndof))
        margin = energy(sol.y + v, sol.coeffs) - J
        scale = max(1.0, J + energy(v, sol.coeffs))
        if margin / scale < worst / worst_scale:
            worst, worst_scale = margin, scale
    return {"min_margin": float(worst), "scale": float(worst_scale),
            "ok": bool(worst >= -1e-10 * worst_scale), "trials": trials}


def parse_piecewise(breaks, pieces, a: float, b: float) -> PiecewisePoly:
    """A piecewise record built entry by entry, as the exchange format
    defines it: every real ``x`` is ``complex(x, 0.0)``, every ``[re, im]``
    pair ``complex(re, im)``, the end breakpoints snap onto ``a`` and ``b``,
    and the public constructor pads ragged pieces."""
    breaks = [float(x) for x in breaks]
    breaks[0], breaks[-1] = a, b
    def num(x):
        return complex(float(x[0]), float(x[1])) if isinstance(x, list) else complex(float(x), 0.0)
    return PiecewisePoly(np.array(breaks), [np.array([num(x) for x in piece]) for piece in pieces])


def sample_times(p, per_piece: int = 4) -> np.ndarray:
    """Piece endpoints plus equispaced interior points, sorted, each time
    once."""
    h = np.diff(p.breaks)[:, None]
    inner = p.breaks[:-1, None] + h * np.arange(1, per_piece) / per_piece
    return np.unique(np.concatenate([p.breaks, inner.ravel()]))


def write_csv(path, edge_ids, funcs, names: list) -> None:
    """The CSV of ``treedamp.cli`` written edge by edge: every edge's
    :func:`sample_times` evaluated by :meth:`PiecewisePoly.values`, one
    ``%.17g`` row per time."""
    header = ["edge", "t"] + [f"{part}_{name}" for name in names for part in ("re", "im")]
    lines = [",".join(header)]
    for eid, p in zip(edge_ids, funcs):
        times = sample_times(p)
        cols = [times]
        for k in range(len(names)):
            v = p.values(times, k)
            cols += [v.real, v.imag]
        row_fmt = f"{eid}," + ",".join(["%.17g"] * len(cols))
        lines += [row_fmt % tuple(row) for row in np.column_stack(cols).tolist()]
    path.write_text("\n".join(lines) + "\n")


def num_out(z):
    """A number as the exchange files write it: a real number when its
    imaginary part is zero, an ``[re, im]`` pair otherwise."""
    z = complex(z)
    return z.real if z.imag == 0.0 else [z.real, z.imag]


def piecewise_out(p) -> dict:
    """``{breaks, pieces}`` of one piecewise polynomial, entry by entry."""
    return {"breaks": [float(x) for x in p.breaks],
            "pieces": [[num_out(z) for z in cs] for cs in p.coefs]}


def control_text(edge_ids, funcs) -> str:
    """The control file written edge by edge from per-edge functions, one
    edge record per line."""
    records = (json.dumps({"id": eid, **piecewise_out(p)}) for eid, p in zip(edge_ids, funcs))
    return '{"edges": [\n' + ",\n".join(records) + "\n]}\n"


def poly_out(p) -> dict:
    """The ``{kind, data}`` record of a stored piecewise polynomial: a
    constant when it is one piece of one coefficient, else piecewise."""
    if p.npieces == 1 and p.coefs.shape[1] == 1:
        return {"kind": "constant", "data": num_out(p.coefs[0, 0])}
    return {"kind": "piecewise", "data": piecewise_out(p)}


def config_dict(cfg) -> dict:
    """A problem file in canonical form: canonical edge order, sorted
    coefficient records, absent coefficients (``present``) dropped.
    Parsing it reproduces the configuration."""
    ids, tree = (0,) + cfg.edge_ids, cfg.tree  # the root's parent is 0
    edges = [{"id": ids[j], "parent": ids[tree.parent_of(j)], "length": float(tree.length(j))}
             for j in range(1, tree.m + 1)]
    records = []
    for f, j in zip(*np.nonzero(cfg.coeffs.present)):
        fam, k = divmod(int(f), cfg.n + 1)
        records.append({"edge": cfg.edge_ids[j], "family": "bc"[fam], "k": k,
                        **poly_out(cfg.coeffs.terms[int(f), int(j) + 1])})
    records.sort(key=lambda r: (r["family"], r["k"], r["edge"]))
    return {"order": cfg.n, "delay": float(cfg.tau), "edges": edges, "coefficients": records,
            "history": poly_out(cfg.history),
            "solver": {"q": cfg.solver.q, "tolerance": cfg.solver.tolerance}}
