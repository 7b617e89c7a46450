"""Piecewise polynomials with complex coefficients, one function or one
per edge of a tree.

Every object in the solver pipeline (coefficients, trajectories, controls,
quasi-derivatives) is a piecewise polynomial, and the work after the solve
is exact: products convolve coefficient rows, derivatives and integrals act
on them, and no quadrature error enters anywhere.

Storage follows SciPy's ``PPoly``: the ``breaks`` plus one complex
``(npieces, width)`` table whose row ``i`` holds the coefficients of piece
``i`` in ascending powers of the local variable ``t - breaks[i]``, which
keeps evaluation well conditioned for domains far from zero.  Rows are
zero-padded on the right to a common width, so ``width - 1`` bounds the
degree of every piece and a piece may list trailing zero coefficients.

:class:`PiecewisePoly` is one edge's function: what the parser builds (the
coefficients, the history, a control file's edges) and the view that a
caller indexing a family of them gets.  It evaluates
(:meth:`~PiecewisePoly.values`, :meth:`~PiecewisePoly.left_limit`) and
takes its exact sup norm, and nothing more; the per-edge algebra (sums,
products, restriction, shifts, integrals) belongs to the test oracle.

:class:`EdgePieces` lays out one function per edge in a single table, with
per-edge row offsets; an :class:`EdgeFunctions` is such a family (layout,
table and per-edge widths), kept whole from the solve to the files, and
:meth:`EdgePieces.of` tables per-edge input once.  So every computation
after the solve runs on the whole tree in a fixed number of array passes:
:meth:`EdgePieces.merged` builds every edge's cells in one sort,
:func:`_find` finds the rows that hold a set of points by one binary
search, and :func:`_gather` moves those rows from one layout onto another,
re-centring each by one batched Taylor shift.  The exact extremes of
:func:`_abs_extremes` take the critical points of every row at once, as the
eigenvalues of one stack of companion matrices per degree (:func:`_abs_min`
adds the rows' zeros); :func:`_sup_abs` first drops the rows that a bound
on their coefficients keeps below the largest end value.

Two helpers keep the package on numpy's core: :func:`_unique`, one sort for
the distinct values where :func:`numpy.unique` would load ``numpy.ma``, and
:func:`gauss_legendre`, the Gauss-Legendre rule by Newton's method on the
Legendre recurrence, computed once per point count, where
:func:`numpy.polynomial.legendre.leggauss` would load ``numpy.polynomial``
and run an eigensolver on every call.
"""

from __future__ import annotations

import functools
import warnings
from collections.abc import Sequence

import numpy as np

# Relative tolerance used when deciding that two breakpoints coincide.
BREAK_RTOL = 1e-12

# Relative tolerance used when deciding that the pieces on both sides of a
# breakpoint are one polynomial.
SAME_POLY_RTOL = 1e-13

# Degree past which a piecewise polynomial is probably a modelling mistake.
DEGREE_WARN = 40


def _unique(a: np.ndarray) -> np.ndarray:
    """The sorted distinct values of ``a``, flattened, as :func:`numpy.unique`
    gives them for finite values: one sort, then every value that differs
    from its predecessor."""
    s = np.sort(a, axis=None)
    first = np.ones(len(s), dtype=bool)
    first[1:] = s[1:] != s[:-1]
    return s[first]


@functools.cache
def gauss_legendre(k: int) -> tuple:
    """The ``k``-point Gauss-Legendre rule on ``[-1, 1]``: nodes ascending
    and weights, read-only and computed once per ``k``.

    Newton's method on the three-term recurrence of ``P_k`` (Hale &
    Townsend 2013) refines Tricomi's estimates of the roots until a step
    falls below ``1e-12``, past which quadratic convergence leaves roundoff
    only; the weights are ``2 / ((1 - x^2) P_k'(x)^2)``.  The rule is
    finished as :func:`numpy.polynomial.legendre.leggauss` finishes its own:
    nodes and weights symmetrised, weights scaled to sum to 2.
    """
    i = np.arange(k, 0, -1)
    x = (1.0 - (1.0 - 1.0 / k) / (8.0 * k * k)) * np.cos(np.pi * (4 * i - 1) / (4 * k + 2))
    done = False
    while True:  # Newton steps, then one more pass for P_k' at the roots
        p_prev, p = np.ones_like(x), x  # P_{j-1}, P_j at j = 1
        for j in range(1, k):
            p_prev, p = p, ((2 * j + 1) * x * p - j * p_prev) / (j + 1)
        dp = k * (p_prev - x * p) / (1.0 - x * x)
        if done:
            break
        step = p / dp
        x = x - step
        done = np.abs(step).max() <= 1e-12
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    x, w = (x - x[::-1]) / 2, (w + w[::-1]) / 2
    w *= 2.0 / w.sum()
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _ragged(counts: np.ndarray) -> tuple:
    """Owner and index within the owner of ``counts.sum()`` entries laid out
    owner by owner."""
    owner = np.repeat(np.arange(len(counts)), counts)
    return owner, np.arange(len(owner)) - np.repeat(np.cumsum(counts) - counts, counts)


def _taylor_shift(c: np.ndarray, dx: np.ndarray) -> np.ndarray:
    """Every row of ``c`` re-centred by its own ``dx``: row ``p(s)`` becomes
    the coefficients of ``p(u + dx)`` in powers of ``u = s - dx``.

    Synthetic division applied to all rows at once, in place:
    ``width - 1`` Horner sweeps over whole coefficient columns, so the work
    is ``rows * width**2`` and no memory beyond one column.  ``c`` may carry
    more axes between the rows and the powers.
    """
    q = c.T  # one view per power
    for k in range(len(q) - 1):
        for i in range(len(q) - 2, k - 1, -1):
            q[i] += dx * q[i + 1]
    return c


def _poly_der(c: np.ndarray, k: int = 1) -> np.ndarray:
    """``k``-th derivative of the polynomials along the last axis of ``c``;
    the width shrinks by one per derivative, down to a single zero."""
    for _ in range(k):
        width = c.shape[-1]
        c = c[..., 1:] * np.arange(1, width) if width > 1 else np.zeros_like(c)
    return c


def derivative_powers(s, k: int, deg: int, weight=1.0) -> np.ndarray:
    """``(len(s), deg)`` matrix of ``d^k/ds^k s^i`` for ``i = 0..deg-1``.

    Entry ``[p, i]`` is ``weight[p] * i!/(i-k)! * s[p]^(i-k)``, zero for
    ``i < k``, so ``derivative_powers(s, k, deg) @ c`` is the ``k``-th
    derivative of ``sum c_i s^i`` at every ``s``.  ``weight`` (a scalar or
    one value per point) is applied to the factorials before the powers.
    """
    s = np.atleast_1d(np.asarray(s, dtype=float))
    i = np.arange(deg)
    falling = np.prod(i[:, None] - np.arange(k), axis=1).astype(float)
    return np.multiply.outer(weight, falling) * s[:, None] ** np.maximum(i - k, 0)


def _poly_val(c: np.ndarray, s):
    """Horner evaluation at local coordinate(s) ``s`` of the polynomials
    along the last axis of ``c``: one polynomial for all of ``s``, or one
    per value of ``s`` when the leading shape of ``c`` is that of ``s``."""
    acc = np.zeros_like(np.asarray(s, dtype=float), dtype=complex) + c[..., -1]
    for k in range(c.shape[-1] - 2, -1, -1):
        acc = acc * s + c[..., k]
    return acc


def _convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise product of the polynomials along the last axis of ``a`` and
    ``b`` (leading axes broadcast): a loop over the narrower operand's
    width, the second one's on a tie."""
    if a.shape[-1] < b.shape[-1]:
        a, b = b, a
    lead = np.broadcast(a[..., 0], b[..., 0]).shape
    out = np.zeros(lead + (a.shape[-1] + b.shape[-1] - 1,), dtype=complex)
    for k in range(b.shape[-1]):
        out[..., k : k + a.shape[-1]] += a * b[..., k, None]
    return out


def _integrals(c: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Integral over ``[0, h]`` of every row of ``c``."""
    width = c.shape[-1]
    table = np.zeros(c.shape[:-1] + (width + 1,), dtype=complex)
    table[..., 1:] = c / np.arange(1, width + 1)
    return _poly_val(table, h)


def _roots_inside(d: np.ndarray, h: np.ndarray):
    """Per degree that occurs, the rows of ``d`` (ascending powers, real or
    complex) of that degree, the real parts of their roots and which lie
    inside ``(0, h)``: the roots :func:`numpy.roots` finds.  The zero
    coefficients above a row's degree (row padding leaves them) and below
    its lowest power (their roots are 0, an end) are cut off, the rest is a
    companion matrix, and the rows of one degree share one batched
    eigenvalue call.  A term ``d_k s^k`` whose size on ``[0, h]``, ``|d_k|
    h^k``, is at most eps times the row's largest counts as zero: it moves
    the row by roundoff only, and as the leading coefficient it would
    divide the companion matrix.  A root's real part stands for the root,
    which covers real roots computed with a tiny imaginary part."""
    if d.shape[1] < 2:  # constants have none
        return
    size = np.abs(d) * h[:, None] ** np.arange(d.shape[1])  # the terms' sizes on [0, h]
    nz = size > np.finfo(float).eps * size.max(axis=1, keepdims=True)
    lo = np.argmax(nz, axis=1)
    deg = np.where(nz.any(axis=1), d.shape[1] - 1 - np.argmax(nz[:, ::-1], axis=1) - lo, 0)
    for D in np.flatnonzero(np.bincount(deg)[1:]) + 1:  # the degrees that occur
        rows = np.flatnonzero(deg == D)
        p = d[rows[:, None], lo[rows, None] + np.arange(D, -1, -1)]  # descending powers
        A = np.zeros((len(rows), D, D), dtype=d.dtype)
        A[:, 0] = -p[:, 1:] / p[:, :1]
        A[:, np.arange(1, D), np.arange(D - 1)] = 1.0
        s = np.linalg.eigvals(A).real
        yield rows, s, (s > 0.0) & (s < h[rows, None])


def _abs_extremes(c: np.ndarray, h: np.ndarray):
    """Per row of ``c``, the largest and the smallest ``|p|`` on ``[0, h]``.

    ``|p|^2 = p * conj(p)`` is a real polynomial in the local variable, so
    the extremes lie at a piece end or at a real root of its derivative
    inside the piece (:func:`_roots_inside`), which adds only harmless
    extra candidates.  At a double zero of ``p`` the derivative has a triple
    root, resolved only to about ``eps^(1/3)``; :func:`_abs_min` adds it.
    """
    at0, at1 = np.abs(_poly_val(c, np.zeros(len(c)))), np.abs(_poly_val(c, h))
    big, small = np.maximum(at0, at1), np.minimum(at0, at1)
    if c.shape[1] == 1:  # constants
        return big, small
    for rows, s, inside in _roots_inside(_poly_der(_convolve(c, c.conj()).real), h):
        v = np.abs(_poly_val(c[rows, None, :], s))
        big[rows] = np.maximum(big[rows], np.where(inside, v, -np.inf).max(axis=1))
        small[rows] = np.minimum(small[rows], np.where(inside, v, np.inf).min(axis=1))
    return big, small


def _abs_min(c: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Per row of ``c``, the smallest ``|p|`` on ``[0, h]``: that of
    :func:`_abs_extremes`, also tried at the real parts of ``p``'s own roots
    inside the piece, so that a zero of any multiplicity reads as zero."""
    small = _abs_extremes(c, h)[1]
    for rows, s, inside in _roots_inside(c, h):
        v = np.abs(_poly_val(c[rows, None, :], s))
        small[rows] = np.minimum(small[rows], np.where(inside, v, np.inf).min(axis=1))
    return small


def _sup_abs(c: np.ndarray, h: np.ndarray) -> float:
    """The largest ``|p|`` over the rows of ``c`` on ``[0, h]``, as
    :func:`_abs_extremes` finds it, bit for bit.  On ``[0, h]`` a row is at
    most ``sum |c_k| h^k``, so a row whose bound lies below the largest end
    value of all rows (by more than the bound's roundoff) cannot set the
    maximum, and only the other rows take the companion search."""
    ends = np.maximum(np.abs(_poly_val(c, np.zeros(len(c)))), np.abs(_poly_val(c, h))).max(initial=0.0)
    keep = _poly_val(np.abs(c), h).real * (1.0 + 1e-9) >= ends
    return float(max(ends, _abs_extremes(c[keep], h[keep])[0].max(initial=0.0)))


class PiecewisePoly:
    """Complex piecewise polynomial on ``[breaks[0], breaks[-1]]``.

    Pieces are half open ``[breaks[i], breaks[i+1])``; the right endpoint of
    the domain belongs to the last piece.  One-sided limits at interior
    breakpoints are available through :meth:`left_limit` / :meth:`right_limit`.
    """

    __slots__ = ("breaks", "_c")

    def __init__(self, breaks, coefs, _valid: bool = False):
        """``coefs`` lists one coefficient array per piece, ascending powers
        of ``t - breaks[i]``; pieces may differ in length.  ``_valid`` marks
        an internal result whose ``breaks`` and ``(npieces, width)`` complex
        table are correct by construction and are taken as they are."""
        if not _valid:
            breaks = np.asarray(breaks, dtype=float)
            if breaks.ndim != 1 or len(breaks) < 2:
                raise ValueError("need at least two breakpoints")
            if np.any(np.diff(breaks) <= 0):
                raise ValueError("breakpoints must be strictly increasing")
            if len(coefs) != len(breaks) - 1:
                raise ValueError("one coefficient array per piece required")
            pieces = [np.atleast_1d(np.asarray(c, dtype=complex)) for c in coefs]
            if any(c.ndim != 1 or c.size == 0 for c in pieces):
                raise ValueError("each piece needs a non-empty 1-D coefficient array")
            coefs = np.zeros((len(pieces), max(c.size for c in pieces)), dtype=complex)
            for i, c in enumerate(pieces):
                coefs[i, : c.size] = c
        coefs.flags.writeable = False
        self.breaks = breaks
        self._c = coefs
        if self.max_degree > DEGREE_WARN:
            warnings.warn(
                f"piecewise polynomial degree {self.max_degree} exceeds "
                f"{DEGREE_WARN}; conditioning is no longer guaranteed",
                stacklevel=2,
            )

    @classmethod
    def _of(cls, breaks: np.ndarray, table: np.ndarray) -> "PiecewisePoly":
        """An internal result, skipping the validation of ``__init__``."""
        return cls(breaks, table, _valid=True)

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def zero(cls, a: float, b: float) -> "PiecewisePoly":
        return cls([a, b], [np.zeros(1)])

    @classmethod
    def constant(cls, a: float, b: float, value: complex) -> "PiecewisePoly":
        return cls([a, b], [np.array([value])])

    @classmethod
    def from_global_coefs(cls, a: float, b: float, coefs) -> "PiecewisePoly":
        """One piece whose coefficients are given in powers of ``t`` itself."""
        c = np.array(coefs, dtype=complex, ndmin=1)
        return cls([a, b], _taylor_shift(c[None, :], np.array([a])))

    # ------------------------------------------------------------------
    # basic queries

    @property
    def coefs(self) -> np.ndarray:
        """Read-only ``(npieces, width)`` table; row ``i`` is piece ``i``,
        zero-padded on the right."""
        return self._c

    @property
    def domain(self):
        return float(self.breaks[0]), float(self.breaks[-1])

    @property
    def npieces(self) -> int:
        return len(self._c)

    @property
    def max_degree(self) -> int:
        return self._c.shape[1] - 1

    def values(self, ts, deriv: int = 0) -> np.ndarray:
        """Vectorised evaluation (right-continuous at interior breaks)."""
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        idx = np.clip(np.searchsorted(self.breaks, ts, side="right") - 1, 0, self.npieces - 1)
        return _poly_val(_poly_der(self._c[idx], deriv), ts - self.breaks[idx])

    def _value_beside(self, t: float, deriv: int, side: float) -> complex:
        """The value at ``t`` of the piece just after (``side`` 1) or before
        (-1) it, to the break tolerance; the end pieces at the domain ends."""
        tol = BREAK_RTOL * max(1.0, abs(float(self.breaks[0])), abs(float(self.breaks[-1])))
        i = min(max(int(np.searchsorted(self.breaks, t + side * tol, side="right")) - 1, 0),
                self.npieces - 1)
        return complex(_poly_val(_poly_der(self._c[i], deriv), t - self.breaks[i]))

    def right_limit(self, t: float, deriv: int = 0) -> complex:
        """Limit from the right; at the domain end, the one-sided value."""
        return self._value_beside(t, deriv, 1.0)

    def left_limit(self, t: float, deriv: int = 0) -> complex:
        """Limit from the left; at the domain start, the one-sided value."""
        return self._value_beside(t, deriv, -1.0)

    def max_abs(self) -> float:
        """Exact maximum of ``|p|`` over the domain."""
        return _sup_abs(self._c, np.diff(self.breaks))

    def __repr__(self):
        a, b = self.domain
        return (
            f"PiecewisePoly([{a:g}, {b:g}], pieces={self.npieces}, "
            f"deg<={self.max_degree})"
        )


def _find(edge: np.ndarray, left: np.ndarray, q_edge: np.ndarray, q_t: np.ndarray) -> np.ndarray:
    """Per query point ``(q_edge, q_t)``, the row that holds it: the last
    row of the same edge with ``left <= q_t``, or the edge's first row when
    there is none.  The rows are ordered by ``edge`` and, within an edge,
    by ``left``, the left ends of their pieces.  One binary search on
    complex keys ``edge + 1j * left`` finds them all, since numpy orders
    complex numbers by real part, then imaginary part; a row found on an
    earlier edge is followed by the query edge's first row.  The keys stay
    per edge because a coordinate concatenated over the tree would round,
    and their parts are set, not computed, so that no ``0 * inf`` enters
    them.  A NaN query reads as ``inf``, the end of its edge."""
    keys, at = np.empty(len(edge), dtype=complex), np.empty(np.shape(q_t), dtype=complex)
    keys.real, keys.imag, at.real, at.imag = edge, left, q_edge, q_t
    at.imag[np.isnan(q_t)] = np.inf
    row = np.maximum(np.searchsorted(keys, at, side="right") - 1, 0)
    return row + (edge[row] < q_edge)


def _gather(table: np.ndarray, edge: np.ndarray, left: np.ndarray,
           q_edge: np.ndarray, q_t: np.ndarray, q_at: np.ndarray) -> np.ndarray:
    """The rows of ``table`` :func:`_find` picks for the query points,
    re-centred at ``q_at`` by one batched Taylor shift.  ``table`` may carry
    more axes between the rows and the powers."""
    src = _find(edge, left, q_edge, q_t)
    out = table[src]
    dx = q_at - left[src]
    if table.shape[-1] > 1 and dx.any():
        _taylor_shift(out, dx)  # a row whose left end stays put gains zeros
    return out


class EdgePieces:
    """The rows of a whole-tree coefficient table: one function per edge,
    each cut into pieces.

    Edge ``e`` (0-based, in the layout's order) owns rows
    ``offsets[e]:offsets[e+1]`` of every table laid out here, and the
    breaks ``breaks[offsets[e] + e : offsets[e+1] + e + 1]``, its domain
    ends included.  Per row, ``edge`` is its edge, ``left`` the left end
    of its piece and ``h`` the piece's width.
    """

    __slots__ = ("breaks", "offsets", "edge", "break_edge", "left", "h")

    def __init__(self, breaks: np.ndarray, offsets: np.ndarray):
        self.breaks = breaks
        self.offsets = offsets
        edges = np.arange(len(offsets) - 1)
        counts = offsets[1:] - offsets[:-1]
        self.edge = edges.repeat(counts)
        self.break_edge = edges.repeat(counts + 1)  # the edge of every break
        at = np.arange(len(self.edge)) + self.edge
        self.left = breaks[at]
        self.h = breaks[at + 1] - self.left

    @property
    def m(self) -> int:
        return len(self.offsets) - 1

    @property
    def mid(self) -> np.ndarray:
        return self.left + 0.5 * self.h

    @property
    def ends(self) -> np.ndarray:
        """Per edge, the first and the last break: an ``(edges, 2)`` array."""
        return self.breaks[np.stack([self.offsets[:-1], self.offsets[1:]], 1)
                           + np.arange(self.m)[:, None]]

    @classmethod
    def of(cls, funcs) -> "EdgeFunctions":
        """``funcs``, one function per edge, as one table, narrower rows zero-padded."""
        funcs = list(funcs)
        tables = [p.coefs for p in funcs]
        offsets = np.cumsum([0] + [len(c) for c in tables])
        widths = np.array([c.shape[1] for c in tables])
        table = np.zeros((offsets[-1], widths.max()), dtype=complex)
        table[np.arange(widths.max()) < np.repeat(widths, np.diff(offsets))[:, None]] = \
            np.concatenate([c.ravel() for c in tables])
        return EdgeFunctions(cls(np.concatenate([p.breaks for p in funcs]), offsets), table, widths)

    @classmethod
    def merged(cls, edge: np.ndarray, points: np.ndarray, lo: np.ndarray,
               hi: np.ndarray) -> "EdgePieces":
        """Cells on ``[lo[e], hi[e]]`` for every edge ``e``, sorted in one
        pass: the edge's ``points`` strictly inside, where a point within
        ``BREAK_RTOL * max(1, |lo|, |hi|)`` of its predecessor in sorted
        order is dropped, and both ends, set exactly."""
        m = len(lo)
        inside = (points > lo[edge]) & (points < hi[edge])
        ids = np.concatenate([edge[inside], np.arange(m), np.arange(m)])
        pts = np.concatenate([points[inside], lo, hi])
        order = np.lexsort((pts, ids))
        ids, pts = ids[order], pts[order]
        tol = BREAK_RTOL * np.maximum(1.0, np.maximum(np.abs(lo), np.abs(hi)))
        keep = np.ones(len(pts), dtype=bool)
        keep[1:] = (ids[1:] != ids[:-1]) | (np.diff(pts) > tol[ids[1:]])
        pts = pts[keep]
        ends = np.cumsum(np.bincount(ids[keep], minlength=m))
        pts[ends - 1] = hi
        return cls(pts, np.concatenate([[0], ends - np.arange(1, m + 1)]))

    @classmethod
    def common(cls, a: "EdgeFunctions", b: "EdgeFunctions") -> tuple:
        """Two functions per edge on the same domains, on their merged
        cells: the layout and each one's table on it, both zero-padded to
        one width.  The domains are those of ``a``; ``b``'s must agree with
        them to the break tolerance."""
        (pa, ta), (pb, tb) = (a.pieces, a.table), (b.pieces, b.table)
        (lo, hi), (b_lo, b_hi) = pa.ends.T, pb.ends.T
        tol = BREAK_RTOL * np.maximum(1.0, np.maximum(np.abs(lo), np.abs(hi)))
        if (np.abs(b_lo - lo) > tol).any() or (np.abs(b_hi - hi) > tol).any():
            raise ValueError("the two functions of an edge live on different domains")
        cells = cls.merged(np.concatenate([pa.break_edge, pb.break_edge]),
                           np.concatenate([pa.breaks, pb.breaks]), lo, hi)
        out = np.zeros((2, len(cells.edge), max(ta.shape[1], tb.shape[1])), dtype=complex)
        for o, (p, t) in zip(out, ((pa, ta), (pb, tb))):
            o[:, : t.shape[1]] = _gather(t, p.edge, p.left, cells.edge, cells.mid, cells.left)
        return cells, out[0], out[1]

    def per_edge(self, values: np.ndarray, fill=0.0) -> np.ndarray:
        """The rows' ``values`` as an ``(edges, most pieces)`` array, one edge
        per line, ``fill`` after its last row."""
        grid = np.full((self.m, np.diff(self.offsets).max()), fill, dtype=values.dtype)
        grid[self.edge, np.arange(len(values)) - self.offsets[self.edge]] = values
        return grid

    def norms_sq(self, table: np.ndarray) -> np.ndarray:
        """Per edge, the integral of ``|p|^2`` over the rows of ``table``,
        the pieces' integrals summed in piece order."""
        pieces = _integrals(_convolve(table, table.conj()), self.h)
        return self.per_edge(pieces).cumsum(axis=1)[:, -1].real


class EdgeFunctions(Sequence):
    """One function per edge as one whole-tree table: edge ``e``'s are the
    first ``widths[e]`` columns of its rows of ``table`` in the layout
    ``pieces``, +0.0 past them, and the table is as wide as the widest.  It
    reads as the sequence of the edges' functions: indexing or iterating
    makes each a :class:`PiecewisePoly` view of the table, nothing else does.
    """

    def __init__(self, pieces: EdgePieces, table: np.ndarray, widths=None):
        self.pieces, self.table = pieces, table
        self.widths = np.full(pieces.m, table.shape[1]) if widths is None else widths

    def __len__(self) -> int:
        return self.pieces.m

    def __getitem__(self, e: int) -> PiecewisePoly:
        e = range(self.pieces.m)[e]  # negative indices count from the end; IndexError past it
        o, b = self.pieces.offsets, self.pieces.breaks
        return PiecewisePoly._of(b[o[e] + e : o[e + 1] + e + 1],
                                 self.table[o[e] : o[e + 1], : self.widths[e]])

    def take(self, edges: np.ndarray) -> "EdgeFunctions":
        """The functions of the 0-based ``edges``, in that order, on a table of their own."""
        p, count = self.pieces, np.diff(self.pieces.offsets)[edges]
        owner, i = _ragged(count)
        rows = p.offsets[edges][owner] + i
        owner, i = _ragged(count + 1)
        breaks = p.breaks[(p.offsets[edges] + edges)[owner] + i]
        widths = self.widths[edges]
        return EdgeFunctions(EdgePieces(breaks, np.append(0, np.cumsum(count))),
                             self.table[rows, : widths.max()], widths)


def as_edge_functions(funcs) -> EdgeFunctions:
    """``funcs``, one function per edge, tabled by :meth:`EdgePieces.of` unless it is a table."""
    return funcs if isinstance(funcs, EdgeFunctions) else EdgePieces.of(funcs)
