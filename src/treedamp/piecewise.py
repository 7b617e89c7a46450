"""Piecewise polynomials with complex coefficients on a real interval.

Every object in the solver pipeline (coefficients, trajectories, controls,
quasi-derivatives) is a piecewise polynomial, so the algebra here is kept
exact: sums and products merge breakpoints, differentiation and integration
act on coefficient arrays, and no quadrature error enters anywhere.

Storage follows SciPy's ``PPoly``: the ``breaks`` plus one complex
``(npieces, width)`` table whose row ``i`` holds the coefficients of piece
``i`` in ascending powers of the local variable ``t - breaks[i]``, which
keeps evaluation well conditioned for domains far from zero.  Rows are
zero-padded on the right to a common width, so ``width - 1`` bounds the
degree of every piece and a piece may list trailing zero coefficients.

Every method is whole-table numpy work with no loop over pieces:
evaluation (one ``searchsorted``, row-wise Horner), differentiation,
integration, jumps, restriction, shifting, concatenation, and the ring
operations.  Operands with different breaks are first refined onto the
merged breaks; only the pieces whose left end moved are re-centred, by one
batched Taylor shift.  A product convolves row by row with a loop over the
narrower operand's width.  Only the exact extreme search behind
:meth:`PiecewisePoly.max_abs` and :meth:`PiecewisePoly.min_abs` runs piece
by piece, because it finds polynomial roots.
"""

from __future__ import annotations

import warnings

import numpy as np

# Relative tolerance used when deciding that two breakpoints coincide.
BREAK_RTOL = 1e-12

# Relative tolerance used when deciding that the pieces on both sides of a
# breakpoint are one polynomial.
SAME_POLY_RTOL = 1e-13

# Degree past which products are probably a modelling mistake.
DEGREE_WARN = 40


def _taylor_shift(c: np.ndarray, dx: np.ndarray) -> np.ndarray:
    """Every row of ``c`` re-centred by its own ``dx``: row ``p(s)`` becomes
    the coefficients of ``p(u + dx)`` in powers of ``u = s - dx``.

    Synthetic division applied to all rows at once: ``width - 1`` Horner
    sweeps over whole coefficient columns, so the work is
    ``rows * width**2`` and the memory ``rows * width``.
    """
    q = c.T.copy()  # one contiguous row per power
    for k in range(len(q) - 1):
        for i in range(len(q) - 2, k - 1, -1):
            q[i] += dx * q[i + 1]
    return q.T


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


def merge_breaks(arrays, tol: float) -> np.ndarray:
    """Union of breakpoint arrays with coincident points coalesced: a point
    within ``tol`` of its predecessor in sorted order is dropped."""
    pts = np.sort(np.concatenate([np.asarray(a, dtype=float).ravel() for a in arrays]))
    return pts[np.concatenate(([True], np.diff(pts) > tol))]


class PiecewisePoly:
    """Complex piecewise polynomial on ``[breaks[0], breaks[-1]]``.

    Pieces are half open ``[breaks[i], breaks[i+1])``; the right endpoint of
    the domain belongs to the last piece.  One-sided limits at interior
    breakpoints are available through :meth:`left_limit` / :meth:`right_limit`,
    which is what the jump diagnostics are built on.
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
    def single(cls, a: float, b: float, coefs) -> "PiecewisePoly":
        """One polynomial piece, coefficients in powers of ``t - a``."""
        return cls([a, b], [np.asarray(coefs)])

    @classmethod
    def from_global_coefs(cls, a: float, b: float, coefs) -> "PiecewisePoly":
        """One piece whose coefficients are given in powers of ``t`` itself."""
        c = np.atleast_1d(np.asarray(coefs, dtype=complex))
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

    def _tol(self) -> float:
        return BREAK_RTOL * max(1.0, abs(float(self.breaks[0])), abs(float(self.breaks[-1])))

    def _piece_at(self, t: float) -> int:
        i = int(np.searchsorted(self.breaks, t, side="right")) - 1
        return min(max(i, 0), self.npieces - 1)

    def __call__(self, t, deriv: int = 0):
        return self.values(np.asarray(t, dtype=float), deriv)

    def values(self, ts, deriv: int = 0) -> np.ndarray:
        """Vectorised evaluation (right-continuous at interior breaks)."""
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        idx = np.clip(np.searchsorted(self.breaks, ts, side="right") - 1, 0, self.npieces - 1)
        return _poly_val(_poly_der(self._c[idx], deriv), ts - self.breaks[idx])

    def eval(self, t: float, deriv: int = 0) -> complex:
        return complex(self.values(np.array([t]), deriv)[0])

    def _value_in_piece(self, i: int, t: float, deriv: int) -> complex:
        return complex(_poly_val(_poly_der(self._c[i], deriv), t - self.breaks[i]))

    def right_limit(self, t: float, deriv: int = 0) -> complex:
        """Limit from the right; at the domain end, the one-sided value."""
        if t >= self.breaks[-1] - self._tol():
            return self.left_limit(self.breaks[-1], deriv)
        return self._value_in_piece(self._piece_at(t + self._tol()), t, deriv)

    def left_limit(self, t: float, deriv: int = 0) -> complex:
        """Limit from the left; at the domain start, the one-sided value."""
        if t <= self.breaks[0] + self._tol():
            return self.right_limit(self.breaks[0], deriv)
        return self._value_in_piece(self._piece_at(t - self._tol()), t, deriv)

    def jumps(self) -> list[tuple[float, complex]]:
        """(breakpoint, right minus left limit) at every interior breakpoint."""
        left = _poly_val(self._c[:-1], np.diff(self.breaks[:-1]))
        gaps = self._c[1:, 0] - left
        return list(zip(self.breaks[1:-1].tolist(), gaps.tolist()))

    def changes(self) -> np.ndarray:
        """The interior breakpoints where the function switches polynomial:
        the left piece, re-centred at the break, differs from the right one
        by more than ``SAME_POLY_RTOL`` of their largest coefficient."""
        if self.npieces == 1:
            return self.breaks[1:-1]
        left = _taylor_shift(self._c[:-1], np.diff(self.breaks[:-1]))
        right = self._c[1:]
        scale = np.maximum(np.abs(left).max(axis=1), np.abs(right).max(axis=1))
        same = np.abs(left - right).max(axis=1) <= SAME_POLY_RTOL * scale
        return self.breaks[1:-1][~same]

    # ------------------------------------------------------------------
    # calculus

    def derivative(self, k: int = 1) -> "PiecewisePoly":
        return PiecewisePoly._of(self.breaks, _poly_der(self._c, k))

    def integral(self) -> complex:
        """Sum of the piece integrals, a running sum in piece order."""
        width = self._c.shape[1]
        table = np.zeros((self.npieces, width + 1), dtype=complex)
        table[:, 1:] = self._c / np.arange(1, width + 1)
        return complex(np.cumsum(_poly_val(table, np.diff(self.breaks)))[-1])

    def l2_norm_sq(self) -> float:
        return float((self * self.conj()).integral().real)

    # ------------------------------------------------------------------
    # reshaping

    def refined(self, extra_breaks) -> "PiecewisePoly":
        """Same function on a breakpoint set enlarged by ``extra_breaks``;
        ``self`` itself when no break is new."""
        tol = self._tol()
        a, b = self.domain
        extra = np.asarray(extra_breaks, dtype=float).ravel()
        extra = extra[(extra > a + tol) & (extra < b - tol)]
        if not extra.size:
            return self
        return self._onto(merge_breaks([self.breaks, extra], tol))

    def _onto(self, breaks: np.ndarray) -> "PiecewisePoly":
        """Same function on ``breaks``, which refine ``self.breaks`` up to the
        break tolerance; ``self`` itself when they are ``self.breaks``.

        Each new piece copies the row of the old piece holding its midpoint,
        and the rows whose left end moved are re-centred in one batch.
        """
        if len(breaks) == len(self.breaks) and np.array_equal(breaks, self.breaks):
            return self
        mids = 0.5 * (breaks[:-1] + breaks[1:])
        src = np.clip(np.searchsorted(self.breaks, mids, side="right") - 1, 0, self.npieces - 1)
        table = self._c[src]
        dx = breaks[:-1] - self.breaks[src]
        moved = dx != 0.0
        if table.shape[1] > 1 and moved.any():
            table[moved] = _taylor_shift(table[moved], dx[moved])
        return PiecewisePoly._of(breaks, table)

    def restrict(self, a: float, b: float) -> "PiecewisePoly":
        tol = self._tol()
        lo, hi = self.domain
        if a < lo - tol or b > hi + tol or b - a <= tol:
            raise ValueError(f"restriction [{a}, {b}] outside domain [{lo}, {hi}]")
        a = min(max(a, lo), hi)
        b = min(max(b, lo), hi)
        i0 = self._piece_at(a + tol)
        i1 = self._piece_at(b - tol)
        breaks = self.breaks[i0 : i1 + 2].copy()
        table = self._c[i0 : i1 + 1]
        if breaks[0] != a:  # the first piece now starts at a
            table = table.copy()
            table[:1] = _taylor_shift(table[:1], np.array([a - breaks[0]]))
        breaks[0], breaks[-1] = a, b
        return PiecewisePoly._of(breaks, table)

    def shift(self, dt: float) -> "PiecewisePoly":
        """Translate the graph: result(t) = self(t - dt)."""
        return PiecewisePoly._of(self.breaks + dt, self._c)

    def concat(self, other: "PiecewisePoly") -> "PiecewisePoly":
        tol = max(self._tol(), other._tol())
        if abs(self.breaks[-1] - other.breaks[0]) > tol:
            raise ValueError("domains are not adjacent")
        breaks = np.concatenate([self.breaks, other.breaks[1:]])
        table = np.zeros((self.npieces + other.npieces, max(self._c.shape[1], other._c.shape[1])),
                         dtype=complex)
        table[: self.npieces, : self._c.shape[1]] = self._c
        table[self.npieces :, : other._c.shape[1]] = other._c
        return PiecewisePoly._of(breaks, table)

    def conj(self) -> "PiecewisePoly":
        return PiecewisePoly._of(self.breaks, self._c.conj())

    # ------------------------------------------------------------------
    # ring operations

    def _aligned(self, other: "PiecewisePoly"):
        """Both operands on the merged breaks; each is returned itself when
        none of the merged breaks is new to it."""
        if np.array_equal(self.breaks, other.breaks):
            return self, other
        tol = max(self._tol(), other._tol())
        sa, sb = self.domain
        oa, ob = other.domain
        if abs(sa - oa) > tol or abs(sb - ob) > tol:
            raise ValueError(f"domain mismatch: [{sa}, {sb}] vs [{oa}, {ob}]")
        breaks = merge_breaks([self.breaks, other.breaks], tol)
        breaks[0], breaks[-1] = self.breaks[0], self.breaks[-1]
        return self._onto(breaks), other._onto(breaks)

    def __add__(self, other):
        if np.isscalar(other):
            other = PiecewisePoly.constant(*self.domain, other)
        p, q = self._aligned(other)
        if p._c.shape[1] < q._c.shape[1]:
            p, q = q, p
        table = p._c.copy()
        table[:, : q._c.shape[1]] += q._c
        return PiecewisePoly._of(p.breaks, table)

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self):
        return PiecewisePoly._of(self.breaks, -self._c)

    def __sub__(self, other):
        if np.isscalar(other):
            other = PiecewisePoly.constant(*self.domain, other)
        return self.__add__(-other)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if np.isscalar(other):
            return PiecewisePoly._of(self.breaks, self._c * other)
        p, q = self._aligned(other)
        if p._c.shape[1] < q._c.shape[1]:
            p, q = q, p
        wide, narrow = p._c, q._c
        table = np.zeros((len(wide), wide.shape[1] + narrow.shape[1] - 1), dtype=complex)
        for k in range(narrow.shape[1]):
            table[:, k : k + wide.shape[1]] += wide * narrow[:, k, None]
        return PiecewisePoly._of(p.breaks, table)

    def __rmul__(self, other):
        return self.__mul__(other)

    # ------------------------------------------------------------------

    def _abs_at_extrema(self):
        """Per piece, ``|p|`` at every point where it can take its extremes.

        On each piece ``|p|^2 = p * conj(p)`` is a real polynomial in the
        local variable, so its extremes lie at a piece end or at a real root
        of its derivative inside the piece.  Every root's real part that
        falls in the piece is tried, which covers real roots computed with a
        tiny imaginary part and adds only harmless extra candidates.
        """
        for c, h in zip(self._c, np.diff(self.breaks)):
            sq = np.convolve(c, np.conj(c)).real
            # np.roots drops the leading zeros the row padding leaves
            crit = np.roots(_poly_der(sq)[::-1]).real if len(sq) > 2 else np.zeros(0)
            s = np.concatenate([[0.0, h], crit[(crit > 0.0) & (crit < h)]])
            yield np.abs(_poly_val(c, s))

    def max_abs(self) -> float:
        """Exact maximum of ``|p|`` over the domain."""
        return max(float(np.max(a)) for a in self._abs_at_extrema())

    def min_abs(self) -> float:
        """Exact minimum of ``|p|`` over the domain."""
        return min(float(np.min(a)) for a in self._abs_at_extrema())

    def __repr__(self):
        a, b = self.domain
        return (
            f"PiecewisePoly([{a:g}, {b:g}], pieces={self.npieces}, "
            f"deg<={self.max_degree})"
        )
