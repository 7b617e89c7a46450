"""Piecewise polynomials with complex coefficients on a real interval.

Every object in the solver pipeline (coefficients, trajectories, controls,
quasi-derivatives) is a piecewise polynomial, so the algebra here is kept
exact: sums and products merge breakpoints, differentiation and integration
act on coefficient arrays, and no quadrature error enters anywhere.

Coefficients of piece ``i`` are stored in ascending powers of the local
variable ``t - breaks[i]``, which keeps evaluation well conditioned for
domains far from zero.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

# Relative tolerance used when deciding that two breakpoints coincide.
BREAK_RTOL = 1e-12

# Degree past which products are probably a modelling mistake.
DEGREE_WARN = 40


def _poly_shift(c: np.ndarray, dx: float) -> np.ndarray:
    """Re-center ``p(s) = sum c_i s^i`` to powers of ``u = s - dx``.

    Returns coefficients ``q`` with ``q(u) = p(u + dx)``.
    """
    n = len(c)
    if n == 1 or dx == 0.0:
        return c.copy()
    q = np.zeros(n, dtype=complex)
    # q_k = sum_{i>=k} c_i * C(i,k) * dx^(i-k)
    for i in range(n):
        ci = c[i]
        if ci == 0.0:
            continue
        powers = dx ** np.arange(i + 1)[::-1]  # dx^(i-k) for k=0..i
        binom = np.array([math.comb(i, k) for k in range(i + 1)], dtype=float)
        q[: i + 1] += ci * binom * powers
    return q


def _poly_der(c: np.ndarray) -> np.ndarray:
    if len(c) == 1:
        return np.zeros(1, dtype=complex)
    return c[1:] * np.arange(1, len(c))


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


def _poly_int(c: np.ndarray) -> np.ndarray:
    out = np.zeros(len(c) + 1, dtype=complex)
    out[1:] = c / np.arange(1, len(c) + 1)
    return out


def _poly_val(c: np.ndarray, s):
    """Horner evaluation at local coordinate(s) s."""
    acc = np.zeros_like(np.asarray(s, dtype=float), dtype=complex) + c[-1]
    for k in range(len(c) - 2, -1, -1):
        acc = acc * s + c[k]
    return acc


def merge_breaks(arrays, tol: float) -> np.ndarray:
    """Union of breakpoint arrays with coincident points coalesced."""
    pts = np.sort(np.concatenate([np.asarray(a, dtype=float) for a in arrays]))
    keep = [pts[0]]
    for p in pts[1:]:
        if p - keep[-1] > tol:
            keep.append(p)
    return np.array(keep)


class PiecewisePoly:
    """Complex piecewise polynomial on ``[breaks[0], breaks[-1]]``.

    Pieces are half open ``[breaks[i], breaks[i+1])``; the right endpoint of
    the domain belongs to the last piece.  One-sided limits at interior
    breakpoints are available through :meth:`left_limit` / :meth:`right_limit`,
    which is what the jump diagnostics are built on.
    """

    __slots__ = ("breaks", "coefs")

    def __init__(self, breaks, coefs):
        breaks = np.asarray(breaks, dtype=float)
        if breaks.ndim != 1 or len(breaks) < 2:
            raise ValueError("need at least two breakpoints")
        if np.any(np.diff(breaks) <= 0):
            raise ValueError("breakpoints must be strictly increasing")
        if len(coefs) != len(breaks) - 1:
            raise ValueError("one coefficient array per piece required")
        self.breaks = breaks
        self.coefs = [np.atleast_1d(np.asarray(c, dtype=complex)) for c in coefs]
        if self.max_degree > DEGREE_WARN:
            warnings.warn(
                f"piecewise polynomial degree {self.max_degree} exceeds "
                f"{DEGREE_WARN}; conditioning is no longer guaranteed",
                stacklevel=2,
            )

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
        return cls([a, b], [_poly_shift(c, a)])

    # ------------------------------------------------------------------
    # basic queries

    @property
    def domain(self):
        return float(self.breaks[0]), float(self.breaks[-1])

    @property
    def npieces(self) -> int:
        return len(self.coefs)

    @property
    def max_degree(self) -> int:
        return max(len(c) - 1 for c in self.coefs)

    def _tol(self) -> float:
        return BREAK_RTOL * max(1.0, float(np.max(np.abs(self.breaks))))

    def _piece_at(self, t: float) -> int:
        i = int(np.searchsorted(self.breaks, t, side="right")) - 1
        return min(max(i, 0), self.npieces - 1)

    def __call__(self, t, deriv: int = 0):
        return self.values(np.asarray(t, dtype=float), deriv)

    def values(self, ts, deriv: int = 0) -> np.ndarray:
        """Vectorised evaluation (right-continuous at interior breaks)."""
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        idx = np.clip(np.searchsorted(self.breaks, ts, side="right") - 1, 0, self.npieces - 1)
        out = np.empty(ts.shape, dtype=complex)
        for i in np.unique(idx):
            c = self.coefs[i]
            for _ in range(deriv):
                c = _poly_der(c)
            mask = idx == i
            out[mask] = _poly_val(c, ts[mask] - self.breaks[i])
        return out

    def eval(self, t: float, deriv: int = 0) -> complex:
        return complex(self.values(np.array([t]), deriv)[0])

    def right_limit(self, t: float, deriv: int = 0) -> complex:
        """Limit from the right; at the domain end, the one-sided value."""
        if t >= self.breaks[-1] - self._tol():
            return self.left_limit(self.breaks[-1], deriv)
        i = int(np.searchsorted(self.breaks, t + self._tol(), side="right")) - 1
        i = min(max(i, 0), self.npieces - 1)
        c = self.coefs[i]
        for _ in range(deriv):
            c = _poly_der(c)
        return complex(_poly_val(c, t - self.breaks[i]))

    def left_limit(self, t: float, deriv: int = 0) -> complex:
        """Limit from the left; at the domain start, the one-sided value."""
        if t <= self.breaks[0] + self._tol():
            return self.right_limit(self.breaks[0], deriv)
        i = int(np.searchsorted(self.breaks, t - self._tol(), side="right")) - 1
        i = min(max(i, 0), self.npieces - 1)
        c = self.coefs[i]
        for _ in range(deriv):
            c = _poly_der(c)
        return complex(_poly_val(c, t - self.breaks[i]))

    def jumps(self) -> list[tuple[float, complex]]:
        """(breakpoint, right minus left limit) at every interior breakpoint."""
        out = []
        for t in self.breaks[1:-1]:
            out.append((float(t), self.right_limit(t) - self.left_limit(t)))
        return out

    # ------------------------------------------------------------------
    # calculus

    def derivative(self, k: int = 1) -> "PiecewisePoly":
        coefs = self.coefs
        for _ in range(k):
            coefs = [_poly_der(c) for c in coefs]
        return PiecewisePoly(self.breaks, coefs)

    def antiderivative(self) -> "PiecewisePoly":
        """Continuous antiderivative vanishing at the left end of the domain."""
        coefs = []
        acc = 0.0 + 0.0j
        for i, c in enumerate(self.coefs):
            ci = _poly_int(c)
            ci[0] = acc
            h = self.breaks[i + 1] - self.breaks[i]
            acc = _poly_val(ci, h)
            coefs.append(ci)
        return PiecewisePoly(self.breaks, coefs)

    def integral(self) -> complex:
        total = 0.0 + 0.0j
        for i, c in enumerate(self.coefs):
            ci = _poly_int(c)
            total += _poly_val(ci, self.breaks[i + 1] - self.breaks[i])
        return complex(total)

    def l2_norm_sq(self) -> float:
        return float((self * self.conj()).integral().real)

    def inner(self, other: "PiecewisePoly") -> complex:
        """Integral of self times conj(other) over the common domain."""
        return (self * other.conj()).integral()

    # ------------------------------------------------------------------
    # reshaping

    def refined(self, extra_breaks) -> "PiecewisePoly":
        """Same function on a breakpoint set enlarged by ``extra_breaks``."""
        tol = self._tol()
        a, b = self.domain
        extra = [x for x in np.asarray(extra_breaks, dtype=float) if a + tol < x < b - tol]
        if not extra:
            return self
        breaks = merge_breaks([self.breaks, extra], tol)
        coefs = []
        for i in range(len(breaks) - 1):
            j = self._piece_at(0.5 * (breaks[i] + breaks[i + 1]))
            coefs.append(_poly_shift(self.coefs[j], breaks[i] - self.breaks[j]))
        return PiecewisePoly(breaks, coefs)

    def restrict(self, a: float, b: float) -> "PiecewisePoly":
        tol = self._tol()
        lo, hi = self.domain
        if a < lo - tol or b > hi + tol or b - a <= tol:
            raise ValueError(f"restriction [{a}, {b}] outside domain [{lo}, {hi}]")
        a = min(max(a, lo), hi)
        b = min(max(b, lo), hi)
        p = self.refined([a, b])
        i0 = p._piece_at(a + tol)
        i1 = p._piece_at(b - tol)
        breaks = p.breaks[i0 : i1 + 2].copy()
        breaks[0], breaks[-1] = a, b
        return PiecewisePoly(breaks, [p.coefs[i] for i in range(i0, i1 + 1)])

    def shift(self, dt: float) -> "PiecewisePoly":
        """Translate the graph: result(t) = self(t - dt)."""
        return PiecewisePoly(self.breaks + dt, [c.copy() for c in self.coefs])

    def concat(self, other: "PiecewisePoly") -> "PiecewisePoly":
        tol = max(self._tol(), other._tol())
        if abs(self.breaks[-1] - other.breaks[0]) > tol:
            raise ValueError("domains are not adjacent")
        breaks = np.concatenate([self.breaks, other.breaks[1:]])
        breaks[len(self.breaks) - 1] = self.breaks[-1]
        return PiecewisePoly(breaks, self.coefs + other.coefs)

    def conj(self) -> "PiecewisePoly":
        return PiecewisePoly(self.breaks, [np.conj(c) for c in self.coefs])

    # ------------------------------------------------------------------
    # ring operations

    def _aligned(self, other: "PiecewisePoly"):
        tol = max(self._tol(), other._tol())
        sa, sb = self.domain
        oa, ob = other.domain
        if abs(sa - oa) > tol or abs(sb - ob) > tol:
            raise ValueError(f"domain mismatch: [{sa}, {sb}] vs [{oa}, {ob}]")
        breaks = merge_breaks([self.breaks, other.breaks], tol)
        return self.refined(breaks), other.refined(breaks)

    def __add__(self, other):
        if np.isscalar(other):
            other = PiecewisePoly.constant(*self.domain, other)
        p, q = self._aligned(other)
        coefs = []
        for cp, cq in zip(p.coefs, q.coefs):
            n = max(len(cp), len(cq))
            c = np.zeros(n, dtype=complex)
            c[: len(cp)] += cp
            c[: len(cq)] += cq
            coefs.append(c)
        return PiecewisePoly(p.breaks, coefs)

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self):
        return PiecewisePoly(self.breaks, [-c for c in self.coefs])

    def __sub__(self, other):
        if np.isscalar(other):
            other = PiecewisePoly.constant(*self.domain, other)
        return self.__add__(-other)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if np.isscalar(other):
            return PiecewisePoly(self.breaks, [c * other for c in self.coefs])
        p, q = self._aligned(other)
        coefs = [np.convolve(cp, cq) for cp, cq in zip(p.coefs, q.coefs)]
        return PiecewisePoly(p.breaks, coefs)

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
        for i, c in enumerate(self.coefs):
            h = self.breaks[i + 1] - self.breaks[i]
            sq = np.convolve(c, np.conj(c)).real
            crit = np.roots(_poly_der(sq).real[::-1]).real if len(sq) > 2 else np.zeros(0)
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
