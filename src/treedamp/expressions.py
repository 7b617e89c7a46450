"""Differential-delay expressions on a metric tree.

The controlled system applies, on every edge ``j``, an operator of order
``n`` acting on the trajectory and on its delayed values,

    (L_j y)(t) = sum_k [ b_kj(t) y_j^(k)(t) + c_kj(t) y_j^(k)(t - tau) ],

where the delayed value is read through the parent edge when ``t < tau``
(and from the prescribed history on the root edge).  This module holds the
data types for coefficient families and trajectories plus the exact algebra
on them: the delayed read (:func:`delayed_part`) and its adjoint, the
advanced read (:func:`advanced_part`); applying ``L_j``; and, one order
at a time for the whole tree, the weights of the re-indexed first
variation (:func:`variation_weights`) that the diagnostics are built on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .piecewise import PiecewisePoly, merge_breaks
from .trees import Tree


class CoefficientError(ValueError):
    """Raised when a coefficient family fails validation."""


def check_edge_functions(tree: Tree, funcs, what: str, error=ValueError) -> None:
    """Raise ``error`` unless ``funcs`` holds one function per edge, edge
    ``j``'s at index ``j - 1`` and on ``[0, T_j]``."""
    if len(funcs) != tree.m:
        raise error(f"{what}: one function per edge required, got {len(funcs)} for {tree.m} edges")
    for j, p in enumerate(funcs, start=1):
        a0, a1 = p.domain
        Tj = tree.length(j)
        if abs(a0) > 1e-12 or abs(a1 - Tj) > 1e-12 * max(1.0, Tj):
            raise error(f"{what} on edge {j} has domain [{a0}, {a1}], expected [0, {Tj}]")


@dataclass(frozen=True)
class CoefficientSet:
    """Operator coefficients ``b_kj``, ``c_kj`` for ``k=0..n``, edges ``1..m``.

    ``b[k][j-1]`` and ``c[k][j-1]`` are piecewise polynomials on
    ``[0, T_j]``.  The leading instantaneous coefficient ``b_nj`` must stay
    away from zero on every edge; the leading delayed coefficient ``c_nj``
    may vanish (retarded system) or not (neutral system).
    """

    tree: Tree
    n: int
    tau: float
    b: tuple
    c: tuple

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
        for table, name in ((self.b, "b"), (self.c, "c")):
            if len(table) != self.n + 1:
                raise CoefficientError(f"{name} must have rows k=0..{self.n}")
            for k, row in enumerate(table):
                check_edge_functions(self.tree, row, f"{name}[{k}]", CoefficientError)
        for j in range(1, self.tree.m + 1):
            lead = self.b[self.n][j - 1].min_abs()
            if lead < self.MIN_LEADING:
                raise CoefficientError(
                    f"leading coefficient b_{self.n} on edge {j} reaches |.| = {lead:.3e}; "
                    "it must stay away from zero"
                )

    @classmethod
    def build(cls, tree: Tree, n: int, tau: float, b: dict, c: dict) -> "CoefficientSet":
        """Assemble from sparse ``{(k, j): PiecewisePoly | scalar}`` maps.

        Missing entries default to zero; ``b[(n, j)]`` is required for every
        edge, and a key outside ``k = 0..n``, ``j = 1..m`` is rejected.
        Scalars are promoted to constants on ``[0, T_j]``.
        """

        valid = {(k, j) for k in range(n + 1) for j in range(1, tree.m + 1)}
        for src, name in ((b, "b"), (c, "c")):
            for key in src:
                if key not in valid:
                    raise CoefficientError(f"{name}[{key!r}] is outside k = 0..{n}, j = 1..{tree.m}")
        for j in range(1, tree.m + 1):
            if (n, j) not in b:
                raise CoefficientError(f"b[({n}, {j})] is required")

        def promote(val, j):
            if isinstance(val, PiecewisePoly):
                return val
            return PiecewisePoly.constant(0.0, tree.length(j), complex(val))

        def table(src):
            return tuple(tuple(promote(src.get((k, j), 0.0), j) for j in range(1, tree.m + 1))
                         for k in range(n + 1))

        return cls(tree=tree, n=n, tau=tau, b=table(b), c=table(c))

    def terms(self, j: int) -> list:
        """``(k, b_kj, c_kj)`` for ``k=0..n``; an identically zero coefficient
        is given as ``None`` so callers can skip its term."""

        def present(p):
            return p if p.max_degree > 0 or p.coefs.any() else None

        return [(k, present(self.b[k][j - 1]), present(self.c[k][j - 1])) for k in range(self.n + 1)]

    def breakpoints(self, j: int) -> np.ndarray:
        """Interior points of edge ``j`` where some coefficient switches
        polynomial.  A break that every coefficient crosses with the same
        polynomial is left out, so the mesh puts no sliver element there."""
        Tj = self.tree.length(j)
        arrays = [np.array([0.0, Tj])]
        for k in range(self.n + 1):
            arrays.append(self.b[k][j - 1].changes())
            arrays.append(self.c[k][j - 1].changes())
        return merge_breaks(arrays, 1e-12 * max(1.0, Tj))[1:-1]


@dataclass(frozen=True)
class TreeFunction:
    """A trajectory: one piecewise polynomial per edge plus root history.

    ``components[j-1]`` lives on ``[0, T_j]``; ``history`` lives on
    ``[-tau, 0]`` and belongs to the root edge.  The delay on any other edge
    is served by the tail of the parent component, so no history is stored
    there.
    """

    tree: Tree
    n: int
    components: tuple
    history: PiecewisePoly

    def __post_init__(self):
        check_edge_functions(self.tree, self.components, "trajectory")
        h0, h1 = self.history.domain
        if abs(h1) > 1e-12 or not h0 < 0:
            raise ValueError(f"history must live on [-tau, 0], got [{h0}, {h1}]")

    @property
    def tau(self) -> float:
        return -self.history.domain[0]

    def component(self, j: int) -> PiecewisePoly:
        return self.components[j - 1]

    def __add__(self, other: "TreeFunction") -> "TreeFunction":
        comps = tuple(p + q for p, q in zip(self.components, other.components))
        return TreeFunction(self.tree, self.n, comps, self.history + other.history)

    def __sub__(self, other: "TreeFunction") -> "TreeFunction":
        comps = tuple(p - q for p, q in zip(self.components, other.components))
        return TreeFunction(self.tree, self.n, comps, self.history - other.history)

    def __mul__(self, scalar) -> "TreeFunction":
        comps = tuple(p * scalar for p in self.components)
        return TreeFunction(self.tree, self.n, comps, self.history * scalar)

    __rmul__ = __mul__


def delayed_part(y: TreeFunction, j: int) -> PiecewisePoly:
    """The delayed read ``t -> y_j(t - tau)`` as a function on ``[0, T_j]``."""
    tau = y.tau
    Tj = y.tree.length(j)
    if j == 1:
        head = y.history.shift(tau)
    else:
        p = y.tree.parent_of(j)
        Tp = y.tree.length(p)
        head = y.component(p).restrict(Tp - tau, Tp).shift(tau - Tp)
    return head.concat(y.component(j).restrict(0.0, Tj - tau).shift(tau))


def advanced_part(g, tree: Tree, tau: float, j: int) -> PiecewisePoly:
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
    early = g[j - 1].restrict(tau, Tj).shift(-tau)
    if j > tree.d:
        return early
    reads = [g[nu - 1].restrict(0.0, tau).shift(Tj - tau) for nu in tree.children_of(j)]
    return early.concat(sum(reads[1:], reads[0]))


def apply_operator(y: TreeFunction, coeffs: CoefficientSet, j: int) -> PiecewisePoly:
    """The edge operator ``L_j y`` on ``[0, T_j]``."""
    acc = PiecewisePoly.zero(0.0, y.tree.length(j))
    delayed = delayed_part(y, j)
    for k, b, c in coeffs.terms(j):
        if b is not None:
            acc = acc + b * y.component(j).derivative(k)
        if c is not None:
            acc = acc + c * delayed.derivative(k)
    return acc


def operator_components(y: TreeFunction, coeffs: CoefficientSet) -> list:
    """``[L_1 y, ..., L_m y]`` computed once for reuse."""
    return [apply_operator(y, coeffs, j) for j in range(1, y.tree.m + 1)]


def variation_weights(coeffs: CoefficientSet, ells, k: int) -> list:
    """Weights of ``conj(w^(k))`` in the re-indexed first variation, edge
    ``j``'s at index ``j - 1``.

    After moving every delayed test-function read back to its home edge, the
    first variation becomes a sum of integrals over the active windows
    ``[0, l_j]`` of products (weight) * conj(w_j^(k)).  Given the control
    ``ells`` (``L_nu y`` at index ``nu - 1``), the weight is
    ``conj(b_kj) * ells_j`` on ``[0, l_j]`` plus the advanced read
    (:func:`advanced_part`) of ``conj(c_k) * ells``.  Each product is formed
    once per edge; a zero coefficient gives a zero function without one.
    """
    tree, tau = coeffs.tree, coeffs.tau
    own, read = [], []
    for j in range(1, tree.m + 1):
        _, b, c = coeffs.terms(j)[k]
        zero = PiecewisePoly.zero(0.0, tree.length(j))
        own.append(zero if b is None else b.conj() * ells[j - 1])
        read.append(zero if c is None else c.conj() * ells[j - 1])
    return [
        own[j - 1].restrict(0.0, tree.length(j) if j <= tree.d else tree.length(j) - tau)
        + advanced_part(read, tree, tau, j)
        for j in range(1, tree.m + 1)
    ]
