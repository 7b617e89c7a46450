"""Forward simulation of the controlled system by the method of steps.

On each edge the delayed argument refers either to the prescribed history
(root edge), to the tail of the parent trajectory (near the start), or to a
part of the same edge that lies at least one delay span in the past.  Edges
in canonical order always have their parent finished first, and each edge
starts from the state (derivatives ``0..n-1``) its parent ended with.

Each element is integrated by collocation: the restriction of the solution
is one polynomial matched to the running state at the left end and to the
differential relation at ``max(3, n + 1)`` interior Gauss points, so its
local degree ``n + max(3, n + 1) - 1`` is at least ``2n``.  Polynomial data
of at most that degree is reproduced exactly.  The trajectories of ``damp``
are Hermite polynomials of degree ``2n - 1`` on the same elements, which is
what makes control round trips (damp, then resimulate) reproduce the
variational trajectory to roundoff.

The work is batched per edge.  Every element's collocation matrix depends
only on the element, so one ``(elements, deg, deg)`` stack is built and
inverted at once (then refined twice), which splits each element's
coefficients into ``x_e = P_e state + Q_e rhs_e``.  The edge is then swept
in delay windows: the greedy runs of elements, each starting at a node
``x_a`` and holding the elements whose right ends lie within ``x_a + tau``.
Every read at ``t - tau`` inside a window lands before ``x_a``, in the
history, the parent's tail or a finished window, whether or not the mesh
has nodes at multiples of ``tau``; so the window's right sides are one
gather and one batched product.  What stays element by element is the
``n``-vector state chain, ``state <- B_e x_e = (B P)_e state + (B Q)_e
rhs_e`` with ``B_e`` the end derivatives.  Elements wider than the delay
are rejected, since their reads would reach the element itself.
"""

from __future__ import annotations

import math

import numpy as np

from .expressions import CoefficientSet, TreeFunction, check_edge_functions, operator_components
from .meshing import DelayMesh, MeshError, check_history
from .piecewise import EdgePieces, PiecewisePoly, derivative_powers
from .trees import Tree


def solve_cauchy(
    tree: Tree,
    coeffs: CoefficientSet,
    phi: PiecewisePoly,
    control: tuple,
    mesh: DelayMesh,
) -> TreeFunction:
    """Integrate the controlled system forward from the history ``phi``.

    ``control`` holds the input on edge ``j``, a function on ``[0, T_j]``,
    at index ``j - 1``.  ``mesh`` supplies the element partition of every
    edge; an element wider than the delay raises :class:`MeshError`, since
    its delayed reads would reach the element itself, and so does a history
    that does not live on ``[-tau, 0]``.
    """
    check_edge_functions(tree, control, "control")
    n = coeffs.n
    tau = coeffs.tau
    check_history(phi, tau)
    reach = tau * (1 + 1e-9)  # the slack DelayMesh.check allows
    if mesh.max_width() > reach:
        raise MeshError(f"element width {mesh.max_width()} exceeds the delay {tau}")
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
            a = last[a]
        comps.append(PiecewisePoly._of(xs, coef))
        exits.append(state)

    return TreeFunction(tree, n, tuple(comps), phi)


def residual_ell(y: TreeFunction, coeffs: CoefficientSet, control: tuple) -> dict:
    """Per-edge L2 distance between the applied operator and the control,
    integrated on their common cells (:meth:`EdgePieces.common`)."""
    check_edge_functions(y.tree, control, "control")
    cells, ell, u = EdgePieces.common(operator_components(y, coeffs), control)
    per_edge = np.sqrt(cells.norms_sq(ell - u)).tolist()
    return {"per_edge": per_edge, "total": math.sqrt(sum(r * r for r in per_edge))}
