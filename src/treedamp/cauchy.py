"""Forward simulation of the controlled system by the method of steps.

On each edge the delayed argument refers either to the prescribed history
(root edge), to the tail of the parent trajectory (near the start), or to a
part of the same edge that lies at least one delay span in the past.  With
elements no wider than the delay, sweeping the elements of an edge from
left to right therefore always has fully known delayed data, and edges in
canonical order always have their parent finished first.

Each element is integrated by collocation: the restriction of the solution
is one polynomial matched to the running state at the left end and to the
differential relation at ``max(3, n + 1)`` interior Gauss points, so its
local degree ``n + max(3, n + 1) - 1`` is at least ``2n``.  Polynomial data
of at most that degree is reproduced exactly.  The trajectories of ``damp``
are Hermite polynomials of degree ``2n - 1`` on the same elements, which is
what makes control round trips (damp, then resimulate) reproduce the
variational trajectory to roundoff.
"""

from __future__ import annotations

import math

import numpy as np

from .expressions import CoefficientSet, TreeFunction, apply_operator, check_edge_functions
from .meshing import DelayMesh
from .piecewise import PiecewisePoly, derivative_powers
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
    at index ``j - 1``.  ``mesh``
    supplies the element partition of every edge; element widths never
    exceed the delay, which the stepping argument relies on.
    """
    check_edge_functions(tree, control, "control")
    n = coeffs.n
    tau = coeffs.tau
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

    comps = []
    for j in range(1, tree.m + 1):
        xs = mesh.nodes[j - 1]
        h = np.diff(xs)
        t = xs[:-1, None] + h[:, None] * sigma  # (elements, g)
        # delayed reads before the edge starts go to the history or the parent's tail
        if j == 1:
            past, shift = phi, 0.0
        else:
            past, shift = comps[tree.parent_of(j) - 1], tree.length(tree.parent_of(j))
        state = np.array([past.left_limit(shift, k) for k in range(n)])
        terms = coeffs.terms(j)
        b = [(k, bk.values(t)) for k, bk, _ in terms if bk is not None]
        c = [(k, ck.values(t)) for k, _, ck in terms if ck is not None]
        rhs = control[j - 1].values(t)
        s = t - tau
        before = s < 0.0
        # elements are no wider than tau, so t - tau on the edge lies in an earlier element
        src = np.maximum(np.searchsorted(xs, s, side="right") - 1, 0)
        own = []
        for k, ck in c:
            rhs[before] -= ck[before] * past.values(s[before] + shift, k)
            table = derivative_powers((s - xs[src]).ravel(), k, deg).reshape(*t.shape, deg)
            own.append((ck, table))

        coef = np.zeros((len(h), deg), dtype=complex)  # powers of t - xs[e]
        for e, he in enumerate(h):
            mine = ~before[e]
            for ck, table in own:
                read = np.einsum("pi,pi->p", table[e, mine], coef[src[e, mine]])
                rhs[e, mine] -= ck[e, mine] * read
            scale = he ** -np.arange(n)[:, None]  # d/dt = (1/h) d/dsigma
            A = np.vstack([at0 * scale, sum(bk[e][:, None] * at_gauss[k] / he**k for k, bk in b)])
            x = np.linalg.solve(A, np.concatenate([state, rhs[e]]))
            state = (at1 * scale) @ x
            coef[e] = x / he ** np.arange(deg)
        comps.append(PiecewisePoly(xs, coef))

    return TreeFunction(tree, n, tuple(comps), phi)


def residual_ell(y: TreeFunction, coeffs: CoefficientSet, control: tuple) -> dict:
    """Per-edge L2 distance between the applied operator and the control."""
    check_edge_functions(y.tree, control, "control")
    per_edge = []
    for j in range(1, y.tree.m + 1):
        diff = apply_operator(y, coeffs, j) - control[j - 1]
        per_edge.append(math.sqrt(diff.l2_norm_sq()))
    return {"per_edge": per_edge, "total": math.sqrt(sum(r * r for r in per_edge))}
