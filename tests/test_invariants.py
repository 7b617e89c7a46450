"""Invariants of the minimal energy, of its first variation and of the
damp -> simulate round trip, and the forward simulation against its
edge-by-edge oracle.

Random small trees (depth at most 3), orders 1 to 3, refinement up to 4,
complex lower-order coefficients and histories.  Some coefficients are
piecewise with one interior break, which sometimes changes nothing.  Edge
lengths and breaks are multiples of a quarter delay so that no wavefront
lands next to a mesh node.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from treedamp.cauchy import solve_cauchy
from treedamp.damping import optimality_check, solve_damping
from treedamp.expressions import CoefficientSet
from treedamp.meshing import history_lift
from treedamp.piecewise import PiecewisePoly
from treedamp.trees import build_tree

import oracles

TAU = 1.0

small = st.floats(min_value=-0.5, max_value=0.5, allow_nan=False, allow_infinity=False)
complex_small = st.builds(complex, small, small)


@st.composite
def problems(draw):
    """(parents, lengths, order, q, coefficients, history coefficients);
    edges are labelled 1..m and coefficients keyed by (family, k, label).
    A coefficient is (global coefficients, break or None, the constant
    added from the break on)."""
    m = draw(st.integers(min_value=1, max_value=5))
    parents, depth = {1: 0}, {1: 1}
    for e in range(2, m + 1):
        p = draw(st.sampled_from([f for f in range(1, e) if depth[f] < 3]))
        parents[e], depth[e] = p, depth[p] + 1
    lengths = {e: draw(st.sampled_from([2.0, 2.25, 2.5])) for e in parents}
    n = draw(st.integers(min_value=1, max_value=3))
    q = draw(st.integers(min_value=1, max_value=4))
    coefs = {}
    for e in parents:
        coefs[("b", n, e)] = ([1.0], None, 0.0)
        for k in range(n + 1):
            for fam in ("b", "c") if k < n else ("c",):
                if draw(st.booleans()):
                    coefs[(fam, k, e)] = (draw(st.lists(complex_small, min_size=1, max_size=2)),
                                          draw(st.sampled_from([None, None, 0.75, 1.25])),
                                          draw(st.sampled_from([0.0, 0.2, -0.3j])))
    # phi(0) != 0 keeps the lift, and with it the energy, away from zero
    history = draw(st.lists(complex_small, min_size=1, max_size=3).filter(lambda h: abs(h[0]) > 0.05))
    return parents, lengths, n, q, coefs, history


def _solve(problem, relabel=None, alpha=1.0):
    parents, lengths, n, q, coefs, history = problem
    name = relabel or {e: e for e in parents}
    tree = build_tree(
        {name[e]: (0 if p == 0 else name[p]) for e, p in parents.items()},
        {name[e]: L for e, L in lengths.items()},
    )
    canon = {label: j for j, label in enumerate(tree.original_ids, start=1)}
    tables = {"b": {}, "c": {}}
    for (fam, k, e), (data, cut, jump) in coefs.items():
        j = canon[name[e]]
        T = tree.length(j)
        if cut is None:
            tables[fam][(k, j)] = PiecewisePoly.from_global_coefs(0.0, T, data)
        else:
            right = [data[0] + jump, *data[1:]]
            tables[fam][(k, j)] = PiecewisePoly([0.0, cut, T], [
                PiecewisePoly.from_global_coefs(0.0, cut, data).coefs[0],
                PiecewisePoly.from_global_coefs(cut, T, right).coefs[0]])
    cs = CoefficientSet.build(tree, n, TAU, b=tables["b"], c=tables["c"])
    phi = PiecewisePoly.from_global_coefs(-TAU, 0.0, [alpha * h for h in history])
    return solve_damping(tree, cs, phi, q=q)


def _energy(problem, relabel=None, alpha=1.0):
    return _solve(problem, relabel, alpha).energy


@settings(max_examples=60, deadline=None)
@given(problems())
def test_energy_is_nonnegative(problem):
    assert _energy(problem) >= 0.0


@settings(max_examples=40, deadline=None)
@given(problems(), st.randoms(use_true_random=False))
def test_energy_is_invariant_under_edge_relabelling(problem, rnd):
    labels = list(problem[0])
    shuffled = labels[:]
    rnd.shuffle(shuffled)
    relabel = {e: 10 + s for e, s in zip(labels, shuffled)}
    assert _energy(problem, relabel) == pytest.approx(_energy(problem), rel=1e-12, abs=0.0)


@settings(max_examples=40, deadline=None)
@given(problems(), complex_small.filter(lambda a: abs(a) > 0.05))
def test_energy_scales_with_the_history(problem, alpha):
    scaled = _energy(problem, alpha=4.0 * alpha)
    assert scaled == pytest.approx(abs(4.0 * alpha) ** 2 * _energy(problem), rel=1e-11, abs=0.0)


def _gap(y, z):
    """The largest gap between ``y`` and ``z`` in derivatives ``0..n-1`` at
    the breaks and midpoints of ``y``'s pieces, and the largest of ``y``."""
    size = gap = 0.0
    for a, b in zip(y.components, z.components):
        ts = np.concatenate([a.breaks, (a.breaks[:-1] + a.breaks[1:]) / 2])
        for k in range(y.n):
            want = a.values(ts, k)
            size = max(size, np.max(np.abs(want)))
            gap = max(gap, np.max(np.abs(b.values(ts, k) - want)))
    return gap, size


@settings(max_examples=80, deadline=None)
@given(problems())
def test_damping_then_simulating_reproduces_the_trajectory(problem):
    sol = _solve(problem)
    back = solve_cauchy(sol.mesh.tree, sol.coeffs, sol.y.history, sol.control, sol.mesh)
    gap, size = _gap(sol.y, back)
    assert gap <= 1e-9 * size


@settings(max_examples=150, deadline=None)
@given(problems())
def test_forward_simulation_matches_the_edge_by_edge_oracle(problem):
    # the whole-tree element table against the per-edge collocation sweep
    sol = _solve(problem)
    args = (sol.mesh.tree, sol.coeffs, sol.y.history, sol.control, sol.mesh)
    gap, size = _gap(oracles.solve_cauchy(*args), solve_cauchy(*args))
    assert gap <= 1e-12 * size


@settings(max_examples=20, deadline=None)
@given(problems())
def test_grid_and_symbolic_first_variations_agree(problem):
    # the grid route integrates on the assembly's Gauss points, the symbolic
    # one piece by piece through the re-indexed weights; each entry is
    # compared on the scale sqrt(J) * sqrt(G_pp) of its Cauchy-Schwarz bound
    sol = _solve(problem)
    grid = optimality_check(sol)["per_basis"]
    symbolic = oracles.weak_residual_symbolic(sol.y, sol.basis, sol.coeffs)
    gap = np.abs(grid - symbolic["per_basis"])
    scale = np.sqrt(sol.energy) * np.sqrt(sol.gram.matrix.diagonal().real)
    assert np.all(gap <= 1e-10 * scale)


@settings(max_examples=20, deadline=None)
@given(problems())
def test_sparse_solve_matches_the_dense_oracle_energy(problem):
    # the dense oracle integrates every Gram entry by exact piecewise algebra
    # and solves by a dense Cholesky factorisation
    sol = _solve(problem)
    lift = history_lift(sol.mesh, sol.coeffs.n, sol.y.history)
    want = oracles.dense_energy(sol.basis, lift, sol.coeffs)
    assert sol.energy == pytest.approx(want, rel=1e-12, abs=0.0)


@settings(max_examples=40, deadline=None)
@given(problems())
def test_solved_dofs_are_the_trajectory_nodal_data(problem):
    # the lift lives on the first element only, so at every free node the
    # trajectory's value and derivatives are the solved DOFs themselves
    sol = _solve(problem)
    gap = np.abs(oracles.interpolate(sol.basis, sol.y) - sol.dofs)
    assert np.all(gap <= 1e-12 * max(1.0, np.max(np.abs(sol.dofs), initial=0.0)))
