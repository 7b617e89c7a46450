"""Quasi-derivative structure and jump diagnostics."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from treedamp.piecewise import PiecewisePoly
from treedamp.trees import build_tree, interval, star
from treedamp.expressions import (
    CoefficientSet,
    operator_components,
    variation_weights,
)
from treedamp.damping import optimality_check, solve_damping
from treedamp.cauchy import solve_cauchy
from treedamp.meshing import build_mesh
from treedamp.diagnostics import (
    continuity_report,
    detect_persistent_jump,
    equation_residual,
    kirchhoff_residual,
    match_jump,
    quasi_derivatives,
    solution_report,
)

import oracles
from oracles import eval_at, tree_function


def _interval_fixture():
    tr = interval(3.0)
    cs = CoefficientSet.build(
        tr, 1, 1.0, b={(1, 1): 1.0, (0, 1): 0.5}, c={(1, 1): 0.25, (0, 1): -0.3}
    )
    y = tree_function(
        tr, 1,
        (PiecewisePoly.from_global_coefs(0.0, 3.0, [1.0, 0.5, -0.25, 0.125]),),
        PiecewisePoly.from_global_coefs(-1.0, 0.0, [1.0, 0.5]),
    )
    return tr, cs, y


def test_g_recursion_matches_inline_build():
    tr, cs, y = _interval_fixture()
    ells = operator_components(y, cs)
    qd = quasi_derivatives(cs, ells)
    weights = [variation_weights(cs, ells, k)[0] for k in range(cs.n + 1)]
    gs = oracles.g_recursion(weights)
    for k in range(cs.n, 2 * cs.n + 1):
        diff = gs[k - cs.n] - qd.function(k, 1)
        assert diff.max_abs() < 1e-12


def test_first_order_quasi_derivative_closed_form():
    # with b1 = 1 and constant (a, b, c) = (c1, b0, c0) the first
    # quasi-derivative splits into a symmetric advance-delay part in y' and
    # a lower-order part in y; check the split pointwise
    a, b, c = 0.25, 0.5, -0.3
    tr, cs, y = _interval_fixture()
    qd = quasi_derivatives(cs, operator_components(y, cs))
    f = qd.function(1, 1)
    tau = 1.0
    comp = y.component(1)
    for t in (0.2, 0.9, 1.5, 1.9):
        sym = (
            (1 + a * a) * eval_at(comp, t, 1)
            + a * oracles.eval_delayed(y, 1, t - tau, 1)
            + a * eval_at(comp, t + tau, 1)
        )
        low = (
            (a * c + b) * eval_at(comp, t)
            + c * oracles.eval_delayed(y, 1, t - tau)
            + a * b * eval_at(comp, t + tau)
        )
        assert eval_at(f, t) == pytest.approx(sym + low, rel=1e-12)


def test_second_order_quasi_derivatives_closed_form():
    # order two, b2 = c1 = 1, everything else zero: the recursion gives
    #   y<2> = y'' + y'(. - tau)
    #   y<3> = -y''' + y''(. + tau) - y''(. - tau) + y'
    tau = 1.0
    tr = interval(4.0)
    cs = CoefficientSet.build(tr, 2, tau, b={(2, 1): 1.0}, c={(1, 1): 1.0})
    poly = [0.3, -0.2, 0.5, 0.125, -0.0625]
    y = tree_function(
        tr, 2,
        (PiecewisePoly.from_global_coefs(0.0, 4.0, poly),),
        PiecewisePoly.from_global_coefs(-tau, 0.0, poly),
    )
    qd = quasi_derivatives(cs, operator_components(y, cs))
    comp = y.component(1)

    def dk(t, k):
        return oracles.eval_delayed(y, 1, t, k)

    for t in (0.3, 1.4, 2.1, 2.9):
        want2 = eval_at(comp, t, 2) + dk(t - tau, 1)
        assert eval_at(qd.function(2, 1), t) == pytest.approx(want2, rel=1e-12)
        want3 = (-eval_at(comp, t, 3) + eval_at(comp, t + tau, 2) - dk(t - tau, 2)
                 + eval_at(comp, t, 1))
        assert eval_at(qd.function(3, 1), t) == pytest.approx(want3, rel=1e-12)


def test_retarded_first_order_vertex_balance_reduction():
    # when the neutral coefficients vanish identically, the order-1 balance
    # at a branching vertex reduces to a relation between the one-sided
    # derivatives and the trajectory values at the vertex; check both routes
    tau = 0.5
    tr = star([2.0, 2.0, 2.0])
    rng = np.random.default_rng(17)
    b0 = {j: PiecewisePoly.from_global_coefs(0.0, 2.0, rng.standard_normal(2)) for j in range(1, 4)}
    c0 = {j: PiecewisePoly.from_global_coefs(0.0, 2.0, rng.standard_normal(2)) for j in range(1, 4)}
    cs = CoefficientSet.build(
        tr, 1, tau,
        b={(1, j): 1.0 for j in range(1, 4)} | {(0, j): b0[j] for j in range(1, 4)},
        c={(0, j): c0[j] for j in range(1, 4)},
    )
    # vertex-continuous trajectory
    y1 = PiecewisePoly.from_global_coefs(0.0, 2.0, [1.0, -0.3, 0.2])
    v = eval_at(y1, 2.0)
    comps = (
        y1,
        PiecewisePoly.from_global_coefs(0.0, 2.0, [v, 0.7, -0.1]),
        PiecewisePoly.from_global_coefs(0.0, 2.0, [v, -0.4]),
    )
    y = tree_function(tr, 1, comps, PiecewisePoly.from_global_coefs(-tau, 0.0, [1.0, 1.0]))

    qd = quasi_derivatives(cs, operator_components(y, cs))
    T1 = 2.0
    raw = qd.function(1, 1).left_limit(T1) - sum(
        qd.function(1, nu).right_limit(0.0) for nu in (2, 3)
    )
    # displayed reduction: y_1'(T) + (b - sum b_nu) y(T) + (c - sum c_nu) y(T - tau)
    # minus the sum of outgoing derivatives
    reduced = (
        y1.left_limit(T1, 1)
        + (eval_at(b0[1], T1) - eval_at(b0[2], 0.0) - eval_at(b0[3], 0.0)) * eval_at(y1, T1)
        + (eval_at(c0[1], T1) - eval_at(c0[2], 0.0) - eval_at(c0[3], 0.0)) * eval_at(y1, T1 - tau)
        - sum(comps[j - 1].right_limit(0.0, 1) for j in (2, 3))
    )
    assert raw == pytest.approx(reduced, rel=1e-10, abs=1e-12)


def test_kirchhoff_residual_empty_on_interval():
    tr, cs, y = _interval_fixture()
    qd = quasi_derivatives(cs, operator_components(y, cs))
    kr = kirchhoff_residual(qd)
    assert kr == {"max": 0.0}


def _piecewise_with_inner_breaks(rng, a, b, width):
    """Complex pieces of random widths up to ``width``, cut at up to two
    random points inside ``[a, b]``."""
    cuts = np.sort(rng.uniform(a + 0.1, b - 0.1, int(rng.integers(0, 3))))
    breaks = np.concatenate([[a], cuts, [b]])
    return PiecewisePoly(breaks, [rng.standard_normal(w) + 1j * rng.standard_normal(w)
                                  for w in rng.integers(1, width + 1, len(breaks) - 1)])


def _random_quasi_derivatives(seed):
    """Quasi-derivatives on a random tree of depth at most 4: order 1-3,
    lower coefficients present or absent and broken inside the edges, and
    a control broken inside the edges too."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 4))
    parents, depth = {1: 0}, {1: 1}
    for i in range(2, int(rng.integers(1, 16)) + 1):
        parents[i] = int(rng.choice([v for v in depth if depth[v] < 4]))
        depth[i] = depth[parents[i]] + 1
    tr = build_tree(parents, {i: float(rng.uniform(1.5, 3.0)) for i in parents})
    tau = float(rng.uniform(0.3, 0.9))
    b = {(n, j): 1.0 + 0.1 * rng.standard_normal() for j in range(1, tr.m + 1)}
    c = {}
    for j in range(1, tr.m + 1):
        for k in range(n + 1):
            for table in (b, c):
                if (k, j) not in table and rng.random() < 0.6:
                    table[(k, j)] = _piecewise_with_inner_breaks(rng, 0.0, tr.length(j), 3)
    cs = CoefficientSet.build(tr, n, tau, b=b, c=c)
    ells = [_piecewise_with_inner_breaks(rng, 0.0, tr.length(j), 2 * n)
            for j in range(1, tr.m + 1)]
    return quasi_derivatives(cs, ells)


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-15 * max(1.0, abs(b))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_table_passes_match_the_per_edge_limits(seed):
    qd = _random_quasi_derivatives(seed)
    tree, n = qd.tree, qd.n
    report = continuity_report(qd)
    for k in range(n, 2 * n):
        want = [(j, t, abs(gap)) for j in range(1, tree.m + 1)
                for t, gap in oracles.poly(qd.function(k, j)).jumps() if abs(gap) > 0.0]
        got = report[k]["jumps"]
        assert [(j, t) for j, t, _ in got] == [(j, t) for j, t, _ in want]
        assert all(_close(g, w) for (_, _, g), (_, _, w) in zip(got, want))
    balances = kirchhoff_residual(qd)
    for j in range(1, tree.d + 1):
        lj = qd.function(n, j).domain[1]
        for k in range(n, 2 * n):
            left = qd.function(k, j).left_limit(lj)
            right = sum(qd.function(k, nu).right_limit(0.0) for nu in oracles.children(tree, j))
            assert _close(balances[(j, k)], abs(left - right))
    assert len(balances) == tree.d * n + 1
    top = max(p.max_abs() for p in qd.functions[2 * n])
    assert _close(equation_residual(qd), top)


def test_kirchhoff_residual_decays_at_optimum():
    tr = star([2.0, 2.0, 2.0])
    cs = CoefficientSet.build(
        tr, 1, 0.5,
        b={(1, j): 1.0 for j in range(1, 4)} | {(0, 1): 0.2},
        c={(0, 2): 0.3},
    )
    phi = PiecewisePoly.from_global_coefs(-0.5, 0.0, [1.0, 0.5])
    defects = []
    for q in (2, 8):
        sol = solve_damping(tr, cs, phi, q=q)
        defects.append(kirchhoff_residual(quasi_derivatives(sol.coeffs, sol.control))["max"])
    assert defects[1] < defects[0] / 2.0


def test_jump_table_records_known_kink():
    tr = interval(3.0)
    cs = CoefficientSet.build(tr, 1, 1.0, b={(1, 1): 1.0}, c={})
    comp = PiecewisePoly(
        np.array([0.0, 0.7, 3.0]),
        [np.array([1.0, -1.0]), np.array([0.3, 2.0])],
    )
    y = tree_function(tr, 1, (comp,), PiecewisePoly.constant(-1.0, 0.0, 1.0))
    qd = quasi_derivatives(cs, operator_components(y, cs))
    # y<1> = y', carrying the slope change 2 - (-1) = 3 at t = 0.7
    entries = oracles.poly(qd.function(1, 1)).jumps()
    [(t, gap)] = [(t, g) for t, g in entries if abs(g) > 1e-12]
    assert t == pytest.approx(0.7) and gap == pytest.approx(3.0)
    rep = continuity_report(qd, threshold=1e-12)
    assert rep[1]["max_jump"] == pytest.approx(3.0)
    assert rep[1]["location"] == (1, pytest.approx(0.7))


def test_continuity_report_clean_for_smooth_optimum():
    tr, cs0, _ = _interval_fixture()
    cs = CoefficientSet.build(tr, 1, 1.0, b={(1, 1): 1.0}, c={})
    phi = PiecewisePoly.constant(-1.0, 0.0, 1.0)
    sol = solve_damping(tr, cs, phi, q=4)
    qd = quasi_derivatives(cs, sol.control)
    rep = continuity_report(qd)
    assert rep[1]["max_jump"] < 1e-10
    assert equation_residual(qd) < 1e-10


def test_match_jump_by_position():
    entries = [(1, 0.5, 2.0), (2, 0.5, 7.0), (1, 1.25, 0.1)]
    assert match_jump(entries, (2, 0.5), 1e-9) == 7.0
    assert match_jump(entries, (1, 1.25 + 1e-12), 1e-9) == 0.1
    assert match_jump(entries, (1, 0.9), 1e-9) == 0.0


def _level(jumps):
    worst = max(jumps, key=lambda e: e[2])
    return {"max_jump": worst[2], "location": (worst[0], worst[1]), "jumps": jumps}


def test_detect_persistent_jump_stable_dominant():
    levels = [
        _level([(1, 0.5, 1.02), (1, 1.1, 0.30)]),
        _level([(1, 0.5, 1.00), (1, 1.1, 0.05)]),
    ]
    out = detect_persistent_jump(levels)
    assert out["persistent"] and out["location"] == (1, 0.5)
    assert out["magnitude"] == pytest.approx(1.0)


def test_detect_persistent_jump_rejects_decaying():
    levels = [
        _level([(1, 0.5, 0.8)]),
        _level([(1, 0.5, 0.4)]),  # halved: still changing
    ]
    assert not detect_persistent_jump(levels)["persistent"]


def test_detect_persistent_jump_requires_separation():
    levels = [
        _level([(1, 0.5, 1.0), (1, 1.3, 0.5)]),
        _level([(1, 0.5, 1.0), (1, 1.3, 0.5)]),  # competitor too close in size
    ]
    assert not detect_persistent_jump(levels)["persistent"]


def test_detect_persistent_jump_exclude_radius_absorbs_aliases():
    # aliased node jumps flank the true location within one element width
    levels = [
        _level([(1, 0.5, 1.0), (1, 0.47, 0.5), (1, 0.53, 0.5)]),
        _level([(1, 0.5, 1.0), (1, 0.48, 0.5), (1, 0.52, 0.5)]),
    ]
    out = detect_persistent_jump(levels, location=(1, 0.5))
    assert not out["persistent"]  # aliases counted as competitors
    out = detect_persistent_jump(levels, location=(1, 0.5), exclude_radius=0.05)
    assert out["persistent"]
    assert out["separation"] == np.inf


def test_detect_persistent_jump_empty_levels():
    levels = [
        {"max_jump": 0.0, "location": None, "jumps": []},
        {"max_jump": 0.0, "location": None, "jumps": []},
    ]
    assert not detect_persistent_jump(levels)["persistent"]


def test_weak_bvp_residual_flags_nonoptimal_trajectory():
    tr = interval(3.0)
    cs = CoefficientSet.build(
        tr, 1, 1.0, b={(1, 1): 1.0, (0, 1): 0.4}, c={(0, 1): 0.2}
    )
    phi = PiecewisePoly.from_global_coefs(-1.0, 0.0, [1.0, 1.0])
    sol = solve_damping(tr, cs, phi, q=3)
    at_opt = oracles.weak_residual_symbolic(sol.y, sol.basis, cs)
    assert at_opt["max_rel"] < 1e-10

    # drive the same history with an arbitrary control: not optimal
    u = (PiecewisePoly.from_global_coefs(0.0, 3.0, [1.0, 1.0]),)
    z = solve_cauchy(tr, cs, phi, u, sol.mesh)
    off_opt = oracles.weak_residual_symbolic(z, sol.basis, cs)
    assert off_opt["max_rel"] > 1e-3


def test_weak_bvp_residual_matches_grid_optimality():
    tr = star([2.0, 2.0, 2.0])
    cs = CoefficientSet.build(
        tr, 1, 0.5,
        b={(1, j): 1.0 for j in range(1, 4)} | {(0, 3): 0.5},
        c={(1, 1): 0.3},
    )
    phi = PiecewisePoly.from_global_coefs(-0.5, 0.0, [1.0, -0.5])
    sol = solve_damping(tr, cs, phi, q=3)
    weak = oracles.weak_residual_symbolic(sol.y, sol.basis, sol.coeffs)
    grid = optimality_check(sol)
    assert np.allclose(weak["per_basis"], grid["per_basis"], atol=1e-12)
    assert weak["max_abs"] == pytest.approx(grid["max_abs"], abs=1e-12)


def test_solution_report_bundle():
    tr = star([2.0, 2.0, 2.0])
    cs = CoefficientSet.build(
        tr, 1, 0.5, b={(1, j): 1.0 for j in range(1, 4)}, c={(0, 1): 0.3}
    )
    phi = PiecewisePoly.from_global_coefs(-0.5, 0.0, [1.0, 0.0])
    sol = solve_damping(tr, cs, phi, q=3)
    rep = solution_report(sol)
    assert list(rep) == [
        "ndof", "energy", "optimality", "equation_sup",
        "kirchhoff", "kirchhoff_max", "continuity",
    ]
    assert rep["ndof"] == sol.dofs.size
    assert rep["energy"] == sol.energy
    assert rep["optimality"] < 1e-8
    assert [(r["vertex"], r["order"]) for r in rep["kirchhoff"]] == [(tr.original_ids[0], 1)]
    assert rep["kirchhoff_max"] == rep["kirchhoff"][0]["residual"]
    assert set(rep["continuity"]) == {"1"}
    json.dumps(rep)
