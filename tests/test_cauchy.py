"""Forward integration by the method of steps."""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

from treedamp.piecewise import PiecewisePoly
from treedamp.trees import build_tree, interval, star
from treedamp.config import ProblemConfig
from treedamp.expressions import CoefficientSet, apply_operator
from treedamp.meshing import Basis, DelayMesh, MeshError, build_mesh, history_lift
from treedamp.damping import default_mesh, solve_damping
from treedamp.cauchy import residual_ell, solve_cauchy
from treedamp.cli import main

import oracles
from oracles import eval_at, tree_function

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"


def _zero_control(tr):
    return tuple(PiecewisePoly.zero(0.0, tr.length(j)) for j in range(1, tr.m + 1))


def test_pure_delay_analytic_solution():
    # y' = -y(t - 1), phi = 1 on [-1, 0]: the classical stepwise polynomial
    T, tau = 3.0, 1.0
    tr = interval(T)
    cs = CoefficientSet.build(tr, 1, tau, b={(1, 1): 1.0}, c={(0, 1): 1.0})
    phi = PiecewisePoly.constant(-tau, 0.0, 1.0)
    mesh = build_mesh(tr, tau, 2)
    y = solve_cauchy(tr, cs, phi, _zero_control(tr), mesh)

    def exact(t):
        if t <= 1.0:
            return 1.0 - t
        if t <= 2.0:
            s = t - 1.0
            return -s + s * s / 2.0
        s = t - 2.0
        return -0.5 + s * s / 2.0 - s**3 / 6.0

    for t in (0.25, 0.5, 1.0, 1.3, 1.75, 2.0, 2.4, 2.9, 3.0):
        assert eval_at(y.component(1), t) == pytest.approx(exact(t), abs=1e-12)


def test_polynomial_manufactured_solution_is_exact():
    # polynomial data on a star is reproduced to roundoff
    tau = 0.5
    tr = star([2.0, 2.0, 2.0])
    cs = CoefficientSet.build(
        tr, 1, tau,
        b={(1, j): 1.0 for j in range(1, 4)}
        | {(0, 1): PiecewisePoly.from_global_coefs(0.0, 2.0, [0.5, 1.0])},
        c={(1, 2): 0.7, (0, 1): -0.4, (0, 3): 1.2},
    )
    comps = (
        PiecewisePoly.from_global_coefs(0.0, 2.0, [0.0, 0.0, 1.0]),        # t^2
        PiecewisePoly.from_global_coefs(0.0, 2.0, [4.0, 0.0, 0.0, 1.0]),   # 4 + t^3
        PiecewisePoly.from_global_coefs(0.0, 2.0, [4.0, -1.0]),            # 4 - t
    )
    phi = PiecewisePoly.from_global_coefs(-tau, 0.0, [0.0, 0.0, 1.0])      # t^2
    y_true = tree_function(tr, 1, comps, phi)
    u = tuple(apply_operator(y_true, cs, j) for j in range(1, 4))

    mesh = build_mesh(tr, tau, 2)
    y = solve_cauchy(tr, cs, phi, u, mesh)
    assert oracles.trajectory_distance(y, y_true) < 1e-11
    res = residual_ell(y, cs, u)
    assert res["total"] < 1e-11


def _neutral_star():
    """Order 2 with every c_k present on a star: the history, the parent's
    tail and the own edge all serve delayed values, first and second
    derivatives.  Returns the tree, the coefficients, the exact trajectory
    and the control it induces."""
    tau = 0.5
    tr = star([2.0, 2.0, 2.0])
    edges = range(1, 4)
    b0 = PiecewisePoly([0.0, 0.7, 2.0], [np.array([0.5]), np.array([-0.3, 1.0])])
    cs = CoefficientSet.build(
        tr, 2, tau,
        b={(2, j): 1.0 for j in edges} | {(1, 1): 0.4, (0, 2): b0},
        c={(0, j): 0.3 for j in edges} | {(1, j): -0.4 for j in edges}
        | {(2, j): 0.25 for j in edges},
    )
    root = [1.0, -0.5 + 0.2j, 0.3, 0.1j]  # one cubic through the history and edge 1
    phi = PiecewisePoly.from_global_coefs(-tau, 0.0, root)
    y1 = PiecewisePoly.from_global_coefs(0.0, 2.0, root)
    v, d = eval_at(y1, 2.0), eval_at(y1, 2.0, 1)  # C^1 across the vertex
    comps = (
        y1,
        oracles.Poly.single(0.0, 2.0, [v, d, -0.7, 0.2]),
        oracles.Poly.single(0.0, 2.0, [v, d, 0.4j, -0.1]),
    )
    y_true = tree_function(tr, 2, comps, phi)
    u = tuple(apply_operator(y_true, cs, j) for j in edges)
    return tr, cs, y_true, u


def test_second_order_neutral_manufactured_solution_is_exact():
    tr, cs, y_true, u = _neutral_star()
    y = solve_cauchy(tr, cs, y_true.history, u, default_mesh(tr, cs, 2))
    assert oracles.trajectory_distance(y, y_true) < 1e-11
    assert residual_ell(y, cs, u)["total"] < 1e-11


@pytest.mark.parametrize("nodes", [
    [0.0, 0.5, 1.0, 1.5, 2.0],
    [0.0, 0.3, 0.7, 0.8, 1.25, 1.7, 2.0],
    [0.0, 0.13, 0.61, 1.1, 1.45, 1.9, 2.0],
], ids=["tau-wide", "unaligned", "unaligned-no-break-node"])
def test_neutral_star_is_exact_on_meshes_not_aligned_with_the_delay(nodes):
    # a delay window ends wherever the next element would pass x_a + tau, so
    # the stepping must not rely on nodes at multiples of tau: here windows
    # straddle t = tau, where a window reads both the history or parent and
    # its own edge; the last mesh also puts b_0's break at 0.7 inside an element
    tr, cs, y_true, u = _neutral_star()
    mesh = DelayMesh.from_nodes(tr, cs.tau, 1, (np.array(nodes),) * tr.m)
    y = solve_cauchy(tr, cs, y_true.history, u, mesh)
    assert oracles.trajectory_distance(y, y_true) < 1e-11
    assert residual_ell(y, cs, u)["total"] < 1e-11


def test_mesh_wider_than_the_delay_is_rejected():
    # an element wider than tau would read its own unfinished coefficients at
    # t - tau and give a wrong trajectory without an error
    cfg = ProblemConfig.from_file(Path(__file__).resolve().parents[1] / "configs" / "interval.json")
    sol = solve_damping(cfg.tree, cfg.coeffs, cfg.history, q=4)
    wide = DelayMesh.from_nodes(cfg.tree, cfg.coeffs.tau, 1, (np.array([0.0, 1.7, 3.0]),))
    with pytest.raises(MeshError, match="element width 1.7 exceeds the delay 1.0"):
        solve_cauchy(cfg.tree, cfg.coeffs, cfg.history, sol.control, wide)
    y = solve_cauchy(cfg.tree, cfg.coeffs, cfg.history, sol.control, sol.mesh)
    assert residual_ell(y, cfg.coeffs, sol.control)["total"] < 1e-12


@pytest.mark.parametrize("cut, match", [
    (lambda nodes: nodes[:2], "mesh: one node array per edge required, got 2 for 3 edges"),
    (lambda nodes: (nodes[0][:-1],) + nodes[1:],
     r"mesh on edge 1 has domain \[0.0, 1.75\], expected \[0, 2.0\]"),
], ids=["edge-missing", "edge-short"])
def test_mesh_not_matching_the_tree_is_rejected_up_front(cut, match):
    # one node array too few used to end in a bare IndexError, and an edge
    # whose nodes stop short ran the whole sweep before the trajectory's
    # domain check caught it
    cfg = ProblemConfig.from_file(CONFIGS / "star.json")
    mesh = default_mesh(cfg.tree, cfg.coeffs, 4)
    bad = DelayMesh.from_nodes(cfg.tree, cfg.coeffs.tau, 4, cut(mesh.nodes))
    with pytest.raises(MeshError, match=match):
        solve_cauchy(cfg.tree, cfg.coeffs, cfg.history, _zero_control(cfg.tree), bad)


# geometric mean, over the 40 order-2 simulate cases of the benchmark's seeds
# 1-20, of the round-trip distance its check reads: 8.852e-14 for the sweep
# of tests/oracles.py, 7.74e-14 for the whole-tree one
ROUND_TRIP_GEOMEAN_MAX = 8.86e-14


def test_benchmark_round_trips_keep_their_accuracy(tmp_path):
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    dist = []
    for seed in range(1, 21):
        for case in workloads.simulate_cases(seed, ROOT, tmp_path):
            if case.expect["order"] == 2:
                out = tmp_path / f"{seed}-{case.id}"
                assert main(case.argv + ["--out", str(out)]) == 0
                d, problems = workloads.check_simulate(out, case.expect)
                assert not problems
                dist.append(d)
    assert len(dist) == 40
    assert math.exp(np.mean(np.log(dist))) <= ROUND_TRIP_GEOMEAN_MAX


def _samples(y, n):
    """Values and derivatives below ``n`` of every component at its breaks
    and three interior points per piece, the far end as a left limit."""
    out = []
    for p in y.components:
        ts = np.unique(np.concatenate(
            [p.breaks, (p.breaks[:-1, None] + np.diff(p.breaks)[:, None] * [0.25, 0.5, 0.75]).ravel()]))
        for k in range(n):
            v = p.values(ts, k)
            v[-1] = p.left_limit(ts[-1], k)
            out.append(v)
    return np.concatenate(out)


def _binary_tree(rng, depth, n, tau):
    """A full binary tree of ``2**depth - 1`` edges, lengths 2 and 3 in a
    seeded order as on the benchmark's trees, every lower-order coefficient
    a complex linear polynomial, and a seeded quadratic history."""
    m = 2**depth - 1
    lengths = [2.0 + (i % 2) for i in range(m)]
    rng.shuffle(lengths)
    tr = build_tree({i: i // 2 for i in range(1, m + 1)}, {i: lengths[i - 1] for i in range(1, m + 1)})

    def small(lo=0.05, hi=0.3):
        return rng.uniform(lo, hi) * np.exp(2j * np.pi * rng.uniform())

    tables = {"b": {}, "c": {}}
    for j in range(1, m + 1):
        for fam in tables:
            for k in range(n):
                data = [small(), 0.1 * small()]
                tables[fam][(k, j)] = PiecewisePoly.from_global_coefs(0.0, tr.length(j), data)
        tables["b"][(n, j)] = 1.0
    cs = CoefficientSet.build(tr, n, tau, b=tables["b"], c=tables["c"])
    return tr, cs, PiecewisePoly.from_global_coefs(-tau, 0.0, [small(0.5, 1.5) for _ in range(3)])


def _manufactured(rng, cs, phi, mesh):
    """A seeded trajectory on ``mesh`` and the control that drives it."""
    basis = Basis(mesh, cs.n)
    z = rng.standard_normal(basis.ndof) + 1j * rng.standard_normal(basis.ndof)
    y = history_lift(mesh, cs.n, phi) + basis.tree_function(z)
    return y, tuple(apply_operator(y, cs, j) for j in range(1, mesh.tree.m + 1))


def test_round_trip_on_a_benchmark_sized_binary_tree():
    # depth 4, order 2, q 8, lengths 2 and 3, every lower-order coefficient a
    # complex linear polynomial: the manufactured trajectory comes back to
    # roundoff, relative to its largest value
    rng = np.random.default_rng(4)
    tr, cs, phi = _binary_tree(rng, 4, 2, 1.0)
    mesh = default_mesh(tr, cs, 8)
    y_true, u = _manufactured(rng, cs, phi, mesh)

    y = solve_cauchy(tr, cs, phi, u, mesh)
    want = _samples(y_true, cs.n)
    gap = np.max(np.abs(_samples(y, cs.n) - want)) / np.max(np.abs(want))
    assert gap <= 1e-12


# CI's non-dyadic tree: with tau 0.7 the windows of one depth hold different
# numbers of elements
NONDYADIC = {
    "order": 2, "delay": 0.7,
    "edges": [{"id": 1, "parent": 0, "length": 2.3}, {"id": 2, "parent": 1, "length": 1.9},
              {"id": 3, "parent": 1, "length": 2.6}, {"id": 4, "parent": 2, "length": 2.15},
              {"id": 5, "parent": 2, "length": 1.7}],
    "coefficients": [
        *({"edge": j, "family": "b", "k": 2, "kind": "constant", "data": 1.0} for j in range(1, 6)),
        {"edge": 1, "family": "b", "k": 1, "kind": "piecewise",
         "data": {"breaks": [0.0, 0.55, 2.3], "pieces": [[0.2, -0.1], [[0.5, 0.25]]]}},
        {"edge": 1, "family": "c", "k": 0, "kind": "constant", "data": 0.25},
        {"edge": 2, "family": "c", "k": 1, "kind": "polynomial", "data": [0.1, [0.0, 0.05]]},
        {"edge": 4, "family": "c", "k": 2, "kind": "constant", "data": 0.2},
        {"edge": 3, "family": "c", "k": 0, "kind": "constant", "data": -0.3}],
    "history": {"kind": "piecewise",
                "data": {"breaks": [-0.7, -0.3, 0.0], "pieces": [[1.0, 0.5], [0.8, -0.2, 0.3]]}},
    "solver": {"q": 6, "tolerance": 1e-9},
}


@pytest.mark.parametrize("case", ["nondyadic", "binary", "single edge"])
def test_depth_sweep_matches_the_edge_by_edge_oracle(case):
    # the sweep steps every window of a depth together and pads the shorter
    # ones; the oracle sweeps each edge's windows on their own
    rng = np.random.default_rng(5)
    if case == "binary":  # tau 0.75, so that not every window holds q elements
        (tr, cs, phi), q = _binary_tree(rng, 4, 2, 0.75), 4
    else:
        cfg = ProblemConfig.from_dict(NONDYADIC) if case == "nondyadic" else \
            ProblemConfig.from_file(CONFIGS / "smoothness_loss.json")
        tr, cs, phi, q = cfg.tree, cfg.coeffs, cfg.history, cfg.solver.q
    mesh = default_mesh(tr, cs, q)
    _, first, end, _, depth = mesh.windows
    sizes = [(end - first)[depth == d] for d in range(depth.max() + 1)]  # per depth
    if case == "single edge":
        assert tr.m == 1 and all(len(s) == 1 for s in sizes)
    else:
        assert any(s.min() < s.max() for s in sizes)  # padded steps run
    u = _manufactured(rng, cs, phi, mesh)[1]
    want = _samples(oracles.solve_cauchy(tr, cs, phi, u, mesh), cs.n)
    gap = np.max(np.abs(_samples(solve_cauchy(tr, cs, phi, u, mesh), cs.n) - want))
    assert gap <= 1e-12 * np.max(np.abs(want))


def test_an_overflow_inside_a_padded_depth_names_its_edge():
    # a control of 1e308 on edge 7 from 1.5 on overflows its last window,
    # the depth's last, which holds 3 elements where the depth's longest
    # holds 5: the padded steps carry the overflowed state on, yet the error
    # names no other edge, the root included
    rng = np.random.default_rng(5)
    tr, cs, phi = _binary_tree(rng, 4, 2, 0.75)
    mesh = default_mesh(tr, cs, 4)
    _, first, end, _, depth = mesh.windows
    last = np.flatnonzero(mesh.elements.edge[first] == 6)[-1]  # edge 7's last window
    assert mesh.elements.left[first[last]] == 1.5 and end[last] - first[last] == 3
    assert last == np.flatnonzero(depth == depth[last])[-1]
    assert (end - first)[depth == depth[last]].max() == 5
    u = list(_zero_control(tr))
    u[6] = PiecewisePoly([0.0, 1.5, tr.length(7)], [np.zeros(1), np.array([1e308])])
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(np.linalg.LinAlgError, match="trajectory overflowed on edge id 7$"):
            solve_cauchy(tr, cs, phi, tuple(u), mesh)


def test_history_off_the_delay_window_is_rejected():
    # a history on [-2, 0] under tau = 1 used to be taken as it stood: the
    # result then reported tau = 2, so residual_ell applied the wrong delay
    # and read 0.63 for the very control that produced the trajectory
    tr = interval(3.0)
    cs = CoefficientSet.build(tr, 1, 1.0, b={(1, 1): 1.0}, c={(0, 1): 0.5})
    sol = solve_damping(tr, cs, PiecewisePoly.from_global_coefs(-1.0, 0.0, [1.0, 1.0]), q=4)
    wide = PiecewisePoly.from_global_coefs(-2.0, 0.0, [1.0, 1.0])
    with pytest.raises(MeshError, match=r"history domain \[-2.0, 0.0\] does not match \[-1.0, 0\]"):
        solve_cauchy(tr, cs, wide, sol.control, sol.mesh)
    with pytest.raises(MeshError, match="history domain"):
        solve_damping(tr, cs, wide, q=4)


def test_solution_is_linear_in_history_and_control():
    tau = 1.0
    tr = interval(3.0)
    cs = CoefficientSet.build(
        tr, 1, tau, b={(1, 1): 1.0, (0, 1): 0.5}, c={(1, 1): 0.25, (0, 1): -0.5}
    )
    mesh = build_mesh(tr, tau, 2)
    phi1 = PiecewisePoly.from_global_coefs(-tau, 0.0, [1.0, 0.5])
    phi2 = PiecewisePoly.from_global_coefs(-tau, 0.0, [0.0, -1.0, 2.0])
    u1 = (PiecewisePoly.from_global_coefs(0.0, 3.0, [1.0, 1.0]),)
    u2 = (PiecewisePoly.constant(0.0, 3.0, -2.0),)

    a = 2.0 - 1.0j
    y1 = solve_cauchy(tr, cs, phi1, u1, mesh)
    y2 = solve_cauchy(tr, cs, phi2, u2, mesh)
    phi = oracles.poly(phi1) * a + phi2
    u = (oracles.poly(u1[0]) * a + u2[0],)
    y = solve_cauchy(tr, cs, phi, u, mesh)
    assert oracles.trajectory_distance(y, oracles.scaled(y1, a) + y2) < 1e-10


def test_collocation_residual_decays_under_refinement():
    # nonconstant b_0 makes the exact solution non-polynomial
    tau = 1.0
    tr = interval(3.0)
    cs = CoefficientSet.build(
        tr, 1, tau,
        b={(1, 1): 1.0, (0, 1): PiecewisePoly.from_global_coefs(0.0, 3.0, [0.0, 1.0])},
        c={(0, 1): 0.3},
    )
    phi = PiecewisePoly.constant(-tau, 0.0, 1.0)
    u = (PiecewisePoly.from_global_coefs(0.0, 3.0, [1.0, 0.0, 1.0]),)
    res = []
    for q in (2, 8):
        mesh = build_mesh(tr, tau, q)
        y = solve_cauchy(tr, cs, phi, u, mesh)
        res.append(residual_ell(y, cs, u)["total"])
    assert res[1] < res[0] / 10.0


def test_second_order_system():
    # y'' = u with zero history: double integration of u = 2
    tau = 0.5
    tr = interval(2.0)
    cs = CoefficientSet.build(tr, 2, tau, b={(2, 1): 1.0}, c={})
    phi = PiecewisePoly.zero(-tau, 0.0)
    u = (PiecewisePoly.constant(0.0, 2.0, 2.0),)
    mesh = build_mesh(tr, tau, 2)
    y = solve_cauchy(tr, cs, phi, u, mesh)
    for t in (0.5, 1.0, 1.7):
        assert eval_at(y.component(1), t) == pytest.approx(t * t, abs=1e-12)


def test_damp_then_resimulate_round_trip():
    tau = 1.0
    tr = interval(3.0)
    cs = CoefficientSet.build(
        tr, 1, tau, b={(1, 1): 1.0, (0, 1): 1.0}, c={(1, 1): 0.5, (0, 1): 0.25}
    )
    phi = PiecewisePoly.from_global_coefs(-tau, 0.0, [1.0, 1.0])
    sol = solve_damping(tr, cs, phi, q=4)
    z = solve_cauchy(tr, cs, phi, sol.control, sol.mesh)
    assert oracles.trajectory_distance(z, sol.y) < 1e-9
    # and the resimulated trajectory rests on the final delay window
    tail = oracles.poly(z.component(1)).restrict(2.0, 3.0)
    assert np.sqrt(tail.l2_norm_sq()) < 1e-9


def test_delayed_read_crosses_vertex():
    # constant history propagates through the vertex delayed read: with
    # y' = -y(t - tau) and edge lengths equal, the trajectory is globally
    # the same stepwise polynomial along every root-to-leaf path
    tau = 0.8
    tr = star([2.0, 2.0, 2.0])
    cs = CoefficientSet.build(
        tr, 1, tau, b={(1, j): 1.0 for j in range(1, 4)}, c={(0, j): 1.0 for j in range(1, 4)}
    )
    phi = PiecewisePoly.constant(-tau, 0.0, 1.0)
    mesh = build_mesh(tr, tau, 2)
    y = solve_cauchy(tr, cs, phi, _zero_control(tr), mesh)
    # same scalar equation solved on the interval [0, 4]
    tr_line = interval(4.0)
    cs_line = CoefficientSet.build(tr_line, 1, tau, b={(1, 1): 1.0}, c={(0, 1): 1.0})
    mesh_line = build_mesh(tr_line, tau, 2)
    z = solve_cauchy(tr_line, cs_line, phi, _zero_control(tr_line), mesh_line)
    for t in (0.3, 1.1, 1.9):
        assert eval_at(y.component(1), t) == pytest.approx(eval_at(z.component(1), t), abs=1e-11)
    for t in (0.2, 0.9, 1.6):
        got = eval_at(y.component(2), t)
        assert got == pytest.approx(eval_at(z.component(1), 2.0 + t), abs=1e-11)
        assert eval_at(y.component(3), t) == pytest.approx(got, abs=1e-12)


@pytest.mark.parametrize("lengths, match", [
    ((2.0, 2.0), "got 2 for 3 edges"),
    ((2.0,) * 4, "got 4 for 3 edges"),
    ((2.0, 1.0, 2.0), r"edge 2 has domain \[0.0, 1.0\], expected \[0, 2.0\]"),
], ids=["2", "4", "domain"])
def test_control_with_wrong_edge_count_is_rejected(lengths, match):
    # a star has three edges; the control must carry exactly one input per
    # edge, on that edge's [0, T_j], or it would be read outside its domain
    tau = 0.5
    tr = star([2.0, 2.0, 2.0])
    cs = CoefficientSet.build(tr, 1, tau, b={(1, j): 1.0 for j in range(1, 4)}, c={})
    phi = PiecewisePoly.constant(-tau, 0.0, 1.0)
    mesh = build_mesh(tr, tau, 2)
    y = solve_cauchy(tr, cs, phi, _zero_control(tr), mesh)
    bad = tuple(PiecewisePoly.zero(0.0, T) for T in lengths)
    with pytest.raises(ValueError, match=match):
        solve_cauchy(tr, cs, phi, bad, mesh)
    with pytest.raises(ValueError, match=match):
        residual_ell(y, cs, bad)


def test_an_overflowing_trajectory_is_a_numerical_failure():
    # b_1 = 1e308 overflows the collocation rows on the root edge: the
    # solver names the edge instead of returning a trajectory of nan
    tr = interval(3.0)
    coeffs = CoefficientSet.build(tr, 1, 1.0, b={(1, 1): 1e308}, c={})
    phi = PiecewisePoly.constant(-1.0, 0.0, 1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(np.linalg.LinAlgError, match="trajectory overflowed on edge id 1"):
            solve_cauchy(tr, coeffs, phi, _zero_control(tr), build_mesh(tr, 1.0, 4))


def test_basis_and_simulation_read_the_same_parent_element_off_the_delay_grid():
    # no node at T - tau = 1.5 on the root: a child's read of parent time
    # 1.55 lies in [1.3, 1.7], the element the lead-ins of the basis (which
    # once held [1.7, 2.0] only, read at -0.15) and of the simulation share
    tau, parent = 0.5, [0.0, 0.4, 0.8, 1.3, 1.7, 2.0]
    tr = star([2.0, 2.0, 2.0])
    leaf = np.array([0.0, 0.25, 0.5, 0.9, 1.3, 1.7, 2.0])
    mesh = DelayMesh.from_nodes(tr, tau, 1, (np.array(parent), leaf, leaf))
    ids, s = Basis(mesh, 1).locate(1, np.array([-0.45]))
    assert ids.tolist() == [3]
    assert s[0] == pytest.approx(0.25, abs=1e-15)

    # y' + y = 0 on the root, whose collocated pieces differ at 1.55 by far
    # more than roundoff; y' = -y(t - tau) read off the root on the leaves
    cs = CoefficientSet.build(tr, 1, tau, b={(1, j): 1.0 for j in range(1, 4)} | {(0, 1): 1.0},
                              c={(0, 2): 1.0, (0, 3): 1.0})
    phi = PiecewisePoly.constant(-tau, 0.0, 1.0)
    y = solve_cauchy(tr, cs, phi, _zero_control(tr), mesh)
    root = y.component(1)
    at, beyond = (np.polynomial.polynomial.polyval(1.55 - parent[e], root.coefs[e]) for e in (3, 4))
    assert abs(at - beyond) > 1e-6
    want = oracles.solve_cauchy(tr, cs, phi, _zero_control(tr), mesh)  # reads the root at 1.55 in [1.3, 1.7]
    assert oracles.trajectory_distance(y, want) < 1e-13
