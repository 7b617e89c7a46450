"""Constrained quadratic minimisation of the control cost."""

import dataclasses
import json
import re
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from treedamp import damping
from treedamp.cli import main
from treedamp.config import ProblemConfig
from treedamp.piecewise import PiecewisePoly
from treedamp.trees import interval, star
from treedamp.expressions import CoefficientError, CoefficientSet
from treedamp.damping import (
    IndefiniteGramError,
    assemble,
    default_mesh,
    optimality_check,
    solve_damping,
)
from treedamp.meshing import Basis, history_lift

import oracles

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"


def _first_order_interval(T=3.0, tau=1.0):
    tr = interval(T)
    cs = CoefficientSet.build(tr, 1, tau, b={(1, 1): 1.0}, c={})
    return tr, cs


def test_degenerate_interval_linear_decay():
    # pure derivative cost: the optimum decays linearly over the active
    # window and the P1 space contains it, so the energy is exact at q = 1
    tr, cs = _first_order_interval(T=3.0, tau=1.0)
    phi = PiecewisePoly.constant(-1.0, 0.0, 1.0)
    for q in (1, 4):
        sol = solve_damping(tr, cs, phi, q=q)
        assert sol.energy == pytest.approx(0.5, rel=1e-12)
        assert sol.y.component(1).eval(1.0) == pytest.approx(0.5, abs=1e-10)
    # whole-interval rest: T = 2 leaves only [0, 1] active
    tr2, cs2 = _first_order_interval(T=2.0, tau=1.0)
    sol2 = solve_damping(tr2, cs2, PiecewisePoly.constant(-1.0, 0.0, 1.0), q=2)
    assert sol2.energy == pytest.approx(1.0, rel=1e-12)


def test_degenerate_star_balances_flux():
    # equal-length star with derivative cost: vertex value 1/5, energy 2/5
    tr = star([2.0, 2.0, 2.0])
    cs = CoefficientSet.build(tr, 1, 1.0, b={(1, j): 1.0 for j in range(1, 4)}, c={})
    phi = PiecewisePoly.constant(-1.0, 0.0, 1.0)
    sol = solve_damping(tr, cs, phi, q=2)
    assert sol.energy == pytest.approx(0.4, rel=1e-12)
    assert sol.y.component(1).left_limit(2.0) == pytest.approx(0.2, abs=1e-10)
    # flux balance at the vertex: y_1' = y_2' + y_3'
    out = sum(sol.y.component(j).right_limit(0.0, 1) for j in (2, 3))
    assert sol.y.component(1).left_limit(2.0, 1) == pytest.approx(out, abs=1e-9)


def test_energy_identity_through_gram_system():
    # J(lift + w) = J(lift) - Re(x^H f) at the Gram solution
    tr = interval(3.0)
    cs = CoefficientSet.build(
        tr, 1, 1.0, b={(1, 1): 1.0, (0, 1): 0.5}, c={(1, 1): 0.3, (0, 1): -0.2}
    )
    phi = PiecewisePoly.from_global_coefs(-1.0, 0.0, [1.0, 0.5])
    sol = solve_damping(tr, cs, phi, q=4)
    J_lift = oracles.energy(history_lift(sol.mesh, 1, phi), cs)
    J_pred = J_lift - float(np.real(np.vdot(sol.dofs, sol.gram.rhs)))
    assert sol.energy == pytest.approx(J_pred, rel=1e-11)
    assert sol.energy == pytest.approx(oracles.energy(sol.y, cs), rel=1e-12)


def test_solution_is_admissible_up_to_history():
    tr = star([2.0, 2.0, 2.0])
    cs = CoefficientSet.build(
        tr, 1, 0.5,
        b={(1, j): 1.0 for j in range(1, 4)} | {(0, 2): 0.4},
        c={(1, 1): 0.25, (0, 3): 0.6},
    )
    phi = PiecewisePoly.from_global_coefs(-0.5, 0.0, [1.0, -1.0])
    sol = solve_damping(tr, cs, phi, q=4)
    assert oracles.history_defect(sol.y) < 1e-10
    assert oracles.vertex_defect(sol.y) < 1e-10
    for j in (2, 3):
        Tj = tr.length(j)
        tail = oracles.poly(sol.y.component(j)).restrict(Tj - 0.5, Tj)
        assert np.sqrt(tail.l2_norm_sq()) < 1e-12


def test_energy_decreases_under_refinement():
    tr = interval(3.0)
    cs = CoefficientSet.build(
        tr, 1, 1.0, b={(1, 1): 1.0, (0, 1): 1.0}, c={(1, 1): 0.5, (0, 1): 0.25}
    )
    phi = PiecewisePoly.from_global_coefs(-1.0, 0.0, [1.0, 1.0])
    energies = [solve_damping(tr, cs, phi, q=q).energy for q in (1, 2, 4, 8)]
    for a, b in zip(energies, energies[1:]):
        assert b <= a + 1e-12
    assert energies[-1] > 0.0


def test_optimality_residual_is_small():
    tr = star([2.0, 2.0, 2.0])
    cs = CoefficientSet.build(
        tr, 1, 0.5,
        b={(1, j): 1.0 for j in range(1, 4)} | {(0, 1): 0.3},
        c={(1, 2): 0.4, (0, 1): 0.2},
    )
    phi = PiecewisePoly.from_global_coefs(-0.5, 0.0, [1.0, 0.5])
    sol = solve_damping(tr, cs, phi, q=4)
    opt = optimality_check(sol)
    assert opt["max_rel"] < 1e-10
    dom = oracles.energy_dominance_check(sol, trials=50, seed=3)
    assert dom["ok"], dom


def test_weak_residual_agrees_with_grid_route():
    tr = interval(3.0)
    cs = CoefficientSet.build(
        tr, 1, 1.0, b={(1, 1): 1.0, (0, 1): 0.7}, c={(1, 1): 0.2, (0, 1): 0.4}
    )
    phi = PiecewisePoly.from_global_coefs(-1.0, 0.0, [1.0, 1.0])
    sol = solve_damping(tr, cs, phi, q=3)
    grid_route = optimality_check(sol)
    weak_route = oracles.weak_residual_symbolic(sol.y, sol.basis, sol.coeffs)
    assert np.allclose(
        weak_route["per_basis"], grid_route["per_basis"], atol=1e-12
    )


def test_gram_matrix_is_hermitian_positive_definite():
    rng = np.random.default_rng(42)
    tr = star([2.0, 2.0, 2.0])
    for _ in range(5):
        coefs = {}
        for j in range(1, 4):
            coefs[(1, j)] = 1.0 + 0.5 * abs(rng.standard_normal())
        bmap = dict(coefs)
        bmap[(0, 1)] = rng.standard_normal()
        cmap = {(1, 2): 0.5 * rng.standard_normal(), (0, 3): rng.standard_normal()}
        cs = CoefficientSet.build(tr, 1, 0.6, b=bmap, c=cmap)
        mesh = default_mesh(tr, cs, 2)
        basis = Basis(mesh, 1)
        gram = assemble(basis, PiecewisePoly.constant(-0.6, 0.0, 1.0), cs)
        assert gram.hermiticity_defect() < 1e-12
        # PD: Cholesky succeeds and the diagonal is positive
        L = np.linalg.cholesky(gram.matrix.toarray())
        assert np.min(np.diag(L).real) > 0.0


def test_leading_coefficient_zero_is_rejected_at_build():
    tr = interval(3.0)
    dip = PiecewisePoly(
        np.array([0.0, 1.0, 1.5, 3.0]),
        [np.array([1.0]), np.array([0.0]), np.array([1.0])],
    )
    with pytest.raises(CoefficientError, match="away from zero"):
        CoefficientSet.build(tr, 1, 1.0, b={(1, 1): dip}, c={})


def _forged_degenerate():
    # a coefficient set forged past validation: the leading term is
    # identically zero, so the energy form is degenerate
    tr, cs = _first_order_interval()
    zero = PiecewisePoly.zero(0.0, 3.0)
    bad = object.__new__(CoefficientSet)
    for name, val in (
        ("tree", cs.tree), ("n", cs.n), ("tau", cs.tau),
        ("b", ((zero,), (zero,))), ("c", cs.c),
    ):
        object.__setattr__(bad, name, val)
    return tr, bad, PiecewisePoly.constant(-1.0, 0.0, 1.0)


def test_degenerate_operator_raises_indefinite_gram():
    # the forged family must surface as the dedicated factorisation error,
    # not junk
    tr, bad, phi = _forged_degenerate()
    with pytest.raises(IndefiniteGramError) as info:
        solve_damping(tr, bad, phi, q=2)
    # the message names the mesh and the conditioning, not only the coefficient
    h_min = default_mesh(tr, bad, 2).min_width()
    assert f"h_min = {h_min:.3e}" in str(info.value)
    assert re.search(r"Cholesky factor failed; scaled pivot ratio \d\.\d{3}e[+-]\d+ over 0 of "
                     r"\d+ pivots", str(info.value))


def test_large_degenerate_system_is_reported_without_a_dense_copy(monkeypatch):
    # the report rests on the factor alone, at any size: no dense copy of G is made
    def dense(self):
        raise AssertionError("dense copy of the Gram matrix")

    monkeypatch.setattr(damping.CellBlocks, "toarray", dense)
    tr, bad, phi = _forged_degenerate()
    with pytest.raises(IndefiniteGramError, match="not positive definite") as info:
        solve_damping(tr, bad, phi, q=2)
    assert f"h_min = {default_mesh(tr, bad, 2).min_width():.3e}" in str(info.value)


def test_negative_pivot_raises_indefinite_gram():
    # a negative definite system factors, but its pivots are negative
    tr, cs = _first_order_interval()
    mesh = default_mesh(tr, cs, 2)
    basis = Basis(mesh, 1)
    gram = assemble(basis, PiecewisePoly.constant(-1.0, 0.0, 1.0), cs)
    flipped = dataclasses.replace(gram, matrix=dataclasses.replace(gram.matrix, blocks=-gram.matrix.blocks))
    with pytest.raises(IndefiniteGramError, match="Cholesky factor failed") as info:
        flipped.solve()
    assert re.search(r"scaled pivot ratio \d\.\d{3}e[+-]\d+", str(info.value))
    assert f"h_min = {mesh.min_width():.3e}" in str(info.value)


def test_refinement_step_reaches_least_squares_accuracy():
    # G = conj(L) W L^T squares the condition number of the weighted images;
    # one corrected seminormal step brings the solution back to what a dense
    # least-squares solve of the images gives.  Without the step the gap is
    # 6e-12 at q = 8 and 8e-11 at q = 16 (order 2, so cond grows like q^2).
    cfg = ProblemConfig.from_file(CONFIGS / "smoothness_loss.json")
    for q in (8, 16):
        mesh = default_mesh(cfg.tree, cfg.coeffs, q)
        basis = Basis(mesh, cfg.n)
        gram = assemble(basis, cfg.history, cfg.coeffs)
        want = oracles.least_squares_dofs(gram)
        assert np.linalg.norm(gram.solve() - want) <= 1e-12 * np.linalg.norm(want)


def test_seminormal_steps_reach_least_squares_accuracy_at_order_three():
    # star3 at q 64 (ndof 1338, scaled pivot ratio 3.1e9): a single corrected
    # seminormal step left the DOFs 1.5e-5 off the least-squares solution;
    # repeating it while it contracts brings them to 2.4e-10
    cfg = ProblemConfig.from_file(CONFIGS / "star3.json")
    sol = solve_damping(cfg.tree, cfg.coeffs, cfg.history, q=64)
    assert sol.basis.ndof == 1338
    want = oracles.least_squares_dofs(sol.gram)
    assert np.linalg.norm(sol.dofs - want) <= 1e-8 * np.linalg.norm(want)


def test_seminormal_steps_that_fall_below_roundoff_return():
    # here the optimum lies in the discrete space, so every corrected
    # seminormal step keeps halving the one before, down to 1.8e-22 of the
    # DOFs after ten; those DOFs are the least-squares ones, not a failure
    tree = interval(2.25)
    lead = {(1, 1): PiecewisePoly.constant(0.0, 2.25, 1.0)}
    c1 = PiecewisePoly([0.0, 1.25, 2.25], [[0.5], [0.5 - 0.3j]])
    cs = CoefficientSet.build(tree, 1, 1.0, b=lead, c={(1, 1): c1})
    sol = solve_damping(tree, cs, PiecewisePoly.constant(-1.0, 0.0, 0.2890625j), q=1)
    want = oracles.least_squares_dofs(sol.gram)
    assert np.linalg.norm(sol.dofs - want) <= 1e-12 * np.linalg.norm(want)


def test_seminormal_steps_still_contracting_at_the_limit_raise(monkeypatch, tmp_path, capsys):
    # the first correction always contracts, so a limit of one step is
    # reached on any problem; the error names the conditioning, and is not
    # the definiteness failure
    monkeypatch.setattr(damping, "CSNE_MAX_STEPS", 1)
    cfg = ProblemConfig.from_file(CONFIGS / "smoothness_loss.json")
    with pytest.raises(np.linalg.LinAlgError) as info:
        solve_damping(cfg.tree, cfg.coeffs, cfg.history, q=8)
    assert not isinstance(info.value, IndefiniteGramError)
    assert "not positive definite" not in str(info.value)
    assert re.search(r"still contracting after 1: last relative correction \d\.\d{3}e[+-]\d+, "
                     r"scaled pivot ratio \d\.\d{3}e[+-]\d+ over \d+ of \d+ pivots, smallest element "
                     r"width h_min = ",
                     str(info.value))
    cfg_path = str(CONFIGS / "smoothness_loss.json")
    assert main(["damp", "--config", cfg_path, "--out", str(tmp_path / "o"), "--q", "8"]) == 3
    assert "still contracting" in capsys.readouterr().err


# tracemalloc peak of solve_damping on the depth-6, order-2, q-8 binary tree
# (ndof 1440): the sparse route takes about 5 MiB, a dense ndof x nquad image
# table alone about 250 MiB
SPARSE_MEMORY_CAP_MIB = 32


def test_solve_damping_memory_stays_sparse():
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        from workloads import binary_tree_problem
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    cfg = ProblemConfig.from_dict(binary_tree_problem(np.random.default_rng(0), 6, 2, 8))
    tracemalloc.start()
    try:
        solve_damping(cfg.tree, cfg.coeffs, cfg.history, q=8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < SPARSE_MEMORY_CAP_MIB * 2**20


def test_damping_is_linear_in_history():
    tr, cs0 = _first_order_interval()
    cs = CoefficientSet.build(
        tr, 1, 1.0, b={(1, 1): 1.0, (0, 1): 0.3}, c={(1, 1): 0.6, (0, 1): -0.1}
    )
    phi1 = PiecewisePoly.from_global_coefs(-1.0, 0.0, [1.0, 1.0])
    phi2 = PiecewisePoly.from_global_coefs(-1.0, 0.0, [0.5, 0.0, -1.0])
    s1 = solve_damping(tr, cs, phi1, q=3)
    s2 = solve_damping(tr, cs, phi2, q=3)
    s12 = solve_damping(tr, cs, oracles.poly(phi1) + phi2, q=3)
    diff = oracles.poly(s12.y.component(1)) - s1.y.component(1) - s2.y.component(1)
    assert np.sqrt(diff.l2_norm_sq()) < 1e-10
    sd = solve_damping(tr, cs, oracles.poly(phi1) * 2.0, q=3)
    assert sd.energy == pytest.approx(4.0 * s1.energy, rel=1e-11)


def test_short_boundary_edge_warns():
    tr = interval(1.5)
    cs = CoefficientSet.build(tr, 1, 1.0, b={(1, 1): 1.0}, c={})
    phi = PiecewisePoly.constant(-1.0, 0.0, 1.0)
    with pytest.warns(UserWarning, match="two delay spans"):
        solve_damping(tr, cs, phi, q=2)


def test_default_mesh_seeds_vertex_wavefronts():
    tr = star([2.0, 2.0, 2.0])
    cs = CoefficientSet.build(tr, 1, 0.8, b={(1, j): 1.0 for j in range(1, 4)}, c={})
    mesh = default_mesh(tr, cs, 1)
    for j in (2, 3):
        xs = mesh.nodes[j - 1]
        # images of the branching instant T_1 = 2: local 0.8, 1.6
        for t in (0.8, 1.6):
            assert np.min(np.abs(xs - t)) < 1e-9


def test_second_order_problem_runs_and_is_optimal():
    tr = interval(4.0)
    cs = CoefficientSet.build(tr, 2, 1.0, b={(2, 1): 1.0}, c={(1, 1): 1.0})
    phi = PiecewisePoly.from_global_coefs(-1.0, 0.0, [1.0, 1.0, 0.5])
    sol = solve_damping(tr, cs, phi, q=3)
    assert sol.energy > 0.0
    assert optimality_check(sol)["max_rel"] < 1e-9
    assert oracles.smoothness_defect(sol.y) < 1e-9  # C^1 trial space


def test_an_overflowing_solution_is_a_numerical_failure():
    # a history of 1e308 overflows the trajectory's coefficients: the
    # solver names the overflow instead of returning energy nan
    d = json.loads((CONFIGS / "interval.json").read_text())
    d["history"] = {"kind": "polynomial", "data": [1e308, 1e308]}
    cfg = ProblemConfig.from_dict(d)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(np.linalg.LinAlgError, match="optimal trajectory overflowed"):
            solve_damping(cfg.tree, cfg.coeffs, cfg.history, q=4)
