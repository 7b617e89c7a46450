"""Element-local Gram assembly against the whole-tree symbolic route.

The oracle builds ``L w_p`` for every basis function as exact piecewise
polynomial algebra and integrates the products piece by piece; no
quadrature grid and no shape tabulation is shared with the assembly.
"""

from pathlib import Path

import numpy as np
import pytest

from treedamp import damping, expressions
from treedamp.config import ProblemConfig
from treedamp.damping import assemble, default_mesh, solve_damping
from treedamp.expressions import CoefficientSet
from treedamp.meshing import Basis, history_lift
from treedamp.piecewise import PiecewisePoly
from treedamp.trees import build_tree

import oracles

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def _check_against_oracle(tree, coeffs, phi, q):
    mesh = default_mesh(tree, coeffs, q)
    basis = Basis(mesh, coeffs.n)
    lift = history_lift(mesh, coeffs.n, phi)
    gram = assemble(basis, phi, coeffs)
    assert gram.matrix.shape == (basis.ndof, basis.ndof)

    G, f = oracles.dense_gram(basis, lift, coeffs)
    units = [oracles.unit(basis, p) for p in range(basis.ndof)]
    nd = basis.ndof
    for p, r in ((0, 0), (0, 1), (nd - 1, nd // 2)):
        want = oracles.energy_product(units[r], units[p], coeffs)
        assert G[p, r] == pytest.approx(want, rel=1e-13, abs=1e-300)
    want = -oracles.energy_product(lift, units[0], coeffs)
    assert f[0] == pytest.approx(want, rel=1e-13, abs=1e-300)

    scale = np.max(np.abs(G))
    assert np.max(np.abs(oracles.dense_matrix(gram.matrix) - G)) <= 1e-12 * scale
    assert np.max(np.abs(gram.rhs - f)) <= 1e-12 * scale
    return basis


@pytest.mark.parametrize("q", [2, 4])
@pytest.mark.parametrize("name", ["interval.json", "smoothness_loss.json", "star.json"])
def test_shipped_configs_match_symbolic_route(name, q):
    cfg = ProblemConfig.from_file(CONFIGS / name)
    _check_against_oracle(cfg.tree, cfg.coeffs, cfg.history, q)


def test_binary_tree_with_delayed_reads_and_piecewise_coefficient():
    # depth 3, order 2: every b_k and c_k is nonzero on every edge, so each
    # non-root edge reads its parent's tail, and b_1 on edge 2 has an
    # interior breakpoint that is not a delay wavefront
    parents = {1: 0, 2: 1, 3: 1, 4: 2, 5: 2, 6: 3, 7: 3}
    lengths = {1: 2.0, 2: 2.25, 3: 2.5, 4: 2.0, 5: 2.25, 6: 2.0, 7: 2.5}
    tree = build_tree(parents, lengths)
    canon = {label: j for j, label in enumerate(tree.original_ids, start=1)}
    rng = np.random.default_rng(7)

    def small_linear(j):
        a = 0.3 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
        return PiecewisePoly.from_global_coefs(0.0, tree.length(j), a)

    b, c = {}, {}
    for j in range(1, tree.m + 1):
        b[(2, j)] = 1.0 + 0.1j * (j % 3)
        b[(0, j)] = small_linear(j)
        for k in range(3):
            c[(k, j)] = small_linear(j)
        b[(1, j)] = small_linear(j)
    e2 = canon[2]
    b[(1, e2)] = PiecewisePoly(
        np.array([0.0, 0.7, tree.length(e2)]), [np.array([0.2, -0.1j]), np.array([-0.3, 0.05])]
    )
    coeffs = CoefficientSet.build(tree, 2, 1.0, b=b, c=c)
    edge, points = coeffs.breakpoints()
    assert 0.7 in points[edge == e2 - 1]
    phi = PiecewisePoly.from_global_coefs(-1.0, 0.0, [1.0, 0.5 - 0.25j, 0.3])
    basis = _check_against_oracle(tree, coeffs, phi, 2)
    assert basis.ndof > 0


@pytest.mark.parametrize("name", ["interval.json", "smoothness_loss.json", "star.json"])
def test_assembly_builds_no_symbolic_operator_image(name, monkeypatch):
    # the basis and the lift reach G and f through the element tables alone;
    # the only operator image a solve builds is the control's, all edges in
    # one operator_components call on the solved trajectory
    cfg = ProblemConfig.from_file(CONFIGS / name)
    applied, components = [], []
    apply_operator, operator_components = expressions.apply_operator, expressions.operator_components

    def counted_apply(y, coeffs, j):
        applied.append((y, j))
        return apply_operator(y, coeffs, j)

    def counted_components(y, coeffs):
        components.append((y, coeffs))
        return operator_components(y, coeffs)

    monkeypatch.setattr(expressions, "apply_operator", counted_apply)
    monkeypatch.setattr(expressions, "operator_components", counted_components)
    monkeypatch.setattr(damping, "operator_components", counted_components)
    mesh = default_mesh(cfg.tree, cfg.coeffs, 4)
    assemble(Basis(mesh, cfg.n), cfg.history, cfg.coeffs)
    assert applied == [] and components == []

    sol = solve_damping(cfg.tree, cfg.coeffs, cfg.history, q=4)
    assert applied == []
    assert len(components) == 1
    y, coeffs = components[0]
    assert y is sol.y and coeffs is cfg.coeffs
