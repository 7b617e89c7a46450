"""The Gram system as cell blocks, factored along the tree's tau-runs.

The front solve is checked against a dense solve of the scattered matrix on
generated trees, the cells' row sets against a point-by-point lookup, the
scaled pivots against a rescaling of the DOFs, a solve with one edge's
coefficients scaled by 1e-8, the refusal of a numerically singular system
on a sliver element and of seminormal steps that do not converge, and what
the commands load.
"""

import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from treedamp.cli import main
from treedamp.config import ProblemConfig
from treedamp.damping import PIVOT_RATIO_MAX, IndefiniteGramError, assemble, default_mesh
from treedamp.expressions import CoefficientSet
from treedamp.meshing import Basis, DelayMesh
from treedamp.piecewise import PiecewisePoly
from treedamp.trees import build_tree

import oracles

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"

small = st.floats(min_value=-0.5, max_value=0.5, allow_nan=False, allow_infinity=False)
complex_small = st.builds(complex, small, small)


@st.composite
def systems(draw):
    """A Gram system on a tree of depth at most 3 with edges longer than two
    delays, orders 1 to 3, q 1 to 8 and every c_k present: at q = 1 a
    cell's own and lead-in rows overlap, and a child's first cell reads the
    branching node's DOFs.  The mesh is the solvers' or, so that the delay
    windows do not line up with the nodes, random nodes no closer than
    ``0.4 tau / q``.  Lengths are multiples of a quarter delay, so that no
    wavefront lands next to a node of the solvers' mesh (a sliver element
    at order 3 is numerically singular)."""
    m = draw(st.integers(min_value=1, max_value=6))
    parents, depth = {1: 0}, {1: 1}
    for e in range(2, m + 1):
        p = draw(st.sampled_from([f for f in range(1, e) if depth[f] < 3]))
        parents[e], depth[e] = p, depth[p] + 1
    tau = draw(st.sampled_from([1.0, 0.7]))
    lengths = {e: tau * draw(st.sampled_from([2.25, 2.5, 2.75, 3.0, 3.25])) for e in parents}
    n = draw(st.integers(min_value=1, max_value=3))
    q = draw(st.integers(min_value=1, max_value=8))
    tree = build_tree(parents, lengths)
    b, c = {}, {}
    for j in range(1, tree.m + 1):
        T = tree.length(j)
        b[(n, j)] = 1.0
        for k in range(n):
            if draw(st.booleans()):
                data = draw(st.lists(complex_small, min_size=1, max_size=2))
                b[(k, j)] = PiecewisePoly.from_global_coefs(0.0, T, data)
        for k in range(n + 1):
            c[(k, j)] = draw(complex_small.filter(lambda z: abs(z) > 0.05))
    cs = CoefficientSet.build(tree, n, tau, b=b, c=c)
    phi = PiecewisePoly.from_global_coefs(-tau, 0.0, draw(st.lists(complex_small, min_size=1, max_size=3)))
    mesh = default_mesh(tree, cs, q)
    if draw(st.booleans()):
        nodes = []
        for j in range(1, tree.m + 1):
            T = tree.length(j)
            must = np.array([0.0, T - tau, T])
            count = int(T * q / (0.5 * tau)) + 1
            x = np.cumsum(draw(st.lists(st.floats(0.5, 1.0), min_size=count, max_size=count))) * tau / q
            x = x[(x < T) & (np.abs(x[:, None] - must).min(axis=1) > 0.4 * tau / q)]
            nodes.append(np.unique(np.concatenate([must, x])))
        mesh = DelayMesh.from_nodes(tree, tau, q, nodes)
    return assemble(Basis(mesh, n), phi, cs)


@settings(max_examples=60, deadline=None)
@given(systems(), st.integers(min_value=0, max_value=2**32 - 1))
def test_front_solve_matches_a_dense_solve(gram, seed):
    G = oracles.dense_matrix(gram.matrix)
    if len(G) == 0:
        return
    # the factor's own solve agrees with a dense one to the condition number
    # times roundoff (each front is eliminated by substitution with its own
    # Cholesky factor: over 1193 drawn systems the error stayed under 0.05
    # of this bound, where an LU of each front's block reached 69 times it
    # on an order-3 system of condition 1.7e11) ...
    cond = np.linalg.cond(G)
    rng = np.random.default_rng(seed)
    b = rng.standard_normal(len(G)) + 1j * rng.standard_normal(len(G))
    steps, pivots = gram._factor()
    want = np.linalg.solve(G, b)
    assert np.linalg.norm(gram._substitute(steps, b) - want) <= 1e-14 * cond * np.linalg.norm(want)
    assert pivots.max() / pivots.min() < PIVOT_RATIO_MAX
    # ... and so does the solve with its seminormal steps
    want = np.linalg.solve(G, gram.rhs)
    assert np.linalg.norm(gram.solve() - want) <= 1e-14 * cond * np.linalg.norm(want)


@pytest.mark.parametrize("name, q", [("interval", 1), ("star", 3), ("smoothness_loss", 4),
                                     ("star3", 2)])
def test_every_gauss_cell_reads_one_row_set(name, q):
    # each point's own element and lead-in element, looked up point by point,
    # are those of its cell
    cfg = ProblemConfig.from_file(CONFIGS / f"{name}.json")
    basis = Basis(default_mesh(cfg.tree, cfg.coeffs, q), cfg.n)
    gram = assemble(basis, cfg.history, cfg.coeffs)
    rows, n, ndof = gram.matrix.rows, basis.n, basis.ndof
    nq = len(gram.points) // len(rows)
    ids, _ = basis.locate(gram.edge, gram.points)
    own = basis.rows[ids]
    assert np.array_equal(np.where(own < ndof, own, -1), np.repeat(rows[:, : 2 * n], nq, axis=0))
    t, edge = gram.points - cfg.tau, gram.edge
    late = cfg.coeffs.present[n + 1 :].any(axis=0)[edge] & ((edge > 0) | (t >= 0.0))  # not phi's reads
    ids, _ = basis.locate(edge[late], t[late])
    lead = basis.rows[ids]
    assert np.array_equal(np.where(lead < ndof, lead, -1), np.repeat(rows[:, 2 * n :], nq, axis=0)[late])


@pytest.mark.parametrize("name, spread, rtol", [
    ("star", 6.0, 1e-10),
    # star3's scaled pivots are fixed only to eps times the condition of the
    # Jacobi-scaled G, 4.2e8 at q 8: they move by about 1e-8 under either
    # scaling, since each front is eliminated by substitution with its own
    # Cholesky factor, which no scaling of the DOFs moves (an LU with partial
    # pivoting, whose row order follows their scale, moved them by 8e-4 at 6)
    ("star3", 2.0, 1e-7),
    ("star3", 6.0, 1e-7),
])
def test_scaled_pivots_do_not_depend_on_the_scale_of_the_dofs(name, spread, rtol):
    # every cell block B_c made D B_c D, with d_j = 10^u and u uniform in
    # [-spread, spread]: each pivot and its diagonal entry scale by the same
    # d_j^2, so the scaled pivots stay, while the raw ones spread further
    cfg = ProblemConfig.from_file(CONFIGS / f"{name}.json")
    gram = assemble(Basis(default_mesh(cfg.tree, cfg.coeffs, 8), cfg.n), cfg.history, cfg.coeffs)
    G = gram.matrix
    d = np.append(10.0 ** np.random.default_rng(7).uniform(-spread, spread, G.ndof), 1.0)[G.at]
    scaled = dataclasses.replace(gram, matrix=dataclasses.replace(
        G, blocks=d[:, :, None] * G.blocks * d[:, None, :]))
    dofs = np.concatenate([front[:, :K][own] for _, K, _, _, front, own, _ in gram._fronts.depths])
    (_, want), (_, got) = gram._factor(), scaled._factor()
    np.testing.assert_allclose(got, want, rtol=rtol, atol=0.0)
    raw, raw_scaled = want * gram.diagonal[dofs], got * scaled.diagonal[dofs]
    assert raw_scaled.max() / raw_scaled.min() >= 10.0 ** spread * raw.max() / raw.min()


def _sliver_config(delta):
    # the interval, T = 3, tau = 1, order 2: b_2 = 1, c_1 = 0.5 and b_0 = 0.5
    # left of 1 + delta, each 20 % larger right of it, so the mesh keeps a
    # node there and an element of width delta
    def coef(value):
        return {"kind": "piecewise",
                "data": {"breaks": [0.0, 1.0 + delta, 3.0], "pieces": [[value], [1.2 * value]]}}

    return {"order": 2, "delay": 1.0, "edges": [{"id": 1, "parent": 0, "length": 3.0}],
            "coefficients": [{"edge": 1, "family": "b", "k": 2, **coef(1.0)},
                             {"edge": 1, "family": "c", "k": 1, **coef(0.5)},
                             {"edge": 1, "family": "b", "k": 0, **coef(0.5)}],
            "history": {"kind": "polynomial", "data": [1.0, 1.0]},
            "solver": {"q": 4, "tolerance": 1e-9}}


# E(0), the sliver's energy as its width tends to zero; a width delta takes
# about 0.1 delta off it
SLIVER_ENERGY = 3.652228260386785


@pytest.mark.parametrize("delta", [1.5e-5, 1e-5, 6e-6, 4e-6, 3e-6, 1e-6, 1e-9, 1e-10])
def test_a_numerically_singular_gram_system_is_refused(tmp_path, capsys, delta):
    # a sliver element of width 3e-6 spreads the scaled pivots past 1/eps;
    # at 6e-6 and 4e-6 they stay under it, but the seminormal steps stop at
    # corrections of 0.81 and 0.14 of the DOFs, which were once returned
    # with the energies 6.98 and 5.84
    path = tmp_path / "sliver.json"
    path.write_text(json.dumps(_sliver_config(delta)))
    code = main(["damp", "--config", str(path), "--out", str(tmp_path / "out")])
    if delta >= 1e-5:  # scaled pivot ratio about 1e14: solved
        assert code == 0
        energy = json.loads((tmp_path / "out" / "summary.json").read_text())["energy"]
        assert energy == pytest.approx(SLIVER_ENERGY - 0.1 * delta, rel=1e-9)
        return
    assert code == 3
    err = capsys.readouterr().err
    assert "numerical failure: Gram matrix is not positive definite" in err
    assert "h_min = " in err
    assert not (tmp_path / "out" / "summary.json").exists()


def test_seminormal_steps_that_do_not_converge_are_refused():
    # at delta 6e-6 the scaled pivots spread 3.4e15, under 1/eps, yet the
    # first two corrections are 0.72 and then 0.81 of the DOFs: not an answer
    cfg = ProblemConfig.from_dict(_sliver_config(6e-6))
    gram = assemble(Basis(default_mesh(cfg.tree, cfg.coeffs, 4), cfg.n), cfg.history, cfg.coeffs)
    with pytest.raises(IndefiniteGramError) as info:
        gram.solve()
    assert re.search(r"seminormal steps did not converge: last relative correction "
                     r"\d\.\d{3}e[+-]\d+; scaled pivot ratio \d\.\d{3}e[+-]\d+ over 16 of 16 "
                     r"pivots, smallest element width h_min = 6\.000e-06", str(info.value))


def test_a_rescaled_edge_is_solved(tmp_path):
    # every coefficient of the star's edge 2 times s only reweights that
    # edge's share of the energy; at s = 1e-8 the raw pivots spread 1.75e16
    # and the system was refused, while the scaled ones spread 10.7 at any s
    energies = []
    for s in (1e-7, 1e-8, 1e-10):
        d = json.loads((CONFIGS / "star.json").read_text())
        for c in d["coefficients"]:
            if c["edge"] == 2:
                c["data"] = [x * s for x in c["data"]] if c["kind"] == "polynomial" else c["data"] * s
        (tmp_path / "star.json").write_text(json.dumps(d))
        out = tmp_path / f"out-{s}"
        assert main(["damp", "--config", str(tmp_path / "star.json"), "--out", str(out), "--q", "8"]) == 0
        energies.append(json.loads((out / "summary.json").read_text())["energy"])
    assert energies[0] == pytest.approx(0.33303115050623666, rel=1e-12)
    assert energies[1:] == pytest.approx([energies[0]] * 2, rel=1e-12)


# runs one command in a fresh interpreter, then fails if the package or the
# call loaded scipy, numpy.ma or numpy.polynomial; modules a bare ``import
# numpy`` loads do not count (numpy 1.x loads numpy.ma and numpy.polynomial
# itself, numpy 2.x numpy.matrixlib)
_LOADS_NOTHING_HEAVY = """
import sys
import numpy
before = set(sys.modules)
from treedamp.cli import main
code = main(sys.argv[1:])
heavy = [m for m in set(sys.modules) - before if m.split(".")[0] == "scipy"
         or m.split(".")[:2] in (["numpy", "ma"], ["numpy", "polynomial"])]
sys.exit(code or (f"loaded {sorted(heavy)}" if heavy else 0))
"""


def test_the_package_imports_no_scipy(tmp_path):
    # after each command, in its own interpreter, neither scipy nor numpy.ma
    # nor numpy.polynomial is loaded
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for name in ("star", "star3"):
        cfg, out = str(CONFIGS / f"{name}.json"), tmp_path / name
        for args in (["damp", "--config", cfg, "--out", str(out / "damp")],
                     ["verify", "--config", cfg, "--solution", str(out / "damp")],
                     ["simulate", "--config", cfg, "--control", str(out / "damp" / "control.json"),
                      "--out", str(out / "sim")],
                     ["convergence", "--config", cfg, "--q", "2,4"]):
            run = subprocess.run([sys.executable, "-c", _LOADS_NOTHING_HEAVY, *args], env=env,
                                 capture_output=True, text=True)
            assert run.returncode == 0, (args[0], name, run.stderr)
