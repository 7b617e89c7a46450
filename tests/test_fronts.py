"""The Gram system as cell blocks, factored along the tree's tau-runs.

The front solve is checked against a dense solve of the scattered matrix on
generated trees, the cells' row sets against a point-by-point lookup, the
refusal of a numerically singular system on a sliver element, and what
the commands load.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from treedamp.cli import main
from treedamp.config import ProblemConfig
from treedamp.damping import PIVOT_RATIO_MAX, assemble, default_mesh
from treedamp.expressions import CoefficientSet
from treedamp.meshing import Basis, DelayMesh
from treedamp.piecewise import PiecewisePoly
from treedamp.trees import build_tree

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
    G = gram.matrix.toarray()
    if len(G) == 0:
        return
    # the factor's own solve agrees with a dense one to the condition number
    # times roundoff (the fronts act through their own blocks' inverses, so
    # its backward error grows with their conditioning: 1.2e-12 of |G| |x|
    # on an order-3 system with a diagonal from 2e2 to 2e10) ...
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


@pytest.mark.parametrize("delta", [1e-5, 3e-6, 1e-6, 1e-9, 1e-10])
def test_a_numerically_singular_gram_system_is_refused(tmp_path, capsys, delta):
    # a sliver element of width 3e-6 spreads the pivots past 1/eps; solved
    # anyway, the energy read 4.709 instead of 3.6522 (1e-6: 17.14)
    path = tmp_path / "sliver.json"
    path.write_text(json.dumps(_sliver_config(delta)))
    code = main(["damp", "--config", str(path), "--out", str(tmp_path / "out")])
    if delta == 1e-5:  # pivot ratio about 1e15: solved, as before
        assert code == 0
        energy = json.loads((tmp_path / "out" / "summary.json").read_text())["energy"]
        assert energy == pytest.approx(3.652227259834579, rel=1e-9)
        return
    assert code == 3
    err = capsys.readouterr().err
    assert "numerical failure: Gram matrix is not positive definite" in err
    assert "h_min = " in err
    assert not (tmp_path / "out" / "summary.json").exists()


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
