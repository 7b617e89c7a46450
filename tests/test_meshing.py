"""Delay-aligned meshes and the constrained Hermite space."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from treedamp.piecewise import PiecewisePoly
from treedamp.trees import build_tree, interval, star
from treedamp.meshing import Basis, DelayMesh, MeshError, _hermite_shapes, build_mesh, history_lift

import oracles
from oracles import eval_at


@pytest.mark.parametrize("n", [1, 2, 3])
def test_hermite_shapes_nodal_conditions(n):
    h = 0.71
    shapes = _hermite_shapes(n, h)
    assert shapes.shape == (2 * n, 2 * n)
    left, right = shapes[:n], shapes[n:]
    for k in range(n):
        pl = oracles.Poly.single(0.0, h, left[k])
        pr = oracles.Poly.single(0.0, h, right[k])
        for nu in range(n):
            want_l = 1.0 if nu == k else 0.0
            assert eval_at(pl, 0.0, nu) == pytest.approx(want_l, abs=1e-11)
            assert pl.left_limit(h, nu) == pytest.approx(0.0, abs=1e-11)
            assert eval_at(pr, 0.0, nu) == pytest.approx(0.0, abs=1e-11)
            assert pr.left_limit(h, nu) == pytest.approx(1.0 if nu == k else 0.0, abs=1e-11)
    # an array of widths tabulates every element at once, as the scalar calls do
    widths = np.array([[0.71, 0.2], [1.3, 2.2e-14 + 0.2]])
    table = _hermite_shapes(n, widths)
    assert table.shape == (2, 2, 2 * n, 2 * n)
    for idx in np.ndindex(widths.shape):
        assert np.array_equal(table[idx], _hermite_shapes(n, widths[idx]))


def test_mesh_contains_mandatory_nodes_and_respects_width():
    tr = star([2.0, 2.0, 2.0])
    tau, q = 0.75, 3
    mesh = build_mesh(tr, tau, q)
    assert mesh.max_width() <= tau / q + 1e-12
    for j in range(1, 4):
        xs = mesh.nodes[j - 1]
        Tj = tr.length(j)
        for must in (0.0, Tj - tau, Tj):
            assert np.min(np.abs(xs - must)) < 1e-9


def test_mesh_wavefront_images_cross_edges():
    # source at global time 0 propagates to t = k*tau on the root and to
    # k*tau - T_1 on the children; at q = 1 every gap between the images and
    # the mandatory nodes 0, T - tau, T is already no wider than tau, so the
    # nodes are exactly those
    tr = star([2.0, 2.0, 2.0])
    tau = 0.75
    mesh = build_mesh(tr, tau, 1)
    assert np.allclose(mesh.nodes[0], [0.0, 0.75, 1.25, 1.5, 2.0], rtol=0.0, atol=1e-12)
    # next images: 3*tau = 2.25 -> local 0.25 on children, 4*tau -> 1.0, ...
    for j in (2, 3):
        want = [0.0, 0.25, 1.0, 1.25, 1.75, 2.0]
        assert np.allclose(mesh.nodes[j - 1], want, rtol=0.0, atol=1e-12)


def test_mesh_rejects_bad_parameters():
    tr = interval(2.0)
    with pytest.raises(MeshError):
        build_mesh(tr, 0.5, 0)
    with pytest.raises(MeshError):
        build_mesh(tr, 2.5, 2)


@pytest.mark.parametrize("lengths, q, count", [([1e300], 16, "1.6e+301"),
                                               ([1e18, 1e18, 1e18, 1e18, 1e18], 2, "1e+19")])
def test_mesh_too_large_to_index_is_a_mesh_error(lengths, q, count):
    # past np.intp's maximum no array can hold the nodes: the error names
    # the element count before anything is allocated
    tr = star(lengths) if len(lengths) > 1 else interval(lengths[0])
    with pytest.raises(MeshError, match=re.escape(f"at least {count} elements")):
        build_mesh(tr, 1.0, q)


def test_mesh_local_points_become_nodes():
    tr = interval(2.0)
    mesh = build_mesh(tr, 0.5, 2, local_points=([0], [0.33]))
    assert np.min(np.abs(mesh.nodes[0] - 0.33)) < 1e-12


def test_dof_count_single_free_node():
    # n = 1, T = 3, tau = 1, q = 1: nodes at 0, 1, 2, 3; node 0 is the root
    # start, nodes at 2 and 3 sit in the resting tail, so one free node remains.
    mesh = build_mesh(interval(3.0), 1.0, 1)
    basis = Basis(mesh, 1)
    assert basis.ndof == 1
    assert mesh.nodes[0][1] == pytest.approx(1.0)
    # elements [0, 1], [1, 2], [2, 3]: the DOF is the right end of the first
    # element and the left end of the second; the root start's known value
    # is numbered ndof = 1, and -1 marks the resting tail
    assert basis.rows.tolist() == [[1, 0], [0, -1], [-1, -1]]


def test_vertex_dof_is_shared():
    tr = star([2.0, 2.0, 2.0])
    mesh = build_mesh(tr, 0.5, 1)
    basis = Basis(mesh, 1)
    # the node at the internal vertex is the last node of edge 1 and the
    # first node of edges 2 and 3: the element tables carry the same DOF
    # index on both sides of the vertex
    offsets = basis.mesh.elements.offsets
    p = basis.rows[offsets[1] - 1][1]
    assert p >= 0
    assert basis.rows[offsets[1]][0] == p
    assert basis.rows[offsets[2]][0] == p
    e = oracles.unit(basis, p)
    assert e.component(1).left_limit(2.0) == pytest.approx(1.0)
    assert e.component(2).right_limit(0.0) == pytest.approx(1.0)
    assert e.component(3).right_limit(0.0) == pytest.approx(1.0)
    assert oracles.vertex_defect(e) < 1e-12


def test_basis_members_are_admissible():
    tr = star([2.0, 2.0, 2.0])
    for n in (1, 2):
        mesh = build_mesh(tr, 0.6, 2)
        basis = Basis(mesh, n)
        rng = np.random.default_rng(5)
        y = basis.tree_function(rng.standard_normal(basis.ndof))
        rep = oracles.admissibility_report(y, 0.6)
        assert max(rep.values()) < 1e-9, rep
        assert oracles.is_admissible(y, 0.6)


def test_interpolate_inverts_tree_function():
    # elements of many different widths, some equal only up to roundoff: at
    # n = 3 one shape table shared by nearly equal widths misses by ~1e-9
    tr = build_tree({1: 0, 2: 1, 3: 1, 4: 2}, {1: 2.3, 2: 1.7, 3: 2.9, 4: 1.1})
    mesh = build_mesh(tr, 0.6, 2, sources=(0.0, 0.37), local_points=([1, 2], [0.77, 1.3]))
    assert len({round(h, 12) for xs in mesh.nodes for h in np.diff(xs)}) > 4
    for n in (1, 2, 3):
        basis = Basis(mesh, n)
        rng = np.random.default_rng(9)
        dofs = rng.standard_normal(basis.ndof) + 1j * rng.standard_normal(basis.ndof)
        back = oracles.interpolate(basis, basis.tree_function(dofs))
        assert np.allclose(back, dofs, rtol=0.0, atol=1e-9), n


def test_tree_function_rejects_wrong_dof_count():
    basis = Basis(build_mesh(interval(3.0), 1.0, 1), 1)
    with pytest.raises(ValueError):
        basis.tree_function(np.zeros(basis.ndof + 1))


@st.composite
def meshed_trees(draw):
    """A basis on a random tree of 1-6 edges (delay 1): lengths that are no
    multiples of the delay and an extra node on some edges, so a parent's
    tail elements and its child's first ones have different widths."""
    m = draw(st.integers(min_value=1, max_value=6))
    parents = {1: 0} | {e: draw(st.integers(min_value=1, max_value=e - 1)) for e in range(2, m + 1)}
    lengths = {e: draw(st.sampled_from([2.0, 2.3, 2.5, 3.1])) for e in parents}
    extra = {e - 1: draw(st.sampled_from([0.45, 1.35, 1.8])) for e in parents if draw(st.booleans())}
    tr = build_tree(parents, lengths)
    mesh = build_mesh(tr, 1.0, draw(st.integers(min_value=1, max_value=3)),
                      local_points=(list(extra), list(extra.values())))
    return Basis(mesh, draw(st.integers(min_value=1, max_value=3)))


@settings(max_examples=40, deadline=None)
@given(meshed_trees())
def test_locate_reads_the_parent_tail_in_its_own_frame(basis):
    # every edge's lead-in, queried in one call, against a per-edge
    # searchsorted: a read before the edge's start lands in the parent's
    # tail element and is measured from that element's left node
    tree, nodes, offsets = basis.mesh.tree, basis.mesh.nodes, basis.mesh.elements.offsets
    edge, t, want_ids, want_s = [], [], [], []
    for j in range(1, tree.m + 1):
        ids = np.arange(offsets[j - 1], offsets[j])
        left, shift = nodes[j - 1][:-1], np.zeros(len(ids))
        p = tree.parent_of(j)
        if p:
            Tp, xp = tree.length(p), nodes[p - 1][:-1]
            tail = xp >= Tp - 1.0 - 1e-9 * Tp
            ids = np.append(offsets[p - 1] + np.flatnonzero(tail), ids)
            left, shift = np.append(xp[tail], left), np.append(np.full(tail.sum(), Tp), shift)
        cuts = np.append(left - shift, tree.length(j))
        # on every lead-in element's left node and inside it
        tj = (cuts[:-1, None] + np.diff(cuts)[:, None] * np.array([0.0, 0.1, 0.5, 0.9])).ravel()
        i = np.clip(np.searchsorted(cuts[:-1], tj, side="right") - 1, 0, len(ids) - 1)
        edge.append(np.full(len(tj), j - 1))
        t.append(tj)
        want_ids.append(ids[i])
        want_s.append(tj + shift[i] - left[i])
    edge, t, want_ids, want_s = map(np.concatenate, (edge, t, want_ids, want_s))
    ids, s = basis.locate(edge, t)
    assert np.array_equal(ids, want_ids)
    assert np.array_equal(s, want_s)

    # the element rows found are those the reconstruction builds
    rng = np.random.default_rng(3)
    y = basis.tree_function(rng.standard_normal(basis.ndof))
    table = np.concatenate([c.coefs for c in y.components])
    got = np.sum(table[ids] * s[:, None] ** np.arange(2 * basis.n), axis=1)
    parent = np.asarray(tree.parent)[edge]
    want = np.array([eval_at(y.component(p), x + tree.length(p)) if x < 0.0
                     else eval_at(y.component(e + 1), x) for e, p, x in zip(edge, parent, t)])
    assert np.allclose(got, want, rtol=0.0, atol=1e-13 * max(1.0, np.abs(want).max()))


@st.composite
def mesh_inputs(draw):
    """A tree of 1-7 edges with irregular lengths, a delay, and sources and
    local points that crowd the merge: besides the branching vertices' times,
    extra sources anywhere and next to those times, and local points on an
    image, on ``T - tau`` or on ``T``, or 0.5 or 2 merge tolerances
    (``1e-12 * max(1, offset + T)``) to either side of one."""
    m = draw(st.integers(min_value=1, max_value=7))
    parents = {1: 0} | {e: draw(st.integers(min_value=1, max_value=e - 1)) for e in range(2, m + 1)}
    lengths = {e: draw(st.floats(min_value=1.0, max_value=3.0)) for e in parents}
    tr = build_tree(parents, lengths)
    tau = draw(st.floats(min_value=0.2, max_value=0.95)) * min(tr.lengths)
    T, offset = np.asarray(tr.lengths), tr.offsets
    tol = 1e-12 * np.maximum(1.0, offset + T)
    shifts = st.sampled_from([0.0, -2.0, -0.5, 0.5, 2.0])
    times = (offset + T)[: tr.d]
    sources = [0.0] + times.tolist()
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        if len(times) and draw(st.booleans()):
            g = times[draw(st.integers(min_value=0, max_value=len(times) - 1))]
            sources.append(g + draw(shifts) * 1e-12 * max(1.0, g))
        else:
            sources.append(draw(st.floats(min_value=0.0, max_value=float((offset + T).max()))))
    edge, points = [], []
    for _ in range(draw(st.integers(min_value=0, max_value=12))):
        e = draw(st.integers(min_value=0, max_value=tr.m - 1))
        g = sources[draw(st.integers(min_value=0, max_value=len(sources) - 1))]
        image = g + max(math.ceil((offset[e] - g) / tau), 0) * tau - offset[e]
        at = draw(st.sampled_from([image, T[e] - tau, T[e], draw(st.floats(0.0, float(T[e])))]))
        edge.append(e)
        points.append(at + draw(shifts) * tol[e])
    return tr, tau, draw(st.integers(min_value=1, max_value=3)), tuple(sources), (edge, points)


@settings(max_examples=60, deadline=None)
@given(mesh_inputs())
def test_mesh_and_dof_numbering_match_the_per_edge_reference(case):
    # the array passes place every node and number every DOF exactly as the
    # per-edge set arithmetic and the node-by-node loop of the reference do
    tr, tau, q, sources, local = case
    mesh = build_mesh(tr, tau, q, sources=sources, local_points=local)
    ref = oracles.build_mesh(tr, tau, q, sources=sources, local_points=local)
    assert len(mesh.nodes) == len(ref.nodes)
    for got, want in zip(mesh.nodes, ref.nodes):
        assert got.tobytes() == want.tobytes()
    for n in (1, 2, 3):
        basis = Basis(mesh, n)
        rows, ndof = oracles.dof_numbering(ref, n)
        assert basis.ndof == ndof
        assert basis.rows.shape == rows.shape and np.array_equal(basis.rows, rows)


def test_history_lift_linear_example():
    # phi(t) = 1 + t on [-1, 0]; at n = 1 the lift joins phi(0) = 1 linearly
    # down to zero at the first node, 0.5, and is zero from there on
    mesh = build_mesh(interval(3.0), 1.0, 2)
    assert mesh.nodes[0][1] == pytest.approx(0.5)
    lift = history_lift(mesh, 1, PiecewisePoly.from_global_coefs(-1.0, 0.0, [1.0, 1.0]))
    assert oracles.history_defect(lift) < 1e-12
    assert eval_at(lift.component(1), 0.0) == pytest.approx(1.0)
    assert eval_at(lift.component(1), 0.25) == pytest.approx(0.5)
    assert lift.component(1).left_limit(0.5) == pytest.approx(0.0, abs=1e-15)
    assert not oracles.poly(lift.component(1)).restrict(0.5, 3.0).coefs.any()
    rep = oracles.admissibility_report(lift, 1.0)
    assert rep["tails"] == 0.0 and rep["vertex"] < 1e-12


def test_history_lift_matches_higher_order_data():
    mesh = build_mesh(interval(3.0), 1.0, 2)
    h = mesh.nodes[0][1]
    phi = PiecewisePoly.from_global_coefs(-1.0, 0.0, [2.0, -1.0, 3.0])
    lift = history_lift(mesh, 2, phi)
    for k in range(2):
        assert lift.component(1).right_limit(0.0, k) == pytest.approx(
            phi.left_limit(0.0, k))
        assert lift.component(1).left_limit(h, k) == pytest.approx(0.0, abs=1e-12)
    assert not oracles.poly(lift.component(1)).restrict(h, 3.0).coefs.any()


@st.composite
def window_meshes(draw):
    """A tree of 1-7 edges whose lengths are no multiples of a delay that
    is no power of two, and a mesh on it: the solvers' at q 1 to 3 or, built
    by hand, random nodes plus, on every edge, a node a delay after its
    start to within 0.5 or 2 of the windows' 1e-9 relative slack, exactly on
    its end, or exactly a delay."""
    m = draw(st.integers(min_value=1, max_value=7))
    parents = {1: 0} | {e: draw(st.integers(min_value=1, max_value=e - 1)) for e in range(2, m + 1)}
    tau = draw(st.sampled_from([0.7, 0.45, 1 / 3]))
    lengths = {e: tau * draw(st.floats(min_value=1.2, max_value=4.0)) for e in parents}
    tr = build_tree(parents, lengths)
    if draw(st.booleans()):
        return build_mesh(tr, tau, draw(st.integers(min_value=1, max_value=3)))
    unit = st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True)
    nodes = []
    for T in tr.lengths:
        at = tau * (1 + draw(st.sampled_from([0.0, 5e-10, -5e-10, 1e-9, 2e-9])))
        inner = T * np.array(draw(st.lists(unit, max_size=8)))
        nodes.append(np.unique(np.concatenate([[0.0, at, T], inner])))
    return DelayMesh.from_nodes(tr, tau, 1, nodes)


@settings(max_examples=80, deadline=None)
@given(window_meshes())
def test_window_tree_matches_the_per_edge_reference(mesh):
    # every window, its elements, its parent and its depth as the greedy
    # walk of each edge in turn finds them
    for got, want in zip(mesh.windows, oracles.windows(mesh), strict=True):
        assert got.shape == want.shape and np.array_equal(got, want)


def test_history_lift_rejects_mismatched_domain():
    mesh = build_mesh(interval(3.0), 1.0, 2)
    with pytest.raises(MeshError):
        history_lift(mesh, 1, PiecewisePoly.constant(-0.5, 0.0, 1.0))


@st.composite
def random_trees(draw):
    m = draw(st.integers(min_value=1, max_value=5))
    parents = {1: 0}
    for j in range(2, m + 1):
        parents[j] = draw(st.integers(min_value=1, max_value=j - 1))
    lengths = {
        j: draw(st.floats(min_value=1.0, max_value=3.0, allow_nan=False))
        for j in range(1, m + 1)
    }
    return build_tree(parents, lengths)


@settings(max_examples=30, deadline=None)
@given(random_trees(), st.integers(min_value=1, max_value=3),
       st.integers(min_value=1, max_value=2))
def test_mesh_and_basis_invariants(tr, q, n):
    tau = 0.5 * min(tr.lengths)
    mesh = build_mesh(tr, tau, q)
    mesh.check()
    basis = Basis(mesh, n)
    # the element tables number the DOFs 0..ndof-1, each at least once, and
    # the root start's known values ndof..ndof+n-1, on the first element only
    used = np.unique(basis.rows)
    assert np.array_equal(used[used >= 0], np.arange(basis.ndof + n))
    root = basis.rows >= basis.ndof
    assert root[0].tolist() == [True] * n + [False] * n
    assert int(root.sum()) == n
    # every free DOF produces an admissible function
    if basis.ndof:
        p = basis.ndof // 2
        e = oracles.unit(basis, p)
        assert oracles.is_admissible(e, tau, tol=1e-8)
    # interpolation of the zero function is zero
    z = basis.tree_function(np.zeros(basis.ndof))
    assert np.allclose(oracles.interpolate(basis, z), 0.0)


@settings(max_examples=30, deadline=None)
@given(random_trees(), st.integers(min_value=1, max_value=3), st.integers(min_value=1, max_value=3),
       st.lists(st.floats(min_value=-2.0, max_value=2.0), min_size=1, max_size=4),
       st.integers(min_value=0, max_value=2**32 - 1))
def test_tree_function_with_history_is_the_lift_plus_a_perturbation(tr, q, n, coefs, seed):
    # the trajectory solve_damping builds in one pass is the sum the
    # benchmark's manufactured trajectories are built from
    tau = 0.5 * min(tr.lengths)
    mesh = build_mesh(tr, tau, q)
    basis = Basis(mesh, n)
    phi = PiecewisePoly.from_global_coefs(-tau, 0.0, coefs)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(basis.ndof) + 1j * rng.standard_normal(basis.ndof)
    y = basis.tree_function(x, phi)
    z = history_lift(mesh, n, phi) + basis.tree_function(x)
    assert y.history is phi and np.array_equal(z.history.coefs, phi.coefs)
    for a, b in zip(y.components, z.components):
        assert np.array_equal(a.breaks, b.breaks)
        scale = np.max(np.abs(b.coefs), axis=0)  # per power of the local variable
        assert np.all(np.abs(a.coefs - b.coefs) <= 1e-14 * scale)
