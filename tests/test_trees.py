"""Rooted tree construction and canonical numbering."""

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from treedamp.trees import Tree, TreeStructureError, build_tree, interval, star


def test_interval_shape():
    tr = interval(3.0)
    assert tr.m == 1 and tr.d == 0
    assert tr.parent == (0,)
    assert tr.lengths == (3.0,)
    assert oracles.children(tr, 1) == ()  # edge 1 ends at a leaf


def test_star_shape():
    tr = star([2.0, 1.0, 1.5])
    assert tr.m == 3 and tr.d == 1
    assert tr.parent == (0, 1, 1)
    assert oracles.children(tr, 0) == (1,)
    assert oracles.children(tr, 1) == (2, 3)
    assert oracles.children(tr, 2) == oracles.children(tr, 3) == ()


def test_canonical_order_puts_internal_edges_first():
    # A caterpillar labelled so the input order is scrambled: the deepest
    # leaf is labelled 1, the root edge is labelled "r".
    pm = {"r": 0, "a": "r", "b": "r", 1: "a"}
    lm = {"r": 1.0, "a": 1.0, "b": 1.0, 1: 1.0}
    tr = build_tree(pm, lm)
    assert tr.d == 2
    assert tr.original_ids[:2] == ("r", "a")
    assert set(tr.original_ids[2:]) == {"b", 1}
    for j in range(1, tr.m + 1):
        assert tr.parent_of(j) < j


def _path_to_root(tr, j):
    """Edge indices from ``j`` down to the root edge, inclusive."""
    path = [j]
    while tr.parent_of(path[-1]) != 0:
        path.append(tr.parent_of(path[-1]))
    return path


def test_offsets_sum_the_ancestors_nearest_first():
    pm = {1: 0, 2: 1, 3: 2, 4: 2}
    lm = {1: 2.0, 2: 3.0, 3: 1.0, 4: 5.0}
    tr = build_tree(pm, lm)
    j_deep = tr.original_ids.index(4) + 1
    assert [tr.original_ids[i - 1] for i in _path_to_root(tr, j_deep)] == [4, 2, 1]
    assert tr.offsets[j_deep - 1] == 5.0
    assert tr.offsets.tolist() == [0.0, 2.0, 5.0, 5.0]


def test_rejects_multiple_roots():
    with pytest.raises(TreeStructureError, match="root"):
        build_tree({1: 0, 2: 0}, {1: 1.0, 2: 1.0})


def test_rejects_cycle():
    with pytest.raises(TreeStructureError, match="reachable"):
        build_tree({1: 0, 2: 3, 3: 2}, {1: 1.0, 2: 1.0, 3: 1.0})


def test_rejects_unknown_parent():
    with pytest.raises(TreeStructureError, match="unknown parent"):
        build_tree({1: 0, 2: 7}, {1: 1.0, 2: 1.0})


def test_rejects_nonpositive_length():
    with pytest.raises(TreeStructureError, match="length"):
        build_tree({1: 0}, {1: 0.0})


def test_rejects_mismatched_maps():
    with pytest.raises(TreeStructureError, match="different edges"):
        build_tree({1: 0}, {1: 1.0, 2: 1.0})


def test_rejects_empty():
    with pytest.raises(TreeStructureError):
        build_tree({}, {})


def test_star_needs_two_edges():
    with pytest.raises(TreeStructureError):
        star([1.0])


@st.composite
def random_parent_maps(draw):
    """Random rooted tree on labels 1..m with shuffled labelling."""
    m = draw(st.integers(min_value=1, max_value=9))
    labels = list(range(1, m + 1))
    perm = draw(st.permutations(labels))
    parents = {perm[0]: 0}
    for i in range(1, m):
        parents[perm[i]] = perm[draw(st.integers(min_value=0, max_value=i - 1))]
    lengths = {
        e: draw(st.floats(min_value=0.1, max_value=4.0, allow_nan=False))
        for e in labels
    }
    return parents, lengths


@settings(max_examples=60, deadline=None)
@given(random_parent_maps())
def test_canonical_invariants(data):
    pm, lm = data
    tr = build_tree(pm, lm)
    assert tr.m == len(pm)
    # parent strictly below child in the canonical order
    for j in range(1, tr.m + 1):
        assert 0 <= tr.parent_of(j) < j
    # edges 1..d are exactly the ones with children
    for j in range(1, tr.m + 1):
        assert (len(oracles.children(tr, j)) > 0) == (j <= tr.d)
    # original_ids is a bijection and lengths follow it
    assert sorted(tr.original_ids) == sorted(pm)
    for j, lab in enumerate(tr.original_ids, start=1):
        assert tr.length(j) == pytest.approx(lm[lab])
    # every path terminates at the root edge, and the offsets are the sums
    # of the strict ancestors' lengths, nearest first, to the last bit
    for j in range(1, tr.m + 1):
        path = _path_to_root(tr, j)
        assert tr.parent_of(path[-1]) == 0
        assert tr.offsets[j - 1] == sum(tr.length(i) for i in path[1:])


@settings(max_examples=60, deadline=None)
@given(random_parent_maps())
def test_relabelling_is_stable(data):
    """The same tree under a different labelling canonicalises identically."""
    pm, lm = data
    tr = build_tree(pm, lm)
    shift = {e: f"x{e}" for e in pm}
    pm2 = {shift[e]: (0 if p == 0 else shift[p]) for e, p in pm.items()}
    lm2 = {shift[e]: L for e, L in lm.items()}
    tr2 = build_tree(pm2, lm2)
    assert tr.parent == tr2.parent
    assert tr.lengths == tr2.lengths
    assert tr.d == tr2.d
