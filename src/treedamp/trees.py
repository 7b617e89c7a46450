"""Rooted metric trees of directed edges.

An edge ``j`` runs away from the root and ends at vertex ``j``; the root
itself carries no edge.  The canonical numbering used throughout the package
puts the edges that end at a branching vertex first (indices ``1..d``) and
the edges that end at a leaf last (``d+1..m``), with every parent index
smaller than its children.  :func:`build_tree` accepts any consistent
labelling and renumbers it into this form, keeping the permutation so that
callers can map results back.

Edge indices are 1-based in every public signature, matching the usual
notation for networks of this kind; parent index 0 stands for the root.
A :class:`Tree` keeps what the solver reads, with no per-vertex lists of
children: edge ``j`` ends at a leaf exactly when ``j > d``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class TreeStructureError(ValueError):
    """Raised when the parent map does not describe a rooted tree."""


@dataclass(frozen=True)
class Tree:
    """Immutable rooted metric tree in canonical edge order.

    Attributes
    ----------
    parent : tuple of int
        ``parent[j-1]`` is the index of the edge feeding vertex ``j``'s
        start, 0 for the root edge.  Always ``parent[j-1] < j``.
    lengths : tuple of float
        Edge lengths, ``lengths[j-1]`` for edge ``j``.
    d : int
        Number of branching (internal) vertices; edges ``1..d`` end at them.
    original_ids : tuple
        ``original_ids[j-1]`` is the label edge ``j`` had in the input of
        :func:`build_tree`.
    """

    parent: tuple
    lengths: tuple
    d: int
    original_ids: tuple

    @property
    def m(self) -> int:
        return len(self.parent)

    def length(self, j: int) -> float:
        return self.lengths[j - 1]

    def parent_of(self, j: int) -> int:
        return self.parent[j - 1]

    @property
    def offsets(self) -> np.ndarray:
        """Per edge (0-based), the total length of its strict ancestors,
        summed nearest ancestor first: one pass per level of the tree."""
        parent, lengths = np.asarray(self.parent), np.append(self.lengths, 0.0)  # [-1] reads 0
        out, up = np.zeros(self.m), parent
        while up.any():
            out, up = out + lengths[up - 1], np.where(up > 0, parent[up - 1], 0)
        return out


def build_tree(parent_map: dict, length_map: dict) -> Tree:
    """Validate an edge description and renumber it canonically.

    Parameters
    ----------
    parent_map : dict
        ``{edge_label: parent_label}`` with exactly one root entry whose
        parent is 0.  Labels are arbitrary hashables.
    length_map : dict
        ``{edge_label: positive length}`` over the same labels.
    """
    labels = sorted(parent_map, key=lambda x: (str(type(x)), str(x)))
    if set(length_map) != set(parent_map):
        raise TreeStructureError("parent and length maps cover different edges")
    if not labels:
        raise TreeStructureError("empty tree")

    roots = [e for e in labels if parent_map[e] == 0]
    if len(roots) != 1:
        raise TreeStructureError(f"expected exactly one root edge, found {len(roots)}")

    for e, L in length_map.items():
        if not (float(L) > 0.0):
            raise TreeStructureError(f"edge {e!r} has non-positive length {L!r}")

    child_lists: dict = {e: [] for e in labels}
    for e in labels:
        p = parent_map[e]
        if p == 0:
            continue
        if p not in child_lists:
            raise TreeStructureError(f"edge {e!r} references unknown parent {p!r}")
        child_lists[p].append(e)

    # Breadth-first sweep from the root both orders the edges and proves
    # reachability (anything left over is a cycle or a detached component).
    bfs = []
    queue = [roots[0]]
    while queue:
        e = queue.pop(0)
        bfs.append(e)
        queue.extend(sorted(child_lists[e], key=lambda x: (str(type(x)), str(x))))
    if len(bfs) != len(labels):
        missing = set(labels) - set(bfs)
        raise TreeStructureError(f"edges not reachable from the root: {sorted(map(str, missing))}")

    internal = [e for e in bfs if child_lists[e]]
    boundary = [e for e in bfs if not child_lists[e]]
    order = internal + boundary
    index = {e: i + 1 for i, e in enumerate(order)}

    parent = tuple(0 if parent_map[e] == 0 else index[parent_map[e]] for e in order)
    lengths = tuple(float(length_map[e]) for e in order)
    return Tree(parent=parent, lengths=lengths, d=len(internal), original_ids=tuple(order))


def interval(length: float) -> Tree:
    """Single edge of the given length (no branching)."""
    return build_tree({1: 0}, {1: length})


def star(lengths) -> Tree:
    """Root edge followed by ``len(lengths) - 1`` leaves from its endpoint."""
    lengths = list(lengths)
    if len(lengths) < 2:
        raise TreeStructureError("a star needs a root edge and at least one leaf")
    pm = {1: 0}
    lm = {1: lengths[0]}
    for i, L in enumerate(lengths[1:], start=2):
        pm[i] = 1
        lm[i] = L
    return build_tree(pm, lm)
