"""Leaf-labeled trivalent trees and their slope structure.

A rational parametrized tropical curve with n labeled ends retracts onto a
trivalent tree with n labeled leaves; there are (2n-5)!! of these. They are
enumerated by iterative leaf insertion: starting from the star on leaves
0, 1, 2, leaf k is attached to each of the 2k-3 edges of the smaller tree in
turn. Every labeled topology arises exactly once because pruning the highest
leaf inverts the construction.

Node convention: leaves are 0..n-1, internal vertices are n..2n-3 (vertex n
is the initial star center, vertex n+k-2 is created when leaf k is inserted).
Hung from leaf 0, every edge cuts off a clade: the leaves below it. The
balancing condition forces the edge's direction, oriented downwards, to be
the sum of the clade's leaf directions. One walk (`CombinatorialType.clades`)
finds every clade and checks the tree once; every edge direction, the vertex
multiplicities and all else derived from the tree are read off that walk.

`_grow` and `type_from_clades` each write out the three-line insertion
step: `_grow` is the brute-force oracle's inner loop, which a shared helper
made a fifth slower, and a test replays each copy against the other.
"""

from __future__ import annotations

import functools
from typing import Iterable, Iterator

from .errors import TooFewEnds, TropicalError
from .lattice import (Degree, Record, Vec, _balanced, _exactly, _int,
                      _three_ends)


class CombinatorialType(Record):
    """A trivalent tree with labeled leaves carrying end directions.

    Equal and hashed by (leaf_dirs, edges); the derived structure below is
    computed once per tree and cached on it.
    """

    def __init__(self, leaf_dirs: tuple[Vec, ...],
                 edges: tuple[tuple[int, int], ...]):
        object.__setattr__(self, "leaf_dirs", leaf_dirs)
        object.__setattr__(self, "edges", edges)

    def identity(self) -> tuple:
        return self.leaf_dirs, self.edges

    @property
    def n(self) -> int:
        return len(self.leaf_dirs)

    @property
    def internal_vertices(self) -> range:
        return range(self.n, 2 * self.n - 2)

    @functools.cached_property
    def adjacency(self) -> dict[int, tuple[int, ...]]:
        adj: dict[int, list[int]] = {v: [] for v in range(2 * self.n - 2)}
        for u, v in self.edges:
            adj.setdefault(u, []).append(v)
            adj.setdefault(v, []).append(u)
        return {v: tuple(nb) for v, nb in adj.items()}

    @functools.cached_property
    def bounded_edges(self) -> tuple[tuple[int, int], ...]:
        """Internal-internal edges as sorted pairs, in sorted order."""
        order, parent, _ = self.clades
        return tuple(sorted(tuple(sorted((parent[v], v))) for v in order[1:]))

    def end_edge(self, leaf: int) -> tuple[int, int]:
        """The (leaf, vertex) edge carrying end `leaf`, as a sorted pair."""
        return tuple(sorted((leaf, self.leaf_vertex(leaf))))

    def leaf_vertex(self, leaf: int) -> int:
        return self.clades[1][leaf] if leaf else self.clades[0][0]

    @property
    def root_vertex(self) -> int:
        """The internal vertex adjacent to leaf 0 (end 1)."""
        return self.leaf_vertex(0)

    @functools.cached_property
    def clades(self) -> tuple[list[int], dict[int, int], dict[int, tuple]]:
        """The tree hung from leaf 0 (end 1), in one walk, which checks it.

        Returns (order, parent, clade): the internal vertices with each
        parent before its children, the parent of every vertex but leaf 0,
        and for each of those vertices its clade (mask, x, y), the bitmask
        of the leaves below it and the sum (x, y) of their directions: the
        edge direction down from its parent. Every direction is read off it.

        Every reader of the tree goes through this walk, so it checks the
        tree, once: DegenerateDegree unless the ends sum to zero, and
        TropicalError, naming the first bad vertex, unless leaves 0..n-1
        have one edge, vertices n..2n-3 three, no other id any, and all hang
        from leaf 0 (then 2n-3 edges join the 2n-2 vertices: a tree).
        """
        _balanced(self.leaf_dirs)
        n, adj = self.n, self.adjacency
        for v, nbrs in adj.items():
            want = 1 if 0 <= v < n else 3 if n <= v < 2 * n - 2 else 0
            if len(nbrs) != want:
                kind = "leaf" if v < n else "internal vertex"
                raise TropicalError(
                    f"{kind} {v} has valence {len(nbrs)}; a trivalent tree "
                    f"needs {want}")
        root = adj[0][0]
        order, parent = [root], {root: 0}
        for v in order:
            for w in adj[v]:
                if w not in parent and w != 0:
                    parent[w] = v
                    if w >= n:
                        order.append(w)
        if len(parent) != 2 * n - 3:
            raise TropicalError("the edges do not join every vertex to leaf 0")
        clade = {leaf: (1 << leaf, d.x, d.y)
                 for leaf, d in enumerate(self.leaf_dirs) if leaf}
        for v in reversed(order):
            below = [clade[w] for w in adj[v] if w != parent[v]]
            # disjoint clades: their masks add up to their union
            clade[v] = tuple(map(sum, zip((0, 0, 0), *below)))
        return order, parent, clade

    def slope(self, u: int, v: int) -> Vec:
        """The direction from u to v along their edge, read off the clades:
        v's clade sum if u is v's parent, else minus u's (KeyError if none)."""
        _, parent, clade = self.clades
        if parent.get(v) == u:
            return Vec(*clade[v][1:])
        if parent[u] == v:
            return -Vec(*clade[u][1:])
        raise KeyError((u, v))

    @functools.cached_property
    def _multiplicities(self) -> dict[int, int]:
        """Multiplicity |x_a y_b - y_a x_b| of the two child clades a, b at
        every internal vertex, in vertex order; built once per tree."""
        _, parent, clade = self.clades
        out = {}
        for v in self.internal_vertices:
            (_, xa, ya), (_, xb, yb) = (clade[w] for w in self.adjacency[v]
                                        if w != parent[v])
            out[v] = abs(xa * yb - ya * xb)
        return out

    def multiplicities(self) -> dict[int, int]:
        return dict(self._multiplicities)

    def canonical_key(self):
        """Label-respecting canonical form hung off the vertex adjacent to
        leaf 0. Leaves become (0, label), internal nodes (1, child, child)
        with children sorted, so keys are totally ordered and equal keys mean
        isomorphic labeled trees."""
        order, parent, _ = self.clades
        key = {leaf: (0, leaf) for leaf in range(self.n)}
        for v in reversed(order):
            key[v] = (1, *sorted(key[w] for w in self.adjacency[v]
                                 if w != parent[v]))
        return ((0, 0), *key[order[0]][1:])

    def serialize(self) -> str:
        """Nested-parenthesis form of canonical_key, leaves by label."""
        return "(" + ",".join(map(_render, self.canonical_key())) + ")"


def _render(node) -> str:
    """One node of a canonical key in nested-parenthesis form."""
    if node[0] == 0:
        return str(node[1])
    return "(" + ",".join(map(_render, node[1:])) + ")"


def double_factorial_count(n: int) -> int:
    """(2n-5)!!, the number of trivalent trees on n labeled leaves."""
    if _int("n", n) < 3:
        raise TooFewEnds(f"need at least 3 ends, got {n}")
    out = 1
    for k in range(3, 2 * n - 4, 2):
        out *= k
    return out


def enumerate_types(delta: Degree) -> Iterator[CombinatorialType]:
    """All trivalent combinatorial types for a degree, streamed.

    Memory stays O(n); the shared mutable edge list is copied only at yield
    time. Order is deterministic (insertion-position lexicographic).
    """
    dirs = tuple(_exactly("delta", delta, Degree).entries)
    _three_ends(dirs)
    n = len(dirs)
    return _grow(dirs, [(0, n), (1, n), (2, n)], 3)


def _grow(dirs: tuple[Vec, ...], edges: list[tuple[int, int]],
          next_leaf: int) -> Iterator[CombinatorialType]:
    """The types that inserting leaves next_leaf..n-1 into the tree `edges`
    makes, in enumeration order; `edges` is changed in place and restored
    before each next insertion."""
    n = len(dirs)
    if next_leaf == n:
        yield CombinatorialType(dirs, tuple(edges))
        return
    w = n + next_leaf - 2
    for i in range(len(edges)):
        u, v = edges[i]
        edges[i] = (u, w)
        edges.append((w, v))
        edges.append((w, next_leaf))
        yield from _grow(dirs, edges, next_leaf + 1)
        edges.pop()
        edges.pop()
        edges[i] = (u, v)


def type_from_clades(
        dirs: tuple[Vec, ...], splits: Iterable[tuple[int, int]]
) -> tuple[tuple[int, ...], CombinatorialType]:
    """The enumerated type of a tree given by its splits.

    Hanging the tree from leaf 0, every edge cuts off a clade: the set of
    leaves on its far side, as a bitmask over leaves 1..n-1. Each internal
    vertex splits its clade S into the pair (A, B) of its children's
    clades, A holding S's lowest leaf; `splits` holds one such pair per
    vertex. enumerate_types made that vertex inserting leaf k = low(B), on
    the edge above A's leaves below k, so replaying those insertions from
    the star rebuilds exactly the edge list, and so the vertex ids, that
    enumerate_types yields for this tree.

    Returns the insertion indices (the tree's position in enumeration order
    is the lexicographic order of these tuples) and the CombinatorialType.
    """
    n = len(dirs)
    inserted_on = {b & -b: a for a, b in splits}
    edges = [(0, n), (1, n), (2, n)]
    clades = [0b110, 0b010, 0b100]
    far = [n, 1, 2]                 # endpoint of each edge away from leaf 0
    inserted_at = []
    for leaf in range(3, n):
        bit = 1 << leaf
        target = inserted_on[bit] & (bit - 2)   # A's leaves 1..leaf-1
        i = clades.index(target)
        inserted_at.append(i)
        for j, c in enumerate(clades):
            if c & target == target:
                clades[j] = c | bit
        w = n + leaf - 2
        u, v = edges[i]
        edges[i] = (u, w)
        edges.append((w, v))
        if far[i] == v:
            far[i] = w
            far.append(v)
            clades.append(target)
        else:
            clades[i] = target
            far.append(w)
            clades.append(target | bit)
        edges.append((w, leaf))
        far.append(leaf)
        clades.append(bit)
    return tuple(inserted_at), CombinatorialType(dirs, tuple(edges))
