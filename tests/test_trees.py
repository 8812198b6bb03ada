"""Trivalent tree enumeration against an independent construction.

The leaf-insertion generator is cross-checked by building every tree a
second way: enumerate labeled trees on the internal vertices via Prüfer
sequences, then distribute the labeled leaves over the free valence slots.
Each leaf-labeled topology arises from exactly (n-2)! internal labelings, so
comparing canonical-key sets checks both the count and the shapes.
"""

import itertools
import math

import pytest

from tropical_refine import (CombinatorialType, Degree, TooFewEnds,
                             TropicalError, Vec, WeightedPlaneParam,
                             double_factorial_count, enumerate_types,
                             maximal_split, wedge)
from tropical_refine.trees import type_from_clades


def generic_degree(n: int) -> Degree:
    """n ends, pairwise independent directions (last one balances)."""
    dirs = [Vec(1, k) for k in range(n - 1)]
    total = Vec(sum(v.x for v in dirs), sum(v.y for v in dirs))
    dirs.append(Vec(-total.x, -total.y))
    return Degree(tuple(dirs))


def prufer_trees(nodes: int):
    """All labeled trees on 0..nodes-1, as edge frozensets."""
    if nodes == 1:
        yield frozenset()
        return
    if nodes == 2:
        yield frozenset({(0, 1)})
        return
    for seq in itertools.product(range(nodes), repeat=nodes - 2):
        degree = [1] * nodes
        for v in seq:
            degree[v] += 1
        edges = []
        remaining = list(seq)
        leaves = sorted(v for v in range(nodes) if degree[v] == 1)
        for v in remaining:
            leaf = leaves.pop(0)
            edges.append(tuple(sorted((leaf, v))))
            degree[v] -= 1
            if degree[v] == 1:
                # insert keeping the leaf pool sorted
                lo = 0
                while lo < len(leaves) and leaves[lo] < v:
                    lo += 1
                leaves.insert(lo, v)
        edges.append(tuple(sorted((leaves[0], leaves[1]))))
        yield frozenset(edges)


def brute_force_keys(n: int) -> set:
    """Canonical keys of all trivalent leaf-labeled trees, built without
    leaf insertion: internal skeleton by Prüfer, leaves into valence slots."""
    internal = n - 2
    dirs = generic_degree(n).entries
    keys = set()
    for skeleton in prufer_trees(internal):
        internal_degree = {v: 0 for v in range(internal)}
        for a, b in skeleton:
            internal_degree[a] += 1
            internal_degree[b] += 1
        slots = [3 - internal_degree[v] for v in range(internal)]
        if any(s < 0 for s in slots):
            continue
        # every way to split leaf labels 0..n-1 over the internal vertices
        for assignment in itertools.product(range(internal), repeat=n):
            counts = [0] * internal
            for owner in assignment:
                counts[owner] += 1
            if counts != slots:
                continue
            edges = [(a + n, b + n) for a, b in skeleton]
            edges += [(leaf, owner + n) for leaf, owner in enumerate(assignment)]
            keys.add(CombinatorialType(dirs, tuple(edges)).canonical_key())
    return keys


def test_double_factorial_count_values():
    assert [double_factorial_count(n) for n in range(3, 10)] == [
        1, 3, 15, 105, 945, 10395, 135135]


@pytest.mark.parametrize("bad", [True, 5.0])
def test_double_factorial_count_refuses_a_non_int(bad):
    # a bool is an int to isinstance: True would be too few ends, "got True"
    with pytest.raises(TypeError, match=f"n is an int, got {bad!r}"):
        double_factorial_count(bad)


@pytest.mark.parametrize("n", range(3, 8))
def test_enumeration_matches_closed_form(n):
    types = list(enumerate_types(generic_degree(n)))
    assert len(types) == double_factorial_count(n)
    keys = {t.canonical_key() for t in types}
    assert len(keys) == len(types)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_enumeration_matches_brute_force(n):
    ours = {t.canonical_key() for t in enumerate_types(generic_degree(n))}
    theirs = brute_force_keys(n)
    assert ours == theirs


def vertex_splits(t: CombinatorialType) -> dict[int, tuple[int, int]]:
    """The split (A, B) of each internal vertex's clade into its children's
    clades, hanging t from leaf 0, with A holding the clade's lowest leaf."""
    _, parent, clade = t.clades
    out = {}
    for v in t.internal_vertices:
        a, b = sorted((clade[w][0] for w in t.adjacency[v] if w != parent[v]),
                      key=lambda mask: mask & -mask)
        out[v] = a, b
    return out


@pytest.mark.parametrize("n", range(3, 7))
def test_type_from_clades_replays_enumeration(n):
    previous = None
    for t in enumerate_types(generic_degree(n)):
        splits = vertex_splits(t)
        order, rebuilt = type_from_clades(t.leaf_dirs, splits.values())
        assert rebuilt == t
        # the vertex of clade S = A | B, A holding S's lowest leaf, is
        # n + low(B) - 2: the vertex that inserting leaf low(B) made
        for v, (_, b) in splits.items():
            assert v == n + (b & -b).bit_length() - 3
        assert previous is None or order > previous
        previous = order


def test_three_ends_single_star():
    types = list(enumerate_types(generic_degree(3)))
    assert len(types) == 1
    t = types[0]
    assert set(map(frozenset, t.edges)) == {frozenset({0, 3}),
                                            frozenset({1, 3}),
                                            frozenset({2, 3})}
    assert t.root_vertex == 3


def test_too_few_ends():
    with pytest.raises(TooFewEnds):
        list(enumerate_types(Degree(((1, 0), (-1, 0)))))
    with pytest.raises(TooFewEnds, match="need at least 3 ends, got 2"):
        double_factorial_count(2)


def test_slopes_forced_by_balancing():
    square = Degree(((-1, 0), (1, 0), (0, -1), (0, 1)))
    for t in enumerate_types(square):
        for u, v in t.edges:
            assert t.slope(v, u) == -t.slope(u, v)
        for v in t.internal_vertices:
            out = [t.slope(v, w) for w in t.adjacency[v]]
            total = Vec(sum(s.x for s in out), sum(s.y for s in out))
            assert total == Vec(0, 0)


def test_vertex_multiplicities_square():
    square = Degree(((-1, 0), (1, 0), (0, -1), (0, 1)))
    flat = 0
    for t in enumerate_types(square):
        mults = t.multiplicities()
        assert set(mults) == set(t.internal_vertices)
        if t.has_flat_vertex():
            flat += 1
    assert flat == 1  # the pairing {0,1|2,3} has slope-zero internal edge


def test_end_edge_and_leaf_vertex():
    t = next(iter(enumerate_types(generic_degree(3))))
    assert t.end_edge(0) == (0, 3)
    assert t.leaf_vertex(2) == 3


def test_canonical_key_ignores_edge_presentation():
    dirs = generic_degree(4).entries
    a = CombinatorialType(dirs, ((4, 0), (4, 1), (4, 5), (5, 2), (5, 3)))
    b = CombinatorialType(dirs, ((5, 3), (2, 5), (5, 4), (1, 4), (0, 4)))
    assert a.canonical_key() == b.canonical_key()
    assert a.serialize() == b.serialize()
    c = CombinatorialType(dirs, ((4, 0), (4, 2), (4, 5), (5, 1), (5, 3)))
    assert a.canonical_key() != c.canonical_key()


def test_serialize_is_readable():
    t = next(iter(enumerate_types(generic_degree(3))))
    assert t.serialize() == "(0,1,2)"


def test_clades():
    # leaves (1, 0), (1, 1), (1, 2), (-3, -3); 4 holds 1 and 5, 5 holds 2, 3
    dirs = generic_degree(4).entries
    t = CombinatorialType(dirs, ((4, 0), (4, 1), (4, 5), (5, 2), (5, 3)))
    order, parent, clade = t.clades
    assert order == [4, 5]
    assert parent == {4: 0, 1: 4, 5: 4, 2: 5, 3: 5}
    assert clade == {1: (0b0010, 1, 1), 2: (0b0100, 1, 2),
                     3: (0b1000, -3, -3), 5: (0b1100, -2, -1),
                     4: (0b1110, -1, 0)}
    want = {}
    for v, u in parent.items():
        _, x, y = clade[v]
        want[u, v], want[v, u] = Vec(x, y), Vec(-x, -y)
    assert {(u, v): t.slope(u, v) for u, v in want} == want


def test_slope_refuses_a_non_edge():
    dirs = generic_degree(4).entries
    t = CombinatorialType(dirs, ((4, 0), (4, 1), (4, 5), (5, 2), (5, 3)))
    for u, v in ((1, 5), (5, 1), (0, 5), (2, 3), (4, 4)):
        with pytest.raises(KeyError):
            t.slope(u, v)


def test_multiplicity_is_wedge_of_outgoing_slopes():
    for t in enumerate_types(generic_degree(5)):
        mults = t.multiplicities()
        for vertex in t.internal_vertices:
            u, v, w = (t.slope(vertex, nb) for nb in t.adjacency[vertex])
            assert mults[vertex] == abs(wedge(u, v))
            assert abs(wedge(u, v)) == abs(wedge(v, w)) == abs(wedge(u, w))


SQUARE_DIRS = (Vec(1, 0), Vec(0, 1), Vec(-1, 0), Vec(0, -1))


def test_quadrivalent_star_is_rejected_by_valence():
    # vertex 4 holds all four ends and vertex 5 none
    star = CombinatorialType(SQUARE_DIRS, ((0, 4), (1, 4), (2, 4), (3, 4)))
    message = "internal vertex 4 has valence 4; a trivalent tree needs 3"
    with pytest.raises(TropicalError, match=message):
        star.multiplicities()
    with pytest.raises(TropicalError, match=message):
        maximal_split(WeightedPlaneParam(star))


def test_leaf_of_valence_two_is_rejected():
    # end 3 hangs from leaf 0 instead of from an internal vertex
    tree = CombinatorialType(SQUARE_DIRS, ((0, 4), (1, 4), (2, 4), (3, 0)))
    message = "leaf 0 has valence 2; a trivalent tree needs 1"
    with pytest.raises(TropicalError, match=message):
        tree.multiplicities()
    with pytest.raises(TropicalError, match=message):
        tree.has_flat_vertex()


def test_tree_with_a_detached_cycle_is_rejected():
    # every valence is right, but ends 3, 4, 5 hang from a triangle of
    # internal vertices that no path joins to leaf 0
    dirs = generic_degree(6).entries
    tree = CombinatorialType(dirs, ((0, 6), (1, 6), (2, 6), (7, 8), (8, 9),
                                    (9, 7), (3, 7), (4, 8), (5, 9)))
    with pytest.raises(TropicalError, match="do not join every vertex"):
        tree.multiplicities()
