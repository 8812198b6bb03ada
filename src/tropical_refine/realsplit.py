"""Real splittings of curves with even ends, and quantum-index bookkeeping.

A parametrized curve whose ends have weight 1 or 2 can be presented as the
quotient of a symmetric curve: the even part (the minimal subgraph containing
every weight-2 end, closed under the rule that a vertex with all but one
incident edge even pulls in the last one) is cut at a set of points R, and
the pieces beyond the cuts are doubled. The resulting graph carries an
involution whose quotient recovers the original curve; edge lengths double
and slopes halve on the doubled part.

By induction on the closure rule, an edge is in the even part exactly when
every end on one of its sides is even, one test per clade of the curve hung
from end 1. Each component of the even part hangs from its stem, the one
vertex where it meets the rest of the curve. By the closure rule every
other vertex of a component has all its edges even, so below the stem a
component only ends in even ends; the doubled part is everything past the
cut points, as seen walking down from the stems. Each WeightedPlaneParam
builds its even subgraph and this stem tree once, and every split of it
reads them.

Cut positions are discretized: on a bounded edge only the interior class
matters, while on an unbounded end the interior position (which creates a
flat trivalent vertex out on the end) and the position at the adjacent
vertex (which makes that vertex quadrivalent) are genuinely different. The
split with every weight-2 end cut at its adjacent vertex is the maximal one;
it is the only splitting without flat vertices, and its quadrivalent
vertices are where the quantum-index arithmetic below happens.

`SplitEdge` is a `NamedTuple`; `WeightedPlaneParam` and `RealSplit` are
small immutable classes, because they cache derived structure on the
instance. Neither kind needs the standard library's record decorator, whose
import (`inspect`, `ast`, `dis`) and per-class code generation would add
close to 20 ms to every cold `realize` command.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, NamedTuple

from .errors import (FlatVertex, InadmissibleSet, MultipleDivisors,
                     OddQuadMultiplicity, OutOfRange, TropicalError)
from .lattice import Vec, as_fraction, lattice_length, primitive, wedge
from .laurent import HalfLaurent, w_pow_minus_inverse
from .solver import TropicalSolution
from .trees import CombinatorialType

EdgeKey = tuple[int, int]


def _key(e) -> EdgeKey:
    a, b = e
    return (a, b) if a <= b else (b, a)


def _is_even(v: Vec) -> bool:
    return v.x % 2 == 0 and v.y % 2 == 0


class WeightedPlaneParam:
    """A parametrized plane curve with end weights 1 or 2.

    Wraps a combinatorial type (whose leaf directions may be non-primitive)
    together with optional exact bounded-edge lengths. Purely combinatorial
    instances (lengths None) support every splitting operation; metric data,
    when present, is carried through splits and quotients. Lengths are exact
    rationals: a float raises TypeError.
    """

    def __init__(self, tree: CombinatorialType,
                 lengths: Mapping[EdgeKey, Fraction] | None = None):
        weights = [lattice_length(d) for d in tree.leaf_dirs]
        if any(w > 2 for w in weights):
            raise ValueError("end weights above 2 are out of scope")
        if all(w == 2 for w in weights):
            raise ValueError("need at least one odd (weight-1) end")
        if lengths is not None:
            want = set(tree.bounded_edges)
            have = {_key(e) for e in lengths}
            if want != have:
                raise ValueError("lengths must cover exactly the bounded edges")
            lengths = {_key(e): as_fraction(v) for e, v in lengths.items()}
            if any(v <= 0 for v in lengths.values()):
                raise ValueError("edge lengths must be positive")
        object.__setattr__(self, "tree", tree)
        object.__setattr__(self, "lengths", lengths)

    def __setattr__(self, name, value):
        raise AttributeError("WeightedPlaneParam is immutable")

    def __repr__(self):
        return f"WeightedPlaneParam({self.tree!r}, {self.lengths!r})"

    @classmethod
    def from_solution(cls, sol: TropicalSolution) -> "WeightedPlaneParam":
        return cls(sol.ctype, sol.lengths)

    @functools.cached_property
    def _gamma_even(self) -> frozenset[EdgeKey]:
        _, parent, clade = self.tree.clades
        odd = sum(1 << l for l, d in enumerate(self.tree.leaf_dirs)
                  if not _is_even(d))
        return frozenset(_key((u, v)) for v, u in parent.items()
                         if not clade[v][0] & odd or not odd & ~clade[v][0])

    @functools.cached_property
    def _stem_tree(self):
        """Every even component hung from its stem, built once per curve.

        Returns (roots, orient, children): roots maps each stem to the edge
        at it, orient maps each even edge to (stem side, far side) and
        children maps it to the sorted even edges hanging below its far side.
        """
        n = self.tree.n
        even = self._gamma_even
        incident: dict[int, list[EdgeKey]] = {}
        for e in even:
            for v in e:
                if v >= n:
                    incident.setdefault(v, []).append(e)
        roots = {v: es[0] for v, es in sorted(incident.items())
                 if len(es) < len(self.tree.adjacency[v])}
        orient: dict[EdgeKey, tuple[int, int]] = {}
        children: dict[EdgeKey, list[EdgeKey]] = {}
        walk = list(roots.items())
        for near, e in walk:
            far = e[0] if e[1] == near else e[1]
            orient[e] = (near, far)
            children[e] = sorted(f for f in incident.get(far, ()) if f != e)
            walk.extend((far, f) for f in children[e])
        # a component with two stems is walked twice; one without, not at all
        if len(walk) != len(orient) or len(orient) != len(even):
            raise TropicalError("even component has no unique stem vertex")
        return roots, orient, children

    def even_leaves(self) -> tuple[int, ...]:
        return tuple(l for l, d in enumerate(self.tree.leaf_dirs)
                     if _is_even(d))

    def edge_length(self, e: EdgeKey) -> Fraction | None:
        return None if self.lengths is None else self.lengths[_key(e)]

    def normalized(self):
        """Order-independent content, for equality checks across round trips."""
        return (frozenset(_key(e) for e in self.tree.edges),
                self.tree.leaf_dirs,
                None if self.lengths is None else dict(self.lengths))

    def __eq__(self, other):
        if not isinstance(other, WeightedPlaneParam):
            return NotImplemented
        return self.normalized() == other.normalized()

    def __hash__(self):
        edges, dirs, lens = self.normalized()
        return hash((edges, dirs, None if lens is None else frozenset(lens.items())))


def gamma_even(base: WeightedPlaneParam) -> frozenset[EdgeKey]:
    """Minimal even subgraph: the weight-2 end edges closed under the
    extendable-vertex rule, i.e. the edges with only even ends on one side.
    Each WeightedPlaneParam builds it, and the stem tree hung from it, once."""
    return base._gamma_even


def _below(children, e: EdgeKey) -> frozenset[EdgeKey]:
    out = [e]
    for f in out:
        out.extend(children[f])
    return frozenset(out)


def even_components(base: WeightedPlaneParam) -> list[frozenset[EdgeKey]]:
    """Connected components of the even subgraph, as edge sets."""
    roots, _, children = base._stem_tree
    return [_below(children, e) for e in roots.values()]


def _component_root(base: WeightedPlaneParam, comp: frozenset[EdgeKey]):
    roots, _, children = base._stem_tree
    for stem, e in roots.items():
        if e in comp and _below(children, e) == comp:
            return stem, e, children
    raise TropicalError(f"{sorted(comp)} is not an even component")


def stem_of(base: WeightedPlaneParam, comp: frozenset[EdgeKey]) -> int:
    return _component_root(base, comp)[0]


def admissible_sets(base: WeightedPlaneParam,
                    comp: frozenset[EdgeKey]) -> Iterator[frozenset[EdgeKey]]:
    """All interior cut classes of one even component.

    Each yielded set is an antichain of component edges meeting every path
    from the stem to an even end exactly once; a cut point sits in the
    interior of each listed edge.
    """
    _, root_edge, children = _component_root(base, comp)

    def cuts(e: EdgeKey) -> list[frozenset[EdgeKey]]:
        out = [frozenset({e})]
        kids = children[e]
        if kids:
            for combo in itertools.product(*(cuts(k) for k in kids)):
                out.append(frozenset().union(*combo))
        return out

    return iter(cuts(root_edge))


class SplitEdge(NamedTuple):
    """One edge of a split curve; slope is directed a -> b."""

    a: tuple
    b: tuple
    slope: Vec
    length: Fraction | None
    image: EdgeKey


class RealSplit:
    """A symmetric model of a weighted curve: two copies glued along the
    part fixed by the involution sigma.

    Immutable, and equal and hashed by its seven fields; quad_vertices holds
    (base vertex, multiplicity) pairs.
    """

    def __init__(self, base: WeightedPlaneParam,
                 vertex_points: tuple[int, ...],
                 edge_points: tuple[tuple[EdgeKey, Fraction], ...],
                 nodes: tuple, edges: tuple[SplitEdge, ...],
                 quad_vertices: tuple[tuple[int, int], ...],
                 flat_nodes: tuple):
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "vertex_points", vertex_points)
        object.__setattr__(self, "edge_points", edge_points)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "quad_vertices", quad_vertices)
        object.__setattr__(self, "flat_nodes", flat_nodes)

    def _state(self) -> tuple:
        return (self.base, self.vertex_points, self.edge_points, self.nodes,
                self.edges, self.quad_vertices, self.flat_nodes)

    def __setattr__(self, name, value):
        raise AttributeError("RealSplit is immutable")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._state() == other._state()

    def __hash__(self):
        return hash(self._state())

    def __repr__(self):
        return (f"RealSplit(quad_vertices={self.quad_vertices!r}, "
                f"flat_nodes={self.flat_nodes!r}, base={self.base!r})")

    def sigma(self, node):
        tag, x = node
        if tag == "f":
            return node
        return ("-" if tag == "+" else "+", x)

    @staticmethod
    def pi(node):
        """Image of a split node downstairs: a base node id or a cut marker."""
        return node[1]

    @property
    def fixed_nodes(self) -> frozenset:
        return frozenset(nd for nd in self.nodes if nd[0] == "f")

    def is_finite(self, node) -> bool:
        x = self.pi(node)
        return not (isinstance(x, int) and x < self.base.tree.n)

    @functools.cached_property
    def _adjacency(self) -> dict:
        adj: dict[tuple, list[SplitEdge]] = {nd: [] for nd in self.nodes}
        for e in self.edges:
            adj[e.a].append(e)
            adj[e.b].append(e)
        return adj

    def valence(self, node) -> int:
        return len(self._adjacency[node])

    def valences(self) -> dict:
        return {nd: self.valence(nd) for nd in self.nodes
                if self.is_finite(nd)}

    def outgoing_slopes(self, node) -> list[Vec]:
        out = []
        for e in self._adjacency[node]:
            out.append(e.slope if e.a == node else -e.slope)
        return out

    @property
    def is_realizable(self) -> bool:
        return not self.flat_nodes


def _normalize_points(base, orient, points):
    """Sort raw (edge, offset) pairs into vertex points and interior edge
    points, rejecting duplicates and off-even placements."""
    vertex_points: set[int] = set()
    edge_points: dict[EdgeKey, Fraction] = {}
    for edge, offset in points:
        e = _key(edge)
        if e not in orient:
            raise InadmissibleSet(f"point on {e} is not on the even subgraph")
        offset = as_fraction(offset)
        if offset < 0:
            raise InadmissibleSet("negative offset")
        if offset == 0:
            vertex_points.add(orient[e][0])
            continue
        is_end = min(e) < base.tree.n
        if not is_end:
            full = base.edge_length(e)
            if full is not None and offset >= full:
                raise InadmissibleSet(
                    f"offset {offset} reaches past edge {e} of length {full}")
        if e in edge_points and edge_points[e] != offset:
            raise InadmissibleSet(f"two cut points on edge {e}")
        edge_points[e] = offset
    return vertex_points, edge_points


def build_split(base: WeightedPlaneParam,
                points: Iterable[tuple[EdgeKey, Fraction]]) -> RealSplit:
    """Construct the symmetric curve defined by splitting points.

    Each point is (edge, offset); the offset is measured from the edge
    endpoint nearer the stem of its even component, and offset 0 means the
    cut sits at that vertex itself. Admissibility (exactly one cut between
    the stem and every even end, no nesting) is enforced.
    """
    tree = base.tree
    n = tree.n
    roots, orient, children = base._stem_tree
    vertex_points, edge_points = _normalize_points(base, orient, points)

    # one walk down from the stems: count the cut points above every node
    # and double every node past one
    hits: dict[int, int] = {}
    doubled: set[int] = set()
    walk = [(e, int(stem in vertex_points)) for stem, e in roots.items()]
    for e, seen in walk:
        far = orient[e][1]
        seen += e in edge_points
        if seen:
            doubled.add(far)
        seen += far in vertex_points
        hits[far] = seen
        walk.extend((f, seen) for f in children[e])
    for leaf in base.even_leaves():
        if hits[leaf] != 1:
            raise InadmissibleSet(f"path from the stem to end {leaf} "
                                  f"crosses {hits[leaf]} cut points")

    # one pass over the base edges: subdivide each at its cut point, then
    # halve and double the pieces past the cut
    split_edges: list[SplitEdge] = []
    for edge in tree.edges:
        e = _key(edge)
        near, far = orient.get(e, e)
        slope = tree.slopes[(near, far)]
        full = base.edge_length(e) if min(e) >= n else None
        if e in edge_points:
            off = edge_points[e]
            cut = ("cut", e)
            rest = None if full is None else full - off
            pieces = ((near, cut, off), (cut, far, rest))
        else:
            pieces = ((near, far, full),)
        for a, b, length in pieces:
            if a in doubled or b in doubled:
                if slope.x % 2 or slope.y % 2:
                    raise InadmissibleSet(
                        f"cannot halve odd slope {tuple(slope)} on {e}")
                half = Vec(slope.x // 2, slope.y // 2)
                twice = None if length is None else 2 * length
                for sign in ("+", "-"):
                    ta = (sign if a in doubled else "f", a)
                    tb = (sign if b in doubled else "f", b)
                    split_edges.append(SplitEdge(ta, tb, half, twice, e))
            else:
                split_edges.append(
                    SplitEdge(("f", a), ("f", b), slope, length, e))

    nodes = {nd for se in split_edges for nd in (se.a, se.b)}
    shape = (base, tuple(sorted(vertex_points)),
             tuple(sorted(edge_points.items())),
             tuple(sorted(nodes, key=repr)), tuple(split_edges))
    split = RealSplit(*shape, quad_vertices=(), flat_nodes=())

    # classify the special finite vertices on the split curve itself
    base_mults = tree.multiplicities()
    quads = []
    flats = []
    for nd, valence in split.valences().items():
        if valence == 4 and isinstance(nd[1], int):
            quads.append((nd[1], base_mults[nd[1]]))
        sl = split.outgoing_slopes(nd)
        if valence >= 3 and all(
                wedge(sl[0], s) == 0 and wedge(sl[1], s) == 0 for s in sl):
            flats.append(nd)
    return RealSplit(*shape, quad_vertices=tuple(sorted(quads)),
                     flat_nodes=tuple(flats))


def quotient_curve(split: RealSplit) -> WeightedPlaneParam:
    """Quotient by the involution; inverse of build_split.

    Doubled pieces get their lengths halved and slopes doubled, then the
    subdivision points are smoothed away. The result reuses the base node
    ids, so equality with the original is literal.
    """
    n = split.base.tree.n
    by_pair: dict[tuple, tuple[Vec, Fraction | None, EdgeKey]] = {}
    for e in split.edges:
        if e.a[0] == "-" or e.b[0] == "-":
            continue
        doubled = e.a[0] == "+" or e.b[0] == "+"
        a, b = e.a[1], e.b[1]
        if doubled:
            slope = Vec(2 * e.slope.x, 2 * e.slope.y)
            length = None if e.length is None else e.length / 2
        else:
            slope, length = e.slope, e.length
        if (b, a) in by_pair:
            prev_slope, _, _ = by_pair[(b, a)]
            if prev_slope != -slope:
                raise TropicalError("inconsistent piece slopes in quotient")
            continue
        by_pair[(a, b)] = (slope, length, e.image)

    # smooth the valence-2 cut nodes back into single edges
    merged: dict[EdgeKey, tuple[int, int, Vec, Fraction | None]] = {}
    partial: dict = {}
    for (a, b), (slope, length, image) in by_pair.items():
        partial.setdefault(image, []).append((a, b, slope, length))
    for image, parts in partial.items():
        if len(parts) == 1:
            a, b, slope, length = parts[0]
            merged[image] = (a, b, slope, length)
            continue
        if len(parts) != 2:
            raise TropicalError(f"edge {image} split into {len(parts)} pieces")
        (a1, b1, s1, l1), (a2, b2, s2, l2) = parts
        if not isinstance(b1, tuple):
            (a1, b1, s1, l1), (a2, b2, s2, l2) = (a2, b2, s2, l2), (a1, b1, s1, l1)
        if b1 != a2 or s1 != s2:
            raise TropicalError(f"pieces of {image} do not chain")
        total = None if (l1 is None or l2 is None) else l1 + l2
        merged[image] = (a1, b2, s1, total)

    edges = []
    leaf_dirs: list[Vec | None] = [None] * n
    lengths: dict[EdgeKey, Fraction] = {}
    metric = split.base.lengths is not None
    for image in sorted(merged):
        a, b, slope, length = merged[image]
        edges.append((a, b))
        if isinstance(a, int) and a < n:
            leaf_dirs[a] = -slope
        elif isinstance(b, int) and b < n:
            leaf_dirs[b] = slope
        elif metric:
            lengths[_key((a, b))] = length
    tree = CombinatorialType(tuple(leaf_dirs), tuple(edges))
    return WeightedPlaneParam(tree, lengths if metric else None)


def maximal_split(base: WeightedPlaneParam) -> RealSplit:
    """The unique splitting with every weight-2 end cut at its adjacent
    vertex; no flat vertices, one quadrivalent vertex per even end.

    Requires all even ends parallel (a single divisor); even ends meeting at
    a shared vertex would make it flat and are rejected.
    """
    tree = base.tree
    evens = base.even_leaves()
    if evens:
        prims = {primitive(tree.leaf_dirs[l]) for l in evens}
        if len(prims) > 1:
            raise MultipleDivisors(
                f"even ends span {len(prims)} directions, need exactly one")
    end_edges = {_key(tree.end_edge(l)) for l in evens}
    if gamma_even(base) != end_edges:
        raise FlatVertex("even subgraph extends past the weight-2 ends; "
                         "some vertex joining them is flat")
    split = build_split(base, [(e, Fraction(0)) for e in sorted(end_edges)])
    if len(split.quad_vertices) != len(evens) or split.flat_nodes:
        raise TropicalError(
            f"maximal split has {len(split.quad_vertices)} quadrivalent and "
            f"{len(split.flat_nodes)} flat vertices for {len(evens)} even ends")
    return split


def m_prime(split: RealSplit, mults: Mapping[int, int]) -> HalfLaurent:
    """First-order real multiplicity of the split curve.

    4 * prod over quadrivalent W of (q^(m_W/2) - q^(-m_W/2)) / (q - 1/q)
      * prod over the other vertices of (q^(m_V/2) - q^(-m_V/2)).

    mults maps each base vertex to its multiplicity, as
    `CombinatorialType.multiplicities()` gives it.
    """
    quads = dict(split.quad_vertices)
    for v, m in quads.items():
        if mults.get(v, m) != m:
            raise TropicalError(
                f"vertex {v}: split says multiplicity {m}, caller {mults[v]}")
        if m % 2:
            raise OddQuadMultiplicity(f"vertex {v} has odd multiplicity {m}")
    num = HalfLaurent(4)
    for v in sorted(mults):
        num = num * w_pow_minus_inverse(mults[v])
    den = w_pow_minus_inverse(2) ** len(quads)
    return num.exact_div(den)


def oriented_solution_count(split: RealSplit) -> int:
    """Number of oriented first-order real solutions over the split curve:
    2^(m - 2s) times the product of the quadrivalent multiplicities, where m
    counts ends of the primitive parent degree."""
    s = len(split.base.even_leaves())
    m = split.base.tree.n + s
    out = 1 << (m - 2 * s)
    for _, mw in split.quad_vertices:
        out *= mw
    return out


# -- quantum indices ---------------------------------------------------------


def trivalent_quantum_index(u: Vec, v: Vec) -> tuple[Fraction, Fraction]:
    """The two possible quantum indices of a trivalent vertex with outgoing
    slopes u, v: plus or minus half its multiplicity."""
    m = abs(wedge(u, v))
    if m == 0:
        raise FlatVertex("flat vertex has no quantum index")
    return (Fraction(m, 2), Fraction(-m, 2))


def quad_indices(m1: int, delta: int) -> list[int]:
    """Quantum indices of the m1 first-order solutions at a quadrivalent
    vertex of type (m1; delta): delta * (2k + 1 - m1) for k = 0..m1-1."""
    if m1 < 1:
        raise OutOfRange(f"m1 must be at least 1, got {m1}")
    if delta < 1:
        raise OutOfRange(f"delta must be at least 1, got {delta}")
    return [delta * (2 * k + 1 - m1) for k in range(m1)]


def quad_refined_sum(m1: int, delta: int) -> HalfLaurent:
    """Sum of q^index over the quadrivalent solutions; equals the exact
    quotient (q^(delta*m1) - q^(-delta*m1)) / (q^delta - q^(-delta))."""
    return HalfLaurent.from_pairs(
        (2 * idx, 1) for idx in quad_indices(m1, delta))


def coamoeba_area(m1: int, k: int) -> Fraction:
    """Signed coamoeba defect of the k-th solution sheet, in units of pi^2:
    (2k + 1)/m1 - 1."""
    if m1 < 1:
        raise OutOfRange(f"m1 must be at least 1, got {m1}")
    if not 0 <= k < m1:
        raise OutOfRange(f"k must lie in [0, {m1}), got {k}")
    return Fraction(2 * k + 1, m1) - 1


def c_k_values(m1: int) -> list[Fraction]:
    """Cotangent arguments of the solution sheets, as exact multiples of pi:
    (2k + 1) / (2 m1) for k = 0..m1-1."""
    if m1 < 1:
        raise OutOfRange(f"m1 must be at least 1, got {m1}")
    return [Fraction(2 * k + 1, 2 * m1) for k in range(m1)]
