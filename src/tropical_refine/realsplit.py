"""Real splittings of curves with even ends, and quantum-index bookkeeping.

A parametrized curve whose ends have weight 1 or 2 can be presented as the
quotient of a symmetric curve: the even part (the minimal subgraph containing
every weight-2 end, closed under the rule that a vertex with all its edges
but one even pulls in the last one) is cut at a set of points R, and
the pieces beyond the cuts are doubled. The resulting graph carries an
involution whose quotient recovers the original curve; slopes halve on the
doubled part.

By induction on the closure rule, an edge is in the even part exactly when
every end on one of its sides is even. Hung from end 1, the edge above a
vertex v cuts off v's clade, so the clades orient every even edge from its
stem side to its all-even far side: the edge points down, away from end 1,
when clade[v] holds no odd end, and up when clade[v] holds every odd end
(never both, as a curve has an odd end). Each component of the even part
hangs from its stem, the one vertex where it meets the rest of the curve:
the stem side of an even edge that is the far side of none. By the closure
rule every other vertex of a component has all its edges even, so below the
stem a component only ends in even ends; the doubled part is everything
past the cut points, as seen walking down from the stems. Each
WeightedPlaneParam orients its even edges and groups them by stem side once,
and every split of it reads that.

Cut positions are discretized: on a bounded edge only the interior class
matters, while on an unbounded end the interior position (which creates a
flat trivalent vertex out on the end) and the position at the adjacent
vertex (which makes that vertex quadrivalent) are genuinely different. The
split with every weight-2 end cut at its adjacent vertex is the maximal one;
it is the only splitting without flat vertices, and its quadrivalent
vertices are where the quantum-index arithmetic below happens.

m'/4 (see `m_prime`) of a curve with n = m - s ends and k quadrivalent
vertices is its refined multiplicity times (w - 1/w)^(n-2) / (q - 1/q)^k,
so sum m'/4 = R is `r_from_n`'s formula once every k is s: it checks that
condition, not N. m' is a product with no division: a quadrivalent vertex
has even multiplicity m, and its factor (w^m - w^-m) / (w^2 - w^-2) is the
sum w^(m-2) + w^(m-6) + ... + w^(2-m), which is quad_refined_sum(m/2, 1).

A RealSplit stores only what defines it: the base curve, the cut points at
vertices and inside edges, and the split edges. Its nodes, quadrivalent
vertices and flat nodes are read off the edges on first use.

An end is even when its lattice length is 2, as in `lattice`, whose
`_end_weight` and `_one_divisor` check weights 1 or 2 and parallel even ends.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, NamedTuple

from .errors import (FlatVertex, InadmissibleSet, OddQuadMultiplicity,
                     OutOfRange, TropicalError)
from .lattice import (Record, Vec, _end_weight, _int, _one_divisor,
                      as_fraction, lattice_length, wedge)
from .laurent import HalfLaurent, w_pow_minus_inverse

if TYPE_CHECKING:
    from .solver import TropicalSolution
    from .trees import CombinatorialType

EdgeKey = tuple[int, int]


def _key(e) -> EdgeKey:
    a, b = e
    return (a, b) if a <= b else (b, a)


class WeightedPlaneParam(Record):
    """A parametrized plane curve with end weights 1 or 2.

    Wraps a combinatorial type whose leaf directions may be non-primitive.
    The real side reads only combinatorics, so a curve's edge lengths stay
    on its `TropicalSolution`. Equal and hashed by the edge set and the leaf
    directions, whatever the order of the edges.
    """

    def __init__(self, tree: CombinatorialType):
        if 1 not in [_end_weight(d) for d in tree.leaf_dirs]:
            raise ValueError("need at least one odd (weight-1) end")
        object.__setattr__(self, "tree", tree)

    def identity(self) -> tuple:
        return frozenset(map(_key, self.tree.edges)), self.tree.leaf_dirs

    def __repr__(self):
        return f"WeightedPlaneParam({self.tree!r})"

    def __reduce__(self):
        return WeightedPlaneParam, (self.tree,)

    @classmethod
    def from_solution(cls, sol: TropicalSolution) -> "WeightedPlaneParam":
        return cls(sol.ctype)

    @functools.cached_property
    def _gamma_even(self) -> dict[EdgeKey, tuple[int, int]]:
        """Every even edge, keyed by its sorted pair, as (stem side, far
        side), read off the clades."""
        _, parent, clade = self.tree.clades
        odd = sum(1 << l for l, d in enumerate(self.tree.leaf_dirs)
                  if lattice_length(d) != 2)
        out = {}
        for v, u in parent.items():
            if not clade[v][0] & odd:
                out[_key((u, v))] = (u, v)
            elif not odd & ~clade[v][0]:
                out[_key((u, v))] = (v, u)
        return out

    @functools.cached_property
    def _stem_tree(self):
        """Every even component hung from its stem, built once per curve.

        Returns (children, stems): children maps each vertex to the sorted
        even edges whose stem side it is, and stems maps each component, in
        the order of the stems, to its stem. A stem has exactly one even
        edge: the tree is checked, its ends have weight 1 or 2 and one of
        them 1, so it has two or more odd ends and no leaf is a stem; and by
        the closure rule a vertex with two even edges below it pulls in its
        third.
        """
        orient = self._gamma_even
        children: dict[int, list[EdgeKey]] = {}
        for e, (near, _) in sorted(orient.items()):
            children.setdefault(near, []).append(e)
        stems = {}
        for stem in sorted(children.keys() - {f for _, f in orient.values()}):
            comp = list(children[stem])
            for e in comp:
                comp.extend(children.get(orient[e][1], ()))
            stems[frozenset(comp)] = stem
        return children, stems

    def even_leaves(self) -> tuple[int, ...]:
        return tuple(l for l, d in enumerate(self.tree.leaf_dirs)
                     if lattice_length(d) == 2)


def gamma_even(base: WeightedPlaneParam) -> frozenset[EdgeKey]:
    """Minimal even subgraph: the weight-2 end edges closed under the
    extendable-vertex rule, i.e. the edges with only even ends on one side.
    Each WeightedPlaneParam builds it, and the stem tree hung from it, once."""
    return frozenset(base._gamma_even)


def even_components(base: WeightedPlaneParam) -> list[frozenset[EdgeKey]]:
    """Connected components of the even subgraph, as edge sets."""
    return list(base._stem_tree[1])


def stem_of(base: WeightedPlaneParam, comp: frozenset[EdgeKey]) -> int:
    stem = base._stem_tree[1].get(frozenset(comp))
    if stem is None:
        raise TropicalError(f"{sorted(comp)} is not an even component")
    return stem


def admissible_sets(base: WeightedPlaneParam,
                    comp: frozenset[EdgeKey]) -> Iterator[frozenset[EdgeKey]]:
    """All interior cut classes of one even component.

    Each yielded set is an antichain of component edges meeting every path
    from the stem to an even end exactly once; a cut point sits in the
    interior of each listed edge.
    """
    children = base._stem_tree[0]
    return iter(_cuts(children, base._gamma_even,
                      children[stem_of(base, comp)][0]))


def _cuts(children: dict[int, list[EdgeKey]],
          orient: dict[EdgeKey, tuple[int, int]],
          e: EdgeKey) -> list[frozenset[EdgeKey]]:
    """The cut classes of the part of the component at and below edge e:
    e alone, or one cut class below each of the edges under e."""
    out = [frozenset({e})]
    kids = children.get(orient[e][1])
    if kids:
        for combo in itertools.product(*(_cuts(children, orient, k)
                                         for k in kids)):
            out.append(frozenset().union(*combo))
    return out


class SplitEdge(NamedTuple):
    """One edge of a split curve; slope is directed a -> b."""

    a: tuple
    b: tuple
    slope: Vec
    image: EdgeKey


class RealSplit(Record):
    """A symmetric model of a weighted curve: two copies glued along the
    part fixed by the involution sigma.

    Equal and hashed by its four fields; the nodes and the special vertices
    are read off the edges once.
    """

    def __init__(self, base: WeightedPlaneParam,
                 vertex_points: tuple[int, ...],
                 edge_points: tuple[tuple[EdgeKey, Fraction], ...],
                 edges: tuple[SplitEdge, ...]):
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "vertex_points", vertex_points)
        object.__setattr__(self, "edge_points", edge_points)
        object.__setattr__(self, "edges", edges)

    def identity(self) -> tuple:
        return self.base, self.vertex_points, self.edge_points, self.edges

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

    @functools.cached_property
    def _outgoing(self) -> dict[tuple, tuple[Vec, ...]]:
        """Every node, in repr order, with the slopes of its edges directed
        away from it, in edge order; read off the edges once."""
        out: dict[tuple, list[Vec]] = {}
        for e in self.edges:
            out.setdefault(e.a, []).append(e.slope)
            out.setdefault(e.b, []).append(-e.slope)
        return {nd: tuple(out[nd]) for nd in sorted(out, key=repr)}

    @property
    def nodes(self) -> tuple:
        return tuple(self._outgoing)

    @functools.cached_property
    def quad_vertices(self) -> tuple[tuple[int, int], ...]:
        """(base vertex, multiplicity) of every quadrivalent base vertex."""
        mults = self.base.tree.multiplicities()
        return tuple(sorted((nd[1], mults[nd[1]])
                            for nd, valence in self.valences().items()
                            if valence == 4 and isinstance(nd[1], int)))

    @functools.cached_property
    def flat_nodes(self) -> tuple:
        """Finite nodes of valence 3 or more whose slopes are all parallel."""
        out = []
        for nd, sl in self._outgoing.items():
            if self.is_finite(nd) and len(sl) >= 3 and all(
                    wedge(sl[0], s) == 0 and wedge(sl[1], s) == 0 for s in sl):
                out.append(nd)
        return tuple(out)

    @property
    def fixed_nodes(self) -> frozenset:
        return frozenset(nd for nd in self.nodes if nd[0] == "f")

    def is_finite(self, node) -> bool:
        x = self.pi(node)
        return not (isinstance(x, int) and x < self.base.tree.n)

    def valences(self) -> dict:
        return {nd: len(sl) for nd, sl in self._outgoing.items()
                if self.is_finite(nd)}

    @property
    def is_realizable(self) -> bool:
        return not self.flat_nodes


def _normalize_points(orient, points):
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
        if e in edge_points and edge_points[e] != offset:
            raise InadmissibleSet(f"two cut points on edge {e}")
        edge_points[e] = offset
    return vertex_points, edge_points


def build_split(base: WeightedPlaneParam,
                points: Iterable[tuple[EdgeKey, Fraction]]) -> RealSplit:
    """Construct the symmetric curve defined by splitting points.

    Each point is (edge, offset), the offset an exact rational: 0 puts the
    cut at the edge's endpoint nearer the stem of its even component, and a
    positive offset puts it inside the edge, where only that class matters;
    the split keeps the offset as given. Admissibility (exactly one cut
    between the stem and every even end, no nesting) is enforced.
    """
    tree = base.tree
    children, stems = base._stem_tree
    orient = base._gamma_even
    vertex_points, edge_points = _normalize_points(orient, points)

    # one walk down from the stems: count the cut points above every node
    # and double every node past one
    hits: dict[int, int] = {}
    doubled: set[int] = set()
    walk = [(children[stem][0], int(stem in vertex_points))
            for stem in stems.values()]
    for e, seen in walk:
        far = orient[e][1]
        seen += e in edge_points
        if seen:
            doubled.add(far)
        seen += far in vertex_points
        hits[far] = seen
        walk.extend((f, seen) for f in children.get(far, ()))
    for leaf in base.even_leaves():
        if hits[leaf] != 1:
            raise InadmissibleSet(f"path from the stem to end {leaf} "
                                  f"crosses {hits[leaf]} cut points")

    # one pass over the base edges: subdivide each at its cut point, then
    # halve the slopes of the pieces past the cut and double those pieces
    split_edges: list[SplitEdge] = []
    for edge in tree.edges:
        e = _key(edge)
        near, far = orient.get(e, e)
        slope = tree.slope(near, far)
        if e in edge_points:
            cut = ("cut", e)
            pieces = ((near, cut), (cut, far))
        else:
            pieces = ((near, far),)
        for a, b in pieces:
            if a in doubled or b in doubled:
                if slope.x % 2 or slope.y % 2:
                    raise InadmissibleSet(
                        f"cannot halve odd slope {tuple(slope)} on {e}")
                half = Vec(slope.x // 2, slope.y // 2)
                for sign in ("+", "-"):
                    ta = (sign if a in doubled else "f", a)
                    tb = (sign if b in doubled else "f", b)
                    split_edges.append(SplitEdge(ta, tb, half, e))
            else:
                split_edges.append(SplitEdge(("f", a), ("f", b), slope, e))

    return RealSplit(base, tuple(sorted(vertex_points)),
                     tuple(sorted(edge_points.items())), tuple(split_edges))


def quotient_curve(split: RealSplit) -> WeightedPlaneParam:
    """Quotient by the involution; inverse of build_split.

    Every piece's image must be a base edge, and the pieces of each base
    edge, without their "-" copies, must chain from one end of it to the
    other; doubled pieces get their slopes doubled, and the subdivision
    points are smoothed away. The result reuses the base node ids, so
    equality with the original is literal.
    """
    from .trees import CombinatorialType

    pieces: dict[EdgeKey, list] = {}
    for e in split.edges:
        tags = (e.a[0], e.b[0])
        if "-" in tags:
            continue
        slope = e.slope.scale(2) if "+" in tags else e.slope
        pieces.setdefault(e.image, []).append((e.a[1], e.b[1], slope))

    base_tree = split.base.tree
    base_edges = set(map(_key, base_tree.edges))
    missing = sorted(base_edges - pieces.keys())
    if missing:
        raise TropicalError(f"no pieces for base edges {missing}")
    foreign = sorted(pieces.keys() - base_edges)
    if foreign:
        raise TropicalError(f"pieces of {foreign}, which are not base edges")
    n = base_tree.n
    edges = []
    leaf_dirs: list[Vec | None] = [None] * n
    for image in sorted(pieces):
        chain = pieces[image]
        a, b, slope = chain[0][0], chain[-1][1], chain[0][2]
        if ((a, b) not in (image, image[::-1])
                or any(p[1] != q[0] for p, q in zip(chain, chain[1:]))
                or any(p[2] != slope for p in chain)):
            raise TropicalError(f"pieces of {image} do not chain")
        edges.append((a, b))
        if a < n:
            leaf_dirs[a] = -slope
        elif b < n:
            leaf_dirs[b] = slope
    return WeightedPlaneParam(CombinatorialType(tuple(leaf_dirs), tuple(edges)))


def maximal_split(base: WeightedPlaneParam) -> RealSplit:
    """The unique splitting with every weight-2 end cut at its adjacent
    vertex; no flat vertices, one quadrivalent vertex per even end.

    Requires all even ends parallel (a single divisor); even ends meeting at
    a shared vertex would make it flat and are rejected.
    """
    tree = base.tree
    evens = base.even_leaves()
    _one_divisor([tree.leaf_dirs[l] for l in evens])
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
    """First-order real multiplicity of the split curve, in w = q^(1/2):

      4 * prod over quadrivalent W of (w^m_W - w^-m_W) / (w^2 - w^-2)
        * prod over the other vertices V of (w^m_V - w^-m_V).

    Built as a product, with no division: m_W is even, and then
    (w^m - w^-m) / (w^2 - w^-2) = w^(m-2) + w^(m-6) + ... + w^(2-m), which
    is quad_refined_sum(m/2, 1).

    mults, every internal vertex with the multiplicity its count found, must
    equal the base tree's `multiplicities()`; else TropicalError.
    """
    quads = dict(split.quad_vertices)
    for v, m in quads.items():
        if m % 2:
            raise OddQuadMultiplicity(f"vertex {v} has odd multiplicity {m}")
    want = split.base.tree.multiplicities()
    if dict(mults) != want:
        raise TropicalError(f"multiplicities {dict(mults)} are not the "
                            f"tree's {want}")
    out = HalfLaurent(4)
    for v, m in want.items():
        out = out * (quad_refined_sum(m // 2, 1) if v in quads
                     else w_pow_minus_inverse(m))
    return out


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


def _at_least_1(name: str, value: int) -> None:
    """OutOfRange naming an int argument, checked for its type, below 1."""
    if value < 1:
        raise OutOfRange(f"{name} must be at least 1, got {value}")


MAX_M1 = 10_000     # about 1 KB per unit of m1: `quantum` at the cap, 25 MiB


def _at_most_max_m1(m1: int) -> None:
    """OutOfRange for an m1 past MAX_M1, before a table of m1 entries."""
    if m1 > MAX_M1:
        raise OutOfRange(f"m1 = {m1} is past the bound of {MAX_M1}: the "
                         f"quantum tables take about 1 KB per unit of m1")


def quad_indices(m1: int, delta: int) -> list[int]:
    """Quantum indices of the m1 first-order solutions at a quadrivalent
    vertex of type (m1; delta): delta * (2k + 1 - m1) for k = 0..m1-1."""
    _int("m1", m1)
    _int("delta", delta)
    _at_least_1("m1", m1)
    _at_least_1("delta", delta)
    _at_most_max_m1(m1)
    return [delta * (2 * k + 1 - m1) for k in range(m1)]


def quad_refined_sum(m1: int, delta: int) -> HalfLaurent:
    """Sum of q^index over the quadrivalent solutions; equals the exact
    quotient (q^(delta*m1) - q^(-delta*m1)) / (q^delta - q^(-delta)). The
    indices are distinct, so each monomial has coefficient 1."""
    return HalfLaurent({2 * idx: 1 for idx in quad_indices(m1, delta)})


def coamoeba_area(m1: int, k: int) -> Fraction:
    """Signed coamoeba defect of the k-th solution sheet, in units of pi^2:
    (2k + 1)/m1 - 1."""
    _int("m1", m1)
    _int("k", k)
    _at_least_1("m1", m1)
    _at_most_max_m1(m1)
    if not 0 <= k < m1:
        raise OutOfRange(f"k must lie in [0, {m1}), got {k}")
    return Fraction(2 * k + 1 - m1, m1)


def c_k_values(m1: int) -> list[Fraction]:
    """Cotangent arguments of the solution sheets, as exact multiples of pi:
    (2k + 1) / (2 m1) for k = 0..m1-1."""
    _at_least_1("m1", _int("m1", m1))
    _at_most_max_m1(m1)
    return [Fraction(2 * k + 1, 2 * m1) for k in range(m1)]
