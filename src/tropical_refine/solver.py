"""Exact solvers for the boundary-moment evaluation map.

Fixing a combinatorial type, a parametrized curve is pinned down by the
position of the root vertex (the one adjacent to end 1) and the lengths of
the n-3 bounded edges. Each end moment is an affine function of these n-1
unknowns, so prescribing the moments of ends 2..n gives a square integer
linear system. Its determinant factors as the product of the vertex
multiplicities. `solve` handles one type this way, by fraction-free
elimination over the integers; it is the reference the fast path is tested
against.

The count, `_count`, finds the curves of every type at once. Hang the tree
from end 1; the vertex above an end set S with children A and B sits where the
lines L_A and L_B meet, L_X = {p : wedge(n_X, p) = sum of the moments of
X}, so its position depends on the split (A, B) alone, and the edge down to
A has positive length exactly when A's own vertex lies further along n_A. A
subset dynamic program over end sets, on integer moment sums and with no
linear algebra, places each set's splits sorted by their position along
n_S, their key. The sums are made from the integers a `MomentVector`
holds, its moments over one common denominator, so the count reads no
Fraction; only `solve` reads the moments as values. A split is placed
only when its position along each side of two or more ends is at most
that side's largest placed key, so every placed split has a subtree with
every length >= 0 on each side, and one comparison per side rejects a
split. The backtracking (`_subtrees` and `_side`) enters each side at its first row
with a key at or past the parent's; an equal key is a wall. So it finds
exactly the curves with every length > 0, or meets the wall on its way
down, and it builds no reference cycle.

The count gives each curve as the tuple of its split pairs and, from each
split's |d| and vertex point worked out once, the tally of the curves'
sorted multiplicity tuples and their number of distinct point sets: enough
to weigh the curves and compare them as point sets. `solve`, and `_curves`
from a count's split tuples, give a curve as one `TropicalSolution`: its
splits, its vertex multiplicities and its vertex positions, integers over
the least common scale, and its tree when asked.

Everything that depends on the degree alone (the direction sums of the end
sets, their splits with d = wedge(n_A, n_B) != 0 and no dead side, the
common scale lcm|d| and per-split coefficients) is a `_SplitTable`, built
the first time a degree is counted and dropped with its `Degree`, so each
count does only the work that depends on the moments. For delta_d(4) it
holds 50 702 splits of 1838 end sets, about 12 MiB, after dropping 7 231
dead ones.

All arithmetic is exact; a curve is accepted only when every edge length is
strictly positive. A length of exactly zero means the constraint sits on a
wall of the moment cone and callers must resample.
"""

from __future__ import annotations

import functools
from bisect import bisect_left
from fractions import Fraction
from math import gcd, inf, lcm, prod
from typing import Sequence
from weakref import WeakKeyDictionary

from .errors import DegenerateType, NonGenericMoments, TropicalError
from .lattice import (Degree, MomentVector, Record, Vec, _at_most_max_ends,
                      _exactly, _moment_count, _three_ends)
from .laurent import HalfLaurent, q_analog
from .trees import CombinatorialType, type_from_clades


def evaluation_matrix(ctype: CombinatorialType) -> list[list[int]]:
    """Integer matrix of the evaluation map.

    Row j-1 (for end j in 2..n) gives the moment of end j; columns are the
    root position (x, y) followed by the bounded edge lengths in the order of
    ctype.bounded_edges. The entry of end j and edge e is x_j*y_e - y_j*x_e
    when the clade (x_e, y_e) below e holds j, and 0 otherwise.
    """
    dirs = ctype.leaf_dirs
    _, parent, clade = ctype.clades
    rows = [[-d.y, d.x] for d in dirs[1:]]
    for u, v in ctype.bounded_edges:
        mask, x, y = clade[v if parent[v] == u else u]
        for j, row in enumerate(rows, 1):
            row.append(dirs[j].x * y - dirs[j].y * x if mask >> j & 1 else 0)
    return rows


def _solve_exact(matrix: list[list[int]], rhs: list[Fraction]):
    """Fraction-free (Bareiss) elimination of an integer system.

    The right-hand side is scaled by the lcm of its denominators, so every
    entry stays an integer and each step divides exactly by the previous
    pivot. The last pivot is then the determinant of the row-swapped
    matrix, and back substitution of the solution times it stays integral
    by Cramer's rule. Returns (det, solution) with det an int; solution is
    None when det == 0.
    """
    denom = lcm(*(v.denominator for v in rhs))
    m = [row + [v.numerator * (denom // v.denominator)]
         for row, v in zip(matrix, rhs)]
    size = len(m)
    sign, prev = 1, 1
    for c in range(size):
        pivot_row = next((r for r in range(c, size) if m[r][c] != 0), None)
        if pivot_row is None:
            return 0, None
        if pivot_row != c:
            m[c], m[pivot_row] = m[pivot_row], m[c]
            sign = -sign
        top = m[c]
        pv = top[c]
        for row in m[c + 1:]:
            lead = row[c]
            for k in range(c + 1, size + 1):
                row[k] = (row[k] * pv - lead * top[k]) // prev
        prev = pv
    # y = prev * x solves the triangular system in integers
    y = [0] * size
    for r in range(size - 1, -1, -1):
        row = m[r]
        acc = prev * row[size] - sum(row[k] * y[k] for k in range(r + 1, size))
        y[r] = acc // row[r]
    return sign * prev, [Fraction(v, prev * denom) for v in y]


class TropicalSolution(Record):
    """A curve with the ends `dirs` through the given moments.

    Hung from end 1, internal vertex n + i (n = len(dirs)) splits the
    leaves below it into splits[i] = (A, B), bitmasks by leaf with A
    holding the lowest leaf; it has multiplicity mults[i] and lies at
    points[i] / scale, with scale the least that makes every coordinate
    whole. That form is unique, so `solve` and `_curves` give equal records
    for one curve, and equal point sets have equal scales and
    sorted points. `ctype`, and `place`, which sorts as the type does in
    enumerate_types order, come from one `type_from_clades` call when
    either is first read; `lengths` reads the edge lengths off the points.
    """

    __slots__ = ("dirs", "moments", "splits", "mults", "points", "scale",
                 "_tree")

    def __init__(self, dirs: tuple[Vec, ...], moments: MomentVector,
                 splits: tuple, mults: tuple, points: tuple, scale: int):
        object.__setattr__(self, "dirs", dirs)
        object.__setattr__(self, "moments", moments)
        object.__setattr__(self, "splits", splits)
        object.__setattr__(self, "mults", mults)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "scale", scale)

    def identity(self) -> tuple:
        return (self.dirs, self.moments, self.splits, self.mults, self.points,
                self.scale)

    def _typed(self) -> tuple[tuple[int, ...], CombinatorialType]:
        if not hasattr(self, "_tree"):
            object.__setattr__(self, "_tree",
                               type_from_clades(self.dirs, self.splits))
        return self._tree

    @property
    def ctype(self) -> CombinatorialType:
        return self._typed()[1]

    @property
    def place(self) -> tuple[int, ...]:
        return self._typed()[0]

    @property
    def root(self) -> tuple[Fraction, Fraction]:
        """Position of the vertex adjacent to end 1."""
        x, y = self.points[self.ctype.root_vertex - len(self.dirs)]
        return Fraction(x, self.scale), Fraction(y, self.scale)

    @property
    def lengths(self) -> dict[tuple[int, int], Fraction]:
        """Length of every bounded edge, keyed and ordered as bounded_edges:
        the edge from parent u down to v runs along v's clade sum (x, y),
        so its length is (p_v - p_u).(x, y) / (scale * (x^2 + y^2))."""
        n, points, scale = len(self.dirs), self.points, self.scale
        _, parent, clade = self.ctype.clades
        out = {}
        for e in self.ctype.bounded_edges:
            u, v = e if parent[e[1]] == e[0] else e[::-1]
            _, x, y = clade[v]
            (ux, uy), (vx, vy) = points[u - n], points[v - n]
            out[e] = Fraction((vx - ux) * x + (vy - uy) * y,
                              scale * (x * x + y * y))
        return out

    @property
    def det_abs(self) -> int:
        """|det| of the evaluation map: the product of the multiplicities."""
        return prod(self.mults)

    def positions(self) -> dict[int, tuple[Fraction, Fraction]]:
        """Exact plane position of every internal vertex."""
        n, scale = len(self.dirs), self.scale
        return {n + i: (Fraction(x, scale), Fraction(y, scale))
                for i, (x, y) in enumerate(self.points)}

    def end_moments(self) -> tuple[Fraction, ...]:
        """Moments of all n ends, end 1 too, read off `points` and `scale`."""
        n, ctype, scale = len(self.dirs), self.ctype, self.scale
        out = []
        for leaf, nj in enumerate(self.dirs):
            px, py = self.points[ctype.leaf_vertex(leaf) - n]
            out.append(Fraction(nj.x * py - nj.y * px, scale))
        return tuple(out)

    def verify(self) -> None:
        """Check the vertex data against the tree and the defining equations
        exactly; raises TropicalError on any drift."""
        want_mults = tuple(self.ctype.multiplicities().values())
        if self.mults != want_mults:
            raise TropicalError(f"vertex multiplicities {self.mults} are not "
                                f"the tree's {want_mults}")
        if gcd(self.scale, *(c for p in self.points for c in p)) != 1:
            raise TropicalError(f"scale {self.scale} of the vertex positions "
                                f"is not the least one")
        lengths = self.lengths
        if any(ln <= 0 for ln in lengths.values()):
            raise TropicalError(f"edge lengths {lengths} are not all positive")
        if self.positions() != _walk(self.ctype, self.root, lengths):
            raise TropicalError("vertex positions disagree with the edge "
                                "lengths walked from the root")
        # the wanted moments sum to 0 (Menelaus), so equal ones do as well
        got = self.end_moments()
        want = self.moments.full()
        if got != want:
            raise TropicalError(f"moment mismatch: {got} != {want}")

    def refined_multiplicity(self) -> HalfLaurent:
        """Product of quantum integers [m_V] over the vertices."""
        return _q_product(tuple(sorted(self.mults)))


@functools.cache
def _q_product(mults: tuple[int, ...]) -> HalfLaurent:
    """Product of q_analog(m) over a sorted multiplicity tuple, built once
    per tuple."""
    out = HalfLaurent(1)
    for m in mults:
        out = out * q_analog(m)
    return out


def _walk(ctype: CombinatorialType, root: tuple[Fraction, Fraction],
          lengths: dict[tuple[int, int], Fraction]
          ) -> dict[int, tuple[Fraction, Fraction]]:
    """Position of every internal vertex. The root vertex sits at `root`;
    each other one, parents first, lies beyond its parent by its edge's
    length times its clade's direction sum."""
    order, parent, clade = ctype.clades
    pos = {order[0]: root}
    for v in order[1:]:
        u = parent[v]
        _, sx, sy = clade[v]
        ln = lengths[(u, v) if u < v else (v, u)]
        x, y = pos[u]
        pos[v] = (x + ln * sx, y + ln * sy)
    return pos


def solve(ctype: CombinatorialType, mu: MomentVector) -> TropicalSolution | None:
    """Solve the moment constraints for one combinatorial type.

    Returns None when the type does not realize (some length negative),
    raises DegenerateType when the system is singular (a flat vertex) and
    NonGenericMoments when a length vanishes exactly. A determinant that is
    not the product of the vertex multiplicities raises TropicalError: it
    can only mean a bug in the matrix or the elimination. The curve's
    vertices are numbered as enumerate_types numbers its type.
    """
    _moment_count(len(_exactly("mu", mu, MomentVector)), ctype.n)
    mults = ctype.multiplicities()
    matrix = evaluation_matrix(ctype)
    det, x = _solve_exact(matrix, list(mu.values))
    if det == 0:
        raise DegenerateType("singular evaluation map (flat vertex)")
    if abs(det) != prod(mults.values()):
        raise TropicalError(
            f"determinant {det} is not the product of the vertex "
            f"multiplicities {mults}")
    lengths = {e: x[2 + i] for i, e in enumerate(ctype.bounded_edges)}
    if any(v < 0 for v in lengths.values()):
        return None
    if any(v == 0 for v in lengths.values()):
        raise NonGenericMoments("an edge length vanishes; resample moments")
    pos = _walk(ctype, (x[0], x[1]), lengths)
    _, parent, clade = ctype.clades
    splits, vertex_mults, coords = ([None] * len(mults) for _ in range(3))
    for v in ctype.internal_vertices:
        a, b = (clade[w][0] for w in ctype.adjacency[v] if w != parent[v])
        if b & -b < a & -a:
            a, b = b, a
        i = (b & -b).bit_length() - 3
        splits[i], vertex_mults[i], coords[i] = (a, b), mults[v], pos[v]
    scale = lcm(*(c.denominator for p in coords for c in p))
    points = tuple((int(px * scale), int(py * scale)) for px, py in coords)
    return TropicalSolution(ctype.leaf_dirs, mu, tuple(splits),
                            tuple(vertex_mults), points, scale)


class _SplitTable:
    """What the count needs of a degree that the moments do not touch.

    sx and sy hold the direction sums of every end set (a bitmask over ends
    1..n-1; end 0 is in none). A split S = A | B, where A holds the lowest
    end of S and d = wedge(n_A, n_B) is not 0, is a tuple (A, B, c, f_a,
    f_b): with f = scale / d and M_X the moment sum of X, its vertex lies at
    M_A * c - M_B * f_a along n_A and at M_A * f_b - M_B * c along n_B, so c
    is f * dot(n_A, n_B), f_a is f * |n_A|^2 and f_b is f * |n_B|^2.
    `splits` pairs each end set of two or more ends that has splits, in
    increasing order so that every set comes after the sets inside it, with
    its splits. No split is dead: each side is a single end or a set with
    splits of its own. `scale` is the lcm of every kept |d|. A side X is a
    single end exactly when X & (X - 1) is 0.
    """

    def __init__(self, dirs: tuple[Vec, ...]):
        n = len(dirs)
        sx = self.sx = _subset_sums([d.x for d in dirs[1:]])
        sy = self.sy = _subset_sums([d.y for d in dirs[1:]])
        # live[X]: X is a single end or has a row. Sides come before their
        # set in mask order, so one pass drops every dead row.
        live = bytearray(1 << n)
        for j in range(1, n):
            live[1 << j] = 1
        found = []
        for mask in range(2, 1 << n, 2):
            low = mask & -mask
            rest = sub = mask ^ low
            rows = []
            while sub:
                sub = (sub - 1) & rest
                a = low | sub
                b = mask ^ a
                d = sx[a] * sy[b] - sy[a] * sx[b]
                if d and live[a] and live[b]:
                    rows.append((a, b, d))
            if rows:
                live[mask] = 1
                found.append((mask, rows))
        self.scale = scale = lcm(1, *(abs(d) for _, rows in found
                                      for _, _, d in rows))
        self.splits = []
        for mask, rows in found:
            out = []
            for a, b, d in rows:
                f = scale // d
                xa, ya, xb, yb = sx[a], sy[a], sx[b], sy[b]
                out.append((a, b, f * (xa * xb + ya * yb),
                            f * (xa * xa + ya * ya), f * (xb * xb + yb * yb)))
            self.splits.append((mask, out))


_TABLES: WeakKeyDictionary[Degree, _SplitTable] = WeakKeyDictionary()


def _split_table(delta: Degree) -> _SplitTable:
    """The split table of delta, built on first use; it is dropped with the
    degree it was built for."""
    table = _TABLES.get(delta)
    if table is None:
        table = _TABLES[delta] = _SplitTable(delta.entries)
    return table


def _subset_sums(values: Sequence[int]) -> list[int]:
    """For each bitmask of ends 0..len(values), the sum of values[j - 1]
    over its ends j; end 0 adds nothing, so each sum is made once."""
    half = [0]
    for v in values:
        half += [s + v for s in half]
    out = [0] * (2 * len(half))
    out[::2] = out[1::2] = half
    return out


def _subtrees(placed_at: list, mask: int,
              start: int) -> list[tuple[tuple[int, int], ...]]:
    """The split tuples of the subtrees below the end set `mask` (of two or
    more ends) whose top split is placed at `start` or later and whose every
    split lies strictly past its parent's key: the subtrees with every
    length > 0. The count's placed rows are passed in, not closed over, so
    the recursion makes no reference cycle; each row's one split pair goes
    into every subtree through it.
    """
    out = []
    for _, split, along_a, along_b in placed_at[mask][start:]:
        a, b = split
        # a single end's side holds one empty subtree
        left = _side(placed_at, a, along_a) if a & (a - 1) else ((),)
        right = _side(placed_at, b, along_b) if b & (b - 1) else ((),)
        top = (split,)
        for lo in left:
            lo = top + lo
            for hi in right:
                out.append(lo + hi)
    return out


def _side(placed_at: list, x: int,
          along: int) -> list[tuple[tuple[int, int], ...]]:
    """The subtrees below the side x, of two or more ends, of a split whose
    vertex lies at `along` along n_x: `_subtrees` of x from its first
    placed row with key at or past `along`, which exists as the split was
    placed. The probe (along,) sorts before every row with that key, so an
    equal key there is a child on a zero-length edge, a wall, and raises
    NonGenericMoments."""
    rows = placed_at[x]
    i = bisect_left(rows, (along,))
    if rows[i][0] == along:
        raise NonGenericMoments("an edge length vanishes; resample moments")
    return _subtrees(placed_at, x, i)


def _moment_sums(mu: MomentVector) -> tuple[int, list[int]]:
    """mu's scale, the lcm of its denominators, and each end set's moment
    sum times it, from the integers mu holds (end 1's implied moment is
    never summed)."""
    return mu._scale, _subset_sums(mu._nums)


def _count(delta: Degree, mu: MomentVector) -> tuple[list[tuple], tuple, int]:
    """(splits, tally, point sets) of the curves through mu: each curve as
    the tuple of its split pairs, unordered, each placed row's one pair
    shared by every curve through it; each sorted multiplicity tuple with
    its number of curves; and the number of distinct vertex-point sets
    (equal point sets have equal sorted point ids). Raises NonGenericMoments
    on a wall: the backtracking meets a child split at its parent's key."""
    n = len(_exactly("delta", delta, Degree).entries)
    _three_ends(delta.entries)
    _at_most_max_ends(n)
    _moment_count(len(_exactly("mu", mu, MomentVector)), n)
    table = _split_table(delta)
    moment = _moment_sums(mu)[1]
    # per end set: its placed splits sorted by key, as tuples (key, (A, B),
    # along_a, along_b), and top, its largest key. By induction every
    # placed split has a subtree with every length >= 0 on each side, so a
    # child X has one below a vertex at x exactly when x <= top[X]. A single
    # end's top lies above every key and that of a set with nothing placed
    # below every key: these two floats are only ever compared with.
    size = 1 << n
    placed_at, top = [()] * size, [-inf] * size
    for j in range(1, n):
        top[1 << j] = inf
    for mask, rows in table.splits:
        placed = []
        for a, b, c, fa, fb in rows:
            ma, mb = moment[a], moment[b]
            along_a = ma * c - mb * fa
            if along_a > top[a]:
                continue
            along_b = ma * fb - mb * c
            if along_b > top[b]:
                continue
            placed.append((along_a + along_b, (a, b), along_a, along_b))
        if placed:
            placed.sort()
            placed_at[mask], top[mask] = placed, placed[-1][0]
    splits = _subtrees(placed_at, size - 2, 0)
    mult, place, _ = _vertices(table, moment, splits)
    tally, point_sets = {}, set()
    for found in splits:
        key = tuple(sorted(map(mult.__getitem__, found)))
        tally[key] = tally.get(key, 0) + 1
        point_sets.add(tuple(sorted(map(place.__getitem__, found))))
    return splits, tuple(tally.items()), len(point_sets)


def _vertices(table: _SplitTable, moment: list[int], chosen: list) -> tuple:
    """`mult`, each split's |d|, and `place`, the id of its vertex point,
    for the splits of `chosen`, each worked out once; `ids` numbers the
    points, at the count's common scale so that equal points are equal."""
    sx, sy, scale = table.sx, table.sy, table.scale
    mult, place, ids = {}, {}, {}
    for found in chosen:
        for split in found:
            if split not in mult:
                a, b = split
                xa, ya, xb, yb = sx[a], sy[a], sx[b], sy[b]
                d = xa * yb - ya * xb
                f = scale // d
                ma, mb = moment[a], moment[b]
                point = (ma * xb - xa * mb) * f, (ma * yb - ya * mb) * f
                mult[split] = abs(d)
                place[split] = ids.setdefault(point, len(ids))
    return mult, place, ids


def _curves(delta: Degree, mu: MomentVector,
            chosen: list) -> list[TropicalSolution]:
    """The records of a count's split tuples, in their order; the vertex of
    the split (A, B) is n + low(B) - 2, as enumerate_types inserts end
    low(B), the lowest end of B, there (the star's centre n takes end 2)."""
    table, (scale_mu, moment) = _split_table(delta), _moment_sums(mu)
    mult, place, ids = _vertices(table, moment, chosen)
    at, common, n = list(ids), scale_mu * table.scale, len(delta)
    curves = []
    for found in chosen:
        splits, mults, points = [()] * (n - 2), [0] * (n - 2), [()] * (n - 2)
        g = common
        for split in found:
            x, y = at[place[split]]
            i = (split[1] & -split[1]).bit_length() - 3
            splits[i], mults[i], points[i] = split, mult[split], (x, y)
            g = gcd(g, x, y)
        curves.append(TropicalSolution(
            delta.entries, mu, tuple(splits), tuple(mults),
            tuple([(x // g, y // g) for x, y in points]), common // g))
    return curves
