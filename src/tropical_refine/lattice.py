"""Lattice vectors, toric degrees and their dual polygons, moment vectors.

Conventions used throughout the package:

* the ambient lattice is Z^2 and the symplectic pairing is the determinant,
  ``wedge(u, v) = u.x*v.y - u.y*v.x``;
* a *degree* is an ordered list of nonzero integer vectors summing to zero,
  one per labeled unbounded end of a curve; the weight of an end is the
  lattice length (gcd of coordinates) of its vector, so weight-2 ends are
  simply non-primitive entries such as (-2, 0);
* the *moment* of an end with direction n passing through a point p is
  wedge(n, p); the moments of all ends of a curve sum to zero (the tropical
  Menelaus relation), so a constraint vector only ever stores the moments of
  ends 2..n and end 1 is implied;
* a constraint vector holds its moments as integers over the lcm of their
  denominators, the form the count reads. Given values keep their
  Fractions; a seeded draw's integer pairs (`_moments_of_pairs`) make none
  until `values` is first read, by CLI output, `solve` or equality;
* each end rule every count rests on has one checker here, which degrees,
  trees and the real side share: 3 to MAX_ENDS ends, a zero sum, weight 1
  or 2, even ends on one divisor, not all on a line, one moment per end.

Records are `NamedTuple`s (`LatticePolygon`) or `Record`s (`Degree`,
`MomentVector` and the package's other small immutable classes), because
every CLI command starts a fresh process: the standard library's record
decorator imports `inspect`, `ast` and `dis` and compiles methods for each
class it decorates, close to 20 ms of a cold command.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, NamedTuple, Sequence

from .errors import (DegenerateDegree, InsufficientMultiplicity, LengthMismatch,
                     MultipleDivisors, OutOfRange, TooFewEnds)


def _int(name: str, value):
    """value, when it is exactly an int; else TypeError naming the argument.

    type(...) is int: a bool is an int to isinstance, not to JSON."""
    if type(value) is not int:
        raise TypeError(f"{name} is an int, got {value!r}")
    return value


def _exactly(name: str, value, cls):
    """value, when its type is exactly cls; else TypeError naming the
    argument."""
    if type(value) is not cls:
        raise TypeError(f"{name} is a {cls.__name__}, got {value!r}")
    return value


class Vec(tuple):
    """An integer lattice vector.

    Subclasses tuple for cheap hashing/equality but overrides arithmetic so
    that + and - are componentwise rather than concatenation.
    """

    __slots__ = ()

    def __new__(cls, x, y):
        # type(...) is int: a bool is an int to isinstance, not to JSON
        if type(x) is not int or type(y) is not int:
            raise TypeError("lattice vectors need integer coordinates")
        return tuple.__new__(cls, (x, y))

    def __getnewargs__(self):
        # pickle and copy rebuild a vector from its two coordinates
        return self[0], self[1]

    @property
    def x(self) -> int:
        return self[0]

    @property
    def y(self) -> int:
        return self[1]

    def __add__(self, other):
        return Vec(self[0] + other[0], self[1] + other[1])

    def __sub__(self, other):
        return Vec(self[0] - other[0], self[1] - other[1])

    def __neg__(self):
        return Vec(-self[0], -self[1])

    def scale(self, k: int) -> "Vec":
        return Vec(k * self[0], k * self[1])

    def __repr__(self):
        return f"Vec({self[0]}, {self[1]})"


ZERO = Vec(0, 0)


def wedge(u, v) -> int:
    """Determinant pairing of two lattice vectors (also their moment form)."""
    return u[0] * v[1] - u[1] * v[0]


def lattice_length(v) -> int:
    """gcd of |x|, |y|; the integer length (weight) of a lattice vector."""
    return gcd(abs(v[0]), abs(v[1]))


def primitive(v) -> Vec:
    """The primitive vector on the same ray."""
    g = lattice_length(v)
    if g == 0:
        raise ValueError("zero vector has no direction")
    return Vec(v[0] // g, v[1] // g)


def _three_ends(dirs: Sequence) -> None:
    if len(dirs) < 3:
        raise TooFewEnds(f"a curve needs at least 3 ends, got {len(dirs)}")


MAX_ENDS = 16   # 5 157 849 split-table rows, a 1659 MiB peak, at 16 ends


def _at_most_max_ends(n: int) -> None:
    if n > MAX_ENDS:
        raise OutOfRange(f"a count of {n} ends is past the bound of "
                         f"{MAX_ENDS}: its table would not fit in memory")


def _balanced(dirs: Iterable) -> None:
    """The ends `dirs` sum to zero, as the ends of every curve do."""
    total = tuple(map(sum, zip((0, 0), *dirs)))
    if total != (0, 0):
        raise DegenerateDegree(f"degree entries must sum to zero, got {total}")


def _end_weight(v) -> int:
    """The weight of the end v when it is 1 or 2; else ValueError."""
    w = lattice_length(v)
    if w not in (1, 2):
        raise ValueError(f"end of weight {w} not supported, only 1 and 2")
    return w


def _moment_count(k: int, n: int) -> None:
    """k moments given for n ends: one moment per end."""
    if k != n:
        raise LengthMismatch(f"{k} moments for a degree with {n} ends")


def _one_divisor(dirs: Iterable) -> None:
    """The weight-2 ends `dirs` are parallel, as the theorem needs."""
    k = len(set(map(primitive, dirs)))
    if k > 1:
        raise MultipleDivisors(
            f"even ends span {k} directions, need exactly one")


def _spans_plane(dirs: Iterable) -> None:
    """Nonzero ends summing to zero lie on one line exactly when they have
    fewer than 3 primitive directions."""
    if len(set(map(primitive, dirs))) < 3:
        raise DegenerateDegree("all directions lie on one line")


def rot90(v) -> Vec:
    """Counterclockwise quarter turn."""
    return Vec(-v[1], v[0])


def angle_cmp(u, v) -> int:
    # counterclockwise order starting just above the positive x-axis
    def half(w):
        return 0 if (w[1] > 0 or (w[1] == 0 and w[0] > 0)) else 1

    hu, hv = half(u), half(v)
    if hu != hv:
        return -1 if hu < hv else 1
    w = wedge(u, v)
    if w > 0:
        return -1
    if w < 0:
        return 1
    return 0


def _entry(e: Sequence[int]) -> Vec:
    """The one check of a degree entry: a list or tuple of two ints."""
    if not (isinstance(e, (list, tuple)) and len(e) == 2
            and type(e[0]) is int and type(e[1]) is int):
        raise ValueError(f"a degree entry is a pair of integers, got {e!r}")
    return Vec(e[0], e[1])


class Record:
    """An immutable record: each field stored once with `object.__setattr__`
    by its constructor (a lazy one when first derived), then neither set nor
    deleted; equal, hashed and shown by its class and `identity()`, and
    pickled or copied as a call of its constructor on `identity()`."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        return type(self), self.identity()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.identity() == other.identity()

    def __hash__(self):
        return hash(self.identity())

    def __repr__(self):
        fields = ", ".join(map(repr, self.identity()))
        return f"{type(self).__name__}({fields})"


class Degree(Record):
    """Ordered multiset of end directions; the label of an end is its index.

    Equal and hashed by (entries, name), so equal degrees share one split
    table in the solver. A name, if given, is a string.
    """

    def __init__(self, entries: Iterable[Sequence[int]],
                 name: str | None = None):
        ents = tuple(map(_entry, entries))
        if name is not None and not isinstance(name, str):
            raise ValueError(f"a degree name is a string, got {name!r}")
        if any(e == ZERO for e in ents):
            raise DegenerateDegree("degree entries must be nonzero")
        _balanced(ents)
        object.__setattr__(self, "entries", ents)
        object.__setattr__(self, "name", name)

    def identity(self) -> tuple:
        return self.entries, self.name

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def weights(self) -> tuple[int, ...]:
        return tuple(lattice_length(e) for e in self.entries)

    def is_primitive(self) -> bool:
        return all(w == 1 for w in self.weights())

    @functools.cached_property
    def _split_even_ends(self) -> tuple["Degree", int]:
        """split_even_ends(self), derived once per degree object and kept."""
        ends = [(_end_weight(e), primitive(e)) for e in self]
        out = [p for w, p in ends for _ in range(w)]
        even = [p for w, p in ends if w == 2]
        _one_divisor(even)
        _spans_plane(out)
        # a new record even for s = 0: self in its own cache is a cycle
        return Degree(tuple(out), name=None if even else self.name), len(even)

    def to_json(self) -> dict:
        d: dict = {"entries": [[e.x, e.y] for e in self.entries]}
        if self.name is not None:
            d["name"] = self.name
        return d

    @classmethod
    def from_json(cls, data: dict) -> "Degree":
        """The inverse of to_json: integer "entries" and, optionally, a
        string "name", and no other key; anything else raises ValueError
        naming the bad value or key."""
        entries = data.get("entries") if isinstance(data, dict) else None
        if not isinstance(entries, (list, tuple)):
            raise ValueError(
                f'a degree is {{"entries": [[x, y], ...]}}, got {data!r}')
        extra = [key for key in data if key not in ("entries", "name")]
        if extra:
            raise ValueError(f"a degree has no key {extra[0]!r}")
        return cls(entries, name=data.get("name"))


def delta_d(d: int) -> Degree:
    """The standard projective degree d: each of (-1,0), (0,-1), (1,1) taken
    d times."""
    if _int("d", d) < 1:
        raise ValueError("d must be positive")
    ents = (Vec(-1, 0),) * d + (Vec(0, -1),) * d + (Vec(1, 1),) * d
    return Degree(ents, name=f"delta_{d}")


def build_delta_s(delta: Degree, n1: Vec, s: int) -> Degree:
    """Replace 2s copies of the primitive direction n1 by s doubled ends.

    The first 2s entries equal to n1 are removed (remaining labels compact to
    the left, preserving order) and s copies of 2*n1 are appended at the end.
    """
    _int("s", s)
    n1 = Vec(n1[0], n1[1])
    if lattice_length(n1) != 1:
        raise ValueError("n1 must be primitive")
    if s < 0:
        raise ValueError("s must be nonnegative")
    if not delta.is_primitive():
        raise ValueError("degree surgery starts from a primitive degree")
    available = sum(1 for e in delta.entries if e == n1)
    if available < 2 * s:
        raise InsufficientMultiplicity(
            f"need {2 * s} ends of direction {tuple(n1)}, degree has {available}")
    kept: list[Vec] = []
    removed = 0
    for e in delta.entries:
        if e == n1 and removed < 2 * s:
            removed += 1
        else:
            kept.append(e)
    kept.extend(n1.scale(2) for _ in range(s))
    name = None
    if delta.name is not None:
        name = f"{delta.name}({s})" if s else delta.name
    return Degree(tuple(kept), name=name)


def split_even_ends(delta_s: Degree) -> tuple[Degree, int]:
    """Undo weight-2 surgery: return the primitive parent degree and s.
    The parent keeps delta_s's name only when s = 0, where the two are equal.

    Each weight-2 entry 2*n becomes two consecutive copies of n; weight-1
    entries pass through. Entries of weight > 2 are rejected (`_end_weight`),
    and so are weight-2 ends of more than one direction (`_one_divisor`)
    and ends on one line (`_spans_plane`), which bound no curve.
    """
    return delta_s._split_even_ends


class LatticePolygon(NamedTuple):
    """Convex lattice polygon, vertices counterclockwise, anchored so the
    lexicographically smallest vertex sits at the origin and comes first."""

    vertices: tuple[Vec, ...]

    def area2(self) -> int:
        """Twice the area (shoelace)."""
        vs = self.vertices
        return sum(wedge(vs[i], vs[(i + 1) % len(vs)]) for i in range(len(vs)))

    def sides(self) -> list[tuple[Vec, Vec]]:
        """List of (start vertex, edge vector) pairs in ccw order."""
        vs = self.vertices
        return [(vs[i], vs[(i + 1) % len(vs)] - vs[i]) for i in range(len(vs))]


def _anchor(vertices: Sequence[Vec]) -> tuple[Vec, ...]:
    lo = min(vertices)
    i = vertices.index(lo)
    rotated = tuple(vertices[i:]) + tuple(vertices[:i])
    return tuple(v - lo for v in rotated)


def polygon_of(delta: Degree) -> LatticePolygon:
    """Dual polygon of a degree: each distinct primitive direction becomes an
    outward normal whose side has the summed weight as lattice length."""
    _spans_plane(delta.entries)
    weight_by_normal: dict[Vec, int] = {}
    for e in delta.entries:
        weight_by_normal.setdefault(primitive(e), 0)
        weight_by_normal[primitive(e)] += lattice_length(e)
    normals = sorted(weight_by_normal, key=functools.cmp_to_key(angle_cmp))
    verts: list[Vec] = [ZERO]
    for n in normals[:-1]:
        verts.append(verts[-1] + rot90(n).scale(weight_by_normal[n]))
    return LatticePolygon(_anchor(verts))


def normals_of(poly: LatticePolygon) -> Degree:
    """Primitive outward normals with side-length multiplicity, canonically
    ordered. Inverse to polygon_of on canonicalized primitive degrees."""
    ents: list[Vec] = []
    for _, side in poly.sides():
        g = lattice_length(side)
        p = primitive(side)
        ents.extend([Vec(p.y, -p.x)] * g)
    return Degree(tuple(sorted(ents)))


def as_fraction(value) -> Fraction:
    """Accept Fraction (returned as it is: it is immutable), int (not
    bool), or a 'p/q' string; a zero denominator raises ValueError."""
    if type(value) is Fraction:
        return value
    if isinstance(value, (Fraction, int, str)) and type(value) is not bool:
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise ValueError(f"{value!r} has a zero denominator") from None
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def _over_lcm(pairs: list[tuple[int, int]]) -> tuple[int, tuple[int, ...]]:
    """For the moments p/q of int pairs (p, q) with q > 0: the lcm of their
    denominators in lowest terms (0/q has 1), and each moment times it."""
    scale = lcm(*[q // gcd(p, q) for p, q in pairs])
    return scale, tuple([p * scale // q for p, q in pairs])


class MomentVector(Record):
    """Moments of ends 2..n; the moment of end 1 is forced by Menelaus.

    Held for the count as integers over one scale: `_scale`, the lcm of the
    moments' denominators in lowest terms, and `_nums`, each moment times
    it. `values`, the moments as Fractions, are kept as given here; a
    vector `_moments_of_pairs` builds makes them when they are first read.
    Equal and hashed by its values.
    """

    def __init__(self, values: Iterable):
        vals = tuple(map(as_fraction, values))
        scale, nums = _over_lcm([(v.numerator, v.denominator) for v in vals])
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "_scale", scale)
        object.__setattr__(self, "_nums", nums)

    @functools.cached_property
    def values(self) -> tuple[Fraction, ...]:
        """The moments as Fractions, made from the integers if not given."""
        return tuple([Fraction(x, self._scale) for x in self._nums])

    def identity(self) -> tuple:
        return (self.values,)

    @property
    def implied_first(self) -> Fraction:
        return -sum(self.values, Fraction(0))

    def full(self) -> tuple[Fraction, ...]:
        return (self.implied_first,) + self.values

    def __len__(self) -> int:
        return len(self._nums) + 1


def _moments_of_pairs(pairs: list[tuple[int, int]]) -> MomentVector:
    """The moments p/q of int pairs (p, q) with q > 0, held as
    `MomentVector(values)` holds them but built with no Fraction: `values`
    are made when first read. The seeded draw's constructor, so a count
    through drawn moments does no Fraction arithmetic."""
    mu = object.__new__(MomentVector)
    scale, nums = _over_lcm(pairs)
    object.__setattr__(mu, "_scale", scale)
    object.__setattr__(mu, "_nums", nums)
    return mu


def frac_str(value) -> str:
    """Lossless text form of a rational: "3", "-7/2"."""
    return str(as_fraction(value))


def menelaus_sum(full_moments: Iterable, delta: Degree) -> Fraction:
    """Sum of a full moment list; zero for any actual curve of this degree."""
    vals = [as_fraction(v) for v in full_moments]
    _moment_count(len(vals), len(delta))
    return sum(vals, Fraction(0))
