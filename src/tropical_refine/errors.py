"""Exception taxonomy shared across the package.

Everything mathematical that can go wrong derives from TropicalError so the
command line layer can catch one base class and emit a structured error
record. Plain ValueError/TypeError stay reserved for ordinary misuse of the
Python API (wrong argument shapes and the like).

A TypeError comes from one of two private checkers, `lattice._int` (exactly
an int, never a bool) and `lattice._exactly` (exactly a given class: a
HalfLaurent, a Degree or a MomentVector), each as "<name> is an int, got
<value>" or, say, "<name> is a HalfLaurent, got <value>";
from `lattice.as_fraction`, the one exact-rational check; or from the shape
checks of the `Vec` and `HalfLaurent` constructors.
`tests/test_source.py` pins these sites.
"""

from __future__ import annotations


class TropicalError(Exception):
    """Base class for all domain errors raised by this package.

    Keyword arguments become attributes, so that an error can carry the
    data needed to reproduce it.
    """

    def __init__(self, *args, **data):
        super().__init__(*args)
        self.__dict__.update(data)


class DegenerateDegree(TropicalError, ValueError):
    """Degree that cannot bound a curve: a zero entry, entries that do not
    sum to zero, or all directions on one line (no 2d polygon)."""


class InsufficientMultiplicity(TropicalError):
    """Degree surgery asked to pair off more ends than are available."""


class LengthMismatch(TropicalError, ValueError):
    """A moment list does not match its number of ends; also a ValueError."""


class NonPositive(TropicalError, ValueError):
    """Quantum integer [a] requested for a < 1."""


class NotDivisible(TropicalError):
    """Exact Laurent division left a remainder.

    The offending remainder is kept on the exception so callers can report
    how far from divisible the input was.
    """

    remainder = None


class TooFewEnds(TropicalError):
    """Tree enumeration needs at least three labeled ends."""


class DegenerateType(TropicalError):
    """Combinatorial type whose evaluation matrix is singular.

    Happens exactly when some vertex is flat (multiplicity zero); such a type
    never contributes an isolated solution and is skipped by counts.
    """


class NonGenericMoments(TropicalError):
    """A solve landed on a wall: some edge length came out exactly zero."""


class MenelausViolation(TropicalError):
    """A full moment vector whose entries do not sum to zero; no curve of any
    degree can realize it."""


class ExhaustedRetries(TropicalError):
    """Rejection sampling failed to find a generic moment vector in time;
    `reasons` says why each attempt was rejected, in order ("wall" or
    "coincident curves")."""


class InvarianceViolation(TropicalError):
    """Two generic moment vectors produced different refined counts.

    This is a bug detector: the refined count is a theorem-level invariant,
    so unequal values mean the implementation (not the input) is wrong.
    `trials` holds the two disagreeing TrialRecords, which keep their
    seeds, splits and tallies and build their curves when first read.
    """


class FlatVertex(TropicalError):
    """A vertex with collinear outgoing slopes where a simple one is required."""


class OutOfRange(TropicalError, ValueError):
    """Index outside its admissible window (e.g. coamoeba sheet index)."""


class OddQuadMultiplicity(TropicalError):
    """Quadrivalent splitting vertex with odd multiplicity; cannot happen for
    genuine weight-2 splits and indicates inconsistent input data."""


class InadmissibleSet(TropicalError):
    """Splitting points that fail the antichain/coverage conditions."""


class MultipleDivisors(TropicalError):
    """Even ends point in more than one direction; the unique maximal
    splitting is only defined when they share a divisor."""
