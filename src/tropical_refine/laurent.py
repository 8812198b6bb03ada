"""Integer Laurent polynomials in q^(1/2).

Elements are stored sparsely as {half_exponent: coefficient} where the key
counts half-units: the monomial q^(k/2) is stored under key k. Working in
w = q^(1/2) keeps every exponent an integer, so arithmetic never leaves Z.
The rendering layer is the only place halves reappear.

The quantum integer [a] = (q^(a/2) - q^(-a/2)) / (q^(1/2) - q^(-1/2)) is the
building block of refined multiplicities; products of quantum integers are
symmetric under q -> 1/q and evaluate at q=1 to ordinary integers.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import Iterable, Iterator, Mapping

from .errors import NonPositive, NotDivisible
from .lattice import Record, _int


def _operand(method):
    """`method` with its operand made a HalfLaurent: an int becomes a
    constant, and any other type (a bool too) gets NotImplemented."""
    @functools.wraps(method)
    def operator(self, other):
        if type(other) is int:
            other = HalfLaurent(other)
        elif not isinstance(other, HalfLaurent):
            return NotImplemented
        return method(self, other)
    return operator


class HalfLaurent(Record):
    """Immutable sparse Laurent polynomial in w = q^(1/2) over Z. A `Record`
    for the guards, repr and pickling; a constant equals, and hashes as, its
    int."""

    __slots__ = ("_c",)

    def __init__(self, coeffs: Mapping[int, int] | int):
        # type(...) is int: a bool is an int to isinstance, not to JSON
        if type(coeffs) is int:
            coeffs = {0: coeffs}
        elif not isinstance(coeffs, Mapping):
            raise TypeError("a HalfLaurent is built from an int or a mapping")
        for k, c in coeffs.items():
            if type(k) is not int or type(c) is not int:
                raise TypeError("exponents and coefficients must be integers")
        object.__setattr__(self, "_c", {k: c for k, c in coeffs.items() if c})

    @classmethod
    def _of(cls, coeffs: dict[int, int]) -> "HalfLaurent":
        """An arithmetic result in a dict its caller built and lets go of,
        with int keys and coefficients: kept, or copied to drop zeros."""
        if 0 in coeffs.values():
            coeffs = {k: c for k, c in coeffs.items() if c}
        self = object.__new__(cls)
        object.__setattr__(self, "_c", coeffs)
        return self

    # -- constructors ------------------------------------------------------

    @classmethod
    def monomial(cls, half_exp: int) -> "HalfLaurent":
        """q^(half_exp / 2)."""
        return cls({half_exp: 1})

    @classmethod
    def q_power(cls, exp: int) -> "HalfLaurent":
        """q^exp for a whole exponent."""
        return cls({2 * _int("exp", exp): 1})

    # -- inspection --------------------------------------------------------

    def coeff(self, half_exp: int) -> int:
        return self._c.get(_int("an exponent", half_exp), 0)

    def items(self) -> Iterator[tuple[int, int]]:
        """(half_exponent, coefficient) pairs, descending by exponent."""
        return iter(sorted(self._c.items(), reverse=True))

    def support(self) -> tuple[int, ...]:
        return tuple(sorted(self._c))

    def __bool__(self) -> bool:
        return bool(self._c)

    @_operand
    def __eq__(self, other) -> bool:
        return self._c == other._c

    def __hash__(self):
        # a constant, whose one key if it has one is 0, hashes as its int
        if len(self._c) == (0 in self._c):
            return hash(self._c.get(0, 0))
        return hash(frozenset(self._c.items()))

    # -- ring operations ---------------------------------------------------

    @_operand
    def __add__(self, other):
        d = dict(self._c)
        for k, c in other._c.items():
            d[k] = d.get(k, 0) + c
        return HalfLaurent._of(d)

    __radd__ = __add__

    def __neg__(self):
        return HalfLaurent._of({k: -c for k, c in self._c.items()})

    @_operand
    def __sub__(self, other):
        return self + (-other)

    @_operand
    def __rsub__(self, other):
        return other - self

    @_operand
    def __mul__(self, other):
        d: dict[int, int] = {}
        for k1, c1 in self._c.items():
            for k2, c2 in other._c.items():
                k = k1 + k2
                d[k] = d.get(k, 0) + c1 * c2
        return HalfLaurent._of(d)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if _int("an exponent", n) < 0:
            raise ValueError("only nonnegative integer powers")
        out = HalfLaurent(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- the operations the invariants need --------------------------------

    def exact_div(self, den: "HalfLaurent") -> "HalfLaurent":
        """Exact quotient in Z[q^(1/2), q^(-1/2)].

        Raises NotDivisible (carrying the remainder) if den does not divide
        self over the integers.
        """
        if type(den) is int:
            den = HalfLaurent(den)
        if not _poly("a divisor", den):
            raise ZeroDivisionError("division by the zero polynomial")
        if not self:
            return HalfLaurent(0)
        nlo, nhi = min(self._c), max(self._c)
        dlo, dhi = min(den._c), max(den._c)
        # dense coefficient lists of self * w^-nlo and den * w^-dlo
        num = [Fraction(self._c.get(k, 0)) for k in range(nlo, nhi + 1)]
        div = [den._c.get(k, 0) for k in range(dlo, dhi + 1)]
        if len(num) < len(div):
            raise NotDivisible("denominator has larger span", remainder=self)
        lead = div[-1]
        quot = [Fraction(0)] * (len(num) - len(div) + 1)
        for i in range(len(quot) - 1, -1, -1):
            c = num[i + len(div) - 1] / lead
            quot[i] = c
            if c:
                for j, dj in enumerate(div):
                    num[i + j] -= c * dj
        if any(num):
            rem = HalfLaurent._of({nlo + i: int(c) for i, c in enumerate(num)
                                   if c.denominator == 1})
            # a fractional remainder still means "not divisible"; report the
            # integer part of what is left for diagnostics
            raise NotDivisible("division leaves a remainder", remainder=rem)
        if any(c.denominator != 1 for c in quot):
            raise NotDivisible("quotient is not integral", remainder=HalfLaurent(0))
        shift = nlo - dlo
        return HalfLaurent._of({shift + i: int(c) for i, c in enumerate(quot)})

    def eval_q1(self) -> int:
        """Value at q = 1 (the classical specialization): sum of coefficients."""
        return sum(self._c.values())

    def is_symmetric(self) -> bool:
        """True when invariant under q -> 1/q (palindromic coefficients).

        The test-time check of the q -> 1/q symmetry of N and BG; no
        computation of the package calls it."""
        return all(self._c.get(-k, 0) == c for k, c in self._c.items())

    # -- presentation ------------------------------------------------------

    def __str__(self) -> str:
        if not self._c:
            return "0"
        parts: list[str] = []
        for k, c in self.items():
            mag = abs(c)
            if k == 0:
                body = str(mag)
            else:
                if k % 2 == 0:
                    e = k // 2
                    name = "q" if e == 1 else f"q^{e}"
                else:
                    name = f"q^{k}/2"
                body = name if mag == 1 else f"{mag}*{name}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def identity(self) -> tuple:
        return (self._c,)

    def to_json_pairs(self) -> list[list[int]]:
        """[[half_exponent, coeff], ...] sorted by descending exponent."""
        return [[k, c] for k, c in self.items()]

    @classmethod
    def from_json_pairs(cls, pairs) -> "HalfLaurent":
        d: dict[int, int] = {}
        for k, c in pairs:
            # checked as read: the sum keeps the first of equal keys, so a
            # later 1.0 or True would hide behind an int 1
            _int("an exponent", k)
            d[k] = d.get(k, 0) + _int("a coefficient", c)
        return cls(d)


def _poly(name: str, value) -> HalfLaurent:
    """value, when it is exactly a HalfLaurent; else TypeError naming the
    argument."""
    if type(value) is not HalfLaurent:
        raise TypeError(f"{name} is a HalfLaurent, got {value!r}")
    return value


def linear_combination(
        terms: Iterable[tuple[HalfLaurent, int]]) -> HalfLaurent:
    """The sum of count * poly over (poly, count) pairs: the sum that `+`
    and `*` give term by term, built in one dict with no polynomial in
    between. Each count is an int."""
    out: dict[int, int] = {}
    get = out.get
    for poly, count in terms:
        _int("a count", count)
        for k, c in _poly("a term", poly)._c.items():
            out[k] = get(k, 0) + c * count
    return HalfLaurent._of(out)


def q_analog(a: int) -> HalfLaurent:
    """The quantum integer [a] = q^((a-1)/2) + q^((a-3)/2) + ... + q^(-(a-1)/2)."""
    if _int("a", a) < 1:
        raise NonPositive(f"quantum integer needs a >= 1, got {a}")
    return HalfLaurent({k: 1 for k in range(-(a - 1), a, 2)})


def w_pow_minus_inverse(a: int) -> HalfLaurent:
    """q^(a/2) - q^(-a/2), the numerator of the quantum integer [a]."""
    if _int("a", a) < 1:
        raise NonPositive(f"need a >= 1, got {a}")
    return HalfLaurent({a: 1, -a: -1})
