"""Refined curve counts and the real invariant derived from them: the
counting math only, as `cli` builds every command's payload.

The refined count N of a degree is the sum, over all parametrized curves
through a generic boundary-moment constraint, of the product of quantum
integers [m_V] over their vertices. The theorem this package is built around
says that for a degree with s weight-2 ends obtained by pairing off 2s
primitive ends of an m-end primitive degree, the real refined invariant is

    R = (q^(1/2) - q^(-1/2))^(m-2-s)  / (q - q^(-1))^s        * N
      = (q^(1/2) - q^(-1/2))^(m-2-2s) / (q^(1/2) + q^(-1/2))^s * N

and both divisions are exact. With w = q^(1/2), q - 1/q = (w - 1/w)(w + 1/w),
so R and the Broccoli normalization BG are multiples of the one quotient
T = N / (w + 1/w)^s, the only division `_r_and_bg` makes:
R = T * (w - 1/w)^(m-2-2s) and BG = T * (q + 1/q)^s. Z[w, 1/w] is a UFD in
which w + 1/w is coprime to w - 1/w, so either form of R is exact exactly
when T is, and then they agree. A nonzero remainder can only mean an
implementation bug.

`r_from_n` and `invariance_audit` both take R and BG from N through
`_theorem`, which checks its arguments and then looks up the one division
memoised per (N, m, s) (`_r_and_bg`). The trials of an audit agree on N, so
a degree's first audit divides once, whatever its number of trials, and a
repeat audit or `r_from_n` of a seen N divides not at all.

A count becomes N in one place, its `TrialRecord`, which tallies the
count's sorted multiplicity tuples and sums N in one pass
(`laurent.linear_combination`): each tuple's product [m_V] times the
number of curves that carry it, not one addition per curve. It builds its
curve records only when they are first read, so an audit builds none.

Generic constraints are drawn from a fixed portable generator (SplitMix64)
so that every run of a given seed is reproducible down to the byte. N and
sampling read the count's splits alone.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from collections import Counter
from typing import Iterable, NamedTuple

from .errors import (DegenerateType, ExhaustedRetries, InvarianceViolation,
                     NonGenericMoments)
from .lattice import (Degree, MomentVector, Record, _int, frac_str,
                      split_even_ends)
from .laurent import (HalfLaurent, _poly, linear_combination,
                      w_pow_minus_inverse)
from .solver import TropicalSolution, _count, _curves, _q_product, solve
from .trees import enumerate_types

_MASK64 = (1 << 64) - 1
MAX_ATTEMPTS = 64                           # moment draws per seed
W_MINUS = w_pow_minus_inverse(1)            # q^(1/2) - q^(-1/2)
W_PLUS = HalfLaurent({1: 1, -1: 1})         # q^(1/2) + q^(-1/2)
Q_PLUS = HalfLaurent({2: 1, -2: 1})         # q + q^(-1)


class SplitMix64:
    """Tiny portable 64-bit generator (public-domain mixing constants).

    Chosen because it is specified by ten lines of integer arithmetic, so the
    seeded moment recipe can be reproduced in any language.
    """

    def __init__(self, seed: int):
        self.state = _int("seed", seed) & _MASK64

    def next_u64(self) -> int:
        self.state = z = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)


def moment_from_draw(draw: int) -> Fraction:
    """One pseudorandom moment: numerator in [-1000, 1000], denominator in
    [1, 7], both taken from the same 64-bit draw."""
    return Fraction(draw % 2001 - 1000, 1 + draw % 7)


def _n_from_mults(tally: Iterable[tuple[tuple, int]]) -> HalfLaurent:
    """N from (sorted multiplicity tuple, number of curves) pairs: each
    tuple's product [m_V] times its number, summed in one pass."""
    return linear_combination((_q_product(tup), count)
                              for tup, count in tally)


def refined_count(delta_s: Degree,
                  mu: MomentVector) -> tuple[HalfLaurent, list[TropicalSolution]]:
    """N and the curves through mu in enumerate_types order, read from
    the TrialRecord of mu, as `sample_trial` builds it but with no
    coincidence check: equal to `refined_count_brute`, and raising
    NonGenericMoments exactly when it does."""
    trial = TrialRecord(None, mu, delta_s)
    return trial.n_trop, list(trial.solutions)


def refined_count_brute(
        delta_s: Degree,
        mu: MomentVector) -> tuple[HalfLaurent, list[TropicalSolution]]:
    """refined_count by solving each of the (2n-5)!! types from
    enumerate_types on its own; the reference the fast path is tested
    against. Degenerate (flat) types are skipped, as they never carry
    isolated solutions."""
    solutions = []
    for ctype in enumerate_types(delta_s):
        try:
            sol = solve(ctype, mu)
        except DegenerateType:
            continue
        if sol is not None:
            solutions.append(sol)
    return _n_from_mults(Counter(tuple(sorted(sol.mults))
                                 for sol in solutions).items()), solutions


def sample_trial(delta_s: Degree, seed: int) -> TrialRecord:
    """Seeded generic moments for ends 2..n and the count that accepted them.

    A candidate is rejected when some type solves onto a wall (zero length)
    or two curves coincide as point sets. Raises ExhaustedRetries, with the
    reason for every rejection, after MAX_ATTEMPTS candidates. The
    TrialRecord of the accepted count keeps its splits, tally and N, as
    `refined_count`'s does; an audit takes R and BG from it. No curve
    record and no tree is built here.

    The coincident-curve guard has never fired: not in a census of 24 000
    draws on eight degrees of 5 to 11 ends (52 walls), and not on stretched
    draws, proven off every wall, on 11 degrees of up to 15 ends. It stays
    until an argument shows that two distinct curves through generic
    moments cannot share their vertex points.
    """
    stream = SplitMix64(seed)
    n = len(delta_s)
    reasons = []
    for _ in range(MAX_ATTEMPTS):
        mu = MomentVector(moment_from_draw(stream.next_u64())
                          for _ in range(n - 1))
        try:
            trial = TrialRecord(seed, mu, delta_s)
        except NonGenericMoments:
            reasons.append("wall")
            continue
        if trial.point_sets != trial.count:
            reasons.append("coincident curves")
            continue
        return trial
    counts = ", ".join(f"{reasons.count(r)} {r}"
                       for r in dict.fromkeys(reasons))
    raise ExhaustedRetries(f"no generic moments for seed {seed} in "
                           f"{MAX_ATTEMPTS} attempts ({counts})",
                           reasons=reasons)


def random_generic_moments(delta_s: Degree, seed: int) -> MomentVector:
    """The moments of sample_trial(delta_s, seed); the count that accepted
    them is discarded."""
    return sample_trial(delta_s, seed).moments


def _check_theorem_args(m: int, s: int) -> None:
    _int("m", m)
    _int("s", s)
    if s < 0:
        raise ValueError(f"s counts weight-2 ends, got {s}")
    if m < 3:
        raise ValueError(f"m counts the ends of a curve, at least 3, got {m}")
    if m - 2 * s < 2:
        raise ValueError(f"s = {s} weight-2 ends pair off 2s = {2 * s} of "
                         f"the m = {m} ends and leave {m - 2 * s}, but the "
                         f"rest sum to -2s n1, which takes two or more")


def _theorem(n_trop: HalfLaurent, m: int,
             s: int) -> tuple[HalfLaurent, HalfLaurent]:
    """(R, BG) from N, by the division `_r_and_bg` memoises. The arguments
    are checked before the lookup, so no answer depends on what ran
    earlier: an int N or a bool m would otherwise hit the key of an equal
    HalfLaurent or int."""
    _check_theorem_args(m, s)
    return _r_and_bg(_poly("N", n_trop), m, s)


@functools.cache
def _r_and_bg(n_trop: HalfLaurent, m: int,
              s: int) -> tuple[HalfLaurent, HalfLaurent]:
    """(R, BG) from N by one exact division, made once per (N, m, s): the
    quotient T = N / (w + 1/w)^s gives R = T * (w - 1/w)^(m-2-2s) and
    BG = T * (q + 1/q)^s."""
    quot = n_trop.exact_div(W_PLUS ** s)
    return quot * W_MINUS ** (m - 2 - 2 * s), quot * Q_PLUS ** s


def r_from_n(n_trop: HalfLaurent, m: int, s: int) -> HalfLaurent:
    """Real refined invariant from the refined count, by one exact division
    made once per (N, m, s).

    m is the number of ends of the primitive parent degree, s the number of
    weight-2 ends. Both theorem forms give this R (see the module
    docstring). NotDivisible here is fatal: it falsifies the theorem for the
    computed N, i.e. reveals a bug upstream.
    """
    return _theorem(n_trop, m, s)[0]


def broccoli_from_r(r: HalfLaurent, m: int, s: int) -> HalfLaurent:
    """Broccoli-normalized invariant: R = BG * (w - 1/w)^(m-2-2s) / (q + 1/q)^s.

    For s = 0 this is the refined count itself. BG is R * (q + 1/q)^s
    divided by (w - 1/w)^(m-2-2s). Equal to the BG of invariance_audit, which
    takes it from N's quotient, as it takes R. An R that is not a
    HalfLaurent raises TypeError before any arithmetic, as N does in
    `r_from_n`.
    """
    _check_theorem_args(m, s)
    _poly("R", r)
    return (r * Q_PLUS ** s).exact_div(W_MINUS ** (m - 2 - 2 * s))


class TrialRecord(Record):
    """The count through `moments` of seed (None for given moments) and
    degree, which fix it: each curve as its split pairs (`splits`), each
    sorted multiplicity tuple with its number of curves (`tally`), the
    number of curves and of distinct vertex-point sets (equal point sets
    have equal sorted point ids), and the N summed from the tally. `curves`
    and `solutions`, in enumerate_types order, are built when first read;
    a copy counts again. Raises NonGenericMoments on a wall."""

    def __init__(self, seed: int | None, moments: MomentVector,
                 delta_s: Degree):
        splits, (mult, place, _) = _count(delta_s, moments)
        tally, point_sets = {}, set()
        for found in splits:
            key = tuple(sorted(map(mult.__getitem__, found)))
            tally[key] = tally.get(key, 0) + 1
            point_sets.add(tuple(sorted(map(place.__getitem__, found))))
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "moments", moments)
        object.__setattr__(self, "delta_s", delta_s)
        object.__setattr__(self, "splits", tuple(splits))
        object.__setattr__(self, "tally", tuple(tally.items()))
        object.__setattr__(self, "count", len(splits))
        object.__setattr__(self, "point_sets", len(point_sets))
        object.__setattr__(self, "n_trop", _n_from_mults(self.tally))

    def identity(self) -> tuple:
        return self.seed, self.moments, self.delta_s

    @functools.cached_property
    def curves(self) -> tuple[TropicalSolution, ...]:
        return tuple(_curves(self.delta_s, self.moments, self.splits))

    @functools.cached_property
    def solutions(self) -> tuple[TropicalSolution, ...]:
        return tuple(sorted(self.curves, key=lambda curve: curve.place))


class InvariantReport(NamedTuple):
    """Outcome of an invariance audit over several seeded constraints."""

    delta: Degree
    delta_s: Degree
    s: int
    m: int
    trial_records: tuple[TrialRecord, ...]
    n_trop: HalfLaurent
    r_inv: HalfLaurent
    broccoli: HalfLaurent

    @property
    def trials(self) -> int:
        return len(self.trial_records)

    @property
    def solutions_per_trial(self) -> tuple[int, ...]:
        return tuple(t.count for t in self.trial_records)


def _describe(rec: TrialRecord) -> str:
    moments = ", ".join(frac_str(v) for v in rec.moments.values)
    mults = ", ".join(str(sol.refined_multiplicity()) for sol in rec.solutions)
    return (f"trial with seed {rec.seed} and moments [{moments}] gave "
            f"N = {rec.n_trop} from curves of multiplicity [{mults}]")


def invariance_audit(delta_s: Degree, trials: int,
                     seed: int) -> InvariantReport:
    """Count the curves through several seeded generic constraints, each
    counted once while it is sampled, and insist the refined counts agree;
    derive R and the Broccoli normalization from the N they agree on.

    R and BG come from N by `_theorem`, the path `r_from_n` takes: one
    exact division per (N, m, s), memoised, so a degree's first audit
    divides once, whatever its number of trials or multiplicity tuples,
    and a repeat audit divides not at all. An N that does not divide
    raises NotDivisible.

    Raises InvarianceViolation (a bug detector, not an input error) when two
    trials disagree.
    """
    if _int("trials", trials) < 1:
        raise ValueError("need at least one trial")
    seed_stream = SplitMix64(seed)
    records = [sample_trial(delta_s, seed_stream.next_u64())
               for _ in range(trials)]
    first = records[0].n_trop
    for rec in records[1:]:
        if rec.n_trop != first:
            raise InvarianceViolation(
                f"{_describe(records[0])}, but {_describe(rec)}",
                trials=(records[0], rec))
    delta, s = split_even_ends(delta_s)
    m = len(delta)
    r, bg = _theorem(first, m, s)
    return InvariantReport(delta, delta_s, s, m, tuple(records), first, r, bg)
