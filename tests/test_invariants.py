"""Refined counts, the invariance audit, and the theorem conversions."""

import itertools
import math
import re
from collections import Counter
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tropical_refine import (DegenerateDegree, Degree, ExhaustedRetries,
                             HalfLaurent, InvarianceViolation, LengthMismatch,
                             MomentVector, NonGenericMoments, NotDivisible,
                             SplitMix64, TooFewEnds, TrialRecord,
                             TropicalError, TropicalSolution, Vec,
                             WeightedPlaneParam, broccoli_from_r,
                             build_delta_s, delta_d, enumerate_types,
                             evaluation_matrix, invariance_audit, invariants,
                             lattice_length, m_prime, maximal_split,
                             menelaus_sum, polygon_of, q_analog, r_from_n,
                             random_generic_moments, refined_count,
                             sample_trial, solve, solver, split_even_ends,
                             w_pow_minus_inverse, wedge)
from tropical_refine.invariants import moment_from_draw, refined_count_brute

W_MINUS = w_pow_minus_inverse(1)   # q^(1/2) - q^(-1/2)
W_PLUS = HalfLaurent({1: 1, -1: 1})


def test_splitmix64_published_vector():
    gen = SplitMix64(0)
    assert gen.next_u64() == 0xE220A8397B1DCDAF
    assert gen.next_u64() == 0x6E789E6AA1B965F4
    assert gen.next_u64() == 0x06C45D188009454F


def test_splitmix64_is_seed_deterministic():
    a = SplitMix64(123)
    b = SplitMix64(123)
    assert [a.next_u64() for _ in range(6)] == [b.next_u64() for _ in range(6)]
    assert SplitMix64(124).next_u64() != SplitMix64(123).next_u64()


def test_moment_from_draw_recipe():
    # moment = (draw mod 2001 - 1000) / (1 + draw mod 7)
    assert moment_from_draw(0) == Fraction(-1000)
    assert moment_from_draw(1000) == Fraction(0, 1)
    assert moment_from_draw(2001) == Fraction(-1000, 7)
    assert moment_from_draw(1001) == Fraction(1, 1 + 1001 % 7)


def test_refined_count_triangle(triangle, triangle_mu):
    n_trop, sols = refined_count(triangle, triangle_mu)
    assert n_trop == HalfLaurent(1)
    assert len(sols) == 1


def test_refined_count_square(square, square_mu):
    n_trop, sols = refined_count(square, square_mu)
    assert n_trop == HalfLaurent(1)
    assert len(sols) == 1


def test_refined_count_doubled_quad(doubled_quad, doubled_quad_mu):
    n_trop, _ = refined_count(doubled_quad, doubled_quad_mu)
    assert n_trop == W_PLUS


@pytest.mark.parametrize("count", [2, 4])
def test_every_count_refuses_a_moment_list_of_the_wrong_length(triangle,
                                                               count):
    # one checker, lattice._moment_count: the fast count, the oracle, one
    # solve and the Menelaus sum refuse too few or too many moments alike,
    # with an error that is also a ValueError
    mu = MomentVector(range(1, count))      # count moments, end 1 implied
    ctype = next(enumerate_types(triangle))
    message = rf"^{count} moments for a degree with 3 ends$"
    for call in (lambda: refined_count(triangle, mu),
                 lambda: refined_count_brute(triangle, mu),
                 lambda: solve(ctype, mu),
                 lambda: menelaus_sum(mu.full(), triangle)):
        with pytest.raises(ValueError, match=message) as info:
            call()
        assert type(info.value) is LengthMismatch


def test_random_generic_moments_deterministic(conic):
    assert random_generic_moments(conic, 42) == random_generic_moments(conic, 42)
    assert random_generic_moments(conic, 42) != random_generic_moments(conic, 43)


def test_random_generic_moments_triangle_never_rejects(triangle):
    # no bounded edges, so the very first draw must be accepted
    gen = SplitMix64(9)
    expect = MomentVector((moment_from_draw(gen.next_u64()),
                           moment_from_draw(gen.next_u64())))
    assert random_generic_moments(triangle, 9) == expect


def test_random_generic_moments_exhaustion(square, monkeypatch):
    # all-zero moments put every curve of the square onto a wall
    monkeypatch.setattr(invariants, "moment_from_draw", lambda draw: Fraction(0))
    with pytest.raises(ExhaustedRetries):
        random_generic_moments(square, 0)


def test_exhausted_retries_gives_every_reason(square, monkeypatch):
    # all-zero moments put every curve of the square onto a wall
    monkeypatch.setattr(invariants, "moment_from_draw", lambda draw: Fraction(0))
    with pytest.raises(ExhaustedRetries) as info:
        sample_trial(square, 3)
    assert info.value.reasons == ["wall"] * 64
    assert str(info.value) == ("no generic moments for seed 3 in 64 attempts "
                               "(64 wall)")


def test_exhausted_retries_tells_walls_from_coincident_curves(conic,
                                                              monkeypatch):
    real = invariants._count
    calls = []

    def wall_then_doubled(delta, mu):
        calls.append(mu)
        if len(calls) % 2:
            raise NonGenericMoments("forced wall")
        splits, vertices = real(delta, mu)
        return splits + splits, vertices    # every curve twice: they coincide

    monkeypatch.setattr(invariants, "_count", wall_then_doubled)
    with pytest.raises(ExhaustedRetries) as info:
        sample_trial(conic, 8)
    assert info.value.reasons == ["wall", "coincident curves"] * 32
    assert str(info.value) == ("no generic moments for seed 8 in 64 attempts "
                               "(32 wall, 32 coincident curves)")


@pytest.mark.parametrize("name", ["triangle", "square", "conic",
                                  "conic_merged", "doubled_quad"])
def test_sample_trial_is_the_counted_draw(name, request):
    delta = request.getfixturevalue(name)
    for seed in range(4):
        trial = sample_trial(delta, seed)
        mu = random_generic_moments(delta, seed)
        n_trop, sols = refined_count(delta, mu)
        assert ((trial.seed, trial.moments, trial.n_trop, trial.solutions)
                == (seed, mu, n_trop, tuple(sols)))


def test_audit_counts_each_attempt_once(conic_merged, count_solves):
    count_solves["walls"].update({1, 4})    # trials 1 and 2 redraw once
    report = invariance_audit(conic_merged, trials=3, seed=11)
    attempts = count_solves["draws"] // (len(conic_merged) - 1)
    assert (report.trials, attempts) == (3, 5)
    assert count_solves["solves"] == attempts


def test_split_table_is_built_once_across_retries(square, count_solves,
                                                 count_tables, monkeypatch):
    merged = Degree(((0, -1), (0, -1), (1, 1), (1, 1), (-2, 0)),
                    name="table across retries")
    count_solves["walls"].update({1, 2, 4})     # seeds 0 and 1 redraw
    for seed in range(3):
        sample_trial(merged, seed)
    assert count_solves["solves"] == 6
    assert count_tables == [merged.entries]
    # walls the solver finds itself: every attempt reaches the table
    count_solves["walls"].clear()
    monkeypatch.setattr(invariants, "moment_from_draw", lambda draw: Fraction(0))
    walled = Degree(square.entries, name="table across real walls")
    with pytest.raises(ExhaustedRetries):
        sample_trial(walled, 3)
    assert count_solves["solves"] == 6 + 64
    assert count_tables == [merged.entries, walled.entries]


def test_split_table_is_built_once_per_audit(count_solves, count_tables):
    delta = Degree(build_delta_s(delta_d(2), Vec(-1, 0), 1).entries,
                   name="table across trials")
    count_solves["walls"].add(2)
    report = invariance_audit(delta, trials=4, seed=3)
    assert (report.trials, count_solves["solves"]) == (4, 5)
    assert count_tables == [delta.entries]


def test_invariance_violation_carries_both_trials(conic_merged, monkeypatch):
    real = invariants._n_from_mults
    calls = []

    def drifting(mults):
        calls.append(mults)
        return real(mults) + len(calls) - 1     # a wrong N from trial 2 on

    monkeypatch.setattr(invariants, "_n_from_mults", drifting)
    with pytest.raises(InvarianceViolation) as info:
        invariance_audit(conic_merged, trials=2, seed=5)
    first, second = info.value.trials
    assert isinstance(first, TrialRecord) and isinstance(second, TrialRecord)
    assert first.n_trop == W_PLUS and second.n_trop == W_PLUS + 1
    message = str(info.value)
    for rec in (first, second):
        assert f"seed {rec.seed} " in message
        moments = ", ".join(str(v) for v in rec.moments.values)
        assert f"moments [{moments}]" in message
        assert f"N = {rec.n_trop} " in message
    assert message.count("multiplicity [q^1/2 + q^-1/2]") == 2


def test_r_from_n_zero_pairs_is_multiplication():
    # s = 0: R = (q^(1/2) - q^(-1/2))^(m-2) * N
    n = q_analog(2)
    assert r_from_n(n, 4, 0) == W_MINUS ** 2 * n
    assert r_from_n(HalfLaurent(1), 3, 0) == W_MINUS


def test_r_from_n_conic_merged(conic_merged):
    mu = random_generic_moments(conic_merged, 1)
    n_trop, _ = refined_count(conic_merged, mu)
    assert n_trop == W_PLUS
    r = r_from_n(n_trop, 6, 1)
    assert r == HalfLaurent({2: 1, 0: -2, -2: 1})   # q - 2 + q^-1
    assert r == W_MINUS ** 2


def test_r_from_n_divides_once(count_divisions):
    assert r_from_n(W_PLUS, 6, 1) == W_MINUS ** 2
    assert len(count_divisions) == 1
    count_divisions.clear()
    assert r_from_n(q_analog(3), 5, 0) == W_MINUS ** 3 * q_analog(3)
    assert len(count_divisions) == 1


def _tuples(report) -> set[tuple[int, ...]]:
    """The sorted multiplicity tuples of an audit's first trial."""
    return {tuple(sorted(curve.mults))
            for curve in report.trial_records[0].curves}


def test_audit_divides_once(conic_merged, count_divisions):
    # once for the N the trials agree on, however many trials or tuples;
    # a repeat audit divides zero times
    report = invariance_audit(conic_merged, trials=1, seed=5)
    assert report.broccoli == HalfLaurent({2: 1, -2: 1})
    assert count_divisions == [W_PLUS]
    count_divisions.clear()
    assert invariance_audit(conic_merged, trials=1, seed=5) == report
    assert count_divisions == []
    seven = Degree(((-1, 0), (0, -1), (0, -1), (1, 1), (1, 1), (1, 0),
                    (-2, 0)))
    report = invariance_audit(seven, trials=3, seed=5)
    assert len(_tuples(report)) > 1
    assert count_divisions == [W_PLUS]
    count_divisions.clear()
    assert invariance_audit(seven, trials=3, seed=5) == report
    assert count_divisions == []
    # r_from_n reaches the same memo
    assert r_from_n(report.n_trop, report.m, report.s) == report.r_inv
    assert count_divisions == []


def assert_tally_gives_n(delta, seed):
    """The N summed once per sorted multiplicity tuple is the sum of the
    curves' refined multiplicities and refined_count's N. Returns the
    record and its tally: each sorted tuple with its number of curves."""
    record = sample_trial(delta, seed)
    tally = Counter(tuple(sorted(sol.mults)) for sol in record.solutions)
    assert tally == Counter(tuple(sorted(curve.mults))
                            for curve in record.curves)
    total = HalfLaurent(0)
    for sol in record.solutions:
        total = total + sol.refined_multiplicity()
    assert record.n_trop == total
    assert record.n_trop == refined_count(delta, record.moments)[0]
    return record, tally


EIGHT_ENDS = build_delta_s(delta_d(3), Vec(-1, 0), 1)


@pytest.mark.parametrize("label", [
    "triangle", "square", "conic", "conic_merged", "doubled_quad",
    "delta_2", "six_ends_s2", "six_ends_s1", "seven_ends_s1",
    "four_ends_s1", "eight_ends_s1"])
def test_tally_n_is_the_brute_count(label, named_degrees):
    delta = {**named_degrees, "eight_ends_s1": EIGHT_ENDS}[label]
    for seed in (1, 2):
        record, _ = assert_tally_gives_n(delta, seed)
        assert record.n_trop == refined_count_brute(delta, record.moments)[0]


def test_tally_n_is_the_brute_count_at_nine_ends():
    # refined_count_brute gives q + 7 + 1/q for delta_d(3) at seeds 1 and 2,
    # but takes about 18 s a seed, so its N is written out here
    for seed in (1, 2):
        record, _ = assert_tally_gives_n(delta_d(3), seed)
        assert record.n_trop == HalfLaurent({2: 1, 0: 7, -2: 1})


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("d, s", [(4, 1), (4, 0), (5, 2)],
                         ids=["11-ends", "12-ends", "13-ends"])
def test_tally_n_above_brute_force(d, s, seed):
    record, tally = assert_tally_gives_n(
        build_delta_s(delta_d(d), Vec(-1, 0), s), seed)
    assert len(tally) < len(record.curves)


def test_audit_sums_once_per_tuple(monkeypatch):
    # about 900 curves carry far fewer multiplicity tuples: N is one
    # combination of one term per tuple, with no `+` per curve, and R and
    # BG come from N with no combination at all
    delta = build_delta_s(delta_d(5), Vec(-1, 0), 2)
    adds, terms = [], []
    real_add = HalfLaurent.__add__
    real_combination = invariants.linear_combination

    def add(self, other):
        adds.append(other)
        return real_add(self, other)

    def combination(pairs):
        pairs = list(pairs)
        terms.append(len(pairs))
        return real_combination(pairs)

    monkeypatch.setattr(HalfLaurent, "__add__", add)
    monkeypatch.setattr(HalfLaurent, "__radd__", add)
    monkeypatch.setattr(invariants, "linear_combination", combination)
    report = invariance_audit(delta, trials=1, seed=1)
    record = report.trial_records[0]
    tuples = len(_tuples(report))
    assert len(record.curves) > 800 and tuples < len(record.curves) // 10
    assert terms == [tuples]
    assert len(adds) + sum(terms) <= tuples
    # the guard is live: the sum by hand adds once per curve
    adds.clear()
    total = HalfLaurent(0)
    for curve in record.curves:
        total = total + invariants._q_product(tuple(sorted(curve.mults)))
    assert total == report.n_trop and len(adds) == len(record.curves)


def test_theorem_factors_are_their_definitions():
    w = HalfLaurent.monomial
    assert invariants.W_MINUS == w(1) - w(-1)
    assert invariants.W_PLUS == w(1) + w(-1)
    assert invariants.Q_PLUS == HalfLaurent.q_power(1) + HalfLaurent.q_power(-1)


def divide(n, num_base, num_exp, den):
    """n * num_base^num_exp / den."""
    return (n * num_base ** num_exp).exact_div(den)


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(st.integers(-6, 6), st.integers(-9, 9),
                       max_size=5).map(HalfLaurent),
       st.integers(0, 2), st.integers(2, 5))
def test_r_from_n_equals_both_divided_forms(x, s, extra):
    m = 2 * s + extra          # m - 2 - 2s runs over 0..3
    assume(m >= 3)             # a curve has at least three ends
    n = x * W_PLUS ** s
    q_minus = w_pow_minus_inverse(2)
    form_a = divide(n, W_MINUS, m - 2 - s, q_minus ** s)
    form_b = divide(n, W_MINUS, m - 2 - 2 * s, W_PLUS ** s)
    r = r_from_n(n, m, s)
    assert r == form_a == form_b
    q_plus = HalfLaurent.q_power(1) + HalfLaurent.q_power(-1)
    assert broccoli_from_r(r, m, s) == divide(n, q_plus, s, W_PLUS ** s)


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(st.integers(-6, 6), st.integers(-9, 9),
                       max_size=5).map(HalfLaurent),
       st.integers(0, 2), st.integers(0, 2), st.integers(0, 2),
       st.integers(2, 5))
def test_r_from_n_not_divisible_exactly_when_form_b_is_not(x, plus, minus, s,
                                                           extra):
    # factors of w + 1/w and w - 1/w make both outcomes common
    n = x * W_PLUS ** plus * W_MINUS ** minus
    m = 2 * s + extra
    assume(m >= 3)
    try:
        expected = divide(n, W_MINUS, m - 2 - 2 * s, W_PLUS ** s)
    except NotDivisible:
        with pytest.raises(NotDivisible):
            r_from_n(n, m, s)
    else:
        assert r_from_n(n, m, s) == expected


def test_theorem_arguments_are_checked_whatever_ran_before():
    # the int forms first: a cache keyed on m and s must not let True == 1
    # or 6.0 == 6 through afterwards
    assert r_from_n(W_PLUS, 6, 1) == W_MINUS ** 2
    assert broccoli_from_r(W_MINUS ** 2, 6, 1) == invariants.Q_PLUS
    for m, s in [(6, True), (6.0, 1), (True, 0), (6, 1.0)]:
        with pytest.raises(TypeError, match=" is an int, got "):
            r_from_n(W_PLUS, m, s)
        with pytest.raises(TypeError, match=" is an int, got "):
            broccoli_from_r(W_MINUS ** 2, m, s)
    for take in (r_from_n, broccoli_from_r):
        with pytest.raises(ValueError, match="weight-2 ends"):
            take(W_PLUS, 6, -1)


@pytest.mark.parametrize("take", [r_from_n, broccoli_from_r])
@pytest.mark.parametrize("m, s", [(2, 0), (1, 0), (0, 0), (-3, 0), (4, 3),
                                  (5, 3), (3, 1), (4, 2), (5, 2)])
def test_theorem_refuses_impossible_end_counts(take, m, s):
    # a curve has at least three ends, and its s weight-2 ends pair off 2s
    # of them; the m - 2s ends left sum to -2s n1, so for s >= 1 there are
    # at least two. Without these checks r_from_n raised NotDivisible, the
    # mark of a bug, and broccoli_from_r returned a polynomial. (4, 2), with
    # m - 2 - 2s = -2, was once divided by (w - 1/w)^2 as well
    with pytest.raises(ValueError, match=rf"\bm = {m}\b|got {m}\b"):
        take(HalfLaurent(1), m, s)
    with pytest.raises(ValueError):
        invariants._theorem(HalfLaurent(1), m, s)


def test_r_from_n_takes_only_a_polynomial_whatever_ran_before():
    # the constant HalfLaurent(1) equals 1 and hashes like it, so an int N
    # would hit its memo key; it used to raise AttributeError
    for _ in range(2):
        with pytest.raises(TypeError, match="N is a HalfLaurent, got 1"):
            r_from_n(1, 3, 0)
        assert r_from_n(HalfLaurent(1), 3, 0) == W_MINUS


def test_broccoli_from_r_takes_only_a_polynomial(monkeypatch):
    # an int R used to come back multiplied out, 1 as q + 1/q, and a float
    # failed only inside `*`; both theorem entry points refuse alike, and
    # before any arithmetic
    def refused(*_):
        raise RuntimeError("arithmetic on a refused R")

    monkeypatch.setattr(HalfLaurent, "__pow__", refused)
    monkeypatch.setattr(HalfLaurent, "__mul__", refused)
    for bad in (1, 2, 1.5, Fraction(1)):
        with pytest.raises(TypeError, match=re.escape(
                f"R is a HalfLaurent, got {bad!r}")):
            broccoli_from_r(bad, 4, 1)
    monkeypatch.undo()
    assert broccoli_from_r(HalfLaurent(1), 4, 1) == invariants.Q_PLUS


def test_r_from_n_not_divisible_is_fatal():
    with pytest.raises(NotDivisible):
        r_from_n(HalfLaurent(1), 4, 1)


def test_broccoli_zero_pairs_is_n(triangle, triangle_mu):
    n_trop, _ = refined_count(triangle, triangle_mu)
    r = r_from_n(n_trop, 3, 0)
    assert broccoli_from_r(r, 3, 0) == n_trop


def test_broccoli_of_zero_is_zero():
    assert broccoli_from_r(HalfLaurent(0), 6, 1) == HalfLaurent(0)


def test_broccoli_identity_conic_merged(conic_merged):
    mu = random_generic_moments(conic_merged, 5)
    n_trop, _ = refined_count(conic_merged, mu)
    r = r_from_n(n_trop, 6, 1)
    bg = broccoli_from_r(r, 6, 1)
    q_plus = HalfLaurent({2: 1, -2: 1})
    assert bg * W_PLUS == n_trop * q_plus
    assert bg == q_plus


def test_invariance_audit_triangle(triangle):
    report = invariance_audit(triangle, trials=20, seed=0)
    assert report.n_trop == HalfLaurent(1)
    assert report.r_inv == W_MINUS
    assert report.broccoli == HalfLaurent(1)
    assert report.solutions_per_trial == (1,) * 20
    assert report.trials == 20
    assert report.s == 0 and report.m == 3


def test_invariance_audit_refuses_ends_on_one_line():
    # N = 0 through such ends, but they bound no curve and give no R; too
    # few ends are still refused by the count, before any R is derived
    with pytest.raises(DegenerateDegree, match="one line"):
        invariance_audit(Degree(((-2, 0), (1, 0), (1, 0))), trials=2, seed=0)
    with pytest.raises(TooFewEnds):
        invariance_audit(Degree(((1, 0), (-1, 0))), trials=2, seed=0)


def test_invariance_audit_square(square):
    report = invariance_audit(square, trials=20, seed=0)
    assert report.n_trop == HalfLaurent(1)
    assert report.r_inv == W_MINUS ** 2


def test_invariance_audit_conic(conic):
    report = invariance_audit(conic, trials=10, seed=0)
    assert report.n_trop == HalfLaurent(1)
    assert report.r_inv == W_MINUS ** 4
    assert report.broccoli == HalfLaurent(1)


def test_invariance_audit_conic_merged(conic_merged):
    report = invariance_audit(conic_merged, trials=20, seed=0)
    assert report.n_trop == W_PLUS
    assert report.r_inv == W_MINUS ** 2
    assert report.broccoli == HalfLaurent({2: 1, -2: 1})
    assert report.s == 1 and report.m == 6
    assert sorted(report.delta.entries) == sorted(delta_d(2).entries)


def test_audit_report_symmetry_and_specialization(conic_merged):
    report = invariance_audit(conic_merged, trials=5, seed=3)
    assert report.n_trop.is_symmetric()
    assert report.r_inv.is_symmetric()
    for record in report.trial_records:
        counted = sum(s.det_abs for s in record.solutions)
        assert record.n_trop.eval_q1() == counted


def test_audit_json_shape(triangle):
    from tropical_refine.cli import invariant_json

    data = invariant_json(invariance_audit(triangle, trials=2, seed=1))
    assert data["trials"] == 2
    assert len(data["trialRecords"]) == 2
    assert data["refinedCount"] == [[0, 1]]
    assert data["realInvariantText"] == "q^1/2 - q^-1/2"
    for record in data["trialRecords"]:
        assert set(record) == {"seed", "moments", "solutionCount",
                               "refinedCount"}


def test_merged_degrees_share_a_polygon_but_not_a_count(conic, conic_merged):
    from tropical_refine import polygon_of
    assert polygon_of(conic).vertices == polygon_of(conic_merged).vertices
    full = invariance_audit(conic, trials=3, seed=0)
    merged = invariance_audit(conic_merged, trials=3, seed=0)
    assert full.n_trop != merged.n_trop


def test_build_delta_s_feeds_audit(conic):
    merged = build_delta_s(conic, (-1, 0), 1)
    report = invariance_audit(merged, trials=5, seed=0)
    assert report.n_trop == W_PLUS


# -- the subset DP against the per-type oracle -------------------------------


def count_or_wall(count, delta, mu):
    try:
        return count(delta, mu)
    except NonGenericMoments as exc:
        return ("wall", str(exc))


def assert_matches_brute(delta, mu):
    """Same N, the same solutions in the same order, or the same wall: the
    records are compared field by field, splits included."""
    fast = count_or_wall(refined_count, delta, mu)
    assert fast == count_or_wall(refined_count_brute, delta, mu)
    return fast


def with_fields(sol, **changed):
    """A curve record with some of sol's fields changed, made by the
    constructor."""
    names = ("dirs", "moments", "splits", "mults", "points", "scale")
    return TropicalSolution(**{**dict(zip(names, sol.identity())),
                               **changed})


def raw_moments(n: int, seed: int) -> MomentVector:
    """Seeded moments without rejection sampling, so walls stay possible."""
    gen = SplitMix64(seed)
    return MomentVector(tuple(moment_from_draw(gen.next_u64())
                              for _ in range(n - 1)))


FIXTURE_DEGREES = ("triangle", "square", "conic", "conic_merged",
                   "doubled_quad")


def leibniz_det(matrix) -> int:
    """Determinant as the signed sum over permutations, by definition."""
    size = len(matrix)
    total = 0
    for perm in itertools.permutations(range(size)):
        flips = sum(perm[i] > perm[j]
                    for i, j in itertools.combinations(range(size), 2))
        term = (-1) ** flips
        for row, col in enumerate(perm):
            term *= matrix[row][col]
        total += term
    return total


@pytest.mark.parametrize("name", FIXTURE_DEGREES)
def test_dp_matches_brute_on_fixture_degrees(name, request):
    delta = request.getfixturevalue(name)
    n = len(delta)
    # the oracle's matrix: |det| is the product of the multiplicities on
    # every type, flat ones included
    for ctype in enumerate_types(delta):
        want = 1
        for m in ctype.multiplicities().values():
            want *= m
        assert abs(leibniz_det(evaluation_matrix(ctype))) == want
    for seed in range(4):
        assert_matches_brute(delta, random_generic_moments(delta, seed))
        assert_matches_brute(delta, raw_moments(n, seed))
    for small in range(-2, 3):
        assert_matches_brute(delta, MomentVector((Fraction(small),) * (n - 1)))


def test_dp_matches_brute_on_fixture_moments(triangle, triangle_mu, square,
                                            square_mu, doubled_quad,
                                            doubled_quad_mu):
    for delta, mu in ((triangle, triangle_mu), (square, square_mu),
                      (doubled_quad, doubled_quad_mu)):
        _, sols = assert_matches_brute(delta, mu)
        assert len(sols) == 1


def test_dp_raises_on_the_same_wall(square):
    wall = MomentVector((Fraction(1), Fraction(2), Fraction(-2)))
    assert assert_matches_brute(square, wall)[0] == "wall"


@pytest.mark.parametrize("entries, wall", [
    # no curve lies off this wall
    (((-1, 0), (1, 0), (0, -1), (0, 1)), (1, 2, -2)),
    # two curves lie off this wall, but the count raises before any rebuild
    (((-1, 0), (1, 0), (0, -1), (0, 1), (1, 1), (-1, -1)), (15, 2, 3, 4, 5)),
], ids=["square", "hexagon"])
def test_a_wall_draw_rebuilds_no_curve(entries, wall, monkeypatch):
    delta, wall = Degree(entries), MomentVector(wall)
    assert assert_matches_brute(delta, wall)[0] == "wall"
    generic = random_generic_moments(delta, 0)

    def rebuilt(*_):
        raise TropicalError("a curve was rebuilt")

    monkeypatch.setattr(solver, "type_from_clades", rebuilt)
    with pytest.raises(NonGenericMoments):
        refined_count(delta, wall)
    # the guard is live: a draw off every wall rebuilds its curves
    with pytest.raises(TropicalError, match="rebuilt"):
        refined_count(delta, generic)


def test_dp_keeps_input_errors():
    with pytest.raises(TooFewEnds):
        refined_count(Degree(((1, 0), (-1, 0))), MomentVector((Fraction(1),)))
    with pytest.raises(ValueError):
        refined_count(delta_d(1), MomentVector((Fraction(1),)))


@pytest.mark.parametrize("trials", [0, -1])
def test_audit_refuses_fewer_than_one_trial(triangle, trials):
    with pytest.raises(ValueError, match="need at least one trial"):
        invariance_audit(triangle, trials=trials, seed=0)


@pytest.mark.parametrize("bad", [True, False, 1.5, 2.0, "3", None])
def test_seeds_trials_and_retries_are_ints(triangle, bad):
    # a bool is an int to isinstance: sample_trial(delta, True) would be
    # the seed-1 draw with "seed": true in its JSON
    for refused in (lambda: SplitMix64(bad),
                    lambda: sample_trial(triangle, bad),
                    lambda: invariance_audit(triangle, trials=bad, seed=0),
                    lambda: invariance_audit(triangle, trials=1, seed=bad)):
        with pytest.raises(TypeError, match=re.escape(repr(bad))):
            refused()


def test_an_audit_builds_no_tree(monkeypatch):
    from tropical_refine import trees

    def rebuilt(*_):
        raise TropicalError("a tree was built")

    monkeypatch.setattr(solver, "type_from_clades", rebuilt)
    monkeypatch.setattr(trees, "type_from_clades", rebuilt)
    report = invariance_audit(delta_d(3), trials=3, seed=2024)
    assert report.trials == 3 and report.n_trop.is_symmetric()
    assert sum(report.solutions_per_trial) > 3
    # the guard is live: the curves' trees are built when first read
    with pytest.raises(TropicalError, match="a tree was built"):
        report.trial_records[0].solutions


DIRECTIONS = (Vec(1, 0), Vec(0, 1), Vec(1, 1), Vec(1, -1), Vec(2, 1),
              Vec(1, 2))


@st.composite
def balanced_degrees(draw, max_ends=7):
    """Degrees with 3..max_ends ends of weight 1 or 2, drawn from a small
    direction pool, with anti-parallel pairs added on purpose: repeated
    directions and end sets with n_S = 0 (always flat) are both common."""
    n = draw(st.integers(3, max_ends))
    ends = []
    while len(ends) < n - 1:
        d = draw(st.sampled_from(DIRECTIONS)).scale(draw(st.sampled_from((1, -1))))
        ends.append(d.scale(draw(st.integers(1, 2))))
        if len(ends) < n - 1 and draw(st.booleans()):
            ends.append(d.scale(-draw(st.integers(1, 2))))
    last = Vec(-sum(e.x for e in ends), -sum(e.y for e in ends))
    assume(lattice_length(last) in (1, 2))
    return Degree(tuple(ends) + (last,))


@st.composite
def degrees_with_moments(draw, max_ends=7):
    delta = draw(balanced_degrees(max_ends))
    draws = st.integers(0, 2 ** 64 - 1).map(moment_from_draw)
    small = st.integers(-2, 2).map(Fraction)
    moment = draws if draw(st.booleans()) else small
    return delta, MomentVector(tuple(draw(moment)
                                     for _ in range(len(delta) - 1)))


@settings(max_examples=40, deadline=None)
@given(degrees_with_moments())
def test_dp_matches_brute_on_random_degrees(case):
    assert_matches_brute(*case)


@settings(max_examples=25, deadline=None)
@given(balanced_degrees(), st.data())
def test_reused_and_fresh_tables_match_brute(delta, data):
    draws = st.integers(0, 2 ** 64 - 1).map(moment_from_draw)
    small = st.integers(-2, 2).map(Fraction)
    for k in range(4):
        moment = draws if k % 2 else small
        mu = MomentVector(tuple(data.draw(moment)
                                for _ in range(len(delta) - 1)))
        # `delta` keeps one table across the moment vectors; an equal
        # degree under a new name gets a table built for this call alone
        fresh = Degree(delta.entries, name=f"fresh table {k}")
        reused = count_or_wall(refined_count, delta, mu)
        assert reused == count_or_wall(refined_count, fresh, mu)
        assert reused == count_or_wall(refined_count_brute, delta, mu)


# -- the vertex data rebuilt curves carry from the split table --------------


def assert_carries_the_tree_data(sols):
    """Multiplicities, positions and refined weight taken from the splits
    equal what the tree gives: the wedge of two outgoing slopes at each
    vertex, and the walk from the root along the edge lengths, both found
    here by walking the adjacency. The lengths read off the points, with the
    root, solve the evaluation map's system."""
    for sol in sols:
        ctype = sol.ctype
        adj = ctype.adjacency

        def far_sum(u, v):
            # direction sum of the leaves past v, seen from u
            if v < ctype.n:
                return ctype.leaf_dirs[v]
            a, b = (far_sum(v, w) for w in adj[v] if w != u)
            return a + b

        mults = {v: abs(wedge(far_sum(v, adj[v][0]), far_sum(v, adj[v][1])))
                 for v in ctype.internal_vertices}
        assert ctype.multiplicities() == mults
        assert sol.mults == tuple(mults.values())
        walked = {ctype.root_vertex: sol.root}
        stack = [ctype.root_vertex]
        while stack:
            u = stack.pop()
            for v in adj[u]:
                if v >= ctype.n and v not in walked:
                    ln = sol.lengths[tuple(sorted((u, v)))]
                    slope = far_sum(u, v)
                    walked[v] = (walked[u][0] + ln * slope.x,
                                 walked[u][1] + ln * slope.y)
                    stack.append(v)
        assert sol.positions() == walked
        unknowns = [*sol.root, *sol.lengths.values()]
        assert list(sol.lengths) == list(ctype.bounded_edges)
        assert [sum(a * x for a, x in zip(row, unknowns))
                for row in evaluation_matrix(ctype)] == list(sol.moments.values)
        want = HalfLaurent(1)
        for m in mults.values():
            want = want * q_analog(m)
        assert sol.refined_multiplicity() == want
        sol.verify()


@settings(max_examples=30, deadline=None)
@given(degrees_with_moments())
def test_dp_curves_carry_the_tree_data(case):
    counted = count_or_wall(refined_count, *case)
    if counted[0] != "wall":
        assert_carries_the_tree_data(counted[1])


@pytest.mark.parametrize("seed", [0, 1])
def test_dp_curves_carry_the_tree_data_at_twelve_ends(seed):
    record = sample_trial(delta_d(4), seed)
    assert len(record.solutions) > 100
    assert_carries_the_tree_data(record.solutions)


def point_sets(delta, mu, tuples, vertices) -> int:
    """The number of distinct vertex-point sets a trial of mu finds when its
    count gives the split tuples `tuples`, with the count's `vertices`."""
    with mock.patch.object(invariants, "_count",
                           lambda *_: (list(tuples), vertices)):
        return TrialRecord(None, mu, delta).point_sets


def test_point_ids_are_the_point_set(conic_merged):
    # sample_trial's coincident-curve rule: two split tuples have one
    # sorted tuple of point ids exactly when their Fraction point sets are
    # equal, whatever the order of their splits
    for delta in (conic_merged, delta_d(3)):
        for seed in range(3):
            mu = sample_trial(delta, seed).moments
            splits, vertices = solver._count(delta, mu)
            sets = [sorted(curve.positions().values())
                    for curve in solver._curves(delta, mu, splits)]
            tuples = splits + [found[::-1] for found in splits]
            sets += sets
            for i, j in itertools.combinations(range(len(tuples)), 2):
                found = point_sets(delta, mu, (tuples[i], tuples[j]),
                                   vertices)
                assert (found == 1) == (sets[i] == sets[j])


def record_path(delta, mu) -> tuple:
    """N, the number of curves and the tally of sorted multiplicity tuples,
    read off `curves_through`'s curve records one by one."""
    curves = solver.curves_through(delta, mu)
    total = HalfLaurent(0)
    for curve in curves:
        total = total + curve.refined_multiplicity()
    return total, len(curves), Counter(tuple(sorted(curve.mults))
                                       for curve in curves)


def record_path_trial(delta, seed) -> tuple:
    """The seeded draw on curve records: the first draw that is off every
    wall and whose curves have distinct Fraction point sets, with its
    record_path."""
    stream = SplitMix64(seed)
    for _ in range(invariants.MAX_ATTEMPTS):
        mu = MomentVector(moment_from_draw(stream.next_u64())
                          for _ in range(len(delta) - 1))
        try:
            curves = solver.curves_through(delta, mu)
        except NonGenericMoments:
            continue
        if len({tuple(sorted(curve.positions().values()))
                for curve in curves}) == len(curves):
            return (mu, *record_path(delta, mu))
    raise AssertionError(f"no draw for seed {seed}")


@settings(max_examples=25, deadline=None)
@given(degrees_with_moments(max_ends=9))
def test_a_trial_counts_as_its_curve_records(case):
    # a trial keeps split tuples, not curves: its N, count and tally are
    # those of the records, and of brute force where it runs
    delta, mu = case
    fast = count_or_wall(lambda d, m: TrialRecord(None, m, d), delta, mu)
    want = count_or_wall(record_path, delta, mu)
    if isinstance(fast, tuple):
        assert fast == want and want[0] == "wall"
        return
    assert (fast.n_trop, fast.count, dict(fast.tally)) == want
    assert fast.point_sets <= fast.count
    if len(delta) <= 7:
        n_trop, sols = refined_count_brute(delta, mu)
        assert want == (n_trop, len(sols),
                        Counter(tuple(sorted(sol.mults)) for sol in sols))


@pytest.mark.parametrize("delta", [
    delta_d(4), build_delta_s(delta_d(5), Vec(-1, 0), 2)],
    ids=["12-ends", "13-ends"])
def test_an_audit_trial_is_the_record_path_above_brute_force(delta):
    trial = sample_trial(delta, 1)
    mu, n_trop, count, tally = record_path_trial(delta, 1)
    assert trial.moments == mu and count > 100
    assert (trial.n_trop, trial.count, dict(trial.tally)) == (n_trop, count,
                                                                tally)


def test_an_audit_builds_no_curve_record(monkeypatch):
    delta = build_delta_s(delta_d(3), Vec(-1, 0), 1)

    def built(*_):
        raise TropicalError("a curve record was built")

    monkeypatch.setattr(TropicalSolution, "__init__", built)
    report = invariance_audit(delta, trials=2, seed=3)
    # the guard is live: the records are built when first read
    trial = report.trial_records[0]
    with pytest.raises(TropicalError, match="record was built"):
        trial.solutions
    monkeypatch.undo()
    assert list(trial.solutions) == refined_count(delta, trial.moments)[1]
    assert len(trial.curves) == trial.count > 1


@pytest.mark.parametrize("seed, shared", [(8, 3), (9, 2)])
def test_the_guard_numbers_points_not_splits(seed, shared):
    # at 13 ends, distinct splits of a draw's curves can share a vertex
    # point: the guard gives such a point one id, so a curve with one of
    # them swapped for the other has the same point set
    delta = build_delta_s(delta_d(5), Vec(-1, 0), 2)
    trial = sample_trial(delta, seed)
    splits_at = {}
    for curve in trial.curves:
        points = curve.positions()
        for i, split in enumerate(curve.splits):
            splits_at.setdefault(points[len(delta) + i], set()).add(split)
    twins = [sorted(at) for at in splits_at.values() if len(at) > 1]
    assert len(twins) == shared and all(len(at) == 2 for at in twins)
    splits, vertices = solver._count(delta, trial.moments)
    mult, _, ids = vertices
    assert len(ids) == len(splits_at) == len(mult) - shared
    for one, other in twins:
        found = next(found for found in splits if one in found)
        swapped = tuple(other if split == one else split for split in found)
        assert point_sets(delta, trial.moments, (found, swapped),
                          vertices) == 1


def test_counting_never_walks_the_tree(conic_merged, monkeypatch):
    from tropical_refine import CombinatorialType

    def walked(*_):
        raise TropicalError("the counting path walked the tree")

    for name in ("clades", "slope", "_multiplicities"):
        monkeypatch.setattr(CombinatorialType, name, property(walked))
    delta = Degree(conic_merged.entries, name="counted without the tree")
    record = sample_trial(delta, 4)
    assert record.n_trop == W_PLUS
    n_trop, sols = refined_count(delta, record.moments)
    assert n_trop == W_PLUS and sols == list(record.solutions)
    assert invariance_audit(delta, trials=3, seed=5).n_trop == W_PLUS
    # the guard is live: the tree data itself is out of reach
    with pytest.raises(TropicalError, match="walked the tree"):
        sols[0].ctype.multiplicities()


def test_counting_never_sums_the_full_moments(conic_merged, monkeypatch):
    def summed(*_):
        raise TropicalError("the counting path summed the moments")

    monkeypatch.setattr(MomentVector, "full", summed)
    monkeypatch.setattr(MomentVector, "implied_first", property(summed))
    delta = Degree(conic_merged.entries, name="counted without full()")
    record = sample_trial(delta, 4)
    assert record.n_trop == W_PLUS
    report = invariance_audit(delta, trials=2, seed=5)
    assert (report.n_trop, report.r_inv, report.broccoli) == (
        W_PLUS, W_MINUS ** 2, invariants.Q_PLUS)
    # the guard is live: a curve's own check reads the full moments
    with pytest.raises(TropicalError, match="summed the moments"):
        record.solutions[0].verify()


# -- theorem-level checks at sizes the oracle cannot reach in a test ---------


@pytest.mark.parametrize("delta_s", [
    delta_d(3), build_delta_s(delta_d(3), Vec(-1, 0), 1),
    delta_d(4), build_delta_s(delta_d(4), Vec(-1, 0), 1),
    build_delta_s(delta_d(5), Vec(-1, 0), 2)],
    ids=["delta_3", "delta_3_s1", "delta_4", "delta_4_s1", "delta_5_s2"])
def test_audit_properties_beyond_brute_force(delta_s):
    # the audit itself insists that N agrees across its three seeds and that
    # each curve's term divides exactly; it raises otherwise
    report = invariance_audit(delta_s, trials=3, seed=7)
    m, s = report.m, report.s
    assert report.broccoli == broccoli_from_r(report.r_inv, m, s)
    assert report.n_trop.is_symmetric()
    assert report.broccoli.is_symmetric()
    assert report.r_inv == HalfLaurent.from_json_pairs(
        [[-k, c * (-1) ** m] for k, c in report.r_inv.to_json_pairs()])
    for record in report.trial_records:
        total = HalfLaurent(0)
        for sol in record.solutions:
            split = maximal_split(WeightedPlaneParam.from_solution(sol))
            total = total + m_prime(split, sol.ctype.multiplicities())
        assert total.exact_div(HalfLaurent(4)) == r_from_n(record.n_trop, m, s)


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("d, s", [(4, 1), (5, 2)], ids=["11-ends", "13-ends"])
def test_every_curve_divides_above_brute_force(d, s, seed, monkeypatch):
    delta_s = build_delta_s(delta_d(d), Vec(-1, 0), s)
    report = invariance_audit(delta_s, trials=1, seed=seed)
    assert (report.m, report.s) == (3 * d, s)
    for mults in _tuples(report):
        term = invariants._q_product(mults)
        assert term.exact_div(W_PLUS ** s) * W_PLUS ** s == term
    assert report.r_inv == r_from_n(report.n_trop, report.m, s)
    assert report.broccoli == broccoli_from_r(report.r_inv, report.m, s)
    # the s vertices on weight-2 ends have even multiplicity; in a curve
    # with no other even one, an odd multiplicity there leaves its term
    # one factor w + 1/w short
    curves = report.trial_records[0].curves
    target = next(c for c in curves if sum(x % 2 == 0 for x in c.mults) == s)
    i = next(i for i, x in enumerate(target.mults) if x % 2 == 0)
    want = tuple(sorted(target.mults))
    mutated = tuple(sorted(target.mults[:i] + (target.mults[i] - 1,)
                           + target.mults[i + 1:]))
    real_n = invariants._n_from_mults

    def n_from_mults(tally):
        # the target curve is summed with the mutated multiplicities
        tally = dict(tally)
        tally[want] -= 1
        tally[mutated] = tally.get(mutated, 0) + 1
        return real_n(tally.items())

    monkeypatch.setattr(invariants, "_n_from_mults", n_from_mults)
    with pytest.raises(NotDivisible):
        invariance_audit(delta_s, trials=1, seed=seed)


def crossing_weight(sol) -> int:
    """Sum of |wedge(u_e, u_f)| over the transversal crossings of two edges
    e, f of the curve, interior to both, with u the weighted slopes; an end
    is a ray from its vertex. Exact: positions are Fractions."""
    ctype, pos = sol.ctype, sol.positions()
    pieces = []         # (start, displacement, weighted slope, is a ray)
    for u, v in ctype.edges:
        if u < ctype.n:
            u, v = v, u
        slope = ctype.slope(u, v)
        (px, py) = start = pos[u]
        if v < ctype.n:
            pieces.append((start, slope, slope, True))
        else:
            qx, qy = pos[v]
            pieces.append((start, (qx - px, qy - py), slope, False))
    total = 0
    for (p, d, u, ray_e), (q, e, w, ray_f) in itertools.combinations(pieces,
                                                                     2):
        det = wedge(d, e)
        if det:
            gap = (q[0] - p[0], q[1] - p[1])
            t, r = wedge(gap, e) / det, wedge(gap, d) / det
            if 0 < t and (ray_e or t < 1) and 0 < r and (ray_f or r < 1):
                total += abs(wedge(u, w))
    return total


PICK_DEGREES = {
    "delta_3": delta_d(3),
    "delta_3_s1": build_delta_s(delta_d(3), Vec(-1, 0), 1),
    "delta_4_s1": build_delta_s(delta_d(4), Vec(-1, 0), 1),
    "delta_4": delta_d(4),
}


@pytest.mark.parametrize("label", [
    *PICK_DEGREES, "triangle", "square", "conic", "conic_merged",
    "doubled_quad", "six_ends_s2", "six_ends_s1", "seven_ends_s1"])
def test_every_curve_keeps_the_pick_identity(label, named_degrees):
    # sum over vertices of (m_v - 1), plus twice the crossing weight, is
    # 2i + s for every curve, with i the interior points of the polygon
    # (Pick: 2i = 2 area - b + 2, and the b boundary points are n + s)
    delta_s = {**named_degrees, **PICK_DEGREES}[label]
    _, s = split_even_ends(delta_s)
    two_i = polygon_of(delta_s).area2() - (len(delta_s) + s) + 2
    for seed in (1, 2):
        record = sample_trial(delta_s, seed)
        for sol in record.solutions:
            assert (sum(m - 1 for m in sol.mults) + 2 * crossing_weight(sol)
                    == two_i + s), sol
        # so no curve's refined multiplicity reaches past q^((2i + s)/2)
        assert max(record.n_trop.support()) <= two_i + s


def _ends(*groups):
    return Degree(tuple(v for v, times in groups for _ in range(times)))


# degree -> (K, c_K): N's top K coefficients are binomials, and c_K, the
# first past them, falls short of its binomial; observed, not proven
STABLE_RANGE = {
    "delta_4": (delta_d(4), 3, 172),
    "delta_4_s1": (build_delta_s(delta_d(4), Vec(-1, 0), 1), 3, 133),
    "delta_5_s2": (build_delta_s(delta_d(5), Vec(-1, 0), 2), 4, 966),
    "p1xp1_3_3": (_ends(((1, 0), 3), ((-1, 0), 3), ((0, 1), 3),
                        ((0, -1), 3)), 3, 208),
    "p1xp1_2_4": (_ends(((1, 0), 2), ((-1, 0), 2), ((0, 1), 4),
                        ((0, -1), 4)), 2, 47),
    "triangle_5_3": (_ends(((-1, 0), 5), ((0, -1), 3), ((5, 3), 1)), 3, 79),
}


@pytest.mark.parametrize("label", STABLE_RANGE)
def test_top_coefficients_of_n_are_binomials(label):
    # with top = 2i + s, N's coefficient at half-exponent top - 2k is
    # C(n - 3 + k, k) for every k < K, the coefficients of
    # (1 - x)^-(n - 2); c_K falls short, which pins K exactly
    delta_s, k_range, c_past = STABLE_RANGE[label]
    n, (_, s) = len(delta_s), split_even_ends(delta_s)
    two_i = polygon_of(delta_s).area2() - n - s + 2   # Pick, b = n + s
    top = two_i + s
    n_trop = sample_trial(delta_s, 1).n_trop
    assert max(n_trop.support()) == top
    assert [n_trop.coeff(top - 2 * k) for k in range(k_range)] == [
        math.comb(n - 3 + k, k) for k in range(k_range)]
    assert n_trop.coeff(top - 2 * k_range) == c_past
    assert c_past < math.comb(n - 3 + k_range, k_range)
