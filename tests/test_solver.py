"""The moment evaluation map: exact solves, multiplicities, walls."""

import functools
import gc
import random
import weakref
from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import accumulate
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropical_refine import (CombinatorialType, Degree, DegenerateDegree,
                             DegenerateType, HalfLaurent, MomentVector,
                             NonGenericMoments, OutOfRange, TrialRecord,
                             TropicalError, Vec, build_delta_s, delta_d,
                             enumerate_types, evaluation_matrix,
                             invariance_audit, q_analog,
                             random_generic_moments, refined_count,
                             sample_trial, solve, solver)
from tropical_refine.lattice import MAX_ENDS
from test_invariants import (assert_matches_brute, degrees_with_moments,
                             with_fields)


def only_type(degree: Degree) -> CombinatorialType:
    types = list(enumerate_types(degree))
    assert len(types) == 1
    return types[0]


def test_evaluation_matrix_triangle(triangle):
    t = only_type(triangle)
    assert evaluation_matrix(t) == [[1, 0], [-1, 1]]


def test_solve_refuses_a_tree_whose_ends_do_not_sum_to_zero():
    # the ends sum to (2, 1), so no curve has them; solving the star
    # anyway gave a curve whose own verify() found its moments off
    tree = CombinatorialType((Vec(1, 0), Vec(1, 0), Vec(0, 1)),
                             ((0, 3), (1, 3), (2, 3)))
    with pytest.raises(DegenerateDegree,
                       match=r"^degree entries must sum to zero, "
                             r"got \(2, 1\)$"):
        solve(tree, MomentVector((1, 2)))


def test_evaluation_matrix_refuses_a_tree_whose_ends_do_not_sum_to_zero():
    # the public evaluation map checks the tree's balance as solve does,
    # instead of returning a matrix for ends that bound no curve
    tree = CombinatorialType((Vec(1, 0), Vec(1, 0), Vec(0, 1)),
                             ((0, 3), (1, 3), (2, 3)))
    with pytest.raises(DegenerateDegree,
                       match=r"^degree entries must sum to zero, "
                             r"got \(2, 1\)$"):
        evaluation_matrix(tree)


def test_a_count_past_the_end_bound_builds_no_table(monkeypatch):
    # 17 ends would take a split table of about 5 GB: every count path
    # refuses the degree before it builds one
    delta = build_delta_s(delta_d(6), Vec(-1, 0), 1)
    assert len(delta) == 17 == MAX_ENDS + 1

    def build(dirs):
        raise AssertionError("the split table was built")

    monkeypatch.setattr(solver, "_SplitTable", build)
    mu = MomentVector(tuple(range(1, 17)))
    with pytest.raises(OutOfRange, match=r"^a count of 17 ends is past "
                                         r"the bound of 16: "):
        refined_count(delta, mu)
    with pytest.raises(OutOfRange):
        invariance_audit(delta, trials=1, seed=1)


def test_solve_triangle_oracle(triangle, triangle_mu):
    sol = solve(only_type(triangle), triangle_mu)
    assert sol is not None
    assert sol.root == (Fraction(3), Fraction(5))
    assert sol.det_abs == 1
    assert sol.lengths == {}
    assert sol.end_moments() == (Fraction(-5), Fraction(3), Fraction(2))
    sol.verify()


@given(st.fractions(min_value=-50, max_value=50),
       st.fractions(min_value=-50, max_value=50))
def test_triangle_always_solves(mu2, mu3):
    triangle = Degree(((-1, 0), (0, -1), (1, 1)))
    sol = solve(only_type(triangle), MomentVector((mu2, mu3)))
    assert sol is not None
    # the vertex sits on the lines x = mu2 and x - y = -mu3
    assert sol.root == (mu2, mu2 + mu3)
    sol.verify()


def test_square_realizes_exactly_one_pairing(square, square_mu):
    realized = []
    for t in enumerate_types(square):
        if 0 in t.multiplicities().values():
            with pytest.raises(DegenerateType):
                solve(t, square_mu)
            continue
        sol = solve(t, square_mu)
        if sol is not None:
            realized.append(sol)
    assert len(realized) == 1
    sol = realized[0]
    assert sol.root == (Fraction(2), Fraction(-2))
    assert list(sol.lengths.values()) == [Fraction(5)]
    sol.verify()


def test_square_wall_detected(square):
    # all four boundary lines through one point: y = 1, y = 1, x = 2, x = 2
    wall_mu = MomentVector((Fraction(1), Fraction(2), Fraction(-2)))
    hits = 0
    for t in enumerate_types(square):
        if 0 in t.multiplicities().values():
            continue
        try:
            sol = solve(t, wall_mu)
        except NonGenericMoments:
            hits += 1
            continue
    assert hits > 0


def test_flat_type_is_degenerate(square, square_mu):
    flats = [t for t in enumerate_types(square)
             if 0 in t.multiplicities().values()]
    assert len(flats) == 1
    with pytest.raises(DegenerateType):
        solve(flats[0], square_mu)


def test_negative_length_returns_none(square):
    # moments picking the other pairing: exactly one of the two good
    # types must solve, the other must come out with a negative length
    mu = MomentVector((Fraction(3), Fraction(2), Fraction(-7)))
    good = [t for t in enumerate_types(square)
            if 0 not in t.multiplicities().values()]
    sols = [solve(t, mu) for t in good]
    assert sols.count(None) == 1


def test_determinant_factors_over_vertices(doubled_quad, doubled_quad_mu):
    for t in enumerate_types(doubled_quad):
        if 0 in t.multiplicities().values():
            continue
        try:
            sol = solve(t, doubled_quad_mu)
        except (DegenerateType, NonGenericMoments):
            continue
        if sol is None:
            continue
        mults = sol.ctype.multiplicities()
        prod = 1
        for m in mults.values():
            prod *= m
        assert sol.det_abs == prod
        sol.verify()


def test_determinant_mismatch_raises(doubled_quad, doubled_quad_mu,
                                     monkeypatch):
    ctype = next(t for t in enumerate_types(doubled_quad)
                 if 0 not in t.multiplicities().values())
    wrong = {v: m + 1 for v, m in ctype.multiplicities().items()}
    monkeypatch.setattr(CombinatorialType, "multiplicities",
                        lambda self: wrong)
    with pytest.raises(TropicalError, match="not the product"):
        solve(ctype, doubled_quad_mu)


def test_refined_multiplicity_of_weight_two_solution(doubled_quad,
                                                     doubled_quad_mu):
    from tropical_refine import HalfLaurent, refined_count
    n_trop, sols = refined_count(doubled_quad, doubled_quad_mu)
    assert len(sols) == 1
    assert sols[0].det_abs == 2
    assert sols[0].refined_multiplicity() == HalfLaurent({1: 1, -1: 1})
    assert n_trop == HalfLaurent({1: 1, -1: 1})


def test_solution_positions_connect_by_lengths(conic):
    from tropical_refine import random_generic_moments, refined_count
    mu = random_generic_moments(conic, 11)
    _, sols = refined_count(conic, mu)
    assert sols
    for sol in sols:
        pos = sol.positions()
        for (a, b), ln in sol.lengths.items():
            ax, ay = pos[a]
            bx, by = pos[b]
            slope = sol.ctype.slope(a, b)
            assert (bx - ax, by - ay) in ((ln * slope.x, ln * slope.y),
                                          (-ln * slope.x, -ln * slope.y))
            assert ln > 0


def test_refined_multiplicity_is_built_once(conic, conic_merged, monkeypatch):
    # in the third degree one multiset of multiplicities sits on the
    # vertices of different curves in different orders
    mixed = Degree(((1, 2), (2, 1), (-1, -1), (-1, -1), (-1, 0), (0, -1)))
    sols = [sol for delta in (conic, conic_merged, mixed) for seed in range(3)
            for sol in refined_count(delta, random_generic_moments(delta,
                                                                   seed))[1]]
    built = []
    monkeypatch.setattr(solver, "q_analog",
                        lambda m: built.append(m) or q_analog(m))
    monkeypatch.setattr(solver, "_q_product",
                        functools.cache(solver._q_product.__wrapped__))
    for sol in sols:
        first = sol.refined_multiplicity()
        assert sol.refined_multiplicity() is first
        want = HalfLaurent(1)
        for m in sol.ctype.multiplicities().values():
            want = want * q_analog(m)
        assert first == want
    # one product per distinct sorted multiplicity tuple, not per curve
    distinct = {tuple(sorted(sol.mults)) for sol in sols}
    assert len(distinct) < len({sol.mults for sol in sols})
    assert sorted(built) == sorted(m for t in distinct for m in t)


def test_verify_raises_domain_errors_on_drift(conic_merged):
    sol = sample_trial(conic_merged, 0).solutions[0]
    sol.verify()
    *rest, (x, y) = sol.points
    mu = sol.moments
    # a cherry (both children leaves) reflected through its parent moves
    # parallel to its edge, by a negative length
    order, parent, _ = sol.ctype.clades
    n = sol.ctype.n
    cherry = next(v for v in order[1:]
                  if all(w < n for w in sol.ctype.adjacency[v] if w != parent[v]))
    (ux, uy), (vx, vy) = sol.points[parent[cherry] - n], sol.points[cherry - n]
    reflected = list(sol.points)
    reflected[cherry - n] = (2 * ux - vx, 2 * uy - vy)
    drifts = [
        ("multiplicities", with_fields(
            sol, mults=(sol.mults[0] + 1,) + sol.mults[1:])),
        ("is not the least", with_fields(
            sol, points=tuple((2 * px, 2 * py) for px, py in sol.points),
            scale=2 * sol.scale)),
        ("edge lengths walked", with_fields(
            sol, points=(*rest, (x + sol.scale, y)))),
        ("not all positive", with_fields(sol, points=tuple(reflected))),
        ("moment mismatch", with_fields(sol, moments=MomentVector(
            (mu.values[0] + 1,) + mu.values[1:]))),
    ]
    for what, bad in drifts:
        with pytest.raises(TropicalError, match=what):
            bad.verify()


def test_solve_numbers_vertices_as_enumerate_types_does():
    # a type whose internal vertices carry other ids gives the same record,
    # whose tree, rebuilt from its splits, has enumerate_types' ids
    mu = random_generic_moments(delta_d(3), 1)
    sols = refined_count(delta_d(3), mu)[1]
    assert len(sols) > 1
    for sol in sols:
        ctype, n = sol.ctype, sol.ctype.n
        ids = {v: 3 * n - 3 - v for v in ctype.internal_vertices}
        relabelled = CombinatorialType(ctype.leaf_dirs, tuple(
            (ids.get(u, u), ids.get(v, v)) for u, v in ctype.edges))
        assert relabelled != ctype
        again = solve(relabelled, mu)
        assert again == sol and again.ctype == ctype
        again.verify()


# -- the per-degree split table of the count -------------------------------


def test_equal_degrees_give_identical_solutions(count_tables):
    first = Degree(delta_d(3).entries, name="equal twins")
    second = Degree(delta_d(3).entries, name="equal twins")
    assert first == second and first is not second
    for seed in range(3):
        mu = random_generic_moments(first, seed)
        assert refined_count(first, mu) == refined_count(second, mu)
    # equal degrees look up the same table
    assert count_tables == [first.entries]


def test_dropping_the_degree_frees_its_table(conic):
    delta = Degree(conic.entries, name="dropped")
    refined_count(delta, random_generic_moments(conic, 2))
    table = weakref.ref(solver._TABLES[delta])
    del delta
    gc.collect()
    assert table() is None


def unpruned_table(dirs) -> solver._SplitTable:
    """The split table with its dead rows kept: every split with d != 0,
    its coefficients over the lcm of all their |d|."""
    n = len(dirs)
    table = object.__new__(solver._SplitTable)
    sx = table.sx = solver._subset_sums([d.x for d in dirs[1:]])
    sy = table.sy = solver._subset_sums([d.y for d in dirs[1:]])
    found = []
    for mask in range(2, 1 << n, 2):
        low = mask & -mask
        rest = sub = mask ^ low
        rows = []
        while sub:
            sub = (sub - 1) & rest
            a, b = low | sub, mask ^ (low | sub)
            d = sx[a] * sy[b] - sy[a] * sx[b]
            if d:
                rows.append((a, b, d))
        if rows:
            found.append((mask, rows))
    table.scale = lcm(1, *(abs(d) for _, rows in found for *_, d in rows))
    table.splits = []
    for mask, rows in found:
        out = []
        for a, b, d in rows:
            f = table.scale // d
            xa, ya, xb, yb = sx[a], sy[a], sx[b], sy[b]
            out.append((a, b, f * (xa * xb + ya * yb),
                        f * (xa * xa + ya * ya), f * (xb * xb + yb * yb)))
        table.splits.append((mask, out))
    return table


@pytest.mark.parametrize("delta, kept, dropped", [
    (delta_d(4), 50_702, 7_231),
    (build_delta_s(delta_d(5), Vec(-1, 0), 2), 174_226, 26_768)],
    ids=["12-ends", "13-ends"])
def test_the_table_drops_exactly_the_dead_rows(delta, kept, dropped,
                                               monkeypatch):
    # a dead row has a side of two or more ends with no row of its own, so
    # it is never placed: dropping it changes no curve, nor their order
    table, full = solver._split_table(delta), unpruned_table(delta.entries)

    def rows(t):
        return sum(len(r) for _, r in t.splits)

    assert (rows(table), rows(full) - rows(table)) == (kept, dropped)
    has_rows = {mask for mask, _ in table.splits}
    assert all(side & (side - 1) == 0 or side in has_rows
               for _, out in table.splits for a, b, *_ in out
               for side in (a, b))
    records = [sample_trial(delta, seed) for seed in (0, 1)]
    want = [(rec.splits, rec.tally, rec.point_sets, rec.solutions)
            for rec in records]
    monkeypatch.setitem(solver._TABLES, delta, full)
    again = [TrialRecord(None, rec.moments, delta) for rec in records]
    assert [(rec.splits, rec.tally, rec.point_sets, rec.solutions)
            for rec in again] == want


# -- the one-comparison reject against a count that bisects every split ----


def strict_subtrees(placed_at, keys, mask, start):
    """The split tuples of the subtrees below `mask` whose top split is
    placed at `start` or later, each split strictly past its parent's key."""
    out = []
    for _, a, b, along_a, along_b, _ in placed_at[mask][start:]:
        left = (strict_subtrees(placed_at, keys, a,
                                bisect_right(keys[a], along_a))
                if a & (a - 1) else ((),))
        right = (strict_subtrees(placed_at, keys, b,
                                 bisect_right(keys[b], along_b))
                 if b & (b - 1) else ((),))
        out += [((a, b),) + lo + hi for lo in left for hi in right]
    return out


def bisecting_splits(delta, mu):
    """The split tuples of the curves through mu, in the count's order,
    each in vertex order (the vertex of (A, B) is n + low(B) - 2), or
    "wall": the count as it ran before the one-comparison reject.
    Every split looks up both children's counts by bisection, and every end
    set of two or more ends is sorted and summed; none is seeded. A wall is
    a shortfall: the backtracking, which takes only children strictly past
    their parent's key, finds fewer curves than the count of subtrees with
    every length >= 0."""
    n = len(delta.entries)
    table = solver._split_table(delta)
    scale = lcm(*(v.denominator for v in mu.values))
    moment = solver._subset_sums([v.numerator * (scale // v.denominator)
                                  for v in mu.values])
    placed_at, keys = [()] * (1 << n), [()] * (1 << n)
    count_from = [(0,)] * (1 << n)
    for j in range(1, n):
        count_from[1 << j] = (1,)
    for mask, rows in table.splits:
        placed = []
        for a, b, c, fa, fb in rows:
            ma, mb = moment[a], moment[b]
            along_a, along_b = ma * c - mb * fa, ma * fb - mb * c
            count = (count_from[a][bisect_left(keys[a], along_a)]
                     * count_from[b][bisect_left(keys[b], along_b)])
            if count:
                placed.append((along_a + along_b, a, b, along_a, along_b,
                               count))
        placed.sort()
        placed_at[mask], keys[mask] = placed, [row[0] for row in placed]
        count_from[mask] = [*accumulate((row[5] for row in placed[::-1]),
                                        initial=0)][::-1]
    full = (1 << n) - 2
    chosen = strict_subtrees(placed_at, keys, full, 0)
    if len(chosen) != count_from[full][0]:
        return "wall"
    return [tuple(sorted(splits, key=lambda split: split[1] & -split[1]))
            for splits in chosen]


def curve_splits(delta, mu):
    """The split tuples of the curves through mu, in the count's order, as
    their records hold them; or "wall"."""
    try:
        splits = solver._count(delta, mu)[0]
    except NonGenericMoments:
        return "wall"
    return [curve.splits for curve in solver._curves(delta, mu, splits)]


@settings(max_examples=40, deadline=None)
@given(degrees_with_moments(max_ends=9))
def test_the_reject_places_what_bisection_places(case):
    delta, mu = case
    assert curve_splits(delta, mu) == bisecting_splits(delta, mu)
    if len(delta) <= 7:
        assert_matches_brute(delta, mu)


@pytest.mark.parametrize("delta", [
    delta_d(4), build_delta_s(delta_d(5), Vec(-1, 0), 2)],
    ids=["12-ends", "13-ends"])
def test_the_reject_places_what_bisection_places_above_brute_force(delta):
    for seed in (1, 2):
        mu = random_generic_moments(delta, seed)
        want = bisecting_splits(delta, mu)
        assert len(want) > 100 and curve_splits(delta, mu) == want
    # moments of size at most 6 put many vertices on few lines: each of
    # these draws is a wall, which the backtracking meets where a child
    # split sits at its parent's key
    rng = random.Random(len(delta))
    for _ in range(4):
        mu = MomentVector(tuple(Fraction(rng.randint(-6, 6))
                                for _ in range(len(delta) - 1)))
        assert curve_splits(delta, mu) == bisecting_splits(delta, mu) == "wall"

