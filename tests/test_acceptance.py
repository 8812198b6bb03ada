"""Acceptance suite: ten exact, timed criteria over the whole pipeline.

Every criterion prints one [PASS]/[FAIL] line on the real stdout so the
verdicts survive pytest's capture, and the file runs standalone too:

    python tests/test_acceptance.py

All equality checks are exact; the only tolerances are the stated wall-clock
bounds.
"""

import functools
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

from tropical_refine import (CombinatorialType, Degree, DegenerateType,
                             HalfLaurent, Vec, WeightedPlaneParam,
                             build_delta_s, build_split, delta_d,
                             double_factorial_count, enumerate_types,
                             evaluation_matrix, invariance_audit, m_prime,
                             maximal_split, quad_indices, quad_refined_sum,
                             quotient_curve, r_from_n, random_generic_moments,
                             refined_count, solve, w_pow_minus_inverse)
from tropical_refine.cli import main as cli_main

# the independent tree generator of criterion 7 is test_trees' oracle
from test_trees import brute_force_keys, generic_degree

TRIANGLE = Degree(((-1, 0), (0, -1), (1, 1)))
SQUARE = Degree(((-1, 0), (1, 0), (0, -1), (0, 1)))
CONIC = delta_d(2)
MERGED_CONIC = build_delta_s(delta_d(2), Vec(-1, 0), 1)
DOUBLED_QUAD = Degree(((-2, 0), (0, -1), (1, 1), (1, 0)))
TWICE_SPLIT = Degree(((1, 1), (1, 1), (1, -1), (1, -1), (-2, 0), (-2, 0)))

AUDIT_TRIALS = 20
AUDIT_SEED = 7


# One line per criterion; the conftest terminal-summary hook replays these
# after the run so they survive pytest's file-descriptor capture.
VERDICTS: list = []


def _emit(num: int, label: str, detail: str, ok: bool) -> None:
    tag = "PASS" if ok else "FAIL"
    line = f"[{tag}] criterion {num}: {label}"
    if detail:
        line += f" ({detail})"
    VERDICTS.append(line)
    print(line, file=sys.__stdout__, flush=True)


def criterion(num: int, label: str):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper():
            try:
                detail = fn()
            except BaseException:
                _emit(num, label, "", ok=False)
                raise
            _emit(num, label, detail or "", ok=True)
        return wrapper
    return deco


@functools.lru_cache(maxsize=None)
def audited_reports():
    """The criterion-2 audit corpus, shared by criteria 2, 4 and 9."""
    start = time.perf_counter()
    reports = tuple(
        invariance_audit(delta, trials=AUDIT_TRIALS, seed=AUDIT_SEED)
        for delta in (TRIANGLE, SQUARE, CONIC, MERGED_CONIC))
    return reports, time.perf_counter() - start


def mirror(f: HalfLaurent) -> HalfLaurent:
    """The image of f under q -> 1/q."""
    return HalfLaurent.from_json_pairs([[-k, c] for k, c in f.to_json_pairs()])


@criterion(1, "forced base case N = 1, R = q^1/2 - q^-1/2")
def test_criterion_01_base_case():
    mu = random_generic_moments(TRIANGLE, 0)
    best = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        n_trop, sols = refined_count(TRIANGLE, mu)
        r_inv = r_from_n(n_trop, 3, 0)
        best = min(best, time.perf_counter() - start)
    assert n_trop == HalfLaurent(1)
    assert len(sols) == 1
    assert r_inv == w_pow_minus_inverse(1)
    assert str(r_inv) == "q^1/2 - q^-1/2"
    assert best < 0.001
    return f"best of 5: {best * 1000:.3f} ms"


@criterion(2, "N identical across 20 seeded constraints for 4 degrees")
def test_criterion_02_invariance():
    assert double_factorial_count(6) == 105   # types per conic trial
    assert double_factorial_count(5) == 15    # types per merged-conic trial
    reports, elapsed = audited_reports()
    for report in reports:
        assert report.trials == AUDIT_TRIALS
        seeds = {rec.seed for rec in report.trial_records}
        assert len(seeds) == AUDIT_TRIALS
        for rec in report.trial_records:
            assert rec.n_trop == report.n_trop
    assert elapsed < 10.0
    return f"4 degrees x {AUDIT_TRIALS} trials in {elapsed:.2f} s"


def _det_abs(matrix) -> int:
    """|det| by exact fraction elimination, independent of the solver."""
    mat = [[Fraction(v) for v in row] for row in matrix]
    size = len(mat)
    det = Fraction(1)
    for col in range(size):
        pivot = next((r for r in range(col, size) if mat[r][col]), None)
        if pivot is None:
            return 0
        if pivot != col:
            mat[col], mat[pivot] = mat[pivot], mat[col]
        det *= mat[col][col]
        for r in range(col + 1, size):
            factor = mat[r][col] / mat[col][col]
            for c in range(col, size):
                mat[r][c] -= factor * mat[col][c]
    assert abs(det).denominator == 1
    return int(abs(det))


@criterion(3, "determinants factor over vertices, moments reproduce exactly")
def test_criterion_03_determinant_factorization():
    attempts = 0
    accepted = 0
    for delta in (CONIC, MERGED_CONIC, SQUARE, DOUBLED_QUAD):
        types = list(enumerate_types(delta))
        products = {}
        for ctype in types:
            product = 1
            for mult in ctype.multiplicities().values():
                product *= mult
            # a flat vertex zeroes both sides, so equality holds for
            # every type, singular or not
            assert _det_abs(evaluation_matrix(ctype)) == product
            products[ctype.canonical_key()] = product
        for seed in range(8):
            mu = random_generic_moments(delta, seed)
            for ctype in types:
                attempts += 1
                try:
                    sol = solve(ctype, mu)
                except DegenerateType:
                    assert products[ctype.canonical_key()] == 0
                    continue
                assert products[ctype.canonical_key()] > 0
                if sol is None:
                    continue
                accepted += 1
                assert sol.det_abs == products[ctype.canonical_key()]
                assert sol.end_moments() == mu.full()
                assert sum(sol.end_moments(), Fraction(0)) == 0
                sol.verify()
    assert attempts >= 1000
    return f"{attempts} solves, {accepted} accepted curves"


@criterion(4, "both theorem forms give one R; q -> 1/q fixes N and R")
def test_criterion_04_theorem_consistency():
    reports, _ = audited_reports()
    w_minus = w_pow_minus_inverse(1)
    w_plus = HalfLaurent({1: 1, -1: 1})
    q_minus = w_pow_minus_inverse(2)
    for report in reports:
        n_trop, m, s = report.n_trop, report.m, report.s
        form_a = (n_trop * w_minus ** (m - 2 - s)).exact_div(q_minus ** s)
        form_b = (n_trop * w_minus ** (m - 2 - 2 * s)).exact_div(w_plus ** s)
        assert form_a == form_b == report.r_inv == r_from_n(n_trop, m, s)
        assert mirror(n_trop) == n_trop
        assert n_trop.is_symmetric()
        # q -> 1/q negates each w - 1/w factor, so it fixes R exactly up
        # to the parity of m; the triangle (m = 3) exercises the odd case.
        assert mirror(report.r_inv) == report.r_inv * HalfLaurent((-1) ** m)
        assert report.r_inv.is_symmetric() == (m % 2 == 0)
    return "4 audited degrees"


@criterion(5, "per-curve bridge m'/4 * (q - 1/q)^s = (w - 1/w)^(m-2-s) m^q")
def test_criterion_05_per_curve_bridge():
    checked = 0
    for delta_s, m, s in ((MERGED_CONIC, 6, 1), (DOUBLED_QUAD, 5, 1)):
        scale = HalfLaurent(4) * w_pow_minus_inverse(1) ** (m - 2 - s)
        for seed in range(10):
            mu = random_generic_moments(delta_s, seed)
            n_trop, sols = refined_count(delta_s, mu)
            total = HalfLaurent(0)
            for sol in sols:
                split = maximal_split(WeightedPlaneParam.from_solution(sol))
                mp = m_prime(split, sol.ctype.multiplicities())
                assert mp * w_pow_minus_inverse(2) ** s == (
                    scale * sol.refined_multiplicity())
                total = total + mp
                checked += 1
            assert total.exact_div(HalfLaurent(4)) == r_from_n(n_trop, m, s)
    return f"{checked} curves over 2 degrees x 10 seeds"


@criterion(6, "quadrivalent index identities for m1 <= 50, delta <= 5")
def test_criterion_06_quadrivalent_identities():
    start = time.perf_counter()
    assert quad_indices(2, 1) == [-1, 1]
    assert quad_refined_sum(2, 1) == HalfLaurent({2: 1, -2: 1})   # q + 1/q
    for m1 in range(1, 51):
        for delta in range(1, 6):
            indices = quad_indices(m1, delta)
            assert indices == [-k for k in reversed(indices)]
            total = quad_refined_sum(m1, delta)
            lhs = total * (HalfLaurent.q_power(delta)
                           - HalfLaurent.q_power(-delta))
            rhs = (HalfLaurent.q_power(delta * m1)
                   - HalfLaurent.q_power(-delta * m1))
            assert lhs == rhs
            assert total.eval_q1() == m1
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    return f"250 tables in {elapsed:.3f} s"


@criterion(7, "tree counts match (2n-5)!! and an independent generator")
def test_criterion_07_tree_enumeration():
    for n in range(3, 9):
        got = [t.canonical_key() for t in enumerate_types(generic_degree(n))]
        assert len(got) == len(set(got)) == double_factorial_count(n)
        if n <= 6:
            assert set(got) == brute_force_keys(n)
    start = time.perf_counter()
    count = sum(1 for _ in enumerate_types(generic_degree(9)))
    elapsed = time.perf_counter() - start
    assert count == double_factorial_count(9) == 135135
    assert elapsed < 5.0
    return f"n = 9 gives 135135 types in {elapsed:.2f} s"


@criterion(8, "quotient inverts splitting; maximal splits have s quads")
def test_criterion_08_split_round_trip():
    roundtrips = 0

    def roundtrip(split, base):
        nonlocal roundtrips
        assert quotient_curve(split) == base
        roundtrips += 1

    for delta_s, s, seeds in ((TRIANGLE, 0, 3), (SQUARE, 0, 3),
                              (MERGED_CONIC, 1, 20), (DOUBLED_QUAD, 1, 20),
                              (TWICE_SPLIT, 2, 2)):
        for seed in range(seeds):
            mu = random_generic_moments(delta_s, seed)
            _, sols = refined_count(delta_s, mu)
            for sol in sols:
                base = WeightedPlaneParam.from_solution(sol)
                split = maximal_split(base)
                assert split.flat_nodes == ()
                assert split.is_realizable
                assert len(split.quad_vertices) == s
                roundtrip(split, base)
                if s:
                    cuts = [(base.tree.end_edge(leaf), Fraction(1, 3))
                            for leaf in base.even_leaves()]
                    roundtrip(build_split(base, cuts), base)

    # hand-built parametrizations: a deeper even subgraph, and two even
    # components cut at their vertices or inside their ends
    base = WeightedPlaneParam(CombinatorialType(
        (Vec(3, 1), Vec(1, -1), Vec(-2, 0), Vec(-2, 0)),
        ((0, 4), (1, 4), (4, 5), (2, 5), (3, 5))))
    for off in (Fraction(1, 2), Fraction(3, 2), Fraction(5, 2)):
        roundtrip(build_split(base, [((4, 5), off)]), base)
    for off2 in (Fraction(0), Fraction(1, 3), Fraction(2)):
        for off3 in (Fraction(0), Fraction(1, 3), Fraction(2)):
            if (off2 == 0) != (off3 == 0):
                continue   # a lone vertex cut strands the other end
            split = build_split(base, [((2, 5), off2), ((3, 5), off3)])
            roundtrip(split, base)
    base = WeightedPlaneParam(CombinatorialType(
        (Vec(1, 1), Vec(1, 1), Vec(1, -1), Vec(1, -1), Vec(-2, 0),
         Vec(-2, 0)),
        ((0, 6), (4, 6), (6, 7), (1, 7), (7, 8), (2, 8), (8, 9), (3, 9),
         (5, 9))))
    for off1 in (Fraction(0), Fraction(1, 2)):
        for off2 in (Fraction(0), Fraction(2)):
            roundtrip(build_split(base, [((4, 6), off1), ((5, 9), off2)]),
                      base)
    assert roundtrips >= 100
    return f"{roundtrips} round trips"


@criterion(9, "eval at q = 1 equals the integer count in every trial")
def test_criterion_09_q1_specialization():
    reports, _ = audited_reports()
    trials = 0
    for report in reports:
        for rec in report.trial_records:
            classical = sum(sol.det_abs for sol in rec.solutions)
            assert rec.n_trop.eval_q1() == classical
            trials += 1
    assert trials == 4 * AUDIT_TRIALS
    return f"{trials} trials"


@criterion(10, "identical seeds produce byte-identical JSON and SVG")
def test_criterion_10_determinism():
    conic = "-1,0;-1,0;0,-1;0,-1;1,1;1,1"
    quad = "-2,0;0,-1;1,1;1,0"
    runs = (
        ["enumerate", f"--degree={conic}", "--seed", "11"],
        ["invariant", f"--degree={conic}", "--s", "1", "--trials", "6"],
        ["realize", f"--degree={quad}", "--seed", "3"],
        ["plot", f"--degree={quad}", "--seed", "3"],
        ["quantum", "--m1", "7", "--delta", "3"],
    )
    with tempfile.TemporaryDirectory() as tmp:
        for k, argv in enumerate(runs):
            first = Path(tmp) / f"{k}-first.out"
            second = Path(tmp) / f"{k}-second.out"
            assert cli_main(argv + ["--out", str(first)]) == 0
            assert cli_main(argv + ["--out", str(second)]) == 0
            payload = first.read_bytes()
            assert payload
            assert payload == second.read_bytes()
    return f"{len(runs)} artifact pairs"


CRITERIA = (
    test_criterion_01_base_case,
    test_criterion_02_invariance,
    test_criterion_03_determinant_factorization,
    test_criterion_04_theorem_consistency,
    test_criterion_05_per_curve_bridge,
    test_criterion_06_quadrivalent_identities,
    test_criterion_07_tree_enumeration,
    test_criterion_08_split_round_trip,
    test_criterion_09_q1_specialization,
    test_criterion_10_determinism,
)


def main() -> int:
    failures = 0
    for fn in CRITERIA:
        try:
            fn()
        except Exception:
            failures += 1
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
