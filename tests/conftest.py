"""Shared degrees and moment constraints used across the suite."""

import importlib.util
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import tropical_refine
from tropical_refine import Degree, HalfLaurent, MomentVector

BENCH = Path(__file__).resolve().parents[1] / "bench"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Replay the acceptance verdicts after the run; capture would otherwise
    swallow the one [PASS]/[FAIL] line each criterion prints."""
    mod = (sys.modules.get("test_acceptance")
           or sys.modules.get("tests.test_acceptance"))
    verdicts = getattr(mod, "VERDICTS", None)
    if verdicts:
        terminalreporter.section("acceptance criteria")
        for line in verdicts:
            terminalreporter.line(line)


@pytest.fixture
def triangle() -> Degree:
    """Smallest degree: one curve, one vertex, multiplicity one."""
    return Degree(((-1, 0), (0, -1), (1, 1)))


@pytest.fixture
def square() -> Degree:
    return Degree(((-1, 0), (1, 0), (0, -1), (0, 1)))


@pytest.fixture
def conic() -> Degree:
    """Six primitive ends, two per direction of the triangle fan."""
    return Degree(((-1, 0), (-1, 0), (0, -1), (0, -1), (1, 1), (1, 1)))


@pytest.fixture
def conic_merged() -> Degree:
    """The conic with its two (-1,0) ends merged into one weight-2 end."""
    return Degree(((0, -1), (0, -1), (1, 1), (1, 1), (-2, 0)))


@pytest.fixture
def doubled_quad() -> Degree:
    """Four ends, one of weight 2; the smallest degree with s = 1."""
    return Degree(((-2, 0), (0, -1), (1, 1), (1, 0)))


@pytest.fixture
def named_degrees(triangle, square, conic, conic_merged, doubled_quad) -> dict:
    """Every degree of this file and of the benchmark's reference table
    (`bench/reference.py`), by name; where both use a name, this file's."""
    spec = importlib.util.spec_from_file_location("bench_reference",
                                                  BENCH / "reference.py")
    reference = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(reference)
    return {**reference.build_degrees(tropical_refine), "triangle": triangle,
            "square": square, "conic": conic, "conic_merged": conic_merged,
            "doubled_quad": doubled_quad}


@pytest.fixture
def triangle_mu() -> MomentVector:
    return MomentVector((Fraction(3), Fraction(2)))


@pytest.fixture
def square_mu() -> MomentVector:
    return MomentVector((Fraction(3), Fraction(2), Fraction(-7)))


@pytest.fixture
def doubled_quad_mu() -> MomentVector:
    return MomentVector((Fraction(1), Fraction(1), Fraction(10)))


@pytest.fixture
def count_solves(monkeypatch):
    """Counters, from here on, of counts ("solves": calls of the one count
    step, `solver._count`, where `invariants` looks it up) and of
    moments drawn by sampling ("draws"; n - 1 per attempt). Counts whose
    1-based number is in the set "walls" raise NonGenericMoments instead, as
    a constraint on a wall would."""
    from tropical_refine import NonGenericMoments, invariants

    counts = {"solves": 0, "draws": 0, "walls": set()}
    real_count = invariants._count
    real_draw = invariants.moment_from_draw

    def count(delta, mu):
        counts["solves"] += 1
        if counts["solves"] in counts["walls"]:
            raise NonGenericMoments("forced wall")
        return real_count(delta, mu)

    def moment_from_draw(draw):
        counts["draws"] += 1
        return real_draw(draw)

    monkeypatch.setattr(invariants, "_count", count)
    monkeypatch.setattr(invariants, "moment_from_draw", moment_from_draw)
    return counts


@pytest.fixture
def count_divisions(monkeypatch):
    """The divisor of every `HalfLaurent.exact_div` call from here on. The
    theorem's memo starts empty, so the count does not depend on which
    tests ran before."""
    tropical_refine.invariants._r_and_bg.cache_clear()
    calls = []
    real = HalfLaurent.exact_div

    def counted(self, den):
        calls.append(den)
        return real(self, den)

    monkeypatch.setattr(HalfLaurent, "exact_div", counted)
    return calls


@pytest.fixture
def count_tables(monkeypatch):
    """The end directions of every split table the count builds from here
    on, one entry per build."""
    from tropical_refine import solver

    built = []
    real_table = solver._SplitTable

    def build(dirs):
        built.append(dirs)
        return real_table(dirs)

    monkeypatch.setattr(solver, "_SplitTable", build)
    return built
