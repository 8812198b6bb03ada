"""Byte-for-byte golden outputs of the CLI, run in process.

Every seeded output of `enumerate`, `realize` and `invariant` (json and
text) and of `plot` (svg and json), at seeds 0-5 on the six benchmark
degrees and at a few seeds on the 9-end cubic (s = 0 and 1) and the 12-end
quartic, plus `quantum` tables and the error lines of malformed input and
of usage errors, is hashed to one SHA-256 per (case, command, format) and
compared against `golden.json`. A change that keeps every output byte the
same keeps this test green. After a deliberate output change, rebuild the
table with

    PYTHONPATH=src python3 tests/test_golden.py > tests/golden.json
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from tropical_refine import TropicalError, refined_count, sample_trial
from tropical_refine.cli import load_degree, main

GOLDEN_PATH = Path(__file__).with_name("golden.json")
SEEDS = range(6)

# the degrees of the benchmark's reference table, entries written out
DEGREES = {
    "delta_2": "-1,0;-1,0;0,-1;0,-1;1,1;1,1",
    "conic_merged": "0,-1;0,-1;1,1;1,1;-2,0",
    "six_ends_s2": "1,1;1,1;1,-1;1,-1;-2,0;-2,0",
    "six_ends_s1": "0,-1;0,-1;1,1;1,0;0,1;-2,0",
    "seven_ends_s1": "-1,0;0,-1;0,-1;1,1;1,1;1,0;-2,0",
    "four_ends_s1": "-2,0;0,-1;1,1;1,0",
}
# above seven ends, few seeds: (label, degree, --s, seeds)
LARGE = (
    ("cubic_s0", "-1,0;-1,0;-1,0;0,-1;0,-1;0,-1;1,1;1,1;1,1", 0, (1, 2, 3)),
    ("cubic_s1", "-1,0;-1,0;-1,0;0,-1;0,-1;0,-1;1,1;1,1;1,1", 1, (1, 2, 3)),
    ("quartic", "-1,0;-1,0;-1,0;-1,0;0,-1;0,-1;0,-1;0,-1;1,1;1,1;1,1;1,1",
     0, (1, 2)),
)
SEEDED = (("enumerate", "json"), ("enumerate", "text"),
          ("realize", "json"), ("realize", "text"),
          ("invariant", "json"), ("invariant", "text"),
          ("plot", "svg"), ("plot", "json"))
QUANTUM = ((1, 1), (2, 1), (3, 2), (4, 3), (7, 1))
ERRORS = {
    "menelaus": ["enumerate", "--degree=-1,0;0,-1;1,1",
                 "--moments", "1,3,2"],
    "degree_arity": ["enumerate", "--degree", "[[1,0,0],[0,1],[-1,-1]]"],
    "degree_bool": ["enumerate", "--degree",
                    "[[true,false],[-1,0],[0,1],[0,-1]]"],
    "degree_float": ["realize", "--degree", "[[1.0,0],[0,1],[-1,-1]]"],
    "zero_denominator": ["enumerate", "--degree=-1,0;0,-1;1,1",
                         "--moments=1/0,2"],
    "flag_not_read": ["quantum", "--m1", "2", "--seed", "4"],
    "moments_and_seed": ["enumerate", "--degree=-1,0;0,-1;1,1",
                         "--moments", "3,2", "--seed", "9"],
    "n1_without_s": ["realize", "--degree=-1,0;-1,0;0,-1;0,-1;1,1;1,1",
                     "--n1=-1,0"],
}


def _run(argv) -> bytes:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return f"exit {code}\n{out.getvalue()}".encode()


def _digest(runs) -> str:
    h = hashlib.sha256()
    for argv in runs:
        h.update(_run(argv))
    return h.hexdigest()


def cases() -> dict:
    """(case key) -> list of argv lists whose outputs are hashed together."""
    out = {}
    for label, degree in DEGREES.items():
        for command, fmt in SEEDED:
            out[f"{label}/{command}/{fmt}"] = [
                [command, f"--degree={degree}", "--seed", str(seed),
                 "--format", fmt] for seed in SEEDS]
    for label, degree, s, seeds in LARGE:
        for command, fmt in SEEDED:
            out[f"{label}/{command}/{fmt}"] = [
                [command, f"--degree={degree}", "--s", str(s), "--seed",
                 str(seed), "--format", fmt] for seed in seeds]
    for fmt in ("json", "text"):
        out[f"quantum/{fmt}"] = [
            ["quantum", "--m1", str(m1), "--delta", str(delta),
             "--format", fmt] for m1, delta in QUANTUM]
    for name, argv in ERRORS.items():
        out[f"error/{name}"] = [argv]
    return out


def derive() -> dict:
    return {key: _digest(runs) for key, runs in cases().items()}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(cases())
    assert sum(len(runs) for key, runs in cases().items()
               if key.split("/")[0] in DEGREES) == 288
    assert sum(len(runs) for key, runs in cases().items()
               if key.split("/")[0] in {label for label, *_ in LARGE}) == 64


@pytest.mark.parametrize("key", sorted(cases()))
def test_output_matches_golden(golden, key):
    assert _digest(cases()[key]) == golden[key]


def test_invariant_builds_no_tree(golden, monkeypatch):
    # `invariant` reads N and the curve counts only, so with every tree
    # rebuild refused its outputs keep their golden bytes
    from tropical_refine import solver, trees

    def rebuilt(*_):
        raise TropicalError("a tree was built")

    monkeypatch.setattr(solver, "type_from_clades", rebuilt)
    monkeypatch.setattr(trees, "type_from_clades", rebuilt)
    keys = [key for key in cases() if "/invariant/" in key]
    assert len(keys) == 2 * (len(DEGREES) + len(LARGE))
    for key in keys:
        assert _digest(cases()[key]) == golden[key], key
    # the guard is live: `enumerate` prints every curve's tree
    assert b"a tree was built" in _run(["enumerate", "--degree="
                                        + DEGREES["delta_2"]])


@pytest.mark.parametrize("label", DEGREES)
def test_trial_solutions_are_the_counted_curves(label, count_solves):
    # a record's solutions are those refined_count gives for its moments, and
    # reading them adds no count
    delta = load_degree(DEGREES[label])
    for seed in SEEDS:
        record = sample_trial(delta, seed)
        counted = count_solves["solves"]
        sols = record.solutions
        assert count_solves["solves"] == counted
        assert record.solutions is sols
        assert sols == tuple(refined_count(delta, record.moments)[1])


if __name__ == "__main__":
    json.dump(derive(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
