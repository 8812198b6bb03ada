"""Mutation gate: each mutant is one exact text replacement in `src/`, and
the test files named with it must fail on the mutated copy.

    python3 tests/mutants.py

For each mutant the script copies `src/` to a temporary directory, replaces
the mutant's old text, which must occur exactly once in its file, and runs
pytest on the mutant's test files with `PYTHONPATH` (and pytest's
`pythonpath` setting) pointing at the copy. A mutant is killed when a test
fails (pytest exits 1) or the run passes TIMEOUT_S, and survives when every
test passes (exit 0). Any other exit, such as a collection error or no
tests collected, tested nothing: the gate stops there with an error.

The first mutant is a control that changes only a comment and must
survive, on every test file the other mutants name. If one of those files
already fails on an unmutated copy, the control reads killed and the gate
fails, instead of counting every mutant as killed.

The script prints one JSON line per mutant: its name, the expected and the
actual outcome, the first failing test, pytest's exit status and the
seconds taken. It exits 1 if a mutant's outcome is not the expected one.
Standard library only; pytest does not collect this file, and
`tests/test_mutants.py` checks that every old text is still in the source.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
TIMEOUT_S = 600


class Mutant(NamedTuple):
    name: str
    path: str           # relative to src/
    old: str
    new: str
    tests: tuple[str, ...]      # relative to the repository root
    expect_killed: bool


MUTANTS = (
    # a comment only: the named tests must pass on the copy
    Mutant("control-changes-a-comment", "tropical_refine/invariants.py",
           "Q_PLUS = HalfLaurent({2: 1, -2: 1})",
           "Q_PLUS = HalfLaurent({2: 1, -2: 1})  # control",
           ("tests/test_solver.py", "tests/test_invariants.py",
            "tests/test_realsplit.py", "tests/test_trees.py"), False),
    # a child split at its parent's key is a wall; without the raise the
    # count returns a curve with an edge of length zero
    Mutant("solver-drops-the-tie-raise", "tropical_refine/solver.py",
           "    if rows[i][0] == along:\n"
           "        raise NonGenericMoments(\"an edge length vanishes; "
           "resample moments\")\n",
           "",
           ("tests/test_solver.py", "tests/test_invariants.py"), True),
    # a probe past the parent's key skips the rows that tie with it
    Mutant("solver-probes-past-the-key", "tropical_refine/solver.py",
           "bisect_left(rows, (along,))", "bisect_left(rows, (along + 1,))",
           ("tests/test_solver.py", "tests/test_invariants.py"), True),
    # vertex n of every counted curve moves in x by the running gcd, a
    # multiple of the g the record divides by, so by one or more units of
    # the record's scale (a unit of 1 would vanish in that division
    # whenever g > 1)
    Mutant("solver-moves-a-vertex-point", "tropical_refine/solver.py",
           "points[i] = split, mult[split], (x, y)",
           "points[i] = split, mult[split], (x + (i == 0) * g, y)",
           ("tests/test_solver.py", "tests/test_invariants.py"), True),
    # the count's pass over its split tuples skips the last curve: a
    # trial's N and tally miss that curve's term
    Mutant("solver-tally-drops-the-last-curve", "tropical_refine/solver.py",
           "for found in splits:", "for found in splits[:-1]:",
           ("tests/test_invariants.py",), True),
    # the guard compares splits, not vertex points: two curves with one
    # point set but different splits no longer coincide
    Mutant("solver-guard-compares-splits", "tropical_refine/solver.py",
           "point_sets.add(tuple(sorted(map(place.__getitem__, found))))",
           "point_sets.add(tuple(sorted(found)))",
           ("tests/test_invariants.py",), True),
    # q + 1/q written as w + 1/w: only BG reads it
    Mutant("invariants-wrong-q-plus", "tropical_refine/invariants.py",
           "Q_PLUS = HalfLaurent({2: 1, -2: 1})",
           "Q_PLUS = HalfLaurent({1: 1, -1: 1})",
           ("tests/test_invariants.py",), True),
    # a tree whose ends do not sum to zero is solved as if it bounded a
    # curve
    Mutant("trees-drops-the-balance-check", "tropical_refine/trees.py",
           "        _balanced(self.leaf_dirs)\n", "",
           ("tests/test_solver.py",), True),
    # the walk that checks a tree takes one whose edges leave some vertex
    # out of reach of leaf 0
    Mutant("trees-walk-admits-a-detached-part", "tropical_refine/trees.py",
           "if len(parent) != 2 * n - 3:", "if len(parent) > 2 * n - 3:",
           ("tests/test_trees.py",), True),
    # each numerator is scaled by scale // q, exact only for a pair in
    # lowest terms, as a Fraction's is: a drawn 4/6 over scale 3 is held
    # as 0, and the drawn vector is no longer that of its Fractions
    Mutant("lattice-scales-an-unreduced-pair", "tropical_refine/lattice.py",
           "tuple([p * scale // q for p, q in pairs])",
           "tuple([p * (scale // q) for p, q in pairs])",
           ("tests/test_invariants.py",), True),
    # an end of weight 0 passes the one weight check
    Mutant("lattice-admits-weight-zero", "tropical_refine/lattice.py",
           "if w not in (1, 2):", "if w not in (0, 1, 2):",
           ("tests/test_realsplit.py",), True),
    # too few moments pass the one moment-count check
    Mutant("lattice-admits-too-few-moments", "tropical_refine/lattice.py",
           "    if k != n:\n        raise LengthMismatch",
           "    if k > n:\n        raise LengthMismatch",
           ("tests/test_invariants.py",), True),
    # every quadrivalent index lands one half-exponent too high
    Mutant("realsplit-shifts-the-quad-exponents",
           "tropical_refine/realsplit.py",
           "HalfLaurent({2 * idx: 1 for idx",
           "HalfLaurent({2 * idx + 1: 1 for idx",
           ("tests/test_realsplit.py",), True),
    # the weight check stops at the first weight-1 end, so a bad end after
    # it is never read
    Mutant("realsplit-weight-check-stops-early",
           "tropical_refine/realsplit.py",
           "if 1 not in [_end_weight(d) for d in tree.leaf_dirs]:",
           "if 1 not in (_end_weight(d) for d in tree.leaf_dirs):",
           ("tests/test_realsplit.py",), True),
)

# pytest's exit statuses that decide a mutant: a test failed, every test
# passed; a run past TIMEOUT_S (status None) also kills it
KILLED, SURVIVED = 1, 0


def occurrences(mutant: Mutant) -> int:
    """How often the mutant's old text occurs in its file under src/."""
    return (SRC / mutant.path).read_text(encoding="utf-8").count(mutant.old)


def run(mutant: Mutant) -> dict:
    """Apply the mutant to a copy of src/ and run its tests on the copy."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
        target = src / mutant.path
        text = target.read_text(encoding="utf-8")
        if text.count(mutant.old) != 1:
            raise SystemExit(f"{mutant.name}: the old text occurs "
                             f"{text.count(mutant.old)} times in "
                             f"{mutant.path}")
        target.write_text(text.replace(mutant.old, mutant.new),
                          encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": str(src),
               "PYTHONDONTWRITEBYTECODE": "1"}
        # the project's pytest settings put src/ on the path: point them
        # at the copy too
        command = [sys.executable, "-m", "pytest", "-q", "-x",
                   "-p", "no:cacheprovider", "-o", f"pythonpath={src}",
                   *mutant.tests]
        start = time.perf_counter()
        try:
            proc = subprocess.run(command, cwd=ROOT, env=env,
                                  capture_output=True, text=True,
                                  timeout=TIMEOUT_S)
            status, out = proc.returncode, proc.stdout + proc.stderr
        except subprocess.TimeoutExpired:
            status, out = None, ""
        seconds = time.perf_counter() - start
    if status not in (KILLED, SURVIVED, None):
        raise SystemExit(f"{mutant.name}: pytest exited {status} and "
                         f"decided nothing\n{out[-2000:]}")
    failures = [line.split(" - ")[0].split(" ", 1)[1]
                for line in out.splitlines()
                if line.startswith(("FAILED ", "ERROR "))]
    return {"mutant": mutant.name, "killed": status != SURVIVED,
            "expected": "killed" if mutant.expect_killed else "survives",
            "status": status, "seconds": round(seconds, 1),
            "killed_by": failures[0] if failures else None,
            "tests": list(mutant.tests)}


def main() -> int:
    failed = False
    for mutant in MUTANTS:
        result = run(mutant)
        print(json.dumps(result, sort_keys=True), flush=True)
        failed |= result["killed"] != mutant.expect_killed
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
