"""The mutation gate's mutants still match the source they mutate."""

import importlib.util
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent


def _mutants():
    spec = importlib.util.spec_from_file_location("mutants",
                                                  HERE / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


MUTANTS = _mutants()


@pytest.mark.parametrize("mutant", MUTANTS.MUTANTS,
                         ids=[m.name for m in MUTANTS.MUTANTS])
def test_each_mutant_changes_one_place_under_src(mutant):
    # an edit that moves or rewrites the mutated text would make the gate
    # refuse to run that mutant; its old text must occur exactly once
    # under src/, and its tests must exist
    hits = [path for path in sorted(MUTANTS.SRC.rglob("*.py"))
            if mutant.old in path.read_text(encoding="utf-8")]
    assert hits == [MUTANTS.SRC / mutant.path]
    assert MUTANTS.occurrences(mutant) == 1
    assert mutant.new != mutant.old
    assert all((MUTANTS.ROOT / test).is_file() for test in mutant.tests)


def test_mutant_names_are_distinct():
    names = [m.name for m in MUTANTS.MUTANTS]
    assert len(set(names)) == len(names)


def test_the_control_comes_first_and_covers_every_test_file():
    # a control that must survive shows the named test files pass on an
    # unmutated copy; run first, on all of them, it vouches for each kill
    control, *mutants = MUTANTS.MUTANTS
    assert not control.expect_killed
    assert all(m.expect_killed for m in mutants)
    assert control.new.startswith(control.old)
    assert control.new[len(control.old):].lstrip().startswith("#")
    assert {t for m in mutants for t in m.tests} <= set(control.tests)
