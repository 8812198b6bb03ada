"""No operation leaves reference cycles behind.

A cycle outlives the call that made it until Python's cyclic collector
finds it, and collecting costs time in proportion to what is alive; a
count that left its state in a cycle would spend a share of every audit
in the collector. Each op here runs once to warm its caches, then a few
times with the collector off; collecting afterwards must find nothing.
"""

import contextlib
import gc
import io
import json

import pytest

from tropical_refine import (WeightedPlaneParam, admissible_sets, cli,
                             even_components, invariance_audit, m_prime,
                             maximal_split, oriented_solution_count,
                             polygon_of, random_generic_moments,
                             refined_count, render_svg, sample_trial)
from tropical_refine.invariants import refined_count_brute
from tropical_refine.solver import curves_through

LABELS = ("triangle", "square", "conic", "conic_merged", "doubled_quad",
          "delta_2", "six_ends_s2", "six_ends_s1", "seven_ends_s1",
          "four_ends_s1")


def assert_no_cyclic_garbage(op) -> None:
    """Run op once to warm its caches, then three times with the cyclic
    collector off, and insist that collecting finds nothing unreachable.
    What was alive before is frozen, so the last collection looks only at
    what the op made."""
    op()
    gc.collect()
    gc.freeze()
    gc.disable()
    try:
        for _ in range(3):
            op()
        assert gc.collect() == 0
    finally:
        gc.enable()
        gc.unfreeze()


def test_the_guard_sees_a_cycle():
    def cyclic():
        box = []
        box.append(box)

    with pytest.raises(AssertionError):
        assert_no_cyclic_garbage(cyclic)
    assert gc.isenabled() and gc.get_freeze_count() == 0
    assert_no_cyclic_garbage(lambda: [[]])


@pytest.mark.parametrize("label", LABELS)
def test_counting_leaves_no_cycles(label, named_degrees):
    delta = named_degrees[label]
    mu = random_generic_moments(delta, 1)
    assert_no_cyclic_garbage(lambda: curves_through(delta, mu))
    assert_no_cyclic_garbage(lambda: sample_trial(delta, 1))
    assert_no_cyclic_garbage(lambda: invariance_audit(delta, 2, 5))
    assert_no_cyclic_garbage(lambda: refined_count(delta, mu))
    if len(delta) <= 7:
        assert_no_cyclic_garbage(lambda: refined_count_brute(delta, mu))
    # a fresh record each time, so `solutions` is rebuilt, not cached
    assert_no_cyclic_garbage(lambda: [
        sol.ctype.serialize() for sol in sample_trial(delta, 1).solutions])


@pytest.mark.parametrize("label", LABELS)
def test_the_real_side_leaves_no_cycles(label, named_degrees):
    delta = named_degrees[label]
    _, sols = refined_count(delta, random_generic_moments(delta, 1))

    def split_all():
        for sol in sols:
            split = maximal_split(WeightedPlaneParam.from_solution(sol))
            m_prime(split, sol.ctype.multiplicities())
            oriented_solution_count(split)

    def cut_all():
        for sol in sols:
            base = WeightedPlaneParam.from_solution(sol)
            for comp in even_components(base):
                list(admissible_sets(base, comp))

    assert_no_cyclic_garbage(split_all)
    assert_no_cyclic_garbage(cut_all)
    assert_no_cyclic_garbage(lambda: render_svg(sols, polygon_of(delta)))


CONIC = "--degree=-1,0;-1,0;0,-1;0,-1;1,1;1,1"


class _CompactJson:
    """`json` for `cli`, with the indent dropped."""

    @staticmethod
    def dumps(obj, *, indent=None, **options):
        return json.dumps(obj, **options)


@pytest.mark.parametrize("argv, status", [
    (["enumerate", CONIC, "--seed=3"], 0),
    (["enumerate", CONIC, "--seed=3", "--format=text"], 0),
    (["plot", CONIC, "--seed=3"], 0),
    (["invariant", CONIC, "--s=1", "--trials=3"], 0),
    (["invariant", CONIC, "--trials=3"], 0),
    (["realize", CONIC, "--s=1", "--seed=3"], 0),
    (["quantum", "--m1=5", "--delta=2"], 0),
    (["quantum", "--bogus"], 1),
], ids=["enumerate", "enumerate-text", "plot", "invariant", "invariant-s0",
        "realize", "quantum", "usage-error"])
def test_each_cli_runner_leaves_no_cycles(argv, status, monkeypatch):
    # the whole call, parsing included: `cli` builds its parser once, at
    # load; the JSON is encoded compactly, because the standard library's
    # indenting encoder (pure Python in CPython 3.11) leaves its own
    # closures in a cycle on every call
    monkeypatch.setattr(cli, "json", _CompactJson)

    def run():
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == status

    assert_no_cyclic_garbage(run)
