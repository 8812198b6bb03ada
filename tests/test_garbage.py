"""No operation leaves reference cycles behind.

A cycle outlives the call that made it until Python's cyclic collector
finds it, and collecting costs time in proportion to what is alive; a
count that left its state in a cycle would spend a share of every audit
in the collector. Each op here runs once to warm its caches, then a few
times with the collector off; collecting afterwards must find nothing.
"""

import gc

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


@pytest.mark.parametrize("argv", [
    ["enumerate", CONIC, "--seed=3"],
    ["enumerate", CONIC, "--seed=3", "--format=text"],
    ["plot", CONIC, "--seed=3"],
    ["invariant", CONIC, "--s=1", "--trials=3"],
    ["realize", CONIC, "--s=1", "--seed=3"],
    ["quantum", "--m1=5", "--delta=2"],
], ids=["enumerate", "enumerate-text", "plot", "invariant", "realize",
        "quantum"])
def test_each_cli_runner_leaves_no_cycles(argv):
    # argparse's parser objects refer to each other, so the parser is
    # built outside the guard and only the runner runs inside it
    args = cli.build_parser().parse_args(argv)
    assert_no_cyclic_garbage(lambda: cli._RUNNERS[args.command](args))
