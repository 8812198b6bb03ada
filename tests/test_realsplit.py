"""Real splittings: even subgraphs, admissible cuts, symmetric models, and
the quantum-index arithmetic at quadrivalent vertices."""

import functools
import itertools
import json
import re
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tropical_refine import (CombinatorialType, Degree, FlatVertex,
                             HalfLaurent, InadmissibleSet, MomentVector,
                             MultipleDivisors, OddQuadMultiplicity, OutOfRange,
                             RealSplit, TropicalError, TropicalSolution, Vec,
                             WeightedPlaneParam,
                             admissible_sets, build_delta_s, build_split,
                             c_k_values, coamoeba_area, delta_d,
                             enumerate_types, even_components, gamma_even,
                             dual_subdivision, m_prime,
                             maximal_split, oriented_solution_count,
                             quad_indices, quad_refined_sum, quotient_curve,
                             r_from_n, random_generic_moments,
                             refined_count, sample_trial,
                             stem_of, trivalent_quantum_index,
                             w_pow_minus_inverse, wedge)
from tropical_refine.cli import main

W_MINUS = w_pow_minus_inverse(1)   # q^(1/2) - q^(-1/2)


def fake_quads(monkeypatch, quads):
    """Every RealSplit from here on reports these quadrivalent vertices."""
    monkeypatch.setattr(RealSplit, "quad_vertices", property(lambda _: quads))


def closure_tree() -> CombinatorialType:
    """Two parallel weight-2 ends sharing a vertex; the closure rule pulls
    the bounded edge (4,5) into the even subgraph."""
    dirs = (Vec(3, 1), Vec(1, -1), Vec(-2, 0), Vec(-2, 0))
    edges = ((0, 4), (1, 4), (4, 5), (2, 5), (3, 5))
    return CombinatorialType(dirs, edges)


def caterpillar_tree() -> CombinatorialType:
    """Six ends, two separated weight-2 ends: the even subgraph has two
    components and the maximal split has two quadrivalent vertices."""
    dirs = (Vec(1, 1), Vec(1, 1), Vec(1, -1), Vec(1, -1), Vec(-2, 0),
            Vec(-2, 0))
    edges = ((0, 6), (4, 6), (6, 7), (1, 7), (7, 8), (2, 8), (8, 9), (3, 9),
             (5, 9))
    return CombinatorialType(dirs, edges)


def check_symmetric_model(split, base):
    """Structural invariants every split must satisfy."""
    # sigma is an involution whose fixed points are exactly the "f" nodes
    for nd in split.nodes:
        assert split.sigma(split.sigma(nd)) == nd
    assert split.fixed_nodes == frozenset(
        nd for nd in split.nodes if split.sigma(nd) == nd)
    # sigma maps edges to edges, preserving slope and image
    table = {}
    for e in split.edges:
        table.setdefault((e.a, e.b), []).append((e.slope, e.image))
    for e in split.edges:
        pair = (split.sigma(e.a), split.sigma(e.b))
        assert (e.slope, e.image) in table[pair]
    # balancing survives the split at every finite node
    for nd in split.nodes:
        if split.is_finite(nd):
            total = Vec(0, 0)
            for s in split.outgoing_slopes(nd):
                total = total + s
            assert total == Vec(0, 0)
    # the fixed subgraph is connected
    fixed = set(split.fixed_nodes)
    adj = {nd: [] for nd in fixed}
    for e in split.edges:
        if e.a in fixed and e.b in fixed:
            adj[e.a].append(e.b)
            adj[e.b].append(e.a)
    start = next(iter(fixed))
    seen = {start}
    stack = [start]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    assert seen == fixed
    # the special vertices, recounted from the edges alone
    n = base.tree.n
    slopes = {}
    for e in split.edges:
        slopes.setdefault(e.a, []).append(e.slope)
        slopes.setdefault(e.b, []).append(-e.slope)
    assert set(slopes) == set(split.nodes)
    finite = [nd for nd in split.nodes
              if not (isinstance(nd[1], int) and nd[1] < n)]
    mults = base.tree.multiplicities()
    quads = sorted((nd[1], mults[nd[1]]) for nd in finite
                   if isinstance(nd[1], int) and len(slopes[nd]) == 4)
    assert tuple(quads) == split.quad_vertices
    flats = [nd for nd in finite if len(slopes[nd]) >= 3
             and all(wedge(s, t) == 0 for s in slopes[nd] for t in slopes[nd])]
    assert tuple(flats) == split.flat_nodes
    # quotient is a two-sided inverse of the construction
    assert quotient_curve(split) == base


def test_weighted_param_rejects_weights_above_two():
    dirs = (Vec(3, 0), Vec(-1, 0), Vec(-1, 0), Vec(-1, 0))
    edges = ((0, 4), (1, 4), (4, 5), (2, 5), (3, 5))
    with pytest.raises(ValueError):
        WeightedPlaneParam(CombinatorialType(dirs, edges))


@pytest.mark.parametrize("dirs, w", [
    ((Vec(0, 0), Vec(1, 0), Vec(-1, 0)), 0),
    ((Vec(1, 0), Vec(0, 0), Vec(-1, 0)), 0),
    ((Vec(-1, 0), Vec(3, 0), Vec(-1, 0), Vec(-1, 0)), 3),
], ids=["first", "after-weight-1", "weight-3-after-weight-1"])
def test_weighted_param_checks_every_end_weight(dirs, w):
    # the one weight check, lattice._end_weight, that Degree also uses; a
    # bad end after a weight-1 end is still seen
    n = len(dirs)
    edges = (((0, 3), (1, 3), (2, 3)) if n == 3
             else ((0, 4), (1, 4), (4, 5), (2, 5), (3, 5)))
    msg = rf"^end of weight {w} not supported, only 1 and 2$"
    with pytest.raises(ValueError, match=msg):
        WeightedPlaneParam(CombinatorialType(dirs, edges))


def test_weighted_param_needs_an_odd_end():
    dirs = (Vec(2, 0), Vec(0, 2), Vec(-2, -2))
    edges = ((0, 3), (1, 3), (2, 3))
    with pytest.raises(ValueError):
        WeightedPlaneParam(CombinatorialType(dirs, edges))


def test_weighted_param_equality_ignores_edge_presentation():
    dirs = (Vec(3, 1), Vec(1, -1), Vec(-2, 0), Vec(-2, 0))
    a = WeightedPlaneParam(CombinatorialType(
        dirs, ((0, 4), (1, 4), (4, 5), (2, 5), (3, 5))))
    b = WeightedPlaneParam(CombinatorialType(
        dirs, ((5, 2), (5, 3), (5, 4), (4, 1), (4, 0))))
    assert a == b
    assert hash(a) == hash(b)


def test_from_solution_wraps_the_curve_type(doubled_quad, doubled_quad_mu):
    _, sols = refined_count(doubled_quad, doubled_quad_mu)
    base = WeightedPlaneParam.from_solution(sols[0])
    assert base.tree is sols[0].ctype
    assert base == WeightedPlaneParam(sols[0].ctype)
    assert base.even_leaves() == (0,)


def test_the_real_side_reads_no_edge_length(conic_merged, monkeypatch,
                                            capsys):
    # the maximal split and m' are combinatorial; only enumerate prints the
    # curve's metric
    def refuse(sol):
        raise AssertionError("the real side read an edge length")

    trial = sample_trial(conic_merged, 0)
    monkeypatch.setattr(TropicalSolution, "lengths", property(refuse))
    for sol in trial.solutions:
        split = maximal_split(WeightedPlaneParam.from_solution(sol))
        assert str(m_prime(split, sol.ctype.multiplicities())) == (
            "4*q - 8 + 4*q^-1")
    degree = "--degree=-1,0;-1,0;0,-1;0,-1;1,1;1,1"
    assert main(["realize", degree, "--s", "1", "--seed", "0"]) == 0
    assert json.loads(capsys.readouterr().out)["matchesRealInvariant"]
    monkeypatch.undo()
    assert main(["enumerate", degree, "--s", "1", "--seed", "0"]) == 0
    (curve,) = json.loads(capsys.readouterr().out)["solutions"]
    assert curve["edgeLengths"] == {
        f"{a}-{b}": str(ln)
        for (a, b), ln in sorted(trial.solutions[0].lengths.items())}


def test_a_realized_tree_keeps_no_direction_map():
    # every edge direction is read off the clades when it is asked for, so
    # splitting, m' and the dual subdivision leave only the tree's own fields
    trial = sample_trial(build_delta_s(delta_d(3), Vec(-1, 0), 1), 1)
    kept = {"leaf_dirs", "edges", "adjacency", "clades", "bounded_edges",
            "_multiplicities"}
    assert trial.solutions
    for sol in trial.solutions:
        split = maximal_split(WeightedPlaneParam.from_solution(sol))
        m_prime(split, sol.ctype.multiplicities())
        dual_subdivision(sol.ctype)
        assert set(vars(sol.ctype)) <= kept


def test_gamma_even_without_even_ends_is_empty(triangle, triangle_mu):
    _, sols = refined_count(triangle, triangle_mu)
    base = WeightedPlaneParam.from_solution(sols[0])
    assert base.even_leaves() == ()
    assert gamma_even(base) == frozenset()
    assert even_components(base) == []


def test_gamma_even_closure_pulls_in_bounded_edge():
    base = WeightedPlaneParam(closure_tree())
    assert gamma_even(base) == frozenset({(2, 5), (3, 5), (4, 5)})
    comps = even_components(base)
    assert len(comps) == 1
    assert stem_of(base, comps[0]) == 4
    sets = list(admissible_sets(base, comps[0]))
    assert sets == [frozenset({(4, 5)}), frozenset({(2, 5), (3, 5)})]


def closure_rule(tree: CombinatorialType) -> frozenset:
    """The even part as the module docstring defines it: the weight-2 end
    edges, closed by a fixpoint under the rule that a vertex with all but
    one incident edge even pulls in the last one."""
    def key(u, v):
        return (u, v) if u < v else (v, u)

    even = {tree.end_edge(leaf) for leaf, d in enumerate(tree.leaf_dirs)
            if d.x % 2 == 0 and d.y % 2 == 0}
    changed = True
    while changed:
        changed = False
        for v in tree.internal_vertices:
            missing = [key(v, w) for w in tree.adjacency[v]
                       if key(v, w) not in even]
            if len(missing) == 1:
                even.add(missing[0])
                changed = True
    return frozenset(even)


@pytest.mark.parametrize("entries, types, pulled", [
    (((0, -1), (0, -1), (1, 1), (1, 1), (-2, 0)), 15, 0),
    (((1, 1), (1, 1), (1, -1), (1, -1), (-2, 0), (-2, 0)), 105, 15),
    # end 0 even: the end edge's all-even side is the one without a clade
    (((-2, 0), (0, -1), (0, -1), (1, 1), (1, 1), (1, 0), (-1, 0)), 945, 0),
    (((0, -2), (-2, 0), (1, 1), (1, 1), (1, -1), (-1, 1)), 105, 15),
], ids=["conic_merged", "six_ends_s2", "end_0_even", "ends_0_1_even"])
def test_gamma_even_is_the_closure_rule(entries, types, pulled):
    # pulled counts the types whose even part reaches past the even ends
    seen = grown = 0
    for tree in enumerate_types(Degree(entries)):
        base = WeightedPlaneParam(tree)
        even = gamma_even(base)
        assert even == closure_rule(tree)
        seen += 1
        grown += len(even) > len(base.even_leaves())
    assert (seen, grown) == (types, pulled)


def test_gamma_even_two_components():
    base = WeightedPlaneParam(caterpillar_tree())
    assert gamma_even(base) == frozenset({(4, 6), (5, 9)})
    comps = sorted(even_components(base), key=sorted)
    assert [sorted(c) for c in comps] == [[(4, 6)], [(5, 9)]]
    assert [stem_of(base, c) for c in comps] == [6, 9]
    for comp in comps:
        assert list(admissible_sets(base, comp)) == [comp]


def test_vertex_cut_at_shared_even_vertex_is_flat():
    base = WeightedPlaneParam(closure_tree())
    split = build_split(base, [((2, 5), Fraction(0)), ((3, 5), Fraction(0))])
    assert split.flat_nodes == (("f", 5),)
    assert not split.is_realizable
    assert split.quad_vertices == ()
    assert split.vertex_points == (5,)
    assert split.nodes == (("+", 2), ("+", 3), ("-", 2), ("-", 3),
                           ("f", 0), ("f", 1), ("f", 4), ("f", 5))
    check_symmetric_model(split, base)


def test_bounded_interior_cut_edge_table():
    base = WeightedPlaneParam(closure_tree())
    split = build_split(base, [((4, 5), Fraction(1))])
    cut = ("cut", (4, 5))
    assert split.edge_points == (((4, 5), Fraction(1)),)
    got = {(e.a, e.b, e.slope) for e in split.edges}
    assert got == {
        (("f", 0), ("f", 4), Vec(-3, -1)),
        (("f", 1), ("f", 4), Vec(-1, 1)),
        (("f", 4), ("f", cut), Vec(-4, 0)),
        (("f", cut), ("+", 5), Vec(-2, 0)),
        (("f", cut), ("-", 5), Vec(-2, 0)),
        (("+", 5), ("+", 2), Vec(-1, 0)),
        (("-", 5), ("-", 2), Vec(-1, 0)),
        (("+", 5), ("+", 3), Vec(-1, 0)),
        (("-", 5), ("-", 3), Vec(-1, 0)),
    }
    # vertex 5 is collinear in this base, so its doubled copies stay flat
    assert split.flat_nodes == (("+", 5), ("-", 5), ("f", cut))
    assert not split.is_realizable
    assert split.pi(("f", cut)) == cut
    assert split.pi(("+", 5)) == 5
    assert split.is_finite(("f", cut))
    assert not split.is_finite(("f", 0))
    check_symmetric_model(split, base)


def test_end_interior_cuts_make_flat_cut_nodes():
    base = WeightedPlaneParam(closure_tree())
    split = build_split(base, [((2, 5), Fraction(1, 3)),
                               ((3, 5), Fraction(2, 3))])
    assert split.flat_nodes == (("f", ("cut", (2, 5))),
                                ("f", ("cut", (3, 5))), ("f", 5))
    assert not split.is_realizable
    check_symmetric_model(split, base)


def test_inadmissible_cut_sets():
    tree = closure_tree()
    base = WeightedPlaneParam(tree)
    with pytest.raises(InadmissibleSet):
        build_split(base, [((0, 4), Fraction(1))])   # not on the even part
    with pytest.raises(InadmissibleSet):
        build_split(base, [((2, 5), Fraction(-1))])
    with pytest.raises(InadmissibleSet):
        build_split(base, [((4, 5), Fraction(1)), ((4, 5), Fraction(2))])
    with pytest.raises(InadmissibleSet):
        build_split(base, [])                        # even ends left uncut
    with pytest.raises(InadmissibleSet):
        build_split(base, [((4, 5), Fraction(1)), ((2, 5), Fraction(1, 3))])
    # offsets are exact: a float is refused rather than expanded
    with pytest.raises(TypeError):
        build_split(base, [((4, 5), 0.1)])
    with pytest.raises(TypeError):
        build_split(base, [((4, 5), True)])


def test_inadmissible_sets_name_the_first_failing_end():
    cat = WeightedPlaneParam(caterpillar_tree())
    assert cat.even_leaves() == (4, 5)
    with pytest.raises(InadmissibleSet, match="to end 4 crosses 0 cut points"):
        build_split(cat, [])
    with pytest.raises(InadmissibleSet, match="to end 5 crosses 0 cut points"):
        build_split(cat, [((4, 6), Fraction(0))])
    # end 4 is cut once, end 5 twice: at its vertex and inside the end
    with pytest.raises(InadmissibleSet, match="to end 5 crosses 2 cut points"):
        build_split(cat, [((4, 6), Fraction(0)), ((5, 9), Fraction(0)),
                          ((5, 9), Fraction(1, 2))])
    base = WeightedPlaneParam(closure_tree())
    # a cut on the bounded edge and another below it on end 3
    with pytest.raises(InadmissibleSet, match="to end 3 crosses 2 cut points"):
        build_split(base, [((4, 5), Fraction(1)), ((3, 5), Fraction(1, 3))])
    # the stem vertex and the edge below it
    with pytest.raises(InadmissibleSet, match="to end 2 crosses 2 cut points"):
        build_split(base, [((4, 5), Fraction(0)), ((4, 5), Fraction(1))])


def test_stem_queries_reject_edge_sets_that_are_not_components():
    base = WeightedPlaneParam(closure_tree())
    cat = WeightedPlaneParam(caterpillar_tree())
    for where, edges in ((base, ()), (base, ((2, 5),)), (base, ((0, 4),)),
                         (base, ((2, 5), (3, 5))),
                         (cat, ((4, 6), (5, 9)))):
        comp = frozenset(edges)
        with pytest.raises(TropicalError, match="is not an even component"):
            stem_of(where, comp)
        with pytest.raises(TropicalError, match="is not an even component"):
            admissible_sets(where, comp)


def test_components_without_a_unique_stem_are_rejected():
    # ends that do not balance: the closure swallows the whole star
    unbalanced = CombinatorialType((Vec(2, 0), Vec(0, 2), Vec(1, 1)),
                                   ((0, 3), (1, 3), (2, 3)))
    # a quadrivalent vertex holding both even ends meets them through two
    # even edges
    quadrivalent = CombinatorialType(
        (Vec(3, 1), Vec(1, -1), Vec(-2, 0), Vec(-2, 0)),
        ((0, 4), (1, 4), (2, 4), (3, 4)))
    for tree in (unbalanced, quadrivalent):
        base = WeightedPlaneParam(tree)
        assert gamma_even(base)
        with pytest.raises(TropicalError, match="no unique stem vertex"):
            even_components(base)
        with pytest.raises(TropicalError, match="no unique stem vertex"):
            build_split(base, [])


def _generated_bases():
    """Every type of the two small s >= 1 degrees and a sample of the s = 1
    surgery on delta_3."""
    six = Degree(((1, 1), (1, 1), (1, -1), (1, -1), (-2, 0), (-2, 0)))
    trees = [*enumerate_types(build_delta_s(delta_d(2), Vec(-1, 0), 1)),
             *enumerate_types(six),
             *itertools.islice(enumerate_types(
                 build_delta_s(delta_d(3), Vec(-1, 0), 1)), 0, None, 97)]
    for tree in trees:
        yield WeightedPlaneParam(tree)


def test_stem_tree_on_generated_trees():
    bases = splits = 0
    for base in _generated_bases():
        bases += 1
        adjacency = base.tree.adjacency
        comps = even_components(base)
        assert sum(len(c) for c in comps) == len(gamma_even(base))
        assert frozenset().union(*comps) == gamma_even(base)
        classes = []
        for comp in comps:
            leaving = {v for e in comp for v in e
                       if any(tuple(sorted((v, w))) not in comp
                              for w in adjacency[v])}
            assert leaving == {stem_of(base, comp)}
            classes.append(list(admissible_sets(base, comp)))
        for product in itertools.product(*classes):
            cuts = sorted(frozenset().union(*product))
            for offset in (Fraction(1, 2), Fraction(0)):
                split = build_split(base, [(e, offset) for e in cuts])
                check_symmetric_model(split, base)
                splits += 1
    assert (bases, splits) == (228, 486)


def test_maximal_split_rejects_two_divisors():
    dirs = (Vec(0, 2), Vec(2, 0), Vec(-1, -1), Vec(-1, -1))
    edges = ((0, 4), (1, 4), (4, 5), (2, 5), (3, 5))
    base = WeightedPlaneParam(CombinatorialType(dirs, edges))
    with pytest.raises(MultipleDivisors):
        maximal_split(base)


def test_maximal_split_rejects_joined_even_ends():
    with pytest.raises(FlatVertex):
        maximal_split(WeightedPlaneParam(closure_tree()))


def test_maximal_split_checks_its_quad_vertices(doubled_quad, doubled_quad_mu,
                                                monkeypatch):
    fake_quads(monkeypatch, ())
    _, sols = refined_count(doubled_quad, doubled_quad_mu)
    with pytest.raises(TropicalError, match="has 0 quadrivalent and 0 flat "
                                            "vertices for 1 even ends"):
        maximal_split(WeightedPlaneParam.from_solution(sols[0]))


def test_maximal_split_computes_gamma_even_once(doubled_quad, doubled_quad_mu,
                                                monkeypatch):
    real = WeightedPlaneParam._gamma_even.func
    computed = []

    def counted(base):
        computed.append(base)
        return real(base)

    cached = functools.cached_property(counted)
    cached.__set_name__(WeightedPlaneParam, "_gamma_even")
    monkeypatch.setattr(WeightedPlaneParam, "_gamma_even", cached)
    _, sols = refined_count(doubled_quad, doubled_quad_mu)
    base = WeightedPlaneParam.from_solution(sols[0])
    maximal_split(base)
    assert computed == [base]


def test_stem_tree_is_built_once_per_curve(monkeypatch):
    real = WeightedPlaneParam._stem_tree.func
    built = []

    def counted(base):
        built.append(base)
        return real(base)

    cached = functools.cached_property(counted)
    cached.__set_name__(WeightedPlaneParam, "_stem_tree")
    monkeypatch.setattr(WeightedPlaneParam, "_stem_tree", cached)
    base = WeightedPlaneParam(caterpillar_tree())
    classes = []
    for comp in even_components(base):
        stem_of(base, comp)
        classes.append(list(admissible_sets(base, comp)))
    for product in itertools.product(*classes):
        cuts = sorted(frozenset().union(*product))
        build_split(base, [(e, Fraction(1, 2)) for e in cuts])
    maximal_split(base)
    assert built == [base]


def test_maximal_split_triangle(triangle, triangle_mu):
    n_trop, sols = refined_count(triangle, triangle_mu)
    base = WeightedPlaneParam.from_solution(sols[0])
    split = maximal_split(base)
    assert split.nodes == (("f", 0), ("f", 1), ("f", 2), ("f", 3))
    assert split.fixed_nodes == frozenset(split.nodes)
    assert split.quad_vertices == ()
    assert split.is_realizable
    mp = m_prime(split, sols[0].ctype.multiplicities())
    assert str(mp) == "4*q^1/2 - 4*q^-1/2"
    assert mp.exact_div(HalfLaurent(4)) == r_from_n(n_trop, 3, 0)
    assert oriented_solution_count(split) == 8
    check_symmetric_model(split, base)


def test_maximal_split_doubled_quad(doubled_quad, doubled_quad_mu):
    n_trop, sols = refined_count(doubled_quad, doubled_quad_mu)
    assert len(sols) == 1
    sol = sols[0]
    assert sol.det_abs == 2
    split = maximal_split(WeightedPlaneParam.from_solution(sol))
    assert split.quad_vertices == ((4, 2),)
    assert split.vertex_points == (4,)
    assert len(split.nodes) == 7
    assert len(split.fixed_nodes) == 5
    assert split.is_realizable
    mp = m_prime(split, sol.ctype.multiplicities())
    assert str(mp) == "4*q^1/2 - 4*q^-1/2"
    assert mp.exact_div(HalfLaurent(4)) == r_from_n(n_trop, 5, 1)
    assert oriented_solution_count(split) == 16


def test_maximal_split_conic_merged(conic_merged):
    mu = random_generic_moments(conic_merged, 2026)
    assert mu.values == (Fraction(-909, 2), Fraction(-104, 3),
                         Fraction(118, 5), Fraction(49, 2))
    n_trop, sols = refined_count(conic_merged, mu)
    assert len(sols) == 1
    split = maximal_split(WeightedPlaneParam.from_solution(sols[0]))
    assert split.quad_vertices == ((7, 2),)
    mp = m_prime(split, sols[0].ctype.multiplicities())
    assert str(mp) == "4*q - 8 + 4*q^-1"
    r_inv = r_from_n(n_trop, 6, 1)
    assert str(r_inv) == "q - 2 + q^-1"
    assert mp.exact_div(HalfLaurent(4)) == r_inv
    assert oriented_solution_count(split) == 32


def test_maximal_split_two_quad_vertices():
    base = WeightedPlaneParam(caterpillar_tree())
    assert base.tree.multiplicities() == {6: 2, 7: 2, 8: 2, 9: 2}
    split = maximal_split(base)
    assert split.quad_vertices == ((6, 2), (9, 2))
    assert split.flat_nodes == ()
    assert len(split.nodes) == 12
    assert len(split.edges) == 11
    assert split.valences() == {("f", 6): 4, ("f", 7): 3, ("f", 8): 3,
                                ("f", 9): 4}
    mp = m_prime(split, base.tree.multiplicities())
    assert str(mp) == "4*q^2 - 8 + 4*q^-2"
    assert oriented_solution_count(split) == 64
    check_symmetric_model(split, base)


def test_mixed_offsets_across_components():
    base = WeightedPlaneParam(caterpillar_tree())
    # cutting one end at its vertex and the other in its interior keeps the
    # quadrivalent vertex on the first and a flat cut node on the second
    split = build_split(base, [((4, 6), Fraction(0)), ((5, 9), Fraction(1, 2))])
    assert split.quad_vertices == ((6, 2),)
    assert len(split.flat_nodes) == 1
    check_symmetric_model(split, base)
    split = build_split(base, [((4, 6), Fraction(1, 3)), ((5, 9), Fraction(5))])
    assert split.quad_vertices == ()
    assert len(split.flat_nodes) == 2
    check_symmetric_model(split, base)


def test_split_roundtrips_en_masse(conic_merged, doubled_quad):
    total = 0
    for delta, m, s in ((conic_merged, 6, 1), (doubled_quad, 5, 1)):
        scale = w_pow_minus_inverse(1) ** (m - 2 - s)
        for seed in range(20):
            mu = random_generic_moments(delta, seed)
            n_trop, sols = refined_count(delta, mu)
            assert len(sols) == 1
            sol = sols[0]
            base = WeightedPlaneParam.from_solution(sol)
            end_edge = base.tree.end_edge(base.even_leaves()[0])
            mx = maximal_split(base)
            assert mx.is_realizable
            interior = build_split(base, [(end_edge, Fraction(1, 3))])
            assert not interior.is_realizable
            for split in (mx, interior):
                check_symmetric_model(split, base)
                total += 1
            # first-order multiplicity against the refined one, per curve
            mp = m_prime(mx, sol.ctype.multiplicities())
            lhs = mp * w_pow_minus_inverse(2) ** s
            rhs = HalfLaurent(4) * scale * sol.refined_multiplicity()
            assert lhs == rhs
            assert mp.exact_div(HalfLaurent(4)) == r_from_n(n_trop, m, s)

    base = WeightedPlaneParam(closure_tree())
    for off in (1, 2, 7):
        split = build_split(base, [((4, 5), Fraction(off))])
        check_symmetric_model(split, base)
        total += 1
    for off2 in (Fraction(1, 3), 1, 3):
        for off3 in (Fraction(1, 3), 1, 3):
            split = build_split(base, [((2, 5), Fraction(off2)),
                                       ((3, 5), Fraction(off3))])
            check_symmetric_model(split, base)
            total += 1
    split = build_split(base, [((2, 5), Fraction(0)), ((3, 5), Fraction(0))])
    check_symmetric_model(split, base)
    total += 1

    base = WeightedPlaneParam(caterpillar_tree())
    for off1 in (Fraction(0), Fraction(1, 2)):
        for off2 in (Fraction(0), Fraction(2)):
            split = build_split(base, [((4, 6), off1), ((5, 9), off2)])
            check_symmetric_model(split, base)
            total += 1
    assert total == 97


def test_m_prime_accepts_all_multiplicity_forms():
    base = WeightedPlaneParam(caterpillar_tree())
    split = maximal_split(base)
    as_map = m_prime(split, base.tree.multiplicities())
    assert as_map == m_prime(split, {6: 2, 7: 2, 8: 2, 9: 2})
    assert str(as_map) == "4*q^2 - 8 + 4*q^-2"


def test_m_prime_rejects_odd_quad_multiplicity(monkeypatch):
    base = WeightedPlaneParam(caterpillar_tree())
    split = maximal_split(base)
    fake_quads(monkeypatch, ((6, 3),))
    with pytest.raises(OddQuadMultiplicity):
        m_prime(split, {6: 3, 7: 2, 8: 2, 9: 2})


def test_m_prime_rejects_mismatched_multiplicity():
    base = WeightedPlaneParam(caterpillar_tree())
    split = maximal_split(base)
    # the map must be the tree's: each internal vertex 6..9 with its 2
    for mults in ({6: 4, 7: 2, 8: 2, 9: 2}, {6: 2, 9: 2},
                  {6: 2, 7: 2, 8: 2, 9: 2, 10: 5}, {}):
        with pytest.raises(TropicalError,
                           match=r"not the tree's \{6: 2, 7: 2, 8: 2, 9: 2\}"):
            m_prime(split, mults)
    # a wrong multiplicity at a trivalent vertex would change m' silently
    sol = sample_trial(build_delta_s(delta_d(2), Vec(-1, 0), 1), 3).solutions[0]
    mults = sol.ctype.multiplicities()
    assert mults == {5: 1, 6: 1, 7: 2}
    split = maximal_split(WeightedPlaneParam.from_solution(sol))
    assert split.quad_vertices == ((7, 2),)
    assert str(m_prime(split, mults)) == "4*q - 8 + 4*q^-1"
    with pytest.raises(TropicalError, match=r"\{5: 5, 6: 1, 7: 2\} are not"):
        m_prime(split, {5: 5, 6: 1, 7: 2})


def steep_quad_tree(b: int) -> CombinatorialType:
    """Four ends; the weight-2 end meets the end (1, b) at a quadrivalent
    vertex of multiplicity 2b, the other vertex has multiplicity 1."""
    dirs = (Vec(-2, 0), Vec(1, b), Vec(0, -1), Vec(1, 1 - b))
    return CombinatorialType(dirs, ((0, 4), (1, 4), (4, 5), (2, 5), (3, 5)))


def test_m_prime_is_the_quotient_it_replaced(named_degrees, count_divisions):
    # m' is built as a product; times (w^2 - w^-2)^k, for its k quadrivalent
    # vertices, it is 4 * prod over every vertex of (w^m - w^-m)
    bases = [WeightedPlaneParam.from_solution(sol)
             for degree in named_degrees.values() for seed in (1, 2, 3)
             for sol in sample_trial(degree, seed).solutions]
    bases += [WeightedPlaneParam(steep_quad_tree(b)) for b in range(1, 21)]
    quad_mults = set()
    count_divisions.clear()
    for base in bases:
        mults = base.tree.multiplicities()
        split = maximal_split(base)
        quad_mults.update(m for _, m in split.quad_vertices)
        product = HalfLaurent(4)
        for m in mults.values():
            product = product * w_pow_minus_inverse(m)
        assert (m_prime(split, mults)
                * w_pow_minus_inverse(2) ** len(split.quad_vertices)
                == product)
    assert len(bases) == 43 + 20
    assert quad_mults == set(range(2, 41, 2))
    assert count_divisions == []


def test_quotient_rejects_pieces_that_do_not_chain():
    base = WeightedPlaneParam(closure_tree())
    split = build_split(base, [((4, 5), Fraction(3, 2))])
    assert quotient_curve(split) == base
    near, *rest = [e for e in split.edges if e.image == (4, 5)]
    others = [e for e in split.edges if e.image != (4, 5)]
    assert near.b == ("f", ("cut", (4, 5)))
    broken = [
        [*rest, near],                                  # out of order
        [near],                                         # stops at the cut
        [near, *(e._replace(a=("f", 4)) for e in rest)],    # a gap
        [near._replace(slope=Vec(-4, 2)), *rest],       # turns at the cut
    ]
    for pieces in broken:
        hand_built = RealSplit(base, split.vertex_points, split.edge_points,
                               tuple(others + pieces))
        with pytest.raises(TropicalError, match=r"pieces of \(4, 5\) do not "
                                                "chain"):
            quotient_curve(hand_built)


def test_quotient_names_base_edges_without_pieces():
    base = WeightedPlaneParam(closure_tree())
    split = build_split(base, [((4, 5), Fraction(1))])
    kept = tuple(e for e in split.edges if e.image != (0, 4))
    assert len(kept) < len(split.edges)
    hand_built = RealSplit(base, split.vertex_points, split.edge_points, kept)
    with pytest.raises(TropicalError,
                       match=r"no pieces for base edges \[\(0, 4\)\]"):
        quotient_curve(hand_built)


def test_quotient_names_pieces_off_the_base_edges():
    # a piece whose ends match its image, but whose image is no base edge
    base = WeightedPlaneParam(closure_tree())
    split = build_split(base, [((4, 5), Fraction(1))])
    foreign = split.edges[0]._replace(b=("f", 9), image=(0, 9))
    hand_built = RealSplit(base, split.vertex_points, split.edge_points,
                           split.edges + (foreign,))
    with pytest.raises(TropicalError,
                       match=r"pieces of \[\(0, 9\)\], which are not base"):
        quotient_curve(hand_built)


def test_trivalent_quantum_index():
    assert trivalent_quantum_index(Vec(1, 0), Vec(0, 1)) == (
        Fraction(1, 2), Fraction(-1, 2))
    assert trivalent_quantum_index(Vec(2, 1), Vec(1, 2)) == (
        Fraction(3, 2), Fraction(-3, 2))
    with pytest.raises(FlatVertex):
        trivalent_quantum_index(Vec(2, 2), Vec(-1, -1))


def test_quad_index_tables():
    assert quad_indices(1, 1) == [0]
    assert quad_indices(2, 1) == [-1, 1]
    assert quad_indices(3, 2) == [-4, 0, 4]
    assert quad_indices(4, 1) == [-3, -1, 1, 3]
    for m1 in range(1, 9):
        idx = quad_indices(m1, 3)
        assert idx == [-k for k in reversed(idx)]
        assert sum(idx) == 0
    with pytest.raises(OutOfRange):
        quad_indices(0, 1)
    with pytest.raises(OutOfRange):
        quad_indices(3, 0)


def test_quad_refined_sum_closed_form():
    assert str(quad_refined_sum(3, 2)) == "q^4 + 1 + q^-4"
    for m1 in range(1, 9):
        for delta in range(1, 5):
            got = quad_refined_sum(m1, delta)
            if m1 == 1:
                assert got == HalfLaurent(1)
                continue
            want = w_pow_minus_inverse(2 * delta * m1).exact_div(
                w_pow_minus_inverse(2 * delta))
            assert got == want


@given(st.integers(min_value=2, max_value=30),
       st.integers(min_value=1, max_value=6))
def test_quad_refined_sum_property(m1, delta):
    got = quad_refined_sum(m1, delta)
    assert got * w_pow_minus_inverse(2 * delta) == w_pow_minus_inverse(
        2 * delta * m1)
    assert got.eval_q1() == m1


@pytest.mark.parametrize("bad", [True, 2.0, Fraction(2)])
def test_quantum_helpers_refuse_non_int_arguments(bad):
    # a bool is an int to isinstance: quad_indices(True, True) is not [0]
    calls = [(quad_indices, (bad, 1), "m1"), (quad_indices, (2, bad), "delta"),
             (quad_refined_sum, (bad, 1), "m1"),
             (quad_refined_sum, (2, bad), "delta"),
             (coamoeba_area, (bad, 0), "m1"), (coamoeba_area, (2, bad), "k"),
             (c_k_values, (bad,), "m1")]
    got = re.escape(repr(bad))
    for fn, args, name in calls:
        with pytest.raises(TypeError, match=rf"\b{name}\b.*{got}"):
            fn(*args)


def test_coamoeba_areas():
    assert [coamoeba_area(3, k) for k in range(3)] == [
        Fraction(-2, 3), Fraction(0), Fraction(2, 3)]
    assert coamoeba_area(1, 0) == 0
    for m1 in range(1, 12):
        areas = [coamoeba_area(m1, k) for k in range(m1)]
        assert sum(areas) == 0
        assert all(-1 < a < 1 for a in areas)
        # the quantum index is the area scaled by delta * m1
        for delta in (1, 2, 3):
            assert quad_indices(m1, delta) == [delta * m1 * a for a in areas]
    with pytest.raises(OutOfRange):
        coamoeba_area(0, 0)
    with pytest.raises(OutOfRange):
        coamoeba_area(3, 3)


def test_c_k_values():
    assert c_k_values(3) == [Fraction(1, 6), Fraction(1, 2), Fraction(5, 6)]
    assert c_k_values(1) == [Fraction(1, 2)]
    for m1 in range(1, 12):
        cks = c_k_values(m1)
        assert all(0 < c < 1 for c in cks)
        assert cks == sorted(cks)
        for k, c in enumerate(cks):
            assert c + cks[m1 - 1 - k] == 1
            assert coamoeba_area(m1, k) == 2 * c - 1
    with pytest.raises(OutOfRange):
        c_k_values(0)


@pytest.mark.parametrize("n1", [Vec(-1, 0), Vec(0, -1), Vec(1, 1)],
                         ids=["n1_-1_0", "n1_0_-1", "n1_1_1"])
@pytest.mark.parametrize("even_first", [False, True],
                         ids=["even_last", "even_first"])
def test_sum_m_prime_with_an_upward_even_end(n1, even_first):
    # with the weight-2 end as end 1, its edge is even because its clade
    # holds every odd end, and the split hangs it upwards from its stem
    merged = build_delta_s(delta_d(3), n1, 1)
    entries = merged.entries
    even = len(entries) - 1
    if even_first:
        entries, even = entries[-1:] + entries[:-1], 0
    delta = Degree(entries)
    for seed in (1, 2, 3):
        trial = sample_trial(delta, seed)
        total = HalfLaurent(0)
        for sol in trial.solutions:
            base = WeightedPlaneParam.from_solution(sol)
            (comp,) = even_components(base)
            assert stem_of(base, comp) == sol.ctype.leaf_vertex(even)
            split = maximal_split(base)
            total = total + m_prime(split, sol.ctype.multiplicities())
        r_inv = r_from_n(trial.n_trop, 9, 1)
        assert total.exact_div(HalfLaurent(4)) == r_inv
        assert str(r_inv) == ("q^7/2 - 14*q^3/2 + 35*q^1/2 - 35*q^-1/2 "
                              "+ 14*q^-3/2 - q^-7/2")
