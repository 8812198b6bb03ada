"""Lattice vectors, degrees, polygons and moment bookkeeping."""

import json
import re
from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from tropical_refine import (Degree, DegenerateDegree, InsufficientMultiplicity,
                             LengthMismatch, MomentVector, MultipleDivisors,
                             Vec, build_delta_s,
                             delta_d, frac_str, lattice_length, menelaus_sum,
                             normals_of, polygon_of, primitive, rot90,
                             split_even_ends, wedge)
from tropical_refine.lattice import as_fraction

vecs = st.builds(Vec, st.integers(-50, 50), st.integers(-50, 50))
nonzero_vecs = vecs.filter(lambda v: v != (0, 0))


def test_vec_arithmetic():
    assert Vec(1, 2) + Vec(3, -1) == Vec(4, 1)
    assert Vec(1, 2) - Vec(3, -1) == Vec(-2, 3)
    assert -Vec(1, 2) == Vec(-1, -2)
    assert Vec(2, -3).scale(4) == Vec(8, -12)
    assert Vec(5, 7).x == 5 and Vec(5, 7).y == 7


def test_wedge_oracles():
    assert wedge((1, 0), (0, 1)) == 1
    assert wedge((0, 1), (1, 0)) == -1
    assert wedge((2, 3), (4, 6)) == 0
    assert wedge((-1, 0), (0, -1)) == 1


@given(vecs, vecs)
def test_wedge_antisymmetric(u, v):
    assert wedge(u, v) == -wedge(v, u)


@given(vecs, vecs, vecs, st.integers(-5, 5))
def test_wedge_bilinear(u, v, w, k):
    assert wedge(u + v, w) == wedge(u, w) + wedge(v, w)
    assert wedge(u.scale(k), w) == k * wedge(u, w)


def test_lattice_length_and_primitive():
    assert lattice_length((2, 4)) == 2
    assert lattice_length((-3, 0)) == 3
    assert lattice_length((1, 1)) == 1
    assert primitive((2, 4)) == Vec(1, 2)
    assert primitive((-2, 0)) == Vec(-1, 0)
    assert primitive((0, -6)) == Vec(0, -1)


@given(nonzero_vecs)
def test_primitive_times_length_recovers(v):
    assert primitive(v).scale(lattice_length(v)) == v
    assert lattice_length(primitive(v)) == 1


def test_rot90():
    assert rot90((1, 0)) == Vec(0, 1)
    assert rot90((0, 1)) == Vec(-1, 0)
    assert rot90(rot90(rot90(rot90((3, -2))))) == Vec(3, -2)


def test_degree_validation():
    with pytest.raises(DegenerateDegree):
        Degree(((0, 0), (1, 0), (-1, 0)))
    with pytest.raises(DegenerateDegree):
        Degree(((1, 0), (0, 1), (1, 1)))
    for bad in ((1, 0, 9), (1,)):
        with pytest.raises(ValueError, match="pair of integers"):
            Degree((bad, (-1, 0), (0, 1), (0, -1)))
    d = Degree(((-1, 0), (0, -1), (1, 1)))
    assert len(d) == 3
    assert d.weights() == (1, 1, 1)
    assert d.is_primitive()


def test_degree_json_round_trip():
    d = Degree(((-2, 0), (0, -1), (1, 1), (1, 0)), name="doubled quad")
    back = Degree.from_json(d.to_json())
    assert back == d
    assert back.name == "doubled quad"
    plain = Degree(((-1, 0), (0, -1), (1, 1)))
    assert "name" not in plain.to_json()
    assert Degree.from_json({"entries": [[-1, 0], [0, -1], [1, 1]]}) == plain


@pytest.mark.parametrize("data, key", [
    ({"entries": [[1, 0], [0, 1], [-1, -1]], "nmae": "tri"}, "'nmae'"),
    ({"entries": [[1, 0], [0, 1], [-1, -1]], "name": "tri", "s": 1}, "'s'"),
    ({"weights": [1, 1], "entries": [[1, 0], [0, 1], [-1, -1]]}, "'weights'"),
    ({"entries": [[1, 0], [0, 1], [-1, -1]], 0: "tri"}, "0")],
    ids=["misspelt-name", "after-name", "before-entries", "not-a-string"])
def test_degree_json_refuses_unknown_keys(data, key):
    # the degree schema allows no other properties; a misspelt name used
    # to be dropped and the degree printed without it
    with pytest.raises(ValueError, match=f"a degree has no key {key}$"):
        Degree.from_json(data)


@pytest.mark.parametrize("bad", [(True, False), [True, 0], (1.0, 0), [0, 0.5]],
                         ids=["bool-tuple", "bool-list", "float-tuple",
                              "float-list"])
def test_degree_entries_reject_bools_and_floats(bad):
    # with the other three entries, each bad one sums to zero as a number
    others = [(-1, 0), (0, 1), (0, -1)]
    message = re.escape(f"a degree entry is a pair of integers, got {bad!r}")
    with pytest.raises(ValueError, match=message):
        Degree((bad, *others))
    with pytest.raises(ValueError, match=message):
        Degree.from_json({"entries": [bad, *others]})
    with pytest.raises(TypeError, match="integer coordinates"):
        Vec(*bad)


@pytest.mark.parametrize("name", [5, ("a",), True, b"name"])
def test_degree_names_are_strings(name):
    # the constructor refuses what from_json would, so every degree it
    # builds survives its JSON round trip
    entries = ((1, 0), (0, 1), (-1, -1))
    message = re.escape(f"a degree name is a string, got {name!r}")
    with pytest.raises(ValueError, match=message):
        Degree(entries, name=name)
    with pytest.raises(ValueError, match=message):
        Degree.from_json({"entries": entries, "name": name})


def test_split_even_ends_is_derived_once_per_degree():
    merged = build_delta_s(delta_d(3), Vec(-1, 0), 1)
    parent, s = split_even_ends(merged)
    assert split_even_ends(merged)[0] is parent and s == 1
    twin = Degree(merged.entries, name=merged.name)
    assert split_even_ends(twin) == (parent, 1)
    assert split_even_ends(twin)[0] is not parent


def test_only_an_unmerged_parent_keeps_the_name():
    # with s >= 1 the parent's ends are not the named degree's
    merged = build_delta_s(delta_d(2), Vec(-1, 0), 1)
    parent, s = split_even_ends(merged)
    assert merged.name == "delta_2(1)" and s == 1 and parent.name is None
    # with s = 0 the parent is the degree, name and all, but a new record:
    # the degree's cache holding the degree itself would be a cycle
    plain = delta_d(2)
    parent, s = split_even_ends(plain)
    assert (parent, s) == (plain, 0) and parent.name == "delta_2"
    assert parent is not plain


def test_as_fraction_returns_a_fraction_unchanged():
    f = Fraction(-7, 3)
    assert as_fraction(f) is f
    assert MomentVector([f, 2]).values[0] is f
    for value in (True, 1.5):
        with pytest.raises(TypeError, match="exact rational"):
            as_fraction(value)


@pytest.mark.parametrize("flag", [True, False])
def test_moments_reject_bools(flag):
    # a bool is not a rational here, as it is no coordinate in Vec:
    # MomentVector([True, 2]) would hold the moments 1 and 2
    for take in (as_fraction, frac_str, lambda v: MomentVector([v, 2]),
                 lambda v: menelaus_sum([v, 1, -1], delta_d(1))):
        with pytest.raises(TypeError, match="exact rational"):
            take(flag)


@given(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
                min_size=2, max_size=8),
       st.none() | st.text(max_size=4), st.booleans())
def test_degree_json_round_trips_whatever_the_constructor_accepts(
        pairs, name, as_lists):
    closing = (-sum(x for x, _ in pairs), -sum(y for _, y in pairs))
    entries = [*pairs, closing]
    if as_lists:
        entries = [list(e) for e in entries]
    assume((0, 0) not in [tuple(e) for e in entries])
    d = Degree(entries, name=name)
    assert Degree.from_json(d.to_json()) == d
    assert Degree.from_json(json.loads(json.dumps(d.to_json()))) == d


def test_delta_d():
    d1 = delta_d(1)
    assert d1.entries == (Vec(-1, 0), Vec(0, -1), Vec(1, 1))
    d3 = delta_d(3)
    assert len(d3) == 9
    assert d3.entries.count(Vec(-1, 0)) == 3
    assert d3.entries.count(Vec(0, -1)) == 3
    assert d3.entries.count(Vec(1, 1)) == 3


def test_build_delta_s_merges_pairs():
    conic = delta_d(2)
    merged = build_delta_s(conic, Vec(-1, 0), 1)
    assert merged.entries.count(Vec(-2, 0)) == 1
    assert merged.entries.count(Vec(-1, 0)) == 0
    assert len(merged) == 5
    assert merged.weights().count(2) == 1


def test_build_delta_s_insufficient():
    with pytest.raises(InsufficientMultiplicity):
        build_delta_s(delta_d(1), Vec(-1, 0), 1)
    with pytest.raises(InsufficientMultiplicity):
        build_delta_s(delta_d(2), Vec(-1, 0), 2)


@pytest.mark.parametrize("refused, message", [
    (lambda: primitive((0, 0)), "zero vector has no direction"),
    (lambda: delta_d(0), "d must be positive"),
    (lambda: build_delta_s(delta_d(2), Vec(-2, 0), 1), "n1 must be primitive"),
    (lambda: build_delta_s(delta_d(2), Vec(-1, 0), -1),
     "s must be nonnegative"),
    (lambda: build_delta_s(Degree(((-2, 0), (0, -1), (1, 1), (1, 0))),
                           Vec(0, -1), 0), "starts from a primitive degree"),
    (lambda: split_even_ends(Degree(((-3, 0), (0, -1), (1, 1), (1, 0),
                                     (1, 0)))),
     "end of weight 3 not supported"),
], ids=["primitive-zero", "delta_d-zero", "n1-not-primitive", "s-negative",
        "degree-not-primitive", "weight-3-end"])
def test_lattice_refusals(refused, message):
    with pytest.raises(ValueError, match=message):
        refused()


@pytest.mark.parametrize("bad", [True, 2.0, Fraction(2)])
def test_degree_builders_refuse_non_int_arguments(bad):
    # a bool is an int to isinstance: delta_d(True) would be named
    # 'delta_True', and build_delta_s(..., True) 'delta_2(True)'
    got = re.escape(repr(bad))
    with pytest.raises(TypeError, match=rf"\bd is an int, got {got}"):
        delta_d(bad)
    with pytest.raises(TypeError, match=rf"\bs is an int, got {got}"):
        build_delta_s(delta_d(2), Vec(-1, 0), bad)


def test_build_delta_s_zero_is_identity():
    conic = delta_d(2)
    assert build_delta_s(conic, Vec(-1, 0), 0) == conic


def test_split_even_ends_inverts_build():
    for d, s, n1 in [(delta_d(2), 1, Vec(-1, 0)),
                     (delta_d(3), 1, Vec(0, -1)),
                     (delta_d(4), 2, Vec(1, 1))]:
        merged = build_delta_s(d, n1, s)
        parent, got_s = split_even_ends(merged)
        assert got_s == s
        assert sorted(parent.entries) == sorted(d.entries)


@given(st.integers(1, 4), st.integers(0, 2))
def test_split_even_ends_round_trip(d, s):
    delta = delta_d(d)
    if 2 * s > d:
        return
    merged = build_delta_s(delta, Vec(-1, 0), s)
    parent, got_s = split_even_ends(merged)
    assert got_s == s
    assert sorted(parent.entries) == sorted(delta.entries)


def test_split_even_ends_needs_one_divisor():
    # build_delta_s doubles ends of one direction only; (1,0) and (-1,0)
    # are two directions, as for realsplit.maximal_split
    for entries in (((2, 0), (0, 2), (-1, -1), (-1, -1)),
                    ((2, 0), (0, 2), (-2, -2)),
                    ((2, 0), (-2, 0), (0, 1), (0, -1))):
        with pytest.raises(MultipleDivisors, match="span"):
            split_even_ends(Degree(entries))


def test_polygon_of_triangle():
    poly = polygon_of(delta_d(1))
    assert poly.vertices == (Vec(0, 0), Vec(1, 0), Vec(0, 1))
    assert poly.area2() == 1


def test_polygon_of_delta_d_scales():
    for d in (1, 2, 3):
        poly = polygon_of(delta_d(d))
        assert poly.area2() == d * d
        assert poly.vertices[0] == Vec(0, 0)


def test_polygon_of_square():
    poly = polygon_of(Degree(((-1, 0), (1, 0), (0, -1), (0, 1))))
    assert poly.area2() == 2
    assert set(poly.vertices) == {Vec(0, 0), Vec(1, 0), Vec(1, 1), Vec(0, 1)}


def test_polygon_survives_end_merging():
    conic = delta_d(2)
    merged = build_delta_s(conic, Vec(-1, 0), 1)
    assert polygon_of(merged).vertices == polygon_of(conic).vertices


def test_polygon_of_degenerate():
    with pytest.raises(DegenerateDegree):
        polygon_of(Degree(((1, 0), (1, 0), (-2, 0))))


@pytest.mark.parametrize("entries", [
    ((-2, 0), (1, 0), (1, 0)), ((1, 0), (1, 0), (-2, 0)),
    ((1, 0), (-1, 0)), ((1, 1), (1, 1), (-2, -2)), ()],
    ids=["weight-2", "primitive", "two-ends", "diagonal", "empty"])
def test_split_even_ends_refuses_ends_on_one_line(entries):
    # such a degree bounds no curve, so no R is derived from it
    with pytest.raises(DegenerateDegree, match="all directions lie on one "
                                               "line"):
        split_even_ends(Degree(entries))


def test_normals_of_round_trip():
    for deg in (delta_d(1), delta_d(2),
                Degree(((-1, 0), (1, 0), (0, -1), (0, 1)))):
        normals = normals_of(polygon_of(deg))
        assert sorted(normals.entries) == sorted(deg.entries)


def test_normals_of_forgets_weights():
    doubled = Degree(((-2, 0), (0, -1), (1, 1), (1, 0)))
    normals = normals_of(polygon_of(doubled))
    parent, _ = split_even_ends(doubled)
    assert sorted(normals.entries) == sorted(parent.entries)


def test_moment_vector_implied_first():
    mu = MomentVector((Fraction(3), Fraction(2)))
    assert mu.implied_first == Fraction(-5)
    assert mu.full() == (Fraction(-5), Fraction(3), Fraction(2))
    assert len(mu) == 3


def test_zero_denominators_are_value_errors():
    with pytest.raises(ValueError, match="'1/0' has a zero denominator"):
        MomentVector(("1/0", 2))
    assert MomentVector(("3/6", 2)).values == (Fraction(1, 2), Fraction(2))


def test_menelaus_sum():
    d = delta_d(1)
    assert menelaus_sum([Fraction(-5), 3, 2], d) == 0
    assert menelaus_sum([1, 1, 1], d) == 3
    with pytest.raises(LengthMismatch):
        menelaus_sum([1, 2], d)


@given(st.lists(st.fractions(min_value=-100, max_value=100), min_size=2,
                max_size=2))
def test_moment_vector_always_menelaus(values):
    mu = MomentVector(tuple(values))
    assert sum(mu.full(), Fraction(0)) == 0


def test_frac_str():
    assert frac_str(Fraction(3)) == "3"
    assert frac_str(Fraction(-7, 2)) == "-7/2"
    assert frac_str(Fraction(6, 4)) == "3/2"
    assert frac_str(0) == "0"
