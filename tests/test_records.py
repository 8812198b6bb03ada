"""The contract every record type keeps: immutable fields, which can be
neither set nor deleted, value equality, a hash wherever all the fields
are hashable, and equal copies through pickle and the copy module, each
rebuilt by its record's constructor."""

import copy
import pickle

import pytest

from tropical_refine import (Degree, HalfLaurent, MomentVector, Vec,
                             WeightedPlaneParam, build_delta_s, delta_d,
                             enumerate_types, invariance_audit, maximal_split,
                             polygon_of, sample_trial, solver,
                             split_even_ends)

CONIC_MERGED = build_delta_s(delta_d(2), Vec(-1, 0), 1)


def _merged_conic_curve():
    return sample_trial(CONIC_MERGED, 0).solutions[0]


def _split():
    return maximal_split(WeightedPlaneParam.from_solution(
        _merged_conic_curve()))


def _fields(record) -> tuple[str, ...]:
    """A NamedTuple's fields, or every attribute a record holds itself."""
    if isinstance(record, tuple):
        return record._fields
    return tuple(getattr(record, "__dict__", ())) or type(record).__slots__


def _held(record) -> set[str]:
    """The attributes a record holds now: its fields and any cached value."""
    return {name for name in _fields(record) if hasattr(record, name)}



# (record type, a fresh instance, a field, hashable)
RECORDS = [
    ("Degree", lambda: delta_d(2), "entries", True),
    ("LatticePolygon", lambda: polygon_of(delta_d(2)), "vertices", True),
    ("MomentVector", lambda: MomentVector((1, "-3/2")), "values", True),
    ("CombinatorialType", lambda: next(enumerate_types(delta_d(2))), "edges",
     True),
    ("TropicalSolution", _merged_conic_curve, "scale", True),
    ("TrialRecord", lambda: sample_trial(CONIC_MERGED, 0), "n_trop", True),
    ("InvariantReport",
     lambda: invariance_audit(CONIC_MERGED, trials=1, seed=2024), "r_inv",
     True),
    ("WeightedPlaneParam",
     lambda: WeightedPlaneParam.from_solution(_merged_conic_curve()),
     "tree", True),
    ("SplitEdge", lambda: _split().edges[0], "slope", True),
    ("RealSplit", _split, "quad_vertices", True),
    ("HalfLaurent", lambda: HalfLaurent({1: 1, -1: 1}), "_c", True),
]


@pytest.mark.parametrize("name, make, field, hashable", RECORDS,
                         ids=[r[0] for r in RECORDS])
def test_records_are_immutable_values(name, make, field, hashable):
    record, twin = make(), make()
    assert type(record).__name__ == name
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
    for name in {field, *_fields(record)}:
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = None
    assert record == twin and record is not twin
    if hashable:
        assert hash(record) == hash(twin)
    else:
        with pytest.raises(TypeError):
            hash(record)


COPIES = {"pickle": lambda r: pickle.loads(pickle.dumps(r)),
          "copy": copy.copy, "deepcopy": copy.deepcopy}


@pytest.mark.parametrize("how", COPIES)
@pytest.mark.parametrize("name, make, field, hashable", RECORDS,
                         ids=[r[0] for r in RECORDS])
def test_records_survive_pickle_and_copy(name, make, field, hashable, how):
    # a copy is rebuilt by its record's constructor, equal and with an
    # equal hash, and is as immutable as its original
    record = make()
    twin = COPIES[how](record)
    assert type(twin) is type(record)
    assert twin == record
    if hashable:
        assert hash(twin) == hash(record)
    with pytest.raises(AttributeError):
        setattr(twin, field, getattr(twin, field))


@pytest.mark.parametrize("name, make, field, hashable", RECORDS,
                         ids=[r[0] for r in RECORDS])
def test_no_record_takes_a_state_after_it_is_built(name, make, field,
                                                   hashable):
    # a copy is made by the constructor, so nothing stores saved state into
    # a built record
    with pytest.raises(AttributeError):
        make().__setstate__({field: None})


# (record type, a fresh instance, a read that caches derived values on it,
# the fields its constructor stores)
DERIVED = [
    ("Degree", lambda: build_delta_s(delta_d(2), Vec(-1, 0), 1),
     split_even_ends, {"entries", "name"}),
    ("TropicalSolution", lambda: sample_trial(CONIC_MERGED, 0).curves[0],
     lambda r: r.ctype,
     {"dirs", "moments", "splits", "mults", "points", "scale"}),
    ("TrialRecord", lambda: sample_trial(CONIC_MERGED, 0),
     lambda r: r.solutions,
     {"seed", "moments", "delta_s", "splits", "tally", "count", "point_sets",
      "n_trop"}),
    ("WeightedPlaneParam",
     lambda: WeightedPlaneParam.from_solution(_merged_conic_curve()),
     maximal_split, {"tree"}),
    ("RealSplit", _split, lambda r: r.quad_vertices,
     {"base", "vertex_points", "edge_points", "edges"}),
]


@pytest.mark.parametrize("how", COPIES)
@pytest.mark.parametrize("name, make, derive, fields", DERIVED,
                         ids=[r[0] for r in DERIVED])
def test_a_copy_holds_only_its_constructor_fields(name, make, derive, fields,
                                                  how):
    # a copy re-derives what its original cached, so no cached value
    # travels in a pickle
    record = make()
    derive(record)
    assert _held(record) > fields
    twin = COPIES[how](record)
    assert type(twin).__name__ == name
    assert _held(twin) == fields
    assert twin == record
    assert derive(twin) == derive(record)


def test_equal_degrees_share_one_split_table():
    # the solver keys its per-degree tables by value, weakly
    delta = delta_d(2)
    table = solver._split_table(delta)
    assert solver._split_table(Degree(delta.entries, delta.name)) is table
    renamed = Degree(delta.entries, name="renamed")
    assert renamed != delta
    assert solver._split_table(renamed) is not table
