import copy
import pickle

import pytest

from isotypic import (
    AdmissibleSet,
    BoundParams,
    BoundReport,
    DomainError,
    OrbitSpec,
    Partition,
    PartitionTuple,
    admissible_set,
    affine_multiplicity_bound,
    example_variety,
)


def sample_records():
    params = BoundParams((3,), (1,), 1)
    return [
        admissible_set(4, 1, 1),
        params,
        BoundParams((3, 2), (1, 2), 2, 4),
        affine_multiplicity_bound((3,), params),
        example_variety(3),
    ]


def test_positional_and_keyword_construction():
    members = frozenset({Partition((2,))})
    assert AdmissibleSet(2, 1, 1, members) == AdmissibleSet(
        k=2, d=1, m=1, members=members
    )
    assert BoundParams((3, 2), (1, 2), 2, 4) == BoundParams(
        degree=2, polys=4, widths=(1, 2), weights=(3, 2)
    )
    assert BoundParams((3,), (1,), 1).polys is None
    params = BoundParams((3,), (1,), 1)
    report = BoundReport(6, "affine", params)
    assert (report.target, report.excluded, report.asymptotic_note) == (None, False, "")
    assert report == BoundReport(value=6, theorem="affine", params=params, target=None)
    assert BoundReport(6, "affine", params, (3,), True, "n") == BoundReport(
        6, "affine", params, asymptotic_note="n", excluded=True, target=(3,)
    )
    assert OrbitSpec(2, (("a", (2,)),)) == OrbitSpec(k=2, orbits=[("a", [2])])
    with pytest.raises(TypeError):
        BoundParams((3,), (1,))
    with pytest.raises(TypeError):
        OrbitSpec(2, (), ())
    with pytest.raises(TypeError):
        BoundReport(6, "affine", params, colour="red")


def test_normalisation():
    params = BoundParams([3, 2], [1, 2], 2)
    assert params.weights == (3, 2) and params.widths == (1, 2)
    assert type(params.weights) is tuple and type(params.widths) is tuple
    spec = OrbitSpec(2, [("a", [2]), (1, (1, 1))])
    assert spec.orbits == (("a", Partition((2,))), ("1", Partition((1, 1))))
    assert all(type(stab) is Partition for _, stab in spec.orbits)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: BoundParams((3,), (1, 1), 1), "weights and widths must have equal arity"),
        (lambda: BoundParams((), (), 1), "at least one block is required"),
        (lambda: BoundParams((0,), (1,), 1), "weights and widths must be positive"),
        (lambda: BoundParams((3,), (0,), 1), "weights and widths must be positive"),
        (lambda: BoundParams((3,), (1,), 0), "degree must be positive"),
        (lambda: BoundParams((3,), (1,), 1, 0), "number of polynomials must be positive"),
        (lambda: OrbitSpec(-1, ()), "letter count must be nonnegative"),
        (lambda: OrbitSpec(3, (("a", (2,)),)), "stabilizer [2] of orbit 'a' does not partition 3"),
        (lambda: OrbitSpec(2, (("a", (2,)), ("a", (1, 1)))), "duplicate orbit label 'a'"),
    ],
)
def test_validation_messages(build, message):
    with pytest.raises(DomainError) as info:
        build()
    assert str(info.value) == message


@pytest.mark.parametrize("record", sample_records(), ids=lambda r: type(r).__name__)
def test_equality_hash_copy_and_pickle(record):
    twin = type(record)(*(getattr(record, name) for name in record.__slots__))
    assert twin == record and hash(twin) == hash(record)
    assert len({record, twin}) == 1
    assert record != tuple(getattr(record, name) for name in record.__slots__)
    assert copy.copy(record) == record
    assert copy.deepcopy(record) == record
    assert pickle.loads(pickle.dumps(record)) == record


def test_records_differ_by_any_field():
    params = BoundParams((3,), (1,), 1)
    assert BoundParams((3,), (1,), 1, 2) != params
    assert BoundReport(6, "affine", params) != BoundReport(6, "affine", params, excluded=True)
    assert OrbitSpec(2, (("a", (2,)),)) != OrbitSpec(2, (("b", (2,)),))


@pytest.mark.parametrize("record", sample_records(), ids=lambda r: type(r).__name__)
def test_records_are_immutable(record):
    field = record.__slots__[0]
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, before)
    with pytest.raises(AttributeError):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert getattr(record, field) == before
    assert not hasattr(record, "__dict__")


def test_repr_form():
    params = BoundParams([3, 2], [1, 2], 2)
    assert repr(AdmissibleSet(3, 1, 1, frozenset({Partition((3,))}))) == (
        "AdmissibleSet(k=3, d=1, m=1, members=frozenset({Partition((3,))}))"
    )
    assert repr(params) == "BoundParams(weights=(3, 2), widths=(1, 2), degree=2, polys=None)"
    assert repr(BoundReport(6, "affine", params, PartitionTuple([(3,)]))) == (
        "BoundReport(value=6, theorem='affine', params=BoundParams(weights=(3, 2), "
        "widths=(1, 2), degree=2, polys=None), target=PartitionTuple(((3,),)), "
        "excluded=False, asymptotic_note='')"
    )
    assert repr(OrbitSpec(2, [("a", [2]), (1, (1, 1))])) == (
        "OrbitSpec(k=2, orbits=(('a', Partition((2,))), ('1', Partition((1, 1)))))"
    )


def test_orbit_spec_json_round_trip():
    for k in range(1, 7):
        spec = example_variety(k)
        assert OrbitSpec.from_json_dict(spec.to_json_dict()) == spec
    assert OrbitSpec.from_json_dict({"k": 0, "orbits": []}) == OrbitSpec(0, ())
