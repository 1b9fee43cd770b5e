from collections import Counter
from itertools import product

import pytest
from hypothesis import given, strategies as st

from isotypic import (
    DomainError,
    ParseError,
    Partition,
    PartitionTuple,
    count_by_length_profile,
    count_partition_tuples,
    count_partitions,
    dominates,
    enumerate_partition_tuples,
    enumerate_partitions,
    parse_partition,
    parse_partition_tuple,
    splits,
)


@st.composite
def partition_strategy(draw, max_n=12):
    n = draw(st.integers(min_value=0, max_value=max_n))
    if n == 0:
        return Partition()
    k = draw(st.integers(min_value=1, max_value=n))
    bins = draw(st.lists(st.integers(min_value=0, max_value=k - 1), min_size=n, max_size=n))
    return Partition(sorted(Counter(bins).values(), reverse=True))


def brute_partitions(n):
    """Independent enumeration: ascending-part recursion, then sort."""
    found = set()

    def rec(remaining, min_part, acc):
        if remaining == 0:
            found.add(tuple(sorted(acc, reverse=True)))
            return
        for part in range(min_part, remaining + 1):
            rec(remaining - part, part, acc + [part])

    rec(n, 1, [])
    return sorted(found, reverse=True)


def test_partition_validation():
    with pytest.raises(DomainError):
        Partition((1, 2))
    with pytest.raises(DomainError):
        Partition((2, 0))
    with pytest.raises(DomainError):
        Partition((2, -1))
    assert Partition() == ()
    assert Partition((3, 1)).weight == 4
    assert Partition((3, 1)).length == 2


def test_enumeration_matches_brute_force():
    for k in range(0, 11):
        assert [tuple(p) for p in enumerate_partitions(k)] == brute_partitions(k)


def test_enumeration_known_values():
    assert enumerate_partitions(0) == [Partition()]
    assert [tuple(p) for p in enumerate_partitions(4)] == [
        (4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)
    ]
    assert [tuple(p) for p in enumerate_partitions(4, max_length=2)] == [(4,), (3, 1), (2, 2)]


def test_enumeration_cap_is_a_filter():
    for k in range(0, 10):
        full = enumerate_partitions(k)
        for cap in range(1, k + 2):
            assert enumerate_partitions(k, cap) == [p for p in full if len(p) <= cap]


def test_count_partitions_agrees_with_enumeration():
    for k in range(0, 16):
        assert count_partitions(k) == len(enumerate_partitions(k))
        for cap in range(1, k + 2):
            assert count_partitions(k, cap) == len(enumerate_partitions(k, cap))


def test_count_partitions_large_weight():
    # no recursion depth grows with k
    assert count_partitions(2000, 2) == 1001
    assert count_partitions(2000, 3) == 334334  # round((n + 3)^2 / 12)


def test_transpose_examples():
    assert Partition((2, 1)).transpose() == (2, 1)
    assert Partition((5,)).transpose() == (1, 1, 1, 1, 1)
    assert Partition((3, 1)).transpose() == (2, 1, 1)
    assert Partition().transpose() == ()


def brute_transpose(lam):
    cells = {(i, j) for i, row in enumerate(lam) for j in range(row)}
    cols = Counter(j for _, j in cells)
    return tuple(cols[j] for j in sorted(cols))


def test_transpose_against_column_count_oracle():
    for k in range(0, 10):
        for lam in enumerate_partitions(k):
            assert tuple(lam.transpose()) == brute_transpose(lam)


def test_transpose_involution_exhaustive():
    for k in range(0, 21):
        for lam in enumerate_partitions(k):
            assert lam.transpose().transpose() == lam


def _dominance_matrix(k):
    parts = enumerate_partitions(k)
    return parts, {
        (a, b): dominates(a, b) for a in parts for b in parts
    }


def test_dominance_is_a_partial_order():
    for k in range(0, 11):
        parts, rel = _dominance_matrix(k)
        for a in parts:
            assert rel[(a, a)]
        for a in parts:
            for b in parts:
                if rel[(a, b)] and rel[(b, a)]:
                    assert a == b
        for a in parts:
            for b in parts:
                if not rel[(a, b)]:
                    continue
                for c in parts:
                    if rel[(b, c)]:
                        assert rel[(a, c)]


def test_dominance_transpose_anti_isomorphism():
    for k in range(0, 11):
        parts, rel = _dominance_matrix(k)
        for a in parts:
            for b in parts:
                assert rel[(a, b)] == dominates(b.transpose(), a.transpose())


def test_dominance_known_values():
    assert dominates((2, 1), (2, 1))
    for lam in enumerate_partitions(6):
        assert dominates((6,), lam)
    assert not dominates((2, 2), (3, 1))
    with pytest.raises(DomainError):
        dominates((2,), (3,))


def test_length_profile_counts():
    assert count_by_length_profile((4,), (2,)) == 2
    assert count_by_length_profile((7,), (1,)) == 1
    assert count_by_length_profile((3, 3), (1, 2)) == 1
    assert count_by_length_profile((3,), (5,)) == 0
    assert count_by_length_profile((0,), (0,)) == 1
    with pytest.raises(DomainError):
        count_by_length_profile((3, 3), (1,))


def test_length_profile_total_is_partition_count_product():
    for weights in [(5,), (4, 3), (2, 2, 3)]:
        total = sum(
            count_by_length_profile(weights, profile)
            for profile in product(*(range(k + 1) for k in weights))
        )
        expected = 1
        for k in weights:
            expected *= count_partitions(k)
        assert total == expected


def test_partition_tuple_enumeration():
    assert enumerate_partition_tuples((2,), (1,)) == [PartitionTuple([(2,)])]
    assert [tuple(map(tuple, t)) for t in enumerate_partition_tuples((3,), (2,))] == [
        ((3,),), ((2, 1),)
    ]
    assert [tuple(map(tuple, t)) for t in enumerate_partition_tuples((2, 2), (2, 1))] == [
        ((2,), (2,)), ((1, 1), (2,))
    ]
    assert count_partition_tuples((4, 4), (4, 2)) == 5 * 3


def test_partition_tuple_length_is_sum_of_component_lengths():
    pt = PartitionTuple([(3, 1), (2, 2, 1)])
    assert pt.length == 5
    assert pt.weights == (4, 5)
    assert pt.transpose() == PartitionTuple([(2, 1, 1), (3, 2)])


def test_splits_examples():
    assert splits(()) == [(Partition(), Partition())]
    got = splits((2, 1))
    assert len(got) == 4
    assert (Partition((2, 1)), Partition()) in got
    assert (Partition((2,)), Partition((1,))) in got
    assert (Partition((1,)), Partition((2,))) in got
    assert (Partition(), Partition((2, 1))) in got
    assert len(splits((1, 1))) == 3


@given(partition_strategy())
def test_splits_count_and_content(lam):
    pairs = splits(lam)
    expected = 1
    for mult in Counter(lam).values():
        expected *= mult + 1
    assert len(pairs) == expected
    assert len(set(pairs)) == expected
    for left, right in pairs:
        assert Counter(left) + Counter(right) == Counter(lam)


@given(partition_strategy())
def test_text_round_trip(lam):
    assert parse_partition(str(lam)) == lam


def test_parse_examples():
    assert parse_partition("[]") == Partition()
    assert parse_partition("[3,1,1]") == Partition((3, 1, 1))
    assert parse_partition_tuple("[3,1];[2]") == PartitionTuple([(3, 1), (2,)])
    assert str(PartitionTuple([(3, 1), (2,)])) == "[3,1];[2]"


@pytest.mark.parametrize(
    "text,position",
    [
        ("3,1]", 0),
        ("[3,", 3),
        ("[3 1]", 2),
        ("[1,3]", 3),
        ("[3,1]x", 5),
        ("[0]", 1),
    ],
)
def test_parse_error_positions(text, position):
    with pytest.raises(ParseError) as err:
        parse_partition(text)
    assert err.value.position == position
