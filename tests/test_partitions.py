import subprocess
import sys
import time
from collections import Counter
from itertools import product
from math import prod

import pytest
from hypothesis import given, strategies as st

from isotypic import (
    DomainError,
    ParseError,
    Partition,
    PartitionTuple,
    count_partitions,
    dominates,
    enumerate_partitions,
    parse_partition,
    parse_partition_tuple,
    splits,
)
from isotypic.partitions import _count_within


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
    for value in (5, None, 2.5):
        with pytest.raises(DomainError):
            Partition(value)
    assert Partition() == ()
    assert Partition((3, 1)).weight == 4


def descending_partitions(k):
    """Independent enumeration: largest part first, in canonical order."""
    def rec(remaining, max_part):
        if remaining == 0:
            yield ()
        for part in range(min(remaining, max_part), 0, -1):
            for rest in rec(remaining - part, part):
                yield (part,) + rest

    return list(rec(k, k))


def test_successor_loop_matches_a_recursive_generator():
    for k in range(0, 31):
        expected = descending_partitions(k)
        full = enumerate_partitions(k)
        assert full == expected
        assert all(type(p) is Partition for p in full)
        for cap in range(1, k + 2):
            got = enumerate_partitions(k, cap)
            assert got == [p for p in expected if len(p) <= cap]
            assert len(got) == count_partitions(k, cap)


def test_a_tight_length_cap_skips_the_long_partitions():
    # the fold lowers the part before a layout that has too many rows, so
    # two rows at weight 200 take 101 steps, not one per partition of 200
    start = time.perf_counter()
    two_rows = enumerate_partitions(200, 2)
    assert len(two_rows) == 101
    assert two_rows == [(200 - b, b) if b else (200,) for b in range(101)]
    assert len(enumerate_partitions(200, 3)) == count_partitions(200, 3) == 3434
    assert time.perf_counter() - start < 0.5


def test_count_within_the_cap():
    for k in range(0, 25):
        for max_length in [None, *range(1, k + 2)]:
            n = len(enumerate_partitions(k, max_length))
            for cap in (1, n - 1, n, n + 1):
                assert _count_within(k, max_length, cap) == (None if n > cap else n)
    # the closed forms answer at any size, with no table over 0..k
    huge = 10 ** 20
    assert _count_within(huge, None, 10 ** 7) is None
    assert _count_within(huge, 2, huge // 2) is None
    assert _count_within(huge, 2, huge // 2 + 1) == huge // 2 + 1
    assert _count_within(huge, 1, 1) == 1
    assert _count_within(huge, 3, huge**2) == ((huge + 3) ** 2 + 6) // 12
    with pytest.raises(DomainError):
        _count_within(-1, None, 10)
    with pytest.raises(DomainError):
        _count_within(5, 0, 10)


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
    # at most three parts are closed forms, at any size of k
    huge = 10**20
    assert count_partitions(huge, 2) == 5 * 10**19 + 1
    assert count_partitions(huge, 3) == ((huge + 3) ** 2 + 6) // 12
    assert count_partitions(huge, 1) == 1
    # four or more parts take a table over 0..k, which cannot be indexed
    for k, max_length in ((huge, None), (huge, 4), (sys.maxsize + 1, 5)):
        with pytest.raises(DomainError, match="does not fit in memory"):
            count_partitions(k, max_length)


def test_count_table_larger_than_memory_is_a_domain_error():
    # a table over 0..10**9 takes 8 GB; under a 1 GB address space the list
    # fails its allocation, which ends as a domain error
    probe = (
        "import resource\n"
        "resource.setrlimit(resource.RLIMIT_AS, (10**9, 10**9))\n"
        "from isotypic import DomainError, count_partitions\n"
        "try:\n"
        "    count_partitions(10**9)\n"
        "except DomainError as exc:\n"
        "    print(exc)\n"
    )
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                            timeout=20)
    assert (result.stdout, result.stderr) == (
        "a table of partition counts up to 1000000000 does not fit in memory\n", ""
    )


@pytest.mark.parametrize(
    "k,max_length", [(5, 0), (5, -1), (-1, None), (3.0, None), (3, 2.0), (True, None), (3, True)]
)
def test_counting_and_enumeration_check_arguments_alike(k, max_length):
    with pytest.raises(DomainError):
        count_partitions(k, max_length)
    with pytest.raises(DomainError):
        enumerate_partitions(k, max_length)


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


def exact_length_counts(k):
    """Partitions of k by number of parts, counted from the enumeration."""
    return Counter(len(lam) for lam in enumerate_partitions(k))


def test_length_profile_total_is_partition_count_product():
    # summing the tuples of exact lengths within each bound counts the
    # bounded tuples, by a route that shares nothing with the count table
    for weights in [(5,), (4, 3), (2, 2, 3)]:
        by_length = [exact_length_counts(k) for k in weights]
        for bounds in product(*(range(1, k + 2) for k in weights)):
            total = 0
            for profile in product(*(range(b + 1) for b in bounds)):
                term = 1
                for counts, length in zip(by_length, profile):
                    term *= counts[length]
                total += term
            assert prod(count_partitions(k, b) for k, b in zip(weights, bounds)) == total


def test_partition_tuple_weights():
    pt = PartitionTuple([(3, 1), (2, 2, 1)])
    assert pt.weights == (4, 5)
    assert all(type(c) is Partition for c in pt)
    with pytest.raises(DomainError):
        PartitionTuple([(1, 2)])


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


def test_parse_tuple_error_between_components():
    with pytest.raises(ParseError) as err:
        parse_partition_tuple("[2]x")
    assert str(err.value) == "expected ';' at position 3" and err.value.position == 3
