import time

import pytest
from hypothesis import given, strategies as st

from isotypic import (
    DEFAULT_TERM_CAP,
    AdmissibleSet,
    DomainError,
    Partition,
    PartitionTuple,
    admissible_for,
    admissible_for_partition,
    admissible_set,
    admissible_set_tuple,
    count_partitions,
    enumerate_partitions,
    is_admissible,
    restriction_check,
    restriction_threshold,
    split_module,
    splits,
)
from isotypic.bounds import _member_of_admissible_tuple
from kostka_lr import kostka_lr_split_multiplicity

# cardinalities of I(k, 1, 1) for k = 1..12, frozen from exhaustive enumeration
ISET_CARDS_D1_M1 = [1, 2, 3, 5, 7, 10, 11, 14, 15, 18, 19, 22]


def test_restriction_threshold():
    assert restriction_threshold(1, 1) == 2
    assert restriction_threshold(2, 1) == 4
    assert restriction_threshold(1, 2) == 4
    assert restriction_threshold(3, 2) == 36
    with pytest.raises(DomainError):
        restriction_threshold(0, 1)


def test_restriction_check_examples():
    for k in range(1, 12):
        assert restriction_check((k,), 1, 1)
        assert restriction_check((1,) * k, 1, 1)
    for d, m in [(1, 1), (2, 1), (1, 2)]:
        t = restriction_threshold(d, m)
        square = (t + 1,) * (t + 1)
        assert not restriction_check(square, d, m)
        assert restriction_check((t,) * t, d, m)


def test_restriction_check_is_the_corner_condition():
    # equivalent to: no (t+1) x (t+1) square inside the diagram
    for k in range(0, 13):
        for mu in enumerate_partitions(k):
            for d, m in [(1, 1), (2, 1), (1, 2)]:
                t = restriction_threshold(d, m)
                rows = sum(1 for x in mu if x > t)
                cols = sum(1 for x in mu.transpose() if x > t)
                expected = rows <= t and cols <= t
                assert restriction_check(mu, d, m) == expected


def test_admissible_for_partition():
    assert admissible_for_partition((1,)) == frozenset({Partition((1,))})
    for k in range(1, 8):
        for lam in enumerate_partitions(k):
            reachable = admissible_for_partition(lam)
            assert Partition((k,)) in reachable
            expected = set()
            for triv, sign in splits(lam):
                expected |= set(split_module(triv, sign).support())
            assert reachable == expected
    one_part = admissible_for_partition((5,))
    assert Partition((5,)) in one_part and Partition((1,) * 5) in one_part


def test_admissible_for_tuple():
    got = admissible_for(PartitionTuple([(2,), (1, 1)]))
    left = admissible_for_partition((2,))
    right = admissible_for_partition((1, 1))
    assert got == frozenset(
        PartitionTuple([a, b]) for a in left for b in right
    )


def test_admissible_set_members_pass_restriction_check():
    for k in range(1, 11):
        for d, m in [(1, 1), (2, 1), (1, 2)]:
            for mu in admissible_set(k, d, m).members:
                assert restriction_check(mu, d, m)


def test_admissible_set_extremes_always_present():
    for k in range(1, 11):
        for d, m in [(1, 1), (2, 1), (1, 2)]:
            iset = admissible_set(k, d, m)
            assert Partition((k,)) in iset
            assert Partition((1,) * k) in iset


def test_staircase_excluded():
    iset = admissible_set(7, 1, 1)
    staircase = Partition((4, 2, 1))
    assert staircase not in iset
    # the fast filter alone does not exclude it; only exact enumeration does
    assert restriction_check(staircase, 1, 1)
    assert not is_admissible(staircase, 1, 1)


def test_admissible_set_monotone_in_d_and_m():
    for k in range(1, 11):
        base = admissible_set(k, 1, 1).members
        assert base <= admissible_set(k, 2, 1).members
        assert base <= admissible_set(k, 1, 2).members
        assert admissible_set(k, 2, 1).members <= admissible_set(k, 2, 2).members


def test_admissible_set_depends_on_threshold_only():
    for k in range(1, 10):
        assert admissible_set(k, 2, 1).members == admissible_set(k, 1, 2).members


def test_admissible_set_golden_cardinalities():
    got = [len(admissible_set(k, 1, 1)) for k in range(1, 13)]
    assert got == ISET_CARDS_D1_M1
    from_four = got[3:]
    assert from_four == sorted(from_four)  # nondecreasing for k >= 4


def test_admissible_set_tuple_reduces_and_multiplies():
    single = admissible_set_tuple((6,), (1,), (1,))
    assert {c[0] for c in single.members} == admissible_set(6, 1, 1).members
    pair = admissible_set_tuple((2, 2), (1, 1), (1, 1))
    assert len(pair) == len(admissible_set(2, 1, 1)) ** 2
    with pytest.raises(DomainError):
        admissible_set_tuple((2, 2), (1,), (1, 1))


def test_admissible_set_record_fields():
    iset = admissible_set(5, 1, 1)
    assert isinstance(iset, AdmissibleSet)
    assert iset.weights == (5,) and iset.degrees == (1,) and iset.widths == (1,)
    assert iset.thresholds == (2,)
    members = iset.sorted_members()
    assert members == sorted(members, reverse=True)


def test_membership_helper_agrees_with_enumeration():
    for k in range(1, 9):
        iset = admissible_set(k, 1, 1)
        for mu in enumerate_partitions(k):
            assert is_admissible(mu, 1, 1) == (mu in iset)


def forward_pieri_union(k, t):
    """The admissible set as its definition reads: the support of every
    split module of every partition of k with at most t parts."""
    members = set()
    for lam in enumerate_partitions(k, t):
        members |= admissible_for_partition(lam)
    return members


def staircase(t):
    return Partition(tuple(range(t + 1, 0, -1)))


@pytest.mark.parametrize("d,m", [(1, 1), (1, 2), (1, 3), (2, 2)])
def test_closed_form_matches_forward_pieri_union(d, m):
    t = restriction_threshold(d, m)
    for k in range(13):
        assert admissible_set(k, d, m).members == forward_pieri_union(k, t)


@pytest.mark.parametrize("t", [3, 5])
def test_closed_form_at_thresholds_that_are_not_powers(t):
    # (2d)^m is never 3 or 5; the closed form must not rely on that
    seen_nonmember = False
    for k in range(1, 12):
        support = forward_pieri_union(k, t)
        for mu in enumerate_partitions(k):
            member = _member_of_admissible_tuple(
                PartitionTuple([mu]), (k,), (t,), DEFAULT_TERM_CAP
            )
            assert member == (mu in support)
            seen_nonmember |= not member
    assert seen_nonmember == (t == 3)  # the 5-staircase weighs 21


@st.composite
def membership_case(draw, max_weight=10):
    k = draw(st.integers(min_value=0, max_value=max_weight))
    mu = draw(st.sampled_from(enumerate_partitions(k)))
    d, m = draw(st.sampled_from([(1, 1), (2, 1), (1, 2)]))
    return mu, d, m


@given(membership_case())
def test_membership_agrees_with_kostka_lr_search(case):
    mu, d, m = case
    t = restriction_threshold(d, m)
    reached = any(
        kostka_lr_split_multiplicity(mu, triv, sign) > 0
        for lam in enumerate_partitions(mu.weight, t)
        for triv, sign in splits(lam)
    )
    assert is_admissible(mu, d, m) == reached


@pytest.mark.parametrize("d,m", [(1, 1), (2, 1), (1, 3)])
def test_staircase_is_not_admissible(d, m):
    t = restriction_threshold(d, m)
    corner = staircase(t)
    assert corner.weight == (t + 1) * (t + 2) // 2
    assert not is_admissible(corner, d, m)
    # the row/column filter alone does not see it
    assert restriction_check(corner, d, m)


@pytest.mark.parametrize("d,m", [(1, 1), (2, 1)])
def test_nonmembers_are_the_partitions_containing_the_staircase(d, m):
    t = restriction_threshold(d, m)
    corner = staircase(t)
    for k in range(corner.weight + 4):
        got = admissible_set(k, d, m)
        assert got.members == {
            mu for mu in enumerate_partitions(k) if not mu.contains(corner)
        }
        if k < corner.weight:
            assert len(got) == len(enumerate_partitions(k))


def test_everything_below_the_staircase_weight_is_admissible_at_threshold_8():
    # the 8-staircase weighs 45, so no partition of 44 is left out
    assert len(admissible_set(44, 1, 3)) == count_partitions(44)


def test_membership_at_large_weight_needs_no_enumeration():
    # Par(200) has about 4e12 members, so only a direct test can answer
    start = time.perf_counter()
    assert is_admissible((198, 1, 1), 1, 1)
    assert not is_admissible((100, 50, 25, 12, 6, 3, 2, 1, 1), 1, 1)
    assert is_admissible((1,) * 200, 1, 3)
    assert not is_admissible(staircase(8) + (1,) * 155, 1, 3)
    assert is_admissible(staircase(8)[1:] + (1,) * 164, 1, 3)
    assert time.perf_counter() - start < 0.3
