import time

import pytest
from hypothesis import given, strategies as st

from isotypic import (
    AdmissibleSet,
    DomainError,
    Partition,
    PartitionTuple,
    admissible_set,
    count_partitions,
    enumerate_partitions,
    is_admissible,
    max_split_multiplicities,
    restriction_check,
    restriction_threshold,
    split_module,
    splits,
)
from isotypic.admissible import _clamped_threshold, _staircase
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
    # T may have as many digits as a part, 4,300, and is refused beyond
    # that before the power is formed
    assert restriction_threshold(5, 4299) == 10**4299
    for d, m in [(5, 4300), (1, 15000), (2, 10**9), (2, 10**20), (10**5000, 1)]:
        with pytest.raises(DomainError, match="more than 4300 digits"):
            restriction_threshold(d, m)


def test_clamped_threshold_is_the_least_of_t_and_k_plus_one():
    for d in (1, 2, 3, 4, 7, 8, 9):
        for m in range(1, 8):
            for k in range(0, 70):
                assert _clamped_threshold(d, m, k + 1) == min((2 * d) ** m, k + 1)
    assert _clamped_threshold(2, 10**20, 6) == 6
    assert _clamped_threshold(10**5000, 1, 6) == 6


def test_huge_widths_compare_with_the_clamped_threshold():
    start = time.perf_counter()
    huge = 10**20
    assert len(admissible_set(5, 2, huge)) == count_partitions(5)
    assert is_admissible((5,), 2, huge) and is_admissible((1,) * 5, 2, huge)
    assert restriction_check((5,), 2, huge) and restriction_check((3, 3, 3), 2, huge)
    for mu in enumerate_partitions(9):
        for d, m in [(1, 1), (1, 2), (1, 3)]:
            assert is_admissible(mu, d, m) == (_staircase(mu) <= (2 * d) ** m)
    with pytest.raises(DomainError):
        admissible_set(5, 2, huge).threshold
    assert time.perf_counter() - start < 1


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


def reachable_from(lam):
    """Irreducibles reachable from some split of ``lam``: the support of its
    forward-built table of best split multiplicities."""
    return frozenset(max_split_multiplicities(lam))


def test_admissible_for_partition():
    assert reachable_from((1,)) == frozenset({Partition((1,))})
    for k in range(1, 8):
        for lam in enumerate_partitions(k):
            reachable = reachable_from(lam)
            assert Partition((k,)) in reachable
            expected = set()
            for triv, sign in splits(lam):
                expected |= set(split_module(triv, sign).support())
            assert reachable == expected
    one_part = reachable_from((5,))
    assert Partition((5,)) in one_part and Partition((1,) * 5) in one_part


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


def test_admissible_set_record_fields():
    iset = admissible_set(5, 1, 1)
    assert isinstance(iset, AdmissibleSet)
    assert iset.k == 5 and iset.d == 1 and iset.m == 1
    assert iset.threshold == 2
    members = iset.sorted_members()
    assert members == sorted(members, reverse=True)
    # membership coerces plain sequences and refuses what is no partition
    assert (5,) in iset and [1, 1, 1, 1, 1] in iset
    assert (1, 4) not in iset and PartitionTuple([(5,)]) not in iset
    for value in (5, None, 2.5, "abc"):
        assert (value in admissible_set(3, 1, 1)) is False


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
        members |= reachable_from(lam)
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
            member = _staircase(mu) <= t
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


def test_staircase_index_is_the_largest_staircase_inside():
    for k in range(21):
        for mu in enumerate_partitions(k):
            # staircase(r) is the staircase of size r + 1
            largest = 0
            while mu.contains(staircase(largest)):
                largest += 1
            assert _staircase(mu) == largest
    assert _staircase(Partition()) == 0


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


@pytest.mark.parametrize("d,m", [(1, 1), (2, 1)])
def test_the_staircase_is_the_only_nonmember_at_its_weight(d, m):
    # admissible_set tests no partition below the staircase weight, and
    # from that weight on the tests leave out exactly the staircase first
    t = restriction_threshold(d, m)
    weight = (t + 1) * (t + 2) // 2
    assert admissible_set(weight - 1, d, m).members == set(enumerate_partitions(weight - 1))
    left_out = set(enumerate_partitions(weight)) - admissible_set(weight, d, m).members
    assert left_out == {staircase(t)}


def test_membership_at_large_weight_needs_no_enumeration():
    # Par(200) has about 4e12 members, so only a direct test can answer
    start = time.perf_counter()
    assert is_admissible((198, 1, 1), 1, 1)
    assert not is_admissible((100, 50, 25, 12, 6, 3, 2, 1, 1), 1, 1)
    assert is_admissible((1,) * 200, 1, 3)
    assert not is_admissible(staircase(8) + (1,) * 155, 1, 3)
    assert is_admissible(staircase(8)[1:] + (1,) * 164, 1, 3)
    assert time.perf_counter() - start < 0.3
