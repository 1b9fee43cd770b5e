import itertools
from collections import Counter
from functools import lru_cache
from math import comb, prod

import pytest

from isotypic import (
    BoundParams,
    BoundReport,
    DomainError,
    EnumerationCapExceeded,
    Partition,
    PartitionTuple,
    affine_multiplicity_bound,
    complex_multiplicity_bound,
    count_partitions,
    enumerate_partitions,
    equivariant_bound,
    g_factor,
    general_position_degree,
    is_admissible,
    kostka,
    max_split_multiplicities,
    projection_image_bound,
    projective_multiplicity_bound,
    sa_multiplicity_bound,
    sa_prefactor,
    splits,
    split_multiplicity,
)
from isotypic import bounds, partitions
from isotypic.admissible import _staircase

# frozen after first computation; k = 1..10 per row
PROJECTIVE_GOLDEN = {
    1: [20, 168, 712, 1260, 2268, 4304, 6672, 10260, 14500, 21240],
    2: [272, 8736, 140320, 3368496, 53909808, 1150094400, 18401808448,
        368036562000, 5888590977360, 113060954365536],
}


def test_bound_params_validation():
    with pytest.raises(DomainError):
        BoundParams((3,), (1, 1), 1)
    with pytest.raises(DomainError):
        BoundParams((3,), (1,), 0)
    with pytest.raises(DomainError):
        BoundParams((0,), (1,), 1)
    with pytest.raises(DomainError):
        BoundParams((), (), 1)
    params = BoundParams((3, 2), (1, 2), 2, 4)
    assert params.thresholds == (4, 16)
    assert params.to_json_dict() == {"k": [3, 2], "m": [1, 2], "d": 2, "s": 4}


def test_g_factor_examples():
    # single split attains the maximum: 2^1 * 1
    assert g_factor([(3,)], [(3,)], 1, (1,)) == 2
    with pytest.raises(DomainError):
        g_factor([(3,)], [(2,)], 1, (1,))
    with pytest.raises(DomainError, match="g_factor arguments must have equal arity"):
        g_factor([(3,)], [(3,)], 1, (1, 1))
    for k in range(1, 6):
        for lam in enumerate_partitions(k):
            # trivial target: the split-multiplicity max is exactly 1
            assert g_factor([(k,)], [lam], 1, (1,)) == 2 ** len(lam)
            for mu in enumerate_partitions(k):
                value = g_factor([mu], [lam], 2, (1,))
                best = max(split_multiplicity(mu, a, b) for a, b in splits(lam))
                assert value == 4 ** len(lam) * best
                assert best >= kostka(mu, lam)


def test_affine_bound_example():
    report = affine_multiplicity_bound((3,), BoundParams((3,), (1,), 1))
    assert report.value == 6
    assert not report.excluded
    assert report.theorem == "affine"


def test_affine_bound_excluded_target():
    report = affine_multiplicity_bound((4, 2, 1), BoundParams((7,), (1,), 1))
    assert report.value == 0 and report.excluded


def test_affine_bound_equals_equivariant_at_trivial_target():
    for k in range(1, 9):
        for d in (1, 2):
            for m in (1, 2):
                affine = affine_multiplicity_bound((k,), BoundParams((k,), (m,), d))
                equi = equivariant_bound((k,), (m,), d)
                assert affine.value == equi.value


def affine_value_and_flag(mu, params):
    report = affine_multiplicity_bound(mu, params)
    return report.value, report.excluded


def test_affine_bound_is_unchanged_when_a_block_is_conjugated():
    # omega maps h_alpha e_beta to e_alpha h_beta, so mu' has mu's best split
    # multiplicity with the sides of every split swapped, and the staircase
    # is self-conjugate, so s(mu') = s(mu): value and flag stay
    for m in (1, 2, 3, 4):  # T = 2, 4, 8, 16
        for k in range(1, 11):
            params = BoundParams((k,), (m,), 1)
            for mu in enumerate_partitions(k):
                assert affine_value_and_flag(mu, params) == affine_value_and_flag(
                    mu.transpose(), params
                )
    # beyond the oracles: k = 100 at T = 4 and k = 36 at T = 8
    for mu, m in (((90, 5, 3, 2), 2), ((30, 3, 2, 1), 3)):
        params = BoundParams((sum(mu),), (m,), 1)
        given = affine_value_and_flag(mu, params)
        assert given[0] > 0 and not given[1]
        assert affine_value_and_flag(Partition(mu).transpose(), params) == given
    # one block of two conjugated, the other left as it is
    params = BoundParams((5, 3), (1, 2), 1)
    for first in enumerate_partitions(5):
        for second in enumerate_partitions(3):
            assert affine_value_and_flag([first, second], params) == affine_value_and_flag(
                [first.transpose(), second], params
            )


def test_equivariant_examples():
    assert equivariant_bound((3,), (1,), 1).value == 6
    for d in (1, 2, 3):
        assert equivariant_bound((1,), (1,), d).value == 2 * d
    # two-block case multiplies per-block factors inside each term
    pair = equivariant_bound((1, 1), (1, 1), 1)
    assert pair.value == 4


def test_general_position_degree():
    assert general_position_degree(BoundParams((3,), (1,), 2)) == 2
    assert general_position_degree(BoundParams((3,), (2,), 2)) == 4
    assert general_position_degree(BoundParams((3, 5), (1, 1), 2)) == 4


def test_sa_prefactor_example():
    params = BoundParams((1,), (1,), 1, 1)
    assert general_position_degree(params) == 1
    assert sa_prefactor(params) == 18
    with pytest.raises(DomainError):
        sa_prefactor(BoundParams((1,), (1,), 1))


def paper_prefactor(D, s):
    # the double sum as the semi-algebraic bound states it
    return sum(comb(2 * s + 1, j) * 6**j for i in range(D) for j in range(1, D - i + 1))


def test_sa_prefactor_matches_the_double_sum():
    for k in range(1, 12):
        for d in (1, 2, 3):
            for m in (1, 2, 3):
                for s in range(1, 6):
                    for params in (
                        BoundParams((k,), (m,), d, s),
                        BoundParams((k, 2), (m, 1), d, s),
                    ):
                        D = general_position_degree(params)
                        assert sa_prefactor(params) == paper_prefactor(D, s)


def test_sa_term_cap_refuses_before_the_prefactor(monkeypatch):
    # D = 6561 here: the double sum has 21.5 million terms
    def prefactor(params):
        raise AssertionError("the prefactor was evaluated")

    monkeypatch.setattr(bounds, "sa_prefactor", prefactor)
    with pytest.raises(EnumerationCapExceeded):
        sa_multiplicity_bound((2000,), BoundParams((2000,), (8,), 3, 1))
    with pytest.raises(DomainError):
        sa_multiplicity_bound((3,), BoundParams((3,), (1,), 1))


def test_sa_bound_factorizes_over_affine():
    for k in range(1, 6):
        for s in (1, 2, 3):
            params = BoundParams((k,), (1,), 2, s)
            plain = BoundParams((k,), (1,), 2)
            for mu in enumerate_partitions(k):
                sa = sa_multiplicity_bound(mu, params)
                affine = affine_multiplicity_bound(mu, plain)
                assert sa.value == sa_prefactor(params) * affine.value
                assert sa.excluded == affine.excluded


def test_sa_bound_monotone_in_s():
    previous = 0
    for s in range(1, 6):
        value = sa_multiplicity_bound((4,), BoundParams((4,), (1,), 1, s)).value
        assert value >= previous
        previous = value


def test_complex_bound_example():
    report = complex_multiplicity_bound((2,), BoundParams((2,), (1,), 1))
    assert report.value == 20
    assert not report.excluded
    assert report.theorem == "complex-affine"


def test_complex_bound_dominates_real_bound():
    for k in range(1, 7):
        for d in (1, 2):
            for mu in enumerate_partitions(k):
                real = affine_multiplicity_bound(mu, BoundParams((k,), (1,), d))
                cplx = complex_multiplicity_bound(mu, BoundParams((k,), (1,), d))
                assert cplx.value >= real.value


def test_complex_bound_excluded_fast_path():
    # a 17x17 square cannot fit in the union of 16 rows and 16 columns
    mu = Partition((17,) * 17)
    report = complex_multiplicity_bound(mu, BoundParams((289,), (1,), 1))
    assert report.value == 0 and report.excluded


def test_complex_bound_is_affine_at_doubled_widths():
    # no value is zero at k <= 11; the staircase (5,4,3,2,1) is zero at
    # widths 2 but a member at (4d)^(2m) = 16, and the 17x17 square and the
    # staircase (17, 16, ..., 1), s = 17 > 16, are neither.  The flag is the
    # membership test alone, since s > (4d)^(2m) implies s > (2d)^(2m)
    cases = [
        (mu, d, m)
        for k in range(1, 12)
        for d in (1, 2)
        for m in (1, 2)
        for mu in enumerate_partitions(k)
    ]
    cases += [(Partition((5, 4, 3, 2, 1)), 1, 1), (Partition((17,) * 17), 1, 1)]
    cases += [(Partition(range(17, 0, -1)), 1, 1)]
    outcomes = set()
    for mu, d, m in cases:
        k = mu.weight
        cplx = complex_multiplicity_bound(mu, BoundParams((k,), (m,), d))
        affine = affine_multiplicity_bound(mu, BoundParams((k,), (2 * m,), d))
        member = _staircase(mu) <= (4 * d) ** (2 * m)
        assert cplx.value == affine.value
        assert cplx.excluded == (affine.excluded and not member)
        # outside the admissible set at (2d, 2m) the doubled-width value is 0
        assert cplx.excluded == (not is_admissible(mu, 2 * d, 2 * m))
        outcomes.add((cplx.value == 0, cplx.excluded))
    assert outcomes == {(False, False), (True, False), (True, True)}
    assert cplx.value == 0 and cplx.excluded  # the staircase (17, 16, ..., 1)


def test_projective_bound_golden_values():
    for d, row in PROJECTIVE_GOLDEN.items():
        for k, expected in zip(range(1, 11), row):
            report = projective_multiplicity_bound(k, d)
            assert report.value == expected
            assert not report.excluded


def test_projective_bound_structure():
    report = projective_multiplicity_bound(5, 1)
    inner = complex_multiplicity_bound((6,), BoundParams((6,), (1,), 1))
    assert report.value == (5 // 2 + 1) * inner.value
    assert report.theorem == "complex-projective"
    # trivial target on k+1 letters is never excluded
    assert not projective_multiplicity_bound(8, 1, (9,)).excluded
    # the other reading of the admissibility index: members weigh k
    alt = projective_multiplicity_bound(6, 1, (6,), letters=6)
    assert alt.value == (6 // 2 + 1) * complex_multiplicity_bound(
        (6,), BoundParams((6,), (1,), 1)
    ).value
    with pytest.raises(DomainError):
        projective_multiplicity_bound(6, 1, (6,))  # weight must be k+1 by default


def test_projection_bound_examples():
    for m in (1, 2):
        for d in (1, 2):
            single = projection_image_bound(1, m, d)
            equi = equivariant_bound((1, 1), (1, m), d)
            assert single.value == equi.value
    assert projection_image_bound(2, 1, 1).value == 32


@pytest.mark.parametrize("k,m,d", [(3.0, 1, 1), (3, 1.0, 1), (3, 1, 1.0), (True, 1, 1), (0, 1, 1)])
def test_projection_refuses_non_positive_integers(k, m, d):
    with pytest.raises(DomainError):
        projection_image_bound(k, m, d)


@pytest.mark.parametrize("k,d", [(3.0, 1), (3, 1.0), (True, 1), (3, True), (0, 1)])
def test_projective_refuses_non_positive_integers(k, d):
    with pytest.raises(DomainError):
        projective_multiplicity_bound(k, d)


def test_projection_bound_monotone_in_k():
    previous = 0
    for k in range(1, 6):
        value = projection_image_bound(k, 1, 1).value
        assert value > previous
        previous = value


def test_enumeration_cap():
    with pytest.raises(EnumerationCapExceeded):
        equivariant_bound((40,), (2,), 3, cap=100)
    with pytest.raises(EnumerationCapExceeded):
        affine_multiplicity_bound((40,), BoundParams((40,), (2,), 3), cap=100)
    with pytest.raises(EnumerationCapExceeded):
        projection_image_bound(60, 2, 3, cap=1000)


def test_workers_do_not_change_values():
    base = equivariant_bound((8,), (1,), 2).value
    for workers in (2, 3):
        assert equivariant_bound((8,), (1,), 2, workers=workers).value == base


def test_report_json_shape():
    report = affine_multiplicity_bound((3,), BoundParams((3,), (1,), 1))
    data = report.to_json_dict()
    assert data["value"] == "6"
    assert data["excluded"] is False
    assert data["theorem"] == "affine"
    assert data["params"] == {"k": [3], "m": [1], "d": 1}
    assert data["target"] == "[3]"
    assert isinstance(data["asymptotic_note"], str) and data["asymptotic_note"]


def test_multi_block_bound():
    mu = PartitionTuple([(2,), (2,)])
    report = affine_multiplicity_bound(mu, BoundParams((2, 2), (1, 1), 1))
    # terms factor over blocks, so the sum is the product of per-block sums
    per_block = affine_multiplicity_bound((2,), BoundParams((2,), (1,), 1)).value
    assert report.value == per_block**2


# Independent check paths.  Production evaluates each bound as a product of
# per-block sums with backward-peeled multiplicities; these walk every
# lambda-tuple of the paper's sum and read the forward Pieri tables.


def partition_tuples(weights, max_lengths):
    """Every tuple of partitions of ``weights`` within ``max_lengths``, in
    the product of the per-block canonical orders."""
    blocks = map(enumerate_partitions, weights, max_lengths)
    return [PartitionTuple(lams) for lams in itertools.product(*blocks)]


def brute_affine_sum(mu_tuple, weights, widths, d):
    thresholds = [(2 * d) ** m for m in widths]
    total = 0
    for lam_tuple in partition_tuples(weights, thresholds):
        term = 1
        for mu, lam, m in zip(mu_tuple, lam_tuple, widths):
            term *= (2 * d) ** (m * len(lam)) * max_split_multiplicities(lam).get(mu, 0)
        total += term
    return total


def brute_member(mu_tuple, weights, thresholds):
    return any(
        all(mu in max_split_multiplicities(lam) for mu, lam in zip(mu_tuple, lam_tuple))
        for lam_tuple in partition_tuples(weights, thresholds)
    )


def brute_equivariant(weights, widths, d):
    thresholds = [(2 * d) ** m for m in widths]
    total = 0
    for lam_tuple in partition_tuples(weights, thresholds):
        term = 1
        for lam, m in zip(lam_tuple, widths):
            term *= (2 * d) ** (m * len(lam))
        total += term
    return total


def test_g_factor_agrees_with_forward_table():
    for k in range(1, 10):
        shapes = enumerate_partitions(k)
        for lam in shapes:
            table = max_split_multiplicities(lam)
            for mu in shapes:
                for d, m in ((1, 1), (2, 1), (1, 3)):
                    expected = (2 * d) ** (m * len(lam)) * table.get(mu, 0)
                    assert g_factor([mu], [lam], d, (m,)) == expected


MULTI_BLOCK_CASES = [
    ((3, 2), (1, 2)),
    ((5, 4), (2, 1)),
    ((4, 3, 2), (1, 1, 2)),
    ((7, 3, 2), (1, 1, 1)),
]


@pytest.mark.parametrize("weights,widths", MULTI_BLOCK_CASES)
def test_block_product_matches_tuple_sum(weights, widths):
    targets = partition_tuples(weights, weights)
    for d in (1, 2):
        params = BoundParams(weights, widths, d)
        assert equivariant_bound(weights, widths, d).value == brute_equivariant(
            weights, widths, d
        )
        doubled = tuple(2 * m for m in widths)
        exclusion = [(4 * d) ** (2 * m) for m in widths]
        for mu in targets:
            affine = affine_multiplicity_bound(mu, params)
            assert affine.value == brute_affine_sum(mu, weights, widths, d)
            assert affine.excluded == (affine.value == 0)
            cplx = complex_multiplicity_bound(mu, params)
            assert cplx.value == brute_affine_sum(mu, weights, doubled, d)
            assert cplx.excluded == (
                cplx.value == 0 and not brute_member(mu, weights, exclusion)
            )


@pytest.mark.parametrize("k", [11, 14])
def test_block_walk_matches_tuple_sum_at_threshold_4(k, monkeypatch):
    # At T = 4 the walk's staircase filter first drops shapes at k = 14; at
    # k = 11 no layer is heavy enough to be tested.  The filter sees the
    # peeled shapes, lighter than k (the affine prefilter sees the targets),
    # and after one part the room is at most 3, so a shape of staircase
    # index 4 is dropped.
    verdicts = []

    def staircase(rho):
        s = _staircase(rho)
        if sum(rho) < k:
            verdicts.append(s <= 3)
        return s

    monkeypatch.setattr(bounds, "_staircase", staircase)
    params = BoundParams((k,), (2,), 1)
    for mu in enumerate_partitions(k):
        assert affine_multiplicity_bound(mu, params).value == brute_affine_sum(
            [mu], (k,), (2,), 1
        )
    assert (False in verdicts) == (k == 14)
    assert bool(verdicts) == (k == 14)


# Seeded bound-sweep targets and a few more at the same sizes.
BENCH_TARGETS = [
    ((7, 5, 2, 1, 1, 1, 1), 1, 3),
    ((9, 4, 3, 2), 1, 3),
    ((6, 3, 1, 1, 1, 1, 1, 1, 1, 1), 1, 3),
    ((5, 4, 3, 2, 1, 1, 1), 1, 3),
    ((4, 3, 2, 2, 2, 1), 2, 2),
    ((3, 3, 2, 2, 2, 1, 1), 2, 2),
    ((6, 4, 3, 1, 1), 2, 2),
    ((5, 4, 3, 2, 1), 2, 2),
    # T = 16 >= k at the sizes of the complex (k = 14, widths doubled to
    # 4) and projective (k = 15) targets, so every lambda of Par(k) fits
    ((5, 4, 3, 2), 1, 4),
    ((4, 3, 2, 2, 1, 1, 1), 1, 4),
    ((5, 4, 3, 2, 1), 1, 4),
    ((6, 3, 2, 1, 1, 1, 1), 1, 4),
]


@pytest.mark.parametrize("mu,d,m", BENCH_TARGETS)
def test_block_walk_matches_sum_of_g_factors(mu, d, m):
    # g_factor peels each split of each lambda on its own
    k = sum(mu)
    expected = sum(
        g_factor([mu], [lam], d, (m,)) for lam in enumerate_partitions(k, (2 * d) ** m)
    )
    assert expected > 0
    assert affine_multiplicity_bound(mu, BoundParams((k,), (m,), d)).value == expected


def test_block_walk_never_peels_a_one_cell_strip(monkeypatch):
    # nor a strip wider (horizontal) or longer (vertical) than every shape
    # of its layer, so no peel step comes back empty
    sizes, layers = [], []
    peel_step = bounds._peel_step

    def recording(table, size, vertical):
        sizes.append(size)
        out = peel_step(table, size, vertical)
        layers.append(len(out))
        return out

    monkeypatch.setattr(bounds, "_peel_step", recording)
    for k in range(1, 10):
        for mu in enumerate_partitions(k):
            for d, m in ((1, 1), (1, 2), (1, 3)):
                t = (2 * d) ** m
                expected = sum(
                    g_factor([mu], [lam], d, (m,)) for lam in enumerate_partitions(k, t)
                )
                assert affine_multiplicity_bound(mu, BoundParams((k,), (m,), d)).value == expected
    assert sizes and min(sizes) >= 2
    assert min(layers) > 0


def count_peel_steps(monkeypatch, mu, params):
    calls = []
    peel_step = bounds._peel_step

    def counted(table, size, vertical):
        calls.append(size)
        return peel_step(table, size, vertical)

    with monkeypatch.context() as patch:
        patch.setattr(bounds, "_peel_step", counted)
        affine_multiplicity_bound(mu, params)
    return len(calls)


@pytest.mark.parametrize(
    "tail,d,m",
    [((1, 1), 1, 1), ((5, 3, 2), 1, 2), ((2, 1), 1, 2)],  # T = 2, 4, 4
)
def test_block_walk_work_grows_polynomially(tail, d, m, monkeypatch):
    # the target (k - |tail|, *tail) in Par(k, T): Theta(k^(T-1)) peel
    # steps, so doubling k multiplies them by about 2^(T-1), by no more
    # than 2^T
    t = (2 * d) ** m
    counts = [
        count_peel_steps(monkeypatch, (k - sum(tail),) + tail, BoundParams((k,), (m,), d))
        for k in (25, 50)
    ]
    assert 0 < counts[1] <= 2**t * counts[0]


def test_block_walk_peel_steps_at_k_100(monkeypatch):
    params = BoundParams((100,), (2,), 1)
    assert count_peel_steps(monkeypatch, (90, 5, 3, 2), params) == 7_407


def test_term_cap_refuses_before_the_walk(monkeypatch):
    def walk(*args):
        raise AssertionError("the block walk started")

    monkeypatch.setattr(bounds, "_block_sum", walk)
    with pytest.raises(EnumerationCapExceeded):
        affine_multiplicity_bound((36, 2, 1, 1), BoundParams((40,), (3,), 1), cap=9_748)


@pytest.mark.parametrize(
    "weights,thresholds",
    [((7,), (2,)), ((7, 3), (2, 2)), ((6, 4, 2), (2, 3, 1)), ((12, 9), (4, 8))],
)
def test_term_cap_is_the_product_of_block_counts(weights, thresholds):
    total = prod(count_partitions(k, t) for k, t in zip(weights, thresholds))
    bounds._check_term_cap(weights, thresholds, total)
    with pytest.raises(EnumerationCapExceeded):
        bounds._check_term_cap(weights, thresholds, total - 1)


def record_count_tables(monkeypatch):
    """The sizes n of the count tables over 0..n that
    ``partitions._row_counts`` is asked for, in call order."""
    sizes = []
    row_counts = partitions._row_counts

    def recording(n):
        sizes.append(n)
        return row_counts(n)

    monkeypatch.setattr(partitions, "_row_counts", recording)
    monkeypatch.setattr(bounds, "_row_counts", recording)
    return sizes


def test_term_cap_refuses_a_long_block_before_its_count_table(monkeypatch):
    # a table of at-most-length counts for k = 10**9 would hold 10**9 ints
    sizes = record_count_tables(monkeypatch)
    for weights in ((10**9,), (3, 10**9), (10**20, 3)):
        with pytest.raises(EnumerationCapExceeded):
            equivariant_bound(weights, (1,) * len(weights), 1)
    assert all(n <= 3 for n in sizes)


def test_projection_terms_have_a_closed_form_lower_bound(monkeypatch):
    # T >= 2 gives fiber weight n at least n // 2 + 1 terms
    for k in range(1, 80):
        for t in (2, 4, 8):
            exact = sum(count_partitions(p + 1, min(t, p + 1)) for p in range(k))
            closed_form = k + k * k // 4
            assert closed_form <= exact
            if t == 2:
                assert closed_form == exact
    sizes = record_count_tables(monkeypatch)
    with pytest.raises(EnumerationCapExceeded):
        projection_image_bound(10**20, 1, 1)
    assert sizes == []
    # the exact count still decides below the closed form's reach
    exact = sum(count_partitions(p + 1, 16) for p in range(36))
    projection_image_bound(36, 2, 2, cap=exact)
    with pytest.raises(EnumerationCapExceeded):
        projection_image_bound(36, 2, 2, cap=exact - 1)


@pytest.mark.parametrize(
    "weights,thresholds", [((7,), (2,)), ((7, 3), (2, 2)), ((6, 4, 2), (2, 3, 1))]
)
def test_exclusion_membership_matches_tuple_search(weights, thresholds):
    # small thresholds, so that some targets are not members
    verdicts = [
        all(_staircase(c) <= t for c, t in zip(mu, thresholds))
        for mu in partition_tuples(weights, weights)
    ]
    assert not all(verdicts)
    assert verdicts == [
        brute_member(mu, weights, thresholds)
        for mu in partition_tuples(weights, weights)
    ]


@lru_cache(maxsize=None)
def exact_length_count(k, length):
    """Partitions of k with exactly ``length`` parts: those with a part 1,
    which drops, and those whose parts all shrink by 1."""
    if k == 0 or length == 0:
        return int(k == length)
    if length > k:
        return 0
    return exact_length_count(k - 1, length - 1) + exact_length_count(k - length, length)


def test_by_length_matches_counts_by_exact_length():
    # the recurrence is checked against the enumeration where that is cheap
    for k in range(21):
        by_length = Counter(len(lam) for lam in enumerate_partitions(k))
        assert [exact_length_count(k, j) for j in range(k + 1)] == [
            by_length[j] for j in range(k + 1)
        ]
    for k in range(1, 61):
        at_most = list(itertools.accumulate(exact_length_count(k, j) for j in range(k + 1)))
        assert list(partitions._at_most_counts(k, k)) == at_most
        for t in range(1, 21):
            rows = min(t, k)
            # the weights first..k, read as one stream of running counts
            for first in (1, k):
                counts = [
                    sum(exact_length_count(n, length) for n in range(first, k + 1)
                        for length in range(j + 1))
                    for j in range(rows + 1)
                ]
                value = sum(
                    exact_length_count(n, length) * t**length
                    for n in range(first, k + 1) for length in range(rows + 1)
                )
                assert bounds._length_sum(counts, t, 10**7) == (counts[-1], value)


@pytest.mark.parametrize("k,m,d", [(36, 2, 2), (1100, 1, 1)])
def test_projection_builds_one_count_table(monkeypatch, k, m, d):
    # the term count and the value sum of every fiber weight read one
    # table over 0..k, built once
    sizes = record_count_tables(monkeypatch)
    projection_image_bound(k, m, d)
    assert sizes == [k]


def test_projection_is_the_sum_of_equivariant_bounds():
    for k in range(1, 41):
        for m in (1, 2):
            for d in (1, 2):
                fibers = sum(equivariant_bound((n,), (m,), d).value for n in range(1, k + 1))
                assert projection_image_bound(k, m, d).value == (2 * d) ** k * fibers


def test_projection_matches_sum_of_fiber_powers():
    for k in range(1, 9):
        for m in (1, 2):
            for d in (1, 2):
                expected = sum(
                    (2 * d) ** k * brute_equivariant((p + 1,), (m,), d) for p in range(k)
                )
                assert projection_image_bound(k, m, d).value == expected
