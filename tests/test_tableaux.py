import tracemalloc
from functools import partial
from math import comb, factorial

import pytest

from isotypic import (
    DomainError,
    Partition,
    dominates,
    enumerate_partitions,
    hook_lengths,
    kostka,
    lr_coefficient,
    oracle_count_ssyt,
    oracle_count_syt,
    oracle_lr,
    specht_dim,
    split_multiplicity,
)
from isotypic.partitions import _conjugate, splits
from isotypic.tableaux import (
    _PEEL_MEMO,
    _horizontal_strips_above,
    _lr,
    _peel,
    _specht_dim,
    _split_strips,
    _strips_below,
)


def is_horizontal_strip(outer, inner):
    """outer/inner is a skew shape with at most one cell per column: the rows interleave."""
    return outer.contains(inner) and all(
        outer.part(i + 1) <= inner.part(i) for i in range(len(outer))
    )


def is_vertical_strip(outer, inner):
    """outer/inner is a skew shape with at most one cell per row."""
    return outer.contains(inner) and all(
        outer[i] - inner.part(i) <= 1 for i in range(len(outer))
    )


def two_row_dim(a, b):
    """Dimension of the shape (a, b), a >= b >= 0, by the ballot-number closed
    form (a + b)! (a - b + 1) / ((a + 1)! b!)."""
    quotient, remainder = divmod(factorial(a + b) * (a - b + 1), factorial(a + 1) * factorial(b))
    assert remainder == 0
    return quotient


def test_hook_lengths_small():
    assert hook_lengths((2, 1)) == {(0, 0): 3, (0, 1): 1, (1, 0): 1}
    for k in range(1, 9):
        for lam in enumerate_partitions(k):
            hooks = hook_lengths(lam)
            assert len(hooks) == k
            assert all(h >= 1 for h in hooks.values())


def test_specht_dim_examples():
    for k in range(1, 9):
        assert specht_dim((k,)) == 1
        assert specht_dim((1,) * k) == 1
    assert specht_dim((2, 1)) == 2
    assert specht_dim((2, 2)) == 2
    assert specht_dim(()) == 1


def test_specht_dim_against_syt_oracle():
    for k in range(0, 8):
        for lam in enumerate_partitions(k):
            assert specht_dim(lam) == oracle_count_syt(lam)


def test_sum_of_squared_dims_is_group_order():
    for k in range(0, 9):
        assert sum(specht_dim(lam) ** 2 for lam in enumerate_partitions(k)) == factorial(k)


def test_dim_invariant_under_transpose():
    for k in range(0, 13):
        for lam in enumerate_partitions(k):
            assert specht_dim(lam) == specht_dim(lam.transpose())


def test_two_row_dim():
    assert specht_dim((3, 1)) == two_row_dim(3, 1) == 3
    assert specht_dim((2, 2)) == two_row_dim(2, 2) == 2
    for k in range(1, 13):
        assert two_row_dim(k, 0) == 1
        for lam in enumerate_partitions(k, 2):
            assert specht_dim(lam) == two_row_dim(lam.part(0), lam.part(1))


def test_kostka_known_values():
    for k in range(1, 9):
        for mu in enumerate_partitions(k):
            assert kostka(mu, mu) == 1
            assert kostka((k,), mu) == 1
    assert kostka((2, 1), (1, 1, 1)) == 2
    with pytest.raises(DomainError):
        kostka((2,), (3,))


def test_kostka_vanishes_off_dominance():
    for k in range(0, 8):
        for mu in enumerate_partitions(k):
            for lam in enumerate_partitions(k):
                if not dominates(mu, lam):
                    assert kostka(mu, lam) == 0


def test_kostka_against_brute_force():
    for k in range(0, 7):
        for mu in enumerate_partitions(k):
            for lam in enumerate_partitions(k):
                assert kostka(mu, lam) == oracle_count_ssyt(mu, lam)


def test_lr_trivial_factor():
    for k in range(0, 7):
        for nu in enumerate_partitions(k):
            for lam in enumerate_partitions(k):
                assert lr_coefficient(nu, lam, ()) == (1 if nu == lam else 0)
                assert lr_coefficient(nu, (), lam) == (1 if nu == lam else 0)


def test_lr_examples():
    assert lr_coefficient((2, 1), (1,), (1, 1)) == 1
    assert lr_coefficient((2, 2), (2,), (2,)) == 1
    assert lr_coefficient((2, 2), (2, 1), (1,)) == 1
    assert lr_coefficient((4, 2), (2, 1), (2, 1)) == 1
    assert lr_coefficient((3, 2, 1), (2, 1), (2, 1)) == 2
    assert lr_coefficient((2, 2), (1, 1), (1, 1)) == 1
    with pytest.raises(DomainError):
        lr_coefficient((3,), (2,), (2,))
    assert lr_coefficient((2, 2), (3,), (1,)) == 0


def test_lr_pieri_special_case():
    for m in range(0, 6):
        for n in range(0, 4):
            for lam in enumerate_partitions(m):
                for nu in enumerate_partitions(m + n):
                    expected = int(is_horizontal_strip(nu, lam))
                    assert lr_coefficient(nu, lam, (n,) if n else ()) == expected


def test_lr_symmetry():
    for total in range(0, 7):
        for a in range(0, total + 1):
            for lam in enumerate_partitions(a):
                for mu in enumerate_partitions(total - a):
                    for nu in enumerate_partitions(total):
                        assert lr_coefficient(nu, lam, mu) == lr_coefficient(nu, mu, lam)


def test_lr_against_brute_force():
    for total in range(0, 7):
        for a in range(0, total + 1):
            for lam in enumerate_partitions(a):
                for mu in enumerate_partitions(total - a):
                    for nu in enumerate_partitions(total):
                        assert lr_coefficient(nu, lam, mu) == oracle_lr(nu, lam, mu)


def test_lr_induced_dimension_identity():
    for total in range(0, 9):
        for a in range(0, total + 1):
            for lam in enumerate_partitions(a):
                for mu in enumerate_partitions(total - a):
                    induced = sum(
                        lr_coefficient(nu, lam, mu) * specht_dim(nu)
                        for nu in enumerate_partitions(total)
                    )
                    assert induced == specht_dim(lam) * specht_dim(mu) * comb(total, a)


def test_lr_pieri_on_long_rows_and_columns():
    # Pieri: nu/(n) must be a horizontal strip, so c^nu_{(n),(n)} is 1 on
    # the two-row shapes and 0 once a column holds two skew cells.  The
    # rows are far longer than any oracle reaches, and the conjugates turn
    # them into long columns, where cells have cells above them.
    n = 500
    column = (1,) * n
    for j in range(n + 1):
        nu = Partition((2 * n - j, j) if j else (2 * n,))
        assert lr_coefficient(nu, (n,), (n,)) == 1
        assert lr_coefficient(nu.transpose(), column, column) == 1
    nu = Partition((2 * n - 2, 1, 1))
    assert lr_coefficient(nu, (n,), (n,)) == 0
    assert lr_coefficient(nu.transpose(), column, column) == 0


def test_lr_fill_memory_per_skew_cell():
    # the fill keeps one list slot (8 bytes) per skew cell and two ints per
    # row, so 24 bytes a cell leaves room for the list's over-allocation
    cells = 20_000
    row = Partition((cells,))
    tracemalloc.start()
    try:
        assert _lr.__wrapped__(row, Partition(), row) == 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 * cells


def test_strip_extensions_and_restrictions_are_inverse():
    for k in range(0, 7):
        for lam in enumerate_partitions(k):
            for n in range(0, 4):
                for mu in map(Partition, _horizontal_strips_above(lam, n)):
                    assert lam in _strips_below(mu, n, False)
                    assert mu.weight == k + n and is_horizontal_strip(mu, lam)
                above = conjugated_vertical_strips(_horizontal_strips_above, lam, n)
                for mu in map(Partition, above):
                    assert lam in _strips_below(mu, n, True)
                    assert mu.weight == k + n and is_vertical_strip(mu, lam)


def test_strip_enumerations_are_complete():
    # the loop over runs of equal rows lists exactly the shapes above by a
    # horizontal strip, in the canonical descending order, and their
    # conjugates are the shapes above the conjugate by a vertical strip
    for k in range(0, 9):
        for lam in enumerate_partitions(k):
            for n in range(0, k + 2):
                horiz = list(_horizontal_strips_above(lam, n))
                vert = conjugated_vertical_strips(_horizontal_strips_above, lam, n)
                assert horiz == sorted(set(horiz), reverse=True)
                for mu in enumerate_partitions(k + n):
                    assert (mu in horiz) == is_horizontal_strip(mu, lam)
                    assert (mu in vert) == is_vertical_strip(mu, lam)


def test_strips_of_tall_and_wide_shapes():
    # the enumerators loop over runs of equal rows, so neither a tall nor a
    # wide shape adds recursion depth
    tall, wide = Partition((1,) * 1500), Partition((1500,))
    assert _horizontal_strips_above(tall, 2) == ((3,) + (1,) * 1499, (2,) + (1,) * 1500)
    assert _horizontal_strips_above(Partition(), 1500) == (wide,)
    assert _strips_below(tall, 1, False) == ((1,) * 1499,)
    assert _strips_below(tall, 2, False) == ()
    assert _strips_below(wide, 2, False) == ((1498,),)
    assert _strips_below(tall, 2, True) == ((1,) * 1498,)
    assert _strips_below(wide, 1, True) == ((1499,),)
    assert _strips_below(wide, 2, True) == ()


def test_strip_removals_are_complete_and_descending():
    # the removal loops over runs of equal rows list exactly the shapes below
    # by a strip, in the canonical descending order
    for k in range(0, 9):
        for mu in enumerate_partitions(k):
            for n in range(0, k + 2):
                below = [
                    lam for lam in enumerate_partitions(k - n) if mu.contains(lam)
                ] if n <= k else []
                assert list(_strips_below(mu, n, False)) == [
                    lam for lam in below if is_horizontal_strip(mu, lam)
                ]
                assert list(_strips_below(mu, n, True)) == [
                    lam for lam in below if is_vertical_strip(mu, lam)
                ]


def conjugated_vertical_strips(horizontal, lam, n):
    """Reference: a vertical strip is the conjugate of a horizontal one, so
    transpose, run the horizontal loop, transpose back and sort."""
    return tuple(sorted(map(_conjugate, horizontal(_conjugate(lam), n)), reverse=True))


def test_vertical_strips_match_the_conjugation_reference():
    # the backward column loop takes its rows run by run, with no transpose;
    # the references conjugate the row loops, the forward one as the
    # forward build takes its column steps
    for k in range(0, 12):
        for n in range(0, k + 2):
            peeled = {tuple(mu): [] for mu in enumerate_partitions(k)}
            for lam in enumerate_partitions(k - n) if n <= k else ():
                for mu in conjugated_vertical_strips(_horizontal_strips_above, lam, n):
                    peeled[mu].append(tuple(lam))
            for plain, lams in peeled.items():
                below = _strips_below(plain, n, True)
                assert below == tuple(sorted(lams, reverse=True))
                assert below == conjugated_vertical_strips(
                    partial(_strips_below.__wrapped__, vertical=False), plain, n
                )
                horizontal = _strips_below(plain, n, False)
                assert all(type(shape) is tuple for shape in below + horizontal)
        for lam in enumerate_partitions(k):
            assert _specht_dim(tuple(lam)) == specht_dim(lam)
    # a 1500-row run loses its lowest rows; a 1500-cell row loses one cell
    assert _strips_below((1,) * 1500, 2, True) == ((1,) * 1498,)
    assert _strips_below((1500,), 1, True) == ((1499,),)


def test_kostka_peel_at_large_sizes():
    # closed forms: a hook (n-j, 1^j) holds C(n-1, j) standard fillings;
    # Kostka numbers vanish off dominance
    for n in (30, 200):
        ones = (1,) * n
        for j in (0, 1, 2, n - 1):
            hook = Partition((n - j,) + (1,) * j)
            assert kostka(hook, ones) == comb(n - 1, j)
        assert kostka((n - 1, 1), (n - 1, 1)) == 1
        assert kostka((n - 2, 2), (n - 1, 1)) == 0
        assert kostka(ones, (n,)) == 0


def peel_every_step(mu, steps):
    """Reference peel: one layer of strip removals per step, each one-cell
    step too, down to the empty shape."""
    table = {Partition(mu): 1}
    for size, vertical in steps:
        layer = {}
        for nu, paths in table.items():
            for rho in _strips_below(nu, size, vertical):
                layer[rho] = layer.get(rho, 0) + paths
        table = layer
    return table.get(Partition(), 0)


def test_one_cell_tail_matches_peeling_cell_by_cell():
    # every step list whose sizes end in ones, with the ones on either side
    checked = 0
    for n in range(1, 11):
        shapes = enumerate_partitions(n)
        for lam in shapes:
            if lam[-1] != 1:
                continue
            for triv, sign in splits(lam):
                strips = _split_strips(triv, sign)
                steps = sorted(
                    [(p, False) for p in triv] + [(q, True) for q in sign],
                    key=lambda step: (-step[0], step[1]),
                )
                for mu in shapes:
                    assert _peel(mu, strips) == peel_every_step(mu, steps)
                    checked += 1
    assert checked > 10_000


def test_kostka_with_unit_content_counts_standard_tableaux():
    for n in range(1, 13):
        for mu in enumerate_partitions(n):
            assert kostka(mu, [1] * n) == specht_dim(mu)
    assert kostka([8, 7, 6, 5, 4, 3, 2, 1], [1] * 36) == 29258366996258488320


def test_peel_memo_is_bounded():
    assert isinstance(_peel.cache_parameters()["maxsize"], int)
    assert _peel.cache_parameters()["maxsize"] == _PEEL_MEMO


def test_kostka_and_split_multiplicity_share_the_peel_memo():
    mu, lam = (4, 3, 2), (3, 3, 2, 1)
    _peel.cache_clear()
    value = kostka(mu, lam)
    assert value == 4
    assert _peel.cache_info()[:2] == (0, 1)  # (hits, misses)
    assert split_multiplicity(mu, lam, []) == value
    assert _peel.cache_info()[:2] == (1, 1)


def test_the_side_of_a_one_never_splits_a_memo_entry():
    mu = (3, 2, 1, 1)
    _peel.cache_clear()
    value = split_multiplicity(mu, (3, 1, 1), (2,))
    assert split_multiplicity(mu, (3, 1), (2, 1)) == value == 2
    assert _peel.cache_info()[:2] == (1, 1)
    assert _peel.cache_info().currsize == 1


def test_peel_memo_answers_as_the_peel_itself():
    _peel.cache_clear()
    checked = 0
    for k in range(0, 9):
        shapes = enumerate_partitions(k)
        for lam in shapes:
            for triv, sign in splits(lam):
                strips = _split_strips(triv, sign)
                for mu in shapes:
                    assert _peel(mu, strips) == _peel.__wrapped__(mu, strips)
                    checked += 1
    assert _peel.cache_info().hits > 0
    assert checked > 5_000


def test_oracles_refuse_large_inputs():
    with pytest.raises(DomainError):
        oracle_count_syt((6, 5))
    with pytest.raises(DomainError):
        oracle_count_ssyt((6, 5), (6, 5))
    with pytest.raises(DomainError):
        oracle_lr((6, 5), (3,), (5, 3))
