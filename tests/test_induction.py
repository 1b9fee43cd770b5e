import json
from math import comb, factorial

import pytest
from hypothesis import given, strategies as st

from isotypic import (
    Decomposition,
    DomainError,
    OrbitSpec,
    Partition,
    enumerate_partitions,
    h0_decomposition,
    irreducible,
    kostka,
    max_split_multiplicities,
    oracle_count_ssyt,
    oracle_lr,
    outer_product,
    sign_twist,
    specht_dim,
    split_module,
    split_multiplicity,
    splits,
    young_module,
)
from isotypic import tableaux
from isotypic.induction import _pieri_step
from isotypic.partitions import _conjugate
from isotypic.tableaux import (
    _horizontal_strips_above,
    _peel,
    _split_strips,
    _strips_below,
)
from kostka_lr import kostka_lr_split_multiplicity, scan_outer_product


@st.composite
def decomposition_strategy(draw, max_weight=6):
    k = draw(st.integers(min_value=0, max_value=max_weight))
    keys = enumerate_partitions(k)
    mults = draw(st.lists(st.integers(min_value=0, max_value=4), min_size=len(keys), max_size=len(keys)))
    return Decomposition(dict(zip(keys, mults)), ambient=k)


def _table(dec):
    # a decomposition as a table of the forward kernel, keyed by plain tuples
    return {tuple(key): mult for key, mult in dec.items()}


def _conjugate_table(table):
    return {_conjugate(lam): mult for lam, mult in table.items()}


def _sign_step(table, n):
    # a vertical Pieri step: a horizontal one on the conjugate shapes
    return _conjugate_table(_pieri_step(_conjugate_table(table), n))


def test_decomposition_basics():
    dec = Decomposition({(3,): 4, (2, 1): 2, (1, 1, 1): 0})
    assert dec.ambient == 3
    assert len(dec) == 2
    assert dec[(1, 1, 1)] == 0
    assert str(dec) == "4*[3] + 2*[2,1]"
    assert dec.items() == [(Partition((3,)), 4), (Partition((2, 1)), 2)]
    with pytest.raises(DomainError):
        Decomposition({(3,): 1, (2,): 1})
    with pytest.raises(DomainError):
        Decomposition({(3,): -1})
    with pytest.raises(DomainError):
        Decomposition({})
    # one symmetric group: the ambient is a natural number, every key a partition
    for ambient in ((2,), [2, 2], -1, "3"):
        with pytest.raises(DomainError):
            Decomposition({}, ambient=ambient)
    with pytest.raises(DomainError):
        Decomposition({((2,), (1,)): 1})
    empty = Decomposition({}, ambient=5)
    assert not empty and str(empty) == "0"
    assert hash(young_module((2,))) == hash(Decomposition({(2,): 1}))
    assert len({young_module((2,)), young_module([2])}) == 1
    assert repr(young_module((2,))) == "Decomposition({Partition((2,)): 1}, ambient=2)"


def test_decomposition_refuses_bools():
    # Python counts a bool as an int, but True is no multiplicity or weight:
    # it would print as "True*[2]" and compare equal to multiplicity 1
    for terms, ambient in [({(2,): True}, None), ({(2,): False}, 2), ({}, True), ({}, False)]:
        with pytest.raises(DomainError):
            Decomposition(terms, ambient=ambient)
    with pytest.raises(DomainError):
        Decomposition.from_json_dict({"ambient": True, "terms": {}})


def test_membership_refuses_what_is_no_partition():
    # membership answers False, as an admissible set's does; lookup raises
    dec = young_module((2, 1))
    assert (2, 1) in dec and [3] in dec and (1, 1, 1) not in dec
    for value in ((1, 2), 5, "x"):
        assert (value in dec) is False
        with pytest.raises(DomainError):
            dec[value]


def test_decomposition_arithmetic():
    a = Decomposition({(2,): 1})
    b = Decomposition({(2,): 2, (1, 1): 1})
    assert (a + b)[(2,)] == 3
    with pytest.raises(DomainError):
        a + Decomposition({(3,): 1})
    assert a.total_dim() == 1
    assert young_module((1, 1, 1)).total_dim() == 6
    # only decompositions compare equal to, or add to, a decomposition
    assert (young_module((2,)) == 3) is False
    with pytest.raises(TypeError):
        young_module((2,)) + 3

def test_decomposition_json_round_trip():
    dec = young_module((2, 1))
    data = json.loads(json.dumps(dec.to_json_dict()))
    assert Decomposition.from_json_dict(data) == dec
    assert data == {"ambient": 3, "terms": {"[3]": "1", "[2,1]": "1"}}
    empty = Decomposition({}, ambient=4)
    assert Decomposition.from_json_dict(empty.to_json_dict()) == empty
    with pytest.raises(DomainError):
        Decomposition.from_json_dict({"ambient": [2, 2], "terms": {}})


def test_young_module_examples():
    for k in range(1, 7):
        assert young_module((k,)) == irreducible((k,))
    m11 = young_module((1, 1))
    assert m11[(2,)] == 1 and m11[(1, 1)] == 1
    m21 = young_module((2, 1))
    assert m21[(3,)] == 1 and m21[(2, 1)] == 1 and len(m21) == 2


def test_young_module_dimension():
    for k in range(0, 8):
        for lam in enumerate_partitions(k):
            expected = factorial(k)
            for part in lam:
                expected //= factorial(part)
            assert young_module(lam).total_dim() == expected


def test_young_module_is_built_once_and_left_as_built():
    lam = (4, 4, 4, 2, 2, 1, 1, 1, 1, 1, 1)
    dec = young_module(lam)
    assert len(dec) == 786
    assert dec.total_dim() == factorial(22) // (factorial(4) ** 3 * factorial(2) ** 2)
    # a repeated Young module is a lookup in the split-module cache
    assert young_module(Partition(lam)) is dec
    assert split_module(lam, ()) is dec
    # callers share the value, and none of the combinators changes it
    spec = OrbitSpec(22, (("a", lam), ("b", lam)))
    assert h0_decomposition(spec) == dec + dec
    assert sign_twist(sign_twist(dec)) == dec
    assert dec == Decomposition(
        {mu: kostka(mu, lam) for mu in enumerate_partitions(22)}, ambient=22
    )


def test_pieri_row_examples():
    assert _pieri_step({(1,): 1}, 1) == {(2,): 1, (1, 1): 1}
    for k in range(1, 5):
        for n in range(0, 4):
            stepped = _pieri_step({(k,): 1}, n)
            expected = {(k + n - j, j) if j else (k + n,): 1 for j in range(min(n, k) + 1)}
            assert stepped == expected
    table = {(2, 1): 3, (3,): 1}
    assert _pieri_step(table, 0) == table
    # the kernel's own corner loop takes the one-cell steps
    for k in range(0, 13):
        for lam in enumerate_partitions(k):
            plain = tuple(lam)
            stepped = _pieri_step({plain: 1}, 1)
            assert stepped == {mu: 1 for mu in _horizontal_strips_above(plain, 1)}
            assert all(type(mu) is tuple for mu in stepped)


def test_pieri_col_examples():
    assert _sign_step({(1,): 1}, 1) == {(2,): 1, (1, 1): 1}
    assert _sign_step({(2,): 1}, 2) == {(3, 1): 1, (2, 1, 1): 1}
    table = {(2, 1): 3, (3,): 1}
    assert _sign_step(table, 0) == table


@given(decomposition_strategy(), st.integers(min_value=0, max_value=3))
def test_pieri_transpose_duality(dec, n):
    # the conjugated row step reaches mu from lam exactly when the backward
    # column loop peels lam from mu by a vertical strip
    table = _table(dec)
    expected: dict = {}
    for mu in map(tuple, enumerate_partitions(dec.ambient + n)):
        for lam in _strips_below(mu, n, True):
            if lam in table:
                expected[mu] = expected.get(mu, 0) + table[lam]
    assert _sign_step(table, n) == expected


def test_pieri_scales_dimension_by_binomial():
    for k in range(0, 6):
        for lam in enumerate_partitions(k):
            for n in range(0, 4):
                target = specht_dim(lam) * comb(k + n, n)
                for step in (_pieri_step, _sign_step):
                    stepped = step({tuple(lam): 1}, n)
                    assert Decomposition(stepped, ambient=k + n).total_dim() == target


def test_outer_product_examples():
    one = irreducible((1,))
    prod = outer_product(one, one)
    assert prod[(2,)] == 1 and prod[(1, 1)] == 1
    for m in range(1, 4):
        for n in range(1, 4):
            assert outer_product(irreducible((m,)), irreducible((n,))) == young_module(
                sorted((m, n), reverse=True)
            )


def test_outer_product_associative():
    cases = [
        (irreducible((2,)), irreducible((1, 1)), irreducible((1,))),
        (young_module((1, 1)), irreducible((2, 1)), irreducible((1,))),
    ]
    for d1, d2, d3 in cases:
        assert outer_product(outer_product(d1, d2), d3) == outer_product(d1, outer_product(d2, d3))


def test_outer_product_equals_the_scan_over_every_partition():
    # every ordered pair of irreducibles of total weight <= 10, so each key
    # is the base on one side of a tie or a length difference
    for total in range(0, 11):
        for a in range(0, total + 1):
            for lam in enumerate_partitions(a):
                for mu in enumerate_partitions(total - a):
                    d1, d2 = irreducible(lam), irreducible(mu)
                    assert outer_product(d1, d2) == scan_outer_product(d1, d2)
    products = [
        (young_module((3, 2, 1)), young_module((2, 2, 1))),
        (split_module((2, 1), (2,)), young_module((1, 1, 1)) + irreducible((2, 1))),
    ]
    for d1, d2 in products:
        assert outer_product(d1, d2) == scan_outer_product(d1, d2)
        assert outer_product(d2, d1) == outer_product(d1, d2)


def test_outer_product_equals_the_lr_oracle():
    for total in range(0, 9):
        shapes = enumerate_partitions(total)
        for a in range(0, total + 1):
            for lam in enumerate_partitions(a):
                for mu in enumerate_partitions(total - a):
                    expected = {nu: oracle_lr(nu, lam, mu) for nu in shapes}
                    assert outer_product(irreducible(lam), irreducible(mu)) == Decomposition(
                        expected, ambient=total
                    )


def test_outer_product_fills_only_the_shapes_of_its_pieri_table():
    # s_(30) h_(30) reaches the 31 shapes (60 - j, j), each with coefficient
    # 1; a scan over Par(60) would try 966,467 shapes and fill 28,629
    before = tableaux._lr.cache_info().currsize
    product = outer_product(irreducible((30,)), irreducible((30,)))
    assert product == young_module((30, 30)) and len(product) == 31
    assert tableaux._lr.cache_info().currsize - before <= 31


def test_outer_product_of_long_columns_steps_their_conjugates():
    # two columns of 60 would take 60 one-cell steps and fill every shape
    # that holds the base column; their conjugates take one step of 60
    before = tableaux._lr.cache_info().currsize
    column = irreducible((1,) * 60)
    product = outer_product(column, column)
    assert len(product) == 61
    assert product == sign_twist(outer_product(irreducible((60,)), irreducible((60,))))
    assert tableaux._lr.cache_info().currsize - before <= 61


def test_split_module_examples():
    for k in range(0, 7):
        for lam in enumerate_partitions(k):
            assert split_module(lam, ()) == young_module(lam)
    for k in range(1, 7):
        assert split_module((), (k,)) == irreducible((1,) * k)
    both = split_module((1,), (1,))
    assert both[(2,)] == 1 and both[(1, 1)] == 1


def test_split_module_dimension():
    for k in range(0, 8):
        for lam in enumerate_partitions(k):
            for triv, sign in splits(lam):
                expected = factorial(k)
                for part in triv + sign:
                    expected //= factorial(part)
                assert split_module(triv, sign).total_dim() == expected


def test_split_module_step_order_is_immaterial():
    from itertools import permutations

    for triv, sign in [((3, 2), (2, 1)), ((2, 2), (1, 1)), ((4,), (2, 2))]:
        base = _table(split_module(triv, sign))
        for triv_order in set(permutations(triv)):
            for sign_order in set(permutations(sign)):
                table = {(): 1}
                for p in triv_order:
                    table = _pieri_step(table, p)
                for q in sign_order:
                    table = _sign_step(table, q)
                assert table == base
    # interleaving row and column steps reorders the inducing factors only
    interleaved = {(): 1}
    for n, step in ((3, _pieri_step), (2, _sign_step), (2, _pieri_step), (1, _sign_step)):
        interleaved = step(interleaved, n)
    assert interleaved == _table(split_module((3, 2), (2, 1)))


def test_split_module_swapping_sides_is_a_sign_twist():
    for k in range(0, 7):
        for lam in enumerate_partitions(k):
            for triv, sign in splits(lam):
                assert sign_twist(split_module(triv, sign)) == split_module(sign, triv)


def test_split_multiplicity_examples():
    # a sign factor on more than one letter kills the trivial target
    assert split_multiplicity((3,), (), (3,)) == 0
    assert split_multiplicity((3,), (2, 1), ()) == 1
    assert split_multiplicity((3,), (2,), (1,)) == 1
    # all-ones sign side induces from the trivial subgroup: regular module
    assert split_multiplicity((2, 1), (1,), (1, 1)) == 2
    for k in range(1, 7):
        for lam in enumerate_partitions(k):
            for mu in enumerate_partitions(k):
                assert split_multiplicity(mu, lam, ()) == kostka(mu, lam)
    with pytest.raises(DomainError):
        split_multiplicity((3,), (1,), (1,))


def test_trivial_target_max_over_splits_is_one():
    for k in range(1, 7):
        for lam in enumerate_partitions(k):
            values = [split_multiplicity((k,), triv, sign) for triv, sign in splits(lam)]
            assert max(values) == 1
            for (triv, sign), value in zip(splits(lam), values):
                assert value == (1 if all(part == 1 for part in sign) else 0)


def test_dual_path_split_multiplicities():
    # a 1 on either side is a forward corner step, and a one-cell tail of
    # the peel, counted by the hook-length formula
    for k in range(0, 9):
        for lam in enumerate_partitions(k):
            for triv, sign in splits(lam):
                via_pieri = split_module(triv, sign)
                for mu in enumerate_partitions(k):
                    assert split_multiplicity(mu, triv, sign) == via_pieri[mu]


def test_modules_are_keyed_by_partitions():
    # the forward kernel runs on plain tuples; its outputs do not
    modules = [
        young_module((3, 2, 1, 1)),
        split_module((2, 1), (2, 1)),
        split_module((2, 1), (2,)),
        split_module((1,), (1,)),
    ]
    for dec in modules:
        assert all(type(key) is Partition for key in dec.support())
    assert all(type(key) is Partition for key in max_split_multiplicities((2, 2, 1, 1)))
    assert str(young_module([2, 1, 1])) == "1*[4] + 2*[3,1] + 1*[2,2] + 1*[2,1,1]"


def test_split_support_row_column_confinement():
    # supports fit inside the union of t rows and t columns, t = length(lam)
    for k in range(1, 8):
        for lam in enumerate_partitions(k):
            t = len(lam)
            for triv, sign in splits(lam):
                for mu in split_module(triv, sign).support():
                    assert mu.part(t) <= t


def test_sign_twist():
    for k in range(1, 7):
        assert sign_twist(irreducible((k,))) == irreducible((1,) * k)
    twisted = sign_twist(Decomposition({(2,): 3, (1, 1): 1}))
    assert twisted[(1, 1)] == 3 and twisted[(2,)] == 1


@given(decomposition_strategy())
def test_sign_twist_involution(dec):
    assert sign_twist(sign_twist(dec)) == dec
    # conjugation merges no keys, so the twist is the validated rekeying
    rekeyed = Decomposition({key.transpose(): mult for key, mult in dec.items()}, dec.ambient)
    assert sign_twist(dec) == rekeyed and len(sign_twist(dec)) == len(dec)


def test_max_split_multiplicities_table():
    for k in range(0, 6):
        for lam in enumerate_partitions(k):
            table = max_split_multiplicities(lam)
            for mu in enumerate_partitions(k):
                direct = max(
                    split_module(triv, sign)[mu] for triv, sign in splits(lam)
                )
                assert table.get(mu, 0) == direct


@st.composite
def split_case(draw, max_weight=10):
    n = draw(st.integers(min_value=0, max_value=max_weight))
    a = draw(st.integers(min_value=0, max_value=n))
    triv = draw(st.sampled_from(enumerate_partitions(a)))
    sign = draw(st.sampled_from(enumerate_partitions(n - a)))
    mu = draw(st.sampled_from(enumerate_partitions(n)))
    return mu, triv, sign


@given(split_case())
def test_peel_agrees_with_forward_pieri_and_kostka_lr(case):
    mu, triv, sign = case
    peeled = _peel(mu, _split_strips(triv, sign))
    assert peeled == split_module(triv, sign)[mu] == split_multiplicity(mu, triv, sign)


def test_split_multiplicity_matches_kostka_lr_route_exhaustively():
    for k in range(0, 7):
        for a in range(0, k + 1):
            for triv in enumerate_partitions(a):
                for sign in enumerate_partitions(k - a):
                    for mu in enumerate_partitions(k):
                        assert split_multiplicity(mu, triv, sign) == kostka_lr_split_multiplicity(
                            mu, triv, sign
                        )


@given(split_case())
def test_split_multiplicity_matches_kostka_lr_route(case):
    mu, triv, sign = case
    assert split_multiplicity(mu, triv, sign) == kostka_lr_split_multiplicity(mu, triv, sign)


@given(split_case(max_weight=14))
def test_split_multiplicity_conjugation_swaps_sides(case):
    mu, triv, sign = case
    value = split_multiplicity(mu, triv, sign)
    assert value == split_multiplicity(mu.transpose(), sign, triv)
    # the peel of mu and the peel of its transpose, sides swapped, must agree
    assert value == _peel(mu, _split_strips(triv, sign))
    assert value == _peel(mu.transpose(), _split_strips(sign, triv))


def test_young_module_multiplicities_are_kostka_numbers():
    assert young_module(()) == Decomposition({(): 1}, ambient=0)
    for k in range(0, 9):
        shapes = enumerate_partitions(k)
        for lam in shapes:
            dec = young_module(lam)
            assert dec.ambient == k
            assert len(dec) == sum(1 for mu in shapes if kostka(mu, lam))
            for mu in shapes:
                assert dec[mu] == kostka(mu, lam)


def test_young_module_with_a_long_one_cell_tail():
    # (3, 2, 1^r) ends in r one-cell Pieri steps, past the weights above
    for r in range(0, 10):
        lam = (3, 2) + (1,) * r
        dec = young_module(lam)
        for mu in enumerate_partitions(5 + r):
            assert dec[mu] == kostka(mu, lam)


def test_young_module_matches_tableau_oracle():
    for k in range(0, 8):
        shapes = enumerate_partitions(k)
        for lam in shapes:
            dec = young_module(lam)
            for mu in shapes:
                assert dec[mu] == oracle_count_ssyt(mu, lam)
