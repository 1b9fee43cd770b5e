import json
import random
from fractions import Fraction
from math import factorial

import pytest

from isotypic import (
    Decomposition,
    DomainError,
    OrbitSpec,
    Partition,
    closed_form_multiplicity,
    enumerate_partitions,
    example_variety,
    h0_decomposition,
    mv_check,
    orbit_intersection,
    orbit_union,
    projective_example_variety,
    sign_twist,
    top_cohomology,
    verify_power_identity,
    young_module,
)


def test_orbit_spec_validation():
    with pytest.raises(DomainError):
        OrbitSpec(3, (("a", Partition((2,))),))
    with pytest.raises(DomainError):
        OrbitSpec(2, (("a", Partition((2,))), ("a", Partition((1, 1)))))
    spec = OrbitSpec(2, (("a", Partition((2,))), ("b", Partition((1, 1)))))
    assert len(spec) == 2


def test_orbit_spec_json_round_trip():
    spec = example_variety(4)
    data = json.loads(json.dumps(spec.to_json_dict()))
    assert OrbitSpec.from_json_dict(data) == spec
    assert data["k"] == 4
    assert data["orbits"][0] == {"label": "0", "stabilizer": "[4]"}


def test_example_variety_structure():
    spec = example_variety(2)
    assert [tuple(stab) for _, stab in spec.orbits] == [(2,), (1, 1), (2,)]
    spec = example_variety(3)
    assert [tuple(stab) for _, stab in spec.orbits] == [(3,), (2, 1), (2, 1), (3,)]
    for k in range(1, 9):
        assert len(example_variety(k)) == k + 1
    assert projective_example_variety is example_variety
    with pytest.raises(DomainError):
        example_variety(0)


def test_h0_single_and_double_orbit():
    single = OrbitSpec(3, (("x", Partition((3,))),))
    assert h0_decomposition(single) == young_module((3,))
    double = OrbitSpec(2, (("x", Partition((2,))), ("y", Partition((1, 1)))))
    dec = h0_decomposition(double)
    assert dec[(2,)] == 2 and dec[(1, 1)] == 1


def test_h0_of_example_matches_closed_form():
    for k in range(1, 10):
        dec = h0_decomposition(example_variety(k))
        two_rows = enumerate_partitions(k, 2)
        assert dec.support() == sorted(two_rows, reverse=True)
        for mu in two_rows:
            assert dec[mu] == closed_form_multiplicity(mu)
        assert dec.total_dim() == 2**k
        if k > 2:
            assert dec[(1,) * k] == 0


def test_example_support_is_admissible_at_defining_degree():
    from isotypic import is_admissible

    for k in range(1, 11):
        for mu in h0_decomposition(example_variety(k)).support():
            assert is_admissible(mu, 4, 1)


def test_closed_form_examples():
    for k in range(1, 10):
        assert closed_form_multiplicity((k,)) == k + 1
    assert closed_form_multiplicity((2, 1)) == 2
    assert closed_form_multiplicity((1, 1)) == 1
    with pytest.raises(DomainError):
        closed_form_multiplicity((2, 1, 1))


def test_power_identity():
    assert verify_power_identity(1) == (True, 2, 2)
    assert verify_power_identity(3) == (True, 8, 8)
    assert verify_power_identity(10) == (True, 1024, 1024)
    for k in range(1, 21):
        check = verify_power_identity(k)
        assert check.holds and check.lhs == 2**k


def test_power_identity_matches_rational_sum():
    # the sum as the docstring states it, in exact rationals
    for k in range(1, 81):
        total = sum(
            Fraction((k - 2 * mu2 + 1) ** 2, factorial(k - mu2 + 1) * factorial(mu2))
            for mu2 in range(k // 2 + 1)
        )
        lhs = factorial(k) * total
        assert lhs.denominator == 1
        expected = (lhs == 2**k, int(lhs), 2**k)
        check = verify_power_identity(k)
        assert tuple(check) == expected and type(check.lhs) is int
    with pytest.raises(DomainError):
        verify_power_identity(0)


def test_top_cohomology_examples():
    top2 = top_cohomology(h0_decomposition(example_variety(2)))
    assert top2[(1, 1)] == 3 and top2[(2,)] == 1
    top3 = top_cohomology(h0_decomposition(example_variety(3)))
    assert top3[(1, 1, 1)] == 4 and top3[(2, 1)] == 2
    for k in range(1, 8):
        h0 = h0_decomposition(example_variety(k))
        assert top_cohomology(top_cohomology(h0)) == h0
        if k > 2:
            assert top_cohomology(h0)[(k,)] == 0


def _sub_spec(spec, labels):
    return OrbitSpec(spec.k, tuple(o for o in spec.orbits if o[0] in labels))


def test_mv_check_degenerate_cases():
    spec = example_variety(4)
    full = h0_decomposition(spec)
    empty = Decomposition({}, ambient=4)
    assert mv_check(full, empty, full, empty)
    a = _sub_spec(spec, {"0", "1"})
    b = _sub_spec(spec, {"2", "3"})
    assert mv_check(
        h0_decomposition(a),
        h0_decomposition(b),
        h0_decomposition(orbit_union(a, b)),
        h0_decomposition(orbit_intersection(a, b)),
    )
    with pytest.raises(DomainError):
        mv_check(full, empty, full, Decomposition({}, ambient=3))


def test_mv_check_random_orbit_subsets():
    spec = example_variety(6)
    labels = [label for label, _ in spec.orbits]
    rng = random.Random(20240817)
    for _ in range(60):
        a = _sub_spec(spec, {l for l in labels if rng.random() < 0.5})
        b = _sub_spec(spec, {l for l in labels if rng.random() < 0.5})
        assert mv_check(
            h0_decomposition(a),
            h0_decomposition(b),
            h0_decomposition(orbit_union(a, b)),
            h0_decomposition(orbit_intersection(a, b)),
        )


def test_union_bound_over_singletons():
    # degree-zero union bound: m(U S_j) <= sum_j m(S_j)
    spec = example_variety(5)
    singles = [_sub_spec(spec, {label}) for label, _ in spec.orbits]
    union = h0_decomposition(spec)
    for mu in union.support():
        assert union[mu] <= sum(h0_decomposition(s)[mu] for s in singles)


def test_orbit_set_operations():
    spec = example_variety(4)
    a = _sub_spec(spec, {"0", "1"})
    b = _sub_spec(spec, {"3"})
    assert orbit_union(a, a) == a
    assert orbit_intersection(a, a) == a
    assert len(orbit_union(a, b)) == 3
    assert len(orbit_intersection(a, b)) == 0
    sub = _sub_spec(spec, {"0"})
    assert orbit_intersection(sub, a) == sub
    conflicting = OrbitSpec(4, (("0", Partition((2, 2))),))
    with pytest.raises(DomainError):
        orbit_union(a, conflicting)
    other_k = OrbitSpec(3, (("z", Partition((3,))),))
    with pytest.raises(DomainError):
        orbit_union(a, other_k)
