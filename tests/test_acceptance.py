"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
with its runtime and enforcing the stated budget.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import json
import random
import subprocess
import sys
import time
from math import factorial

from isotypic import (
    BoundParams,
    affine_multiplicity_bound,
    admissible_set,
    closed_form_multiplicity,
    dominates,
    enumerate_partitions,
    example_variety,
    h0_decomposition,
    kostka,
    lr_coefficient,
    mv_check,
    oracle_count_ssyt,
    oracle_count_syt,
    oracle_lr,
    orbit_intersection,
    orbit_union,
    restriction_check,
    specht_dim,
    split_module,
    split_multiplicity,
    splits,
    top_cohomology,
    verify_power_identity,
    young_module,
    OrbitSpec,
    Partition,
)


def run_criterion(number, description, budget_seconds, body):
    start = time.perf_counter()
    try:
        body()
    except Exception:
        print(f"FAIL criterion {number}: {description}")
        raise
    elapsed = time.perf_counter() - start
    print(f"PASS criterion {number}: {description} ({elapsed:.2f}s)")
    assert elapsed < budget_seconds, (
        f"criterion {number} took {elapsed:.2f}s, budget {budget_seconds}s"
    )


def test_criterion_1_example_reproduction():
    def body():
        for k in range(2, 13):
            dec = h0_decomposition(example_variety(k))
            two_rows = enumerate_partitions(k, 2)
            assert dec.support() == sorted(two_rows, reverse=True)
            for mu in two_rows:
                assert dec[mu] == 2 * mu[0] - k + 1 == closed_form_multiplicity(mu)
            assert dec.total_dim() == 2**k
            top = top_cohomology(dec)
            for mu in two_rows:
                assert top[mu.transpose()] == dec[mu]
        assert str(h0_decomposition(example_variety(2))) == "3*[2] + 1*[1,1]"
        assert str(h0_decomposition(example_variety(3))) == "4*[3] + 2*[2,1]"
        top2 = top_cohomology(h0_decomposition(example_variety(2)))
        assert top2[(1, 1)] == 3 and top2[(2,)] == 1 and len(top2) == 2
        top3 = top_cohomology(h0_decomposition(example_variety(3)))
        assert top3[(1, 1, 1)] == 4 and top3[(2, 1)] == 2 and len(top3) == 2

    run_criterion(1, "worked example reproduced exactly for k=2..12", 5, body)


def test_criterion_2_power_identity():
    def body():
        for k in range(1, 31):
            holds, lhs, rhs = verify_power_identity(k)
            assert holds and lhs == rhs == 2**k

    run_criterion(2, "squared two-row identity equals 2^k for k=1..30", 1, body)


def test_criterion_3_oracle_equivalence():
    def body():
        for k in range(0, 9):
            parts = enumerate_partitions(k)
            for mu in parts:
                for lam in parts:
                    assert kostka(mu, lam) == oracle_count_ssyt(mu, lam)
        for k in range(0, 11):
            for lam in enumerate_partitions(k):
                assert specht_dim(lam) == oracle_count_syt(lam)
        for total in range(0, 9):
            outers = enumerate_partitions(total)
            for a in range(0, total + 1):
                for lam in enumerate_partitions(a):
                    for mu in enumerate_partitions(total - a):
                        for nu in outers:
                            assert lr_coefficient(nu, lam, mu) == oracle_lr(nu, lam, mu)

    run_criterion(3, "kostka/specht_dim/lr match brute-force oracles", 60, body)


def test_criterion_4_dual_path_multiplicities():
    def body():
        for k in range(0, 8):
            parts = enumerate_partitions(k)
            for lam in parts:
                for triv, sign in splits(lam):
                    via_pieri = split_module(triv, sign)
                    for mu in parts:
                        assert split_multiplicity(mu, triv, sign) == via_pieri[mu]

    run_criterion(4, "split multiplicities agree on both computation paths, k<=7", 120, body)


def test_criterion_5_restriction_property():
    def body():
        for k in range(1, 13):
            for d, m in [(1, 1), (2, 1), (1, 2)]:
                for mu in admissible_set(k, d, m).members:
                    assert restriction_check(mu, d, m)
        assert Partition((4, 2, 1)) not in admissible_set(7, 1, 1)

    run_criterion(5, "admissible members pass the restriction test; staircase excluded", 60, body)


def test_criterion_6_bound_soundness():
    def body():
        for k in range(1, 11):
            dec = h0_decomposition(example_variety(k))
            params = BoundParams((k,), (1,), 4)
            for mu in dec.support():
                report = affine_multiplicity_bound(mu, params)
                assert not report.excluded
                assert dec[mu] <= report.value
            if k > 2:
                assert dec[(1,) * k] == 0

    run_criterion(6, "exact example multiplicities within the affine bound (d=4)", 60, body)


def test_criterion_7_classical_identities():
    def body():
        for k in range(0, 11):
            assert sum(specht_dim(p) ** 2 for p in enumerate_partitions(k)) == factorial(k)
        for k in range(0, 9):
            for lam in enumerate_partitions(k):
                expected = factorial(k)
                for part in lam:
                    expected //= factorial(part)
                assert young_module(lam).total_dim() == expected
        for k in range(0, 11):
            parts = enumerate_partitions(k)
            relation = {(a, b): dominates(a, b) for a in parts for b in parts}
            for a in parts:
                for b in parts:
                    assert relation[(a, b)] == dominates(b.transpose(), a.transpose())

    run_criterion(7, "dimension and dominance identities", 30, body)


def test_criterion_8_mayer_vietoris():
    def body():
        spec = example_variety(6)
        labels = [label for label, _ in spec.orbits]
        rng = random.Random(6_0221_4076)

        def subset():
            chosen = {label for label in labels if rng.random() < 0.5}
            return OrbitSpec(spec.k, tuple(o for o in spec.orbits if o[0] in chosen))

        for _ in range(200):
            a, b = subset(), subset()
            assert mv_check(
                h0_decomposition(a),
                h0_decomposition(b),
                h0_decomposition(orbit_union(a, b)),
                h0_decomposition(orbit_intersection(a, b)),
            )

    run_criterion(8, "Mayer-Vietoris inequality on 200 randomized orbit pairs", 10, body)


GOLDEN_COMMANDS = [
    ["partitions", "6"],
    ["partitions", "6", "--max-len", "3"],
    ["dim", "[4,2,1]"],
    ["kostka", "[3,1]", "[2,1,1]"],
    ["lr", "[3,2]", "[2,1]", "[2]"],
    ["young", "[2,2]"],
    ["split-mult", "[3,1]", "[2,1]", "[1]"],
    ["split-module", "[2]", "[2]"],
    ["iset", "6", "1", "1"],
    ["iset", "6", "1", "1", "--enumerate"],
    ["iset", "7", "1", "1", "--member", "[4,2,1]"],
    ["bound", "affine", "--k", "4", "--d", "1", "--m", "1", "--mu", "[4]"],
    ["bound", "sa", "--k", "3", "--d", "1", "--m", "1", "--s", "2", "--mu", "[3]"],
    ["bound", "complex", "--k", "2", "--d", "1", "--m", "1", "--mu", "[2]"],
    ["bound", "projective", "--k", "3", "--d", "1"],
    ["bound", "equivariant", "--k", "4", "--d", "1", "--m", "1"],
    ["bound", "projection", "--k", "2", "--m", "1", "--d", "1"],
    ["example", "4"],
    ["example", "3", "--top", "--verify-identity"],
]


def _run_cli_bytes(argv):
    result = subprocess.run(
        [sys.executable, "-m", "isotypic", *argv],
        capture_output=True,
        check=False,
    )
    assert result.returncode == 0, (argv, result.stderr)
    return result.stdout


def test_criterion_9_cli_determinism(tmp_path):
    def body():
        spec = example_variety(5)
        first = OrbitSpec(5, spec.orbits[:3])
        second = OrbitSpec(5, spec.orbits[2:])
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        p1.write_text(json.dumps(first.to_json_dict()))
        p2.write_text(json.dumps(second.to_json_dict()))
        commands = GOLDEN_COMMANDS + [["mv-check", str(p1), str(p2)]]
        for argv in commands:
            for fmt in ("text", "json"):
                base = _run_cli_bytes(["--format", fmt, *argv])
                rerun = _run_cli_bytes(["--format", fmt, *argv])
                assert rerun == base, argv

    run_criterion(9, "CLI output byte-identical across runs", 120, body)
