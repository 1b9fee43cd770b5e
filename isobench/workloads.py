"""Seeded inputs for the four benchmark workloads.

Inputs are made here, from the seed alone, with the benchmark's own
partition code: they do not depend on the version of ``isotypic`` under
test, so a parent commit and a change receive byte-identical inputs.
Every value is plain JSON (partitions are lists of ints).

``make_inputs(workload, seed, size)`` returns ``{"ops": [...], "checks":
{...}, "groups": [...]}``.  ``ops`` is the timed operation list; ``checks``
holds the extra inputs that the untimed correctness checks need; ``groups``
labels each operation with the part of the workload it belongs to, for the
report's time shares.  ``size`` is ``"full"``
for real runs and ``"tiny"`` for the self-test.
"""

from __future__ import annotations

import random
from functools import lru_cache

WORKLOADS = ("cli-golden", "iset-sweep", "bound-sweep", "query-mix")

# The acceptance suite's golden CLI commands (tests/test_acceptance.py,
# GOLDEN_COMMANDS).  Copied so that the benchmark's inputs stay fixed when
# the suite changes; selftest.py reports any drift.
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

# Placeholders in an mv-check argv, replaced by the spec file paths the
# runner writes from ``checks["mv_specs"]``.
MV_SPEC_1 = "@spec1"
MV_SPEC_2 = "@spec2"


@lru_cache(maxsize=None)
def partitions(k: int, max_len: int | None = None) -> tuple[tuple[int, ...], ...]:
    """Partitions of ``k`` (at most ``max_len`` parts), reverse-lexicographic."""
    cap = k if max_len is None else min(k, max_len)
    out: list[tuple[int, ...]] = []

    def rec(left: int, largest: int, rows: int, prefix: list[int]) -> None:
        if left == 0:
            out.append(tuple(prefix))
            return
        if rows == 0:
            return
        for part in range(min(left, largest), 0, -1):
            prefix.append(part)
            rec(left - part, part, rows - 1, prefix)
            prefix.pop()

    rec(k, k, cap, [])
    return tuple(out)


def count_exact_length(k: int, length: int) -> int:
    """Partitions of ``k`` with exactly ``length`` parts, by the standard recurrence."""
    table = [[0] * (length + 1) for _ in range(k + 1)]
    table[0][0] = 1
    for n in range(1, k + 1):
        for parts in range(1, min(n, length) + 1):
            table[n][parts] = table[n - 1][parts - 1] + table[n - parts][parts]
    return table[k][length]


def fits_in_corner(mu, threshold: int) -> bool:
    """No (threshold+1)-square in the diagram."""
    return len(mu) <= threshold or mu[threshold] <= threshold


def two_sided_splits(lam) -> list[tuple[list[int], list[int]]]:
    """Every split of the part multiset of ``lam`` into a (triv, sign) pair."""
    out: list[tuple[list[int], list[int]]] = [([], [])]
    for part in lam:
        out = [(a + [part], b) for a, b in out] + [(a, b + [part]) for a, b in out]
    unique = {(tuple(a), tuple(b)) for a, b in out}
    return [(list(a), list(b)) for a, b in sorted(unique, reverse=True)]


def _grow(rng: random.Random, lam, cells: int) -> list[int]:
    """Add ``cells`` cells to ``lam`` one addable corner at a time."""
    parts = list(lam)
    for _ in range(cells):
        corners = [i for i in range(len(parts) + 1)
                   if i == 0 or i == len(parts) or parts[i] < parts[i - 1]]
        i = rng.choice(corners)
        if i == len(parts):
            parts.append(1)
        else:
            parts[i] += 1
    return parts


def _raise(rng: random.Random, lam, steps: int) -> list[int]:
    """Move ``steps`` cells to higher rows; the result dominates ``lam``."""
    parts = list(lam)
    for _ in range(steps):
        moves = []
        for j in range(1, len(parts)):
            below = parts[j + 1] if j + 1 < len(parts) else 0
            if parts[j] - 1 < below:
                continue
            for i in range(j):
                if i == 0 or parts[i] + 1 <= parts[i - 1]:
                    moves.append((i, j))
        if not moves:
            break
        i, j = rng.choice(moves)
        parts[i] += 1
        parts[j] -= 1
        parts = [p for p in parts if p]
    return parts


def _choice(rng: random.Random, k: int) -> list[int]:
    return list(rng.choice(partitions(k)))


def _fmt(lam) -> str:
    return "[" + ",".join(str(p) for p in lam) + "]"


def _cli_golden(rng: random.Random, size: str) -> dict:
    orbits = [(str(i), [p for p in (max(i, 5 - i), min(i, 5 - i)) if p]) for i in range(6)]
    # two overlapping orbit subsets of the k=5 hypercube model
    first = sorted(rng.sample(range(6), 3))
    second = sorted(set(rng.sample(range(6), 3)) | {first[-1]})
    specs = [
        {"k": 5, "orbits": [{"label": orbits[i][0], "stabilizer": _fmt(orbits[i][1])}
                            for i in chosen]}
        for chosen in (first, second)
    ]
    commands = GOLDEN_COMMANDS + [["mv-check", MV_SPEC_1, MV_SPEC_2]]
    if size == "tiny":
        commands = [commands[2], commands[-1]]
    ops = [["--format", fmt, *argv] for argv in commands for fmt in ("text", "json")]
    rng.shuffle(ops)
    return {"ops": ops, "checks": {"mv_specs": specs}, "groups": [op[2] for op in ops]}


def _iset_sweep(rng: random.Random, size: str) -> dict:
    # The sweep itself is fixed: the seed only picks what the checks rebuild.
    sweep = range(10, 19) if size == "full" else range(4, 9)
    ops = [["admissible_set", k, 1, 3] for k in sweep]
    rebuild = [[rng.randint(5, 8), 1, 1], [rng.randint(5, 8), 2, 1]]
    if size == "full":
        rebuild.append([rng.randint(9, 10), 1, 3])
    return {"ops": ops, "checks": {"rebuild": rebuild}, "groups": [f"k={op[1]}" for op in ops]}


def _target(rng: random.Random, k: int, threshold: int) -> list[int]:
    while True:
        mu = _choice(rng, k)
        if fits_in_corner(mu, threshold):
            return mu


def _bound_sweep(rng: random.Random, size: str) -> dict:
    full = size == "full"
    k18, k17, k14 = (18, 17, 14) if full else (7, 6, 5)
    # targeted bounds: one multiplicity per lambda, one target per rule
    ops = [
        ["affine", [k18], [3], 1, [_target(rng, k18, 8)]],
        ["sa", [k17], [3], 1, 2, [_target(rng, k17, 8)]],
        ["complex", [k14], [2], 1, [_target(rng, k14, 16)]],
        ["projective", k14, 2, _target(rng, k14 + 1, 16)],
    ]
    # pure sums: equivariant and projection, whose split multiplicity
    # factors are all 1, and a 3-block affine sum
    k50 = 50 if full else 12
    ops.append(["equivariant", [k50], [2], 2, 1])
    ops.append(["equivariant", [k50], [2], 2, 2])
    blocks = [20, 18, 16] if full else [5, 4, 3]
    ops.append(["equivariant", blocks, [1, 1, 1], 2, 1])
    weights = [13, 12, 11] if full else [4, 3, 3]
    ops.append(["affine", weights, [2, 2, 2], 1, [_target(rng, k, 4) for k in weights]])
    ops.append(["projection", 36 if full else 6, 2, 2])
    groups = ["targeted"] * 4 + ["pure-sum"] * (len(ops) - 4)
    return {"ops": ops, "checks": {}, "groups": groups}


QUERY_WEIGHTS = range(16, 25)
# Distinct queries per kind and weight (one h0 query per weight).  They
# form a fixed pool, drawn from POOL_SEED, and the run's seed orders the
# stream: single queries vary in cost by 10x or more, so a pool drawn
# afresh for each seed would make runs with different seeds do different
# amounts of work.
QUERY_MIX = {
    "split_multiplicity": 10,
    "lr_coefficient": 2,
    "kostka": 2,
    "specht_dim": 1,
    "young_module": 2,
    "h0_example": 1,
}
POOL_SEED = "query-mix:pool"
ORACLE_PROBES = 6


def _query(rng: random.Random, kind: str, w: int) -> list:
    if kind == "split_multiplicity":
        a = rng.randint(w // 3, w - w // 3)
        return [kind, _choice(rng, w), _choice(rng, a), _choice(rng, w - a)]
    if kind == "lr_coefficient":
        a = rng.randint(w // 3, w - w // 3)
        lam = _choice(rng, a)
        return [kind, _grow(rng, lam, w - a), lam, _choice(rng, w - a)]
    if kind == "kostka":
        lam = _choice(rng, w)
        return [kind, _raise(rng, lam, rng.randint(1, 6)), lam]
    if kind in ("specht_dim", "young_module"):
        return [kind, _choice(rng, w)]
    return [kind, w]


def _query_mix(rng: random.Random, size: str) -> dict:
    weights = QUERY_WEIGHTS if size == "full" else range(6, 9)
    pool_rng = random.Random(POOL_SEED)
    pool = [_query(pool_rng, kind, w) for kind, n in QUERY_MIX.items()
            for w in weights for _ in range(n)]
    # every query is asked twice, so exactly half the stream repeats an
    # earlier query, at a seeded distance
    ops = pool + pool
    rng.shuffle(ops)
    probes = []
    for _ in range(ORACLE_PROBES):
        w = rng.randint(5, 10)
        a = rng.randint(1, w - 1)
        lam = _choice(rng, a)
        probes.append(["lr_coefficient", _grow(rng, lam, w - a), lam, _choice(rng, w - a)])
        lam = _choice(rng, w)
        probes.append(["kostka", _raise(rng, lam, rng.randint(1, 4)), lam])
        probes.append(["specht_dim", _choice(rng, w)])
    return {"ops": ops, "checks": {"oracle_probes": probes}, "groups": [op[0] for op in ops]}


def repeat_share(ops: list) -> float:
    """Share of operations identical to an earlier one in the list."""
    seen: set[str] = set()
    repeats = 0
    for op in ops:
        key = repr(op)
        repeats += key in seen
        seen.add(key)
    return repeats / len(ops)


def make_inputs(workload: str, seed: int, size: str = "full") -> dict:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    if size not in ("full", "tiny"):
        raise ValueError(f"unknown size {size!r}")
    rng = random.Random(f"{workload}:{seed}")
    build = {
        "cli-golden": _cli_golden,
        "iset-sweep": _iset_sweep,
        "bound-sweep": _bound_sweep,
        "query-mix": _query_mix,
    }[workload]
    return build(rng, size)
