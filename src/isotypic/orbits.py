"""Zero-dimensional symmetric sets described by orbit type.

A finite symmetric point set is recorded purely combinatorially: one labeled
orbit per entry, each carrying the Young-subgroup type of its stabilizer.
Degree-zero cohomology depends only on those types, so H^0 decomposes as a
sum of the corresponding induced modules, exactly.
"""

from __future__ import annotations

from math import comb
from typing import NamedTuple, Sequence

from .errors import DomainError, _is_int
from .induction import Decomposition, sign_twist, young_module
from .partitions import Partition, parse_partition
from .records import Record


class OrbitSpec(Record):
    """A multiset of labeled orbits of a single symmetric group."""

    __slots__ = ("k", "orbits")

    def __init__(self, k: int, orbits: Sequence[tuple[str, Sequence[int]]]):
        if not _is_int(k):
            raise DomainError(f"letter count must be an integer, got {k!r}")
        if k < 0:
            raise DomainError("letter count must be nonnegative")
        seen = set()
        clean = []
        for label, stabilizer in orbits:
            label = str(label)
            stabilizer = Partition(stabilizer)
            if stabilizer.weight != k:
                raise DomainError(
                    f"stabilizer {stabilizer} of orbit {label!r} does not partition {k}"
                )
            if label in seen:
                raise DomainError(f"duplicate orbit label {label!r}")
            seen.add(label)
            clean.append((label, stabilizer))
        self._set(k, tuple(clean))

    def __len__(self) -> int:
        return len(self.orbits)

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "orbits": [
                {"label": label, "stabilizer": str(stab)} for label, stab in self.orbits
            ],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "OrbitSpec":
        return cls(
            data["k"],
            tuple(
                (orbit["label"], parse_partition(orbit["stabilizer"]))
                for orbit in data["orbits"]
            ),
        )


def h0_decomposition(spec: OrbitSpec) -> Decomposition:
    """Degree-zero cohomology: each orbit contributes the module induced from
    the trivial representation of its stabilizer."""
    total = Decomposition({}, ambient=spec.k)
    for _, stabilizer in spec.orbits:
        total = total + young_module(stabilizer)
    return total


def example_variety(k: int) -> OrbitSpec:
    """The hypercube-vertex model: k+1 orbits, one per coordinate weight.

    The orbit of points with ``i`` low and ``k - i`` high coordinates has
    stabilizer type (max(i, k-i), min(i, k-i)), zero parts dropped.
    """
    if not _is_int(k) or k < 1:
        raise DomainError("the example needs at least one letter")
    orbits = []
    for i in range(k + 1):
        stabilizer = Partition(p for p in (max(i, k - i), min(i, k - i)) if p)
        orbits.append((str(i), stabilizer))
    return OrbitSpec(k, tuple(orbits))


def closed_form_multiplicity(mu: Sequence[int]) -> int:
    """Multiplicity of a two-row irreducible in H^0 of the example, 2*mu1 - k + 1:
    the CLI ``example``'s answer, checked against the orbit sum ``h0_decomposition``."""
    mu = Partition(mu)
    if len(mu) > 2:
        raise DomainError(f"closed form covers at most two rows, got {mu}")
    return 2 * mu.part(0) - mu.weight + 1


class PowerIdentityCheck(NamedTuple):
    holds: bool
    lhs: int
    rhs: int


def verify_power_identity(k: int) -> PowerIdentityCheck:
    """Check that the squared two-row closed form sums to 2^k.

    k! * sum over mu1 >= mu2 >= 0, mu1 + mu2 = k of
    (mu1 - mu2 + 1)^2 / ((mu1 + 1)! * mu2!) must equal 2^k exactly.  Since
    k! / ((mu1 + 1)! * mu2!) = C(k+1, mu2) / (k+1), the sum is the integer
    sum of (k - 2*mu2 + 1)^2 * C(k+1, mu2) divided by k+1, and that division
    must be exact.
    """
    if not _is_int(k) or k < 1:
        raise DomainError("identity needs k >= 1")
    total = sum((k - 2 * mu2 + 1) ** 2 * comb(k + 1, mu2) for mu2 in range(k // 2 + 1))
    lhs, remainder = divmod(total, k + 1)
    if remainder:
        raise AssertionError(f"identity sum is not integral for k={k}: {total}/{k + 1}")
    return PowerIdentityCheck(lhs == 2**k, lhs, 2**k)


def top_cohomology(dec: Decomposition) -> Decomposition:
    """Top cohomology of the boundary-hypersurface model: the sign twist of
    the degree-zero decomposition."""
    return sign_twist(dec)


def mv_check(
    d_s1: Decomposition,
    d_s2: Decomposition,
    d_union: Decomposition,
    d_inter: Decomposition,
) -> bool:
    """Coefficientwise inequality m(S1) + m(S2) <= m(S1 u S2) + m(S1 n S2)."""
    ambients = {d_s1.ambient, d_s2.ambient, d_union.ambient, d_inter.ambient}
    if len(ambients) != 1:
        raise DomainError(f"mismatched ambients: {sorted(map(str, ambients))}")
    keys = set(d_s1.support()) | set(d_s2.support())
    keys |= set(d_union.support()) | set(d_inter.support())
    return all(d_s1[key] + d_s2[key] <= d_union[key] + d_inter[key] for key in keys)


def _merge(a: OrbitSpec, b: OrbitSpec) -> dict[str, Partition]:
    if a.k != b.k:
        raise DomainError(f"orbit specs live on {a.k} and {b.k} letters")
    merged = dict(a.orbits)
    for label, stabilizer in b.orbits:
        if label in merged and merged[label] != stabilizer:
            raise DomainError(
                f"orbit {label!r} has conflicting stabilizers {merged[label]} and {stabilizer}"
            )
        merged[label] = stabilizer
    return merged


def orbit_union(a: OrbitSpec, b: OrbitSpec) -> OrbitSpec:
    merged = _merge(a, b)
    return OrbitSpec(a.k, tuple(sorted(merged.items())))


def orbit_intersection(a: OrbitSpec, b: OrbitSpec) -> OrbitSpec:
    merged = _merge(a, b)  # validates k and stabilizer agreement
    labels_a = {label for label, _ in a.orbits}
    labels_b = {label for label, _ in b.orbits}
    common = sorted(labels_a & labels_b)
    return OrbitSpec(a.k, tuple((label, merged[label]) for label in common))
