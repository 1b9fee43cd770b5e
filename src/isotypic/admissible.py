"""Admissible irreducibles for symmetric sets of bounded degree.

The admissible set I(k, d, m) is the union, over all partitions of k with
at most T = (2d)^m parts and over every split of such a partition, of the
irreducibles in the split module.  It has a closed form:

    I(k, d, m) = { mu |- k : mu_{a+1} <= T - a for some 0 <= a <= T },

the union of the (a, T - a) hooks, tested in O(T) per partition.  Proof in
three steps.  The partitions of length at most T and their splits give
every pair (alpha, beta) with l(alpha) + l(beta) <= T, and the split module
of (alpha, beta) is the induction product of the Young module M^alpha and
the sign twist of M^beta.

1. Young's rule: M^alpha contains S^nu exactly when nu dominates alpha.
2. Balanced partition: every nu |- p with l(nu) <= a dominates the
   balanced partition of p into a parts, and nothing that dominates a
   partition with a parts has more than a parts.  So the trivial sides
   with a rows reach exactly the nu with l(nu) <= a, and the sign sides
   with b rows exactly the rho with rho_1 <= b.
3. Berele-Regev (hook Schur functions, Adv. Math. 1987): the LR products
   S^nu . S^rho with l(nu) <= a and rho_1 <= b reach exactly the mu with
   mu_{a+1} <= b.  Taking b = T - a, the largest allowed, gives the union.

The per-partition reachable sets (``admissible_for_partition``, built from
the forward Pieri tables) have no closed form; they stay as the
independent check path.  The row/column restriction test is only a fast
necessary filter (it admits partitions, such as (4,2,1) for threshold 2,
that the exact set rules out).
"""

from __future__ import annotations

import itertools
from typing import Sequence

from .errors import DomainError
from .induction import max_split_multiplicities
from .partitions import Partition, PartitionTuple, enumerate_partitions
from .records import Record


def restriction_threshold(d: int, m: int) -> int:
    if d < 1 or m < 1:
        raise DomainError("degree and width must be positive")
    return (2 * d) ** m


def fits_in_corner(mu: Sequence[int], threshold: int) -> bool:
    """True iff the diagram lies in the union of ``threshold`` rows and
    ``threshold`` columns, i.e. contains no (threshold+1)-square.

    Equivalently: at most ``threshold`` rows are longer than ``threshold``,
    and, symmetrically, at most ``threshold`` columns are taller.
    """
    mu = Partition(mu)
    return mu.part(threshold) <= threshold


def restriction_check(mu: Sequence[int], d: int, m: int) -> bool:
    """Necessary condition for membership in the admissible set at (d, m)."""
    return fits_in_corner(mu, restriction_threshold(d, m))


def _in_hook_union(mu: Partition, t: int) -> bool:
    # mu lies in the (a, t - a) hook for some a: the closed form above
    return any(mu.part(a) <= t - a for a in range(t + 1))


def admissible_for_partition(lam: Sequence[int]) -> frozenset[Partition]:
    """Irreducibles reachable from some split of a single partition."""
    return frozenset(max_split_multiplicities(lam))


def admissible_for(lam_tuple: Sequence[Sequence[int]]) -> frozenset[PartitionTuple]:
    """Componentwise reachable set of a partition tuple, combined Cartesian-wise."""
    lam_tuple = PartitionTuple(lam_tuple)
    factor_sets = [sorted(admissible_for_partition(c), reverse=True) for c in lam_tuple]
    out = set()
    _product_into(out, factor_sets)
    return frozenset(out)


def _product_into(out: set, factor_sets: list) -> None:
    for combo in itertools.product(*factor_sets):
        out.add(PartitionTuple(combo))


class AdmissibleSet(Record):
    """An admissible set together with the parameters that produced it."""

    __slots__ = ("weights", "degrees", "widths", "members")

    def __init__(
        self,
        weights: tuple[int, ...],
        degrees: tuple[int, ...],
        widths: tuple[int, ...],
        members: frozenset,
    ):
        self._set(weights, degrees, widths, members)

    @property
    def thresholds(self) -> tuple[int, ...]:
        return tuple(
            restriction_threshold(d, m) for d, m in zip(self.degrees, self.widths)
        )

    def __contains__(self, mu) -> bool:
        if len(self.weights) == 1 and not isinstance(mu, PartitionTuple):
            try:
                mu = Partition(mu)
            except DomainError:
                return False
        return mu in self.members

    def __len__(self) -> int:
        return len(self.members)

    def sorted_members(self) -> list:
        return sorted(self.members, reverse=True)


def admissible_set(k: int, d: int, m: int) -> AdmissibleSet:
    """The exact admissible set for a single symmetric group."""
    if k < 0:
        raise DomainError("weight must be nonnegative")
    t = restriction_threshold(d, m)
    members = frozenset(mu for mu in enumerate_partitions(k) if _in_hook_union(mu, t))
    return AdmissibleSet((k,), (d,), (m,), members)


def admissible_set_tuple(
    weights: Sequence[int], degrees: Sequence[int], widths: Sequence[int]
) -> AdmissibleSet:
    """Componentwise product of per-factor admissible sets."""
    weights = tuple(weights)
    degrees = tuple(degrees)
    widths = tuple(widths)
    if not (len(weights) == len(degrees) == len(widths)):
        raise DomainError("weights, degrees and widths must have equal arity")
    factor_sets = [
        sorted(admissible_set(k, d, m).members, reverse=True)
        for k, d, m in zip(weights, degrees, widths)
    ]
    members: set[PartitionTuple] = set()
    _product_into(members, factor_sets)
    return AdmissibleSet(weights, degrees, widths, frozenset(members))


def is_admissible(mu: Sequence[int], d: int, m: int) -> bool:
    """Exact membership test for a single partition, without building the set."""
    return _in_hook_union(Partition(mu), restriction_threshold(d, m))
