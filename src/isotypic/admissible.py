"""Admissible irreducibles for symmetric sets of bounded degree.

The admissible set I(k, d, m) is the union, over all partitions of k with
at most T = (2d)^m parts and over every split of such a partition, of the
irreducibles in the split module.  It has a closed form:

    I(k, d, m) = { mu |- k : mu_{a+1} <= T - a for some 0 <= a <= T },

the union of the (a, T - a) hooks, tested in O(T) per partition.  The
least partition outside that union is the staircase (T+1, T, ..., 1), so
below its weight (T+1)(T+2)/2 every partition of k is admissible and
``admissible_set`` runs no test at all.  Proof in
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

The per-partition reachable sets have no closed form; the supports of
``induction.max_split_multiplicities``, built from the forward Pieri
tables, are the independent check path.  The row/column restriction test
is only a fast necessary filter (it admits partitions, such as (4,2,1) for
threshold 2, that the exact set rules out).
"""

from __future__ import annotations

from typing import Sequence

from .errors import DomainError
from .partitions import Partition, enumerate_partitions
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
        try:
            return Partition(mu) in self.members
        except DomainError:
            return False

    def __len__(self) -> int:
        return len(self.members)

    def sorted_members(self) -> list:
        return sorted(self.members, reverse=True)


def admissible_set(k: int, d: int, m: int) -> AdmissibleSet:
    """The exact admissible set for a single symmetric group."""
    if k < 0:
        raise DomainError("weight must be nonnegative")
    t = restriction_threshold(d, m)
    members = enumerate_partitions(k)
    # the least shape outside the hook union is the staircase
    # (t+1, t, ..., 1); below its weight every partition is a member
    if 2 * k >= (t + 1) * (t + 2):
        members = [mu for mu in members if _in_hook_union(mu, t)]
    return AdmissibleSet((k,), (d,), (m,), frozenset(members))


def is_admissible(mu: Sequence[int], d: int, m: int) -> bool:
    """Exact membership test for a single partition, without building the set."""
    return _in_hook_union(Partition(mu), restriction_threshold(d, m))
