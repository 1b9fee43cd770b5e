"""Admissible irreducibles for symmetric sets of bounded degree.

The admissible set I(k, d, m) is the union, over all partitions of k with
at most T = (2d)^m parts and over every split of such a partition, of the
irreducibles in the split module.  It has a closed form:

    I(k, d, m) = { mu |- k : s(mu) <= T },

where the staircase index s(mu) = min over a >= 0 of (a + mu_{a+1}) is the
size r of the largest staircase (r, r-1, ..., 1) inside mu.  Membership is
one comparison with s <= k, found in O(s) steps, and made with min(T, k+1),
so a huge T is never formed.  The least partition outside
I(k, d, m) is the staircase (T+1, T, ..., 1), so below its weight
(T+1)(T+2)/2 every partition of k is admissible and ``admissible_set`` runs
no test at all.  Proof in three steps.  The partitions of length at most T
and their splits give every pair (alpha, beta) with l(alpha) + l(beta) <= T,
and the split module of (alpha, beta) is the induction product of the Young
module M^alpha and the sign twist of M^beta.

1. Young's rule: M^alpha contains S^nu exactly when nu dominates alpha.
2. Balanced partition: every nu |- p with l(nu) <= a dominates the
   balanced partition of p into a parts, and nothing that dominates a
   partition with a parts has more than a parts.  So the trivial sides
   with a rows reach exactly the nu with l(nu) <= a, and the sign sides
   with b rows exactly the rho with rho_1 <= b.
3. Berele-Regev (hook Schur functions, Adv. Math. 1987): the LR products
   S^nu . S^rho with l(nu) <= a and rho_1 <= b reach exactly the mu with
   mu_{a+1} <= b.  Taking b = T - a, the largest allowed, the union over a
   is the set of mu with a + mu_{a+1} <= T for some a, that is s(mu) <= T.

The per-partition reachable sets have no closed form; the supports of
``induction.max_split_multiplicities``, built from the forward Pieri
tables, are the independent check path.  The row/column restriction test
is only a fast necessary filter (it admits partitions, such as (4,2,1) for
threshold 2, that the exact set rules out).
"""

from __future__ import annotations

from typing import Iterator, Sequence

from .errors import DomainError, _is_int
from .partitions import _MAX_PART_DIGITS, Partition, _iter_partitions
from .records import Record

# a threshold stays below this, with as many digits as a part may have
_THRESHOLD_BOUND = 10**_MAX_PART_DIGITS


def _clamped_threshold(d: int, m: int, bound: int) -> int:
    # min(T, bound), T = (2d)^m.  With b the bit length of 2d, T >= 2**((b-1)m)
    # decides T > bound unformed; a T formed has under twice the bits of bound
    if not (_is_int(d) and _is_int(m)) or d < 1 or m < 1:
        raise DomainError("degree and width must be positive")
    base = 2 * d
    if (base.bit_length() - 1) * m >= bound.bit_length():
        return bound
    return min(base**m, bound)


def restriction_threshold(d: int, m: int) -> int:
    """T = (2d)^m, refused as a domain error when it has more digits than a
    part may have, before the power is formed."""
    t = _clamped_threshold(d, m, _THRESHOLD_BOUND)
    if t == _THRESHOLD_BOUND:
        raise DomainError(f"threshold (2d)^m has more than {_MAX_PART_DIGITS} digits")
    return t


def restriction_check(mu: Sequence[int], d: int, m: int) -> bool:
    """Necessary condition for membership in the admissible set at (d, m):
    the diagram contains no (T+1)-square, T = (2d)^m, so it lies in the
    union of T rows and T columns."""
    mu = Partition(mu)
    t = _clamped_threshold(d, m, mu.weight + 1)
    return mu.part(t) <= t


def _staircase(mu: Sequence[int]) -> int:
    # s(mu) = min over a of (a + mu_{a+1}); a row index at or past the best
    # value so far cannot lower it, so the loop stops there
    best = len(mu)
    for a, part in enumerate(mu):
        if a >= best:
            break
        if a + part < best:
            best = a + part
    return best


class _MemberOrder(Record):
    # One slot outside the record's fields: the members in canonical order,
    # set only when the record is built from a list already in that order.
    # Equality, hash, repr and pickling see only the subclass's
    # ``__slots__``, so a copy or an unpickled record sorts again.
    __slots__ = ("_order",)


class AdmissibleSet(_MemberOrder):
    """The admissible set I(k, d, m) together with its parameters."""

    __slots__ = ("k", "d", "m", "members")

    def __init__(self, k: int, d: int, m: int, members: frozenset):
        self._set(k, d, m, members)

    @classmethod
    def _in_order(cls, k: int, d: int, m: int, members: list) -> "AdmissibleSet":
        # members already in canonical (descending) order, which is kept
        self = cls(k, d, m, frozenset(members))
        object.__setattr__(self, "_order", members)
        return self

    @property
    def threshold(self) -> int:
        return restriction_threshold(self.d, self.m)

    def __contains__(self, mu) -> bool:
        try:
            return Partition(mu) in self.members
        except DomainError:
            return False

    def __len__(self) -> int:
        return len(self.members)

    def sorted_members(self) -> list:
        """The members in canonical (descending) order, as a new list."""
        order = getattr(self, "_order", None)
        return sorted(self.members, reverse=True) if order is None else list(order)


def _members(k: int, d: int, m: int) -> Iterator[Partition]:
    # I(k, d, m) in canonical order, lazily; the arguments are checked now
    if not _is_int(k) or k < 0:
        raise DomainError("weight must be nonnegative")
    t = _clamped_threshold(d, m, k + 1)
    members = _iter_partitions(k)
    # below the weight of the staircase (t+1, t, ..., 1) every partition is
    # a member
    if 2 * k >= (t + 1) * (t + 2):
        members = (mu for mu in members if _staircase(mu) <= t)
    return members


def admissible_set(k: int, d: int, m: int) -> AdmissibleSet:
    """The exact admissible set for a single symmetric group."""
    return AdmissibleSet._in_order(k, d, m, list(_members(k, d, m)))


def is_admissible(mu: Sequence[int], d: int, m: int) -> bool:
    """Exact membership test for a single partition, without building the set."""
    mu = Partition(mu)
    return _staircase(mu) <= _clamped_threshold(d, m, mu.weight + 1)
