"""Integer partitions: enumeration, order theory, counting and parsing.

Everything here is a pure function on immutable values.  The canonical
enumeration order used throughout the package is reverse-lexicographic on
part sequences, which for :class:`Partition` (a tuple subclass) is plain
``sorted(..., reverse=True)``.  A :class:`PartitionTuple` holds one
partition per block of the multi-block bounds.
"""

from __future__ import annotations

import sys
from collections import Counter
from functools import lru_cache
from itertools import islice
from typing import Iterable, Iterator, Sequence

from .errors import DomainError, ParseError


class Partition(tuple):
    """A weakly decreasing tuple of positive integers.

    The empty partition ``Partition()`` is a first-class value of weight 0
    and length 0.  Instances compare and hash like plain tuples.
    """

    __slots__ = ()

    def __new__(cls, parts: Iterable[int] = ()) -> "Partition":
        if type(parts) is cls:
            return parts
        try:
            parts = tuple(parts)
        except TypeError:
            raise DomainError(f"a partition is a sequence of parts, got {parts!r}") from None
        previous = None
        for p in parts:
            if not isinstance(p, int) or isinstance(p, bool) or p < 1:
                raise DomainError(f"partition parts must be positive integers, got {p!r}")
            if previous is not None and p > previous:
                raise DomainError(f"partition parts must be weakly decreasing, got {parts}")
            previous = p
        return tuple.__new__(cls, parts)

    @classmethod
    def _from_valid(cls, parts: tuple[int, ...]) -> "Partition":
        # fast path for callers that construct well-formed parts
        return tuple.__new__(cls, parts)

    @property
    def weight(self) -> int:
        return sum(self)

    def part(self, i: int) -> int:
        """The ``i``-th part (0-based), zero-padded beyond the length."""
        return self[i] if 0 <= i < len(self) else 0

    def transpose(self) -> "Partition":
        """Reflect the Young diagram across its main diagonal."""
        return Partition._from_valid(_conjugate(self))

    def contains(self, other: "Partition") -> bool:
        """Cellwise containment of Young diagrams (other fits inside self)."""
        return all(other[i] <= self.part(i) for i in range(len(other)))

    def __str__(self) -> str:
        return "[" + ",".join(str(p) for p in self) + "]"

    def __repr__(self) -> str:
        return f"Partition({tuple(self)!r})"


def _conjugate(parts: tuple[int, ...]) -> tuple[int, ...]:
    # the parts[i] - parts[i+1] columns that end in row i hold i + 1 cells
    # each; a plain tuple in and out, uncached, for the forward Pieri kernel
    columns: list[int] = []
    below = 0
    for i in range(len(parts) - 1, -1, -1):
        columns += [i + 1] * (parts[i] - below)
        below = parts[i]
    return tuple(columns)


class PartitionTuple(tuple):
    """One partition per block of a multi-block bound."""

    __slots__ = ()

    def __new__(cls, components: Iterable[Sequence[int]] = ()) -> "PartitionTuple":
        comps = tuple(c if isinstance(c, Partition) else Partition(c) for c in components)
        return tuple.__new__(cls, comps)

    @property
    def weights(self) -> tuple[int, ...]:
        return tuple(c.weight for c in self)

    def __str__(self) -> str:
        return ";".join(str(c) for c in self)

    def __repr__(self) -> str:
        return f"PartitionTuple({tuple(tuple(c) for c in self)!r})"


def _row_bound(k: int, max_length: int | None) -> int:
    if k < 0:
        raise DomainError("cannot partition a negative integer")
    if max_length is not None and max_length < 1:
        raise DomainError("max_length must be a positive integer")
    return k if max_length is None else min(max_length, k)


def enumerate_partitions(k: int, max_length: int | None = None) -> list[Partition]:
    """All partitions of ``k`` (length at most ``max_length`` if given).

    Returned in canonical order: reverse-lexicographic on part sequences,
    so ``(4) > (3,1) > (2,2) > (2,1,1) > (1,1,1,1)``.
    """
    return list(_iter_partitions(k, max_length))


def _iter_partitions(k: int, max_length: int | None = None) -> Iterator[Partition]:
    # the partitions of enumerate_partitions, in its order, one at a time
    max_rows = _row_bound(k, max_length)
    if k == 0:
        yield Partition()
        return
    # The successor loop of Zoghbi and Stojmenovic (ZS1, 1998), in place.
    # The parts above 1 are kept in ``big`` and the trailing ones as a
    # count.  A step lowers the last part above 1 by one and lays the freed
    # cells out again in parts as large as the lowered part: the next
    # partition in reverse-lexicographic order.  That layout has the fewest
    # rows of any partition with this prefix, and lowering the part further
    # only adds rows; so when it has more than ``max_rows`` rows, the lowered
    # part and everything after it fold back into ones, and the next step
    # lowers the part before it.
    new = tuple.__new__
    big = [k] if k > 1 else []
    ones = 0 if big else 1
    yield new(Partition, (k,))
    while big:
        part = big.pop() - 1
        cells = part + 1 + ones
        if part == 1:
            ones = cells
            if len(big) + cells > max_rows:
                continue
        else:
            rows, rest = divmod(cells, part)
            if len(big) + rows + (rest > 0) > max_rows:
                ones = cells
                continue
            big += [part] * rows
            if rest > 1:
                big.append(rest)
                ones = 0
            else:
                ones = rest
        yield new(Partition, big + [1] * ones)


def _row_counts(n: int) -> Iterator[int]:
    # yields p(n, <= j), the partitions of n into at most j parts, for
    # j = 0, 1, 2, ...  By conjugation these are the partitions of n into
    # parts of size at most j, counted by adding one allowed part size at
    # a time to a table over 0..n; a loop, so no recursion depth grows
    # with n.
    ways = [1] + [0] * n
    yield ways[n]
    size = 0
    while True:
        size += 1
        for total in range(size, n + 1):
            ways[total] += ways[total - size]
        yield ways[n]


@lru_cache(maxsize=1024)
def _count_at_most(n: int, length: int) -> tuple[int, ...]:
    # entry j: partitions of n into at most j parts, for j = 0..length
    return tuple(islice(_row_counts(n), length + 1))


def count_partitions(k: int, max_length: int | None = None) -> int:
    """card(Par(k)) or card(Par(k, max_length)), without enumerating."""
    if k < 0:
        raise DomainError("cannot partition a negative integer")
    return _count_at_most(k, k if max_length is None else min(max_length, k))[-1]


def _more_partitions_than(k: int, max_length: int | None, cap: int) -> bool:
    """Whether card(Par(k, max_length)) exceeds ``cap``, at any size of k.

    Checked before anything is enumerated: closed forms answer at most two
    and three parts, and p(k, <= 3) = round((k + 3)^2 / 12) bounds every
    longer count from below; past it the count table has about
    sqrt(12 cap) entries and stops at the first row count above ``cap``.
    """
    rows = _row_bound(k, max_length)
    if rows <= 2:
        return (k // 2 + 1 if rows == 2 else 1) > cap
    three = ((k + 3) ** 2 + 6) // 12
    if rows == 3 or three > cap:
        return three > cap
    return any(n > cap for n in islice(_row_counts(k), 4, rows + 1))


def dominates(mu: Sequence[int], lam: Sequence[int]) -> bool:
    """Dominance order: every prefix sum of ``mu`` is >= that of ``lam``.

    Both arguments must partition the same integer; parts are zero-padded.
    """
    mu = Partition(mu)
    lam = Partition(lam)
    if mu.weight != lam.weight:
        raise DomainError(
            f"dominance compares partitions of equal weight, got {mu.weight} and {lam.weight}"
        )
    sum_mu = sum_lam = 0
    for i in range(max(len(mu), len(lam))):
        sum_mu += mu.part(i)
        sum_lam += lam.part(i)
        if sum_mu < sum_lam:
            return False
    return True


def splits(lam: Sequence[int]) -> list[tuple[Partition, Partition]]:
    """All ordered two-sided decompositions of the part multiset of ``lam``.

    Equal parts are interchangeable, so the result is deduplicated by
    multiset; there are prod(m_v + 1) splits, always including the two
    trivial ones with an empty side.
    """
    lam = Partition(lam)
    pairs: list[tuple[tuple[int, ...], tuple[int, ...]]] = [((), ())]
    # Counter keeps first-seen order, which is descending for a partition.
    # Taking more copies of larger values first yields the left sides in
    # descending order, so no sort is needed.
    for value, count in Counter(lam).items():
        pairs = [
            (left + (value,) * taken, right + (value,) * (count - taken))
            for left, right in pairs
            for taken in range(count, -1, -1)
        ]
    return [
        (Partition._from_valid(left), Partition._from_valid(right))
        for left, right in pairs
    ]


# The interpreter's default limit on int <-> str conversion.  The CLI lifts
# that limit while a command runs, so that long exact values print; a part
# stays within it, since a part that long is far beyond any size the
# engine can index or enumerate.
_MAX_PART_DIGITS = getattr(sys.int_info, "default_max_str_digits", 4300)


def _parse_partition_at(text: str, i: int) -> tuple[Partition, int]:
    n = len(text)
    if i >= n or text[i] != "[":
        raise ParseError("expected '['", i)
    i += 1
    parts: list[int] = []
    if i < n and text[i] == "]":
        return Partition(), i + 1
    while True:
        start = i
        while i < n and text[i].isdecimal():
            i += 1
        if i == start:
            raise ParseError("expected integer", i)
        if i - start > _MAX_PART_DIGITS:
            raise ParseError(f"part has more than {_MAX_PART_DIGITS} digits", start)
        value = int(text[start:i])
        if value < 1:
            raise ParseError("parts must be positive", start)
        if parts and value > parts[-1]:
            raise ParseError("parts must be weakly decreasing", start)
        parts.append(value)
        if i < n and text[i] == ",":
            i += 1
            continue
        if i < n and text[i] == "]":
            return Partition(parts), i + 1
        raise ParseError("expected ',' or ']'", i)


def parse_partition(text: str) -> Partition:
    """Parse ``[3,1,1]`` syntax; ``[]`` is the empty partition."""
    part, i = _parse_partition_at(text, 0)
    if i != len(text):
        raise ParseError("unexpected trailing input", i)
    return part


def parse_partition_tuple(text: str) -> PartitionTuple:
    """Parse semicolon-separated partition syntax, e.g. ``[3,1];[2]``."""
    comps = []
    i = 0
    while True:
        part, i = _parse_partition_at(text, i)
        comps.append(part)
        if i == len(text):
            return PartitionTuple(comps)
        if text[i] != ";":
            raise ParseError("expected ';'", i)
        i += 1
