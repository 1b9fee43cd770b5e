"""Decompositions of induced modules.

A :class:`Decomposition` records a finite-dimensional module of a single
symmetric group up to isomorphism, as a multiplicity map over irreducibles:
its keys are :class:`Partition` values and its ambient is the weight they
share.  All combinators return fresh values.

Young modules and split modules are built forward from the empty shape by
one horizontal Pieri step per part (``_pieri_step``), the only forward
kernel; the sign parts come first, and their table is conjugated once
before the trivial parts are added.  The table is keyed by plain tuples,
which become partitions once, when the module is wrapped.  A step of one
cell adds a cell at each addable corner in the kernel's own loop.  One
unbounded cache, ``_split_module``, keeps each module by its trivial and
sign sides; a Young module is the split module with no sign side.
Callers share the cached values, which no combinator changes.  A single
split multiplicity is peeled backwards instead (``tableaux._peel``), from
a bounded memo.
"""

from __future__ import annotations

from functools import lru_cache
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from .errors import DomainError, _is_int
from .partitions import Partition, _conjugate, enumerate_partitions, parse_partition, splits
from .tableaux import (
    _horizontal_strips_above,
    _peel,
    _split_strips,
    lr_coefficient,
    specht_dim,
)


class Decomposition:
    """Finitely supported map from irreducibles of S_k to natural
    multiplicities; ``k`` is the ambient weight."""

    __slots__ = ("_terms", "_ambient")

    def __init__(self, terms: Mapping | Iterable = (), ambient: int | None = None):
        if ambient is not None and (not _is_int(ambient) or ambient < 0):
            raise DomainError(f"ambient weight must be a natural number, got {ambient!r}")
        items = dict(terms)
        clean: dict = {}
        for key, mult in items.items():
            if not _is_int(mult) or mult < 0:
                raise DomainError(f"multiplicities must be natural numbers, got {mult!r}")
            if mult == 0:
                continue
            key = Partition(key)
            weight = key.weight
            if ambient is None:
                ambient = weight
            elif weight != ambient:
                raise DomainError(
                    f"key {key} has weight {weight}, expected ambient {ambient}"
                )
            clean[key] = mult
        if ambient is None:
            raise DomainError("ambient weight required for an empty decomposition")
        self._terms = clean
        self._ambient = ambient

    @classmethod
    def _from_valid(cls, terms: dict, ambient: int) -> "Decomposition":
        # fast path for combinators whose outputs are valid by construction
        self = object.__new__(cls)
        self._terms = terms
        self._ambient = ambient
        return self

    @property
    def ambient(self) -> int:
        return self._ambient

    def items(self) -> list:
        """(key, multiplicity) pairs in canonical (descending) key order."""
        return sorted(self._terms.items(), key=lambda kv: kv[0], reverse=True)

    def support(self) -> list:
        return sorted(self._terms, reverse=True)

    def __getitem__(self, key) -> int:
        """The multiplicity of ``key``, 0 off the support; a ``key`` that is
        not a partition raises ``DomainError``."""
        return self._terms.get(Partition(key), 0)

    def __contains__(self, key) -> bool:
        """Whether ``key`` is in the support; a value that is not a partition
        is not, as in ``AdmissibleSet``."""
        try:
            return Partition(key) in self._terms
        except DomainError:
            return False

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Decomposition):
            return NotImplemented
        return self._ambient == other._ambient and self._terms == other._terms

    def __hash__(self):
        return hash((self._ambient, frozenset(self._terms.items())))

    def __add__(self, other: "Decomposition") -> "Decomposition":
        if not isinstance(other, Decomposition):
            return NotImplemented
        if self._ambient != other._ambient:
            raise DomainError(
                f"cannot add decompositions over ambients {self._ambient} and {other._ambient}"
            )
        terms = dict(self._terms)
        for key, mult in other._terms.items():
            terms[key] = terms.get(key, 0) + mult
        return Decomposition._from_valid(terms, self._ambient)

    def total_dim(self) -> int:
        """Dimension of the module: sum of multiplicity times irreducible dimension."""
        return sum(mult * specht_dim(key) for key, mult in self._terms.items())

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        return " + ".join(f"{mult}*{key}" for key, mult in self.items())

    def __repr__(self) -> str:
        return f"Decomposition({dict(self.items())!r}, ambient={self._ambient!r})"

    def to_json_dict(self) -> dict:
        return {
            "ambient": self._ambient,
            "terms": {str(key): str(mult) for key, mult in self.items()},
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "Decomposition":
        terms = {parse_partition(text): int(mult) for text, mult in data["terms"].items()}
        return cls(terms, ambient=data["ambient"])


def irreducible(key: Sequence[int]) -> Decomposition:
    """The decomposition holding a single irreducible."""
    key = Partition(key)
    return Decomposition({key: 1}, ambient=key.weight)


def young_module(lam: Sequence[int]) -> Decomposition:
    """Module induced from the trivial representation of the Young subgroup.

    Multiplicities are the Kostka numbers with content ``lam``.  It is the
    split module with no sign side, so it is built once per ``lam`` and kept
    in the split-module cache: a repeated ``lam`` (two orbits of
    ``orbits.h0_decomposition`` with one stabilizer type) is a lookup, and
    every call returns the same value.  No combinator changes its argument,
    so the shared value stays as built.
    """
    return _split_module(Partition(lam), Partition())


def _pieri_step(table: dict, n: int) -> dict:
    # One horizontal Pieri step (times h_n) on a table keyed by plain
    # tuples.  A step of size 1 adds a cell at the end of the first row of
    # each run of equal rows, or starts a new row.  A shape's rows are
    # copied to one list, a child is that list with one row grown, frozen
    # and added to the table on the spot, and the row is put back; the
    # children come in descending order.
    out: dict = {}
    get = out.get
    if n == 1:
        for lam, mult in table.items():
            rows = list(lam)
            above = 0
            for i, part in enumerate(lam):
                if part != above:
                    rows[i] = part + 1
                    mu = tuple(rows)
                    rows[i] = above = part
                    out[mu] = get(mu, 0) + mult
            mu = lam + (1,)
            out[mu] = get(mu, 0) + mult
        return out
    for lam, mult in table.items():
        for mu in _horizontal_strips_above(lam, n):
            out[mu] = get(mu, 0) + mult
    return out


def outer_product(d1: Decomposition, d2: Decomposition) -> Decomposition:
    """Bilinear extension of induction from a two-factor subgroup.

    On irreducibles the coefficients are the Littlewood-Richardson numbers.
    """
    k = d1.ambient + d2.ambient
    candidates = enumerate_partitions(k)
    terms: dict = {}
    for lam, c1 in d1.items():
        for mu, c2 in d2.items():
            for nu in candidates:
                c = lr_coefficient(nu, lam, mu)
                if c:
                    terms[nu] = terms.get(nu, 0) + c1 * c2 * c
    return Decomposition(terms, ambient=k)


@lru_cache(maxsize=None)
def _split_module(triv: Partition, sign: Partition) -> Decomposition:
    # One Pieri step per part, forward from the empty shape: every shape a
    # step reaches has a nonzero multiplicity, so no partition of the weight
    # is tried and discarded.  omega(h_beta) = e_beta, so the sign side is
    # built by horizontal steps and conjugated once, before the trivial
    # parts, while its table is still small.
    table: dict = {(): 1}
    for q in sign:
        table = _pieri_step(table, q)
    table = {_conjugate(lam): mult for lam, mult in table.items()}
    for p in triv:
        table = _pieri_step(table, p)
    # the kernel's plain-tuple keys become partitions once, at the boundary
    wrap = Partition._from_valid
    terms = {wrap(mu): mult for mu, mult in table.items()}
    return Decomposition._from_valid(terms, triv.weight + sign.weight)


def split_module(triv: Sequence[int], sign: Sequence[int]) -> Decomposition:
    """Module induced from trivial factors on ``triv`` parts and sign factors
    on ``sign`` parts, computed by iterated Pieri steps (the sign parts as
    rows, conjugated to columns, then the trivial parts as rows;
    associativity makes the order immaterial).

    The whole module, forward from the empty shape: the CLI's
    ``split-module``, ``young_module`` (no sign side) and the check path
    (``max_split_multiplicities``) use it, through one cache.  A single
    multiplicity is cheaper through ``split_multiplicity``.
    """
    return _split_module(Partition(triv), Partition(sign))


def split_multiplicity(mu: Sequence[int], triv: Sequence[int], sign: Sequence[int]) -> int:
    """Multiplicity of ``mu`` in the split module, counted backwards from
    ``mu`` by the strip peel (``tableaux._peel``) instead of building the
    module: one horizontal strip per ``triv`` part and one vertical strip per
    ``sign`` part, largest first.  The peel's memo answers a repeat; a part
    1 has no side, so splits that differ only in where their ones sit, and
    the Kostka number with the same content, share its entry.
    """
    mu = Partition(mu)
    triv = Partition(triv)
    sign = Partition(sign)
    if mu.weight != triv.weight + sign.weight:
        raise DomainError(
            f"weight mismatch: {mu.weight} != {triv.weight} + {sign.weight}"
        )
    return _peel(mu, _split_strips(triv, sign))


def sign_twist(dec: Decomposition) -> Decomposition:
    """Tensor with the sign character: transpose every key, which merges none. An involution."""
    terms = {key.transpose(): mult for key, mult in dec._terms.items()}
    return Decomposition._from_valid(terms, dec.ambient)


@lru_cache(maxsize=None)
def _max_split_table(lam: Partition) -> Mapping[Partition, int]:
    table: dict[Partition, int] = {}
    for triv, sign in splits(lam):
        if triv < sign:
            continue  # its decomposition is the sign twist of the mirror split's
        dec = split_module(triv, sign)
        sides = (dec,) if triv == sign else (dec, sign_twist(dec))
        for side in sides:
            for mu, mult in side._terms.items():
                if mult > table.get(mu, 0):
                    table[mu] = mult
    return MappingProxyType(table)


def max_split_multiplicities(lam: Sequence[int]) -> Mapping[Partition, int]:
    """For each ``mu``, the largest split multiplicity over all splits of ``lam``.

    The support of this table is exactly the set of irreducibles reachable
    from ``lam``.  It is the check path: it builds every split module
    forward, while the admissible sets use the closed form of
    ``admissible`` and the bounds peel each multiplicity from its target.
    """
    return _max_split_table(Partition(lam))
