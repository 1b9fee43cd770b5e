"""Decompositions of induced modules.

A :class:`Decomposition` records a finite-dimensional module up to
isomorphism as a multiplicity map over irreducibles.  Keys are
:class:`Partition` values for a single symmetric group (ambient weight an
int) or :class:`PartitionTuple` values for a product group (ambient a tuple
of weights).  All combinators return fresh values.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from .errors import DomainError
from .partitions import Partition, PartitionTuple, enumerate_partitions, splits
from .tableaux import (
    _horizontal_strips_above,
    _peel,
    _split_steps,
    _vertical_strips_above,
    lr_coefficient,
    specht_dim,
)


def _coerce_key(key) -> Partition | PartitionTuple:
    if isinstance(key, (Partition, PartitionTuple)):
        return key
    key = tuple(key)
    if key and not isinstance(key[0], int):
        return PartitionTuple(key)
    return Partition(key)


def _key_weight(key):
    return key.weights if isinstance(key, PartitionTuple) else key.weight


def _key_dim(key) -> int:
    if isinstance(key, PartitionTuple):
        d = 1
        for comp in key:
            d *= specht_dim(comp)
        return d
    return specht_dim(key)


class Decomposition:
    """Finitely supported map from irreducibles to natural multiplicities."""

    __slots__ = ("_terms", "_ambient")

    def __init__(self, terms: Mapping | Iterable = (), ambient=None):
        items = dict(terms)
        clean: dict = {}
        for key, mult in items.items():
            if not isinstance(mult, int) or mult < 0:
                raise DomainError(f"multiplicities must be natural numbers, got {mult!r}")
            if mult == 0:
                continue
            key = _coerce_key(key)
            weight = _key_weight(key)
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
    def _from_valid(cls, terms: dict, ambient) -> "Decomposition":
        # fast path for combinators whose outputs are valid by construction
        self = object.__new__(cls)
        self._terms = terms
        self._ambient = ambient
        return self

    @property
    def ambient(self):
        return self._ambient

    def items(self) -> list:
        """(key, multiplicity) pairs in canonical (descending) key order."""
        return sorted(self._terms.items(), key=lambda kv: kv[0], reverse=True)

    def support(self) -> list:
        return sorted(self._terms, reverse=True)

    def __getitem__(self, key) -> int:
        return self._terms.get(_coerce_key(key), 0)

    def __contains__(self, key) -> bool:
        return _coerce_key(key) in self._terms

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

    def scaled(self, factor: int) -> "Decomposition":
        if not isinstance(factor, int) or factor < 0:
            raise DomainError("scale factor must be a natural number")
        if factor == 0:
            return Decomposition._from_valid({}, self._ambient)
        return Decomposition._from_valid(
            {k: factor * m for k, m in self._terms.items()}, self._ambient
        )

    def total_dim(self) -> int:
        """Dimension of the module: sum of multiplicity times irreducible dimension."""
        return sum(mult * _key_dim(key) for key, mult in self._terms.items())

    def map_keys(self, fn) -> "Decomposition":
        """Rekey through ``fn``, which must preserve the ambient weight."""
        terms: dict = {}
        for key, mult in self._terms.items():
            new = fn(key)
            terms[new] = terms.get(new, 0) + mult
        return Decomposition(terms, ambient=self._ambient)

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        return " + ".join(f"{mult}*{key}" for key, mult in self.items())

    def __repr__(self) -> str:
        return f"Decomposition({dict(self.items())!r}, ambient={self._ambient!r})"

    def to_json_dict(self) -> dict:
        ambient = list(self._ambient) if isinstance(self._ambient, tuple) else self._ambient
        return {
            "ambient": ambient,
            "terms": {str(key): str(mult) for key, mult in self.items()},
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "Decomposition":
        from .partitions import parse_partition, parse_partition_tuple

        raw_ambient = data["ambient"]
        tupled = isinstance(raw_ambient, list)
        ambient = tuple(raw_ambient) if tupled else raw_ambient
        parse = parse_partition_tuple if tupled else parse_partition
        terms = {parse(text): int(mult) for text, mult in data["terms"].items()}
        return cls(terms, ambient=ambient)


def _require_single_factor(dec: Decomposition, op: str):
    if not isinstance(dec.ambient, int):
        raise DomainError(f"{op} applies to single-factor decompositions only")


def irreducible(key, mult: int = 1) -> Decomposition:
    """The decomposition holding a single irreducible."""
    key = _coerce_key(key)
    return Decomposition({key: mult}, ambient=_key_weight(key))


def young_module(lam: Sequence[int]) -> Decomposition:
    """Module induced from the trivial representation of the Young subgroup.

    Multiplicities are the Kostka numbers with content ``lam``.  Built by one
    Pieri row step per part, largest part first: every shape a step reaches
    has a nonzero multiplicity, so no partition of the weight is tried and
    discarded.
    """
    lam = Partition(lam)
    dec = Decomposition._from_valid({Partition(): 1}, 0)
    for part in lam:
        dec = pieri_row(dec, part)
    return dec


def pieri_row(dec: Decomposition, n: int) -> Decomposition:
    """Induce with a trivial factor on ``n`` extra letters: add horizontal strips."""
    return _pieri(dec, n, "pieri_row", _horizontal_strips_above)


def pieri_col(dec: Decomposition, n: int) -> Decomposition:
    """Induce with a sign factor on ``n`` extra letters: add vertical strips."""
    return _pieri(dec, n, "pieri_col", _vertical_strips_above)


def _pieri(dec: Decomposition, n: int, op: str, strips) -> Decomposition:
    _require_single_factor(dec, op)
    if n < 0:
        raise DomainError("strip size must be nonnegative")
    if n == 0:
        return dec
    terms: dict = {}
    for lam, mult in dec._terms.items():
        for mu in strips(lam, n):
            terms[mu] = terms.get(mu, 0) + mult
    return Decomposition._from_valid(terms, dec.ambient + n)


def outer_product(d1: Decomposition, d2: Decomposition) -> Decomposition:
    """Bilinear extension of induction from a two-factor subgroup.

    On irreducibles the coefficients are the Littlewood-Richardson numbers.
    """
    _require_single_factor(d1, "outer_product")
    _require_single_factor(d2, "outer_product")
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
    dec = young_module(triv)
    for q in sign:
        dec = pieri_col(dec, q)
    return dec


def split_module(triv: Sequence[int], sign: Sequence[int]) -> Decomposition:
    """Module induced from trivial factors on ``triv`` parts and sign factors
    on ``sign`` parts, computed by iterated Pieri steps (rows first, then
    columns; associativity makes the order immaterial).

    The whole module, forward from the empty shape: the CLI's
    ``split-module`` and the check path (``max_split_multiplicities``) use
    it.  A single multiplicity is cheaper through ``split_multiplicity``.
    """
    return _split_module(Partition(triv), Partition(sign))


def split_multiplicity(mu: Sequence[int], triv: Sequence[int], sign: Sequence[int]) -> int:
    """Multiplicity of ``mu`` in the split module, counted backwards from
    ``mu`` by the strip peel (``tableaux._peel``) instead of building the
    module: one horizontal strip per ``triv`` part and one vertical strip per
    ``sign`` part, largest first.
    """
    mu = Partition(mu)
    triv = Partition(triv)
    sign = Partition(sign)
    if mu.weight != triv.weight + sign.weight:
        raise DomainError(
            f"weight mismatch: {mu.weight} != {triv.weight} + {sign.weight}"
        )
    return _peel(mu, _split_steps(triv, sign))


def sign_twist(dec: Decomposition) -> Decomposition:
    """Tensor with the sign character: transpose every key. An involution."""
    return dec.map_keys(lambda key: key.transpose())


def tuple_outer(components: Sequence[Decomposition]) -> Decomposition:
    """Combine single-factor decompositions into one over the product group."""
    comps = list(components)
    if not comps:
        raise DomainError("tuple_outer needs at least one component")
    for dec in comps:
        _require_single_factor(dec, "tuple_outer")
    ambient = tuple(dec.ambient for dec in comps)
    terms: dict = {}
    for combo in itertools.product(*(dec.items() for dec in comps)):
        key = PartitionTuple(k for k, _ in combo)
        mult = 1
        for _, m in combo:
            mult *= m
        terms[key] = terms.get(key, 0) + mult
    return Decomposition(terms, ambient=ambient)


@lru_cache(maxsize=None)
def _max_split_table(lam: Partition) -> Mapping[Partition, int]:
    table: dict[Partition, int] = {}
    for triv, sign in splits(lam):
        if triv < sign:
            continue  # its decomposition is the sign twist of the mirror split's
        dec = split_module(triv, sign)
        for mu, mult in dec._terms.items():
            if mult > table.get(mu, 0):
                table[mu] = mult
        if triv != sign:
            for mu, mult in dec._terms.items():
                twisted = mu.transpose()
                if mult > table.get(twisted, 0):
                    table[twisted] = mult
    return MappingProxyType(table)


def max_split_multiplicities(lam: Sequence[int]) -> Mapping[Partition, int]:
    """For each ``mu``, the largest split multiplicity over all splits of ``lam``.

    The support of this table is exactly the set of irreducibles reachable
    from ``lam``.  It is the check path: it builds every split module
    forward, while the admissible sets use the closed form of
    ``admissible`` and the bounds peel each multiplicity from its target.
    """
    return _max_split_table(Partition(lam))
