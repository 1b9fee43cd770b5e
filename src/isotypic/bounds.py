"""Exact evaluation of the multiplicity bounds for symmetric varieties and
semi-algebraic sets.

Every value here is the exact integer evaluation of the finite sum in the
corresponding bound; asymptotic growth rates are reported only as text
annotations (their exponent constants are not pinned, so no number would be
honest).

Every summand of a bound is a product of per-block factors, so the sum over
tuples of partitions is evaluated as the product over blocks of per-block
sums over ``Par(k, min(t, k))``; no tuple is enumerated.  A block's factor
for ``lambda`` is the target's best split multiplicity: the largest, over
the splits of ``lambda`` into trivial and sign parts, of the number of ways
to peel the target down to the empty shape by one horizontal strip per
trivial part and one vertical strip per sign part (``tableaux._peel``).

A block sum is one depth-first walk over the sequences of (part, side)
steps.  Parts never increase along a sequence, and at equal parts the
horizontal side comes first, so each split of each ``lambda`` is one
sequence.  A prefix's layer of peeled shapes is built once and shared by
every sequence that extends it; a shape that no remaining number of strips
can empty (it lies outside the hook union of the room left, the closed form
of ``admissible``) is dropped, and a prefix whose layer is empty is not
extended.  The last strip is counted in closed form: what remains must be a
single row or a single column.  The walk keeps its pending prefixes on an
explicit stack, so its depth, at most ``min(t, k)`` parts, uses no
recursion.  In the equivariant and projection sums every split factor is 1,
and a block sum is a closed form in the counts of partitions by length.

Evaluation refuses to start when the paper's sum has more lambda-terms than
the cap; the terms are counted, not enumerated.  The ``workers`` keyword is
accepted for compatibility and has no effect.
"""

from __future__ import annotations

from math import comb, prod
from typing import Sequence

from .admissible import _in_hook_union, fits_in_corner, restriction_threshold
from .errors import DomainError, EnumerationCapExceeded
from .partitions import (
    Partition,
    PartitionTuple,
    count_exact_length,
    count_partition_tuples,
    count_partitions,
    splits,
)
from .records import Record
from .tableaux import _last_strip, _peel, _peel_step, _split_steps

DEFAULT_TERM_CAP = 10_000_000


class BoundParams(Record):
    """Parameter record shared by the bound evaluators.

    ``weights`` and ``widths`` describe the block structure (one symmetric
    group per block, acting on that many rows of a width-wide variable
    block); ``degree`` is the uniform degree bound; ``polys`` is the number
    of defining polynomials and only matters for the semi-algebraic bound.
    """

    __slots__ = ("weights", "widths", "degree", "polys")

    def __init__(
        self,
        weights: Sequence[int],
        widths: Sequence[int],
        degree: int,
        polys: int | None = None,
    ):
        weights = tuple(weights)
        widths = tuple(widths)
        if len(weights) != len(widths):
            raise DomainError("weights and widths must have equal arity")
        if not weights:
            raise DomainError("at least one block is required")
        if any(k < 1 for k in weights) or any(m < 1 for m in widths):
            raise DomainError("weights and widths must be positive")
        if degree < 1:
            raise DomainError("degree must be positive")
        if polys is not None and polys < 1:
            raise DomainError("number of polynomials must be positive")
        self._set(weights, widths, degree, polys)

    @property
    def thresholds(self) -> tuple[int, ...]:
        return tuple(restriction_threshold(self.degree, m) for m in self.widths)

    def to_json_dict(self) -> dict:
        data = {"k": list(self.weights), "m": list(self.widths), "d": self.degree}
        if self.polys is not None:
            data["s"] = self.polys
        return data


class BoundReport(Record):
    """Exact bound value plus the parameters and rule that produced it."""

    __slots__ = ("value", "theorem", "params", "target", "excluded", "asymptotic_note")

    def __init__(
        self,
        value: int,
        theorem: str,
        params: BoundParams,
        target: PartitionTuple | Partition | None = None,
        excluded: bool = False,
        asymptotic_note: str = "",
    ):
        self._set(value, theorem, params, target, excluded, asymptotic_note)

    def to_json_dict(self) -> dict:
        return {
            "theorem": self.theorem,
            "params": self.params.to_json_dict(),
            "target": None if self.target is None else str(self.target),
            "value": str(self.value),
            "excluded": self.excluded,
            "asymptotic_note": self.asymptotic_note,
        }


def _coerce_target(mu, params: BoundParams) -> PartitionTuple:
    if isinstance(mu, PartitionTuple):
        target = mu
    elif mu and isinstance(tuple(mu)[0], int):
        target = PartitionTuple([Partition(mu)])
    else:
        target = PartitionTuple(mu)
    if target.weights != params.weights:
        raise DomainError(
            f"target weights {target.weights} do not match block weights {params.weights}"
        )
    return target


def _check_term_cap(weights, thresholds, cap: int) -> None:
    total = count_partition_tuples(weights, thresholds)
    if total > cap:
        raise EnumerationCapExceeded(
            f"bound sum has {total} terms, above the cap of {cap}"
        )


def _block_sum(mu: Partition, t: int, base: int) -> int:
    # Sum of base**len(lam) times the best split multiplicity of mu, over
    # lam in Par(k, t) for k = |mu|, by the walk of the module docstring.
    # A stack entry is a prefix still to be peeled: the parent's layer, the
    # parts so far, the weight left and the step that extends the parent.
    best: dict[tuple[int, ...], int] = {}
    stack: list = [({mu: 1}, (), mu.weight, None)]
    while stack:
        table, parts, left, step = stack.pop()
        room = t - len(parts)
        if step is not None:
            table = _peel_step(table, *step)
            # the least shape outside the hook union of room is the
            # staircase (room+1, room, ..., 1); a lighter layer needs no test
            if 2 * left >= (room + 1) * (room + 2):
                table = {rho: n for rho, n in table.items() if _in_hook_union(rho, room)}
            if not table:
                continue
        for size in range(min(left, parts[-1] if parts else left), 0, -1):
            if left - size > size * (room - 1):
                break  # parts only get smaller; the rest cannot fit in the room
            for vertical in (False, True):
                if not vertical and step == (size, True):
                    continue  # at equal parts the horizontal side comes first
                if size < left:
                    stack.append((table, parts + (size,), left - size, (size, vertical)))
                    continue
                paths = _last_strip(table, size, vertical)
                lam = parts + (size,)
                if paths > best.get(lam, 0):
                    best[lam] = paths
    return sum(base ** len(lam) * mult for lam, mult in best.items())


def g_factor(
    mu_tuple: Sequence[Sequence[int]],
    lam_tuple: Sequence[Sequence[int]],
    d: int,
    widths: Sequence[int],
) -> int:
    """One summand of the affine bound: a width-scaled power of 2d per block
    times the best split multiplicity of the target in that block."""
    mu_tuple = PartitionTuple(mu_tuple)
    lam_tuple = PartitionTuple(lam_tuple)
    widths = tuple(widths)
    if not (len(mu_tuple) == len(lam_tuple) == len(widths)):
        raise DomainError("g_factor arguments must have equal arity")
    if mu_tuple.weights != lam_tuple.weights:
        raise DomainError(
            f"component weights differ: {mu_tuple.weights} vs {lam_tuple.weights}"
        )
    total = 1
    for mu, lam, m in zip(mu_tuple, lam_tuple, widths):
        mult = max(_peel(mu, _split_steps(a, b)) for a, b in splits(lam))
        if mult == 0:
            return 0
        total *= (2 * d) ** (m * len(lam)) * mult
    return total


def _core_sum(mu_tuple: PartitionTuple, params: BoundParams, cap: int) -> int:
    thresholds = params.thresholds
    _check_term_cap(params.weights, thresholds, cap)
    total = 1
    for mu, k, t, m in zip(mu_tuple, params.weights, thresholds, params.widths):
        block = _block_sum(mu, min(t, k), (2 * params.degree) ** m)
        if block == 0:
            return 0
        total *= block
    return total


_POLY_NOTE = (
    "exact finite sum; grows polynomially in the block weights for fixed degree "
    "and widths (the exponent constants are not pinned, so no numeric asymptote "
    "is reported)"
)


def affine_multiplicity_bound(
    mu,
    params: BoundParams,
    *,
    cap: int = DEFAULT_TERM_CAP,
    workers: int = 1,
) -> BoundReport:
    """Bound on the multiplicity of ``mu`` in the cohomology of a symmetric
    real affine variety of the given degree and block structure.

    A target outside the admissible set gets value 0 with the excluded flag;
    that is exact, since every summand vanishes there.
    """
    mu_tuple = _coerce_target(mu, params)
    if not all(
        fits_in_corner(c, t) for c, t in zip(mu_tuple, params.thresholds)
    ):
        return BoundReport(0, "affine", params, mu_tuple, True, _POLY_NOTE)
    value = _core_sum(mu_tuple, params, cap)
    return BoundReport(value, "affine", params, mu_tuple, value == 0, _POLY_NOTE)


def general_position_degree(params: BoundParams) -> int:
    """Largest number of the defining polynomials that can vanish together."""
    return sum(
        min(m * k, params.degree**m)
        for k, m in zip(params.weights, params.widths)
    )


def sa_prefactor(params: BoundParams) -> int:
    """The binomial double sum that multiplies the affine sum in the
    semi-algebraic bound."""
    if params.polys is None:
        raise DomainError("semi-algebraic bound needs the number of polynomials")
    D = general_position_degree(params)
    s = params.polys
    return sum(
        comb(2 * s + 1, j) * 6**j for i in range(D) for j in range(1, D - i + 1)
    )


def sa_multiplicity_bound(
    mu,
    params: BoundParams,
    *,
    cap: int = DEFAULT_TERM_CAP,
    workers: int = 1,
) -> BoundReport:
    """Bound for closed semi-algebraic sets cut out by ``params.polys``
    symmetric polynomials: the affine sum times a binomial prefactor."""
    prefactor = sa_prefactor(params)
    affine = affine_multiplicity_bound(mu, params, cap=cap)
    if affine.excluded:
        return BoundReport(0, "semialgebraic", params, affine.target, True, _POLY_NOTE)
    return BoundReport(
        prefactor * affine.value,
        "semialgebraic",
        params,
        affine.target,
        False,
        _POLY_NOTE,
    )


def _doubled_width_params(params: BoundParams) -> BoundParams:
    return BoundParams(
        params.weights, tuple(2 * m for m in params.widths), params.degree
    )


def _member_of_admissible_tuple(
    mu_tuple: PartitionTuple,
    weights: tuple[int, ...],
    thresholds: tuple[int, ...],
    cap: int,
) -> bool:
    if not all(fits_in_corner(c, t) for c, t in zip(mu_tuple, thresholds)):
        return False
    _check_term_cap(weights, thresholds, cap)
    return all(_in_hook_union(mu, t) for mu, t in zip(mu_tuple, thresholds))


def complex_multiplicity_bound(
    mu,
    params: BoundParams,
    *,
    cap: int = DEFAULT_TERM_CAP,
    workers: int = 1,
) -> BoundReport:
    """Bound for symmetric complex affine varieties.

    Computed through the real reduction: splitting each complex coordinate
    into real and imaginary parts keeps the degree and doubles every block
    width, so the value is the affine sum at widths ``2m``.  Exclusion is
    tested against the admissible set with both degree and widths doubled,
    which contains the reduction's set.
    """
    doubled = _doubled_width_params(params)
    mu_tuple = _coerce_target(mu, doubled)
    exclusion_thresholds = tuple(
        restriction_threshold(2 * params.degree, 2 * m) for m in params.widths
    )
    value = 0
    if all(fits_in_corner(c, t) for c, t in zip(mu_tuple, doubled.thresholds)):
        value = _core_sum(mu_tuple, doubled, cap)
    excluded = value == 0 and not _member_of_admissible_tuple(
        mu_tuple, doubled.weights, exclusion_thresholds, cap
    )
    return BoundReport(value, "complex-affine", params, mu_tuple, excluded, _POLY_NOTE)


def projective_multiplicity_bound(
    k: int,
    d: int,
    mu=None,
    letters: int | None = None,
    *,
    cap: int = DEFAULT_TERM_CAP,
    workers: int = 1,
) -> BoundReport:
    """Bound for symmetric complex projective varieties in ``k``-dimensional
    projective space, degree at most ``d``.

    The group permutes the ``k + 1`` homogeneous coordinates, so targets are
    partitions of ``letters`` which defaults to ``k + 1`` (the sphere model
    the reduction runs on); pass ``letters=k`` for the other reading of the
    admissibility index, in which case targets must weigh ``k``.  The value
    is ``floor(k/2) + 1`` times the complex affine bound, which absorbs the
    degree-shifting differentials of the fibration comparison.
    """
    if k < 1 or d < 1:
        raise DomainError("projective bound needs positive k and d")
    if letters is None:
        letters = k + 1
    inner_params = BoundParams((letters,), (1,), d)
    target = Partition(mu) if mu is not None else Partition((letters,))
    inner = complex_multiplicity_bound(target, inner_params, cap=cap)
    note = (
        f"projective dimension {k}: fibration comparison multiplies the complex "
        f"affine bound by floor(k/2)+1 = {k // 2 + 1}; " + _POLY_NOTE
    )
    return BoundReport(
        (k // 2 + 1) * inner.value,
        "complex-projective",
        inner_params,
        inner.target,
        inner.excluded,
        note,
    )


def _by_length(k: int, max_length: int, base: int) -> int:
    # sum of base**len(lam) over Par(k, max_length), grouped by length
    return sum(
        count_exact_length(k, length) * base**length
        for length in range(1, min(max_length, k) + 1)
    )


def equivariant_bound(
    weights: Sequence[int],
    widths: Sequence[int],
    d: int,
    *,
    cap: int = DEFAULT_TERM_CAP,
    workers: int = 1,
) -> BoundReport:
    """Bound on the total cohomology of the quotient: the affine sum for the
    trivial target, where every split multiplicity factor is 1."""
    params = BoundParams(tuple(weights), tuple(widths), d)
    thresholds = params.thresholds
    _check_term_cap(params.weights, thresholds, cap)
    value = prod(
        _by_length(k, t, (2 * d) ** m)
        for k, t, m in zip(params.weights, thresholds, params.widths)
    )
    return BoundReport(value, "equivariant", params, None, False, _POLY_NOTE)


def projection_image_bound(
    k: int,
    m: int,
    d: int,
    *,
    cap: int = DEFAULT_TERM_CAP,
    workers: int = 1,
) -> BoundReport:
    """Bound on the total cohomology of the image of a bounded degree-``d``
    variety in ``k + m`` variables under projection to the first ``k``.

    Exact sum over the symmetric fiber powers of the projection: the
    ``p``-th summand is the equivariant bound for ``k`` singleton blocks
    plus one block of ``p + 1`` fiber copies of width ``m``, and each
    singleton block contributes the factor ``2d``.
    """
    if k < 1 or m < 1 or d < 1:
        raise DomainError("projection bound needs positive k, m, d")
    fiber_threshold = restriction_threshold(d, m)
    total_terms = sum(
        count_partitions(p + 1, min(fiber_threshold, p + 1)) for p in range(k)
    )
    if total_terms > cap:
        raise EnumerationCapExceeded(
            f"projection bound sums {total_terms} terms, above the cap of {cap}"
        )
    fiber_base = (2 * d) ** m
    value = (2 * d) ** k * sum(
        _by_length(p + 1, fiber_threshold, fiber_base) for p in range(k)
    )
    params = BoundParams((k,), (m,), d)
    note = (
        "sum of equivariant bounds over the symmetric fiber powers of the "
        "projection; " + _POLY_NOTE
    )
    return BoundReport(value, "projection-image", params, None, False, note)
