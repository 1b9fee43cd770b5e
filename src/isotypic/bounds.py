"""Exact evaluation of the multiplicity bounds for symmetric varieties and
semi-algebraic sets.

Every value here is the exact integer evaluation of the finite sum in the
corresponding bound; asymptotic growth rates are reported only as text
annotations (their exponent constants are not pinned, so no number would be
honest).

Every summand of a bound is a product of per-block factors, so the sum over
tuples of partitions is evaluated as the product over blocks of per-block
sums over ``Par(k, T)``; no tuple is enumerated.  The block's restriction
threshold T = (2d)^m is both the length bound and the per-part weight: a
block's factor for ``lambda`` is T^len(lambda) times the target's best
split multiplicity, the largest, over the splits of ``lambda`` into
trivial and sign parts, of the number of ways to peel the target down to
the empty shape by one horizontal strip per trivial part and one vertical
strip per sign part (``tableaux._peel``).

A block sum is one depth-first walk over the sequences of (part, side)
steps with parts of at least 2.  Parts never increase along a sequence,
and at equal parts the horizontal side comes first, so each split of the
parts above 1 of each ``lambda`` is one sequence.  A prefix's layer of
peeled shapes is built once and shared by every sequence that extends it;
a shape that no remaining number of strips can empty is dropped, and a
prefix whose layer is empty is not extended.  Nor is a prefix whose next
strip could peel no shape of its layer: a horizontal strip wider than
every shape's first row, or a vertical one longer than every shape.  By
the closed form of ``admissible``, the shapes that r more strips can empty
are those with staircase index s(rho) <= r, and the targets with a nonzero
affine value are those with s(mu) <= T in every block.  The last strip is
counted in closed form, in one of two ways.  A prefix with room for its
weight left in ones closes ``lambda`` = prefix + (1, ..., 1): a one-cell
strip is both horizontal and vertical, so the side of each 1 does not
matter, and the ones peel each shape rho of the layer in f^rho ways, its
number of standard tableaux (``tableaux._one_cell_tail``).  A last part of
at least 2 leaves a single row or a single column.  The walk keeps its
pending prefixes on an explicit stack, so its depth, at most min(T, k)
parts, uses no recursion.  In the equivariant and projection sums every
split factor is 1, and a block sum is a closed form in the counts of
partitions by length: the differences of the at-most-length counts that
``partitions._row_counts`` streams.  The term cap counts each block in one
pass, and the equivariant sum is read from that same pass; the projection
sum reads every fiber weight from one table over 0..k.

The walk is polynomial in k for fixed degree and widths.  Each ``lambda``
of Par(k, T) has a fixed number of splits of its parts above 1, at most
2^T, and each prefix peels one layer of shapes inside ``mu``.  For a
target (k - |nu|, nu) with nu fixed, a shape of a layer is fixed by its
rows below the first, a diagram inside nu, so a layer has boundedly many
shapes whatever k.  The walk thus does Theta(|Par(k, T)|) =
Theta(k^(T-1)) work: the number of partitions of k into at most T parts
is Sylvester's quasi-polynomial of degree T - 1.  The tests pin this on
deterministic ``_peel_step`` counts, not on times
(``test_block_walk_work_grows_polynomially``): doubling k multiplies them
by at most 2^T, about 2^(T-1), at T = 2 and 4; at k = 100 and T = 4 the
target (90, 5, 3, 2) takes 7,407 peel steps.

``affine_multiplicity_bound`` is the one evaluator of the affine sum.  The
semi-algebraic bound is a binomial prefactor times its value, and the complex
bound is its value at doubled widths.

Evaluation refuses to start when the paper's sum has more lambda-terms than
the cap; the terms are counted block by block, not enumerated, and a count
that passes the cap stops before its table is built.
"""

from __future__ import annotations

from itertools import islice
from math import comb, prod
from typing import Iterable, Sequence

from .admissible import _staircase, is_admissible, restriction_threshold
from .errors import DomainError, EnumerationCapExceeded, _is_int
from .partitions import Partition, PartitionTuple, _at_most_counts, _row_counts, splits
from .records import Record
from .tableaux import _one_cell_tail, _peel, _peel_step, _split_strips

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
        if not all(_is_int(n) and n >= 1 for n in weights + widths):
            raise DomainError("weights and widths must be positive")
        if not _is_int(degree) or degree < 1:
            raise DomainError("degree must be positive")
        if polys is not None and (not _is_int(polys) or polys < 1):
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


def _length_sum(counts: Iterable[int], t: int, cap: int) -> tuple[int, int] | None:
    # Sum of t**len(lam) over the partitions counted by a stream of running
    # at-most-length counts, j = 0, 1, 2, ...: those with exactly j parts
    # are count j less count j - 1.  The count only grows with j, so the
    # sum is dropped (None) at the first count past the cap.  Returns the
    # number of partitions and the sum.
    value = counted = 0
    for j, within in enumerate(counts):
        if within > cap:
            return None
        value += (within - counted) * t**j
        counted = within
    return counted, value


def _check_term_cap(weights, thresholds, cap: int) -> int:
    # Block by block, one count pass each: a block that alone leaves the
    # product above the cap is refused at its first count past it, so
    # before any table that the closed forms can spare.  The same pass
    # sums T**len(lam) over the block's terms; the product of those sums,
    # the equivariant bound, is returned.
    total = value = 1
    for k, t in zip(weights, thresholds):
        block = _length_sum(_at_most_counts(k, min(t, k)), t, cap // total)
        if block is None:
            raise EnumerationCapExceeded(f"bound sum has more terms than the cap of {cap}")
        total *= block[0]
        value *= block[1]
    return value


def _block_sum(mu: Partition, t: int) -> int:
    # Sum of t**len(lam) times the best split multiplicity of mu, over lam
    # in Par(k, t) for k = |mu|, by the walk of the module docstring.  A
    # stack entry is a prefix still to be peeled: the parent's layer, the
    # parts so far, the weight left, and the last part (0 for the empty
    # prefix) with its side, the strip that extends the parent.
    rows = min(t, mu.weight)
    best: dict[tuple[int, ...], int] = {}
    best_get = best.get
    stack: list = [({mu: 1}, (), mu.weight, 0, False)]
    while stack:
        table, parts, left, last, last_vertical = stack.pop()
        room = rows - len(parts)
        if last:
            table = _peel_step(table, last, last_vertical)
            # the least shape that room strips cannot empty is the
            # staircase (room+1, room, ..., 1); a lighter layer needs no test
            if 2 * left >= (room + 1) * (room + 2):
                table = {rho: n for rho, n in table.items() if _staircase(rho) <= room}
            if not table:
                continue
        if left <= room:
            # the prefix closed by ones, whatever their sides
            lam = parts + (1,) * left
            paths = _one_cell_tail(table)
            if paths > best_get(lam, 0):
                best[lam] = paths
        # A strip wider (horizontal) or longer (vertical) than every shape
        # of the layer peels it to nothing.  The first shape is nearly always
        # the widest and the last the longest, so the layer is scanned only
        # when a strip passes them.
        wide, tall = next(iter(table))[0], len(next(reversed(table)))
        scanned = False
        for size in range(min(left, last or left), 1, -1):
            if left - size > size * (room - 1):
                break  # parts only get smaller; the rest cannot fit in the room
            # at equal parts the horizontal side comes first, so a vertical
            # part is followed by no horizontal part of its size
            for vertical in (True,) if size == last and last_vertical else (False, True):
                if size < left:
                    if size > (tall if vertical else wide) and not scanned:
                        wide, tall, scanned = max(table)[0], max(map(len, table)), True
                    if size <= (tall if vertical else wide):
                        stack.append((table, parts + (size,), left - size, size, vertical))
                    continue
                # a strip that empties the shape is the whole shape: a row or a column
                paths = table.get((1,) * size if vertical else (size,), 0)
                lam = parts + (size,)
                if paths > best_get(lam, 0):
                    best[lam] = paths
    return sum(t ** len(lam) * mult for lam, mult in best.items())


def g_factor(
    mu_tuple: Sequence[Sequence[int]],
    lam_tuple: Sequence[Sequence[int]],
    d: int,
    widths: Sequence[int],
) -> int:
    """One summand of the affine bound: per block, T**len(lam) times the
    best split multiplicity of the target, where T = (2d)**m is the block's
    restriction threshold."""
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
        # the side of a one-cell strip does not change the count, so only
        # the splits with every 1 on the trivial side are peeled
        mult = max(
            _peel(mu, _split_strips(a, b)) for a, b in splits(lam) if 1 not in b
        )
        if mult == 0:
            return 0
        total *= restriction_threshold(d, m) ** len(lam) * mult
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
) -> BoundReport:
    """Bound on the multiplicity of ``mu`` in the cohomology of a symmetric
    real affine variety of the given degree and block structure.

    A target outside the admissible set gets value 0 with the excluded flag;
    that is exact, since every summand vanishes there, and it is answered
    before the terms are counted.
    """
    mu_tuple = _coerce_target(mu, params)
    thresholds = params.thresholds
    # by the closed form, a block with s(mu) <= T has a positive sum
    excluded = any(_staircase(c) > t for c, t in zip(mu_tuple, thresholds))
    value = 0
    if not excluded:
        _check_term_cap(params.weights, thresholds, cap)
        value = prod(_block_sum(c, t) for c, t in zip(mu_tuple, thresholds))
    return BoundReport(value, "affine", params, mu_tuple, excluded, _POLY_NOTE)


def general_position_degree(params: BoundParams) -> int:
    """Largest number of the defining polynomials that can vanish together."""
    return sum(
        min(m * k, params.degree**m)
        for k, m in zip(params.weights, params.widths)
    )


def _require_polys(params: BoundParams) -> int:
    if params.polys is None:
        raise DomainError("semi-algebraic bound needs the number of polynomials")
    return params.polys


def sa_prefactor(params: BoundParams) -> int:
    """The binomial double sum that multiplies the affine sum in the
    semi-algebraic bound: the sum over 0 <= i < D and 1 <= j <= D - i of
    C(2s+1, j) 6^j, where D is the general-position degree.

    Each j occurs for D - j + 1 values of i, and C(2s+1, j) vanishes for
    j > 2s+1, so the double sum is evaluated as the single sum of
    (D - j + 1) C(2s+1, j) 6^j over 1 <= j <= min(D, 2s+1).
    """
    s = _require_polys(params)
    D = general_position_degree(params)
    return sum(
        (D - j + 1) * comb(2 * s + 1, j) * 6**j for j in range(1, min(D, 2 * s + 1) + 1)
    )


def sa_multiplicity_bound(
    mu,
    params: BoundParams,
    *,
    cap: int = DEFAULT_TERM_CAP,
) -> BoundReport:
    """Bound for closed semi-algebraic sets cut out by ``params.polys``
    symmetric polynomials: the affine sum times a binomial prefactor.  The
    affine sum is evaluated first, so that its term cap refuses before any
    other work."""
    _require_polys(params)
    affine = affine_multiplicity_bound(mu, params, cap=cap)
    value = sa_prefactor(params) * affine.value
    return BoundReport(value, "semialgebraic", params, affine.target, affine.excluded, _POLY_NOTE)


def complex_multiplicity_bound(
    mu,
    params: BoundParams,
    *,
    cap: int = DEFAULT_TERM_CAP,
) -> BoundReport:
    """Bound for symmetric complex affine varieties.

    Computed through the real reduction: splitting each complex coordinate
    into real and imaginary parts keeps the degree and doubles every block
    width, so the value is ``affine_multiplicity_bound`` at widths ``2m``.
    A zero value is excluded only if the target also lies outside the
    admissible set with both degree and widths doubled, which contains the
    reduction's set: some block has s(mu) > (4d)^(2m).
    """
    doubled = BoundParams(params.weights, [2 * m for m in params.widths], params.degree)
    affine = affine_multiplicity_bound(mu, doubled, cap=cap)
    excluded = any(
        not is_admissible(c, 2 * params.degree, 2 * m)
        for c, m in zip(affine.target, params.widths)
    )
    return BoundReport(
        affine.value, "complex-affine", params, affine.target, excluded, _POLY_NOTE
    )


def projective_multiplicity_bound(
    k: int,
    d: int,
    mu=None,
    letters: int | None = None,
    *,
    cap: int = DEFAULT_TERM_CAP,
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
    if not all(_is_int(n) and n >= 1 for n in (k, d)):
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


def equivariant_bound(
    weights: Sequence[int],
    widths: Sequence[int],
    d: int,
    *,
    cap: int = DEFAULT_TERM_CAP,
    workers: int = 1,
) -> BoundReport:
    """Bound on the total cohomology of the quotient: the affine sum for the
    trivial target, where every split multiplicity factor is 1.

    ``workers`` has no effect on the value or the speed.  It stays only
    because the benchmark's bound-sweep passes it, and goes when that
    workload stops passing it.
    """
    params = BoundParams(tuple(weights), tuple(widths), d)
    value = _check_term_cap(params.weights, params.thresholds, cap)
    return BoundReport(value, "equivariant", params, None, False, _POLY_NOTE)


def projection_image_bound(
    k: int,
    m: int,
    d: int,
    *,
    cap: int = DEFAULT_TERM_CAP,
) -> BoundReport:
    """Bound on the total cohomology of the image of a bounded degree-``d``
    variety in ``k + m`` variables under projection to the first ``k``.

    Exact sum over the symmetric fiber powers of the projection: the
    ``p``-th summand is the equivariant bound for ``k`` singleton blocks
    plus one block of ``p + 1`` fiber copies of width ``m``, and each
    singleton block contributes the factor ``2d``.
    """
    if not all(_is_int(n) and n >= 1 for n in (k, m, d)):
        raise DomainError("projection bound needs positive k, m, d")
    fiber_threshold = restriction_threshold(d, m)
    # T >= 2, so fiber weight n has at least n // 2 + 1 terms, and the k
    # fiber weights at least k + k*k // 4 together: that closed form is
    # checked before any count table is built.  One table over 0..k then
    # holds every fiber weight's counts: column j, summed over the weights
    # 1..k, counts their partitions into at most j parts.
    fibers = None
    if k + k * k // 4 <= cap:
        columns = islice(_row_counts(k), min(fiber_threshold, k) + 1)
        fibers = _length_sum((sum(islice(c, 1, None)) for c in columns), fiber_threshold, cap)
    if fibers is None:
        raise EnumerationCapExceeded(
            f"projection bound sums more terms than the cap of {cap}"
        )
    value = restriction_threshold(d, 1) ** k * fibers[1]
    params = BoundParams((k,), (m,), d)
    note = (
        "sum of equivariant bounds over the symmetric fiber powers of the "
        "projection; " + _POLY_NOTE
    )
    return BoundReport(value, "projection-image", params, None, False, note)
