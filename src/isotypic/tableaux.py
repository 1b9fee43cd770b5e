"""Hook lengths, irreducible dimensions, Kostka numbers, Littlewood-Richardson coefficients.

Kostka numbers and split multiplicities share one engine, the strip peel
``_peel``: it counts the ways to remove strips from a shape down to the
empty one, a layer of shapes per strip.  Strips are enumerated by two
loops that scan the shape's runs of equal rows, one adding a horizontal
strip and one removing it; each stops a shape as soon as its cells run out
and copies the rows below as one slice.  A vertical strip is the conjugate
of a horizontal one, so the vertical enumerators transpose, run the
horizontal loop and transpose back.  No enumerator recurses, so tall and
wide shapes cost no recursion depth.
The four enumerators and the LR coefficients keep their results in
unbounded caches keyed by canonical partition tuples; everything else
``_peel`` builds lives for one call.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial
from typing import Sequence

from .errors import DomainError
from .partitions import Partition


def hook_lengths(lam: Sequence[int]) -> dict[tuple[int, int], int]:
    """Map each cell (row, col), 0-based, of the diagram to its hook length."""
    lam = Partition(lam)
    tl = lam.transpose()
    return {
        (i, j): (lam[i] - j) + (tl[j] - i) - 1
        for i in range(len(lam))
        for j in range(lam[i])
    }


@lru_cache(maxsize=None)
def _specht_dim(lam: Partition) -> int:
    product = 1
    for h in hook_lengths(lam).values():
        product *= h
    quotient, remainder = divmod(factorial(lam.weight), product)
    if remainder:
        raise AssertionError(f"hook-length division not exact for {lam}")
    return quotient


def specht_dim(lam: Sequence[int]) -> int:
    """Dimension of the irreducible indexed by ``lam``: k! over the hook product."""
    return _specht_dim(Partition(lam))


@lru_cache(maxsize=None)
def _horizontal_strips_above(lam: Partition, n: int) -> tuple[Partition, ...]:
    # A horizontal strip adds at most one cell per column, so in a run of
    # equal rows only the top row can grow, up to the part above the run
    # (the first run without bound), and a new bottom row takes at most the
    # last part.  Below a run of part p the later rows can take p cells in
    # all (the rooms telescope), so every state kept ends in a shape.  Depth
    # first over runs, larger growth first, lists the shapes in descending
    # order; a shape is done once its cells run out, and the rows below are
    # then copied from lam, so no state carries them.  The growths are
    # pushed by a plain loop: a generator with min and max took a third
    # more time, and this loop is most of a Young module's cost.
    length = len(lam)
    out: list[Partition] = []
    stack: list[tuple[int, tuple[int, ...], int]] = [(0, (), n)]  # (row, rows, cells left)
    push, pop = stack.append, stack.pop
    while stack:
        i, rows, left = pop()
        if not left:
            out.append(Partition._from_valid(rows + lam[i:]))
        elif i < length:
            part = lam[i]
            end = i + 1
            while end < length and lam[end] == part:
                end += 1
            rest = lam[i + 1:end]
            most = lam[i - 1] - part if i else left
            if most > left:
                most = left
            grow = left - part if left > part else 0
            while grow <= most:
                push((end, rows + (part + grow,) + rest, left - grow))
                grow += 1
        else:
            out.append(Partition._from_valid(rows + (left,)))
    return tuple(out)


@lru_cache(maxsize=None)
def _horizontal_strips_below(mu: Partition, n: int) -> tuple[Partition, ...]:
    # A horizontal strip takes at most one cell per column, so in a run of
    # equal rows only the lowest row can lose cells, down to the next
    # shorter part.  Below a run whose next part is q, the later runs can
    # give up q cells in all (the differences of the parts telescope), so
    # every state kept ends in a shape.  Depth first over runs, fewer cells
    # from higher runs first, lists the shapes in descending order; a shape
    # is done once its cells run out, and the rows below are then copied
    # from mu.  Only the empty shape, asked for a nonempty strip, runs out
    # of rows with cells left, and it has no strip to give.
    length = len(mu)
    out: list[Partition] = []
    stack: list[tuple[int, tuple[int, ...], int]] = [(0, (), n)]  # (row, rows, cells left)
    push, pop = stack.append, stack.pop
    while stack:
        i, rows, left = pop()
        if not left:
            out.append(Partition._from_valid(rows + mu[i:]))
        elif i < length:
            part = mu[i]
            end = i + 1
            while end < length and mu[end] == part:
                end += 1
            nxt = mu[end] if end < length else 0
            keep = rows + mu[i:end - 1]
            take = part - nxt if part - nxt < left else left
            least = left - nxt if left > nxt else 0
            while take >= least:
                push((end, keep + ((part - take,) if take < part else ()), left - take))
                take -= 1
    return tuple(out)


# A vertical strip is the conjugate of a horizontal one (tensoring with the
# sign swaps h_r and e_r).  The vertical enumerators transpose their input,
# call the uncached horizontal loop (``__wrapped__``), so the conjugate-space
# lists take no cache entries, and sort the transposed outputs back into
# descending order, which conjugation does not keep.
def _conjugates(shapes: tuple[Partition, ...]) -> tuple[Partition, ...]:
    return tuple(sorted(map(Partition.transpose, shapes), reverse=True))


@lru_cache(maxsize=None)
def _vertical_strips_above(lam: Partition, n: int) -> tuple[Partition, ...]:
    return _conjugates(_horizontal_strips_above.__wrapped__(lam.transpose(), n))


@lru_cache(maxsize=None)
def _vertical_strips_below(mu: Partition, n: int) -> tuple[Partition, ...]:
    return _conjugates(_horizontal_strips_below.__wrapped__(mu.transpose(), n))


def _split_steps(triv: Sequence[int], sign: Sequence[int] = ()) -> list[tuple[int, bool]]:
    # (size, vertical) strip steps, largest first; horizontal first at equal sizes
    steps = [(p, False) for p in triv] + [(q, True) for q in sign]
    steps.sort(key=lambda step: (-step[0], step[1]))
    return steps


def _peel_step(table: dict, size: int, vertical: bool) -> dict:
    # one layer of the peel: every way to remove one strip from each shape
    strips = _vertical_strips_below if vertical else _horizontal_strips_below
    out: dict = {}
    for nu, paths in table.items():
        for rho in strips(nu, size):
            out[rho] = out.get(rho, 0) + paths
    return out


def _last_strip(table: dict, size: int, vertical: bool) -> int:
    # a strip that empties the shape is the whole shape: a column or a row
    return table.get((1,) * size if vertical else (size,), 0)


def _peel(mu: Partition, steps: Sequence[tuple[int, bool]]) -> int:
    """Number of ways to peel ``mu`` down to the empty shape by one strip per
    ``(size, vertical)`` step; the sizes must add up to ``mu``'s weight.

    Skewing by h_r (removing a horizontal r-strip) commutes with skewing by
    e_r (removing a vertical one), so the count does not depend on the order
    of the steps and equals <s_mu, h_alpha e_beta>, where alpha holds the
    horizontal sizes and beta the vertical ones.  With only horizontal steps
    it is the Kostka number K(mu, alpha).  With both it is the multiplicity
    of ``mu`` in the module induced from trivial factors on alpha and sign
    factors on beta: the mixed fillings of Berele-Regev (alpha|beta) hook
    supertableaux, read backwards.  Callers order ``steps`` largest first
    (``_split_steps``), which keeps the layers small; the peel stops as soon
    as a layer is empty, and the last strip is counted in closed form.
    """
    if not steps:
        return 1 if not mu else 0
    table = {mu: 1}
    for size, vertical in steps[:-1]:
        table = _peel_step(table, size, vertical)
        if not table:
            return 0
    return _last_strip(table, *steps[-1])


def kostka(mu: Sequence[int], lam: Sequence[int]) -> int:
    """Number of semistandard tableaux of shape ``mu`` and content ``lam``.

    Rows weakly increase, columns strictly increase, and entry ``i`` appears
    ``lam[i-1]`` times.  The cells holding each entry form a horizontal
    strip, so this is the strip peel with every strip horizontal.
    """
    mu = Partition(mu)
    lam = Partition(lam)
    if mu.weight != lam.weight:
        raise DomainError(
            f"shape and content must have equal weight, got {mu.weight} and {lam.weight}"
        )
    return _peel(mu, _split_steps(lam))


@lru_cache(maxsize=None)
def _lr(nu: Partition, lam: Partition, mu: Partition) -> int:
    # Fill the skew cells of nu/lam in reverse reading order (rows top to
    # bottom, right to left) with content mu.  Filling in this order makes
    # the lattice-word property a running prefix condition on value counts;
    # row/column admissibility only ever looks at already placed neighbours.
    # The fill is a loop over an explicit stack, so a long skew shape needs
    # no recursion depth.
    cells = [
        (i, j)
        for i in range(len(nu))
        for j in range(nu[i] - 1, lam.part(i) - 1, -1)
    ]
    values = len(mu)
    remaining = list(mu)
    counts = [0] * values
    grid: dict[tuple[int, int], int] = {}
    placed: list[int] = []  # the value at each filled cell, in filling order
    total = 0
    v = 1  # the smallest value still to try at the next empty cell
    while True:
        if len(placed) == len(cells):
            total += 1
            v = values + 1  # a complete filling: backtrack
        else:
            i, j = cells[len(placed)]
            right = grid.get((i, j + 1), values)
            above = grid[(i - 1, j)] if i > 0 and j >= lam.part(i - 1) else 0
            while v <= values and (
                remaining[v - 1] == 0
                # lattice word: entry v may not outrun entry v-1
                or (v > 1 and counts[v - 1] + 1 > counts[v - 2])
                or right < v
                or above >= v
            ):
                v += 1
        if v <= values:
            remaining[v - 1] -= 1
            counts[v - 1] += 1
            grid[(i, j)] = v
            placed.append(v)
            v = 1
        elif not placed:
            return total
        else:
            # take back the last value and try the next larger one there
            v = placed.pop()
            del grid[cells[len(placed)]]
            counts[v - 1] -= 1
            remaining[v - 1] += 1
            v += 1


def lr_coefficient(nu: Sequence[int], lam: Sequence[int], mu: Sequence[int]) -> int:
    """Littlewood-Richardson coefficient: multiplicity of ``nu`` in the module
    induced from the pair ``(lam, mu)`` of irreducibles of a Young-type subgroup.

    Counts skew tableaux of shape ``nu/lam`` and content ``mu`` whose reverse
    reading word is a lattice word.  Symmetric in ``lam`` and ``mu``.
    """
    nu = Partition(nu)
    lam = Partition(lam)
    mu = Partition(mu)
    if nu.weight != lam.weight + mu.weight:
        raise DomainError(
            f"weight mismatch: {nu.weight} != {lam.weight} + {mu.weight}"
        )
    if not nu.contains(lam):
        return 0
    return _lr(nu, lam, mu)
