"""Hook lengths, irreducible dimensions, Kostka numbers, Littlewood-Richardson coefficients.

Kostka numbers and split multiplicities share one engine, the strip peel
``_peel``: it counts the ways to remove strips from a shape down to the
empty one, a layer of shapes per strip of two or more cells.  A one-cell
strip is both horizontal and vertical, and c of them empty a shape rho of
weight c in f^rho ways (a standard tableau read backwards), so every peel
ends the same way: the hook-length formula counts the ones left on each
shape of the last layer, and f^() = 1 when none are left.  Strips are
enumerated by two loops that scan the shape's runs of equal rows depth
first, without recursion: horizontal strips above a shape, and strips
below it, horizontal or vertical by the peel's own ``(size, vertical)``
step.  The forward build in ``induction`` takes its sign side as
horizontal strips above the conjugate and conjugates it once; the peel
interleaves its sides, so its one removal loop takes either side, and
only the cells a run may give up depend on the side.

LR coefficients come from a tableau fill in reverse reading order, a loop
over an explicit stack that keeps only the value at each filled cell, the
count of each value and two ints per row (``_lr``).

Every enumerator takes and returns plain tuples, in descending order.  The
forward one (``_horizontal_strips_above``) is the kernel of the forward
Pieri build in ``induction`` and caches nothing; that build takes its
one-cell steps itself, a cell at each addable corner.  The backward
enumerator, the Specht dimensions and the LR coefficients keep their
results in unbounded caches; a plain tuple and a partition with the same
parts share an entry, since they compare and hash alike.  The peel itself
answers from a bounded memo of ``_PEEL_MEMO`` entries, keyed by the
shape and its strips of two or more cells (``_split_strips``): the number
of one-cell steps follows from the weight, and a one-cell step has no
side, so Kostka numbers, split multiplicities and the bounds' check path
share its entries.  The layers a peel builds live for one call.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial
from operator import mul
from typing import Sequence

from .errors import DomainError
from .partitions import Partition, _conjugate


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
def _specht_dim(lam: tuple[int, ...]) -> int:
    # a plain tuple or a partition: the peel asks for the dimensions of the
    # plain-tuple shapes it leaves, and the column lengths give the hooks
    columns = _conjugate(lam)
    product = 1
    for i, part in enumerate(lam):
        for j in range(part):
            product *= part - j + columns[j] - i - 1
    quotient, remainder = divmod(factorial(sum(lam)), product)
    if remainder:
        raise AssertionError(f"hook-length division not exact for {lam}")
    return quotient


def specht_dim(lam: Sequence[int]) -> int:
    """Dimension of the irreducible indexed by ``lam``: k! over the hook product."""
    return _specht_dim(Partition(lam))


def _horizontal_strips_above(lam: tuple[int, ...], n: int) -> tuple[tuple[int, ...], ...]:
    # A horizontal strip adds at most one cell per column, so in a run of
    # equal rows only the top row can grow, up to the part above the run
    # (the first run without bound), and a new bottom row takes at most the
    # last part.  Below a run of part p the later rows can take p cells in
    # all (the rooms telescope), so every state kept ends in a shape.  Depth
    # first over runs, larger growth first, lists the shapes in descending
    # order; a shape is done once its cells run out, and the rows below are
    # then copied from lam, so no state carries them.  The growths are
    # pushed by a plain loop: a generator with min and max took a third
    # more time.  Shapes are plain tuples, and nothing is cached: the
    # forward Pieri kernel meets each shape once per step, and wrapping
    # and caching every shape cost more than the loop.
    length = len(lam)
    out: list[tuple[int, ...]] = []
    stack: list[tuple[int, tuple[int, ...], int]] = [(0, (), n)]  # (row, rows, cells left)
    push, pop = stack.append, stack.pop
    while stack:
        i, rows, left = pop()
        if not left:
            out.append(rows + lam[i:])
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
            out.append(rows + (left,))
    return tuple(out)


@lru_cache(maxsize=None)
def _strips_below(mu: tuple[int, ...], n: int, vertical: bool) -> tuple[tuple[int, ...], ...]:
    # The shapes below mu by a strip of n cells, taken run by run of equal
    # rows.  A horizontal strip takes at most one cell per column, so only
    # the lowest row of a run loses cells, down to the next part q, and the
    # later runs can give up q cells in all (the parts telescope).  A
    # vertical strip takes at most one cell per row, so the lowest rows of
    # a run lose one cell each (a row of 1 goes), and the later runs can
    # give up one cell per row.  A run takes at least the cells the later
    # runs cannot, so every state kept ends in a shape.  Depth first over
    # runs, fewer cells from higher runs first, lists the shapes in
    # descending order; a shape is done once its cells run out, and the
    # rows below are then copied from mu.  Only the empty shape, asked for
    # a nonempty strip, runs out of rows with cells left.
    length = len(mu)
    out: list[tuple[int, ...]] = []
    stack: list[tuple[int, tuple[int, ...], int]] = [(0, (), n)]  # (row, rows, cells left)
    push, pop = stack.append, stack.pop
    while stack:
        i, rows, left = pop()
        if not left:
            out.append(rows + mu[i:])
        elif i < length:
            part = mu[i]
            end = i + 1
            while end < length and mu[end] == part:
                end += 1
            if vertical:
                most, later = end - i, length - end
                lower = (part - 1,) if part > 1 else ()
            else:
                later = mu[end] if end < length else 0
                most = part - later
                keep = rows + mu[i:end - 1]
            take = most if most < left else left
            least = left - later if left > later else 0
            while take >= least:
                if vertical:
                    push((end, rows + mu[i:end - take] + lower * take, left - take))
                else:
                    push((end, keep + ((part - take,) if take < part else ()), left - take))
                take -= 1
    return tuple(out)


def _split_strips(triv: Sequence[int], sign: Sequence[int] = ()) -> tuple[tuple[int, bool], ...]:
    # the peel's (size, vertical) strips of two or more cells, largest
    # first, horizontal first at equal sizes; the parts of 1 are left out
    strips = [(p, False) for p in triv if p > 1] + [(q, True) for q in sign if q > 1]
    strips.sort(key=lambda step: (-step[0], step[1]))
    return tuple(strips)


def _peel_step(table: dict, size: int, vertical: bool) -> dict:
    # one layer of the peel: every way to remove one strip from each shape
    out: dict = {}
    get = out.get
    for nu, paths in table.items():
        for rho in _strips_below(nu, size, vertical):
            out[rho] = get(rho, 0) + paths
    return out


def _one_cell_tail(table: dict) -> int:
    # A one-cell strip is both horizontal and vertical, and peeling a shape
    # of weight c cell by cell down to the empty one is a standard tableau
    # read backwards: f^rho ways, by the hook-length formula.
    return sum(map(mul, map(_specht_dim, table), table.values()))


# Entries of the peel memo.  An entry is a shape, a few strips and an
# int, so the memo stays small in a long-lived process, where the forward
# caches grow without bound.
_PEEL_MEMO = 4096


@lru_cache(maxsize=_PEEL_MEMO)
def _peel(mu: tuple[int, ...], strips: tuple[tuple[int, bool], ...]) -> int:
    """Number of ways to peel ``mu`` down to the empty shape by one strip per
    ``(size, vertical)`` step of ``strips``, each of two or more cells, and
    one one-cell strip per cell of ``mu`` they leave.

    Skewing by h_r (removing a horizontal r-strip) commutes with skewing by
    e_r (removing a vertical one), so the count does not depend on the order
    of the steps and equals <s_mu, h_alpha e_beta>, where alpha holds the
    horizontal sizes and beta the vertical ones.  With only horizontal steps
    it is the Kostka number K(mu, alpha).  With both it is the multiplicity
    of ``mu`` in the module induced from trivial factors on alpha and sign
    factors on beta: the mixed fillings of Berele-Regev (alpha|beta) hook
    supertableaux, read backwards.  A one-cell strip is both horizontal and
    vertical, so the side of a part 1 does not change the count, and
    ``strips`` leaves the ones out; callers order them largest first
    (``_split_strips``), which keeps the layers small, and the peel stops
    as soon as a layer is empty.  Every peel ends the same way: the one-cell
    steps come last and count each shape left in closed form
    (``_one_cell_tail``).  With no ones left that shape is the empty one,
    and f^() = 1.  Results are kept in a bounded memo keyed by ``mu`` and
    ``strips``.
    """
    table = {mu: 1}
    for size, vertical in strips:
        table = _peel_step(table, size, vertical)
        if not table:
            return 0
    return _one_cell_tail(table)


def kostka(mu: Sequence[int], lam: Sequence[int]) -> int:
    """Number of semistandard tableaux of shape ``mu`` and content ``lam``.

    Rows weakly increase, columns strictly increase, and entry ``i`` appears
    ``lam[i-1]`` times.  The cells holding each entry form a horizontal
    strip, so this is the strip peel with every strip horizontal.  The
    peel's memo answers a repeat, and the split multiplicity of ``mu``
    with ``lam`` on the trivial side shares its entry.
    """
    mu = Partition(mu)
    lam = Partition(lam)
    if mu.weight != lam.weight:
        raise DomainError(
            f"shape and content must have equal weight, got {mu.weight} and {lam.weight}"
        )
    return _peel(mu, _split_strips(lam))


@lru_cache(maxsize=None)
def _lr(nu: Partition, lam: Partition, mu: Partition) -> int:
    # Fill the skew cells of nu/lam in reverse reading order (rows top to
    # bottom, right to left) with content mu, so that the lattice-word
    # property is a running prefix condition on value counts.  A cell's right
    # neighbour is the cell before it, unless it starts its row, and the first
    # nu_i - lam_{i-1} cells of row i have one above, exactly that many cells
    # back: the state is the placed values and their counts.
    rows = []  # (first cell, cells with a cell above) of each nonempty row
    cells = 0
    for i, part in enumerate(nu):
        if part > lam.part(i):
            rows.append((cells, part - lam.part(i - 1) if i else 0))
            cells += part - lam.part(i)
    rows.append((cells, 0))
    values = len(mu)
    counts = [0] * values
    placed: list[int] = []  # the value at each filled cell, in filling order
    total = 0
    r = 0  # the row of the next empty cell; a step moves it by at most one
    v = 1  # the smallest value still to try at the next empty cell
    while True:
        n = len(placed)
        last = 0  # the largest value the next cell may take
        if n == cells:
            total += 1  # a complete filling: backtrack
        else:
            if n < rows[r][0]:
                r -= 1
            elif n == rows[r + 1][0]:
                r += 1
            start, up = rows[r]
            # rows weakly increase to the right, columns strictly downwards
            last = placed[-1] if n > start else values
            if n - start < up and v <= placed[n - up]:
                v = placed[n - up] + 1
            while v <= last and (
                counts[v - 1] == mu[v - 1]
                # lattice word: entry v may not outrun entry v-1
                or (v > 1 and counts[v - 1] == counts[v - 2])
            ):
                # counts fall weakly with the value: past a 0 count no value passes
                v = v + 1 if v == 1 or counts[v - 2] else last + 1
        if v <= last:
            counts[v - 1] += 1
            placed.append(v)
            v = 1
        elif not placed:
            return total
        else:
            # take back the last value and try the next larger one there
            v = placed.pop()
            counts[v - 1] -= 1
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
