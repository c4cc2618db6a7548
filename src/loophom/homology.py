"""Exact integer linear algebra: Smith normal form and homology of the
pair complex, with coordinates for relative cycles.

The Smith reduction is elementary row/column reduction with the pivot
chosen as the minimal-absolute-value nonzero entry of the remaining
submatrix (ties broken by lowest row, then column).  That rule, together
with a final sign normalization and a fixed divisibility-repair order,
makes the output — and therefore the homology coordinate system built on
it — deterministic across runs.

`homology` gives coordinates only at a degree d with no cells above it,
which is where the loop classes live: the pair complex has no cells above
its power n, so H_n is the cycle group Z_n, free as it lies in C_n.  A
chain is a cycle when the complex's own stored boundary ∂ sends it to
zero: `zero_image` sums that image over the chain's nonzeros and tests
it once.  `homology_groups` checks ∂_d ∂_(d+1) = 0 with the same test,
one column of ∂_(d+1) at a time, and so do `transform`'s top-degree
checks on their chains.  One reduction U ∂ V = D reads the class: the
rows of V^-1 past the rank of ∂, the class rows, are all the summary
keeps of it, and a class is one sum per class row.
`_snf` changes a V^-1 row only while it is the pivot row, so when every
pivot is a unit each class row is a single 1.  It tracks only D and V^-1:
U and V exist only as identity blocks that `smith_normal_form` adds to
its input and the operations carry along.

Boundaries are mostly zeros and units, and no dense matrix is built:
`homology` reads only the chain ranks and the stored sparse columns of ∂,
entering each nonzero once into the dict rows that `_snf` reduces in
place.  `_snf` keeps each row of D and V^-1 as a dict of its nonzeros,
summed through `words.combine`, and makes exactly the dense reduction's
steps
(`tests/oracles.py` keeps that one): an index from each column to the
rows with an entry there names the rows an operation touches, and a heap
holds every row position that may hold a unit.  1 is the least |entry|,
so the first row in the heap with one gives the pivot; only a matrix with
no unit left is scanned for its least entry, and only a non-unit pivot
needs the divisibility repair.

Ranks and torsion in every degree need no coordinates.  `homology_groups`
reads them from the invariant factors of each boundary ∂_d, those of the
coboundary δ^(d-1) = ∂_dᵀ, in ascending degree with clearing (de Silva,
Morozov and Vejdemo-Johansson, 2011; Bauer, Kerber and Reininghaus, 2014).
`invariant_factors` builds the rows of ∂_d, the columns of δ^(d-1), in one
pass over the stored columns, never building one that an earlier unit
pivot made redundant, and reduces them lazily against a map from pivot
cells to stored rows, as Ripser reduces its coboundaries (Bauer 2021;
Zomorodian and Carlsson, 2005): a row changes only while it is reduced,
each row stored under a ±1 pivot splits off a factor 1, and whatever no
unit pivoted goes to `_snf`.
"""

from __future__ import annotations

import heapq
import itertools
from collections import defaultdict
from dataclasses import dataclass
from typing import Collection, Iterable, Protocol, Sequence

from .wedge import Column
from .words import combine


def det(a: Sequence[Sequence[int]]) -> int:
    """Determinant by the Bareiss fraction-free elimination."""
    n = len(a)
    if n == 0:
        return 1
    if any(len(row) != n for row in a):
        raise ValueError("determinant needs a square matrix")
    m = [list(row) for row in a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def _pivot(d: list[dict[int, int]], heap: list[int], t: int, nrows: int, ncols: int):
    """The pivot at step t: the least |entry| in rows t..nrows-1 and columns
    t..ncols-1, the first in row-major order.  `heap` holds every row
    position that may have a unit, the least possible |entry|."""
    while heap:
        i = heap[0]
        if i >= t:
            units = [c for c, x in d[i].items() if t <= c < ncols and x in (1, -1)]
            if units:
                return i, min(units)
        heapq.heappop(heap)
    entries = ((abs(x), i, c) for i in range(t, nrows) for c, x in d[i].items() if t <= c < ncols)
    best = min(entries, default=None)
    return None if best is None else best[1:]


def _snf(rows: list[dict[int, int]], nrows: int, ncols: int):
    """Reduce the leading nrows x ncols block of the matrix with these
    {column: entry} rows, storing no zero, to Smith form in place: returns
    (D, Vinv), D being `rows` and Vinv also such rows.  Only the block is
    searched and tested; rows and columns past it ride along, which is how
    `smith_normal_form` reads U and V."""
    d = rows
    vinv = [{c: 1} for c in range(ncols)]
    where: dict[int, set[int]] = defaultdict(set)  # column -> positions of its rows
    for i, row in enumerate(d):
        for c in row:
            where[c].add(i)
    heap = list(range(nrows))  # positions of the rows that may hold a unit
    t = 0

    def put(i: int, row: dict[int, int]) -> None:
        """Store row at position i, updating the column index and the heap."""
        old = d[i]
        for c in old.keys() - row.keys():
            where[c].discard(i)
        for c in row.keys() - old.keys():
            where[c].add(i)
        d[i] = row
        if t <= i < nrows:
            heapq.heappush(heap, i)

    while (piv := _pivot(d, heap, t, nrows, ncols)) is not None:
        i0, j0 = piv
        if i0 != t:
            top = d[t]
            put(t, d[i0])
            put(i0, top)
        if j0 != t:
            swap = {t: j0, j0: t}
            for i in where[t] | where[j0]:
                d[i] = {swap.get(c, c): x for c, x in d[i].items()}
            where[t], where[j0] = where[j0], where[t]
            vinv[t], vinv[j0] = vinv[j0], vinv[t]
        pivot_row = d[t]
        p = pivot_row[t]
        dirty = False
        for i in [i for i in where[t] if t < i < nrows]:
            q = d[i][t] // p
            if q:
                put(i, combine(itertools.chain(
                    d[i].items(), ((c, -q * x) for c, x in pivot_row.items()))))
            dirty = dirty or t in d[i]
        # column t no longer changes: a column operation touches only where[t]
        ops = [(j, x // p) for j, x in pivot_row.items() if t < j < ncols and x // p]
        if ops:
            for i in list(where[t]):
                row = d[i]
                put(i, combine(itertools.chain(row.items(), ((j, -q * row[t]) for j, q in ops))))
            vinv[t] = combine(itertools.chain(
                vinv[t].items(), ((c, q * x) for j, q in ops for c, x in vinv[j].items())))
        dirty = dirty or any(t < j < ncols for j in d[t])
        if not dirty and abs(p) != 1:  # a unit divides everything: nothing to repair
            for i in range(t + 1, nrows):
                if any(x % p for c, x in d[i].items() if t < c < ncols):
                    # pull the offending row up so the pivot shrinks
                    put(t, combine(itertools.chain(d[t].items(), d[i].items())))
                    dirty = True
                    break
        if dirty:
            continue  # remainders became new, smaller candidates
        if p < 0:
            d[t] = {c: -x for c, x in d[t].items()}
        t += 1
    return d, vinv


def smith_normal_form(a: Sequence[Sequence[int]]):
    """(U, D, V) with U a V = D, U and V unimodular, D diagonal with each
    entry dividing the next.  As in Gauss-Jordan's [A | I], `_snf` reduces
    a with an identity block to its right, which becomes U, and one below
    it, which becomes V."""
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    if any(len(row) != ncols for row in a):
        raise ValueError("matrix rows differ in length")
    bordered = [{**{c: x for c, x in enumerate(row) if x}, ncols + i: 1} for i, row in enumerate(a)]
    bordered += [{j: 1} for j in range(ncols)]
    d = [[row.get(c, 0) for c in range(ncols + nrows)] for row in _snf(bordered, nrows, ncols)[0]]
    return (
        [row[ncols:] for row in d[:nrows]],
        [row[:ncols] for row in d[:nrows]],
        [row[:ncols] for row in d[nrows:]],
    )


class ChainComplexLike(Protocol):
    """What `homology` and `homology_groups` read of a `wedge.PairComplex`:
    the power n, the chain ranks and the boundaries as sparse columns."""

    n: int

    def rank(self, d: int) -> int: ...

    @property
    def boundaries(self) -> Sequence[Sequence[Column]]: ...


def zero_image(columns: Sequence[Column], chain: Iterable[tuple[int, int]]) -> bool:
    """Whether the matrix with these sparse columns sends the chain of
    (cell, coefficient) pairs to zero: the image is summed into one dict
    by row, zeros kept, and tested once at the end."""
    image: dict[int, int] = {}
    for i, c in chain:
        if c:
            for r, x in columns[i]:
                image[r] = image.get(r, 0) + c * x
    return not any(image.values())


@dataclass(frozen=True)
class HomologySummary:
    """The free rank of a degree with no cells above it, and a
    deterministic cycle -> coordinates map.

    `_boundary` is the complex's sparse boundary leaving this degree, one
    column per cell; `_classes` the last `rank` rows of Vinv, as nonzero
    (column, entry) pairs.  With U ∂ V = D and D nonzero only on its first
    r diagonal entries, ∂z = 0 exactly when the first r entries of Vinv z
    vanish, so testing ∂z selects the cycles the dropped rows selected.
    """

    degree: int
    rank: int
    _boundary: Sequence[Column]
    _classes: tuple[tuple[tuple[int, int], ...], ...]

    def is_cycle(self, z: Sequence[int]) -> bool:
        """Whether a chain vector z of this degree has zero boundary."""
        if len(z) != len(self._boundary):
            raise ValueError(f"expected a vector of length {len(self._boundary)}")
        return zero_image(self._boundary, enumerate(z))

    def cycle_class(self, z: Sequence[int]) -> tuple[int, ...]:
        """Coordinates of a relative cycle in this degree's homology: one
        sum over each class row's nonzeros."""
        if not self.is_cycle(z):
            raise ValueError("vector is not a cycle")
        coords = []
        for row in self._classes:
            total = 0
            for c, x in row:
                total += x * z[c]
            coords.append(total)
        return tuple(coords)


def _boundary(cx: ChainComplexLike, d: int) -> tuple[Sequence[Column], int]:
    """The stored columns of ∂_d, one per d-cell, and its number of rows,
    once every row index is checked to lie in [0, rows)."""
    nd = cx.rank(d)
    below = cx.rank(d - 1) if d >= 1 else 0
    columns = cx.boundaries[d] if d >= 1 and nd else ((),) * nd
    if len(columns) != nd or any(not 0 <= r < below for column in columns for r, _ in column):
        raise ValueError("boundary matrix at d has the wrong shape")
    return columns, below


def homology(cx: ChainComplexLike, d: int) -> HomologySummary:
    """Homology of the complex at a degree d with no cells above it, with
    projection data: there H_d is the cycle group, free of rank
    dim C_d - rank of the boundary leaving d."""
    if cx.rank(d + 1):
        raise ValueError(f"degree {d} has cells above it: coordinates need C_{d + 1} = 0")
    columns, below = _boundary(cx, d)
    nd = len(columns)
    rows: list[dict[int, int]] = [{} for _ in range(below)]
    for c, column in enumerate(columns):
        for r, x in column:
            rows[r][c] = x
    dd, vinv = _snf(rows, below, nd)
    rank = nd - sum(1 for i in range(min(below, nd)) if i in dd[i])
    return HomologySummary(
        degree=d,
        rank=rank,
        _boundary=columns,
        _classes=tuple(tuple(sorted(row.items())) for row in vinv[nd - rank:]),
    )


def _reduce(row: dict[int, int], c: int, pivot: dict[int, int]) -> dict[int, int]:
    """Row less the multiple of a stored pivot row that zeroes its entry at
    the pivot's cell c, where the pivot is ±1, so that no division is
    needed."""
    q = row[c] * pivot[c]  # row[c] / pivot[c], as the pivot is a unit
    return combine(itertools.chain(row.items(), ((s, -q * x) for s, x in pivot.items())))


def invariant_factors(
    columns: Sequence[Column], nrows: int, cleared: Collection[int] = frozenset()
) -> tuple[list[int], set[int]]:
    """The nonzero Smith diagonal, in order, of the matrix with nrows rows
    and the given sparse columns, less the rows in `cleared`, and the
    columns its unit pivots used.

    One pass over the columns builds each row not in `cleared` as a
    {column: entry} dict.  The rows are then reduced in order, each on its
    own: while its least entry sits on a stored pivot, that pivot's row is
    subtracted.  A row left with ±1 at its least entry is stored under that
    column, a zero row is dropped, and any other row is set aside.  At the
    end each set-aside row is reduced against every stored pivot, which
    leaves it zero on the pivot columns.  The stored rows are
    unit-triangular on their pivot columns, so column operations clear
    their other entries without touching the set-aside rows, and each
    splits off one factor 1; the set-aside rows hold the rest and go,
    compacted, through `_snf`.  Every step subtracts a multiple of one row
    from another, so the factors are those of the matrix, and
    `homology_groups` clears only rows that are integer combinations of
    the others, which leaves them unchanged.
    """
    rows: list[dict[int, int]] = [{} for _ in range(nrows)]
    for c, column in enumerate(columns):
        for r, x in column:
            if r not in cleared:
                rows[r][c] = x
    pivots: dict[int, dict[int, int]] = {}  # pivot column -> its stored row
    aside = []
    for row in rows:
        while row:
            c = min(row)
            pivot = pivots.get(c)
            if pivot is None:
                if row[c] in (1, -1):
                    pivots[c] = row
                else:
                    aside.append(row)
                break
            row = _reduce(row, c, pivot)
    left = []
    for row in aside:
        # a pivot row is zero before its column: going up the columns, no
        # step brings back one that an earlier step cleared
        while hits := [c for c in row if c in pivots]:
            c = min(hits)
            row = _reduce(row, c, pivots[c])
        if row:
            left.append(row)
    index = {c: j for j, c in enumerate(sorted(set().union(*left)))}
    d, _ = _snf([{index[c]: x for c, x in row.items()} for row in left], len(left), len(index))
    factors = [1] * len(pivots)
    factors.extend(d[i][i] for i in range(min(len(left), len(index))) if i in d[i])
    return factors, set(pivots)


def homology_groups(cx: ChainComplexLike) -> list[tuple[int, tuple[int, ...]]]:
    """(rank, torsion) of the homology at each degree 0..n, from the
    invariant factors of each boundary: rank H_d is dim C_d - r_d - r_(d+1)
    for boundary ranks r, and the torsion of H_d is the factors of the
    degree-(d+1) boundary above 1.  First every boundary must have the
    shape the chain ranks give it, and every column of each ∂_(d+1) zero
    image under ∂_d, or the boundaries do not form a chain complex.

    The factors are those of the coboundaries δ^(d-1) = ∂_dᵀ, which has the
    same Smith form, reduced for d = 1, ..., n+1 in that order with
    clearing (de Silva, Morozov and Vejdemo-Johansson, Inverse Problems 27,
    2011; Bauer, Kerber and Reininghaus, "Clear and compress", 2014): a
    row of ∂_d, a column of δ^(d-1), is skipped when its (d-1)-cell was the
    pivot row of a unit pivot of δ^(d-2).  Each reduced pivot column of
    δ^(d-2) is a coboundary, hence a cocycle, with ±1 at its pivot row and
    0 at every earlier one; restricted to the pivot rows these cocycles
    are unit-triangular, so each pivot row's unit cochain is an integer
    combination of cocycles plus a cochain on the other rows.  Its column
    of δ^(d-1) is therefore an integer combination of the kept columns,
    and skipping it leaves the factors over Z unchanged.  That needs
    δδ = 0, which is why the check comes first.
    """
    n = cx.n
    stored = [_boundary(cx, d) for d in range(n + 2)]  # (columns, rows) of ∂_0..∂_(n+1)
    for (below, _), (above, _) in zip(stored[1:], stored[2:]):  # ∂_d ∂_(d+1), d = 1..n
        for column in above:
            if not zero_image(below, column):
                raise ValueError("not a chain complex: consecutive boundaries do not vanish")
    factors: list[list[int]] = [[]]
    cleared: set[int] = set()
    for columns, nrows in stored[1:]:  # δ^(d-1), eliminated on the rows of ∂_d
        found, cleared = invariant_factors(columns, nrows, cleared)
        factors.append(found)
    return [
        (
            cx.rank(d) - len(factors[d]) - len(factors[d + 1]),
            tuple(x for x in factors[d + 1] if x > 1),
        )
        for d in range(n + 1)
    ]
