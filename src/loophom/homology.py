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
which `wedge.by_rows` buckets into the rows `_snf` starts from.  `_snf`
keeps each row of D and V^-1 as a dict of its nonzeros, summed through
`words.combine`, and makes exactly the dense reduction's steps
(`tests/oracles.py` keeps that one): an index from each column to the
rows with an entry there names the rows an operation touches, and a heap
holds every row position that may hold a unit.  1 is the least |entry|,
so the first row in the heap with one gives the pivot; only a matrix with
no unit left is scanned for its least entry, and only a non-unit pivot
needs the divisibility repair.

Ranks and torsion in every degree need no coordinates.  `homology_groups`
reads them from the invariant factors of each boundary, which
`invariant_factors` finds on the stored sparse columns: it eliminates on a
±1 entry of each column in turn, each of which splits off a factor 1, and
hands whatever no unit pivoted to `_snf`, as the rows of its transpose.
"""

from __future__ import annotations

import heapq
import itertools
from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, Protocol, Sequence

from .wedge import Column, by_rows
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


def _snf(rows: Iterable[Iterable[tuple[int, int]]], nrows: int, ncols: int):
    """Reduce the leading nrows x ncols block of the matrix with these rows,
    each as (column, entry) pairs, to Smith form: returns (D, Vinv), each as
    {column: entry} rows that store no zero.  Only the block is searched and
    tested; rows and columns past it ride along, which is how
    `smith_normal_form` reads U and V."""
    d = [combine(row) for row in rows]
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
    bordered = [[*enumerate(row), (ncols + i, 1)] for i, row in enumerate(a)]
    bordered += [[(j, 1)] for j in range(ncols)]
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


def homology(cx: ChainComplexLike, d: int) -> HomologySummary:
    """Homology of the complex at a degree d with no cells above it, with
    projection data: there H_d is the cycle group, free of rank
    dim C_d - rank of the boundary leaving d."""
    if cx.rank(d + 1):
        raise ValueError(f"degree {d} has cells above it: coordinates need C_{d + 1} = 0")
    nd = cx.rank(d)
    below = cx.rank(d - 1) if d >= 1 else 0
    # below degree 1 nothing constrains the cycles; a degree without cells has no columns
    columns = cx.boundaries[d] if d >= 1 and nd else ((),) * nd
    if len(columns) != nd or any(not 0 <= r < below for column in columns for r, _ in column):
        raise ValueError("boundary matrix at d has the wrong shape")
    dd, vinv = _snf(by_rows(columns, below), below, nd)
    rank = nd - sum(1 for i in range(min(below, nd)) if i in dd[i])
    return HomologySummary(
        degree=d,
        rank=rank,
        _boundary=columns,
        _classes=tuple(tuple(sorted(row.items())) for row in vinv[nd - rank:]),
    )


def invariant_factors(columns: Sequence[Column], nrows: int) -> list[int]:
    """The nonzero Smith diagonal, in order, of the matrix with nrows rows
    and the given sparse columns.

    A ±1 entry splits off a factor 1: clearing its row from the other
    columns leaves the matrix with that row and column removed.  Each
    column in turn pivots on its first unit, if it has one; what no unit
    pivoted goes, compacted, through `_snf`.  The factors do not depend on
    the pivot order.
    """
    cols = [dict(column) for column in columns]
    rows: list[set[int]] = [set() for _ in range(nrows)]  # row -> its columns
    for j, col in enumerate(cols):
        for r in col:
            rows[r].add(j)
    factors = []
    for j, pivot in enumerate(cols):
        r = next((r for r, x in pivot.items() if x in (1, -1)), None)
        if r is None:
            continue
        p = pivot[r]
        for k in rows[r] - {j}:
            old = cols[k]
            q = old[r] * p  # old[r] / p, as p is a unit
            new = combine(itertools.chain(old.items(), ((s, -q * x) for s, x in pivot.items())))
            for s in old.keys() - new.keys():
                rows[s].discard(k)
            for s in new.keys() - old.keys():
                rows[s].add(k)
            cols[k] = new
        for s in pivot:
            rows[s].discard(j)
        cols[j] = {}
        factors.append(1)
    # the transpose has the same factors: each leftover column is a row
    left = [col for col in cols if col]
    index = {r: i for i, r in enumerate(sorted(set().union(*left)))}
    d, _ = _snf([((index[r], x) for r, x in col.items()) for col in left], len(left), len(index))
    factors.extend(d[i][i] for i in range(min(len(left), len(index))) if i in d[i])
    return factors


def homology_groups(cx: ChainComplexLike) -> list[tuple[int, tuple[int, ...]]]:
    """(rank, torsion) of the homology at each degree 0..n, from the
    invariant factors of each boundary, computed once: rank H_d is
    dim C_d - r_d - r_(d+1) for boundary ranks r, and the torsion of H_d is
    the factors of the degree-(d+1) boundary above 1.  First every column
    of each ∂_(d+1) must have zero image under ∂_d, or the boundaries do
    not form a chain complex."""
    n = cx.n
    for d in range(1, n + 1):  # each column of the product of d and d + 1
        below = cx.boundaries[d]
        for column in cx.boundaries[d + 1]:
            if not zero_image(below, column):
                raise ValueError("not a chain complex: consecutive boundaries do not vanish")
    factors = [[]] + [
        invariant_factors(cx.boundaries[d], cx.rank(d - 1)) for d in range(1, n + 2)
    ]
    return [
        (
            cx.rank(d) - len(factors[d]) - len(factors[d + 1]),
            tuple(x for x in factors[d + 1] if x > 1),
        )
        for d in range(n + 1)
    ]
