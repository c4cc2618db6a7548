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
chain is a cycle when the complex's own stored boundary sends it to zero.
One reduction U ∂ V = D of that boundary reads the class: the rows of V^-1
past the rank of ∂, the class rows, are all the summary keeps of it.
`_snf` changes a V^-1 row only while it is the pivot row, so when every
pivot is a unit each class row is a single 1.  It tracks only D and V^-1:
U and V exist only as identity blocks that `smith_normal_form` adds to
its input and the operations carry along.

Boundaries here are mostly zeros and units, so the dense matrices are
walked only where an entry can change a result.  Each shortcut skips work
whose outcome is already known, so D and Vinv, and the U and V read off
the blocks, come out exactly as a full dense walk gives them:

* The pivot search stops at the first unit in row-major order: 1 is the
  least possible |entry|, and the search keeps the first minimum it meets.
* A unit pivot skips the divisibility-repair scan, since ``x % ±1 == 0``.
* A column operation ``col_j -= q col_t`` touches only the rows whose
  column-t entry is nonzero; the others would lose ``q * 0``.

Ranks and torsion in every degree need no coordinates.  `homology_groups`
reads them from the invariant factors of each boundary, which
`invariant_factors` finds on the stored sparse columns: it eliminates on a
±1 entry of each column in turn, each of which splits off a factor 1, and
hands whatever no unit pivoted to the dense `_snf`.  So invariants come
from sparse unit elimination; top-degree coordinates, which need the
transform, from the dense deterministic reduction in `homology`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Protocol, Sequence

from .wedge import Column
from .words import combine

Matrix = list[list[int]]


def identity_matrix(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


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


def _snf(a: Sequence[Sequence[int]], nrows: int, ncols: int):
    """Reduce the leading nrows x ncols block of a copy of a to Smith form;
    returns (D, Vinv), the reduced copy and the inverse of the column
    transform V.  Only the block is searched and tested; rows and columns
    past it ride along, which is how `smith_normal_form` reads U and V.
    The shortcuts skip steps that provably change nothing (module docstring).
    """
    d = [list(row) for row in a]
    vinv = identity_matrix(ncols)
    t = 0
    while True:
        # deterministic pivot: minimal |entry|, then lowest (row, col); the
        # first unit in row-major order is already that entry
        piv = None
        best = None
        for i in range(t, nrows):
            row = d[i]
            for j in range(t, ncols):
                x = row[j]
                if x and (best is None or abs(x) < best):
                    best = abs(x)
                    piv = (i, j)
                    if best == 1:
                        break
            if best == 1:
                break
        if piv is None:
            break
        i0, j0 = piv
        if i0 != t:
            d[t], d[i0] = d[i0], d[t]
        if j0 != t:
            for row in d:
                row[t], row[j0] = row[j0], row[t]
            vinv[t], vinv[j0] = vinv[j0], vinv[t]
        p = d[t][t]
        dirty = False
        for i in range(t + 1, nrows):
            if d[i][t]:
                q = d[i][t] // p
                if q:
                    d[i] = [x - q * y for x, y in zip(d[i], d[t])]
                if d[i][t]:
                    dirty = True
        # column t no longer changes below, so a column operation only
        # touches the rows that are nonzero there
        rows = [row for row in d if row[t]]
        for j in range(t + 1, ncols):
            if d[t][j]:
                q = d[t][j] // p
                if q:
                    for row in rows:
                        row[j] -= q * row[t]
                    vinv[t] = [x + q * y for x, y in zip(vinv[t], vinv[j])]
                if d[t][j]:
                    dirty = True
        if dirty:
            continue  # remainders became new, smaller candidates
        repaired = False
        if abs(p) != 1:  # a unit divides everything: nothing to repair
            for i in range(t + 1, nrows):
                row = d[i]
                if any(x % p for x in row[t + 1:ncols]):
                    d[t] = [x + y for x, y in zip(d[t], row)]
                    repaired = True
                    break
        if repaired:
            continue  # pull the offending row up so the pivot shrinks
        if d[t][t] < 0:
            d[t] = [-x for x in d[t]]
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
    bordered = [list(row) + e for row, e in zip(a, identity_matrix(nrows))]
    bordered += [e + [0] * nrows for e in identity_matrix(ncols)]
    d, _ = _snf(bordered, nrows, ncols)
    return (
        [row[ncols:] for row in d[:nrows]],
        [row[:ncols] for row in d[:nrows]],
        [row[:ncols] for row in d[nrows:]],
    )


class ChainComplexLike(Protocol):
    """What `homology` reads of a complex: the chain ranks at d - 1, d and
    d + 1, and the boundary leaving degree d, dense and as sparse columns."""

    def rank(self, d: int) -> int: ...

    def boundary_matrix(self, d: int) -> Sequence[Sequence[int]]: ...

    @property
    def boundaries(self) -> Sequence[Sequence[Column]]: ...


def boundary_of(columns: Sequence[Column], chain: Iterable[tuple[int, int]]) -> dict[int, int]:
    """The nonzero (row, coefficient) pairs of the boundary of a chain of
    (cell, coefficient) pairs, for the boundary with these sparse columns."""
    return combine((r, c * x) for i, c in chain if c for r, x in columns[i])


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
        return not boundary_of(self._boundary, enumerate(z))

    def cycle_class(self, z: Sequence[int]) -> tuple[int, ...]:
        """Coordinates of a relative cycle in this degree's homology."""
        if not self.is_cycle(z):
            raise ValueError("vector is not a cycle")
        return tuple(sum(x * z[c] for c, x in row) for row in self._classes)


def homology(cx: ChainComplexLike, d: int) -> HomologySummary:
    """Homology of the complex at a degree d with no cells above it, with
    projection data: there H_d is the cycle group, free of rank
    dim C_d - rank of the boundary leaving d."""
    if cx.rank(d + 1):
        raise ValueError(f"degree {d} has cells above it: coordinates need C_{d + 1} = 0")
    nd = cx.rank(d)
    below = cx.rank(d - 1) if d >= 1 else 0
    # below degree 1 nothing constrains the cycles; a degree without cells has no columns
    md = cx.boundary_matrix(d) if d >= 1 else []
    columns = cx.boundaries[d] if d >= 1 and nd else ((),) * nd
    if len(md) != below or any(len(row) != nd for row in md) or len(columns) != nd:
        raise ValueError("boundary matrix at d has the wrong shape")
    dd, vinv = _snf(md, below, nd)
    rank = nd - sum(1 for i in range(min(below, nd)) if dd[i][i])
    return HomologySummary(
        degree=d,
        rank=rank,
        _boundary=columns,
        _classes=tuple(
            tuple((c, x) for c, x in enumerate(row) if x) for row in vinv[nd - rank:]
        ),
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
    left = [col for col in cols if col]
    index = {r: i for i, r in enumerate(sorted(set().union(*left)))}
    dense = [[0] * len(left) for _ in index]
    for c, col in enumerate(left):
        for r, x in col.items():
            dense[index[r]][c] = x
    d, _ = _snf(dense, len(index), len(left))
    factors.extend(d[i][i] for i in range(min(len(index), len(left))) if d[i][i])
    return factors


class SparseComplexLike(Protocol):
    """What `homology_groups` reads of a `wedge.PairComplex`: the power n,
    the chain ranks and the sparse boundaries up to degree n + 1."""

    n: int

    def rank(self, d: int) -> int: ...

    @property
    def boundaries(self) -> Sequence[Sequence[Column]]: ...


def homology_groups(cx: SparseComplexLike) -> list[tuple[int, tuple[int, ...]]]:
    """(rank, torsion) of the homology at each degree 0..n, from the
    invariant factors of each boundary, computed once: rank H_d is
    dim C_d - r_d - r_(d+1) for boundary ranks r, and the torsion of H_d is
    the factors of the degree-(d+1) boundary above 1."""
    n = cx.n
    for d in range(1, n + 1):  # each column of the product of d and d + 1
        below = cx.boundaries[d]
        for column in cx.boundaries[d + 1]:
            if boundary_of(below, column):
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
