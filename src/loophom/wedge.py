"""Simplicial model of a wedge of circles, its n-fold product, and the
relative chain complex that the loop classes land in.

Each circle is the one-vertex simplicial circle (an edge with both ends at
the basepoint).  Its d-simplices are the totally degenerate basepoint
simplex ``None`` and, for each generator e and jump position j in [1, d],
the degeneracy of the edge whose vertex sequence switches 0 -> 1 between
vertices j-1 and j; we write that cell ``(e, j)``.

A simplex of the n-fold product is an n-tuple of such cells at a common
dimension, and it is stored as just that tuple (`Simplex`): its dimension
d comes from where it is read, the d of `PairComplex.basis(d)` or n at the
top.  It is nondegenerate exactly when the jumps of its components cover
every slot, i.e. {jumps} contains [1, d].  The subspace quotiented
out (written Y here) is the union of: first component at the basepoint,
last component at the basepoint, and two consecutive components equal.
Chain groups are spanned by the nondegenerate simplices outside Y.
`enumerate_basis` walks only those cells, and it is the one place that
states the rule: everywhere else a cell is in the spanning set exactly
when the basis index finds it, so the boundary drops the faces and
`transform.push_chain_vector` the pushed cells that it does not find.
`in_Y` restates Y as a predicate.  No library code calls it; it stays
because the benchmark's tracer (``perfbench/tracing.py``) looks it up by
name.  The basis is listed in canonical order: lexicographic in the
components, where the basepoint comes first, then generators ascending
and, within a generator, jumps descending.

Boundaries are almost all zeros (0.16% nonzero at n=4, g=3), so each is
stored once, as sparse columns: one tuple of sorted ``(row, coefficient)``
nonzeros per basis cell.  No dense matrix is ever built: the reductions in
`homology` read the columns as stored, and `PairComplex.boundary_matrix`
buckets the export's triplets by row straight from them.
A face of a product simplex is taken componentwise, and a circle cell has
few faces: `face_tables` lists face i of each of the g·d + 1 cells of
dimension d once, so that assembling a boundary is table lookups rather
than one `cell_face` call per component per face (the same idea as the
precomputed coface lookups of Bauer's Ripser).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .words import LETTER_POOL, combine

# a circle cell: None is the basepoint simplex, (generator, jump) an
# edge degeneracy
Cell = Optional[tuple[int, int]]
# a simplex of the n-fold product: its n circle cells, all of one dimension
Simplex = tuple[Cell, ...]
# a sparse boundary column: its sorted (row, coefficient) nonzeros
Column = tuple[tuple[int, int], ...]


def cell_face(cell: Cell, d: int, i: int) -> Cell:
    """Face i of a dimension-d cell (result lives at dimension d-1).

    Deleting vertex i shifts the jump down when i sits before it; the
    result collapses to the basepoint when no jump remains inside [1, d-1].
    """
    if not 0 <= i <= d:
        raise ValueError(f"face index {i} out of range for dimension {d}")
    if cell is None:
        return None
    e, j = cell
    j2 = j - 1 if i < j else j
    return (e, j2) if 1 <= j2 <= d - 1 else None


def in_Y(s: Simplex) -> bool:
    """Membership in the collapsed subspace: first or last component at the
    basepoint, or two consecutive components equal."""
    if not s:
        return False
    if s[0] is None or s[-1] is None:
        return True
    return any(s[i] == s[i + 1] for i in range(len(s) - 1))


def simplex_str(s: Simplex, alphabet: str = LETTER_POOL) -> str:
    parts = []
    for c in s:
        parts.append("*" if c is None else f"({alphabet[c[0] - 1]},{c[1]})")
    return "(" + ",".join(parts) + ")"


def _cells(g: int, d: int) -> list[Cell]:
    """The g·d + 1 dimension-d cells of a rank-g wedge, in canonical order:
    the basepoint, then generators ascending and, within a generator, jumps
    descending."""
    cells: list[Cell] = [None]
    cells.extend((e, j) for e in range(1, g + 1) for j in range(d, 0, -1))
    return cells


def enumerate_basis(n: int, g: int, d: int) -> list[Simplex]:
    """Basis of the relative chain group: the nondegenerate d-simplices
    outside Y, in canonical order.

    A depth-first walk that emits exactly these cells, no Y cell and no
    degenerate one.  It prunes a branch once the components left are too
    few to cover the missing jumps, and never places the basepoint first
    or last or a cell equal to the one before it.  Each component tries
    its cells in canonical order, so the walk emits them sorted."""
    if d > n:
        return []  # n components supply at most n jumps, too few to cover
    cells = _cells(g, d)
    out: list[Simplex] = []

    def walk(acc: Simplex, missing: frozenset[int]) -> None:
        pos = len(acc)
        if pos == n:
            out.append(acc)
            return
        prev = acc[-1] if acc else None  # the basepoint may not go first
        for c in cells:
            if c == prev or (c is None and pos == n - 1):
                continue
            rest = missing if c is None else missing - {c[1]}
            if len(rest) < n - pos:  # the n-pos-1 components left can cover
                walk(acc + (c,), rest)

    walk((), frozenset(range(1, d + 1)))
    return out


@dataclass(frozen=True)
class PairComplex:
    """Relative chain complex data: per-dimension bases and boundaries.

    ``boundaries[d]`` has one entry per dimension-d basis cell: the sorted
    ``(row, coefficient)`` nonzeros of its boundary, rows indexed by the
    dimension d-1 basis.  ``boundaries[0]`` is empty.  Both run up to
    dimension ``d_max``."""

    n: int
    g: int
    bases: tuple[tuple[Simplex, ...], ...]
    boundaries: tuple[tuple[Column, ...], ...]

    @property
    def d_max(self) -> int:
        """The top dimension stored: n + 1."""
        return self.n + 1

    def basis(self, d: int) -> tuple[Simplex, ...]:
        return self.bases[d] if 0 <= d < len(self.bases) else ()

    def rank(self, d: int) -> int:
        return len(self.basis(d))

    def boundary_matrix(self, d: int) -> list[list[list[int]]]:
        """The boundary leaving dimension d by rows, as the export writes
        it: one list per dimension d-1 basis cell of its ``[row, column,
        coefficient]`` nonzeros, in column order, all empty when d is out of
        range.  It keeps the name ``boundary_matrix`` because the
        benchmark's tracer (``perfbench/tracing.py``) counts boundary
        nonzeros through it."""
        columns = self.boundaries[d] if 1 <= d < len(self.boundaries) else ()
        rows: list[list[list[int]]] = [[] for _ in range(self.rank(d - 1))]
        for c, column in enumerate(columns):
            for r, x in column:
                rows[r].append([r, c, x])
        return rows


def face_tables(g: int, d: int) -> tuple[dict[Cell, Cell], ...]:
    """For each face index i in [0, d], the map from every dimension-d cell
    of a rank-g wedge to its face i (`cell_face`): g·d + 1 entries each."""
    cells = _cells(g, d)
    return tuple({c: cell_face(c, d, i) for c in cells} for i in range(d + 1))


def build_pair_complex(n: int, g: int) -> PairComplex:
    """Bases and sparse boundary columns up to dimension n+1.

    A column is the alternating sum of the faces that stay in the spanning
    set (nondegenerate, outside Y).  Face i of a simplex is its components
    each looked up in the face-i table, and its row is that tuple looked up
    in the index of the basis one dimension down."""
    if n < 1 or g < 1:
        raise ValueError("need n >= 1 and g >= 1")
    d_max = n + 1
    bases = [tuple(enumerate_basis(n, g, d)) for d in range(d_max + 1)]
    boundaries: list[tuple[Column, ...]] = [()]
    for d in range(1, d_max + 1):
        row_of = {s: i for i, s in enumerate(bases[d - 1])}.get
        faces = [(table.__getitem__, (-1) ** i) for i, table in enumerate(face_tables(g, d))]
        columns = []
        for s in bases[d]:
            terms = [(row_of(tuple(map(face, s))), sign) for face, sign in faces]
            column = combine([(r, sign) for r, sign in terms if r is not None])
            columns.append(tuple(sorted(column.items())))
        boundaries.append(tuple(columns))
    return PairComplex(n, g, tuple(bases), tuple(boundaries))


def push_cell(cell: Cell, gen_map: dict[int, int | None]) -> Cell:
    """Apply a pointed map of wedges (generator relabel/collapse) to a cell."""
    if cell is None:
        return None
    e, j = cell
    target = gen_map.get(e)
    return None if target is None else (target, j)


def push_simplex(s: Simplex, gen_map: dict[int, int | None]) -> Simplex:
    return tuple(push_cell(c, gen_map) for c in s)


def complex_to_json(cx: PairComplex) -> dict:
    """JSON-ready description: bases as component lists, boundaries as
    sparse (row, col, value) triplets in row-major order, the rows of
    `PairComplex.boundary_matrix` one after another.  Generator e is named
    by letter e of `LETTER_POOL`.  Each circle cell's ``[letter,
    jump]`` list is built once per dimension and shared by every basis
    component that is that cell."""
    dims = []
    for d in range(cx.d_max + 1):
        cell_json = {
            c: None if c is None else [LETTER_POOL[c[0] - 1], c[1]] for c in _cells(cx.g, d)
        }
        basis_json = [list(map(cell_json.__getitem__, s)) for s in cx.basis(d)]
        triplets = [t for row in cx.boundary_matrix(d) for t in row]
        dims.append({"d": d, "basis": basis_json, "boundary": triplets})
    return {"n": cx.n, "g": cx.g, "dims": dims}
