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
One depth-first walk per degree (`_walk`) visits exactly those cells and
states the rule; `enumerate_basis` is that walk, and everywhere else a cell
is in the spanning set exactly when a basis finds it, so the boundary drops
the faces and `transform.push_chain_vector` the pushed cells that it does
not find.  `in_Y` restates Y as a predicate.  No library code calls it; it
stays because the benchmark's tracer (``perfbench/tracing.py``) looks it up
by name.  The basis is listed in canonical order: lexicographic in the
components, where the basepoint comes first, then generators ascending
and, within a generator, jumps descending.

Boundaries are almost all zeros (0.16% nonzero at n=4, g=3), so each is
stored once, as sparse columns: one tuple of sorted ``(row, coefficient)``
nonzeros per basis cell.  No dense matrix is ever built: the reductions in
`homology` read the columns as stored, and `PairComplex.boundary_matrix`
buckets the export's triplets by row straight from them.
A face of a product simplex is taken componentwise, so the faces of every
cell below a prefix extend the faces of that prefix.  `build_pair_complex`
walks degree d carrying, for each face index i, the node of the degree
d-1 basis trie that face i of the current prefix leads to; a prefix whose
face falls out of the trie leads to the empty node, and that face is absent
from every cell below it.  A trie is keyed by the place of each circle cell
in the canonical order of its dimension, and `cell_faces` gives the places
of a cell's faces.  At a leaf the nodes are the faces' row indices, so each
step of the walk costs d + 1 small-integer lookups, and no face tuple is
built or hashed (Ripser finds cofaces by walking the cell structure in the
same way; Bauer 2021).  The walk builds degree d's own trie for degree
d + 1, and the one below is dropped.
"""

from __future__ import annotations

import itertools
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


def cell_faces(g: int, d: int) -> list[tuple[Cell, tuple[int, ...]]]:
    """The g·d + 1 dimension-d cells of a rank-g wedge in canonical order,
    each with its faces 0..d (`cell_face`) given by their places in the
    canonical order of dimension d - 1: the face data `_walk` reads, keyed
    as the basis tries are."""
    place = {c: k for k, c in enumerate(_cells(g, d - 1))}
    return [(c, tuple(place[cell_face(c, d, i)] for i in range(d + 1))) for c in _cells(g, d)]


# a node of a basis trie: from a prefix of circle cells, the place of the
# next cell (in the canonical order of its dimension) leads to the next
# node, and after the last one to the cell's row index
Trie = dict


def _walk(n: int, g: int, d: int, below: Trie | None) -> tuple[list[Simplex], list[Column], Trie]:
    """The degree-d basis in canonical order; with `below`, the trie of the
    degree d-1 basis, also each cell's boundary column and the trie of the
    degree-d basis.

    The walk emits the nondegenerate cells outside Y and nothing else.  It
    prunes a branch once the components left are too few to cover the
    missing jumps (a bit mask), and never places the basepoint first or
    last or a cell equal to the one before it.  Each component tries its
    cells in canonical order, so the walk emits them sorted.  Beside the
    prefix it carries one node of `below` per face index: where the faces
    of the prefix lead, the empty node once a face has left the trie."""
    basis: list[Simplex] = []
    columns: list[Column] = []
    trie: Trie = {}
    if d > n:
        return basis, columns, trie  # n components supply at most n jumps
    cells = [(c, k, faces) for k, (c, faces) in enumerate(cell_faces(g, d))]
    inner = [(c, k, faces, -1 if c is None else ~(1 << c[1])) for c, k, faces in cells]
    # the cells that may close a walk, by the jumps still missing: any but
    # the basepoint when none is, those with the one jump when one is
    last = {0: cells[1:]}
    for j in range(1, d + 1):
        last[1 << j] = [cell for cell in cells[1:] if cell[0][1] == j]
    signs = [(-1) ** i for i in range(d + 1)]
    track = below is not None
    empty = itertools.repeat({})

    def walk(acc: Simplex, pos: int, missing: int, prev: Cell, nodes: tuple, own: Trie) -> None:
        if pos == n - 1:
            for c, k, faces in last.get(missing, ()):
                if c is not prev:
                    if track:
                        own[k] = len(basis)
                        rows = map(dict.get, nodes, faces)
                        terms = [t for t in zip(rows, signs) if t[0] is not None]
                        columns.append(tuple(sorted(combine(terms).items())))
                    basis.append(acc + (c,))
            return
        room = n - pos - 1  # the components left after this one
        for c, k, faces, keep in inner:  # the basepoint may not go first: prev is None
            if c is prev:
                continue
            rest = missing & keep
            if rest.bit_count() <= room:
                if track:
                    child: Trie = {}
                    walk(acc + (c,), pos + 1, rest, c, tuple(map(dict.get, nodes, faces, empty)), child)
                    if child:
                        own[k] = child
                else:
                    walk(acc + (c,), pos + 1, rest, c, nodes, own)

    walk((), 0, (1 << (d + 1)) - 2, None, (below,) * (d + 1) if track else (), trie)
    return basis, columns, trie


def enumerate_basis(n: int, g: int, d: int) -> list[Simplex]:
    """Basis of the relative chain group: the nondegenerate d-simplices
    outside Y, in canonical order (`_walk`, tracking no faces)."""
    return _walk(n, g, d, None)[0]


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


def build_pair_complex(n: int, g: int) -> PairComplex:
    """Bases and sparse boundary columns up to dimension n+1.

    A column is the alternating sum of the faces that stay in the spanning
    set (nondegenerate, outside Y).  One `_walk` per degree builds its basis
    and columns together, reading the rows of the faces from the trie of the
    basis one degree down, which is dropped once the degree is built."""
    if n < 1 or g < 1:
        raise ValueError("need n >= 1 and g >= 1")
    bases: list[tuple[Simplex, ...]] = []
    boundaries: list[tuple[Column, ...]] = []
    trie: Trie = {}  # degree -1 has no cells
    for d in range(n + 2):
        basis, columns, trie = _walk(n, g, d, trie)
        bases.append(tuple(basis))
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
