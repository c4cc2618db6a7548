"""Simplicial model of a wedge of circles, its n-fold product, and the
relative chain complex that the loop classes land in.

Each circle is the one-vertex simplicial circle (an edge with both ends at
the basepoint).  Its d-simplices are the totally degenerate basepoint
simplex ``None`` and, for each generator e and jump position j in [1, d],
the degeneracy of the edge whose vertex sequence switches 0 -> 1 between
vertices j-1 and j; we write that cell ``(e, j)``.

A simplex of the n-fold product is an n-tuple of such cells at a common
dimension.  It is nondegenerate exactly when the jumps of its components
cover every slot, i.e. {jumps} contains [1, d].  The subspace quotiented
out (written Y here) is the union of: first component at the basepoint,
last component at the basepoint, and two consecutive components equal.
Chain groups are spanned by the nondegenerate simplices outside Y, and the
boundary drops faces that leave that spanning set.  `enumerate_basis`
walks only those cells.  It lists them in canonical order: lexicographic
in the components, where the basepoint comes first, then generators
ascending and, within a generator, jumps descending.

Boundaries are almost all zeros (0.16% nonzero at n=4, g=3), so each is
stored once, as sparse columns: one tuple of sorted ``(row, coefficient)``
nonzeros per basis cell.  The dense matrix is built only when asked for.
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


@dataclass(frozen=True)
class ProductSimplex:
    """A dimension-``dim`` simplex of the n-fold product of circles."""

    dim: int
    components: tuple[Cell, ...]

    def __post_init__(self):
        for c in self.components:
            if c is not None:
                e, j = c
                if e < 1:
                    raise ValueError(f"bad generator index {e}")
                if not 1 <= j <= self.dim:
                    raise ValueError(f"jump {j} out of range for dimension {self.dim}")

    def is_nondegenerate(self) -> bool:
        jumps = {c[1] for c in self.components if c is not None}
        return jumps.issuperset(range(1, self.dim + 1))


def in_Y(s: ProductSimplex) -> bool:
    """Membership in the collapsed subspace: first or last component at the
    basepoint, or two consecutive components equal."""
    cs = s.components
    if not cs:
        return False
    if cs[0] is None or cs[-1] is None:
        return True
    return any(cs[i] == cs[i + 1] for i in range(len(cs) - 1))


def simplex_str(s: ProductSimplex, alphabet: str = LETTER_POOL) -> str:
    parts = []
    for c in s.components:
        parts.append("*" if c is None else f"({alphabet[c[0] - 1]},{c[1]})")
    return "(" + ",".join(parts) + ")"


def _cells(g: int, d: int) -> list[Cell]:
    """The g·d + 1 dimension-d cells of a rank-g wedge, in canonical order:
    the basepoint, then generators ascending and, within a generator, jumps
    descending."""
    cells: list[Cell] = [None]
    cells.extend((e, j) for e in range(1, g + 1) for j in range(d, 0, -1))
    return cells


def enumerate_basis(n: int, g: int, d: int) -> list[ProductSimplex]:
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
    out: list[ProductSimplex] = []

    def walk(acc: tuple[Cell, ...], missing: frozenset[int]) -> None:
        pos = len(acc)
        if pos == n:
            out.append(ProductSimplex(d, acc))
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
    bases: tuple[tuple[ProductSimplex, ...], ...]
    boundaries: tuple[tuple[Column, ...], ...]

    @property
    def d_max(self) -> int:
        """The top dimension stored: n + 1."""
        return self.n + 1

    def basis(self, d: int) -> tuple[ProductSimplex, ...]:
        return self.bases[d] if 0 <= d < len(self.bases) else ()

    def rank(self, d: int) -> int:
        return len(self.basis(d))

    def boundary_matrix(self, d: int) -> tuple[tuple[int, ...], ...]:
        """Dense matrix of the boundary leaving dimension d, built from the
        stored columns; rows indexed by the dimension d-1 basis.
        Zero-shaped when out of range."""
        columns = self.boundaries[d] if 1 <= d < len(self.boundaries) else ()
        dense = [[0] * len(columns) for _ in range(self.rank(d - 1))]
        for c, column in enumerate(columns):
            for r, x in column:
                dense[r][c] = x
        return tuple(map(tuple, dense))


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
        row_of = {s.components: i for i, s in enumerate(bases[d - 1])}.get
        faces = [(table.__getitem__, (-1) ** i) for i, table in enumerate(face_tables(g, d))]
        columns = []
        for s in bases[d]:
            cs = s.components
            terms = [(row_of(tuple(map(face, cs))), sign) for face, sign in faces]
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


def push_simplex(s: ProductSimplex, gen_map: dict[int, int | None]) -> ProductSimplex:
    return ProductSimplex(
        s.dim, tuple(push_cell(c, gen_map) for c in s.components)
    )


def complex_to_json(cx: PairComplex, alphabet: str = LETTER_POOL) -> dict:
    """JSON-ready description: bases as component lists, boundaries as
    sparse (row, col, value) triplets.  Each circle cell's ``[letter,
    jump]`` list is built once per dimension and shared by every basis
    component that is that cell."""
    dims = []
    for d in range(cx.d_max + 1):
        cell_json = {
            c: None if c is None else [alphabet[c[0] - 1], c[1]] for c in _cells(cx.g, d)
        }
        basis_json = [list(map(cell_json.__getitem__, s.components)) for s in cx.basis(d)]
        # row-major order without a sort: columns come in increasing c,
        # so each row's bucket fills in increasing c
        rows: list[list[list[int]]] = [[] for _ in range(cx.rank(d - 1))]
        for c, column in enumerate(cx.boundaries[d]):
            for r, x in column:
                rows[r].append([r, c, x])
        triplets = [t for row in rows for t in row]
        dims.append({"d": d, "basis": basis_json, "boundary": triplets})
    return {"n": cx.n, "g": cx.g, "dims": dims}
