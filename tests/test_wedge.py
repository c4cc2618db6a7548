"""Tests for the product-of-circles simplicial model and its pair complex."""

from __future__ import annotations

import itertools
import json
import math
from hashlib import sha256

import pytest

import oracles
from loophom.wedge import (
    Cell,
    ProductSimplex,
    build_pair_complex,
    cell_face,
    complex_to_json,
    enumerate_basis,
    face_tables,
    in_Y,
    push_simplex,
    simplex_str,
)
from oracles import canonical_key, face

A = ProductSimplex(2, ((1, 2), (1, 1)))
B = ProductSimplex(2, ((1, 1), (1, 2)))


def all_product_simplices(n: int, g: int, d: int) -> list[ProductSimplex]:
    cells: list[Cell] = [None]
    cells += [(e, j) for e in range(1, g + 1) for j in range(1, d + 1)]
    return [ProductSimplex(d, c) for c in itertools.product(cells, repeat=n)]


# ---------------------------------------------------------------------------
# Cells and faces.
# ---------------------------------------------------------------------------


def test_edge_faces_collapse_to_basepoint():
    assert cell_face((1, 1), 1, 0) is None
    assert cell_face((1, 1), 1, 1) is None


def test_cell_face_shifts_jump():
    # dimension 3 cell jumping at 2: deleting an early vertex moves the jump
    assert cell_face((1, 2), 3, 0) == (1, 1)
    assert cell_face((1, 2), 3, 3) == (1, 2)
    assert cell_face((1, 1), 3, 0) is None
    assert cell_face((1, 3), 3, 3) is None


def test_face_tables_hold_cell_face_of_every_cell():
    for g in (1, 2, 3):
        for d in range(0, 8):
            cells = [None] + [(e, j) for e in range(1, g + 1) for j in range(1, d + 1)]
            tables = face_tables(g, d)
            assert len(tables) == d + 1
            for i, table in enumerate(tables):
                assert table.keys() == set(cells), (g, d, i)
                assert all(table[c] == cell_face(c, d, i) for c in cells), (g, d, i)


def test_face_frozen_example():
    s = ProductSimplex(2, ((1, 1), (1, 2)))
    assert face(s, 1) == ProductSimplex(1, ((1, 1), (1, 1)))


def test_simplicial_face_identities():
    for n in (1, 2, 3):
        for g in (1, 2):
            for d in (2, 3, 4):
                for s in all_product_simplices(n, g, d):
                    for j in range(1, d + 1):
                        for i in range(0, j):
                            assert face(face(s, j), i) == face(face(s, i), j - 1)


def test_validation():
    with pytest.raises(ValueError):
        ProductSimplex(1, ((1, 2),))
    with pytest.raises(ValueError):
        ProductSimplex(2, ((0, 1),))


# ---------------------------------------------------------------------------
# Degeneracy and the collapsed subspace.
# ---------------------------------------------------------------------------


def test_nondegenerate_iff_jumps_cover():
    s = ProductSimplex(2, ((1, 2), (1, 1)))
    assert s.is_nondegenerate()
    assert not ProductSimplex(2, ((1, 2), (1, 2))).is_nondegenerate()
    assert not ProductSimplex(2, (None, (1, 1))).is_nondegenerate()
    assert ProductSimplex(0, (None, None)).is_nondegenerate()


def test_in_Y_frozen_cases():
    assert in_Y(ProductSimplex(1, (None, (1, 1))))
    assert in_Y(ProductSimplex(1, ((1, 1), (1, 1))))
    assert not in_Y(A)
    assert not in_Y(B)


def test_Y_is_closed_under_faces():
    for n in (1, 2, 3):
        for g in (1, 2):
            for d in (1, 2, 3, 4):
                for s in all_product_simplices(n, g, d):
                    if not in_Y(s):
                        continue
                    for i in range(0, d + 1):
                        t = face(s, i)
                        assert in_Y(t) or not t.is_nondegenerate(), (s, i)


# ---------------------------------------------------------------------------
# Basis enumeration.
# ---------------------------------------------------------------------------


def test_top_dimension_count_before_filter():
    for n in (1, 2, 3, 4):
        for g in (1, 2):
            top = [s for s in all_product_simplices(n, g, n) if s.is_nondegenerate()]
            assert len(top) == g ** n * math.factorial(n)


def test_enumeration_matches_brute_force():
    grid = [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (3, 2), (4, 1), (4, 2)]
    for n, g in grid + [(2, 3), (3, 3), (2, 4)]:
        for d in range(0, n + 2):
            brute = [
                s
                for s in all_product_simplices(n, g, d)
                if s.is_nondegenerate() and not in_Y(s)
            ]
            assert enumerate_basis(n, g, d) == sorted(brute, key=canonical_key), (n, g, d)


def test_basis_frozen_examples():
    assert enumerate_basis(2, 1, 2) == [A, B]
    assert enumerate_basis(2, 1, 1) == []
    assert enumerate_basis(2, 1, 3) == []
    assert enumerate_basis(3, 1, 4) == []
    # two distinct letters dodge the diagonal in dimension 1
    assert len(enumerate_basis(2, 2, 1)) == 2


def test_known_ranks():
    cx = build_pair_complex(1, 1)
    assert [cx.rank(d) for d in range(0, 3)] == [0, 1, 0]
    cx = build_pair_complex(2, 1)
    assert [cx.rank(d) for d in range(0, 4)] == [0, 0, 2, 0]
    cx = build_pair_complex(3, 1)
    assert cx.rank(3) == 6
    assert cx.rank(2) == 4


# ---------------------------------------------------------------------------
# The pair complex.
# ---------------------------------------------------------------------------


def matmul(a, b):
    if not a or not b:
        return []
    return [
        [sum(a[r][k] * b[k][c] for k in range(len(b))) for c in range(len(b[0]))]
        for r in range(len(a))
    ]


def test_boundary_squares_to_zero():
    for n in (1, 2, 3):
        for g in (1, 2):
            cx = build_pair_complex(n, g)
            for d in range(2, cx.d_max + 1):
                prod = matmul(
                    [list(r) for r in cx.boundary_matrix(d - 1)],
                    [list(r) for r in cx.boundary_matrix(d)],
                )
                assert all(all(v == 0 for v in row) for row in prod), (n, g, d)


def test_boundary_matrix_shapes():
    cx = build_pair_complex(3, 1)
    m = cx.boundary_matrix(3)
    assert len(m) == cx.rank(2)
    assert all(len(row) == cx.rank(3) for row in m)
    beyond = cx.boundary_matrix(cx.d_max + 1)
    assert len(beyond) == cx.rank(cx.d_max)
    assert all(row == () for row in beyond)


def test_boundaries_are_stored_as_sorted_nonzero_columns():
    for n, g in [(1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (3, 3), (4, 2)]:
        cx = build_pair_complex(n, g)
        assert cx.boundaries[0] == ()
        for d in range(1, cx.d_max + 1):
            assert len(cx.boundaries[d]) == cx.rank(d)
            for column in cx.boundaries[d]:
                rows = [r for r, _ in column]
                assert rows == sorted(set(rows)), (n, g, d, column)
                assert all(0 <= r < cx.rank(d - 1) for r in rows)
                assert all(isinstance(x, int) and x for _, x in column)


@pytest.mark.parametrize(
    "n, g", [(n, g) for n in range(1, 5) for g in range(1, 4)] + [(5, 2), (2, 4)]
)
def test_face_table_assembly_matches_the_per_face_reference(n, g):
    assert build_pair_complex(n, g) == oracles.build_pair_complex(n, g)


# sha256 of json.dumps(complex_to_json(build_pair_complex(n, g)),
# sort_keys=True), recorded when the boundaries were stored as dense rows
EXPORT_PINS = {
    (2, 2): "b7f7cc2bbbb05cc669d1522b3dcef0b13c4293c1fa02ea3c5f565f47dc0251f6",
    (3, 2): "453ff72eb40af0ce91eec98d0990396c4bba3335a7c7ed07b3ed9f126608332c",
    (3, 3): "cdea2eeb1c37d75324198cfdcbef591440dd071c300d31cce6376857b2d25062",
    (4, 2): "728334dc2fa767d0b2e6e2f5f35c29913a184e1de3123050dd8cd4f8f84398b5",
    (4, 3): "301f0ef09fd75ed57044303f9d610682449eff2cf53a7ef91e51843f8ce7c6d8",
    # recorded while the basis was still the sorted, Y-filtered list of
    # every nondegenerate simplex, before the walk that emits only the
    # relative cells replaced it
    (5, 2): "72ea411c11cb6b24f362c32ca2235d839e068e5518968ae90cb4bba7aa399e16",
    (2, 4): "f83edb95312f1c5a6af553b280d355fbb013624964c2b4ef54e36f474815df8e",
}


@pytest.mark.parametrize("n, g", sorted(EXPORT_PINS))
def test_complex_to_json_matches_pins(n, g):
    text = json.dumps(complex_to_json(build_pair_complex(n, g)), sort_keys=True)
    assert sha256(text.encode()).hexdigest() == EXPORT_PINS[n, g]


# ---------------------------------------------------------------------------
# Pushforward along wedge maps.
# ---------------------------------------------------------------------------


def test_push_simplex_relabel_and_collapse():
    relabel = push_simplex(A, {1: 2})
    assert relabel == ProductSimplex(2, ((2, 2), (2, 1)))
    collapsed = push_simplex(A, {1: None})
    assert collapsed.components == (None, None)
    assert not collapsed.is_nondegenerate()


# ---------------------------------------------------------------------------
# Serialization.
# ---------------------------------------------------------------------------


def test_simplex_str():
    assert simplex_str(A) == "((x,2),(x,1))"
    assert simplex_str(ProductSimplex(1, (None, (2, 1))), "xy") == "(*,(y,1))"


def test_complex_to_json_round_trips_boundary():
    cx = build_pair_complex(3, 1)
    data = complex_to_json(cx)
    assert data["n"] == 3 and data["g"] == 1
    by_d = {entry["d"]: entry for entry in data["dims"]}
    assert len(by_d[3]["basis"]) == 6
    dense = [[0] * cx.rank(3) for _ in range(cx.rank(2))]
    for r, c, v in by_d[3]["boundary"]:
        dense[r][c] = v
    assert dense == [list(r) for r in cx.boundary_matrix(3)]
    for entry in by_d[2]["basis"]:
        assert len(entry) == 3
        for comp in entry:
            assert comp is None or (
                isinstance(comp[0], str) and isinstance(comp[1], int)
            )
