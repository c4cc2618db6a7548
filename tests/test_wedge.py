"""Tests for the product-of-circles simplicial model and its pair complex."""

from __future__ import annotations

import gc
import itertools
import json
import math
import tracemalloc
from hashlib import sha256

import pytest

import oracles
from loophom.wedge import (
    Cell,
    Simplex,
    build_pair_complex,
    cell_face,
    complex_to_json,
    enumerate_basis,
    face_tables,
    in_Y,
    is_nondegenerate,
    push_simplex,
    simplex_str,
)
from oracles import canonical_key, face

A = ((1, 2), (1, 1))
B = ((1, 1), (1, 2))


def all_product_simplices(n: int, g: int, d: int) -> list[Simplex]:
    cells: list[Cell] = [None]
    cells += [(e, j) for e in range(1, g + 1) for j in range(1, d + 1)]
    return list(itertools.product(cells, repeat=n))


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
    assert face(((1, 1), (1, 2)), 2, 1) == ((1, 1), (1, 1))


def test_simplicial_face_identities():
    for n in (1, 2, 3):
        for g in (1, 2):
            for d in (2, 3, 4):
                for s in all_product_simplices(n, g, d):
                    for j in range(1, d + 1):
                        for i in range(0, j):
                            assert face(face(s, d, j), d - 1, i) == face(
                                face(s, d, i), d - 1, j - 1
                            )


# ---------------------------------------------------------------------------
# Degeneracy and the collapsed subspace.
# ---------------------------------------------------------------------------


def test_nondegenerate_iff_jumps_cover():
    assert is_nondegenerate(((1, 2), (1, 1)), 2)
    assert not is_nondegenerate(((1, 2), (1, 2)), 2)
    assert not is_nondegenerate((None, (1, 1)), 2)
    assert is_nondegenerate((None, None), 0)
    # the dimension is the caller's, not the length: one tuple, two answers
    assert is_nondegenerate(((1, 1), (1, 1)), 1)
    assert not is_nondegenerate(((1, 1), (1, 1)), 2)


def test_in_Y_frozen_cases():
    assert in_Y((None, (1, 1)))
    assert in_Y(((1, 1), (1, 1)))
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
                        t = face(s, d, i)
                        assert in_Y(t) or not is_nondegenerate(t, d - 1), (s, i)


# ---------------------------------------------------------------------------
# Basis enumeration.
# ---------------------------------------------------------------------------


def test_top_dimension_count_before_filter():
    for n in (1, 2, 3, 4):
        for g in (1, 2):
            top = [s for s in all_product_simplices(n, g, n) if is_nondegenerate(s, n)]
            assert len(top) == g ** n * math.factorial(n)


def test_enumeration_matches_brute_force():
    grid = [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (3, 2), (4, 1), (4, 2)]
    for n, g in grid + [(2, 3), (3, 3), (2, 4)]:
        for d in range(0, n + 2):
            brute = [
                s
                for s in all_product_simplices(n, g, d)
                if is_nondegenerate(s, d) and not in_Y(s)
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
                prod = matmul(oracles.dense_boundary(cx, d - 1), oracles.dense_boundary(cx, d))
                assert all(all(v == 0 for v in row) for row in prod), (n, g, d)


def test_boundary_matrix_shapes():
    cx = build_pair_complex(3, 1)
    m = oracles.dense_boundary(cx, 3)
    assert len(m) == cx.rank(2)
    assert all(len(row) == cx.rank(3) for row in m)
    beyond = oracles.dense_boundary(cx, cx.d_max + 1)
    assert len(beyond) == cx.rank(cx.d_max)
    assert all(row == [] for row in beyond)


@pytest.mark.parametrize("n, g", [(2, 2), (3, 2), (4, 2), (3, 3), (4, 3)])
def test_boundary_matrix_is_the_dense_boundary_by_rows(n, g):
    """The row view holds each row's nonzeros of the dense boundary, in
    column order, at every dimension, the empty ones past d_max included."""
    cx = build_pair_complex(n, g)
    for d in range(cx.d_max + 2):
        dense = oracles.dense_boundary(cx, d)
        nonzeros = [[(c, x) for c, x in enumerate(row) if x] for row in dense]
        assert cx.boundary_matrix(d) == nonzeros, d


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


# Bytes that the (4,3) complex holds per cell (tracemalloc, after a
# collection), between the 290 B measured with each cell stored as its bare
# tuple of circle cells and the 379 B of a wrapper object around that tuple
# (Python 3.11).
BYTES_PER_CELL = 340


def test_pair_complex_memory_per_cell():
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        cx = build_pair_complex(4, 3)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    cells = sum(cx.rank(d) for d in range(cx.d_max + 1))
    assert cells == 5748
    assert held <= BYTES_PER_CELL * cells, held / cells


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
    assert push_simplex(A, {1: 2}) == ((2, 2), (2, 1))
    collapsed = push_simplex(A, {1: None})
    assert collapsed == (None, None)
    assert not is_nondegenerate(collapsed, 2)


# ---------------------------------------------------------------------------
# Serialization.
# ---------------------------------------------------------------------------


def test_simplex_str():
    assert simplex_str(A) == "((x,2),(x,1))"
    assert simplex_str((None, (2, 1)), "xy") == "(*,(y,1))"


def test_complex_to_json_round_trips_boundary():
    cx = build_pair_complex(3, 1)
    data = complex_to_json(cx)
    assert data["n"] == 3 and data["g"] == 1
    by_d = {entry["d"]: entry for entry in data["dims"]}
    assert len(by_d[3]["basis"]) == 6
    dense = [[0] * cx.rank(3) for _ in range(cx.rank(2))]
    for r, c, v in by_d[3]["boundary"]:
        dense[r][c] = v
    assert dense == oracles.dense_boundary(cx, 3)
    for entry in by_d[2]["basis"]:
        assert len(entry) == 3
        for comp in entry:
            assert comp is None or (
                isinstance(comp[0], str) and isinstance(comp[1], int)
            )
