"""Tests for the integer affine simplex maps, against exact-rational
references.

The two commuting-diagram properties (involution invariance of the
face-of-piece composites, and the boundary bijection matching composites the
other way round) are checked here at module scale; the acceptance suite
reruns them at the full stated bounds.
"""

from __future__ import annotations

import copy
import itertools
import pickle
import random
import re
from decimal import Decimal
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from loophom.affine import (
    AffineSimplexMap,
    compose,
    f_map,
    face_map,
    ftilde_map,
    identity_map,
    subdivision_piece,
    vertex_E,
)
from loophom.permutations import bij, enumerate_ens, invol
from oracles import (
    affine_map,
    apply,
    compose_pointwise,
    constant_map,
    in_simplex,
    is_simplex_valued,
    piece_pointwise,
    pointwise_face,
    vertices,
)

F = Fraction


def all_perms(n):
    return list(itertools.permutations(range(1, n + 1)))


def simplex_points(q: int, denom: int = 3):
    """A small grid of exact points of the order simplex D^q."""
    vals = [F(a, denom) for a in range(denom + 1)]
    for xs in itertools.combinations_with_replacement(vals, q):
        yield xs


# ---------------------------------------------------------------------------
# Vertices and the map representation.
# ---------------------------------------------------------------------------


def test_vertex_E_frozen():
    assert vertex_E(3, 0) == (0, 0, 0)
    assert vertex_E(3, 1) == (0, 0, 1)
    assert vertex_E(3, 3) == (1, 1, 1)
    assert vertex_E(0, 0) == ()


def test_vertices_are_exact_and_in_simplex():
    for n in range(0, 5):
        for i in range(0, n + 1):
            v = vertex_E(n, i)
            assert all(isinstance(c, Fraction) for c in v)
            assert in_simplex(v)


def test_map_equality_is_vertex_list_equality():
    a = affine_map(1, ((0,), (1,)))
    b = affine_map(1, ((F(0),), (F(2, 2),)))
    assert a == b
    assert hash(a) == hash(b)
    assert a != affine_map(1, ((0,), (F(1, 2),)))


@pytest.mark.parametrize("bad", [0.5, 1.0, "a", 1j, Decimal("0.5")])
def test_inexact_coordinates_are_rejected(bad):
    with pytest.raises(ValueError, match=re.escape(repr(bad))):
        affine_map(1, ((bad,), (1,)))


def test_canonical_form_divides_out_common_factors():
    a = affine_map(1, ((0,), (1,)))
    b = affine_map(1, ((F(0),), (F(2, 2),)))
    assert (a.den, a.nums) == (b.den, b.nums) == (1, ((0,), (1,)))
    c = AffineSimplexMap(2, 6, ((0, 2), (4, 6)))
    d = affine_map(2, ((0, F(1, 3)), (F(2, 3), 1)))
    assert (c.den, c.nums) == (d.den, d.nums) == (3, ((0, 1), (2, 3)))
    assert c == d and hash(c) == hash(d)
    assert AffineSimplexMap(0, 4, ((),)) == identity_map(0)
    with pytest.raises(ValueError, match="at least one vertex image"):
        f_map(((), (), 0), 2)


def test_maps_are_immutable():
    m = identity_map(1)
    with pytest.raises(AttributeError):
        m.den = 2


def test_maps_have_no_vertex_constructor():
    # a map is built from a denominator and integer rows, never from
    # Fraction vertex images, and never without its fields
    with pytest.raises(TypeError):
        AffineSimplexMap(1, ((0,), (F(1, 2),)))
    with pytest.raises(TypeError):
        AffineSimplexMap()


@pytest.mark.parametrize("den", [0, -1])
def test_constructor_rejects_denominators_below_one(den):
    with pytest.raises(ValueError, match=f"denominator must be >= 1, got {den}"):
        AffineSimplexMap(1, den, ((0,), (1,)))


def test_copies_and_pickles_are_equal_maps():
    m = subdivision_piece((0, 1), (2, 1), 3)
    for twin in (copy.copy(m), copy.deepcopy(m), pickle.loads(pickle.dumps(m))):
        assert twin == m and hash(twin) == hash(m)


def test_apply_sends_defining_vertices_to_their_images():
    m = affine_map(2, ((0, 0), (F(1, 3), F(1, 2)), (1, 1)))
    for i in range(3):
        assert apply(m, vertex_E(2, i)) == vertices(m)[i]


def test_apply_rejects_wrong_arity():
    with pytest.raises(ValueError):
        apply(identity_map(2), (F(1, 2),))


# ---------------------------------------------------------------------------
# Faces.
# ---------------------------------------------------------------------------


def test_face_map_frozen_examples():
    assert vertices(face_map(1, 0)) == ((F(0),),)
    assert vertices(face_map(1, 1)) == ((F(1),),)
    assert apply(face_map(2, 1), (F(1, 3),)) == (F(1, 3), F(1, 3))


def test_face_map_matches_pointwise_formula():
    for n in range(1, 5):
        for i in range(0, n + 1):
            fm = face_map(n, i)
            for x in simplex_points(n - 1):
                assert apply(fm, x) == pointwise_face(n, i, x)


def test_simplicial_face_identity():
    # for j <= i: d_i^{n} o d_j^{n-1} == d_j^{n} o d_{i-1}^{n-1} in this
    # indexing convention (checked mechanically over all pairs)
    for n in range(2, 5):
        for i in range(0, n + 1):
            for j in range(0, n):
                lhs = compose(face_map(n, i), face_map(n - 1, j))
                rhs = compose(face_map(n, j + 1), face_map(n - 1, i)) if j >= i else None
                if j >= i:
                    assert lhs == rhs


# ---------------------------------------------------------------------------
# Composition.
# ---------------------------------------------------------------------------


def test_compose_identity_neutral():
    m = subdivision_piece((0, 1), (2, 1), 2)
    assert compose(identity_map(2), m) == m
    assert compose(m, identity_map(2)) == m


def test_compose_associative_on_samples():
    a = face_map(3, 1)
    b = subdivision_piece((0, 1), (2, 1), 2)
    c = face_map(2, 2)
    assert compose(compose(a, b), c) == compose(a, compose(b, c))


def test_compose_agrees_with_pointwise_composition():
    g = subdivision_piece((1, 0, 2), (2, 1, 3), 3)
    f = face_map(3, 2)
    gf = compose(g, f)
    for x in simplex_points(2):
        assert apply(gf, x) == apply(g, apply(f, x))


def test_compose_dimension_mismatch():
    with pytest.raises(ValueError):
        compose(face_map(2, 0), face_map(3, 0))


def test_compose_constant_frozen_example():
    got = compose(subdivision_piece((1,), (1,), 2), face_map(1, 0))
    assert got == constant_map(1, (F(1, 2),))


# ---------------------------------------------------------------------------
# Subdivision pieces.
# ---------------------------------------------------------------------------


def test_subdivision_piece_frozen_examples():
    assert subdivision_piece((0,), (1,), 1) == identity_map(1)
    assert subdivision_piece((0, 0), (1, 2), 1) == identity_map(2)

    half = subdivision_piece((1,), (1,), 2)
    assert apply(half, (F(1, 3),)) == (F(2, 3),)
    assert vertices(half) == ((F(1, 2),), (F(1),))

    m = subdivision_piece((0, 1), (2, 1), 2)
    assert vertices(m) == ((0, F(1, 2)), (F(1, 2), F(1, 2)), (F(1, 2), 1))


def test_subdivision_pieces_stay_in_simplex_on_index_pairs():
    for n in range(0, 5):
        for k in range(1, 5):
            for v, sigma in enumerate_ens(n, k):
                assert is_simplex_valued(subdivision_piece(v, sigma, k))


def test_subdivision_pieces_tile_volume():
    # the k^n pieces are disjoint up to boundary; sample interior points of
    # each piece at k=2 and check they are pairwise distinct
    n, k = 2, 2
    barycenter = (F(1, 3), F(2, 3))
    images = [apply(subdivision_piece(v, s, k), barycenter) for v, s in enumerate_ens(n, k)]
    assert len(set(images)) == k ** n


@given(st.integers(min_value=1, max_value=3), st.integers(min_value=1, max_value=4))
def test_subdivision_piece_pointwise_formula(n, k):
    # x |-> (v + sigma* x) / k, spot-checked against apply()
    for v, sigma in enumerate_ens(n, k):
        piece = subdivision_piece(v, sigma, k)
        for x in itertools.islice(simplex_points(n, 2), 4):
            moved = tuple(x[sigma[p] - 1] for p in range(n))
            expected = tuple(F(v[p] + moved[p], k) for p in range(n))
            assert apply(piece, x) == expected


# ---------------------------------------------------------------------------
# f and f-tilde composites.
# ---------------------------------------------------------------------------


def test_f_map_frozen_examples():
    m, sign = f_map(((0, 0), (1, 2), 0), 1)
    assert (m, sign) == (face_map(2, 0), 1)

    m, sign = f_map(((0, 0), (1, 2), 1), 2)
    assert vertices(m) == ((0, 0), (F(1, 2), F(1, 2)))
    assert sign == -1


def test_f_map_shortcut_matches_generic_composition():
    for n in range(1, 4):
        for k in (1, 2, 3):
            for v, sigma in enumerate_ens(n, k):
                for i in range(0, n + 1):
                    m, _ = f_map((v, sigma, i), k)
                    assert m == compose(subdivision_piece(v, sigma, k), face_map(n, i))


def test_f_map_is_invol_invariant_with_opposite_sign():
    for n in (1, 2, 3):
        for k in (1, 2, 3):
            for v in itertools.product(range(-1, k + 1), repeat=n):
                for sigma in all_perms(n):
                    for i in range(0, n + 1):
                        x = (v, sigma, i)
                        mx, sx = f_map(x, k)
                        my, sy = f_map(invol(x), k)
                        assert mx == my
                        assert sx == -sy


def test_ftilde_matches_f_map_through_bij():
    for n in range(1, 4):
        for k in (1, 2, 3):
            for w, tau in enumerate_ens(n - 1, k):
                for i in range(0, n + 1):
                    mt, st_ = ftilde_map(w, tau, i, k)
                    mf, sf = f_map(bij(w, tau, i, k), k)
                    assert mt == mf
                    assert st_ == sf


def test_ftilde_frozen_examples():
    m, sign = ftilde_map((0, 0), (1, 2), 0, 1)
    assert (m, sign) == (face_map(3, 0), 1)
    _, sign = ftilde_map((0,), (1,), 2, 2)
    assert sign == 1


# ---------------------------------------------------------------------------
# Integer storage against the Fraction reference in the oracles.
# ---------------------------------------------------------------------------

DENOMINATORS = (1, 2, 3, 4, 5, 6, 12)


def random_vertices(rng: random.Random, q: int, p: int):
    """q + 1 vertex images in R^p over mixed denominators."""
    return tuple(
        tuple(F(rng.randint(-7, 7), rng.choice(DENOMINATORS)) for _ in range(p))
        for _ in range(q + 1)
    )


def is_canonical(m: AffineSimplexMap) -> bool:
    entries = [x for row in m.nums for x in row]
    return (
        m.den > 0
        and gcd(m.den, *entries) == 1
        and all(type(x) is int for x in entries)
        and all(len(row) == m.codomain_dim for row in m.nums)
    )


def reference_face(n: int, i: int) -> AffineSimplexMap:
    return affine_map(n, tuple(vertex_E(n, j) for j in range(n + 1) if j != n - i))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_constructor_is_canonical_property(data):
    q, p = data.draw(st.tuples(st.integers(0, 4), st.integers(0, 4)))
    den = data.draw(st.integers(1, 60))
    nums = data.draw(st.tuples(*[st.tuples(*[st.integers(-60, 60)] * p)] * (q + 1)))
    k = data.draw(st.integers(1, 12))
    m = AffineSimplexMap(p, den, nums)
    scaled = AffineSimplexMap(p, k * den, tuple(tuple(k * x for x in row) for row in nums))
    assert scaled == m and hash(scaled) == hash(m)
    assert is_canonical(m)
    assert m == affine_map(p, tuple(tuple(F(x, den) for x in row) for row in nums))


def test_vertices_round_trip_on_random_maps():
    rng = random.Random(1101)
    for _ in range(300):
        verts = random_vertices(rng, rng.randint(0, 4), rng.randint(0, 4))
        m = affine_map(len(verts[0]), verts)
        assert vertices(m) == verts
        assert is_canonical(m)


def test_compose_matches_pointwise_reference_on_random_maps():
    rng = random.Random(1102)
    for _ in range(400):
        r, q, p = (rng.randint(0, 4) for _ in range(3))
        g = affine_map(p, random_vertices(rng, q, p))
        f = affine_map(q, random_vertices(rng, r, q))
        gf = compose(g, f)
        expected = compose_pointwise(g, f)
        assert gf == expected and hash(gf) == hash(expected)
        assert vertices(gf) == vertices(expected)
        assert is_canonical(gf)


coordinates = st.builds(F, st.integers(-7, 7), st.sampled_from(DENOMINATORS))


def vertex_lists(q: int, p: int):
    return st.tuples(*[st.tuples(*[coordinates] * p)] * (q + 1))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_compose_matches_pointwise_reference_property(data):
    r, q, p = data.draw(st.tuples(*[st.integers(0, 4)] * 3))
    g = affine_map(p, data.draw(vertex_lists(q, p)))
    f = affine_map(q, data.draw(vertex_lists(r, q)))
    gf = compose(g, f)
    assert gf == compose_pointwise(g, f)
    assert is_canonical(gf)
    x = data.draw(st.tuples(*[coordinates] * r))
    assert apply(gf, x) == apply(g, apply(f, x))


def test_pieces_and_composites_match_pointwise_reference():
    # every index pair, plus up to n = 2 the out-of-range vectors the
    # involution suite walks through
    for n in range(0, 4):
        for k in range(1, 4):
            pairs = (
                itertools.product(itertools.product(range(-1, k + 1), repeat=n), all_perms(n))
                if n <= 2
                else enumerate_ens(n, k)
            )
            for v, sigma in pairs:
                piece = subdivision_piece(v, sigma, k)
                expected = piece_pointwise(v, sigma, k)
                assert piece == expected and vertices(piece) == vertices(expected)
                assert is_canonical(piece)
                for i in range(n + 1 if n else 0):
                    m, _ = f_map((v, sigma, i), k)
                    assert m == compose_pointwise(expected, reference_face(n, i))
                    assert is_canonical(m)
                for i in range(n + 2):
                    m, _ = ftilde_map(v, sigma, i, k)
                    assert m == compose_pointwise(reference_face(n + 1, i), expected)
                    assert is_canonical(m)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4), st.integers(1, 5), st.data())
def test_f_map_matches_pointwise_reference_property(n, k, data):
    v = data.draw(st.tuples(*[st.integers(-2, k + 1)] * n))
    sigma = data.draw(st.permutations(range(1, n + 1)).map(tuple))
    i = data.draw(st.integers(0, n))
    m, _ = f_map((v, sigma, i), k)
    assert m == compose_pointwise(piece_pointwise(v, sigma, k), reference_face(n, i))
    assert is_canonical(m)
