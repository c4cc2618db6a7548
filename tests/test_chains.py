"""Tests for formal chains: boundary/subdivision operators, the cone
contraction, the constructed homotopies, and the cancellation identity."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from loophom.affine import (
    f_map,
    identity_map,
    subdivision_piece,
    vertex_E,
)
from loophom.chains import (
    FormalChain,
    boundary_chain,
    build_homotopy_L,
    chain_compose,
    chain_of,
    cone_homotopy,
    div_chain,
    identity_chain,
    zero_chain,
)
from loophom.permutations import enumerate_ens, invol, point_sign
from oracles import affine_map, augmentation, constant_map, vertices

F = Fraction


# ---------------------------------------------------------------------------
# Chain arithmetic.
# ---------------------------------------------------------------------------


def test_zero_coefficients_are_dropped():
    m = identity_map(1)
    assert FormalChain(1, 1, ((m, 1), (m, -1))).is_zero()
    assert chain_of(m, 0).is_zero()
    assert (chain_of(m) - chain_of(m)).is_zero()


def test_chain_arithmetic():
    a = chain_of(identity_map(2))
    b = div_chain(2, 2)
    assert a + b - a == b
    assert -(-b) == b
    assert a + a == chain_of(identity_map(2), 2)
    assert b - b == zero_chain(2, 2)


def test_shape_mismatch_raises():
    with pytest.raises(ValueError):
        chain_of(identity_map(1)) + chain_of(identity_map(2))
    with pytest.raises(ValueError):
        chain_compose(boundary_chain(3), boundary_chain(1))
    with pytest.raises(ValueError):
        FormalChain(1, 1, ((identity_map(2), 1),))


def test_compose_identity_neutral():
    d = div_chain(2, 3)
    assert chain_compose(identity_chain(2), d) == d
    assert chain_compose(d, identity_chain(2)) == d


# ---------------------------------------------------------------------------
# Boundary.
# ---------------------------------------------------------------------------


def test_boundary_1_is_constant_minus_constant():
    expected = chain_of(constant_map(1, (0,))) - chain_of(constant_map(1, (1,)))
    assert boundary_chain(1) == expected


def test_boundary_2_signs():
    b = boundary_chain(2)
    assert len(b) == 3
    assert sorted(b.terms.values()) == [-1, 1, 1]


def test_boundary_squares_to_zero():
    for n in range(1, 5):
        assert chain_compose(boundary_chain(n + 1), boundary_chain(n)).is_zero()


# ---------------------------------------------------------------------------
# Subdivision operator.
# ---------------------------------------------------------------------------


def test_div_arity_one_is_identity():
    for n in range(0, 5):
        assert div_chain(n, 1) == identity_chain(n)


def test_div_1_2_frozen():
    lower = affine_map(1, ((0,), (F(1, 2),)))
    upper = affine_map(1, ((F(1, 2),), (1,)))
    assert div_chain(1, 2) == chain_of(lower) + chain_of(upper)


def test_div_2_2_frozen_signs():
    d = div_chain(2, 2)
    assert len(d) == 4
    assert d.terms[subdivision_piece((0, 0), (1, 2), 2)] == 1
    assert d.terms[subdivision_piece((1, 1), (1, 2), 2)] == 1
    assert d.terms[subdivision_piece((0, 1), (2, 1), 2)] == -1
    assert d.terms[subdivision_piece((0, 1), (1, 2), 2)] == 1


def test_div_term_count_is_k_to_the_n():
    for n in range(0, 6):
        for k in range(1, 5):
            assert len(div_chain(n, k)) == k ** n


def test_subdivision_commutes_with_boundary():
    for n in range(1, 5):
        for k in range(1, 5):
            lhs = chain_compose(div_chain(n, k), boundary_chain(n))
            rhs = chain_compose(boundary_chain(n), div_chain(n - 1, k))
            assert lhs == rhs, (n, k)


def test_cancellation_of_paired_composites():
    # summing sign * composite over the index triples whose involution
    # partner is again an index triple gives the zero chain
    for n in (1, 2, 3):
        for k in (1, 2, 3):
            index_pairs = set(enumerate_ens(n, k))
            acc = zero_chain(n - 1, n)
            for v, sigma in index_pairs:
                for i in range(0, n + 1):
                    pv, psigma, _ = invol((v, sigma, i))
                    if (pv, psigma) in index_pairs:
                        m, sign = f_map((v, sigma, i), k)
                        acc = acc + chain_of(m, sign)
            assert acc.is_zero(), (n, k)


def test_point_sign_matches_f_map_sign():
    for v, sigma in enumerate_ens(2, 2):
        for i in range(3):
            _, sign = f_map((v, sigma, i), 2)
            assert sign == point_sign(sigma, i)


# ---------------------------------------------------------------------------
# Cone contraction.
# ---------------------------------------------------------------------------


def test_cone_frozen_example():
    x = chain_of(constant_map(1, (0,)))
    coned = cone_homotopy(x, apex_index=1)
    assert coned == chain_of(affine_map(1, ((0,), (1,))))
    boundary_of_cone = chain_compose(coned, boundary_chain(1))
    assert boundary_of_cone == x - chain_of(constant_map(1, (1,)))


def test_cone_of_zero_is_zero():
    assert cone_homotopy(zero_chain(2, 3)).is_zero()


def reference_cone(x: FormalChain, apex_index: int) -> dict:
    """cone_homotopy's terms, built from Fraction vertex lists."""
    apex = vertex_E(x.codomain_dim, apex_index)
    return {
        affine_map(x.codomain_dim, vertices(m) + (apex,)): c for m, c in x.terms.items()
    }


def random_chain(rng: random.Random, q: int, p: int) -> FormalChain:
    def coordinate():
        return F(rng.randint(-5, 5), rng.choice((1, 2, 3, 4, 6)))

    terms = [
        (affine_map(p, tuple(tuple(coordinate() for _ in range(p)) for _ in range(q + 1))),
         rng.randint(-3, 3))
        for _ in range(rng.randint(0, 5))
    ]
    return FormalChain(q, p, terms)


def test_cone_matches_reference_on_random_chains():
    rng = random.Random(1103)
    for _ in range(200):
        p, q = rng.randint(0, 4), rng.randint(0, 3)
        x = random_chain(rng, q, p)
        apex = rng.randint(0, p)
        assert cone_homotopy(x, apex).terms == reference_cone(x, apex)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 4), st.integers(0, 3), st.integers(0, 2**32 - 1), st.data())
def test_cone_matches_reference_property(p, q, seed, data):
    x = random_chain(random.Random(seed), q, p)
    apex = data.draw(st.integers(0, p))
    assert cone_homotopy(x, apex).terms == reference_cone(x, apex)


def test_cone_rejects_apex_out_of_range():
    with pytest.raises(ValueError, match="apex index 3"):
        cone_homotopy(zero_chain(1, 2), 3)


def e_vertex_maps(q: int, p: int):
    vs = [vertex_E(p, i) for i in range(p + 1)]
    for images in itertools.product(vs, repeat=q + 1):
        yield affine_map(p, images)


def test_cone_contraction_identity_exhaustive():
    for p in range(0, 4):
        for q in range(0, 4):
            for apex in range(0, p + 1):
                for m in e_vertex_maps(q, p):
                    x = chain_of(m)
                    lhs = chain_compose(cone_homotopy(x, apex), boundary_chain(q + 1))
                    if q == 0:
                        rhs = x - chain_of(constant_map(p, vertex_E(p, apex)), augmentation(x))
                    else:
                        rhs = x - cone_homotopy(chain_compose(x, boundary_chain(q)), apex)
                    assert lhs == rhs, (q, p, apex, m)


# ---------------------------------------------------------------------------
# The constructed homotopy.
# ---------------------------------------------------------------------------


def homotopy_defect(L: list[FormalChain], m: int, k: int) -> FormalChain:
    lhs = identity_chain(m) - div_chain(m, k)
    rhs = chain_compose(L[m], boundary_chain(m + 1))
    if m >= 1:
        rhs = rhs + chain_compose(boundary_chain(m), L[m - 1])
    return lhs - rhs


def test_homotopy_identity_holds():
    for k in (1, 2, 3):
        L = build_homotopy_L(k, 3)
        for m in range(0, 4):
            assert homotopy_defect(L, m, k).is_zero(), (k, m)


def test_homotopy_base_cases():
    L = build_homotopy_L(2, 1)
    assert L[0].is_zero()
    assert not L[1].is_zero()
    # arity 1 subdivision is the identity, so the defect being coned
    # vanishes at every level
    assert all(x.is_zero() for x in build_homotopy_L(1, 3))
