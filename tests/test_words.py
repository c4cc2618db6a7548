"""Tests for free-group words, Magnus truncation, and positivization."""

from __future__ import annotations

import itertools
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from loophom.words import (
    combine,
    combo_magnus,
    expansion,
    is_positive,
    magnus,
    make_alphabet,
    monomial_index,
    parse_word,
    positive_words,
    positivize,
    word_str,
)
from oracles import (
    fn_basis_coords,
    monomial_basis,
    reduce_word,
    reference_magnus,
    tensor_mul,
    tensor_one,
)

words_strategy = st.lists(
    st.tuples(st.integers(1, 3), st.sampled_from([1, -1])),
    max_size=8,
).map(tuple)

positive_words_strategy = st.lists(
    st.tuples(st.integers(1, 2), st.just(1)), max_size=4
).map(tuple)


# ---------------------------------------------------------------------------
# Parsing and reduction.
# ---------------------------------------------------------------------------


def test_parse_and_render():
    assert parse_word("xXy", "xy") == ((1, 1), (1, -1), (2, 1))
    assert parse_word("") == ()
    assert word_str(((1, 1), (2, -1)), "xy") == "xY"
    assert word_str(parse_word("xYzX", "xyz"), "xyz") == "xYzX"


def test_render_rejects_exponents_other_than_units():
    with pytest.raises(ValueError, match="letter exponent must be \\+-1, got 2"):
        word_str(((1, 2),), "x")


@pytest.mark.parametrize("i", [0, -1, 3])
def test_render_rejects_generators_outside_the_alphabet(i):
    with pytest.raises(ValueError, match=f"generator {i} has no letter in an alphabet of 2"):
        word_str(((i, 1),), "xy")
    with pytest.raises(ValueError, match=f"generator {i} has no letter"):
        word_str(((1, 1), (i, -1)), "xy")


def test_parse_rejects_bad_input():
    with pytest.raises(ValueError):
        parse_word("x1")
    with pytest.raises(ValueError):
        parse_word("w", alphabet="xy")


def test_alphabet_inference():
    assert make_alphabet(["xx"], 1) == "x"
    assert make_alphabet(["y", "xY"], 2) == "xy"
    assert make_alphabet([], 2) == "xy"
    assert make_alphabet(["b", "a"], 3) == "abx"
    with pytest.raises(ValueError):
        make_alphabet(["xy"], 1)
    # one letter per generator: the pool names 26 of them
    assert len(make_alphabet([], 26)) == 26
    with pytest.raises(ValueError, match="rank 27"):
        make_alphabet([], 27)


def test_reduce_frozen():
    assert reduce_word(parse_word("xXy", "xy")) == parse_word("y", "xy")
    assert reduce_word(()) == ()
    assert reduce_word(parse_word("xyYx", "xy")) == parse_word("xx", "xy")


@given(words_strategy)
def test_reduce_idempotent(w):
    r = reduce_word(w)
    assert reduce_word(r) == r


@given(words_strategy)
def test_reduce_never_leaves_cancelling_pair(w):
    r = reduce_word(w)
    for a, b in zip(r, r[1:]):
        assert not (a[0] == b[0] and a[1] == -b[1])


def test_positive_words_frozen_order():
    x, y = parse_word("x", "xy"), parse_word("y", "xy")
    assert positive_words(2, (0, 1, 2)) == [(), x, y, x + x, x + y, y + x, y + y]
    assert positive_words(3, ()) == []
    assert positive_words(1, (3,)) == [x + x + x]


# ---------------------------------------------------------------------------
# Integer combinations.
# ---------------------------------------------------------------------------

# few keys and small coefficients, so sums collide and cancel often
combination_terms = st.lists(st.tuples(st.sampled_from("abcd"), st.integers(-2, 2)))


@given(combination_terms, st.randoms(use_true_random=False))
def test_combine_is_a_plain_sum_without_zeros(terms, rng):
    reference: dict[str, int] = {}
    for key, c in terms:
        reference[key] = reference.get(key, 0) + c
    out = combine(terms)
    assert out == {key: c for key, c in reference.items() if c}
    assert 0 not in out.values()
    shuffled = list(terms)
    rng.shuffle(shuffled)
    assert combine(iter(shuffled)) == out


# ---------------------------------------------------------------------------
# Magnus expansion.
# ---------------------------------------------------------------------------


def test_magnus_frozen_values():
    X = (1,)
    assert magnus((), 2) == {(): 1}
    assert magnus(parse_word("x"), 2, g=1) == {(): 1, X: 1}
    assert magnus(parse_word("X"), 2, g=1) == {(): 1, X: -1, X + X: 1}
    assert magnus(parse_word("xx"), 2, g=1) == {(): 1, X: 2, X + X: 1}


def test_magnus_rejects_exponents_other_than_units():
    # without a rank to check against, the letter itself is read: an
    # exponent of 2 or 0 is an error, not an inverse letter
    for e in (2, 0, -2):
        with pytest.raises(ValueError, match=f"letter exponent must be \\+-1, got {e}"):
            magnus(((1, 1), (1, e)), 2)


@pytest.mark.parametrize("i", [0, -1, -2])
def test_magnus_rejects_generators_below_one(i):
    # with no rank given the rank is the largest generator, so a generator
    # below 1 must be refused by name, not read as a monomial
    pattern = f"generator {i} out of range: generators are numbered from 1"
    for w in (((i, 1),), ((1, 1), (i, -1))):
        with pytest.raises(ValueError, match=pattern):
            magnus(w, 2)
        with pytest.raises(ValueError, match=pattern):
            combo_magnus({((1, 1),): 1, w: -1}, 2)
    with pytest.raises(ValueError, match=f"generator {i} out of range for rank 2"):
        magnus(((i, 1),), 2, g=2)


def test_magnus_degree_zero():
    assert magnus(parse_word("xXyy"), 0) == {(): 1}


@given(words_strategy, words_strategy, st.integers(0, 3))
def test_magnus_is_multiplicative(u, v, n):
    lhs = magnus(u + v, n)
    assert lhs == tensor_mul(magnus(u, n), magnus(v, n), n)


@given(words_strategy, st.integers(0, 3))
def test_magnus_blind_to_free_reduction(w, n):
    assert magnus(reduce_word(w), n) == magnus(w, n)


def test_magnus_inverse_inverts():
    for n in range(0, 4):
        w = parse_word("xY", "xy")
        winv = tuple((i, -e) for i, e in reversed(w))
        assert tensor_mul(magnus(w, n), magnus(winv, n), n) == tensor_one()


# ---------------------------------------------------------------------------
# The in-place expansion against the truncated product.
# ---------------------------------------------------------------------------


def random_word(rng: Random, g: int, length: int, inverse_share: float) -> tuple:
    return tuple(
        (rng.randint(1, g), -1 if rng.random() < inverse_share else 1) for _ in range(length)
    )


def test_monomial_index_order_and_steps():
    for n in range(0, 5):
        for g in (1, 2, 3):
            monomials, steps = monomial_index(n, g)
            assert list(monomials) == monomial_basis(n, g)
            assert len(steps) == g
            for i, pairs in enumerate(steps, start=1):
                assert [monomials[m] + (i,) for m, _ in pairs] == [
                    monomials[mx] for _, mx in pairs
                ]
                assert [monomials[m] for m, _ in pairs] == [m for m in monomials if len(m) < n]


def test_expansion_matches_the_product_on_seeded_words():
    rng = Random(20261019)
    for n in range(0, 6):
        for g in (1, 2, 3):
            for _ in range(12):
                w = random_word(rng, g, rng.randint(0, 10), rng.choice((0.0, 0.5, 1.0)))
                want = reference_magnus({w: 1}, n)
                assert magnus(w, n, g) == want
                assert magnus(w, n) == want  # the rank the word needs
                coords = expansion({w: 1}, n, g)
                assert coords == [want.get(m, 0) for m in monomial_basis(n, g)]


def test_expansion_of_empty_words_and_combinations():
    for n in range(0, 4):
        for g in (None, 1, 3):
            assert magnus((), n, g) == {(): 1}
            assert combo_magnus({}, n, g) == {}
            assert combo_magnus({(): 3, ((1, 1), (1, -1)): -3}, n, g) == {}
    assert expansion({}, 2, 2) == [0] * 7
    assert expansion({(): -2}, 2, 2) == [-2] + [0] * 6


combos_strategy = st.dictionaries(words_strategy, st.integers(-3, 3), max_size=4)


@st.composite
def ranked_combos(draw):
    """(combination, rank) with every generator within the rank; rank None
    leaves it to the largest generator used."""
    g = draw(st.sampled_from([None, 1, 2, 3]))
    letters = st.tuples(st.integers(1, g or 3), st.sampled_from([1, -1]))
    words = st.lists(letters, max_size=8).map(tuple)
    return draw(st.dictionaries(words, st.integers(-3, 3), max_size=4)), g


@settings(deadline=None)
@given(ranked_combos(), st.integers(0, 5))
def test_combo_expansion_matches_the_product(case, n):
    combo, g = case
    assert combo_magnus(combo, n, g) == reference_magnus(combo, n)


@settings(deadline=None)
@given(combos_strategy, st.integers(0, 4))
def test_combo_expansion_cancels_free_reductions(combo, n):
    # each word against its free reduction: the combination expands to 0
    cancelling = combine(
        itertools.chain(combo.items(), ((reduce_word(w), -c) for w, c in combo.items()))
    )
    assert combo_magnus(cancelling, n) == {}
    assert expansion(cancelling, n, 3) == [0] * len(monomial_index(n, 3).monomials)


def test_expansion_rejects_bad_exponents_and_ranks():
    for e in (2, 0, -2):
        bad = ((1, 1), (2, e))
        for g in (None, 2):
            with pytest.raises(ValueError, match=f"letter exponent must be \\+-1, got {e}"):
                combo_magnus({((1, -1),): 1, bad: 1}, 3, g)
        with pytest.raises(ValueError, match=f"letter exponent must be \\+-1, got {e}"):
            expansion({bad: 0}, 3, 2)  # a zero coefficient is still read
    with pytest.raises(ValueError, match="generator 3 out of range for rank 2"):
        expansion({((3, 1),): 1}, 2, 2)
    with pytest.raises(ValueError, match="truncation degree must be >= 0"):
        expansion({(): 1}, -1, 2)


# ---------------------------------------------------------------------------
# Positivization.
# ---------------------------------------------------------------------------


def test_positivize_frozen():
    x = parse_word("x")
    assert positivize(parse_word("X"), 1) == {(): 2, x: -1}
    assert positivize(parse_word("X"), 2) == {(): 3, x: -3, x + x: 1}
    w = parse_word("xxy", "xy")
    assert positivize(w, 3) == {w: 1}


def test_positivize_rejects_exponents_other_than_units():
    for w in (((1, 2),), ((1, -1), (2, 0))):
        with pytest.raises(ValueError, match="letter exponent must be \\+-1"):
            positivize(w, 2)


@settings(deadline=None)
@given(words_strategy, st.integers(0, 3))
def test_positivize_postcondition(w, n):
    combo = positivize(w, n)
    assert all(is_positive(u) for u in combo)
    assert combo_magnus(combo, n) == magnus(w, n)


# ---------------------------------------------------------------------------
# Basis coordinates.
# ---------------------------------------------------------------------------


def test_monomial_basis_order_and_count():
    assert monomial_basis(2, 1) == [(), (1,), (1, 1)]
    assert monomial_basis(1, 2) == [(), (1,), (2,)]
    for n in range(0, 4):
        for g in (1, 2, 3):
            basis = monomial_basis(n, g)
            assert len(basis) == sum(g ** d for d in range(n + 1))
            assert basis == sorted(basis, key=lambda m: (len(m), m))


def test_fn_coords_frozen():
    empty = ()
    x = parse_word("x")
    assert fn_basis_coords(empty, 2, 1) == (1, 0, 0)
    assert fn_basis_coords({x: 1, empty: -1}, 2, 1) == (0, 1, 0)


def test_fn_coords_kill_degree_three_multiples():
    # x*(x-1)^3 expands to a combination whose degree-2 coordinates vanish
    x = parse_word("x")
    combo = {
        x * 4: 1,
        x * 3: -3,
        x * 2: 3,
        x: -1,
    }
    assert fn_basis_coords(combo, 2, 1) == (0, 0, 0)


@given(
    st.lists(positive_words_strategy, min_size=4, max_size=4),
    positive_words_strategy,
    st.integers(1, 3),
)
def test_subset_alternating_sum_vanishes(alpha_pool, w, n):
    # sum over subsets I of [0, n] of (-1)^{|I|} w * prod_{i in I} alpha_i
    # equals w * prod_i (1 - alpha_i), a right multiple of n+1 augmentation
    # factors, so its degree-n coordinates vanish
    alphas = alpha_pool[: n + 1]
    combo: dict = {}
    for bits in itertools.product((0, 1), repeat=n + 1):
        word = w + sum((a for a, b in zip(alphas, bits) if b), ())
        c = (-1) ** sum(bits)
        combo[word] = combo.get(word, 0) + c
    assert all(c == 0 for c in fn_basis_coords(combo, n, 2))
