"""Pins and properties for the word-to-homology evaluation."""

import inspect
import itertools
from fractions import Fraction
from math import comb, lcm
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from loophom import transform
from loophom.homology import homology, smith_normal_form
from loophom.permutations import epsilon, level_sizes
from loophom.transform import (
    _symbolic_terms,
    BASEPOINT,
    _columns,
    _path_table,
    _row,
    naturality_check,
    nu_eval,
    nu_vector,
    path_eval,
    push_chain_vector,
    push_word,
    random_simplex_points,
    sampling_oracle,
    shuffle_expand,
    subdivision_vector,
    symbolic_cancellation,
    term_matches_path,
    term_to_simplex,
    vanishing_sum_check,
)
from loophom.wedge import Simplex, build_pair_complex, in_Y
from loophom.words import magnus, monomial_index, parse_word, positivize
import oracles
from oracles import context, is_nondegenerate, nu_basis_matrix, on_common_denominator

X = ((1, 1),)
A = ((1, 2), (1, 1))
B = ((1, 1), (1, 2))


def positive_words(g, max_len):
    for length in range(1, max_len + 1):
        for letters in itertools.product(range(1, g + 1), repeat=length):
            yield tuple((i, 1) for i in letters)


# ---------------------------------------------------------------------------
# Decomposition terms.
# ---------------------------------------------------------------------------


def test_shuffle_expand_counts():
    for length in (1, 2, 3):
        w = tuple((1 + i % 2, 1) for i in range(length))
        for n in (1, 2, 3, 4):
            terms = shuffle_expand(w, n)
            assert len(terms) == length**n
            assert len(set(terms)) == len(terms)
            for v, sigma in terms:
                assert sum(level_sizes(v, length)) == n
                assert epsilon(sigma) in (1, -1)


def test_shuffle_expand_frozen():
    terms = {
        (level_sizes(v, 2), sigma, epsilon(sigma)) for v, sigma in shuffle_expand(X + X, 2)
    }
    assert terms == {
        ((2, 0), (1, 2), 1),
        ((1, 1), (1, 2), 1),
        ((1, 1), (2, 1), -1),
        ((0, 2), (1, 2), 1),
    }


def test_shuffle_expand_errors():
    with pytest.raises(ValueError):
        shuffle_expand((), 2)
    with pytest.raises(ValueError):
        shuffle_expand(((1, -1),), 2)
    with pytest.raises(ValueError):
        shuffle_expand(X, 0)


def test_term_to_simplex_frozen():
    assert term_to_simplex(X, (0, 0), (1, 2)) == A
    xy = parse_word("xy")
    assert term_to_simplex(xy, (0, 1), (1, 2)) == ((1, 2), (2, 1))
    assert term_to_simplex(xy, (0, 1), (2, 1)) == ((1, 1), (2, 2))
    assert term_to_simplex(X, (0, 0, 0), (1, 2, 3)) == ((1, 3), (1, 2), (1, 1))
    with pytest.raises(ValueError):
        term_to_simplex(X, (0,), (1, 2))


def test_terms_land_in_the_canonical_basis():
    for g in (1, 2):
        for w in positive_words(g, 3):
            for n in (1, 2, 3):
                for v, sigma in shuffle_expand(w, n):
                    s = term_to_simplex(w, v, sigma)
                    assert is_nondegenerate(s, n)
                    assert not in_Y(s)


# ---------------------------------------------------------------------------
# Chain vectors and homology values.
# ---------------------------------------------------------------------------


def test_nu_vector_frozen():
    cx = build_pair_complex(2, 1)
    assert list(cx.basis(2)) == [A, B]
    assert nu_vector((), cx) == [0, 0]
    assert nu_vector(X, cx) == [1, 0]
    assert nu_vector(X * 2, cx) == [3, -1]
    assert nu_vector(X * 3, cx) == [6, -3]


def test_nu_vector_rewrites_inverse_letters():
    cx = build_pair_complex(1, 1)
    assert nu_vector(X, cx) == [1]
    assert nu_vector(((1, -1),), cx) == [-1]
    # a trivial loop written with a cancelling pair evaluates like the
    # empty word
    assert nu_vector(parse_word("xX"), cx) == [0]
    # an exponent other than +-1 is an error, not an inverse letter; so is
    # a generator beyond the rank
    cx = build_pair_complex(2, 2)
    with pytest.raises(ValueError, match="exponent"):
        nu_vector(((1, 2),), cx)
    with pytest.raises(ValueError, match="exponent"):
        nu_vector({((1, 1), (2, 2)): 1}, cx)
    with pytest.raises(ValueError, match="out of range"):
        nu_vector(((3, 1),), cx)


@pytest.mark.parametrize("n,g", [(1, 1), (2, 2), (3, 2), (3, 3), (4, 2)])
def test_columns_are_the_rows_of_the_matrix(n, g):
    # M_{n,g} by columns is the matrix whose row for basis cell s is
    # _row(s); applied to a word it is the row-by-row sum over the word's
    # Magnus coordinates
    cx = build_pair_complex(n, g)
    monomials = monomial_index(n, g).monomials
    rows = [dict(_row(s)) for s in cx.basis(n)]
    by_rows = [[row.get(m, 0) for m in monomials] for row in rows]
    by_columns = [[0] * len(monomials) for _ in rows]
    for p, column in enumerate(_columns(n, g)):
        for r, x in column:
            assert x and by_columns[r][p] == 0
            by_columns[r][p] = x
    assert by_columns == by_rows
    rng = Random(31 * n + g)
    for _ in range(10):
        w = tuple((rng.randint(1, g), rng.choice((1, -1))) for _ in range(rng.randint(0, 9)))
        expansion = magnus(w, n, g)
        want = [sum(c * expansion.get(m, 0) for m, c in row.items()) for row in rows]
        assert nu_vector(w, cx) == want


def test_subdivision_vector_rejects_exponents_other_than_units():
    cx = build_pair_complex(2, 2)
    with pytest.raises(ValueError, match="letter exponent must be \\+-1, got 2"):
        subdivision_vector(((1, 2),), cx)
    with pytest.raises(ValueError, match="letter exponent must be \\+-1, got 0"):
        subdivision_vector({((2, 1),): 1, ((1, 1), (2, 0)): -1}, cx)


def test_nu_chains_are_cycles():
    for g in (1, 2):
        for n in (1, 2, 3):
            cx = build_pair_complex(n, g)
            summary = homology(cx, n)
            for w in positive_words(g, 3):
                assert summary.is_cycle(nu_vector(w, cx))


def test_nu_eval_pins():
    assert nu_eval((), 2, 1) == (0, 0)
    assert nu_eval(X, 2, 1) == (1, 0)
    assert nu_eval(X * 2, 2, 1) == (3, -1)
    assert nu_eval(X * 3, 2, 1) == (6, -3)
    for m in range(4):
        assert nu_eval(X * m, 1, 1) == (m,)


def test_values_follow_expansion_coordinates():
    # the value of x^m is the basis matrix applied to the binomial
    # coordinates (1, C(m,1), ..., C(m,n)) -- equivalently, the evaluation
    # kills every difference of degree above n
    for n in (1, 2, 3):
        mat = nu_basis_matrix(n)
        for m in range(n + 3):
            coords = [comb(m, d) for d in range(n + 1)]
            expected = tuple(
                sum(row[c] * coords[c] for c in range(n + 1)) for row in mat
            )
            assert nu_eval(X * m, n, 1) == expected


def test_nu_basis_matrix_frozen_and_rank():
    assert nu_basis_matrix(1) == [[0, 1]]
    assert nu_basis_matrix(2) == [[0, 1, 1], [0, 0, -1]]
    for n in (1, 2, 3):
        mat = nu_basis_matrix(n)
        assert len(mat) == n
        assert all(row[0] == 0 for row in mat)
        _, d, _ = smith_normal_form([row[1:] for row in mat])
        rank = sum(1 for i in range(min(n, n)) if d[i][i])
        assert rank == n


def test_kernel_of_the_quotient_vanishes():
    # w * (alpha - 1)^{n+1} evaluates to zero: the n+1-fold difference
    # exhausts the truncation degree
    cases = [
        (1, 1, (), X),
        (1, 1, X, X),
        (2, 1, (), X),
        (2, 1, X, X),
        (2, 2, parse_word("y"), X),
        (2, 2, X, parse_word("y")),
    ]
    for n, g, w, alpha in cases:
        combo = {}
        for j in range(n + 2):
            word = tuple(w) + tuple(alpha) * j
            c = (-1) ** (n + 1 - j) * comb(n + 1, j)
            combo[word] = combo.get(word, 0) + c
        coords = nu_eval(combo, n, g)
        assert not any(coords)


# ---------------------------------------------------------------------------
# The Magnus-matrix evaluation against the geometric subdivision.
# ---------------------------------------------------------------------------

DIFFERENTIAL_GRID = [
    (1, 1), (1, 2), (2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3), (4, 1), (4, 2)
]

# subdivision_vector rewrites a word with k inverse letters into (n+1)^k
# positive words and expands each into length^n terms; words over this many
# terms are left out to keep the suite fast.  The seeded draws that remain
# carry up to 3 inverse letters at n <= 2, 2 or 3 at n = 3 and 1 at n = 4.
SHUFFLE_BUDGET = 5_000


def shuffle_terms(combo, n):
    return sum(len(u) ** n for w in combo for u in positivize(w, n) if u)


def random_word(rng, length, inverses, g):
    exps = [1] * length
    for p in rng.sample(range(length), inverses):
        exps[p] = -1
    return tuple((rng.randint(1, g), e) for e in exps)


def assert_paths_agree(elt, cx):
    vec = nu_vector(elt, cx)
    assert vec == subdivision_vector(elt, cx), elt
    return vec


@pytest.mark.parametrize("n,g", DIFFERENTIAL_GRID)
def test_nu_vector_matches_subdivision_seeded(n, g):
    cx = context(n, g)
    rng = Random(1000 * n + g)
    checked = 0
    for length in range(8):
        for inverses in range(min(3, length) + 1):
            w = random_word(rng, length, inverses, g)
            if shuffle_terms([w], n) <= SHUFFLE_BUDGET:
                assert_paths_agree(w, cx)
                checked += 1
    assert checked >= 12


@pytest.mark.parametrize("n,g", DIFFERENTIAL_GRID)
def test_nu_vector_matches_subdivision_on_combinations(n, g):
    cx = context(n, g)
    rng = Random(2000 * n + g)
    zero = [0] * cx.rank(n)
    assert assert_paths_agree((), cx) == zero
    assert assert_paths_agree({}, cx) == zero
    checked = 0
    while checked < 4:
        lu, lv = rng.randint(0, 3), rng.randint(1, 3)
        u = random_word(rng, lu, rng.randint(0, min(1, lu)), g)
        v = random_word(rng, lv, rng.randint(0, 1), g)
        # inserting x x^-1 leaves the group element, hence the value, alike
        cut, c = rng.randint(0, len(u)), rng.randint(1, g)
        padded = u[:cut] + ((c, 1), (c, -1)) + u[cut:]
        a, b = rng.randint(-3, 3), rng.randint(-3, 3)
        combo = {}
        for w, coeff in ((u, a - 7), (padded, 7), (v, b), (u + v, 0)):
            combo[w] = combo.get(w, 0) + coeff
        if shuffle_terms(combo, n) > SHUFFLE_BUDGET:
            continue
        expected = [a * x + b * y for x, y in zip(nu_vector(u, cx), nu_vector(v, cx))]
        assert assert_paths_agree(combo, cx) == expected
        assert assert_paths_agree({u: 5, padded: -5}, cx) == zero
        checked += 1
    # gamma * (1 - alpha)^(n+1) vanishes chain-wise: no degree <= n terms
    gamma, alpha = random_word(rng, 2, 0, g), ((g, 1),)
    kernel = {}
    for j in range(n + 2):
        word = gamma + alpha * j
        kernel[word] = kernel.get(word, 0) + (-1) ** j * comb(n + 1, j)
    assert assert_paths_agree(kernel, cx) == zero


@st.composite
def graded_words(draw):
    n, g = draw(st.sampled_from(DIFFERENTIAL_GRID))
    length = draw(st.integers(0, 7))
    inverses = draw(st.integers(0, min(3, length)))
    letters = draw(st.lists(st.integers(1, g), min_size=length, max_size=length))
    inverted = set(draw(st.permutations(range(length)))[:inverses])
    w = tuple((i, -1 if p in inverted else 1) for p, i in enumerate(letters))
    return n, g, w


@settings(deadline=None, max_examples=60)
@given(graded_words())
def test_nu_vector_matches_subdivision_property(case):
    n, g, w = case
    while shuffle_terms([w], n) > SHUFFLE_BUDGET:
        w = w[:-1]
    assert_paths_agree(w, context(n, g))


# ---------------------------------------------------------------------------
# Subset-alternating sums.
# ---------------------------------------------------------------------------


def test_vanishing_sum_cases():
    cases = [
        ((), (X, X, X), 2, 1),
        (X, (X, X * 2, X), 2, 1),
        (parse_word("y"), (X, parse_word("y"), parse_word("xy")), 2, 2),
        (X, (X, parse_word("y")), 1, 2),
        ((), (X, X, X, X), 3, 1),
    ]
    for gamma, alphas, n, g in cases:
        ok, vec = vanishing_sum_check(gamma, alphas, context(n, g))
        assert ok, vec
        assert vec == [0] * context(n, g).rank(n)


def test_vanishing_sum_rejects_exponents_other_than_units():
    cx = context(2, 2)
    bad = ((1, 2),)
    for gamma, alphas in ((bad, (X, X, X)), ((), (X, bad, X))):
        with pytest.raises(ValueError, match="letter exponent must be \\+-1, got 2"):
            vanishing_sum_check(gamma, alphas, cx)
    # an empty loop cancels every word of the sum, so none of them is read:
    # the inputs are checked before summing
    for gamma, alphas in ((bad, ((), X, X)), ((), ((), bad, X))):
        with pytest.raises(ValueError, match="letter exponent must be \\+-1, got 2"):
            vanishing_sum_check(gamma, alphas, cx)
    with pytest.raises(ValueError, match="generator 3 out of range"):
        vanishing_sum_check(((3, 1),), ((), X, X), cx)


def test_nu_vector_vanishes_on_the_theorem_b_battery():
    """Each sum of the `verify theorem-b` battery at (2, 2) -- every gamma of
    length <= 2 against every triple of single letters -- is
    gamma * prod_i (1 - alpha_i), which has no Magnus terms of degree <= 2.
    So the matrix path reads the zero chain on all 56, and only the
    geometric sum can tell the check anything."""
    n, g = 2, 2
    cx = context(n, g)
    zero = [0] * cx.rank(n)
    checked = 0
    for gamma in ((), *positive_words(g, 2)):
        for alphas in itertools.product(positive_words(g, 1), repeat=n + 1):
            combo = {}
            for bits in itertools.product((0, 1), repeat=n + 1):
                word = gamma + sum(itertools.compress(alphas, bits), ())
                combo[word] = combo.get(word, 0) + (-1) ** sum(bits)
            assert nu_vector(combo, cx) == zero, (gamma, alphas)
            checked += 1
    assert checked == 56


def test_vanishing_sum_needs_n_plus_one_loops():
    with pytest.raises(ValueError):
        vanishing_sum_check((), (X, X), context(2, 1))


def test_top_degree_entry_points_have_no_optional_inputs():
    for fn in (nu_eval, vanishing_sum_check, naturality_check):
        params = inspect.signature(fn).parameters.values()
        assert all(p.default is inspect.Parameter.empty for p in params), fn.__name__
    assert nu_eval(X * 2, 3, 1) == (4, 1, 0)


def test_checks_take_n_from_their_context():
    cx1, cx2 = context(1, 1), context(2, 1)
    # two loops at power 1, three at power 2: the count follows the complex
    assert vanishing_sum_check((), (X, X), cx1) == (True, [0])
    with pytest.raises(ValueError, match="need exactly 3 loops"):
        vanishing_sum_check((), (X, X), cx2)
    assert vanishing_sum_check((), (X, X, X), cx2) == (True, [0, 0])


def add(u, v):
    return [a + b for a, b in zip(u, v, strict=True)]


@pytest.mark.parametrize("corrupt", ["cycle", "non-cycle"])
def test_vanishing_sum_check_sees_a_corrupted_chain(monkeypatch, corrupt):
    """A cycle added to the sum fails the check and comes back as its
    chain; a chain that is not a cycle raises."""
    cx = context(2, 2)
    extra = nu_vector(X * 2, cx) if corrupt == "cycle" else oracles.non_cycle(cx)
    assert any(extra)
    real = transform.subdivision_vector
    monkeypatch.setattr(transform, "subdivision_vector", lambda elt, cx: add(real(elt, cx), extra))
    if corrupt == "cycle":
        assert vanishing_sum_check((), (X, X, X), cx) == (False, extra)
    else:
        with pytest.raises(ValueError, match="not a cycle"):
            vanishing_sum_check((), (X, X, X), cx)


@pytest.mark.parametrize("side", ["pushed word", "pushed chain"])
@pytest.mark.parametrize("corrupt", ["cycle", "non-cycle"])
def test_naturality_check_sees_either_side_corrupted(monkeypatch, side, corrupt):
    src, tgt = context(2, 1), context(2, 2)
    gen_map, w = {1: 2}, X * 2
    assert naturality_check(gen_map, w, src, tgt)
    extra = nu_vector(X, tgt) if corrupt == "cycle" else oracles.non_cycle(tgt)
    assert any(extra)
    if side == "pushed word":  # the one nu_vector call on the target complex
        real_nu = transform.nu_vector
        monkeypatch.setattr(
            transform,
            "nu_vector",
            lambda elt, cx: add(real_nu(elt, cx), extra) if cx is tgt else real_nu(elt, cx),
        )
    else:
        real_push = transform.push_chain_vector
        monkeypatch.setattr(transform, "push_chain_vector", lambda *a: add(real_push(*a), extra))
    if corrupt == "cycle":
        assert not naturality_check(gen_map, w, src, tgt)
    else:
        with pytest.raises(ValueError, match="not a cycle"):
            naturality_check(gen_map, w, src, tgt)


def test_naturality_check_rejects_complexes_of_different_powers():
    with pytest.raises(ValueError, match="source power 1 and target power 2 differ"):
        naturality_check({1: 1}, X, context(1, 1), context(2, 1))
    with pytest.raises(ValueError, match="source power 2 and target power 1 differ"):
        naturality_check({1: 1}, X, context(2, 1), context(1, 1))


def test_symbolic_cancellation_empty():
    for n in (1, 2, 3):
        assert symbolic_cancellation(n) == {}
    with pytest.raises(ValueError):
        symbolic_cancellation(0)


def test_symbolic_terms_before_they_cancel():
    """The expansion's terms, before `combine` cancels them all: I = ∅, the
    first subset, gives the one piece of the fixed block alone, its n
    coordinates in order; that term comes once from each I, with sign
    (-1)^|I|; and the blocks used are exactly the deletable loops 0..n and
    the fixed one, n + 1."""
    for n in (1, 2, 3, 4):
        terms = list(_symbolic_terms(n))
        fixed_alone = tuple((n + 1, q) for q in range(1, n + 1))
        assert terms[0] == (fixed_alone, 1)
        signs = [sign for term, sign in terms if term == fixed_alone]
        assert len(signs) == 2 ** (n + 1) and sum(signs) == 0
        assert {b for term, _ in terms for b, _ in term} == set(range(n + 2))


# ---------------------------------------------------------------------------
# Pointwise sampling oracle.
# ---------------------------------------------------------------------------


def test_path_eval_frozen():
    xy = parse_word("xy")
    assert oracles.path_eval(xy, Fraction(0)) == BASEPOINT
    assert oracles.path_eval(xy, Fraction(1, 4)) == (1, Fraction(1, 2))
    assert oracles.path_eval(xy, Fraction(1, 2)) == BASEPOINT
    assert oracles.path_eval(xy, Fraction(3, 4)) == (2, Fraction(1, 2))
    assert oracles.path_eval(xy, Fraction(1)) == BASEPOINT
    assert oracles.path_eval((), Fraction(1, 3)) == BASEPOINT
    with pytest.raises(ValueError):
        oracles.path_eval(xy, Fraction(3, 2))


def test_integer_path_eval_frozen():
    # the cases above at loop time k s = num/den, k = 2 (0 for the empty word)
    xy = parse_word("xy")
    assert path_eval(xy, 0, 1) == BASEPOINT
    assert path_eval(xy, 1, 2) == (1, 1)
    assert path_eval(xy, 2, 2) == BASEPOINT
    assert path_eval(xy, 3, 2) == (2, 1)
    assert path_eval(xy, 4, 2) == BASEPOINT
    assert path_eval((), 0, 3) == BASEPOINT
    with pytest.raises(ValueError, match="loop time 3/1 outside"):
        path_eval(xy, 3, 1)
    with pytest.raises(ValueError, match="loop time -1/2 outside"):
        path_eval(xy, -1, 2)


def test_random_simplex_points_are_exact_and_ordered():
    pts = random_simplex_points(3, 50, seed=7)
    assert len(pts) == 50
    assert pts == random_simplex_points(3, 50, seed=7)
    for nums, den in pts:
        assert all(isinstance(a, int) for a in (*nums, den)) and den > 0
        assert all(0 <= a <= den for a in nums)
        assert list(nums) == sorted(nums)
    # the same draws as the exact-rational generator: every seed gives the
    # same points, read back as Fractions
    for n in (1, 2, 3, 4):
        for seed in (0, 7, 900 + n, 1000 + n):
            pts = random_simplex_points(n, 60, seed)
            assert [tuple(Fraction(a, den) for a in nums) for nums, den in pts] == (
                oracles.random_simplex_points(n, 60, seed)
            )


def test_sampling_oracle_accepts_all_terms():
    for g in (1, 2):
        for w in positive_words(g, 3):
            for n in (1, 2, 3):
                pts = random_simplex_points(n, 25, seed=1000 + n)
                assert sampling_oracle(w, n, pts)


def test_sampling_oracle_rejects_forged_cells():
    xy = parse_word("xy")
    v, sigma = (0, 1), (1, 2)
    nums, den = on_common_denominator((Fraction(1, 3), Fraction(1, 2)))
    path = _path_table(xy, nums, den)
    assert term_matches_path(v, sigma, nums, den, term_to_simplex(xy, v, sigma), path)
    wrong_letters = ((2, 2), (1, 1))
    assert not term_matches_path(v, sigma, nums, den, wrong_letters, path)
    wrong_jumps = ((1, 1), (2, 2))
    assert not term_matches_path(v, sigma, nums, den, wrong_jumps, path)


# The integer oracle against the exact-rational reference in the oracles.

ORACLE_WORDS = list(positive_words(2, 3))  # words.positive_words(2, (1, 2, 3))


def sample_points(n: int, seed: int) -> list[tuple[Fraction, ...]]:
    """Corners and edges of D^n (coordinates 0 and 1, repeated coordinates),
    denominators up to 24, and seeded points of the sampling suite."""
    fixed = [
        (Fraction(0),) * n,
        (Fraction(1),) * n,
        (Fraction(0),) * (n - 1) + (Fraction(1),),
        (Fraction(0),) + (Fraction(1),) * (n - 1),
        (Fraction(1, 2),) * n,
        tuple(sorted(Fraction(j, 24) for j in (5, 12, 23)[:n])),
        tuple(sorted(Fraction(j, d) for j, d in ((1, 24), (2, 3), (5, 7))[:n])),
        (Fraction(7, 24),) * (n - 1) + (Fraction(23, 24),),
    ]
    return fixed + oracles.random_simplex_points(n, 6, seed)


def forged_cells(w, v, sigma) -> list[Simplex]:
    """The piece's own simplex, then, position by position, the simplex with
    that letter changed and with that jump moved to the next coordinate."""
    true = term_to_simplex(w, v, sigma)
    n = len(true)
    out = [true]
    for p, (letter, jump) in enumerate(true):
        for forged in ((3 - letter, jump), (letter, jump % n + 1)):
            out.append(true[:p] + (forged,) + true[p + 1:])
    return out


def on_fractions(path, den):
    return [[e if e == BASEPOINT else (e[0], Fraction(e[1], den)) for e in row] for row in path]


def verdicts(w, n, x, cells_of):
    """(integer, reference) verdicts of every piece of w at x against each
    of the cells ``cells_of`` names for it."""
    nums, den = on_common_denominator(x)
    path, ref_path = _path_table(w, nums, den), oracles._path_table(w, x)
    for v, sigma in shuffle_expand(w, n):
        for cell in cells_of(w, v, sigma):
            yield (
                term_matches_path(v, sigma, nums, den, cell, path),
                oracles.term_matches_path(v, sigma, x, cell, ref_path),
            )


def test_common_denominator_is_the_least_exact_one():
    assert on_common_denominator((Fraction(1, 2), Fraction(1, 3))) == ([3, 2], 6)
    assert on_common_denominator((Fraction(0), Fraction(1))) == ([0, 1], 1)
    for n in (1, 2, 3):
        for x in sample_points(n, seed=11 + n):
            nums, den = on_common_denominator(x)
            assert all(isinstance(a, int) for a in nums)
            assert den == lcm(*(c.denominator for c in x))
            assert [Fraction(a, den) for a in nums] == list(x)


def test_path_table_matches_reference():
    for w in ORACLE_WORDS:
        for n in (1, 2, 3):
            for x in sample_points(n, seed=20 + n):
                nums, den = on_common_denominator(x)
                assert on_fractions(_path_table(w, nums, den), den) == oracles._path_table(w, x)


def test_term_matches_path_agrees_with_reference():
    counts = {True: 0, False: 0}
    for w in ORACLE_WORDS:
        for n in (1, 2, 3):
            for x in sample_points(n, seed=30 + n):
                for mine, ref in verdicts(w, n, x, forged_cells):
                    assert mine == ref, (w, n, x)
                    counts[ref] += 1
    assert counts[True] > 1000 and counts[False] > 1000, counts


@st.composite
def oracle_cases(draw):
    w = draw(st.sampled_from(ORACLE_WORDS))
    n = draw(st.integers(1, 3))
    dens = draw(st.lists(st.integers(1, 24), min_size=n, max_size=n))
    x = tuple(sorted(Fraction(draw(st.integers(0, d)), d) for d in dens))
    cell = st.tuples(st.integers(1, 2), st.integers(1, n))
    forged = draw(st.lists(st.tuples(cell, cell, cell), min_size=1, max_size=4))
    return w, n, x, [comps[:n] for comps in forged]


@settings(deadline=None, max_examples=200)
@given(oracle_cases())
def test_term_matches_path_agrees_with_reference_property(case):
    w, n, x, forged = case
    for mine, ref in verdicts(w, n, x, lambda w, v, sigma: [term_to_simplex(w, v, sigma), *forged]):
        assert mine == ref


# ---------------------------------------------------------------------------
# Naturality.
# ---------------------------------------------------------------------------


def test_push_word_frozen():
    w = ((1, 1), (2, -1), (1, 1))
    assert push_word(w, {1: 1, 2: None}) == ((1, 1), (1, 1))
    assert push_word(w, {1: 2, 2: 1}) == ((2, 1), (1, -1), (2, 1))
    assert push_word((), {1: 1}) == ()


def brute_push(src, tgt, d, vec, gen_map):
    """Push every degree-d basis cell of src through gen_map and keep the
    ones that cover the jumps [1, d] and lie outside Y."""
    out = [0] * tgt.rank(d)
    target_basis = list(tgt.basis(d))
    for s, c in zip(src.basis(d), vec, strict=True):
        t = tuple(
            None if cell is None or gen_map[cell[0]] is None else (gen_map[cell[0]], cell[1])
            for cell in s
        )
        if not {cell[1] for cell in t if cell is not None} >= set(range(1, d + 1)):
            continue
        if t[0] is None or t[-1] is None or any(a == b for a, b in zip(t, t[1:])):
            continue
        out[target_basis.index(t)] += c
    return out


@pytest.mark.parametrize(
    "n, g_src, g_tgt",
    [
        (1, 2, 1),
        (2, 1, 2),
        (2, 2, 1),
        (2, 2, 2),
        (3, 2, 1),
        (3, 2, 2),
        (2, 3, 2),
        (4, 2, 1),
        (4, 2, 2),
        (4, 1, 2),
    ],
)
def test_push_chain_vector_matches_brute_force(n, g_src, g_tgt):
    """Every map of the source generators to the target generators or the
    basepoint (relabels, folds and collapses), at every degree."""
    src, tgt = build_pair_complex(n, g_src), build_pair_complex(n, g_tgt)
    rng = Random(n * 100 + g_src * 10 + g_tgt)
    for images in itertools.product([None, *range(1, g_tgt + 1)], repeat=g_src):
        gen_map = dict(enumerate(images, start=1))
        for d in range(0, n + 2):
            vec = [rng.randint(-3, 3) for _ in range(src.rank(d))]
            want = brute_push(src, tgt, d, vec, gen_map)
            assert push_chain_vector(src, tgt, d, vec, gen_map) == want, (gen_map, d)


def test_naturality_cases():
    cases = [
        ({1: 1}, X, 1, 1, 1),
        ({1: 1}, X * 2, 2, 1, 1),
        ({1: 2}, X * 2, 2, 1, 2),
        ({1: None}, X, 1, 1, 1),
        ({1: None}, X * 2, 2, 1, 1),
        ({1: 1, 2: 1}, parse_word("xy"), 2, 2, 1),
        ({1: 2, 2: 1}, parse_word("xy"), 2, 2, 2),
        ({1: 1, 2: None}, parse_word("xy"), 2, 2, 1),
        ({1: 1, 2: 1}, parse_word("xY"), 2, 2, 1),
    ]
    for gen_map, w, n, g_src, g_tgt in cases:
        assert naturality_check(
            gen_map, w, context(n, g_src), context(n, g_tgt)
        ), (gen_map, w, n)


def test_naturality_validates_generator_ranges():
    with pytest.raises(ValueError):
        naturality_check({3: 1}, X, context(1, 1), context(1, 1))
    with pytest.raises(ValueError):
        naturality_check({1: 5}, X, context(1, 1), context(1, 1))
