"""Tests for Smith normal form and homology with cycle coordinates."""

from __future__ import annotations

import itertools
import operator
import random
from dataclasses import astuple, dataclass, field
from functools import lru_cache
from hashlib import sha256
from typing import Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loophom.homology import (
    _snf,
    det,
    homology,
    homology_groups,
    invariant_factors,
    smith_normal_form,
)
from loophom.transform import nu_vector
from loophom.wedge import PairComplex, build_pair_complex
from loophom.words import positive_words

import oracles
from oracles import Matrix, identity_matrix, mat_mul, mat_vec, reference_snf


def sparse_rows(a) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Each row of a dense matrix as its nonzero (column, entry) pairs."""
    return tuple(tuple((c, x) for c, x in enumerate(row) if x) for row in a)


def snf_outputs(a, nrows: int, ncols: int):
    """`smith_normal_form`'s (U, D, V) with `_snf`'s Vinv, after checking
    that `_snf` gives the same D; they must equal `reference_snf`'s
    (U, D, V, Vinv).  `_snf` reduces fresh {column: entry} rows in place
    and returns such rows, written out densely here.  A matrix with no rows
    has no width to give `smith_normal_form`, which reads it as 0 x 0."""
    d, vinv = (
        [[row.get(c, 0) for c in range(ncols)] for row in rows]
        for rows in _snf([dict(row) for row in sparse_rows(a)], nrows, ncols)
    )
    if not nrows:
        assert smith_normal_form(a) == ([], [], [])
        return [], d, identity_matrix(ncols), vinv
    u, d2, v = smith_normal_form(a)
    assert d2 == d
    return u, d, v, vinv


def check_snf_contract(a):
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    u, d, v, vinv = snf_outputs(a, nrows, ncols)
    assert (u, d, v, vinv) == reference_snf(a, nrows, ncols)
    # U a V = D
    uav = mat_mul(mat_mul(u, a), v)
    assert uav == d
    # unimodular transforms
    assert abs(det(u)) == 1
    assert abs(det(v)) == 1
    # V Vinv = I
    assert mat_mul(v, vinv) == identity_matrix(ncols)
    # diagonal, nonnegative, divisibility chain
    diag = []
    for i in range(nrows):
        for j in range(ncols):
            if i != j:
                assert d[i][j] == 0
        if i < ncols and d[i][i]:
            diag.append(d[i][i])
    assert all(x > 0 for x in diag)
    for x, y in zip(diag, diag[1:]):
        assert y % x == 0
    # zero rows/cols come after the nonzero pivots
    for i in range(len(diag), min(nrows, ncols)):
        assert d[i][i] == 0
    return u, d, v


# ---------------------------------------------------------------------------
# Smith normal form.
# ---------------------------------------------------------------------------


def test_snf_frozen_examples():
    u, d, v = smith_normal_form(identity_matrix(3))
    assert (u, d, v) == (identity_matrix(3),) * 3

    zero = [[0, 0], [0, 0], [0, 0]]
    u, d, v = smith_normal_form(zero)
    assert d == zero and u == identity_matrix(3) and v == identity_matrix(2)

    _, d, _ = smith_normal_form([[2, 4], [6, 8]])
    assert [d[0][0], d[1][1]] == [2, 4]


def test_snf_contract_on_seeded_matrices():
    rng = random.Random(20210)
    for _ in range(60):
        nrows = rng.randint(0, 12)
        ncols = rng.randint(0, 12)
        a = [[rng.randint(-50, 50) for _ in range(ncols)] for _ in range(nrows)]
        check_snf_contract(a)


def test_snf_deterministic():
    rng = random.Random(7)
    a = [[rng.randint(-9, 9) for _ in range(6)] for _ in range(5)]
    first = snf_outputs(a, 5, 6)
    second = snf_outputs([row[:] for row in a], 5, 6)
    assert first == second == reference_snf(a, 5, 6)


def test_snf_rank_one_and_gcd():
    # d1 is the gcd of all entries
    a = [[6, 10], [15, 9]]
    _, d, _ = smith_normal_form(a)
    assert d[0][0] == 1


def test_det_bareiss():
    assert det([]) == 1
    assert det([[7]]) == 7
    assert det([[1, 2], [3, 4]]) == -2
    assert det([[2, 0, 0], [0, 3, 0], [0, 0, 5]]) == 30
    assert det([[1, 2], [2, 4]]) == 0
    rng = random.Random(99)
    for _ in range(20):
        n = rng.randint(1, 6)
        a = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
        # expansion by minors as an oracle
        def minor_det(m):
            if len(m) == 1:
                return m[0][0]
            total = 0
            for j in range(len(m)):
                sub = [row[:j] + row[j + 1:] for row in m[1:]]
                total += (-1) ** j * m[0][j] * minor_det(sub)
            return total
        assert det(a) == minor_det(a)


# ---------------------------------------------------------------------------
# Homology of known complexes.
# ---------------------------------------------------------------------------


@dataclass
class StubComplex:
    ranks: dict[int, int]
    mats: dict[int, list[list[int]]] = field(default_factory=dict)

    def rank(self, d: int) -> int:
        return self.ranks.get(d, 0)

    def dense(self, d: int):
        if d in self.mats:
            return self.mats[d]
        return [[0] * self.rank(d) for _ in range(self.rank(d - 1))]

    @property
    def boundaries(self) -> dict[int, list[tuple[tuple[int, int], ...]]]:
        """The sparse columns of the boundary matrix leaving each degree the
        stub has a rank for, as the pair complex stores them."""
        return {d: columns_of(self.dense(d), self.rank(d)) for d in self.ranks}


def test_torus_like():
    cx = StubComplex({0: 1, 1: 2, 2: 1})
    assert (oracles.homology(cx, 0).rank, oracles.homology(cx, 0).torsion) == (1, ())
    assert (oracles.homology(cx, 1).rank, oracles.homology(cx, 1).torsion) == (2, ())
    assert (oracles.homology(cx, 2).rank, oracles.homology(cx, 2).torsion) == (1, ())


def test_projective_plane_like():
    cx = StubComplex({0: 1, 1: 1, 2: 1}, {2: [[2]]})
    h1 = oracles.homology(cx, 1)
    assert (h1.rank, h1.torsion) == (0, (2,))
    h2 = oracles.homology(cx, 2)
    assert (h2.rank, h2.torsion) == (0, ())


def test_klein_like():
    cx = StubComplex({0: 1, 1: 2, 2: 1}, {2: [[0], [2]]})
    h1 = oracles.homology(cx, 1)
    assert (h1.rank, h1.torsion) == (1, (2,))
    assert oracles.homology(cx, 2).rank == 0


def test_not_a_complex_raises():
    bad = StubComplex({0: 1, 1: 1, 2: 1}, {1: [[1]], 2: [[1]]})
    with pytest.raises(ValueError):
        oracles.homology(bad, 1)


def test_empty_degree():
    for cx in (StubComplex({0: 1}), build_pair_complex(2, 1)):
        assert homology(cx, 5).rank == 0
        assert homology(cx, 5).cycle_class([]) == ()


def test_homology_rejects_degrees_with_cells_above():
    with pytest.raises(ValueError, match="degree 2 has cells above it"):
        homology(build_pair_complex(3, 2), 2)
    with pytest.raises(ValueError, match="degree 1 has cells above it"):
        homology(StubComplex({0: 1, 1: 2, 2: 1}), 1)
    with pytest.raises(ValueError, match="degree 0 has cells above it"):
        homology(StubComplex({0: 1, 1: 1}), 0)


@pytest.mark.parametrize(
    "mat",
    [
        [[1, 0]],  # a row short
        [[1, 0], [0, 1], [1, 1]],  # a row too many
        [[1, 0], [0, 1, 0]],  # ragged
        [[1], [0, 1]],  # ragged, the short row first
        [[1, 0, 0], [0, 1, 0]],  # every row too wide
    ],
)
def test_homology_rejects_boundaries_of_the_wrong_shape(mat):
    """The reference reads dense matrices; the library reads sparse columns,
    which `test_homology_rejects_columns_of_the_wrong_shape` puts wrong."""
    with pytest.raises(ValueError, match="^boundary matrix at d has the wrong shape$"):
        oracles.homology(StubComplex({0: 2, 1: 2}, {1: mat}), 1)


@pytest.mark.parametrize(
    "columns",
    [
        [((0, 1),)],  # a column short
        [((0, 1),), ((1, 1),), ()],  # a column too many
        [((0, 1),), ((2, 1),)],  # a row index equal to the rank below
        [((0, 1),), ((-1, 1),)],  # a negative row index, which indexing would wrap
    ],
)
def test_homology_rejects_columns_of_the_wrong_shape(columns):
    cx = SparseStub(1, {0: 2, 1: 2}, {1: columns})
    with pytest.raises(ValueError, match="^boundary matrix at d has the wrong shape$"):
        homology(cx, 1)


@pytest.mark.parametrize("n, g", [(3, 2), (4, 2)])
def test_homology_reads_no_row_view(monkeypatch, n, g):
    """`homology` reads the stored columns alone: with the row view
    `boundary_matrix` refusing every call, the summary is unchanged."""
    cx = build_pair_complex(n, g)
    summary = homology(cx, n)

    def refuse(self, d):
        raise AssertionError("homology read boundary_matrix")

    monkeypatch.setattr(PairComplex, "boundary_matrix", refuse)
    assert homology(cx, n) == summary


@dataclass
class ColumnsStub(StubComplex):
    """A stub whose sparse boundaries are given outright, whatever its dense
    matrices hold."""

    columns: dict[int, Sequence] = field(default_factory=dict)

    @property
    def boundaries(self) -> dict[int, Sequence]:
        return self.columns


def test_homology_follows_the_stored_columns_not_the_dense_matrices():
    """A stub with the (3, 2) complex's ranks and columns, but whose dense
    matrices are all zero, gets the (3, 2) summary; read densely, its top
    boundary would vanish and every chain would be a cycle."""
    cx = build_pair_complex(3, 2)
    stub = ColumnsStub({d: cx.rank(d) for d in range(cx.d_max + 1)}, columns=cx.boundaries)
    assert not any(map(any, stub.dense(3)))
    assert homology(stub, 3) == homology(cx, 3)


@pytest.mark.parametrize("a", [[[1, 2], [3]], [[1], [2, 3]], [[], [1]]])
def test_smith_normal_form_rejects_ragged_matrices(a):
    with pytest.raises(ValueError, match="^matrix rows differ in length$"):
        smith_normal_form(a)


# ---------------------------------------------------------------------------
# Homology of the pair complexes.
# ---------------------------------------------------------------------------


def test_circle_pair():
    cx = oracles.DenseView(build_pair_complex(1, 1))
    h = oracles.homology(cx, 1)
    assert (h.rank, h.torsion) == (1, ())


def test_square_pair():
    cx = oracles.DenseView(build_pair_complex(2, 1))
    h = oracles.homology(cx, 2)
    assert (h.rank, h.torsion) == (2, ())
    # no boundaries in sight, so coordinates are just the basis coefficients
    assert h.cycle_class([1, 0]) == (1, 0)
    assert h.cycle_class([3, -1]) == (3, -1)


def test_cube_pair():
    cx = oracles.DenseView(build_pair_complex(3, 1))
    h = oracles.homology(cx, 3)
    assert (h.rank, h.torsion) == (3, ())


def test_cycle_class_kills_boundaries_exactly():
    cx = oracles.DenseView(build_pair_complex(3, 1))
    h = oracles.homology(cx, 2)
    m3 = cx.dense(3)
    cols = len(m3[0]) if m3 else 0
    for c in range(cols):
        column = [m3[r][c] for r in range(len(m3))]
        assert h.cycle_class(column) == (0,) * (h.rank + len(h.torsion))
    # the projection is onto: some cycle hits a nonzero coordinate
    if h.rank:
        found = False
        for z in identity_matrix(cx.rank(2)):
            if h.is_cycle(z) and any(h.cycle_class(z)):
                found = True
                break
        assert found


def test_cycle_class_rejects_non_cycles():
    cx = build_pair_complex(3, 1)
    h = homology(cx, 3)
    m3 = oracles.dense_boundary(cx, 3)
    # build a vector with nonzero boundary
    for z in identity_matrix(cx.rank(3)):
        if any(mat_vec(m3, z)):
            with pytest.raises(ValueError):
                h.cycle_class(z)
            assert not h.is_cycle(z)
            break
    else:
        pytest.fail("expected some non-cycle basis vector")


def test_cycle_class_additive():
    cx = build_pair_complex(3, 1)
    h = homology(cx, 3)
    m3 = oracles.dense_boundary(cx, 3)
    rng = random.Random(5)
    # kernel vectors via SNF: columns of V past the rank
    nrows, ncols = len(m3), cx.rank(3)
    _, d, v = smith_normal_form(m3)
    r = sum(1 for i in range(min(nrows, ncols)) if d[i][i])
    kernel = [[v[row][j] for row in range(ncols)] for j in range(r, ncols)]
    for _ in range(20):
        a = rng.choice(kernel)
        b = rng.choice(kernel)
        s = [x + y for x, y in zip(a, b)]
        assert h.cycle_class(s) == tuple(
            x + y for x, y in zip(h.cycle_class(a), h.cycle_class(b))
        )


# ---------------------------------------------------------------------------
# Differential tests against the dense product and reduction.
# ---------------------------------------------------------------------------

# `reference_mat_mul` is the dense original that `mat_mul` replaced, and
# `oracles.reference_snf` the dense original of the Smith reduction: the
# sparse `_snf` must reproduce its D and Vinv exactly, and
# `smith_normal_form` the U and V that it reads off its identity blocks.


def reference_mat_mul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]],
                        inner: int | None = None) -> Matrix:
    """Product a @ b; pass `inner` when either factor can have zero rows."""
    if inner is None:
        inner = len(b)
    cols = len(b[0]) if b else 0
    return [
        [sum(row[k] * b[k][c] for k in range(inner)) for c in range(cols)]
        for row in a
    ]


def random_sparse_matrix(rng: random.Random, nrows: int, ncols: int) -> Matrix:
    """Mostly zeros and units, like the boundaries, with some larger
    entries so that non-unit pivots, dirty remainders and the
    divisibility-repair scan all occur."""
    density = rng.choice((0.1, 0.3, 0.6))

    def entry() -> int:
        if rng.random() >= density:
            return 0
        if rng.random() < 0.7:
            return rng.choice((1, -1))
        return rng.choice((1, -1)) * rng.randint(2, 12)

    return [[entry() for _ in range(ncols)] for _ in range(nrows)]


# each forces one path next to a shortcut, before the random matrices
BRANCH_EXAMPLES = [
    [[2, 3]],  # a non-unit pivot leaves a remainder: dirty
    [[3], [5]],  # the same down a column
    [[2, 0], [0, 3]],  # clean pivot 2, but 3 % 2: repair pulls row 1 up
    [[4, 0, 0], [0, 6, 0], [0, 0, 10]],  # repairs across several pivots
    [[0, 0], [0, -1], [2, 0]],  # the search stops at a unit after zeros
]


def test_snf_matches_reference_on_seeded_sparse_matrices():
    rng = random.Random(20240)
    randoms = []
    for _ in range(300):
        nrows = rng.randint(0, 14)
        ncols = rng.randint(0, 14)
        randoms.append(random_sparse_matrix(rng, nrows, ncols))
    # small matrices without units, which reach the repair scan often: it
    # must read only the leading block, not the identity block beside it
    for _ in range(300):
        nrows, ncols = rng.randint(1, 4), rng.randint(1, 4)
        randoms.append([[rng.choice(NON_UNIT_ENTRIES) for _ in range(ncols)] for _ in range(nrows)])
    for a in BRANCH_EXAMPLES + randoms:
        nrows = len(a)
        ncols = len(a[0]) if nrows else 0
        assert snf_outputs(a, nrows, ncols) == reference_snf(a, nrows, ncols)
    for k in range(4):  # no rows, or rows without entries
        assert snf_outputs([], 0, k) == reference_snf([], 0, k)
        assert snf_outputs([[]] * k, k, 0) == reference_snf([[]] * k, k, 0)


def test_reference_pivot_is_the_least_entry_first_in_row_major_order():
    """The scan that stops at the first ±1 picks min((|x|, i, j)) over the
    block past (t, t)."""
    rng = random.Random(20241)
    for _ in range(500):
        nrows, ncols = rng.randint(0, 9), rng.randint(0, 9)
        a = random_sparse_matrix(rng, nrows, ncols)
        t = rng.randint(0, max(min(nrows, ncols) - 1, 0))
        block = [
            (abs(a[i][j]), i, j) for i in range(t, nrows) for j in range(t, ncols) if a[i][j]
        ]
        want = min(block)[1:] if block else None
        assert oracles.reference_pivot(a, t, nrows, ncols) == want, (a, t)


def test_mat_mul_matches_reference_on_seeded_sparse_matrices():
    rng = random.Random(4411)
    for _ in range(200):
        rows, inner, cols = (rng.randint(0, 9) for _ in range(3))
        a = random_sparse_matrix(rng, rows, inner)
        b = random_sparse_matrix(rng, inner, cols)
        assert mat_mul(a, b) == reference_mat_mul(a, b, inner=inner)
        assert mat_mul(a, b) == reference_mat_mul(a, b)
        (v,) = random_sparse_matrix(rng, 1, inner)
        assert mat_vec(a, v) == [sum(row[k] * v[k] for k in range(inner)) for row in a]


ENTRIES = st.one_of(
    st.just(0), st.just(0), st.sampled_from((1, -1)), st.integers(-20, 20)
)


@st.composite
def int_matrices(draw, nrows=st.integers(0, 9), ncols=st.integers(0, 9)):
    r, c = draw(nrows), draw(ncols)
    return [draw(st.lists(ENTRIES, min_size=c, max_size=c)) for _ in range(r)]


@settings(max_examples=300, deadline=None)
@given(int_matrices())
def test_snf_matches_reference_property(a):
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    assert snf_outputs(a, nrows, ncols) == reference_snf(a, nrows, ncols)


@settings(max_examples=200, deadline=None)
@given(st.data(), st.integers(0, 8))
def test_mat_mul_matches_reference_property(data, inner):
    a = data.draw(int_matrices(ncols=st.just(inner)))
    b = data.draw(int_matrices(nrows=st.just(inner)))
    assert mat_mul(a, b) == reference_mat_mul(a, b, inner=inner)


def random_chain_pair(rng: random.Random, below: int, nd: int, above: int):
    """Random (A, B) with A B = 0: A = X [I 0] W^-1 and B = W [0; I] Y for a
    random unimodular W, so the columns of B lie in the kernel of A."""
    w, winv = identity_matrix(nd), identity_matrix(nd)
    for _ in range(2 * nd if nd > 1 else 0):
        i, j = rng.sample(range(nd), 2)
        q = rng.choice((1, -1, 2))
        for row in w:  # W <- W (I + q e_ij)
            row[j] += q * row[i]
        winv[i] = [x - q * y for x, y in zip(winv[i], winv[j])]
    k = rng.randint(0, nd)
    x = random_sparse_matrix(rng, below, k)
    y = random_sparse_matrix(rng, nd - k, above)
    # written out, since a factor with no rows hides the product's width
    a = [[sum(xr[t] * winv[t][c] for t in range(k)) for c in range(nd)] for xr in x]
    b = [[sum(wr[k + t] * y[t][c] for t in range(nd - k)) for c in range(above)]
         for wr in w]
    return a, b


def perturb_one_entry(rng: random.Random, a: Matrix, b: Matrix) -> None:
    """Add a small nonzero amount to one entry of a or b, if either has one."""
    targets = [m for m in (a, b) if m and m[0]]
    if targets:
        m = rng.choice(targets)
        r = rng.randrange(len(m))
        m[r][rng.randrange(len(m[r]))] += rng.choice((1, -1, 2, -3))


def assert_raises_iff_product_nonzero(cx: StubComplex, d: int) -> bool:
    product = reference_mat_mul(
        cx.dense(d), cx.dense(d + 1), inner=cx.rank(d)
    )
    bad = any(any(row) for row in product)
    if bad:
        with pytest.raises(ValueError, match="not a chain complex"):
            oracles.homology(cx, d)
    else:
        oracles.homology(cx, d)
    return bad


def test_chain_check_rejects_exactly_nonzero_products_on_random_pairs():
    rng = random.Random(5150)
    outcomes = []
    for trial in range(300):
        below, nd, above = (rng.randint(0, 7) for _ in range(3))
        a, b = random_chain_pair(rng, below, nd, above)
        assert not any(any(row) for row in reference_mat_mul(a, b, inner=nd))
        if trial % 5:
            perturb_one_entry(rng, a, b)
        cx = StubComplex({0: below, 1: nd, 2: above}, {1: a, 2: b})
        outcomes.append(assert_raises_iff_product_nonzero(cx, 1))
    assert 50 < sum(outcomes) < 250  # both verdicts are exercised


def test_chain_check_rejects_exactly_nonzero_products_on_real_boundaries():
    rng = random.Random(8128)
    outcomes = []
    for n, g in [(2, 2), (3, 1), (3, 2)]:
        cx = build_pair_complex(n, g)
        for d in range(1, n + 1):
            for _ in range(8):
                a = oracles.dense_boundary(cx, d)
                b = oracles.dense_boundary(cx, d + 1)
                perturb_one_entry(rng, a, b)
                ranks = {e: cx.rank(e) for e in (d - 1, d, d + 1)}
                stub = StubComplex(ranks, {d: a, d + 1: b})
                outcomes.append(assert_raises_iff_product_nonzero(stub, d))
    assert 0 < sum(outcomes) < len(outcomes)


# sha256 of repr(astuple(homology(cx, d))) for d = 0..n+1, recorded with the
# dense reduction: every field, transforms included, must stay bit-identical
HOMOLOGY_PINS = {
    (1, 1): (
        "9049bd55ce9de62d1a7baeb0d4d020bf0db542902bd14884c19bb744223a389d",
        "67f97126bf8e733b068c64947084e25441c3fbd5634337a0af2eb81ffc4c698c",
        "75095085c87eb3ebe894ec011bc0ee5103d82642e2cf53d393f0503119365956",
    ),
    (1, 2): (
        "9049bd55ce9de62d1a7baeb0d4d020bf0db542902bd14884c19bb744223a389d",
        "d0827c8a9d44795cf3435f02aa77bab902ee24478cbb95ca5075f6e02940ab11",
        "75095085c87eb3ebe894ec011bc0ee5103d82642e2cf53d393f0503119365956",
    ),
    (2, 1): (
        "9049bd55ce9de62d1a7baeb0d4d020bf0db542902bd14884c19bb744223a389d",
        "61598c18103e20ee08e1a2601074c2e3dfe455ccae928fbac681114997d83233",
        "79b59f0699a49cd6666aa42d5cba5ddae934fc2365ed93f0a336ad03d27adb7b",
        "6100c63ccf1213169ca54cdb124737d77aae8c0d35fc747537781934de8cbcdf",
    ),
    (2, 2): (
        "9049bd55ce9de62d1a7baeb0d4d020bf0db542902bd14884c19bb744223a389d",
        "1bbb096ac699c96c07e51a1c65bc11e3dc30330ade3b24c119fafe9f0919296a",
        "48f0abb635e8ad9814b8e77ca48193ed8f931bd884a7f4a5d8149d9d87586247",
        "6100c63ccf1213169ca54cdb124737d77aae8c0d35fc747537781934de8cbcdf",
    ),
    (2, 3): (
        "9049bd55ce9de62d1a7baeb0d4d020bf0db542902bd14884c19bb744223a389d",
        "fa4c6e80d2f68dc193683fac3a7294cf2823b2472cc19b1dfc1ea47e4461a945",
        "1af6c152abe63a8ddc17022adf931ba54d2be2c211296c2e9092612cc79c2b9b",
        "6100c63ccf1213169ca54cdb124737d77aae8c0d35fc747537781934de8cbcdf",
    ),
    (3, 1): (
        "9049bd55ce9de62d1a7baeb0d4d020bf0db542902bd14884c19bb744223a389d",
        "8e49cad042b1b80f0218911d97bd5811a08fa6785950c60969578c8843365e10",
        "9cc0518e50c04266911a97f8cf7154fc704e8d833c5709394801dfd3797f79df",
        "6f97d4e0cda9515fa5cf56fd3fe047fe07f4318aef81385332eb9b6e79a33ff3",
        "e017b4aadfbc0b03d8ec68b2aef0479ddc60571fd8c20de7ac8f765426393cbe",
    ),
    (3, 2): (
        "9049bd55ce9de62d1a7baeb0d4d020bf0db542902bd14884c19bb744223a389d",
        "fa4c6e80d2f68dc193683fac3a7294cf2823b2472cc19b1dfc1ea47e4461a945",
        "b2f89e5f8208f86c55e59a1beb7e75ce2815070b43d7c0b41f2696ced130bd89",
        "b8919952b9a2948aaf8b11877794a4bcc3691e33d5b6b6dbdea5d2b938fadd39",
        "e017b4aadfbc0b03d8ec68b2aef0479ddc60571fd8c20de7ac8f765426393cbe",
    ),
    (3, 3): (
        "9049bd55ce9de62d1a7baeb0d4d020bf0db542902bd14884c19bb744223a389d",
        "8bb8b1e000c246b350419bd005ffdd8289093ddce9aa3824214a141fb09c34f7",
        "173cd448380636036c87de06e7126568d06b381f39cff935c924a843e10ad0d0",
        "d8a884536034354a0a82fc78c55a9884c7d5ad3a8cc0a7f3268a0e6aa343dffe",
        "e017b4aadfbc0b03d8ec68b2aef0479ddc60571fd8c20de7ac8f765426393cbe",
    ),
    (4, 1): (
        "9049bd55ce9de62d1a7baeb0d4d020bf0db542902bd14884c19bb744223a389d",
        "61598c18103e20ee08e1a2601074c2e3dfe455ccae928fbac681114997d83233",
        "83014dab2a9cbddb4b865844cf24369374aa5223d202c92b2062a5c9ed89c42e",
        "3e7f05785b395ed5b1d24df0f833e792fe1e9cd22406dccef68784cb453dd04a",
        "0a9acb47a0105eb47eafdcf70a67623f2838b7517f29c31bf4c4e1ce23cdb9c5",
        "6a88e03950f7bc67d5565524f78e9fb66ddd150548b4b1a180151ec4f17faded",
    ),
    (4, 2): (
        "9049bd55ce9de62d1a7baeb0d4d020bf0db542902bd14884c19bb744223a389d",
        "ad3564ab87abc0156558e21dfdf28d065b2b3f6298725f6f991d2cd1b1c69d35",
        "3e3f75901eb890a88f30aa54d076891e6b0f3347a33242201ecfc347ca2a1536",
        "c50c5d623cbc886ac102358f490c747d488667156cde1d57fc3396c382d7767a",
        "c2cdefad61c098d1da6c05c78f949e3e22ed12f315b6fbeff738b089011730af",
        "6a88e03950f7bc67d5565524f78e9fb66ddd150548b4b1a180151ec4f17faded",
    ),
}


@lru_cache(maxsize=None)
def reference_summaries(n: int, g: int):
    """The pair complex and the reference's summaries at every degree
    0..n+1, computed once for the tests that share them: the reference
    reduction is dense and searches its whole remaining submatrix."""
    cx = build_pair_complex(n, g)
    return cx, tuple(oracles.homology(oracles.DenseView(cx), d) for d in range(n + 2))


@pytest.mark.parametrize("n, g", sorted(HOMOLOGY_PINS))
def test_homology_summaries_match_pins(n, g):
    _, summaries = reference_summaries(n, g)
    digests = tuple(sha256(repr(astuple(h)).encode()).hexdigest() for h in summaries)
    assert digests == HOMOLOGY_PINS[n, g]


def test_top_degree_classes_match_pin_past_the_grid():
    """The top degree at (4, 3), past `HOMOLOGY_PINS`: its rank, and the
    sha256 of repr(_classes) recorded with the dense reduction."""
    summary = homology(build_pair_complex(4, 3), 4)
    assert summary.rank == 120
    assert sha256(repr(summary._classes).encode()).hexdigest() == (
        "18ecf6158cfe305443b12cbcabc3e00d0a618600aa24d62bd79c6d025ca5659f"
    )


# ---------------------------------------------------------------------------
# Top-degree coordinates against the general two-reduction reference.
# ---------------------------------------------------------------------------


def assert_summaries_agree(lib, ref, chains) -> None:
    """The library's summary carries the reference's rank and the nonzeros
    of the class rows of its transform, whose second reduction is the
    identity, and both read the same class of every cycle in `chains` and
    the same cycles among the basis."""
    assert (lib.degree, lib.rank) == (ref.degree, ref.rank)
    assert len(lib._boundary) == ref._ambient
    assert len(lib._boundary) - lib.rank == ref._cycle_rank
    assert lib._classes == sparse_rows(ref._vinv[ref._cycle_rank:])
    assert ref._uprime == tuple(map(tuple, identity_matrix(ref.cycle_space_dim)))
    assert ref._bdry_diag == () and ref.torsion == ()
    for z in chains:
        assert lib.cycle_class(z) == ref.cycle_class(z)
    non_cycles = []
    for z in identity_matrix(ref._ambient):
        cycle = lib.is_cycle(z)
        assert cycle == ref.is_cycle(z)
        if not cycle:
            non_cycles.append(z)
    for z in non_cycles[:1]:
        for summary in (lib, ref):
            with pytest.raises(ValueError, match="not a cycle"):
                summary.cycle_class(z)


@pytest.mark.parametrize("n, g", sorted(HOMOLOGY_PINS))
def test_top_degree_summaries_match_reference(n, g):
    cx, summaries = reference_summaries(n, g)
    chains = [nu_vector(w, cx) for w in positive_words(g, range(4))]
    for d, cycles in ((n, chains), (n + 1, [])):
        lib = homology(cx, d)
        assert lib._boundary is cx.boundaries[d]  # shared, not copied
        assert_summaries_agree(lib, summaries[d], cycles)


@pytest.mark.parametrize("n, g", sorted(HOMOLOGY_PINS))
def test_top_degree_class_rows_each_read_one_cell(n, g):
    """On the pair complexes every class row of Vinv is a single (column, 1)
    pair, with distinct columns: each default coordinate is the coefficient
    of one top cell."""
    summary = homology(build_pair_complex(n, g), n)
    class_rows = summary._classes
    assert len(class_rows) == summary.rank
    assert all(len(row) == 1 and row[0][1] == 1 for row in class_rows)
    assert len({row[0][0] for row in class_rows}) == summary.rank


def test_top_degree_summaries_match_reference_on_seeded_stubs():
    """Top boundaries with non-unit entries, so that the dirty and repair
    branches of `_snf` feed the transform; the cycles are the columns of V
    past the boundary's rank, with sums of them."""
    rng = random.Random(6020)
    matrices = list(BRANCH_EXAMPLES)
    for _ in range(200):
        matrices.append(random_sparse_matrix(rng, rng.randint(0, 10), rng.randint(0, 10)))
    non_units = 0
    for a in matrices:
        nrows = len(a)
        ncols = len(a[0]) if nrows else 0
        non_units += any(abs(x) > 1 for row in a for x in row)
        cx = StubComplex({0: nrows, 1: ncols}, {1: a})
        kernel = kernel_of(a, nrows, ncols)
        sums = [[x + y for x, y in zip(p, q)] for p, q in zip(kernel, kernel[1:])]
        assert_summaries_agree(homology(cx, 1), oracles.homology(cx, 1), kernel + sums)
    assert non_units > 100


def kernel_of(a: Sequence[Sequence[int]], nrows: int, ncols: int) -> list[list[int]]:
    """A basis of the integer kernel of a: the columns of V past the rank,
    or every unit vector when a has no rows."""
    if not nrows:
        return identity_matrix(ncols)
    _, dd, v = smith_normal_form(a)
    r = sum(1 for i in range(min(nrows, ncols)) if dd[i][i])
    return [[row[j] for row in v] for j in range(r, ncols)]


def assert_cycles_and_classes_agree(cx, d: int, chains) -> int:
    """On every chain, the library's `is_cycle` equals the reference's and
    ∂z = 0 on the dense boundary; then both read the same class, or both
    reject the chain.  A chain one entry too long or too short is refused
    by both methods of both summaries.  Returns how many chains were
    cycles."""
    lib, ref = homology(cx, d), oracles.homology(cx, d)
    md = cx.dense(d) if d >= 1 else []
    nd = cx.rank(d)
    cycles = 0
    for z in chains:
        cycle = lib.is_cycle(z)
        assert cycle == ref.is_cycle(z) == (not any(mat_vec(md, z)))
        if cycle:
            assert lib.cycle_class(z) == ref.cycle_class(z)
            cycles += 1
        else:
            for summary in (lib, ref):
                with pytest.raises(ValueError, match="not a cycle"):
                    summary.cycle_class(z)
        for wrong in (z + [1], z[:-1]) if nd else (z + [1],):
            for method in (lib.is_cycle, lib.cycle_class, ref.is_cycle, ref.cycle_class):
                with pytest.raises(ValueError, match=f"^expected a vector of length {nd}$"):
                    method(wrong)
    return cycles


def random_chains(rng: random.Random, kernel: list[list[int]], nd: int) -> list[list[int]]:
    """A sparse random integer vector of length nd, a random integer
    combination of the kernel vectors (a cycle), and that combination with
    one entry moved."""
    noise = [rng.choice((0, 0, 0, 1, -1, 3, -7)) for _ in range(nd)]
    coeffs = [rng.randint(-3, 3) for _ in kernel]
    cycle = [sum(c * k[i] for c, k in zip(coeffs, kernel)) for i in range(nd)]
    moved = list(cycle)
    if nd:
        moved[rng.randrange(nd)] += rng.choice((1, -1, 2))
    return [noise, cycle, moved]


def test_is_cycle_and_cycle_class_match_reference_on_seeded_chains():
    """Random integer chains, not only basis vectors, on real top degrees
    and on seeded stubs with non-unit boundaries."""
    rng = random.Random(7310)
    cycles = chains = 0
    for n, g in [(1, 2), (2, 2), (3, 1), (3, 2)]:
        cx = build_pair_complex(n, g)
        kernel = kernel_of(oracles.dense_boundary(cx, n), cx.rank(n - 1), cx.rank(n))
        batch = [z for _ in range(10) for z in random_chains(rng, kernel, cx.rank(n))]
        cycles += assert_cycles_and_classes_agree(oracles.DenseView(cx), n, batch)
        chains += len(batch)
    # degree 0: no boundary, every chain a cycle
    cycles += assert_cycles_and_classes_agree(StubComplex({0: 3}), 0, identity_matrix(3))
    chains += 3
    non_units = 0
    for a in BRANCH_EXAMPLES + [
        random_sparse_matrix(rng, rng.randint(0, 10), rng.randint(0, 10)) for _ in range(150)
    ]:
        nrows = len(a)
        ncols = len(a[0]) if nrows else 0
        non_units += any(abs(x) > 1 for row in a for x in row)
        batch = random_chains(rng, kernel_of(a, nrows, ncols), ncols)
        cx = StubComplex({0: nrows, 1: ncols}, {1: a})
        cycles += assert_cycles_and_classes_agree(cx, 1, batch)
        chains += len(batch)
    assert non_units > 50
    assert 0.2 * chains < cycles < 0.8 * chains  # both verdicts are exercised


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_is_cycle_and_cycle_class_match_reference_property(data):
    a = data.draw(st.one_of(int_matrices(), matrices_of(NON_UNITS)))
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    kernel = kernel_of(a, nrows, ncols)
    noise = data.draw(st.lists(ENTRIES, min_size=ncols, max_size=ncols))
    coeffs = data.draw(st.lists(st.integers(-5, 5), min_size=len(kernel), max_size=len(kernel)))
    cycle = [sum(c * k[i] for c, k in zip(coeffs, kernel)) for i in range(ncols)]
    perturbed = [x + y for x, y in zip(cycle, noise)]
    cx = StubComplex({0: nrows, 1: ncols}, {1: a})
    assert_cycles_and_classes_agree(cx, 1, [noise, cycle, perturbed])


# ---------------------------------------------------------------------------
# Invariants from sparse unit elimination, against the dense reduction.
# ---------------------------------------------------------------------------


def columns_of(a: Sequence[Sequence[int]], ncols: int) -> list[tuple[tuple[int, int], ...]]:
    """The sparse columns of a, stored the way the pair complex stores its
    boundaries."""
    return [tuple((r, row[c]) for r, row in enumerate(a) if row[c]) for c in range(ncols)]


def reference_factors(a: Sequence[Sequence[int]], nrows: int, ncols: int) -> list[int]:
    _, d, _, _ = reference_snf(a, nrows, ncols)
    return [d[i][i] for i in range(min(nrows, ncols)) if d[i][i]]


@pytest.fixture
def remainders(monkeypatch) -> list[tuple[int, int]]:
    """The shape of every matrix `invariant_factors` hands to `_snf`."""
    shapes = []

    def spy(a, nrows, ncols):
        shapes.append((nrows, ncols))
        return _snf(a, nrows, ncols)

    monkeypatch.setattr("loophom.homology._snf", spy)
    return shapes


def test_invariant_factors_match_reference_on_seeded_matrices(remainders):
    rng = random.Random(3000)
    entries = (0, 0, 0, 1, -1, 2, -2, 3, 4, 6)
    matrices = list(BRANCH_EXAMPLES)
    for _ in range(3000):
        nrows, ncols = rng.randint(0, 7), rng.randint(0, 7)
        matrices.append([[rng.choice(entries) for _ in range(ncols)] for _ in range(nrows)])
    for _ in range(300):
        matrices.append(random_sparse_matrix(rng, rng.randint(0, 14), rng.randint(0, 14)))
    for a in matrices:
        nrows = len(a)
        ncols = len(a[0]) if nrows else 0
        factors, _ = invariant_factors(columns_of(a, ncols), nrows)
        assert factors == reference_factors(a, nrows, ncols)
    assert sum(1 for r, c in remainders if r and c) > 100  # the Smith remainder ran


NON_UNIT_ENTRIES = (0, 0, 2, -2, 3, -4, 6, 9)
NON_UNITS = st.sampled_from(NON_UNIT_ENTRIES)


@st.composite
def matrices_of(draw, entries):
    r, c = draw(st.integers(0, 8)), draw(st.integers(0, 8))
    return [draw(st.lists(entries, min_size=c, max_size=c)) for _ in range(r)]


def test_invariant_factors_match_reference_property(remainders):
    """Torsion included; matrices without a unit leave everything to the
    Smith remainder."""

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(int_matrices(), matrices_of(NON_UNITS)))
    def check(a):
        nrows = len(a)
        ncols = len(a[0]) if nrows else 0
        factors, _ = invariant_factors(columns_of(a, ncols), nrows)
        assert factors == reference_factors(a, nrows, ncols)

    check()
    assert any(r and c for r, c in remainders)


def test_invariant_factors_split_off_units_before_the_remainder(remainders):
    # the one unit, at row 1 and column 2, clears its row and column,
    # leaving [[2, 4], [6, 8]], whose invariant factors are 2 and 4; the
    # set names the pivot's column
    a = [[23, 39, 7], [3, 5, 1], [12, 18, 2]]
    assert invariant_factors(columns_of(a, 3), 3) == ([1, 2, 4], {2})
    assert remainders == [(2, 2)]


def test_invariant_factors_skip_the_cleared_rows(remainders):
    """The factors with rows cleared are those of the matrix with those
    rows zeroed, and each returned column split off one factor 1."""
    rng = random.Random(2014)
    for _ in range(1000):
        nrows, ncols = rng.randint(0, 9), rng.randint(0, 9)
        a = random_sparse_matrix(rng, nrows, ncols)
        cleared = {r for r in range(nrows) if rng.random() < 0.3}
        zeroed = [[0] * ncols if r in cleared else row for r, row in enumerate(a)]
        factors, pivots = invariant_factors(columns_of(a, ncols), nrows, cleared)
        assert factors == reference_factors(zeroed, nrows, ncols)
        assert pivots <= set(range(ncols)) and len(pivots) <= factors.count(1)
    assert sum(1 for r, c in remainders if r and c) > 100


def test_library_reductions_build_only_vinv(monkeypatch):
    """The top-degree class map and the groups of the `homology-n4` grid
    run one reduction per boundary: for the class map, of the boundary
    alone; for the groups, of whatever no unit pivoted in its coboundary,
    even when that is nothing.  No identity block rides along to become U
    or V, and only D and Vinv come back."""
    bare = []

    def spy(rows, nrows, ncols):
        bare.append(len(rows) == nrows and all(c < ncols for row in rows for c in row))
        d, vinv = _snf(rows, nrows, ncols)
        assert (len(d), len(vinv)) == (nrows, ncols)
        return d, vinv

    monkeypatch.setattr("loophom.homology._snf", spy)
    homology(build_pair_complex(4, 2), 4)
    for n, g in [(3, 3), (4, 2)]:
        homology_groups(build_pair_complex(n, g))
    assert bare == [True] * (1 + 4 + 5)  # boundaries 1..n+1 for the groups


@dataclass
class SparseStub:
    n: int
    ranks: dict[int, int]
    boundaries: dict[int, list]

    def rank(self, d: int) -> int:
        return self.ranks.get(d, 0)


@pytest.mark.parametrize("n, g", sorted(HOMOLOGY_PINS))
def test_homology_groups_match_homology(n, g):
    cx, summaries = reference_summaries(n, g)
    assert homology_groups(cx) == [(h.rank, h.torsion) for h in summaries[:n + 1]]


def test_homology_groups_reject_exactly_nonzero_products_on_random_pairs():
    """The pairs of `test_chain_check_rejects_exactly_nonzero_products_on_random_pairs`,
    given as sparse columns; where the product vanishes, the groups are the
    dense ones, torsion included."""
    rng = random.Random(5150)
    outcomes = []
    torsion = 0
    for trial in range(300):
        below, nd, above = (rng.randint(0, 7) for _ in range(3))
        a, b = random_chain_pair(rng, below, nd, above)
        if trial % 5:
            perturb_one_entry(rng, a, b)
        bad = any(any(row) for row in reference_mat_mul(a, b, inner=nd))
        ranks = {0: below, 1: nd, 2: above}
        sparse = SparseStub(1, ranks, {1: columns_of(a, nd), 2: columns_of(b, above)})
        if bad:
            with pytest.raises(ValueError, match="not a chain complex"):
                homology_groups(sparse)
        else:
            dense = StubComplex(ranks, {1: a, 2: b})
            expected = [
                (oracles.homology(dense, d).rank, oracles.homology(dense, d).torsion)
                for d in (0, 1)
            ]
            assert homology_groups(sparse) == expected
            torsion += any(t for _, t in expected)
        outcomes.append(bad)
    assert 50 < sum(outcomes) < 250  # both verdicts are exercised
    assert torsion > 0


WRONG_SHAPES = [
    # a row index below 0, which list indexing would wrap to row 1
    (SparseStub(1, {0: 2, 1: 1}, {1: [((-1, 1),)], 2: []}), 1),
    # a row index at rank(d - 1)
    (SparseStub(1, {0: 2, 1: 1}, {1: [((2, 1),)], 2: []}), 1),
    # one column for two cells
    (SparseStub(1, {0: 2, 1: 2}, {1: [((0, 1),)], 2: []}), 1),
    # a row past rank(1) in ∂_2, which the ∂∂ = 0 test would index by
    (SparseStub(1, {0: 1, 1: 1, 2: 1}, {1: [()], 2: [((5, 1),)]}), 2),
]


@pytest.mark.parametrize("cx, d", WRONG_SHAPES)
def test_both_entry_points_reject_a_boundary_of_the_wrong_shape(cx, d):
    for read in (lambda: homology(cx, d), lambda: homology_groups(cx)):
        with pytest.raises(ValueError, match="boundary matrix at d has the wrong shape"):
            read()


# ---------------------------------------------------------------------------
# Coboundaries with clearing, against the pass without clearing.
# ---------------------------------------------------------------------------


def groups_without_clearing(cx) -> list[tuple[int, tuple[int, ...]]]:
    """The groups from each boundary's own invariant factors, on its stored
    columns with nothing cleared."""
    factors = [[]] + [
        invariant_factors(cx.boundaries[d], cx.rank(d - 1))[0] for d in range(1, cx.n + 2)
    ]
    return [
        (cx.rank(d) - len(factors[d]) - len(factors[d + 1]),
         tuple(x for x in factors[d + 1] if x > 1))
        for d in range(cx.n + 1)
    ]


def chain_ranks(factors, free) -> list[int]:
    """The ranks of C_0..C_m for `complex_with_groups`."""
    r = [0, *map(len, factors), 0]  # r[d]: the rank of ∂_d
    return [r[d] + r[d + 1] + free[d] for d in range(len(factors) + 1)]


def complex_with_groups(factors, free, ops):
    """Dense boundaries with known homology: ∂_d, for d = 1..m, has the
    divisibility chain factors[d - 1] as its Smith diagonal, and H_d has
    free rank free[d].  C_d starts as the cells ∂_d maps onto a multiple of
    a cell, then the cells ∂_(d+1) hits, then the free ones; each
    elementary operation (i, j, q) of ops[d], i != j, then changes the
    basis of C_d by I + q e_ij, which keeps ∂_d ∂_(d+1) = 0.  Returns the
    ranks and the boundaries."""
    m = len(factors)
    ranks = dict(enumerate(chain_ranks(factors, free)))
    mats = {d: [[0] * ranks[d] for _ in range(ranks[d - 1])] for d in range(1, m + 1)}
    for d in range(1, m + 1):
        start = len(factors[d - 2]) if d > 1 else 0  # ∂_d's targets in C_(d-1)
        for i, f in enumerate(factors[d - 1]):
            mats[d][start + i][i] = f
    for d in range(m + 1):
        for i, j, q in ops[d]:
            if i == j:
                continue
            if d >= 1:  # ∂_d (I - q e_ij): column j less q column i
                for row in mats[d]:
                    row[j] -= q * row[i]
            if d < m:  # (I + q e_ij) ∂_(d+1): row i plus q row j
                above = mats[d + 1]
                above[i] = [x + q * y for x, y in zip(above[i], above[j])]
    return ranks, mats


def divisibility_chain(steps) -> list[int]:
    """The running products of steps: each divides the next."""
    return list(itertools.accumulate(steps, operator.mul))


def check_groups_with_clearing(n, factors, free, ops) -> None:
    """On the complex `complex_with_groups` builds, read at power n, whose
    cells stop at degree n or n + 1, `homology_groups` gives the groups the
    construction fixes, as do the pass without clearing and the dense
    reference."""
    ranks, mats = complex_with_groups(factors, free, ops)
    expected = [
        (free[d], tuple(x for x in ([*factors, []])[d] if x > 1)) for d in range(n + 1)
    ]
    dense = StubComplex(ranks, mats)
    columns = {d: columns_of(dense.dense(d), dense.rank(d)) for d in range(1, n + 2)}
    sparse = SparseStub(n, ranks, columns)
    groups = homology_groups(sparse)
    assert groups == expected
    assert groups == groups_without_clearing(sparse)
    assert groups == [
        (oracles.homology(dense, d).rank, oracles.homology(dense, d).torsion) for d in range(n + 1)
    ]


@pytest.fixture
def cleared(monkeypatch) -> list[int]:
    """How many columns each coboundary `homology_groups` reduces skips."""
    counts = []

    def spy(columns, nrows, skip=frozenset()):
        counts.append(len(skip))
        return invariant_factors(columns, nrows, skip)

    monkeypatch.setattr("loophom.homology.invariant_factors", spy)
    return counts


def test_homology_groups_with_clearing_match_on_seeded_complexes(cleared, remainders):
    rng = random.Random(2011)
    for _ in range(200):
        m = rng.randint(3, 4)
        factors = [
            divisibility_chain(rng.choice((1, 1, 1, 2, 3)) for _ in range(rng.randint(0, 3)))
            for _ in range(m)
        ]
        free = [rng.randint(0, 2) for _ in range(m + 1)]
        ops = [
            [(rng.randrange(c), rng.randrange(c), rng.choice((1, -1, 2))) for _ in range(2 * c)]
            for c in chain_ranks(factors, free)
        ]
        check_groups_with_clearing(m - rng.randint(0, 1), factors, free, ops)
    assert sum(cleared) > 0  # clearing skipped columns
    assert any(r and c for r, c in remainders)  # and left torsion to `_snf`


@st.composite
def complexes_with_groups(draw):
    m = draw(st.integers(3, 4))
    factors = [
        divisibility_chain(draw(st.lists(st.sampled_from((1, 1, 2, 3)), max_size=3)))
        for _ in range(m)
    ]
    free = draw(st.lists(st.integers(0, 2), min_size=m + 1, max_size=m + 1))
    ops = [
        draw(st.lists(
            st.tuples(st.integers(0, c - 1), st.integers(0, c - 1), st.sampled_from((1, -1, 2))),
            max_size=2 * c,
        )) if c else []
        for c in chain_ranks(factors, free)
    ]
    return m - draw(st.integers(0, 1)), factors, free, ops


def test_homology_groups_with_clearing_match_property(cleared, remainders):
    @settings(max_examples=200, deadline=None)
    @given(complexes_with_groups())
    def check(case):
        check_groups_with_clearing(*case)

    check()
    assert sum(cleared) > 0
    assert any(r and c for r, c in remainders)


@pytest.mark.parametrize("n, g", [(4, 3), (5, 2)])
def test_homology_groups_past_the_grid(n, g):
    """Past `HOMOLOGY_PINS`: H_d = 0 below n and H_n = Z^(g + ... + g^n),
    as the pass without clearing also finds, and `homology()`, which reads
    the stored columns into its rows on its own, gives the same top rank."""
    cx = build_pair_complex(n, g)
    groups = homology_groups(cx)
    assert groups == [(0, ())] * n + [(sum(g**k for k in range(1, n + 1)), ())]
    assert groups == groups_without_clearing(cx)
    assert homology(cx, n).rank == groups[n][0]
