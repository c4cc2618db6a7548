"""Acceptance gate: one test (and one printed pass/fail line) per criterion.

Each criterion is exact -- integer or rational arithmetic throughout, no
tolerances.  Bounds follow the published contract for the suite; the
helpers below mirror the per-module tests but run at the contract bounds.
"""

from __future__ import annotations

import itertools
import time
from random import Random

from loophom.affine import f_map, ftilde_map
from loophom.chains import (
    boundary_chain,
    build_homotopy_L,
    chain_compose,
    div_chain,
    identity_chain,
)
from loophom.homology import det, homology, smith_normal_form
from loophom.permutations import (
    bij,
    compose,
    adjacent_transposition,
    enumerate_ens,
    enumerate_shuffles,
    epsilon,
    face_perm,
    inversions_at,
    invol,
    is_shuffle,
    point_sign,
)
from loophom.transform import (
    naturality_check,
    nu_eval,
    nu_vector,
    random_simplex_points,
    sampling_oracle,
    symbolic_cancellation,
    vanishing_sum_check,
)
from loophom.wedge import build_pair_complex
from oracles import context, mat_mul, nu_basis_matrix, shuffle_transposition_test


def reported(label):
    def wrap(fn):
        def run():
            try:
                fn()
            except BaseException:
                print(f"{label}: FAIL")
                raise
            print(f"{label}: PASS")

        run.__name__ = fn.__name__
        run.__doc__ = fn.__doc__
        return run

    return wrap


# ---------------------------------------------------------------------------
# 1. Subdivision commutes with the boundary, n <= 4, k <= 4, under 10 s.
# ---------------------------------------------------------------------------


@reported("criterion 01 subdivision-commutation")
def test_criterion_01_subdivision_commutes_with_boundary():
    t0 = time.perf_counter()
    for n in range(1, 5):
        for k in range(1, 5):
            lhs = chain_compose(div_chain(n, k), boundary_chain(n))
            rhs = chain_compose(boundary_chain(n), div_chain(n - 1, k))
            assert lhs == rhs, (n, k)
    assert time.perf_counter() - t0 < 10.0


# ---------------------------------------------------------------------------
# 2. The constructed homotopy witnesses identity - subdivision, n,k <= 3.
# ---------------------------------------------------------------------------


@reported("criterion 02 homotopy-identity")
def test_criterion_02_homotopy_identity():
    for k in (1, 2, 3):
        levels = build_homotopy_L(k, 3)
        for m in range(0, 4):
            defect = identity_chain(m) - div_chain(m, k)
            defect = defect - chain_compose(levels[m], boundary_chain(m + 1))
            if m >= 1:
                defect = defect - chain_compose(boundary_chain(m), levels[m - 1])
            assert defect.is_zero(), (k, m)


# ---------------------------------------------------------------------------
# 3. Involution suite, exhaustive n <= 4, k <= 3, v in [-1, k]^n.
# ---------------------------------------------------------------------------


@reported("criterion 03 involution-suite")
def test_criterion_03_involution_suite():
    for n in range(1, 5):
        perms = list(itertools.permutations(range(1, n + 1)))
        for k in (1, 2, 3):
            for v in itertools.product(range(-1, k + 1), repeat=n):
                for sigma in perms:
                    for i in range(0, n + 1):
                        x = (v, sigma, i)
                        y = invol(x)
                        assert invol(y) == x, x
                        assert y != x, x
                        assert point_sign(y[1], y[2]) == -point_sign(sigma, i), x
                        fx, sx = f_map(x, k)
                        fy, sy = f_map(y, k)
                        assert fx == fy and sy == -sx, x


# ---------------------------------------------------------------------------
# 4. Boundary-term bijection onto the unpaired triples, n <= 4, k <= 3.
# ---------------------------------------------------------------------------


@reported("criterion 04 bijection-suite")
def test_criterion_04_bijection_suite():
    for n in range(1, 5):
        for k in (1, 2, 3):
            pairs = set(enumerate_ens(n, k))
            survivors = set()
            for v, sigma in pairs:
                for i in range(0, n + 1):
                    pv, psigma, _ = invol((v, sigma, i))
                    if (pv, psigma) not in pairs:
                        survivors.add((v, sigma, i))
            image = set()
            for w, tau in enumerate_ens(n - 1, k):
                for i in range(0, n + 1):
                    x = bij(w, tau, i, k)
                    assert x not in image, (w, tau, i)
                    image.add(x)
                    mt, st = ftilde_map(w, tau, i, k)
                    mf, sf = f_map(x, k)
                    assert mf == mt and sf == st, (w, tau, i)
            assert image == survivors, (n, k)


# ---------------------------------------------------------------------------
# 5. Sign laws for m <= 6; transposition criterion vs brute force, n <= 5.
# ---------------------------------------------------------------------------


@reported("criterion 05 combinatorial-sign-laws")
def test_criterion_05_combinatorial_sign_laws():
    for m in range(1, 7):
        for tau in itertools.permutations(range(1, m + 1)):
            for i in range(1, m + 1):
                assert len(inversions_at(tau, i)) % 2 == (tau[i - 1] - i) % 2
            for i in range(0, m + 2):
                expected = epsilon(tau)
                if 1 <= i <= m:
                    expected *= (-1) ** (tau[i - 1] - i)
                assert epsilon(face_perm(tau, i)) == expected, (tau, i)
    for n in range(1, 6):
        for length in range(1, n + 1):
            for parts in itertools.product(range(1, n + 1), repeat=length):
                if sum(parts) != n:
                    continue
                for sigma in enumerate_shuffles(parts):
                    for i in range(1, n):
                        swapped = compose(adjacent_transposition(n, i), sigma)
                        exits = not is_shuffle(parts, swapped)
                        assert (
                            shuffle_transposition_test(parts, sigma, i) == exits
                        ), (parts, sigma, i)


# ---------------------------------------------------------------------------
# 6. The subdivision index set has exactly k^n elements, n <= 5, k <= 4.
# ---------------------------------------------------------------------------


@reported("criterion 06 index-set-count")
def test_criterion_06_index_set_count():
    for n in range(0, 6):
        for k in range(1, 5):
            listed = enumerate_ens(n, k)
            assert len(listed) == k**n, (n, k)
            assert len(set(listed)) == len(listed), (n, k)


# ---------------------------------------------------------------------------
# 7. Pointwise sampling oracle: 100 seeded rational points per case,
#    words of length <= 3, n <= 3.
# ---------------------------------------------------------------------------


@reported("criterion 07 sampling-oracle")
def test_criterion_07_sampling_oracle():
    words = [
        tuple((i, 1) for i in letters)
        for length in (1, 2, 3)
        for letters in itertools.product((1, 2), repeat=length)
    ]
    for n in (1, 2, 3):
        points = random_simplex_points(n, 100, seed=900 + n)
        assert len(points) == 100
        for w in words:
            assert sampling_oracle(w, n, points), (w, n)


# ---------------------------------------------------------------------------
# 8. Symbolic inclusion-exclusion cancellation is exactly zero, n <= 3.
# ---------------------------------------------------------------------------


@reported("criterion 08 symbolic-cancellation")
def test_criterion_08_symbolic_cancellation():
    for n in (1, 2, 3):
        assert symbolic_cancellation(n) == {}


# ---------------------------------------------------------------------------
# 9. Subset-alternating sums vanish in homology: g <= 2, n <= 3,
#    |gamma| <= 2, single-letter loops.
# ---------------------------------------------------------------------------


@reported("criterion 09 alternating-sums-vanish")
def test_criterion_09_alternating_sums_vanish():
    for g in (1, 2):
        letters = [((i, 1),) for i in range(1, g + 1)]
        gammas = [()]
        for length in (1, 2):
            for combo in itertools.product(letters, repeat=length):
                gammas.append(sum(combo, ()))
        for n in (1, 2, 3):
            for gamma in gammas:
                for alphas in itertools.product(letters, repeat=n + 1):
                    ok, coords = vanishing_sum_check(gamma, list(alphas), *context(n, g))
                    assert ok, (g, n, gamma, alphas, coords)


# ---------------------------------------------------------------------------
# 10. Rank corroboration: H_n of the degree-n pair is free of rank n for
#     the rank-1 wedge, and the evaluation matrix on expansion
#     coordinates has rank n with kernel exactly the empty-word line.
# ---------------------------------------------------------------------------


@reported("criterion 10 homology-rank-and-matrix")
def test_criterion_10_homology_rank_and_matrix():
    for n in (1, 2, 3):
        cx = build_pair_complex(n, 1)
        summary = homology(cx, n)
        assert summary.rank == n, n
        mat = nu_basis_matrix(n)
        assert len(mat) == n and len(mat[0]) == n + 1
        assert all(row[0] == 0 for row in mat), n
        _, d, _ = smith_normal_form([row[1:] for row in mat])
        rank = sum(1 for i in range(n) if d[i][i])
        assert rank == n, n


# ---------------------------------------------------------------------------
# 11. Frozen value pins in the canonical degree-2 basis.
# ---------------------------------------------------------------------------


@reported("criterion 11 value-pins")
def test_criterion_11_value_pins():
    cx = build_pair_complex(2, 1)
    a = ((1, 2), (1, 1))
    b = ((1, 1), (1, 2))
    assert list(cx.basis(2)) == [a, b]
    x = ((1, 1),)
    assert nu_vector(x, cx) == [1, 0]
    assert nu_vector(x * 2, cx) == [3, -1]
    assert nu_vector(x * 3, cx) == [6, -3]
    assert nu_eval(x, 2, 1) == (1, 0)
    assert nu_eval(x * 2, 2, 1) == (3, -1)
    assert nu_eval(x * 3, 2, 1) == (6, -3)


# ---------------------------------------------------------------------------
# 12. Naturality for every relabel/collapse map, rank <= 2, |w| <= 2, n <= 2.
# ---------------------------------------------------------------------------


@reported("criterion 12 naturality")
def test_criterion_12_naturality():
    ranks = (1, 2)
    for n in (1, 2):
        for g_src in ranks:
            words = [
                tuple((i, 1) for i in letters)
                for length in (1, 2)
                for letters in itertools.product(range(1, g_src + 1), repeat=length)
            ]
            for g_tgt in ranks:
                targets = [None] + list(range(1, g_tgt + 1))
                for images in itertools.product(targets, repeat=g_src):
                    gen_map = dict(enumerate(images, start=1))
                    for w in words:
                        assert naturality_check(
                            gen_map, w, context(n, g_src)[0], *context(n, g_tgt)
                        ), (gen_map, w, n)


# ---------------------------------------------------------------------------
# 13. Smith normal form contract on 200 seeded matrices up to 30 x 30.
# ---------------------------------------------------------------------------


@reported("criterion 13 snf-contract")
def test_criterion_13_snf_contract():
    rng = Random(20260819)
    for trial in range(200):
        rows = rng.randint(1, 30)
        cols = rng.randint(1, 30)
        a = [[rng.randint(-50, 50) for _ in range(cols)] for _ in range(rows)]
        u, d, v = smith_normal_form(a)
        assert mat_mul(mat_mul(u, a), v) == d, trial
        assert abs(det(u)) == 1, trial
        assert abs(det(v)) == 1, trial
        diag = [d[i][i] for i in range(min(rows, cols))]
        for i in range(len(diag) - 1):
            assert diag[i] >= 0, trial
            if diag[i + 1]:
                assert diag[i] != 0 and diag[i + 1] % diag[i] == 0, trial
        for i in range(rows):
            for j in range(cols):
                if i != j:
                    assert d[i][j] == 0, trial
