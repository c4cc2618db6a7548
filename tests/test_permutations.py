"""Tests for the permutation/shuffle layer.

Brute-force oracles (filtering all of S_n) come first; the enumeration and
criterion functions are checked against them exhaustively in small sizes.
"""

from __future__ import annotations

import itertools
import math

from hypothesis import given, strategies as st

from loophom.permutations import (
    InvolPoint,
    Perm,
    act_on_coords,
    adjacent_transposition,
    bij,
    compose,
    cycle_perm,
    enumerate_ens,
    enumerate_shuffles,
    epsilon,
    face_perm,
    inverse,
    inversions_at,
    invol,
    is_shuffle,
    iter_compositions,
    level_sizes,
    point_sign,
)
from oracles import identity, is_ens, shuffle_transposition_test

# ---------------------------------------------------------------------------
# Oracles.
# ---------------------------------------------------------------------------


def shuffle_oracle(parts: tuple[int, ...]) -> list[Perm]:
    """All permutations increasing on each block, by exhaustive filtering."""
    n = sum(parts)
    found = []
    for images in itertools.permutations(range(1, n + 1)):
        lo = 0
        ok = True
        for p in parts:
            block = images[lo:lo + p]
            if list(block) != sorted(block):
                ok = False
                break
            lo += p
        if ok:
            found.append(images)
    return found


def face_perm_oracle(tau: Perm, i: int) -> Perm:
    """The unique permutation satisfying the defining constraints, found by
    exhaustive search (deleting the inserted value must give tau back)."""
    n = len(tau) + 1

    def collapses_to(sigma: Perm, pos: int, val: int) -> bool:
        rest = [x for p, x in enumerate(sigma, start=1) if p != pos]
        reduced = tuple(x if x < val else x - 1 for x in rest)
        return reduced == tau

    matches = []
    for sigma in itertools.permutations(range(1, n + 1)):
        if i == 0:
            if sigma[0] == 1 and collapses_to(sigma, 1, 1):
                matches.append(sigma)
        elif i == n:
            if sigma[n - 1] == n and sigma[: n - 1] == tau:
                matches.append(sigma)
        else:
            if (
                sigma[i - 1] == tau[i - 1]
                and sigma[i] == tau[i - 1] + 1
                and collapses_to(sigma, i + 1, tau[i - 1] + 1)
            ):
                matches.append(sigma)
    assert len(matches) == 1, (tau, i, matches)
    return matches[0]


def all_perms(n: int) -> list[Perm]:
    return list(itertools.permutations(range(1, n + 1)))


perm_strategy = st.integers(min_value=1, max_value=6).flatmap(
    lambda n: st.permutations(list(range(1, n + 1)))
).map(tuple)


# ---------------------------------------------------------------------------
# Group basics.
# ---------------------------------------------------------------------------


@given(perm_strategy)
def test_inverse_composes_to_identity(s):
    n = len(s)
    assert compose(s, inverse(s)) == identity(n)
    assert compose(inverse(s), s) == identity(n)


def test_compose_applies_right_factor_first():
    s = (2, 1, 3)
    t = (1, 3, 2)
    assert compose(s, t) == (2, 3, 1)
    assert compose(t, s) == (3, 1, 2)


@given(st.integers(min_value=1, max_value=5).flatmap(
    lambda n: st.tuples(
        st.permutations(list(range(1, n + 1))).map(tuple),
        st.permutations(list(range(1, n + 1))).map(tuple),
    )
))
def test_epsilon_is_multiplicative(pair):
    s, t = pair
    assert epsilon(compose(s, t)) == epsilon(s) * epsilon(t)


def test_epsilon_frozen_values():
    assert epsilon((1, 2, 3)) == 1
    assert epsilon((2, 1)) == -1
    assert epsilon((2, 3, 1)) == 1
    # the n-cycle has sign (-1)^(n-1)
    for n in range(1, 8):
        assert epsilon(cycle_perm(n)) == (-1) ** (n - 1)


@given(st.integers(min_value=1, max_value=5).flatmap(
    lambda n: st.tuples(
        st.permutations(list(range(1, n + 1))).map(tuple),
        st.permutations(list(range(1, n + 1))).map(tuple),
        st.lists(st.integers(-5, 5), min_size=n, max_size=n).map(tuple),
    )
))
def test_coordinate_action_is_contravariant(data):
    s, t, xs = data
    assert act_on_coords(compose(s, t), xs) == act_on_coords(t, act_on_coords(s, xs))


# ---------------------------------------------------------------------------
# Inversion sets.
# ---------------------------------------------------------------------------


def test_inversions_at_frozen():
    assert inversions_at((2, 3, 1), 1) == {3}
    assert inversions_at((2, 3, 1), 3) == {1, 2}
    assert inversions_at((1, 2, 3), 2) == set()


def test_inversion_count_parity_matches_displacement():
    for n in range(1, 7):
        for tau in all_perms(n):
            for i in range(1, n + 1):
                count = len(inversions_at(tau, i))
                assert (count - (tau[i - 1] - i)) % 2 == 0


# ---------------------------------------------------------------------------
# Face permutations.
# ---------------------------------------------------------------------------


def test_face_perm_frozen():
    assert face_perm((2, 1), 1) == (2, 3, 1)
    assert face_perm((2, 1), 0) == (1, 3, 2)
    assert face_perm((2, 1), 2) == (3, 1, 2)
    assert face_perm((2, 1), 3) == (2, 1, 3)


def test_face_perm_matches_oracle_exhaustively():
    for n in range(2, 6):
        for tau in all_perms(n - 1):
            for i in range(0, n + 1):
                assert face_perm(tau, i) == face_perm_oracle(tau, i)


def test_face_perm_sign_law():
    # middle indices scale the sign by (-1)^(tau(i) - i); ends preserve it
    for n in range(2, 6):
        for tau in all_perms(n - 1):
            assert epsilon(face_perm(tau, 0)) == epsilon(tau)
            assert epsilon(face_perm(tau, n)) == epsilon(tau)
            for i in range(1, n):
                expected = epsilon(tau) * (-1) ** (tau[i - 1] - i)
                assert epsilon(face_perm(tau, i)) == expected


# ---------------------------------------------------------------------------
# The involution.
# ---------------------------------------------------------------------------


def small_points(n: int, lo: int = -1, hi: int = 2) -> list[InvolPoint]:
    return [
        (v, sigma, i)
        for v in itertools.product(range(lo, hi + 1), repeat=n)
        for sigma in all_perms(n)
        for i in range(0, n + 1)
    ]


def test_invol_frozen_example():
    assert invol(((0, 0), (1, 2), 2)) == ((0, 1), (2, 1), 0)


def test_invol_is_a_sign_reversing_involution_without_fixed_points():
    for n in (1, 2, 3):
        for point in small_points(n):
            partner = invol(point)
            assert partner != point
            assert invol(partner) == point
            assert point_sign(partner[1], partner[2]) == -point_sign(point[1], point[2])


# ---------------------------------------------------------------------------
# Shuffles.
# ---------------------------------------------------------------------------


def compositions_to_test() -> list[tuple[int, ...]]:
    out = []
    for k in range(0, 4):
        for n in range(0, 6):
            out.extend(iter_compositions(n, k))
    return out


def test_enumerate_shuffles_matches_oracle():
    for parts in compositions_to_test():
        got = enumerate_shuffles(parts)
        assert got == sorted(shuffle_oracle(parts))
        assert len(set(got)) == len(got)


def test_shuffle_count_is_multinomial():
    for parts in compositions_to_test():
        n = sum(parts)
        expected = math.factorial(n)
        for p in parts:
            expected //= math.factorial(p)
        assert len(enumerate_shuffles(parts)) == expected


def test_is_shuffle_agrees_with_oracle():
    for parts in compositions_to_test():
        expected = set(shuffle_oracle(parts))
        for sigma in all_perms(sum(parts)):
            assert is_shuffle(parts, sigma) == (sigma in expected)


def test_transposition_exit_criterion_matches_brute_force():
    for parts in compositions_to_test():
        n = sum(parts)
        if n < 2:
            continue
        for sigma in enumerate_shuffles(parts):
            for i in range(1, n):
                swapped = compose(adjacent_transposition(n, i), sigma)
                left = not is_shuffle(parts, swapped)
                assert shuffle_transposition_test(parts, sigma, i) == left


# ---------------------------------------------------------------------------
# Subdivision index pairs.
# ---------------------------------------------------------------------------


def ens_oracle(n: int, k: int) -> set[tuple[tuple[int, ...], Perm]]:
    found = set()
    for v in itertools.product(range(k), repeat=n):
        if any(v[p] > v[p + 1] for p in range(n - 1)):
            continue
        for sigma in shuffle_oracle(level_sizes(v, k)):
            found.add((v, sigma))
    return found


def test_enumerate_ens_matches_oracle_and_count():
    for n in range(0, 5):
        for k in range(1, 5):
            got = enumerate_ens(n, k)
            assert len(got) == k ** n
            assert set(got) == ens_oracle(n, k)
            assert got == sorted(got)


def test_is_ens_agrees_with_membership():
    for n in range(0, 4):
        for k in range(1, 4):
            members = ens_oracle(n, k)
            for v in itertools.product(range(-1, k + 1), repeat=n):
                for sigma in all_perms(n):
                    assert is_ens(v, sigma, k) == ((v, sigma) in members)


def test_enumerate_ens_frozen_small():
    assert enumerate_ens(1, 3) == [((0,), (1,)), ((1,), (1,)), ((2,), (1,))]
    assert enumerate_ens(2, 2) == [
        ((0, 0), (1, 2)),
        ((0, 1), (1, 2)),
        ((0, 1), (2, 1)),
        ((1, 1), (1, 2)),
    ]


# ---------------------------------------------------------------------------
# The boundary bijection.
# ---------------------------------------------------------------------------


def survivors(n: int, k: int) -> set[InvolPoint]:
    """Triples over the index pairs whose involution partner leaves the set."""
    index_set = set(enumerate_ens(n, k))
    out = set()
    for (v, sigma) in index_set:
        for i in range(0, n + 1):
            pv, psigma, _ = invol((v, sigma, i))
            if (pv, psigma) not in index_set:
                out.add((v, sigma, i))
    return out


def test_bij_frozen_boundary_cases():
    assert bij((0,), (1,), 1, 2) == ((0, 0), (1, 2), 1)
    assert bij((0,), (1,), 0, 2) == ((0, 0), (1, 2), 0)
    assert bij((0,), (1,), 2, 2) == ((0, 1), (1, 2), 2)


def test_bij_hits_exactly_the_uncancelled_triples():
    for n in range(1, 5):
        for k in range(1, 4):
            image = {}
            for (w, tau) in enumerate_ens(n - 1, k):
                for i in range(0, n + 1):
                    target = bij(w, tau, i, k)
                    v, sigma, j = target
                    assert is_ens(v, sigma, k), (w, tau, i, target)
                    assert target not in image, "bij is not injective"
                    image[target] = (w, tau, i)
                    # sign transport: (-1)^j eps(sigma) == (-1)^i eps(tau)
                    assert point_sign(sigma, j) == (-1) ** i * epsilon(tau)
            assert set(image) == survivors(n, k)


# ---------------------------------------------------------------------------
# Compositions helper.
# ---------------------------------------------------------------------------


def test_iter_compositions():
    assert list(iter_compositions(2, 2)) == [(0, 2), (1, 1), (2, 0)]
    assert list(iter_compositions(0, 0)) == [()]
    assert list(iter_compositions(3, 0)) == []
    for n, k in [(4, 3), (5, 2), (0, 3)]:
        parts_list = list(iter_compositions(n, k))
        assert all(sum(p) == n and len(p) == k for p in parts_list)
        assert len(parts_list) == math.comb(n + k - 1, k - 1)
