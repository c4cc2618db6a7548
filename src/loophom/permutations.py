"""Permutations of [1, n] and the shuffle/sign combinatorics of subdivision.

A permutation is stored in one-line notation as the tuple of images
``(sigma(1), ..., sigma(n))``; everything here is 1-indexed so that the
block and face formulas read the same way they are usually written.

Beyond the basics (composition, inverse, sign) the module provides:

* block shuffles of a composition ``(n_1, ..., n_k)`` -- permutations
  increasing on each consecutive block;
* the level-set pairs ``(v, sigma)`` indexing the pieces of the degree-k
  edgewise subdivision: ``v`` a nondecreasing vector in ``[0, k-1]^n`` and
  ``sigma`` a shuffle of its level-set sizes;
* the face permutation ``face_perm(tau, i)`` of [1, n] induced by doubling
  the i-th coordinate of a permutation of [1, n-1], with its sign law;
* a fixed-point-free, sign-reversing involution on triples
  ``(v, sigma, i)`` that drives the cancellation in the subdivision/boundary
  commutation, and the bijection matching its leftover terms with
  (n-1)-dimensional data.

The shuffles of each composition and the pairs of each (n, k) are built
once per process and kept as tuples; `enumerate_shuffles` and
`enumerate_ens` hand out a fresh list of them on every call, so a caller
may sort or extend its list without touching the next caller's.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

Perm = tuple[int, ...]
# A point of Z^n x S_n x [0, n]: (integer vector, permutation, face index).
InvolPoint = tuple[tuple[int, ...], Perm, int]


def compose(s: Perm, t: Perm) -> Perm:
    """Composition (s o t)(i) = s(t(i)), applying t first.

    >>> compose((2, 1, 3), (1, 3, 2))
    (2, 3, 1)
    """
    if len(s) != len(t):
        raise ValueError(f"cannot compose permutations of sizes {len(s)} and {len(t)}")
    return tuple(s[x - 1] for x in t)


def inverse(s: Perm) -> Perm:
    inv = [0] * len(s)
    for i, x in enumerate(s):
        inv[x - 1] = i + 1
    return tuple(inv)


@lru_cache(maxsize=None)
def epsilon(s: Perm) -> int:
    """Sign (-1)^{number of inversions}; cached, so s must be a tuple.

    >>> epsilon((1, 2, 3)), epsilon((2, 1)), epsilon((2, 3, 1))
    (1, -1, 1)
    """
    inv = sum(
        1
        for a in range(len(s))
        for b in range(a + 1, len(s))
        if s[a] > s[b]
    )
    return -1 if inv % 2 else 1


def adjacent_transposition(n: int, i: int) -> Perm:
    """The transposition s_{i,i+1} in S_n, 1 <= i <= n-1."""
    if not 1 <= i <= n - 1:
        raise ValueError(f"adjacent transposition index {i} out of range for S_{n}")
    images = list(range(1, n + 1))
    images[i - 1], images[i] = images[i], images[i - 1]
    return tuple(images)


def cycle_perm(n: int) -> Perm:
    """The n-cycle c with c(i) = i+1 for i < n and c(n) = 1; sign (-1)^{n-1}.

    >>> cycle_perm(3)
    (2, 3, 1)
    """
    return tuple(range(2, n + 1)) + (1,)


def act_on_coords(s: Perm, xs: Sequence) -> tuple:
    """The coordinate action sigma*: (sigma* x)_p = x_{sigma(p)}.

    Contravariant: act(compose(s, t), x) == act(t, act(s, x)).
    """
    return tuple(xs[s[p] - 1] for p in range(len(s)))


def inversions_at(tau: Perm, i: int) -> set[int]:
    """Indices j with (j - i)(tau(j) - tau(i)) < 0; parity tau(i) - i (mod 2).

    >>> sorted(inversions_at((2, 3, 1), 1))
    [3]
    >>> sorted(inversions_at((2, 3, 1), 3))
    [1, 2]
    """
    n = len(tau)
    if not 1 <= i <= n:
        raise ValueError(f"index {i} out of range for S_{n}")
    ti = tau[i - 1]
    return {j for j in range(1, n + 1) if (j - i) * (tau[j - 1] - ti) < 0}


def face_perm(tau: Perm, i: int) -> Perm:
    """The permutation of [1, n] induced by tau in S_{n-1} at face index i.

    For i in [1, n-1] it is the unique sigma with sigma(i) = tau(i),
    sigma(i+1) = tau(i) + 1 that projects back onto tau when the doubled
    value pair is collapsed; at the ends it extends tau by fixing 1 (i = 0,
    after shifting everything up) or fixing n (i = n).  Its sign is
    epsilon(tau) * (-1)^{tau(i) - i} in the middle range and epsilon(tau)
    at the ends.

    >>> face_perm((2, 1), 1)
    (2, 3, 1)
    >>> face_perm((2, 1), 0)
    (1, 3, 2)
    >>> face_perm((2, 1), 3)
    (2, 1, 3)
    """
    n = len(tau) + 1
    if not 0 <= i <= n:
        raise ValueError(f"face index {i} out of range for [0, {n}]")
    if i == 0:
        return (1,) + tuple(x + 1 for x in tau)
    if i == n:
        return tau + (n,)
    ti = tau[i - 1]
    images = []
    for x in range(1, n + 1):
        if x == i:
            images.append(ti)
        elif x == i + 1:
            images.append(ti + 1)
        else:
            y = tau[(x if x < i else x - 1) - 1]
            images.append(y if y < ti else y + 1)
    return tuple(images)


def point_sign(sigma: Perm, i: int) -> int:
    """The sign (-1)^i * epsilon(sigma) attached to a triple (v, sigma, i)."""
    return epsilon(sigma) * (-1 if i % 2 else 1)


def invol(point: InvolPoint) -> InvolPoint:
    """Sign-reversing involution on Z^n x S_n x [0, n].

    Middle indices get an adjacent swap on the left of sigma; the extreme
    indices i = n and i = 0 are exchanged, shifting v by the unit vector at
    sigma^{-1}(n) (resp. sigma^{-1}(1)) and twisting sigma by the n-cycle.
    It has no fixed points, flips ``point_sign``, and leaves the composite
    affine map (subdivision piece followed by the i-th face) unchanged.

    >>> invol(((0, 0), (1, 2), 2))
    ((0, 1), (2, 1), 0)
    """
    v, sigma, i = point
    n = len(v)
    if len(sigma) != n:
        raise ValueError("vector and permutation sizes differ")
    if not 0 <= i <= n:
        raise ValueError(f"face index {i} out of range for [0, {n}]")
    if 0 < i < n:
        return (v, compose(adjacent_transposition(n, i), sigma), i)
    if i == n:
        pos = sigma.index(n)  # sigma^{-1}(n), 0-based
        bumped = v[:pos] + (v[pos] + 1,) + v[pos + 1:]
        return (bumped, compose(cycle_perm(n), sigma), 0)
    pos = sigma.index(1)  # sigma^{-1}(1), 0-based
    lowered = v[:pos] + (v[pos] - 1,) + v[pos + 1:]
    return (lowered, compose(inverse(cycle_perm(n)), sigma), n)


def bij(w: Sequence[int], tau: Perm, i: int, k: int) -> InvolPoint:
    """Boundary bijection sending (w, tau, i) over [0, k-1]^{n-1} x S_{n-1}
    to the triple of dimension n whose involution partner falls outside the
    level-set pairs.

    Middle indices duplicate the i-th entry of w and apply ``face_perm``;
    the ends prepend 0 (i = 0) or append k-1 (i = n).

    >>> bij((0,), (1,), 1, 2)
    ((0, 0), (1, 2), 1)
    >>> bij((0,), (1,), 0, 2)
    ((0, 0), (1, 2), 0)
    >>> bij((0,), (1,), 2, 2)
    ((0, 1), (1, 2), 2)
    """
    w = tuple(w)
    n = len(w) + 1
    if not 0 <= i <= n:
        raise ValueError(f"face index {i} out of range for [0, {n}]")
    if i == 0:
        return ((0,) + w, face_perm(tau, 0), 0)
    if i == n:
        return (w + (k - 1,), face_perm(tau, n), n)
    doubled = w[:i] + (w[i - 1],) + w[i:]
    return (doubled, face_perm(tau, i), tau[i - 1])


# ---------------------------------------------------------------------------
# Shuffles of a composition.
# ---------------------------------------------------------------------------


def block_bounds(parts: Sequence[int]) -> list[tuple[int, int]]:
    """Half-open 1-based position ranges [lo, hi) of each block."""
    bounds = []
    offset = 0
    for p in parts:
        bounds.append((offset + 1, offset + p + 1))
        offset += p
    return bounds


def is_shuffle(parts: Sequence[int], sigma: Perm) -> bool:
    """Brute-force membership: sigma increasing on every block of parts."""
    if sum(parts) != len(sigma):
        return False
    for lo, hi in block_bounds(parts):
        for x in range(lo, hi - 1):
            if sigma[x - 1] > sigma[x]:
                return False
    return True


def enumerate_shuffles(parts: Sequence[int]) -> list[Perm]:
    """All block shuffles of the composition, in lexicographic image order,
    as a fresh list.

    The count is the multinomial coefficient; zero parts impose nothing.

    >>> enumerate_shuffles((1, 1))
    [(1, 2), (2, 1)]
    >>> enumerate_shuffles((2, 0))
    [(1, 2)]
    """
    return list(_shuffles(tuple(parts)))


@lru_cache(maxsize=None)
def _shuffles(parts: tuple[int, ...]) -> tuple[Perm, ...]:
    """The block shuffles of `enumerate_shuffles`, built once per
    composition."""
    n = sum(parts)

    def walk(sizes: tuple[int, ...], values: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        if not sizes:
            yield ()
            return
        for chosen in itertools.combinations(values, sizes[0]):
            rest = tuple(x for x in values if x not in chosen)
            for tail in walk(sizes[1:], rest):
                yield chosen + tail

    return tuple(walk(parts, tuple(range(1, n + 1))))


# ---------------------------------------------------------------------------
# Level-set pairs (v, sigma) for the degree-k subdivision.
# ---------------------------------------------------------------------------


def level_sizes(v: Sequence[int], k: int) -> tuple[int, ...]:
    """Sizes of the level sets v^{-1}(0), ..., v^{-1}(k-1)."""
    sizes = [0] * k
    for x in v:
        sizes[x] += 1
    return tuple(sizes)


def enumerate_ens(n: int, k: int) -> list[tuple[tuple[int, ...], Perm]]:
    """All k^n pairs (v, sigma), lexicographic by v then by sigma images,
    as a fresh list.

    >>> enumerate_ens(1, 3)
    [((0,), (1,)), ((1,), (1,)), ((2,), (1,))]
    """
    if n < 0 or k < 1:
        raise ValueError("need n >= 0 and k >= 1")
    return list(_ens(n, k))


@lru_cache(maxsize=None)
def _ens(n: int, k: int) -> tuple[tuple[tuple[int, ...], Perm], ...]:
    """The pairs of `enumerate_ens`, built once per (n, k)."""
    return tuple(
        (v, sigma)
        for v in itertools.combinations_with_replacement(range(k), n)
        for sigma in _shuffles(level_sizes(v, k))
    )


def iter_compositions(n: int, k: int) -> Iterable[tuple[int, ...]]:
    """All weak compositions of n into k parts (parts >= 0), lex order."""
    if k == 0:
        if n == 0:
            yield ()
        return
    for first in range(n + 1):
        for rest in iter_compositions(n - first, k - 1):
            yield (first,) + rest
