"""Independent reference implementations the tests compare the library with.

Each function restates a definition directly (pointwise, by membership or
by brute force), so that agreement with the library's construction is a
check rather than a tautology.  None of them is needed to compute anything.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from loophom.affine import AffineSimplexMap, Point, as_point
from loophom.permutations import Perm, is_shuffle, level_sizes
from loophom.words import Word


def in_simplex(x: Sequence[Fraction]) -> bool:
    """Membership in the order simplex: 0 <= t_1 <= ... <= t_q <= 1."""
    prev = Fraction(0)
    for t in x:
        if t < prev:
            return False
        prev = t
    return prev <= 1


def is_simplex_valued(m: AffineSimplexMap) -> bool:
    """Whether every vertex image of m lies in the order simplex D^p.

    Affine maps preserve convex hulls, so this already makes the whole
    image land in D^p.
    """
    return all(in_simplex(v) for v in m.vertices)


def pointwise_face(n: int, i: int, x: Sequence) -> Point:
    """The i-th face evaluated directly: duplicate the i-th coordinate,
    with t_0 = 0 and t_n = 1 at the ends."""
    xs = as_point(x)
    if len(xs) != n - 1:
        raise ValueError(f"expected a point of D^{n - 1}")
    if i == 0:
        dup = Fraction(0)
    elif i == n:
        dup = Fraction(1)
    else:
        dup = xs[i - 1]
    return xs[:i] + (dup,) + xs[i:]


def constant_map(codomain_dim: int, point: Sequence, domain_dim: int = 0) -> AffineSimplexMap:
    """The constant map D^q -> R^p at the given point."""
    p = as_point(point)
    if len(p) != codomain_dim:
        raise ValueError("point does not live in the stated codomain")
    return AffineSimplexMap(codomain_dim, (p,) * (domain_dim + 1))


def is_ens(v: Sequence[int], sigma: Perm, k: int) -> bool:
    """Whether (v, sigma) is a subdivision index: v nondecreasing within
    [0, k-1] and sigma a shuffle of its level-set sizes."""
    if len(v) != len(sigma):
        return False
    if any(not 0 <= x <= k - 1 for x in v):
        return False
    if any(v[p] > v[p + 1] for p in range(len(v) - 1)):
        return False
    return is_shuffle(level_sizes(v, k), sigma)


def reduce_word(w: Word) -> Word:
    """Free reduction (cancel adjacent inverse pairs); idempotent.

    >>> reduce_word(((1, 1), (1, -1), (2, 1)))
    ((2, 1),)
    """
    stack: list[tuple[int, int]] = []
    for letter in w:
        if stack and stack[-1][0] == letter[0] and stack[-1][1] == -letter[1]:
            stack.pop()
        else:
            stack.append(letter)
    return tuple(stack)
