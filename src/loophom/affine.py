"""Exact affine maps between order simplices, stored as integers.

The model of the q-simplex used throughout is the order simplex

    D^q = { (t_1, ..., t_q) : 0 <= t_1 <= ... <= t_q <= 1 },

whose vertices ``E(q, 0), ..., E(q, q)`` are the 0/1 points with a suffix of
ones: ``E(q, i)`` has its last ``i`` coordinates equal to 1.  An affine map
is determined by the images of these vertices.  It is stored as one positive
common denominator ``den`` and a tuple ``nums`` of integer numerator rows,
``nums[i] / den`` being the image of ``E(q, i)``, divided through so that
gcd(den, every numerator) = 1.  That form is canonical: two maps are equal,
and hash alike, exactly when their vertex images are equal.  Every vertex of
a degree-k subdivision piece has denominator k, so composing, slicing and
comparing maps is integer arithmetic.  The constructor divides out the
common factor, so every map is stored in that form.

Conventions that differ from the most common ones and are load-bearing:

* the i-th face ``face_map(n, i) : D^{n-1} -> D^n`` omits vertex
  ``E(n, n - i)`` (not ``E(n, i)``); pointwise it duplicates the i-th
  coordinate, reading ``t_0 = 0`` and ``t_n = 1`` at the ends;
* the degree-k subdivision piece for a pair ``(v, sigma)`` is
  ``x |-> (v + sigma* x) / k`` where ``(sigma* x)_p = x_{sigma(p)}``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd
from operator import add, mul, sub
from typing import Sequence

from .permutations import InvolPoint, Perm, act_on_coords, point_sign

Point = tuple[Fraction, ...]
Rows = tuple[tuple[int, ...], ...]

_ZERO = Fraction(0)
_ONE = Fraction(1)


def vertex_E(n: int, i: int) -> Point:
    """The i-th vertex of D^n: last i coordinates 1, the rest 0.

    >>> vertex_E(3, 0)
    (Fraction(0, 1), Fraction(0, 1), Fraction(0, 1))
    >>> vertex_E(3, 1)[-1]
    Fraction(1, 1)
    """
    if not 0 <= i <= n:
        raise ValueError(f"vertex index {i} out of range for D^{n}")
    return (_ZERO,) * (n - i) + (_ONE,) * i


def _corner(n: int, i: int, scale: int = 1) -> tuple[int, ...]:
    """The integer row scale * E(n, i)."""
    return (0,) * (n - i) + (scale,) * i


@dataclass(frozen=True, slots=True)
class AffineSimplexMap:
    """An affine map D^q -> R^p, canonically ``(codomain_dim, den, nums)``.

    ``nums[i] / den`` is the image of ``E(q, i)``, and the domain dimension
    is one less than the number of rows.  The constructor divides ``den``
    and every numerator by their gcd.  It trusts the rows to hold
    codomain_dim integers each.

    >>> m = AffineSimplexMap(2, 12, ((0, 0), (6, 4)))
    >>> m
    AffineSimplexMap(codomain_dim=2, den=6, nums=((0, 0), (3, 2)))
    >>> m == AffineSimplexMap(2, 6, ((0, 0), (3, 2)))
    True
    """

    codomain_dim: int
    den: int
    nums: Rows

    def __post_init__(self) -> None:
        if not self.nums:
            raise ValueError("an affine map needs at least one vertex image")
        if self.den < 1:
            raise ValueError(f"denominator must be >= 1, got {self.den}")
        common = self.den
        for row in self.nums:
            if common == 1:
                return
            common = gcd(common, *row)
        if common > 1:
            # past the frozen __setattr__
            object.__setattr__(self, "den", self.den // common)
            object.__setattr__(
                self, "nums", tuple(tuple(x // common for x in row) for row in self.nums)
            )

    @property
    def domain_dim(self) -> int:
        return len(self.nums) - 1


def identity_map(n: int) -> AffineSimplexMap:
    return AffineSimplexMap(n, 1, tuple(_corner(n, i) for i in range(n + 1)))


def compose(g: AffineSimplexMap, f: AffineSimplexMap) -> AffineSimplexMap:
    """The composite g o f, by pushing f's vertex images through g.

    Over numerators, with f = F / d_f and g = G / d_g on D^q, row i of the
    composite is (d_f G_0 + sum_j F_ij (G_{q-j+1} - G_{q-j})) / (d_f d_g).
    """
    if f.codomain_dim != g.domain_dim:
        raise ValueError(
            f"cannot compose: inner map lands in R^{f.codomain_dim}, "
            f"outer map starts on D^{g.domain_dim}"
        )
    G = g.nums
    q = len(G) - 1
    # steps[j-1] = G_{q-j+1} - G_{q-j}, read one codomain coordinate at a time
    steps = [tuple(map(sub, G[q - j + 1], G[q - j])) for j in range(1, q + 1)]
    columns = tuple(zip(*steps)) if q else ((),) * g.codomain_dim
    d_f = f.den
    base = [d_f * x for x in G[0]]
    rows = tuple(
        tuple(b + sum(map(mul, row, col)) for b, col in zip(base, columns)) for row in f.nums
    )
    return AffineSimplexMap(g.codomain_dim, d_f * g.den, rows)


@lru_cache(maxsize=None)
def face_map(n: int, i: int) -> AffineSimplexMap:
    """The i-th face D^{n-1} -> D^n: the vertex list omits E(n, n-i).

    >>> face_map(2, 1).nums
    ((0, 0), (1, 1))
    """
    if not 0 <= i <= n:
        raise ValueError(f"face index {i} out of range for [0, {n}]")
    rows = tuple(_corner(n, j) for j in range(n + 1) if j != n - i)
    return AffineSimplexMap(n, 1, rows)


@lru_cache(maxsize=None)
def subdivision_piece(v: tuple[int, ...], sigma: Perm, k: int) -> AffineSimplexMap:
    """The affine self-map x |-> (v + sigma* x) / k of D^n.

    For index pairs (v, sigma) with v nondecreasing in [0, k-1] and sigma a
    shuffle of its level sets, the map sends D^n into D^n; the k^n such
    pieces tile D^n.

    >>> m = subdivision_piece((1,), (1,), 2)
    >>> m.den, m.nums
    (2, ((1,), (2,)))
    """
    n = len(v)
    if len(sigma) != n:
        raise ValueError("vector and permutation sizes differ")
    if k < 1:
        raise ValueError("subdivision arity must be >= 1")
    rows = tuple(tuple(map(add, v, act_on_coords(sigma, _corner(n, i)))) for i in range(n + 1))
    return AffineSimplexMap(n, k, rows)


def cone(m: AffineSimplexMap, apex_index: int) -> AffineSimplexMap:
    """The map D^{q+1} -> R^p whose vertex images are m's followed by the
    apex E(p, apex_index)."""
    p = m.codomain_dim
    if not 0 <= apex_index <= p:
        raise ValueError(f"apex index {apex_index} out of range for D^{p}")
    return AffineSimplexMap(p, m.den, m.nums + (_corner(p, apex_index, m.den),))


def f_map(x: InvolPoint, k: int) -> tuple[AffineSimplexMap, int]:
    """The composite (subdivision piece) o (i-th face), with sign (-1)^i eps.

    The face's vertex list is the full E-list of D^n minus E(n, n-i), so the
    composite's numerator rows are the piece's with row n-i dropped -- no
    arithmetic needed beyond building the piece and dividing out what the
    remaining rows share with k.
    """
    v, sigma, i = x
    n = len(v)
    if not 0 <= i <= n:
        raise ValueError(f"face index {i} out of range for [0, {n}]")
    piece = subdivision_piece(tuple(v), sigma, k)
    rows = piece.nums[: n - i] + piece.nums[n - i + 1:]
    return AffineSimplexMap(n, piece.den, rows), point_sign(sigma, i)


def ftilde_map(w: Sequence[int], tau: Perm, i: int, k: int) -> tuple[AffineSimplexMap, int]:
    """The composite (i-th face) o (subdivision piece of dimension n-1),
    with sign (-1)^i eps(tau)."""
    n = len(w) + 1
    piece = subdivision_piece(tuple(w), tau, k)
    return compose(face_map(n, i), piece), point_sign(tau, i)
