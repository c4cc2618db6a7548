"""Exact-rational affine maps between order simplices.

The model of the q-simplex used throughout is the order simplex

    D^q = { (t_1, ..., t_q) : 0 <= t_1 <= ... <= t_q <= 1 },

whose vertices ``E(q, 0), ..., E(q, q)`` are the 0/1 points with a suffix of
ones: ``E(q, i)`` has its last ``i`` coordinates equal to 1.  An affine map
is stored by the tuple of images of these vertices, which determines it
uniquely; two maps are equal exactly when their vertex-image tuples are.

Conventions that differ from the most common ones and are load-bearing:

* the i-th face ``face_map(n, i) : D^{n-1} -> D^n`` omits vertex
  ``E(n, n - i)`` (not ``E(n, i)``); pointwise it duplicates the i-th
  coordinate, reading ``t_0 = 0`` and ``t_n = 1`` at the ends;
* the degree-k subdivision piece for a pair ``(v, sigma)`` is
  ``x |-> (v + sigma* x) / k`` where ``(sigma* x)_p = x_{sigma(p)}``.

Coordinates are exact -- integers or ``fractions.Fraction`` -- and are
kept as given: no floats appear, and a map never re-coerces its vertices.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .permutations import InvolPoint, Perm, act_on_coords, point_sign

Point = tuple[Fraction, ...]

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


@dataclass(frozen=True)
class AffineSimplexMap:
    """An affine map D^q -> R^p, canonically the tuple of vertex images.

    ``vertices[i]`` is the image of ``E(q, i)``; the domain dimension is
    implicit (one less than the number of vertices).
    """

    codomain_dim: int
    vertices: tuple[Point, ...]

    def __post_init__(self):
        if not self.vertices:
            raise ValueError("an affine map needs at least one vertex image")
        for v in self.vertices:
            if len(v) != self.codomain_dim:
                raise ValueError(
                    f"vertex image {v} does not live in R^{self.codomain_dim}"
                )

    @property
    def domain_dim(self) -> int:
        return len(self.vertices) - 1

    def apply(self, x: Sequence) -> Point:
        """Evaluate at a point of D^q.

        Writing x = E(q, 0) + sum_j x_j e_j with e_j = E(q, q-j+1) - E(q, q-j),
        the image is P_0 + sum_j x_j (P_{q-j+1} - P_{q-j}).
        """
        q = self.domain_dim
        if len(x) != q:
            raise ValueError(f"expected a point of D^{q}, got {len(x)} coordinates")
        out = list(self.vertices[0])
        for j, t in enumerate(x, start=1):
            if not t:
                continue
            hi = self.vertices[q - j + 1]
            lo = self.vertices[q - j]
            for c in range(self.codomain_dim):
                out[c] += t * (hi[c] - lo[c])
        return tuple(out)


def identity_map(n: int) -> AffineSimplexMap:
    return AffineSimplexMap(n, tuple(vertex_E(n, i) for i in range(n + 1)))


def compose(g: AffineSimplexMap, f: AffineSimplexMap) -> AffineSimplexMap:
    """The composite g o f, by pushing f's vertex images through g."""
    if f.codomain_dim != g.domain_dim:
        raise ValueError(
            f"cannot compose: inner map lands in R^{f.codomain_dim}, "
            f"outer map starts on D^{g.domain_dim}"
        )
    return AffineSimplexMap(g.codomain_dim, tuple(g.apply(v) for v in f.vertices))


@lru_cache(maxsize=None)
def face_map(n: int, i: int) -> AffineSimplexMap:
    """The i-th face D^{n-1} -> D^n: the vertex list omits E(n, n-i).

    >>> face_map(2, 1).apply((Fraction(1, 3),))
    (Fraction(1, 3), Fraction(1, 3))
    """
    if not 0 <= i <= n:
        raise ValueError(f"face index {i} out of range for [0, {n}]")
    verts = tuple(vertex_E(n, j) for j in range(n + 1) if j != n - i)
    return AffineSimplexMap(n, verts)


@lru_cache(maxsize=None)
def subdivision_piece(v: tuple[int, ...], sigma: Perm, k: int) -> AffineSimplexMap:
    """The affine self-map x |-> (v + sigma* x) / k of D^n.

    For index pairs (v, sigma) with v nondecreasing in [0, k-1] and sigma a
    shuffle of its level sets, the map sends D^n into D^n; the k^n such
    pieces tile D^n.

    >>> subdivision_piece((1,), (1,), 2).apply((Fraction(1, 3),))
    (Fraction(2, 3),)
    """
    n = len(v)
    if len(sigma) != n:
        raise ValueError("vector and permutation sizes differ")
    if k < 1:
        raise ValueError("subdivision arity must be >= 1")
    verts = []
    for i in range(n + 1):
        moved = act_on_coords(sigma, vertex_E(n, i))
        verts.append(tuple(Fraction(v[p] + moved[p], k) for p in range(n)))
    return AffineSimplexMap(n, tuple(verts))


def f_map(x: InvolPoint, k: int) -> tuple[AffineSimplexMap, int]:
    """The composite (subdivision piece) o (i-th face), with sign (-1)^i eps.

    The face's vertex list is the full E-list of D^n minus E(n, n-i), so the
    composite's vertex list is the piece's with index n-i dropped -- no
    arithmetic needed beyond building the piece itself.
    """
    v, sigma, i = x
    n = len(v)
    if not 0 <= i <= n:
        raise ValueError(f"face index {i} out of range for [0, {n}]")
    piece = subdivision_piece(tuple(v), sigma, k)
    verts = piece.vertices[: n - i] + piece.vertices[n - i + 1:]
    return AffineSimplexMap(n, verts), point_sign(sigma, i)


def ftilde_map(w: Sequence[int], tau: Perm, i: int, k: int) -> tuple[AffineSimplexMap, int]:
    """The composite (i-th face) o (subdivision piece of dimension n-1),
    with sign (-1)^i eps(tau)."""
    n = len(w) + 1
    piece = subdivision_piece(tuple(w), tau, k)
    return compose(face_map(n, i), piece), point_sign(tau, i)
