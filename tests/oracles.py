"""Reference implementations and helpers that only the tests use.

Most functions restate a definition directly (pointwise, by membership or
by brute force), so that agreement with the library's construction is a
check rather than a tautology.  The general `homology`, with its summary,
`mat_vec` and `mat_mul`, is the two-reduction reference at every degree,
on the dense `reference_snf` rather than the library's reduction: it pins
ranks, torsion and transforms below the top, and the library's top-degree
`homology` must agree with it where both apply.  `path_eval`,
`_path_table` and `term_matches_path` are the sampling oracle in exact
rationals, the reference for the library's integer form;
`random_simplex_points` draws the library's seeded points as `Fraction`s,
and `on_common_denominator` puts such a point on integers.
`affine_map` and `vertices` are the exact-rational face of an affine map,
which the library stores and builds only in integers: a map from
`Fraction` vertex images (rejecting anything inexact), and a map's vertex
images as `Fraction`s.
`reference_magnus` multiplies truncated polynomials letter by letter
(`tensor_mul`), the reference for the library's in-place expansion.
`is_nondegenerate` states the jump-cover rule that the library's
`enumerate_basis` walk builds in, the reference for the brute-force basis.
`build_pair_complex` sums each boundary column face by face through
`cell_face` (`boundary_of_simplex`), looking each face tuple up in an
index of the basis below: the reference for the library's walk, which
reads the rows of all faces of a cell from a trie of that basis as it
builds the cell.  `chain_ranks` counts the cells by a closed form, with no
walk.  `dense_boundary` writes a boundary out as the dense matrix that the
library never builds, and `DenseView` shows a pair complex to the
reference `homology` that way.  `invariant_factors` is the eager unit
elimination that the library's lazy reduction replaced, a second reference
beside the dense `reference_snf`.
The rest are conveniences built on the library -- coordinates, the rank-1
evaluation matrix, a cached pair complex (`context`), a top-degree chain
that is not a cycle (`non_cycle`).  None of them is needed to compute
anything.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import ceil, comb, lcm
from numbers import Rational
from random import Random
from typing import Collection, Mapping, Protocol, Sequence

import loophom.wedge
from loophom.affine import AffineSimplexMap, Point
from loophom.chains import FormalChain
from loophom.permutations import Perm, is_shuffle, level_sizes
from loophom.transform import BASEPOINT, nu_eval
from loophom.wedge import Column, PairComplex, Simplex, cell_face, enumerate_basis
from loophom.words import Monomial, Tensor, Word, WordCombo, combine, magnus


def as_point(coords: Sequence) -> Point:
    """Coerce a coordinate sequence to an exact-rational point."""
    return tuple(Fraction(c) for c in coords)


def affine_map(codomain_dim: int, vertices: Sequence[Sequence]) -> AffineSimplexMap:
    """The map D^q -> R^p with exact vertex images: ``vertices[i]``, of
    integers and Fractions, is the image of E(q, i).  Floats and anything
    else that is not rational are rejected, so a reference never goes
    inexact."""
    for v in vertices:
        if len(v) != codomain_dim:
            raise ValueError(f"vertex image {v} does not live in R^{codomain_dim}")
        for c in v:
            if not isinstance(c, Rational):
                raise ValueError(
                    f"coordinate {c!r} of vertex image {v} is not an integer or a Fraction"
                )
    den = lcm(*(c.denominator for v in vertices for c in v))
    nums = tuple(tuple(c.numerator * (den // c.denominator) for c in v) for v in vertices)
    return AffineSimplexMap(codomain_dim, den, nums)


def vertices(m: AffineSimplexMap) -> tuple[Point, ...]:
    """The vertex images of m as exact rationals."""
    return tuple(tuple(Fraction(x, m.den) for x in row) for row in m.nums)


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
    return all(in_simplex(v) for v in vertices(m))


def apply(m: AffineSimplexMap, x: Sequence) -> Point:
    """Evaluate m at a point of D^q, in exact rationals.

    Writing x = E(q, 0) + sum_j x_j e_j with e_j = E(q, q-j+1) - E(q, q-j),
    the image is P_0 + sum_j x_j (P_{q-j+1} - P_{q-j}).
    """
    q = m.domain_dim
    if len(x) != q:
        raise ValueError(f"expected a point of D^{q}, got {len(x)} coordinates")
    verts = vertices(m)
    out = list(verts[0])
    for j, t in enumerate(x, start=1):
        hi, lo = verts[q - j + 1], verts[q - j]
        for c in range(m.codomain_dim):
            out[c] += t * (hi[c] - lo[c])
    return tuple(out)


def compose_pointwise(g: AffineSimplexMap, f: AffineSimplexMap) -> AffineSimplexMap:
    """g o f, by evaluating g at each of f's vertex images."""
    return affine_map(g.codomain_dim, tuple(apply(g, v) for v in vertices(f)))


def piece_pointwise(v: Sequence[int], sigma: Perm, k: int) -> AffineSimplexMap:
    """The subdivision piece x |-> (v + sigma* x) / k, from its definition:
    vertex i is (v + sigma* E(n, i)) / k."""
    n = len(v)
    verts = []
    for i in range(n + 1):
        corner = (Fraction(0),) * (n - i) + (Fraction(1),) * i
        verts.append(tuple((v[p] + corner[sigma[p] - 1]) / k for p in range(n)))
    return affine_map(n, tuple(verts))


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
    return affine_map(codomain_dim, (p,) * (domain_dim + 1))


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


def is_nondegenerate(s: Simplex, d: int) -> bool:
    """Whether the dimension-d product simplex s is nondegenerate: the
    jumps of its components cover [1, d]."""
    jumps = {c[1] for c in s if c is not None}
    return jumps.issuperset(range(1, d + 1))


def face(s: Simplex, d: int, i: int) -> Simplex:
    """Face i of a dimension-d product simplex, taken componentwise."""
    return tuple(cell_face(c, d, i) for c in s)


def boundary_of_simplex(s: Simplex, d: int, basis_index: dict[Simplex, int]) -> Column:
    """Sorted (index, coefficient) nonzeros of the alternating face sum of
    the dimension-d simplex s, keeping only faces that stay in the spanning
    set (nondegenerate, outside Y).  `basis_index` maps each basis cell one
    dimension down to its index.  Every face cell comes from its own
    `cell_face` call."""
    faces = ((basis_index.get(face(s, d, i)), (-1) ** i) for i in range(d + 1))
    return tuple(sorted(combine((r, c) for r, c in faces if r is not None).items()))


def build_pair_complex(n: int, g: int) -> PairComplex:
    """The library's pair complex with each boundary column summed face by
    face (`boundary_of_simplex`): the reference for its face-table
    assembly."""
    d_max = n + 1
    bases = [tuple(enumerate_basis(n, g, d)) for d in range(d_max + 1)]
    boundaries: list[tuple[Column, ...]] = [()]
    for d in range(1, d_max + 1):
        index = {s: i for i, s in enumerate(bases[d - 1])}
        boundaries.append(tuple(boundary_of_simplex(s, d, index) for s in bases[d]))
    return PairComplex(n, g, tuple(bases), tuple(boundaries))


def _closed_words(n: int, m: int) -> int:
    """W(n, m): the words of length n over the basepoint and m letters in
    which no letter equals the one before and the basepoint is neither
    first nor last.  Step by step, `letter` counts the words so far that
    end in a letter and `base` those that end at the basepoint."""
    letter, base = m, 0
    for _ in range(n - 1):
        letter, base = (m - 1) * letter + m * base, letter
    return letter


def chain_ranks(n: int, g: int) -> list[int]:
    """The ranks of C_0..C_(n+1) of the pair complex, by a closed form.
    The d-simplices outside Y whose jumps avoid s given slots are the words
    of `_closed_words` over the g·(d - s) edge cells left, so by inclusion
    and exclusion the nondegenerate ones, which miss no slot, number
    rank C_d = Σ_s (-1)^s C(d, s) W(n, g·(d - s))."""
    return [
        sum((-1) ** s * comb(d, s) * _closed_words(n, g * (d - s)) for s in range(d + 1))
        for d in range(n + 2)
    ]


def dense_boundary(cx: PairComplex, d: int) -> list[list[int]]:
    """The boundary leaving dimension d as a dense matrix, written out from
    the stored columns; rows indexed by the dimension d-1 basis.
    Zero-shaped when out of range."""
    columns = cx.boundaries[d] if 1 <= d < len(cx.boundaries) else ()
    dense = [[0] * len(columns) for _ in range(cx.rank(d - 1))]
    for c, column in enumerate(columns):
        for r, x in column:
            dense[r][c] = x
    return dense


def canonical_key(s: Simplex) -> tuple[tuple[int, int], ...]:
    """Sort key of the canonical basis order, componentwise: the basepoint
    first, then generators ascending and, within a generator, jumps
    descending."""
    return tuple((0, 0) if c is None else (c[0], -c[1]) for c in s)


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


# The truncated polynomial product: the reference for `words.expansion`,
# whose nonzero coordinates `words.magnus` returns.


def tensor_one() -> Tensor:
    return {(): 1}


def tensor_mul(a: Tensor, b: Tensor, n: int) -> Tensor:
    """Product of truncated noncommutative polynomials, dropping monomials
    of degree above n."""
    return combine(
        (ma + mb, ca * cb)
        for ma, ca in a.items()
        for mb, cb in b.items()
        if len(ma) + len(mb) <= n
    )


def _letter_tensor(i: int, e: int, n: int) -> Tensor:
    if e == 1:
        return {(): 1, (i,): 1} if n >= 1 else {(): 1}
    if e != -1:
        raise ValueError(f"letter exponent must be +-1, got {e}")
    # geometric series for the inverse: sum_j (-X_i)^j, degree <= n
    return {(i,) * j: (-1) ** j for j in range(n + 1)}


def reference_magnus(combo: Mapping[Word, int], n: int) -> Tensor:
    """Degree-n expansion of a combination of words as one truncated
    product of letter expansions per word.

    >>> reference_magnus({((1, -1),): 1}, 2)
    {(): 1, (1,): -1, (1, 1): 1}
    """
    terms = []
    for w, c in combo.items():
        t = tensor_one()
        for i, e in w:
            t = tensor_mul(t, _letter_tensor(i, e, n), n)
        terms.extend((m, c * x) for m, x in t.items())
    return combine(terms)


def identity(n: int) -> Perm:
    """The identity of S_n.

    >>> identity(3)
    (1, 2, 3)
    """
    return tuple(range(1, n + 1))


def shuffle_transposition_test(parts: Sequence[int], sigma: Perm, i: int) -> bool:
    """Whether the swap s_{i,i+1} o sigma leaves the shuffles of ``parts``.

    Evaluated by the positional criterion: the swap exits exactly when
    sigma^{-1}(i) is not a partial sum of the composition and
    sigma^{-1}(i+1) = sigma^{-1}(i) + 1.
    """
    if not is_shuffle(parts, sigma):
        raise ValueError("sigma is not a shuffle of the given composition")
    n = len(sigma)
    if not 1 <= i <= n - 1:
        raise ValueError(f"index {i} out of range for [1, {n - 1}]")
    partial_sums = set(itertools.accumulate(parts))
    pos = sigma.index(i) + 1  # sigma^{-1}(i)
    return pos not in partial_sums and sigma.index(i + 1) + 1 == pos + 1


def augmentation(x: FormalChain) -> int:
    """Sum of coefficients."""
    return sum(x.terms.values())


def monomial_basis(n: int, g: int) -> list[Monomial]:
    """Monomials of degree <= n in g letters: by degree, then lexicographic.

    >>> monomial_basis(2, 1)
    [(), (1,), (1, 1)]
    """
    out: list[Monomial] = []
    for d in range(n + 1):
        out.extend(itertools.product(range(1, g + 1), repeat=d))
    return out


def fn_basis_coords(
    combo: Mapping[Word, int] | Sequence[tuple[Word, int]] | Word,
    n: int,
    g: int,
) -> tuple[int, ...]:
    """Coordinates of a combination of words on the monomial basis."""
    if not isinstance(combo, (tuple, Mapping)):
        combo = dict(combo)
    t = magnus(combo, n, g)
    coords = tuple(t.get(m, 0) for m in monomial_basis(n, g))
    leftovers = set(t) - set(monomial_basis(n, g))
    if leftovers:
        raise ValueError(f"expansion uses out-of-basis monomials: {leftovers}")
    return coords


@lru_cache(maxsize=None)
def context(n: int, g: int) -> PairComplex:
    """The pair complex of the rank-g wedge at power n, built once: all
    that `vanishing_sum_check` and `naturality_check` take."""
    return loophom.wedge.build_pair_complex(n, g)


def non_cycle(cx: PairComplex) -> list[int]:
    """A top-degree chain that is not a cycle: the first basis cell whose
    stored boundary is nonzero.  The zero chain when every cell is a
    cycle, as at power 1, where C_0 = 0."""
    columns = cx.boundaries[cx.n]
    first = next((i for i, column in enumerate(columns) if column), None)
    return [int(i == first) for i in range(len(columns))]


def nu_basis_matrix(n: int) -> list[list[int]]:
    """For the rank-1 group: columns are the homology coordinates of the
    combinations expanding to the pure powers X^0, X^1, ..., X^n (the
    m-th column evaluates (x - 1)^m, whose expansion is exactly X^m).

    Column 0 is the empty word's value, which vanishes; the remaining n
    columns have full rank n when the transformation is faithful on the
    quotient coordinates.
    """
    x = ((1, 1),)
    cols = []
    for m in range(n + 1):
        combo: WordCombo = {x * j: (-1) ** (m - j) * comb(m, j) for j in range(m + 1)}
        cols.append(nu_eval(combo, n, 1))
    return [list(row) for row in zip(*cols)]


# The pointwise sampling oracle in exact rationals: the path is evaluated at
# Fraction times and compared with the simplex side coordinate by coordinate.
# The library's `term_matches_path` runs the same check on integer
# numerators over one denominator per point, and must accept and reject
# exactly the same pieces.


def path_eval(w: Word, s: Fraction) -> tuple:
    """Evaluate the concatenated-loops path at time s in [0, 1], as
    (letter, local parameter); both endpoints of every loop sit at the
    basepoint, reported as a common token."""
    if not 0 <= s <= 1:
        raise ValueError(f"time {s} outside [0, 1]")
    k = len(w)
    if k == 0:
        return BASEPOINT
    b = max(ceil(k * s), 1)
    u = k * s - (b - 1)
    if u == 0 or u == 1:
        return BASEPOINT
    return (w[b - 1][0], u)


def random_simplex_points(n: int, count: int, seed: int) -> list[tuple[Fraction, ...]]:
    """Seeded exact-rational points of the order simplex (sorted coords),
    from the same draws as the library's integer points."""
    rng = Random(seed)
    out = []
    for _ in range(count):
        coords = []
        for _ in range(n):
            den = rng.randint(1, 24)
            coords.append(Fraction(rng.randint(0, den), den))
        out.append(tuple(sorted(coords)))
    return out


def on_common_denominator(x: Sequence[Fraction]) -> tuple[list[int], int]:
    """The point x as integer numerators over D, the lcm of the
    denominators of its coordinates."""
    den = lcm(*(c.denominator for c in x))
    return [c.numerator * (den // c.denominator) for c in x], den


def _path_table(w: Word, x: Sequence[Fraction]) -> list[list[tuple]]:
    """The concatenated-loops path at time (b - 1 + x_q) / k, indexed
    [b - 1][q - 1] over blocks b and coordinates q of the sample point."""
    k = len(w)
    return [[path_eval(w, Fraction(b + xq, k)) for xq in x] for b in range(k)]


def term_matches_path(
    v: Sequence[int],
    sigma: Perm,
    x: Sequence[Fraction],
    cell: Simplex,
    path: list[list[tuple]],
) -> bool:
    """Whether, at the sample point x, the simplex encoding piece
    (v, sigma) agrees with the subdivided path.

    Position p of the path side evaluates the concatenated loops at time
    (v_p + x_{sigma(p)}) / k, the p-th output of the subdivision piece;
    the simplex side reads component p of ``cell`` (``term_to_simplex(w,
    v, sigma)``, or a forged simplex as a negative control), whose jump j
    names the source coordinate q = n - j + 1.  ``path`` is the word's
    `_path_table` at x.
    """
    n = len(sigma)
    for p in range(1, n + 1):
        letter, jump = cell[p - 1]
        u = x[(n - jump + 1) - 1]
        lhs = path[v[p - 1]][sigma[p - 1] - 1]
        rhs = BASEPOINT if u in (0, 1) else (letter, u)
        if lhs != rhs:
            return False
    return True


# The general homology at any degree, from two reductions: one of the
# boundary leaving degree d (whose transform identifies the cycle lattice),
# then one of the degree-(d+1) boundary written in those cycle coordinates.
# The second reduction's row transform projects any cycle onto free
# coordinates plus torsion residues, vanishing exactly on boundaries.  At a
# degree with no cells above it the second reduction is the identity, and
# the library's `homology` must give the same rank, transform and classes.


Matrix = list[list[int]]


def identity_matrix(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def reference_pivot(
    d: Sequence[Sequence[int]], t: int, nrows: int, ncols: int
) -> tuple[int, int] | None:
    """The pivot of the block of d past (t, t): its least nonzero |entry|,
    then lowest (row, col); None when the block is zero.  No |entry| is
    below 1, so the row-major scan stops at the first ±1."""
    piv = None
    best = None
    for i in range(t, nrows):
        row = d[i]
        for j in range(t, ncols):
            x = row[j]
            if x and (best is None or abs(x) < best):
                best = abs(x)
                piv = (i, j)
                if best == 1:
                    return piv
    return piv


def reference_snf(a: Sequence[Sequence[int]], nrows: int, ncols: int):
    """Reduce to Smith form; returns (U, D, V, Vinv) with U a V = D and
    V Vinv = I.  The dense original of the library's `_snf`, kept step for
    step (its pivot scan, `reference_pivot`, now stops at the first ±1, the
    pivot the full scan keeps): the sparse reduction must reproduce its D
    and Vinv exactly, and `smith_normal_form` its U and V."""
    d = [list(row) for row in a]
    if len(d) != nrows or any(len(row) != ncols for row in d):
        raise ValueError("matrix shape disagrees with stated dimensions")
    u = identity_matrix(nrows)
    v = identity_matrix(ncols)
    vinv = identity_matrix(ncols)
    t = 0
    while True:
        piv = reference_pivot(d, t, nrows, ncols)
        if piv is None:
            break
        i0, j0 = piv
        if i0 != t:
            d[t], d[i0] = d[i0], d[t]
            u[t], u[i0] = u[i0], u[t]
        if j0 != t:
            for row in d:
                row[t], row[j0] = row[j0], row[t]
            for row in v:
                row[t], row[j0] = row[j0], row[t]
            vinv[t], vinv[j0] = vinv[j0], vinv[t]
        p = d[t][t]
        dirty = False
        for i in range(t + 1, nrows):
            if d[i][t]:
                q = d[i][t] // p
                if q:
                    d[i] = [x - q * y for x, y in zip(d[i], d[t])]
                    u[i] = [x - q * y for x, y in zip(u[i], u[t])]
                if d[i][t]:
                    dirty = True
        for j in range(t + 1, ncols):
            if d[t][j]:
                q = d[t][j] // p
                if q:
                    for row in d:
                        row[j] -= q * row[t]
                    for row in v:
                        row[j] -= q * row[t]
                    vinv[t] = [x + q * y for x, y in zip(vinv[t], vinv[j])]
                if d[t][j]:
                    dirty = True
        if dirty:
            continue  # remainders became new, smaller candidates
        repaired = False
        for i in range(t + 1, nrows):
            row = d[i]
            if any(x % p for x in row[t + 1:]):
                d[t] = [x + y for x, y in zip(d[t], row)]
                u[t] = [x + y for x, y in zip(u[t], u[i])]
                repaired = True
                break
        if repaired:
            continue  # pull the offending row up so the pivot shrinks
        if d[t][t] < 0:
            d[t] = [-x for x in d[t]]
            u[t] = [-x for x in u[t]]
        t += 1
    return u, d, v, vinv


def mat_vec(a: Sequence[Sequence[int]], v: Sequence[int]) -> list[int]:
    """Product a @ v."""
    # v as its (k, v[k]) nonzeros: zero terms add nothing
    nonzeros = [(k, x) for k, x in enumerate(v) if x]
    return [sum(row[k] * x for k, x in nonzeros) for row in a]


def mat_mul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> Matrix:
    """Product a @ b."""
    cols = len(b[0]) if b else 0
    # each column of b as its (k, b[k][c]) nonzeros: zero terms add nothing
    columns: list[list[tuple[int, int]]] = [[] for _ in range(cols)]
    for k, row in enumerate(b):
        for c, x in enumerate(row):
            if x:
                columns[c].append((k, x))
    return [[sum(row[k] * x for k, x in col) for col in columns] for row in a]


@dataclass(frozen=True)
class HomologySummary:
    """Free rank, torsion, and a deterministic cycle -> coordinates map.

    Coordinates list the free part first, then one residue per torsion
    invariant; boundaries map to all zeros.
    """

    degree: int
    rank: int
    torsion: tuple[int, ...]
    cycle_space_dim: int
    _ambient: int
    _cycle_rank: int
    _vinv: tuple[tuple[int, ...], ...]
    _uprime: tuple[tuple[int, ...], ...]
    _bdry_diag: tuple[int, ...]

    def _reduced(self, z: Sequence[int]) -> list[int]:
        """Vinv z, for a chain vector z of this degree."""
        if len(z) != self._ambient:
            raise ValueError(f"expected a vector of length {self._ambient}")
        return mat_vec(self._vinv, z)

    def is_cycle(self, z: Sequence[int]) -> bool:
        return not any(self._reduced(z)[: self._cycle_rank])

    def cycle_class(self, z: Sequence[int]) -> tuple[int, ...]:
        """Coordinates of a relative cycle in this degree's homology."""
        y = self._reduced(z)
        if any(y[: self._cycle_rank]):
            raise ValueError("vector is not a cycle")
        kernel_coords = y[self._cycle_rank:]
        w = mat_vec(self._uprime, kernel_coords)
        r = len(self._bdry_diag)
        free = w[r:]
        residues = [w[i] % di for i, di in enumerate(self._bdry_diag) if di > 1]
        return tuple(free) + tuple(residues)


class DenseComplexLike(Protocol):
    """What the reference `homology` reads of a complex: the chain ranks
    and the boundary leaving each degree as a dense matrix, rows indexed by
    the basis one degree down."""

    def rank(self, d: int) -> int: ...

    def dense(self, d: int) -> Sequence[Sequence[int]]: ...


@dataclass(frozen=True)
class DenseView:
    """A pair complex that also shows its boundaries dense, through
    `dense_boundary`, so that the library's `homology` and the reference
    both read it."""

    cx: PairComplex

    def rank(self, d: int) -> int:
        return self.cx.rank(d)

    @property
    def boundaries(self) -> tuple[tuple[Column, ...], ...]:
        return self.cx.boundaries

    def dense(self, d: int) -> list[list[int]]:
        return dense_boundary(self.cx, d)


def homology(cx: DenseComplexLike, d: int) -> HomologySummary:
    """Homology of the complex at degree d, with projection data."""
    nd = cx.rank(d)
    below = cx.rank(d - 1) if d >= 1 else 0
    above = cx.rank(d + 1)
    # below degree 1 nothing constrains the cycles
    md = cx.dense(d) if d >= 1 else []
    if len(md) != below or any(len(row) != nd for row in md):
        raise ValueError("boundary matrix at d has the wrong shape")
    md1 = cx.dense(d + 1)
    if len(md1) != nd or any(len(row) != above for row in md1):
        raise ValueError("boundary matrix at d+1 has the wrong shape")

    _, dd, _, vinv = reference_snf(md, below, nd)
    cycle_rank = sum(1 for i in range(min(below, nd)) if dd[i][i])
    kernel_dim = nd - cycle_rank

    # with U md V = D, md md1 = U^-1 D (Vinv md1); D is nonzero exactly on
    # its first cycle_rank diagonal entries, so md md1 = 0 if and only if
    # the first cycle_rank rows of Vinv md1 vanish
    bdry = mat_mul(vinv, md1)
    for i in range(cycle_rank):
        if any(bdry[i]):
            raise ValueError("not a chain complex: consecutive boundaries do not vanish")
    projected = bdry[cycle_rank:]
    uprime, dprime, _, _ = reference_snf(projected, kernel_dim, above)
    diag = tuple(
        dprime[i][i] for i in range(min(kernel_dim, above)) if dprime[i][i]
    )
    return HomologySummary(
        degree=d,
        rank=kernel_dim - len(diag),
        torsion=tuple(x for x in diag if x > 1),
        cycle_space_dim=kernel_dim,
        _ambient=nd,
        _cycle_rank=cycle_rank,
        _vinv=tuple(tuple(r) for r in vinv),
        _uprime=tuple(tuple(r) for r in uprime),
        _bdry_diag=diag,
    )


def invariant_factors(
    columns: Sequence[Column], nrows: int, cleared: Collection[int] = frozenset()
) -> tuple[list[int], set[int]]:
    """The library's `invariant_factors` by eager unit elimination: each
    row not in `cleared` in turn pivots on its first ±1 entry, which is
    cleared at once from every other row through an index from each column
    to its rows; what no unit pivoted goes, dense, through
    `reference_snf`.  Returns the factors and the pivot columns."""
    rows: list[dict[int, int]] = [{} for _ in range(nrows)]
    support: list[set[int]] = [set() for _ in columns]  # column -> its rows
    for c, column in enumerate(columns):
        for r, x in column:
            if r not in cleared:
                rows[r][c] = x
                support[c].add(r)
    pivots = set()
    for i, pivot in enumerate(rows):
        c = next((c for c, x in pivot.items() if x in (1, -1)), None)
        if c is None:
            continue
        p = pivot[c]
        for k in support[c] - {i}:
            old = rows[k]
            q = old[c] * p  # old[c] / p, as p is a unit
            new = combine(itertools.chain(old.items(), ((s, -q * x) for s, x in pivot.items())))
            for s in old.keys() - new.keys():
                support[s].discard(k)
            for s in new.keys() - old.keys():
                support[s].add(k)
            rows[k] = new
        for s in pivot:
            support[s].discard(i)
        rows[i] = {}
        pivots.add(c)
    left = [row for row in rows if row]
    kept = sorted(set().union(*left))
    _, d, _, _ = reference_snf([[row.get(c, 0) for c in kept] for row in left], len(left), len(kept))
    factors = [1] * len(pivots)
    factors.extend(d[i][i] for i in range(min(len(left), len(kept))) if d[i][i])
    return factors, pivots
