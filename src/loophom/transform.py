"""Evaluation of the loop-power classes: from a free-group word to homology
coordinates of the pair complex, plus the identities that certify the
construction.

A positive word w of length L, read left to right, is a concatenation of L
generator loops; its n-th power map sends the order simplex D^n into the
n-fold product of the wedge.  Cutting that map along the degree-L edgewise
subdivision of D^n decomposes it as a signed sum over the L^n pieces
(v, sigma) of the subdivision (`enumerate_ens(n, L)`: v nondecreasing in
[0, L-1]^n, sigma a shuffle of its level-set sizes):

* position p of [1, n] travels along letter w[v_p];
* the parameter it reads is coordinate sigma(p) of the input, so in the
  simplicial model the component is the edge cell with jump n - sigma(p) + 1
  (the coordinate map t -> t_q switches value at vertex n - q + 1);
* the piece's sign is epsilon(sigma).

So piece (v, sigma) is the product simplex whose component p is the cell
(w[v_p], n - sigma(p) + 1); that n-tuple of circle cells (`wedge.Simplex`)
is also how the degree-n basis holds it.  Every piece lands in the
canonical basis (jumps are then a bijection, and no component sits at the
basepoint), the signed sum is a relative cycle, and its homology
coordinates are the value of the transformation.

`nu_vector` does not expand pieces.  Grouping the pieces that land on one
basis simplex s shows that the coefficient of s is linear in the degree-n
Magnus coordinates of the word: the letters with nonempty level sets split
the positions of s into consecutive runs, each run of constant letter and
ascending sigma, and the number of ways to place those runs in w is the
Magnus coefficient of the monomial of run letters.  So the chain vector is
a fixed integer matrix M_{n,g} times the truncated Magnus expansion, for
any integer combination of words (inverse letters included).  The
matrix is built once per (n, g), by columns, one per monomial, so a word
costs one sum of the columns of its nonzero Magnus coordinates.

`subdivision_vector` keeps the geometric sum itself -- inverse letters
rewritten by `positivize`, then every piece mapped to its simplex -- as an
independent witness: `vanishing_sum_check` reads its chain, since
`nu_vector` is zero on every sum that check evaluates.

Both top-degree checks compare chains, not classes: with no cells above
degree n, H_n is the cycle group Z_n, so two classes are equal exactly
when their cycles are equal chains.  A check runs no Smith reduction, only
the test that each chain it reads is a cycle (`homology.zero_image`).

The module also houses the cross-checks used by the verification suites: a
pointwise sampling oracle for the decomposition, the symbolic
inclusion-exclusion cancellation over block alphabets, the vanishing of
subset-alternating sums in homology, and naturality under wedge maps.  The
oracle's sample points are drawn as integer numerators over one common
denominator D per point, so the path at every block and the simplex side
are integer numerators over D.  For each word and n the oracle builds two
index maps once, one into the path table and one into a table of the
simplex side's (letter, coordinate) values, so each point is checked by a
single tuple comparison over every position of every piece;
``tests/oracles.py`` keeps the piece-by-piece integer check and the
exact-rational form as the references it must agree with.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import lcm
from operator import itemgetter
from random import Random
from typing import Iterator, Mapping, Sequence

from .homology import homology, zero_image
from .permutations import Perm, enumerate_ens, epsilon
from .wedge import (
    PairComplex,
    Simplex,
    build_pair_complex,
    enumerate_basis,
    push_simplex,
)
from .words import (
    Monomial,
    Word,
    WordCombo,
    check_rank,
    combine,
    expansion,
    is_positive,
    monomial_index,
    positivize,
)

BASEPOINT = ("*",)


def shuffle_expand(w: Word, n: int) -> list[tuple[tuple[int, ...], Perm]]:
    """The L^n pieces (v, sigma) of the degree-L subdivision that cut a
    positive word's n-th power, L = len(w)."""
    if not w:
        raise ValueError("the empty word has no blocks to decompose over")
    if not is_positive(w):
        raise ValueError("only positive words decompose geometrically")
    if n < 1:
        raise ValueError("need n >= 1")
    return enumerate_ens(n, len(w))


def term_to_simplex(w: Word, v: Sequence[int], sigma: Perm) -> Simplex:
    """The degree-n basis simplex of piece (v, sigma) of w: position p
    carries letter w[v_p] with jump n - sigma(p) + 1."""
    n = len(sigma)
    return tuple((w[b][0], n - q + 1) for b, q in zip(v, sigma, strict=True))


# ---------------------------------------------------------------------------
# The transformation.
# ---------------------------------------------------------------------------


def _as_combo(elt: Word | Mapping[Word, int], n: int) -> WordCombo:
    items = [(elt, 1)] if isinstance(elt, tuple) else elt.items()
    return combine(
        (u, c * cu) for w, c in items for u, cu in positivize(tuple(w), n).items()
    )


def subdivision_vector(elt: Word | Mapping[Word, int], cx: PairComplex) -> list[int]:
    """Chain vector of the transformation as the geometric sum: inverse
    letters are rewritten first, then every subdivision piece of every
    positive word is mapped to its basis simplex.  The empty word is the
    constant loop, whose simplices all collapse, so it contributes 0."""
    n = cx.n
    combo = _as_combo(elt, n)
    out = [0] * cx.rank(n)
    index = {s: i for i, s in enumerate(cx.basis(n))}
    for w, c in combo.items():
        if not w:
            continue
        check_rank(w, cx.g)
        for v, sigma in shuffle_expand(w, n):
            out[index[term_to_simplex(w, v, sigma)]] += c * epsilon(sigma)
    return out


Row = tuple[tuple[Monomial, int], ...]


def _row(s: Simplex) -> Row:
    """The Magnus coordinates that feed degree-n basis simplex s, n = len(s):
    every split of the positions into consecutive runs of constant letter
    and ascending sigma adds the sign of sigma at the monomial of the run
    letters."""
    n = len(s)
    letters = [c[0] for c in s]
    sigma = [n - c[1] + 1 for c in s]
    sign = epsilon(tuple(sigma))

    def splits(start: int, mono: Monomial) -> Iterator[Monomial]:
        if start == n:
            yield mono
            return
        end = start + 1
        while True:
            yield from splits(end, mono + (letters[start],))
            if end == n or letters[end] != letters[start] or sigma[end] < sigma[end - 1]:
                return
            end += 1

    return tuple(combine((mono, sign) for mono in splits(0, ())).items())


@lru_cache(maxsize=None)
def _columns(n: int, g: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """M_{n,g} by columns, one per monomial of `monomial_index(n, g)`: the
    (row, entry) pairs of its nonzeros, rows in the order of the degree-n
    basis."""
    position = {m: p for p, m in enumerate(monomial_index(n, g).monomials)}
    columns: list[list[tuple[int, int]]] = [[] for _ in position]
    for r, s in enumerate(enumerate_basis(n, g, n)):
        for m, x in _row(s):
            columns[position[m]].append((r, x))
    return tuple(map(tuple, columns))


def nu_vector(elt: Word | Mapping[Word, int], cx: PairComplex) -> list[int]:
    """Chain vector of the transformation on the degree-n basis of the
    pair complex: M_{n,g} times the degree-n Magnus expansion of the word
    or integer combination of words, summed column by column over the
    expansion's nonzero coordinates.  The empty word expands to 1, whose
    column is empty, so it evaluates to 0."""
    combo = {elt: 1} if isinstance(elt, tuple) else elt
    out = [0] * cx.rank(cx.n)
    for column, c in zip(_columns(cx.n, cx.g), expansion(combo, cx.n, cx.g)):
        if c:
            for r, x in column:
                out[r] += c * x
    return out


def nu_eval(elt: Word | Mapping[Word, int], n: int, g: int) -> tuple[int, ...]:
    """Homology coordinates of the transformation applied to a word (or an
    integer combination of words) at degree n for the rank-g wedge; builds
    the complex and its top-degree homology, so a caller evaluating many
    words reuses those through `nu_vector` and `cycle_class` instead."""
    cx = build_pair_complex(n, g)
    return homology(cx, n).cycle_class(nu_vector(elt, cx))


def vanishing_sum_check(
    gamma: Word, alphas: Sequence[Word], cx: PairComplex
) -> tuple[bool, list[int]]:
    """Evaluate sum over subsets I of {0..n} of (-1)^{|I|} applied to
    gamma * prod_{i in I} alpha_i (ascending), as a degree-n chain of the
    pair complex `cx`, n = cx.n.

    The summed combination equals gamma * prod_i (1 - alpha_i), a right
    multiple of n+1 augmentation factors, so its class must be zero.  Its
    Magnus expansion has no terms of degree <= n, so `nu_vector` gives 0
    by construction; the chain is therefore the geometric
    `subdivision_vector`.  At the top degree a class is zero exactly when
    its cycle is the zero chain, so the check passes when that chain is
    zero; a chain that is not a cycle raises ValueError.  The chain is
    returned alongside, for a caller to read the class of a failure.
    """
    n = cx.n
    if len(alphas) != n + 1:
        raise ValueError(f"need exactly {n + 1} loops, got {len(alphas)}")
    for w in (gamma, *alphas):  # the sum may cancel a word before it is read
        check_rank(w, cx.g)
    combo = combine(
        (tuple(itertools.chain(gamma, *itertools.compress(alphas, bits))), (-1) ** sum(bits))
        for bits in itertools.product((0, 1), repeat=n + 1)
    )
    vec = subdivision_vector(combo, cx)
    if not zero_image(cx.boundaries[n], enumerate(vec)):
        raise ValueError("vector is not a cycle")
    return not any(vec), vec


# ---------------------------------------------------------------------------
# Symbolic inclusion-exclusion cancellation.
# ---------------------------------------------------------------------------

# a symbolic term: per output position, (block symbol, source coordinate);
# symbols 0..n are the deletable loops, n+1 the fixed last block
SymbolicMapTerm = tuple[tuple[int, int], ...]


def symbolic_cancellation(n: int) -> dict[SymbolicMapTerm, int]:
    """Expand sum_{I subset of {0..n}} (-1)^{|I|} (subdivision of the
    concatenation of the I-loops then the fixed loop) into canonical
    per-position terms; everything cancels, so the expected value is {}.

    Terms from different I coincide exactly when they use the same blocks
    with the same level-set sizes and shuffle (empty blocks are invisible),
    and each such profile is counted with sum_{I containing its support}
    (-1)^{|I|} = 0 -- the support can never be all of {0..n} since the
    n positions fill at most n of the n+1 candidate blocks.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    return combine(_symbolic_terms(n))


def _symbolic_terms(n: int) -> Iterator[tuple[SymbolicMapTerm, int]]:
    """The (term, sign) pairs of the expansion, before cancellation."""
    for size in range(0, n + 2):
        for chosen in itertools.combinations(range(n + 1), size):
            slots = chosen + (n + 1,)
            for v, sigma in enumerate_ens(n, len(slots)):
                term = tuple((slots[b], q) for b, q in zip(v, sigma))
                yield term, (-1) ** size * epsilon(sigma)


# ---------------------------------------------------------------------------
# Pointwise sampling oracle.
# ---------------------------------------------------------------------------


def path_eval(w: Word, num: int, den: int) -> tuple:
    """Evaluate the concatenated-loops path at loop time num/den in [0, k],
    k = len(w) (time s = num / (k den) of the path), as (letter, u) with
    local parameter u/den; both endpoints of every loop sit at the
    basepoint, reported as a common token.  den must be positive.
    """
    k = len(w)
    if not 0 <= num <= k * den:
        raise ValueError(f"loop time {num}/{den} outside [0, {k}]")
    if k == 0:
        return BASEPOINT
    b = max(-(-num // den), 1)
    u = num - (b - 1) * den
    if u == 0 or u == den:
        return BASEPOINT
    return (w[b - 1][0], u)


def _path_table(w: Word, nums: Sequence[int], den: int) -> list[list[tuple]]:
    """The concatenated-loops path at loop time b + a_q / den, indexed
    [b][q - 1] over blocks b in [0, k - 1] and the numerators a_q of the
    sample point."""
    return [[path_eval(w, b * den + a, den) for a in nums] for b in range(len(w))]


def random_simplex_points(n: int, count: int, seed: int) -> list[tuple[tuple[int, ...], int]]:
    """Seeded points of the order simplex, each as its sorted coordinate
    numerators over one denominator, the lcm of the coordinates' own."""
    rng = Random(seed)
    out = []
    for _ in range(count):
        coords = []
        for _ in range(n):
            den = rng.randint(1, 24)
            coords.append((rng.randint(0, den), den))
        common = lcm(*(den for _, den in coords))
        out.append((tuple(sorted(a * (common // den) for a, den in coords)), common))
    return out


def sampling_oracle(w: Word, n: int, points: Sequence[tuple[Sequence[int], int]]) -> bool:
    """Check every subdivision piece of w against the path at every point
    (numerators, denominator), in integers, one tuple comparison per point.

    Position p of piece (v, sigma) evaluates the concatenated loops at loop
    time v_p + a_{sigma(p)} / den, the p-th output of the subdivision piece:
    entry [v_p][sigma(p) - 1] of the word's `_path_table`.  The simplex side
    reads component p of ``term_to_simplex(w, v, sigma)``: a letter and a
    jump j naming the source coordinate q = n - j + 1, at the basepoint when
    a_q is 0 or den.  Both sides of every position of every piece are read
    by one `itemgetter` each, built once per call, from the flattened path
    table and from a per-point table of (letter, coordinate) entries.
    """
    pieces = shuffle_expand(w, n)
    cells = [term_to_simplex(w, v, sigma) for v, sigma in pieces]
    letters = sorted({letter for cell in cells for letter, _ in cell})
    row_of = {letter: r * n for r, letter in enumerate(letters)}
    path_side = itemgetter(*(b * n + q - 1 for v, sigma in pieces for b, q in zip(v, sigma)))
    cell_side = itemgetter(*(row_of[letter] + n - jump for cell in cells for letter, jump in cell))
    for nums, den in points:
        path = list(itertools.chain.from_iterable(_path_table(w, nums, den)))
        table = [
            BASEPOINT if a == 0 or a == den else (letter, a) for letter in letters for a in nums
        ]
        if path_side(path) != cell_side(table):
            return False
    return True


# ---------------------------------------------------------------------------
# Naturality under wedge maps.
# ---------------------------------------------------------------------------


def push_word(w: Word, gen_map: Mapping[int, int | None]) -> Word:
    """Relabel generators along a pointed wedge map; collapsed letters
    disappear (their loop becomes constant)."""
    out = []
    for i, e in w:
        target = gen_map.get(i)
        if target is not None:
            out.append((target, e))
    return tuple(out)


def push_chain_vector(
    src: PairComplex,
    tgt: PairComplex,
    d: int,
    vec: Sequence[int],
    gen_map: Mapping[int, int | None],
) -> list[int]:
    """Push a degree-d chain vector forward componentwise, dropping the
    simplices that leave the degree-d basis of `tgt`: the basis is exactly
    the nondegenerate cells outside Y, so a cell missing from it became
    degenerate or fell into the collapsed subspace."""
    out = [0] * tgt.rank(d)
    basis = src.basis(d)
    row_of = {s: i for i, s in enumerate(tgt.basis(d))}.get
    for i, c in enumerate(vec):
        if c:
            r = row_of(push_simplex(basis[i], gen_map))
            if r is not None:
                out[r] += c
    return out


def naturality_check(
    gen_map: Mapping[int, int | None],
    w: Word,
    src: PairComplex,
    tgt: PairComplex,
) -> bool:
    """Evaluate-then-push equals push-then-evaluate, in target homology:
    `src` and `tgt` are the pair complexes of one power n over the source
    and target wedges.  Both sides are degree-n cycles of `tgt`, whose
    classes are equal exactly when the chains are, so the chains are
    compared; a side that is not a cycle raises ValueError."""
    if src.n != tgt.n:
        raise ValueError(f"source power {src.n} and target power {tgt.n} differ")
    n = tgt.n
    for i, target in gen_map.items():
        if not 1 <= i <= src.g:
            raise ValueError(f"source generator {i} out of range")
        if target is not None and not 1 <= target <= tgt.g:
            raise ValueError(f"target generator {target} out of range")
    lhs = nu_vector(push_word(w, gen_map), tgt)
    rhs = push_chain_vector(src, tgt, n, nu_vector(w, src), gen_map)
    for vec in (lhs, rhs):
        if not zero_image(tgt.boundaries[n], enumerate(vec)):
            raise ValueError("vector is not a cycle")
    return lhs == rhs
