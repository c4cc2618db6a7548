"""Free-group words and their truncated Magnus coordinates.

Words in the free group on generators 1..g are tuples of letters
``(generator index, exponent +-1)``.  The text form uses one lowercase
letter per generator and the corresponding uppercase letter for its
inverse; which letter names which generator is set by an *alphabet* string
(the default pool starts at ``x`` so that small examples read naturally).

The degree-n Magnus expansion sends generator i to ``1 + X_i`` in the ring
of noncommutative polynomials truncated above total degree n.  Its kernel
on integer combinations of words is exactly the span of the right-multiples
``(word) * (product of n+1 augmentation-ideal factors)``, so the monomials
of degree <= n give a free basis of the corresponding quotient of the group
ring.  ``monomial_index(n, g)`` fixes those monomials as list positions,
once per (n, g), and ``expansion`` computes a word's coordinates on them
by updating one int list in place per letter.  The evaluation in
``transform.nu_vector`` reads a word only through ``expansion``: its chain
vector is a fixed matrix times these coordinates, inverse letters
included.  ``magnus`` and ``combo_magnus`` are the same coordinates as a
dict of the nonzero ones, by monomial; ``tests/oracles.py`` keeps the
truncated polynomial product as their reference.

Integer combinations of words (``WordCombo``), monomials (``Tensor``),
boundary faces and shuffle terms are summed into dicts that never store a
zero, so equal combinations compare equal; ``combine`` is the one
accumulator that does it.

``positivize`` rewrites any word as an integer combination of positive
words with the same expansion, via

    (inverse of x)  ==  sum_{j=0}^{n} (1 - x)^j   (mod degree > n),

which lets the geometric subdivision (``transform.subdivision_vector``, the
independent witness in the theorem-b suite) assume positive words.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import comb
from typing import Hashable, Iterable, Mapping, NamedTuple, TypeVar

Word = tuple[tuple[int, int], ...]
Monomial = tuple[int, ...]
Tensor = dict[Monomial, int]
WordCombo = dict[Word, int]
K = TypeVar("K", bound=Hashable)

# default letter pool: 'x' names generator 1 so the usual one- and
# two-generator examples read as x, y
LETTER_POOL = "xyzabcdefghijklmnopqrstuvw"


def make_alphabet(strings: Iterable[str], g: int) -> str:
    """An alphabet for a rank-g free group covering the given text words.

    Distinct letters used (case-folded) are bound to generators in
    alphabetical order; remaining generator slots take unused letters from
    the default pool.

    >>> make_alphabet(["xx"], 1)
    'x'
    >>> make_alphabet(["y", "xY"], 2)
    'xy'
    """
    if g > len(LETTER_POOL):
        raise ValueError(f"rank {g} exceeds the {len(LETTER_POOL)} letters words can name")
    strings = list(strings)
    for s in strings:
        if not all(c.isascii() and c.isalpha() for c in s):
            raise ValueError(f"word {s!r} must match [a-zA-Z]*")
    used = sorted({c.lower() for s in strings for c in s})
    if len(used) > g:
        raise ValueError(
            f"words use {len(used)} distinct letters but the group has rank {g}"
        )
    pool = [c for c in LETTER_POOL if c not in used]
    letters = used + pool[: g - len(used)]
    return "".join(letters[:g])


def parse_word(text: str, alphabet: str | None = None) -> Word:
    """Parse a text word; uppercase letters are inverses.

    With no alphabet given, the distinct letters of the text itself (in
    alphabetical order) name generators 1, 2, ...

    >>> parse_word("xXy", "xy")
    ((1, 1), (1, -1), (2, 1))
    """
    if not all(c.isascii() and c.isalpha() for c in text):
        raise ValueError(f"word {text!r} must match [a-zA-Z]*")
    if alphabet is None:
        alphabet = "".join(sorted({c.lower() for c in text}))
    index = {c: i for i, c in enumerate(alphabet, start=1)}
    letters = []
    for c in text:
        i = index.get(c.lower())
        if i is None:
            raise ValueError(f"letter {c!r} not in alphabet {alphabet!r}")
        letters.append((i, 1 if c.islower() else -1))
    return tuple(letters)


def word_str(w: Word, alphabet: str = LETTER_POOL) -> str:
    out = []
    for i, e in w:
        if not 1 <= i <= len(alphabet):
            raise ValueError(f"generator {i} has no letter in an alphabet of {len(alphabet)}")
        c = alphabet[i - 1]
        if e not in (1, -1):
            raise ValueError(f"letter exponent must be +-1, got {e}")
        out.append(c if e == 1 else c.upper())
    return "".join(out)


def is_positive(w: Word) -> bool:
    return all(e == 1 for _, e in w)


def positive_words(g: int, lengths: Iterable[int]) -> list[Word]:
    """Every positive word over generators 1..g of the given lengths, length
    by length, each length in lexicographic order."""
    return [
        tuple((i, 1) for i in letters)
        for length in lengths
        for letters in itertools.product(range(1, g + 1), repeat=length)
    ]


def check_rank(w: Word, g: int) -> None:
    for i, e in w:
        if not 1 <= i <= g:
            raise ValueError(f"generator {i} out of range for rank {g}")
        if e not in (1, -1):
            raise ValueError(f"letter exponent must be +-1, got {e}")


# ---------------------------------------------------------------------------
# Integer combinations and the truncated Magnus expansion.
# ---------------------------------------------------------------------------


def combine(terms: Iterable[tuple[K, int]]) -> dict[K, int]:
    """Sum the coefficients of equal keys, storing no zero.

    >>> combine([("a", 1), ("b", 2), ("a", -1)])
    {'b': 2}
    """
    out: dict[K, int] = {}
    for key, c in terms:
        c += out.get(key, 0)
        if c:
            out[key] = c
        else:
            out.pop(key, None)
    return out


class MonomialIndex(NamedTuple):
    """The monomials of degree <= n in generators 1..g, by degree and then
    lexicographically, and for each generator i (entry i - 1 of `steps`)
    the position pairs (m, m X_i) for every m of degree < n, by degree."""

    monomials: tuple[Monomial, ...]
    steps: tuple[tuple[tuple[int, int], ...], ...]


@lru_cache(maxsize=None)
def monomial_index(n: int, g: int) -> MonomialIndex:
    """The fixed coordinates of degree-n expansions in rank g.

    >>> monomial_index(2, 1)
    MonomialIndex(monomials=((), (1,), (1, 1)), steps=(((0, 1), (1, 2)),))
    """
    if n < 0:
        raise ValueError("truncation degree must be >= 0")
    monomials = tuple(
        m for k in range(n + 1) for m in itertools.product(range(1, g + 1), repeat=k)
    )
    position = {m: p for p, m in enumerate(monomials)}
    steps = tuple(
        tuple((p, position[m + (i,)]) for p, m in enumerate(monomials) if len(m) < n)
        for i in range(1, g + 1)
    )
    return MonomialIndex(monomials, steps)


def expansion(combo: Mapping[Word, int], n: int, g: int) -> list[int]:
    """Degree-n expansion of an integer combination of words, each checked
    against rank g, as coordinates on `monomial_index(n, g).monomials`.

    Each word starts from its coefficient at the empty monomial and is
    multiplied on the right letter by letter, in place.  A letter x_i
    adds v[m] to v[m X_i], higher degrees first so every v[m] read is
    still the old one; its inverse, (1 + X_i)^-1, solves u (1 + X_i) = v
    degree by degree, u[m X_i] = v[m X_i] - u[m], lower degrees first.

    >>> expansion({((1, 1),): 1, ((1, -1),): 1}, 2, 1)
    [2, 0, 1]
    """
    monomials, steps = monomial_index(n, g)
    out = [0] * len(monomials)
    for w, c in combo.items():
        check_rank(w, g)
        v = [0] * len(monomials)
        v[0] = c
        for i, e in w:
            if e == 1:
                for m, mx in reversed(steps[i - 1]):
                    v[mx] += v[m]
            else:
                for m, mx in steps[i - 1]:
                    v[mx] -= v[m]
        out = [a + b for a, b in zip(out, v)]
    return out


def _least_rank(words: Iterable[Word]) -> int:
    """The rank of the largest generator the words use."""
    g = 0
    for w in words:
        for i, _ in w:
            if i < 1:
                raise ValueError(f"generator {i} out of range: generators are numbered from 1")
            g = max(g, i)
    return g


def combo_magnus(combo: Mapping[Word, int], n: int, g: int | None = None) -> Tensor:
    """Degree-n expansion of an integer combination of words: the nonzero
    coordinates of `expansion`, by monomial.  Every word is checked against
    the rank g, or, with none given, against the largest generator used."""
    if g is None:
        g = _least_rank(combo)
    monomials = monomial_index(n, g).monomials
    return {m: c for m, c in zip(monomials, expansion(combo, n, g)) if c}


def magnus(w: Word, n: int, g: int | None = None) -> Tensor:
    """Degree-n expansion of a word: multiplicative, generator i -> 1 + X_i.

    >>> magnus(((1, 1),), 2)
    {(): 1, (1,): 1}
    """
    return combo_magnus({w: 1}, n, g)


# ---------------------------------------------------------------------------
# Rewriting into positive words.
# ---------------------------------------------------------------------------


def positivize(w: Word, n: int) -> WordCombo:
    """An integer combination of positive words with the same degree-n
    expansion as w.

    Each inverse letter is replaced by sum_{j<=n} (1-x)^j, whose x^m
    coefficient is (-1)^m C(n+1, m+1); the replacement differs from the
    inverse by a right multiple of (1-x)^{n+1}, hence is invisible at
    degree n.  A positive word comes back as itself; otherwise the
    expansion equality is rechecked before returning.

    >>> positivize(((1, -1),), 1)
    {(): 2, ((1, 1),): -1}
    """
    if is_positive(w):
        return {w: 1}
    combo: WordCombo = {(): 1}
    for i, e in w:
        if e == 1:
            factor: WordCombo = {((i, 1),): 1}
        elif e == -1:
            factor = {
                ((i, 1),) * m: (-1) ** m * comb(n + 1, m + 1) for m in range(n + 1)
            }
        else:
            raise ValueError(f"letter exponent must be +-1, got {e}")
        combo = combine(
            (u + v, cu * cv) for u, cu in combo.items() for v, cv in factor.items()
        )
    if combo_magnus(combo, n) != magnus(w, n):
        raise AssertionError(f"positivize broke the degree-{n} expansion of {w}")
    return combo
