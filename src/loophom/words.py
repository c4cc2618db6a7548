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
ring.  The evaluation in ``transform.nu_vector`` reads a word only through
``combo_magnus``: its chain vector is a fixed matrix times these
coordinates, inverse letters included.

Integer combinations of words (``WordCombo``), monomials (``Tensor``),
boundary faces and shuffle terms are summed into dicts that never store a
zero, so equal combinations compare equal; ``combine`` is the one
accumulator that does it (``tensor_mul``, the expansion's inner loop,
sums in place).

``positivize`` rewrites any word as an integer combination of positive
words with the same expansion, via

    (inverse of x)  ==  sum_{j=0}^{n} (1 - x)^j   (mod degree > n),

which lets the geometric subdivision (``transform.subdivision_vector``, the
independent witness in the theorem-b suite) assume positive words.
"""

from __future__ import annotations

import itertools
from math import comb
from typing import Hashable, Iterable, Mapping, TypeVar

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
# Integer combinations and truncated noncommutative polynomials.
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


def tensor_one() -> Tensor:
    return {(): 1}


def tensor_mul(a: Tensor, b: Tensor, n: int) -> Tensor:
    """Product, dropping monomials of degree above n.  The inner loop of
    every expansion, so it sums in place: `combine` is slower here."""
    out: Tensor = {}
    for ma, ca in a.items():
        room = n - len(ma)
        if room < 0:
            continue
        for mb, cb in b.items():
            if len(mb) > room:
                continue
            m = ma + mb
            c = out.get(m, 0) + ca * cb
            if c:
                out[m] = c
            else:
                out.pop(m, None)
    return out


def _letter_tensor(i: int, e: int, n: int) -> Tensor:
    if e == 1:
        return {(): 1, (i,): 1} if n >= 1 else {(): 1}
    if e != -1:
        raise ValueError(f"letter exponent must be +-1, got {e}")
    # geometric series for the inverse: sum_j (-X_i)^j, degree <= n
    return {(i,) * j: (-1) ** j for j in range(n + 1)}


def magnus(w: Word, n: int, g: int | None = None) -> Tensor:
    """Degree-n expansion of a word: multiplicative, generator i -> 1 + X_i.

    >>> magnus(((1, 1),), 2)
    {(): 1, (1,): 1}
    """
    if n < 0:
        raise ValueError("truncation degree must be >= 0")
    if g is not None:
        check_rank(w, g)
    out = tensor_one()
    for i, e in w:
        out = tensor_mul(out, _letter_tensor(i, e, n), n)
    return out


def combo_magnus(combo: Mapping[Word, int], n: int, g: int | None = None) -> Tensor:
    """Degree-n expansion of an integer combination of words; with g given,
    every word is checked against the rank first."""
    return combine(
        (m, c * cm) for w, c in combo.items() for m, cm in magnus(w, n, g).items()
    )


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
