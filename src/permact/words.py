"""Words and their descent/peak statistics.

A word is a finite sequence of distinct nonzero integers, stored as a tuple.
Permutations are the special case with letter set {1, ..., n}.  The letter 0
is reserved: it acts as a boundary sentinel under the ZERO convention, so it
is never a valid letter.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from enum import Enum
from typing import Iterable, Iterator

from .polynomials import dense

Word = tuple[int, ...]


class Boundary(Enum):
    """Virtual letters placed at both ends of a word before classifying.

    TOP:  both sentinels compare greater than every letter.
    ZERO: both sentinels are the reserved letter 0, so they compare below
          positive letters and above negative ones.
    """

    TOP = "top"
    ZERO = "zero"


class LetterClass(Enum):
    VALLEY = "valley"
    PEAK = "peak"
    DOUBLE_ASCENT = "double_ascent"
    DOUBLE_DESCENT = "double_descent"


def as_word(letters: Iterable[int]) -> Word:
    """Validate and normalize a sequence of letters into a Word.

    >>> as_word([5, 7, 3])
    (5, 7, 3)
    """
    w = tuple(int(a) for a in letters)
    seen: set[int] = set()
    for a in w:
        if a == 0:
            raise ValueError("0 is reserved as a boundary sentinel, not a letter")
        if a in seen:
            raise ValueError(f"letters must be distinct; {a} repeats")
        seen.add(a)
    return w


def parse_word(text: str) -> Word:
    """Parse a word from text.

    Letters may be separated by whitespace or commas.  A single undelimited
    token of digits that forms a permutation of {1..n} (n <= 9) is read one
    digit per letter, so "573148926" and "5 7 3 1 4 8 9 2 6" agree.

    >>> parse_word("21")
    (2, 1)
    >>> parse_word("-1, -2, 1")
    (-1, -2, 1)
    """
    tokens = text.replace(",", " ").split()
    if not tokens:
        raise ValueError("empty word text")
    if len(tokens) == 1 and tokens[0].isdigit():
        digits = [int(c) for c in tokens[0]]
        if sorted(digits) == list(range(1, len(digits) + 1)):
            return as_word(digits)
    return as_word(int(tok) for tok in tokens)


def format_word(w: Word) -> str:
    """Canonical text form: letters separated by single spaces."""
    return " ".join(str(a) for a in w)


def identity(n: int) -> Word:
    return tuple(range(1, n + 1))


def is_permutation(w: Word) -> bool:
    return sorted(w) == list(range(1, len(w) + 1))


def all_permutations(n: int) -> Iterator[Word]:
    """All n! permutations of {1..n} in lexicographic order."""
    return itertools.permutations(range(1, n + 1))


def involutions(n: int) -> Iterator[Word]:
    """All permutations of {1..n} equal to their own inverse, built by size:
    I_m is I_(m-1) with m fixed, then, for j = 1..m-1, m paired with j over
    I_(m-2) on the other letters.  Only the two previous sizes are held;
    size n is yielded lazily.  For n <= 0 the empty word is the one
    involution.

    >>> list(involutions(3))
    [(1, 2, 3), (2, 1, 3), (3, 2, 1), (1, 3, 2)]
    """
    shortest: list[Word] = []
    shorter: list[Word] = [()]
    for m in range(1, n):
        shortest, shorter = shorter, list(_involutions_from(m, shorter, shortest))
    yield from _involutions_from(n, shorter, shortest) if n > 0 else shorter


def involution_count(n: int) -> int:
    """I(n), the number of involutions of {1..n}: I(m) = I(m-1) + (m-1) I(m-2).

    >>> [involution_count(n) for n in range(7)]
    [1, 1, 2, 4, 10, 26, 76]
    """
    shorter = count = 1
    for m in range(2, n + 1):
        shorter, count = count, count + (m - 1) * shorter
    return count


def _involutions_from(m: int, shorter: list[Word], shortest: list[Word]) -> Iterator[Word]:
    """I_m from I_(m-1) and I_(m-2); pairing m with j lifts a word of
    I_(m-2) past j, in its letters and its positions alike."""
    for u in shorter:
        yield (*u, m)
    for j in range(1, m):
        for u in shortest:
            v = [a + (a >= j) for a in u]
            v.insert(j - 1, m)
            v.append(j)
            yield tuple(v)


def perm_inverse(w: Word) -> Word:
    inv = [0] * len(w)
    for i, a in enumerate(w):
        inv[a - 1] = i + 1
    return tuple(inv)


def perm_compose(u: Word, v: Word) -> Word:
    """(u . v)(i) = u(v(i)); both must be permutations of the same {1..n}."""
    return tuple(u[v[i] - 1] for i in range(len(v)))


def descent_set(w: Word) -> set[int]:
    """Positions i (1-indexed, 1 <= i < n) with w_i > w_{i+1}.

    >>> sorted(descent_set((5, 7, 3, 1, 4, 8, 9, 2, 6)))
    [2, 3, 7]
    """
    return {i + 1 for i in range(len(w) - 1) if w[i] > w[i + 1]}


def des(w: Word) -> int:
    count = 0
    a = w[0] if w else 0
    for b in w:
        if a > b:
            count += 1
        a = b
    return count


def descent_poly(ws: Iterable[Word]) -> tuple[int, ...]:
    """Descent polynomial: the sum of t^des(w) over the words, dense.

    >>> descent_poly(all_permutations(3))
    (1, 4, 1)
    """
    return dense(Counter(map(des, ws)))


def maj(w: Word) -> int:
    """Sum of descent positions.

    >>> maj((5, 7, 3, 1, 4, 8, 9, 2, 6))
    12
    """
    total = 0
    a = w[0] if w else 0
    for i, b in enumerate(w):
        if a > b:
            total += i
        a = b
    return total


# the end letter is inf under TOP (above every int letter, however large) and
# 0 under ZERO, and the class of a letter b between a and c is keyed by (a < b, b < c)
_TOP = Boundary.TOP  # read once: each enum attribute read or hash is a Python-level call
_CLASSES = {
    (False, True): LetterClass.VALLEY,
    (True, False): LetterClass.PEAK,
    (True, True): LetterClass.DOUBLE_ASCENT,
    (False, False): LetterClass.DOUBLE_DESCENT,
}


def classify(w: Word, boundary: Boundary = Boundary.TOP) -> tuple[LetterClass, ...]:
    """Class of every letter relative to its neighbors (sentinels at the ends).

    >>> [c.name[0] for c in classify((2, 3, 1))]
    ['V', 'P', 'V']
    """
    s = math.inf if boundary is _TOP else 0
    padded = (s, *w, s)
    return tuple([_CLASSES[a < b, b < c] for a, b, c in zip(padded, padded[1:], padded[2:])])


def shape(w: Word, boundary: Boundary = Boundary.TOP) -> tuple[int, int, int]:
    """(des, peak, double_descent) of w in one pass: each descent b > c
    ends a peak when b was reached by a rise (or from a lower sentinel),
    else a double descent; the last letter is closed by the sentinel.

    >>> shape((5, 7, 3, 1, 4, 8, 9, 2, 6))
    (3, 2, 1)
    """
    if not w:
        return 0, 0, 0
    s = math.inf if boundary is _TOP else 0
    descents = peaks = double_descents = 0
    b = w[0]
    rising = s < b
    for c in w[1:]:
        if b < c:
            rising = True
        else:
            descents += 1
            if rising:
                peaks += 1
                rising = False
            else:
                double_descents += 1
        b = c
    if not b < s:
        if rising:
            peaks += 1
        else:
            double_descents += 1
    return descents, peaks, double_descents


def peak(w: Word, boundary: Boundary = Boundary.TOP) -> int:
    return shape(w, boundary)[1]


def complement(w: Word) -> Word:
    """Reverse the relative order of the letters within their own letter set.

    The i-th smallest letter maps to the i-th largest.

    >>> complement((5, 8, 6, 3, 1, 7, 4, 9, 2))
    (5, 2, 4, 7, 9, 3, 6, 1, 8)
    """
    ordered = sorted(w)
    mirror = {a: b for a, b in zip(ordered, reversed(ordered))}
    return tuple(mirror[a] for a in w)


def dec_subseq_counts(w: Word, k_max: int) -> tuple[int, ...]:
    """d_i = number of strictly decreasing subsequences of length i + 1,
    for i = 1..k_max.

    >>> dec_subseq_counts((3, 2, 1), 2)
    (3, 1)
    """
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    # larger[i]: the earlier positions with larger letters; ways[i] = number
    # of decreasing subsequences of the current length ending at index i
    larger = [[q for q in range(i) if w[q] > b] for i, b in enumerate(w)]
    ways = [1] * len(w)
    out = []
    for _ in range(k_max):
        ways = [sum([ways[q] for q in qs]) for qs in larger]
        out.append(sum(ways))
    return tuple(out)


def dec_subseq_altsum(w: Word) -> int:
    """d_1 - 2 d_2 + 4 d_3 - ... of dec_subseq_counts in one pass: the sum over
    the decreasing subsequences ending at j is h_j = sum of 1 - 2 h_i, i < j, w_i > w_j.

    >>> dec_subseq_altsum((3, 2, 1))  # d_1 = 3, d_2 = 1
    1
    """
    total = 0
    weights: list[tuple[int, int]] = []  # (w_i, 1 - 2 h_i) of the letters so far
    for b in w:
        h = sum([g for a, g in weights if a > b])
        total += h
        weights.append((b, 1 - 2 * h))
    return total


def stat_bits(n: int) -> int:
    """Bits per field of transfer's packed keys over S_n: every statistic so
    packed is at most n(n+1)/2, so no field carries into the next."""
    return (n * (n + 1) // 2).bit_length()


def transfer(start, n: int, step, fields: int) -> Counter:
    """Tally of `fields` statistics over the words a one-letter-at-a-time
    pass builds, carried over the pass's states instead of its words.

    Layer k maps each state reached after k letters to {packed key: count};
    step(state, k) gives (next state, packed delta) for each next letter,
    the statistics packed in fields of stat_bits(n) bits, lowest first.
    Words that reach one state share its entry, and each state is popped as
    it is consumed.  Here des over S_3, from (seen letters, last letter):

    >>> step = lambda s, k: [((s[0] | 1 << b, b), int(s[1] > b)) for b in (1, 2, 3) if not s[0] >> b & 1]
    >>> transfer((0, 0), 3, step, 1)
    Counter({(1,): 4, (0,): 1, (2,): 1})
    """
    layer = {start: {0: 1}}
    for k in range(n):
        nxt: dict = {}
        while layer:
            state, keys = layer.popitem()
            for to, delta in step(state, k):
                into = nxt.get(to)
                if into is None:
                    nxt[to] = {key + delta: c for key, c in keys.items()}
                    continue
                for key, c in keys.items():
                    key += delta
                    into[key] = into.get(key, 0) + c
        layer = nxt
    tally: Counter = Counter()
    for keys in layer.values():
        tally.update(keys)
    bits = stat_bits(n)
    mask = (1 << bits) - 1
    return Counter({tuple([key >> bits * f & mask for f in range(fields)]): c for key, c in tally.items()})


def pair_columns(after: list[int], n: int) -> list[int]:
    """Per-permutation masks over the ordered pairs of letters, bit (a-1)n +
    (b-1) set iff a comes after b, transposed: bit k of column (a-1)n + (b-1)
    is set iff a comes after b in the k-th permutation."""
    columns = [0] * (n * n)
    for k, m in enumerate(after):
        bit = 1 << k
        while m:
            low = m & -m
            columns[low.bit_length() - 1] |= bit
            m ^= low
    return columns


def sliced_tally(rows: list[int], classes: dict[int, int], full: int) -> dict[tuple[int, int], int]:
    """(d, c) -> the number of permutations in class mask classes[d] whose
    bit is set in exactly c of the rows, positive counts only, as a plain
    dict, so two tallies compare in C.  The rows are summed bit by bit into
    binary planes (plane j holds bit j of every permutation's count), and
    each count's mask is read off the planes."""
    planes: list[int] = []
    for x in rows:
        j = 0
        while x:
            if j == len(planes):
                planes.append(x)
                break
            planes[j], x = planes[j] ^ x, planes[j] & x
            j += 1
    levels = [full]  # levels[c]: the permutations counted c times
    for p in reversed(planes):
        levels = [m for lv in levels for m in (lv & ~p, lv & p)]
    tally: dict[tuple[int, int], int] = {}
    for c, lv in enumerate(levels):
        if lv:
            for d, m in classes.items():
                v = (lv & m).bit_count()
                if v:
                    tally[d, c] = v
    return tally
