"""Vincular pattern counts, the (p,q,t)-refined descent polynomial, and the
Narayana polynomial of 231-avoiding permutations.

pattern_pair counts (13-2), occurrences where the "13" is an adjacent ascent
and the "2" sits anywhere later, and (2-31), where the "31" is an adjacent
descent and the "2" sits anywhere earlier.  Both statistics are constant on
the orbits of the modified involutions, which is what makes the refinement

    A_n(p, q, t) = sum over S_n of p^(13-2) q^(2-31) t^des

expand with coefficients 2^(2i+1-n) #{peak = i} in the t^i (1+t)^(n-1-2i)
basis.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from typing import Iterator, Sequence

from .action import class_polys_from_counts
from .limits import check_enumeration_size
from .polynomials import GammaExpansion, IntPolynomial, dense, divide_by_p_plus_q, q_factorial, strip_zeros
from .words import Word, all_permutations, des, peak, stat_bits, transfer


def pattern_pair(w: Word) -> tuple[int, int]:
    """((13-2), (2-31)) of w in one left-to-right bitmask pass: at an ascent
    a < b the unseen letters strictly between a and b add to (13-2), at a
    descent the seen ones strictly between b and a add to (2-31), the rule
    pattern_tally's transfer applies to its states.  Words not on 1..n are
    ranked first.

    >>> pattern_pair((1, 3, 2)), pattern_pair((-20, 30, -40))
    ((1, 0), (0, 1))
    """
    if w and (max(w) > len(w) or min(w) < 1):
        rank = {a: r for r, a in enumerate(sorted(w), 1)}
        w = [rank[a] for a in w]
    if not w:
        return 0, 0
    a = w[0]
    seen = 1 << a
    p = q = 0
    for b in w[1:]:
        if a < b:
            p += b - a - 1 - (seen & ((1 << b) - (2 << a))).bit_count()
        else:
            q += (seen & ((1 << a) - (2 << b))).bit_count()
        seen |= 1 << b
        a = b
    return p, q


def pattern_pair_via_runs(w: Word) -> tuple[int, int]:
    """Independent route to pattern_pair: the letters strictly between the
    two ends of each pair of adjacent extrema, every valley and the peak
    after it against the letters after the peak for (13-2), every peak and
    the valley after it against the letters before the peak for (2-31).

    One comparison pass finds the extrema under TOP: a letter is one where
    the step into it and the step out of it differ in direction, the steps
    from and to the sentinels counting as falling and rising.  So they
    alternate, starting and ending with a valley.
    """
    if not w:
        return 0, 0
    ends = []
    rising = False
    for k in range(len(w) - 1):
        if rising is not (w[k] < w[k + 1]):
            rising = not rising
            ends.append(k)
    if not rising:
        ends.append(len(w) - 1)
    p = q = 0
    for before, top, after in zip(ends[::2], ends[1::2], ends[2::2]):
        lo, hi = w[before], w[top]
        p += len([a for a in w[top + 1 :] if lo < a < hi])
        lo = w[after]
        q += len([a for a in w[:top] if lo < a < hi])
    return p, q


def avoids_231(w: Word) -> bool:
    """No i < j < k with w_k < w_i < w_j: no letter falls below one that an
    earlier, larger letter popped off the stack.

    >>> avoids_231((2, 3, 1))
    False
    >>> avoids_231((2, 1, 3))
    True
    """
    stack, popped = [], min(w, default=0)  # nothing popped yet: below every letter
    for a in w:
        if a < popped:
            return False
        while stack and stack[-1] < a:
            popped = stack.pop()
        stack.append(a)
    return True


def avoiders(letters: Sequence[int]) -> Iterator[Word]:
    """All 231-avoiding words on the given letters.

    The maximum must split the word into a left part on the smallest letters
    and a right part on the rest, both avoiding; this yields each avoider
    exactly once (Catalan many).
    """
    letters = tuple(sorted(letters))
    if not letters:
        yield ()
        return
    biggest = letters[-1]
    for k in range(len(letters)):
        for left in avoiders(letters[:k]):
            for right in avoiders(letters[k:-1]):
                yield left + (biggest,) + right


def avoiding_permutations(n: int) -> list[Word]:
    """The 231-avoiders of 1..n in the order of `avoiders`, built size by size:
    an avoider of 1..m is one of 1..k, then m, then one of 1..m-1-k shifted
    up by k.

    >>> avoiding_permutations(3)
    [(3, 2, 1), (3, 1, 2), (1, 3, 2), (2, 1, 3), (1, 2, 3)]
    """
    check_enumeration_size(n)
    by_size: list[list[Word]] = [[()]]
    for m in range(1, n + 1):
        built: list[Word] = []
        for k in range(m):
            rights = [tuple([a + k for a in r]) for r in by_size[m - 1 - k]]
            built += [head + r for head in [left + (m,) for left in by_size[k]] for r in rights]
        by_size.append(built)
    return by_size[-1]


# -- the trivariate refinement ------------------------------------------


def pattern_tally(n: int) -> Counter:
    """The joint distribution of (peak, 13-2, 2-31, des) over S_n, from a
    left-to-right transfer over (seen letters, last letter a, rising).  A
    next letter b > a adds the unseen letters strictly between a and b to
    (13-2); b < a adds the seen ones strictly between b and a to (2-31), one
    to des, and one to peak when a was reached by a rise.

    >>> pattern_tally(3)[1, 1, 0, 1]
    1
    """
    check_enumeration_size(n)
    return transfer((0, 0, False), n, _pattern_step(n), 4)


def _pattern_step(n: int):
    """pattern_tally's step; key fields peak, (13-2), (2-31), des."""
    bits = stat_bits(n)
    between = [[(1 << b) - (2 << a) for b in range(n + 1)] for a in range(n + 1)]  # a < b
    letters = [(b, 1 << b) for b in range(1, n + 1)]
    p_unit, q_unit, descent = 1 << bits, 1 << 2 * bits, 1 << 3 * bits

    def step(state, k):
        seen, a, rising = state
        if not seen:
            return [((bit, b, False), 0) for b, bit in letters]
        return [((seen | bit, b, True), (b - a - 1 - (seen & between[a][b]).bit_count()) * p_unit) if a < b
                else ((seen | bit, b, False), (seen & between[b][a]).bit_count() * q_unit + descent + rising)
                for b, bit in letters if not seen & bit]

    return step


def pattern_tally_via_runs(n: int) -> Counter:
    """The same distribution word by word, from `peak`, `pattern_pair_via_runs`
    and `des`: the route pattern_tally replaces."""
    return Counter((peak(w), *pattern_pair_via_runs(w), des(w)) for w in all_permutations(n))


@functools.lru_cache(maxsize=None)
def _pattern_tables(n: int) -> tuple[IntPolynomial, tuple[IntPolynomial, ...]]:
    """A_n(p, q, t) and all b_(n,i)(p, q), folded from one pattern_tally."""
    if n < 1:  # S_0 holds the empty word only, and no b-expansion exists
        return IntPolynomial.constant(("p", "q", "t"), 1), ()
    return _fold(pattern_tally(n), n)


def _fold(tally: Counter, n: int) -> tuple[IntPolynomial, tuple[IntPolynomial, ...]]:
    """A_n(p, q, t) and the b_(n,i)(p, q) of a (peak, 13-2, 2-31, des) tally
    over S_n, n >= 1.  Each (13-2, 2-31) class is action-invariant, so
    class_polys_from_counts gives its descent polynomial and its b_i, and
    raises an ArithmeticError when the two disagree."""
    classes: dict[tuple[int, int], tuple[dict, dict]] = {}
    for (i, a, b, d), cnt in tally.items():
        descents, peaks = classes.setdefault((a, b), ({}, {}))
        descents[d] = descents.get(d, 0) + cnt
        peaks[i] = peaks.get(i, 0) + cnt
    apq: dict[tuple[int, int, int], int] = {}
    by_peak: list[dict] = [{} for _ in range((n - 1) // 2 + 1)]
    for (a, b), (descents, peaks) in classes.items():
        W, bs = class_polys_from_counts(descents, peaks, n)
        apq.update({(a, b, d): c for d, c in enumerate(W)})
        for i, c in enumerate(bs):
            by_peak[i][a, b] = c
    return (IntPolynomial(("p", "q", "t"), apq),
            tuple(IntPolynomial(("p", "q"), counts) for counts in by_peak))


def apq_polynomial(n: int) -> IntPolynomial:
    """A_n(p, q, t) over S_n, variables ("p", "q", "t").

    >>> apq_polynomial(2).terms[0, 0, 1]
    1
    """
    return _pattern_tables(n)[0]


def bni_polynomial(n: int, i: int) -> IntPolynomial:
    """b_(n,i)(p, q) = 2^(2i+1-n) sum over peak-i permutations of p^(13-2) q^(2-31).

    >>> bni_polynomial(3, 1) == IntPolynomial(("p", "q"), {(1, 0): 1, (0, 1): 1})
    True
    """
    table = _pattern_tables(n)[1]
    if not 0 <= i < len(table):
        raise ValueError(f"need 0 <= i <= {(n - 1) // 2}, got {i}")
    return table[i]


def bni_via_scans(n: int) -> list[IntPolynomial]:
    """Every b_(n,i)(p, q), i = 0..(n-1)//2, folded from pattern_tally_via_runs:
    the route that _pattern_tables' transfer tally replaces."""
    return list(_fold(pattern_tally_via_runs(n), n)[1])


def check_pq_symmetry(n: int) -> bool:
    """A_n(p, q, t) == A_n(q, p, t)."""
    A = apq_polynomial(n)
    return A == A.swap_vars("p", "q")


def check_mahonian(n: int) -> bool:
    """Both one-variable specializations of A_n collapse to [n]_q!.

    Substituting (p, q, t) -> (q, q^2, q) tracks (13-2) + 2(2-31) + des, and
    (q^2, q, q) tracks 2(13-2) + (2-31) + des; each is tallied straight from
    the exponents of A_n.
    """
    first: Counter = Counter()
    second: Counter = Counter()
    for (a, b, d), c in apq_polynomial(n).terms.items():
        first[a + 2 * b + d] += c
        second[2 * a + b + d] += c
    target = q_factorial(n)
    return dense(first) == target and dense(second) == target


def check_divisibility(n: int) -> dict[int, bool]:
    """For each i, whether (p + q)^i divides b_(n,i) exactly: i exact
    divisions by p + q."""
    results = {}
    for i in range((n - 1) // 2 + 1):
        b = bni_polynomial(n, i)
        for _ in range(i):
            b = divide_by_p_plus_q(b)
            if b is None:
                break
        results[i] = b is not None
    return results


# -- Narayana ---------------------------------------------------------------


def narayana(n: int) -> tuple[tuple[int, ...], GammaExpansion]:
    """Descent polynomial of the 231-avoiders, with its gamma expansion.

    Both closed forms are computed from binomials and checked against each
    other: coefficientwise C(n,k) C(n,k+1) / n, and gamma entries
    C(2k,k) C(n-1,2k) / (k+1).

    >>> narayana(4)[0]
    (1, 6, 6, 1)
    >>> narayana(4)[1].gamma
    (1, 3)
    """
    if n < 1:
        raise ValueError("n must be positive")
    coeffs = []
    for k in range(n):
        num = math.comb(n, k) * math.comb(n, k + 1)
        if num % n:
            raise AssertionError("Narayana coefficient is not an integer")
        coeffs.append(num // n)
    poly = tuple(coeffs)
    gamma = []
    for k in range((n - 1) // 2 + 1):
        num = math.comb(2 * k, k) * math.comb(n - 1, 2 * k)
        if num % (k + 1):
            raise AssertionError("Narayana gamma entry is not an integer")
        gamma.append(num // (k + 1))
    expansion = GammaExpansion(n - 1, strip_zeros(gamma))
    if expansion.reconstruct() != poly:
        raise AssertionError(f"Narayana closed forms disagree at n={n}")
    return poly, expansion
