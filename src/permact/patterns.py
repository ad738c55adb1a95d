"""Vincular pattern counts, the (p,q,t)-refined descent polynomial, and the
Narayana polynomial of 231-avoiding permutations.

count_2_31 counts occurrences where the "31" is an adjacent descent and the
"2" sits anywhere earlier; count_13_2 mirrors it for an adjacent ascent with
the middle value appearing later.  Both statistics are constant on the orbits
of the modified involutions, which is what makes the refinement

    A_n(p, q, t) = sum over S_n of p^(13-2) q^(2-31) t^des

expand with coefficients 2^(2i+1-n) #{peak = i} in the t^i (1+t)^(n-1-2i)
basis.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from typing import Iterator, Sequence

from .limits import check_enumeration_size
from .polynomials import (
    GammaExpansion,
    IntPolynomial,
    peak_scale,
    q_factorial,
    strip_zeros,
    try_divide,
    uni,
)
from .words import (
    Boundary,
    LetterClass,
    Word,
    all_permutations,
    classify,
    des,
    peak,
)


def count_2_31(w: Word) -> int:
    """Pairs i < j with w_(j+1) < w_i < w_j and (j, j+1) adjacent.

    >>> count_2_31((2, 3, 1))
    1
    """
    n = len(w)
    c = 0
    for j in range(1, n - 1):
        hi, lo = w[j], w[j + 1]
        if lo < hi:
            c += sum(1 for i in range(j) if lo < w[i] < hi)
    return c


def count_13_2(w: Word) -> int:
    """Pairs i < j with w_(i-1) < w_j < w_i and (i-1, i) adjacent.

    >>> count_13_2((1, 3, 2))
    1
    """
    n = len(w)
    c = 0
    for i in range(1, n):
        lo, hi = w[i - 1], w[i]
        if lo < hi:
            c += sum(1 for j in range(i + 1, n) if lo < w[j] < hi)
    return c


def _pv_positions(w: Word) -> list[tuple[int, LetterClass]]:
    cls = classify(w, Boundary.TOP)
    keep = (LetterClass.PEAK, LetterClass.VALLEY)
    return [(k, c) for k, c in enumerate(cls) if c in keep]


def count_2_31_via_runs(w: Word) -> int:
    """Independent route: for each consecutive peak-then-valley pair (no other
    peak or valley between them), count earlier letters with values strictly
    between the two."""
    c = 0
    pv = _pv_positions(w)
    for (jp, cp), (kv, cv) in zip(pv, pv[1:]):
        if cp is LetterClass.PEAK and cv is LetterClass.VALLEY:
            hi, lo = w[jp], w[kv]
            c += sum(1 for i in range(jp) if lo < w[i] < hi)
    return c


def count_13_2_via_runs(w: Word) -> int:
    """Independent route: consecutive valley-then-peak pairs against later
    letters with values strictly between the two."""
    c = 0
    n = len(w)
    pv = _pv_positions(w)
    for (iv, cv), (jp, cp) in zip(pv, pv[1:]):
        if cv is LetterClass.VALLEY and cp is LetterClass.PEAK:
            lo, hi = w[iv], w[jp]
            c += sum(1 for k in range(jp + 1, n) if lo < w[k] < hi)
    return c


def avoids_231(w: Word) -> bool:
    """No i < j < k with w_k < w_i < w_j.

    >>> avoids_231((2, 3, 1))
    False
    >>> avoids_231((2, 1, 3))
    True
    """
    n = len(w)
    INF = max(w, default=0) + 1
    suffix_min = [INF] * (n + 1)
    for k in range(n - 1, -1, -1):
        suffix_min[k] = min(w[k], suffix_min[k + 1])
    for j in range(1, n - 1):
        lo, hi = suffix_min[j + 1], w[j]
        if lo < hi and any(lo < w[i] < hi for i in range(j)):
            return False
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


def avoiding_permutations(n: int) -> Iterator[Word]:
    check_enumeration_size(n)
    return avoiders(range(1, n + 1))


# -- the trivariate refinement ------------------------------------------


@functools.lru_cache(maxsize=None)
def apq_polynomial(n: int) -> IntPolynomial:
    """A_n(p, q, t) over S_n, variables ("p", "q", "t").

    >>> apq_polynomial(2).coefficient((0, 0, 1))
    1
    """
    check_enumeration_size(n)
    counts = Counter((count_13_2(w), count_2_31(w), des(w)) for w in all_permutations(n))
    return IntPolynomial.from_counts(("p", "q", "t"), counts)


@functools.lru_cache(maxsize=None)
def _bni_table(n: int) -> tuple[IntPolynomial, ...]:
    """All b_(n,i)(p, q) at once, with the divisibility and reconstruction
    identities asserted."""
    check_enumeration_size(n)
    counts = Counter((peak(w), (count_13_2(w), count_2_31(w))) for w in all_permutations(n))
    by_peak: list[dict[tuple[int, int], int]] = [{} for _ in range((n - 1) // 2 + 1)]
    for (i, exps), cnt in counts.items():
        by_peak[i][exps] = peak_scale(cnt, i, n)
    table = [IntPolynomial(("p", "q"), terms) for terms in by_peak]
    # the b_i must reassemble the full refinement
    p = IntPolynomial.variable("p", ("p", "q", "t"))
    q = IntPolynomial.variable("q", ("p", "q", "t"))
    t = IntPolynomial.variable("t", ("p", "q", "t"))
    acc = IntPolynomial.zero(("p", "q", "t"))
    for i, b in enumerate(table):
        lifted = b.substitute({"p": p, "q": q})
        acc = acc + lifted * t**i * (1 + t) ** (n - 1 - 2 * i)
    if acc != apq_polynomial(n):
        raise AssertionError(f"b_({n},i) do not reconstruct A_{n}(p,q,t)")
    return tuple(table)


def bni_polynomial(n: int, i: int) -> IntPolynomial:
    """b_(n,i)(p, q) = 2^(2i+1-n) sum over peak-i permutations of p^(13-2) q^(2-31).

    >>> bni_polynomial(3, 1) == IntPolynomial(("p", "q"), {(1, 0): 1, (0, 1): 1})
    True
    """
    table = _bni_table(n)
    if not 0 <= i < len(table):
        raise ValueError(f"need 0 <= i <= {(n - 1) // 2}, got {i}")
    return table[i]


def check_pq_symmetry(n: int) -> bool:
    """A_n(p, q, t) == A_n(q, p, t)."""
    A = apq_polynomial(n)
    return A == A.swap_vars("p", "q")


def check_mahonian(n: int) -> bool:
    """Both one-variable specializations of A_n collapse to [n]_q!.

    Substituting (p, q, t) -> (q, q^2, q) tracks (13-2) + 2(2-31) + des, and
    (q^2, q, q) tracks 2(13-2) + (2-31) + des.
    """
    A = apq_polynomial(n)
    qq = IntPolynomial.variable("q")
    target = q_factorial(n)
    first = A.substitute({"p": qq, "q": qq**2, "t": qq})
    second = A.substitute({"p": qq**2, "q": qq, "t": qq})
    return first == target and second == target


def check_divisibility(n: int) -> dict[int, bool]:
    """For each i, whether (p + q)^i divides b_(n,i) exactly."""
    p = IntPolynomial.variable("p", ("p", "q"))
    q = IntPolynomial.variable("q", ("p", "q"))
    out = {}
    for i in range((n - 1) // 2 + 1):
        out[i] = try_divide(bni_polynomial(n, i), (p + q) ** i) is not None
    return out


# -- Narayana ---------------------------------------------------------------


def narayana(n: int) -> tuple[IntPolynomial, GammaExpansion]:
    """Descent polynomial of the 231-avoiders, with its gamma expansion.

    Both closed forms are computed from binomials and checked against each
    other: coefficientwise C(n,k) C(n,k+1) / n, and gamma entries
    C(2k,k) C(n-1,2k) / (k+1).

    >>> narayana(4)[0].coeffs_list()
    [1, 6, 6, 1]
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
    poly = uni(coeffs)
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
