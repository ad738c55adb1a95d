"""Commuting involutions on words, their orbits, and class polynomials.

For a letter x of w, write w = w1 w2 x w4 w5 where w2 (resp. w4) is the
maximal contiguous block of letters smaller than x immediately left (resp.
right) of x.  The block swap ``phi_x`` exchanges w2 and w4.  Equivalently,
when x sits between a larger left neighbor and a smaller right one it hops
right to the first gap (a, b) with a < x < b, and in the mirrored situation
it hops left; letters with two larger neighbors (valleys) are fixed either
way.

The modified involution ``phi_prime_x`` applies the swap only when x is a
double ascent or double descent, so peaks and valleys both stay put.  These
involutions commute, and the group they generate cuts each symmetric group
into orbits whose descent generating function is t^k (1+t)^(n-1-2k).

Under the TOP boundary each orbit of S_n holds exactly one word with no
double descent, and only that word's double ascents move it.
``orbit_reps`` walks those words depth first, in lex order, each with its
double-ascent letters, so the orbits of S_n are built one per representative
with neither a set of words already seen nor a level of prefixes held.
``orbits`` is the enumerator for any other set of seeds (linear extensions,
and the small-n oracle walk of S_n): it holds the only such set.
``verified_orbit`` keeps its members in the order it is given them: a caller
that shows them, as ``orbit`` does, sorts them first.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import lru_cache
from itertools import combinations
from operator import getitem
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple

from .limits import check_enumeration_count
from .polynomials import GammaExpansion, NonIntegralError, dense, peak_scale, strip_zeros, uni
from .words import (
    Boundary,
    LetterClass,
    Word,
    classify,
    des,
    peak,
    shape,
)


class LetterNotPresentError(ValueError):
    pass


class NotInvariantError(ArithmeticError):
    """The b_i fail to expand the class; the class is not action-invariant."""


class NonIntegralBError(NotInvariantError):
    """The 2-adic peak-count formula fails; the class is not action-invariant."""


def x_factorization(w: Word, x: int) -> tuple[Word, Word, int, Word, Word]:
    """Split w = w1 w2 x w4 w5 around the letter x.

    w2 and w4 are the maximal contiguous all-smaller-than-x blocks adjacent
    to x; they are empty exactly when the neighboring letter (if any) is
    larger than x.

    >>> x_factorization((5, 7, 3, 1, 4, 8, 9, 2, 6), 8)
    ((), (5, 7, 3, 1, 4), 8, (), (9, 2, 6))
    """
    try:
        k = w.index(x)
    except ValueError:
        raise LetterNotPresentError(f"letter {x} not in word") from None
    i = k
    while i > 0 and w[i - 1] < x:
        i -= 1
    j = k + 1
    while j < len(w) and w[j] < x:
        j += 1
    return w[:i], w[i:k], x, w[k + 1 : j], w[j:]


def phi_x(w: Word, x: int) -> Word:
    """Swap the two all-smaller blocks adjacent to x.  An involution.

    >>> phi_x((3, 1, 2), 2)
    (3, 2, 1)
    """
    try:
        k = w.index(x)
    except ValueError:
        raise LetterNotPresentError(f"letter {x} not in word") from None
    i = k
    while i and w[i - 1] < x:
        i -= 1
    j = k + 1
    n = len(w)
    while j < n and w[j] < x:
        j += 1
    return w[:i] + w[k + 1 : j] + (x,) + w[i:k] + w[j:]


def phi_x_via_factorization(w: Word, x: int) -> Word:
    """Independent route to phi_x: swap the blocks of x_factorization."""
    w1, w2, _, w4, w5 = x_factorization(w, x)
    return w1 + w4 + (x,) + w2 + w5


def phi_prime_x(w: Word, x: int) -> Word:
    """Block swap at x if x is a double ascent or double descent, else w.

    Classification uses the TOP sentinels, so double descents move right
    and double ascents left while peaks and valleys stay.  Only x's two
    neighbors are compared (an end compares as larger); then x moves past
    the all-smaller block on its smaller side.  For a word of negative
    letters the ZERO sentinels compare the same way.

    >>> phi_prime_x((5, 7, 3, 1, 4, 8, 9, 2, 6), 4)
    (5, 7, 4, 3, 1, 8, 9, 2, 6)
    """
    try:
        k = w.index(x)
    except ValueError:
        raise LetterNotPresentError(f"letter {x} not in word") from None
    n = len(w)
    left_smaller = k > 0 and w[k - 1] < x
    right_smaller = k + 1 < n and w[k + 1] < x
    if left_smaller == right_smaller:
        return w
    v = list(w)
    del v[k]
    if left_smaller:
        i = k - 1
        while i and w[i - 1] < x:
            i -= 1
        v.insert(i, x)
    else:
        j = k + 2
        while j < n and w[j] < x:
            j += 1
        v.insert(j - 1, x)
    return tuple(v)


def phi_prime_x_via_factorization(w: Word, x: int) -> Word:
    """Independent route to phi_prime_x: read x's class off classify(w),
    then swap through x_factorization."""
    try:
        k = w.index(x)
    except ValueError:
        raise LetterNotPresentError(f"letter {x} not in word") from None
    cls = classify(w)[k]
    if cls in (LetterClass.DOUBLE_ASCENT, LetterClass.DOUBLE_DESCENT):
        return phi_x_via_factorization(w, x)
    return w


def phi_prime_full(w: Word) -> Word:
    """Apply phi_prime_x at every letter, in increasing letter order (the
    factors commute, so the order only makes the computation reproducible);
    complements the descent count: des(phi_prime_full(w)) + des(w) = len(w) - 1."""
    for x in sorted(set(w)):
        w = phi_prime_x(w, x)
    return w


class HopTable(dict):
    """word -> (hop(w, x) for x in letters), each row computed on its first
    read and kept.  Each image is interned against the seeds, so an image
    equal to a word already held is that word's one copy.

    >>> table = HopTable([(1, 2, 3)], (1, 2, 3), phi_prime_x)
    >>> table[(1, 2, 3)][1:]
    ((2, 1, 3), (3, 1, 2))
    >>> table.first_failure((1, 2, 3)) is None
    True
    """

    def __init__(
        self, seeds: Iterable[Word], letters: Iterable[int], hop: Callable[[Word, int], Word]
    ) -> None:
        super().__init__()
        self.held = {w: w for w in seeds}
        self.letters = tuple(letters)
        self.hop = hop

    def __missing__(self, w: Word) -> tuple[Word, ...]:
        held, hop = self.held, self.hop
        row = self[w] = tuple([held.setdefault(h, h) for h in [hop(w, x) for x in self.letters]])
        return row

    def first_failure(self, w: Word) -> dict | None:
        """None when at w every hop is an involution and every two hops
        commute; else {"x": x} for the first letter x whose hop does not
        return to w, or {"x": x, "y": y} for the first pair x < y with
        hop_x(hop_y(w)) != hop_y(hop_x(w)).  The diagonal of the image rows
        is compared with [w] * n and the rows with their transpose; the
        letters are walked only to name a failure."""
        rows = list(map(self.__getitem__, self[w]))
        n = len(rows)
        if list(map(getitem, rows, range(n))) == [w] * n and rows == list(zip(*rows)):
            return None
        letters = self.letters
        for i, x in enumerate(letters):
            if rows[i][i] != w:
                return {"x": x}
        for (i, x), (j, y) in combinations(enumerate(letters), 2):
            if rows[j][i] != rows[i][j]:
                return {"x": x, "y": y}


class OrbitReport(NamedTuple):
    """One orbit of the commuting involutions, with its verified invariants.

    ``members`` keep the order ``verified_orbit`` was given them in.  ``peak``
    is the descent count of the canonical representative (the unique member
    without double descents); it equals the peak count of every member under
    the TOP boundary.  ``descent_poly`` is dense, constant term first.
    ``peaks`` holds each member's own peak count, aligned with ``members``;
    it is not part of the JSON form.
    """

    members: tuple[Word, ...]
    rep: Word
    peak: int
    descent_poly: tuple[int, ...]
    gamma_claim: GammaExpansion
    peaks: tuple[int, ...]

    def to_json_dict(self) -> dict:
        return {
            "members": [list(m) for m in self.members],
            "rep": list(self.rep),
            "peak": self.peak,
            "descent_poly": uni(self.descent_poly).to_json_dict(),
            "gamma_claim": self.gamma_claim.to_json_dict(),
        }


def orbit_members(
    seed: Word, hop: Callable[[Word, int], Word], letters: Iterable[int] | None = None
) -> frozenset[Word]:
    """Orbit of seed under commuting involutions hop(., x), one per letter x.

    The orbit is {hop_S(seed) : S a set of letters that move seed}: a letter
    that fixes seed fixes every member, by commutation.  So each moving
    letter doubles the members found so far, which costs 2^k - 1 hops plus
    one probe per letter; the probe's image is the seed's new member.
    ``letters`` (every letter of seed by default) are the letters probed; a
    caller that knows which letters move seed passes just those.
    ``orbit_closure`` is the general route.
    """
    members = [seed]
    for x in seed if letters is None else letters:
        image = hop(seed, x)
        if image != seed:
            members += [image] + [hop(m, x) for m in members[1:]]
    return frozenset(members)


def orbits(seeds: Iterable[Word], hop: Callable[[Word, int], Word]) -> Iterator[frozenset[Word]]:
    """Each orbit that meets seeds, once, as orbit_members of its first seed
    not seen yet.  Raises RuntimeError when a new orbit meets an earlier one,
    which commuting involutions cannot produce."""
    seen: set[Word] = set()
    for w in seeds:
        if w not in seen:
            members = orbit_members(w, hop)
            if not seen.isdisjoint(members):
                raise RuntimeError(f"orbits are not disjoint: the orbit of {w} meets an earlier one")
            seen |= members
            yield members


def orbit_reps(n: int) -> Iterator[tuple[Word, tuple[int, ...]]]:
    """The words on 1..n with no double descent under TOP, in lex order: one
    per orbit of S_n, each with its double-ascent letters, the letters whose
    hop moves it, left to right.

    A depth-first prefix search on an explicit stack of one frame per prefix
    length, so it holds O(n^2) letters, never a level of prefixes.  A frame
    keeps its prefix, the prefix's last letter, whether the step into it
    fell, the letters left, the double ascents so far and the index of the
    next letter to try.  No fall may follow a fall, and the left TOP sentinel
    makes the step into w_1 a fall.  A letter is a double ascent when a rise
    reaches it and another leaves it; the right TOP sentinel makes a rise
    into the last letter a double ascent.  For n < 1 the empty word is the
    one representative.

    >>> list(orbit_reps(3))
    [((1, 2, 3), (2, 3)), ((1, 3, 2), ()), ((2, 3, 1), ())]
    """
    if n < 1:
        yield (), ()
        return
    # the root's last letter is the left sentinel, and no step led into it
    stack = [[(), math.inf, False, tuple(range(1, n + 1)), (), 0]]
    while stack:
        frame = stack[-1]
        prefix, a, fell, rest, ups, i = frame
        if i == len(rest):
            stack.pop()
            continue
        frame[5] = i + 1
        b = rest[i]
        if b > a:
            if not fell:
                ups += (a,)
            if len(rest) == 1:
                yield prefix + (b,), ups + (b,)
            else:
                stack.append([prefix + (b,), b, False, rest[:i] + rest[i + 1 :], ups, 0])
        elif not fell:
            if len(rest) == 1:
                yield prefix + (b,), ups
            else:
                stack.append([prefix + (b,), b, True, rest[:i] + rest[i + 1 :], ups, 0])


def orbit_closure(seed: Word, hop: Callable[[Word, int], Word]) -> frozenset[Word]:
    """Closure of {seed} under hop(., x) for every letter x, by search;
    needs neither commutation nor involutions."""
    members = {seed}
    stack = [seed]
    while stack:
        v = stack.pop()
        for x in v:
            u = hop(v, x)
            if u not in members:
                members.add(u)
                stack.append(u)
    return frozenset(members)


@lru_cache(maxsize=None)
def _closed_form(d: int, k: int) -> tuple[GammaExpansion, tuple[int, ...]]:
    """The claimed orbit form t^k (1+t)^(d-2k) and its coefficients."""
    claim = GammaExpansion(d, (0,) * k + (1,))
    return claim, claim.reconstruct()


def verified_orbit(
    members: Iterable[Word], d: int, boundary: Boundary, seed: Word | None = None
) -> OrbitReport:
    """The orbit report of members, in the order given, checked to have
    exactly one member without double descents (under boundary), equal to
    seed when one is given, and descent polynomial t^k (1+t)^(d-2k), k the
    descent count of that member.  One ``shape`` pass per member gives its
    descent, peak and double-descent counts.  Raises RuntimeError otherwise,
    naming the orbit by its least member."""
    members = tuple(members)
    tally = [0] * max(len(members[0]), 1)
    peaks = []
    reps = []
    for v in members:
        descents, peak_count, double_descents = shape(v, boundary)
        tally[descents] += 1
        peaks.append(peak_count)
        if not double_descents:
            reps.append(v)
    if len(reps) != 1:
        raise RuntimeError(
            f"orbit of {min(members)} has {len(reps)} double-descent-free members, expected 1"
        )
    # k read by des, not by shape: a shape that miscounts descents then
    # fails the closed-form comparison
    rep = reps[0]
    if seed is not None and rep != seed:
        raise RuntimeError(
            f"orbit of {min(members)}: its double-descent-free member {rep} is not the seed {seed}"
        )
    k = des(rep)
    claim, poly = _closed_form(d, k)
    counts = strip_zeros(tally)
    if counts != poly:
        raise RuntimeError(
            f"orbit of {min(members)}: descent polynomial coefficients {list(counts)} "
            f"!= t^{k}(1+t)^{d - 2 * k}"
        )
    return OrbitReport(members, rep, k, poly, claim, tuple(peaks))


def orbit(w: Word) -> OrbitReport:
    """Orbit of w with its descent polynomial and the verified closed form,
    under the TOP boundary.

    >>> orbit((2, 1)).descent_poly
    (1, 1)
    """
    if not w:
        raise ValueError("empty word has no orbit")
    k = peak(w)
    check_enumeration_count(2 ** (len(w) - 1 - 2 * k), f"the orbit of a {len(w)}-letter word")
    report = verified_orbit(sorted(orbit_members(w, phi_prime_x)), len(w) - 1, Boundary.TOP)
    if k != report.peak:
        raise RuntimeError(f"orbit of {w}: rep descent count differs from peak count")
    return report


class ClassPolys(NamedTuple):
    """The descent polynomial of an action-invariant class, dense, with the
    2-adically scaled peak counts b_i that expand it."""

    W: tuple[int, ...]
    b: tuple[int, ...]


def class_polys(T: Iterable[Word]) -> ClassPolys:
    """Compute W(T;t) and b_i = 2^(2i+1-n) #{peak = i}.

    Raises NonIntegralBError when a b_i is not an integer and
    NotInvariantError when the b_i fail to reconstruct W: T is not closed
    under the involutions.  T is read once; ValueError means it is empty or
    its words differ in length.

    >>> from .words import all_permutations
    >>> class_polys(all_permutations(3)).b
    (1, 2)
    """
    lengths: set[int] = set()  # set.add returns None: the filter passes every word
    shapes = Counter(map(shape, (v for v in T if not lengths.add(len(v)))))
    if not lengths:
        raise ValueError("empty class")
    if len(lengths) > 1:
        raise ValueError("class members must share one length")
    (n,) = lengths
    descent_counts: Counter = Counter()
    peak_counts: Counter = Counter()
    for (descents, peak_count, _), c in shapes.items():
        descent_counts[descents] += c
        peak_counts[peak_count] += c
    return class_polys_from_counts(descent_counts, peak_counts, n)


def class_polys_from_counts(descent_counts: Mapping[int, int], peak_counts: Mapping[int, int],
                            n: int) -> ClassPolys:
    """class_polys, with its errors, from a class's counts of words of length n
    by descents and by peaks."""
    W = dense(descent_counts)
    try:
        b = strip_zeros([peak_scale(peak_counts.get(i, 0), i, n) for i in range((n - 1) // 2 + 1)])
    except NonIntegralError as exc:
        raise NonIntegralBError(f"{exc}; class is not action-invariant") from None
    if GammaExpansion(n - 1, b).reconstruct() != W:
        raise NotInvariantError(
            "descent polynomial does not match the scaled peak counts; "
            "class is not action-invariant"
        )
    return ClassPolys(W, b)
