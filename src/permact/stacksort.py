"""Stack sorting, both as a one-stack pass and as a product of slide moves.

The sort S maps L m R to S(L) S(R) m, where m is the maximum letter; West's
single pass over one stack computes it in linear time.  It can also be
realized one descent at a time: a slide lifts the top letter of a descent out
and drops it into the first gap to its right whose two neighbors bracket it.
Sliding the letters that top the descents of the original word, leftmost
descent first, reproduces S exactly; the equality of the two routes is
checked exhaustively in the verification suites.
"""

from __future__ import annotations

from .limits import check_enumeration_size
from .words import Word, all_permutations, identity


def stack_sort(w: Word) -> Word:
    """S(L m R) = S(L) S(R) m with m the maximum; S of the empty word is empty.

    >>> stack_sort((5, 7, 3, 1, 4, 8, 9, 2, 6))
    (5, 1, 3, 4, 7, 8, 2, 6, 9)
    """
    out: list[int] = []
    stack: list[int] = []
    for a in w:
        while stack and stack[-1] < a:
            out.append(stack.pop())
        stack.append(a)
    return tuple(out + stack[::-1])


def _slide(v: list[int], k: int) -> None:
    """Slide v[k], the top of a descent, right into the first gap (a, b) with
    a < v[k] < b, in place; the end of v exceeds every letter."""
    x = v.pop(k)
    n = len(v)
    # the left letter of each gap tried is a letter x has passed, so it is
    # smaller than x: the first gap whose right letter is larger accepts x
    m = k + 1
    while m < n and v[m] < x:
        m += 1
    v.insert(m, x)


def stack_sort_via_slides(w: Word) -> Word:
    """Slide the top letter of each original descent, leftmost descent first.

    Later slides act on the partially slid word, so each letter is located
    afresh; it still tops a descent when its turn comes, and a letter that
    does not is a broken identity (RuntimeError), not bad input.

    >>> stack_sort_via_slides((5, 7, 3, 1, 4, 8, 9, 2, 6))
    (5, 1, 3, 4, 7, 8, 2, 6, 9)
    """
    v = list(w)
    for x in [a for a, b in zip(w, w[1:]) if a > b]:
        k = v.index(x)
        if k == len(v) - 1 or v[k + 1] > x:
            raise RuntimeError(f"slides of {w} broke their invariant: "
                               f"position {k + 1} is not a descent of {tuple(v)}")
        _slide(v, k)
    return tuple(v)


def sort_depth(w: Word) -> int:
    """Number of applications of S needed to sort w (at most len(w) - 1)."""
    target = tuple(sorted(w))
    depth = 0
    while w != target:
        w = stack_sort(w)
        depth += 1
    return depth


def is_r_sortable(w: Word, r: int) -> bool:
    """True iff S^r(w) is the increasing word.

    >>> is_r_sortable((2, 3, 1), 2)
    True
    >>> is_r_sortable((2, 3, 1), 1)
    False
    """
    if r < 0:
        raise ValueError("r must be nonnegative")
    target = tuple(sorted(w))
    for _ in range(r):
        if w == target:
            return True
        w = stack_sort(w)
    return w == target


def enumerate_r_sortable(n: int, r: int) -> list[Word]:
    """All permutations of {1..n} sorted by at most r passes, in lex order."""
    check_enumeration_size(n)
    return [w for w in all_permutations(n) if is_r_sortable(w, r)]


def r_sortable_classes(n: int) -> dict[Word, int]:
    """Map each permutation of {1..n}, in lex order, to its sorting depth;
    depth(w) = 1 + depth(S(w)) is memoised, so no word is sorted twice.
    S maps S_n into itself, so the memo holds S_n from the start and is the
    result."""
    check_enumeration_size(n)
    depths: dict[Word, int | None] = dict.fromkeys(all_permutations(n))
    depths[identity(n)] = 0
    for w in depths:
        chain = []
        while depths[w] is None:
            chain.append(w)
            w = stack_sort(w)
        for d, v in enumerate(reversed(chain), depths[w] + 1):
            depths[v] = d
    return depths
