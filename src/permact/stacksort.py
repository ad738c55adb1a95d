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
from .words import Word, all_permutations, descent_set, identity


class NotADescentError(ValueError):
    pass


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


def slide_r(w: Word, i: int) -> Word:
    """Slide the letter at descent position i (1-indexed) right into the first
    gap (a, b) with a < w_i < b; the virtual terminal letter exceeds everything.

    >>> slide_r((5, 7, 3, 1, 4, 8, 9, 2, 6), 2)
    (5, 3, 1, 4, 7, 8, 9, 2, 6)
    """
    if not (1 <= i < len(w)) or w[i - 1] <= w[i]:
        raise NotADescentError(f"position {i} is not a descent of {w}")
    x = w[i - 1]
    rest = w[: i - 1] + w[i:]
    top = max(w) + 1
    # insertion at position m in rest puts x between rest[m-1] and rest[m]
    for m in range(i, len(rest) + 1):
        left = rest[m - 1]
        right = rest[m] if m < len(rest) else top
        if left < x < right:
            return rest[:m] + (x,) + rest[m:]
    raise AssertionError("unreachable: the terminal gap always accepts the letter")


def stack_sort_via_slides(w: Word) -> Word:
    """Slide the top letter of each original descent, leftmost descent first.

    Later slides act on the partially slid word, so each letter is located
    afresh; it still tops a descent when its turn comes, and slide_r guards
    that precondition.

    >>> stack_sort_via_slides((5, 7, 3, 1, 4, 8, 9, 2, 6))
    (5, 1, 3, 4, 7, 8, 2, 6, 9)
    """
    tops = [w[i - 1] for i in sorted(descent_set(w))]
    for x in tops:
        w = slide_r(w, w.index(x) + 1)
    return w


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
    depth(w) = 1 + depth(S(w)) is memoised, so no word is sorted twice."""
    check_enumeration_size(n)
    depths = {identity(n): 0}
    for w in all_permutations(n):
        chain = []
        while w not in depths:
            chain.append(w)
            w = stack_sort(w)
        for d, v in enumerate(reversed(chain), depths[w] + 1):
            depths[v] = d
    return {w: depths[w] for w in all_permutations(n)}
