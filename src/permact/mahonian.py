"""An increasing-tree statistic pair equidistributed with (des, maj).

The increasing tree of a word hangs every right-to-left minimum below a root
labeled 0; any other letter becomes a child of the leftmost smaller letter to
its right.  EV collects the positions whose letters sit at even (positive)
height; its size veh' refines to siveh, the sum of those positions, and the
bijection theta below transports (veh', siveh) onto (des, maj) exactly.
"""

from __future__ import annotations

from collections import Counter

from .limits import check_enumeration_size
from .trees import UnorderedTree
from .words import Word, all_permutations, complement, des, maj, stat_bits, transfer


def increasing_tree(w: Word) -> UnorderedTree:
    """Root labeled 0; parent of b is the leftmost smaller letter right of b.

    >>> root = increasing_tree((2, 3, 1))
    >>> [c.label for c in root.children], [c.label for c in root.children[0].children]
    ([1], [2, 3])
    """
    nodes = {a: UnorderedTree(a) for a in w}
    root = UnorderedTree(0)
    for i, b in enumerate(w):
        parent = next((a for a in w[i + 1 :] if a < b), None)
        (root if parent is None else nodes[parent]).children.append(nodes[b])
    return root


def ev_set(w: Word) -> frozenset[int]:
    """Positions i (1-indexed) whose letter has even height in the tree.

    Parents are next-smaller letters, so in a right-to-left pass over an
    increasing stack a letter's height is one more than the stack left.

    >>> sorted(ev_set((5, 8, 6, 3, 1, 7, 4, 9, 2)))
    [2, 4, 7, 8]
    """
    out = []
    stack: list[int] = []
    for i in range(len(w) - 1, -1, -1):
        b = w[i]
        while stack and stack[-1] > b:
            stack.pop()
        if len(stack) % 2 == 1:
            out.append(i + 1)
        stack.append(b)
    return frozenset(out)


def veh_prime(w: Word) -> int:
    """|EV|; equidistributed with des over each symmetric group.

    >>> veh_prime((5, 8, 6, 3, 1, 7, 4, 9, 2))
    4
    """
    return len(ev_set(w))


def siveh(w: Word) -> int:
    """Sum of the EV positions; the Mahonian partner of veh'.

    >>> siveh((5, 8, 6, 3, 1, 7, 4, 9, 2))
    21
    """
    return sum(ev_set(w))


def theta(w: Word) -> Word:
    """Bijection taking (veh', siveh) to (des, maj): EV(theta(w)) is the
    descent set of w.

    The recursion of theta_recursive, with an explicit stack of segments
    over one list of labels: a segment keeps its minimum in place, its part
    left of the minimum is mirrored within its own letters and pushed, and
    the part right of it is taken next.

    >>> theta((5, 8, 6, 3, 1, 7, 4, 9, 2))
    (6, 3, 5, 8, 1, 9, 7, 4, 2)
    """
    lab = list(w)
    todo = [(0, len(lab))]
    while todo:
        lo, hi = todo.pop()
        while hi - lo > 1:
            k = lab.index(min(lab[lo:hi]), lo, hi)
            if k - lo > 1:
                left = lab[lo:k]
                up = sorted(left)
                down = up[::-1]
                lab[lo:k] = [down[up.index(a)] for a in left]
                todo.append((lo, k))
            lo = k + 1
    return tuple(lab)


def theta_recursive(w: Word) -> Word:
    """The defining recursion of theta, and its oracle: split at the minimum
    m into sigma m tau; recurse on the complement of sigma (within its own
    letters) and on tau."""
    if not w:
        return w
    k = w.index(min(w))
    sigma, m, tau = w[:k], w[k], w[k + 1 :]
    return theta_recursive(complement(sigma)) + (m,) + theta_recursive(tau)


def joint_distributions(n: int) -> tuple[Counter, Counter]:
    """Tallies of (veh', siveh) and of (des, maj) over all permutations of [n],
    from one transfer over letter sets each: only the marginals are compared.

    >>> lhs, rhs = joint_distributions(3)
    >>> lhs == rhs
    True
    """
    check_enumeration_size(n)
    return transfer((0, 0), n, _ev_step(n), 2), transfer((0, 0), n, _des_maj_step(n), 2)


def _ev_step(n: int):
    """(|EV|, EV sum) right to left over (seen letters, stack bitmask): ev_set's stack,
    cut to the letters below b, has odd size iff b's position n - k is in EV."""
    bits = stat_bits(n)
    letters = [(1 << b, (1 << b) - 1) for b in range(1, n + 1)]

    def step(state, k):
        seen, stack = state
        unit = 1 + ((n - k) << bits)
        return [((seen | bit, stack & below | bit), unit if (stack & below).bit_count() & 1 else 0)
                for bit, below in letters if not seen & bit]

    return step


def _des_maj_step(n: int):
    """(des, maj) left to right over (seen letters, last letter a): a > b,
    b at index k, is a descent at position k."""
    bits = stat_bits(n)
    letters = [(b, 1 << b) for b in range(1, n + 1)]

    def step(state, k):
        seen, a = state
        unit = 1 + (k << bits)
        return [((seen | bit, b), unit if a > b else 0) for b, bit in letters if not seen & bit]

    return step


def joint_distributions_via_sets(n: int) -> tuple[Counter, Counter]:
    """The same tallies from ev_set, des and maj word by word: the route
    joint_distributions replaces."""
    lhs: Counter = Counter()
    rhs: Counter = Counter()
    for w in all_permutations(n):
        ev = ev_set(w)
        lhs[len(ev), sum(ev)] += 1
        rhs[des(w), maj(w)] += 1
    return lhs, rhs
