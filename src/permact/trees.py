"""Tree encodings of words and the statistics they carry.

Two decreasing trees are used.  The binary tree splits at the maximum with
in-order readout; the number of right edges above a letter, taken mod 2,
picks out the letters ("odd set") where block swaps turn right edges into the
descents of the image word.  The unordered tree hangs each left-to-right
maximum below a virtual root and recurses on the segments in between; its
non-root vertices of even height give veh, the statistic matched to descents
by the modified involutions.

The statistics build no tree: in a left-to-right pass over a decreasing
stack, once the letters smaller than a are popped, the stack holds the
previous-greater chain of a, whose size is both its right-edge depth and one
less than its unordered-tree height.  The transports between the statistics
are products of hops, ``hop_product`` over the masks of ``edge_masks``.

231-avoiding words are exactly those whose unordered tree readout loses no
information; ordering each vertex's children decreasingly and walking the
tree in pre-order gives the classical bijection to Dyck paths.
"""

from __future__ import annotations

from typing import Iterator

from .action import phi_prime_full
from .patterns import avoids_231
from .words import Word


class Not231AvoidingError(ValueError):
    pass


class MalformedPathError(ValueError):
    pass


# -- decreasing binary tree -------------------------------------------------


class BinaryTreeNode:
    __slots__ = ("label", "left", "right")

    def __init__(self, label: int, left: BinaryTreeNode | None = None,
                 right: BinaryTreeNode | None = None):
        self.label, self.left, self.right = label, left, right


def binary_tree(w: Word) -> BinaryTreeNode | None:
    """Decreasing binary tree: maximum at the root, parts on either side below.

    Built in one left-to-right pass over the right spine of the tree so far:
    the letters smaller than a leave the spine and the last of them becomes
    a's left child, and a becomes the right child of the spine's new end.
    """
    spine: list[BinaryTreeNode] = []
    for a in w:
        node = BinaryTreeNode(a)
        while spine and spine[-1].label < a:
            node.left = spine.pop()
        if spine:
            spine[-1].right = node
        spine.append(node)
    return spine[0] if spine else None


def postorder(node: BinaryTreeNode | None) -> Word:
    """Post-order readout: for the decreasing binary tree of L m R this is
    the stack sort S(L) S(R) m.  It is the reverse of the pre-order that
    visits right before left, walked with an explicit stack."""
    out: list[int] = []
    todo = [node]
    while todo:
        node = todo.pop()
        if node is not None:
            out.append(node.label)
            todo += (node.left, node.right)
    return tuple(reversed(out))


def edge_masks(w: Word) -> tuple[int, int]:
    """(odd set, right-edge set) of a word on positive letters as bitmasks,
    bit x for letter x, from one decreasing-stack pass.  The stack size when
    a arrives is its right-edge depth.  A letter is a right child (one per
    descent) iff the letter below it on the stack is smaller than the letter
    that pops it, if any.  ``permact stats`` ranks other letters first.

    >>> edge_masks((3, 1, 2)) == (0b110, 0b100)
    True
    """
    odd = right = 0
    stack: list[int] = []
    for a in w:
        while stack and stack[-1] < a:
            x = stack.pop()
            if stack and stack[-1] < a:
                right |= 1 << x
        if len(stack) & 1:
            odd |= 1 << a
        stack.append(a)
    for x in stack[1:]:
        right |= 1 << x
    return odd, right


def right_edges_via_tree(w: Word) -> tuple[dict[int, int], frozenset[int]]:
    """Independent route to edge_masks: the right-edge depths and right
    children, from a walk of the binary tree itself."""
    depths: dict[int, int] = {}
    right: set[int] = set()
    todo = [(binary_tree(w), 0)]
    while todo:
        node, r = todo.pop()
        if node is None:
            continue
        depths[node.label] = r
        if node.right is not None:
            right.add(node.right.label)
        todo += [(node.left, r), (node.right, r + 1)]
    return depths, frozenset(right)


# -- unordered decreasing tree ----------------------------------------------


class UnorderedTree:
    """Rooted tree with integer labels; the virtual root is labeled None."""

    __slots__ = ("label", "children")

    def __init__(self, label: int | None, children: list[UnorderedTree] | None = None):
        self.label = label
        self.children = [] if children is None else children


def _ltr_segments(w: Word) -> list[tuple[int, Word]]:
    """Split w as m1 w1 m2 w2 ... by its left-to-right maxima."""
    segments: list[tuple[int, list[int]]] = []
    for a in w:
        if not segments or a > segments[-1][0]:
            segments.append((a, []))
        else:
            segments[-1][1].append(a)
    return [(m, tuple(rest)) for m, rest in segments]


def unordered_tree(w: Word) -> UnorderedTree:
    """Hang each left-to-right maximum below the root; repeat on segments."""
    root = UnorderedTree(None)
    todo = [(root, w)]
    while todo:
        node, sub = todo.pop()
        for m, rest in _ltr_segments(sub):
            child = UnorderedTree(m)
            node.children.append(child)
            todo.append((child, rest))
    return root


def label_heights(tree: UnorderedTree) -> dict[int, int]:
    """Height of each labeled vertex (the virtual root has height 0)."""
    heights: dict[int, int] = {}

    def walk(node: UnorderedTree, h: int) -> None:
        if node.label is not None:
            heights[node.label] = h
        for child in node.children:
            walk(child, h + 1)

    walk(tree, 0)
    return heights


def veh(w: Word) -> int:
    """Number of letters at even height in the unordered decreasing tree.

    Those are the letters of the odd set: counted in one decreasing-stack
    pass, a letter whose previous-greater chain has odd size.

    >>> veh((6, 5, 2, 4, 1, 9, 7, 3, 8))
    4
    """
    count = 0
    stack: list[int] = []
    for a in w:
        while stack and stack[-1] < a:
            stack.pop()
        count += len(stack) & 1
        stack.append(a)
    return count


# -- transports between the statistics ---------------------------------------


def hop_product(w: Word, letters: int, hop) -> Word:
    """Apply hop(., x) at the letters x of a bitmask, smallest first.  With
    phi_x the odd mask's product sends the odd set to the right edges and
    the right-edge mask's product inverts it; with phi_prime_x the odd
    mask's product turns veh into the descent count."""
    while letters:
        low = letters & -letters
        w = hop(w, low.bit_length() - 1)
        letters ^= low
    return w


def psi_prime_recursive(w: Word) -> Word:
    """Independent route to psi', the phi_prime_x product at the odd mask:
    L m R maps to psi'(L), m, then the full hop applied to psi'(R)."""
    if not w:
        return w
    k = w.index(max(w))
    return (
        psi_prime_recursive(w[:k])
        + (w[k],)
        + phi_prime_full(psi_prime_recursive(w[k + 1 :]))
    )


# -- Dyck paths ---------------------------------------------------------------


def dyck_path(w: Word) -> str:
    """Pre-order walk of the unordered tree with children ordered decreasingly;
    defined (and injective) on 231-avoiding words.

    The walk needs no tree.  A letter's parent is its previous-greater
    letter, so with children in position order the pre-order visits the
    letters left to right: an up-step to each, after falling back to its
    parent's height.  A vertex's children increase left to right, so the
    decreasing order mirrors that walk, which reverses it and swaps u and d:
    from the right, u^(h - h' + 1) d for a letter of height h followed by
    one of height h' (h' = 1 past the end).

    >>> dyck_path((2, 1, 3))
    'uduudd'
    """
    if not avoids_231(w):
        raise Not231AvoidingError(f"{w} contains a 231 pattern")
    heights: list[int] = []
    stack: list[int] = []
    for a in w:
        while stack and stack[-1] < a:
            stack.pop()
        stack.append(a)
        heights.append(len(stack))
    out: list[str] = []
    after = 1
    for h in reversed(heights):
        out.append("u" * (h - after + 1) + "d")
        after = h
    return "".join(out)


def dyck_path_via_tree(w: Word) -> str:
    """Independent route to dyck_path: build the unordered tree and walk it
    with each vertex's children sorted by label."""
    if not avoids_231(w):
        raise Not231AvoidingError(f"{w} contains a 231 pattern")
    out: list[str] = []
    # one list of unvisited children per open vertex, largest label last
    todo = [sorted(unordered_tree(w).children, key=lambda c: c.label)]
    while todo:
        if todo[-1]:
            child = todo[-1].pop()
            out.append("u")
            todo.append(sorted(child.children, key=lambda c: c.label))
        else:
            todo.pop()
            if todo:
                out.append("d")
    return "".join(out)


def kreweras_stats(path: str) -> tuple[int, int]:
    """(up-steps ending at even height, double up-steps uu) of a Dyck path.

    >>> kreweras_stats("uduudd")
    (1, 1)
    """
    h = 0
    even_ups = 0
    doubles = 0
    prev = ""
    for step in path:
        if step == "u":
            h += 1
            if h % 2 == 0:
                even_ups += 1
            if prev == "u":
                doubles += 1
        elif step == "d":
            h -= 1
            if h < 0:
                raise MalformedPathError("path dips below the axis")
        else:
            raise MalformedPathError(f"invalid step {step!r}")
        prev = step
    if h != 0:
        raise MalformedPathError("path does not return to the axis")
    return even_ups, doubles


def all_dyck_paths(n: int) -> Iterator[str]:
    """All Dyck paths with n up-steps, lexicographically with 'd' < 'u'."""

    def extend(prefix: list[str], ups: int, h: int) -> Iterator[str]:
        if ups == 0:
            yield "".join(prefix) + "d" * h
            return
        if h > 0:
            prefix.append("d")
            yield from extend(prefix, ups, h - 1)
            prefix.pop()
        prefix.append("u")
        yield from extend(prefix, ups - 1, h + 1)
        prefix.pop()

    if n < 0:
        raise ValueError("n must be nonnegative")
    yield from extend([], n, 0)
