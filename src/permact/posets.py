"""Labeled posets, sign gradings, canonical labelings, and the hop action on
linear extensions.

A labeling assigns distinct nonzero integers to the elements.  Each cover
(x, y) carries the sign +1 when the label increases and -1 when it drops; the
poset is sign-graded when every maximal chain has the same sign sum r, which
then splits the elements into ranks.  A canonical labeling is one where the
ranks are 0 and 1, rank-0 elements carry negative labels, and rank-1 elements
positive ones.  Every cover of a canonically labeled poset joins the two
ranks, so the rank function is simply the parity of saturated-chain length
from the minimal elements.

Linear extensions are read as words of labels.  The hop involutions act on
them with 0-sentinels at both ends: a negative letter hops by the word hop
``action.phi_prime_x``, exactly as in the TOP convention, and a positive
letter hops in the mirrored directions, by the same hop on the negated
word.  Orbits then carry the descent polynomial t^k (1+t)^(p-r-1-2k).
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from typing import Hashable, Iterable, Mapping, NamedTuple, Sequence

from .action import class_polys_from_counts, phi_prime_x
from .limits import check_enumeration_size
from .polynomials import NotSymmetricError, gamma_expand, uni
from .words import Boundary, Word, descent_poly, peak

Element = Hashable


class InvalidPosetError(ValueError):
    pass


class NotSignGradedError(ValueError):
    def __init__(self, message: str, witness: tuple = ()):
        super().__init__(message)
        self.witness = witness


class NotCanonicalError(ValueError):
    pass


class NotALinearExtensionError(ValueError):
    pass


class BrokenInvariantError(RuntimeError):
    pass


class CannotCanonicalizeError(ValueError):
    pass


class LabeledPoset:
    """Finite poset given by cover relations, plus an injective nonzero labeling."""

    def __init__(
        self,
        elements: Iterable[Element],
        covers: Iterable[tuple[Element, Element]],
        labels: Mapping[Element, int],
    ):
        self.elements: tuple[Element, ...] = tuple(elements)
        if len(set(self.elements)) != len(self.elements):
            raise InvalidPosetError("elements must be distinct")
        index = {e: i for i, e in enumerate(self.elements)}
        cover_list = []
        seen = set()
        for x, y in covers:
            if x not in index or y not in index:
                raise InvalidPosetError(f"cover ({x!r}, {y!r}) uses unknown elements")
            if x == y:
                raise InvalidPosetError(f"cover ({x!r}, {y!r}) is reflexive")
            if (x, y) not in seen:
                seen.add((x, y))
                cover_list.append((x, y))
        cover_list.sort(key=lambda c: (index[c[0]], index[c[1]]))
        self.covers: tuple[tuple[Element, Element], ...] = tuple(cover_list)
        self._up: dict[Element, list[Element]] = {e: [] for e in self.elements}
        self._down: dict[Element, list[Element]] = {e: [] for e in self.elements}
        for x, y in self.covers:
            self._up[x].append(y)
            self._down[y].append(x)
        self._topo = self._topological_order()
        # a cover that the Hasse pass over topological positions drops is
        # implied by a longer path
        pos = {e: i for i, e in enumerate(self._topo)}
        pairs = [(pos[x], pos[y]) for x, y in self.covers]
        kept = set(_hasse(len(pos), pairs)[1])
        for (x, y), pair in zip(self.covers, pairs):
            if pair not in kept:
                raise InvalidPosetError(
                    f"cover ({x!r}, {y!r}) is implied by transitivity; "
                    "covers must form the Hasse diagram"
                )
        self.labels: dict[Element, int] = {}
        for e in self.elements:
            if e not in labels:
                raise InvalidPosetError(f"element {e!r} has no label")
            lab = labels[e]
            if not isinstance(lab, int) or isinstance(lab, bool):
                raise InvalidPosetError(f"label {lab!r} of {e!r} is not an integer")
            if lab == 0:
                raise InvalidPosetError("labels must be nonzero")
            self.labels[e] = lab
        self.label_set: frozenset[int] = frozenset(self.labels.values())
        if len(self.label_set) != len(self.elements):
            raise InvalidPosetError("labels must be distinct")
        self.sorted_labels: list[int] = sorted(self.label_set)

    def _topological_order(self) -> tuple[Element, ...]:
        indeg = {e: len(self._down[e]) for e in self.elements}
        order = [e for e in self.elements if indeg[e] == 0]
        for e in order:  # the loop reads what it appends, in order
            for f in self._up[e]:
                indeg[f] -= 1
                if indeg[f] == 0:
                    order.append(f)
        if len(order) != len(self.elements):
            raise InvalidPosetError("cover relation contains a cycle")
        return tuple(order)

    def __len__(self) -> int:
        return len(self.elements)

    def maximals(self) -> tuple[Element, ...]:
        return tuple(e for e in self.elements if not self._up[e])

    def to_json_dict(self) -> dict:
        return {
            "elements": list(self.elements),
            "covers": [[x, y] for x, y in self.covers],
            "labels": {str(e): lab for e, lab in self.labels.items()},
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "LabeledPoset":
        """The poset of to_json_dict's form; a malformed one raises InvalidPosetError."""
        try:
            elements = list(data["elements"])
            by_str = {str(e): e for e in elements}
            labels = {by_str[k]: v for k, v in data["labels"].items()}
            covers = [tuple(c) for c in data["covers"]]
            return cls(elements, covers, labels)
        except (KeyError, TypeError, AttributeError) as exc:
            raise InvalidPosetError(f"malformed poset: {type(exc).__name__} {exc}") from exc

    def __repr__(self) -> str:
        return f"LabeledPoset({self.elements!r}, {self.covers!r}, {self.labels!r})"


class SignGrading(NamedTuple):
    """Edge signs, the common maximal-chain sum r, and the rank of each element."""

    epsilon: dict[tuple[Element, Element], int]
    r: int
    rho: dict[Element, int]


def sign_grading(P: LabeledPoset) -> SignGrading:
    """Compute the sign grading, or fail with a witness pair of chains.

    One topological pass gives the rank rho(x), the sign sum along a
    saturated chain from a minimal element up to x, and fails when two such
    chains into x disagree.  A maximal chain's sign sum is the rank of its
    top, so all of them agree exactly when every maximal element has the
    same rank r.
    """
    eps = {
        (x, y): (1 if P.labels[x] < P.labels[y] else -1) for x, y in P.covers
    }
    rho: dict[Element, int] = {}
    via: dict[Element, tuple[Element, ...]] = {}
    for e in P._topo:
        below = P._down[e]
        if not below:
            rho[e] = 0
            via[e] = (e,)
            continue
        candidates = {rho[x] + eps[(x, e)] for x in below}
        if len(candidates) > 1:
            xs = sorted(below, key=lambda x: rho[x] + eps[(x, e)])
            raise NotSignGradedError(
                f"rank of {e!r} is path-dependent",
                witness=(via[xs[0]] + (e,), via[xs[-1]] + (e,)),
            )
        rho[e] = candidates.pop()
        via[e] = via[below[0]] + (e,)
    tops = sorted(P.maximals(), key=rho.__getitem__)
    if tops and rho[tops[0]] != rho[tops[-1]]:
        lo, hi = tops[0], tops[-1]
        raise NotSignGradedError(
            f"maximal chains {via[lo]} and {via[hi]} have sign sums "
            f"{rho[lo]} != {rho[hi]}",
            witness=(via[lo], via[hi]),
        )
    return SignGrading(eps, rho[tops[0]] if tops else 0, rho)


def _canonical_grading(P: LabeledPoset) -> SignGrading | None:
    """The sign grading of P when it ranks every negative label 0 and every
    positive label 1, else None."""
    try:
        g = sign_grading(P)
    except NotSignGradedError:
        return None
    return g if all(g.rho[e] == (P.labels[e] > 0) for e in P.elements) else None


def is_canonical(P: LabeledPoset) -> bool:
    """Sign-graded with ranks in {0, 1}, negative labels on rank 0 and
    positive labels on rank 1."""
    return _canonical_grading(P) is not None


def linear_extensions(P: LabeledPoset) -> list[Word]:
    """All linear extensions, as words of labels, in label-lexicographic
    order: a depth-first search that places, in label order, each unplaced
    element whose lower covers are all placed."""
    check_enumeration_size(len(P), "poset size")
    by_label = sorted(P.elements, key=P.labels.__getitem__)
    bit = {e: 1 << i for i, e in enumerate(by_label)}
    steps = [(bit[e], sum(bit[x] for x in P._down[e]), P.labels[e]) for e in by_label]
    full = (1 << len(P)) - 1
    out: list[Word] = []

    def extend(placed: int, prefix: Word) -> None:
        if placed == full:
            out.append(prefix)
            return
        for b, below, lab in steps:
            if not placed & b and placed & below == below:
                extend(placed | b, prefix + (lab,))

    extend(0, ())
    return out


def is_linear_extension(P: LabeledPoset, pi: Word) -> bool:
    return sorted(pi) == P.sorted_labels and _respects_covers(P, pi)


def _respects_covers(P: LabeledPoset, pi: Word) -> bool:
    """Every cover x < y of P has x's label before y's in pi, an
    arrangement of P's labels."""
    pos = {lab: i for i, lab in enumerate(pi)}
    return all(pos[P.labels[x]] < pos[P.labels[y]] for x, y in P.covers)


def psi_x_poset(P: LabeledPoset, pi: Word, x: int) -> Word:
    """Hop the letter x within the linear extension pi, under 0-sentinels.

    Double ascents and double descents move; peaks and valleys are fixed.
    A negative letter hops as ``phi_prime_x`` moves it, since a 0-sentinel
    exceeds it as a TOP end does (descenders go right); a positive letter
    hops in the mirrored directions, as -x hops in -pi.  The result is again
    a linear extension; a violation would mean the canonical-labeling
    premise failed, and raises BrokenInvariantError.
    """
    if x not in P.label_set:
        raise ValueError(f"{x} is not a label of the poset")
    if not is_linear_extension(P, pi):
        raise NotALinearExtensionError(f"{pi} is not a linear extension")
    if x < 0:
        result = phi_prime_x(pi, x)
    else:
        result = tuple([-a for a in phi_prime_x(tuple([-a for a in pi]), -x)])
    # result rearranges pi, so only the cover relations can fail
    if not _respects_covers(P, result):
        raise BrokenInvariantError(
            f"hop of {x} left the extension set: {pi} -> {result}"
        )
    return result


def orbit_degree(P: LabeledPoset) -> int:
    """d = p - r - 1, the degree of the orbit forms t^k (1+t)^(d-2k) of P's
    linear extensions; raises NotCanonicalError unless P is canonical."""
    g = _canonical_grading(P)
    if g is None:
        raise NotCanonicalError("poset orbits need a canonically labeled poset")
    return len(P) - g.r - 1


class WpPolynomials(NamedTuple):
    """Descent polynomial of the linear extensions, dense, with its expansion
    a_i in the t^i (1+t)^(d-2i) basis, d = p - r - 1.  ``extensions`` holds
    the linear extensions it was computed from; it is not part of the JSON
    form."""

    W: tuple[int, ...]
    a: tuple[int, ...]
    r: int
    d: int
    extensions: tuple[Word, ...]

    def to_json_dict(self) -> dict:
        return {"W": uni(self.W).to_json_dict(), "a": list(self.a), "r": self.r, "d": self.d}


def wp_polynomial(P: LabeledPoset) -> WpPolynomials:
    """W(P;t) with its basis coefficients a_i scaled from 0-sentinel peak
    counts (via the adjoined-top poset when r = 1) by class_polys_from_counts,
    which checks that they rebuild W.  W must be palindromic, and a scaled
    vector that rebuilds a palindrome is its gamma vector.

    >>> V = LabeledPoset("abc", [("a", "c"), ("b", "c")], {"a": -2, "b": -1, "c": 1})
    >>> wp_polynomial(V).a
    (1,)
    """
    if not len(P):
        raise ValueError("empty poset")
    d = orbit_degree(P)
    p = len(P)
    r = p - 1 - d  # canonical, so 0 or 1
    exts = linear_extensions(P)
    W = descent_poly(exts)
    try:
        gamma_expand(W, d)
    except NotSymmetricError as exc:
        # the theorem makes W(P;t) symmetric: this is a broken identity, not bad input
        raise BrokenInvariantError(f"W(P;t) breaks the orbit symmetry: {exc}") from exc
    # for r = 1, the rank-0 peak formula on the adjoined-top poset, one size
    # up, with its index shifted down by one
    source = exts if r == 0 else linear_extensions(adjoin_top(P))
    peaks = Counter(peak(pi, Boundary.ZERO) - r for pi in source)
    a = class_polys_from_counts(dict(enumerate(W)), peaks, d + 1).b
    if any(x < 0 for x in a):
        raise RuntimeError(f"negative basis coefficient in {a}")
    return WpPolynomials(W, a, r, d, tuple(exts))


def adjoin_top(P: LabeledPoset) -> LabeledPoset:
    """Adjoin a new greatest element and label it so the result is canonical.

    A positive label above everything works when P has rank 0 (the new top
    becomes the rank-1 level); when P has rank 1 the new top must take a
    negative label to bring the chain sums back to 0.  If neither single
    label works the failure is reported, never guessed around.
    """
    top: Element = "top"
    while top in P.elements:
        top = "_" + str(top)
    labels = list(P.labels.values())
    candidates = (max([0, *labels]) + 1, min([0, *labels]) - 1)
    covers = tuple(P.covers) + tuple((m, top) for m in P.maximals())
    for lab in candidates:
        Q = LabeledPoset(
            tuple(P.elements) + (top,), covers, {**P.labels, top: lab}
        )
        if is_canonical(Q):
            return Q
    raise CannotCanonicalizeError(
        "no single label on the new top yields a canonical labeling"
    )


# -- corpus -------------------------------------------------------------------


def _hasse(size: int, pairs: Iterable[tuple[int, int]]) -> tuple[int, list[tuple[int, int]]]:
    """The closure's pair count and the sorted covers of a relation on
    range(size) with a < b in every pair (a, b), from up-set bitmasks built
    in reverse index order: (a, b) is a cover unless an earlier successor of
    a already reaches b."""
    succ: list[list[int]] = [[] for _ in range(size)]
    for a, b in sorted(pairs):
        succ[a].append(b)
    up = [0] * size
    covers: list[tuple[int, int]] = []
    for a in reversed(range(size)):
        for b in succ[a]:
            if not up[a] >> b & 1:
                covers.append((a, b))
            up[a] |= 1 << b | up[b]
    covers.sort()
    return sum(m.bit_count() for m in up), covers


def _canonical_form(n: int, pairs: frozenset[tuple[int, int]]) -> tuple:
    best = None
    for perm in itertools.permutations(range(n)):
        mapped = tuple(sorted((perm[a], perm[b]) for a, b in pairs))
        if best is None or mapped < best:
            best = mapped
    return best if best is not None else ()


def _forced_canonical_labels(n: int, covers: Sequence[tuple[int, int]]) -> dict[int, int] | None:
    """The unique candidate ranks (saturated-chain parity), labeled
    canonically, or None when no canonical labeling can exist.  Every cover
    flips the rank; the covers are sorted and increasing, so x's rank is
    final before a cover (x, y) is read."""
    rho: dict[int, int] = {}
    for x, y in covers:
        want = 1 - rho.get(x, 0)
        if rho.setdefault(y, want) != want:
            return None
    # every maximal element must sit at the common rank r
    if len({rho.get(e, 0) for e in set(range(n)) - {x for x, _ in covers}}) > 1:
        return None
    # the k-th element of rank 0 is labeled -k, the k-th of rank 1 is labeled k
    signs = [1 if rho.get(e, 0) else -1 for e in range(n)]
    return {e: s * signs[: e + 1].count(s) for e, s in enumerate(signs)}


def canonical_posets(size: int) -> list[LabeledPoset]:
    """Every poset on `size` elements (up to isomorphism) that admits a
    canonical labeling, with one such labeling attached."""
    if size > 6:
        raise ValueError("exhaustive poset enumeration is intended for size <= 6")
    out: list[LabeledPoset] = []
    seen: set[tuple] = set()
    slots = [(i, j) for i in range(size) for j in range(i + 1, size)]
    for bits in range(1 << len(slots)):
        pairs = frozenset(slots[i] for i in range(len(slots)) if bits >> i & 1)
        closed, covers = _hasse(size, pairs)
        if closed != len(pairs):
            continue
        # labelability is a property of the isomorphism class, so skipping
        # unlabelable posets before the isomorphism test keeps the first
        # labelable representative of every class
        labels = _forced_canonical_labels(size, covers)
        if labels is None:
            continue
        form = _canonical_form(size, pairs)
        if form in seen:
            continue
        seen.add(form)
        P = LabeledPoset(range(size), covers, labels)
        if not is_canonical(P):
            raise AssertionError("forced labeling failed the canonical check")
        out.append(P)
    return out


def sampled_canonical_posets(size: int, count: int, seed: int) -> list[LabeledPoset]:
    """Deterministic sample of canonically labelable posets of a given size."""
    rng = random.Random(seed)
    found: list[LabeledPoset] = []
    attempts = 0
    while len(found) < count and attempts < 20000:
        attempts += 1
        pairs = set()
        for i in range(size):
            for j in range(i + 1, size):
                if rng.random() < 0.3:
                    pairs.add((i, j))
        covers = _hasse(size, pairs)[1]
        labels = _forced_canonical_labels(size, covers)
        if labels is None:
            continue
        found.append(LabeledPoset(range(size), covers, labels))
    return found
