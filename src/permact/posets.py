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
them with 0-sentinels at both ends; negative letters hop exactly as in the
TOP convention, positive letters hop in the mirrored directions.  Orbits then
carry the descent polynomial t^k (1+t)^(p-r-1-2k).
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from typing import Hashable, Iterable, Mapping, NamedTuple, Sequence

from .limits import check_enumeration_size
from .polynomials import IntPolynomial, NotSymmetricError, gamma_expand, peak_scale, strip_zeros
from .words import Boundary, LetterClass, Word, descent_poly, letter_class_at, peak

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
        self._index = index
        self._up: dict[Element, list[Element]] = {e: [] for e in self.elements}
        self._down: dict[Element, list[Element]] = {e: [] for e in self.elements}
        for x, y in self.covers:
            self._up[x].append(y)
            self._down[y].append(x)
        self._topo = self._topological_order()
        self._check_reduced()
        self.labels: dict[Element, int] = {}
        for e in self.elements:
            if e not in labels:
                raise InvalidPosetError(f"element {e!r} has no label")
            lab = int(labels[e])
            if lab == 0:
                raise InvalidPosetError("labels must be nonzero")
            self.labels[e] = lab
        self.label_set: frozenset[int] = frozenset(self.labels.values())
        if len(self.label_set) != len(self.elements):
            raise InvalidPosetError("labels must be distinct")
        self.sorted_labels: list[int] = sorted(self.label_set)

    def _topological_order(self) -> tuple[Element, ...]:
        indeg = {e: len(self._down[e]) for e in self.elements}
        frontier = [e for e in self.elements if indeg[e] == 0]
        order = []
        while frontier:
            e = frontier.pop(0)
            order.append(e)
            for f in self._up[e]:
                indeg[f] -= 1
                if indeg[f] == 0:
                    frontier.append(f)
        if len(order) != len(self.elements):
            raise InvalidPosetError("cover relation contains a cycle")
        return tuple(order)

    def _check_reduced(self) -> None:
        # a cover (x, y) must not be implied by a longer path
        reach: dict[Element, set[Element]] = {e: set() for e in self.elements}
        for e in reversed(self._topo):
            for f in self._up[e]:
                reach[e].add(f)
                reach[e] |= reach[f]
        for x, y in self.covers:
            if any(y in reach[z] for z in self._up[x] if z != y):
                raise InvalidPosetError(
                    f"cover ({x!r}, {y!r}) is implied by transitivity; "
                    "covers must form the Hasse diagram"
                )

    def __len__(self) -> int:
        return len(self.elements)

    def minimals(self) -> tuple[Element, ...]:
        return tuple(e for e in self.elements if not self._down[e])

    def maximals(self) -> tuple[Element, ...]:
        return tuple(e for e in self.elements if not self._up[e])

    def maximal_chains(self) -> list[tuple[Element, ...]]:
        """All saturated chains from a minimal to a maximal element."""
        out: list[tuple[Element, ...]] = []

        def extend(chain: list[Element]) -> None:
            ups = self._up[chain[-1]]
            if not ups:
                out.append(tuple(chain))
                return
            for f in ups:
                chain.append(f)
                extend(chain)
                chain.pop()

        for m in self.minimals():
            extend([m])
        return out

    def to_json_dict(self) -> dict:
        return {
            "elements": list(self.elements),
            "covers": [[x, y] for x, y in self.covers],
            "labels": {str(e): lab for e, lab in self.labels.items()},
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "LabeledPoset":
        elements = list(data["elements"])
        by_str = {str(e): e for e in elements}
        labels = {by_str[k]: int(v) for k, v in data["labels"].items()}
        covers = [tuple(c) for c in data["covers"]]
        return cls(elements, covers, labels)

    def __repr__(self) -> str:
        return f"LabeledPoset({self.elements!r}, {self.covers!r}, {self.labels!r})"


class SignGrading(NamedTuple):
    """Edge signs, the common maximal-chain sum r, and the rank of each element."""

    epsilon: dict[tuple[Element, Element], int]
    r: int
    rho: dict[Element, int]


def sign_grading(P: LabeledPoset) -> SignGrading:
    """Compute the sign grading, or fail with a witness pair of chains.

    The rank rho(x) is the sign sum along any saturated chain from a minimal
    element up to x; path-independence is re-derived here rather than assumed.
    """
    eps = {
        (x, y): (1 if P.labels[x] < P.labels[y] else -1) for x, y in P.covers
    }
    chains = P.maximal_chains()
    sums = [
        sum(eps[(c[i], c[i + 1])] for i in range(len(c) - 1)) for c in chains
    ]
    if sums and len(set(sums)) > 1:
        lo = sums.index(min(sums))
        hi = sums.index(max(sums))
        raise NotSignGradedError(
            f"maximal chains {chains[lo]} and {chains[hi]} have sign sums "
            f"{sums[lo]} != {sums[hi]}",
            witness=(chains[lo], chains[hi]),
        )
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
    r = sums[0] if sums else 0
    return SignGrading(eps, r, rho)


def is_canonical(P: LabeledPoset) -> bool:
    """Sign-graded with ranks in {0, 1}, negative labels on rank 0 and
    positive labels on rank 1."""
    try:
        g = sign_grading(P)
    except NotSignGradedError:
        return False
    for e in P.elements:
        rank = g.rho[e]
        if rank not in (0, 1):
            return False
        if rank == 0 and P.labels[e] >= 0:
            return False
        if rank == 1 and P.labels[e] <= 0:
            return False
    return True


def linear_extensions(P: LabeledPoset) -> list[Word]:
    """All linear extensions, as words of labels, in label-lexicographic order."""
    check_enumeration_size(len(P), "poset size")
    indeg = {e: len(P._down[e]) for e in P.elements}
    out: list[Word] = []
    prefix: list[int] = []

    def backtrack(remaining: int) -> None:
        if remaining == 0:
            out.append(tuple(prefix))
            return
        ready = sorted(
            (e for e in P.elements if indeg[e] == 0), key=lambda e: P.labels[e]
        )
        for e in ready:
            indeg[e] = -1
            for f in P._up[e]:
                indeg[f] -= 1
            prefix.append(P.labels[e])
            backtrack(remaining - 1)
            prefix.pop()
            indeg[e] = 0
            for f in P._up[e]:
                indeg[f] += 1

    backtrack(len(P))
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
    Negative letters hop as in the TOP convention (descenders go right),
    positive letters hop in the mirrored directions.  The result is again a
    linear extension; a violation would mean the canonical-labeling premise
    failed, and raises BrokenInvariantError.
    """
    if x not in P.label_set:
        raise ValueError(f"{x} is not a label of the poset")
    if not is_linear_extension(P, pi):
        raise NotALinearExtensionError(f"{pi} is not a linear extension")
    k = pi.index(x)
    cls = letter_class_at(pi, k, Boundary.ZERO)
    if cls in (LetterClass.VALLEY, LetterClass.PEAK):
        return pi
    if cls is LetterClass.DOUBLE_DESCENT:
        cond = lambda a, b: a < x < b
        direction = "right" if x < 0 else "left"
    else:
        cond = lambda a, b: a > x > b
        direction = "left" if x < 0 else "right"
    rest = pi[:k] + pi[k + 1 :]
    if direction == "right":
        positions: Iterable[int] = range(k + 1, len(rest) + 1)
    else:
        positions = range(k - 1, -1, -1)
    result = None
    for m in positions:
        left = rest[m - 1] if m > 0 else 0
        right = rest[m] if m < len(rest) else 0
        if cond(left, right):
            result = rest[:m] + (x,) + rest[m:]
            break
    if result is None:
        raise BrokenInvariantError(f"no gap accepts {x} in {pi}")
    # result rearranges pi, so only the cover relations can fail
    if not _respects_covers(P, result):
        raise BrokenInvariantError(
            f"hop of {x} left the extension set: {pi} -> {result}"
        )
    return result


def orbit_degree(P: LabeledPoset) -> int:
    """d = p - r - 1, the degree of the orbit forms t^k (1+t)^(d-2k) of P's
    linear extensions; raises NotCanonicalError unless P is canonical."""
    if not is_canonical(P):
        raise NotCanonicalError("poset orbits need a canonically labeled poset")
    return len(P) - sign_grading(P).r - 1


class WpPolynomials(NamedTuple):
    """Descent polynomial of the linear extensions with its expansion
    a_i in the t^i (1+t)^(d-2i) basis, d = p - r - 1."""

    W: IntPolynomial
    a: tuple[int, ...]
    r: int
    d: int

    def to_json_dict(self) -> dict:
        return {"W": self.W.to_json_dict(), "a": list(self.a), "r": self.r, "d": self.d}


def wp_polynomial(P: LabeledPoset) -> WpPolynomials:
    """W(P;t) with its basis coefficients a_i computed twice: once by the
    gamma peel of W, once from 0-sentinel peak counts (via the adjoined-top
    poset when r = 1).  The two routes must agree.

    >>> V = LabeledPoset("abc", [("a", "c"), ("b", "c")], {"a": -2, "b": -1, "c": 1})
    >>> wp_polynomial(V).a
    (1,)
    """
    if not len(P):
        raise ValueError("empty poset")
    if not is_canonical(P):
        raise NotCanonicalError("wp_polynomial needs a canonically labeled poset")
    g = sign_grading(P)  # canonical, so its rank r is 0 or 1
    exts = linear_extensions(P)
    p = len(P)
    W = descent_poly(exts)
    d = p - g.r - 1
    try:
        gamma = gamma_expand(W, d).gamma
    except NotSymmetricError as exc:
        # the theorem makes W(P;t) symmetric: this is a broken identity, not bad input
        raise BrokenInvariantError(f"W(P;t) breaks the orbit symmetry: {exc}") from exc
    if g.r == 0:
        n, shift, source = p, 0, exts
    else:
        # the rank-0 peak formula on the adjoined-top poset, one size up,
        # with its index shifted by one
        n, shift, source = p + 1, 1, linear_extensions(adjoin_top(P))
    peaks = Counter(peak(pi, Boundary.ZERO) for pi in source)
    a = strip_zeros([peak_scale(peaks[i + shift], i + shift, n) for i in range(d // 2 + 1)])
    if a != gamma:
        raise RuntimeError(
            f"peak-count route {a} disagrees with gamma peel {gamma} for {P!r}"
        )
    if any(x < 0 for x in a):
        raise RuntimeError(f"negative basis coefficient in {a}")
    return WpPolynomials(W, a, g.r, d)


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


def _is_transitive(pairs: frozenset[tuple[int, int]]) -> bool:
    return all(
        (a, d) in pairs
        for (a, b) in pairs
        for (c, d) in pairs
        if b == c
    )


def _reduction(pairs: frozenset[tuple[int, int]]) -> list[tuple[int, int]]:
    return [
        (a, b)
        for (a, b) in sorted(pairs)
        if not any((a, c) in pairs and (c, b) in pairs for c in range(a + 1, b))
    ]


def _canonical_form(n: int, pairs: frozenset[tuple[int, int]]) -> tuple:
    best = None
    for perm in itertools.permutations(range(n)):
        mapped = tuple(sorted((perm[a], perm[b]) for a, b in pairs))
        if best is None or mapped < best:
            best = mapped
    return best if best is not None else ()


def _forced_canonical_labels(n: int, covers: Sequence[tuple[int, int]]) -> dict[int, int] | None:
    """The unique candidate ranks (saturated-chain parity), labeled
    canonically, or None when no canonical labeling can exist."""
    up: dict[int, list[int]] = {e: [] for e in range(n)}
    down: dict[int, list[int]] = {e: [] for e in range(n)}
    for x, y in covers:
        up[x].append(y)
        down[y].append(x)
    indeg = {e: len(down[e]) for e in range(n)}
    order = [e for e in range(n) if indeg[e] == 0]
    rho: dict[int, int] = {e: 0 for e in order}
    queue = list(order)
    while queue:
        e = queue.pop(0)
        for f in up[e]:
            want = 1 - rho[e]
            if f in rho:
                if rho[f] != want:
                    return None
            else:
                rho[f] = want
            indeg[f] -= 1
            if indeg[f] == 0:
                queue.append(f)
    if len(rho) != n:
        return None
    # every maximal element must sit at the common rank r
    max_ranks = {rho[e] for e in range(n) if not up[e]}
    if len(max_ranks) > 1:
        return None
    labels: dict[int, int] = {}
    neg = -1
    pos = 1
    for e in range(n):
        if rho[e] == 0:
            labels[e] = neg
            neg -= 1
        else:
            labels[e] = pos
            pos += 1
    return labels


def all_canonical_posets(max_size: int) -> list[LabeledPoset]:
    """Every poset with at most max_size elements (up to isomorphism) that
    admits a canonical labeling, with one such labeling attached."""
    if max_size > 6:
        raise ValueError("exhaustive poset enumeration is intended for size <= 6")
    out: list[LabeledPoset] = []
    for n in range(1, max_size + 1):
        seen: set[tuple] = set()
        slots = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for bits in range(1 << len(slots)):
            pairs = frozenset(slots[i] for i in range(len(slots)) if bits >> i & 1)
            if not _is_transitive(pairs):
                continue
            # labelability is a property of the isomorphism class, so
            # skipping unlabelable posets before the isomorphism test keeps
            # the first labelable representative of every class
            covers = _reduction(pairs)
            labels = _forced_canonical_labels(n, covers)
            if labels is None:
                continue
            form = _canonical_form(n, pairs)
            if form in seen:
                continue
            seen.add(form)
            P = LabeledPoset(range(n), covers, labels)
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
        # transitive closure
        changed = True
        while changed:
            changed = False
            for (a, b) in list(pairs):
                for (c, d) in list(pairs):
                    if b == c and (a, d) not in pairs:
                        pairs.add((a, d))
                        changed = True
        covers = _reduction(frozenset(pairs))
        labels = _forced_canonical_labels(size, covers)
        if labels is None:
            continue
        found.append(LabeledPoset(range(size), covers, labels))
    return found
