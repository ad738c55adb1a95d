"""Verification suites: brute-force checks of every identity the package
implements, each run per n up to a default or user-supplied bound.

Theorem suites must pass; a failure means a bug and exits with code 1.
Conjecture suites report consistency only; a genuine counterexample would be
a discovery, reported with exit code 3.  Every suite enumerates exhaustively
except two, which sample with fixed seeds: corre samples words above n = 7
and wp samples posets above n = 5.  So reports are byte-identical across runs
and across worker counts: with ``jobs`` above 1, ``run_suite`` forks worker
processes that each run a share of the sizes and send their instances back
through a pipe.
"""

from __future__ import annotations

import gc
import io
import json
import os
import pickle
import random
import signal
import sys
import time
from collections import Counter
from functools import lru_cache, partial
from math import comb, factorial
from typing import Callable, Mapping, NamedTuple, NoReturn

from . import action, mahonian, patterns, posets, stacksort, trees, words
from .limits import enumeration_bound
from .polynomials import (
    IntPolynomial,
    NotSymmetricError,
    gamma_expand,
    gessel_expand,
    gessel_expand_via_solve,
    latex_gamma_form,
    strip_zeros,
    uni,
)
from .words import Boundary, Word, des, descent_poly, peak


class UnknownSuiteError(ValueError):
    pass


class UnknownFormatError(ValueError):
    pass


_EXHAUSTIVE_LIMIT = 7
_SAMPLE_WORDS = 1500


class Instance(NamedTuple):
    """Result of one suite at one size."""

    suite: str
    n: int
    ok: bool
    hard_failure: bool
    detail: str
    counterexample: dict | None = None
    data: dict | None = None
    seconds: float = 0.0

    def to_json_dict(self, include_timing: bool = False) -> dict:
        out = {
            "suite": self.suite,
            "n": self.n,
            "ok": self.ok,
            "hard_failure": self.hard_failure,
            "detail": self.detail,
            "counterexample": _jsonable(self.counterexample),
            "data": _jsonable(self.data),
        }
        if include_timing:
            out["seconds"] = self.seconds
        return out


class Report(NamedTuple):
    suite: str
    kind: str
    statement: str
    max_n: int
    instances: tuple[Instance, ...]

    @property
    def passed(self) -> bool:
        return all(inst.ok for inst in self.instances)

    def exit_code(self) -> int:
        if self.passed:
            return 0
        if self.kind == "theorem" or any(
            not inst.ok and inst.hard_failure for inst in self.instances
        ):
            return 1
        return 3

    def summary_line(self) -> str:
        if self.passed:
            if self.kind == "theorem":
                return f"{self.suite}: PASS for n <= {self.max_n}"
            return f"{self.suite}: consistent up to n = {self.max_n} (conjecture, not a proof)"
        # the failure that sets exit_code: the first hard one, if any
        failed = [inst for inst in self.instances if not inst.ok]
        bad = next((inst for inst in failed if inst.hard_failure), failed[0])
        if self.kind == "theorem":
            return f"{self.suite}: FAIL at n = {bad.n}: {bad.detail}"
        if bad.hard_failure:
            return f"{self.suite}: FAIL at n = {bad.n} (proven part violated): {bad.detail}"
        return f"{self.suite}: COUNTEREXAMPLE at n = {bad.n}: {bad.detail}"

    def to_json_dict(self, include_timing: bool = False) -> dict:
        return {
            "suite": self.suite,
            "kind": self.kind,
            "statement": self.statement,
            "max_n": self.max_n,
            "passed": self.passed,
            "summary": self.summary_line(),
            "instances": [i.to_json_dict(include_timing) for i in self.instances],
        }


def _jsonable(x):
    if x is None or isinstance(x, (bool, int, float, str)):
        return x
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, (set, frozenset)):
        return sorted(_jsonable(v) for v in x)
    if isinstance(x, Mapping):
        return {str(k): _jsonable(v) for k, v in x.items()}
    return str(x)


def _sample_words(n: int, count: int, tag: str) -> list[Word]:
    rng = random.Random(f"permact:{tag}:{n}")
    base = list(range(1, n + 1))
    out = []
    for _ in range(count):
        rng.shuffle(base)
        out.append(tuple(base))
    return out


class Failure(Exception):
    """A runner's failed check at its n, raised for ``_run_instance`` to
    report.  hard=False marks a counterexample to a conjecture.  Not a
    RuntimeError or ValueError: ``_check_orbits`` catches the first, and
    ``cli.main`` maps both to exit codes."""

    def __init__(self, detail: str, witness: dict | None = None, hard: bool = True):
        super().__init__(detail)
        self.detail, self.witness, self.hard = detail, witness, hard


@lru_cache(maxsize=None)
def eulerian_poly(n: int) -> tuple[int, ...]:
    """Descent generating polynomial of all permutations of [n], dense, from
    the recurrence A(m, k) = (k + 1) A(m-1, k) + (m - k) A(m-1, k-1)."""
    row = [1]
    for m in range(1, n + 1):
        padded = [0, *row, 0]
        row = [(k + 1) * padded[k + 1] + (m - k) * padded[k] for k in range(m)]
    return strip_zeros(row)


@lru_cache(maxsize=None)
def involution_descent_poly(n: int) -> tuple[int, ...]:
    return descent_poly(words.involutions(n))


def _check_orbits(
    n: int,
    walk_check: Callable[[frozenset[Word]], None],
    orbit_check: Callable[[action.OrbitReport], None],
    cover_detail: str,
) -> None:
    """Check the orbits of S_n under the hops, raising Failure at the first
    check that fails.  orbit_reps walks the representatives depth first,
    each with its double ascents; each orbit is built from its
    representative, doubling over those letters, and verified_orbit
    requires its one double-descent-free member to be that representative.
    The orbits are checked as the frozensets they are built as, so nothing
    is sorted on the pass path: each witness that names a member sorts
    first, so that it names the least one.
    Orbits are the classes of the group the hops generate, so two orbits
    that meet are equal and share that member: distinct representatives
    give disjoint orbits, and sizes that sum to n! partition S_n.
    orbit_check runs on each verified orbit.  For n <= 6 the walk of S_n is
    the oracle and runs first: walk_check runs on each walked orbit, and
    the walk must find the same orbits.  Both checks raise Failure.
    cover_detail is formatted with covered and total when the sizes do not
    sum to n!."""
    hop = action.phi_prime_x
    walked = set()
    for members in action.orbits(words.all_permutations(n), hop) if n <= 6 else ():
        walk_check(members)
        walked.add(members)
    covered = 0
    built = set()
    previous: Word = ()
    repeated = False
    for seed, letters in action.orbit_reps(n):
        members = action.orbit_members(seed, hop, letters)
        try:
            rep = action.verified_orbit(members, n - 1, Boundary.TOP, seed)
        except RuntimeError as exc:
            raise Failure(str(exc), {"word": min(members)})
        orbit_check(rep)
        covered += len(members)
        repeated |= seed <= previous
        previous = seed
        if n <= 6:
            built.add(members)
    if covered != factorial(n):
        raise Failure(cover_detail.format(covered=covered, total=factorial(n)))
    if repeated:
        raise Failure("orbit representatives repeat or leave lex order")
    if built != walked:
        raise Failure("the orbits of the representatives differ from the walk of S_n")


def _constant_on_orbits(n: int, value: Callable[[Word], object], detail: str,
                        on_orbit: Callable[[action.OrbitReport], None] | None = None) -> None:
    """Check that value is constant on every orbit of S_n, raising Failure
    with detail at the first hop u = phi_prime_x(w, x) of a bad orbit with
    value(u) != value(w).  The orbits are the classes of the group the hops
    generate, so this is the claim "no hop changes value" at one value per
    word.  For n <= 6 the hop-by-hop sweep of every walked orbit is the
    oracle: no hop leaves its orbit, and the two verdicts agree.  on_orbit
    sees each verified orbit whose value is constant."""
    hop = action.phi_prime_x

    def first_move(ordered) -> NoReturn:
        w, x, u = next((w, x, u) for w in ordered for x in range(1, n + 1)
                       for u in [hop(w, x)] if value(u) != value(w))
        raise Failure(detail, {"word": w, "x": x, "value": value(w), "image_value": value(u)})

    def sweep(members: frozenset[Word]) -> None:
        changed = len({value(w) for w in members}) > 1
        # members are reached from the seed by hops, so a bad orbit has a move
        hops = [(w, x, hop(w, x)) for w in members for x in range(1, n + 1)]
        moves = [(w, x, u) for w, x, u in hops if value(u) != value(w)]
        if changed != bool(moves) or any(u not in members for _, _, u in hops):
            raise Failure("the hop-by-hop sweep disagrees with the orbit check", {"orbit": members})
        if changed:
            first_move(sorted(members))

    def constant(rep: action.OrbitReport) -> None:
        if len({value(w) for w in rep.members}) > 1:
            first_move(sorted(rep.members))
        if on_orbit is not None:
            on_orbit(rep)

    _check_orbits(n, sweep, constant, "orbit sizes sum to {covered}, not {total}")


# -- suite runners --------------------------------------------------------------
# Each runner checks one n: it returns (detail, data) or raises Failure.  They
# stay module-level `_run_*` functions, one call per n, because perfbench's
# tracer wraps those names.


def _run_orb(n: int) -> tuple[str, dict | None]:
    hop = action.phi_prime_x
    norbits = 0

    def closure(members: frozenset[Word]) -> None:
        if members != action.orbit_closure(min(members), hop):
            raise Failure("orbit doubling differs from the search closure", {"word": min(members)})

    def constant_peak(rep: action.OrbitReport) -> None:
        nonlocal norbits
        if rep.peaks.count(rep.peak) != len(rep.members):
            m = min(m for m, p in zip(rep.members, rep.peaks) if p != rep.peak)
            raise Failure("peak is not constant on an orbit", {"word": m, "expected_peak": rep.peak})
        norbits += 1

    _check_orbits(n, closure, constant_peak, "orbits cover {covered} of {total} words")
    return (
        f"{norbits} orbits partition all {factorial(n)} permutations; "
        "each descent polynomial equals t^k (1+t)^(n-1-2k)"
    ), None


def _run_corre(n: int) -> tuple[str, dict | None]:
    exhaustive = n <= _EXHAUSTIVE_LIMIT
    if exhaustive:
        ws: list[Word] = list(words.all_permutations(n))
        regime = "exhaustive"
    else:
        ws = _sample_words(n, _SAMPLE_WORDS, "corre")
        regime = f"{len(ws)} sampled words"
    letters = range(1, n + 1)
    # the hop table of this instance: word -> (phi'_1(w), ..., phi'_n(w)),
    # each row computed on its first read, each image the one copy of its
    # word held here
    table = action.HopTable(ws, letters, action.phi_prime_x)
    for w in ws:
        hops = table[w]
        if n <= 5:
            for x, h in zip(letters, hops):
                if h != action.phi_prime_x_via_factorization(w, x):
                    raise Failure("hop kernel differs from the factorization route", {"word": w, "x": x})
        if exhaustive:  # the product of all hops, read from the table
            full = w
            for x in letters:
                full = table[full][x - 1]
        else:
            full = action.phi_prime_full(w)
        if des(full) + des(w) != n - 1:
            raise Failure("product of all hops does not complement des", {"word": w})
        bad = table.first_failure(w)
        if bad is not None:
            what = "hop operator is not an involution" if len(bad) == 1 else "hop operators do not commute"
            raise Failure(what, {"word": w, **bad})
    checks = len(ws) * (1 + n + n * (n - 1) // 2)
    # the class polynomials of S_n from the (peak, des) marginal of the
    # letter-set transfer, with the word-by-word tally as the oracle
    descents, peaks = Counter(), Counter()
    for (i, _, _, d), c in patterns.pattern_tally(n).items():
        descents[d] += c
        peaks[i] += c
    try:
        cp = action.class_polys_from_counts(descents, peaks, n)
    except action.NotInvariantError as exc:
        raise Failure(f"letter-set transfer tally of S_n: {exc}")
    if exhaustive and cp != action.class_polys(words.all_permutations(n)):
        raise Failure("letter-set transfer and word-by-word class tallies disagree")
    if cp.W != eulerian_poly(n):
        raise Failure("Eulerian recurrence differs from the tallied descent polynomial")
    gam = gamma_expand(eulerian_poly(n), n - 1).gamma
    if cp.b != gam:
        raise Failure(f"class coefficients {cp.b} != Eulerian gamma {gam}")
    return (
        f"involution and commutation verified ({regime}, {checks} checks); "
        f"b_i of the full symmetric group match the Eulerian gamma vector {gam}"
    ), {"b": list(cp.b)}


def _run_stack_invariance(n: int) -> tuple[str, dict | None]:
    held: dict[Word, Word] = {}  # one copy of each distinct sort (326 at n = 7)
    sorts: dict[Word, Word] = {}
    for w in words.all_permutations(n):
        s = stacksort.stack_sort(w)
        sorts[w] = held.setdefault(s, s)
    _constant_on_orbits(n, sorts.__getitem__, "stack sort changed under a hop")
    count = n * len(sorts)
    for w, s in sorts.items():
        # the unmodified block swap also fixes S whenever one block is
        # empty, which is every letter class except peaks
        for x, cls in zip(w, words.classify(w)):
            if cls is not words.LetterClass.PEAK:
                if sorts[action.phi_x(w, x)] != s:
                    raise Failure("stack sort changed under a non-peak block swap", {"word": w, "x": x})
                count += 1
    return f"S is constant under every hop and every non-peak block swap ({count} pairs)", None


def _run_slides(n: int) -> tuple[str, dict | None]:
    for w in words.all_permutations(n):
        if n <= 5 and stacksort.stack_sort(w) != trees.postorder(trees.binary_tree(w)):
            raise Failure("stack pass differs from the binary-tree post-order", {"word": w})
        if stacksort.stack_sort_via_slides(w) != stacksort.stack_sort(w):
            raise Failure("slide composition differs from recursive sort", {"word": w})
    return f"slide composition equals the recursive operator on all {factorial(n)} words", None


def _run_genbona(n: int) -> tuple[str, dict | None]:
    depths = stacksort.r_sortable_classes(n)
    # sort depth is preserved except that the identity (depth 0) may trade
    # places with depth-1 words, which moves no set S_n^r, r >= 1; the
    # verified orbits give the descent and peak counts of each depth
    by_depth = [(Counter(), Counter()) for _ in range(n + 1)]

    def tally(rep: action.OrbitReport) -> None:
        descents, peaks = by_depth[max(depths[rep.rep], 1)]
        descents.update(dict(enumerate(rep.descent_poly)))
        peaks.update(rep.peaks)

    _constant_on_orbits(n, lambda w: max(depths[w], 1),
                        "sort depth changed by more than the 0/1 identity swap", tally)
    descents, peaks = Counter(), Counter()  # of S_n^r
    bs = {}
    for r in range(1, n):
        descents.update(by_depth[r][0])
        peaks.update(by_depth[r][1])
        cp = action.class_polys_from_counts(descents, peaks, n)
        if any(b < 0 for b in cp.b):
            raise Failure(f"negative b_i for r = {r}")
        bs[r] = list(cp.b)
        if r == 1:
            _, gam = patterns.narayana(n)
            if cp.b != gam.gamma:
                raise Failure(f"b_i of 1-sortable words {cp.b} != Narayana gamma {gam.gamma}")
        if r == n - 1:
            gam_e = gamma_expand(eulerian_poly(n), n - 1).gamma
            if cp.b != gam_e:
                raise Failure(f"b_i of all words {cp.b} != Eulerian gamma {gam_e}")
    return (
        f"r-stack-sortable sets closed under the action for r >= 1; "
        f"nonnegative integer b_i for every r in 1..{max(1, n - 1)}"
    ), {"b_by_r": bs}


def _run_narayana(n: int) -> tuple[str, dict | None]:
    poly, gam = patterns.narayana(n)
    avs = patterns.avoiding_permutations(n)
    if n <= 5 and avs != list(patterns.avoiders(range(1, n + 1))):
        raise Failure("size-built avoiders differ from the recursive split")
    catalan = comb(2 * n, n) // (n + 1)
    if len(avs) != catalan:
        raise Failure(f"{len(avs)} avoiders != Catalan number {catalan}")
    if descent_poly(avs) != poly:
        raise Failure("descent polynomial of avoiders differs from the closed form")
    peaks = Counter(map(peak, avs))
    for k in range(0, (n - 1) // 2 + 1):
        g = gam.gamma[k] if k < len(gam.gamma) else 0
        if peaks[k] != g << (n - 1 - 2 * k):
            raise Failure(f"peak count at k = {k} is {peaks[k]}, formula gives {g << (n - 1 - 2 * k)}")
    return (f"both closed forms match over {len(avs)} avoiders; gamma = {gam.gamma}",
            {"gamma": list(gam.gamma)})


def _run_constant_patterns(n: int) -> tuple[str, dict | None]:
    held: dict[tuple[int, int], tuple[int, int]] = {}  # one copy of each distinct pair
    stats: dict[Word, tuple[int, int]] = {}
    for w in words.all_permutations(n):
        pair = patterns.pattern_pair(w)
        if pair != patterns.pattern_pair_via_runs(w):
            raise Failure("direct and run-based pattern counts disagree", {"word": w})
        stats[w] = held.setdefault(pair, pair)
    _constant_on_orbits(n, stats.__getitem__, "pattern counts changed under a hop")
    return (
        f"(13-2) and (2-31) constant on all orbits ({len(stats) * n} hops checked), "
        "and both counting routes agree"
    ), None


def _run_pq_symmetry(n: int) -> tuple[str, dict | None]:
    if n <= 5 and patterns.pattern_tally(n) != patterns.pattern_tally_via_runs(n):
        raise Failure("letter-set transfer of (peak, 13-2, 2-31, des) and per-word "
                      "run-based tally disagree")
    if not patterns.check_pq_symmetry(n):
        raise Failure("A_n(p,q,t) != A_n(q,p,t)")
    bs = []
    for i in range(0, (n - 1) // 2 + 1):
        b = patterns.bni_polynomial(n, i)
        if any(c < 0 for c in b.terms.values()):
            raise Failure(f"b_(n,{i}) has a negative coefficient")
        bs.append(b)
    return (
        "A_n(p,q,t) is symmetric in p and q; all b_(n,i)(p,q) are integral with "
        "nonnegative coefficients"
    ), {"b": [b.to_json_dict() for b in bs]}


def _run_mahonian_s1s2(n: int) -> tuple[str, dict | None]:
    if not patterns.check_mahonian(n):
        raise Failure("an exponent-sum tally of A_n differs from the q-factorial")
    return "A_n(q,q^2,q) = A_n(q^2,q,q) = [n]_q!", None


def _run_wp(n: int) -> tuple[str, dict | None]:
    if n <= 5:
        corpus = [P for P in posets.all_canonical_posets(n) if len(P) == n]
        regime = "exhaustive"
    else:
        corpus = posets.sampled_canonical_posets(n, 20, seed=n * 7919)
        regime = f"{len(corpus)} sampled"
    for P in corpus:
        exts = posets.linear_extensions(P)
        wpp = posets.wp_polynomial(P)
        labels = P.sorted_labels
        # the hop table of this poset: pi -> (psi_x(pi) for x in labels); the
        # checks fill it for every extension, so the orbits read it too
        table = action.HopTable(exts, labels, partial(posets.psi_x_poset, P))
        for pi in exts:
            bad = table.first_failure(pi)
            if bad is not None:
                what = "poset hop is not an involution" if len(bad) == 1 else "poset hops do not commute"
                raise Failure(what, {"poset": P.to_json_dict(), "pi": pi, **bad})
        column = {x: i for i, x in enumerate(labels)}
        hop = lambda pi, x: table[pi][column[x]]
        covered = 0
        total = [0] * (wpp.d + 1)  # the sum of the orbit polynomials
        for members in action.orbits(exts, hop):
            rep = action.verified_orbit(sorted(members), wpp.d, Boundary.ZERO)
            if wpp.r == 0:
                for v, p in zip(rep.members, rep.peaks):
                    if p != rep.peak:
                        raise Failure("rank-0 peak not constant on an orbit", {"poset": P.to_json_dict(), "pi": v})
            covered += len(members)
            for i, c in enumerate(rep.descent_poly):
                total[i] += c
        if covered != len(exts):
            raise Failure("orbits do not partition the linear extensions", {"poset": P.to_json_dict()})
        if strip_zeros(total) != wpp.W:
            raise Failure("orbit polynomials do not sum to W(P;t)", {"poset": P.to_json_dict()})
    return (
        f"{len(corpus)} canonically labeled posets of size {n} ({regime}): orbit "
        "decomposition, dual-route a_i, and hop involution/commutation all verified"
    ), None


def _run_psiphi(n: int) -> tuple[str, dict | None]:
    perms = list(words.all_permutations(n))
    # for n <= 5 the kernels meet their oracles on every word first, so a
    # broken kernel fails here before the table below composes it
    for w in perms if n <= 5 else ():
        depths, right = trees.right_edges_via_tree(w)
        heights = trees.label_heights(trees.unordered_tree(w))
        odd = sum(1 << x for x, r in depths.items() if r & 1)
        if (trees.edge_masks(w) != (odd, sum(1 << x for x in right))
                or trees.veh(w) != sum(1 for h in heights.values() if h % 2 == 0)):
            raise Failure("stack scans differ from the tree walks", {"word": w})
        for x in w:
            # the block swap that the products of hops apply
            if trees.phi_x(w, x) != action.phi_x_via_factorization(w, x):
                raise Failure("block swap differs from the factorization route", {"word": w, "x": x})
    # the image table of this instance: per word of S_n (by lex rank), its
    # odd-set and right-edge masks and the ranks of psi(w) and phi_cap(w)
    rank = {w: k for k, w in enumerate(perms)}
    odds, rights, psis, caps = [], [], [], []
    for w in perms:
        odd, right = trees.edge_masks(w)
        odds.append(odd)
        rights.append(right)
        psis.append(rank[trees.hop_product(w, odd, trees.phi_x)])
        caps.append(rank[trees.hop_product(w, right, trees.phi_x)])
    for k, w in enumerate(perms):
        v, c = psis[k], caps[k]
        if caps[v] != k or psis[c] != k:
            raise Failure("the two products of hops are not mutually inverse", {"word": w})
        if odds[k] != rights[v]:
            raise Failure("odd right-depth letters do not map to right children", {"word": w})
        if rights[k] != odds[c]:
            raise Failure("right children do not map back to odd right-depth letters", {"word": w})
    return f"inverse pair and the odd/right-edge exchange hold on all {factorial(n)} words", None


def _run_psi_prime(n: int) -> tuple[str, dict | None]:
    depths = stacksort.r_sortable_classes(n)
    hits = dict.fromkeys(depths, 0)
    broken = n  # the smallest r whose r-stack-sortable set an image leaves
    for w, dep in depths.items():
        odd, _ = trees.edge_masks(w)
        v = trees.hop_product(w, odd, trees.phi_prime_x)
        if n <= 5 and not (v == trees.psi_prime_recursive(w) and odd.bit_count() == trees.veh(w)):
            raise Failure("direct and recursive constructions or the veh stack count disagree", {"word": w})
        if des(v) != odd.bit_count():
            raise Failure("des of the image differs from veh", {"word": w})
        if v in hits:
            hits[v] += 1
        # w lies in every set with r >= max(dep, 1), and v in all of them
        # iff depth(v) <= max(dep, 1); an image outside S_n gets depth n
        if depths.get(v, n) > max(dep, 1):
            broken = min(broken, max(dep, 1))
    # n! images that hit every word of S_n once make a bijection, and a
    # bijection preserves a finite set once it maps the set into itself
    if any(c != 1 for c in hits.values()):
        raise Failure("the map is not a bijection")
    if broken < n:
        raise Failure(f"the {broken}-stack-sortable words are not preserved")
    return "bijection with des(image) = veh(word), preserving every r-stack-sortable set", None


def _run_kreweras(n: int) -> tuple[str, dict | None]:
    image = []
    for w in patterns.avoiding_permutations(n):
        p = trees.dyck_path(w)
        if n <= 5 and p != trees.dyck_path_via_tree(w):
            raise Failure("the height scan differs from the tree walk", {"word": w, "path": p})
        even_up, double_up = trees.kreweras_stats(p)
        if even_up != trees.veh(w) or double_up != des(w):
            raise Failure("(veh, des) does not translate to the path statistics", {"word": w, "path": p})
        image.append(p)
    all_paths = list(trees.all_dyck_paths(n))
    if sorted(image) != sorted(all_paths):
        raise Failure("pre-order reading is not a bijection onto Dyck paths")
    stats = [trees.kreweras_stats(p) for p in all_paths]
    if Counter(even for even, _ in stats) != Counter(double for _, double in stats):
        raise Failure("even-height up-steps and double up-steps are not equidistributed")
    return (f"bijection onto all {len(all_paths)} Dyck paths; "
            "statistics translate and are equidistributed"), None


def _run_veh_altsum(n: int) -> tuple[str, dict | None]:
    k_max = max(1, n - 1)
    for w in patterns.avoiding_permutations(n):
        total = words.dec_subseq_altsum(w)
        oracle_fails = n <= 5 and total != sum((-2) ** i * d for i, d in enumerate(words.dec_subseq_counts(w, k_max)))
        if oracle_fails or total != trees.veh(w):
            detail = "recurrence differs from the alternating sum" if oracle_fails else "alternating sum differs from veh"
            raise Failure(detail, {"word": w, "d": words.dec_subseq_counts(w, k_max)})
    return "veh = d_1 - 2 d_2 + 4 d_3 - ... on all 231-avoiders", None


def _run_evt(n: int) -> tuple[str, dict | None]:
    images: set[Word] = set()
    for w in words.all_permutations(n):
        if n <= 5:
            heights = trees.label_heights(mahonian.increasing_tree(w))
            if mahonian.ev_set(w) != {i + 1 for i, a in enumerate(w) if heights[a] % 2 == 0}:
                raise Failure("stack scan differs from the increasing-tree heights", {"word": w})
        v = mahonian.theta(w)
        if n <= 5 and v != mahonian.theta_recursive(w):
            raise Failure("the iterative theta differs from the recursion", {"word": w, "image": v})
        if set(mahonian.ev_set(v)) != words.descent_set(w):
            raise Failure("even-height positions of the image differ from the descent set", {"word": w, "image": v})
        images.add(v)
    if len(images) != factorial(n):
        raise Failure("the transformation is not a bijection")
    return f"EV(theta(w)) = Des(w) for all {factorial(n)} words; theta is a bijection", None


def _run_euler_mahonian(n: int) -> tuple[str, dict | None]:
    lhs, rhs = mahonian.joint_distributions(n)
    if n <= 5 and (lhs, rhs) != mahonian.joint_distributions_via_sets(n):
        raise Failure("letter-set transfer differs from the ev_set, des and maj tallies")
    if lhs != rhs:
        raise Failure("joint distributions differ")
    return f"(veh', siveh) is jointly equidistributed with (des, maj) over all {factorial(n)} words", None


def _run_guo_zeng(n: int) -> tuple[str, dict | None]:
    if n <= 6:
        ident = words.identity(n)
        if sorted(words.involutions(n)) != [
            w for w in words.all_permutations(n) if words.perm_compose(w, w) == ident
        ]:
            raise Failure("size-built involutions differ from the S_n filter w(w(i)) = i")
    poly = involution_descent_poly(n)
    try:
        ge = gamma_expand(poly, n - 1)
    except NotSymmetricError:
        raise Failure("involution descent polynomial is not symmetric")
    if any(g < 0 for g in ge.gamma):
        raise Failure(f"negative gamma entry in {ge.gamma}", {"gamma": list(ge.gamma)}, hard=False)
    return f"gamma vector {ge.gamma} is nonnegative", {"gamma": list(ge.gamma)}


def _after_masks(perms: list[Word], n: int) -> list[int]:
    """Bit (a-1)n + (b-1) of a permutation's mask is set iff a comes after b."""
    return [sum(1 << ((a - 1) * n + b - 1) for k, b in enumerate(pi) for a in pi[k + 1 :])
            for pi in perms]


def _run_gessel(n: int) -> tuple[str, dict | None]:
    # des(pi^-1 tau) is the number of tau's adjacent pairs (a, b) whose
    # column holds pi's bit; classes[d] holds the bits of the pi with des d
    perms = list(words.all_permutations(n))
    columns = words.pair_columns(_after_masks(perms, n), n)
    classes: dict[int, int] = {}
    for k, pi in enumerate(perms):
        d = des(pi)
        classes[d] = classes.get(d, 0) | 1 << k
    full = (1 << len(perms)) - 1
    by_des: dict[int, dict[tuple[int, int], int]] = {}
    for tau in perms:
        F = words.sliced_tally([columns[(a - 1) * n + b - 1] for a, b in zip(tau, tau[1:])], classes, full)
        if n <= 4 and F != dict(Counter(
            (des(pi), des(words.perm_compose(words.perm_inverse(pi), tau))) for pi in perms
        )):
            raise Failure("bitmask pair tally differs from composing the permutations", {"tau": tau})
        d = des(tau)
        if d in by_des:
            if by_des[d] != F:
                raise Failure("joint distribution depends on more than the descent number", {"tau": tau})
        else:
            by_des[d] = F
    table = {}
    for d in sorted(by_des):
        F = IntPolynomial.from_counts(("s", "t"), by_des[d])
        ge = gessel_expand(F, n)
        if n <= 4 and ge != gessel_expand_via_solve(F, n):
            raise Failure("integer peel differs from the Fraction solve", {"des": d})
        negs = ge.negative_entries()
        if negs:
            raise Failure(f"negative coefficients for descent class {d}", {"des": d, "negative": negs}, hard=False)
        table[str(d)] = [[k, j, c] for (k, j), c in sorted(ge.coeffs.items())]
    return (
        f"all c(k,j) are nonnegative integers for the {len(by_des)} descent classes, "
        "with exact reconstruction"
    ), {"c_by_descent_class": table}


def _run_divisibility(n: int) -> tuple[str, dict | None]:
    if n <= 5 and patterns.bni_via_scans(n) != [
        patterns.bni_polynomial(n, i) for i in range((n - 1) // 2 + 1)
    ]:
        raise Failure("the b_(n,i) table differs from the per-word scan route")
    results = patterns.check_divisibility(n)
    failed = sorted(i for i, ok in results.items() if not ok)
    if failed:
        raise Failure(f"(p+q)^i does not divide b_(n,i) for i in {failed}", {"failed_i": failed},
                      hard=False)
    return f"(p+q)^i divides b_(n,i) exactly for every i in 0..{max(results)}", None


def _run_brenti(n: int) -> tuple[str, dict | None]:
    coeffs = list(involution_descent_poly(n))
    coeffs += [0] * (n - len(coeffs))
    if coeffs != coeffs[::-1]:
        raise Failure(f"coefficients {coeffs} are not symmetric")
    rises = all(coeffs[i] <= coeffs[i + 1] for i in range((n - 1) // 2))
    falls = all(coeffs[i] >= coeffs[i + 1] for i in range((n - 1) // 2, n - 1))
    if not (rises and falls):
        raise Failure(f"coefficients {coeffs} are not unimodal")
    nz = [i for i, c in enumerate(coeffs) if c]
    if nz and any(coeffs[i] == 0 for i in range(nz[0], nz[-1] + 1)):
        raise Failure(f"internal zero in {coeffs}", {"coeffs": coeffs}, hard=False)
    for i in range(1, n - 1):
        if coeffs[i] ** 2 < coeffs[i - 1] * coeffs[i + 1]:
            raise Failure(f"log-concavity fails at position {i} of {coeffs}", {"coeffs": coeffs, "i": i},
                          hard=False)
    return (
        "involution descent counts are symmetric, unimodal, and log-concave "
        "with no internal zeros"
    ), {"coeffs": coeffs}


class Suite:
    # a plain class, not a NamedTuple: perfbench's tracer patches vars(suite)["runner"]
    def __init__(self, name: str, kind: str, statement: str, default_max_n: int,
                 runner: Callable[[int], tuple[str, dict | None]]):
        self.name, self.kind, self.statement = name, kind, statement
        self.default_max_n, self.runner = default_max_n, runner


SUITES: dict[str, Suite] = {
    s.name: s
    for s in [
        Suite("orb", "theorem",
              "every orbit descent polynomial is t^k (1+t)^(n-1-2k), k the common peak count",
              8, _run_orb),
        Suite("corre", "theorem",
              "the hops are commuting involutions; invariant sets decompose with b_i = 2^(-n+1+2i) peak counts",
              9, _run_corre),
        Suite("stack-invariance", "theorem",
              "stack sorting is constant on orbits",
              7, _run_stack_invariance),
        Suite("slides-equal-recursive", "theorem",
              "composing slides at the original descents, rightmost first, equals the recursive stack sort",
              7, _run_slides),
        Suite("genbona", "theorem",
              "r-stack-sortable sets are action-closed (r >= 1) with nonnegative integer b_i",
              8, _run_genbona),
        Suite("narayana", "theorem",
              "231-avoiders have the Narayana descent polynomial with gamma_k = C(2k,k) C(n-1,2k) / (k+1)",
              9, _run_narayana),
        Suite("constant-patterns", "theorem",
              "(13-2) and (2-31) are constant on orbits",
              8, _run_constant_patterns),
        Suite("pq-symmetry", "theorem",
              "A_n(p,q,t) = A_n(q,p,t) and each b_(n,i)(p,q) has nonnegative integer coefficients",
              7, _run_pq_symmetry),
        Suite("mahonian-s1s2", "theorem",
              "A_n(q,q^2,q) = A_n(q^2,q,q) = [n]_q!",
              7, _run_mahonian_s1s2),
        Suite("wp", "theorem",
              "linear-extension orbits give W(P;t) = sum a_i t^i (1+t)^(d-2i) with peak-count a_i",
              5, _run_wp),
        Suite("psiphi", "theorem",
              "the products of hops over odd-depth letters and over right children are mutually inverse",
              7, _run_psiphi),
        Suite("psi-prime", "theorem",
              "des composed with the odd-letter hop product equals veh, bijectively on every sortable class",
              7, _run_psi_prime),
        Suite("kreweras", "theorem",
              "the pre-order path sends (veh, des) to (even-height up-steps, double up-steps), equidistributed",
              9, _run_kreweras),
        Suite("veh-altsum", "theorem",
              "on 231-avoiders, veh = sum of (-2)^(i-1) d_i over decreasing subsequence counts",
              8, _run_veh_altsum),
        Suite("evt", "theorem",
              "even-height positions of theta(w) equal the descent set of w",
              8, _run_evt),
        Suite("euler-mahonian", "theorem",
              "(veh', siveh) is jointly equidistributed with (des, maj)",
              8, _run_euler_mahonian),
        Suite("guo-zeng", "conjecture",
              "the involution descent polynomial is gamma-nonnegative",
              10, _run_guo_zeng),
        Suite("gessel", "conjecture",
              "the descents/inverse-descents joint polynomial has nonnegative c(k,j) in the (s+t)^k (st)^j (1+st)^(n-k-1-2j) basis",
              6, _run_gessel),
        Suite("divisibility", "conjecture",
              "(p+q)^i divides b_(n,i)(p,q)",
              7, _run_divisibility),
        Suite("brenti-logconcave", "conjecture",
              "involution descent counts are log-concave with no internal zeros",
              10, _run_brenti),
    ]
}


def _run_instance(name: str, n: int) -> Instance:
    """Run one suite at one n and report it: a runner's return passes, its
    Failure fails, and any other exception is a hard failure named error,
    with its traceback written to stderr."""
    runner = SUITES[name].runner
    start = time.perf_counter()
    try:
        detail, data = runner(n)
        inst = Instance(name, n, True, False, detail, None, data)
    except Failure as f:
        inst = Instance(name, n, False, f.hard, f.detail, f.witness)
    except Exception as exc:
        import traceback  # on first use, as in _worker

        sys.stderr.write(traceback.format_exc())
        inst = Instance(name, n, False, True, f"error: {exc!r}")
    return inst._replace(seconds=time.perf_counter() - start)


def _worker(name: str, share: list[int], write_end: int) -> NoReturn:
    """The body of a forked child: run its share of sizes, pickle the
    instances down the pipe and leave by ``os._exit``, nonzero on any error,
    so that no cleanup of the parent (atexit hooks, buffered output) runs
    twice."""
    code = 1
    try:
        payload = pickle.dumps([_run_instance(name, n) for n in share])
        with open(write_end, "wb") as pipe:
            pipe.write(payload)
        code = 0
    except BaseException:
        import traceback

        os.write(2, traceback.format_exc().encode())
    finally:
        os._exit(code)


def _forked_instances(name: str, ns: list[int], workers: int) -> tuple[Instance, ...]:
    """Run the sizes ns of one suite in ``workers`` forked children.

    The sizes are dealt largest n first, round-robin, so the slowest sizes
    start at once; the instances come back in ascending n.  The parent runs
    no instance: it reads each child's pipe to EOF, then reaps the child.
    Children inherit the parent's modules as they are, patches included;
    permact starts no threads, so forking is safe.  The parent's objects are
    frozen out of the collector from before the first fork to after the
    last reap, as the ``gc`` docs advise for fork, so a child's collections
    do not write to, and so copy, the pages it shares with the parent.  A
    child that fails raises RuntimeError naming the suite, and no child
    outlives the call.
    """
    pipes = []  # the read ends, as files
    running: dict[int, tuple] = {}  # unreaped child pid -> (its pipe, its share)
    instances: list[Instance] = []
    gc.freeze()
    try:
        for share in (ns[::-1][k::workers] for k in range(workers)):
            read_end, write_end = os.pipe()
            pipes.append(open(read_end, "rb"))
            try:
                pid = os.fork()
                if pid == 0:
                    _worker(name, share, write_end)
            finally:
                # a later child must not inherit this write end, or the
                # pipe never reaches EOF
                os.close(write_end)
            running[pid] = pipes[-1], share
        for pid, (pipe, share) in list(running.items()):
            payload = pipe.read()
            _, status = os.waitpid(pid, 0)
            del running[pid]
            code = os.waitstatus_to_exitcode(status)
            if code != 0 or not payload:
                raise RuntimeError(f"{name}: the worker running n = {sorted(share)} exited with status {code}")
            instances += pickle.loads(payload)
    finally:
        for pipe in pipes:
            pipe.close()
        for pid in running:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        gc.unfreeze()
    return tuple(sorted(instances, key=lambda inst: inst.n))


def run_suite(name: str, max_n: int | None = None, jobs: int = 1) -> Report:
    """Run one suite for every n from 1 up to max_n (clamped by
    the PERMACT_MAX_N safety rail).

    At most min(jobs, number of sizes, CPU count) worker processes are
    forked; where the platform has no ``os.fork``, the sizes run serially.
    Raises ValueError when jobs < 1 or when no size is left to run.
    """
    if name not in SUITES:
        raise UnknownSuiteError(
            f"unknown suite {name!r}; choose from {', '.join(sorted(SUITES))}"
        )
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    suite = SUITES[name]
    requested = suite.default_max_n if max_n is None else max_n
    cap = enumeration_bound()
    top = min(requested, cap)
    ns = list(range(1, top + 1))
    if not ns:
        why = f"max_n = {requested}" if requested < 1 else f"the enumeration cap PERMACT_MAX_N = {cap}"
        raise ValueError(f"{name} has no size to run: {why} is below its smallest n, 1")
    workers = min(jobs, len(ns), os.cpu_count() or 1)
    if workers > 1 and hasattr(os, "fork"):
        instances = _forked_instances(name, ns, workers)
    else:
        instances = tuple(_run_instance(name, n) for n in ns)
    return Report(name, suite.kind, suite.statement, top, instances)


# -- report serialization ------------------------------------------------------


def _latex_escape(text: str) -> str:
    for a, b in [("&", r"\&"), ("%", r"\%"), ("#", r"\#"), ("_", r"\_")]:
        text = text.replace(a, b)
    return text


def report_emit(report: Report, fmt: str, include_timing: bool = False) -> bytes:
    """Serialize a report deterministically as json, csv, or latex."""
    if fmt == "json":
        text = json.dumps(report.to_json_dict(include_timing), indent=2, sort_keys=True)
        return (text + "\n").encode()
    if fmt == "csv":
        import csv  # on first use, so that json and latex runs never load it

        buf = io.StringIO()
        fields = ["suite", "kind", "n", "ok", "hard_failure", "detail", "counterexample", "data"]
        if include_timing:
            fields.append("seconds")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(fields)
        for inst in report.instances:
            row = [
                report.suite,
                report.kind,
                inst.n,
                inst.ok,
                inst.hard_failure,
                inst.detail,
                json.dumps(_jsonable(inst.counterexample), sort_keys=True),
                json.dumps(_jsonable(inst.data), sort_keys=True),
            ]
            if include_timing:
                row.append(f"{inst.seconds:.3f}")
            writer.writerow(row)
        return buf.getvalue().encode()
    if fmt == "latex":
        lines = [
            r"\begin{tabular}{rll}",
            rf"\multicolumn{{3}}{{l}}{{{_latex_escape(report.suite)}: {_latex_escape(report.statement)}}}\\",
            r"$n$ & status & detail \\ \hline",
        ]
        for inst in report.instances:
            if inst.ok:
                status = "pass" if report.kind == "theorem" else "consistent"
            else:
                status = "FAIL" if inst.hard_failure or report.kind == "theorem" else "counterexample"
            lines.append(f"{inst.n} & {status} & {_latex_escape(inst.detail)} \\\\")
        lines.append(r"\end{tabular}")
        return ("\n".join(lines) + "\n").encode()
    raise UnknownFormatError(f"unknown report format {fmt!r}")


# -- polynomial tables ----------------------------------------------------------


def build_table(kind: str, n: int) -> tuple[list[str], list[list[str]]]:
    """Rows (as strings) for the named polynomial family, sizes 1..n."""
    rows = []
    if kind == "apq":
        for m in range(1, n + 1):
            bs = [patterns.bni_polynomial(m, i) for i in range((m - 1) // 2 + 1)]
            rows.append([str(m), latex_gamma_form(bs, m - 1), "; ".join(map(str, bs))])
        return ["n", "gamma_form", "b"], rows
    if kind not in ("eulerian", "narayana", "involution"):
        raise UnknownFormatError(f"unknown table kind {kind!r}")
    for m in range(1, n + 1):
        if kind == "narayana":
            poly, gam = patterns.narayana(m)
        else:
            poly = eulerian_poly(m) if kind == "eulerian" else involution_descent_poly(m)
            gam = gamma_expand(poly, m - 1)
        rows.append([str(m), str(uni(poly)), " ".join(map(str, gam.gamma))])
    return ["n", "polynomial", "gamma"], rows


def emit_table(header: list[str], rows: list[list[str]], fmt: str) -> bytes:
    if fmt == "json":
        data = [dict(zip(header, row)) for row in rows]
        return (json.dumps(data, indent=2, sort_keys=True) + "\n").encode()
    if fmt == "csv":
        import csv  # on first use, as in report_emit

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        return buf.getvalue().encode()
    if fmt == "latex":
        cols = "l" * len(header)
        lines = [rf"\begin{{tabular}}{{{cols}}}"]
        lines.append(" & ".join(_latex_escape(h) for h in header) + r" \\ \hline")
        for row in rows:
            lines.append(" & ".join(_latex_escape(c) for c in row) + r" \\")
        lines.append(r"\end{tabular}")
        return ("\n".join(lines) + "\n").encode()
    raise UnknownFormatError(f"unknown table format {fmt!r}")
