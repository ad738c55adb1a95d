import hashlib
import itertools
import json
import random
from collections import Counter
from functools import partial

import pytest

from permact import posets
from permact.action import orbit_members, phi_prime_x_via_factorization, verified_orbit
from permact.polynomials import gamma_expand
from permact.posets import (
    BrokenInvariantError,
    CannotCanonicalizeError,
    InvalidPosetError,
    LabeledPoset,
    NotALinearExtensionError,
    NotCanonicalError,
    NotSignGradedError,
    _hasse,
    adjoin_top,
    canonical_posets,
    is_canonical,
    is_linear_extension,
    linear_extensions,
    orbit_degree,
    psi_x_poset,
    sampled_canonical_posets,
    sign_grading,
    wp_polynomial,
)
from permact.words import Boundary, LetterClass, classify


def canonical_posets_up_to(max_size):
    return [P for size in range(1, max_size + 1) for P in canonical_posets(size)]


def v_poset():
    return LabeledPoset(
        ("a", "b", "c"), (("a", "c"), ("b", "c")), {"a": -2, "b": -1, "c": 1}
    )


def chain3():
    return LabeledPoset(
        ("a", "b", "c"), (("a", "b"), ("b", "c")), {"a": -1, "b": 1, "c": -2}
    )


def antichain(k):
    names = tuple("abcdef"[:k])
    return LabeledPoset(names, (), {x: -(i + 1) for i, x in enumerate(names)})


def test_construction_rejects_bad_input():
    with pytest.raises(InvalidPosetError):
        LabeledPoset(("a", "b"), (("a", "b"), ("b", "a")), {"a": -1, "b": 1})
    with pytest.raises(InvalidPosetError):
        LabeledPoset(("a",), (), {"a": 0})
    with pytest.raises(InvalidPosetError):
        LabeledPoset(("a", "b"), (), {"a": 1, "b": 1})
    with pytest.raises(InvalidPosetError):
        LabeledPoset(("a",), (("a", "z"),), {"a": 1})
    with pytest.raises(InvalidPosetError):
        # covers must form the transitive reduction
        LabeledPoset(
            ("a", "b", "c"),
            (("a", "b"), ("b", "c"), ("a", "c")),
            {"a": -1, "b": 1, "c": -2},
        )


def reach_set_violation(elements, covers):
    """The first cover, in the poset's cover order, whose upper end another
    upper cover of its lower end reaches; "cycle" when some element reaches
    itself; None when the covers form a Hasse diagram."""
    reach = {e: {y for x, y in covers if x == e} for e in elements}
    for _ in elements:
        for e in elements:
            reach[e] = reach[e].union(*(reach[f] for f in reach[e]))
    if any(e in reach[e] for e in elements):
        return "cycle"
    index = {e: i for i, e in enumerate(elements)}
    for x, y in sorted(set(covers), key=lambda c: (index[c[0]], index[c[1]])):
        if any(y in reach[z] for x2, z in covers if x2 == x and z != y):
            return x, y
    return None


def test_reduction_error_matches_the_reach_set_rule():
    rng = random.Random(27)
    outcomes = Counter()
    for k in range(1, 5):
        slots = [(x, y) for x in range(k) for y in range(k) if x != y]
        for bits in range(1 << len(slots)):
            covers = [slot for i, slot in enumerate(slots) if bits >> i & 1]
            rng.shuffle(covers)
            elements = rng.sample(range(k), k)
            expected = reach_set_violation(elements, covers)
            outcomes[expected if expected in (None, "cycle") else "implied"] += 1
            if expected is None:
                LabeledPoset(elements, covers, {e: e + 1 for e in elements})
                continue
            with pytest.raises(InvalidPosetError) as info:
                LabeledPoset(elements, covers, {e: e + 1 for e in elements})
            if expected == "cycle":
                assert str(info.value) == "cover relation contains a cycle"
            else:
                x, y = expected
                assert str(info.value) == (
                    f"cover ({x!r}, {y!r}) is implied by transitivity; covers must form the Hasse diagram"
                )
    assert set(outcomes) == {None, "cycle", "implied"}


def test_sign_grading_fixtures():
    g = sign_grading(v_poset())
    assert g.r == 1
    assert g.epsilon == {("a", "c"): 1, ("b", "c"): 1}
    assert g.rho == {"a": 0, "b": 0, "c": 1}
    g3 = sign_grading(chain3())
    assert g3.r == 0
    assert g3.rho == {"a": 0, "b": 1, "c": 0}


def test_sign_grading_failure_has_witness():
    # a 2-chain next to an isolated point: chain sums 1 and 0 disagree
    P = LabeledPoset(("a", "b", "c"), (("a", "b"),), {"a": -1, "b": 1, "c": -2})
    with pytest.raises(NotSignGradedError) as info:
        sign_grading(P)
    assert len(info.value.witness) == 2


def sign_sum(P, chain):
    return sum(1 if P.labels[x] < P.labels[y] else -1 for x, y in zip(chain, chain[1:]))


def maximal_chains(P):
    """Every saturated chain from a minimal to a maximal element of P, by
    depth-first search over the covers."""
    up = {e: [y for x, y in P.covers if x == e] for e in P.elements}
    covered = {y for _, y in P.covers}
    stack = [(e,) for e in P.elements if e not in covered]
    while stack:
        chain = stack.pop()
        if up[chain[-1]]:
            stack.extend(chain + (f,) for f in up[chain[-1]])
        else:
            yield chain


def randomly_labeled_posets():
    """Every poset on range(n), 1 <= n <= 5, with i < j in each of its
    relations (407 of them), each with distinct nonzero labels drawn by a
    seeded generator."""
    rng = random.Random(25)
    for n in range(1, 6):
        slots = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for bits in range(1 << len(slots)):
            pairs = {slot for i, slot in enumerate(slots) if bits >> i & 1}
            if any((a, d) not in pairs for a, b in pairs for c, d in pairs if b == c):
                continue
            covers = [(a, b) for a, b in pairs if not any((a, c) in pairs and (c, b) in pairs for c in range(n))]
            yield LabeledPoset(range(n), covers, dict(enumerate(rng.sample([a for a in range(-9, 10) if a], n))))


def test_sign_grading_matches_the_maximal_chain_sums():
    failures = set()
    for P in randomly_labeled_posets():
        covers = P.covers
        chains = list(maximal_chains(P))
        sums = {sign_sum(P, chain) for chain in chains}
        if len(sums) == 1:
            g = sign_grading(P)
            assert g.r in sums
            assert g.epsilon == {(x, y): sign_sum(P, (x, y)) for x, y in covers}
            for chain in chains:
                for k, e in enumerate(chain):
                    assert g.rho[e] == sign_sum(P, chain[: k + 1])
            continue
        with pytest.raises(NotSignGradedError) as info:
            sign_grading(P)
        for chain in info.value.witness:
            assert chain[0] not in {y for _, y in covers}
            assert all(step in covers for step in zip(chain, chain[1:]))
        lo, hi = info.value.witness
        assert sign_sum(P, lo) != sign_sum(P, hi)
        failures.add("path-dependent" in str(info.value))
    # both ways to fail: two chains into one element, and maximal elements of unequal rank
    assert failures == {True, False}


def three_condition_canonical(P):
    """Sign-graded, every rank 0 or 1, rank 0 on negative labels and rank 1
    on positive ones, each condition checked on its own."""
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


def test_is_canonical_matches_the_three_condition_rule():
    corpus = list(randomly_labeled_posets())
    assert len(corpus) == 407
    verdicts = Counter()
    for P in corpus:
        expected = three_condition_canonical(P)
        assert is_canonical(P) == expected
        verdicts[expected] += 1
        if expected:
            assert orbit_degree(P) == len(P) - sign_grading(P).r - 1
        else:
            with pytest.raises(NotCanonicalError):
                orbit_degree(P)
    assert verdicts[True] and verdicts[False]


def test_is_canonical():
    assert is_canonical(v_poset())
    assert is_canonical(chain3())
    assert is_canonical(antichain(3))
    # positive label on a minimal element
    P = LabeledPoset(("a", "b", "c"), (("a", "c"), ("b", "c")), {"a": 2, "b": -1, "c": 1})
    assert not is_canonical(P)
    # decreasing chain has r = -1
    C = LabeledPoset(("a", "b"), (("a", "b"),), {"a": 1, "b": -1})
    assert not is_canonical(C)


def test_linear_extensions_match_a_filter_of_all_label_orders():
    samples = [P for size in (6, 7, 8) for P in sampled_canonical_posets(size, 3, seed=size * 7919)]
    for P in canonical_posets_up_to(5) + samples + list(randomly_labeled_posets()):
        places = [(P.labels[x], P.labels[y]) for x, y in P.covers]
        # the label orders come in lexicographic order, so the filter keeps it
        expected = [pi for pi in itertools.permutations(P.sorted_labels)
                    if all(pi.index(a) < pi.index(b) for a, b in places)]
        assert linear_extensions(P) == expected


def test_linear_extensions():
    assert set(linear_extensions(v_poset())) == {(-2, -1, 1), (-1, -2, 1)}
    assert linear_extensions(chain3()) == [(-1, 1, -2)]
    assert len(linear_extensions(antichain(3))) == 6
    assert is_linear_extension(v_poset(), (-1, -2, 1))
    assert not is_linear_extension(v_poset(), (-1, 1, -2))
    assert not is_linear_extension(v_poset(), (-1, -2))


def test_psi_x_poset_fixtures():
    V = v_poset()
    assert psi_x_poset(V, (-2, -1, 1), -1) == (-1, -2, 1)
    assert psi_x_poset(V, (-2, -1, 1), -2) == (-2, -1, 1)
    assert psi_x_poset(V, (-2, -1, 1), 1) == (-2, -1, 1)
    with pytest.raises(NotALinearExtensionError):
        psi_x_poset(V, (-1, 1, -2), -1)
    with pytest.raises(ValueError, match="2 is not a label of the poset"):
        psi_x_poset(V, (-2, -1, 1), 2)


def test_psi_x_poset_rejects_a_hop_that_breaks_a_cover():
    # not canonical: both ends of the cover a < b carry negative labels, so
    # the double ascent -1 hops in front of -2
    P = LabeledPoset(("a", "b"), (("a", "b"),), {"a": -2, "b": -1})
    with pytest.raises(BrokenInvariantError, match="left the extension set"):
        psi_x_poset(P, (-2, -1), -1)


def test_psi_x_poset_involution_and_commutation():
    for P in canonical_posets_up_to(4):
        letters = sorted(P.labels.values())
        for ext in linear_extensions(P):
            for x in letters:
                once = psi_x_poset(P, ext, x)
                assert is_linear_extension(P, once)
                assert psi_x_poset(P, once, x) == ext
            for x in letters:
                for y in letters:
                    assert psi_x_poset(P, psi_x_poset(P, ext, x), y) == psi_x_poset(
                        P, psi_x_poset(P, ext, y), x
                    )


def factorization_hop(pi, x):
    """The hop of x under 0-sentinels by the factorization route: a negative
    letter as in the TOP convention, a positive one mirrored, as -x in -pi."""
    if x < 0:
        return phi_prime_x_via_factorization(pi, x)
    return tuple(-a for a in phi_prime_x_via_factorization(tuple(-a for a in pi), -x))


def test_psi_x_poset_matches_the_factorization_route_on_mixed_sign_antichains():
    # every arrangement of an antichain's labels is a linear extension
    rng = random.Random(2024)
    for n in range(1, 7):
        for _ in range(3):
            labels = rng.sample([a for a in range(-9, 10) if a], n)
            P = LabeledPoset(range(n), (), dict(enumerate(labels)))
            for pi in itertools.permutations(labels):
                classes = classify(pi, Boundary.ZERO)
                for k, x in enumerate(pi):
                    image = psi_x_poset(P, pi, x)
                    assert image == factorization_hop(pi, x)
                    # under 0-sentinels exactly the double ascents and descents move
                    fixed = classes[k] in (LetterClass.PEAK, LetterClass.VALLEY)
                    assert (image == pi) == fixed


@pytest.mark.parametrize("size, seed", [(7, 1), (7, 4), (8, 1), (8, 3)])
def test_psi_x_poset_on_sampled_posets_of_sizes_7_and_8(size, seed):
    for P in sampled_canonical_posets(size, 3, seed=seed):
        letters = P.sorted_labels
        for ext in linear_extensions(P):
            row = [psi_x_poset(P, ext, x) for x in letters]
            for x, once in zip(letters, row):
                assert is_linear_extension(P, once)
                assert once == factorization_hop(ext, x)
                assert psi_x_poset(P, once, x) == ext
            for (i, x), (j, y) in itertools.combinations(enumerate(letters), 2):
                assert psi_x_poset(P, row[i], y) == psi_x_poset(P, row[j], x)


def poset_orbit(P, pi):
    """The orbit report of a linear extension, built as the wp suite and
    `permact poset --orbits` build it."""
    d = orbit_degree(P)
    return verified_orbit(sorted(orbit_members(pi, partial(psi_x_poset, P))), d, Boundary.ZERO)


def test_poset_orbit():
    V = v_poset()
    rep = poset_orbit(V, (-2, -1, 1))
    assert set(rep.members) == {(-2, -1, 1), (-1, -2, 1)}
    assert rep.rep == (-2, -1, 1)
    assert rep.descent_poly == (1, 1)
    assert poset_orbit(V, (-1, -2, 1)).members == rep.members
    bad = LabeledPoset(("a", "b"), (("a", "b"),), {"a": 1, "b": -1})
    with pytest.raises(NotCanonicalError):
        poset_orbit(bad, (1, -1))


def test_wp_polynomial_fixtures():
    wp = wp_polynomial(v_poset())
    assert wp.W == (1, 1)
    assert (wp.a, wp.r, wp.d) == ((1,), 1, 1)
    wp3 = wp_polynomial(chain3())
    assert wp3.W == (0, 1)
    assert (wp3.a, wp3.r, wp3.d) == ((0, 1), 0, 2)
    wp2 = wp_polynomial(antichain(2))
    assert wp2.W == (1, 1)
    assert (wp2.a, wp2.r, wp2.d) == ((1,), 0, 1)
    with pytest.raises(NotCanonicalError):
        wp_polynomial(LabeledPoset(("a", "b"), (("a", "b"),), {"a": 1, "b": -1}))


def test_wp_basis_coefficients_are_the_gamma_vector():
    sampled = [P for size in (6, 7) for P in sampled_canonical_posets(size, 20, seed=size * 7919)]
    for P in canonical_posets_up_to(5) + sampled:
        wpp = wp_polynomial(P)
        assert wpp.a == gamma_expand(wpp.W, wpp.d).gamma
        assert wpp.extensions == tuple(linear_extensions(P))


def test_wp_polynomial_grades_its_poset_once(monkeypatch):
    graded = []

    def counting_sign_grading(P):
        graded.append(P)
        return sign_grading(P)

    monkeypatch.setattr(posets, "sign_grading", counting_sign_grading)
    # r = 1 and r = 0: the first also grades its adjoined-top poset
    for P in (v_poset(), chain3()):
        graded.clear()
        wp_polynomial(P)
        assert sum(Q is P for Q in graded) == 1


def test_wp_json_keys():
    data = wp_polynomial(v_poset()).to_json_dict()
    assert set(data) == {"W", "a", "r", "d"}


def test_adjoin_top():
    Q = adjoin_top(v_poset())
    assert is_canonical(Q)
    assert Q.labels["top"] == -3
    flat = adjoin_top(antichain(2))
    assert is_canonical(flat)
    assert flat.labels["top"] == 1
    bad = LabeledPoset(
        ("a", "b", "c"), (("a", "c"), ("b", "c")), {"a": -2, "b": -1, "c": -3}
    )
    with pytest.raises(CannotCanonicalizeError):
        adjoin_top(bad)


def test_corpus_counts():
    sizes = [len(canonical_posets(k)) for k in range(1, 6)]
    # counts of canonically labelable posets on exactly k points
    assert sizes == [1, 2, 4, 11, 34]


def test_corpus_is_pinned():
    """The posets, their labelings and their order, as first recorded."""
    corpus = json.dumps([P.to_json_dict() for P in canonical_posets_up_to(5)], sort_keys=True)
    assert hashlib.sha256(corpus.encode()).hexdigest() == (
        "48415bf3e5f1125b0f59de16e61a165504d138e64450ed6df6da512d4ccac2d4"
    )


@pytest.mark.parametrize("size, sha256", [
    (7, "0ee795ec2ece61a833f51eee7e8198a78dcd5297d47745d1a72895ef5aab952f"),
    (8, "92e871bc60f9d5ee50ee9fa1734e04385503776517050eb723be0a492ed09def"),
])
def test_sampled_corpus_is_pinned(size, sha256):
    """The sampled posets of the wp suite's seed, as the fixpoint closure
    and cover reduction first gave them."""
    sample = sampled_canonical_posets(size, 20, seed=size * 7919)
    text = json.dumps([P.to_json_dict() for P in sample], sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == sha256


def fixpoint_hasse(size, pairs):
    """The closure's pair count and the covers, by closing under composition
    until nothing changes and then dropping every pair with a point between."""
    closure = set(pairs)
    while True:
        new = {(a, d) for a, b in closure for c, d in closure if b == c} - closure
        if not new:
            break
        closure |= new
    covers = sorted(
        (a, b) for a, b in closure
        if not any((a, c) in closure and (c, b) in closure for c in range(size))
    )
    return len(closure), covers


def test_hasse_matches_the_fixpoint_closure_and_reduction():
    for size in range(6):
        slots = list(itertools.combinations(range(size), 2))
        for bits in range(1 << len(slots)):
            pairs = [slot for i, slot in enumerate(slots) if bits >> i & 1]
            assert _hasse(size, pairs) == fixpoint_hasse(size, pairs)


def test_corpus_members_are_canonical():
    for P in canonical_posets_up_to(4):
        assert is_canonical(P)
        sign_grading(P)


def test_sampled_corpus_is_deterministic():
    a = [P.to_json_dict() for P in sampled_canonical_posets(6, 5, seed=11)]
    b = [P.to_json_dict() for P in sampled_canonical_posets(6, 5, seed=11)]
    assert a == b
    for P in sampled_canonical_posets(6, 5, seed=11):
        assert is_canonical(P)


def test_labeled_poset_json_round_trip():
    for P in (v_poset(), chain3(), antichain(3)):
        Q = LabeledPoset.from_json_dict(P.to_json_dict())
        assert Q.elements == P.elements
        assert Q.covers == P.covers
        assert Q.labels == P.labels
