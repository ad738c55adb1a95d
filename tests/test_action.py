import itertools
from collections import Counter
from functools import partial

import pytest

from permact.action import (
    HopTable,
    LetterNotPresentError,
    NonIntegralBError,
    class_polys,
    orbit,
    orbit_closure,
    orbit_members,
    orbits,
    phi_prime_full,
    phi_prime_x,
    phi_x,
    verified_orbit,
    x_factorization,
)
from permact.posets import canonical_posets, linear_extensions, psi_x_poset
from permact.words import Boundary, LetterClass, all_permutations, classify, des

W0 = (5, 7, 3, 1, 4, 8, 9, 2, 6)


def test_x_factorization_fixtures():
    assert x_factorization(W0, 8) == ((), (5, 7, 3, 1, 4), 8, (), (9, 2, 6))
    assert x_factorization(W0, 7) == ((), (5,), 7, (3, 1, 4), (8, 9, 2, 6))
    assert x_factorization(W0, 4) == ((5, 7), (3, 1), 4, (), (8, 9, 2, 6))
    assert x_factorization(W0, 2) == ((5, 7, 3, 1, 4, 8, 9), (), 2, (), (6,))
    with pytest.raises(LetterNotPresentError):
        x_factorization(W0, 10)


def test_phi_x_fixtures():
    assert phi_x(W0, 8) == (8, 5, 7, 3, 1, 4, 9, 2, 6)
    # valleys have both side blocks empty, so nothing moves
    assert phi_x(W0, 1) == W0


def test_phi_x_involution_and_commutation():
    for n in range(1, 6):
        for w in all_permutations(n):
            for x in range(1, n + 1):
                assert phi_x(phi_x(w, x), x) == w
            for x in range(1, n + 1):
                for y in range(1, n + 1):
                    assert phi_x(phi_x(w, x), y) == phi_x(phi_x(w, y), x)


def test_phi_prime_fixtures():
    # double ascents hop left, double descents hop right
    assert phi_prime_x(W0, 4) == (5, 7, 4, 3, 1, 8, 9, 2, 6)
    assert phi_prime_x(W0, 3) == (5, 7, 1, 3, 4, 8, 9, 2, 6)
    assert phi_prime_x(W0, 7) == W0
    assert phi_prime_x(W0, 5) == W0


def test_phi_prime_matches_phi_off_peaks():
    for n in range(1, 7):
        for w in all_permutations(n):
            classes = classify(w)
            for x in range(1, n + 1):
                cls = classes[w.index(x)]
                if cls is LetterClass.PEAK:
                    assert phi_prime_x(w, x) == w
                elif cls is LetterClass.VALLEY:
                    assert phi_prime_x(w, x) == w == phi_x(w, x)
                else:
                    assert phi_prime_x(w, x) == phi_x(w, x)


def test_subset_maps_compose():
    for letters in (range(1, 10), range(9, 0, -1)):
        full = W0
        for x in letters:
            full = phi_prime_x(full, x)
        assert phi_prime_full(W0) == full


def test_orbit_small():
    rep = orbit((2, 1))
    assert set(rep.members) == {(1, 2), (2, 1)}
    assert rep.rep == (1, 2)
    assert rep.peak == 0
    assert rep.descent_poly == (1, 1)
    assert rep.gamma_claim.gamma == (1,)


@pytest.mark.parametrize("n", range(1, 7))
def test_zero_boundary_orbits_of_negative_words_match_top(n):
    # every letter is below the 0 sentinel, so the two boundaries agree
    for w in itertools.permutations(range(-n, 0)):
        members = sorted(orbit_members(w, phi_prime_x))
        assert verified_orbit(members, n - 1, Boundary.ZERO) == verified_orbit(members, n - 1, Boundary.TOP)


def test_orbit_fixture_word():
    rep = orbit(W0)
    # two double ascents move freely on each side of each peak: 2^4 members
    assert len(rep.members) == 16
    assert rep.peak == 2
    assert rep.descent_poly == (0, 0, 1, 4, 6, 4, 1)  # t^2 (1+t)^4
    for member in rep.members:
        assert classify(member).count(LetterClass.PEAK) == 2
    assert all(
        cls is not LetterClass.DOUBLE_DESCENT for cls in classify(rep.rep)
    )


def test_orbit_members_closure():
    w = (1, 3, 2)
    assert orbit_members(w, phi_prime_x) == {(1, 3, 2)}
    closure = orbit_members(w, phi_x)
    assert closure >= {(1, 3, 2), (2, 3, 1)}
    for member in closure:
        for x in (1, 2, 3):
            assert phi_x(member, x) in closure


def closures_in_first_seen_order(seeds, hop):
    """The search closure of every seed not in an earlier closure."""
    out, seen = [], set()
    for w in seeds:
        if w not in seen:
            out.append(orbit_closure(w, hop))
            seen |= out[-1]
    return out


@pytest.mark.parametrize("n", range(1, 8))
def test_orbits_partition_the_symmetric_group(n):
    seeds = list(all_permutations(n))
    parts = list(orbits(seeds, phi_prime_x))
    assert parts == closures_in_first_seen_order(seeds, phi_prime_x)
    assert sum(map(len, parts)) == len(seeds)


def test_orbits_partition_poset_linear_extensions():
    for size in range(1, 6):
        for P in canonical_posets(size):
            exts = linear_extensions(P)
            hop = partial(psi_x_poset, P)
            parts = list(orbits(exts, hop))
            assert parts == closures_in_first_seen_order(exts, hop)
            assert sum(map(len, parts)) == len(exts)


def test_orbits_that_overlap_raise():
    def sort_letters(w, x):
        """Not an involution: every word hops to its sorted form."""
        return tuple(sorted(w))

    parts = orbits([(1, 2), (2, 1)], sort_letters)
    assert next(parts) == {(1, 2)}
    with pytest.raises(RuntimeError, match="not disjoint"):
        next(parts)


BITS = list(itertools.product((0, 1), repeat=3))


def flip(w, x):
    """Commuting involutions on bit words: hop x flips bit x."""
    return w[: x - 1] + (1 - w[x - 1],) + w[x:]


def test_hop_table_passes_commuting_involutions_and_hops_each_pair_once():
    calls = Counter()

    def hop(w, x):
        calls[w, x] += 1
        return flip(w, x)

    table = HopTable(BITS, (1, 2, 3), hop)
    assert all(table.first_failure(w) is None for w in BITS)
    assert table[(0, 1, 1)] == ((1, 1, 1), (0, 0, 1), (0, 1, 0))
    assert sorted(calls) == sorted(itertools.product(BITS, (1, 2, 3)))
    assert set(calls.values()) == {1}


def test_hop_table_names_the_first_letter_that_is_not_an_involution():
    # hops 2 and 3 set their bit instead of flipping it
    table = HopTable(BITS, (1, 2, 3), lambda w, x: flip(w, x) if x == 1 else w[: x - 1] + (1,) + w[x:])
    assert table.first_failure((0, 0, 0)) == {"x": 2}
    assert table.first_failure((0, 1, 0)) == {"x": 3}
    assert table.first_failure((0, 1, 1)) is None


def test_hop_table_names_the_first_pair_that_does_not_commute():
    # hop 1 fixes every word; hops 2 and 3 are the transpositions of
    # positions (1, 2) and (2, 3), involutions that do not commute
    def hop(w, x):
        i = x - 2
        return w if x == 1 else w[:i] + (w[i + 1], w[i]) + w[i + 2 :]

    table = HopTable(all_permutations(3), (1, 2, 3), hop)
    assert table.first_failure((1, 2, 3)) == {"x": 2, "y": 3}


def test_hop_table_fills_the_row_of_an_image_outside_the_seeds():
    seed = (0, 0, 0)
    table = HopTable([seed], (1, 2, 3), flip)
    assert table.first_failure(seed) is None
    assert set(table) == {seed, (1, 0, 0), (0, 1, 0), (0, 0, 1)}
    assert table[(1, 1, 1)][0] == (0, 1, 1)
    # every image equal to the seed is the seed's one copy
    assert all(table[h][i] is seed for i, h in enumerate(table[seed]))


def test_class_polys_full_symmetric_group():
    cp = class_polys(all_permutations(3))
    assert cp.b == (1, 2)
    counts = [0, 0, 0]
    for w in all_permutations(3):
        counts[des(w)] += 1
    assert cp.W == tuple(counts)


def test_class_polys_single_orbit():
    rep = orbit(W0)
    cp = class_polys(rep.members)
    assert cp.W == rep.descent_poly


def test_class_polys_rejects_non_invariant_input():
    with pytest.raises((NonIntegralBError, ValueError)):
        class_polys([(1, 2)])
