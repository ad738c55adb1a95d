"""The fast kernels against the tree, recursion and factorization routes
they replace."""

import itertools
import random
import sys
import tracemalloc
from collections import Counter
from math import comb, inf

import pytest

from permact.action import (
    double_ascent_letters,
    orbit,
    orbit_closure,
    orbit_members,
    orbit_reps,
    orbits,
    phi_prime_x,
    phi_prime_x_via_factorization,
    phi_x,
    phi_x_via_factorization,
)
from permact.harness import _after_masks
from permact.limits import DEFAULT_MAX_N, enumeration_bound
from permact.mahonian import ev_set, increasing_tree, joint_distributions, joint_distributions_via_sets
from permact.patterns import (
    apq_polynomial,
    avoiders,
    avoiding_permutations,
    avoids_231,
    bni_polynomial,
    pattern_pair,
    pattern_pair_via_runs,
    pattern_tally,
    pattern_tally_via_runs,
)
from permact.polynomials import IntPolynomial
from permact.stacksort import (
    NotADescentError,
    r_sortable_classes,
    slide_r,
    sort_depth,
    stack_sort,
    stack_sort_via_slides,
)
from permact.trees import (
    binary_tree,
    dyck_path,
    dyck_path_via_tree,
    edge_masks,
    hop_product,
    label_heights,
    odd_set,
    phi_cap,
    postorder,
    psi,
    redge_set,
    right_edge_depths,
    right_edges_via_tree,
    unordered_tree,
    veh,
    word_of,
)
from permact.words import (
    Boundary,
    LetterClass,
    all_permutations,
    classify,
    dec_subseq_altsum,
    dec_subseq_counts,
    des,
    descent_poly,
    double_ascent,
    double_descent,
    maj,
    pair_columns,
    peak,
    shape,
    sliced_tally,
    stat_bits,
    transfer,
    valley,
)


def recursive_stack_sort(w):
    """S(L m R) = S(L) S(R) m, straight from the definition."""
    if len(w) <= 1:
        return w
    k = w.index(max(w))
    return recursive_stack_sort(w[:k]) + recursive_stack_sort(w[k + 1 :]) + (w[k],)


def assert_routes_agree(w):
    assert stack_sort(w) == recursive_stack_sort(w)
    depths, right = right_edges_via_tree(w)
    assert right_edge_depths(w) == depths
    assert redge_set(w) == right
    heights = label_heights(unordered_tree(w))
    assert veh(w) == sum(1 for h in heights.values() if h % 2 == 0)
    inc = label_heights(increasing_tree(w))
    assert ev_set(w) == {i + 1 for i, a in enumerate(w) if inc[a] % 2 == 0}


@pytest.mark.parametrize("n", range(8))
def test_kernels_match_tree_routes(n):
    for w in all_permutations(n):
        assert_routes_agree(w)


@pytest.mark.parametrize("n", range(8))
def test_memoised_depths_match_sort_depth(n):
    classes = r_sortable_classes(n)
    assert list(classes) == list(all_permutations(n))
    for w, depth in classes.items():
        assert depth == sort_depth(w)


def test_kernels_match_tree_routes_on_random_words():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    letters = st.integers(-10**6, 10**6).filter(bool)

    @hypothesis.settings(max_examples=300, deadline=None, database=None)
    @hypothesis.given(st.lists(letters, unique=True, max_size=40).map(tuple))
    def check(w):
        assert_routes_agree(w)

    check()


def mixed_sign_letters(n):
    """n distinct nonzero letters, about half of them negative."""
    return [a for a in range(-(n // 2), n - n // 2 + 1) if a]


CLASS_COUNTS = [
    (peak, LetterClass.PEAK),
    (valley, LetterClass.VALLEY),
    (double_ascent, LetterClass.DOUBLE_ASCENT),
    (double_descent, LetterClass.DOUBLE_DESCENT),
]


def classes_from_padded_word(w, boundary):
    """The class of each letter of w, read between explicit end letters:
    max(w) + 1 under TOP, 0 under ZERO."""
    s = 0 if boundary is Boundary.ZERO else max(w, default=0) + 1
    padded = (s, *w, s)
    return tuple(
        LetterClass.VALLEY if a > b < c else
        LetterClass.PEAK if a < b > c else
        LetterClass.DOUBLE_ASCENT if a < b < c else
        LetterClass.DOUBLE_DESCENT
        for a, b, c in zip(padded, padded[1:], padded[2:])
    )


HUGE = 10**18
LETTER_FAMILIES = [
    lambda n: range(1, n + 1),
    lambda n: range(-n, 0),
    mixed_sign_letters,
    lambda n: range(5, 7 * n + 5, 7),
]
LETTER_FAMILY_IDS = ["permutations", "negative", "mixed-sign", "gapped"]


@pytest.mark.parametrize("n", range(8))
@pytest.mark.parametrize("boundary, letters", [
    (Boundary.TOP, lambda n: range(1, n + 1)),
    (Boundary.ZERO, lambda n: range(-n, 0)),
    (Boundary.ZERO, mixed_sign_letters),
    (Boundary.TOP, lambda n: [HUGE + k for k in range(n)]),
    (Boundary.TOP, lambda n: [(-1) ** k * (HUGE - k) for k in range(n)]),
    (Boundary.ZERO, lambda n: [-HUGE - k for k in range(n)]),
    (Boundary.ZERO, lambda n: [(-1) ** k * (HUGE - k) for k in range(n)]),
    (Boundary.ZERO, lambda n: range(1, n + 1)),
], ids=["top", "zero-negative", "zero-mixed", "top-huge", "top-huge-mixed",
        "zero-huge-negative", "zero-huge-mixed", "zero-positive"])
def test_hop_and_class_counts_match_classify_routes(n, boundary, letters):
    for w in itertools.permutations(letters(n)):
        # the hops compare as under TOP, which the ZERO sentinels match on
        # words of negative letters
        if boundary is Boundary.TOP or all(a < 0 for a in w):
            for x in w:
                assert phi_prime_x(w, x) == phi_prime_x_via_factorization(w, x)
        classes = classify(w, boundary)
        assert classes == classes_from_padded_word(w, boundary)
        for count, cls in CLASS_COUNTS:
            assert count(w, boundary) == classes.count(cls)
        assert shape(w, boundary) == (des(w), peak(w, boundary), double_descent(w, boundary))


def test_hops_and_orbits_on_random_words():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    letters = st.integers(-10**6, 10**6).filter(bool)

    @hypothesis.settings(max_examples=100, deadline=None, database=None)
    @hypothesis.given(st.lists(letters, unique=True, min_size=1, max_size=12).map(tuple))
    def check(w):
        hops = {x: phi_prime_x(w, x) for x in w}
        for x, h in hops.items():
            assert phi_prime_x(h, x) == w
            for y in w:
                assert phi_prime_x(hops[y], x) == phi_prime_x(h, y)
        members = orbit_closure(w, phi_prime_x)
        assert orbit_members(w, phi_prime_x) == members
        report = orbit(w)
        k, m = report.peak, len(w) - 1 - 2 * report.peak
        assert descent_poly(members) == (0,) * k + tuple(comb(m, i) for i in range(m + 1))

    check()


ORBIT_COUNTS = [1, 1, 3, 9, 39, 189, 1107, 7281]  # n = 1..8


@pytest.mark.parametrize("n", range(1, 9))
def test_orbit_reps_are_the_double_descent_free_words(n):
    reps = list(orbit_reps(n))
    assert len(reps) == ORBIT_COUNTS[n - 1]
    # the depth-first walk keeps lex order and reads off each word's moving letters
    assert [w for w, _ in reps] == [w for w in all_permutations(n) if double_descent(w) == 0]
    for w, letters in reps:
        assert list(letters) == double_ascent_letters(w)
    if n <= 7:
        walked = list(orbits(all_permutations(n), phi_prime_x))
        assert len(walked) == len(reps)
        built = {orbit_members(w, phi_prime_x, letters) for w, letters in reps}
        assert built == set(walked)


def test_orbit_reps_below_two_letters():
    assert list(orbit_reps(0)) == [((), ())]
    assert list(orbit_reps(1)) == [((1,), ())]


def test_orbit_reps_hold_no_level_of_prefixes():
    # a breadth-first search holds a whole level of prefixes: 22.5 MiB at n = 9
    tracemalloc.start()
    try:
        count = sum(1 for _ in orbit_reps(9))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == 54351
    assert peak < 1 << 20


@pytest.mark.parametrize("n", range(9))
def test_run_based_counts_match_the_scans(n):
    for w in all_permutations(n):
        assert pattern_pair(w) == pattern_pair_via_runs(w)


def brute_2_31(w):
    """i < j < k with k = j + 1 and w_k < w_i < w_j, straight from the pattern."""
    n = len(w)
    return sum(
        1
        for i in range(n)
        for j in range(i + 1, n)
        for k in range(j + 1, n)
        if k == j + 1 and w[k] < w[i] < w[j]
    )


def brute_13_2(w):
    """i < j < k with j = i + 1 and w_i < w_k < w_j."""
    n = len(w)
    return sum(
        1
        for i in range(n)
        for j in range(i + 1, n)
        for k in range(j + 1, n)
        if j == i + 1 and w[i] < w[k] < w[j]
    )


def assert_pattern_routes_agree(w):
    assert pattern_pair(w) == pattern_pair_via_runs(w) == (brute_13_2(w), brute_2_31(w))


@pytest.mark.parametrize("n", range(8))
@pytest.mark.parametrize("letters", LETTER_FAMILIES, ids=LETTER_FAMILY_IDS)
def test_pattern_scans_match_brute_force_and_runs(n, letters):
    for w in itertools.permutations(letters(n)):
        assert_pattern_routes_agree(w)


def test_pattern_scans_on_long_words():
    rng = random.Random(1500)
    for letters in (range(1, 1501), range(-750, 751), range(10**18, 10**18 + 3 * 1500, 3)):
        w = [a for a in letters if a]
        rng.shuffle(w)
        w = tuple(w)
        assert pattern_pair(w) == pattern_pair_via_runs(w)
    for w in (tuple(range(1, 1501)), tuple(range(1500, 0, -1))):
        assert pattern_pair(w) == (0, 0)


def test_pattern_scans_on_random_words():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    letters = st.integers(-10**12, 10**12).filter(bool)

    @hypothesis.settings(max_examples=300, deadline=None, database=None)
    @hypothesis.given(st.lists(letters, unique=True, max_size=30).map(tuple))
    def check(w):
        assert_pattern_routes_agree(w)

    check()


def definitional_tally(n):
    """(peak, 13-2, 2-31, des) per word, with peaks from classify and the
    patterns from the triple loops."""
    return Counter(
        (classify(w).count(LetterClass.PEAK), brute_13_2(w), brute_2_31(w), des(w))
        for w in all_permutations(n)
    )


@pytest.mark.parametrize("n", range(1, 7))
def test_shared_tables_match_definitional_counters(n):
    tally = definitional_tally(n)
    assert pattern_tally(n) == tally
    apq = Counter()
    for (_, a, b, d), cnt in tally.items():
        apq[a, b, d] += cnt
    assert apq_polynomial(n) == IntPolynomial(("p", "q", "t"), apq)
    for i in range((n - 1) // 2 + 1):
        scale = 2 ** (n - 1 - 2 * i)
        by_pattern = Counter()
        for (k, a, b, _), cnt in tally.items():
            if k == i:
                by_pattern[a, b] += cnt
        assert all(cnt % scale == 0 for cnt in by_pattern.values())
        expected = {ab: cnt // scale for ab, cnt in by_pattern.items()}
        assert bni_polynomial(n, i) == IntPolynomial(("p", "q"), expected)


SIGNED_LETTERS = [
    lambda n: range(1, n + 1),
    lambda n: range(-n, 0),
    mixed_sign_letters,
]
SIGNED_IDS = ["permutations", "negative", "mixed-sign"]
LONG_WORDS = [tuple(range(1, 1501)), tuple(range(1500, 0, -1))]


@pytest.mark.parametrize("n", range(8))
@pytest.mark.parametrize("letters", SIGNED_LETTERS, ids=SIGNED_IDS)
def test_block_swap_matches_factorization(n, letters):
    for w in itertools.permutations(letters(n)):
        for x in w:
            assert phi_x(w, x) == phi_x_via_factorization(w, x)


def test_block_swap_matches_factorization_on_random_words():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    letters = st.integers(-10**6, 10**6).filter(bool)

    @hypothesis.settings(max_examples=300, deadline=None, database=None)
    @hypothesis.given(st.lists(letters, unique=True, max_size=40).map(tuple))
    def check(w):
        for x in w:
            assert phi_x(w, x) == phi_x_via_factorization(w, x)

    check()


def first_gap_slide(w, i):
    """Take w_i out and try every gap to its right, nearest first, until one
    has a smaller letter on its left and a larger one (or the end) on its
    right."""
    x = w[i - 1]
    rest = w[: i - 1] + w[i:]
    for m in range(i, len(rest) + 1):
        right = rest[m] if m < len(rest) else inf
        if rest[m - 1] < x < right:
            return rest[:m] + (x,) + rest[m:]
    raise AssertionError("no gap accepts the letter")


def slides_by_slide_r(w):
    """Compose slide_r at the tops of w's descents, leftmost first."""
    for x in [a for a, b in zip(w, w[1:]) if a > b]:
        w = slide_r(w, w.index(x) + 1)
    return w


@pytest.mark.parametrize("n", range(8))
@pytest.mark.parametrize("letters", SIGNED_LETTERS, ids=SIGNED_IDS)
def test_slide_matches_first_gap_search(n, letters):
    for w in itertools.permutations(letters(n)):
        for i in range(-1, n + 2):
            if 1 <= i < n and w[i - 1] > w[i]:
                assert slide_r(w, i) == first_gap_slide(w, i)
            else:
                with pytest.raises(NotADescentError):
                    slide_r(w, i)
        assert stack_sort_via_slides(w) == slides_by_slide_r(w) == stack_sort(w)


@pytest.mark.parametrize("w", LONG_WORDS, ids=["increasing", "decreasing"])
def test_slides_on_long_words(w):
    assert stack_sort_via_slides(w) == slides_by_slide_r(w) == tuple(range(1, 1501))


@pytest.mark.parametrize("n", range(10))
def test_dyck_height_scan_matches_tree_walk(n):
    for w in avoiding_permutations(n):
        assert dyck_path(w) == dyck_path_via_tree(w)


@pytest.mark.parametrize("w", LONG_WORDS, ids=["increasing", "decreasing"])
def test_dyck_height_scan_on_long_words(w):
    assert dyck_path(w) == dyck_path_via_tree(w)


@pytest.mark.parametrize("n", range(8))
def test_one_pass_pattern_tally_matches_per_word_scans(n):
    per_word = Counter((peak(w), *pattern_pair(w), des(w)) for w in all_permutations(n))
    assert pattern_tally(n) == pattern_tally_via_runs(n) == per_word


@pytest.mark.parametrize("n", range(8))
def test_one_pass_euler_mahonian_scan_matches_ev_set_des_maj(n):
    lhs, rhs = Counter(), Counter()
    for w in all_permutations(n):
        ev = ev_set(w)
        lhs[len(ev), sum(ev)] += 1
        rhs[des(w), maj(w)] += 1
    assert joint_distributions(n) == joint_distributions_via_sets(n) == (lhs, rhs)


def inv_des_step(n):
    """A (seen letters, last letter) step for (inv, des): the next letter b
    adds the seen letters above it to inv."""
    bits = stat_bits(n)
    return lambda state, k: [((state[0] | 1 << b, b), (state[0] >> b + 1).bit_count() + ((state[1] > b) << bits))
                             for b in range(1, n + 1) if not state[0] >> b & 1]


@pytest.mark.parametrize("n", range(8))
def test_transfer_matches_a_per_word_tally(n):
    per_word = Counter(
        (sum(a > b for a, b in itertools.combinations(w, 2)), des(w)) for w in all_permutations(n)
    )
    assert transfer((0, 0), n, inv_des_step(n), 2) == per_word


@pytest.mark.parametrize("n", range(max(DEFAULT_MAX_N, enumeration_bound()) + 1))
def test_packed_key_fields_cannot_overflow(n):
    # every packed statistic (peak, des, maj, |EV|, EV sum, the two pattern
    # counts, inv) counts or sums positions, or counts pairs of positions
    assert n * (n + 1) // 2 < 1 << stat_bits(n)
    if n <= 7:
        tallies = [pattern_tally(n), *joint_distributions(n), transfer((0, 0), n, inv_des_step(n), 2)]
        assert max(max(key) for tally in tallies for key in tally) <= n * (n + 1) // 2


@pytest.mark.parametrize("n", range(1, 6))
def test_bit_sliced_gessel_tally_matches_per_permutation_popcounts(n):
    perms = list(all_permutations(n))
    pi_des = [des(pi) for pi in perms]
    after = _after_masks(perms, n)
    columns = pair_columns(after, n)
    classes = {}
    for k, d in enumerate(pi_des):
        classes[d] = classes.get(d, 0) | 1 << k
    for tau in perms:
        t = sum(1 << ((a - 1) * n + b - 1) for a, b in zip(tau, tau[1:]))
        per_pi = Counter(zip(pi_des, [(m & t).bit_count() for m in after]))
        rows = [columns[(a - 1) * n + b - 1] for a, b in zip(tau, tau[1:])]
        tally = sliced_tally(rows, classes, (1 << len(perms)) - 1)
        # a plain dict of positive counts, so gessel compares tallies as dicts
        assert type(tally) is dict and all(c > 0 for c in tally.values())
        assert tally == dict(per_pi)


@pytest.mark.parametrize("n", range(11))
def test_size_built_avoiders_match_recursive_split(n):
    built = list(avoiding_permutations(n))
    assert built == list(avoiders(range(1, n + 1)))
    assert len(set(built)) == comb(2 * n, n) // (n + 1)
    if n <= 7:
        assert sorted(built) == [w for w in all_permutations(n) if avoids_231(w)]


@pytest.mark.parametrize("n", range(8))
def test_edge_masks_and_swap_products_match_sets_psi_and_phi_cap(n):
    for w in all_permutations(n):
        odd, right = edge_masks(w)
        assert odd == sum(1 << x for x in odd_set(w))
        assert right == sum(1 << x for x in redge_set(w))
        assert hop_product(w, odd, phi_x) == psi(w)
        assert hop_product(w, right, phi_x) == phi_cap(w)


@pytest.mark.parametrize("n", range(8))
def test_dec_subseq_counts_match_brute_force(n):
    k_max = n + 1  # past the longest decreasing subsequence, so zeros too
    for w in all_permutations(n):
        brute = tuple(
            sum(1 for sub in itertools.combinations(w, i + 1) if all(a > b for a, b in zip(sub, sub[1:])))
            for i in range(1, k_max + 1)
        )
        assert dec_subseq_counts(w, k_max) == brute


def alternating_sum(w):
    return sum((-2) ** i * d for i, d in enumerate(dec_subseq_counts(w, max(1, len(w) - 1))))


@pytest.mark.parametrize("n", range(8))
@pytest.mark.parametrize("letters", LETTER_FAMILIES, ids=LETTER_FAMILY_IDS)
def test_dec_subseq_recurrence_matches_the_alternating_sum(n, letters):
    for w in itertools.permutations(letters(n)):
        assert dec_subseq_altsum(w) == alternating_sum(w)


def test_dec_subseq_recurrence_on_random_words():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    letters = st.integers(-10**12, 10**12).filter(bool)

    @hypothesis.settings(max_examples=300, deadline=None, database=None)
    @hypothesis.given(st.lists(letters, unique=True, max_size=12).map(tuple))
    def check(w):
        assert dec_subseq_altsum(w) == alternating_sum(w)

    check()


@pytest.mark.parametrize("w", LONG_WORDS, ids=["increasing", "decreasing"])
def test_tree_readouts_on_long_words(w):
    assert len(w) > sys.getrecursionlimit()
    tree = binary_tree(w)
    assert word_of(tree) == w
    assert postorder(tree) == stack_sort(w)
