"""The fast kernels against the tree, recursion and factorization routes
they replace."""

import itertools
from math import comb

import pytest

from permact.action import (
    orbit,
    orbit_closure,
    orbit_members,
    phi_prime_x,
    phi_prime_x_via_factorization,
)
from permact.mahonian import ev_set, increasing_tree
from permact.stacksort import r_sortable_classes, sort_depth, stack_sort
from permact.trees import (
    label_heights,
    redge_set,
    right_edge_depths,
    right_edges_via_tree,
    unordered_tree,
    veh,
)
from permact.words import (
    Boundary,
    LetterClass,
    all_permutations,
    classify,
    descent_poly,
    double_ascent,
    double_descent,
    peak,
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


@pytest.mark.parametrize("n", range(8))
@pytest.mark.parametrize("boundary, letters", [
    (Boundary.TOP, lambda n: range(1, n + 1)),
    (Boundary.ZERO, lambda n: range(-n, 0)),
    (Boundary.ZERO, mixed_sign_letters),
], ids=["top", "zero-negative", "zero-mixed"])
def test_hop_and_class_counts_match_classify_routes(n, boundary, letters):
    for w in itertools.permutations(letters(n)):
        for x in w:
            assert phi_prime_x(w, x, boundary) == phi_prime_x_via_factorization(w, x, boundary)
        classes = classify(w, boundary)
        for count, cls in CLASS_COUNTS:
            assert count(w, boundary) == classes.count(cls)


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
        assert descent_poly(members).coeffs_list() == [0] * k + [comb(m, i) for i in range(m + 1)]

    check()
