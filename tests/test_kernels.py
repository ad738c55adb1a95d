"""The stack-scan kernels against the tree and recursion routes they replace."""

import pytest

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
from permact.words import all_permutations


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
