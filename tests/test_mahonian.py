import pytest

from permact.mahonian import ev_set, increasing_tree, siveh, theta, theta_recursive, veh_prime
from permact.trees import label_heights
from permact.words import all_permutations, des, descent_set, maj

W2 = (5, 8, 6, 3, 1, 7, 4, 9, 2)


def test_increasing_tree_fixture():
    heights = label_heights(increasing_tree(W2))
    assert heights == {0: 0, 1: 1, 2: 1, 3: 2, 4: 2, 9: 2, 5: 3, 6: 3, 7: 3, 8: 4}
    evens = {i + 1 for i, a in enumerate(W2) if heights[a] % 2 == 0}
    assert evens == {2, 4, 7, 8}


def test_ev_fixtures():
    assert ev_set(W2) == frozenset({2, 4, 7, 8})
    assert veh_prime(W2) == 4
    assert siveh(W2) == 21
    for n in range(1, 7):
        for w in all_permutations(n):
            assert veh_prime(w) == len(ev_set(w))
            assert siveh(w) == sum(ev_set(w))


def test_theta_fixture():
    assert theta(W2) == (6, 3, 5, 8, 1, 9, 7, 4, 2)


def test_theta_translates_descents_to_even_vertices():
    assert ev_set(theta(W2)) == descent_set(W2) == {2, 3, 4, 6, 8}
    for n in range(1, 7):
        for w in all_permutations(n):
            assert ev_set(theta(w)) == descent_set(w)


def test_theta_is_a_bijection():
    for n in range(1, 7):
        n_words = list(all_permutations(n))
        assert len({theta(w) for w in n_words}) == len(n_words)


def test_joint_distribution_matches_descent_major():
    for n in range(1, 7):
        for w in all_permutations(n):
            assert veh_prime(theta(w)) == des(w)
            assert siveh(theta(w)) == maj(w)


def test_iterative_theta_matches_the_recursion():
    for n in range(8):
        for w in all_permutations(n):
            assert theta(w) == theta_recursive(w)


def test_iterative_theta_matches_the_recursion_on_random_words():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    # negative and gapped letters: theta only compares them
    letters = st.integers(-10**6, 10**6).filter(bool)

    @hypothesis.settings(max_examples=300, deadline=None, database=None)
    @hypothesis.given(st.lists(letters, unique=True, max_size=12).map(tuple))
    def check(w):
        assert theta(w) == theta_recursive(w)

    check()
