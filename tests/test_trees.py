import pytest

from permact.action import phi_prime_x, phi_x
from permact.stacksort import stack_sort
from permact.trees import (
    MalformedPathError,
    Not231AvoidingError,
    UnorderedTree,
    all_dyck_paths,
    binary_tree,
    dyck_path,
    edge_masks,
    hop_product,
    kreweras_stats,
    label_heights,
    postorder,
    psi_prime_recursive,
    right_edges_via_tree,
    unordered_tree,
    veh,
)
from permact.words import all_permutations, descent_set, des
from permact.patterns import avoiding_permutations

W1 = (6, 5, 2, 4, 1, 9, 7, 3, 8)

CATALAN = [1, 1, 2, 5, 14, 42, 132, 429, 1430]


def inorder(node):
    """The labels of a binary tree in order: left subtree, root, right subtree."""
    return () if node is None else (*inorder(node.left), node.label, *inorder(node.right))


def test_binary_tree_round_trip():
    for n in range(1, 7):
        for w in all_permutations(n):
            root = binary_tree(w)
            assert inorder(root) == w
            assert postorder(root) == stack_sort(w)


def mask(letters):
    return sum(1 << x for x in letters)


def psi(w):
    """The phi_x product at the odd mask."""
    return hop_product(w, edge_masks(w)[0], phi_x)


def phi_cap(w):
    """The phi_x product at the right-edge mask."""
    return hop_product(w, edge_masks(w)[1], phi_x)


def psi_prime(w):
    """The phi_prime_x product at the odd mask."""
    return hop_product(w, edge_masks(w)[0], phi_prime_x)


def test_right_edge_depths_fixture():
    depths, _ = right_edges_via_tree(W1)
    assert depths == {
        9: 0, 6: 0, 5: 1, 4: 2, 2: 2, 1: 3, 8: 1, 7: 1, 3: 2,
    }
    assert edge_masks(W1)[0] == mask({1, 5, 7, 8})


def test_redge_set_counts_descents():
    assert right_edges_via_tree(W1)[1] == frozenset({1, 3, 4, 5, 8})
    assert edge_masks(W1)[1] == mask({1, 3, 4, 5, 8})
    assert right_edges_via_tree((3, 2, 1))[1] == frozenset({1, 2})
    assert edge_masks((3, 2, 1))[1] == mask({1, 2})
    for n in range(1, 7):
        for w in all_permutations(n):
            assert len(right_edges_via_tree(w)[1]) == des(w)
            assert edge_masks(w)[1].bit_count() == des(w)


def test_unordered_tree_heights_fixture():
    heights = label_heights(unordered_tree(W1))
    assert heights == {6: 1, 5: 2, 2: 3, 4: 3, 1: 4, 9: 1, 7: 2, 3: 3, 8: 2}
    assert {x for x, h in heights.items() if h % 2 == 0} == {1, 5, 7, 8}
    assert veh(W1) == 4


def test_veh_small():
    assert veh((1,)) == 0
    assert veh((2, 1)) == 1
    for n in range(1, 7):
        for w in all_permutations(n):
            assert veh(w) == edge_masks(w)[0].bit_count()


def test_psi_phi_cap_are_inverse():
    assert psi((3, 1, 2)) == (3, 2, 1)
    assert phi_cap((3, 2, 1)) == (3, 1, 2)
    for n in range(1, 6):
        for w in all_permutations(n):
            assert phi_cap(psi(w)) == w
            assert psi(phi_cap(w)) == w
            assert edge_masks(w)[0] == edge_masks(psi(w))[1]
            assert edge_masks(w)[1] == edge_masks(phi_cap(w))[0]


def test_psi_prime_matches_recursive():
    assert psi_prime((3, 1, 2)) == (3, 2, 1)
    for n in range(1, 6):
        seen = set()
        for w in all_permutations(n):
            v = psi_prime(w)
            assert v == psi_prime_recursive(w)
            assert des(v) == veh(w)
            seen.add(v)
        assert len(seen) == len(list(all_permutations(n)))


def test_dyck_path_fixture():
    assert dyck_path((2, 1, 3)) == "uduudd"
    assert dyck_path((1,)) == "ud"
    with pytest.raises(Not231AvoidingError):
        dyck_path((2, 3, 1))


def test_dyck_path_is_a_bijection():
    for n in range(1, 7):
        image = sorted(dyck_path(w) for w in avoiding_permutations(n))
        assert image == sorted(all_dyck_paths(n))
        assert len(image) == CATALAN[n]


def test_kreweras_stats_fixtures():
    assert kreweras_stats("uduudd") == (1, 1)
    assert kreweras_stats("ududud") == (0, 0)
    assert kreweras_stats("uuuddd") == (1, 2)


@pytest.mark.parametrize("path", ["udx", "uuddu", "du", "uudddu", "u"])
def test_kreweras_stats_rejects_malformed(path):
    with pytest.raises(MalformedPathError):
        kreweras_stats(path)


def test_path_statistics_translate():
    for n in range(1, 6):
        for w in avoiding_permutations(n):
            even_up, double_up = kreweras_stats(dyck_path(w))
            assert even_up == veh(w)
            assert double_up == des(w)


def test_path_statistics_equidistributed():
    for n in range(1, 7):
        dist_even: dict[int, int] = {}
        dist_double: dict[int, int] = {}
        for p in all_dyck_paths(n):
            even_up, double_up = kreweras_stats(p)
            dist_even[even_up] = dist_even.get(even_up, 0) + 1
            dist_double[double_up] = dist_double.get(double_up, 0) + 1
        assert dist_even == dist_double


def test_unordered_tree_nodes_get_their_own_children():
    a, b = UnorderedTree(1), UnorderedTree(2)
    assert a.children is not b.children
    a.children.append(b)
    assert UnorderedTree(3).children == []


def _on_permutations(check):
    """Run check on hypothesis-drawn permutations of 1..n for n <= 10."""
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    words = st.integers(0, 10).flatmap(lambda n: st.permutations(range(1, n + 1))).map(tuple)
    hypothesis.settings(max_examples=200, deadline=None, database=None)(
        hypothesis.given(words)(check)
    )()


def test_binary_tree_readouts_on_random_permutations():
    def check(w):
        root = binary_tree(w)
        assert inorder(root) == w
        assert postorder(root) == stack_sort(w)

    _on_permutations(check)


def test_edge_masks_match_the_tree_on_random_permutations():
    def check(w):
        depths, right = right_edges_via_tree(w)
        odd = sum(1 << x for x, r in depths.items() if r % 2)
        assert edge_masks(w) == (odd, sum(1 << x for x in right))

    _on_permutations(check)


def test_veh_counts_even_heights_on_random_permutations():
    def check(w):
        heights = label_heights(unordered_tree(w))
        assert veh(w) == sum(h % 2 == 0 for h in heights.values())

    _on_permutations(check)
