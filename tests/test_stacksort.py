import pytest

from permact.stacksort import (
    enumerate_r_sortable,
    is_r_sortable,
    r_sortable_classes,
    sort_depth,
    stack_sort,
    stack_sort_via_slides,
)
from permact.words import all_permutations, identity

W0 = (5, 7, 3, 1, 4, 8, 9, 2, 6)


def test_stack_sort_fixtures():
    assert stack_sort(W0) == (5, 1, 3, 4, 7, 8, 2, 6, 9)
    assert stack_sort((2, 3, 1)) == (2, 1, 3)
    assert stack_sort((3, 1, 4, 2)) == (1, 3, 2, 4)
    assert stack_sort(identity(5)) == identity(5)
    assert stack_sort(()) == ()


def test_slides_reach_stack_sort():
    assert stack_sort_via_slides(W0) == (5, 1, 3, 4, 7, 8, 2, 6, 9)
    assert stack_sort_via_slides((3, 1, 4, 2)) == (1, 3, 2, 4)
    for n in range(1, 7):
        for w in all_permutations(n):
            assert stack_sort_via_slides(w) == stack_sort(w)


def test_sort_depth():
    assert sort_depth(identity(4)) == 0
    assert sort_depth((2, 1)) == 1
    assert sort_depth((3, 2, 1)) == 1
    assert sort_depth((2, 3, 1)) == 2
    for n in range(1, 7):
        for w in all_permutations(n):
            d = sort_depth(w)
            assert 0 <= d <= max(n - 1, 0)
            for r in range(n):
                assert is_r_sortable(w, r) == (d <= r)


def test_is_r_sortable_monotone():
    assert not is_r_sortable((2, 3, 1), 1)
    assert is_r_sortable((2, 3, 1), 2)
    for w in all_permutations(5):
        flags = [is_r_sortable(w, r) for r in range(5)]
        assert flags == sorted(flags)


@pytest.mark.parametrize(
    "n, r, count",
    [
        (4, 1, 14),
        (4, 2, 22),
        (4, 3, 24),
        (5, 1, 42),
        (5, 2, 91),
        (5, 4, 120),
    ],
)
def test_enumerate_r_sortable_counts(n, r, count):
    words = list(enumerate_r_sortable(n, r))
    assert len(words) == len(set(words)) == count


def test_r_sortable_classes_agrees_with_sort_depth():
    classes = r_sortable_classes(4)
    assert len(classes) == 24
    for w, depth in classes.items():
        assert depth == sort_depth(w)
