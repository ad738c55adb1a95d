import itertools

import pytest

from permact.polynomials import dense, q_factorial
from permact.words import (
    Boundary,
    LetterClass,
    all_permutations,
    classify,
    complement,
    dec_subseq_counts,
    des,
    descent_set,
    format_word,
    identity,
    involutions,
    is_permutation,
    maj,
    parse_word,
    perm_compose,
    perm_inverse,
)

W0 = (5, 7, 3, 1, 4, 8, 9, 2, 6)


@pytest.mark.parametrize("text", ["312", "3 1 2", "3,1,2", " 3, 1 ,2 "])
def test_parse_word_formats(text):
    assert parse_word(text) == (3, 1, 2)


def test_parse_word_signed():
    assert parse_word("-2 -1 1") == (-2, -1, 1)


@pytest.mark.parametrize("text", ["1 1", "0 1", "1 2 2", ""])
def test_parse_word_rejects(text):
    with pytest.raises(ValueError):
        parse_word(text)


def test_format_round_trip():
    assert format_word(W0) == "5 7 3 1 4 8 9 2 6"
    for w in all_permutations(5):
        assert parse_word(format_word(w)) == w


def test_identity_and_is_permutation():
    assert identity(4) == (1, 2, 3, 4)
    assert is_permutation((2, 1, 3))
    assert not is_permutation((2, 1, 4))
    assert not is_permutation((-1, 1))


def test_all_permutations_counts():
    for n in range(1, 7):
        seen = list(all_permutations(n))
        assert len(seen) == len(set(seen))
        assert len(seen) == len(list(itertools.permutations(range(1, n + 1))))


def test_inverse_and_compose():
    for w in all_permutations(4):
        assert perm_compose(w, perm_inverse(w)) == identity(4)
        assert perm_compose(perm_inverse(w), w) == identity(4)
    u, v = (2, 3, 1), (1, 3, 2)
    # (u o v)(i) = u(v(i))
    assert perm_compose(u, v) == (2, 1, 3)


def test_involutions_counts_and_property():
    # the telephone numbers: T(m) = T(m-1) + (m-1) T(m-2)
    telephone = [1, 1]
    for m in range(2, 13):
        telephone.append(telephone[-1] + (m - 1) * telephone[-2])
    assert telephone[1:8] == [1, 2, 4, 10, 26, 76, 232]
    for n in range(13):
        invs = list(involutions(n))
        assert len(invs) == len(set(invs)) == telephone[n]
    for n in (0, -1, -5):
        assert list(involutions(n)) == [()]
    for n in range(7):
        brute = [w for w in all_permutations(n) if perm_compose(w, w) == identity(n)]
        assert sorted(involutions(n)) == brute


def test_descent_statistics_fixture():
    assert descent_set(W0) == {2, 3, 7}
    assert des(W0) == 3
    assert maj(W0) == 12
    assert descent_set(identity(6)) == set()


def test_maj_generating_function_is_q_factorial():
    for n in range(1, 7):
        counts = {}
        for w in all_permutations(n):
            counts[maj(w)] = counts.get(maj(w), 0) + 1
        assert dense(counts) == q_factorial(n)


def test_classify_top_fixture():
    V, P = LetterClass.VALLEY, LetterClass.PEAK
    DA, DD = LetterClass.DOUBLE_ASCENT, LetterClass.DOUBLE_DESCENT
    assert classify(W0) == (V, P, DD, V, DA, DA, P, V, DA)


def test_classify_zero_boundary_signed():
    got = classify((-2, -1, 1), Boundary.ZERO)
    assert got == (
        LetterClass.VALLEY,
        LetterClass.DOUBLE_ASCENT,
        LetterClass.PEAK,
    )


def test_valley_peak_counts_by_boundary():
    # with high sentinels interior minima outnumber maxima by one;
    # with zero sentinels on positive words it is the other way round
    for n in range(1, 7):
        for w in all_permutations(n):
            tops = classify(w)
            zeros = classify(w, Boundary.ZERO)
            assert tops.count(LetterClass.VALLEY) == tops.count(LetterClass.PEAK) + 1
            assert zeros.count(LetterClass.PEAK) == zeros.count(LetterClass.VALLEY) + 1


def test_complement():
    assert complement((5, 7, 3, 1, 4, 8, 9, 2, 6)) == (5, 3, 7, 9, 6, 2, 1, 8, 4)
    for w in all_permutations(5):
        assert complement(complement(w)) == w
        assert des(complement(w)) == 4 - des(w)


def test_dec_subseq_counts():
    assert dec_subseq_counts((3, 2, 1), 2) == (3, 1)
    assert dec_subseq_counts((1, 2, 3), 2) == (0, 0)
    assert dec_subseq_counts((2, 1, 3), 2) == (1, 0)
    # length-2 decreasing subsequences are exactly inversions
    for w in all_permutations(5):
        inv = sum(
            1
            for i in range(5)
            for j in range(i + 1, 5)
            if w[i] > w[j]
        )
        assert dec_subseq_counts(w, 1)[0] == inv
