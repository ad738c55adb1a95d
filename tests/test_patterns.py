import pytest

from permact import patterns
from permact.cli import main
from permact.patterns import (
    apq_polynomial,
    avoiders,
    avoiding_permutations,
    avoids_231,
    bni_polynomial,
    check_divisibility,
    check_mahonian,
    check_pq_symmetry,
    narayana,
    pattern_pair,
    pattern_pair_via_runs,
    pattern_tally,
)
from permact.polynomials import IntPolynomial
from permact.words import all_permutations

W0 = (5, 7, 3, 1, 4, 8, 9, 2, 6)

CATALAN = [1, 1, 2, 5, 14, 42, 132, 429, 1430]


def brute_2_31(w):
    n = len(w)
    return sum(
        1
        for i in range(n)
        for j in range(i + 1, n - 1)
        if w[j] > w[i] > w[j + 1]
    )


def brute_13_2(w):
    n = len(w)
    return sum(
        1
        for i in range(n - 1)
        for j in range(i + 2, n)
        if w[i] < w[j] < w[i + 1]
    )


def test_pattern_count_fixtures():
    assert pattern_pair((2, 3, 1)) == (0, 1)
    assert pattern_pair((1, 3, 2)) == (1, 0)
    assert pattern_pair(W0) == (3, 6)


def test_pattern_counts_match_brute_force():
    for n in range(1, 7):
        for w in all_permutations(n):
            assert pattern_pair(w) == pattern_pair_via_runs(w) == (brute_13_2(w), brute_2_31(w))


def test_avoids_231():
    assert avoids_231((1, 3, 2))
    assert not avoids_231((2, 3, 1))
    for n in range(1, 7):
        for w in all_permutations(n):
            brute = not any(
                w[k] < w[i] < w[j]
                for i in range(n)
                for j in range(i + 1, n)
                for k in range(j + 1, n)
            )
            assert avoids_231(w) == brute


def test_avoider_counts_are_catalan():
    for n in range(1, 9):
        found = list(avoiding_permutations(n))
        assert len(found) == CATALAN[n]
        assert set(found) == set(avoiders(range(1, n + 1)))


def _pqt(name):
    return IntPolynomial.variable(name, ("p", "q", "t"))


def test_apq_polynomial_small():
    p, q, t = _pqt("p"), _pqt("q"), _pqt("t")
    assert apq_polynomial(1) == t**0
    assert apq_polynomial(2) == 1 + t
    assert apq_polynomial(3) == (1 + t) ** 2 + (p + q) * t


def test_bni_polynomial():
    pq = IntPolynomial.variable("p", ("p", "q")) + IntPolynomial.variable(
        "q", ("p", "q")
    )
    assert bni_polynomial(3, 0) == pq**0
    assert bni_polynomial(3, 1) == pq
    assert bni_polynomial(4, 1) == pq * (pq + 2)


def tally_moving_peaks(count):
    """A planted defect: count words of one (13-2, 2-31, des) cell go from
    peak 1 to peak 2.  At n = 5 one word leaves a peak-1 count that 2^2 does
    not divide; four leave the scaled counts integers that no longer rebuild
    the class's descent polynomial."""

    def planted(n):
        tally = pattern_tally(n)
        cell = max(key for key, c in tally.items() if key[0] == 1 and c >= count)
        tally[cell] -= count
        tally[(2, *cell[1:])] += count
        return tally

    return planted


@pytest.mark.parametrize("count", [1, 4])
def test_a_broken_tally_is_an_arithmetic_error(capsys, monkeypatch, count):
    monkeypatch.setattr(patterns, "pattern_tally", tally_moving_peaks(count))
    patterns._pattern_tables.cache_clear()
    try:
        with pytest.raises(ArithmeticError):
            patterns._pattern_tables(5)
        assert main(["apq", "--n", "5"]) == 1
    finally:
        patterns._pattern_tables.cache_clear()
    captured = capsys.readouterr()
    assert not captured.out
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err


def test_distribution_checks():
    for n in range(1, 7):
        assert check_pq_symmetry(n)
        assert check_mahonian(n)
        assert all(check_divisibility(n).values())


NARAYANA_ROWS = {
    1: [1],
    2: [1, 1],
    3: [1, 3, 1],
    4: [1, 6, 6, 1],
    5: [1, 10, 20, 10, 1],
    6: [1, 15, 50, 50, 15, 1],
}


@pytest.mark.parametrize("n", sorted(NARAYANA_ROWS))
def test_narayana_rows(n):
    poly, gamma = narayana(n)
    assert list(poly) == NARAYANA_ROWS[n]
    assert gamma.reconstruct() == poly
    assert sum(poly) == CATALAN[n]


def test_narayana_gamma_fixture():
    assert narayana(5)[1].gamma == (1, 6, 2)
