import random

import pytest

from permact import polynomials
from permact.polynomials import (
    GammaExpansion,
    IntPolynomial,
    NoExpansionError,
    NonzeroRemainderError,
    NotSymmetricError,
    dense,
    divide_by_p_plus_q,
    gamma_expand,
    GesselExpansion,
    gessel_expand,
    latex_gamma_form,
    latex_poly,
    q_factorial,
    strip_zeros,
    uni,
)
from permact.words import all_permutations, des

T = IntPolynomial.variable("t")


def test_arithmetic():
    assert (1 + T) ** 3 == uni([1, 3, 3, 1])
    assert (T + -1 * T).is_zero()
    assert (1 + -1 * T) * (1 + T) == 1 + -1 * T**2
    assert T**0 == IntPolynomial.constant(("t",), 1)
    with pytest.raises(ValueError):
        T ** (-1)


def test_variable_mismatch_raises():
    q = IntPolynomial.variable("q")
    with pytest.raises(ValueError):
        T + q


def test_zero_coefficients_are_dropped():
    p = IntPolynomial(("p", "t"), {(2, 1): 3, (0, 0): 1, (1, 1): 0})
    assert p.terms == {(2, 1): 3, (0, 0): 1}


def test_uni():
    assert uni([1, 2, 1]) == (1 + T) ** 2
    assert str(uni([1, 2, 1])) == "1 + 2t + t^2"
    assert str(uni([0])) == "0"


def test_dense_tallies_are_in_strip_zeros_form():
    assert dense({2: 1, 0: 3}) == (3, 0, 1)
    assert dense({0: 0, 3: 0}) == dense({}) == (0,)
    assert strip_zeros([]) == strip_zeros([0, 0]) == (0,)


def test_swap_vars():
    p = IntPolynomial(("p", "q"), {(2, 1): 5})
    assert p.swap_vars("p", "q") == IntPolynomial(("p", "q"), {(1, 2): 5})


def test_gamma_expand_fixtures():
    assert gamma_expand((1, 11, 11, 1), 3).gamma == (1, 8)
    assert gamma_expand((1,), 0).gamma == (1,)
    assert gamma_expand((0,), 2).gamma == (0,)
    got = gamma_expand((1, 4, 1), 2)
    assert got == GammaExpansion(d=2, gamma=(1, 2))
    assert got.reconstruct() == (1, 4, 1)


def test_gamma_expand_raises_on_a_nonzero_remainder(monkeypatch):
    # a palindrome peels to zero, so only a broken peel step leaves a remainder
    add = polynomials._add_gamma_term

    def dropping_the_last_term(coeffs, g, i, e):
        add(coeffs, g, i, e)
        coeffs[i + e] -= g

    monkeypatch.setattr(polynomials, "_add_gamma_term", dropping_the_last_term)
    with pytest.raises(NonzeroRemainderError):
        gamma_expand((1, 11, 11, 1), 3)


def test_gamma_expand_rejects_asymmetric():
    with pytest.raises(NotSymmetricError):
        gamma_expand((1, 2), 2)
    with pytest.raises(NotSymmetricError):
        gamma_expand((1, 1, 1), 1)


def test_gamma_round_trip_on_descent_polynomials():
    for n in range(1, 8):
        counts = [0] * n
        for w in all_permutations(n):
            counts[des(w)] += 1
        poly = tuple(counts)
        assert gamma_expand(poly, n - 1).reconstruct() == poly


def _sparse_gamma_form(d, gamma):
    """sum_i g_i t^i (1+t)^(d-2i) through sparse IntPolynomial powers."""
    acc = IntPolynomial.zero(("t",))
    for i, g in enumerate(gamma):
        acc = acc + g * T**i * (1 + T) ** (d - 2 * i)
    return acc


def test_reconstruct_matches_sparse_powers():
    rng = random.Random(2006)
    for d in range(13):
        top = d // 2 + 1
        vectors = [
            (),
            (0,) * top,
            (1,),
            tuple(range(1, top + 1)),
            tuple((-1) ** i * (i + 2) for i in range(top)),
            (0,) * (top - 1) + (1,),
        ] + [tuple(rng.randint(-9, 9) for _ in range(rng.randint(1, top))) for _ in range(6)]
        for gamma in vectors:
            poly = GammaExpansion(d, gamma).reconstruct()
            assert poly == strip_zeros(poly), (d, gamma)
            assert uni(poly) == _sparse_gamma_form(d, gamma), (d, gamma)
            trimmed = list(gamma) or [0]
            while len(trimmed) > 1 and trimmed[-1] == 0:
                trimmed.pop()
            assert gamma_expand(poly, d).gamma == tuple(trimmed), (d, gamma)


def test_reconstruct_rejects_negative_powers():
    for d, gamma in [(0, (1, 1)), (3, (0, 0, 1)), (4, (1, 0, 0, 0)), (-1, (1,))]:
        with pytest.raises(ValueError):
            _sparse_gamma_form(d, gamma)
        with pytest.raises(ValueError):
            GammaExpansion(d, gamma).reconstruct()


def test_gessel_expand_basics():
    s = IntPolynomial.variable("s", ("s", "t"))
    t = IntPolynomial.variable("t", ("s", "t"))
    got = gessel_expand(s + t, 2)
    assert got.coeffs == {(1, 0): 1}
    assert got.negative_entries() == []
    assert got.reconstruct() == s + t
    assert gessel_expand(1 + s * t, 2).coeffs == {(0, 0): 1}
    # joint descent distribution of S_3 against the identity
    dist3 = 1 + 4 * s * t + s**2 * t**2
    assert gessel_expand(dist3, 3).coeffs == {(0, 0): 1, (0, 1): 2}


def test_gessel_expand_no_expansion():
    s = IntPolynomial.variable("s", ("s", "t"))
    with pytest.raises(NoExpansionError):
        gessel_expand(s, 2)
    with pytest.raises(ValueError):
        gessel_expand(T, 2)


@pytest.mark.parametrize("n", range(1, 8))
def test_gessel_peel_of_each_basis_element_is_its_unit_vector(n):
    # the peel is linear, so the basis is independent and an expansion that
    # rebuilds F is the only one: the rebuild check fixes every c(k, j)
    for j in range((n - 1) // 2 + 1):
        for k in range(n - 2 * j):
            basis = GesselExpansion(n, {(k, j): 1}).reconstruct()
            assert gessel_expand(basis, n).coeffs == {(k, j): 1}


def test_gessel_peel_recovers_random_combinations():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @st.composite
    def combinations(draw):
        n = draw(st.integers(1, 7))
        pairs = [(k, j) for j in range((n - 1) // 2 + 1) for k in range(n - 2 * j)]
        coeffs = {kj: draw(st.integers(-50, 50)) for kj in pairs}
        return n, {kj: c for kj, c in coeffs.items() if c}

    @hypothesis.settings(max_examples=60, deadline=None, database=None)
    @hypothesis.given(combinations(), st.data())
    def check(combination, data):
        n, coeffs = combination
        F = GesselExpansion(n, coeffs).reconstruct()
        peeled = gessel_expand(F, n)
        assert peeled.coeffs == coeffs
        # every basis element is symmetric in s and t, so a lone term off
        # the diagonal leaves a residual
        a = data.draw(st.integers(0, n))
        b = data.draw(st.integers(0, n).filter(lambda b: b != a))
        c = data.draw(st.integers(-3, 3).filter(bool))
        perturbed = F + IntPolynomial(("s", "t"), {(a, b): c})
        with pytest.raises(NoExpansionError):
            gessel_expand(perturbed, n)

    check()


def test_q_factorial():
    assert q_factorial(0) == q_factorial(1) == (1,)
    assert q_factorial(3) == (1, 2, 2, 1)
    assert len(q_factorial(5)) == 11
    for n in range(7):
        assert uni(q_factorial(n)) == _sparse_q_factorial(n)


def _sparse_q_factorial(n):
    """[n]_t! through sparse IntPolynomial products."""
    acc = IntPolynomial.constant(("t",), 1)
    for k in range(1, n + 1):
        acc = acc * uni([1] * k)
    return acc


P, Q = (IntPolynomial.variable(v, ("p", "q")) for v in "pq")


def test_divide_by_p_plus_q():
    assert divide_by_p_plus_q((P + Q) ** 2) == P + Q
    assert divide_by_p_plus_q(IntPolynomial.zero(("p", "q"))).is_zero()
    for f in (P, 1 + P + Q, P * P + Q * Q, (P + Q) ** 2 + 1, P**3 + Q**3 + P):
        assert divide_by_p_plus_q(f) is None, f
    rng = random.Random(2006)
    for _ in range(40):
        g = IntPolynomial(("p", "q"), {(rng.randint(0, 4), rng.randint(0, 4)): rng.randint(-9, 9)
                                       for _ in range(rng.randint(1, 6))})
        assert divide_by_p_plus_q((P + Q) * g) == g
        # p + q divides f iff f vanishes at p = -q; one off term breaks that
        assert divide_by_p_plus_q((P + Q) * g + P**5) is None


def test_latex_output():
    assert latex_poly((1 + T) ** 2) == "t^2 + 2t + 1"
    form = latex_gamma_form((1, 8), 3)
    assert "(1+t)^3" in form and "8" in form
