"""Acceptance gate: one test per headline claim, each timed against an
explicit wall-clock budget and printing a single PASS line (visible with
pytest -s; the -v test status is the pass/fail record)."""

import random
import time

from permact.action import orbit, phi_prime_x, phi_x
from permact.harness import involution_descent_poly, run_suite
from permact.mahonian import theta, veh_prime
from permact.patterns import apq_polynomial, bni_polynomial
from permact.polynomials import (
    IntPolynomial,
    divide_by_p_plus_q,
    gamma_expand,
)
from permact.posets import (
    LabeledPoset,
    wp_polynomial,
)
from permact.stacksort import stack_sort, stack_sort_via_slides
from permact.trees import binary_tree, edge_masks, hop_product, postorder, veh
from permact.words import all_permutations, format_word, parse_word

W0 = (5, 7, 3, 1, 4, 8, 9, 2, 6)
W0_SORTED = (5, 1, 3, 4, 7, 8, 2, 6, 9)


def _passed(report):
    broken = [inst for inst in report.instances if not inst.ok]
    assert report.passed, (
        f"{report.suite}: {report.summary_line()}; "
        + "; ".join(f"n={inst.n}: {inst.detail}" for inst in broken)
    )
    return report


def _announce(k, elapsed, budget, text):
    assert elapsed < budget, f"criterion {k} took {elapsed:.1f}s, budget {budget}s"
    print(f"[PRIMARY {k}] PASS {elapsed:6.2f}s/{budget}s {text}")


def test_primary_01_sort_fixture_both_routes():
    start = time.perf_counter()
    assert stack_sort(W0) == W0_SORTED
    assert stack_sort_via_slides(W0) == W0_SORTED
    recursive = min(
        _timed(stack_sort) for _ in range(5)
    )
    slides = min(_timed(stack_sort_via_slides) for _ in range(5))
    assert recursive < 0.001 and slides < 0.001
    _announce(1, time.perf_counter() - start, 1.0, "573148926 sorts to 513478269 in under 1 ms per route")


def _timed(fn):
    t0 = time.perf_counter()
    assert fn(W0) == W0_SORTED
    return time.perf_counter() - t0


def test_primary_02_orbit_suite():
    start = time.perf_counter()
    _passed(run_suite("orb", 8))
    _announce(2, time.perf_counter() - start, 60, "orbit partition and per-orbit descent polynomials for n <= 8")


def test_primary_03_refined_eulerian_displays():
    start = time.perf_counter()
    p = IntPolynomial.variable("p", ("p", "q", "t"))
    q = IntPolynomial.variable("q", ("p", "q", "t"))
    t = IntPolynomial.variable("t", ("p", "q", "t"))
    pq = p + q
    assert apq_polynomial(3) == (1 + t) ** 2 + pq * t
    assert apq_polynomial(4) == (1 + t) ** 3 + pq * (pq + 2) * t * (1 + t)
    assert apq_polynomial(5) == (
        (1 + t) ** 4
        + pq * (pq**2 + 2 * pq + 3) * t * (1 + t) ** 2
        + pq**2 * (p**2 + p * q + q**2 + 1) * t**2
    )
    _announce(3, time.perf_counter() - start, 1, "A_3, A_4, A_5 in (p, q, t) match the closed displays")


def test_primary_04_narayana_suite():
    start = time.perf_counter()
    _passed(run_suite("narayana", 9))
    _announce(4, time.perf_counter() - start, 30, "both Narayana closed forms and the peak refinement for n <= 9")


def test_primary_05_pattern_distributions():
    start = time.perf_counter()
    _passed(run_suite("constant-patterns", 8))
    _passed(run_suite("pq-symmetry", 7))
    _passed(run_suite("mahonian-s1s2", 7))
    _announce(5, time.perf_counter() - start, 60, "pattern counts constant on orbits; p/q symmetry; Mahonian specialization")


def test_primary_06_stack_sort_compatibility():
    start = time.perf_counter()
    _passed(run_suite("stack-invariance", 7))
    _passed(run_suite("genbona", 8))
    _announce(6, time.perf_counter() - start, 120, "sorting commutes with the hops; r-sortable classes are invariant with natural b_i")


def test_primary_07_tree_bijections():
    start = time.perf_counter()
    _passed(run_suite("psiphi", 7))
    _passed(run_suite("psi-prime", 7))
    _passed(run_suite("kreweras", 9))
    _passed(run_suite("veh-altsum", 8))
    _announce(7, time.perf_counter() - start, 60, "tree hop bijections, Dyck translation to 18 steps, alternating-sum formula")


def test_primary_08_mahonian_pair():
    start = time.perf_counter()
    assert veh((6, 5, 2, 4, 1, 9, 7, 3, 8)) == 4
    assert veh_prime((5, 8, 6, 3, 1, 7, 4, 9, 2)) == 4
    assert theta((5, 8, 6, 3, 1, 7, 4, 9, 2)) == (6, 3, 5, 8, 1, 9, 7, 4, 2)
    _passed(run_suite("evt", 8))
    _passed(run_suite("euler-mahonian", 8))
    _announce(8, time.perf_counter() - start, 120, "EV carries descent sets; (veh', siveh) is Euler-Mahonian for n <= 8")


def test_primary_09_poset_polynomials():
    start = time.perf_counter()
    V = LabeledPoset(("a", "b", "c"), (("a", "c"), ("b", "c")), {"a": -2, "b": -1, "c": 1})
    assert (wp_polynomial(V).a, wp_polynomial(V).r) == ((1,), 1)
    chain = LabeledPoset(("a", "b", "c"), (("a", "b"), ("b", "c")), {"a": -1, "b": 1, "c": -2})
    assert (wp_polynomial(chain).a, wp_polynomial(chain).r) == ((0, 1), 0)
    flat = LabeledPoset(("a", "b"), (), {"a": -1, "b": -2})
    assert (wp_polynomial(flat).a, wp_polynomial(flat).r) == ((1,), 0)
    _passed(run_suite("wp", 5))
    _announce(9, time.perf_counter() - start, 120, "sign-graded W-polynomials expand with nonnegative a_i on the whole corpus")


def test_primary_10_conjecture_suites():
    start = time.perf_counter()
    assert involution_descent_poly(3) == (1, 2, 1)
    assert gamma_expand(involution_descent_poly(3), 2).gamma == (1,)
    assert gamma_expand(involution_descent_poly(4), 3).gamma == (1, 1)
    p = IntPolynomial.variable("p", ("p", "q"))
    q = IntPolynomial.variable("q", ("p", "q"))
    b52 = bni_polynomial(5, 2)
    assert b52 == (p + q) ** 2 * (p**2 + p * q + q**2 + 1)
    assert divide_by_p_plus_q(divide_by_p_plus_q(b52)) == p**2 + p * q + q**2 + 1
    for suite, bound in (
        ("guo-zeng", 10),
        ("gessel", 6),
        ("divisibility", 7),
        ("brenti-logconcave", 10),
    ):
        t0 = time.perf_counter()
        _passed(run_suite(suite, bound))
        assert time.perf_counter() - t0 < 120, f"{suite} exceeded its budget"
    _announce(10, time.perf_counter() - start, 480, "conjecture suites report no counterexample at the stated bounds")


def test_primary_11_property_invariants():
    start = time.perf_counter()
    _passed(run_suite("corre", 9))
    rng = random.Random("permact:acceptance:roundtrip")
    sampled = 0
    for n in (8, 9):
        base = list(range(1, n + 1))
        for _ in range(1200):
            rng.shuffle(base)
            w = tuple(base)
            assert parse_word(format_word(w)) == w
            assert postorder(binary_tree(w)) == stack_sort(w)
            # the phi_x products at the odd and the right-edge masks are inverse
            psi = hop_product(w, edge_masks(w)[0], phi_x)
            phi_cap = hop_product(w, edge_masks(w)[1], phi_x)
            assert hop_product(psi, edge_masks(psi)[1], phi_x) == w
            assert hop_product(phi_cap, edge_masks(phi_cap)[0], phi_x) == w
            x = rng.randint(1, n)
            assert phi_x(phi_x(w, x), x) == w
            assert phi_prime_x(phi_prime_x(w, x), x) == w
            sampled += 5
    assert sampled >= 10_000
    for n in range(1, 8):
        for w in all_permutations(n):
            assert postorder(binary_tree(w)) == stack_sort(w)
    end = time.perf_counter()
    _announce(11, end - start, 120, "involution, commutation, and round-trip invariants (exhaustive n <= 7, sampled 10^4 at n = 8, 9)")
