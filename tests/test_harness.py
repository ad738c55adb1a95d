import csv
import gc
import hashlib
import importlib
import io
import json
import math
import os
import pickle
import traceback
from collections import Counter
from types import SimpleNamespace

import pytest

from permact import harness, patterns
from permact.action import (
    _closed_form,
    orbit,
    orbit_members,
    orbit_reps,
    orbits,
    phi_prime_x,
    phi_x,
)
from permact.cli import main
from permact.harness import (
    SUITES,
    Instance,
    Report,
    UnknownFormatError,
    UnknownSuiteError,
    build_table,
    emit_table,
    eulerian_poly,
    involution_descent_poly,
    report_emit,
    run_suite,
)
from permact.limits import BoundExceededError, check_enumeration_size, enumeration_bound
from permact.mahonian import ev_set
from permact.patterns import (
    apq_polynomial,
    avoiding_permutations,
    pattern_pair,
    pattern_pair_via_runs,
)
from permact.polynomials import GammaExpansion, GesselExpansion, IntPolynomial, gessel_expand
from permact.posets import psi_x_poset
from permact.trees import dyck_path
from permact.words import (
    Boundary,
    LetterClass,
    all_permutations,
    classify,
    dec_subseq_counts,
    des,
    descent_poly,
    involutions,
    maj,
    peak,
    shape,
    stat_bits,
    transfer,
)


def test_suite_registry():
    assert len(SUITES) == 20
    for name, suite in SUITES.items():
        assert suite.name == name
        assert suite.kind in {"theorem", "conjecture"}
        assert suite.statement
        assert suite.default_max_n >= 1


def test_run_suite_unknown():
    with pytest.raises(UnknownSuiteError):
        run_suite("no-such-suite", 4)


def test_run_suite_pass():
    report = run_suite("narayana", 5)
    assert report.passed
    assert report.exit_code() == 0
    assert report.kind == "theorem"
    assert "PASS" in report.summary_line()
    assert [inst.n for inst in report.instances] == list(range(1, 6))


def test_run_suite_conjecture_wording():
    report = run_suite("guo-zeng", 5)
    assert report.exit_code() == 0
    assert "not a proof" in report.summary_line()


def _failing_report(kind, hard):
    inst = Instance("demo", 4, False, hard, "broke", {"word": [2, 1]})
    return Report("demo", kind, "statement", 4, (inst,))


@pytest.mark.parametrize("kind, hard, status", [
    ("theorem", True, "FAIL"),
    ("theorem", False, "FAIL"),
    ("conjecture", True, "FAIL"),
    ("conjecture", False, "counterexample"),
])
def test_report_emit_latex_failure_statuses(kind, hard, status):
    lines = report_emit(_failing_report(kind, hard), "latex").decode().splitlines()
    assert lines[3] == f"4 & {status} & broke \\\\"
    assert lines[-1] == r"\end{tabular}"


def test_exit_codes_for_failures():
    assert _failing_report("theorem", True).exit_code() == 1
    assert _failing_report("conjecture", False).exit_code() == 3
    # a crash inside a conjecture suite is a hard failure, not a counterexample
    assert _failing_report("conjecture", True).exit_code() == 1
    assert "4" in _failing_report("theorem", True).summary_line()


def test_instance_survives_the_worker_pipe():
    # forked --jobs workers pickle their instances back to the parent
    inst = Instance("demo", 4, True, False, "fine", None, {"gamma": [1, 8]}, 0.25)
    assert pickle.loads(pickle.dumps(inst)) == inst


def test_replacing_seconds_keeps_every_other_field():
    inst = _failing_report("theorem", True).instances[0]
    timed = inst._replace(seconds=1.5)
    assert timed.seconds == 1.5
    assert timed[:-1] == inst[:-1]
    assert timed._fields[-1] == "seconds"


def test_suite_runners_live_in_the_instance_dict():
    # perfbench/tracer.py patches each runner through vars(suite)["runner"]
    assert vars(harness.SUITES["orb"])["runner"] is harness._run_orb


def test_reports_are_deterministic_across_jobs():
    # corre at n = 8 is its sampled regime
    for name, max_n in [("kreweras", 6), ("orb", 7), ("corre", 8)]:
        serial = run_suite(name, max_n, jobs=1)
        parallel = run_suite(name, max_n, jobs=2)
        assert [inst.n for inst in parallel.instances] == list(range(1, max_n + 1))
        assert report_emit(serial, "json") == report_emit(parallel, "json")
        assert report_emit(serial, "csv") == report_emit(parallel, "csv")


def test_report_emit_formats():
    report = run_suite("veh-altsum", 4)
    payload = json.loads(report_emit(report, "json"))
    assert payload["suite"] == "veh-altsum"
    assert payload["passed"] is True
    assert "seconds" not in json.dumps(payload)
    timed = json.loads(report_emit(report, "json", include_timing=True))
    assert all("seconds" in inst for inst in timed["instances"])
    rows = list(csv.DictReader(io.StringIO(report_emit(report, "csv").decode())))
    assert [row["n"] for row in rows] == ["1", "2", "3", "4"]
    assert report_emit(report, "latex").startswith(b"\\begin{tabular}")
    with pytest.raises(UnknownFormatError):
        report_emit(report, "yaml")


def test_eulerian_and_involution_polynomials():
    assert eulerian_poly(4) == (1, 11, 11, 1)
    for n in range(9):
        assert eulerian_poly(n) == descent_poly(all_permutations(n))
    assert involution_descent_poly(3) == (1, 2, 1)
    assert involution_descent_poly(4) == (1, 4, 4, 1)


def test_build_table():
    header, rows = build_table("eulerian", 4)
    assert header == ["n", "polynomial", "gamma"]
    assert rows[2] == ["3", "1 + 4t + t^2", "1 2"]
    header, rows = build_table("narayana", 5)
    assert rows[-1][0] == "5"
    with pytest.raises(ValueError):
        build_table("nope", 4)


def test_emit_table_formats():
    header, rows = build_table("involution", 4)
    data = json.loads(emit_table(header, rows, "json"))
    assert len(data) == 4
    assert emit_table(header, rows, "csv").decode().splitlines()[0] == "n,polynomial,gamma"
    assert b"tabular" in emit_table(header, rows, "latex")
    with pytest.raises(UnknownFormatError):
        emit_table(header, rows, "toml")


def test_enumeration_bound_env(monkeypatch):
    monkeypatch.setenv("PERMACT_MAX_N", "4")
    assert enumeration_bound() == 4
    with pytest.raises(BoundExceededError):
        check_enumeration_size(5)
    report = run_suite("narayana", 9)
    assert report.max_n == 4
    monkeypatch.delenv("PERMACT_MAX_N")
    assert enumeration_bound() == 10


def test_run_suite_rejects_empty_range(monkeypatch):
    with pytest.raises(ValueError, match="max_n = 0"):
        run_suite("orb", 0)
    monkeypatch.setenv("PERMACT_MAX_N", "0")
    with pytest.raises(ValueError, match="PERMACT_MAX_N = 0"):
        run_suite("orb")


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_workers_bounded_by_sizes_and_cpus(monkeypatch):
    forks = []
    real_fork = os.fork

    def counting_fork():
        pid = real_fork()
        if pid:
            forks.append(pid)
        return pid

    def forked(max_n, jobs):
        forks.clear()
        assert run_suite("narayana", max_n, jobs=jobs).passed
        _assert_no_child_left()
        return len(forks)

    monkeypatch.setattr(harness.os, "fork", counting_fork)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 4)
    started = [forked(3, 5000), forked(8, 5000), forked(8, 2)]
    assert started == [3, 4, 2]
    assert forked(1, 5000) == 0
    monkeypatch.setattr(harness.os, "cpu_count", lambda: None)
    assert forked(3, 5000) == 0
    for jobs in (0, -1):
        with pytest.raises(ValueError, match="jobs"):
            run_suite("narayana", 3, jobs=jobs)


def test_a_worker_that_dies_raises_and_leaves_no_child(monkeypatch, capsys):
    real_run_instance = harness._run_instance

    def dies_at_the_top_n(name, n):
        if n == 4:
            os._exit(3)
        return real_run_instance(name, n)

    monkeypatch.setattr(harness, "_run_instance", dies_at_the_top_n)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
    with pytest.raises(RuntimeError, match="narayana.*status 3"):
        run_suite("narayana", 4, jobs=2)
    _assert_no_child_left()
    assert main(["verify", "narayana", "--max-n", "4", "--jobs", "2"]) == 1
    assert "narayana" in capsys.readouterr().err
    _assert_no_child_left()


def test_workers_fork_from_a_frozen_heap(monkeypatch):
    frozen = []
    real_fork = os.fork

    def noting_fork():
        pid = real_fork()
        if pid:
            frozen.append(gc.get_freeze_count())
        return pid

    monkeypatch.setattr(harness.os, "fork", noting_fork)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
    assert gc.get_freeze_count() == 0
    assert run_suite("narayana", 4, jobs=2).passed
    assert len(frozen) == 2 and all(frozen)
    assert gc.get_freeze_count() == 0
    # a worker that dies leaves the heap unfrozen too
    monkeypatch.setattr(harness, "_run_instance", lambda name, n: os._exit(3))
    with pytest.raises(RuntimeError):
        run_suite("narayana", 4, jobs=2)
    assert gc.get_freeze_count() == 0
    _assert_no_child_left()


def test_jobs_run_serially_without_fork(monkeypatch):
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
    serial = run_suite("orb", 5, jobs=1)
    monkeypatch.delattr(os, "fork")
    parallel = run_suite("orb", 5, jobs=2)
    for fmt in ("json", "csv", "latex"):
        assert report_emit(parallel, fmt) == report_emit(serial, fmt)


# sha256 of report_emit(run_suite(name, 5), "json") for every suite.  Report
# bytes are a compatibility promise: a refactor must leave these unchanged.
REPORT_SHA256_N5 = {
    "brenti-logconcave": "dd18d9338e5df432ce1e1ee0a8531a64eb67da53813be38031c036f22132f40c",
    "constant-patterns": "ae72ebf51a5e63c6e9ccd6eee2a3c26555aeac54a9022229645498f641fe9d91",
    "corre": "5d0a06f0b144d5c7a1fd9bfb19c727b6313fc9ff2d8256b401f0c8eb67db3058",
    "divisibility": "2fde503018abf352f2f2b69cb95073d19d85ba49b215b06e89db73aff5e3c5bc",
    "euler-mahonian": "709ff3b2501a2e30152d247667a9d525e83c7fc3708785ee5a8ba91f691162b9",
    "evt": "83c38cc833bb0e285999da05733968dd8bc92e981eab2ed22830026ba6d2ff42",
    "genbona": "5a86a784b5cf9158d20460647a1dfe6d2af2779d1566ee3b787ee984df5ee5e4",
    "gessel": "ea2ff4a0ab72e60b4ca820dac2eeaa2a506fd7cc4b8c8abeddad54d92d0b6b11",
    "guo-zeng": "7fb38f94fb0929cf5acabc52b40bb1b787174c56105a6286aeea4b9031eb1a8c",
    "kreweras": "9100d6ddd653d591630161b0dcd97755770aa94b8239297302c936af69c96f9c",
    "mahonian-s1s2": "2a6799e4571bebfdfb0c67d1bcf70f7f39455b8ed10e1981dde008856703a9a1",
    "narayana": "b10a394b33455b7baf031f38ef411c1752fbb34e1a014c53c99019e1949cff14",
    "orb": "312a7cf348a0ad56b90dd7069913dc65dc51b2eda86618fa567c6e46c245824f",
    "pq-symmetry": "7c345db557a73e3aa78fe0bf382fe79e7c1db7d41183d4e2b3760714b6bce200",
    "psi-prime": "d628967cf66c31ea7bcd7d3077afc2d85b40853b7c678b73a3a294921865599f",
    "psiphi": "b5526a577188dfb7ef51f44768a742ca05e4d8d8908a751d99a8c741e57247e2",
    "slides-equal-recursive": "33d35de09d92872412418683fd86f53ac157b3a433c26edc90a89e074b4bb41e",
    "stack-invariance": "872556a6312ccaad65ace56ebc04dec53dafbae0621a1a7ea017b00854c3df79",
    "veh-altsum": "9773b965d51f3f1324974c8b522c5e10c85cd30be7cfc2f6a649a5314bb52090",
    "wp": "05fbbc0a56cf9bc159d24ce0a738136017b34a7ae96313b58301e1377a153f7e",
}


def test_report_bytes_pinned():
    got = {
        name: hashlib.sha256(report_emit(run_suite(name, 5), "json")).hexdigest()
        for name in SUITES
    }
    assert got == REPORT_SHA256_N5


def orbit_members_skipping_last_mover(seed, hop):
    """A planted defect: doubling that never applies the last moving letter."""
    moving = [x for x in seed if hop(seed, x) != seed]
    members = [seed]
    for x in moving[:-1]:
        members += [hop(m, x) for m in members]
    return frozenset(members)


def phi_prime_x_swapping_peaks(w, x):
    """A planted defect: the hop also swaps the two blocks of a peak."""
    cls = classify(w)[w.index(x)]
    return w if cls is LetterClass.VALLEY else phi_x(w, x)


def apq_polynomial_plus_p(n):
    """A planted defect: A_n(p,q,t) with an extra term p."""
    return apq_polynomial(n) + IntPolynomial.variable("p", ("p", "q", "t"))


def counting_descents(pair):
    """A planted defect for a pair route: (13-2) also counts the descents,
    which are not constant on orbits."""
    return lambda w: (pair(w)[0] + des(w), pair(w)[1])


# the defect above in both counting routes, so they still agree
PATTERNS_COUNTING_DESCENTS = SimpleNamespace(
    pattern_pair=counting_descents(pattern_pair),
    pattern_pair_via_runs=counting_descents(pattern_pair_via_runs),
)


def pattern_pair_via_runs_off_by_one(w):
    """A planted defect: the run route finds one (2-31) occurrence too many."""
    p, q = pattern_pair_via_runs(w)
    return p, q + 1


def depths_by_descents(n):
    """A planted defect: des in place of the sort depth."""
    return {w: des(w) for w in all_permutations(n)}


def phi_prime_x_stuck_in_front(w, x):
    """A planted defect: the largest letter, once in front, never hops back."""
    if x == len(w) and w[0] == x:
        return w
    return phi_prime_x(w, x)


def phi_prime_x_trading_two_words(w, x):
    """A planted defect: letter 1, a valley the true hops fix, trades
    (n 1 2 ... n-1) with (1 n 2 ... n-1).  Every hop is still an involution
    and the identity's product of hops is unchanged."""
    if x != 1:
        return phi_prime_x(w, x)
    n = len(w)
    a, b = (n, *range(1, n)), (1, n, *range(2, n))
    return b if w == a else a if w == b else w


def shape_without_double_descents(w, boundary=Boundary.TOP):
    """A planted defect: no letter is counted as a double descent."""
    descents, peaks, _ = shape(w, boundary)
    return descents, peaks, 0


def closed_form_top_coefficient_plus_one(d, k):
    """A planted defect: the cached coefficients of t^k (1+t)^(d-2k) have
    their top coefficient one too large."""
    claim, poly = _closed_form(d, k)
    return claim, (*poly[:-1], poly[-1] + 1)


def orbits_split_in_two(seeds, hop):
    """A planted defect: every orbit of two or more words comes out as two
    halves, each constant whenever the orbit is."""
    for members in orbits(seeds, hop):
        ordered = sorted(members)
        half = len(ordered) // 2
        yield from (frozenset(part) for part in (ordered[:half], ordered[half:]) if part)


def psi_x_poset_only_forward(P, pi, x):
    """A planted defect: a hop that would move a linear extension to a
    lexicographically smaller one leaves it in place, so no moving hop is
    an involution."""
    image = psi_x_poset(P, pi, x)
    return image if image > pi else pi


def dyck_path_swapping_two_steps(w):
    """A planted defect: the first peak ud of the path becomes a valley du."""
    return dyck_path(w).replace("ud", "du", 1)


def phi_x_fixing_double_descents(w, x):
    """A planted defect: a double descent (under TOP) stays put."""
    if classify(w, Boundary.TOP)[w.index(x)] is LetterClass.DOUBLE_DESCENT:
        return w
    return phi_x(w, x)


def avoiders_repeating_the_first(n):
    """A planted defect: the last avoider is replaced by a second copy of the
    first, so the list keeps its Catalan length."""
    avs = list(avoiding_permutations(n))
    return avs[:-1] + avs[:1]


def joint_distributions_skipping_last_position(n):
    """A planted defect: the scan stops before position n, so the last letter
    adds to neither tally."""
    lhs, rhs = Counter(), Counter()
    for w in all_permutations(n):
        ev = ev_set(w[:-1])
        lhs[len(ev), sum(ev)] += 1
        rhs[des(w[:-1]), maj(w[:-1])] += 1
    return lhs, rhs


def dec_subseq_counts_off_at_d2(w, k_max):
    """A planted defect: d_2 is one too large."""
    ds = dec_subseq_counts(w, k_max)
    return (ds[0], ds[1] + 1, *ds[2:])


def theta_skipping_the_complement(w):
    """A planted defect: theta without the mirror of the part left of each
    minimum, which leaves every word as it is."""
    return w


def involutions_repeating_one_word(n):
    """A planted defect: the last involution is replaced by a second copy of
    the first, so the count stays the telephone number."""
    invs = list(involutions(n))
    return invs[:-1] + invs[:1]


def orbit_reps_dropping_the_last(n):
    """A planted defect: the last representative, and so its orbit, is lost."""
    return list(orbit_reps(n))[:-1]


def orbit_reps_repeating_the_first(n):
    """A planted defect: the first representative comes out twice."""
    reps = list(orbit_reps(n))
    return reps[:1] + reps


def orbit_reps_trading_the_last_for_a_twin(n):
    """A planted defect: the last representative gives way to the first one
    whose orbit has the same size, so the orbit sizes still sum to n!."""
    reps = list(orbit_reps(n))
    size = len(reps[-1][1])
    return reps[:-1] + [next(rep for rep in reps if len(rep[1]) == size)]


def orbit_members_building_a_twin_orbit(seed, hop, letters=None):
    """A planted defect: given its moving letters, the last representative
    gets the orbit of the first representative whose orbit has the same
    size, so one orbit comes out twice and the sizes still sum to n!."""
    if letters is not None:
        reps = list(orbit_reps(len(seed)))
        if seed == reps[-1][0]:
            seed, letters = next(rep for rep in reps if len(rep[1]) == len(letters))
    return orbit_members(seed, hop, letters)


def orbit_members_trading_a_member(seed, hop, letters=None):
    """A planted defect: given its moving letters, the last representative's
    orbit trades its member of most descents for that of the first other
    orbit of the same size.  The two have the same descent and peak counts
    and both have a double descent, so each built orbit still has its seed
    as its one double-descent-free member, and the sizes still sum to n!."""
    members = orbit_members(seed, hop, letters)
    if letters:
        reps = list(orbit_reps(len(seed)))
        if seed == reps[-1][0]:
            twin, ups = next(rep for rep in reps if rep[0] != seed and len(rep[1]) == len(letters))
            other = orbit_members(twin, hop, ups)
            members = members - {max(members, key=des)} | {max(other, key=des)}
    return members


def phi_prime_full_doing_nothing(w):
    """A planted defect: the product of all hops leaves every word as it is."""
    return w


def phi_prime_x_stopping_short(w, x):
    """A planted defect: a moving letter stops one place short of the far
    end of its block, so a block of one letter does not move it at all."""
    v = phi_prime_x(w, x)
    k, j = v.index(x), w.index(x)
    if k == j:
        return w
    u = list(v)
    u.remove(x)
    u.insert(k + (1 if k < j else -1), x)
    return tuple(u)


# the real kernels, for planted defects that wrap them while they are patched
PATTERN_TABLES = patterns._pattern_tables
PATTERN_STEP = patterns._pattern_step
PATTERN_TALLY = patterns.pattern_tally
DES_MAJ_STEP = harness.mahonian._des_maj_step
EDGE_MASKS = harness.trees.edge_masks
HOP_PRODUCT = harness.trees.hop_product
BNI_POLYNOMIAL = patterns.bni_polynomial
NARAYANA = patterns.narayana
INVOLUTION_DESCENT_POLY = involution_descent_poly
INVOLUTIONS = involutions
GAMMA_EXPAND = harness.gamma_expand
ALL_DYCK_PATHS = harness.trees.all_dyck_paths
JOINT_DISTRIBUTIONS = harness.mahonian.joint_distributions
WP_POLYNOMIAL = harness.posets.wp_polynomial
THETA = harness.mahonian.theta
TREES = harness.trees
CLASS_POLYS_FROM_COUNTS = harness.action.class_polys_from_counts
SLICED_TALLY = harness.words.sliced_tally


def pattern_step_without_peaks(n):
    """A planted defect: the pattern transfer never adds to peak, the
    lowest field of its keys."""
    step, bits = PATTERN_STEP(n), stat_bits(n)
    return lambda state, k: [(to, delta >> bits << bits) for to, delta in step(state, k)]


def des_maj_step_one_place_late(n):
    """A planted defect: the (des, maj) transfer puts each descent one
    position to the right."""
    step = DES_MAJ_STEP(n)
    return lambda state, k: step(state, k + 1)


def altsum_with_plus_two(w):
    """A planted defect: the recurrence adds 2 h_i where it should subtract."""
    total, weights = 0, []
    for b in w:
        h = sum([g for a, g in weights if a > b])
        total += h
        weights.append((b, 1 + 2 * h))
    return total


def edge_masks_dropping_the_smallest_odd_letter(w):
    """A planted defect: the odd mask loses its smallest letter."""
    odd, right = EDGE_MASKS(w)
    return odd & (odd - 1), right


def edge_masks_without_right_children(w):
    """A planted defect: the right-edge mask is always empty."""
    return EDGE_MASKS(w)[0], 0


def hop_product_dropping_the_largest_letter(w, letters, hop):
    """A planted defect: the hop at the largest letter of the mask is left
    out, so psi' skips its largest odd-set letter."""
    return HOP_PRODUCT(w, letters ^ (1 << letters.bit_length() >> 1), hop)


def pattern_tables_with_a_wrong_entry(n):
    """A planted defect: b_(n,0) gains a term p, which (p+q)^0 still divides."""
    apq, table = PATTERN_TABLES(n)
    return apq, (table[0] + IntPolynomial.variable("p", ("p", "q")), *table[1:])


def gessel_expand_dropping_the_last_coefficient(F, n):
    """A planted defect: the peel forgets the last coefficient it found."""
    coeffs = dict(gessel_expand(F, n).coeffs)
    coeffs.popitem()
    return GesselExpansion(n, coeffs)


def gessel_expand_negative_at_5(F, n):
    """A planted defect: at n = 5 the first c(k, j) changes sign, so the
    expansion no longer rebuilds F."""
    ge = gessel_expand(F, n)
    first = min(ge.coeffs)
    return ge._replace(coeffs={**ge.coeffs, first: -ge.coeffs[first]}) if n == 5 else ge


def involution_poly_leaning_left(n):
    """A planted defect: an asymmetric polynomial in place of the involution
    descent polynomial."""
    return (2,) + (1,) * (n - 1)


def _clear_pattern_caches():
    PATTERN_TABLES.cache_clear()
    INVOLUTION_DESCENT_POLY.cache_clear()


@pytest.fixture
def fresh_pattern_tables():
    """Keep tables built from a planted kernel out of the shared caches."""
    _clear_pattern_caches()
    yield
    _clear_pattern_caches()


# (suite, n, module, (name, planted kernel), a phrase of the failure's detail)
BROKEN_KERNELS = [
    ("gessel", 3, harness, ("_after_masks", lambda perms, n: [0] * len(perms)), "bitmask"),
    ("psiphi", 4, harness.trees, ("edge_masks", edge_masks_without_right_children), "stack scans"),
    ("evt", 3, harness.mahonian, ("ev_set", lambda w: frozenset()), "stack scan"),
    ("slides-equal-recursive", 4, harness.stacksort, ("stack_sort", lambda w: w), "post-order"),
    ("orb", 4, harness.action, ("orbit_members", orbit_members_skipping_last_mover), "doubling"),
    ("corre", 3, harness.action, ("phi_prime_x", phi_prime_x_swapping_peaks), "factorization"),
    ("pq-symmetry", 4, harness.patterns, ("pattern_pair_via_runs", pattern_pair_via_runs_off_by_one),
     "run-based"),
    ("mahonian-s1s2", 3, harness.patterns, ("apq_polynomial", apq_polynomial_plus_p), "exponent-sum"),
    ("stack-invariance", 7, harness.stacksort, ("stack_sort", lambda w: w), "stack sort changed under a hop"),
    ("genbona", 4, harness.stacksort, ("r_sortable_classes", depths_by_descents), "sort depth changed"),
    ("constant-patterns", 4, harness, ("patterns", PATTERNS_COUNTING_DESCENTS), "changed under a hop"),
    ("stack-invariance", 5, harness.action, ("orbits", orbits_split_in_two), "hop-by-hop sweep"),
    ("genbona", 5, harness.action, ("orbits", orbits_split_in_two), "hop-by-hop sweep"),
    ("constant-patterns", 5, harness.action, ("orbits", orbits_split_in_two), "hop-by-hop sweep"),
    ("corre", 6, harness.action, ("phi_prime_x", phi_prime_x_stuck_in_front), "not an involution"),
    ("corre", 6, harness.action, ("phi_prime_x", phi_prime_x_trading_two_words), "do not commute"),
    ("orb", 4, harness.action, ("shape", shape_without_double_descents), "double-descent-free"),
    ("orb", 4, harness.action, ("_closed_form", closed_form_top_coefficient_plus_one), "descent polynomial"),
    ("wp", 4, harness.posets, ("psi_x_poset", psi_x_poset_only_forward), "not an involution"),
    ("kreweras", 4, harness.trees, ("dyck_path", dyck_path_swapping_two_steps), "tree walk"),
    ("psiphi", 4, harness.action, ("phi_x", phi_x_fixing_double_descents), "factorization route"),
    ("narayana", 4, harness.patterns, ("avoiding_permutations", avoiders_repeating_the_first), "recursive split"),
    ("euler-mahonian", 4, harness.mahonian, ("joint_distributions", joint_distributions_skipping_last_position),
     "letter-set transfer"),
    ("veh-altsum", 4, harness.words, ("dec_subseq_counts", dec_subseq_counts_off_at_d2), "alternating sum"),
    ("evt", 4, harness.mahonian, ("theta", theta_skipping_the_complement), "recursion"),
    ("psi-prime", 4, harness.trees, ("hop_product", hop_product_dropping_the_largest_letter),
     "direct and recursive"),
    ("guo-zeng", 4, harness.words, ("involutions", involutions_repeating_one_word), "S_n filter"),
    ("divisibility", 4, harness.patterns, ("_pattern_tables", pattern_tables_with_a_wrong_entry),
     "per-word scan"),
    ("brenti-logconcave", 4, harness, ("involution_descent_poly", involution_poly_leaning_left),
     "not symmetric"),
    ("gessel", 3, harness, ("gessel_expand", gessel_expand_dropping_the_last_coefficient), "does not rebuild"),
    ("orb", 7, harness.action, ("orbit_reps", orbit_reps_dropping_the_last), "orbits cover"),
    ("genbona", 4, harness.action, ("orbit_reps", orbit_reps_dropping_the_last), "orbit sizes sum"),
    ("orb", 4, harness.action, ("orbit_reps", orbit_reps_repeating_the_first), "orbits cover"),
    ("constant-patterns", 7, harness.action, ("orbit_reps", orbit_reps_repeating_the_first), "orbit sizes sum"),
    ("orb", 7, harness.action, ("orbit_reps", orbit_reps_trading_the_last_for_a_twin), "repeat"),
    ("stack-invariance", 7, harness.action, ("orbit_reps", orbit_reps_trading_the_last_for_a_twin), "repeat"),
    ("corre", 8, harness.action, ("phi_prime_full", phi_prime_full_doing_nothing), "does not complement des"),
    ("constant-patterns", 5, harness.action, ("orbit_members", orbit_members_building_a_twin_orbit),
     "not the seed"),
    ("orb", 7, harness.action, ("orbit_members", orbit_members_building_a_twin_orbit), "not the seed"),
    ("constant-patterns", 7, harness.action, ("orbit_members", orbit_members_building_a_twin_orbit),
     "not the seed"),
    ("orb", 6, harness.action, ("orbit_members", orbit_members_trading_a_member), "differ from the walk"),
    ("constant-patterns", 4, harness.patterns, ("pattern_pair_via_runs", pattern_pair_via_runs_off_by_one),
     "run-based"),
    ("corre", 7, harness.action, ("phi_prime_x", phi_prime_x_stuck_in_front), "not an involution"),
    ("orb", 5, harness.action, ("phi_prime_x", phi_prime_x_stopping_short), "search closure"),
    ("pq-symmetry", 4, harness.patterns, ("_pattern_step", pattern_step_without_peaks), "letter-set transfer"),
    ("euler-mahonian", 4, harness.mahonian, ("_des_maj_step", des_maj_step_one_place_late),
     "letter-set transfer"),
    ("veh-altsum", 4, harness.words, ("dec_subseq_altsum", altsum_with_plus_two), "recurrence"),
    ("psi-prime", 4, harness.trees, ("edge_masks", edge_masks_dropping_the_smallest_odd_letter),
     "veh stack count"),
    ("wp", 7, harness.posets, ("psi_x_poset", psi_x_poset_only_forward), "not an involution"),
]


def shape_with_a_peak_at_an_opening_descent(w, boundary=Boundary.TOP):
    """A planted defect: a word that opens with a descent counts one peak
    too many, while its descent and double-descent counts stay right."""
    descents, peaks, double_descents = shape(w, boundary)
    return descents, peaks + (len(w) > 1 and w[0] > w[1]), double_descents


def phi_x_moving_the_letter_to_the_front(w, x):
    """A planted defect: the block swap puts x in front of every other letter."""
    return (x, *[a for a in w if a != x])


def avoiders_dropping_the_last(n):
    """A planted defect: the last avoider is lost."""
    return list(avoiding_permutations(n))[:-1]


def peak_under_the_zero_boundary(w, boundary=Boundary.TOP):
    """A planted defect: peaks are counted between 0-sentinels, whatever the
    boundary asked for."""
    return peak(w, Boundary.ZERO)


def narayana_with_a_wrong_gamma(n):
    """A planted defect: the first Narayana gamma entry is one too large."""
    poly, gam = NARAYANA(n)
    return poly, gam._replace(gamma=(gam.gamma[0] + 1, *gam.gamma[1:]))


def slides_leaving_the_word_as_it_is(w):
    """A planted defect: the slide composition does no slide."""
    return w


def gamma_expand_with_a_larger_first_entry(poly, d):
    """A planted defect: gamma_0 is one too large."""
    g = GAMMA_EXPAND(poly, d)
    return g._replace(gamma=(g.gamma[0] + 1, *g.gamma[1:]))


def all_dyck_paths_dropping_the_last(n):
    """A planted defect: the last Dyck path is lost."""
    return list(ALL_DYCK_PATHS(n))[:-1]


def joint_distributions_with_an_extra_word(n):
    """A planted defect: the (veh', siveh) tally counts one more word at
    (0, 0)."""
    lhs, rhs = JOINT_DISTRIBUTIONS(n)
    return lhs + Counter({(0, 0): 1}), rhs


def wp_polynomial_with_a_larger_constant(P):
    """A planted defect: the constant coefficient of W(P;t) is one too
    large, while its basis coefficients stay right."""
    wpp = WP_POLYNOMIAL(P)
    return wpp._replace(W=(wpp.W[0] + 1, *wpp.W[1:]))


def orbits_dropping_the_last(seeds, hop):
    """A planted defect: the last orbit is lost."""
    return list(orbits(seeds, hop))[:-1]


def involution_counts_with_a_dip(n):
    """A planted defect: at n = 5 the counts are symmetric, but the middle
    one dips below its neighbours."""
    return (1, 6, 5, 6, 1) if n == 5 else INVOLUTION_DESCENT_POLY(n)


def hop_product_dropping_the_smallest_letter(w, letters, hop):
    """A planted defect: the hop at the smallest letter of the mask is left
    out."""
    return HOP_PRODUCT(w, letters & (letters - 1), hop)


def hop_product_doing_nothing(w, letters, hop):
    """A planted defect: no hop is applied, so psi and phi_cap are the
    identity, each the other's inverse."""
    return w


def hop_product_collapsing_each_descent_count(w, letters, hop):
    """A planted defect: the image is the first word, in 1..n, with one
    descent per letter of the mask, so des of the image is still the mask's
    size."""
    k = letters.bit_count()
    return (*range(k + 1, 0, -1), *range(k + 2, len(w) + 1))


def hop_product_reverse_complemented(w, letters, hop):
    """A planted defect: the true image, reversed and complemented, which
    keeps its descent count and the bijection."""
    n = len(w)
    return tuple(n + 1 - a for a in reversed(HOP_PRODUCT(w, letters, hop)))


def bni_polynomial_with_a_negative_term(n, i):
    """A planted defect: b_(n,i) gains the term -p^9 q^9."""
    return BNI_POLYNOMIAL(n, i) + IntPolynomial(("p", "q"), {(9, 9): -1})


def theta_of_the_first_word_with_its_descent_set(w):
    """A planted defect: theta of the word of 1..n that reverses each run of
    w's descent positions.  That word has w's descent set, so EV of the
    image is still Des(w), but all words with one descent set share one
    image."""
    v, start = [], 0
    for i in range(1, len(w) + 1):
        if i == len(w) or w[i - 1] < w[i]:
            v += range(i, start, -1)
            start = i
    return THETA(tuple(v))


# a planted defect: veh and the even-height up-step count of every path are
# both one too large, so each word's statistics still translate
TREES_WITH_EVEN_HEIGHTS_PLUS_ONE = SimpleNamespace(
    dyck_path=TREES.dyck_path,
    dyck_path_via_tree=TREES.dyck_path_via_tree,
    all_dyck_paths=TREES.all_dyck_paths,
    veh=lambda w: TREES.veh(w) + 1,
    kreweras_stats=lambda p: (TREES.kreweras_stats(p)[0] + 1, TREES.kreweras_stats(p)[1]),
)


def class_polys_with_negated_b(descent_counts, peak_counts, n):
    """A planted defect: every b_i of the class changes sign."""
    cp = CLASS_POLYS_FROM_COUNTS(descent_counts, peak_counts, n)
    return cp._replace(b=tuple(-b for b in cp.b))


def pattern_tally_peaking_at_every_descent(n):
    """A planted defect: the transfer adds one to peak at every descent, not
    only at a descent from a letter reached by a rise."""
    step, descent = PATTERN_STEP(n), 1 << 3 * stat_bits(n)
    return transfer((0, 0, False), n, lambda state, k: [
        (to, delta | 1 if delta >= descent else delta) for to, delta in step(state, k)], 4)


def pattern_tally_doubled(n):
    """A planted defect: every count doubled.  The scaled peak counts still
    rebuild the doubled descent polynomial, so only corre's word-by-word
    oracle (n <= 7) or the Eulerian recurrence (above) can tell."""
    return Counter({k: 2 * c for k, c in PATTERN_TALLY(n).items()})


def des_plus_one_after_a_leading_maximum(w):
    """A planted defect: a word that opens with its largest letter counts one
    descent too many, so gessel groups some tau by a wrong descent number."""
    return des(w) + (len(w) > 1 and w[0] == max(w))


def involution_counts_negative_at_3(n):
    """A planted defect: at n = 3 the counts are symmetric and unimodal, but
    negative."""
    return (-1, 0, -1) if n == 3 else INVOLUTION_DESCENT_POLY(n)


# planted defects that pass every oracle a suite runs first and fail one of
# its own checks that no BROKEN_KERNELS entry reaches; kept out of
# BROKEN_KERNELS so that its pinned digest stays as it was recorded
BROKEN_CHECKS = [
    ("orb", 4, harness.action, ("shape", shape_with_a_peak_at_an_opening_descent), "peak is not constant"),
    ("wp", 4, harness.action, ("shape", shape_with_a_peak_at_an_opening_descent), "rank-0 peak"),
    ("stack-invariance", 4, harness.action, ("phi_x", phi_x_moving_the_letter_to_the_front),
     "non-peak block swap"),
    ("psi-prime", 6, harness.trees, ("hop_product", hop_product_dropping_the_largest_letter),
     "des of the image differs from veh"),
    ("narayana", 6, harness.patterns, ("avoiding_permutations", avoiders_dropping_the_last), "Catalan number"),
    ("narayana", 6, harness.patterns, ("avoiding_permutations", avoiders_repeating_the_first),
     "differs from the closed form"),
    ("narayana", 4, harness, ("peak", peak_under_the_zero_boundary), "peak count at k"),
    ("kreweras", 6, harness.trees, ("dyck_path", dyck_path_swapping_two_steps), "does not translate"),
    ("genbona", 4, harness.patterns, ("narayana", narayana_with_a_wrong_gamma), "Narayana gamma"),
    ("slides-equal-recursive", 4, harness.stacksort, ("stack_sort_via_slides", slides_leaving_the_word_as_it_is),
     "slide composition differs"),
    ("corre", 4, harness, ("gamma_expand", gamma_expand_with_a_larger_first_entry), "!= Eulerian gamma"),
    ("genbona", 4, harness, ("gamma_expand", gamma_expand_with_a_larger_first_entry), "b_i of all words"),
    ("kreweras", 4, harness.trees, ("all_dyck_paths", all_dyck_paths_dropping_the_last),
     "not a bijection onto Dyck paths"),
    ("euler-mahonian", 6, harness.mahonian, ("joint_distributions", joint_distributions_with_an_extra_word),
     "joint distributions differ"),
    ("wp", 4, harness.posets, ("wp_polynomial", wp_polynomial_with_a_larger_constant), "do not sum to W(P;t)"),
    ("wp", 4, harness.action, ("orbits", orbits_dropping_the_last), "do not partition"),
    ("brenti-logconcave", 5, harness, ("involution_descent_poly", involution_counts_with_a_dip), "not unimodal"),
    ("psiphi", 4, harness.trees, ("hop_product", hop_product_dropping_the_smallest_letter), "not mutually inverse"),
    ("psiphi", 4, harness.trees, ("hop_product", hop_product_doing_nothing), "do not map to right children"),
    ("psi-prime", 6, harness.trees, ("hop_product", hop_product_collapsing_each_descent_count),
     "not a bijection"),
    ("psi-prime", 6, harness.trees, ("hop_product", hop_product_reverse_complemented), "are not preserved"),
    ("pq-symmetry", 4, harness.patterns, ("apq_polynomial", apq_polynomial_plus_p), "!= A_n(q,p,t)"),
    ("pq-symmetry", 4, harness.patterns, ("bni_polynomial", bni_polynomial_with_a_negative_term),
     "has a negative coefficient"),
    ("evt", 6, harness.mahonian, ("theta", theta_skipping_the_complement), "differ from the descent set"),
    ("evt", 6, harness.mahonian, ("theta", theta_of_the_first_word_with_its_descent_set), "not a bijection"),
    ("kreweras", 4, harness, ("trees", TREES_WITH_EVEN_HEIGHTS_PLUS_ONE), "not equidistributed"),
    ("guo-zeng", 4, harness, ("involution_descent_poly", involution_poly_leaning_left), "is not symmetric"),
    ("genbona", 4, harness.action, ("class_polys_from_counts", class_polys_with_negated_b), "negative b_i"),
    ("corre", 3, harness.patterns, ("pattern_tally", pattern_tally_peaking_at_every_descent),
     "letter-set transfer tally"),
    ("corre", 7, harness.patterns, ("pattern_tally", pattern_tally_peaking_at_every_descent),
     "letter-set transfer tally"),
    ("corre", 5, harness.patterns, ("pattern_tally", pattern_tally_doubled), "class tallies disagree"),
    ("corre", 8, harness.patterns, ("pattern_tally", pattern_tally_doubled), "Eulerian recurrence"),
    ("gessel", 5, harness, ("des", des_plus_one_after_a_leading_maximum),
     "depends on more than the descent number"),
    ("brenti-logconcave", 3, harness, ("involution_descent_poly", involution_counts_negative_at_3),
     "negative count"),
    ("gessel", 5, harness, ("gessel_expand", gessel_expand_negative_at_5), "does not rebuild"),
]


# (suite, n, planted name, id of the planted object) -> the frame that raised
# the planted entry's last Failure, or None when it raised none
RAISED: dict[tuple, traceback.FrameSummary | None] = {}


def _plant(monkeypatch, suite, n, target, broken) -> None:
    """Plant broken in target and wrap suite's runner so that it records the
    frame of each Failure it raises in RAISED."""
    monkeypatch.setattr(target, *broken)
    runner, key = SUITES[suite].runner, (suite, n, broken[0], id(broken[1]))
    RAISED[key] = None

    def recording(m):
        try:
            return runner(m)
        except harness.Failure as f:
            RAISED[key] = traceback.extract_tb(f.__traceback__)[-1]
            raise

    monkeypatch.setattr(SUITES[suite], "runner", recording)


@pytest.mark.parametrize("suite, n, target, broken, stage", BROKEN_KERNELS + BROKEN_CHECKS)
def test_in_suite_oracles_catch_a_broken_kernel(
    monkeypatch, fresh_pattern_tables, suite, n, target, broken, stage
):
    _plant(monkeypatch, suite, n, target, broken)
    inst = harness._run_instance(suite, n)
    assert not inst.ok and inst.hard_failure
    assert stage in inst.detail


def test_planted_defect_instances_are_pinned(monkeypatch, fresh_pattern_tables):
    # the detail, witness and hard flag of every failure in BROKEN_KERNELS
    digest = hashlib.sha256()
    for suite, n, target, broken, _ in BROKEN_KERNELS:
        with monkeypatch.context() as m:
            m.setattr(target, *broken)
            _clear_pattern_caches()
            inst = harness._run_instance(suite, n)
        digest.update(json.dumps(inst.to_json_dict(), sort_keys=True).encode() + b"\n")
    _clear_pattern_caches()
    assert digest.hexdigest() == "b823227a40d905a831fd865beba9a43630d1fc589b758c88a4333859898f44de"


def test_wp_lists_the_extensions_of_each_poset_once(monkeypatch):
    listed = []
    listing = harness.posets.linear_extensions
    monkeypatch.setattr(harness.posets, "linear_extensions", lambda P: listed.append(P) or listing(P))
    assert harness._run_instance("wp", 5).ok
    # 34 posets of size 5, each listed once, whatever its r
    assert len(listed) == 34


def gamma_vector_with_a_negative_entry(n):
    """A planted counterexample: from n = 3 on, the involution descent
    polynomial has gamma vector (1, -1)."""
    return GammaExpansion(n - 1, (1, -1)).reconstruct() if n >= 3 else INVOLUTION_DESCENT_POLY(n)


def b_n1_not_divisible_past_the_scans(n, i):
    """A planted counterexample: at n = 6, past the scan oracle, b_(6,1)
    gains a term p, so p + q no longer divides it."""
    b = BNI_POLYNOMIAL(n, i)
    return b + IntPolynomial.variable("p", ("p", "q")) if (n, i) == (6, 1) else b


def sliced_tally_losing_1000_at_5(rows, classes, full):
    """A planted counterexample: at n = 5 (four rows, one per adjacent pair
    of tau) every joint tally loses 1000 (1+st)^4, so c(0, 0) = -999 and
    the expansion still rebuilds F."""
    tally = SLICED_TALLY(rows, classes, full)
    if len(rows) == 4:
        for b in range(5):
            tally[b, b] = tally.get((b, b), 0) - 1000 * math.comb(4, b)
    return tally


def involution_counts_not_log_concave(n):
    """A planted counterexample: at n = 6 the counts are symmetric and
    unimodal but 2^2 < 1 * 5."""
    return (1, 2, 5, 5, 2, 1) if n == 6 else INVOLUTION_DESCENT_POLY(n)



# (suite, max_n, module, (name, planted kernel), exit code, a phrase of the summary)
CONJECTURE_EXITS = [
    ("guo-zeng", 4, harness, ("involution_descent_poly", gamma_vector_with_a_negative_entry), 3,
     "COUNTEREXAMPLE at n = 3"),
    ("divisibility", 6, patterns, ("bni_polynomial", b_n1_not_divisible_past_the_scans), 3,
     "COUNTEREXAMPLE at n = 6"),
    ("brenti-logconcave", 6, harness, ("involution_descent_poly", involution_counts_not_log_concave), 3,
     "COUNTEREXAMPLE at n = 6"),
    ("guo-zeng", 4, harness.words, ("involutions", involutions_repeating_one_word), 1, "FAIL at n = 2"),
    ("divisibility", 4, patterns, ("_pattern_tables", pattern_tables_with_a_wrong_entry), 1, "FAIL at n = 1"),
    ("brenti-logconcave", 4, harness, ("involution_descent_poly", involution_poly_leaning_left), 1,
     "FAIL at n = 2"),
    ("gessel", 5, harness.words, ("sliced_tally", sliced_tally_losing_1000_at_5), 3, "COUNTEREXAMPLE at n = 5"),
    ("brenti-logconcave", 3, harness, ("involution_descent_poly", involution_counts_negative_at_3), 1,
     "FAIL at n = 3 (proven part violated): negative count"),
]


@pytest.mark.parametrize("suite, max_n, target, planted, code, summary", CONJECTURE_EXITS)
def test_conjecture_suites_separate_counterexamples_from_broken_kernels(
    capsys, monkeypatch, fresh_pattern_tables, suite, max_n, target, planted, code, summary
):
    _plant(monkeypatch, suite, max_n, target, planted)
    assert main(["verify", suite, "--max-n", str(max_n)]) == code
    assert summary in capsys.readouterr().out


def test_every_failure_raise_is_reached_by_a_planted_defect(monkeypatch, fresh_pattern_tables):
    """Each `raise Failure(` line of harness.py is the raising line of some
    planted entry's Failure, read from its traceback.  The planted tests above
    record these as they run; an entry they have not run here runs now."""
    for suite, n, target, broken, _ in BROKEN_KERNELS + BROKEN_CHECKS:
        if (suite, n, broken[0], id(broken[1])) not in RAISED:
            with monkeypatch.context() as m:
                _plant(m, suite, n, target, broken)
                _clear_pattern_caches()
                harness._run_instance(suite, n)
    for suite, max_n, target, planted, _, _ in CONJECTURE_EXITS:
        if (suite, max_n, planted[0], id(planted[1])) not in RAISED:
            with monkeypatch.context() as m:
                _plant(m, suite, max_n, target, planted)
                _clear_pattern_caches()
                run_suite(suite, max_n)
    with open(harness.__file__, encoding="utf-8") as fh:
        raises = {k for k, line in enumerate(fh, 1) if "raise Failure(" in line}
    reached = {frame.lineno for frame in RAISED.values() if frame and frame.filename == harness.__file__}
    assert sorted(raises - reached) == []


def involutions_repeating_one_word_at_4(n):
    """A planted defect at n = 4 only, past a planted counterexample at n = 3."""
    return involutions_repeating_one_word(n) if n == 4 else INVOLUTIONS(n)


def test_summary_names_the_hard_failure_behind_exit_1(capsys, monkeypatch, fresh_pattern_tables):
    monkeypatch.setattr(harness, "involution_descent_poly", gamma_vector_with_a_negative_entry)
    monkeypatch.setattr(harness.words, "involutions", involutions_repeating_one_word_at_4)
    assert main(["verify", "guo-zeng", "--max-n", "4"]) == 1
    captured = capsys.readouterr()
    summary = "guo-zeng: FAIL at n = 4 (proven part violated): size-built involutions"
    assert summary in captured.err and summary in captured.out
    assert "COUNTEREXAMPLE" not in captured.err


def involutions_crashing(n):
    """A planted crash: an exception that is no Failure."""
    raise ZeroDivisionError("planted")


def test_a_crashing_kernel_is_a_hard_error(capsys, monkeypatch, fresh_pattern_tables):
    monkeypatch.setattr(harness.words, "involutions", involutions_crashing)
    inst = harness._run_instance("guo-zeng", 3)
    assert not inst.ok and inst.hard_failure
    assert inst.detail == "error: ZeroDivisionError('planted')"
    # the report keeps its one-line detail; the traceback goes to stderr
    err = capsys.readouterr().err
    assert f'File "{__file__}"' in err and ", in involutions_crashing" in err
    # a crash in a conjecture suite exits 1, not 3
    assert main(["verify", "guo-zeng", "--max-n", "3"]) == 1
    assert "FAIL at n = 1 (proven part violated): error: ZeroDivisionError" in capsys.readouterr().err


def test_the_orbit_path_builds_no_int_polynomial(monkeypatch):
    """Polynomials in t are dense tuples: the orbit suites, genbona's class
    polynomials and the orbit of one word build no IntPolynomial."""

    def refuse(self, *args, **kwargs):
        raise AssertionError("an IntPolynomial was built on the orbit path")

    _closed_form.cache_clear()  # an earlier test may have filled it
    monkeypatch.setattr(IntPolynomial, "__init__", refuse)
    for name, n in [("orb", 7), ("corre", 7), ("genbona", 6)]:
        report = run_suite(name, n)
        assert report.passed, report.summary_line()
    assert orbit((2, 4, 1, 3)).descent_poly == (0, 1, 1)


def test_verify_corre_exits_1_when_hops_move_peaks(capsys, monkeypatch):
    monkeypatch.setattr(harness.action, "phi_prime_x", phi_prime_x_swapping_peaks)
    assert main(["verify", "corre", "--max-n", "5"]) == 1
    assert "factorization" in capsys.readouterr().out


# the bindings perfbench/selftest.py's check_tracer patches and restores
TRACED_DES = [("permact.words", "des"), ("permact.action", "des"), ("permact.harness", "des")]


def test_bindings_the_benchmark_tracer_patches_exist(monkeypatch):
    missing = [f"{mod}.{name}" for mod, name in TRACED_DES
               if not hasattr(importlib.import_module(mod), name)]
    assert not missing, (
        f"perfbench/selftest.py check_tracer patches {missing}, which no longer exist; "
        "keep the bindings or change the benchmark's selftest in a benchmark change"
    )
    assert "__mul__" in IntPolynomial.__dict__ and "from_counts" in IntPolynomial.__dict__, (
        "perfbench/selftest.py check_tracer patches IntPolynomial.__mul__ and from_counts"
    )
    calls = 0

    def counting_des(w):
        nonlocal calls
        calls += 1
        return des(w)

    for mod, name in TRACED_DES:
        monkeypatch.setattr(importlib.import_module(mod), name, counting_des)
    assert harness._run_instance("orb", 4).ok
    assert calls > 0, "orb at n = 4 no longer calls des, which perfbench/selftest.py check_tracer expects"
