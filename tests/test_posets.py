import hashlib
import json
from functools import partial

import pytest

from permact.action import orbit_members, verified_orbit
from permact.posets import (
    BrokenInvariantError,
    CannotCanonicalizeError,
    InvalidPosetError,
    LabeledPoset,
    NotALinearExtensionError,
    NotCanonicalError,
    NotSignGradedError,
    adjoin_top,
    all_canonical_posets,
    is_canonical,
    is_linear_extension,
    linear_extensions,
    orbit_degree,
    psi_x_poset,
    sampled_canonical_posets,
    sign_grading,
    wp_polynomial,
)
from permact.words import Boundary


def v_poset():
    return LabeledPoset(
        ("a", "b", "c"), (("a", "c"), ("b", "c")), {"a": -2, "b": -1, "c": 1}
    )


def chain3():
    return LabeledPoset(
        ("a", "b", "c"), (("a", "b"), ("b", "c")), {"a": -1, "b": 1, "c": -2}
    )


def antichain(k):
    names = tuple("abcdef"[:k])
    return LabeledPoset(names, (), {x: -(i + 1) for i, x in enumerate(names)})


def test_construction_rejects_bad_input():
    with pytest.raises(InvalidPosetError):
        LabeledPoset(("a", "b"), (("a", "b"), ("b", "a")), {"a": -1, "b": 1})
    with pytest.raises(InvalidPosetError):
        LabeledPoset(("a",), (), {"a": 0})
    with pytest.raises(InvalidPosetError):
        LabeledPoset(("a", "b"), (), {"a": 1, "b": 1})
    with pytest.raises(InvalidPosetError):
        LabeledPoset(("a",), (("a", "z"),), {"a": 1})
    with pytest.raises(InvalidPosetError):
        # covers must form the transitive reduction
        LabeledPoset(
            ("a", "b", "c"),
            (("a", "b"), ("b", "c"), ("a", "c")),
            {"a": -1, "b": 1, "c": -2},
        )


def test_sign_grading_fixtures():
    g = sign_grading(v_poset())
    assert g.r == 1
    assert g.epsilon == {("a", "c"): 1, ("b", "c"): 1}
    assert g.rho == {"a": 0, "b": 0, "c": 1}
    g3 = sign_grading(chain3())
    assert g3.r == 0
    assert g3.rho == {"a": 0, "b": 1, "c": 0}


def test_sign_grading_failure_has_witness():
    # a 2-chain next to an isolated point: chain sums 1 and 0 disagree
    P = LabeledPoset(("a", "b", "c"), (("a", "b"),), {"a": -1, "b": 1, "c": -2})
    with pytest.raises(NotSignGradedError) as info:
        sign_grading(P)
    assert len(info.value.witness) == 2


def test_is_canonical():
    assert is_canonical(v_poset())
    assert is_canonical(chain3())
    assert is_canonical(antichain(3))
    # positive label on a minimal element
    P = LabeledPoset(("a", "b", "c"), (("a", "c"), ("b", "c")), {"a": 2, "b": -1, "c": 1})
    assert not is_canonical(P)
    # decreasing chain has r = -1
    C = LabeledPoset(("a", "b"), (("a", "b"),), {"a": 1, "b": -1})
    assert not is_canonical(C)


def test_linear_extensions():
    assert set(linear_extensions(v_poset())) == {(-2, -1, 1), (-1, -2, 1)}
    assert linear_extensions(chain3()) == [(-1, 1, -2)]
    assert len(linear_extensions(antichain(3))) == 6
    assert is_linear_extension(v_poset(), (-1, -2, 1))
    assert not is_linear_extension(v_poset(), (-1, 1, -2))
    assert not is_linear_extension(v_poset(), (-1, -2))


def test_psi_x_poset_fixtures():
    V = v_poset()
    assert psi_x_poset(V, (-2, -1, 1), -1) == (-1, -2, 1)
    assert psi_x_poset(V, (-2, -1, 1), -2) == (-2, -1, 1)
    assert psi_x_poset(V, (-2, -1, 1), 1) == (-2, -1, 1)
    with pytest.raises(NotALinearExtensionError):
        psi_x_poset(V, (-1, 1, -2), -1)


def test_psi_x_poset_rejects_a_hop_that_breaks_a_cover():
    # not canonical: both ends of the cover a < b carry negative labels, so
    # the double ascent -1 hops in front of -2
    P = LabeledPoset(("a", "b"), (("a", "b"),), {"a": -2, "b": -1})
    with pytest.raises(BrokenInvariantError, match="left the extension set"):
        psi_x_poset(P, (-2, -1), -1)


def test_psi_x_poset_involution_and_commutation():
    for P in all_canonical_posets(4):
        letters = sorted(P.labels.values())
        for ext in linear_extensions(P):
            for x in letters:
                once = psi_x_poset(P, ext, x)
                assert is_linear_extension(P, once)
                assert psi_x_poset(P, once, x) == ext
            for x in letters:
                for y in letters:
                    assert psi_x_poset(P, psi_x_poset(P, ext, x), y) == psi_x_poset(
                        P, psi_x_poset(P, ext, y), x
                    )


def poset_orbit(P, pi):
    """The orbit report of a linear extension, built as the wp suite and
    `permact poset --orbits` build it."""
    d = orbit_degree(P)
    return verified_orbit(sorted(orbit_members(pi, partial(psi_x_poset, P))), d, Boundary.ZERO)


def test_poset_orbit():
    V = v_poset()
    rep = poset_orbit(V, (-2, -1, 1))
    assert set(rep.members) == {(-2, -1, 1), (-1, -2, 1)}
    assert rep.rep == (-2, -1, 1)
    assert rep.descent_poly == (1, 1)
    assert poset_orbit(V, (-1, -2, 1)).members == rep.members
    bad = LabeledPoset(("a", "b"), (("a", "b"),), {"a": 1, "b": -1})
    with pytest.raises(NotCanonicalError):
        poset_orbit(bad, (1, -1))


def test_wp_polynomial_fixtures():
    wp = wp_polynomial(v_poset())
    assert wp.W == (1, 1)
    assert (wp.a, wp.r, wp.d) == ((1,), 1, 1)
    wp3 = wp_polynomial(chain3())
    assert wp3.W == (0, 1)
    assert (wp3.a, wp3.r, wp3.d) == ((0, 1), 0, 2)
    wp2 = wp_polynomial(antichain(2))
    assert wp2.W == (1, 1)
    assert (wp2.a, wp2.r, wp2.d) == ((1,), 0, 1)
    with pytest.raises(NotCanonicalError):
        wp_polynomial(LabeledPoset(("a", "b"), (("a", "b"),), {"a": 1, "b": -1}))


def test_wp_json_keys():
    data = wp_polynomial(v_poset()).to_json_dict()
    assert set(data) == {"W", "a", "r", "d"}


def test_adjoin_top():
    Q = adjoin_top(v_poset())
    assert is_canonical(Q)
    assert Q.labels["top"] == -3
    flat = adjoin_top(antichain(2))
    assert is_canonical(flat)
    assert flat.labels["top"] == 1
    bad = LabeledPoset(
        ("a", "b", "c"), (("a", "c"), ("b", "c")), {"a": -2, "b": -1, "c": -3}
    )
    with pytest.raises(CannotCanonicalizeError):
        adjoin_top(bad)


def test_corpus_counts():
    sizes = [len(all_canonical_posets(k)) for k in range(1, 6)]
    # cumulative counts of canonically labelable posets on at most k points
    assert sizes == [1, 3, 7, 18, 52]


def test_corpus_is_pinned():
    """The posets, their labelings and their order, as first recorded."""
    corpus = json.dumps([P.to_json_dict() for P in all_canonical_posets(5)], sort_keys=True)
    assert hashlib.sha256(corpus.encode()).hexdigest() == (
        "48415bf3e5f1125b0f59de16e61a165504d138e64450ed6df6da512d4ccac2d4"
    )


def test_corpus_members_are_canonical():
    for P in all_canonical_posets(4):
        assert is_canonical(P)
        sign_grading(P)


def test_sampled_corpus_is_deterministic():
    a = [P.to_json_dict() for P in sampled_canonical_posets(6, 5, seed=11)]
    b = [P.to_json_dict() for P in sampled_canonical_posets(6, 5, seed=11)]
    assert a == b
    for P in sampled_canonical_posets(6, 5, seed=11):
        assert is_canonical(P)


def test_labeled_poset_json_round_trip():
    for P in (v_poset(), chain3(), antichain(3)):
        Q = LabeledPoset.from_json_dict(P.to_json_dict())
        assert Q.elements == P.elements
        assert Q.covers == P.covers
        assert Q.labels == P.labels
