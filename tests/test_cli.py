import csv
import hashlib
import io
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import permact
from permact.cli import MAX_TREE_DEPTH, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_stats(capsys):
    code, out, _ = run_cli(capsys, "stats", "573148926")
    assert code == 0
    data = json.loads(out)
    assert data["des"] == 3
    assert data["maj"] == 12
    assert data["peak"] == 2
    assert data["count_2_31"] == 6
    # the odd and right-edge sets take negative letters too
    code, out, _ = run_cli(capsys, "stats", "3 -1 2 -4")
    assert code == 0
    data = json.loads(out)
    assert (data["odd"], data["redge"], data["veh"]) == ([-1, 2], [-4, 2], 2)


def test_orbit(capsys):
    code, out, _ = run_cli(capsys, "orbit", "21")
    data = json.loads(out)
    assert code == 0
    assert data["members"] == [[1, 2], [2, 1]]
    assert data["rep"] == [1, 2]


def test_orbit_zero_boundary_needs_negative_letters(capsys):
    for word in ("12", "123"):
        code, out, err = run_cli(capsys, "orbit", word, "--boundary", "zero")
        assert code == 2
        assert not out
        assert "negative" in err
    code, out, _ = run_cli(capsys, "orbit", "-2 -1", "--boundary", "zero")
    assert code == 0
    assert json.loads(out)["members"] == [[-2, -1], [-1, -2]]


@pytest.mark.parametrize("word, code", [("1 2 3 4 5 6", 2), ("1 2 3 4 5", 0)])
def test_orbit_above_the_enumeration_cap_is_usage_error(capsys, monkeypatch, word, code):
    # the increasing word on n letters has 2^(n-1) orbit members, against 4! = 24
    from permact import action

    monkeypatch.setenv("PERMACT_MAX_N", "4")
    if code == 2:
        monkeypatch.setattr(action, "orbit_members", None)  # refused before any hop
    got, out, err = run_cli(capsys, "orbit", word)
    assert got == code
    if code == 2:
        assert not out
        assert "32 members" in err and "PERMACT_MAX_N" in err
    else:
        assert len(json.loads(out)["members"]) == 16


def test_sort_methods_agree(capsys):
    _, rec, _ = run_cli(capsys, "sort", "573148926")
    _, sli, _ = run_cli(capsys, "sort", "573148926", "--method", "slides")
    assert rec == sli
    assert rec.strip() == "5 1 3 4 7 8 2 6 9"


def test_sort_iterate(capsys):
    code, out, _ = run_cli(capsys, "sort", "2 3 1", "--iterate", "2")
    assert code == 0
    assert out.strip() == "1 2 3"


def test_sort_negative_iterate_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "sort", "2413", "--iterate", "-2")
    assert code == 2
    assert not out
    assert "nonnegative" in err


@pytest.mark.parametrize("method, name", [("recursive", "stack_sort"), ("slides", "stack_sort_via_slides")])
def test_sort_iterate_stops_at_the_sorted_word(capsys, monkeypatch, method, name):
    # S fixes the increasing word, so passes after it change nothing
    from permact import stacksort

    calls = []
    sort = getattr(stacksort, name)

    def counting_sort(w):
        calls.append(w)
        return sort(w)

    monkeypatch.setattr(stacksort, name, counting_sort)
    for word, passes in [("2431", 2), ("573148926", 6), ("21", 1), ("12", 0)]:
        calls.clear()
        code, out, _ = run_cli(capsys, "sort", word, "--iterate", str(10**12), "--method", method)
        assert code == 0
        assert out == " ".join(sorted(word)) + "\n"
        assert len(calls) == passes <= len(word)


def test_sort_by_slides_with_a_broken_slide_exits_1(capsys, monkeypatch):
    # every top of an original descent still tops one when its turn comes,
    # by theorem; a slide that stops one place short breaks that in 3 2 1
    from permact import stacksort

    slide = stacksort._slide

    def slide_one_place_short(v, k):
        x = v[k]
        slide(v, k)
        m = v.index(x)
        v.insert(m - 1, v.pop(m))

    monkeypatch.setattr(stacksort, "_slide", slide_one_place_short)
    code, out, err = run_cli(capsys, "sort", "3 2 1", "--method", "slides")
    assert code == 1
    assert not out
    assert "broke their invariant" in err


LONG = 1500  # past the default recursion limit


@pytest.mark.parametrize("letters", [range(1, LONG + 1), range(LONG, 0, -1)])
def test_sort_long_word(capsys, letters):
    code, out, _ = run_cli(capsys, "sort", " ".join(map(str, letters)))
    assert code == 0
    assert out.split() == [str(a) for a in range(1, LONG + 1)]


@pytest.mark.parametrize("letters", [range(1, LONG + 1), range(LONG, 0, -1)])
def test_sort_long_word_by_slides(capsys, letters):
    code, out, _ = run_cli(capsys, "sort", " ".join(map(str, letters)), "--method", "slides")
    assert code == 0
    assert out.split() == [str(a) for a in range(1, LONG + 1)]


@pytest.mark.parametrize("letters, descents, depth", [
    (range(1, LONG + 1), 0, 0),
    (range(LONG, 0, -1), LONG - 1, 1),
])
def test_stats_long_word(capsys, letters, descents, depth):
    code, out, _ = run_cli(capsys, "stats", " ".join(map(str, letters)))
    assert code == 0
    data = json.loads(out)
    assert data["des"] == len(data["redge"]) == descents
    assert data["sort_depth"] == depth
    assert data["veh"] == len(data["odd"])


def test_class_rsortable(capsys):
    code, out, _ = run_cli(capsys, "class", "rsortable", "--n", "4", "--r", "1")
    data = json.loads(out)
    assert code == 0
    assert data["count"] == 14


def test_class_rsortable_gamma(capsys):
    code, out, _ = run_cli(
        capsys, "class", "rsortable", "--n", "4", "--r", "1", "--poly", "gamma"
    )
    data = json.loads(out)
    assert code == 0


def test_class_rsortable_gamma_on_a_broken_class_exits_1(capsys, monkeypatch):
    # r-sortable classes are action-invariant by theorem, so a class missing
    # one word is a broken identity, not bad input
    from permact import stacksort

    enumerate_r_sortable = stacksort.enumerate_r_sortable
    monkeypatch.setattr(stacksort, "enumerate_r_sortable", lambda n, r: enumerate_r_sortable(n, r)[1:])
    code, out, err = run_cli(capsys, "class", "rsortable", "--n", "4", "--r", "1", "--poly", "gamma")
    assert code == 1
    assert not out
    assert "not action-invariant" in err


def test_class_rsortable_gamma_on_integral_but_broken_counts_exits_1(capsys, monkeypatch):
    # without two peak-1 words the scaled peak counts stay integers but no
    # longer rebuild the descent polynomial: a broken identity, not bad input
    from permact import stacksort, words

    enumerate_r_sortable = stacksort.enumerate_r_sortable

    def dropping_two_peak_1_words(n, r):
        members = enumerate_r_sortable(n, r)
        dropped = [w for w in members if words.peak(w) == 1][:2]
        return [w for w in members if w not in dropped]

    monkeypatch.setattr(stacksort, "enumerate_r_sortable", dropping_two_peak_1_words)
    code, out, err = run_cli(capsys, "class", "rsortable", "--n", "4", "--r", "1", "--poly", "gamma")
    assert code == 1
    assert not out
    assert "does not match the scaled peak counts" in err


def test_class_rsortable_negative_r_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "class", "rsortable", "--n", "3", "--r", "-1")
    assert code == 2
    assert not out
    assert "r must be nonnegative" in err


@pytest.mark.parametrize("n, r, phrase", [
    (2, 0, "r >= 1"),
    (5, 0, "r >= 1"),
    (0, 1, "needs --n of at least 1"),
    (0, 0, "needs --n of at least 1"),
])
def test_class_rsortable_gamma_outside_the_hypotheses_is_usage_error(capsys, n, r, phrase):
    # {identity} is action-invariant in S_1 only, and S_0 has no b-expansion
    code, out, err = run_cli(capsys, "class", "rsortable", "--n", str(n), "--r", str(r), "--poly", "gamma")
    assert code == 2
    assert not out
    assert phrase in err


def test_class_rsortable_gamma_of_the_identity_of_s1(capsys):
    code, out, _ = run_cli(capsys, "class", "rsortable", "--n", "1", "--r", "0", "--poly", "gamma")
    assert code == 0
    assert json.loads(out)["poly"] == {"d": 0, "gamma": [1]}


def test_apq_latex(capsys):
    code, out, _ = run_cli(capsys, "apq", "--n", "3", "--out", "latex")
    assert code == 0
    assert out.strip() == "(1+t)^2 + (p+q)t"


def test_apq_nonpositive_n_is_usage_error(capsys):
    for n in ("0", "-1"):
        for out_format in ("json", "latex"):
            code, out, err = run_cli(capsys, "apq", "--n", n, "--out", out_format)
            assert code == 2
            assert not out
            assert "at least 1" in err


@pytest.mark.parametrize("argv, least", [
    (("mahonian", "--n", "-1"), 0),
    (("class", "rsortable", "--n", "-1", "--r", "1"), 0),
    (("table", "eulerian", "--n", "-2"), 1),
    (("table", "eulerian", "--n", "0"), 1),
])
def test_size_below_the_smallest_n_is_usage_error(capsys, argv, least):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert not out
    assert f"at least {least}" in err


def test_tree_kinds(capsys):
    for kind in ("binary", "unordered", "increasing"):
        code, out, _ = run_cli(capsys, "tree", "312", "--kind", kind)
        assert code == 0
        json.loads(out)


@pytest.mark.parametrize("letters, kind", [
    (range(1, LONG + 1), "binary"),
    *((range(LONG, 0, -1), kind) for kind in ("binary", "unordered", "increasing")),
])
def test_tree_too_deep_for_json_exits_2(capsys, letters, kind):
    code, out, err = run_cli(capsys, "tree", " ".join(map(str, letters)), "--kind", kind)
    assert code == 2
    assert out == ""
    assert str(MAX_TREE_DEPTH) in err


@pytest.mark.parametrize("kind", ["unordered", "increasing"])
def test_flat_tree_of_long_increasing_word(capsys, kind):
    """Every letter of 1 2 ... n hangs below the root in these two trees."""
    code, out, _ = run_cli(capsys, "tree", " ".join(map(str, range(1, LONG + 1))), "--kind", kind)
    assert code == 0
    assert len(json.loads(out)["children"]) == LONG


@pytest.mark.parametrize("kind, sha256", [
    ("binary", "c8b1b119dfbf26a7a59410d7a0590de2adb39785e55e47551258c53241e6b7ea"),
    ("unordered", "01c14d22f1886cb20a808067f0448b2c77ee3c5df248e6f4c3ea3a2f02b9304a"),
    ("increasing", "0c1651d3e26d96d4fbb31b755b4f37e76261c1ef702e2adb9f7d5333ddf98419"),
])
def test_tree_at_the_depth_limit_keeps_its_bytes(capsys, kind, sha256):
    """The decreasing word of MAX_TREE_DEPTH letters gives a chain of that
    many labeled levels in all three trees; the digests pin the bytes the
    recursive JSON construction printed."""
    code, out, _ = run_cli(capsys, "tree", " ".join(map(str, range(MAX_TREE_DEPTH, 0, -1))), "--kind", kind)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


def test_dyck(capsys):
    code, out, _ = run_cli(capsys, "dyck", "213")
    assert code == 0
    assert out.strip() == "uduudd"
    code, _, err = run_cli(capsys, "dyck", "231")
    assert code == 2
    assert "231" in err


@pytest.mark.parametrize("letters, path", [
    (range(1, LONG + 1), "ud" * LONG),
    (range(LONG, 0, -1), "u" * LONG + "d" * LONG),
])
def test_dyck_long_word(capsys, letters, path):
    code, out, _ = run_cli(capsys, "dyck", " ".join(map(str, letters)))
    assert code == 0
    assert out.strip() == path


def test_mahonian(capsys):
    code, out, _ = run_cli(capsys, "mahonian", "--n", "4")
    data = json.loads(out)
    assert code == 0
    assert data["equal"] is True


def test_mahonian_above_the_enumeration_cap_is_usage_error(capsys, monkeypatch):
    monkeypatch.delenv("PERMACT_MAX_N", raising=False)
    code, out, err = run_cli(capsys, "mahonian", "--n", "11")
    assert code == 2
    assert not out
    assert "enumeration cap" in err


@pytest.mark.parametrize("n, code", [(6, 0), (7, 2)])
def test_involution_table_above_the_enumeration_cap_is_usage_error(capsys, monkeypatch, n, code):
    # I(6) = 76 and I(7) = 232 involutions, against 5! = 120
    from permact import words

    monkeypatch.setenv("PERMACT_MAX_N", "5")
    if code == 2:
        monkeypatch.setattr(words, "involutions", None)  # refused before any is built
    got, out, err = run_cli(capsys, "table", "involution", "--n", str(n))
    assert got == code
    if code == 2:
        assert not out
        assert "232 members" in err and "PERMACT_MAX_N" in err
    else:
        assert out.splitlines()[-1].startswith("6,")


def _write_poset(tmp_path):
    payload = {
        "elements": ["a", "b", "c"],
        "covers": [["a", "c"], ["b", "c"]],
        "labels": {"a": -2, "b": -1, "c": 1},
    }
    path = tmp_path / "poset.json"
    path.write_text(json.dumps(payload))
    return str(path)


def test_poset_check(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "poset", _write_poset(tmp_path))
    data = json.loads(out)
    assert code == 0
    assert data["canonical"] is True
    assert data["r"] == 1


def test_poset_check_names_two_chains_with_different_sign_sums(capsys, tmp_path):
    # a 2-chain next to an isolated point: chain sums 1 and 0 disagree
    labels = {"a": -1, "b": 1, "c": -2}
    path = tmp_path / "poset.json"
    path.write_text(json.dumps({"elements": ["a", "b", "c"], "covers": [["a", "b"]], "labels": labels}))
    code, out, _ = run_cli(capsys, "poset", str(path))
    data = json.loads(out)
    assert code == 0
    assert data["sign_graded"] is False
    assert data["canonical"] is False
    sums = [sum(1 if labels[x] < labels[y] else -1 for x, y in zip(chain, chain[1:]))
            for chain in data["witness"]]
    assert len(sums) == 2 and sums[0] != sums[1]


def test_poset_poly(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "poset", _write_poset(tmp_path), "--poly")
    data = json.loads(out)
    assert code == 0
    assert data["a"] == [1]


def test_poset_orbits(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "poset", _write_poset(tmp_path), "--orbits")
    data = json.loads(out)
    assert code == 0
    assert len(data["orbits"]) == 1


def test_poset_poly_with_a_broken_wp_identity_exits_1(capsys, tmp_path, monkeypatch):
    # W(P;t) of a canonically labeled poset is symmetric by theorem, so an
    # asymmetric one is a broken identity, not bad input
    from permact import posets
    monkeypatch.setattr(posets, "descent_poly", lambda exts: (1, 2))
    code, out, err = run_cli(capsys, "poset", _write_poset(tmp_path), "--poly")
    assert code == 1
    assert not out
    assert "not palindromic" in err


@pytest.mark.parametrize("payload", [
    {"elements": [], "covers": [], "labels": {}},
    {"elements": ["a", "b"], "covers": [["a", "b"]], "labels": {"a": 1, "b": -1}},
], ids=["empty", "not-canonical"])
def test_poset_poly_on_bad_input_exits_2(capsys, tmp_path, payload):
    path = tmp_path / "poset.json"
    path.write_text(json.dumps(payload))
    code, out, err = run_cli(capsys, "poset", str(path), "--poly")
    assert code == 2
    assert not out
    assert err


@pytest.mark.parametrize("text, message", [
    ('{"elements": ["a"], "covers": [], "labels": {"b": -1}}', "KeyError 'b'"),
    ('{"covers": [], "labels": {}}', "KeyError 'elements'"),
    ('{"elements": ["a"], "covers": [1], "labels": {"a": -1}}', "TypeError"),
    ('{"elements": [["a"]], "covers": [], "labels": {}}', "TypeError"),
    ("[1, 2]", "TypeError"),
    ('{"elements": ["a", "a"], "covers": [], "labels": {"a": -1}}', "elements must be distinct"),
    ('{"elements": ["a"], "covers": [["a", "a"]], "labels": {"a": -1}}', "is reflexive"),
    ('{"elements": ["a", "b"], "covers": [], "labels": {"a": -1}}', "has no label"),
    ('{"elements": ["a", "b"], "covers": [], "labels": {"a": -1.7, "b": 2.9}}', "label -1.7 of 'a' is not an integer"),
    ('{"elements": ["a", "b"], "covers": [], "labels": {"a": -1, "b": 2.0}}', "label 2.0 of 'b' is not an integer"),
    ('{"elements": ["a", "b"], "covers": [], "labels": {"a": -1, "b": true}}', "label True of 'b' is not an integer"),
    ('{"elements": ["a", "b"], "covers": [], "labels": {"a": -1, "b": "1"}}', "label '1' of 'b' is not an integer"),
], ids=["unknown-label", "no-elements", "cover-not-a-pair", "unhashable-element", "not-an-object",
        "repeated-element", "reflexive-cover", "unlabeled-element", "fractional-labels", "integral-float-label",
        "bool-label", "string-label"])
@pytest.mark.parametrize("mode", [[], ["--poly"], ["--orbits"]], ids=["default", "poly", "orbits"])
def test_malformed_poset_file_exits_2(capsys, tmp_path, text, message, mode):
    path = tmp_path / "poset.json"
    path.write_text(text)
    code, out, err = run_cli(capsys, "poset", str(path), *mode)
    assert code == 2
    assert not out
    assert err.startswith("error:") and message in err
    assert "Traceback" not in err


def test_poset_has_no_check_option(capsys, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["poset", _write_poset(tmp_path), "--check"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --check" in capsys.readouterr().err


def test_table(capsys):
    code, out, _ = run_cli(capsys, "table", "narayana", "--n", "5")
    assert code == 0
    assert out.splitlines()[0] == "n,polynomial,gamma"


def test_table_with_an_asymmetric_eulerian_polynomial_exits_1(capsys, monkeypatch):
    # A_n(t) is symmetric by theorem, so an asymmetric one is a broken
    # identity, not bad input
    from permact import harness

    monkeypatch.setattr(harness, "eulerian_poly", lambda n: (2,) + (1,) * (n - 1))
    code, out, err = run_cli(capsys, "table", "eulerian", "--n", "4")
    assert code == 1
    assert not out
    assert "eulerian polynomial of size 2 is not symmetric" in err


# every command that prints a polynomial; FILE is the poset of _write_poset
POLYNOMIAL_OUTPUT_SHA256 = [
    ("orbit 2413", "94f1130ec5b2b1a02416e2b931da854424ed9aaeaba645a8247a0318c7224545"),
    ("orbit '-2 -4 -1 -3' --boundary zero", "263062db969abcd4a5c5f076c44b63c8ab6a891ceb3df8af15ac907710fcf9cd"),
    ("class rsortable --n 5 --r 2 --poly des", "0c4ee4f09b5085c367d4b4694ae168d95246185d95370f9770a374b2006e536c"),
    ("class rsortable --n 5 --r 2 --poly peak", "a7b55188b59f182e9ed0f9d3eb90c24c35abcb050951f21fe82fc6edeb58b907"),
    ("class rsortable --n 5 --r 2 --poly gamma", "de356496aea7691bd3246cc56bd5bf8f721e714ad73825acce0108961223b0dc"),
    ("poset FILE --poly", "e4b5d33d222359d46674e404daa5fd38f7beabfab84d786a104fcbd3f8d7f622"),
    ("poset FILE --orbits", "22e8e504c733ed977d7801618abca43388d0769e24f18ae8bbcae062edd12e01"),
    ("table eulerian --n 7 --format json", "4b2461696ca884179e070164e48588e24166c2f5f0e42c9a58921031f0b30e59"),
    ("table eulerian --n 7 --format csv", "94feb115e6fa754c6a4d803dbe47bacddecc8508fa13100d173c96e9431994ba"),
    ("table eulerian --n 7 --format latex", "645cb76cd73bc278df98b4a7561f4bf828ad8fade1a2582590dff138fcb1688d"),
    ("table narayana --n 7 --format json", "39a8f1b4e6c2f051f41c81313a32fb928c455a47d1c7c8d68ad9af44eb85fdfe"),
    ("table narayana --n 7 --format csv", "f131ae2702fe8b2ccaa36f2f74a97b09dd142a23ad3853d5d613b24a9900b0cb"),
    ("table narayana --n 7 --format latex", "7a0854e4894bfe80ea83e61f7ed3b15bdc0bd20b4476e03749118bf6eabc5d9f"),
    ("table involution --n 7 --format json", "d01c0eeb9b344e33a307e3097005097e456cb809998685a999c83044452e4f6e"),
    ("table involution --n 7 --format csv", "1ddd0548b44456121a9d394741943a30a73c8ef5b6715bdb0c28f8123b1770f7"),
    ("table involution --n 7 --format latex", "43733efef39a7514636b0e87106331a57708206bff9d01d8308a5df13ff950eb"),
    ("table apq --n 7 --format json", "d538d3d0a27d08bebd49d66966afb9e9801c44ef8012d860efae534e030cb381"),
    ("table apq --n 7 --format csv", "2c66e60b3c2ce44fc8a3e2b835590cee05e336ad2e331b7aacd86e93a1026f5a"),
    ("table apq --n 7 --format latex", "bca21fc4f4a10c0f22ff950a7f3e4445d6f131e283dfa5b201c99c276bb24ffc"),
    ("apq --n 5", "2108e357e0bb119610a37d7c74bd5c18ea5d8a56a5770b0b6936fc443fb6697b"),
    ("apq --n 5 --out latex", "dbf83c5f0951bb2bf5a3b1b1374b3b2bed84d82bff8d105197ba42cad1cf274e"),
]


@pytest.mark.parametrize("command, sha256", POLYNOMIAL_OUTPUT_SHA256, ids=[c for c, _ in POLYNOMIAL_OUTPUT_SHA256])
def test_polynomial_output_keeps_its_bytes(capsys, tmp_path, command, sha256):
    """The digests pin the bytes printed when every polynomial in t was an
    IntPolynomial."""
    argv = [_write_poset(tmp_path) if a == "FILE" else a for a in shlex.split(command)]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


def test_verify(capsys):
    code, out, err = run_cli(capsys, "verify", "narayana", "--max-n", "5")
    assert code == 0
    data = json.loads(out)
    assert data["passed"] is True
    assert "PASS" in err


def test_verify_writes_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, err = run_cli(
        capsys, "verify", "veh-altsum", "--max-n", "4", "--out", str(target)
    )
    assert code == 0
    assert json.loads(target.read_text())["suite"] == "veh-altsum"


def test_verify_csv(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "veh-altsum", "--max-n", "4", "--format", "csv"
    )
    assert code == 0
    assert out.splitlines()[0].startswith("suite,")
    code, out, _ = run_cli(capsys, "verify", "veh-altsum", "--max-n", "4", "--format", "csv", "--timing")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0][-2:] == ["data", "seconds"]
    assert [row[2] for row in rows[1:]] == ["1", "2", "3", "4"]
    for row in rows[1:]:
        whole, frac = row[-1].split(".")
        assert len(row) == len(rows[0]) and whole.isdigit() and len(frac) == 3 and frac.isdigit()


def test_verify_empty_range_is_usage_error(capsys, monkeypatch):
    code, out, err = run_cli(capsys, "verify", "orb", "--max-n", "0")
    assert code == 2
    assert not out
    assert "max_n" in err
    monkeypatch.setenv("PERMACT_MAX_N", "0")
    code, out, err = run_cli(capsys, "verify", "orb")
    assert code == 2
    assert "PERMACT_MAX_N" in err


def test_verify_timing_does_not_carry_over_to_the_next_call(capsys):
    code, out, _ = run_cli(capsys, "verify", "narayana", "--max-n", "3", "--timing")
    assert code == 0
    assert all("seconds" in inst for inst in json.loads(out)["instances"])
    code, out, _ = run_cli(capsys, "verify", "narayana", "--max-n", "3")
    assert code == 0
    assert "seconds" not in out


def _fresh_interpreter(code):
    """The stdout of code run by a new interpreter that imports permact from
    this checkout."""
    src = str(Path(permact.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True).stdout


def test_a_reader_that_stops_early_exits_141_quietly():
    # hundreds of kilobytes of JSON, far more than a pipe holds, so the
    # writes after the reader has gone fail
    src = str(Path(permact.__file__).resolve().parent.parent)
    proc = subprocess.Popen(
        [sys.executable, "-m", "permact.cli", "class", "rsortable", "--n", "7", "--r", "6"],
        env=dict(os.environ, PYTHONPATH=src), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), err) == (141, b"")


def test_unwritable_out_file_is_usage_error(capsys, tmp_path):
    code, out, err = run_cli(capsys, "verify", "narayana", "--max-n", "2", "--out", str(tmp_path / "no-dir" / "r.json"))
    assert code == 2
    assert not out
    assert "No such file" in err


def test_import_loads_no_process_pool():
    out = _fresh_interpreter(
        "import sys, permact.cli\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m.partition('.')[0] in ('concurrent', 'multiprocessing', 'logging')))"
    )
    assert out == "[]\n"


def test_import_loads_no_dataclasses_csv_or_fractions():
    # csv and fractions load on first use; the two uses still work afterwards
    out = _fresh_interpreter(
        "import sys, permact.cli\n"
        "print([m for m in ('dataclasses', 'inspect', 'ast', 'fractions', 'decimal', 'csv')\n"
        "       if m in sys.modules])\n"
        "from permact.polynomials import IntPolynomial, gessel_expand_via_solve\n"
        "s, t = (IntPolynomial.variable(v, ('s', 't')) for v in 'st')\n"
        "print(gessel_expand_via_solve((s + t) * (1 + s * t), 3).coeffs)\n"
        "sys.exit(permact.cli.main(['verify', 'narayana', '--max-n', '4', '--format', 'csv']))"
    )
    lines = out.splitlines()
    assert lines[:2] == ["[]", "{(1, 0): 1}"]
    assert lines[2].startswith("suite,kind,n,ok,")
    assert [row.split(",")[2:4] for row in lines[3:]] == [[str(n), "True"] for n in range(1, 5)]


def test_verify_nonpositive_jobs_is_usage_error(capsys):
    for jobs in ("0", "-3"):
        code, out, err = run_cli(capsys, "verify", "orb", "--jobs", jobs)
        assert code == 2
        assert not out
        assert "jobs" in err


def test_bad_word_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "stats", "1 1")
    assert code == 2
    assert err


def test_unknown_suite_is_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["verify", "no-such-suite"])
    assert info.value.code == 2
