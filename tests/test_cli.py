import hashlib
import json
import os
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


def test_sort_methods_agree(capsys):
    _, rec, _ = run_cli(capsys, "sort", "573148926")
    _, sli, _ = run_cli(capsys, "sort", "573148926", "--method", "slides")
    assert rec == sli
    assert rec.strip() == "5 1 3 4 7 8 2 6 9"


def test_sort_iterate(capsys):
    code, out, _ = run_cli(capsys, "sort", "2 3 1", "--iterate", "2")
    assert code == 0
    assert out.strip() == "1 2 3"


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


def test_table(capsys):
    code, out, _ = run_cli(capsys, "table", "narayana", "--n", "5")
    assert code == 0
    assert out.splitlines()[0] == "n,polynomial,gamma"


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


def test_import_loads_no_process_pool():
    src = str(Path(permact.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    code = (
        "import sys, permact.cli\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m.partition('.')[0] in ('concurrent', 'multiprocessing', 'logging')))"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out == "[]\n"


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
