"""scripts/bench_pair.py refuses a pair of checkouts it cannot compare."""

import importlib.util
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pair.py"
spec = importlib.util.spec_from_file_location("bench_pair", SCRIPT)
bench_pair = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pair)


def checkout(path: Path, run_py: str = "print('run')\n") -> Path:
    (path / "perfbench" / "__pycache__").mkdir(parents=True)
    (path / "perfbench" / "run.py").write_text(run_py)
    (path / "perfbench" / "__pycache__" / "run.pyc").write_bytes(str(path).encode())
    (path / "BENCHMARK.json").write_text('{"workloads": []}\n')
    return path


def test_same_benchmark_at_paths_of_equal_length_is_accepted(tmp_path):
    assert bench_pair.refusal(checkout(tmp_path / "a"), checkout(tmp_path / "b")) is None


def test_paths_of_unequal_length_are_refused(tmp_path):
    why = bench_pair.refusal(checkout(tmp_path / "a"), checkout(tmp_path / "bb"))
    assert "differ in length" in why


def test_differing_benchmark_bytes_are_refused(tmp_path):
    parent = checkout(tmp_path / "a")
    change = checkout(tmp_path / "b", run_py="print('other')\n")
    assert bench_pair.refusal(parent, change).endswith("perfbench/run.py")
    (change / "perfbench" / "run.py").write_text("print('run')\n")
    (change / "BENCHMARK.json").unlink()
    assert bench_pair.refusal(parent, change).endswith("BENCHMARK.json")


def test_main_exits_2_before_any_run(tmp_path, monkeypatch, capsys):
    def no_run(*args):
        raise AssertionError("a benchmark ran")

    monkeypatch.setattr(bench_pair, "run_bench", no_run)
    monkeypatch.setattr(sys, "argv", ["bench_pair.py", "--parent", str(checkout(tmp_path / "a")),
                                      "--change", str(checkout(tmp_path / "bb")), "--label", "x"])
    with pytest.raises(SystemExit) as info:
        bench_pair.main()
    assert info.value.code == 2
    assert "differ in length" in capsys.readouterr().err
