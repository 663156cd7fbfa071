import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
METRICS = [
    {"name": "run_s", "unit": "s", "better": "lower", "bound": 0.1},
    {"name": "quality", "unit": "ratio", "better": "higher", "bound": 0.1},
]


@pytest.fixture
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _checkouts(tmp_path):
    """Checkout A on a branch ref, B on a packed ref."""
    a, b = tmp_path / "a", tmp_path / "b"
    for root in (a, b):
        (root / ".git").mkdir(parents=True)
        (root / ".git" / "HEAD").write_text("ref: refs/heads/main\n")
    (a / ".git" / "refs" / "heads").mkdir(parents=True)
    (a / ".git" / "refs" / "heads" / "main").write_text("a" * 40 + "\n")
    (b / ".git" / "packed-refs").write_text(f"# pack-refs\n{'b' * 40} refs/heads/main\n")
    (a / "BENCHMARK.json").write_text(json.dumps({"end_to_end": METRICS}))
    return a, b


@pytest.mark.parametrize("slowdown, status", [(1.0, 0), (1.5, 1)])
def test_json_holds_what_is_printed(bench_pairs, tmp_path, monkeypatch, capsys, slowdown, status):
    a, b = _checkouts(tmp_path)
    calls = []

    def bench(root, workload, seed, seconds):
        calls.append((root.name, seed))
        run_s = (1.0 + seed / 10) * (slowdown if root == b else 1.0)
        return {"correct": True, "failed": 0,
                "metrics": {"run_s": {"value": run_s}, "quality": {"value": 0.5}}}

    monkeypatch.setattr(bench_pairs, "bench", bench)
    path = tmp_path / "bench.json"
    argv = [str(a), str(b), "--workload", "w", "--pairs", "3", "--seconds", "1", "--seed", "4"]
    assert bench_pairs.main(argv + ["--json", str(path)]) == status
    printed = capsys.readouterr().out
    assert calls == [("a", 4), ("b", 4), ("b", 5), ("a", 5), ("a", 6), ("b", 6)]
    report = json.loads(path.read_text())
    assert report["commits"] == {"A": "a" * 40, "B": "b" * 40}
    assert [(p["seed"], p["order"]) for p in report["pairs"]] == [
        (4, ["A", "B"]), (5, ["B", "A"]), (6, ["A", "B"])]
    assert report["pairs"][1]["B"] == {"correct": True, "failed": 0,
                                       "metrics": {"run_s": 1.5 * slowdown, "quality": 0.5}}
    assert report["not_correct"] == {"A": 0, "B": 0} and report["exit_status"] == status
    run_s, quality = report["metrics"]
    assert run_s["a_median"] == 1.5 and run_s["b_median"] == 1.5 * slowdown
    assert run_s["a_quartiles"] == [1.4, 1.6] and run_s["b_won"] == 0
    assert run_s["gap"] == pytest.approx(slowdown - 1) and run_s["beyond"] == bool(status)
    assert quality["gap"] == 0 and not quality["beyond"]
    for row in report["metrics"]:
        line = next(line for line in printed.splitlines() if line.startswith(row["name"] + " "))
        assert line.endswith("BEYOND") == row["beyond"]
        assert f"{row['b_won']}/{row['pairs']}" in line and f"{row['b_median']:.5g}" in line
    # without --json the exit status is the same and nothing is written
    path.unlink()
    assert bench_pairs.main(argv) == status and not path.exists()


def test_several_workloads_keyed_by_name(bench_pairs, tmp_path, monkeypatch, capsys):
    a, b = _checkouts(tmp_path)
    calls = []

    def bench(root, workload, seed, seconds):
        calls.append((workload, root.name, seed))
        slow = 1.5 if (workload, root) == ("slow", b) else 1.0
        return {"correct": True, "failed": 0,
                "metrics": {"run_s": {"value": slow}, "quality": {"value": 0.5}}}

    monkeypatch.setattr(bench_pairs, "bench", bench)
    path = tmp_path / "bench.json"
    argv = [str(a), str(b), "--workload", "fast", "--workload", "slow", "--pairs", "2",
            "--seconds", "1", "--json", str(path)]
    assert bench_pairs.main(argv) == 1
    printed = capsys.readouterr().out
    assert calls == [(w, side, seed) for w in ("fast", "slow")
                     for seed, sides in ((0, "ab"), (1, "ba")) for side in sides]
    report = json.loads(path.read_text())
    assert list(report) == ["fast", "slow"]
    assert [report[w]["workload"] for w in report] == ["fast", "slow"]
    assert [report[w]["exit_status"] for w in report] == [0, 1]
    assert report["slow"]["commits"] == {"A": "a" * 40, "B": "b" * 40}
    assert report["slow"]["metrics"][0]["b_median"] == 1.5
    assert printed.index("workload fast") < printed.index("workload slow")
    assert printed.count("BEYOND") == 1


def test_repeated_workload_rejected(bench_pairs, tmp_path):
    a, b = _checkouts(tmp_path)
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main([str(a), str(b), "--workload", "w", "--workload", "w",
                          "--pairs", "1", "--seconds", "1"])
    assert exc.value.code == 2


@pytest.mark.parametrize("b_runs, gain", [
    # A runs 1.0, 1.1, ..., 1.9: median 1.45, quartiles 1.175 and 1.725.
    # 9 of 10 pairs won, median 0.85: 0.6 better against a spread of 0.55
    ([0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0, 1.1, 1.2, 1.95], True),
    # 8 of 10 won
    ([0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0, 1.1, 1.95, 1.95], False),
    # 8 won and 2 tied: a tie counts for neither side
    ([0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0, 1.1, 1.8, 1.9], False),
    # 10 of 10 won, but the median only 0.05 better
    ([0.95, 1.05, 1.15, 1.25, 1.35, 1.45, 1.55, 1.65, 1.75, 1.85], False),
])
def test_gain_needs_nine_of_ten_and_a_gap_beyond_the_spread(
        bench_pairs, tmp_path, monkeypatch, capsys, b_runs, gain):
    a, b = _checkouts(tmp_path)
    a_runs = [1.0 + i / 10 for i in range(10)]

    def bench(root, workload, seed, seconds):
        run_s = (b_runs if root == b else a_runs)[seed]
        # quality better on B in every pair, by more than A's spread of zero
        quality = 0.6 if root == b else 0.5
        return {"correct": True, "failed": 0,
                "metrics": {"run_s": {"value": run_s}, "quality": {"value": quality}}}

    monkeypatch.setattr(bench_pairs, "bench", bench)
    path = tmp_path / "bench.json"
    assert bench_pairs.main([str(a), str(b), "--workload", "w", "--pairs", "10", "--seconds", "1",
                             "--json", str(path)]) == 0
    printed = capsys.readouterr().out
    run_s, quality = json.loads(path.read_text())["metrics"]
    assert run_s["gain"] is gain and quality["gain"] is True
    for row in (run_s, quality):
        line = next(line for line in printed.splitlines() if line.startswith(row["name"] + " "))
        assert line.endswith("GAIN") == row["gain"]


def test_commit_of_a_checkout_with_edited_tracked_files_is_marked_dirty(bench_pairs, tmp_path):
    root = tmp_path / "repo"
    root.mkdir()

    def git(*args):
        return subprocess.run(["git", "-C", str(root), "-c", "user.name=t", "-c", "user.email=t@t", *args],
                              capture_output=True, text=True, check=True).stdout.strip()

    git("init", "-q")
    (root / "tracked.txt").write_text("one\n")
    git("add", "tracked.txt")
    git("commit", "-q", "-m", "first")
    sha = git("rev-parse", "HEAD")
    assert bench_pairs.git_sha(root) == sha
    # an untracked file leaves the checkout clean
    (root / "untracked.txt").write_text("x\n")
    assert bench_pairs.git_sha(root) == sha
    (root / "tracked.txt").write_text("two\n")
    assert bench_pairs.git_sha(root) == f"{sha}+dirty"
