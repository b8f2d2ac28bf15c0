"""``benchmarks/trajectory.py`` end to end against a stub runner.

A throwaway git repository whose ``BENCHMARK.json`` names a ten-line
script instead of the 15 s ledger: exports, alternation, the report and
the exit code are the real ones; only the measured program is fake (its
"speed" is a committed file, so parent and change differ by a commit).
"""

from __future__ import annotations

import importlib.util
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

TRAJECTORY = Path(__file__).resolve().parent.parent / "benchmarks" / "trajectory.py"
RUNNER = """\
import json, os, sys
flags = dict(zip(sys.argv[1::2], sys.argv[2::2]))
speed = float(open("speed.txt").read())
with open(os.environ["STUB_LOG"], "a") as log:
    log.write(f"{os.path.basename(os.getcwd())} {flags['--workload']} {flags['--trace']}"
              f" {flags.get('--seed', '-')}\\n")
if flags["--trace"] == "1":
    metrics = {"hnsw.search_ms_per_query": {"value": speed / 2, "unit": "ms"}}
else:
    metrics = {"latency_p50_ms": {"value": speed, "unit": "ms"},
               "throughput_per_s": {"value": 1000 / speed, "unit": "1/s"}}
print("# environment " + json.dumps({"nproc": 1, "seconds": flags["--seconds"]}))
print(json.dumps({"correct": True, "attempted": 10, "failed": 0, "metrics": metrics}))
"""
BENCHMARK = {
    "command": [sys.executable, "runner.py"],
    "run_seconds": 1,
    "workloads": [{"name": "w1"}, {"name": "w2"}],
    "end_to_end": [
        {"name": "latency_p50_ms", "unit": "ms", "better": "lower", "bound": 0.2},
        {"name": "throughput_per_s", "unit": "1/s", "better": "higher", "bound": 0.2},
    ],
}


def git(repo: Path, *args: str) -> str:
    identity = ["-c", "user.name=t", "-c", "user.email=t@example.org"]
    done = subprocess.run(
        ["git", *identity, *args], cwd=repo, check=True, capture_output=True, text=True
    )
    return done.stdout.strip()


@pytest.fixture
def repo(tmp_path, monkeypatch):
    root = tmp_path / "repo"
    root.mkdir()
    (root / "runner.py").write_text(RUNNER)
    (root / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
    (root / "speed.txt").write_text("10")
    git(root, "init", "-q")
    git(root, "add", "-A")
    git(root, "commit", "-q", "-m", "parent")
    monkeypatch.setenv("STUB_LOG", str(tmp_path / "runs.log"))
    monkeypatch.setenv("TMPDIR", str(tmp_path))
    return root


def trajectory(repo: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(TRAJECTORY), *args],
        cwd=repo, capture_output=True, text=True, timeout=120,
    )  # fmt: skip


def load_trajectory():
    spec = importlib.util.spec_from_file_location("trajectory", TRAJECTORY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def stage(repo: Path, speed: str) -> None:
    (repo / "speed.txt").write_text(speed)
    git(repo, "add", "speed.txt")


def test_compare_pairs_the_staged_tree_against_a_revision(repo, tmp_path):
    stage(repo, "10.5")
    (repo / "speed.txt").write_text("99")  # unstaged: must not be measured
    done = trajectory(repo, "--compare", "HEAD", "--pairs", "3", "--workloads", "w1")
    assert done.returncode == 0, done.stderr
    runs = (tmp_path / "runs.log").read_text().split("\n")[:-1]
    assert [line.split()[0] for line in runs] == [
        "parent", "change", "change", "parent", "parent", "change",
    ]  # who goes first alternates
    assert {line.split()[1] for line in runs} == {"w1"}
    assert {line.split()[3] for line in runs} == {"-"}  # no --seed given, none passed
    latency, throughput = (
        line for line in done.stdout.splitlines() if line.startswith("| `")
    )
    assert "| 10 [10-10, 0.0%] | 10.5 | x1.050 [1.050, 1.050] | 0/3 | 20% |" in latency
    assert latency.endswith("within bound; leans worse |")
    assert "x0.952" in throughput and "| 0/3 |" in throughput
    assert "`latency_p50_ms` pairs (parent, change): (10, 10.5) (10, 10.5) (10, 10.5)" in (
        done.stdout
    )
    assert list(tmp_path.glob("trajectory-*")) == []  # the exports are gone


def test_compare_exits_non_zero_on_a_breach_and_calls_a_tie_equal(repo):
    done = trajectory(repo, "--compare", "HEAD", "--pairs", "2")
    assert done.returncode == 0 and done.stdout.count("| equal |") == 4  # 2 x 2
    stage(repo, "13")
    done = trajectory(repo, "--compare", "HEAD", "--pairs", "2", "--workloads", "w2")
    assert done.returncode == 1
    assert "**BREACH** (worse by 30.0%)" in done.stdout
    assert "unknown workloads ['w9']" in trajectory(
        repo, "--compare", "HEAD", "--workloads", "w9"
    ).stderr


def test_a_spread_wider_than_the_bound_breaches_only_when_the_runs_part():
    """The parent's runs spread wider than the bound: a median gap past
    the bound is unresolved while the two sides' runs overlap, and a
    breach once every change run is worse than every parent run."""
    verdict = load_trajectory().verdict
    setup = {"name": "setup_s", "better": "lower", "bound": 0.25}
    # Five pairs of a workload's setup time: IQR 37 %, medians 27 % apart.
    parent = [0.013796, 0.011422, 0.014911, 0.019338, 0.019534]
    change = [0.0119, 0.012847, 0.018946, 0.019149, 0.019239]
    cells, breached = verdict(setup, parent, change)
    assert not breached
    assert cells.endswith("| unresolved: parent spread exceeds the bound")
    cells, breached = verdict(setup, parent, [0.0196, 0.02, 0.021, 0.022, 0.023])
    assert breached and "**BREACH** (worse by 40.8%)" in cells
    rate = {"name": "throughput_per_s", "better": "higher", "bound": 0.2}
    assert verdict(rate, [100, 140, 180], [90, 95, 99])[1]
    assert not verdict(rate, [100, 140, 180], [90, 95, 101])[1]


def test_compare_beside_record_adds_its_pairs_to_the_bench_file(repo, tmp_path):
    """``--seed`` reaches the benchmark command on both sides, and the
    per-pair lists land in ``BENCH_<n>.json`` under ``pairs`` -- created
    by the first compare, appended to by the next, kept by a later
    ``--record`` of the same PR."""
    stage(repo, "8")
    compare = ("--compare", "HEAD", "--pairs", "2", "--record", "7")
    done = trajectory(repo, *compare, "--workloads", "w1", "--seed", "5")
    assert done.returncode == 0, done.stderr
    assert ", seed 5" in done.stdout.splitlines()[0]
    runs = (tmp_path / "runs.log").read_text().splitlines()
    # A 20 % lean is past half the bound: an A/A control of as many pairs.
    assert [line.split()[3] for line in runs] == ["5"] * 8
    assert [line.split()[0] for line in runs[4:]] == [
        "parent", "control", "control", "parent",
    ]  # fmt: skip
    payload = json.loads((repo / "BENCH_7.json").read_text())
    assert (payload["schema"], payload["pr"], "workloads" in payload) == (1, 7, False)
    (entry,) = payload["pairs"]
    assert (entry["workload"], entry["seed"]) == ("w1", 5)
    assert entry["parent"] == git(repo, "rev-parse", "HEAD")
    assert entry["failed_share"] == {"parent": 0.0, "change": 0.0}
    assert entry["metrics"]["latency_p50_ms"] == {
        "parent": [10.0, 10.0], "change": [8.0, 8.0],
    }  # fmt: skip
    assert entry["control"]["latency_p50_ms"] == {
        "parent": [10.0, 10.0], "control": [10.0, 10.0],
    }  # fmt: skip
    assert trajectory(repo, *compare, "--workloads", "w2").returncode == 0
    assert trajectory(repo, "--record", "7", "--seed", "5").returncode == 0
    payload = json.loads((repo / "BENCH_7.json").read_text())
    assert [(e["workload"], e["seed"]) for e in payload["pairs"]] == [
        ("w1", 5), ("w2", None),
    ]  # fmt: skip
    assert (payload["seed"], sorted(payload["workloads"])) == (5, ["w1", "w2"])
    assert "one of --record, --compare, --series is required" in trajectory(repo).stderr


def test_a_timing_lean_past_half_its_bound_runs_an_a_a_control(
    repo, tmp_path, monkeypatch, capsys
):
    """With ``run_once`` stubbed in process: ``w1``'s change is 20 %
    faster (past half the 20 % bound), so the parent is paired against a
    second export of itself for as many pairs, and the control's lean --
    here one pair of three won by noise -- is printed beside the
    change's.  ``w2`` leans 4 %: no control runs for it."""
    module = load_trajectory()
    made = []

    def run_once(tree, benchmark, workload, trace, seed):
        made.append((workload, tree.name))
        speed = {"parent": 10.0, "change": {"w1": 8.0, "w2": 10.4}[workload]}.get(
            tree.name, 9.9 if len(made) == 9 else 10.0
        )  # the control's run of its second pair (it goes first) wins
        metrics = {"latency_p50_ms": speed, "throughput_per_s": 1000 / speed}
        return {
            "correct": True, "attempted": 10, "failed": 0,
            "metrics": {name: {"value": value} for name, value in metrics.items()},
        }  # fmt: skip

    monkeypatch.setattr(module, "run_once", run_once)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    monkeypatch.chdir(repo)
    assert module.main(["--compare", "HEAD", "--pairs", "3"]) == 0
    alternating = ("parent", "change", "change", "parent", "parent", "change")
    assert made == [
        *[("w1", side) for side in alternating],
        *[("w1", side.replace("change", "control")) for side in alternating],
        *[("w2", side) for side in alternating],
    ]
    out = capsys.readouterr().out
    assert out.count("A/A control: 3 pairs") == 1
    assert "| `latency_p50_ms` | x0.800, 3/3 | x1.000, 1/3 |" in out
    assert "| `throughput_per_s` | x1.250, 3/3 | x1.000, 1/3 |" in out


def test_record_writes_a_versioned_bench_file_at_the_repo_root(repo, tmp_path):
    stage(repo, "12")
    done = trajectory(repo, "--record", "7")
    assert done.returncode == 0, done.stderr
    payload = json.loads((repo / "BENCH_7.json").read_text())
    assert (payload["schema"], payload["pr"], payload["seed"]) == (1, 7, None)
    assert payload["commit"] == git(repo, "rev-parse", "HEAD")
    assert sorted(payload["workloads"]) == ["w1", "w2"]
    w1 = payload["workloads"]["w1"]
    assert w1["end_to_end"]["latency_p50_ms"] == {
        "median": 12.0, "runs": [12.0, 12.0, 12.0], "unit": "ms",
    }  # fmt: skip
    assert w1["per_layer"] == {"hnsw.search_ms_per_query": {"value": 6.0, "unit": "ms"}}
    assert w1["environment"] == {"nproc": 1, "seconds": "1"}
    assert (w1["failed"], w1["correct"]) == ([0, 0, 0], True)
    traced = [line.split()[2] for line in (tmp_path / "runs.log").read_text().splitlines()]
    assert traced == ["0", "0", "0", "1"] * 2


def test_series_tables_the_median_of_every_tracked_bench_file(repo):
    for number, speed in ((29, 10.0), (31, 12.5)):
        latency = {"median": speed, "runs": [speed], "unit": "ms"}
        payload = {"workloads": {"w1": {"end_to_end": {"latency_p50_ms": latency}}}}
        (repo / f"BENCH_{number}.json").write_text(json.dumps(payload))
    git(repo, "add", "BENCH_29.json", "BENCH_31.json")
    (repo / "BENCH_30.json").write_text("{}")  # untracked: not in the series
    done = trajectory(repo, "--series")
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "| workload | metric | PR 29 | PR 31 |",
        "|---|---|---|---|",
        "| w1 | `latency_p50_ms` (ms) | 10 | 12.5 |",
        "| w1 | `throughput_per_s` (1/s) | - | - |",
        "| w2 | `latency_p50_ms` (ms) | - | - |",
        "| w2 | `throughput_per_s` (1/s) | - | - |",
    ]


@pytest.mark.parametrize(
    "path", sorted(TRAJECTORY.parent.parent.glob("BENCH_*.json")), ids=lambda path: path.name
)
def test_every_committed_bench_file_fills_its_column(path):
    """A file written only beside ``--compare`` holds ``pairs``, no
    ``workloads``: its column reads the pairs' change side."""
    benchmark = json.loads((path.parent / "BENCHMARK.json").read_text())
    record, medians = json.loads(path.read_text()), load_trajectory().medians
    for spec in benchmark["workloads"]:
        column = medians(record, spec["name"])
        for metric in benchmark["end_to_end"]:
            assert isinstance(column.get(metric["name"]), (int, float)), spec
