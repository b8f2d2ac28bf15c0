"""The committed performance trajectory, and the parent / change comparison.

Stdlib only; imports nothing from ``repro`` and only *shells out* to the
command ``BENCHMARK.json`` declares (the frozen ``benchmarks/ledger/
run.py``), always inside a fresh export of committed or staged files --
never the working tree, so what is measured is what a commit holds.

``python3 benchmarks/trajectory.py --record <n>``
    Export the staged tree (``git checkout-index``), run every workload
    ``RECORD_RUNS`` times untraced and once traced, and write
    ``BENCH_<n>.json`` at the repo root: per workload the end-to-end
    metrics (median and every run), the per-layer metrics, the run's
    environment line and the failure counts; plus the commit the tree
    sits on.  One per PR, committed.

``python3 benchmarks/trajectory.py --compare <rev> [--pairs N] [--workloads ...]``
    Export ``<rev>`` (``git archive``) and the staged tree into fresh
    directories, run ``N`` pairs per workload alternating which side
    goes first, and print one markdown table per workload: the parent's
    median and inter-quartile spread, the change's median, the median of
    the per-pair ratios, how many pairs the change won, and a verdict
    against the metric's ``BENCHMARK.json`` bound -- ``BREACH`` exits
    non-zero; a lean smaller than the parent's own spread, or a spread
    wider than the bound, is ``unresolved``, never "unchanged".  Every
    run made is in the per-pair lists under the table -- and, with
    ``--record <n>`` beside ``--compare``, appended to ``BENCH_<n>.json``
    under ``pairs`` (nothing is re-recorded; the file is created if the
    PR has none yet).

``--seed <s>`` is forwarded to the benchmark command by either mode (the
ledger's inputs, graphs and segmenters all derive from it); without it
the command runs as ``BENCHMARK.json`` spells it, on its default seed.

Scratch directories come from :mod:`tempfile` (set ``TMPDIR`` to move
them) and are removed afterwards.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

SCHEMA_VERSION = 1
#: Untraced runs per workload behind each recorded median.
RECORD_RUNS = 3


def git(root: Path, *args: str) -> str:
    done = subprocess.run(
        ["git", *args], cwd=root, check=True, capture_output=True, text=True
    )
    return done.stdout.strip()


def export(root: Path, rev: str | None, into: Path) -> Path:
    """Committed files of ``rev`` -- or, for ``None``, the staged tree -- in
    the fresh directory ``into``."""
    into.mkdir(parents=True)
    if rev is None:
        git(root, "checkout-index", "--all", "--force", f"--prefix={into}/")
    else:
        tarball = into.with_suffix(".tar")
        git(root, "archive", "--output", str(tarball), rev)
        shutil.unpack_archive(tarball, into)
        tarball.unlink()
    return into


def run_once(
    tree: Path, benchmark: dict, workload: str, trace: int, seed: int | None
) -> dict:
    """One benchmark run in ``tree``: its last stdout line (the JSON object)
    plus its ``# environment`` line."""
    command = [*benchmark["command"], "--workload", workload]
    command += ["--seconds", str(benchmark["run_seconds"]), "--trace", str(trace)]
    if seed is not None:
        command += ["--seed", str(seed)]
    done = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        report = json.loads(lines[-1])
    except (IndexError, ValueError):
        raise SystemExit(
            f"{workload}: no JSON line from {' '.join(command)} in {tree} "
            f"(exit {done.returncode}):\n{done.stdout[-2000:]}{done.stderr[-2000:]}"
        ) from None
    for line in lines:
        if line.startswith("# environment "):
            report["environment"] = json.loads(line.removeprefix("# environment "))
    return report


def values(report: dict) -> dict:
    return {name: entry["value"] for name, entry in report["metrics"].items()}


def quartiles(samples: list[float]) -> tuple[float, float, float]:
    if len(samples) < 2:
        return samples[0], samples[0], samples[0]
    q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return q1, median, q3


# -- record ---------------------------------------------------------------------------
def bench_file(root: Path, number: int, benchmark: dict) -> tuple[Path, dict]:
    """``BENCH_<number>.json`` and its payload: what is there, else a header."""
    target = root / f"BENCH_{number}.json"
    if target.exists():
        return target, json.loads(target.read_text())
    return target, {
        "schema": SCHEMA_VERSION,
        "pr": number,
        "commit": git(root, "rev-parse", "HEAD"),
        "tree": "the index staged on top of `commit` (git checkout-index)",
        "command": benchmark["command"],
        "run_seconds": benchmark["run_seconds"],
    }


def record(root: Path, number: int, seed: int | None, scratch: Path) -> int:
    tree = export(root, None, scratch / "tree")
    benchmark = json.loads((tree / "BENCHMARK.json").read_text())
    target, payload = bench_file(root, number, benchmark)
    payload |= {
        "commit": git(root, "rev-parse", "HEAD"),
        "seed": seed,
        "runs_per_workload": RECORD_RUNS,
        "workloads": {},
    }
    for spec in benchmark["workloads"]:
        name = spec["name"]
        runs = [run_once(tree, benchmark, name, 0, seed) for _ in range(RECORD_RUNS)]
        traced = run_once(tree, benchmark, name, 1, seed)
        print(f"recorded {name}", file=sys.stderr)
        payload["workloads"][name] = {
            "end_to_end": {
                metric: {
                    "median": statistics.median(values(run)[metric] for run in runs),
                    "runs": [values(run)[metric] for run in runs],
                    "unit": entry["unit"],
                }
                for metric, entry in runs[0]["metrics"].items()
            },
            "per_layer": traced["metrics"],
            "attempted": [run["attempted"] for run in runs],
            "failed": [run["failed"] for run in runs],
            "correct": all(run["correct"] for run in (*runs, traced)),
            "environment": runs[-1].get("environment"),
        }
    target.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {target}", file=sys.stderr)
    return 0 if all(w["correct"] for w in payload["workloads"].values()) else 1


# -- compare --------------------------------------------------------------------------
def verdict(metric: dict, parent: list[float], change: list[float]) -> tuple[str, bool]:
    """``(table cells after the metric name, breached)`` for one metric."""
    q1, parent_median, q3 = quartiles(parent)
    change_median = statistics.median(change)
    ratios = [c / p if p else 1.0 for p, c in zip(parent, change)]
    lower = metric["better"] == "lower"
    wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
    spread = (q3 - q1) / parent_median if parent_median else 0.0
    worse = (change_median - parent_median) / parent_median if parent_median else 0.0
    worse = worse if lower else -worse
    breached = worse > metric["bound"]
    if breached:
        word = f"**BREACH** (worse by {worse:.1%})"
    elif all(ratio == 1.0 for ratio in ratios):
        word = "equal"
    elif spread > metric["bound"]:
        word = "unresolved: parent spread exceeds the bound"
    elif abs(worse) <= spread:
        word = "within bound; lean unresolved (inside parent spread)"
    else:
        word = f"within bound; leans {'worse' if worse > 0 else 'better'}"
    cells = (
        f"{parent_median:.5g} [{q1:.5g}-{q3:.5g}, {spread:.1%}] | "
        f"{change_median:.5g} | x{statistics.median(ratios):.3f} "
        f"[{min(ratios):.3f}, {max(ratios):.3f}] | {wins}/{len(ratios)} | "
        f"{metric['bound']:.0%} | {word}"
    )
    return cells, breached


def compare(
    root: Path,
    rev: str,
    pairs: int,
    only: list[str],
    seed: int | None,
    number: int | None,
    scratch: Path,
) -> int:
    sides = {
        "parent": export(root, rev, scratch / "parent"),
        "change": export(root, None, scratch / "change"),
    }
    benchmark = json.loads((sides["change"] / "BENCHMARK.json").read_text())
    names = [spec["name"] for spec in benchmark["workloads"]]
    unknown = set(only) - set(names)
    if unknown:
        raise SystemExit(f"unknown workloads {sorted(unknown)}; known: {names}")
    print(
        f"# {git(root, 'rev-parse', '--short', rev)} (parent) vs the staged tree "
        f"on {git(root, 'rev-parse', '--short', 'HEAD')} (change): {pairs} "
        f"alternating pairs, {benchmark['run_seconds']} s runs"
        + ("" if seed is None else f", seed {seed}")
    )
    breached = False
    made = []
    for name in only or names:
        runs: dict[str, list[dict]] = {"parent": [], "change": []}
        for pair in range(pairs):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for side in order:
                runs[side].append(run_once(sides[side], benchmark, name, 0, seed))
            print(f"{name}: pair {pair + 1}/{pairs}", file=sys.stderr)
        failed = {
            side: sum(run["failed"] for run in ran) / sum(run["attempted"] for run in ran)
            for side, ran in runs.items()
        }
        more_fail = failed["change"] > failed["parent"]
        wrong = not all(run["correct"] for run in runs["change"])
        breached = breached or more_fail or wrong
        print(
            f"\n## {name} ({pairs} pairs); failed share parent / change: "
            f"{failed['parent']:.3g} / {failed['change']:.3g}"
            + ("  **MORE FAILURES**" if more_fail else "")
            + ("  **WRONG ANSWERS**" if wrong else "")
        )
        print(
            "| metric | parent median [q1-q3, IQR] | change median | "
            "median of ratios [min, max] | change better in | bound | verdict |"
        )
        print("|---|---|---|---|---|---|---|")
        listed = []
        entry = {
            "workload": name,
            "parent": git(root, "rev-parse", rev),
            "seed": seed,
            "failed_share": failed,
            "metrics": {},
        }
        for metric in benchmark["end_to_end"]:
            parent = [values(run)[metric["name"]] for run in runs["parent"]]
            change = [values(run)[metric["name"]] for run in runs["change"]]
            cells, bad = verdict(metric, parent, change)
            breached = breached or bad
            print(f"| `{metric['name']}` | {cells} |")
            listed.append(
                f"`{metric['name']}` pairs (parent, change): "
                + " ".join(f"({p:.5g}, {c:.5g})" for p, c in zip(parent, change))
            )
            entry["metrics"][metric["name"]] = {"parent": parent, "change": change}
        print("\n" + "\n".join(listed))
        made.append(entry)
    if number is not None:
        target, payload = bench_file(root, number, benchmark)
        payload.setdefault("pairs", []).extend(made)
        target.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
        print(f"added {len(made)} pair lists to {target}", file=sys.stderr)
    return 1 if breached else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--record", type=int, metavar="N",
        help="write BENCH_<N>.json; beside --compare, add the pairs to it instead",
    )  # fmt: skip
    parser.add_argument("--compare", metavar="REV", help="parent revision to pair against")
    parser.add_argument("--pairs", type=int, default=10, help="pairs per workload")
    parser.add_argument(
        "--workloads", nargs="+", default=[], help="compare only these (default: all)"
    )
    parser.add_argument(
        "--seed", type=int, help="forwarded to the benchmark command (default: its own)"
    )
    args = parser.parse_args(argv)
    if args.record is None and args.compare is None:
        parser.error("one of --record, --compare is required")
    root = Path(git(Path.cwd(), "rev-parse", "--show-toplevel"))
    scratch = Path(tempfile.mkdtemp(prefix="trajectory-"))
    try:
        if args.compare is None:
            return record(root, args.record, args.seed, scratch)
        return compare(
            root, args.compare, args.pairs, args.workloads, args.seed, args.record,
            scratch,
        )  # fmt: skip
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
