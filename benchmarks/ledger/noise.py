"""Noise study: how far apart are runs of the same code?

``python -m benchmarks.ledger --noise-study N`` runs every workload ``N``
times back to back -- a fresh process and a fresh seed each time, as the
driver does -- and writes ``NOISE.json``: for every timing metric and
each of the three estimators (``raw``, ``normalised``, ``replay``) the
spread ``(max - min) / median`` and the quartile spread
``(Q3 - Q1) / median``, plus the replay estimate under both order
statistics (``replay_min``, ``replay_median``).  The bounds in
``BENCHMARK.json`` are derived from the gated rows of this file.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys

import numpy as np

from benchmarks.ledger import estimator, runner
from benchmarks.ledger.workloads import SPECS

TIMING = ("throughput_per_s", "latency_p50_ms", "latency_p95_ms")


def spreads(values: list[float]) -> dict:
    """Both spread measures of one metric's values across runs."""
    median = statistics.median(values)
    quartiles = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "range_over_median": (max(values) - min(values)) / median,
        "iqr_over_median": (quartiles[2] - quartiles[0]) / median,
        "values": values,
    }


def summarise(reports: list[dict]) -> dict:
    """Per-metric spreads of one workload's runs."""
    table: dict[str, dict] = {}
    for key in runner.END_TO_END:
        table[key] = spreads([r["metrics"][key]["value"] for r in reports])
    for prefix in ("raw", "normalised"):
        for key in TIMING:
            name = f"{prefix}.{key}"
            table[name] = spreads([r["ungated"][name] for r in reports])
    table["raw.setup_s"] = spreads([r["ungated"]["raw.setup_s"] for r in reports])
    # Both order statistics on the same recordings: the evidence each
    # workload's choice of statistic rests on.
    for statistic in estimator.STATISTICS:
        rescored = [rescore(r["recorded"], statistic) for r in reports]
        for key in TIMING:
            table[f"replay_{statistic}.{key}"] = spreads(
                [scored[key] for scored in rescored]
            )
    return table


def rescore(recorded: dict, statistic: str) -> dict:
    """Score a run's recorded arrays again with another statistic."""
    replay = estimator.Replay(
        request_s=np.asarray(recorded["request_s"]),
        request_mid=np.asarray(recorded["request_mid"]),
        request_ops=np.asarray(recorded["request_ops"]),
    )
    return estimator.score(
        replay, recorded["calib_times"], recorded["calib_durations"], statistic
    )["replay"]


def noise_study(runs: int, seconds: float, *, smoke: bool = False) -> int:
    """Run the study and write ``NOISE.json``; non-zero if any run failed."""
    study: dict = {"runs": runs, "seconds": seconds, "smoke": smoke, "workloads": {}}
    status = 0
    for name in sorted(SPECS):
        reports = []
        for seed in range(1, runs + 1):
            command = [
                sys.executable,
                str(runner.LEDGER_DIR / "run.py"),
                "--workload", name,
                "--seed", str(seed),
                "--seconds", str(seconds),
            ]
            if smoke:
                command.append("--smoke")
            done = subprocess.run(command, capture_output=True, text=True)
            if done.returncode != 0:
                print(done.stdout, done.stderr, file=sys.stderr)
                status = 1
                continue
            reports.append(
                json.loads(
                    (runner.RESULTS_DIR / f"ledger_{name}.json").read_text(
                        encoding="utf-8"
                    )
                )
            )
            print(f"{name} seed {seed}: {done.stdout.splitlines()[-1]}", flush=True)
        if len(reports) >= 2:
            study["workloads"][name] = summarise(reports)
            study["environment"] = reports[-1]["environment"]
            study["environment"].pop("spec", None)
    (runner.LEDGER_DIR / "NOISE.json").write_text(
        json.dumps(study, indent=1), encoding="utf-8"
    )
    for name, table in study["workloads"].items():
        for key, row in table.items():
            print(
                f"{name:20s} {key:34s} median {row['median']:12.5g} "
                f"range {row['range_over_median']:.3f} "
                f"iqr {row['iqr_over_median']:.3f}"
            )
    return status
