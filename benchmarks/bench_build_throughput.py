"""Offline build throughput: one construction path at two wave sizes.

The LANNS paper's headline offline result (Tables 2/5) is build *time*:
1M-point segment builds dropping from ~40 min to single-digit minutes.
This benchmark measures the reproduction's analogue at two levels:

1. *Single segment* -- one ``HnswIndex`` built over the same vectors
   twice through the same lockstep construction waves: one row per wave
   (``build_batch=1``: every row searches the fully linked graph, and
   pays a whole round of numpy dispatch alone) and ``--build-batch`` rows
   per wave.  The wide-wave build must be >= 2x faster at bench scale,
   its recall against an exact scan must be no worse than the one-row
   waves' (minus a small tolerance), and building twice with the same
   seed must produce bit-identical serialized graphs.  A traced wave of
   each size must report the venue its size implies: the wide wave's
   base-layer beam on the array kernels, the one-row wave's on the heaps
   -- and all three of its stages: ``descend``, ``beam`` and ``select``.

2. *End to end* -- ``build_index_job`` over a multi-segment config on a
   ``LocalCluster``, once per execution mode (``inline`` / ``threads`` /
   ``processes``).  All modes must produce identical segment checksums;
   with more than one CPU core available, ``processes`` (which escapes
   the GIL entirely) must beat ``inline`` wall-clock.  On a single-core
   machine the wall-clock assertion is skipped -- there is no hardware
   parallelism to demonstrate -- and the parity assertion still runs.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_build_throughput.py
    PYTHONPATH=src python benchmarks/bench_build_throughput.py --smoke

``--smoke`` shrinks the workload to CI size and skips the speedup
assertions (tiny runs are timing noise); recall, determinism and
cross-mode parity are still asserted, which is what the CI benchmark
smoke job guards.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.core.config import LannsConfig
from repro.data.synthetic import clustered_gaussians
from repro.eval.tables import format_table
from repro.hnsw.index import build_hnsw
from repro.hnsw.params import HnswParams
from repro.obs.tracing import SpanRecorder, activate, deactivate
from repro.offline.brute_force import exact_top_k
from repro.offline.indexing import build_index_job
from repro.offline.recall import recall_at_k
from repro.sparklite.cluster import LocalCluster
from repro.storage.hdfs import LocalHdfs

RESULTS_DIR = Path(__file__).parent / "results"


def timed_build(
    base: np.ndarray, params: HnswParams
) -> tuple[float, object]:
    begin = time.perf_counter()
    index = build_hnsw(base, params=params)
    return time.perf_counter() - begin, index


def payloads_identical(a: dict, b: dict) -> bool:
    return a.keys() == b.keys() and all(
        np.array_equal(a[key], b[key]) for key in a
    )


def traced_wave(index, rows: np.ndarray) -> tuple[set[str], dict[str, float]]:
    """One traced ``add(rows)`` -- one construction wave: the venues it
    searched the base layer on (every row of a wave reaches it), and the
    milliseconds each stage's spans add up to."""
    recorder = SpanRecorder()
    token = activate(recorder)
    try:
        index.add(rows)
    finally:
        deactivate(token)
    spans = recorder.export()
    stages: dict[str, float] = {}
    for span in spans:
        stages[span["name"]] = stages.get(span["name"], 0.0) + span["dur_ms"]
    return {
        span["annotations"]["kernel"]
        for span in spans
        if span["name"] == "beam"
        and span["annotations"]["num_queries"] == len(rows)
    }, stages


def run_single_segment(args: argparse.Namespace) -> tuple[list[dict], bool]:
    """Wave = N vs wave = 1 single-segment build; returns (rows, ok)."""
    base = clustered_gaussians(args.num_base, args.dim, seed=args.seed)
    queries = clustered_gaussians(args.num_queries, args.dim, seed=args.seed + 1)
    truth_ids, _ = exact_top_k(base, queries, args.top_k)

    def params(wave: int) -> HnswParams:
        return HnswParams(
            M=args.hnsw_m,
            ef_construction=args.ef_construction,
            seed=args.seed,
            build_batch=wave,
        )

    # The two wave sizes are timed interleaved (1, N, 1, N, ...) and
    # each is scored by its fastest run: min-of-N is the standard
    # noise-robust wall-clock estimator, and interleaving means a noisy
    # stretch (shared CI runners) hits both alike instead of biasing the
    # ratio.  The final two wave = N builds double as the determinism
    # check.
    one_time = wide_time = float("inf")
    one_index = wide_index = repeat_index = None
    for _ in range(max(args.repeats, 2)):
        elapsed, one_index = timed_build(base, params(1))
        one_time = min(one_time, elapsed)
        elapsed, candidate = timed_build(base, params(args.build_batch))
        wide_time = min(wide_time, elapsed)
        wide_index, repeat_index = candidate, wide_index
    speedup = one_time / wide_time if wide_time > 0 else float("inf")

    one_ids, _ = one_index.search_batch(queries, args.top_k, ef=args.ef)
    wide_ids, _ = wide_index.search_batch(queries, args.top_k, ef=args.ef)
    one_recall = recall_at_k(one_ids, truth_ids, args.top_k)
    wide_recall = recall_at_k(wide_ids, truth_ids, args.top_k)

    # Same seed + same wave size => bit-identical serialized graph.
    deterministic = payloads_identical(
        wide_index.to_arrays(), repeat_index.to_arrays()
    )

    rows = [
        {
            "path": "wave = 1",
            "build_s": one_time,
            "recall": one_recall,
            "speedup": 1.0,
        },
        {
            "path": f"wave = {args.build_batch}",
            "build_s": wide_time,
            "recall": wide_recall,
            "speedup": speedup,
        },
    ]
    print(
        "\n"
        + format_table(
            rows,
            title=(
                "Single-segment build throughput (one code path, two "
                "wave sizes)"
            ),
        )
        + "\n"
    )
    print(
        f"determinism: repeat wave = {args.build_batch} build "
        f"bit-identical: {deterministic}"
    )

    # The venue follows from the wave's size, nothing else: extend each
    # index by one traced wave of its own width.
    extra = clustered_gaussians(args.build_batch, args.dim, seed=args.seed + 2)
    one_venues, _ = traced_wave(one_index, extra[:1])
    wide_venues, stages = traced_wave(repeat_index, extra)
    venues = {"wave = 1": one_venues, f"wave = {args.build_batch}": wide_venues}
    print(f"venues: {venues}")
    traced = sum(stages.values())
    print(
        f"stages of the traced {args.build_batch}-row wave: "
        + ", ".join(
            f"{name} {ms:.1f} ms ({ms / traced:.0%})" for name, ms in stages.items()
        )
    )

    ok = True
    if not {"descend", "beam", "select"} <= stages.keys():
        print("FAIL: a traced wave must report descend, beam and select spans")
        ok = False
    if venues != {"wave = 1": {"heap"}, f"wave = {args.build_batch}": {"array"}}:
        print(
            "FAIL: a one-row wave must trace kernel=heap and a "
            f"{args.build_batch}-row wave kernel=array"
        )
        ok = False
    if not deterministic:
        print("FAIL: the build is not deterministic across runs")
        ok = False
    if wide_recall < one_recall - args.recall_tolerance:
        print(
            f"FAIL: wave = {args.build_batch} recall {wide_recall:.4f} is "
            f"more than {args.recall_tolerance} below wave = 1 "
            f"{one_recall:.4f}"
        )
        ok = False
    else:
        print(
            f"recall: wave = {args.build_batch} {wide_recall:.4f} vs "
            f"wave = 1 {one_recall:.4f} (tolerance "
            f"{args.recall_tolerance}) ✓"
        )
    if args.smoke:
        print(
            f"smoke: speedup {speedup:.2f}x reported, assertion skipped "
            "at smoke sizes"
        )
    elif speedup < args.min_speedup:
        print(
            f"FAIL: wave = {args.build_batch} build speedup "
            f"{speedup:.2f}x is below the required "
            f"{args.min_speedup:.1f}x"
        )
        ok = False
    else:
        print(
            f"OK: wave = {args.build_batch} build {speedup:.2f}x >= "
            f"{args.min_speedup:.1f}x"
        )
    return rows, ok


def run_job_modes(args: argparse.Namespace) -> tuple[list[dict], bool]:
    """build_index_job across cluster execution modes; returns (rows, ok)."""
    base = clustered_gaussians(args.job_num_base, args.dim, seed=args.seed)
    config = LannsConfig(
        num_shards=args.shards,
        num_segments=args.segments,
        segmenter="rh",
        hnsw=HnswParams(
            M=args.hnsw_m,
            ef_construction=args.ef_construction,
            build_batch=args.build_batch,
        ),
        segmenter_sample_size=min(2000, args.job_num_base),
        seed=args.seed,
    )
    rows = []
    checksums: dict[str, dict] = {}
    walls: dict[str, float] = {}
    for mode in ("inline", "threads", "processes"):
        with tempfile.TemporaryDirectory() as root:
            fs = LocalHdfs(root)
            cluster = LocalCluster(
                num_executors=args.executors, mode=mode, fs=fs
            )
            begin = time.perf_counter()
            manifest, metrics = build_index_job(
                cluster, fs, base, config, "bench-idx"
            )
            wall = time.perf_counter() - begin
        checksums[mode] = manifest.checksums
        walls[mode] = wall
        rows.append(
            {
                "mode": mode,
                "wall_s": wall,
                "build_stage_s": metrics.wall_time,
                "partitions": config.total_partitions,
            }
        )
    print(
        "\n"
        + format_table(
            rows,
            title=(
                "End-to-end build_index_job wall time by cluster "
                "execution mode"
            ),
        )
        + "\n"
    )

    ok = True
    if not (
        checksums["inline"] == checksums["threads"] == checksums["processes"]
    ):
        print("FAIL: segment checksums differ across execution modes")
        ok = False
    else:
        print("parity: identical segment checksums across all modes ✓")

    cores = os.cpu_count() or 1
    if args.smoke:
        print("smoke: mode wall-clock assertion skipped at smoke sizes")
    elif cores < 2:
        print(
            f"SKIP: only {cores} CPU core available -- no hardware "
            "parallelism to demonstrate; processes-vs-inline wall-clock "
            "assertion skipped (parity still asserted)"
        )
    elif walls["processes"] >= walls["inline"]:
        print(
            f"FAIL: processes mode ({walls['processes']:.2f}s) did not "
            f"beat inline ({walls['inline']:.2f}s) on {cores} cores"
        )
        ok = False
    else:
        print(
            f"OK: processes {walls['processes']:.2f}s < inline "
            f"{walls['inline']:.2f}s on {cores} cores "
            f"({walls['inline'] / walls['processes']:.2f}x)"
        )
    return rows, ok


def run(args: argparse.Namespace) -> int:
    print(
        f"single segment: {args.num_base} x {args.dim}, "
        f"M={args.hnsw_m}, ef_construction={args.ef_construction}, "
        f"wave={args.build_batch}; job: {args.job_num_base} rows over "
        f"{args.shards}x{args.segments} partitions, "
        f"{args.executors} executors"
    )
    single_rows, single_ok = run_single_segment(args)
    job_rows, job_ok = run_job_modes(args)
    if not args.smoke:
        RESULTS_DIR.mkdir(parents=True, exist_ok=True)
        payload = {
            "name": "build_throughput",
            "single_segment": single_rows,
            "job_modes": job_rows,
            "cpu_cores": os.cpu_count(),
        }
        (RESULTS_DIR / "build_throughput.json").write_text(
            json.dumps(payload, indent=2), encoding="utf-8"
        )
    if single_ok and job_ok:
        print("build throughput benchmark: all assertions passed")
        return 0
    return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        description=(
            "Measure HNSW build throughput at wave = 1 vs wave = N and "
            "build_index_job wall time across cluster execution modes"
        )
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help=(
            "tiny sizes; keep recall/determinism/parity assertions, "
            "skip the timing assertions (for CI)"
        ),
    )
    parser.add_argument("--num-base", type=int, default=6000)
    parser.add_argument(
        "--job-num-base",
        type=int,
        default=8000,
        help="dataset size for the multi-partition build_index_job runs",
    )
    parser.add_argument("--num-queries", type=int, default=200)
    parser.add_argument("--dim", type=int, default=48)
    parser.add_argument("--top-k", type=int, default=10)
    parser.add_argument("--ef", type=int, default=64)
    parser.add_argument("--hnsw-m", type=int, default=12)
    parser.add_argument("--ef-construction", type=int, default=56)
    parser.add_argument(
        "--build-batch",
        type=int,
        default=64,
        help="construction wave size of the wide-wave build",
    )
    parser.add_argument("--shards", type=int, default=2)
    parser.add_argument("--segments", type=int, default=2)
    parser.add_argument("--executors", type=int, default=4)
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=2.0,
        help="required wave = 1 / wave = N build-time ratio (non-smoke)",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=3,
        help=(
            "interleaved timing repetitions per wave size (each scored "
            "by its fastest run; minimum 2 -- the repeated wave = N "
            "build doubles as the determinism check)"
        ),
    )
    parser.add_argument(
        "--recall-tolerance",
        type=float,
        default=0.02,
        help=(
            "how far below the wave = 1 build's recall the wave = N "
            "build may fall"
        ),
    )
    parser.add_argument("--seed", type=int, default=0)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.num_base <= 0 or args.num_queries <= 0 or args.dim <= 0:
        parser.error("--num-base, --num-queries and --dim must be positive")
    if args.build_batch < 2:
        parser.error(
            f"--build-batch must be >= 2 to batch anything, "
            f"got {args.build_batch}"
        )
    if args.smoke:
        args.num_base = min(args.num_base, 1500)
        args.job_num_base = min(args.job_num_base, 1500)
        args.num_queries = min(args.num_queries, 48)
        args.repeats = min(args.repeats, 2)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
