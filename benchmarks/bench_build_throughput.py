"""Offline build throughput: one construction path at two wave sizes.

The LANNS paper's headline offline result (Tables 2/5) is build *time*:
1M-point segment builds dropping from ~40 min to single-digit minutes.
This benchmark measures the reproduction's analogue at two levels:

``waves`` -- one ``HnswIndex`` built over the same vectors through the
same lockstep construction waves, interleaved: one row per wave
(``build_batch=1``: every row searches the fully linked graph, and pays
a whole round of numpy dispatch alone) and ``WAVE`` rows per wave.  The
wide-wave build must be >= 2x faster at bench scale at a recall against
an exact scan no worse than the one-row waves' (minus a small
tolerance).  A traced wave of each size must report the venue its size
implies -- the wide wave's base-layer beam on the array kernels, the
one-row wave's on the heaps -- and all three of its stages: ``descend``,
``beam`` and ``select``.  (That the same seed builds the same graph is
``tests/test_hnsw_build_batch.py::test_same_seed_same_graph`` and the 18
digests of ``TestPinnedGraphs``.)

``job_modes`` -- ``build_index_job`` over a multi-segment config on a
``LocalCluster``, once per execution mode (``inline`` / ``threads`` /
``processes``).  All modes must produce identical segment checksums;
with more than one CPU core, ``processes`` (which escapes the GIL) must
beat ``inline`` wall-clock.

    PYTHONPATH=src python benchmarks/bench_build_throughput.py [--smoke]
"""

from __future__ import annotations

import os
import sys
from functools import partial

from harness import (
    SEED,
    Gate,
    corpus,
    interleaved,
    main,
    report,
    require,
    scratch_fs,
    speedup,
)
from repro.data.synthetic import clustered_gaussians
from repro.hnsw.index import build_hnsw
from repro.hnsw.params import HnswParams
from repro.obs.tracing import SpanRecorder, activate, deactivate
from repro.offline.brute_force import exact_top_k
from repro.offline.indexing import build_index_job
from repro.offline.recall import recall_at_k
from repro.sparklite.cluster import LocalCluster

#: Rows per construction wave of the wide-wave build (the default).
WAVE = 64
#: How far below the one-row waves' recall the wide waves' may fall.
RECALL_TOLERANCE = 0.02
FULL = dict(
    num_base=8000, segment_rows=6000, num_queries=200, dim=48,
    shards=2, segments=2, executors=4, top_k=10, ef=64, passes=3,
)
SIZES = {
    "full": FULL,
    "smoke": FULL
    | dict(num_base=1500, segment_rows=1500, num_queries=48, passes=2),
}
GATES = {
    "wide_wave_speedup": Gate(full=2.0, smoke=None),
    # Needs >= 2 cores; never held on one (nothing parallel to show).
    "processes_over_inline": Gate(full=1.0, smoke=None, strict=True),
}


def traced_wave(index, rows) -> tuple[set[str], dict[str, float]]:
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


def check_waves(run, _env) -> None:
    vectors, queries, config = corpus(run)
    vectors = vectors[: run.segment_rows]
    truth, _ = exact_top_k(vectors, queries, run.top_k)
    built = {}

    def build(wave: int) -> None:
        params = HnswParams(
            M=config.hnsw.M,
            ef_construction=config.hnsw.ef_construction,
            seed=SEED,
            build_batch=wave,
        )
        built[wave] = build_hnsw(vectors, params=params)

    scores = interleaved(
        {f"wave = {wave}": [partial(build, wave)] for wave in (1, WAVE)},
        run.passes,
    )
    recall = {
        wave: recall_at_k(
            index.search_batch(queries, run.top_k, ef=run.ef)[0], truth, run.top_k
        )
        for wave, index in built.items()
    }
    report(
        "build_throughput",
        [
            {
                "path": f"wave = {wave}",
                "build_s": float(scores[f"wave = {wave}"][0]),
                "recall": recall[wave],
                "speedup": speedup(scores, f"wave = {wave}", over="wave = 1"),
            }
            for wave in (1, WAVE)
        ],
        title=(
            "Single-segment build throughput (one code path, two wave "
            f"sizes; {run.segment_rows} x {run.dim}, M={config.hnsw.M}, "
            f"ef_construction={config.hnsw.ef_construction})"
        ),
        payload={"smoke": run.smoke, "cpu_cores": os.cpu_count()},
    )
    require(
        recall[WAVE] >= recall[1] - RECALL_TOLERANCE,
        f"wave = {WAVE} recall {recall[WAVE]:.4f} is more than "
        f"{RECALL_TOLERANCE} below wave = 1 {recall[1]:.4f}",
    )
    # The venue follows from the wave's size, nothing else: extend each
    # index by one traced wave of its own width.
    extra = clustered_gaussians(WAVE, run.dim, seed=SEED + 2)
    one_venues, _ = traced_wave(built[1], extra[:1])
    wide_venues, stages = traced_wave(built[WAVE], extra)
    traced = sum(stages.values())
    print(
        f"venues: wave = 1 {one_venues}, wave = {WAVE} {wide_venues}; stages "
        f"of the traced {WAVE}-row wave: "
        + ", ".join(
            f"{name} {ms:.1f} ms ({ms / traced:.0%})" for name, ms in stages.items()
        )
    )
    require(
        {"descend", "beam", "select"} <= stages.keys(),
        "a traced wave must report descend, beam and select spans",
    )
    require(
        (one_venues, wide_venues) == ({"heap"}, {"array"}),
        f"a one-row wave must trace kernel=heap and a {WAVE}-row wave "
        "kernel=array",
    )
    run.gate("wide_wave_speedup", speedup(scores, f"wave = {WAVE}", over="wave = 1"))


def check_job_modes(run, _env) -> None:
    vectors, _, config = corpus(run)
    checksums, build_stage_s = {}, {}

    def job(mode: str) -> None:
        with scratch_fs() as fs:
            cluster = LocalCluster(num_executors=run.executors, mode=mode, fs=fs)
            manifest, metrics = build_index_job(
                cluster, fs, vectors, config, "bench-idx"
            )
        checksums[mode], build_stage_s[mode] = manifest.checksums, metrics.wall_time

    modes = ("inline", "threads", "processes")
    scores = interleaved({mode: [partial(job, mode)] for mode in modes}, 1)
    report(
        "build_job_modes",
        [
            {
                "mode": mode,
                "wall_s": float(scores[mode][0]),
                "build_stage_s": build_stage_s[mode],
                "partitions": config.total_partitions,
            }
            for mode in modes
        ],
        title=(
            "End-to-end build_index_job wall time by cluster execution mode "
            f"({run.num_base} rows, {run.executors} executors)"
        ),
        payload={"smoke": run.smoke, "cpu_cores": os.cpu_count()},
    )
    require(
        checksums["inline"] == checksums["threads"] == checksums["processes"],
        "segment checksums differ across execution modes",
    )
    print("parity: identical segment checksums across all modes ✓")
    if (os.cpu_count() or 1) >= 2:
        run.gate("processes_over_inline", speedup(scores, "processes", over="inline"))
    else:
        print("gate processes_over_inline: one CPU core, nothing parallel to show")


if __name__ == "__main__":
    sys.exit(main([check_waves, check_job_modes], SIZES, GATES))
