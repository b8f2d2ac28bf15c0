"""Ablation: the spill parameter alpha (recall vs fan-out trade-off).

The paper fixes ``alpha = 0.15`` ("we route about 30% of queries to both
partitions at any level") for all main experiments.  This ablation sweeps
alpha for an RH-segmented index under virtual spill and reports recall,
mean query fan-out (segments probed), and the Theorem-1-style prediction
that both rise together.  Builds are reused across alphas via segmenter
swapping (placement is alpha-independent under virtual spill).
"""

import numpy as np
import pytest

from repro.core.builder import build_lanns_index
from repro.core.config import LannsConfig
from repro.data.datasets import load_dataset
from repro.offline.recall import recall_at_k
from repro.segmenters.learner import learn_segmenter

from benchmarks.conftest import BENCH_EF, BENCH_HNSW
from benchmarks.harness import report, swap_segmenter

ALPHAS = [0.0, 0.05, 0.10, 0.15, 0.25]
TOP_K = 10


@pytest.fixture(scope="module")
def alpha_setup():
    dataset = load_dataset("sift1m")
    limit = min(dataset.num_base, 6000)
    dataset.base = dataset.base[:limit]
    dataset._truth_cache.clear()
    config = LannsConfig(
        num_shards=1,
        num_segments=8,
        segmenter="rh",
        alpha=0.15,
        spill_mode="virtual",
        hnsw=BENCH_HNSW,
        segmenter_sample_size=limit,
        seed=23,
    )
    index = build_lanns_index(dataset.base, config=config)
    return dataset, config, index


def test_ablation_alpha_sweep(benchmark, alpha_setup):
    dataset, config, index = alpha_setup

    def run():
        truth = dataset.ground_truth(TOP_K)
        rows = []
        for alpha in ALPHAS:
            segmenter = learn_segmenter(
                dataset.base,
                "rh",
                config.num_segments,
                alpha=alpha,
                spill_mode="virtual",
                sample_size=dataset.num_base,
                seed=config.seed,
            )
            swapped = swap_segmenter(index, segmenter)
            fanout = np.mean(
                [
                    len(route)
                    for route in segmenter.route_query_batch(dataset.queries)
                ]
            )
            ids = np.full(
                (dataset.num_queries, TOP_K), -1, dtype=np.int64
            )
            for row, query in enumerate(dataset.queries):
                found, _ = swapped.query(query, TOP_K, ef=BENCH_EF)
                ids[row, : len(found)] = found
            rows.append(
                {
                    "alpha": alpha,
                    "query spill %": 2 * alpha * 100,
                    "mean segments probed": fanout,
                    f"R@{TOP_K}": recall_at_k(ids, truth, TOP_K),
                }
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    report(
        "ablation_alpha",
        rows,
        title=(
            "Ablation -- spill alpha on RH(1,8), virtual spill "
            f"({dataset.num_base} SIFT-like vectors)"
        ),
        notes=(
            "alpha=0.15 is the paper's operating point: each extra unit "
            "of alpha buys recall at the cost of probing more segments."
        ),
    )
    benchmark.extra_info["rows"] = rows

    fanouts = [row["mean segments probed"] for row in rows]
    recalls = [row[f"R@{TOP_K}"] for row in rows]
    # Fan-out grows strictly with alpha; recall grows (weakly) with it.
    assert all(b > a for a, b in zip(fanouts, fanouts[1:]))
    assert recalls[-1] >= recalls[0]
    assert recalls[ALPHAS.index(0.15)] >= recalls[0]
