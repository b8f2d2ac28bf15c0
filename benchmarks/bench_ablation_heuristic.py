"""Ablation: HNSW neighbor-selection heuristic vs plain closest-M.

Section 3 of the paper builds on HNSW's ``SELECT-NEIGHBORS-HEURISTIC``.
This ablation shows why: on clustered data, plain closest-M selection
produces graphs whose links all point into the local cluster, recall
suffers at equal ef, and the effect is what the heuristic's
diversity-aware pruning prevents.
"""

from functools import partial

import numpy as np
import pytest

from repro.data.datasets import load_dataset
from repro.hnsw.index import build_hnsw
from repro.hnsw.params import HnswParams
from repro.offline.recall import recall_at_k

from benchmarks.conftest import BENCH_HNSW
from benchmarks.harness import interleaved, report, summary

TOP_K = 10
EFS = [12, 24, 48, 96]


@pytest.fixture(scope="module")
def heuristic_setup():
    dataset = load_dataset("sift1m")
    limit = min(dataset.num_base, 6000)
    base = dataset.base[:limit]
    queries = dataset.queries
    from repro.offline.brute_force import exact_top_k

    truth, _ = exact_top_k(base, queries, TOP_K)
    with_heuristic = build_hnsw(base, params=BENCH_HNSW)
    simple_params = HnswParams(
        **{**BENCH_HNSW.to_dict(), "use_heuristic": False}
    )
    without_heuristic = build_hnsw(base, params=simple_params)
    return base, queries, truth, with_heuristic, without_heuristic


def test_ablation_neighbor_heuristic(benchmark, heuristic_setup):
    base, queries, truth, with_h, without_h = heuristic_setup

    def run():
        rows = []
        for ef in EFS:
            row = {"ef": ef}
            for label, index in (
                ("heuristic", with_h),
                ("closest-M", without_h),
            ):
                ids = np.full((len(queries), TOP_K), -1, dtype=np.int64)
                for i, query in enumerate(queries):
                    found, _ = index.search(query, TOP_K, ef=ef)
                    ids[i, : len(found)] = found
                requests = [
                    partial(index.search, query, TOP_K, ef=ef) for query in queries
                ]
                scores = interleaved({label: requests}, 1)[label]
                row[f"{label} R@{TOP_K}"] = recall_at_k(ids, truth, TOP_K)
                row[f"{label} QPS"] = summary(scores)["qps"]
            rows.append(row)
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    report(
        "ablation_neighbor_heuristic",
        rows,
        title=(
            "Ablation -- SELECT-NEIGHBORS-HEURISTIC vs closest-M "
            f"({len(base)} SIFT-like vectors, k={TOP_K})"
        ),
        notes=(
            "The diversity heuristic (the published HNSW default, used "
            "throughout LANNS) dominates plain closest-M selection at "
            "equal beam width on clustered data."
        ),
    )
    benchmark.extra_info["rows"] = rows

    # At every ef, the heuristic's recall is at least closest-M's.
    advantage = 0.0
    for row in rows:
        assert (
            row[f"heuristic R@{TOP_K}"]
            >= row[f"closest-M R@{TOP_K}"] - 0.005
        )
        advantage = max(
            advantage,
            row[f"heuristic R@{TOP_K}"] - row[f"closest-M R@{TOP_K}"],
        )
    # And it strictly wins somewhere in the sweep.
    assert advantage > 0.005
