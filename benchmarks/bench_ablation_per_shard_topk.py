"""Ablation: the perShardTopK optimisation (Section 5.3.2).

Compares three per-shard fetch policies on a sharded People-like index:

- ``full``: every shard returns topK (no optimisation);
- ``normal``: the paper's normal-approximation budget with the standard
  z = probit((1+p)/2) reading (~1.96 at p=0.95);
- ``literal``: the paper's formula read literally, z = probit(1 - p/2)
  (~0.063) -- the typo discussed in DESIGN.md substitution #7.

Expected: ``normal`` cuts per-shard work substantially at (nearly) zero
recall cost; ``literal`` under-fetches and costs recall, evidence that
the intended reading is the standard interval.
"""

import pytest

from repro.core.builder import build_lanns_index
from repro.core.config import LannsConfig
from repro.core.merge import merge_shard_results_batch
from repro.core.topk import per_shard_top_k
from repro.data.datasets import load_dataset
from repro.offline.recall import recall_at_k

from benchmarks.conftest import BENCH_EF, BENCH_HNSW
from benchmarks.harness import report

TOP_K = 100
NUM_SHARDS = 8


@pytest.fixture(scope="module")
def sharded_people():
    dataset = load_dataset("people")
    config = LannsConfig(
        num_shards=NUM_SHARDS,
        num_segments=1,
        segmenter="rs",
        hnsw=BENCH_HNSW,
        seed=29,
    )
    index = build_lanns_index(dataset.base, config=config)
    return dataset, index


def query_with_budget(index, queries, top_k, budget):
    parts = [
        shard.search_batch(queries, budget, ef=BENCH_EF)
        for shard in index.shards
    ]
    fetched = sum(int((shard_ids >= 0).sum()) for shard_ids, _ in parts)
    ids, _ = merge_shard_results_batch(parts, top_k)
    return ids, fetched / len(queries)


def test_ablation_per_shard_topk(benchmark, sharded_people):
    dataset, index = sharded_people

    def run():
        top_k = min(TOP_K, dataset.num_base)
        truth = dataset.ground_truth(top_k)
        budgets = {
            "full (no perShardTopK)": top_k,
            "normal approx (z=1.96)": per_shard_top_k(
                top_k, NUM_SHARDS, 0.95
            ),
            "paper literal (z=0.06)": per_shard_top_k(
                top_k, NUM_SHARDS, 0.95, paper_literal=True
            ),
        }
        rows = []
        for policy, budget in budgets.items():
            ids, fetched = query_with_budget(
                index, dataset.queries, top_k, budget
            )
            rows.append(
                {
                    "policy": policy,
                    "perShardTopK": budget,
                    "candidates merged/query": fetched,
                    f"R@{top_k}": recall_at_k(ids, truth, top_k),
                }
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    report(
        "ablation_per_shard_topk",
        rows,
        title=(
            f"Ablation -- perShardTopK with S={NUM_SHARDS} shards, "
            f"topK={TOP_K} (People-like, {dataset.num_base} vectors)"
        ),
        notes=(
            "The normal-approximation budget slashes merge traffic at "
            "(nearly) no recall cost; the literal quantile under-fetches."
        ),
    )
    benchmark.extra_info["rows"] = rows

    by_policy = {row["policy"]: row for row in rows}
    full = by_policy["full (no perShardTopK)"]
    normal = by_policy["normal approx (z=1.96)"]
    literal = by_policy["paper literal (z=0.06)"]
    recall_key = [k for k in full if k.startswith("R@")][0]
    # The budget cuts merged candidates by at least 2x...
    assert (
        normal["candidates merged/query"]
        < full["candidates merged/query"] / 2
    )
    # ...while recall stays within a point of the full fetch.
    assert normal[recall_key] >= full[recall_key] - 0.01
    # The literal reading fetches even less but loses measurable recall.
    assert literal["perShardTopK"] < normal["perShardTopK"]
    assert literal[recall_key] <= normal[recall_key]
