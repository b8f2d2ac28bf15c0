"""Table 7: Groups dataset -- physical vs virtual spill, APD segmenter.

Paper (R@15 and QPS, single shard, APD segmentation):

    Segments  Spill  Phys R@15  Phys QPS  Virt R@15  Virt QPS
    1         0%     0.9458     863       0.9458     863
    4         10%    0.8400     2619      0.8526     2187
    4         30%    0.9268     2392      0.9272     1984
    8         30%    0.9105     2710      0.9112     2573
    16        10%    0.7359     2993      0.7362     3240
    16        30%    0.8836     2797      0.8920     2985

Expected shape: recall rises with spill %, falls with segment count;
QPS rises with segment count; physical and virtual recall are nearly
equal, with physical QPS >= virtual at matched recall (virtual fans the
query out, physical fans the data out).

Spill % is the fraction of queries (or data) routed to both children at
a level, i.e. ``2 * alpha``: 10% -> alpha 0.05, 20% -> 0.10, 30% -> 0.15.

Virtual-spill indices are built once per segment count and re-queried
under each alpha via segmenter swapping (data placement is
alpha-independent under virtual spill); physical-spill placement depends
on alpha, so those are built per cell.
"""

import numpy as np
import pytest

from repro.core.builder import build_lanns_index
from repro.core.config import LannsConfig
from repro.data.datasets import load_dataset
from repro.eval.timing import measure_qps
from repro.offline.recall import recall_at_k
from repro.segmenters.learner import learn_segmenter

from benchmarks.conftest import BENCH_EF, BENCH_HNSW
from benchmarks.harness import report, swap_segmenter

SEGMENT_COUNTS = [1, 4, 8, 16]
SPILLS = [0.10, 0.20, 0.30]  # fraction routed to both children per level
TOP_K = 15


@pytest.fixture(scope="module")
def groups():
    dataset = load_dataset("groups")
    # Keep the physical-spill build matrix tractable on 2 cores.
    limit = min(dataset.num_base, max(int(5000 * dataset.num_base / 8000), 512))
    dataset.base = dataset.base[:limit]
    dataset._truth_cache.clear()
    return dataset


def run_cell(dataset, index, top_k):
    """Recall@15 + QPS of one built index over the dataset queries."""
    ids = np.full((dataset.num_queries, top_k), -1, dtype=np.int64)

    def one_query(query):
        found, _ = index.query(query, top_k, ef=BENCH_EF)
        return found

    for row, query in enumerate(dataset.queries):
        found = one_query(query)
        ids[row, : len(found)] = found
    stats = measure_qps(lambda q: one_query(q), dataset.queries)
    recall = recall_at_k(ids, dataset.ground_truth(top_k), top_k)
    return recall, stats["qps"]


def test_table7_spill_tradeoff(benchmark, groups):
    def run_experiment():
        rows = []
        base_config = LannsConfig(
            num_shards=1,
            num_segments=1,
            segmenter="apd",
            hnsw=BENCH_HNSW,
            segmenter_sample_size=groups.num_base,
            seed=11,
        )
        # Segments = 1: no segmentation, spill is irrelevant.
        single = build_lanns_index(groups.base, config=base_config)
        recall, qps = run_cell(groups, single, TOP_K)
        rows.append(
            {
                "Segments": 1,
                "Spill": "0%",
                "Phys R@15": recall,
                "Phys QPS": qps,
                "Virt R@15": recall,
                "Virt QPS": qps,
            }
        )
        for segments in SEGMENT_COUNTS[1:]:
            # One virtual build per segment count, re-queried per alpha.
            virtual_config = base_config.with_updates(
                num_segments=segments, alpha=0.15, spill_mode="virtual"
            )
            virtual_index = build_lanns_index(
                groups.base, config=virtual_config
            )
            for spill in SPILLS:
                alpha = spill / 2.0
                virtual_segmenter = learn_segmenter(
                    groups.base,
                    "apd",
                    segments,
                    alpha=alpha,
                    spill_mode="virtual",
                    sample_size=groups.num_base,
                    seed=11,
                )
                swapped = swap_segmenter(virtual_index, virtual_segmenter)
                virt_recall, virt_qps = run_cell(groups, swapped, TOP_K)

                physical_config = base_config.with_updates(
                    num_segments=segments,
                    alpha=alpha,
                    spill_mode="physical",
                )
                physical_index = build_lanns_index(
                    groups.base, config=physical_config
                )
                phys_recall, phys_qps = run_cell(
                    groups, physical_index, TOP_K
                )
                rows.append(
                    {
                        "Segments": segments,
                        "Spill": f"{int(spill * 100)}%",
                        "Phys R@15": phys_recall,
                        "Phys QPS": phys_qps,
                        "Virt R@15": virt_recall,
                        "Virt QPS": virt_qps,
                        "Phys vectors": len(physical_index),
                    }
                )
        return rows

    rows = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    report(
        "table7_groups_spill",
        rows,
        title=(
            "Table 7 -- Groups-like data (d=256, "
            f"{groups.num_base} base / {groups.num_queries} queries): "
            "physical vs virtual spill, APD segmenter, R@15 + QPS"
        ),
        notes=(
            "Paper shape: recall rises with spill %, falls with segment "
            "count; QPS rises with segment count; physical ~= virtual "
            "recall; physical costs memory ('Phys vectors' column), "
            "virtual costs QPS."
        ),
    )
    benchmark.extra_info["rows"] = rows

    def cell(segments, spill, column):
        for row in rows:
            if row["Segments"] == segments and row["Spill"] == spill:
                return row[column]
        raise KeyError((segments, spill, column))

    # Recall rises with spill at fixed segment count (both modes).
    for segments in (8, 16):
        assert cell(segments, "30%", "Virt R@15") >= cell(
            segments, "10%", "Virt R@15"
        ) - 0.01
        assert cell(segments, "30%", "Phys R@15") >= cell(
            segments, "10%", "Phys R@15"
        ) - 0.01
    # Recall falls as segments grow at fixed spill.
    assert cell(16, "10%", "Virt R@15") <= cell(4, "10%", "Virt R@15") + 0.02
    # Segmentation speeds up queries vs the single-segment index.  Wall
    # QPS on a 2-core host carries heavy run-to-run noise, so the claim
    # is made on the cleanest cell (physical spill, most segments, least
    # duplication: exactly one small segment probed per query) and as a
    # ballpark bound for the noisier cells.
    single_qps = rows[0]["Virt QPS"]
    assert cell(16, "10%", "Phys QPS") > single_qps
    assert max(
        cell(segments, spill, "Phys QPS")
        for segments in (4, 8, 16)
        for spill in ("10%", "20%", "30%")
    ) > single_qps
    assert cell(16, "10%", "Virt QPS") > 0.4 * single_qps
    # Physical and virtual recall agree closely (paper: "comparable").
    for segments in (4, 8, 16):
        for spill in ("10%", "30%"):
            assert abs(
                cell(segments, spill, "Phys R@15")
                - cell(segments, spill, "Virt R@15")
            ) < 0.12
    # Physical spill costs memory.
    assert cell(16, "30%", "Phys vectors") > groups.num_base * 1.5
