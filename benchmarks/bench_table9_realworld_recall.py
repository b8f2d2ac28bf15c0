"""Table 9: recall on the real-world-like datasets.

Paper:

    Dataset   S   dim   Index Size  Query Size  K    R@K
    People    32  50    180M        20k         50   97%
    PYMK      20  50    100M        1M          100  95%
    NearDupe  1   2048  148k        0.5M        100  97%
    Groups    1   256   2.7M        20k         100  97%

Expected shape: every deployment reaches high recall (>= 0.90 at our
scale; the paper reports >= 95%).
"""

from repro.offline.recall import recall_at_k

from benchmarks.harness import report
from benchmarks.bench_table8_realworld_times import realworld_runs  # fixture

PAPER_RECALL = {"people": 0.97, "pymk": 0.95, "neardupe": 0.97, "groups": 0.97}


def test_table9_realworld_recall(benchmark, realworld_runs):
    def collect_rows():
        rows = []
        for name, run in realworld_runs.items():
            dataset = run["dataset"]
            top_k = run["top_k"]
            truth = dataset.ground_truth(top_k)
            recall = recall_at_k(run["result"].ids, truth, top_k)
            rows.append(
                {
                    "Dataset": name,
                    "S": run["config"].num_shards,
                    "dim": dataset.dim,
                    "Index Size": dataset.num_base,
                    "Query Size": dataset.num_queries,
                    "K": top_k,
                    "R@K": recall,
                    "paper_R@K": PAPER_RECALL[name],
                }
            )
        return rows

    rows = benchmark.pedantic(collect_rows, rounds=1, iterations=1)
    report(
        "table9_realworld_recall",
        rows,
        title="Table 9 -- Recall, real-world-like datasets",
        notes="Paper: People 97% | PYMK 95% | NearDupe 97% | Groups 97%.",
    )
    benchmark.extra_info["rows"] = rows

    for row in rows:
        assert row["R@K"] >= 0.90, (
            f"{row['Dataset']}: R@{row['K']} = {row['R@K']:.3f} < 0.90"
        )
