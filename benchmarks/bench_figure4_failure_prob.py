"""Figure 4: probability of missing the true NN vs segmentation depth.

The paper plots ``P(L) = sum_{i=1..L} 1 / (2 (0.5+alpha)^i n)`` for
``n = 10000`` and increasing tree depth, concluding that only a few
levels (1-8 segments per shard) should be used.  We regenerate the
curves for the same ``n`` and several spill values, and additionally
validate the *empirical* failure rate of a real RH segmenter against
the Theorem 1 bound on a small dataset.
"""

import numpy as np

from repro.data.synthetic import clustered_gaussians, make_queries
from repro.segmenters.learner import learn_segmenter
from repro.segmenters.theory import (
    failure_bound_1nn,
    figure4_failure_probability,
)
from repro.offline.brute_force import exact_top_k

from benchmarks.harness import report

ALPHAS = [0.05, 0.10, 0.15, 0.20, 0.25, 0.30]
MAX_LEVEL = 10
N = 10_000  # the paper's n


def test_figure4_curves(benchmark):
    def run():
        curves = {
            alpha: figure4_failure_probability(N, alpha, MAX_LEVEL)
            for alpha in ALPHAS
        }
        rows = []
        for level in range(1, MAX_LEVEL + 1):
            row = {"Level": level, "Segments": 2**level}
            for alpha in ALPHAS:
                row[f"alpha={alpha}"] = curves[alpha][level - 1]
            rows.append(row)
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    report(
        "figure4_failure_probability",
        rows,
        title=(
            f"Figure 4 -- P(missing true NN) vs tree depth, n={N} "
            "(analytic approximation from the paper)"
        ),
        notes=(
            "Paper shape: monotone increasing in depth, decreasing in "
            "alpha; tiny absolute values justify using only 1-8 segments "
            "(1-3 levels) per shard."
        ),
    )
    benchmark.extra_info["rows"] = rows

    # Monotone in depth for every alpha.
    for alpha in ALPHAS:
        column = [row[f"alpha={alpha}"] for row in rows]
        assert all(b > a for a, b in zip(column, column[1:]))
    # Decreasing in alpha at every depth.
    for row in rows:
        values = [row[f"alpha={alpha}"] for alpha in ALPHAS]
        assert all(b < a for a, b in zip(values, values[1:]))
    # The paper's operating range (<= 3 levels) keeps the bound small.
    assert rows[2][f"alpha={0.15}"] < 0.01


def test_figure4_empirical_vs_bound(benchmark):
    """Measured RH miss rate stays under the Theorem 1 bound (averaged)."""

    def run():
        data = clustered_gaussians(2000, 16, num_clusters=12, seed=3)
        queries = make_queries(data, 150, seed=4, perturbation=0.25)
        truth, _ = exact_top_k(data, queries, 1)
        rows = []
        for depth, segments in ((1, 2), (2, 4), (3, 8)):
            segmenter = learn_segmenter(
                data, "rh", segments, alpha=0.15, seed=5,
                sample_size=len(data),
            )
            data_routes = segmenter.route_data_batch(data)
            query_routes = segmenter.route_query_batch(queries)
            misses = 0
            for row, query_route in enumerate(query_routes):
                nn_segment = data_routes[truth[row, 0]][0]
                if nn_segment not in query_route:
                    misses += 1
            measured = misses / len(queries)
            bound = float(
                np.mean(
                    [
                        failure_bound_1nn(query, data, 0.15, depth)
                        for query in queries[:40]
                    ]
                )
            )
            rows.append(
                {
                    "Levels": depth,
                    "Segments": segments,
                    "measured miss rate": measured,
                    "Theorem 1 bound (avg)": bound,
                }
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    report(
        "figure4_empirical_validation",
        rows,
        title=(
            "Figure 4 companion -- measured RH miss rate vs Theorem 1 "
            "bound (n=2000, alpha=0.15)"
        ),
    )
    benchmark.extra_info["rows"] = rows
    for row in rows:
        assert row["measured miss rate"] <= row["Theorem 1 bound (avg)"] + 0.05
