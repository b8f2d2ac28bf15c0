"""Observability overhead: cost accounting and tracing must be ~free.

PR 8 wired a metrics registry, per-query search-cost accounting and
sampled request tracing through the serving path.  This benchmark pins
the deal those features were sold under, as QPS ratios against the
pre-PR baseline path (``collect_cost=False``, tracing off):

1. **Accounting-on is the default** -- a broker with ``collect_cost=True``
   (today's default) serves at >= 0.97x baseline;
2. **Sampled tracing is cheap** -- with 1 %-sampled tracing on top,
   >= 0.90x baseline.

The three configurations serve the same query stream in process (local
transports, so the ratios measure the accounting, not socket noise)
through the harness's interleaved timing.  That the answers are
bit-identical with accounting on and off, and what the cost dict holds,
is ``tests/test_obs.py::test_cost_accounting_without_changing_results``.

    PYTHONPATH=src python benchmarks/bench_observability_overhead.py [--smoke]
"""

from __future__ import annotations

import sys
from functools import partial

from harness import (
    INDEX_PATH,
    Gate,
    corpus,
    exported,
    interleaved,
    main,
    report,
    speedup,
    summary,
)
from repro.core.builder import build_lanns_index
from repro.online.service import OnlineService
from repro.online.types import SearchRequest

FULL = dict(
    num_base=20_000, num_queries=400, dim=32, shards=2, segments=4,
    top_k=10, ef=64, passes=5,
)
SIZES = {
    "full": FULL,
    "smoke": FULL | dict(num_base=4000, num_queries=150, passes=3),
}
#: QPS of the configuration over QPS of the baseline path.  At smoke
#: size a query is ~3.4 ms and the accounting's fixed ~80 us per query is
#: over 2 % of it: 69 smoke runs read default / baseline 0.966x-0.997x
#: (median 0.981x, sigma 0.006) and three of them were under 0.97x.  The
#: smoke floor is that median minus five sigma; the full-size floor
#: (queries ~2x longer) is the promise as sold.
GATES = {
    "default_vs_baseline": Gate(full=0.97, smoke=0.95),
    "sampled_vs_baseline": Gate(full=0.90, smoke=0.90),
}
CONFIGS = {
    "baseline": dict(collect_cost=False),
    "default": dict(collect_cost=True),
    "sampled": dict(collect_cost=True, trace_sample_rate=0.01, trace_seed=0),
}


def check_overhead(run, _env) -> None:
    vectors, queries, config = corpus(run)
    index = build_lanns_index(vectors, config=config)
    services = {}
    with exported(index) as fs:
        try:
            for name, options in CONFIGS.items():
                services[name] = OnlineService(**options)
                services[name].deploy(fs, INDEX_PATH, index_name=name)
            scores = interleaved(
                {
                    name: [
                        partial(
                            service.execute,
                            SearchRequest(
                                queries=query, top_k=run.top_k,
                                index_name=name, ef=run.ef,
                            ),
                        )
                        for query in queries
                    ]
                    for name, service in services.items()
                },
                run.passes,
            )
        finally:
            for service in services.values():
                service.close()
    ratios = {name: speedup(scores, name, over="baseline") for name in CONFIGS}
    rows = []
    for name in CONFIGS:
        stats = summary(scores[name])
        rows.append(
            {
                "config": name,
                "qps": round(stats["qps"], 1),
                "p50_ms": round(stats["p50_ms"], 3),
                "p99_ms": round(stats["p99_ms"], 3),
                "vs_baseline": round(ratios[name], 4),
            }
        )
    report(
        "observability_overhead",
        rows,
        title=(
            f"Observability overhead ({run.num_base} x {run.dim}, "
            f"{run.num_queries} queries, {run.passes} interleaved passes)"
        ),
        payload={"smoke": run.smoke, "passes": run.passes},
    )
    run.gate("default_vs_baseline", ratios["default"])
    run.gate("sampled_vs_baseline", ratios["sampled"])


if __name__ == "__main__":
    sys.exit(main([check_overhead], SIZES, GATES))
