"""Quantized beam search vs the float32 path: recall, QPS, rescore parity.

The compressed-domain scoring tier exists for one reason: per-shard
serving capacity is memory-bandwidth-bound, and an int8 beam round
gathers 4x fewer bytes per candidate than the float32 GEMM path.  On
top of that, the exact float32 rescore of the beam survivors means the
returned top-k ordering does not lean on the approximate scores -- so
the int8 path can serve a leaner beam (``int8_ef`` 84 vs the float
path's ``ef`` 96) without giving up the recall floor.  That is where
the serving win comes from, same shape as the routed bench (fewer
shards at equal recall): fewer beam rounds per query, and each round
4x lighter.  This benchmark builds the same segment per backend
(float, int8, PQ -- PQ is reported alongside, not gated) and asserts:

``recall`` -- int8-quantized beam + exact rescore at its serving
operating point reaches >= 0.95x the float path's recall@10 against an
exact scan, and every id the float and a quantized path both return
carries bit-identical distances (the rescore runs the same
batch-composition-invariant float32 kernel the float traversal scores
with).

``throughput`` -- at those operating points the int8 path serves
strictly more QPS than the float path.  Held at smoke size too: the
margin is mostly algorithmic (a leaner beam), so it holds where a pure
kernel-bandwidth effect would drown in Python traversal overhead.

Held by tier-1 instead: the 4x code shrink
(``tests/test_quantized_scoring.py::test_codes_are_four_times_smaller``)
and ``quantize="none"`` being today's path through build / persist /
deploy / serve (``::test_quantize_none_is_todays_path``,
``tests/test_storage_manifest.py::test_roundtrip_query_equivalence``,
``tests/test_online_serving.py::test_broker_matches_in_memory_index``).

    PYTHONPATH=src python benchmarks/bench_quantized_scoring.py [--smoke]
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from dataclasses import replace
from functools import partial

import numpy as np

from harness import (
    SEED,
    Gate,
    interleaved,
    main,
    report,
    require,
    speedup,
    summary,
)
from repro.data.synthetic import clustered_gaussians
from repro.hnsw.index import build_hnsw
from repro.hnsw.params import HnswParams
from repro.offline.brute_force import exact_top_k
from repro.offline.recall import recall_at_k

#: Required int8 / float recall@k ratio.
MIN_RECALL_RATIO = 0.95
#: Lockstep serving batch size.
BATCH = 64
# 512 queries are 8 requests per backend and pass.  A 64-query request
# takes ~25 ms, longer than this box holds one speed, so its minimum
# over passes converges slowly and only the number of requests averages
# the rest out: with 2 requests (128 queries, 3 passes) 20 smoke runs
# read int8 / float 0.979x-1.230x and two failed the strict gate.
FULL = dict(num_base=20_000, num_queries=512, dim=256, top_k=10, ef=96, passes=5)
# Shrink the builds, not the timing: passes are cheap.
SIZES = {"full": FULL, "smoke": FULL | dict(num_base=12_000)}
GATES = {"int8_over_float": Gate(full=1.0, smoke=1.0, strict=True)}
# Each backend serves at its own operating point: int8 runs a leaner
# beam (the exact rescore keeps the top-k trustworthy), PQ runs the
# float beam width but a deeper rescore to buy back what its much
# lossier ADC codes cost.
BACKENDS = {
    "float32": dict(quantize="none"),
    "int8": dict(quantize="int8", ef_search=84),
    "pq": dict(quantize="pq", rescore_k=192, pq_subspaces=32),
}


@contextmanager
def setup(run):
    # One segment, and queries drawn around their own cluster centres
    # rather than `corpus()`'s perturbed base rows: far queries walk long
    # beams, which is where a beam's width and its bytes per round show
    # (int8 / float QPS 1.06x-1.17x here, 1.00x-1.15x on in-distribution
    # queries; 15 trials each, `benchmarks/results/pairs/PR27.md`).
    vectors = clustered_gaussians(run.num_base, run.dim, num_clusters=32, seed=SEED)
    queries = clustered_gaussians(
        run.num_queries, run.dim, num_clusters=32, seed=SEED + 1
    )
    truth, _ = exact_top_k(vectors, queries, run.top_k)
    params = HnswParams(M=16, ef_construction=56, ef_search=run.ef, seed=SEED)
    yield {
        name: build_hnsw(vectors, params=replace(params, **backend))
        for name, backend in BACKENDS.items()
    }, queries, truth


def check_recall(run, env) -> None:
    indices, queries, truth = env
    results = {
        name: index.search_batch(queries, run.top_k)
        for name, index in indices.items()
    }
    recall = {
        name: recall_at_k(ids, truth, run.top_k) for name, (ids, _) in results.items()
    }
    print("recall@%d: %s" % (run.top_k, recall))
    require(
        recall["int8"] >= MIN_RECALL_RATIO * recall["float32"],
        f"int8 recall@{run.top_k} {recall['int8']:.4f} is below "
        f"{MIN_RECALL_RATIO}x the float path's {recall['float32']:.4f}",
    )
    float_ids, float_dists = results["float32"]
    shared = 0
    for name in ("int8", "pq"):
        ids, dists = results[name]
        query, mine, theirs = np.nonzero(ids[:, :, None] == float_ids[:, None, :])
        shared += query.size
        require(
            (dists[query, mine] == float_dists[query, theirs]).all(),
            f"{name} returned an id the float path also returns at a "
            "different distance",
        )
    require(shared > 0, "the quantized paths share no id with the float path")
    print(
        f"rescore parity: all {shared} candidates shared with the float "
        "path carry bit-identical distances ✓"
    )


def check_throughput(run, env) -> None:
    indices, queries, _ = env
    scores = interleaved(
        {
            name: [
                partial(index.search_batch, queries[start : start + BATCH], run.top_k)
                for start in range(0, len(queries), BATCH)
            ]
            for name, index in indices.items()
        },
        run.passes,
    )
    vector_mb = indices["float32"]._scorer.data.nbytes / 1e6
    rows = [
        {
            "path": name,
            "ef": index.params.ef_search,
            "rescore_k": index.params.rescore_k,
            "qps": summary(scores[name], len(queries))["qps"],
            "vs_float": speedup(scores, name, over="float32"),
            "code_mb": (
                vector_mb
                if index._quantized is None
                else index._quantized.codes.nbytes / 1e6
            ),
        }
        for name, index in indices.items()
    ]
    report(
        "quantized_scoring",
        rows,
        title=(
            "Quantized beam search + exact rescore vs the float32 path "
            f"(same graph, per-backend operating points; {run.num_base} x "
            f"{run.dim}, {len(queries)} queries, B={BATCH})"
        ),
        payload={"smoke": run.smoke},
    )
    run.gate("int8_over_float", speedup(scores, "int8", over="float32"))


if __name__ == "__main__":
    sys.exit(main([check_recall, check_throughput], SIZES, GATES, setup=setup))
