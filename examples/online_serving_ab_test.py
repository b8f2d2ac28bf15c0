"""Online serving with an A/B test between two embedding models.

Reproduces Section 7 / Figure 9: an offline-built index is exported to
HDFS as a coupled (index + segmenter + config) artifact, deployed onto a
fleet of searcher nodes fronted by a broker, and served with the
perShardTopK optimisation.  A second index ("model B") is then deployed
onto the *same* searchers -- the paper's construct for "online A/B tests
between different modeling techniques" -- and both arms are queried and
compared.

Run:
    python examples/online_serving_ab_test.py
"""

import tempfile

import numpy as np

from repro import LannsConfig, HnswParams, build_lanns_index
from repro.data import groups_like, make_queries
from repro.offline import exact_top_k, recall_at_k
from repro.online import OnlineService
from repro.online.types import SearchRequest
from repro.storage import LocalHdfs, save_lanns_index


def main() -> None:
    print("Online serving + A/B test (Section 7, Figure 9)")
    print("=" * 60)
    rng = np.random.default_rng(0)

    # Two "embedding models" for the same corpus of 6000 groups: model B
    # is model A plus noise (a worse model, so the A/B test has a
    # ground-truth winner).
    embeddings_a = groups_like(6000, seed=5)
    embeddings_b = (
        embeddings_a + rng.normal(scale=0.25, size=embeddings_a.shape)
    ).astype(np.float32)
    queries = make_queries(embeddings_a, 120, seed=6)
    truth, _ = exact_top_k(embeddings_a, queries, 15)

    config = LannsConfig(
        num_shards=2,
        num_segments=4,
        segmenter="apd",
        alpha=0.15,
        hnsw=HnswParams(M=12, ef_construction=64),
        seed=7,
    )

    with tempfile.TemporaryDirectory() as root:
        fs = LocalHdfs(root)
        print("building + exporting both model variants...")
        save_lanns_index(
            build_lanns_index(embeddings_a, config=config), fs, "prod/model-a"
        )
        save_lanns_index(
            build_lanns_index(embeddings_b, config=config), fs, "prod/model-b"
        )

        service = OnlineService()
        broker = service.deploy(fs, "prod/model-a", index_name="model-a")
        service.deploy(fs, "prod/model-b", index_name="model-b")
        print(f"deployed: {service.deployed_indices}")
        hosting = service.searchers[0][0].stats()
        print(
            f"searcher 0 hosts {hosting['hosted_indices']} "
            f"({hosting['memory_vectors']} vectors)"
        )
        print(f"broker perShardTopK for topK=15: {broker.per_shard_budget(15)}")

        # Serve both arms and score them.
        results = {}
        for arm in ("model-a", "model-b"):
            ids = np.concatenate([
                service.execute(SearchRequest(query, 15, arm, 96)).ids
                for query in queries
            ])
            results[arm] = recall_at_k(ids, truth, 15)
        # Throughput and p99 from the running system: the model-A broker's
        # own request clock, over the queries it just served.
        request = broker.stats()["stages"]["request"]

        print("\nA/B results (recall@15 against model-A ground truth):")
        for arm, recall in results.items():
            print(f"  {arm}: {recall:.4f}")
        print(
            f"throughput: {request['count'] / request['total_ms'] * 1e3:.0f} QPS, "
            f"p99 latency {request['p99_ms']:.2f} ms "
            "(paper: 2.5k QPS at p99 20ms on production hardware)"
        )
        assert results["model-a"] > results["model-b"]

        # End of experiment: retire the losing arm.
        service.undeploy("model-b")
        print(f"after ramp-down: {service.deployed_indices}")


if __name__ == "__main__":
    main()
