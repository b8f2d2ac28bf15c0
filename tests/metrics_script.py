"""A scripted serving session whose metrics output is pinned.

Run as ``python tests/metrics_script.py`` (``src`` on ``PYTHONPATH``) in a
fresh interpreter, so the process-wide registry holds this session's
series only.  It serves one index from an in-process fleet and from an
in-thread remote fleet -- batches, repeats that hit the cache, one
broker accounting search cost and one not -- and prints one JSON
object: the registry's ``snapshot()`` and ``render_text()``, the merge
of the two fleets' STATS ``metrics`` into a fresh registry, every
searcher's STATS ``counts`` and every broker's ``counts``.

Wall-clock values are the only thing that varies between runs, so a
histogram keeps its observation ``count`` (its buckets and sum are
dropped), a latency gauge its series keys, and a loopback port reads
``PORT``.
``tests/test_obs.py::TestMetricsGolden`` compares the output with
``tests/metrics_golden.json``.
"""

from __future__ import annotations

import json
import re
import tempfile

import numpy as np

from repro.core.builder import build_lanns_index
from repro.core.config import LannsConfig
from repro.hnsw.params import HnswParams
from repro.net.server import SearcherServer
from repro.obs.metrics import MetricsRegistry, get_registry
from repro.online.searcher import SearcherNode
from repro.online.service import OnlineService
from repro.online.types import SearchRequest
from repro.storage.hdfs import LocalHdfs
from repro.storage.manifest import save_lanns_index


#: Gauges that hold a wall-clock reading.
CLOCK_GAUGES = {"lanns_replica_ewma_ms"}


def stable(snapshot: dict) -> dict:
    """``snapshot`` without its wall-clock parts."""
    out = {}
    for name, entry in snapshot.items():
        if entry["kind"] == "histogram":
            series = [[key, {"count": value["count"]}] for key, value in entry["series"]]
            entry = dict(entry, series=series)
        elif name in CLOCK_GAUGES:
            entry = dict(entry, series=[[key, None] for key, _ in entry["series"]])
        out[name] = entry
    return out


def stable_text(text: str, clocks: set) -> list:
    """``render_text()`` lines, a histogram's buckets and sum and a
    clock gauge's value left out."""
    lines = []
    for line in text.splitlines():
        name = re.split(r"[{ ]", line)[0]
        if name in clocks:
            line = line.rsplit(" ", 1)[0]
        if not any(name in (f"{clock}_bucket", f"{clock}_sum") for clock in clocks):
            lines.append(line)
    return lines


def serve(service: OnlineService, queries: np.ndarray) -> None:
    """The request script every fleet runs."""
    service.execute(SearchRequest(queries[:6], 10))
    for row in queries[:4]:
        service.execute(SearchRequest(row, 5))
    service.execute(SearchRequest(queries[2:8], 10))  # four rows hit the cache
    service.execute(SearchRequest(queries[9], 25, ef=60))


def main() -> None:
    rng = np.random.default_rng(54)
    centers = rng.normal(scale=4.0, size=(6, 12))
    data = (centers[rng.integers(0, 6, 500)] + rng.normal(size=(500, 12))).astype(
        np.float32
    )
    queries = (data[rng.integers(0, 500, 12)] + 0.1).astype(np.float32)
    config = LannsConfig(
        num_shards=2,
        num_segments=4,
        segmenter="rh",
        spill_mode="virtual",
        hnsw=HnswParams(M=8, ef_construction=40, ef_search=40, seed=0),
        segmenter_sample_size=300,
        seed=5,
    )
    index = build_lanns_index(data, config=config)
    registry = get_registry()
    with tempfile.TemporaryDirectory() as root:
        fs = LocalHdfs(root)
        save_lanns_index(index, fs, "golden")
        inline = OnlineService(cache_size=8, collect_cost=False)
        inline.deploy(fs, "golden")
        serve(inline, queries)
        inline_snapshot = registry.snapshot()
        servers = [
            SearcherServer(SearcherNode(shard), root=root).start_in_thread()
            for shard in range(config.num_shards)
        ]
        try:
            remote = OnlineService(
                searchers=[server.address for server in servers],
                cache_size=4,
            )
            remote.deploy(fs, "golden")
            serve(remote, queries)
            searcher_stats = [server.stats() for server in servers]
            brokers = [
                service.brokers["default"].tally.snapshot()
                for service in (inline, remote)
            ]
            inline.close()
            remote.close()
        finally:
            for server in servers:
                server.stop()
    merged = MetricsRegistry()
    merged.merge_snapshot(inline_snapshot)
    merged.merge_snapshot(searcher_stats[0]["metrics"])
    snapshot = registry.snapshot()
    clocks = CLOCK_GAUGES | {
        name for name, entry in snapshot.items() if entry["kind"] == "histogram"
    }
    out = {
        "snapshot": stable(snapshot),
        "text": stable_text(registry.render_text(), clocks),
        "merged": stable(merged.snapshot()),
        "merged_text": stable_text(merged.render_text(), clocks),
        "searcher_counts": [stats["counts"] for stats in searcher_stats],
        "broker_counts": brokers,
    }
    print(re.sub(r"127\.0\.0\.1:\d+", "127.0.0.1:PORT", json.dumps(out, sort_keys=True)))


if __name__ == "__main__":
    main()
