"""What a serving process holds beside its shard.

A searcher is sized by the shard it hosts (LANNS, Sec. 7), so what it
imports and what each loaded segment keeps beyond its arrays is paid
once per shard, many shards to a host:

- a searcher that deploys an export and serves a SEARCH and a STATS
  imports neither asyncio (with ssl) nor numpy.random nor numpy.ma;
- a loaded segment keeps its external ids as one int64 array, not as a
  Python list and an id -> row dict;
- the client's running-loop guard needs no asyncio where none was
  imported, and still refuses inside a running loop
  (``tests/test_client_facade.py``).
"""

from __future__ import annotations

import gc
import tracemalloc

import numpy as np

from repro.hnsw.index import HnswIndex, build_hnsw
from repro.hnsw.params import HnswParams
from tests.conftest import LANNS_PATH, fresh_process

#: Modules a searcher never runs: asyncio (and the ssl it imports), the
#: level RNG only a build draws from, and what ``np.unique`` /
#: ``np.median`` / ``np.quantile`` import on numpy 2.4.
UNUSED = ("asyncio", "ssl", "numpy.random", "numpy.ma")

SEARCHER_SCRIPT = """
import sys
import numpy as np

baseline = set(sys.modules)
from repro.net.client import RemoteSearcherClient
from repro.net.protocol import ShardCall
from repro.net.server import SearcherServer
from repro.online.searcher import SearcherNode

server = SearcherServer(SearcherNode(0), root=ROOT).start_in_thread()
client = RemoteSearcherClient(server.address, 0)
try:
    client.deploy("footprint", PATH, root=ROOT)
    reply = client.search(ShardCall("footprint", np.ones((2, DIM), np.float32), 5))
    assert reply.ids.shape == (2, 5), reply.ids.shape
    assert "footprint" in str(client.stats())
finally:
    client.close()
    server.stop()
print(" ".join(sorted(set(sys.modules) - baseline)))
"""


def unused(modules: list[str]) -> list[str]:
    return [
        name
        for name in modules
        if any(name == top or name.startswith(top + ".") for top in UNUSED)
    ]


def test_a_searcher_imports_only_what_it_serves(lanns_fs, lanns):
    """Kills: ``import asyncio`` back at the top of ``net/client.py``;
    ``HnswIndex.__init__`` building its RNG eagerly; ``np.unique`` back
    in ``HnswIndex.from_arrays``."""
    script = (
        SEARCHER_SCRIPT.replace("ROOT", repr(str(lanns_fs.root)))
        .replace("PATH", repr(LANNS_PATH))
        .replace("DIM", str(lanns.dim))
    )
    loaded = fresh_process(script)
    assert "repro.net.server" in loaded
    assert unused(loaded) == []


def test_a_loaded_segment_keeps_its_ids_as_one_array():
    """Kills: ``from_arrays`` turning ``external_ids`` into a list and an
    id -> row dict again (~127 B per vector traced alive; ~38 here)."""
    rows = 20_000
    data = np.random.default_rng(0).normal(size=(rows, 8)).astype(np.float32)
    payload = build_hnsw(data, params=HnswParams(M=4, ef_construction=8)).to_arrays()
    gc.collect()
    tracemalloc.start()
    try:
        loaded = HnswIndex.from_arrays(payload)
        gc.collect()
        alive = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(loaded) == rows
    assert alive / rows <= 48, f"{alive / rows:.1f} B per vector"
    # The ids still answer, and the lazy id -> row map still finds rows.
    np.testing.assert_array_equal(loaded.external_ids, payload["external_ids"])
    np.testing.assert_array_equal(loaded.vector(rows - 1), data[rows - 1])


def test_the_running_loop_guard_needs_no_asyncio():
    """Kills: the guard importing asyncio to ask for a running loop."""
    loaded = fresh_process(
        "import sys\n"
        "from repro.net.client import refuse_in_running_loop\n"
        "refuse_in_running_loop('RemoteSearcherClient.search')\n"
        "print(' '.join(sys.modules))"
    )
    assert "repro.net.client" in loaded
    assert "asyncio" not in loaded
