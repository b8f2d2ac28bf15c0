"""End-to-end online service: deploy exported indices and serve queries.

Reproduces the Figure 9 topology: the offline Spark job exports the
serialized index to HDFS; each searcher node deserializes *its shard*
"using the persisted metadata with minimal additional configuration"; a
broker fronts the fleet.  Deploying a second index under another name
onto the same fleet models the paper's online A/B test construct.

The fleet can be **in-process** (the default: the service creates one
:class:`SearcherNode` per shard and loads shards itself) or **remote**
(pass ``searchers=...``: each address is a running
``repro.cli serve-searcher`` process, ``deploy`` becomes one RPC per
searcher, and queries travel over the :mod:`repro.net` wire protocol).
Remote shard positions may be **replica groups** -- several
interchangeable processes serving the same shard
(``"a:1,a:2;b:1,b:2"``): the broker load-balances across them, fails
over on connectivity losses, hedges stragglers onto siblings, and
:meth:`rolling_restart` cycles one group through a restart with zero
dropped queries.  Everything above the transport -- micro-batching, the
result cache, the router, perShardTopK, the merge -- is identical in
all modes.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Sequence
from dataclasses import replace

import numpy as np

from repro.core.config import LannsConfig
from repro.errors import (
    ConnectionLostError,
    RemoteCallError,
    TransportError,
)
from repro.eval.timing import measure_batch_qps, measure_qps
from repro.net.fleet import parse_fleet_spec
from repro.net.transport import RemoteSearcherTransport
from repro.online.broker import Broker, BrokerPolicy
from repro.online.cache import QueryResultCache
from repro.online.searcher import SearcherNode
from repro.online.types import SearchRequest, SearchResponse
from repro.storage.hdfs import LocalHdfs
from repro.storage.manifest import load_manifest, load_segmenter, load_shard


class OnlineService:
    """A searcher fleet plus broker, loaded from exported indices.

    Create empty, then :meth:`deploy` one or more indices.  All deployed
    indices must agree on ``num_shards`` (they share the fleet).

    Parameters
    ----------
    cache_size:
        Capacity of the service-wide query result cache, shared by all
        deployed indices (keys carry the index name).  ``0`` disables
        caching.  Entries for an index are invalidated when it is
        deployed or undeployed, so an A/B swap under a reused name can
        never serve the old index's results.
    searchers:
        ``None`` (default): an in-process fleet, created on first
        deploy.  Otherwise the remote fleet spec, in shard order --
        any shape :func:`~repro.net.fleet.parse_fleet_spec` accepts,
        including per-shard replica groups
        (``"h1:9000,h2:9000;h1:9001,h2:9001"`` or
        ``[["h1:9000", "h2:9000"], ...]``); each address must be a
        running ``serve-searcher`` process.
    rpc_retries:
        Reconnect-and-retry budget of each per-searcher RPC client
        (remote fleets only).
    policy, **fields:
        See :class:`~repro.online.broker.BrokerPolicy`: the policy every
        deployed index's broker runs under (each registers under its
        index name in the metrics registry), built and validated here,
        before any shard is hosted.  ``hedge_after_s`` needs a remote
        fleet -- in-process shards cannot hedge.
    """

    def __init__(
        self,
        *,
        # Accepted and ignored: selects nothing since the broker derives
        # its fan-out venue from the fleet.  Last caller is
        # benchmarks/ledger/workloads.py (frozen); drop both together.
        async_fanout: bool = False,
        cache_size: int = 0,
        searchers: str | Sequence | None = None,
        rpc_retries: int = 2,
        policy: BrokerPolicy | None = None,
        **fields,
    ) -> None:
        self.policy = replace(policy or BrokerPolicy(), **fields)
        self.brokers: dict[str, Broker] = {}
        self.configs: dict[str, LannsConfig] = {}
        #: ``index_name -> (fs, index_path)`` for every live deploy
        #: (what :meth:`rolling_restart` re-hosts onto fresh replicas).
        self.deployments: dict[str, tuple[LocalHdfs, str]] = {}
        self.cache = QueryResultCache(cache_size)
        self._deploy_epoch = 0
        if searchers is None:
            if self.policy.hedge_after_s is not None:
                # Fail here, not at the first deploy's Broker(), which
                # runs after the shards are already hosted.
                raise ValueError(
                    "hedge_after_s needs a remote fleet (in-process "
                    "shards cannot hedge)"
                )
            self.remote = False
            self.searchers: list = []
        else:
            groups = parse_fleet_spec(searchers)
            if not groups:
                raise ValueError("remote fleet needs at least one address")
            self.remote = True

            # One client per searcher: the broker awaits its asyncio
            # core on the fan-out loop; deploy / verify / undeploy /
            # stats block this thread on the same client's facade.
            def connect(address: str, shard_id: int):
                return RemoteSearcherTransport(
                    address, shard_id, retries=rpc_retries
                )

            # Single-replica groups stay bare transports so the legacy
            # flat view (service.searchers[s].stats()) keeps working.
            self.searchers = [
                connect(group[0], shard_id)
                if len(group) == 1
                else [connect(address, shard_id) for address in group]
                for shard_id, group in enumerate(groups)
            ]

    def _all_transports(self) -> list:
        """Every searcher/transport of every group, group-major."""
        flat: list = []
        for entry in self.searchers:
            if isinstance(entry, list):
                flat.extend(entry)
            else:
                flat.append(entry)
        return flat

    @property
    def deployed_indices(self) -> list[str]:
        """Names of deployed indices."""
        return sorted(self.brokers)

    def deploy(
        self,
        fs: LocalHdfs,
        index_path: str,
        *,
        index_name: str = "default",
        expected_config: LannsConfig | None = None,
    ) -> Broker:
        """Load an exported index onto the fleet under ``index_name``.

        Parameters
        ----------
        expected_config:
            Optional guard: raise
            :class:`~repro.errors.MetadataMismatchError` when the
            persisted configuration differs (offline/online drift).

        Returns
        -------
        The broker serving ``index_name``.
        """
        if index_name in self.brokers:
            raise ValueError(f"index {index_name!r} is already deployed")
        manifest = load_manifest(fs, index_path)
        config = manifest.expect_config(expected_config)
        if self.searchers and len(self.searchers) != config.num_shards:
            raise ValueError(
                f"fleet has {len(self.searchers)} searchers but index "
                f"{index_name!r} needs {config.num_shards}"
            )
        # The broker embeds the trained segmenter (the router maps each
        # query to its top-spill segments) -- the persisted-metadata
        # coupling the paper insists on, now reaching the serving tier.
        segmenter = load_segmenter(fs, index_path, manifest)
        # Who may be hosting ``index_name`` on behalf of this deploy:
        # whatever raises from here on -- a shard that fails to load, a
        # broker the fleet cannot honor (a hedge delay nobody can race, a
        # segmenter / ``segment_sizes`` mismatch) -- takes it back off
        # every one of them, so a failed deploy leaves nothing hosted and
        # a corrected one can reuse the name.
        hosting: list = []
        try:
            if self.remote:
                self._deploy_remote(fs, index_path, index_name, hosting)
            else:
                if not self.searchers:
                    self.searchers = [
                        SearcherNode(shard_id)
                        for shard_id in range(config.num_shards)
                    ]
                for shard_id, searcher in enumerate(self.searchers):
                    shard = load_shard(
                        fs,
                        index_path,
                        shard_id,
                        manifest=manifest,
                        segmenter=segmenter,
                    )
                    searcher.host(index_name, shard)
                    hosting.append(searcher)
            # A previous deployment under this name may have left cached
            # results behind (the cache outlives brokers); drop them
            # before the new index starts answering.  The bumped epoch
            # additionally fences off late inserts from the old
            # deployment's in-flight requests, which can land *after*
            # this invalidation.
            self.cache.invalidate(index_name)
            self._deploy_epoch += 1
            broker = Broker(
                self.searchers,
                config,
                cache=self.cache,
                cache_epoch=self._deploy_epoch,
                segmenter=segmenter,
                segment_sizes=manifest.segment_sizes,
                name=index_name,
                policy=self.policy,
            )
        except Exception:
            # Broad on purpose, and NOT a swallow: roll back, re-raise.
            self._unhost(hosting, index_name)
            raise
        self.brokers[index_name] = broker
        self.configs[index_name] = config
        self.deployments[index_name] = (fs, index_path)
        return broker

    def _unhost(self, members: list, index_name: str) -> None:
        """Best-effort removal of ``index_name`` from ``members``.

        A crashed searcher cannot unhost, and one that never received
        the deploy has nothing to; neither may stop the rest of the
        fleet from being cleared.
        """
        for member in members:
            try:
                if self.remote:
                    member.undeploy(index_name)
                else:
                    member.unhost(index_name)
            except (TransportError, OSError):
                pass

    def _deploy_remote(
        self, fs: LocalHdfs, index_path: str, index_name: str, rollback: list
    ) -> None:
        """One DEPLOY RPC per searcher; ``rollback`` collects who to undo.

        Each searcher process loads its own shard from ``fs``'s root
        (shared over loopback; a real cluster would point every server
        at the same HDFS).  Replica groups deploy onto every member.
        Under the ``fail`` policy any failure -- connection refused,
        checksum mismatch, wrong shard id -- aborts the deploy
        (:meth:`deploy` then undeploys ``rollback``, so a failed deploy
        leaves no half-hosted index behind).  Under
        ``degrade``, *connectivity* failures are tolerated (the index
        deploys onto whoever is up, and searches return partial results
        annotated with ``shards_answered``); only a fully unreachable
        fleet, or a searcher that answered with an error, still aborts.
        """
        root = str(fs.root)
        # `rollback` is "may be hosting": a searcher enters it the moment
        # its DEPLOY RPC is attempted, because the server can host the
        # shard even when the response is lost (timeout mid-load,
        # connection dropped after host()).  Only a failure to *connect*
        # proves the request never arrived.  `hosted` counts confirmed
        # deploys -- what a degraded deploy needs at least one of.
        hosted = 0
        unreachable: Exception | None = None
        for transport in self._all_transports():
            rollback.append(transport)
            try:
                transport.verify()
                transport.deploy(index_name, index_path, root=root)
            except TransportError as exc:
                degradeable = self.policy.partial_policy == "degrade" and not (
                    isinstance(exc, RemoteCallError)
                )
                if not degradeable:
                    raise
                unreachable = exc
                if isinstance(exc, ConnectionLostError):
                    rollback.pop()  # provably never reached the server
            else:
                hosted += 1
        if hosted == 0:
            raise TransportError(
                "no searcher in the fleet confirmed the deploy"
            ) from unreachable

    def undeploy(self, index_name: str) -> None:
        """Remove an index from every searcher (end of an A/B test).

        The broker is closed *before* unhosting: close() drains requests
        still pending in the admission layer, and they must drain against
        searchers that still host the index.
        """
        if index_name not in self.brokers:
            raise KeyError(f"index {index_name!r} is not deployed")
        self.brokers[index_name].close()
        self._unhost(self._all_transports(), index_name)
        self.cache.invalidate(index_name)
        del self.brokers[index_name]
        del self.configs[index_name]
        del self.deployments[index_name]

    def rolling_restart(
        self,
        shard_id: int,
        restart: Callable[[int, int], None],
        *,
        drain_timeout_s: float = 30.0,
        verify_timeout_s: float = 30.0,
    ) -> None:
        """Restart shard ``shard_id``'s replica group with zero drops.

        One replica at a time: (1) the replica is fenced off in every
        broker (``drain`` -- no new picks, no hedges land on it), (2)
        its in-flight requests are waited out, (3) the caller's
        ``restart(shard_id, replica_id)`` hook replaces the process at
        the same address, (4) a ping handshake confirms the replacement
        is up and announces the right shard, (5) every deployed index is
        re-hosted onto it, and (6) the fence lifts.  Sibling replicas
        serve the group's full traffic throughout, so no query is
        dropped or degraded.

        Requires a remote fleet and a group of at least two replicas --
        restarting a group's only member necessarily drops its shard.
        """
        if not self.remote:
            raise ValueError(
                "rolling restart requires a remote fleet (in-process "
                "searchers have no process to restart)"
            )
        if not 0 <= shard_id < len(self.searchers):
            raise ValueError(
                f"shard {shard_id} out of range for "
                f"{len(self.searchers)} shards"
            )
        entry = self.searchers[shard_id]
        group = entry if isinstance(entry, list) else [entry]
        if len(group) < 2:
            raise ValueError(
                f"rolling restart of shard {shard_id} needs a replica "
                f"group of >= 2 (got {len(group)}): restarting the only "
                "replica would drop the shard"
            )
        for replica_id, transport in enumerate(group):
            for broker in self.brokers.values():
                broker.groups[shard_id].drain(replica_id)
            try:
                deadline = time.monotonic() + drain_timeout_s
                while any(
                    broker.groups[shard_id].in_flight(replica_id) > 0
                    for broker in self.brokers.values()
                ):
                    if time.monotonic() > deadline:
                        raise TimeoutError(
                            f"shard {shard_id} replica {replica_id} still "
                            f"has in-flight requests after "
                            f"{drain_timeout_s}s"
                        )
                    time.sleep(0.002)
                restart(shard_id, replica_id)
                deadline = time.monotonic() + verify_timeout_s
                while True:
                    try:
                        transport.verify()
                        break
                    except TransportError:
                        if time.monotonic() > deadline:
                            raise
                        time.sleep(0.05)
                for index_name, (fs, index_path) in self.deployments.items():
                    try:
                        transport.deploy(
                            index_name, index_path, root=str(fs.root)
                        )
                    except RemoteCallError as exc:
                        # "already hosts": the hook restarted in place
                        # without wiping state (or never killed the
                        # process) -- the replica is serviceable.
                        if exc.error_type != "ValueError":
                            raise
            finally:
                for broker in self.brokers.values():
                    broker.groups[shard_id].restore(replica_id)

    def close(self) -> None:
        """Close every broker (drains admission layers); idempotent.

        For a remote fleet, also closes the per-searcher connection
        pools (the searcher *processes* keep running -- they are owned
        by whoever launched them).
        """
        for broker in self.brokers.values():
            broker.close()
        if self.remote:
            for transport in self._all_transports():
                transport.close()

    def stats(self) -> dict:
        """Service-wide serving stats: shared cache plus per-index brokers.

        Each index entry also reports its ``quantize`` backend so
        operators can see which deployments serve compressed-domain
        beam searches.
        """
        indices: dict[str, dict] = {}
        for name, broker in self.brokers.items():
            entry = broker.stats()
            entry["quantize"] = self.configs[name].quantize
            indices[name] = entry
        return {
            "cache": self.cache.stats.as_dict(),
            "indices": indices,
        }

    # -- serving -----------------------------------------------------------------------
    def _broker(self, index_name: str) -> Broker:
        try:
            return self.brokers[index_name]
        except KeyError:
            raise KeyError(
                f"index {index_name!r} is not deployed "
                f"(deployed: {self.deployed_indices})"
            ) from None

    def execute(self, request: SearchRequest) -> SearchResponse:
        """Serve one structured request against its deployed index."""
        return self._broker(request.index_name).execute(request)

    def query(
        self,
        query: np.ndarray,
        top_k: int,
        *,
        index_name: str = "default",
        ef: int | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Serve one query against a deployed index."""
        return self._broker(index_name).search(index_name, query, top_k, ef=ef)

    def query_batch(
        self,
        queries: np.ndarray,
        top_k: int,
        *,
        index_name: str = "default",
        ef: int | None = None,
        spill: int | str | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Serve a query batch in one broker fan-out.

        Returns ``(B, top_k)`` id/distance arrays padded with ``-1`` /
        ``inf``; per-query results are identical to :meth:`query`.
        ``spill`` routes the batch through the broker's router (see
        :class:`~repro.online.types.SearchRequest`); :meth:`execute`
        returns the partial-result annotation (``shards_answered`` per
        row) and the rest of the serving metadata.
        """
        return self._broker(index_name).search_batch(
            index_name, queries, top_k, ef=ef, spill=spill
        )

    # The paper-facing name for the batch serving entry point.
    search_batch = query_batch

    def measure_qps(
        self,
        queries: np.ndarray,
        top_k: int,
        *,
        index_name: str = "default",
        ef: int | None = None,
        batch_size: int | None = None,
        spill: int | str | None = None,
    ) -> dict:
        """Serve a query set and report throughput / latency stats.

        With ``batch_size=None`` every query is served individually (the
        sequential baseline); otherwise queries are served in batches of
        ``batch_size`` through :meth:`query_batch` and each batch counts
        as one request for latency purposes.  ``spill`` applies spilled
        segment routing to the batched mode (the routed-serving
        benchmark's QPS comparison).  Timing comes from
        :mod:`repro.eval.timing` so both modes share one qps definition.

        Returns a dict with ``qps``, ``mean_latency_ms``,
        ``p99_latency_ms`` (the paper reports p99), ``count`` and
        ``batch_size``.
        """
        queries = np.asarray(queries, dtype=np.float32)
        if queries.ndim == 1:
            queries = queries[np.newaxis, :]
        if batch_size is None:
            stats = measure_qps(
                lambda query: self.query(
                    query, top_k, index_name=index_name, ef=ef
                ),
                queries,
            )
            mean_ms, p99_ms = stats["mean_ms"], stats["p99_ms"]
        else:
            stats = measure_batch_qps(
                lambda batch: self.query_batch(
                    batch, top_k, index_name=index_name, ef=ef, spill=spill
                ),
                queries,
                batch_size,
            )
            mean_ms, p99_ms = stats["mean_batch_ms"], stats["p99_batch_ms"]
        return {
            "count": int(queries.shape[0]),
            "batch_size": batch_size,
            "qps": stats["qps"],
            "mean_latency_ms": mean_ms,
            "p99_latency_ms": p99_ms,
        }
