"""End-to-end online service: deploy exported indices and serve queries.

Reproduces the Figure 9 topology: the offline Spark job exports the
serialized index to HDFS; each searcher node deserializes *its shard*
"using the persisted metadata with minimal additional configuration"; a
broker fronts the fleet.  Deploying a second index under another name
onto the same fleet models the paper's online A/B test construct.

The fleet is one list of replica groups, one group of
:class:`~repro.net.transport.SearcherTransport` per shard.  By default
it is **in-process** (one :class:`SearcherNode` per shard, made on the
first deploy); ``searchers=...`` makes it **remote** (each address is a
running ``repro.cli serve-searcher`` process and queries travel over the
:mod:`repro.net` wire protocol).  Either way ``deploy`` is one
``verify`` + ``deploy`` per transport, and everything above the
transport -- micro-batching, the result cache, the router, perShardTopK,
the merge -- is one path.  A group of several remote replicas
(``"a:1,a:2;b:1,b:2"``) is load-balanced, failed over on connectivity
losses and hedged onto siblings; nothing takes a replica out of the
rotation by hand.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import replace

from repro.core.config import LannsConfig
from repro.errors import (
    ConnectionLostError,
    RemoteCallError,
    TransportError,
)
from repro.net.client import RemoteSearcherClient
from repro.net.fleet import parse_fleet_spec
from repro.net.transport import LocalSearcherTransport, SearcherTransport
from repro.online.broker import Broker, BrokerPolicy
from repro.online.cache import QueryResultCache
from repro.online.searcher import SearcherNode
from repro.online.types import SearchRequest, SearchResponse
from repro.storage.hdfs import LocalHdfs
from repro.storage.manifest import load_manifest, load_segmenter


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
        # Accepted and ignored: the fan-out has one path for every
        # fleet.  Last caller is benchmarks/ledger/workloads.py
        # (frozen); drop both together.
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
        self.cache = QueryResultCache(cache_size)
        self._deploy_epoch = 0
        #: One replica group per shard, in shard order.
        self.searchers: list[list[SearcherTransport]] = []
        if searchers is None:
            if self.policy.hedge_after_s is not None:
                # Fail here, not at the first deploy's Broker(), which
                # runs after the shards are already hosted.
                raise ValueError(
                    "hedge_after_s needs a remote fleet (in-process "
                    "shards cannot hedge)"
                )
        else:
            groups = parse_fleet_spec(searchers)
            if not groups:
                raise ValueError("remote fleet needs at least one address")
            # One client per searcher: the broker's fan-out polls its
            # RPCs; deploy / verify / undeploy / stats block on it.
            self.searchers = [
                [
                    RemoteSearcherClient(address, shard_id, retries=rpc_retries)
                    for address in group
                ]
                for shard_id, group in enumerate(groups)
            ]

    def _all_transports(self) -> list[SearcherTransport]:
        """Every transport of every group, group-major."""
        return [transport for group in self.searchers for transport in group]

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
        # The broker embeds the trained segmenter (where the occupancy
        # table leaves shards to prune, it routes each query as the
        # shards do) -- the persisted-metadata coupling the paper
        # insists on, now reaching the serving tier.
        segmenter = load_segmenter(fs, index_path, manifest)
        # Who may be hosting ``index_name`` on behalf of this deploy:
        # whatever raises from here on -- a shard that fails to load, a
        # broker the fleet cannot honor (a hedge delay nobody can race, a
        # segmenter / ``segment_sizes`` mismatch) -- takes it back off
        # every one of them, so a failed deploy leaves nothing hosted and
        # a corrected one can reuse the name.
        hosting: list = []
        try:
            if not self.searchers:
                self.searchers = [
                    [LocalSearcherTransport(SearcherNode(shard_id))]
                    for shard_id in range(config.num_shards)
                ]
            self._host(fs, index_path, index_name, hosting)
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
        return broker

    def _unhost(self, members: list, index_name: str) -> None:
        """Best-effort removal of ``index_name`` from ``members``.

        A crashed searcher cannot unhost, and one that never received
        the deploy has nothing to; neither may stop the rest of the
        fleet from being cleared.
        """
        for member in members:
            try:
                member.undeploy(index_name)
            except (TransportError, OSError, KeyError):
                pass

    def _host(
        self, fs: LocalHdfs, index_path: str, index_name: str, rollback: list
    ) -> None:
        """``verify`` + ``deploy`` per transport; ``rollback`` collects
        who to undo.

        Each searcher loads its own shard from ``fs``'s root (a remote
        process over loopback; a real cluster would point every server
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
        still pending in its micro-batcher, and they must drain against
        searchers that still host the index.
        """
        if index_name not in self.brokers:
            raise KeyError(f"index {index_name!r} is not deployed")
        self.brokers[index_name].close()
        self._unhost(self._all_transports(), index_name)
        self.cache.invalidate(index_name)
        del self.brokers[index_name]
        del self.configs[index_name]

    def close(self) -> None:
        """Close every broker (drains their micro-batchers) and every
        transport; idempotent.

        A remote transport closes its connection pool (the searcher
        *processes* keep running -- they are owned by whoever launched
        them).
        """
        for broker in self.brokers.values():
            broker.close()
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
            entry["quantize"] = self.configs[name].hnsw.quantize
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
