"""Online LANNS serving (Section 7, Figure 9).

- :class:`~repro.online.searcher.SearcherNode` -- hosts one shard (of one
  or more named indices, enabling A/B tests), performs the in-node
  segment-level merge.
- :class:`~repro.online.broker.Broker` -- answers what it can from its
  result cache, coalesces the misses in its micro-batcher, fans them out
  to every searcher with the ``perShardTopK`` budget and does the final
  merge.
- :class:`~repro.online.microbatch.MicroBatcher` -- coalesces requests
  arriving from many client threads into lockstep batches.
- :class:`~repro.online.cache.QueryResultCache` -- broker-level LRU over
  exact merged results, exploiting heavy-hitter query skew.
- :class:`~repro.online.service.OnlineService` -- deploys an exported
  offline index onto a searcher fleet + broker, validating the coupled
  metadata so offline build and online serving cannot drift.
"""

from repro.online.searcher import SearcherNode
from repro.online.broker import Broker, BrokerPolicy
from repro.online.cache import QueryResultCache
from repro.online.microbatch import MicroBatcher
from repro.online.service import OnlineService

__all__ = [
    "SearcherNode",
    "Broker",
    "BrokerPolicy",
    "MicroBatcher",
    "QueryResultCache",
    "OnlineService",
]
