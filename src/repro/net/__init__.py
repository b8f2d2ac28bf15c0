"""Distributed serving over the wire (Paper Section 7).

LANNS's online architecture is a broker fanning queries out to *searcher
machines*, each hosting one shard.  This package is that wire layer:

- :mod:`repro.net.protocol` -- length-prefixed binary framing that ships
  numpy query/result blocks zero-copy;
- :mod:`repro.net.server` -- a thread-per-connection TCP server
  wrapping a :class:`~repro.online.searcher.SearcherNode`;
- :mod:`repro.net.client` -- the pooled, retrying, deadline-aware
  asyncio RPC client, and its blocking facade for plain threads;
- :mod:`repro.net.loop` -- the process's one event loop, which every
  broker's fan-out and every blocking facade call runs on;
- :mod:`repro.net.transport` -- the ``SearcherTransport`` abstraction
  the broker drives, with one in-process and one remote implementation;
- :mod:`repro.net.fleet` -- spawn/await/stop real searcher subprocesses
  over loopback (benchmarks and failure-injection tests).
"""

from repro.net.client import AsyncRemoteSearcherClient, RemoteSearcherClient
from repro.net.server import SearcherServer, ServerOptions
from repro.net.transport import (
    AsyncSearcherTransport,
    LocalSearcherTransport,
    RemoteSearcherTransport,
    SearcherTransport,
    as_transport,
)

__all__ = [
    "RemoteSearcherClient",
    "AsyncRemoteSearcherClient",
    "SearcherServer",
    "ServerOptions",
    "SearcherTransport",
    "AsyncSearcherTransport",
    "LocalSearcherTransport",
    "RemoteSearcherTransport",
    "as_transport",
]
