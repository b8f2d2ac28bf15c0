"""Distributed serving over the wire (Paper Section 7).

LANNS's online architecture is a broker fanning queries out to *searcher
machines*, each hosting one shard.  This package is that wire layer:

- :mod:`repro.net.protocol` -- length-prefixed binary framing that ships
  numpy query/result blocks zero-copy, the shard call and reply, and the
  ``SearcherTransport`` interface the broker drives;
- :mod:`repro.net.server` -- a thread-per-connection TCP server
  wrapping a :class:`~repro.online.searcher.SearcherNode`;
- :mod:`repro.net.client` -- ``RemoteSearcherClient``, the transport
  over TCP: a pooled, retrying, deadline-aware RPC client over
  non-blocking sockets, and the one ``select.poll`` loop that waits on
  its RPCs on the calling thread;
- :mod:`repro.net.transport` -- ``LocalSearcherTransport``, the
  transport in process;
- :mod:`repro.net.fleet` -- spawn/await/stop real searcher subprocesses
  over loopback (benchmarks and failure-injection tests).
"""

from repro.net.client import RemoteSearcherClient
from repro.net.server import SearcherServer, ServerOptions
from repro.net.transport import (
    LocalSearcherTransport,
    SearcherTransport,
    as_transport,
)

__all__ = [
    "RemoteSearcherClient",
    "SearcherServer",
    "ServerOptions",
    "SearcherTransport",
    "LocalSearcherTransport",
    "as_transport",
]
