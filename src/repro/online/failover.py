"""Failover policy: what a failed shard RPC means for the request.

Pure functions of an exception, a deadline and the partial-result
policy (one table in ``tests/test_failover_policy.py``).  The fan-out
asks :func:`should_fail_over` after a failure, :func:`retry_after_pause`
once every replica was tried, and :func:`degrades` when the group is
lost.  Deadlines are absolute ``time.monotonic`` instants (``None`` =
wait forever), compared with the clock in :func:`budget_left` only.
"""

from __future__ import annotations

import math
import time

from repro.errors import (
    ConnectionLostError,
    OverloadedError,
    ProtocolError,
    RemoteCallError,
    TransportError,
)

#: Partial-result policies for shard failures during the fan-out.
PARTIAL_POLICIES = ("fail", "degrade")


def deadline_after(timeout_s: float | None) -> float | None:
    """The absolute deadline ``timeout_s`` from now (``None`` = none)."""
    return None if timeout_s is None else time.monotonic() + timeout_s


def budget_left(deadline: float | None) -> float:
    """Seconds until ``deadline`` (negative once passed, ``inf`` for none)."""
    return math.inf if deadline is None else deadline - time.monotonic()


def _unhosted(exc: TransportError) -> bool:
    """A remote ``KeyError``: "I don't host this index" -- how a searcher
    that restarted (or missed a degraded deploy) presents."""
    return isinstance(exc, RemoteCallError) and exc.error_type == "KeyError"


def failover_eligible(exc: TransportError) -> bool:
    """Whether a sibling replica may retry after this failure.

    Dead/unreachable/garbled connections, a replica shedding with
    ``OVERLOADED`` (the work was refused instantly, so budget
    remains and a sibling may have capacity), and a replica that
    does not host the index (restarted process) fail over; timeouts
    do not (retrying a blown budget only makes it later), and
    structured remote errors do not (the request itself is broken).
    """
    return isinstance(
        exc, (ConnectionLostError, ProtocolError, OverloadedError)
    ) or _unhosted(exc)


def should_fail_over(exc: TransportError, deadline: float | None) -> bool:
    """Retry on a sibling: the failure allows it and budget remains."""
    return failover_eligible(exc) and budget_left(deadline) > 0


def retry_after_pause(
    last: TransportError | None,
    deadline: float | None,
    waited: bool,
) -> float | None:
    """Honor an OVERLOADED retry-after hint, at most once per request.

    When every replica of a group shed with ``OVERLOADED``, the
    servers told us exactly when asking again is worth it.  Returns
    the pause to sleep before re-trying the whole group -- only if
    we have not paused yet and the hint fits inside the remaining
    deadline budget -- else ``None`` (give up with the overload).
    """
    if waited or not isinstance(last, OverloadedError):
        return None
    hint = last.retry_after_s
    if hint is None or hint < 0 or budget_left(deadline) <= hint:
        return None
    return hint


def degrades(exc: TransportError, partial_policy: str) -> bool:
    """Whether a lost shard group's rows are dropped (else: re-raise).

    Asked only after replica failover is exhausted (or the failure
    was not failover-eligible).  Degradeable failures are connectivity
    losses (dead/unreachable/garbled/late shard) plus one structured
    error: the remote ``KeyError`` of an unhosted index, whose rows are
    as gone as a dead shard's.  Any other :class:`RemoteCallError`
    re-raises under either policy: the searcher executed the request
    and told us the request itself is broken, which no amount of
    shard-dropping can fix.  (A globally wrong index name still fails:
    every shard KeyErrors, and an all-shards-failed request always
    raises.)
    """
    if partial_policy == "fail":
        return False
    return not isinstance(exc, RemoteCallError) or _unhosted(exc)
