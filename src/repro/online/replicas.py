"""Replica groups: N interchangeable searchers serving one shard.

The broker used to hold exactly one transport per shard; this module
generalizes that to a :class:`ReplicaGroup` per shard with a per-replica
health/load ledger:

- ``in_flight``    -- requests currently outstanding on the replica,
- ``ewma_latency`` -- exponentially weighted moving average of observed
  RPC latency (the same signal the ``shard_rpc`` stage records),
- ``consecutive_failures`` -- transport failures since the last success.

:meth:`ReplicaGroup.pick` implements the load-aware choice: healthy
replicas first, least in-flight, EWMA latency as the tie-break.
Failover and cross-replica hedging are built on ``pick``'s ``exclude``
parameter: callers accumulate the replicas they already tried and ask
for a different one.

With ``breaker_threshold > 0`` each replica additionally carries a
circuit breaker over ``consecutive_failures``: once the streak reaches
the threshold the breaker *opens* and ``pick`` skips the replica for
``breaker_cooldown_s`` (no request even attempts it, so a crashed or
shedding replica stops eating one failed RPC per query).  After the
cooldown the breaker is *half-open*: exactly one probe request is let
through -- success closes the breaker, failure re-opens it for another
cooldown.  The zero-drop guarantee survives: when every replica of a
group is open, requests flow anyway (answering on a suspect replica
beats answering nobody).
"""

from __future__ import annotations

import threading
import time
from collections.abc import Iterable, Sequence
from statistics import median

from repro.net.transport import SearcherTransport, as_transport
from repro.obs.metrics import Tally, get_registry

#: Smoothing factor for the per-replica latency EWMA.
EWMA_ALPHA = 0.2

_IN_FLIGHT = get_registry().gauge(
    "lanns_replica_in_flight",
    "Requests currently outstanding on a replica.",
)
_EWMA_MS = get_registry().gauge(
    "lanns_replica_ewma_ms",
    "EWMA of observed RPC latency per replica, in milliseconds.",
)
_BREAKER_STATE = get_registry().gauge(
    "lanns_replica_breaker_state",
    "Per-replica circuit breaker state (0=closed, 1=open, 2=half-open).",
)
#: What a group counts: ``breaker_trips`` labelled by replica.
_COUNTERS = get_registry().counters(
    "lanns_replica",
    breaker_trips="Circuit-breaker openings (closed/half-open -> open) per replica.",
)

#: ``_BREAKER_STATE`` gauge values, index-aligned with the state names.
BREAKER_STATES = ("closed", "open", "half-open")


class ReplicaState:
    """Ledger entry for one replica (mutated only under the group lock)."""

    __slots__ = (
        "transport",
        "replica_id",
        "in_flight",
        "ewma_latency_s",
        "picks",
        "failures",
        "consecutive_failures",
        "breaker_open_until",
        "breaker_probing",
        "breaker_published",
        "in_flight_gauge",
        "ewma_gauge",
        "breaker_gauge",
    )

    def __init__(
        self, transport: SearcherTransport, replica_id: int, **labels
    ) -> None:
        self.transport = transport
        self.replica_id = replica_id
        self.in_flight = 0
        self.ewma_latency_s: float | None = None
        self.picks = 0
        self.failures = 0
        self.consecutive_failures = 0
        #: Circuit breaker: the instant (``time.monotonic``) the open
        #: state expires into half-open, and whether the half-open probe
        #: is currently outstanding.
        self.breaker_open_until = 0.0
        self.breaker_probing = False
        #: The state ``lanns_replica_breaker_state`` last read for it
        #: (``None`` until its first ``finish`` publishes one).
        self.breaker_published: int | None = None
        #: Its series of the three gauges, keyed once.
        labels["replica"] = replica_id
        self.in_flight_gauge = _IN_FLIGHT.series(**labels)
        self.ewma_gauge = _EWMA_MS.series(**labels)
        self.breaker_gauge = _BREAKER_STATE.series(**labels)

    def snapshot(self) -> dict:
        return {
            "replica_id": self.replica_id,
            "in_flight": self.in_flight,
            "ewma_latency_s": self.ewma_latency_s,
            "picks": self.picks,
            "failures": self.failures,
            "consecutive_failures": self.consecutive_failures,
        }


class ReplicaGroup:
    """The replicas serving one shard, with load-aware selection.

    ``breaker_threshold`` consecutive transport failures trip a
    per-replica circuit breaker for ``breaker_cooldown_s`` (``0``
    disables breakers entirely -- the pre-breaker behaviour, where a
    failing replica is merely deprioritized).  Its metric series are
    labelled by the owning ``broker``'s name as well as by shard and
    replica, so the groups of two brokers never share one.
    """

    def __init__(
        self,
        shard_id: int,
        searchers: Sequence,
        *,
        breaker_threshold: int = 0,
        breaker_cooldown_s: float = 1.0,
        broker: str = "broker",
    ) -> None:
        if not searchers:
            raise ValueError(f"shard {shard_id} has an empty replica group")
        if breaker_threshold < 0:
            raise ValueError(
                f"breaker_threshold must be >= 0, got {breaker_threshold}"
            )
        if breaker_cooldown_s <= 0:
            raise ValueError(
                f"breaker_cooldown_s must be > 0, got {breaker_cooldown_s}"
            )
        self.shard_id = int(shard_id)
        self.breaker_threshold = int(breaker_threshold)
        self.breaker_cooldown_s = float(breaker_cooldown_s)
        self.broker = str(broker)
        self.replicas = [
            ReplicaState(
                as_transport(searcher),
                replica_id,
                broker=self.broker,
                shard=self.shard_id,
            )
            for replica_id, searcher in enumerate(searchers)
        ]
        for replica in self.replicas:
            if replica.transport.shard_id != self.shard_id:
                raise ValueError(
                    "searchers must be passed in shard order: replica "
                    f"{replica.replica_id} of group {self.shard_id} serves "
                    f"shard {replica.transport.shard_id}"
                )
        self._lock = threading.Lock()
        self.tally = Tally(_COUNTERS, broker=self.broker, shard=self.shard_id)

    def __len__(self) -> int:
        with self._lock:
            return len(self.replicas)

    @property
    def transports(self) -> list[SearcherTransport]:
        with self._lock:
            return [replica.transport for replica in self.replicas]

    # -- circuit breaker ---------------------------------------------------------
    def _breaker_state_locked(self, replica: ReplicaState, now: float) -> int:
        """0 = closed, 1 = open, 2 = half-open (caller holds the lock)."""
        if (
            not self.breaker_threshold
            or replica.consecutive_failures < self.breaker_threshold
        ):
            return 0
        return 1 if now < replica.breaker_open_until else 2

    def _breaker_blocked_locked(
        self, replica: ReplicaState, now: float
    ) -> bool:
        """Whether the breaker keeps this replica out of the rotation.

        Open blocks outright; half-open blocks while its single probe
        is outstanding (one request at a time decides recovery, not a
        thundering herd of optimists).
        """
        state = self._breaker_state_locked(replica, now)
        if state == 1:
            return True
        return state == 2 and replica.breaker_probing

    def _publish_breaker_locked(
        self, replica: ReplicaState, now: float
    ) -> None:
        """Write the breaker's state if it moved since it was last written."""
        state = self._breaker_state_locked(replica, now)
        if state != replica.breaker_published:
            replica.breaker_published = state
            replica.breaker_gauge.set(state)

    def _refresh_breakers_locked(self, now: float) -> None:
        """Publish every state that moved since it was last published.

        Only time moves a breaker outside ``finish``: an open one whose
        cooldown ran out is half-open, picked or not.  A replica no
        ``finish`` has published yet is closed and shows nowhere.
        """
        for replica in self.replicas:
            if replica.breaker_published is not None:
                self._publish_breaker_locked(replica, now)

    # -- selection ---------------------------------------------------------------
    def pick(
        self, exclude: Iterable[int] = ()
    ) -> ReplicaState | None:
        """Choose the least-loaded replica not in ``exclude``.

        Replicas whose circuit breaker is open (or half-open with the
        probe already outstanding) are skipped while an alternative
        exists; among the rest, replicas with consecutive failures are
        deprioritized, then least in-flight wins with EWMA latency as
        tie-break.  A replica with no latency sample yet ranks at the
        pool's median EWMA: neither preferred over measured siblings (an
        implicit ``0.0`` would send every tie to the coldest replica)
        nor starved behind them (``+inf`` would keep it unmeasured
        forever).  Picking a half-open replica marks its probe as
        outstanding; every pick publishes the breaker states that moved.
        Returns ``None`` when every replica is excluded.
        """
        excluded = set(exclude)
        now = time.monotonic()
        with self._lock:
            candidates = [
                replica
                for replica in self.replicas
                if replica.replica_id not in excluded
            ]
            if not candidates:
                return None
            ready = [
                r
                for r in candidates
                if not self._breaker_blocked_locked(r, now)
            ]
            pool = ready or candidates
            known = [
                r.ewma_latency_s
                for r in pool
                if r.ewma_latency_s is not None
            ]
            neutral = median(known) if known else 0.0
            chosen = min(
                pool,
                key=lambda r: (
                    r.consecutive_failures > 0,
                    r.in_flight,
                    r.ewma_latency_s
                    if r.ewma_latency_s is not None
                    else neutral,
                    r.replica_id,
                ),
            )
            chosen.picks += 1
            if self._breaker_state_locked(chosen, now) == 2:
                chosen.breaker_probing = True
            self._refresh_breakers_locked(now)
            return chosen

    # -- accounting --------------------------------------------------------------
    def begin(self, replica: ReplicaState) -> None:
        """Record that a request was issued to ``replica``."""
        with self._lock:
            replica.in_flight += 1
            replica.in_flight_gauge.set(replica.in_flight)

    def finish(
        self,
        replica: ReplicaState,
        latency_s: float | None = None,
        *,
        outcome: str = "ok",
    ) -> None:
        """Record completion.  ``outcome`` is ``ok``/``error``/``cancelled``;
        cancelled calls (hedge losers) only release the in-flight slot
        (and free a half-open probe slot, so an abandoned probe does not
        wedge the breaker)."""
        now = time.monotonic()
        tripped = False
        with self._lock:
            replica.in_flight = max(0, replica.in_flight - 1)
            replica.in_flight_gauge.set(replica.in_flight)
            if outcome == "cancelled":
                replica.breaker_probing = False
                return
            if outcome == "error":
                replica.failures += 1
                replica.consecutive_failures += 1
                replica.breaker_probing = False
                if (
                    self.breaker_threshold
                    and replica.consecutive_failures
                    >= self.breaker_threshold
                ):
                    # Trip (or re-trip after a failed probe).  Errors
                    # landing while already open -- stragglers issued
                    # before the trip -- extend the cooldown without
                    # counting another trip.
                    tripped = now >= replica.breaker_open_until
                    replica.breaker_open_until = (
                        now + self.breaker_cooldown_s
                    )
                self._publish_breaker_locked(replica, now)
            else:
                replica.consecutive_failures = 0
                replica.breaker_probing = False
                replica.breaker_open_until = 0.0
                self._publish_breaker_locked(replica, now)
                if latency_s is not None:
                    if replica.ewma_latency_s is None:
                        replica.ewma_latency_s = latency_s
                    else:
                        replica.ewma_latency_s = (
                            EWMA_ALPHA * latency_s
                            + (1.0 - EWMA_ALPHA) * replica.ewma_latency_s
                        )
                    replica.ewma_gauge.set(replica.ewma_latency_s * 1e3)
        if tripped:
            self.tally.count("breaker_trips", replica=replica.replica_id)

    def stats(self) -> dict:
        now = time.monotonic()
        with self._lock:
            self._refresh_breakers_locked(now)
            snapshots = []
            for replica in self.replicas:
                snapshot = replica.snapshot()
                snapshot["breaker_state"] = BREAKER_STATES[
                    self._breaker_state_locked(replica, now)
                ]
                snapshots.append(snapshot)
        return {
            "shard_id": self.shard_id,
            "counts": self.tally.snapshot(),
            "replicas": snapshots,
        }
