"""Deterministic fault injection for the serving tier.

A :class:`FaultPlan` is a *seeded* schedule of transport faults --
stalls, connection resets, silent drops, and overload responses --
consumed one decision per SEARCH frame in arrival order.  Because the
searcher handles frames sequentially per connection and the plan's RNG
is seeded, two runs offering the same request sequence see the *same*
faults at the same points: chaos tests and
``benchmarks/bench_overload.py`` assert bit-reproducibility of entire
faulty runs, not just of the happy path.

The plan lives at the server boundary (``SearcherServer`` consults it
after decoding each SEARCH frame), which is where real faults bite:
the client sees a genuine RST / timeout / OVERLOADED frame produced by
a genuine server, and a stalled request holds a genuine admission slot,
so every client-side recovery path (reconnect, retry, failover, hedge,
breaker) is exercised for real rather than mocked.

``FaultPlan.parse`` round-trips a compact ``key=value`` spec string so
:mod:`repro.net.fleet` can ship a plan to a searcher subprocess through
one CLI flag (``repro.cli serve-searcher --chaos-spec ...``).
"""

from __future__ import annotations

import random
import threading

#: Fault kinds.  ``delay`` stalls the request after admission, holding
#: its slot; ``reset`` closes the connection before answering, ``drop``
#: swallows the request without any response (the client's deadline
#: fires), ``overload`` sheds with a structured OVERLOADED error frame.
FAULT_KINDS = ("delay", "reset", "drop", "overload")


class FaultPlan:
    """A seeded, reproducible schedule of injected transport faults.

    Parameters
    ----------
    seed:
        RNG seed; identical seeds + identical request order -> identical
        fault sequence.
    reset_rate / drop_rate / overload_rate:
        Per-request probability of each random fault kind; the rates
        must sum to at most 1 (the remainder is "no random fault").
    delay_every:
        SEARCH frame ``n`` (1-based) stalls iff ``(n - 1) % delay_every
        == 0`` and the random draw picked no fault: ``1`` stalls every
        request, ``2`` lets a hedged retry of a stalled request land on
        a fast slot, ``0`` never stalls.
    delay_s:
        How long a ``delay`` fault stalls.
    """

    def __init__(
        self,
        *,
        seed: int = 0,
        delay_every: int = 0,
        delay_s: float = 0.05,
        reset_rate: float = 0.0,
        drop_rate: float = 0.0,
        overload_rate: float = 0.0,
    ) -> None:
        rates = {
            "reset": float(reset_rate),
            "drop": float(drop_rate),
            "overload": float(overload_rate),
        }
        for kind, rate in rates.items():
            if not 0.0 <= rate <= 1.0:
                raise ValueError(
                    f"{kind}_rate must be in [0, 1], got {rate}"
                )
        if sum(rates.values()) > 1.0:
            raise ValueError(
                f"fault rates sum to {sum(rates.values())}, must be <= 1"
            )
        if delay_every < 0:
            raise ValueError(f"delay_every must be >= 0, got {delay_every}")
        if delay_s < 0:
            raise ValueError(f"delay_s must be >= 0, got {delay_s}")
        self.seed = int(seed)
        self.rates = rates
        self.delay_every = int(delay_every)
        self.delay_s = float(delay_s)
        self._rng = random.Random(self.seed)
        self._frames = 0
        self._lock = threading.Lock()

    def draw(self) -> str | None:
        """The next fault decision: a :data:`FAULT_KINDS` entry or ``None``.

        One draw per request, in arrival order -- the RNG stream and the
        frame count *are* the schedule, so callers must not draw
        speculatively.  The server counts what it injects
        (``lanns_chaos_faults_total``).
        """
        with self._lock:
            u = self._rng.random()
            self._frames += 1
            frame = self._frames
        threshold = 0.0
        for kind, rate in self.rates.items():  # cumulative thresholds
            threshold += rate
            if u < threshold:
                return kind
        if self.delay_every and (frame - 1) % self.delay_every == 0:
            return "delay"
        return None

    # -- spec round trip ---------------------------------------------------------------
    def spec(self) -> str:
        """Compact ``key=value`` form accepted by :meth:`parse`."""
        parts = [f"seed={self.seed}"]
        for kind, rate in self.rates.items():
            if rate:
                parts.append(f"{kind}_rate={rate!r}")
        if self.delay_every:
            parts.append(f"delay_every={self.delay_every}")
            parts.append(f"delay_s={self.delay_s!r}")
        return ",".join(parts)

    @classmethod
    def parse(cls, spec: str) -> FaultPlan:
        """Parse ``"seed=42,reset_rate=0.1,delay_every=5,delay_s=0.05"``."""
        kwargs: dict[str, float] = {}
        for part in str(spec).split(","):
            part = part.strip()
            if not part:
                continue
            key, sep, value = part.partition("=")
            key = key.strip()
            if not sep:
                raise ValueError(
                    f"chaos spec entry {part!r} is not of the form key=value"
                )
            if key in ("seed", "delay_every"):
                kwargs[key] = int(value)
            elif key == "delay_s" or key.endswith("_rate"):
                kwargs[key] = float(value)
            else:
                raise ValueError(f"unknown chaos spec key {key!r}")
        try:
            return cls(**kwargs)
        except TypeError as exc:
            raise ValueError(f"invalid chaos spec {spec!r}: {exc}") from None

    def __repr__(self) -> str:
        return f"FaultPlan({self.spec()!r})"
