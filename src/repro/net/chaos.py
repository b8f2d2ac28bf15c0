"""Deterministic fault injection for the serving tier.

A :class:`FaultPlan` is a *seeded* schedule of transport faults --
artificial delays, connection resets, silent drops, and overload
responses -- consumed one decision per SEARCH frame in arrival order.
Because the searcher handles frames sequentially per connection and the
plan's RNG is seeded, two runs offering the same request sequence see
the *same* faults at the same points: chaos tests and
``benchmarks/bench_overload.py`` assert bit-reproducibility of entire
faulty runs, not just of the happy path.

The plan lives at the server boundary (``SearcherServer`` consults it
after decoding each SEARCH frame), which is where real faults bite:
the client sees a genuine RST / timeout / OVERLOADED frame produced by
a genuine server, so every client-side recovery path (reconnect,
retry, failover, breaker) is exercised for real rather than mocked.

``FaultPlan.parse`` round-trips a compact ``key=value`` spec string so
:mod:`repro.net.fleet` can ship a plan to a searcher subprocess through
one CLI flag (``repro.cli serve-searcher --chaos-spec ...``).
"""

from __future__ import annotations

import random
import threading

#: Fault kinds, in cumulative-threshold order.  ``delay`` stalls the
#: response, ``reset`` closes the connection before answering, ``drop``
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
    delay_rate / reset_rate / drop_rate / overload_rate:
        Per-request probability of each fault kind; the rates must sum
        to at most 1 (the remainder is "no fault").
    delay_s:
        Stall applied when a ``delay`` fault fires.
    """

    def __init__(
        self,
        *,
        seed: int = 0,
        delay_rate: float = 0.0,
        delay_s: float = 0.05,
        reset_rate: float = 0.0,
        drop_rate: float = 0.0,
        overload_rate: float = 0.0,
    ) -> None:
        rates = {
            "delay": float(delay_rate),
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
        if delay_s < 0:
            raise ValueError(f"delay_s must be >= 0, got {delay_s}")
        self.seed = int(seed)
        self.rates = rates
        self.delay_s = float(delay_s)
        self._rng = random.Random(self.seed)
        self._lock = threading.Lock()

    def draw(self) -> str | None:
        """The next fault decision: a :data:`FAULT_KINDS` entry or ``None``.

        One draw per request, in arrival order -- the RNG stream *is*
        the schedule, so callers must not draw speculatively.  The server
        counts what it injects (``lanns_chaos_faults_total``).
        """
        with self._lock:
            u = self._rng.random()
        threshold = 0.0
        for kind in FAULT_KINDS:
            threshold += self.rates[kind]
            if u < threshold:
                return kind
        return None

    # -- spec round trip ---------------------------------------------------------------
    def spec(self) -> str:
        """Compact ``key=value`` form accepted by :meth:`parse`."""
        parts = [f"seed={self.seed}"]
        for kind in FAULT_KINDS:
            if self.rates[kind]:
                parts.append(f"{kind}_rate={self.rates[kind]!r}")
        if self.rates["delay"]:
            parts.append(f"delay_s={self.delay_s!r}")
        return ",".join(parts)

    @classmethod
    def parse(cls, spec: str) -> FaultPlan:
        """Parse ``"seed=42,reset_rate=0.1,delay_rate=0.2,delay_s=0.05"``."""
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
            if key == "seed":
                kwargs["seed"] = int(value)
            elif key in ("delay_s",) or key.endswith("_rate"):
                kwargs[key] = float(value)
            else:
                raise ValueError(f"unknown chaos spec key {key!r}")
        try:
            return cls(**kwargs)
        except TypeError as exc:
            raise ValueError(f"invalid chaos spec {spec!r}: {exc}") from None

    def __repr__(self) -> str:
        return f"FaultPlan({self.spec()!r})"
