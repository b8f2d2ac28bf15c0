"""A process-wide registry of labelled, mergeable metrics.

Three instrument kinds, all thread-safe and all label-aware:

- :class:`Counter` -- monotonically increasing totals (``inc``).
- :class:`Gauge` -- point-in-time values (``set`` / ``add``).
- :class:`Histogram` -- fixed-bucket distributions (``observe``);
  fixed bounds make histograms *mergeable*: two snapshots of the same
  histogram add bucket-wise, which is what lets the STATS RPC fold a
  whole fleet into one distribution.

Every instrument lives in a :class:`MetricsRegistry`.  Serving code uses
the process-wide registry (:func:`get_registry`); tests can construct
private registries.  Registration is idempotent: asking for an existing
``(name, kind)`` returns the same instrument (so every ``Broker`` in the
process shares one ``lanns_broker_queries_total``, distinguished by
labels), while re-registering a name under a different kind raises.

:class:`Tally` is one owner's handle on a set of counters: a single
``count(name)`` feeds the shared series and the owner's own totals.

``snapshot()`` returns a plain JSON-safe dict; ``merge_snapshot()``
folds such a dict (typically from another process, via the STATS RPC)
into this registry -- counters and histograms add, gauges add too (fleet
snapshots label series per shard/replica, so distinct processes occupy
distinct series and "add" degenerates to "union").  ``render_text()``
emits the Prometheus text exposition format.
"""

from __future__ import annotations

import math
import threading

#: Default histogram bounds (seconds): tuned for serving latencies from
#: sub-millisecond cache hits to multi-second degraded fan-outs.
DEFAULT_BUCKETS = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
)


def _label_key(labels: dict) -> tuple:
    """Canonical, hashable form of a label set."""
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _escape(value: str) -> str:
    """Escape a label value for the Prometheus text format."""
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _format_series(name: str, key: tuple, extra: tuple = ()) -> str:
    pairs = list(key) + list(extra)
    if not pairs:
        return name
    inner = ",".join(f'{k}="{_escape(v)}"' for k, v in pairs)
    return f"{name}{{{inner}}}"


class _Metric:
    """Shared bookkeeping: name, help text, per-label-set series."""

    kind = "untyped"

    def __init__(self, name: str, help_text: str, lock: threading.RLock):
        self.name = name
        self.help = help_text
        self._lock = lock
        self._series: dict[tuple, object] = {}

    def _snapshot_series(self) -> list:
        with self._lock:
            return [
                [[list(pair) for pair in key], self._export_value(value)]
                for key, value in sorted(self._series.items())
            ]

    def _export_value(self, value):
        return value


class Counter(_Metric):
    """A monotonically increasing total, one value per label set."""

    kind = "counter"

    def inc(self, value: float = 1, **labels) -> None:
        if value < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        key = _label_key(labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0) + value

    def value(self, **labels) -> float:
        with self._lock:
            return self._series.get(_label_key(labels), 0)

    def _merge_series(self, key: tuple, exported) -> None:
        with self._lock:
            self._series[key] = self._series.get(key, 0) + exported


class Gauge(_Metric):
    """A point-in-time value, one per label set."""

    kind = "gauge"

    def set(self, value: float, **labels) -> None:
        with self._lock:
            self._series[_label_key(labels)] = value

    def add(self, value: float, **labels) -> None:
        key = _label_key(labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0) + value

    def value(self, **labels) -> float:
        with self._lock:
            return self._series.get(_label_key(labels), 0)

    def _merge_series(self, key: tuple, exported) -> None:
        with self._lock:
            self._series[key] = self._series.get(key, 0) + exported


class Histogram(_Metric):
    """A fixed-bucket distribution; fixed bounds make snapshots add."""

    kind = "histogram"

    def __init__(self, name, help_text, lock, buckets=DEFAULT_BUCKETS):
        super().__init__(name, help_text, lock)
        bounds = tuple(float(b) for b in buckets)
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ValueError(f"histogram {name} buckets must be increasing")
        self.buckets = bounds

    def observe(self, value: float, **labels) -> None:
        key = _label_key(labels)
        with self._lock:
            series = self._series.get(key)
            if series is None:
                # counts has one slot per bound plus the +Inf overflow.
                series = {
                    "counts": [0] * (len(self.buckets) + 1),
                    "sum": 0.0,
                    "count": 0,
                }
                self._series[key] = series
            slot = len(self.buckets)
            for index, bound in enumerate(self.buckets):
                if value <= bound:
                    slot = index
                    break
            series["counts"][slot] += 1
            series["sum"] += value
            series["count"] += 1

    def value(self, **labels) -> dict | None:
        """The raw series dict for a label set (None when unobserved)."""
        with self._lock:
            series = self._series.get(_label_key(labels))
            return None if series is None else dict(series)

    def _export_value(self, value):
        return {
            "counts": list(value["counts"]),
            "sum": value["sum"],
            "count": value["count"],
        }

    def _merge_series(self, key: tuple, exported) -> None:
        counts = exported["counts"]
        if len(counts) != len(self.buckets) + 1:
            raise ValueError(
                f"histogram {self.name}: snapshot has {len(counts)} "
                f"buckets, registry has {len(self.buckets) + 1}"
            )
        with self._lock:
            series = self._series.get(key)
            if series is None:
                series = {
                    "counts": [0] * (len(self.buckets) + 1),
                    "sum": 0.0,
                    "count": 0,
                }
                self._series[key] = series
            for slot, count in enumerate(counts):
                series["counts"][slot] += count
            series["sum"] += exported["sum"]
            series["count"] += exported["count"]


class MetricsRegistry:
    """A named collection of metrics with snapshot / merge / exposition."""

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._metrics: dict[str, _Metric] = {}

    def _register(self, cls, name: str, help_text: str, **kwargs):
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind}, not {cls.kind}"
                    )
                return existing
            metric = cls(name, help_text, self._lock, **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help_text: str = "") -> Counter:
        return self._register(Counter, name, help_text)

    def gauge(self, name: str, help_text: str = "") -> Gauge:
        return self._register(Gauge, name, help_text)

    def histogram(
        self, name: str, help_text: str = "", buckets=DEFAULT_BUCKETS
    ) -> Histogram:
        return self._register(Histogram, name, help_text, buckets=buckets)

    def metrics(self) -> list[_Metric]:
        with self._lock:
            return [self._metrics[name] for name in sorted(self._metrics)]

    def reset(self) -> None:
        """Drop every metric (tests only)."""
        with self._lock:
            self._metrics.clear()

    # -- snapshot / merge ----------------------------------------------------------
    def snapshot(self) -> dict:
        """A plain JSON-safe dump of every metric and series."""
        out: dict = {}
        for metric in self.metrics():
            entry = {
                "kind": metric.kind,
                "help": metric.help,
                "series": metric._snapshot_series(),
            }
            if isinstance(metric, Histogram):
                entry["buckets"] = list(metric.buckets)
            out[metric.name] = entry
        return out

    def merge_snapshot(self, snap: dict) -> None:
        """Fold another process's :meth:`snapshot` into this registry."""
        for name, entry in snap.items():
            kind = entry.get("kind", "counter")
            if kind == "counter":
                metric = self.counter(name, entry.get("help", ""))
            elif kind == "gauge":
                metric = self.gauge(name, entry.get("help", ""))
            elif kind == "histogram":
                metric = self.histogram(
                    name,
                    entry.get("help", ""),
                    buckets=entry.get("buckets", DEFAULT_BUCKETS),
                )
            else:
                raise ValueError(f"unknown metric kind {kind!r} for {name!r}")
            for raw_key, exported in entry.get("series", []):
                key = tuple((str(k), str(v)) for k, v in raw_key)
                metric._merge_series(key, exported)

    # -- exposition ----------------------------------------------------------------
    def render_text(self) -> str:
        """Prometheus text exposition of every metric."""
        lines: list[str] = []
        for metric in self.metrics():
            if metric.help:
                lines.append(f"# HELP {metric.name} {metric.help}")
            lines.append(f"# TYPE {metric.name} {metric.kind}")
            for raw_key, exported in metric._snapshot_series():
                key = tuple((k, v) for k, v in raw_key)
                if isinstance(metric, Histogram):
                    running = 0
                    for bound, count in zip(
                        metric.buckets, exported["counts"]
                    ):
                        running += count
                        series = _format_series(
                            metric.name + "_bucket",
                            key,
                            (("le", _format_number(bound)),),
                        )
                        lines.append(f"{series} {running}")
                    running += exported["counts"][-1]
                    series = _format_series(
                        metric.name + "_bucket", key, (("le", "+Inf"),)
                    )
                    lines.append(f"{series} {running}")
                    lines.append(
                        f"{_format_series(metric.name + '_sum', key)} "
                        f"{_format_number(exported['sum'])}"
                    )
                    lines.append(
                        f"{_format_series(metric.name + '_count', key)} "
                        f"{exported['count']}"
                    )
                else:
                    lines.append(
                        f"{_format_series(metric.name, key)} "
                        f"{_format_number(exported)}"
                    )
        return "\n".join(lines) + ("\n" if lines else "")


def _format_number(value) -> str:
    if isinstance(value, float):
        if math.isinf(value):
            return "+Inf" if value > 0 else "-Inf"
        if value == int(value) and abs(value) < 1e15:
            return str(int(value))
        return repr(value)
    return str(value)


class Tally:
    """One owner's counts, each kept once: in the registry *and* readable back.

    Registry series are shared by every owner that reports under the same
    labels (two brokers both named ``"broker"`` add into one
    ``lanns_broker_hedges_total{broker="broker"}``), so an owner's
    ``stats()`` cannot read its own share back from there.  ``count``
    therefore bumps the owner's private total and the labelled registry
    series in one call -- the only call site an event needs -- and
    ``snapshot`` is the consistent view of the private totals.
    """

    def __init__(self, counters: dict[str, Counter], **labels) -> None:
        self._counters = counters
        self._labels = labels
        self._lock = threading.Lock()
        self._totals: dict = {}

    def count(self, name: str, value: int = 1, **labels) -> None:
        """Add ``value`` to counter ``name``; extra ``labels`` (``shard=3``)
        select a sub-series, totalled under ``(name, *label values)``."""
        key = (name, *labels.values()) if labels else name
        with self._lock:
            self._totals[key] = self._totals.get(key, 0) + value
        self._counters[name].inc(value, **self._labels, **labels)

    def snapshot(self) -> dict:
        """Every total counted so far (absent = never counted = 0)."""
        with self._lock:
            return dict(self._totals)


#: The process-wide registry all serving code reports into.
_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide :class:`MetricsRegistry`."""
    return _REGISTRY
