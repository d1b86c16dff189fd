"""The metrics half of the observability layer (DESIGN.md §4.7).

Before this module existed every subsystem grew its own ad-hoc
counters — ``BitstreamCache.hits``, ``CompileService.cache_hits``,
``Runtime.sw_migrations``, the ``CascadeServer.stats()`` totals — each
with its own locking discipline and no way to read them uniformly.  A
:class:`MetricsRegistry` replaces that: components create named
counters/gauges/histograms in a registry and callers read them by name
(``registry.value("cache.hits")``), so one ``snapshot()`` sees
everything and ``:stats`` renders from a single merged dictionary.

Conventions:

* metric names are dotted and namespaced by subsystem
  (``cache.hits``, ``compile.cache_hits``, ``runtime.sw_migrations``,
  ``server.sessions_total``) so snapshots from several registries can
  be merged without collisions;
* counters accept float increments (host-seconds accumulate through
  the same type as event counts);
* histograms keep a bounded window of recent observations (plus exact
  count/sum/min/max over everything) and report p50/p99 over that
  window.

All metric types are thread-safe: compile workers, session readers and
the scheduler all write concurrently.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Deque, Dict, List, Optional, Union

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry",
           "merge_registries"]

Number = Union[int, float]


class Counter:
    """A monotonically increasing value (int or float)."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self._value: Number = 0
        self._lock = threading.Lock()

    def inc(self, amount: Number = 1) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> Number:
        return self._value

    def __repr__(self) -> str:
        return f"Counter({self.name}={self._value})"


class Gauge:
    """A value that can go up and down (queue depths, pool widths)."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self._value: Number = 0
        self._lock = threading.Lock()

    def set(self, value: Number) -> None:
        with self._lock:
            self._value = value

    def add(self, amount: Number) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> Number:
        return self._value

    def __repr__(self) -> str:
        return f"Gauge({self.name}={self._value})"


class Histogram:
    """Distribution of observations with p50/p99 over a recent window.

    ``count``/``sum``/``min``/``max`` are exact over every observation;
    percentiles are computed over the last ``max_samples`` only, which
    bounds memory for long-lived processes (the multi-tenant server)
    while staying exact for test-sized populations.
    """

    __slots__ = ("name", "_samples", "_count", "_sum", "_min", "_max",
                 "_lock")

    def __init__(self, name: str, max_samples: int = 8192):
        self.name = name
        self._samples: Deque[float] = deque(maxlen=max_samples)
        self._count = 0
        self._sum = 0.0
        self._min: Optional[float] = None
        self._max: Optional[float] = None
        self._lock = threading.Lock()

    def observe(self, value: Number) -> None:
        value = float(value)
        with self._lock:
            self._samples.append(value)
            self._count += 1
            self._sum += value
            if self._min is None or value < self._min:
                self._min = value
            if self._max is None or value > self._max:
                self._max = value

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def percentile(self, p: float) -> Optional[float]:
        """The p-th percentile (0..100) over the retained window, by
        nearest-rank; ``None`` with no observations."""
        with self._lock:
            ordered = sorted(self._samples)
        if not ordered:
            return None
        rank = max(0, min(len(ordered) - 1,
                          int(round(p / 100.0 * (len(ordered) - 1)))))
        return ordered[rank]

    def snapshot(self) -> Dict[str, Optional[float]]:
        with self._lock:
            count, total = self._count, self._sum
            lo, hi = self._min, self._max
        return {"count": count, "sum": total, "min": lo, "max": hi,
                "p50": self.percentile(50), "p99": self.percentile(99)}

    def __repr__(self) -> str:
        return f"Histogram({self.name}, n={self._count})"


class MetricsRegistry:
    """A named collection of metrics with get-or-create semantics.

    ``counter``/``gauge``/``histogram`` return the existing metric for
    a name when one exists (and raise ``TypeError`` if it exists with a
    different type), so independent call sites share one underlying
    value without coordinating.
    """

    def __init__(self):
        self._metrics: Dict[str, object] = {}
        self._lock = threading.Lock()

    def _get_or_create(self, name: str, cls):
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = cls(name)
                self._metrics[name] = metric
            elif not isinstance(metric, cls):
                raise TypeError(
                    f"metric {name!r} already registered as "
                    f"{type(metric).__name__}, not {cls.__name__}")
            return metric

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get_or_create(name, Histogram)

    def get(self, name: str):
        with self._lock:
            return self._metrics.get(name)

    def value(self, name: str, default: Number = 0) -> Number:
        """Convenience: a counter/gauge's value, or ``default``."""
        metric = self.get(name)
        if isinstance(metric, (Counter, Gauge)):
            return metric.value
        return default

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._metrics)

    def snapshot(self) -> Dict[str, object]:
        """Flat name -> value dict (histograms become sub-dicts)."""
        with self._lock:
            metrics = list(self._metrics.items())
        out: Dict[str, object] = {}
        for name, metric in sorted(metrics):
            if isinstance(metric, Histogram):
                out[name] = metric.snapshot()
            else:
                out[name] = metric.value  # type: ignore[attr-defined]
        return out


def merge_registries(*registries: Optional[MetricsRegistry]
                     ) -> Dict[str, object]:
    """One snapshot over several registries, deduplicated by identity.

    Components default to private registries but share one when wired
    together (a solo service hands its registry to the caches it
    creates), so callers can pass every registry they can see and
    duplicates collapse.
    """
    seen: List[MetricsRegistry] = []
    for registry in registries:
        if registry is None:
            continue
        if any(registry is s for s in seen):
            continue
        seen.append(registry)
    merged: Dict[str, object] = {}
    for registry in seen:
        merged.update(registry.snapshot())
    return merged
