"""``repro.obs`` — the unified observability layer (DESIGN.md §4.7).

Two halves:

* :mod:`repro.obs.metrics` — counters, gauges and p50/p99 histograms
  in named :class:`MetricsRegistry` instances.  They are the only
  store of the pipeline's counts: ``BitstreamCache``,
  ``PlacementCache``, ``CompileService``, ``Runtime`` and
  ``CascadeServer`` register their metrics here, and every view
  (``:time``, ``:stats``, the server's ``stats``/``metrics`` ops)
  reads a registry snapshot.
* :mod:`repro.obs.trace` — a process-wide structured event stream
  (eval windows, engine admissions, tier swaps, compile phases, cache
  hits, scheduler slices) carrying both virtual and host timestamps,
  exportable as JSONL or Chrome ``trace_event`` JSON.

Surfaces: the ``:trace`` / ``:stats`` REPL commands, the ``trace`` /
``metrics`` server ops, and the ``CASCADE_TRACE`` environment knob.
"""

from .metrics import (Counter, Gauge, Histogram, MetricsRegistry,
                      merge_registries)
from .trace import (REQUIRED_EVENT_KINDS, TraceEvent, Tracer, tracer,
                    validate_jsonl)

__all__ = [
    "Counter", "Gauge", "Histogram", "MetricsRegistry",
    "merge_registries",
    "REQUIRED_EVENT_KINDS", "TraceEvent", "Tracer", "tracer",
    "validate_jsonl",
]
