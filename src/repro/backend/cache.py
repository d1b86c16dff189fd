"""Content-addressed caches for compile artifacts.

Real Cascade memoizes toolchain output: recompiling a subprogram whose
source the runtime has already seen costs (nearly) nothing, and SYNERGY
extends the same idea to multi-tenant bitstream reuse.  Two caches model
that here:

* :class:`BitstreamCache` — the *bitstream* cache.  Key: SHA-256 of the
  canonical printed Verilog of a subprogram (the round-trip-tested
  printer makes the text a faithful content address), the
  instrumentation flag, and the flow configuration.  Value: the
  :class:`~repro.backend.pycompile.CompiledDesign`, the resource
  estimate, the error string for deterministic failures, and the
  placement the flow produced.  In-memory LRU with an optional on-disk
  layer (the generated Python model source is itself the stored
  artifact and is re-``exec``'d on a disk hit), so warm REPL sessions
  and repeated benchmark runs skip synthesis entirely.

* :class:`PlacementCache` — keyed by *netlist shape* rather than exact
  source, it remembers the last placement for each shape so the
  simulated-annealing placer can warm-start from a known-good seed at
  reduced effort when a near-identical design comes back (the JIT
  recompiles on every eval; most evals barely change the netlist).

Both caches are thread-safe: compile workers populate them from the
background pool while the runtime thread reads.  Under the multi-tenant
server (DESIGN.md §4.6) one :class:`BitstreamCache` and one
:class:`PlacementCache` are shared by *every* session's
:class:`~repro.backend.compiler.CompileService`, so all public methods
take the instance lock; the mutable state a lock does **not** cover —
the :class:`CacheEntry` objects themselves — is treated as immutable
after construction (entries are replaced, never edited in place).

The :class:`BitstreamCache` additionally hosts the **single-flight
registry**: while a compile of some key is in flight, later submissions
of the same key (typically from other tenants) read the leader's
futures instead of running the flow again.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from collections import OrderedDict
from concurrent.futures import Future
from typing import Dict, Optional, Tuple

from ..common.errors import SynthesisError
from ..obs import MetricsRegistry, tracer
from ..verilog.elaborate import Design
from .netlist import Netlist
from .pycompile import CODEGEN_VERSION, CompiledDesign

__all__ = ["BitstreamCache", "CacheEntry", "InflightCompile",
           "PlacementCache", "design_cache_key"]

Coord = Tuple[int, int]


def design_cache_key(source: str, instrumented: bool,
                     full_flow_max_luts: int) -> str:
    """The content address of one compilation request."""
    h = hashlib.sha256()
    h.update(source.encode("utf-8"))
    h.update(b"|instrumented=1|" if instrumented else b"|instrumented=0|")
    h.update(b"|flow=%d" % full_flow_max_luts)
    h.update(b"|codegen=%d" % CODEGEN_VERSION)
    return h.hexdigest()


class CacheEntry:
    """Everything the toolchain learned about one source text."""

    def __init__(self, compiled: Optional[CompiledDesign],
                 resources: Dict[str, int], error: Optional[str],
                 placement: Optional[Dict[str, Coord]] = None,
                 flow_summary: Optional[str] = None):
        self.compiled = compiled
        self.resources = dict(resources)
        self.error = error
        self.placement = placement
        self.flow_summary = flow_summary


def _rehydrate(design: Design, payload: Dict) -> CacheEntry:
    """Rebuild a CacheEntry from its on-disk JSON payload.

    The stored artifact is the generated Python model source; executing
    it reconstructs the model class exactly (codegen is deterministic,
    but re-exec is still ~100x cheaper than synthesis + codegen).
    """
    compiled = None
    if payload.get("pysource"):
        namespace: Dict[str, object] = {}
        exec(compile(payload["pysource"],
                     f"<cached:{design.name}>", "exec"), namespace)
        compiled = CompiledDesign(design, payload["pysource"],
                                  namespace[payload["class_name"]])
    placement = None
    if payload.get("placement") is not None:
        placement = {cell: (loc[0], loc[1])
                     for cell, loc in payload["placement"].items()}
    return CacheEntry(compiled, payload["resources"],
                      payload.get("error"), placement,
                      payload.get("flow_summary"))


class InflightCompile:
    """The two futures that hold one compile's outcome.

    ``codegen`` resolves to the codegen stage's model (or its error),
    ``result`` to the whole compile's ``(model, resources, error)``.
    The leader's stages resolve them; the leader's job and every
    follower that joins it in the single-flight registry read the same
    pair.  ``joiners`` counts attached followers; a leader with joiners
    must not be cancelled — its result is somebody else's compile.
    """

    def __init__(self, key: str):
        self.key = key
        self.codegen: Future = Future()
        self.result: Future = Future()
        self.joiners = 0

    @classmethod
    def settled(cls, key: str, entry: CacheEntry) -> "InflightCompile":
        """The pair a cache hit reads: resolved from ``entry`` at once
        and never registered."""
        flight = cls(key)
        if entry.compiled is not None:
            flight.codegen.set_result(entry.compiled)
        else:
            flight.codegen.set_exception(SynthesisError(entry.error))
        flight.result.set_result(
            (entry.compiled, entry.resources, entry.error))
        return flight


class BitstreamCache:
    """In-memory LRU of :class:`CacheEntry` with an optional disk layer.

    ``disk_dir`` (or the ``CASCADE_CACHE_DIR`` environment variable)
    enables persistence across processes: entries are written as one
    JSON file per key and promoted back into the LRU on a disk hit.
    """

    def __init__(self, capacity: int = 128,
                 disk_dir: Optional[str] = None,
                 registry: Optional[MetricsRegistry] = None):
        self.capacity = capacity
        self.disk_dir = disk_dir or os.environ.get("CASCADE_CACHE_DIR")
        self._entries: "OrderedDict[str, CacheEntry]" = OrderedDict()
        self._lock = threading.Lock()
        self._inflight: Dict[str, InflightCompile] = {}
        #: The metrics registry all cache counters live in (shared
        #: with the owning service or server when one is passed in).
        self.metrics = registry if registry is not None \
            else MetricsRegistry()
        self._c_hits = self.metrics.counter("cache.hits")
        self._c_misses = self.metrics.counter("cache.misses")
        self._c_disk_hits = self.metrics.counter("cache.disk_hits")
        self._c_disk_corrupt = self.metrics.counter("cache.disk_corrupt")
        self._c_evictions = self.metrics.counter("cache.evictions")
        self._c_joins = self.metrics.counter("cache.single_flight_joins")
        #: Entries in memory and keys with a compile in flight, set
        #: under the lock wherever they change.
        self._g_entries = self.metrics.gauge("cache.entries")
        self._g_inflight = self.metrics.gauge("cache.in_flight")

    # ------------------------------------------------------------------
    def get(self, key: str, design: Optional[Design] = None
            ) -> Optional[CacheEntry]:
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self._c_hits.inc()
                return entry
        entry = self._disk_get(key, design)
        with self._lock:
            if entry is not None:
                self._c_hits.inc()
                self._c_disk_hits.inc()
                self._insert(key, entry)
            else:
                self._c_misses.inc()
        return entry

    def put(self, key: str, entry: CacheEntry) -> None:
        with self._lock:
            self._insert(key, entry)
        self._disk_put(key, entry)

    def _insert(self, key: str, entry: CacheEntry) -> None:
        self._entries[key] = entry
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self._c_evictions.inc()
        self._g_entries.set(len(self._entries))

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._g_entries.set(0)

    # -- single-flight registry -----------------------------------------
    def inflight_begin(self, key: str
                       ) -> Tuple[bool, InflightCompile]:
        """Atomically claim or join the in-flight compile of ``key``.

        Returns ``(True, entry)`` when the caller is the *leader* (it
        must run the compile, resolve ``entry``'s futures, and
        eventually call :meth:`inflight_finish`); ``(False, entry)``
        when a compile of the same key is already in flight — the
        caller reads ``entry``'s futures and does no host work of its
        own.
        """
        with self._lock:
            entry = self._inflight.get(key)
            if entry is not None:
                entry.joiners += 1
                self._c_joins.inc()
                return False, entry
            entry = InflightCompile(key)
            self._inflight[key] = entry
            self._g_inflight.set(len(self._inflight))
            return True, entry

    def inflight_finish(self, key: str, entry: InflightCompile) -> None:
        """Remove ``entry`` from the registry if it still leads ``key``
        (idempotent): once its leader was cancelled, a new leader may
        have claimed the key while the old worker still runs."""
        with self._lock:
            if self._inflight.get(key) is entry:
                del self._inflight[key]
                self._g_inflight.set(len(self._inflight))

    def inflight_leave(self, entry: InflightCompile) -> None:
        """A follower stopped waiting on ``entry`` (its program
        changed); drop its seat so a joiner-free leader can be
        cancelled by its own service later."""
        with self._lock:
            if entry.joiners > 0:
                entry.joiners -= 1

    def inflight_cancellable(self, key: str,
                             entry: InflightCompile) -> bool:
        """True if ``entry`` leads ``key`` and has no joiners; when so,
        the key is atomically removed so nobody can join a future that
        is about to be cancelled."""
        with self._lock:
            if self._inflight.get(key) is entry and \
                    entry.joiners == 0:
                del self._inflight[key]
                self._g_inflight.set(len(self._inflight))
                return True
            return False

    # -- disk layer ------------------------------------------------------
    def _path(self, key: str) -> Optional[str]:
        if not self.disk_dir:
            return None
        return os.path.join(self.disk_dir, key + ".json")

    def _disk_get(self, key: str,
                  design: Optional[Design]) -> Optional[CacheEntry]:
        path = self._path(key)
        if path is None or design is None or not os.path.exists(path):
            return None
        try:
            with open(path, "r", encoding="utf-8") as f:
                payload = json.load(f)
            return _rehydrate(design, payload)
        except OSError:
            return None  # unreadable right now; nothing to clean up
        except Exception as exc:
            # Corrupt or truncated entry.  Leaving the file in place
            # would re-parse and re-fail on *every* lookup of this key;
            # quarantine it (delete if even the rename fails) so the
            # next lookup is an honest miss that recompiles and
            # rewrites the entry.
            self._quarantine(path, key, exc)
            return None

    def _quarantine(self, path: str, key: str, exc: Exception) -> None:
        self._c_disk_corrupt.inc()
        try:
            os.replace(path, path + ".corrupt")
        except OSError:
            try:
                os.unlink(path)
            except OSError:
                pass
        tr = tracer()
        if tr.enabled:
            tr.emit("disk_corrupt", "cache",
                    args={"key": key, "error": str(exc)})

    def _disk_put(self, key: str, entry: CacheEntry) -> None:
        path = self._path(key)
        if path is None:
            return
        try:
            os.makedirs(self.disk_dir, exist_ok=True)
            payload = {
                "class_name": entry.compiled.model_class.__name__
                if entry.compiled else None,
                "pysource": entry.compiled.source
                if entry.compiled else None,
                "resources": entry.resources,
                "error": entry.error,
                "placement": {c: list(loc) for c, loc in
                              entry.placement.items()}
                if entry.placement else None,
                "flow_summary": entry.flow_summary,
            }
            tmp = path + ".tmp"
            with open(tmp, "w", encoding="utf-8") as f:
                json.dump(payload, f)
            os.replace(tmp, path)
        except OSError:
            pass  # the disk layer is strictly best-effort


class PlacementCache:
    """Last-known placement per netlist *shape*.

    The shape signature hashes the cell names and kinds plus the device
    geometry — exactly the information the placer keys moves on — so a
    recompile whose logic changed slightly but whose cells are the same
    can seed annealing from the previous solution instead of a random
    placement ("warm start"), at a fraction of the move budget.
    """

    def __init__(self, capacity: int = 64,
                 registry: Optional[MetricsRegistry] = None):
        self.capacity = capacity
        self._entries: "OrderedDict[str, Dict[str, Coord]]" = OrderedDict()
        self._lock = threading.Lock()
        self.metrics = registry if registry is not None \
            else MetricsRegistry()
        self._c_hits = self.metrics.counter("placement.hits")
        self._c_misses = self.metrics.counter("placement.misses")
        self._g_entries = self.metrics.gauge("placement.entries")

    @staticmethod
    def signature(netlist: Netlist, device) -> str:
        h = hashlib.sha256()
        h.update(f"{device.name}:{device.width}x{device.height}|"
                 .encode("utf-8"))
        for name in sorted(netlist.cells):
            cell = netlist.cells[name]
            h.update(f"{name}:{cell.kind};".encode("utf-8"))
        return h.hexdigest()

    def lookup(self, signature: str) -> Optional[Dict[str, Coord]]:
        with self._lock:
            entry = self._entries.get(signature)
            if entry is None:
                self._c_misses.inc()
                return None
            self._entries.move_to_end(signature)
            self._c_hits.inc()
            return dict(entry)

    def store(self, signature: str,
              locations: Dict[str, Coord]) -> None:
        # Normalise to plain int tuples: placements now travel through
        # pickles (process-pool flow lane) and JSON (disk cache), and a
        # hint must mean the same thing wherever it came from.
        entry = {cell: (int(loc[0]), int(loc[1]))
                 for cell, loc in locations.items()}
        with self._lock:
            self._entries[signature] = entry
            self._entries.move_to_end(signature)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
            self._g_entries.set(len(self._entries))
