"""One tenant session: a sandboxed Runtime + Repl behind a connection.

A session owns its own :class:`~repro.core.runtime.Runtime` (virtual
clock, program, engines) and :class:`~repro.core.repl.Repl`, plus a
per-session :class:`~repro.backend.compiler.CompileService` that shares
the *server-wide* bitstream/placement caches and the process-wide
worker pools — isolation where tenants must not see each other
(program state, virtual time), sharing where dedup pays (compile
artifacts, host cycles).

Threading contract (single-writer): the runtime and repl are touched
**only** by the scheduler thread — readers just parse frames into the
inbox, the writer just drains the outbound queue.  The outbound queue
is bounded with drop-oldest semantics for ``output`` frames (a slow or
absent reader cannot make the server buffer unbounded program output);
``result``/``goodbye``/``welcome``/``error`` frames are never dropped.
"""

from __future__ import annotations

import os
import threading
import time
from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from ..backend.compiler import CompileService
from ..core.repl import Repl
from ..core.runtime import Runtime, View
from ..obs import merge_registries

__all__ = ["Session", "SessionView", "default_max_sessions",
           "default_session_queue"]


def default_max_sessions() -> int:
    """Admission cap (``CASCADE_MAX_SESSIONS``, default 64)."""
    env = os.environ.get("CASCADE_MAX_SESSIONS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return 64


def default_session_queue() -> int:
    """Outbound-queue bound in frames (``CASCADE_SESSION_QUEUE``,
    default 256)."""
    env = os.environ.get("CASCADE_SESSION_QUEUE")
    if env:
        try:
            return max(8, int(env))
        except ValueError:
            pass
    return 256


class SessionView(View):
    """A View that streams program output to the client as it appears.

    Lines are pushed onto the session's outbound queue from inside the
    scheduler's simulation window, so a long ``:run`` streams its
    ``$display`` output live instead of delivering one giant batch with
    the result frame.  ``output_lines`` bookkeeping is inherited — the
    session's virtual state stays identical to a solo runtime's.
    """

    def __init__(self, session: "Session"):
        super().__init__(echo=False)
        self._session = session

    def display(self, text: str, newline: bool = True) -> None:
        before = len(self.lines)
        super().display(text, newline)
        for line in self.lines[before:]:
            self._session.push_output(line)

    def flush(self) -> None:
        before = len(self.lines)
        super().flush()
        for line in self.lines[before:]:
            self._session.push_output(line)

    def info(self, text: str) -> None:
        # Runtime notices (migrations, failures) are interesting to a
        # remote user but must never block: they ride the droppable
        # output path, tagged so clients can tell them apart.
        self._session.push_output(text, kind="info")


class Session:
    """Per-connection state, owned by the server."""

    def __init__(self, session_id: int, conn, peer: str,
                 cache, placements,
                 queue_bound: Optional[int] = None,
                 run_between_inputs: int = 64,
                 service_kwargs: Optional[dict] = None,
                 runtime_kwargs: Optional[dict] = None):
        self.id = session_id
        self.conn = conn
        self.peer = peer
        self.queue_bound = queue_bound if queue_bound is not None \
            else default_session_queue()

        view = SessionView(self)
        kwargs = dict(service_kwargs or {})
        kwargs.setdefault("isolate_virtual_time", True)
        self.service = CompileService(cache=cache,
                                      placements=placements, **kwargs)
        rt_kwargs = dict(runtime_kwargs or {})
        self.runtime = Runtime(compile_service=self.service, view=view,
                               **rt_kwargs)
        # Per-tenant trace lane: events this runtime emits separate
        # into their own thread row in the Chrome trace view.
        self.runtime.obs_tid = f"session-{session_id}"
        self.repl = Repl(self.runtime,
                         run_between_inputs=run_between_inputs)

        #: Parsed work items from the reader thread, consumed in FIFO
        #: order by the scheduler (kind, request-id, payload).
        self.inbox: Deque[Tuple[str, Optional[int], object]] = deque()
        self._inbox_lock = threading.Lock()
        #: A sliced ``:run`` in progress: (request id, requested,
        #: remaining) — see SessionScheduler.
        self.pending_run: Optional[Tuple[Optional[int], int, int]] = None

        self._out: Deque[dict] = deque()
        self._out_lock = threading.Lock()
        self._out_event = threading.Event()

        self.frames_in = 0
        self.frames_out = 0          # maintained by the writer
        self.dropped_outputs = 0
        self.last_activity = time.monotonic()
        self.closing = False         # goodbye queued; no new work
        self.goodbye_reason: Optional[str] = None
        self.closed = threading.Event()   # writer flushed + socket down

    # -- inbox (reader thread -> scheduler) ----------------------------
    def enqueue(self, kind: str, request_id: Optional[int],
                payload: object) -> None:
        with self._inbox_lock:
            self.inbox.append((kind, request_id, payload))
        self.last_activity = time.monotonic()

    def next_work(self) -> Optional[Tuple[str, Optional[int], object]]:
        with self._inbox_lock:
            if self.inbox:
                return self.inbox.popleft()
        return None

    def has_work(self) -> bool:
        with self._inbox_lock:
            if self.inbox:
                return True
        return self.pending_run is not None

    # -- outbound (scheduler/readers -> writer thread) -----------------
    def push_output(self, line: str, kind: str = "stdout") -> None:
        """Queue a droppable ``output`` frame (drop-oldest on a full
        queue, counting what was lost so ``:stats`` can report it)."""
        frame = {"type": "output", "line": line, "kind": kind}
        with self._out_lock:
            if len(self._out) >= self.queue_bound:
                # Drop the oldest *droppable* frame; never a result.
                for i, queued in enumerate(self._out):
                    if queued.get("type") == "output":
                        del self._out[i]
                        self.dropped_outputs += 1
                        break
            self._out.append(frame)
        self._out_event.set()

    def push_frame(self, frame: dict) -> None:
        """Queue a non-droppable frame (result/goodbye/error)."""
        with self._out_lock:
            self._out.append(frame)
        self._out_event.set()

    def pop_frames(self, timeout: float = 0.1) -> List[dict]:
        """Writer thread: wait for and take everything queued."""
        self._out_event.wait(timeout)
        with self._out_lock:
            frames = list(self._out)
            self._out.clear()
            self._out_event.clear()
        return frames

    def begin_goodbye(self, reason: str) -> bool:
        """Queue the goodbye frame once; True if this call queued it."""
        if self.closing:
            return False
        self.closing = True
        self.goodbye_reason = reason
        self.push_frame({"type": "goodbye", "reason": reason,
                         "session": self.id})
        return True

    # -- introspection -------------------------------------------------
    def metrics_snapshot(self) -> Dict[str, object]:
        """This tenant's registries, merged (the shared caches'
        registry is the server's)."""
        return merge_registries(self.runtime.metrics,
                                self.service.metrics,
                                self.service.cache.metrics,
                                self.service.placements.metrics)

    def stats(self) -> Dict[str, object]:
        rt = self.runtime
        with self._out_lock:
            queued = len(self._out)
            dropped = self.dropped_outputs
        s = self.service.stats()
        return {
            "id": self.id,
            "peer": self.peer,
            "frames_in": self.frames_in,
            "frames_out": self.frames_out,
            "dropped_outputs": dropped,
            "outbound_queued": queued,
            "virtual_s": rt.time_model.now_seconds,
            "clock_ticks": rt.virtual_clock_ticks,
            "tiers": rt.tier_counts(),
            "tier_events": dict(rt.time_model.tier_events),
            "compiles_attempted": s["attempted"],
            "cache_hits": s["cache_hits"],
            "cross_tenant_hits": s["cross_tenant_hits"],
            "single_flight_joins": s["single_flight_joins"],
            "in_flight": s["in_flight"],
        }
