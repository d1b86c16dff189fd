"""The Cascade network daemon: many tenants, one backend.

``CascadeServer`` accepts connections over TCP or a unix-domain socket,
hosts one sandboxed :class:`~repro.server.session.Session` per
connection, and multiplexes all of them onto a single
:class:`~repro.server.scheduler.SessionScheduler` plus the
process-wide compile and flow pools.  Identical programs
submitted by different tenants dedup through one shared
content-addressed :class:`~repro.backend.cache.BitstreamCache`
(a cache hit or a single-flight join instead of a recompile), while
each session's *virtual* timeline stays bit-identical to running alone
(DESIGN.md §4.6).

Thread model (per server): one accept thread, one scheduler thread,
and a reader + writer pair per connection.  Runtimes are touched only
by the scheduler; sockets are read only by their reader and written
only by their writer; everything the threads share goes through the
session's locked queues.

Backpressure and lifecycle: admission is capped
(``CASCADE_MAX_SESSIONS``), per-session output queues are bounded with
drop-oldest + a counter, idle sessions are evicted with a clean
``goodbye`` frame, and SIGTERM drains gracefully — in-flight work
items finish, every session gets a goodbye, the pools are joined.
"""

from __future__ import annotations

import os
import socket
import threading
import time
from typing import Dict, List, Optional, Tuple, Union

from ..backend.cache import BitstreamCache, PlacementCache
from ..obs import MetricsRegistry, merge_registries
from .protocol import FrameError, recv_frame, send_frame
from .scheduler import SessionScheduler
from .session import Session, default_max_sessions

__all__ = ["CascadeServer", "main_address"]

Address = Union[str, Tuple[str, int]]

#: Seconds without any inbound frame before a session is evicted
#: (``CASCADE_IDLE_TIMEOUT``; 0 disables; default 600).
_DEFAULT_IDLE_S = 600.0


def _default_idle_timeout() -> float:
    env = os.environ.get("CASCADE_IDLE_TIMEOUT")
    if env:
        try:
            return max(0.0, float(env))
        except ValueError:
            pass
    return _DEFAULT_IDLE_S


def main_address(args) -> Address:
    """Resolve the CLI's --socket/--host/--port into an address."""
    if getattr(args, "socket", None):
        return args.socket
    return (args.host, args.port)


class CascadeServer:
    """A multi-tenant Cascade daemon on one listening socket."""

    def __init__(self, address: Address = ("127.0.0.1", 0),
                 max_sessions: Optional[int] = None,
                 idle_timeout_s: Optional[float] = None,
                 window_budget_s: Optional[float] = None,
                 queue_bound: Optional[int] = None,
                 run_between_inputs: int = 64,
                 service_kwargs: Optional[dict] = None,
                 runtime_kwargs: Optional[dict] = None):
        self.address = address
        self.max_sessions = max_sessions if max_sessions is not None \
            else default_max_sessions()
        self.idle_timeout_s = idle_timeout_s \
            if idle_timeout_s is not None else _default_idle_timeout()
        self.queue_bound = queue_bound
        self.run_between_inputs = run_between_inputs
        self.service_kwargs = service_kwargs
        self.runtime_kwargs = runtime_kwargs

        #: The server-wide metrics registry: session admission
        #: counters plus the shared caches' metrics live here, so one
        #: snapshot covers the cross-tenant substrate.
        self.metrics = MetricsRegistry()

        #: Shared across every tenant: the cross-tenant dedup
        #: substrate.  Sessions get their own CompileService wired to
        #: these (virtual-time isolated) and to the process-wide pools.
        self.cache = BitstreamCache(registry=self.metrics)
        self.placements = PlacementCache(registry=self.metrics)

        self.scheduler = SessionScheduler(
            self, window_budget_s=window_budget_s)

        self._listener: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._stop = threading.Event()
        self._lock = threading.Lock()
        self._sessions: Dict[int, Session] = {}
        self._next_id = 1

        self.started_at = time.monotonic()
        self._c_sessions_total = self.metrics.counter(
            "server.sessions_total")
        self._c_sessions_rejected = self.metrics.counter(
            "server.sessions_rejected")
        self._c_sessions_evicted = self.metrics.counter(
            "server.sessions_evicted")
        #: Sums no registry keeps server-wide, carried over from
        #: sessions that have closed.
        self._closed_totals = {"frames_in": 0, "frames_out": 0,
                               "dropped_outputs": 0,
                               "cross_tenant_hits": 0}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "CascadeServer":
        """Bind, listen, and spin up the accept + scheduler threads."""
        if isinstance(self.address, str):
            path = self.address
            try:
                os.unlink(path)
            except OSError:
                pass
            listener = socket.socket(socket.AF_UNIX,
                                     socket.SOCK_STREAM)
            listener.bind(path)
        else:
            listener = socket.socket(socket.AF_INET,
                                     socket.SOCK_STREAM)
            listener.setsockopt(socket.SOL_SOCKET,
                                socket.SO_REUSEADDR, 1)
            listener.bind(self.address)
            self.address = listener.getsockname()
        listener.listen(128)
        listener.settimeout(0.2)
        self._listener = listener
        self.scheduler.start()
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="cascade-accept",
            daemon=True)
        self._accept_thread.start()
        return self

    def shutdown(self, drain: bool = True,
                 timeout: float = 30.0) -> None:
        """Stop serving.  With ``drain`` (the SIGTERM path): stop
        accepting, finish in-flight work items, say goodbye to every
        session, and join the worker threads."""
        self._stop.set()
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5.0)
        self.scheduler.stop(drain=drain, timeout=timeout)
        for session in self.live_sessions():
            self.close_session(session, "shutdown")
        deadline = time.monotonic() + timeout
        for session in list(self._sessions.values()):
            session.closed.wait(
                timeout=max(0.0, deadline - time.monotonic()))
        if isinstance(self.address, str):
            try:
                os.unlink(self.address)
            except OSError:
                pass

    # ------------------------------------------------------------------
    # Accept / admission
    # ------------------------------------------------------------------
    def _accept_loop(self) -> None:
        while not self._stop.is_set():
            try:
                conn, addr = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            peer = addr if isinstance(addr, str) else \
                f"{addr[0]}:{addr[1]}" if addr else "unix"
            try:
                self._admit(conn, peer or "unix")
            except OSError:
                try:
                    conn.close()
                except OSError:
                    pass

    def _admit(self, conn: socket.socket, peer: str) -> None:
        with self._lock:
            active = len(self._sessions)
            if active >= self.max_sessions:
                self._c_sessions_rejected.inc()
                session = None
            else:
                session_id = self._next_id
                self._next_id += 1
                self._c_sessions_total.inc()
                session = Session(
                    session_id, conn, peer,
                    cache=self.cache, placements=self.placements,
                    queue_bound=self.queue_bound,
                    run_between_inputs=self.run_between_inputs,
                    service_kwargs=self.service_kwargs,
                    runtime_kwargs=self.runtime_kwargs)
                self._sessions[session_id] = session
        if session is None:
            # Admission backpressure: a clean goodbye, then the door.
            try:
                send_frame(conn, {"type": "goodbye",
                                  "reason": "server-full"})
            finally:
                conn.close()
            return
        send_frame(conn, {"type": "welcome", "session": session.id,
                          "server": "cascade",
                          "max_sessions": self.max_sessions})
        threading.Thread(target=self._reader, args=(session,),
                         name=f"cascade-read-{session.id}",
                         daemon=True).start()
        threading.Thread(target=self._writer, args=(session,),
                         name=f"cascade-write-{session.id}",
                         daemon=True).start()

    # ------------------------------------------------------------------
    # Per-connection threads
    # ------------------------------------------------------------------
    def _reader(self, session: Session) -> None:
        conn = session.conn
        try:
            while not session.closing and not self._stop.is_set():
                frame = recv_frame(conn)
                if frame is None:
                    # Clean EOF: process whatever is queued, then part.
                    session.enqueue("bye", None, None)
                    break
                session.frames_in += 1
                kind = frame.get("type")
                if kind == "eval":
                    session.enqueue("eval", frame.get("id"),
                                    frame.get("src", ""))
                elif kind == "command":
                    session.enqueue("command", frame.get("id"),
                                    frame.get("line", ""))
                elif kind == "server-stats":
                    session.enqueue("server-stats", frame.get("id"),
                                    None)
                elif kind == "metrics":
                    session.enqueue("metrics", frame.get("id"), None)
                elif kind == "trace":
                    session.enqueue("trace", frame.get("id"),
                                    (frame.get("mode", "status"),
                                     frame.get("limit")))
                elif kind == "bye":
                    session.enqueue("bye", None, None)
                    break
                else:
                    session.push_frame({
                        "type": "error", "id": frame.get("id"),
                        "message": f"unknown frame type {kind!r}"})
                self.scheduler.wake()
        except FrameError as exc:
            session.push_frame({"type": "error", "message": str(exc)})
            self.close_session(session, "protocol-error")
        except OSError:
            pass
        self.scheduler.wake()

    def _writer(self, session: Session) -> None:
        conn = session.conn
        said_goodbye = False
        try:
            while not said_goodbye:
                for frame in session.pop_frames(timeout=0.1):
                    send_frame(conn, frame)
                    session.frames_out += 1
                    if frame.get("type") == "goodbye":
                        said_goodbye = True
                        break
        except OSError:
            pass
        try:
            conn.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            conn.close()
        except OSError:
            pass
        self._finalize(session)

    def _finalize(self, session: Session) -> None:
        with self._lock:
            self._sessions.pop(session.id, None)
            self._closed_totals["frames_in"] += session.frames_in
            self._closed_totals["frames_out"] += session.frames_out
            self._closed_totals["dropped_outputs"] += \
                session.dropped_outputs
            self._closed_totals["cross_tenant_hits"] += \
                session.service.metrics.value("compile.cross_tenant_hits")
        session.closed.set()

    # ------------------------------------------------------------------
    # Session table
    # ------------------------------------------------------------------
    def live_sessions(self) -> List[Session]:
        with self._lock:
            return list(self._sessions.values())

    def close_session(self, session: Session, reason: str) -> None:
        if session.begin_goodbye(reason):
            if reason == "idle":
                self._c_sessions_evicted.inc()

    def sweep_idle(self) -> None:
        """Evict sessions with no inbound traffic for the idle window
        (called from the scheduler between sweeps)."""
        if not self.idle_timeout_s:
            return
        now = time.monotonic()
        for session in self.live_sessions():
            if session.closing or session.has_work():
                continue
            if now - session.last_activity > self.idle_timeout_s:
                self.close_session(session, "idle")

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        # One lock section: a session that finalizes concurrently is
        # either still live here or already in the closed totals.
        with self._lock:
            sessions = list(self._sessions.values())
            totals = dict(self._closed_totals)
        per_session = [s.stats() for s in sessions]
        for key in totals:
            totals[key] += sum(s[key] for s in per_session)
        return {
            "uptime_s": time.monotonic() - self.started_at,
            "sessions_active": len(sessions),
            "sessions_total": self._c_sessions_total.value,
            "sessions_rejected": self._c_sessions_rejected.value,
            "sessions_evicted": self._c_sessions_evicted.value,
            "max_sessions": self.max_sessions,
            **totals,
            # The shared cache counts each join once, whichever
            # session made it.
            "single_flight_joins":
                self.metrics.value("cache.single_flight_joins"),
            "scheduler": {
                "turns": self.scheduler.turns,
                "work_items": self.scheduler.work_items,
                "window_budget_s": self.scheduler.window_budget_s,
            },
            "metrics": self.metrics_snapshot(),
            "sessions": per_session,
        }

    def metrics_snapshot(self) -> Dict[str, object]:
        """The server registry's snapshot: admission counters plus the
        shared caches' metrics.  Per-session registries are *not*
        merged here — every session uses the same metric names, so the
        per-tenant view lives in the session-level ``metrics`` op."""
        return merge_registries(self.metrics)
