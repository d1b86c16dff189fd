"""The session scheduler: fair multiplexing of tenant runtimes.

All sessions' runtimes execute on **one** scheduler thread (the
single-writer contract — a ``Runtime`` is not thread-safe and never
needs to be), which sweeps the session table round-robin.  Each turn a
session gets at most one work item, and a long ``:run N`` is *sliced*:
the scheduler advances it by at most the per-session virtual-time
budget (``CASCADE_SESSION_WINDOW_BUDGET`` virtual seconds) per turn and
then moves on, so one hot session cannot starve the rest of the table.

Determinism contract: a session's virtual-time figures are a pure
function of its own work-item sequence.  Every eval runs exactly the
same ``feed + run(run_between_inputs)`` path a solo in-process Repl
runs; a sliced ``:run N`` dispatches exactly N scheduler iterations in
total (closed-loop scheduling advances one iteration at a time, so
slice boundaries cannot change the sum); and the shared compile caches
are virtual-time-isolated (DESIGN.md §4.6), so another tenant's
activity can change host latency but never this session's virtual
timeline.  An open-loop batch always runs to its end, and its size
depends only on the session's own virtual state, so slices split the
batch sequence without changing it.
"""

from __future__ import annotations

import os
import threading
import time as _time
from typing import Optional

from ..obs import tracer
from .session import Session

__all__ = ["SessionScheduler", "default_window_budget"]


def default_window_budget() -> float:
    """Virtual seconds one session may advance per scheduler turn
    (``CASCADE_SESSION_WINDOW_BUDGET``, default 0.05)."""
    env = os.environ.get("CASCADE_SESSION_WINDOW_BUDGET")
    if env:
        try:
            return max(1e-6, float(env))
        except ValueError:
            pass
    return 0.05


class SessionScheduler:
    """Round-robin executor for every live session's runtime."""

    def __init__(self, server, window_budget_s: Optional[float] = None):
        self.server = server
        self.window_budget_s = window_budget_s \
            if window_budget_s is not None else default_window_budget()
        self.turns = 0
        self.work_items = 0
        self._wake = threading.Event()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------
    def start(self) -> None:
        self._thread = threading.Thread(
            target=self._loop, name="cascade-scheduler", daemon=True)
        self._thread.start()

    def wake(self) -> None:
        self._wake.set()

    def stop(self, drain: bool = False, timeout: float = 30.0) -> None:
        """Stop the loop; with ``drain``, finish queued work first."""
        if drain:
            self._drain(timeout)
        self._stop.set()
        self._wake.set()
        if self._thread is not None:
            self._thread.join(timeout=timeout)

    def _drain(self, timeout: float) -> None:
        """Graceful shutdown: let in-flight work items finish (the loop
        keeps running them); we only wait for inboxes to empty."""
        import time as _time
        deadline = _time.monotonic() + timeout
        while _time.monotonic() < deadline:
            sessions = self.server.live_sessions()
            if not any(s.has_work() for s in sessions):
                return
            _time.sleep(0.01)

    # ------------------------------------------------------------------
    def _loop(self) -> None:
        while not self._stop.is_set():
            busy = False
            for session in self.server.live_sessions():
                if session.closing:
                    continue
                try:
                    if self._turn(session):
                        busy = True
                except Exception as exc:
                    # A broken session must not take the table down.
                    session.push_frame({
                        "type": "error",
                        "message": f"internal error: {exc}"})
                    self.server.close_session(session,
                                              "internal-error")
            self.server.sweep_idle()
            if not busy:
                self._wake.wait(timeout=0.02)
                self._wake.clear()

    # ------------------------------------------------------------------
    def _turn(self, session: Session) -> bool:
        """Give one session one scheduling turn; True if it did work."""
        if session.pending_run is not None:
            self.turns += 1
            self._run_slice(session)
            return True
        item = session.next_work()
        if item is None:
            return False
        self.turns += 1
        self.work_items += 1
        kind, request_id, payload = item
        if kind == "eval":
            errors = session.repl.feed(str(payload))
            session.push_frame({"type": "result", "id": request_id,
                                "ok": not errors, "errors": errors})
        elif kind == "command":
            self._command(session, request_id, str(payload))
        elif kind == "server-stats":
            session.push_frame({"type": "result", "id": request_id,
                                "ok": True,
                                "stats": self.server.stats()})
        elif kind == "metrics":
            session.push_frame({"type": "result", "id": request_id,
                                "ok": True,
                                "metrics": session.metrics_snapshot()})
        elif kind == "trace":
            mode, limit = payload
            self._trace_op(session, request_id, str(mode), limit)
        elif kind == "bye":
            self.server.close_session(session, "client")
        return True

    def _command(self, session: Session, request_id: Optional[int],
                 line: str) -> None:
        parts = line.split()
        if parts and parts[0] == ":run":
            # Sliced execution: record the target and let successive
            # turns advance it under the virtual-time budget.
            try:
                count = int(parts[1]) if len(parts) > 1 else 1000
            except ValueError:
                session.push_frame({
                    "type": "result", "id": request_id, "ok": False,
                    "errors": [f"usage: :run N (got {parts[1]!r})"]})
                return
            session.pending_run = (request_id, count, count)
            self._run_slice(session)
            return
        out = session.repl.command(line)
        if out is None:  # :quit
            session.push_frame({"type": "result", "id": request_id,
                                "ok": True, "text": "bye"})
            self.server.close_session(session, "client")
            return
        session.push_frame({"type": "result", "id": request_id,
                            "ok": True, "text": out})

    def _trace_op(self, session: Session,
                  request_id: Optional[int], mode: str,
                  limit: Optional[int]) -> None:
        """The ``trace`` protocol op: process-wide tracer control.

        Tracing is a process-level switch — one tenant turning it on
        observes every session's events, which is the point of a
        server-operator debugging surface (events carry per-session
        tids, so lanes still separate in the viewer)."""
        tr = tracer()
        if mode == "on":
            tr.enable()
            result = {"enabled": True}
        elif mode == "off":
            tr.disable()
            result = {"enabled": False}
        elif mode == "events":
            try:
                bound = int(limit) if limit is not None else 1000
            except (TypeError, ValueError):
                bound = 1000
            result = {"enabled": tr.enabled,
                      "events": tr.event_dicts(limit=bound)}
        elif mode == "status":
            result = {"enabled": tr.enabled, "buffered": len(tr),
                      "dropped": tr.dropped}
        else:
            session.push_frame({
                "type": "result", "id": request_id, "ok": False,
                "errors": [f"unknown trace mode {mode!r} "
                           f"(use on|off|status|events)"]})
            return
        session.push_frame(dict({"type": "result", "id": request_id,
                                 "ok": True}, **result))

    def _run_slice(self, session: Session) -> None:
        request_id, requested, remaining = session.pending_run
        runtime = session.runtime
        before = runtime.iterations
        t0 = _time.perf_counter()
        runtime.run(iterations=remaining,
                    virtual_seconds=self.window_budget_s)
        did = runtime.iterations - before
        tr = tracer()
        if tr.enabled:
            tr.emit("scheduler_slice", "server",
                    dur_us=(_time.perf_counter() - t0) * 1e6,
                    virtual_ns=runtime.time_model.now_ns,
                    tid=runtime.obs_tid,
                    args={"session": session.id, "iterations": did,
                          "remaining": max(remaining - did, 0)})
        remaining -= did
        if remaining <= 0 or did == 0:
            # did == 0 means the program is finished ($finish) or has
            # nothing to do — report what actually ran.
            session.pending_run = None
            session.push_frame({
                "type": "result", "id": request_id, "ok": True,
                "text": f"ran {requested - max(remaining, 0)} "
                        f"iterations"})
        else:
            session.pending_run = (request_id, requested, remaining)
