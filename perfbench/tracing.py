"""Span recording for the traced benchmark run.

The traced run wraps the public entry points of each layer from the
benchmark's own files; nothing under ``src/`` changes.  Every wrapped
call becomes a span with a name, start, end, parent span and operation
id.  Spans stay in memory (the first ``max_spans`` of them; the per-name
totals below are exact whatever the bound) and are written out when the
run ends.  A span's *self* time is its duration minus the time its child
spans on the same thread cover.

Each per-layer metric is listed in :data:`LAYER_METRICS` with the
end-to-end metric and workload it should move; on every other workload
the prediction is no change.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: (name, unit, better, what it should move).  Times and counts are per
#: completed operation (pow/pow-tb episode, edit-compile cycle,
#: class-server session), so a faster layer does not read as more work.
LAYER_METRICS: List[Tuple[str, str, str, str]] = [
    ("verilog.parse_s", "s/op", "lower",
     "ttrc_s on pow, pow-tb; hit_compile_s on edit-compile; "
     "req_p50_s on class-server"),
    ("verilog.elab_s", "s/op", "lower",
     "ttrc_s on pow, pow-tb; hit_compile_s on edit-compile; "
     "req_p50_s on class-server"),
    ("ir.build_s", "s/op", "lower",
     "ttrc_s on pow, pow-tb; hit_compile_s on edit-compile; "
     "req_p50_s on class-server"),
    ("interp.eval_s", "s/op", "lower", "interp_tick_us on pow-tb"),
    ("interp.calls", "count/op", "lower", "interp_tick_us on pow-tb"),
    ("hardware.eval_s", "s/op", "lower", "fast_tick_us on pow"),
    ("hardware.calls", "count/op", "lower", "fast_tick_us on pow"),
    ("hardware.open_loop_s", "s/op", "lower", "oloop_ticks_per_s on pow"),
    ("hardware.open_loop_batches", "count/op", "lower",
     "oloop_ticks_per_s on pow"),
    ("hardware.ticks_per_batch", "ticks", "higher",
     "oloop_ticks_per_s on pow"),
    ("core.plane_propagate_s", "s/op", "lower",
     "fast_tick_us on pow; interp_tick_us on pow-tb"),
    ("core.plane_propagate_calls", "count/op", "lower",
     "fast_tick_us on pow; interp_tick_us on pow-tb"),
    ("core.runtime_self_s", "s/op", "lower",
     "fast_tick_us on pow; interp_tick_us on pow-tb"),
    ("pycompile.codegen_s", "s/op", "lower",
     "swap_s on pow; warm_compile_s on edit-compile"),
    ("pycompile.calls_per_admission", "ratio", "lower",
     "swap_s on pow; warm_compile_s on edit-compile"),
    ("compiler.submit_s", "s/op", "lower",
     "swap_s on pow; cold_compile_s on edit-compile"),
    ("compilequeue.wait_s", "s/op", "lower",
     "swap_s on pow; cold_compile_s on edit-compile"),
    ("compiler.host_wait_s", "s/op", "lower",
     "swap_s on pow; cold_compile_s on edit-compile"),
    ("flow.synth_s", "s/op", "lower",
     "cold_compile_s, warm_compile_s on edit-compile"),
    ("flow.place_s", "s/op", "lower",
     "cold_compile_s, warm_compile_s on edit-compile"),
    ("flow.route_s", "s/op", "lower",
     "cold_compile_s, warm_compile_s on edit-compile"),
    ("flow.timing_s", "s/op", "lower",
     "cold_compile_s, warm_compile_s on edit-compile"),
    ("flow.warm_start_ratio", "ratio", "higher",
     "warm_compile_s on edit-compile"),
    ("cache.hit_ratio", "ratio", "higher",
     "hit_compile_s on edit-compile; req_p50_s on class-server"),
    ("cache.cross_tenant_hits", "count/op", "higher",
     "req_p50_s on class-server"),
    ("cache.single_flight_joins", "count/op", "higher",
     "req_p50_s on class-server"),
    ("placement.hit_ratio", "ratio", "higher",
     "warm_compile_s on edit-compile"),
    ("server.service_s", "s/op", "lower",
     "req_p50_s, req_p99_s, req_per_s on class-server"),
    ("server.queue_s", "s/op", "lower",
     "req_p50_s, req_p99_s, req_per_s on class-server"),
    ("server.frames", "count/op", "lower",
     "req_p50_s, req_per_s on class-server"),
    ("server.bytes", "bytes/op", "lower",
     "req_p50_s, req_per_s on class-server"),
    ("server.dropped_outputs", "count/op", "lower",
     "answer_s on class-server"),
    ("obs.trace_overhead", "ratio", "lower",
     "none: traced answer_s over untraced answer_s"),
]

#: The thread the multi-tenant server runs every session's runtime on;
#: root spans there are server-side service time.
_SCHEDULER_THREAD = "cascade-scheduler"


class Recorder:
    """Collects spans and counters from wrapped layer entry points."""

    def __init__(self, max_spans: int = 50_000):
        self.max_spans = max_spans
        self.spans: List[tuple] = []
        self.dropped = 0
        self.calls: Dict[str, int] = defaultdict(int)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)
        self._op = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: List[Tuple[object, str, object]] = []

    # -- operations -----------------------------------------------------
    def begin_op(self) -> int:
        """Start a new operation: spans on this thread carry its id;
        spans on worker threads carry the latest one started."""
        with self._lock:
            self._op += 1
            op = self._op
        self._local.op = op
        return op

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    # -- spans ----------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _close(self, name: str, span_id: int, parent: int, t0: float,
               t1: float, self_s: float) -> None:
        op = getattr(self._local, "op", None)
        thread = threading.current_thread().name
        with self._lock:
            if op is None:
                op = self._op
            self.calls[name] += 1
            self.total_s[name] += t1 - t0
            self.self_s[name] += self_s
            if parent == 0 and thread == _SCHEDULER_THREAD:
                self.counts["server.service_s"] += t1 - t0
            if len(self.spans) < self.max_spans:
                self.spans.append((name, span_id, parent, t0, t1, op,
                                   thread))
            else:
                self.dropped += 1

    def wrap(self, name: str, fn: Callable,
             on_return: Optional[Callable] = None) -> Callable:
        """``fn`` timed as span ``name``; ``on_return(result, args)``
        runs after a call that returned."""
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = rec._stack()
            frame = [next(rec._ids), 0.0]
            parent = stack[-1][0] if stack else 0
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                if stack:
                    stack[-1][1] += t1 - t0
                rec._close(name, frame[0], parent, t0, t1,
                           t1 - t0 - frame[1])
            if on_return is not None:
                on_return(result, args)
            return result
        return wrapper

    def patch(self, owner: object, attr: str, replacement: Callable
              ) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def span(self, owner: object, attr: str, name: str,
             on_return: Optional[Callable] = None) -> None:
        self.patch(owner, attr,
                   self.wrap(name, getattr(owner, attr), on_return))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def dump(self, path: str) -> None:
        """Write the retained spans as JSON lines."""
        with open(path, "w", encoding="utf-8") as f:
            for name, sid, parent, t0, t1, op, thread in self.spans:
                f.write(json.dumps({
                    "name": name, "id": sid, "parent": parent,
                    "start_s": t0, "end_s": t1, "op": op,
                    "thread": thread}) + "\n")


def install(rec: Recorder) -> None:
    """Wrap each layer's public entry points (undo with
    :meth:`Recorder.uninstall`)."""
    from repro.backend import cache as cache_mod
    from repro.backend import compiler as compiler_mod
    from repro.backend import compilequeue as queue_mod
    from repro.backend import flow as flow_mod
    from repro.backend import hardware as hardware_mod
    from repro.core import engines as engines_mod
    from repro.core import plane as plane_mod
    from repro.core import repl as repl_mod
    from repro.core import runtime as runtime_mod
    from repro.server import daemon as daemon_mod

    # Frontend: the names the runtime and compiler bound at import.
    rec.span(runtime_mod, "parse_source", "verilog.parse")
    rec.span(engines_mod, "elaborate_leaf", "verilog.elab")
    rec.span(compiler_mod, "elaborate_leaf", "verilog.elab")
    rec.span(runtime_mod, "build_ir", "ir.build")

    # Tier 0 and the compiled model (FastSoftwareEngine inherits).
    adapter = engines_mod.SoftwareEngineAdapter
    rec.span(adapter, "evaluate", "interp.eval")
    rec.span(adapter, "update", "interp.eval")
    engine = hardware_mod.HardwareEngine
    rec.span(engine, "evaluate", "hardware.eval")
    rec.span(engine, "update", "hardware.eval")
    rec.span(engine, "open_loop", "hardware.open_loop",
             lambda done, args: rec.count("hardware.open_loop_ticks",
                                          done))

    # Scheduler and data plane.
    rec.span(plane_mod.DataPlane, "propagate", "core.plane_propagate")
    rec.span(runtime_mod.Runtime, "run", "core.runtime_run")

    # Codegen is bound into both the runtime (fast path) and the
    # compile service (the fabric job).
    rec.span(runtime_mod, "compile_design", "pycompile.codegen_fast")
    rec.span(compiler_mod, "compile_design", "pycompile.codegen_jit")

    def _submitted(job, args):
        rec.count("compiler.admissions")
    rec.span(compiler_mod.CompileService, "submit", "compiler.submit",
             _submitted)

    def _flowed(report, args):
        for phase, seconds in report.phase_seconds.items():
            rec.count("flow." + phase, seconds)
        rec.count("flow.runs")
        if report.placement.warm_started:
            rec.count("flow.warm_starts")
    rec.span(flow_mod, "run_flow", "flow.run", _flowed)

    def _hit_or_miss(prefix):
        def on_return(entry, args):
            rec.count(prefix + (".hits" if entry is not None
                                else ".misses"))
        return on_return
    rec.span(cache_mod.BitstreamCache, "get", "cache.get",
             _hit_or_miss("cache"))
    rec.span(cache_mod.PlacementCache, "lookup", "placement.lookup",
             _hit_or_miss("placement"))

    # Queue wait: submit to start of the job, on thread lanes only (a
    # process-lane job starts in another interpreter).
    queue_submit = queue_mod.CompileQueue.submit

    def submit(queue, fn, *args, **kwargs):
        if queue.kind == "thread" and queue.max_workers:
            submitted = time.perf_counter()
            inner = fn

            def fn(*a, **k):
                rec.count("compilequeue.wait_s",
                          time.perf_counter() - submitted)
                rec.count("compilequeue.jobs")
                return inner(*a, **k)
        return queue_submit(queue, fn, *args, **kwargs)
    rec.patch(queue_mod.CompileQueue, "submit", submit)

    # Server: service time is the root spans on the scheduler thread
    # (Repl.feed / Repl.command / Runtime.run for sliced :run).
    rec.span(repl_mod.Repl, "feed", "server.repl_feed")
    rec.span(repl_mod.Repl, "command", "server.repl_command")
    send, recv = daemon_mod.send_frame, daemon_mod.recv_frame

    def send_frame(sock, obj):
        sent = send(sock, obj)
        rec.count("server.frames")
        rec.count("server.bytes", sent)
        return sent

    def recv_frame(sock, *args, **kwargs):
        frame = recv(sock, *args, **kwargs)
        if frame is not None:
            rec.count("server.frames")
            # The client serialised it with the same encoder.
            rec.count("server.bytes", 4 + len(json.dumps(
                frame, separators=(",", ":")).encode("utf-8")))
        return frame
    rec.patch(daemon_mod, "send_frame", send_frame)
    rec.patch(daemon_mod, "recv_frame", recv_frame)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(rec: Recorder, ops: int, merged: Dict[str, object],
                  extra: Dict[str, float]) -> Dict[str, float]:
    """Per-layer values from the recorder and the program's own merged
    registry snapshot; ``extra`` carries what only the workload saw
    (client latency total, dropped outputs, trace overhead)."""
    per_op = 1.0 / max(ops, 1)
    s, c, n = rec.self_s, rec.counts, rec.calls
    host_wait = float(merged.get("compile.host.wait_s", 0.0))
    batches = n["hardware.open_loop"]
    out = {
        "verilog.parse_s": s["verilog.parse"] * per_op,
        "verilog.elab_s": s["verilog.elab"] * per_op,
        "ir.build_s": s["ir.build"] * per_op,
        "interp.eval_s": s["interp.eval"] * per_op,
        "interp.calls": n["interp.eval"] * per_op,
        "hardware.eval_s": s["hardware.eval"] * per_op,
        "hardware.calls": n["hardware.eval"] * per_op,
        "hardware.open_loop_s": s["hardware.open_loop"] * per_op,
        "hardware.open_loop_batches": batches * per_op,
        "hardware.ticks_per_batch":
            _ratio(c["hardware.open_loop_ticks"], batches),
        "core.plane_propagate_s": s["core.plane_propagate"] * per_op,
        "core.plane_propagate_calls": n["core.plane_propagate"] * per_op,
        # Waiting for a compile worker happens inside Runtime.run but
        # belongs to the compiler layer (compiler.host_wait_s).
        "core.runtime_self_s":
            max(s["core.runtime_run"] - host_wait, 0.0) * per_op,
        "pycompile.codegen_s":
            (rec.total_s["pycompile.codegen_fast"]
             + rec.total_s["pycompile.codegen_jit"]) * per_op,
        "pycompile.calls_per_admission":
            _ratio(n["pycompile.codegen_fast"]
                   + n["pycompile.codegen_jit"],
                   c["compiler.admissions"]),
        "compiler.submit_s": s["compiler.submit"] * per_op,
        "compilequeue.wait_s": c["compilequeue.wait_s"] * per_op,
        "compiler.host_wait_s": host_wait * per_op,
        "flow.synth_s": c["flow.synth_s"] * per_op,
        "flow.place_s": c["flow.place_s"] * per_op,
        "flow.route_s": c["flow.route_s"] * per_op,
        "flow.timing_s": c["flow.timing_s"] * per_op,
        "flow.warm_start_ratio": _ratio(c["flow.warm_starts"],
                                        c["flow.runs"]),
        "cache.hit_ratio": _ratio(c["cache.hits"],
                                  c["cache.hits"] + c["cache.misses"]),
        "cache.cross_tenant_hits":
            float(merged.get("compile.cross_tenant_hits", 0)) * per_op,
        "cache.single_flight_joins":
            float(merged.get("compile.single_flight_joins", 0)) * per_op,
        "placement.hit_ratio":
            _ratio(c["placement.hits"],
                   c["placement.hits"] + c["placement.misses"]),
        "server.service_s": c["server.service_s"] * per_op,
        "server.queue_s": max(extra.get("client_latency_s", 0.0)
                              - c["server.service_s"], 0.0) * per_op,
        "server.frames": c["server.frames"] * per_op,
        "server.bytes": c["server.bytes"] * per_op,
        "server.dropped_outputs":
            extra.get("dropped_outputs", 0.0) * per_op,
        "obs.trace_overhead": extra.get("trace_overhead", 0.0),
    }
    return out


def cross_check(rec: Recorder, merged: Dict[str, object]
                ) -> List[Tuple[str, bool, str]]:
    """Compare what the wrappers saw with the program's own registry
    (``compile.phase.*``, ``compile.host.*``, ``cache.*``,
    ``placement.*``).  Returns ``(check, ok, detail)`` rows."""
    rows: List[Tuple[str, bool, str]] = []

    def hist_sum(name: str) -> float:
        snap = merged.get(name)
        return float(snap["sum"]) if isinstance(snap, dict) else 0.0

    def close(a: float, b: float) -> bool:
        return abs(a - b) <= 1e-9 + 1e-6 * max(abs(a), abs(b))

    for phase in ("synth", "place", "route", "timing"):
        mine = rec.counts["flow." + phase + "_s"]
        theirs = hist_sum("compile.phase." + phase)
        rows.append((f"flow.{phase}_s == compile.phase.{phase}",
                     close(mine, theirs), f"{mine:.6f} vs {theirs:.6f}"))

    # The registry times the same compile_design call from just outside
    # the wrapper, so it may only exceed it by call overhead plus, on
    # either side, one wait for the interpreter lock.
    mine = rec.total_s["pycompile.codegen_jit"]
    host = float(merged.get("compile.host.codegen_s", 0.0))
    slack = 2 * sys.getswitchinterval() * rec.calls["pycompile.codegen_jit"] \
        + 0.01 * host
    rows.append(("pycompile (compiler side) ~ compile.host.codegen_s",
                 0.0 <= host - mine + 1e-9 <= slack + 1e-9,
                 f"{mine:.6f} vs {host:.6f}"))
    phase = hist_sum("compile.phase.codegen")
    rows.append(("compile.phase.codegen == compile.host.codegen_s",
                 close(phase, host), f"{phase:.6f} vs {host:.6f}"))

    for mine_name, theirs_name in (("cache.hits", "cache.hits"),
                                   ("cache.misses", "cache.misses"),
                                   ("placement.hits", "placement.hits"),
                                   ("placement.misses",
                                    "placement.misses"),
                                   ("compiler.submit",
                                    "compile.attempted")):
        mine_v = rec.calls[mine_name] if mine_name == "compiler.submit" \
            else rec.counts[mine_name]
        theirs_v = float(merged.get(theirs_name, 0))
        rows.append((f"{mine_name} == {theirs_name}",
                     int(mine_v) == int(theirs_v),
                     f"{int(mine_v)} vs {int(theirs_v)}"))
    return rows
