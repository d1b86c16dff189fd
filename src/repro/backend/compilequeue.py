"""Background execution for the compile service.

The paper's core trick is that hardware compilation happens *while the
program keeps running* (§3.4, §6.1): the runtime never blocks on the
toolchain.  The seed implementation only modeled this in virtual time —
all real host work still ran synchronously inside ``submit()``.  This
module provides the host-side half of the story: worker pools
(:class:`CompileQueue`) that compile jobs are handed to, so submission
is O(1) host time and codegen / synth / place / route overlap with the
simulation the user is watching.

Two lanes exist:

* :func:`shared_queue` — the *thread* pool every compile job's stages
  run on: codegen (the exec'd model classes it produces cannot cross a
  process boundary), then the flow stage's orchestration.  No stage
  waits for another job's: flow stages are chained by continuation, so
  codegen never queues behind a parked worker.
* :func:`shared_flow_queue` — a *process* pool for the CPU-bound
  synth/place/route kernels.  Under the GIL, a thread lane can only
  hide I/O; the NP-hard placement loops would still steal host cycles
  from the interpreter/fast-path simulation the user is watching.
  Shipping them to worker processes (``kind="process"``) buys true
  parallelism: simulation throughput stays flat while compiles are in
  flight, and multi-start annealing fans out across cores.

Virtual time remains the authority for *when* a compile result becomes
visible (``CompileJob.ready_at_s``); the pools only determine when the
host work is physically finished.  If the virtual clock reaches a job's
ready time before its worker has finished, the service waits on the
future — keeping JIT timelines (Figures 11/12) bit-identical to the
synchronous implementation while hiding the host latency in the common
case.

Process-wide shared pools are used by default so that the many
short-lived runtimes created by tests and benchmarks do not each spawn
their own workers.  ``CASCADE_COMPILE_WORKERS`` overrides the process
lane's width (default: every core); ``CASCADE_PLACE_STARTS`` overrides
how many annealing seeds a cold placement fans across it.
"""

from __future__ import annotations

import atexit
import os
import threading
from concurrent.futures import Future, ProcessPoolExecutor, \
    ThreadPoolExecutor
from typing import Callable, Optional

__all__ = ["CompileQueue", "shared_queue", "shared_fast_queue",
           "shared_flow_queue", "default_place_starts",
           "shutdown_shared_pools"]


def _default_workers() -> int:
    """Thread-lane width: small on purpose — these workers mostly
    orchestrate and wait; the CPU-bound work lives on the process
    lane."""
    return max(2, min(4, os.cpu_count() or 2))


def _default_flow_workers() -> int:
    """Process-lane width: one worker per core (they do not share a
    GIL), overridable via ``CASCADE_COMPILE_WORKERS``."""
    env = os.environ.get("CASCADE_COMPILE_WORKERS")
    if env:
        try:
            return max(0, int(env))
        except ValueError:
            pass
    return max(1, os.cpu_count() or 1)


def default_place_starts() -> int:
    """How many annealing seeds a cold placement fans out (capped so a
    single compile cannot monopolise a small machine), overridable via
    ``CASCADE_PLACE_STARTS``."""
    env = os.environ.get("CASCADE_PLACE_STARTS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return max(1, min(4, os.cpu_count() or 1))


class CompileQueue:
    """A thin wrapper around an executor.

    ``kind`` selects the executor: ``"thread"`` (the default) or
    ``"process"`` for CPU-bound work that must escape the GIL.  Process
    lanes require picklable callables and arguments — module-level
    functions over the compact payload forms of
    :class:`~repro.backend.netlist.Netlist` and
    :class:`~repro.backend.fabric.Device`.

    ``max_workers=0`` selects *inline* mode: submitted callables run
    immediately on the caller's thread and return an already-resolved
    future.  That mode exists for debugging (tracebacks point at the
    submit site) and for comparing against the synchronous baseline.

    If a process pool cannot be created or used (some sandboxes forbid
    semaphores or fork), the lane degrades to a thread pool — slower
    under load but never wrong, since every shipped job is a pure
    function of its arguments.
    """

    def __init__(self, max_workers: Optional[int] = None,
                 name: str = "cascade-compile", kind: str = "thread"):
        if kind not in ("thread", "process"):
            raise ValueError(f"unknown queue kind {kind!r}")
        if max_workers is None:
            max_workers = _default_flow_workers() if kind == "process" \
                else _default_workers()
        self.max_workers = max_workers
        self.name = name
        self.kind = kind
        self.degraded = False
        self._executor = None
        self._lock = threading.Lock()
        # Guarded by _lock: submit() is called from many session/worker
        # threads at once under the multi-tenant server, and a bare
        # ``+= 1`` would lose counts.
        self.submitted = 0

    # ------------------------------------------------------------------
    def _pool(self):
        with self._lock:
            if self._executor is None:
                if self.kind == "process":
                    try:
                        self._executor = ProcessPoolExecutor(
                            max_workers=self.max_workers)
                    except (OSError, ValueError, ImportError):
                        # No multiprocessing primitives available here:
                        # fall back to threads (correct, just GIL-bound).
                        self.degraded = True
                        self._executor = ThreadPoolExecutor(
                            max_workers=self.max_workers,
                            thread_name_prefix=self.name)
                else:
                    self._executor = ThreadPoolExecutor(
                        max_workers=self.max_workers,
                        thread_name_prefix=self.name)
            return self._executor

    def submit(self, fn: Callable, *args, **kwargs) -> Future:
        with self._lock:
            self.submitted += 1
        if self.max_workers == 0:
            future: Future = Future()
            try:
                future.set_result(fn(*args, **kwargs))
            except BaseException as exc:  # mirrored from executor workers
                future.set_exception(exc)
            return future
        try:
            return self._pool().submit(fn, *args, **kwargs)
        except (OSError, RuntimeError):
            if not self.degrade():
                raise
            return self._pool().submit(fn, *args, **kwargs)  # retry once

    def degrade(self) -> bool:
        """Switch a process lane whose pool died (or could not start a
        worker) to threads, for good.  False when there is nothing to
        switch: the lane already runs threads."""
        with self._lock:
            if self.kind != "process" or self.degraded:
                return False
            broken, self._executor = self._executor, None
            self.kind = "thread"
            self.degraded = True
        if broken is not None:
            broken.shutdown(wait=False)
        return True

    def cancel(self, future: Future) -> bool:
        """Best-effort cancellation: queued work is dropped; running
        work finishes (our Quartus stand-in, like the real one, cannot
        be killed mid-flight — the service discards its result)."""
        return future.cancel()

    def shutdown(self, wait: bool = True) -> None:
        with self._lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=wait)

    def stats(self) -> dict:
        return {"kind": self.kind, "workers": self.max_workers,
                "submitted": self.submitted, "degraded": self.degraded}


_shared: Optional[CompileQueue] = None
_shared_flow: Optional[CompileQueue] = None
_shared_lock = threading.Lock()


def shared_queue() -> CompileQueue:
    """The process-wide compile pool (created on first use)."""
    global _shared
    with _shared_lock:
        if _shared is None:
            _shared = CompileQueue()
        return _shared


#: The thread lane under a second name, which ``perfbench/workloads.py``
#: warms it by.
shared_fast_queue = shared_queue


def shared_flow_queue() -> CompileQueue:
    """The process-wide *flow lane*: a process pool for the CPU-bound
    place/route/timing kernels, sized to the machine (every core, or
    ``CASCADE_COMPILE_WORKERS``).  True parallelism — these workers do
    not share the interpreter's GIL, so an in-flight compile no longer
    slows the simulation the user is watching."""
    global _shared_flow
    with _shared_lock:
        if _shared_flow is None:
            _shared_flow = CompileQueue(name="cascade-flow",
                                        kind="process")
        return _shared_flow


def shutdown_shared_pools(wait: bool = True) -> None:
    """Shut down every process-wide pool and forget it.

    The server daemon calls this on graceful drain, and an ``atexit``
    hook calls it for plain pytest/REPL runs, so neither exits with
    dangling flow-lane worker processes.  Idempotent: a second call
    finds no pools, and a later :func:`shared_queue` (etc.) lazily
    creates a fresh one — safe for in-process servers that start and
    stop several times in one test run.
    """
    global _shared, _shared_flow
    with _shared_lock:
        pools = [p for p in (_shared, _shared_flow) if p is not None]
        _shared = _shared_flow = None
    for pool in pools:
        pool.shutdown(wait=wait)


atexit.register(shutdown_shared_pools, wait=False)
