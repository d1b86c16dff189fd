"""The blackbox compile service (our Quartus stand-in).

Hardware engines "translate the Verilog source for a subprogram into
code which can be compiled by a blackbox toolchain such as Quartus or
Vivado" (§5.2), and that compilation is what the JIT hides: ten minutes
for the paper's proof-of-work benchmark (§6.1).

We model the toolchain with:

* a **latency model** calibrated to the paper's observations — a fixed
  front-end cost plus a power law in estimated LUTs (placement is the
  NP-hard part and scales super-linearly; §1);
* optional execution of the **real flow** (synth → techmap → place →
  route → timing, :mod:`repro.backend.flow`) for small designs, which
  provides exact area/Fmax numbers and can *fail timing closure* —
  reproducing the §6.4 observation that programs correct in simulation
  may still fail the later phases of JIT compilation.

The service is **asynchronous on the host**: ``submit()`` only runs the
cheap front-end (elaboration, the synthesizability check and the
resource estimate) on the caller's thread.  The rest of a
:class:`CompileJob` runs on the thread lane
(:mod:`repro.backend.compilequeue`) in two stages: **codegen**, whose
model the runtime installs as the software fast path as soon as it
resolves, then — for designs small enough — the **flow**.  It is also
**memoized**: results are stored in a content-addressed
:class:`~repro.backend.cache.BitstreamCache` keyed by the canonical
printed source, so recompiling an identical subprogram is a cache hit
that skips codegen and synthesis entirely and completes after a small
constant *virtual* latency (reprogramming the device, not recompiling
for it — what real Cascade's compilation cache buys).

Compile durations are charged in *virtual* time so whole JIT timelines
(Figures 11/12) replay deterministically in milliseconds of host time:
``ready_at_s`` is fixed at submission from the deterministic estimate,
and if the virtual clock reaches it before the background worker has
finished, delivery waits for the worker — host speed can never change
*when* (in virtual time) a result lands.
"""

from __future__ import annotations

import time
from concurrent.futures import CancelledError, Future
from typing import Dict, Iterable, List, Optional, Set

from ..common.errors import SynthesisError
from ..ir.build import Subprogram
from ..obs import MetricsRegistry, tracer
# elaborate_leaf is not called here (the subprogram carries its design),
# but still bound: perfbench/tracing.py instruments this name.
from ..verilog.elaborate import Design, elaborate_leaf  # noqa: F401
from ..verilog.printer import module_to_str
from .cache import BitstreamCache, CacheEntry, PlacementCache, \
    design_cache_key
from .compilequeue import CompileQueue, default_place_starts, \
    shared_flow_queue, shared_queue
from .estimate import estimate_resources, instrumentation_overhead
from .pycompile import CompiledDesign, compile_design
from .synthcheck import check_design

__all__ = ["CompilerModel", "CompileJob", "CompileService"]


class CompilerModel:
    """Latency model for the blackbox toolchain.

    Calibration anchors (paper §6): a ~50-line user-study program
    compiles in ~1.5 minutes; the SHA-256 proof-of-work design takes
    ~10 minutes; Cascade's instrumented bitstream is ~2.9x larger.
    """

    base_s = 40.0
    per_lut = 0.9
    exponent = 0.8

    @classmethod
    def duration_s(cls, luts: int) -> float:
        return cls.base_s + cls.per_lut * (max(luts, 1) ** cls.exponent)


class CompileJob:
    """One background compilation: a codegen stage, then (for designs
    the real flow covers) a flow stage.

    The *virtual* schedule (``submitted_s``, ``duration_s``,
    ``ready_at_s``) is fixed at submission.  ``codegen`` is a future for
    the generated model; it resolves as soon as the codegen stage does
    and survives a failed flow, so a design that misses closure still
    runs as compiled software.  ``compiled`` / ``resources`` / ``error``
    are the whole job's result and wait for the worker when accessed
    before it finishes — the virtual clock, not host progress, decides
    when the job is delivered.
    """

    PENDING = "pending"
    DONE = "done"
    FAILED = "failed"

    def __init__(self, subprogram: Subprogram, design: Design,
                 submitted_s: float, duration_s: float,
                 resources: Dict[str, int],
                 compiled: Optional[CompiledDesign] = None,
                 error: Optional[str] = None,
                 cache_hit: bool = False,
                 service: Optional["CompileService"] = None):
        self.subprogram = subprogram
        self.design = design
        self.submitted_s = submitted_s
        self.duration_s = duration_s
        self.cache_hit = cache_hit
        #: True when this job attached to another in-flight compile of
        #: the same key (single-flight dedup) instead of running its
        #: own worker.  Its futures are the leader's.
        self.single_flight = False
        self.delivered = False
        #: The codegen stage's model (a cache hit already holds it).
        self.codegen: Future = Future()
        if compiled is not None:
            self.codegen.set_result(compiled)
        elif error is not None:
            self.codegen.set_exception(SynthesisError(error))
        self._model_taken = False
        self._resources = dict(resources)
        self._model = compiled
        self._error = error
        #: Resolves to ``(model, resources, error)`` once every stage
        #: has run; None for a cache hit, which has nothing to run.
        self._future: Optional[Future] = None
        self._task: Optional[Future] = None  # the queued codegen stage
        self._resolved = cache_hit or compiled is not None \
            or error is not None
        self._cancel_requested = False
        self._service = service
        self._cache_key: Optional[str] = None
        self._inflight = None  # InflightCompile while leader/follower

    # -- host-side results ---------------------------------------------
    def _resolve(self) -> None:
        """Adopt the worker's result, waiting for it if necessary."""
        if self._resolved:
            return
        future = self._future
        if future is None:
            self._resolved = True
            return
        t0 = time.perf_counter()
        try:
            outcome = future.result()
        except CancelledError:
            outcome = (None, None, "compilation cancelled")
        except Exception as exc:  # a stage itself crashed
            outcome = (None, None, str(exc) or type(exc).__name__)
        if self._service is not None:
            self._service._charge_host("wait_s",
                                       time.perf_counter() - t0)
        model, resources, error = outcome
        self._model = model
        if resources is not None:
            self._resources = dict(resources)
        self._error = error
        self._resolved = True

    def take_model(self) -> Optional[CompiledDesign]:
        """Hand the codegen stage's model to its one consumer (the
        runtime's software fast path) without waiting: None while
        codegen is still running and on every call after the first that
        found it resolved.  A codegen error is raised, once."""
        if self._model_taken or not self.codegen.done():
            return None
        self._model_taken = True
        return self.codegen.result()

    @property
    def host_done(self) -> bool:
        """True once no host-side work remains (does not wait)."""
        return self._resolved or self._future is None \
            or self._future.done()

    @property
    def compiled(self) -> Optional[CompiledDesign]:
        """The hardware artifact: the model, unless the job failed."""
        self._resolve()
        return self._model if self._error is None else None

    @property
    def resources(self) -> Dict[str, int]:
        self._resolve()
        return self._resources

    @property
    def error(self) -> Optional[str]:
        self._resolve()
        return self._error

    # -- virtual-time schedule -----------------------------------------
    @property
    def ready_at_s(self) -> float:
        return self.submitted_s + self.duration_s

    def state(self, now_s: float) -> str:
        """The job's state at virtual time ``now_s``.

        Results — including failures, which the toolchain only
        discovers while compiling (§6.4) — become visible exactly at
        ``ready_at_s``; if the worker is still running then, this call
        waits for it (host time only, virtual time is unaffected).
        """
        if now_s < self.ready_at_s:
            return self.PENDING
        self._resolve()
        return self.FAILED if self._error is not None else self.DONE

    def __repr__(self) -> str:
        return (f"CompileJob({self.subprogram.name}, "
                f"ready_at={self.ready_at_s:.1f}s)")


class CompileService:
    """Submits subprogram compilations and reports completions against
    the runtime's virtual clock.

    ``latency_scale`` scales modeled durations (0 = compilation is
    instantaneous, useful in tests).
    """

    #: Virtual seconds a cache hit still costs: the device must be
    #: reprogrammed with the cached bitstream, but nothing is
    #: recompiled (mirrors real Cascade's compilation cache).
    cache_hit_latency_s = 1.0

    def __init__(self, latency_scale: float = 1.0,
                 full_flow_max_luts: int = 0,
                 cache: Optional[BitstreamCache] = None,
                 placements: Optional[PlacementCache] = None,
                 queue: Optional[CompileQueue] = None,
                 flow_queue: Optional[CompileQueue] = None,
                 place_starts: Optional[int] = None,
                 isolate_virtual_time: bool = False,
                 registry: Optional[MetricsRegistry] = None):
        #: The metrics registry all of this service's counters live in
        #: (DESIGN.md §4.7).  Caches the service creates itself share
        #: it; caches passed in (the multi-tenant server's shared
        #: substrate) keep the registry they were built with.
        self.metrics = registry if registry is not None \
            else MetricsRegistry()
        self.latency_scale = latency_scale
        #: When positive, designs whose estimated LUT count is at or
        #: below this run the *real* synth/place/route/timing flow —
        #: exact area and genuine closure failures (§6.4) — instead of
        #: the calibrated estimator.
        self.full_flow_max_luts = full_flow_max_luts
        self.cache = cache if cache is not None \
            else BitstreamCache(registry=self.metrics)
        self.placements = placements if placements is not None \
            else PlacementCache(registry=self.metrics)
        self.queue = queue if queue is not None else shared_queue()
        #: The process-pool lane the CPU-bound place/route/timing
        #: kernels are shipped to (threads above only orchestrate, so
        #: in-flight compiles no longer contend with the simulation for
        #: the GIL).  ``flow_queue=None`` selects the shared lane; pass
        #: a ``CompileQueue(max_workers=0)`` for inline debugging.
        self.flow_queue = flow_queue if flow_queue is not None \
            else shared_flow_queue()
        #: Cold placements anneal this many seeds in parallel and keep
        #: the best by ``(cost, seed)``; warm starts stay single-start.
        self.place_starts = place_starts if place_starts is not None \
            else default_place_starts()
        #: Multi-tenant virtual-time isolation (DESIGN.md §4.6).  When
        #: this service shares its caches with other tenants' services,
        #: a key *this* service has never submitted may be resolved by
        #: another tenant's work — a cross-tenant cache hit or a
        #: single-flight join.  With isolation on, such a result still
        #: costs the full modeled compile duration in *virtual* time
        #: (only host work is deduped), so a session's virtual timeline
        #: is bit-identical to running alone with a cold cache: one
        #: tenant can neither observe nor perturb another through
        #: timing.  Session-local recompiles keep the collapsed
        #: reprogramming latency, exactly as a solo runtime would.
        self.isolate_virtual_time = isolate_virtual_time
        self.jobs: List[CompileJob] = []
        m = self.metrics
        self._c_attempted = m.counter("compile.attempted")
        self._c_failed = m.counter("compile.failed")
        self._c_cancelled = m.counter("compile.cancelled")
        self._c_cache_hits = m.counter("compile.cache_hits")
        self._c_cache_misses = m.counter("compile.cache_misses")
        self._c_warm_starts = m.counter("compile.warm_starts")
        self._c_cross_tenant = m.counter("compile.cross_tenant_hits")
        self._c_joins = m.counter("compile.single_flight_joins")
        # Per-phase host seconds: totals as counters, distributions as
        # p50/p99 histograms.
        for phase in ("submit_s", "codegen_s", "flow_s", "wait_s"):
            m.counter("compile.host." + phase)
        self._session_keys: Set[str] = set()
        #: The result future of the last flow-eligible job: the next
        #: one's flow stage is submitted when it resolves.
        self._flow_tail: Optional[Future] = None

    # ------------------------------------------------------------------
    def _charge_host(self, phase: str, seconds: float) -> None:
        self.metrics.counter("compile.host." + phase).inc(seconds)
        self.metrics.histogram(
            "compile.host." + phase + ".dist").observe(seconds)

    def _trace_phase(self, job: "CompileJob", phase: str,
                     seconds: float) -> None:
        """One ``compile_phase`` span, anchored at the job's virtual
        submission time, host duration from where the work really ran
        (flow phases: inside the lane worker)."""
        tr = tracer()
        if tr.enabled:
            tr.emit("compile_phase", "compile", dur_us=seconds * 1e6,
                    virtual_ns=job.submitted_s * 1e9,
                    tid="compile",
                    args={"phase": phase,
                          "subprogram": job.subprogram.name})
        self.metrics.histogram("compile.phase." + phase) \
            .observe(seconds)

    def estimate(self, design: Design,
                 instrumented: bool = True) -> Dict[str, int]:
        base = estimate_resources(design)
        if instrumented:
            extra = instrumentation_overhead(design)
            return {k: base.get(k, 0) + extra.get(k, 0) for k in
                    set(base) | set(extra)}
        return base

    # ------------------------------------------------------------------
    def submit(self, subprogram: Subprogram, now_s: float,
               instrumented: bool = True) -> CompileJob:
        """Begin a background compilation of a subprogram's design.

        Raises :class:`SynthesisError` immediately when the subprogram
        is not synthesizable at all (those stay in software forever).
        Everything slow — code generation and the real flow — runs on
        the worker pool; this call costs only the synthesizability
        check, the resource estimate and the cache key.
        """
        t0 = time.perf_counter()
        self._c_attempted.inc()
        design = subprogram.design
        violations = check_design(design)
        if violations:
            raise SynthesisError(
                f"subprogram {subprogram.name!r} is unsynthesizable: "
                + "; ".join(sorted(set(violations))))
        resources = self.estimate(design, instrumented=instrumented)
        source = module_to_str(subprogram.module_ast)
        key = design_cache_key(source, instrumented,
                               self.full_flow_max_luts)
        entry = self.cache.get(key, design)
        if entry is not None:
            # Cache hit: no host work.  A *session-local* hit (this
            # service compiled the key before) costs only the constant
            # device-reprogramming latency in virtual time.  A
            # *cross-tenant* hit (another service sharing this cache
            # compiled it) costs the same — unless virtual-time
            # isolation is on, in which case this session is charged
            # the full modeled duration it would have paid alone.
            local = key in self._session_keys
            self._c_cache_hits.inc()
            if not local:
                self._c_cross_tenant.inc()
            if entry.error is not None:
                self._c_failed.inc()
            tr = tracer()
            if tr.enabled:
                tr.emit("cache_hit", "cache",
                        virtual_ns=now_s * 1e9, tid="compile",
                        args={"subprogram": subprogram.name,
                              "key": key[:12],
                              "cross_tenant": not local,
                              "failed_entry": entry.error is not None})
            if self.isolate_virtual_time and not local:
                duration = CompilerModel.duration_s(resources["luts"]) \
                    * self.latency_scale
            else:
                duration = self.cache_hit_latency_s * self.latency_scale
            job = CompileJob(subprogram, design, now_s, duration,
                             entry.resources, compiled=entry.compiled,
                             error=entry.error, cache_hit=True,
                             service=self)
            job._cache_key = key
        else:
            self._c_cache_misses.inc()
            tr = tracer()
            if tr.enabled:
                tr.emit("cache_miss", "cache",
                        virtual_ns=now_s * 1e9, tid="compile",
                        args={"subprogram": subprogram.name,
                              "key": key[:12]})
            duration = CompilerModel.duration_s(resources["luts"]) \
                * self.latency_scale
            job = CompileJob(subprogram, design, now_s, duration,
                             resources, service=self)
            job._cache_key = key
            leader, inflight = self.cache.inflight_begin(key)
            job._inflight = inflight
            job.codegen = inflight.codegen
            if not leader:
                # Single-flight join: an identical compile is already
                # in flight (the cross-tenant hot path — but also a
                # same-session resubmit racing an uncancellable
                # worker).  Attach to the leader's futures instead of
                # compiling twice; virtual duration stays the full
                # modeled cost, so under isolation the timeline is
                # exactly a solo cold compile's.
                self._c_joins.inc()
                if tr.enabled:
                    tr.emit("single_flight_join", "cache",
                            virtual_ns=now_s * 1e9, tid="compile",
                            args={"subprogram": subprogram.name,
                                  "key": key[:12]})
                job.single_flight = True
                job._future = inflight.proxy
            else:
                job._future = Future()
                inflight.bridge(job._future)
                flow_eligible = bool(
                    self.full_flow_max_luts
                    and resources["luts"] <= self.full_flow_max_luts)
                prev = self._flow_tail if flow_eligible else None
                try:
                    job._task = self.queue.submit(
                        self._stage, job, self._codegen_stage,
                        resources, flow_eligible, prev)
                except BaseException:
                    self.cache.inflight_finish(key, inflight)
                    raise
                if flow_eligible:
                    self._flow_tail = job._future
        self._session_keys.add(key)
        self.jobs.append(job)
        self._charge_host("submit_s", time.perf_counter() - t0)
        return job

    # -- the stages ----------------------------------------------------
    def _stage(self, job: CompileJob, body, *args) -> None:
        """Run one stage of ``job``.  A stage that crashes fails the
        job — the error reaches the user at ``ready_at_s`` — instead of
        leaving it, and every flow stage chained behind it, unresolved.
        """
        try:
            body(job, *args)
        except BaseException as exc:
            self.cache.inflight_finish(job._cache_key, job._inflight)
            for future in (job.codegen, job._future):
                if not future.done():
                    future.set_exception(exc)

    def _codegen_stage(self, job: CompileJob, resources: Dict[str, int],
                       flow_eligible: bool,
                       prev: Optional[Future]) -> None:
        if job._cancel_requested:
            self._settle(job, None, resources, None)
            return
        t0 = time.perf_counter()
        try:
            model = compile_design(job.design)
            failure: Optional[Exception] = None
        except Exception as exc:  # compilation itself failed
            model, failure = None, exc
        codegen_s = time.perf_counter() - t0
        self._charge_host("codegen_s", codegen_s)
        self._trace_phase(job, "codegen", codegen_s)
        if failure is not None:
            job.codegen.set_exception(failure)
            self._settle(job, None, resources, str(failure))
            return
        job.codegen.set_result(model)
        if not flow_eligible:
            self._settle(job, model, resources, None)
            return

        # Flow stages run in submission order, so warm-start placement
        # lookups are deterministic: a job only ever sees placements
        # produced by earlier submissions, never a racy subset of them.
        # A continuation keeps the order; no worker waits for it.
        if prev is None:
            self._submit_flow(job, model, resources)
        else:
            prev.add_done_callback(lambda _prev: self._stage(
                job, self._submit_flow, model, resources))

    def _submit_flow(self, job: CompileJob, model: CompiledDesign,
                     resources: Dict[str, int]) -> None:
        self.queue.submit(self._stage, job, self._flow_stage, model,
                          resources)

    def _flow_stage(self, job: CompileJob, model: CompiledDesign,
                    resources: Dict[str, int]) -> None:
        if job._cancel_requested:
            self._settle(job, None, resources, None)
            return
        from .flow import run_flow
        placement = None
        flow_summary = None
        error: Optional[str] = None
        t1 = time.perf_counter()
        try:
            report = run_flow(job.design,
                              placement_cache=self.placements,
                              starts=self.place_starts,
                              pool=self.flow_queue)
            if report.placement.warm_started:
                self._c_warm_starts.inc()
            for phase, seconds in sorted(report.phase_seconds.items()):
                # synth_s -> "synth" etc.; durations measured in the
                # flow-lane worker that ran the phase.
                self._trace_phase(job, phase.rsplit("_", 1)[0], seconds)
            overhead = resources["luts"] - \
                estimate_resources(job.design)["luts"]
            resources = dict(resources)
            resources["luts"] = report.luts + max(overhead, 0)
            resources["fmax_mhz"] = report.fmax_mhz
            placement = report.placement.locations
            flow_summary = report.summary()
            if not report.success:
                error = ("design failed "
                         + ("routing" if not report.routing.routed
                            else "timing") + " closure")
        except SynthesisError:
            pass  # outside the gate-level subset: keep the estimate
        finally:
            self._charge_host("flow_s", time.perf_counter() - t1)
        self._settle(job, model, resources, error, placement,
                     flow_summary)

    def _settle(self, job: CompileJob, model: Optional[CompiledDesign],
                resources: Dict[str, int], error: Optional[str],
                placement=None, flow_summary=None) -> None:
        """Resolve ``job`` (a cancelled one as cancelled).  The model is
        kept even when the flow failed: a cache hit on that entry still
        runs on the software fast path."""
        if job._cancel_requested:
            job.codegen.cancel()
            model, error = None, "compilation cancelled"
        else:
            if error is not None:
                self._c_failed.inc()
            # Deterministic results are worth caching either way: a
            # failure recompiles to the same failure (§6.4).
            self.cache.put(job._cache_key, CacheEntry(
                model, resources, error, placement, flow_summary))
        # Leave the single-flight registry only after the cache is
        # populated, so a concurrent submit either joins this job or
        # hits the cache — it can never fall between the two.
        self.cache.inflight_finish(job._cache_key, job._inflight)
        job._future.set_result((model, resources, error))

    # ------------------------------------------------------------------
    def cancel(self, jobs: Iterable[CompileJob]) -> None:
        """Abandon ``jobs`` (the program changed under them); delivered
        ones are left alone.

        A codegen stage still queued on the pool is cancelled outright;
        a running one finishes, but its job skips the flow stage and is
        neither cached nor delivered.  Single-flight discipline: a
        follower never cancels the *leader's* work (it belongs to
        someone else's compile), and a leader whose result other
        tenants have joined is left to finish — cancelling it would
        fail their compiles too."""
        dropped = [job for job in jobs if not job.delivered]
        for job in dropped:
            self._c_cancelled.inc()
            if job.single_flight:
                # Follower: just stop waiting; release our seat so the
                # leader can become cancellable again.
                job._cancel_requested = True
                self.cache.inflight_leave(job._inflight)
            elif job._inflight is None:
                job._cancel_requested = True  # a cache hit: no work
            elif self.cache.inflight_cancellable(job._cache_key,
                                                 job._inflight):
                # Leader: only cancellable while nobody has joined (the
                # check atomically unregisters the key, so no one can
                # join a job that is about to be cancelled).
                job._cancel_requested = True
                if self.queue.cancel(job._task):
                    # The stage will never run; resolve what it would
                    # have, releasing any flow stage chained behind.
                    job.codegen.cancel()
                    job._future.cancel()
        self.jobs = [job for job in self.jobs if job not in dropped]

    def cancel_all(self) -> None:
        """Abandon every undelivered job of this service."""
        self.cancel(self.jobs)

    def in_flight(self) -> int:
        """Undelivered jobs whose host work is still running: state read
        from the job list at call time, not a count in the registry."""
        return sum(1 for job in self.jobs
                   if not job.delivered and not job.host_done)
