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
from concurrent.futures import Future
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..common.errors import SynthesisError
from ..ir.build import Subprogram
from ..obs import MetricsRegistry, tracer
# elaborate_leaf is not called here (the subprogram carries its design),
# but still bound: perfbench/tracing.py instruments this name.
from ..verilog.elaborate import Design, elaborate_leaf  # noqa: F401
from ..verilog.printer import module_to_str
from .cache import BitstreamCache, CacheEntry, InflightCompile, \
    PlacementCache, design_cache_key
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
    ``ready_at_s``) is fixed at submission.  The outcome lives in two
    futures, the :class:`~repro.backend.cache.InflightCompile` pair this
    job reads: ``codegen`` resolves to the generated model as soon as
    the codegen stage does and survives a failed flow, so a design that
    misses closure still runs as compiled software; ``result`` resolves
    to the whole compile's ``(model, resources, error)``.  The leader's
    stages resolve both, a single-flight follower reads the leader's
    pair, and a cache hit gets a pair that is already resolved.
    ``compiled`` / ``resources`` / ``error`` wait for the worker when
    read before it finishes — the virtual clock, not host progress,
    decides when the job is delivered.
    """

    PENDING = "pending"
    DONE = "done"
    FAILED = "failed"

    def __init__(self, subprogram: Subprogram, design: Design,
                 submitted_s: float, duration_s: float,
                 estimate: Dict[str, int], flight: InflightCompile,
                 service: "CompileService", cache_hit: bool = False):
        self.subprogram = subprogram
        self.design = design
        self.submitted_s = submitted_s
        self.duration_s = duration_s
        #: The submission-time resource estimate: the stages start
        #: from it, and ``resources`` reports it for a compile that was
        #: cancelled or crashed.
        self.estimate = estimate
        self.cache_hit = cache_hit
        #: True when this job attached to another in-flight compile of
        #: the same key (single-flight dedup) instead of running its
        #: own worker.  Its futures are the leader's.
        self.single_flight = False
        self.delivered = False
        self.codegen: Future = flight.codegen
        self.result: Future = flight.result
        self._model_taken = False
        self._task: Optional[Future] = None  # the queued codegen stage
        #: Set on a leader its service cancelled: its stages then
        #: resolve the futures as cancelled and cache nothing.
        self._cancel_requested = False
        self._service = service
        self._flight = flight

    # -- host-side results ---------------------------------------------
    def _outcome(self) -> Tuple[Optional[CompiledDesign], Dict[str, int],
                                Optional[str]]:
        """``(model, resources, error)``, waiting for the worker if it
        is still running (host time charged as ``wait_s``)."""
        if self.result.done():
            return self.result.result()
        t0 = time.perf_counter()
        outcome = self.result.result()
        self._service._charge_host("wait_s", time.perf_counter() - t0)
        return outcome

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
        return self.result.done()

    @property
    def compiled(self) -> Optional[CompiledDesign]:
        """The hardware artifact: the model, unless the job failed."""
        model, _, error = self._outcome()
        return model if error is None else None

    @property
    def resources(self) -> Dict[str, int]:
        return self._outcome()[1]

    @property
    def error(self) -> Optional[str]:
        return self._outcome()[2]

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
        return self.FAILED if self.error is not None else self.DONE

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
                             entry.resources,
                             InflightCompile.settled(key, entry), self,
                             cache_hit=True)
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
            leader, flight = self.cache.inflight_begin(key)
            job = CompileJob(subprogram, design, now_s, duration,
                             resources, flight, self)
            if not leader:
                # Single-flight join: an identical compile is already
                # in flight (the cross-tenant hot path — but also a
                # same-session resubmit racing an uncancellable
                # worker).  Read the leader's futures instead of
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
            else:
                flow_eligible = bool(
                    self.full_flow_max_luts
                    and resources["luts"] <= self.full_flow_max_luts)
                prev = self._flow_tail if flow_eligible else None
                try:
                    job._task = self.queue.submit(
                        self._stage, job, self._codegen_stage,
                        flow_eligible, prev)
                except BaseException:
                    self.cache.inflight_finish(key, flight)
                    raise
                if flow_eligible:
                    self._flow_tail = job.result
        self._session_keys.add(key)
        self.jobs.append(job)
        self._charge_host("submit_s", time.perf_counter() - t0)
        return job

    # -- the stages ----------------------------------------------------
    # Only the leader's stages resolve a compile's futures; every job
    # of the compile reads them.
    def _stage(self, job: CompileJob, body, *args) -> None:
        """Run one stage of ``job``.  A stage that crashes fails the
        job — the error reaches the user at ``ready_at_s`` — instead of
        leaving it, and every flow stage chained behind it, unresolved.
        """
        try:
            body(job, *args)
        except BaseException as exc:
            self.cache.inflight_finish(job._flight.key, job._flight)
            if not job.codegen.done():
                job.codegen.set_exception(exc)
            if not job.result.done():
                job.result.set_result(
                    (None, job.estimate, str(exc) or type(exc).__name__))

    def _codegen_stage(self, job: CompileJob, flow_eligible: bool,
                       prev: Optional[Future]) -> None:
        if job._cancel_requested:
            self._settle(job, None, job.estimate, None)
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
            self._settle(job, None, job.estimate, str(failure))
            return
        job.codegen.set_result(model)
        if not flow_eligible:
            self._settle(job, model, job.estimate, None)
            return

        # Flow stages run in submission order, so warm-start placement
        # lookups are deterministic: a job only ever sees placements
        # produced by earlier submissions, never a racy subset of them.
        # A continuation keeps the order; no worker waits for it.
        if prev is None:
            self._submit_flow(job, model)
        else:
            prev.add_done_callback(lambda _prev: self._stage(
                job, self._submit_flow, model))

    def _submit_flow(self, job: CompileJob, model: CompiledDesign) -> None:
        self.queue.submit(self._stage, job, self._flow_stage, model)

    def _flow_stage(self, job: CompileJob, model: CompiledDesign) -> None:
        if job._cancel_requested:
            self._settle(job, None, job.estimate, None)
            return
        resources = job.estimate
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
            self.cache.put(job._flight.key, CacheEntry(
                model, resources, error, placement, flow_summary))
        # Leave the single-flight registry only after the cache is
        # populated, so a concurrent submit either joins this job or
        # hits the cache — it can never fall between the two.
        self.cache.inflight_finish(job._flight.key, job._flight)
        job.result.set_result((model, resources, error))

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
                self.cache.inflight_leave(job._flight)
            elif not job.cache_hit and self.cache.inflight_cancellable(
                    job._flight.key, job._flight):
                # Leader: only cancellable while nobody has joined (the
                # check atomically unregisters the key, so no one can
                # join a job that is about to be cancelled).
                job._cancel_requested = True
                if self.queue.cancel(job._task):
                    # The stage will never run; resolve what it would
                    # have, releasing any flow stage chained behind.
                    job.codegen.cancel()
                    job.result.set_result(
                        (None, job.estimate, "compilation cancelled"))
        self.jobs = [job for job in self.jobs if job not in dropped]

    def cancel_all(self) -> None:
        """Abandon every undelivered job of this service."""
        self.cancel(self.jobs)

    def in_flight(self) -> int:
        """Undelivered jobs whose host work is still running: state read
        from the job list at call time, not a count in the registry."""
        return sum(1 for job in self.jobs
                   if not job.delivered and not job.host_done)
