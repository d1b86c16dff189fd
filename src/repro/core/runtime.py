"""The Cascade runtime (paper §3.4, Figures 5, 6 and 9).

One :class:`Runtime` owns:

* the user's program — a library of module declarations plus the
  implicit root module that REPL/batch input appends items to;
* the IR (:mod:`repro.ir.build`) and one engine per subprogram;
* the data/control plane, the ordered interrupt queue, and the
  Figure 6 scheduler;
* the JIT machinery: background compilations via the
  :class:`~repro.backend.compiler.CompileService`, software-to-hardware
  engine replacement with state transfer, ABI forwarding and open-loop
  scheduling.

Program changes are only applied between time steps, when the event
queue is empty and the system is in an observable state — the window in
which eval'ing new code cannot produce undefined behaviour (§3.4).
"""

from __future__ import annotations

import time as _time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Set, Tuple

from ..backend.compiler import CompileJob, CompileService
from ..backend.hardware import FastSoftwareEngine, HardwareEngine
# Not called here (every model comes from a CompileJob's codegen stage),
# but still bound: perfbench/tracing.py instruments this name.
from ..backend.pycompile import compile_design  # noqa: F401
from ..common.bits import Bits
from ..common.errors import CascadeError, SynthesisError
from ..ir.build import IRProgram, Subprogram, build_ir
from ..obs import Counter, MetricsRegistry, merge_registries, tracer
from ..perf.timemodel import TimeModel
from ..stdlib.board import VirtualBoard
from ..stdlib.components import (IMPLICIT_INSTANCES, STDLIB_MODULE_NAMES,
                                 stdlib_modules)
from ..stdlib.engines import ClockEngine, StdlibEngine, make_stdlib_engine
from ..verilog import ast
from ..verilog.elaborate import ModuleLibrary
from ..verilog.parser import parse_source, parse_statement_text
from .abi import HARDWARE, SOFTWARE, Engine
from .engines import SoftwareEngineAdapter
from .interrupts import Interrupt, InterruptQueue
from .plane import DataPlane

__all__ = ["Runtime", "View"]

#: Open-loop batch sizes, in scheduler iterations (§4.4): a batch
#: after open-loop entry or after a task runs at least ``_OLOOP_MIN``,
#: and task-free batches double up to ``_OLOOP_MAX``.
_OLOOP_MIN = 256
_OLOOP_MAX = 1 << 14


class View:
    """Collects program output (the REPL's view component)."""

    def __init__(self, echo: bool = False):
        self.echo = echo
        self.lines: List[str] = []
        self._partial = ""

    def display(self, text: str, newline: bool = True) -> None:
        if newline:
            self.lines.append(self._partial + text)
            self._partial = ""
            if self.echo:
                print(self.lines[-1])
        else:
            self._partial += text

    def flush(self) -> None:
        if self._partial:
            self.lines.append(self._partial)
            self._partial = ""

    def info(self, text: str) -> None:
        if self.echo:
            print(text)


class Runtime:
    """The Cascade runtime: scheduler, JIT controller and data plane."""

    def __init__(self,
                 board: Optional[VirtualBoard] = None,
                 time_model: Optional[TimeModel] = None,
                 compile_service: Optional[CompileService] = None,
                 inline_user_logic: bool = True,
                 enable_jit: bool = True,
                 enable_sw_fastpath: bool = True,
                 enable_forwarding: bool = True,
                 enable_open_loop: bool = True,
                 implicit_stdlib: bool = True,
                 echo: bool = False,
                 view: Optional[View] = None):
        self.board = board or VirtualBoard()
        self.time_model = time_model or TimeModel()
        self.compiler = compile_service or CompileService()
        self.inline_user_logic = inline_user_logic
        self.enable_jit = enable_jit
        self.enable_sw_fastpath = enable_sw_fastpath
        self.enable_forwarding = enable_forwarding
        self.enable_open_loop = enable_open_loop
        # The view is injectable so headless hosts (the network server)
        # can observe output as it is produced rather than polling
        # ``output_lines`` — any View subclass works.
        self.view = view if view is not None else View(echo)
        self.interrupts = InterruptQueue()

        self.library = ModuleLibrary(stdlib_modules())
        self.root_items: List[ast.Item] = []
        if implicit_stdlib:
            self._instantiate_implicit_stdlib()

        self.program: Optional[IRProgram] = None
        self.engines: Dict[str, Engine] = {}
        self.absorbed: Set[str] = set()
        self.plane: Optional[DataPlane] = None
        self.finished: Optional[int] = None
        self.iterations = 0           # scheduler iterations dispatched
        self.generation = 0           # bumped on every program change
        self._needs_rebuild = True
        self._had_transients = False
        self._oloop_limit = _OLOOP_MIN
        self._open_loop_active = False
        #: The current compile job of each user subprogram.  A rebuild
        #: replaces the whole map, so it is both the generation guard
        #: (a stale job is simply no longer in it) and the only list of
        #: jobs the runtime polls.
        self._jobs: Dict[str, CompileJob] = {}
        #: This runtime's own counters: a compile service may be shared
        #: by several runtimes, so they cannot live in its registry.
        #: :meth:`metrics_snapshot` merges the two.
        self.metrics = MetricsRegistry()
        self._c_hw_migrations = self.metrics.counter(
            "runtime.hw_migrations")
        self._c_sw_migrations = self.metrics.counter(
            "runtime.sw_migrations")
        self._c_fastpath_failures = self.metrics.counter(
            "runtime.fastpath_failures")
        #: Trace thread id for this runtime's events; the server's
        #: sessions relabel it so per-tenant lanes separate in the
        #: Chrome trace view.
        self.obs_tid = "main"
        self.unsynthesizable: Dict[str, str] = {}
        self._engines_cache: Optional[List[Tuple[str, Engine]]] = None
        #: Per active engine that can raise evaluation (update) events:
        #: (its plane route index, engine, its there_are_evals
        #: (there_are_updates), charged over MMIO?, tallied as sw-fast?).
        self._evaluators: List[tuple] = []
        self._updaters: List[tuple] = []
        #: Engines whose end_step queued a task; drained with the next
        #: engines that run.
        self._stepped: Set[Engine] = set()
        #: The logical time every active engine was last given.
        self._engine_time: Optional[int] = None
        #: The JIT needs polling only once a job can be due or a codegen
        #: stage has resolved (set from the compile worker's thread).
        self._next_due_s = 0.0
        self._models_ready = False
        self._open_loop_stale = True

    def _engines_changed(self) -> None:
        """The engine set changed (rebuild, migration, forwarding or
        absorption): drop everything derived from it."""
        self._engines_cache = None
        self._engine_time = None
        self._open_loop_stale = True

    def _install(self, name: str, engine: Engine, migrations: Counter,
                 from_tier: str, to_tier: str, **extra) -> None:
        """Put ``engine`` in ``name``'s place and record the tier swap."""
        self.engines[name] = engine
        self._engines_changed()
        migrations.inc()
        tr = tracer()
        if tr.enabled:
            args = {"engine": name, "from": from_tier, "to": to_tier}
            args.update(extra)
            tr.emit("tier_swap", "runtime",
                    virtual_ns=self.time_model.now_ns,
                    tid=self.obs_tid, args=args)

    # ------------------------------------------------------------------
    # Program construction
    # ------------------------------------------------------------------
    def _instantiate_implicit_stdlib(self) -> None:
        widths = {"pad": self.board.pad.width, "led": self.board.leds.width}
        for inst_name, module_name, _ in IMPLICIT_INSTANCES:
            overrides: List[ast.Connection] = []
            if inst_name in widths:
                count = widths[inst_name]
                overrides = [ast.Connection(None, ast.Number(
                    Bits.from_int(count, 32, True), str(count), False))]
            self.root_items.append(ast.Instantiation(
                module_name, inst_name, overrides, []))

    # ------------------------------------------------------------------
    # User input (controller side of the REPL)
    # ------------------------------------------------------------------
    def eval_source(self, text: str, source_name: str = "<eval>") -> None:
        """Eval a chunk of Verilog: module declarations enter the outer
        scope, loose items are appended to the root module (§3.1)."""
        src = parse_source(text, source_name)
        for module in src.modules:
            self.library.declare(module)
        if src.root_items:  # declarations alone change no running code
            self.root_items.extend(src.root_items)
            self._invalidate()

    def eval_statement(self, text: str) -> None:
        """Eval a single statement: wrapped in an initial process at the
        end of the root module and executed once."""
        stmt = parse_statement_text(text)
        self.root_items.append(ast.InitialBlock(stmt, stmt.loc))
        self._invalidate()

    def _invalidate(self) -> None:
        self._needs_rebuild = True

    @contextmanager
    def atomic_eval(self) -> Iterator[None]:
        """Evals inside the block take effect as one unit: they are
        rebuilt on exit, and if that (or an eval) raises, the root
        items and the module library go back to what they were and the
        running program carries on untouched."""
        items, modules = list(self.root_items), dict(self.library.modules)
        pending = self._needs_rebuild
        try:
            yield
            if self._needs_rebuild:
                self._rebuild()
        except CascadeError:
            self.root_items, self._needs_rebuild = items, pending
            self.library.modules = modules
            raise

    # ------------------------------------------------------------------
    # Rebuild: program -> IR -> engines (the eval window work)
    # ------------------------------------------------------------------
    def _rebuild(self) -> None:
        _t_rebuild = _time.perf_counter()
        root = ast.Module("main", [], list(self.root_items))
        program = build_ir(root, self.library,
                           external=set(STDLIB_MODULE_NAMES),
                           inlined=self.inline_user_logic)

        saved_state: Dict[str, Dict[str, object]] = {}
        old_nets: Dict[str, Bits] = {}
        if self.plane is not None:
            old_nets = dict(self.plane.values)
        old_engines = self.engines
        for name, engine in old_engines.items():
            saved_state[name] = engine.get_state()

        # Nothing the running program uses is touched until every new
        # engine exists, so a program that fails here leaves it intact.
        engines: Dict[str, Engine] = {}
        kept: List[Tuple[StdlibEngine, Subprogram]] = []
        for sub in program.subprograms.values():
            if sub.external:
                old = old_engines.get(sub.name)
                if isinstance(old, StdlibEngine) and \
                        old.subprogram.source_module == sub.source_module:
                    kept.append((old, sub))
                    engines[sub.name] = old
                else:
                    engines[sub.name] = make_stdlib_engine(sub, self.board)
            else:
                engine = SoftwareEngineAdapter(sub)
                state = saved_state.get(sub.name)
                if state:
                    engine.set_state(state)
                engines[sub.name] = engine

        self.generation += 1
        for old, sub in kept:
            old.subprogram = sub
        self.program = program
        self.engines = engines
        self.absorbed = set()
        self._engines_changed()
        self._open_loop_active = False
        self._oloop_limit = _OLOOP_MIN
        self.plane = DataPlane(program, self.time_model)
        for net, value in old_nets.items():
            if net in self.plane.values:
                self.plane.values[net] = value
        # Nets with no carried-over value take their driver's current
        # output (standard-library engines power up with defined values).
        for sub in program.subprograms.values():
            engine = engines[sub.name]
            for port, (net, direction) in sub.bindings.items():
                if direction == "out" and \
                        self.plane.values[net].has_xz:
                    self.plane.values[net] = engine.read(port)
        # Seed every engine input from current net values.
        for sub in program.subprograms.values():
            self._transfer(None, engines[sub.name], sub)

        # Drop one-shot initial items: initial processes run once, in
        # the program we just built, and must not re-run on the next
        # rebuild.  Once they have executed we rebuild again so the JIT
        # sees a synthesizable (initial-free) root subprogram.
        before = len(self.root_items)
        self.root_items = [
            item for item in self.root_items
            if not isinstance(item, ast.InitialBlock)]
        self._had_transients = len(self.root_items) != before

        # Restart the JIT for every user subprogram (§4.4: engines move
        # back to software and the process starts anew on modification).
        # Only this runtime's jobs are cancelled: the service may be
        # shared with other runtimes.
        self.compiler.cancel(self._jobs.values())
        self._jobs = {}
        self._next_due_s = 0.0
        self.unsynthesizable = {}
        tr = tracer()
        if self.enable_jit:
            for sub in program.user_subprograms():
                try:
                    job = self.compiler.submit(
                        sub, self.time_model.now_seconds)
                    self._jobs[sub.name] = job
                    job.codegen.add_done_callback(self._codegen_resolved)
                    if tr.enabled:
                        tr.emit("admission", "runtime",
                                virtual_ns=self.time_model.now_ns,
                                tid=self.obs_tid,
                                args={"engine": sub.name,
                                      "tier": "interpreted",
                                      "cache_hit": job.cache_hit,
                                      "ready_at_s": job.ready_at_s})
                except SynthesisError as exc:
                    self.unsynthesizable[sub.name] = str(exc)
                    if tr.enabled:
                        tr.emit("admission", "runtime",
                                virtual_ns=self.time_model.now_ns,
                                tid=self.obs_tid,
                                args={"engine": sub.name,
                                      "tier": "interpreted",
                                      "unsynthesizable": str(exc)})
        if tr.enabled:
            tr.emit("eval", "runtime",
                    dur_us=(_time.perf_counter() - _t_rebuild) * 1e6,
                    virtual_ns=self.time_model.now_ns,
                    tid=self.obs_tid,
                    args={"generation": self.generation,
                          "subprograms": len(program.subprograms),
                          "transients": self._had_transients})
        self._needs_rebuild = False

    def _transfer(self, old: Optional[Engine], new: Engine,
                  sub: Subprogram) -> None:
        """Move ``old``'s state into ``new`` through the engine ABI
        (§3.5), then seed ``new``'s inputs from the current net
        values."""
        if old is not None:
            new.set_state(old.get_state())
        for port, (net, direction) in sub.bindings.items():
            if direction == "in":
                value = self.plane.values.get(net)
                if value is not None and not value.has_xz:
                    new.write(port, value)

    # ------------------------------------------------------------------
    # The Figure 6 scheduler
    # ------------------------------------------------------------------
    def _active_engines(self) -> List[Tuple[str, Engine]]:
        # Scheduler hot path: the engine set only changes on rebuild,
        # migration, forwarding or absorption, all of which clear the
        # cache — everything else reuses this list.
        cache = self._engines_cache
        if cache is None:
            cache = [(name, e) for name, e in self.engines.items()
                     if name not in self.absorbed]
            self._engines_cache = cache
            self.plane.attach(cache)
            # A call to an engine is charged over MMIO to the fabric or
            # at software rates (by default the interpreter's own rate —
            # DESIGN.md §4.4), tallied under the fast tier for sw-fast.
            schedule = [(i, e, e.location == HARDWARE,
                         isinstance(e, FastSoftwareEngine))
                        for i, (_, e) in enumerate(cache)]
            self._evaluators = [(i, e, e.there_are_evals, hw, fast)
                                for i, e, hw, fast in schedule
                                if e.raises_evals]
            self._updaters = [(i, e, e.there_are_updates, hw, fast)
                              for i, e, hw, fast in schedule
                              if e.raises_updates]
        return cache

    def _drain_tasks(self) -> None:
        for name, engine in self._active_engines():
            if engine.has_tasks:
                self._queue_tasks(engine)

    def _queue_tasks(self, engine: Engine) -> None:
        for task in engine.drain_tasks():
            if task.kind == "display":
                self.interrupts.push_display(task.text, task.newline)
            else:
                self.interrupts.push_finish(task.code)

    def _phase_loop(self) -> None:
        """Drain evaluation/update events to an observable state.  One
        engine's evaluate or update cannot raise another's events (they
        meet only through the plane), so each engine that can raise
        events is checked and run in turn.  The plane then drains the
        engines that ran, and their tasks are queued."""
        plane = self.plane
        if self._engines_cache is None:
            self._active_engines()
        evaluators, updaters = self._evaluators, self._updaters
        pending = plane.pending
        tm = self.time_model
        for _ in range(100_000):
            ran = []
            for index, engine, evals, hardware, fast in evaluators:
                if evals():
                    if hardware:
                        tm.charge_mmio()
                        tm.charge_hw_ticks(1)
                    else:
                        tm.charge_sw_events(1, fast)
                    engine.evaluate()
                    pending.add(index)
                    ran.append(engine)
            if not ran:
                for index, engine, updates, hardware, fast in updaters:
                    if updates():
                        if hardware:
                            tm.charge_mmio()
                            tm.charge_hw_ticks(1)
                        else:
                            tm.charge_sw_events(1, fast)
                        engine.update()
                        pending.add(index)
                        ran.append(engine)
                if not ran:
                    return
            plane.propagate()
            if self._stepped:
                ran = self._with_stepped(ran)
            for engine in ran:
                if engine.has_tasks:
                    self._queue_tasks(engine)
        raise CascadeError("scheduler did not reach an observable state")

    def _with_stepped(self, ran: List[Engine]) -> List[Engine]:
        """``ran`` plus the engines whose end_step queued a task, in
        scheduling order."""
        stepped = self._stepped
        merged = [engine for _, engine in self._engines_cache
                  if engine in stepped or engine in ran]
        stepped.clear()
        return merged

    def _service_interrupts(self) -> None:
        """Apply queued interrupts in arrival order (§3.4)."""
        while self.interrupts:
            interrupt = self.interrupts.pop()
            if interrupt.kind == Interrupt.DISPLAY:
                text, newline = interrupt.payload
                self.view.display(text, newline)
            elif interrupt.kind == Interrupt.FINISH:
                if self.finished is None:
                    self.finished = interrupt.payload
            elif interrupt.kind == Interrupt.ACTION:
                interrupt.payload()

    def _window(self) -> None:
        """Between time steps: service interrupts, apply evals, poll the
        JIT, advance logical time."""
        self._service_interrupts()
        self.iterations += 1
        self.time_model.charge_runtime()
        # The phase loop just brought the engine list up to date.
        active = self._engines_cache
        logical_time = self.iterations // 2
        if logical_time != self._engine_time:
            self._engine_time = logical_time
            for _, engine in active:
                engine.set_time(logical_time)
        pending = self.plane.pending
        for index, (_, engine) in enumerate(active):
            if engine.end_step():
                pending.add(index)
                if engine.has_tasks:
                    self._stepped.add(engine)
        if pending:
            self.plane.propagate()
        if self._had_transients:
            # The one-shot initial processes have now executed; rebuild
            # without them so the subprogram becomes synthesizable.
            self._had_transients = False
            self._needs_rebuild = True
        if self.enable_jit:
            self._poll_jit()

    def _iteration(self) -> None:
        if self._needs_rebuild:
            self._rebuild()
        if self._open_loop_active and not self.interrupts:
            self._run_open_loop()
            return
        self._phase_loop()
        self._window()

    # ------------------------------------------------------------------
    # JIT: engine replacement, forwarding, open loop
    # ------------------------------------------------------------------
    def _codegen_resolved(self, _future) -> None:
        # Runs on the compile worker's thread (or at once on a hit).
        self._models_ready = True

    def _poll_jit(self) -> None:
        """Scan the jobs once one can be due or a codegen stage has
        resolved; reconsider open loop once the engine set changed."""
        now_s = self.time_model.now_seconds
        if self._models_ready or now_s >= self._next_due_s:
            self._scan_jobs(now_s)
        if self._open_loop_stale:
            self._maybe_enter_open_loop()

    def _scan_jobs(self, now_s: float) -> None:
        """Deliver each job that is due, then install the software fast
        path for each job whose codegen stage has resolved.  Delivery
        comes first, so when a bitstream and a model land in the same
        window the fabric wins."""
        # Cleared before the scan: a stage resolving during it sets the
        # flag again and is seen on the next window.
        self._models_ready = False
        next_due_s = float("inf")
        for name, job in self._jobs.items():
            if not job.delivered and job.state(now_s) == CompileJob.PENDING:
                next_due_s = min(next_due_s, job.ready_at_s)
            elif not job.delivered:
                job.delivered = True
                if job.compiled is None:
                    # §6.4: a program that is correct in simulation can
                    # still fail the later phases of JIT compilation;
                    # the user must hear about it, not lose it silently.
                    error = job.error or "compilation failed"
                    self.unsynthesizable[name] = error
                    self.view.info(f"[cascade] compilation of {name} "
                                   f"failed: {error} (staying in "
                                   f"software)")
                else:
                    self._swap_to_hardware(job)
            engine = self.engines[name]
            if not (self.enable_sw_fastpath
                    and isinstance(engine, SoftwareEngineAdapter)
                    and job.codegen.done()):
                continue
            # The handover must not consume or duplicate pending events,
            # so an engine this window's edge woke waits for the next.
            if engine.there_are_evals() or engine.there_are_updates():
                self._models_ready = True
                continue
            try:
                model = job.take_model()
                if model is not None:
                    self._swap_to_fastpath(name, model)
            except Exception:
                # This tier is a pure optimisation: a failed codegen or
                # handover degrades silently to the interpreter.
                self._c_fastpath_failures.inc()
        self._next_due_s = next_due_s

    @staticmethod
    def _settle_handover(engine: HardwareEngine) -> None:
        """Settle a freshly loaded compiled model without replaying
        history.  Combinational logic reaches its live values first (so
        a derived clock wire is current), then the edge samples are
        aligned, so the sequential pass cannot re-fire an edge the
        previous tier already applied.  The settle's side effects are
        discarded: the $display stream and virtual time must be exactly
        what an interpreter-only run produces."""
        engine.model._eval_comb()
        engine.sync_edge_samples()
        engine.evaluate()
        engine.drain_tasks()

    def _swap_to_fastpath(self, name: str, compiled) -> None:
        old = self.engines[name]
        sub = self.program.subprograms[name]
        fast = FastSoftwareEngine(sub, compiled)
        self._transfer(old, fast, sub)
        self._settle_handover(fast)
        fast.drain_output_changes()
        self._install(name, fast, self._c_sw_migrations, "interpreted",
                      "sw-fast")
        self.view.info(f"[cascade] {name} switched to compiled "
                       f"software fast path")

    def _swap_to_hardware(self, job: CompileJob) -> None:
        name = job.subprogram.name
        old = self.engines.get(name)
        if old is None or old.location == HARDWARE:
            return
        sub = self.program.subprograms[name]
        hw = HardwareEngine(sub, job.compiled)
        self._transfer(old, hw, sub)
        self._settle_handover(hw)
        old_tier = "sw-fast" \
            if isinstance(old, FastSoftwareEngine) else "interpreted"
        self._install(name, hw, self._c_hw_migrations, old_tier,
                      "hardware", luts=job.resources["luts"],
                      compile_s=job.duration_s, cache_hit=job.cache_hit)
        self.view.info(f"[cascade] {name} migrated to hardware "
                       f"({job.resources['luts']} LUTs, "
                       f"{job.duration_s:.0f}s compile)")
        if self.enable_forwarding:
            self._try_forwarding(hw, sub)

    def _try_forwarding(self, hw: HardwareEngine,
                        sub: Subprogram) -> None:
        """Absorb standard components whose nets connect only to this
        engine (§4.3)."""
        for other in self.program.external_subprograms():
            if other.name in self.absorbed:
                continue
            nets = [net for net, _ in other.bindings.values()]
            ok = True
            for net_name in nets:
                net = self.program.nets[net_name]
                parties = set(net.readers) | (
                    {net.driver} if net.driver else set())
                if not parties <= {sub.name, other.name}:
                    ok = False
                    break
            if not ok:
                continue
            inner = self.engines[other.name]
            if isinstance(inner, ClockEngine):
                # The clock is handled by open-loop absorption below.
                continue
            hw.forward(inner)
            self.absorbed.add(other.name)
            self._engines_changed()
            self.view.info(f"[cascade] {other.name} forwarded into "
                           f"{sub.name}")

    def _maybe_enter_open_loop(self) -> None:
        # Whether open loop can start depends only on the program and
        # the engine set, so it is decided once per change to them.
        self._open_loop_stale = False
        if not self.enable_open_loop or self._open_loop_active:
            return
        users = self.program.user_subprograms()
        if len(users) != 1:
            return
        sub = users[0]
        hw = self.engines.get(sub.name)
        if not isinstance(hw, HardwareEngine) or \
                hw.location != HARDWARE:
            # The software fast path shares the HardwareEngine model but
            # open loop is a fabric-only optimisation (§4.4).
            return
        # Everything except the clock must be absorbed or unconnected.
        clock_name = None
        for other in self.program.external_subprograms():
            engine = self.engines[other.name]
            if isinstance(engine, ClockEngine):
                clock_name = other.name
                continue
            if other.name in self.absorbed:
                continue
            # An external component with live connections blocks open
            # loop; one with no connected nets is harmless.
            connected = any(
                self.program.nets[net].readers or
                self.program.nets[net].driver != other.name
                for net, _ in other.bindings.values())
            if connected:
                return
        if clock_name is None:
            return
        clock_sub = self.program.subprograms[clock_name]
        clock_net = clock_sub.bindings["val"][0]
        clock_port = None
        for port, (net, direction) in sub.bindings.items():
            if net == clock_net and direction == "in":
                clock_port = port
                break
        if clock_port is None:
            return
        hw.absorb_clock(self.engines[clock_name], clock_port)
        self.absorbed.add(clock_name)
        self._engines_changed()
        self._open_loop_active = True
        self.view.info(f"[cascade] entering open-loop scheduling "
                       f"(clock={clock_port})")

    def _run_open_loop(self) -> None:
        users = self.program.user_subprograms()
        hw = self.engines[users[0].name]
        assert isinstance(hw, HardwareEngine) and \
            hw.location == HARDWARE
        # Let absorbed peripherals sample the host/board before the
        # batch, so button presses etc. are visible to this batch rather
        # than the next one.
        hw.end_step()
        limit = self._oloop_limit
        done = hw.open_loop(limit)
        had_tasks = hw.has_tasks
        self._drain_tasks()
        self.time_model.charge_hw_ticks(done)
        self.time_model.charge_mmio(2)  # one request/response round trip
        self.time_model.charge_runtime()
        self.iterations += done
        # Adaptive iteration limit (§4.4), decided from virtual state
        # alone so virtual time never depends on the host: grow while
        # batches run without runtime intervention, fall back on a task.
        if had_tasks:
            self._oloop_limit = max(_OLOOP_MIN, done)
        else:
            self._oloop_limit = min(limit * 2, _OLOOP_MAX)
        # Service interrupts and let absorbed peripherals see the host.
        self._service_interrupts()
        hw.end_step()
        hw.set_time(self.iterations // 2)
        if self.enable_jit:
            # Nothing is left to migrate in open loop, but completions
            # (and especially failures) must still be drained/surfaced.
            self._poll_jit()

    # ------------------------------------------------------------------
    # Drivers
    # ------------------------------------------------------------------
    def run(self, iterations: Optional[int] = None,
            virtual_seconds: Optional[float] = None,
            until_finish: bool = False) -> None:
        """Dispatch scheduler iterations until a bound is hit.

        ``virtual_seconds`` bounds *additional* virtual time from now;
        ``iterations`` bounds additional scheduler iterations (an
        open-loop batch in flight finishes first, so a run may end past
        it); ``until_finish`` stops at $finish.
        """
        if self._needs_rebuild:
            self._rebuild()
        start_s = self.time_model.now_seconds
        start_iter = self.iterations
        _t_host = _time.perf_counter()
        while self.finished is None:
            if iterations is not None and \
                    self.iterations - start_iter >= iterations:
                break
            if virtual_seconds is not None and \
                    self.time_model.now_seconds - start_s \
                    >= virtual_seconds:
                break
            self._iteration()
            if until_finish and self.finished is not None:
                break
        tr = tracer()
        if tr.enabled:
            tr.emit("scheduler_slice", "runtime",
                    dur_us=(_time.perf_counter() - _t_host) * 1e6,
                    virtual_ns=self.time_model.now_ns,
                    tid=self.obs_tid,
                    args={"iterations": self.iterations - start_iter,
                          "virtual_advance_s":
                              self.time_model.now_seconds - start_s,
                          "finished": self.finished is not None})
        self.view.flush()

    def run_until_finish(
            self, max_virtual_seconds: float = 3600.0) -> Optional[int]:
        self.run(virtual_seconds=max_virtual_seconds, until_finish=True)
        return self.finished

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def metrics_snapshot(self) -> Dict[str, object]:
        """Every compile-path count in reach: this runtime's registry,
        its compile service's and both caches' (shared ones are the
        server's), merged (DESIGN.md §4.7)."""
        service = self.compiler
        return merge_registries(self.metrics, service.metrics,
                                service.cache.metrics,
                                service.placements.metrics)

    @property
    def virtual_clock_ticks(self) -> int:
        return self.iterations // 2

    @property
    def output_lines(self) -> List[str]:
        self.view.flush()
        return self.view.lines

    def engine_locations(self) -> Dict[str, str]:
        return {name: engine.location
                for name, engine in self.engines.items()}

    def engine_tiers(self) -> Dict[str, str]:
        """Per-engine JIT tier: ``interpreted`` / ``sw-fast`` /
        ``hardware`` (stdlib components report ``stdlib``)."""
        tiers: Dict[str, str] = {}
        for name, engine in self.engines.items():
            if isinstance(engine, FastSoftwareEngine):
                tiers[name] = "sw-fast"
            elif isinstance(engine, HardwareEngine):
                tiers[name] = "hardware"
            elif isinstance(engine, SoftwareEngineAdapter):
                tiers[name] = "interpreted"
            else:
                tiers[name] = "stdlib"
        return tiers

    def tier_counts(self) -> Dict[str, int]:
        counts = {"interpreted": 0, "sw-fast": 0,
                  "hardware": 0, "stdlib": 0}
        for tier in self.engine_tiers().values():
            counts[tier] += 1
        return counts

    def user_engine_location(self) -> str:
        users = self.program.user_subprograms() if self.program else []
        if not users:
            return SOFTWARE
        return self.engines[users[0].name].location

    def subprogram_source(self, name: str) -> str:
        """The transformed stand-alone Verilog of a subprogram
        (Figure 4), for inspection."""
        from ..verilog.printer import module_to_str
        return module_to_str(self.program.subprograms[name].module_ast)
