"""The four benchmark workloads, all closed loop and driven from one
process through the public APIs of ``repro.core.runtime``,
``repro.backend.compiler``, ``repro.server`` and ``repro.client``.

Every workload repeats one *operation* until its time budget is spent
and reports medians over the operations.  The operation is a pow/pow-tb
episode (eval the miner, climb the tiers, reach ``$finish``), an
edit-compile cycle (five edits of a register bank) or a class-server
session (one student: connect, eval, ``:run`` until the score).  Each
output is checked against a reference that does not use the code under
test (``hashlib``, the Python ``nw_score``, an interpreter-only
runtime); a failed check counts the operation as failed.

The benchmark measures host time only and never changes virtual time:
tick counts are compared with constants, and virtual nanoseconds with
the first operation of the run, wherever they are deterministic.
"""

from __future__ import annotations

import gc
import os
import random
import re
import signal
import statistics
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

from repro.apps.nw import nw_program, nw_score, random_dna
from repro.apps.pow import MESSAGE_WORDS, pow_program, reference_digest, \
    reference_golden_nonce
from repro.backend.compiler import CompileService
from repro.backend.compilequeue import shared_fast_queue, \
    shared_flow_queue, shared_queue, shutdown_shared_pools
from repro.client import connect
from repro.core.runtime import Runtime
from repro.obs import MetricsRegistry
from repro.server import CascadeServer

# -- pow / pow-tb --------------------------------------------------------
#: 301 nonces (0..300) per episode; 6 leading zero bits gives a few
#: golden nonces per seed to check against hashlib.
POW_TARGET_ZEROS = 6
POW_MAX_NONCE = 300
#: Scales the SHA-256 core's ~1300 virtual-second compile so hardware
#: lands after a short sw-fast phase.
POW_LATENCY_SCALE = 1e-3
#: The sw-fast tick window, in scheduler iterations.  The swap lands
#: after ~66 iterations on any plausible host; hardware at 5541.
POW_FAST_WINDOW = (600, 4600)
#: Iteration at which the fabric delivers; fixed by virtual time.
POW_HW_ITERATION = 5541
#: Clock ticks at $finish on the interpreter: 67 per nonce plus
#: start-up, whatever the data words.  The handover to hardware applies
#: one posedge twice (see ``Outcome.edge_ahead``), so the climbing run
#: finishes one tick earlier; both counts are accepted and the second
#: is reported as ``handover_edge_ahead``.
POW_FINISH_TICKS = 67 * (POW_MAX_NONCE + 1) - 1

#: The testbench variant scans fewer nonces: tier 0 is ~1 ms/iteration.
TB_TARGET_ZEROS = 2
TB_MAX_NONCE = 10
TB_WINDOW = (100, 1300)
TB_FINISH_TICKS = 67 * (TB_MAX_NONCE + 1) - 1
#: ``$time`` is unsynthesizable, so the inlined root subprogram (miner
#: and monitor together) stays on tier 0 for the whole run.
TB_MONITOR = '\nalways @(posedge clk.val) $display("time %0d", $time);\n'

_GOLDEN = re.compile(r"^nonce\s+(\d+) digest ([0-9a-f]{64})$")
_TIME = re.compile(r"^time (\d+)$")

# -- edit-compile --------------------------------------------------------
BANK_REGS = 32
#: Iterations each edit runs before its state is compared.
BANK_ITERATIONS = 101
BANK_FLOW_MAX_LUTS = 10_000

# -- class-server --------------------------------------------------------
NW_LENGTH = 6
NW_POOL = 3
NW_RUN = 16
STUDENTS = 2
#: At least this many requests, so p99 has ten samples beyond it.
MIN_REQUESTS = 1100


class CheckFailed(Exception):
    """An output or a virtual-time figure differs from its reference."""


#: How often a run moves its main thread to the faster CPU.
_REPICK_S = 0.2


def _probe() -> float:
    """Host seconds for a fixed pure-Python kernel, best of two."""
    best = float("inf")
    for _ in range(2):
        t0 = time.perf_counter()
        acc, table = 1, {}
        for i in range(600):
            table[acc & 255] = i
            acc = (acc * 1103515245 + 12345) & 0x7FFFFFFF
        best = min(best, time.perf_counter() - t0)
    return best


def pin_fastest_cpu(cpus: List[int]) -> None:
    """Move the calling thread to whichever of ``cpus`` runs
    :func:`_probe` fastest."""
    timings = []
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        timings.append((_probe(), cpu))
    os.sched_setaffinity(0, {min(timings)[1]})


class FastestCpu:
    """Keeps the main thread on the faster CPU while a run measures.

    On the shared reference host one vCPU at a time runs about 1.5x
    slower for seconds to tens of seconds while other tenants load it,
    and thread CPU time slows by the same factor, so no clock hides it.
    A single-threaded run left on the loaded vCPU would measure the
    neighbours, not the code.  Every ``_REPICK_S`` a ``SIGALRM`` handler
    re-picks the CPU, at well under 1% of the run.  Threads and
    processes the run starts keep the affinity they were created with.
    """

    def __init__(self) -> None:
        self.cpus = sorted(os.sched_getaffinity(0))
        self._previous = None

    def _pick(self, *_args) -> None:
        pin_fastest_cpu(self.cpus)

    def __enter__(self) -> "FastestCpu":
        if len(self.cpus) > 1:
            self._pick()
            self._previous = signal.signal(signal.SIGALRM, self._pick)
            signal.setitimer(signal.ITIMER_REAL, _REPICK_S, _REPICK_S)
        return self

    def __exit__(self, *exc) -> None:
        if self._previous is not None:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, self._previous)
        os.sched_setaffinity(0, self.cpus)


class Outcome:
    """What one workload run measured and checked."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.samples: Dict[str, List[float]] = defaultdict(list)
        #: Values that must repeat exactly, first seen per key.
        self.exact: Dict[str, object] = {}
        #: Values that may drift with host speed; their spread is
        #: reported, never asserted.
        self.drift: Dict[str, List[float]] = defaultdict(list)
        self.registries: List[MetricsRegistry] = []
        self.extra: Dict[str, float] = defaultdict(float)
        self.named: Dict[str, Tuple[float, str]] = {}

    def record(self, name: str, t0: float, t1: float,
               per: float = 1.0) -> None:
        """Host seconds from ``t0`` to ``t1`` divided by ``per``; a
        negative ``per`` records the rate ``-per`` / seconds instead."""
        seconds = t1 - t0
        self.samples[name].append(-per / seconds if per < 0
                                  else seconds / per)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(message)

    def expect_same(self, key: str, value: object) -> None:
        """``value`` must equal the first value seen under ``key``."""
        first = self.exact.setdefault(key, value)
        if first != value:
            raise CheckFailed(f"{key} moved: {value!r} != {first!r}")

    def edge_ahead(self) -> None:
        """Known defect, counted rather than failed: swapping an engine
        onto hardware re-applies the posedge the previous tier had
        already applied, so the fabric runs one clock tick ahead of an
        interpreter-only run from then on (outputs stay correct)."""
        self.extra["handover_edge_ahead"] += 1

    def median(self, name: str) -> float:
        values = self.samples.get(name)
        return statistics.median(values) if values else 0.0


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def warm_lanes() -> None:
    """Start the shared compile lanes (the flow lane forks its worker
    processes on first use)."""
    for queue in (shared_queue(), shared_fast_queue(), shared_flow_queue()):
        queue.submit(int).result()


def start_server(registry: MetricsRegistry) -> CascadeServer:
    # run_between_inputs=2: an eval returns once its code has run two
    # scheduler iterations, so eval latency is time to running code.
    return CascadeServer(address=("127.0.0.1", 0), run_between_inputs=2,
                         service_kwargs={"registry": registry}).start()


def _loop(out: Outcome, seconds: float, op: Callable[[], None],
          begin_op: Optional[Callable[[], int]]) -> None:
    """Run ``op`` until ``seconds`` have passed (at least once)."""
    deadline = time.perf_counter() + seconds
    with FastestCpu():
        while out.attempted == 0 or time.perf_counter() < deadline:
            gc.collect()
            if begin_op is not None:
                begin_op()
            out.attempted += 1
            try:
                op()
            except CheckFailed as exc:
                out.fail(str(exc))
            except Exception as exc:  # the run must report, not die
                out.fail(f"{type(exc).__name__}: {exc}")


# ----------------------------------------------------------------------
# pow and pow-tb
# ----------------------------------------------------------------------
def _pow_inputs(seed: int) -> List[int]:
    rng = random.Random(seed)
    return [rng.getrandbits(32) for _ in range(MESSAGE_WORDS)]


def _golden(words: List[int], target_zeros: int, max_nonce: int
            ) -> List[Tuple[int, str]]:
    """Every golden nonce the miner scans (0..max_nonce), from hashlib."""
    found = []
    for nonce in range(max_nonce + 1):
        digest = reference_digest(nonce, words)
        if int.from_bytes(digest, "big") >> (256 - target_zeros) == 0:
            found.append((nonce, digest.hex()))
    if found:
        _expect(reference_golden_nonce(target_zeros, words) == found[0][0],
                "hashlib references disagree")
    return found


def _check_miner_output(lines: List[str],
                        expected: List[Tuple[int, str]]) -> None:
    shown = [(int(m.group(1)), m.group(2))
             for m in map(_GOLDEN.match, lines) if m]
    _expect(shown == expected,
            f"golden nonces {shown} != hashlib {expected}")
    _expect(lines[-1:] == ["max nonce reached"], "miner did not finish")


def _tier(rt: Runtime) -> str:
    return rt.engine_tiers()["main"]


def _pow_episode(out: Outcome, src: str, expected, registry) -> None:
    rt = Runtime(compile_service=CompileService(
        latency_scale=POW_LATENCY_SCALE, registry=registry))
    t0 = time.perf_counter()
    rt.eval_source(src)
    t_admit = time.perf_counter()
    rt.run(iterations=2)
    t_running = time.perf_counter()

    # Runtime.sw_migrations is shared by every Runtime on a registry;
    # the tier is read from this runtime's engines instead.
    while _tier(rt) == "interpreted" and rt.iterations < POW_FAST_WINDOW[0]:
        rt.run(iterations=2)
    t_swap = time.perf_counter()
    _expect(_tier(rt) == "sw-fast", "no sw-fast swap before the window")
    rt.run(iterations=POW_FAST_WINDOW[0] - rt.iterations)
    t_fast = time.perf_counter()
    rt.run(iterations=POW_FAST_WINDOW[1] - POW_FAST_WINDOW[0])
    t_fast_end = time.perf_counter()
    _expect(_tier(rt) == "sw-fast", "left sw-fast inside the window")

    rt.run(iterations=POW_HW_ITERATION - 5 - rt.iterations)
    while _tier(rt) != "hardware" and rt.iterations < POW_HW_ITERATION:
        rt.run(iterations=1)
    _expect(_tier(rt) == "hardware",
            f"hardware not in by iteration {rt.iterations}")
    out.expect_same("pow.hw_iteration", rt.iterations)
    # Virtual ns is exact up to open-loop entry; after it the batch
    # sizes follow host speed (Runtime._oloop_exec_cap).
    out.expect_same("pow.oloop_entry_ns", rt.time_model.now_ns)
    t_ol, ticks_ol = time.perf_counter(), rt.virtual_clock_ticks
    rt.run(until_finish=True, virtual_seconds=3600.0)
    t_end = time.perf_counter()
    _expect(rt.finished is not None, "no $finish")
    _expect(rt.virtual_clock_ticks in (POW_FINISH_TICKS,
                                       POW_FINISH_TICKS - 1),
            f"finished at tick {rt.virtual_clock_ticks}, "
            f"expected {POW_FINISH_TICKS}")
    out.expect_same("pow.finish_ticks", rt.virtual_clock_ticks)
    if rt.virtual_clock_ticks != POW_FINISH_TICKS:
        out.edge_ahead()
    _check_miner_output(rt.output_lines, expected)
    out.drift["pow.finish_ns"].append(rt.time_model.now_ns)

    out.record("answer_s", t0, time.perf_counter())
    out.record("ttrc_s", t0, t_running)
    out.record("tick_us", t_fast, t_fast_end,
               ((POW_FAST_WINDOW[1] - POW_FAST_WINDOW[0]) // 2) * 1e-6)
    out.record("swap_s", t_admit, t_swap)
    out.record("oloop_ticks_per_s", t_ol, t_end,
               -(rt.virtual_clock_ticks - ticks_ol))


def _tb_episode(out: Outcome, src: str, expected, registry) -> None:
    rt = Runtime(compile_service=CompileService(
        latency_scale=POW_LATENCY_SCALE, registry=registry))
    t0 = time.perf_counter()
    rt.eval_source(src)
    rt.run(iterations=2)
    t_running = time.perf_counter()
    rt.run(iterations=TB_WINDOW[0] - rt.iterations)
    t_window = time.perf_counter()
    rt.run(iterations=TB_WINDOW[1] - TB_WINDOW[0])
    t_window_end = time.perf_counter()
    _expect(_tier(rt) == "interpreted", "testbench left tier 0")
    rt.run(until_finish=True, virtual_seconds=3600.0)
    _expect(rt.finished is not None, "no $finish")
    _expect(_tier(rt) == "interpreted", "testbench left tier 0")
    _expect(rt.virtual_clock_ticks == TB_FINISH_TICKS,
            f"finished at tick {rt.virtual_clock_ticks}, "
            f"expected {TB_FINISH_TICKS}")
    lines = rt.output_lines
    times = [int(m.group(1)) for m in map(_TIME.match, lines) if m]
    # One monitor line per posedge, one time unit apart.
    _expect(times == list(range(times[0], times[0] + len(times)))
            and len(times) >= TB_FINISH_TICKS - 1,
            "monitor $time lines are not one per tick")
    _check_miner_output([line for line in lines if not _TIME.match(line)],
                        expected)
    out.expect_same("pow-tb.finish_ns", rt.time_model.now_ns)
    out.record("answer_s", t0, time.perf_counter())
    out.record("ttrc_s", t0, t_running)
    out.record("tick_us", t_window, t_window_end,
               ((TB_WINDOW[1] - TB_WINDOW[0]) // 2) * 1e-6)


def run_pow(out: Outcome, seed: int, seconds: float, begin_op,
            testbench: bool) -> None:
    words = _pow_inputs(seed)
    registry = MetricsRegistry()
    out.registries.append(registry)
    if testbench:
        src = pow_program(TB_TARGET_ZEROS, words, TB_MAX_NONCE) + TB_MONITOR
        expected = _golden(words, TB_TARGET_ZEROS, TB_MAX_NONCE)
        _loop(out, seconds,
              lambda: _tb_episode(out, src, expected, registry), begin_op)
        out.named["interp_tick_us"] = (out.median("tick_us"), "us")
    else:
        src = pow_program(POW_TARGET_ZEROS, words, POW_MAX_NONCE)
        expected = _golden(words, POW_TARGET_ZEROS, POW_MAX_NONCE)
        _loop(out, seconds,
              lambda: _pow_episode(out, src, expected, registry),
              begin_op)
        out.named["swap_s"] = (out.median("swap_s"), "s")
        out.named["fast_tick_us"] = (out.median("tick_us"), "us")
        out.named["oloop_ticks_per_s"] = (
            out.median("oloop_ticks_per_s"), "1/s")
        out.named["handover_edge_ahead"] = (
            out.extra["handover_edge_ahead"], "count")


# ----------------------------------------------------------------------
# edit-compile
# ----------------------------------------------------------------------
def _bank(prefix: str, shift: int, inits: List[int]) -> str:
    """A register bank that closes timing at 50 MHz: each register
    folds in a neighbour ``shift`` places on."""
    lines = []
    for i in range(BANK_REGS):
        lines.append(f"reg [7:0] {prefix}{i} = {inits[i]};")
        lines.append(f"always @(posedge clk.val) {prefix}{i} <= "
                     f"{prefix}{i} ^ ({prefix}{(i + shift) % BANK_REGS}"
                     f" >> 1);")
    lines.append(f"assign led.val = {prefix}0 ^ {prefix}1;")
    return "\n".join(lines)


def _edit_cycle(seed: int, cycle: int) -> List[Tuple[str, str]]:
    """One cycle of the seeded edit sequence, in fixed proportions:
    a structural edit (new registers and wiring: cold placement), two
    new-constant edits (same netlist shape: warm-started placement) and
    two reverts to earlier versions (bitstream cache hits)."""
    rng = random.Random(f"{seed}:{cycle}")
    prefix = f"r{cycle}_"
    # Short neighbour distances only: shifts 28 and 29 miss 50 MHz.
    shift = rng.randrange(1, 9)

    def inits() -> List[int]:
        return [rng.getrandbits(8) for _ in range(BANK_REGS)]
    base = _bank(prefix, shift, inits())
    first = _bank(prefix, shift, inits())
    second = _bank(prefix, shift, inits())
    return [("cold", base), ("warm", first), ("warm", second),
            ("hit", base), ("hit", first)]


def _state(rt: Runtime) -> Dict[str, int]:
    return {name: value.to_int_xz(0)
            for name, value in rt.engines["main"].get_state().items()}


def _edit(out: Outcome, service: CompileService, kind: str,
          src: str) -> None:
    # The reference first: the same source on an interpreter-only
    # runtime, timed before the JIT runtime's background work starts.
    ref = Runtime(enable_jit=False)
    t_ref = time.perf_counter()
    ref.eval_source(src)
    ref.run(iterations=2)
    t_ref_running = time.perf_counter()
    ref.run(iterations=BANK_ITERATIONS - ref.iterations)

    rt = Runtime(compile_service=service, enable_open_loop=False)
    t0 = time.perf_counter()
    rt.eval_source(src)
    rt.run(iterations=1)
    while _tier(rt) != "hardware" and rt.iterations < 8:
        rt.run(iterations=1)
    t_hw = time.perf_counter()
    _expect(_tier(rt) == "hardware",
            f"{kind} edit never reached hardware: "
            f"{rt.unsynthesizable.get('main', '')}")
    # latency_scale=0: the bitstream is due at admission, so it must be
    # swapped in at the first window whatever the host speed.
    out.expect_same("edit.hw_iteration", rt.iterations)
    start_ticks = rt.virtual_clock_ticks
    t_window = time.perf_counter()
    rt.run(iterations=BANK_ITERATIONS - rt.iterations)
    t_window_end = time.perf_counter()
    _expect(rt.iterations == ref.iterations == BANK_ITERATIONS,
            "tick counts differ")
    _expect(_tier(rt) == "hardware", f"{kind} edit left hardware")
    seen = (_state(rt), rt.board.leds.value)
    if seen != (_state(ref), ref.board.leds.value):
        ref.run(iterations=2)  # one tick on: the handover defect
        _expect(seen == (_state(ref), ref.board.leds.value),
                f"{kind} edit: hardware registers or LEDs differ from "
                f"the interpreter")
        out.edge_ahead()
    out.record(kind + "_compile_s", t0, t_hw)
    out.record("tick_us", t_window, t_window_end,
               (rt.virtual_clock_ticks - start_ticks) * 1e-6)
    out.record("ttrc_s", t_ref, t_ref_running)


def run_edit_compile(out: Outcome, seed: int, seconds: float,
                     begin_op) -> None:
    registry = MetricsRegistry()
    out.registries.append(registry)
    kinds: Dict[str, int] = defaultdict(int)
    cycle = [0]

    def one_cycle() -> None:
        # A fresh service, so fresh caches, per cycle: every cycle
        # starts cold, and memory does not grow with how many cycles
        # fit in a run.
        service = CompileService(latency_scale=0.0,
                                 full_flow_max_luts=BANK_FLOW_MAX_LUTS,
                                 registry=registry)
        edits = _edit_cycle(seed, cycle[0])
        cycle[0] += 1
        t0 = time.perf_counter()
        for kind, src in edits:
            kinds[kind] += 1
            _edit(out, service, kind, src)
        out.record("answer_s", t0, time.perf_counter())

    _loop(out, seconds, one_cycle, begin_op)
    # Each edit kind must have taken its intended path.
    if registry.value("compile.warm_starts") != kinds["warm"]:
        out.fail(f"{registry.value('compile.warm_starts')} warm starts "
                 f"for {kinds['warm']} constant edits")
    if registry.value("compile.cache_hits") != kinds["hit"]:
        out.fail(f"{registry.value('compile.cache_hits')} cache hits "
                 f"for {kinds['hit']} reverts")
    for kind in ("cold", "warm", "hit"):
        out.named[kind + "_compile_s"] = (
            out.median(kind + "_compile_s"), "s")
    out.named["handover_edge_ahead"] = (
        out.extra["handover_edge_ahead"], "count")


# ----------------------------------------------------------------------
# class-server
# ----------------------------------------------------------------------
def _dna_pool(seed: int) -> List[Tuple[str, str]]:
    rng = random.Random(seed)
    return [(random_dna(NW_LENGTH, rng.getrandbits(32)),
             random_dna(NW_LENGTH, rng.getrandbits(32)))
            for _ in range(NW_POOL)]


def run_class_server(out: Outcome, seed: int, seconds: float, begin_op,
                     server: CascadeServer,
                     registry: MetricsRegistry) -> None:
    out.registries.extend([registry, server.metrics])
    pool = _dna_pool(seed)
    scores = {pair: nw_score(*pair) for pair in pool}
    requests = [0]
    lock = threading.Lock()
    deadline = time.perf_counter() + seconds

    def session(a: str, b: str) -> None:
        runs = []
        with connect(server.address) as client:
            t0 = time.perf_counter()
            errors = client.eval(nw_program(a, b), timeout=60)
            t_running = time.perf_counter()
            _expect(errors == [], f"eval failed: {errors}")
            score = None
            while score is None:
                _expect(len(runs) < 64, "no score after 64 :run requests")
                t = time.perf_counter()
                client.command(f":run {NW_RUN}", timeout=60)
                runs.append((t, time.perf_counter()))
                for line in client.drain_output():
                    if line.startswith("score "):
                        score = int(line.split()[1])
            t_answer = time.perf_counter()
        with lock:
            requests[0] += 1 + len(runs)
            for start, end in [(t0, t_running)] + runs:
                out.record("request_s", start, end)
            for start, end in runs:
                out.record("run_s", start, end)
            out.record("ttrc_s", t0, t_running)
            out.record("answer_s", t0, t_answer)
        _expect(score == scores[(a, b)],
                f"score {score} != nw_score {scores[(a, b)]} for {a}/{b}")
        # Iterations to the score are fixed by the sequence lengths.
        out.expect_same("class-server.runs_per_session", len(runs))

    def student(index: int) -> None:
        rng = random.Random(f"{seed}:{index}")
        while True:
            with lock:
                if time.perf_counter() >= deadline \
                        and requests[0] >= MIN_REQUESTS:
                    return
                if begin_op is not None:
                    begin_op()
                out.attempted += 1
            a, b = pool[rng.randrange(len(pool))]
            try:
                session(a, b)
            except CheckFailed as exc:
                with lock:
                    out.fail(str(exc))
            except Exception as exc:  # the run must report, not die
                with lock:
                    out.fail(f"{type(exc).__name__}: {exc}")

    threads = [threading.Thread(target=student, args=(i,),
                                name=f"student-{i}")
               for i in range(STUDENTS)]
    # The load is spread over several threads, so nothing is pinned.
    t0 = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=170)
    out.record("req_per_s", t0, time.perf_counter(), -requests[0])
    if any(thread.is_alive() for thread in threads):
        out.fail("student thread did not finish")
    stats = server.stats()
    server.shutdown(drain=False, timeout=10.0)

    ordered = sorted(out.samples["request_s"])
    if ordered:
        out.named["req_p50_s"] = (statistics.median(ordered), "s")
        out.named["req_p99_s"] = (
            ordered[min(len(ordered) - 1, int(0.99 * len(ordered)))], "s")
        out.named["req_per_s"] = (out.samples["req_per_s"][0], "1/s")
        out.named["requests"] = (float(len(ordered)), "count")
    # Served cost of one virtual tick through the whole server path, as
    # a mean: a session's first :run requests are interpreted and the
    # rest sw-fast, so per-request values are bimodal.
    if out.samples["run_s"]:
        out.samples["tick_us"] = [
            statistics.fmean(out.samples["run_s"]) * 1e6 / (NW_RUN // 2)]
    out.extra["client_latency_s"] = sum(out.samples["request_s"])
    out.extra["dropped_outputs"] = float(stats["dropped_outputs"])


def run_workload(name: str, seed: int, seconds: float,
                 begin_op=None, server: Optional[CascadeServer] = None,
                 registry: Optional[MetricsRegistry] = None) -> Outcome:
    out = Outcome()
    if name in ("pow", "pow-tb"):
        run_pow(out, seed, seconds, begin_op, name == "pow-tb")
    elif name == "edit-compile":
        run_edit_compile(out, seed, seconds, begin_op)
    else:
        run_class_server(out, seed, seconds, begin_op, server, registry)
    # Let background compiles finish before anyone reads a registry.
    shutdown_shared_pools(wait=True)
    return out
