"""Measurement harnesses behind the paper's figures.

Each ``measure_*`` function drives the real system (runtime, engines,
JIT, data plane) to obtain the *rates* of each execution regime, takes
compile latencies from the compile service, and assembles the
Figure 11/12-style time series.  Rates are measured, latencies are
modeled (DESIGN.md §4) — 900 virtual seconds of open-loop execution are
not literally executed tick by tick, exactly as the wall clock of the
paper's testbed is not re-run here.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..backend.compiler import CompileService, CompilerModel
from ..core.runtime import Runtime
from ..perf.timemodel import TimeModel

__all__ = ["RegimeRates", "measure_pow_timeline", "measure_regex_timeline",
           "piecewise_series"]


class RegimeRates:
    """Rates and breakpoints for one benchmark timeline."""

    def __init__(self, **kwargs):
        self.__dict__.update(kwargs)

    def as_dict(self) -> Dict[str, float]:
        return dict(self.__dict__)


def _measure_rate(runtime: Runtime, iterations: int) -> float:
    """Virtual-clock Hz over the next ``iterations`` scheduler
    iterations."""
    t0 = runtime.time_model.now_seconds
    c0 = runtime.virtual_clock_ticks
    runtime.run(iterations=iterations)
    dt = runtime.time_model.now_seconds - t0
    return (runtime.virtual_clock_ticks - c0) / dt if dt > 0 else 0.0


def measure_pow_timeline(target_zeros: int = 12,
                         horizon_s: float = 900.0,
                         sim_iterations: int = 600,
                         hw_iterations: int = 400_000) -> RegimeRates:
    """Figure 11: proof-of-work virtual clock rate vs time for
    iVerilog (interpreter, no JIT), Quartus (compile then native) and
    Cascade (JIT)."""
    from ..apps.pow import pow_program

    program = pow_program(target_zeros=target_zeros, quiet=True)

    # --- Cascade arm -------------------------------------------------
    # The software fast path is pinned off so the sim-phase series
    # keeps the paper's interpreter-vs-iVerilog meaning (and stays
    # independent of when the fast swap lands on the host).  The
    # compiled software tier is measured by perfbench's pow workload.
    rt = Runtime(compile_service=CompileService(),
                 enable_sw_fastpath=False)
    rt.eval_source(program)
    rt.run(iterations=2)  # code is running: startup latency
    startup_s = rt.time_model.now_seconds
    sim_hz = _measure_rate(rt, sim_iterations)
    job = rt.compiler.jobs[0]
    compile_s = job.duration_s
    # Skip the remaining compile latency (virtual), then migrate.
    remaining = max(job.ready_at_s - rt.time_model.now_seconds, 0.0)
    rt.time_model.charge_ns(remaining * 1e9)
    rt.run(iterations=64)   # window polls the JIT, swaps, forwards
    assert rt.user_engine_location() == "hardware", \
        rt.unsynthesizable or "migration did not happen"
    hw_hz = _measure_rate(rt, hw_iterations)

    # Spatial overhead: instrumented vs direct compilation.
    base = rt.compiler.estimate(job.design, instrumented=False)
    inst = job.resources
    spatial_overhead = inst["luts"] / max(base["luts"], 1)

    # --- Quartus arm --------------------------------------------------
    native_hz = rt.time_model.fabric_mhz * 1e6
    quartus_compile_s = CompilerModel.duration_s(base["luts"])

    # --- iVerilog arm ---------------------------------------------------
    # An interpreted simulator without Cascade's module inlining or
    # lazy-evaluation savings: module-granularity subprograms, JIT off.
    ivl = Runtime(enable_jit=False, inline_user_logic=False)
    ivl.eval_source(program)
    ivl.run(iterations=2)
    iverilog_hz = _measure_rate(ivl, max(sim_iterations // 2, 100))

    return RegimeRates(
        startup_s=startup_s,
        cascade_sim_hz=sim_hz,
        cascade_hw_hz=hw_hz,
        cascade_compile_s=compile_s,
        iverilog_hz=iverilog_hz,
        native_hz=native_hz,
        quartus_compile_s=quartus_compile_s,
        spatial_overhead=spatial_overhead,
        horizon_s=horizon_s,
        luts_base=base["luts"],
        luts_instrumented=inst["luts"],
    )


def measure_regex_timeline(pattern: str = "GET (/[a-z0-9]*)+ HTTP",
                           horizon_s: float = 900.0,
                           transport_bytes_per_sec: float = 555_000.0,
                           stream_len: int = 1 << 16,
                           seed: int = 7) -> RegimeRates:
    """Figure 12: streaming regex IO/s for Cascade vs Quartus.

    The Quartus implementation's sustained rate is the MMIO transport
    bound (the paper's 560 KIO/s); Cascade's hardware rate is the same
    transport driven through the forwarded standard-library FIFO, and
    its software rate is whatever the interpreter sustains.
    """
    import random

    from ..apps.regex import regex_program

    rng = random.Random(seed)
    corpus = bytes(rng.choice(b"abcdefghijklmnop /GETHTP0123456789")
                   for _ in range(stream_len))

    text, dfa = regex_program(pattern)

    def io_rate(runtime: Runtime, min_bytes: int,
                max_rounds: int = 4000) -> float:
        fifo = runtime.board.fifo("input_fifo")
        fifo.attach_source(corpus, transport_bytes_per_sec)
        fifo._last_refill_s = runtime.time_model.now_seconds \
            if runtime.engines else 0.0
        start_s = runtime.time_model.now_seconds
        start_popped = fifo.popped
        rounds = 0
        while fifo.popped - start_popped < min_bytes \
                and rounds < max_rounds:
            runtime.run(iterations=400)
            rounds += 1
            if fifo.source_exhausted and fifo.empty:
                break
        dt = runtime.time_model.now_seconds - start_s
        return (fifo.popped - start_popped) / dt if dt > 0 else 0.0

    # --- Cascade: software phase ----------------------------------------
    sw = Runtime(enable_jit=False)
    sw.eval_source(text)
    sw.run(iterations=2)
    startup_s = sw.time_model.now_seconds
    # In the software regime the FIFO clock only ticks at the virtual
    # clock rate, so a few hundred bytes suffice for a rate estimate.
    sim_io_s = io_rate(sw, min_bytes=120, max_rounds=40)

    # --- Cascade: hardware phase -----------------------------------------
    hw = Runtime(compile_service=CompileService(latency_scale=0.0))
    hw.eval_source(text)
    hw.run(iterations=64)
    assert hw.user_engine_location() == "hardware"
    hw_io_s = io_rate(hw, min_bytes=30_000)

    # Compile latency for the timeline (with instrumentation).
    jit = Runtime(compile_service=CompileService())
    jit.eval_source(text)
    jit.run(iterations=2)
    job = jit.compiler.jobs[0]
    base = jit.compiler.estimate(job.design, instrumented=False)
    spatial_overhead = job.resources["luts"] / max(base["luts"], 1)
    quartus_compile_s = CompilerModel.duration_s(base["luts"])

    return RegimeRates(
        startup_s=startup_s,
        cascade_sim_io_s=sim_io_s,
        cascade_hw_io_s=hw_io_s,
        cascade_compile_s=job.duration_s,
        quartus_io_s=transport_bytes_per_sec,
        quartus_compile_s=quartus_compile_s,
        spatial_overhead=spatial_overhead,
        horizon_s=horizon_s,
        dfa_states=dfa.n_states,
        luts_base=base["luts"],
        luts_instrumented=job.resources["luts"],
    )


def piecewise_series(breaks: List[Tuple[float, float]],
                     horizon_s: float,
                     points: int = 64) -> List[Tuple[float, float]]:
    """Expand [(start_time, rate), ...] into a sampled series."""
    out = []
    for i in range(points + 1):
        t = horizon_s * i / points
        rate = 0.0
        for start, r in breaks:
            if t >= start:
                rate = r
        out.append((t, rate))
    return out
