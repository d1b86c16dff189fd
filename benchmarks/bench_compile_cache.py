"""Bitstream-cache benchmark — cold vs warm host-side compile time.

The asynchronous compile service memoizes toolchain output in a
content-addressed cache (DESIGN.md §4): the first compile of a
subprogram pays full codegen cost on the worker pool, a recompile of
the identical source is a cache hit that skips synthesis entirely.
This benchmark measures that host-side gap for the paper's two
streaming applications (pow, regex) and emits a JSON summary
(``bench_compile_cache.json``, or the path in the
``CASCADE_BENCH_JSON`` environment variable).
"""

import json
import os
import time

import pytest

from repro.apps.pow import pow_program
from repro.apps.regex import regex_program
from repro.backend.compilequeue import CompileQueue
from repro.backend.compiler import CompileService
from repro.ir.build import Subprogram
from repro.core.runtime import Runtime
from repro.study.corpus import flow_variant, generate_corpus
from repro.verilog.parser import parse_module

pytestmark = pytest.mark.benchmark(group="compile_cache")


def _user_subprogram(source: str):
    """Build the program's (inlined) user subprogram + design."""
    rt = Runtime(compile_service=CompileService(latency_scale=0.0),
                 enable_jit=False)
    rt.eval_source(source)
    rt.run(iterations=2)
    sub = rt.program.user_subprograms()[0]
    return sub, rt.engines[sub.name].design


def _measure(source: str):
    sub, design = _user_subprogram(source)
    service = CompileService()
    t0 = time.perf_counter()
    job_cold = service.submit(sub, now_s=0.0, design=design)
    _ = job_cold.resources  # wait for the background worker
    cold_s = time.perf_counter() - t0
    t1 = time.perf_counter()
    job_warm = service.submit(sub, now_s=0.0, design=design)
    _ = job_warm.resources
    warm_s = time.perf_counter() - t1
    assert job_warm.cache_hit
    assert service.metrics.value("compile.cache_hits") == 1
    return {
        "cold_host_s": cold_s,
        "warm_host_s": warm_s,
        "speedup": cold_s / warm_s if warm_s > 0 else float("inf"),
        "virtual_cold_s": job_cold.duration_s,
        "virtual_warm_s": job_warm.duration_s,
        "luts": job_cold.resources["luts"],
    }


def _foreground_hz(runtime, window_s: float) -> float:
    iterations = 0
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < window_s:
        runtime.run(iterations=64)
        iterations += 64
    return iterations / (time.perf_counter() - t0)


def _measure_interference(window_s: float = 0.5):
    """Concurrent interference: foreground simulation throughput while
    a heavyweight compile is in flight, with the flow on the *thread*
    lane (sharing the interpreter's GIL) vs the *process* lane.  The
    numbers are host-dependent (on one core both lanes timeslice, on
    many cores the process lane should leave the foreground flat), so
    they are reported in the JSON but not asserted."""
    runtime = Runtime(compile_service=CompileService(latency_scale=0.0),
                      enable_jit=False)
    runtime.eval_source(pow_program(target_zeros=12, quiet=True))
    runtime.run(iterations=64)  # settle
    solo_hz = _foreground_hz(runtime, window_s)

    # The in-flight work: a mid-size study-corpus design pushed through
    # the real flow (big enough to outlast the measurement window).
    corpus = generate_corpus()
    solution = min(corpus, key=lambda s: len(flow_variant(s)))
    module = parse_module(flow_variant(solution))
    sub = Subprogram("intf", module, False, module.name, {})

    out = {"solo_hz": solo_hz, "window_s": window_s}
    for kind in ("thread", "process"):
        lane = CompileQueue(max_workers=1, kind=kind,
                            name=f"bench-intf-{kind}")
        service = CompileService(full_flow_max_luts=10_000,
                                 queue=CompileQueue(max_workers=1),
                                 flow_queue=lane, place_starts=1)
        try:
            job = service.submit(sub, now_s=0.0)
            hz = _foreground_hz(runtime, window_s)
            out[f"{kind}_finished_early"] = job.host_done
            _ = job.resources  # drain the worker
        finally:
            lane.shutdown(wait=False)
        out[f"{kind}_hz"] = hz
        out[f"{kind}_slowdown"] = solo_hz / hz if hz > 0 else 0.0
    return out


def _emit(results: dict) -> str:
    path = os.environ.get("CASCADE_BENCH_JSON",
                          "bench_compile_cache.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump(results, f, indent=2, sort_keys=True)
    return path


@pytest.fixture(scope="module")
def cache_results():
    return {
        "pow": _measure(pow_program(target_zeros=12, quiet=True)),
        "regex": _measure(regex_program("ab(c|d)+e")[0]),
        "interference": _measure_interference(),
    }


def test_compile_cache_speedup(cache_results, benchmark):
    results = benchmark.pedantic(lambda: cache_results,
                                 rounds=1, iterations=1)
    path = _emit(results)
    intf = results["interference"]
    apps = {k: v for k, v in results.items() if k != "interference"}
    print(f"\ncold vs warm host compile time (JSON -> {path})")
    for name, r in apps.items():
        print(f"  {name:6s} cold={r['cold_host_s'] * 1e3:8.1f}ms "
              f"warm={r['warm_host_s'] * 1e3:8.1f}ms "
              f"speedup={r['speedup']:6.1f}x "
              f"(virtual {r['virtual_cold_s']:.0f}s -> "
              f"{r['virtual_warm_s']:.0f}s)")
    print(f"  interference: solo {intf['solo_hz']:.0f} it/s, "
          f"thread lane {intf['thread_slowdown']:.2f}x slowdown, "
          f"process lane {intf['process_slowdown']:.2f}x slowdown")
    for name, r in apps.items():
        # A warm compile must skip the real work entirely.
        assert r["warm_host_s"] < r["cold_host_s"] / 2, name
        # And the virtual latency collapses to the reprogramming cost.
        assert r["virtual_warm_s"] < r["virtual_cold_s"] / 10, name


if __name__ == "__main__":
    out = {"pow": _measure(pow_program(target_zeros=12, quiet=True)),
           "regex": _measure(regex_program("ab(c|d)+e")[0]),
           "interference": _measure_interference()}
    print(json.dumps(out, indent=2, sort_keys=True))
    _emit(out)
