"""The repository benchmark: one command, four workloads.

    python3 perfbench/run.py --workload pow --seed 1 --seconds 25 --trace 0

Workloads: ``pow``, ``pow-tb``, ``edit-compile``, ``class-server`` (see
``perfbench/README.md`` for why each exists and what it stresses).
With ``--trace 0`` the run measures the end-to-end metrics with no
instrumentation.  With ``--trace 1`` it runs the workload untraced for
half the time, then traced for the other half, and reports the
per-layer metrics, each tagged with the end-to-end metric it should
move, plus the tracing overhead and a cross-check against the program's
own metrics registry.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Everything else
printed before it (and written under ``.perfbench_out/``) is the
human-readable report: the host and configuration, the named metrics,
the exactness checks and the per-layer table.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

#: A set cache directory turns cold compiles into disk hits, and a set
#: trace switch puts tracing into untraced runs: refuse both.
_REFUSED_ENV = ("CASCADE_CACHE_DIR", "CASCADE_TRACE")
#: Set-ups per run; ``setup_s`` reports their median.
_SETUPS = 5

#: One set-up in a fresh interpreter: import the program, warm the
#: shared lanes, start (and stop) the server.  Prints its seconds.
_SETUP_PROBE = """
import sys, time
t0 = time.perf_counter()
sys.path[:0] = sys.argv[1:3]
import workloads
from repro.obs import MetricsRegistry
workloads.warm_lanes()
if sys.argv[3] == "class-server":
    server = workloads.start_server(MetricsRegistry())
print(time.perf_counter() - t0)
if sys.argv[3] == "class-server":
    server.shutdown(drain=False, timeout=10.0)
from repro.backend.compilequeue import shutdown_shared_pools
shutdown_shared_pools(wait=True)
"""


def _host() -> dict:
    from repro.backend.compilequeue import default_place_starts, \
        shared_flow_queue
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    lane = shared_flow_queue().stats()
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cpu": cpu,
        "platform": platform.platform(),
        "flow_lane": ("thread (degraded)" if lane["degraded"]
                      else lane["kind"]) + f" x{lane['workers']}",
        "place_starts": default_place_starts(),
        "cascade_env": {k: v for k, v in sorted(os.environ.items())
                        if k.startswith("CASCADE_")},
    }


def _setup_s(workloads, name: str) -> float:
    """Median of ``_SETUPS`` set-ups, each in a fresh interpreter so
    imports are paid every time, started from the faster CPU."""
    here = os.path.dirname(os.path.abspath(__file__))
    cpus = sorted(os.sched_getaffinity(0))
    times = []
    try:
        for _ in range(_SETUPS):
            workloads.pin_fastest_cpu(cpus)
            run = subprocess.run(
                [sys.executable, "-c", _SETUP_PROBE, here,
                 os.path.join(ROOT, "src"), name],
                capture_output=True, text=True, timeout=60, check=True)
            times.append(float(run.stdout.split()[0]))
    finally:
        os.sched_setaffinity(0, cpus)
    return statistics.median(times)


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _print_outcome(name: str, out, label: str) -> None:
    print(f"[{label}] {name}: {out.attempted} operations, "
          f"{out.failed} failed")
    for message in out.errors:
        print(f"  FAILED: {message}")
    for key, (value, unit) in sorted(out.named.items()):
        print(f"  {key:<22} {value:14.6f} {unit}")
    for key, value in sorted(out.exact.items()):
        print(f"  exact {key} = {value}")
    for key, values in sorted(out.drift.items()):
        print(f"  drift {key}: min {min(values)} max {max(values)} "
              f"(spread {max(values) - min(values)})")


def _end_to_end(workloads, args, out, report: dict) -> dict:
    """The gated metrics of an untraced run (``BENCHMARK.json``)."""
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": _metric(_setup_s(workloads, args.workload), "s"),
        "answer_s": _metric(out.median("answer_s"), "s"),
        "tick_us": _metric(out.median("tick_us"), "us"),
        "peak_rss_mb": _metric(rss_mb, "MB"),
    }
    fail_ratio = out.failed / max(out.attempted, 1)
    report["named"] = dict(out.named, ttrc_s=(out.median("ttrc_s"), "s"),
                           fail_ratio=(fail_ratio, "ratio"))
    report["samples"] = out.samples
    for key, (value, unit) in sorted(report["named"].items()):
        print(f"named {key} = {value:.6g} {unit}")
    return metrics


def _per_layer(workloads, args, out, seconds: float, report: dict,
               stem: str):
    """Run the traced half; returns its outcome and the per-layer
    metrics, and fails it when the registry cross-check disagrees."""
    import tracing
    from repro.obs import MetricsRegistry, merge_registries
    workloads.warm_lanes()
    rec = tracing.Recorder()
    registry = MetricsRegistry()
    server = workloads.start_server(registry) \
        if args.workload == "class-server" else None
    tracing.install(rec)
    try:
        traced = workloads.run_workload(args.workload, args.seed, seconds,
                                        rec.begin_op, server=server,
                                        registry=registry)
    finally:
        rec.uninstall()
    _print_outcome(args.workload, traced, "traced")
    merged = merge_registries(*traced.registries)
    extra = dict(traced.extra)
    base = out.median("answer_s")
    extra["trace_overhead"] = traced.median("answer_s") / base \
        if base else 0.0
    values = tracing.layer_metrics(rec, traced.attempted, merged, extra)
    print("per-layer (traced half; per operation unless a ratio)")
    for name, unit, _, moves in tracing.LAYER_METRICS:
        print(f"  {name:<30} {values[name]:14.6f} {unit:<9} -> {moves}")
    print("self time by span (s, traced half)")
    for span in sorted(rec.calls):
        print(f"  {span:<26} calls {rec.calls[span]:>9} "
              f"total {rec.total_s[span]:10.4f} "
              f"self {rec.self_s[span]:10.4f}")
    checks = tracing.cross_check(rec, merged)
    print("registry cross-check")
    for check, ok, detail in checks:
        print(f"  {'ok  ' if ok else 'FAIL'} {check}: {detail}")
    if not all(ok for _, ok, _ in checks):
        traced.failed += 1
    report["layers"] = values
    report["checks"] = checks
    report["spans_dropped"] = rec.dropped
    rec.dump(stem + "-spans.jsonl")
    metrics = {name: _metric(values[name], unit)
               for name, unit, _, _ in tracing.LAYER_METRICS}
    return traced, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("pow", "pow-tb", "edit-compile",
                                 "class-server"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    refused = [k for k in _REFUSED_ENV if os.environ.get(k)]
    if refused:
        print(f"perfbench: refusing to run with {', '.join(refused)} set",
              file=sys.stderr)
        return 2
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"perfbench: no program sources under {src}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import workloads
    from repro.backend.compilequeue import shutdown_shared_pools
    from repro.obs import MetricsRegistry

    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-{args.seed}-"
                        f"trace{args.trace}")
    try:
        workloads.warm_lanes()
        registry = MetricsRegistry()
        server = workloads.start_server(registry) \
            if args.workload == "class-server" else None
        host = _host()
        print("host: " + json.dumps(host, sort_keys=True))
        report = {"host": host, "workload": args.workload,
                  "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace}
        seconds = args.seconds / 2 if args.trace else args.seconds
        out = workloads.run_workload(args.workload, args.seed, seconds,
                                     server=server, registry=registry)
        _print_outcome(args.workload, out, "untraced")
        attempted, failed = out.attempted, out.failed
        if args.trace:
            traced, metrics = _per_layer(workloads, args, out, seconds,
                                         report, stem)
            attempted += traced.attempted
            failed += traced.failed
        else:
            metrics = _end_to_end(workloads, args, out, report)
    finally:
        shutdown_shared_pools(wait=True)

    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    report["result"] = result
    with open(stem + ".json", "w", encoding="utf-8") as f:
        json.dump(report, f, indent=2, sort_keys=True, default=str)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
