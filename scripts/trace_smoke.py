#!/usr/bin/env python
"""Traced smoke session: the CI gate for the observability layer.

Runs a short REPL session with tracing on — a counter program that
compiles through the real flow and migrates to hardware, then a
transient statement whose post-transient rebuild resubmits identical
source (a cache hit) — and checks that:

* the JSONL dump validates against the trace-event schema;
* every required event kind appeared
  (:data:`repro.obs.REQUIRED_EVENT_KINDS`);
* the Chrome export parses and carries its thread-name metadata;
* virtual time is bit-identical to the same session with tracing off;
* every compile, cache and migration count that ``:time`` and
  ``:stats`` print equals the value in ``Runtime.metrics_snapshot()``.

Exit status is non-zero on any failure, so CI fails loudly.

Usage::

    PYTHONPATH=src python scripts/trace_smoke.py [outdir]
"""

import json
import re
import sys
import tempfile
from pathlib import Path

from repro.backend.compilequeue import CompileQueue
from repro.backend.compiler import CompileService
from repro.core.repl import Repl
from repro.core.runtime import Runtime
from repro.obs import REQUIRED_EVENT_KINDS, tracer, validate_jsonl

SRC = """
wire clk;
Clock c(clk);
reg [7:0] n = 0;
always @(posedge clk) begin
  n <= n + 1;
  if (n == 5) $display("n=%d", n);
end
"""


#: Each count ``:time`` and ``:stats`` print: a pattern over their
#: output and the registry names of its groups, in order.
PRINTED_COUNTS = (
    (r"compiles (\d+) \((\d+) cancelled, (\d+) failed\), "
     r"cache (\d+) hit / (\d+) miss",
     ("compile.attempted", "compile.cancelled", "compile.failed",
      "compile.cache_hits", "compile.cache_misses")),
    (r"compiles: (\d+) attempted, (\d+) failed, (\d+) cancelled",
     ("compile.attempted", "compile.failed", "compile.cancelled")),
    (r"bitstream cache: (\d+) hit / (\d+) miss \((\d+) entries\)",
     ("compile.cache_hits", "compile.cache_misses", "cache.entries")),
    (r"cross-tenant: (\d+) cache hits, (\d+) single-flight joins",
     ("compile.cross_tenant_hits", "compile.single_flight_joins")),
    (r"placement cache: (\d+) warm starts \((\d+) entries\)",
     ("compile.warm_starts", "placement.entries")),
    (r"migrations: (\d+) sw-fast, (\d+) hardware; "
     r"fast-path compile failures: (\d+)",
     ("runtime.sw_migrations", "runtime.hw_migrations",
      "runtime.fastpath_failures")),
    (r"sw-fast batches: (\d+) \((\d+) iterations\)",
     ("runtime.sw_batches", "runtime.sw_batch_iterations")),
    (r"reliability: (\d+) corrupt disk entries",
     ("cache.disk_corrupt",)),
)


def check_printed_counts(repl):
    """Failures where ``:time``/``:stats`` disagree with the registry."""
    printed = repl.command(":time") + "\n" + repl.command(":stats")
    snapshot = repl.runtime.metrics_snapshot()
    failures = []
    for pattern, names in PRINTED_COUNTS:
        match = re.search(pattern, printed)
        if match is None:
            failures.append(f"no line matches {pattern!r}")
            continue
        for name, text in zip(names, match.groups()):
            if int(text) != snapshot[name]:
                failures.append(f"printed {name} = {text}, registry "
                                f"holds {snapshot[name]}")
    return failures


def session():
    """One fully exercised JIT session; returns (repl, virtual_ns)."""
    service = CompileService(latency_scale=0.0,
                             full_flow_max_luts=10_000,
                             queue=CompileQueue(max_workers=0),
                             flow_queue=CompileQueue(max_workers=0),
                             place_starts=1)
    repl = Repl(Runtime(compile_service=service,
                        enable_sw_fastpath=False,
                        enable_open_loop=False))
    repl.feed(SRC)
    repl.command(":run 40")
    repl.feed('$display("poke");')   # transient -> rebuild -> cache hit
    repl.command(":run 40")
    return repl, repl.runtime.time_model.now_ns


def main() -> int:
    outdir = Path(sys.argv[1]) if len(sys.argv) > 1 \
        else Path(tempfile.mkdtemp(prefix="cascade-trace-"))
    outdir.mkdir(parents=True, exist_ok=True)
    failures = []

    tr = tracer()
    tr.clear()
    tr.enable()
    repl, traced_ns = session()
    tr.disable()
    printed = check_printed_counts(repl)
    failures.extend(printed)
    if not printed:
        print(":time and :stats agree with the registry")

    jsonl = outdir / "smoke.jsonl"
    chrome = outdir / "smoke.json"
    tr.dump(str(jsonl))
    tr.dump(str(chrome))

    count, kinds = validate_jsonl(str(jsonl))
    print(f"trace: {count} events, kinds={sorted(kinds)}")
    missing = set(REQUIRED_EVENT_KINDS) - kinds
    if missing:
        failures.append(f"missing event kinds: {sorted(missing)}")
    if count == 0:
        failures.append("trace is empty")

    doc = json.loads(chrome.read_text(encoding="utf-8"))
    events = doc.get("traceEvents", [])
    if len(events) < count:
        failures.append("Chrome export lost events")
    if not any(e.get("ph") == "M" and
               e.get("name") == "thread_name" for e in events):
        failures.append("Chrome export has no thread_name metadata")

    tr.clear()
    _, untraced_ns = session()
    if traced_ns != untraced_ns:
        failures.append(
            f"virtual time differs with tracing on/off: "
            f"{traced_ns} != {untraced_ns}")
    else:
        print(f"virtual time bit-identical on/off: {traced_ns:.0f} ns")

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print(f"trace smoke OK ({jsonl} / {chrome})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
