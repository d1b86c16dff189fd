"""The observability layer (DESIGN.md §4.7): metrics, tracing, and the
latent-bug fixes that ride along with it.

The two load-bearing guarantees pinned here:

* a fully exercised JIT session produces every required trace event
  kind, and the dump loads as valid JSONL *and* Chrome trace_event
  JSON;
* tracing state (off, on, on-then-off) cannot perturb virtual time —
  the figures the paper's timelines are built from are bit-identical
  either way.
"""

import json
import os
import threading
import time

import pytest

from repro.backend.cache import BitstreamCache, CacheEntry
from repro.backend.compilequeue import CompileQueue
from repro.backend.compiler import CompileService
from repro.backend.estimate import estimate_resources
from repro.core.repl import Repl
from repro.core.runtime import Runtime
from repro.obs import (REQUIRED_EVENT_KINDS, Counter, Gauge, Histogram,
                       MetricsRegistry, Tracer, merge_registries,
                       tracer, validate_jsonl)
from repro.verilog import ast
from repro.verilog.elaborate import elaborate_leaf
from repro.verilog.parser import parse_module


@pytest.fixture
def clean_tracer():
    """Leave the process-wide tracer exactly as the suite expects it:
    disabled and empty, whatever the test did to it."""
    tr = tracer()
    yield tr
    tr.disable()
    tr.clear()


def _hw_runtime():
    """Everything inline and instantaneous: compiles (with the real
    flow) deliver in the first window, so one short session exercises
    admission, compile phases, the hardware swap and the cache."""
    service = CompileService(latency_scale=0.0,
                             full_flow_max_luts=10_000,
                             queue=CompileQueue(max_workers=0),
                             flow_queue=CompileQueue(max_workers=0),
                             place_starts=1)
    return Runtime(compile_service=service, enable_sw_fastpath=False,
                   enable_open_loop=False)


COUNTER_SRC = """
wire clk;
Clock c(clk);
reg [7:0] n = 0;
always @(posedge clk) begin
  n <= n + 1;
  if (n == 5) $display("n=%d", n);
end
"""


# ----------------------------------------------------------------------
# Metrics registry
# ----------------------------------------------------------------------
class TestMetrics:
    def test_counter_gauge_histogram(self):
        reg = MetricsRegistry()
        c = reg.counter("a.count")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5
        g = reg.gauge("a.depth")
        g.set(7)
        g.add(-2)
        assert g.value == 5
        h = reg.histogram("a.lat")
        for v in range(100):
            h.observe(v)
        snap = h.snapshot()
        assert snap["count"] == 100 and snap["min"] == 0
        assert snap["max"] == 99
        assert snap["p50"] == pytest.approx(50, abs=2)
        assert snap["p99"] == pytest.approx(98, abs=2)

    def test_get_or_create_shares_and_type_checks(self):
        reg = MetricsRegistry()
        assert reg.counter("x") is reg.counter("x")
        with pytest.raises(TypeError):
            reg.gauge("x")
        assert reg.value("x") == 0
        assert reg.value("missing", -1) == -1

    def test_histogram_window_bounds_memory(self):
        h = Histogram("w", max_samples=16)
        for v in range(1000):
            h.observe(v)
        assert h.count == 1000          # exact totals survive
        assert h.snapshot()["min"] == 0
        assert h.percentile(0) >= 984   # window keeps the tail

    def test_merge_dedupes_by_identity(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("one").inc()
        b.counter("two").inc(5)
        merged = merge_registries(a, b, a, None, b)
        assert merged == {"one": 1, "two": 5}

    def test_counters_are_thread_safe(self):
        c = Counter("n")
        threads = [threading.Thread(
            target=lambda: [c.inc() for _ in range(10_000)])
            for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value == 40_000


# ----------------------------------------------------------------------
# Tracer basics
# ----------------------------------------------------------------------
class TestTracer:
    def test_disabled_emit_records_nothing(self):
        tr = Tracer()
        tr.emit("x", "test")
        assert len(tr) == 0

    def test_events_round_trip_jsonl(self, tmp_path):
        tr = Tracer()
        tr.enable()
        tr.emit("eval", "runtime", virtual_ns=1500.0,
                args={"generation": 1})
        tr.emit("compile_phase", "compile", dur_us=42.0,
                tid="compile", args={"phase": "place"})
        path = str(tmp_path / "t.jsonl")
        assert tr.to_jsonl(path) == 2
        count, kinds = validate_jsonl(path)
        assert count == 2
        assert kinds == {"eval", "compile_phase"}
        lines = [json.loads(l) for l in
                 open(path, encoding="utf-8")]
        assert lines[0]["virtual_ns"] == 1500.0
        assert lines[1]["ph"] == "X" and lines[1]["dur_us"] == 42.0

    def test_validate_rejects_malformed(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"name": "x", "cat": "c", "ph": "X", '
                        '"ts_us": 1, "tid": "t", "args": {}}\n')
        with pytest.raises(ValueError, match="dur_us"):
            validate_jsonl(str(path))
        path.write_text("not json\n")
        with pytest.raises(ValueError, match="not JSON"):
            validate_jsonl(str(path))

    def test_chrome_export_structure(self, tmp_path):
        tr = Tracer()
        tr.enable()
        tr.emit("tier_swap", "runtime", virtual_ns=2e9, tid="main",
                args={"engine": "main_root"})
        tr.emit("compile_phase", "compile", dur_us=10.0, tid="compile")
        path = str(tmp_path / "t.json")
        tr.to_chrome(path)
        doc = json.load(open(path, encoding="utf-8"))
        events = doc["traceEvents"]
        meta = [e for e in events if e["ph"] == "M"]
        body = [e for e in events if e["ph"] != "M"]
        assert {m["args"]["name"] for m in meta} == {"main", "compile"}
        for e in body:
            assert isinstance(e["tid"], int) and e["pid"] == 1
            assert isinstance(e["ts"], (int, float))
        instant = next(e for e in body if e["name"] == "tier_swap")
        assert instant["s"] == "t"
        assert instant["args"]["virtual_s"] == 2.0
        span = next(e for e in body if e["name"] == "compile_phase")
        assert span["dur"] == 10.0

    def test_dump_dispatches_on_extension(self, tmp_path):
        tr = Tracer()
        tr.enable()
        tr.emit("x", "t")
        tr.dump(str(tmp_path / "a.jsonl"))
        validate_jsonl(str(tmp_path / "a.jsonl"))
        tr.dump(str(tmp_path / "a.json"))
        assert "traceEvents" in json.load(
            open(tmp_path / "a.json", encoding="utf-8"))

    def test_buffer_bound_counts_drops(self):
        tr = Tracer(max_events=8)
        tr.enable()
        for i in range(20):
            tr.emit(f"e{i}", "t")
        assert len(tr) == 8 and tr.dropped == 12
        assert tr.events()[0].name == "e12"  # oldest dropped first

    def test_disabled_emit_is_cheap(self):
        tr = Tracer()
        t0 = time.perf_counter()
        for _ in range(100_000):
            tr.emit("x", "t", args={"never": "built"})
        elapsed = time.perf_counter() - t0
        # ~100ns/call in practice; the bound is 20x slack for CI.
        assert elapsed < 2.0
        assert len(tr) == 0


# ----------------------------------------------------------------------
# The full traced session (the acceptance scenario)
# ----------------------------------------------------------------------
class TestTracedSession:
    def _drive(self, repl):
        """A session that exercises every JIT mechanism: compile +
        hardware swap, then a transient statement whose post-transient
        rebuild resubmits identical source — a cache hit."""
        repl.feed(COUNTER_SRC)
        repl.command(":run 40")
        repl.feed('$display("poke");')
        repl.command(":run 40")

    def test_session_produces_all_required_kinds(self, clean_tracer,
                                                 tmp_path):
        clean_tracer.clear()
        clean_tracer.enable()
        repl = Repl(_hw_runtime())
        self._drive(repl)
        clean_tracer.disable()
        kinds = clean_tracer.kinds()
        missing = set(REQUIRED_EVENT_KINDS) - kinds
        assert not missing, f"missing event kinds: {sorted(missing)}"
        # The dump validates as JSONL and loads as Chrome JSON.
        jsonl = str(tmp_path / "session.jsonl")
        chrome = str(tmp_path / "session.json")
        clean_tracer.dump(jsonl)
        clean_tracer.dump(chrome)
        count, file_kinds = validate_jsonl(jsonl)
        assert count == len(clean_tracer)
        assert set(REQUIRED_EVENT_KINDS) <= file_kinds
        doc = json.load(open(chrome, encoding="utf-8"))
        assert len(doc["traceEvents"]) >= count

    def test_repl_trace_command(self, clean_tracer, tmp_path):
        repl = Repl(_hw_runtime())
        assert "off" in repl.command(":trace")
        assert repl.command(":trace on") == "tracing on"
        repl.feed(COUNTER_SRC)
        repl.command(":run 20")
        assert "tracing on" in repl.command(":trace status")
        path = str(tmp_path / "dump.jsonl")
        out = repl.command(f":trace dump {path}")
        assert "wrote" in out
        count, kinds = validate_jsonl(path)
        assert count > 0 and "eval" in kinds
        assert repl.command(":trace off") == "tracing off"
        assert "usage" in repl.command(":trace bogus")

    def test_stats_renders_registry_lines(self, clean_tracer):
        repl = Repl(_hw_runtime())
        repl.feed(COUNTER_SRC)
        repl.command(":run 20")
        stats = repl.command(":stats")
        assert "reliability:" in stats
        assert "corrupt disk entries" in stats
        assert "tracing: off" in stats
        assert "metrics registered" in stats


class TestTracingInvariance:
    """Virtual time is bit-identical with tracing off, on, and
    on-then-off — the differential guard for the whole layer."""

    def _figures(self):
        repl = Repl(_hw_runtime())
        repl.feed(COUNTER_SRC)
        repl.command(":run 200")
        rt = repl.runtime
        return (rt.time_model.now_ns, rt.virtual_clock_ticks,
                rt.output_lines[:], repl.command(":time"))

    def test_virtual_time_identical_on_off(self, clean_tracer):
        off1 = self._figures()
        clean_tracer.enable()
        on = self._figures()
        clean_tracer.disable()
        clean_tracer.clear()
        off2 = self._figures()
        assert off1 == on == off2
        assert off1[0] > 0  # the program actually ran


# ----------------------------------------------------------------------
# Satellite: counters absorbed into registries
# ----------------------------------------------------------------------
class TestRegistryWiring:
    def test_service_counters_are_registry_views(self):
        service = CompileService(latency_scale=0.0,
                                 queue=CompileQueue(max_workers=0))
        rt = Runtime(compile_service=service,
                     enable_sw_fastpath=False)
        assert rt.metrics is not service.metrics
        assert service.cache.metrics is service.metrics
        rt.eval_source(COUNTER_SRC)
        rt.run(iterations=20)
        snap = merge_registries(rt.metrics, service.metrics)
        assert snap["compile.attempted"] == \
            service.metrics.value("compile.attempted") >= 1
        assert snap["runtime.hw_migrations"] == \
            rt.metrics.value("runtime.hw_migrations") == 1
        assert "runtime.hw_migrations" not in service.metrics.snapshot()
        assert snap["compile.host.submit_s"] > 0

    def test_runtimes_sharing_a_service_count_their_own_migrations(self):
        service = CompileService(latency_scale=1e9,
                                 queue=CompileQueue(max_workers=0))
        first = Runtime(compile_service=service)
        second = Runtime(compile_service=service, enable_jit=False)
        for rt in (first, second):
            rt.eval_source(COUNTER_SRC)
            rt.run(iterations=20)
        assert first.metrics.value("runtime.sw_migrations") == 1
        assert second.metrics.value("runtime.sw_migrations") == 0
        assert second.metrics.value("runtime.hw_migrations") == 0

    def test_snapshot_names_registered(self):
        """A fresh runtime's merged snapshot already names every value
        ``:stats`` renders, the cache gauges included."""
        service = CompileService(latency_scale=0.0,
                                 queue=CompileQueue(max_workers=0))
        snap = Runtime(compile_service=service).metrics_snapshot()
        assert {"compile.host.submit_s", "compile.host.codegen_s",
                "compile.host.flow_s", "compile.host.wait_s",
                "cache.disk_corrupt",
                "cache.entries", "cache.in_flight",
                "placement.entries"} <= set(snap)


# ----------------------------------------------------------------------
# Satellite: corrupt disk-cache entries are quarantined
# ----------------------------------------------------------------------
class TestDiskCorruption:
    def _design(self):
        return elaborate_leaf(parse_module(
            "module t(input wire a, output wire b);\n"
            "  assign b = ~a;\nendmodule\n"))

    def test_truncated_entry_quarantined_and_counted(self, tmp_path):
        design = self._design()
        writer = BitstreamCache(disk_dir=str(tmp_path))
        writer.put("key1", CacheEntry(None, {"luts": 3}, None))
        path = tmp_path / "key1.json"
        blob = path.read_text(encoding="utf-8")
        path.write_text(blob[:len(blob) // 2])   # truncate mid-JSON

        reader = BitstreamCache(disk_dir=str(tmp_path))
        assert reader.get("key1", design) is None
        assert reader.metrics.value("cache.disk_corrupt") == 1
        assert not path.exists()                 # quarantined away
        assert (tmp_path / "key1.json.corrupt").exists()
        # The next lookup is an honest miss, not a re-parse/re-fail.
        assert reader.get("key1", design) is None
        assert reader.metrics.value("cache.disk_corrupt") == 1

    def test_unreadable_file_is_not_quarantined(self, tmp_path):
        design = self._design()
        cache = BitstreamCache(disk_dir=str(tmp_path))
        cache.put("key2", CacheEntry(None, {"luts": 3}, None))
        path = tmp_path / "key2.json"
        os.chmod(path, 0)
        try:
            fresh = BitstreamCache(disk_dir=str(tmp_path))
            if os.access(path, os.R_OK):
                pytest.skip("running as root; chmod 0 not enforced")
            assert fresh.get("key2", design) is None
            # OSError != corrupt
            assert fresh.metrics.value("cache.disk_corrupt") == 0
            assert path.exists()
        finally:
            os.chmod(path, 0o644)


# ----------------------------------------------------------------------
# The estimator reads sizing's widths; it has no fallback
# ----------------------------------------------------------------------
class TestEstimateWidths:
    def test_unsized_node_raises(self):
        design = elaborate_leaf(parse_module(
            "module t(input wire [7:0] a, output wire [7:0] b);\n"
            "  assign b = a + 1;\nendmodule\n"))
        assert estimate_resources(design)["luts"] > 0
        # An assign built after elaboration was never sized.
        design.assigns.append(ast.ContinuousAssign(
            ast.Ident(["a"]),
            ast.Binary("+", ast.Ident(["a"]), ast.Ident(["a"]))))
        with pytest.raises(AttributeError):
            estimate_resources(design)
