"""The multi-tenant server: framing, sessions, fairness, lifecycle.

Covers the network daemon end to end — protocol round-trips (including
partial reads and oversized-frame rejection), N concurrent tenants
whose virtual-time figures are bit-identical to running the same
program alone in-process, cross-tenant compile dedup, backpressure and
eviction paths, and graceful SIGTERM drain of a real subprocess.
"""

import os
import re
import signal
import socket
import struct
import subprocess
import sys
import threading
import time

import pytest

from repro.backend.cache import BitstreamCache, PlacementCache
from repro.backend.compilequeue import shutdown_shared_pools
from repro.backend.compiler import CompileService
from repro.client import SessionClosed, connect
from repro.core.repl import Repl
from repro.core.runtime import Runtime
from repro.server import CascadeServer
from repro.server.protocol import (FrameError, MAX_FRAME_BYTES,
                                   recv_frame, send_frame)
from repro.server.session import Session

# One tenant's interactive script: build a counter, run it in pieces,
# poke at its state, and ask for the timeline.
TENANT_SRC = """
reg [7:0] n = 0;
always @(posedge clk.val) n <= n + 1;
assign led.val = n;
"""

# Configuration every determinism-sensitive test shares.  The sw fast
# path hot-swaps on *host* future completion, so it is virtual-time-exact
# but not bit-deterministic in its tier tallies, and the comparisons
# below turn it off in both arms (see DESIGN.md §4.6).  Open loop is off
# by default too: a 4000-iteration open-loop run would fit in a single
# slice of the sliced-run test.
RUNTIME_KW = {"enable_sw_fastpath": False, "enable_open_loop": False}
SERVICE_KW = {"latency_scale": 1e-4}

_TIME_RE = re.compile(
    r"virtual time ([0-9.]+)s, (\d+) clock ticks, .*"
    r"events (\d+) interpreted / (\d+) sw-fast / (\d+) hardware")


def virtual_figures(time_line):
    """The virtual-time part of a ``:time`` line (cache/compile
    counters legitimately differ across tenants; the timeline must
    not)."""
    match = _TIME_RE.search(time_line)
    assert match, f"unparsable :time line: {time_line!r}"
    return match.groups()


@pytest.fixture
def server_factory():
    servers = []

    def make(**kwargs):
        kwargs.setdefault("address", ("127.0.0.1", 0))
        kwargs.setdefault("service_kwargs", dict(SERVICE_KW))
        kwargs.setdefault("runtime_kwargs", dict(RUNTIME_KW))
        server = CascadeServer(**kwargs).start()
        servers.append(server)
        return server

    yield make
    for server in servers:
        server.shutdown(drain=False, timeout=5.0)


# ----------------------------------------------------------------------
# Protocol framing
# ----------------------------------------------------------------------
class TestFraming:
    def test_round_trip(self):
        a, b = socket.socketpair()
        try:
            frame = {"type": "eval", "id": 7,
                     "src": "assign led.val = pad.val; // ünïcode"}
            send_frame(a, frame)
            assert recv_frame(b) == frame
        finally:
            a.close()
            b.close()

    def test_back_to_back_frames(self):
        a, b = socket.socketpair()
        try:
            for i in range(5):
                send_frame(a, {"type": "command", "id": i,
                               "line": ":time"})
            for i in range(5):
                assert recv_frame(b)["id"] == i
        finally:
            a.close()
            b.close()

    def test_partial_reads(self):
        """A frame trickled in one byte at a time still decodes."""
        a, b = socket.socketpair()
        frame = {"type": "eval", "id": 1, "src": "x" * 500}

        def trickle():
            import json
            payload = json.dumps(frame).encode("utf-8")
            data = struct.pack("!I", len(payload)) + payload
            for i in range(len(data)):
                a.sendall(data[i:i + 1])
                if i % 64 == 0:
                    time.sleep(0.001)
            a.close()

        thread = threading.Thread(target=trickle, daemon=True)
        thread.start()
        try:
            assert recv_frame(b) == frame
            assert recv_frame(b) is None  # clean EOF afterwards
        finally:
            thread.join(timeout=5)
            b.close()

    def test_clean_eof_returns_none(self):
        a, b = socket.socketpair()
        a.close()
        try:
            assert recv_frame(b) is None
        finally:
            b.close()

    def test_eof_mid_frame_raises(self):
        a, b = socket.socketpair()
        a.sendall(struct.pack("!I", 100) + b'{"type"')
        a.close()
        try:
            with pytest.raises(FrameError):
                recv_frame(b)
        finally:
            b.close()

    def test_oversized_length_rejected_without_reading_body(self):
        a, b = socket.socketpair()
        a.sendall(struct.pack("!I", MAX_FRAME_BYTES + 1))
        try:
            with pytest.raises(FrameError, match="exceeds"):
                recv_frame(b)
        finally:
            a.close()
            b.close()

    def test_oversized_send_rejected(self):
        a, b = socket.socketpair()
        try:
            with pytest.raises(FrameError, match="exceeds"):
                send_frame(a, {"src": "x" * (MAX_FRAME_BYTES + 1)})
        finally:
            a.close()
            b.close()

    def test_bad_payloads_raise(self):
        for payload in [b"not json at all", b"[1, 2, 3]", b"\xff\xfe"]:
            a, b = socket.socketpair()
            a.sendall(struct.pack("!I", len(payload)) + payload)
            try:
                with pytest.raises(FrameError):
                    recv_frame(b)
            finally:
                a.close()
                b.close()


# ----------------------------------------------------------------------
# Session backpressure (unit: no sockets, no scheduler)
# ----------------------------------------------------------------------
class TestSessionBackpressure:
    def _session(self, queue_bound):
        a, b = socket.socketpair()
        session = Session(1, a, "test", cache=BitstreamCache(),
                          placements=PlacementCache(),
                          queue_bound=queue_bound,
                          service_kwargs=dict(SERVICE_KW),
                          runtime_kwargs=dict(RUNTIME_KW))
        return session, a, b

    def test_drop_oldest_output_and_count(self):
        session, a, b = self._session(queue_bound=4)
        try:
            for i in range(20):
                session.push_output(f"line {i}")
            with session._out_lock:
                queued = list(session._out)
            assert len(queued) == 4
            assert session.dropped_outputs == 16
            # Drop-oldest: the survivors are the most recent lines.
            assert [f["line"] for f in queued] == \
                [f"line {i}" for i in range(16, 20)]
        finally:
            a.close()
            b.close()

    def test_results_are_never_dropped(self):
        session, a, b = self._session(queue_bound=4)
        try:
            for i in range(4):
                session.push_output(f"line {i}")
            session.push_frame({"type": "result", "id": 1, "ok": True})
            for i in range(4, 30):
                session.push_output(f"line {i}")
            with session._out_lock:
                kinds = [f["type"] for f in session._out]
            assert "result" in kinds
            assert session.dropped_outputs > 0
        finally:
            a.close()
            b.close()


# ----------------------------------------------------------------------
# The server end to end
# ----------------------------------------------------------------------
class TestServerSessions:
    def test_eval_stream_and_commands(self, server_factory):
        server = server_factory()
        with connect(server.address) as session:
            assert session.server_info["server"] == "cascade"
            assert session.eval(TENANT_SRC, timeout=30) == []
            errors = session.eval("this is not verilog ((", timeout=30)
            assert errors  # reported without killing the session
            assert session.eval('$display("n=%0d", n);',
                                timeout=30) == []
            assert "n=" in " ".join(session.drain_output())
            out = session.command(":run 100", timeout=30)
            assert out == "ran 100 iterations"
            line = session.command(":time", timeout=30)
            assert "virtual time" in line
            stats = session.server_stats(timeout=30)
            assert stats["sessions_active"] == 1
            assert stats["scheduler"]["turns"] > 0

    def test_bad_eval_keeps_session_open(self, server_factory):
        server = server_factory()
        with connect(server.address) as session:
            assert session.eval("reg [7:0] cnt = 0; always @(posedge "
                                "clk.val) cnt <= cnt + 1;",
                                timeout=30) == []
            errors = session.eval("assign led.val = nope;", timeout=30)
            assert len(errors) == 1 and "cannot resolve 'nope'" in errors[0]
            assert session.eval('$display("alive %0d", cnt);',
                                timeout=30) == []
            assert "alive" in " ".join(session.drain_output())
            assert server.stats()["sessions_active"] == 1

    def test_metrics_and_trace_ops(self, server_factory):
        from repro.obs import tracer
        server = server_factory()
        try:
            with connect(server.address) as session:
                assert session.eval(TENANT_SRC, timeout=30) == []
                session.command(":run 50", timeout=30)
                metrics = session.metrics(timeout=30)
                assert metrics["compile.attempted"] >= 1
                assert "cache.hits" in metrics
                status = session.trace(timeout=30)
                assert status == {"enabled": False, "buffered": 0,
                                  "dropped": 0}
                assert session.trace("on", timeout=30)["enabled"]
                session.command(":run 50", timeout=30)
                got = session.trace("events", limit=500, timeout=30)
                names = {e["name"] for e in got["events"]}
                assert "scheduler_slice" in names
                assert not session.trace("off",
                                         timeout=30)["enabled"]
                bad = session.trace("sideways", timeout=30)
                assert "unknown trace mode" in str(bad)
                stats = session.server_stats(timeout=30)
                assert stats["metrics"]["server.sessions_total"] == 1
        finally:
            tracer().disable()
            tracer().clear()

    def test_quit_command_closes_session(self, server_factory):
        server = server_factory()
        session = connect(server.address)
        assert session.command(":quit", timeout=30) == "bye"
        assert session.wait_goodbye(timeout=10) == "client"

    @pytest.mark.parametrize("open_loop", [False, True],
                             ids=["closed-loop", "open-loop"])
    def test_multiplexed_sessions_match_solo_virtual_time(
            self, server_factory, open_loop):
        """The acceptance criterion: N tenants running the same script
        concurrently each see virtual-time figures (and program
        output) bit-identical to a solo in-process run — cross-tenant
        cache hits and single-flight joins dedup *host* work only."""
        runtime_kw = dict(RUNTIME_KW, enable_open_loop=open_loop)

        def script_solo():
            service = CompileService(**SERVICE_KW)
            repl = Repl(Runtime(compile_service=service, **runtime_kw),
                        run_between_inputs=64)
            out = []
            assert repl.feed(TENANT_SRC) == []
            out += repl.drain_output()
            assert repl.command(":run 300") == "ran 300 iterations"
            out += repl.drain_output()
            assert repl.feed('$display("n=%0d", n);') == []
            out += repl.drain_output()
            assert repl.command(":run 200") == "ran 200 iterations"
            out += repl.drain_output()
            return virtual_figures(repl.command(":time")), out

        def script_client(address, results, index):
            with connect(address) as session:
                assert session.eval(TENANT_SRC, timeout=60) == []
                assert session.command(":run 300", timeout=60) == \
                    "ran 300 iterations"
                assert session.eval('$display("n=%0d", n);',
                                    timeout=60) == []
                assert session.command(":run 200", timeout=60) == \
                    "ran 200 iterations"
                figures = virtual_figures(
                    session.command(":time", timeout=60))
                results[index] = (figures, session.drain_output())

        expected = script_solo()
        server = server_factory(runtime_kwargs=runtime_kw)
        tenants = 4
        results = [None] * tenants
        threads = [threading.Thread(target=script_client,
                                    args=(server.address, results, i))
                   for i in range(tenants)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert all(r is not None for r in results)
        for figures, output in results:
            assert figures == expected[0]
            assert output == expected[1]
        # Host-side dedup really happened: every tenant after the
        # first resolved the compile by cache hit or single-flight
        # join against the shared cache.
        stats = server.stats()
        assert stats["cross_tenant_hits"] + \
            stats["single_flight_joins"] >= tenants - 1
        assert stats["metrics"]["cache.in_flight"] == 0

    def test_sliced_run_keeps_sessions_responsive(self, server_factory):
        """A long :run is sliced by the virtual-time budget: another
        session's request completes while it is still in flight."""
        server = server_factory(window_budget_s=1e-3)
        with connect(server.address) as hog, \
                connect(server.address) as other:
            assert hog.eval(TENANT_SRC, timeout=60) == []
            request = hog.send_command(":run 4000")
            assert "virtual time" in other.command(":time", timeout=30)
            result = hog.wait(request, timeout=120)
            assert result["ok"] and "4000" in result["text"]
        stats = server.stats()
        # More turns than work items == some runs took several slices.
        assert stats["scheduler"]["turns"] > \
            stats["scheduler"]["work_items"]

    def test_admission_cap_rejects_with_goodbye(self, server_factory):
        server = server_factory(max_sessions=1)
        with connect(server.address) as first:
            assert first.eval("reg r = 0;", timeout=30) == []
            with pytest.raises(SessionClosed) as excinfo:
                connect(server.address)
            assert excinfo.value.reason == "server-full"
            assert server.stats()["sessions_rejected"] == 1
        # The slot frees up once the first session leaves.
        deadline = time.monotonic() + 10
        while server.stats()["sessions_active"] and \
                time.monotonic() < deadline:
            time.sleep(0.02)
        with connect(server.address) as again:
            assert again.eval("reg r2 = 0;", timeout=30) == []

    def test_idle_sessions_are_evicted(self, server_factory):
        server = server_factory(idle_timeout_s=0.3)
        session = connect(server.address)
        assert session.wait_goodbye(timeout=10) == "idle"
        assert server.stats()["sessions_evicted"] == 1
        session.close()

    def test_protocol_error_gets_error_then_goodbye(self,
                                                    server_factory):
        server = server_factory()
        sock = socket.create_connection(server.address, timeout=10)
        try:
            assert recv_frame(sock)["type"] == "welcome"
            # A length prefix over the limit is a protocol error.
            sock.sendall(struct.pack("!I", MAX_FRAME_BYTES + 1))
            frames = []
            while True:
                frame = recv_frame(sock)
                if frame is None:
                    break
                frames.append(frame)
                if frame["type"] == "goodbye":
                    break
            kinds = [f["type"] for f in frames]
            assert "error" in kinds
            assert frames[-1]["type"] == "goodbye"
            assert frames[-1]["reason"] == "protocol-error"
        finally:
            sock.close()

    def test_unknown_frame_type_is_survivable(self, server_factory):
        server = server_factory()
        sock = socket.create_connection(server.address, timeout=10)
        try:
            assert recv_frame(sock)["type"] == "welcome"
            send_frame(sock, {"type": "bogus", "id": 1})
            frame = recv_frame(sock)
            assert frame["type"] == "error"
            assert "bogus" in frame["message"]
            # The session is still usable afterwards.
            send_frame(sock, {"type": "command", "id": 2,
                              "line": ":time"})
            frame = recv_frame(sock)
            assert frame["type"] == "result" and frame["id"] == 2
            send_frame(sock, {"type": "bye"})
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                frame = recv_frame(sock)
                if frame is None or frame["type"] == "goodbye":
                    break
        finally:
            sock.close()

    def test_stats_expose_backpressure_counters(self, server_factory):
        server = server_factory()
        with connect(server.address) as session:
            stats = session.server_stats(timeout=30)
            assert "dropped_outputs" in stats
            per_session = stats["sessions"][0]
            assert {"dropped_outputs", "virtual_s", "cache_hits",
                    "cross_tenant_hits",
                    "single_flight_joins"} <= set(per_session)

    def test_stats_count_a_closing_session_once(self, server_factory):
        """A session that finalizes while stats() is reading the
        session table lands in the live list or the closed totals,
        never both."""
        server = server_factory()
        with connect(server.address) as client:
            assert client.eval("reg r = 0;", timeout=30) == []
            assert "virtual time" in client.command(":time", timeout=30)
            live = server.live_sessions
            (session,) = live()

            def live_then_finalize():
                sessions = live()
                server._finalize(session)
                return sessions
            server.live_sessions = live_then_finalize
            try:
                stats = server.stats()
            finally:
                del server.live_sessions
        assert stats["frames_in"] == 2


# ----------------------------------------------------------------------
# Graceful drain of a real daemon process
# ----------------------------------------------------------------------
class TestSigtermDrain:
    def test_sigterm_drains_and_exits_cleanly(self, tmp_path):
        path = str(tmp_path / "cascade.sock")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            "src")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.server", "--socket", path,
             "--idle-timeout", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            env=env, text=True)
        try:
            line = proc.stdout.readline()
            assert "listening" in line
            with connect(path) as session:
                assert session.eval("reg q = 0;", timeout=60) == []
                proc.send_signal(signal.SIGTERM)
                # Drain: the in-flight session gets a clean goodbye.
                assert session.wait_goodbye(timeout=30) == "shutdown"
            assert proc.wait(timeout=30) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)


# ----------------------------------------------------------------------
# Shared worker pools
# ----------------------------------------------------------------------
class TestSharedPools:
    def test_shutdown_is_idempotent_and_recoverable(self):
        shutdown_shared_pools()
        shutdown_shared_pools()  # second call is a no-op
        # Lazy recreation: services built afterwards still compile.
        service = CompileService(latency_scale=0.0)
        from repro.ir.build import Subprogram
        from repro.verilog.parser import parse_module
        module = parse_module("""
module m(input wire clk, output wire [3:0] q);
  reg [3:0] r = 0;
  always @(posedge clk) r <= r + 1;
  assign q = r;
endmodule
""")
        job = service.submit(
            Subprogram("t", module, False, module.name, {}), 0.0)
        assert job.compiled is not None


# ----------------------------------------------------------------------
# Shared-cache thread safety (stress smoke)
# ----------------------------------------------------------------------
class TestCacheThreadSafety:
    def test_concurrent_bitstream_cache_churn(self):
        from repro.backend.cache import CacheEntry
        cache = BitstreamCache(capacity=16)
        errors = []

        def worker(index):
            try:
                for i in range(300):
                    key = f"k{(index * 7 + i) % 40}"
                    if i % 3 == 0:
                        cache.put(key, CacheEntry(
                            None, {"luts": i}, None))
                    else:
                        cache.get(key)
                    if i % 17 == 0:
                        leader, entry = cache.inflight_begin(key)
                        if leader:
                            cache.inflight_finish(key, entry)
                        else:
                            cache.inflight_leave(entry)
                    cache.metrics.snapshot()
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        # The gauges are set under the cache lock: no lost update.
        assert len(cache) == cache.metrics.value("cache.entries") <= 16
        assert cache.metrics.value("cache.in_flight") == 0

    def test_concurrent_placement_cache_churn(self):
        cache = PlacementCache(capacity=8)
        errors = []

        def worker(index):
            try:
                for i in range(300):
                    sig = f"s{(index + i) % 20}"
                    if i % 2 == 0:
                        cache.store(sig, {"c": (index, i % 5)})
                    else:
                        cache.lookup(sig)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert errors == []
        assert cache.metrics.value("placement.entries") <= 8
