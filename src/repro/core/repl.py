"""The Cascade REPL (paper §3.1, Figure 3).

Verilog is lexed, parsed and type-checked one input at a time; errors
are reported without disturbing the running program.  Module
declarations enter the outer scope, items are appended to the implicit
root module, and code begins executing — with visible IO side effects —
as soon as it is instantiated.  Per §7.2 the interface is append-only:
code can be added to a running program, never edited or deleted.

Also supports batch mode (``feed_file``), which processes a source file
through exactly the same path.
"""

from __future__ import annotations

import re
import sys
import time as _time
from typing import List, Optional

from ..common.errors import CascadeError
from ..obs import tracer
from .runtime import Runtime

__all__ = ["Repl", "main", "run_count"]

_BANNER = """\
Cascade REPL (Python reproduction).  Implicit components: clk, rst, pad, led.
Enter Verilog items or statements; end multi-line input with a blank line.
Commands: :run N (iterations), :time, :where, :stats, :trace, :quit
"""

#: Verilog identifier/keyword tokens, for the completeness heuristic.
_TOKEN_RE = re.compile(r"[A-Za-z_$][A-Za-z0-9_$]*")
_OPEN_KEYWORDS = frozenset((
    "module", "begin", "case", "casez", "casex", "function"))
_CLOSE_KEYWORDS = frozenset((
    "endmodule", "end", "endcase", "endfunction"))


def run_count(parts: List[str]) -> int:
    """The iteration bound of a ``:run`` command split into words
    (1000 when omitted); a ValueError carries the usage message."""
    try:
        return int(parts[1]) if len(parts) > 1 else 1000
    except ValueError:
        raise ValueError(f"usage: :run N (got {parts[1]!r})") from None


class Repl:
    """Line-oriented controller/view around a Runtime."""

    def __init__(self, runtime: Optional[Runtime] = None,
                 run_between_inputs: int = 64):
        self.runtime = runtime or Runtime(echo=True)
        self.run_between_inputs = run_between_inputs
        self._shown = 0  # output lines already drained
        self._h_eval = self.runtime.metrics.histogram(
            "repl.eval_host_s")

    # ------------------------------------------------------------------
    def feed(self, text: str) -> List[str]:
        """Eval one chunk of input; returns any error messages."""
        errors: List[str] = []
        stripped = text.strip()
        if not stripped:
            return errors
        t0 = _time.perf_counter()
        try:
            with self.runtime.atomic_eval():
                try:
                    self.runtime.eval_source(text)
                except CascadeError as item_error:
                    # Not a valid item list; try a bare statement (eg
                    # $display).
                    try:
                        self.runtime.eval_statement(stripped)
                    except CascadeError:
                        raise item_error from None
        except CascadeError as exc:
            # A failed eval is rolled back; the program keeps running.
            errors.append(str(exc))
            return errors
        self.runtime.run(iterations=self.run_between_inputs)
        self._h_eval.observe(_time.perf_counter() - t0)
        return errors

    def feed_file(self, path: str) -> List[str]:
        """Batch mode: process a whole file (the process is the same)."""
        with open(path, "r", encoding="utf-8") as f:
            return self.feed(f.read())

    def drain_output(self) -> List[str]:
        """Program output produced since the last drain.

        The controller half of the view pattern for headless hosts: the
        interactive loop and the network server both call this after
        each work item instead of tracking indices into
        ``runtime.output_lines`` themselves.
        """
        lines = self.runtime.output_lines
        new = lines[self._shown:]
        self._shown = len(lines)
        return new

    # ------------------------------------------------------------------
    def command(self, line: str) -> Optional[str]:
        """Handle a :command; returns output text or None to quit."""
        parts = line.split()
        name = parts[0]
        if name == ":quit":
            return None
        if name == ":run":
            try:
                count = run_count(parts)
            except ValueError as exc:
                return str(exc)
            return f"ran {self.runtime.run(iterations=count)} iterations"
        if name == ":time":
            m = self.runtime.metrics_snapshot()
            tiers = self.runtime.time_model.tier_events
            return (f"virtual time {self.runtime.time_model.now_seconds:.6f}s, "
                    f"{self.runtime.virtual_clock_ticks} clock ticks, "
                    f"compiles {m['compile.attempted']} "
                    f"({m['compile.cancelled']} cancelled, "
                    f"{m['compile.failed']} failed), "
                    f"cache {m['compile.cache_hits']} hit / "
                    f"{m['compile.cache_misses']} miss, "
                    f"events {tiers['interpreted']} interpreted / "
                    f"{tiers['sw-fast']} sw-fast / "
                    f"{tiers['hardware']} hardware")
        if name == ":where":
            return ", ".join(f"{k}:{v}" for k, v in
                             self.runtime.engine_locations().items())
        if name == ":trace":
            tr = tracer()
            sub = parts[1] if len(parts) > 1 else "status"
            if sub == "on":
                tr.enable()
                return "tracing on"
            if sub == "off":
                tr.disable()
                return "tracing off"
            if sub == "dump":
                if len(parts) < 3:
                    return "usage: :trace dump <path>"
                try:
                    count = tr.dump(parts[2])
                except OSError as exc:
                    return f"trace dump failed: {exc}"
                return f"wrote {count} events to {parts[2]}"
            if sub == "status":
                status = (f"tracing {'on' if tr.enabled else 'off'}, "
                          f"{len(tr)} events buffered")
                if tr.dropped:
                    status += f", {tr.dropped} dropped"
                return status
            return "usage: :trace on|off|status|dump <path>"
        if name == ":stats":
            rt = self.runtime
            m = rt.metrics_snapshot()
            lane = rt.compiler.flow_queue.stats()
            lines = [
                f"compiles: {m['compile.attempted']} attempted, "
                f"{m['compile.failed']} failed, "
                f"{m['compile.cancelled']} cancelled, "
                f"{rt.compiler.in_flight()} in flight",
                f"bitstream cache: {m['compile.cache_hits']} hit / "
                f"{m['compile.cache_misses']} miss "
                f"({m['cache.entries']} entries)",
                f"cross-tenant: {m['compile.cross_tenant_hits']} cache "
                f"hits, {m['compile.single_flight_joins']} single-flight "
                f"joins",
                f"placement cache: {m['compile.warm_starts']} warm starts "
                f"({m['placement.entries']} entries)",
                f"flow lane: {lane['kind']} x{lane['workers']}, "
                f"{rt.compiler.place_starts} place starts"
                + (" (degraded)" if lane['degraded'] else ""),
                "host seconds: " + ", ".join(
                    f"{phase} {m['compile.host.' + phase + '_s']:.3f}"
                    for phase in ("codegen", "flow", "submit", "wait")),
            ]
            counts = rt.tier_counts()
            tiers = rt.time_model.tier_events
            lines.append(
                f"engine tiers: {counts['interpreted']} interpreted, "
                f"{counts['sw-fast']} sw-fast, "
                f"{counts['hardware']} hardware, "
                f"{counts['stdlib']} stdlib")
            lines.append(
                f"tier events: {tiers['interpreted']} interpreted, "
                f"{tiers['sw-fast']} sw-fast, "
                f"{tiers['hardware']} hardware")
            lines.append(
                f"migrations: {m['runtime.sw_migrations']} sw-fast, "
                f"{m['runtime.hw_migrations']} hardware; "
                f"fast-path compile failures: "
                f"{m['runtime.fastpath_failures']}")
            lines.append(
                f"sw-fast batches: {m['runtime.sw_batches']} "
                f"({m['runtime.sw_batch_iterations']} iterations)")
            lines.append(
                f"reliability: {m['cache.disk_corrupt']} corrupt disk "
                f"entries")
            tr = tracer()
            lines.append(
                f"tracing: {'on' if tr.enabled else 'off'} "
                f"({len(tr)} events buffered); "
                f"{len(m)} metrics registered")
            return "\n".join(lines)
        return f"unknown command {name!r}"

    def interact(self, stdin=None, stdout=None) -> None:
        """The interactive loop (blank line submits multi-line input)."""
        stdin = stdin or sys.stdin
        stdout = stdout or sys.stdout
        stdout.write(_BANNER)
        buffer: List[str] = []
        while True:
            prompt = "....... " if buffer else "CASCADE >>> "
            stdout.write(prompt)
            stdout.flush()
            line = stdin.readline()
            if not line:
                break
            line = line.rstrip("\n")
            if line.startswith(":") and not buffer:
                out = self.command(line)
                if out is None:
                    break
                stdout.write(out + "\n")
                continue
            if line.strip():
                buffer.append(line)
                # Heuristic: single-line inputs ending in ';' that do not
                # open a module/block are complete.
                text = "\n".join(buffer)
                if self._complete(text):
                    pass
                else:
                    continue
            elif not buffer:
                continue
            text = "\n".join(buffer)
            buffer = []
            for error in self.feed(text):
                stdout.write(f"error: {error}\n")
            for out_line in self.drain_output():
                stdout.write(out_line + "\n")

    @staticmethod
    def _complete(text: str) -> bool:
        """A quick completeness check for single-submission inputs.

        Tokenizes on identifier boundaries — ``text.count("module")``
        also matched ``endmodule`` (and ``"end"`` matched every
        ``endcase``/``endfunction``), so the old substring version
        could never see a balanced input.  Complete means every opener
        has a closer *and* the input ends at a statement (``;``) or a
        closing keyword: ``module m; ... endmodule`` submits
        immediately instead of waiting for a blank line.
        """
        tokens = _TOKEN_RE.findall(text)
        opens = sum(t in _OPEN_KEYWORDS for t in tokens)
        closes = sum(t in _CLOSE_KEYWORDS for t in tokens)
        if opens != closes:
            return False
        tail = text.rstrip()
        if tail.endswith(";"):
            return True
        return bool(tokens) and tokens[-1] in _CLOSE_KEYWORDS \
            and tail.endswith(tokens[-1])


def main() -> int:
    """Entry point for the ``cascade-repl`` console script."""
    repl = Repl()
    try:
        repl.interact()
    except KeyboardInterrupt:
        pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
