"""The data/control plane (§3.3–3.4).

Subprograms communicate exclusively through named nets; the plane owns
the net values and routes output changes from driver engines to reader
engines.  It also charges the performance model for every message that
crosses the software/hardware boundary — the communication cost that
inlining (§4.2), ABI forwarding (§4.3) and open-loop scheduling (§4.4)
each remove.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Dict, List, Sequence, Set, Tuple

from ..common.bits import Bits
from ..ir.build import IRProgram
from ..perf.timemodel import TimeModel
from .abi import HARDWARE, Engine

__all__ = ["DataPlane"]


class DataPlane:
    """Routes value changes between engines over the IR's nets."""

    def __init__(self, program: IRProgram, time_model: TimeModel):
        self.program = program
        self.time_model = time_model
        self.values: Dict[str, Bits] = {
            name: Bits.xes(net.width) for name, net in program.nets.items()}
        # net -> [(subprogram name, port)]
        self.readers: Dict[str, List[Tuple[str, str]]] = {
            name: [] for name in program.nets}
        for sub in program.subprograms.values():
            for port, (net, direction) in sub.bindings.items():
                if direction == "in":
                    self.readers.setdefault(net, []).append(
                        (sub.name, port))
        self.messages_sent = 0
        #: Per attached engine, in scheduling order: (engine, on the
        #: fabric?, {out port: (net, ((reader index, reader, reader port,
        #: reader on the fabric?, reader two-state?), ...))}).
        self._routes: List[Tuple[Engine, bool, Dict]] = []
        #: Route indices of the engines whose outputs may have changed
        #: since they were last drained: the scheduler adds the engines
        #: that ran or stepped, and a delivery adds its reader.
        self.pending: Set[int] = set()

    def attach(self, engines: Sequence[Tuple[str, Engine]]) -> None:
        """Tabulate the routes between ``engines`` (the active ones, in
        scheduling order; engines absorbed by ABI forwarding are left
        out, so the plane neither drains nor delivers to them).  Every
        engine starts pending."""
        index = {name: i for i, (name, _) in enumerate(engines)}
        routes = []
        for name, engine in engines:
            ports = {}
            bindings = self.program.subprograms[name].bindings
            for port, (net, direction) in bindings.items():
                if direction != "out":
                    continue
                readers = []
                for reader_name, reader_port in self.readers.get(net, ()):
                    i = index.get(reader_name)
                    if i is not None:
                        reader = engines[i][1]
                        readers.append((i, reader, reader_port,
                                        reader.location == HARDWARE,
                                        reader.two_state))
                ports[port] = (net, tuple(readers))
            routes.append((engine, engine.location == HARDWARE, ports))
        self._routes = routes
        self.pending.clear()
        self.pending.update(range(len(routes)))

    # ------------------------------------------------------------------
    def propagate(self) -> bool:
        """Drain output changes from the pending engines and deliver them
        to readers.  Returns True when any message was delivered.

        Engines are drained in scheduling order; a reader later in that
        order is drained in the same call, an earlier one on the next
        (exactly as if every engine were drained in turn).  Every
        message counts in ``messages_sent``; one to or from the fabric
        is charged as MMIO, a heap-local one costs nothing.  A changed
        value is read (boxed) once, for :attr:`values` and four-state
        readers; two-state readers take it as an int."""
        pending = self.pending
        if not pending:
            return False
        if len(pending) == 1:
            queue = [pending.pop()]
        else:
            queue = sorted(pending)
            pending.clear()
        routes = self._routes
        values = self.values
        time_model = self.time_model
        delivered = False
        last = -1
        while queue:
            i = heappop(queue)
            if i == last:
                continue
            last = i
            engine, hardware, ports = routes[i]
            changed = engine.drain_output_changes()
            if not changed:
                continue
            for port in changed:
                route = ports.get(port)
                if route is None:
                    continue
                net, readers = route
                self.messages_sent += 1
                if hardware:
                    time_model.charge_mmio()
                value = engine.read(port)
                old = values.get(net)
                if old is not None and old.aval == value.aval \
                        and old.bval == value.bval:
                    continue
                values[net] = value
                # What ``write`` would take from it: x/z bits as 0, the
                # value as two's complement when signed.
                number = value.to_int_xz(0) if value.signed \
                    else value.aval & ~value.bval
                for j, reader, reader_port, reader_hardware, reader_ints \
                        in readers:
                    self.messages_sent += 1
                    if reader_hardware:
                        time_model.charge_mmio()
                    if reader_ints:
                        reader.poke_int(reader_port, number)
                    else:
                        reader.write(reader_port, value)
                    if j > i:
                        heappush(queue, j)
                    else:
                        pending.add(j)
                    delivered = True
        return delivered
