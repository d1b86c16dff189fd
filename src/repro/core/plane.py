"""The data/control plane (§3.3–3.4).

Subprograms communicate exclusively through named nets; the plane owns
the net values and routes output changes from driver engines to reader
engines.  It also charges the performance model for every message that
crosses the software/hardware boundary — the communication cost that
inlining (§4.2), ABI forwarding (§4.3) and open-loop scheduling (§4.4)
each remove.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

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
        #: Per polled engine: (engine, on the fabric?, {out port: (net,
        #: ((reader, reader port, reader on the fabric?), ...))}).
        self._routes: Optional[List[Tuple[Engine, bool, Dict]]] = None

    def invalidate_routes(self) -> None:
        """The engine set or the absorbed set changed."""
        self._routes = None

    def _route_table(self, engines: Dict[str, Engine],
                     absorbed: Set[str]) -> List[Tuple[Engine, bool, Dict]]:
        routes = []
        for name, engine in engines.items():
            if name in absorbed:
                continue
            ports = {}
            bindings = self.program.subprograms[name].bindings
            for port, (net, direction) in bindings.items():
                if direction != "out":
                    continue
                readers = []
                for reader_name, reader_port in self.readers.get(net, ()):
                    reader = engines.get(reader_name)
                    if reader_name not in absorbed and reader is not None:
                        readers.append((reader, reader_port,
                                        reader.location == HARDWARE))
                ports[port] = (net, tuple(readers))
            routes.append((engine, engine.location == HARDWARE, ports))
        return routes

    # ------------------------------------------------------------------
    def propagate(self, engines: Dict[str, Engine],
                  absorbed: Optional[Set[str]] = None) -> bool:
        """Drain output changes from every engine and deliver them to
        readers.  ``absorbed`` names subprograms currently handled by
        ABI forwarding — the plane neither polls nor delivers to them.
        Returns True when any message was delivered.

        Routes are tabulated per engine on first use and kept until
        :meth:`invalidate_routes`.  Every message counts in
        ``messages_sent``; one to or from the fabric is charged as MMIO,
        a heap-local one costs nothing."""
        routes = self._routes
        if routes is None:
            routes = self._routes = self._route_table(engines,
                                                      absorbed or set())
        values = self.values
        time_model = self.time_model
        delivered = False
        for engine, hardware, ports in routes:
            changed = engine.drain_output_changes()
            if not changed:
                continue
            for port in changed:
                route = ports.get(port)
                if route is None:
                    continue
                net, readers = route
                value = engine.read(port)
                self.messages_sent += 1
                if hardware:
                    time_model.charge_mmio()
                old = values.get(net)
                if old is not None and old.aval == value.aval \
                        and old.bval == value.bval:
                    continue
                values[net] = value
                for reader, reader_port, reader_hardware in readers:
                    self.messages_sent += 1
                    if reader_hardware:
                        time_model.charge_mmio()
                    reader.write(reader_port, value)
                    delivered = True
        return delivered
