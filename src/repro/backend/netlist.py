"""Gate-level netlists.

The synthesis pass (:mod:`repro.backend.synth`) bit-blasts a design
into a :class:`Netlist` of primitive cells; technology mapping
(:mod:`repro.backend.techmap`) re-expresses it in 4-LUTs + FFs for the
fabric model.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

__all__ = ["Net", "Cell", "Netlist", "CONST0", "CONST1"]

# Cell kinds.
INPUT = "INPUT"
OUTPUT = "OUTPUT"
LUT = "LUT"        # params: truth (int over 2**k rows), k = len(fanin)
FF = "FF"          # fanin: [d]; clocked by the global clock
CONST = "CONST"    # params: value 0/1

CONST0 = "const0"
CONST1 = "const1"


class Cell:
    """One primitive cell."""

    __slots__ = ("name", "kind", "fanin", "truth", "value")

    def __init__(self, name: str, kind: str,
                 fanin: Optional[List[str]] = None,
                 truth: int = 0, value: int = 0):
        self.name = name           # also the name of the output net
        self.kind = kind
        self.fanin = list(fanin or [])
        self.truth = truth         # LUT truth table (row = input bits)
        self.value = value         # CONST value

    def __repr__(self) -> str:
        return f"Cell({self.name}, {self.kind}, fanin={self.fanin})"


class Net:
    """Connectivity record derived from cells (driver name = net name)."""

    __slots__ = ("name", "sinks")

    def __init__(self, name: str):
        self.name = name
        self.sinks: List[str] = []


class Netlist:
    """A flat netlist; every cell drives the net of its own name."""

    def __init__(self, name: str):
        self.name = name
        self.cells: Dict[str, Cell] = {}
        self.inputs: List[str] = []
        self.outputs: Dict[str, str] = {}   # output port -> source net
        self._uid = 0

    # -- construction -----------------------------------------------------
    def fresh(self, hint: str = "n") -> str:
        self._uid += 1
        return f"{hint}${self._uid}"

    def add(self, cell: Cell) -> str:
        if cell.name in self.cells:
            raise ValueError(f"duplicate cell {cell.name!r}")
        self.cells[cell.name] = cell
        return cell.name

    def add_input(self, name: str) -> str:
        self.add(Cell(name, INPUT))
        self.inputs.append(name)
        return name

    def add_const(self, value: int) -> str:
        name = CONST1 if value else CONST0
        if name not in self.cells:
            self.add(Cell(name, CONST, value=1 if value else 0))
        return name

    def add_lut(self, fanin: List[str], truth: int,
                hint: str = "lut") -> str:
        """A k-input LUT cell; constant-folds degenerate tables."""
        k = len(fanin)
        full = (1 << (1 << k)) - 1 if k else 1
        if truth == 0:
            return self.add_const(0)
        if truth == full:
            return self.add_const(1)
        name = self.fresh(hint)
        self.add(Cell(name, LUT, fanin, truth=truth))
        return name

    def set_output(self, port: str, net: str) -> None:
        self.outputs[port] = net

    # -- serialization ----------------------------------------------------
    def to_payload(self) -> tuple:
        """A compact, picklable form for shipping across process
        boundaries (the flow lane).  Plain tuples pickle far smaller
        and faster than per-:class:`Cell` objects, and the payload is
        stable: round-tripping preserves cell order, so placement —
        which iterates ``cells`` — stays bit-identical on the other
        side."""
        return (self.name,
                tuple((c.name, c.kind, tuple(c.fanin), c.truth, c.value)
                      for c in self.cells.values()),
                tuple(self.inputs),
                tuple(self.outputs.items()),
                self._uid)

    @classmethod
    def from_payload(cls, payload: tuple) -> "Netlist":
        name, cells, inputs, outputs, uid = payload
        nl = cls(name)
        for cname, kind, fanin, truth, value in cells:
            nl.cells[cname] = Cell(cname, kind, list(fanin),
                                   truth=truth, value=value)
        nl.inputs = list(inputs)
        nl.outputs = dict(outputs)
        nl._uid = uid
        return nl

    # -- queries ------------------------------------------------------------
    def nets(self) -> Dict[str, Net]:
        """Driver -> sinks map (outputs count as sinks)."""
        table: Dict[str, Net] = {name: Net(name) for name in self.cells}
        for cell in self.cells.values():
            for src in cell.fanin:
                table[src].sinks.append(cell.name)
        for port, src in self.outputs.items():
            table[src].sinks.append(f"out:{port}")
        return table

    def count(self, kind: str) -> int:
        return sum(1 for c in self.cells.values() if c.kind == kind)

    def stats(self) -> Dict[str, int]:
        return {
            "cells": len(self.cells),
            "luts": self.count(LUT),
            "ffs": self.count(FF),
            "inputs": self.count(INPUT),
        }

    # -- simulation (for equivalence checks) ----------------------------------
    def simulate_comb(self, input_values: Dict[str, int],
                      state: Optional[Dict[str, int]] = None
                      ) -> Dict[str, int]:
        """Evaluate all cells combinationally (FFs read from ``state``);
        returns the value of every net."""
        state = state or {}
        values: Dict[str, int] = {}
        for name, cell in self.cells.items():
            if cell.kind == INPUT:
                values[name] = input_values.get(name, 0) & 1
            elif cell.kind == CONST:
                values[name] = cell.value
            elif cell.kind == FF:
                values[name] = state.get(name, 0) & 1
        pending = [c for c in self.cells.values()
                   if c.kind == LUT]
        guard = len(pending) + 1
        while pending and guard:
            guard -= 1
            remaining = []
            for cell in pending:
                if all(f in values for f in cell.fanin):
                    row = 0
                    for i, f in enumerate(cell.fanin):
                        row |= values[f] << i
                    values[cell.name] = (cell.truth >> row) & 1
                else:
                    remaining.append(cell)
            if len(remaining) == len(pending):
                raise ValueError("combinational cycle in netlist")
            pending = remaining
        return values

    def step(self, input_values: Dict[str, int],
             state: Optional[Dict[str, int]] = None
             ) -> Tuple[Dict[str, int], Dict[str, int]]:
        """One clock cycle: returns (new_state, output_port_values)."""
        state = dict(state or {})
        values = self.simulate_comb(input_values, state)
        new_state = {name: values[cell.fanin[0]]
                     for name, cell in self.cells.items()
                     if cell.kind == FF}
        outs = {port: values[src] for port, src in self.outputs.items()}
        return new_state, outs
