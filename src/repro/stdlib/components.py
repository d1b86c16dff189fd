"""Standard-library component declarations (paper §3.2).

These modules are implicitly declared when Cascade begins execution.
``Clock``, ``Pad``, ``Led`` (and whatever else the hardware environment
supports — here ``GPIO`` and ``Reset``) are also implicitly
*instantiated*; ``Memory`` and ``Fifo`` may be instantiated at the
user's discretion.  The Verilog parameterisation syntax (``#(n)``)
selects object widths, exactly as in Figure 3.

Only the port declarations matter to the IR — the bodies are empty
because every standard component is realised by a pre-compiled engine
(:mod:`repro.stdlib.engines`) operating on the virtual development
board, never by compiling this Verilog.
"""

from __future__ import annotations

from typing import List

from ..verilog import ast
from ..verilog.parser import parse_source

STDLIB_SOURCE = """
module Clock(output wire val);
endmodule

module Reset(output wire val);
endmodule

module Pad #(parameter WIDTH = 4) (
  output wire [WIDTH-1:0] val
);
endmodule

module Led #(parameter WIDTH = 8) (
  input wire [WIDTH-1:0] val
);
endmodule

module GPIO #(parameter WIDTH = 8) (
  input wire [WIDTH-1:0] wval,
  output wire [WIDTH-1:0] rval
);
endmodule

module Memory #(parameter ADDR = 8, parameter WIDTH = 32) (
  input wire clk,
  input wire wen,
  input wire [ADDR-1:0] waddr,
  input wire [WIDTH-1:0] wdata,
  input wire [ADDR-1:0] raddr,
  output wire [WIDTH-1:0] rdata
);
endmodule

module Fifo #(parameter WIDTH = 8, parameter DEPTH = 16) (
  input wire clk,
  input wire rreq,
  output wire [WIDTH-1:0] rdata,
  output wire empty,
  input wire wreq,
  input wire [WIDTH-1:0] wdata,
  output wire full
);
endmodule
"""

STDLIB_MODULE_NAMES = frozenset(
    ["Clock", "Reset", "Pad", "Led", "GPIO", "Memory", "Fifo"])

# Components instantiated implicitly at startup (instance name, module,
# parameter overrides keyed by environment defaults).
IMPLICIT_INSTANCES = [
    ("clk", "Clock", {}),
    ("rst", "Reset", {}),
    ("pad", "Pad", {}),
    ("led", "Led", {}),
]


def stdlib_modules() -> List[ast.Module]:
    """Parse the standard-library declarations (cached)."""
    global _CACHE
    if _CACHE is None:
        _CACHE = parse_source(STDLIB_SOURCE, "<stdlib>").modules
    return [m for m in _CACHE]


_CACHE = None

