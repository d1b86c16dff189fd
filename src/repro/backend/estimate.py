"""Word-level resource estimation (LUTs / FFs) for designs.

The full synthesis flow (:mod:`repro.backend.synth` and friends) maps a
design to an exact 4-LUT netlist, but that is too slow to run inside
every JIT compilation of a large benchmark.  This estimator walks the
elaborated design and charges a calibrated LUT cost per operator bit —
the same decomposition technology mapping would perform — so the
compile-latency model and the spatial-overhead accounting scale to
designs of any size.  Differential tests check it against the real flow
on small designs.
"""

from __future__ import annotations

from typing import Dict

from ..verilog import ast
from ..verilog.elaborate import Design
from ..verilog.visitor import walk

__all__ = ["estimate_resources", "instrumentation_overhead"]


def _expr_luts(expr: ast.Expr) -> int:
    """LUT cost of one expression tree, from the widths the sizing pass
    annotated (an unsized node raises ``AttributeError``)."""
    total = 0
    for node in walk(expr):
        width = node.width if isinstance(node, ast.Expr) else 0
        if isinstance(node, ast.Binary):
            op = node.op
            if op in ("+", "-"):
                total += width
            elif op == "*":
                total += max(width * width // 2, width)
            elif op in ("/", "%"):
                total += width * width
            elif op in ("==", "!=", "===", "!==", "<", "<=", ">", ">="):
                w = max(node.lhs.width, node.rhs.width)
                total += max(w // 2, 1)
            elif op in ("&", "|", "^", "^~", "~^"):
                total += (width + 1) // 2
            elif op in ("<<", ">>", "<<<", ">>>"):
                if isinstance(node.rhs, ast.Number):
                    total += 0  # constant shifts are wiring
                else:
                    total += width * max(width.bit_length(), 1) // 2
            elif op in ("&&", "||"):
                total += 1
            elif op == "**":
                total += width * width
        elif isinstance(node, ast.Unary):
            if node.op in ("&", "~&", "|", "~|", "^", "~^", "^~", "!"):
                w = node.operand.width
                total += max(w // 3, 1)
            # ~ and - on top of other logic usually fold into LUTs.
        elif isinstance(node, ast.Ternary):
            total += (width + 1) // 2  # 2:1 mux packs two bits per LUT
    return total


def estimate_resources(design: Design) -> Dict[str, int]:
    """Estimated {luts, ffs, mem_bits} for a design."""
    luts = 0
    ffs = 0
    mem_bits = 0
    for var in design.vars.values():
        if var.kind == "reg":
            if var.is_array:
                mem_bits += var.width * var.array[0]
            else:
                ffs += var.width

    for assign in design.assigns:
        luts += _expr_luts(assign.rhs)
    for block in design.always:
        mux_penalty = 0
        for node in walk(block):
            if isinstance(node, ast.Expr):
                continue
            if isinstance(node, (ast.If, ast.Case)):
                mux_penalty += 1
            if isinstance(node, (ast.BlockingAssign,
                                 ast.NonblockingAssign)):
                luts += _expr_luts(node.rhs)
                w = node.lhs.width
                # Each conditional level adds enable/select muxing.
                luts += (w * max(mux_penalty, 1) + 1) // 2
    for fn in design.functions.values():
        for node in walk(fn.body):
            if isinstance(node, ast.BlockingAssign):
                luts += _expr_luts(node.rhs)
    return {"luts": luts, "ffs": ffs, "mem_bits": mem_bits}


def instrumentation_overhead(design: Design) -> Dict[str, int]:
    """Extra resources for the Figure 10 hardware-engine
    instrumentation: get_state/set_state access to every stateful
    element, shadow variables, update/task masks and the open-loop
    controller.  This is what makes Cascade's bitstreams bigger than a
    direct Quartus compilation (§6.1: 2.9x on PoW, §6.2: 6.5x with IO)."""
    state_bits = 0
    io_bits = 0
    n_tasks = 0
    for var in design.vars.values():
        if var.kind == "reg" and not var.is_array:
            state_bits += var.width
        if var.direction is not None:
            io_bits += var.width
    for block in list(design.always):
        for node in walk(block):
            if isinstance(node, ast.SysTask):
                n_tasks += 1
    luts = (
        8 * state_bits      # shadow mux + 32-bit readback bus muxing +
                            # set_state write decode per state bit
        + 4 * io_bits       # AXI bus mux per IO bit
        + 24 * n_tasks      # task mask / argument capture
        + 160               # _oloop/_itrs counters and control FSM
    )
    ffs = (
        state_bits          # shadow copies (_nvars)
        + 2 * n_tasks + 8   # _tmask/_ntmask, _umask/_numask
        + 64                # _oloop/_itrs
    )
    return {"luts": luts, "ffs": ffs, "mem_bits": 0}
