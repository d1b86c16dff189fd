"""Generated programs on all three tiers: interpreter, sw-fast, hardware.

A hypothesis strategy builds small synthesizable programs that exercise
what the levelized compiled model relies on: acyclic chains of
continuous assigns declared in shuffled order, widths 1-70 with mixed
signedness, an inlinable function, a constant ``case`` function (a
lookup table), an array read by combinational logic, an optional
``always @*`` block (which keeps the fixpoint), registers declared with
non-zero, negative or ascending ranges that are read and written through
dynamic bit, ``+:`` and ``-:`` selects with signed and unsigned indices,
and a clocked register set (with if/else, case and a blocking loop)
that ``$display``s every cycle.  Each program runs interpreter-only,
on the software fast path and on the hardware engine (which lands at a
drawn iteration), closed loop and open loop; the ``$display`` streams,
tick counts and final registers must agree, and the fast path's virtual
time must equal the interpreter's bit for bit.
"""

from unittest import mock

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from repro.backend.compilequeue import CompileQueue
from repro.backend.compiler import CompileService, CompilerModel
from repro.core.runtime import Runtime

_ITERATIONS = 40
_BINARY = ["+", "-", "*", "&", "|", "^", "<<", ">>", ">>>", "==", "!=",
           "<", ">=", "&&", "||"]
_UNARY = ["~", "-", "!", "&", "|", "^"]


def _decl(signed, width):
    return ("signed " if signed else "") + \
        (f"[{width - 1}:0] " if width > 1 else "")


@st.composite
def _ranged(draw, name):
    """A register declared ``[msb:lsb]`` with lsb in -8..8, ascending
    or descending: (declaration, (name, msb, lsb))."""
    width, lsb = draw(st.integers(1, 24)), draw(st.integers(-8, 8))
    msb = lsb + width - 1
    if draw(st.booleans()):
        msb, lsb = lsb, msb
    signed = "signed " if draw(st.booleans()) else ""
    init = draw(st.integers(0, (1 << width) - 1))
    return f"reg {signed}[{msb}:{lsb}] {name} = {init};", (name, msb, lsb)


@st.composite
def _select(draw, base, index_name, writable):
    """A dynamic bit, ``+:`` or ``-:`` select of ``base`` through a new
    7-bit index wire: (index wire declaration, select, width).  Its
    index keeps a read's bits in range; a write may reach past either
    end."""
    name, msb, lsb = base
    low, high = min(msb, lsb), max(msb, lsb)
    mode = draw(st.sampled_from(["bit", "+:", "-:"]))
    width = 1 if mode == "bit" else draw(st.integers(1, high - low + 1))
    first = low + (width - 1 if mode == "-:" else 0)
    last = high - (width - 1 if mode == "+:" else 0)
    if writable:
        first, last = first - width, last + width
    count = last - first + 1
    if first >= 0 and draw(st.booleans()):
        index = f"wire [6:0] {index_name} = {first} + cycles % {count};"
    else:
        index = (f"wire signed [6:0] {index_name} = "
                 f"$signed(cycles % {count}) + ({first});")
    if mode == "bit":
        return index, f"{name}[{index_name}]", 1
    return index, f"{name}[{index_name} {mode} {width}]", width


@st.composite
def _const(draw):
    width = draw(st.integers(1, 70))
    value = draw(st.integers(0, (1 << width) - 1))
    signed = "s" if draw(st.booleans()) else ""
    return f"{width}'{signed}h{value:x}"


@st.composite
def _expr(draw, leaves, depth=3):
    """An expression over ``leaves`` (name, width, signed)."""
    if depth == 0 or draw(st.integers(0, 3)) == 0:
        kind = draw(st.sampled_from(["ident", "ident", "bit", "part",
                                     "const"]))
        if kind == "const":
            return draw(_const())
        name, width, _ = draw(st.sampled_from(leaves))
        if kind == "bit" and width > 1:
            return f"{name}[{draw(st.integers(0, width - 1))}]"
        if kind == "part" and width > 1:
            lo = draw(st.integers(0, width - 1))
            hi = draw(st.integers(lo, width - 1))
            return f"{name}[{hi}:{lo}]"
        return name
    sub = _expr(leaves, depth - 1)
    form = draw(st.sampled_from(["bin", "bin", "bin", "un", "tern",
                                 "cat", "cast"]))
    if form == "bin":
        return f"({draw(sub)} {draw(st.sampled_from(_BINARY))} {draw(sub)})"
    if form == "un":
        return f"({draw(st.sampled_from(_UNARY))}{draw(sub)})"
    if form == "tern":
        return f"({draw(sub)} ? {draw(sub)} : {draw(sub)})"
    if form == "cat":
        return f"{{{draw(sub)}, {draw(sub)}}}"
    return f"{draw(st.sampled_from(['$signed', '$unsigned']))}({draw(sub)})"


@st.composite
def programs(draw):
    regs = [(f"r{i}", draw(st.integers(1, 70)), draw(st.booleans()))
            for i in range(draw(st.integers(2, 4)))]
    lines = []
    for name, width, signed in regs:
        init = draw(st.integers(0, (1 << width) - 1))
        lines.append(f"reg {_decl(signed, width)}{name} = {init};")
    # Initial processes run once, then the program is rebuilt without
    # them and becomes synthesizable.
    lines.append("reg [7:0] table_mem [0:3];")
    lines.append("initial begin")
    for k in range(4):
        lines.append(f"  table_mem[{k}] = {draw(st.integers(0, 255))};")
    lines.append("end")

    # An inlinable single-expression function and a constant case table.
    fx, fy = draw(st.integers(1, 40)), draw(st.integers(1, 8))
    lines.append(f"function [{fx - 1}:0] mix;")
    lines.append(f"  input [{fx - 1}:0] x;")
    lines.append(f"  input [{fy - 1}:0] y;")
    body = draw(_expr([("x", fx, False), ("y", fy, False)], depth=2))
    lines.append(f"  mix = {body};")
    lines.append("endfunction")
    lines.append("function [7:0] pick;")
    lines.append("  input [2:0] sel;")
    lines.append("  case (sel)")
    for k in range(draw(st.integers(1, 7))):
        lines.append(f"    3'd{k}: pick = 8'd{draw(st.integers(0, 255))};")
    lines.append(f"    default: pick = 8'd{draw(st.integers(0, 255))};")
    lines.append("  endcase")
    lines.append("endfunction")

    # An acyclic chain of wires, each reading registers and earlier wires.
    leaves = list(regs)
    assigns = []
    for i in range(draw(st.integers(2, 6))):
        width, signed = draw(st.integers(1, 70)), draw(st.booleans())
        rhs = draw(_expr(leaves))
        extra = draw(st.sampled_from(["", "mix", "pick", "mem"]))
        name, src_w, _ = draw(st.sampled_from(leaves))
        if extra == "mix":
            rhs = f"({rhs} ^ mix({name}, {draw(_expr(leaves, 1))}))"
        elif extra == "pick":
            rhs = f"({rhs} + pick({name}[{min(2, src_w - 1)}:0]))"
        elif extra == "mem":
            rhs = f"({rhs} - table_mem[{name}[{min(1, src_w - 1)}:0]])"
        lines.append(f"wire {_decl(signed, width)}w{i};")
        assigns.append(f"assign w{i} = {rhs};")
        leaves.append((f"w{i}", width, signed))
    lines.extend(draw(st.permutations(assigns)))

    # The interpreter runs an always @* block only once something it
    # reads changes; until then its target is x, which the two-state
    # compiled tiers cannot hold.  So the block reads a cycle counter,
    # and the clocked logic reads nothing on the first edge.
    lines.append("reg [7:0] cycles = 0;")

    # Ranged registers, read by wires through dynamic selects.  A read
    # stays in range: an out-of-range bit is x on the interpreter and 0
    # on the two-state tiers.
    ranged = []
    for i in range(draw(st.integers(1, 2))):
        decl, base = draw(_ranged(f"s{i}"))
        lines.append(decl)
        ranged.append(base)
    for i in range(draw(st.integers(1, 2))):
        index, select, width = draw(_select(draw(st.sampled_from(ranged)),
                                            f"xr{i}", writable=False))
        lines.extend([index, f"wire [{width - 1}:0] d{i} = {select};"])
        leaves.append((f"d{i}", width, False))
    # Each ranged register is written through a dynamic select, from a
    # select of one of them.
    writes = []
    for i, base in enumerate(ranged):
        index, target, _ = draw(_select(base, f"xw{i}", writable=True))
        source_index, source, _ = draw(_select(
            draw(st.sampled_from(ranged)), f"xs{i}", writable=False))
        lines.extend([index, source_index])
        writes.append((target, source))
    if draw(st.booleans()):
        width = draw(st.integers(1, 70))
        lines.append(f"reg [{width - 1}:0] cb;")
        lines.append("always @* begin")
        lines.append(f"  cb = {draw(_expr(leaves, 2))} + cycles;")
        lines.append(f"  if ({draw(_expr(leaves, 1))}) "
                     f"cb = {draw(_expr(leaves, 2))};")
        lines.append("end")
        leaves.append(("cb", width, False))

    # The clocked block: nonblocking register updates under if/else and
    # case, and a blocking loop over the array.
    lines.append("integer k;")
    lines.append("reg [15:0] acc = 0;")
    lines.append("always @(posedge clk.val) begin")
    lines.append("  cycles <= cycles + 1;")
    lines.append("  if (cycles != 0) begin")
    for name, _, _ in regs:
        form = draw(st.sampled_from(["plain", "if", "case"]))
        if form == "if":
            lines.append(f"    if ({draw(_expr(leaves, 2))}) "
                         f"{name} <= {draw(_expr(leaves))};")
            lines.append(f"    else {name} <= {draw(_expr(leaves))};")
        elif form == "case":
            lines.append(f"    case ({draw(_expr(leaves, 1))})")
            for k in range(draw(st.integers(1, 3))):
                lines.append(f"      {draw(_const())}: "
                             f"{name} <= {draw(_expr(leaves, 2))};")
            lines.append(f"      default: {name} <= {draw(_expr(leaves))};")
            lines.append("    endcase")
        else:
            lines.append(f"    {name} <= {draw(_expr(leaves))};")
    lines.append(f"    table_mem[{regs[0][0]}[0]] <= "
                 f"{draw(_expr(leaves, 1))};")
    for target, source in writes:
        lines.append(f"    {target} <= {source} ^ "
                     f"{draw(_expr(leaves, 1))};")
    lines.append("    acc = 0;")
    lines.append("    for (k = 0; k < 4; k = k + 1)")
    lines.append("      acc = acc + table_mem[k];")
    leaves.append(("acc", 16, False))
    shown = [name for name, _, _ in leaves] + \
        [name for name, _, _ in ranged]
    lines.append(f"    $display(\"{' '.join(['%h'] * len(shown))}\", "
                 f"{', '.join(shown)});")
    lines.append("  end")
    lines.append("end")
    lines.append(f"assign led.val = {draw(_expr(leaves, 1))};")
    return "\n".join(lines), draw(st.integers(0, 4000)) * 1e-6


def _inline_service(**kwargs):
    return CompileService(queue=CompileQueue(max_workers=0), **kwargs)


def _run(rt, src):
    rt.eval_source(src)
    rt.run(iterations=_ITERATIONS)
    return _snapshot(rt)


def _snapshot(rt):
    state = {name: (v.aval, v.bval) if not isinstance(v, list)
             else [(w.aval, w.bval) for w in v]
             for name, v in rt.engines["main"].get_state().items()}
    return {"lines": rt.output_lines[:], "ticks": rt.virtual_clock_ticks,
            "led": rt.board.leds.value, "state": state}


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(programs())
def test_tiers_agree_on_generated_programs(program):
    src, hw_latency_s = program
    interp = Runtime(enable_jit=False)
    ref = _run(interp, src)
    assert ref["lines"], "the clocked block never ran"

    fast = Runtime(compile_service=_inline_service(latency_scale=1e9))
    got = _run(fast, src)
    assert fast.engine_tiers()["main"] == "sw-fast"
    assert got == ref
    assert fast.time_model.now_ns == interp.time_model.now_ns

    hw = Runtime(compile_service=_inline_service(),
                 enable_sw_fastpath=False, enable_open_loop=False)
    with mock.patch.multiple(CompilerModel, base_s=hw_latency_s,
                             per_lut=0.0):
        got = _run(hw, src)
    assert hw.engine_tiers()["main"] == "hardware"
    assert got == ref

    # An open-loop batch may end past the iteration bound, so the
    # interpreter is run on to the same iteration count.
    ol = Runtime(compile_service=_inline_service(),
                 enable_sw_fastpath=False)
    with mock.patch.multiple(CompilerModel, base_s=hw_latency_s,
                             per_lut=0.0):
        got = _run(ol, src)
    assert ol._open_loop_active
    interp.run(iterations=ol.iterations - interp.iterations)
    assert got == _snapshot(interp)
