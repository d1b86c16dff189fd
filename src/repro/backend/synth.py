"""RTL synthesis: bit-blasting a Design into a LUT netlist.

This is the front half of the real compilation flow (the paper's §2.4
"synthesis tool ... transforms the program into an RTL-like IR
consisting of wires, logic gates, registers and state machines").  The
pass symbolically executes the design at the bit level:

* every variable becomes a vector of 1-bit nets;
* expressions lower to LUT cells (ripple-carry adders, mux trees,
  comparator/reduction trees, barrel shifters);
* procedural blocks execute symbolically — conditionals become per-bit
  multiplexers, loops with constant bounds unroll, functions inline;
* posedge blocks produce flip-flops clocked by the single global clock.

The output feeds placement, routing and timing analysis.  Constructs
outside the supported subset (memories, dynamic l-value indices,
division, multiple clock domains, system tasks) raise
:class:`SynthesisError` — callers fall back to the calibrated resource
estimator for those designs.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..common.errors import SynthesisError
from ..verilog import ast
from ..verilog.elaborate import Design
from ..verilog.sizing import Select
from .netlist import Netlist

__all__ = ["synthesize"]

_MUX_TRUTH = 0xE4        # mux(sel, a, b) = sel ? a : b, fanin [sel, b, a]
_XOR3 = 0x96             # full-adder sum
_MAJ3 = 0xE8             # full-adder carry

BitVec = List[str]       # net names, LSB first
Frame = Dict[str, Tuple[BitVec, bool]]   # name -> (bits, signed)


class _Synth:
    def __init__(self, design: Design, unroll_limit: int = 4096):
        self.design = design
        self.nl = Netlist(design.name)
        self.unroll_limit = unroll_limit
        self.env: Dict[str, BitVec] = {}

    # ------------------------------------------------------------------
    # Primitive gates (with constant folding)
    # ------------------------------------------------------------------
    def _const_of(self, net: str) -> Optional[int]:
        cell = self.nl.cells.get(net)
        if cell is not None and cell.kind == "CONST":
            return cell.value
        return None

    def lut(self, fanin: List[str], truth: int, hint: str = "l") -> str:
        """A LUT with constant propagation on known inputs."""
        # Fold constant inputs by shrinking the table.
        live: List[str] = []
        for i, net in enumerate(fanin):
            value = self._const_of(net)
            if value is None:
                live.append(net)
                continue
            new_truth = 0
            out_row = 0
            for row in range(1 << len(fanin)):
                if ((row >> i) & 1) != value:
                    continue
                bit = (truth >> row) & 1
                new_truth |= bit << out_row
                out_row += 1
            truth = new_truth
            fanin = fanin[:i] + fanin[i + 1:]
            return self.lut(fanin, truth, hint)
        if not fanin:
            return self.nl.add_const(truth & 1)
        if len(fanin) == 1 and truth == 0b10:
            return fanin[0]  # identity
        return self.nl.add_lut(fanin, truth, hint)

    def not_(self, a: str) -> str:
        return self.lut([a], 0b01, "not")

    def and_(self, a: str, b: str) -> str:
        return self.lut([a, b], 0b1000, "and")

    def or_(self, a: str, b: str) -> str:
        return self.lut([a, b], 0b1110, "or")

    def xor_(self, a: str, b: str) -> str:
        return self.lut([a, b], 0b0110, "xor")

    def xnor_(self, a: str, b: str) -> str:
        return self.lut([a, b], 0b1001, "xnor")

    def mux(self, sel: str, a: str, b: str) -> str:
        """sel ? a : b"""
        if a == b:
            return a
        return self.lut([sel, b, a], _MUX_TRUTH, "mux")

    def const_vec(self, value: int, width: int) -> BitVec:
        return [self.nl.add_const((value >> i) & 1) for i in range(width)]

    # ------------------------------------------------------------------
    # Vector helpers
    # ------------------------------------------------------------------
    def resize(self, vec: BitVec, width: int, signed: bool) -> BitVec:
        if len(vec) >= width:
            return vec[:width]
        pad = vec[-1] if signed and vec else self.nl.add_const(0)
        return vec + [pad] * (width - len(vec))

    def reduce_tree(self, nets: List[str], op) -> str:
        nets = list(nets)
        if not nets:
            return self.nl.add_const(0)
        while len(nets) > 1:
            nxt = []
            for i in range(0, len(nets) - 1, 2):
                nxt.append(op(nets[i], nets[i + 1]))
            if len(nets) % 2:
                nxt.append(nets[-1])
            nets = nxt
        return nets[0]

    def adder(self, a: BitVec, b: BitVec, carry_in: str) -> Tuple[BitVec,
                                                                  str]:
        out: BitVec = []
        carry = carry_in
        for ai, bi in zip(a, b):
            out.append(self.lut([ai, bi, carry], _XOR3, "sum"))
            carry = self.lut([ai, bi, carry], _MAJ3, "cry")
        return out, carry

    def vec_const(self, vec: BitVec) -> Optional[int]:
        value = 0
        for i, net in enumerate(vec):
            bit = self._const_of(net)
            if bit is None:
                return None
            value |= bit << i
        return value

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------
    def expr(self, e: ast.Expr, frame: Frame,
             need: Optional[int] = None) -> BitVec:
        """The low ``need`` bits (default: all) of ``e`` at its sized
        context.  Operators whose low result bits depend only on the
        low bits of their operands build no logic above ``need``."""
        ctx, signed = e.ctx_width, e.ctx_signed
        need = ctx if need is None else min(need, ctx)
        if isinstance(e, ast.Number):
            width = e.value.width
            value = e.value.to_int_xz(0) & ((1 << width) - 1)
            if signed and value >> (width - 1):
                value -= 1 << width
            return self.const_vec(value, need)
        if isinstance(e, ast.Ident):
            vec, _ = self._read(e.name, frame)
            return self.resize(vec, need, signed)
        if isinstance(e, ast.IndexExpr):
            return self.resize(self._index(e, frame), need, signed)
        if isinstance(e, ast.RangeExpr):
            return self.resize(self._range(e, frame), need, signed)
        if isinstance(e, ast.Unary):
            return self._unary(e, need, frame)
        if isinstance(e, ast.Binary):
            return self._binary(e, need, frame)
        if isinstance(e, ast.Ternary):
            cond = self._bool(e.cond, frame)
            t = self.expr(e.then, frame, need)
            f = self.expr(e.els, frame, need)
            return [self.mux(cond, a, b) for a, b in zip(t, f)]
        if isinstance(e, ast.Concat):
            parts = []
            for p in reversed(e.parts):
                parts.extend(self.expr(p, frame))
            return self.resize(parts, need, signed)
        if isinstance(e, ast.Repeat):
            inner = self.expr(e.inner, frame)
            return self.resize(inner * e.times, need, signed)
        if isinstance(e, ast.Call):
            return self._call(e, need, frame)
        raise SynthesisError(f"cannot synthesize {type(e).__name__}")

    def _read(self, name: str, frame: Frame) -> Tuple[BitVec, bool]:
        if name in frame:
            return frame[name]
        if name in self.env:
            var = self.design.vars[name]
            return self.env[name], var.signed
        raise SynthesisError(f"cannot synthesize read of {name!r}")

    def _bool(self, e: ast.Expr, frame: Frame) -> str:
        return self.reduce_tree(self.expr(e, frame), self.or_)

    def _known(self, e: ast.Expr, frame: Frame
               ) -> Tuple[BitVec, Optional[int]]:
        """``e``'s bits, and its value when every bit is a constant (a
        loop index after unrolling), else None."""
        vec = self.expr(e, frame)
        value = self.vec_const(vec)
        if value is not None and e.ctx_signed and value >> (len(vec) - 1):
            value -= 1 << len(vec)
        return vec, value

    def _base(self, e: ast.Expr, frame: Frame) -> BitVec:
        """The bits a select picks from."""
        if e.select.word:
            raise SynthesisError(
                "memories are not supported by the gate-level flow")
        if isinstance(e.base, ast.Ident):
            return self._read(e.base.name, frame)[0]
        return self.expr(e.base, frame)

    def _low(self, sel: Select, index: ast.Expr, frame: Frame
             ) -> Tuple[Optional[int], BitVec]:
        """A select's low position when it is known (a loop index after
        unrolling counts), else None with the index bits."""
        if sel.low is not None:
            return sel.low, []
        vec, value = self._known(index, frame)
        return (None if value is None else sel.at(value)), vec

    def _dynamic(self, sel: Select, index: ast.Expr) -> None:
        """Only a select whose map is the identity on an unsigned index
        maps to a shifter."""
        if (sel.step, sel.bias) != (1, 0) or index.ctx_signed:
            raise SynthesisError(
                "a dynamic select needs an unsigned index into a [n:0] "
                "range")

    def _index(self, e: ast.IndexExpr, frame: Frame) -> BitVec:
        vec = self._base(e, frame)
        low, idx = self._low(e.select, e.index, frame)
        if low is None:
            self._dynamic(e.select, e.index)
            return self._shift_dyn(vec, idx, left=False)[:1]
        return [vec[low] if 0 <= low < len(vec) else self.nl.add_const(0)]

    def _range(self, e: ast.RangeExpr, frame: Frame) -> BitVec:
        vec = self._base(e, frame)
        low, start = self._low(e.select, e.left, frame)
        if low is None:
            self._dynamic(e.select, e.left)
            return self._shift_dyn(vec, start, left=False)[:e.width]
        return [vec[i] if 0 <= i < len(vec) else self.nl.add_const(0)
                for i in range(low, low + e.width)]

    def _shift_dyn(self, vec: BitVec, amount: BitVec, left: bool) -> BitVec:
        """``vec`` shifted by ``amount`` with zeros in: a mux stage per
        amount bit, then the bits worth ``len(vec)`` or more clear it."""
        current = list(vec)
        zero = self.nl.add_const(0)
        for stage, sel in enumerate(amount):
            step = 1 << stage
            if step >= len(current):
                over = self.reduce_tree(amount[stage:], self.or_)
                return [self.mux(over, zero, bit) for bit in current]
            nxt = []
            for i in range(len(current)):
                j = i - step if left else i + step
                src = current[j] if 0 <= j < len(current) else zero
                nxt.append(self.mux(sel, src, current[i]))
            current = nxt
        return current

    def _unary(self, e: ast.Unary, need: int, frame: Frame) -> BitVec:
        op = e.op
        if op == "!":
            return self.resize([self.not_(self._bool(e.operand, frame))],
                               need, False)
        if op in ("&", "~&", "|", "~|", "^", "~^", "^~"):
            vec = self.expr(e.operand, frame)
            if op in ("&", "~&"):
                bit = self.reduce_tree(vec, self.and_)
            elif op in ("|", "~|"):
                bit = self.reduce_tree(vec, self.or_)
            else:
                bit = self.reduce_tree(vec, self.xor_)
            if op in ("~&", "~|", "~^", "^~"):
                bit = self.not_(bit)
            return self.resize([bit], need, False)
        vec = self.expr(e.operand, frame, need)
        if op == "~":
            return [self.not_(b) for b in vec]
        if op == "-":
            inverted = [self.not_(b) for b in vec]
            out, _ = self.adder(inverted, self.const_vec(0, need),
                                self.nl.add_const(1))
            return out
        if op == "+":
            return vec
        raise SynthesisError(f"cannot synthesize unary {op!r}")

    def _binary(self, e: ast.Binary, need: int, frame: Frame) -> BitVec:
        op = e.op
        if op in ("&&", "||"):
            a = self._bool(e.lhs, frame)
            b = self._bool(e.rhs, frame)
            bit = self.and_(a, b) if op == "&&" else self.or_(a, b)
            return self.resize([bit], need, False)
        if op in ("==", "!=", "===", "!=="):
            a = self.expr(e.lhs, frame)
            b = self.expr(e.rhs, frame)
            diff = [self.xor_(x, y) for x, y in zip(a, b)]
            neq = self.reduce_tree(diff, self.or_)
            bit = neq if op in ("!=", "!==") else self.not_(neq)
            return self.resize([bit], need, False)
        if op in ("<", "<=", ">", ">="):
            a = self.expr(e.lhs, frame)
            b = self.expr(e.rhs, frame)
            if e.lhs.ctx_signed:
                # Flip sign bits to reduce signed compare to unsigned.
                a = a[:-1] + [self.not_(a[-1])]
                b = b[:-1] + [self.not_(b[-1])]
            # a < b  <=>  carry out of (a + ~b + 1) is 0.
            inv_b = [self.not_(x) for x in b]
            _, carry = self.adder(a, inv_b, self.nl.add_const(1))
            lt = self.not_(carry)
            if op == "<":
                bit = lt
            elif op == ">=":
                bit = carry
            else:
                inv_a = [self.not_(x) for x in a]
                _, carry2 = self.adder(b, inv_a, self.nl.add_const(1))
                gt = self.not_(carry2)
                bit = gt if op == ">" else self.not_(gt)
            return self.resize([bit], need, False)
        if op in ("<<", "<<<", ">>", ">>>"):
            left = op in ("<<", "<<<")
            # Low result bits of a left shift need only low operand bits.
            vec = self.expr(e.lhs, frame, need if left else None)
            width = len(vec)
            amount = self.expr(e.rhs, frame)
            const = self.vec_const(amount)
            arith = op == ">>>" and e.ctx_signed
            zero = self.nl.add_const(0)
            if const is not None:
                fill = vec[-1] if arith else zero
                if const >= width:
                    out = [fill] * width
                elif left:
                    out = [zero] * const + vec[:width - const]
                else:
                    out = vec[const:] + [fill] * const
            elif arith:
                raise SynthesisError(
                    "dynamic arithmetic right shift is unsupported")
            else:
                out = self._shift_dyn(vec, amount, left)
            return out[:need]
        if op in ("+", "-"):
            a = self.expr(e.lhs, frame, need)
            b = self.expr(e.rhs, frame, need)
            if op == "-":
                b = [self.not_(x) for x in b]
                out, _ = self.adder(a, b, self.nl.add_const(1))
            else:
                out, _ = self.adder(a, b, self.nl.add_const(0))
            return out
        if op == "*":
            a = self.expr(e.lhs, frame, need)
            b = self.expr(e.rhs, frame, need)
            acc = self.const_vec(0, need)
            zero = self.nl.add_const(0)
            for i, bit in enumerate(b):
                if self._const_of(bit) == 0:
                    continue
                shifted = [zero] * i + a[:need - i]
                if self._const_of(bit) == 1:
                    addend = shifted
                else:
                    addend = [self.and_(bit, s) for s in shifted]
                acc, _ = self.adder(acc, addend, zero)
            return acc
        if op in ("&", "|", "^", "^~", "~^"):
            a = self.expr(e.lhs, frame, need)
            b = self.expr(e.rhs, frame, need)
            fn = {"&": self.and_, "|": self.or_, "^": self.xor_,
                  "^~": self.xnor_, "~^": self.xnor_}[op]
            return [fn(x, y) for x, y in zip(a, b)]
        raise SynthesisError(f"cannot synthesize binary {op!r}")

    def _call(self, e: ast.Call, need: int, frame: Frame) -> BitVec:
        name = e.name
        if name in ("$signed", "$unsigned"):
            return self.resize(self.expr(e.args[0], frame), need,
                               e.ctx_signed)
        if name.startswith("$"):
            raise SynthesisError(f"{name} cannot be synthesized")
        fn = self.design.functions.get(name)
        if fn is None:
            raise SynthesisError(f"unknown function {name!r}")
        new_frame: Frame = {}
        for port, arg in zip(fn.ports, e.args):
            new_frame[port.name] = (self.expr(arg, frame, port.width),
                                    port.signed)
        for var in fn.locals_ + [fn.ret]:
            new_frame[var.name] = (self.const_vec(0, var.width), var.signed)
        self._stmt(fn.body, new_frame, None)
        vec, _ = new_frame[fn.ret.name]
        return self.resize(vec, need, e.ctx_signed)

    # ------------------------------------------------------------------
    # Statements (symbolic execution)
    # ------------------------------------------------------------------
    def _stmt(self, stmt: Optional[ast.Stmt],
              frame: Dict[str, Tuple[BitVec, bool]],
              nba: Optional[Dict[str, BitVec]]) -> None:
        if stmt is None or isinstance(stmt, ast.NullStmt):
            return
        if isinstance(stmt, ast.Block):
            for sub in stmt.stmts:
                self._stmt(sub, frame, nba)
            return
        if isinstance(stmt, ast.BlockingAssign):
            self._assign(stmt.lhs, stmt.rhs, frame, None)
            return
        if isinstance(stmt, ast.NonblockingAssign):
            if nba is None:
                raise SynthesisError(
                    "nonblocking assignment outside a clocked block")
            self._assign(stmt.lhs, stmt.rhs, frame, nba)
            return
        if isinstance(stmt, ast.If):
            cond = self._bool(stmt.cond, frame)
            self._branch(cond, stmt.then, stmt.els, frame, nba)
            return
        if isinstance(stmt, ast.Case):
            self._case(stmt, frame, nba)
            return
        if isinstance(stmt, ast.For):
            self._for(stmt, frame, nba)
            return
        raise SynthesisError(
            f"{type(stmt).__name__} cannot be synthesized")

    def _snapshot(self, frame, nba):
        return (dict(frame), None if nba is None else dict(nba))

    def _fallback(self, name: str, frame):
        if name in frame:
            return frame[name]
        var = self.design.vars.get(name)
        if var is not None and name in self.env:
            return (self.env[name], var.signed)
        return None

    def _branch(self, cond: str, then: Optional[ast.Stmt],
                els: Optional[ast.Stmt], frame, nba) -> None:
        t_frame, t_nba = self._snapshot(frame, nba)
        self._stmt(then, t_frame, t_nba)
        f_frame, f_nba = self._snapshot(frame, nba)
        if els is not None:
            self._stmt(els, f_frame, f_nba)
        for name in set(t_frame) | set(f_frame):
            tv = t_frame.get(name) or self._fallback(name, frame)
            fv = f_frame.get(name) or self._fallback(name, frame)
            if tv is None or fv is None or tv[0] is fv[0]:
                chosen = tv or fv
                if chosen is None:
                    raise SynthesisError(
                        f"incomplete assignment to {name!r} infers a "
                        "latch (unsupported)")
                frame[name] = chosen
                continue
            merged = [self.mux(cond, a, b)
                      for a, b in zip(tv[0], fv[0])]
            frame[name] = (merged, tv[1])
        if nba is not None:
            for name in set(t_nba or ()) | set(f_nba or ()):
                tv = (t_nba or {}).get(name, nba.get(name))
                fv = (f_nba or {}).get(name, nba.get(name))
                if tv is None:
                    tv = self.env[name]
                if fv is None:
                    fv = self.env[name]
                if tv is fv:
                    nba[name] = tv
                    continue
                nba[name] = [self.mux(cond, a, b)
                             for a, b in zip(tv, fv)]

    def _case(self, stmt: ast.Case, frame, nba) -> None:
        sel = self.expr(stmt.expr, frame)

        def build(items: List[ast.CaseItem]) -> None:
            if not items:
                return
            item = items[0]
            if item.exprs is None:
                self._stmt(item.body, frame, nba)
                return
            tests = []
            for label_expr in item.exprs:
                label = self.expr(label_expr, frame)
                diff = [self.xor_(a, b) for a, b in zip(sel, label)]
                tests.append(self.not_(self.reduce_tree(diff, self.or_)))
            cond = self.reduce_tree(tests, self.or_)
            # then: item body; else: rest of the case.
            t_frame, t_nba = self._snapshot(frame, nba)
            self._stmt(item.body, t_frame, t_nba)
            f_frame, f_nba = self._snapshot(frame, nba)
            saved = (frame.copy(), None if nba is None else nba.copy())
            frame.clear()
            frame.update(f_frame)
            if nba is not None:
                nba.clear()
                nba.update(f_nba or {})
            build(items[1:])
            f_frame2 = dict(frame)
            f_nba2 = None if nba is None else dict(nba)
            frame.clear()
            frame.update(saved[0])
            if nba is not None:
                nba.clear()
                nba.update(saved[1] or {})
            for name in set(t_frame) | set(f_frame2):
                tv = t_frame.get(name, frame.get(name))
                fv = f_frame2.get(name, frame.get(name))
                if tv is None or fv is None or tv[0] is fv[0]:
                    if tv is not None:
                        frame[name] = tv
                    continue
                frame[name] = ([self.mux(cond, a, b)
                                for a, b in zip(tv[0], fv[0])], tv[1])
            if nba is not None:
                for name in set(t_nba or ()) | set(f_nba2 or ()):
                    tv = (t_nba or {}).get(name) or nba.get(name) \
                        or self.env[name]
                    fv = (f_nba2 or {}).get(name) or nba.get(name) \
                        or self.env[name]
                    nba[name] = [self.mux(cond, a, b)
                                 for a, b in zip(tv, fv)]

        if stmt.kind != "case":
            raise SynthesisError(
                "casez/casex are not supported by the gate-level flow")
        build(stmt.items)

    def _for(self, stmt: ast.For, frame, nba) -> None:
        self._assign(stmt.init.lhs, stmt.init.rhs, frame, None)
        for _ in range(self.unroll_limit):
            cond = self.vec_const(self.expr(stmt.cond, frame))
            if cond is None:
                raise SynthesisError(
                    "loop conditions must be compile-time constant "
                    "for unrolling")
            if cond == 0:
                return
            self._stmt(stmt.body, frame, nba)
            self._assign(stmt.step.lhs, stmt.step.rhs, frame, None)
        raise SynthesisError("loop unroll limit exceeded")

    def _assign(self, lhs: ast.Expr, rhs: ast.Expr, frame,
                nba: Optional[Dict[str, BitVec]]) -> None:
        self._store(lhs, self.expr(rhs, frame, lhs.width), frame, nba)

    def _store(self, lhs: ast.Expr, value: BitVec, frame,
               nba: Optional[Dict[str, BitVec]]) -> None:
        if isinstance(lhs, ast.Concat):
            pos = lhs.width
            for part in lhs.parts:
                w = part.width
                pos -= w
                chunk = [value[pos + i] if pos + i < len(value)
                         else self.nl.add_const(0) for i in range(w)]
                self._store(part, chunk, frame, nba)
            return
        if isinstance(lhs, ast.Ident):
            self._store_name(lhs.name, value, frame, nba)
            return
        if isinstance(lhs, (ast.IndexExpr, ast.RangeExpr)):
            base = lhs.base
            if not isinstance(base, ast.Ident):
                raise SynthesisError("unsupported nested l-value")
            if lhs.select.word:
                raise SynthesisError(
                    "memories are not supported by the gate-level flow")
            low, _ = self._low(lhs.select, lhs.index if isinstance(
                lhs, ast.IndexExpr) else lhs.left, frame)
            if low is None:
                raise SynthesisError("expected a constant expression")
            new, _ = self._read_for_store(base.name, frame, nba)
            new = list(new)
            for i in range(max(low, 0), min(low + lhs.width, len(new))):
                new[i] = value[i - low] if i - low < len(value) \
                    else self.nl.add_const(0)
            self._store_name(base.name, new, frame, nba)
            return
        raise SynthesisError(f"invalid l-value {type(lhs).__name__}")

    def _read_for_store(self, name: str, frame, nba):
        if name in frame:
            return frame[name]
        if nba is not None and name in nba:
            var = self.design.vars[name]
            return nba[name], var.signed
        return self._read(name, frame)

    def _store_name(self, name: str, value: BitVec, frame,
                    nba: Optional[Dict[str, BitVec]]) -> None:
        if name in frame:
            width = len(frame[name][0])
            signed = frame[name][1]
            frame[name] = (self.resize(value, width, signed), signed)
            return
        var = self.design.vars.get(name)
        if var is None:
            raise SynthesisError(f"assignment to unknown {name!r}")
        vec = self.resize(value, var.width, var.signed)
        if nba is not None:
            nba[name] = vec
        else:
            # Blocking writes are frame-mediated so branch execution can
            # merge them with multiplexers; exec_proc commits to env.
            frame[name] = (vec, var.signed)

def synthesize(design: Design) -> Netlist:
    """Bit-blast a design into a 4-LUT + FF netlist.

    Sequential blocks must all be sensitive to the posedge of a single
    clock input; combinational always blocks and continuous assigns
    lower to pure LUT logic.  Registers assigned with ``<=`` in clocked
    blocks become flip-flops; everything else is combinational.
    """
    from ..verilog.visitor import walk
    from .netlist import Cell, FF

    s = _Synth(design)
    nl = s.nl

    # Partition always blocks and find the (single) clock.
    comb_blocks = []
    seq_blocks = []
    clock_names = set()
    for block in design.always:
        if block.ctrl is None:
            raise SynthesisError(
                "always without event control cannot be synthesized")
        if block.ctrl.star or all(i.edge is None
                                  for i in block.ctrl.items):
            comb_blocks.append(block)
            continue
        for item in block.ctrl.items:
            if item.edge != "posedge" or not isinstance(item.expr,
                                                        ast.Ident):
                raise SynthesisError(
                    "only single-clock posedge logic is supported by "
                    "the gate-level flow")
            clock_names.add(item.expr.name)
        seq_blocks.append(block)
    if len(clock_names) > 1:
        raise SynthesisError("multiple clock domains are unsupported")
    if design.initials:
        raise SynthesisError("initial blocks cannot be synthesized")

    for var in design.vars.values():
        if var.is_array:
            raise SynthesisError(
                "memories are not supported by the gate-level flow")
        if var.direction == "input" and var.name not in clock_names:
            if var.width == 1:
                s.env[var.name] = [nl.add_input(var.name)]
            else:
                s.env[var.name] = [nl.add_input(f"{var.name}[{i}]")
                                   for i in range(var.width)]

    # Flip-flops: the nonblocking targets of clocked blocks.
    ff_targets = set()
    for block in seq_blocks:
        for node in walk(block):
            if isinstance(node, ast.NonblockingAssign):
                for ident in _lvalue_bases(node.lhs):
                    ff_targets.add(ident)
    ff_names: Dict[str, List[str]] = {}
    for name in sorted(ff_targets):
        var = design.vars.get(name)
        if var is None:
            raise SynthesisError(f"nonblocking target {name!r} unknown")
        qs = [f"{name}.q[{i}]" for i in range(var.width)]
        for q in qs:
            nl.add(Cell(q, FF, [q]))  # D rewired after next-state calc
        ff_names[name] = qs
        s.env[name] = qs

    def exec_proc(body, nba=None):
        frame: Dict[str, Tuple[BitVec, bool]] = {}
        s._stmt(body, frame, nba)
        for name, (vec, _signed) in frame.items():
            if name in design.vars:
                s.env[name] = vec

    # Continuous assigns and comb blocks, iterated to dependency order.
    pending = list(design.assigns)
    comb_pending = list(comb_blocks)
    guard = len(pending) + len(comb_pending) + 2
    while (pending or comb_pending) and guard:
        guard -= 1
        still = []
        for assign in pending:
            snapshot = dict(s.env)
            frame: Dict[str, Tuple[BitVec, bool]] = {}
            try:
                s._assign(assign.lhs, assign.rhs, frame, None)
            except SynthesisError as exc:
                if "cannot synthesize read of" in str(exc):
                    s.env = snapshot
                    still.append(assign)
                    continue
                raise
            for name, (vec, _sg) in frame.items():
                if name in design.vars:
                    s.env[name] = vec
        pending = still
        still_blocks = []
        for block in comb_pending:
            snapshot = dict(s.env)
            try:
                exec_proc(block.body)
            except SynthesisError as exc:
                if "cannot synthesize read of" in str(exc):
                    s.env = snapshot
                    still_blocks.append(block)
                    continue
                raise
        comb_pending = still_blocks
    if pending or comb_pending:
        raise SynthesisError(
            "combinational dependency cycle or unresolved names in "
            "gate-level synthesis")

    # Sequential blocks: compute next-state vectors into `nba`.
    nba: Dict[str, List[str]] = {}
    for block in seq_blocks:
        exec_proc(block.body, nba)
    for name, qs in ff_names.items():
        var = design.vars[name]
        next_vec = s.resize(nba.get(name, qs), var.width, var.signed)
        for i, q in enumerate(qs):
            nl.cells[q].fanin[0] = next_vec[i]

    for var in design.vars.values():
        if var.direction == "output":
            vec = s.env.get(var.name)
            if vec is None:
                continue
            for i, net in enumerate(vec):
                nl.set_output(f"{var.name}[{i}]" if var.width > 1
                              else var.name, net)
    return nl


def _lvalue_bases(lhs: ast.Expr) -> List[str]:
    if isinstance(lhs, ast.Ident):
        return [lhs.name]
    if isinstance(lhs, (ast.IndexExpr, ast.RangeExpr)):
        return _lvalue_bases(lhs.base)
    if isinstance(lhs, ast.Concat):
        out = []
        for p in lhs.parts:
            out.extend(_lvalue_bases(p))
        return out
    return []
