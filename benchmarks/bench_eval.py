"""Eval-to-running latency as a REPL program grows (paper §3.1).

In one session, eval N appends

    reg [31:0] rN = N; always @(posedge clk.val) rN <= rN + N+1;

to the root module and then runs two scheduler iterations.  The host
time from handing the text to the runtime to the end of those
iterations is what the user waits for after each eval.  The report
gives it at 10, 100 and 300 root items, each as the median of the five
evals that end there, plus the host record::

    PYTHONPATH=src python benchmarks/bench_eval.py [--items 300]

``--smoke`` runs 20 evals and checks the front end's shape instead of
its speed.  It wraps ``copy.deepcopy``, ``elaborate_leaf`` and
``size_design`` wherever the package binds them, and exits non-zero if
an eval deep-copies, elaborates a printed leaf module, or sizes a user
subprogram's design other than exactly once::

    PYTHONPATH=src python benchmarks/bench_eval.py --smoke
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import platform
import statistics
import sys
import time
from collections import Counter
from typing import Callable, Dict, List

from repro.core.runtime import Runtime
from repro.verilog import elaborate as elaborate_mod
from repro.verilog import sizing as sizing_mod

REPORT_AT = (10, 100, 300)
WINDOW = 5
SMOKE_EVALS = 20


def item(n: int) -> str:
    return (f"reg [31:0] r{n} = {n};\n"
            f"always @(posedge clk.val) r{n} <= r{n} + {n + 1};\n")


def host() -> Dict[str, object]:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"cores": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(),
            "platform": platform.platform()}


def eval_once(rt: Runtime, n: int) -> float:
    t0 = time.perf_counter()
    rt.eval_source(item(n))
    rt.run(iterations=2)
    return time.perf_counter() - t0


def measure(items: int) -> Dict[str, object]:
    rt = Runtime()
    seconds: List[float] = [eval_once(rt, n) for n in range(1, items + 1)]
    rt.compiler.cancel_all()
    report = {str(n): round(statistics.median(seconds[n - WINDOW:n]) * 1e3,
                            2)
              for n in REPORT_AT if n <= items}
    return {"eval_ms_at_items": report,
            "total_s": round(sum(seconds), 2), "items": items}


# ----------------------------------------------------------------------
# --smoke: one flattening, one elaboration
# ----------------------------------------------------------------------
def _wrap_everywhere(name: str, original: Callable,
                     wrapper: Callable) -> None:
    """Rebind every module-level ``name`` in the package that is
    ``original``."""
    for module in list(sys.modules.values()):
        if module is not None and \
                getattr(module, "__name__", "").startswith("repro") and \
                vars(module).get(name) is original:
            setattr(module, name, wrapper)


def smoke() -> List[str]:
    calls: Counter = Counter()
    sized: Counter = Counter()
    designs: Dict[int, object] = {}   # keeps ids unique while counting

    real_deepcopy = copy.deepcopy

    def deepcopy(*args, **kwargs):
        calls["copy.deepcopy"] += 1
        return real_deepcopy(*args, **kwargs)

    real_leaf = elaborate_mod.elaborate_leaf

    def elaborate_leaf(*args, **kwargs):
        calls["elaborate_leaf"] += 1
        return real_leaf(*args, **kwargs)

    real_size = sizing_mod.size_design

    def size_design(design):
        designs[id(design)] = design
        sized[id(design)] += 1
        return real_size(design)

    rt = Runtime()
    copy.deepcopy = deepcopy
    _wrap_everywhere("elaborate_leaf", real_leaf, elaborate_leaf)
    _wrap_everywhere("size_design", real_size, size_design)
    faults: List[str] = []
    try:
        for n in range(1, SMOKE_EVALS + 1):
            calls.clear()
            eval_once(rt, n)
            for what, count in sorted(calls.items()):
                faults.append(f"eval {n}: {count} call(s) to {what}")
            for sub in rt.program.user_subprograms():
                times = sized[id(sub.design)]
                if times != 1:
                    faults.append(f"eval {n}: design of {sub.name} sized "
                                  f"{times} time(s)")
        faults.extend(f"a design was sized {times} times"
                      for times in sized.values() if times > 1)
    finally:
        copy.deepcopy = real_deepcopy
        _wrap_everywhere("elaborate_leaf", elaborate_leaf, real_leaf)
        _wrap_everywhere("size_design", size_design, real_size)
        rt.compiler.cancel_all()
    return faults


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--items", type=int, default=max(REPORT_AT),
                        help="root items to append, one per eval")
    parser.add_argument("--smoke", action="store_true",
                        help="check the front end's shape over "
                             f"{SMOKE_EVALS} evals instead of timing")
    args = parser.parse_args()
    if args.smoke:
        faults = smoke()
        for fault in faults:
            print(fault)
        print(f"{SMOKE_EVALS} evals: "
              + ("FAILED" if faults else "no deep copy, no leaf "
                 "elaboration, each design sized once"))
        return 1 if faults else 0
    print(json.dumps({"host": host(), **measure(args.items)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
