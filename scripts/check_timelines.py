#!/usr/bin/env python
"""Virtual-time regression gate for the Figure 11 and Figure 12 timelines.

Computes ``measure_pow_timeline()`` and ``measure_regex_timeline()`` once
(about a minute) and checks that every ``as_dict()`` field equals the
pinned value below.  Virtual time is a function of the program and the
performance model alone, so a scheduler or data-plane change that moves
any of these numbers has changed what the runtime charges.

Exit status is non-zero on any mismatch.

Usage::

    PYTHONPATH=src python scripts/check_timelines.py
"""

import sys

from repro.perf.figures import measure_pow_timeline, measure_regex_timeline

PINNED = {
    "fig11": {
        "startup_s": 0.00061704,
        "cascade_sim_hz": 2019.2230029884504,
        "cascade_hw_hz": 24344216.24964089,
        "cascade_compile_s": 1298.390413724951,
        "iverilog_hz": 1156.2832431432403,
        "native_hz": 50000000.0,
        "quartus_compile_s": 605.5219733142578,
        "spatial_overhead": 2.7177368086458995,
        "horizon_s": 900.0,
        "luts_base": 3146,
        "luts_instrumented": 8550,
    },
    "fig12": {
        "startup_s": 0.00050604,
        "cascade_sim_io_s": 56.82509227432625,
        "cascade_hw_io_s": 542108.1086550818,
        "cascade_compile_s": 570.2981818265032,
        "quartus_io_s": 555000.0,
        "quartus_compile_s": 439.7387868050688,
        "spatial_overhead": 1.4237371260421776,
        "horizon_s": 900.0,
        "dfa_states": 12,
        "luts_base": 2039,
        "luts_instrumented": 2903,
    },
}


def main() -> int:
    measured = {"fig11": measure_pow_timeline().as_dict(),
                "fig12": measure_regex_timeline().as_dict()}
    failures = []
    for figure, pinned in PINNED.items():
        fields = measured[figure]
        if set(fields) != set(pinned):
            failures.append(f"{figure}: fields {sorted(fields)} != "
                            f"{sorted(pinned)}")
        for name, want in pinned.items():
            got = fields.get(name)
            status = "ok" if got == want else "MISMATCH"
            print(f"{figure}.{name}: {got!r} (pinned {want!r}) {status}")
            if got != want:
                failures.append(f"{figure}.{name}: {got!r} != {want!r}")
    for line in failures:
        print("FAIL", line, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
