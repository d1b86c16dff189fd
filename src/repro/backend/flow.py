"""The full compilation flow: synth -> place -> route -> timing.

This is the real (slow, NP-hard) path our Quartus stand-in can take for
designs small enough to place and route in Python; the compile service
uses it for exact area/Fmax numbers and failure detection, and the
calibrated estimator for everything larger.

The back half of the flow (place/route/timing) is a pure function of
``(netlist, device, seed, effort, hint)``, so it can be shipped to the
process-pool *flow lane* (:func:`repro.backend.compilequeue
.shared_flow_queue`) as a compact picklable payload and run outside the
GIL.  Cold compiles fan out *multi-start annealing* — K candidate
placements from seeds ``seed, seed+1, …, seed+K-1`` — and keep the
winner by ``(cost, seed)``, a total order that makes the result
identical no matter how many workers raced or in which order they
finished.  Warm-started compiles keep the existing single-start quench:
they already begin near an optimum, so extra starts would only discard
the hint.
"""

from __future__ import annotations

import time
from concurrent.futures import BrokenExecutor
from typing import Dict, List, Optional, Tuple

from ..verilog.elaborate import Design
from .fabric import Device, device_for
from .netlist import Netlist
from .place import Placement, place
from .route import RoutingResult, route
from .synth import synthesize
from .timing import TimingReport, analyze_timing

__all__ = ["FlowReport", "run_flow"]


class FlowReport:
    """Everything the flow learned about a design."""

    def __init__(self, design: Design, netlist: Netlist,
                 placement: Placement, routing: RoutingResult,
                 timing: TimingReport, device: Device,
                 wall_seconds: float, starts: int = 1,
                 phase_seconds: Optional[Dict[str, float]] = None):
        self.design = design
        self.netlist = netlist
        self.placement = placement
        self.routing = routing
        self.timing = timing
        self.device = device
        self.wall_seconds = wall_seconds
        #: How many annealing starts competed for this placement.
        self.starts = starts
        #: Host seconds per flow phase (synth on the orchestrating
        #: thread; place/route/timing measured *inside* the winning
        #: candidate's worker, so the numbers are true even when the
        #: work ran in a flow-lane process).
        self.phase_seconds: Dict[str, float] = dict(phase_seconds or {})

    @property
    def luts(self) -> int:
        return self.netlist.count("LUT")

    @property
    def ffs(self) -> int:
        return self.netlist.count("FF")

    @property
    def fmax_mhz(self) -> float:
        return self.timing.fmax_mhz

    @property
    def success(self) -> bool:
        return self.routing.routed and self.timing.meets_timing

    def summary(self) -> str:
        return (f"{self.design.name}: {self.luts} LUTs, {self.ffs} FFs, "
                f"Fmax {self.fmax_mhz:.1f} MHz on {self.device.name} "
                f"({'OK' if self.success else 'FAILED'})")


def _pr_candidate(netlist_payload: tuple, device_payload: tuple,
                  seed: int, effort: float, initial
                  ) -> Tuple[Placement, RoutingResult, TimingReport,
                             Dict[str, float]]:
    """One complete place/route/timing candidate.

    Module-level and built entirely from compact payloads so it can run
    in a flow-lane worker *process*; every return value pickles.  Each
    candidate routes and times its own placement — route cost is small
    next to annealing, and the winner arrives fully analyzed in a
    single round trip.  The trailing dict is per-phase host seconds
    measured inside the worker (plain floats, so they cross the
    process boundary and feed compile-phase trace events).
    """
    netlist = Netlist.from_payload(netlist_payload)
    device = Device.from_payload(device_payload)
    t0 = time.perf_counter()
    placement = place(netlist, device, seed=seed, effort=effort,
                      initial=initial)
    t1 = time.perf_counter()
    routing = route(netlist, placement, device)
    t2 = time.perf_counter()
    timing = analyze_timing(netlist, placement, device)
    t3 = time.perf_counter()
    phases = {"place_s": t1 - t0, "route_s": t2 - t1,
              "timing_s": t3 - t2}
    return placement, routing, timing, phases


def run_flow(design: Design, device: Optional[Device] = None,
             seed: int = 1, effort: float = 1.0,
             placement_cache=None,
             warm_effort: float = 0.35,
             starts: int = 1, pool=None) -> FlowReport:
    """Run the complete flow on a design.

    Raises SynthesisError for constructs outside the gate-level subset;
    routing overflow and timing failure are *reported*, not raised, so
    callers can inspect partial results (use ``report.timing.check()``
    to enforce closure).

    ``placement_cache`` (a :class:`repro.backend.cache.PlacementCache`)
    enables warm-start placement: when a previous placement exists for
    the same netlist shape, annealing is seeded from it at
    ``warm_effort`` instead of ``effort`` from a random start.  Only
    placements whose flow *succeeded* are stored back — a layout that
    overflowed routing or missed timing would poison every later warm
    start with a known-bad seed.

    ``starts`` > 1 anneals that many seeds (``seed`` … ``seed+K-1``)
    and keeps the best placement by ``(cost, seed)``.  ``pool`` (a
    :class:`~repro.backend.compilequeue.CompileQueue`, normally the
    process-kind flow lane) fans the candidates out; ``pool=None`` runs
    them inline on the caller's thread.  The report is bit-identical
    either way — worker count, lane kind, and completion order cannot
    change which candidate wins.
    """
    start = time.perf_counter()
    netlist = synthesize(design)
    synth_s = time.perf_counter() - start
    if device is None:
        cells = netlist.count("LUT") + netlist.count("FF")
        device = device_for(max(cells, 16))
    hint = None
    signature = None
    if placement_cache is not None:
        signature = placement_cache.signature(netlist, device)
        hint = placement_cache.lookup(signature)
    if hint is not None:
        # Warm start: single-start quench from the previous optimum.
        plan = [(seed, warm_effort, hint)]
    else:
        plan = [(seed + k, effort, None) for k in range(max(starts, 1))]

    outcomes = _run_candidates(netlist, device, plan, pool)
    placement, routing, timing, winner_phases = min(
        outcomes, key=lambda o: (o[0].cost, o[0].seed))

    wall = time.perf_counter() - start
    phase_seconds = dict(winner_phases, synth_s=synth_s)
    report = FlowReport(design, netlist, placement, routing, timing,
                        device, wall, starts=len(plan),
                        phase_seconds=phase_seconds)
    if placement_cache is not None and signature is not None \
            and report.success:
        placement_cache.store(signature, placement.locations)
    return report


def _run_candidates(netlist: Netlist, device: Device,
                    plan: List[Tuple[int, float, Optional[dict]]], pool
                    ) -> List[Tuple[Placement, RoutingResult,
                                    TimingReport, Dict[str, float]]]:
    """Fan the candidate plan across ``pool`` (or run inline)."""
    np_, dp = netlist.to_payload(), device.to_payload()
    if pool is None:
        return [_pr_candidate(np_, dp, s, e, h) for s, e, h in plan]
    futures = [pool.submit(_pr_candidate, np_, dp, s, e, h)
               for s, e, h in plan]
    outcomes = []
    for future, (s, e, h) in zip(futures, plan):
        try:
            outcomes.append(future.result())
        except BrokenExecutor:
            # A killed worker breaks the whole process pool.  The
            # candidate is a pure function: degrade the lane to threads
            # and run it there, once.  Any other exception is a bug in
            # the candidate and fails the compile.
            pool.degrade()
            outcomes.append(pool.submit(_pr_candidate, np_, dp, s, e,
                                        h).result())
    return outcomes
