"""Placement by simulated annealing.

Lowering RTL onto fabric "amounts to constraint satisfaction, a known
NP-hard problem" (§1) — this is the stage that makes FPGA compilation
slow, and the reason the JIT has something to hide.  The placer assigns
every LUT/FF cell to a logic element on the device grid and every
INPUT/OUTPUT to a perimeter pad, minimising total half-perimeter
wirelength under an exponential cooling schedule.

:func:`place` is an array-based kernel: cells are integer indices,
coordinates live in flat lists, and every net caches its bounding box,
updated incrementally on each move (a from-scratch rescan happens only
when a moved cell sat on the box boundary or a swap touched the net
twice).  Rejected moves restore the saved boxes instead of recomputing
them.

:func:`_place_reference` is the original dict-of-lists implementation
that rebuilds coordinate lists per affected net per move.  It is kept
only as the differential oracle of the tests: both kernels draw the
same random-number sequence and make bit-identical accept/reject
decisions, so their placements must match exactly.
"""

from __future__ import annotations

import math
import random
from typing import Dict, List, Optional, Tuple

from ..common.errors import PlacementError
from .fabric import Device
from .netlist import Netlist

__all__ = ["Placement", "place"]

Coord = Tuple[int, int]


class Placement:
    """A cell -> grid-coordinate assignment plus quality metrics."""

    def __init__(self, locations: Dict[str, Coord], cost: float,
                 moves_tried: int, moves_accepted: int,
                 warm_started: bool = False, seed: Optional[int] = None):
        self.locations = locations
        self.cost = cost
        self.moves_tried = moves_tried
        self.moves_accepted = moves_accepted
        self.warm_started = warm_started
        #: The annealing seed that produced this placement (lets
        #: multi-start winners stay attributable and reproducible).
        self.seed = seed

    def location(self, cell: str) -> Coord:
        return self.locations[cell]


def _net_bboxes(netlist: Netlist) -> List[List[str]]:
    """Each net as the list of cells it touches (driver + sinks)."""
    nets = []
    table = netlist.nets()
    for name, net in table.items():
        cells = [name] + [s for s in net.sinks if not s.startswith("out:")]
        if len(cells) > 1:
            nets.append(cells)
    return nets


def _hpwl(cells: List[str], locations: Dict[str, Coord]) -> int:
    xs = [locations[c][0] for c in cells]
    ys = [locations[c][1] for c in cells]
    return (max(xs) - min(xs)) + (max(ys) - min(ys))


def _initial_locations(netlist: Netlist, device: Device, rng: random.Random,
                       initial: Optional[Dict[str, Coord]]
                       ) -> Tuple[Dict[str, Coord], List[str], List[Coord],
                                  bool]:
    """The shared setup of both kernels: fit checks, the (possibly
    warm-started) initial placement, perimeter IO pads and the free-site
    pool.  Consumes RNG state identically for both kernels."""
    placeable = [name for name, cell in netlist.cells.items()
                 if cell.kind in ("LUT", "FF")]
    ios = [name for name, cell in netlist.cells.items()
           if cell.kind == "INPUT"]
    if len(placeable) > device.logic_elements:
        raise PlacementError(
            f"design needs {len(placeable)} logic elements but "
            f"{device.name} has {device.logic_elements}")
    if len(ios) > device.io_pads:
        raise PlacementError(
            f"design needs {len(ios)} pads but {device.name} has "
            f"{device.io_pads}")

    # Initial placement: cells row-major, IOs around the perimeter,
    # constants at the origin corner (they cost no routing in practice).
    locations: Dict[str, Coord] = {}
    sites = [(x, y) for y in range(device.height)
             for x in range(device.width)]
    rng.shuffle(sites)
    warm_started = False
    if initial:
        valid = set(sites)
        claimed = set()
        for cell in placeable:
            loc = initial.get(cell)
            if loc is not None:
                loc = (loc[0], loc[1])
                if loc in valid and loc not in claimed:
                    locations[cell] = loc
                    claimed.add(loc)
        # A seed that covers less than half the cells is noise, not a
        # warm start — fall back to the random initial placement.
        warm_started = len(locations) * 2 > len(placeable)
        if not warm_started:
            locations.clear()
    if warm_started:
        claimed = set(locations.values())
        open_sites = [s for s in sites if s not in claimed]
        rest = [c for c in placeable if c not in locations]
        for cell, site in zip(rest, open_sites):
            locations[cell] = site
        free_sites = open_sites[len(rest):]
    else:
        for cell, site in zip(placeable, sites):
            locations[cell] = site
        free_sites = sites[len(placeable):]
    perimeter = _perimeter(device)
    stride = max(1, len(perimeter) // max(len(ios), 1))
    for i, io in enumerate(ios):
        locations[io] = perimeter[(i * stride) % len(perimeter)]
    for name, cell in netlist.cells.items():
        if cell.kind == "CONST":
            locations[name] = (0, 0)
    return locations, placeable, free_sites, warm_started


def _schedule(cost: float, n: int, effort: float, warm_started: bool
              ) -> Tuple[int, float, float, int]:
    """(move budget, initial temperature, cooling rate, moves/temp)."""
    moves_total = int(effort * 40 * n * max(math.log(n + 1), 1.0))
    # Warm starts begin near a previous optimum: a high initial
    # temperature would only scramble it, so quench instead of melt.
    temp_scale = 0.15 if warm_started else 2.0
    temperature = max(cost / max(n, 1), 1.0) * temp_scale
    return moves_total, temperature, 0.95, max(10 * n, 100)


def place(netlist: Netlist, device: Device, seed: int = 1,
          effort: float = 1.0,
          initial: Optional[Dict[str, Coord]] = None) -> Placement:
    """Anneal a placement; raises :class:`PlacementError` when the
    design does not fit the device.

    ``initial`` warm-starts annealing: cells named in it keep their
    previous grid site (when valid and unclaimed) instead of a random
    one, so a recompile of a near-identical netlist begins near the old
    optimum.  Callers typically combine it with a reduced ``effort``.

    The result is a pure function of ``(netlist, device, seed, effort,
    initial)``: any host (thread, process, inline) produces a
    bit-identical placement.
    """
    rng = random.Random(seed)
    locations, placeable, free_sites, warm_started = \
        _initial_locations(netlist, device, rng, initial)

    # ---- flatten everything the hot loop touches into arrays --------
    names = list(locations)                 # index -> cell name
    index = {name: i for i, name in enumerate(names)}
    loc_x = [locations[name][0] for name in names]
    loc_y = [locations[name][1] for name in names]
    pl_idx = [index[name] for name in placeable]

    net_cells: List[List[int]] = []
    for net in _net_bboxes(netlist):
        members = [index[c] for c in net if c in index]
        if len(members) > 1:
            net_cells.append(members)
    cell_nets: List[List[int]] = [[] for _ in names]
    for t, members in enumerate(net_cells):
        for c in members:
            cell_nets[c].append(t)

    n_nets = len(net_cells)
    bb_lox = [0] * n_nets
    bb_hix = [0] * n_nets
    bb_loy = [0] * n_nets
    bb_hiy = [0] * n_nets
    net_cost = [0] * n_nets
    for t, members in enumerate(net_cells):
        xs = [loc_x[c] for c in members]
        ys = [loc_y[c] for c in members]
        bb_lox[t], bb_hix[t] = min(xs), max(xs)
        bb_loy[t], bb_hiy[t] = min(ys), max(ys)
        net_cost[t] = (bb_hix[t] - bb_lox[t]) + (bb_hiy[t] - bb_loy[t])
    cost = float(sum(net_cost))

    n = max(len(placeable), 1)
    moves_total, temperature, cooling, moves_per_temp = \
        _schedule(cost, n, effort, warm_started)
    tried = accepted = 0

    # Per-move scratch: nets touched this move, with their saved state
    # (epoch stamps avoid building a set per move).
    mark = [0] * n_nets
    epoch = 0
    rng_random = rng.random
    rng_choice = rng.choice
    exp = math.exp

    while tried < moves_total and temperature > 0.005:
        for _ in range(min(moves_per_temp, moves_total - tried)):
            tried += 1
            a = rng_choice(pl_idx)
            ax, ay = loc_x[a], loc_y[a]
            if free_sites and rng_random() < 0.3:
                idx = rng.randrange(len(free_sites))
                nx, ny = free_sites[idx]
                free_sites[idx] = (ax, ay)
                loc_x[a], loc_y[a] = nx, ny
                b = -1
                free_swap = idx
            else:
                b = rng_choice(pl_idx)
                if a == b:
                    continue
                nx, ny = loc_x[b], loc_y[b]
                loc_x[b], loc_y[b] = ax, ay
                loc_x[a], loc_y[a] = nx, ny
                free_swap = -1

            # Delta over affected nets, bounding boxes updated in place.
            epoch += 1
            delta = 0
            touched: List[Tuple[int, int, int, int, int, int]] = []
            single = b < 0
            for moved in ((a,) if single else (a, b)):
                for t in cell_nets[moved]:
                    if mark[t] == epoch:
                        # A net joining both swapped cells: its box is
                        # unchanged by exchanging two of its members.
                        continue
                    mark[t] = epoch
                    lox, hix = bb_lox[t], bb_hix[t]
                    loy, hiy = bb_loy[t], bb_hiy[t]
                    touched.append((t, net_cost[t], lox, hix, loy, hiy))
                    if single and lox < ax < hix and loy < ay < hiy:
                        # The moved cell was strictly inside: the box
                        # can only grow, O(1).
                        if nx < lox:
                            lox = nx
                        elif nx > hix:
                            hix = nx
                        if ny < loy:
                            loy = ny
                        elif ny > hiy:
                            hiy = ny
                    else:
                        members = net_cells[t]
                        c0 = members[0]
                        lox = hix = loc_x[c0]
                        loy = hiy = loc_y[c0]
                        for c in members[1:]:
                            x = loc_x[c]
                            if x < lox:
                                lox = x
                            elif x > hix:
                                hix = x
                            y = loc_y[c]
                            if y < loy:
                                loy = y
                            elif y > hiy:
                                hiy = y
                    bb_lox[t], bb_hix[t] = lox, hix
                    bb_loy[t], bb_hiy[t] = loy, hiy
                    new_cost = (hix - lox) + (hiy - loy)
                    net_cost[t] = new_cost
                    delta += new_cost - touched[-1][1]

            if delta <= 0 or rng_random() < exp(-delta / temperature):
                cost += delta
                accepted += 1
            else:
                # Reject: restore coordinates and the saved boxes — no
                # recomputation.
                if free_swap >= 0:
                    free_sites[free_swap] = (nx, ny)
                else:
                    loc_x[b], loc_y[b] = nx, ny
                loc_x[a], loc_y[a] = ax, ay
                for t, old_cost, lox, hix, loy, hiy in touched:
                    net_cost[t] = old_cost
                    bb_lox[t], bb_hix[t] = lox, hix
                    bb_loy[t], bb_hiy[t] = loy, hiy
        temperature *= cooling

    out = {name: (loc_x[i], loc_y[i]) for i, name in enumerate(names)}
    return Placement(out, cost, tried, accepted, warm_started, seed=seed)


def _place_reference(netlist: Netlist, device: Device, seed: int = 1,
                     effort: float = 1.0,
                     initial: Optional[Dict[str, Coord]] = None
                     ) -> Placement:
    """The original list-rebuilding kernel (the differential oracle —
    see the module docstring)."""
    rng = random.Random(seed)
    locations, placeable, free_sites, warm_started = \
        _initial_locations(netlist, device, rng, initial)

    nets = _net_bboxes(netlist)
    nets = [[c for c in net if c in locations] for net in nets]
    nets = [net for net in nets if len(net) > 1]
    cell_nets: Dict[str, List[int]] = {}
    for i, net in enumerate(nets):
        for c in net:
            cell_nets.setdefault(c, []).append(i)
    net_costs = [_hpwl(net, locations) for net in nets]
    cost = float(sum(net_costs))

    n = max(len(placeable), 1)
    moves_total, temperature, cooling, moves_per_temp = \
        _schedule(cost, n, effort, warm_started)
    tried = accepted = 0

    def delta_for(cells_moved: List[str]) -> float:
        affected = set()
        for c in cells_moved:
            affected.update(cell_nets.get(c, ()))
        old = sum(net_costs[i] for i in affected)
        new = sum(_hpwl(nets[i], locations) for i in affected)
        for i in affected:
            net_costs[i] = _hpwl(nets[i], locations)
        return new - old

    def undo(saved: List[Tuple[str, Coord]]) -> None:
        for c, loc in saved:
            locations[c] = loc

    while tried < moves_total and temperature > 0.005:
        for _ in range(min(moves_per_temp, moves_total - tried)):
            tried += 1
            a = rng.choice(placeable)
            free_swap = None  # (index, previous free site)
            if free_sites and rng.random() < 0.3:
                idx = rng.randrange(len(free_sites))
                site = free_sites[idx]
                saved = [(a, locations[a])]
                free_swap = (idx, site)
                free_sites[idx] = locations[a]
                locations[a] = site
                swapped = None
            else:
                b = rng.choice(placeable)
                if a == b:
                    continue
                saved = [(a, locations[a]), (b, locations[b])]
                locations[a], locations[b] = locations[b], locations[a]
                swapped = b
            moved = [a] + ([swapped] if swapped else [])
            delta = delta_for(moved)
            if delta <= 0 or rng.random() < math.exp(-delta / temperature):
                cost += delta
                accepted += 1
            else:
                undo(saved)
                if free_swap is not None:
                    free_sites[free_swap[0]] = free_swap[1]
                delta_for(moved)  # restore cached net costs
        temperature *= cooling

    return Placement(locations, cost, tried, accepted, warm_started,
                     seed=seed)


def _perimeter(device: Device) -> List[Coord]:
    out: List[Coord] = []
    w, h = device.width, device.height
    for x in range(w):
        out.append((x, 0))
        out.append((x, h - 1))
    for y in range(1, h - 1):
        out.append((0, y))
        out.append((w - 1, y))
    return out
