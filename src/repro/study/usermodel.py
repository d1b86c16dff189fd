"""The user-study behaviour model (paper §6.3, Figure 13).

The original study put 20 subjects in front of an FPGA with a buggy
50-line LED program and measured builds, compile time and test/debug
time under the Quartus IDE versus Cascade.  We cannot rerun humans, so
per DESIGN.md we replay the study with a stochastic developer model
whose only tool-dependent input is *compile latency* — the quantity the
paper says mediates the whole effect:

* each subject must fix a fixed number of bugs; every build cycle is
  think/edit time followed by a compile and a test;
* with a slow compiler, developers batch work: they spend longer per
  cycle and have a higher chance of fixing the bug per build (the paper:
  Cascade "encouraged faster compilation, it did not encourage sloppy
  thought" — per-build success drops, per-minute progress rises);
* compile latency comes from the same CompilerModel the JIT uses
  (Quartus arm) versus the measured sub-second JIT startup (Cascade
  arm).

Outputs mirror Figure 13: per-subject (builds, compile seconds,
test/debug seconds, total seconds).
"""

from __future__ import annotations

import math
import random
from typing import Dict, List, Optional

from ..backend.compiler import CompilerModel

__all__ = ["Subject", "StudyConfig", "simulate_subject", "run_study",
           "summarize"]


class Subject:
    """One simulated participant's measurements."""

    def __init__(self, subject_id: int, toolchain: str, builds: int,
                 compile_seconds: float, test_debug_seconds: float):
        self.subject_id = subject_id
        self.toolchain = toolchain
        self.builds = builds
        self.compile_seconds = compile_seconds
        self.test_debug_seconds = test_debug_seconds

    @property
    def total_seconds(self) -> float:
        return self.compile_seconds + self.test_debug_seconds

    @property
    def avg_compile_minutes(self) -> float:
        return self.compile_seconds / max(self.builds, 1) / 60.0

    @property
    def avg_test_debug_minutes(self) -> float:
        return self.test_debug_seconds / max(self.builds, 1) / 60.0


class StudyConfig:
    """Calibration constants for the behaviour model.

    ``quartus_compile_s`` defaults to the CompilerModel's latency for a
    ~50-line/300-LUT design (about 1.5 minutes, matching §6.3);
    ``cascade_compile_s`` is the JIT's time-to-running-code (<1 s).
    """

    def __init__(self,
                 bugs: int = 4,
                 base_fix_probability: float = 0.20,
                 skill_spread: float = 0.05,
                 think_mean_s: float = 95.0,
                 think_sigma: float = 0.40,
                 slow_batch_think_factor: float = 1.50,
                 slow_batch_fix_factor: float = 1.35,
                 quartus_compile_s: Optional[float] = None,
                 cascade_compile_s: float = 1.9):
        self.bugs = bugs
        self.base_fix_probability = base_fix_probability
        self.skill_spread = skill_spread
        self.think_mean_s = think_mean_s
        self.think_sigma = think_sigma
        self.slow_batch_think_factor = slow_batch_think_factor
        self.slow_batch_fix_factor = slow_batch_fix_factor
        if quartus_compile_s is None:
            quartus_compile_s = CompilerModel.duration_s(300)
        self.quartus_compile_s = quartus_compile_s
        self.cascade_compile_s = cascade_compile_s


def simulate_subject(subject_id: int, toolchain: str, config: StudyConfig,
                     rng: random.Random) -> Subject:
    """One subject completing the task with the given toolchain."""
    slow = toolchain == "quartus"
    compile_s = config.quartus_compile_s if slow \
        else config.cascade_compile_s
    skill = config.base_fix_probability + rng.uniform(
        -config.skill_spread, config.skill_spread)
    fix_p = min(skill * (config.slow_batch_fix_factor if slow else 1.0),
                0.9)
    think_factor = config.slow_batch_think_factor if slow else 1.0

    builds = 0
    compile_total = 0.0
    test_debug_total = 0.0
    bugs_left = config.bugs
    while bugs_left > 0 and builds < 400:
        think = rng.lognormvariate(
            math.log(config.think_mean_s * think_factor),
            config.think_sigma)
        test_debug_total += think
        compile_total += compile_s * rng.uniform(0.85, 1.25)
        builds += 1
        if rng.random() < fix_p:
            bugs_left -= 1
    return Subject(subject_id, toolchain, builds, compile_total,
                   test_debug_total)


def run_study(n: int = 20, seed: int = 2019,
              config: Optional[StudyConfig] = None) -> List[Subject]:
    """The full n-subject study: half control (Quartus IDE), half
    experiment (Cascade), matching the paper's design."""
    config = config or StudyConfig()
    rng = random.Random(seed)
    subjects: List[Subject] = []
    for i in range(n):
        toolchain = "quartus" if i % 2 == 0 else "cascade"
        subjects.append(simulate_subject(i, toolchain, config, rng))
    return subjects


def summarize(subjects: List[Subject]) -> Dict[str, Dict[str, float]]:
    """Group means plus the paper's three headline comparisons."""
    out: Dict[str, Dict[str, float]] = {}
    for toolchain in ("quartus", "cascade"):
        group = [s for s in subjects if s.toolchain == toolchain]
        n = max(len(group), 1)
        out[toolchain] = {
            "n": len(group),
            "mean_builds": sum(s.builds for s in group) / n,
            "mean_total_minutes":
                sum(s.total_seconds for s in group) / n / 60.0,
            "mean_compile_minutes":
                sum(s.compile_seconds for s in group) / n / 60.0,
            "mean_test_debug_minutes":
                sum(s.test_debug_seconds for s in group) / n / 60.0,
            "mean_avg_compile_minutes":
                sum(s.avg_compile_minutes for s in group) / n,
            "mean_avg_test_debug_minutes":
                sum(s.avg_test_debug_minutes for s in group) / n,
        }
    q, c = out["quartus"], out["cascade"]
    out["comparison"] = {
        "builds_increase_pct":
            100.0 * (c["mean_builds"] / q["mean_builds"] - 1.0),
        "completion_speedup_pct":
            100.0 * (1.0 - c["mean_total_minutes"]
                     / q["mean_total_minutes"]),
        "compile_time_ratio":
            q["mean_avg_compile_minutes"]
            / max(c["mean_avg_compile_minutes"], 1e-9),
        "test_debug_ratio":
            c["mean_test_debug_minutes"] / q["mean_test_debug_minutes"],
    }
    return out
