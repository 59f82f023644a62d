"""Workloads and metrics of the benchmark: one table that the runner, the
report, the smoke test and ``BENCHMARK.json`` all read.

This module imports nothing from ``sttube`` or numpy, so the runner can
use it before it has checked that the package is there.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "synth" | "track" | "smoke"
    why: str
    gated: bool  # listed in BENCHMARK.json, so every change is measured on it
    time_limit_s: float = 170.0  # a run stops starting processes after this


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "robots-synth", "synth",
            "synthesize(robots): largest lazy working sets and heaviest witness scan; "
            "moves the lazy-row loop and LP layers",
            gated=True,
        ),
        Workload(
            "fleet-track", "track",
            "published robots and drones tubes tracked at dt 1e-3 under uniform and "
            "sinusoidal disturbance; zero LP calls, all sim/control work",
            gated=True,
        ),
        Workload(
            "drones-synth", "synth",
            "synthesize(drones): refinement-heavy, many small LPs, razor-thin margin; "
            "one run takes over 100 s, so it is reported but not gated",
            gated=False, time_limit_s=900.0,
        ),
        Workload(
            "mini", "smoke",
            "two-agent mini scenario, synthesized then tracked; a smoke test of "
            "every layer in a few seconds",
            gated=False,
        ),
    )
}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" | "higher"
    bound: float | None = None  # gated end-to-end metrics only
    note: str = ""  # what it measures, or which end-to-end metric it moves


# Printed in the result line of every workload and gated by their bound.
# Times are rescaled to nominal host speed by ``speed.SpeedProbe``; the raw
# wall times are reported next to them.
END_TO_END = (
    Metric("setup_s", "s", "lower", 0.25,
           "fresh interpreter to inputs loaded (import sttube, load_scenario/load_tubes) "
           "at nominal host speed; median over fresh processes"),
    Metric("op_s", "s", "lower", 0.2,
           "one operation at nominal host speed: one synthesize call (synth workloads) "
           "or the four tracked and verified closed loops (fleet-track)"),
    Metric("peak_rss_mb", "MB", "lower", 0.1,
           "peak resident set of the process that runs the operation"),
)

# Reported per workload kind next to the gated metrics, never gated by a bound.
REPORTED = {
    "all": (
        Metric("setup_wall_s", "s", "lower", note="setup_s as measured, not rescaled"),
        Metric("op_wall_s", "s", "lower", note="op_s as measured, not rescaled"),
    ),
    "synth": (
        Metric("synth_s", "s", "lower", note="wall time of one synthesize call to a certified, validated tube set"),
        Metric("certified_margin", "1", "lower",
               note="eta* + L*eps with analytic L; a regression past the baseline fails the run"),
    ),
    "track": (
        Metric("track_agent_steps_per_s", "agent-steps/s", "higher",
               note="agent-steps over the wall time of run_closed_loop plus verify_run"),
        Metric("min_containment_margin", "output", "higher",
               note="worst worst_containment_margin over the closed loops"),
    ),
}
REPORTED["smoke"] = REPORTED["synth"] + REPORTED["track"]
FAILED_FRAC = Metric("failed_frac", "ratio", "lower", note="failed operations / attempted operations")

_SYNTH = "synth_s on robots-synth and drones-synth"
_LOOP = "synth_s on robots-synth most, drones-synth less"
_LP = "synth_s on drones-synth most, then robots-synth; never fleet-track"
_REFINE = "synth_s and certified_margin on drones-synth"
_TRACK = "track_agent_steps_per_s on fleet-track only"

# Printed in the result line of a traced run; each names what it should move.
PER_LAYER = (
    Metric("sampling.sample_unsafe_s", "s", "lower", note=_SYNTH),
    Metric("synth.build_sop_s", "s", "lower", note=_SYNTH),
    Metric("synth.seed_assignment_s", "s", "lower", note=_SYNTH),
    Metric("synth.solve_sop.calls", "count", "lower", note=_LOOP),
    Metric("synth.solve_sop.self_s", "s", "lower", note=_LOOP + " (excludes nested solve_lp)"),
    Metric("synth.solve_sop.lp_rounds", "count", "lower", note=_LOOP + " (sum of SolveDiagnostics.lp_solves)"),
    Metric("synth.solve_sop.max_rows", "count", "lower", note=_LOOP + " (max SolveDiagnostics.lp_rows)"),
    Metric("lp.solve_lp.calls", "count", "lower", note=_LP),
    Metric("lp.solve_lp_s", "s", "lower", note=_LP),
    Metric("lp.solve_lp.call_ms_p50", "ms", "lower", note=_LP),
    Metric("lp.solve_lp.call_ms_p95", "ms", "lower", note=_LP),
    Metric("lp.solve_lp.rows_p50", "count", "lower", note=_LP),
    Metric("lp.solve_lp.rows_max", "count", "lower", note=_LP),
    Metric("lp.solve_lp.errors", "count", "lower", note=_LP + " (raised, or status not optimal)"),
    Metric("synth.refine_assignment.calls", "count", "lower", note=_REFINE),
    Metric("synth.refine_assignment.self_s", "s", "lower", note=_REFINE + " (excludes nested solves)"),
    Metric("synth.refine_assignment.candidate_solves", "count", "lower", note=_REFINE + " (nested solve_sop)"),
    Metric("synth.refine_assignment.scoring_lps", "count", "lower", note=_REFINE + " (direct solve_lp)"),
    Metric("synth.refine_assignment.failed_candidates", "count", "lower", note=_REFINE),
    Metric("synth.refine_assignment.improved_ratio", "ratio", "higher",
           note=_REFINE + " (refinements that lowered the margin / refinements)"),
    Metric("synth.iterations", "count", "lower", note=_SYNTH),
    Metric("synth.certify_s", "s", "lower", note=_SYNTH),
    Metric("synth.validate_tubes_s", "s", "lower", note=_SYNTH),
    Metric("lipschitz.estimate_L_s", "s", "lower",
           note="a separate estimated certify after synthesis; traced run only, not in synth_s"),
    Metric("sim.integrate_agent.calls", "count", "lower", note=_TRACK),
    Metric("sim.integrate_agent.self_s", "s", "lower", note=_TRACK + " (RK4 loop without control and dynamics)"),
    Metric("control.control_input.calls", "count", "lower", note=_TRACK),
    Metric("control.control_input_s", "s", "lower", note=_TRACK),
    Metric("control.control_input.call_us_p50", "us", "lower", note=_TRACK),
    Metric("control.control_input.call_us_p99", "us", "lower", note=_TRACK),
    Metric("plant.dynamics.calls", "count", "lower", note=_TRACK),
    Metric("plant.dynamics_s", "s", "lower", note=_TRACK),
    Metric("sim.clamp_count", "count", "lower", note=_TRACK),
    Metric("verify.verify_run_s", "s", "lower", note=_TRACK),
    Metric("trace.overhead_frac", "ratio", "lower", note="traced op_s / untraced op_s - 1"),
)


def benchmark_json(run_seconds: int) -> dict:
    """The contents of ``BENCHMARK.json`` for the gated workloads."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": run_seconds,
        "workloads": [
            {"name": w.name, "why": w.why} for w in WORKLOADS.values() if w.gated
        ],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }
