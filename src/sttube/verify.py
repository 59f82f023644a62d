"""Post-hoc checking of recorded trajectories: task completion, tube
containment, and inter-agent separation; report generation.

All checks are pure functions of trajectories + scenario + tubes and run
on the recorded samples.  Inter-sample excursions are covered by the
reported sampling-robustness number: the smallest safety margin minus the
largest single-step motion.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path

import numpy as np

from .sampling import obstacle_bounds
from .scenario import ScenarioSpec, box_inside, boxes_meet
from .sim import Trajectory
from .tube import TubeSet, agent_walls


@dataclass
class AgentCheck:
    agent: int
    name: str
    status: str  # pass | fail | inconclusive
    start_ok: bool
    goal_ok: bool
    avoid_ok: bool
    containment_pass: bool
    worst_containment_margin: float
    goal_distance: float
    first_violation_time: float | None = None

    @property
    def tras_pass(self) -> bool:
        return self.status == "pass"


@dataclass
class VerificationReport:
    agents: list[AgentCheck]
    ca_pass: bool
    min_pairwise_distance: float
    min_tube_gap: float
    sampling_robustness: float
    max_step_motion: float

    @property
    def all_pass(self) -> bool:
        return self.ca_pass and all(
            a.tras_pass and a.containment_pass for a in self.agents
        )

    def failed_checks(self) -> list[str]:
        out = []
        for a in self.agents:
            label = a.name or f"agent {a.agent + 1}"
            if a.status == "inconclusive":
                out.append(f"{label}: trajectory shorter than horizon")
            else:
                if not a.start_ok:
                    out.append(f"{label}: start outside the initial set")
                if not a.goal_ok:
                    out.append(f"{label}: goal missed by {a.goal_distance:.4g}")
                if not a.avoid_ok:
                    out.append(
                        f"{label}: unsafe set entered at t={a.first_violation_time:.4g}"
                    )
                if not a.containment_pass:
                    out.append(
                        f"{label}: tube containment lost "
                        f"(worst margin {a.worst_containment_margin:.4g})"
                    )
        if not self.ca_pass:
            out.append(
                f"inter-agent distance reached {self.min_pairwise_distance:.4g}"
            )
        return out


def _box_distance(point: np.ndarray, bounds: np.ndarray) -> float:
    """Euclidean distance from ``point`` to the box ``bounds`` (dims, 2):
    0 inside, NaN where a coordinate is NaN."""
    gap = np.maximum(bounds[:, 0] - point, 0.0) + np.maximum(point - bounds[:, 1], 0.0)
    return float(np.sqrt((gap**2).sum()))


def check_tras(traj: Trajectory, spec: ScenarioSpec) -> AgentCheck:
    """Start membership, goal membership at t_c, unsafe-set avoidance at
    every recorded sample.  A trajectory not covering the horizon is
    inconclusive, never a pass."""
    task = spec.agents[traj.agent]
    times = traj.times
    y = traj.output(spec.dims)
    covers = traj.aborted is None and abs(float(times[-1]) - spec.horizon) < 1e-9
    points = np.broadcast_to(y[..., None], (*y.shape, 2))  # each sample as a box of width 0
    start_ok = bool(box_inside(points[0], task.start))
    goal_dist = _box_distance(y[-1], task.goal)
    goal_ok = covers and bool(box_inside(points[-1], task.goal))
    # n_steps * dt may overshoot the horizon by rounding; the obstacles
    # are defined on [0, horizon] only.
    bounds = obstacle_bounds(spec, np.minimum(times, spec.horizon))  # (T, R, n, 2)
    inside = boxes_meet(points[:, None], bounds)  # (T, R)
    hits = np.argwhere(inside.T)  # first region first, then first time
    avoid_ok = not len(hits)
    violation_t = None if avoid_ok else float(times[hits[0, 1]])
    if not covers:
        status = "inconclusive"
    else:
        status = "pass" if (start_ok and goal_ok and avoid_ok) else "fail"
    return AgentCheck(
        agent=traj.agent,
        name=task.name,
        status=status,
        start_ok=start_ok,
        goal_ok=goal_ok,
        avoid_ok=avoid_ok,
        containment_pass=True,
        worst_containment_margin=float("nan"),
        goal_distance=goal_dist,
        first_violation_time=violation_t,
    )


def check_containment(traj: Trajectory, tubes: TubeSet) -> np.ndarray:
    """Margin series: per step the min over dims of the distance to either
    tube wall.  Strictly positive throughout means contained."""
    lo, hi = agent_walls(tubes.coeffs[traj.agent], traj.times)  # (n, T) each
    y = traj.output(tubes.dims).T
    return np.minimum(y - lo, hi - y).min(axis=0)


def check_ca(trajectories: list[Trajectory], dims: int) -> tuple[bool, float]:
    """Minimum pairwise output distance over the common time base.

    Each pair is measured at the samples where both outputs are finite,
    so an aborted run's non-finite last sample drops no pair.  A single
    agent passes vacuously with infinite distance.
    """
    if len(trajectories) < 2:
        return True, float("inf")
    n = min(len(tr.states) for tr in trajectories)
    outputs = [tr.output(dims)[:n] for tr in trajectories]
    finite = [np.isfinite(y).all(axis=1) for y in outputs]
    min_d = float("inf")
    for a, b in combinations(range(len(outputs)), 2):
        d = np.sqrt(((outputs[a] - outputs[b]) ** 2).sum(axis=1))
        min_d = float(d[finite[a] & finite[b]].min(initial=min_d))
    return min_d > 0.0, min_d


def verify_run(
    trajectories: list[Trajectory],
    spec: ScenarioSpec,
    tubes: TubeSet,
    min_tube_gap: float = float("nan"),
) -> VerificationReport:
    """Full report over a recorded run.

    ``min_tube_gap`` is the worst pairwise tube-separation margin from the
    dense tube validation (negative = separated); tube disjointness is the
    stronger collision-avoidance statement, so both are reported.  The
    sampling robustness is the least of the containment margins and the
    tube separation ``-min_tube_gap`` (no bound when the gap is not
    finite), minus the largest step: overlapping tubes make it negative.
    """
    agents, max_step = [], 0.0
    for traj in trajectories:
        check = check_tras(traj, spec)
        margins = check_containment(traj, tubes)
        check.worst_containment_margin = float(margins.min())
        check.containment_pass = bool((margins > 0.0).all()) and traj.aborted is None
        agents.append(check)
        y = traj.output(spec.dims)
        # np.max and np.min keep a NaN in any position; max and min may drop it
        max_step = float(np.max(np.sqrt(((y[1:] - y[:-1]) ** 2).sum(axis=1)), initial=max_step))
    ca_pass, min_dist = check_ca(trajectories, spec.dims)
    gap = -min_tube_gap if np.isfinite(min_tube_gap) else np.inf
    robustness = np.min([gap] + [a.worst_containment_margin for a in agents]) - max_step
    return VerificationReport(
        agents=agents,
        ca_pass=ca_pass,
        min_pairwise_distance=min_dist,
        min_tube_gap=min_tube_gap,
        sampling_robustness=float(robustness),
        max_step_motion=max_step,
    )


def report_to_dict(report: VerificationReport) -> dict:
    return {
        "all_pass": report.all_pass,
        "ca": {
            "pass": report.ca_pass,
            "min_pairwise_distance": report.min_pairwise_distance,
            "min_tube_gap": report.min_tube_gap,
        },
        "sampling_robustness": report.sampling_robustness,
        "max_step_motion": report.max_step_motion,
        "agents": [
            {
                "agent": a.agent + 1,
                "name": a.name,
                "status": a.status,
                "tras_pass": a.tras_pass,
                "start_ok": a.start_ok,
                "goal_ok": a.goal_ok,
                "avoid_ok": a.avoid_ok,
                "containment_pass": a.containment_pass,
                "worst_containment_margin": a.worst_containment_margin,
                "goal_distance": a.goal_distance,
                "first_violation_time": a.first_violation_time,
            }
            for a in report.agents
        ],
    }


def write_json(data, path: str | Path) -> None:
    """Write ``data`` to ``path`` as strict JSON: JSON has no inf or NaN,
    so a round trip through ``json`` writes each non-finite number as null."""
    plain = json.loads(json.dumps(data), parse_constant=lambda name: None)
    Path(path).write_text(json.dumps(plain, indent=2, allow_nan=False) + "\n")


def save_report(report: VerificationReport, path: str | Path) -> None:
    write_json(report_to_dict(report), path)


def report_to_text(report: VerificationReport) -> str:
    lines = ["verification summary", "-" * 40]
    for a in report.agents:
        label = a.name or f"agent {a.agent + 1}"
        lines.append(
            f"{label:>10}: {a.status:12} goal_dist={a.goal_distance:8.4f} "
            f"containment_margin={a.worst_containment_margin:8.4f}"
        )
    lines.append(
        f"collision: {'pass' if report.ca_pass else 'FAIL'}  "
        f"min_distance={report.min_pairwise_distance:.4f}  "
        f"tube_gap={report.min_tube_gap:.4f}"
    )
    lines.append(
        f"sampling robustness: {report.sampling_robustness:.4f} "
        f"(max step motion {report.max_step_motion:.6f})"
    )
    lines.append("overall: " + ("PASS" if report.all_pass else "FAIL"))
    return "\n".join(lines)
