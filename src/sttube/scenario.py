"""Problem data model and file I/O: arenas, agents, obstacles, horizons.

A scenario file is JSON with top-level keys ``dims``, ``horizon``,
``epsilon``, ``arena``, ``agents``, ``obstacles`` and optional ``plant`` /
``control`` blocks.  Lengths are meters, times seconds, angles radians.
Boxes are lists of per-axis ``[lo, hi]`` pairs.  Everything is immutable
after load and safe to share across threads.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np


class ScenarioError(ValueError):
    """Raised when a scenario file is malformed or violates an invariant."""


@dataclass(frozen=True)
class Interval:
    """Closed interval [lo, hi] on one axis."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (self.lo <= self.hi):
            raise ScenarioError(f"interval lo > hi: [{self.lo}, {self.hi}]")

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def center(self) -> float:
        return 0.5 * (self.lo + self.hi)

    def contains(self, x: float, tol: float = 0.0) -> bool:
        return self.lo - tol <= x <= self.hi + tol


@dataclass(frozen=True)
class Box:
    """Axis-aligned product of intervals."""

    axes: tuple[Interval, ...]

    @property
    def dims(self) -> int:
        return len(self.axes)

    @staticmethod
    def from_bounds(bounds: Sequence[Sequence[float]]) -> "Box":
        return Box(tuple(Interval(float(lo), float(hi)) for lo, hi in bounds))

    def to_bounds(self) -> list[list[float]]:
        return [[ax.lo, ax.hi] for ax in self.axes]

    def contains_point(self, x: Sequence[float], tol: float = 0.0) -> bool:
        return all(ax.contains(float(v), tol) for ax, v in zip(self.axes, x))

    def contains_box(self, other: "Box", tol: float = 0.0) -> bool:
        return all(
            a.lo - tol <= b.lo and b.hi <= a.hi + tol
            for a, b in zip(self.axes, other.axes)
        )

    def intersects(self, other: "Box") -> bool:
        # Closed boxes: touching faces count as intersecting.
        return all(
            a.lo <= b.hi and b.lo <= a.hi for a, b in zip(self.axes, other.axes)
        )

    @property
    def center(self) -> tuple[float, ...]:
        return tuple(ax.center for ax in self.axes)

    @property
    def widths(self) -> tuple[float, ...]:
        return tuple(ax.width for ax in self.axes)


@dataclass(frozen=True)
class UnsafeRegion:
    """Time-varying unsafe box given by keyframes.

    ``static`` regions hold a single keyframe; ``piecewise-linear`` regions
    interpolate lo/hi per axis between keyframes and hold the last box
    beyond the final keyframe time.
    """

    keyframes: tuple[tuple[float, Box], ...]
    interpolation: str = "static"

    def __post_init__(self):
        if not self.keyframes:
            raise ScenarioError("unsafe region needs at least one keyframe")
        if self.interpolation not in ("static", "piecewise-linear"):
            raise ScenarioError(f"unknown interpolation {self.interpolation!r}")
        if self.interpolation == "static" and len(self.keyframes) != 1:
            raise ScenarioError("static region must have exactly one keyframe")
        times = [t for t, _ in self.keyframes]
        if any(t1 <= t0 for t0, t1 in zip(times, times[1:])):
            raise ScenarioError("keyframe times must be strictly increasing")
        dims = {b.dims for _, b in self.keyframes}
        if len(dims) != 1:
            raise ScenarioError("keyframe boxes must share dimensions")


def unsafe_box_at(region: UnsafeRegion, t: float, horizon: float | None = None) -> Box:
    """Unsafe box at time ``t``: exact keyframe, interpolation, or last-box hold.

    ``horizon``, when given, bounds the valid query window [0, horizon].
    """
    if t < 0.0:
        raise ScenarioError(f"time {t} before start of horizon")
    if horizon is not None and t > horizon:
        raise ScenarioError(f"time {t} beyond horizon {horizon}")
    frames = region.keyframes
    if region.interpolation == "static" or t <= frames[0][0]:
        return frames[0][1]
    if t >= frames[-1][0]:
        return frames[-1][1]
    for (t0, b0), (t1, b1) in zip(frames, frames[1:]):
        if t0 <= t <= t1:
            w = (t - t0) / (t1 - t0)
            return Box(
                tuple(
                    Interval(
                        a0.lo + w * (a1.lo - a0.lo),
                        a0.hi + w * (a1.hi - a0.hi),
                    )
                    for a0, a1 in zip(b0.axes, b1.axes)
                )
            )
    raise AssertionError("unreachable: keyframes are ordered")


def unsafe_bounds(
    region: UnsafeRegion, times, horizon: float | None = None
) -> np.ndarray:
    """Lo/hi bounds of the unsafe box at every time: (T, n, 2).

    The array form of ``unsafe_box_at``, equal to it bit for bit: at an
    interior keyframe time it too interpolates the earlier segment at w = 1.
    """
    t = np.asarray(times, dtype=float)
    if (t < 0.0).any():
        raise ScenarioError(f"time {t.min()} before start of horizon")
    if horizon is not None and (t > horizon).any():
        raise ScenarioError(f"time {t.max()} beyond horizon {horizon}")
    key_t = np.array([k for k, _ in region.keyframes])
    frames = np.array([b.to_bounds() for _, b in region.keyframes])  # (K, n, 2)
    if len(key_t) == 1:
        return np.repeat(frames, len(t), axis=0)
    seg = np.clip(np.searchsorted(key_t, t) - 1, 0, len(key_t) - 2)
    w = ((t - key_t[seg]) / (key_t[seg + 1] - key_t[seg]))[:, None, None]
    b0, b1 = frames[seg], frames[seg + 1]
    out = b0 + w * (b1 - b0)
    out[t <= key_t[0]] = frames[0]
    out[t >= key_t[-1]] = frames[-1]
    return out


def default_min_width(start: Box, goal: Box) -> tuple[float, ...]:
    # Half the tighter of the endpoint box widths keeps the endpoint
    # equalities feasible in every dimension.
    return tuple(
        0.5 * min(s.width, g.width) for s, g in zip(start.axes, goal.axes)
    )


@dataclass(frozen=True)
class AgentTask:
    """Start/goal boxes plus the tube template for one agent."""

    start: Box
    goal: Box
    tube_degree: tuple[int, ...]
    min_width: tuple[float, ...]
    name: str = ""

    def __post_init__(self):
        if any(d < 1 for d in self.tube_degree):
            raise ScenarioError("tube degree must be a positive integer")
        if not all(w > 0 for w in self.min_width):
            raise ScenarioError("min tube width must be positive")


@dataclass(frozen=True)
class PlantConfig:
    """Plant selection and disturbance block (simulation side only)."""

    kind: str = "omnidirectional"
    g_sign: str = "positive"
    heading_band: tuple[float, float] = (-1.0471975511965976, 1.0471975511965976)
    disturbance_bound: float = 0.01
    disturbance_kind: str = "uniform"
    disturbance_seed: int = 0


@dataclass(frozen=True)
class ControlConfig:
    """Controller block: per-stage gains, the error guard, funnel sizing."""

    kappa: tuple[float, ...] = (1.0,)
    e_max: float = 1.0 - 1e-9
    funnel_q: float = 0.25
    funnel_mu: float = 1.0
    funnel_p_margin: float = 0.5

    def __post_init__(self):
        if not all(0 < k < math.inf for k in self.kappa):
            raise ScenarioError("stage gains must be positive and finite")
        if not 0.0 < self.e_max < 1.0:
            raise ScenarioError("e_max must lie in (0, 1)")


@dataclass(frozen=True)
class ScenarioSpec:
    """A full problem statement: arena, horizon, agents, obstacles."""

    dims: int
    arena: Box
    horizon: float
    epsilon: float
    agents: tuple[AgentTask, ...]
    obstacles: tuple[UnsafeRegion, ...] = ()
    plant: PlantConfig = field(default_factory=PlantConfig)
    control: ControlConfig = field(default_factory=ControlConfig)

    def __post_init__(self):
        validate_scenario(self)

    @property
    def agent_count(self) -> int:
        return len(self.agents)


def validate_scenario(spec: ScenarioSpec) -> None:
    """Check every invariant; raise ScenarioError naming the first violation."""
    if not 0 < spec.horizon < math.inf:
        raise ScenarioError("horizon must be positive and finite")
    if not 0 < spec.epsilon < math.inf:
        raise ScenarioError("epsilon must be positive and finite")
    if not spec.agents:
        raise ScenarioError("at least one agent is required")
    if spec.arena.dims != spec.dims:
        raise ScenarioError("arena dimension does not match dims")
    for j, agent in enumerate(spec.agents):
        tag = agent.name or f"agent {j + 1}"
        for box, label in ((agent.start, "start"), (agent.goal, "goal")):
            if box.dims != spec.dims:
                raise ScenarioError(f"{tag}: {label} box dimension mismatch")
            if not spec.arena.contains_box(box):
                raise ScenarioError(f"{tag}: {label} box not inside the arena")
        if len(agent.tube_degree) != spec.dims:
            raise ScenarioError(f"{tag}: tube degree list length mismatch")
        if len(agent.min_width) != spec.dims:
            raise ScenarioError(f"{tag}: min width list length mismatch")
        for i, w in enumerate(agent.min_width):
            if w > min(agent.start.axes[i].width, agent.goal.axes[i].width):
                raise ScenarioError(
                    f"{tag}: min width {w} exceeds start/goal width in dim {i + 1}"
                )
    for r, region in enumerate(spec.obstacles):
        if region.keyframes[0][1].dims != spec.dims:
            raise ScenarioError(f"obstacle {r + 1}: box dimension mismatch")
        # Interpolated box must stay inside the arena over the horizon.
        probes = sorted(
            {0.0, spec.horizon}
            | {t for t, _ in region.keyframes if 0.0 <= t <= spec.horizon}
        )
        for t0, t1 in zip(probes, probes[1:]):
            for w in (0.0, 0.5, 1.0):
                t = t0 + w * (t1 - t0)
                if not spec.arena.contains_box(unsafe_box_at(region, t), tol=1e-12):
                    raise ScenarioError(
                        f"obstacle {r + 1}: leaves the arena at t={t:g}"
                    )
        u0 = unsafe_box_at(region, 0.0)
        uc = unsafe_box_at(region, spec.horizon)
        for j, agent in enumerate(spec.agents):
            tag = agent.name or f"agent {j + 1}"
            if agent.start.intersects(u0):
                raise ScenarioError(
                    f"{tag}: start box intersects unsafe region {r + 1} at t=0"
                )
            if agent.goal.intersects(uc):
                raise ScenarioError(
                    f"{tag}: goal box intersects unsafe region {r + 1} at t=t_c"
                )


# ---------------------------------------------------------------------------
# File I/O


def _agent_from_dict(raw: dict, dims: int, idx: int) -> AgentTask:
    try:
        start = Box.from_bounds(raw["start"])
        goal = Box.from_bounds(raw["goal"])
    except KeyError as exc:
        raise ScenarioError(f"agent {idx + 1}: missing key {exc}") from exc
    degree = raw.get("tube_degree", [2] * dims)
    if isinstance(degree, int):
        degree = [degree] * dims
    min_width = raw.get("min_width")
    if min_width is None:
        min_width = default_min_width(start, goal)
    return AgentTask(
        start=start,
        goal=goal,
        tube_degree=tuple(int(d) for d in degree),
        min_width=tuple(float(w) for w in min_width),
        name=str(raw.get("name", f"agent{idx + 1}")),
    )


def _region_from_dict(raw: dict) -> UnsafeRegion:
    frames = tuple(
        (float(t), Box.from_bounds(bounds)) for t, bounds in raw["keyframes"]
    )
    return UnsafeRegion(
        keyframes=frames, interpolation=raw.get("interpolation", "static")
    )


def _plant_from_dict(raw: dict) -> PlantConfig:
    dist = raw.get("disturbance", {})
    return PlantConfig(
        kind=raw.get("kind", "omnidirectional"),
        g_sign=raw.get("g_sign", "positive"),
        heading_band=tuple(raw.get("heading_band", PlantConfig.heading_band)),
        disturbance_bound=float(dist.get("bound", 0.01)),
        disturbance_kind=dist.get("kind", "uniform"),
        disturbance_seed=int(dist.get("seed", 0)),
    )


def _control_from_dict(raw: dict) -> ControlConfig:
    funnel = raw.get("funnel", {})
    return ControlConfig(
        kappa=tuple(float(k) for k in raw.get("kappa", [1.0])),
        e_max=float(raw.get("e_max", 1.0 - 1e-9)),
        funnel_q=float(funnel.get("q", 0.25)),
        funnel_mu=float(funnel.get("mu", 1.0)),
        funnel_p_margin=float(funnel.get("p_margin", 0.5)),
    )


def scenario_from_dict(raw: dict) -> ScenarioSpec:
    try:
        dims = int(raw["dims"])
        arena = Box.from_bounds(raw["arena"])
        horizon = float(raw["horizon"])
        epsilon = float(raw["epsilon"])
        agents_raw = raw["agents"]
    except KeyError as exc:
        raise ScenarioError(f"missing top-level key {exc}") from exc
    agents = tuple(
        _agent_from_dict(a, dims, i) for i, a in enumerate(agents_raw)
    )
    obstacles = tuple(_region_from_dict(o) for o in raw.get("obstacles", []))
    return ScenarioSpec(
        dims=dims,
        arena=arena,
        horizon=horizon,
        epsilon=epsilon,
        agents=agents,
        obstacles=obstacles,
        plant=_plant_from_dict(raw.get("plant", {})),
        control=_control_from_dict(raw.get("control", {})),
    )


def scenario_to_dict(spec: ScenarioSpec) -> dict:
    return {
        "dims": spec.dims,
        "horizon": spec.horizon,
        "epsilon": spec.epsilon,
        "arena": spec.arena.to_bounds(),
        "agents": [
            {
                "name": a.name,
                "start": a.start.to_bounds(),
                "goal": a.goal.to_bounds(),
                "tube_degree": list(a.tube_degree),
                "min_width": list(a.min_width),
            }
            for a in spec.agents
        ],
        "obstacles": [
            {
                "interpolation": r.interpolation,
                "keyframes": [[t, b.to_bounds()] for t, b in r.keyframes],
            }
            for r in spec.obstacles
        ],
        "plant": {
            "kind": spec.plant.kind,
            "g_sign": spec.plant.g_sign,
            "heading_band": list(spec.plant.heading_band),
            "disturbance": {
                "bound": spec.plant.disturbance_bound,
                "kind": spec.plant.disturbance_kind,
                "seed": spec.plant.disturbance_seed,
            },
        },
        "control": {
            "kappa": list(spec.control.kappa),
            "e_max": spec.control.e_max,
            "funnel": {
                "q": spec.control.funnel_q,
                "mu": spec.control.funnel_mu,
                "p_margin": spec.control.funnel_p_margin,
            },
        },
    }


def load_scenario(path: str | Path) -> ScenarioSpec:
    """Load and validate a scenario file.

    Raises ScenarioError on parse failure or on any violated invariant,
    naming the offending field.
    """
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}: not valid JSON ({exc})") from exc
    return scenario_from_dict(raw)


def save_scenario(spec: ScenarioSpec, path: str | Path) -> None:
    Path(path).write_text(json.dumps(scenario_to_dict(spec), indent=2) + "\n")
