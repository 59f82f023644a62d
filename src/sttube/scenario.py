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
import numbers
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


DISTURBANCE_KINDS = ("zero", "uniform", "sinusoidal")


@dataclass(frozen=True)
class PlantConfig:
    """Plant selection and disturbance block (simulation side only).

    The plant kind, and g_sign against the kind, are checked against the
    scenario when the plant is built (``plant.make_plant``); every other
    field is checked here.
    """

    kind: str = "omnidirectional"
    g_sign: str = "positive"
    heading_band: tuple[float, float] = (-1.0471975511965976, 1.0471975511965976)
    disturbance_bound: float = 0.01
    disturbance_kind: str = "uniform"
    disturbance_seed: int = 0

    def __post_init__(self):
        if self.g_sign not in ("positive", "negative"):
            raise ScenarioError(
                f"plant g_sign must be positive or negative, not {self.g_sign!r}"
            )
        band = self.heading_band
        if not (len(band) == 2 and -math.inf < band[0] < band[1] < math.inf):
            raise ScenarioError(
                f"plant heading_band must be two finite values lo < hi, not {band}"
            )
        if not 0 <= self.disturbance_bound < math.inf:
            raise ScenarioError("disturbance bound must be nonnegative and finite")
        if self.disturbance_seed < 0:
            raise ScenarioError(
                f"disturbance seed must be nonnegative, not {self.disturbance_seed}"
            )
        if self.disturbance_kind not in DISTURBANCE_KINDS:
            raise ScenarioError(f"unknown disturbance kind {self.disturbance_kind!r}")


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


def _number(value, field: str) -> float:
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ScenarioError(f"{field} must be a number, not {value!r}")
    return float(value)


def _integer(value, field: str) -> int:
    if isinstance(value, bool) or not (
        isinstance(value, numbers.Integral)
        or (isinstance(value, numbers.Real) and float(value).is_integer())
    ):
        raise ScenarioError(f"{field} must be an integer, not {value!r}")
    return int(value)


def _list(value, field: str) -> list:
    if not isinstance(value, (list, tuple)):
        raise ScenarioError(f"{field} must be a list, not {value!r}")
    return list(value)


def _object(value, field: str) -> dict:
    if not isinstance(value, dict):
        raise ScenarioError(f"{field} must be an object, not {value!r}")
    return value


def _key(raw: dict, key: str, field: str):
    if key not in raw:
        raise ScenarioError(f"{field}: missing key {key!r}")
    return raw[key]


def _box(value, field: str) -> Box:
    pairs = _list(value, field)
    if not all(isinstance(p, (list, tuple)) and len(p) == 2 for p in pairs):
        raise ScenarioError(f"{field} must be a list of [lo, hi] pairs, not {value!r}")
    bounds = [[_number(v, field) for v in p] for p in pairs]
    try:
        return Box.from_bounds(bounds)
    except ScenarioError as exc:  # lo > hi
        raise ScenarioError(f"{field}: {exc}") from exc


def _agent_from_dict(raw, dims: int, idx: int) -> AgentTask:
    tag = f"agent {idx + 1}"
    raw = _object(raw, tag)
    start = _box(_key(raw, "start", tag), f"{tag} start")
    goal = _box(_key(raw, "goal", tag), f"{tag} goal")
    degree = raw.get("tube_degree", [2] * dims)
    if not isinstance(degree, (list, tuple)):
        degree = [_integer(degree, f"{tag} tube_degree")] * dims
    min_width = raw.get("min_width")
    if min_width is None:
        min_width = default_min_width(start, goal)
    return AgentTask(
        start=start,
        goal=goal,
        tube_degree=tuple(_integer(d, f"{tag} tube_degree") for d in degree),
        min_width=tuple(
            _number(w, f"{tag} min_width") for w in _list(min_width, f"{tag} min_width")
        ),
        name=str(raw.get("name", f"agent{idx + 1}")),
    )


def _region_from_dict(raw, idx: int) -> UnsafeRegion:
    tag = f"obstacle {idx + 1}"
    raw = _object(raw, tag)
    frames = []
    for frame in _list(_key(raw, "keyframes", tag), f"{tag} keyframes"):
        if not isinstance(frame, (list, tuple)) or len(frame) != 2:
            raise ScenarioError(f"{tag} keyframes must be [time, box] pairs, not {frame!r}")
        t, box = frame
        frames.append((_number(t, f"{tag} keyframe time"), _box(box, f"{tag} keyframe box")))
    return UnsafeRegion(
        keyframes=tuple(frames), interpolation=raw.get("interpolation", "static")
    )


def _plant_from_dict(raw) -> PlantConfig:
    raw = _object(raw, "plant")
    dist = _object(raw.get("disturbance", {}), "plant disturbance")
    band = _list(raw.get("heading_band", PlantConfig.heading_band), "plant heading_band")
    return PlantConfig(
        kind=raw.get("kind", "omnidirectional"),
        g_sign=raw.get("g_sign", "positive"),
        heading_band=tuple(_number(b, "plant heading_band") for b in band),
        disturbance_bound=_number(dist.get("bound", 0.01), "disturbance bound"),
        disturbance_kind=dist.get("kind", "uniform"),
        disturbance_seed=_integer(dist.get("seed", 0), "disturbance seed"),
    )


def _control_from_dict(raw) -> ControlConfig:
    raw = _object(raw, "control")
    funnel = _object(raw.get("funnel", {}), "control funnel")
    kappa = _list(raw.get("kappa", [1.0]), "control kappa")
    return ControlConfig(
        kappa=tuple(_number(k, "control kappa") for k in kappa),
        e_max=_number(raw.get("e_max", 1.0 - 1e-9), "control e_max"),
        funnel_q=_number(funnel.get("q", 0.25), "funnel q"),
        funnel_mu=_number(funnel.get("mu", 1.0), "funnel mu"),
        funnel_p_margin=_number(funnel.get("p_margin", 0.5), "funnel p_margin"),
    )


def scenario_from_dict(raw: dict) -> ScenarioSpec:
    """Build and validate a scenario from its JSON form.

    Raises ScenarioError naming the field for a missing key, a value of
    the wrong type (a non-integer degree, a scalar where a list belongs, a
    box entry that is not a [lo, hi] pair) or any violated invariant.
    """
    raw = _object(raw, "scenario")
    dims = _integer(_key(raw, "dims", "scenario"), "dims")
    agents = tuple(
        _agent_from_dict(a, dims, i)
        for i, a in enumerate(_list(_key(raw, "agents", "scenario"), "agents"))
    )
    obstacles = tuple(
        _region_from_dict(o, r)
        for r, o in enumerate(_list(raw.get("obstacles", []), "obstacles"))
    )
    return ScenarioSpec(
        dims=dims,
        arena=_box(_key(raw, "arena", "scenario"), "arena"),
        horizon=_number(_key(raw, "horizon", "scenario"), "horizon"),
        epsilon=_number(_key(raw, "epsilon", "scenario"), "epsilon"),
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
