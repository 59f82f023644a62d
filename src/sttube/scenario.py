"""Problem data model and file I/O: arenas, agents, obstacles, horizons.

A scenario file is JSON with top-level keys ``dims``, ``horizon``,
``epsilon``, ``arena``, ``agents``, ``obstacles`` and optional ``plant`` /
``control`` blocks.  Lengths are meters, times seconds, angles radians.
Boxes are lists of per-axis ``[lo, hi]`` pairs.

In memory every box is the array its consumers compute with: the arena
and each agent's start and goal are (dims, 2), lo then hi per axis, and
an obstacle is one keyframe table, ``times`` (K,) and ``bounds``
(K, dims, 2).  ``box_inside`` and ``boxes_meet`` are the two box tests;
``unsafe_bounds`` interpolates a table at many times at once.  Every
array is a read-only copy, so a loaded scenario is immutable and safe to
share across threads.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


class ScenarioError(ValueError):
    """Raised when a scenario file is malformed or violates an invariant."""


def box_array(bounds) -> np.ndarray:
    """Read-only float copy of box bounds (..., dims, 2), lo then hi per
    axis; raises ScenarioError where an axis has lo > hi (or a NaN)."""
    out = np.array(bounds, dtype=float)
    if out.ndim < 2 or out.shape[-1] != 2:
        raise ScenarioError(f"box bounds must be [lo, hi] pairs, not shape {out.shape}")
    reversed_ = ~(out[..., 0] <= out[..., 1])
    if reversed_.any():
        lo, hi = out[reversed_][0].tolist()
        raise ScenarioError(f"interval lo > hi: [{lo}, {hi}]")
    out.flags.writeable = False
    return out


def box_inside(inner, outer, tol: float = 0.0) -> np.ndarray:
    """Whether box ``inner`` lies in box ``outer``, up to ``tol`` per face;
    both (..., dims, 2), broadcast against each other."""
    return (
        (outer[..., 0] - tol <= inner[..., 0]) & (inner[..., 1] <= outer[..., 1] + tol)
    ).all(axis=-1)


def boxes_meet(a, b) -> np.ndarray:
    """Whether closed boxes ``a`` and ``b`` meet (touching faces count);
    both (..., dims, 2), broadcast against each other."""
    return ((a[..., 0] <= b[..., 1]) & (b[..., 0] <= a[..., 1])).all(axis=-1)


@dataclass(frozen=True, eq=False)
class UnsafeRegion:
    """Time-varying unsafe box given by keyframes: ``bounds[k]`` (dims, 2)
    is the box at ``times[k]``.

    ``static`` regions hold a single keyframe; ``piecewise-linear`` regions
    interpolate lo/hi per axis between keyframes and hold the last box
    beyond the final keyframe time.  Both arrays are read-only copies.
    """

    times: np.ndarray  # (K,)
    bounds: np.ndarray  # (K, dims, 2)
    interpolation: str = "static"

    def __post_init__(self):
        times = np.array(self.times, dtype=float)
        if times.ndim != 1 or not len(times):
            raise ScenarioError("unsafe region needs at least one keyframe")
        if self.interpolation not in ("static", "piecewise-linear"):
            raise ScenarioError(f"unknown interpolation {self.interpolation!r}")
        if self.interpolation == "static" and len(times) != 1:
            raise ScenarioError("static region must have exactly one keyframe")
        if not (np.diff(times) > 0).all():  # a NaN time is refused too
            raise ScenarioError("keyframe times must be strictly increasing")
        try:
            bounds = np.array(self.bounds, dtype=float)
        except ValueError as exc:  # ragged: boxes of different dimensions
            raise ScenarioError("keyframe boxes must share dimensions") from exc
        bounds = box_array(bounds)
        if bounds.ndim != 3 or len(bounds) != len(times):
            raise ScenarioError("unsafe region needs one (dims, 2) box per keyframe time")
        times.flags.writeable = False
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "bounds", bounds)

    @property
    def speed(self) -> float:
        """Largest speed of any face of the box, max |d bounds / dt| over
        the keyframe segments; 0 for a single keyframe."""
        rates = np.diff(self.bounds, axis=0) / np.diff(self.times)[:, None, None]
        return float(np.abs(rates).max(initial=0.0))


def unsafe_box_at(region: UnsafeRegion, t: float, horizon: float | None = None) -> np.ndarray:
    """Unsafe box (dims, 2) at time ``t``: exact keyframe, interpolation,
    or last-box hold.  The scalar reference that ``unsafe_bounds`` is
    checked against.

    ``horizon``, when given, bounds the valid query window [0, horizon].
    """
    if t < 0.0:
        raise ScenarioError(f"time {t} before start of horizon")
    if horizon is not None and t > horizon:
        raise ScenarioError(f"time {t} beyond horizon {horizon}")
    times, frames = region.times.tolist(), region.bounds
    if region.interpolation == "static" or t <= times[0]:
        return frames[0]
    if t >= times[-1]:
        return frames[-1]
    for k, (t0, t1) in enumerate(zip(times, times[1:])):
        if t0 <= t <= t1:
            w = (t - t0) / (t1 - t0)
            return frames[k] + w * (frames[k + 1] - frames[k])
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
    key_t, frames = region.times, region.bounds  # (K,), (K, n, 2)
    if len(key_t) == 1:
        return np.repeat(frames, len(t), axis=0)
    seg = np.clip(np.searchsorted(key_t, t) - 1, 0, len(key_t) - 2)
    w = ((t - key_t[seg]) / (key_t[seg + 1] - key_t[seg]))[:, None, None]
    b0, b1 = frames[seg], frames[seg + 1]
    out = b0 + w * (b1 - b0)
    out[t <= key_t[0]] = frames[0]
    out[t >= key_t[-1]] = frames[-1]
    return out


def default_min_width(start, goal) -> tuple[float, ...]:
    # Half the tighter of the endpoint box widths keeps the endpoint
    # equalities feasible in every dimension.
    widths = np.minimum(np.diff(start, axis=-1), np.diff(goal, axis=-1))[:, 0]
    return tuple((0.5 * widths).tolist())


@dataclass(frozen=True, eq=False)
class AgentTask:
    """Start/goal boxes (dims, 2), read-only copies, plus the tube
    template for one agent."""

    start: np.ndarray
    goal: np.ndarray
    tube_degree: tuple[int, ...]
    min_width: tuple[float, ...]
    name: str = ""

    def __post_init__(self):
        object.__setattr__(self, "start", box_array(self.start))
        object.__setattr__(self, "goal", box_array(self.goal))
        if any(d < 1 for d in self.tube_degree):
            raise ScenarioError("tube degree must be a positive integer")
        if not all(w > 0 for w in self.min_width):
            raise ScenarioError("min tube width must be positive")


DISTURBANCE_KINDS = ("zero", "uniform", "sinusoidal")

# The built-in plant kinds, each with the scenario dimension it fits.
PLANT_DIMS = {"omnidirectional": 2, "drone_chain": 3}


def check_plant_kind(kind, dims: int | None = None) -> None:
    """Raise ScenarioError unless ``kind`` is a built-in plant kind and,
    when ``dims`` is given, fits a ``dims``-dimensional scenario."""
    if not isinstance(kind, str) or kind not in PLANT_DIMS:
        raise ScenarioError(f"unknown plant kind {kind!r}")
    if dims is not None and PLANT_DIMS[kind] != dims:
        raise ScenarioError(
            f"plant kind {kind!r} needs a {PLANT_DIMS[kind]}-D scenario, not {dims}-D"
        )


@dataclass(frozen=True)
class PlantConfig:
    """Plant selection and disturbance block (simulation side only).

    The kind must be a built-in one; that it fits the scenario's
    dimension is checked when a scenario file names it and when the
    plant is built (``plant.make_plant``).  A file that names no kind
    gets the built-in one that fits its dimension (``omnidirectional``
    where none does).  The controller assumes a positive definite input
    gain, so the block sets no sign for it.
    """

    kind: str = "omnidirectional"
    heading_band: tuple[float, float] = (-1.0471975511965976, 1.0471975511965976)
    disturbance_bound: float = 0.01
    disturbance_kind: str = "uniform"
    disturbance_seed: int = 0

    def __post_init__(self):
        check_plant_kind(self.kind)
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


@dataclass(frozen=True, eq=False)
class ScenarioSpec:
    """A full problem statement: arena (dims, 2), a read-only copy,
    horizon, agents, obstacles."""

    dims: int
    arena: np.ndarray
    horizon: float
    epsilon: float
    agents: tuple[AgentTask, ...]
    obstacles: tuple[UnsafeRegion, ...] = ()
    plant: PlantConfig = field(default_factory=PlantConfig)
    control: ControlConfig = field(default_factory=ControlConfig)

    def __post_init__(self):
        object.__setattr__(self, "arena", box_array(self.arena))
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
    shape = (spec.dims, 2)
    if spec.arena.shape != shape:
        raise ScenarioError("arena dimension does not match dims")
    for j, agent in enumerate(spec.agents):
        tag = agent.name or f"agent {j + 1}"
        for box, label in ((agent.start, "start"), (agent.goal, "goal")):
            if box.shape != shape:
                raise ScenarioError(f"{tag}: {label} box dimension mismatch")
            if not box_inside(box, spec.arena):
                raise ScenarioError(f"{tag}: {label} box not inside the arena")
        if len(agent.tube_degree) != spec.dims:
            raise ScenarioError(f"{tag}: tube degree list length mismatch")
        if len(agent.min_width) != spec.dims:
            raise ScenarioError(f"{tag}: min width list length mismatch")
        room = np.minimum(np.diff(agent.start), np.diff(agent.goal))[:, 0].tolist()
        for i, (w, r) in enumerate(zip(agent.min_width, room)):
            if w > r:
                raise ScenarioError(
                    f"{tag}: min width {w} exceeds start/goal width in dim {i + 1}"
                )
    for r, region in enumerate(spec.obstacles):
        if region.bounds.shape[1:] != shape:
            raise ScenarioError(f"obstacle {r + 1}: box dimension mismatch")
        # Interpolated box must stay inside the arena over the horizon:
        # checked at the ends and the middle of every piece between the
        # keyframe times.
        probes = np.array(sorted(
            {0.0, spec.horizon}
            | {t for t in region.times.tolist() if 0.0 <= t <= spec.horizon}
        ))
        t = (probes[:-1, None] + np.array([0.0, 0.5, 1.0]) * np.diff(probes)[:, None]).ravel()
        outside = ~box_inside(unsafe_bounds(region, t), spec.arena, tol=1e-12)
        if outside.any():
            raise ScenarioError(
                f"obstacle {r + 1}: leaves the arena at t={t[outside.argmax()]:g}"
            )
        u0, uc = unsafe_bounds(region, [0.0, spec.horizon])
        for j, agent in enumerate(spec.agents):
            tag = agent.name or f"agent {j + 1}"
            if boxes_meet(agent.start, u0):
                raise ScenarioError(
                    f"{tag}: start box intersects unsafe region {r + 1} at t=0"
                )
            if boxes_meet(agent.goal, uc):
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


def _box(value, field: str) -> np.ndarray:
    pairs = _list(value, field)
    if not all(isinstance(p, (list, tuple)) and len(p) == 2 for p in pairs):
        raise ScenarioError(f"{field} must be a list of [lo, hi] pairs, not {value!r}")
    bounds = [[_number(v, field) for v in p] for p in pairs]
    try:
        return box_array(np.reshape(bounds, (-1, 2)))  # [] is a box of no axes
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
    times, boxes = [], []
    for frame in _list(_key(raw, "keyframes", tag), f"{tag} keyframes"):
        if not isinstance(frame, (list, tuple)) or len(frame) != 2:
            raise ScenarioError(f"{tag} keyframes must be [time, box] pairs, not {frame!r}")
        t, box = frame
        times.append(_number(t, f"{tag} keyframe time"))
        boxes.append(_box(box, f"{tag} keyframe box"))
    return UnsafeRegion(
        times=times, bounds=boxes, interpolation=raw.get("interpolation", "static")
    )


def _plant_from_dict(raw, dims: int) -> PlantConfig:
    raw = _object(raw, "plant")
    if "kind" in raw:
        check_plant_kind(raw["kind"], dims)
    g_sign = raw.get("g_sign", "positive")
    if g_sign != "positive":
        raise ScenarioError(
            f"plant g_sign must be positive, not {g_sign!r}: the controller assumes a "
            "positive definite input gain; negate the input of a plant whose gain is "
            "negative definite"
        )
    dist = _object(raw.get("disturbance", {}), "plant disturbance")
    band = _list(raw.get("heading_band", PlantConfig.heading_band), "plant heading_band")
    fitting = next((k for k, d in PLANT_DIMS.items() if d == dims), PlantConfig.kind)
    return PlantConfig(
        kind=raw.get("kind", fitting),
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
        plant=_plant_from_dict(raw.get("plant", {}), dims),
        control=_control_from_dict(raw.get("control", {})),
    )


def scenario_to_dict(spec: ScenarioSpec) -> dict:
    """The JSON form that ``scenario_from_dict`` reads back.  The plant
    ``kind`` is left out where no built-in kind fits ``dims``: there it
    can only be the loader's default, and a file may not name it.  A
    kind that misfits dims some kind fits is written, and refused on
    load."""
    named = spec.dims in PLANT_DIMS.values()
    return {
        "dims": spec.dims,
        "horizon": spec.horizon,
        "epsilon": spec.epsilon,
        "arena": spec.arena.tolist(),
        "agents": [
            {
                "name": a.name,
                "start": a.start.tolist(),
                "goal": a.goal.tolist(),
                "tube_degree": list(a.tube_degree),
                "min_width": list(a.min_width),
            }
            for a in spec.agents
        ],
        "obstacles": [
            {
                "interpolation": r.interpolation,
                "keyframes": [[t, b] for t, b in zip(r.times.tolist(), r.bounds.tolist())],
            }
            for r in spec.obstacles
        ],
        "plant": {
            **({"kind": spec.plant.kind} if named else {}),
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
