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

The file format is one layout table per block (``_SCENARIO``, ``_AGENT``,
``_REGION``, ``_PLANT``, ``_CONTROL``), which the reader ``_read`` and the
writer ``_write`` both walk; a key a file leaves out takes the dataclass
default, and a None value (a plant that names no kind) is not written.
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
    def keyframes(self) -> list:
        """The table as the file's ``[time, box]`` pairs."""
        return [[t, box] for t, box in zip(self.times.tolist(), self.bounds.tolist())]

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

# The built-in plant kinds, each with the scenario dimension it fits
# and its number of integrator stages.
PLANT_DIMS = {"omnidirectional": 2, "drone_chain": 3}
PLANT_STAGES = {"omnidirectional": 1, "drone_chain": 2}


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

    ``kind`` is a built-in plant kind, or None where the scenario names
    none: ``plant.make_plant`` then builds the built-in kind that fits
    the scenario's dimension.  That a named kind fits the dimension is
    checked with the scenario (``validate_scenario``), as is that the
    control block's gain count fits it.  The controller assumes a
    positive definite input gain, so the block sets no sign for it.

    The ``disturbance_*`` fields are the one definition of the bounded
    disturbance (``plant.disturbance_sampler`` draws it): a bound in
    [0, inf), a kind and a nonnegative integer seed.
    """

    kind: str | None = None
    heading_band: tuple[float, float] = (-1.0471975511965976, 1.0471975511965976)
    disturbance_bound: float = 0.01
    disturbance_kind: str = "uniform"
    disturbance_seed: int = 0

    def __post_init__(self):
        if self.kind is not None:
            check_plant_kind(self.kind)
        band = self.heading_band
        if not (len(band) == 2 and -math.inf < band[0] < band[1] < math.inf):
            raise ScenarioError(
                f"plant heading_band must be two finite values lo < hi, not {band}"
            )
        if not 0 <= self.disturbance_bound < math.inf:
            raise ScenarioError("disturbance bound must be nonnegative and finite")
        seed = self.disturbance_seed
        if isinstance(seed, bool) or not (isinstance(seed, numbers.Integral) and seed >= 0):
            raise ScenarioError(
                f"disturbance seed must be a nonnegative integer, not {seed!r}"
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
        if not self.kappa:
            raise ScenarioError("at least one stage gain is required")
        if not all(0 < k < math.inf for k in self.kappa):
            raise ScenarioError("stage gains must be positive and finite")
        if not 0.0 < self.e_max < 1.0:
            raise ScenarioError("e_max must lie in (0, 1)")
        for key, value in (("q", self.funnel_q), ("mu", self.funnel_mu)):
            if not 0 < value < math.inf:
                raise ScenarioError(f"funnel {key} must be positive and finite, not {value}")
        if not math.isfinite(self.funnel_p_margin):
            raise ScenarioError("funnel p_margin must be finite")


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
    kind = spec.plant.kind
    if kind is not None:
        check_plant_kind(kind, spec.dims)
        gains, stages = len(spec.control.kappa), PLANT_STAGES[kind]
        if gains not in (1, stages):
            raise ScenarioError(
                f"control kappa must hold 1 gain or one per stage ({stages} for "
                f"plant kind {kind!r}), not {gains}"
            )
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


def _numbers(value, field: str) -> tuple[float, ...]:
    return tuple(_number(v, field) for v in _list(value, field))


def _degrees(value, field: str) -> tuple[int, ...] | int:
    """A degree per axis, or one integer degree for every axis."""
    if isinstance(value, (list, tuple)):
        return tuple(_integer(d, field) for d in value)
    return _integer(value, field)


def _given(value, field: str):
    return value  # a name, or a kind or interpolation, which its constructor checks


def _box(value, field: str) -> np.ndarray:
    pairs = _list(value, field)
    if not all(isinstance(p, (list, tuple)) and len(p) == 2 for p in pairs):
        raise ScenarioError(f"{field} must be a list of [lo, hi] pairs, not {value!r}")
    bounds = [[_number(v, field) for v in p] for p in pairs]
    try:
        return box_array(np.reshape(bounds, (-1, 2)))  # [] is a box of no axes
    except ScenarioError as exc:  # lo > hi
        raise ScenarioError(f"{field}: {exc}") from exc


def _keyframes(value, field: str) -> tuple[list, list]:
    """The times and the boxes of a list of ``[time, box]`` pairs."""
    times, boxes = [], []
    for frame in _list(value, field):
        if not isinstance(frame, (list, tuple)) or len(frame) != 2:
            raise ScenarioError(f"{field} must be [time, box] pairs, not {frame!r}")
        times.append(_number(frame[0], f"{field} time"))
        boxes.append(_box(frame[1], f"{field} box"))
    return times, boxes


def _plant(raw, field: str) -> PlantConfig:
    fields = _read(_PLANT, raw, field)
    if (g_sign := raw.get("g_sign", "positive")) != "positive":
        raise ScenarioError(
            f"{field} g_sign must be positive, not {g_sign!r}: the controller assumes a "
            "positive definite input gain; negate the input of a plant whose gain is "
            "negative definite"
        )
    return PlantConfig(**fields)


def _control(raw, field: str) -> ControlConfig:
    return ControlConfig(**_read(_CONTROL, raw, field))


# The file format.  Each table maps a JSON key to the reader that checks
# its value and sets the attribute of the same name, or to a nested table
# whose keys set attributes of the same object, named ``<key>_<subkey>``.
_SCENARIO = {
    "dims": _integer, "horizon": _number, "epsilon": _number, "arena": _box,
    "agents": _list, "obstacles": _list, "plant": _plant, "control": _control,
}
_AGENT = {
    "name": _given, "start": _box, "goal": _box, "tube_degree": _degrees, "min_width": _numbers,
}
_REGION = {"interpolation": _given, "keyframes": _keyframes}
_PLANT = {
    "kind": _given, "heading_band": _numbers,
    "disturbance": {"bound": _number, "kind": _given, "seed": _integer},
}
_CONTROL = {
    "kappa": _numbers, "e_max": _number,
    "funnel": {"q": _number, "mu": _number, "p_margin": _number},
}
_LAYOUTS = {AgentTask: _AGENT, UnsafeRegion: _REGION, PlantConfig: _PLANT, ControlConfig: _CONTROL}


def _read(layout: dict, raw, label: str, required=(), prefix: str = "") -> dict:
    """The attributes that the JSON object ``raw`` sets, by ``layout``; a
    key it leaves out sets none.  Errors name a value by ``label`` and
    its key (a top-level value by its key alone)."""
    raw = _object(raw, label)
    for key in required:
        if key not in raw:
            raise ScenarioError(f"{label}: missing key {key!r}")
    fields = {}
    for key, reader in layout.items():
        if key in raw:
            field = key if label == "scenario" else f"{label} {key}"
            if isinstance(reader, dict):
                fields.update(_read(reader, raw[key], field, prefix=f"{prefix}{key}_"))
            else:
                fields[prefix + key] = reader(raw[key], field)
    return fields


def _write(layout: dict, obj, prefix: str = "") -> dict:
    """The JSON object for ``obj``, by ``layout``, without its None values."""
    out = {}
    for key, reader in layout.items():
        if isinstance(reader, dict):
            out[key] = _write(reader, obj, f"{prefix}{key}_")
        elif (value := getattr(obj, prefix + key)) is not None:
            out[key] = _plain(value)
    return out


def _plain(value):
    """The JSON form of an attribute's value."""
    if type(value) in _LAYOUTS:
        return _write(_LAYOUTS[type(value)], value)
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    return value.tolist() if isinstance(value, np.ndarray) else value


def _agent(raw, dims: int, idx: int) -> AgentTask:
    fields = _read(_AGENT, raw, f"agent {idx + 1}", required=("start", "goal"))
    if isinstance(degree := fields.get("tube_degree", 2), int):
        fields["tube_degree"] = (degree,) * dims
    if "min_width" not in fields:
        fields["min_width"] = default_min_width(fields["start"], fields["goal"])
    return AgentTask(**{"name": f"agent{idx + 1}", **fields})


def _region(raw, idx: int) -> UnsafeRegion:
    fields = _read(_REGION, raw, f"obstacle {idx + 1}", required=("keyframes",))
    fields["times"], fields["bounds"] = fields.pop("keyframes")
    return UnsafeRegion(**fields)


def scenario_from_dict(raw: dict) -> ScenarioSpec:
    """Build and validate a scenario from its JSON form.

    Raises ScenarioError naming the field for a missing key, a value of
    the wrong type (a non-integer degree, a scalar where a list belongs, a
    box entry that is not a [lo, hi] pair) or any violated invariant.
    """
    required = ("dims", "horizon", "epsilon", "arena", "agents")
    fields = _read(_SCENARIO, raw, "scenario", required)
    fields["agents"] = tuple(_agent(a, fields["dims"], i) for i, a in enumerate(fields["agents"]))
    fields["obstacles"] = tuple(_region(o, r) for r, o in enumerate(fields.get("obstacles", ())))
    return ScenarioSpec(**fields)


def scenario_to_dict(spec: ScenarioSpec) -> dict:
    """The JSON form that ``scenario_from_dict`` reads back; a plant
    ``kind`` is written exactly when the scenario names one."""
    return _write(_SCENARIO, spec)


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
