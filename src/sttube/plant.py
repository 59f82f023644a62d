"""Simulation-side ground-truth dynamics and disturbance injection.

The controller never sees anything in this module.  Plants follow the
control-affine pure-feedback chain: stage i is driven by stage i+1's
state, the last stage by the input, each with additive bounded
disturbance.  Two case-study plants are built in:

* ``omnidirectional``: planar robot pose, input rotated by the heading
  (single stage, 3 outputs); the input-gain symmetric part is
  diag(cos h, cos h, 1), positive definite while |h| < pi/2.
* ``drone_chain``: position driven by velocity, velocity by the input
  (two integrator stages, 3 outputs each); the input gain is the identity.

Neither input gain is ever negative definite, so ``make_plant`` refuses
a built-in plant with g_sign "negative": the controller's sign
assumption could not hold.

Each built-in plant's right-hand side is written once, as the source
lines of ``derivative_lines``; ``dynamics`` compiles them per shape, and
the closed loop's RK4 blocks (``sim``) inline them.  Custom plants supply
per-stage f_i / g_i callables and are evaluated with numpy.

Random disturbances come from the standard library's ``random.Random``
(Mersenne Twister), one stream per (seed, agent), seeded with the string
``f"{seed}/{agent}"``.  Python guarantees the ``random()`` sequence for a
given seed across versions, so a scenario draws the same disturbances on
any supported Python and numpy; numpy's ``Generator`` streams carry no
such guarantee across releases, and ``numpy.random`` is not imported on
the tracking path.
"""

from __future__ import annotations

import functools
import math
import numbers
import random
from dataclasses import dataclass
from math import cos, isfinite, sin  # noqa: F401 (cos, sin: read by the compiled derivatives)
from typing import Callable, Sequence

import numpy as np

from .codegen import compile_function, indent, names
from .scenario import DISTURBANCE_KINDS, PlantConfig

_BUILTIN = ("omnidirectional", "drone_chain")


class PlantStateError(RuntimeError):
    """Non-finite state encountered; the simulation must abort."""


@dataclass(frozen=True)
class PlantModel:
    kind: str
    stages: int
    dims: int
    g_sign: str = "positive"
    heading_band: tuple[float, float] = (-math.pi / 3, math.pi / 3)
    f: tuple[Callable, ...] = ()
    g: tuple[Callable, ...] = ()

    def __post_init__(self):
        if self.g_sign not in ("positive", "negative"):
            raise ValueError(f"plant g_sign must be positive or negative, not {self.g_sign!r}")

    @property
    def state_dim(self) -> int:
        return self.stages * self.dims

    @property
    def g_negative_definite(self) -> bool:
        return self.g_sign == "negative"


def make_plant(cfg: PlantConfig, scenario_dims: int) -> PlantModel:
    """The built-in plant ``cfg`` names.  ValueError for an unknown kind,
    a scenario dimension the kind does not fit, or g_sign "negative"."""
    if cfg.kind in _BUILTIN and cfg.g_sign == "negative":
        raise ValueError(
            f"{cfg.kind} plant: g_sign must be positive, its input gain is never "
            "negative definite"
        )
    if cfg.kind == "omnidirectional":
        if scenario_dims != 2:
            raise ValueError("omnidirectional plant expects a 2-D scenario")
        return PlantModel(
            kind="omnidirectional",
            stages=1,
            dims=3,
            heading_band=tuple(cfg.heading_band),
        )
    if cfg.kind == "drone_chain":
        if scenario_dims != 3:
            raise ValueError("drone chain expects a 3-D scenario")
        return PlantModel(kind="drone_chain", stages=2, dims=3)
    raise ValueError(f"unknown plant kind {cfg.kind!r}")


def make_custom_plant(
    stages: int, dims: int, f: Sequence[Callable], g: Sequence[Callable],
    g_sign: str = "positive",
) -> PlantModel:
    if len(f) != stages or len(g) != stages:
        raise ValueError("need one f and one g per stage")
    return PlantModel(
        kind="custom", stages=stages, dims=dims, g_sign=g_sign,
        f=tuple(f), g=tuple(g),
    )


def check_finite(state, t: float) -> None:
    """Raise PlantStateError unless every component of ``state`` is
    finite.  Called when the state's sum is not finite, which a finite
    state gives only when the sum overflows."""
    if not all(map(isfinite, state)):
        raise PlantStateError(f"non-finite state at t={t:.6g}: {tuple(state)}")


def derivative_lines(
    kind: str, stages: int, dims: int, x: str, u: str, d: str, out: str, t: str
) -> list[str]:
    """The state derivative as source lines with no loop: they set
    ``{out}<j>`` from the state ``{x}<j>``, the input ``{u}<i>`` and the
    disturbance ``{d}<j>``, after aborting with PlantStateError if the
    state is not finite at time ``{t}``: a finite sum proves every
    component finite, and only a sum that is not finite leads to the
    per-component check.  ``dynamics`` and the closed loop's compiled RK4
    blocks both run these lines, so each built-in plant is written once;
    any other kind is one call of ``dynamics(plant, ...)``, which finds
    ``plant`` and ``dynamics`` in the caller's globals."""
    n = stages * dims
    state = f"({names(x, n)})"
    if kind not in _BUILTIN:
        return [
            f"{names(out, n)}= dynamics(plant, {state}, ({names(u, dims)}), ({names(d, n)}), {t})"
        ]
    check = f"if not isfinite({' + '.join(f'{x}{j}' for j in range(n))}): check_finite({state}, {t})"
    if kind == "omnidirectional":  # the input rotated by the heading x2
        return [
            check,
            f"cos_h = cos({x}2); sin_h = sin({x}2)",
            f"{out}0 = cos_h * {u}0 - sin_h * {u}1 + {d}0",
            f"{out}1 = sin_h * {u}0 + cos_h * {u}1 + {d}1",
            f"{out}2 = {u}2 + {d}2",
        ]
    # drone_chain: each stage integrates the next one's state, the last the input.
    drive = [f"{x}{j + dims}" for j in range(n - dims)] + [f"{u}{i}" for i in range(dims)]
    return [check, *(f"{out}{j} = {v} + {d}{j}" for j, v in enumerate(drive))]


@functools.cache
def _derivative(kind: str, stages: int, dims: int):
    """The derivative of a built-in plant of this shape, compiled once."""
    n = stages * dims
    source = "\n".join([
        "def derivative(state, u, w, t):",
        f" {names('x', n)}= state",
        f" {names('u', dims)}= u",
        f" {names('d', n)}= w",
        *indent(derivative_lines(kind, stages, dims, "x", "u", "d", "f", "t")),
        f" return ({names('f', n)})",
    ]) + "\n"
    return compile_function(source, f"<sttube derivative {kind} {stages}x{dims}>", globals())


def dynamics(model: PlantModel, state, u, w, t: float) -> tuple[float, ...]:
    """State derivative for the stacked state under input u and disturbance w.

    ``state`` and ``w`` are flat, length stages * dims; ``u`` has length
    dims.  Raises PlantStateError on non-finite state.  The built-in
    plants run their ``derivative_lines``, compiled once per shape.
    """
    if model.kind in _BUILTIN:
        return _derivative(model.kind, model.stages, model.dims)(state, u, w, t)
    if not isfinite(sum(state)):
        check_finite(state, t)
    # Generic pure-feedback chain.
    n = model.dims
    out = []
    for i in range(model.stages):
        xbar = np.asarray(state[: (i + 1) * n], dtype=float)
        drive = (
            np.asarray(u, dtype=float)
            if i == model.stages - 1
            else np.asarray(state[(i + 1) * n : (i + 2) * n], dtype=float)
        )
        fx = np.asarray(model.f[i](xbar), dtype=float)
        gx = np.asarray(model.g[i](xbar), dtype=float)
        dx = fx + gx @ drive + np.asarray(w[i * n : (i + 1) * n], dtype=float)
        out.extend(float(v) for v in dx)
    return tuple(out)


@dataclass(frozen=True)
class Disturbance:
    """Bounded per-component disturbance, sampled once per step (zero-order hold).

    ``seed`` is a nonnegative integer; each agent draws from its own stream.
    """

    bound: float
    kind: str = "uniform"  # zero | uniform | sinusoidal
    seed: int = 0
    frequency: float = 1.0

    def __post_init__(self):
        if not 0 <= self.bound < math.inf:
            raise ValueError("disturbance bound must be nonnegative and finite")
        if not (isinstance(self.seed, numbers.Integral) and self.seed >= 0):
            raise ValueError(
                f"disturbance seed must be a nonnegative integer, not {self.seed!r}"
            )
        if self.kind not in DISTURBANCE_KINDS:
            raise ValueError(f"unknown disturbance kind {self.kind!r}")
        if not math.isfinite(self.frequency):
            raise ValueError(f"disturbance frequency must be finite, not {self.frequency!r}")

    def make_sampler(self, agent: int, size: int) -> Callable[[np.ndarray], np.ndarray]:
        """Per-agent block sampler: called with the start times of
        consecutive steps, it returns their samples, (len(times), size).

        Successive calls continue one random stream, so a step's sample
        does not depend on how the steps are split into calls.  The
        uniform kind maps each ``u = rng.random()``, row-major, to
        ``-bound + 2 bound u``; the sinusoidal kind draws its phases
        ``2 pi u`` once.  Raises AssertionError if a sample exceeds the
        declared bound or is NaN.
        """
        bound, freq = self.bound, self.frequency
        rng = random.Random(f"{self.seed}/{agent}")
        if self.kind == "zero" or bound == 0.0:
            def draw(times):
                return np.zeros((len(times), size))
        elif self.kind == "uniform":
            def draw(times):
                # iter(rng.random, -1.0) never ends; fromiter takes n values.
                n = len(times) * size
                u = np.fromiter(iter(rng.random, -1.0), float, n)
                return -bound + 2.0 * bound * u.reshape(len(times), size)
        else:
            phases = np.array([2.0 * math.pi * rng.random() for _ in range(size)])

            def draw(times):  # math.sin: np.sin can differ in the last bit
                angles = freq * np.asarray(times, dtype=float)[:, None] + phases
                sines = np.fromiter(
                    map(math.sin, angles.ravel().tolist()), float, angles.size
                )
                return bound * sines.reshape(angles.shape)

        def sampler(times) -> np.ndarray:
            w = draw(times)
            if not np.all(np.abs(w) <= bound + 1e-15):
                raise AssertionError("disturbance sample is NaN or exceeds the declared bound")
            return w

        return sampler

    @staticmethod
    def from_config(cfg: PlantConfig) -> "Disturbance":
        return Disturbance(
            bound=cfg.disturbance_bound,
            kind=cfg.disturbance_kind,
            seed=cfg.disturbance_seed,
        )
