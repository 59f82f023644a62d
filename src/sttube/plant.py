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

Each input gain keeps the eigenvalue 1 at every heading, so neither is
ever negative definite: the controller's fixed assumption, a positive
definite input gain, holds for both.  A plant whose input gain is
negative definite is modelled with its input negated.

Each built-in plant's right-hand side is written once, as the source
lines of ``derivative_lines``; ``dynamics`` compiles them per shape, and
the closed loop's RK4 blocks (``sim``) inline them.  Custom plants supply
per-stage f_i / g_i callables and are evaluated with numpy.

``disturbance_sampler`` draws the disturbance that the scenario's
``plant`` block sets and checks (``PlantConfig.disturbance_*``).  Random
disturbances come from the standard library's ``random.Random``
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
import random
from dataclasses import dataclass
from math import cos, isfinite, sin  # noqa: F401 (cos, sin: read by the compiled derivatives)
from typing import Callable, Sequence

import numpy as np

from .codegen import compile_function, indent, names
from .scenario import PLANT_DIMS, PLANT_STAGES, PlantConfig, ScenarioError, check_plant_kind


class PlantStateError(RuntimeError):
    """Non-finite state encountered; the simulation must abort."""


@dataclass(frozen=True)
class PlantModel:
    kind: str
    stages: int
    dims: int
    heading_band: tuple[float, float] = (-math.pi / 3, math.pi / 3)
    f: tuple[Callable, ...] = ()
    g: tuple[Callable, ...] = ()

    @property
    def state_dim(self) -> int:
        return self.stages * self.dims


def make_plant(cfg: PlantConfig, scenario_dims: int) -> PlantModel:
    """The built-in plant ``cfg`` names or, where it names none, the one
    that fits ``scenario_dims``.  ScenarioError (a ValueError) for an
    unknown kind, or for dims that it does not fit."""
    kind = cfg.kind or next((k for k, d in PLANT_DIMS.items() if d == scenario_dims), None)
    if kind is None:
        raise ScenarioError(f"no built-in plant kind fits a {scenario_dims}-D scenario")
    check_plant_kind(kind, scenario_dims)
    # Both built-ins have 3 outputs; the drone chain's equal the
    # scenario's dims, so it never reads the heading band.
    return PlantModel(
        kind=kind, stages=PLANT_STAGES[kind], dims=3, heading_band=tuple(cfg.heading_band)
    )


def make_custom_plant(
    stages: int, dims: int, f: Sequence[Callable], g: Sequence[Callable]
) -> PlantModel:
    if len(f) != stages or len(g) != stages:
        raise ValueError("need one f and one g per stage")
    return PlantModel(kind="custom", stages=stages, dims=dims, f=tuple(f), g=tuple(g))


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
    if kind not in PLANT_DIMS:
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
    if model.kind in PLANT_DIMS:
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


def disturbance_sampler(
    cfg: PlantConfig, agent: int, size: int
) -> Callable[[np.ndarray], np.ndarray]:
    """Per-agent block sampler of the disturbance that the scenario's
    plant block ``cfg`` sets, sampled once per step (zero-order hold):
    called with the start times of consecutive steps, it returns their
    samples, (len(times), size).

    Successive calls continue one random stream, so a step's sample
    does not depend on how the steps are split into calls.  The
    uniform kind maps each ``u = rng.random()``, row-major, to
    ``-bound + 2 bound u``; the sinusoidal kind draws its phases
    ``2 pi u`` once and samples ``bound * sin(t + phase)``.  Raises
    AssertionError if a sample exceeds the declared bound or is NaN.
    """
    bound = cfg.disturbance_bound
    rng = random.Random(f"{cfg.disturbance_seed}/{agent}")
    if cfg.disturbance_kind == "zero" or bound == 0.0:
        def draw(times):
            return np.zeros((len(times), size))
    elif cfg.disturbance_kind == "uniform":
        def draw(times):
            # iter(rng.random, -1.0) never ends; fromiter takes n values.
            n = len(times) * size
            u = np.fromiter(iter(rng.random, -1.0), float, n)
            return -bound + 2.0 * bound * u.reshape(len(times), size)
    else:
        phases = np.array([2.0 * math.pi * rng.random() for _ in range(size)])

        def draw(times):  # math.sin: np.sin can differ in the last bit
            angles = np.asarray(times, dtype=float)[:, None] + phases
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
