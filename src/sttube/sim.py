"""Fixed-step closed-loop integration of all agents under tube control.

Classical 4th-order Runge-Kutta with the controller re-evaluated at each
stage point and the disturbance held constant over the step.  Agents are
integrated one at a time: the integrator for agent j touches nothing but
agent j's tubes, config, and state, so decentralization holds end to end.

Fixed step rather than adaptive: the barrier gains blow up near tube
walls and thrash adaptive error estimators; a small fixed step plus the
error guard is reproducible.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .control import (
    ControllerConfig,
    ControllerIntegrityError,
    StageTelemetry,
    autosize_funnels,
    control_input,
    stage1_error,
)
from .plant import Disturbance, PlantModel, PlantStateError, dynamics, make_plant
from .scenario import ScenarioSpec
from .tube import TubeSet, horner


@dataclass
class Trajectory:
    agent: int
    name: str
    times: np.ndarray
    states: np.ndarray  # (T, stages*dims)
    inputs: np.ndarray  # (T, dims)
    errors: np.ndarray  # (T, dims) stage-1 normalized error
    clamp_count: int = 0
    aborted: str | None = None

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]

    def output(self, scenario_dims: int) -> np.ndarray:
        """Output trajectory: the first scenario_dims components of stage 1."""
        return self.states[:, :scenario_dims]


class _Stage1Bounds:
    """Tube walls as functions of time, padded with the heading band for
    plants whose output dimension exceeds the scenario dimension."""

    def __init__(self, tubes: TubeSet, agent: int, plant: PlantModel):
        agent_dims = tubes.agents[agent].dims
        self.lower = tuple(d.lower.coeffs[::-1] for d in agent_dims)
        self.upper = tuple(d.upper.coeffs[::-1] for d in agent_dims)
        extra = plant.dims - len(agent_dims)
        if extra < 0:
            raise ValueError("plant output dimension below tube dimension")
        self.band_lower = (plant.heading_band[0],) * extra
        self.band_upper = (plant.heading_band[1],) * extra

    def at(self, t: float) -> tuple[tuple[float, ...], tuple[float, ...]]:
        return (
            horner(self.lower, t) + self.band_lower,
            horner(self.upper, t) + self.band_upper,
        )


def initial_state(
    tubes: TubeSet, agent: int, plant: PlantModel
) -> tuple[float, ...]:
    """Tube-center start: stage 1 at the wall midpoint (heading at band
    center), stage 2 at the center's drift rate so the agent starts moving
    with its tube, stages beyond at rest."""
    bounds = _Stage1Bounds(tubes, agent, plant)
    lower, upper = bounds.at(0.0)
    x1 = tuple(0.5 * (lo + hi) for lo, hi in zip(lower, upper))
    if plant.stages == 1:
        return x1
    h = 1e-7
    lo_h, hi_h = bounds.at(h)
    drift = tuple(
        (0.5 * (l1 + u1) - 0.5 * (l0 + u0)) / h
        for l0, u0, l1, u1 in zip(lower, upper, lo_h, hi_h)
    )
    rest = (0.0,) * (plant.state_dim - 2 * plant.dims)
    return x1 + drift + rest


def _split_stages(state, stages: int, dims: int):
    return [tuple(state[k * dims : (k + 1) * dims]) for k in range(stages)]


def integrate_agent(
    agent: int,
    tubes: TubeSet,
    plant: PlantModel,
    config: ControllerConfig,
    disturbance: Disturbance,
    horizon: float,
    dt: float,
    x0=None,
    name: str = "",
) -> Trajectory:
    """RK4 integration of one agent; raises ControllerIntegrityError with a
    timestamp if a recorded state leaves its tube or funnel."""
    bounds = _Stage1Bounds(tubes, agent, plant)
    n_steps = round(horizon / dt)
    if abs(n_steps * dt - horizon) > 1e-9:
        raise ValueError("dt must divide the horizon")
    x = tuple(x0) if x0 is not None else initial_state(tubes, agent, plant)
    dims, stages = plant.dims, plant.stages
    sampler = disturbance.make_sampler(agent, plant.state_dim)
    tel = StageTelemetry()

    def ctl(state, t, walls, strict=False):
        return control_input(
            _split_stages(state, stages, dims), *walls, config, t,
            strict=strict, telemetry=tel,
        )

    times = np.empty(n_steps + 1)
    states = np.empty((n_steps + 1, plant.state_dim))
    inputs = np.empty((n_steps + 1, dims))
    errors = np.empty((n_steps + 1, dims))
    half = 0.5 * dt
    aborted = None
    last = n_steps
    for step in range(n_steps + 1):
        t = step * dt
        walls = bounds.at(t)
        try:
            u = ctl(x, t, walls, strict=True)
        except ControllerIntegrityError as exc:
            raise ControllerIntegrityError(
                exc.stage, f"agent {agent + 1} at t={t:.6g}"
            ) from exc
        times[step] = t
        states[step] = x
        inputs[step] = u
        errors[step] = stage1_error(x[:dims], *walls)
        if step == n_steps:
            break
        w = sampler(t)
        if any(abs(v) > disturbance.bound + 1e-15 for v in w):
            raise AssertionError("disturbance sample exceeds the declared bound")
        try:
            k1 = dynamics(plant, x, u, w, t)
            mid = bounds.at(t + half)
            x2 = tuple(v + half * dv for v, dv in zip(x, k1))
            k2 = dynamics(plant, x2, ctl(x2, t + half, mid), w, t + half)
            x3 = tuple(v + half * dv for v, dv in zip(x, k2))
            k3 = dynamics(plant, x3, ctl(x3, t + half, mid), w, t + half)
            x4 = tuple(v + dt * dv for v, dv in zip(x, k3))
            k4 = dynamics(plant, x4, ctl(x4, t + dt, bounds.at(t + dt)), w, t + dt)
        except PlantStateError as exc:
            aborted = str(exc)
            last = step
            break
        x = tuple(
            v + dt / 6.0 * (a + 2.0 * b + 2.0 * c + d)
            for v, a, b, c, d in zip(x, k1, k2, k3, k4)
        )
    end = last + 1
    return Trajectory(
        agent=agent,
        name=name,
        times=times[:end],
        states=states[:end],
        inputs=inputs[:end],
        errors=errors[:end],
        clamp_count=tel.clamp_count,
        aborted=aborted,
    )


def build_controller_config(
    spec: ScenarioSpec,
    tubes: TubeSet,
    agent: int,
    plant: PlantModel,
    kappa=None,
    x0=None,
) -> ControllerConfig:
    """Controller config from the scenario's control block, with funnels
    auto-sized at the agent's initial state."""
    ctl = spec.control
    kappas = tuple(float(k) for k in (kappa if kappa is not None else ctl.kappa))
    if len(kappas) == 1 and plant.stages > 1:
        kappas = kappas * plant.stages
    if len(kappas) != plant.stages:
        raise ValueError("gain count does not match plant stage count")
    x_init = tuple(x0) if x0 is not None else initial_state(tubes, agent, plant)
    lo, hi = _Stage1Bounds(tubes, agent, plant).at(0.0)
    funnels = autosize_funnels(
        _split_stages(x_init, plant.stages, plant.dims),
        lo,
        hi,
        kappas,
        q=ctl.funnel_q,
        mu=ctl.funnel_mu,
        p_margin=ctl.funnel_p_margin,
        e_max=ctl.e_max,
        g_negative_definite=plant.g_sign == "negative",
    )
    return ControllerConfig(
        kappa=kappas,
        funnels=funnels,
        e_max=ctl.e_max,
        g_negative_definite=plant.g_sign == "negative",
    )


def run_closed_loop(
    spec: ScenarioSpec,
    tubes: TubeSet,
    dt: float = 1e-3,
    seed: int | None = None,
    kappa=None,
    initial_states=None,
    plant: PlantModel | None = None,
) -> list[Trajectory]:
    """Integrate every agent independently over the scenario horizon.

    ``seed`` overrides the scenario's disturbance seed; ``kappa``
    overrides the per-stage gains; ``initial_states`` (per agent, flat)
    override the tube-center default.
    """
    model = plant if plant is not None else make_plant(spec.plant, spec.dims)
    dist = Disturbance.from_config(spec.plant)
    if seed is not None:
        dist = Disturbance(bound=dist.bound, kind=dist.kind, seed=seed)
    out = []
    for j, task in enumerate(spec.agents):
        x0 = (
            tuple(initial_states[j])
            if initial_states is not None
            else initial_state(tubes, j, model)
        )
        config = build_controller_config(spec, tubes, j, model, kappa=kappa, x0=x0)
        out.append(
            integrate_agent(
                j, tubes, model, config, dist, spec.horizon, dt,
                x0=x0, name=task.name,
            )
        )
    return out


def write_trajectories_csv(
    trajectories: list[Trajectory], path: str | Path
) -> None:
    """One file per run: columns t, agent, state..., input..., e... ."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        sd = trajectories[0].states.shape[1]
        nd = trajectories[0].inputs.shape[1]
        writer.writerow(
            ["t", "agent"]
            + [f"x{i + 1}" for i in range(sd)]
            + [f"u{i + 1}" for i in range(nd)]
            + [f"e{i + 1}" for i in range(nd)]
        )
        for traj in trajectories:
            for k in range(len(traj.times)):
                writer.writerow(
                    [repr(float(traj.times[k])), traj.agent + 1]
                    + [repr(float(v)) for v in traj.states[k]]
                    + [repr(float(v)) for v in traj.inputs[k]]
                    + [repr(float(v)) for v in traj.errors[k]]
                )
