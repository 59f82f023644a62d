"""Fixed-step closed-loop integration of all agents under tube control.

Classical 4th-order Runge-Kutta with the controller re-evaluated at each
stage point and the disturbance held constant over the step.  Each agent
is integrated alone, on its own tubes, config and state, so
decentralization holds end to end.

Steps run in blocks of ``BLOCK``.  What depends on time alone (the
agent's walls: its faces, then the heading band; the constraint rows;
the disturbance) is formed once per block, as arrays on the RK4 grids
t, t + dt/2 and t + dt.  The per-step loop takes its rows from them,
forms the RK4 stage points and update with index loops over the state
(no comprehensions, which Python 3.11 runs as function calls), and
calls ``control_input`` (the compiled law of ``control``) once per RK4
evaluation and ``dynamics`` once per stage, both looked up as module
globals at each call, so a wrapper on ``sttube.sim.control_input`` or
``sttube.sim.dynamics`` (a profiler, a call counter) sees every
evaluation.  The floating-point operations are those of a step-by-step
evaluation, so trajectories do not depend on the block size.

A ``Trajectory`` records times and states, with the run's controller;
``input_series`` and ``stage1_error_series`` form its inputs and
stage-1 errors on demand, bit for bit.

Fixed step rather than adaptive: the barrier gains blow up near tube
walls and thrash adaptive error estimators; a small fixed step plus the
error guard is reproducible.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .control import (
    ControllerConfig,
    ControllerIntegrityError,
    StageTelemetry,
    autosize_funnels,
    constraint_rows,
    control_input,
)
from .plant import Disturbance, PlantModel, PlantStateError, dynamics, make_plant
from .scenario import ScenarioSpec
from .tube import TubeSet, tube_values

# Steps per block of precomputed time-only quantities, large enough to
# amortize the per-block array calls.  The block stays in numpy arrays
# (about 35 kB for a two-stage plant with six states) and each step turns
# only its own rows into Python floats: a whole block as float lists
# holds several times that in Python objects and raised peak memory.
BLOCK = 128


@dataclass
class Trajectory:
    agent: int
    name: str
    times: np.ndarray
    states: np.ndarray  # (T, stages*dims)
    config: ControllerConfig
    clamp_count: int = 0
    aborted: str | None = None

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]

    def output(self, scenario_dims: int) -> np.ndarray:
        """Output trajectory: the first scenario_dims components of stage 1."""
        return self.states[:, :scenario_dims]


class _Stage1Bounds:
    """One agent's stage-1 walls as arrays over time: its tube faces,
    padded with the heading band for plants whose output dimension
    exceeds the scenario dimension."""

    def __init__(self, tubes: TubeSet, agent: int, plant: PlantModel):
        self.tubes = TubeSet(horizon=tubes.horizon, agents=(tubes.agents[agent],))
        self.extra = plant.dims - self.tubes.dims
        if self.extra < 0:
            raise ValueError("plant output dimension below tube dimension")
        self.band = plant.heading_band

    def at(self, times) -> tuple[np.ndarray, np.ndarray]:
        """(lower, upper), each (len(times), plant dims)."""
        faces = tube_values(self.tubes, times)[0]
        pad = np.ones((faces.shape[-1], self.extra))
        return (
            np.hstack([faces[:, 0].T, self.band[0] * pad]),
            np.hstack([faces[:, 1].T, self.band[1] * pad]),
        )


def initial_state(
    tubes: TubeSet, agent: int, plant: PlantModel
) -> tuple[float, ...]:
    """Tube-center start: stage 1 at the wall midpoint (heading at band
    center), stage 2 at the center's drift rate so the agent starts moving
    with its tube, stages beyond at rest."""
    h = 1e-7
    (lower, lo_h), (upper, hi_h) = (
        a.tolist() for a in _Stage1Bounds(tubes, agent, plant).at([0.0, h])
    )
    x1 = tuple(0.5 * (lo + hi) for lo, hi in zip(lower, upper))
    if plant.stages == 1:
        return x1
    drift = tuple(
        (0.5 * (l1 + u1) - 0.5 * (l0 + u0)) / h
        for l0, u0, l1, u1 in zip(lower, upper, lo_h, hi_h)
    )
    rest = (0.0,) * (plant.state_dim - 2 * plant.dims)
    return x1 + drift + rest


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
    timestamp if a recorded state leaves its tube or funnel, or if the
    tube collapses at any evaluation.  A non-finite state ends the run
    early (``aborted``) with every step up to the failing one recorded."""
    if not 0.0 < dt < math.inf:
        raise ValueError(f"dt must be positive and finite, got {dt:g}")
    bounds = _Stage1Bounds(tubes, agent, plant)
    n_steps = round(horizon / dt)
    if not abs(n_steps * dt - horizon) <= 1e-9:  # a NaN difference fails too
        raise ValueError("dt must divide the horizon")
    x = tuple(x0) if x0 is not None else initial_state(tubes, agent, plant)
    sampler = disturbance.make_sampler(agent, plant.state_dim)
    tel = StageTelemetry()

    def rows(grid):
        return constraint_rows(*bounds.at(grid), config, grid)

    times = np.arange(n_steps + 1) * dt
    states = np.empty((n_steps + 1, plant.state_dim))
    half, sixth = 0.5 * dt, dt / 6.0
    span = range(plant.state_dim)
    aborted = None
    end = n_steps + 1
    for start in range(0, n_steps + 1, BLOCK):
        grid = times[start : start + BLOCK]
        moving = grid[: n_steps - start]  # steps that integrate past their start
        mid_grid, end_grid = moving + half, moving + dt
        now = rows(grid)
        width = now.shape[1]
        # One array row per moving step: midpoint row, step-end row, disturbance.
        ahead = np.hstack([rows(mid_grid), rows(end_grid), sampler(moving)])
        t_now, t_mid, t_end = grid.tolist(), mid_grid.tolist(), end_grid.tolist()
        last = len(t_mid)
        for i, t in enumerate(t_now):
            try:
                u = control_input(x, now[i].tolist(), config, True, tel)
            except ControllerIntegrityError as exc:
                raise ControllerIntegrityError(
                    exc.stage, f"agent {agent + 1} at t={t:.6g}"
                ) from exc
            states[start + i] = x
            if i == last:
                break
            step_ahead = ahead[i].tolist()
            mid, end_row = step_ahead[:width], step_ahead[width : 2 * width]
            w = step_ahead[2 * width :]
            tm = t_mid[i]
            try:
                k1 = dynamics(plant, x, u, w, t)
                t_eval = tm
                x2 = []
                for j in span:
                    x2.append(x[j] + half * k1[j])
                k2 = dynamics(plant, x2, control_input(x2, mid, config, False, tel), w, tm)
                x3 = []
                for j in span:
                    x3.append(x[j] + half * k2[j])
                k3 = dynamics(plant, x3, control_input(x3, mid, config, False, tel), w, tm)
                x4 = []
                for j in span:
                    x4.append(x[j] + dt * k3[j])
                t_eval = t_end[i]
                k4 = dynamics(
                    plant, x4, control_input(x4, end_row, config, False, tel), w, t_eval
                )
            except PlantStateError as exc:
                aborted = str(exc)
                break
            except ControllerIntegrityError as exc:  # the tube collapsed at t_eval
                raise ControllerIntegrityError(
                    exc.stage, f"(tube width {exc.width:.6g} at t={t_eval:.6g})", exc.width
                ) from exc
            x_next = []
            for j in span:
                x_next.append(x[j] + sixth * (k1[j] + 2.0 * k2[j] + 2.0 * k3[j] + k4[j]))
            x = x_next
        if aborted is not None:
            end = start + i + 1
            break
    return Trajectory(
        agent=agent,
        name=name,
        times=times[:end],
        states=states[:end],
        config=config,
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
    lo, hi = (a[0].tolist() for a in _Stage1Bounds(tubes, agent, plant).at([0.0]))
    funnels = autosize_funnels(
        x_init,
        lo,
        hi,
        kappas,
        q=ctl.funnel_q,
        mu=ctl.funnel_mu,
        p_margin=ctl.funnel_p_margin,
        e_max=ctl.e_max,
        g_negative_definite=plant.g_negative_definite,
    )
    return ControllerConfig(
        kappa=kappas,
        funnels=funnels,
        e_max=ctl.e_max,
        g_negative_definite=plant.g_negative_definite,
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
    override the tube-center default.  A scenario horizon shorter than the
    tubes' tracks their first part; ``ValueError`` is raised when the
    tubes and the scenario differ in agent count or dims, or when the
    scenario runs past the tubes' horizon.
    """
    shape = (tubes.agent_count, tubes.dims)
    if shape != (spec.agent_count, spec.dims) or spec.horizon > tubes.horizon:
        raise ValueError(
            "tubes do not match the scenario: (agents, dims, horizon) "
            f"{(*shape, tubes.horizon)} in the tubes, "
            f"{(spec.agent_count, spec.dims, spec.horizon)} in the scenario"
        )
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
    # Every agent steps on the same time grid: keep one copy of it, not
    # one per agent (160 kB each for a drone at dt 1e-3).
    grid = max((traj.times for traj in out), key=len)
    for traj in out:
        traj.times = grid[: len(traj.times)]
    return out


def stage1_error_series(
    traj: Trajectory, tubes: TubeSet, plant: PlantModel
) -> np.ndarray:
    """Stage-1 normalized errors of a run, (T, plant dims): each recorded
    output y against its agent's walls lo, hi at the recorded time,
    (2 y - (hi + lo)) / (hi - lo), by the operations of
    ``control.stage1_errors``, so bit for bit the errors the run formed."""
    lower, upper = _Stage1Bounds(tubes, traj.agent, plant).at(traj.times)
    y = traj.states[:, : plant.dims]
    return (2.0 * y - (upper + lower)) / (upper - lower)


def input_series(traj: Trajectory, tubes: TubeSet, plant: PlantModel) -> np.ndarray:
    """Plant inputs of a run, (T, plant dims): ``control_input`` under
    ``traj.config`` on each recorded state and its row at the recorded
    time, so bit for bit the inputs the run applied."""
    grid = traj.times
    rows = constraint_rows(*_Stage1Bounds(tubes, traj.agent, plant).at(grid), traj.config, grid)
    return np.array([
        control_input(x, row, traj.config, False)
        for x, row in zip(traj.states.tolist(), rows.tolist())
    ])


def write_trajectories_csv(
    trajectories: list[Trajectory], path: str | Path, tubes: TubeSet,
    plant: PlantModel,
) -> None:
    """One file per run: columns t, agent, state..., input..., e... ,
    the inputs and errors formed on demand against ``tubes``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        sd, nd = trajectories[0].states.shape[1], plant.dims
        writer.writerow(
            ["t", "agent"]
            + [f"x{i + 1}" for i in range(sd)]
            + [f"u{i + 1}" for i in range(nd)]
            + [f"e{i + 1}" for i in range(nd)]
        )
        for traj in trajectories:
            table = np.hstack([
                traj.states,
                input_series(traj, tubes, plant),
                stage1_error_series(traj, tubes, plant),
            ])
            for t, row in zip(traj.times.tolist(), table.tolist()):
                writer.writerow([repr(t), traj.agent + 1] + [repr(v) for v in row])
