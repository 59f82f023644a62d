"""Fixed-step closed-loop integration of all agents under tube control.

Classical 4th-order Runge-Kutta with the controller re-evaluated at each
stage point and the disturbance, which the scenario's plant block sets
(``plant.disturbance_sampler``), held constant over the step.  Each agent
is integrated alone, on its own tubes, config and state, so
decentralization holds end to end.

So the agents of one run share nothing, and ``run_closed_loop`` runs
them on every CPU the process may use (``_run_agents``): with k =
min(agents, CPUs), agents g, g + k, ... form group g; group 0 runs in
this process and every other group in a child made by ``os.fork``, which
sends its trajectories back through a pipe as one pickle (protocol 5)
and exits.  Every child is reaped before the call returns or raises.
An agent that failed or did not come back runs again here, in agent
order, so results and exceptions are those of one process bit for bit;
where ``os.fork`` or ``os.sched_getaffinity`` is missing, or one CPU is
available, all agents run here.

Steps run in blocks of ``BLOCK``.  What depends on time alone (the
agent's walls: its tube walls from ``tube.agent_walls`` on its rows
of the tube table, ``tubes.coeffs[agent]``, then the heading band; the
constraint rows; the disturbance) is formed once per block as one table
(``_block_table``): the walls and rows are evaluated once, on the
interleaved grid t0, t0 + dt/2, t0 + dt, t1, ..., so a step's row holds
the times t, t + dt/2 and t + dt, its constraint rows at those times,
then its disturbance.  A compiled block kernel, one per (plant kind,
stages, dims) and registered in ``linecache`` as ``<sttube step
drone_chain 2x3>`` and the like, then runs the block's steps with the
state in locals, reading each step's row as one tuple unpacked by
``struct`` (``_rows``): per step the strict law at the recorded state
(the applied input and its integrity check), three non-strict law
evaluations, four derivative evaluations and the RK4 update, all
inline, with no call (the three later evaluations share one copy of the
lines, in a loop).  While a wrapper is installed on
``sttube.sim.control_input``, a second, hooked form of the block
(``<sttube step drone_chain 2x3 hooked>``) makes the strict law one
call of it per step instead, so the wrapper sees every applied input of
the agents run in its process (of group 0 only, for
``run_closed_loop``); both forms give the same trajectories bit for
bit.  A block's source is put together from the law template of
``control`` and the derivative template of ``plant``, the same texts
those modules compile, so neither is written twice; a custom plant's
derivative is a call of ``dynamics``.  The floating-point operations
are those of a step-by-step evaluation, so trajectories do not depend
on the block size.  A failed strict check names the agent and time and
keeps the check's detail; when the step is past RK4's stability bound
at that row, the message says so (``_agent_failure``).

A ``Trajectory`` records times and states, with the run's controller;
``input_series`` and ``stage1_error_series`` form its inputs and
stage-1 errors on demand, bit for bit.

Fixed step rather than adaptive: the barrier gains blow up near tube
walls and thrash adaptive error estimators; a small fixed step plus the
error guard is reproducible.
"""

from __future__ import annotations

import csv
import functools
import math
import os
import pickle
import signal
import struct
from dataclasses import dataclass, replace
from itertools import chain
from math import atanh, cos, isfinite, sin  # noqa: F401 (read by the compiled blocks)
from pathlib import Path

import numpy as np

from . import control
from .codegen import compile_function, indent, names
from .control import (
    _MISMATCH,  # noqa: F401 (read by the compiled blocks)
    _collapsed,  # noqa: F401 (read by the compiled blocks)
    _strict_failure,  # noqa: F401 (read by the compiled blocks)
    ControllerConfig,
    ControllerIntegrityError,
    StageTelemetry,
    autosize_funnels,
    constraint_rows,
    control_input,
    gain_lines,
    law_lines,
    stage1_errors,
    width_test,
)
from .plant import (
    PlantModel,
    PlantStateError,  # noqa: F401 (read by the compiled blocks)
    check_finite,  # noqa: F401 (read by the compiled blocks)
    derivative_lines,
    disturbance_sampler,
    dynamics,  # noqa: F401 (read by the compiled blocks of custom plants)
    make_plant,
)
from .scenario import PLANT_DIMS, PlantConfig, ScenarioSpec
from .tube import TubeSet, agent_walls

# Steps per block of precomputed time-only quantities, large enough to
# amortize the per-block array calls.  The block's table stays a numpy
# array (about 74 kB for a two-stage plant with six states) and each step
# unpacks only its own row into Python floats: a whole block as float lists
# holds several times that in Python objects and raised peak memory, and
# so did a separate list of the three times per step (0.14 MB of the four
# fleet loops' peak RSS), so the times are columns of the table.
# 256 steps ran the four fleet loops about 1.5 % faster than 128 at the
# same peak RSS; 512 was about 1 % faster again but raised peak RSS by
# 0.4 MB.
BLOCK = 256


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


def _walls(tubes: TubeSet, agent: int, plant: PlantModel):
    """One agent's stage-1 walls as a function of times: ``at(times)``
    gives (lower, upper), each (len(times), plant dims), its tube walls
    (``tube.agent_walls`` on the agent's rows of the tube table)
    padded with the heading band for plants whose output dimension
    exceeds the tube dimension."""
    extra = plant.dims - tubes.dims
    if extra < 0:
        raise ValueError("plant output dimension below tube dimension")
    coeffs = tubes.coeffs[agent]

    def at(times):
        lower, upper = agent_walls(coeffs, times)
        if not extra:
            return lower.T, upper.T
        pad = np.ones((lower.shape[1], extra))
        return (
            np.hstack([lower.T, plant.heading_band[0] * pad]),
            np.hstack([upper.T, plant.heading_band[1] * pad]),
        )

    return at


def initial_state(
    tubes: TubeSet, agent: int, plant: PlantModel
) -> tuple[float, ...]:
    """Tube-center start: stage 1 at the wall midpoint (heading at band
    center), stage 2 at the center's drift rate so the agent starts moving
    with its tube, stages beyond at rest."""
    h = 1e-7
    (lower, lo_h), (upper, hi_h) = (
        a.tolist() for a in _walls(tubes, agent, plant)([0.0, h])
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


def _block_source(kind: str, stages: int, dims: int, hooked: bool) -> str:
    """The source of ``block(...)``, which integrates one block of steps
    of ``integrate_agent`` for one plant shape.

    The state lives in the locals ``x<j>``.  Each step reads its row of
    the block's table (``_block_table``) as one tuple, unpacked by
    ``struct`` (``_rows``), with no ndarray view: the step's time
    ``t``, midpoint ``tm`` and end ``te``, the constraint rows at those
    times, then the disturbance.  The step-start row is ``c<j>``, the
    midpoint row ``w<j>``, the step-end row ``e<j>`` and the disturbance
    ``d<j>``.  The strict law at the state gives the input the run
    applies, and its integrity check: unhooked, it runs inline, the
    stage-1 width check on ``c<j>`` and the checked ``control.law_lines``
    with ``strict`` fixed true, which hand ``_strict_failure`` the row's
    slice only when a check fails, so a step makes no call; hooked, it is
    one ``control_input`` call on that slice, looked up in this module's
    globals, so that a wrapper on ``sttube.sim.control_input`` sees every
    applied input.  The hooked form goes once the closed loop records
    its applied inputs itself.  A failed check is raised again naming
    the agent and time (``_agent_failure``).  The step then records the
    state and runs the RK4 stages inline: the derivative ``k<j>`` of
    ``plant.derivative_lines`` at the state, then three evaluations of
    the stage point ``y<j>``, the non-strict law of ``control.law_lines``
    and the derivative, the last on the step-end row.  ``acc<j>`` sums
    k1 + 2 k2 + 2 k3 + k4 in that order (1.0 * k4 is k4 exactly), so the
    update is bit for bit the written-out one.  The three evaluations
    share one copy of the law and derivative lines in a loop: compiling
    three copies took about twice the memory (825 against 460 kB for
    drone_chain 2x3, tracemalloc on Python 3.11), which showed in the
    closed loop's peak RSS, for about 3 % of speed.  Each stage-1 width
    is checked once per row.  The step after the first ``steps`` (the
    horizon's end) is only recorded.  The call returns the state after
    the block, the states it recorded and the abort message (None unless
    a state was not finite), and adds the block's clamps to
    ``telemetry``.  Both forms give the same states, abort and clamp
    count; after a strict failure the counts differ, but nothing reads
    them, because the run raises.
    """
    n = stages * dims
    width = n + dims
    u = "u" if hooked else f"r{stages - 1}_"  # the applied input
    if hooked:
        law = [
            f"try: {names('u', dims)}= control_input(state, row[3:{3 + width}], config, True,"
            " telemetry)"
        ]
    else:
        law = [
            "try:",
            f" if {width_test(dims, 'c')}: _collapsed(({names('c', dims)}))",
            *indent(law_lines(stages, dims, "x", "c", checked=True, row=f"row[3:{3 + width}]")),
        ]
    rk4 = [
        *derivative_lines(kind, stages, dims, "x", u, "d", "k", "t"),
        *(f"acc{j} = k{j}" for j in range(n)),
        f"if {width_test(dims, 'w')}: _collapsed(({names('w', dims)}), tm)",
        "scale = half; t_eval = tm; weight = 2.0",
        "for s in (2, 3, 4):",
        *indent([
            *(f"y{j} = x{j} + scale * k{j}" for j in range(n)),
            *law_lines(stages, dims, "y", "w"),
            *derivative_lines(kind, stages, dims, "y", f"r{stages - 1}_", "d", "k", "t_eval"),
            *(f"acc{j} = acc{j} + weight * k{j}" for j in range(n)),
            "if s == 3:",  # k4 runs on the step-end row and time, with weight 1
            f" {names('w', width)}= {names('e', width)}",
            " scale = dt; t_eval = te; weight = 1.0",
            f" if {width_test(dims, 'w')}: _collapsed(({names('w', dims)}), t_eval)",
        ]),
    ]
    start = ("_, " * width) if hooked else names("c", width)
    return "\n".join([
        "def block(x, table, steps, dt, agent, config, telemetry, plant):",
        " try:",
        f"  {names('x', n)}= x",
        *indent(gain_lines(stages), 2),
        " except ValueError: raise ValueError(_MISMATCH) from None",
        " half, sixth = 0.5 * dt, dt / 6.0",
        *([] if hooked else [" strict = True"]),
        " recorded = []",
        " aborted = None",
        " for i, row in enumerate(_rows(table)):",
        f"  t, tm, te, {start}{names('w', width)}{names('e', width)}{names('d', n)}= row",
        f"  state = ({names('x', n)})",
        *indent(law, 2),
        "  except ControllerIntegrityError as exc:",
        "   raise _agent_failure(exc, agent, t, dt, row, config, plant) from exc",
        "  recorded.append(state)",
        "  if i == steps: break",
        "  try:",
        *indent(rk4, 3),
        "  except PlantStateError as exc:",
        "   aborted = str(exc)",
        "   break",
        *(f"  x{j} = x{j} + sixth * acc{j}" for j in range(n)),
        " telemetry.clamp_count += clamps",
        f" return ({names('x', n)}), recorded, aborted",
    ]) + "\n"


# Classical RK4 is stable on the negative real axis for dt * lambda up
# to about 2.785 (Hairer & Wanner, "Solving Ordinary Differential
# Equations II", Springer, 1996, ch. IV.2).
_RK4_EDGE = 2.785


def _agent_failure(exc, agent: int, t: float, dt: float, row, config, plant):
    """The strict error ``exc`` of ``agent``'s step at ``t`` as the closed
    loop raises it: its stage and width, and its detail after the agent
    and time.  ``row`` is the step's row of the block table.  Near e = 0
    the law relaxes stage 1 at rate 16 kappa_1 / w^2 over its least wall
    width w, and stage k >= 2 at 8 kappa_k / rho^2 over its least funnel
    radius, times the plant's input gain, which is 1 for the built-in
    plants; when dt times that rate at this row passes ``_RK4_EDGE``, the
    message says the step is past RK4's stability bound.  A collapsed
    tube (``exc.width`` set) and a custom plant get the detail only.
    Formed only on failure, so the common path pays nothing."""
    detail = f"agent {agent + 1} at t={t:.6g} {exc.detail}"
    if exc.width is None and plant.kind in PLANT_DIMS:
        k, dims = exc.stage, plant.dims
        if k == 1:
            gain, gap, form = 16.0, row[3 : 3 + dims], "16*kappa/w^2"
        else:
            gain, gap, form = 8.0, row[3 + k * dims : 3 + (k + 1) * dims], "8*kappa/rho^2"
        least = min(gap) ** 2  # 0.0 for a subnormal width
        rate = dt * gain * config.kappa[k - 1] / least if least else math.inf
        if rate > _RK4_EDGE:
            detail += (
                f"; dt*{form} = {rate:.3g} at this step, past RK4's stability bound"
                f" {_RK4_EDGE}"
            )
    return ControllerIntegrityError(exc.stage, detail, exc.width)


def _rows(table):
    """The rows of a block's table, one tuple of floats per step, read
    by ``struct.iter_unpack`` from the table's buffer: the ``'d'`` format
    copies each IEEE double bit for bit, and a step builds one tuple and
    no ndarray view."""
    return struct.iter_unpack(f"{table.shape[1]}d", table)


def _block_table(
    walls, config: ControllerConfig, sampler, t, dt: float, steps: int
):
    """The time-only input of one block: a table with one row per start
    time in ``t``.  ``walls`` maps times to the agent's stage-1 walls
    (``_walls`` of the tubes, agent and plant), as ``sampler``
    maps step times to the agent's disturbance.

    A row is the step's time, midpoint and end (t, t + dt/2, t + dt), the
    constraint rows at those times, then the step's disturbance.  Walls
    and rows are evaluated once, on the interleaved grid t0, t0 + dt/2,
    t0 + dt, t1, ..., whose values numpy forms element by element, so
    each is bit for bit the value of a separate evaluation on its own
    grid.  Only the first ``steps``
    steps integrate past their start: a later one (the horizon's end)
    has its own time in place of its midpoint and end, so nothing is
    evaluated past the horizon, and a zero disturbance.
    """
    grid = np.asarray(t)[:, None] + np.array([0.0, 0.5 * dt, dt])
    grid[steps:, 1:] = grid[steps:, :1]
    flat = grid.ravel()
    rows = constraint_rows(*walls(flat), config, flat).reshape(len(grid), -1)
    disturbance = sampler(grid[:steps, 0])
    table = np.zeros((len(grid), 3 + rows.shape[1] + disturbance.shape[1]))
    table[:, :3] = grid
    table[:, 3 : 3 + rows.shape[1]] = rows
    table[:steps, 3 + rows.shape[1] :] = disturbance
    return table


def _block(plant: PlantModel):
    """The RK4 block for this plant's shape: the hooked form while a
    wrapper is installed on ``sttube.sim.control_input``, the unhooked
    one otherwise (``_block_source``).  Its globals are this module's,
    so the hooked form's ``control_input`` (and, for a custom plant,
    ``dynamics``) is looked up here at every call."""
    hooked = control_input is not control.control_input
    return _compiled_block(plant.kind, plant.stages, plant.dims, hooked)


@functools.cache
def _compiled_block(kind: str, stages: int, dims: int, hooked: bool):
    name = f"<sttube step {kind} {stages}x{dims}{' hooked' if hooked else ''}>"
    return compile_function(_block_source(kind, stages, dims, hooked), name, globals())


def integrate_agent(
    agent: int,
    tubes: TubeSet,
    plant: PlantModel,
    config: ControllerConfig,
    disturbance: PlantConfig,
    horizon: float,
    dt: float,
    x0=None,
    name: str = "",
) -> Trajectory:
    """RK4 integration of one agent under the disturbance that the plant
    block ``disturbance`` sets; raises ControllerIntegrityError with a
    timestamp if a recorded state leaves its tube or funnel, or if the
    tube collapses at any evaluation.  A non-finite state ends the run
    early (``aborted``) with every step up to the failing one recorded.
    ValueError is raised for a dt that is not positive and finite or does
    not divide the horizon, and for a horizon outside [0, tubes.horizon]:
    past it the tube polynomials would be extrapolated."""
    if not 0.0 < dt < math.inf:
        raise ValueError(f"dt must be positive and finite, got {dt:g}")
    if not 0.0 <= horizon <= tubes.horizon:  # NaN fails too
        raise ValueError(
            f"horizon must lie in [0, {tubes.horizon:g}], the tubes' horizon, got {horizon:g}"
        )
    n_steps = round(horizon / dt)
    if not abs(n_steps * dt - horizon) <= 1e-9:  # a NaN difference fails too
        raise ValueError("dt must divide the horizon")
    walls = _walls(tubes, agent, plant)
    x = tuple(x0) if x0 is not None else initial_state(tubes, agent, plant)
    sampler = disturbance_sampler(disturbance, agent, plant.state_dim)
    tel = StageTelemetry()
    block = _block(plant)
    n = plant.state_dim
    times = np.arange(n_steps + 1) * dt
    states = np.empty((n_steps + 1, n))
    aborted = None
    end = n_steps + 1
    for start in range(0, n_steps + 1, BLOCK):
        steps = min(BLOCK, n_steps - start)  # steps that integrate past their start
        table = _block_table(walls, config, sampler, times[start : start + BLOCK], dt, steps)
        x, recorded, aborted = block(x, table, steps, dt, agent, config, tel, plant)
        count = len(recorded)
        # One copy of the block's floats: about half the time of assigning
        # the list of tuples to the slice, bit for bit.
        states[start : start + count] = np.fromiter(
            chain.from_iterable(recorded), float, count * n
        ).reshape(count, n)
        if aborted is not None:
            end = start + count
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
    lo, hi = (a[0].tolist() for a in _walls(tubes, agent, plant)([0.0]))
    funnels = autosize_funnels(
        x_init,
        lo,
        hi,
        kappas,
        q=ctl.funnel_q,
        mu=ctl.funnel_mu,
        p_margin=ctl.funnel_p_margin,
        e_max=ctl.e_max,
    )
    return ControllerConfig(kappa=kappas, funnels=funnels, e_max=ctl.e_max)


def run_closed_loop(
    spec: ScenarioSpec,
    tubes: TubeSet,
    dt: float = 1e-3,
    seed: int | None = None,
    kappa=None,
    initial_states=None,
    plant: PlantModel | None = None,
) -> list[Trajectory]:
    """Integrate every agent independently over the scenario horizon, on
    every CPU the process may use (``_run_agents``), bit for bit as in
    one process.

    ``seed`` overrides the scenario's disturbance seed; ``kappa``
    overrides the per-stage gains; ``initial_states`` (per agent, flat)
    override the tube-center default.  A scenario horizon shorter than the
    tubes' tracks their first part; ``ValueError`` is raised, before any
    agent runs, when the tubes and the scenario differ in agent count or
    dims, when the scenario runs past the tubes' horizon, when
    ``initial_states`` does not hold one state per agent, or when
    ``seed`` fails the plant block's check (``ScenarioError``).
    """
    shape = (tubes.agent_count, tubes.dims)
    if shape != (spec.agent_count, spec.dims) or spec.horizon > tubes.horizon:
        raise ValueError(
            "tubes do not match the scenario: (agents, dims, horizon) "
            f"{(*shape, tubes.horizon)} in the tubes, "
            f"{(spec.agent_count, spec.dims, spec.horizon)} in the scenario"
        )
    if initial_states is not None and len(initial_states) != spec.agent_count:
        raise ValueError(
            f"{len(initial_states)} initial states for {spec.agent_count} agents"
        )
    model = plant if plant is not None else make_plant(spec.plant, spec.dims)
    dist = spec.plant if seed is None else replace(spec.plant, disturbance_seed=seed)

    def run(j: int) -> Trajectory:
        x0 = (
            tuple(initial_states[j])
            if initial_states is not None
            else initial_state(tubes, j, model)
        )
        config = build_controller_config(spec, tubes, j, model, kappa=kappa, x0=x0)
        return integrate_agent(
            j, tubes, model, config, dist, spec.horizon, dt,
            x0=x0, name=spec.agents[j].name,
        )

    out = _run_agents(run, spec.agent_count)
    # Every agent steps on the same time grid: keep one copy of it, not
    # one per agent (160 kB each for a drone at dt 1e-3).  The agents'
    # own copies go first, and the grid is formed in place, bit for bit
    # the np.arange(steps + 1) * dt of ``integrate_agent``.
    length = max(len(traj.states) for traj in out)
    for traj in out:
        traj.times = None
    grid = np.arange(length, dtype=float)
    grid *= dt
    for traj in out:
        traj.times = grid[: len(traj.states)]
    return out


def _run_agents(run, count: int) -> list[Trajectory]:
    """``run(j)`` for every agent j < ``count``, in agent order, on k
    processes, one per CPU this process may run on and at most one per
    agent (k = 1 where ``os.fork`` or ``os.sched_getaffinity`` is
    missing): agents j = g, g + k, ... form group g, group 0 runs here
    and each other group in a forked child (``_fork``).  No child
    outlives the call: on every path, an exception or an interrupt
    included, each is killed if still running and reaped.

    Every agent that did not come back, because it failed or its child
    died or could not be started, runs here, in agent order, so the
    result and the exception raised are those of a loop over the agents
    in one process: each agent's disturbance is its own stream, so a
    second run repeats the first bit for bit.  An agent of group 0 that
    failed is not run twice; its exception is raised as it was caught.
    """
    k = 1
    if hasattr(os, "fork") and hasattr(os, "sched_getaffinity"):
        k = min(count, len(os.sched_getaffinity(0)))
    out: list[Trajectory | None] = [None] * count
    error = None
    children = []
    try:
        for g in range(1, k):
            child = _fork(run, range(g, count, k))
            if child is not None:
                children.append(child)
        for j in range(0, count, k):
            try:
                out[j] = run(j)
            except Exception as exc:
                error = j, exc
                break
        for _, pipe in children:
            for traj in _receive(pipe):
                out[traj.agent] = traj
    finally:
        for pid, pipe in children:
            pipe.close()
            os.kill(pid, signal.SIGKILL)  # a no-op for a child that has sent everything
            os.waitpid(pid, 0)
    for j in range(count):
        if out[j] is None:
            if error is not None and error[0] == j:
                raise error[1]
            out[j] = run(j)
    return out


def _fork(run, agents):
    """A child process that runs ``run`` on ``agents`` in order, up to the
    first that raises, sends the trajectories it completed (``_send``)
    and exits by ``os._exit``, whatever happens: (pid, the read end of its
    pipe as a file), or None if it could not be started."""
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        return None
    if pid == 0:
        code = 1
        try:
            os.close(r)
            done = []
            for j in agents:
                try:
                    done.append(run(j))
                except Exception:
                    break
            _send(w, done)
            code = 0
        finally:
            os._exit(code)
    os.close(w)
    return pid, open(r, "rb")


def _send(fd: int, trajectories: list[Trajectory]) -> None:
    """Write ``trajectories`` to the pipe ``fd`` as one pickle (protocol
    5) and close it.  Times are left out: the parent rebuilds the shared
    grid."""
    for traj in trajectories:
        traj.times = None
    with open(fd, "wb") as pipe:
        pickle.dump(trajectories, pipe, protocol=5)


def _receive(pipe) -> list[Trajectory]:
    """What ``_send`` wrote to ``pipe``, or [] if the writer left before
    the end.  The unpickler reads each array's bytes straight into the
    buffer the array then wraps, so it is not copied twice."""
    try:
        return pickle.load(pipe)
    except (EOFError, pickle.UnpicklingError):
        return []


def stage1_error_series(
    traj: Trajectory, tubes: TubeSet, plant: PlantModel
) -> np.ndarray:
    """Stage-1 normalized errors of a run, (T, plant dims): each recorded
    output y against its agent's walls lo, hi at the recorded time,
    (2 y - (hi + lo)) / (hi - lo), by ``control.stage1_errors``, so bit
    for bit the errors the run formed."""
    grid = traj.times
    rows = constraint_rows(*_walls(tubes, traj.agent, plant)(grid), traj.config, grid)
    return stage1_errors(traj.states, rows, len(traj.config.kappa))


def input_series(traj: Trajectory, tubes: TubeSet, plant: PlantModel) -> np.ndarray:
    """Plant inputs of a run, (T, plant dims): ``control_input`` under
    ``traj.config`` on each recorded state and its row at the recorded
    time, so bit for bit the inputs the run applied."""
    grid = traj.times
    rows = constraint_rows(*_walls(tubes, traj.agent, plant)(grid), traj.config, grid)
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
