import dataclasses
import hashlib
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import sttube
from sttube.control import ControllerIntegrityError, stage1_error
from sttube.plant import Disturbance, make_custom_plant, make_plant
from sttube.scenario import scenario_from_dict
from sttube import sim
from sttube.sim import (
    BLOCK,
    build_controller_config,
    input_series,
    integrate_agent,
    run_closed_loop,
    stage1_error_series,
    write_trajectories_csv,
)
from sttube.tube import TubeSet, tube_box_at, tubes_from_dict


def _constant_tube_spec():
    """Single agent parked in a constant tube; equilibrium at the center."""
    spec = scenario_from_dict({
        "dims": 2, "horizon": 1.0, "epsilon": 0.01,
        "arena": [[0.0, 2.0], [0.0, 2.0]],
        "agents": [{"start": [[0.4, 1.6], [0.4, 1.6]], "goal": [[0.4, 1.6], [0.4, 1.6]],
                    "tube_degree": [2, 2], "min_width": [0.5, 0.5]}],
        "obstacles": [],
        "plant": {"kind": "omnidirectional",
                  "disturbance": {"bound": 0.0, "kind": "zero", "seed": 0}},
    })
    tubes = tubes_from_dict({
        "horizon": 1.0,
        "agents": [{"dims": [
            {"lower": [0.4], "upper": [1.6], "min_width": 0.5},
            {"lower": [0.4], "upper": [1.6], "min_width": 0.5},
        ]}],
    })
    return spec, tubes


def test_equilibrium_at_constant_tube_center():
    spec, tubes = _constant_tube_spec()
    (traj,) = run_closed_loop(spec, tubes, dt=1e-3)
    assert np.allclose(traj.states[:, :2], 1.0, atol=1e-12)
    plant = make_plant(spec.plant, spec.dims)
    assert np.allclose(input_series(traj, tubes, plant), 0.0, atol=1e-12)
    assert traj.clamp_count == 0


@pytest.fixture(scope="module")
def robots_run(robots_spec, robots_table):
    return run_closed_loop(robots_spec, robots_table, dt=1e-3, seed=9)


def test_deterministic_trajectories(robots_spec, robots_table, robots_run):
    again = run_closed_loop(robots_spec, robots_table, dt=1e-3, seed=9)
    for ta, tb in zip(robots_run, again):
        assert ta.states.tobytes() == tb.states.tobytes()
        assert ta.config == tb.config


def test_agents_share_one_time_grid(robots_run):
    """Every agent of a run steps on the same grid, held as one array."""
    grid = np.arange(len(robots_run[0].times)) * 1e-3
    for traj in robots_run:
        assert traj.times.tobytes() == grid.tobytes()
        assert np.shares_memory(traj.times, robots_run[0].times)


def rk4_convergence_ratios(dts=(2e-3, 1e-3, 5e-4, 2.5e-4, 1.25e-4)):
    """Richardson ratios for the disturbance-free closed loop.

    A stiff setup (high gain, off-center start) keeps truncation error
    well above roundoff so the ratios reflect the integrator's order.
    """
    horizon = 0.04  # inside the high-gain transient, where truncation dominates
    spec = scenario_from_dict({
        "dims": 2, "horizon": horizon, "epsilon": 0.001,
        "arena": [[0.0, 5.0], [0.0, 5.0]],
        "agents": [{"start": [[4.5, 5.0], [0.0, 0.5]], "goal": [[4.0, 4.5], [0.0, 0.5]],
                    "tube_degree": [2, 2], "min_width": [0.3, 0.3]}],
        "obstacles": [],
        "plant": {"kind": "omnidirectional",
                  "disturbance": {"bound": 0.0, "kind": "zero", "seed": 0}},
        "control": {"kappa": [10.0]},
    })
    tubes = tubes_from_dict({
        "horizon": horizon,
        "agents": [{"dims": [
            {"lower": [4.5, -1.0], "upper": [5.0, -1.0], "min_width": 0.3},
            {"lower": [0.0, 0.0], "upper": [0.5, 0.0], "min_width": 0.3},
        ]}],
    })
    x0 = [(4.85, 0.15, 0.2)]  # off-center pose, heading off band center
    finals = []
    for dt in dts:
        (traj,) = run_closed_loop(spec, tubes, dt=dt, initial_states=x0)
        finals.append(np.asarray(traj.final_state))
    diffs = [float(np.linalg.norm(a - b)) for a, b in zip(finals, finals[1:])]
    return [d0 / d1 for d0, d1 in zip(diffs, diffs[1:])]


def test_rk4_order_on_disturbance_free_system():
    ratios = rk4_convergence_ratios()
    assert len(ratios) == 3
    assert all(r >= 8.0 for r in ratios), ratios


def test_integrity_error_carries_timestamp(robots_spec, robots_table):
    # a barely-actuated agent cannot follow the moving tube
    with pytest.raises(ControllerIntegrityError, match="t="):
        run_closed_loop(robots_spec, robots_table, dt=1e-3, seed=0, kappa=[1e-6])


def test_csv_columns(tmp_path, robots_spec, robots_table, robots_run):
    """The CSV holds t, agent, states, the inputs of ``input_series``,
    then the stage-1 errors of ``stage1_error_series``, each value
    written exactly."""
    plant = make_plant(robots_spec.plant, robots_spec.dims)
    path = tmp_path / "run.csv"
    write_trajectories_csv(robots_run, path, robots_table, plant)
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    assert header[:2] == ["t", "agent"]
    assert "x1" in header and "u1" in header and "e1" in header
    table = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    for prefix, series in (("u", input_series), ("e", stage1_error_series)):
        cols = [k for k, name in enumerate(header) if name.startswith(prefix)]
        expect = np.vstack([series(t, robots_table, plant) for t in robots_run])
        assert table[:, cols].tobytes() == expect.tobytes()


def test_published_tube_run_stays_inside(robots_spec, robots_table, robots_run):
    plant = make_plant(robots_spec.plant, robots_spec.dims)
    assert len(robots_run) == 4
    for traj in robots_run:
        assert len(traj.times) == 10_001
        assert np.isfinite(traj.states).all()
        assert np.abs(stage1_error_series(traj, robots_table, plant)).max() < 1.0


def test_errors_match_tube_walls(robots_spec, robots_table, robots_run):
    """The on-demand stage-1 error is the normalized error against the
    walls that tube_box_at gives at the recorded times (the heading band
    pads the plant's extra output), bit for bit."""
    plant = make_plant(robots_spec.plant, robots_spec.dims)
    pad = plant.dims - robots_spec.dims
    for traj in robots_run:
        expect = []
        for t, x in zip(traj.times, traj.states):
            box = tube_box_at(robots_table, traj.agent, float(t))
            lower = [ax.lo for ax in box.axes] + [plant.heading_band[0]] * pad
            upper = [ax.hi for ax in box.axes] + [plant.heading_band[1]] * pad
            expect.append(stage1_error(x[: plant.dims], lower, upper))
        errors = stage1_error_series(traj, robots_table, plant)
        assert np.array(expect).tobytes() == errors.tobytes()


# sha256 of the agents' states, input_series inputs and stage1_error_series errors
# (concatenated in agent order) for the first 0.5 s of each published tube
# set, dt 1e-3, seed 7, under the random.Random disturbance streams.  Under
# the earlier numpy streams these tests pinned digests recorded from a
# per-step integrator, and the block schedule with on-demand errors
# reproduced all twelve before the streams changed.
PUBLISHED_DIGESTS = {
    ("robots", "uniform"): (
        "5af687c6f74efa28dd1ee5e717321c5d91431e45a6e3e1518eca509d865e2003",
        "e117a932883402dd2bbf32fb1468cf3d445c8a348e5e11e7a04f3f37492aa7cd",
        "200f9169d7c82579999f66971954936840a7585536e93e90b799a6883eeddfd9",
    ),
    ("robots", "sinusoidal"): (
        "9f7f893fe40eb43abf4e00802cbeeef9907240d1287a46856740260ecbf1c7c2",
        "5563af22aa098e7a79d8d614cc71716608691fa5fd6a538becbf1dcde4faa3e4",
        "a6c632666b6a41b70e083661bf8862daa648f1a1fed6f349a21c30273806bd7c",
    ),
    ("drones", "uniform"): (
        "15172d1fdbfc18965d5f494b823b94474e5cbbd5729a6d369f26fd391795ba76",
        "1bb83765550799a6061c6350ca1eb725e51287474ec3ec111b31e6d8dcf78177",
        "3a51a46ce6d1c9dfbd03af64a138846c32ef001057254cc79664e76f203f8853",
    ),
    ("drones", "sinusoidal"): (
        "a475afdc580d6bb3baa2082e1e554be8732725cd1098c4c114fd394a95b5015e",
        "4a479cbdc4c09c286656c10384f1cea2d8709f7ff06106ea3bface9ecb49cf28",
        "bc5f063333cf8e4c25a5d0a4db95658b7f41e593c600bbe96c36bceea9d7a675",
    ),
}


@pytest.mark.parametrize("case,kind", sorted(PUBLISHED_DIGESTS))
def test_published_trajectory_digests(case, kind, request):
    spec = request.getfixturevalue(f"{case}_spec")
    tubes = request.getfixturevalue(f"{case}_table")
    spec = dataclasses.replace(
        spec, horizon=0.5,
        plant=dataclasses.replace(spec.plant, disturbance_kind=kind),
    )
    trajs = run_closed_loop(spec, tubes, dt=1e-3, seed=7)
    assert [len(t.times) for t in trajs] == [501] * 4
    plant = make_plant(spec.plant, spec.dims)
    series = (
        [t.states for t in trajs],
        [input_series(t, tubes, plant) for t in trajs],
        [stage1_error_series(t, tubes, plant) for t in trajs],
    )
    digests = tuple(
        hashlib.sha256(b"".join(a.tobytes() for a in arrays)).hexdigest()
        for arrays in series
    )
    assert digests == PUBLISHED_DIGESTS[case, kind]


@pytest.mark.parametrize("kind", ["uniform", "sinusoidal"])
@pytest.mark.parametrize("case", ["robots", "drones"])
def test_input_series_matches_applied_inputs(case, kind, request, monkeypatch):
    """``input_series`` gives, byte for byte, the inputs the loop applied:
    the outputs of its strict ``control_input`` call at every recorded
    state, in agent order."""
    spec = request.getfixturevalue(f"{case}_spec")
    tubes = request.getfixturevalue(f"{case}_table")
    spec = dataclasses.replace(
        spec, horizon=0.3,
        plant=dataclasses.replace(spec.plant, disturbance_kind=kind),
    )
    real, applied = sim.control_input, []

    def recording(state, row, config, strict=True, telemetry=None):
        u = real(state, row, config, strict, telemetry)
        if strict:
            applied.append(u)
        return u

    monkeypatch.setattr(sim, "control_input", recording)
    trajs = run_closed_loop(spec, tubes, dt=1e-3, seed=5)
    plant = make_plant(spec.plant, spec.dims)
    series = np.vstack([input_series(t, tubes, plant) for t in trajs])
    assert len(applied) == 4 * 301
    assert series.tobytes() == np.array(applied).tobytes()


def test_recorded_memory_grows_with_states_only(robots_spec, robots_table):
    """A run keeps per step only its time and state: doubling the horizon
    raises the traced peak of ``integrate_agent`` by the growth of those
    two arrays plus a small fixed allowance, so a per-step record of any
    other array (inputs are 24 bytes a step on robots) fails."""
    plant = make_plant(robots_spec.plant, robots_spec.dims)
    config = build_controller_config(robots_spec, robots_table, 0, plant)
    dist = Disturbance(bound=0.01, kind="uniform", seed=2)

    def peak(horizon):
        tracemalloc.start()
        try:
            traj = integrate_agent(0, robots_table, plant, config, dist, horizon, 1e-3)
            return tracemalloc.get_traced_memory()[1], traj.states.nbytes + traj.times.nbytes
        finally:
            tracemalloc.stop()

    peak(0.2)  # one-time allocations
    (short, kept_short), (long, kept_long) = peak(2.0), peak(4.0)
    assert long - short <= kept_long - kept_short + 16 * 1024


@pytest.mark.parametrize("case", ["robots", "drones"])
def test_integrator_decentralization_byte_identity(case, request):
    """Agent j integrated against the full tube set and against a tube set
    holding only its own tubes gives the same bytes."""
    spec = request.getfixturevalue(f"{case}_spec")
    tubes = request.getfixturevalue(f"{case}_table")
    plant = make_plant(spec.plant, spec.dims)
    calm = Disturbance(bound=0.0, kind="zero")
    j = 2
    solo = TubeSet(horizon=tubes.horizon, agents=(tubes.agents[j],))
    config = build_controller_config(spec, tubes, j, plant)
    full = integrate_agent(j, tubes, plant, config, calm, 0.3, 1e-3)
    alone = integrate_agent(0, solo, plant, config, calm, 0.3, 1e-3)
    for field in ("times", "states"):
        assert getattr(full, field).tobytes() == getattr(alone, field).tobytes()
    for series in (input_series, stage1_error_series):
        assert series(full, tubes, plant).tobytes() == series(alone, solo, plant).tobytes()
    assert full.clamp_count == alone.clamp_count


def _one_agent_spec(horizon, disturbance):
    return scenario_from_dict({
        "dims": 2, "horizon": horizon, "epsilon": 0.01,
        "arena": [[0.0, 2.0], [0.0, 2.0]],
        "agents": [{"start": [[0.0, 0.4], [0.4, 1.6]], "goal": [[0.0, 0.4], [0.4, 1.6]],
                    "tube_degree": [2, 2], "min_width": [0.1, 0.1]}],
        "obstacles": [],
        "plant": {"kind": "omnidirectional", "disturbance": disturbance},
    })


def test_step_counts_off_the_block_size(robots_spec, robots_table):
    """Runs whose step count is not a multiple of the block size are
    prefixes of a longer run, byte for byte, under a random disturbance."""
    plant = make_plant(robots_spec.plant, robots_spec.dims)
    dist = Disturbance(bound=0.01, kind="uniform", seed=4)
    config = build_controller_config(robots_spec, robots_table, 1, plant)
    dt = 1e-3

    def run(n):
        return integrate_agent(1, robots_table, plant, config, dist, n * dt, dt)

    longest = run(3 * BLOCK + 5)
    assert len(longest.times) == 3 * BLOCK + 6
    inputs = input_series(longest, robots_table, plant)
    for n in (1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1):
        short = run(n)
        assert len(short.times) == n + 1
        for field in ("times", "states"):
            prefix = getattr(longest, field)[: n + 1]
            assert getattr(short, field).tobytes() == prefix.tobytes()
        assert input_series(short, robots_table, plant).tobytes() == inputs[: n + 1].tobytes()


def test_nonfinite_plant_mid_block_truncates_consistently():
    """A custom plant whose drift turns NaN past x = 0.9 aborts the run in
    the middle of a block: the state and time records end at the failing
    step, the on-demand inputs cover the same steps, and the on-demand
    errors are those of the recorded states against the recorded walls."""
    eye = np.eye(2)
    plant = make_custom_plant(
        1, 2, f=[lambda xb: np.zeros(2) if xb[0] < 0.9 else np.full(2, np.nan)],
        g=[lambda xb: eye],
    )
    spec = _one_agent_spec(1.0, {"bound": 0.0, "kind": "zero", "seed": 0})
    tubes = tubes_from_dict({"horizon": 1.0, "agents": [{"dims": [
        {"lower": [0.0, 1.0], "upper": [0.4, 1.0], "min_width": 0.1},
        {"lower": [0.4], "upper": [1.6], "min_width": 0.5},
    ]}]})
    (traj,) = run_closed_loop(spec, tubes, dt=1e-3, plant=plant)
    assert traj.aborted == "non-finite state at t=0.71: (nan, nan)"
    last = 710
    assert 0 < last % BLOCK < BLOCK - 1
    lengths = {len(traj.times), len(traj.states), len(input_series(traj, tubes, plant))}
    assert lengths == {last + 1}
    assert traj.times.tobytes() == (np.arange(last + 1) * 1e-3).tobytes()
    assert np.isfinite(traj.states[:last]).all() and np.isnan(traj.states[last]).all()
    expect = []
    for t, x in zip(traj.times, traj.states):
        box = tube_box_at(tubes, 0, float(t))
        expect.append(stage1_error(x, [ax.lo for ax in box.axes], [ax.hi for ax in box.axes]))
    assert np.array(expect).tobytes() == stage1_error_series(traj, tubes, plant).tobytes()


@pytest.mark.parametrize("top,message", [
    (0.30025, "(tube width -0.00025 at t=0.3005)"),  # at a midpoint evaluation
    (0.30075, "(tube width -0.00025 at t=0.301)"),  # at a step-end evaluation
])
def test_tube_collapse_mid_horizon_names_the_evaluation_time(top, message):
    """Walls 0.5 t and top - 0.5 t meet between recorded steps; the stage-1
    error carries the time of the first evaluation that saw width <= 0."""
    spec = _one_agent_spec(1.0, {"bound": 0.0, "kind": "zero", "seed": 0})
    tubes = tubes_from_dict({"horizon": 1.0, "agents": [{"dims": [
        {"lower": [0.0, 0.5], "upper": [top, -0.5], "min_width": 0.0},
        {"lower": [0.4], "upper": [1.6], "min_width": 0.5},
    ]}]})
    with pytest.raises(ControllerIntegrityError) as err:
        run_closed_loop(spec, tubes, dt=1e-3)
    assert err.value.stage == 1
    assert str(err.value) == f"stage 1 state outside its constraint {message}"


@pytest.mark.parametrize("case", ["robots", "drones"])
def test_integrator_calls_the_module_hooks_per_evaluation(case, request, monkeypatch):
    """integrate_agent looks up ``control_input`` and ``dynamics`` as module
    globals at every call: once per step plus three RK4 evaluations, and
    once per RK4 stage.  Profilers and the benchmark's per-layer metrics
    wrap exactly these names."""
    spec = request.getfixturevalue(f"{case}_spec")
    tubes = request.getfixturevalue(f"{case}_table")
    plant = make_plant(spec.plant, spec.dims)
    config = build_controller_config(spec, tubes, 0, plant)
    counts = {"control_input": 0, "dynamics": 0}

    def counting(name):
        real = getattr(sim, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)

        return wrapper

    for name in counts:
        monkeypatch.setattr(sim, name, counting(name))
    steps = BLOCK + 7
    dist = Disturbance(bound=0.01, kind="uniform", seed=1)
    traj = integrate_agent(0, tubes, plant, config, dist, steps * 1e-3, 1e-3)
    assert len(traj.times) == steps + 1 and traj.aborted is None
    assert counts == {"control_input": 4 * steps + 1, "dynamics": 4 * steps}


def test_integrator_rejects_nonpositive_dt(robots_spec, robots_table):
    plant = make_plant(robots_spec.plant, robots_spec.dims)
    config = build_controller_config(robots_spec, robots_table, 0, plant)
    calm = Disturbance(bound=0.0, kind="zero")
    for dt in (0.0, -1e-3, math.inf, math.nan):
        with pytest.raises(ValueError, match="dt must be positive"):
            integrate_agent(0, robots_table, plant, config, calm, 1.0, dt)


GUARD = """
import dataclasses, sys
import sttube
from sttube import data_path, load_scenario, load_tubes
for case in ("robots", "drones"):
    spec = load_scenario(data_path(case + ".scenario"))
    tubes = load_tubes(data_path(case + "_table.tubes"))
    for kind in ("uniform", "sinusoidal"):
        run = dataclasses.replace(
            spec, horizon=0.2,
            plant=dataclasses.replace(spec.plant, disturbance_kind=kind),
        )
        sttube.verify_run(sttube.run_closed_loop(run, tubes, seed=3), run, tubes)
print(sorted({"numpy.random", "_hashlib"} & set(sys.modules)))
"""


def test_tracking_loads_neither_numpy_random_nor_openssl():
    """Closed loops and their verification draw from the standard library's
    random module: neither numpy.random nor OpenSSL's hashlib backend
    (which numpy.random pulls in through secrets) is loaded."""
    src = str(Path(sttube.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c", GUARD], env=env, capture_output=True, text=True,
        timeout=120, check=True,
    )
    assert out.stdout.strip() == "[]"
