import numpy as np
import pytest

from sttube.control import ControllerIntegrityError, stage1_error
from sttube.plant import make_plant
from sttube.scenario import scenario_from_dict
from sttube.sim import run_closed_loop, write_trajectories_csv
from sttube.tube import tube_box_at, tubes_from_dict


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
    assert np.allclose(traj.inputs, 0.0, atol=1e-12)
    assert traj.clamp_count == 0


import pytest as _pytest


@_pytest.fixture(scope="module")
def robots_run(robots_spec, robots_table):
    return run_closed_loop(robots_spec, robots_table, dt=1e-3, seed=9)


def test_deterministic_trajectories(robots_spec, robots_table, robots_run):
    again = run_closed_loop(robots_spec, robots_table, dt=1e-3, seed=9)
    for ta, tb in zip(robots_run, again):
        assert ta.states.tobytes() == tb.states.tobytes()
        assert ta.inputs.tobytes() == tb.inputs.tobytes()


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


def test_csv_columns(tmp_path, robots_run):
    path = tmp_path / "run.csv"
    write_trajectories_csv(robots_run, path)
    header = path.read_text().splitlines()[0].split(",")
    assert header[:2] == ["t", "agent"]
    assert "x1" in header and "u1" in header and "e1" in header


def test_published_tube_run_stays_inside(robots_run):
    assert len(robots_run) == 4
    for traj in robots_run:
        assert len(traj.times) == 10_001
        assert np.isfinite(traj.states).all()
        assert np.abs(traj.errors).max() < 1.0


def test_errors_match_tube_walls(robots_spec, robots_table, robots_run):
    """The recorded stage-1 error is the normalized error against the walls
    that tube_box_at gives at the recorded times (the heading band pads
    the plant's extra output), bit for bit."""
    plant = make_plant(robots_spec.plant, robots_spec.dims)
    pad = plant.dims - robots_spec.dims
    for traj in robots_run:
        expect = []
        for t, x in zip(traj.times, traj.states):
            box = tube_box_at(robots_table, traj.agent, float(t))
            lower = [ax.lo for ax in box.axes] + [plant.heading_band[0]] * pad
            upper = [ax.hi for ax in box.axes] + [plant.heading_band[1]] * pad
            expect.append(stage1_error(x[: plant.dims], lower, upper))
        assert np.array(expect).tobytes() == traj.errors.tobytes()
