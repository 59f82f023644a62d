import dataclasses
import json
import math

import numpy as np
import pytest

from sttube.control import ControllerConfig
from sttube.scenario import scenario_from_dict
from sttube.sim import Trajectory, run_closed_loop
from sttube.tube import tubes_from_dict
from sttube.verify import (
    check_ca,
    check_containment,
    check_tras,
    report_to_dict,
    report_to_text,
    verify_run,
)


def _spec(agents=1):
    return scenario_from_dict({
        "dims": 2, "horizon": 1.0, "epsilon": 0.01,
        "arena": [[0.0, 4.0], [0.0, 4.0]],
        "agents": [{"start": [[0.0, 1.0], [0.0, 1.0]], "goal": [[3.0, 4.0], [3.0, 4.0]],
                    "tube_degree": [2, 2]}] * agents,
        "obstacles": [{"interpolation": "static",
                       "keyframes": [[0.0, [[1.8, 2.2], [0.0, 0.4]]]]}],
    })


def _tubes(agents=1):
    # straight diagonal tube from the start box to the goal box
    return tubes_from_dict({
        "horizon": 1.0,
        "agents": [{"dims": [
            {"lower": [0.0, 3.0], "upper": [1.0, 3.0], "min_width": 0.4},
            {"lower": [0.0, 3.0], "upper": [1.0, 3.0], "min_width": 0.4},
        ]}] * agents,
    })


def _traj(points, dt=0.1, agent=0):
    pts = np.asarray(points, dtype=float)
    n = len(pts)
    return Trajectory(
        agent=agent,
        name=f"a{agent + 1}",
        times=np.arange(n) * dt,
        states=pts,
        config=ControllerConfig(kappa=(1.0,)),
    )


def test_tras_pass_on_clean_run():
    spec = _spec()
    centers = np.linspace([0.5, 0.5], [3.5, 3.5], 11)
    check = check_tras(_traj(centers), spec)
    assert check.tras_pass and check.goal_distance == 0.0


def test_tras_detects_teleport_into_obstacle():
    spec = _spec()
    pts = np.linspace([0.5, 0.5], [3.5, 3.5], 11)
    pts[4] = [2.0, 0.2]  # inside the unsafe box
    check = check_tras(_traj(pts), spec)
    assert not check.avoid_ok
    assert check.first_violation_time == pytest.approx(0.4)
    assert check.status == "fail"


def test_tras_reports_goal_miss_distance():
    spec = _spec()
    pts = np.linspace([0.5, 0.5], [3.5, 2.9], 11)  # stops 0.1 below the goal box
    check = check_tras(_traj(pts), spec)
    assert not check.goal_ok
    assert check.goal_distance == pytest.approx(0.1, abs=1e-12)


def test_short_trajectory_is_inconclusive():
    spec = _spec()
    pts = np.linspace([0.5, 0.5], [2.0, 2.0], 6)  # covers half the horizon
    check = check_tras(_traj(pts), spec)
    assert check.status == "inconclusive"
    assert not check.tras_pass


def test_verify_accepts_last_time_rounded_past_horizon():
    # 3 * 0.1 = 0.30000000000000004 > 0.3: the integrator accepts the
    # overshoot, so the obstacle check must too
    spec = scenario_from_dict({
        "dims": 2, "horizon": 0.3, "epsilon": 0.01,
        "arena": [[0.0, 4.0], [0.0, 4.0]],
        "agents": [{"start": [[0.0, 1.0], [0.0, 1.0]], "goal": [[0.0, 1.0], [0.0, 1.0]],
                    "tube_degree": [1, 1]}],
        "obstacles": [{"interpolation": "static",
                       "keyframes": [[0.0, [[2.8, 3.2], [2.8, 3.2]]]]}],
    })
    tubes = tubes_from_dict({
        "horizon": 0.3,
        "agents": [{"dims": [
            {"lower": [0.0, 0.0], "upper": [1.0, 0.0], "min_width": 0.4},
            {"lower": [0.0, 0.0], "upper": [1.0, 0.0], "min_width": 0.4},
        ]}],
    })
    trajs = run_closed_loop(spec, tubes, dt=0.1, seed=1)
    assert trajs[0].times[-1] > spec.horizon
    report = verify_run(trajs, spec, tubes)
    assert report.all_pass and report.agents[0].status == "pass"


def test_containment_margins():
    tubes = _tubes()
    centers = np.linspace([0.5, 0.5], [3.5, 3.5], 11)
    margins = check_containment(_traj(centers), tubes)
    assert np.allclose(margins, 0.5)
    on_wall = centers.copy()
    on_wall[:, 0] += 0.5  # ride the upper wall in dim 1
    margins = check_containment(_traj(on_wall), tubes)
    assert margins.min() == pytest.approx(0.0, abs=1e-12)
    # the wall itself is exclusive: zero margin is a containment failure
    assert not (margins > 0).all()


def test_report_does_not_depend_on_agent_order_after_an_abort():
    """An aborted agent's NaN last state gives a NaN containment margin and
    step, so the sampling robustness is NaN wherever the agent is listed,
    and the report is the same in either order."""
    spec, tubes = _spec(agents=2), _tubes(agents=2)
    good = _traj(np.linspace([0.5, 0.5], [3.5, 3.5], 11))
    pts = np.linspace([0.6, 0.4], [2.1, 1.9], 6)
    pts[5] = np.nan
    bad = dataclasses.replace(
        _traj(pts, agent=1), aborted="non-finite state at t=0.5: (nan, nan)"
    )
    one, two = (
        report_to_dict(verify_run(order, spec, tubes)) for order in ([bad, good], [good, bad])
    )
    two["agents"].reverse()
    assert json.dumps(one) == json.dumps(two)
    assert math.isnan(one["sampling_robustness"])


def test_ca_vacuous_single_agent():
    ok, dist = check_ca([_traj(np.zeros((5, 2)))], dims=2)
    assert ok and dist == float("inf")


def test_ca_detects_contact():
    # odd sample count puts both agents at the midpoint simultaneously
    a = _traj(np.linspace([0.0, 0.0], [1.0, 0.0], 5), agent=0)
    b = _traj(np.linspace([1.0, 0.0], [0.0, 0.0], 5), agent=1)
    ok, dist = check_ca([a, b], dims=2)
    assert not ok
    assert dist == 0.0


def test_ca_keeps_pairs_with_an_aborted_agent():
    """A pair that touches before one agent aborts fails, whatever the
    order: the aborted run's NaN sample drops no pair."""
    a = _traj([(0.0, 0.0), (1.0, 1.0), (2.0, 2.0)], agent=0)
    b = dataclasses.replace(
        _traj([(5.0, 5.0), (1.0, 1.0), (math.nan, math.nan)], agent=1),
        aborted="non-finite state at t=0.2: (nan, nan)",
    )
    for order in ([a, b], [b, a]):
        assert check_ca(order, dims=2) == (False, 0.0)


def test_full_report_round_trip(tmp_path, mini_spec, mini_result):
    from sttube.verify import save_report

    trajs = run_closed_loop(mini_spec, mini_result.tubes, dt=1e-3, seed=3)
    report = verify_run(trajs, mini_spec, mini_result.tubes, min_tube_gap=-0.05)
    assert report.all_pass
    assert report.min_pairwise_distance > 0
    assert report.sampling_robustness > 0
    # tubes that overlap by 0.05 separate nothing: the robustness is the
    # overlap's negative, less the largest step
    overlap = verify_run(trajs, mini_spec, mini_result.tubes, min_tube_gap=0.05)
    assert overlap.sampling_robustness == pytest.approx(-0.05 - overlap.max_step_motion)
    assert overlap.sampling_robustness < 0
    text = report_to_text(report)
    assert "PASS" in text
    path = tmp_path / "report.json"
    save_report(report, path)
    import json

    loaded = json.loads(path.read_text())
    assert loaded["all_pass"] is True
    assert loaded == report_to_dict(report)


def test_failed_checks_named(mini_spec, mini_result):
    trajs = run_closed_loop(mini_spec, mini_result.tubes, dt=1e-3, seed=3)
    # truncate one agent to force an inconclusive result
    short = trajs[0]
    cut = dataclasses.replace(short, times=short.times[:100], states=short.states[:100])
    report = verify_run([cut, trajs[1]], mini_spec, mini_result.tubes)
    assert not report.all_pass
    assert any("shorter than horizon" in line for line in report.failed_checks())
