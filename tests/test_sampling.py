import numpy as np
import pytest

from sttube.sampling import (
    SampleSet,
    export_samples_csv,
    sample_time_grid,
    sample_unsafe,
    verify_cover,
)
from sttube.scenario import scenario_from_dict


def test_grid_sizes():
    assert len(sample_time_grid(10.0, 0.002)) == 2501
    assert len(sample_time_grid(20.0, 0.01)) == 1001
    grid = sample_time_grid(10.0, 0.002)
    assert np.allclose(np.diff(grid), 0.004)
    assert grid[0] == 0.0 and grid[-1] == 10.0


def test_grid_degenerate_single_sample():
    with pytest.warns(UserWarning, match="degenerate"):
        grid = sample_time_grid(10.0, 12.0)
    assert list(grid) == [5.0]
    # epsilon = 5 on a 10s horizon is not degenerate: two samples suffice
    assert list(sample_time_grid(10.0, 5.0)) == [0.0, 10.0]


@pytest.mark.parametrize("epsilon", [0.0, float("nan"), float("inf")], ids=["zero", "nan", "inf"])
def test_grid_rejects_nonpositive_epsilon(epsilon):
    with pytest.raises(ValueError, match="epsilon must be positive"):
        sample_time_grid(10.0, epsilon)


def test_grid_count_scales_inversely():
    n1 = len(sample_time_grid(10.0, 0.001)) - 1
    n2 = len(sample_time_grid(10.0, 0.002)) - 1
    assert n2 <= n1 / 2 + 1


def test_cover_of_generated_grid(robots_spec):
    samples = sample_unsafe(robots_spec)
    ok, gap = verify_cover(samples, robots_spec, grid_resolution=robots_spec.epsilon / 4)
    assert ok
    assert gap <= robots_spec.epsilon * (1 + 1e-9)


def test_cover_detects_hole(robots_spec):
    samples = sample_unsafe(robots_spec)
    mid = len(samples.time_samples) // 2
    holed = SampleSet(
        epsilon=samples.epsilon,
        time_samples=np.delete(samples.time_samples, mid),
        obstacle_bounds=np.delete(samples.obstacle_bounds, mid, axis=0),
    )
    ok, gap = verify_cover(holed, robots_spec, grid_resolution=robots_spec.epsilon / 4)
    assert not ok
    assert gap > robots_spec.epsilon


def test_drone_cover(drones_spec):
    samples = sample_unsafe(drones_spec)
    ok, _ = verify_cover(samples, drones_spec, grid_resolution=drones_spec.epsilon / 4)
    assert ok


def test_face_samples_track_interpolation():
    spec = scenario_from_dict({
        "dims": 2, "horizon": 10.0, "epsilon": 0.25,
        "arena": [[0.0, 10.0], [0.0, 10.0]],
        "agents": [{"start": [[0.0, 1.0], [8.0, 9.0]], "goal": [[9.0, 10.0], [8.0, 9.0]],
                    "tube_degree": [2, 2]}],
        "obstacles": [{
            "interpolation": "piecewise-linear",
            "keyframes": [[0.0, [[0.0, 1.0], [0.0, 1.0]]], [10.0, [[2.0, 3.0], [0.0, 1.0]]]],
        }],
    })
    samples = sample_unsafe(spec)
    mid = np.argmin(np.abs(samples.time_samples - 5.0))
    assert samples.time_samples[mid] == 5.0
    assert samples.obstacle_bounds[mid].tolist() == [[[1.0, 2.0], [0.0, 1.0]]]


def test_empty_obstacles_give_empty_samples():
    spec = scenario_from_dict({
        "dims": 1, "horizon": 1.0, "epsilon": 0.1,
        "arena": [[0.0, 10.0]],
        "agents": [{"start": [[0.0, 1.0]], "goal": [[8.0, 9.0]], "tube_degree": [2]}],
        "obstacles": [],
    })
    samples = sample_unsafe(spec)
    assert samples.obstacle_bounds.shape == (samples.count, 0, 1, 2)


def test_csv_export(tmp_path, robots_spec):
    samples = sample_unsafe(robots_spec)
    path = tmp_path / "samples.csv"
    export_samples_csv(samples, path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("t,")
    assert len(lines) == 1 + samples.count * max(1, len(robots_spec.obstacles))
