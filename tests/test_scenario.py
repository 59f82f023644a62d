import numpy as np
import pytest

from sttube.scenario import (
    Box,
    Interval,
    ScenarioError,
    UnsafeRegion,
    default_min_width,
    load_scenario,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
    unsafe_box_at,
    unsafe_bounds,
)


def test_shipped_robot_scenario(robots_spec):
    assert robots_spec.agent_count == 4
    assert robots_spec.dims == 2
    assert robots_spec.horizon == 10.0
    assert robots_spec.arena.to_bounds() == [[0.0, 5.0], [0.0, 5.0]]
    assert robots_spec.epsilon == 0.002


def test_shipped_drone_scenario(drones_spec):
    assert drones_spec.agent_count == 4
    assert drones_spec.dims == 3
    assert drones_spec.horizon == 20.0
    assert drones_spec.arena.to_bounds() == [[0.0, 3.0], [0.0, 3.0], [0.0, 15.0]]
    assert len(drones_spec.obstacles) == 1
    assert drones_spec.obstacles[0].keyframes[0][1].to_bounds() == [
        [1.0, 2.0], [0.0, 3.0], [0.0, 3.0],
    ]


def test_round_trip_bit_exact(tmp_path, robots_spec):
    path = tmp_path / "copy.scenario"
    save_scenario(robots_spec, path)
    again = load_scenario(path)
    assert scenario_to_dict(again) == scenario_to_dict(robots_spec)
    # a second round trip is byte-identical
    path2 = tmp_path / "copy2.scenario"
    save_scenario(again, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_interval_and_box_invariants():
    with pytest.raises(ScenarioError):
        Interval(2.0, 1.0)
    box = Box.from_bounds([[0, 1], [2, 5]])
    assert box.dims == 2
    assert box.center == (0.5, 3.5)
    assert box.contains_point((0.5, 2.0))
    assert not box.contains_point((1.5, 3.0))


def test_unsafe_box_static_and_interp():
    static = UnsafeRegion(
        keyframes=((0.0, Box.from_bounds([[0, 1], [0, 1]])),),
        interpolation="static",
    )
    for t in (0.0, 3.3, 10.0):
        assert unsafe_box_at(static, t).to_bounds() == [[0, 1], [0, 1]]

    moving = UnsafeRegion(
        keyframes=(
            (0.0, Box.from_bounds([[0, 1], [0, 1]])),
            (10.0, Box.from_bounds([[2, 3], [0, 1]])),
        ),
        interpolation="piecewise-linear",
    )
    mid = unsafe_box_at(moving, 5.0)
    assert mid.to_bounds() == [[1.0, 2.0], [0.0, 1.0]]
    # endpoint lands exactly on the last keyframe; beyond it the box holds
    assert unsafe_box_at(moving, 10.0).to_bounds() == [[2, 3], [0, 1]]
    assert unsafe_box_at(moving, 12.0).to_bounds() == [[2, 3], [0, 1]]
    with pytest.raises(ScenarioError):
        unsafe_box_at(moving, -0.1)
    with pytest.raises(ScenarioError):
        unsafe_box_at(moving, 10.5, horizon=10.0)


def test_unsafe_bounds_match_scalar_reference():
    """The array form equals unsafe_box_at bit for bit, including at the
    interior keyframe, where both interpolate the earlier segment at w = 1
    (0.1 + (0.43 - 0.1) is not 0.43 in floating point)."""
    static = UnsafeRegion(keyframes=((0.0, Box.from_bounds([[0.1, 1.3], [0.7, 0.9]])),))
    moving = UnsafeRegion(
        keyframes=(
            (1.0, Box.from_bounds([[0.1, 1.3], [0.13, 0.9]])),
            (3.3, Box.from_bounds([[0.43, 1.5], [1.16, 1.9]])),
            (7.1, Box.from_bounds([[2.0, 3.0], [0.5, 1.0]])),
        ),
        interpolation="piecewise-linear",
    )
    # before the first keyframe, on each, between them, after the last
    times = np.concatenate([[0.0, 0.5, 1.0, 2.2, 3.3, 5.0, 7.1, 9.0, 10.0],
                            np.linspace(0.0, 10.0, 1001)])
    for region in (static, moving):
        expect = np.array([unsafe_box_at(region, float(t), 10.0).to_bounds() for t in times])
        got = unsafe_bounds(region, times, 10.0)
        assert got.shape == (len(times), 2, 2)
        assert got.tobytes() == expect.tobytes()
    assert unsafe_bounds(moving, [3.3])[0, 0, 0] != 0.43
    with pytest.raises(ScenarioError):
        unsafe_bounds(moving, [0.0, -0.1])
    with pytest.raises(ScenarioError):
        unsafe_bounds(moving, [10.5], horizon=10.0)


def test_unsafe_boxes_stay_inside_arena(robots_spec, drones_spec):
    for spec in (robots_spec, drones_spec):
        for t in np.linspace(0.0, spec.horizon, 1000):
            for region in spec.obstacles:
                box = unsafe_box_at(region, float(t), spec.horizon)
                assert spec.arena.contains_box(box, tol=1e-12)


def _raw(robots_path=None):
    return {
        "dims": 2,
        "horizon": 10.0,
        "epsilon": 0.002,
        "arena": [[0.0, 5.0], [0.0, 5.0]],
        "agents": [
            {"start": [[0.0, 1.0], [0.0, 1.0]], "goal": [[4.0, 5.0], [4.0, 5.0]],
             "tube_degree": [2, 2]},
        ],
        "obstacles": [],
    }


def test_validation_rejects_goal_in_unsafe_set():
    raw = _raw()
    raw["obstacles"] = [
        {"interpolation": "static", "keyframes": [[0.0, [[3.5, 5.0], [3.5, 5.0]]]]}
    ]
    with pytest.raises(ScenarioError, match="goal box intersects"):
        scenario_from_dict(raw)


def test_validation_rejects_start_in_unsafe_set():
    raw = _raw()
    raw["obstacles"] = [
        {"interpolation": "static", "keyframes": [[0.0, [[0.5, 2.0], [0.5, 2.0]]]]}
    ]
    with pytest.raises(ScenarioError, match="start box intersects"):
        scenario_from_dict(raw)


def test_validation_rejects_box_outside_arena():
    raw = _raw()
    raw["agents"][0]["goal"] = [[4.0, 5.5], [4.0, 5.0]]
    with pytest.raises(ScenarioError, match="not inside the arena"):
        scenario_from_dict(raw)


def test_validation_rejects_wide_min_width():
    raw = _raw()
    raw["agents"][0]["min_width"] = [1.5, 0.4]
    with pytest.raises(ScenarioError, match="min width"):
        scenario_from_dict(raw)


@pytest.mark.parametrize("edit,message", [
    (lambda raw: raw.update(horizon=float("nan")), "horizon must be positive"),
    (lambda raw: raw.update(epsilon=float("nan")), "epsilon must be positive"),
    (lambda raw: raw["agents"][0].update(min_width=[float("nan"), 0.4]), "min tube width"),
    (lambda raw: raw.update(control={"kappa": [float("nan")]}), "stage gains must be positive"),
    (lambda raw: raw.update(horizon=float("inf")), "horizon must be positive and finite"),
    (lambda raw: raw.update(epsilon=float("inf")), "epsilon must be positive and finite"),
    (lambda raw: raw.update(control={"kappa": [float("inf")]}), "stage gains must be positive"),
], ids=["horizon", "epsilon", "min-width", "kappa", "horizon-inf", "epsilon-inf", "kappa-inf"])
def test_validation_rejects_nan(edit, message):
    """NaN and infinity fail every positivity check: each reads
    ``not 0 < x < inf`` (min width: ``not x > 0``, which NaN fails)."""
    raw = _raw()
    edit(raw)
    with pytest.raises(ScenarioError, match=message):
        scenario_from_dict(raw)


def test_malformed_file_is_a_parse_error(tmp_path):
    bad = tmp_path / "bad.scenario"
    bad.write_text("{not json")
    with pytest.raises(ScenarioError, match="not valid JSON"):
        load_scenario(bad)


def test_default_min_width_rule():
    start = Box.from_bounds([[0, 1], [0, 0.5]])
    goal = Box.from_bounds([[4, 5], [0, 0.8]])
    assert default_min_width(start, goal) == (0.5, 0.25)


def _agent(raw):
    return raw["agents"][0]


def _plant(raw, **fields):
    raw.setdefault("plant", {}).update(fields)


@pytest.mark.parametrize("edit,message", [
    (lambda raw: _agent(raw).update(tube_degree=[2.7, 2]), "agent 1 tube_degree must be an int"),
    (lambda raw: _agent(raw).update(tube_degree=2.5), "agent 1 tube_degree must be an int"),
    (lambda raw: _agent(raw).update(min_width=0.4), "agent 1 min_width must be a list"),
    (lambda raw: _agent(raw).update(start=[[0.0, 1.0, 2.0], [0.0, 1.0]]),
     r"agent 1 start must be a list of \[lo, hi\] pairs"),
    (lambda raw: _agent(raw).update(goal=[[4.0, "x"], [4.0, 5.0]]), "agent 1 goal must be a num"),
    (lambda raw: raw.update(arena=[0.0, 5.0]), r"arena must be a list of \[lo, hi\] pairs"),
    (lambda raw: raw.update(arena=[[5.0, 0.0], [0.0, 5.0]]), "arena: interval lo > hi"),
    (lambda raw: raw.pop("horizon"), "missing key 'horizon'"),
    (lambda raw: raw.update(dims=2.5), "dims must be an integer"),
    (lambda raw: raw.update(agents=5), "agents must be a list"),
    (lambda raw: raw.update(agents=[5]), "agent 1 must be an object"),
    (lambda raw: raw.update(obstacles=[{"interpolation": "static"}]),
     "obstacle 1: missing key 'keyframes'"),
    (lambda raw: raw.update(obstacles=[{"keyframes": [0.0]}]),
     r"obstacle 1 keyframes must be \[time, box\] pairs"),
    (lambda raw: raw.update(plant=[1]), "plant must be an object"),
    (lambda raw: _plant(raw, g_sign="negtive"), "plant g_sign must be positive, not 'negtive'"),
    (lambda raw: _plant(raw, g_sign="negative"),
     "plant g_sign must be positive, not 'negative': .* negate the input"),
    (lambda raw: _plant(raw, heading_band=[1.0, -1.0]), "heading_band must be two finite"),
    (lambda raw: _plant(raw, heading_band=[-1.0, 0.0, 1.0]), "heading_band must be two finite"),
    (lambda raw: _plant(raw, heading_band=[-1.0, float("inf")]), "heading_band must be two finite"),
    (lambda raw: _plant(raw, heading_band=0.5), "heading_band must be a list"),
    (lambda raw: _plant(raw, disturbance={"bound": float("inf")}), "bound must be nonnegative and"),
    (lambda raw: _plant(raw, disturbance={"bound": -0.01}), "bound must be nonnegative and"),
    (lambda raw: _plant(raw, disturbance={"kind": "gauss"}), "unknown disturbance kind 'gauss'"),
    (lambda raw: _plant(raw, disturbance={"seed": 1.5}), "disturbance seed must be an integer"),
    (lambda raw: _plant(raw, disturbance={"seed": -1}), "disturbance seed must be nonnegative"),
    (lambda raw: raw.update(control={"kappa": 2.0}), "control kappa must be a list"),
    (lambda raw: _plant(raw, kind="nonsense"), "unknown plant kind 'nonsense'"),
    (lambda raw: _plant(raw, kind=["drone_chain"]), r"unknown plant kind \['drone_chain'\]"),
    (lambda raw: _plant(raw, kind="drone_chain"),
     "plant kind 'drone_chain' needs a 3-D scenario, not 2-D"),
], ids=[
    "fractional-degree", "scalar-float-degree", "scalar-min-width", "box-triple",
    "box-string", "arena-not-pairs", "arena-reversed", "missing-horizon", "fractional-dims",
    "agents-scalar", "agent-scalar", "missing-keyframes", "keyframe-not-pair", "plant-list",
    "g-sign-typo", "g-sign-negative", "band-reversed", "band-three-values", "band-infinite",
    "band-scalar",
    "bound-infinite", "bound-negative", "disturbance-kind", "fractional-seed", "negative-seed",
    "kappa-scalar", "plant-kind-unknown", "plant-kind-list", "plant-kind-off-dims",
])
def test_loader_rejects_malformed_fields(edit, message):
    """A malformed field is a ScenarioError naming it, at load time: not a
    TypeError or KeyError, a silent truncation, or a plant setting that
    only shows up when the closed loop runs."""
    raw = _raw()
    edit(raw)
    with pytest.raises(ScenarioError, match=message):
        scenario_from_dict(raw)


@pytest.mark.parametrize("dims,kind", [
    (1, "omnidirectional"), (2, "omnidirectional"), (3, "drone_chain"), (4, "omnidirectional"),
])
def test_a_plant_without_a_kind_gets_the_kind_that_fits_its_dims(dims, kind):
    """A file with no plant block, or one that names no kind, gets the
    built-in kind whose scenario dimension is its own (``PLANT_DIMS``),
    which ``make_plant`` then accepts; dims no built-in kind fits keep
    ``omnidirectional``."""
    from sttube.plant import make_plant

    for plant in (None, {"disturbance": {"bound": 0.0}}):
        raw = {
            "dims": dims, "horizon": 10.0, "epsilon": 0.002,
            "arena": [[0.0, 5.0]] * dims,
            "agents": [{"start": [[0.0, 1.0]] * dims, "goal": [[4.0, 5.0]] * dims,
                        "tube_degree": [2] * dims}],
            "obstacles": [],
        }
        if plant is not None:
            raw["plant"] = plant
        spec = scenario_from_dict(raw)
        assert spec.plant.kind == kind
        if dims in (2, 3):
            assert make_plant(spec.plant, dims).kind == kind
            assert scenario_from_dict(scenario_to_dict(spec)).plant.kind == kind


def test_loader_rejects_a_non_object():
    with pytest.raises(ScenarioError, match="scenario must be an object"):
        scenario_from_dict([1, 2])


def test_loader_broadcasts_an_integer_degree():
    raw = _raw()
    _agent(raw)["tube_degree"] = 3
    assert scenario_from_dict(raw).agents[0].tube_degree == (3, 3)
