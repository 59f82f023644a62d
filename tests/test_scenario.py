import dataclasses
import hashlib
import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sttube import data_path, scenario
from sttube.plant import make_plant
from sttube.scenario import (
    DISTURBANCE_KINDS,
    PLANT_DIMS,
    AgentTask,
    ControlConfig,
    PlantConfig,
    ScenarioError,
    ScenarioSpec,
    UnsafeRegion,
    box_array,
    box_inside,
    boxes_meet,
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
    assert robots_spec.arena.tolist() == [[0.0, 5.0], [0.0, 5.0]]
    assert robots_spec.epsilon == 0.002


def test_shipped_drone_scenario(drones_spec):
    assert drones_spec.agent_count == 4
    assert drones_spec.dims == 3
    assert drones_spec.horizon == 20.0
    assert drones_spec.arena.tolist() == [[0.0, 3.0], [0.0, 3.0], [0.0, 15.0]]
    assert len(drones_spec.obstacles) == 1
    assert drones_spec.obstacles[0].bounds[0].tolist() == [
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


@pytest.mark.parametrize("name,digest", [
    ("robots", "f1b6aeb04710b28ffb50e9d4d4f6bdf2fbdc91c628fcd666bbf00a27004cc5b1"),
    ("drones", "5c9d708f542e7b9dfb098da5fe607149f2e752668223f7f990d1ec9ef28b68ca"),
], ids=["robots", "drones"])
def test_saved_shipped_scenarios_keep_their_bytes(tmp_path, name, digest):
    """The file ``save_scenario`` writes for a shipped scenario is pinned,
    so a change to the format fails here instead of drifting."""
    path = tmp_path / f"{name}.scenario"
    save_scenario(load_scenario(data_path(f"{name}.scenario")), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_interval_and_box_invariants():
    """A box is a read-only (dims, 2) copy of its bounds, and no axis may
    have lo > hi; a point is the box of width 0 at it."""
    with pytest.raises(ScenarioError, match=r"interval lo > hi: \[2.0, 1.0\]"):
        box_array([[0, 1], [2.0, 1.0]])
    with pytest.raises(ScenarioError, match="interval lo > hi"):
        box_array([[float("nan"), 1.0]])
    bounds = [[0.0, 1.0], [2.0, 5.0]]
    box = box_array(bounds)
    assert box.shape == (2, 2) and box.dtype == float
    assert not box.flags.writeable
    with pytest.raises(ValueError):
        box[0, 0] = -1.0
    bounds[0][0] = -1.0
    assert box[0, 0] == 0.0
    assert box_inside(box_array([[0.5, 0.5], [2.0, 2.0]]), box)
    assert not box_inside(box_array([[1.5, 1.5], [3.0, 3.0]]), box)
    assert not box_inside(box_array([[0.0, 1.0 + 1e-9], [2.0, 5.0]]), box)
    assert box_inside(box_array([[0.0, 1.0 + 1e-9], [2.0, 5.0]]), box, tol=1e-9)
    # closed boxes: touching faces meet, a gap in any one axis does not
    assert boxes_meet(box, box_array([[1.0, 2.0], [5.0, 6.0]]))
    assert not boxes_meet(box, box_array([[1.0, 2.0], [5.5, 6.0]]))


def test_tasks_and_regions_hold_read_only_copies():
    start, goal = np.array([[0.0, 1.0], [0.0, 1.0]]), np.array([[4.0, 5.0], [4.0, 5.0]])
    task = AgentTask(start=start, goal=goal, tube_degree=(2, 2), min_width=(0.4, 0.4))
    start[0, 0] = 9.0
    assert task.start[0, 0] == 0.0 and not task.goal.flags.writeable
    times, bounds = [0.0, 2.0], [[[0, 1], [0, 1]], [[2, 3], [0, 1]]]
    region = UnsafeRegion(times=times, bounds=bounds, interpolation="piecewise-linear")
    assert region.times.shape == (2,) and region.bounds.shape == (2, 2, 2)
    assert not region.times.flags.writeable and not region.bounds.flags.writeable
    assert region.speed == 1.0
    assert UnsafeRegion(times=[0.0], bounds=[[[0, 1], [0, 1]]]).speed == 0.0
    for kwargs, message in (
        ({"times": [], "bounds": []}, "at least one keyframe"),
        ({"times": [0.0, 1.0], "bounds": bounds}, "exactly one keyframe"),
        ({"times": [1.0, 1.0], "bounds": bounds, "interpolation": "piecewise-linear"},
         "strictly increasing"),
        ({"times": [0.0, float("nan")], "bounds": bounds, "interpolation": "piecewise-linear"},
         "strictly increasing"),
        ({"times": times, "bounds": [bounds[0], [[2, 3]]], "interpolation": "piecewise-linear"},
         "share dimensions"),
        ({"times": times, "bounds": [[[0, 1]], [[1, 0]]], "interpolation": "piecewise-linear"},
         "interval lo > hi"),
        ({"times": [0.0], "bounds": bounds}, "one \\(dims, 2\\) box per keyframe time"),
        ({"times": [0.0], "bounds": bounds[:1], "interpolation": "spline"}, "unknown interp"),
    ):
        with pytest.raises(ScenarioError, match=message):
            UnsafeRegion(**kwargs)


def test_unsafe_box_static_and_interp():
    static = UnsafeRegion(times=[0.0], bounds=[[[0, 1], [0, 1]]], interpolation="static")
    for t in (0.0, 3.3, 10.0):
        assert unsafe_box_at(static, t).tolist() == [[0, 1], [0, 1]]

    moving = UnsafeRegion(
        times=[0.0, 10.0],
        bounds=[[[0, 1], [0, 1]], [[2, 3], [0, 1]]],
        interpolation="piecewise-linear",
    )
    mid = unsafe_box_at(moving, 5.0)
    assert mid.tolist() == [[1.0, 2.0], [0.0, 1.0]]
    # endpoint lands exactly on the last keyframe; beyond it the box holds
    assert unsafe_box_at(moving, 10.0).tolist() == [[2, 3], [0, 1]]
    assert unsafe_box_at(moving, 12.0).tolist() == [[2, 3], [0, 1]]
    with pytest.raises(ScenarioError):
        unsafe_box_at(moving, -0.1)
    with pytest.raises(ScenarioError):
        unsafe_box_at(moving, 10.5, horizon=10.0)


def test_unsafe_bounds_match_scalar_reference():
    """The array form equals unsafe_box_at bit for bit, including at the
    interior keyframe, where both interpolate the earlier segment at w = 1
    (0.1 + (0.43 - 0.1) is not 0.43 in floating point)."""
    static = UnsafeRegion(times=[0.0], bounds=[[[0.1, 1.3], [0.7, 0.9]]])
    moving = UnsafeRegion(
        times=[1.0, 3.3, 7.1],
        bounds=[
            [[0.1, 1.3], [0.13, 0.9]],
            [[0.43, 1.5], [1.16, 1.9]],
            [[2.0, 3.0], [0.5, 1.0]],
        ],
        interpolation="piecewise-linear",
    )
    # before the first keyframe, on each, between them, after the last
    times = np.concatenate([[0.0, 0.5, 1.0, 2.2, 3.3, 5.0, 7.1, 9.0, 10.0],
                            np.linspace(0.0, 10.0, 1001)])
    for region in (static, moving):
        expect = np.array([unsafe_box_at(region, float(t), 10.0) for t in times])
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
                assert box_inside(box, spec.arena, tol=1e-12)


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
    start = box_array([[0, 1], [0, 0.5]])
    goal = box_array([[4, 5], [0, 0.8]])
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
    (lambda raw: _plant(raw, disturbance={"seed": -1}),
     "disturbance seed must be a nonnegative integer"),
    (lambda raw: raw.update(control={"kappa": 2.0}), "control kappa must be a list"),
    (lambda raw: raw.update(control={"kappa": []}), "at least one stage gain"),
    (lambda raw: raw.update(control={"funnel": {"q": -1.0}}), "funnel q must be positive and"),
    (lambda raw: raw.update(control={"funnel": {"q": float("nan")}}), "funnel q must be positive"),
    (lambda raw: raw.update(control={"funnel": {"mu": 0.0}}), "funnel mu must be positive and"),
    (lambda raw: raw.update(control={"funnel": {"p_margin": float("nan")}}),
     "funnel p_margin must be finite"),
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
    "kappa-scalar", "kappa-empty", "funnel-q-negative", "funnel-q-nan", "funnel-mu-zero",
    "funnel-p-margin-nan", "plant-kind-unknown", "plant-kind-list", "plant-kind-off-dims",
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
    (1, None), (2, "omnidirectional"), (3, "drone_chain"), (4, None),
])
def test_a_plant_without_a_kind_gets_the_kind_that_fits_its_dims(dims, kind):
    """A file with no plant block, or one that names no kind, loads with
    no kind; ``make_plant`` builds the built-in kind that fits its dims,
    and refuses dims that none fits.  A saved scenario loads back with
    its kind, named or not, whatever its dims."""
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
        assert spec.plant.kind is None
        if kind is None:
            with pytest.raises(ScenarioError, match=f"no built-in plant kind fits a {dims}-D"):
                make_plant(spec.plant, dims)
        else:
            assert make_plant(spec.plant, dims).kind == kind
        named = dataclasses.replace(spec, plant=PlantConfig(kind=kind))
        for saved in (spec, named):
            assert scenario_from_dict(scenario_to_dict(saved)).plant.kind == saved.plant.kind


def test_a_spec_built_in_code_must_fit_its_plant_kind(robots_spec):
    """A named kind is checked against dims when the spec is built, so no
    spec saves a file that will not load."""
    message = "plant kind 'drone_chain' needs a 3-D scenario, not 2-D"
    with pytest.raises(ScenarioError, match=message):
        dataclasses.replace(robots_spec, plant=PlantConfig(kind="drone_chain"))


def test_a_named_plant_kind_takes_one_gain_or_one_per_stage(tmp_path):
    """A named kind's ``kappa`` count is checked when the scenario loads:
    the robots file with three gains is refused, naming kappa, the kind
    and both counts; the drones file with one gain per stage loads; and a
    scenario that names no kind takes any count here, since a custom
    plant may have any number of stages."""
    raw = json.loads(data_path("robots.scenario").read_text())
    raw["control"]["kappa"] = [1.0, 2.0, 3.0]
    path = tmp_path / "robots.scenario"
    path.write_text(json.dumps(raw))
    message = r"control kappa .* \(1 for plant kind 'omnidirectional'\), not 3"
    with pytest.raises(ScenarioError, match=message):
        load_scenario(path)
    raw = json.loads(data_path("drones.scenario").read_text())
    raw["control"]["kappa"] = [1.0, 2.0]
    assert scenario_from_dict(raw).control.kappa == (1.0, 2.0)
    raw = _raw()
    raw["control"] = {"kappa": [1.0, 2.0]}
    spec = scenario_from_dict(raw)
    assert spec.plant.kind is None and spec.control.kappa == (1.0, 2.0)


@pytest.mark.parametrize("cls,fields,label", [
    (PlantConfig, {"disturbance_bound": "0.1"}, "plant disturbance bound"),
    (PlantConfig, {"disturbance_bound": True}, "plant disturbance bound"),
    (PlantConfig, {"heading_band": ("a", "b")}, "plant heading_band"),
    (ControlConfig, {"kappa": "1"}, "control kappa"),
    (ControlConfig, {"kappa": (True,)}, "control kappa"),
    (ControlConfig, {"funnel_q": "1"}, "control funnel q"),
    (ControlConfig, {"e_max": True}, "control e_max"),
    (PlantConfig, {"heading_band": 1.0}, "plant heading_band"),
    (ControlConfig, {"kappa": 1.0}, "control kappa"),
], ids=[
    "bound-str", "bound-bool", "band-str", "kappa-str", "kappa-bool", "q-str", "e_max-bool",
    "band-scalar", "kappa-scalar",
])
def test_a_block_built_in_code_refuses_a_value_that_is_not_a_number(cls, fields, label):
    """A plant or control block built in code takes a number, or a list
    of numbers, where the file reader does (``scenario._number`` and
    ``_numbers``): a string, a ``bool`` or a lone number where a list
    belongs is refused with a ScenarioError that names the field as the
    file's would."""
    with pytest.raises(ScenarioError, match=f"^{label} must be a (number|list), not "):
        cls(**fields)


def _leaves(layout, keys=()):
    """(keys, reader) for every leaf of a layout table, nested keys in order."""
    for key, reader in layout.items():
        if isinstance(reader, dict):
            yield from _leaves(reader, keys + (key,))
        else:
            yield keys + (key,), reader


def _put(node, path, value):
    """Set the value at ``path`` (keys and list indices), making missing objects."""
    *parents, key = path
    for k in parents:
        node = node[k] if isinstance(node, list) else node.setdefault(k, {})
    node[key] = value


# Where each table's object sits in a scenario dict, and its label.
_BLOCKS = {
    ScenarioSpec: ((), ()),
    AgentTask: (("agents", 0), ("agent 1",)),
    UnsafeRegion: (("obstacles", 0), ("obstacle 1",)),
    PlantConfig: (("plant",), ("plant",)),
    ControlConfig: (("control",), ("control",)),
}
# A value of the wrong type for each reader: a string where a number
# belongs, a number where a list, box or block belongs.  The string
# leaves (a name, a kind, the interpolation) are passed as given to their
# constructors; test_loader_rejects_malformed_fields pins their refusals.
_WRONG = {
    scenario._number: "x", scenario._integer: "x", scenario._degrees: "x",
    scenario._list: 5, scenario._numbers: 5, scenario._box: 5, scenario._keyframes: 5,
    scenario._plant: 5, scenario._control: 5,
}
_LEAF_CASES = [
    (" ".join(label + keys), at + keys, _WRONG[reader])
    for cls, layout in {ScenarioSpec: scenario._SCENARIO, **scenario._LAYOUTS}.items()
    for at, label in [_BLOCKS[cls]]
    for keys, reader in _leaves(layout)
    if reader is not scenario._given
]


@pytest.mark.parametrize(
    "label,path,wrong", _LEAF_CASES, ids=[label.replace(" ", "-") for label, _, _ in _LEAF_CASES]
)
def test_every_leaf_refuses_a_value_of_the_wrong_type(label, path, wrong):
    """Each leaf of the layout tables, given a value of the wrong type in
    the robots file, is refused with a message that names it."""
    raw = json.loads(data_path("robots.scenario").read_text())
    _put(raw, path, wrong)
    with pytest.raises(ScenarioError) as refused:
        scenario_from_dict(raw)
    assert label in str(refused.value)


def test_loader_rejects_a_non_object():
    with pytest.raises(ScenarioError, match="scenario must be an object"):
        scenario_from_dict([1, 2])


def test_loader_broadcasts_an_integer_degree():
    raw = _raw()
    _agent(raw)["tube_degree"] = 3
    assert scenario_from_dict(raw).agents[0].tube_degree == (3, 3)


# ---------------------------------------------------------------------------
# generated scenarios


def _coord(draw, lo, hi):
    return draw(st.floats(lo, hi, allow_nan=False, allow_infinity=False))


@st.composite
def _boxes_in(draw, arena):
    """A box inside ``arena``, each axis at least a tenth of its width."""
    box = []
    for lo, hi in arena:
        span = hi - lo
        a = lo + 0.9 * span * _coord(draw, 0.0, 1.0)
        box.append([a, min(hi, a + 0.1 * span + (hi - a - 0.1 * span) * _coord(draw, 0.0, 1.0))])
    return box


@st.composite
def scenarios(draw):
    """Scenario dicts of 1-4 dims, 1-3 agents and 0-2 obstacles, static or
    piecewise-linear, with and without plant and control blocks, whose
    keys are drawn from the layout tables (a plant ``kind`` only where
    one fits dims, else null, which is no kind); some
    are invalid (an obstacle on a start box), and callers ``assume`` them
    away."""
    dims = draw(st.integers(1, 4))
    arena = []
    for _ in range(dims):
        lo = _coord(draw, -10.0, 10.0)
        arena.append([lo, lo + _coord(draw, 1.0, 20.0)])
    horizon = _coord(draw, 0.5, 30.0)
    raw = {
        "dims": dims,
        "horizon": horizon,
        "epsilon": _coord(draw, 1e-3, 0.5),
        "arena": arena,
        "agents": [],
        "obstacles": [],
    }
    for j in range(draw(st.integers(1, 3))):
        start, goal = draw(_boxes_in(arena)), draw(_boxes_in(arena))
        agent = {"name": f"a{j}", "start": start, "goal": goal,
                 "tube_degree": draw(st.one_of(
                     st.integers(1, 3), st.lists(st.integers(1, 3), min_size=dims, max_size=dims)
                 ))}
        if draw(st.booleans()):
            agent["min_width"] = [
                min(s[1] - s[0], g[1] - g[0]) * _coord(draw, 0.05, 1.0)
                for s, g in zip(start, goal)
            ]
        raw["agents"].append(agent)
    for _ in range(draw(st.integers(0, 2))):
        if draw(st.booleans()):
            raw["obstacles"].append(
                {"interpolation": "static", "keyframes": [[0.0, draw(_boxes_in(arena))]]}
            )
            continue
        times = sorted(set(draw(st.lists(
            st.floats(0.0, 1.5 * horizon, allow_nan=False), min_size=1, max_size=4
        ))))
        raw["obstacles"].append({
            "interpolation": "piecewise-linear",
            "keyframes": [[t, draw(_boxes_in(arena))] for t in times],
        })
    values = {  # a strategy for each leaf of the plant and control tables
        ("kind",): st.sampled_from([k for k, d in PLANT_DIMS.items() if d == dims] or [None]),
        ("heading_band",): st.tuples(st.floats(-3.0, -0.1), st.floats(0.1, 3.0)).map(list),
        ("disturbance", "bound"): st.floats(0.0, 0.1),
        ("disturbance", "kind"): st.sampled_from(DISTURBANCE_KINDS),
        ("disturbance", "seed"): st.integers(0, 2**31),
        ("kappa",): st.lists(st.floats(0.1, 10.0), min_size=1, max_size=3),
        ("e_max",): st.floats(0.5, 0.999),
        ("funnel", "q"): st.floats(0.05, 0.5),
        ("funnel", "mu"): st.floats(0.1, 5.0),
        ("funnel", "p_margin"): st.floats(0.1, 1.0),
    }
    for key, layout in (("plant", scenario._PLANT), ("control", scenario._CONTROL)):
        if draw(st.booleans()):
            raw[key] = {}
            for keys, _ in _leaves(layout):
                if draw(st.booleans()):
                    _put(raw[key], keys, draw(values[keys]))
    return raw


@settings(max_examples=150, deadline=None)
@given(raw=scenarios(), at=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8))
def test_generated_scenarios_round_trip(raw, at):
    """A valid scenario of any dims saves and loads back to the same
    JSON, and ``unsafe_bounds`` equals ``unsafe_box_at`` bit for bit at
    every keyframe time in the horizon and between them."""
    try:
        spec = scenario_from_dict(raw)
    except ScenarioError:
        assume(False)
    saved = json.loads(json.dumps(scenario_to_dict(spec)))
    assert scenario_to_dict(scenario_from_dict(saved)) == saved
    for region in spec.obstacles:
        keys = region.times[region.times <= spec.horizon]
        mids = 0.5 * (keys[:-1] + keys[1:])
        times = np.concatenate([keys, mids, spec.horizon * np.array(at)])
        expect = np.array([unsafe_box_at(region, float(t), spec.horizon) for t in times])
        assert unsafe_bounds(region, times, spec.horizon).tobytes() == expect.tobytes()
