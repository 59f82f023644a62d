import hashlib
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sttube import data_path
from sttube.synth import validate_tubes
from sttube.tube import (
    TubeSet,
    agent_walls,
    analytic_slope_bound,
    derivative,
    polyval,
    slope_bounds,
    load_tubes,
    save_tubes,
    tube_values,
    tubes_from_dict,
    tubes_to_dict,
)

# gamma' = (t - 5)^3 - 27 (t - 5): |gamma'| peaks inside [0, 10], at 54 for
# t = 2 and t = 8, against 10 at both ends
QUARTIC = (0.0, 10.0, 24.0, -5.0, 0.25)


def _value(face, t):
    return float(polyval(face, t))


def _slope(face, t):
    return float(polyval(derivative(face), t))


def test_eval_published_values(robots_table):
    r1 = robots_table.coeffs[0]
    assert _value(r1[0, 0], 0.0) == 4.5
    # 0.5 - 1.56 + 1.56 back at 0.5
    assert _value(r1[1, 1], 10.0) == pytest.approx(0.5, abs=1e-12)
    zero = (0.0, 0.0, 0.0)
    assert _value(zero, 3.7) == 0.0


def test_derivative_published_values(robots_table, drones_table):
    r4_lower = robots_table.coeffs[3, 0, 0]
    assert _slope(r4_lower, 0.0) == pytest.approx(3.9463, abs=1e-12)
    const = (2.5,)
    assert _slope(const, 1.0) == 0.0
    d1_upper = drones_table.coeffs[0, 0, 1]  # 0.25 + 0.2745t - 0.0069t^2
    assert _slope(d1_upper, 10.0) == pytest.approx(0.1365, abs=1e-12)


def test_derivative_matches_finite_differences():
    rng = np.random.default_rng(42)
    h = 1e-6
    for _ in range(100):
        degree = int(rng.integers(1, 5))
        face = tuple(rng.uniform(-2, 2, degree + 1))
        for t in rng.uniform(0.1, 9.9, 100):
            exact = _slope(face, t)
            fd = (_value(face, t + h) - _value(face, t - h)) / (2 * h)
            assert fd == pytest.approx(exact, rel=1e-6, abs=1e-6)
    for t, slope in ((0.0, 10.0), (2.0, 54.0), (8.0, -54.0), (10.0, -10.0)):
        assert _slope(QUARTIC, t) == slope
        fd = (_value(QUARTIC, t + h) - _value(QUARTIC, t - h)) / (2 * h)
        assert fd == pytest.approx(slope, rel=1e-6)


def test_slope_bound_examples(robots_table):
    r4_lower = robots_table.coeffs[3, 0, 0]
    assert analytic_slope_bound(r4_lower, (0.0, 10.0)) == pytest.approx(3.9463, abs=1e-12)
    linear = (1.0, -2.5)
    assert analytic_slope_bound(linear, (0.0, 10.0)) == 2.5
    r1_lower = robots_table.coeffs[0, 0, 0]  # 4.5 - 0.8955t + 0.0445t^2
    assert analytic_slope_bound(r1_lower, (0.0, 10.0)) == pytest.approx(0.8955, abs=1e-12)
    # degree 4: the slope maximum lies inside the horizon, at a root of gamma''
    assert analytic_slope_bound(QUARTIC, (0.0, 10.0)) == pytest.approx(54.0, abs=1e-12)
    assert analytic_slope_bound(QUARTIC, (3.0, 7.0)) == pytest.approx(46.0, abs=1e-12)  # at the ends


def test_slope_bound_is_sound():
    rng = np.random.default_rng(7)
    grid = np.linspace(0.0, 10.0, 100_000)
    faces = [tuple(rng.uniform(-1, 1, int(rng.integers(1, 6)) + 1)) for _ in range(40)]
    for face in faces + [QUARTIC]:
        bound = analytic_slope_bound(face, (0.0, 10.0))
        dcoeffs = np.asarray(
            [k * c for k, c in enumerate(face)][1:] or [0.0]
        )
        deriv = np.polynomial.polynomial.polyval(grid, dcoeffs)
        assert bound >= np.abs(deriv).max() - 1e-12


def _closed_form_slope_bound(coeffs, t0, t1):
    """max |gamma'| on [t0, t1] for a face of degree <= 3: gamma'' is
    linear, so |gamma'| peaks at an end or at the root of gamma''."""
    d = [k * c for k, c in enumerate(coeffs)][1:] or [0.0]
    dd = [k * c for k, c in enumerate(d)][1:]
    candidates = [t0, t1]
    if len(dd) > 1 and dd[1] != 0.0:
        root = -dd[0] / dd[1]
        if t0 <= root <= t1:
            candidates.append(root)

    def slope(t):
        acc = 0.0
        for c in reversed(d):
            acc = acc * t + c
        return acc

    return max(abs(slope(t)) for t in candidates)


@settings(max_examples=300, deadline=None)
@given(
    coeffs=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=4),
    t0=st.floats(0.0, 10.0),
    span=st.floats(1e-3, 20.0),
)
@example(coeffs=[0.0, 1.0, 1e3, 1e-310], t0=0.0, span=10.0)  # subnormal lead
def test_slope_bound_matches_closed_form_up_to_cubic(coeffs, t0, span):
    """Up to degree 3, the root finder's bound is the closed form's, bit
    for bit."""
    bound = analytic_slope_bound(coeffs, (t0, t0 + span))
    assert bound == _closed_form_slope_bound(coeffs, t0, t0 + span)


def test_composite_slope_bounds_match_published(robots_table):
    ll, lu = slope_bounds(robots_table)
    assert ll == pytest.approx(3.9463, abs=1e-12)
    assert lu == pytest.approx(3.8711, abs=1e-12)


def test_agent_walls_start_boxes(robots_table, drones_table):
    """An agent's walls are its start box at t = 0 and, at any times, its
    faces in ``tube_values`` bit for bit."""
    def box(tubes, agent, t):
        lower, upper = agent_walls(tubes.coeffs[agent], [t])
        return np.hstack([lower, upper]).tolist()

    assert box(robots_table, 0, 0.0) == [[4.5, 5.0], [0.0, 0.5]]
    assert box(drones_table, 1, 0.0) == [[2.75, 3.0], [0.0, 0.25], [0.0, 0.25]]
    times = np.linspace(0.0, 10.0, 7)
    for tubes in (robots_table, drones_table):
        faces = tube_values(tubes, times)
        for j in range(tubes.agent_count):
            lower, upper = agent_walls(tubes.coeffs[j], times)
            assert lower.shape == upper.shape == (tubes.dims, len(times))
            assert lower.tobytes() == faces[j, :, 0].tobytes()
            assert upper.tobytes() == faces[j, :, 1].tobytes()


def test_validate_tubes_names_a_width_below_its_minimum(robots_spec, robots_table):
    assert validate_tubes(robots_table, robots_spec, resolution=0.01).families["width"].passed
    raw = tubes_to_dict(robots_table)
    # min width above the published pinch (~0.11) breaks the invariant mid-run
    raw["agents"][0]["dims"][0]["min_width"] = 0.2
    broken = tubes_from_dict(raw)
    width = validate_tubes(broken, robots_spec, resolution=0.01).families["width"]
    assert not width.passed and width.where.startswith("agent 1 dim 1 at t=")


def test_published_endpoints_within_rounding():
    """Published coefficients are rounded to four decimals; the deviation
    at t_c scales with the sum of powers of t_c, reaching 0.035 for the
    cubic rows and 0.02 for the quadratic drone rows.  See the endpoint
    regression in the acceptance suite for the stated-tolerance check."""
    from sttube import data_path, load_scenario, load_tubes

    robots = load_tubes(data_path("robots_table.tubes"))
    spec = load_scenario(data_path("robots.scenario"))
    worst = 0.0
    for j, agent in enumerate(robots.coeffs):
        task = spec.agents[j]
        for i, (lower, upper) in enumerate(agent):
            worst = max(
                worst,
                abs(_value(lower, 0.0) - task.start[i, 0]),
                abs(_value(upper, 0.0) - task.start[i, 1]),
                abs(_value(lower, 10.0) - task.goal[i, 0]),
                abs(_value(upper, 10.0) - task.goal[i, 1]),
            )
    # rounding bound: 5e-5 * (1 + 10 + 100 + 1000)
    assert worst <= 0.0556
    # the known worst offenders (cubic rows of the fourth robot)
    r4 = robots.coeffs[3]
    assert _value(r4[0, 1], 10.0) == pytest.approx(5.031, abs=1e-9)
    assert _value(r4[1, 0], 10.0) == pytest.approx(4.473, abs=1e-9)


def test_serialization_round_trip(tmp_path, drones_table):
    path = tmp_path / "d.tubes"
    save_tubes(drones_table, path)
    again = load_tubes(path)
    assert tubes_to_dict(again) == tubes_to_dict(drones_table)


def _one_agent_tubes():
    return {
        "horizon": 2.0,
        "dims": 1,
        "agents": [{"name": "a", "dims": [{"lower": [0.0], "upper": [1.0], "min_width": 0.5}]}],
    }


def _dim(raw):
    return raw["agents"][0]["dims"][0]


@pytest.mark.parametrize("edit,message", [
    (lambda raw: raw.update(agents=5), "agents must be a list"),
    (lambda raw: raw.update(agents=[]), "no agents"),
    (lambda raw: raw["agents"].append(7), "agent 2 must be an object"),
    (lambda raw: raw["agents"][0].pop("dims"), "agent 1 dims must be a list"),
    (lambda raw: raw["agents"][0].update(dims=[]), "agent 1 has no dims"),
    (lambda raw: raw["agents"].append({"dims": [_dim(raw)] * 2}),
     "agents differ in their number of dims"),
    (lambda raw: _dim(raw).update(lower=0.5), "agent 1 dim 1 lower must be a list"),
    (lambda raw: _dim(raw).update(upper=[1.0, "x"]), "agent 1 dim 1 upper must be a number"),
    (lambda raw: _dim(raw).pop("min_width"), "agent 1 dim 1 min_width must be a number"),
    (lambda raw: raw.pop("horizon"), "horizon must be a number"),
    (lambda raw: raw.update(horizon=float("inf")), "horizon must be positive and finite"),
    (lambda raw: _dim(raw).update(lower=[]), "agent 1 dim 1 lower needs at least one coeff"),
    (lambda raw: _dim(raw).update(lower=[float("nan")]), "agent 1 dim 1 lower must be finite"),
    (lambda raw: _dim(raw).update(upper=[1.0, float("-inf")]),
     "agent 1 dim 1 upper must be finite"),
    (lambda raw: _dim(raw).update(min_width=-1), "agent 1 dim 1 min_width must be positive"),
    (lambda raw: _dim(raw).update(min_width=0.0), "agent 1 dim 1 min_width must be positive"),
    (lambda raw: _dim(raw).update(min_width=float("nan")),
     "agent 1 dim 1 min_width must be positive and finite"),
    (lambda raw: _dim(raw).update(min_width=float("inf")),
     "agent 1 dim 1 min_width must be positive and finite"),
    (lambda raw: raw.update(dims=5), "tubes: dims is 5 but the agents have 1"),
    (lambda raw: raw.update(dims=1.5), "tubes: dims must be an integer"),
], ids=[
    "agents-scalar", "no-agents", "agent-scalar", "missing-dims", "no-dims", "ragged-dims",
    "scalar-face", "string-coefficient", "missing-min-width", "missing-horizon",
    "infinite-horizon", "empty-face", "nan-coefficient", "infinite-coefficient",
    "negative-min-width", "zero-min-width", "nan-min-width", "infinite-min-width",
    "dims-mismatch", "fractional-dims",
])
def test_tubes_loader_rejects_malformed_fields(edit, message):
    """A malformed tubes file is a ValueError naming the field, not a
    TypeError, KeyError or IndexError, nor a table that loads and fails
    later: a non-finite coefficient, a min_width that is not positive and
    finite, and a ``dims`` that the agents do not have are refused."""
    raw = _one_agent_tubes()
    tubes_from_dict(raw)
    edit(raw)
    with pytest.raises(ValueError, match=message):
        tubes_from_dict(raw)


def test_table_is_read_only_and_copied(robots_table):
    """Writing into a table raises, and the table keeps its own copy of
    the arrays it was built from."""
    for array in (robots_table.coeffs, robots_table.sizes, robots_table.min_widths):
        with pytest.raises(ValueError, match="read-only"):
            array[(0,) * array.ndim] = 7
    coeffs = np.array(robots_table.coeffs)
    tubes = TubeSet(robots_table.horizon, coeffs, robots_table.sizes,
                    robots_table.min_widths, robots_table.names)
    coeffs[0, 0, 0, 0] = 7.0
    assert tubes.coeffs[0, 0, 0, 0] == 4.5
    assert (tubes.agent_count, tubes.dims) == (4, 2)


def _table(coeffs=(1, 1, 2, 3), sizes=(1, 1, 2), min_widths=(1, 1), names=1):
    return dict(horizon=1.0, coeffs=np.zeros(coeffs), sizes=np.ones(sizes, dtype=int),
                min_widths=np.ones(min_widths), names=("a",) * names)


@pytest.mark.parametrize("fields", [
    _table(coeffs=(1, 1, 3)),
    _table(coeffs=(1, 1, 3, 3)),
    _table(coeffs=(1, 1, 2, 0)),
    _table(sizes=(1, 2, 2)),
    _table(min_widths=(1, 2)),
    _table(names=2),
    {**_table(), "sizes": np.full((1, 1, 2), 4)},
    {**_table(), "sizes": np.zeros((1, 1, 2), dtype=int)},
], ids=["three-axes", "three-sides", "no-coefficients", "sizes", "min-widths", "names",
        "size-past-z", "size-zero"])
def test_table_rejects_shapes_that_disagree(fields):
    TubeSet(**_table())
    with pytest.raises(ValueError, match="tube table shapes disagree"):
        TubeSet(**fields)


def test_robots_round_trip_keeps_each_face_size(tmp_path, robots_table):
    """Robots has faces of 3 and 4 coefficients: the table pads the short
    ones with zeros and writes each face with its own count."""
    raw = json.loads(data_path("robots_table.tubes").read_text())
    assert robots_table.coeffs.shape == (4, 2, 2, 4)
    assert robots_table.sizes.tolist() == [
        [[len(d["lower"]), len(d["upper"])] for d in a["dims"]] for a in raw["agents"]
    ]
    assert set(robots_table.sizes.ravel().tolist()) == {3, 4}
    assert not robots_table.coeffs[0, :, :, 3:].any()
    assert tubes_to_dict(robots_table) == raw
    path = tmp_path / "r.tubes"
    save_tubes(robots_table, path)
    assert json.loads(path.read_text()) == raw


@pytest.mark.parametrize("name,digest", [
    ("robots_table.tubes", "80fb8932bb7b96587b536bdf9a0133b69d9a51b872cafa37870ff4af28eb2092"),
    ("drones_table.tubes", "4053a8ee03f3961706a6b7fceff02426c62ca434094b42e8e9260daf1acd450b"),
])
def test_saved_bytes_are_stable(tmp_path, name, digest):
    """load -> save -> load -> save writes the same bytes twice, and those
    bytes are pinned: ``repr`` of a float is the shortest string that
    reads back to it on every platform, so the digest holds anywhere."""
    first, second = tmp_path / "first.tubes", tmp_path / "second.tubes"
    save_tubes(load_tubes(data_path(name)), first)
    save_tubes(load_tubes(first), second)
    assert first.read_bytes() == second.read_bytes()
    assert hashlib.sha256(first.read_bytes()).hexdigest() == digest
