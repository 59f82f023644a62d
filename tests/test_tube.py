import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sttube.synth import validate_tubes
from sttube.tube import (
    TubeFace,
    agent_coeffs,
    agent_walls,
    analytic_slope_bound,
    derivative,
    polyval,
    slope_bounds,
    tube_values,
    tubes_from_dict,
    tubes_to_dict,
)

# gamma' = (t - 5)^3 - 27 (t - 5): |gamma'| peaks inside [0, 10], at 54 for
# t = 2 and t = 8, against 10 at both ends
QUARTIC = TubeFace((0.0, 10.0, 24.0, -5.0, 0.25))


def _value(face, t):
    return float(polyval(face.coeffs, t))


def _slope(face, t):
    return float(polyval(derivative(face.coeffs), t))


def test_eval_published_values(robots_table):
    r1 = robots_table.agents[0]
    assert _value(r1.dims[0].lower, 0.0) == 4.5
    # 0.5 - 1.56 + 1.56 back at 0.5
    assert _value(r1.dims[1].upper, 10.0) == pytest.approx(0.5, abs=1e-12)
    zero = TubeFace((0.0, 0.0, 0.0))
    assert _value(zero, 3.7) == 0.0


def test_derivative_published_values(robots_table, drones_table):
    r4_lower = robots_table.agents[3].dims[0].lower
    assert _slope(r4_lower, 0.0) == pytest.approx(3.9463, abs=1e-12)
    const = TubeFace((2.5,))
    assert _slope(const, 1.0) == 0.0
    d1_upper = drones_table.agents[0].dims[0].upper  # 0.25 + 0.2745t - 0.0069t^2
    assert _slope(d1_upper, 10.0) == pytest.approx(0.1365, abs=1e-12)


def test_derivative_matches_finite_differences():
    rng = np.random.default_rng(42)
    h = 1e-6
    for _ in range(100):
        degree = int(rng.integers(1, 5))
        coeffs = tuple(rng.uniform(-2, 2, degree + 1))
        face = TubeFace(coeffs)
        for t in rng.uniform(0.1, 9.9, 100):
            exact = _slope(face, t)
            fd = (_value(face, t + h) - _value(face, t - h)) / (2 * h)
            assert fd == pytest.approx(exact, rel=1e-6, abs=1e-6)
    for t, slope in ((0.0, 10.0), (2.0, 54.0), (8.0, -54.0), (10.0, -10.0)):
        assert _slope(QUARTIC, t) == slope
        fd = (_value(QUARTIC, t + h) - _value(QUARTIC, t - h)) / (2 * h)
        assert fd == pytest.approx(slope, rel=1e-6)


def test_slope_bound_examples(robots_table):
    r4_lower = robots_table.agents[3].dims[0].lower
    assert analytic_slope_bound(r4_lower, (0.0, 10.0)) == pytest.approx(3.9463, abs=1e-12)
    linear = TubeFace((1.0, -2.5))
    assert analytic_slope_bound(linear, (0.0, 10.0)) == 2.5
    r1_lower = robots_table.agents[0].dims[0].lower  # 4.5 - 0.8955t + 0.0445t^2
    assert analytic_slope_bound(r1_lower, (0.0, 10.0)) == pytest.approx(0.8955, abs=1e-12)
    # degree 4: the slope maximum lies inside the horizon, at a root of gamma''
    assert analytic_slope_bound(QUARTIC, (0.0, 10.0)) == pytest.approx(54.0, abs=1e-12)
    assert analytic_slope_bound(QUARTIC, (3.0, 7.0)) == pytest.approx(46.0, abs=1e-12)  # at the ends


def test_slope_bound_is_sound():
    rng = np.random.default_rng(7)
    grid = np.linspace(0.0, 10.0, 100_000)
    faces = [TubeFace(tuple(rng.uniform(-1, 1, int(rng.integers(1, 6)) + 1))) for _ in range(40)]
    for face in faces + [QUARTIC]:
        bound = analytic_slope_bound(face, (0.0, 10.0))
        dcoeffs = np.asarray(
            [k * c for k, c in enumerate(face.coeffs)][1:] or [0.0]
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
    bound = analytic_slope_bound(TubeFace(tuple(coeffs)), (t0, t0 + span))
    assert bound == _closed_form_slope_bound(coeffs, t0, t0 + span)


def test_composite_slope_bounds_match_published(robots_table):
    ll, lu = slope_bounds(robots_table)
    assert ll == pytest.approx(3.9463, abs=1e-12)
    assert lu == pytest.approx(3.8711, abs=1e-12)


def test_agent_walls_start_boxes(robots_table, drones_table):
    """An agent's walls are its start box at t = 0 and, at any times, its
    faces in ``tube_values`` bit for bit."""
    def box(tubes, agent, t):
        lower, upper = agent_walls(agent_coeffs(tubes, agent), [t])
        return np.hstack([lower, upper]).tolist()

    assert box(robots_table, 0, 0.0) == [[4.5, 5.0], [0.0, 0.5]]
    assert box(drones_table, 1, 0.0) == [[2.75, 3.0], [0.0, 0.25], [0.0, 0.25]]
    times = np.linspace(0.0, 10.0, 7)
    for tubes in (robots_table, drones_table):
        faces = tube_values(tubes, times)
        for j in range(tubes.agent_count):
            lower, upper = agent_walls(agent_coeffs(tubes, j), times)
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
    for j, agent in enumerate(robots.agents):
        task = spec.agents[j]
        for i, d in enumerate(agent.dims):
            worst = max(
                worst,
                abs(_value(d.lower, 0.0) - task.start.axes[i].lo),
                abs(_value(d.upper, 0.0) - task.start.axes[i].hi),
                abs(_value(d.lower, 10.0) - task.goal.axes[i].lo),
                abs(_value(d.upper, 10.0) - task.goal.axes[i].hi),
            )
    # rounding bound: 5e-5 * (1 + 10 + 100 + 1000)
    assert worst <= 0.0556
    # the known worst offenders (cubic rows of the fourth robot)
    r4 = robots.agents[3]
    assert _value(r4.dims[0].upper, 10.0) == pytest.approx(5.031, abs=1e-9)
    assert _value(r4.dims[1].lower, 10.0) == pytest.approx(4.473, abs=1e-9)


def test_serialization_round_trip(tmp_path, drones_table):
    from sttube.tube import load_tubes, save_tubes

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
], ids=[
    "agents-scalar", "no-agents", "agent-scalar", "missing-dims", "no-dims", "ragged-dims",
    "scalar-face", "string-coefficient", "missing-min-width", "missing-horizon",
    "infinite-horizon",
])
def test_tubes_loader_rejects_malformed_fields(edit, message):
    """A malformed tubes file is a ValueError naming the field, not a
    TypeError, KeyError or IndexError."""
    raw = _one_agent_tubes()
    tubes_from_dict(raw)
    edit(raw)
    with pytest.raises(ValueError, match=message):
        tubes_from_dict(raw)
