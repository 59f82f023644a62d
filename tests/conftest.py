import pytest

from sttube import data_path, load_scenario, load_tubes
from sttube.scenario import scenario_from_dict
from sttube.synth import synthesize


@pytest.fixture(scope="session")
def robots_spec():
    return load_scenario(data_path("robots.scenario"))


@pytest.fixture(scope="session")
def drones_spec():
    return load_scenario(data_path("drones.scenario"))


@pytest.fixture(scope="session")
def moving_bar_spec():
    """The shipped moving-bar scenario: the bar at speed 2, epsilon 0.01."""
    return load_scenario(data_path("moving_bar.scenario"))


@pytest.fixture(scope="session")
def robots_table():
    """Published tube coefficients for the four-robot case."""
    return load_tubes(data_path("robots_table.tubes"))


@pytest.fixture(scope="session")
def drones_table():
    """Published tube coefficients for the four-drone case."""
    return load_tubes(data_path("drones_table.tubes"))


@pytest.fixture(scope="session")
def mini_spec():
    """Two agents swapping sides around one static obstacle; small enough
    that synthesis takes a couple of seconds."""
    return scenario_from_dict(
        {
            "dims": 2,
            "horizon": 4.0,
            "epsilon": 0.01,
            "arena": [[0.0, 6.0], [0.0, 6.0]],
            "agents": [
                {
                    "name": "left",
                    "start": [[0.0, 1.0], [2.5, 3.5]],
                    "goal": [[5.0, 6.0], [2.5, 3.5]],
                    "tube_degree": [2, 2],
                    "min_width": [0.4, 0.4],
                },
                {
                    "name": "right",
                    "start": [[5.0, 6.0], [2.5, 3.5]],
                    "goal": [[0.0, 1.0], [2.5, 3.5]],
                    "tube_degree": [2, 2],
                    "min_width": [0.4, 0.4],
                },
            ],
            "obstacles": [
                {"interpolation": "static", "keyframes": [[0.0, [[2.7, 3.3], [2.7, 3.3]]]]}
            ],
        }
    )


def _moving_bar(v: float, epsilon: float) -> dict:
    """One agent crossing a corridor that a bar x [2, 4] sweeps across at
    speed ``v``, from y [0, 0.5] to y [5.5, 6] around t = 2 (the shipped
    ``moving_bar.scenario`` is v 2 at epsilon 0.01)."""
    t_a = 2.0 - 2.75 / v + 0.013
    low, high = [[2.0, 4.0], [0.0, 0.5]], [[2.0, 4.0], [5.5, 6.0]]
    return {
        "dims": 2, "horizon": 4.0, "epsilon": epsilon,
        "arena": [[0.0, 6.0], [0.0, 6.0]],
        "agents": [{"start": [[0.0, 1.0], [2.5, 3.5]], "goal": [[5.0, 6.0], [2.5, 3.5]],
                    "tube_degree": [3, 3], "min_width": [0.3, 0.3]}],
        "obstacles": [{"interpolation": "piecewise-linear", "keyframes": [
            [0.0, low], [t_a, low], [t_a + 5.5 / v, high], [4.0, high],
        ]}],
    }


@pytest.fixture(scope="session")
def moving_bar():
    """The bar scenario of a given speed and epsilon, as a JSON dict."""
    return _moving_bar


@pytest.fixture(scope="session")
def sweeping_bar():
    """The bar at speed 20 and epsilon 0.1.  Without the bar's speed in
    the certificate, the analytic certificate passes (margin -0.0687)
    while the eps/4 dense validation puts the tube inside the bar at
    t = 2.1."""
    return _moving_bar(20.0, 0.1)


@pytest.fixture(scope="session")
def robots_result(robots_spec):
    """Synthesized + certified tubes for the robot scenario (run once)."""
    return synthesize(robots_spec)


@pytest.fixture(scope="session")
def drones_result(drones_spec):
    """Synthesized + certified tubes for the drone scenario (run once)."""
    return synthesize(drones_spec)


@pytest.fixture(scope="session")
def mini_result(mini_spec):
    return synthesize(mini_spec)
