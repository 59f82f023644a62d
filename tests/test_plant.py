import math
import random

import numpy as np
import pytest

from sttube.plant import (
    Disturbance,
    PlantStateError,
    dynamics,
    make_custom_plant,
    make_plant,
)
from sttube.scenario import PlantConfig


OMNI = make_plant(PlantConfig(kind="omnidirectional"), scenario_dims=2)
DRONE = make_plant(PlantConfig(kind="drone_chain"), scenario_dims=3)


def test_omni_identity_rotation():
    dx = dynamics(OMNI, (0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 0.0, 0.0), 0.0)
    assert dx == pytest.approx((1.0, 0.0, 0.0), abs=1e-15)


def test_omni_quarter_turn():
    dx = dynamics(OMNI, (0.0, 0.0, math.pi / 2), (1.0, 0.0, 0.0), (0.0,) * 3, 0.0)
    assert dx == pytest.approx((0.0, 1.0, 0.0), abs=1e-15)


def test_drone_pure_integrator():
    state = (0.0, 0.0, 0.0, 0.0, 0.0, 1.0)
    dx = dynamics(DRONE, state, (0.0, 0.0, 0.0), (0.0,) * 6, 0.0)
    assert dx == (0.0, 0.0, 1.0, 0.0, 0.0, 0.0)


def test_custom_chain_matches_builtin_drone():
    eye = np.eye(3)
    custom = make_custom_plant(
        stages=2,
        dims=3,
        f=[lambda xb: np.zeros(3), lambda xb: np.zeros(3)],
        g=[lambda xb: eye, lambda xb: eye],
    )
    state = (0.5, -0.2, 1.0, 0.1, 0.2, 0.3)
    u = (0.4, -0.5, 0.6)
    w = tuple(np.linspace(-0.01, 0.01, 6))
    assert dynamics(custom, state, u, w, 1.0) == pytest.approx(
        dynamics(DRONE, state, u, w, 1.0), abs=1e-15
    )


def test_builtin_derivatives_match_the_written_out_formulas():
    """The compiled derivative lines give, bit for bit, the plants'
    formulas: the omni input rotated by the heading, and the drone chain
    of integrators, each plus its disturbance."""
    rng = random.Random(3)
    for _ in range(200):
        x = [rng.uniform(-4.0, 4.0) for _ in range(6)]
        u = [rng.uniform(-50.0, 50.0) for _ in range(3)]
        w = [rng.uniform(-0.1, 0.1) for _ in range(6)]
        c, s = math.cos(x[2]), math.sin(x[2])
        omni = (c * u[0] - s * u[1] + w[0], s * u[0] + c * u[1] + w[1], u[2] + w[2])
        drone = (x[3] + w[0], x[4] + w[1], x[5] + w[2], u[0] + w[3], u[1] + w[4], u[2] + w[5])
        assert dynamics(OMNI, x[:3], u, w[:3], 0.0) == omni
        assert dynamics(DRONE, x, u, w, 0.0) == drone


def test_nonfinite_state_aborts():
    with pytest.raises(PlantStateError):
        dynamics(OMNI, (float("nan"), 0.0, 0.0), (0.0,) * 3, (0.0,) * 3, 0.0)


CUSTOM = make_custom_plant(
    stages=2, dims=1, f=[lambda xb: np.zeros(1)] * 2, g=[lambda xb: np.eye(1)] * 2
)


@pytest.mark.parametrize("model", [OMNI, DRONE, CUSTOM], ids=lambda m: m.kind)
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_any_nonfinite_component_aborts_with_the_state(model, bad):
    """NaN, +inf or -inf in any single component aborts, and the message
    gives the time and the whole state."""
    n = model.state_dim
    u, w = (0.1,) * model.dims, (0.0,) * n
    for i in range(n):
        state = [0.25] * n
        state[i] = bad
        with pytest.raises(PlantStateError) as err:
            dynamics(model, state, u, w, 1.5)
        assert str(err.value) == f"non-finite state at t=1.5: {tuple(state)}"


def test_finite_state_with_overflowing_sum_does_not_abort():
    """A finite state whose components sum past the float range does not
    abort; infinities of both signs, whose sum is NaN, still do."""
    dx = dynamics(OMNI, (1e308, 1e308, 0.0), (1.0, 0.0, 0.0), (0.0,) * 3, 0.0)
    assert dx == (1.0, 0.0, 0.0)
    big = (1.7e308, 1.7e308, -1.7e308, 1.7e308, 1.7e308, 1.7e308)
    dx = dynamics(DRONE, big, (0.0,) * 3, (0.0,) * 6, 0.0)
    assert dx == (1.7e308, 1.7e308, 1.7e308, 0.0, 0.0, 0.0)
    with pytest.raises(PlantStateError):
        dynamics(DRONE, (math.inf, -math.inf) + (0.0,) * 4, (0.0,) * 3, (0.0,) * 6, 0.0)


def test_builtin_plants_refuse_a_negative_gain_sign():
    """The symmetric part of the omnidirectional input gain is
    diag(cos h, cos h, 1) and the drone chain's input gain is the
    identity: each keeps the eigenvalue 1 at every heading, so neither is
    ever negative definite and g_sign "negative" is refused."""
    for theta in (0.0, 0.3, 1.0, math.pi / 2, 2.0, math.pi):
        c, s = math.cos(theta), math.sin(theta)
        g = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        eig = np.linalg.eigvalsh(0.5 * (g + g.T))
        assert eig == pytest.approx(sorted([c, c, 1.0]), abs=1e-12)
    for kind, dims in (("omnidirectional", 2), ("drone_chain", 3)):
        with pytest.raises(ValueError, match=f"^{kind} plant: g_sign must be positive"):
            make_plant(PlantConfig(kind=kind, g_sign="negative"), dims)
        assert not make_plant(PlantConfig(kind=kind), dims).g_negative_definite


@pytest.mark.parametrize("kind", ["zero", "uniform", "sinusoidal"])
def test_disturbance_respects_bound(kind):
    dist = Disturbance(bound=0.01, kind=kind, seed=3)
    sampler = dist.make_sampler(agent=0, size=6)
    w = sampler(np.arange(200) * 1e-3)
    assert w.shape == (200, 6)
    assert np.all(np.abs(w) <= 0.01 + 1e-15)


def test_disturbance_deterministic_per_agent():
    d = Disturbance(bound=0.01, kind="uniform", seed=5)
    s1 = d.make_sampler(0, 3)
    s2 = Disturbance(bound=0.01, kind="uniform", seed=5).make_sampler(0, 3)
    other = Disturbance(bound=0.01, kind="uniform", seed=5).make_sampler(1, 3)
    a, b, c = (s(np.array([0.0])) for s in (s1, s2, other))
    assert a.tobytes() == b.tobytes()
    assert a.tobytes() != c.tobytes()


@pytest.mark.parametrize("kind", ["uniform", "sinusoidal"])
def test_disturbance_blocks_continue_one_stream(kind):
    """Samples do not depend on how the steps are split into calls: one
    call, uneven blocks and one call per step give the same bytes.  The
    stream is random.Random("seed/agent"): the uniform kind maps its
    values, row-major, to -bound + 2 bound u, and the sinusoid is
    bound * sin(freq t + 2 pi u) with math.sin."""
    dist = Disturbance(bound=0.01, kind=kind, seed=11, frequency=1.3)
    times = np.arange(300) * 1e-3
    whole = dist.make_sampler(2, 6)(times)
    blocks = dist.make_sampler(2, 6)
    edges = ((0, 128), (128, 256), (256, 256), (256, 300))
    split = np.vstack([blocks(times[a:b]) for a, b in edges])
    stepwise = dist.make_sampler(2, 6)
    steps = np.vstack([stepwise(times[k : k + 1]) for k in range(300)])
    assert whole.tobytes() == split.tobytes() == steps.tobytes()
    rng = random.Random("11/2")
    if kind == "sinusoidal":
        phases = [2.0 * math.pi * rng.random() for _ in range(6)]
        expect = [[0.01 * math.sin(1.3 * t + ph) for ph in phases] for t in times.tolist()]
    else:
        expect = [[-0.01 + 0.02 * rng.random() for _ in range(6)] for _ in range(300)]
    assert whole.tobytes() == np.array(expect).tobytes()


def test_disturbance_bound_check_raises(monkeypatch):
    class Loud:
        def __init__(self, seed):
            pass

        def random(self):
            return 2.0

    monkeypatch.setattr(random, "Random", Loud)
    sampler = Disturbance(bound=0.01, kind="uniform").make_sampler(0, 3)
    with pytest.raises(AssertionError, match="exceeds the declared bound"):
        sampler(np.zeros(4))


def test_disturbance_bound_check_rejects_nan(monkeypatch):
    """A NaN sample fails the bound check, which asks every sample to lie
    within the bound rather than none to lie outside it."""
    class Broken:
        def __init__(self, seed):
            pass

        def random(self):
            return math.nan

    monkeypatch.setattr(random, "Random", Broken)
    sampler = Disturbance(bound=0.01, kind="uniform").make_sampler(0, 3)
    with pytest.raises(AssertionError, match="exceeds the declared bound"):
        sampler(np.zeros(4))


@pytest.mark.parametrize("fields,message", [
    ({"bound": -0.01}, "bound must be nonnegative and finite"),
    ({"bound": math.nan}, "bound must be nonnegative and finite"),
    ({"bound": math.inf}, "bound must be nonnegative and finite"),
    ({"bound": 0.01, "seed": -1}, "seed must be a nonnegative integer"),
    ({"bound": 0.01, "seed": 1.0}, "seed must be a nonnegative integer"),
    ({"bound": 0.01, "frequency": math.nan}, "frequency must be finite, not nan"),
    ({"bound": 0.01, "frequency": math.inf}, "frequency must be finite, not inf"),
    ({"bound": 0.01, "frequency": -math.inf}, "frequency must be finite, not -inf"),
], ids=["negative", "nan", "inf", "negative-seed", "float-seed",
        "nan-frequency", "inf-frequency", "minus-inf-frequency"])
def test_disturbance_bound_must_be_nonnegative(fields, message):
    """A bound outside [0, inf), a seed that is not a nonnegative integer
    and a frequency that is not finite are rejected when the disturbance
    is made, not at its first draw (a NaN frequency would draw NaN
    samples, an infinite one fail inside math.sin)."""
    with pytest.raises(ValueError, match=message):
        Disturbance(**fields)


def test_plant_kind_validation():
    with pytest.raises(ValueError):
        make_plant(PlantConfig(kind="omnidirectional"), scenario_dims=3)
    with pytest.raises(ValueError):
        make_plant(PlantConfig(kind="nonsense"), scenario_dims=2)


def test_plant_model_rejects_an_unknown_gain_sign():
    """A misspelt g_sign would build a plant driven as positive definite;
    ``PlantModel`` rejects it with ``PlantConfig``'s message."""
    f, g = (lambda x: np.zeros(1),), (lambda x: np.eye(1),)
    with pytest.raises(ValueError, match="g_sign must be positive or negative, not 'negtive'"):
        make_custom_plant(1, 1, f, g, g_sign="negtive")
    assert make_custom_plant(1, 1, f, g, g_sign="negative").g_negative_definite
