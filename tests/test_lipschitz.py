import numpy as np
import pytest

from sttube.lipschitz import (
    SlopeSampleConfig,
    convergence_sweep,
    estimate_L,
    estimate_face,
    fit_reverse_weibull,
    max_slope_sample,
)
from sttube.tube import TubeFace, slope_bounds


CFG = SlopeSampleConfig(alpha=0.01, pair_count=100, repetitions=50, rng_seed=11)


def test_linear_face_slope_is_exact():
    face = TubeFace((0.0, 2.0))
    rng = np.random.default_rng(0)
    assert max_slope_sample(face, 10.0, CFG, rng) == pytest.approx(2.0, abs=1e-12)
    fit = estimate_face(face, 10.0, CFG)
    assert fit.location == pytest.approx(2.0, abs=1e-12)
    assert fit.method != "mle"


def test_constant_face_slope_is_zero():
    face = TubeFace((1.5,))
    rng = np.random.default_rng(0)
    assert max_slope_sample(face, 10.0, CFG, rng) == 0.0


def test_robot4_sample_bounded_by_analytic(robots_table):
    face = robots_table.agents[3].dims[0].lower
    cfg = SlopeSampleConfig(alpha=1e-3, pair_count=100, repetitions=50, rng_seed=1)
    rng = np.random.default_rng(1)
    psi = max_slope_sample(face, 10.0, cfg, rng)
    assert 0.0 < psi <= 3.9463


def test_fit_recovers_synthetic_parameters():
    rng = np.random.default_rng(3)
    draws = 5.0 - 1.0 * rng.weibull(2.0, size=500)
    fit = fit_reverse_weibull(draws)
    assert fit.location == pytest.approx(5.0, abs=0.1)
    assert fit.scale == pytest.approx(1.0, abs=0.2)
    assert fit.shape == pytest.approx(2.0, abs=0.4)
    assert fit.location >= draws.max()


def test_fit_agrees_with_scipy_reference():
    import scipy.stats  # a runtime dependency: a broken import must fail, not skip
    rng = np.random.default_rng(9)
    draws = 3.0 - 0.5 * rng.weibull(1.5, size=400)
    ours = fit_reverse_weibull(draws)
    shape, loc, scale = scipy.stats.weibull_max.fit(draws)
    assert ours.location == pytest.approx(loc, abs=0.05)


def test_all_equal_samples_degenerate():
    fit = fit_reverse_weibull([2.0] * 20)
    assert fit.location == 2.0
    assert fit.method != "mle"


def test_estimates_match_published_lipschitz(robots_table):
    ll, lu = estimate_L(robots_table, CFG)
    assert ll == pytest.approx(3.9463, rel=0.05)
    assert lu == pytest.approx(3.8711, rel=0.05)


def test_estimates_match_analytic_for_drones(drones_table):
    cfg = SlopeSampleConfig(alpha=0.02, pair_count=100, repetitions=50, rng_seed=4)
    ll, lu = estimate_L(drones_table, cfg)
    a_ll, a_lu = slope_bounds(drones_table)
    assert ll == pytest.approx(a_ll, rel=0.05)
    assert lu == pytest.approx(a_lu, rel=0.05)


def test_sanity_envelope(robots_table):
    """The estimate never exceeds the analytic bound by more than the
    fitted scale."""
    from sttube.lipschitz import estimate_table
    from sttube.tube import analytic_slope_bound

    table = estimate_table(robots_table, CFG)
    for (j, i, side), fit in table.items():
        agent_dim = robots_table.agents[j].dims[i]
        face = agent_dim.lower if side == "lower" else agent_dim.upper
        truth = analytic_slope_bound(face, (0.0, robots_table.horizon))
        assert fit.location <= truth + max(fit.scale, 1e-9)


def test_deterministic_given_seed(robots_table):
    assert estimate_L(robots_table, CFG) == estimate_L(robots_table, CFG)


def test_convergence_trend(robots_table):
    """Halving alpha while doubling the sample counts shrinks the mean
    error against the analytic bound (averaged over seeds)."""
    face = robots_table.agents[3].dims[0].lower
    base = SlopeSampleConfig(alpha=0.01, pair_count=100, repetitions=50, rng_seed=0)
    errors = convergence_sweep(face, 10.0, base, halvings=2, seeds=range(8))
    assert all(errors[k + 1] <= errors[k] for k in range(len(errors) - 1))


def test_config_invariants():
    with pytest.raises(ValueError):
        SlopeSampleConfig(alpha=0.0)
    with pytest.raises(ValueError, match="alpha must be positive"):
        SlopeSampleConfig(alpha=float("nan"))
    with pytest.raises(ValueError, match="alpha must be positive and finite"):
        SlopeSampleConfig(alpha=float("inf"))
    with pytest.raises(ValueError):
        SlopeSampleConfig(alpha=0.1, pair_count=1)
    with pytest.raises(ValueError):
        SlopeSampleConfig(alpha=0.1, repetitions=5)
