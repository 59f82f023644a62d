"""Data-driven Lipschitz-constant estimation for tube faces.

The estimator samples difference quotients of a face over random close
time pairs, takes the maximum per repetition, and fits a reverse Weibull
(Weibull-max) distribution to the repetition maxima.  The fitted location
parameter -- the distribution's upper endpoint -- is the Lipschitz
estimate.  Estimates tend to the true slope bounds as the pair separation
shrinks and the sample counts grow.

The three-parameter fit maximizes the profile likelihood over the
location, constrained above the sample maximum; for each candidate
location the shape solves the standard Weibull score equation by
safeguarded Newton and the scale follows in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .tube import TubeFace, TubeSet, analytic_slope_bound, polyval


@dataclass(frozen=True)
class SlopeSampleConfig:
    """Sampling plan: pair separation alpha, pairs per block, repetitions."""

    alpha: float
    pair_count: int = 100
    repetitions: int = 50
    rng_seed: int = 0

    def __post_init__(self):
        if not 0 < self.alpha < math.inf:
            raise ValueError("alpha must be positive and finite")
        if self.pair_count < 2:
            raise ValueError("need at least two pairs per repetition")
        if self.repetitions < 10:
            raise ValueError("need at least ten repetitions")


@dataclass(frozen=True)
class WeibullFit:
    """Reverse-Weibull parameters; location is the Lipschitz estimate."""

    location: float
    scale: float
    shape: float
    log_likelihood: float
    method: str = "mle"  # mle | degenerate | max-fallback


def max_slope_sample(
    face: TubeFace,
    horizon: float,
    cfg: SlopeSampleConfig,
    rng: np.random.Generator | None = None,
) -> float:
    """One repetition: max |difference quotient| over pair_count close pairs."""
    if rng is None:
        rng = np.random.default_rng(cfg.rng_seed)
    t_k = rng.uniform(0.0, horizon, cfg.pair_count)
    t_m = np.clip(t_k + rng.uniform(-cfg.alpha, cfg.alpha, cfg.pair_count), 0.0, horizon)
    gap = np.abs(t_k - t_m)
    # Degenerate pairs (t_k == t_m after clipping) are redrawn.
    while True:
        bad = gap < 1e-14
        if not bad.any():
            break
        t_m[bad] = np.clip(
            t_k[bad] + rng.uniform(-cfg.alpha, cfg.alpha, int(bad.sum())),
            0.0,
            horizon,
        )
        gap = np.abs(t_k - t_m)
    slopes = np.abs(polyval(face.coeffs, t_k) - polyval(face.coeffs, t_m)) / gap
    return float(slopes.max())


def _weibull_shape(logz: np.ndarray) -> float:
    """Solve the Weibull score equation for the shape, given log-samples.

    Newton iteration with a bisection safeguard; the score function is
    monotone in the shape, so the bracket [1e-2, 1e3] always contains the
    root when one exists.  Powers are evaluated in log space so large
    shapes never overflow.
    """
    mean_logz = logz.mean()

    def moments(c: float) -> tuple[float, float, float]:
        w = c * logz
        e = np.exp(w - w.max())
        s0 = e.sum()
        return s0, float((logz * e).sum() / s0), float((logz**2 * e).sum() / s0)

    def score(c: float) -> float:
        _, m1, _ = moments(c)
        return m1 - 1.0 / c - mean_logz

    lo, hi = 1e-2, 1e3
    if score(lo) > 0.0:
        return lo
    if score(hi) < 0.0:
        return hi
    c = 1.0
    for _ in range(100):
        s = score(c)
        if abs(s) < 1e-12:
            break
        if s > 0.0:
            hi = c
        else:
            lo = c
        _, m1, m2 = moments(c)
        d = m2 - m1**2 + 1.0 / c**2
        step = c - s / d if d > 0 else None
        c = step if step is not None and lo < step < hi else 0.5 * (lo + hi)
    return float(c)


def _profile_loglik(a: float, x: np.ndarray) -> tuple[float, float, float]:
    """(log-likelihood, scale, shape) at location a > max(x).

    At the profiled scale the sum of (z/b)^c equals the sample count
    exactly, so the likelihood reduces to closed form.
    """
    logz = np.log(a - x)
    c = _weibull_shape(logz)
    r = x.size
    w = c * logz
    m = w.max()
    log_b = (m + math.log(float(np.exp(w - m).sum()) / r)) / c
    ll = r * math.log(c) - r * c * log_b + (c - 1.0) * float(logz.sum()) - r
    return ll, math.exp(log_b), c


def fit_reverse_weibull(maxima) -> WeibullFit:
    """Three-parameter reverse-Weibull MLE over repetition maxima.

    The location is constrained above the sample maximum.  When the
    profile likelihood diverges at the boundary (shape below one) or the
    search fails, the sample maximum is returned with a conservative
    method flag; all-equal samples short-circuit to a degenerate fit.
    """
    x = np.asarray(maxima, dtype=float)
    if x.size < 2:
        raise ValueError("need at least two maxima to fit")
    x_max = float(x.max())
    span = float(x.max() - x.min())
    if span == 0.0:
        return WeibullFit(
            location=x_max, scale=0.0, shape=0.0,
            log_likelihood=float("inf"), method="degenerate",
        )

    offsets = span * np.logspace(-4.0, 1.0, 48)
    lls = np.array([_profile_loglik(x_max + d, x)[0] for d in offsets])
    if not np.isfinite(lls).any():
        return WeibullFit(
            location=x_max, scale=span, shape=1.0,
            log_likelihood=float("-inf"), method="max-fallback",
        )
    best = int(np.nanargmax(lls))
    if best == 0:
        # Boundary spike: the likelihood grows without bound as the
        # location approaches the sample maximum.  Report the maximum.
        ll, b, c = _profile_loglik(x_max + offsets[0], x)
        return WeibullFit(
            location=x_max, scale=b, shape=c,
            log_likelihood=ll, method="max-fallback",
        )
    lo = offsets[max(0, best - 1)]
    hi = offsets[min(len(offsets) - 1, best + 1)]
    # Golden-section ascent on log-offset within the bracketing interval.
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    u_lo, u_hi = math.log(lo), math.log(hi)
    u1 = u_hi - phi * (u_hi - u_lo)
    u2 = u_lo + phi * (u_hi - u_lo)
    f1 = _profile_loglik(x_max + math.exp(u1), x)[0]
    f2 = _profile_loglik(x_max + math.exp(u2), x)[0]
    for _ in range(80):
        if f1 < f2:
            u_lo, u1, f1 = u1, u2, f2
            u2 = u_lo + phi * (u_hi - u_lo)
            f2 = _profile_loglik(x_max + math.exp(u2), x)[0]
        else:
            u_hi, u2, f2 = u2, u1, f1
            u1 = u_hi - phi * (u_hi - u_lo)
            f1 = _profile_loglik(x_max + math.exp(u1), x)[0]
        if u_hi - u_lo < 1e-12:
            break
    a = x_max + math.exp(0.5 * (u_lo + u_hi))
    ll, b, c = _profile_loglik(a, x)
    return WeibullFit(location=a, scale=b, shape=c, log_likelihood=ll)


def estimate_face(
    face: TubeFace,
    horizon: float,
    cfg: SlopeSampleConfig,
    seed_key: tuple[int, ...] = (),
) -> WeibullFit:
    """Run the repetition loop on one face and fit the maxima."""
    ss = np.random.SeedSequence(entropy=cfg.rng_seed, spawn_key=seed_key)
    rng = np.random.default_rng(ss)
    maxima = [
        max_slope_sample(face, horizon, cfg, rng) for _ in range(cfg.repetitions)
    ]
    return fit_reverse_weibull(maxima)


def estimate_L(tubes: TubeSet, cfg: SlopeSampleConfig) -> tuple[float, float]:
    """(L_lower, L_upper): max fitted location over all faces per side."""
    return side_maxima(estimate_table(tubes, cfg))


def side_maxima(table: dict[tuple[int, int, str], WeibullFit]) -> tuple[float, float]:
    """(L_lower, L_upper) of an ``estimate_table``: the largest fitted
    location over the faces of each side."""
    return tuple(
        max(fit.location for (_, _, s), fit in table.items() if s == side)
        for side in ("lower", "upper")
    )


def estimate_table(
    tubes: TubeSet, cfg: SlopeSampleConfig
) -> dict[tuple[int, int, str], WeibullFit]:
    """Per-face fits keyed by (agent, dim, side); deterministic in the seed."""
    return {
        (j, i, side): estimate_face(
            face, tubes.horizon, cfg, seed_key=(j, i, 0 if side == "lower" else 1)
        )
        for j, i, side, face in tubes.faces()
    }


def convergence_sweep(
    face: TubeFace,
    horizon: float,
    base: SlopeSampleConfig,
    halvings: int,
    seeds,
) -> np.ndarray:
    """Mean |estimate - analytic bound| per refinement level.

    Level k halves alpha k times while doubling pair count and
    repetitions; the mean is over the given seeds.
    """
    truth = analytic_slope_bound(face, (0.0, horizon))
    errors = np.zeros(halvings + 1)
    for k in range(halvings + 1):
        cfg_k = SlopeSampleConfig(
            alpha=base.alpha / (2**k),
            pair_count=base.pair_count * (2**k),
            repetitions=base.repetitions * (2**k),
            rng_seed=base.rng_seed,
        )
        errs = []
        for seed in seeds:
            fit = estimate_face(face, horizon, replace(cfg_k, rng_seed=int(seed)))
            errs.append(abs(fit.location - truth))
        errors[k] = float(np.mean(errs))
    return errors
