"""Finite sample sets covering time and the augmented unsafe set.

The time grid places samples at spacing <= 2*epsilon so every t in
[0, t_c] lies within epsilon of a sample.  Box obstacles are never
sampled volumetrically: separating an axis-aligned tube box from an
axis-aligned obstacle box only ever needs the obstacle's per-dimension
extreme faces, so per time sample we record the interpolated box itself
(its two extreme corners carry all 2n face values).  This reduction is
exact, which is what keeps small epsilon tractable.  Every unsafe set is
an axis-aligned box (possibly moving), so no volumetric cover is needed.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .scenario import ScenarioSpec, unsafe_box_at, unsafe_bounds


@dataclass(frozen=True)
class SampleSet:
    """Time samples plus the unsafe boxes at each of them.

    ``obstacle_bounds[r, region, i]`` holds the lo/hi bounds in dim i of
    that region's box at time sample r (exact face reduction).
    """

    epsilon: float
    time_samples: np.ndarray
    obstacle_bounds: np.ndarray  # (n_t, regions, n, 2)


def sample_time_grid(t_c: float, epsilon: float) -> np.ndarray:
    """Uniform grid over [0, t_c] with spacing <= 2*epsilon.

    N_t = ceil(t_c / (2 epsilon)) + 1.  When epsilon >= t_c a single
    midpoint sample already covers the horizon; that degenerate grid is
    returned with a warning.
    """
    if not 0 < epsilon < math.inf:
        raise ValueError("epsilon must be positive and finite")
    if epsilon >= t_c:
        warnings.warn(
            f"epsilon {epsilon:g} >= horizon {t_c:g}: "
            "degenerate single-sample grid",
            stacklevel=2,
        )
        return np.array([0.5 * t_c])
    n_t = math.ceil(t_c / (2.0 * epsilon)) + 1
    return np.linspace(0.0, t_c, n_t)


def obstacle_bounds(spec: ScenarioSpec, times) -> np.ndarray:
    """Bounds of every unsafe region at every time: (T, regions, n, 2)."""
    out = np.empty((len(times), len(spec.obstacles), spec.dims, 2))
    for r, region in enumerate(spec.obstacles):
        out[:, r] = unsafe_bounds(region, times, spec.horizon)
    return out


def sample_unsafe(spec: ScenarioSpec) -> SampleSet:
    """Build the sample set for a scenario: the time grid plus, per time
    sample, the exact axis-aligned box of every unsafe region."""
    times = sample_time_grid(spec.horizon, spec.epsilon)
    return SampleSet(
        epsilon=spec.epsilon,
        time_samples=times,
        obstacle_bounds=obstacle_bounds(spec, times),
    )


def verify_cover(
    samples: SampleSet, spec: ScenarioSpec, grid_resolution: float
) -> tuple[bool, float]:
    """Dense-grid audit of the epsilon cover.

    Checks that every grid time over [0, t_c] is within epsilon of a time
    sample, and re-derives each stored unsafe box, requiring an exact
    match.  Returns (ok, worst observed gap).
    """
    if not 0.0 < grid_resolution < math.inf:
        raise ValueError(f"grid resolution must be positive and finite, got {grid_resolution:g}")
    if grid_resolution >= samples.epsilon:
        raise ValueError("grid resolution must be finer than epsilon")
    eps = samples.epsilon
    n_grid = int(math.ceil(spec.horizon / grid_resolution)) + 1
    grid = np.linspace(0.0, spec.horizon, n_grid)
    ts = np.sort(np.asarray(samples.time_samples))
    idx = np.searchsorted(ts, grid)
    idx_lo = np.clip(idx - 1, 0, len(ts) - 1)
    idx_hi = np.clip(idx, 0, len(ts) - 1)
    time_gap = np.minimum(np.abs(grid - ts[idx_lo]), np.abs(grid - ts[idx_hi]))
    worst = float(time_gap.max())
    slack = eps * (1.0 + 1e-12) + 1e-15  # the worst gap can equal eps exactly
    ok = worst <= slack
    for t, per_t in zip(samples.time_samples, samples.obstacle_bounds):
        for region, bounds in zip(spec.obstacles, per_t):
            truth = unsafe_box_at(region, float(t), spec.horizon)
            if bounds.tolist() != truth.tolist():
                return False, worst
    return ok, worst
