"""Estimate tube-face Lipschitz constants from sampled slopes.

Repeatedly draws close time pairs, records the block maximum of the
difference quotients, and fits a reverse Weibull distribution whose
location parameter estimates the true slope bound.  Halving the pair
separation while doubling the sample counts drives the estimate to the
analytic value.
"""

from sttube import data_path, load_tubes
from sttube.lipschitz import SlopeSampleConfig, convergence_sweep, estimate_L
from sttube.tube import slope_bounds

tubes = load_tubes(data_path("robots_table.tubes"))
analytic_lower, analytic_upper = slope_bounds(tubes)
print(f"analytic slope bounds: L_L = {analytic_lower:.4f}, L_U = {analytic_upper:.4f}")

cfg = SlopeSampleConfig(alpha=0.01, pair_count=100, repetitions=50, rng_seed=0)
est_lower, est_upper = estimate_L(tubes, cfg)
print(f"estimated (alpha={cfg.alpha}, pairs={cfg.pair_count}, reps={cfg.repetitions}): "
      f"L_L = {est_lower:.4f}, L_U = {est_upper:.4f}")
print(f"relative errors: {abs(est_lower - analytic_lower) / analytic_lower:.2%}, "
      f"{abs(est_upper - analytic_upper) / analytic_upper:.2%}")

print("\nconvergence trend on the steepest face (mean |error| over 20 seeds,")
print("alpha halved and sample counts doubled at each level):")
face = tubes.coeffs[3, 0, 0]  # agent 4, dim 1, lower face
errors = convergence_sweep(face, tubes.horizon, cfg, halvings=3, seeds=range(20))
for level, err in enumerate(errors):
    print(f"  level {level}: alpha = {cfg.alpha / 2**level:.5f}  "
          f"mean |error| = {err:.6f}")
