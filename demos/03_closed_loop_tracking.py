"""Drive the four robots through the published tubes.

The controller is closed-form and decentralized: each robot sees only
its own pose and its own tube walls.  The plant (an omnidirectional
base whose input is rotated by the heading) is unknown to the
controller; a bounded random disturbance acts on every state.
"""

import numpy as np

from sttube import data_path, load_scenario, load_tubes
from sttube.plant import make_plant
from sttube.sim import input_series, run_closed_loop, stage1_error_series
from sttube.synth import validate_tubes
from sttube.verify import report_to_text, verify_run

spec = load_scenario(data_path("robots.scenario"))
tubes = load_tubes(data_path("robots_table.tubes"))

plant = make_plant(spec.plant, spec.dims)
trajectories = run_closed_loop(spec, tubes, dt=1e-3, seed=11, plant=plant)
for traj in trajectories:
    e_max = float(np.abs(stage1_error_series(traj, tubes, plant)).max())
    u_max = float(np.abs(input_series(traj, tubes, plant)).max())
    print(f"{spec.agents[traj.agent].name}: {len(traj.states)} steps, max |normalized error| "
          f"{e_max:.3f}, max |u| {u_max:.3f}, guard clamps {traj.clamp_count}, "
          f"final position ({traj.final_state[0]:.3f}, {traj.final_state[1]:.3f})")

gap = validate_tubes(tubes, spec, resolution=0.005).families["collision"].worst_margin
report = verify_run(trajectories, spec, tubes, min_tube_gap=gap)
print()
print(report_to_text(report))
