"""End-to-end drone pipeline: synthesize, certify, simulate, verify.

Four drones swap corners of a 3 x 3 x 15 arena while a wall-like unsafe
block spans the middle up to altitude 3; every certified tube climbs
over it.  The drones are two-stage integrator chains, so the controller
cascades the tube stage into an exponentially narrowing velocity funnel.
Takes a few seconds, most of them in the closed-loop simulation.
"""

from sttube import data_path, load_scenario
from sttube.sim import run_closed_loop
from sttube.synth import synthesize, validate_tubes
from sttube.tube import tube_values
from sttube.verify import report_to_text, verify_run

spec = load_scenario(data_path("drones.scenario"))
result = synthesize(spec)
cert = result.certificate
print(f"certified: eta* = {cert.eta_star:.4f}, L = {cert.lipschitz_composite:.3f}, "
      f"margin = {cert.margin:.4f} ({result.wall_time:.0f}s)")

peaks = tube_values(result.tubes, [spec.horizon / 2])[:, 2, 0, 0]
print("mid-horizon altitudes of the tube floors:",
      " ".join(f"{p:.2f}" for p in peaks))

gap = validate_tubes(result.tubes, spec, resolution=0.005).families["collision"]
print(f"worst pairwise tube gap on the dense grid: {gap.worst_margin:+.4f} ({gap.where})")

for kappa in (1.0, 5.0, 10.0):
    trajectories = run_closed_loop(spec, result.tubes, dt=1e-3, seed=11,
                                   kappa=[kappa, kappa])
    report = verify_run(trajectories, spec, result.tubes,
                        min_tube_gap=gap.worst_margin)
    worst = min(a.worst_containment_margin for a in report.agents)
    print(f"kappa={kappa:>4}: {'PASS' if report.all_pass else 'FAIL'} "
          f"(containment margin {worst:.4f}, "
          f"min pairwise distance {report.min_pairwise_distance:.4f})")

print()
print(report_to_text(report))
