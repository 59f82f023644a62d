"""Synthesize certified tubes for the four-robot scenario from scratch.

Walks the full pipeline: sample the horizon and the unsafe set, seed the
separation witnesses from straight-line reference paths, alternate
LP solves with witness refinement, and certify the sampled optimum
against the uncountable constraint system through the Lipschitz margin.
Takes under a second.
"""

from sttube import data_path, load_scenario
from sttube.synth import synthesize
from sttube.tube import save_tubes

spec = load_scenario(data_path("robots.scenario"))
print(f"scenario: {spec.agent_count} agents, horizon {spec.horizon}s, "
      f"epsilon {spec.epsilon}")

result = synthesize(spec)
cert = result.certificate
print(f"solved in {result.iterations} refinement iterations "
      f"({result.lp_solves} LP solves, {result.wall_time:.1f}s)")
print(f"eta* = {cert.eta_star:.4f}")
print(f"slope bounds: L_L = {cert.lipschitz_lower:.4f}, "
      f"L_U = {cert.lipschitz_upper:.4f}, composite L = {cert.lipschitz_composite:.4f}")
print(f"margin = eta* + L*eps = {cert.margin:.4f} "
      f"-> {'CERTIFIED' if cert.passed else 'NOT certified'}")
print()
print("dense validation at eps/4:")
print(result.validation.summary())

save_tubes(result.tubes, "robots_synthesized.tubes")
print("\ntubes written to robots_synthesized.tubes")
