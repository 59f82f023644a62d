"""The traced run's layer boundaries: which public ``sttube`` attributes
get timing wrappers, and how the recorded spans become the per-layer
metrics named in ``metrics.PER_LAYER``.

Callers inside the package look these names up as module globals at call
time (``synthesize`` calls ``solve_sop``, ``integrate_agent`` calls
``control_input``), so replacing the module attribute is enough to see
every call without editing the package.
"""

from __future__ import annotations

import numpy as np

from spans import Recorder, nesting_violations, self_times


def _lp_exit(span, args, kwargs, result):
    problem = args[0] if args else kwargs["problem"]
    span.attrs["rows"] = len(problem.ineq_rhs)
    span.attrs["status"] = getattr(result, "status", None)


def _sop_exit(span, args, kwargs, result):
    diag = args[2] if len(args) > 2 else kwargs.get("diagnostics")
    if diag is not None:
        span.attrs["lp_solves"] = diag.lp_solves
        span.attrs["lp_rows"] = diag.lp_rows


def _certify_exit(span, args, kwargs, result):
    if result is not None:
        span.attrs["margin"] = result.margin


def _integrate_exit(span, args, kwargs, result):
    if result is not None:
        span.attrs["clamp_count"] = result.clamp_count


def install(rec: Recorder, sttube) -> None:
    """Wrap every layer boundary the per-layer metrics are computed from."""
    synth, sim = sttube.synth, sttube.sim
    rec.span(synth, "synthesize", "synth.synthesize")
    rec.span(synth, "sample_unsafe", "sampling.sample_unsafe")
    rec.span(synth, "build_sop", "synth.build_sop")
    rec.span(synth, "seed_assignment", "synth.seed_assignment")
    rec.span(synth, "solve_sop", "synth.solve_sop", _sop_exit)
    rec.span(synth, "solve_lp", "lp.solve_lp", _lp_exit)
    rec.span(synth, "refine_assignment", "synth.refine_assignment")
    rec.span(synth, "certify", "synth.certify", _certify_exit)
    rec.span(synth, "validate_tubes", "synth.validate_tubes")
    rec.span(sttube.lipschitz, "estimate_L", "lipschitz.estimate_L")
    rec.span(sim, "run_closed_loop", "sim.run_closed_loop")
    rec.span(sim, "integrate_agent", "sim.integrate_agent", _integrate_exit)
    rec.aggregate(sim, "control_input", "control.control_input")
    rec.aggregate(sim, "dynamics", "plant.dynamics")
    rec.span(sttube.verify, "verify_run", "verify.verify_run")


def estimate_lipschitz(sttube, spec, result, seed: int) -> None:
    """Certify the synthesized tubes a second time with the estimated
    Lipschitz constant.  Runs in the traced run only, after the timed
    operation, so it shows as ``lipschitz.estimate_L_s`` and nowhere else."""
    from sttube.lipschitz import SlopeSampleConfig

    cfg = SlopeSampleConfig(alpha=spec.horizon / 1000.0, rng_seed=seed)
    sttube.synth.certify(
        result.certificate.eta_star, result.tubes, spec.epsilon,
        lipschitz_source="estimated", slope_cfg=cfg,
    )


def _pct(values, q: float, scale: float = 1.0) -> float:
    return float(np.percentile(values, q)) * scale if len(values) else 0.0


def summarize(rec: Recorder) -> tuple[dict, dict, list[str]]:
    """Per-layer metrics from the recorded spans, the self time of each
    layer (hot calls included), and any problem with the span nesting."""
    records = rec.records()
    own = self_times(records)
    by_id = {r["id"]: r for r in records}

    def named(name, parent=None):
        return [
            r for r in records
            if r["name"] == name
            and (parent is None or by_id.get(r["parent"], {}).get("name") == parent)
        ]

    def total(name, parent=None):
        return sum(r["end"] - r["start"] for r in named(name, parent))

    def self_total(name):
        return sum(own[r["id"]] for r in named(name))

    sop = named("synth.solve_sop")
    lp = named("lp.solve_lp")
    lp_ms = [1e3 * (r["end"] - r["start"]) for r in lp]
    lp_rows = [r["attrs"]["rows"] for r in lp]
    refine = named("synth.refine_assignment")
    margins = [r["attrs"]["margin"] for r in named("synth.certify", "synth.synthesize")
               if "margin" in r["attrs"]]
    improved = sum(b < a for a, b in zip(margins, margins[1:]))
    integrate = named("sim.integrate_agent")
    ctl = rec.hot["control.control_input"]
    dyn = rec.hot["plant.dynamics"]
    m = {
        "sampling.sample_unsafe_s": total("sampling.sample_unsafe"),
        "synth.build_sop_s": total("synth.build_sop"),
        "synth.seed_assignment_s": total("synth.seed_assignment"),
        "synth.solve_sop.calls": len(sop),
        "synth.solve_sop.self_s": self_total("synth.solve_sop"),
        "synth.solve_sop.lp_rounds": sum(r["attrs"].get("lp_solves", 0) for r in sop),
        "synth.solve_sop.max_rows": max((r["attrs"].get("lp_rows", 0) for r in sop), default=0),
        "lp.solve_lp.calls": len(lp),
        "lp.solve_lp_s": self_total("lp.solve_lp"),
        "lp.solve_lp.call_ms_p50": _pct(lp_ms, 50),
        "lp.solve_lp.call_ms_p95": _pct(lp_ms, 95),
        "lp.solve_lp.rows_p50": _pct(lp_rows, 50),
        "lp.solve_lp.rows_max": max(lp_rows, default=0),
        "lp.solve_lp.errors": sum(
            r["error"] is not None or r["attrs"]["status"] != "optimal" for r in lp
        ),
        "synth.refine_assignment.calls": len(refine),
        "synth.refine_assignment.self_s": self_total("synth.refine_assignment"),
        "synth.refine_assignment.candidate_solves": len(
            named("synth.solve_sop", "synth.refine_assignment")
        ),
        "synth.refine_assignment.scoring_lps": len(
            named("lp.solve_lp", "synth.refine_assignment")
        ),
        "synth.refine_assignment.failed_candidates": sum(
            r["error"] is not None
            for r in named("synth.solve_sop", "synth.refine_assignment")
        ),
        "synth.refine_assignment.improved_ratio": improved / len(refine) if refine else 0.0,
        "synth.iterations": len(named("synth.solve_sop", "synth.synthesize")),
        "synth.certify_s": total("synth.certify", "synth.synthesize"),
        "synth.validate_tubes_s": total("synth.validate_tubes", "synth.synthesize"),
        "lipschitz.estimate_L_s": total("lipschitz.estimate_L"),
        "sim.integrate_agent.calls": len(integrate),
        "sim.integrate_agent.self_s": self_total("sim.integrate_agent"),
        "control.control_input.calls": ctl.calls,
        "control.control_input_s": ctl.total_s,
        "control.control_input.call_us_p50": _pct(ctl.durations, 50, 1e6),
        "control.control_input.call_us_p99": _pct(ctl.durations, 99, 1e6),
        "plant.dynamics.calls": dyn.calls,
        "plant.dynamics_s": dyn.total_s,
        "sim.clamp_count": sum(r["attrs"].get("clamp_count", 0) for r in integrate),
        "verify.verify_run_s": total("verify.verify_run"),
    }
    layer_self = {name: self_total(name) for name in {r["name"] for r in records}}
    layer_self.update({name: h.total_s for name, h in rec.hot.items()})
    return m, layer_self, nesting_violations(records)
