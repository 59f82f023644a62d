"""One benchmark process: load the inputs of a workload and, unless only
set-up is probed, run one repetition of it through sttube's public API.

    python3 perfbench/worker.py '<job as JSON>'

The job names the mode ("setup" or "rep"), the workload, the seed,
whether to trace, the baseline fingerprints, the ``time.monotonic()`` at
which the parent spawned this process and, for a traced run, where to
write the spans.  The result is one JSON line on standard output.
``run.py`` starts one fresh worker per repetition.
"""

from __future__ import annotations

import dataclasses
import json
import os
import resource
import sys
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# fleet-track: each published tube set under each disturbance kind.
FLEET = (("robots", "uniform"), ("robots", "sinusoidal"), ("drones", "uniform"), ("drones", "sinusoidal"))
TRACK_DT = 1e-3
MARGIN_TOL = 1e-9  # certified_margin may not exceed the baseline by more than this


def import_sttube():
    """Import the package from this checkout's ``src`` and nowhere else."""
    sys.path.insert(0, str(SRC))
    import sttube
    import sttube.sim  # noqa: F401  (module attributes the tracer patches)
    import sttube.verify  # noqa: F401

    if not Path(sttube.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"sttube imported from {sttube.__file__}, not from {SRC}")
    return sttube


def load_inputs(sttube, workload: str) -> dict:
    """Scenario name -> (spec, published tubes or None)."""
    if workload == "mini":
        return {"mini": (sttube.load_scenario(HERE / "mini.scenario"), None)}
    if workload.endswith("-synth"):
        name = workload.removesuffix("-synth")
        return {name: (sttube.load_scenario(sttube.data_path(f"{name}.scenario")), None)}
    return {
        name: (
            sttube.load_scenario(sttube.data_path(f"{name}.scenario")),
            sttube.load_tubes(sttube.data_path(f"{name}_table.tubes")),
        )
        for name in ("robots", "drones")
    }


@dataclasses.dataclass
class Outcome:
    """Operations attempted, each failure with its reason, and measurements."""

    attempted: int = 0
    failures: list = dataclasses.field(default_factory=list)
    values: dict = dataclasses.field(default_factory=dict)
    synthesized: object = None


def run_synth(sttube, spec, out: Outcome, baseline: dict | None, clock) -> None:
    """One synthesize call, timed, then the benchmark's own correctness gate:
    the certificate passes, dense validation at eps/4 passes (re-run here),
    and the certified margin is no worse than the baseline's."""
    synth = sttube.synth
    solve_lp, lp_calls = synth.solve_lp, [0]

    def counted(*args, **kwargs):  # a counter for the fingerprint; no clock
        lp_calls[0] += 1
        return solve_lp(*args, **kwargs)

    synth.solve_lp = counted
    out.attempted += 1
    t0 = clock()
    try:
        res = synth.synthesize(spec)
    except Exception as exc:  # any failure of the operation counts against it
        out.values["op_wall_s"] = clock() - t0
        out.failures.append(f"synthesize raised {type(exc).__name__}: {exc}")
        return
    finally:
        synth.solve_lp = solve_lp
    out.values["op_wall_s"] = out.values["synth_s"] = clock() - t0
    out.synthesized = res
    cert = res.certificate
    out.values["certified_margin"] = cert.margin
    out.values["fingerprint"] = {
        "eta_star": cert.eta_star,
        "margin": cert.margin,
        "iterations": res.iterations,
        "solve_lp_calls": lp_calls[0],
    }
    dense = sttube.validate_tubes(res.tubes, spec, resolution=spec.epsilon / 4.0, tolerance=1e-4)
    if not cert.passed:
        out.failures.append(f"certificate did not pass (margin {cert.margin:+.6f})")
    elif not (res.validation.all_pass and dense.all_pass):
        out.failures.append("dense validation failed:\n" + dense.summary())
    elif baseline is not None and cert.margin > baseline["margin"] + MARGIN_TOL:
        out.failures.append(
            f"certified margin {cert.margin:+.6f} is worse than the baseline "
            f"{baseline['margin']:+.6f}"
        )


def run_tracking(sttube, loops, seed: int, out: Outcome, clock) -> None:
    """Closed loops, each checked by verify_run; a loop fails unless its
    report is all_pass.  Disturbance seeds derive from the workload seed."""
    wall, steps = 0.0, 0
    for k, (spec, tubes, kind) in enumerate(loops):
        gap = sttube.validate_tubes(tubes, spec, resolution=spec.epsilon / 4.0, tolerance=1e-4)
        spec = dataclasses.replace(
            spec, plant=dataclasses.replace(spec.plant, disturbance_kind=kind)
        )
        loop_seed = seed * len(FLEET) + k
        out.attempted += 1
        t0 = clock()
        try:
            trajs = sttube.sim.run_closed_loop(spec, tubes, dt=TRACK_DT, seed=loop_seed)
            report = sttube.verify.verify_run(
                trajs, spec, tubes, min_tube_gap=gap.families["collision"].worst_margin
            )
        except Exception as exc:  # any failure of the operation counts against it
            wall += clock() - t0
            out.failures.append(f"closed loop {kind} seed {loop_seed} raised {type(exc).__name__}: {exc}")
            continue
        wall += clock() - t0
        steps += sum(len(t.times) - 1 for t in trajs)
        margin = min(a.worst_containment_margin for a in report.agents)
        out.values["min_containment_margin"] = min(
            out.values.get("min_containment_margin", margin), margin
        )
        if not report.all_pass:
            out.failures.append(
                f"verify_run not all_pass ({kind}, seed {loop_seed}): {report.failed_checks()}"
            )
    out.values["op_wall_s"] = out.values.get("op_wall_s", 0.0) + wall
    out.values["agent_steps"] = steps
    out.values["track_agent_steps_per_s"] = steps / wall


def run_workload(sttube, workload: str, inputs: dict, seed: int, baselines: dict, clock) -> Outcome:
    out = Outcome()
    if workload == "fleet-track":
        loops = [(inputs[name][0], inputs[name][1], kind) for name, kind in FLEET]
        run_tracking(sttube, loops, seed, out, clock)
        return out
    (spec, _), = inputs.values()
    run_synth(sttube, spec, out, baselines.get(workload), clock)
    if workload == "mini" and out.synthesized is not None:
        # The smoke workload also tracks the tubes it just synthesized.
        run_tracking(sttube, [(spec, out.synthesized.tubes, "uniform")], seed, out, clock)
    return out


def environment(sttube) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "omp_threads": os.environ.get("OMP_NUM_THREADS"),
        "sttube": sttube.__version__,
    }


def main(job: dict) -> dict:
    sttube = import_sttube()
    inputs = load_inputs(sttube, job["workload"])
    setup_wall_s = time.monotonic() - job["spawned_at"]
    # Host speed right after set-up: one warm-up call, then the mean of five.
    speed.kernel()
    probe = speed.SpeedProbe()
    for _ in range(5):
        probe.sample()
    setup = {"setup_wall_s": setup_wall_s, "setup_s": setup_wall_s * probe.scale()}
    if job["mode"] == "setup":
        return setup

    probe = speed.SpeedProbe()
    recorder = None
    if job["trace"]:
        import layers
        from spans import Recorder

        recorder = Recorder(clock=probe.clock)
        layers.install(recorder, sttube)
    try:
        with probe:
            out = run_workload(
                sttube, job["workload"], inputs, job["seed"], job["baselines"], probe.clock
            )
        if recorder is not None and out.synthesized is not None:
            (spec, _), = inputs.values()
            layers.estimate_lipschitz(sttube, spec, out.synthesized, job["seed"])
    finally:
        if recorder is not None:
            recorder.restore()
    result = {
        **setup,
        "op_s": out.values["op_wall_s"] * probe.scale(),
        "probe_samples": len(probe.samples),
        "probe_kernel_ms": 1e3 * speed.NOMINAL_KERNEL_S / probe.scale(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": out.attempted,
        "failures": out.failures,
        "env": environment(sttube),
        **out.values,
    }
    if recorder is not None:
        result["layers"], result["layer_self_s"], result["span_problems"] = layers.summarize(recorder)
        recorder.dump(job["spans_path"])
    return result


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
