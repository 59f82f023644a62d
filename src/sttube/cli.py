"""Command-line pipeline: synth, simulate, lipschitz.

Exit codes: 0 success, 1 usage or input error, 2 synthesis failure,
3 verification failure.  Every command writes a run manifest capturing
inputs, flags, seeds, and outputs, sufficient to reproduce the run.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .control import ControllerIntegrityError
from .lipschitz import SlopeSampleConfig, convergence_sweep, estimate_table, side_maxima
from .plant import make_plant
from .scenario import ScenarioError, load_scenario
from .sim import run_closed_loop, write_trajectories_csv
from .synth import (
    SynthesisError,
    SynthesisFailure,
    SynthesisInfeasible,
    composite_lipschitz,
    save_certificate,
    synthesize,
    validate_tubes,
)
from .tube import FACE_SIDES, analytic_slope_bound, load_tubes, save_tubes, slope_bounds
from .verify import report_to_text, save_report, verify_run, write_json

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_SYNTH = 2
EXIT_VERIFY = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def write_manifest(
    path: Path, command: str, args: dict, outputs: dict, wall: float, run: dict | None = None
) -> None:
    manifest = {
        "command": command,
        "version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "arguments": args,
        "outputs": outputs,
        "wall_time_s": wall,
    }
    if run is not None:
        manifest["run"] = run
    write_json(manifest, path)


def cmd_synth(args) -> int:
    t0 = time.perf_counter()
    try:
        spec = load_scenario(args.scenario)
        if args.epsilon is not None:
            spec = replace(spec, epsilon=args.epsilon)
        if args.degree is not None and args.degree < 0:
            raise ValueError("tube degrees must be nonnegative")
    except (OSError, ValueError) as exc:  # ScenarioError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    stem = Path(args.scenario).stem
    try:
        result = synthesize(spec, degree_override=args.degree)
    except (SynthesisError, SynthesisInfeasible, SynthesisFailure) as exc:
        print(f"synthesis failed: {exc}", file=sys.stderr)
        return EXIT_SYNTH
    cert = result.certificate
    out = Path(args.out)  # made only once there is something to write
    out.mkdir(parents=True, exist_ok=True)
    tubes_path = out / f"{stem}.tubes"
    cert_path = out / f"{stem}.cert.json"
    save_tubes(result.tubes, tubes_path)
    save_certificate(cert, cert_path)
    wall = time.perf_counter() - t0
    print(
        f"eta_star={cert.eta_star:.6f}  at_eta_floor={'yes' if result.at_eta_floor else 'no'}  "
        f"L_L={cert.lipschitz_lower:.4f}  L_U={cert.lipschitz_upper:.4f}  "
        f"L={cert.lipschitz_composite:.4f}  epsilon={cert.epsilon:g}"
    )
    print(
        f"margin={cert.margin:.6f}  certified={'yes' if cert.passed else 'NO'}  "
        f"iterations={result.iterations}  lp_solves={result.lp_solves}  "
        f"candidates={result.candidates}  pruned={result.pruned}  "
        f"lp_reused={result.lp_reused}  wall={wall:.1f}s"
    )
    print(result.validation.summary())
    write_manifest(
        out / f"{stem}.synth.manifest.json",
        "synth",
        {"scenario": str(args.scenario), "epsilon": args.epsilon, "degree": args.degree},
        {
            "tubes": str(tubes_path),
            "certificate": str(cert_path),
            "iterations": result.iterations,
            "lp_solves": result.lp_solves,
            "candidates": result.candidates,
            "pruned": result.pruned,
            "lp_reused": result.lp_reused,
            "eta_star": cert.eta_star,
            "at_eta_floor": result.at_eta_floor,
            "margin": cert.margin,
        },
        wall,
    )
    return EXIT_OK if cert.passed else EXIT_SYNTH


def cmd_simulate(args) -> int:
    t0 = time.perf_counter()
    try:
        spec = load_scenario(args.scenario)
        tubes = load_tubes(args.tubes)
    except (ScenarioError, OSError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    cert_path = Path(args.certificate) if args.certificate else Path(
        args.tubes
    ).with_suffix(".cert.json")
    if not args.force:
        if not cert_path.exists():
            print(
                f"error: no certificate at {cert_path}; pass --certificate or --force",
                file=sys.stderr,
            )
            return EXIT_USAGE
        try:
            cert = json.loads(cert_path.read_text())
            if not isinstance(cert, dict):
                raise ValueError("not a JSON object")
            passed = cert.get("passed", False)
            if not isinstance(passed, bool):
                raise ValueError(f'"passed" is {json.dumps(passed)}, not true or false')
        except (OSError, ValueError) as exc:
            print(f"error: certificate {cert_path}: {exc}", file=sys.stderr)
            return EXIT_USAGE
        if not passed:
            print("error: certificate did not pass; use --force to simulate anyway",
                  file=sys.stderr)
            return EXIT_USAGE
    stem = Path(args.scenario).stem
    kappa = [args.kappa] if args.kappa is not None else None
    try:
        plant = make_plant(spec.plant, spec.dims)
        trajs = run_closed_loop(
            spec, tubes, dt=args.dt, seed=args.seed, kappa=kappa, plant=plant
        )
    except ControllerIntegrityError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except ValueError as exc:  # a gain, step or tube the closed loop cannot set up
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    validation = validate_tubes(tubes, spec, resolution=spec.epsilon / 4.0, tolerance=1e-4)
    report = verify_run(
        trajs, spec, tubes,
        min_tube_gap=validation.families["collision"].worst_margin,
    )
    out = Path(args.out)  # made only once there is something to write
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / f"{stem}.trajectories.csv"
    report_path = out / f"{stem}.verify.json"
    write_trajectories_csv(trajs, csv_path, tubes, plant)
    save_report(report, report_path)
    wall = time.perf_counter() - t0
    print(report_to_text(report))
    write_manifest(
        out / f"{stem}.simulate.manifest.json",
        "simulate",
        {
            "scenario": str(args.scenario),
            "tubes": str(args.tubes),
            "certificate": args.certificate,
            "dt": args.dt,
            "kappa": args.kappa,
            "seed": args.seed,
            "force": args.force,
        },
        {"trajectories": str(csv_path), "report": str(report_path)},
        wall,
        {
            "agents": [
                {
                    "name": spec.agents[traj.agent].name,
                    "steps": len(traj.states) - 1,
                    "clamp_count": traj.clamp_count,
                    "aborted": traj.aborted,
                    "worst_containment_margin": check.worst_containment_margin,
                }
                for traj, check in zip(trajs, report.agents)
            ],
            "sampling_robustness": report.sampling_robustness,
        },
    )
    if not report.all_pass:
        for line in report.failed_checks():
            print(f"failed: {line}", file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


def cmd_lipschitz(args) -> int:
    t0 = time.perf_counter()
    try:
        tubes = load_tubes(args.tubes)
    except (OSError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    alpha = args.alpha if args.alpha is not None else tubes.horizon / 1000.0
    try:
        cfg = SlopeSampleConfig(
            alpha=alpha,
            pair_count=args.pairs,
            repetitions=args.reps,
            rng_seed=args.seed,
        )
        if args.trend < 0:
            raise ValueError("trend must be a nonnegative number of halvings")
        table = estimate_table(tubes, cfg)
        if args.trend:
            rows = tubes.coeffs.reshape(-1, tubes.coeffs.shape[-1])
            bounds = [analytic_slope_bound(row, (0.0, tubes.horizon)) for row in rows]
            errors = convergence_sweep(
                rows[np.argmax(bounds)], tubes.horizon, cfg, halvings=args.trend, seeds=range(10)
            )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(f"{'agent':>6} {'dim':>4} {'side':>6} {'location':>10} {'scale':>9} "
          f"{'shape':>8}  method")
    for (j, i, s), fit in np.ndenumerate(table):
        print(
            f"{j + 1:>6} {i + 1:>4} {FACE_SIDES[s]:>6} {fit.location:>10.4f} "
            f"{fit.scale:>9.4f} {fit.shape:>8.3f}  {fit.method}"
        )
    l_lower, l_upper = side_maxima(table)
    l_comp = composite_lipschitz(l_lower, l_upper)
    a_lower, a_upper = slope_bounds(tubes)
    print(f"L_L={l_lower:.4f}  L_U={l_upper:.4f}  L={l_comp:.4f}")
    print(f"analytic slope bounds: L_L={a_lower:.4f}  L_U={a_upper:.4f}")
    if args.trend:
        print("convergence trend (mean |error| per refinement):",
              " ".join(f"{e:.5f}" for e in errors))
    wall = time.perf_counter() - t0
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        write_manifest(
            out / (Path(args.tubes).stem + ".lipschitz.manifest.json"),
            "lipschitz",
            {"tubes": str(args.tubes), "alpha": alpha, "pairs": args.pairs,
             "reps": args.reps, "seed": args.seed, "trend": args.trend},
            {},
            wall,
        )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="sttube", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="synthesize and certify tubes for a scenario")
    p.add_argument("scenario")
    p.add_argument("--epsilon", type=float, default=None,
                   help="override the scenario's covering radius")
    p.add_argument("--degree", type=int, default=None,
                   help="override every agent's polynomial degree")
    p.add_argument("--out", default=".", help="output directory")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("simulate", help="closed-loop run with recorded trajectories")
    p.add_argument("scenario")
    p.add_argument("tubes")
    p.add_argument("--certificate", default=None)
    p.add_argument("--force", action="store_true",
                   help="simulate without a passing certificate")
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument("--kappa", type=float, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=".", help="output directory")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("lipschitz", help="data-driven slope estimates for a tube file")
    p.add_argument("tubes")
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--pairs", type=int, default=100)
    p.add_argument("--reps", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trend", type=int, default=0,
                   help="print the convergence trend over this many halvings")
    p.add_argument("--out", default=None, help="manifest output directory")
    p.set_defaults(func=cmd_lipschitz)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
