"""sttube benchmark: synthesis and closed-loop tracking, end to end and per layer.

    python3 perfbench/run.py --workload robots-synth --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --trace 1
    python3 perfbench/run.py --write-benchmark-json

Each repetition runs in a fresh worker process (``worker.py``) with the
BLAS/OpenMP thread count fixed.  Untraced repetitions repeat until
``--seconds`` have passed (at least one) and give the end-to-end metrics;
``--trace 1`` adds one traced repetition, whose per-layer metrics are
printed instead, and the gap between the two is the tracing overhead.
Set-up is probed in further fresh processes and reported as a median.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 when every
operation passed its checks, 1 when one failed, and 2 when the checkout
holds no ``src/sttube`` to measure.  Full records (environment,
fingerprints, every repetition) go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
RUN_SECONDS = 20
SETUP_PROBES = 8
BLAS_THREADS = 2  # explicit, capped at nproc; the shipped fingerprints were taken at 2


class WorkerError(RuntimeError):
    pass


def child_env() -> dict:
    threads = str(min(BLAS_THREADS, len(os.sched_getaffinity(0))))
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        PYTHONHASHSEED="0",
        OPENBLAS_NUM_THREADS=threads,
        OMP_NUM_THREADS=threads,
        MKL_NUM_THREADS=threads,
    )
    return env


def spawn(job: dict, deadline: float) -> dict:
    """Run one worker process to completion and return its JSON result."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise WorkerError("time limit reached before the worker could start")
    job = {**job, "spawned_at": time.monotonic()}
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), json.dumps(job)],
            cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker exceeded the time limit ({timeout:.0f} s left)") from exc
    if proc.returncode != 0:
        raise WorkerError(f"worker exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError) as exc:
        raise WorkerError(f"worker printed no result: {proc.stdout[-500:]!r}") from exc


def load_baselines() -> dict:
    path = HERE / "baseline.json"
    return json.loads(path.read_text())["fingerprints"] if path.is_file() else {}


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """All processes of one run of one workload, aggregated into a record."""
    w = metrics.WORKLOADS[workload]
    started = time.monotonic()
    deadline = started + w.time_limit_s
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "loadavg_at_start": os.getloadavg(),
        "setup_probes": [], "reps": [], "traced": None, "errors": [],
    }
    job = {"workload": workload, "seed": seed, "trace": False, "baselines": load_baselines()}
    try:
        for _ in range(SETUP_PROBES):
            record["setup_probes"].append(spawn({**job, "mode": "setup"}, deadline))
        t0 = time.monotonic()
        while True:
            t_rep = time.monotonic()
            record["reps"].append(spawn({**job, "mode": "rep"}, deadline))
            rep_wall = time.monotonic() - t_rep
            # Leave room for the next repetition, and for a traced one,
            # which takes up to about twice an untraced one.
            reserve = rep_wall * (3.2 if trace else 1.2)
            if time.monotonic() - t0 >= seconds or time.monotonic() + reserve > deadline:
                break
        if trace:
            OUT.mkdir(exist_ok=True)
            spans_path = OUT / f"spans-{workload}-seed{seed}.json"
            record["spans_path"] = str(spans_path.relative_to(ROOT))
            record["traced"] = spawn(
                {**job, "mode": "rep", "trace": True, "spans_path": str(spans_path)}, deadline
            )
    except WorkerError as exc:
        record["errors"].append(str(exc))
    record["wall_s"] = time.monotonic() - started
    return record


def summarize(record: dict) -> dict:
    """Medians over repetitions, failure counts and the correctness verdict."""
    reps = record["reps"]
    runs = reps + ([record["traced"]] if record["traced"] else [])
    failures = [f for r in runs for f in r["failures"]] + record["errors"]
    attempted = sum(r["attempted"] for r in runs) or 1
    failed = sum(len(r["failures"]) for r in runs) + len(record["errors"])
    fingerprints = {json.dumps(r["fingerprint"], sort_keys=True) for r in runs if "fingerprint" in r}
    if len(fingerprints) > 1:
        failures.append("fingerprint differs between repetitions: " + " | ".join(sorted(fingerprints)))
        failed += 1
    values = {}
    if reps:
        for key in ("setup_s", "setup_wall_s"):
            values[key] = statistics.median([p[key] for p in record["setup_probes"]] + [r[key] for r in runs])
    # Times and sizes as medians over the untraced repetitions, margins as
    # the worst repetition's.
    median = statistics.median
    for key, pick in (("op_s", median), ("op_wall_s", median), ("peak_rss_mb", median),
                      ("synth_s", median), ("track_agent_steps_per_s", median),
                      ("certified_margin", max), ("min_containment_margin", min)):
        seen = [r[key] for r in reps if key in r]
        if seen:
            values[key] = pick(seen)
    layer = {}
    traced = record["traced"]
    if traced:
        layer = dict(traced["layers"])
        if "op_s" in values:
            layer["trace.overhead_frac"] = traced["op_s"] / values["op_s"] - 1.0
        if traced["span_problems"]:
            failures += [f"span nesting: {p}" for p in traced["span_problems"]]
            failed += 1
    # Fingerprint drift and span problems fail a run without being an
    # operation of their own, so failed can be capped at attempted.
    failed = min(failed, attempted)
    values["failed_frac"] = failed / attempted
    return {
        "correct": failed == 0 and bool(reps),
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "values": values,
        "layers": layer,
        "fingerprint": reps[0].get("fingerprint") if reps else None,
        "env": reps[0]["env"] if reps else None,
    }


def result_line(summary: dict, trace: bool) -> dict:
    defs = metrics.PER_LAYER if trace else metrics.END_TO_END
    source = summary["layers"] if trace else summary["values"]
    return {
        "correct": summary["correct"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {
            m.name: {"value": source[m.name], "unit": m.unit} for m in defs if m.name in source
        },
    }


def fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def print_report(record: dict, summary: dict) -> None:
    w = metrics.WORKLOADS[record["workload"]]
    env = summary["env"] or {}
    print(
        f"== {w.name} (seed {record['seed']}, trace {int(record['trace'])}): "
        f"{len(record['reps'])} untraced rep(s), {len(record['setup_probes'])} set-up probes, "
        f"{record['wall_s']:.1f} s"
    )
    print(f"   {w.why}")
    print(
        f"   env: nproc {env.get('nproc')}, Python {env.get('python')}, numpy {env.get('numpy')}, "
        f"BLAS {env.get('blas')} ({env.get('blas_threads')} threads), "
        f"load at start {' '.join(f'{x:.2f}' for x in record['loadavg_at_start'])}"
    )
    if summary["fingerprint"]:
        fp = summary["fingerprint"]
        print(
            f"   fingerprint: eta* {fp['eta_star']:+.6f}  margin {fp['margin']:+.6f}  "
            f"iterations {fp['iterations']}  solve_lp calls {fp['solve_lp_calls']}"
        )
    shown = (metrics.END_TO_END + metrics.REPORTED["all"] + metrics.REPORTED.get(w.kind, ())
             + (metrics.FAILED_FRAC,))
    for m in shown:
        if m.name in summary["values"]:
            print(f"   {m.name:<26} {fmt(summary['values'][m.name]):>14} {m.unit:<14} ({m.better} is better)")
    if summary["layers"]:
        print("   per layer (traced run):")
        for m in metrics.PER_LAYER:
            print(f"     {m.name:<42} {fmt(summary['layers'][m.name]):>14} {m.unit:<6} -> {m.note}")
        self_s = record["traced"]["layer_self_s"]
        top = max(self_s, key=self_s.get)
        print(f"   largest self time: {top} ({self_s[top]:.3f} s); spans in {record['spans_path']}")
    for f in summary["failures"]:
        print(f"   FAILED: {f}")


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    record = measure(workload, seed, seconds, trace)
    summary = summarize(record)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{workload}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps({**record, "summary": summary}, indent=1) + "\n")
    print_report(record, summary)
    return summary


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="all", choices=[*metrics.WORKLOADS, "all"],
                   help="'all' runs robots-synth, drones-synth and fleet-track")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-benchmark-json", action="store_true",
                   help="write BENCHMARK.json from metrics.py and exit")
    args = p.parse_args(argv)

    if args.write_benchmark_json:
        spec = metrics.benchmark_json(RUN_SECONDS)
        (ROOT / "BENCHMARK.json").write_text(json.dumps(spec, indent=2) + "\n")
        return 0
    if not (ROOT / "src" / "sttube" / "__init__.py").is_file():
        print(f"error: no sttube package under {ROOT / 'src'}; nothing to measure", file=sys.stderr)
        return 2

    trace = bool(args.trace)
    if args.workload != "all":
        summary = run_one(args.workload, args.seed, args.seconds, trace)
        print(json.dumps(result_line(summary, trace)))
        return 0 if summary["correct"] else 1
    names = [n for n, w in metrics.WORKLOADS.items() if w.kind != "smoke"]
    summaries = {n: run_one(n, args.seed, args.seconds, trace) for n in names}
    print(json.dumps({
        "correct": all(s["correct"] for s in summaries.values()),
        "attempted": sum(s["attempted"] for s in summaries.values()),
        "failed": sum(s["failed"] for s in summaries.values()),
        "metrics": {n: result_line(s, trace)["metrics"] for n, s in summaries.items()},
    }))
    return 0 if all(s["correct"] for s in summaries.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
