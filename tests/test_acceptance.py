"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.

Criterion 1 checks the published coefficient tables against the dense
constraint oracle at the stated absolute tolerance of 0.01.  The tables
are rounded to four decimals, and at the end of the horizon that rounding
amplifies to 0.035 on the cubic rows (robots) and 0.020 on the quadratic
rows (drones), so the endpoint and arena families exceed 0.01 on real
data; the rounding-bound regression lives in test_tube.py and
test_synth.py.  The assertion here is kept at the stated tolerance and
reports the measured residuals.
"""

import time

import numpy as np
import pytest

from sttube.lipschitz import SlopeSampleConfig, convergence_sweep, estimate_L
from sttube.sim import run_closed_loop
from sttube.synth import certify, validate_tubes
from sttube.tube import TubeFace, derivative, polyval
from sttube.verify import verify_run


def _line(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")


# ---------------------------------------------------------------------------


def test_criterion_1_published_tube_regression(
    robots_table, robots_spec, drones_table, drones_spec
):
    t0 = time.perf_counter()
    rob = validate_tubes(robots_table, robots_spec, resolution=0.001, tolerance=0.01)
    dro = validate_tubes(drones_table, drones_spec, resolution=0.001, tolerance=0.01)
    elapsed = time.perf_counter() - t0
    detail = (
        f"robots worst: {max(f.worst_margin for f in rob.families.values()):+.4f}, "
        f"drones worst: {max(f.worst_margin for f in dro.families.values()):+.4f}, "
        f"{elapsed:.1f}s"
    )
    ok = rob.all_pass and dro.all_pass and elapsed < 10.0
    _line(1, ok, detail)
    assert elapsed < 10.0
    failing = {
        f"{case}/{name}": f"{fam.worst_margin:+.4f}"
        for case, report in (("robots", rob), ("drones", dro))
        for name, fam in report.families.items()
        if not fam.passed
    }
    assert rob.all_pass and dro.all_pass, (
        "published tables exceed the stated 0.01 tolerance in families "
        f"{failing}; the four-decimal coefficient rounding amplifies to "
        "0.035 at t_c on the cubic rows (bound 5e-5 * sum of horizon "
        "powers = 0.056), so 0.01 cannot hold on the published data"
    )


def test_criterion_2_certificate_arithmetic(robots_table):
    cert = certify(-0.05, robots_table, 0.002)
    ok = (
        abs(cert.lipschitz_composite - 7.8174) <= 1e-9
        and abs(cert.margin - (-0.05 + 7.8174 * 0.002)) <= 1e-9
        and round(cert.margin, 4) == -0.0344
        and cert.passed
    )
    _line(2, ok, f"L={cert.lipschitz_composite:.4f} margin={cert.margin:.6f}")
    # analytic slope bounds of the published tables land on the reported
    # two-significant-digit values: L_L=3.9463, L_U=3.8711 -> L = their sum
    assert cert.lipschitz_lower == pytest.approx(3.9463, abs=1e-9)
    assert cert.lipschitz_upper == pytest.approx(3.8711, abs=1e-9)
    assert cert.lipschitz_composite == pytest.approx(3.9463 + 3.8711, abs=1e-9)
    assert cert.margin == pytest.approx(-0.05 + (3.9463 + 3.8711) * 0.002, abs=1e-9)
    assert round(cert.margin, 4) == -0.0344
    assert cert.passed


def test_criterion_3_synthesis_reproduction(robots_result, robots_spec):
    cert = robots_result.certificate
    report = validate_tubes(
        robots_result.tubes, robots_spec, resolution=0.001, tolerance=0.01
    )
    ok = cert.margin <= 0.0 and report.all_pass and robots_result.wall_time < 300.0
    _line(
        3,
        ok,
        f"eta={cert.eta_star:.4f} L={cert.lipschitz_composite:.3f} "
        f"margin={cert.margin:.4f} wall={robots_result.wall_time:.1f}s",
    )
    assert cert.passed and cert.margin <= 0.0
    assert report.all_pass, report.summary()
    assert robots_result.wall_time < 300.0


def test_criterion_4_lipschitz_estimation(robots_table):
    t0 = time.perf_counter()
    cfg = SlopeSampleConfig(alpha=0.01, pair_count=100, repetitions=50, rng_seed=0)
    l_lower, l_upper = estimate_L(robots_table, cfg)
    elapsed = time.perf_counter() - t0
    err_l = abs(l_lower - 3.9463) / 3.9463
    err_u = abs(l_upper - 3.8711) / 3.8711
    ok = err_l <= 0.05 and err_u <= 0.05 and elapsed < 5.0
    _line(
        4, ok,
        f"L_L={l_lower:.4f} ({err_l:.2%} off), L_U={l_upper:.4f} "
        f"({err_u:.2%} off), {elapsed:.1f}s",
    )
    assert err_l <= 0.05 and err_u <= 0.05
    assert elapsed < 5.0


def test_criterion_5_convergence_trend(robots_table):
    t0 = time.perf_counter()
    face = robots_table.agents[3].dims[0].lower
    base = SlopeSampleConfig(alpha=0.01, pair_count=100, repetitions=50, rng_seed=0)
    errors = convergence_sweep(face, 10.0, base, halvings=3, seeds=range(20))
    elapsed = time.perf_counter() - t0
    monotone = all(errors[k + 1] <= errors[k] for k in range(3))
    ok = monotone and elapsed < 60.0
    _line(5, ok, "errors " + " ".join(f"{e:.5f}" for e in errors) + f", {elapsed:.1f}s")
    assert monotone, errors
    assert elapsed < 60.0


@pytest.fixture(scope="module")
def closed_loop_runs(robots_spec, robots_result, drones_spec, drones_result):
    """Both case studies, dt=1e-3, disturbance bound 0.01, three gains."""
    t0 = time.perf_counter()
    runs = {}
    for name, spec, result, stages in (
        ("robots", robots_spec, robots_result, 1),
        ("drones", drones_spec, drones_result, 2),
    ):
        validation = validate_tubes(result.tubes, spec, resolution=0.001)
        gap = validation.families["collision"].worst_margin
        for kappa in (1.0, 5.0, 10.0):
            trajs = run_closed_loop(
                spec, result.tubes, dt=1e-3, seed=7, kappa=[kappa] * stages
            )
            report = verify_run(trajs, spec, result.tubes, min_tube_gap=gap)
            runs[(name, kappa)] = (trajs, report, gap)
    return runs, time.perf_counter() - t0


def test_criterion_6_closed_loop_invariance(closed_loop_runs):
    runs, elapsed = closed_loop_runs
    worst_margin = float("inf")
    all_ok = True
    for (name, kappa), (trajs, report, _) in runs.items():
        contained = all(a.containment_pass for a in report.agents)
        reached = all(a.goal_ok and a.tras_pass for a in report.agents)
        worst_margin = min(
            worst_margin, min(a.worst_containment_margin for a in report.agents)
        )
        all_ok = all_ok and contained and reached
    ok = all_ok and elapsed < 120.0
    _line(
        6, ok,
        f"6 runs, min containment margin {worst_margin:.4f}, {elapsed:.1f}s",
    )
    assert all_ok
    assert worst_margin > 0.0
    assert elapsed < 120.0


def test_criterion_7_collision_avoidance(closed_loop_runs):
    runs, _ = closed_loop_runs
    min_dist = float("inf")
    worst_gap = -float("inf")
    for (name, kappa), (trajs, report, gap) in runs.items():
        assert report.ca_pass
        min_dist = min(min_dist, report.min_pairwise_distance)
        worst_gap = max(worst_gap, gap)
    ok = min_dist > 0.0 and worst_gap < 0.0
    _line(7, ok, f"min pairwise distance {min_dist:.4f}, worst tube gap {worst_gap:+.4f}")
    assert min_dist > 0.0
    assert worst_gap < 0.0  # strict pairwise tube separation on the dense grid


def test_criterion_8_oracle_suites():
    t0 = time.perf_counter()
    rng = np.random.default_rng(314)

    # box separation criterion vs brute-force intersection, 1000 pairs
    agree = 0
    for _ in range(1000):
        n = int(rng.integers(1, 4))
        a = [sorted(rng.uniform(0, 4, 2)) for _ in range(n)]
        b = [sorted(rng.uniform(0, 4, 2)) for _ in range(n)]
        criterion = any(
            min(ah - bl, bh - al) < 0 for (al, ah), (bl, bh) in zip(a, b)
        )
        brute = not all(al <= bh and bl <= ah for (al, ah), (bl, bh) in zip(a, b))
        agree += criterion == brute
    assert agree == 1000

    # solve_lp vs vertex enumeration, 500 random feasible LPs
    from sttube.lp import LpProblem, solve_lp
    from test_lp import _random_bounded_lp, vertex_enumeration_minimum

    lp_ok = 0
    for _ in range(500):
        c, A, b = _random_bounded_lp(rng)
        sol = solve_lp(LpProblem(objective=c, ineq_matrix=A, ineq_rhs=b))
        oracle = vertex_enumeration_minimum(c, A, b)
        assert sol.status == "optimal" and oracle is not None
        assert abs(sol.objective_value - oracle) <= 1e-6
        lp_ok += 1

    # polynomial derivative vs central differences, 1e-6 relative
    h = 1e-6
    fd_ok = 0
    for _ in range(100):
        face = TubeFace(tuple(rng.uniform(-2, 2, int(rng.integers(2, 5)))))
        for t in rng.uniform(0.1, 9.9, 100):
            exact = float(polyval(derivative(face.coeffs), t))
            fd = float(polyval(face.coeffs, t + h) - polyval(face.coeffs, t - h)) / (2 * h)
            assert abs(fd - exact) <= 1e-6 * max(1.0, abs(exact))
        fd_ok += 1
    elapsed = time.perf_counter() - t0
    _line(
        8, True,
        f"box pairs 1000/1000, LPs {lp_ok}/500, derivative faces {fd_ok}/100, "
        f"{elapsed:.1f}s",
    )


def test_criterion_9_rk4_order():
    from test_sim import rk4_convergence_ratios

    t0 = time.perf_counter()
    ratios = rk4_convergence_ratios()
    elapsed = time.perf_counter() - t0
    ok = len(ratios) == 3 and all(r >= 8.0 for r in ratios)
    _line(9, ok, "ratios " + " ".join(f"{r:.1f}" for r in ratios) + f", {elapsed:.1f}s")
    assert all(r >= 8.0 for r in ratios), ratios
