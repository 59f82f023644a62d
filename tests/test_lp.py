from itertools import combinations

import numpy as np
import pytest

from sttube.lp import LpError, LpProblem, solve_lp


def vertex_enumeration_minimum(c, A, b):
    """Brute-force oracle: evaluate the objective at every vertex.

    Vertices are intersections of n constraint rows; only feasible ones
    count.  Batched over all row combinations.
    """
    n = len(c)
    m = len(b)
    idx = np.array(list(combinations(range(m), n)))
    mats = A[idx]  # (n_combos, n, n)
    dets = np.linalg.det(mats)
    usable = np.abs(dets) > 1e-10
    if not usable.any():
        return None
    rhs = b[idx][usable]
    xs = np.linalg.solve(mats[usable], rhs[..., None])[..., 0]
    feasible = (xs @ A.T <= b[None, :] + 1e-9).all(axis=1)
    if not feasible.any():
        return None
    return float((xs[feasible] @ c).min())


def _random_bounded_lp(rng):
    n = int(rng.integers(1, 6))
    k = int(rng.integers(1, 7))
    A = rng.normal(size=(k, n))
    b = rng.uniform(0.5, 3.0, size=k)  # origin feasible
    A = np.vstack([A, np.eye(n), -np.eye(n)])
    b = np.concatenate([b, np.full(2 * n, 5.0)])  # box keeps it bounded
    c = rng.normal(size=n)
    return c, A, b


def test_minimum_with_single_active_constraint():
    sol = solve_lp(LpProblem(objective=[1.0], ineq_matrix=[[-1.0]], ineq_rhs=[-1.0]))
    assert sol.status == "optimal"
    assert sol.x[0] == pytest.approx(1.0, abs=1e-9)
    assert sol.objective_value == pytest.approx(1.0, abs=1e-9)


def test_contradictory_bounds_are_infeasible():
    sol = solve_lp(
        LpProblem(objective=[0.0], ineq_matrix=[[1.0], [-1.0]], ineq_rhs=[-1.0, -1.0])
    )
    assert sol.status == "infeasible"


def test_free_unconstrained_is_unbounded():
    sol = solve_lp(
        LpProblem(objective=[-1.0], ineq_matrix=np.zeros((0, 1)), ineq_rhs=[])
    )
    assert sol.status == "unbounded"


def test_equalities():
    sol = solve_lp(
        LpProblem(
            objective=[1.0, 1.0],
            ineq_matrix=[[1.0, -1.0]],
            ineq_rhs=[0.0],
            eq_matrix=[[1.0, 1.0]],
            eq_rhs=[2.0],
        )
    )
    assert sol.status == "optimal"
    assert sol.objective_value == pytest.approx(2.0, abs=1e-9)


def test_dimension_mismatch_raises():
    with pytest.raises(LpError):
        LpProblem(objective=[1.0, 2.0], ineq_matrix=[[1.0, 0.0]], ineq_rhs=[1.0, 2.0])
    with pytest.raises(LpError):
        LpProblem(objective=[np.nan], ineq_matrix=[[1.0]], ineq_rhs=[1.0])


@pytest.mark.parametrize("given,missing", [
    ({"eq_rhs": [2.0]}, "eq_matrix"),
    ({"eq_matrix": [[1.0, 1.0]]}, "eq_rhs"),
], ids=["rhs-only", "matrix-only"])
def test_half_an_equality_block_is_refused(given, missing):
    """Equality rows need both their matrix and their right-hand side: an
    ``eq_rhs`` alone would be dropped, and an ``eq_matrix`` alone is not a
    row mismatch, so either is refused by naming the missing part."""
    with pytest.raises(LpError, match=f"{missing} is missing"):
        LpProblem([1.0, 1.0], [[1.0, -1.0]], [0.0], **given)


def test_against_vertex_enumeration_oracle():
    rng = np.random.default_rng(2024)
    for _ in range(500):
        c, A, b = _random_bounded_lp(rng)
        sol = solve_lp(LpProblem(objective=c, ineq_matrix=A, ineq_rhs=b))
        assert sol.status == "optimal"
        oracle = vertex_enumeration_minimum(c, A, b)
        assert oracle is not None
        assert sol.objective_value == pytest.approx(oracle, abs=1e-6)
        # reported point satisfies every row
        assert (A @ sol.x - b).max() <= 1e-8 * max(1.0, np.abs(b).max())


def test_deterministic_bits():
    rng = np.random.default_rng(5)
    c, A, b = _random_bounded_lp(rng)
    p = LpProblem(objective=c, ineq_matrix=A, ineq_rhs=b)
    x1 = solve_lp(p).x
    x2 = solve_lp(p).x
    assert x1.tobytes() == x2.tobytes()



def test_highs_coexists_with_scipy_optimize():
    """solve_lp and scipy.optimize share one HiGHS extension, whichever of
    the two loads it first."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import sttube

    solve = (
        "from sttube.lp import LpProblem, solve_lp\n"
        "assert solve_lp(LpProblem([1.0], [[-1.0]], [-1.0])).status == 'optimal'\n"
    )
    linprog = (
        "import scipy.optimize\n"
        "assert scipy.optimize.linprog([1.0], A_ub=[[-1.0]], b_ub=[-1.0]).status == 0\n"
    )
    for script in (solve + linprog, linprog + solve):
        subprocess.run(
            [sys.executable, "-c", script], check=True,
            env=dict(os.environ, PYTHONPATH=str(Path(sttube.__file__).parents[1])),
        )
