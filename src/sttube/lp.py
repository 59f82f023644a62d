"""Dense linear-program core: min c.x s.t. A x <= b, A_eq x = b_eq, x free.

``solve_lp`` hands the problem to the HiGHS dual simplex that scipy ships
as the compiled extension ``scipy/optimize/_highspy/_core``.  The
extension is loaded by file path on the first call, so neither
``scipy.optimize`` (about 50 MB of peak RSS) nor, for a process that
never solves an LP, HiGHS itself is imported.  HiGHS runs on one thread
and uses no BLAS, so identical input bits give identical output bits on
every machine with the same HiGHS build, whatever the BLAS thread count.
The reported point is a basic (vertex) solution; it is checked against
the original rows before it is returned.

Each call validates the dense problem (``LpProblem``), takes the row-wise
sparse form of its rows from one scan of the nonzeros, and hands the
numpy buffers to a fresh HiGHS instance through the pointer form of
``passModel``, so no ``HighsLp`` is filled element by element from
Python.  The instance is dropped after the call: one that has solved
keeps about 1.6 MB.

Tolerances inside HiGHS: primal and dual feasibility 1e-9.  The final
residual check allows 100 * 1e-8 times the largest row entry and the
largest |x|, each at least 1.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HIGHS_TOL = 1e-9  # primal and dual feasibility inside HiGHS
FEAS_TOL = 1e-8  # unit of the residual check on the returned point
SCIPY_REQUIREMENT = "scipy>=1.15,<2"  # first release with the _highspy extension


class LpError(ValueError):
    """Malformed problem (dimension mismatch, non-finite entries)."""


class LpNumericalError(RuntimeError):
    """The solver failed to terminate cleanly; no answer is reported."""


@dataclass(frozen=True)
class LpProblem:
    objective: np.ndarray
    ineq_matrix: np.ndarray
    ineq_rhs: np.ndarray
    eq_matrix: np.ndarray | None = None
    eq_rhs: np.ndarray | None = None

    def __post_init__(self):
        c = np.asarray(self.objective, dtype=float)
        a = np.asarray(self.ineq_matrix, dtype=float)
        b = np.asarray(self.ineq_rhs, dtype=float)
        object.__setattr__(self, "objective", c)
        object.__setattr__(self, "ineq_matrix", a.reshape(-1, c.size))
        object.__setattr__(self, "ineq_rhs", b.ravel())
        if self.eq_matrix is not None:
            ae = np.asarray(self.eq_matrix, dtype=float).reshape(-1, c.size)
            be = np.asarray(self.eq_rhs, dtype=float).ravel()
            object.__setattr__(self, "eq_matrix", ae)
            object.__setattr__(self, "eq_rhs", be)
            if ae.shape[0] != be.size:
                raise LpError("equality matrix/rhs row mismatch")
            if not (np.isfinite(ae).all() and np.isfinite(be).all()):
                raise LpError("non-finite equality entries")
        if self.ineq_matrix.shape[0] != self.ineq_rhs.size:
            raise LpError("inequality matrix/rhs row mismatch")
        arrays = [self.objective, self.ineq_matrix, self.ineq_rhs]
        if not all(np.isfinite(arr).all() for arr in arrays):
            raise LpError("non-finite problem entries")

    @property
    def n_vars(self) -> int:
        return self.objective.size


@dataclass(frozen=True)
class LpSolution:
    status: str  # optimal | infeasible | unbounded
    x: np.ndarray | None = None
    objective_value: float = float("nan")


@functools.cache
def _highs():
    """scipy's compiled HiGHS module, loaded by file path without running
    any ``scipy`` package code.

    The extension registers its types with pybind11 once per process, so
    it is loaded under its own name and kept in ``sys.modules``: a later
    ``import scipy.optimize`` reuses it, and an earlier one is reused here.
    """
    name = "scipy.optimize._highspy._core"
    if name in sys.modules:
        return sys.modules[name]
    found = importlib.util.find_spec("scipy")
    folder = Path(found.origin).parent / "optimize" / "_highspy" if found else None
    for suffix in importlib.machinery.EXTENSION_SUFFIXES if folder else ():
        path = folder / f"_core{suffix}"
        if path.exists():
            spec = importlib.util.spec_from_file_location(name, path)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            sys.modules[name] = module
            return module
    raise ImportError(
        f"solve_lp needs the HiGHS extension bundled with {SCIPY_REQUIREMENT}; "
        "install a scipy in that range"
    )


def solve_lp(problem: LpProblem) -> LpSolution:
    """An optimal basic solution, or the status "infeasible"/"unbounded".

    The reported x satisfies every constraint within the feasibility
    tolerance; a violation after termination raises LpNumericalError
    rather than returning a wrong answer.
    """
    core = _highs()
    n = problem.n_vars
    a_in, b_in = problem.ineq_matrix, problem.ineq_rhs
    a_eq = problem.eq_matrix if problem.eq_matrix is not None else np.zeros((0, n))
    b_eq = problem.eq_rhs if problem.eq_rhs is not None else np.zeros(0)
    matrix = np.vstack([a_in, a_eq])
    # Row-wise sparse copy of the dense rows: flat positions of the
    # nonzeros, split into rows at multiples of n.
    nonzero = np.flatnonzero(matrix != 0.0)
    start = np.searchsorted(nonzero, np.arange(0, (len(matrix) + 1) * n, n)).astype(np.int32)
    entries = matrix.take(nonzero)

    highs = core._Highs()
    for option, setting in (
        ("output_flag", False),
        ("threads", 1),
        ("solver", "simplex"),
        ("primal_feasibility_tolerance", HIGHS_TOL),
        ("dual_feasibility_tolerance", HIGHS_TOL),
    ):
        highs.setOptionValue(option, setting)
    # The pointer form of passModel reads the numpy buffers directly;
    # every column is continuous and free.
    passed = highs.passModel(
        n, len(matrix), len(nonzero),
        int(core.MatrixFormat.kRowwise), int(core.ObjSense.kMinimize), 0.0,
        problem.objective, np.full(n, -core.kHighsInf), np.full(n, core.kHighsInf),
        np.concatenate([np.full(len(b_in), -core.kHighsInf), b_eq]),
        np.concatenate([b_in, b_eq]),
        start, (nonzero % n).astype(np.int32), entries, np.zeros(n, dtype=np.int32),
    )
    if passed == core.HighsStatus.kError:
        raise LpNumericalError("HiGHS rejected the model")
    highs.run()
    status = highs.getModelStatus()
    if status == core.HighsModelStatus.kInfeasible:
        return LpSolution(status="infeasible")
    if status == core.HighsModelStatus.kUnbounded:
        return LpSolution(status="unbounded")
    if status != core.HighsModelStatus.kOptimal:
        raise LpNumericalError(f"HiGHS stopped with status {highs.modelStatusToString(status)}")
    x = np.array(highs.getSolution().col_value)
    value = float(problem.objective @ x)

    # Never report a silently-wrong answer.  The acceptable residual scales
    # with the row data, as any fixed tolerance would be meaningless across
    # problem scalings.
    row_norm = max(1.0, float(np.abs(entries).max(initial=0.0)))
    x_scale = max(1.0, float(np.abs(x).max(initial=0.0)))
    limit = 100.0 * FEAS_TOL * row_norm * x_scale
    for kind, resid in (("an inequality", a_in @ x - b_in), ("an equality", np.abs(a_eq @ x - b_eq))):
        viol = float(resid.max(initial=-np.inf))
        if viol > limit:
            raise LpNumericalError(
                f"optimal point violates {kind} row by {viol:.3e} (limit {limit:.3e})"
            )
    return LpSolution(status="optimal", x=x, objective_value=value)
