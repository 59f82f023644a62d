"""Dense linear-program core: min c.x s.t. A x <= b, A_eq x = b_eq, x free.

Two-phase tableau simplex.  Free variables are split into nonnegative
pairs; slacks turn inequalities into equations; phase 1 drives artificial
variables to zero.  Pricing is Dantzig (most negative reduced cost) until
the objective stalls on degenerate pivots, at which point Bland's
anti-cycling rule takes over, guaranteeing termination; Dantzig resumes
once the objective moves again.  Everything is deterministic at a fixed
BLAS thread count: identical input bits then give identical output bits.
Across thread counts they need not: ``np.linalg.solve`` in the
refactorization may round differently once the basis is large (about
100 rows), so x can differ in the last bits and a tie between optimal
vertices can resolve differently.

Tolerances: feasibility 1e-8, optimality 1e-9.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

FEAS_TOL = 1e-8
OPT_TOL = 1e-9
_STALL_LIMIT = 40  # degenerate pivots before Bland's rule engages


class LpError(ValueError):
    """Malformed problem (dimension mismatch, non-finite entries)."""


class LpNumericalError(RuntimeError):
    """Simplex failed to terminate cleanly; no answer is reported."""


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


def _pivot(tab: np.ndarray, row: int, col: int) -> None:
    tab[row] /= tab[row, col]
    factors = tab[:, col].copy()
    factors[row] = 0.0
    tab -= np.outer(factors, tab[row])


def _run_simplex(
    tab: np.ndarray,
    basis: np.ndarray,
    n_cols: int,
    allowed: np.ndarray,
    c_full: np.ndarray,
    pristine: np.ndarray,
    refactor_every: int = 96,
    bland_always: bool = False,
) -> str:
    """Minimize over columns marked allowed; returns "optimal" or "unbounded".

    The cost row uses the convention cost_row = c_B B^{-1} A - c, so
    entering columns have value > tol.  The whole tableau is refactorized
    from the pristine rows at regular intervals and before any verdict,
    so accumulated pivot error never produces a wrong answer.
    """

    def refactor() -> None:
        if len(basis) == 0:
            return
        # tab body = B^{-1} [A | b], recomputed exactly from pristine data.
        b_mat = pristine[:, basis]
        try:
            tab[:-1] = np.linalg.solve(b_mat, pristine)
        except np.linalg.LinAlgError:
            pass  # keep the pivoted tableau; degenerate bases stay usable
        # Gray-zone ratio leaks drift basics a little negative between
        # refactorizations; clamping re-anchors them.  Genuine
        # infeasibility is orders of magnitude larger, and the final
        # unscaled self-check guards the reported answer regardless.
        if float(tab[:-1, -1].min()) < -1e-2:
            raise LpNumericalError(
                "pivoting lost primal feasibility "
                f"(basic value {float(tab[:-1, -1].min()):.3e})"
            )
        np.maximum(tab[:-1, -1], 0.0, out=tab[:-1, -1])
        c_b = c_full[basis]
        tab[-1, :n_cols] = c_b @ tab[:-1, :n_cols] - c_full
        tab[-1, -1] = c_b @ tab[:-1, -1]

    def choose_leave(column: np.ndarray, rhs: np.ndarray) -> int:
        """Harris-style two-pass ratio test.

        Entries below the noise floor never block (their drift is bounded
        by theta times the floor and cleaned by refactorization).  When
        the minimum ratio is attained only at gray-zone entries too small
        to pivot on, those are demoted to non-blocking as well rather than
        corrupting the basis.  Among rows within the relaxed minimum
        ratio, the largest pivot element wins, ties to the lowest basic
        index.  Returns -1 when the column has no usable pivot at all.
        """
        if column.size == 0:
            return -2  # no rows at all: every column is a ray
        colmax = float(column.max())
        eps_zero = 1e-9 * max(colmax, 1.0)
        eps_piv = 1e-6 * max(colmax, 1.0)
        delta = 1e-9
        if not (column > eps_zero).any():
            return -2  # genuine ray in this column
        if not (column >= eps_piv).any():
            return -1  # only gray-zone noise in this column
        for floor in (eps_zero, eps_piv):
            blocking = column > floor
            theta = float(((rhs[blocking] + delta) / column[blocking]).min())
            pivotable = (column >= eps_piv) & (rhs <= theta * column + delta)
            if pivotable.any():
                idx = np.flatnonzero(pivotable)
                best_elem = column[idx].max()
                stable = idx[column[idx] >= 0.5 * best_elem]
                return int(stable[np.argmin(basis[stable])])
        return -1

    stall = 0
    last_obj = tab[-1, -1]
    max_iter = 2000 + 200 * tab.shape[0] + 20 * n_cols
    verified = False
    pivots = 0
    while pivots < max_iter:
        cost = tab[-1, :n_cols]
        use_bland = bland_always or stall >= _STALL_LIMIT
        if use_bland:
            candidates = np.flatnonzero(allowed & (cost > OPT_TOL))
        else:
            masked = np.where(allowed, cost, -np.inf)
            order = np.argsort(-masked)
            candidates = order[masked[order] > OPT_TOL]
        col, row = -1, -1
        saw_ray = False
        for cand in candidates[:256]:
            r = choose_leave(tab[:-1, int(cand)], tab[:-1, -1])
            if r >= 0:
                col, row = int(cand), r
                break
            saw_ray = saw_ray or r == -2
        if col < 0:
            # No entering column with a safe pivot: re-derive the tableau
            # exactly once, then settle the verdict.
            if not verified:
                refactor()
                verified = True
                continue
            if candidates.size == 0:
                return "optimal"
            if saw_ray:
                return "unbounded"
            raise LpNumericalError("no numerically safe pivot available")
        verified = False
        _pivot(tab, row, col)
        basis[row] = col
        np.maximum(tab[:-1, -1], 0.0, out=tab[:-1, -1])
        pivots += 1
        if pivots % refactor_every == 0:
            refactor()
        new_obj = tab[-1, -1]
        if new_obj < last_obj - 1e-12:
            stall = 0
            last_obj = new_obj
        else:
            stall += 1
    raise LpNumericalError("simplex iteration limit reached")


def _pow2_scale(values: np.ndarray) -> np.ndarray:
    """Nearest power of two to each positive value; exact to apply."""
    out = np.ones_like(values)
    pos = values > 0
    out[pos] = np.exp2(np.round(np.log2(values[pos])))
    return out


def solve_lp(problem: LpProblem) -> LpSolution:
    """Two-phase simplex returning an optimal basic solution.

    Columns and rows are equilibrated by powers of two before solving
    (exact in floating point, unwound afterwards), which keeps tableaus
    well-conditioned when column magnitudes span orders of magnitude.
    The reported x satisfies every constraint within the feasibility
    tolerance; a violation after termination raises LpNumericalError
    rather than returning a wrong answer.

    Degenerate instances occasionally defeat the fast Dantzig pricing;
    those are retried once in a safe mode (Bland's rule throughout,
    frequent refactorization) before any error surfaces.
    """
    try:
        return _solve_scaled(problem, refactor_every=96, bland_always=False)
    except LpNumericalError:
        return _solve_scaled(problem, refactor_every=12, bland_always=True)


def _solve_scaled(
    problem: LpProblem, refactor_every: int, bland_always: bool
) -> LpSolution:
    n = problem.n_vars
    a_in0, b_in0 = problem.ineq_matrix, problem.ineq_rhs
    m_in = a_in0.shape[0]
    if problem.eq_matrix is not None:
        a_eq0, b_eq0 = problem.eq_matrix, problem.eq_rhs
    else:
        a_eq0 = np.zeros((0, n))
        b_eq0 = np.zeros(0)
    m_eq = a_eq0.shape[0]
    m = m_in + m_eq

    stacked = np.vstack([a_in0, a_eq0]) if m else np.zeros((0, n))
    col_scale = _pow2_scale(np.abs(stacked).max(axis=0) if m else np.ones(n))
    a_in = a_in0 / col_scale
    a_eq = a_eq0 / col_scale
    row_scale_in = _pow2_scale(np.abs(a_in).max(axis=1)) if m_in else np.ones(0)
    row_scale_eq = _pow2_scale(np.abs(a_eq).max(axis=1)) if m_eq else np.ones(0)
    a_in = a_in / row_scale_in[:, None] if m_in else a_in
    b_in = b_in0 / row_scale_in if m_in else b_in0
    a_eq = a_eq / row_scale_eq[:, None] if m_eq else a_eq
    b_eq = b_eq0 / row_scale_eq if m_eq else b_eq0

    # Inequality rows with nonnegative rhs start with their slack basic;
    # only negated rows and equalities need an artificial variable.
    neg_in = b_in < 0
    art_rows = np.concatenate([np.flatnonzero(neg_in), m_in + np.arange(m_eq)])
    m_art = len(art_rows)

    # columns: x+ (n), x- (n), slacks (m_in), artificials (m_art)
    n_struct = 2 * n + m_in
    n_cols = n_struct + m_art
    rows = np.zeros((m, n_cols + 1))
    rows[:m_in, :n] = a_in
    rows[:m_in, n : 2 * n] = -a_in
    rows[:m_in, 2 * n : 2 * n + m_in] = np.eye(m_in)
    rows[:m_in, -1] = b_in
    rows[m_in:, :n] = a_eq
    rows[m_in:, n : 2 * n] = -a_eq
    rows[m_in:, -1] = b_eq
    neg = rows[:, -1] < 0
    rows[neg] *= -1.0
    rows[art_rows, n_struct + np.arange(m_art)] = 1.0
    pristine = rows.copy()  # for the final refactorization
    row_ids = np.arange(m)

    basis = np.empty(m, dtype=int)
    basis[: m_in] = 2 * n + np.arange(m_in)  # slacks
    basis[art_rows] = n_struct + np.arange(m_art)

    # Phase 1: minimize the sum of artificials.  Artificials never
    # re-enter the basis once driven out.
    tab = np.vstack([rows, np.zeros(n_cols + 1)])
    if m_art:
        tab[-1, :] = tab[art_rows].sum(axis=0)
        tab[-1, n_struct:n_cols] = 0.0
        allowed = np.zeros(n_cols, dtype=bool)
        allowed[:n_struct] = True
        c_phase1 = np.zeros(n_cols)
        c_phase1[n_struct:] = 1.0
        status = _run_simplex(tab, basis, n_cols, allowed, c_phase1, pristine,
                               refactor_every, bland_always)
        if status != "optimal":
            raise LpNumericalError("phase 1 reported unbounded")
    if m_art and tab[-1, -1] > FEAS_TOL:
        return LpSolution(status="infeasible")

    # Drive leftover artificials out of the basis (degenerate rows).
    if m_art:
        drop_rows = []
        for r in range(len(basis)):
            if basis[r] >= n_struct:
                pivots = np.flatnonzero(np.abs(tab[r, :n_struct]) > FEAS_TOL)
                if pivots.size:
                    _pivot(tab, r, int(pivots[0]))
                    basis[r] = int(pivots[0])
                else:
                    drop_rows.append(r)
        if drop_rows:
            keep = [r for r in range(len(basis)) if r not in drop_rows]
            tab = np.vstack([tab[keep], tab[-1:]])
            basis = basis[keep]
            row_ids = row_ids[keep]

    # Phase 2: the objective in scaled variables (x'_j = col_scale_j x_j,
    # c'_j = c_j / col_scale_j keeps the objective value unchanged).
    # Cost row convention: c_B B^{-1} A - c, rebuilt from the tableau.
    allowed = np.zeros(n_cols, dtype=bool)
    allowed[:n_struct] = True
    c_scaled = problem.objective / col_scale
    c_full = np.zeros(n_cols)
    c_full[:n] = c_scaled
    c_full[n : 2 * n] = -c_scaled
    c_basic = c_full[basis]
    tab[-1, :n_cols] = c_basic @ tab[:-1, :n_cols] - c_full
    tab[-1, -1] = c_basic @ tab[:-1, -1]
    status = _run_simplex(tab, basis, n_cols, allowed, c_full, pristine[row_ids],
                          refactor_every, bland_always)
    if status == "unbounded":
        return LpSolution(status="unbounded")

    # Refactorize: recompute the basic values from the pristine rows of the
    # final basis, discarding error accumulated across tableau pivots.
    basis_matrix = pristine[np.ix_(row_ids, basis)]
    rhs_vec = pristine[row_ids, -1]
    try:
        x_basic = np.linalg.solve(basis_matrix, rhs_vec)
    except np.linalg.LinAlgError:
        x_basic, *_ = np.linalg.lstsq(basis_matrix, rhs_vec, rcond=None)
    # Degenerate basics may refactor to tiny negatives; genuine negatives
    # mean the basis is wrong and the self-check below will catch them.
    x_basic = np.where(np.abs(x_basic) < 1e-7, np.maximum(x_basic, 0.0), x_basic)
    full = np.zeros(n_cols)
    full[basis] = x_basic
    x = (full[:n] - full[n : 2 * n]) / col_scale
    value = float(problem.objective @ x)

    # Never report a silently-wrong answer.  The acceptable residual scales
    # with the row data, as any fixed tolerance would be meaningless across
    # problem scalings.
    row_norm = max(1.0, np.abs(a_in0).max() if m_in else 1.0,
                   np.abs(a_eq0).max() if m_eq else 1.0)
    x_scale = max(1.0, float(np.abs(x).max()))
    limit = 100.0 * FEAS_TOL * row_norm * x_scale
    if m_in:
        viol = float(np.max(a_in0 @ x - b_in0))
        if viol > limit:
            raise LpNumericalError(
                f"optimal point violates an inequality row by {viol:.3e} "
                f"(limit {limit:.3e})"
            )
    if m_eq:
        viol = float(np.max(np.abs(a_eq0 @ x - b_eq0)))
        if viol > limit:
            raise LpNumericalError(
                f"optimal point violates an equality row by {viol:.3e} "
                f"(limit {limit:.3e})"
            )
    return LpSolution(status="optimal", x=x, objective_value=value)

