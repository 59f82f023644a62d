"""Tube synthesis: assemble the sampled optimization problem, search over
disjunction witnesses, solve, and certify.

Every constraint is affine in the face coefficients and slack variables
once each existential disjunction (which dimension separates, and on
which side) is assigned a witness.  Synthesis therefore alternates:
certify the solve of the current assignment, then propose witness
changes from its tube geometry, solve each candidate and carry the best
solve on as the next iterate, so each assignment is solved once.  Every
disjunct row is read from one row table: the LP rows, the witnessed row
values, the ranking of each row's options and the scoring LPs.  Two
places keep their own formula: the dense validation oracle, to stay
independent, and ``seed_assignment``, whose clearances at the
straight-line reference paths break ties by their own rules (side 1 on
equal clearances, the lowest dimension on equal gaps).  The heuristic's
incompleteness is harmless: the certificate plus the dense validation
oracle gate every result.

Constraint families, per time sample:
  endpoints  -- face values pinned to the start/goal box bounds (equalities)
  arena      -- faces confined to the arena (hard rows, no slack; see note)
  width      -- lower + min_width - upper <= slack
  unsafe     -- witnessed face clears the obstacle's extreme face <= slack
  collision  -- witnessed face pair of two agents separates <= slack
  ordering   -- per-dim slack < global slack (strictness via a small gap)

Note on the arena family: start and goal boxes may touch the arena
boundary, and the endpoint equalities then pin face values exactly onto
it (the published case studies do exactly this, including a face riding
the boundary for the whole horizon).  A slack-coupled arena row can
therefore never be negative, which would make the sampled-to-robust
margin test unsatisfiable for every scenario of this shape.  Arena rows
are instead enforced exactly at every sample and, since the margin test
says nothing about them, also between samples: once the sampled system
holds, each face is checked at the roots of its derivative, and every
time where it leaves the arena becomes an extra row (an exchange method
for the semi-infinite constraint; Hettich & Kortanek, SIAM Review 35(3),
1993).
"""

from __future__ import annotations

import heapq
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .lp import LpNumericalError, LpProblem, solve_lp
from .sampling import SampleSet, obstacle_bounds, sample_unsafe
from .scenario import ScenarioSpec
from .tube import (
    AgentTubes,
    TubeDim,
    TubeFace,
    TubeSet,
    extremum_times,
    polyval,
    slope_bounds,
    tube_values,
)

ETA_GAP = 1e-6  # realizes strict inequalities; absorbed by the margin
_VIOL_TOL = 1e-9
_PRUNE_TOL = 1e-6  # room for LP tolerances in the bound ``solve_sop`` prunes by
MAX_ITERATIONS = 200  # solves certified by ``synthesize`` before it gives up
BEAM_WIDTH = 8  # candidates started per refinement step; a losing one stops early
VALIDATION_BLOCK = 1024  # grid samples ``validate_tubes`` evaluates at once
FACE_SIDES = ("lower", "upper")


class SynthesisError(RuntimeError):
    """Construction failure (e.g. degree too low for the endpoint pins)."""


class SynthesisInfeasible(RuntimeError):
    """The LP under the current assignment admits no solution."""


class SynthesisFailure(RuntimeError):
    """No certified result that passes its own dense validation."""

    def __init__(self, message: str, best_margin: float):
        super().__init__(message)
        self.best_margin = best_margin


# ---------------------------------------------------------------------------
# Variable layout and instance


@dataclass(frozen=True)
class TubeTemplate:
    """Per-agent, per-dim polynomial degrees and minimum widths."""

    degrees: tuple[tuple[int, ...], ...]
    min_widths: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        if any(d < 0 for row in self.degrees for d in row):
            raise ValueError("tube degrees must be nonnegative")

    @staticmethod
    def from_spec(spec: ScenarioSpec, degree_override: int | None = None) -> "TubeTemplate":
        degrees = tuple(
            tuple(
                degree_override if degree_override is not None else d
                for d in a.tube_degree
            )
            for a in spec.agents
        )
        widths = tuple(tuple(a.min_width) for a in spec.agents)
        return TubeTemplate(degrees=degrees, min_widths=widths)


def least_separation_options(faces, obstacle_bounds) -> tuple[np.ndarray, np.ndarray]:
    """The least witness option of every disjunction: unsafe (R, m, T) and
    collision (P, T), the minimum over (dim, side) of the option values.
    ``faces`` is (m, n, 2, T), lower then upper; ``obstacle_bounds`` is
    (T, R, n, 2).  Unsafe side 0 is the region's top minus the lower face,
    side 1 the upper face minus the region's bottom; collision side 0 is
    j's upper face minus k's lower face, side 1 the reverse, for the agent
    pairs j < k in sorted order.  A disjunction holds when its least
    option is <= 0.  It is taken one option at a time, so no
    (..., n, 2, T) array is built; a collision option goes through one
    scratch row of T values.
    """
    m, n, _, t = faces.shape
    lower, upper = faces[:, :, 0], faces[:, :, 1]
    bounds = obstacle_bounds.transpose(1, 2, 3, 0)[:, None]  # (R, 1, n, 2, T)
    unsafe = np.full((len(bounds), m, t), np.inf)
    for i in range(n):
        np.minimum(unsafe, bounds[:, :, i, 1] - lower[:, i], out=unsafe)
        np.minimum(unsafe, upper[:, i] - bounds[:, :, i, 0], out=unsafe)
    j, k = np.triu_indices(m, 1)
    coll = np.full((len(j), t), np.inf)
    option = np.empty(t)
    for row, below, above in zip(coll, j, k):
        for i in range(n):
            np.minimum(row, np.subtract(upper[below, i], lower[above, i], out=option), out=row)
            np.minimum(row, np.subtract(upper[above, i], lower[below, i], out=option), out=row)
    return unsafe, coll


class SopInstance:
    """The finite constraint system for one scenario + sample set.

    Holds the variable layout (coefficient blocks per face, per-dim
    slacks, the global slack last) and produces constraint rows on
    demand, so the solver can work from a lazily grown active subset
    while violations are scanned vectorized over all samples.

    Faces are numbered ``f = (agent * n + dim) * 2 + side`` (side 0 the
    lower face).  Rows come in groups, each group one row per time sample:
    arena (agent, dim, side, half), collision pairs, unsafe (agent,
    region), width (agent, dim), in that order.  Row key ``g * n_t + r``
    names group g at sample r, so keys sort like the (family, head,
    sample) tuples ("arena" < "coll" < "unsafe" < "width") that fix the
    LP row order.
    """

    def __init__(self, spec: ScenarioSpec, samples: SampleSet, template: TubeTemplate):
        self.spec = spec
        self.samples = samples
        self.template = template
        self.n = spec.dims
        self.m = spec.agent_count
        self.times = np.asarray(samples.time_samples)
        self.n_t = len(self.times)

        self.z = np.array(template.degrees, dtype=int).reshape(self.m, self.n) + 1
        for j, i in np.argwhere(self.z < 2):
            s, g = spec.agents[j].start.axes[i], spec.agents[j].goal.axes[i]
            if s.lo != g.lo or s.hi != g.hi:
                raise SynthesisError(
                    f"agent {j + 1} dim {i + 1}: degree "
                    f"{template.degrees[j][i]} cannot satisfy both endpoint "
                    "equalities; a higher-degree polynomial is required"
                )
        sizes = np.repeat(self.z.ravel(), 2)  # coefficients per face
        n_coeffs = int(sizes.sum())
        # per-(agent, dim) slack columns, (m, n)
        self.eta_offset = n_coeffs + np.arange(self.m * self.n).reshape(self.m, self.n)
        self.eta_global = n_coeffs + self.m * self.n
        self.n_vars = self.eta_global + 1

        z_max = int(self.z.max())
        self.powers = np.vander(self.times, N=z_max, increasing=True)
        # Column of coefficient k of face f.  Coefficients past a face's
        # degree, and the extra last row (face -1: no face), point at the
        # scratch column n_vars that row building drops.
        k = np.arange(z_max)
        first = np.cumsum(sizes) - sizes
        cols = np.where(k < sizes[:, None], first[:, None] + k, self.n_vars)
        self.columns = np.vstack([cols, np.full(z_max, self.n_vars)])
        self.face_columns = [c[c < self.n_vars] for c in cols]

        n_reg = len(spec.obstacles)
        self.obstacle_bounds = samples.obstacle_bounds
        # bounds a row's right-hand side can take; column -1 (no bound) is 0
        bounds = self.obstacle_bounds.reshape(self.n_t, n_reg * self.n * 2)
        self._rhs_bounds = np.hstack([bounds, np.zeros((self.n_t, 1))])
        self._bound_rows = bounds.T.ravel()  # bound b at sample r: b * n_t + r
        self.arena = np.array(spec.arena.to_bounds())  # (n, 2)
        # arena (lo, hi) of every face, (faces, 2)
        self.face_arena = np.repeat(np.tile(self.arena, (self.m, 1)), 2, axis=0)
        self.min_widths = np.array(template.min_widths, dtype=float).reshape(self.m, self.n)
        # start and goal box bounds, (m, start/goal, n, lo/hi)
        self.ends = np.array([[a.start.to_bounds(), a.goal.to_bounds()] for a in spec.agents])
        self.pairs = [
            (j, k) for j in range(self.m) for k in range(j + 1, self.m)
        ]
        n_arena = 4 * self.m * self.n
        coll_first = n_arena
        unsafe_first = coll_first + len(self.pairs)
        width_first = unsafe_first + self.m * n_reg
        self.groups = width_first + self.m * self.n
        # the rows of a witness table (``DisjunctAssignment.codes``)
        self.disjunct_groups = slice(coll_first, width_first)
        # its unsafe rows, then its collision rows: the order in which the
        # scan and the stuck-window search visit them
        self.family_rows = (
            slice(unsafe_first - coll_first, width_first - coll_first),
            slice(0, unsafe_first - coll_first),
        )
        # arena and width groups: one row shape each, scanned by
        # ``static_violations``
        self.static_groups = np.r_[0:n_arena, width_first : self.groups]
        self.row_table = self._row_table()
        # LPs solved on this instance: solve_sop rounds and witness scoring
        self.lp_solves = 0
        # refinement candidates started, and those stopped by their LP bound
        self.candidates = 0
        self.pruned = 0
        self._operands = self._operand_table()

    def _row_table(self):
        """Every row shape, indexed [group, witness code]: two signed face
        terms (face -1: none), the slack column (-1: none), the right-hand
        side, and for unsafe rows the index of the obstacle bound (into a
        sample's flattened (R, n, 2) bounds) that the right-hand side takes
        instead, with the sign of the face.  Arena and width groups have
        one shape, repeated for every code."""
        n = self.n

        def face(j, i, side):
            return (j * n + i) * 2 + side

        eta = self.eta_offset.tolist()
        groups = []
        for j, i, s, half in np.ndindex(self.m, n, 2, 2):
            # arena_lo <= face(t) (half 0), face(t) <= arena_hi (half 1)
            rhs = -self.arena[i, 0] if half == 0 else self.arena[i, 1]
            groups.append([((face(j, i, s), -1), (2.0 * half - 1.0, 1.0), -1, rhs, -1)])
        for j, k in self.pairs:
            # side 0: agent j's upper face below agent k's lower face;
            # side 1: k's upper face below j's lower face
            groups.append([
                ((face(below, d, 1), face(above, d, 0)), (1.0, -1.0), eta[j][d], 0.0, -1)
                for d in range(n)
                for below, above in ((j, k), (k, j))
            ])
        for j, r in np.ndindex(self.m, len(self.spec.obstacles)):
            # side 0: lower face above the obstacle's top face; side 1:
            # upper face below its bottom face
            groups.append([
                ((face(j, d, side), -1), (2.0 * side - 1.0, 1.0), eta[j][d], 0.0,
                 (r * n + d) * 2 + 1 - side)
                for d in range(n)
                for side in (0, 1)
            ])
        for j, i in np.ndindex(self.m, n):
            # lower + min_width - upper <= slack
            groups.append([
                ((face(j, i, 0), face(j, i, 1)), (1.0, -1.0), eta[j][i],
                 -self.min_widths[j, i], -1)
            ])
        groups = [g * (2 * n // len(g)) for g in groups]
        return tuple(np.array([[row[q] for row in g] for g in groups]) for q in range(5))

    def _operand_table(self):
        """For every disjunct group (collision, then unsafe) and witness
        code: the rows of the value table (faces, then obstacle bounds,
        each one row of samples) holding the option's minuend and
        subtrahend, and the slack's index into the flattened (m, n)
        slacks.  Read off the row table: the option's value is the term of
        sign +1 minus the other term."""
        faces, signs, etas, _, bound = (col[self.disjunct_groups] for col in self.row_table)
        bound = bound + len(self.columns) - 1
        face_first = signs[..., 0] > 0
        minuend = np.where(face_first, faces[..., 0], bound)
        subtrahend = np.where(
            face_first, np.where(faces[..., 1] >= 0, faces[..., 1], bound), faces[..., 0]
        )
        return minuend, subtrahend, etas - self.eta_offset[0, 0]

    # -- rows (row . x <= rhs) ----------------------------------------------

    def _face_rows(self, faces, signs, etas, powers):
        """Rows ``sum_q signs[:, q] * face_q(t) - slack``: ``faces`` (K, 2)
        face indices (-1: none), ``etas`` (K,) slack columns (-1: none),
        ``powers`` (K, z_max) the powers of each row's time."""
        out = np.zeros((len(powers), self.n_vars + 1))
        at = np.arange(len(powers))[:, None]
        for f, s in zip(faces.T, signs.T):
            out[at, self.columns[f]] += s[:, None] * powers
        out[at[:, 0], etas] = -1.0
        return out[:, :-1]

    def rows(self, codes: np.ndarray, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The rows of the given keys, gathered from the row table;
        ``codes`` is the witness table (disjunct groups, n_t).  Arena and
        width rows take code 0: their row-table entries are the same for
        every code."""
        g, r = np.divmod(keys, self.n_t)
        d = g - self.disjunct_groups.start
        witnessed = (d >= 0) & (d < len(codes))
        c = np.zeros(len(keys), dtype=np.int8)
        c[witnessed] = codes[d[witnessed], r[witnessed]]
        faces, signs, etas, rhs, bound = (col[g, c] for col in self.row_table)
        matrix = self._face_rows(faces, signs, etas, self.powers[r])
        return matrix, np.where(bound < 0, rhs, signs[:, 0] * self._rhs_bounds[r, bound])

    def equality_rows(self):
        """Endpoint pins: face(0) and face(t_c) equal the box bounds."""
        n_faces = len(self.columns) - 1
        pins = np.vander([0.0, self.spec.horizon], N=self.powers.shape[1], increasing=True)
        faces = np.stack([np.repeat(np.arange(n_faces), 2), np.full(2 * n_faces, -1)], axis=1)
        rows = self._face_rows(
            faces, np.ones(faces.shape), np.full(2 * n_faces, -1), np.tile(pins, (n_faces, 1))
        )
        return rows, self.ends.transpose(0, 2, 3, 1).ravel()

    def ordering_rows(self):
        rows = np.zeros((self.m * self.n, self.n_vars))
        rows[np.arange(self.m * self.n), self.eta_offset.ravel()] = 1.0
        rows[:, self.eta_global] = -1.0
        return rows, np.full(self.m * self.n, -ETA_GAP)

    def static_violations(self, faces: np.ndarray, etas: np.ndarray, tol: float) -> np.ndarray:
        """Keys of the arena and width rows violated by more than ``tol``:
        the eight worst samples of each group, ties to the earlier sample.

        Subtracting a fixed bound is monotone, so a face's arena rows are
        violated exactly when its lowest or highest sample is; only such a
        face gets its full row of violations.
        """
        flat = faces.reshape(-1, self.n_t)
        lo, hi = self.face_arena.T
        # arena group 2 * face + half: past lo (half 0), past hi (half 1)
        arena_worst = np.stack([lo - flat.min(axis=1), flat.max(axis=1) - hi], axis=1).ravel()
        width = faces[:, :, 0] + self.min_widths[..., None]
        width -= faces[:, :, 1]
        width -= etas[..., None]
        width = width.reshape(-1, self.n_t)
        found = []  # (static group, its violation at every sample)
        for g in np.flatnonzero(arena_worst > tol):
            f = g // 2
            found.append((g, lo[f] - flat[f] if g % 2 == 0 else flat[f] - hi[f]))
        for q in np.flatnonzero((width > tol).any(axis=1)):
            found.append((len(arena_worst) + q, width[q]))
        keys = [np.zeros(0, dtype=int)]
        for g, viol in found:
            bad = np.flatnonzero(viol > tol)
            order = np.argsort(-viol[bad], kind="stable")
            keys.append(self.static_groups[g] * self.n_t + bad[order][:8])
        return np.concatenate(keys)

    def arena_excursions(self, x: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
        """Arena rows, at exact times, for every face that leaves the arena
        by more than ``tol`` anywhere in [0, t_c]; rows ordered by face,
        then half (past lo, past hi), then time.

        A face's extremes on [0, t_c] lie at the ends or at a root of its
        derivative, so only the times of ``tube.extremum_times`` are
        checked, all faces at once.
        """
        coeffs = np.append(x, 0.0)[self.columns[:-1]]  # constant term first
        face, times = extremum_times(coeffs, 0.0, self.spec.horizon)
        values = polyval(coeffs[face], times)
        lo, hi = self.face_arena[face].T
        half, at = np.nonzero(np.stack([lo - values, values - hi]) > tol)
        order = np.lexsort((at, half, face[at]))
        half, at = half[order], at[order]
        faces, signs, etas, rhs, _ = (col[2 * face[at] + half, 0] for col in self.row_table)
        powers = np.vander(times[at], N=self.powers.shape[1], increasing=True)
        return self._face_rows(faces, signs, etas, powers), rhs

    # -- vectorized evaluation ----------------------------------------------

    def face_values(self, x: np.ndarray) -> np.ndarray:
        """Every face at every time sample: (m, n, 2, n_t), lower then upper."""
        out = np.empty((len(self.face_columns), self.n_t))
        for f, cols in enumerate(self.face_columns):
            out[f] = self.powers[:, : len(cols)] @ x[cols]
        return out.reshape(self.m, self.n, 2, self.n_t)

    def witness_values(self, faces: np.ndarray, etas: np.ndarray, codes: np.ndarray) -> np.ndarray:
        """Slack of every disjunct row under the witness table ``codes``
        (disjunct groups, n_t) at a solution with face values ``faces``
        and slacks ``etas``: the witnessed option's value (the row table's
        term of sign +1 minus the other term) minus the agent's slack in
        that dim, (disjunct groups, n_t).  Codes are taken one at a time
        through the operand table, as in ``best_witnesses``."""
        minuend, subtrahend, eta = self._operands
        table = np.concatenate([faces.ravel(), self._bound_rows]).reshape(-1, self.n_t)
        slack = etas.ravel()[eta]  # (disjunct groups, codes)
        values = np.empty(codes.shape)
        for c in range(minuend.shape[1]):
            at = codes == c
            np.subtract(table[minuend[:, c]], table[subtrahend[:, c]], out=values, where=at)
            np.subtract(values, slack[:, c, None], out=values, where=at)
        return values

    def best_witnesses(self, faces: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Most-negative option of every disjunct row at face values
        ``faces``: (code, value), each (disjunct groups, n_t).  Codes
        are taken in order, one at a time through the operand table of
        ``witness_values``, and a later code wins only by more than 1e-15."""
        minuend, subtrahend, _ = self._operands
        table = np.concatenate([faces.ravel(), self._bound_rows]).reshape(-1, self.n_t)
        best_v = table[minuend[:, 0]] - table[subtrahend[:, 0]]
        best_c = np.zeros(best_v.shape, dtype=np.int8)
        for c in range(1, minuend.shape[1]):
            value = table[minuend[:, c]] - table[subtrahend[:, c]]
            better = value < best_v - 1e-15
            np.copyto(best_v, value, where=better)
            best_c[better] = c
        return best_c, best_v

    def tubes_from_solution(self, x: np.ndarray) -> TubeSet:
        coeffs = [tuple(x[cols]) for cols in self.face_columns]
        agents = []
        for j in range(self.m):
            dims = tuple(
                TubeDim(
                    lower=TubeFace(coeffs[(j * self.n + i) * 2], side="lower"),
                    upper=TubeFace(coeffs[(j * self.n + i) * 2 + 1], side="upper"),
                    min_width=self.template.min_widths[j][i],
                )
                for i in range(self.n)
            )
            agents.append(AgentTubes(dims=dims, name=self.spec.agents[j].name))
        return TubeSet(horizon=self.spec.horizon, agents=tuple(agents))


def build_sop(
    spec: ScenarioSpec,
    samples: SampleSet,
    template: TubeTemplate | None = None,
) -> SopInstance:
    """Assemble the instance; raises SynthesisError when a declared degree
    cannot satisfy the endpoint equalities."""
    if template is None:
        template = TubeTemplate.from_spec(spec)
    return SopInstance(spec, samples, template)


# ---------------------------------------------------------------------------
# Disjunct assignment


class DisjunctAssignment:
    """One witness per disjunction, stored as int8 codes ``2*dim + side``
    in one table ``codes`` (disjunct groups, n_t), in the instance's
    row-group order: collision pairs, then (agent, region).

    ``unsafe[j, r, t]``: agent j's tube clears region r at time sample t
    in dim ``code // 2``, its lower face above the region (side 0) or its
    upper face below it (side 1).  ``collision[p, t]``: the agents (j, k)
    of ``SopInstance.pairs[p]`` separate in dim ``code // 2``, j below k
    (side 0) or k below j (side 1).  Both are writable views of ``codes``,
    (m, regions, n_t) and (pairs, n_t).  Codes sort like the (dim, side)
    pairs they encode.
    """

    def __init__(self, unsafe, collision):
        unsafe = np.asarray(unsafe)
        n_t = unsafe.shape[-1]
        collision = np.reshape(collision, (-1, n_t))
        self.codes = np.concatenate([collision, unsafe.reshape(-1, n_t)], dtype=np.int8)
        self.collision = self.codes[: len(collision)]
        self.unsafe = self.codes[len(collision) :].reshape(unsafe.shape)

    def copy(self) -> "DisjunctAssignment":
        return DisjunctAssignment(unsafe=self.unsafe, collision=self.collision)


def _reference_points(spec: ScenarioSpec, times: np.ndarray) -> np.ndarray:
    """Straight-line start-center to goal-center path per agent: (M, n_t, n)."""
    out = np.zeros((spec.agent_count, len(times), spec.dims))
    for j, task in enumerate(spec.agents):
        s = np.array(task.start.center)
        g = np.array(task.goal.center)
        w = (times / spec.horizon)[:, None]
        out[j] = s[None, :] * (1.0 - w) + g[None, :] * w
    return out


def seed_assignment(spec: ScenarioSpec, samples: SampleSet) -> DisjunctAssignment:
    """Geometric heuristic from straight-line reference paths.

    Unsafe rows pick the dimension with the largest signed clearance
    between the reference point and the obstacle box (side by sign, ties
    to side 1); collision rows pick the dimension with the largest
    reference separation (order by sign, a zero gap to side 1).  Ties
    break to the lowest dimension.  These tie rules are not those of
    ``SopInstance.best_witnesses``, which refinement uses.
    """
    refs = _reference_points(spec, np.asarray(samples.time_samples))  # (m, n_t, n)
    bounds = samples.obstacle_bounds.transpose(1, 0, 2, 3)[None]  # (1, R, n_t, n, 2)
    below = bounds[..., 0] - refs[:, None]  # positive when reference is below the box
    above = refs[:, None] - bounds[..., 1]  # positive when reference is above the box
    clearance = np.maximum(below, above)
    side = (below >= above).astype(np.int8)
    best, unsafe = clearance[..., 0], side[..., 0]
    for i in range(1, spec.dims):
        better = clearance[..., i] > best + 1e-15
        best = np.where(better, clearance[..., i], best)
        unsafe = np.where(better, 2 * i + side[..., i], unsafe)
    j, k = np.triu_indices(spec.agent_count, 1)
    gaps = refs[j] - refs[k]  # (pairs, n_t, n)
    dim = np.argmax(np.abs(gaps), axis=-1)
    j_below = np.take_along_axis(gaps, dim[..., None], axis=-1)[..., 0] < 0
    return DisjunctAssignment(unsafe=unsafe, collision=2 * dim + ~j_below)


# ---------------------------------------------------------------------------
# Solving (lazy active-set loop around the LP solver)


@dataclass
class SolveDiagnostics:
    eta_star: float = float("nan")
    tubes: TubeSet | None = None
    x: np.ndarray | None = None
    assignment: DisjunctAssignment | None = None  # the winner's witnesses
    lp_rows: int = 0  # most rows in one LP of the call
    lp_solves: int = 0  # LPs of the call, over every candidate
    active_keys: np.ndarray = ()  # row keys of the winner's final working set
    exact_rows: np.ndarray | None = None  # arena rows at exact times in its final LP
    exact_rhs: np.ndarray | None = None


def _violated_keys(instance, x, tol, codes) -> np.ndarray:
    """Keys of the rows violated by more than ``tol`` at ``x``: the arena
    and width scan, then each disjunct row under its witness alone (the
    witness table ``codes``), the 120 worst of each family
    (``family_rows``)."""
    faces = instance.face_values(x)
    etas = x[instance.eta_offset]
    keys = [instance.static_violations(faces, etas, tol)]
    values = instance.witness_values(faces, etas, codes)
    for rows in instance.family_rows:
        flat = values[rows].ravel()
        bad = np.flatnonzero(flat > tol)
        # worst first; equal values go to the later row
        worst = bad[np.lexsort((bad, flat[bad]))[::-1][:120]]
        keys.append((instance.disjunct_groups.start + rows.start) * instance.n_t + worst)
    return np.concatenate(keys)


def _lazy_rounds(instance, assignment, warm, base, diag):
    """One candidate's lazy-row loop, resumable: each ``next`` runs one
    round and yields the bound that round's LP gives on the candidate's
    eta* (see ``solve_sop``); the generator returns ``(x, active keys,
    exact rows, exact rhs)`` once the full sampled system and the exact
    arena check hold at the optimum.  ``base`` holds what every LP shares:
    the objective, the ordering rows and the endpoint pins.

    A round scans the previous LP's optimum: it adds the violated rows
    and drops the ones gone slack or, when no row is violated, adds
    the arena rows at exact times that ``arena_excursions`` finds, and
    returns when there are none.  Then it solves the LP on its rows.

    Between rounds the generator holds only its active keys, the keys
    ever added with their re-add counts, its exact rows and its point;
    each scan builds the dense arrays it needs (face values, witnessed
    row values) and drops them before the LP.  So a candidate costs
    little while others run, and none of its LPs depends on the order
    the candidates run in.
    """
    n_t = instance.n_t
    weight = float(base.objective[instance.eta_offset].sum())  # w k of the bound
    # The seed rows bound every face at a handful of times, which keeps
    # the subproblem bounded regardless of what the warm start carries.
    seed_idx = sorted({0, n_t // 4, n_t // 2, 3 * n_t // 4, n_t - 1})
    keys = (np.arange(instance.groups)[:, None] * n_t + seed_idx).ravel()
    # arena rows at exact times between samples; never dropped
    exact_rows, exact_rhs = np.zeros((0, instance.n_vars)), np.zeros(0)
    if warm is not None:
        keys = np.concatenate([keys, np.asarray(warm.active_keys, dtype=np.int64)])
        exact_rows, exact_rhs = warm.exact_rows, warm.exact_rhs
    keys = np.sort(keys)
    keys = keys[np.diff(keys, prepend=-1) > 0]  # the working set, sorted, no repeats
    # every key ever added, once for each time it was added (at most 3), sorted
    added = keys
    x = slack = None  # the last LP's optimum and its keyed rows' slack
    lps = 0
    while True:
        if x is not None:
            scale = max(1.0, float(np.abs(x).max()))
            tol = _VIOL_TOL * scale
            violated = _violated_keys(instance, x, tol, assignment.codes)
            fresh = violated[~np.isin(violated, keys, assume_unique=True)]
            if len(fresh):
                # Drop rows that have gone slack at this optimum, except
                # ones that keep coming back (pinned after three re-adds to
                # avoid cycling).
                adds = np.searchsorted(added, keys, "right") - np.searchsorted(added, keys)
                drop = (slack < -1e-6 * scale) & (adds < 3)
                keys = np.sort(np.concatenate([keys[~drop], fresh]))
                added = np.sort(np.concatenate([added, fresh]))
            else:
                found_rows, found_rhs = instance.arena_excursions(x, tol)
                if len(found_rhs) == 0:
                    return x, keys, exact_rows, exact_rhs
                exact_rows = np.vstack([exact_rows, found_rows])
                exact_rhs = np.concatenate([exact_rhs, found_rhs])
        if lps == 300:
            raise SynthesisInfeasible("lazy constraint loop failed to converge")
        rows, rhs = instance.rows(assignment.codes, keys)
        rows = np.vstack([rows, exact_rows, base.ineq_matrix])
        rhs = np.concatenate([rhs, exact_rhs, base.ineq_rhs])
        sol = solve_lp(LpProblem(
            objective=base.objective,
            ineq_matrix=rows,
            ineq_rhs=rhs,
            eq_matrix=base.eq_matrix,
            eq_rhs=base.eq_rhs,
        ))
        lps += 1
        diag.lp_solves += 1
        instance.lp_solves += 1
        diag.lp_rows = max(diag.lp_rows, len(rhs))
        if sol.status == "infeasible":
            raise SynthesisInfeasible(
                "no tube satisfies the endpoint pins and arena bounds at the "
                "declared degrees; a higher-degree polynomial may be required"
            )
        if sol.status != "optimal":
            raise SynthesisInfeasible(f"LP terminated with status {sol.status}")
        x = sol.x
        slack = rows[: len(keys)] @ x - rhs[: len(keys)]
        bound = (sol.objective_value + weight * ETA_GAP) / (1.0 + weight)
        del rows, rhs, sol  # no LP matrix is kept between rounds
        yield bound


def solve_sop(
    instance: SopInstance,
    candidates: list[DisjunctAssignment],
    diagnostics: SolveDiagnostics | None = None,
    warm: SolveDiagnostics | None = None,
) -> tuple[TubeSet, float]:
    """Minimize the global slack under each candidate's witnesses and keep
    the least: returns ``(tubes, eta*)`` of the candidate with the least
    ``(eta*, position)``, the first of equal optima.

    Each candidate is solved by a cutting-plane loop around ``solve_lp``
    (``_lazy_rounds``): solve on a small working set, scan every
    constraint row vectorized, add the violated ones, drop rows that have
    gone slack, repeat until the full sampled system is satisfied at the
    optimum.  Then every face is checked against the arena exactly
    (``SopInstance.arena_excursions``); violating times are added as rows
    that are never dropped, and the loop goes on until both checks pass.
    Deterministic throughout.

    ``warm``, the diagnostics of an earlier solve on the same instance,
    hands every candidate its final working set: its ``active_keys`` join
    the working set and its exact arena rows start the block that is never
    dropped.  Each such row is an arena constraint of the robust problem
    at one time, so it cuts off no valid tube, whatever the witnesses.

    Candidates run best first (best-bound branch and bound; Land & Doig,
    Econometrica 28(3), 1960; Lawler & Wood, Operations Research 14(4),
    1966).  Every round's LP relaxes the candidate's final one: its rows
    are sampled rows and exact arena rows the final optimum satisfies.  So
    each round's objective ``f`` bounds the final objective ``eta_g + w *
    sum(eta_ij)`` from below, and the ordering rows ``eta_ij <= eta_g -
    ETA_GAP`` turn that into ``eta* >= (f + w k ETA_GAP) / (1 + w k)`` over
    the k per-dim slacks.  Every candidate is started in order; then the
    one with the least ``(bound, position)`` runs its next round, and once
    that least bound exceeds the best eta* found by more than
    ``_PRUNE_TOL`` the candidates still running are stopped
    (``instance.pruned`` counts them).  A waiting candidate is simply not
    advanced: between rounds it holds no dense state (``_lazy_rounds``).
    A candidate's rounds do not depend on the order they run in, so the
    winner is the one that solving every candidate to the end picks.

    ``diagnostics`` receives the winner's point, tubes, witnesses and
    final working set (the warm start of a later solve), and the call's
    LP count and largest LP over every candidate.  When no candidate
    solves, the first candidate's error is raised.
    """
    if not candidates:
        raise ValueError("solve_sop needs at least one candidate")
    diag = diagnostics if diagnostics is not None else SolveDiagnostics()
    # eta_global, plus a small weight on every per-(agent, dim) slack: it
    # makes the optimum canonical and gives each agent and dim its own slack
    objective = np.zeros(instance.n_vars)
    objective[instance.eta_offset] = 1e-3
    objective[instance.eta_global] = 1.0
    ord_rows, ord_rhs = instance.ordering_rows()
    eq_rows, eq_rhs = instance.equality_rows()
    base = LpProblem(objective, ord_rows, ord_rhs, eq_rows, eq_rhs)
    rounds = [_lazy_rounds(instance, cand, warm, base, diag) for cand in candidates]
    queue = [(-math.inf, pos) for pos in range(len(candidates))]  # a heap already
    best, errors = None, {}  # (eta*, position, result) of the least solve
    while queue:
        bound, pos = heapq.heappop(queue)
        if best is not None and bound > best[0] + _PRUNE_TOL:
            instance.pruned += 1 + len(queue)
            break
        try:
            bound = next(rounds[pos])
        except StopIteration as done:
            eta_star = float(done.value[0][instance.eta_global])
            if best is None or (eta_star, pos) < best[:2]:
                best = (eta_star, pos, done.value)
        except (SynthesisInfeasible, LpNumericalError) as exc:
            errors[pos] = exc
        else:
            heapq.heappush(queue, (bound, pos))
    if best is None:
        raise errors[min(errors)]
    eta_star, pos, (x, keys, exact_rows, exact_rhs) = best
    tubes = instance.tubes_from_solution(x)
    diag.eta_star = eta_star
    diag.tubes = tubes
    diag.x = x
    diag.assignment = candidates[pos]
    diag.active_keys = keys
    diag.exact_rows, diag.exact_rhs = exact_rows, exact_rhs
    return tubes, eta_star


# ---------------------------------------------------------------------------
# Assignment refinement


def _subsample(window: list[int], cap: int = 12) -> list[int]:
    if len(window) <= cap:
        return window
    step = (len(window) - 1) / (cap - 1)
    return [window[round(q * step)] for q in range(cap)]


def _score_option(instance, group, window, code) -> float:
    """Best achievable slack s for the faces of row group ``group`` honoring
    witness ``code`` uniformly over ``window``.

    A small LP over the row's faces alone, each (agent, dim, side), with
    the faces, signs and right-hand side of ``row_table[group, code]``: the
    endpoint pins, arena bounds with room for the opposite face at minimum
    width, and the witness rows ``sum_q signs[q] * face_q(t) - s <= rhs``
    at up to 12 samples of the window.  The optimum ranks how viable the
    witness is; an LP that is infeasible or fails its numerical check
    scores ``inf``.
    """
    sub = _subsample(window)
    faces, signs, _, rhs, bound = (col[group, code] for col in instance.row_table)
    rhs = signs[0] * instance._rhs_bounds[sub, bound] if bound >= 0 else np.full(len(sub), rhs)
    terms = [
        (np.unravel_index(f, (instance.m, instance.n, 2)), sign)
        for f, sign in zip(faces, signs)
        if f >= 0
    ]
    powers = [instance.powers[sub, : instance.z[j, i]] for (j, i, _), _ in terms]
    pins = np.vander([0.0, instance.spec.horizon], N=instance.powers.shape[1], increasing=True)
    nv = sum(p.shape[1] for p in powers) + 1
    witness = np.zeros((len(sub), nv))
    witness[:, -1] = -1.0
    rows, bounds, eq, eq_rhs = [witness], [rhs], [], []
    start = 0
    for ((j, i, side), sign), p in zip(terms, powers):
        block = slice(start, start + p.shape[1])
        start = block.stop
        witness[:, block] = sign * p
        lo, hi = instance.arena[i]
        w = instance.min_widths[j, i]
        lo, hi = (lo, hi - w) if side == 0 else (lo + w, hi)
        room = np.zeros((2, len(sub), nv))
        room[0, :, block], room[1, :, block] = -p, p
        rows.append(room.reshape(-1, nv))
        bounds += [np.full(len(sub), -lo), np.full(len(sub), hi)]
        pin = np.zeros((2, nv))
        pin[:, block] = pins[:, : p.shape[1]]
        eq.append(pin)
        eq_rhs.append(instance.ends[j, :, i, side])
    problem = LpProblem(
        objective=np.eye(nv)[-1],
        ineq_matrix=np.vstack(rows),
        ineq_rhs=np.concatenate(bounds),
        eq_matrix=np.vstack(eq),
        eq_rhs=np.concatenate(eq_rhs),
    )
    try:
        sol = solve_lp(problem)
    except LpNumericalError:
        return float("inf")
    instance.lp_solves += 1
    return sol.objective_value if sol.status == "optimal" else float("inf")


def _stuck_window_candidates(instance, best_values):
    """Alternative witnesses for disjunction groups the local geometry
    cannot improve (the tube straddles what it must avoid, so every
    per-sample flip looks equally bad at the current solution).

    For each stuck (agent, region) or (agent, agent) group the conflicted
    time window is re-witnessed uniformly; options are ranked by the
    slack a single face could achieve for them in isolation.  Returns
    (witness table row, window, two best (score, code) options) per
    group, unsafe groups first (``family_rows``).
    """
    conflicted = best_values > -0.05
    stuck = (best_values > -1e-9).any(axis=1)
    out = []
    for rows in instance.family_rows:
        for g in rows.start + np.flatnonzero(stuck[rows]):
            window = np.flatnonzero(conflicted[g]).tolist()
            scored = (
                (_score_option(instance, instance.disjunct_groups.start + g, window, code), code)
                for code in range(2 * instance.n)
            )
            options = sorted(opt for opt in scored if opt[0] < float("inf"))
            if options:
                out.append((g, window, options[:2]))
    return out


def _boundary_shift_candidates(instance, assignment, binding):
    """Move binding witness handoffs.

    Where the separating dimension changes over time, the best-witness
    move settles the boundary exactly at the gap crossover of the current
    solution, which pins the slack at zero: both witnesses are active
    with no margin at adjacent samples.  Shifting the handoff makes one
    witness take over while the other still has slack, letting the
    re-solve buy margin.  Both directions and two scales are proposed.
    """
    n_t = instance.n_t
    codes = assignment.codes
    # handoffs (g, rr) between samples rr and rr + 1 that lie within
    # [r - 3, r + 2] of a binding row (g, r)
    g, r = np.nonzero(binding)
    near = np.zeros((len(codes), max(n_t - 1, 0)), dtype=bool)
    for d in range(-3, 3):
        ok = (r + d >= 0) & (r + d < n_t - 1)
        near[g[ok], r[ok] + d] = True
    near &= codes[:, :-1] != codes[:, 1:]
    handoffs = [(g, rr, codes[g, rr], codes[g, rr + 1]) for g, rr in np.argwhere(near)]
    out = []
    for leftward in (True, False):
        for scale in (max(2, n_t // 40), max(4, n_t // 12)):
            cand = assignment.copy()
            changed = False
            for g, rr, a, b in handoffs:
                if leftward:
                    span, choice = slice(max(0, rr - scale + 1), rr + 1), b
                else:
                    span, choice = slice(rr + 1, min(n_t, rr + 1 + scale)), a
                changed = changed or bool((cand.codes[g, span] != choice).any())
                cand.codes[g, span] = choice
            if changed:
                out.append(cand)
    return out


def refine_assignment(
    instance: SopInstance, failure: SolveDiagnostics
) -> SolveDiagnostics | None:
    """One local-search step from the solve ``failure`` over its witnesses.

    Candidates, scored by re-solving: uniform re-witnessings of stuck
    conflict windows, handoff-boundary shifts around binding rows, and
    last, when it differs from ``failure``'s witnesses, the table of
    every row's geometrically best witness at the current solution
    (``SopInstance.best_witnesses``).  The first ``BEAM_WIDTH`` of them,
    in that order, go to one ``solve_sop`` call, warm-started from
    ``failure``: its working set and the exact arena rows it found.  It
    runs them best first and stops those whose LP bound shows they cannot
    win; the winner, the least ``(eta*, position)``, is the one that
    solving every candidate to the end picks.  ``instance.candidates``
    counts the candidates started and ``instance.pruned`` those stopped
    early.  Returns the diagnostics of the winner (its witnesses in
    ``assignment``), or None when no candidate solves.  Deterministic
    given its inputs.
    """
    assignment = failure.assignment
    if assignment is None or failure.x is None:
        raise ValueError("refinement needs diagnostics from a previous solve")
    faces = instance.face_values(failure.x)
    etas = failure.x[instance.eta_offset]
    row_vals = instance.witness_values(faces, etas, assignment.codes)
    best_c, best_v = instance.best_witnesses(faces)
    # Binding disjunct rows: the row sits at its slack AND that slack pins
    # the global optimum through the ordering chain.
    pinned = etas >= failure.eta_star - ETA_GAP - 1e-7
    binding = row_vals >= -1e-7
    g, r = np.nonzero(binding)
    slack_index = instance._operands[2][g, assignment.codes[g, r]]  # into the (m, n) slacks
    binding[g, r] = pinned.ravel()[slack_index]

    # The geometric move: every row to its best witness at this solution.
    geometric = assignment.copy()
    geometric.codes[:] = best_c

    candidates: list[DisjunctAssignment] = []
    windows = _stuck_window_candidates(instance, best_v)
    if windows:
        # Primary escape: best-ranked option applied to every stuck window
        # at once (on top of the best-witness table), then the second-ranked
        # variations one window at a time.
        combo = geometric.copy()
        for g, window, ranked in windows:
            combo.codes[g, window] = ranked[0][1]
        candidates.append(combo)
        for g, window, ranked in windows:
            if len(ranked) < 2:
                continue
            variant = combo.copy()
            variant.codes[g, window] = ranked[1][1]
            candidates.append(variant)
    candidates.extend(_boundary_shift_candidates(instance, assignment, binding))
    if (best_c != assignment.codes).any():
        candidates.append(geometric)

    beam = candidates[:BEAM_WIDTH]
    if not beam:
        return None
    instance.candidates += len(beam)
    winner = SolveDiagnostics()
    try:
        solve_sop(instance, beam, winner, warm=failure)
    except (SynthesisInfeasible, LpNumericalError):
        return None
    return winner


# ---------------------------------------------------------------------------
# Certification


@dataclass(frozen=True)
class SynthesisCertificate:
    """Sampled-to-robust margin: eta + L * epsilon must be nonpositive."""

    eta_star: float
    lipschitz_lower: float
    lipschitz_upper: float
    lipschitz_composite: float
    epsilon: float
    margin: float
    passed: bool
    lipschitz_source: str = "analytic"

    def to_dict(self) -> dict:
        return {
            "eta_star": self.eta_star,
            "L_L": self.lipschitz_lower,
            "L_U": self.lipschitz_upper,
            "L": self.lipschitz_composite,
            "epsilon": self.epsilon,
            "margin": self.margin,
            "passed": self.passed,
            "lipschitz_source": self.lipschitz_source,
        }


def composite_lipschitz(l_lower: float, l_upper: float) -> float:
    return max(
        l_lower, l_upper, l_lower + l_upper, l_lower + 1.0, l_upper + 1.0
    )


def certify(
    eta_star: float,
    tubes: TubeSet,
    epsilon: float,
    lipschitz_source: str = "analytic",
    slope_cfg=None,
) -> SynthesisCertificate:
    """Evaluate the sampled-to-robust condition for a solved tube set."""
    if lipschitz_source == "analytic":
        l_lower, l_upper = slope_bounds(tubes)
    elif lipschitz_source == "estimated":
        from .lipschitz import SlopeSampleConfig, estimate_L

        cfg = slope_cfg or SlopeSampleConfig(alpha=tubes.horizon / 1000.0)
        l_lower, l_upper = estimate_L(tubes, cfg)
    else:
        raise ValueError(f"unknown lipschitz source {lipschitz_source!r}")
    l_comp = composite_lipschitz(l_lower, l_upper)
    margin = eta_star + l_comp * epsilon
    return SynthesisCertificate(
        eta_star=eta_star,
        lipschitz_lower=l_lower,
        lipschitz_upper=l_upper,
        lipschitz_composite=l_comp,
        epsilon=epsilon,
        margin=margin,
        passed=margin <= 0.0,
        lipschitz_source=lipschitz_source,
    )


def save_certificate(cert: SynthesisCertificate, path: str | Path) -> None:
    Path(path).write_text(json.dumps(cert.to_dict(), indent=2) + "\n")


# ---------------------------------------------------------------------------
# Dense validation oracle


@dataclass
class FamilyResult:
    name: str
    worst_margin: float
    passed: bool
    where: str = ""


@dataclass
class ValidationReport:
    families: dict[str, FamilyResult]
    resolution: float
    tolerance: float
    endpoint_equality_residual: float = float("nan")

    @property
    def all_pass(self) -> bool:
        return all(f.passed for f in self.families.values())

    def summary(self) -> str:
        lines = []
        for f in self.families.values():
            status = "pass" if f.passed else "FAIL"
            lines.append(
                f"  {f.name:<10} worst margin {f.worst_margin:+.6f}  {status}"
                + (f"  ({f.where})" if f.where else "")
            )
        return "\n".join(lines)


def validate_tubes(
    tubes: TubeSet,
    spec: ScenarioSpec,
    resolution: float,
    tolerance: float = 0.0,
) -> ValidationReport:
    """Dense-grid ground-truth check of every constraint family.

    Endpoint containment uses the task's own boxes (outward violations
    count; the exact equality residual is reported separately).  A family
    passes when its worst margin is at most the tolerance.

    The grid is evaluated ``VALIDATION_BLOCK`` samples at a time, so no
    array spans the whole grid but the grid itself: each family keeps its
    running worst value and the first sample it occurs at.
    """
    n_grid = int(math.ceil(spec.horizon / resolution)) + 1
    grid = np.linspace(0.0, spec.horizon, n_grid)
    m, n = tubes.agent_count, tubes.dims

    def worst(values, where):
        """Largest entry (the first on ties) and its ``where`` text."""
        q = int(np.argmax(values))
        v = float(values.flat[q])
        return v, v <= tolerance, where(*np.unravel_index(q, values.shape))

    def running_max(shape):
        return np.full(shape, -np.inf), np.zeros(shape, dtype=int)

    def fold(peak, values, start):
        """Fold a block's maxima over its samples into ``peak``, (largest
        value, its sample); as with ``np.argmax``, the earlier sample keeps
        a tie and the first NaN wins."""
        best, at = peak
        q = values.argmax(axis=-1)
        v = np.take_along_axis(values, q[..., None], axis=-1)[..., 0]
        later = np.stack([best, v]).argmax(axis=0) == 1
        best[later] = v[later]
        at[later] = start + q[later]

    # endpoints: containment of the tube box in the start/goal boxes
    ends = np.array([[a.start.to_bounds(), a.goal.to_bounds()] for a in spec.agents])
    pinned = tube_values(tubes, grid[[0, -1]]).transpose(0, 3, 1, 2)  # (m, start/goal, n, lo/hi)
    outward = np.stack([ends[..., 0] - pinned[..., 0], pinned[..., 1] - ends[..., 1]], axis=-1)
    eq_resid = float(np.abs(outward).max(initial=0.0))
    kinds = ("start lower", "start upper", "goal lower", "goal upper")
    families = {
        "endpoints": FamilyResult("endpoints", *worst(
            outward.transpose(0, 2, 1, 3).reshape(m, n, 4),
            lambda j, i, e: f"agent {j + 1} dim {i + 1} {kinds[e]}",
        ))
    }

    # Over the grid: each face's lowest and highest value; the width gap
    # per (agent, dim); the least option of every unsafe (region, agent)
    # and collision pair disjunction (some (dim, side) option clears).
    face_lo, face_hi = np.full((m, n, 2), np.inf), np.full((m, n, 2), -np.inf)
    min_width = np.array([[d.min_width for d in a.dims] for a in tubes.agents])
    gap = running_max((m, n))
    unsafe = running_max((len(spec.obstacles), m))
    coll = running_max((m * (m - 1) // 2,))
    for start in range(0, n_grid, VALIDATION_BLOCK):
        times = grid[start : start + VALIDATION_BLOCK]
        faces = tube_values(tubes, times)  # (m, n, 2, block)
        np.minimum(face_lo, faces.min(axis=-1), out=face_lo)
        np.maximum(face_hi, faces.max(axis=-1), out=face_hi)
        widths = faces[:, :, 0] + min_width[..., None]
        widths -= faces[:, :, 1]
        fold(gap, widths, start)
        options = least_separation_options(faces, obstacle_bounds(spec, times))
        fold(unsafe, options[0], start)
        fold(coll, options[1], start)

    # arena confinement (subtracting a fixed bound is monotone, so the
    # worst excess sits at the face's lowest or highest sample)
    lo, hi = np.array(spec.arena.to_bounds()).T[:, :, None]
    past = np.stack([lo - face_lo, face_hi - hi], axis=-1)
    families["arena"] = FamilyResult("arena", *worst(
        past,
        lambda j, i, s, b: (
            f"agent {j + 1} dim {i + 1} {FACE_SIDES[s]} face past arena {('lo', 'hi')[b]}"
        ),
    ))

    families["width"] = FamilyResult("width", *worst(
        gap[0], lambda j, i: f"agent {j + 1} dim {i + 1} at t={grid[gap[1][j, i]]:.3f}"
    ))
    if spec.obstacles:
        families["unsafe"] = FamilyResult("unsafe", *worst(
            unsafe[0],
            lambda r, j: f"agent {j + 1} vs region {r + 1} at t={grid[unsafe[1][r, j]]:.3f}",
        ))
    else:
        families["unsafe"] = FamilyResult("unsafe", -np.inf, True, "no obstacles")
    if m >= 2:
        j, k = np.triu_indices(m, 1)
        families["collision"] = FamilyResult("collision", *worst(
            coll[0],
            lambda p: f"pair ({j[p] + 1},{k[p] + 1}) at t={grid[coll[1][p]]:.3f}",
        ))
    else:
        families["collision"] = FamilyResult("collision", -np.inf, True, "single agent")

    return ValidationReport(
        families=families,
        resolution=resolution,
        tolerance=tolerance,
        endpoint_equality_residual=eq_resid,
    )


# ---------------------------------------------------------------------------
# Top-level driver


@dataclass
class SynthesisResult:
    tubes: TubeSet
    certificate: SynthesisCertificate
    assignment: DisjunctAssignment
    iterations: int
    lp_solves: int
    candidates: int  # refinement solves started
    pruned: int  # of those, stopped early by their LP bound
    wall_time: float
    validation: ValidationReport


def synthesize(spec: ScenarioSpec, degree_override: int | None = None) -> SynthesisResult:
    """Full pipeline: sample, seed, solve, refine until certified.

    The seed assignment is solved once, from a cold start; every later
    iterate is the solve that ``refine_assignment`` picked, certified as
    it comes (analytic Lipschitz constants), so no assignment is solved
    twice.  Each candidate starts warm from the iterate it refines, so
    the exact arena rows found along the chain of iterates are carried
    down it and not found again.

    Stop rule: once a certificate is found, keep refining while the
    certified margin improves.  The search stops at the first step that
    does not improve it (a step that fails to certify does not), when
    refinement stalls or when the budget runs out, and returns the best
    certified iterate: its tubes, certificate, assignment and dense
    validation.  ``iterations``, ``lp_solves``, ``candidates``, ``pruned``
    and ``wall_time`` count the whole search; ``lp_solves`` includes the
    LPs of witness scoring and of every refinement candidate, up to the
    round that stopped it when it could not win (see ``solve_sop``).

    Raises SynthesisFailure with the best margin found when the
    refinement budget runs out without any certificate, and with the
    certified margin when the certified tubes fail their own dense
    validation (eps/4, tolerance 1e-4): a result is never returned
    certified and invalid.
    """
    t0 = time.perf_counter()
    samples = sample_unsafe(spec)
    template = TubeTemplate.from_spec(spec, degree_override)
    instance = build_sop(spec, samples, template)
    diag = SolveDiagnostics()
    solve_sop(instance, [seed_assignment(spec, samples)], diag)

    best_margin = float("inf")
    since_improved = 0
    certified = None  # (tubes, certificate, assignment) of the best certified iterate

    def result(iteration: int) -> SynthesisResult:
        tubes, cert, asg = certified
        report = validate_tubes(
            tubes, spec, resolution=spec.epsilon / 4.0, tolerance=1e-4
        )
        if not report.all_pass:
            failing = sorted(name for name, fam in report.families.items() if not fam.passed)
            raise SynthesisFailure(
                f"certified tubes (margin {cert.margin:.6f}) fail their own "
                f"eps/4 validation in families {failing}",
                cert.margin,
            )
        return SynthesisResult(
            tubes=tubes,
            certificate=cert,
            assignment=asg,
            iterations=iteration,
            lp_solves=instance.lp_solves,
            candidates=instance.candidates,
            pruned=instance.pruned,
            wall_time=time.perf_counter() - t0,
            validation=report,
        )

    for iteration in range(1, MAX_ITERATIONS + 1):
        cert = certify(diag.eta_star, diag.tubes, spec.epsilon)
        improved = cert.margin < best_margin - 1e-12
        if improved:
            best_margin = cert.margin
            since_improved = 0
        else:
            since_improved += 1
        if certified is not None and not (cert.passed and improved):
            return result(iteration)
        if cert.passed:
            certified = (diag.tubes, cert, diag.assignment)
        refined = refine_assignment(instance, diag)
        if refined is None or since_improved >= 6:
            if certified is not None:
                return result(iteration)
            raise SynthesisFailure(
                "assignment search stalled without certification "
                f"(best margin {best_margin:.6f}); a higher-degree polynomial "
                "may be required",
                best_margin,
            )
        diag = refined
    if certified is not None:
        return result(MAX_ITERATIONS)
    raise SynthesisFailure(
        f"refinement budget exhausted (best margin {best_margin:.6f}); "
        "a higher-degree polynomial may be required",
        best_margin,
    )
