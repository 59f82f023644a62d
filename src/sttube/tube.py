"""Polynomial tube faces, their derivatives, and exact slope bounds.

A tube face is a monomial-basis polynomial of time,
``gamma(t) = c0 + c1 t + ... + c_{z-1} t^{z-1}``.  A TubeSet holds, per
agent and per output dimension, a lower and an upper face plus the
required minimum separation between them.  All operations are pure.

Every face value, derivative value and extremum time in the package comes
from the one polynomial kernel here: ``polyval`` (Horner's rule over
coefficient arrays, constant term first, zero-padded to the top degree)
and ``extremum_times`` (the ends of an interval and the real roots of the
derivative, found by one batched companion-matrix eigenvalue call per
root count).  ``tube_values`` evaluates every face at many times, and
``agent_walls`` one agent's lower and upper walls from its coefficient
table (``agent_coeffs``), which the closed loop forms once per agent
and its containment check reads.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .scenario import _list, _number, _object


@dataclass(frozen=True)
class TubeFace:
    """One polynomial boundary curve, ``side`` in {"lower", "upper"}."""

    coeffs: tuple[float, ...]
    side: str = "lower"

    def __post_init__(self):
        if not self.coeffs:
            raise ValueError("a tube face needs at least one coefficient")
        if self.side not in ("lower", "upper"):
            raise ValueError(f"unknown face side {self.side!r}")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1


def face_coeffs(faces) -> np.ndarray:
    """Coefficients of ``faces``, constant term first, zero-padded to the
    top degree: (len(faces), z)."""
    z = max(len(face.coeffs) for face in faces)
    out = np.zeros((len(faces), z))
    for f, face in enumerate(faces):
        out[f, : len(face.coeffs)] = face.coeffs
    return out


def polyval(coeffs, t) -> np.ndarray:
    """Horner's rule: the polynomials ``coeffs`` (..., z), constant term
    first, at times ``t``, which broadcast against ``coeffs[..., 0]``.

    Leading zeros of a zero-padded row leave its values bit-identical to
    Horner's rule on the unpadded coefficients.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    acc = np.zeros(np.broadcast_shapes(coeffs.shape[:-1], np.shape(t)))
    for k in range(coeffs.shape[-1] - 1, -1, -1):
        acc *= t
        acc += coeffs[..., k]
    return acc


def derivative(coeffs) -> np.ndarray:
    """Coefficients of the derivatives of ``coeffs`` (..., z), constant term
    first: (..., z - 1), or one zero column for constants."""
    coeffs = np.asarray(coeffs, dtype=float)
    z = coeffs.shape[-1]
    if z == 1:
        return np.zeros_like(coeffs)
    return coeffs[..., 1:] * np.arange(1, z)


def extremum_times(coeffs: np.ndarray, t0: float, t1: float) -> tuple[np.ndarray, np.ndarray]:
    """Every time at which a polynomial row of ``coeffs`` (F, z) can take
    its extremes on [t0, t1]: (row, time) arrays, ordered by row, each
    row's ends first, then the roots of its derivative in (t0, t1).

    The real parts of complex roots count as roots too: they are harmless
    extra times and cover a near-double root that comes out complex.  Each
    derivative, stripped of trailing zeros and of negligible leading
    coefficients, gives a companion matrix, as ``np.roots`` builds it; the
    matrices of one size share an ``np.linalg.eigvals`` call.
    """
    deriv = derivative(coeffs)[:, ::-1]  # highest power first
    n_rows, width = deriv.shape
    nonzero = deriv != 0
    # A leading coefficient below 2**-1000 of the largest is dropped: it
    # adds only a root beyond 2**1000, and its ratios would overflow.
    magnitude = np.abs(deriv)
    lead = (magnitude > magnitude.max(axis=1, keepdims=True) * 2.0**-1000).argmax(axis=1)
    size = np.where(nonzero.any(axis=1), width - nonzero[:, ::-1].argmax(axis=1) - lead, 0)
    rows = [np.arange(n_rows), np.arange(n_rows)]
    times = [np.full(n_rows, float(t0)), np.full(n_rows, float(t1))]
    for k in sorted(set(size[size > 1].tolist())):
        f = np.flatnonzero(size == k)
        p = deriv[f[:, None], lead[f, None] + np.arange(k)]
        companion = np.zeros((len(f), k - 1, k - 1))
        companion[:, np.arange(1, k - 1), np.arange(k - 2)] = 1.0
        companion[:, 0, :] = -p[:, 1:] / p[:, :1]
        roots = np.linalg.eigvals(companion).real
        inside = (roots > t0) & (roots < t1)
        rows.append(np.broadcast_to(f[:, None], roots.shape)[inside])
        times.append(roots[inside])
    rows, times = np.concatenate(rows), np.concatenate(times)
    order = np.argsort(rows, kind="stable")  # a row's times stay in the order found
    return rows[order], times[order]


def _max_abs_slope(coeffs: np.ndarray, t0: float, t1: float) -> np.ndarray:
    """max over [t0, t1] of |d gamma / dt| for every row of ``coeffs`` (F, z),
    exact up to rounding: |gamma'| is largest at an end or at a root of
    gamma''."""
    deriv = derivative(coeffs)
    rows, times = extremum_times(deriv, t0, t1)
    out = np.zeros(len(deriv))
    np.maximum.at(out, rows, np.abs(polyval(deriv[rows], times)))
    return out


def analytic_slope_bound(face: TubeFace, horizon: tuple[float, float]) -> float:
    """max over the horizon of |d gamma / dt| (see ``_max_abs_slope``)."""
    return float(_max_abs_slope(face_coeffs([face]), *horizon)[0])


@dataclass(frozen=True)
class TubeDim:
    lower: TubeFace
    upper: TubeFace
    min_width: float


@dataclass(frozen=True)
class AgentTubes:
    dims: tuple[TubeDim, ...]
    name: str = ""


@dataclass(frozen=True)
class TubeSet:
    """Per-agent, per-dimension tube faces over a common horizon."""

    horizon: float
    agents: tuple[AgentTubes, ...]

    @property
    def agent_count(self) -> int:
        return len(self.agents)

    @property
    def dims(self) -> int:
        return len(self.agents[0].dims)

    def faces(self):
        """Iterate (agent_idx, dim_idx, side, face) over all faces."""
        for j, agent in enumerate(self.agents):
            for i, d in enumerate(agent.dims):
                yield j, i, "lower", d.lower
                yield j, i, "upper", d.upper


def tube_values(tubes: TubeSet, times) -> np.ndarray:
    """Every face at every time: (m, n, 2, T), lower then upper."""
    t = np.asarray(times, dtype=float)
    coeffs = face_coeffs([face for *_, face in tubes.faces()])
    return polyval(coeffs[:, None], t).reshape(tubes.agent_count, tubes.dims, 2, len(t))


def agent_coeffs(tubes: TubeSet, agent: int) -> np.ndarray:
    """One agent's face coefficients: (dims, 2, z), lower then upper, the
    rows of ``tube_values``' table for that agent (zero-padded to the
    agent's own top degree, which leaves every value bit for bit)."""
    faces = [(d.lower, d.upper) for d in tubes.agents[agent].dims]
    return face_coeffs([face for pair in faces for face in pair]).reshape(len(faces), 2, -1)


def agent_walls(coeffs: np.ndarray, times) -> tuple[np.ndarray, np.ndarray]:
    """One agent's walls at ``times`` from its ``agent_coeffs`` table:
    (lower, upper), each (dims, len(times)), bit for bit the faces of
    ``tube_values``."""
    t = np.asarray(times, dtype=float)
    lower, upper = polyval(coeffs[..., None, :], t).transpose(1, 0, 2)
    return lower, upper


def slope_bounds(tubes: TubeSet) -> tuple[float, float]:
    """(L_lower, L_upper): exact slope bounds over all faces per side."""
    coeffs = face_coeffs([face for *_, face in tubes.faces()])
    lower, upper = _max_abs_slope(coeffs, 0.0, tubes.horizon).reshape(-1, 2).max(axis=0)
    return float(lower), float(upper)


# ---------------------------------------------------------------------------
# Serialization (coefficients full precision)


def tubes_to_dict(tubes: TubeSet) -> dict:
    return {
        "horizon": tubes.horizon,
        "dims": tubes.dims,
        "agents": [
            {
                "name": a.name,
                "dims": [
                    {
                        "lower": list(d.lower.coeffs),
                        "upper": list(d.upper.coeffs),
                        "min_width": d.min_width,
                    }
                    for d in a.dims
                ],
            }
            for a in tubes.agents
        ],
    }


def tubes_from_dict(raw: dict) -> TubeSet:
    """Inverse of ``tubes_to_dict``.  Raises ValueError naming the field
    for a missing key, a value of the wrong type, no agents, or agents
    without dims or with different numbers of dims."""
    raw = _object(raw, "tubes: the file")
    horizon = _number(raw.get("horizon"), "tubes: horizon")
    if not 0 < horizon < math.inf:
        raise ValueError("tubes: horizon must be positive and finite")
    agents = []
    for j, a in enumerate(_list(raw.get("agents"), "tubes: agents"), 1):
        a = _object(a, f"tubes: agent {j}")
        dims = []
        for i, d in enumerate(_list(a.get("dims"), f"tubes: agent {j} dims"), 1):
            name = f"tubes: agent {j} dim {i}"
            d = _object(d, name)
            lower, upper = (
                TubeFace(tuple(_number(c, field) for c in _list(d.get(side), field)), side=side)
                for side, field in (("lower", f"{name} lower"), ("upper", f"{name} upper"))
            )
            min_width = _number(d.get("min_width"), f"{name} min_width")
            dims.append(TubeDim(lower=lower, upper=upper, min_width=min_width))
        if not dims:
            raise ValueError(f"tubes: agent {j} has no dims")
        agents.append(AgentTubes(dims=tuple(dims), name=str(a.get("name", ""))))
    if not agents:
        raise ValueError("tubes: no agents")
    if len({len(a.dims) for a in agents}) > 1:
        raise ValueError("tubes: agents differ in their number of dims")
    return TubeSet(horizon=horizon, agents=tuple(agents))


def save_tubes(tubes: TubeSet, path: str | Path) -> None:
    Path(path).write_text(json.dumps(tubes_to_dict(tubes), indent=2) + "\n")


def load_tubes(path: str | Path) -> TubeSet:
    return tubes_from_dict(json.loads(Path(path).read_text()))
