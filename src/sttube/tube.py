"""Polynomial tube faces, their derivatives, and analytic slope bounds.

A tube face is a monomial-basis polynomial of time,
``gamma(t) = c0 + c1 t + ... + c_{z-1} t^{z-1}``.  A TubeSet holds, per
agent and per output dimension, a lower and an upper face plus the
required minimum separation between them.  All operations are pure.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .scenario import Box, Interval


class TubeIntegrityError(ValueError):
    """A tube set violates its own width invariant."""


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


def horner(reversed_coeffs, t):
    """Values at ``t`` (a float or an array) of several polynomials, each
    given by its coefficients from the highest degree down (Horner's
    rule)."""
    out = []
    for coeffs in reversed_coeffs:
        acc = 0.0
        for c in coeffs:
            acc = acc * t + c
        out.append(acc)
    return tuple(out)


def eval_face(face: TubeFace, t: float) -> float:
    """Horner evaluation of the face polynomial at time ``t``."""
    return horner((face.coeffs[::-1],), t)[0]


def derivative_coeffs(coeffs) -> tuple[float, ...]:
    if len(coeffs) == 1:
        return (0.0,)
    return tuple(k * c for k, c in enumerate(coeffs) if k >= 1)


def eval_face_derivative(face: TubeFace, t: float) -> float:
    """Exact time derivative of the face polynomial at ``t``."""
    return horner((derivative_coeffs(face.coeffs)[::-1],), t)[0]


def eval_face_array(face: TubeFace, times: np.ndarray) -> np.ndarray:
    return horner((face.coeffs[::-1],), np.asarray(times))[0]


def analytic_slope_bound(
    face: TubeFace, horizon: tuple[float, float], grid_points: int = 10_000
) -> float:
    """max over the horizon of |d gamma / dt|.

    For degree <= 3 the derivative's extrema are located exactly from the
    roots of the second derivative.  Higher degrees fall back to a dense
    grid with an over-approximation margin of max|gamma''| * (spacing/2)
    added, so the returned value is always an upper bound.
    """
    t0, t1 = horizon
    dcoeffs = derivative_coeffs(face.coeffs)
    if len(dcoeffs) == 1:
        return abs(dcoeffs[0])
    ddcoeffs = derivative_coeffs(dcoeffs)
    if face.degree <= 3:
        # gamma'' = c0 + c1 t is linear or constant; a constant gamma''
        # (c1 == 0) puts the extrema at the endpoints only.
        candidates = [t0, t1]
        if len(ddcoeffs) > 1 and ddcoeffs[1] != 0.0:
            root = float(-ddcoeffs[0] / ddcoeffs[1])
            if t0 <= root <= t1:
                candidates.append(root)
        return float(max(abs(horner((dcoeffs[::-1],), t)[0]) for t in candidates))
    grid = np.linspace(t0, t1, grid_points)
    dvals, ddvals = horner((dcoeffs[::-1], ddcoeffs[::-1]), grid)
    curvature = float(np.max(np.abs(ddvals)))
    spacing = (t1 - t0) / (grid_points - 1)
    return float(np.max(np.abs(dvals))) + 0.5 * curvature * spacing


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
    """Every face at every time: (m, n, 2, T), lower then upper.

    Horner's rule over all faces at once, on coefficients zero-padded to
    the top degree; the leading zeros leave every value bit-identical to
    ``eval_face``.
    """
    t = np.asarray(times, dtype=float)
    pairs = [(d.lower, d.upper) for a in tubes.agents for d in a.dims]
    z_max = max(len(face.coeffs) for pair in pairs for face in pair)
    coeffs = np.zeros((len(pairs), 2, z_max))
    for f, pair in enumerate(pairs):
        for side, face in enumerate(pair):
            coeffs[f, side, : len(face.coeffs)] = face.coeffs
    acc = np.zeros(coeffs.shape[:2] + t.shape)
    for k in range(z_max - 1, -1, -1):
        acc *= t
        acc += coeffs[:, :, k, None]
    return acc.reshape(tubes.agent_count, tubes.dims, 2, len(t))


def tube_box_at(tubes: TubeSet, agent: int, t: float) -> Box:
    """Per-dimension interval [lower(t), upper(t)] for one agent.

    Raises TubeIntegrityError when a face pair is inverted or closer than
    the declared minimum width, naming agent, dim, and t.
    """
    dims = tubes.agents[agent].dims
    lows = horner([d.lower.coeffs[::-1] for d in dims], t)
    highs = horner([d.upper.coeffs[::-1] for d in dims], t)
    axes = []
    for i, (d, lo, hi) in enumerate(zip(dims, lows, highs)):
        if hi - lo < d.min_width:
            raise TubeIntegrityError(
                f"agent {agent + 1} dim {i + 1} at t={t:g}: "
                f"width {hi - lo:.6g} below minimum {d.min_width:g}"
            )
        axes.append(Interval(lo, hi))
    return Box(tuple(axes))


def slope_bounds(tubes: TubeSet) -> tuple[float, float]:
    """(L_lower, L_upper): analytic slope bounds over all faces per side."""
    span = (0.0, tubes.horizon)
    ll = max(
        analytic_slope_bound(d.lower, span) for a in tubes.agents for d in a.dims
    )
    lu = max(
        analytic_slope_bound(d.upper, span) for a in tubes.agents for d in a.dims
    )
    return ll, lu


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
    agents = []
    for a in raw["agents"]:
        dims = tuple(
            TubeDim(
                lower=TubeFace(tuple(float(c) for c in d["lower"]), side="lower"),
                upper=TubeFace(tuple(float(c) for c in d["upper"]), side="upper"),
                min_width=float(d["min_width"]),
            )
            for d in a["dims"]
        )
        agents.append(AgentTubes(dims=dims, name=str(a.get("name", ""))))
    return TubeSet(horizon=float(raw["horizon"]), agents=tuple(agents))


def save_tubes(tubes: TubeSet, path: str | Path) -> None:
    Path(path).write_text(json.dumps(tubes_to_dict(tubes), indent=2) + "\n")


def load_tubes(path: str | Path) -> TubeSet:
    return tubes_from_dict(json.loads(Path(path).read_text()))
