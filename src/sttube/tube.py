"""Polynomial tube faces, their derivatives, and exact slope bounds.

A tube face is a monomial-basis polynomial of time,
``gamma(t) = c0 + c1 t + ... + c_{z-1} t^{z-1}``.  A TubeSet holds, per
agent and per output dimension, a lower and an upper face plus the
required minimum separation between them, as one read-only table:
``coeffs`` (agents, dims, 2, z), lower face then upper, constant term
first, zero-padded to the top degree, with each face's own coefficient
count in ``sizes`` so that a tube file round-trips byte for byte.  Only
this module builds the table or writes it out; every other module reads
it.  All operations are pure.

Every extremum time in the package comes from the one polynomial kernel
here, and so does every face or derivative value but those of the
synthesis LP: ``polyval`` (Horner's rule over coefficient arrays,
constant term first, zero-padded to the top degree) and
``extremum_times`` (the ends of an interval and the real roots of the
derivative, found by one batched companion-matrix eigenvalue call per
root count).  ``SopInstance.face_values`` and the LP rows of synthesis
use the Vandermonde powers of their times (``np.vander``) instead.
``tube_values`` evaluates every face at many times, and
``agent_walls`` one agent's lower and upper walls from its rows of the
table, ``tubes.coeffs[agent]``, which the closed loop and its containment
check read.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .scenario import ScenarioSpec, _integer, _list, _number, _object

FACE_SIDES = ("lower", "upper")  # the order of a table's third axis


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


def analytic_slope_bound(coeffs, horizon: tuple[float, float]) -> float:
    """max over the horizon of |d gamma / dt| for one face's coefficient
    row, constant term first (see ``_max_abs_slope``)."""
    return float(_max_abs_slope(np.reshape(coeffs, (1, -1)), *horizon)[0])


@dataclass(frozen=True, eq=False)
class TubeSet:
    """Every tube face over a common horizon, as one read-only table.

    ``coeffs`` is (agents, dims, 2, z): per agent and dim the lower face,
    then the upper, constant term first, zero-padded to the top degree.
    ``sizes`` (agents, dims, 2) is each face's own coefficient count,
    ``min_widths`` (agents, dims) the required separation of the two
    faces, and ``names`` one name per agent.  The arrays are copied and
    marked read-only; shapes that disagree raise ValueError.
    """

    horizon: float
    coeffs: np.ndarray
    sizes: np.ndarray
    min_widths: np.ndarray
    names: tuple[str, ...]

    def __post_init__(self):
        for field, dtype in (("coeffs", float), ("sizes", int), ("min_widths", float)):
            array = np.array(getattr(self, field), dtype=dtype)
            array.flags.writeable = False
            object.__setattr__(self, field, array)
        object.__setattr__(self, "names", tuple(self.names))
        shape, sizes = self.coeffs.shape, self.sizes
        if not (
            len(shape) == 4 and shape[2] == 2 and 0 not in shape and sizes.shape == shape[:3]
            and ((sizes >= 1) & (sizes <= shape[3])).all()
            and self.min_widths.shape == shape[:2] and len(self.names) == shape[0]
        ):
            raise ValueError(
                f"tube table shapes disagree: coeffs {shape}, sizes {sizes.shape} (each in "
                f"[1, z]), min_widths {self.min_widths.shape}, {len(self.names)} names"
            )

    @property
    def agent_count(self) -> int:
        return self.coeffs.shape[0]

    @property
    def dims(self) -> int:
        return self.coeffs.shape[1]


def require_fit(tubes: TubeSet, spec: ScenarioSpec) -> None:
    """Raise ValueError unless ``tubes`` hold the scenario's agents and
    dims over at least its horizon: a shorter scenario reads their first
    part, a longer one would extrapolate the polynomials."""
    shape = (tubes.agent_count, tubes.dims)
    if shape != (spec.agent_count, spec.dims) or spec.horizon > tubes.horizon:
        raise ValueError(
            "tubes do not match the scenario: (agents, dims, horizon) "
            f"{(*shape, tubes.horizon)} in the tubes, "
            f"{(spec.agent_count, spec.dims, spec.horizon)} in the scenario"
        )


def tube_values(tubes: TubeSet, times) -> np.ndarray:
    """Every face at every time: (m, n, 2, T), lower then upper."""
    return polyval(tubes.coeffs[..., None, :], np.asarray(times, dtype=float))


def agent_walls(coeffs: np.ndarray, times) -> tuple[np.ndarray, np.ndarray]:
    """One agent's walls at ``times`` from its coefficient table
    ``tubes.coeffs[agent]``: (lower, upper), each (dims, len(times)), bit
    for bit the faces of ``tube_values``."""
    t = np.asarray(times, dtype=float)
    lower, upper = polyval(coeffs[..., None, :], t).transpose(1, 0, 2)
    return lower, upper


def slope_bounds(tubes: TubeSet) -> tuple[float, float]:
    """(L_lower, L_upper): exact slope bounds over all faces per side."""
    rows = tubes.coeffs.reshape(-1, tubes.coeffs.shape[-1])
    lower, upper = _max_abs_slope(rows, 0.0, tubes.horizon).reshape(-1, 2).max(axis=0)
    return float(lower), float(upper)


# ---------------------------------------------------------------------------
# Serialization (coefficients full precision)


def tubes_to_dict(tubes: TubeSet) -> dict:
    agents = [
        {"name": name, "dims": [
            {side: face[:size].tolist() for side, face, size in zip(FACE_SIDES, faces, sizes)}
            | {"min_width": min_width}
            for faces, sizes, min_width in zip(coeffs, face_sizes, min_widths.tolist())
        ]}
        for name, coeffs, face_sizes, min_widths in zip(
            tubes.names, tubes.coeffs, tubes.sizes, tubes.min_widths
        )
    ]
    return {"horizon": tubes.horizon, "dims": tubes.dims, "agents": agents}


def tubes_from_dict(raw: dict) -> TubeSet:
    """Inverse of ``tubes_to_dict``.  Raises ValueError naming the field
    for a missing key, a value of the wrong type, a non-finite
    coefficient, a min_width that is not positive and finite, no agents,
    agents without dims or with different numbers of dims, or a ``dims``
    that differs from the agents' dim count."""
    raw = _object(raw, "tubes: the file")
    horizon = _number(raw.get("horizon"), "tubes: horizon")
    if not 0 < horizon < math.inf:
        raise ValueError("tubes: horizon must be positive and finite")
    faces, min_widths, names, dim_counts = [], [], [], set()
    for j, a in enumerate(_list(raw.get("agents"), "tubes: agents"), 1):
        a = _object(a, f"tubes: agent {j}")
        dims = _list(a.get("dims"), f"tubes: agent {j} dims")
        if not dims:
            raise ValueError(f"tubes: agent {j} has no dims")
        for i, d in enumerate(dims, 1):
            name = f"tubes: agent {j} dim {i}"
            d = _object(d, name)
            for side in FACE_SIDES:
                field = f"{name} {side}"
                face = [_number(c, field) for c in _list(d.get(side), field)]
                if not face:
                    raise ValueError(f"{field} needs at least one coefficient")
                if not all(map(math.isfinite, face)):
                    raise ValueError(f"{field} must be finite")
                faces.append(face)
            min_width = _number(d.get("min_width"), f"{name} min_width")
            if not 0 < min_width < math.inf:
                raise ValueError(f"{name} min_width must be positive and finite")
            min_widths.append(min_width)
        names.append(str(a.get("name", "")))
        dim_counts.add(len(dims))
    if not names:
        raise ValueError("tubes: no agents")
    if len(dim_counts) > 1:
        raise ValueError("tubes: agents differ in their number of dims")
    (n,) = dim_counts
    if "dims" in raw and _integer(raw["dims"], "tubes: dims") != n:
        raise ValueError(f"tubes: dims is {raw['dims']!r} but the agents have {n}")
    sizes = np.array([len(face) for face in faces])
    coeffs = np.zeros((len(faces), sizes.max()))
    for row, face in zip(coeffs, faces):
        row[: len(face)] = face
    shape = (len(names), n, 2)
    return TubeSet(
        horizon=horizon,
        coeffs=coeffs.reshape(*shape, -1),
        sizes=sizes.reshape(shape),
        min_widths=np.reshape(min_widths, shape[:2]),
        names=tuple(names),
    )


def save_tubes(tubes: TubeSet, path: str | Path) -> None:
    Path(path).write_text(json.dumps(tubes_to_dict(tubes), indent=2) + "\n")


def load_tubes(path: str | Path) -> TubeSet:
    return tubes_from_dict(json.loads(Path(path).read_text()))
