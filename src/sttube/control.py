"""Closed-form, approximation-free, decentralized tube-tracking control.

One stage law, applied per stage: normalize the error against the
stage's constraint, pass it through the logarithmic barrier transform
ln((1+e)/(1-e)), and scale by the barrier gain 4 / (gamma (1 - e^2)).
The kernel evaluates each term as (-+8 kappa) / (gamma (1-e)(1+e)) *
artanh(e), since ln((1+e)/(1-e)) = 2 artanh(e): the quotient loses
digits near the tube centre e = 0, 1 - e*e near the walls |e| = 1, and
the signed 8 = 4 * 2 folds into the stage gain exactly.
Stage 1 measures the output error against the time-varying tube walls
(gamma is the wall width); stages 2..N measure the tracking error
against exponentially narrowing funnels around the previous stage's
reference (gamma is the funnel radius).  The cascade's final output is
the plant input; no model of the dynamics enters anywhere.

Everything the law needs from time is one constraint row: the stage-1
wall widths hi - lo, the wall sums hi + lo, then each funnel's radii.
``constraint_rows`` builds the rows for many times at once (the
simulator does so once per block of steps), ``constraint_row`` one row
for one time, and ``stage1_errors`` forms the stage-1 errors of many
states against their rows at once.  ``control_input`` reads a row and
the flat stacked state and does the per-state arithmetic only.  The
law is written once, as source templates: ``law_lines`` unrolls it for
one (stages, dims) over named locals (per component: error, optional
strict check, clamp and barrier term), and ``gain_lines`` binds the
gains and clamp bounds it reads.  ``_law_source`` wraps them into the
kernel ``law(state, row, config, strict, telemetry)`` that
``control_input`` compiles the first time each shape (stages, dims) is
seen, registered in ``linecache`` as ``<sttube law 2x3>`` and the like;
strict and lenient calls run the same kernel, whose strict check is a
branch taken only for a state on or outside its constraint.  The closed
loop's RK4 blocks (``sim``) inline the same lines.
Only shape integers and name prefixes enter the source.  Rows and the
law use one agent's data only, so an agent's input is byte-identical
whether or not other agents exist.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from math import atanh

import numpy as np

from .codegen import compile_function, indent, names


class ControllerIntegrityError(RuntimeError):
    """A stage state left its tube/funnel; carries the stage index, and
    for a collapsed stage-1 tube the offending wall width."""

    def __init__(self, stage: int, detail: str = "", width: float | None = None):
        super().__init__(f"stage {stage} state outside its constraint {detail}")
        self.stage = stage
        self.detail = detail
        self.width = width

    def __reduce__(self):
        # The default rebuilds from ``args``, the formatted message, which
        # would be formatted a second time as the detail.
        return type(self), (self.stage, self.detail, self.width)


@dataclass(frozen=True)
class Funnel:
    """Exponentially narrowing radii (p - q) exp(-mu t) + q per dimension."""

    p: tuple[float, ...]
    q: tuple[float, ...]
    mu: tuple[float, ...]

    def __post_init__(self):
        if not len(self.p) == len(self.q) == len(self.mu) > 0:
            raise ValueError("funnel needs one p, q and mu per dimension, at least one")
        for p, q, mu in zip(self.p, self.q, self.mu):
            if not (math.inf > p > q > 0.0):
                raise ValueError("funnel needs finite p > q > 0")
            if not 0.0 < mu < math.inf:
                raise ValueError("funnel decay rate must be positive and finite")

    def radii(self, times) -> np.ndarray:
        """Radii at each time, (len(times), dims).  The decay factor comes
        from ``math.exp``, once per time and distinct rate: ``np.exp``
        differs from it in the last bit for some inputs, and the closed
        loop must not depend on which is used."""
        rates = list(dict.fromkeys(self.mu))
        which = [rates.index(mu) for mu in self.mu]
        exponents = -np.asarray(rates) * np.asarray(times, dtype=float)[:, None]
        decay = np.fromiter(
            map(math.exp, exponents.ravel().tolist()), float, exponents.size
        ).reshape(exponents.shape)
        return np.subtract(self.p, self.q) * decay[:, which] + np.asarray(self.q)


@dataclass(frozen=True)
class ControllerConfig:
    """Per-stage gains, funnels for stages 2..N, and the error guard."""

    kappa: tuple[float, ...]
    funnels: tuple[Funnel, ...] = ()
    e_max: float = 1.0 - 1e-9
    g_negative_definite: bool = False

    def __post_init__(self):
        if not self.kappa:
            raise ValueError("need at least one stage gain")
        if not all(0.0 < k < math.inf for k in self.kappa):
            raise ValueError("stage gains must be positive and finite")
        if not 0.0 < self.e_max < 1.0:
            raise ValueError("e_max must lie in (0, 1)")
        if len(self.funnels) != len(self.kappa) - 1:
            raise ValueError("need one funnel per stage beyond the first")


@dataclass
class StageTelemetry:
    """Per-call guard bookkeeping; clamp events stress the invariance margin."""

    clamp_count: int = 0


_MISMATCH = "state or constraint row does not match the stage count"


def stage1_errors(states, rows, stages: int) -> np.ndarray:
    """Stage-1 errors of stacked states against their constraint rows.

    ``states`` is (..., stages * dims) and ``rows`` (..., (stages + 1) *
    dims) for a whole dims > 0; other lengths raise ValueError.  The
    array twin of the stage-1 error (2x - (hi + lo)) / (hi - lo) that
    ``control_input`` forms, bit for bit.
    """
    states = np.asarray(states, dtype=float)
    rows = np.asarray(rows, dtype=float)
    n, rest = divmod(rows.shape[-1], stages + 1)
    if rest or not n or states.shape[-1] != stages * n:
        raise ValueError(_MISMATCH)
    return (2.0 * states[..., :n] - rows[..., n : 2 * n]) / rows[..., :n]


def constraint_rows(lower, upper, config: ControllerConfig, times) -> np.ndarray:
    """Constraint rows for ``control_input``, one per time.

    ``lower``/``upper`` are the stage-1 walls at ``times``, shape
    (len(times), dims).  Each row is the wall widths hi - lo, the wall
    sums hi + lo, then the radii of funnels 2..N at that time:
    (N + 1) * dims values for N stages (``len(config.kappa)``).
    """
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    return np.hstack(
        [upper - lower, upper + lower, *(f.radii(times) for f in config.funnels)]
    )


def constraint_row(lower, upper, config: ControllerConfig, t: float) -> list[float]:
    """The single constraint row for walls ``lower``/``upper`` at time ``t``."""
    return constraint_rows([lower], [upper], config, [t])[0].tolist()


def _strict_failure(state, row, ref, k: int, n: int, before: int, telemetry) -> None:
    """Raise the strict error of stage k (0-based), with the clamps of the
    stages before it counted, unless its worst |e| is below 1 (or NaN).
    The errors are against the walls, or funnel k around the previous
    stage's reference ``ref``.  Only a failing component leads here, so
    the stage's errors are simply formed again."""
    if k:
        e = [(state[k * n + i] - ref[i]) / row[(k + 1) * n + i] for i in range(n)]
    else:
        e = [(2.0 * state[i] - row[n + i]) / row[i] for i in range(n)]
    worst = max(abs(v) for v in e)
    if worst >= 1.0:
        if telemetry is not None:
            telemetry.clamp_count += before
        raise ControllerIntegrityError(k + 1, f"(|e|={worst:.6g})")


def _collapsed(widths, t: float | None = None) -> None:
    """The stage-1 error of a collapsed tube: raised when ``min(widths)``
    is not positive, with that width (a NaN minimum passes).  ``t``, the
    time of an integrator's midpoint or step-end evaluation, is named in
    the message when given."""
    width = min(widths)
    if width <= 0.0:
        at = "" if t is None else f" at t={t:.6g}"
        raise ControllerIntegrityError(1, f"(tube width {width:.6g}{at})", width)


def gain_lines(stages: int) -> list[str]:
    """Source lines that bind what the law reads from ``config``: the
    stage gains ``kappa<k>`` as -8 kappa_k (+8 kappa_k for a plant with
    negative-definite input gain), exactly, so that a term is (-+8 kappa)
    / (gamma (1-e)(1+e)) * artanh(e); the clamp bounds ``e_hi``/``e_lo``;
    and a clamp count ``clamps`` of 0."""
    return [
        f"{names('kappa', stages)}= config.kappa",
        "sign = 8.0 if config.g_negative_definite else -8.0",
        *(f"kappa{k} = sign * kappa{k}" for k in range(stages)),
        "e_hi = config.e_max; e_lo = -e_hi; clamps = 0",
    ]


def width_test(dims: int, w: str) -> str:
    """The condition that the stage-1 widths ``{w}0 ..`` are not all
    positive (a NaN width fails it too)."""
    return f"not ({' and '.join(f'{w}{i} > 0.0' for i in range(dims))})"


def law_lines(stages: int, dims: int, x: str, w: str, checked: bool = False) -> list[str]:
    """The stage law for one state and one row, unrolled into source lines
    with no loop.  ``{x}<j>`` is state[j], ``{w}<j>`` row[j] and
    ``r<k>_<i>`` stage k's reference in component i, so the input is left
    in ``r<stages-1>_<i>``.  The lines read the names of ``gain_lines``
    and add their clamps to ``clamps``.  ``checked`` adds the strict
    check, which runs only for |e| >= 1 and then reads ``strict``,
    ``state``, ``row`` and ``telemetry``.  The stage-1 width check is the
    caller's.  Only the integers and prefixes enter the text, never
    scenario data."""
    n = dims
    out = []
    for k in range(stages):
        if checked:
            out.append("before = clamps")
        for i in range(n):
            j = k * n + i
            if k:
                g, error = f"{w}{j + n}", f"({x}{j} - r{k - 1}_{i}) / {w}{j + n}"
            else:
                g, error = f"{w}{i}", f"(2.0 * {x}{i} - {w}{n + i}) / {w}{i}"
            out.append(f"v = {error}")
            if checked:
                ref = f"({names(f'r{k - 1}_', n)})" if k else "None"
                out.append(
                    "if (v >= 1.0 or v <= -1.0) and strict:"
                    f" _strict_failure(state, row, {ref}, {k}, {n}, before, telemetry)"
                )
            out += [
                "if v > e_hi: v = e_hi; clamps += 1",
                "elif v < e_lo: v = e_lo; clamps += 1",
                f"r{k}_{i} = kappa{k} / ({g} * ((1.0 - v) * (1.0 + v))) * atanh(v)",
            ]
    return out


def _law_source(stages: int, dims: int) -> str:
    """The source of ``law(state, row, config, strict, telemetry)`` for
    one shape: unpack, width check, ``gain_lines`` and checked
    ``law_lines``."""
    return "\n".join([
        "def law(state, row, config, strict, telemetry):",
        f" try: {names('x', stages * dims)}= state",
        " except ValueError: raise ValueError(_MISMATCH) from None",
        f" {names('w', (stages + 1) * dims)}= row",
        f" if {width_test(dims, 'w')}: _collapsed(row[:{dims}])",
        *indent(gain_lines(stages) + law_lines(stages, dims, "x", "w", checked=True)),
        " if telemetry is not None: telemetry.clamp_count += clamps",
        f" return ({names(f'r{stages - 1}_', dims)})",
    ]) + "\n"


@functools.cache
def _kernel(stages: int, width: int):
    """The law for ``stages`` stages and rows of ``width`` entries,
    compiled once per shape and named for it."""
    dims, rest = divmod(width, stages + 1)
    if rest or not dims:
        raise ValueError(_MISMATCH)
    return compile_function(_law_source(stages, dims), f"<sttube law {stages}x{dims}>", globals())


def control_input(
    state,
    row,
    config: ControllerConfig,
    strict: bool = True,
    telemetry: StageTelemetry | None = None,
) -> tuple[float, ...]:
    """Cascade the stages and return the plant input.

    ``state`` is the flat stacked state (x_1 .. x_N, each of output
    dimension); ``row`` is its constraint row (``constraint_row``): the
    stage-1 wall widths and sums, then the funnel radii.  Stage 1
    measures its error (2x - (hi + lo)) / (hi - lo) against the walls,
    stage k the error (x_k - r) / radius against funnel k around the
    previous stage's reference r.  Per component, the error is clamped
    once into [-e_max, e_max] (each clamp counts in ``telemetry``),
    transformed by ln((1+e)/(1-e)), and scaled by the barrier gain
    4 / (gamma (1 - e^2)) and by -kappa (+kappa for a plant with
    negative-definite input gain); gamma is the wall width or funnel
    radius.  The term is evaluated as (-+8 kappa) / (gamma (1-e)(1+e)) *
    artanh(e).  The result is the next stage's reference, and the last
    stage's is the plant input.

    With ``strict`` the call raises ControllerIntegrityError when a stage
    state lies on or outside its constraint (|e| >= 1); intermediate
    integrator evaluations pass strict=False and rely on the guard clamp
    instead.  A collapsed stage-1 tube (wall width <= 0) raises the
    stage-1 error in either mode, with the smallest width as its
    ``width``.  Funnel radii are not checked: ``Funnel`` makes them
    positive.  A state or row of the wrong length raises ValueError.
    """
    return _kernel(len(config.kappa), len(row))(state, row, config, strict, telemetry)


def autosize_funnels(
    state,
    stage1_lower,
    stage1_upper,
    kappa,
    q: float,
    mu: float,
    p_margin: float,
    e_max: float = 1.0 - 1e-9,
    g_negative_definite: bool = False,
) -> tuple[Funnel, ...]:
    """Default funnels for stages 2..N, sized at the initial state.

    ``state`` is the flat stacked initial state and the walls are those at
    t = 0.  Each initial radius covers twice the initial tracking gap plus
    a margin, so every stage starts strictly inside its funnel.  Stages
    are sized in order because stage k's reference is the output of the
    cascade of stages 1..k-1 and their funnels.
    """
    dims = len(stage1_lower)
    funnels = []
    for k in range(1, len(state) // dims):
        config = ControllerConfig(
            kappa=tuple(kappa[:k]),
            funnels=tuple(funnels),
            e_max=e_max,
            g_negative_definite=g_negative_definite,
        )
        row = constraint_row(stage1_lower, stage1_upper, config, 0.0)
        ref = control_input(state[: k * dims], row, config, strict=False)
        p = tuple(
            max(2.0 * abs(x - r) + p_margin, 2.0 * q)
            for x, r in zip(state[k * dims : (k + 1) * dims], ref)
        )
        funnels.append(Funnel(p=p, q=(q,) * dims, mu=(mu,) * dims))
    return tuple(funnels)
