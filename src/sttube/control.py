"""Closed-form, approximation-free, decentralized tube-tracking control.

One stage law, applied per stage (``stage_reference``): normalize the
error against the stage's constraint, pass it through the logarithmic
barrier transform ln((1+e)/(1-e)), and scale by the barrier gain
4 / (gamma (1 - e^2)).  Stage 1 measures the output error against the
time-varying tube walls (gamma is the wall width); stages 2..N measure
the tracking error against exponentially narrowing funnels around the
previous stage's reference (gamma is the funnel radius).  The cascade's
final output is the plant input; no model of the dynamics enters
anywhere.

All functions are pure scalar arithmetic on sequences (one agent's data
only), so an agent's input is byte-identical whether or not other agents
exist.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


class ControllerIntegrityError(RuntimeError):
    """A stage state left its tube/funnel; carries the stage index."""

    def __init__(self, stage: int, detail: str = ""):
        super().__init__(f"stage {stage} state outside its constraint {detail}")
        self.stage = stage


@dataclass(frozen=True)
class Funnel:
    """Exponentially narrowing radii (p - q) exp(-mu t) + q per dimension."""

    p: tuple[float, ...]
    q: tuple[float, ...]
    mu: tuple[float, ...]

    def __post_init__(self):
        for p, q, mu in zip(self.p, self.q, self.mu):
            if not (p > q > 0.0):
                raise ValueError("funnel needs p > q > 0")
            if mu <= 0.0:
                raise ValueError("funnel decay rate must be positive")

    def radius(self, t: float) -> tuple[float, ...]:
        return tuple(
            (p - q) * math.exp(-mu * t) + q
            for p, q, mu in zip(self.p, self.q, self.mu)
        )


@dataclass(frozen=True)
class ControllerConfig:
    """Per-stage gains, funnels for stages 2..N, and the error guard."""

    kappa: tuple[float, ...]
    funnels: tuple[Funnel, ...] = ()
    e_max: float = 1.0 - 1e-9
    g_negative_definite: bool = False

    def __post_init__(self):
        if any(k <= 0.0 for k in self.kappa):
            raise ValueError("stage gains must be positive")
        if not 0.0 < self.e_max < 1.0:
            raise ValueError("e_max must lie in (0, 1)")
        if len(self.funnels) != len(self.kappa) - 1:
            raise ValueError("need one funnel per stage beyond the first")

    @property
    def stage_count(self) -> int:
        return len(self.kappa)


@dataclass
class StageTelemetry:
    """Per-call guard bookkeeping; clamp events stress the invariance margin."""

    clamp_count: int = 0


def stage1_error(x1, lower, upper) -> tuple[float, ...]:
    """Normalized output error (2x - (hi + lo)) / (hi - lo); 0 at center."""
    return tuple(
        (2.0 * x - (hi + lo)) / (hi - lo) for x, lo, hi in zip(x1, lower, upper)
    )


def stage_reference(
    e, gamma, kappa: float, e_max: float, negative_definite: bool = False
) -> tuple[tuple[float, ...], int]:
    """One stage of the cascade: the next stage's reference from this
    stage's normalized error ``e`` and constraint width ``gamma``.

    Per component, e is clamped once into [-e_max, e_max], transformed by
    ln((1+e)/(1-e)), and scaled by the barrier gain 4 / (gamma (1 - e^2))
    and by -kappa (+kappa for a plant with negative-definite input gain).
    Returns the reference and the number of clamped components.
    """
    gain = kappa if negative_definite else -kappa
    out = []
    clamps = 0
    for v, g in zip(e, gamma):
        if g <= 0.0:
            raise ControllerIntegrityError(0, f"(nonpositive width {g})")
        if v > e_max:
            v = e_max
            clamps += 1
        elif v < -e_max:
            v = -e_max
            clamps += 1
        xi = 4.0 / (g * (1.0 - v * v))
        out.append(gain * xi * math.log((1.0 + v) / (1.0 - v)))
    return tuple(out), clamps


def stage_k_error(x_k, r_k, radius) -> tuple[float, ...]:
    """Funnel-normalized tracking error (x_k - r_k) / radius."""
    return tuple((x - r) / g for x, r, g in zip(x_k, r_k, radius))


def control_input(
    states,
    stage1_lower,
    stage1_upper,
    config: ControllerConfig,
    t: float,
    strict: bool = True,
    telemetry: StageTelemetry | None = None,
) -> tuple[float, ...]:
    """Cascade the stages and return the plant input.

    ``states`` is the per-stage state list (x_1 .. x_N), each of output
    dimension; stage-1 bounds are the tube walls at time t.  Stage 1
    measures its error against the walls, stage k against funnel k around
    the previous stage's reference.  With ``strict`` the call raises
    ControllerIntegrityError when a stage state lies on or outside its
    constraint; intermediate integrator evaluations pass strict=False and
    rely on the guard clamp instead.  A collapsed stage-1 tube (wall width
    <= 0) raises the stage-1 error in either mode.
    """
    if len(states) != config.stage_count:
        raise ValueError("state count does not match stage count")
    ref = ()
    for k, x in enumerate(states):
        if k == 0:
            gamma = tuple(hi - lo for lo, hi in zip(stage1_lower, stage1_upper))
            if min(gamma) <= 0.0:
                raise ControllerIntegrityError(1, f"(tube width {min(gamma):.6g} at t={t:.6g})")
            e = stage1_error(x, stage1_lower, stage1_upper)
        else:
            gamma = config.funnels[k - 1].radius(t)
            e = stage_k_error(x, ref, gamma)
        if strict:
            worst = max(abs(v) for v in e)
            if worst >= 1.0:
                raise ControllerIntegrityError(k + 1, f"(|e|={worst:.6g} at t={t:.6g})")
        ref, clamps = stage_reference(
            e, gamma, config.kappa[k], config.e_max, config.g_negative_definite
        )
        if telemetry is not None:
            telemetry.clamp_count += clamps
    return ref


def autosize_funnels(
    states,
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

    Each initial radius covers twice the initial tracking gap plus a
    margin, so every stage starts strictly inside its funnel.  Stages are
    sized in order because stage k's reference is the output of the
    cascade of stages 1..k-1 and their funnels.
    """
    dims = len(states[0])
    funnels = []
    for k in range(1, len(states)):
        config = ControllerConfig(
            kappa=tuple(kappa[:k]),
            funnels=tuple(funnels),
            e_max=e_max,
            g_negative_definite=g_negative_definite,
        )
        ref = control_input(
            states[:k], stage1_lower, stage1_upper, config, t=0.0, strict=False
        )
        p = tuple(
            max(2.0 * abs(x - r) + p_margin, 2.0 * q)
            for x, r in zip(states[k], ref)
        )
        funnels.append(Funnel(p=p, q=(q,) * dims, mu=(mu,) * dims))
    return tuple(funnels)
