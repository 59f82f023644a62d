"""Closed-form, approximation-free, decentralized tube-tracking control.

Stage 1 normalizes the output error against the time-varying tube walls,
passes it through the logarithmic barrier transform, and scales by the
tube-width gain matrix.  Stages 2..N repeat the construction against
exponentially narrowing funnels around the previous stage's reference.
The cascade's final output is the plant input; no model of the dynamics
enters anywhere.

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


def transform_error(e, e_max: float) -> tuple[tuple[float, ...], int]:
    """Componentwise log-ratio ln((1+e)/(1-e)) after clamping into [-e_max, e_max].

    Returns the transformed vector and the number of clamped components.
    """
    clamped = 0
    out = []
    for v in e:
        if v > e_max:
            v = e_max
            clamped += 1
        elif v < -e_max:
            v = -e_max
            clamped += 1
        out.append(math.log((1.0 + v) / (1.0 - v)))
    return tuple(out), clamped


def xi_matrix(e, gamma_d) -> tuple[float, ...]:
    """Diagonal gain 4 / (gamma_d (1 - e^2)); grows without bound at the walls."""
    out = []
    for v, g in zip(e, gamma_d):
        if g <= 0.0:
            raise ControllerIntegrityError(0, f"(nonpositive width {g})")
        out.append(4.0 / (g * (1.0 - v * v)))
    return tuple(out)


def stage_output(kappa: float, eps, xi, negative_definite: bool = False) -> tuple[float, ...]:
    """Reference for the next stage: -kappa * xi * eps componentwise.

    A plant with negative-definite input gain flips the sign.
    """
    gain = kappa if negative_definite else -kappa
    return tuple(gain * x * v for x, v in zip(xi, eps))


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
    dimension; stage-1 bounds are the tube walls at time t.  With
    ``strict`` the call raises ControllerIntegrityError when a stage
    state lies on or outside its constraint; intermediate integrator
    evaluations pass strict=False and rely on the guard clamp instead.
    """
    if len(states) != config.stage_count:
        raise ValueError("state count does not match stage count")
    tel = telemetry if telemetry is not None else StageTelemetry()

    e = stage1_error(states[0], stage1_lower, stage1_upper)
    worst = max(abs(v) for v in e)
    if strict and worst >= 1.0:
        raise ControllerIntegrityError(1, f"(|e|={worst:.6g} at t={t:.6g})")
    eps, clamps = transform_error(e, config.e_max)
    tel.clamp_count += clamps
    e_guarded = tuple(max(-config.e_max, min(config.e_max, v)) for v in e)
    width = tuple(hi - lo for lo, hi in zip(stage1_lower, stage1_upper))
    xi = xi_matrix(e_guarded, width)
    r_next = stage_output(config.kappa[0], eps, xi, config.g_negative_definite)

    for k in range(1, config.stage_count):
        radius = config.funnels[k - 1].radius(t)
        e_k = stage_k_error(states[k], r_next, radius)
        worst = max(abs(v) for v in e_k)
        if strict and worst >= 1.0:
            raise ControllerIntegrityError(k + 1, f"(|e|={worst:.6g} at t={t:.6g})")
        eps_k, clamps = transform_error(e_k, config.e_max)
        tel.clamp_count += clamps
        e_k_guarded = tuple(
            max(-config.e_max, min(config.e_max, v)) for v in e_k
        )
        xi_k = xi_matrix(e_k_guarded, radius)
        r_next = stage_output(
            config.kappa[k], eps_k, xi_k, config.g_negative_definite
        )
    return r_next


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
    sized in order because stage k's reference depends on the funnels of
    the stages before it.
    """
    dims = len(states[0])
    e = stage1_error(states[0], stage1_lower, stage1_upper)
    eps, _ = transform_error(e, e_max)
    e_guard = tuple(max(-e_max, min(e_max, v)) for v in e)
    width = tuple(hi - lo for lo, hi in zip(stage1_lower, stage1_upper))
    ref = stage_output(kappa[0], eps, xi_matrix(e_guard, width), g_negative_definite)

    funnels = []
    for k in range(1, len(states)):
        p = tuple(
            max(2.0 * abs(x - r) + p_margin, 2.0 * q)
            for x, r in zip(states[k], ref)
        )
        funnel = Funnel(p=p, q=(q,) * dims, mu=(mu,) * dims)
        funnels.append(funnel)
        radius = funnel.radius(0.0)
        e_k = stage_k_error(states[k], ref, radius)
        eps_k, _ = transform_error(e_k, e_max)
        e_k_guard = tuple(max(-e_max, min(e_max, v)) for v in e_k)
        ref = stage_output(
            kappa[k], eps_k, xi_matrix(e_k_guard, radius), g_negative_definite
        )
    return tuple(funnels)
