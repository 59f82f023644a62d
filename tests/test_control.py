import decimal
import linecache
import math
import pickle
import struct
import sys
import traceback

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sttube import control
from sttube.control import (
    ControllerConfig,
    ControllerIntegrityError,
    Funnel,
    StageTelemetry,
    autosize_funnels,
    constraint_row,
    constraint_rows,
    control_input,
    stage1_errors,
)

E_MAX = 1.0 - 1e-9


def _paper_reference(e, gamma, kappa, e_max=E_MAX):
    """The stage law written out per component: clamp e into [-e_max, e_max],
    eps = ln((1+e)/(1-e)), xi = 4 / (gamma (1 - e^2)), r = -kappa xi eps,
    in the kernel's arithmetic: eps as 2 artanh(e), 1 - e^2 as (1-e)(1+e),
    and the 4 * 2 with the sign folded into the gain as -8 kappa."""
    gain = -8.0 * kappa
    out = []
    for v, g in zip(e, gamma):
        v = min(max(v, -e_max), e_max)
        out.append(gain / (g * ((1.0 - v) * (1.0 + v))) * math.atanh(v))
    return tuple(out)


def _bits(values):
    return struct.pack(f"<{len(values)}d", *values)


def test_stage1_error_center_and_affine():
    # walls [0, 1]: the row holds the width 1, then the sum 1
    assert stage1_errors((0.5,), (1.0, 1.0), 1).tolist() == [0.0]
    assert stage1_errors((0.75,), (1.0, 1.0), 1).tolist() == [0.5]


def test_stage1_error_robot_start(robots_table):
    from sttube.tube import agent_walls

    lower, upper = agent_walls(robots_table.coeffs[0], [0.0])
    row = constraint_row(lower[:, 0], upper[:, 0], ControllerConfig(kappa=(1.0,)), 0.0)
    e = stage1_errors((4.75, 0.25), row, 1).tolist()
    assert e == pytest.approx([0.0, 0.0], abs=1e-12)


def _first_stage(e, gamma, kappa=1.0, telemetry=None):
    """The input of a single-stage controller whose stage-1 errors are ``e``
    against wall widths ``gamma`` (walls centred on 0, no strict check)."""
    cfg = ControllerConfig(kappa=(kappa,), e_max=E_MAX)
    state = [0.5 * v * g for v, g in zip(e, gamma)]
    row = [*gamma, *(0.0 for _ in gamma)]
    return control_input(state, row, cfg, strict=False, telemetry=telemetry)


def test_transform_error_values():
    # gamma = 16/3 makes the barrier gain 4 / (gamma (1 - 0.25)) equal 1, so
    # the input is -ln((1+e)/(1-e)) itself
    tel = StageTelemetry()
    assert _first_stage((0.0,), (1.0,), telemetry=tel) == (0.0,)
    ref = _first_stage((0.5,), (16.0 / 3.0,), telemetry=tel)
    assert ref[0] == pytest.approx(-math.log(3.0), abs=1e-12)
    assert tel.clamp_count == 0
    # odd function
    neg = _first_stage((-0.5,), (16.0 / 3.0,))
    assert neg[0] == -ref[0]
    # guard engages above e_max, stays finite, and is counted per component
    tel = StageTelemetry()
    ref = _first_stage((0.9999999999,), (1.0,), telemetry=tel)
    assert tel.clamp_count == 1 and math.isfinite(ref[0])
    tel = StageTelemetry()
    ref = _first_stage((0.999999,), (1.0,), telemetry=tel)
    assert tel.clamp_count == 0 and math.isfinite(ref[0])
    tel = StageTelemetry()
    ref = _first_stage((1.5, 0.2, -3.0), (1.0,) * 3, telemetry=tel)
    assert tel.clamp_count == 2 and all(math.isfinite(v) for v in ref)


def test_xi_values():
    # the barrier gain is the input over -kappa ln((1+e)/(1-e))
    ref = _first_stage((0.5,), (1.0,))
    assert ref[0] / -math.log(3.0) == pytest.approx(16.0 / 3.0, abs=1e-12)
    ref = _first_stage((0.5,), (0.5,))
    assert ref[0] / -math.log(3.0) == pytest.approx(32.0 / 3.0, abs=1e-12)
    for width in (0.0, -1.0):
        with pytest.raises(ControllerIntegrityError) as err:
            _first_stage((0.0,), (width,))
        assert err.value.stage == 1 and err.value.width == width


def test_xi_barrier_growth():
    prev = 4.0  # the gain at e = 0 with unit width
    for e in (0.5, 0.9, 0.99, 0.999999):
        ref = _first_stage((e,), (1.0,))
        gain = ref[0] / -math.log((1.0 + e) / (1.0 - e))
        assert gain > prev
        prev = gain


@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize(
    "magnitude", [1e-12, 1e-9, 1e-6, 1e-3, 0.3, 0.9, 1.0 - 1e-6, 1.0 - 1e-10]
)
def test_law_is_accurate_against_a_60_digit_evaluation(magnitude, sign):
    """The input matches -kappa 4 / (gamma (1 - e^2)) ln((1+e)/(1-e)),
    evaluated in 60-digit decimal arithmetic at the error the kernel forms
    (clamped to e_max; the last magnitude lies beyond it), to a relative
    1e-14, for kappa 1, 1.5 and 2.3.  Near e = 0 the quotient (1+e)/(1-e)
    cancels, and near |e| = 1 so does 1 - e*e.  Stage 1 is checked
    against its wall width; stage 2, behind a stage 1 at its tube centre
    (reference zero), against its funnel radius."""
    width, total = 0.7, 0.3
    funnel = Funnel(p=(0.9,), q=0.2, mu=1.3)
    (radius,) = funnel.radii([0.4])[0].tolist()
    for kappa in (1.0, 1.5, 2.3):
        for stage in (1, 2):
            funnels = (funnel,)[: stage - 1]
            cfg = ControllerConfig(kappa=(kappa,) * stage, funnels=funnels, e_max=E_MAX)
            if stage == 1:
                gamma, row = width, (width, total)
                state = (0.5 * (sign * magnitude * width + total),)
                (e,) = stage1_errors(state, row, stage).tolist()
            else:
                gamma, row = radius, (width, total, radius)
                state = (0.5 * total, sign * magnitude * radius)
                assert stage1_errors(state, row, stage).tolist() == [0.0]
                e = state[1] / radius
            tel = StageTelemetry()
            (u,) = control_input(state, row, cfg, telemetry=tel)
            assert tel.clamp_count == (abs(e) > E_MAX)
            e = min(max(e, -E_MAX), E_MAX)
            with decimal.localcontext() as ctx:
                ctx.prec = 60
                d = decimal.Decimal(e)
                exact = (
                    -decimal.Decimal(kappa) * 4 / (decimal.Decimal(gamma) * (1 - d * d))
                    * ((1 + d) / (1 - d)).ln()
                )
                assert abs((decimal.Decimal(u) - exact) / exact) <= decimal.Decimal("1e-14")


@pytest.mark.parametrize("kappa", [0.5, 1.0, 4.0, 2.3])
def test_folded_gain_keeps_the_unfolded_bits_for_powers_of_two(kappa):
    """The law divides the gain -8 kappa by gamma (1-e)(1+e), one rounding
    fewer than the unfolded -kappa * (8 / (gamma (1-e)(1+e))).  Scaling
    by a power of two is exact, so for kappa 0.5, 1 (the shipped
    scenarios) and 4 the two agree bit for bit over a grid of e and
    gamma; for kappa 2.3 they differ somewhere on it."""
    errors = [i / 64.0 for i in range(-63, 64)] + [1e-9, -1e-6, 0.3, 1.0 - 1e-7]
    cfg = ControllerConfig(kappa=(kappa,), e_max=E_MAX)
    same = []
    for gamma in (0.01, 0.3, 0.7, 1.0, 3.7, 10.0):
        row = (gamma, 0.0)
        for target in errors:
            state = (0.5 * target * gamma,)
            (v,) = stage1_errors(state, row, 1).tolist()
            (u,) = control_input(state, row, cfg, strict=False)
            unfolded = -kappa * (8.0 / (gamma * ((1.0 - v) * (1.0 + v)))) * math.atanh(v)
            same.append(_bits((u,)) == _bits((unfolded,)))
    if math.frexp(kappa)[0] == 0.5:
        assert all(same)
    else:
        assert not all(same)


def test_stage_output_composition():
    ref = _first_stage((0.5,), (1.0,))
    assert ref[0] == pytest.approx(-5.859, abs=1e-3)


def test_funnel_radius_and_stage_k_error():
    funnel = Funnel(p=(1.0,), q=0.1, mu=1.0)
    radius = funnel.radii([1.0])[0].tolist()
    assert radius[0] == pytest.approx(0.9 * math.exp(-1.0) + 0.1, abs=1e-12)
    cfg = ControllerConfig(kappa=(1.0, 1.0), funnels=(funnel,), e_max=E_MAX)
    # stage 1 at its tube centre has reference 0, so stage 2's error is
    # its state over the funnel radius
    u = _ctl((0.5, 0.2), (0.0,), (1.0,), cfg, 1.0)
    e = 0.2 / radius[0]
    assert e == pytest.approx(0.4639, abs=1e-4)
    assert _bits(u) == _bits(_paper_reference((e,), radius, 1.0))
    # at t=0, a gap equal to p sits exactly on the funnel boundary
    with pytest.raises(ControllerIntegrityError, match=r"\(\|e\|=1\)") as err:
        _ctl((0.5, 1.0), (0.0,), (1.0,), cfg, 0.0)
    assert err.value.stage == 2
    with pytest.raises(ValueError):
        Funnel(p=(0.1,), q=0.2, mu=1.0)


def test_integrity_error_round_trips_through_pickle():
    """Stage, detail, width and message survive pickling, so the error can
    cross a process boundary unchanged."""
    for err in (
        ControllerIntegrityError(1, "agent 2 at t=4.37", width=0.1),
        ControllerIntegrityError(2, "(|e|=1)"),
        ControllerIntegrityError(3),
    ):
        back = pickle.loads(pickle.dumps(err))
        assert type(back) is ControllerIntegrityError
        assert (back.stage, back.detail, back.width, str(back), back.args) == (
            err.stage, err.detail, err.width, str(err), err.args
        )
    assert str(back) == "stage 3 state outside its constraint "


def _single_stage_config():
    return ControllerConfig(kappa=(1.0,), funnels=(), e_max=E_MAX)


def _ctl(state, lower, upper, cfg, t=0.0, **kwargs):
    """control_input on the constraint row of walls lower/upper at time t."""
    return control_input(state, constraint_row(lower, upper, cfg, t), cfg, **kwargs)


def test_control_input_centered_is_zero():
    u = _ctl((0.5, 0.5), (0.0, 0.0), (1.0, 1.0), _single_stage_config())
    assert u == (0.0, 0.0)


def test_constraint_rows_layout_and_scalar_agreement():
    """A row is the wall widths, the wall sums, then each funnel's radii
    (p - q) exp(-mu t) + q; the array builder and the one-time helper give
    the same bits."""
    funnel = Funnel(p=(0.5, 0.8), q=0.1, mu=2.0)
    cfg = ControllerConfig(kappa=(1.0, 1.0), funnels=(funnel,), e_max=E_MAX)
    times = [0.0, 0.3, 1.7, 12.25]
    lower = [(0.1 * t, -1.0) for t in times]
    upper = [(1.0 + t, 2.0 - 0.3 * t) for t in times]
    rows = constraint_rows(lower, upper, cfg, times)
    assert rows.shape == (4, 6)
    for t, lo, hi, row in zip(times, lower, upper, rows.tolist()):
        expect = (
            [h - l for l, h in zip(lo, hi)]
            + [h + l for l, h in zip(lo, hi)]
            + [(p - funnel.q) * math.exp(-funnel.mu * t) + funnel.q for p in funnel.p]
        )
        assert _bits(row) == _bits(expect)
        assert _bits(constraint_row(lo, hi, cfg, t)) == _bits(expect)


def test_funnel_radii_take_one_exp_per_rate_and_time(monkeypatch):
    """A funnel's one rate gives, bit for bit, the radii of one
    ``math.exp`` per value, with one call per time for all dimensions."""
    funnel = Funnel(p=(0.5, 0.8, 2.0, 1.1), q=0.1, mu=0.37)
    times = [0.0, 1e-3, 0.3005, 1.7, 12.25, 40.0]
    expect = [
        [(p - funnel.q) * math.exp(-funnel.mu * t) + funnel.q for p in funnel.p]
        for t in times
    ]
    calls = []
    real = math.exp
    monkeypatch.setattr(math, "exp", lambda v: calls.append(v) or real(v))
    radii = funnel.radii(times)
    assert _bits(radii.ravel().tolist()) == _bits([v for row in expect for v in row])
    assert len(calls) == len(times)


@pytest.mark.parametrize("p,q,mu,message", [
    ((), 0.5, 1.0, "one p per dimension"),
    ((1.0,), 0.5, math.inf, "decay rate must be positive and finite"),
    ((1.0,), 0.5, 0.0, "decay rate must be positive and finite"),
    ((math.inf,), 0.5, 1.0, "finite p > q > 0"),
    ((math.nan,), 0.5, 1.0, "finite p > q > 0"),
    ((1.0,), -math.inf, 1.0, "finite p > q > 0"),
    ((1.0,), math.nan, 1.0, "finite p > q > 0"),
    ((1.0, 0.4), 0.5, 1.0, "finite p > q > 0"),
], ids=["no-p", "inf-rate", "zero-rate", "inf-p", "nan-p", "neg-inf-q", "nan-q", "p-below-q"])
def test_funnel_rejects_empty_or_nonfinite_parameters(p, q, mu, message):
    with pytest.raises(ValueError, match=message):
        Funnel(p=p, q=q, mu=mu)


def test_stage1_error_rejects_mismatched_lengths():
    """A state or row whose length does not fit the stage count is
    refused, not read as a state of the length difference.  A row of 4
    values fits 1 stage of 2 dims and 3 stages of 1 dim alike, so only
    the stage count tells a 3-state against 2-dim walls from a fit."""
    walls_2d = (1.0, 1.0, 0.0, 0.0)  # widths, then sums, of two dims
    for states, rows, stages in [
        ((1.0, 2.0, 3.0), walls_2d, 1),  # once read as 1 dim, giving [1.0]
        ((1.0,), walls_2d, 1),
        ((1.0, 2.0), (1.0, 1.0, 0.0), 1),  # no whole number of dims
        ((), (), 1),  # zero dims
        ([(1.0, 2.0, 3.0)] * 2, [walls_2d] * 2, 1),  # stacked
        ((1.0, 2.0), walls_2d + (0.5, 0.5), 2),  # 2 stages of 2 dims need 4 states
    ]:
        with pytest.raises(ValueError, match="does not match the stage count"):
            stage1_errors(states, rows, stages)
    assert stage1_errors((1.0, 2.0, 3.0), walls_2d, 3).tolist() == [1.0]


def test_stage1_errors_match_the_written_out_formula():
    """The array form gives (2x - (hi + lo)) / (hi - lo) bit for bit and
    reads only the stage-1 block of a stacked state."""
    funnel = Funnel(p=(0.5, 0.8), q=0.1, mu=2.0)
    cfg = ControllerConfig(kappa=(1.0, 1.0), funnels=(funnel,), e_max=E_MAX)
    times = [0.0, 0.3, 1.7]
    lower = [(0.1 * t, -1.0) for t in times]
    upper = [(1.0 + t, 2.0 - 0.3 * t) for t in times]
    states = [(0.3, 0.7, 9.0, -9.0), (1.1, -0.2, 0.0, 1.0), (0.17, 1.9, 5.0, 5.0)]
    errors = stage1_errors(states, constraint_rows(lower, upper, cfg, times), 2)
    assert errors.shape == (3, 2)
    for x, lo, hi, e in zip(states, lower, upper, errors.tolist()):
        expect = [(2.0 * v - (h + l)) / (h - l) for v, l, h in zip(x, lo, hi)]
        assert _bits(e) == _bits(expect)


def test_control_input_rejects_mismatched_row():
    cfg = _single_stage_config()
    with pytest.raises(ValueError):
        control_input((0.5, 0.5), [1.0, 1.0], cfg)  # row for one dim, state for two
    with pytest.raises(ValueError):
        control_input((0.5,), [1.0, 1.0, 0.5], cfg)
    with pytest.raises(ValueError):
        control_input((), [], cfg)  # no dims at all
    two = ControllerConfig(
        kappa=(1.0, 1.0), funnels=(Funnel(p=(0.5,), q=0.1, mu=1.0),), e_max=E_MAX
    )
    for state in ((), (0.5,)):  # a row shorter than stages + 1
        with pytest.raises(ValueError):
            control_input(state, [1.0, 1.0], two, strict=False)


def test_collapsed_tube_width_follows_min_over_nan():
    """The collapsed-tube check reads the width ``min`` gives over the
    stage-1 widths: a NaN width ahead of a negative one hides it (the
    input comes out NaN), a negative width ahead of a NaN one raises."""
    cfg = _single_stage_config()
    for strict in (True, False):
        u = control_input((0.1, 0.1), [math.nan, -1.0, 0.0, 0.0], cfg, strict)
        assert math.isnan(u[0]) and math.isfinite(u[1])
        with pytest.raises(ControllerIntegrityError) as err:
            control_input((0.1, 0.1), [-1.0, math.nan, 0.0, 0.0], cfg, strict)
        assert err.value.stage == 1 and err.value.width == -1.0


def test_strict_failure_counts_only_the_earlier_stages_clamps():
    """A strict failure in stage 2 adds stage 1's clamps to the telemetry,
    not the clamps stage 2 made before its failing component."""
    funnel = Funnel(p=(1.0, 1.0), q=0.5, mu=1.0)
    cfg = ControllerConfig(kappa=(1.0, 1.0), funnels=(funnel,), e_max=0.9)
    # stage 1 errors 0.95 (clamped) and 0; stage 2 errors 0.95 (clamped), then 1.5
    x1 = (0.95, 0.0)
    ref = control_input(x1, [2.0, 2.0, 0.0, 0.0], ControllerConfig(kappa=(1.0,), e_max=0.9))
    tel = StageTelemetry(clamp_count=5)
    with pytest.raises(ControllerIntegrityError) as err:
        control_input(
            x1 + (ref[0] + 0.95, ref[1] + 1.5),
            [2.0, 2.0, 0.0, 0.0, 1.0, 1.0], cfg, True, tel,
        )
    assert err.value.stage == 2 and tel.clamp_count == 6


def test_control_input_single_stage_is_first_reference():
    # N = 1: the cascade's first reference IS the plant input, bit for bit,
    # clamped components included
    lower, upper = (0.0, 0.0, -1.0, 2.0), (1.0, 1.0, 1.0, 2.5)
    x = (0.7, 0.4, 1.5, 1.0)  # the last two lie outside their walls
    cfg = ControllerConfig(kappa=(1.1,), e_max=E_MAX)  # 1.1: rounding shows operand order
    tel = StageTelemetry()
    u = _ctl(x, lower, upper, cfg, strict=False, telemetry=tel)
    width = tuple(hi - lo for lo, hi in zip(lower, upper))
    e = tuple((2.0 * v - (hi + lo)) / (hi - lo) for v, lo, hi in zip(x, lower, upper))
    assert _bits(u) == _bits(_paper_reference(e, width, 1.1))
    assert tel.clamp_count == 2


def test_two_stage_cascade_matches_paper_formulas():
    """Stage 2 tracks stage 1's reference inside funnel radius
    (p - q) exp(-mu t) + q; the input equals the paper's chain bit for bit,
    with a clamped component in each stage."""
    lower, upper = (0.0, -1.0, 0.5), (1.0, 2.0, 0.75)
    x1 = (0.7, 3.0, 0.6)  # dim 2 is outside the walls
    funnel = Funnel(p=(0.5, 0.8, 2.0), q=0.1, mu=0.5)
    kappa, t = (2.3, 2.3), 0.3  # 2.3: rounding shows operand order

    width = tuple(hi - lo for lo, hi in zip(lower, upper))
    e1 = tuple((2.0 * v - (hi + lo)) / (hi - lo) for v, lo, hi in zip(x1, lower, upper))
    r1 = _paper_reference(e1, width, kappa[0])
    radius = tuple((p - funnel.q) * math.exp(-funnel.mu * t) + funnel.q for p in funnel.p)
    # stage 2 sits inside its funnel in dims 1 and 2, outside in dim 3
    x2 = tuple(r + f * g for r, g, f in zip(r1, radius, (0.5, -0.8, 3.0)))
    e2 = tuple((v - r) / g for v, r, g in zip(x2, r1, radius))
    expect = _paper_reference(e2, radius, kappa[1])

    cfg = ControllerConfig(kappa=kappa, funnels=(funnel,), e_max=E_MAX)
    tel = StageTelemetry()
    u = _ctl(x1 + x2, lower, upper, cfg, t, strict=False, telemetry=tel)
    assert _bits(u) == _bits(expect)
    clamped = [abs(v) > E_MAX for v in e1 + e2]
    assert clamped == [False, True, False, False, False, True] and tel.clamp_count == 2


_FRACTIONS = st.one_of(
    st.floats(-1.6, 1.6),
    st.sampled_from([1.0, 1.0 - 2e-10, 1.0 - 1e-12, -1.0, -1.0 + 2e-10, 0.0]),
)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_control_input_matches_written_out_cascade(data):
    """For random 1-4 stage controllers over 1-4 dims and states inside, on and outside their walls and funnels, control_input
    gives the written-out chain bit for bit: stage 1's error
    (2x - (hi + lo)) / (hi - lo), stage k's error (x_k - r) / radius, each
    stage's reference from ``_paper_reference``.  The clamp count matches,
    and so does the error raised (stage, width), strict or not."""
    stages, dims = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    kappa = tuple(data.draw(st.floats(0.05, 20.0)) for _ in range(stages))
    strict = data.draw(st.booleans())
    e_max = data.draw(st.sampled_from([E_MAX, 0.9]))
    funnels = []
    for _ in range(stages - 1):
        q = data.draw(st.floats(0.01, 1.0))
        p = tuple(q + data.draw(st.floats(0.01, 3.0)) for _ in range(dims))
        funnels.append(Funnel(p=p, q=q, mu=data.draw(st.floats(0.05, 3.0))))
    cfg = ControllerConfig(kappa=kappa, funnels=tuple(funnels), e_max=e_max)
    t = data.draw(st.floats(0.0, 20.0))
    lower = [data.draw(st.floats(-5.0, 5.0)) for _ in range(dims)]
    width = [data.draw(st.floats(1e-3, 4.0)) for _ in range(dims)]
    if data.draw(st.integers(0, 4)) == 0:  # a collapsed tube in one dimension
        width[data.draw(st.integers(0, dims - 1))] = data.draw(st.floats(-0.5, 0.0))
    upper = [lo + w for lo, w in zip(lower, width)]

    gamma = [hi - lo for lo, hi in zip(lower, upper)]
    sums = [hi + lo for lo, hi in zip(lower, upper)]
    radii = [
        [(p - f.q) * math.exp(-f.mu * t) + f.q for p in f.p]
        for f in funnels
    ]
    state, ref, clamps, expect = [], None, 0, None
    if min(gamma) <= 0.0:
        expect = (1, min(gamma), 0)
    for k in range(stages):
        if expect is not None:  # the call raises before it reads this stage
            state += [data.draw(st.floats(-5.0, 5.0)) for _ in range(dims)]
            continue
        frac = [data.draw(_FRACTIONS) for _ in range(dims)]
        if k == 0:
            x = [0.5 * (s + f * g) for s, f, g in zip(sums, frac, gamma)]
            e = [(2.0 * v - s) / g for v, s, g in zip(x, sums, gamma)]
        else:
            gamma = radii[k - 1]
            x = [r + f * g for r, f, g in zip(ref, frac, gamma)]
            e = [(v - r) / g for v, r, g in zip(x, ref, gamma)]
        state += x
        if strict and max(abs(v) for v in e) >= 1.0:
            expect = (k + 1, None, clamps)
        else:
            clamps += sum(abs(v) > e_max for v in e)
            ref = _paper_reference(e, gamma, kappa[k], e_max)

    row = constraint_row(lower, upper, cfg, t)
    tel = StageTelemetry()
    if expect is None:
        u = control_input(state, row, cfg, strict=strict, telemetry=tel)
        assert _bits(u) == _bits(ref)
        assert tel.clamp_count == clamps
    else:
        with pytest.raises(ControllerIntegrityError) as err:
            control_input(state, row, cfg, strict=strict, telemetry=tel)
        assert (err.value.stage, err.value.width, tel.clamp_count) == expect


@pytest.mark.parametrize("shapes", [((1, 6), (2, 4)), ((2, 4), (1, 6))])
def test_shapes_with_equal_row_lengths_get_their_own_law(shapes):
    """1 stage x 6 dims and 2 stages x 4 dims both have 12-entry rows; each
    gives the written-out chain bit for bit, whichever runs first."""
    control._kernel.cache_clear()
    for stages, dims in shapes:
        funnels = tuple(
            Funnel(p=(1.5,) * dims, q=0.2, mu=0.7)
            for _ in range(stages - 1)
        )
        cfg = ControllerConfig(kappa=(1.1, 2.3)[:stages], funnels=funnels, e_max=E_MAX)
        lower = [0.1 * i - 0.3 for i in range(dims)]
        upper = [lo + 0.9 + 0.2 * i for i, lo in enumerate(lower)]
        gamma = [hi - lo for lo, hi in zip(lower, upper)]
        x1 = [lo + (0.3 + 0.05 * i) * g for i, (lo, g) in enumerate(zip(lower, gamma))]
        e = [(2.0 * v - (hi + lo)) / (hi - lo) for v, lo, hi in zip(x1, lower, upper)]
        ref, state = _paper_reference(e, gamma, 1.1), x1
        if stages == 2:
            radius = funnels[0].radii([0.4])[0].tolist()
            x2 = [r + (0.1 * i - 0.2) * g for i, (r, g) in enumerate(zip(ref, radius))]
            e = [(v - r) / g for v, r, g in zip(x2, ref, radius)]
            ref, state = _paper_reference(e, radius, 2.3), x1 + x2
        u = control_input(state, constraint_row(lower, upper, cfg, 0.4), cfg)
        assert _bits(u) == _bits(ref)


def test_law_kernels_are_named_for_their_shape():
    """A shape compiles one law, named for the shape alone, and strict and
    lenient calls run that same code; linecache holds its source, so
    tracebacks and profiles show the law's lines."""
    funnel = Funnel(p=(0.5, 0.8, 0.6), q=0.1, mu=1.0)
    cfg = ControllerConfig(kappa=(1.0, 1.0), funnels=(funnel,), e_max=E_MAX)
    row = constraint_row((0.0,) * 3, (1.0,) * 3, cfg, 0.0)
    name = "<sttube law 2x3>"
    code = control._kernel(2, 9).__code__
    ran = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith("<sttube"):
            ran.append(frame.f_code)

    for strict in (True, False):
        sys.setprofile(profile)
        try:
            control_input((0.5,) * 3 + (0.0,) * 3, row, cfg, strict)
        finally:
            sys.setprofile(None)
    assert len(ran) == 2 and ran[0] is ran[1] is code
    assert code.co_filename == name
    lines = linecache.getlines(name)
    assert lines and lines[0].startswith("def law(")
    assert linecache.getline(name, code.co_firstlineno) == lines[0]
    with pytest.raises(ControllerIntegrityError) as err:
        control_input((0.5,) * 3 + (9.0,) * 3, row, cfg)  # stage 2 outside its funnel
    text = "".join(traceback.format_exception(err.value))
    assert f'File "{name}"' in text and "_strict_failure(state" in text


def test_control_input_odd_symmetry():
    cfg = _single_stage_config()
    u_plus = _ctl((0.75,), (0.0,), (1.0,), cfg)
    u_minus = _ctl((0.25,), (0.0,), (1.0,), cfg)
    assert u_plus[0] == pytest.approx(-u_minus[0], abs=1e-12)


def test_control_input_integrity_error_carries_stage():
    cfg = _single_stage_config()
    with pytest.raises(ControllerIntegrityError) as err:
        _ctl((1.5,), (0.0,), (1.0,), cfg)
    assert err.value.stage == 1
    # non-strict evaluation clamps instead of raising
    tel = StageTelemetry()
    u = _ctl((1.5,), (0.0,), (1.0,), cfg, strict=False, telemetry=tel)
    assert math.isfinite(u[0]) and tel.clamp_count == 1

    cfg2 = ControllerConfig(
        kappa=(1.0, 1.0), funnels=(Funnel(p=(0.5,), q=0.1, mu=1.0),), e_max=E_MAX
    )
    with pytest.raises(ControllerIntegrityError) as err:
        _ctl((0.5, 99.0), (0.0,), (1.0,), cfg2)
    assert err.value.stage == 2


@pytest.mark.parametrize("strict", [True, False])
@pytest.mark.parametrize("walls", [(0.5, 0.5), (1.0, 0.0)])
def test_collapsed_stage1_tube_is_a_stage1_error(walls, strict):
    cfg = _single_stage_config()
    with pytest.raises(ControllerIntegrityError) as err:
        _ctl((0.5,), (walls[0],), (walls[1],), cfg, strict=strict)
    assert err.value.stage == 1
    assert err.value.width == walls[1] - walls[0]


def test_two_stage_cascade_centered():
    cfg = ControllerConfig(
        kappa=(1.0, 1.0), funnels=(Funnel(p=(0.5,), q=0.1, mu=1.0),), e_max=E_MAX
    )
    u = _ctl((0.5, 0.0), (0.0,), (1.0,), cfg)
    assert u == (0.0,)


def test_decentralization_byte_identity(robots_table):
    """An agent's input depends only on its own state and tubes: computing
    it with the other agents' data absent gives bit-identical bytes."""
    from sttube.tube import TubeSet, polyval

    cfg = _single_stage_config()
    t = 3.7
    lower, upper = (tuple(polyval(robots_table.coeffs[1, :, s], t).tolist()) for s in (0, 1))
    x = tuple(0.25 * lo + 0.75 * hi for lo, hi in zip(lower, upper))
    u_full = _ctl(x, lower, upper, cfg, t)

    z = robots_table.sizes[1].max()  # the agent's own top degree: no other agent's padding
    solo = TubeSet(
        horizon=robots_table.horizon, coeffs=robots_table.coeffs[1:2, ..., :z],
        sizes=robots_table.sizes[1:2], min_widths=robots_table.min_widths[1:2],
        names=robots_table.names[1:2],
    )
    lower_s, upper_s = (tuple(polyval(solo.coeffs[0, :, s], t).tolist()) for s in (0, 1))
    u_solo = _ctl(x, lower_s, upper_s, cfg, t)
    assert struct.pack("<2d", *u_full) == struct.pack("<2d", *u_solo)


def test_config_invariants():
    with pytest.raises(ValueError):
        ControllerConfig(kappa=(0.0,))
    with pytest.raises(ValueError, match="stage gains must be positive"):
        ControllerConfig(kappa=(math.nan,))
    with pytest.raises(ValueError, match="stage gains must be positive and finite"):
        ControllerConfig(kappa=(math.inf,))
    with pytest.raises(ValueError, match="decay rate must be positive"):
        Funnel(p=(1.0,), q=0.1, mu=math.nan)
    with pytest.raises(ValueError):
        ControllerConfig(kappa=(1.0,), e_max=1.5)
    with pytest.raises(ValueError):
        ControllerConfig(kappa=(1.0, 1.0), funnels=())
    funnel = Funnel(p=(1.0,), q=0.1, mu=1.0)
    for funnels in ((), (funnel,)):
        with pytest.raises(ValueError, match="need at least one stage gain"):
            ControllerConfig(kappa=(), funnels=funnels)


def test_autosized_funnels_start_drones_half_inside(drones_spec, drones_table):
    """At the tube-centre start every stage-k error is at most 1/2, because
    the initial radius p is at least twice the tracking gap plus a margin,
    and the strict controller accepts the start state."""
    from sttube.plant import make_plant
    from sttube.sim import build_controller_config, initial_state
    from sttube.tube import agent_walls

    plant = make_plant(drones_spec.plant, drones_spec.dims)
    assert plant.stages == 2 and plant.dims == drones_spec.dims
    for j in range(len(drones_spec.agents)):
        x0 = initial_state(drones_table, j, plant)
        n = plant.dims
        lower, upper = (tuple(w[:, 0].tolist()) for w in agent_walls(drones_table.coeffs[j], [0.0]))
        cfg = build_controller_config(drones_spec, drones_table, j, plant, x0=x0)
        ctl = drones_spec.control
        assert cfg.funnels == autosize_funnels(
            x0, lower, upper, cfg.kappa, ctl.funnel_q, ctl.funnel_mu,
            ctl.funnel_p_margin, ctl.e_max,
        )
        for k in range(1, plant.stages):
            head = ControllerConfig(cfg.kappa[:k], cfg.funnels[: k - 1], cfg.e_max)
            ref = _ctl(x0[: k * n], lower, upper, head, strict=False)
            radius = cfg.funnels[k - 1].radii([0.0])[0].tolist()
            e_k = [(x - r) / g for x, r, g in zip(x0[k * n : (k + 1) * n], ref, radius)]
            assert max(abs(v) for v in e_k) <= 0.5
        _ctl(x0, lower, upper, cfg, strict=True)
