import functools
import math
import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sttube.sampling import obstacle_bounds, sample_unsafe, verify_cover
from sttube.scenario import scenario_from_dict
from sttube.synth import (
    FamilyResult,
    SolveDiagnostics,
    SynthesisError,
    SynthesisFailure,
    ValidationReport,
    build_sop,
    certify,
    composite_lipschitz,
    least_separation_options,
    refine_assignment,
    seed_assignment,
    solve_sop,
    synthesize,
    validate_tubes,
)
from sttube.tube import tube_values


def _split(codes, m):
    """Views of a witness table of m agents: its collision rows (pairs,
    n_t) and its unsafe rows (m, regions, n_t)."""
    n_pairs = m * (m - 1) // 2
    return codes[:n_pairs], codes[n_pairs:].reshape(m, -1, codes.shape[-1])


# ---------------------------------------------------------------------------
# instance construction


def test_variable_layout_counts(robots_spec):
    samples = sample_unsafe(robots_spec)
    inst = build_sop(robots_spec, samples)
    # robots 1-3 quadratic (3 coefficients), robot 4 cubic (4), two faces
    # per dim, one slack per agent-dim, one global slack
    coeffs = 3 * 2 * 2 * 3 + 1 * 2 * 2 * 4
    assert inst.n_vars == coeffs + 4 * 2 + 1
    assert inst.z[3, 0] == 4
    # face (agent 4, dim 1, lower) owns four distinct coefficient columns
    cols = inst.columns[(3 * inst.n + 0) * 2]
    assert len(set(cols.tolist())) == 4 and cols.max() < coeffs


def test_degree_zero_is_a_construction_error(robots_spec):
    samples = sample_unsafe(robots_spec)
    with pytest.raises(SynthesisError, match="higher-degree"):
        build_sop(robots_spec, samples, 0)


def test_negative_degree_is_rejected(robots_spec):
    with pytest.raises(ValueError, match="degrees must be nonnegative"):
        build_sop(robots_spec, sample_unsafe(robots_spec), -1)


def test_single_agent_instance_has_no_disjunctions():
    spec = scenario_from_dict({
        "dims": 2, "horizon": 2.0, "epsilon": 0.05,
        "arena": [[0.0, 4.0], [0.0, 4.0]],
        "agents": [{"start": [[0.0, 1.0], [0.0, 1.0]], "goal": [[3.0, 4.0], [3.0, 4.0]],
                    "tube_degree": [2, 2]}],
        "obstacles": [],
    })
    samples = sample_unsafe(spec)
    asg = seed_assignment(spec, samples)
    inst = build_sop(spec, samples)
    assert asg.dtype == np.int8 and asg.shape == (0, inst.n_t)
    # arena and width rows only, each the same whatever the (empty) table
    keys = np.arange(inst.groups * inst.n_t)
    matrix, rhs = inst.rows(asg, keys)
    assert matrix.shape == (len(keys), inst.n_vars) and rhs.shape == (len(keys),)
    diag = SolveDiagnostics()
    solve_sop(inst, [asg], diag)
    # the width family binds: strictly negative optimum
    assert diag.eta_star < -0.2


def test_start_pin_is_at_time_zero_on_degenerate_grid():
    # epsilon >= horizon gives the single-sample grid [t_c / 2]; the start
    # box must still be pinned at t = 0 and the goal box at t = t_c
    spec = scenario_from_dict({
        "dims": 2, "horizon": 0.5, "epsilon": 1.0,
        "arena": [[0.0, 4.0], [0.0, 4.0]],
        "agents": [{"start": [[0.0, 1.0], [0.0, 1.0]], "goal": [[3.0, 4.0], [3.0, 4.0]],
                    "tube_degree": [2, 2]}],
        "obstacles": [],
    })
    with pytest.warns(UserWarning, match="degenerate"):
        samples = sample_unsafe(spec)
    inst = build_sop(spec, samples)
    rows, rhs = inst.base.eq_matrix, inst.base.eq_rhs
    face = inst.columns[0]  # agent 1, dim 1, lower face
    assert rows[0, face].tolist() == [1.0, 0.0, 0.0] and rhs[0] == 0.0
    assert rows[1, face].tolist() == [1.0, 0.5, 0.25] and rhs[1] == 3.0


# ---------------------------------------------------------------------------
# seeding


def test_seed_picks_clear_dimension(mini_spec):
    samples = sample_unsafe(mini_spec)
    collision, unsafe = _split(seed_assignment(mini_spec, samples), 2)
    # obstacle sits at the arena center; both agents' straight paths run
    # right through it, so mid-horizon picks are tie-broken / clearance
    # driven, while early samples keep the largest-clearance dimension.
    # Witness codes are 2*dim + side.
    first = unsafe[0, 0, 0]
    assert first == 2 * 0 + 1  # dim 1, upper face below: agent starts left of the box
    # the swap pair separates in dim 1 at t=0, agent 1 below agent 2
    assert collision[0, 0] == 2 * 0 + 0


def test_seed_obstacle_strictly_left_means_above_everywhere():
    spec = scenario_from_dict({
        "dims": 2, "horizon": 2.0, "epsilon": 0.05,
        "arena": [[0.0, 8.0], [0.0, 8.0]],
        "agents": [{"start": [[4.0, 5.0], [0.0, 1.0]], "goal": [[6.0, 7.0], [6.0, 7.0]],
                    "tube_degree": [2, 2]}],
        "obstacles": [{"interpolation": "static",
                       "keyframes": [[0.0, [[0.5, 1.5], [0.5, 1.5]]]]}],
    })
    samples = sample_unsafe(spec)
    _, unsafe = _split(seed_assignment(spec, samples), 1)
    assert unsafe.size and (unsafe == 2 * 0 + 0).all()  # dim 1, lower face above


def test_seed_identical_references_tie_break_to_first_dim():
    spec = scenario_from_dict({
        "dims": 2, "horizon": 2.0, "epsilon": 0.05,
        "arena": [[0.0, 8.0], [0.0, 8.0]],
        "agents": [
            {"start": [[0.0, 1.0], [0.0, 1.0]], "goal": [[7.0, 8.0], [7.0, 8.0]],
             "tube_degree": [2, 2]},
            {"start": [[0.0, 1.0], [0.0, 1.0]], "goal": [[7.0, 8.0], [7.0, 8.0]],
             "tube_degree": [2, 2]},
        ],
        "obstacles": [],
    })
    samples = sample_unsafe(spec)
    collision, _ = _split(seed_assignment(spec, samples), 2)
    assert collision.size and (collision // 2 == 0).all()


def test_seed_matches_scalar_reference(robots_spec):
    """The array seed equals the per-sample rule: largest clearance, ties
    to side 1 within a dim and to the lower dim across dims (by more than
    1e-15); collision pairs take the largest reference gap."""
    from sttube.scenario import unsafe_box_at
    from sttube.synth import _reference_points

    samples = sample_unsafe(robots_spec)
    refs = _reference_points(robots_spec, samples.time_samples)
    m = robots_spec.agent_count
    collision, unsafe = _split(seed_assignment(robots_spec, samples), m)
    pairs = [(j, k) for j in range(m) for k in range(j + 1, m)]
    for t_idx, t in enumerate(samples.time_samples):
        for r, region in enumerate(robots_spec.obstacles):
            box = unsafe_box_at(region, float(t), robots_spec.horizon)
            for j in range(m):
                best = None
                for i, (lo, hi) in enumerate(box.tolist()):
                    p = refs[j, t_idx, i]
                    clearance, side = max((lo - p, 1), (p - hi, 0))
                    if best is None or clearance > best[0] + 1e-15:
                        best = (clearance, 2 * i + side)
                assert unsafe[j, r, t_idx] == best[1]
        for p_idx, (j, k) in enumerate(pairs):
            gaps = refs[j, t_idx] - refs[k, t_idx]
            i = int(np.argmax(np.abs(gaps)))
            assert collision[p_idx, t_idx] == 2 * i + (0 if gaps[i] < 0 else 1)


@pytest.mark.parametrize("case,rows,sample", [
    ("robots", [], None),
    ("moving_bar", [], None),
    ("drones", [0, 1, 2, 3, 4, 5], 500),
    ("mini", [0, 1, 2], 100),
], ids=["robots", "moving_bar", "drones", "mini"])
def test_seed_differs_from_best_witnesses_only_at_exact_ties(case, rows, sample, request):
    """``best_witnesses`` at the straight-line reference points (both faces
    of a tube at its point) gives ``seed_assignment``'s table except at
    exact two-side ties: every drones pair at mid-horizon, where all four
    paths cross, and at mini's mid-horizon both of its agents' rows and
    its pair's.  There the seed takes side 1 and ``best_witnesses`` side
    0, both in dim 1.  These are the entries one witness rule, seeding
    from ``best_witnesses``, would move."""
    from sttube import data_path, load_scenario
    from sttube.synth import _reference_points

    if case == "moving_bar":
        spec = load_scenario(data_path("moving_bar.scenario"))
    else:
        spec = request.getfixturevalue(f"{case}_spec")
    samples = sample_unsafe(spec)
    inst = build_sop(spec, samples)
    points = _reference_points(spec, inst.times).transpose(0, 2, 1)  # (m, n, n_t)
    best, _ = inst.best_witnesses(np.stack([points, points], axis=2))
    seed = seed_assignment(spec, samples)
    g, t = np.nonzero(best != seed)
    assert g.tolist() == rows and (t == sample).all()
    assert (seed[g, t] == 1).all() and (best[g, t] == 0).all()


# ---------------------------------------------------------------------------
# certification arithmetic


def test_certificate_matches_case_study(robots_table):
    cert = certify(-0.05, robots_table, 0.002)
    assert cert.lipschitz_composite == pytest.approx(7.8174, abs=1e-9)
    assert cert.margin == pytest.approx(-0.05 + 7.8174 * 0.002, abs=1e-12)
    assert cert.passed


def test_certificate_never_passes_nonnegative_eta(robots_table):
    cert = certify(0.0, robots_table, 0.002)
    assert cert.margin > 0 and not cert.passed


def test_composite_bound_small_slopes():
    assert composite_lipschitz(0.4, 0.4) == pytest.approx(1.4)
    assert composite_lipschitz(3.946, 3.871) == pytest.approx(7.817)


def test_obstacle_speed_enters_only_the_unsafe_terms(robots_table):
    """v adds to the face slope of the unsafe rows (L_L + v + 1, L_U + v
    + 1) and to no other family's term; v = 0 gives the static bound bit
    for bit, and the certificate records v."""
    assert composite_lipschitz(0.4, 0.4, 2.0) == 3.4
    assert composite_lipschitz(3.0, 5.0, 2.0) == 8.0  # L_L + L_U still binds
    assert composite_lipschitz(3.0, 5.0, 2.5) == 8.5
    assert composite_lipschitz(3.946, 3.871, 0.0) == composite_lipschitz(3.946, 3.871)
    static = certify(-0.05, robots_table, 0.002)
    moving = certify(-0.05, robots_table, 0.002, obstacle_speed=7.0)
    assert static.obstacle_speed == 0.0 and static.to_dict()["v"] == 0.0
    assert moving.to_dict()["v"] == 7.0
    lower, upper = moving.lipschitz_lower, moving.lipschitz_upper
    assert moving.lipschitz_composite == max(lower + upper, max(lower, upper) + 8.0)
    assert moving.margin > static.margin


# ---------------------------------------------------------------------------
# box-pair separation criterion vs brute force


def _boxes_intersect(a, b):
    return all(al <= bh and bl <= ah for (al, ah), (bl, bh) in zip(a, b))


def _separation_criterion(a, b):
    return any(
        min(ah - bl, bh - al) < 0 for (al, ah), (bl, bh) in zip(a, b)
    )


def test_separation_criterion_matches_brute_force():
    rng = np.random.default_rng(123)
    agree = 0
    for _ in range(1000):
        n = int(rng.integers(1, 4))
        a = [sorted(rng.uniform(0, 4, 2)) for _ in range(n)]
        b = [sorted(rng.uniform(0, 4, 2)) for _ in range(n)]
        assert _separation_criterion(a, b) == (not _boxes_intersect(a, b))
        agree += 1
    assert agree == 1000


# ---------------------------------------------------------------------------
# solving and refinement


def separation_options(faces, obstacle_bounds) -> tuple[np.ndarray, np.ndarray]:
    """Reference: the value of every witness option of every disjunction.

    ``faces`` is (m, n, 2, T), lower then upper; ``obstacle_bounds`` is
    (T, R, n, 2).  Returns unsafe options (m, R, n, 2, T) and collision
    options (P, n, 2, T) for the agent pairs j < k in sorted order, indexed
    by (dim, side); a disjunction holds when one of its options is <= 0.
    """
    m, n, _, t = faces.shape
    lower, upper = faces[:, :, 0], faces[:, :, 1]  # (m, n, T)
    bounds = obstacle_bounds.transpose(1, 2, 3, 0)  # (R, n, 2, T)
    unsafe = np.empty((m, len(bounds), n, 2, t))
    np.subtract(bounds[None, :, :, 1], lower[:, None], out=unsafe[:, :, :, 0])
    np.subtract(upper[:, None], bounds[None, :, :, 0], out=unsafe[:, :, :, 1])
    j, k = np.triu_indices(m, 1)
    coll = np.empty((len(j), n, 2, t))
    np.subtract(upper[j], lower[k], out=coll[:, :, 0])
    np.subtract(upper[k], lower[j], out=coll[:, :, 1])
    return unsafe, coll


def _option_tensors(instance, faces):
    """Every option of every disjunct row, in witness-table order
    (collision pairs, then (agent, region)): (disjunct groups, 2n, n_t),
    option ``2*dim + side``."""
    shape = (-1, 2 * instance.n, instance.n_t)
    unsafe, coll = separation_options(faces, instance.obstacle_bounds)
    return np.concatenate([coll.reshape(shape), unsafe.reshape(shape)])


def _row_heads(instance):
    """(family tag, head) of every witness-table row: the collision pairs
    (j, k), then (agent, region) in sorted order."""
    regions = len(instance.spec.obstacles)
    return [("coll", pair) for pair in instance.pairs] + [
        ("unsafe", (j, r)) for j in range(instance.m) for r in range(regions)
    ]


def _dense_faces(tubes, spec, resolution):
    """Faces and obstacle bounds on the grid ``validate_tubes`` uses."""
    grid = np.linspace(0.0, spec.horizon, int(np.ceil(spec.horizon / resolution)) + 1)
    return tube_values(tubes, grid), obstacle_bounds(spec, grid)


@pytest.mark.parametrize("case", ["robots", "drones"])
def test_least_options_match_reference(case, request):
    """The least option of every disjunction, taken one option at a time,
    equals bit for bit the minimum over (dim, side) of the full reference
    option arrays, on the published tables at eps/4."""
    spec = request.getfixturevalue(f"{case}_spec")
    faces, bounds = _dense_faces(
        request.getfixturevalue(f"{case}_table"), spec, spec.epsilon / 4.0
    )
    unsafe, coll = least_separation_options(faces, bounds)
    ref_unsafe, ref_coll = separation_options(faces, bounds)
    want_unsafe = ref_unsafe.min(axis=(2, 3)).transpose(1, 0, 2)
    want_coll = ref_coll.min(axis=(1, 2))
    assert unsafe.shape == want_unsafe.shape and coll.shape == want_coll.shape
    assert unsafe.tobytes() == want_unsafe.tobytes()
    assert coll.tobytes() == want_coll.tobytes()


def _full_grid_report(tubes, spec, resolution, tolerance):
    """Reference for ``validate_tubes``: every family evaluated on the
    whole grid at once."""
    grid = np.linspace(0.0, spec.horizon, int(np.ceil(spec.horizon / resolution)) + 1)
    faces = tube_values(tubes, grid)
    m, n = tubes.agent_count, tubes.dims

    def worst(values, where):
        q = int(np.argmax(values))
        v = float(values.flat[q])
        return v, v <= tolerance, where(*np.unravel_index(q, values.shape))

    def at(values, q):
        return f"t={grid[int(values[q].argmax())]:.3f}"

    ends = np.array([[a.start, a.goal] for a in spec.agents])
    pinned = faces[..., [0, -1]].transpose(0, 3, 1, 2)
    outward = np.stack([ends[..., 0] - pinned[..., 0], pinned[..., 1] - ends[..., 1]], axis=-1)
    kinds = ("start lower", "start upper", "goal lower", "goal upper")
    families = {"endpoints": FamilyResult("endpoints", *worst(
        outward.transpose(0, 2, 1, 3).reshape(m, n, 4),
        lambda j, i, e: f"agent {j + 1} dim {i + 1} {kinds[e]}",
    ))}
    lo, hi = spec.arena.T[:, :, None]
    past = np.stack([lo - faces.min(axis=-1), faces.max(axis=-1) - hi], axis=-1)
    families["arena"] = FamilyResult("arena", *worst(
        past,
        lambda j, i, s, b: f"agent {j + 1} dim {i + 1} {('lower', 'upper')[s]} face "
                           f"past arena {('lo', 'hi')[b]}",
    ))
    gap = faces[:, :, 0] + tubes.min_widths[..., None] - faces[:, :, 1]
    gap_at = gap.argmax(axis=-1)
    families["width"] = FamilyResult("width", *worst(
        np.take_along_axis(gap, gap_at[..., None], axis=-1)[..., 0],
        lambda j, i: f"agent {j + 1} dim {i + 1} at t={grid[gap_at[j, i]]:.3f}",
    ))
    unsafe, coll = least_separation_options(faces, obstacle_bounds(spec, grid))
    families["unsafe"] = FamilyResult("unsafe", *worst(
        unsafe.max(axis=-1),
        lambda r, j: f"agent {j + 1} vs region {r + 1} at {at(unsafe, (r, j))}",
    ))
    j, k = np.triu_indices(m, 1)
    families["collision"] = FamilyResult("collision", *worst(
        coll.max(axis=-1), lambda p: f"pair ({j[p] + 1},{k[p] + 1}) at {at(coll, p)}",
    ))
    return ValidationReport(
        families=families, resolution=resolution, tolerance=tolerance,
        endpoint_equality_residual=float(np.abs(outward).max(initial=0.0)),
    )


@pytest.mark.parametrize("source", ["table", "result"])
@pytest.mark.parametrize("case", ["robots", "drones"])
def test_blocked_validation_matches_full_grid(case, source, request, monkeypatch):
    """``validate_tubes`` evaluates the grid in blocks; its report is the
    same text as the whole grid's, on the published and the synthesized
    tubes at eps/4, 1e-3 and 1e-2, and with blocks of 7 samples."""
    import sttube.synth as synth

    spec = request.getfixturevalue(f"{case}_spec")
    tubes = request.getfixturevalue(f"{case}_{source}")
    tubes = getattr(tubes, "tubes", tubes)
    for resolution in (spec.epsilon / 4.0, 1e-3, 1e-2):
        want = repr(_full_grid_report(tubes, spec, resolution, 1e-4))
        assert repr(validate_tubes(tubes, spec, resolution, 1e-4)) == want
    monkeypatch.setattr(synth, "VALIDATION_BLOCK", 7)
    assert repr(validate_tubes(tubes, spec, 1e-2, 1e-4)) == want


@pytest.mark.parametrize("resolution", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("check", ["validate_tubes", "verify_cover"])
def test_dense_checks_reject_a_resolution_that_is_not_positive_and_finite(
    check, resolution, robots_table, robots_spec
):
    """Both dense-grid checks name a bad resolution: before, 0 divided by
    zero, -1 and NaN failed inside numpy or ``int``, and
    ``validate_tubes`` at inf checked only t = 0."""
    with pytest.raises(ValueError, match="resolution must be positive and finite"):
        if check == "validate_tubes":
            validate_tubes(robots_table, robots_spec, resolution)
        else:
            verify_cover(sample_unsafe(robots_spec), robots_spec, resolution)


def test_dense_validation_peak_memory(robots_table, robots_spec):
    """``validate_tubes`` keeps no array the size of the grid but the grid
    itself: on the published robots tubes at eps/4 its traced peak stays
    below half the face array."""
    import tracemalloc

    resolution = robots_spec.epsilon / 4.0
    faces, _ = _dense_faces(robots_table, robots_spec, resolution)
    validate_tubes(robots_table, robots_spec, resolution)  # warm any caches
    tracemalloc.start()
    try:
        validate_tubes(robots_table, robots_spec, resolution)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * faces.nbytes


def _scalar_option(instance, faces, tag, head, t, code):
    """One witness option written out: unsafe side 0 clears the box top
    with the lower face, side 1 its bottom with the upper face; collision
    side 0 puts agent j below k, side 1 k below j."""
    i, side = divmod(int(code), 2)
    bounds = instance.obstacle_bounds
    if tag == "unsafe":
        j, r = head
        if side == 0:
            return bounds[t, r, i, 1] - faces[j, i, 0, t]
        return faces[j, i, 1, t] - bounds[t, r, i, 0]
    j, k = head
    below, above = (j, k) if side == 0 else (k, j)
    return faces[below, i, 1, t] - faces[above, i, 0, t]


def _sequential_best(values):
    """The tie rule written out: options in code order, a later one wins
    only by more than 1e-15; (value, code)."""
    best = None
    for code, v in enumerate(values):
        if best is None or v < best[0] - 1e-15:
            best = (v, code)
    return best


def _assignment_row_values(instance, codes, options, etas):
    """Reference for ``SopInstance.witness_values``: the option the
    witness table ``codes`` picks out of the full option arrays, minus the
    slack of the row's first agent in that dim; (disjunct groups, n_t)."""
    agents = np.array([head[0] for _, head in _row_heads(instance)], dtype=int)
    chosen = np.take_along_axis(options, codes[:, None, :], axis=1)[:, 0]
    return chosen - etas[agents[:, None], codes // 2]


def test_contradictory_assignment_cannot_certify(mini_spec):
    """Forcing both orders of the swap pair at nearby samples squeezes the
    pair against the width family: the optimum exceeds zero and no
    certificate is possible."""
    samples = sample_unsafe(mini_spec)
    inst = build_sop(mini_spec, samples)
    bad = seed_assignment(mini_spec, samples)
    # dim 1 at every sample, agent 1 below agent 2 at even samples and
    # above it at odd ones (witness code 2*dim + side); mini has one pair
    bad[0] = np.arange(inst.n_t) % 2
    diag = SolveDiagnostics()
    solve_sop(inst, [bad], diag)
    assert diag.eta_star > 0.0
    tubes = inst.tubes_from_solution(diag.x)
    assert not certify(diag.eta_star, tubes, mini_spec.epsilon).passed


def test_witness_arrays_match_scalar_reference(mini_spec, mini_result):
    """Witnessed row slacks, and the best witnesses streamed through the
    operand table, equal bit for bit the per-row scalar formulas of
    ``_scalar_option`` and the sequential tie rule."""
    samples = sample_unsafe(mini_spec)
    inst = build_sop(mini_spec, samples)
    asg = mini_result.assignment
    diag = SolveDiagnostics()
    solve_sop(inst, [asg], diag)
    # every face at every sample, one polynomial at a time
    faces = np.array([
        inst.powers[:, : inst.z[j, i]] @ diag.x[cols[: inst.z[j, i]]]
        for (j, i, _), cols in zip(np.ndindex(inst.m, inst.n, 2), inst.columns)
    ]).reshape(inst.m, inst.n, 2, inst.n_t)

    faces_now = inst.face_values(diag.x)
    etas = diag.x[inst.eta_offset]
    vals = inst.witness_values(faces_now, etas, asg)
    best_codes, best_vals = inst.best_witnesses(faces_now)
    heads = _row_heads(inst)
    for (g, t), code in np.ndenumerate(asg):
        tag, head = heads[g]
        option = functools.partial(_scalar_option, inst, faces, tag, head, t)
        assert vals[g, t] == option(code) - etas[head[0], code // 2]
        expected = _sequential_best([option(c) for c in range(2 * inst.n)])
        assert (best_vals[g, t], best_codes[g, t]) == expected


_TIE_SPEC = {
    "dims": 2, "horizon": 1.0, "epsilon": 0.25,
    "arena": [[-2.0, 2.0], [-2.0, 2.0]],
    "agents": [
        {"start": [[-2.0, -1.0], [-2.0, -1.0]], "goal": [[1.0, 2.0], [1.0, 2.0]],
         "tube_degree": [2, 2]},
        {"start": [[1.0, 2.0], [-2.0, -1.0]], "goal": [[-2.0, -1.0], [1.0, 2.0]],
         "tube_degree": [2, 2]},
        {"start": [[-0.5, 0.5], [1.0, 2.0]], "goal": [[-0.5, 0.5], [-2.0, -1.0]],
         "tube_degree": [2, 2]},
    ],
    "obstacles": [
        {"interpolation": "static", "keyframes": [[0.0, [[0.0, 0.5], [-0.5, 0.0]]]]},
        {"interpolation": "static", "keyframes": [[0.0, [[-1.0, -0.5], [0.0, 0.5]]]]},
    ],
}


@pytest.fixture(scope="module")
def tie_instance():
    spec = scenario_from_dict(_TIE_SPEC)
    return build_sop(spec, sample_unsafe(spec))


def test_witness_table_rows_follow_the_row_groups(tie_instance):
    """A witness table is int8, one row per disjunct group in row-group
    order (collision pairs, then (agent, region)): its row i is row group
    ``disjunct_groups.start + i`` of the row table, the pair's or the
    (agent, region)'s."""
    inst = tie_instance
    regions, n_pairs = len(inst.spec.obstacles), len(inst.pairs)
    codes = seed_assignment(inst.spec, inst.samples)
    assert codes.dtype == np.int8
    assert codes.shape == (n_pairs + inst.m * regions, inst.n_t)
    assert range(inst.groups)[inst.disjunct_groups] == range(
        inst.disjunct_groups.start, inst.disjunct_groups.start + len(codes)
    )
    faces, _, etas, _, bound = inst.row_table
    for p, (j, k) in enumerate(inst.pairs):
        # code 1 of a pair: k's upper face below j's lower face, j's slack
        g = inst.disjunct_groups.start + p
        assert faces[g, 1].tolist() == [(k * inst.n) * 2 + 1, (j * inst.n) * 2]
        assert etas[g, 1] == inst.eta_offset[j, 0]
    for j, r in np.ndindex(inst.m, regions):
        # code 3: agent j's upper face in dim 2 below region r's bottom
        g = inst.disjunct_groups.start + n_pairs + j * regions + r
        assert faces[g, 3, 0] == (j * inst.n + 1) * 2 + 1
        assert bound[g, 3] == (r * inst.n + 1) * 2
        assert etas[g, 3] == inst.eta_offset[j, 1]


def test_refinement_never_writes_the_failure_table(mini_spec, mini_result, monkeypatch):
    """Along mini's refinement chain, every candidate of a step is a table
    of its own: the failure's table keeps its bytes, and no candidate
    shares memory with it or with another candidate."""
    import sttube.synth as synth

    samples = sample_unsafe(mini_spec)
    inst = build_sop(mini_spec, samples)
    diag = SolveDiagnostics()
    solve_sop(inst, [seed_assignment(mini_spec, samples)], diag)
    beams, solve = [], synth.solve_sop

    def recording(instance, candidates, diagnostics, warm=None):
        beams.append(candidates)
        return solve(instance, candidates, diagnostics, warm)

    monkeypatch.setattr(synth, "solve_sop", recording)
    for _ in range(mini_result.iterations):
        failure, before = diag, diag.assignment.copy()
        diag = refine_assignment(inst, failure)
        assert failure.assignment.tobytes() == before.tobytes()
        beam = beams[-1]
        for q, cand in enumerate(beam):
            assert cand.dtype == np.int8 and cand.shape == before.shape
            assert not np.shares_memory(cand, failure.assignment)
            assert not any(np.shares_memory(cand, other) for other in beam[q + 1 :])
        if diag is None:
            break
    assert len(beams) > 1 and max(map(len, beams)) > 1


def _row_from_table(inst, g, r, code):
    """Row ``row_table[g, code]`` at sample r written out: each face term's
    sign times the powers of the sample time on that face's columns, -1 at
    the slack, and the right-hand side or the signed obstacle bound."""
    faces, signs, eta, rhs, bound = (col[g, code] for col in inst.row_table)
    row = np.zeros(inst.n_vars)
    for f, sign in zip(faces, signs):
        if f >= 0:
            cols = inst.face_columns[f]
            row[cols] += sign * inst.powers[r, : len(cols)]
    if eta >= 0:
        row[eta] = -1.0
    if bound >= 0:
        rhs = signs[0] * inst.obstacle_bounds[r].ravel()[bound]
    return row, rhs


def test_rows_read_the_code_of_their_key(tie_instance):
    """``rows`` gives a disjunct key the row-table row of the code the
    witness table holds for it, and arena and width keys their one row."""
    inst = tie_instance
    regions = len(inst.spec.obstacles)
    codes = np.zeros((len(inst.pairs) + inst.m * regions, inst.n_t), dtype=np.int8)
    r = inst.n_t // 2
    coll_row, unsafe_row = 1, len(inst.pairs) + regions + 1  # pair (1, 3); (2, 2)
    codes[coll_row, r] = 3
    codes[unsafe_row, r] = 2
    first = inst.disjunct_groups.start
    keys = np.array([0, first + coll_row, first + unsafe_row, inst.groups - 1]) * inst.n_t + r
    matrix, rhs = inst.rows(codes, keys)
    for got, got_rhs, g, code in zip(matrix, rhs, keys // inst.n_t, (0, 3, 2, 0)):
        want, want_rhs = _row_from_table(inst, g, r, code)
        assert got.tobytes() == want.tobytes() and got_rhs == want_rhs
        if code:  # the code decides the row
            assert got.tobytes() != _row_from_table(inst, g, r, 0)[0].tobytes()


# face values on the obstacle bounds' grid, moved by exact ties (0),
# near ties (1e-16 and 5e-16, inside the 1e-15 rule) and a real gap (2e-15)
_TIE_FACE = st.builds(
    operator.add,
    st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0]),
    st.sampled_from([0.0, 1e-16, -1e-16, 5e-16, -5e-16, 2e-15, -2e-15]),
)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_best_witness_tie_rule(tie_instance, data):
    """The streamed best witness of every disjunct row is the sequential
    rule written out (options in code order, a later one wins only by
    more than 1e-15), on faces planted with exact and near ties."""
    inst = tie_instance
    shape = (inst.m, inst.n, 2, inst.n_t)
    size = int(np.prod(shape))
    faces = np.array(data.draw(st.lists(_TIE_FACE, min_size=size, max_size=size))).reshape(shape)
    best_codes, best_vals = inst.best_witnesses(faces)
    heads = _row_heads(inst)
    assert best_codes.shape == best_vals.shape == (len(heads), inst.n_t)
    for (g, t), code in np.ndenumerate(best_codes):
        options = [_scalar_option(inst, faces, *heads[g], t, c) for c in range(2 * inst.n)]
        assert (best_vals[g, t], code) == _sequential_best(options)


def _seed_solution(spec):
    samples = sample_unsafe(spec)
    inst = build_sop(spec, samples)
    asg = seed_assignment(spec, samples)
    diag = SolveDiagnostics()
    solve_sop(inst, [asg], diag)
    return inst, asg, diag.x


def _full_scan_static_keys(inst, faces, etas, tol):
    """The arena and width scan written out over every row: violation of
    each group at each sample, the eight worst of each violated group,
    ties to the earlier sample."""
    m, n, n_t = inst.m, inst.n, inst.n_t
    viol = np.empty((len(inst.static_groups), n_t))
    arena = viol[: 4 * m * n].reshape(m, n, 2, 2, n_t)
    np.subtract(inst.arena[:, 0, None, None], faces, out=arena[:, :, :, 0])
    np.subtract(faces, inst.arena[:, 1, None, None], out=arena[:, :, :, 1])
    width = viol[4 * m * n :].reshape(m, n, n_t)
    np.add(faces[:, :, 0], inst.min_widths[..., None], out=width)
    width -= faces[:, :, 1]
    width -= etas[..., None]
    keys = [np.zeros(0, dtype=int)]
    for g in np.flatnonzero((viol > tol).any(axis=1)):
        bad = np.flatnonzero(viol[g] > tol)
        order = np.argsort(-viol[g, bad], kind="stable")
        keys.append(inst.static_groups[g] * n_t + bad[order][:8])
    return np.concatenate(keys)


@pytest.mark.parametrize("scenario", ["mini", "robots"])
def test_witnessed_scan_matches_option_tensors(scenario, request):
    """The lazy loop's scan equals, bit for bit, the full evaluation it
    replaces: witnessed row values against ``_option_tensors`` plus
    ``_assignment_row_values``, and the arena/width keys against a scan
    of every row, at the seed solution and at perturbed points where many
    rows are violated, under the seed and under random witnesses."""
    inst, asg, x = _seed_solution(request.getfixturevalue(f"{scenario}_spec"))
    rng = np.random.default_rng(7)
    collision, unsafe = _split(asg, inst.m)
    random_asg = np.concatenate([
        rng.integers(0, 2 * inst.n, collision.shape),
        rng.integers(0, 2 * inst.n, unsafe.shape).reshape(-1, inst.n_t),
    ]).astype(np.int8)
    points = [x] + [x + rng.normal(scale=scale, size=x.shape) for scale in (1e-3, 0.3)]
    for point in points:
        faces = inst.face_values(point)
        etas = point[inst.eta_offset]
        for tol in (1e-9, 0.0, -0.05):
            np.testing.assert_array_equal(
                inst.static_violations(faces, etas, tol),
                _full_scan_static_keys(inst, faces, etas, tol),
            )
        for a in (asg, random_asg):
            witnessed = inst.witness_values(faces, etas, a)
            expected = _assignment_row_values(inst, a, _option_tensors(inst, faces), etas)
            assert witnessed.shape == expected.shape
            assert witnessed.tobytes() == expected.tobytes()


def _arena_reference(inst, x, tol):
    """Arena excursions face by face, as ``np.roots``/``np.polyval`` give
    them: face, then half (past lo, past hi), then candidate time.  Returns
    each one's arena row group and time, and its row and right-hand side
    built from the face's columns."""
    horizon = inst.spec.horizon
    groups, times, rows, rhs = [], [], [], []
    for f, cols in enumerate(inst.columns[:-1]):
        cols = cols[cols < inst.n_vars]
        coeffs = x[cols][::-1]
        roots = np.roots(np.polyder(coeffs)).real
        t = np.r_[0.0, horizon, roots[(roots > 0.0) & (roots < horizon)]]
        values = np.polyval(coeffs, t)
        lo, hi = inst.arena[f // 2 % inst.n]
        for half, past in enumerate((lo - values, values - hi)):
            for time in t[past > tol]:
                groups.append(2 * f + half)
                times.append(time)
                row = np.zeros(inst.n_vars)
                row[cols] += (2.0 * half - 1.0) * np.vander([time], N=len(cols), increasing=True)[0]
                rows.append(row)
                rhs.append(-lo if half == 0 else hi)
    return (
        np.array(groups), np.array(times),
        np.array(rows).reshape(-1, inst.n_vars), np.array(rhs),
    )


def test_batched_arena_excursions_match_per_face_reference():
    """The batched exact arena check gives the per-face reference's
    (row group, time) entries in the same order, and the rows gathered
    from them are the reference's rows and right-hand sides, bit for
    bit."""
    spec = scenario_from_dict({
        "dims": 2, "horizon": 4.0, "epsilon": 0.05,
        "arena": [[0.0, 4.0], [0.0, 4.0]],
        "agents": [
            {"start": [[0.0, 1.0], [0.0, 1.0]], "goal": [[3.0, 4.0], [3.0, 4.0]],
             "tube_degree": [2, 3]},
            {"start": [[3.0, 4.0], [0.0, 1.0]], "goal": [[0.0, 1.0], [3.0, 4.0]],
             "tube_degree": [3, 3]},
        ],
        "obstacles": [],
    })
    inst = build_sop(spec, sample_unsafe(spec))
    assert np.allclose(np.diff(inst.times), 0.1)
    faces = [  # constant term first, one per face
        (-1.0, 3.0, -0.75),  # quadratic, below the arena at both ends
        (3.5591, 0.84, -0.4),  # quadratic peaking at 4.0001 at t = 1.05, between samples
        (1.0, 9.0, -6.0, 1.0),  # cubic, extrema at t = 1 (outside) and t = 3
        (-7.5, 13.0, -6.0, 1.0),  # cubic, derivative roots 2 +- 0.577i
        (3.0, 2.0, -0.5, 0.0),  # cubic slot, top coefficient exactly 0
        (3.0, 0.0, 0.5, -0.125),  # derivative with a zero constant term, peak at t = 8/3
        (4.5, -1.25, 0.0, 0.0),  # linear, past hi at t = 0 and past lo at t = 4
        (2.0, 0.0, 0.0, 0.0),  # constant, inside everywhere
    ]
    x = np.zeros(inst.n_vars)
    for cols, coeffs in zip(inst.columns, faces):
        x[cols[: len(coeffs)]] = coeffs
    groups, times = inst.arena_excursions(x, 1e-9)
    ref_groups, ref_times, ref_rows, ref_rhs = _arena_reference(inst, x, 1e-9)
    assert groups.tolist() == ref_groups.tolist()
    assert times.tobytes() == ref_times.tobytes()
    rows, rhs = inst.gather(groups, 0, np.vander(times, N=inst.powers.shape[1], increasing=True), 0)
    assert rows.tobytes() == ref_rows.tobytes() and rows.shape == ref_rows.shape
    assert rhs.tobytes() == ref_rhs.tobytes()
    # every face but the last leaves the arena; the second only between
    # samples, where the sampled scan sees nothing
    touched = {int(np.flatnonzero(row[: inst.eta_offset[0, 0]])[0]) for row in rows}
    assert touched == {int(cols[0]) for cols in inst.columns[:7]}
    sampled = inst.face_values(x).reshape(-1, inst.n_t)
    assert sampled[1].max() < 4.0 < np.polyval(np.array(faces[1])[::-1], 1.05)


def test_mini_synthesis_certifies(mini_result, mini_spec):
    cert = mini_result.certificate
    assert cert.passed and cert.margin <= 0.0
    assert mini_result.validation.all_pass


def test_soundness_chain(mini_result, mini_spec):
    """Certificate passing implies the dense oracle passes at eps/4: the
    sampled-to-robust argument made executable."""
    report = validate_tubes(
        mini_result.tubes, mini_spec,
        resolution=mini_spec.epsilon / 4.0, tolerance=1e-4,
    )
    assert report.all_pass
    # certified families clear zero strictly on the dense grid
    for family in ("width", "unsafe", "collision"):
        assert report.families[family].worst_margin < 0.0


def test_assignment_independent_soundness(mini_spec, mini_result):
    """Any assignment whose optimum certifies yields tubes the oracle
    accepts; witnesses affect optimality, never soundness."""
    samples = sample_unsafe(mini_spec)
    inst = build_sop(mini_spec, samples)
    asg = mini_result.assignment.copy()
    # perturb a few non-binding witnesses away from the converged choice:
    # reverse the pair's order at the first five samples (side bit of 2*dim + side)
    asg[0, :5] ^= 1
    diag = SolveDiagnostics()
    solve_sop(inst, [asg], diag)
    tubes = inst.tubes_from_solution(diag.x)
    cert = certify(diag.eta_star, tubes, mini_spec.epsilon)
    if cert.passed:
        report = validate_tubes(
            tubes, mini_spec, resolution=mini_spec.epsilon / 4.0, tolerance=1e-4
        )
        assert report.all_pass


def test_margin_monotone_in_epsilon(mini_spec):
    from sttube.scenario import scenario_from_dict, scenario_to_dict

    margins = []
    for eps in (0.02, 0.01, 0.005):
        raw = scenario_to_dict(mini_spec)
        raw["epsilon"] = eps
        res = synthesize(scenario_from_dict(raw))
        assert res.validation.all_pass, res.validation.summary()
        margins.append(res.certificate.margin)
    assert margins[2] <= margins[1] <= margins[0]


_MINI_IN_SUBPROCESS = """
import hashlib, json, sys
import numpy as np
import sttube.synth as synth
from sttube.scenario import scenario_from_dict

# sha256 over every LP the search solves: its inputs, status and x
digest, calls, solve = hashlib.sha256(), [0], synth.solve_lp

def traced_solve_lp(problem):
    calls[0] += 1
    for a in (problem.objective, problem.ineq_matrix, problem.ineq_rhs,
              problem.eq_matrix, problem.eq_rhs):
        a = np.zeros(0) if a is None else np.ascontiguousarray(a, dtype=float)
        digest.update(repr(a.shape).encode())
        digest.update(a.tobytes())
    sol = solve(problem)
    digest.update(sol.status.encode())
    if sol.x is not None:
        digest.update(np.ascontiguousarray(sol.x).tobytes())
    return sol

synth.solve_lp = traced_solve_lp
result = synth.synthesize(scenario_from_dict(json.load(sys.stdin)))
cert = result.certificate
tubes = hashlib.sha256()
for face, size in zip(result.tubes.coeffs.reshape(-1, result.tubes.coeffs.shape[-1]),
                      result.tubes.sizes.ravel()):
    tubes.update(face[:size].tobytes())
print(json.dumps({
    "iterations": result.iterations,
    "lp_solves": result.lp_solves,
    "lp_reused": result.lp_reused,
    "candidates": result.candidates,
    "pruned": result.pruned,
    "tubes_digest": tubes.hexdigest(),
    "lp_calls": calls[0],
    "lp_digest": digest.hexdigest(),
    "eta_star": cert.eta_star.hex(),
    "margin": cert.margin.hex(),
    "scipy_optimize_loaded": "scipy.optimize" in sys.modules,
    "numpy_polynomial_loaded": "numpy.polynomial" in sys.modules,
}))
"""


@pytest.fixture(scope="module")
def mini_in_subprocesses(mini_spec):
    """synthesize(mini) in fresh interpreters at 1 and 2 BLAS threads."""
    import json
    import os
    import subprocess
    import sys
    from pathlib import Path

    import sttube
    from sttube.scenario import scenario_to_dict

    runs = {}
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(sttube.__file__).parents[1]), env.get("PYTHONPATH", "")]
        )
        out = subprocess.run(
            [sys.executable, "-c", _MINI_IN_SUBPROCESS],
            input=json.dumps(scenario_to_dict(mini_spec)),
            env=env, capture_output=True, text=True, check=True,
        ).stdout
        runs[threads] = json.loads(out.splitlines()[-1])
    return runs


def test_mini_fingerprint_independent_of_blas_threads(mini_in_subprocesses):
    """Every LP input and output is the same bits at 1 and 2 BLAS threads,
    and so is the search's result; the sha256 over the whole LP sequence
    is pinned."""
    run = mini_in_subprocesses["1"]
    assert mini_in_subprocesses["2"] == run
    assert run["iterations"] == 10
    assert run["lp_solves"] == run["lp_calls"] == 92
    assert run["lp_reused"] == 11
    assert (run["candidates"], run["pruned"]) == (48, 37)
    assert run["tubes_digest"] == (
        "1befcbfdfec5f16c760b0fd8af95e09ab017269bfb7bfb1cb963d5495733391d"
    )
    # any reordering of rows or candidates changes some LP's bits
    assert run["lp_digest"] == (
        "bfc05aeabb5c513d13316fc102e5e17947beea3fc0d8aef243702302e6ecdf29"
    )
    assert float.fromhex(run["margin"]) == pytest.approx(-0.31918181671167484, abs=1e-12)


@pytest.mark.parametrize("case,lps,lp_digest", [
    ("robots", 152, "1a73d8e0bc262a4ffef607449c59f6e4d61b2b088e419250bfcfe359c52cbabf"),
    ("drones", 155, "5efb08ac7525f00cc4fbdcb538f474d212952c67f25b5139c4faa980309e15e4"),
], ids=["robots", "drones"])
def test_drone_lp_sequence_digest(case, lps, lp_digest, request, monkeypatch):
    """The sha256 over every LP the robots and drones searches solve, as
    the mini subprocess takes it.  The first drones step proposes more
    stuck-window candidates than a beam holds, so this pins which
    candidates ``BEAM_WIDTH`` keeps too."""
    import hashlib

    import sttube.synth as synth

    digest, solve = hashlib.sha256(), synth.solve_lp

    def traced_solve_lp(problem):
        for a in (problem.objective, problem.ineq_matrix, problem.ineq_rhs,
                  problem.eq_matrix, problem.eq_rhs):
            a = np.zeros(0) if a is None else np.ascontiguousarray(a, dtype=float)
            digest.update(repr(a.shape).encode())
            digest.update(a.tobytes())
        sol = solve(problem)
        digest.update(sol.status.encode())
        if sol.x is not None:
            digest.update(np.ascontiguousarray(sol.x).tobytes())
        return sol

    monkeypatch.setattr(synth, "solve_lp", traced_solve_lp)
    assert synth.synthesize(request.getfixturevalue(f"{case}_spec")).lp_solves == lps
    assert digest.hexdigest() == lp_digest


def test_synthesis_does_not_import_scipy_optimize(mini_in_subprocesses):
    assert not any(run["scipy_optimize_loaded"] for run in mini_in_subprocesses.values())


def test_synthesis_does_not_import_numpy_polynomial(mini_in_subprocesses):
    assert not any(run["numpy_polynomial_loaded"] for run in mini_in_subprocesses.values())


def test_failed_scoring_lp_scores_inf(mini_spec, monkeypatch):
    """A scoring LP that fails its numerical check ranks its option last,
    as an infeasible one does, instead of ending the search."""
    import sttube.synth as synth
    from sttube.lp import LpNumericalError

    inst = build_sop(mini_spec, sample_unsafe(mini_spec))
    # the first (agent, region) group
    group, window = inst.disjunct_groups.start + len(inst.pairs), list(range(20))
    assert synth._score_option(inst, group, window, 0, {}) < float("inf")

    def failing(problem):
        raise LpNumericalError("residual above tolerance")

    monkeypatch.setattr(synth, "solve_lp", failing)
    assert synth._score_option(inst, group, window, 0, {}) == float("inf")


def test_failed_seed_lp_is_synthesis_infeasible(mini_spec, monkeypatch):
    """An LP of the seed solve that HiGHS does not solve cleanly ends the
    search as SynthesisInfeasible, naming the tube degrees and keeping
    HiGHS's message, not as a bare LpNumericalError."""
    import sttube.synth as synth
    from sttube.lp import LpNumericalError

    def failing(problem):
        raise LpNumericalError("HiGHS stopped with status Not Set")

    monkeypatch.setattr(synth, "solve_lp", failing)
    with pytest.raises(synth.SynthesisInfeasible) as info:
        synthesize(mini_spec)
    message = str(info.value)
    assert "HiGHS stopped with status Not Set" in message
    assert "tube degrees [[2, 2], [2, 2]]" in message
    assert isinstance(info.value.__cause__, LpNumericalError)


def test_adversarial_seed_recovers(mini_spec):
    """Local search escapes an all-wrong-dimension seed within budget."""
    samples = sample_unsafe(mini_spec)
    inst = build_sop(mini_spec, samples)
    # every witness moved to dim 2, keeping its side (codes 2*dim + side)
    bad = 2 * 1 + seed_assignment(mini_spec, samples) % 2
    diag = SolveDiagnostics()
    solve_sop(inst, [bad], diag)
    for _ in range(25):
        cert = certify(diag.eta_star, inst.tubes_from_solution(diag.x), mini_spec.epsilon)
        if cert.passed:
            break
        diag = refine_assignment(inst, diag)
        assert diag is not None, "refinement stalled"
    assert cert.passed


def test_synthesize_returns_no_worse_than_first_certificate(mini_spec, mini_result):
    """The solve/refine loop from the seed, stopped at its first
    certificate, bounds what synthesize returns; a near miss (margin short
    of -L * eps) must be improved on."""
    samples = sample_unsafe(mini_spec)
    inst = build_sop(mini_spec, samples)
    asg = seed_assignment(mini_spec, samples)
    diag = SolveDiagnostics()
    solve_sop(inst, [asg], diag)
    for _ in range(25):
        first = certify(diag.eta_star, inst.tubes_from_solution(diag.x), mini_spec.epsilon)
        if first.passed:
            break
        diag = refine_assignment(inst, diag)
        assert diag is not None, "refinement stalled"
    assert first.passed
    margin = mini_result.certificate.margin
    assert margin <= first.margin
    if first.margin > -first.lipschitz_composite * mini_spec.epsilon:
        assert margin < first.margin


def test_synthesize_solves_each_assignment_once(mini_spec, monkeypatch):
    """No two candidates of one search, over all its ``solve_sop`` calls,
    share both their witness codes and their warm start (its keys and its
    exact arena entries): the solve a refinement step picks is certified as it is,
    not solved again."""
    import sttube.synth as synth

    calls, solved, solve = [], [], synth.solve_sop

    def recording(instance, candidates, diagnostics=None, warm=None):
        carried = () if warm is None else (warm.active_keys, warm.exact_groups, warm.exact_times)
        calls.append(len(candidates))
        solved.extend(
            (cand.tobytes(), *(np.ascontiguousarray(a).tobytes() for a in carried))
            for cand in candidates
        )
        return solve(instance, candidates, diagnostics, warm)

    monkeypatch.setattr(synth, "solve_sop", recording)
    result = synth.synthesize(mini_spec)
    assert result.certificate.passed
    # the seed, then one call per refinement step with its whole beam
    assert calls[0] == 1 and len(calls) == result.iterations
    assert sum(calls) == 1 + result.candidates
    assert len(set(solved)) == len(solved)


def test_refinement_beam_order_on_mini(mini_spec, monkeypatch):
    """Every beam of the mini search is, cut to ``BEAM_WIDTH``: the
    stuck-window candidates (the combo on top of the best-witness table,
    then one second-ranked variant per window), the boundary shifts, and
    last, only when it differs from the witnesses being refined, the
    best-witness table itself."""
    import sttube.synth as synth

    steps, windows, shifts = [], [], []
    solve = synth.solve_sop

    def recording_solve(instance, candidates, diagnostics=None, warm=None):
        if warm is not None:
            steps.append((instance, candidates, warm))
        return solve(instance, candidates, diagnostics, warm)

    def recording(name, outputs):
        inner = getattr(synth, name)

        def wrapper(*args):
            outputs.append(inner(*args))
            return outputs[-1]

        monkeypatch.setattr(synth, name, wrapper)

    monkeypatch.setattr(synth, "solve_sop", recording_solve)
    recording("_stuck_window_candidates", windows)
    recording("_boundary_shift_candidates", shifts)
    synth.synthesize(mini_spec)
    assert len(steps) == len(windows) == len(shifts) > 0
    tables_proposed = 0
    for (instance, beam, failure), found, shifted in zip(steps, windows, shifts):
        best_c, _ = instance.best_witnesses(instance.face_values(failure.x))
        expected = []
        if found:
            combo = best_c.copy()
            for g, window, ranked in found:
                combo[g, window] = ranked[0][1]
            expected.append(combo)
            for g, window, ranked in found:
                if len(ranked) > 1:
                    variant = combo.copy()
                    variant[g, window] = ranked[1][1]
                    expected.append(variant)
        expected += shifted
        if (best_c != failure.assignment).any():
            expected.append(best_c)
            tables_proposed += len(expected) <= synth.BEAM_WIDTH
        expected = expected[: synth.BEAM_WIDTH]
        assert [cand.tobytes() for cand in beam] == [c.tobytes() for c in expected]
    assert tables_proposed > 0


def _winner_bytes(diag):
    """What a refinement step hands on: the point, eta*, the witnesses and
    the warm start of the next step."""
    return (
        diag.x.tobytes(), diag.eta_star.hex(),
        diag.assignment.tobytes(),
        np.asarray(diag.active_keys).tobytes(),
        diag.exact_groups.tobytes(), diag.exact_times.tobytes(),
    )


def _solve_alone(instance, candidate, warm):
    """``candidate`` solved to the end on its own, or None when it fails."""
    from sttube.lp import LpNumericalError
    from sttube.synth import SynthesisInfeasible

    diag = SolveDiagnostics()
    try:
        solve_sop(instance, [candidate], diag, warm=warm)
    except (SynthesisInfeasible, LpNumericalError):
        return None
    return diag


def _check_pruning_keeps_the_winner(instance, failure, monkeypatch):
    """One refinement step from ``failure``, run best first, against each
    of its candidates solved to the end on its own: the same winner comes
    out, the least (eta*, position).  Every candidate stopped early was
    stopped at the winner's eta* (nothing finishes after the first stop),
    and solved to the end it ends no lower, while its last LP bound lies
    above the winner and below its own eta*.  A step whose winner reaches
    the eta floor stops there instead: the winner is the one that got
    there first, and no candidate, solved to its end, ends below the
    floor.  Returns the winner and the number stopped early."""
    import sttube.synth as synth

    beams, last_bound, ended = [], {}, set()
    solve, rounds = synth.solve_sop, synth._lazy_rounds

    def recording_solve(instance, candidates, diagnostics=None, warm=None):
        beams.append(candidates)
        return solve(instance, candidates, diagnostics, warm)

    def recording_rounds(instance, codes, *args):
        inner = rounds(instance, codes, *args)
        try:
            while True:
                last_bound[id(codes)] = bound = next(inner)
                yield bound
        except StopIteration as done:
            ended.add(id(codes))
            return done.value
        except Exception:
            ended.add(id(codes))
            raise

    monkeypatch.setattr(synth, "solve_sop", recording_solve)
    monkeypatch.setattr(synth, "_lazy_rounds", recording_rounds)
    winner = refine_assignment(instance, failure)
    monkeypatch.setattr(synth, "solve_sop", solve)
    monkeypatch.setattr(synth, "_lazy_rounds", rounds)
    if not beams:
        assert winner is None
        return None, 0
    (beam,) = beams
    alone = [_solve_alone(instance, cand, failure) for cand in beam]
    solved = [(d.eta_star, pos) for pos, d in enumerate(alone) if d is not None]
    assert (winner is None) == (not solved)
    if winner is None:
        return None, 0
    at_floor = winner.eta_star <= instance.eta_floor + synth.FLOOR_TOL
    if at_floor:
        assert min(solved)[0] >= instance.eta_floor - 1e-9
        pos = next(q for q, cand in enumerate(beam) if cand is winner.assignment)
    else:
        pos = min(solved)[1]
    assert winner.assignment is beam[pos]
    assert _winner_bytes(winner) == _winner_bytes(alone[pos])
    stopped = [q for q, cand in enumerate(beam) if id(cand) not in ended]
    for q in stopped:
        bound = last_bound[id(beam[q])]
        assert at_floor or winner.eta_star + 1e-6 < bound
        if alone[q] is not None:
            assert alone[q].eta_star >= winner.eta_star - at_floor * 1e-9
            assert bound <= alone[q].eta_star + 1e-6
    return winner, len(stopped)


def test_pruning_keeps_every_winner_on_mini(mini_spec, mini_result, monkeypatch):
    """Along the whole refinement chain of mini, each step picks the same
    winner best first as with every candidate solved to the end."""
    samples = sample_unsafe(mini_spec)
    inst = build_sop(mini_spec, samples)
    diag = SolveDiagnostics()
    solve_sop(inst, [seed_assignment(mini_spec, samples)], diag)
    stopped = 0
    for _ in range(mini_result.iterations):
        diag, count = _check_pruning_keeps_the_winner(inst, diag, monkeypatch)
        stopped += count
        if diag is None:
            break
    assert stopped > 0


def test_pruning_keeps_the_first_robots_winner(robots_spec, monkeypatch):
    samples = sample_unsafe(robots_spec)
    inst = build_sop(robots_spec, samples)
    seed = SolveDiagnostics()
    solve_sop(inst, [seed_assignment(robots_spec, samples)], seed)
    winner, stopped = _check_pruning_keeps_the_winner(inst, seed, monkeypatch)
    assert winner is not None and stopped > 0


def test_floor_stops_keep_the_robots_winners(robots_spec, robots_result, monkeypatch):
    """Along the whole robots refinement chain, whose last three steps
    stop at the eta floor, each winner is the one the checks of
    ``_check_pruning_keeps_the_winner`` allow."""
    samples = sample_unsafe(robots_spec)
    inst = build_sop(robots_spec, samples)
    diag = SolveDiagnostics()
    solve_sop(inst, [seed_assignment(robots_spec, samples)], diag)
    at_floor = []
    for _ in range(robots_result.iterations):
        diag, _ = _check_pruning_keeps_the_winner(inst, diag, monkeypatch)
        if diag is None:
            break
        at_floor.append(diag.eta_star <= inst.eta_floor + 1e-12)
    assert at_floor.count(True) == 3


def test_duplicated_candidate_loses_to_its_earlier_copy(mini_spec):
    """Equal optima go to the earlier position: of two copies of one
    candidate, the first wins with the bits it has alone, and the second,
    whose bounds never rise above that optimum, runs to its end on the
    first one's LPs, solving none of its own (mini's seed step stays above
    its eta floor, so nothing stops it there)."""
    samples = sample_unsafe(mini_spec)
    inst = build_sop(mini_spec, samples)
    asg = seed_assignment(mini_spec, samples)
    seed = SolveDiagnostics()
    solve_sop(inst, [asg], seed)
    alone = _solve_alone(inst, asg, seed)
    assert alone.eta_star > inst.eta_floor + 0.1
    for first, second in ((asg, asg.copy()), (asg.copy(), asg)):
        diag = SolveDiagnostics()
        solve_sop(inst, [first, second], diag, warm=seed)
        assert diag.assignment is first
        assert _winner_bytes(diag) == _winner_bytes(alone)
        assert diag.lp_solves == alone.lp_solves
        assert diag.lp_reused == alone.lp_solves
    assert inst.pruned == 0


@pytest.mark.parametrize("case,floor", [
    ("robots", -0.199999), ("drones", -0.049999), ("mini", -0.599999), ("moving_bar", -0.699999),
])
def test_eta_floor_is_set_by_the_pinned_width_rows(case, floor, request):
    """The least eta* the endpoint pins allow: ETA_GAP plus the largest
    min_width - box width over the start and goal boxes, both sample
    times on these grids."""
    from sttube import data_path, load_scenario
    from sttube.synth import ETA_GAP

    if case == "moving_bar":
        spec = load_scenario(data_path("moving_bar.scenario"))
    else:
        spec = request.getfixturevalue(f"{case}_spec")
    inst = build_sop(spec, sample_unsafe(spec))
    assert inst.eta_floor == pytest.approx(floor, abs=1e-12)
    widths = np.array([[np.subtract(*box.T[::-1]) for box in (a.start, a.goal)]
                       for a in spec.agents])
    room = np.array([a.min_width for a in spec.agents])[:, None] - widths
    assert inst.eta_floor == ETA_GAP + room.max()


def test_eta_floor_is_minus_inf_without_a_pinned_sample():
    """On the single-sample grid [t_c / 2] neither pinned endpoint is a
    sample time, so no width row is fixed and no floor stops a solve."""
    spec = scenario_from_dict({
        "dims": 2, "horizon": 0.5, "epsilon": 1.0,
        "arena": [[0.0, 4.0], [0.0, 4.0]],
        "agents": [{"start": [[0.0, 1.0], [0.0, 1.0]], "goal": [[3.0, 4.0], [3.0, 4.0]],
                    "tube_degree": [2, 2]}],
        "obstacles": [],
    })
    with pytest.warns(UserWarning, match="degenerate"):
        samples = sample_unsafe(spec)
    assert build_sop(spec, samples).eta_floor == -math.inf


@pytest.mark.parametrize("case", ["mini", "robots"])
def test_every_solve_ends_at_or_above_the_eta_floor(case, request, monkeypatch):
    """Every candidate solved to its end in a whole search, the seed's
    included, ends at an eta* no lower than the floor, up to the scan's
    tolerance: no candidate the floor stops could have beaten it."""
    import sttube.synth as synth

    rounds, ends = synth._lazy_rounds, []

    def recording_rounds(instance, *args):
        x, *rest = yield from rounds(instance, *args)
        ends.append(float(x[instance.eta_global]) - instance.eta_floor)
        return (x, *rest)

    monkeypatch.setattr(synth, "_lazy_rounds", recording_rounds)
    result = synthesize(request.getfixturevalue(f"{case}_spec"))
    assert len(ends) >= result.iterations
    assert min(ends) >= -1e-9
    assert result.at_eta_floor == (case == "robots")


def test_solve_stops_at_the_eta_floor_with_the_first_finisher(monkeypatch):
    """One agent, no obstacles: every witness table is the same, and its
    optimum sits at the floor the pinned width rows set.  Of two copies,
    the first to finish wins with the bits it has alone; the second, tied
    with it, is stopped after its first round (answered by the first
    copy's LP) instead of running to its end."""
    spec = scenario_from_dict({
        "dims": 2, "horizon": 2.0, "epsilon": 0.05,
        "arena": [[0.0, 4.0], [0.0, 4.0]],
        "agents": [{"start": [[0.0, 1.0], [0.0, 1.0]], "goal": [[3.0, 4.0], [3.0, 4.0]],
                    "tube_degree": [2, 2], "min_width": [0.4, 0.4]}],
        "obstacles": [],
    })
    samples = sample_unsafe(spec)
    inst = build_sop(spec, samples)
    asg = seed_assignment(spec, samples)
    alone = _solve_alone(inst, asg, None)
    assert alone.lp_solves > 1
    assert alone.eta_star == pytest.approx(inst.eta_floor, abs=1e-12)
    diag = SolveDiagnostics()
    solve_sop(inst, [asg, asg.copy()], diag)
    assert diag.assignment is asg
    assert _winner_bytes(diag) == _winner_bytes(alone)
    assert (diag.lp_solves, diag.lp_reused) == (alone.lp_solves, 1)
    assert inst.pruned == 1


def test_identical_scoring_lps_are_solved_once(mini_spec, monkeypatch):
    """The stuck windows of mini's seed solve score 12 options; two of
    them, both options of one collision pair, are the same LP bytes.  One
    call solves that LP once and ranks every option as scoring each
    afresh does."""
    import sttube.synth as synth

    samples = sample_unsafe(mini_spec)
    inst = build_sop(mini_spec, samples)
    seed = SolveDiagnostics()
    solve_sop(inst, [seed_assignment(mini_spec, samples)], seed)
    _, best_v = inst.best_witnesses(inst.face_values(seed.x))
    solve, score, calls = synth.solve_lp, synth._score_option, []

    def counting(problem):
        calls.append(problem)
        return solve(problem)

    monkeypatch.setattr(synth, "solve_lp", counting)
    solves, reused = inst.lp_solves, inst.lp_reused
    windows = synth._stuck_window_candidates(inst, best_v)
    assert (len(calls), inst.lp_solves - solves, inst.lp_reused - reused) == (11, 11, 1)
    monkeypatch.setattr(
        synth, "_score_option",
        lambda instance, group, window, code, scores: score(instance, group, window, code, {}),
    )
    assert synth._stuck_window_candidates(inst, best_v) == windows
    assert len(calls) == 11 + 12


def test_no_solving_candidate_raises_the_first_error(mini_spec, monkeypatch):
    """When every candidate fails, the error of the first one is raised,
    whichever failed first."""
    import sttube.synth as synth
    from sttube.lp import LpNumericalError

    samples = sample_unsafe(mini_spec)
    inst = build_sop(mini_spec, samples)
    asg = seed_assignment(mini_spec, samples)
    calls = []

    def failing(problem):
        calls.append(problem)
        raise LpNumericalError(f"LP {len(calls)}")

    monkeypatch.setattr(synth, "solve_lp", failing)
    with pytest.raises(LpNumericalError, match="LP 1"):
        solve_sop(inst, [asg, asg.copy(), asg.copy()], SolveDiagnostics())
    assert len(calls) == 3
    with pytest.raises(ValueError):
        solve_sop(inst, [], SolveDiagnostics())


def test_suspended_candidates_hold_no_dense_state(robots_spec, monkeypatch):
    """The traced peak memory of one robots refinement step does not grow
    with its candidates: it stays within 256 KiB of the largest peak of
    its candidates solved alone.  Between rounds a candidate holds only
    its active keys, the keys ever added with their re-add counts, its
    exact (row group, time) entries and its point; each scan builds its
    dense arrays (face values, witness indices and values) and drops them
    before the LP.
    Dense state held between rounds (witness indices, an active mask and
    re-add counts over every key) would add about 0.85 MB per waiting
    candidate on robots, about 6 MB here."""
    import tracemalloc

    import sttube.synth as synth

    samples = sample_unsafe(robots_spec)
    inst = build_sop(robots_spec, samples)
    seed = SolveDiagnostics()
    solve_sop(inst, [seed_assignment(robots_spec, samples)], seed)
    beams, solve = [], synth.solve_sop

    def recording(instance, candidates, diagnostics=None, warm=None):
        beams.append(candidates)
        return solve(instance, candidates, diagnostics, warm)

    monkeypatch.setattr(synth, "solve_sop", recording)
    refine_assignment(inst, seed)
    (beam,) = beams
    assert len(beam) == synth.BEAM_WIDTH

    def traced_peak(candidates):
        tracemalloc.start()
        try:
            solve(inst, candidates, SolveDiagnostics(), warm=seed)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    alone = max(traced_peak([cand]) for cand in beam)
    assert traced_peak(beam) <= alone + 256 * 1024


@pytest.mark.parametrize("case", ["robots", "drones"])
def test_warm_start_carries_exact_arena_rows(case, request):
    """Re-solving the seed assignment warm from its own first solve finds
    no arena row between samples: the warm start already carries every
    exact (row group, time) entry the first solve found, so the re-solve
    takes one LP per round the sampled scan needs and none for the exact
    check."""
    spec = request.getfixturevalue(f"{case}_spec")
    samples = sample_unsafe(spec)
    inst = build_sop(spec, samples)
    asg = seed_assignment(spec, samples)
    first = SolveDiagnostics()
    solve_sop(inst, [asg], first)
    assert len(first.exact_times) > 0  # the first solve needed exact rows

    found, excursions = [], inst.arena_excursions

    def counting(x, tol):
        groups, times = excursions(x, tol)
        found.append(len(times))
        return groups, times

    inst.arena_excursions = counting
    again = SolveDiagnostics()
    solve_sop(inst, [asg], again, warm=first)
    assert found and not any(found)
    assert again.lp_solves < first.lp_solves
    assert again.exact_groups.tobytes() == first.exact_groups.tobytes()
    assert again.exact_times.tobytes() == first.exact_times.tobytes()
    assert again.eta_star == pytest.approx(first.eta_star, abs=1e-12)


def test_warm_start_carries_over_to_other_tube_degrees():
    """A warm start names rows by key and by (row group, time), not by
    column: the seed solve of the shipped moving-bar scenario at its
    tube degrees (six exact arena rows) warm-starts a degree-4 instance
    of the same samples, which keeps those entries and reaches the cold
    solve's eta* in fewer LPs."""
    from sttube import data_path, load_scenario

    spec = load_scenario(data_path("moving_bar.scenario"))
    samples = sample_unsafe(spec)
    asg = seed_assignment(spec, samples)
    first = SolveDiagnostics()
    solve_sop(build_sop(spec, samples), [asg], first)
    assert len(first.exact_times) == 6
    inst = build_sop(spec, samples, degree=4)
    assert (inst.z == 5).all() and inst.n_vars != len(first.x)
    warm, cold = SolveDiagnostics(), SolveDiagnostics()
    solve_sop(inst, [asg], warm, warm=first)
    solve_sop(inst, [asg], cold)
    assert (inst.tubes_from_solution(warm.x).sizes == 5).all()
    assert warm.exact_groups[:6].tolist() == first.exact_groups.tolist()
    assert warm.exact_times[:6].tobytes() == first.exact_times.tobytes()
    assert warm.eta_star == pytest.approx(cold.eta_star, abs=1e-9)
    assert warm.lp_solves < cold.lp_solves


def test_published_tables_validate_at_rounding_tolerance(
    robots_table, robots_spec, drones_table, drones_spec
):
    """All constraint families hold up to the coefficient-rounding bound
    (5e-5 times the sum of horizon powers: 0.056 for the cubic robot
    rows, 0.021 for the quadratic drone rows)."""
    rob = validate_tubes(robots_table, robots_spec, resolution=0.001, tolerance=0.056)
    assert rob.all_pass, rob.summary()
    dro = validate_tubes(drones_table, drones_spec, resolution=0.001, tolerance=0.021)
    assert dro.all_pass, dro.summary()
    # families beyond the endpoint/arena pair already hold at 0.01
    for report in (rob, dro):
        for family in ("width", "unsafe", "collision"):
            assert report.families[family].worst_margin <= 0.01


def test_published_drone_pair_overlap_is_within_rounding(drones_table, drones_spec):
    # the published second and fourth drone tubes brush each other by
    # +0.009, inside the rounding tolerance but not strictly separated
    report = validate_tubes(drones_table, drones_spec, resolution=0.001)
    assert report.families["collision"].worst_margin == pytest.approx(0.0091, abs=2e-3)


def test_validation_catches_swapped_faces(robots_table, robots_spec):
    from sttube.tube import tubes_from_dict, tubes_to_dict

    raw = tubes_to_dict(robots_table)
    a0 = raw["agents"][0]["dims"][0]
    a1 = raw["agents"][1]["dims"][0]
    a0["lower"], a1["lower"] = a1["lower"], a0["lower"]
    a0["upper"], a1["upper"] = a1["upper"], a0["upper"]
    broken = tubes_from_dict(raw)
    report = validate_tubes(broken, robots_spec, resolution=0.01, tolerance=0.056)
    assert not report.families["collision"].passed


def test_validation_refuses_tubes_that_do_not_fit_the_scenario(robots_table, robots_spec):
    """A one-agent table, or one over half the horizon, is refused with
    the message the closed loop gives for it, not reshaped or evaluated
    past the tubes' horizon."""
    import dataclasses

    from sttube.sim import run_closed_loop
    from sttube.tube import TubeSet

    one = TubeSet(
        horizon=robots_table.horizon, coeffs=robots_table.coeffs[:1],
        sizes=robots_table.sizes[:1], min_widths=robots_table.min_widths[:1],
        names=robots_table.names[:1],
    )
    half = dataclasses.replace(robots_table, horizon=robots_spec.horizon / 2)
    for tubes in (one, half):
        with pytest.raises(ValueError, match="tubes do not match the scenario") as err:
            validate_tubes(tubes, robots_spec, resolution=0.01)
        with pytest.raises(ValueError) as loop:
            run_closed_loop(robots_spec, tubes)
        assert str(err.value) == str(loop.value)


def test_synthesize_never_returns_certified_invalid_tubes(sweeping_bar, monkeypatch):
    """A certificate whose tubes fail the eps/4 dense validation raises
    SynthesisFailure naming the failing families, with the certified
    margin as its best margin.  With the bar's speed in the certificate
    nothing certifies here (``test_fast_bars_are_never_certified``), so
    the certificate is made to ignore it."""
    from sttube.scenario import UnsafeRegion

    monkeypatch.setattr(UnsafeRegion, "speed", property(lambda region: 0.0))
    with pytest.raises(SynthesisFailure) as err:
        synthesize(scenario_from_dict(sweeping_bar))
    assert "fail their own eps/4 validation in families ['unsafe']" in str(err.value)
    assert err.value.best_margin == pytest.approx(-0.0687, abs=1e-4)


@pytest.mark.parametrize("v", [20.0, 40.0])
def test_fast_bars_are_never_certified(moving_bar, v):
    """At eps 0.1 the bars of speed 20 and 40 cross a sample gap in less
    than one sample spacing.  The certificate itself refuses every
    iterate (its best margin is above 0), so the search stalls before
    the eps/4 validation is reached."""
    with pytest.raises(SynthesisFailure) as err:
        synthesize(scenario_from_dict(moving_bar(v, 0.1)))
    assert str(err.value).startswith("assignment search stalled without certification")
    assert err.value.best_margin > 0.0
    assert err.value.best_margin == err.value.eta_star + err.value.l_eps
    assert err.value.l_eps >= (v + 1.0) * 0.1


def test_a_failed_synthesis_names_what_blocked_it(moving_bar, robots_spec):
    """The v 10 bar at eps 0.1 is feasible on the samples (eta* < 0) and
    fails only on L * eps; the v 5 bar at eps 0.02 has no searched witness
    table that makes the samples feasible (eta* > 0).  A degree that
    cannot meet the endpoint pins is still a construction error."""
    with pytest.raises(SynthesisFailure) as err:
        synthesize(scenario_from_dict(moving_bar(10.0, 0.1)))
    assert err.value.eta_star == pytest.approx(-0.7, abs=1e-5)
    assert err.value.l_eps == pytest.approx(1.5136, abs=1e-4)
    assert err.value.best_margin == err.value.eta_star + err.value.l_eps
    assert str(err.value).endswith(
        "(best margin 0.813570: eta* -0.699999, L*eps 1.513569); "
        "the sampled problem is feasible, and a smaller epsilon may certify"
    )
    with pytest.raises(SynthesisFailure) as err:
        synthesize(scenario_from_dict(moving_bar(5.0, 0.02)))
    assert err.value.eta_star == pytest.approx(0.1545, abs=1e-4)
    assert err.value.l_eps == pytest.approx(0.2899, abs=1e-4)
    assert str(err.value).endswith(
        "no searched witness table makes the sampled problem feasible at this degree"
    )
    with pytest.raises(SynthesisError, match="higher-degree"):
        synthesize(robots_spec, degree_override=0)


def test_moving_bar_end_to_end():
    """The shipped v 2 bar certifies with its speed in L, passes its own
    dense validation, and its closed loop verifies for three disturbance
    seeds."""
    from sttube import data_path, load_scenario
    from sttube.sim import run_closed_loop
    from sttube.verify import verify_run

    spec = load_scenario(data_path("moving_bar.scenario"))
    result = synthesize(spec)
    cert = result.certificate
    assert cert.passed and cert.obstacle_speed == 2.0
    assert cert.margin == pytest.approx(-0.591986, abs=1e-6)
    assert result.validation.all_pass
    for seed in (1, 2, 3):
        report = verify_run(run_closed_loop(spec, result.tubes, seed=seed), spec, result.tubes)
        assert report.all_pass, report.failed_checks()
        assert report.agents[0].worst_containment_margin > 0.25


def test_robot_synthesis_result(robots_result, robots_spec):
    cert = robots_result.certificate
    assert cert.passed
    # the published scenario solved to -0.05; ours must reach at least -0.03
    assert cert.eta_star <= -0.03
    assert robots_result.validation.all_pass
    assert robots_result.wall_time < 300.0


def _tubes_digest(tubes):
    """sha256 over every face's coefficients, agent by agent and dim by
    dim, lower face first (the digest the mini subprocess prints)."""
    import hashlib

    digest = hashlib.sha256()
    for face, size in zip(tubes.coeffs.reshape(-1, tubes.coeffs.shape[-1]), tubes.sizes.ravel()):
        digest.update(face[:size].tobytes())
    return digest.hexdigest()


def test_robot_synthesis_fingerprint(robots_result):
    """The witness search's exact result on the robots case study.  It is
    the same at 1 and 2 BLAS threads, so any change to the search, its
    tie-breaks, its row order or the rows a round adds shows here."""
    cert = robots_result.certificate
    assert robots_result.iterations == 7
    assert (robots_result.lp_solves, robots_result.lp_reused) == (152, 9)
    assert (robots_result.candidates, robots_result.pruned) == (35, 29)
    assert robots_result.at_eta_floor
    assert _tubes_digest(robots_result.tubes) == (
        "3c314d54de7a11376786a6d37be34036af899aad1d1effa16ae3e82b2af3100c"
    )
    assert cert.eta_star == pytest.approx(-0.199999, abs=1e-12)
    assert cert.margin == pytest.approx(-0.19402513125294502, abs=1e-12)


def test_drone_synthesis_fingerprint(drones_result):
    """The witness search's exact result on the drones case study, the
    same at 1 and 2 BLAS threads."""
    cert = drones_result.certificate
    assert drones_result.iterations == 9
    assert (drones_result.lp_solves, drones_result.lp_reused) == (155, 40)
    assert (drones_result.candidates, drones_result.pruned) == (45, 35)
    assert drones_result.at_eta_floor
    assert _tubes_digest(drones_result.tubes) == (
        "31acf0c3a86ade21668cba5b12347ef9fcb034384573f1b567aac94c1bb555b9"
    )
    assert cert.eta_star == pytest.approx(-0.04999899999999999, abs=1e-12)
    assert cert.margin == pytest.approx(-0.010433399676316214, abs=1e-12)
