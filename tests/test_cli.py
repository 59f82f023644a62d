import argparse
import json

import numpy as np
import pytest

from sttube import data_path
from sttube.cli import EXIT_SYNTH, EXIT_USAGE, EXIT_VERIFY, build_parser, main
from sttube.scenario import scenario_from_dict
from sttube.synth import synthesize
from sttube.lipschitz import SlopeSampleConfig, convergence_sweep, estimate_face
from sttube.tube import TubeSet, analytic_slope_bound, load_tubes, save_tubes


SOLO = {
    "dims": 2,
    "horizon": 2.0,
    "epsilon": 0.01,
    "arena": [[0.0, 6.0], [0.0, 6.0]],
    "agents": [
        {"start": [[0.0, 1.0], [0.0, 1.0]], "goal": [[5.0, 6.0], [5.0, 6.0]],
         "tube_degree": [2, 2], "min_width": [0.4, 0.4]}
    ],
    "obstacles": [],
    "plant": {"kind": "omnidirectional",
              "disturbance": {"bound": 0.01, "kind": "uniform", "seed": 1}},
}


@pytest.fixture()
def solo_scenario(tmp_path):
    path = tmp_path / "solo.scenario"
    path.write_text(json.dumps(SOLO))
    return path


def test_synth_writes_tubes_certificate_manifest(tmp_path, solo_scenario, capsys):
    code = main(["synth", str(solo_scenario), "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "certified=yes" in out
    assert (tmp_path / "solo.tubes").exists()
    cert = json.loads((tmp_path / "solo.cert.json").read_text())
    assert cert["passed"] is True and cert["margin"] <= 0
    manifest = json.loads((tmp_path / "solo.synth.manifest.json").read_text())
    assert manifest["command"] == "synth"
    outputs = manifest["outputs"]
    assert outputs["tubes"].endswith("solo.tubes")
    assert (outputs["eta_star"], outputs["margin"]) == (cert["eta_star"], cert["margin"])
    assert (
        f"iterations={outputs['iterations']}  lp_solves={outputs['lp_solves']}  "
        f"candidates={outputs['candidates']}  pruned={outputs['pruned']}  "
        f"lp_reused={outputs['lp_reused']}"
    ) in out
    assert 1 <= outputs["iterations"] <= outputs["lp_solves"]
    assert 0 <= outputs["pruned"] <= outputs["candidates"]
    # one agent and no obstacles: only the pinned width rows bind eta*
    assert outputs["at_eta_floor"] is True and "at_eta_floor=yes" in out


def test_synth_degree_zero_exits_2(tmp_path, capsys):
    """A failed synthesis writes nothing, not even its ``--out`` directory."""
    code = main([
        "synth", str(data_path("robots.scenario")), "--degree", "0",
        "--out", str(tmp_path / "out"),
    ])
    assert code == 2
    assert "higher-degree" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_synth_failed_lp_is_a_synthesis_failure(tmp_path, solo_scenario, capsys, monkeypatch):
    """An LP that fails its numerical check ends ``synth`` with a
    ``synthesis failed:`` line and exit code 2, not a traceback."""
    import sttube.synth as synth
    from sttube.lp import LpNumericalError

    def failing(problem):
        raise LpNumericalError("equality residual 1e-3 above tolerance")

    monkeypatch.setattr(synth, "solve_lp", failing)
    code = main(["synth", str(solo_scenario), "--out", str(tmp_path)])
    assert code == EXIT_SYNTH
    err = capsys.readouterr().err
    assert "synthesis failed: equality residual 1e-3 above tolerance" in err
    assert not (tmp_path / "solo.tubes").exists()


def test_synth_certified_but_invalid_tubes_exit_2(tmp_path, sweeping_bar, capsys, monkeypatch):
    """Tubes that certify but fail their own eps/4 validation are a
    synthesis failure: exit 2, a ``synthesis failed:`` line naming the
    failing family, and no tubes written.  The certificate is made to
    ignore the bar's speed, as in ``test_synth.py``, so that it passes."""
    from sttube.scenario import UnsafeRegion

    monkeypatch.setattr(UnsafeRegion, "speed", property(lambda region: 0.0))
    path = tmp_path / "bar.scenario"
    path.write_text(json.dumps(sweeping_bar))
    code = main(["synth", str(path), "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == EXIT_SYNTH
    assert err.startswith("synthesis failed: certified tubes") and "['unsafe']" in err
    assert not (tmp_path / "bar.tubes").exists()


def test_synth_negative_degree_is_a_usage_error(tmp_path, capsys):
    code = main([
        "synth", str(data_path("robots.scenario")), "--degree", "-1",
        "--out", str(tmp_path),
    ])
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert err.startswith("error: ") and "degrees must be nonnegative" in err


@pytest.mark.parametrize("epsilon", ["0", "-0.01"], ids=["zero", "negative"])
def test_synth_rejects_nonpositive_epsilon(tmp_path, solo_scenario, capsys, epsilon):
    """A nonpositive ``--epsilon`` is a usage error: an ``error:`` line and
    exit code 1."""
    code = main(["synth", str(solo_scenario), "--epsilon", epsilon, "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and "epsilon must be positive" in err


@pytest.mark.parametrize("command,message", [
    (["synth", "robots.scenario", "--epsilon", "nan"], "epsilon must be positive"),
    (["lipschitz", "robots_table.tubes", "--alpha", "nan"], "alpha must be positive"),
    (["simulate", "robots.scenario", "robots_table.tubes", "--force", "--kappa", "nan"],
     "stage gains must be positive"),
    (["synth", "robots.scenario", "--epsilon", "inf"], "epsilon must be positive and finite"),
    (["lipschitz", "robots_table.tubes", "--alpha", "inf"], "alpha must be positive and finite"),
    (["simulate", "robots.scenario", "robots_table.tubes", "--force", "--kappa", "inf"],
     "stage gains must be positive and finite"),
    (["simulate", "robots.scenario", "robots_table.tubes", "--force", "--dt", "inf"],
     "dt must be positive and finite"),
], ids=["synth-epsilon", "lipschitz-alpha", "simulate-kappa", "synth-epsilon-inf",
        "lipschitz-alpha-inf", "simulate-kappa-inf", "simulate-dt-inf"])
def test_nan_settings_are_usage_errors(tmp_path, capsys, command, message):
    """NaN passes an ``x <= 0`` check and infinity a ``not x > 0`` one;
    every positivity check rejects both, so such a setting is an
    ``error:`` line and exit code 1."""
    name, *rest = command
    args = [str(data_path(a)) if a.endswith((".scenario", ".tubes")) else a for a in rest]
    out = ["--out", str(tmp_path)] if name != "lipschitz" else []
    code = main([name, *args, *out])
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert err.startswith("error: ") and message in err


def test_simulate_end_to_end_and_determinism(tmp_path, solo_scenario, capsys):
    assert main(["synth", str(solo_scenario), "--out", str(tmp_path)]) == 0
    tubes = tmp_path / "solo.tubes"
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    code = main(["simulate", str(solo_scenario), str(tubes),
                 "--seed", "5", "--out", str(out1)])
    assert code == 0
    assert main(["simulate", str(solo_scenario), str(tubes),
                 "--seed", "5", "--out", str(out2)]) == 0
    csv1 = (out1 / "solo.trajectories.csv").read_bytes()
    csv2 = (out2 / "solo.trajectories.csv").read_bytes()
    assert csv1 == csv2
    report = json.loads((out1 / "solo.verify.json").read_text())
    assert report["all_pass"] is True
    # the manifest's run block: per agent its steps, clamps, abort and
    # worst margin, and the report's sampling robustness
    run = json.loads((out1 / "solo.simulate.manifest.json").read_text())["run"]
    (agent,) = report["agents"]
    assert run == {
        "agents": [{
            "name": agent["name"],
            "steps": round(SOLO["horizon"] / 1e-3),  # the default dt
            "clamp_count": 0,
            "aborted": None,
            "worst_containment_margin": agent["worst_containment_margin"],
        }],
        "sampling_robustness": report["sampling_robustness"],
    }
    assert agent["worst_containment_margin"] > 0.0


@pytest.fixture(scope="module")
def solo_outputs(tmp_path_factory):
    """The directory that ``synth``, ``simulate`` and ``lipschitz --out``
    write on SOLO."""
    out = tmp_path_factory.mktemp("solo")
    scenario = out / "solo.scenario"
    scenario.write_text(json.dumps(SOLO))
    assert main(["synth", str(scenario), "--out", str(out)]) == 0
    tubes = str(out / "solo.tubes")
    assert main(["simulate", str(scenario), tubes, "--out", str(out)]) == 0
    assert main(["lipschitz", tubes, "--out", str(out)]) == 0
    return out


def _strict_json(text):
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=refuse)


def test_every_output_file_is_strict_json(solo_outputs):
    """No file a command writes holds Infinity or NaN: with one agent
    the report's least pairwise distance and tube gap are unbounded, and
    are written as null."""
    paths = [solo_outputs / "solo.tubes", *solo_outputs.glob("*.json")]
    assert len(paths) == 6  # tubes, certificate, report, three manifests
    parsed = {path.name: _strict_json(path.read_text()) for path in paths}
    ca = parsed["solo.verify.json"]["ca"]
    assert (ca["min_pairwise_distance"], ca["min_tube_gap"]) == (None, None)


def test_every_manifest_records_every_flag_of_its_command(solo_outputs):
    """Each argument of each command, as ``build_parser`` declares it,
    save the output directory, is a key of that command's manifest."""
    (commands,) = [
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    assert sorted(commands.choices) == ["lipschitz", "simulate", "synth"]
    for command, parser in commands.choices.items():
        manifest = json.loads((solo_outputs / f"solo.{command}.manifest.json").read_text())
        flags = {a.dest for a in parser._actions if a.dest not in ("help", "out")}
        assert manifest["command"] == command
        assert flags <= manifest["arguments"].keys(), command


def test_simulate_requires_certificate(tmp_path, solo_scenario):
    assert main(["synth", str(solo_scenario), "--out", str(tmp_path)]) == 0
    tubes = tmp_path / "solo.tubes"
    (tmp_path / "solo.cert.json").unlink()
    code = main(["simulate", str(solo_scenario), str(tubes), "--out", str(tmp_path)])
    assert code == 1
    # --force bypasses the gate
    code = main(["simulate", str(solo_scenario), str(tubes), "--force",
                 "--out", str(tmp_path)])
    assert code == 0


@pytest.mark.parametrize("text,detail", [
    ("{not json", "Expecting property name"),
    ("[1,2]", "not a JSON object"),
    ('{"passed": "false"}', '"passed" is "false", not true or false'),
    ('{"passed": 1}', '"passed" is 1, not true or false'),
], ids=["not-json", "not-an-object", "passed-string", "passed-number"])
def test_simulate_rejects_unreadable_certificate(tmp_path, solo_scenario, capsys, text, detail):
    """A certificate that is not a JSON object, or whose ``passed`` is not
    a JSON boolean, is a usage error: an ``error:`` line naming the file
    and what is wrong, and exit code 1, not a traceback or a run."""
    assert main(["synth", str(solo_scenario), "--out", str(tmp_path)]) == 0
    (tmp_path / "solo.cert.json").write_text(text)
    capsys.readouterr()
    code = main(["simulate", str(solo_scenario), str(tmp_path / "solo.tubes"),
                 "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: certificate ") and "solo.cert.json" in err and detail in err


@pytest.mark.parametrize("text", ['{"passed": false}', "{}"], ids=["false", "missing"])
def test_simulate_refuses_a_certificate_that_did_not_pass(tmp_path, solo_scenario, capsys, text):
    """A certificate whose ``passed`` is false or absent stops ``simulate``
    without ``--force``."""
    assert main(["synth", str(solo_scenario), "--out", str(tmp_path)]) == 0
    (tmp_path / "solo.cert.json").write_text(text)
    capsys.readouterr()
    code = main(["simulate", str(solo_scenario), str(tmp_path / "solo.tubes"),
                 "--out", str(tmp_path / "run")])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: certificate did not pass")
    assert not (tmp_path / "run").exists()


def test_simulate_finds_certificate_next_to_tubes(tmp_path, solo_scenario):
    """The default certificate path swaps only the tube file's suffix: a
    directory named like a tube file and a tube file with another suffix
    both find the certificate beside it."""
    runs = tmp_path / "runs.tubes"
    assert main(["synth", str(solo_scenario), "--out", str(runs)]) == 0
    code = main(["simulate", str(solo_scenario), str(runs / "solo.tubes"),
                 "--out", str(tmp_path / "a")])
    assert code == 0
    tubes = tmp_path / "run.json"
    tubes.write_bytes((runs / "solo.tubes").read_bytes())
    (tmp_path / "run.cert.json").write_bytes((runs / "solo.cert.json").read_bytes())
    assert main(["simulate", str(solo_scenario), str(tubes), "--out", str(tmp_path / "b")]) == 0


def test_synth_certificate_records_its_tubes_and_scenario(tmp_path, solo_scenario):
    """The certificate holds the sha256 of the tube file written next to
    it and of the scenario as loaded, before ``--epsilon``: the certified
    tubes still run against the scenario file they came from."""
    import hashlib

    from sttube.scenario import scenario_to_dict

    assert main(["synth", str(solo_scenario), "--epsilon", "0.02", "--out", str(tmp_path)]) == 0
    cert = json.loads((tmp_path / "solo.cert.json").read_text())
    tubes = tmp_path / "solo.tubes"
    scenario = json.dumps(scenario_to_dict(scenario_from_dict(SOLO)), sort_keys=True)
    assert cert["epsilon"] == 0.02
    assert cert["tubes_sha256"] == hashlib.sha256(tubes.read_bytes()).hexdigest()
    assert cert["scenario_sha256"] == hashlib.sha256(scenario.encode()).hexdigest()
    assert main(["simulate", str(solo_scenario), str(tubes), "--out", str(tmp_path)]) == 0


def test_simulate_refuses_the_certificate_of_other_tubes(tmp_path, mini_spec, capsys):
    """A passing certificate lets only its own tubes run: mini's does not
    gate the published robots tubes, which no certificate passes."""
    from sttube import save_scenario

    save_scenario(mini_spec, tmp_path / "mini.scenario")
    assert main(["synth", str(tmp_path / "mini.scenario"), "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    code = main(["simulate", str(data_path("robots.scenario")), str(data_path("robots_table.tubes")),
                 "--certificate", str(tmp_path / "mini.cert.json"), "--out", str(tmp_path / "run")])
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert err.startswith("error: certificate ") and "mini.cert.json" in err
    assert "tubes_sha256 differs" in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("case,detail", [
    ("edited-scenario", "scenario_sha256 differs"),
    ("no-digests", "tubes_sha256 is missing"),
], ids=["edited-scenario", "no-digests"])
def test_simulate_refuses_a_certificate_of_another_scenario(tmp_path, solo_scenario, capsys,
                                                            case, detail):
    """A certificate is refused for a scenario edited after synthesis (a
    disturbance seed here), and a passing certificate without the digests
    gates nothing; ``--force`` still runs without the gate."""
    assert main(["synth", str(solo_scenario), "--out", str(tmp_path)]) == 0
    if case == "edited-scenario":
        plant = dict(SOLO["plant"], disturbance=dict(SOLO["plant"]["disturbance"], seed=2))
        solo_scenario.write_text(json.dumps(dict(SOLO, plant=plant)))
    else:
        (tmp_path / "solo.cert.json").write_text('{"passed": true}')
    capsys.readouterr()
    tubes = str(tmp_path / "solo.tubes")
    code = main(["simulate", str(solo_scenario), tubes, "--out", str(tmp_path / "run")])
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert err.startswith("error: certificate ") and "solo.cert.json" in err and detail in err
    assert not (tmp_path / "run").exists()
    assert main(["simulate", str(solo_scenario), tubes, "--force", "--out", str(tmp_path)]) == 0


def test_simulate_weak_gain_fails_verification(tmp_path, solo_scenario, capsys):
    # a narrow valid tube for SOLO (lower 1.25 t^2, upper 1 + 1.25 t^2 in
    # both dims), which a gain of 1e-6 cannot track
    narrow = [[0.0, 0.0, 1.25], [1.0, 0.0, 1.25]]
    tubes = tmp_path / "narrow.tubes"
    save_tubes(TubeSet(horizon=2.0, coeffs=[[narrow, narrow]], sizes=[[[3, 3], [3, 3]]],
                       min_widths=[[0.4, 0.4]], names=[""]), tubes)
    code = main(["simulate", str(solo_scenario), str(tubes), "--force",
                 "--kappa", "1e-6", "--out", str(tmp_path)])
    assert code == 3


@pytest.mark.parametrize("flags,message", [
    (["--dt", "0.0007"], "dt must divide the horizon"),
    (["--dt", "0"], "dt must be positive"),
    (["--dt", "-0.001"], "dt must be positive"),
    (["--kappa", "-1"], "stage gains must be positive"),
    (["--seed", "-1"], "disturbance seed must be a nonnegative integer"),
], ids=["dt-off-horizon", "dt-zero", "dt-negative", "kappa-negative", "seed-negative"])
def test_simulate_rejects_closed_loop_settings(tmp_path, capsys, flags, message):
    """A step that does not divide the horizon, a nonpositive step, a
    nonpositive gain and a negative disturbance seed are usage errors: an
    ``error:`` line and exit code 1."""
    code = main([
        "simulate", str(data_path("robots.scenario")), str(data_path("robots_table.tubes")),
        "--force", "--out", str(tmp_path), *flags,
    ])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and message in err


def _robots_table_with(tmp_path, change):
    """robots_table.tubes as a dict, changed by ``change`` and saved."""
    from sttube.tube import load_tubes, tubes_from_dict, tubes_to_dict

    raw = tubes_to_dict(load_tubes(data_path("robots_table.tubes")))
    change(raw)
    path = tmp_path / "changed.tubes"
    save_tubes(tubes_from_dict(raw), path)
    return path


@pytest.mark.parametrize("tubes,message", [
    (lambda tmp: _robots_table_with(tmp, lambda raw: raw["agents"].pop()),
     "(3, 2, 10.0) in the tubes, (4, 2, 10.0) in the scenario"),
    (lambda tmp: _robots_table_with(tmp, lambda raw: raw.update(horizon=5.0)),
     "(4, 2, 5.0) in the tubes, (4, 2, 10.0) in the scenario"),
    (lambda tmp: data_path("drones_table.tubes"),
     "(4, 3, 20.0) in the tubes, (4, 2, 10.0) in the scenario"),
], ids=["three-agents", "horizon-5", "drone-tubes"])
def test_simulate_rejects_tubes_that_do_not_match_the_scenario(tmp_path, capsys, tubes, message):
    """Tubes with another agent count or dims than the scenario, or a
    shorter horizon, are a usage error naming both shapes: an ``error:``
    line and exit code 1, not a traceback, a run past the tubes' horizon
    or a verification failure."""
    code = main([
        "simulate", str(data_path("robots.scenario")), str(tubes(tmp_path)),
        "--force", "--out", str(tmp_path),
    ])
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert err.startswith("error: tubes do not match the scenario: ") and message in err
    assert not (tmp_path / "robots.trajectories.csv").exists()


@pytest.mark.parametrize("case", ["negative-gain", "drone-tubes", "weak-gain"])
def test_a_refused_simulation_creates_no_output_directory(tmp_path, capsys, case):
    """A scenario the plant refuses, tubes that do not match it, or a run
    that stops on a controller failure write nothing: the ``--out``
    directory is made only once there is something to write."""
    scenario, tubes, extra = data_path("robots.scenario"), _ROBOT_TUBES, []
    if case == "negative-gain":
        scenario = tmp_path / "negative.scenario"
        scenario.write_text(json.dumps(_robots_with(g_sign="negative")))
    elif case == "drone-tubes":
        tubes = data_path("drones_table.tubes")
    else:
        extra = ["--kappa", "1e-6"]
    out = tmp_path / "new" / "out"
    code = main(["simulate", str(scenario), str(tubes), "--force", "--out", str(out), *extra])
    err = capsys.readouterr().err
    assert code == (EXIT_VERIFY if case == "weak-gain" else EXIT_USAGE), err
    assert not (tmp_path / "new").exists()


def _robots_with(**plant):
    raw = json.loads(data_path("robots.scenario").read_text())
    raw["plant"].update(plant)
    return raw


def _robots_with_gains(kappa):
    raw = json.loads(data_path("robots.scenario").read_text())
    raw["control"]["kappa"] = kappa
    return raw


_ROBOT_TUBES = data_path("robots_table.tubes")


def _robot_tubes_with_a_nan():
    """The published robots tubes with a NaN coefficient in agent 2's
    tube, which would abort that agent at t = 0 if it loaded."""
    raw = json.loads(_ROBOT_TUBES.read_text())
    raw["agents"][1]["dims"][0]["lower"][1] = float("nan")
    return raw


@pytest.mark.parametrize("command,files", [
    (["synth", "{scenario}"], {"scenario": {**SOLO, "agents": 5}}),
    (["synth", "{scenario}"], {"scenario": {**SOLO, "obstacles": [{"interpolation": "static"}]}}),
    (["synth", "{scenario}"],
     {"scenario": {**SOLO, "agents": [{**SOLO["agents"][0], "tube_degree": 2.5}]}}),
    (["simulate", "{scenario}", str(_ROBOT_TUBES), "--force"],
     {"scenario": _robots_with(disturbance={"bound": float("inf")})}),
    (["simulate", "{scenario}", str(_ROBOT_TUBES), "--force"],
     {"scenario": _robots_with(heading_band=[1.0, -1.0])}),
    (["simulate", "{scenario}", str(_ROBOT_TUBES), "--force"],
     {"scenario": _robots_with(g_sign="negative")}),
    (["synth", "{scenario}"], {"scenario": _robots_with(g_sign="negative")}),
    (["synth", "{scenario}"], {"scenario": _robots_with(kind="nonsense")}),
    (["synth", "{scenario}"], {"scenario": _robots_with(kind="drone_chain")}),
    (["synth", "{scenario}"], {"scenario": _robots_with_gains([1.0, 2.0, 3.0])}),
    (["simulate", str(data_path("robots.scenario")), "{tubes}", "--force"],
     {"tubes": {"horizon": 10.0, "agents": 5}}),
    (["lipschitz", "{tubes}"],
     {"tubes": {"horizon": 10.0, "agents": [{"dims": [{"lower": 0.5, "upper": [1.0],
                                                       "min_width": 0.1}]}]}}),
    (["simulate", str(data_path("robots.scenario")), "{tubes}", "--force"],
     {"tubes": _robot_tubes_with_a_nan()}),
], ids=["synth-agents-scalar", "synth-missing-keyframes", "synth-scalar-float-degree",
        "simulate-infinite-bound", "simulate-reversed-band", "simulate-negative-gain",
        "synth-negative-gain", "synth-unknown-plant-kind", "synth-plant-kind-off-dims",
        "synth-gain-count-off-kind",
        "simulate-agents-scalar",
        "lipschitz-scalar-face", "simulate-nan-coefficient"])
def test_malformed_files_are_usage_errors(tmp_path, command, files):
    """A malformed scenario or tubes file ends the command as a usage
    error, run as a program: exit code 1, stderr starting ``error:``, no
    traceback, and nothing written."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import sttube

    paths = {}
    for kind, raw in files.items():
        paths[kind] = tmp_path / f"bad.{kind}"
        paths[kind].write_text(json.dumps(raw))
    args = [a.format(**paths) for a in command]
    if args[0] != "lipschitz":
        args += ["--out", str(tmp_path)]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(sttube.__file__).parents[1]), env.get("PYTHONPATH", "")]
    )
    run = subprocess.run(
        [sys.executable, "-m", "sttube.cli", *args], env=env, capture_output=True, text=True
    )
    assert run.returncode == EXIT_USAGE, run.stderr
    assert run.stderr.startswith("error: ")
    assert "Traceback" not in run.stderr
    assert sorted(tmp_path.iterdir()) == sorted(paths.values())


def test_solo_synthesis_passes_dense_validation():
    """The faces of SOLO run along the arena walls; the certified tube must
    stay inside the arena between time samples too."""
    result = synthesize(scenario_from_dict(SOLO))
    assert result.certificate.passed
    assert result.validation.all_pass, result.validation.summary()


def test_lipschitz_prints_estimates(capsys):
    """One row per face, in (agent, dim, side) order, each the fit that
    ``estimate_face`` gives that face under its seed key, then the side
    maxima and the analytic bounds; ``--trend`` sweeps the face with the
    steepest ``analytic_slope_bound``."""
    tubes = load_tubes(_ROBOT_TUBES)
    code = main(["lipschitz", str(_ROBOT_TUBES), "--seed", "2", "--reps", "10", "--trend", "1"])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    cfg = SlopeSampleConfig(alpha=tubes.horizon / 1000.0, repetitions=10, rng_seed=2)
    rows = []
    for j, i, s in np.ndindex(tubes.coeffs.shape[:-1]):
        fit = estimate_face(tubes.coeffs[j, i, s], tubes.horizon, cfg, seed_key=(j, i, s))
        rows.append([str(j + 1), str(i + 1), ("lower", "upper")[s], f"{fit.location:.4f}",
                     f"{fit.scale:.4f}", f"{fit.shape:.3f}", fit.method])
    assert len(rows) == 16
    assert [line.split() for line in out[1:17]] == rows
    assert out[17].startswith("L_L=") and out[18].startswith("analytic slope bounds")
    bounds = {key: analytic_slope_bound(tubes.coeffs[key], (0.0, tubes.horizon))
              for key in np.ndindex(tubes.coeffs.shape[:-1])}
    steepest = max(bounds, key=bounds.get)
    assert steepest == (3, 0, 0)  # agent 4, dim 1, lower face: 3.9463
    errors = convergence_sweep(tubes.coeffs[steepest], tubes.horizon, cfg, halvings=1,
                               seeds=range(10))
    assert out[-1] == ("convergence trend (mean |error| per refinement): "
                       + " ".join(f"{e:.5f}" for e in errors))


@pytest.mark.parametrize("flags,message", [
    (["--alpha", "0"], "alpha must be positive"),
    (["--pairs", "1"], "at least two pairs"),
    (["--reps", "5"], "at least ten repetitions"),
    (["--trend", "-1"], "trend must be a nonnegative number of halvings"),
    (["--seed", "-1"], "rng_seed must be a nonnegative integer, not -1"),
    (["--alpha", "1e-15"], "above the least pair gap 1e-14"),
], ids=["alpha-zero", "one-pair", "five-reps", "negative-trend", "negative-seed", "tiny-alpha"])
def test_lipschitz_rejects_sampling_settings(capsys, flags, message):
    """A sampling plan ``SlopeSampleConfig`` rejects, and a negative
    ``--trend``, are usage errors: an ``error:`` line and exit code 1."""
    code = main(["lipschitz", str(data_path("robots_table.tubes")), *flags])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize(
    "flags, alpha",
    [(["--alpha", "5e-14"], "5e-14"), (["--alpha", "2e-13", "--trend", "1"], "1e-13")],
    ids=["alpha", "trend"],
)
def test_lipschitz_alpha_below_the_float_spacing_is_a_usage_error(tmp_path, flags, alpha):
    """``--alpha 5e-14`` on a tube file with horizon 1000, where the float
    spacing is 1.1e-13, ends ``lipschitz`` with an ``error:`` line and exit
    code 1, and so does ``--alpha 2e-13 --trend 1``, whose second level
    halves alpha to 1e-13.  Run as a program with a time limit, so that a
    sampler that never returns fails the test."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import sttube

    path = tmp_path / "long.tubes"
    save_tubes(TubeSet(horizon=1000.0, coeffs=[[[[0.0, 1.0], [1.0, 1.0]]]], sizes=[[[2, 2]]],
                       min_widths=[[0.5]], names=["a"]), path)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(sttube.__file__).parents[1]), env.get("PYTHONPATH", "")]
    )
    run = subprocess.run(
        [sys.executable, "-m", "sttube.cli", "lipschitz", str(path), *flags],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert run.returncode == EXIT_USAGE
    assert run.stderr.startswith(f"error: alpha {alpha} is too small for horizon 1000")
    assert "Traceback" not in run.stderr


def test_usage_error_exit_code(capsys):
    assert main(["nonsense"]) == 1
    assert main([]) == 1
