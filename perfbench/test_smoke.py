"""Smoke test of the benchmark itself, on the two-agent mini scenario.

    python3 -m pytest -q perfbench/test_smoke.py

Runs the ``mini`` workload untraced and traced (a few seconds each) and
checks that every named metric is present with its unit, and that the
recorded span tree is sound: no negative self time, and children never
take longer than their parent.
"""

from __future__ import annotations

import json
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402
from spans import Recorder, nesting_violations, self_times  # noqa: E402


def run_mini(trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "mini",
         "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return result


def check_units(result: dict, defs) -> None:
    expected = {m.name: m.unit for m in defs}
    got = {name: v["unit"] for name, v in result["metrics"].items()}
    assert got == expected
    for name, v in result["metrics"].items():
        assert isinstance(v["value"], (int, float)), name


def test_untraced_mini_reports_every_end_to_end_metric():
    result = run_mini(0)
    check_units(result, metrics.END_TO_END)
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_mini_reports_every_layer_with_a_sound_span_tree():
    result = run_mini(1)
    check_units(result, metrics.PER_LAYER)
    layer = {name: v["value"] for name, v in result["metrics"].items()}
    assert layer["lp.solve_lp.calls"] > 0 and layer["control.control_input.calls"] > 0
    assert layer["synth.solve_sop.lp_rounds"] + layer["synth.refine_assignment.scoring_lps"] == (
        layer["lp.solve_lp.calls"]
    )
    for name, value in layer.items():
        if name.endswith("_s"):
            assert value >= 0.0, name

    spans = json.loads((HERE.parent / ".perfbench_out" / "spans-mini-seed1.json").read_text())
    records = spans["spans"]
    assert records and nesting_violations(records) == []
    assert min(self_times(records).values()) >= -1e-6
    children: dict[int, float] = {}
    for r in records:
        if r["parent"] is not None:
            children[r["parent"]] = children.get(r["parent"], 0.0) + r["end"] - r["start"]
    for r in records:
        assert children.get(r["id"], 0.0) <= r["end"] - r["start"] + 1e-6, r["name"]


def test_recorder_self_time_excludes_children_and_hot_calls():
    # A module stand-in whose functions look each other up at call time,
    # as sttube's layers do.
    mod = types.SimpleNamespace(leaf=lambda: 1, hot=lambda: 2)
    mod.outer = lambda: mod.leaf() + mod.leaf() + mod.hot()
    original_leaf = mod.leaf
    rec = Recorder()
    rec.span(mod, "outer", "outer")
    rec.span(mod, "leaf", "leaf")
    rec.aggregate(mod, "hot", "hot")
    try:
        assert mod.outer() == 4
    finally:
        rec.restore()
    assert mod.leaf is original_leaf
    outer, leaf1, leaf2 = records = rec.records()
    assert (leaf1["parent"], leaf2["parent"]) == (outer["id"], outer["id"])
    children = sum(r["end"] - r["start"] for r in (leaf1, leaf2)) + outer["hot_child_s"]
    assert self_times(records)[outer["id"]] == pytest.approx(outer["end"] - outer["start"] - children)
    assert rec.hot["hot"].calls == 1 and outer["hot_child_s"] > 0
    assert nesting_violations(records) == []


def test_nesting_violations_flags_a_child_longer_than_its_parent():
    records = [
        {"id": 0, "name": "p", "parent": None, "start": 0.0, "end": 1.0, "hot_child_s": 0.0},
        {"id": 1, "name": "c", "parent": 0, "start": 0.5, "end": 2.0, "hot_child_s": 0.0},
    ]
    problems = nesting_violations(records)
    assert any("outside its parent" in p for p in problems)
    assert any("children take" in p for p in problems)
