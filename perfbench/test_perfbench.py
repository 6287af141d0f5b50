"""The benchmark's own tests: every workload at a tiny size.

Run from the repository root with ``python -m pytest perfbench``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from metrics import END_TO_END, PER_LAYER
from workloads import DAY_WINDOW, WORKLOADS, Days

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def traced_run(request):
    workload = WORKLOADS[request.param](seed=1, scale="tiny")
    return workload, run.run(workload, seconds=0.0, trace=True)


def test_benchmark_json_lists_the_printed_metrics():
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == [
        (name, unit) for name, unit, _ in END_TO_END
    ]
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == [
        (name, unit) for name, unit, _ in PER_LAYER
    ]
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)


def test_seed_picks_consecutive_days_within_the_window():
    assert Days.for_seed(0, 4).all == (1, 2, 3, 4)
    days = Days.for_seed(DAY_WINDOW + 5, 3)
    assert days == Days.for_seed(5, 3)
    assert (days.train, days.combined, days.test) == ([6, 7], [7], 8)


def test_gate_passes_and_nothing_fails(traced_run):
    _, measured = traced_run
    assert measured["gate"]["checked"] > 0
    assert measured["gate"]["mismatches"] == 0
    assert measured["gate"]["diverged_passes"] == 0
    assert measured["failed"] == 0
    assert measured["attempted"] > 0


def test_every_metric_is_reported_with_its_unit(traced_run):
    workload, measured = traced_run
    e2e = run.end_to_end_metrics(measured)
    assert {k: v["unit"] for k, v in e2e.items()} == {n: u for n, u, _ in END_TO_END}
    assert all(v["value"] > 0 for v in e2e.values())
    layers, phases = run.per_layer_metrics(measured)
    assert {k: v["unit"] for k, v in layers.items()} == {n: u for n, u, _ in PER_LAYER}
    measured_layers = [layer for layer, phase in phases.items() if phase != "absent"]
    assert measured_layers
    for layer in measured_layers:
        assert layers[f"{layer}_share_pct"]["value"] > 0
    assert set(workload.aliases) <= set(run.FIGURE_UNITS)


def test_each_workload_exercises_its_layers(traced_run):
    workload, measured = traced_run
    _, phases = run.per_layer_metrics(measured)
    expected = {
        "daily_pipeline": {
            "workload.run_days",
            "core.trainer.train",
            "serving.service.predict_table",
            "optimizer.planner.search",
            "optimizer.partition.sweep",
            "core.lifecycle.step",
        },
        "replan_fleet": {"optimizer.replan.replan"},
        "serving_mix": {"serving.shard.predict", "serving.shard.plan_cost"},
    }[workload.name]
    assert {layer for layer, phase in phases.items() if phase == "pass"} == expected


def test_cli_fails_without_the_program(tmp_path):
    """In a directory holding only the benchmark, the run fails without a result."""
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("out"))
    done = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "daily_pipeline",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
