"""Smoke tests of the benchmark: every workload at tiny size reports every
metric named in BENCHMARK.json, and a perturbed output counts as a failure."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import workloads as wl  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.2", "--trace", str(trace), "--scale", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(wl.WORKLOADS))
def test_tiny_run_reports_every_metric(workload, trace):
    result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    names = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == names
    assert all(v["value"] is not None for v in result["metrics"].values())


def test_workloads_match_spec():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(wl.WORKLOADS)


def _tiny_run(tmp_path, name) -> wl.Runner:
    workload = wl.WORKLOADS[name]
    configs = wl.materialize_configs(workload, tmp_path / "configs", tiny=True)
    runner = wl.Runner(workload, configs, 3, tmp_path / "out", wl.Tally(), None)
    runner.iteration()
    assert runner.tally.failed == 0 and runner.tally.attempted > 0
    return runner


def test_perturbed_frame_is_a_failure(tmp_path):
    runner = _tiny_run(tmp_path, "sim1d-projected")

    # push one interior value of the last frame far below the obstacle
    sample = json.loads((runner.out / "summary.json").read_text())["per_sample"][0]
    u_csv = Path(sample["directory"]) / "u.csv"
    lines = u_csv.read_text().splitlines()
    head, value = lines[-2].rsplit(",", 1)
    lines[-2] = f"{head},{float(value) - 1.0!r}"
    u_csv.write_text("\n".join(lines) + "\n")
    dirty = wl.Tally()
    wl.check_outputs(runner.workload, runner.config_paths, runner.out, 3, runner.digests,
                     dirty)
    assert dirty.failed >= 2   # feasibility and the reference digest


def test_reference_mismatch_is_a_failure(tmp_path):
    runner = _tiny_run(tmp_path, "compare1d-penalized")
    tally = wl.Tally()
    wl.check_outputs(runner.workload, runner.config_paths, runner.out, 3,
                     {"gaps": "0" * 64}, tally)
    assert tally.failed == 1


def test_boundary_obstacle_is_refused(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text((wl.CONFIG_DIR / "sim1d_projected.cfg").read_text()
                   + "obstacle.offset = 0.2\n")
    assert any("boundary" in p for p in wl.sanity_check([cfg], 0))
    assert wl.sanity_check([wl.CONFIG_DIR / "sim1d_projected.cfg"], 0) == []


def test_missing_layer_reports_null(tmp_path):
    import types

    import ospde.cli
    import ospde.solver
    import tracing

    modules = {"ospde.cli": ospde.cli, "ospde.solver": ospde.solver,
               "ospde.lcp": types.ModuleType("ospde.lcp")}   # exports nothing
    workload = wl.WORKLOADS["sim1d-projected"]
    configs = wl.materialize_configs(workload, tmp_path / "configs", tiny=True)
    runner = wl.Runner(workload, configs, 3, tmp_path / "out", wl.Tally(), None)
    tr = tracing.Tracer(modules)
    runner.iteration(tr)
    metrics = tracing.layer_metrics(tr)
    assert runner.tally.failed == 0 and tracing.nesting_ok(tr)
    assert metrics["lcp.calls"] is None and metrics["lcp.s"] is None
    assert metrics["solver.solves"] == 2 and metrics["cli.self_s"] > 0
    assert ospde.solver.psor is ospde.lcp.psor   # restored
