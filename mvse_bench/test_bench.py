"""Smoke test of the benchmark at toy sizes.

    python3 -m pytest -q mvse_bench
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import hostspeed
import numpy as np
import pipeline
import run
import tracing
from mvse import autodiff, training
from mvse.autodiff import Tensor

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def toy(name: str, **changes) -> pipeline.Workload:
    w = pipeline.WORKLOADS[name]
    sizes = {"n_videos": 12, "train_fraction": 0.5, "epochs": 1, "min_r5_gain": None}
    return dataclasses.replace(w, **{**sizes, **changes})


def expected_units(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES) == list(pipeline.WORKLOADS)


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_reported_with_its_unit(name, trace, tmp_path):
    spans = tmp_path / "spans.jsonl"
    result = pipeline.run(toy(name), seed=3, seconds=0.0, trace=trace, workdir=tmp_path / "work",
                          spans_path=spans)
    assert result.correct and result.failed == 0, result.problems
    line = json.loads(result.line())
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["attempted"] >= 1
    got = {k: v["unit"] for k, v in line["metrics"].items()}
    assert got == expected_units("per_layer" if trace else "end_to_end")
    assert all(math.isfinite(v["value"]) for v in line["metrics"].values())
    assert not (tmp_path / "work").exists()
    if trace:
        first = json.loads(spans.read_text().splitlines()[0])
        assert set(first) == {"run", "id", "name", "start", "end", "parent"}


def test_cli_prints_every_metric_then_the_result_line(monkeypatch, capsys):
    monkeypatch.setitem(pipeline.WORKLOADS, "seq-retrieve", toy("seq-retrieve"))
    assert run.main(["--workload", "seq-retrieve", "--seed", "2", "--seconds", "0", "--trace", "0"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    printed = {parts[0]: parts[-1] for parts in (ln.split() for ln in lines[:-1]) if len(parts) == 3}
    for name, unit in expected_units("end_to_end").items():
        assert printed.get(name) == unit
    assert json.loads(lines[-1])["correct"] is True


def test_host_speed_window_removes_probe_time_and_scales_piecewise():
    host = hostspeed.HostSpeed()
    host.starts = [0.5, 1.5, 2.5]
    host.durations = [0.01, 0.01, 0.01]
    work, cal = host.window(1.0, 3.0)
    assert work == pytest.approx(2.0 - 0.02)
    assert cal == pytest.approx(work * hostspeed.NOMINAL_S / 0.01)
    work, cal = host.window(0.52, 0.6)  # no probe inside: the nearest one
    assert (work, cal) == pytest.approx((0.08, 0.08 * hostspeed.NOMINAL_S / 0.01))
    # a host twice as slow from t=10 on: each half is scaled by its own probes
    host.starts = [float(t) for t in range(20)]
    host.durations = [0.001] * 10 + [0.002] * 10
    work, cal = host.window(0.0, 20.0)
    fast = sum(1 - 0.001 for _ in range(9)) * hostspeed.NOMINAL_S / 0.001
    slow = sum(1 - 0.002 for _ in range(9)) * hostspeed.NOMINAL_S / 0.002
    assert fast + slow < cal < fast + slow + 2 * hostspeed.NOMINAL_S / 0.001


def test_host_speed_samples_while_active():
    with hostspeed.HostSpeed() as host:
        end = time.perf_counter() + 3 * hostspeed.INTERVAL_S
        while time.perf_counter() < end:
            pass
    assert len(host.starts) >= 3 and all(d > 0 for d in host.durations)


@pytest.mark.parametrize("mode", ["sum-all", "hardest"])
def test_hinge_usage_mirrors_loss_from_matrix(mode):
    rng = np.random.default_rng(7)
    values = rng.uniform(-1, 1, size=(6, 6))
    values[0, 1] = values[0, 2]  # a tie: the lowest index wins
    used, hinges = tracing.hinge_usage(values, 0.2, mode)
    loss = training.loss_from_matrix([[Tensor(v) for v in row] for row in values], 0.2, mode)
    assert np.isclose(np.maximum(hinges, 0).sum(), loss.item(), rtol=1e-12)
    # sum-all feeds every pair; hardest feeds the diagonal and at most two negatives per anchor
    assert used == 36 if mode == "sum-all" else 6 < used <= 18


def test_nan_score_counts_as_failed_query(monkeypatch, tmp_path):
    real = training.fused_similarity_matrix

    def nan_in_eval(model, videos, sentences, *args, **kwargs):
        grid = real(model, videos, sentences, *args, **kwargs)
        if autodiff.active_tape() is None:  # retrieval scoring, not a training batch
            grid[0][1] = Tensor(float("nan"))
        return grid

    monkeypatch.setattr(training, "fused_similarity_matrix", nan_in_eval)
    result = pipeline.run(toy("global-train"), seed=3, seconds=0.0, trace=False, workdir=tmp_path / "work")
    assert not result.correct
    assert result.failed >= 1
    assert any("queries" in p for p in result.problems)


def test_quality_check_failure_makes_the_run_incorrect(tmp_path):
    result = pipeline.run(toy("global-train", min_r5_gain=1.0), seed=3, seconds=0.0, trace=False,
                          workdir=tmp_path / "work")
    assert not result.correct and result.failed == 1
    assert any("R@5" in p for p in result.problems)


def test_exits_nonzero_without_a_result_when_mvse_is_absent(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(Path(__file__).parent, tmp_path / "mvse_bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "mvse_bench/run.py", "--workload", "global-train", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
