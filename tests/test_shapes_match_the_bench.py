"""``tests/shapes.py`` restates the benchmark's mid dims and the corpora of
its three workloads, so that the pins written against them (container
sha256s, peaks, eval grids) stay the benchmark's. These tests fail when
``mvse_bench/pipeline.py`` and ``shapes.py`` stop agreeing."""

import importlib
from pathlib import Path

import pytest

import shapes

BENCH = Path(__file__).resolve().parents[1] / "mvse_bench"


@pytest.fixture
def pipeline(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("pipeline")


def test_mid_dims_are_the_benchmarks(pipeline):
    assert shapes.MID_DIMS == pipeline.MID_DIMS


@pytest.mark.parametrize("workload", list(shapes.BENCH_CORPORA))
def test_each_corpus_is_its_workloads(pipeline, workload):
    fields, _ = shapes.BENCH_CORPORA[workload]
    w = pipeline.WORKLOADS[workload]
    assert fields == {name: getattr(w, name) for name in fields}
    assert set(fields) == {"dims", "n_videos", "rho", "sentence_mode", "train_fraction"}
