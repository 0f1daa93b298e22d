"""The traced benchmark run patches mvse functions by name. A refactor that
drops or renames one would only show as a zeroed per-layer metric there,
so this checks, read-only, that every name it patches still resolves, and
that a traced run actually calls every patched name: a caller that reaches
a function by another route than the patched one would leave it at zero.
The tracer's reach count reads ``tape.gradients``, which must list every
node the loss reached, also those whose gradient went to the tape's update
callable."""

import importlib
import importlib.util
from pathlib import Path

import pytest

from mvse import training
from mvse.autodiff import HandedOffGradientError, Tape, no_tape
from mvse.config import Dims, TripletConfig
from mvse.model import Model
from mvse.synth import SynthConfig, synth_generate

BENCH = Path(__file__).resolve().parents[1] / "mvse_bench"
TRACING = BENCH / "tracing.py"


def _tracing_module():
    spec = importlib.util.spec_from_file_location("mvse_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _tracing_module()
POINTS = (
    [(module, attr) for module, attr, _ in tracing.SPAN_POINTS]
    + [(module, "matvec") for module in tracing.MATVEC_POINTS]
    + [("mvse.training", "loss_from_matrix"), ("mvse.autodiff", "Tape.backward")]
)


@pytest.mark.parametrize("module, attr", POINTS, ids=[f"{m}.{a}" for m, a in POINTS])
def test_trace_point_resolves_to_a_callable(module, attr):
    target = importlib.import_module(module)
    for part in attr.split("."):
        target = getattr(target, part, None)
    assert callable(target), f"{module}.{attr} is gone"


def test_a_traced_epoch_and_scoring_reach_every_trace_point():
    dims = Dims.small()
    corpus = synth_generate(SynthConfig(
        dims=dims, n_videos=8, sentences_per_video=2, rho=(0.5, 0.25, 0.25), seed=3,
        train_fraction=0.5,
    ))
    ds, manifest = corpus.dataset, corpus.manifests["train"]
    model = Model.new(dims, "triple", seed=1, table=ds.embedding_table())
    config = TripletConfig(epochs=1, batch_size=4, rng_seed=5)
    videos = [ds.video_feature(idx, vid) for vid, idx, _ in manifest.entries]
    sentences = [ds.sentences[sents[0]] for _, _, sents in manifest.entries]

    tracer = tracing.Tracer(run_id="reach")
    with tracer.installed():
        training.train(ds, manifest, model, config)
        with no_tape():
            training.fused_similarity_matrix(model, videos, sentences)

    assert tracer.missing == []
    calls = tracer.totals().calls
    assert {name: calls[name] for _, _, name in tracing.SPAN_POINTS if calls[name] < 1} == {}
    assert tracer.counts["matvec_calls"] > 0 and tracer.counts["backward_calls"] > 0


def test_a_tape_with_an_update_lists_every_reached_node_to_the_tracer():
    dims = Dims.small()
    corpus = synth_generate(SynthConfig(
        dims=dims, n_videos=8, sentences_per_video=1, rho=(0.5, 0.5, 0.0), seed=3,
        train_fraction=0.5,
    ))
    ds = corpus.dataset
    model = Model.new(dims, "dual-S", seed=1, table=ds.embedding_table())
    batch = [
        (ds.video_feature(idx, vid), ds.sentences[sents[0]])
        for vid, idx, sents in corpus.manifests["train"].entries
    ]
    config = TripletConfig(negative_mode="hardest")
    params = model.params.named()
    with Tape() as plain:
        plain.backward(training.batch_loss(batch, model, config))

    handed = {}
    tracer = tracing.Tracer(run_id="update")
    with tracer.installed(), Tape(lambda leaf, g: handed.setdefault(id(leaf), g.tobytes())) as tape:
        tape.backward(training.batch_loss(batch, model, config))

    assert set(tape.gradients) == set(plain.gradients)
    assert tracer.counts["tape_nodes_reached"] == len(plain.gradients)
    assert tracer.counts["tape_nodes"] == len(plain)
    for name, t in params.items():
        assert handed[id(t)] == plain.grad(t).tobytes(), name
        with pytest.raises(HandedOffGradientError):
            tape.grad(t)


# each workload's training graph: a change to the tape's bookkeeping must
# record the same nodes, and the loss must reach every one of them
NODES_PER_BATCH = {"global-train": 25, "seq-train": 50, "seq-retrieve": 55}


@pytest.mark.parametrize("workload", list(NODES_PER_BATCH))
def test_a_traced_run_reaches_every_node(workload, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    pipeline = importlib.import_module("pipeline")
    result = pipeline.per_layer(pipeline.WORKLOADS[workload], 1, tmp_path, None)
    assert result.correct, result.problems
    assert result.metrics["autodiff.grad_reach_ratio"][0] == 1.0
    assert result.metrics["autodiff.tape_nodes_per_batch"][0] == NODES_PER_BATCH[workload]
