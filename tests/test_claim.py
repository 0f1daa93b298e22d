"""A guard on the paper's claim: on a corpus whose two sentence populations
each spell only one space's slice of the code, the sentence-driven gate
routes each population to its signal space and retrieves both, and beats
the plain average of the per-space similarities. Beside it, a pin on why
sum-all negatives train the guard: hardest negatives from scratch collapse
the fused scores onto a few hub videos.

The protocol is the one the ROADMAP findings measure: the split corpus,
rho (0.5, 0.5, 0), 400 videos and two sentences per video, so each test
population is a 100-video gallery; ``dual-S`` at ``Dims.small()``, sum-all
negatives unless hardest is named, lr 0.05, batch 8, 20 epochs;
pessimistic ranks under ``no_tape``. The thresholds sit below the worst of
seeds 1-10 (the table is in CHANGES.md), and the collapse bounds outside
seeds 1-3 of both modes: if a change drops this seed past one, the model
has stopped learning what the paper claims, and the seed is not to be
re-picked.
"""

from typing import NamedTuple

import numpy as np
import pytest

from mvse import fusion, synth, training
from mvse.autodiff import no_tape
from mvse.config import SPACE_GLOBAL, SPACE_SEQUENTIAL, Dims, TripletConfig
from mvse.model import Model

SEED = 1
MIN_R5 = 0.85
MIN_SIGNAL_WEIGHT = 0.95
MIN_R5_GAIN_OVER_AVERAGE = 0.03
# hardest from scratch, seeds 1-3: fused-score std 0.0014-0.022, N5 50-93;
# sum-all: std 0.41-0.49, N5 11-15
MAX_COLLAPSED_STD, MIN_COLLAPSED_N5 = 0.1, 30
MIN_HEALTHY_STD, MAX_HEALTHY_N5 = 0.3, 20
# each population and the space its sentences spell
SIGNAL_SPACE = {"test_popA": SPACE_GLOBAL, "test_popB": SPACE_SEQUENTIAL}


class PopulationMetrics(NamedTuple):
    r5: float             # fused R@5
    signal_weight: float  # mean gate weight on the signal space
    score_std: float      # std of the fused [V, Q] scores
    n5: int               # the most queries any one video is in the top 5 of


def claim_metrics(seed: int, fuse_mode: str, negative_mode: str) -> dict[str, PopulationMetrics]:
    """Each population's metrics for one ``dual-S`` model trained on the
    findings' protocol at ``seed``."""
    dims = Dims.small()
    generated = synth.synth_generate(synth.SynthConfig(
        dims=dims, n_videos=400, sentences_per_video=2, rho=(0.5, 0.5, 0.0),
        sentence_mode="split", seed=seed,
    ))
    ds, manifests = generated.dataset, generated.manifests
    model = Model.new(dims, "dual-S", seed, ds.embedding_table())
    config = TripletConfig(
        negative_mode=negative_mode, learning_rate=0.05, epochs=20, batch_size=8, rng_seed=seed
    )
    training.train(ds, manifests["train"], model, config, fuse_mode)
    out = {}
    for population, space in SIGNAL_SPACE.items():
        queries = manifests[population].queries()
        videos = [ds.video_feature(idx, vid) for vid, idx, _ in queries]
        sentences = [ds.sentences[sent] for _, _, sent in queries]
        with no_tape():
            scores = training.fused_similarity_matrix(model, videos, sentences, fuse_mode).scores.data
            phis = model.encode_sentences(sentences)
            weights = fusion.gate_weights(phis, model.params.gate).data
        # query q's match is video q; ties rank pessimistically
        ranks = (scores >= np.diag(scores)).sum(axis=0)
        top5 = np.argpartition(-scores, 5, axis=0)[:5]  # [5, Q]: each query's top-5 videos
        out[population] = PopulationMetrics(
            r5=float(np.mean(ranks <= 5)),
            signal_weight=float(weights[:, model.spaces.index(space)].mean()),
            score_std=float(scores.std()),
            n5=int(np.bincount(top5.ravel(), minlength=len(videos)).max()),
        )
    return out


@pytest.fixture(scope="module")
def claim():
    """Metrics by (fuse mode, negative mode)."""
    runs = [("weighted", "sum-all"), ("average", "sum-all"), ("weighted", "hardest")]
    return {run: claim_metrics(SEED, *run) for run in runs}


@pytest.mark.parametrize("population", list(SIGNAL_SPACE))
def test_the_gate_retrieves_each_population_through_its_signal_space(claim, population):
    metrics = claim["weighted", "sum-all"][population]
    assert metrics.r5 >= MIN_R5
    assert metrics.signal_weight >= MIN_SIGNAL_WEIGHT


@pytest.mark.parametrize("population", list(SIGNAL_SPACE))
def test_the_gate_beats_the_average_of_the_spaces(claim, population):
    gain = claim["weighted", "sum-all"][population].r5 - claim["average", "sum-all"][population].r5
    assert gain >= MIN_R5_GAIN_OVER_AVERAGE


@pytest.mark.parametrize("population", list(SIGNAL_SPACE))
def test_hardest_negatives_from_scratch_collapse_where_sum_all_does_not(claim, population):
    hardest = claim["weighted", "hardest"][population]
    assert hardest.score_std < MAX_COLLAPSED_STD
    assert hardest.n5 >= MIN_COLLAPSED_N5
    sum_all = claim["weighted", "sum-all"][population]
    assert sum_all.score_std > MIN_HEALTHY_STD
    assert sum_all.n5 <= MAX_HEALTHY_N5
