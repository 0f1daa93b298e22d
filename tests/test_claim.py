"""A guard on the paper's claim: on a corpus whose two sentence populations
each spell only one space's slice of the code, the sentence-driven gate
routes each population to its signal space and retrieves both, and beats
the plain average of the per-space similarities.

The protocol is the one the ROADMAP findings measure: the split corpus,
rho (0.5, 0.5, 0), 400 videos and two sentences per video, so each test
population is a 100-video gallery; ``dual-S`` at ``Dims.small()``, sum-all
negatives, lr 0.05, batch 8, 20 epochs; pessimistic ranks under
``no_tape``. The thresholds sit below the worst of seeds 1-10 (the table
is in CHANGES.md): if a change drops this seed below one, the model has
stopped learning what the paper claims, and the seed is not to be re-picked.
"""

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
# each population and the space its sentences spell
SIGNAL_SPACE = {"test_popA": SPACE_GLOBAL, "test_popB": SPACE_SEQUENTIAL}


def claim_metrics(seed: int, fuse_mode: str) -> dict[str, tuple[float, float]]:
    """(fused R@5, mean gate weight on the signal space) per population, for
    one ``dual-S`` model trained on the findings' protocol at ``seed``."""
    dims = Dims.small()
    generated = synth.synth_generate(synth.SynthConfig(
        dims=dims, n_videos=400, sentences_per_video=2, rho=(0.5, 0.5, 0.0),
        sentence_mode="split", seed=seed,
    ))
    ds, manifests = generated.dataset, generated.manifests
    model = Model.new(dims, "dual-S", seed, ds.embedding_table())
    config = TripletConfig(negative_mode="sum-all", learning_rate=0.05, epochs=20, batch_size=8, rng_seed=seed)
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
        out[population] = float(np.mean(ranks <= 5)), float(weights[:, model.spaces.index(space)].mean())
    return out


@pytest.fixture(scope="module")
def claim():
    return {mode: claim_metrics(SEED, mode) for mode in ("weighted", "average")}


@pytest.mark.parametrize("population", list(SIGNAL_SPACE))
def test_the_gate_retrieves_each_population_through_its_signal_space(claim, population):
    r5, signal_weight = claim["weighted"][population]
    assert r5 >= MIN_R5
    assert signal_weight >= MIN_SIGNAL_WEIGHT


@pytest.mark.parametrize("population", list(SIGNAL_SPACE))
def test_the_gate_beats_the_average_of_the_spaces(claim, population):
    assert claim["weighted"][population][0] - claim["average"][population][0] >= MIN_R5_GAIN_OVER_AVERAGE
