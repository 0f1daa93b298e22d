"""The shared scoring path: ``fused_similarity_matrix`` against a per-pair
reference built from public functions, and the reproducibility of
``train``."""

import numpy as np
import pytest

from mvse import model as mvse_model
from mvse import training
from mvse.autodiff import Tape, Tensor, grad_check, no_tape, pick
from mvse.config import SPACE_SEQUENTIAL, SPACE_SETS, Dims, TripletConfig
from mvse.dataio import read_checkpoint, write_checkpoint
from mvse.fusion import fuse, gate_weights, uniform_weights
from mvse.model import Model
from mvse.synth import SynthConfig, synth_generate
from mvse.visual import chunk_sample, global_embed, sequential_embed, space_similarity

DIMS = Dims.small()
N_FRAMES = 7  # more frames than chunks, so random and first sampling differ


def _corpus(n_videos: int = 8):
    return synth_generate(SynthConfig(
        dims=DIMS, n_videos=n_videos, sentences_per_video=2,
        rho=(0.5, 0.25, 0.25), seed=3, train_fraction=0.5, n_frames=N_FRAMES,
    ))


@pytest.fixture(scope="module")
def corpus():
    return _corpus()


def _batch(corpus, k: int = 4):
    ds = corpus.dataset
    return [
        (ds.video_feature(idx, vid), ds.sentences[sents[0]])
        for vid, idx, sents in corpus.manifests["train"].entries[:k]
    ]


def _rngs(videos, epoch: int = 0):
    return [training.frame_rng(5, epoch, v.video_id) for v in videos]


def _reference_grid(model, videos, sentences, fuse_mode, frame_rngs):
    """The grid with the gate rebuilt for every (video, sentence) pair."""
    n = model.dims.n_chunks
    phis = [model.phi_from_indices(s) for s in sentences]
    grid = []
    for i, video in enumerate(videos):
        idx_global = chunk_sample(video.n_frames, n, "random", frame_rngs[i])
        idx_seq = chunk_sample(video.n_frames, n, "first")
        statics = model.video_static_embeddings(video, idx_global)
        row = []
        for phi in phis:
            text = model.text_embeddings(phi)
            sims = []
            for space in model.spaces:
                if space == SPACE_SEQUENTIAL:
                    f = model.sequential_embedding(video, idx_seq, phi)
                else:
                    f = statics[space]
                sims.append(space_similarity(f, text[space]))
            if fuse_mode == "weighted":
                w = gate_weights(phi, model.params.gate)
            else:
                w = uniform_weights(len(model.spaces))
            row.append(fuse(sims, w))
        grid.append(row)
    return grid


def _grid_and_grads(build, model):
    config = TripletConfig(negative_mode="sum-all")
    with Tape() as tape:
        grid = build()
        loss = training.loss_from_matrix(grid, config.margin, config.negative_mode)
        tape.backward(loss)
        grads = {name: tape.grad(t) for name, t in model.params.named().items()}
    return np.array([[t.item() for t in row] for row in grid]), grads


@pytest.mark.parametrize("spaces", ["dual-I", "triple"])
@pytest.mark.parametrize("fuse_mode", ["weighted", "average"])
def test_matrix_matches_per_pair_gate_reference(corpus, spaces, fuse_mode):
    model = Model.new(DIMS, spaces, seed=1, table=corpus.dataset.embedding_table())
    videos, sentences = zip(*_batch(corpus))
    new_values, new_grads = _grid_and_grads(
        lambda: training.fused_similarity_matrix(
            model, list(videos), list(sentences), fuse_mode, _rngs(videos)
        ),
        model,
    )
    ref_values, ref_grads = _grid_and_grads(
        lambda: _reference_grid(model, videos, sentences, fuse_mode, _rngs(videos)), model
    )
    assert np.array_equal(new_values, ref_values)
    for name, ref in ref_grads.items():
        scale = max(np.max(np.abs(ref)), 1e-300)
        assert np.max(np.abs(new_grads[name] - ref)) <= 1e-12 * scale, name


def test_grid_is_videos_by_sentences(corpus):
    model = Model.new(DIMS, "triple", seed=1, table=corpus.dataset.embedding_table())
    videos, sentences = zip(*_batch(corpus, k=3))
    grid = training.fused_similarity_matrix(model, list(videos), list(sentences[:2]))
    assert len(grid) == 3 and all(len(row) == 2 for row in grid)


def _gradient_cases():
    """One tensor from each parameter group the space set has, for both
    negative modes."""
    for spaces, names in SPACE_SETS.items():
        groups = ["gru.w_z", f"proj.{names[-1]}.w", "head.global.w", "gate.w"]
        if SPACE_SEQUENTIAL in names:
            groups += ["attn.w_q", "lstm.u_i"]
        for mode in ("sum-all", "hardest"):
            for tensor in groups:
                yield spaces, mode, tensor


@pytest.mark.parametrize("spaces,negative_mode,tensor", list(_gradient_cases()))
def test_batch_loss_gradient_per_parameter_group(corpus, spaces, negative_mode, tensor):
    model = Model.new(DIMS, spaces, seed=2, table=corpus.dataset.embedding_table())
    batch = _batch(corpus)
    videos = [v for v, _ in batch]
    config = TripletConfig(negative_mode=negative_mode)

    def loss(_):
        return training.batch_loss(batch, model, config, "weighted", _rngs(videos))

    x = model.params.named()[tensor]
    assert grad_check(loss, x, max_coords=3) < 1e-6


def test_unknown_fuse_mode_raises_before_any_pair_is_scored(corpus, monkeypatch):
    model = Model.new(DIMS, "dual-I", seed=1, table=corpus.dataset.embedding_table())
    scored = []
    monkeypatch.setattr(training, "space_similarity", lambda f, g: scored.append(1))
    videos, sentences = zip(*_batch(corpus))
    with pytest.raises(ValueError, match="fuse mode"):
        training.fused_similarity_matrix(model, list(videos), list(sentences), "median")
    assert scored == []


def _train_once(corpus, monkeypatch):
    """One seeded run, recording the frames each video head was given."""
    epoch = [0]
    frames = {"global": [], "sequential": []}

    def spy_global(video, indices, params):
        frames["global"].append((epoch[0], video.video_id, tuple(indices)))
        return global_embed(video, indices, params)

    def spy_sequential(video, indices, phi, params):
        frames["sequential"].append((video.video_id, tuple(indices)))
        return sequential_embed(video, indices, phi, params)

    monkeypatch.setattr(mvse_model, "global_embed", spy_global)
    monkeypatch.setattr(mvse_model, "sequential_embed", spy_sequential)
    model = Model.new(DIMS, "triple", seed=4, table=corpus.dataset.embedding_table())
    config = TripletConfig(epochs=2, batch_size=4, learning_rate=0.05, rng_seed=5)

    def log_fn(e, _loss):
        epoch[0] = e + 1

    result = training.train(
        corpus.dataset, corpus.manifests["train"], model, config, "weighted", log_fn
    )
    params = {name: t.data.copy() for name, t in model.params.named().items()}
    return result.loss_log, params, frames


def test_train_is_bit_reproducible_from_the_seed(monkeypatch):
    corpus = _corpus(n_videos=16)
    log_a, params_a, frames_a = _train_once(corpus, monkeypatch)
    log_b, params_b, frames_b = _train_once(corpus, monkeypatch)
    assert len(log_a) == 2 and all(np.isfinite(v) for _, v in log_a)
    assert log_a == log_b
    assert params_a.keys() == params_b.keys()
    for name in params_a:
        assert np.array_equal(params_a[name], params_b[name]), name
    assert frames_a == frames_b

    # The global head samples a random frame per chunk from the run's
    # frame generators; the sequential head always takes the first.
    first = chunk_sample(N_FRAMES, DIMS.n_chunks, "first")
    assert {idx for _, idx in frames_a["sequential"]} == {tuple(first)}
    for epoch, vid, idx in frames_a["global"]:
        expected = chunk_sample(N_FRAMES, DIMS.n_chunks, "random", training.frame_rng(5, epoch, vid))
        assert idx == tuple(expected)
    assert any(idx != tuple(first) for _, _, idx in frames_a["global"])

    fresh = Model.new(DIMS, "triple", seed=4, table=corpus.dataset.embedding_table())
    initial = {name: t.data for name, t in fresh.params.named().items()}
    assert any(not np.array_equal(initial[n], params_a[n]) for n in initial)


def test_hardest_mode_breaks_ties_to_the_lowest_index():
    values = [[0.5, 0.4, 0.4], [0.1, 0.5, 0.45], [0.1, 0.2, 0.5]]
    alpha = 1.0  # every picked hinge is active, so every picked entry gets a gradient
    with Tape() as tape:
        fused = [[Tensor(v) for v in row] for row in values]
        loss = training.loss_from_matrix(fused, alpha, "hardest")
        tape.backward(loss)
    # anchor 0 ties (0,1)/(0,2) along its row and (1,0)/(2,0) down its column
    assert tape.grad(fused[0][1]) != 0 and tape.grad(fused[0][2]) == 0
    assert tape.grad(fused[1][0]) != 0 and tape.grad(fused[2][0]) == 0
    picked = [(0.4, 0.1), (0.45, 0.4), (0.2, 0.45)]  # (wrong sentence, wrong video) per anchor
    expected = sum(2 * alpha + s + v - 2 * values[i][i] for i, (s, v) in enumerate(picked))
    assert loss.item() == pytest.approx(expected, abs=1e-12)


MARGIN = 0.205  # entries on a 0.01 grid keep every hinge >= 0.005 off its kink


def _reference_loss(values, alpha, mode):
    """The hinges in the documented order -- by anchor, wrong sentence
    before wrong video -- reduced by numpy's sum, and the grid entries
    they read."""
    b = len(values)
    terms, picked = [], set()
    for i in range(b):
        if mode == "sum-all":
            pairs = [(j, j) for j in range(b) if j != i]
        else:
            row, col = values[i].copy(), values[:, i].copy()
            row[i] = col[i] = -np.inf
            pairs = [(int(np.argmax(row)), int(np.argmax(col)))]
        for j_sentence, j_video in pairs:
            terms.append(max(0.0, values[i, j_sentence] - values[i, i] + alpha))
            terms.append(max(0.0, values[j_video, i] - values[i, i] + alpha))
            picked |= {(i, i), (i, j_sentence), (j_video, i)}
    return np.array(terms).sum(), picked


@pytest.mark.parametrize("mode", ["sum-all", "hardest"])
@pytest.mark.parametrize("b", range(2, 11))
def test_loss_is_one_hinge_node_over_the_picked_entries(b, mode):
    values = np.random.default_rng(b).permutation(b * b) * 0.01  # distinct, 0.01 apart

    def grid_of(x):
        return [[pick(x, i * b + j) for j in range(b)] for i in range(b)]

    x = Tensor(values)
    with Tape() as tape:
        grid = grid_of(x)
        before = len(tape)
        loss = training.loss_from_matrix(grid, MARGIN, mode)
        assert len(tape) == before + 1
        tape.backward(loss)
    expected, picked = _reference_loss(values.reshape(b, b), MARGIN, mode)
    assert loss.item() == expected
    for i in range(b):
        for j in range(b):
            assert (grid[i][j].node_id in tape.gradients) == ((i, j) in picked), (i, j)
    assert grad_check(lambda t: training.loss_from_matrix(grid_of(t), MARGIN, mode), x) < 1e-6


def test_non_finite_loss_stops_training(corpus, monkeypatch):
    monkeypatch.setattr(training, "loss_from_matrix", lambda fused, alpha, mode: Tensor(np.nan))
    model = Model.new(DIMS, "dual-I", seed=1, table=corpus.dataset.embedding_table())
    config = TripletConfig(epochs=1, batch_size=4, rng_seed=5)
    with pytest.raises(training.TrainingDivergedError, match=r"epoch 0.*videos \['v"):
        training.train(corpus.dataset, corpus.manifests["train"], model, config)


@pytest.mark.parametrize("spaces", ["dual-I", "triple"])
def test_checkpoint_round_trip_scores_bit_identically(corpus, spaces):
    table = corpus.dataset.embedding_table()
    model = Model.new(DIMS, spaces, seed=6, table=table)
    arrays = {name: t.data for name, t in model.params.named().items()}
    loaded, _ = read_checkpoint(write_checkpoint(arrays, {"spaces": spaces}))
    reloaded = Model(mvse_model.params_from_arrays(DIMS, model.spaces, loaded), table)
    videos, sentences = zip(*_batch(corpus))
    with no_tape():
        before = training.fused_similarity_matrix(model, list(videos), list(sentences))
        after = training.fused_similarity_matrix(reloaded, list(videos), list(sentences))
    assert [[t.item() for t in row] for row in after] == [[t.item() for t in row] for row in before]
