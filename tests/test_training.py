"""The shared scoring path: ``fused_similarity_matrix`` against a per-pair
reference built from the per-sentence GRU, rank-1 projections and gate, and
the per-pair sequential head; the batched GRU against the per-sentence one;
the fused recurrences against the per-op chains they replace; and the
reproducibility of ``train``."""

import collections
import dataclasses
import itertools
import struct
import tracemalloc

import numpy as np
import pytest

from mvse import fusion
from mvse import model as mvse_model
from mvse import training
from mvse.autodiff import (
    Tape,
    Tensor,
    _emit,
    active_tape,
    broadcast_add,
    cosine,
    einsum,
    grad_check,
    gru_recurrence,
    lstm_recurrence,
    matvec,
    no_tape,
    reshape,
    softmax,
    stack,
    tanh,
)
from mvse.config import SPACE_ACTION, SPACE_GLOBAL, SPACE_SEQUENTIAL, SPACE_SETS, Dims, TripletConfig
from mvse.dataio import ContainerError, Manifest, VersionMismatchError, read_checkpoint, write_checkpoint
from mvse.fusion import fuse, space_weights
from mvse.model import Model
from mvse.synth import SynthConfig, synth_generate
from mvse.text import GruParams, gru_encode, project_text
from mvse.visual import VideoFeature, chunk_sample, global_embed, sequential_embed

import oracle_ops
from oracle_ops import add, add_scalar, mul, scale, scale_cells, sigmoid, take

DIMS = Dims.small()
# the benchmark's seq-train dims
MID_DIMS = Dims(
    n_chunks=8, grid=4, c_global=128, c_spatial=64, c_action=64,
    hidden=64, embed_dim=64, token_dim=32, attn_dim=64,
)
N_FRAMES = 7  # more frames than chunks, so random and first sampling differ


def _corpus(n_videos: int = 8, dims: Dims = DIMS, n_frames: int = N_FRAMES):
    return synth_generate(SynthConfig(
        dims=dims, n_videos=n_videos, sentences_per_video=2,
        rho=(0.5, 0.25, 0.25), seed=3, train_fraction=0.5, n_frames=n_frames,
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


def _per_sentence_gru(ids: list[int], table: np.ndarray, params: GruParams) -> Tensor:
    """One sentence through the GRU, one token vector per step: [H]."""
    vecs = table[np.asarray(ids, dtype=np.int64)]
    (w_z, w_r, w_c), (u_z, u_r, u_c), (b_z, b_r, b_c) = (
        [take(p, n) for n in range(3)] for p in (params.w, params.u, params.b)
    )
    h = Tensor(np.zeros(b_z.shape))
    for x in vecs:
        x = Tensor(x)
        z = sigmoid(add(add(matvec(w_z, x), matvec(u_z, h)), b_z))
        r = sigmoid(add(add(matvec(w_r, x), matvec(u_r, h)), b_r))
        c = tanh(add(add(matvec(w_c, x), matvec(u_c, mul(r, h))), b_c))
        h = add(mul(add_scalar(scale(z, -1.0), 1.0), h), mul(z, c))
    return h


def _per_op_gru(x, u, b, mask):
    """The masked GRU recurrence op by op over [Q, T, 3, H] input terms, as
    ``gru_recurrence`` computes it in one node: [Q, H]."""
    u_z, u_r, u_c = (take(u, n) for n in range(3))
    h = Tensor(np.zeros((x.shape[0], x.shape[3])))
    for t in range(x.shape[1]):
        a = broadcast_add(take(x, t, axis=1), b)  # [Q, 3, H]
        xz, xr, xc = (take(a, n, axis=1) for n in range(3))
        z = sigmoid(add(xz, matvec(u_z, h)))
        r = sigmoid(add(xr, matvec(u_r, h)))
        c = tanh(add(xc, matvec(u_c, mul(r, h))))
        if not mask[:, t].all():
            z = einsum("qh,q->qh", z, mask[:, t])
        h = add(mul(add_scalar(scale(z, -1.0), 1.0), h), mul(z, c))
    return h


def _per_op_lstm(x, u, b):
    """The LSTM recurrence op by op over [V, T, Q, 4, H] input terms, as
    ``lstm_recurrence`` computes it in one node from the factored terms:
    [V, Q, H]."""
    n_v, n_t, n_q, _, n_h = x.shape
    h = Tensor(np.zeros((n_v, n_q, n_h)))
    c = Tensor(np.zeros(h.shape))
    for t in range(n_t):
        gates = broadcast_add(add(take(x, t, axis=1), einsum("gjk,vqk->vqgj", u, h)), b)
        i, f, g, o = (take(gates, n, axis=2) for n in range(4))
        c = add(mul(sigmoid(f), c), mul(sigmoid(i), tanh(g)))
        h = mul(sigmoid(o), tanh(c))
    return h


def _per_pair_sequential(video, indices, phi, params):
    """The sequential head of one (video, sentence) pair, unfactored: per
    frame, attention over the grid, then an LSTM step on the flattened
    attended grid."""
    at, lstm = params.attention, params.lstm
    hidden = lstm.b.shape[1]
    h = Tensor(np.zeros(hidden))
    c = Tensor(np.zeros(hidden))
    for idx in indices:
        grid = Tensor(video.grid_frames[idx])
        g1, g2, _ = grid.shape
        p = tanh(add(matvec(at.w_p, reshape(grid, (grid.size,))), at.b_p))
        q = tanh(add(matvec(at.w_q, phi), at.b_q))
        logits = tanh(add(matvec(at.w_a, add(p, q)), at.b_a))
        attended = scale_cells(grid, reshape(softmax(logits), (g1, g2)))
        x = reshape(attended, (attended.size,))

        def gate(n):
            # gate n's blocks of the stacked parameters, w as [G*G*C_s, H]
            w = reshape(take(lstm.w, n, axis=2), (x.size, hidden))
            return add(add(einsum("fh,f->h", w, x), matvec(take(lstm.u, n), h)), take(lstm.b, n))

        i, f, g, o = sigmoid(gate(0)), sigmoid(gate(1)), tanh(gate(2)), sigmoid(gate(3))
        c = add(mul(f, c), mul(i, g))
        h = mul(o, tanh(c))
    return h


def _one_row(t: Tensor) -> Tensor:
    return reshape(t, (1, t.size))


def _reference_grid(model, videos, sentences, fuse_mode, frame_rngs):
    """The grid built pair by pair: each sentence through the per-sentence
    GRU, its projections and gate weights as rank-1 tensors, each video's
    static embeddings on their own, the sequential head per pair, and a
    1 x 1 cosine and fusion per pair."""
    n, p = model.dims.n_chunks, model.params
    phis = [_per_sentence_gru(s, model.table.vectors, p.gru) for s in sentences]
    grid = []
    for i, video in enumerate(videos):
        idx_global = chunk_sample(video.n_frames, n, frame_rngs[i])
        idx_seq = chunk_sample(video.n_frames, n)
        statics = {}
        if SPACE_GLOBAL in model.spaces:
            pooled = Tensor(video.global_frames[idx_global].mean(axis=0))
            statics[SPACE_GLOBAL] = add(matvec(p.global_head.w, pooled), p.global_head.b)
        if SPACE_ACTION in model.spaces:
            statics[SPACE_ACTION] = Tensor(video.action_vec)
        row = []
        for phi in phis:
            sims = []
            for space in model.spaces:
                if space == SPACE_SEQUENTIAL:
                    f = _per_pair_sequential(video, idx_seq, phi, p.sequential_head)
                else:
                    f = statics[space]
                g = project_text(phi, space, p.projections)
                sims.append(cosine(_one_row(f), _one_row(g)))
            w = space_weights(phi, p.gate, fuse_mode)
            row.append(take(take(fuse(stack(sims), _one_row(w)), 0), 0))
        grid.append(row)
    return grid


def _grid_and_grads(build, model, negative_mode):
    config = TripletConfig(negative_mode=negative_mode)
    with Tape() as tape:
        grid = build()
        loss = training.loss_from_matrix(grid, config.margin, config.negative_mode)
        tape.backward(loss)
        grads = {name: tape.grad(t) for name, t in model.params.named().items()}
    return np.array([[t.item() for t in row] for row in grid]), grads


@pytest.mark.parametrize("spaces", ["dual-I", "triple", "dual-S"])
@pytest.mark.parametrize("fuse_mode", ["weighted", "average"])
def test_matrix_matches_per_pair_gate_reference(corpus, spaces, fuse_mode):
    """The batched GRU, projections, heads, cosine grids and fusion sum in
    a different order than the per-pair path, so values and gradients
    agree to 1e-12 relative."""
    model = Model.new(DIMS, spaces, seed=1, table=corpus.dataset.embedding_table())
    videos, sentences = zip(*_batch(corpus))
    for negative_mode in ("sum-all", "hardest"):
        new_values, new_grads = _grid_and_grads(
            lambda: training.fused_similarity_matrix(
                model, list(videos), list(sentences), fuse_mode, _rngs(videos)
            ),
            model, negative_mode,
        )
        ref_values, ref_grads = _grid_and_grads(
            lambda: _reference_grid(model, videos, sentences, fuse_mode, _rngs(videos)),
            model, negative_mode,
        )
        assert np.max(np.abs(new_values - ref_values)) <= 1e-12 * np.max(np.abs(ref_values))
        for name, ref in ref_grads.items():
            scale = max(np.max(np.abs(ref)), 1e-300)
            assert np.max(np.abs(new_grads[name] - ref)) <= 1e-12 * scale, (negative_mode, name)


def _all_pairs(corpus):
    """Every video of the corpus and its first sentence."""
    ds = corpus.dataset
    entries = corpus.manifests["train"].entries + corpus.manifests["test"].entries
    videos = [ds.video_feature(idx, vid) for vid, idx, _ in entries]
    return videos, [ds.sentences[sents[0]] for _, _, sents in entries]


def test_sequential_head_runs_once_with_a_grid_independent_tape(corpus, monkeypatch):
    model = Model.new(DIMS, "triple", seed=1, table=corpus.dataset.embedding_table())
    calls = []

    def spy(videos, indices, phis, params):
        tape = active_tape()
        before = len(tape)
        out = sequential_embed(videos, indices, phis, params)
        calls.append((len(videos), phis.shape[0], len(tape) - before))
        return out

    monkeypatch.setattr(mvse_model, "sequential_embed", spy)
    videos, sentences = _all_pairs(corpus)
    for n in (2, 5):
        with Tape():
            training.fused_similarity_matrix(model, videos[:n], sentences[:n])
    assert [c[:2] for c in calls] == [(2, 2), (5, 5)]
    assert calls[0][2] == calls[1][2] > 0


# (module, name): each batched function of the scorer, patched where its caller looks it up
BATCHED = (
    (mvse_model, "gru_encode"), (mvse_model, "global_embed"), (fusion, "gate_weights"),
    (mvse_model, "project_text"), (training, "space_similarity"), (fusion, "fuse"),
)


def test_scorer_calls_each_batched_function_a_grid_independent_number_of_times(corpus, monkeypatch):
    model = Model.new(DIMS, "triple", seed=1, table=corpus.dataset.embedding_table())
    counts = collections.Counter()
    for module, name in BATCHED:
        def spy(*args, _fn=getattr(module, name), _name=name, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, name, spy)
    videos, sentences = _all_pairs(corpus)
    per_call = []
    for n in (2, 6):
        counts.clear()
        with Tape():
            training.fused_similarity_matrix(model, videos[:n], sentences[:n])
        per_call.append(dict(counts))
    m = len(model.spaces)
    once_per_space = {"project_text": m, "space_similarity": m}
    expected = {"gru_encode": 1, "global_embed": 1, "gate_weights": 1, "fuse": 1, **once_per_space}
    assert per_call == [expected, expected]


GRU_LENGTHS = {"mixed": [3, 1, 15, 7, 1, 12, 9, 2, 15, 5, 11], "one": [6], "equal": [8] * 5}


@pytest.mark.parametrize("lengths", list(GRU_LENGTHS.values()), ids=list(GRU_LENGTHS))
def test_batched_gru_matches_the_per_sentence_gru(lengths):
    """The masked GRU over the batch sums in another order than one GRU
    per sentence, so values and every gradient agree to 1e-12 relative."""
    rng = np.random.default_rng(len(lengths))
    vocab = 20
    table = rng.normal(scale=0.5, size=(vocab, DIMS.token_dim))
    sentences = [[int(t) for t in rng.integers(vocab, size=n)] for n in lengths]
    params = mvse_model.init_params(DIMS, ("global",), seed=len(lengths)).gru
    weights = rng.normal(size=(len(lengths), DIMS.hidden))  # so no two outputs share a gradient

    def run(encode):
        with Tape() as tape:
            out = encode()
            tape.backward(einsum("qh,qh->", out, weights))
            return out.data, {name: tape.grad(t) for name, t in vars(params).items()}

    new, new_grads = run(lambda: gru_encode(sentences, table, params))
    ref, ref_grads = run(lambda: stack([_per_sentence_gru(s, table, params) for s in sentences]))
    assert new.shape == (len(lengths), DIMS.hidden)
    assert np.max(np.abs(new - ref)) <= 1e-12 * np.max(np.abs(ref))
    for name, g in ref_grads.items():
        assert np.max(np.abs(new_grads[name] - g)) <= 1e-12 * np.max(np.abs(g)), name


def _values_and_grads(run, inputs, weights):
    with Tape() as tape:
        out = run(*inputs)
        spec = "qh,qh->" if out.data.ndim == 2 else "vqh,vqh->"
        tape.backward(einsum(spec, out, weights))
        return out.data, [tape.grad(t) for t in inputs]


def _assert_close(new, ref):
    """Values and every gradient within 1e-12 of the reference's largest
    magnitude."""
    (out, grads), (ref_out, ref_grads) = new, ref
    assert np.max(np.abs(out - ref_out)) <= 1e-12 * np.max(np.abs(ref_out))
    for n, (g, r) in enumerate(zip(grads, ref_grads)):
        assert np.max(np.abs(g - r)) <= 1e-12 * np.max(np.abs(r)), n


@pytest.mark.parametrize("dims", [DIMS, MID_DIMS], ids=["small", "mid"])
def test_gru_recurrence_matches_the_per_op_chain(dims):
    """Mixed lengths, so the mask stops sentences at different steps."""
    rng = np.random.default_rng(dims.hidden)
    lengths = GRU_LENGTHS["mixed"]
    q, n_t, h = len(lengths), max(lengths), dims.hidden
    mask = (np.arange(n_t)[None, :] < np.asarray(lengths)[:, None]).astype(np.float64)
    gru = mvse_model.init_params(dims, ("global",), seed=4).gru
    inputs = [Tensor(rng.normal(size=(q, n_t, 3, h))), gru.u, gru.b]
    weights = rng.normal(size=(q, h))
    new = _values_and_grads(lambda *a: gru_recurrence(*a, mask), inputs, weights)
    _assert_close(new, _values_and_grads(lambda *a: _per_op_gru(*a, mask), inputs, weights))


def _lstm_inputs(rng, dims, n_v, n_q):
    """Per-cell input terms K [G*G, V, T, 4, H] and attention maps [V, Q, T,
    G*G] (each a distribution over the cells) as ``sequential_embed`` hands
    them to ``lstm_recurrence``, with the model's recurrent weights and
    biases."""
    lstm = mvse_model.init_params(dims, ("global", "sequential"), seed=4).sequential_head.lstm
    cells, n_t = dims.grid_cells, dims.n_chunks
    k = Tensor(rng.normal(size=(cells, n_v, n_t, 4, dims.hidden)))
    amap = Tensor(rng.dirichlet(np.ones(cells), size=(n_v, n_q, n_t)))
    return [k, amap, lstm.u, lstm.b]


def _materialized_lstm(lstm):
    """``lstm(x, u, b)`` on the input terms of every step, [V, T, Q, 4, H],
    contracted from K and the maps as ``sequential_embed`` once did."""
    return lambda k, amap, u, b: lstm(einsum("nvtgj,vqtn->vtqgj", k, amap), u, b)


@pytest.mark.parametrize("dims", [DIMS, MID_DIMS], ids=["small", "mid"])
def test_lstm_recurrence_matches_the_per_op_chain(dims):
    rng = np.random.default_rng(dims.hidden)
    n_v, n_q = 5, 3
    inputs = _lstm_inputs(rng, dims, n_v, n_q)
    weights = rng.normal(size=(n_v, n_q, dims.hidden))
    new = _values_and_grads(lstm_recurrence, inputs, weights)
    _assert_close(new, _values_and_grads(_materialized_lstm(_per_op_lstm), inputs, weights))


# (dims, V, Q): the benchmark's seq-train batch and eval grid at mid dims and
# seq-retrieve's at small dims, then a single video and a single sentence,
# whose length-1 index the materialized contraction drops from its product
LSTM_GRIDS = {
    "seq-train-batch": (MID_DIMS, 8, 8),
    "seq-train-eval": (MID_DIMS, 16, 16),
    "seq-retrieve-batch": (DIMS, 8, 8),
    "seq-retrieve-eval": (DIMS, 64, 64),
    "one-video": (MID_DIMS, 1, 8),
    "one-sentence": (DIMS, 8, 1),
}


@pytest.mark.parametrize("taped", [True, False], ids=["taped", "untaped"])
@pytest.mark.parametrize("grid", list(LSTM_GRIDS))
def test_streamed_input_terms_give_the_materialized_bytes(grid, taped):
    """Each step's input terms, formed from K and the maps as the step runs,
    give the bytes of the recurrence over the input terms of every step
    contracted at once, forward and in every gradient. A length-1 V or Q
    changes the materialized contraction's product (that index is dropped)
    but not its bytes, so no case needs a tolerance."""
    dims, n_v, n_q = LSTM_GRIDS[grid]
    rng = np.random.default_rng(n_v * 100 + n_q)
    inputs = _lstm_inputs(rng, dims, n_v, n_q)
    weights = rng.normal(size=(n_v, n_q, dims.hidden))
    runs = [lstm_recurrence, _materialized_lstm(oracle_ops.lstm_recurrence)]
    if taped:
        (out, grads), (ref, ref_grads) = (_values_and_grads(run, inputs, weights) for run in runs)
        assert [g.tobytes() for g in grads] == [g.tobytes() for g in ref_grads]
        assert [g.shape for g in grads] == [t.shape for t in inputs]
    else:
        with no_tape():
            out, ref = (run(*inputs).data for run in runs)
    assert out.shape == (n_v, n_q, dims.hidden) and out.tobytes() == ref.tobytes()


@pytest.mark.parametrize("taped", [True, False], ids=["taped", "untaped"])
@pytest.mark.parametrize("n_h", [1, 3, 5, 16, 17, 33, 64])
@pytest.mark.parametrize("cells", [1, 4, 9, 16])
def test_hidden_major_recurrence_is_within_8_eps_of_the_materialized_one(cells, n_h, taped):
    """Over small and odd lengths the recurrence's GEMMs may round in
    another order than the materialized recurrence's (the input-term
    product as [4H, G*G] by [G*G, Q], the backward's ``u.T @ d``), so the
    forward and every gradient are held to 8·eps times the largest
    magnitude of the oracle's array, not to its bytes."""
    eps = np.finfo(np.float64).eps
    bound = n_h ** -0.5  # u and b as the model inits them, uniform within 1/sqrt(H)
    runs = [lstm_recurrence, _materialized_lstm(oracle_ops.lstm_recurrence)]
    for n_v, n_q, n_t in itertools.product([1, 2, 3, 8], [1, 2, 3, 16], [1, 3]):
        rng = np.random.default_rng([cells, n_h, n_v, n_q, n_t])
        inputs = [
            Tensor(rng.normal(size=(cells, n_v, n_t, 4, n_h))),
            Tensor(rng.dirichlet(np.ones(cells), size=(n_v, n_q, n_t))),
            Tensor(rng.uniform(-bound, bound, size=(4, n_h, n_h))),
            Tensor(rng.uniform(-bound, bound, size=(4, n_h))),
        ]
        weights = rng.normal(size=(n_v, n_q, n_h))
        if taped:
            arrays = [[out, *grads] for out, grads in (_values_and_grads(run, inputs, weights) for run in runs)]
        else:
            with no_tape():
                arrays = [[run(*inputs).data] for run in runs]
        for name, new, ref in zip(["out", "k", "amap", "u", "b"], *arrays):
            assert new.shape == ref.shape
            assert np.max(np.abs(new - ref)) <= 8 * eps * np.max(np.abs(ref)), (name, n_v, n_q, n_t)


def test_each_recurrence_records_a_length_independent_number_of_nodes():
    p = mvse_model.init_params(DIMS, ("global", "sequential"), seed=1)
    rng = np.random.default_rng(0)
    table = rng.normal(size=(20, DIMS.token_dim))
    video = VideoFeature(
        "v0", rng.normal(size=(8, DIMS.c_global)),
        rng.normal(size=(8, DIMS.grid, DIMS.grid, DIMS.c_spatial)), None,
    )
    phis = Tensor(rng.normal(size=(2, DIMS.hidden)))

    def op_nodes(run):
        with Tape() as tape:
            run()
        return sum(node.backward is not None for node in tape._nodes)

    gru = [op_nodes(lambda: gru_encode([[1] * n, [2] * n], table, p.gru)) for n in (3, 15)]
    head = p.sequential_head
    seq = [op_nodes(lambda: sequential_embed([video], [list(range(n))], phis, head)) for n in (2, 8)]
    assert gru == [2, 2]  # the input-term contraction and the recurrence
    assert seq[0] == seq[1]


@pytest.mark.parametrize("dims", [DIMS, MID_DIMS], ids=["small", "mid"])
@pytest.mark.parametrize("spaces", list(SPACE_SETS))
def test_untaped_scores_are_the_taped_scores_bit_for_bit(dims, spaces):
    """Without a tape the recurrences reuse one set of step buffers and
    update their state in place; the scores must not change by a bit."""
    corpus = _corpus(dims=dims)
    model = Model.new(dims, spaces, seed=1, table=corpus.dataset.embedding_table())
    videos, sentences = _all_pairs(corpus)
    scores = []
    for context in (no_tape, Tape):
        with context():
            grid = training.fused_similarity_matrix(model, videos, sentences, "weighted", _rngs(videos))
            scores.append(grid.scores.data.tobytes())
    assert scores[0] == scores[1]


def test_grid_is_videos_by_sentences(corpus):
    model = Model.new(DIMS, "triple", seed=1, table=corpus.dataset.embedding_table())
    videos, sentences = zip(*_batch(corpus, k=3))
    grid = training.fused_similarity_matrix(model, list(videos), list(sentences[:2]))
    assert len(grid) == 3 and all(len(row) == 2 for row in grid)


def _gradient_cases():
    """One tensor from each parameter group the space set has, for both
    negative modes."""
    for spaces, names in SPACE_SETS.items():
        groups = ["gru.w", f"proj.{names[-1]}.w", "head.global.w", "gate.w"]
        if SPACE_SEQUENTIAL in names:
            groups += ["attn.w_q", "lstm.u"]
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


@pytest.mark.parametrize("spaces", ["single", "dual-I"])
def test_frame_generators_of_another_count_raise_before_any_compute(corpus, spaces, monkeypatch):
    model = Model.new(DIMS, spaces, seed=1, table=corpus.dataset.embedding_table())
    encoded = []
    monkeypatch.setattr(mvse_model, "gru_encode", lambda *args: encoded.append(1))
    videos, sentences = zip(*_batch(corpus))
    with pytest.raises(ValueError, match="2 frame generators for 4 videos"):
        training.fused_similarity_matrix(
            model, list(videos), list(sentences), "weighted", _rngs(videos[:2])
        )
    assert encoded == []


@pytest.mark.parametrize("spaces", ["single", "dual-S"])
def test_no_videos_raise_before_any_compute(corpus, spaces, monkeypatch):
    # as no sentences raise EmptySentenceError, not an error from inside numpy
    model = Model.new(DIMS, spaces, seed=1, table=corpus.dataset.embedding_table())
    encoded = []
    monkeypatch.setattr(mvse_model, "gru_encode", lambda *args: encoded.append(1))
    sentences = [s for _, s in _batch(corpus)]
    with pytest.raises(ValueError, match="^no videos to score$"):
        training.fused_similarity_matrix(model, [], sentences)
    assert encoded == []


def _train_once(corpus, monkeypatch):
    """One seeded run, recording the frames each video head was given."""
    epoch = [0]
    frames = {"global": [], "sequential": []}

    def spy_global(videos, indices, params):
        frames["global"] += [(epoch[0], v.video_id, tuple(idx)) for v, idx in zip(videos, indices)]
        return global_embed(videos, indices, params)

    def spy_sequential(videos, indices, phis, params):
        frames["sequential"] += [(v.video_id, tuple(idx)) for v, idx in zip(videos, indices)]
        return sequential_embed(videos, indices, phis, params)

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
    first = chunk_sample(N_FRAMES, DIMS.n_chunks)
    assert {idx for _, idx in frames_a["sequential"]} == {tuple(first)}
    for epoch, vid, idx in frames_a["global"]:
        expected = chunk_sample(N_FRAMES, DIMS.n_chunks, training.frame_rng(5, epoch, vid))
        assert idx == tuple(expected)
    assert any(idx != tuple(first) for _, _, idx in frames_a["global"])

    fresh = Model.new(DIMS, "triple", seed=4, table=corpus.dataset.embedding_table())
    initial = {name: t.data for name, t in fresh.params.named().items()}
    assert any(not np.array_equal(initial[n], params_a[n]) for n in initial)


def test_tape_grad_returns_the_tapes_own_gradient_array(corpus):
    model = Model.new(DIMS, "dual-S", seed=4, table=corpus.dataset.embedding_table())
    w = model.params.named()["lstm.w"]
    with Tape() as tape:
        tape.backward(training.batch_loss(_batch(corpus), model, TripletConfig()))
    g = tape.grad(w)
    # lstm.w is stored in the order its gradient contraction produces
    assert g.shape == w.shape and g.flags.c_contiguous
    assert np.shares_memory(g, tape.gradients[tape._leaf_ids[id(w)]])


def test_an_epoch_on_uncopied_gradients_matches_contiguous_copies(monkeypatch):
    corpus = _corpus(n_videos=16)
    config = TripletConfig(epochs=1, batch_size=4, learning_rate=0.05, rng_seed=5)

    def one_epoch():
        model = Model.new(DIMS, "triple", seed=4, table=corpus.dataset.embedding_table())
        result = training.train(corpus.dataset, corpus.manifests["train"], model, config)
        return result.loss_log, {name: t.data.tobytes() for name, t in model.params.named().items()}

    uncopied = one_epoch()
    grad = Tape.grad
    monkeypatch.setattr(Tape, "grad", lambda tape, t: np.ascontiguousarray(grad(tape, t)))
    assert one_epoch() == uncopied


@pytest.mark.parametrize("layout", ["contiguous", "transposed-view"])
def test_sgd_step_gives_the_bytes_of_p_minus_lr_g(layout):
    # rows of 3 x 77 floats: the leading axis splits into several blocks,
    # the last one short; "s" is a 0-d parameter
    rng = np.random.default_rng(21)
    p = rng.normal(size=(300, 3, 77))
    g = rng.normal(size=(77, 3, 300)).T if layout == "transposed-view" else rng.normal(size=p.shape)
    params = {"w": Tensor(p), "b": Tensor(rng.normal(size=5)), "s": Tensor(rng.normal())}
    grads = {"w": g, "b": rng.normal(size=5), "s": np.asarray(rng.normal())}
    expected = {name: t.data - 0.05 * grads[name] for name, t in params.items()}
    training.sgd_step(params, grads, 0.05)
    assert {name: t.data.tobytes() for name, t in params.items()} == {
        name: e.tobytes() for name, e in expected.items()
    }


def test_sgd_step_holds_no_parameter_sized_temporary():
    # an 8 MB parameter: lr * g whole would be another 8 MB; in blocks the
    # step's peak is one block and the few views that index it
    rng = np.random.default_rng(22)
    params = {"w": Tensor(rng.normal(size=(1024, 1024)))}
    grads = {"w": rng.normal(size=(1024, 1024))}
    tracemalloc.start()
    try:
        training.sgd_step(params, grads, 0.05)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= training._SGD_BLOCK_BYTES + 16_384


@pytest.mark.parametrize("n_frames", [N_FRAMES, DIMS.n_chunks], ids=["F>N", "F==N"])
def test_train_builds_frame_generators_only_when_a_chunk_can_draw(n_frames, monkeypatch):
    corpus = _corpus(n_videos=16, n_frames=n_frames)
    built = []
    frame_rng = training.frame_rng

    def spy(seed, epoch, video_id):
        built.append((epoch, video_id))
        return frame_rng(seed, epoch, video_id)

    monkeypatch.setattr(training, "frame_rng", spy)
    model = Model.new(DIMS, "dual-I", seed=4, table=corpus.dataset.embedding_table())
    config = TripletConfig(epochs=2, batch_size=4, learning_rate=0.05, rng_seed=5)
    training.train(corpus.dataset, corpus.manifests["train"], model, config)

    if n_frames <= DIMS.n_chunks:
        assert built == []
    else:
        # 8 training videos in batches of 4: one generator per video per batch
        train_ids = sorted(vid for vid, _, _ in corpus.manifests["train"].entries)
        assert len(train_ids) == 8
        for epoch in range(config.epochs):
            assert sorted(vid for e, vid in built if e == epoch) == train_ids
        assert len(built) == config.epochs * len(train_ids)


def test_frame_generators_change_nothing_when_no_chunk_can_draw():
    corpus = _corpus(n_frames=DIMS.n_chunks)
    model = Model.new(DIMS, "triple", seed=2, table=corpus.dataset.embedding_table())
    batch = _batch(corpus)
    params = model.params.named()
    config = TripletConfig()
    results = []
    for rngs in (_rngs([v for v, _ in batch]), None):
        with Tape() as tape:
            loss = training.batch_loss(batch, model, config, "weighted", rngs)
            tape.backward(loss)
            results.append((loss.data.tobytes(), {name: tape.grad(t) for name, t in params.items()}))
    (with_loss, with_grads), (without_loss, without_grads) = results
    assert with_loss == without_loss
    for name in params:
        assert with_grads[name].tobytes() == without_grads[name].tobytes(), name


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
    that active hinges read."""
    b = len(values)
    terms, active = [], set()
    for i in range(b):
        if mode == "sum-all":
            pairs = [(j, j) for j in range(b) if j != i]
        else:
            row, col = values[i].copy(), values[:, i].copy()
            row[i] = col[i] = -np.inf
            pairs = [(int(np.argmax(row)), int(np.argmax(col)))]
        for j_sentence, j_video in pairs:
            for negative in ((i, j_sentence), (j_video, i)):
                terms.append(max(0.0, values[negative] - values[i, i] + alpha))
                if terms[-1] > 0:
                    active |= {(i, i), negative}
    return np.array(terms).sum(), active


@pytest.mark.parametrize("mode", ["sum-all", "hardest"])
@pytest.mark.parametrize("b", range(2, 11))
def test_loss_is_one_hinge_node_over_the_picked_entries(b, mode):
    values = np.random.default_rng(b).permutation(b * b) * 0.01  # distinct, 0.01 apart

    def grid_of(x):
        return training.ScoreGrid(reshape(x, (b, b)))

    x = Tensor(values)
    with Tape() as tape:
        grid = grid_of(x)
        before = len(tape)
        loss = training.loss_from_matrix(grid, MARGIN, mode)
        assert len(tape) == before + 1
        tape.backward(loss)
    expected, active = _reference_loss(values.reshape(b, b), MARGIN, mode)
    assert loss.item() == expected
    grad = tape.grad(grid.scores)
    for i in range(b):
        for j in range(b):
            assert (grad[i, j] != 0) == ((i, j) in active), (i, j)
    assert grad_check(lambda t: training.loss_from_matrix(grid_of(t), MARGIN, mode), x) < 1e-6


def test_score_grid_reads_as_rows_of_scalars():
    # the reads retrieval and the benchmark make: len, len(row), .item(), row assignment
    scores = Tensor(np.random.default_rng(4).normal(size=(3, 5)))
    grid = training.ScoreGrid(scores)
    assert grid.scores is scores
    assert len(grid) == 3 and all(len(row) == 5 for row in grid)
    assert np.array([[t.item() for t in row] for row in grid]).tobytes() == scores.data.tobytes()
    grid[0][1] = Tensor(float("nan"))
    assert np.isnan(grid[0][1].item()) and grid[0][2].item() == scores.data[0, 2]


@pytest.mark.parametrize("spaces", ["dual-I", "dual-S"])
def test_batch_loss_records_a_batch_size_independent_number_of_nodes(corpus, spaces):
    model = Model.new(DIMS, spaces, seed=1, table=corpus.dataset.embedding_table())
    videos, sentences = _all_pairs(corpus)
    nodes = []
    for b in (3, 8):
        with Tape() as tape:
            training.batch_loss(list(zip(videos[:b], sentences[:b])), model, TripletConfig())
        nodes.append(len(tape))
    assert nodes[0] == nodes[1]


def _list_hinge_sum(negatives, positives, margin):
    """The triplet loss node over a list of 0-d tensors that the split grid
    fed: its parents are the distinct tensors given, each getting the sum
    of its terms' contributions."""
    parents = tuple({id(t): t for t in (*negatives, *positives)}.values())
    slot = {id(t): k for k, t in enumerate(parents)}
    slots = [slot[id(t)] for t in (*negatives, *positives)]
    terms = np.array([t.item() for t in negatives]) - np.array([t.item() for t in positives]) + margin
    active = terms > 0

    def bk(g):
        g_terms = g * active
        out = np.full(len(parents), -0.0)
        np.add.at(out, slots, np.concatenate([g_terms, -g_terms]))
        return tuple(out)

    return _emit(np.maximum(terms, 0.0).sum(), parents, bk)


def _split_loss(grid, alpha, mode):
    """The loss as it was computed before the grid stayed one tensor: the
    fused [V, Q] scores split into V + V·Q ``take`` nodes, and the picked
    0-d entries summed by the list-form hinge node."""
    b = len(grid)
    rows = [take(grid.scores, i) for i in range(b)]
    fused = [[take(row, j) for j in range(b)] for row in rows]
    if mode == "sum-all":
        picks = [(i, j, j) for i in range(b) for j in range(b) if j != i]
    else:
        values = np.array([[t.item() for t in row] for row in fused])
        np.fill_diagonal(values, -np.inf)
        picks = zip(range(b), values.argmax(axis=1), values.argmax(axis=0))
    negatives, positives = [], []
    for i, j_sentence, j_video in picks:
        negatives += [fused[i][j_sentence], fused[j_video][i]]
        positives += [fused[i][i], fused[i][i]]
    return _list_hinge_sum(negatives, positives, alpha)


@pytest.mark.parametrize("mode", ["sum-all", "hardest"])
@pytest.mark.parametrize("spaces", list(SPACE_SETS))
def test_index_pair_loss_equals_the_split_grid_loss(corpus, spaces, mode):
    """Reading index pairs of the one [V, Q] tensor gives the split path's
    loss and every parameter gradient bit for bit."""
    model = Model.new(DIMS, spaces, seed=2, table=corpus.dataset.embedding_table())
    videos, sentences = _all_pairs(corpus)
    params = model.params.named()
    results = []
    for loss_fn in (training.loss_from_matrix, _split_loss):
        with Tape() as tape:
            grid = training.fused_similarity_matrix(model, videos, sentences, "weighted", _rngs(videos))
            loss = loss_fn(grid, TripletConfig().margin, mode)
            tape.backward(loss)
            results.append((loss.data.tobytes(), {name: tape.grad(t) for name, t in params.items()}))
    (new_loss, new_grads), (old_loss, old_grads) = results
    assert new_loss == old_loss
    for name in params:
        assert np.array_equal(new_grads[name], old_grads[name]), name


def test_non_finite_loss_stops_training(corpus, monkeypatch):
    monkeypatch.setattr(training, "loss_from_matrix", lambda fused, alpha, mode: Tensor(np.nan))
    model = Model.new(DIMS, "dual-I", seed=1, table=corpus.dataset.embedding_table())
    config = TripletConfig(epochs=1, batch_size=4, rng_seed=5)
    with pytest.raises(training.TrainingDivergedError, match=r"epoch 0.*videos \['v"):
        training.train(corpus.dataset, corpus.manifests["train"], model, config)


@pytest.mark.parametrize("emptied", [None, 1], ids=["one video", "one of two has no sentence"])
def test_train_rejects_a_manifest_that_forms_no_batch(corpus, emptied):
    entries = corpus.manifests["train"].entries[:1 if emptied is None else 2]
    if emptied is not None:
        vid, idx, _ = entries[emptied]
        entries[emptied] = (vid, idx, ())
    model = Model.new(DIMS, "dual-I", seed=1, table=corpus.dataset.embedding_table())
    config = TripletConfig(epochs=2, batch_size=4)
    with pytest.raises(ValueError, match="1 videos with a sentence; a batch needs 2"):
        training.train(corpus.dataset, Manifest("train", entries), model, config)


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


def _named_shapes(spaces: str) -> dict[str, tuple[int, ...]]:
    """The checkpoint's key contract at ``Dims.small()`` (H 16, E 8,
    D = C_a = 16, C_g 32, A 16, G 2, C_s 32): every tensor name and shape."""
    out = {"gru.w": (3, 16, 8), "gru.u": (3, 16, 16), "gru.b": (3, 16)}
    for space in SPACE_SETS[spaces]:
        out |= {f"proj.{space}.w": (16, 16), f"proj.{space}.b": (16,)}
    out |= {"head.global.w": (16, 32), "head.global.b": (16,)}
    if SPACE_SEQUENTIAL in SPACE_SETS[spaces]:
        out |= {
            "attn.w_p": (16, 128), "attn.b_p": (16,), "attn.w_q": (16, 16), "attn.b_q": (16,),
            "attn.w_a": (4, 16), "attn.b_a": (4,),
            "lstm.w": (4, 32, 4, 16), "lstm.u": (4, 16, 16), "lstm.b": (4, 16),
        }
    out["gate.w"] = (len(SPACE_SETS[spaces]), 16)
    return out


@pytest.mark.parametrize("spaces", sorted(SPACE_SETS))
def test_named_parameters_are_the_checkpoint_contract(spaces):
    named = mvse_model.init_params(DIMS, SPACE_SETS[spaces], seed=0).named()
    assert {name: t.shape for name, t in named.items()} == _named_shapes(spaces)
    if spaces == "dual-S":
        assert len(named) == 19


def _head_tensors(params: mvse_model.ModelParams) -> list[Tensor]:
    """Every tensor the heads read, walked through the parameter groups."""
    groups = [params.gru, params.global_head, params.gate]
    if params.sequential_head is not None:
        groups += [params.sequential_head.attention, params.sequential_head.lstm]
    out = [t for group in groups if group is not None for t in vars(group).values()]
    return out + [t for pair in params.projections.values() for t in pair]


@pytest.mark.parametrize("build", ["init_params", "params_from_arrays"])
@pytest.mark.parametrize("spaces", sorted(SPACE_SETS))
def test_named_parameters_are_the_tensors_the_heads_read(spaces, build):
    """The flat map and the grouped view share their tensor objects, so a
    step through ``named()`` moves what the heads compute with."""
    params = mvse_model.init_params(DIMS, SPACE_SETS[spaces], seed=0)
    if build == "params_from_arrays":
        arrays = {name: t.data for name, t in params.named().items()}
        params = mvse_model.params_from_arrays(DIMS, SPACE_SETS[spaces], arrays)
    named = [id(t) for t in params.named().values()]
    assert len(set(named)) == len(named)
    assert sorted(named) == sorted(id(t) for t in _head_tensors(params))


# each recurrence's gate letters and the shape of its old per-gate input weights
PER_GATE = {"gru": ("zrc", (16, 8)), "lstm": ("ifgo", (16, 128))}


@pytest.mark.parametrize("prefix", list(PER_GATE))
def test_checkpoint_with_per_gate_names_is_a_container_error(prefix):
    gates, w_shape = PER_GATE[prefix]
    arrays = {name: np.zeros(shape) for name, shape in _named_shapes("dual-S").items()}
    for kind, shape in (("w", w_shape), ("u", (16, 16)), ("b", (16,))):
        del arrays[f"{prefix}.{kind}"]
        arrays |= {f"{prefix}.{kind}_{gate}": np.zeros(shape) for gate in gates}
    missing, unexpected = f"'{prefix}.w'", f"'{prefix}.w_{gates[0]}'"
    with pytest.raises(ContainerError, match=rf"missing \[.*{missing}.*\], unexpected \[.*{unexpected}"):
        mvse_model.params_from_arrays(DIMS, SPACE_SETS["dual-S"], arrays)


def test_checkpoint_tensor_of_the_wrong_shape_is_a_container_error():
    arrays = {name: np.zeros(shape) for name, shape in _named_shapes("dual-S").items()}
    arrays["lstm.u"] = np.zeros((16, 16))
    with pytest.raises(ContainerError, match=r"lstm\.u has shape \(16, 16\), expected \(4, 16, 16\)"):
        mvse_model.params_from_arrays(DIMS, SPACE_SETS["dual-S"], arrays)
    # lstm.w in the gates-first layout of version-1 checkpoints
    arrays = {name: np.zeros(shape) for name, shape in _named_shapes("dual-S").items()}
    arrays["lstm.w"] = np.zeros((4, 16, 4, 32))
    expected = r"lstm\.w has shape \(4, 16, 4, 32\), expected \(4, 32, 4, 16\)"
    with pytest.raises(ContainerError, match=expected):
        mvse_model.params_from_arrays(DIMS, SPACE_SETS["dual-S"], arrays)


def test_checkpoint_of_the_gates_first_lstm_layout_is_a_version_mismatch():
    # with G*G == 4 and C_s == H, version 1's [4, H, G*G, C_s] and the stored
    # [G*G, C_s, 4, H] are one shape, so only the version tells them apart
    dims = dataclasses.replace(DIMS, c_spatial=16)
    spaces = SPACE_SETS["dual-S"]
    arrays = {name: t.data for name, t in mvse_model.init_params(dims, spaces, seed=0).named().items()}
    arrays["lstm.w"] = arrays["lstm.w"].transpose(2, 3, 0, 1)
    mvse_model.params_from_arrays(dims, spaces, arrays)  # the shapes alone accept it
    blob = bytearray(write_checkpoint(arrays, {"spaces": "dual-S"}))
    blob[4:6] = struct.pack("<H", 1)
    with pytest.raises(VersionMismatchError, match="checkpoint version 1, expected 2"):
        read_checkpoint(bytes(blob))


def test_loading_a_checkpoint_draws_nothing(monkeypatch):
    spaces = SPACE_SETS["triple"]
    arrays = {name: t.data for name, t in mvse_model.init_params(DIMS, spaces, seed=3).named().items()}

    def no_draw(*args):
        raise AssertionError(f"params_from_arrays drew {args[0]}")

    monkeypatch.setattr(mvse_model, "_init_array", no_draw)
    loaded = mvse_model.params_from_arrays(DIMS, spaces, arrays).named()
    assert list(loaded) == list(arrays)
    for name, t in loaded.items():
        np.testing.assert_array_equal(t.data, arrays[name])
