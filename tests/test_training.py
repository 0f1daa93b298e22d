"""The shared scoring path: ``fused_similarity_matrix`` against a per-pair
reference built from the per-sentence GRU, rank-1 projections and gate, and
the per-pair sequential head; the batched GRU against the per-sentence one;
the fused recurrences against the per-op chains they replace; and the
reproducibility of ``train``."""

import collections
import dataclasses
import io
import itertools
import struct
import tracemalloc
import weakref

import numpy as np
import pytest

from mvse import fusion
from mvse import model as mvse_model
from mvse import autodiff, training, visual
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
from mvse.dataio import (
    ContainerError,
    Dataset,
    Manifest,
    ManifestError,
    VersionMismatchError,
    read_checkpoint,
    write_checkpoint,
)
from mvse.fusion import fuse, space_weights
from mvse.model import Model
from mvse.synth import SynthConfig, synth_generate
from mvse.text import GruParams, gru_encode, project_text
from mvse.visual import VideoFeature, chunk_sample, global_embed, sequential_embed

import oracle_ops
from oracle_ops import add, add_scalar, mul, scale, scale_cells, sigmoid, take
from peaks import backward_peak, untaped_peak
from shapes import EVAL_GRIDS, LSTM_GRIDS, MID_DIMS, WIDE_DIMS

DIMS = Dims.small()
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


FRAME_SEED = (5, 0)  # (run seed, epoch): the global head draws its frames at random


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


def _per_pair_sequential(video, indices, phi, at, lstm):
    """The sequential head of one (video, sentence) pair, unfactored: per
    frame, attention over the grid (``at``), then an LSTM step on the
    flattened attended grid."""
    hidden = lstm.b.shape[1]
    h = Tensor(np.zeros(hidden))
    c = Tensor(np.zeros(hidden))
    for idx in indices:
        grid = Tensor(video.grid_frames[idx])
        g1, g2, _ = grid.shape
        p = tanh(add(matvec(at.w_p, reshape(grid, (grid.data.size,))), at.b_p))
        q = tanh(add(matvec(at.w_q, phi), at.b_q))
        logits = tanh(add(matvec(at.w_a, add(p, q)), at.b_a))
        attended = scale_cells(grid, reshape(softmax(logits), (g1, g2)))
        x = reshape(attended, (attended.data.size,))

        def gate(n):
            # gate n's blocks of the stacked parameters, w as [G*G*C_s, H]
            w = reshape(take(lstm.w, n, axis=2), (x.data.size, hidden))
            return add(add(einsum("fh,f->h", w, x), matvec(take(lstm.u, n), h)), take(lstm.b, n))

        i, f, g, o = sigmoid(gate(0)), sigmoid(gate(1)), tanh(gate(2)), sigmoid(gate(3))
        c = add(mul(f, c), mul(i, g))
        h = mul(o, tanh(c))
    return h


def _one_row(t: Tensor | np.ndarray) -> Tensor | np.ndarray:
    """``t`` as one row: a tensor, or an ndarray for a constant ndarray (the "average" weights)."""
    return reshape(t, (1, t.data.size)) if isinstance(t, Tensor) else t.reshape(1, -1)


def _reference_grid(model, videos, sentences, fuse_mode, frame_seed):
    """The grid built pair by pair: each sentence through the per-sentence
    GRU, its projections and gate weights as rank-1 tensors, each video's
    static embeddings on their own, the sequential head per pair, and a
    1 x 1 cosine and fusion per pair."""
    n, p = model.dims.n_chunks, model.params
    phis = [_per_sentence_gru(s, model.table, p.gru) for s in sentences]
    grid = []
    for video in videos:
        rng = mvse_model.frame_rng(*frame_seed, video.video_id)
        idx_global = chunk_sample(video.n_frames, n, rng)
        idx_seq = chunk_sample(video.n_frames, n)
        statics = {}
        if SPACE_GLOBAL in model.spaces:
            pooled = Tensor(video.global_frames[idx_global].astype(np.float64).mean(axis=0))
            w, b = p.global_head
            statics[SPACE_GLOBAL] = add(matvec(w, pooled), b)
        if SPACE_ACTION in model.spaces:
            statics[SPACE_ACTION] = Tensor(video.action_vec)
        row = []
        for phi in phis:
            sims = []
            for space in model.spaces:
                if space == SPACE_SEQUENTIAL:
                    f = _per_pair_sequential(video, idx_seq, phi, p.attention, p.lstm)
                else:
                    f = statics[space]
                g = project_text(phi, *p.projections[space])
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
                model, list(videos), list(sentences), fuse_mode, FRAME_SEED
            ),
            model, negative_mode,
        )
        ref_values, ref_grads = _grid_and_grads(
            lambda: _reference_grid(model, videos, sentences, fuse_mode, FRAME_SEED),
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


def test_sequential_embed_runs_once_with_a_grid_independent_tape(corpus, monkeypatch):
    model = Model.new(DIMS, "triple", seed=1, table=corpus.dataset.embedding_table())
    calls = []

    def spy(videos, indices, phis, attention, lstm):
        tape = active_tape()
        before = len(tape)
        out = sequential_embed(videos, indices, phis, attention, lstm)
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
    lstm = mvse_model.init_params(dims, ("global", "sequential"), seed=4).lstm
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


def test_lstm_grids_have_fewer_and_not_fewer_cells_than_sentences():
    assert {dims.grid_cells < n_q for dims, _, n_q in LSTM_GRIDS.values()} == {True, False}


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


EPS = np.finfo(np.float64).eps
ODD_HIDDEN = [1, 3, 5, 16, 17, 33, 64]
ODD_CELLS = [1, 4, 9, 16]


def _odd_lstm_inputs(cells, n_h):
    """Small and odd V, Q and T at ``cells`` grid cells and hidden size
    ``n_h``: (V, Q, T, a generator seeded by all five, the recurrence's
    inputs)."""
    bound = n_h ** -0.5  # u and b as the model inits them, uniform within 1/sqrt(H)
    for n_v, n_q, n_t in itertools.product([1, 2, 3, 8], [1, 2, 3, 16], [1, 3]):
        rng = np.random.default_rng([cells, n_h, n_v, n_q, n_t])
        inputs = [
            Tensor(rng.normal(size=(cells, n_v, n_t, 4, n_h))),
            Tensor(rng.dirichlet(np.ones(cells), size=(n_v, n_q, n_t))),
            Tensor(rng.uniform(-bound, bound, size=(4, n_h, n_h))),
            Tensor(rng.uniform(-bound, bound, size=(4, n_h))),
        ]
        yield n_v, n_q, n_t, rng, inputs


@pytest.mark.parametrize("taped", [True, False], ids=["taped", "untaped"])
@pytest.mark.parametrize("n_h", ODD_HIDDEN)
@pytest.mark.parametrize("cells", ODD_CELLS)
def test_hidden_major_recurrence_is_within_8_eps_of_the_materialized_one(cells, n_h, taped):
    """Over small and odd lengths the recurrence's GEMMs may round in
    another order than the materialized recurrence's (the input-term
    product as [4H, G*G] by [G*G, Q], the backward's ``u.T @ d``), so the
    forward and every gradient are held to 8·eps times the largest
    magnitude of the oracle's array, not to its bytes."""
    runs = [lstm_recurrence, _materialized_lstm(oracle_ops.lstm_recurrence)]
    for n_v, n_q, n_t, rng, inputs in _odd_lstm_inputs(cells, n_h):
        weights = rng.normal(size=(n_v, n_q, n_h))
        if taped:
            arrays = [[out, *grads] for out, grads in (_values_and_grads(run, inputs, weights) for run in runs)]
        else:
            with no_tape():
                arrays = [[run(*inputs).data] for run in runs]
        for name, new, ref in zip(["out", "k", "amap", "u", "b"], *arrays):
            assert new.shape == ref.shape
            assert np.max(np.abs(new - ref)) <= 8 * EPS * np.max(np.abs(ref)), (name, n_v, n_q, n_t)


def _hardest_picks(rng, n_v, n_q):
    """The pairs hardest mode reads on a [V, Q] grid of random scores: the
    diagonal and each row's and each column's argmax."""
    scores = rng.normal(size=(n_v, n_q))
    picked = np.eye(n_v, n_q, dtype=bool)
    picked[np.arange(n_v), scores.argmax(axis=1)] = True
    picked[scores.argmax(axis=0), np.arange(n_q)] = True
    return picked


@pytest.mark.parametrize("grid", list(LSTM_GRIDS))
def test_backward_over_the_picked_pairs_gives_the_materialized_bytes(grid):
    """With an output gradient only on a hardest-mode pick set, the
    backward runs through time over the picked pairs only and scatters
    their input-term gradients among zeros, so every gradient keeps the
    bytes of the oracle's backward over every pair. (On the one-video and
    one-sentence grids every pair is picked.)"""
    dims, n_v, n_q = LSTM_GRIDS[grid]
    rng = np.random.default_rng(n_v * 100 + n_q)
    inputs = _lstm_inputs(rng, dims, n_v, n_q)
    picked = _hardest_picks(rng, n_v, n_q)
    weights = rng.normal(size=(n_v, n_q, dims.hidden)) * picked[:, :, None]
    runs = [lstm_recurrence, _materialized_lstm(oracle_ops.lstm_recurrence)]
    (out, grads), (ref, ref_grads) = (_values_and_grads(run, inputs, weights) for run in runs)
    assert [g.shape for g in grads] == [t.shape for t in inputs]
    assert [a.tobytes() for a in [out, *grads]] == [a.tobytes() for a in [ref, *ref_grads]]


def _oracle_arrays_and_term_scales(inputs, weights):
    """The materialized oracle's output and gradients, and for each the sum
    of the absolute values of the terms it adds up: the output's own
    magnitude, and each gradient's contraction of the absolute input-term
    gradient |dx| with the absolute other operand (|h| < 1 for ``u``)."""
    with Tape() as tape:
        x = einsum("nvtgj,vqtn->vtqgj", inputs[0], inputs[1])
        out = oracle_ops.lstm_recurrence(x, *inputs[2:])
        tape.backward(einsum("vqh,vqh->", out, weights))
        arrays = [out.data] + [tape.grad(t) for t in inputs]
        dx = np.abs(tape.grad(x))
    rows = dx.sum(axis=(0, 1, 2))  # [4, H]
    scales = [
        np.abs(out.data),
        np.einsum("vqtn,vtqgj->nvtgj", np.abs(inputs[1].data), dx),
        np.einsum("nvtgj,vtqgj->vqtn", np.abs(inputs[0].data), dx),
        rows,
        rows,
    ]
    return arrays, scales


@pytest.mark.parametrize("n_h", ODD_HIDDEN)
@pytest.mark.parametrize("cells", ODD_CELLS)
def test_backward_over_any_live_pairs_is_within_8_eps_of_the_materialized_one(cells, n_h):
    """From no live pair to every pair. With fewer columns ``u.T @ d`` may
    round otherwise (with one column numpy takes a matrix-vector product),
    and with the gradient on a few pairs the sums over steps and pairs
    cancel, so each array is held to 8·eps times the largest sum of the
    absolute terms it adds up (the error bound of a sum), not of its own
    magnitude. At H = 1 the ``u`` gradient differs from the oracle's by 17·eps
    of the oracle's magnitude, as it did when the backward ran over every
    pair; against the sums of terms the sweep stays within 3·eps."""
    for n_v, n_q, n_t, rng, inputs in _odd_lstm_inputs(cells, n_h):
        n_vq = n_v * n_q
        for n_live in sorted({n for n in (0, 1, 2, n_vq // 3, n_vq - 1, n_vq) if n <= n_vq}):
            live = np.zeros(n_vq, dtype=bool)
            live[rng.choice(n_vq, size=n_live, replace=False)] = True
            weights = rng.normal(size=(n_v, n_q, n_h)) * live.reshape(n_v, n_q, 1)
            out, grads = _values_and_grads(lstm_recurrence, inputs, weights)
            refs, scales = _oracle_arrays_and_term_scales(inputs, weights)
            for name, new, ref, scale in zip(["out", "k", "amap", "u", "b"], [out, *grads], refs, scales):
                assert new.shape == ref.shape
                where = (name, n_v, n_q, n_t, n_live)
                assert np.max(np.abs(new - ref)) <= 8 * EPS * np.max(scale), where


@pytest.mark.parametrize("grid", ["seq-train-batch", "one-video", "one-sentence"])
def test_no_live_pair_gives_zero_gradients_of_the_input_shapes(grid):
    dims, n_v, n_q = LSTM_GRIDS[grid]
    inputs = _lstm_inputs(np.random.default_rng(0), dims, n_v, n_q)
    _, grads = _values_and_grads(lstm_recurrence, inputs, np.zeros((n_v, n_q, dims.hidden)))
    assert [g.shape for g in grads] == [t.shape for t in inputs]
    assert all(not g.any() for g in grads)


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
        return sum(rule is not None for rule in tape._rules)

    gru = [op_nodes(lambda: gru_encode([[1] * n, [2] * n], table, p.gru)) for n in (3, 15)]
    seq = [
        op_nodes(lambda: sequential_embed([video], [list(range(n))], phis, p.attention, p.lstm)) for n in (2, 8)
    ]
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
            grid = training.fused_similarity_matrix(model, videos, sentences, "weighted", FRAME_SEED)
            scores.append(grid.scores.data.tobytes())
    assert scores[0] == scores[1]


@pytest.mark.parametrize("workload", list(EVAL_GRIDS))
def test_untaped_scores_of_a_blocked_gallery_are_the_taped_scores_bit_for_bit(workload):
    """Without a tape the sequential head scores the gallery a block of
    videos at a time, and under one in a single block; over a gallery of
    three blocks and a 1-video tail, at an eval grid's sentence count, the
    scores must not change by a bit."""
    dims, _, n_q = EVAL_GRIDS[workload]
    block = visual.scan_block(n_q, dims.n_chunks, dims.grid_cells, dims.c_spatial, dims.hidden)
    corpus = _corpus(n_videos=3 * block + 1, dims=dims)
    model = Model.new(dims, "triple", seed=1, table=corpus.dataset.embedding_table())
    videos, _ = _all_pairs(corpus)
    sentences = corpus.dataset.sentences[:n_q]
    assert len(sentences) == n_q and len(visual.video_blocks(len(videos), block)) == 3
    scores = []
    for context in (no_tape, Tape):
        with context():
            grid = training.fused_similarity_matrix(model, videos, sentences, "weighted", FRAME_SEED)
            scores.append(grid.scores.data.tobytes())
    assert scores[0] == scores[1]


def _widened(video: VideoFeature) -> VideoFeature:
    return VideoFeature(
        video.video_id, video.global_frames.astype(np.float64),
        video.grid_frames.astype(np.float64), video.action_vec.astype(np.float64),
    )


@pytest.mark.parametrize("dims", [DIMS, MID_DIMS], ids=["small", "mid"])
def test_float32_features_give_the_bytes_of_their_float64_widening(dims):
    """A Dataset holds its features and token table at float32, and the
    heads widen the frames and token rows they read; f4 -> f8 is exact, so
    scores and every parameter gradient, taped or not, are the bytes that
    float64 features and a float64 table give."""
    corpus = _corpus(dims=dims)
    table = corpus.dataset.embedding_table()
    params = Model.new(dims, "triple", seed=1, table=table).params
    videos, sentences = _all_pairs(corpus)
    assert {v.grid_frames.dtype for v in videos} | {table.dtype} == {np.dtype(np.float32)}
    outputs = []
    for batch, tokens in ((videos, table), ([_widened(v) for v in videos], table.astype(np.float64))):
        model = Model(params, tokens)
        with no_tape():
            plain = training.fused_similarity_matrix(model, batch, sentences, "weighted", FRAME_SEED)
        with Tape() as tape:
            grid = training.fused_similarity_matrix(model, batch, sentences, "weighted", FRAME_SEED)
            tape.backward(training.loss_from_matrix(grid, 0.2, "sum-all"))
            grads = {name: tape.grad(t).tobytes() for name, t in model.params.named().items()}
        outputs.append((plain.scores.data.tobytes(), grid.scores.data.tobytes(), grads))
    assert outputs[0] == outputs[1]


def test_a_model_holds_the_corpus_token_table_itself(corpus):
    # the float32 table is read in place, as the frames are: no model copy
    ds = corpus.dataset
    model = Model.new(DIMS, "triple", seed=1, table=ds.embedding_table())
    assert model.table is ds.embedding_vectors


def test_grid_is_videos_by_sentences(corpus):
    model = Model.new(DIMS, "triple", seed=1, table=corpus.dataset.embedding_table())
    videos, sentences = zip(*_batch(corpus, k=3))
    grid = training.fused_similarity_matrix(model, list(videos), list(sentences[:2]))
    assert len(grid) == 3 and all(len(row) == 2 for row in grid)


def _gradient_cases():
    """One tensor from each parameter group the space set has, and every
    tensor whose gradient comes from the LSTM's input-term gradient, for
    both negative modes."""
    for spaces, names in SPACE_SETS.items():
        groups = ["gru.w", f"proj.{names[-1]}.w", "head.global.w", "gate.w"]
        if SPACE_SEQUENTIAL in names:
            groups += ["attn.w_q", "attn.w_p", "lstm.w", "lstm.u", "lstm.b"]
        for mode in ("sum-all", "hardest"):
            for tensor in groups:
                yield spaces, mode, tensor


@pytest.mark.parametrize("spaces,negative_mode,tensor", list(_gradient_cases()))
def test_batch_loss_gradient_per_parameter_group(corpus, spaces, negative_mode, tensor):
    model = Model.new(DIMS, spaces, seed=2, table=corpus.dataset.embedding_table())
    batch = _batch(corpus)
    config = TripletConfig(negative_mode=negative_mode, rng_seed=5)

    def loss(_):
        return training.batch_loss(batch, model, config, "weighted", epoch=0)

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

    def spy_global(videos, indices, w, b):
        frames["global"] += [(epoch[0], v.video_id, tuple(idx)) for v, idx in zip(videos, indices)]
        return global_embed(videos, indices, w, b)

    def spy_sequential(videos, indices, phis, attention, lstm):
        frames["sequential"] += [(v.video_id, tuple(idx)) for v, idx in zip(videos, indices)]
        return sequential_embed(videos, indices, phis, attention, lstm)

    monkeypatch.setattr(mvse_model, "global_embed", spy_global)
    monkeypatch.setattr(mvse_model, "sequential_embed", spy_sequential)
    model = Model.new(DIMS, "triple", seed=4, table=corpus.dataset.embedding_table())
    config = TripletConfig(epochs=2, batch_size=4, learning_rate=0.05, rng_seed=5)

    def log_fn(e, _loss):
        epoch[0] = e + 1

    loss_log = training.train(
        corpus.dataset, corpus.manifests["train"], model, config, "weighted", log_fn
    )
    params = {name: t.data.copy() for name, t in model.params.named().items()}
    return loss_log, params, frames


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
        expected = chunk_sample(N_FRAMES, DIMS.n_chunks, mvse_model.frame_rng(5, epoch, vid))
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
        loss_log = training.train(corpus.dataset, corpus.manifests["train"], model, config)
        return loss_log, {name: t.data.tobytes() for name, t in model.params.named().items()}

    uncopied = one_epoch()
    sgd_step = training.sgd_step
    copied = []

    def contiguous(param, g, lr):
        copied.append(g.flags.c_contiguous)
        sgd_step(param, np.ascontiguousarray(g), lr)

    monkeypatch.setattr(training, "sgd_step", contiguous)
    assert one_epoch() == uncopied
    assert not all(copied)  # some gradient is a view


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
    for name, t in params.items():
        training.sgd_step(t, grads[name], 0.05)
    assert {name: t.data.tobytes() for name, t in params.items()} == {
        name: e.tobytes() for name, e in expected.items()
    }


def test_sgd_step_holds_no_parameter_sized_temporary():
    # an 8 MB parameter: lr * g whole would be another 8 MB; in blocks the
    # step's peak is one block and the few views that index it
    rng = np.random.default_rng(22)
    param, g = Tensor(rng.normal(size=(1024, 1024))), rng.normal(size=(1024, 1024))
    peak = untaped_peak(lambda: training.sgd_step(param, g, 0.05))
    assert peak <= training._SGD_BLOCK_BYTES + 16_384


def test_a_steps_gradients_are_dead_when_the_next_backward_starts(monkeypatch):
    """``train`` steps each parameter during the sweep, with a gradient that
    only the ``sgd_step`` call holds: when the sweep hands over a gradient,
    the ones it handed over before are dead, and when the sweep ends all of
    them are, so the next step's forward and backward start with none.
    Steps are marked where ``train`` calls ``batch_loss``."""
    corpus = _corpus(n_videos=16)
    model = Model.new(DIMS, "dual-S", seed=4, table=corpus.dataset.embedding_table())
    config = TripletConfig(epochs=1, batch_size=4, learning_rate=0.05, rng_seed=5)
    stepped = []  # per step, weakrefs to the gradient arrays sgd_step got
    alive_in_sweep = []  # per hand-off, how many of the step's earlier ones are alive
    at_end = []  # per backward when it returns: its step's hand-offs, and how many are alive
    sgd_step, batch_loss, backward = training.sgd_step, training.batch_loss, Tape.backward

    def spy_loss(*args):
        stepped.append([])
        return batch_loss(*args)

    def spy_sgd(param, g, lr):
        alive_in_sweep.append(sum(ref() is not None for ref in stepped[-1]))
        stepped[-1].append(weakref.ref(g))
        sgd_step(param, g, lr)

    def spy_backward(tape, loss):
        grads = backward(tape, loss)
        at_end.append((len(stepped[-1]), sum(ref() is not None for ref in stepped[-1])))
        return grads

    monkeypatch.setattr(training, "batch_loss", spy_loss)
    monkeypatch.setattr(training, "sgd_step", spy_sgd)
    monkeypatch.setattr(Tape, "backward", spy_backward)
    training.train(corpus.dataset, corpus.manifests["train"], model, config)
    assert at_end == [(len(model.params.tensors), 0)] * 2
    assert alive_in_sweep == [0] * 2 * len(model.params.tensors)


@pytest.mark.parametrize("negative_mode", ["sum-all", "hardest"])
@pytest.mark.parametrize("fuse_mode", ["weighted", "average"])
@pytest.mark.parametrize("spaces", ["dual-I", "dual-S", "triple"])
def test_every_leaf_a_training_step_hands_over_is_a_parameter(spaces, fuse_mode, negative_mode, monkeypatch):
    """The pooled frames, the action vectors and the "average" weights enter
    their ops as ndarrays, so the tape of a ``train`` step hands its update
    callable parameters only, each once."""
    corpus = _corpus()
    model = Model.new(DIMS, spaces, seed=4, table=corpus.dataset.embedding_table())
    names = {id(t): name for name, t in model.params.named().items()}
    handed, strays = [], []

    class SpyTape(Tape):
        def __init__(self, update):
            def spy(leaf, g):
                if id(leaf) in names:
                    handed.append(names[id(leaf)])
                else:
                    strays.append(leaf.shape)
                update(leaf, g)

            super().__init__(spy)

    monkeypatch.setattr(training, "Tape", SpyTape)
    config = TripletConfig(
        negative_mode=negative_mode, epochs=1, batch_size=4, learning_rate=0.05, rng_seed=5
    )
    training.train(corpus.dataset, corpus.manifests["train"], model, config, fuse_mode)
    assert strays == []
    assert handed and len(handed) == len(set(handed))


def _two_phase_step(model, batch_args, lr):
    """The SGD step as two phases: the whole sweep on a tape without an
    update, then ``sgd_step`` on every parameter with its gradient, zeros
    where the loss does not reach. Returns the parameters the loss reached."""
    params = model.params.named()
    batch, _, config, fuse_mode, epoch = batch_args
    with Tape() as tape:
        tape.backward(training.batch_loss(batch, model, config, fuse_mode, epoch))
    grads = {name: tape.grad(t) for name, t in params.items()}
    for name, t in params.items():
        training.sgd_step(t, grads[name], lr)
    return {name for name, t in params.items() if tape._leaf_ids.get(id(t)) in tape.gradients}


@pytest.mark.parametrize("fuse_mode", ["weighted", "average"])
@pytest.mark.parametrize("negative_mode", ["sum-all", "hardest"])
@pytest.mark.parametrize("spaces", ["single", "dual-S", "triple"])
def test_a_train_step_gives_the_bytes_of_the_two_phase_step(
    spaces, negative_mode, fuse_mode, monkeypatch
):
    """One ``train`` step steps each parameter during the sweep, and leaves
    every parameter with the bytes of the whole sweep followed by one
    ``sgd_step``. The update gets each reached parameter once, ``lstm.w``
    while ``attn.w_p`` has no gradient yet, and under ``average`` fusion
    ``gate.w``, which the loss does not reach, is never handed over."""
    corpus = _corpus()
    config = TripletConfig(
        negative_mode=negative_mode, epochs=1, batch_size=4, learning_rate=0.05, rng_seed=5
    )
    model = Model.new(DIMS, spaces, seed=4, table=corpus.dataset.embedding_table())
    reference = Model.new(DIMS, spaces, seed=4, table=corpus.dataset.embedding_table())
    initial = {name: t.data.tobytes() for name, t in model.params.named().items()}
    params = model.params.named()
    names = {id(t): name for name, t in params.items()}
    calls, batches, sweeping = [], [], []
    sgd_step, batch_loss, backward = training.sgd_step, training.batch_loss, Tape.backward

    def spy_loss(*args):
        batches.append(args)
        return batch_loss(*args)

    def spy_backward(tape, loss):
        sweeping.append(tape)
        return backward(tape, loss)

    def spy_sgd(param, g, lr):
        calls.append(names[id(param)])
        if calls[-1] == "lstm.w":
            tape = sweeping[-1]
            assert tape._leaf_ids[id(params["attn.w_p"])] not in tape.gradients
        sgd_step(param, g, lr)

    monkeypatch.setattr(training, "batch_loss", spy_loss)
    monkeypatch.setattr(Tape, "backward", spy_backward)
    monkeypatch.setattr(training, "sgd_step", spy_sgd)
    training.train(corpus.dataset, corpus.manifests["train"], model, config, fuse_mode)
    monkeypatch.undo()

    assert len(batches) == 1
    reached = _two_phase_step(reference, batches[0], config.learning_rate)
    assert sorted(calls) == sorted(reached)
    if SPACE_SEQUENTIAL in SPACE_SETS[spaces]:
        assert calls.index("lstm.w") < calls.index("attn.w_p")
    if fuse_mode == "average":
        assert "gate.w" not in reached
        assert model.params.tensors["gate.w"].data.tobytes() == initial["gate.w"]
    assert {name: t.data.tobytes() for name, t in model.params.named().items()} == {
        name: t.data.tobytes() for name, t in reference.params.named().items()
    }
    assert any(model.params.tensors[name].data.tobytes() != initial[name] for name in reached)


def test_train_at_learning_rate_0_reads_no_gradient(corpus, monkeypatch):
    def no_grad(tape, t):
        raise AssertionError("a gradient was read at learning rate 0")

    monkeypatch.setattr(Tape, "grad", no_grad)
    model = Model.new(DIMS, "dual-S", seed=4, table=corpus.dataset.embedding_table())
    before = {name: t.data.copy() for name, t in model.params.named().items()}
    config = TripletConfig(epochs=1, batch_size=4, learning_rate=0.0, rng_seed=5)
    training.train(corpus.dataset, corpus.manifests["train"], model, config)
    for name, t in model.params.named().items():
        assert t.data.tobytes() == before[name].tobytes(), name


@pytest.mark.parametrize("n_frames", [N_FRAMES, DIMS.n_chunks], ids=["F>N", "F==N"])
def test_train_builds_frame_generators_only_when_a_chunk_can_draw(n_frames, monkeypatch):
    corpus = _corpus(n_videos=16, n_frames=n_frames)
    built = []
    frame_rng = mvse_model.frame_rng

    def spy(seed, epoch, video_id):
        built.append((epoch, video_id))
        return frame_rng(seed, epoch, video_id)

    monkeypatch.setattr(mvse_model, "frame_rng", spy)
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


def test_frame_generators_change_nothing_when_no_chunk_can_draw(monkeypatch):
    corpus = _corpus(n_frames=DIMS.n_chunks)
    model = Model.new(DIMS, "triple", seed=2, table=corpus.dataset.embedding_table())
    batch = _batch(corpus)
    params = model.params.named()
    config = TripletConfig(rng_seed=5)
    built = []
    monkeypatch.setattr(mvse_model, "frame_rng", lambda *args: built.append(args))
    results = []
    for epoch in (0, None):
        with Tape() as tape:
            loss = training.batch_loss(batch, model, config, "weighted", epoch)
            tape.backward(loss)
            results.append((loss.data.tobytes(), {name: tape.grad(t) for name, t in params.items()}))
    assert built == []
    (with_loss, with_grads), (without_loss, without_grads) = results
    assert with_loss == without_loss
    for name in params:
        assert with_grads[name].tobytes() == without_grads[name].tobytes(), name


def test_train_forms_each_entrys_video_feature_once_per_call(corpus, monkeypatch):
    formed = []
    video_feature = Dataset.video_feature

    def spy(self, index, video_id):
        formed.append(video_id)
        return video_feature(self, index, video_id)

    monkeypatch.setattr(Dataset, "video_feature", spy)
    manifest = corpus.manifests["train"]
    model = Model.new(DIMS, "dual-I", seed=4, table=corpus.dataset.embedding_table())
    config = TripletConfig(epochs=3, batch_size=2, learning_rate=0.05, rng_seed=5)
    training.train(corpus.dataset, manifest, model, config)
    assert formed == [vid for vid, _, _ in manifest.entries]


def test_an_epochs_sentence_draws_are_one_scalar_draw_per_video(monkeypatch):
    corpus = _corpus(n_videos=16)
    ds = corpus.dataset
    # sentence counts 0-4, so a shuffled video may draw nothing or from up to 4
    videos = corpus.manifests["train"].entries + corpus.manifests["test"].entries
    entries = [
        (vid, idx, tuple((3 * k + j) % len(ds.sentences) for j in range(k % 5)))
        for k, (vid, idx, _) in enumerate(videos)
    ]
    fed, batch_loss = [], training.batch_loss

    def spy(batch, model, config, fuse_mode, epoch):
        fed.extend((epoch, video.video_id, sentence) for video, sentence in batch)
        return batch_loss(batch, model, config, fuse_mode, epoch)

    monkeypatch.setattr(training, "batch_loss", spy)
    model = Model.new(DIMS, "dual-I", seed=4, table=ds.embedding_table())
    config = TripletConfig(epochs=3, batch_size=4, learning_rate=0.0, rng_seed=5)
    training.train(ds, Manifest("train", entries), model, config)

    expected = []
    for epoch in range(config.epochs):
        rng = np.random.default_rng(np.random.SeedSequence([training._SHUFFLE_SALT, 5, epoch]))
        for e in rng.permutation(len(entries)):
            vid, _, sents = entries[e]
            if sents:
                expected.append((epoch, vid, ds.sentences[sents[int(rng.integers(len(sents)))]]))
    assert len(expected) == 3 * 12  # 12 videos with a sentence: three whole batches an epoch
    assert fed == expected


@pytest.mark.parametrize("frame_seed", [None, (5, 1)], ids=["first frames", "drawn"])
def test_video_embeddings_pick_first_frames_once_per_frame_count(corpus, frame_seed, monkeypatch):
    ds = corpus.dataset
    counts = [N_FRAMES, 5, N_FRAMES, 3, 5, N_FRAMES]
    videos = [
        VideoFeature(f"v{i}", ds.global_frames[i, :f], ds.grid_frames[i, :f], ds.action_vecs[i])
        for i, f in enumerate(counts)
    ]
    picked, given = [], {}

    def spy_sample(n_frames, n_chunks, rng=None):
        if rng is None:
            picked.append(n_frames)
        return chunk_sample(n_frames, n_chunks, rng)

    def spy_sequential(videos, indices, phis, attention, lstm):
        given["sequential"] = [list(idx) for idx in indices]
        return sequential_embed(videos, indices, phis, attention, lstm)

    monkeypatch.setattr(mvse_model, "chunk_sample", spy_sample)
    monkeypatch.setattr(mvse_model, "sequential_embed", spy_sequential)
    model = Model.new(DIMS, "triple", seed=4, table=ds.embedding_table())
    phis = model.encode_sentences([ds.sentences[0], ds.sentences[1]])
    for _ in range(2):
        picked.clear()
        model.video_embeddings(videos, phis, frame_seed)
        assert sorted(picked) == sorted(set(counts))
    assert given["sequential"] == [chunk_sample(f, DIMS.n_chunks) for f in counts]


# the loss log of triple models trained on 7-frame videos (more frames than
# chunks, so the global head draws from frame_rng), in batches of 3 and a
# tail of 2, recorded when every batch formed its own video features, first
# frames and sum-all picks
FRAME_RNG_LOSS_HEX = {
    "sum-all": ["0x1.729c3286d45b2p-1", "0x1.104041cfd2ed6p-1", "0x1.2323b711a7397p-2"],
    "hardest": ["0x1.cf5fe3b21180cp-2", "0x1.8332163926cd0p-2", "0x1.2afa393958cbcp-2"],
}


@pytest.mark.parametrize("mode", list(FRAME_RNG_LOSS_HEX))
def test_a_run_that_draws_frames_keeps_its_loss_bytes(mode):
    corpus = _corpus(n_videos=16)
    assert N_FRAMES > DIMS.n_chunks
    model = Model.new(DIMS, "triple", seed=4, table=corpus.dataset.embedding_table())
    config = TripletConfig(negative_mode=mode, epochs=3, batch_size=3, learning_rate=0.05, rng_seed=5)
    log = training.train(corpus.dataset, corpus.manifests["train"], model, config)
    assert [loss.hex() for _, loss in log] == FRAME_RNG_LOSS_HEX[mode]


def _per_batch_sum_all_picks(b):
    """Sum-all's (negatives, positives) as every batch once formed them."""
    anchor, other = np.nonzero(~np.eye(b, dtype=bool))
    negatives = np.array([anchor, other]).T.ravel(), np.array([other, anchor]).T.ravel()
    diagonal = np.repeat(anchor, 2)
    return negatives, (diagonal, diagonal)


@pytest.mark.parametrize("b", range(2, 10))
def test_sum_all_picks_give_the_bytes_of_the_per_batch_construction(b, monkeypatch):
    values = np.random.default_rng(b).uniform(-0.3, 0.3, size=(b, b))
    picks = []

    def spy(scores, hinge_picks, margin):
        picks.append(hinge_picks)
        return autodiff.hinge_sum(scores, hinge_picks, margin)

    monkeypatch.setattr(training, "hinge_sum", spy)
    results = []
    for loss_of in (
        lambda s: training.loss_from_matrix(training.ScoreGrid(s), 0.2, "sum-all"),
        lambda s: autodiff.hinge_sum(s, autodiff.HingePicks((b, b), *_per_batch_sum_all_picks(b)), 0.2),
        lambda s: training.loss_from_matrix(training.ScoreGrid(s), 0.2, "sum-all"),
    ):
        scores = Tensor(values)
        with Tape() as tape:
            loss = loss_of(scores)
            tape.backward(loss)
        results.append((loss.data.tobytes(), tape.grad(scores).tobytes()))
    assert results[0] == results[1] == results[2]
    first, again = picks
    assert first is again and first.shape == (b, b)
    with pytest.raises(ValueError, match="read-only"):
        first.flat[0, 0] = 0


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


@pytest.mark.parametrize("mode", ["sum-all", "hardest"])
def test_hinge_grid_gradient_has_the_add_at_scatter_bytes(mode, monkeypatch):
    """The loss's grid gradient, on ``loss_from_matrix``'s own picks over a
    B = 8 grid with tied scores and a -0.0 entry, equals the ``np.add.at``
    scatter of the hinge terms byte for byte, under an output gradient of
    0.1, so each entry's sum is of 0.1s, not of ones."""
    values = np.round(np.random.default_rng(8).uniform(-0.2, 0.2, size=(8, 8)), 1)  # five levels
    values[0, 1] = values[5, 5] = -0.0
    picks = []

    def spy(scores, hinge_picks, margin):
        picks.append((hinge_picks, margin))
        return autodiff.hinge_sum(scores, hinge_picks, margin)

    monkeypatch.setattr(training, "hinge_sum", spy)
    grid = Tensor(values)
    with Tape() as tape:
        tape.backward(scale(training.loss_from_matrix(training.ScoreGrid(grid), 0.2, mode), 0.1))
    (hinge_picks, margin), = picks
    rows, cols = np.unravel_index(hinge_picks.flat, hinge_picks.shape)
    negatives, positives = (rows[0], cols[0]), (rows[1], cols[1])
    expected = oracle_ops.hinge_grid_grad(values, negatives, positives, margin, 0.1)
    assert np.count_nonzero(expected) > 8
    assert tape.grad(grid).tobytes() == expected.tobytes()


def test_score_grid_reads_as_rows_of_scalars():
    # the reads retrieval and the benchmark make: len, len(row), .item(), row assignment
    scores = Tensor(np.random.default_rng(4).normal(size=(3, 5)))
    grid = training.ScoreGrid(scores)
    assert grid.scores is scores
    assert len(grid) == 3 and all(len(row) == 5 for row in grid)
    assert np.array([[t.item() for t in row] for row in grid]).tobytes() == scores.data.tobytes()
    grid[0][1] = Tensor(float("nan"))
    assert np.isnan(grid[0][1].item()) and grid[0][2].item() == scores.data[0, 2]


# the measured tracemalloc peak of a taped seq-train batch's backward above
# the memory its forward holds (1,105,160 bytes with numpy 2.4 on Linux),
# and the slack allowed above it: well under the 3.4 MB that forming k's
# gradient while k and the LSTM's saved gates and states are alive adds
SEQ_TRAIN_BACKWARD_PEAK = 1_110_000
SEQ_TRAIN_BACKWARD_SLACK = 256 * 1024


def test_seq_train_batch_backward_peak_stays_within_its_pin():
    """At seq-train's batch shape (mid dims, B = 8, dual-S, hardest) the
    backward peaks inside the LSTM node's rule: its row-layout input-term
    gradient and k's gradient, which the rule allocates once it has let go
    of k and the saved gates and states. The sweep frees each rule's saved
    state once it has run, so no later node adds to that."""
    dims, n_v, n_q = LSTM_GRIDS["seq-train-batch"]
    corpus = _corpus(n_videos=2 * n_v, dims=dims, n_frames=dims.n_chunks)
    model = Model.new(dims, "dual-S", seed=1, table=corpus.dataset.embedding_table())
    videos, sentences = _all_pairs(corpus)
    batch = list(zip(videos[:n_v], sentences[:n_q]))
    peak = backward_peak(lambda: training.batch_loss(batch, model, TripletConfig()))
    assert peak <= SEQ_TRAIN_BACKWARD_PEAK + SEQ_TRAIN_BACKWARD_SLACK, peak


# a training step's tracemalloc peak at WIDE_DIMS (dual-S, hardest, B = 4;
# 117 MB of parameters), from the start of its forward to the start of the
# next one's: lstm.w's 102.8 MB gradient and the interior gradients and
# forward state alive with it (111.73 MB in every step, numpy 2.4 on Linux),
# and the slack allowed above it. Holding every parameter's gradient to the
# end of the sweep peaked at 123.05 / 127.98 / 127.99 MB: attn.w_p's 12.8 MB
# gradient formed while lstm.w's was alive.
WIDE_STEP_PEAK = 111_740_000
WIDE_STEP_SLACK = 4 << 20


def test_later_training_steps_peak_like_the_first(monkeypatch):
    corpus = synth_generate(SynthConfig(
        dims=WIDE_DIMS, n_videos=16, sentences_per_video=1, rho=(0.5, 0.5, 0.0),
        seed=3, train_fraction=0.75, n_frames=WIDE_DIMS.n_chunks,
    ))
    model = Model.new(WIDE_DIMS, "dual-S", seed=1, table=corpus.dataset.embedding_table())
    config = TripletConfig(epochs=1, batch_size=4, learning_rate=0.05, rng_seed=5)
    peaks = []  # per step, from the start of its forward to the start of the next one's
    batch_loss = training.batch_loss

    def spy(*args):
        if tracemalloc.is_tracing():
            peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.start()
        tracemalloc.reset_peak()
        return batch_loss(*args)

    monkeypatch.setattr(training, "batch_loss", spy)
    try:
        training.train(corpus.dataset, corpus.manifests["train"], model, config)
        peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    assert len(peaks) == 3
    assert max(peaks) <= WIDE_STEP_PEAK + WIDE_STEP_SLACK, peaks
    assert max(peaks[1:]) <= peaks[0] + WIDE_STEP_SLACK, peaks


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
            grid = training.fused_similarity_matrix(model, videos, sentences, "weighted", FRAME_SEED)
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


def test_train_rejects_an_empty_sentence_before_epoch_0():
    corpus = _corpus()
    ds = corpus.dataset
    ds.sentences[5] = []
    model = Model.new(DIMS, "dual-I", seed=1, table=ds.embedding_table())
    config = TripletConfig(epochs=3, batch_size=4, negative_mode="sum-all")
    logged = []
    with pytest.raises(ManifestError, match="sentence id 5 is empty"):
        training.train(ds, corpus.manifests["train"], model, config, log_fn=lambda *e: logged.append(e))
    assert logged == []


def test_train_rejects_a_non_str_video_id_before_epoch_0():
    # frame_rng encodes the id only where a chunk can draw, so without the
    # check an int id fails in the first batch, and only on corpora with F > N
    corpus = _corpus()
    assert corpus.dataset.n_frames > DIMS.n_chunks
    entries = [(i, idx, sents) for i, (_, idx, sents) in enumerate(corpus.manifests["train"].entries)]
    model = Model.new(DIMS, "dual-I", seed=1, table=corpus.dataset.embedding_table())
    config = TripletConfig(epochs=2, batch_size=4)
    logged = []
    with pytest.raises(ManifestError, match="^entry 0: video id 0 is not a str$"):
        training.train(corpus.dataset, Manifest("train", entries), model, config, log_fn=lambda *e: logged.append(e))
    assert logged == []


@pytest.mark.parametrize("spaces", ["dual-I", "triple"])
def test_train_rejects_a_dataset_without_a_feature_a_space_reads_before_epoch_0(corpus, spaces, monkeypatch):
    # without the check the action head raises inside the first batch, after the GRU has run
    ds = dataclasses.replace(corpus.dataset, action_vecs=np.zeros((corpus.dataset.n_videos, 0)))
    manifest = corpus.manifests["train"]
    model = Model.new(DIMS, spaces, seed=1, table=ds.embedding_table())
    monkeypatch.setattr(model, "encode_sentences", lambda *a: pytest.fail("a batch ran"))
    logged = []
    first = manifest.entries[0][0]
    message = f"^space unavailable: the action space reads action features, and video {first} has none$"
    with pytest.raises(visual.SpaceUnavailableError, match=message):
        training.train(ds, manifest, model, TripletConfig(epochs=2, batch_size=4), log_fn=lambda *e: logged.append(e))
    assert logged == []
    # a model without the action space trains on the same dataset
    model = Model.new(DIMS, "dual-S", seed=1, table=ds.embedding_table())
    assert len(training.train(ds, manifest, model, TripletConfig(epochs=1, batch_size=4))) == 1


@pytest.mark.parametrize("spaces", ["dual-I", "triple"])
def test_checkpoint_round_trip_scores_bit_identically(corpus, spaces):
    table = corpus.dataset.embedding_table()
    model = Model.new(DIMS, spaces, seed=6, table=table)
    arrays = {name: t.data for name, t in model.params.named().items()}
    blob = io.BytesIO()
    write_checkpoint(arrays, {"spaces": spaces}, blob)
    blob.seek(0)
    loaded, _ = read_checkpoint(blob)
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
    """Every tensor the heads read, walked through the parameter groups and
    the (w, b) pairs."""
    groups = [params.gru, params.attention, params.lstm]
    out = [t for group in groups if group is not None for t in vars(group).values()]
    pairs = [*params.projections.values(), params.global_head]
    return out + [params.gate] + [t for pair in pairs if pair is not None for t in pair]


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
    blob = io.BytesIO()
    write_checkpoint(arrays, {"spaces": "dual-S"}, blob)
    blob.getbuffer()[4:6] = struct.pack("<H", 1)
    blob.seek(0)
    with pytest.raises(VersionMismatchError, match="checkpoint version 1, expected 2"):
        read_checkpoint(blob)


def test_loading_a_checkpoint_draws_nothing(monkeypatch):
    spaces = SPACE_SETS["triple"]
    arrays = {name: t.data for name, t in mvse_model.init_params(DIMS, spaces, seed=3).named().items()}

    def no_draw(*args):
        raise AssertionError(f"params_from_arrays drew {args}")

    monkeypatch.setattr(mvse_model, "_init_fill", no_draw)
    loaded = mvse_model.params_from_arrays(DIMS, spaces, arrays).named()
    assert list(loaded) == list(arrays)
    for name, t in loaded.items():
        np.testing.assert_array_equal(t.data, arrays[name])
