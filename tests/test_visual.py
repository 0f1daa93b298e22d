import dataclasses
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvse import autodiff, visual
from mvse import model as mvse_model
from mvse.autodiff import ShapeError, Tensor, cosine, einsum, grad_check, stack
from mvse.config import Dims
from mvse.model import init_params
from mvse.visual import (
    AttentionParams,
    GlobalHeadParams,
    LstmParams,
    SequentialHeadParams,
    SpaceUnavailableError,
    VideoFeature,
    action_embed,
    chunk_sample,
    global_embed,
    sequential_embed,
    spatial_attention,
)

from oracle_ops import sum_all, take

DIMS = Dims.small()
# the benchmark's seq-train dims
MID_DIMS = Dims(
    n_chunks=8, grid=4, c_global=128, c_spatial=64, c_action=64,
    hidden=64, embed_dim=64, token_dim=32, attn_dim=64,
)


def _video(rng: np.random.Generator, n_frames: int = 4, with_action: bool = True) -> VideoFeature:
    return VideoFeature(
        video_id="v0",
        global_frames=rng.normal(size=(n_frames, DIMS.c_global)),
        grid_frames=rng.normal(size=(n_frames, DIMS.grid, DIMS.grid, DIMS.c_spatial)),
        action_vec=rng.normal(size=DIMS.c_action) if with_action else None,
    )


def _seq_params(seed: int) -> SequentialHeadParams:
    return init_params(DIMS, ("global", "sequential"), seed).sequential_head


def _map(grid: np.ndarray, phi: Tensor, params: AttentionParams) -> np.ndarray:
    """The attention map of one frame and one sentence, as [G, G]."""
    amap = spatial_attention(grid[None, None], stack([phi]), params)
    return amap.data[0, 0, 0].reshape(grid.shape[:2])


def _embed(video: VideoFeature, indices: list[int], phi: Tensor, params) -> Tensor:
    """The sequential embedding of one (video, sentence) pair."""
    return take(take(sequential_embed([video], [indices], stack([phi]), params), 0), 0)


def _numpy_unroll(video: VideoFeature, indices: list[int], phi: np.ndarray, params) -> np.ndarray:
    """Independent oracle: numpy attention + per-gate LSTM recurrence for one pair."""
    sig = lambda v: 1.0 / (1.0 + np.exp(-v))
    at = params.attention
    p_l = params.lstm
    h = np.zeros(DIMS.hidden)
    c = np.zeros(DIMS.hidden)
    for f in indices:
        grid = video.grid_frames[f]
        p = np.tanh(at.w_p.data @ grid.reshape(-1) + at.b_p.data)
        q = np.tanh(at.w_q.data @ phi + at.b_q.data)
        logits = np.tanh(at.w_a.data @ (p + q) + at.b_a.data)
        e = np.exp(logits - logits.max())
        a = (e / e.sum()).reshape(DIMS.grid, DIMS.grid)
        x = (grid * a[:, :, None]).reshape(-1)
        # gate n's pre-activation from its blocks of the stacked parameters,
        # w's as [G*G*C_s, H]
        pre = [
            x @ p_l.w.data[:, :, n].reshape(-1, DIMS.hidden) + p_l.u.data[n] @ h + p_l.b.data[n]
            for n in range(4)
        ]
        i, fg, g, o = sig(pre[0]), sig(pre[1]), np.tanh(pre[2]), sig(pre[3])
        c = fg * c + i * g
        h = o * np.tanh(c)
    return h


class TestChunkSample:
    def test_one_frame_per_chunk(self):
        assert chunk_sample(20, 20) == list(range(20))

    def test_chunk_starts(self):
        assert chunk_sample(40, 20) == list(range(0, 40, 2))

    def test_short_video_repeats_in_order(self):
        # padding rule: boundaries at floor(i*F/N), so each frame appears twice
        assert chunk_sample(10, 20) == [i // 2 for i in range(20)]

    def test_matches_boundary_oracle(self):
        for f, n in [(7, 3), (3, 7), (13, 5), (1, 4), (25, 20)]:
            expected = [(i * f) // n for i in range(n)]
            assert chunk_sample(f, n) == expected

    def test_random_is_seed_deterministic(self):
        a = chunk_sample(50, 10, np.random.default_rng(123))
        b = chunk_sample(50, 10, np.random.default_rng(123))
        c = chunk_sample(50, 10, np.random.default_rng(124))
        assert a == b
        assert a != c  # almost surely

    @given(f=st.integers(1, 200), n=st.integers(1, 50), seed=st.integers(0, 1000))
    @settings(max_examples=200, deadline=None)
    def test_random_indices_nondecreasing_and_in_chunk(self, f, n, seed):
        idx = chunk_sample(f, n, np.random.default_rng(seed))
        assert len(idx) == n
        assert all(0 <= i < f for i in idx)
        assert all(a <= b for a, b in zip(idx, idx[1:]))
        for i, chosen in enumerate(idx):
            lo, hi = (i * f) // n, ((i + 1) * f) // n
            assert lo <= chosen < max(hi, lo + 1)

    def test_no_draw_unless_a_chunk_holds_two_frames(self):
        # with F <= N every chunk is at most one frame long, so the generator
        # is never read and the pick is the chunk start
        for n in range(1, 9):
            for f in range(1, n + 1):
                rng = np.random.default_rng(f * 10 + n)
                state = rng.bit_generator.state
                assert chunk_sample(f, n, rng) == chunk_sample(f, n)
                assert rng.bit_generator.state == state

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            chunk_sample(0, 5)
        with pytest.raises(ValueError):
            chunk_sample(5, 0)


class TestGlobalEmbed:
    def test_identical_frames_identity_map(self):
        rng = np.random.default_rng(0)
        v = rng.normal(size=DIMS.c_global)
        video = VideoFeature(
            video_id="v",
            global_frames=np.tile(v, (4, 1)),
            grid_frames=np.zeros((4, DIMS.grid, DIMS.grid, DIMS.c_spatial)),
            action_vec=None,
        )
        params = GlobalHeadParams(w=Tensor(np.eye(DIMS.c_global)), b=Tensor(np.zeros(DIMS.c_global)))
        out = global_embed([video], [[0, 1, 2, 3]], params)
        np.testing.assert_allclose(out.data, [v], atol=1e-12)

    def test_constant_map(self):
        rng = np.random.default_rng(1)
        video = _video(rng)
        c = rng.normal(size=DIMS.embed_dim)
        params = GlobalHeadParams(
            w=Tensor(np.zeros((DIMS.embed_dim, DIMS.c_global))), b=Tensor(c)
        )
        np.testing.assert_allclose(global_embed([video], [[0, 2]], params).data, [c])

    def test_matches_mean_then_matvec_oracle(self):
        rng = np.random.default_rng(2)
        video = _video(rng)
        params = GlobalHeadParams(
            w=Tensor(rng.normal(size=(DIMS.embed_dim, DIMS.c_global))),
            b=Tensor(rng.normal(size=DIMS.embed_dim)),
        )
        other = _video(rng, n_frames=6)
        indices = [[0, 1, 3], [5, 2, 4]]
        out = global_embed([video, other], indices, params)
        assert out.shape == (2, DIMS.embed_dim)
        for row, v, idx in zip(out.data, (video, other), indices):
            expected = params.w.data @ v.global_frames[idx].mean(axis=0) + params.b.data
            np.testing.assert_allclose(row, expected, atol=1e-12)

    def test_pooled_frames_equal_the_per_video_mean_bit_for_bit(self):
        rng = np.random.default_rng(5)
        videos = [_video(rng, n_frames=f) for f in (3, 4, 9)]
        indices = [[0, 0, 1, 2], [3, 1, 2, 0], [8, 2, 2, 5]]
        params = GlobalHeadParams(w=Tensor(np.eye(DIMS.c_global)), b=Tensor(np.zeros(DIMS.c_global)))
        out = global_embed(videos, indices, params)
        for row, v, idx in zip(out.data, videos, indices):
            assert np.array_equal(row, v.global_frames[idx].mean(axis=0))

    def test_index_counts_that_differ_raise(self):
        rng = np.random.default_rng(2)
        params = GlobalHeadParams(
            w=Tensor(rng.normal(size=(DIMS.embed_dim, DIMS.c_global))),
            b=Tensor(rng.normal(size=DIMS.embed_dim)),
        )
        videos = [_video(rng), _video(rng, n_frames=6)]
        with pytest.raises(ShapeError, match=re.escape("global_embed: incompatible shapes (2,) vs (3,)")):
            global_embed(videos, [[0, 1, 3], [5, 2]], params)

    def test_permutation_invariant_over_indices(self):
        rng = np.random.default_rng(3)
        video = _video(rng)
        params = GlobalHeadParams(
            w=Tensor(rng.normal(size=(DIMS.embed_dim, DIMS.c_global))),
            b=Tensor(rng.normal(size=DIMS.embed_dim)),
        )
        a = global_embed([video], [[0, 1, 2, 3]], params).data
        b = global_embed([video], [[3, 1, 0, 2]], params).data
        np.testing.assert_allclose(a, b, atol=1e-12)


class TestSpatialAttention:
    def test_map_sums_to_one(self):
        rng = np.random.default_rng(4)
        params = _seq_params(0).attention
        phi = Tensor(rng.normal(size=DIMS.hidden))
        for _ in range(5):
            grid = rng.normal(size=(DIMS.grid, DIMS.grid, DIMS.c_spatial))
            amap = _map(grid, phi, params)
            assert abs(amap.sum() - 1.0) < 1e-9
            assert np.all(amap > 0)

    def test_zero_map_head_gives_uniform(self):
        rng = np.random.default_rng(5)
        params = _seq_params(1).attention
        params.w_a.data[:] = 0.0
        params.b_a.data[:] = 0.0
        grid = rng.normal(size=(DIMS.grid, DIMS.grid, DIMS.c_spatial))
        amap = _map(grid, Tensor(rng.normal(size=DIMS.hidden)), params)
        np.testing.assert_allclose(amap, 1.0 / (DIMS.grid * DIMS.grid), atol=1e-12)

    def test_hand_computed_pipeline(self):
        # G=2, C_s=1, attention width 2, H=2: every stage checked by hand
        w_p = np.array([[1.0, 0.0, -1.0, 0.5], [0.0, 2.0, 0.0, -0.5]])
        b_p = np.array([0.1, -0.2])
        w_q = np.array([[0.5, -1.0], [1.5, 0.25]])
        b_q = np.array([0.0, 0.3])
        w_a = np.array([[1.0, -1.0], [0.5, 0.5], [-0.25, 0.75], [2.0, 0.0]])
        b_a = np.array([0.0, 0.1, -0.1, 0.2])
        params = AttentionParams(
            w_p=Tensor(w_p), b_p=Tensor(b_p), w_q=Tensor(w_q), b_q=Tensor(b_q),
            w_a=Tensor(w_a), b_a=Tensor(b_a),
        )
        grid = np.array([[[0.2], [-0.4]], [[1.0], [0.6]]])
        phi = np.array([0.3, -0.7])

        p = np.tanh(w_p @ grid.reshape(-1) + b_p)
        q = np.tanh(w_q @ phi + b_q)
        logits = np.tanh(w_a @ (p + q) + b_a)
        e = np.exp(logits - logits.max())
        a_expected = (e / e.sum()).reshape(2, 2)

        np.testing.assert_allclose(_map(grid, Tensor(phi), params), a_expected, atol=1e-12)

    def test_map_is_per_video_frame_and_sentence(self):
        rng = np.random.default_rng(16)
        params = _seq_params(10).attention
        grids = rng.normal(size=(2, 3, DIMS.grid, DIMS.grid, DIMS.c_spatial))
        phis = [Tensor(rng.normal(size=DIMS.hidden)) for _ in range(4)]
        amap = spatial_attention(grids, stack(phis), params)
        assert amap.shape == (2, 4, 3, DIMS.grid * DIMS.grid)
        for v in range(2):
            for q in range(4):
                for t in range(3):
                    one = _map(grids[v, t], phis[q], params).reshape(-1)
                    np.testing.assert_allclose(amap.data[v, q, t], one, rtol=1e-12, atol=1e-15)


def _untaped_peak(videos, indices, phis, params) -> int:
    """The tracemalloc peak of one untaped ``sequential_embed`` call, with
    its caches warmed by a call outside the trace."""
    with autodiff.no_tape():
        sequential_embed(videos, indices, phis, params)
        tracemalloc.start()
        try:
            sequential_embed(videos, indices, phis, params)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()


class TestSequentialEmbed:
    def test_zero_lstm_params_give_zero(self):
        rng = np.random.default_rng(7)
        video = _video(rng, n_frames=1)
        params = _seq_params(3)
        for t in vars(params.lstm).values():
            t.data[:] = 0.0
        out = _embed(video, [0], Tensor(rng.normal(size=DIMS.hidden)), params)
        np.testing.assert_allclose(out.data, 0.0, atol=1e-15)

    def test_output_strictly_inside_unit_box(self):
        rng = np.random.default_rng(8)
        video = _video(rng)
        out = _embed(video, [0, 1, 2, 3], Tensor(rng.normal(size=DIMS.hidden)), _seq_params(4))
        assert np.all(np.abs(out.data) < 1.0)

    def test_two_frame_hand_unroll(self):
        rng = np.random.default_rng(9)
        params = _seq_params(5)
        video = _video(rng, n_frames=2)
        phi = rng.normal(size=DIMS.hidden)
        out = _embed(video, [0, 1], Tensor(phi), params)
        np.testing.assert_allclose(out.data, _numpy_unroll(video, [0, 1], phi, params), atol=1e-12)

    def test_frame_order_matters(self):
        rng = np.random.default_rng(10)
        video = _video(rng, n_frames=2)
        phi = Tensor(rng.normal(size=DIMS.hidden))
        params = _seq_params(6)
        fwd = _embed(video, [0, 1], phi, params).data
        rev = _embed(video, [1, 0], phi, params).data
        assert np.linalg.norm(fwd - rev) > 1e-8

    def test_every_pair_matches_the_hand_unroll(self):
        rng = np.random.default_rng(17)
        params = _seq_params(11)
        videos = [_video(rng, n_frames=5) for _ in range(3)]
        indices = [[0, 2, 4], [1, 1, 3], [4, 3, 0]]
        phis = [rng.normal(size=DIMS.hidden) for _ in range(2)]
        out = sequential_embed(videos, indices, stack([Tensor(p) for p in phis]), params)
        assert out.shape == (3, 2, DIMS.hidden)
        for v, video in enumerate(videos):
            for q, phi in enumerate(phis):
                expected = _numpy_unroll(video, indices[v], phi, params)
                np.testing.assert_allclose(out.data[v, q], expected, atol=1e-12)

    def test_index_counts_that_differ_raise(self):
        rng = np.random.default_rng(19)
        videos = [_video(rng), _video(rng)]
        phis = stack([Tensor(rng.normal(size=DIMS.hidden)) for _ in range(2)])
        with pytest.raises(ShapeError, match=re.escape("sequential_embed: incompatible shapes (2,) vs (3,)")):
            sequential_embed(videos, [[0, 1, 2], [0, 1]], phis, _seq_params(13))

    def test_lstm_parameters_enter_the_contractions_as_stored(self, monkeypatch):
        rng = np.random.default_rng(18)
        params = _seq_params(12)
        lstm = (params.lstm.w, params.lstm.u, params.lstm.b)
        calls = []

        def spy(name):
            real = getattr(autodiff, name)

            def wrapped(*args, **kwargs):
                calls.append((name, args))
                return real(*args, **kwargs)

            return wrapped

        for name in ("einsum", "lstm_recurrence", "stack", "reshape"):
            monkeypatch.setattr(visual, name, spy(name), raising=False)
        phis = stack([Tensor(rng.normal(size=DIMS.hidden)) for _ in range(2)])
        visual.sequential_embed([_video(rng), _video(rng)], [[0, 1, 2, 3]] * 2, phis, params)

        operands = [arg for name, args in calls if name == "einsum" for arg in args[1:]]
        assert any(a is params.lstm.w for a in operands)
        recurrences = [args for name, args in calls if name == "lstm_recurrence"]
        assert len(recurrences) == 1
        assert recurrences[0][2] is params.lstm.u and recurrences[0][3] is params.lstm.b
        for name, args in calls:
            if name in ("stack", "reshape"):
                parts = args[0] if name == "stack" else [args[0]]
                assert not any(p is t for p in parts for t in lstm), name

    @pytest.mark.parametrize("workload", ["seq-train", "seq-retrieve"])
    def test_lstm_input_contractions_return_contiguous_arrays(self, workload, monkeypatch):
        # K comes out of its product in the layout the head asks for, so
        # Tensor() takes it without a transposing copy, and no contraction
        # forms the input terms of every step; the shapes are those of the
        # benchmark's batch and eval grid
        dims, n_v, n_t = {"seq-train": (MID_DIMS, 8, 8), "seq-retrieve": (DIMS, 64, 4)}[workload]
        rng = np.random.default_rng(20)
        params = init_params(dims, ("global", "sequential"), seed=14).sequential_head
        videos = [
            VideoFeature(f"v{v}", rng.normal(size=(n_t, dims.c_global)),
                         rng.normal(size=(n_t, dims.grid, dims.grid, dims.c_spatial)), None)
            for v in range(n_v)
        ]
        phis = Tensor(rng.normal(size=(n_v, dims.hidden)))
        plan, results = autodiff._einsum_plan, []

        def spy(spec, shape_a, shape_b):
            forward, grad_a, grad_b = plan(spec, shape_a, shape_b)

            def recorded(a, b):
                out = forward(a, b)
                results.append((spec, shape_a, out.flags.c_contiguous))
                return out

            return recorded, grad_a, grad_b

        monkeypatch.setattr(autodiff, "_einsum_plan", spy)
        with autodiff.no_tape():
            sequential_embed(videos, [list(range(n_t))] * n_v, phis, params)
        head = [(spec, c) for spec, shape_a, c in results if shape_a == params.lstm.w.shape]
        assert head == [("ncgj,vtnc->nvtgj", True)]
        assert "nvtgj,vqtn->vtqgj" not in [spec for spec, _, _ in results]

    def test_untaped_embedding_owns_its_memory(self):
        # a view into the recurrence's workspace would keep the whole
        # workspace alive for as long as the embedding is
        rng = np.random.default_rng(23)
        n_v, n_q = 3, 5
        videos = [_video(rng) for _ in range(n_v)]
        phis = Tensor(rng.normal(size=(n_q, DIMS.hidden)))
        with autodiff.no_tape():
            out = sequential_embed(videos, [[0, 1, 2, 3]] * n_v, phis, _seq_params(14)).data
        assert out.shape == (n_v, n_q, DIMS.hidden)
        assert out.base is None or out.base.size == n_v * n_q * DIMS.hidden

    def test_forward_without_a_tape_saves_no_per_step_state(self):
        # V = Q = 32 at Dims.small(), T = 4: the per-step LSTM state that a
        # taped call saves would be 3.7 MB. With its step buffers allocated
        # once, as one workspace, and its state updated in place, the untaped
        # call peaks at 2,102,176 bytes here (numpy 2); the bound leaves a
        # 2.3% margin.
        rng = np.random.default_rng(19)
        videos = [_video(rng) for _ in range(32)]
        phis = Tensor(rng.normal(size=(32, DIMS.hidden)))
        assert _untaped_peak(videos, [[0, 1, 2, 3]] * 32, phis, _seq_params(13)) <= 2_150_000

    def test_untaped_peak_stays_below_the_input_terms_of_every_step(self):
        # V = Q = 64 at Dims.small(), the seq-retrieve eval grid. At T = 8 the
        # input terms of every step, [V, T, Q, 4H], are 16.8 MB; a head that
        # built them peaked at 23.2 MB, 9.7 MB above its T = 4 peak. Formed one
        # step at a time, they leave a peak of 8.5 MB (numpy 2), and doubling T
        # adds only what holds T: the frames, the maps and K, 1.3 MB.
        peaks = {}
        for n_t in (4, 8):
            dims = dataclasses.replace(DIMS, n_chunks=n_t)
            rng = np.random.default_rng(n_t)
            params = init_params(dims, ("global", "sequential"), seed=15).sequential_head
            videos = [_video(rng, n_frames=n_t) for _ in range(64)]
            phis = Tensor(rng.normal(size=(64, DIMS.hidden)))
            peaks[n_t] = _untaped_peak(videos, [list(range(n_t))] * 64, phis, params)
        assert peaks[8] < 64 * 8 * 64 * 4 * DIMS.hidden * 8
        assert peaks[8] - peaks[4] <= 2_000_000


class TestLstmParams:
    @pytest.mark.parametrize("seed", [0, 3])
    def test_each_gate_block_is_drawn_from_its_own_name(self, seed):
        lstm = _seq_params(seed).lstm
        h, flat = DIMS.hidden, DIMS.grid_flat
        assert lstm.w.shape == (DIMS.grid_cells, DIMS.c_spatial, 4, h)
        assert lstm.u.shape == (4, h, h) and lstm.b.shape == (4, h)
        for n, gate in enumerate("ifgo"):
            # the draw each gate's tensor had under its own name, [H, G*G*C_s] for w
            def draw(kind, shape, fan_in):
                return mvse_model._init_array(f"lstm.{kind}_{gate}", shape, fan_in, seed)

            block = lstm.w.data[:, :, n].reshape(flat, h).T
            np.testing.assert_array_equal(block, draw("w", (h, flat), flat))
            np.testing.assert_array_equal(lstm.u.data[n], draw("u", (h, h), h))
            if gate != "f":
                np.testing.assert_array_equal(lstm.b.data[n], draw("b", (h,), h))
        np.testing.assert_array_equal(lstm.b.data[1], np.ones(h))  # forget gate starts open


class TestActionEmbed:
    def test_pass_through(self):
        rng = np.random.default_rng(11)
        video = _video(rng)
        other = _video(rng)
        np.testing.assert_array_equal(action_embed([video, other]).data, [video.action_vec, other.action_vec])

    def test_missing_action_raises(self):
        rng = np.random.default_rng(12)
        with pytest.raises(SpaceUnavailableError, match="space unavailable"):
            action_embed([_video(rng), _video(rng, with_action=False)])


class TestHeadGradients:
    def test_global_head_through_cosine(self):
        rng = np.random.default_rng(13)
        video = _video(rng)
        params = init_params(DIMS, ("global",), seed=7)
        target = Tensor(rng.normal(size=(1, DIMS.embed_dim)))

        def loss(_):
            return sum_all(cosine(global_embed([video], [[0, 1, 2, 3]], params.global_head), target))

        for t in (params.global_head.w, params.global_head.b):
            assert grad_check(loss, t) < 1e-4

    def test_attention_and_lstm_through_cosine(self):
        # dims small enough to check every coordinate of the stacked LSTM
        # tensors, so every gate's block of each is checked
        dims = Dims(
            n_chunks=2, grid=2, c_global=4, c_spatial=4, c_action=4,
            hidden=8, embed_dim=8, token_dim=4, attn_dim=8,
        )
        rng = np.random.default_rng(14)
        video = VideoFeature(
            video_id="v0",
            global_frames=rng.normal(size=(2, dims.c_global)),
            grid_frames=rng.normal(size=(2, dims.grid, dims.grid, dims.c_spatial)),
            action_vec=None,
        )
        params = init_params(dims, ("global", "sequential"), seed=8).sequential_head
        phi = Tensor(rng.normal(size=dims.hidden))
        target = Tensor(rng.normal(size=(1, dims.hidden)))

        def loss(_):
            # the paired [V, Q, H] x [Q, H] form of the cosine grid
            return sum_all(cosine(sequential_embed([video], [[0, 1]], stack([phi]), params), target))

        check = [
            params.attention.w_a, params.attention.b_p, params.attention.w_q,
            params.lstm.w, params.lstm.u, params.lstm.b,
        ]
        for t in check:
            assert grad_check(loss, t) < 1e-4

    def test_attention_map_gradient_wrt_phi(self):
        rng = np.random.default_rng(15)
        params = _seq_params(9).attention
        grid = rng.normal(size=(DIMS.grid, DIMS.grid, DIMS.c_spatial))
        phi = Tensor(rng.normal(size=DIMS.hidden))
        cell_sums = grid.reshape(1, 1, 1, -1, DIMS.c_spatial).sum(axis=-1)

        def loss(t):
            # the sum of the attended grid: each cell's channel sum times its weight
            amap = spatial_attention(grid[None, None], stack([t]), params)
            return einsum("vqtn,vqtn->", amap, cell_sums)

        assert grad_check(loss, phi) < 1e-4
