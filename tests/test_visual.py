import dataclasses
import hashlib
import itertools
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
    SpaceUnavailableError,
    VideoFeature,
    action_embed,
    attention_logits,
    chunk_sample,
    global_embed,
    sequential_embed,
    spatial_attention,
)

import oracle_ops
from oracle_ops import init_draw, sum_all, take
from peaks import untaped_peak
from shapes import EVAL_GRIDS, LSTM_GRIDS, MID_DIMS, WIDE_DIMS

DIMS = Dims.small()
EPS = np.finfo(np.float64).eps


def _video(rng: np.random.Generator, n_frames: int = 4, with_action: bool = True) -> VideoFeature:
    return VideoFeature(
        video_id="v0",
        global_frames=rng.normal(size=(n_frames, DIMS.c_global)),
        grid_frames=rng.normal(size=(n_frames, DIMS.grid, DIMS.grid, DIMS.c_spatial)),
        action_vec=rng.normal(size=DIMS.c_action) if with_action else None,
    )


def _videos(rng: np.random.Generator, dims: Dims, n_v: int) -> list[VideoFeature]:
    """``n_v`` videos of ``dims.n_chunks`` float32 frames and no action vector."""
    return [
        VideoFeature(
            f"v{v}", rng.normal(size=(dims.n_chunks, dims.c_global)).astype(np.float32),
            rng.normal(size=(dims.n_chunks, dims.grid, dims.grid, dims.c_spatial)).astype(np.float32), None,
        )
        for v in range(n_v)
    ]


def _scan_block(dims: Dims, n_q: int) -> int:
    """The untaped head's block length at ``dims`` against ``n_q`` sentences."""
    return visual.scan_block(n_q, dims.n_chunks, dims.grid_cells, dims.c_spatial, dims.hidden)


def _seq_params(seed: int) -> mvse_model.ModelParams:
    """A small-dims model whose ``attention`` and ``lstm`` groups the
    sequential-head tests read."""
    return init_params(DIMS, ("global", "sequential"), seed)


def _attend(grids: np.ndarray, phis: Tensor, params: AttentionParams) -> Tensor:
    """The attention map [V, Q, T, G*G] of every video, sentence and frame."""
    return spatial_attention(*attention_logits(grids, phis, params))


def _map(grid: np.ndarray, phi: Tensor, params: AttentionParams) -> np.ndarray:
    """The attention map of one frame and one sentence, as [G, G]."""
    amap = _attend(grid[None, None], stack([phi]), params)
    return amap.data[0, 0, 0].reshape(grid.shape[:2])


def _embed(video: VideoFeature, indices: list[int], phi: Tensor, params) -> Tensor:
    """The sequential embedding of one (video, sentence) pair."""
    return take(take(sequential_embed([video], [indices], stack([phi]), params.attention, params.lstm), 0), 0)


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


class TestGather:
    @pytest.mark.parametrize("other", [(4,), (1,), (3, 1)])
    def test_frame_shapes_that_differ_raise_naming_them(self, other):
        # (1,) would broadcast into a (3,) row if it were written unchecked
        frames = [np.zeros((5, 3), np.float32), np.zeros((5, *other), np.float32)]
        shapes = " vs ".join(str(s) for s in sorted([(3,), other]))
        with pytest.raises(ShapeError, match=re.escape(f"x: incompatible shapes {shapes} (need the same frame")):
            visual._gather("x", frames, [[0], [1]])

    def test_peak_is_the_output_and_one_video_pick(self):
        # 8 videos x 20 frames of a 7x7x256 grid, 8 picked per video: the
        # float64 output is 6.4 MB and one video's float32 pick 0.4 MB;
        # holding every video's pick at once would add 3.2 MB
        rng = np.random.default_rng(1)
        frames = [np.full((20, 7, 7, 256), v, np.float32) for v in range(8)]
        indices = [sorted(rng.choice(20, 8, replace=False).tolist()) for _ in frames]
        peak = untaped_peak(lambda: visual._gather("x", frames, indices))
        out_bytes = 8 * 8 * 7 * 7 * 256 * 8
        pick = frames[0][indices[0]].nbytes
        slack = 64 << 10
        assert peak <= out_bytes + pick + slack


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
        w, b = Tensor(np.eye(DIMS.c_global)), Tensor(np.zeros(DIMS.c_global))
        out = global_embed([video], [[0, 1, 2, 3]], w, b)
        np.testing.assert_allclose(out.data, [v], atol=1e-12)

    def test_constant_map(self):
        rng = np.random.default_rng(1)
        video = _video(rng)
        c = rng.normal(size=DIMS.embed_dim)
        w, b = Tensor(np.zeros((DIMS.embed_dim, DIMS.c_global))), Tensor(c)
        np.testing.assert_allclose(global_embed([video], [[0, 2]], w, b).data, [c])

    def test_matches_mean_then_matvec_oracle(self):
        rng = np.random.default_rng(2)
        video = _video(rng)
        w = Tensor(rng.normal(size=(DIMS.embed_dim, DIMS.c_global)))
        b = Tensor(rng.normal(size=DIMS.embed_dim))
        other = _video(rng, n_frames=6)
        indices = [[0, 1, 3], [5, 2, 4]]
        out = global_embed([video, other], indices, w, b)
        assert out.shape == (2, DIMS.embed_dim)
        for row, v, idx in zip(out.data, (video, other), indices):
            expected = w.data @ v.global_frames[idx].mean(axis=0) + b.data
            np.testing.assert_allclose(row, expected, atol=1e-12)

    def test_pooled_frames_equal_the_per_video_mean_bit_for_bit(self):
        rng = np.random.default_rng(5)
        videos = [_video(rng, n_frames=f) for f in (3, 4, 9)]
        indices = [[0, 0, 1, 2], [3, 1, 2, 0], [8, 2, 2, 5]]
        w, b = Tensor(np.eye(DIMS.c_global)), Tensor(np.zeros(DIMS.c_global))
        out = global_embed(videos, indices, w, b)
        for row, v, idx in zip(out.data, videos, indices):
            assert np.array_equal(row, v.global_frames[idx].mean(axis=0))

    def test_index_counts_that_differ_raise(self):
        rng = np.random.default_rng(2)
        w = Tensor(rng.normal(size=(DIMS.embed_dim, DIMS.c_global)))
        b = Tensor(rng.normal(size=DIMS.embed_dim))
        videos = [_video(rng), _video(rng, n_frames=6)]
        with pytest.raises(ShapeError, match=re.escape("global_embed: incompatible shapes (2,) vs (3,)")):
            global_embed(videos, [[0, 1, 3], [5, 2]], w, b)

    def test_permutation_invariant_over_indices(self):
        rng = np.random.default_rng(3)
        video = _video(rng)
        head = Tensor(rng.normal(size=(DIMS.embed_dim, DIMS.c_global))), Tensor(rng.normal(size=DIMS.embed_dim))
        fwd = global_embed([video], [[0, 1, 2, 3]], *head).data
        perm = global_embed([video], [[3, 1, 0, 2]], *head).data
        np.testing.assert_allclose(fwd, perm, atol=1e-12)


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
        amap = _attend(grids, stack(phis), params)
        assert amap.shape == (2, 4, 3, DIMS.grid * DIMS.grid)
        for v in range(2):
            for q in range(4):
                for t in range(3):
                    one = _map(grids[v, t], phis[q], params).reshape(-1)
                    np.testing.assert_allclose(amap.data[v, q, t], one, rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("grid", list(LSTM_GRIDS))
    def test_factored_map_head_matches_the_summed_branches(self, grid):
        # the benchmark's batch and eval grids
        dims, n_v, n_q = LSTM_GRIDS[grid]
        _assert_attention_close(dims, n_v, n_q, seed=n_v * 100 + n_q)

    def test_factored_map_head_matches_the_summed_branches_at_odd_lengths(self):
        for n_v, n_q, n_t, grid, attn in itertools.product([1, 3], [1, 2, 5], [1, 3], [1, 3], [1, 5, 17]):
            dims = Dims(
                n_chunks=n_t, grid=grid, c_global=4, c_spatial=3, c_action=4,
                hidden=3, embed_dim=3, token_dim=4, attn_dim=attn,
            )
            _assert_attention_close(dims, n_v, n_q, seed=n_v * n_q * n_t * grid * attn)

    def test_untaped_peak_grows_with_the_branches_not_with_every_pair(self):
        # V = Q = 32, T = 4 at Dims.small(): 16 -> 64 attention units add
        # (V*T + Q)*48 floats, 61,440 bytes, to the branches p and q; p + q
        # [Q, V, T, A] would add V*Q*T*48, 1.57 MB. Measured growth: 61,440
        # bytes (numpy 2), against 1,634,368 with p + q.
        n_v = n_q = 32
        n_t = DIMS.n_chunks
        peaks = {}
        for attn in (16, 64):
            dims = dataclasses.replace(DIMS, attn_dim=attn)
            rng = np.random.default_rng(attn)
            params = init_params(dims, ("global", "sequential"), seed=16).attention
            grids = rng.normal(size=(n_v, n_t, DIMS.grid, DIMS.grid, DIMS.c_spatial))
            phis = Tensor(rng.normal(size=(n_q, DIMS.hidden)))
            peaks[attn] = untaped_peak(lambda: _attend(grids, phis, params))
        assert peaks[64] - peaks[16] <= 2 * (n_v * n_t + n_q) * 48 * 8


def _assert_attention_close(dims: Dims, n_v: int, n_q: int, seed: int) -> None:
    """The factored map head against the p + q reference
    (``oracle_ops.spatial_attention``), for random frames and sentence
    vectors and the model's initial parameters at ``dims``.

    ``w_a·p + (w_a·q + b_a)`` rounds otherwise than ``w_a·(p + q) + b_a``,
    so the map is held to 8·eps times the largest magnitude of the
    reference's. Each gradient, of the map head's parameters and of
    ``phis``, is a sum over the n = V·Q·T (video, sentence, frame) triples,
    which the factored head groups otherwise (over the sentences apart
    from the videos and frames). Two groupings of a sum of n terms of
    either sign round apart by about sqrt(n) ulps of its value, so each
    gradient is held to 8·eps·sqrt(n) times the largest magnitude of the
    reference's."""
    rng = np.random.default_rng(seed)
    params = init_params(dims, ("global", "sequential"), seed).attention
    grids = rng.normal(size=(n_v, dims.n_chunks, dims.grid, dims.grid, dims.c_spatial))
    phis = Tensor(rng.normal(size=(n_q, dims.hidden)))
    weights = rng.normal(size=(n_v, n_q, dims.n_chunks, dims.grid_cells))
    wrt = {**vars(params), "phis": phis}
    runs = []
    for attend in (_attend, oracle_ops.spatial_attention):
        with autodiff.Tape() as tape:
            amap = attend(grids, phis, params)
            tape.backward(einsum("vqtn,vqtn->", amap, weights))
            runs.append({"map": amap.data, **{name: tape.grad(t) for name, t in wrt.items()}})
    root_n = np.sqrt(n_v * n_q * dims.n_chunks)
    for name, ref in runs[1].items():
        new = runs[0][name]
        bound = 8 * EPS * (1.0 if name == "map" else root_n) * np.max(np.abs(ref))
        assert new.shape == ref.shape and np.max(np.abs(new - ref)) <= bound, (name, dims, n_v, n_q)


# the measured untaped tracemalloc peak of seq-train's eval grid (4,155,616
# bytes with numpy 2.4 on Linux), and the slack allowed above it: well under
# the 2.8 MB that scoring the grid as one floored block of 16 videos added
# (6,972,088 bytes)
SEQ_TRAIN_EVAL_PEAK = 4_160_000
SEQ_TRAIN_EVAL_SLACK = 256 * 1024


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
        out = sequential_embed(videos, indices, stack([Tensor(p) for p in phis]), params.attention, params.lstm)
        assert out.shape == (3, 2, DIMS.hidden)
        for v, video in enumerate(videos):
            for q, phi in enumerate(phis):
                expected = _numpy_unroll(video, indices[v], phi, params)
                np.testing.assert_allclose(out.data[v, q], expected, atol=1e-12)

    def test_index_counts_that_differ_raise(self):
        rng = np.random.default_rng(19)
        videos = [_video(rng), _video(rng)]
        phis = stack([Tensor(rng.normal(size=DIMS.hidden)) for _ in range(2)])
        params = _seq_params(13)
        with pytest.raises(ShapeError, match=re.escape("sequential_embed: incompatible shapes (2,) vs (3,)")):
            sequential_embed(videos, [[0, 1, 2], [0, 1]], phis, params.attention, params.lstm)

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
        videos = [_video(rng), _video(rng)]
        visual.sequential_embed(videos, [[0, 1, 2, 3]] * 2, phis, params.attention, params.lstm)

        operands = [arg for name, args in calls if name == "einsum" for arg in args[1:]]
        assert any(a is params.lstm.w for a in operands)
        recurrences = [args for name, args in calls if name == "lstm_recurrence"]
        assert len(recurrences) == 1
        assert recurrences[0][2] is params.lstm.u and recurrences[0][3] is params.lstm.b
        for name, args in calls:
            if name in ("stack", "reshape"):
                parts = args[0] if name == "stack" else [args[0]]
                assert not any(p is t for p in parts for t in lstm), name

    def test_video_blocks_cover_the_videos_once_with_no_one_video_block(self):
        for n_v, step in itertools.product(range(1, 30), range(2, 8)):
            blocks = visual.video_blocks(n_v, step)
            assert [i for lo, hi in blocks for i in range(lo, hi)] == list(range(n_v))
            assert all(hi - lo == step for lo, hi in blocks[:-1])
            lo, hi = blocks[-1]
            assert hi - lo <= step + 1 and (hi - lo > 1 or n_v == 1), (n_v, step)

    def test_scan_block_floors_k_rows_only_for_an_lstm_w_above_8_mib(self):
        # mid dims' lstm.w is 2 MiB, where the floor cost time, so Q = 16
        # scores in the step budget's blocks of 8 videos; WIDE_DIMS' 98 MiB
        # and Dims()' 1.5 GiB keep at least 256 rows of K, T per video
        assert _scan_block(MID_DIMS, 16) == 8
        for dims in (WIDE_DIMS, Dims()):
            assert _scan_block(dims, 16) >= -(-256 // dims.n_chunks), dims

    @pytest.mark.parametrize("workload", list(EVAL_GRIDS))
    def test_lstm_input_contractions_return_contiguous_arrays(self, workload, monkeypatch):
        # each block's K comes out of its product in the layout the head asks
        # for, so Tensor() takes it without a transposing copy, the blocks'
        # frames are the gallery's once, in order, and no contraction forms
        # the input terms of every step; the shapes are those of the
        # benchmark's eval grids
        dims, n_v, n_q = EVAL_GRIDS[workload]
        rng = np.random.default_rng(20)
        params = init_params(dims, ("global", "sequential"), seed=14)
        videos = _videos(rng, dims, n_v)
        phis = Tensor(rng.normal(size=(n_q, dims.hidden)))
        plan, results = autodiff._einsum_plan, []

        def spy(spec, shape_a, shape_b):
            forward, grad_a, grad_b = plan(spec, shape_a, shape_b)

            def recorded(a, b):
                out = forward(a, b)
                results.append((spec, shape_a, b.copy(), out.flags.c_contiguous))
                return out

            return recorded, grad_a, grad_b

        monkeypatch.setattr(autodiff, "_einsum_plan", spy)
        with autodiff.no_tape():
            sequential_embed(videos, [list(range(dims.n_chunks))] * n_v, phis, params.attention, params.lstm)
        head = [(spec, frames, c) for spec, shape_a, frames, c in results if shape_a == params.lstm.w.shape]
        blocks = visual.video_blocks(n_v, _scan_block(dims, n_q))
        assert len(head) == len(blocks)
        assert all(spec == "ncgj,vtnc->nvtgj" and c for spec, _, c in head)
        assert [len(frames) for _, frames, _ in head] == [hi - lo for lo, hi in blocks]
        gallery = np.stack([v.grid_frames for v in videos], dtype=np.float64)
        gallery = gallery.reshape(n_v, dims.n_chunks, dims.grid_cells, dims.c_spatial)
        np.testing.assert_array_equal(np.concatenate([f for _, f, _ in head]), gallery)
        assert "nvtgj,vqtn->vtqgj" not in [spec for spec, _, _, _ in results]

    @pytest.mark.parametrize("workload", list(EVAL_GRIDS))
    def test_blocked_untaped_head_is_one_block_bit_for_bit(self, workload, monkeypatch):
        # the untaped head scores its videos a block at a time; every block
        # count, a 1-video tail that joins the block before it (2·block + 1)
        # included, gives the bytes of one block of all V
        dims, _, n_q = EVAL_GRIDS[workload]
        block = _scan_block(dims, n_q)
        rng = np.random.default_rng(24)
        params = init_params(dims, ("global", "sequential"), seed=16)
        phis = Tensor(rng.normal(size=(n_q, dims.hidden)))
        for n_v in (1, 2, 3, block + 1, 2 * block + 1):
            videos = _videos(rng, dims, n_v)
            indices = [list(range(dims.n_chunks))] * n_v
            outs = []
            for step in (block, n_v):
                monkeypatch.setattr(visual, "scan_block", lambda *shape: step)
                with autodiff.no_tape():
                    outs.append(sequential_embed(videos, indices, phis, params.attention, params.lstm).data)
            assert outs[0].shape == (n_v, n_q, dims.hidden)
            assert outs[0].tobytes() == outs[1].tobytes(), n_v

    def test_untaped_peak_grows_with_the_block_not_with_the_gallery(self):
        # Q = 64 at Dims.small(), T = 4: the head holds the widened frames,
        # the attention's logit shares and the [V, Q, H] output for every
        # video, and K, the maps and the recurrence's workspace for one
        # block of 12. Blocked, it peaks at 2,115,688 bytes at V = 64 against
        # 1,518,952 at V = 16 (1.39x, numpy 2); one block of all V peaked at
        # 7,234,376 against 1,821,512 (3.97x).
        n_q = 64
        params = _seq_params(17)
        phis = Tensor(np.random.default_rng(25).normal(size=(n_q, DIMS.hidden)))
        peaks = {}
        for n_v in (16, 64):
            videos = _videos(np.random.default_rng(n_v), DIMS, n_v)
            indices = [list(range(DIMS.n_chunks))] * n_v
            peaks[n_v] = untaped_peak(
                lambda: sequential_embed(videos, indices, phis, params.attention, params.lstm)
            )
        assert peaks[64] <= 1.6 * peaks[16]

    def test_seq_train_eval_grid_peak_stays_within_its_pin(self):
        # mid dims, 16 videos x 16 sentences, scored in two blocks of 8: K,
        # the maps and the recurrence's workspace are one block's, freed
        # before the next block forms its own
        dims, n_v, n_q = EVAL_GRIDS["seq-train"]
        rng = np.random.default_rng(26)
        params = init_params(dims, ("global", "sequential"), seed=16)
        phis = Tensor(rng.normal(size=(n_q, dims.hidden)))
        videos = _videos(rng, dims, n_v)
        indices = [list(range(dims.n_chunks))] * n_v
        peak = untaped_peak(lambda: sequential_embed(videos, indices, phis, params.attention, params.lstm))
        assert peak <= SEQ_TRAIN_EVAL_PEAK + SEQ_TRAIN_EVAL_SLACK, peak

    def test_untaped_embedding_owns_its_memory(self):
        # a view into the recurrence's workspace would keep the whole
        # workspace alive for as long as the embedding is
        rng = np.random.default_rng(23)
        n_v, n_q = 3, 5
        videos = [_video(rng) for _ in range(n_v)]
        phis = Tensor(rng.normal(size=(n_q, DIMS.hidden)))
        params = _seq_params(14)
        with autodiff.no_tape():
            out = sequential_embed(videos, [[0, 1, 2, 3]] * n_v, phis, params.attention, params.lstm).data
        assert out.shape == (n_v, n_q, DIMS.hidden)
        assert out.base is None or out.base.size == n_v * n_q * DIMS.hidden

    def test_forward_without_a_tape_saves_no_per_step_state(self):
        # V = Q = 32 at Dims.small(), T = 4: the per-step LSTM state that a
        # taped call saves would be 3.7 MB. With its step buffers allocated
        # once, as one workspace, and its state updated in place, the untaped
        # call peaked at 2,047,072 bytes here as one block of 32 videos (numpy
        # 2), which the bound holds with a 5.0% margin; in blocks of 23 and 9
        # it peaks at 1,650,168.
        rng = np.random.default_rng(19)
        videos = [_video(rng) for _ in range(32)]
        phis = Tensor(rng.normal(size=(32, DIMS.hidden)))
        params = _seq_params(13)
        peak = untaped_peak(
            lambda: sequential_embed(videos, [[0, 1, 2, 3]] * 32, phis, params.attention, params.lstm)
        )
        assert peak <= 2_150_000

    def test_untaped_peak_stays_below_the_input_terms_of_every_step(self):
        # V = Q = 64 at Dims.small(), the seq-retrieve eval grid. At T = 8 the
        # input terms of every step, [V, T, Q, 4H], are 16.8 MB; a head that
        # built them peaked at 23.2 MB, 9.7 MB above its T = 4 peak. Formed one
        # step at a time, they left a peak of 8.53 MB (numpy 2) in one block
        # of all 64 videos, and doubling T added only what holds T: the
        # frames, the maps and K, 1.31 MB. In blocks of 12 the peak is
        # 2.58 MB, 0.47 MB above T = 4.
        peaks = {}
        for n_t in (4, 8):
            dims = dataclasses.replace(DIMS, n_chunks=n_t)
            rng = np.random.default_rng(n_t)
            params = init_params(dims, ("global", "sequential"), seed=15)
            videos = [_video(rng, n_frames=n_t) for _ in range(64)]
            phis = Tensor(rng.normal(size=(64, DIMS.hidden)))
            peaks[n_t] = untaped_peak(
                lambda: sequential_embed(videos, [list(range(n_t))] * 64, phis, params.attention, params.lstm)
            )
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
                return init_draw(f"lstm.{kind}_{gate}", shape, fan_in, seed)

            block = lstm.w.data[:, :, n].reshape(flat, h).T
            np.testing.assert_array_equal(block, draw("w", (h, flat), flat))
            np.testing.assert_array_equal(lstm.u.data[n], draw("u", (h, h), h))
            if gate != "f":
                np.testing.assert_array_equal(lstm.b.data[n], draw("b", (h,), h))
        np.testing.assert_array_equal(lstm.b.data[1], np.ones(h))  # forget gate starts open

    def test_init_holds_one_gate_block_besides_the_parameters(self):
        # grid 7, C_s 256, H 128: each of lstm.w's four gate blocks is
        # 12.8 MB. A name that keeps the last block alive while the next is
        # drawn held two, 25.9 MB above the parameters; with one, the peak
        # is 243,865 bytes above parameters + one block (numpy 2). The
        # stated slack is 1 MB.
        dims = Dims(
            n_chunks=4, grid=7, c_global=32, c_spatial=256, c_action=16,
            hidden=128, embed_dim=128, token_dim=8, attn_dim=16,
        )
        tracemalloc.start()
        try:
            params = init_params(dims, ("global", "sequential"), seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        total = sum(t.data.nbytes for t in params.tensors.values())
        block = params.tensors["lstm.w"].data.nbytes // 4
        assert peak <= total + block + 1_000_000

    def test_init_draws_lstm_w_a_chunk_of_rows_at_a_time(self, monkeypatch):
        # at WIDE_DIMS a gate block of lstm.w is 25.7 MB, one chunk under the
        # default budget; a budget of 16 of its 128 rows (3.2 MB) draws each
        # block in 8 chunks, and the tensors keep the bytes of whole draws.
        # The peak is 242,557 bytes above parameters + one chunk (numpy 2.4);
        # drawing a whole block held 22.7 MB more. The stated slack is 1 MB.
        spaces = ("global", "sequential")
        whole = {
            name: hashlib.sha256(t.data).hexdigest()
            for name, t in init_params(WIDE_DIMS, spaces, seed=0).tensors.items()
        }
        chunk = 16 * 8 * WIDE_DIMS.grid_flat
        monkeypatch.setattr(mvse_model, "_INIT_CHUNK_BYTES", chunk)
        tracemalloc.start()
        try:
            params = init_params(WIDE_DIMS, spaces, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        total = sum(t.data.nbytes for t in params.tensors.values())
        assert peak <= total + chunk + 1_000_000, peak - total
        assert {name: hashlib.sha256(t.data).hexdigest() for name, t in params.tensors.items()} == whole

    def test_every_gate_block_keeps_its_bytes_filled_a_row_at_a_time(self, monkeypatch):
        # gru.*, lstm.u and lstm.b take the same chunked fill as lstm.w
        spaces = ("global", "sequential", "action")
        whole = {name: t.data.tobytes() for name, t in init_params(DIMS, spaces, seed=1).tensors.items()}
        monkeypatch.setattr(mvse_model, "_INIT_CHUNK_BYTES", 1)
        rows = {name: t.data.tobytes() for name, t in init_params(DIMS, spaces, seed=1).tensors.items()}
        assert rows == whole

    def test_every_tensor_without_gate_blocks_is_its_name_s_whole_draw(self):
        # filled in place by the same chunked fill as the gate blocks, whose
        # row-at-a-time bytes the test above compares with these
        spaces = ("global", "sequential", "action")
        h, a, flat, c_g = DIMS.hidden, DIMS.attn_dim, DIMS.grid_flat, DIMS.c_global
        fan_ins = {
            **{f"proj.{space}.{k}": h for space in spaces for k in "wb"},
            "head.global.w": c_g, "head.global.b": c_g, "attn.w_p": flat, "attn.b_p": flat,
            "attn.w_q": h, "attn.b_q": h, "attn.w_a": a, "attn.b_a": a, "gate.w": h,
        }
        tensors = init_params(DIMS, spaces, seed=2).tensors
        assert set(fan_ins) == {n for n in tensors if n.partition(".")[0] not in ("gru", "lstm")}
        for name, fan_in in fan_ins.items():
            np.testing.assert_array_equal(tensors[name].data, init_draw(name, tensors[name].shape, fan_in, 2))


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
            return sum_all(cosine(global_embed([video], [[0, 1, 2, 3]], *params.global_head), target))

        for t in params.global_head:
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
        params = init_params(dims, ("global", "sequential"), seed=8)
        phi = Tensor(rng.normal(size=dims.hidden))
        target = Tensor(rng.normal(size=(1, dims.hidden)))

        def loss(_):
            # the paired [V, Q, H] x [Q, H] form of the cosine grid
            embedded = sequential_embed([video], [[0, 1]], stack([phi]), params.attention, params.lstm)
            return sum_all(cosine(embedded, target))

        check = [
            params.attention.w_a, params.attention.b_p, params.attention.w_q,
            params.lstm.w, params.lstm.u, params.lstm.b,
        ]
        for t in check:
            assert grad_check(loss, t) < 1e-4

    def test_map_head_parameters(self):
        # every coordinate of the branches' and the map head's parameters,
        # at V = Q = 2 so that both shares of the logits are summed over
        dims = Dims(
            n_chunks=2, grid=2, c_global=4, c_spatial=2, c_action=4,
            hidden=3, embed_dim=3, token_dim=4, attn_dim=5,
        )
        rng = np.random.default_rng(21)
        params = init_params(dims, ("global", "sequential"), seed=17).attention
        grids = rng.normal(size=(2, 2, dims.grid, dims.grid, dims.c_spatial))
        phis = Tensor(rng.normal(size=(2, dims.hidden)))
        weights = rng.normal(size=(2, 2, 2, dims.grid_cells))

        def loss(_):
            return einsum("vqtn,vqtn->", _attend(grids, phis, params), weights)

        for t in (*vars(params).values(), phis):
            assert grad_check(loss, t) < 1e-6

    def test_attention_map_gradient_wrt_phi(self):
        rng = np.random.default_rng(15)
        params = _seq_params(9).attention
        grid = rng.normal(size=(DIMS.grid, DIMS.grid, DIMS.c_spatial))
        phi = Tensor(rng.normal(size=DIMS.hidden))
        cell_sums = grid.reshape(1, 1, 1, -1, DIMS.c_spatial).sum(axis=-1)

        def loss(t):
            # the sum of the attended grid: each cell's channel sum times its weight
            amap = _attend(grid[None, None], stack([t]), params)
            return einsum("vqtn,vqtn->", amap, cell_sums)

        assert grad_check(loss, phi) < 1e-4
