"""Visual embedding heads: global (mean-pooled appearance), sequential
(sentence-conditioned spatial attention feeding an LSTM), and the action
space, whose video side is an externally extracted vector passed through
unchanged. Per-space similarity is cosine, as one [V, Q] grid per space.
Every head is batched over the videos: the global and action heads give
[V, D] and [V, C_a].

The sequential head depends on the sentence, so it yields one embedding
per (video, sentence) pair. It runs once for a whole V x Q grid, in a
factored form: the attention's visual branch with its share of the map
head's logits, and the LSTM's input weights applied to each grid cell, are
computed once per (video, frame), the textual branch's share of the logits
once per sentence, and only the sum of the two shares, its softmax over
the cells and the recurrence run per pair, batched. The
recurrence is one ``lstm_recurrence`` tape node that takes the per-cell
input terms and the maps and forms each step's input terms as it reaches
that step, so no tensor holds the input terms of every step of the grid.
It steps the whole grid hidden-major, as [H, V*Q] states and one
contiguous [H, V*Q] block per gate, and hands back the [V, Q, H]
embeddings as their own array, not as a view that would keep its step
buffers alive.
The LSTM stores its input weights cells first, [G*G, C_s, 4, H], the
order in which the gradient contraction produces them, and its recurrent
weights and biases with the four gates stacked first, as the recurrence
reads them. The per-cell input terms come out of their product in the
order the recurrence reads them, so neither they nor ``lstm.w``'s
gradient is a transposed layout that must be copied.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from mvse.autodiff import (
    ShapeError,
    Tensor,
    broadcast_add,
    cosine,
    einsum,
    lstm_recurrence,
    matvec,
    reshape,
    softmax,
    tanh,
)


class SpaceUnavailableError(ValueError):
    """The dataset lacks the features this embedding space needs."""


@dataclass
class VideoFeature:
    """Precomputed per-video features as ingested from the container, in
    the dtype they are stored in (float32 for a ``Dataset``'s videos): the
    heads widen them to float64 when they read them."""

    video_id: str
    global_frames: np.ndarray        # [F, C_g], any float dtype
    grid_frames: np.ndarray          # [F, G, G, C_s], any float dtype
    action_vec: np.ndarray | None    # [C_a], any float dtype

    def __post_init__(self):
        if self.global_frames.ndim != 2 or self.grid_frames.ndim != 4:
            raise ValueError(
                f"video {self.video_id}: bad feature ranks "
                f"{self.global_frames.shape} / {self.grid_frames.shape}"
            )
        if self.global_frames.shape[0] != self.grid_frames.shape[0]:
            raise ValueError(f"video {self.video_id}: frame counts disagree")
        if self.n_frames < 1:
            raise ValueError(f"video {self.video_id}: no frames")

    @property
    def n_frames(self) -> int:
        return self.global_frames.shape[0]


def chunk_sample(
    n_frames: int, n_chunks: int, rng: np.random.Generator | None = None
) -> list[int]:
    """Pick one frame index per chunk; indices are nondecreasing.

    Chunk i covers [floor(i*F/N), floor((i+1)*F/N)). With a generator
    ``rng`` the pick is uniform inside the chunk; without one it is the
    chunk start. ``rng`` is drawn from only when ``n_frames > n_chunks``,
    since only then does a chunk hold two or more frames; otherwise every
    chunk is its start and the generator's state is left as it was. Short
    videos (F < N) repeat frames deterministically because empty chunks
    collapse onto their start boundary.
    """
    if n_frames < 1 or n_chunks < 1:
        raise ValueError(f"need n_frames >= 1 and n_chunks >= 1, got {n_frames}, {n_chunks}")
    indices = []
    for i in range(n_chunks):
        lo = (i * n_frames) // n_chunks
        hi = ((i + 1) * n_frames) // n_chunks
        if rng is not None and hi > lo + 1:
            indices.append(int(rng.integers(lo, hi)))
        else:
            indices.append(lo)
    return indices


def _gather(kind: str, frames: list[np.ndarray], indices: list[list[int]]) -> np.ndarray:
    """Row ``indices[v]`` of ``frames[v]`` for every video, stacked into one
    [V, N, ...] float64 array. This is the one place stored frames are
    widened: only the selected frames are, and f4 -> f8 is exact, so the
    heads compute on the stored values. Every video needs the same count N;
    differing counts raise ``ShapeError`` naming them."""
    counts = sorted({len(idx) for idx in indices})
    if len(counts) > 1:
        raise ShapeError(
            kind, *((c,) for c in counts), detail="need the same frame index count for every video"
        )
    picked = [f[np.asarray(idx, dtype=np.int64)] for f, idx in zip(frames, indices)]
    return np.stack(picked, dtype=np.float64)


@dataclass
class GlobalHeadParams:
    w: Tensor  # [D, C_g]
    b: Tensor  # [D]


def global_embed(
    videos: list[VideoFeature], indices: list[list[int]], params: GlobalHeadParams
) -> Tensor:
    """Mean-pool each video's selected frame vectors (``indices[v]`` for
    video v), then map affinely into the joint space: [V, D].

    ``indices[v]`` holds the same count N for every video, as in
    :func:`sequential_embed`; differing counts raise ``ShapeError`` naming
    them. The selected frames are gathered into one [V, N, C_g] array and
    pooled by one mean over N, in numpy, since frames are data, not
    parameters; the map is one [V, C_g] -> [V, D] node."""
    frames = _gather("global_embed", [v.global_frames for v in videos], indices)
    pooled = frames.mean(axis=1)
    return broadcast_add(matvec(params.w, Tensor(pooled, copy=False)), params.b)


@dataclass
class AttentionParams:
    w_p: Tensor  # [A, G*G*C_s]   visual branch
    b_p: Tensor  # [A]
    w_q: Tensor  # [A, H]         textual branch
    b_q: Tensor  # [A]
    w_a: Tensor  # [G*G, A]       map head
    b_a: Tensor  # [G*G]


def spatial_attention(grids: np.ndarray, phis: Tensor, params: AttentionParams) -> Tensor:
    """Sentence-conditioned attention over the G x G grid of every frame,
    for every sentence.

    ``grids`` is [V, T, G, G, C_s], the selected frames of V videos, and
    ``phis`` is [Q, H], one sentence vector per row. Returns the map
    [V, Q, T, G*G]: per (video, sentence, frame), a softmax over the cells
    in row-major order of ``tanh(w_a·(p + q) + b_a)``, with the visual
    branch ``p = tanh(w_p·vec(grid) + b_p)`` and the textual branch
    ``q = tanh(w_q·phi + b_q)``. The map head is linear, so it is applied
    to each branch on its own, ``w_a·p`` once per (video, frame) and
    ``w_a·q + b_a`` once per sentence, and only the [V, Q, T, G*G] sum of
    the two is formed per (video, sentence, frame), not the [Q, V, T, A]
    p + q. Its logits differ from those of ``w_a·(p + q)`` by rounding
    only. Grid flattening is row-major (row, column, channel innermost) --
    the visual-branch weight columns are laid out against that order.
    """
    n_v, n_t = grids.shape[:2]
    flat = grids.reshape(n_v, n_t, -1)
    p = tanh(broadcast_add(einsum("af,vtf->vta", params.w_p, flat), params.b_p))
    q = tanh(broadcast_add(einsum("ah,qh->qa", params.w_q, phis), params.b_q))
    p_cells = einsum("ca,vta->vtc", params.w_a, p)
    q_cells = broadcast_add(einsum("ca,qa->qc", params.w_a, q), params.b_a)
    n_q, n_c = q_cells.shape
    p_cells = reshape(p_cells, (n_v, 1, n_t, n_c))
    q_cells = reshape(q_cells, (n_q, 1, n_c))
    # no name holds the [V, Q, T, G*G] logits, so without a tape they are
    # freed as soon as tanh has read them
    return softmax(tanh(broadcast_add(p_cells, q_cells)))


@dataclass
class LstmParams:
    """Single-layer LSTM over flattened attended grid features, with the
    gates i, f, g, o stacked: input weights ``w`` [G*G, C_s, 4, H], cells
    first (row-major, as in ``vec(grid)``), then channels, gates and hidden
    units, so ``w[n, c, k, j]`` is gate k's weight from channel c of cell n
    to hidden unit j; recurrent weights ``u`` [4, H, H] and biases ``b``
    [4, H], gates first."""

    w: Tensor
    u: Tensor
    b: Tensor


@dataclass
class SequentialHeadParams:
    attention: AttentionParams
    lstm: LstmParams


def sequential_embed(
    videos: list[VideoFeature],
    indices: list[list[int]],
    phis: Tensor,
    params: SequentialHeadParams,
) -> Tensor:
    """Attend each selected frame of every video with every sentence vector
    of ``phis`` [Q, H], then run the attended features through the LSTM;
    the final hidden states [V, Q, H] are the sequential embeddings.

    ``indices[v]`` are video v's frames, the same count for every video;
    differing counts raise ``ShapeError`` naming them, as in
    :func:`global_embed`.
    The LSTM input term is factored: ``W·vec(grid ⊙ map) = K·map`` with
    ``K[cell, h] = W[cell, :, h]·grid[cell, :]``, so K is computed once per
    (video, frame) for the four gates together, by one contraction that
    reads ``lstm.w`` [G*G, C_s, 4, H] as stored. The recurrence over the
    steps, batched over [V, Q, H], is one ``lstm_recurrence`` node that
    takes K and the maps, forms each step's input terms from them, and
    reads ``lstm.u`` [4, H, H] and ``lstm.b`` [4, H] as stored.
    """
    grids = _gather("sequential_embed", [v.grid_frames for v in videos], indices)  # [V, T, G, G, C_s]
    n_v, n_t = grids.shape[:2]
    amap = spatial_attention(grids, phis, params.attention)  # [V, Q, T, G*G]

    lstm = params.lstm
    # K [G*G, V, T, 4, H] in the order its matmul lays out, so it is not
    # copied into a transposed layout, and the backward hands lstm.w a
    # contiguous gradient
    k = einsum("ncgj,vtnc->nvtgj", lstm.w, grids.reshape(n_v, n_t, -1, grids.shape[-1]))
    return lstm_recurrence(k, amap, lstm.u, lstm.b)


def action_embed(videos: list[VideoFeature]) -> Tensor:
    """The stored action vectors as one [V, C_a] float64 constant, widened
    exactly and otherwise unchanged; only the text side of this space is
    learned."""
    for video in videos:
        if video.action_vec is None:
            raise SpaceUnavailableError(f"space unavailable: video {video.video_id} has no action features")
    return Tensor(np.stack([v.action_vec for v in videos], dtype=np.float64), copy=False)


def space_similarity(f: Tensor, g: Tensor) -> Tensor:
    """One space's [V, Q] cosine grid between the video embeddings ``f``
    ([V, D], or [V, Q, D] for the sequential space) and the sentence
    embeddings ``g`` [Q, D]."""
    return cosine(f, g)
