"""Visual embedding heads: global (mean-pooled appearance), sequential
(sentence-conditioned spatial attention feeding an LSTM), and the action
space, whose video side is an externally extracted vector passed through
unchanged. Per-space similarity is cosine, as one [V, Q] grid per space.
Every head is batched over the videos: the global head gives a [V, D]
tensor, and the action space its [V, C_a] constant ndarray.

The sequential head depends on the sentence, so it yields one embedding
per (video, sentence) pair. It scores a V x Q grid in a factored form:
the attention's visual branch with its share of the map head's logits,
and the LSTM's input weights applied to each grid cell, are computed once
per (video, frame), the textual branch's share of the logits once per
sentence, and only the sum of the two shares, its softmax over the cells
and the recurrence run per pair, batched. The logit shares are formed
once for all V videos; the per-cell input terms, the maps and the
recurrence are formed one block of videos at a time, in one loop. Without
a tape a block is as many videos as keep one recurrence step's working
set, 10·Q·H + 4·G*G·H + Q·G*G floats per video, within 1 MiB, at least 2,
and, where ``lstm.w`` is larger than 8 MiB, at least 256 rows of K's
product (a floor measured to save time from a 12.2 MiB ``lstm.w`` up,
and to cost time at 3.1 MiB and below, mid dims' 2 MiB included), so
the head's transients grow with the block, not with the gallery; under a
tape the loop runs once, over all V. Every entry of a block's terms is
computed from that block's rows alone, so the blocks give the bytes of
one block of all V. The recurrence is one ``lstm_recurrence`` tape node
that takes the per-cell input terms and the maps and forms each step's input terms as it reaches
that step, so no tensor holds the input terms of every step of the grid.
It steps its block hidden-major, as [H, V*Q] states and one contiguous
[H, V*Q] block per gate, and hands back the [V, Q, H] embeddings as their
own array, not as a view that would keep its step buffers alive.
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
    active_tape,
    broadcast_add,
    cosine,
    einsum,
    lstm_recurrence,
    matvec,
    reshape,
    softmax,
    tanh,
)


# bytes that one recurrence step of an untaped block of videos reads and
# writes: half of a 2 MiB L2, so the step's working set stays in cache
_SCAN_BLOCK_BYTES = 1 << 20
# rows of a block's K product, T per video, that keep it bound by arithmetic
# where it must read lstm.w from memory
_K_ROWS = 256
# bytes of lstm.w above which every block's K product is taken to read it
# from memory, so the block is raised to _K_ROWS rows (measured in
# scan_block's docstring)
_K_FLOOR_BYTES = 8 << 20


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
    """Row ``indices[v]`` of ``frames[v]`` for every video, written one video
    at a time into a [V, N, ...] float64 array. This is the one place stored
    frames are widened: only the selected frames are, and f4 -> f8 is exact,
    so the heads compute on the stored values. Every video needs the same
    count N and frame shape; differing ones raise ``ShapeError`` naming them."""
    counts = sorted({len(idx) for idx in indices})
    if len(counts) > 1:
        raise ShapeError(
            kind, *((c,) for c in counts), detail="need the same frame index count for every video"
        )
    shapes = sorted({f.shape[1:] for f in frames})
    if len(shapes) > 1:
        raise ShapeError(kind, *shapes, detail="need the same frame shape for every video")
    out = np.empty((len(frames), *counts, *shapes[0]))
    for row, f, idx in zip(out, frames, indices, strict=True):
        row[...] = f[np.asarray(idx, dtype=np.int64)]
    return out


def global_embed(videos: list[VideoFeature], indices: list[list[int]], w: Tensor, b: Tensor) -> Tensor:
    """Mean-pool each video's selected frame vectors (``indices[v]`` for
    video v), then map affinely into the joint space by ``w`` [D, C_g] and
    ``b`` [D]: [V, D]. The map is a bare (w, b) pair, as each text
    projection is; a head's parameters form a record only where they are a
    group of three or more tensors (:class:`AttentionParams`,
    :class:`LstmParams`).

    ``indices[v]`` holds the same count N for every video, as in
    :func:`sequential_embed`; differing counts raise ``ShapeError`` naming
    them. The selected frames are gathered into one [V, N, C_g] array and
    pooled by one mean over N, in numpy, since frames are data, not
    parameters; the map is one [V, C_g] -> [V, D] node over that constant."""
    frames = _gather("global_embed", [v.global_frames for v in videos], indices)
    return broadcast_add(matvec(w, frames.mean(axis=1)), b)


@dataclass
class AttentionParams:
    w_p: Tensor  # [A, G*G*C_s]   visual branch
    b_p: Tensor  # [A]
    w_q: Tensor  # [A, H]         textual branch
    b_q: Tensor  # [A]
    w_a: Tensor  # [G*G, A]       map head
    b_a: Tensor  # [G*G]


def attention_logits(grids: np.ndarray, phis: Tensor, params: AttentionParams) -> tuple[Tensor, Tensor]:
    """The map head's logits of the sentence-conditioned attention, in its
    two shares, which :func:`spatial_attention` adds per (video, sentence,
    frame).

    ``grids`` is [V, T, G, G, C_s], the selected frames of V videos, and
    ``phis`` is [Q, H], one sentence vector per row. The logits are
    ``w_a·(p + q) + b_a``, with the visual branch
    ``p = tanh(w_p·vec(grid) + b_p)`` and the textual branch
    ``q = tanh(w_q·phi + b_q)``. The map head is linear, so it is applied
    to each branch on its own: the visual share ``w_a·p`` [V, T, G*G] once
    per (video, frame) and the textual share ``w_a·q + b_a`` [Q, G*G] once
    per sentence, and the [Q, V, T, A] p + q is never formed. Their sum
    differs from ``w_a·(p + q) + b_a`` by rounding only. Grid flattening is
    row-major (row, column, channel innermost) -- the visual-branch weight
    columns are laid out against that order.
    """
    n_v, n_t = grids.shape[:2]
    flat = grids.reshape(n_v, n_t, -1)
    p = tanh(broadcast_add(einsum("af,vtf->vta", params.w_p, flat), params.b_p))
    q = tanh(broadcast_add(einsum("ah,qh->qa", params.w_q, phis), params.b_q))
    p_cells = einsum("ca,vta->vtc", params.w_a, p)
    return p_cells, broadcast_add(einsum("ca,qa->qc", params.w_a, q), params.b_a)


def spatial_attention(p_cells: Tensor, q_cells: Tensor) -> Tensor:
    """The attention map [V, Q, T, G*G] from the two shares of
    :func:`attention_logits`, the visual ``p_cells`` [V, T, G*G] and the
    textual ``q_cells`` [Q, G*G]: per (video, sentence, frame), a softmax
    over the cells, in row-major order, of ``tanh(p_cells + q_cells)``.
    Every entry is computed from its own row of each share, so the map of a
    block of videos is that block's rows of the map of all of them."""
    n_v, n_t, n_c = p_cells.shape
    p_cells = reshape(p_cells, (n_v, 1, n_t, n_c))
    q_cells = reshape(q_cells, (q_cells.shape[0], 1, n_c))
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


def video_blocks(n_videos: int, step: int) -> list[tuple[int, int]]:
    """``[lo, hi)`` runs of ``step`` videos that cover ``n_videos`` once, in
    order. A 1-video tail joins the run before it, so no run is one video
    unless all are: a 1-row GEMM goes through gemv and rounds otherwise
    than the same row of a larger product."""
    starts = list(range(0, n_videos, step))
    if len(starts) > 1 and n_videos - starts[-1] == 1:
        starts.pop()
    return list(zip(starts, starts[1:] + [n_videos]))


def scan_block(n_q: int, n_t: int, n_cells: int, c_s: int, n_h: int) -> int:
    """How many videos the untaped sequential head scores at a time against
    Q sentences, at T steps, G*G cells of C_s channels and H hidden units:
    as many as keep what one step of the recurrence reads and writes within
    ``_SCAN_BLOCK_BYTES``, and at least 2. Per video that is its share of
    the recurrence's workspace, 10·Q·H floats, the step's slab of K,
    G*G·4H floats, and the step's maps, Q·G*G floats. Each block's K is one
    product with ``lstm.w`` [G*G, C_s, 4, H]; where ``lstm.w`` is larger
    than ``_K_FLOOR_BYTES`` (8 MiB), the product reads it from memory once
    per block, so the block also holds at least ``_K_ROWS`` of its rows, T
    per video. On an untaped 32 x 8 gallery at grid 7, H 128 and T 4
    (``WIDE_DIMS`` with C_s from 8 to 512; medians of 7 calls, one BLAS
    thread), one floored block took 1.3x and 1.6x the time of step-budget
    blocks of 3 at a 1.5 and a 3.1 MiB ``lstm.w``, and the blocks of 3
    took 1.1x, 1.7-1.9x, 1.7x and 1.7x the floored block's time at 12.2,
    24.5, 49 and 98 MiB. At mid dims (2 MiB) one block of 32 took 1.0-1.2x
    the time of blocks of 14. So mid dims score in the step budget's
    blocks, each block's K freed once its recurrence has run. At
    ``Dims()`` a 32-video gallery took 1.55x the time of one block in
    blocks of 2, and 1.08-1.13x in blocks of 13."""
    per_video = 8 * (10 * n_q * n_h + 4 * n_cells * n_h + n_q * n_cells)
    block = _SCAN_BLOCK_BYTES // per_video
    if 8 * n_cells * c_s * 4 * n_h > _K_FLOOR_BYTES:
        block = max(block, -(-_K_ROWS // n_t))
    return max(2, block)


def sequential_embed(
    videos: list[VideoFeature],
    indices: list[list[int]],
    phis: Tensor,
    attention: AttentionParams,
    lstm: LstmParams,
) -> Tensor:
    """Attend each selected frame of every video with every sentence vector
    of ``phis`` [Q, H], then run the attended features through the LSTM;
    the final hidden states [V, Q, H] are the sequential embeddings. The
    head reads its two parameter groups, ``attention`` and ``lstm``, as
    they are handed in: each is a record because it groups three or more
    tensors, while an affine map is a bare (w, b) pair.

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

    The frames are gathered and widened once, and the attention's logit
    shares (:func:`attention_logits`) formed once, for all V videos. Then
    one loop scores the videos a block at a time: a block's K, its maps
    (through :func:`spatial_attention`) and its recurrence. Without a tape
    a block is :func:`scan_block` videos (:func:`video_blocks`), so what
    the head holds besides the frames and the [V, Q, H] output grows with
    the block, not with V; each block's rows equal those of one block of
    all V byte for byte. Under a tape the loop runs once, over all V, so
    the backward forms ``lstm.w``'s gradient in one contraction.
    """
    grids = _gather("sequential_embed", [v.grid_frames for v in videos], indices)  # [V, T, G, G, C_s]
    n_v, n_t = grids.shape[:2]
    frames = grids.reshape(n_v, n_t, -1, grids.shape[-1])  # [V, T, G*G, C_s]
    p_cells, q_cells = attention_logits(grids, phis, attention)
    n_q, n_h = phis.shape[0], lstm.b.shape[-1]
    step = n_v if active_tape() is not None else scan_block(n_q, n_t, *frames.shape[2:], n_h)
    blocks = video_blocks(n_v, step)

    def block(lo: int, hi: int) -> Tensor:
        # the taped call's one block reads the shares themselves; an untaped
        # block's share is a view of its rows
        p_block = p_cells if hi - lo == n_v else Tensor(p_cells.data[lo:hi])
        amap = spatial_attention(p_block, q_cells)  # [V, Q, T, G*G]
        # K [G*G, V, T, 4, H] in the order its matmul lays out, so it is not
        # copied into a transposed layout, and the backward hands lstm.w a
        # contiguous gradient
        k = einsum("ncgj,vtnc->nvtgj", lstm.w, frames[lo:hi])
        return lstm_recurrence(k, amap, lstm.u, lstm.b)

    if len(blocks) == 1:
        return block(0, n_v)
    out = np.empty((n_v, n_q, n_h))
    for lo, hi in blocks:
        out[lo:hi] = block(lo, hi).data
    return Tensor(out)


def action_embed(videos: list[VideoFeature]) -> np.ndarray:
    """The stored action vectors as one [V, C_a] float64 ndarray, widened
    exactly and otherwise unchanged: a constant, which :func:`cosine` gives
    no node, since only the text side of this space is learned."""
    for video in videos:
        if video.action_vec is None:
            raise SpaceUnavailableError(f"space unavailable: video {video.video_id} has no action features")
    return np.stack([v.action_vec for v in videos], dtype=np.float64)


def space_similarity(f: Tensor | np.ndarray, g: Tensor) -> Tensor:
    """One space's [V, Q] cosine grid between the video embeddings ``f``
    ([V, D], or [V, Q, D] for the sequential space; the action space's is a
    constant ndarray) and the sentence embeddings ``g`` [Q, D]."""
    return cosine(f, g)
