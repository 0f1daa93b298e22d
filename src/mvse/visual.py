"""Visual embedding heads: global (mean-pooled appearance), sequential
(sentence-conditioned spatial attention feeding an LSTM), and the action
space, whose video side is an externally extracted vector passed through
unchanged. Per-space similarity is cosine.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from mvse.autodiff import (
    Tensor,
    add,
    cosine,
    matvec,
    mean_over_axis,
    mul,
    reshape,
    scale_cells,
    sigmoid,
    softmax,
    tanh,
)


class SpaceUnavailableError(ValueError):
    """The dataset lacks the features this embedding space needs."""


@dataclass
class VideoFeature:
    """Precomputed per-video features as ingested from the container."""

    video_id: str
    global_frames: np.ndarray        # [F, C_g]
    grid_frames: np.ndarray          # [F, G, G, C_s]
    action_vec: np.ndarray | None    # [C_a]

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
    n_frames: int,
    n_chunks: int,
    mode: str = "first",
    rng: np.random.Generator | None = None,
) -> list[int]:
    """Pick one frame index per chunk; indices are nondecreasing.

    Chunk i covers [floor(i*F/N), floor((i+1)*F/N)). "first" takes the
    chunk start and ignores ``rng``; "random" draws uniformly inside the
    chunk from ``rng``, which it requires. Short videos (F < N) repeat
    frames deterministically because empty chunks collapse onto their
    start boundary.
    """
    if n_frames < 1 or n_chunks < 1:
        raise ValueError(f"need n_frames >= 1 and n_chunks >= 1, got {n_frames}, {n_chunks}")
    if mode not in ("first", "random"):
        raise ValueError(f"unknown sampling mode {mode!r}")
    if mode == "random" and rng is None:
        raise ValueError("'random' sampling needs a generator")
    indices = []
    for i in range(n_chunks):
        lo = (i * n_frames) // n_chunks
        hi = ((i + 1) * n_frames) // n_chunks
        if mode == "random" and hi > lo + 1:
            indices.append(int(rng.integers(lo, hi)))
        else:
            indices.append(lo)
    return indices


@dataclass
class GlobalHeadParams:
    w: Tensor  # [D, C_g]
    b: Tensor  # [D]

    def named(self) -> dict[str, Tensor]:
        return {"head.global.w": self.w, "head.global.b": self.b}


def global_embed(video: VideoFeature, indices: list[int], params: GlobalHeadParams) -> Tensor:
    """Mean-pool the selected frame vectors, then map affinely into the
    joint space."""
    selected = Tensor(video.global_frames[np.asarray(indices, dtype=np.int64)])
    pooled = mean_over_axis(selected, 0)
    return add(matvec(params.w, pooled), params.b)


@dataclass
class AttentionParams:
    w_p: Tensor  # [A, G*G*C_s]   visual branch
    b_p: Tensor  # [A]
    w_q: Tensor  # [A, H]         textual branch
    b_q: Tensor  # [A]
    w_a: Tensor  # [G*G, A]       map head
    b_a: Tensor  # [G*G]

    def named(self) -> dict[str, Tensor]:
        return {f"attn.{k}": v for k, v in vars(self).items()}


def spatial_attention(
    grid_frame: np.ndarray,
    phi: Tensor,
    params: AttentionParams,
) -> tuple[Tensor, Tensor]:
    """Sentence-conditioned attention over the G x G grid of one frame.

    Returns (map, attended): the map is a softmax over all cells, the
    attended feature multiplies each cell's channels by its map weight.
    Grid flattening is row-major (row, column, channel innermost) -- the
    visual-branch weight columns are laid out against that order.
    """
    grid = Tensor(grid_frame)
    g1, g2, _ = grid.data.shape
    flat = reshape(grid, (grid.data.size,))
    p = tanh(add(matvec(params.w_p, flat), params.b_p))
    q = tanh(add(matvec(params.w_q, phi), params.b_q))
    logits = tanh(add(matvec(params.w_a, add(p, q)), params.b_a))
    amap = reshape(softmax(logits), (g1, g2))
    attended = scale_cells(grid, amap)
    return amap, attended


@dataclass
class LstmParams:
    """Single-layer LSTM over flattened attended grid features."""

    w_i: Tensor
    u_i: Tensor
    b_i: Tensor
    w_f: Tensor
    u_f: Tensor
    b_f: Tensor
    w_g: Tensor
    u_g: Tensor
    b_g: Tensor
    w_o: Tensor
    u_o: Tensor
    b_o: Tensor

    def named(self) -> dict[str, Tensor]:
        return {f"lstm.{k}": v for k, v in vars(self).items()}


@dataclass
class SequentialHeadParams:
    attention: AttentionParams
    lstm: LstmParams

    def named(self) -> dict[str, Tensor]:
        return {**self.attention.named(), **self.lstm.named()}


def _lstm_step(x: Tensor, h: Tensor, c: Tensor, p: LstmParams) -> tuple[Tensor, Tensor]:
    i = sigmoid(add(add(matvec(p.w_i, x), matvec(p.u_i, h)), p.b_i))
    f = sigmoid(add(add(matvec(p.w_f, x), matvec(p.u_f, h)), p.b_f))
    g = tanh(add(add(matvec(p.w_g, x), matvec(p.u_g, h)), p.b_g))
    o = sigmoid(add(add(matvec(p.w_o, x), matvec(p.u_o, h)), p.b_o))
    c_next = add(mul(f, c), mul(i, g))
    h_next = mul(o, tanh(c_next))
    return h_next, c_next


def sequential_embed(
    video: VideoFeature,
    indices: list[int],
    phi: Tensor,
    params: SequentialHeadParams,
) -> Tensor:
    """Attend each selected frame with the sentence vector, then run the
    attended features through the LSTM; the final hidden state is the
    video's sequential embedding."""
    hidden = params.lstm.b_i.data.shape[0]
    h = Tensor(np.zeros(hidden))
    c = Tensor(np.zeros(hidden))
    for idx in indices:
        _, attended = spatial_attention(video.grid_frames[idx], phi, params.attention)
        x = reshape(attended, (attended.data.size,))
        h, c = _lstm_step(x, h, c, params.lstm)
    return h


def action_embed(video: VideoFeature) -> Tensor:
    """The stored action vector, unchanged; only the text side of this
    space is learned."""
    if video.action_vec is None:
        raise SpaceUnavailableError(f"space unavailable: video {video.video_id} has no action features")
    return Tensor(video.action_vec)


def space_similarity(f: Tensor, g: Tensor) -> Tensor:
    return cosine(f, g)
