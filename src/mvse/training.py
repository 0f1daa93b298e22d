"""Triplet ranking training.

The batch objective compares every matched pair against the in-batch
negatives in both directions, either summing all hinge violations or, in
hardest mode, keeping only the strongest violator per anchor and
direction. The scorer keeps the fused scores as one [V, Q] tensor (a
:class:`ScoreGrid`), and the two modes differ only in which index pairs
of it they pick; one ``hinge_sum`` tape node reads those entries and sums
the hinges of either. Plain SGD, fused into the backward sweep: the tape
hands each parameter's gradient to :func:`sgd_step` the moment the sweep
has made it final, and keeps no array for it, so no step holds its
parameters' gradients together. All randomness (shuffling, per-epoch
sentence choice, frame sampling) derives from the run seed, so a run is
reproducible bit for bit; ``Model.video_embeddings`` picks the frames
from the run seed and the epoch.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from mvse import fusion
from mvse.autodiff import HingePicks, Tape, Tensor, hinge_sum, stack
from mvse.config import TripletConfig
from mvse.dataio import Dataset, Manifest
from mvse.model import Model
from mvse.visual import VideoFeature, space_similarity

_SHUFFLE_SALT = 0xB47C
_SGD_BLOCK_BYTES = 1 << 16  # sgd_step's scratch for lr * g, and the size it steps whole


class TrainingDivergedError(RuntimeError):
    pass


class ScoreGrid(list):
    """The fused scores of V videos against Q sentences: V rows, each a list
    of Q numpy float64s, read with ``grid[v][q].item()``. ``scores`` is the
    [V, Q] tensor they were read from, the one the loss differentiates."""

    __slots__ = ("scores",)

    def __init__(self, scores: Tensor):
        super().__init__([list(row) for row in scores.data])
        self.scores = scores


def loss_from_matrix(fused: ScoreGrid | list[list[Tensor]], alpha: float, mode: str) -> Tensor:
    """Aggregate a B x B fused-similarity grid into the batch loss.

    ``fused[i][j]`` is s(x_i, y_j); diagonal entries are the positives.
    Each anchor i contributes picks (i, j_sentence, j_video), each giving
    two hinges against s(x_i, y_i): the wrong sentence y_{j_sentence} for
    video x_i, then the wrong video x_{j_video} for sentence y_i. Sum-all
    mode picks every j != i for both; hardest mode picks the most similar
    wrong sentence and wrong video (ties to the lowest index). All hinges,
    in that order, are one ``hinge_sum`` node over index pairs of the
    [B, B] scores: a :class:`ScoreGrid`'s ``scores``, or, for a plain grid
    of 0-d tensors, its rows stacked into one tensor. Both modes hand it
    their index pairs as one :class:`HingePicks`, checked and flattened
    where it is formed. Sum-all's depend on B alone, so they are formed
    once per B and shared, read-only; hardest mode's are formed from each
    grid's values.
    """
    b = len(fused)
    if b < 2 or any(len(row) != b for row in fused):
        raise ValueError(f"similarity grid must be square with size >= 2, got {b}")
    if mode not in ("sum-all", "hardest"):
        raise ValueError(f"unknown negative mode {mode!r}")
    scores = fused.scores if isinstance(fused, ScoreGrid) else stack([stack(row) for row in fused])
    if mode == "sum-all":
        picks = _sum_all_picks(b)
    else:
        values = scores.data.copy()
        np.fill_diagonal(values, -np.inf)
        picks = _picks(b, np.arange(b), values.argmax(axis=1), values.argmax(axis=0))
    return hinge_sum(scores, picks, alpha)


def _picks(b: int, anchor: np.ndarray, j_sentence: np.ndarray, j_video: np.ndarray) -> HingePicks:
    """The :class:`HingePicks` of a ``b`` x ``b`` grid for picks (anchor,
    j_sentence, j_video): per pick, the wrong sentence (i, j_sentence) then
    the wrong video (j_video, i), each against (i, i)."""
    negatives = np.array([anchor, j_video]).T.ravel(), np.array([j_sentence, anchor]).T.ravel()
    diagonal = np.repeat(anchor, 2)
    return HingePicks((b, b), negatives, (diagonal, diagonal))


@functools.lru_cache(maxsize=8)
def _sum_all_picks(b: int) -> HingePicks:
    """Sum-all mode's picks for a B x B grid, every j != i for both hinges,
    formed and checked once per B and shared, read-only, by every batch of
    that size."""
    anchor, other = np.nonzero(~np.eye(b, dtype=bool))  # row-major: by anchor, then j
    return _picks(b, anchor, other, other)


def fused_similarity_matrix(
    model: Model,
    videos: list[VideoFeature],
    sentences: list[list[int]],
    fuse_mode: str = "weighted",
    frame_seed: tuple[int, int] | None = None,
) -> ScoreGrid:
    """s(x_i, y_j) for every video i and sentence j: a V x Q grid.

    The whole grid is a few batched tape nodes: one GRU run gives the
    sentence vectors [Q, H], and from them the text projections [Q, D] per
    space and the fusion weights [Q, M]; the sentence-independent video
    embeddings are [V, D] per space, and the sequential head, whose
    attention depends on the sentence, gives [V, Q, H]. Each space's
    cosines are one [V, Q] grid, and one node fuses the stacked [M, V, Q]
    grids into the scores [V, Q], which the returned :class:`ScoreGrid`
    keeps as one tensor. ``Model.video_embeddings`` picks every head's
    frames, at random for the global head only with a ``frame_seed`` (run
    seed, epoch). No videos raises ``ValueError`` before any compute.
    """
    if not videos:
        raise ValueError("no videos to score")
    phis = model.encode_sentences(sentences)
    weights = fusion.space_weights(phis, model.params.gate, fuse_mode)
    text_embs = model.text_embeddings(phis)

    video_embs = model.video_embeddings(videos, phis, frame_seed)
    sims = stack([space_similarity(video_embs[s], text_embs[s]) for s in model.spaces])
    return ScoreGrid(fusion.fuse(sims, weights))


def batch_loss(
    batch: list[tuple[VideoFeature, list[int]]],
    model: Model,
    config: TripletConfig,
    fuse_mode: str = "weighted",
    epoch: int | None = None,
) -> Tensor:
    """Triplet loss over one mini-batch of (video, sentence) pairs. With an
    ``epoch`` the global head draws its frames from (``config.rng_seed``,
    ``epoch``); without one every head reads each chunk's first frame."""
    if len(batch) < 2:
        raise ValueError(f"batch must contain at least 2 pairs, got {len(batch)}")
    ids = [v.video_id for v, _ in batch]
    if len(set(ids)) != len(ids):
        raise ValueError(f"batch videos must be distinct, got {ids}")
    videos = [v for v, _ in batch]
    sentences = [s for _, s in batch]
    frame_seed = None if epoch is None else (config.rng_seed, epoch)
    fused = fused_similarity_matrix(model, videos, sentences, fuse_mode, frame_seed)
    return loss_from_matrix(fused, config.margin, config.negative_mode)


def sgd_step(param: Tensor, g: np.ndarray, lr: float) -> None:
    """In-place p <- p - lr * g for one parameter.

    A parameter of at most ``_SGD_BLOCK_BYTES`` takes ``p -= lr * g`` whole,
    with no scratch. A larger one forms ``lr * g`` a block of leading-axis
    rows at a time in one scratch buffer of ``_SGD_BLOCK_BYTES``, or of one
    row where a row is larger, so no parameter-sized temporary is made. The
    blocks follow the leading axis, not a flattened view, since a gradient
    may be a transposed view that flattening would copy. Either way every
    element gets the two roundings of ``p - lr * g``."""
    p = param.data
    if g.shape != p.shape:
        raise ValueError(f"gradient shape {g.shape} does not match parameter shape {p.shape}")
    if p.nbytes <= _SGD_BLOCK_BYTES:
        p -= lr * g
        return
    n = max(1, _SGD_BLOCK_BYTES // p[0].nbytes)
    scratch = np.empty((n, *p.shape[1:]))
    for lo in range(0, len(p), n):
        p_block = p[lo: lo + n]
        p_block -= np.multiply(lr, g[lo: lo + n], out=scratch[: len(p_block)])


def train(
    dataset: Dataset,
    manifest: Manifest,
    model: Model,
    config: TripletConfig,
    fuse_mode: str = "weighted",
    log_fn=None,
) -> list[tuple[int, float]]:
    """Optimize the model on the manifest's (video, sentence) pairs, in
    place, and return the loss log: one (epoch, mean loss) per epoch, the
    values also passed to ``log_fn``.

    Each entry's :class:`VideoFeature` is formed once per call, right
    after ``validate_against``, and every batch reads it from there. A
    video that lacks a feature one of the model's spaces reads (a dataset
    without action vectors under a model with the action space) raises
    ``SpaceUnavailableError`` naming the space and the first such video
    (``Model.check_features``), before epoch 0. Each
    epoch shuffles the videos, draws one sentence per video that has one,
    and walks mini-batches of distinct videos; short tails (< 2) are
    dropped. The epoch's sentence draws are one ``integers`` call over the
    shuffled videos' sentence counts, which gives the draws of one scalar
    call per video in that order.
    The logged value is total batch loss divided by pairs processed. Each
    batch passes its epoch to :func:`batch_loss`, so the global head's
    frames derive from the run seed. A manifest with fewer than 2 videos
    that have a sentence never forms a batch, so it raises ``ValueError``
    before epoch 0.

    With a non-zero learning rate, each parameter is stepped during the
    backward sweep, as soon as its gradient is final: the tape hands the
    gradient to :func:`sgd_step` for that one parameter and keeps no
    array for it; the tape's leaves are the parameters, as constants
    enter their ops as ndarrays. So ``lstm.w``'s gradient, the largest,
    dies before the sweep forms ``attn.w_p``'s (the forward reads
    ``attn.w_p`` only before its first read of ``lstm.w``), and a step's
    parameter gradients are dead when its backward returns, before the
    next step's forward starts. A parameter the loss does not reach is
    left as it is, the bytes of ``p - lr * 0``. The tape, with its
    interior gradients, lives until the next step's ``loss`` is bound. At
    learning rate 0 no gradient is handed over and no parameter changes.
    """
    manifest.validate_against(dataset)
    entries = manifest.entries
    features = [dataset.video_feature(idx, vid) for vid, idx, _ in entries]
    model.check_features(features)
    n_sentences = np.array([len(sents) for _, _, sents in entries], dtype=np.int64)
    usable = int(np.count_nonzero(n_sentences))
    if usable < 2:
        raise ValueError(f"training manifest has {usable} videos with a sentence; a batch needs 2")
    lr = config.learning_rate
    update = (lambda param, g: sgd_step(param, g, lr)) if lr else None
    loss_log: list[tuple[int, float]] = []

    for epoch in range(config.epochs):
        rng = np.random.default_rng(
            np.random.SeedSequence([_SHUFFLE_SALT, config.rng_seed, epoch])
        )
        order = rng.permutation(len(entries))
        order = order[n_sentences[order] > 0]
        # one call draws, in order, what one scalar call per video would
        drawn = rng.integers(n_sentences[order])
        chosen = [
            (features[e], dataset.sentences[entries[e][2][k]])
            for e, k in zip(order.tolist(), drawn.tolist())
        ]

        epoch_loss = 0.0
        pairs_seen = 0
        for start in range(0, len(chosen), config.batch_size):
            batch = chosen[start: start + config.batch_size]
            if len(batch) < 2:
                break
            with Tape(update) as tape:
                loss = batch_loss(batch, model, config, fuse_mode, epoch)
                value = loss.item()
                if not math.isfinite(value):
                    raise TrainingDivergedError(
                        f"non-finite loss {value} in epoch {epoch}, batch starting at "
                        f"{start} (videos {[video.video_id for video, _ in batch]})"
                    )
                tape.backward(loss)
            epoch_loss += value
            pairs_seen += len(batch)

        mean_loss = epoch_loss / pairs_seen
        loss_log.append((epoch, mean_loss))
        if log_fn is not None:
            log_fn(epoch, mean_loss)
    return loss_log
