"""Triplet ranking training.

The batch objective compares every matched pair against the in-batch
negatives in both directions, either summing all hinge violations or, in
hardest mode, keeping only the strongest violator per anchor and
direction. The scorer keeps the fused scores as one [V, Q] tensor (a
:class:`ScoreGrid`), and the two modes differ only in which index pairs
of it they pick; one ``hinge_sum`` tape node reads those entries and sums
the hinges of either. Plain SGD; all randomness (shuffling, per-epoch
sentence choice, frame sampling) derives from the run seed, so a run is
reproducible bit for bit.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from mvse import fusion
from mvse.autodiff import Tape, Tensor, hinge_sum, stack
from mvse.config import SPACE_SEQUENTIAL, TripletConfig
from mvse.dataio import Dataset, Manifest
from mvse.model import Model
from mvse.visual import VideoFeature, chunk_sample, space_similarity

_SHUFFLE_SALT = 0xB47C
_FRAME_SALT = 0xF3A3E


class TrainingDivergedError(RuntimeError):
    pass


class ScoreGrid(list):
    """The fused scores of V videos against Q sentences: V rows, each a list
    of Q numpy float64s, read with ``grid[v][q].item()``. ``scores`` is the
    [V, Q] tensor they were read from, the one the loss differentiates."""

    __slots__ = ("scores",)

    def __init__(self, scores: Tensor):
        super().__init__(list(row) for row in scores.data)
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
    of 0-d tensors, its rows stacked into one tensor.
    """
    b = len(fused)
    if b < 2 or any(len(row) != b for row in fused):
        raise ValueError(f"similarity grid must be square with size >= 2, got {b}")
    if mode not in ("sum-all", "hardest"):
        raise ValueError(f"unknown negative mode {mode!r}")
    scores = fused.scores if isinstance(fused, ScoreGrid) else stack([stack(row) for row in fused])
    if mode == "sum-all":
        anchor, other = np.nonzero(~np.eye(b, dtype=bool))  # row-major: by anchor, then j
        j_sentence = j_video = other
    else:
        values = scores.data.copy()
        np.fill_diagonal(values, -np.inf)
        anchor, j_sentence, j_video = np.arange(b), values.argmax(axis=1), values.argmax(axis=0)
    # per pick, the wrong sentence (i, j_sentence) then the wrong video (j_video, i)
    negatives = (
        np.stack([anchor, j_video], axis=1).ravel(), np.stack([j_sentence, anchor], axis=1).ravel()
    )
    diagonal = np.repeat(anchor, 2)
    return hinge_sum(scores, negatives, (diagonal, diagonal), alpha)


def fused_similarity_matrix(
    model: Model,
    videos: list[VideoFeature],
    sentences: list[list[int]],
    fuse_mode: str = "weighted",
    frame_rngs: list[np.random.Generator] | None = None,
) -> ScoreGrid:
    """s(x_i, y_j) for every video i and sentence j: a V x Q grid.

    The whole grid is a few batched tape nodes: one GRU run gives the
    sentence vectors [Q, H], and from them the text projections [Q, D] per
    space and the fusion weights [Q, M]; the sentence-independent video
    embeddings are [V, D] per space, and the sequential head, whose
    attention depends on the sentence, gives [V, Q, H]. Each space's
    cosines are one [V, Q] grid, and one node fuses the stacked [M, V, Q]
    grids into the scores [V, Q], which the returned :class:`ScoreGrid`
    keeps as one tensor. With ``frame_rngs`` (one per video) the global
    head samples a random frame per chunk; without them it takes each
    chunk's first frame. The sequential head always takes the first. No
    videos, or a ``frame_rngs`` of another length than ``videos``, raises
    ``ValueError`` before any compute.
    """
    if not videos:
        raise ValueError("no videos to score")
    if frame_rngs is not None and len(frame_rngs) != len(videos):
        raise ValueError(f"{len(frame_rngs)} frame generators for {len(videos)} videos")
    n = model.dims.n_chunks
    phis = model.encode_sentences(sentences)
    weights = fusion.space_weights(phis, model.params.gate, fuse_mode)
    text_embs = model.text_embeddings(phis)

    rngs = frame_rngs or [None] * len(videos)
    idx_global = [chunk_sample(v.n_frames, n, rng) for v, rng in zip(videos, rngs)]
    video_embs = model.video_static_embeddings(videos, idx_global)
    if SPACE_SEQUENTIAL in model.spaces:
        idx_seq = [chunk_sample(v.n_frames, n) for v in videos]
        video_embs[SPACE_SEQUENTIAL] = model.sequential_embedding(videos, idx_seq, phis)

    sims = stack([space_similarity(video_embs[s], text_embs[s]) for s in model.spaces])
    return ScoreGrid(fusion.fuse(sims, weights))


def batch_loss(
    batch: list[tuple[VideoFeature, list[int]]],
    model: Model,
    config: TripletConfig,
    fuse_mode: str = "weighted",
    frame_rngs: list[np.random.Generator] | None = None,
) -> Tensor:
    """Triplet loss over one mini-batch of (video, sentence) pairs."""
    if len(batch) < 2:
        raise ValueError(f"batch must contain at least 2 pairs, got {len(batch)}")
    ids = [v.video_id for v, _ in batch]
    if len(set(ids)) != len(ids):
        raise ValueError(f"batch videos must be distinct, got {ids}")
    videos = [v for v, _ in batch]
    sentences = [s for _, s in batch]
    fused = fused_similarity_matrix(model, videos, sentences, fuse_mode, frame_rngs)
    return loss_from_matrix(fused, config.margin, config.negative_mode)


def sgd_step(params: dict[str, Tensor], grads: dict[str, np.ndarray], lr: float) -> None:
    """In-place p <- p - lr * g for every named parameter."""
    for name, tensor in params.items():
        g = grads.get(name)
        if g is None:
            raise ValueError(f"missing gradient for parameter {name}")
        if g.shape != tensor.data.shape:
            raise ValueError(
                f"gradient shape {g.shape} does not match parameter {name} {tensor.data.shape}"
            )
        tensor.data -= lr * g


def frame_rng(seed: int, epoch: int, video_id: str) -> np.random.Generator:
    """Per-(run, epoch, video) generator: reproducible, varies across epochs."""
    return np.random.default_rng(
        np.random.SeedSequence([_FRAME_SALT, seed, epoch, zlib.crc32(video_id.encode())])
    )


@dataclass
class TrainResult:
    model: Model
    loss_log: list[tuple[int, float]]


def train(
    dataset: Dataset,
    manifest: Manifest,
    model: Model,
    config: TripletConfig,
    fuse_mode: str = "weighted",
    log_fn=None,
) -> TrainResult:
    """Optimize the model on the manifest's (video, sentence) pairs.

    Each epoch shuffles the videos, draws one sentence per video, and
    walks mini-batches of distinct videos; short tails (< 2) are dropped.
    The logged value is total batch loss divided by pairs processed. When
    the videos have more frames than the model has chunks, each batch
    builds one :func:`frame_rng` per video and the global head samples a
    random frame per chunk. Otherwise no chunk holds two frames, so no
    generator is built and each chunk's start is taken, the frame a
    generator would have given. A manifest with fewer than 2 videos that
    have a sentence never forms a batch, so it raises ``ValueError``
    before epoch 0.
    """
    manifest.validate_against(dataset)
    entries = manifest.entries
    usable = sum(1 for _, _, sents in entries if sents)
    if usable < 2:
        raise ValueError(f"training manifest has {usable} videos with a sentence; a batch needs 2")
    params = model.params.named()
    loss_log: list[tuple[int, float]] = []
    # chunk_sample draws only when some chunk holds two or more frames
    sample_frames = dataset.n_frames > model.dims.n_chunks

    for epoch in range(config.epochs):
        rng = np.random.default_rng(
            np.random.SeedSequence([_SHUFFLE_SALT, config.rng_seed, epoch])
        )
        order = rng.permutation(len(entries))
        chosen: list[tuple[str, int, int]] = []
        for e in order:
            vid, idx, sents = entries[e]
            if not sents:
                continue
            chosen.append((vid, idx, sents[int(rng.integers(len(sents)))]))

        epoch_loss = 0.0
        pairs_seen = 0
        for start in range(0, len(chosen), config.batch_size):
            group = chosen[start: start + config.batch_size]
            if len(group) < 2:
                break
            batch = [
                (dataset.video_feature(idx, vid), dataset.sentences[sent])
                for vid, idx, sent in group
            ]
            rngs = None
            if sample_frames:
                rngs = [frame_rng(config.rng_seed, epoch, vid) for vid, _, _ in group]
            with Tape() as tape:
                loss = batch_loss(batch, model, config, fuse_mode, rngs)
                value = loss.item()
                if not np.isfinite(value):
                    raise TrainingDivergedError(
                        f"non-finite loss {value} in epoch {epoch}, batch starting at "
                        f"{start} (videos {[g[0] for g in group]})"
                    )
                tape.backward(loss)
                grads = {name: tape.grad(t) for name, t in params.items()}
            if config.learning_rate:
                sgd_step(params, grads, config.learning_rate)
            epoch_loss += value
            pairs_seen += len(group)

        mean_loss = epoch_loss / pairs_seen
        loss_log.append((epoch, mean_loss))
        if log_fn is not None:
            log_fn(epoch, mean_loss)
    return TrainResult(model=model, loss_log=loss_log)
