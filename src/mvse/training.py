"""Triplet ranking training.

The batch objective compares every matched pair against the in-batch
negatives in both directions, either summing all hinge violations or, in
hardest mode, keeping only the strongest violator per anchor and
direction. The two modes differ only in which grid entries they pick;
one ``hinge_sum`` tape node sums the hinges of either. Plain SGD; all
randomness (shuffling, per-epoch sentence choice, frame sampling)
derives from the run seed, so a run is reproducible bit for bit.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from mvse import fusion
from mvse.autodiff import Tape, Tensor, hinge_sum
from mvse.config import SPACE_SEQUENTIAL, TripletConfig
from mvse.dataio import Dataset, Manifest
from mvse.model import Model
from mvse.visual import VideoFeature, chunk_sample, space_similarity

_SHUFFLE_SALT = 0xB47C
_FRAME_SALT = 0xF3A3E


class TrainingDivergedError(RuntimeError):
    pass


def loss_from_matrix(fused: list[list[Tensor]], alpha: float, mode: str) -> Tensor:
    """Aggregate a B x B fused-similarity grid into the batch loss.

    ``fused[i][j]`` is s(x_i, y_j); diagonal entries are the positives.
    Each anchor i contributes picks (i, j_sentence, j_video), each giving
    two hinges against s(x_i, y_i): the wrong sentence y_{j_sentence} for
    video x_i, then the wrong video x_{j_video} for sentence y_i. Sum-all
    mode picks every j != i for both; hardest mode picks the most similar
    wrong sentence and wrong video (ties to the lowest index). All hinges,
    in that order, are one ``hinge_sum`` node, which reads only the
    picked entries.
    """
    b = len(fused)
    if b < 2 or any(len(row) != b for row in fused):
        raise ValueError(f"similarity grid must be square with size >= 2, got {b}")
    if mode not in ("sum-all", "hardest"):
        raise ValueError(f"unknown negative mode {mode!r}")
    if mode == "sum-all":
        picks = [(i, j, j) for i in range(b) for j in range(b) if j != i]
    else:
        values = np.array([[t.item() for t in row] for row in fused])
        np.fill_diagonal(values, -np.inf)
        picks = zip(range(b), values.argmax(axis=1), values.argmax(axis=0))
    negatives: list[Tensor] = []
    positives: list[Tensor] = []
    for i, j_sentence, j_video in picks:
        negatives += [fused[i][j_sentence], fused[j_video][i]]
        positives += [fused[i][i], fused[i][i]]
    return hinge_sum(negatives, positives, alpha)


def fused_similarity_matrix(
    model: Model,
    videos: list[VideoFeature],
    sentences: list[list[int]],
    fuse_mode: str = "weighted",
    frame_rngs: list[np.random.Generator] | None = None,
) -> list[list[Tensor]]:
    """s(x_i, y_j) for every video i and sentence j: a V x Q grid.

    Sentence vectors, text projections and fusion weights are computed
    once per sentence, and the sentence-independent video embeddings once
    per video; only the sequential head runs per pair (its attention
    depends on the sentence). With ``frame_rngs`` (one per video) the
    global head samples a random frame per chunk; without them it takes
    each chunk's first frame. The sequential head always takes the first.
    """
    n = model.dims.n_chunks
    phis = [model.phi_from_indices(s) for s in sentences]
    text_embs = [model.text_embeddings(phi) for phi in phis]
    weights = [fusion.space_weights(phi, model.params.gate, fuse_mode) for phi in phis]

    statics = []
    idx_seq = []
    for i, v in enumerate(videos):
        mode, rng = ("first", None) if frame_rngs is None else ("random", frame_rngs[i])
        statics.append(model.video_static_embeddings(v, chunk_sample(v.n_frames, n, mode, rng)))
        idx_seq.append(chunk_sample(v.n_frames, n, "first"))

    fused: list[list[Tensor]] = []
    for i, video in enumerate(videos):
        row = []
        for j, phi in enumerate(phis):
            sims = []
            for space in model.spaces:
                if space == SPACE_SEQUENTIAL:
                    f = model.sequential_embedding(video, idx_seq[i], phi)
                else:
                    f = statics[i][space]
                sims.append(space_similarity(f, text_embs[j][space]))
            row.append(fusion.fuse(sims, weights[j]))
        fused.append(row)
    return fused


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
    The logged value is total batch loss divided by pairs processed.
    """
    manifest.validate_against(dataset)
    if not manifest.entries:
        raise ValueError("training manifest is empty")
    entries = manifest.entries
    params = model.params.named()
    loss_log: list[tuple[int, float]] = []

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

        mean_loss = epoch_loss / max(pairs_seen, 1)
        loss_log.append((epoch, mean_loss))
        if log_fn is not None:
            log_fn(epoch, mean_loss)
    return TrainResult(model=model, loss_log=loss_log)
