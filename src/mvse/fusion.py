"""Mixture-of-Experts similarity aggregation.

Per-space similarities are merged by a weighted sum whose weights come
from a softmax over a linear map of the sentence vector -- the gate sees
only the sentence, never the video, so the weights are computed once per
sentence, [Q, M] for a batch of Q sentences and M spaces, and reused
across a whole gallery. :func:`fuse` merges the stacked [M, V, Q]
similarity grids with them into the [V, Q] score grid as one tape node.
"average" mode bypasses the gate with uniform weights (the ablation
baseline), a constant ndarray that gets no tape node.
"""

from __future__ import annotations

import numpy as np

from mvse.autodiff import ShapeError, Tensor, einsum, matvec, softmax


def gate_weights(phis: Tensor, gate: Tensor) -> Tensor:
    """Sentence-dependent softmax weights over the embedding spaces, from
    the gate's [M, H] weight (no bias, matching the gate's defining form):
    [Q, H] -> [Q, M]."""
    return softmax(matvec(gate, phis))


def fuse(similarities: Tensor, weights: Tensor | np.ndarray) -> Tensor:
    """Weighted sum over the spaces, one tape node:
    ``out[v, q] = Σ_m similarities[m, v, q] · weights[q, m]`` for the
    stacked per-space grids [M, V, Q] and the weights [Q, M], a tensor or an ndarray."""
    s, w = similarities.shape, weights.shape
    if len(s) != 3 or len(w) != 2 or (s[0], s[2]) != (w[1], w[0]):
        raise ShapeError("fuse", s, w, detail="expected [M,V,Q] similarities and [Q,M] weights")
    return einsum("mvq,qm->vq", similarities, weights)


def space_weights(phis: Tensor, gate: Tensor, mode: str) -> Tensor | np.ndarray:
    """The fusion weights of every sentence vector, [Q, H] -> [Q, M], for
    the gate's [M, H] weight: the gate's softmax in "weighted" mode, and in
    "average" mode uniform, as a constant ndarray."""
    if mode == "weighted":
        return gate_weights(phis, gate)
    if mode == "average":
        m = gate.shape[0]
        return np.full((*phis.shape[:-1], m), 1.0 / m)
    raise ValueError(f"unknown fuse mode {mode!r}; expected 'weighted' or 'average'")

