"""Mixture-of-Experts similarity aggregation.

Per-space similarities are merged by a weighted sum whose weights come
from a softmax over a linear map of the sentence vector -- the gate sees
only the sentence, never the video, so the weights are computed once per
sentence, [Q, M] for a batch of Q sentences and M spaces, and reused
across a whole gallery. :func:`fuse` merges the stacked [M, V, Q]
similarity grids with them into the [V, Q] score grid as one tape node.
"average" mode bypasses the gate with uniform weights (the ablation
baseline).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from mvse.autodiff import ShapeError, Tensor, einsum, matvec, softmax


@dataclass
class GateParams:
    w: Tensor  # [M, H]; no bias, matching the gate's defining form

    @property
    def n_spaces(self) -> int:
        return self.w.data.shape[0]


def gate_weights(phis: Tensor, params: GateParams) -> Tensor:
    """Sentence-dependent softmax weights over the embedding spaces:
    [Q, H] -> [Q, M]."""
    return softmax(matvec(params.w, phis))


def fuse(similarities: Tensor, weights: Tensor) -> Tensor:
    """Weighted sum over the spaces, one tape node:
    ``out[v, q] = Σ_m similarities[m, v, q] · weights[q, m]`` for the
    stacked per-space grids [M, V, Q] and the weights [Q, M]."""
    s, w = similarities.data.shape, weights.data.shape
    if len(s) != 3 or len(w) != 2 or (s[0], s[2]) != (w[1], w[0]):
        raise ShapeError("fuse", s, w, detail="expected [M,V,Q] similarities and [Q,M] weights")
    return einsum("mvq,qm->vq", similarities, weights)


def space_weights(phis: Tensor, gate: GateParams, mode: str) -> Tensor:
    """The fusion weights of every sentence vector, [Q, H] -> [Q, M]: the
    gate's softmax in "weighted" mode, uniform in "average" mode."""
    if mode == "weighted":
        return gate_weights(phis, gate)
    if mode == "average":
        m = gate.n_spaces
        return Tensor(np.full((*phis.shape[:-1], m), 1.0 / m))
    raise ValueError(f"unknown fuse mode {mode!r}; expected 'weighted' or 'average'")

