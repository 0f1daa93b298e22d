"""Sentence side: token embedding lookup, GRU encoding, and the
per-space affine projections of the sentence vector.

Sentences arrive as lists of token ids into a frozen float table, which
is what a container stores; there is no tokenizer and no word
vocabulary. The table stands in for a pre-trained word-vector model;
lookups produce plain constants, so it never appears on a gradient tape.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from mvse.autodiff import Tensor, add, matvec, mul, sigmoid, tanh
from mvse.config import SPACE_ACTION, SPACE_GLOBAL, SPACE_SEQUENTIAL, Dims


class EmptySentenceError(ValueError):
    pass


@dataclass
class EmbeddingTable:
    """Frozen token-vector table, one row per token id."""

    vectors: np.ndarray  # [V, E]

    def __post_init__(self):
        self.vectors = np.ascontiguousarray(self.vectors, dtype=np.float64)
        if self.vectors.ndim != 2:
            raise ValueError(f"embedding table must be [V, E], got {self.vectors.shape}")


def lookup_indices(indices: list[int], table_vectors: np.ndarray) -> Tensor:
    """Stack the rows of the given token ids into a [T, E] constant."""
    if len(indices) == 0:
        raise EmptySentenceError("empty sentence")
    return Tensor(table_vectors[np.asarray(indices, dtype=np.int64)])


@dataclass
class GruParams:
    """Update gate z, reset gate r, candidate c; input->hidden and
    hidden->hidden matrices plus biases."""

    w_z: Tensor
    u_z: Tensor
    b_z: Tensor
    w_r: Tensor
    u_r: Tensor
    b_r: Tensor
    w_c: Tensor
    u_c: Tensor
    b_c: Tensor

    def named(self, prefix: str = "gru") -> dict[str, Tensor]:
        return {f"{prefix}.{k}": v for k, v in vars(self).items()}


def gru_encode(token_vectors: Tensor, params: GruParams) -> Tensor:
    """Run the token vectors through a GRU; return the final hidden state.

    Standard gate equations with a zero initial state:
        z = sigmoid(Wz x + Uz h + bz)
        r = sigmoid(Wr x + Ur h + br)
        c = tanh(Wc x + Uc (r * h) + bc)
        h' = (1 - z) * h + z * c
    """
    t_steps = token_vectors.data.shape[0]
    if t_steps < 1:
        raise EmptySentenceError("empty sentence")
    hidden = params.b_z.data.shape[0]
    h = Tensor(np.zeros(hidden))
    for t in range(t_steps):
        x = Tensor(token_vectors.data[t])
        z = sigmoid(add(add(matvec(params.w_z, x), matvec(params.u_z, h)), params.b_z))
        r = sigmoid(add(add(matvec(params.w_r, x), matvec(params.u_r, h)), params.b_r))
        c = tanh(add(add(matvec(params.w_c, x), matvec(params.u_c, mul(r, h))), params.b_c))
        h = add(mul(1.0 - z, h), mul(z, c))
    return h


@dataclass
class TextProjections:
    """Per-space affine maps applied to the sentence vector."""

    weights: dict[str, tuple[Tensor, Tensor]] = field(default_factory=dict)

    def named(self) -> dict[str, Tensor]:
        out = {}
        for space, (w, b) in self.weights.items():
            out[f"proj.{space}.w"] = w
            out[f"proj.{space}.b"] = b
        return out


_VALID_SPACES = (SPACE_GLOBAL, SPACE_SEQUENTIAL, SPACE_ACTION)


def project_text(phi: Tensor, space: str, projections: TextProjections) -> Tensor:
    """g_space(y) = W phi + b for the requested embedding space."""
    if space not in _VALID_SPACES:
        raise ValueError(f"unknown embedding space {space!r}; expected one of {_VALID_SPACES}")
    if space not in projections.weights:
        raise ValueError(f"space {space!r} has no configured text projection")
    w, b = projections.weights[space]
    return add(matvec(w, phi), b)


def projection_out_dim(space: str, dims: Dims) -> int:
    if space == SPACE_ACTION:
        return dims.c_action
    return dims.embed_dim
