"""Sentence side: one GRU over a batch of sentences, and the per-space
affine projections of the sentence vectors, all batched over the
sentences ([Q, H] in, [Q, D] out). The GRU stores its three gates
stacked, like the sequential head's LSTM: its input terms are one
contraction, and its recurrence is one ``gru_recurrence`` tape node.

Sentences arrive as lists of token ids into a frozen [vocab, E] float
table, which is what a container stores; there is no tokenizer and no
word vocabulary. The table stands in for a pre-trained word-vector model.
The GRU reads it as it is handed, the corpus's float32 array in place,
and widens only the rows it gathers; they enter the tape as plain
constants, so the table never appears on it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from mvse.autodiff import Tensor, broadcast_add, einsum, gru_recurrence, matvec
from mvse.config import _is_integer_type


class EmptySentenceError(ValueError):
    pass


@dataclass
class GruParams:
    """The update gate z, reset gate r and candidate c, stacked on the
    leading axis in that order: input weights ``w`` [3, H, E], recurrent
    weights ``u`` [3, H, H] and biases ``b`` [3, H]."""

    w: Tensor
    u: Tensor
    b: Tensor


def _sentence_of(sentences: list[list[int]], k: int) -> int:
    """The index of the sentence that holds token ``k`` of the concatenation."""
    return int(np.searchsorted(np.cumsum([len(s) for s in sentences]), k, side="right"))


def token_ids(sentences: list[list[int]], vocab: int) -> np.ndarray:
    """Every sentence's token ids, concatenated into one int64 array; the
    one check on ids, for the container and the GRU. An id that is not an
    integer by :func:`mvse.config._is_integer_type` (``1.5``, ``True``,
    ``np.bool_``), which int64 would silently truncate, or that lies
    outside [0, vocab) raises ``ValueError`` naming it and its sentence."""
    flat = list(itertools.chain.from_iterable(sentences))
    if not all(map(_is_integer_type, set(map(type, flat)))):
        k = next(k for k, t in enumerate(flat) if not _is_integer_type(type(t)))
        raise ValueError(f"sentence {_sentence_of(sentences, k)}: token id {flat[k]!r} is not an integer")
    ids = np.fromiter(flat, dtype=np.int64, count=len(flat))
    outside = (ids < 0) | (ids >= vocab)
    if outside.any():
        k = int(outside.argmax())
        raise ValueError(f"sentence {_sentence_of(sentences, k)}: token id {ids[k]} outside [0, {vocab})")
    return ids


def gru_encode(sentences: list[list[int]], table: np.ndarray, params: GruParams) -> Tensor:
    """Encode every sentence, a list of token ids into ``table`` [vocab, E],
    with one GRU batched over the sentences; return the final hidden states
    [Q, H].

    Standard gate equations with a zero initial state:
        z = sigmoid(Wz x + Uz h + bz)
        r = sigmoid(Wr x + Ur h + br)
        c = tanh(Wc x + Uc (r * h) + bc)
        h_new = (1 - z) * h + z * c
    A table that is not 2-D, or a token id that is not an integer or lies
    outside [0, vocab) (:func:`token_ids`), raises ``ValueError`` first.
    The table is read in place at its own dtype: only the gathered token
    rows are widened, into a zero-padded float64 [Q, T, E] constant (f4 ->
    f8 is exact, so a float32 table gives the bytes of its float64
    widening). The input terms ``W x`` of all gates and steps come from one
    contraction into [Q, T, 3, H] before the recurrence, which adds the
    biases. A mask m in {0, 1} [Q] per step stops each sentence at its own
    last token: h' = m·h_new + (1 − m)·h, computed
    as ``(1 − m·z)·h + m·z·c``, which for m in {0, 1} gives exactly h_new or
    h. The recurrence over all steps is one ``gru_recurrence`` node, so the
    tape holds the same number of nodes for any sentence length.
    """
    if table.ndim != 2:
        raise ValueError(f"embedding table must be [V, E], got {table.shape}")
    lengths = [len(s) for s in sentences]
    if not lengths or min(lengths) < 1:
        raise EmptySentenceError("empty sentence" if lengths else "no sentences")
    ids = token_ids(sentences, table.shape[0])
    n_q, n_t = len(sentences), max(lengths)
    steps = np.arange(n_t)[None, :] < np.asarray(lengths)[:, None]  # [Q, T]
    tokens = np.zeros((n_q, n_t, table.shape[1]))
    tokens[steps] = table[ids]
    mask = steps.astype(np.float64)
    x = einsum("gje,qte->qtgj", params.w, tokens)  # [Q, T, 3, H]
    return gru_recurrence(x, params.u, params.b, mask)


def project_text(phis: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """g(y) = W phi + b for every sentence vector, with one space's
    projection (W, b): [Q, H] -> [Q, D]."""
    return broadcast_add(matvec(w, phis), b)
