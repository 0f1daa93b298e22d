"""Model assembly: parameter construction, naming, and the batched
embeddings that training and retrieval score.

Every learnable tensor is addressable as "module.name" in a flat map so
the optimizer and the checkpoint format stay format-agnostic about the
architecture. ``_build_params`` is the one place a tensor gets its name:
it records each tensor in that map as it makes it, and the heads' own
parameter groups carry no names. One GRU run encodes all Q sentences of
a call into [Q, H]; each active space then applies its own affine
projection to the shared sentence vectors, [Q, D]. The
sentence-independent video embeddings are [V, D] per space, and the
sequential head gives [V, Q, H]. ``Model.video_embeddings`` is the one
place that decides which frames each video head reads.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

from mvse.autodiff import Tensor
from mvse.config import (
    SPACE_ACTION,
    SPACE_GLOBAL,
    SPACE_SEQUENTIAL,
    Dims,
    _require_integer,
    resolve_spaces,
)
from mvse.dataio import ContainerError
from mvse.text import GruParams, gru_encode, project_text
from mvse.visual import (
    AttentionParams,
    LstmParams,
    VideoFeature,
    action_embed,
    chunk_sample,
    global_embed,
    require_action,
    sequential_embed,
)

_INIT_SALT = 0x1417
_FRAME_SALT = 0xF3A3E
_INIT_CHUNK_BYTES = 64 << 20  # init_params fills a tensor or gate block this much at a time


def _init_fill(view: np.ndarray, name: str, fan_in: int, seed: int) -> None:
    """Fill ``view`` in place, uniform in [-1/sqrt(fan_in), +1/sqrt(fan_in)],
    from one stream independently seeded per name, so adding a space never
    shifts other initializations. Each double takes one 64-bit draw of the
    stream, so filling at most ``_INIT_CHUNK_BYTES`` of leading-axis rows at
    a time, or one row where a row is larger, gives the bytes of one whole
    draw of the view's shape."""
    rng = np.random.default_rng(
        np.random.SeedSequence([_INIT_SALT, seed, zlib.crc32(name.encode())])
    )
    bound = 1.0 / np.sqrt(fan_in)
    rows = max(1, _INIT_CHUNK_BYTES // (8 * math.prod(view.shape[1:])))
    for lo in range(0, len(view), rows):
        view[lo: lo + rows] = rng.uniform(-bound, bound, size=view[lo: lo + rows].shape)


def frame_rng(seed: int, epoch: int, video_id: str) -> np.random.Generator:
    """Per-(run, epoch, video) generator: reproducible, varies across epochs."""
    return np.random.default_rng(
        np.random.SeedSequence([_FRAME_SALT, seed, epoch, zlib.crc32(video_id.encode())])
    )


@dataclass
class ModelParams:
    """All learnable tensors of the configured architecture, grouped by the
    head that reads them. Each affine map is a bare (w, b) pair:
    ``projections`` maps each space to its text projection's, and
    ``global_head`` is the global head's (w [D, C_g], b [D]). A group of
    three or more tensors is a record (``gru``, ``attention``, ``lstm``).
    A head's fields are None unless its space is configured. ``tensors``
    holds the same tensor objects by checkpoint name, in the order
    ``_build_params`` made and named them; no other code names a tensor."""

    dims: Dims
    spaces: tuple[str, ...]
    gru: GruParams
    projections: dict[str, tuple[Tensor, Tensor]]
    global_head: tuple[Tensor, Tensor] | None
    attention: AttentionParams | None
    lstm: LstmParams | None
    gate: Tensor  # [M, H]
    tensors: dict[str, Tensor]

    def named(self) -> dict[str, Tensor]:
        """A fresh name -> tensor map of every parameter."""
        return dict(self.tensors)


def _build_params(
    dims: Dims, spaces: tuple[str, ...], source: Callable[[str, tuple[int, ...], int], np.ndarray]
) -> ModelParams:
    """The architecture's tensors, each taken from ``source(name, shape,
    fan_in)``: a seeded draw for a new model, a checkpoint array when
    loading. Each is recorded under its name as it is made."""
    h, e, d = dims.hidden, dims.token_dim, dims.embed_dim
    a, flat = dims.attn_dim, dims.grid_flat
    tensors: dict[str, Tensor] = {}

    def t(name, shape, fan_in):
        tensors[name] = Tensor(source(name, shape, fan_in))
        return tensors[name]

    gru = GruParams(w=t("gru.w", (3, h, e), e), u=t("gru.u", (3, h, h), h), b=t("gru.b", (3, h), h))

    projections = {}
    for space in spaces:
        out = dims.c_action if space == SPACE_ACTION else d  # action meets the stored [C_a] vectors
        projections[space] = (t(f"proj.{space}.w", (out, h), h), t(f"proj.{space}.b", (out,), h))

    global_head = None
    if SPACE_GLOBAL in spaces:
        c = dims.c_global
        global_head = (t("head.global.w", (d, c), c), t("head.global.b", (d,), c))

    attention = lstm = None
    if SPACE_SEQUENTIAL in spaces:
        attention = AttentionParams(
            w_p=t("attn.w_p", (a, flat), flat), b_p=t("attn.b_p", (a,), flat),
            w_q=t("attn.w_q", (a, h), h), b_q=t("attn.b_q", (a,), h),
            w_a=t("attn.w_a", (dims.grid_cells, a), a), b_a=t("attn.b_a", (dims.grid_cells,), a),
        )
        lstm = LstmParams(
            w=t("lstm.w", (dims.grid_cells, dims.c_spatial, 4, h), flat),
            u=t("lstm.u", (4, h, h), h),
            b=t("lstm.b", (4, h), h),
        )

    return ModelParams(
        dims=dims, spaces=tuple(spaces), gru=gru, projections=projections,
        global_head=global_head, attention=attention, lstm=lstm,
        gate=t("gate.w", (len(spaces), h), h), tensors=tensors,
    )


# the gate letters of each recurrence whose tensors stack one block per gate
_STACKED_GATES = {"gru": "zrc", "lstm": "ifgo"}


def init_params(dims: Dims, spaces: tuple[str, ...], seed: int) -> ModelParams:
    """Every tensor drawn from its own name's stream of the init ``seed``, a
    non-negative integer; any other seed raises ``ValueError`` naming it."""
    _require_integer("seed", seed, 0)

    def draw(name, shape, fan_in):
        # filled in place, so besides the tensor only one chunk of
        # _INIT_CHUNK_BYTES (or one row) of its draw is held at a time
        out = np.empty(shape)
        gates = _STACKED_GATES.get(name.partition(".")[0])
        if gates is None:
            _init_fill(out, name, fan_in, seed)
            return out
        # one block per gate, each from its own name's stream (gru.w_z, lstm.w_i, ...)
        for n, gate in enumerate(gates):
            # lstm.w is stored [G*G, C_s, 4, H], each block drawn as [H, G*G, C_s]
            block = out[:, :, n].transpose(2, 0, 1) if name == "lstm.w" else out[n]
            _init_fill(block, f"{name}_{gate}", fan_in, seed)
        if name == "lstm.b":
            out[1] = 1.0  # forget gate starts open
        return out

    return _build_params(dims, spaces, draw)


def params_from_arrays(
    dims: Dims, spaces: tuple[str, ...], arrays: dict[str, np.ndarray]
) -> ModelParams:
    """Rebuild a ModelParams whose tensors hold the given arrays (used when
    loading a checkpoint); nothing is drawn. A name set or a shape that does
    not match the architecture raises ``ContainerError``."""
    wrong_shapes: list[str] = []

    def load(name, shape, fan_in):
        if name not in arrays:
            return np.empty(0)  # reported as missing below
        arr = np.ascontiguousarray(arrays[name], dtype=np.float64)
        if arr.shape != shape:
            wrong_shapes.append(f"checkpoint tensor {name} has shape {arr.shape}, expected {shape}")
        return arr

    params = _build_params(dims, spaces, load)
    missing = params.tensors.keys() - arrays.keys()
    extra = arrays.keys() - params.tensors.keys()
    if missing or extra:
        raise ContainerError(
            f"checkpoint parameter mismatch: missing {sorted(missing)}, unexpected {sorted(extra)}"
        )
    if wrong_shapes:
        raise ContainerError(wrong_shapes[0])
    return params


class Model:
    """Bundles parameters with the token table and exposes the batched
    embeddings that training and retrieval score: sentence vectors [Q, H],
    per-space text embeddings [Q, D], sentence-independent video
    embeddings [V, D] and the sequential head's [V, Q, H]. The [vocab, E]
    ``table`` is held by reference, as the videos' frames are: the
    corpus's float32 array is never copied, and the GRU widens only the
    rows it gathers. A table of any other shape than [vocab,
    dims.token_dim] raises ``ValueError`` naming both."""

    def __init__(self, params: ModelParams, table: np.ndarray):
        if table.ndim != 2 or table.shape[1] != params.dims.token_dim:
            raise ValueError(
                f"token table must be [vocab, {params.dims.token_dim}] (dims.token_dim), got {table.shape}"
            )
        self.params = params
        self.table = table

    @property
    def dims(self) -> Dims:
        return self.params.dims

    @property
    def spaces(self) -> tuple[str, ...]:
        return self.params.spaces

    @classmethod
    def new(cls, dims: Dims, spaces: str, seed: int, table: np.ndarray) -> "Model":
        """A freshly initialised model for the named space set (e.g. "triple")."""
        return cls(init_params(dims, resolve_spaces(spaces), seed), table)

    # -- sentence side ------------------------------------------------

    def encode_sentences(self, sentences: list[list[int]]) -> Tensor:
        """The GRU's final hidden state of every sentence: [Q, H]."""
        return gru_encode(sentences, self.table, self.params.gru)

    def text_embeddings(self, phis: Tensor) -> dict[str, Tensor]:
        """Each space's projection of the sentence vectors [Q, H]: [Q, D]."""
        return {space: project_text(phis, *self.params.projections[space]) for space in self.spaces}

    # -- video side ----------------------------------------------------

    def check_features(self, videos: list[VideoFeature]) -> None:
        """Raise ``SpaceUnavailableError`` naming the space and the first
        video that lacks a feature one of the model's spaces reads. Every
        video has its frames, so only the action space's vectors can be
        missing (:func:`mvse.visual.require_action`)."""
        if SPACE_ACTION in self.spaces:
            require_action(videos)

    def video_embeddings(
        self, videos: list[VideoFeature], phis: Tensor, frame_seed: tuple[int, int] | None = None
    ) -> dict[str, Tensor | np.ndarray]:
        """Every space's video embeddings: [V, D] (a constant ndarray for
        the action space), or [V, Q, H] for the sequential head, which
        attends with the sentence vectors ``phis``. Each head reads each
        chunk's first frame, except that with ``frame_seed = (run seed,
        epoch)`` the global head draws one per chunk from
        :func:`frame_rng`, built only where a chunk can draw. The first
        frames depend on the frame count alone, so they are picked once per
        distinct count in the call, and videos of one count share that
        list."""
        n = self.dims.n_chunks
        counts = [v.n_frames for v in videos]
        firsts = {f: chunk_sample(f, n) for f in set(counts)}
        starts = [firsts[f] for f in counts]
        out: dict[str, Tensor | np.ndarray] = {}
        if SPACE_GLOBAL in self.spaces:
            drawn = [
                chunk_sample(f, n, frame_rng(*frame_seed, v.video_id))
                if frame_seed is not None and f > n else idx
                for v, f, idx in zip(videos, counts, starts)
            ]
            out[SPACE_GLOBAL] = global_embed(videos, drawn, *self.params.global_head)
        if SPACE_ACTION in self.spaces:
            out[SPACE_ACTION] = action_embed(videos)
        if SPACE_SEQUENTIAL in self.spaces:
            out[SPACE_SEQUENTIAL] = sequential_embed(videos, starts, phis, self.params.attention, self.params.lstm)
        return out
