"""Binary feature container, split manifests, and checkpoint files.

Container layout (all little-endian):

    magic   4 bytes  b"MVSE"
    version u16      CONTAINER_VERSION (1)
    header  10 x u32 V, F, G, C_g, C_s, C_a, vocab_size, E,
                     n_sentences, total_tokens
    global_frames    V*F*C_g float32
    grid_frames      V*F*G*G*C_s float32
    action_vecs      V*C_a float32
    embedding_table  vocab_size*E float32
    sentences        per sentence: u32 length + length x u32 token ids

Every section length is derivable from the header, so a reader can (and
does) reject files with trailing bytes. Floats are stored at 32-bit
precision and a :class:`Dataset` holds them at 32-bit too, so its
in-memory values always equal their on-disk form; the heads widen only
what they gather to 64-bit: frames, action vectors and token rows.
Containers and checkpoints are written to and read from binary streams
section by section, each section straight between the stream and its own
array, so no copy of the whole file is ever held in memory. The sentence section is read as one u32 run
and split after the read: a length that runs past it, or records left
over, raise ``TruncatedError``.

Checkpoints use magic b"MVSC" and their own version, CHECKPOINT_VERSION:
a JSON config echo followed by the named parameter tensors at full 64-bit
precision, sorted by name. Version 2 stores ``lstm.w`` as [G*G, C_s, 4, H];
version 1 stored it as [4, H, G*G, C_s], and since the two shapes are equal
when G*G == 4 and C_s == H, a version-1 checkpoint is rejected rather than
read with its weights permuted.
"""

from __future__ import annotations

import io
import itertools
import json
import math
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import BinaryIO

import numpy as np

from mvse.config import _is_integer_type
from mvse.text import token_ids
from mvse.visual import VideoFeature

CONTAINER_MAGIC = b"MVSE"
CHECKPOINT_MAGIC = b"MVSC"
CONTAINER_VERSION = 1
CHECKPOINT_VERSION = 2
_HEADER = struct.Struct("<10I")
_SECTIONS = ("global_frames", "grid_frames", "action_vecs", "embedding_vectors")


class ContainerError(ValueError):
    """Base for all container/checkpoint format violations."""


class BadMagicError(ContainerError):
    pass


class VersionMismatchError(ContainerError):
    pass


class TruncatedError(ContainerError):
    pass


class TrailingBytesError(ContainerError):
    pass


class ManifestError(ValueError):
    pass


@dataclass
class Dataset:
    """In-memory form of one container file. Every feature section is held
    as a C-contiguous float32 array, the container's precision; a section
    of any other dtype is rounded to float32 on construction."""

    global_frames: np.ndarray       # [V, F, C_g] float32
    grid_frames: np.ndarray         # [V, F, G, G, C_s] float32
    action_vecs: np.ndarray         # [V, C_a] float32; C_a == 0 when absent
    embedding_vectors: np.ndarray   # [vocab, E] float32
    sentences: list[list[int]]

    def __post_init__(self):
        for name, rank in zip(_SECTIONS, (3, 5, 2, 2)):
            section = np.ascontiguousarray(getattr(self, name), dtype=np.float32)
            if section.ndim != rank:
                raise ValueError(f"{name} must have {rank} axes, got shape {section.shape}")
            setattr(self, name, section)
        v = self.global_frames.shape[0]
        if self.grid_frames.shape[0] != v or self.action_vecs.shape[0] != v:
            raise ValueError("per-video sections disagree on video count")
        if v and self.global_frames.shape[1] != self.grid_frames.shape[1]:
            raise ValueError("global and grid sections disagree on frame count")
        if self.grid_frames.shape[2] != self.grid_frames.shape[3]:
            raise ValueError(f"grid section must be [V,F,G,G,C], got {self.grid_frames.shape}")
        token_ids(self.sentences, self.vocab_size)

    # header accessors -------------------------------------------------
    @property
    def n_videos(self) -> int:
        return self.global_frames.shape[0]

    @property
    def n_frames(self) -> int:
        return self.global_frames.shape[1] if self.n_videos else 0

    @property
    def grid(self) -> int:
        return self.grid_frames.shape[2]

    @property
    def c_global(self) -> int:
        return self.global_frames.shape[2]

    @property
    def c_spatial(self) -> int:
        return self.grid_frames.shape[4]

    @property
    def c_action(self) -> int:
        return self.action_vecs.shape[1]

    @property
    def vocab_size(self) -> int:
        return self.embedding_vectors.shape[0]

    @property
    def token_dim(self) -> int:
        return self.embedding_vectors.shape[1]

    @property
    def has_action(self) -> bool:
        return self.c_action > 0

    def video_feature(self, index: int, video_id: str) -> VideoFeature:
        """The features of video ``index`` as views of the dataset's arrays.
        An index that is not an integer by :func:`mvse.config._is_integer_type`
        (a numpy integer is one, a ``bool`` is not) raises ``TypeError``, and
        one outside [0, n_videos) ``IndexError``, each naming it."""
        if not _is_integer_type(type(index)):
            raise TypeError(f"video index {index!r} is not an integer")
        if not 0 <= index < self.n_videos:
            raise IndexError(f"video index {index} out of range [0, {self.n_videos})")
        return VideoFeature(
            video_id=video_id,
            global_frames=self.global_frames[index],
            grid_frames=self.grid_frames[index],
            action_vec=self.action_vecs[index] if self.has_action else None,
        )

    def embedding_table(self) -> np.ndarray:
        """The stored float32 [vocab, E] token table itself, not a copy."""
        return self.embedding_vectors


def default_video_id(index: int) -> str:
    return f"v{index:04d}"


def write_container(ds: Dataset, out: BinaryIO) -> None:
    """Write ``ds`` to the binary stream ``out``, each float section straight
    from its array."""
    total_tokens = sum(len(s) for s in ds.sentences)
    out.write(CONTAINER_MAGIC + struct.pack("<H", CONTAINER_VERSION))
    out.write(
        _HEADER.pack(
            ds.n_videos, ds.n_frames, ds.grid, ds.c_global, ds.c_spatial,
            ds.c_action, ds.vocab_size, ds.token_dim, len(ds.sentences), total_tokens,
        )
    )
    for name in _SECTIONS:
        out.write(np.ascontiguousarray(getattr(ds, name), dtype="<f4"))
    records = itertools.chain.from_iterable((len(s), *s) for s in ds.sentences)
    out.write(np.fromiter(records, dtype="<u4", count=len(ds.sentences) + total_tokens))


class _Reader:
    """Reads a container or checkpoint off a seekable binary stream. Each
    read is checked against the bytes left before anything is allocated for
    it, so a corrupt length raises ``TruncatedError``, not a huge
    allocation."""

    def __init__(self, stream: BinaryIO, kind: str):
        self.stream = stream
        self.kind = kind
        self.pos = stream.tell()
        self.end = stream.seek(0, io.SEEK_END)
        stream.seek(self.pos)

    def preamble(self, magic: bytes, version: int) -> None:
        """Read and check the magic and the u16 version that open the file."""
        found = self.take(4, "magic")
        if found != magic:
            raise BadMagicError(f"bad magic {found!r}, expected {magic!r}")
        (found,) = struct.unpack("<H", self.take(2, "version"))
        if found != version:
            raise VersionMismatchError(f"{self.kind} version {found}, expected {version}")

    def take(self, n: int, what: str) -> bytes:
        return self.array("u1", (n,), what).tobytes()

    def array(self, dtype: str, shape: tuple[int, ...], what: str) -> np.ndarray:
        """The next ``shape`` elements of ``dtype``, read into a new array:
        the one copy between the stream and the caller."""
        n = np.dtype(dtype).itemsize * math.prod(shape)
        if self.pos + n > self.end:
            raise TruncatedError(
                f"{self.kind} truncated while reading {what}: "
                f"need {n} bytes at offset {self.pos}, have {self.end - self.pos}"
            )
        try:
            out = np.empty(shape, dtype)
        except ValueError as exc:  # zero elements, but the other lengths overflow numpy's size
            raise ContainerError(f"{self.kind} {what} has shape {shape}, too large to hold") from exc
        if self.stream.readinto(out) != n:  # the file shrank under the reader
            raise TruncatedError(f"{self.kind} ended early while reading {what}")
        self.pos += n
        return out

    def done(self) -> None:
        if self.pos != self.end:
            raise TrailingBytesError(
                f"{self.kind} has {self.end - self.pos} trailing bytes after last section"
            )


def read_container(stream: BinaryIO) -> Dataset:
    """The dataset a container holds, read from the seekable binary
    ``stream``, each float section straight into its float32 array."""
    r = _Reader(stream, "container")
    r.preamble(CONTAINER_MAGIC, CONTAINER_VERSION)
    v, f, g, c_g, c_s, c_a, vocab, e, n_sent, total_tokens = _HEADER.unpack(
        r.take(_HEADER.size, "header")
    )
    shapes = ((v, f, c_g), (v, f, g, g, c_s), (v, c_a), (vocab, e))
    sections = {name: r.array("<f4", shape, name) for name, shape in zip(_SECTIONS, shapes)}
    records = r.array("<u4", (n_sent + total_tokens,), "sentences").tolist()
    sentences, at, n = [], 0, len(records)
    for i in range(n_sent):
        end = at + 1 + (records[at] if at < n else 0)
        if end > n:
            raise TruncatedError(f"container sentence {i} runs past the sentence section")
        sentences.append(records[at + 1:end])
        at = end
    if at != n:
        raise TruncatedError(f"container sentences leave {n - at} of the section's {n} records unread")
    r.done()
    try:
        return Dataset(**sections, sentences=sentences)
    except ValueError as exc:
        raise ContainerError(f"inconsistent container: {exc}") from exc


def save_container(ds: Dataset, path: str | Path) -> None:
    with open(path, "wb") as out:
        write_container(ds, out)


def load_container(path: str | Path) -> Dataset:
    with open(path, "rb") as stream:
        return read_container(stream)


# ---------------------------------------------------------------------------
# Manifests
# ---------------------------------------------------------------------------


@dataclass
class Manifest:
    """A named split: which videos (by container index) it contains and
    which sentence ids pair with each."""

    split: str
    entries: list[tuple[str, int, tuple[int, ...]]] = field(default_factory=list)

    def queries(self) -> list[tuple[str, int, int]]:
        """(video_id, video_index, sentence_id) triples, one per query."""
        out = []
        for vid, idx, sents in self.entries:
            for s in sents:
                out.append((vid, idx, s))
        return out

    def validate_against(self, ds: Dataset) -> None:
        """Raise ``ManifestError`` naming the first bad entry: a video id
        that is not a ``str``, an index or sentence id that is not a
        non-negative integer by :func:`mvse.config._is_integer_type` (a
        numpy integer is one, a ``bool`` is not), a repeated id or index,
        an index or sentence id outside ``ds``, or an empty sentence."""
        seen: set[tuple[str, str | int]] = set()
        for i, (vid, idx, sents) in enumerate(self.entries):
            if type(vid) is not str:  # frame_rng encodes it, and only when F > N
                raise ManifestError(f"entry {i}: video id {vid!r} is not a str")
            for what, n in [("index", idx), *(("sentence id", s) for s in sents)]:
                if not _is_integer_type(type(n)) or n < 0:  # a float or bool would fail inside numpy
                    raise ManifestError(f"video {vid}: {what} {n!r} is not a non-negative integer")
            for key in (("id", vid), ("index", idx)):
                if key in seen:
                    raise ManifestError(f"video {vid}: {key[0]} {key[1]!r} is listed twice")
                seen.add(key)
            if not 0 <= idx < ds.n_videos:
                raise ManifestError(f"video {vid}: index {idx} not in container (V={ds.n_videos})")
            for s in sents:
                if not 0 <= s < len(ds.sentences):
                    raise ManifestError(f"video {vid}: sentence id {s} not in container")
                if not ds.sentences[s]:  # the GRU has nothing to encode
                    raise ManifestError(f"video {vid}: sentence id {s} is empty")


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------


def write_checkpoint(params: dict[str, np.ndarray], config: dict, out: BinaryIO) -> None:
    """Write the named tensors and the JSON ``config`` to the binary stream
    ``out``, each tensor straight from its C-contiguous little-endian
    float64 array."""
    blob = json.dumps(config, sort_keys=True, separators=(",", ":")).encode("utf-8")
    out.write(CHECKPOINT_MAGIC + struct.pack("<HI", CHECKPOINT_VERSION, len(blob)) + blob)
    out.write(struct.pack("<I", len(params)))
    for name in sorted(params):
        arr = np.ascontiguousarray(params[name], dtype="<f8")
        encoded = name.encode("utf-8")
        out.write(struct.pack("<H", len(encoded)) + encoded)
        out.write(struct.pack(f"<B{arr.ndim}I", arr.ndim, *arr.shape))
        out.write(arr)


def read_checkpoint(stream: BinaryIO) -> tuple[dict[str, np.ndarray], dict]:
    """The tensors and config a checkpoint holds, read from the seekable
    binary ``stream``, each tensor straight into its own array."""
    r = _Reader(stream, "checkpoint")
    r.preamble(CHECKPOINT_MAGIC, CHECKPOINT_VERSION)
    (json_len,) = struct.unpack("<I", r.take(4, "config length"))
    try:
        config = json.loads(r.take(json_len, "config").decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ContainerError(f"checkpoint config is not valid UTF-8 JSON: {exc}") from exc
    (count,) = struct.unpack("<I", r.take(4, "tensor count"))
    params: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<H", r.take(2, "tensor name length"))
        try:
            name = r.take(name_len, "tensor name").decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ContainerError(f"checkpoint tensor name is not valid UTF-8: {exc}") from exc
        if name in params:
            raise ContainerError(f"checkpoint tensor {name} appears twice")
        (rank,) = struct.unpack("<B", r.take(1, "tensor rank"))
        shape = struct.unpack(f"<{rank}I", r.take(4 * rank, "tensor shape"))
        params[name] = r.array("<f8", shape, f"tensor {name}")
    r.done()
    return params, config


def save_checkpoint(params: dict[str, np.ndarray], config: dict, path: str | Path) -> None:
    with open(path, "wb") as out:
        write_checkpoint(params, config, out)


def load_checkpoint(path: str | Path) -> tuple[dict[str, np.ndarray], dict]:
    with open(path, "rb") as stream:
        return read_checkpoint(stream)
