"""Binary feature container, split manifests, and checkpoint files.

Container layout (all little-endian):

    magic   4 bytes  b"MVSE"
    version u16      currently 1
    header  10 x u32 V, F, G, C_g, C_s, C_a, vocab_size, E,
                     n_sentences, total_tokens
    global_frames    V*F*C_g float32
    grid_frames      V*F*G*G*C_s float32
    action_vecs      V*C_a float32
    embedding_table  vocab_size*E float32
    sentences        per sentence: u32 length + length x u32 token ids

Every section length is derivable from the header, so a reader can (and
does) reject files with trailing bytes. Floats are stored at 32-bit
precision and widened to 64-bit in memory; generated datasets are rounded
to 32-bit before use so in-memory values always equal their on-disk form.

Checkpoints use magic b"MVSC": a JSON config echo followed by the named
parameter tensors at full 64-bit precision, sorted by name.

Manifests are a line-oriented text format, see :class:`Manifest`.
"""

from __future__ import annotations

import io
import json
import math
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from mvse.text import EmbeddingTable
from mvse.visual import VideoFeature

CONTAINER_MAGIC = b"MVSE"
CHECKPOINT_MAGIC = b"MVSC"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<10I")


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


def _f32_round(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float32).astype(np.float64)


@dataclass
class Dataset:
    """In-memory form of one container file."""

    global_frames: np.ndarray       # [V, F, C_g]
    grid_frames: np.ndarray         # [V, F, G, G, C_s]
    action_vecs: np.ndarray         # [V, C_a]; C_a == 0 when absent
    embedding_vectors: np.ndarray   # [vocab, E]
    sentences: list[list[int]]

    def __post_init__(self):
        v = self.global_frames.shape[0]
        if self.grid_frames.shape[0] != v or self.action_vecs.shape[0] != v:
            raise ValueError("per-video sections disagree on video count")
        if v and self.global_frames.shape[1] != self.grid_frames.shape[1]:
            raise ValueError("global and grid sections disagree on frame count")
        if self.grid_frames.ndim != 5 or self.grid_frames.shape[2] != self.grid_frames.shape[3]:
            raise ValueError(f"grid section must be [V,F,G,G,C], got {self.grid_frames.shape}")
        vocab = self.embedding_vectors.shape[0]
        for i, s in enumerate(self.sentences):
            if any(not 0 <= t < vocab for t in s):
                raise ValueError(f"sentence {i} references token outside vocabulary")

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

    def video_feature(self, index: int, video_id: str | None = None) -> VideoFeature:
        if not 0 <= index < self.n_videos:
            raise IndexError(f"video index {index} out of range [0, {self.n_videos})")
        return VideoFeature(
            video_id=video_id if video_id is not None else default_video_id(index),
            global_frames=self.global_frames[index],
            grid_frames=self.grid_frames[index],
            action_vec=self.action_vecs[index] if self.has_action else None,
        )

    def embedding_table(self) -> EmbeddingTable:
        return EmbeddingTable(vectors=self.embedding_vectors)


def default_video_id(index: int) -> str:
    return f"v{index:04d}"


def write_container(ds: Dataset) -> bytes:
    total_tokens = sum(len(s) for s in ds.sentences)
    buf = io.BytesIO()
    buf.write(CONTAINER_MAGIC)
    buf.write(struct.pack("<H", FORMAT_VERSION))
    buf.write(
        _HEADER.pack(
            ds.n_videos, ds.n_frames, ds.grid, ds.c_global, ds.c_spatial,
            ds.c_action, ds.vocab_size, ds.token_dim, len(ds.sentences), total_tokens,
        )
    )
    for arr in (ds.global_frames, ds.grid_frames, ds.action_vecs, ds.embedding_vectors):
        buf.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())
    for s in ds.sentences:
        buf.write(struct.pack("<I", len(s)))
        buf.write(np.asarray(s, dtype="<u4").tobytes())
    return buf.getvalue()


class _Reader:
    def __init__(self, blob: bytes):
        self.blob = blob
        self.pos = 0

    def take(self, n: int, what: str) -> bytes:
        if self.pos + n > len(self.blob):
            raise TruncatedError(
                f"container truncated while reading {what}: "
                f"need {n} bytes at offset {self.pos}, have {len(self.blob) - self.pos}"
            )
        out = self.blob[self.pos: self.pos + n]
        self.pos += n
        return out

    def floats(self, count: int, what: str) -> np.ndarray:
        raw = self.take(4 * count, what)
        return np.frombuffer(raw, dtype="<f4").astype(np.float64)

    def done(self, kind: str) -> None:
        if self.pos != len(self.blob):
            raise TrailingBytesError(
                f"{kind} has {len(self.blob) - self.pos} trailing bytes after last section"
            )


def read_container(blob: bytes) -> Dataset:
    r = _Reader(blob)
    magic = r.take(4, "magic")
    if magic != CONTAINER_MAGIC:
        raise BadMagicError(f"bad magic {magic!r}, expected {CONTAINER_MAGIC!r}")
    (version,) = struct.unpack("<H", r.take(2, "version"))
    if version != FORMAT_VERSION:
        raise VersionMismatchError(f"container version {version}, expected {FORMAT_VERSION}")
    v, f, g, c_g, c_s, c_a, vocab, e, n_sent, total_tokens = _HEADER.unpack(
        r.take(_HEADER.size, "header")
    )
    global_frames = r.floats(v * f * c_g, "global_frames").reshape(v, f, c_g)
    grid_frames = r.floats(v * f * g * g * c_s, "grid_frames").reshape(v, f, g, g, c_s)
    action_vecs = r.floats(v * c_a, "action_vecs").reshape(v, c_a)
    table = r.floats(vocab * e, "embedding_table").reshape(vocab, e)
    sentences: list[list[int]] = []
    seen_tokens = 0
    for i in range(n_sent):
        (length,) = struct.unpack("<I", r.take(4, f"sentence {i} length"))
        ids = np.frombuffer(r.take(4 * length, f"sentence {i}"), dtype="<u4")
        seen_tokens += length
        sentences.append([int(t) for t in ids])
    if seen_tokens != total_tokens:
        raise TruncatedError(
            f"header promises {total_tokens} sentence tokens, sections carry {seen_tokens}"
        )
    r.done("container")
    try:
        return Dataset(
            global_frames=global_frames, grid_frames=grid_frames,
            action_vecs=action_vecs, embedding_vectors=table, sentences=sentences,
        )
    except ValueError as exc:
        raise ContainerError(f"inconsistent container: {exc}") from exc


def save_container(ds: Dataset, path: str | Path) -> None:
    Path(path).write_bytes(write_container(ds))


def load_container(path: str | Path) -> Dataset:
    return read_container(Path(path).read_bytes())


# ---------------------------------------------------------------------------
# Manifests
# ---------------------------------------------------------------------------


def _manifest_int(text: str, lineno: int, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ManifestError(f"line {lineno}: {what} {text!r} is not an integer") from None


@dataclass
class Manifest:
    """A named split: which videos (by container index) it contains and
    which sentence ids pair with each.

    Text form::

        # mvse manifest
        format: 1
        split: train
        videos: 2
        video v0000 0 : 0 1
        video v0001 1 : 2 3
    """

    split: str
    entries: list[tuple[str, int, tuple[int, ...]]] = field(default_factory=list)

    def queries(self) -> list[tuple[str, int, int]]:
        """(video_id, video_index, sentence_id) triples, one per query."""
        out = []
        for vid, idx, sents in self.entries:
            for s in sents:
                out.append((vid, idx, s))
        return out

    def to_text(self) -> str:
        lines = ["# mvse manifest", "format: 1", f"split: {self.split}", f"videos: {len(self.entries)}"]
        for vid, idx, sents in self.entries:
            # the text form splits a video line on whitespace and on its first ':'
            if not vid or ":" in vid or any(c.isspace() for c in vid):
                raise ManifestError(f"video id {vid!r} is empty or holds whitespace or ':'")
            lines.append(f"video {vid} {idx} : " + " ".join(str(s) for s in sents))
        return "\n".join(lines) + "\n"

    @staticmethod
    def from_text(text: str) -> "Manifest":
        split = None
        promised = None
        entries: list[tuple[str, int, tuple[int, ...]]] = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if line.startswith("format:"):
                if line.split(":", 1)[1].strip() != "1":
                    raise ManifestError(f"line {lineno}: unsupported manifest format")
                continue
            if line.startswith("split:"):
                if split is not None:
                    raise ManifestError(f"line {lineno}: second 'split:' line")
                split = line.split(":", 1)[1].strip()
                continue
            if line.startswith("videos:"):
                if promised is not None:
                    raise ManifestError(f"line {lineno}: second 'videos:' line")
                promised = _manifest_int(line.split(":", 1)[1].strip(), lineno, "video count")
                continue
            if line.startswith("video "):
                head, colon, tail = line.partition(":")
                parts = head.split()
                if len(parts) != 3 or not colon:
                    raise ManifestError(f"line {lineno}: expected 'video <id> <index> : <sentences>'")
                vid, idx = parts[1], _manifest_int(parts[2], lineno, "video index")
                sents = tuple(_manifest_int(s, lineno, "sentence id") for s in tail.split())
                entries.append((vid, idx, sents))
                continue
            raise ManifestError(f"line {lineno}: unrecognized manifest line {line!r}")
        if split is None:
            raise ManifestError("manifest missing 'split:' line")
        if promised is not None and promised != len(entries):
            raise ManifestError(f"manifest promises {promised} videos, lists {len(entries)}")
        return Manifest(split=split, entries=entries)

    def validate_against(self, ds: Dataset) -> None:
        seen: set[tuple[str, str | int]] = set()
        for vid, idx, sents in self.entries:
            for key in (("id", vid), ("index", idx)):
                if key in seen:
                    raise ManifestError(f"video {vid}: {key[0]} {key[1]!r} is listed twice")
                seen.add(key)
            if not 0 <= idx < ds.n_videos:
                raise ManifestError(f"video {vid}: index {idx} not in container (V={ds.n_videos})")
            for s in sents:
                if not 0 <= s < len(ds.sentences):
                    raise ManifestError(f"video {vid}: sentence id {s} not in container")

    def save(self, path: str | Path) -> None:
        Path(path).write_text(self.to_text())

    @staticmethod
    def load(path: str | Path) -> "Manifest":
        return Manifest.from_text(Path(path).read_text())


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------


def write_checkpoint(params: dict[str, np.ndarray], config: dict) -> bytes:
    buf = io.BytesIO()
    buf.write(CHECKPOINT_MAGIC)
    buf.write(struct.pack("<H", FORMAT_VERSION))
    blob = json.dumps(config, sort_keys=True, separators=(",", ":")).encode("utf-8")
    buf.write(struct.pack("<I", len(blob)))
    buf.write(blob)
    buf.write(struct.pack("<I", len(params)))
    for name in sorted(params):
        arr = np.ascontiguousarray(params[name], dtype=np.float64)
        encoded = name.encode("utf-8")
        buf.write(struct.pack("<H", len(encoded)))
        buf.write(encoded)
        buf.write(struct.pack("<B", arr.ndim))
        buf.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
        buf.write(arr.astype("<f8").tobytes())
    return buf.getvalue()


def read_checkpoint(blob: bytes) -> tuple[dict[str, np.ndarray], dict]:
    r = _Reader(blob)
    magic = r.take(4, "magic")
    if magic != CHECKPOINT_MAGIC:
        raise BadMagicError(f"bad magic {magic!r}, expected {CHECKPOINT_MAGIC!r}")
    (version,) = struct.unpack("<H", r.take(2, "version"))
    if version != FORMAT_VERSION:
        raise VersionMismatchError(f"checkpoint version {version}, expected {FORMAT_VERSION}")
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
        data = np.frombuffer(r.take(8 * math.prod(shape), f"tensor {name}"), dtype="<f8")
        params[name] = data.reshape(shape).copy()
    r.done("checkpoint")
    return params, config


def save_checkpoint(params: dict[str, np.ndarray], config: dict, path: str | Path) -> None:
    Path(path).write_bytes(write_checkpoint(params, config))


def load_checkpoint(path: str | Path) -> tuple[dict[str, np.ndarray], dict]:
    return read_checkpoint(Path(path).read_bytes())
