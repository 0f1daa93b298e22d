"""Synthetic planted-correlation corpus.

Each video gets a quantized latent code. The code is cut into three
slices whose sizes follow the signal split rho = (global, sequential,
action):

* the global slice is mixed linearly into every frame's appearance
  vector;
* the sequential slice is mixed into the grid features after a cyclic
  shift by the frame position, so the information is keyed to frame
  ORDER (order-agnostic pooling averages the shifts out);
* the action slice is mixed into the per-video action vector.

Sentences are token sequences that spell out the quantized code, one
token per (dimension, level) pair, prefixed with a marker token. A slot
table of (marker, code dims) rows says what each of a video's sentences
spells: in "full" mode slot s is (s, every dim); in "split" mode it is
(0, global slice) or (1, sequential slice) as s is even or odd, which
creates two query populations whose useful evidence lives in different
embedding spaces.

Because the generative code is known, tests can decode sentences exactly
and compute information-theoretic ceilings for single-space probes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from mvse.config import SPACE_ACTION, SPACE_GLOBAL, SPACE_SEQUENTIAL, Dims, _require_integer
from mvse.dataio import Dataset, Manifest, default_video_id
from mvse.visual import video_blocks

_STREAMS = ("codes", "mix_global", "mix_grid", "mix_action", "noise", "table")
_GRID_CHUNK_BYTES = 1 << 26  # float64 bytes of grid values per chunk of videos


@dataclass
class SynthConfig:
    dims: Dims
    n_videos: int = 200
    sentences_per_video: int = 2
    rho: tuple[float, float, float] = (1.0, 0.0, 0.0)
    noise_sigma: float = 0.05
    seed: int = 0
    latent_total: int = 12
    quant_levels: int = 4
    sentence_mode: str = "full"  # or "split"
    train_fraction: float = 0.75
    n_frames: int | None = None  # defaults to dims.n_chunks

    def __post_init__(self):
        minimum = {"n_videos": 2, "sentences_per_video": 1, "latent_total": 1, "quant_levels": 2, "seed": 0}
        if self.n_frames is not None:
            minimum["n_frames"] = 1
        for name, least in minimum.items():
            _require_integer(name, getattr(self, name), least)
        if len(self.rho) != 3 or not all(math.isfinite(r) and r >= 0 for r in self.rho):
            raise ValueError(f"invalid signal split {self.rho}: weights must be finite and nonnegative")
        if abs(sum(self.rho) - 1.0) > 1e-9:
            raise ValueError(f"invalid signal split {self.rho}: weights must sum to 1")
        if not (math.isfinite(self.noise_sigma) and self.noise_sigma >= 0):
            raise ValueError(f"noise_sigma must be finite and nonnegative, got {self.noise_sigma}")
        if self.sentence_mode not in ("full", "split"):
            raise ValueError(f"unknown sentence mode {self.sentence_mode!r}")
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError("train_fraction must be in (0, 1)")
        if self.sentence_mode == "split" and (self.slice_sizes()[0] == 0 or self.slice_sizes()[1] == 0):
            raise ValueError("split sentence mode needs signal in both global and sequential slices")

    def slice_sizes(self) -> tuple[int, int, int]:
        l = self.latent_total
        c1 = round(self.rho[0] * l)
        c2 = round((self.rho[0] + self.rho[1]) * l)
        return c1, c2 - c1, l - c2

    def frames(self) -> int:
        return self.n_frames if self.n_frames is not None else self.dims.n_chunks

    @property
    def n_markers(self) -> int:
        return 2 if self.sentence_mode == "split" else self.sentences_per_video

    @property
    def vocab_size(self) -> int:
        return self.latent_total * self.quant_levels + self.n_markers


@dataclass
class SynthGroundTruth:
    """Generator internals exposed for oracle-style tests and probes."""

    config: SynthConfig
    codes: np.ndarray                 # [V, L] quantized latents
    mix_global: np.ndarray            # [C_g, l_g]
    mix_grid: np.ndarray              # [G*G*C_s, l_s]
    mix_action: np.ndarray            # [C_a, l_a]
    levels: np.ndarray                # quantization level values

    def slices(self) -> tuple[slice, slice, slice]:
        l_g, l_s, l_a = self.config.slice_sizes()
        return slice(0, l_g), slice(l_g, l_g + l_s), slice(l_g + l_s, l_g + l_s + l_a)

    def decode_sentence(self, tokens: list[int]) -> tuple[np.ndarray, np.ndarray]:
        """(code estimate, mask of dimensions the sentence mentions)."""
        q = self.config.quant_levels
        z = np.zeros(self.config.latent_total)
        mask = np.zeros(self.config.latent_total, dtype=bool)
        content_limit = self.config.latent_total * q
        for t in tokens:
            if t >= content_limit:
                continue  # marker
            dim, lvl = divmod(t, q)
            z[dim] = self.levels[lvl]
            mask[dim] = True
        return z, mask


@dataclass
class SynthResult:
    dataset: Dataset
    manifests: dict[str, Manifest]
    truth: SynthGroundTruth


def _spawn(seed: int) -> dict[str, np.random.Generator]:
    root = np.random.SeedSequence([0x5EED5, seed])
    children = root.spawn(len(_STREAMS))
    return {name: np.random.default_rng(ss) for name, ss in zip(_STREAMS, children)}


def synth_generate(cfg: SynthConfig) -> SynthResult:
    """Build the dataset, its train/test manifests, and the ground truth."""
    dims = cfg.dims
    rngs = _spawn(cfg.seed)
    v, f = cfg.n_videos, cfg.frames()
    l_g, l_s, l_a = cfg.slice_sizes()
    levels = np.linspace(-1.0, 1.0, cfg.quant_levels)

    level_ids = rngs["codes"].integers(0, cfg.quant_levels, size=(v, cfg.latent_total))
    codes = levels[level_ids]

    def mixer(rng, rows: int, cols: int) -> np.ndarray:
        if cols == 0:
            return np.zeros((rows, 0))
        return rng.normal(scale=1.0 / np.sqrt(cols), size=(rows, cols))

    mix_global = mixer(rngs["mix_global"], dims.c_global, l_g)
    mix_grid = mixer(rngs["mix_grid"], dims.grid_flat, l_s)
    mix_action = mixer(rngs["mix_action"], dims.c_action, l_a)

    z_g = codes[:, :l_g]
    z_s = codes[:, l_g: l_g + l_s]
    z_a = codes[:, l_g + l_s:]

    noise = rngs["noise"]
    global_frames = np.tile((z_g @ mix_global.T)[:, None, :], (1, f, 1))
    global_frames = global_frames + cfg.noise_sigma * noise.normal(size=global_frames.shape)

    # Drawn and rounded to float32 a chunk of videos at a time, so the grid
    # section never exists at float64 (16 MB per video at Dims()). Chunked
    # draws consume the noise stream as one whole draw does, and a GEMM of
    # two or more rows gives each row its bytes in the whole product, so no
    # chunk is one video unless the corpus is.
    grid_frames = np.empty((v, f, dims.grid_flat), dtype=np.float32)
    step = max(2, _GRID_CHUNK_BYTES // (8 * f * dims.grid_flat))
    for lo, hi in video_blocks(v, step):
        signal = np.zeros((hi - lo, f, dims.grid_flat))
        if l_s:
            for frame in range(f):
                shifted = np.roll(z_s[lo:hi], -(frame % l_s), axis=1)
                signal[:, frame, :] = shifted @ mix_grid.T
        chunk = noise.normal(size=signal.shape)
        chunk *= cfg.noise_sigma
        chunk += signal
        grid_frames[lo:hi] = chunk
    grid_frames = grid_frames.reshape(v, f, dims.grid, dims.grid, dims.c_spatial)

    action_vecs = z_a @ mix_action.T
    action_vecs = action_vecs + cfg.noise_sigma * noise.normal(size=action_vecs.shape)

    table = rngs["table"].normal(
        scale=1.0 / np.sqrt(dims.token_dim), size=(cfg.vocab_size, dims.token_dim)
    )

    truth = SynthGroundTruth(
        config=cfg, codes=codes, mix_global=mix_global, mix_grid=mix_grid,
        mix_action=mix_action, levels=levels,
    )

    # the slot table: row s is the (marker, code dims) that every video's
    # sentence s spells; the population manifests select slots by marker
    g_sl, s_sl, _ = truth.slices()
    if cfg.sentence_mode == "split":
        slots = [(s % 2, (g_sl, s_sl)[s % 2]) for s in range(cfg.sentences_per_video)]
    else:
        slots = [(s, slice(None)) for s in range(cfg.sentences_per_video)]
    content = level_ids + cfg.quant_levels * np.arange(cfg.latent_total)  # token of (dim, level)
    first_marker = cfg.latent_total * cfg.quant_levels
    sentences = [[first_marker + marker, *content[i, dims].tolist()] for i in range(v) for marker, dims in slots]

    dataset = Dataset(  # rounds every section to float32
        global_frames=global_frames,
        grid_frames=grid_frames,
        action_vecs=action_vecs,
        embedding_vectors=table,
        sentences=sentences,
    )

    n_train = round(cfg.train_fraction * v)
    n_train = min(max(n_train, 1), v - 1)  # both splits stay nonempty

    def entry(i: int, sentence_filter=None) -> tuple[str, int, tuple[int, ...]]:
        sents = tuple(
            i * cfg.sentences_per_video + s
            for s in range(cfg.sentences_per_video)
            if sentence_filter is None or sentence_filter(s)
        )
        return (default_video_id(i), i, sents)

    manifests = {
        "train": Manifest("train", [entry(i) for i in range(n_train)]),
        "test": Manifest("test", [entry(i) for i in range(n_train, v)]),
    }
    if cfg.sentence_mode == "split":
        manifests["test_popA"] = Manifest(
            "test_popA", [entry(i, lambda s: slots[s][0] == 0) for i in range(n_train, v)]
        )
        manifests["test_popB"] = Manifest(
            "test_popB", [entry(i, lambda s: slots[s][0] == 1) for i in range(n_train, v)]
        )
    return SynthResult(dataset=dataset, manifests=manifests, truth=truth)


# ---------------------------------------------------------------------------
# Probes: generator-side oracles used by tests
# ---------------------------------------------------------------------------


def _probe_queries(result: SynthResult, manifest_name: str) -> tuple[Manifest, list[tuple[str, int, int]]]:
    """The named manifest and its queries. A manifest without a query has
    no recall to report, so it raises ``ValueError`` naming it."""
    manifest = result.manifests[manifest_name]
    queries = manifest.queries()
    if not queries:
        raise ValueError(f"manifest {manifest_name!r} has no queries to probe")
    return manifest, queries


def probe_recall_at_1(result: SynthResult, manifest_name: str = "test", space: str = SPACE_GLOBAL) -> float:
    """Retrieval accuracy of an untrained probe that decodes each sentence
    with the generator's own codebook and nearest-neighbors against the raw
    features of one space: one [Q, V] cosine grid over the manifest's
    gallery in ascending index order, where a zero norm scores 0 and the
    first maximum wins. A manifest without a query raises ``ValueError``
    naming it."""
    manifest, queries = _probe_queries(result, manifest_name)
    truth = result.truth
    ds = result.dataset
    gallery = np.array(sorted({idx for _, idx, _ in manifest.entries}))
    g_sl, _, a_sl = truth.slices()
    if space == SPACE_GLOBAL:
        sl, mix = g_sl, truth.mix_global
        feats = ds.global_frames[gallery].astype(np.float64).mean(axis=1)
    elif space == SPACE_ACTION:
        sl, mix = a_sl, truth.mix_action
        feats = ds.action_vecs[gallery].astype(np.float64)
    else:
        raise ValueError(f"probe has no raw-feature reading for space {space!r}")

    # equal features are scored once, so their scores tie exactly
    feats, copies = np.unique(feats, axis=0, return_inverse=True)
    codes = np.array([truth.decode_sentence(ds.sentences[sent])[0] for _, _, sent in queries])
    predicted = codes[:, sl] @ mix.T  # [Q, C]
    pn, fn = np.linalg.norm(predicted, axis=1), np.linalg.norm(feats, axis=1)
    scored = (pn[:, None] > 0) & (fn > 0)
    sims = np.divide(predicted @ feats.T, pn[:, None] * fn, out=np.zeros(scored.shape), where=scored)
    best = gallery[sims[:, copies].argmax(axis=1)]
    return float(np.mean(best == [idx for _, idx, _ in queries]))


def slice_collision_ceiling(result: SynthResult, manifest_name: str = "test", space: str = SPACE_GLOBAL) -> float:
    """Best possible R@1 for a decision rule that sees only one slice of
    the code: when several gallery videos share the query's slice value,
    ties break by ascending index, so only the first of each collision
    group can be retrieved. A manifest without a query raises
    ``ValueError`` naming it."""
    manifest, queries = _probe_queries(result, manifest_name)
    truth = result.truth
    sl = dict(zip((SPACE_GLOBAL, SPACE_SEQUENTIAL, SPACE_ACTION), truth.slices())).get(space)
    if sl is None:
        raise ValueError(f"ceiling has no code slice for space {space!r}")
    first: dict[tuple[float, ...], int] = {}  # slice value -> its lowest gallery index
    for idx in sorted(idx for _, idx, _ in manifest.entries):
        first.setdefault(tuple(truth.codes[idx, sl].tolist()), idx)
    return sum(first[tuple(truth.codes[idx, sl].tolist())] == idx for _, idx, _ in queries) / len(queries)
