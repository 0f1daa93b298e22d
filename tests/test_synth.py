import hashlib
import io
import itertools
import re
import tracemalloc

import numpy as np
import pytest

from mvse import synth
from mvse.config import Dims
from mvse.dataio import Manifest, write_container
from mvse.synth import (
    SynthConfig,
    probe_recall_at_1,
    slice_collision_ceiling,
    synth_generate,
)
from shapes import BENCH_CORPORA, MID_DIMS

DIMS = Dims.small()
SECTIONS = ("global_frames", "grid_frames", "action_vecs", "embedding_vectors")

def _container(ds) -> bytes:
    out = io.BytesIO()
    write_container(ds, out)
    return out.getvalue()


def _cfg(**kw) -> SynthConfig:
    base = dict(
        dims=DIMS, n_videos=20, sentences_per_video=2,
        rho=(1.0, 0.0, 0.0), noise_sigma=0.0, seed=11, latent_total=8,
    )
    base.update(kw)
    return SynthConfig(**base)


# each would otherwise build a frameless corpus or NaN features, or fail
# inside numpy, round() or a dict lookup without naming what was wrong
BAD_INPUTS = {
    "n_frames must be >= 1, got 0": lambda: _cfg(n_frames=0),
    "n_frames must be an integer": lambda: _cfg(n_frames=2.5),
    "n_videos must be an integer": lambda: _cfg(n_videos=10.5),
    "sentences_per_video must be an integer": lambda: _cfg(sentences_per_video=2.0),
    "latent_total must be an integer": lambda: _cfg(latent_total=8.0),
    "quant_levels must be an integer": lambda: _cfg(quant_levels=4.0),
    "seed must be an integer": lambda: _cfg(seed=1.5),
    "seed must be >= 0, got -1": lambda: _cfg(seed=-1),
    "noise_sigma must be finite": lambda: _cfg(noise_sigma=float("nan")),
    "weights must be finite": lambda: _cfg(rho=(float("nan"), 0.5, 0.5)),
    "space 'motion'": lambda: slice_collision_ceiling(synth_generate(_cfg()), "test", "motion"),
}


def _loop_probe(res, manifest_name: str, space: str) -> float:
    """The probe's rule one (query, gallery video) pair at a time: the first
    strict maximum in ascending gallery order, and 0 for a zero norm."""
    truth, ds, manifest = res.truth, res.dataset, res.manifests[manifest_name]
    sl, mix, section = {
        "global": (truth.slices()[0], truth.mix_global, ds.global_frames),
        "action": (truth.slices()[2], truth.mix_action, ds.action_vecs),
    }[space]
    gallery = sorted(idx for _, idx, _ in manifest.entries)
    hits = 0
    for _, idx, sent in manifest.queries():
        predicted = mix @ truth.decode_sentence(ds.sentences[sent])[0][sl]
        best_idx, best_sim = None, -np.inf
        for g_idx in gallery:
            feat = section[g_idx].astype(np.float64)
            feat = feat.mean(axis=0) if space == "global" else feat
            pn, fn = np.linalg.norm(predicted), np.linalg.norm(feat)
            sim = float(predicted @ feat / (pn * fn)) if pn > 0 and fn > 0 else 0.0
            if sim > best_sim:
                best_idx, best_sim = g_idx, sim
        hits += best_idx == idx
    return hits / len(manifest.queries())


def _loop_ceiling(res, manifest_name: str, space: str) -> float:
    """The ceiling's rule one (query, gallery video) pair at a time."""
    codes, manifest = res.truth.codes, res.manifests[manifest_name]
    sl = dict(zip(("global", "sequential", "action"), res.truth.slices()))[space]
    hits = 0
    for _, idx, _ in manifest.queries():
        first = min(g for _, g, _ in manifest.entries if np.array_equal(codes[g, sl], codes[idx, sl]))
        hits += first == idx
    return hits / len(manifest.queries())


class TestConfigValidation:
    def test_negative_split_weight(self):
        with pytest.raises(ValueError, match="invalid signal split"):
            _cfg(rho=(1.2, -0.2, 0.0))

    def test_split_not_summing_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            _cfg(rho=(0.5, 0.4, 0.0))

    def test_too_few_videos(self):
        with pytest.raises(ValueError, match="^n_videos must be >= 2, got 1$"):
            _cfg(n_videos=1)

    def test_split_mode_needs_both_slices(self):
        with pytest.raises(ValueError, match="split sentence mode"):
            _cfg(rho=(1.0, 0.0, 0.0), sentence_mode="split")

    @pytest.mark.parametrize("named", list(BAD_INPUTS))
    def test_bad_input_raises_a_value_error_naming_it(self, named):
        with pytest.raises(ValueError, match=re.escape(named)):
            BAD_INPUTS[named]()

    @pytest.mark.parametrize("probe", [probe_recall_at_1, slice_collision_ceiling])
    def test_a_manifest_without_queries_raises_a_value_error_naming_it(self, probe):
        # without the check the probe fails inside numpy (IndexError) or divides by zero
        res = synth_generate(_cfg())
        res.manifests["empty"] = Manifest("empty", [])
        res.manifests["silent"] = Manifest("silent", [("v0000", 0, [])])
        res.truth = None  # any compute before the check would fail on it
        for name in ("empty", "silent"):
            with pytest.raises(ValueError, match=f"manifest '{name}' has no queries"):
                probe(res, name)

    def test_slice_sizes_follow_rho(self):
        assert _cfg(rho=(1.0, 0.0, 0.0)).slice_sizes() == (8, 0, 0)
        assert _cfg(rho=(0.5, 0.5, 0.0)).slice_sizes() == (4, 4, 0)
        assert _cfg(rho=(0.5, 0.25, 0.25)).slice_sizes() == (4, 2, 2)


class TestPlantedSignal:
    def test_noiseless_global_signal_probe_is_perfect(self):
        # full signal in the global slice, no noise: codebook decode +
        # nearest neighbor on raw mean frame features must retrieve exactly
        res = synth_generate(_cfg(rho=(1.0, 0.0, 0.0), noise_sigma=0.0))
        assert probe_recall_at_1(res, "test", space="global") == 1.0
        assert probe_recall_at_1(res, "train", space="global") == 1.0

    def test_noiseless_action_signal_probe_is_perfect(self):
        res = synth_generate(_cfg(rho=(0.0, 0.0, 1.0), noise_sigma=0.0))
        assert probe_recall_at_1(res, "test", space="action") == 1.0

    @pytest.mark.parametrize("space, rho", [("global", (1.0, 0.0, 0.0)), ("action", (0.0, 0.0, 1.0))])
    def test_probe_norms_read_the_float64_widening(self, space, rho, monkeypatch):
        # the corpus stores float32; the probe's mean and norms run on the
        # exact float64 widening of the stored values, as the heads' do
        res = synth_generate(_cfg(rho=rho))
        norm, dtypes = np.linalg.norm, []

        def spy(x, *args, **kwargs):
            dtypes.append(np.asarray(x).dtype)
            return norm(x, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "norm", spy)
        probe_recall_at_1(res, "test", space=space)
        assert dtypes and set(dtypes) == {np.dtype(np.float64)}

    def test_partial_information_respects_ceiling(self):
        # only half the code lives in the global slice; a global-only probe
        # cannot beat the collision ceiling computed from the true codes
        cfg = _cfg(
            rho=(0.5, 0.5, 0.0), noise_sigma=0.0, n_videos=60,
            latent_total=4, quant_levels=2, seed=3,
        )
        res = synth_generate(cfg)
        ceiling = slice_collision_ceiling(res, "test", space="global")
        probe = probe_recall_at_1(res, "test", space="global")
        assert ceiling < 1.0  # 2 dims with 2 levels collide heavily over 15 videos
        assert probe <= ceiling + 1e-12

    @pytest.mark.parametrize("seed", range(5))
    def test_probes_match_a_pair_loop_where_gallery_videos_tie(self, seed):
        # noiseless, with 4 global and 4 action slice values over 15 test
        # videos: several share a slice value and so an exact feature vector;
        # at seed 1 a plain [Q, V] product scores two equal ones unequally
        res = synth_generate(_cfg(rho=(0.5, 0.0, 0.5), n_videos=60, latent_total=4, quant_levels=2, seed=seed))
        gallery = [idx for _, idx, _ in res.manifests["test"].entries]
        means = res.dataset.global_frames[gallery].astype(np.float64).mean(axis=1)
        assert len(np.unique(means, axis=0)) < len(gallery)
        # with one sentence on every other video, which video of a tie
        # wins changes the ceiling, not only how many do
        entries = res.manifests["test"].entries
        res.manifests["ragged"] = Manifest("ragged", [(v, i, s[: 1 + k % 2]) for k, (v, i, s) in enumerate(entries)])
        for name, space in itertools.product(("test", "ragged"), ("global", "action")):
            assert probe_recall_at_1(res, name, space) == _loop_probe(res, name, space)
            assert slice_collision_ceiling(res, name, space) == _loop_ceiling(res, name, space)

    def test_an_empty_action_slice_scores_zero_and_retrieves_the_first_video(self):
        # rho leaves the action slice empty: every prediction has zero norm,
        # so every video scores 0 and each query retrieves the first
        res = synth_generate(_cfg(rho=(0.5, 0.5, 0.0), n_videos=40, latent_total=4, noise_sigma=0.05))
        first_only = 1 / len(res.manifests["test"].entries)
        assert probe_recall_at_1(res, "test", "action") == _loop_probe(res, "test", "action") == first_only
        assert slice_collision_ceiling(res, "test", "action") == _loop_ceiling(res, "test", "action") == first_only

    def test_sequence_slice_is_order_keyed(self):
        # the same code produces different grid payloads at different frame
        # positions (cyclic shift), so reading order is informative
        cfg = _cfg(rho=(0.0, 1.0, 0.0), noise_sigma=0.0, latent_total=4)
        res = synth_generate(cfg)
        grid = res.dataset.grid_frames
        assert grid.shape[1] >= 2
        diff = np.abs(grid[:, 0] - grid[:, 1]).max()
        assert diff > 1e-6

    def test_mean_pooling_grid_frames_collapses_order_signal(self):
        # averaging over frames mixes all cyclic shifts, so two codes that
        # are shifts of each other pool identically even though their
        # per-frame payloads differ: order carries the information
        cfg = _cfg(rho=(0.0, 1.0, 0.0), noise_sigma=0.0, latent_total=4, n_frames=4)
        res = synth_generate(cfg)
        mix = res.truth.mix_grid
        z = res.truth.levels[np.array([0, -1, 0, -1])]
        z_shift = np.roll(z, -1)

        def pooled(code):
            return np.mean([mix @ np.roll(code, -(f % 4)) for f in range(4)], axis=0)

        np.testing.assert_allclose(pooled(z), pooled(z_shift), atol=1e-12)
        assert np.abs(mix @ z - mix @ z_shift).max() > 1e-6


class TestSentences:
    def test_sentences_decode_to_their_codes(self):
        res = synth_generate(_cfg(rho=(0.5, 0.25, 0.25), latent_total=8, quant_levels=4))
        ds, truth = res.dataset, res.truth
        s_per = truth.config.sentences_per_video
        for video in range(truth.config.n_videos):
            for s in range(s_per):
                z, mask = truth.decode_sentence(ds.sentences[video * s_per + s])
                assert mask.all()
                np.testing.assert_array_equal(z, truth.codes[video])

    def test_split_mode_populations_cover_different_slices(self):
        cfg = _cfg(rho=(0.5, 0.5, 0.0), sentence_mode="split", latent_total=8)
        res = synth_generate(cfg)
        truth = res.truth
        g_sl, s_sl, _ = truth.slices()
        pop_a = res.dataset.sentences[0]  # video 0, sentence 0
        pop_b = res.dataset.sentences[1]  # video 0, sentence 1
        _, mask_a = truth.decode_sentence(pop_a)
        _, mask_b = truth.decode_sentence(pop_b)
        assert mask_a[g_sl].all() and not mask_a[s_sl].any()
        assert mask_b[s_sl].all() and not mask_b[g_sl].any()
        assert pop_a[0] != pop_b[0]  # distinct population markers

    def test_split_manifests_partition_queries(self):
        cfg = _cfg(rho=(0.5, 0.5, 0.0), sentence_mode="split")
        res = synth_generate(cfg)
        test = {q[2] for q in res.manifests["test"].queries()}
        pop_a = {q[2] for q in res.manifests["test_popA"].queries()}
        pop_b = {q[2] for q in res.manifests["test_popB"].queries()}
        assert pop_a | pop_b == test
        assert not (pop_a & pop_b)


class TestManifestsAndDeterminism:
    def test_train_test_partition(self):
        res = synth_generate(_cfg(n_videos=20, train_fraction=0.75))
        train_ids = {e[1] for e in res.manifests["train"].entries}
        test_ids = {e[1] for e in res.manifests["test"].entries}
        assert len(train_ids) == 15 and len(test_ids) == 5
        assert not (train_ids & test_ids)
        for m in res.manifests.values():
            m.validate_against(res.dataset)

    def test_manifest_determinism(self):
        a = synth_generate(_cfg())
        b = synth_generate(_cfg())
        assert a.manifests and a.manifests == b.manifests  # Manifest equality: split and entries


class _RecordingNormal:
    """A generator stand-in that records the size of every normal draw."""

    def __init__(self, rng: np.random.Generator):
        self.rng, self.sizes = rng, []

    def normal(self, *args, size, **kw):
        self.sizes.append(size)
        return self.rng.normal(*args, size=size, **kw)


# (sentence_mode, sentences_per_video, rho) -> sha256 of repr(dataset.sentences)
# at q = 3 and L = 8; (0.5, 0.5, 0.0) leaves the action slice empty, and
# full-mode sentences spell every dimension whatever rho is
SENTENCE_PINS = {
    ("full", 1, (0.5, 0.25, 0.25)):
        "b447b9d4a1e3b97f7f3fcd60fa94a1f962bae33f199028b47c8559b180e6f10d",
    ("full", 3, (0.5, 0.25, 0.25)):
        "71b6e55d8cd3dc1e7ab2a934818b351dd7694724caceedd82139dde4077aa403",
    ("full", 1, (0.5, 0.5, 0.0)):
        "b447b9d4a1e3b97f7f3fcd60fa94a1f962bae33f199028b47c8559b180e6f10d",
    ("full", 3, (0.5, 0.5, 0.0)):
        "71b6e55d8cd3dc1e7ab2a934818b351dd7694724caceedd82139dde4077aa403",
    ("split", 1, (0.5, 0.25, 0.25)):
        "57369e8b923ec7b51d47b1e994ca4ed055f36f366b7453eab1362f11e686d2b9",
    ("split", 3, (0.5, 0.25, 0.25)):
        "c964773967d017c0b0b7b78b08e709c324f743d9b4d96b849458bf3c026a70be",
    ("split", 1, (0.5, 0.5, 0.0)):
        "57369e8b923ec7b51d47b1e994ca4ed055f36f366b7453eab1362f11e686d2b9",
    ("split", 3, (0.5, 0.5, 0.0)):
        "b741832d33f9839c47bf79c494150c12aa69d9f734cc9a532f3c9be76cffca82",
}


@pytest.mark.parametrize("mode,per_video,rho", list(SENTENCE_PINS))
def test_sentences_keep_their_tokens(mode, per_video, rho):
    cfg = _cfg(n_videos=6, sentences_per_video=per_video, rho=rho, sentence_mode=mode, quant_levels=3)
    sentences = synth_generate(cfg).dataset.sentences
    assert hashlib.sha256(repr(sentences).encode()).hexdigest() == SENTENCE_PINS[mode, per_video, rho]


class TestFloat32Storage:
    @pytest.mark.parametrize("workload,seed", [(w, s) for w in BENCH_CORPORA for s in (1, 2)])
    def test_benchmark_corpora_keep_their_bytes(self, workload, seed):
        fields, digests = BENCH_CORPORA[workload]
        blob = _container(synth_generate(SynthConfig(seed=seed, **fields)).dataset)
        assert hashlib.sha256(blob).hexdigest() == digests[seed]

    def test_sections_are_c_contiguous_float32(self):
        ds = synth_generate(_cfg(rho=(0.5, 0.25, 0.25), noise_sigma=0.05)).dataset
        for name in SECTIONS:
            section = getattr(ds, name)
            assert section.dtype == np.float32 and section.flags.c_contiguous, name

    @pytest.mark.parametrize("videos_per_chunk,chunks", [(3, [3, 4]), (0, [2, 2, 3]), (7, [7])])
    def test_grid_chunks_never_hold_one_video_and_keep_the_bytes(
        self, monkeypatch, videos_per_chunk, chunks
    ):
        # a 1-row signal GEMM goes through gemv and rounds differently, so a
        # 1-video tail joins the chunk before it; a budget under one video
        # still draws two at a time
        cfg = _cfg(dims=MID_DIMS, n_videos=7, rho=(0.25, 0.5, 0.25), noise_sigma=0.05)
        whole = _container(synth_generate(cfg).dataset)
        spawn = synth._spawn
        recorders = []

        def recording_spawn(seed):
            rngs = spawn(seed)
            rngs["noise"] = _RecordingNormal(rngs["noise"])
            recorders.append(rngs["noise"])
            return rngs

        budget = videos_per_chunk * 8 * cfg.frames() * MID_DIMS.grid_flat
        monkeypatch.setattr(synth, "_GRID_CHUNK_BYTES", budget)
        monkeypatch.setattr(synth, "_spawn", recording_spawn)
        assert _container(synth_generate(cfg).dataset) == whole
        sizes = recorders[0].sizes
        assert sizes[0] == (7, cfg.frames(), MID_DIMS.c_global)  # all global noise first
        assert [n for n, *_ in sizes[1:-1]] == chunks
        assert sizes[-1] == (7, MID_DIMS.c_action)

    def test_synth_retains_the_float32_sections_and_no_float64_grid(self, monkeypatch):
        # seq-train's corpus: its float64 grid would be 3 MiB, its float32
        # sections together are 1.7 MiB
        cfg = SynthConfig(seed=1, **BENCH_CORPORA["seq-train"][0])
        synth_generate(cfg)  # first-call allocations stay out of the count
        monkeypatch.setattr(synth, "_GRID_CHUNK_BYTES", 4 * 8 * cfg.frames() * MID_DIMS.grid_flat)
        tracemalloc.start()
        try:
            res = synth_generate(cfg)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        sections = sum(getattr(res.dataset, name).nbytes for name in SECTIONS)
        grid_f64 = 2 * res.dataset.grid_frames.nbytes
        slack = 256 << 10  # codes, mixers, sentences and manifests: ~80 KiB
        assert retained <= sections + slack
        # four-video chunks: the float64 grid never exists whole
        assert peak <= sections + grid_f64 - slack
