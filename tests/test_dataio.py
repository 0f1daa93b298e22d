import re
import struct

import numpy as np
import pytest

from mvse.config import Dims
from mvse.dataio import (
    CHECKPOINT_MAGIC,
    FORMAT_VERSION,
    BadMagicError,
    ContainerError,
    Dataset,
    Manifest,
    ManifestError,
    TrailingBytesError,
    TruncatedError,
    VersionMismatchError,
    load_checkpoint,
    load_container,
    read_checkpoint,
    read_container,
    save_checkpoint,
    save_container,
    write_checkpoint,
    write_container,
)
from mvse.synth import SynthConfig, synth_generate

DIMS = Dims.small()


def _tiny_dataset(rng=None, v=1, f=1) -> Dataset:
    rng = rng or np.random.default_rng(0)
    f32 = lambda a: a.astype(np.float32).astype(np.float64)
    return Dataset(
        global_frames=f32(rng.normal(size=(v, f, 3))),
        grid_frames=f32(rng.normal(size=(v, f, 2, 2, 4))),
        action_vecs=f32(rng.normal(size=(v, 5))),
        embedding_vectors=f32(rng.normal(size=(6, 2))),
        sentences=[[0, 3, 5], [2]],
    )


class TestContainer:
    def test_empty_dataset_round_trips(self):
        ds = Dataset(
            global_frames=np.zeros((0, 0, 3)),
            grid_frames=np.zeros((0, 0, 2, 2, 4)),
            action_vecs=np.zeros((0, 5)),
            embedding_vectors=np.zeros((0, 2)),
            sentences=[],
        )
        blob = write_container(ds)
        back = read_container(blob)
        assert back.n_videos == 0
        assert write_container(back) == blob

    def test_single_video_bit_exact(self):
        ds = _tiny_dataset()
        blob = write_container(ds)
        back = read_container(blob)
        assert write_container(back) == blob
        np.testing.assert_array_equal(back.global_frames, ds.global_frames)
        np.testing.assert_array_equal(back.grid_frames, ds.grid_frames)
        np.testing.assert_array_equal(back.action_vecs, ds.action_vecs)
        np.testing.assert_array_equal(back.embedding_vectors, ds.embedding_vectors)
        assert back.sentences == ds.sentences

    def test_corrupt_magic(self):
        blob = bytearray(write_container(_tiny_dataset()))
        blob[:4] = b"XYZW"
        with pytest.raises(BadMagicError, match="bad magic"):
            read_container(bytes(blob))

    def test_version_mismatch(self):
        blob = bytearray(write_container(_tiny_dataset()))
        blob[4:6] = (999).to_bytes(2, "little")
        with pytest.raises(VersionMismatchError):
            read_container(bytes(blob))

    def test_truncation(self):
        blob = write_container(_tiny_dataset())
        with pytest.raises(TruncatedError):
            read_container(blob[:-3])

    def test_trailing_bytes(self):
        blob = write_container(_tiny_dataset())
        with pytest.raises(TrailingBytesError):
            read_container(blob + b"\x00")

    def test_file_round_trip(self, tmp_path):
        ds = _tiny_dataset()
        path = tmp_path / "data.mvse"
        save_container(ds, path)
        assert write_container(load_container(path)) == path.read_bytes()

    def test_sentence_vocab_validation(self):
        ds = _tiny_dataset()
        with pytest.raises(ValueError, match="vocabulary"):
            Dataset(
                global_frames=ds.global_frames,
                grid_frames=ds.grid_frames,
                action_vecs=ds.action_vecs,
                embedding_vectors=ds.embedding_vectors,
                sentences=[[99]],
            )

    def test_out_of_vocabulary_token_is_a_container_error(self):
        ds = _tiny_dataset()
        blob = bytearray(write_container(ds))
        blob[-4:] = (ds.vocab_size).to_bytes(4, "little")  # the last sentence's only token id
        with pytest.raises(ContainerError, match="outside vocabulary"):
            read_container(bytes(blob))

    def test_video_feature_view(self):
        ds = _tiny_dataset()
        feat = ds.video_feature(0)
        assert feat.video_id == "v0000"
        np.testing.assert_array_equal(feat.global_frames, ds.global_frames[0])
        assert feat.action_vec is not None
        with pytest.raises(IndexError):
            ds.video_feature(5)

    def test_actionless_dataset(self):
        ds = _tiny_dataset()
        no_action = Dataset(
            global_frames=ds.global_frames,
            grid_frames=ds.grid_frames,
            action_vecs=np.zeros((1, 0)),
            embedding_vectors=ds.embedding_vectors,
            sentences=ds.sentences,
        )
        blob = write_container(no_action)
        back = read_container(blob)
        assert not back.has_action
        assert back.video_feature(0).action_vec is None


class TestManifest:
    def test_round_trip(self):
        m = Manifest("train", [("v0000", 0, (0, 1)), ("v0001", 1, (2,)), ("clip-7_a.b", 2, ())])
        text = m.to_text()
        back = Manifest.from_text(text)
        assert back == m
        assert back.to_text() == text

    def test_queries(self):
        m = Manifest("t", [("v0", 0, (0, 1)), ("v1", 1, (5,))])
        assert m.queries() == [("v0", 0, 0), ("v0", 0, 1), ("v1", 1, 5)]

    def test_parse_errors(self):
        with pytest.raises(ManifestError, match="split"):
            Manifest.from_text("videos: 0\n")
        with pytest.raises(ManifestError, match="promises"):
            Manifest.from_text("split: t\nvideos: 2\nvideo v0 0 : 1\n")
        with pytest.raises(ManifestError, match="unrecognized"):
            Manifest.from_text("split: t\nwat\n")
        with pytest.raises(ManifestError, match="line 2: video index 'x'"):
            Manifest.from_text("split: t\nvideo v0 x : 1\n")
        with pytest.raises(ManifestError, match="line 2: sentence id 'a'"):
            Manifest.from_text("split: t\nvideo v0 0 : 1 a\n")
        with pytest.raises(ManifestError, match="line 1: video count 'two'"):
            Manifest.from_text("videos: two\nsplit: t\n")
        with pytest.raises(ManifestError, match="line 2: expected 'video <id> <index> : "):
            Manifest.from_text("split: t\nvideo v0000 0\n")
        with pytest.raises(ManifestError, match="line 3: second 'split:' line"):
            Manifest.from_text("split: t\nvideo v0 0 : 1\nsplit: u\n")
        with pytest.raises(ManifestError, match="line 3: second 'videos:' line"):
            Manifest.from_text("split: t\nvideos: 5\nvideos: 1\nvideo v0 0 : 1\n")

    @pytest.mark.parametrize("vid", ["", "a:b", "a b", "a\tb", ":"])
    def test_unwritable_video_id_names_the_id(self, vid):
        with pytest.raises(ManifestError, match=re.escape(f"video id {vid!r}")):
            Manifest("t", [("v0", 0, (0,)), (vid, 1, (1,))]).to_text()

    def test_validate_against_dataset(self):
        ds = _tiny_dataset(v=2)
        Manifest("t", [("v0000", 0, (0, 1)), ("v0001", 1, (1,))]).validate_against(ds)
        with pytest.raises(ManifestError, match="index"):
            Manifest("t", [("v9", 9, (0,))]).validate_against(ds)
        with pytest.raises(ManifestError, match="sentence"):
            Manifest("t", [("v0000", 0, (7,))]).validate_against(ds)
        with pytest.raises(ManifestError, match="id 'v0000' is listed twice"):
            Manifest("t", [("v0000", 0, (0,)), ("v0000", 1, (1,))]).validate_against(ds)
        with pytest.raises(ManifestError, match="index 0 is listed twice"):
            Manifest("t", [("v0000", 0, (0,)), ("v0001", 0, (1,))]).validate_against(ds)

    def test_file_round_trip(self, tmp_path):
        m = Manifest("test", [("v0002", 2, (4, 5))])
        p = tmp_path / "m.manifest"
        m.save(p)
        assert Manifest.load(p) == m


class TestCheckpoint:
    def _params(self):
        rng = np.random.default_rng(3)
        return {
            "gru.w": rng.normal(size=(3, 4, 3)),
            "gate.w": rng.normal(size=(2, 4)),
            "head.global.b": rng.normal(size=4),
        }

    def test_round_trip_bit_exact(self):
        params = self._params()
        config = {"spaces": "dual-S", "seed": 7}
        blob = write_checkpoint(params, config)
        back_params, back_config = read_checkpoint(blob)
        assert back_config == config
        assert set(back_params) == set(params)
        for k in params:
            np.testing.assert_array_equal(back_params[k], params[k])
        # save -> load -> save produces identical bytes
        assert write_checkpoint(back_params, back_config) == blob

    def test_file_round_trip(self, tmp_path):
        p = tmp_path / "model.mvsc"
        save_checkpoint(self._params(), {"a": 1}, p)
        params, config = load_checkpoint(p)
        assert config == {"a": 1}
        assert write_checkpoint(params, config) == p.read_bytes()

    def test_checkpoint_magic_differs_from_container(self):
        blob = write_checkpoint(self._params(), {})
        with pytest.raises(BadMagicError):
            read_container(blob)
        with pytest.raises(BadMagicError):
            read_checkpoint(write_container(_tiny_dataset()))

    def test_undecodable_config_or_name_is_a_container_error(self):
        blob = write_checkpoint(self._params(), {"a": 1})
        config_at = 4 + 2 + 4  # magic, version, config length
        name_at = config_at + len(b'{"a":1}') + 4 + 2  # config, tensor count, name length
        assert blob[name_at: name_at + 6] == b"gate.w"
        # not UTF-8 in the config; UTF-8 but not JSON; not UTF-8 in a tensor name
        for at, byte in ((config_at, 0xFF), (config_at, ord("x")), (name_at, 0xFF)):
            bad = bytearray(blob)
            bad[at] = byte
            with pytest.raises(ContainerError, match="checkpoint"):
                read_checkpoint(bytes(bad))

    def test_truncated_checkpoint(self):
        blob = write_checkpoint(self._params(), {})
        with pytest.raises(TruncatedError):
            read_checkpoint(blob[:-5])

    @staticmethod
    def _blob(tensors: list[tuple[str, tuple[int, ...], bytes]]) -> bytes:
        """A checkpoint written field by field, so a test can declare any
        name, shape and payload."""
        out = CHECKPOINT_MAGIC + struct.pack("<HI", FORMAT_VERSION, 2) + b"{}"
        out += struct.pack("<I", len(tensors))
        for name, shape, payload in tensors:
            out += struct.pack("<H", len(name)) + name.encode()
            out += struct.pack(f"<B{len(shape)}I", len(shape), *shape) + payload
        return out

    @pytest.mark.parametrize("shape", [(2**31, 2**31, 4), (2**32 - 1, 2**32 - 1)])
    def test_huge_declared_shape_is_truncated(self, shape):
        # the element counts overflow int64: 2**64 (wraps to 0) and (2**32 - 1)**2 (negative)
        with pytest.raises(TruncatedError):
            read_checkpoint(self._blob([("x", shape, b"\0" * 64)]))

    def test_repeated_tensor_name_is_a_container_error(self):
        one = np.array([1.0]).tobytes()
        with pytest.raises(ContainerError, match="x appears twice"):
            read_checkpoint(self._blob([("x", (1,), one), ("x", (1,), one)]))


class TestGeneratedDatasets:
    def _config(self, **kw) -> SynthConfig:
        base = dict(
            dims=DIMS, n_videos=8, sentences_per_video=2,
            rho=(0.5, 0.5, 0.0), noise_sigma=0.02, seed=5, latent_total=6,
        )
        base.update(kw)
        return SynthConfig(**base)

    def test_round_trip_bit_exact(self):
        res = synth_generate(self._config())
        blob = write_container(res.dataset)
        assert write_container(read_container(blob)) == blob

    def test_generator_determinism(self):
        a = write_container(synth_generate(self._config()).dataset)
        b = write_container(synth_generate(self._config()).dataset)
        assert a == b
        c = write_container(synth_generate(self._config(seed=6)).dataset)
        assert a != c

    def test_memory_values_equal_disk_values(self):
        res = synth_generate(self._config())
        back = read_container(write_container(res.dataset))
        np.testing.assert_array_equal(back.global_frames, res.dataset.global_frames)
        np.testing.assert_array_equal(back.grid_frames, res.dataset.grid_frames)
