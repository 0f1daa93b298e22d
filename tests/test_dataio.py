import io
import re
import struct
import tracemalloc

import numpy as np
import pytest

from mvse.autodiff import Tensor
from mvse.config import Dims
from mvse.dataio import (
    CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
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
from mvse.text import GruParams, gru_encode
from shapes import BENCH_CORPORA

DIMS = Dims.small()
SECTIONS = ("global_frames", "grid_frames", "action_vecs", "embedding_vectors")


def _container(ds: Dataset) -> bytes:
    out = io.BytesIO()
    write_container(ds, out)
    return out.getvalue()


def _read(blob: bytes) -> Dataset:
    return read_container(io.BytesIO(blob))


def _checkpoint(params: dict, config: dict) -> bytes:
    out = io.BytesIO()
    write_checkpoint(params, config, out)
    return out.getvalue()


def _read_checkpoint(blob: bytes) -> tuple[dict, dict]:
    return read_checkpoint(io.BytesIO(blob))


def _tiny_dataset(rng=None, v=1, f=1) -> Dataset:
    rng = rng or np.random.default_rng(0)
    return Dataset(
        global_frames=rng.normal(size=(v, f, 3)),
        grid_frames=rng.normal(size=(v, f, 2, 2, 4)),
        action_vecs=rng.normal(size=(v, 5)),
        embedding_vectors=rng.normal(size=(6, 2)),
        sentences=[[0, 3, 5], [2]],
    )


INVALID_ID_ENTRIES = {
    "index -1": ("v1", -1, (1,)),
    "index 1.5": ("v1", 1.5, (1,)),
    "index True": ("v1", True, (1,)),
    "sentence id -2": ("v1", 1, (1, -2)),
    "sentence id 3.0": ("v1", 1, (3.0,)),
}


class TestContainer:
    def test_empty_dataset_round_trips(self):
        ds = Dataset(
            global_frames=np.zeros((0, 0, 3)),
            grid_frames=np.zeros((0, 0, 2, 2, 4)),
            action_vecs=np.zeros((0, 5)),
            embedding_vectors=np.zeros((0, 2)),
            sentences=[],
        )
        blob = _container(ds)
        back = _read(blob)
        assert back.n_videos == 0
        assert _container(back) == blob

    def test_single_video_bit_exact(self):
        ds = _tiny_dataset()
        blob = _container(ds)
        back = _read(blob)
        assert _container(back) == blob
        np.testing.assert_array_equal(back.global_frames, ds.global_frames)
        np.testing.assert_array_equal(back.grid_frames, ds.grid_frames)
        np.testing.assert_array_equal(back.action_vecs, ds.action_vecs)
        np.testing.assert_array_equal(back.embedding_vectors, ds.embedding_vectors)
        assert back.sentences == ds.sentences

    def test_corrupt_magic(self):
        blob = bytearray(_container(_tiny_dataset()))
        blob[:4] = b"XYZW"
        with pytest.raises(BadMagicError, match="bad magic"):
            _read(bytes(blob))

    def test_version_mismatch(self):
        blob = bytearray(_container(_tiny_dataset()))
        blob[4:6] = (999).to_bytes(2, "little")
        with pytest.raises(VersionMismatchError):
            _read(bytes(blob))

    def test_truncation(self):
        blob = _container(_tiny_dataset())
        with pytest.raises(TruncatedError):
            _read(blob[:-3])

    # the tiny dataset's sentence section is the six records [3, 0, 3, 5, 1, 2]
    @pytest.mark.parametrize(
        "record,value",
        [(0, 6), (4, 0), (0, 2**32 - 1)],
        ids=["length-past-the-section", "short-last-length", "length-2**32-1"],
    )
    def test_corrupt_sentence_length_is_truncated(self, record, value):
        blob = bytearray(_container(_tiny_dataset()))
        at = len(blob) - 4 * (6 - record)
        blob[at:at + 4] = value.to_bytes(4, "little")
        with pytest.raises(TruncatedError):
            _read(bytes(blob))

    def test_empty_section_of_unholdable_shape_is_a_container_error(self):
        # V = 0, so no bytes are missing, but numpy cannot form [0, F, G, G, C_s]
        header = struct.pack("<10I", 0, 2**32 - 1, 2**32 - 1, 1, 2**32 - 1, 0, 0, 0, 0, 0)
        with pytest.raises(ContainerError, match="container grid_frames has shape"):
            _read(b"MVSE" + struct.pack("<H", 1) + header)

    def test_trailing_bytes(self):
        blob = _container(_tiny_dataset())
        with pytest.raises(TrailingBytesError):
            _read(blob + b"\x00")

    def test_file_round_trip(self, tmp_path):
        ds = _tiny_dataset()
        path = tmp_path / "data.mvse"
        save_container(ds, path)
        assert _container(load_container(path)) == path.read_bytes()

    def test_sentence_vocab_validation(self):
        ds = _tiny_dataset()
        with pytest.raises(ValueError, match=re.escape("sentence 0: token id 99 outside [0, 6)")):
            Dataset(
                global_frames=ds.global_frames,
                grid_frames=ds.grid_frames,
                action_vecs=ds.action_vecs,
                embedding_vectors=ds.embedding_vectors,
                sentences=[[99]],
            )

    def test_out_of_vocabulary_token_is_a_container_error(self):
        ds = _tiny_dataset()
        blob = bytearray(_container(ds))
        blob[-4:] = (ds.vocab_size).to_bytes(4, "little")  # the last sentence's only token id
        with pytest.raises(ContainerError, match=re.escape("sentence 1: token id 6 outside [0, 6)")):
            _read(bytes(blob))

    @pytest.mark.parametrize("bad", [-1, 6])
    def test_dataset_and_gru_reject_an_id_with_one_message(self, bad):
        ds = _tiny_dataset()
        sentences = [[0, 3], [5, bad, 1]]
        with pytest.raises(ValueError) as from_dataset:
            Dataset(
                global_frames=ds.global_frames, grid_frames=ds.grid_frames, action_vecs=ds.action_vecs,
                embedding_vectors=ds.embedding_vectors, sentences=sentences,
            )
        params = GruParams(w=Tensor(np.zeros((3, 1, 2))), u=Tensor(np.zeros((3, 1, 1))), b=Tensor(np.zeros((3, 1))))
        with pytest.raises(ValueError) as from_gru:
            gru_encode(sentences, ds.embedding_table(), params)
        assert str(from_dataset.value) == str(from_gru.value) == f"sentence 1: token id {bad} outside [0, 6)"

    # int64 would truncate each of these to an id in range: 1, 1, 2 and 0
    @pytest.mark.parametrize("bad", [1.5, True, np.float64(2.0), np.bool_(False)], ids=repr)
    def test_dataset_and_gru_reject_a_non_integer_id_with_one_message(self, bad):
        ds = _tiny_dataset()
        sentences = [[0, 3], [5, bad, 1]]
        with pytest.raises(ValueError) as from_dataset:
            Dataset(
                global_frames=ds.global_frames, grid_frames=ds.grid_frames, action_vecs=ds.action_vecs,
                embedding_vectors=ds.embedding_vectors, sentences=sentences,
            )
        params = GruParams(w=Tensor(np.zeros((3, 1, 2))), u=Tensor(np.zeros((3, 1, 1))), b=Tensor(np.zeros((3, 1))))
        with pytest.raises(ValueError) as from_gru:
            gru_encode(sentences, ds.embedding_table(), params)
        assert str(from_dataset.value) == str(from_gru.value) == f"sentence 1: token id {bad!r} is not an integer"

    def test_numpy_integer_ids_are_ids(self):
        ds = _tiny_dataset()
        sentences = [[np.int64(0), np.uint32(3)], [np.int8(5), 1]]
        kept = Dataset(
            global_frames=ds.global_frames, grid_frames=ds.grid_frames, action_vecs=ds.action_vecs,
            embedding_vectors=ds.embedding_vectors, sentences=sentences,
        )
        assert _read(_container(kept)).sentences == [[0, 3], [5, 1]]

    # a one-axis action or embedding section would pass the video-count
    # check, and write_container would then fail with a bare IndexError
    @pytest.mark.parametrize(
        "name,shape",
        [("global_frames", (1, 3)), ("grid_frames", (1, 1, 4, 4)), ("action_vecs", (1,)),
         ("embedding_vectors", (6,))],
    )
    def test_a_section_of_the_wrong_rank_is_refused_naming_it(self, name, shape):
        ds = _tiny_dataset()
        sections = {s: getattr(ds, s) for s in SECTIONS}
        sections[name] = np.zeros(shape)
        with pytest.raises(ValueError, match=rf"^{name} must have \d axes, got shape"):
            Dataset(**sections, sentences=[])

    def test_video_feature_view(self):
        ds = _tiny_dataset()
        feat = ds.video_feature(0, "v0000")
        assert feat.video_id == "v0000"
        np.testing.assert_array_equal(feat.global_frames, ds.global_frames[0])
        assert feat.action_vec is not None
        with pytest.raises(IndexError):
            ds.video_feature(5, "v0005")

    @pytest.mark.parametrize("index", [True, np.True_, 0.0, "0"])
    def test_video_feature_refuses_an_index_that_is_not_an_integer_naming_it(self, index):
        # a bool passed the range check and indexed as a new axis, so the
        # error blamed the feature ranks, not the index
        ds = _tiny_dataset()
        with pytest.raises(TypeError, match=re.escape(f"video index {index!r} is not an integer")):
            ds.video_feature(index, "v")

    @pytest.mark.parametrize("index", [np.int64(0), np.uint8(0), np.int32(0)])
    def test_video_feature_takes_a_numpy_integer_index(self, index):
        ds = _tiny_dataset()
        np.testing.assert_array_equal(ds.video_feature(index, "v").grid_frames, ds.grid_frames[0])

    def test_actionless_dataset(self):
        ds = _tiny_dataset()
        no_action = Dataset(
            global_frames=ds.global_frames,
            grid_frames=ds.grid_frames,
            action_vecs=np.zeros((1, 0)),
            embedding_vectors=ds.embedding_vectors,
            sentences=ds.sentences,
        )
        blob = _container(no_action)
        back = _read(blob)
        assert not back.has_action
        assert back.video_feature(0, "v0000").action_vec is None


class TestManifest:
    def test_queries(self):
        m = Manifest("t", [("v0", 0, (0, 1)), ("v1", 1, (5,))])
        assert m.queries() == [("v0", 0, 0), ("v0", 0, 1), ("v1", 1, 5)]

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

    @pytest.mark.parametrize("what", list(INVALID_ID_ENTRIES))
    def test_non_integer_index_or_sentence_id_fails_validation(self, what):
        # a float or bool index passes the range check, and training would
        # then fail inside numpy in its first batch
        ds = _tiny_dataset(v=2)
        with pytest.raises(ManifestError, match=re.escape(f"video v1: {what} is not a non-negative")):
            Manifest("t", [("v0", 0, (0,)), INVALID_ID_ENTRIES[what]]).validate_against(ds)

    @pytest.mark.parametrize("vid", [1, None, b"v1"], ids=["int", "None", "bytes"])
    def test_non_str_video_id_fails_validation(self, vid):
        # frame_rng encodes the id, and only when a chunk can draw, so
        # training would fail mid-epoch and only on corpora with F > N
        ds = _tiny_dataset(v=2)
        with pytest.raises(ManifestError, match=re.escape(f"entry 1: video id {vid!r} is not a str")):
            Manifest("t", [("v0", 0, (0,)), (vid, 1, (1,))]).validate_against(ds)

    def test_an_empty_sentence_is_refused_by_validation(self):
        # the container stores it, but the GRU cannot encode it: training
        # would stop with EmptySentenceError in whichever epoch drew it
        ds = _tiny_dataset(v=2)
        ds.sentences = [[0], [1], [2], [3], [4], []]
        back = _read(_container(ds))
        assert back.sentences[5] == []
        Manifest("t", [("v0000", 0, (0, 1)), ("v0001", 1, (2,))]).validate_against(back)
        with pytest.raises(ManifestError, match="^video v0001: sentence id 5 is empty$"):
            Manifest("t", [("v0000", 0, (0, 1)), ("v0001", 1, (2, 5))]).validate_against(back)


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
        blob = _checkpoint(params, config)
        back_params, back_config = _read_checkpoint(blob)
        assert back_config == config
        assert set(back_params) == set(params)
        for k in params:
            np.testing.assert_array_equal(back_params[k], params[k])
        # save -> load -> save produces identical bytes
        assert _checkpoint(back_params, back_config) == blob

    def test_file_round_trip(self, tmp_path):
        p = tmp_path / "model.mvsc"
        save_checkpoint(self._params(), {"a": 1}, p)
        params, config = load_checkpoint(p)
        assert config == {"a": 1}
        assert _checkpoint(params, config) == p.read_bytes()

    def test_checkpoint_magic_differs_from_container(self):
        blob = _checkpoint(self._params(), {})
        with pytest.raises(BadMagicError):
            _read(blob)
        with pytest.raises(BadMagicError):
            _read_checkpoint(_container(_tiny_dataset()))

    def test_undecodable_config_or_name_is_a_container_error(self):
        blob = _checkpoint(self._params(), {"a": 1})
        config_at = 4 + 2 + 4  # magic, version, config length
        name_at = config_at + len(b'{"a":1}') + 4 + 2  # config, tensor count, name length
        assert blob[name_at: name_at + 6] == b"gate.w"
        # not UTF-8 in the config; UTF-8 but not JSON; not UTF-8 in a tensor name
        for at, byte in ((config_at, 0xFF), (config_at, ord("x")), (name_at, 0xFF)):
            bad = bytearray(blob)
            bad[at] = byte
            with pytest.raises(ContainerError, match="checkpoint"):
                _read_checkpoint(bytes(bad))

    def test_truncated_checkpoint(self):
        blob = _checkpoint(self._params(), {})
        with pytest.raises(TruncatedError):
            _read_checkpoint(blob[:-5])

    @staticmethod
    def _blob(tensors: list[tuple[str, tuple[int, ...], bytes]]) -> bytes:
        """A checkpoint written field by field, so a test can declare any
        name, shape and payload."""
        out = CHECKPOINT_MAGIC + struct.pack("<HI", CHECKPOINT_VERSION, 2) + b"{}"
        out += struct.pack("<I", len(tensors))
        for name, shape, payload in tensors:
            out += struct.pack("<H", len(name)) + name.encode()
            out += struct.pack(f"<B{len(shape)}I", len(shape), *shape) + payload
        return out

    @pytest.mark.parametrize("shape", [(2**31, 2**31, 4), (2**32 - 1, 2**32 - 1)])
    def test_huge_declared_shape_is_truncated(self, shape):
        # the element counts overflow int64: 2**64 (wraps to 0) and (2**32 - 1)**2 (negative)
        with pytest.raises(TruncatedError):
            _read_checkpoint(self._blob([("x", shape, b"\0" * 64)]))

    def test_save_copies_no_tensor_and_load_copies_each_once(self, tmp_path):
        rng = np.random.default_rng(0)
        params = {"big": rng.normal(size=(256, 512)), "small": rng.normal(size=7)}
        tensors = sum(a.nbytes for a in params.values())  # 1 MiB
        path = tmp_path / "model.mvsc"
        save_checkpoint(params, {"a": 1}, path)
        load_checkpoint(path)  # first-call allocations stay out of the count
        slack = 64 << 10
        tracemalloc.start()
        try:
            save_checkpoint(params, {"a": 1}, path)
            save_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            loaded, _ = load_checkpoint(path)
            load_peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert save_peak <= slack
        assert load_peak <= tensors + slack
        for name, arr in params.items():
            assert loaded[name].tobytes() == arr.tobytes()

    def test_empty_tensor_of_unholdable_shape_is_a_container_error(self):
        # zero elements, so no bytes are missing, but numpy cannot form the shape
        with pytest.raises(ContainerError, match="too large to hold"):
            _read_checkpoint(self._blob([("x", (0, 2**32 - 1, 2**32 - 1, 2**32 - 1), b"")]))

    def test_repeated_tensor_name_is_a_container_error(self):
        one = np.array([1.0]).tobytes()
        with pytest.raises(ContainerError, match="x appears twice"):
            _read_checkpoint(self._blob([("x", (1,), one), ("x", (1,), one)]))


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
        blob = _container(res.dataset)
        assert _container(_read(blob)) == blob

    def test_generator_determinism(self):
        a = _container(synth_generate(self._config()).dataset)
        b = _container(synth_generate(self._config()).dataset)
        assert a == b
        c = _container(synth_generate(self._config(seed=6)).dataset)
        assert a != c

    def test_memory_values_equal_disk_values(self):
        res = synth_generate(self._config())
        back = _read(_container(res.dataset))
        np.testing.assert_array_equal(back.global_frames, res.dataset.global_frames)
        np.testing.assert_array_equal(back.grid_frames, res.dataset.grid_frames)

    def test_sections_stay_float32_through_the_round_trip(self):
        ds = _tiny_dataset()
        back = _read(_container(ds))
        for name in SECTIONS:
            assert getattr(ds, name).dtype == getattr(back, name).dtype == np.float32, name
            assert getattr(back, name).flags.c_contiguous, name

    def test_direct_construction_rounds_to_float32(self):
        values = np.array([[[0.1, 1 / 3, 1e-50]]])
        ds = Dataset(
            global_frames=values, grid_frames=np.zeros((1, 1, 1, 1, 2)),
            action_vecs=np.zeros((1, 0)), embedding_vectors=np.zeros((1, 2)), sentences=[],
        )
        assert ds.global_frames.dtype == np.float32
        assert ds.global_frames.tobytes() == values.astype(np.float32).tobytes()
        assert _read(_container(ds)).global_frames.tobytes() == ds.global_frames.tobytes()

    def test_load_holds_only_the_float32_sections(self, tmp_path):
        # seq-train's corpus: 1.7 MiB of float32 sections
        cfg = SynthConfig(seed=1, **BENCH_CORPORA["seq-train"][0])
        path = tmp_path / "corpus.mvse"
        save_container(synth_generate(cfg).dataset, path)
        load_container(path)  # first-call allocations stay out of the count
        tracemalloc.start()
        try:
            back = load_container(path)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        sections = sum(getattr(back, name).nbytes for name in SECTIONS)
        slack = 64 << 10
        assert retained <= sections + slack
        # each section is read from the file straight into its own array, so
        # the peak stays under the sections alone, not file + sections
        assert peak <= sections + slack
