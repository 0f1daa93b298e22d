import dataclasses
import math
import re

import numpy as np
import pytest

from mvse.autodiff import Tensor
from mvse.config import Dims, TripletConfig
from mvse.dataio import Dataset, Manifest, ManifestError
from mvse.model import Model, init_params
from mvse.synth import SynthConfig
from mvse.text import GruParams, gru_encode

# each would reach train and fail there: as a non-finite loss that blames
# the model, or as a TypeError from range() or numpy
BAD_TRIPLET_CONFIGS = [
    ("learning_rate", math.nan, "learning_rate must be finite and >= 0, got nan"),
    ("learning_rate", math.inf, "learning_rate must be finite and >= 0, got inf"),
    ("margin", math.nan, "margin must be finite and > 0, got nan"),
    ("margin", math.inf, "margin must be finite and > 0, got inf"),
    ("epochs", 2.5, "epochs must be an integer, got 2.5"),
    ("batch_size", 8.0, "batch_size must be an integer, got 8.0"),
    ("rng_seed", 1.5, "rng_seed must be an integer, got 1.5"),
    ("rng_seed", -1, "rng_seed must be >= 0, got -1"),
]


@pytest.mark.parametrize(
    "field, value, message", BAD_TRIPLET_CONFIGS, ids=[f"{f}={v}" for f, v, _ in BAD_TRIPLET_CONFIGS]
)
def test_triplet_config_rejects_a_value_that_fails_in_training(field, value, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        TripletConfig(**{field: value})


@pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(Dims)])
def test_dims_rejects_a_non_integer_field(field):
    value = getattr(Dims.small(), field) + 0.5
    with pytest.raises(ValueError, match=rf"^Dims\.{field} must be an integer, got {value}$"):
        dataclasses.replace(Dims.small(), **{field: value})


# numpy's own errors for these seeds, "expected non-negative integer" and
# "seed must be integer", name neither the seed nor the value
BAD_INIT_SEEDS = [(-1, "seed must be >= 0, got -1"), (1.5, "seed must be an integer, got 1.5")]


@pytest.mark.parametrize("seed, message", BAD_INIT_SEEDS, ids=[str(s) for s, _ in BAD_INIT_SEEDS])
@pytest.mark.parametrize("build", ["init_params", "Model.new"])
def test_model_init_rejects_a_seed_numpy_would(build, seed, message):
    table = np.zeros((3, Dims.small().token_dim))
    make = {
        "init_params": lambda: init_params(Dims.small(), ("global",), seed),
        "Model.new": lambda: Model.new(Dims.small(), "single", seed, table),
    }[build]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make()


# tables the GRU cannot read: one of the wrong width would otherwise fail at
# the first batch, with an einsum ShapeError that names neither it nor the dims
BAD_TABLES = [(3, 5), (3,), (2, 3, 8)]


@pytest.mark.parametrize("shape", BAD_TABLES, ids=[str(s) for s in BAD_TABLES])
@pytest.mark.parametrize("build", ["Model.new", "Model"])
def test_model_rejects_a_token_table_of_the_wrong_shape(build, shape):
    table = np.zeros(shape, np.float32)
    make = {
        "Model.new": lambda: Model.new(Dims.small(), "single", 1, table),
        "Model": lambda: Model(init_params(Dims.small(), ("global",), 1), table),
    }[build]
    message = f"token table must be [vocab, {Dims.small().token_dim}] (dims.token_dim), got {shape}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make()


# The one integer rule, config._is_integer_type, at every entry point that
# takes a count, a seed, a token id or a manifest index or sentence id: an
# int or a numpy integer is one, a bool, np.bool_ or float is not. Each
# entry is (build from a value, a value it takes, its least value, the
# message for a non-integer, the message for a value below the least).


def _counted(field: str, least: int, build, good: int):
    """The entry of a value that ``_require_integer`` checks as ``field``."""
    return build, good, least, f"{field} must be an integer, got {{!r}}", f"{field} must be >= {least}, got {{}}"


def _dataset(sentences) -> Dataset:
    return Dataset(
        global_frames=np.zeros((2, 1, 3)), grid_frames=np.zeros((2, 1, 2, 2, 4)),
        action_vecs=np.zeros((2, 5)), embedding_vectors=np.ones((6, 2)), sentences=sentences,
    )


def _gru(sentences):
    zeros = GruParams(w=Tensor(np.zeros((3, 1, 2))), u=Tensor(np.zeros((3, 1, 1))), b=Tensor(np.zeros((3, 1))))
    return gru_encode(sentences, np.ones((6, 2)), zeros)


def _manifest(index, sentence_id):
    Manifest("t", [("v0", 0, (0,)), ("v1", index, (sentence_id,))]).validate_against(_dataset([[0], [1]]))


_SYNTH = dict(dims=Dims.small(), n_videos=20, sentences_per_video=2, latent_total=8, quant_levels=4, seed=11)
_SYNTH_LEAST = dict(n_videos=2, sentences_per_video=1, latent_total=1, quant_levels=2, seed=0, n_frames=1)
_TABLE = np.zeros((3, Dims.small().token_dim))
_TOKEN = "sentence 1: token id {!r} is not an integer", "sentence 1: token id {} outside [0, 6)"
_INDEX = "video v1: index {!r} is not a non-negative integer"
_SENTENCE_ID = "video v1: sentence id {!r} is not a non-negative integer"

INTEGER_ENTRY_POINTS = {
    **{
        f"Dims.{f}": _counted(f"Dims.{f}", 1, lambda v, f=f: dataclasses.replace(Dims.small(), **{f: v}), good)
        for f, good in dataclasses.asdict(Dims.small()).items()
    },
    **{
        f"TripletConfig.{f}": _counted(f, least, lambda v, f=f: TripletConfig(**{f: v}), good)
        for f, least, good in (("epochs", 0, 3), ("batch_size", 2, 8), ("rng_seed", 0, 1))
    },
    **{
        f"SynthConfig.{f}": _counted(f, least, lambda v, f=f: SynthConfig(**{**_SYNTH, f: v}), _SYNTH.get(f, 4))
        for f, least in _SYNTH_LEAST.items()
    },
    "init_params seed": _counted("seed", 0, lambda v: init_params(Dims.small(), ("global",), v), 1),
    "Model.new seed": _counted("seed", 0, lambda v: Model.new(Dims.small(), "single", v, _TABLE), 1),
    "Dataset token id": (lambda v: _dataset([[0, 3], [5, v, 1]]), 2, 0, *_TOKEN),
    "gru_encode token id": (lambda v: _gru([[0, 3], [5, v, 1]]), 2, 0, *_TOKEN),
    "manifest index": (lambda v: _manifest(v, 1), 1, 0, _INDEX, _INDEX),
    "manifest sentence id": (lambda v: _manifest(1, v), 1, 0, _SENTENCE_ID, _SENTENCE_ID),
}

# (input, its value from an entry point's accepted value and least value,
# and which of the entry point's messages it raises: None if it is taken)
INTEGER_INPUTS = {
    "True": (lambda good, least: True, "not an integer"),
    "False": (lambda good, least: False, "not an integer"),
    "np.bool_(True)": (lambda good, least: np.bool_(True), "not an integer"),
    "np.int64": (lambda good, least: np.int64(good), None),
    "2.5": (lambda good, least: 2.5, "not an integer"),
    "below the least": (lambda good, least: least - 1, "below"),
}


@pytest.mark.parametrize("given", list(INTEGER_INPUTS))
@pytest.mark.parametrize("entry", list(INTEGER_ENTRY_POINTS))
def test_every_entry_point_keeps_the_one_integer_rule(entry, given):
    build, good, least, not_integer, below = INTEGER_ENTRY_POINTS[entry]
    value_of, refusal = INTEGER_INPUTS[given]
    value = value_of(good, least)
    if refusal is None:
        build(value)
        return
    message = (not_integer if refusal == "not an integer" else below).format(value)
    error = ManifestError if entry.startswith("manifest") else ValueError
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        build(value)
