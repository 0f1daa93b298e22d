import dataclasses
import math
import re

import numpy as np
import pytest

from mvse.config import Dims, TripletConfig
from mvse.model import Model, init_params
from mvse.text import EmbeddingTable

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
    table = EmbeddingTable(np.zeros((3, Dims.small().token_dim)))
    make = {
        "init_params": lambda: init_params(Dims.small(), ("global",), seed),
        "Model.new": lambda: Model.new(Dims.small(), "single", seed, table),
    }[build]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make()
