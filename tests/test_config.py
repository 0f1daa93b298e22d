import dataclasses
import math

import pytest

from mvse.config import Dims, TripletConfig

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
