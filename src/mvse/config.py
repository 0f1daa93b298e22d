"""Architecture dimensions, embedding-space sets, and training
hyperparameters."""

from __future__ import annotations

import dataclasses
import math
import numbers
from dataclasses import dataclass

SPACE_GLOBAL = "global"
SPACE_SEQUENTIAL = "sequential"
SPACE_ACTION = "action"

# Variant names follow the single / dual-S / dual-I / triple convention so
# ablation runs read like the usual results tables.
SPACE_SETS: dict[str, tuple[str, ...]] = {
    "single": (SPACE_GLOBAL,),
    "dual-S": (SPACE_GLOBAL, SPACE_SEQUENTIAL),
    "dual-I": (SPACE_GLOBAL, SPACE_ACTION),
    "triple": (SPACE_GLOBAL, SPACE_SEQUENTIAL, SPACE_ACTION),
}


@dataclass(frozen=True)
class Dims:
    """Every architectural dimension, all configurable.

    Defaults are the paper-scale values; ``small()`` is the test preset
    used throughout the suite.
    """

    n_chunks: int = 20      # frames sampled per video
    grid: int = 7           # spatial grid side G
    c_global: int = 2048    # per-frame appearance feature width
    c_spatial: int = 2048   # grid cell channels
    c_action: int = 1024    # action vector width
    hidden: int = 512       # GRU/LSTM hidden size H
    embed_dim: int = 512    # joint space size D
    token_dim: int = 300    # token vector width E
    attn_dim: int = 512     # attention intermediate size (p, q)

    def __post_init__(self):
        for name, value in dataclasses.asdict(self).items():
            _require_integer(f"Dims.{name}", value, 1)
        # the sequential head emits its LSTM hidden state directly
        if self.embed_dim != self.hidden:
            raise ValueError(
                f"sequential head requires embed_dim == hidden, got {self.embed_dim} != {self.hidden}"
            )

    @property
    def grid_cells(self) -> int:
        return self.grid * self.grid

    @property
    def grid_flat(self) -> int:
        return self.grid * self.grid * self.c_spatial

    @staticmethod
    def small() -> "Dims":
        return Dims(
            n_chunks=4, grid=2, c_global=32, c_spatial=32, c_action=16,
            hidden=16, embed_dim=16, token_dim=8, attn_dim=16,
        )


def _is_integer_type(kind: type) -> bool:
    """The one rule for what counts as an integer: ``int`` and numpy's
    integer types, but not ``bool`` or ``np.bool_``."""
    return issubclass(kind, numbers.Integral) and not issubclass(kind, bool)


def _require_integer(field: str, value, least: int) -> None:
    """Reject a count or seed that is not an integer or is below ``least``,
    which would otherwise fail later, inside training or numpy."""
    if not _is_integer_type(type(value)):
        raise ValueError(f"{field} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{field} must be >= {least}, got {value}")


def resolve_spaces(name: str) -> tuple[str, ...]:
    try:
        return SPACE_SETS[name]
    except KeyError:
        raise ValueError(f"unknown space set {name!r}; choose from {sorted(SPACE_SETS)}") from None


@dataclass
class TripletConfig:
    """Training hyperparameters.

    The margin default of 0.2 and the plain-SGD settings are artifact
    choices (conventional for cosine-similarity triplet training), not
    claims from any experiment.
    """

    margin: float = 0.2
    negative_mode: str = "hardest"  # or "sum-all"
    learning_rate: float = 0.05
    epochs: int = 30
    batch_size: int = 8
    rng_seed: int = 0

    def __post_init__(self):
        # batch_size >= 2: a batch needs a negative
        for name, least in (("epochs", 0), ("batch_size", 2), ("rng_seed", 0)):
            _require_integer(name, getattr(self, name), least)
        # a NaN or infinite rate or margin makes the loss non-finite after one step
        if not (math.isfinite(self.margin) and self.margin > 0):
            raise ValueError(f"margin must be finite and > 0, got {self.margin}")
        if self.negative_mode not in ("sum-all", "hardest"):
            raise ValueError(f"negative_mode must be 'sum-all' or 'hardest', got {self.negative_mode!r}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate >= 0):
            raise ValueError(f"learning_rate must be finite and >= 0, got {self.learning_rate}")
