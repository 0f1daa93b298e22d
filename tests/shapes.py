"""The benchmark's shapes that the sequential-head tests run at."""

from mvse.config import Dims

# the benchmark's seq-train dims
MID_DIMS = Dims(
    n_chunks=8, grid=4, c_global=128, c_spatial=64, c_action=64,
    hidden=64, embed_dim=64, token_dim=32, attn_dim=64,
)

# (dims, V, Q): the benchmark's seq-train batch and eval grid at mid dims and
# seq-retrieve's at small dims, then a single video and a single sentence,
# whose length-1 index the materialized contraction drops from its product.
# The seq-retrieve grids have fewer cells than sentences, so the recurrence
# halves U, b and K's step slabs there, and its pre-activations elsewhere.
LSTM_GRIDS = {
    "seq-train-batch": (MID_DIMS, 8, 8),
    "seq-train-eval": (MID_DIMS, 16, 16),
    "seq-retrieve-batch": (Dims.small(), 8, 8),
    "seq-retrieve-eval": (Dims.small(), 64, 64),
    "one-video": (MID_DIMS, 1, 8),
    "one-sentence": (Dims.small(), 8, 1),
}
