"""The benchmark's shapes that the sequential-head tests run at."""

from mvse.config import Dims

# the benchmark's seq-train dims
MID_DIMS = Dims(
    n_chunks=8, grid=4, c_global=128, c_spatial=64, c_action=64,
    hidden=64, embed_dim=64, token_dim=32, attn_dim=64,
)

# (dims, V, Q): each workload's untaped eval grid, one slot's gallery of V
# videos against Q sentences at T = dims.n_chunks steps: seq-train's at mid
# dims (T = 8) and seq-retrieve's at small dims (T = 4)
EVAL_GRIDS = {
    "seq-train": (MID_DIMS, 16, 16),
    "seq-retrieve": (Dims.small(), 64, 64),
}

# (dims, V, Q): the benchmark's seq-train batch and eval grid at mid dims and
# seq-retrieve's at small dims, then a single video and a single sentence,
# whose length-1 index the materialized contraction drops from its product.
# The seq-retrieve grids have fewer cells than sentences, so the recurrence
# halves U, b and K's step slabs there, and its pre-activations elsewhere.
LSTM_GRIDS = {
    "seq-train-batch": (MID_DIMS, 8, 8),
    "seq-train-eval": EVAL_GRIDS["seq-train"],
    "seq-retrieve-batch": (Dims.small(), 8, 8),
    "seq-retrieve-eval": EVAL_GRIDS["seq-retrieve"],
    "one-video": (MID_DIMS, 1, 8),
    "one-sentence": (Dims.small(), 8, 1),
}
