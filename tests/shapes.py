"""The benchmark's corpora, and the shapes that the sequential-head tests
run at."""

from mvse.config import Dims

# the benchmark's seq-train dims
MID_DIMS = Dims(
    n_chunks=8, grid=4, c_global=128, c_spatial=64, c_action=64,
    hidden=64, embed_dim=64, token_dim=32, attn_dim=64,
)

# a reduced width of the paper's sequential head (``Dims()`` is C_s 2048,
# H 512): grid 7, C_s 512, H 128, where ``dual-S`` holds 117 MB of
# parameters, 103 MB of them lstm.w's; the memory pins of init and of a
# training run read it
WIDE_DIMS = Dims(
    n_chunks=4, grid=7, c_global=64, c_spatial=512, c_action=16,
    hidden=128, embed_dim=128, token_dim=32, attn_dim=64,
)

# (dims, V, Q): each workload's untaped eval grid, one slot's gallery of V
# videos against Q sentences at T = dims.n_chunks steps: seq-train's at mid
# dims (T = 8), scored in two blocks of 8 videos, and seq-retrieve's at
# small dims (T = 4), in five blocks of 12 and one of 4 (visual.scan_block;
# neither lstm.w is large enough for its K-row floor)
EVAL_GRIDS = {
    "seq-train": (MID_DIMS, 16, 16),
    "seq-retrieve": (Dims.small(), 64, 64),
}

# (dims, V, Q): the benchmark's seq-train batch and eval grid at mid dims and
# seq-retrieve's at small dims, then a single video and a single sentence,
# whose length-1 index the materialized contraction drops from its product.
# The seq-retrieve grids have fewer cells than sentences (G*G < Q) and the
# others do not, so the step's input-term product, [4H, G*G] by [G*G, Q],
# is checked on both sides of G*G = Q.
LSTM_GRIDS = {
    "seq-train-batch": (MID_DIMS, 8, 8),
    "seq-train-eval": EVAL_GRIDS["seq-train"],
    "seq-retrieve-batch": (Dims.small(), 8, 8),
    "seq-retrieve-eval": EVAL_GRIDS["seq-retrieve"],
    "one-video": (MID_DIMS, 1, 8),
    "one-sentence": (Dims.small(), 8, 1),
}

# the benchmark's three corpora (mvse_bench/pipeline.py), as SynthConfig
# fields, with the sha256 of their container at seeds 1 and 2
BENCH_CORPORA = {
    "global-train": (
        dict(dims=Dims.small(), n_videos=200, rho=(0.5, 0.0, 0.5), sentence_mode="full", train_fraction=0.75),
        {1: "a350568fee10226e630c6d36d1615767d9561267f45fc9def50eb99d0e6c0a6c",
         2: "099c8cc5afb18aca3c04a9799bf838c70bab7ea889cd1ec670ff25fb40353e01"},
    ),
    "seq-train": (
        dict(dims=MID_DIMS, n_videos=48, rho=(0.5, 0.5, 0.0), sentence_mode="split", train_fraction=2 / 3),
        {1: "ede268d9c34c996a966a15ad919b89d151044c4618e6a7e48c756aa9a006094a",
         2: "c96cd9034fd0aa18efff9baf9848469bc76f21043ffc3768e8c4c196348f9af9"},
    ),
    "seq-retrieve": (
        dict(dims=Dims.small(), n_videos=128, rho=(0.5, 0.25, 0.25), sentence_mode="full", train_fraction=0.5),
        {1: "a93d7e1a5b7715083300b3197024f0b12f22a4f366a0957a637a0e358808d069",
         2: "8ce580a9377f736c84cb6df5f61e10d6ca6a9e46ec8bcab63ca23683370e825d"},
    ),
}
