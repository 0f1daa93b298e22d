"""The benchmark pipeline: synth -> container round trip -> model init ->
train -> checkpoint round trip -> retrieval eval with the reloaded model,
plus the output checks and the failure ledger.

mvse is driven only through the public functions listed in README.md, and
always through module attributes (``training.train``, not a from-import),
so the tracer's patches and a test's monkeypatch take effect.
"""

from __future__ import annotations

import dataclasses
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import mvse  # noqa: E402

if not Path(mvse.__file__).resolve().is_relative_to(ROOT / "src"):
    raise ImportError(f"mvse imported from {mvse.__file__}, not from {ROOT / 'src'}")

from mvse import autodiff, dataio, synth, training  # noqa: E402
from mvse import model as mvse_model  # noqa: E402
from mvse.config import Dims, TripletConfig  # noqa: E402

from hostspeed import HostSpeed  # noqa: E402
from tracing import NullTracer, Tracer  # noqa: E402

MID_DIMS = Dims(
    n_chunks=8, grid=4, c_global=128, c_spatial=64, c_action=64,
    hidden=64, embed_dim=64, token_dim=32, attn_dim=64,
)
SETUP_REPEATS = 5     # set-ups per untraced pass; setup_s is the median over all
SCORE_TOLERANCE = 1e-12  # fused scores are convex mixes of cosines
FUSE_MODE = "weighted"
MARGIN = 0.2
LEARNING_RATE = 0.05
BATCH_SIZE = 8


@dataclass(frozen=True)
class Workload:
    name: str
    dims: Dims
    spaces: str
    negative_mode: str
    sentence_mode: str
    rho: tuple[float, float, float]
    n_videos: int
    train_fraction: float
    epochs: int
    # fused R@5 must beat chance (5 / gallery) by at least this much
    min_r5_gain: float | None = None


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="global-train", dims=Dims.small(), spaces="dual-I", negative_mode="sum-all",
            sentence_mode="full", rho=(0.5, 0.0, 0.5), n_videos=200, train_fraction=0.75,
            epochs=8, min_r5_gain=0.25,
        ),
        Workload(
            name="seq-train", dims=MID_DIMS, spaces="dual-S", negative_mode="hardest",
            sentence_mode="split", rho=(0.5, 0.5, 0.0), n_videos=48, train_fraction=2 / 3,
            epochs=3,
        ),
        Workload(
            name="seq-retrieve", dims=Dims.small(), spaces="triple", negative_mode="hardest",
            sentence_mode="full", rho=(0.5, 0.25, 0.25), n_videos=128, train_fraction=0.5,
            epochs=2,
        ),
    )
}


@dataclass
class Ledger:
    """Operations attempted and failed: training batches, queries, checks."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def ops(self, attempted: int, failed: int, what: str) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.problems.append(f"{failed}/{attempted} {what} failed")

    def check(self, ok: bool, what: str) -> bool:
        self.ops(1, 0 if ok else 1, f"check: {what}")
        return ok


@dataclass
class Setup:
    dataset: dataio.Dataset
    manifests: dict
    model: mvse_model.Model
    window: tuple[float, float]   # perf_counter start and end


def setup(w: Workload, seed: int, workdir: Path, tr, ledger: Ledger) -> Setup:
    """Synth, container write and read, model init."""
    start = time.perf_counter()
    cfg = synth.SynthConfig(
        dims=w.dims, n_videos=w.n_videos, rho=w.rho, sentence_mode=w.sentence_mode,
        train_fraction=w.train_fraction, seed=seed,
    )
    with tr.span("synth.generate"):
        generated = synth.synth_generate(cfg)
    path = workdir / "corpus.mvse"
    with tr.span("dataio.save_container"):
        dataio.save_container(generated.dataset, path)
    with tr.span("dataio.load_container"):
        dataset = dataio.load_container(path)
    with tr.span("model.init"):
        model = mvse_model.Model.new(w.dims, w.spaces, seed, dataset.embedding_table())
    window = (start, time.perf_counter())
    g = generated.dataset
    ledger.check(
        all(np.array_equal(getattr(g, a), getattr(dataset, a))
            for a in ("global_frames", "grid_frames", "action_vecs", "embedding_vectors"))
        and g.sentences == dataset.sentences,
        "container round trip is exact",
    )
    return Setup(dataset, generated.manifests, model, window)


def batches_per_epoch(manifest: dataio.Manifest, batch_size: int) -> tuple[int, int]:
    """(batches, pairs) in one epoch of ``training.train``: one pair per
    video that has a sentence, tails shorter than 2 dropped."""
    n = sum(1 for _, _, sents in manifest.entries if sents)
    sizes = [min(batch_size, n - s) for s in range(0, n, batch_size)]
    sizes = [s for s in sizes if s >= 2]
    return len(sizes), sum(sizes)


@dataclass
class TrainStats:
    epoch_windows: list[tuple[float, float]]
    losses: list[float]
    pairs_per_epoch: int


def train(w: Workload, seed: int, s: Setup, tr, ledger: Ledger) -> TrainStats:
    config = TripletConfig(
        margin=MARGIN, negative_mode=w.negative_mode, learning_rate=LEARNING_RATE,
        epochs=w.epochs, batch_size=BATCH_SIZE, rng_seed=seed,
    )
    manifest = s.manifests["train"]
    n_batches, n_pairs = batches_per_epoch(manifest, BATCH_SIZE)
    stamps = [time.perf_counter()]
    losses: list[float] = []

    def log_fn(epoch: int, loss: float) -> None:
        stamps.append(time.perf_counter())
        losses.append(loss)

    with tr.span("train"):
        try:
            training.train(s.dataset, manifest, s.model, config, FUSE_MODE, log_fn=log_fn)
        except training.TrainingDivergedError as exc:
            ledger.problems.append(str(exc))
    # a diverged run loses its current epoch and every one after it
    planned = n_batches * w.epochs
    ledger.ops(planned, planned - n_batches * len(losses), "training batches")
    ledger.check(all(np.isfinite(losses)), "epoch losses are finite")
    return TrainStats(list(zip(stamps, stamps[1:])), losses, n_pairs)


def checkpoint_round_trip(w: Workload, seed: int, model, workdir: Path, tr, ledger: Ledger):
    """Save and reload the trained parameters; return the reloaded model."""
    arrays = {name: t.data for name, t in model.params.named().items()}
    echo = {"workload": w.name, "seed": seed, "spaces": w.spaces, "dims": dataclasses.asdict(w.dims)}
    path = workdir / "model.mvsc"
    with tr.span("dataio.checkpoint"):
        dataio.save_checkpoint(arrays, echo, path)
        loaded, loaded_echo = dataio.load_checkpoint(path)
        params = mvse_model.params_from_arrays(w.dims, model.spaces, loaded)
    reloaded = mvse_model.Model(params, model.table)
    again = {name: t.data for name, t in reloaded.params.named().items()}
    ledger.check(
        loaded_echo == echo
        and again.keys() == arrays.keys()
        and all(again[k].dtype == arrays[k].dtype and again[k].shape == arrays[k].shape
                and again[k].tobytes() == arrays[k].tobytes() for k in arrays),
        "checkpoint round trip is bit-identical",
    )
    return reloaded


@dataclass
class EvalPass:
    scores: np.ndarray   # [slot, video, query]
    ranks: np.ndarray    # per query, 1 = best
    window: tuple[float, float]

    @property
    def queries(self) -> int:
        return self.ranks.size


def evaluate(model, dataset, manifest, tr, ledger: Ledger) -> EvalPass:
    """Sentence -> video retrieval over the manifest's gallery.

    One ``fused_similarity_matrix`` call per sentence slot scores every
    gallery video against that slot's sentence of every video; column q
    then ranks the gallery for query q, pessimistically on ties.
    """
    entries = manifest.entries
    videos = [dataset.video_feature(idx, vid) for vid, idx, _ in entries]
    v = len(videos)
    n_slots = min(len(sents) for _, _, sents in entries)
    start = time.perf_counter()
    with tr.span("eval.score"), autodiff.no_tape():
        grids = [
            training.fused_similarity_matrix(
                model, videos, [dataset.sentences[sents[slot]] for _, _, sents in entries], FUSE_MODE,
            )
            for slot in range(n_slots)
        ]
        scores = np.array([[[t.item() for t in row] for row in grid] for grid in grids])
    window = (start, time.perf_counter())

    ranks = np.full((n_slots, v), v)  # a failed query counts as a miss
    bad_queries = 0
    orders_ok = True
    for slot in range(n_slots):
        for q in range(v):
            col = scores[slot, :, q]
            if not (np.all(np.isfinite(col)) and np.all(np.abs(col) <= 1 + SCORE_TOLERANCE)):
                bad_queries += 1
                continue
            # ties sort the matching video last: the pessimistic rank
            order = np.lexsort((np.arange(v) == q, -col))
            rank = int(np.flatnonzero(order == q)[0]) + 1
            orders_ok &= (
                np.array_equal(np.sort(order), np.arange(v))
                and rank == np.count_nonzero(col >= col[q])
            )
            ranks[slot, q] = rank
    ledger.ops(n_slots * v, bad_queries, "queries (non-finite or out-of-range scores)")
    ledger.check(orders_ok, "rankings are permutations and agree with the pessimistic rank")
    return EvalPass(scores=scores, ranks=ranks.ravel(), window=window)


@dataclass
class PassResult:
    """One pass of the whole pipeline."""

    setup_windows: list[tuple[float, float]]
    train: TrainStats
    eval: EvalPass
    window: tuple[float, float]   # the set-up used, train, checkpoint and eval

    def quality(self) -> dict[str, tuple[float, str]]:
        """Fused sentence -> video quality on the test gallery. These follow
        the seed's corpus, so they are reported, not bounded."""
        ranks = self.eval.ranks
        return {
            "eval.r_at_1": (float(np.mean(ranks <= 1)), "ratio"),
            "eval.r_at_5": (float(np.mean(ranks <= 5)), "ratio"),
            "eval.r_at_10": (float(np.mean(ranks <= 10)), "ratio"),
            "eval.median_rank": (float(np.median(ranks)), "rank"),
            "training.final_loss": (self.train.losses[-1] if self.train.losses else float("nan"), "loss"),
        }


def run_pipeline(w: Workload, seed: int, workdir: Path, ledger: Ledger, tr=None,
                 setup_repeats: int = 1) -> PassResult:
    """One pass. Set-up runs ``setup_repeats`` times; the last one is used."""
    tr = tr or NullTracer()
    workdir.mkdir(parents=True, exist_ok=True)
    setups = [setup(w, seed, workdir, tr, ledger) for _ in range(setup_repeats)]
    s = setups[-1]
    stats = train(w, seed, s, tr, ledger)
    reloaded = checkpoint_round_trip(w, seed, s.model, workdir, tr, ledger)
    test = s.manifests["test"]
    ev = evaluate(reloaded, s.dataset, test, tr, ledger)
    window = (s.window[0], time.perf_counter())
    if w.min_r5_gain is not None:
        r5, chance = float(np.mean(ev.ranks <= 5)), 5 / len(test.entries)
        ledger.check(r5 >= chance + w.min_r5_gain,
                     f"fused R@5 {r5:.3f} beats chance {chance:.3f} by {w.min_r5_gain}")
    return PassResult([x.window for x in setups], stats, ev, window)


def same_outputs(a: PassResult, b: PassResult) -> bool:
    """Two passes with one seed agree bit for bit."""
    return a.eval.scores.tobytes() == b.eval.scores.tobytes() and a.train.losses == b.train.losses


@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, tuple[float, str]]
    problems: list[str]
    report: dict[str, tuple[float, str]] = field(default_factory=dict)  # printed, not in the line

    def line(self) -> str:
        return json.dumps({
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in self.metrics.items()},
        })


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def duration(window: tuple[float, float]) -> float:
    return window[1] - window[0]


def end_to_end(w: Workload, seed: int, seconds: float, workdir: Path) -> Result:
    """Repeat the whole pipeline until ``seconds`` have passed (at least
    once) with the host sampled; every timing is a median over all passes.
    The JSON line gets the host-calibrated timings, the report the raw ones."""
    ledger = Ledger()
    passes: list[PassResult] = []
    with HostSpeed() as host:
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < seconds:
            passes.append(run_pipeline(w, seed, workdir, ledger, setup_repeats=SETUP_REPEATS))
            ledger.check(same_outputs(passes[-1], passes[0]), "every pass reproduces the first bit for bit")

    def timings(calibrated: bool) -> dict[str, tuple[float, str]]:
        def t(window: tuple[float, float]) -> float:
            return host.window(*window)[1 if calibrated else 0]

        return {
            "setup_s": (statistics.median(t(x) for p in passes for x in p.setup_windows), "s"),
            "train_pairs_per_s": (statistics.median(
                [p.train.pairs_per_epoch / t(e) for p in passes for e in p.train.epoch_windows] or [0.0]), "1/s"),
            "retrieval_queries_per_s": (statistics.median(p.eval.queries / t(p.eval.window) for p in passes), "1/s"),
            "wall_s": (statistics.median(t(p.window) for p in passes), "s"),
        }

    metrics = {**timings(calibrated=True), "peak_rss_mb": (peak_rss_mb(), "MB")}
    report = {
        **{f"{k}.raw": v for k, v in timings(calibrated=False).items()},
        "host.probe_s": (statistics.median(host.durations), "s"),
        "passes": (len(passes), "count"),
        **passes[0].quality(),
        "failed_frac": (ledger.failed / ledger.attempted, "ratio"),
    }
    return Result(ledger.failed == 0, ledger.attempted, ledger.failed, metrics, ledger.problems, report)


def per_layer(w: Workload, seed: int, workdir: Path, spans_path: Path | None) -> Result:
    """One untraced pass, then one traced pass of the same pipeline."""
    ledger = Ledger()
    plain = run_pipeline(w, seed, workdir / "plain", ledger)
    tracer = Tracer(run_id=f"{w.name}-seed{seed}-pid{os.getpid()}")
    with tracer.installed():
        traced = run_pipeline(w, seed, workdir / "traced", ledger, tr=tracer)
    if spans_path is not None:
        tracer.write(spans_path)
    ledger.check(same_outputs(traced, plain), "the traced pass reproduces the untraced one bit for bit")
    if tracer.missing:
        ledger.problems.append(f"trace points not found: {tracer.missing}")

    t = tracer.totals()
    c = tracer.counts
    batches = max(c["backward_calls"], 1)
    queries = traced.eval.queries
    fsm_train_s = t.under("training.fused_similarity_matrix", "training.batch_loss")
    metrics = {
        "visual.spatial_attention_s": (t.total["visual.spatial_attention"], "s"),
        "visual.spatial_attention_calls": (t.calls["visual.spatial_attention"], "count"),
        "visual.lstm_self_s": (t.self_time["visual.sequential_embed"], "s"),
        "visual.sequential_embed_calls": (t.calls["visual.sequential_embed"], "count"),
        "autodiff.backward_s": (t.total["autodiff.backward"], "s"),
        "autodiff.tape_nodes_per_batch": (c["tape_nodes"] / batches, "count"),
        "autodiff.grad_reach_ratio": (c["tape_nodes_reached"] / max(c["tape_nodes"], 1), "ratio"),
        "autodiff.matvec_calls": (c["matvec_calls"], "count"),
        "autodiff.matvec_mflop": (c["matvec_flop"] / 1e6, "Mflop"),
        "autodiff.backward_outer_mb": (c["outer_bytes"] / batches / 1e6, "MB/batch"),
        "text.gru_encode_s": (t.total["text.gru_encode"], "s"),
        "text.gru_encode_calls": (t.calls["text.gru_encode"], "count"),
        "text.project_text_s": (t.total["text.project_text"], "s"),
        "visual.global_embed_s": (t.total["visual.global_embed"], "s"),
        "visual.space_similarity_s": (t.total["visual.space_similarity"], "s"),
        "fusion.gate_weights_s": (t.total["fusion.gate_weights"], "s"),
        "fusion.gate_calls_per_query": (t.calls_in_step("fusion.gate_weights", "eval.score") / queries, "count"),
        "fusion.fuse_s": (t.total["fusion.fuse"], "s"),
        "training.batch_loss_s": (t.total["training.batch_loss"], "s"),
        "training.fused_similarity_matrix_s": (fsm_train_s, "s"),
        "training.loss_from_matrix_s": (t.total["training.loss_from_matrix"], "s"),
        "training.sgd_step_s": (t.total["training.sgd_step"], "s"),
        "training.batches": (t.calls["training.batch_loss"], "count"),
        "training.useful_pair_ratio": (c["pairs_used_train"] / max(c["pairs_scored_train"], 1), "ratio"),
        "training.active_hinge_frac": (c["hinge_active"] / max(c["hinge_terms"], 1), "ratio"),
        "dataio.save_container_s": (t.total["dataio.save_container"], "s"),
        "dataio.load_container_s": (t.total["dataio.load_container"], "s"),
        "dataio.container_mb": ((workdir / "traced" / "corpus.mvse").stat().st_size / 1e6, "MB"),
        "dataio.checkpoint_s": (t.total["dataio.checkpoint"], "s"),
        "synth.generate_s": (t.total["synth.generate"], "s"),
        "eval.score_s": (t.total["eval.score"], "s"),
        "eval.pairs_scored": (traced.eval.scores.size, "count"),
        "trace.overhead_frac": (duration(traced.window) / duration(plain.window) - 1.0, "ratio"),
        **traced.quality(),
    }
    metrics = {k: (float(v), u) for k, (v, u) in metrics.items()}
    return Result(ledger.failed == 0, ledger.attempted, ledger.failed, metrics, ledger.problems)


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": os.cpu_count(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def run(w: Workload, seed: int, seconds: float, trace: bool, workdir: Path,
        spans_path: Path | None = None) -> Result:
    try:
        if trace:
            return per_layer(w, seed, workdir, spans_path)
        return end_to_end(w, seed, seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
