"""Span tracer for the benchmark's traced run.

The tracer patches public mvse functions at the names their callers
resolve them through (``mvse.model.gru_encode`` is what ``Model`` calls,
``mvse.visual.spatial_attention`` is what ``sequential_embed`` calls, and
so on), records one span per call, and restores every original on exit.
Spans are kept in memory as ``[name, start, end, parent]`` and written out
once, when the run ends. ``matvec`` gets counters only, no span: it is
called far too often for a span per call to stay cheap.
"""

from __future__ import annotations

import collections
import contextlib
import importlib
import json
import time
from pathlib import Path

import numpy as np

# (module, attribute, span name); each is a public function looked up
# through that module's globals at call time.
SPAN_POINTS = (
    ("mvse.model", "gru_encode", "text.gru_encode"),
    ("mvse.model", "project_text", "text.project_text"),
    ("mvse.model", "global_embed", "visual.global_embed"),
    ("mvse.model", "sequential_embed", "visual.sequential_embed"),
    ("mvse.visual", "spatial_attention", "visual.spatial_attention"),
    ("mvse.training", "space_similarity", "visual.space_similarity"),
    ("mvse.fusion", "gate_weights", "fusion.gate_weights"),
    ("mvse.fusion", "fuse", "fusion.fuse"),
    ("mvse.training", "batch_loss", "training.batch_loss"),
    ("mvse.training", "fused_similarity_matrix", "training.fused_similarity_matrix"),
    ("mvse.training", "sgd_step", "training.sgd_step"),
)
MATVEC_POINTS = ("mvse.text", "mvse.visual", "mvse.fusion")

_FLOAT64_BYTES = 8


class NullTracer:
    """Stands in for :class:`Tracer` when tracing is off."""

    def span(self, name: str):
        return contextlib.nullcontext()


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []      # [name, start, end, parent index or -1]
        self._open: list[int] = []
        self.counts: collections.Counter = collections.Counter()
        self.missing: list[str] = []
        # taped matvec outputs per tape: (node id, bytes of its backward outer product)
        self._outer_by_tape: dict[int, list[tuple[int, int]]] = {}

    # -- spans ---------------------------------------------------------

    def _begin(self, name: str) -> list:
        rec = [name, 0.0, 0.0, self._open[-1] if self._open else -1]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        return rec

    def _end(self, rec: list) -> None:
        rec[2] = time.perf_counter()
        self._open.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        rec = self._begin(name)
        try:
            yield
        finally:
            self._end(rec)

    def _spanned(self, fn, name: str):
        def wrapped(*args, **kwargs):
            rec = self._begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._end(rec)

        return wrapped

    # -- wrappers with counters -----------------------------------------

    def _matvec(self, fn):
        counts, outer = self.counts, self._outer_by_tape

        def matvec(w, x):
            out = fn(w, x)
            m, n = w.data.shape
            counts["matvec_calls"] += 1
            counts["matvec_flop"] += 2 * m * n
            if out.tape is not None:
                outer.setdefault(id(out.tape), []).append((out.node_id, _FLOAT64_BYTES * m * n))
            return out

        return matvec

    def _backward(self, fn):
        counts, outer = self.counts, self._outer_by_tape

        def backward(tape, loss):
            rec = self._begin("autodiff.backward")
            try:
                grads = fn(tape, loss)
            finally:
                self._end(rec)
            reached = tape.gradients
            counts["backward_calls"] += 1
            counts["tape_nodes"] += len(tape)
            counts["tape_nodes_reached"] += len(reached)
            counts["outer_bytes"] += sum(b for nid, b in outer.pop(id(tape), ()) if nid in reached)
            return grads

        return backward

    def _loss_from_matrix(self, fn):
        counts = self.counts

        def loss_from_matrix(fused, alpha, mode):
            rec = self._begin("training.loss_from_matrix")
            try:
                out = fn(fused, alpha, mode)
            finally:
                self._end(rec)
            used, hinges = hinge_usage(np.array([[t.item() for t in row] for row in fused]), alpha, mode)
            counts["pairs_scored_train"] += len(fused) ** 2
            counts["pairs_used_train"] += used
            counts["hinge_terms"] += hinges.size
            counts["hinge_active"] += int(np.count_nonzero(hinges > 0))
            return out

        return loss_from_matrix

    @contextlib.contextmanager
    def installed(self):
        """Patch every trace point for the duration of the block."""
        from mvse import autodiff

        patches: list[tuple[object, str, object]] = []

        def patch(owner, attr, make):
            original = getattr(owner, attr, None)
            if original is None:
                self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
                return
            patches.append((owner, attr, original))
            setattr(owner, attr, make(original))

        try:
            for module_name, attr, name in SPAN_POINTS:
                patch(importlib.import_module(module_name), attr, lambda f, n=name: self._spanned(f, n))
            patch(importlib.import_module("mvse.training"), "loss_from_matrix", self._loss_from_matrix)
            for module_name in MATVEC_POINTS:
                patch(importlib.import_module(module_name), "matvec", self._matvec)
            patch(autodiff.Tape, "backward", self._backward)
            yield self
        finally:
            for owner, attr, original in reversed(patches):
                setattr(owner, attr, original)

    # -- output --------------------------------------------------------

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({
                    "run": self.run_id, "id": i, "name": name,
                    "start": start, "end": end, "parent": parent,
                }) + "\n")

    def totals(self) -> "SpanTotals":
        return SpanTotals(self.spans)


def hinge_usage(values: np.ndarray, alpha: float, mode: str) -> tuple[int, np.ndarray]:
    """(distinct pairs feeding a hinge term, hinge pre-activations) for one
    B x B fused grid, mirroring the negative selection of
    ``training.loss_from_matrix`` (hardest: lowest index wins ties)."""
    b = values.shape[0]
    diag = np.diag(values)
    if mode == "sum-all":
        off = ~np.eye(b, dtype=bool)
        sentence = (values - diag[:, None] + alpha)[off]
        video = (values.T - diag[:, None] + alpha)[off]
        return b * b, np.concatenate([sentence, video])
    masked = values.copy()
    np.fill_diagonal(masked, -np.inf)
    j_sentence = masked.argmax(axis=1)
    j_video = masked.argmax(axis=0)
    rows = np.arange(b)
    used = {(i, i) for i in rows} | set(zip(rows, j_sentence)) | set(zip(j_video, rows))
    hinges = np.concatenate([
        values[rows, j_sentence] - diag + alpha,
        values[j_video, rows] - diag + alpha,
    ])
    return len(used), hinges


class SpanTotals:
    """Per-name inclusive time, self time and call count, plus the
    top-level step each span ran under."""

    def __init__(self, spans: list[list]):
        n = len(spans)
        self.spans = spans
        child_time = [0.0] * n
        self.root = [0] * n
        for i, (_, start, end, parent) in enumerate(spans):
            if parent >= 0:
                child_time[parent] += end - start
                self.root[i] = self.root[parent]
            else:
                self.root[i] = i
        self.total: dict[str, float] = collections.defaultdict(float)
        self.self_time: dict[str, float] = collections.defaultdict(float)
        self.calls: collections.Counter = collections.Counter()
        for i, (name, start, end, _) in enumerate(spans):
            self.total[name] += end - start
            self.self_time[name] += end - start - child_time[i]
            self.calls[name] += 1

    def under(self, name: str, parent_name: str) -> float:
        """Total time of ``name`` spans whose direct parent is a
        ``parent_name`` span."""
        return sum(
            end - start for name_i, start, end, parent in self.spans
            if name_i == name and parent >= 0 and self.spans[parent][0] == parent_name
        )

    def calls_in_step(self, name: str, step: str) -> int:
        return sum(
            1 for i, rec in enumerate(self.spans)
            if rec[0] == name and self.spans[self.root[i]][0] == step
        )
