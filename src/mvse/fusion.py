"""Mixture-of-Experts similarity aggregation.

Per-space similarities are merged by a weighted sum whose weights come
from a softmax over a linear map of the sentence vector -- the gate sees
only the sentence, never the video, so the weights are computed once per
sentence, [Q, M] for a batch of Q sentences and M spaces, and reused
across a whole gallery. :func:`fuse` merges the stacked [M, V, Q]
similarity grids with them into the [V, Q] score grid as one tape node.
"average" mode bypasses the gate with uniform weights (the ablation
baseline).
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field

import numpy as np

from mvse.autodiff import ShapeError, Tensor, einsum, matvec, softmax


@dataclass
class GateParams:
    w: Tensor  # [M, H]; no bias, matching the gate's defining form

    def named(self) -> dict[str, Tensor]:
        return {"gate.w": self.w}

    @property
    def n_spaces(self) -> int:
        return self.w.data.shape[0]


def gate_weights(phis: Tensor, params: GateParams) -> Tensor:
    """Sentence-dependent softmax weights over the embedding spaces:
    [Q, H] -> [Q, M]."""
    return softmax(matvec(params.w, phis))


def fuse(similarities: Tensor, weights: Tensor) -> Tensor:
    """Weighted sum over the spaces, one tape node:
    ``out[v, q] = Σ_m similarities[m, v, q] · weights[q, m]`` for the
    stacked per-space grids [M, V, Q] and the weights [Q, M]."""
    s, w = similarities.data.shape, weights.data.shape
    if len(s) != 3 or len(w) != 2 or (s[0], s[2]) != (w[1], w[0]):
        raise ShapeError("fuse", s, w, detail="expected [M,V,Q] similarities and [Q,M] weights")
    return einsum("mvq,qm->vq", similarities, weights)


def space_weights(phis: Tensor, gate: GateParams, mode: str) -> Tensor:
    """The fusion weights of every sentence vector, [Q, H] -> [Q, M]: the
    gate's softmax in "weighted" mode, uniform in "average" mode."""
    if mode == "weighted":
        return gate_weights(phis, gate)
    if mode == "average":
        m = gate.n_spaces
        return Tensor(np.full((*phis.shape[:-1], m), 1.0 / m))
    raise ValueError(f"unknown fuse mode {mode!r}; expected 'weighted' or 'average'")


HIST_BIN_WIDTH = 0.01


@dataclass
class GateStats:
    """Accumulates per-query gate weights for the post-hoc analysis dump."""

    spaces: tuple[str, ...]
    samples: list[np.ndarray] = field(default_factory=list)

    def record(self, weights: np.ndarray) -> None:
        w = np.asarray(weights, dtype=np.float64)
        if w.shape != (len(self.spaces),):
            raise ShapeError("gate_stats", w.shape, (len(self.spaces),))
        self.samples.append(w)

    def _matrix(self) -> np.ndarray:
        if not self.samples:
            raise ValueError("no gate weights recorded")
        return np.stack(self.samples)

    def summary(self) -> dict[str, dict[str, float]]:
        m = self._matrix()
        return {
            space: {
                "mean": float(m[:, i].mean()),
                "min": float(m[:, i].min()),
                "max": float(m[:, i].max()),
            }
            for i, space in enumerate(self.spaces)
        }

    def cumulative_histogram(self) -> dict[str, list[tuple[float, float]]]:
        """Per space: (bin upper edge, fraction of queries with weight <= edge),
        bins 0.01 wide across [0, 1]."""
        m = self._matrix()
        n_bins = round(1.0 / HIST_BIN_WIDTH)
        edges = [(b + 1) * HIST_BIN_WIDTH for b in range(n_bins)]
        out: dict[str, list[tuple[float, float]]] = {}
        for i, space in enumerate(self.spaces):
            col = m[:, i]
            out[space] = [(e, float(np.mean(col <= e + 1e-12))) for e in edges]
        return out

    def summary_table(self) -> str:
        rows = self.summary()
        width = max(len(s) for s in self.spaces)
        lines = [f"{'space':<{width}}  {'mean':>8}  {'min':>8}  {'max':>8}"]
        for space in self.spaces:
            s = rows[space]
            lines.append(
                f"{space:<{width}}  {s['mean']:>8.4f}  {s['min']:>8.4f}  {s['max']:>8.4f}"
            )
        return "\n".join(lines) + "\n"

    def histogram_csv(self) -> str:
        buf = io.StringIO()
        buf.write("space,bin_upper,cumulative_fraction\n")
        for space, rows in self.cumulative_histogram().items():
            for edge, frac in rows:
                buf.write(f"{space},{edge:.2f},{frac:.6f}\n")
        return buf.getvalue()
