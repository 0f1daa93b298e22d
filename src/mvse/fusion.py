"""Mixture-of-Experts similarity aggregation.

Per-space similarities are merged by a weighted sum whose weights come
from a softmax over a linear map of the sentence vector -- the gate sees
only the sentence, never the video, so weights can be computed once per
query and reused across a whole gallery. "average" mode bypasses the
gate with uniform weights (the ablation baseline).
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field

import numpy as np

from mvse.autodiff import ShapeError, Tensor, concat, dot, matvec, softmax


@dataclass
class GateParams:
    w: Tensor  # [M, H]; no bias, matching the gate's defining form

    def named(self) -> dict[str, Tensor]:
        return {"gate.w": self.w}

    @property
    def n_spaces(self) -> int:
        return self.w.data.shape[0]


def gate_weights(phi: Tensor, params: GateParams) -> Tensor:
    """Sentence-dependent softmax weights over the embedding spaces."""
    return softmax(matvec(params.w, phi))


def uniform_weights(m: int) -> Tensor:
    return Tensor(np.full(m, 1.0 / m))


def fuse(similarities: list[Tensor], weights: Tensor) -> Tensor:
    """Weighted sum of per-space similarity scalars."""
    if weights.data.ndim != 1 or len(similarities) != weights.data.shape[0]:
        raise ShapeError(
            "fuse", (len(similarities),), weights.data.shape,
            detail="similarity count must match weight count",
        )
    return dot(concat(similarities), weights)


def space_weights(phi: Tensor, gate: GateParams, mode: str) -> Tensor:
    """One sentence's fusion weights: the gate's softmax in "weighted"
    mode, uniform in "average" mode."""
    if mode == "weighted":
        return gate_weights(phi, gate)
    if mode == "average":
        return uniform_weights(gate.n_spaces)
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
