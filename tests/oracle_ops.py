"""The elementwise primitives of the per-op reference chains.

The model runs none of these: its recurrences, gate and loss are fused
nodes in ``mvse.autodiff``. The tests build the per-op chains those nodes
replaced from these primitives, which record on the same ``Tape`` through
``autodiff._emit``, and check the fused nodes against them.
"""

import numpy as np

from mvse.autodiff import ShapeError, Tensor, _emit


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise ShapeError("add", a.data.shape, b.data.shape)
    return _emit(a.data + b.data, (a, b), lambda g: (g, g))


def add_scalar(a: Tensor, c: float) -> Tensor:
    # constant shift; c is not differentiated
    return _emit(a.data + c, (a,), lambda g: (g,))


def scale(a: Tensor, c: float) -> Tensor:
    # scalar * tensor
    return _emit(a.data * c, (a,), lambda g: (g * c,))


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise ShapeError("elementwise_mul", a.data.shape, b.data.shape)
    ad, bd = a.data, b.data
    return _emit(ad * bd, (a, b), lambda g: (g * bd, g * ad))


def _sigmoid(x: np.ndarray) -> np.ndarray:
    e = np.exp(-np.abs(x))  # never overflows: 1/(1+e^-x) for x >= 0, e^x/(1+e^x) below
    y = np.where(x >= 0, 1.0, e)
    e += 1.0
    return np.divide(y, e, out=y)


def sigmoid(a: Tensor) -> Tensor:
    y = _sigmoid(a.data)
    return _emit(y, (a,), lambda g: (g * y * (1.0 - y),))


def sum_all(a: Tensor) -> Tensor:
    out = np.asarray(a.data.sum(), dtype=np.float64)
    shape = a.data.shape
    return _emit(out, (a,), lambda g: (np.full(shape, float(g)),))


def take(a: Tensor, index: int, axis: int = 0) -> Tensor:
    """The slice of ``a`` at ``index`` along ``axis``; of a rank-1 tensor,
    a 0-d scalar."""
    if not 0 <= axis < a.data.ndim or not 0 <= index < a.data.shape[axis]:
        raise ShapeError("take", a.data.shape, detail=f"index {index} on axis {axis} out of range")
    shape = a.data.shape
    key = (slice(None),) * axis + (index,)

    def bk(g):
        full = np.zeros(shape)
        full[key] = g
        return (full,)

    return _emit(a.data.take(index, axis=axis), (a,), bk)


def scale_cells(grid: Tensor, amap: Tensor) -> Tensor:
    """Channel broadcast: out[i,j,c] = grid[i,j,c] * amap[i,j], the
    attention reweighting of one frame's spatial grid features in the
    per-pair reference of the sequential head."""
    if grid.data.ndim != 3 or amap.data.ndim != 2 or grid.data.shape[:2] != amap.data.shape:
        raise ShapeError("scale_cells", grid.data.shape, amap.data.shape)
    gd, cell = grid.data, amap.data[:, :, None]
    out = gd * cell

    def bk(g):
        return g * cell, (g * gd).sum(axis=2)

    return _emit(out, (grid, amap), bk)
