"""The elementwise primitives of the per-op reference chains, and the LSTM
recurrence over materialized input terms.

The model runs none of these: its recurrences, gate and loss are fused
nodes in ``mvse.autodiff``. The tests build the per-op chains those nodes
replaced from these primitives, which record on the same ``Tape`` through
``autodiff._emit``, and check the fused nodes against them.
:func:`lstm_recurrence` is the recurrence ``autodiff.lstm_recurrence``
was before it formed each step's input terms itself and ran
hidden-major; given those terms from ``einsum("nvtgj,vqtn->vtqgj", k,
amap)``, it is the reference of the streamed one: byte for byte at the
benchmark's shapes, and within 8 ulp of each array's largest magnitude
at small or odd lengths.
"""

import numpy as np

from mvse.autodiff import _ACTIVE_TAPE, ShapeError, Tensor, _emit, _tanh_to_sigmoid


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


def lstm_recurrence(x: Tensor, u: Tensor, b: Tensor) -> Tensor:
    """The LSTM over T steps from a zero state, batched over [V, Q], with
    the input terms of every step given: the final hidden states [V, Q, H].

    ``x`` [V, T, Q, 4, H] holds the input terms of the gates i, f, g, o at
    every step, ``u`` [4, H, H] the recurrent weights, read as one
    [4H, H] matrix, and ``b`` [4, H] the biases. Step t:
        a = x_t + U h + b;  i, f, o = sigmoid(a_i, a_f, a_o),  g = tanh(a_g)
        c' = f·c + i·g,  h' = o·tanh(c')
    with the sigmoids as (1 + tanh(a/2)) / 2 and the op order of
    ``autodiff.lstm_recurrence``.
    """
    xd, ud, bd = x.data, u.data, b.data
    n_h = bd.shape[-1] if bd.ndim == 2 else 0
    if xd.ndim != 5 or xd.shape[3:] != (4, n_h) or ud.shape != (4, n_h, n_h) or bd.shape != (4, n_h):
        raise ShapeError(
            "lstm_recurrence", xd.shape, ud.shape, bd.shape, detail="expected [V,T,Q,4,H], [4,H,H], [4,H]"
        )
    n_v, n_t, n_q = xd.shape[:3]
    u4 = ud.reshape(4 * n_h, n_h)
    half = np.array([0.5, 0.5, 1.0, 0.5])[:, None]  # the sigmoid gates enter tanh halved
    taped = _ACTIVE_TAPE.get() is not None
    if taped:
        acts = np.empty((n_t, n_v, n_q, 4, n_h))
        hs, cs = np.zeros((2, n_t + 1, n_v, n_q, n_h))
        tcs = np.empty((n_t, n_v, n_q, n_h))
        h, c = hs[0], cs[0]
    else:
        act = np.empty((n_v, n_q, 4, n_h))
        h, c = np.zeros((n_v, n_q, n_h)), np.zeros((n_v, n_q, n_h))
    ig = np.empty((n_v, n_q, n_h))
    for t in range(n_t):
        if taped:
            act = acts[t]
        np.matmul(h.reshape(-1, n_h), u4.T, out=act.reshape(-1, 4 * n_h))
        act += xd[:, t]
        act += bd
        act *= half
        np.tanh(act, out=act)
        _tanh_to_sigmoid(act[:, :, :2])
        _tanh_to_sigmoid(act[:, :, 3])
        np.multiply(act[:, :, 0], act[:, :, 2], out=ig)
        c = np.multiply(act[:, :, 1], c, out=cs[t + 1] if taped else c)
        c += ig
        tc = np.tanh(c, out=tcs[t] if taped else h)
        h = np.multiply(act[:, :, 3], tc, out=hs[t + 1] if taped else h)

    def bk(g):
        h_prev, c_prev = hs[:-1], cs[:-1]
        i, f, gg, o = (acts[:, :, :, n] for n in range(4))
        d = np.empty((n_t, n_v, n_q, 4, n_h))
        d[:, :, :, 0] = gg * i * (1.0 - i)
        d[:, :, :, 1] = c_prev * f * (1.0 - f)
        d[:, :, :, 2] = i * (1.0 - gg * gg)
        d[:, :, :, 3] = tcs * o * (1.0 - o)
        to_c = o * (1.0 - tcs * tcs)
        dh, dc = g, 0.0
        for t in range(n_t - 1, -1, -1):
            dc = dc + dh * to_c[t]
            d[t, :, :, :3] *= dc[:, :, None]
            d[t, :, :, 3] *= dh
            dc = dc * f[t]
            if t:
                dh = (d[t].reshape(-1, 4 * n_h) @ u4).reshape(n_v, n_q, n_h)
        du = d.reshape(-1, 4 * n_h).T @ h_prev.reshape(-1, n_h)
        return d.transpose(1, 0, 2, 3, 4), du.reshape(4, n_h, n_h), d.sum(axis=(0, 1, 2))

    return _emit(h, (x, u, b), bk)
