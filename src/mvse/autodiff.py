"""Dense float64 tensors with reverse-mode automatic differentiation.

A deliberately small define-by-run engine: forward values are computed
eagerly with numpy, and while a :class:`Tape` is active every operation
appends a node recording its parents and a backward rule. The tape is
rebuilt on each forward pass.

The two recurrences, :func:`gru_recurrence` and :func:`lstm_recurrence`,
are one node each, whatever their length, with a hand-written
backpropagation through time; they save per-step state only while a tape
is recording. Both take one contract: the input terms with the gates
stacked on one axis, and the recurrent weights [gates, H, H] and biases
[gates, H] as the model stores them. The elementwise primitives they
replaced in the model (:func:`add`, :func:`add_scalar`, :func:`scale`,
:func:`mul`, :func:`sigmoid`) stay for the per-op chains the tests check
them against.

The recurrences compute every sigmoid gate as σ(a) = (1 + tanh(a/2)) / 2,
so one ``np.tanh`` pass gives all the gates of a step, the tanh gates
included. Halving a float64 is exact short of the subnormal range, so the
halved pre-activation ``a/2`` carries no rounding of its own. Over the
edge values and sweeps of the tests, and 10^6 draws from N(0, 3^2), this
form stays within 2^-52 (one ulp of 1/2 to 1) absolute of the two-branch
1/(1+e^-a) that :func:`sigmoid` computes, and gives exactly 0 and 1 at
-inf and +inf.

Broadcasting happens only where an op's name or contract says so:
scalar*tensor, :func:`matvec` over the leading axes of its vector operand,
:func:`cosine` over its [V, Q] grid, :func:`broadcast_add`, the grid-cell
broadcast in :func:`scale_cells`, and the explicit index spec of
:func:`einsum`; everything else requires exact shape agreement so shape
bugs surface immediately.

Backward rules capture ndarrays, shapes and counts, never a
:class:`Tensor`: a tensor on a tape refers to its tape, so capturing one
would make a reference cycle and keep a finished tape alive until the
cyclic garbage collector runs.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
from typing import Callable, Iterable, Sequence

import numpy as np

NORM_GUARD = 1e-12  # below this an embedding is considered degenerate

class ShapeError(ValueError):
    """Operands do not conform to an operation's shape contract."""

    def __init__(self, kind: str, *shapes: Sequence[int], detail: str = ""):
        self.kind = kind
        self.shapes = tuple(tuple(int(d) for d in s) for s in shapes)
        msg = f"{kind}: incompatible shapes " + " vs ".join(str(s) for s in self.shapes)
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class DegenerateEmbeddingError(ValueError):
    """A vector with (near-)zero norm reached a similarity computation."""


_ACTIVE_TAPE: contextvars.ContextVar["Tape | None"] = contextvars.ContextVar(
    "mvse_active_tape", default=None
)


class Tensor:
    """N-dimensional float64 array, optionally tracked on a gradient tape.

    ``data`` is always a C-contiguous float64 ndarray (row-major flat
    layout). ``node_id``/``tape`` are set only on tensors produced by an
    operation while a tape was recording.
    """

    __slots__ = ("data", "node_id", "tape")

    def __init__(self, data, copy: bool = True):
        if copy:
            arr = np.array(data, dtype=np.float64, order="C")
        else:
            arr = np.asarray(data, dtype=np.float64)
            if not arr.flags.c_contiguous:  # 0-d arrays are always contiguous
                arr = np.ascontiguousarray(arr)
        self.data = arr
        self.node_id: int | None = None
        self.tape: "Tape | None" = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return self.data.item()

    def __repr__(self) -> str:
        tracked = f", node={self.node_id}" if self.node_id is not None else ""
        return f"Tensor(shape={self.data.shape}{tracked})"


class _Node:
    __slots__ = ("parents", "backward")

    def __init__(self, parents: tuple[int, ...], backward):
        self.parents = parents
        self.backward = backward


class Tape:
    """Append-only record of one forward pass.

    Node inputs always precede the node itself, so backward is a single
    reverse sweep. A tape is confined to one logical thread; independent
    tapes may run concurrently (the active tape is a context variable).
    """

    def __init__(self):
        self._nodes: list[_Node] = []
        self._leaf_ids: dict[int, int] = {}
        self._leaf_refs: list[Tensor] = []  # keeps id() keys stable
        self.gradients: dict[int, np.ndarray] = {}
        self._token = None

    def __enter__(self) -> "Tape":
        self._token = _ACTIVE_TAPE.set(self)
        return self

    def __exit__(self, *exc) -> None:
        _ACTIVE_TAPE.reset(self._token)
        self._token = None

    def __len__(self) -> int:
        return len(self._nodes)

    def _node_for(self, t: Tensor) -> int:
        """Node id of ``t`` on this tape, registering a leaf if needed."""
        if t.tape is self and t.node_id is not None:
            return t.node_id
        nid = self._leaf_ids.get(id(t))
        if nid is None:
            nid = len(self._nodes)
            self._nodes.append(_Node((), None))
            self._leaf_ids[id(t)] = nid
            self._leaf_refs.append(t)
        return nid

    def _record(self, out: Tensor, parents: tuple[Tensor, ...], backward) -> None:
        pids = tuple(self._node_for(p) for p in parents)
        out.node_id = len(self._nodes)
        out.tape = self
        self._nodes.append(_Node(pids, backward))

    def backward(self, loss: Tensor) -> dict[int, np.ndarray]:
        """Populate gradients of ``loss`` w.r.t. every ancestor node."""
        if loss.tape is not self:
            nid = self._leaf_ids.get(id(loss))
            if nid is None:
                raise ValueError("backward: loss tensor is not on this tape")
        else:
            nid = loss.node_id
        if loss.data.shape != ():
            raise ValueError(f"backward: loss must be scalar, got shape {loss.data.shape}")
        grads: dict[int, np.ndarray] = {nid: np.ones((), dtype=np.float64)}
        for i in range(nid, -1, -1):
            g = grads.get(i)
            if g is None:
                continue
            node = self._nodes[i]
            if node.backward is None:
                continue
            for pid, pg in zip(node.parents, node.backward(g)):
                if pg is None:
                    continue
                acc = grads.get(pid)
                grads[pid] = pg if acc is None else acc + pg
        self.gradients = grads
        return grads

    def grad(self, t: Tensor) -> np.ndarray:
        """Gradient w.r.t. ``t`` (zeros if the loss never reached it)."""
        if t.tape is self and t.node_id is not None:
            nid = t.node_id
        else:
            nid = self._leaf_ids.get(id(t))
        if nid is not None:
            g = self.gradients.get(nid)
            if g is not None:
                g = np.asarray(g, dtype=np.float64)
                return g if g.flags.c_contiguous else np.ascontiguousarray(g)
        return np.zeros(t.data.shape, dtype=np.float64)


def active_tape() -> Tape | None:
    return _ACTIVE_TAPE.get()


@contextlib.contextmanager
def no_tape():
    """Temporarily disable recording (pure eager evaluation)."""
    token = _ACTIVE_TAPE.set(None)
    try:
        yield
    finally:
        _ACTIVE_TAPE.reset(token)


def _emit(out_data: np.ndarray, parents: tuple[Tensor, ...], backward_fn) -> Tensor:
    out = Tensor(out_data, copy=False)
    tape = _ACTIVE_TAPE.get()
    if tape is not None:
        tape._record(out, parents, backward_fn)
    return out


# ---------------------------------------------------------------------------
# Primitives
# ---------------------------------------------------------------------------


def matvec(w: Tensor, x: Tensor) -> Tensor:
    """``w`` [m, n] applied to every row of ``x`` [..., n]: [..., m]."""
    if w.data.ndim != 2 or x.data.ndim < 1 or w.data.shape[1] != x.data.shape[-1]:
        raise ShapeError("matvec", w.data.shape, x.data.shape, detail="expected [m,n] x [...,n]")
    wd, xd = w.data, x.data
    m, n = wd.shape

    def bk(g):
        return g.reshape(-1, m).T @ xd.reshape(-1, n), g @ wd

    return _emit(xd @ wd.T, (w, x), bk)


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise ShapeError("add", a.data.shape, b.data.shape)
    return _emit(a.data + b.data, (a, b), lambda g: (g, g))


def add_scalar(a: Tensor, c: float) -> Tensor:
    # constant shift; c is not differentiated
    return _emit(a.data + c, (a,), lambda g: (g,))


def scale(a: Tensor, c: float) -> Tensor:
    # the one permitted broadcast: scalar * tensor
    return _emit(a.data * c, (a,), lambda g: (g * c,))


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise ShapeError("elementwise_mul", a.data.shape, b.data.shape)
    ad, bd = a.data, b.data
    return _emit(ad * bd, (a, b), lambda g: (g * bd, g * ad))


def broadcast_add(a: Tensor, b: Tensor) -> Tensor:
    """a + b under numpy broadcasting; the backward sums each operand's
    gradient over the axes it was broadcast along."""
    sa, sb = a.data.shape, b.data.shape
    try:
        np.broadcast_shapes(sa, sb)
    except ValueError:
        raise ShapeError("broadcast_add", sa, sb) from None
    return _emit(a.data + b.data, (a, b), lambda g: (_unbroadcast(g, sa), _unbroadcast(g, sb)))


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    if g.shape == shape:
        return g
    lead = g.ndim - len(shape)
    axes = tuple(range(lead)) + tuple(
        lead + i for i, n in enumerate(shape) if n == 1 and g.shape[lead + i] != 1
    )
    return g.sum(axis=axes).reshape(shape)


def tanh(a: Tensor) -> Tensor:
    y = np.tanh(a.data)
    return _emit(y, (a,), lambda g: (g * (1.0 - y * y),))


def _sigmoid(x: np.ndarray) -> np.ndarray:
    e = np.exp(-np.abs(x))  # never overflows: 1/(1+e^-x) for x >= 0, e^x/(1+e^x) below
    y = np.where(x >= 0, 1.0, e)
    e += 1.0
    return np.divide(y, e, out=y)


def sigmoid(a: Tensor) -> Tensor:
    y = _sigmoid(a.data)
    return _emit(y, (a,), lambda g: (g * y * (1.0 - y),))


def softmax(a: Tensor) -> Tensor:
    """Softmax over the last axis, computed with max-subtraction."""
    if a.data.ndim == 0 or a.data.shape[-1] == 0:
        raise ShapeError("softmax", a.data.shape, detail="empty normalization axis")
    z = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(z)
    y = e / e.sum(axis=-1, keepdims=True)

    def bk(g):
        return (y * (g - (g * y).sum(axis=-1, keepdims=True)),)

    return _emit(y, (a,), bk)


def sum_all(a: Tensor) -> Tensor:
    out = np.asarray(a.data.sum(), dtype=np.float64)
    shape = a.data.shape
    return _emit(out, (a,), lambda g: (np.full(shape, float(g)),))


def stack(parts: Iterable[Tensor]) -> Tensor:
    """Equal-shape tensors stacked along a new leading axis."""
    parts = tuple(parts)
    if not parts or any(p.data.shape != parts[0].data.shape for p in parts):
        raise ShapeError("stack", *(p.data.shape for p in parts), detail="need equal shapes")
    return _emit(np.stack([p.data for p in parts]), parts, lambda g: tuple(g))


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


def reshape(a: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(int(s) for s in shape)
    if int(np.prod(shape, dtype=np.int64)) != a.data.size:
        raise ShapeError("reshape", a.data.shape, shape)
    old = a.data.shape
    return _emit(a.data.reshape(shape).copy(), (a,), lambda g: (g.reshape(old),))


def scale_cells(grid: Tensor, amap: Tensor) -> Tensor:
    """Channel broadcast: out[i,j,c] = grid[i,j,c] * amap[i,j].

    This is the only sanctioned non-scalar broadcast; it implements the
    attention reweighting of spatial grid features.
    """
    if grid.data.ndim != 3 or amap.data.ndim != 2 or grid.data.shape[:2] != amap.data.shape:
        raise ShapeError("scale_cells", grid.data.shape, amap.data.shape)
    gd, cell = grid.data, amap.data[:, :, None]
    out = gd * cell

    def bk(g):
        return g * cell, (g * gd).sum(axis=2)

    return _emit(out, (grid, amap), bk)


def hinge_sum(
    scores: Tensor,
    negatives: tuple[Sequence[int], Sequence[int]],
    positives: tuple[Sequence[int], Sequence[int]],
    margin: float,
) -> Tensor:
    """Sum over k of max(0, scores[n_k] - scores[p_k] + margin), one tape node
    whose only parent is the [V, Q] grid ``scores``.

    ``negatives`` and ``positives`` are (rows, columns) index arrays, one
    entry pair per term. An active term (above 0) passes +g to its negative
    entry and -g to its positive entry; both entries of an inactive term get
    0, the subgradient at the kink. An entry read by several terms gets the
    sum of their contributions, added in term order, the negatives' terms
    before the positives'.
    """
    sd = scores.data
    if sd.ndim != 2:
        raise ShapeError("hinge_sum", sd.shape, detail="expected a [V,Q] grid")
    index = [np.asarray(i, dtype=np.intp) for i in (*negatives, *positives)]
    shapes = [i.shape for i in index]
    if len(index) != 4 or any(s != shapes[0] for s in shapes) or len(shapes[0]) != 1:
        raise ShapeError("hinge_sum", *shapes, detail="expected (rows, columns) index arrays of one length")
    if not shapes[0][0]:
        raise ShapeError("hinge_sum", sd.shape, detail="no terms")
    if any(i.min() < 0 or i.max() >= n for i, n in zip(index, sd.shape * 2)):
        raise ShapeError("hinge_sum", sd.shape, detail="index out of range")
    neg_rows, neg_cols, pos_rows, pos_cols = index
    terms = sd[neg_rows, neg_cols] - sd[pos_rows, pos_cols] + margin
    rows, cols = np.concatenate([neg_rows, pos_rows]), np.concatenate([neg_cols, pos_cols])
    active = terms > 0
    shape = sd.shape

    def bk(g):
        g_terms = g * active
        out = np.zeros(shape)
        np.add.at(out, (rows, cols), np.concatenate([g_terms, -g_terms]))
        return (out,)

    return _emit(np.maximum(terms, 0.0).sum(), (scores,), bk)


def cosine(a: Tensor, b: Tensor) -> Tensor:
    """Cosine similarities against the rows of ``b`` [Q, D] as a [V, Q] grid,
    recorded as one tape node: for ``a`` [V, D], ``out[v, q] = cos(a[v], b[q])``;
    for ``a`` [V, Q, D], ``out[v, q] = cos(a[v, q], b[q])``.

    The backward is the closed form ``ga = g·(b/den − c·a/|a|²)``,
    ``gb = g·(a/den − c·b/|b|²)`` per entry, with ``den = |a|·|b|``, summed
    over the entries a row takes part in. For finite inputs the only error
    is :class:`DegenerateEmbeddingError`, raised when any norm is below
    1e-12 -- in training that is a bug signal, never a value to silently
    clamp -- or when a squared norm or a dot product is not finite, which
    for finite inputs means it overflowed float64.
    """
    ad, bd = a.data, b.data
    paired = ad.ndim == 3
    if (
        bd.ndim != 2 or ad.ndim not in (2, 3) or bd.shape[1] < 1
        or ad.shape[-1] != bd.shape[1] or (paired and ad.shape[1] != bd.shape[0])
    ):
        raise ShapeError("cosine", ad.shape, bd.shape, detail="expected [V,D] or [V,Q,D] against [Q,D]")
    # an overflow shows as the non-finite value checked next, not as a warning
    with np.errstate(over="ignore", invalid="ignore"):
        na2 = (ad * ad).sum(axis=-1)  # [V, Q] if paired, else [V]
        nb2 = (bd * bd).sum(axis=-1)
        ab = np.einsum("vqd,qd->vq", ad, bd) if paired else ad @ bd.T
    if not (np.isfinite(na2).all() and np.isfinite(nb2).all() and np.isfinite(ab).all()):
        raise DegenerateEmbeddingError(
            "degenerate embedding: squared norm or dot product is not finite (float64 overflow)"
        )
    if (na2 < NORM_GUARD * NORM_GUARD).any() or (nb2 < NORM_GUARD * NORM_GUARD).any():
        raise DegenerateEmbeddingError("degenerate embedding: norm below 1e-12")
    den = (np.sqrt(na2) if paired else np.sqrt(na2)[:, None]) * np.sqrt(nb2)
    c = ab / den

    def bk(g):
        gd, gc = g / den, g * c
        if paired:
            ga = gd[..., None] * bd - (gc / na2)[..., None] * ad
            gb = np.einsum("vq,vqd->qd", gd, ad)
        else:
            ga = gd @ bd - (gc.sum(axis=1) / na2)[:, None] * ad
            gb = gd.T @ ad
        return ga, gb - (gc.sum(axis=0) / nb2)[:, None] * bd

    return _emit(c, (a, b), bk)


@functools.lru_cache(maxsize=64)
def _einsum_specs(spec: str) -> tuple[str, str, str, str, str]:
    """Validate a two-operand spec; return the two operand subscripts, the
    forward spec and the two backward specs (gradient w.r.t. the first and
    the second operand)."""
    lhs, arrow, out = spec.replace(" ", "").partition("->")
    left, comma, right = lhs.partition(",")
    subs = (left, right, out)
    if (
        not arrow or not comma or "," in right
        or not all(x.isalpha() and x.isascii() for x in left + right + out)
        or any(len(set(x)) != len(x) for x in subs)
        or not set(out) <= set(left + right)
        or not set(left) <= set(right + out)
        or not set(right) <= set(left + out)
    ):
        raise ValueError(
            f"einsum: spec {spec!r} must be explicit 'ab,bc->ac' with no index repeated in a "
            "term, and every operand index must appear in the other operand or the output"
        )
    return left, right, f"{left},{right}->{out}", f"{out},{right}->{left}", f"{left},{out}->{right}"


def einsum(spec: str, a: Tensor | np.ndarray, b: Tensor | np.ndarray) -> Tensor:
    """Two-operand ``np.einsum`` as one tape node, e.g. a batched matmul
    ``einsum("vij,vjk->vik", a, b)``.

    The forward and both backward contractions are again two-operand
    einsums, run with ``optimize=True`` so they go through BLAS. An operand
    given as a plain ndarray is a constant: it is not recorded, and no
    gradient is computed for it. An index must have the same length in
    both operands; unlike ``np.einsum``, length 1 does not broadcast.
    """
    left, right, fwd, grad_a, grad_b = _einsum_specs(spec)
    a_tracked, b_tracked = isinstance(a, Tensor), isinstance(b, Tensor)
    ad = a.data if a_tracked else a
    bd = b.data if b_tracked else b
    sizes: dict[str, int] = {}
    for sub, shape in ((left, ad.shape), (right, bd.shape)):
        if len(sub) != len(shape) or any(sizes.setdefault(k, n) != n for k, n in zip(sub, shape)):
            raise ShapeError("einsum", ad.shape, bd.shape, detail=spec)
    out = np.einsum(fwd, ad, bd, optimize=True)
    parents = tuple(t for t, tracked in ((a, a_tracked), (b, b_tracked)) if tracked)

    def bk(g):
        grads = []
        if a_tracked:
            grads.append(np.einsum(grad_a, g, bd, optimize=True))
        if b_tracked:
            grads.append(np.einsum(grad_b, ad, g, optimize=True))
        return grads

    return _emit(out, parents, bk)


# ---------------------------------------------------------------------------
# Recurrences
#
# Each runs a whole recurrence from a zero state as one tape node, with the
# per-op chain's op order in its forward and a hand-written backpropagation
# through time: one reverse sweep that writes the input-term gradients into
# one buffer, then each recurrent weight's gradient as one GEMM over all
# steps. The per-step state is saved only while a tape is recording; without
# one, only the current step is held.
# ---------------------------------------------------------------------------


def _tanh_to_sigmoid(t: np.ndarray) -> np.ndarray:
    """Turn ``t = tanh(a/2)`` into sigmoid(a) = (1 + t) / 2 in place."""
    t *= 0.5
    t += 0.5
    return t


def gru_recurrence(x: Tensor, u: Tensor, b: Tensor, mask: np.ndarray) -> Tensor:
    """The masked GRU over [Q, T] steps from a zero state: the final [Q, H].

    ``x`` [Q, T, 3, H] holds the input terms ``W x`` of the update gate z,
    reset gate r and candidate c at every step, ``u`` [3, H, H] the
    recurrent weights, ``b`` [3, H] the biases and ``mask`` a [Q, T] 0/1
    constant. Step t, with ``m = mask[:, t]`` and ``a = x_t + b``:
        z = sigmoid(a_z + U_z h),  r = sigmoid(a_r + U_r h)
        c = tanh(a_c + U_c (r * h)),  h' = (1 - m·z)·h + m·z·c
    which for m in {0, 1} is the GRU update or h unchanged. ``U_z h`` and
    ``U_r h`` come from one GEMM per step, with ``u[:2]`` read as one
    [2H, H] matrix. The sigmoids are (1 + tanh(a/2)) / 2: the z and r input
    terms and a copy of ``u[:2]`` are halved once per call, which is exact,
    so each step's GEMM gives the halved pre-activations bit for bit.
    """
    xd, ud, bd = x.data, u.data, b.data
    n_h = bd.shape[-1] if bd.ndim == 2 else 0
    if (
        xd.ndim != 4 or xd.shape[2:] != (3, n_h) or ud.shape != (3, n_h, n_h)
        or bd.shape != (3, n_h) or mask.shape != xd.shape[:2]
    ):
        raise ShapeError(
            "gru_recurrence", xd.shape, ud.shape, bd.shape, mask.shape,
            detail="expected [Q,T,3,H], [3,H,H], [3,H], [Q,T]",
        )
    q, n_t = mask.shape
    xb = xd + bd  # the input terms W x + b of every step
    xb[:, :, :2] *= 0.5  # z and r enter their tanh halved
    u_zr, ucd = ud[:2].reshape(2 * n_h, n_h), ud[2]
    u_zr_half = u_zr * 0.5
    m = mask.T[:, :, None]  # [T, Q, 1]
    taped = _ACTIVE_TAPE.get() is not None
    if taped:
        zrs = np.empty((n_t, q, 2 * n_h))
        hs, cs = np.empty((n_t, q, n_h)), np.empty((n_t, q, n_h))
    h = np.zeros((q, n_h))
    a = np.empty((q, 2 * n_h))  # each step's halved z, r pre-activations
    for t in range(n_t):
        np.matmul(h, u_zr_half.T, out=a)
        a += xb[:, t, :2].reshape(q, 2 * n_h)
        zr = _tanh_to_sigmoid(np.tanh(a, out=zrs[t] if taped else a))
        z, r = zr[:, :n_h], zr[:, n_h:]
        c = np.tanh(xb[:, t, 2] + (r * h) @ ucd.T)
        if taped:
            hs[t], cs[t] = h, c
        zm = z * m[t]
        h = (1.0 - zm) * h + zm * c

    def bk(g):
        zs, rs = zrs[:, :, :n_h], zrs[:, :, n_h:]
        zm = zs * m
        # per step, the z, r and c input-term gradients: each step's factor,
        # computed for all steps at once, times dh (z, c) or d(r*h) (r)
        d = np.empty((n_t, q, 3, n_h))
        d[:, :, 0] = (cs - hs) * zm * (1.0 - zs)
        d[:, :, 1] = hs * rs * (1.0 - rs)
        d[:, :, 2] = zm * (1.0 - cs * cs)
        keep = 1.0 - zm
        dh = g
        for t in range(n_t - 1, -1, -1):
            d[t, :, 0] *= dh
            d[t, :, 2] *= dh
            d_rh = d[t, :, 2] @ ucd
            d[t, :, 1] *= d_rh
            if t:
                dh = dh * keep[t] + d_rh * rs[t] + d[t, :, :2].reshape(q, 2 * n_h) @ u_zr
        du = np.empty((3, n_h, n_h))
        du[:2] = (d[:, :, :2].reshape(-1, 2 * n_h).T @ hs.reshape(-1, n_h)).reshape(2, n_h, n_h)
        du[2] = d[:, :, 2].reshape(-1, n_h).T @ (rs * hs).reshape(-1, n_h)
        return d.transpose(1, 0, 2, 3), du, d.sum(axis=(0, 1))

    return _emit(h, (x, u, b), bk)


def lstm_recurrence(x: Tensor, u: Tensor, b: Tensor) -> Tensor:
    """The LSTM over T steps from a zero state, batched over [V, Q]: the
    final hidden states [V, Q, H].

    ``x`` [V, T, Q, 4, H] holds the input terms of the gates i, f, g, o at
    every step, ``u`` [4, H, H] the recurrent weights, read as one
    [4H, H] matrix, and ``b`` [4, H] the biases. Step t:
        a = x_t + U h + b;  i, f, o = sigmoid(a_i, a_f, a_o),  g = tanh(a_g)
        c' = f·c + i·g,  h' = o·tanh(c')
    The sigmoids are (1 + tanh(a/2)) / 2, so one ``np.tanh`` over a, with
    a_i, a_f and a_o halved (exact), gives all four gates. Every step
    computes into buffers allocated once per call; without a tape, the
    activations overwrite the pre-activations and c and h are updated in
    place.
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
    # taped, every step computes straight into the saved buffers: h_t and c_t
    # are rows t of hs and cs, whose last rows are the final state
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
        h_prev, c_prev = hs[:-1], cs[:-1]  # the states each step started from
        i, f, gg, o = (acts[:, :, :, n] for n in range(4))
        # per step, the gates' input-term gradients: each gate's factor,
        # computed for all steps at once, times dc (i, f, g) or dh (o)
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


# ---------------------------------------------------------------------------
# Finite-difference oracle
# ---------------------------------------------------------------------------


def grad_check(
    f: Callable[[Tensor], Tensor],
    x: Tensor,
    eps: float = 1e-5,
    max_coords: int | None = None,
    seed: int = 0,
) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``f`` must be a deterministic Tensor -> scalar function. The relative
    error at each coordinate is |analytic - numeric| / max(1, |analytic|,
    |numeric|). When ``max_coords`` is given, a seeded subset of coordinates
    of that size is checked instead of all of them.
    """
    if not 0 < eps <= 1e-2:
        raise ValueError(f"grad_check: eps must be in (0, 1e-2], got {eps}")
    with Tape() as tape:
        out = f(x)
        if out.data.shape != ():
            raise ValueError("grad_check: f must return a scalar")
        tape.backward(out)
        analytic = tape.grad(x).reshape(-1)

    n = x.data.size
    coords = np.arange(n)
    if max_coords is not None and max_coords < n:
        coords = np.random.default_rng(seed).choice(n, size=max_coords, replace=False)
        coords.sort()

    flat = x.data.reshape(-1)
    worst = 0.0
    with no_tape():
        for i in coords:
            saved = flat[i]
            flat[i] = saved + eps
            f_plus = float(f(x).data)
            flat[i] = saved - eps
            f_minus = float(f(x).data)
            flat[i] = saved  # bit-exact restore
            numeric = (f_plus - f_minus) / (2.0 * eps)
            a = float(analytic[i])
            err = abs(a - numeric) / max(1.0, abs(a), abs(numeric))
            if err > worst:
                worst = err
    return worst
