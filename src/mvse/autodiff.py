"""Dense float64 tensors with reverse-mode automatic differentiation.

A deliberately small define-by-run engine: forward values are computed
eagerly with numpy, and while a :class:`Tape` is active every operation
appends a node recording its parents and a backward rule. The tape is
rebuilt on each forward pass, which keeps variable-length recurrences
(GRU/LSTM unrolls) trivially correct.

Broadcasting is restricted to scalar*tensor and the explicit grid-cell
broadcast in :func:`scale_cells`; everything else requires exact shape
agreement so shape bugs surface immediately.
"""

from __future__ import annotations

import contextlib
import contextvars
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
    if w.data.ndim != 2 or x.data.ndim != 1 or w.data.shape[1] != x.data.shape[0]:
        raise ShapeError("matvec", w.data.shape, x.data.shape, detail="expected [m,n] x [n]")
    out = w.data @ x.data

    def bk(g):
        return np.outer(g, x.data), w.data.T @ g

    return _emit(out, (w, x), bk)


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
    return _emit(a.data * b.data, (a, b), lambda g: (g * b.data, g * a.data))


def tanh(a: Tensor) -> Tensor:
    y = np.tanh(a.data)
    return _emit(y, (a,), lambda g: (g * (1.0 - y * y),))


def sigmoid(a: Tensor) -> Tensor:
    x = a.data
    y = np.empty_like(x)
    pos = x >= 0
    y[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    y[~pos] = ex / (1.0 + ex)
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


def mean_over_axis(a: Tensor, axis: int) -> Tensor:
    if not 0 <= axis < a.data.ndim:
        raise ShapeError("mean_over_axis", a.data.shape, detail=f"axis {axis} out of range")
    n = a.data.shape[axis]
    if n == 0:
        raise ShapeError("mean_over_axis", a.data.shape, detail="empty axis")
    out = a.data.mean(axis=axis)

    def bk(g):
        return (np.broadcast_to(np.expand_dims(g / n, axis), a.data.shape).copy(),)

    return _emit(out, (a,), bk)


def sum_all(a: Tensor) -> Tensor:
    out = np.asarray(a.data.sum(), dtype=np.float64)
    return _emit(out, (a,), lambda g: (np.full(a.data.shape, float(g)),))


def dot(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 1 or b.data.ndim != 1 or a.data.shape != b.data.shape:
        raise ShapeError("dot", a.data.shape, b.data.shape)
    out = np.asarray(a.data @ b.data, dtype=np.float64)
    return _emit(out, (a, b), lambda g: (g * b.data, g * a.data))


def concat(parts: Iterable[Tensor]) -> Tensor:
    parts = tuple(parts)
    if not parts:
        raise ShapeError("concat", (), detail="no inputs")
    flats = [p.data.reshape(-1) for p in parts]
    out = np.concatenate(flats)
    shapes = [p.data.shape for p in parts]
    sizes = [f.size for f in flats]
    offsets = np.cumsum([0] + sizes)

    def bk(g):
        return tuple(
            g[offsets[i]: offsets[i + 1]].reshape(shapes[i]) for i in range(len(parts))
        )

    return _emit(out, parts, bk)


def pick(a: Tensor, index: int) -> Tensor:
    """Scalar entry of a rank-1 tensor."""
    if a.data.ndim != 1:
        raise ShapeError("pick", a.data.shape, detail="expected rank-1")
    if not 0 <= index < a.data.shape[0]:
        raise ShapeError("pick", a.data.shape, detail=f"index {index} out of range")
    out = np.asarray(a.data[index], dtype=np.float64)

    def bk(g):
        full = np.zeros(a.data.shape)
        full[index] = g
        return (full,)

    return _emit(out, (a,), bk)


def reshape(a: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(int(s) for s in shape)
    if int(np.prod(shape, dtype=np.int64)) != a.data.size:
        raise ShapeError("reshape", a.data.shape, shape)
    out = a.data.reshape(shape).copy()
    return _emit(out, (a,), lambda g: (g.reshape(a.data.shape),))


def scale_cells(grid: Tensor, amap: Tensor) -> Tensor:
    """Channel broadcast: out[i,j,c] = grid[i,j,c] * amap[i,j].

    This is the only sanctioned non-scalar broadcast; it implements the
    attention reweighting of spatial grid features.
    """
    if grid.data.ndim != 3 or amap.data.ndim != 2 or grid.data.shape[:2] != amap.data.shape:
        raise ShapeError("scale_cells", grid.data.shape, amap.data.shape)
    out = grid.data * amap.data[:, :, None]

    def bk(g):
        return g * amap.data[:, :, None], (g * grid.data).sum(axis=2)

    return _emit(out, (grid, amap), bk)


def hinge_sum(negatives: Sequence[Tensor], positives: Sequence[Tensor], margin: float) -> Tensor:
    """Sum over k of max(0, negatives[k] - positives[k] + margin), one tape node.

    Every input is 0-d; the node's parents are the distinct tensors given.
    An active term (above 0) passes +g to its negative and -g to its
    positive; both parents of an inactive term get 0, the subgradient at
    the kink.
    """
    inputs = (*negatives, *positives)
    if len(negatives) != len(positives) or not negatives:
        raise ShapeError("hinge_sum", (len(negatives),), (len(positives),), detail="list lengths")
    bad = [t.data.shape for t in inputs if t.data.shape != ()]
    if bad:
        raise ShapeError("hinge_sum", *bad, detail="expected 0-d inputs")
    parents = tuple({id(t): t for t in inputs}.values())
    slot = {id(t): k for k, t in enumerate(parents)}
    slots = [slot[id(t)] for t in inputs]
    terms = np.array([t.item() for t in negatives]) - np.array([t.item() for t in positives]) + margin
    active = terms > 0

    def bk(g):
        g_terms = g * active
        # start from -0.0, the exact additive identity, so each parent gets
        # exactly the sum of its terms' contributions, signed zeros included
        out = np.full(len(parents), -0.0)
        np.add.at(out, slots, np.concatenate([g_terms, -g_terms]))
        return tuple(out)

    return _emit(np.maximum(terms, 0.0).sum(), parents, bk)


def cosine(a: Tensor, b: Tensor) -> Tensor:
    """Cosine similarity of two rank-1 tensors, recorded as one tape node.

    The backward is the closed form ``ga = g·(b/den − c·a/|a|²)``,
    ``gb = g·(a/den − c·b/|b|²)`` with ``den = |a|·|b|``. For finite inputs
    the only error is :class:`DegenerateEmbeddingError`, raised when either
    norm is below 1e-12 -- in training that is a bug signal, never a value
    to silently clamp.
    """
    if a.data.ndim != 1 or b.data.ndim != 1 or a.data.shape != b.data.shape or a.data.size < 1:
        raise ShapeError("cosine", a.data.shape, b.data.shape)
    na2, nb2 = float(a.data @ a.data), float(b.data @ b.data)
    if min(na2, nb2) < NORM_GUARD * NORM_GUARD:
        raise DegenerateEmbeddingError("degenerate embedding: norm below 1e-12")
    den = np.sqrt(na2) * np.sqrt(nb2)
    c = float((a.data @ b.data) / den)

    def bk(g):
        return g * (b.data / den - c * a.data / na2), g * (a.data / den - c * b.data / nb2)

    return _emit(np.asarray(c), (a, b), bk)


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
