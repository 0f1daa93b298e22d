"""Dense float64 tensors with reverse-mode automatic differentiation.

A deliberately small define-by-run engine: forward values are computed
eagerly with numpy, and while a :class:`Tape` is active every operation
appends a node recording its parents and a backward rule. The tape is
rebuilt on each forward pass. The module holds the operations the model
runs and the finite-difference oracle :func:`grad_check`. The elementwise
primitives of the per-op chains that the tests check the fused nodes
against are in ``tests/oracle_ops.py`` and record on the same tape.

The two recurrences, :func:`gru_recurrence` and :func:`lstm_recurrence`,
are one node each, whatever their length, with a hand-written
backpropagation through time; they save per-step state only while a tape
is recording. Both take the input terms with the gates stacked on one
axis, and the recurrent weights [gates, H, H] and biases [gates, H] as the
model stores them. The GRU's input terms come whole, one [Q, T, 3, H]
tensor. The LSTM's come factored, as per-cell terms and the attention maps
that weight the cells, and each step's terms are formed only when that
step runs, since the whole [V, T, Q, 4, H] tensor grows with gallery size
times queries times steps. Inside the node the LSTM runs hidden-major:
its state is [H, V*Q] and each gate's pre-activations are one contiguous
[H, V*Q] block, so every elementwise pass of a step runs over contiguous
memory rather than over runs of H floats; only its output and, taped, its
input terms' gradient are turned back into the [V, Q, ...] layout.

The recurrences compute every sigmoid gate as σ(a) = (1 + tanh(a/2)) / 2,
so one ``np.tanh`` pass gives all the gates of a step, the tanh gates
included. Halving a float64 is exact short of the subnormal range, so the
halved pre-activation ``a/2`` carries no rounding of its own. Over the
edge values and sweeps of the tests, and 10^6 draws from N(0, 3^2), this
form stays within 2^-52 (one ulp of 1/2 to 1) absolute of the two-branch
1/(1+e^-a), and gives exactly 0 and 1 at -inf and +inf.

:func:`einsum` is the one contraction with a backward rule: it carries
the GRU's input terms, the sequential head's attention maps and per-cell
LSTM input terms, and the fusion, and :func:`matvec` is one ``einsum``
spec; :func:`lstm_recurrence` contracts its input terms' gradient with
``einsum``'s cached plans.
Its forward and both backward contractions are planned once per (spec,
operand shapes) and the plans kept in a bounded cache. A plan is a
transpose and reshape of each operand, one ``np.matmul`` (or one
``np.multiply`` when no index is contracted) and a reshape and transpose
of the result. It lays out and multiplies the operands as numpy's
``np.einsum`` does for two operands with ``optimize`` on, so the results
are byte-equal to numpy's, without numpy's per-call path search.

Broadcasting happens only where an op's name or contract says so:
:func:`cosine` over its [V, Q] grid, :func:`broadcast_add`, and the
explicit index spec of :func:`einsum` (with :func:`matvec` over the
leading axes of its vector operand); everything else requires exact shape
agreement so shape bugs surface immediately.

Backward rules capture ndarrays, shapes and counts, never a
:class:`Tensor`: a tensor on a tape refers to its tape, so capturing one
would make a reference cycle and keep a finished tape alive until the
cyclic garbage collector runs.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import math
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
        """Gradient w.r.t. ``t`` (zeros if the loss never reached it).

        This is the tape's own array, not a copy: it may be a
        non-contiguous view and may share memory with other gradients, so
        it is read, never written."""
        if t.tape is self and t.node_id is not None:
            nid = t.node_id
        else:
            nid = self._leaf_ids.get(id(t))
        if nid is not None:
            g = self.gradients.get(nid)
            if g is not None:
                return np.asarray(g, dtype=np.float64)
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


def stack(parts: Iterable[Tensor]) -> Tensor:
    """Equal-shape tensors stacked along a new leading axis."""
    parts = tuple(parts)
    if not parts or any(p.data.shape != parts[0].data.shape for p in parts):
        raise ShapeError("stack", *(p.data.shape for p in parts), detail="need equal shapes")
    return _emit(np.stack([p.data for p in parts]), parts, lambda g: tuple(g))


def reshape(a: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(int(s) for s in shape)
    if int(np.prod(shape, dtype=np.int64)) != a.data.size:
        raise ShapeError("reshape", a.data.shape, shape)
    old = a.data.shape
    return _emit(a.data.reshape(shape).copy(), (a,), lambda g: (g.reshape(old),))


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


def _layout(sub: str, order: list[str], sizes: dict[str, int], merged) -> tuple:
    """How operand ``sub`` enters the product: the lengths left once the
    indices not in ``order`` (all of length 1) are dropped, the transpose
    into ``order``, and the shape ``merged`` it is then reshaped to; each
    is None where it changes nothing."""
    kept = "".join(c for c in sub if c in order)
    squeezed = tuple(sizes[c] for c in kept) if kept != sub else None
    perm = tuple(kept.index(c) for c in order) if kept != "".join(order) else None
    return squeezed, perm, merged


def _merged(groups: list[list[str]], sizes: dict[str, int]) -> tuple[int, ...] | None:
    """One axis per index group, or None when every group is one index."""
    if all(len(g) == 1 for g in groups):
        return None
    return tuple(math.prod(sizes[c] for c in g) for g in groups)


def _ready(x: np.ndarray, squeezed, perm, merged) -> np.ndarray:
    """Apply a :func:`_layout`. Dropping length-1 axes is numpy's sum over
    them, so it copies, and -0.0 reads +0.0 (the ``+ 0.0``)."""
    if squeezed is not None:
        x = x.reshape(squeezed) + 0.0
    if perm is not None:
        x = x.transpose(perm)
    if merged is not None:
        x = x.reshape(merged)
    return x


class _Contraction:
    """``x_sub,y_sub->out`` at fixed index lengths ``sizes``, planned as
    numpy's ``np.einsum`` with ``optimize`` on runs a two-operand
    contraction (``bmm_einsum``), so it calls the same product on arrays
    of the same layout and gives the same bytes.

    numpy's ``einsum_path`` hands the operands over swapped, so ``y`` is the
    product's left operand. Length-1 indices are dropped and come back in
    the output. The rest are grouped as batch (in both operands and the
    output), kept-left, contracted and kept-right, each group in the order
    of the operand it comes from. With an index to contract, the product is
    one ``np.matmul`` of [batch, kept-left, contracted] by [batch,
    contracted, kept-right]; without one, it is one broadcast
    ``np.multiply`` of both operands laid out in output order.
    """

    __slots__ = ("ready_y", "ready_x", "product", "shape", "perm")

    def __init__(self, x_sub: str, y_sub: str, out: str, sizes: dict[str, int]):
        long = {c for c, n in sizes.items() if n != 1}
        con = [c for c in y_sub if c in long and c in x_sub and c not in out]
        if not con:
            self.ready_y, self.ready_x = (
                _layout(sub, [c for c in out if c in sub], sizes,
                        tuple(sizes[c] if c in sub else 1 for c in out))
                for sub in (y_sub, x_sub)
            )
            self.product, self.shape, self.perm = np.multiply, None, None
            return
        bat = [c for c in y_sub if c in long and c in x_sub and c in out]
        y_keep = [c for c in y_sub if c in long and c not in x_sub]
        x_keep = [c for c in x_sub if c in long and c not in y_sub]
        ones = [c for c in out if c not in long]
        batch = [bat] if bat else []
        self.ready_y = _layout(y_sub, bat + y_keep + con, sizes, _merged(batch + [y_keep, con], sizes))
        self.ready_x = _layout(x_sub, bat + con + x_keep, sizes, _merged(batch + [con, x_keep], sizes))
        self.product = np.matmul
        produced = ones + bat + y_keep + x_keep
        split = ones or _merged(batch + [y_keep, x_keep], sizes) is not None
        self.shape = tuple(sizes[c] for c in produced) if split else None
        self.perm = tuple(produced.index(c) for c in out) if "".join(produced) != out else None

    def __call__(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        out = self.product(_ready(y, *self.ready_y), _ready(x, *self.ready_x))
        if self.shape is not None:
            out = out.reshape(self.shape)
        if self.perm is not None:
            out = out.transpose(self.perm)
        return out


@functools.lru_cache(maxsize=256)
def _einsum_plan(
    spec: str, shape_a: tuple[int, ...], shape_b: tuple[int, ...]
) -> tuple[_Contraction, _Contraction, _Contraction]:
    """Validate ``spec`` and the operand shapes; return the forward
    contraction and the backward ones for the first and the second operand.
    A failed check raises and so is never cached."""
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
    sizes: dict[str, int] = {}
    for sub, shape in ((left, shape_a), (right, shape_b)):
        if len(sub) != len(shape) or any(sizes.setdefault(k, n) != n for k, n in zip(sub, shape)):
            raise ShapeError("einsum", shape_a, shape_b, detail=spec)
    return (
        _Contraction(left, right, out, sizes),
        _Contraction(out, right, left, sizes),
        _Contraction(left, out, right, sizes),
    )


def einsum(spec: str, a: Tensor | np.ndarray, b: Tensor | np.ndarray) -> Tensor:
    """Two-operand einsum as one tape node, e.g. a batched matmul
    ``einsum("vij,vjk->vik", a, b)``.

    The spec and the shapes are checked, and the forward and both backward
    contractions planned, once per (spec, operand shapes); the plans are
    cached, so a repeated call does no check beyond the cache lookup and
    runs one ``np.matmul`` (or ``np.multiply``) with a few reshapes and
    transposes per contraction. A failed check is not cached and raises on
    every call. Each plan calls the product numpy's ``np.einsum`` calls
    with ``optimize`` on, so the results are byte-equal to numpy's.

    An operand given as a plain ndarray is a constant: it is not recorded,
    and no gradient is computed for it. An index must have the same length
    in both operands; unlike ``np.einsum``, length 1 does not broadcast.
    """
    a_tracked, b_tracked = isinstance(a, Tensor), isinstance(b, Tensor)
    ad = a.data if a_tracked else a
    bd = b.data if b_tracked else b
    forward, grad_a, grad_b = _einsum_plan(spec, ad.shape, bd.shape)
    parents = tuple(t for t, tracked in ((a, a_tracked), (b, b_tracked)) if tracked)

    def bk(g):
        grads = []
        if a_tracked:
            grads.append(grad_a(g, bd))
        if b_tracked:
            grads.append(grad_b(ad, g))
        return grads

    return _emit(forward(ad, bd), parents, bk)


def matvec(w: Tensor, x: Tensor) -> Tensor:
    """``w`` [m, n] applied to every row of ``x`` [..., n]: [..., m], as one
    :func:`einsum` node (``"mn,qn->qm"`` for a 2-D ``x``)."""
    if w.data.ndim != 2 or x.data.ndim < 1 or w.data.shape[1] != x.data.shape[-1]:
        raise ShapeError("matvec", w.data.shape, x.data.shape, detail="expected [m,n] x [...,n]")
    lead = "qrstuvwxyz"[: x.data.ndim - 1]
    return einsum(f"mn,{lead}n->{lead}m", w, x)


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


def lstm_recurrence(k: Tensor, amap: Tensor, u: Tensor, b: Tensor) -> Tensor:
    """The LSTM over T steps from a zero state, batched over [V, Q]: the
    final hidden states [V, Q, H].

    The input terms come factored: ``k`` [G*G, V, T, 4, H] holds each grid
    cell's input terms of the gates i, f, g, o for every (video, frame), and
    ``amap`` [V, Q, T, G*G] the attention maps that weight the cells, so
    step t's input terms are ``x_t[v, q] = amap[v, q, t] · k[:, v, t]``, step
    t of ``einsum("nvtgj,vqtn->vtqgj", k, amap)``. ``u`` [4, H, H] holds the
    recurrent weights, read as one [4H, H] matrix, and ``b`` [4, H] the
    biases. Step t:
        a = x_t + U h + b;  i, f, o = sigmoid(a_i, a_f, a_o),  g = tanh(a_g)
        c' = f·c + i·g,  h' = o·tanh(c')
    The recurrence runs hidden-major: h, c and tanh(c) are [H, V*Q], and
    each step's pre-activations are one [4H, V*Q] buffer whose gates are
    contiguous [H, V*Q] blocks. Into it go ``U h`` as one GEMM, then x_t,
    formed by one batched ``np.matmul`` of strided views of ``k`` and
    ``amap``, [V, 4H, G*G] by [V, G*G, Q], that writes straight into a
    [V, 4H, Q] view of a [4H, V*Q] buffer, so neither the [V, T, Q, 4, H]
    input terms nor a transposed copy of ``k`` is built. The sigmoids are
    (1 + tanh(a/2)) / 2, so one ``np.tanh`` over a, with a_i, a_f and a_o
    halved (exact), gives all four gates. Every step computes into buffers
    allocated once per call; without a tape, they are one workspace of
    10·V·Q·H floats, the activations overwrite the pre-activations, and c
    and h are updated in place. The [V, Q, H] output is one transposing
    copy, so it does not keep the workspace alive. The backward
    propagates through time on the same contiguous gate blocks, then
    hands the input terms' gradient in row layout, [T, V*Q, 4H], to the
    sums that give the gradients of ``u`` and ``b`` and to the cached
    :func:`einsum` backward plans of that spec, which give those of ``k``
    and ``amap``.

    The forward and every gradient equal those of the recurrence over the
    materialized input terms, ``tests/oracle_ops.lstm_recurrence`` on
    ``einsum("nvtgj,vqtn->vtqgj", k, amap)``, byte for byte at the
    benchmark's shapes. At small or odd lengths two of the GEMMs, the
    input-term product and the backward's ``u.T @ d``, may round in
    another order. Over a sweep of V, Q, T, G*G and H, each array stays
    within 8·ε times the largest magnitude of the oracle's (ε = 2^-52).
    """
    kd, ad, ud, bd = k.data, amap.data, u.data, b.data
    n_h = bd.shape[-1] if bd.ndim == 2 else 0
    if (
        kd.ndim != 5 or kd.shape[3:] != (4, n_h) or ad.ndim != 4
        or ad.shape[::2] != kd.shape[1:3] or ad.shape[3] != kd.shape[0]
        or ud.shape != (4, n_h, n_h) or bd.shape != (4, n_h)
    ):
        raise ShapeError(
            "lstm_recurrence", kd.shape, ad.shape, ud.shape, bd.shape,
            detail="expected [G*G,V,T,4,H], [V,Q,T,G*G], [4,H,H], [4,H]",
        )
    n_cells, n_v, n_t = kd.shape[:3]
    n_q = ad.shape[1]
    n_vq = n_v * n_q
    k_steps = kd.reshape(n_cells, n_v, n_t, 4 * n_h).transpose(2, 1, 3, 0)  # [T, V, 4H, G*G]
    amap_steps = ad.transpose(2, 0, 3, 1)  # [T, V, G*G, Q]
    u4 = ud.reshape(4 * n_h, n_h)
    bias = bd.reshape(4 * n_h, 1)
    half = np.repeat([0.5, 0.5, 1.0, 0.5], n_h)[:, None]  # the sigmoid gates enter tanh halved
    taped = _ACTIVE_TAPE.get() is not None
    # one workspace for the step buffer x_t, whose first H rows take i·g once
    # x_t is added in, and, without a tape, the pre-activations, h and c:
    # separate buffers this size are returned to the system and faulted in
    # again on every call
    vqh = n_vq * n_h
    work = np.empty((4 if taped else 10) * vqh)
    xt = work[: 4 * vqh].reshape(4 * n_h, n_vq)
    xt_steps = xt.reshape(4 * n_h, n_v, n_q).transpose(1, 0, 2)  # [V, 4H, Q], written by matmul
    ig = xt[:n_h]
    # taped, every step computes straight into the saved buffers: h_t and c_t
    # are rows t of hs and cs, whose last rows are the final state
    if taped:
        acts = np.empty((n_t, 4 * n_h, n_vq))
        hs, cs = np.zeros((2, n_t + 1, n_h, n_vq))
        tcs = np.empty((n_t, n_h, n_vq))
        h, c = hs[0], cs[0]
    else:
        act = work[4 * vqh: 8 * vqh].reshape(4 * n_h, n_vq)
        state = work[8 * vqh:]
        state.fill(0.0)
        h, c = state.reshape(2, n_h, n_vq)
    for t in range(n_t):
        if taped:
            act = acts[t]
        np.matmul(u4, h, out=act)
        np.matmul(k_steps[t], amap_steps[t], out=xt_steps)
        act += xt
        act += bias
        act *= half
        np.tanh(act, out=act)
        _tanh_to_sigmoid(act[: 2 * n_h])
        _tanh_to_sigmoid(act[3 * n_h:])
        np.multiply(act[:n_h], act[2 * n_h: 3 * n_h], out=ig)
        c = np.multiply(act[n_h: 2 * n_h], c, out=cs[t + 1] if taped else c)
        c += ig
        tc = np.tanh(c, out=tcs[t] if taped else h)
        h = np.multiply(act[3 * n_h:], tc, out=hs[t + 1] if taped else h)

    def bk(g):
        i, f, gg, o = (acts[:, n * n_h: (n + 1) * n_h] for n in range(4))
        # per step, the gates' input-term gradients: each gate's factor,
        # computed for all steps at once, times dc (i, f, g) or dh (o)
        d = np.empty((n_t, 4 * n_h, n_vq))
        d[:, :n_h] = gg * i * (1.0 - i)
        d[:, n_h: 2 * n_h] = cs[:-1] * f * (1.0 - f)
        d[:, 2 * n_h: 3 * n_h] = i * (1.0 - gg * gg)
        d[:, 3 * n_h:] = tcs * o * (1.0 - o)
        to_c = o * (1.0 - tcs * tcs)
        dh, dc = np.ascontiguousarray(g.reshape(n_vq, n_h).T), 0.0
        for t in range(n_t - 1, -1, -1):
            dc = dc + dh * to_c[t]
            d_ifg = d[t, : 3 * n_h].reshape(3, n_h, n_vq)
            d_ifg *= dc
            d[t, 3 * n_h:] *= dh
            dc = dc * f[t]
            if t:
                dh = u4.T @ d[t]
        # the sums over steps and pairs, and the contractions with amap and
        # k, take d and the states each step started from in row layout
        d = np.ascontiguousarray(d.transpose(0, 2, 1)).reshape(n_t, n_v, n_q, 4, n_h)
        h_prev = np.ascontiguousarray(hs[:-1].transpose(0, 2, 1))  # [T, V*Q, H]
        du = d.reshape(-1, 4 * n_h).T @ h_prev.reshape(-1, n_h)
        dx = d.transpose(1, 0, 2, 3, 4)  # [V, T, Q, 4, H]
        _, grad_k, grad_amap = _einsum_plan("nvtgj,vqtn->vtqgj", kd.shape, ad.shape)
        return grad_k(dx, ad), grad_amap(kd, dx), du.reshape(4, n_h, n_h), d.sum(axis=(0, 1, 2))

    # a copy even where H or V*Q is 1 and the transposed view is contiguous
    return _emit(h.T.reshape(n_v, n_q, n_h).copy(), (k, amap, u, b), bk)


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
