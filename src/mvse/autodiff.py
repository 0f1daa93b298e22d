"""Dense float64 tensors with reverse-mode automatic differentiation.

A deliberately small define-by-run engine: forward values are computed
eagerly with numpy, and while a :class:`Tape` is active every operation
appends a node recording its parents and a backward rule. The tape is
rebuilt on each forward pass and swept once: :meth:`Tape.backward` drops
each node's rule as it passes the node, so the forward state the rule
captured (the LSTM's saved gates and states, its input terms' factor K,
the gathered frames) is freed as the sweep moves on, while every gradient
stays on the tape. The LSTM's rule lets go of its own state sooner, while
it runs: the saved gates and cell states once it has formed the gate
factors, the hidden states once it has copied them, and K once the maps'
gradient is formed, so K's gradient is allocated after K is freed. A tape
may hand each leaf's gradient, once final, to an update callable in place
of keeping it (:class:`Tape`); training applies its SGD steps so. The
module holds the operations the model runs and the finite-difference
oracle :func:`grad_check`. The elementwise primitives of the per-op
chains that the tests check the fused nodes against are in
``tests/oracle_ops.py`` and record on the same tape.

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
memory rather than over runs of H floats; only its output is turned back
into the [V, Q, ...] layout. Its backward reads the input terms' gradient
in place in row layout, [T, V, Q, 4H], and writes K's gradient straight
into K's layout.

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
spec. :func:`lstm_recurrence` contracts its input terms' gradient with K
and with the maps by its own ``np.matmul`` calls over strided views, not
by ``einsum``'s plans, which would copy K and the gradient into their
layouts first. ``einsum``'s forward and both backward contractions are
planned once per (spec, operand shapes) and cached (:class:`_Contraction`),
byte-equal to numpy's ``np.einsum`` with ``optimize`` on, without its
per-call path search. Only parameters are tape leaves: a constant (token
vectors, pooled frames, action vectors, "average" weights) enters
:func:`einsum`, :func:`matvec` or :func:`cosine` as a plain ndarray,
which gets no node and no gradient.

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
from operator import methodcaller
from typing import Callable, Iterable, Sequence

import numpy as np

from mvse.config import _require_integer

NORM_GUARD = 1e-12  # below this an embedding is considered degenerate
_FLOAT64 = np.dtype(np.float64)
# matvec's einsum spec by the number of leading axes of its vector operand
_MATVEC_SPECS = tuple(f"mn,{lead}n->{lead}m" for lead in ("qrstuvwxyz"[:k] for k in range(11)))

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


class HandedOffGradientError(LookupError):
    """The gradient asked for was handed to the tape's update callable, and
    the tape keeps no array for it."""


_ACTIVE_TAPE: contextvars.ContextVar["Tape | None"] = contextvars.ContextVar(
    "mvse_active_tape", default=None
)


class Tensor:
    """N-dimensional float64 array, optionally tracked on a gradient tape.

    ``data`` is always a C-contiguous float64 ``np.ndarray`` of the base
    class. Such an array, what almost every op hands over, is held as it
    is, so a caller that later writes to its source passes a copy; anything
    else is converted. ``node_id``/``tape`` are set only on tensors
    produced by an operation while a tape was recording.
    """

    __slots__ = ("data", "node_id", "tape")

    def __init__(self, data):
        if type(data) is not np.ndarray or data.dtype is not _FLOAT64 or not data.flags.c_contiguous:
            data = np.asarray(data, dtype=np.float64)
            if not data.flags.c_contiguous:  # 0-d arrays are always contiguous
                data = np.ascontiguousarray(data)
        self.data = data
        self.node_id: int | None = None
        self.tape: "Tape | None" = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        return self.data.item()

    def __repr__(self) -> str:
        tracked = f", node={self.node_id}" if self.node_id is not None else ""
        return f"Tensor(shape={self.data.shape}{tracked})"


class Tape:
    """Append-only record of one forward pass.

    Node inputs always precede the node itself, so backward is a single
    reverse sweep, run once per tape. A tape is confined to one logical
    thread; independent tapes may run concurrently (the active tape is a
    context variable).

    ``update``, if given, is called as ``update(leaf, gradient)`` once for
    every leaf tensor the loss reaches, when the sweep reaches the leaf's
    node. A leaf is registered at its first use, so every node that reads
    it has a higher id and its gradient is final there. The callable may
    change the leaf's data in place: every node that has the leaf as a
    parent has run its rule by then. The
    tape then keeps no array for that gradient; its node id stays in
    :attr:`gradients`, with ``None``, so :attr:`gradients` still lists
    every node the loss reached, and :meth:`grad` of the leaf raises
    :class:`HandedOffGradientError`.
    """

    def __init__(self, update: Callable[[Tensor, np.ndarray], None] | None = None):
        self._parents: list[tuple[int, ...]] = []  # by node id
        self._rules: list = []  # by node id; None for a leaf and for a swept node
        self._leaf_ids: dict[int, int] = {}
        self._leaves: dict[int, Tensor] = {}  # by node id; keeps id() keys stable
        self._update = update
        self.gradients: dict[int, np.ndarray | None] = {}  # non-empty once swept
        self._token = None

    def __enter__(self) -> "Tape":
        self._token = _ACTIVE_TAPE.set(self)
        return self

    def __exit__(self, *exc) -> None:
        _ACTIVE_TAPE.reset(self._token)
        self._token = None

    def __len__(self) -> int:
        return len(self._rules)

    def _find(self, t: Tensor) -> int | None:
        """Node id of ``t`` on this tape, or None if it has none."""
        if t.tape is self:
            return t.node_id
        return self._leaf_ids.get(id(t))

    def _leaf_for(self, t: Tensor) -> int:
        """Node id of ``t``, not made on this tape: a leaf, registered at its first use."""
        nid = self._leaf_ids.get(id(t))
        if nid is None:
            nid = self._leaf_ids[id(t)] = len(self._rules)
            self._parents.append(())
            self._rules.append(None)
            self._leaves[nid] = t
        return nid

    def _record(self, out: Tensor, parents: tuple[Tensor, ...], backward) -> None:
        """Append the node that made ``out``; a parent not made on this tape
        is a leaf (:meth:`_leaf_for`), registered in parent order."""
        pids = tuple([p.node_id if p.tape is self else self._leaf_for(p) for p in parents])
        out.node_id = len(self._rules)
        out.tape = self
        self._parents.append(pids)
        self._rules.append(backward)

    def backward(self, loss: Tensor) -> dict[int, np.ndarray | None]:
        """Populate gradients of ``loss`` w.r.t. every ancestor node.

        A tape is swept once. The sweep drops each node's backward rule as
        it passes the node, run or not, so the forward state the rule
        captured is freed as the sweep moves on. The gradients fill
        :attr:`gradients` as the sweep forms them and stay there, read by
        :meth:`grad`, except the leaves' that the tape's update callable
        took. A second ``backward`` raises ``RuntimeError``, also after a
        sweep that raised."""
        if self.gradients:
            raise RuntimeError("backward: this tape has been swept already; record a new one")
        nid = self._find(loss)
        if nid is None:
            raise ValueError("backward: loss tensor is not on this tape")
        if loss.data.shape != ():
            raise ValueError(f"backward: loss must be scalar, got shape {loss.data.shape}")
        grads = self.gradients = {nid: np.ones((), dtype=np.float64)}
        update, leaves, parents, rules = self._update, self._leaves, self._parents, self._rules
        for i in range(len(rules) - 1, -1, -1):
            rule, rules[i] = rules[i], None
            g = grads.get(i)
            if g is None:
                continue
            if rule is not None:
                _accumulate(grads, parents[i], rule(g))
            elif update is not None:  # an op node has its rule until here, so i is a leaf
                grads[i] = None
                update(leaves[i], g)
        return grads

    def grad(self, t: Tensor) -> np.ndarray:
        """Gradient w.r.t. ``t`` (zeros if the loss never reached it).

        This is the tape's own array, not a copy: it may be a
        non-contiguous view and may share memory with other gradients, so
        it is read, never written. A leaf whose gradient went to the
        update callable raises :class:`HandedOffGradientError`."""
        nid = self._find(t)
        if nid in self.gradients:
            g = self.gradients[nid]
            if g is None:
                raise HandedOffGradientError(
                    f"grad: the gradient of node {nid} went to the tape's update callable"
                )
            return np.asarray(g, dtype=np.float64)
        return np.zeros(t.data.shape, dtype=np.float64)


def _accumulate(grads: dict, parents: tuple[int, ...], parent_grads) -> None:
    """Add one rule's parent gradients into ``grads``. A function of its own,
    so that no local of the sweep holds a gradient past its hand-off."""
    for pid, pg in zip(parents, parent_grads):
        if pg is not None:
            acc = grads.get(pid)
            grads[pid] = pg if acc is None else acc + pg


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
    out = Tensor(out_data)
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
        out = a.data + b.data
    except ValueError:  # numpy's error for shapes that do not broadcast
        raise ShapeError("broadcast_add", sa, sb) from None
    return _emit(out, (a, b), lambda g: (_unbroadcast(g, sa), _unbroadcast(g, sb)))


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


# numpy adds fewer than this many terms of a reduction in order, one after
# another, so a sum over a shorter axis taken slab by slab has its bytes
_SLAB_SUM_LIMIT = 8


def _reduce_last(ufunc, x: np.ndarray) -> np.ndarray:
    """``ufunc.reduce`` over the last axis of ``x``, kept as length 1.

    An axis shorter than ``_SLAB_SUM_LIMIT`` is reduced slab by slab: one
    elementwise ``ufunc`` pass per position on it into one buffer, in
    place of numpy's one tiny reduction per row. For ``np.maximum`` and
    ``np.add`` that gives the bytes of ``x.max`` and ``x.sum`` (for the
    maximum up to the sign of a zero). A longer axis is left to numpy."""
    n = x.shape[-1]
    if n >= _SLAB_SUM_LIMIT:
        return ufunc.reduce(x, axis=-1, keepdims=True)
    out = x[..., :1].copy()
    for j in range(1, n):
        ufunc(out, x[..., j: j + 1], out=out)
    return out


def softmax(a: Tensor) -> Tensor:
    """Softmax over the last axis, computed with max-subtraction. On a
    short last axis its max and sum are taken slab by slab
    (:func:`_reduce_last`), with the same bytes; the exponentials and the
    output share one buffer."""
    if a.data.ndim == 0 or a.data.shape[-1] == 0:
        raise ShapeError("softmax", a.data.shape, detail="empty normalization axis")
    y = np.subtract(a.data, _reduce_last(np.maximum, a.data))
    np.exp(y, out=y)
    y /= _reduce_last(np.add, y)

    def bk(g):
        out = np.multiply(g, y)
        np.subtract(g, _reduce_last(np.add, out), out=out)
        out *= y
        return (out,)

    return _emit(y, (a,), bk)


def stack(parts: Iterable[Tensor]) -> Tensor:
    """Equal-shape tensors stacked along a new leading axis."""
    parts = tuple(parts)
    if not parts or any(p.data.shape != parts[0].data.shape for p in parts):
        raise ShapeError("stack", *(p.data.shape for p in parts), detail="need equal shapes")
    return _emit(np.stack([p.data for p in parts]), parts, lambda g: tuple(g))


def reshape(a: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(int(s) for s in shape)
    if math.prod(shape) != a.data.size:
        raise ShapeError("reshape", a.data.shape, shape)
    old = a.data.shape
    return _emit(a.data.reshape(shape), (a,), lambda g: (g.reshape(old),))


def hinge_sum(
    scores: Tensor,
    negatives: tuple[Sequence[int], Sequence[int]],
    positives: tuple[Sequence[int], Sequence[int]],
    margin: float,
) -> Tensor:
    """Sum over k of max(0, scores[n_k] - scores[p_k] + margin), one tape node
    whose only parent is the [V, Q] grid ``scores``.

    ``negatives`` and ``positives`` are (rows, columns) index arrays, one
    entry pair per term, of an integer dtype; a float or bool one (which
    indexing would truncate, or read as 0 and 1) raises naming its dtype.
    One ``np.ravel_multi_index`` call checks the range and flattens the
    entries, and one ``take`` reads them. An active term (above 0) passes
    +g to its negative entry and -g to its positive entry; both entries of
    an inactive term get 0, the subgradient at the kink. The backward's
    ``np.bincount`` scatters in term order, the negatives' terms before the
    positives', from 0.0: the additions of ``np.add.at`` into zeros.
    """
    sd = scores.data
    if sd.ndim != 2:
        raise ShapeError("hinge_sum", sd.shape, detail="expected a [V,Q] grid")
    index = [np.asarray(i) for i in (*negatives, *positives)]
    shapes = [i.shape for i in index]
    if len(index) != 4 or any(s != shapes[0] for s in shapes) or len(shapes[0]) != 1:
        raise ShapeError("hinge_sum", *shapes, detail="expected (rows, columns) index arrays of one length")
    if not shapes[0][0]:
        raise ShapeError("hinge_sum", sd.shape, detail="no terms")
    for i in index:
        if i.dtype.kind not in "iu":
            raise ShapeError("hinge_sum", sd.shape, detail=f"index arrays must be integers, got dtype {i.dtype}")
    try:  # rows, then columns, each [2, terms]: the negatives', then the positives'
        flat = np.ravel_multi_index((index[::2], index[1::2]), sd.shape)
    except ValueError:
        raise ShapeError("hinge_sum", sd.shape, detail="index out of range") from None
    picked = sd.take(flat)
    terms = picked[0] - picked[1] + margin
    active = terms > 0
    flat, size, shape = flat.ravel(), sd.size, sd.shape

    def bk(g):
        g_terms = g * active
        return (np.bincount(flat, np.concatenate([g_terms, -g_terms]), size).reshape(shape),)

    return _emit(np.maximum(terms, 0.0).sum(), (scores,), bk)


def _operands(a: Tensor | np.ndarray, b: Tensor | np.ndarray) -> tuple:
    """Each operand's array; whether each is a :class:`Tensor`, not a constant
    ndarray; and the Tensors in order, the parents of the op's node."""
    a_tracked, b_tracked = isinstance(a, Tensor), isinstance(b, Tensor)
    parents = (a, b)[1 - a_tracked: 1 + b_tracked]
    return a.data if a_tracked else a, b.data if b_tracked else b, a_tracked, b_tracked, parents


def cosine(a: Tensor | np.ndarray, b: Tensor | np.ndarray) -> Tensor:
    """Cosine similarities against the rows of ``b`` [Q, D] as a [V, Q] grid,
    recorded as one tape node: for ``a`` [V, D], ``out[v, q] = cos(a[v], b[q])``;
    for ``a`` [V, Q, D], ``out[v, q] = cos(a[v, q], b[q])``.

    The backward is the closed form ``ga = g·(b/den − c·a/|a|²)``,
    ``gb = g·(a/den − c·b/|b|²)`` per entry, with ``den = |a|·|b|``, summed
    over the entries a row takes part in, for each operand that is not a
    plain ndarray, a constant. For finite inputs the only error is
    :class:`DegenerateEmbeddingError`, raised when any norm is below 1e-12
    -- in training that is a bug signal, never a value to silently clamp --
    or when a squared norm or a dot product is not finite, which for finite
    inputs means it overflowed float64.
    """
    ad, bd, a_tracked, b_tracked, parents = _operands(a, b)
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
        grads = []
        if a_tracked:
            ga = gd[..., None] * bd if paired else gd @ bd
            grads.append(ga - ((gc if paired else gc.sum(axis=1)) / na2)[..., None] * ad)
        if b_tracked:
            gb = np.einsum("vq,vqd->qd", gd, ad) if paired else gd.T @ ad
            grads.append(gb - (gc.sum(axis=0) / nb2)[:, None] * bd)
        return grads

    return _emit(c, parents, bk)


def _layout(sub: str, order: list[str], sizes: dict[str, int], merged) -> tuple:
    """Bound method calls (they also take a numpy scalar) that drop the
    indices of ``sub`` not in ``order`` (all of length 1), transpose into
    ``order`` and reshape to ``merged``, each left out where it changes
    nothing. Dropping length-1 axes copies, as numpy's sum does: -0.0 reads +0.0."""
    kept = "".join(c for c in sub if c in order)
    steps = []
    if kept != sub:
        steps += [methodcaller("reshape", tuple(sizes[c] for c in kept)), methodcaller("__add__", 0.0)]
    if kept != "".join(order):
        steps.append(methodcaller("transpose", tuple(kept.index(c) for c in order)))
    if merged is not None:
        steps.append(methodcaller("reshape", merged))
    return tuple(steps)


def _merged(groups: list[list[str]], sizes: dict[str, int]) -> tuple[int, ...] | None:
    """One axis per index group, or None when every group is one index."""
    if all(len(g) == 1 for g in groups):
        return None
    return tuple(math.prod(sizes[c] for c in g) for g in groups)


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
    ``np.multiply`` of both operands laid out in output order. The layout
    steps of both operands and the result are bound when the plan is built.
    """

    __slots__ = ("y_steps", "x_steps", "product", "out_steps")

    def __init__(self, x_sub: str, y_sub: str, out: str, sizes: dict[str, int]):
        long = {c for c, n in sizes.items() if n != 1}
        con = [c for c in y_sub if c in long and c in x_sub and c not in out]
        if not con:
            self.y_steps, self.x_steps = (
                _layout(sub, [c for c in out if c in sub], sizes,
                        tuple(sizes[c] if c in sub else 1 for c in out))
                for sub in (y_sub, x_sub)
            )
            self.product, self.out_steps = np.multiply, ()
            return
        bat = [c for c in y_sub if c in long and c in x_sub and c in out]
        y_keep = [c for c in y_sub if c in long and c not in x_sub]
        x_keep = [c for c in x_sub if c in long and c not in y_sub]
        ones = [c for c in out if c not in long]
        batch = [bat] if bat else []
        self.y_steps = _layout(y_sub, bat + y_keep + con, sizes, _merged(batch + [y_keep, con], sizes))
        self.x_steps = _layout(x_sub, bat + con + x_keep, sizes, _merged(batch + [con, x_keep], sizes))
        self.product = np.matmul
        produced = ones + bat + y_keep + x_keep
        self.out_steps = ()
        if ones or _merged(batch + [y_keep, x_keep], sizes) is not None:
            self.out_steps += (methodcaller("reshape", tuple(sizes[c] for c in produced)),)
        if "".join(produced) != out:
            self.out_steps += (methodcaller("transpose", tuple(produced.index(c) for c in out)),)

    def __call__(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        for step in self.y_steps:
            y = step(y)
        for step in self.x_steps:
            x = step(x)
        out = self.product(y, x)
        for step in self.out_steps:
            out = step(out)
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
    ad, bd, a_tracked, b_tracked, parents = _operands(a, b)
    forward, grad_a, grad_b = _einsum_plan(spec, ad.shape, bd.shape)

    def bk(g):
        grads = []
        if a_tracked:
            grads.append(grad_a(g, bd))
        if b_tracked:
            grads.append(grad_b(ad, g))
        return grads

    return _emit(forward(ad, bd), parents, bk)


def matvec(w: Tensor | np.ndarray, x: Tensor | np.ndarray) -> Tensor:
    """``w`` [m, n] applied to every row of ``x`` [..., n]: [..., m], as one
    :func:`einsum` node (``"mn,qn->qm"`` for a 2-D ``x``)."""
    wd, xd, *_ = _operands(w, x)
    if wd.ndim != 2 or not 0 < xd.ndim <= len(_MATVEC_SPECS) or wd.shape[1] != xd.shape[-1]:
        raise ShapeError("matvec", wd.shape, xd.shape, detail="expected [m,n] x [...,n]")
    return einsum(_MATVEC_SPECS[xd.ndim - 1], w, x)


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
    # taped, every step computes straight into the saved buffers: h_t is row
    # t of hs, whose last row is the final state, and c_t row t of cs
    if taped:
        zrs = np.empty((n_t, q, 2 * n_h))
        hs, cs = np.empty((n_t + 1, q, n_h)), np.empty((n_t, q, n_h))
        hs[0] = 0.0
        h = hs[0]
    else:
        h = np.zeros((q, n_h))
    a = np.empty((q, 2 * n_h))  # each step's halved z, r pre-activations
    for t in range(n_t):
        np.matmul(h, u_zr_half.T, out=a)
        a += xb[:, t, :2].reshape(q, 2 * n_h)
        zr = _tanh_to_sigmoid(np.tanh(a, out=zrs[t] if taped else a))
        z, r = zr[:, :n_h], zr[:, n_h:]
        c = np.tanh(xb[:, t, 2] + (r * h) @ ucd.T, out=cs[t] if taped else None)
        zm = z * m[t]
        h = np.multiply(1.0 - zm, h, out=hs[t + 1] if taped else None)
        h += zm * c

    def bk(g):
        zs, rs = zrs[:, :, :n_h], zrs[:, :, n_h:]
        hs_prev = hs[:-1]
        zm = zs * m
        # per step, the z, r and c input-term gradients: each step's factor,
        # computed for all steps at once, times dh (z, c) or d(r*h) (r)
        d = np.empty((n_t, q, 3, n_h))
        d[:, :, 0] = (cs - hs_prev) * zm * (1.0 - zs)
        d[:, :, 1] = hs_prev * rs * (1.0 - rs)
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
        du[:2] = (d[:, :, :2].reshape(-1, 2 * n_h).T @ hs_prev.reshape(-1, n_h)).reshape(2, n_h, n_h)
        du[2] = d[:, :, 2].reshape(-1, n_h).T @ (rs * hs_prev).reshape(-1, n_h)
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
    halved (exact), gives all four gates. The halving is one pass per step
    over whichever is smaller: the [4H, V*Q] pre-activations, or, where
    the grid has fewer cells than there are sentences (G*G < Q), the
    [V, 4H, G*G] slab of ``k`` that the step reads, halved into a buffer
    laid out as that slab, with the rows of ``u`` and ``b`` halved once per
    call. Either way the step's pre-activations have the same bytes. Every
    step computes into buffers allocated once per call; without a tape,
    they are one workspace of 10·V·Q·H floats over the call's V videos
    (one block of ``visual.sequential_embed``'s scan), the activations
    overwrite the pre-activations, and c and h are updated in place. The
    [V, Q, H] output is one transposing copy, so it does not keep the
    workspace alive.

    The backward propagates through time over the live pairs only, those
    whose output gradient is not all zero (hardest mode's loss reads at
    most 3B of the B*B pairs of a batch). It gathers their columns of the
    saved gates and states, runs the gate factors and the reverse sweep on
    the same contiguous gate blocks, and scatters the result among zeros
    into the input terms' gradient in row layout, [T, V*Q, 4H]. The sums
    that give the gradients of ``u`` and ``b`` read it over every pair, in
    the order they did when every pair ran, so the zeros change no bit. The
    gradients of ``k`` and ``amap`` read it in place too, as [T, V, Q, 4H],
    one [Q, 4H] matrix per (step, video): one ``np.matmul`` with the maps
    writes ``k``'s gradient straight into ``k``'s [G*G, V, T, 4H] layout,
    and one with ``k``'s step slabs, read in place, gives the maps' gradient
    as a [V, Q, T, G*G] view. Neither copies ``k`` or the input terms'
    gradient into another layout. When every pair is live the gathers are
    views.

    The rule drops its references to the forward state as soon as it has
    read it: the saved gates, cell states and tanh(c) once the live columns
    are gathered and the gate factors formed (with every pair live, the
    gathered gate views keep the gates to the end of the reverse sweep),
    the hidden states once the sums' copy of them is made, and ``k`` once
    the maps' gradient is formed, before ``k``'s gradient is allocated. At
    seq-train's batch shape the backward so peaks 1.1 MB above what the
    forward holds, against 4.5 MB with ``k`` and the saved state alive
    beside ``k``'s gradient.

    The forward and every gradient equal those of the recurrence over the
    materialized input terms, ``tests/oracle_ops.lstm_recurrence`` on
    ``einsum("nvtgj,vqtn->vtqgj", k, amap)``, byte for byte at the
    benchmark's shapes, with the output gradient on every pair or on a
    hardest-mode pick set. At small or odd lengths two of the GEMMs, the
    input-term product and the backward's ``u.T @ d``, may round in
    another order, and so may ``u.T @ d`` on fewer columns than pairs
    (with one column numpy takes a matrix-vector product). Over a sweep of
    V, Q, T, G*G and H with the gradient on every pair, each array stays
    within 8·ε times the largest magnitude of the oracle's (ε = 2^-52);
    with it on any number of pairs, within 8·ε times the largest sum of
    the absolute terms the array adds up, since few live pairs let those
    sums cancel.
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
    # with fewer cells than sentences, halving each step's K slab touches
    # fewer floats than halving its pre-activations; elsewhere the slab's
    # strided pass costs more than the contiguous one it would replace. The
    # slab's buffer has the slab's layout, so its product with the maps
    # rounds as before
    fold = n_cells < n_q
    u_act, b_act = (u4 * half, bias * half) if fold else (u4, bias)
    if fold:
        k_half = np.empty((n_cells, n_v, 4 * n_h)).transpose(1, 2, 0)
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
        hs, cs = np.empty((2, n_t + 1, n_h, n_vq))
        hs[0] = cs[0] = 0.0
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
        np.matmul(u_act, h, out=act)
        k_step = np.multiply(k_steps[t], half, out=k_half) if fold else k_steps[t]
        np.matmul(k_step, amap_steps[t], out=xt_steps)
        act += xt
        act += b_act
        if not fold:
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
        # rebinding these frees the forward state once read (see above)
        nonlocal acts, cs, tcs, hs, kd, k_steps
        # the live pairs, those whose output gradient is not all zero: the
        # gate factors and the reverse sweep run on their columns only
        g_rows = g.reshape(n_vq, n_h)
        live = g_rows.any(axis=1)
        cols = slice(None) if live.all() else np.flatnonzero(live)
        a_live, tc_live = acts[:, :, cols], tcs[:, :, cols]
        i, f, gg, o = (a_live[:, n * n_h: (n + 1) * n_h] for n in range(4))
        # per step, the gates' input-term gradients: each gate's factor,
        # computed for all steps at once, times dc (i, f, g) or dh (o)
        d_live = np.empty(a_live.shape)
        d_live[:, :n_h] = gg * i * (1.0 - i)
        d_live[:, n_h: 2 * n_h] = cs[:-1, :, cols] * f * (1.0 - f)
        d_live[:, 2 * n_h: 3 * n_h] = i * (1.0 - gg * gg)
        d_live[:, 3 * n_h:] = tc_live * o * (1.0 - o)
        to_c = o * (1.0 - tc_live * tc_live)
        acts = cs = tcs = None  # with every pair live, the gate views keep acts
        dh, dc = np.ascontiguousarray(g_rows[cols].T), 0.0
        for t in range(n_t - 1, -1, -1):
            dc = dc + dh * to_c[t]
            d_ifg = d_live[t, : 3 * n_h].reshape(3, n_h, d_live.shape[2])
            d_ifg *= dc
            d_live[t, 3 * n_h:] *= dh
            dc = dc * f[t]
            if t:
                dh = u4.T @ d_live[t]
        # the sums over steps and pairs read d and the states each step
        # started from in row layout, zero on the pairs that are not live,
        # so they add the same terms in the same order as over every pair
        d = np.zeros((n_t, n_vq, 4 * n_h))
        d[:, cols] = d_live.transpose(0, 2, 1)
        h_prev = np.ascontiguousarray(hs[:-1].transpose(0, 2, 1))  # [T, V*Q, H]
        hs = None
        du = d.reshape(-1, 4 * n_h).T @ h_prev.reshape(-1, n_h)
        db = d.reshape(-1, 4, n_h).sum(axis=0)
        # both contractions read d in place as [T, V, Q, 4H], one [Q, 4H]
        # matrix per (step, video). The maps' gradient reads k's step slabs
        # in place and is a [V, Q, T, G*G] view of a [T, V, Q, G*G] array;
        # it is formed first, so K is freed before its gradient is
        # allocated, and written straight into K's [G*G, V, T, 4H] layout
        d4 = d.reshape(n_t, n_v, n_q, 4 * n_h)
        damap = np.matmul(d4, k_steps).transpose(1, 2, 0, 3)
        kd = k_steps = None
        dk = np.empty((n_cells, n_v, n_t, 4 * n_h))
        np.matmul(amap_steps, d4, out=dk.transpose(2, 1, 0, 3))
        return dk.reshape(n_cells, n_v, n_t, 4, n_h), damap, du.reshape(4, n_h, n_h), db

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
    |numeric|). Given ``max_coords``, an integer >= 1 (none would pass any
    rule), a seeded subset of coordinates of that size is checked.
    """
    if not 0 < eps <= 1e-2:
        raise ValueError(f"grad_check: eps must be in (0, 1e-2], got {eps}")
    if max_coords is not None:
        _require_integer("grad_check: max_coords", max_coords, 1)
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
