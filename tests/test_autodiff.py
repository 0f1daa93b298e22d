import gc
import math
import re
import weakref
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mvse import autodiff, training
from mvse.autodiff import (
    DegenerateEmbeddingError,
    HandedOffGradientError,
    HingePicks,
    ShapeError,
    Tape,
    Tensor,
    broadcast_add,
    cosine,
    einsum,
    grad_check,
    gru_recurrence,
    hinge_sum,
    lstm_recurrence,
    matvec,
    reshape,
    softmax,
    stack,
    tanh,
)
from mvse.config import Dims, TripletConfig
from mvse.model import Model
from mvse.synth import SynthConfig, synth_generate

import oracle_ops
from oracle_ops import add, add_scalar, mul, scale, scale_cells, sigmoid, sum_all, sweep, take

finite_vec = arrays(
    np.float64,
    st.integers(min_value=1, max_value=6),
    elements=st.floats(min_value=-10, max_value=10, allow_nan=False),
)


def test_softmax_uniform_over_equal_logits():
    out = softmax(Tensor([0.0, 0.0, 0.0, 0.0]))
    np.testing.assert_allclose(out.data, [0.25, 0.25, 0.25, 0.25], atol=1e-15)


def test_tanh_at_origin():
    assert tanh(Tensor([0.0])).data[0] == 0.0


def test_matvec_row_sum_oracle():
    # hand oracle: rows of [[1,2],[3,4]] summed against ones
    out = matvec(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([1.0, 1.0]))
    np.testing.assert_allclose(out.data, [3.0, 7.0], atol=0)


def test_matvec_shape_error_names_kind_and_shapes():
    with pytest.raises(ShapeError) as exc:
        matvec(Tensor([[1.0, 2.0]]), Tensor([1.0, 2.0, 3.0]))
    msg = str(exc.value)
    assert "matvec" in msg and "(1, 2)" in msg and "(3,)" in msg
    with pytest.raises(ShapeError, match="matvec"):
        matvec(Tensor([[1.0, 2.0]]), Tensor(np.ones((4, 3))))
    with pytest.raises(ShapeError, match="matvec"):
        matvec(Tensor([[1.0, 2.0]]), Tensor(1.0))


def test_matvec_maps_every_row_of_a_batch():
    rng = np.random.default_rng(12)
    w, x = rng.normal(size=(4, 3)), rng.normal(size=(2, 5, 3))
    out = matvec(Tensor(w), Tensor(x))
    assert out.shape == (2, 5, 4)
    for i in range(2):
        for j in range(5):
            np.testing.assert_allclose(out.data[i, j], w @ x[i, j], rtol=1e-12, atol=1e-14)


def _two_branch_sigmoid(x: np.ndarray) -> np.ndarray:
    """The reference: 1/(1+e^-x) where x >= 0, e^x/(1+e^x) elsewhere,
    filled in through boolean masks."""
    y = np.empty_like(x)
    pos = x >= 0
    y[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    y[~pos] = ex / (1.0 + ex)
    return y


def _sigmoid_points() -> np.ndarray:
    """Edge values (zeros, subnormals, the exp overflow and underflow
    thresholds, infinities) and two seeded sweeps; the infinities are
    entries 2 and 3."""
    tiny = np.finfo(np.float64).smallest_subnormal
    edges = [0.0, -0.0, np.inf, -np.inf, 709.0, -709.0, 745.0, -745.0, 800.0, -800.0,
             tiny, -tiny, 1e-310, -1e-310, 36.7, -36.7, 1e-17, -1e-17]
    rng = np.random.default_rng(0)
    sweep = [rng.normal(scale=30.0, size=4096), rng.uniform(-800.0, 800.0, size=4096)]
    return np.concatenate([edges, *sweep])


def test_sigmoid_gives_the_two_branch_bits():
    x = _sigmoid_points()
    assert sigmoid(Tensor(x)).data.tobytes() == _two_branch_sigmoid(x).tobytes()
    assert np.isnan(sigmoid(Tensor([np.nan])).data).all()


def test_recurrence_gates_agree_with_the_two_branch_sigmoid_and_stay_finite():
    # the recurrences' gate form: tanh of the halved pre-activation, then (1 + t) / 2
    x = _sigmoid_points()
    y = autodiff._tanh_to_sigmoid(np.tanh(x * 0.5))
    assert np.max(np.abs(y - _two_branch_sigmoid(x))) <= 2.0**-52
    assert (y[2], y[3]) == (1.0, 0.0)

    rng = np.random.default_rng(8)
    extremes = np.array([800.0, -800.0, 1e6, -1e6])
    h, mask = 3, np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 0.0]])
    cases = [
        (gru_recurrence, [(2, 3, 3, h), (3, h, h), (3, h)], (mask,)),
        # extreme per-cell terms K [G*G, V, T, 4, H], weighted by the maps [V, Q, T, G*G]
        (lstm_recurrence, [(2, 2, 3, 4, h), (2, 2, 3, 2), (4, h, h), (4, h)], ()),
    ]
    for run, (x_shape, *shapes), rest in cases:
        inputs = [Tensor(rng.choice(extremes, size=x_shape))] + [Tensor(rng.normal(size=s)) for s in shapes]
        with Tape() as tape:
            out = run(*inputs, *rest)
            tape.backward(sum_all(out))
        assert np.isfinite(out.data).all(), run.__name__
        assert all(np.isfinite(tape.grad(t)).all() for t in inputs), run.__name__


def test_softmax_empty_axis_errors():
    with pytest.raises(ShapeError, match="softmax"):
        softmax(Tensor(np.zeros((3, 0))))


def _composed_cosine(a, b):
    """Value and gradients of div(dot(a, b), mul(sqrt(dot(a, a)), sqrt(dot(b, b)))),
    swept node by node in reverse."""
    d, na2, nb2 = a @ b, a @ a, b @ b
    sa, sb = np.sqrt(na2), np.sqrt(nb2)
    den = sa * sb
    g_d, g_den = 1.0 / den, -d / (den * den)  # div
    g_sa, g_sb = g_den * sb, g_den * sa  # mul
    g_na2, g_nb2 = g_sa / (2.0 * sa), g_sb / (2.0 * sb)  # sqrt
    # dot(a, b); dot(a, a) and dot(b, b) pass their gradient to both sides
    return d / den, g_d * b + 2.0 * g_na2 * a, g_d * a + 2.0 * g_nb2 * b


def _direction(n):
    unit_box = arrays(np.float64, n, elements=st.floats(min_value=-1, max_value=1))
    return unit_box.filter(lambda v: np.linalg.norm(v) > 0.1)


direction_pairs = st.integers(min_value=1, max_value=8).flatmap(
    lambda n: st.tuples(_direction(n), _direction(n))
)
log_norm = st.floats(min_value=-6, max_value=3)


def _row(values) -> Tensor:
    """A single vector as a one-row grid operand, [1, D]."""
    return Tensor(np.asarray(values, dtype=np.float64).reshape(1, -1))


class TestCosine:
    def test_self_similarity(self):
        v = _row([0.3, -1.2, 4.0])
        assert cosine(v, v).item() == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal(self):
        assert cosine(_row([1.0, 0.0]), _row([0.0, 1.0])).item() == 0.0

    def test_hand_value(self):
        # independent oracle: dot / (|a||b|) via math module
        a, b = [1.0, 2.0, 3.0], [4.0, 5.0, 6.0]
        expected = sum(x * y for x, y in zip(a, b)) / (
            math.sqrt(sum(x * x for x in a)) * math.sqrt(sum(y * y for y in b))
        )
        assert cosine(_row(a), _row(b)).item() == pytest.approx(expected, abs=1e-14)
        assert expected == pytest.approx(0.974631846, abs=1e-9)

    def test_degenerate_raises(self):
        with pytest.raises(DegenerateEmbeddingError, match="degenerate embedding"):
            cosine(_row([0.0, 0.0]), _row([1.0, 2.0]))
        with pytest.raises(DegenerateEmbeddingError):
            cosine(_row([1.0, 2.0]), _row([1e-13, 0.0]))

    def test_small_norms_are_not_degenerate(self):
        # norms 5e-7 and 5e-12 sit above the 1e-12 degenerate threshold
        small = cosine(_row([3e-7, 4e-7]), _row([6e-7, 8e-7]))
        assert small.item() == pytest.approx(1.0, abs=1e-12)
        v = _row([3e-12, 4e-12])
        assert cosine(v, v).item() == pytest.approx(1.0, abs=1e-12)

    @given(
        v=arrays(np.float64, 4, elements=st.floats(min_value=-5, max_value=5)),
        w=arrays(np.float64, 4, elements=st.floats(min_value=-5, max_value=5)),
        alpha=st.floats(min_value=0.01, max_value=100),
        beta=st.floats(min_value=0.01, max_value=100),
    )
    def test_scale_invariance(self, v, w, alpha, beta):
        if np.linalg.norm(v) < 1e-3 or np.linalg.norm(w) < 1e-3:
            return
        base = cosine(_row(v), _row(w)).item()
        scaled = cosine(_row(alpha * v), _row(beta * w)).item()
        assert scaled == pytest.approx(base, abs=1e-9)

    @pytest.mark.parametrize("constant", [None, "a", "b"])
    @pytest.mark.parametrize("a_shape", [(3, 2), (3, 2, 2)], ids=["rows", "paired"])
    def test_records_one_tape_node(self, a_shape, constant):
        """One node over the tensor operands: an operand given as a plain
        ndarray is a constant that gets no node, and the output and the
        other operand's gradient keep the bytes of the all-tensor form."""
        rng = np.random.default_rng(len(a_shape))
        operands = {"a": rng.normal(size=a_shape), "b": rng.normal(size=(2, 2))}
        g = rng.normal(size=(3, 2))
        out, nodes, grads = sweep(cosine, operands, None, g)
        assert nodes == 3  # two leaves and the cosine node
        const_out, const_nodes, const_grads = sweep(cosine, operands, constant, g)
        assert const_nodes == nodes - (constant is not None)
        assert _same_bytes(const_out, out)
        assert const_grads == {name: b for name, b in grads.items() if name != constant}

    @given(uw=direction_pairs, log_sa=log_norm, log_sb=log_norm)
    @settings(max_examples=200)
    def test_matches_the_composed_chain(self, uw, log_sa, log_sb):
        u, w = uw
        sa, sb = 10.0**log_sa, 10.0**log_sb
        a = u * (sa / np.linalg.norm(u))
        b = w * (sb / np.linalg.norm(w))
        with Tape() as tape:
            ta, tb = _row(a), _row(b)
            out = cosine(ta, tb)
            tape.backward(sum_all(out))
        value, ga, gb = _composed_cosine(a, b)
        # the grid sums its dot products in another order than ``@`` on
        # vectors; a cosine is at most 1 in size
        assert abs(out.item() - value) <= 1e-12
        assert np.max(np.abs(tape.grad(ta)[0] - ga)) * sa <= 1e-12
        assert np.max(np.abs(tape.grad(tb)[0] - gb)) * sb <= 1e-12
        # grad_check on unit-scale inputs, scaled up to the drawn norms inside f
        ua, ub = _row(a / sa), _row(b / sb)
        assert grad_check(lambda t: sum_all(cosine(scale(t, sa), _row(b))), ua) < 1e-6
        assert grad_check(lambda t: sum_all(cosine(_row(a), scale(t, sb))), ub) < 1e-6

    def test_grid_matches_every_pair(self):
        rng = np.random.default_rng(21)
        a, paired, b = rng.normal(size=(3, 5)), rng.normal(size=(3, 2, 5)), rng.normal(size=(2, 5))

        def cos(x, y):
            return x @ y / (np.linalg.norm(x) * np.linalg.norm(y))

        grid = cosine(Tensor(a), Tensor(b)).data
        pairs = cosine(Tensor(paired), Tensor(b)).data
        assert grid.shape == pairs.shape == (3, 2)
        for v in range(3):
            for q in range(2):
                assert grid[v, q] == pytest.approx(cos(a[v], b[q]), abs=1e-12)
                assert pairs[v, q] == pytest.approx(cos(paired[v, q], b[q]), abs=1e-12)

    @pytest.mark.parametrize("a_shape", [(3, 5), (3, 2, 5)], ids=["rows", "paired"])
    def test_grid_gradients(self, a_shape):
        rng = np.random.default_rng(len(a_shape))
        a, b = Tensor(rng.normal(size=a_shape)), Tensor(rng.normal(size=(2, 5)))
        weights = Tensor(rng.normal(size=(3, 2)))  # unequal weights so no entry's gradient cancels

        def loss(x, y):
            return sum_all(mul(cosine(x, y), weights))

        assert grad_check(lambda t: loss(t, b), a) < 1e-6
        assert grad_check(lambda t: loss(a, t), b) < 1e-6

    @pytest.mark.parametrize(
        "a_shape,b_shape",
        [((3, 5), (2, 4)), ((5,), (2, 5)), ((3, 5), (5,)), ((3, 3, 5), (2, 5)), ((3, 2, 5), (2, 4)),
         ((1, 1, 2, 5), (2, 5)), ((3, 0), (2, 0))],
    )
    def test_shape_errors(self, a_shape, b_shape):
        with pytest.raises(ShapeError, match="cosine"):
            cosine(Tensor(np.ones(a_shape)), Tensor(np.ones(b_shape)))

    @pytest.mark.parametrize("paired", [False, True], ids=["rows", "paired"])
    def test_one_degenerate_row_raises(self, paired):
        rng = np.random.default_rng(22)
        a, b = rng.normal(size=(3, 2, 4) if paired else (3, 4)), rng.normal(size=(2, 4))
        cosine(Tensor(a), Tensor(b))
        bad_a = a.copy()
        bad_a[(1, 1) if paired else 1] = 0.0
        with pytest.raises(DegenerateEmbeddingError, match="norm below"):
            cosine(Tensor(bad_a), Tensor(b))
        bad_b = b.copy()
        bad_b[1] = 1e-13
        with pytest.raises(DegenerateEmbeddingError, match="norm below"):
            cosine(Tensor(a), Tensor(bad_b))

    @pytest.mark.parametrize("paired", [False, True], ids=["rows", "paired"])
    def test_one_overflowing_squared_norm_raises(self, paired):
        rng = np.random.default_rng(23)
        a, b = rng.normal(size=(3, 2, 4) if paired else (3, 4)), rng.normal(size=(2, 4))
        bad_a = a.copy()
        bad_a[(2, 0, 3) if paired else (2, 3)] = 1e200
        with pytest.raises(DegenerateEmbeddingError, match="overflow"):
            cosine(Tensor(bad_a), Tensor(b))
        bad_b = b.copy()
        bad_b[0, 1] = 1e200
        with pytest.raises(DegenerateEmbeddingError, match="overflow"):
            cosine(Tensor(a), Tensor(bad_b))

    @pytest.mark.parametrize("paired", [False, True], ids=["rows", "paired"])
    @pytest.mark.parametrize("operand", ["a", "b"])
    @pytest.mark.parametrize(
        "defect, tiny_in",
        [("nan", None), ("+inf", None), ("overflow", None), ("tiny", None),
         ("nan", "same"), ("nan", "other"), ("+inf", "same"), ("+inf", "other"),
         ("overflow", "same"), ("overflow", "other")],
    )
    def test_degenerate_operands_raise_the_non_finite_error_first(self, defect, tiny_in, operand, paired):
        """A NaN, an infinite entry or a squared norm that overflows float64
        raises the non-finite error, and a norm below 1e-12 the norm error,
        in either operand and layout. A non-finite value wins over a tiny
        norm in the same call, in another row of its operand or in the
        other operand."""
        rng = np.random.default_rng(24)
        arrays = {"a": rng.normal(size=(3, 2, 4) if paired else (3, 4)), "b": rng.normal(size=(2, 4))}

        def row(name, k):  # a view of one embedding: row k, or of a paired a, its pair (k, 0)
            return arrays[name][(k, 0) if name == "a" and paired else k]

        def make_tiny(r):
            r[:] = 0.0
            r[0] = 1e-13

        if defect == "tiny":
            make_tiny(row(operand, 1))
        else:
            row(operand, 1)[2] = {"nan": np.nan, "+inf": np.inf, "overflow": 1e200}[defect]
        if tiny_in is not None:
            make_tiny(row(operand if tiny_in == "same" else "ab".replace(operand, ""), 0))
        message = "norm below 1e-12" if defect == "tiny" else "squared norm or dot product is not finite (float64 overflow)"
        with pytest.raises(DegenerateEmbeddingError, match=f"^degenerate embedding: {re.escape(message)}$"):
            cosine(Tensor(arrays["a"]), Tensor(arrays["b"]))

    @pytest.mark.parametrize("paired", [False, True], ids=["rows", "paired"])
    def test_an_empty_operand_gives_an_empty_grid(self, paired):
        a, b = np.ones((0, 2, 3) if paired else (0, 3)), np.ones((2, 3))
        assert cosine(Tensor(a), Tensor(b)).shape == (0, 2)
        if not paired:
            assert cosine(Tensor(np.ones((2, 3))), Tensor(np.ones((0, 3)))).shape == (2, 0)


class TestBackward:
    def test_sum_gradient_is_ones(self):
        with Tape() as tape:
            x = Tensor([1.0, -2.0, 7.0])
            loss = sum_all(x)
            tape.backward(loss)
            np.testing.assert_allclose(tape.grad(x), [1.0, 1.0, 1.0])

    def test_loss_grad_wrt_itself_is_one(self):
        with Tape() as tape:
            x = Tensor([2.0, 3.0])
            loss = sum_all(mul(x, x))
            grads = tape.backward(loss)
            assert grads[loss.node_id] == pytest.approx(1.0)

    def test_cosine_grad_vanishes_at_aligned_point(self):
        c = np.array([[0.5, -1.0, 2.0]])
        with Tape() as tape:
            x = Tensor(c.copy())
            loss = sum_all(cosine(x, Tensor(c.copy())))
            tape.backward(loss)
            np.testing.assert_allclose(tape.grad(x), 0.0, atol=1e-12)

    def test_non_scalar_loss_rejected(self):
        with Tape() as tape:
            x = Tensor([1.0, 2.0])
            y = tanh(x)
            with pytest.raises(ValueError, match="scalar"):
                tape.backward(y)

    def test_off_tape_loss_rejected(self):
        with Tape():
            x = Tensor([1.0])
            y = sum_all(x)
        with pytest.raises(ValueError):
            Tape().backward(y)

    def test_backward_after_recording_ends(self):
        with Tape() as tape:
            x = Tensor([3.0])
            loss = sum_all(mul(x, x))
        tape.backward(loss)
        np.testing.assert_allclose(tape.grad(x), [6.0])

    def test_a_swept_tape_keeps_its_gradients_and_no_rule(self):
        with Tape() as tape:
            x = Tensor([3.0, -1.0])
            y = mul(x, x)
            loss = sum_all(tanh(y))
            tanh(x)  # recorded after the loss, so the sweep never runs it
        ops = [i for i, rule in enumerate(tape._rules) if rule is not None]
        tape.backward(loss)
        assert len(ops) == 4 and all(rule is None for rule in tape._rules)
        assert set(ops[:3]) <= set(tape.gradients)  # the interior gradients stay
        np.testing.assert_array_equal(tape.grad(y), 1.0 - np.tanh(y.data) ** 2)
        np.testing.assert_array_equal(tape.grad(x), (1.0 - np.tanh(y.data) ** 2) * 2.0 * x.data)

    def test_a_second_backward_raises_and_leaves_the_gradients(self):
        with Tape() as tape:
            x = Tensor([3.0])
            loss = sum_all(mul(x, x))
        tape.backward(loss)
        with pytest.raises(RuntimeError, match="swept already"):
            tape.backward(loss)
        np.testing.assert_allclose(tape.grad(x), [6.0])

    def test_a_sweep_that_raised_cannot_run_again(self):
        def failing_rule(g):
            raise FloatingPointError("rule failed")

        with Tape() as tape:
            x = Tensor([3.0])
            loss = sum_all(autodiff._emit(x.data * 2.0, (x,), failing_rule))
        with pytest.raises(FloatingPointError, match="rule failed"):
            tape.backward(loss)
        with pytest.raises(RuntimeError, match="swept already"):
            tape.backward(loss)

    def test_the_sweep_frees_what_a_rule_captured(self):
        # einsum's rule captures its operands' arrays; once the sweep has
        # run it, nothing on the tape holds the constant operand
        const = np.arange(3.0)
        held = weakref.ref(const)
        with Tape() as tape:
            x = Tensor([1.0, 2.0, 3.0])
            loss = einsum("i,i->", x, const)
        del const
        assert held() is not None
        tape.backward(loss)
        assert held() is None
        np.testing.assert_array_equal(tape.grad(x), [0.0, 1.0, 2.0])

    @staticmethod
    def _record(tape_of, values):
        """x and w as leaves, x read by two nodes, and a leaf the loss does
        not reach; returns the tape, the leaves and the interior y."""
        with tape_of() as tape:
            x, w, unreached = (Tensor(v) for v in values)
            y = mul(x, w)
            loss = sum_all(tanh(add(y, x)))
            tanh(unreached)
        tape.backward(loss)
        return tape, (x, w, unreached), y

    def test_the_update_gets_each_reached_leaf_once_when_its_gradient_is_final(self):
        values = ([3.0, -1.0], [0.5, 2.0], [1.0])
        plain, plain_leaves, plain_y = self._record(Tape, values)
        handed = []

        def update(leaf, g):
            handed.append((leaf, g.copy()))
            leaf.data[...] = np.nan  # any rule that read the leaf after this would give nan

        tape, (x, w, unreached), y = self._record(lambda: Tape(update), values)
        assert [leaf for leaf, _ in handed] == [w, x]  # in reverse order of first use
        for leaf, g in handed:
            ref = plain_leaves[[x, w].index(leaf)]
            assert g.tobytes() == plain.grad(ref).tobytes()
        assert set(tape.gradients) == set(plain.gradients)  # every reached node stays listed
        assert [tape.gradients[tape._leaf_ids[id(t)]] for t in (x, w)] == [None, None]
        for leaf in (x, w):
            with pytest.raises(HandedOffGradientError):
                tape.grad(leaf)
        assert tape.grad(y).tobytes() == plain.grad(plain_y).tobytes()
        np.testing.assert_array_equal(tape.grad(unreached), [0.0])

    def test_composed_loss_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        w = Tensor(rng.normal(size=(3, 4)))
        b = Tensor(rng.normal(size=3))
        x = Tensor(rng.normal(size=4))
        target = Tensor(rng.normal(size=(1, 3)))

        def f(p):
            h = tanh(add(matvec(w, x), b))
            return sum_all(cosine(reshape(h, (1, 3)), target))

        for p in (w, b):
            assert grad_check(lambda _: f(None), p) < 1e-4


class TestGradCheck:
    def test_sum_of_squares(self):
        assert grad_check(lambda v: sum_all(mul(v, v)), Tensor([1.0, 2.0]), eps=1e-5) < 1e-6

    def test_softmax_pick_first(self):
        err = grad_check(lambda v: take(softmax(v), 0), Tensor([0.0, 0.0]), eps=1e-5)
        assert err < 1e-5

    def test_bad_eps_rejected(self):
        with pytest.raises(ValueError, match="eps"):
            grad_check(lambda v: sum_all(v), Tensor([1.0]), eps=0.5)

    @pytest.mark.parametrize("max_coords", [0, -1, 1.0, True, "2"])
    def test_max_coords_below_1_or_not_an_integer_is_rejected(self, max_coords):
        # at 0 no coordinate would be checked, so a wrong rule would pass
        with pytest.raises(ValueError, match="max_coords"):
            grad_check(lambda v: sum_all(v), Tensor([1.0, 2.0]), max_coords=max_coords)

    def test_restores_input_bit_exactly(self):
        x = Tensor([0.1, 0.2, 0.3])
        before = x.data.copy()
        grad_check(lambda v: sum_all(tanh(v)), x)
        assert np.array_equal(x.data, before)

    @pytest.mark.parametrize(
        "module, op", [(autodiff, "tanh"), (oracle_ops, "sigmoid")], ids=["tanh", "sigmoid"]
    )
    def test_detects_a_corrupted_backward_rule(self, monkeypatch, module, op):
        original = getattr(module, op)

        def scaled_backward(a):
            # same forward value; the backward rule is 1.01x the true one
            y = original(a)
            return add(scale(y, 1.01), Tensor(-0.01 * y.data))

        x = Tensor([0.1, -0.3, 0.5])

        def f(v):
            return sum_all(getattr(module, op)(v))

        assert grad_check(f, x) < 1e-6
        monkeypatch.setattr(module, op, scaled_backward)
        assert grad_check(f, x) > 1e-3


def _hinges(v):
    # v as a [1, 5] grid; entry (0, 0) is a negative in one term and a positive in another
    negatives = ([0, 0, 0], [0, 1, 2])
    positives = ([0, 0, 0], [3, 0, 4])
    return hinge_sum(reshape(v, (1, 5)), HingePicks((1, 5), negatives, positives), 0.3)


MIXED_LENGTHS = np.array([[1.0, 1.0, 1.0], [1.0, 0.0, 0.0], [1.0, 1.0, 0.0]])


def _gru(v):
    return gru_recurrence(v, take(v, 0), take(take(v, 1), 0), MIXED_LENGTHS)


_LSTM_RNG = np.random.default_rng(12)
# maps [V, Q, T, G*G] for K [2, 3, 2, 4, 2], and a K, u and b for those maps
_LSTM_MAPS = Tensor(_LSTM_RNG.dirichlet(np.ones(2), size=(3, 2, 2)))
_LSTM_K, _LSTM_U, _LSTM_B = (Tensor(_LSTM_RNG.normal(size=s)) for s in ((2, 3, 2, 4, 2), (4, 2, 2), (4, 2)))


def _lstm(v):
    u = reshape(take(take(v, 0), 0), (4, 2, 2))
    return lstm_recurrence(v, _LSTM_MAPS, u, take(take(take(v, 1), 0), 0))


def _lstm_maps(v):
    return lstm_recurrence(_LSTM_K, v, _LSTM_U, _LSTM_B)


@pytest.mark.parametrize(
    "name,fn,shape",
    [
        ("tanh", lambda v: sum_all(tanh(v)), (5,)),
        ("sigmoid", lambda v: sum_all(sigmoid(v)), (5,)),
        ("hinge_sum", _hinges, (5,)),
        ("softmax", lambda v: take(softmax(v), 1), (5,)),
        # the [V, D] x [Q, D] grid form; the [V, Q, D] form is checked in TestCosine
        ("cosine", lambda v: sum_all(tanh(cosine(take(v, 0), take(v, 1)))), (2, 3, 4)),
        # a [3, 4] matrix applied to every row of a [2, 3, 4] batch
        ("matvec", lambda v: sum_all(tanh(matvec(take(v, 0), v))), (2, 3, 4)),
        # v is both operands, so both backward contractions are checked
        ("einsum", lambda v: sum_all(tanh(einsum("bij,bkj->bik", v, v))), (2, 3, 4)),
        ("broadcast_add", lambda v: sum_all(tanh(broadcast_add(v, reshape(take(v, 1), (1, 3))))), (2, 3)),
        ("stack", lambda v: sum_all(mul(reshape(stack([v, tanh(v)]), (10,)), Tensor(np.arange(10.0)))), (5,)),
        ("take", lambda v: sum_all(tanh(mul(take(v, 0), take(v, 2, axis=1)))), (4, 4)),
        # x [3, 3, 3, 3] under mixed sentence lengths; u [3, 3, 3] and b [3, 3] are entries of x too
        ("gru_recurrence", lambda v: sum_all(tanh(_gru(v))), (3, 3, 3, 3)),
        # K [2, 3, 2, 4, 2]; u [4, 2, 2] and b [4, 2] are entries of K too
        ("lstm_recurrence", lambda v: sum_all(tanh(_lstm(v))), (2, 3, 2, 4, 2)),
        # the maps [V, Q, T, G*G] for fixed K, u and b
        ("lstm_recurrence_maps", lambda v: sum_all(tanh(_lstm_maps(v))), (3, 2, 2, 2)),
    ],
)
def test_primitive_gradients_at_random_points(name, fn, shape):
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    for _ in range(10):
        x = Tensor(rng.normal(size=shape))
        assert grad_check(fn, x) < 1e-4, name


def test_matvec_gradients_both_sides():
    rng = np.random.default_rng(11)
    w = Tensor(rng.normal(size=(4, 3)))
    x = Tensor(rng.normal(size=3))
    assert grad_check(lambda t: sum_all(tanh(matvec(t, x))), w) < 1e-4
    assert grad_check(lambda t: sum_all(tanh(matvec(w, t))), x) < 1e-4


@pytest.mark.parametrize("constant", [None, "w", "x"])
@pytest.mark.parametrize("m, n, q", [(16, 32, 8), (3, 16, 50), (64, 128, 8), (64, 64, 128), (512, 2048, 8)])
def test_matvec_gives_the_bytes_of_its_former_products(m, n, q, constant):
    # w [m, n] on x [q, n] at the model's shapes, from small to paper dims:
    # x @ w.T forward, g.T @ x and g @ w backward, as before it was an
    # einsum; an operand given as a plain ndarray is a constant that gets
    # no node, and the other keeps its gradient's bytes
    rng = np.random.default_rng(m * n * q)
    w, x, g = rng.normal(size=(m, n)), rng.normal(size=(q, n)), rng.normal(size=(q, m))
    out, nodes, grads = sweep(matvec, {"w": w, "x": x}, constant, g)
    assert nodes == 3 - (constant is not None)  # the tensor leaves and the matvec node
    assert _same_bytes(out, x @ w.T)
    expected = {"w": g.T @ x, "x": g @ w}
    assert grads == {name: e.tobytes() for name, e in expected.items() if name != constant}


def test_scale_cells_gradients_and_values():
    rng = np.random.default_rng(3)
    grid = Tensor(rng.normal(size=(2, 2, 3)))
    amap = Tensor(rng.normal(size=(2, 2)))
    out = scale_cells(grid, amap)
    np.testing.assert_allclose(out.data, grid.data * amap.data[:, :, None])
    assert grad_check(lambda t: sum_all(tanh(scale_cells(grid, t))), amap) < 1e-4
    assert grad_check(lambda t: sum_all(tanh(scale_cells(t, amap))), grid) < 1e-4
    with pytest.raises(ShapeError):
        scale_cells(grid, Tensor(np.zeros((3, 2))))


# Every contraction src/ runs (test_src_runs_only_the_tabled_specs). The
# index lengths are those of the benchmark's batches: the text contraction
# and matvec at global-train's small dims and seq-train's mid dims, the
# sequential head's at seq-train's training batch and at seq-retrieve's
# 64 x 64 eval grid, and fuse at both.
SRC_EINSUMS = [
    ("gje,qte->qtgj", dict(g=3, j=16, e=8, q=8, t=13)),
    ("gje,qte->qtgj", dict(g=3, j=64, e=32, q=16, t=7)),
    ("mn,qn->qm", dict(m=16, n=16, q=8)),
    ("mn,qn->qm", dict(m=64, n=128, q=8)),
    ("af,vtf->vta", dict(a=64, f=1024, v=8, t=8)),
    ("ah,qh->qa", dict(a=64, h=64, q=8)),
    ("ca,vta->vtc", dict(c=16, a=64, v=8, t=8)),
    ("ca,vta->vtc", dict(c=4, a=16, v=64, t=4)),
    ("ca,qa->qc", dict(c=16, a=64, q=8)),
    ("ca,qa->qc", dict(c=4, a=16, q=64)),
    ("ncgj,vtnc->nvtgj", dict(n=16, c=64, g=4, j=64, v=8, t=8)),
    ("ncgj,vtnc->nvtgj", dict(n=4, c=32, g=4, j=16, v=64, t=4)),
    ("mvq,qm->vq", dict(m=2, v=8, q=8)),
    ("mvq,qm->vq", dict(m=3, v=64, q=64)),
]
# The sequential head's earlier specs, at the lengths it ran them: the
# gates-first LSTM input terms, the materialized input terms whose backward
# plans the LSTM's backward once borrowed, which the LSTM oracle tests still
# form, and the map head applied to p + q [Q, V, T, A], which
# tests/oracle_ops.spatial_attention still runs as the reference of the
# factored one. src/ no longer runs them, but they remain contractions the
# planner must match numpy on: the contracted index leads neither operand,
# the outputs put the cell index last or drop it from the middle, and the
# map head's output is a transposed view.
RETIRED_EINSUMS = [
    ("gjnc,vtnc->vtgjn", dict(g=4, j=64, n=16, c=64, v=8, t=8)),
    ("vtgjn,vqtn->vtqgj", dict(v=8, t=8, g=4, j=64, n=16, q=8)),
    ("vtgjn,vqtn->vtqgj", dict(v=64, t=4, g=4, j=16, n=4, q=64)),
    ("nvtgj,vqtn->vtqgj", dict(n=16, v=8, t=8, g=4, j=64, q=8)),
    ("nvtgj,vqtn->vtqgj", dict(n=4, v=64, t=4, g=4, j=16, q=64)),
    ("ca,qvta->vqtc", dict(c=16, a=64, q=8, v=8, t=8)),
    ("ca,qvta->vqtc", dict(c=4, a=16, q=64, v=64, t=4)),
]
CHECKED_EINSUMS = SRC_EINSUMS + RETIRED_EINSUMS
# small lengths, one index at a time set to 1: V, Q, T and M, and every
# contracted index, which the product then drops
SMALL = dict(a=3, c=4, e=5, f=3, g=3, h=4, j=2, m=2, n=4, q=3, t=2, v=5)
LENGTH_ONE = [
    (spec, {**{c: SMALL[c] for c in spec if c.isalpha()}, one: 1})
    for spec in dict(CHECKED_EINSUMS)
    for one in sorted({c for c in spec if c.isalpha()})
]


def _subscripts(spec):
    lhs, out = spec.split("->")
    return (*lhs.split(","), out)


def _draw(rng, sub, lengths):
    """Normal draws with some entries -0.0: summing away a length-1 axis,
    as numpy does, reads those as +0.0."""
    x = rng.normal(size=[lengths[c] for c in sub])
    x[rng.random(x.shape) < 0.1] = -0.0
    return x


def _same_bytes(x, y):
    return x.shape == y.shape and x.tobytes() == y.tobytes()


def _numpy_einsum(spec, x, y):
    return np.einsum(spec, x, y, optimize=True)


class TestEinsum:
    def test_batched_matmul_oracle(self):
        rng = np.random.default_rng(5)
        a, b = rng.normal(size=(3, 2, 4)), rng.normal(size=(3, 4, 5))
        out = einsum("vij,vjk->vik", Tensor(a), Tensor(b))
        np.testing.assert_allclose(out.data, a @ b, atol=1e-12)

    def test_constant_operand_is_not_recorded(self):
        rng = np.random.default_rng(6)
        w, x = Tensor(rng.normal(size=(3, 4))), rng.normal(size=(2, 4))
        with Tape() as tape:
            out = einsum("hc,vc->vh", w, x)
            tape.backward(sum_all(out))
        assert len(tape) == 3  # the w leaf, the einsum and the sum
        np.testing.assert_allclose(tape.grad(w), np.tile(x.sum(axis=0), (3, 1)), atol=1e-12)
        assert grad_check(lambda t: sum_all(tanh(einsum("hc,vc->vh", t, x))), w) < 1e-6

    def test_length_one_does_not_broadcast(self):
        with pytest.raises(ShapeError, match="einsum"):
            einsum("ij,jk->ik", Tensor(np.ones((2, 1))), Tensor(np.ones((3, 4))))
        with pytest.raises(ShapeError, match="einsum"):
            einsum("ij,jk->ik", Tensor(np.ones((2, 3, 1))), Tensor(np.ones((3, 4))))

    @pytest.mark.parametrize(
        "spec, lengths", CHECKED_EINSUMS + LENGTH_ONE,
        ids=[f"{s}-" + "".join(f"{c}{n}" for c, n in ls.items()) for s, ls in CHECKED_EINSUMS + LENGTH_ONE],
    )
    def test_bytes_equal_numpy_forward_and_backward(self, spec, lengths):
        left, right, out = _subscripts(spec)
        rng = np.random.default_rng(zlib.crc32(repr((spec, lengths)).encode()))
        a, b, g = (_draw(rng, sub, lengths) for sub in (left, right, out))
        ta, tb = Tensor(a), Tensor(b)
        with Tape() as tape:
            y = einsum(spec, ta, tb)
            tape.backward(sum_all(mul(y, Tensor(g))))  # y's gradient is g, bit for bit
        assert _same_bytes(y.data, _numpy_einsum(spec, a, b))
        assert _same_bytes(tape.grad(ta), _numpy_einsum(f"{out},{right}->{left}", g, b))
        assert _same_bytes(tape.grad(tb), _numpy_einsum(f"{left},{out}->{right}", a, g))

    @pytest.mark.parametrize("spec", list(dict(CHECKED_EINSUMS)))
    def test_gradient_views_give_numpys_bytes_and_layout(self, spec):
        # the recurrences hand their input terms' gradient back as a
        # transposed view; the backward contractions must read any layout
        # as numpy does, and lay out their result as numpy does
        left, right, out = _subscripts(spec)
        small = {c: SMALL[c] for c in spec if c.isalpha()}
        rng = np.random.default_rng(zlib.crc32(spec.encode()))
        for lengths in (small, {**small, "q": 1}):
            a, b, g = (_draw(rng, sub, lengths) for sub in (left, right, out))
            _, grad_a, grad_b = autodiff._einsum_plan(spec, a.shape, b.shape)
            swap = (1, 0, *range(2, g.ndim))
            views = (np.ascontiguousarray(g.T).T, np.ascontiguousarray(g.transpose(swap)).transpose(swap))
            for view in views:
                for mine, ref in (
                    (grad_a(view, b), _numpy_einsum(f"{out},{right}->{left}", view, b)),
                    (grad_b(a, view), _numpy_einsum(f"{left},{out}->{right}", a, view)),
                ):
                    assert _same_bytes(mine, ref) and mine.strides == ref.strides

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(list(dict(CHECKED_EINSUMS))), st.data())
    def test_any_lengths_give_numpys_bytes(self, spec, data):
        left, right, out = _subscripts(spec)
        lengths = {c: data.draw(st.integers(1, 4), label=c) for c in sorted(set(left + right))}
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        a, b, g = (_draw(rng, sub, lengths) for sub in (left, right, out))
        forward, grad_a, grad_b = autodiff._einsum_plan(spec, a.shape, b.shape)
        assert _same_bytes(forward(a, b), _numpy_einsum(spec, a, b))
        assert _same_bytes(grad_a(g, b), _numpy_einsum(f"{out},{right}->{left}", g, b))
        assert _same_bytes(grad_b(a, g), _numpy_einsum(f"{left},{out}->{right}", a, g))

    def test_src_runs_only_the_tabled_specs(self, monkeypatch):
        """The specs the planner receives in a taped dual-S batch, a taped
        triple batch and an untaped triple grid are those of SRC_EINSUMS, so
        that table lists what src/ runs, and no spec of RETIRED_EINSUMS."""
        corpus = synth_generate(SynthConfig(
            dims=Dims.small(), n_videos=8, sentences_per_video=2,
            rho=(0.5, 0.25, 0.25), seed=3, train_fraction=0.5,
        ))
        ds, entries = corpus.dataset, corpus.manifests["train"].entries
        batch = [(ds.video_feature(idx, vid), ds.sentences[sents[0]]) for vid, idx, sents in entries]
        plan, seen = autodiff._einsum_plan, set()

        def spy(spec, shape_a, shape_b):
            seen.add(spec)
            return plan(spec, shape_a, shape_b)

        monkeypatch.setattr(autodiff, "_einsum_plan", spy)
        for spaces in ("dual-S", "triple"):
            model = Model.new(Dims.small(), spaces, seed=1, table=ds.embedding_table())
            with Tape() as tape:
                tape.backward(training.batch_loss(batch, model, TripletConfig()))
        with autodiff.no_tape():
            training.fused_similarity_matrix(model, *map(list, zip(*batch)))
        assert sorted(seen) == sorted(dict(SRC_EINSUMS))

    def test_cached_plan_still_rejects_mismatched_shapes(self):
        w, x = Tensor(np.ones((3, 4))), Tensor(np.ones((2, 4)))
        einsum("hc,vc->vh", w, x)  # plans and caches the spec at these shapes
        for bad in (np.ones((2, 5)), np.ones((2, 4, 1)), np.ones(4)):
            for _ in range(2):  # a failed check is never cached
                with pytest.raises(ShapeError, match="einsum"):
                    einsum("hc,vc->vh", w, Tensor(bad))
        assert einsum("hc,vc->vh", w, x).shape == (2, 3)

    @pytest.mark.parametrize("spec", ["ij,jk", "ij->i", "ii,ij->j", "ij,jk->ikk", "ij,jk->iz", "ij,k->ij", "i...,i->i"])
    def test_rejects_specs_without_a_two_operand_backward(self, spec):
        with pytest.raises(ValueError, match="einsum"):
            einsum(spec, Tensor(np.ones((2, 2))), Tensor(np.ones((2, 2))))


def test_broadcast_add_values_and_errors():
    a = np.arange(6.0).reshape(2, 3)
    b = np.array([10.0, 20.0, 30.0])
    np.testing.assert_array_equal(broadcast_add(Tensor(a), Tensor(b)).data, a + b)
    with Tape() as tape:
        ta, tb = Tensor(a), Tensor(b.reshape(1, 3))
        tape.backward(sum_all(broadcast_add(ta, tb)))
    np.testing.assert_array_equal(tape.grad(tb), [[2.0, 2.0, 2.0]])
    with pytest.raises(ShapeError, match="broadcast_add"):
        broadcast_add(Tensor(a), Tensor(np.ones(2)))


def test_stack_and_take_shape_errors():
    with pytest.raises(ShapeError, match="stack"):
        stack([Tensor(np.ones(2)), Tensor(np.ones(3))])
    with pytest.raises(ShapeError, match="stack"):
        stack([])
    with pytest.raises(ShapeError, match="take"):
        take(Tensor(np.ones(2)), 2)
    with pytest.raises(ShapeError, match="take"):
        take(Tensor(1.0), 0)
    with pytest.raises(ShapeError, match="take"):
        take(Tensor(np.ones((2, 3))), 0, axis=2)
    np.testing.assert_array_equal(take(Tensor(np.arange(6.0).reshape(2, 3)), 1, axis=1).data, [1.0, 4.0])


def test_cosine_overflow_is_a_typed_error():
    with pytest.raises(DegenerateEmbeddingError, match="overflow"):
        cosine(_row([1e200, 1e200]), _row([1e200, 1.0]))
    # the norms fit but the dot product's terms cancel to inf - inf
    with pytest.raises(DegenerateEmbeddingError, match="overflow"):
        cosine(_row([1e154, 1e154]), _row([1e300, -1e300]))


def test_finished_tape_is_freed_without_the_cycle_collector():
    rng = np.random.default_rng(8)
    w = Tensor(rng.normal(size=(3, 4)))
    gc.disable()
    try:
        with Tape() as tape:
            x = Tensor(rng.normal(size=(2, 4)))
            h = tanh(matvec(w, x))
            grid = scale_cells(reshape(stack([h, h]), (2, 3, 2)), Tensor(np.ones((2, 3))))
            v = reshape(grid, (4, 3))
            gram = sum_all(einsum("ij,kj->ik", v, v))
            s = add(gram, sum_all(mul(broadcast_add(v, Tensor(1.0)), softmax(sigmoid(v)))))
            u = einsum("ij,ik->jk", v, v)  # [3, 3]
            xs = reshape(stack([v, v, tanh(v)]), (2, 2, 3, 3))
            mask = np.array([[1.0, 1.0], [1.0, 0.0]])
            phi = gru_recurrence(xs, stack([u, u, u]), take(take(xs, 0), 0), mask)
            k = reshape(stack([v, v]), (1, 1, 2, 4, 3))
            seq = lstm_recurrence(k, reshape(take(h, 0, axis=1), (1, 1, 2, 1)), stack([u, u, u, u]), v)
            s = add(s, add(sum_all(phi), sum_all(seq)))
            pair = reshape(stack([take(take(cosine(v, h), 3), 1), s]), (1, 2))
            loss = hinge_sum(pair, HingePicks((1, 2), ([0], [0]), ([0], [1])), 0.1)
            tape.backward(loss)
        ref = weakref.ref(tape)
        del tape, loss, x, h, grid, v, gram, s, u, xs, phi, k, seq, pair
        assert ref() is None
    finally:
        gc.enable()


@given(logits=finite_vec)
@settings(max_examples=200)
def test_softmax_invariants(logits):
    y = softmax(Tensor(logits)).data
    assert np.all(y > 0)
    assert abs(y.sum() - 1.0) < 1e-9
    shifted = softmax(Tensor(logits + 123.456)).data
    assert np.max(np.abs(shifted - y)) < 1e-9


def _softmax_by_row_reductions(x, g):
    """softmax's value and its input's gradient for the output gradient
    ``g``, with the max and the sums over the last axis taken as one numpy
    reduction per row."""
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    y = e / e.sum(axis=-1, keepdims=True)
    return y, y * (g - (g * y).sum(axis=-1, keepdims=True))


@pytest.mark.parametrize("n", range(1, 18))
def test_softmax_gives_the_bytes_of_row_reductions(n):
    # slab by slab below length 8 (the attention's 4 cells, the gate's 2
    # and 3 spaces), numpy's reductions from 8 on; magnitudes from 1e-3 to
    # 700 of either sign, a row of ties, and a row of zeros of both signs
    rng = np.random.default_rng(n)
    shape = (2, 3, 5, n)
    x = rng.choice([-1.0, 1.0], size=shape) * 10.0 ** rng.uniform(-3, math.log10(700), size=shape)
    x[0, 0, 0] = x[0, 0, 0, 0]
    x[0, 0, 1] = np.where(np.arange(n) % 2, 0.0, -0.0)
    g = rng.normal(size=shape)
    t = Tensor(x)
    with Tape() as tape:
        y = softmax(t)
        tape.backward(sum_all(mul(y, Tensor(g))))  # y's gradient is g, bit for bit
    ref_y, ref_dx = _softmax_by_row_reductions(x, g)
    assert _same_bytes(y.data, ref_y) and _same_bytes(tape.grad(t), ref_dx)


@given(
    x=arrays(np.float64, 4, elements=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
)
@settings(max_examples=200)
def test_saturating_ops_stay_finite(x):
    t = Tensor(x)
    for out in (tanh(t), sigmoid(t), softmax(t)):
        assert np.all(np.isfinite(out.data))


def test_no_recording_without_tape():
    x = Tensor([1.0, 2.0])
    y = tanh(x)
    assert y.node_id is None and y.tape is None


def test_independent_tapes_do_not_interfere():
    x = Tensor([1.0, 2.0])
    with Tape() as t1:
        l1 = sum_all(mul(x, x))
    with Tape() as t2:
        l2 = sum_all(mul(mul(x, x), x))
    t1.backward(l1)
    t2.backward(l2)
    np.testing.assert_allclose(t1.grad(x), 2 * x.data)
    np.testing.assert_allclose(t2.grad(x), 3 * x.data**2)


def test_one_leaf_read_on_two_live_tapes_in_turn():
    """Each tape finds a leaf it did not make in its own registry, so a leaf
    read on tape 1, then tape 2, then tape 1 again is one node on each
    tape, and each tape's gradient sums only its own reads."""
    x = Tensor([1.0, 2.0])
    t1, t2 = Tape(), Tape()
    with t1:
        a = mul(x, x)
    with t2:
        l2 = sum_all(mul(mul(x, x), x))
    with t1:
        l1 = sum_all(add(a, scale(x, 3.0)))
    assert [sum(leaf is x for leaf in t._leaves.values()) for t in (t1, t2)] == [1, 1]
    t1.backward(l1)
    t2.backward(l2)
    np.testing.assert_array_equal(t1.grad(x), 2 * x.data + 3.0)
    np.testing.assert_array_equal(t2.grad(x), 3 * x.data**2)
    assert x.tape is None and x.node_id is None


def test_grad_of_unreached_tensor_is_zeros():
    with Tape() as tape:
        x = Tensor([1.0, 2.0])
        unused = Tensor([5.0])
        tape.backward(sum_all(x))
        np.testing.assert_allclose(tape.grad(unused), [0.0])


def test_add_rejects_shape_mismatch():
    with pytest.raises(ShapeError, match="add"):
        add(Tensor([1.0]), Tensor([1.0, 2.0]))


class TestTensorConstruction:
    def test_a_float64_c_contiguous_ndarray_is_held_by_identity(self):
        for a in (np.arange(6.0).reshape(2, 3), np.zeros(()), np.ones(4)[::1]):
            assert Tensor(a).data is a

    @pytest.mark.parametrize("kind", [
        "non-contiguous view", "float32", "list", "python float", "np.float64", "memmap",
    ])
    def test_anything_else_becomes_a_contiguous_float64_ndarray(self, kind, tmp_path):
        base = np.arange(12.0).reshape(3, 4)
        if kind == "memmap":
            source = np.memmap(tmp_path / "m.f8", dtype=np.float64, mode="w+", shape=base.shape)
            source[...] = base
        else:
            source = {
                "non-contiguous view": base[:, ::2], "float32": base.astype(np.float32),
                "list": base.tolist(), "python float": 2.5, "np.float64": np.float64(2.5),
            }[kind]
        data = Tensor(source).data
        assert type(data) is np.ndarray and data.dtype == np.float64 and data.flags.c_contiguous
        expected = np.asarray(source, dtype=np.float64)
        assert data.shape == expected.shape and np.array_equal(data, expected)
        assert data is not source


class TestHingeSum:
    def test_value_and_gradients(self):
        # 0.5 - 0.2 + 0.1 = 0.4 is active; 0.1 - 0.9 + 0.1 = -0.7 is not
        with Tape() as tape:
            grid = Tensor([[0.5, 0.2], [0.1, 0.9]])
            out = hinge_sum(grid, HingePicks((2, 2), ([0, 1], [0, 0]), ([0, 1], [1, 1])), 0.1)
            tape.backward(out)
        assert out.item() == pytest.approx(0.4, abs=1e-15)
        np.testing.assert_array_equal(tape.grad(grid), [[1.0, -1.0], [0.0, 0.0]])
        assert len(tape) == 2  # the grid leaf and the hinge_sum node

    def test_shape_errors(self):
        with pytest.raises(ShapeError, match="hinge_sum.*index arrays"):
            HingePicks((2, 3), ([0, 1], [0, 1]), ([0], [0]))
        with pytest.raises(ShapeError, match="hinge_sum.*index arrays"):
            HingePicks((2, 3), ([0, 1], [0]), ([0, 1], [0, 1]))
        with pytest.raises(ShapeError, match="hinge_sum.*no terms"):
            HingePicks((2, 3), ([], []), ([], []))
        for shape in [(3,), (1, 2, 3)]:
            with pytest.raises(ShapeError, match="hinge_sum.*grid"):
                HingePicks(shape, ([0], [0]), ([0], [1]))
        picks = HingePicks((2, 3), ([0], [0]), ([0], [1]))
        with pytest.raises(ShapeError, match="hinge_sum.*grid"):
            hinge_sum(Tensor(np.zeros(6)), picks, 0.2)
        with pytest.raises(ShapeError, match="hinge_sum.*grid"):
            hinge_sum(Tensor(np.zeros((1, 2, 3))), picks, 0.2)
        # the picks' range was checked against (2, 3), so on any other grid,
        # the [3, 2] transpose included, hinge_sum refuses them
        for shape in [(3, 2), (2, 2), (2, 4)]:
            with pytest.raises(ShapeError, match=re.escape(f"hinge_sum: incompatible shapes {shape} vs (2, 3)")):
                hinge_sum(Tensor(np.zeros(shape)), picks, 0.2)
        # a row or column outside the [2, 3] grid, in either index pair, negative
        # indices included: a ShapeError, never numpy's IndexError or wrap-around
        for negatives, positives in [
            (([2], [0]), ([0], [0])), (([0], [3]), ([0], [0])),
            (([0], [0]), ([2], [0])), (([0], [0]), ([0], [-1])),
        ]:
            with pytest.raises(ShapeError, match="hinge_sum.*out of range"):
                HingePicks((2, 3), negatives, positives)

    def test_picks_are_flattened_once_and_read_only(self):
        picks = HingePicks((2, 3), ([0, 1], [2, 0]), ([0, 1], [0, 1]))
        assert picks.flat.tolist() == [[2, 3], [0, 4]]
        with pytest.raises(ValueError, match="read-only"):
            picks.flat[0, 0] = 1

    @pytest.mark.parametrize(
        "bad, dtype", [([0.7], "float64"), ([True], "bool"), (np.array([1.0], np.float32), "float32")],
        ids=["float", "bool", "float32"],
    )
    @pytest.mark.parametrize("slot", range(4))
    def test_index_arrays_that_are_not_integers_raise(self, bad, dtype, slot):
        # indexing would truncate 0.7 to entry 0, and read True as 1
        index = [[0], [0], [0], [1]]
        index[slot] = bad
        with pytest.raises(ShapeError, match=f"hinge_sum.*integers, got dtype {dtype}"):
            HingePicks((2, 2), index[:2], index[2:])

    def test_an_entry_read_by_negatives_and_positives_gets_add_at_bytes(self):
        # every term active, each entry read many times, both as a negative
        # and as a positive, with the output gradient 0.1: a sum of +-0.1s
        # whose bits depend on the order of its additions
        rng = np.random.default_rng(11)
        values = rng.normal(size=(3, 3))
        negatives, positives = tuple(rng.integers(0, 3, size=(2, 2, 40)))
        grid = Tensor(values)
        with Tape() as tape:
            tape.backward(scale(hinge_sum(grid, HingePicks((3, 3), tuple(negatives), tuple(positives)), 100.0), 0.1))
        expected = oracle_ops.hinge_grid_grad(values, negatives, positives, 100.0, 0.1)
        assert tape.grad(grid).tobytes() == expected.tobytes()


def test_taped_scalar_results_are_ndarrays():
    with Tape():
        taped = [
            mul(Tensor(2.0), Tensor(3.0)),
            add(Tensor(2.0), Tensor(3.0)),
            add_scalar(Tensor(2.0), 1.0),
            scale(Tensor(2.0), 3.0),
            tanh(Tensor(0.5)),
        ]
    for t in taped:
        assert type(t.data) is np.ndarray and t.data.shape == ()
