import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mvse import autodiff
from mvse.autodiff import (
    DegenerateEmbeddingError,
    ShapeError,
    Tape,
    Tensor,
    add,
    add_scalar,
    concat,
    cosine,
    dot,
    grad_check,
    hinge_sum,
    matvec,
    mean_over_axis,
    mul,
    pick,
    reshape,
    scale,
    scale_cells,
    sigmoid,
    softmax,
    sum_all,
    tanh,
)

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


def test_softmax_empty_axis_errors():
    with pytest.raises(ShapeError, match="softmax"):
        softmax(Tensor(np.zeros((3, 0))))


def test_mean_over_axis_oracle():
    m = mean_over_axis(Tensor([[1.0, 3.0], [5.0, 7.0]]), 0)
    np.testing.assert_allclose(m.data, [3.0, 5.0])


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


class TestCosine:
    def test_self_similarity(self):
        v = Tensor([0.3, -1.2, 4.0])
        assert cosine(v, v).item() == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal(self):
        assert cosine(Tensor([1.0, 0.0]), Tensor([0.0, 1.0])).item() == 0.0

    def test_hand_value(self):
        # independent oracle: dot / (|a||b|) via math module
        a, b = [1.0, 2.0, 3.0], [4.0, 5.0, 6.0]
        expected = sum(x * y for x, y in zip(a, b)) / (
            math.sqrt(sum(x * x for x in a)) * math.sqrt(sum(y * y for y in b))
        )
        assert cosine(Tensor(a), Tensor(b)).item() == pytest.approx(expected, abs=1e-14)
        assert expected == pytest.approx(0.974631846, abs=1e-9)

    def test_degenerate_raises(self):
        with pytest.raises(DegenerateEmbeddingError, match="degenerate embedding"):
            cosine(Tensor([0.0, 0.0]), Tensor([1.0, 2.0]))
        with pytest.raises(DegenerateEmbeddingError):
            cosine(Tensor([1.0, 2.0]), Tensor([1e-13, 0.0]))

    def test_small_norms_are_not_degenerate(self):
        # norms 5e-7 and 5e-12 sit above the 1e-12 degenerate threshold
        small = cosine(Tensor([3e-7, 4e-7]), Tensor([6e-7, 8e-7]))
        assert small.item() == pytest.approx(1.0, abs=1e-12)
        v = Tensor([3e-12, 4e-12])
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
        base = cosine(Tensor(v), Tensor(w)).item()
        scaled = cosine(Tensor(alpha * v), Tensor(beta * w)).item()
        assert scaled == pytest.approx(base, abs=1e-9)

    def test_records_one_tape_node(self):
        with Tape() as tape:
            cosine(Tensor([1.0, 2.0]), Tensor([3.0, -1.0]))
        assert len(tape) == 3  # two leaves and the cosine node

    @given(uw=direction_pairs, log_sa=log_norm, log_sb=log_norm)
    @settings(max_examples=200)
    def test_matches_the_composed_chain(self, uw, log_sa, log_sb):
        u, w = uw
        sa, sb = 10.0**log_sa, 10.0**log_sb
        a = u * (sa / np.linalg.norm(u))
        b = w * (sb / np.linalg.norm(w))
        with Tape() as tape:
            ta, tb = Tensor(a), Tensor(b)
            out = cosine(ta, tb)
            tape.backward(out)
        value, ga, gb = _composed_cosine(a, b)
        assert out.item() == value
        assert np.max(np.abs(tape.grad(ta) - ga)) * sa <= 1e-12
        assert np.max(np.abs(tape.grad(tb) - gb)) * sb <= 1e-12
        # grad_check on unit-scale inputs, scaled up to the drawn norms inside f
        ua, ub = Tensor(a / sa), Tensor(b / sb)
        assert grad_check(lambda t: cosine(scale(t, sa), Tensor(b)), ua) < 1e-6
        assert grad_check(lambda t: cosine(Tensor(a), scale(t, sb)), ub) < 1e-6


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
            loss = dot(x, x)
            grads = tape.backward(loss)
            assert grads[loss.node_id] == pytest.approx(1.0)

    def test_cosine_grad_vanishes_at_aligned_point(self):
        c = np.array([0.5, -1.0, 2.0])
        with Tape() as tape:
            x = Tensor(c.copy())
            loss = cosine(x, Tensor(c.copy()))
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

    def test_composed_loss_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        w = Tensor(rng.normal(size=(3, 4)))
        b = Tensor(rng.normal(size=3))
        x = Tensor(rng.normal(size=4))
        target = Tensor(rng.normal(size=3))

        def f(p):
            h = tanh(add(matvec(w, x), b))
            return cosine(h, target)

        for p in (w, b):
            assert grad_check(lambda _: f(None), p) < 1e-4


class TestGradCheck:
    def test_sum_of_squares(self):
        assert grad_check(lambda v: dot(v, v), Tensor([1.0, 2.0]), eps=1e-5) < 1e-6

    def test_softmax_pick_first(self):
        err = grad_check(lambda v: pick(softmax(v), 0), Tensor([0.0, 0.0]), eps=1e-5)
        assert err < 1e-5

    def test_bad_eps_rejected(self):
        with pytest.raises(ValueError, match="eps"):
            grad_check(lambda v: sum_all(v), Tensor([1.0]), eps=0.5)

    def test_restores_input_bit_exactly(self):
        x = Tensor([0.1, 0.2, 0.3])
        before = x.data.copy()
        grad_check(lambda v: sum_all(tanh(v)), x)
        assert np.array_equal(x.data, before)

    @pytest.mark.parametrize("op", ["tanh", "sigmoid"])
    def test_detects_a_corrupted_backward_rule(self, monkeypatch, op):
        original = getattr(autodiff, op)

        def scaled_backward(a):
            # same forward value; the backward rule is 1.01x the true one
            y = original(a)
            return add(scale(y, 1.01), Tensor(-0.01 * y.data))

        x = Tensor([0.1, -0.3, 0.5])

        def f(v):
            return sum_all(getattr(autodiff, op)(v))

        assert grad_check(f, x) < 1e-6
        monkeypatch.setattr(autodiff, op, scaled_backward)
        assert grad_check(f, x) > 1e-3


def _hinges(v):
    # entry 0 is a negative in one term and a positive in another
    first = pick(v, 0)
    negatives = [first, pick(v, 1), pick(v, 2)]
    positives = [pick(v, 3), first, pick(v, 4)]
    return hinge_sum(negatives, positives, 0.3)


@pytest.mark.parametrize(
    "name,fn,shape",
    [
        ("tanh", lambda v: sum_all(tanh(v)), (5,)),
        ("sigmoid", lambda v: sum_all(sigmoid(v)), (5,)),
        ("hinge_sum", _hinges, (5,)),
        ("softmax", lambda v: pick(softmax(v), 1), (5,)),
        ("concat", lambda v: dot(concat([v, tanh(v)]), Tensor(np.arange(10.0))), (5,)),
        ("mean0", lambda v: pick(mean_over_axis(reshape(v, (2, 3)), 0), 2), (6,)),
    ],
)
def test_primitive_gradients_at_random_points(name, fn, shape):
    rng = np.random.default_rng(hash(name) % 2**32)
    for _ in range(10):
        x = Tensor(rng.normal(size=shape))
        assert grad_check(fn, x) < 1e-4, name


def test_matvec_gradients_both_sides():
    rng = np.random.default_rng(11)
    w = Tensor(rng.normal(size=(4, 3)))
    x = Tensor(rng.normal(size=3))
    assert grad_check(lambda t: sum_all(tanh(matvec(t, x))), w) < 1e-4
    assert grad_check(lambda t: sum_all(tanh(matvec(w, t))), x) < 1e-4


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


@given(logits=finite_vec)
@settings(max_examples=200)
def test_softmax_invariants(logits):
    y = softmax(Tensor(logits)).data
    assert np.all(y > 0)
    assert abs(y.sum() - 1.0) < 1e-9
    shifted = softmax(Tensor(logits + 123.456)).data
    assert np.max(np.abs(shifted - y)) < 1e-9


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


def test_grad_of_unreached_tensor_is_zeros():
    with Tape() as tape:
        x = Tensor([1.0, 2.0])
        unused = Tensor([5.0])
        tape.backward(sum_all(x))
        np.testing.assert_allclose(tape.grad(unused), [0.0])


def test_add_rejects_shape_mismatch():
    with pytest.raises(ShapeError, match="add"):
        add(Tensor([1.0]), Tensor([1.0, 2.0]))


class TestHingeSum:
    def test_value_and_gradients(self):
        # 0.5 - 0.2 + 0.1 = 0.4 is active; 0.1 - 0.9 + 0.1 = -0.7 is not
        with Tape() as tape:
            neg, pos = Tensor(0.5), Tensor(0.2)
            off_neg, off_pos = Tensor(0.1), Tensor(0.9)
            out = hinge_sum([neg, off_neg], [pos, off_pos], 0.1)
            tape.backward(out)
        assert out.item() == pytest.approx(0.4, abs=1e-15)
        assert (tape.grad(neg), tape.grad(pos)) == (1.0, -1.0)
        assert (tape.grad(off_neg), tape.grad(off_pos)) == (0.0, 0.0)
        assert len(tape) == 5  # four leaves and the hinge_sum node

    def test_shape_errors(self):
        with pytest.raises(ShapeError, match="hinge_sum"):
            hinge_sum([Tensor(0.0), Tensor(1.0)], [Tensor(0.0)], 0.2)
        with pytest.raises(ShapeError, match="hinge_sum"):
            hinge_sum([], [], 0.2)
        with pytest.raises(ShapeError, match="hinge_sum"):
            hinge_sum([Tensor([0.0])], [Tensor(0.0)], 0.2)
        with pytest.raises(ShapeError, match="hinge_sum"):
            hinge_sum([Tensor(0.0)], [Tensor(np.zeros((1, 1)))], 0.2)


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
