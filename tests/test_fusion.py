import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvse.autodiff import ShapeError, Tensor, cosine, grad_check, hinge_sum, reshape, stack
from mvse.fusion import fuse, gate_weights, space_weights

from oracle_ops import sweep, take

H = 8

sims_list = st.lists(
    st.floats(min_value=-1.0, max_value=1.0, allow_nan=False), min_size=1, max_size=3
)


def _gate(m: int, seed: int = 0) -> Tensor:
    """A gate weight [M, H]."""
    return Tensor(np.random.default_rng(seed).normal(size=(m, H)))


class TestGateWeights:
    def test_zero_gate_is_uniform(self):
        gate = Tensor(np.zeros((3, H)))
        w = gate_weights(Tensor(np.random.default_rng(0).normal(size=H)), gate)
        np.testing.assert_allclose(w.data, 1.0 / 3, atol=1e-15)

    def test_single_space_degenerates_to_one(self):
        gate = _gate(1, seed=5)
        for s in range(3):
            phi = Tensor(np.random.default_rng(s).normal(size=H))
            np.testing.assert_allclose(gate_weights(phi, gate).data, [1.0], atol=0)

    def test_matches_matvec_softmax_oracle(self):
        rng = np.random.default_rng(3)
        gate = _gate(3, seed=3)
        phi = rng.normal(size=H)
        logits = gate.data @ phi
        e = np.exp(logits - logits.max())
        np.testing.assert_allclose(
            gate_weights(Tensor(phi), gate).data, e / e.sum(), atol=1e-12
        )

    @given(shift=st.floats(min_value=-50, max_value=50))
    @settings(max_examples=50)
    def test_logit_shift_invariance(self, shift):
        rng = np.random.default_rng(9)
        gate = _gate(3, seed=9)
        phi = Tensor(rng.normal(size=H))
        base = gate_weights(phi, gate).data
        # adding a constant to all logits leaves the softmax as it is
        logits = gate.data @ phi.data + shift
        e = np.exp(logits - logits.max())
        np.testing.assert_allclose(e / e.sum(), base, atol=1e-9)

    def test_batch_rows_match_one_sentence_at_a_time(self):
        gate = _gate(3, seed=13)
        phis = np.random.default_rng(13).normal(size=(4, H))
        batch = gate_weights(Tensor(phis), gate).data
        assert batch.shape == (4, 3)
        for q in range(4):
            np.testing.assert_allclose(batch[q], gate_weights(Tensor(phis[q]), gate).data, rtol=1e-12)

    def test_weights_depend_only_on_sentence(self):
        gate = _gate(2, seed=11)
        phi = Tensor(np.random.default_rng(4).normal(size=H))
        a = gate_weights(phi, gate).data
        b = gate_weights(phi, gate).data
        assert np.array_equal(a, b)  # bit-identical: cacheable per query


def _fuse_one(sims, weights: Tensor | np.ndarray) -> float:
    """Fuse one (video, sentence) pair: per-space similarities [M] with the
    sentence's weights [M], a tensor or a constant ndarray, as a 1 x 1 grid."""
    stacked = Tensor(np.asarray(sims, dtype=np.float64).reshape(-1, 1, 1))
    if isinstance(weights, Tensor):
        return fuse(stacked, reshape(weights, (1, weights.data.size))).item()
    return fuse(stacked, weights.reshape(1, -1)).item()


class TestFuse:
    def test_even_average(self):
        out = _fuse_one([0.2, 0.8], Tensor([0.5, 0.5]))
        assert out == pytest.approx(0.5, abs=1e-15)

    def test_single_space_selection(self):
        out = _fuse_one([0.37, 0.9], Tensor([1.0, 0.0]))
        assert out == pytest.approx(0.37, abs=0)

    def test_hand_dot_product(self):
        # 0.52 * 0.9 + 0.48 * 0.1 = 0.516
        out = _fuse_one([0.9, 0.1], Tensor([0.52, 0.48]))
        assert out == pytest.approx(0.516, abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ShapeError, match="fuse"):
            fuse(Tensor(np.full((1, 1, 1), 0.5)), Tensor([[0.5, 0.5]]))
        with pytest.raises(ShapeError, match="fuse"):
            fuse(Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros((3, 2))))
        with pytest.raises(ShapeError, match="fuse"):
            fuse(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 2))))

    @pytest.mark.parametrize("constant", [None, "weights"])
    def test_grid_matches_every_pair(self, constant):
        """Weights given as a plain ndarray, as "average" mode gives them, are
        a constant that gets no node; the scores and the grids' gradient
        keep the bytes of tensor weights."""
        rng = np.random.default_rng(2)
        sims, w = rng.uniform(-1, 1, size=(3, 4, 5)), rng.dirichlet(np.ones(3), size=5)
        operands, g = {"similarities": sims, "weights": w}, rng.normal(size=(4, 5))
        out, nodes, grads = sweep(fuse, operands, constant, g)
        assert out.shape == (4, 5)
        for v in range(4):
            for q in range(5):
                assert out[v, q] == pytest.approx(sims[:, v, q] @ w[q], abs=1e-15)
        ref_out, ref_nodes, ref_grads = sweep(fuse, operands, None, g)
        assert out.tobytes() == ref_out.tobytes()
        assert nodes == ref_nodes - (constant is not None) == 3 - (constant is not None)
        assert grads == {name: b for name, b in ref_grads.items() if name != constant}
        assert grad_check(lambda t: take(take(fuse(t, Tensor(w)), 1), 2), Tensor(sims)) < 1e-6
        assert grad_check(lambda t: take(take(fuse(Tensor(sims), t), 3), 0), Tensor(w)) < 1e-6

    @given(sims=sims_list)
    @settings(max_examples=100)
    def test_fused_value_bounded_by_extremes(self, sims):
        m = len(sims)
        rng = np.random.default_rng(m)
        w = rng.dirichlet(np.ones(m))
        out = _fuse_one(sims, Tensor(w))
        assert min(sims) - 1e-12 <= out <= max(sims) + 1e-12


class TestFuseMode:
    def test_average_mode(self):
        phi = Tensor(np.random.default_rng(0).normal(size=H))
        w = space_weights(phi, _gate(2), "average")
        assert _fuse_one([0.4, 0.6], w) == pytest.approx(0.5, abs=1e-15)
        assert type(w) is np.ndarray  # a constant, not a tape leaf
        np.testing.assert_allclose(w, [0.5, 0.5])
        phis = Tensor(np.random.default_rng(1).normal(size=(3, H)))
        np.testing.assert_array_equal(space_weights(phis, _gate(2), "average"), np.full((3, 2), 0.5))

    @given(
        sims=st.lists(st.floats(min_value=-1, max_value=1), min_size=2, max_size=3),
        seed=st.integers(0, 100),
    )
    @settings(max_examples=50)
    def test_zero_gate_weighted_equals_average(self, sims, seed):
        m = len(sims)
        phi = Tensor(np.random.default_rng(seed).normal(size=H))
        zero_gate = Tensor(np.zeros((m, H)))
        weighted = _fuse_one(sims, space_weights(phi, zero_gate, "weighted"))
        average = _fuse_one(sims, space_weights(phi, zero_gate, "average"))
        assert weighted == pytest.approx(average, abs=1e-12)

    def test_weighted_three_way_matches_composition_oracle(self):
        rng = np.random.default_rng(17)
        gate = _gate(3, seed=17)
        phi = rng.normal(size=H)
        sims = [0.3, -0.2, 0.85]
        logits = gate.data @ phi
        e = np.exp(logits - logits.max())
        expected = float((e / e.sum()) @ np.array(sims))
        value = _fuse_one(sims, space_weights(Tensor(phi), gate, "weighted"))
        assert value == pytest.approx(expected, abs=1e-12)

    def test_unknown_mode(self):
        phi = Tensor(np.zeros(H))
        with pytest.raises(ValueError, match="fuse mode"):
            space_weights(phi, _gate(2), "median")


def test_gate_and_fusion_gradients():
    rng = np.random.default_rng(23)
    gate = _gate(2, seed=23)
    phi = Tensor(rng.normal(size=(1, H)))
    a, b = Tensor(rng.normal(size=(2, 5))), Tensor(rng.normal(size=(1, 5)))
    c, d = Tensor(rng.normal(size=(2, 5))), Tensor(rng.normal(size=(1, 5)))

    def loss(_):
        sims = stack([cosine(a, b), cosine(c, d)])
        value = fuse(sims, space_weights(phi, gate, "weighted"))  # [2, 1]
        # a fused score differs from another by less than 2, so the hinge is active
        return hinge_sum(value, ([1], [0]), ([0], [0]), 2.0)

    assert grad_check(loss, gate) < 1e-4
    assert grad_check(loss, phi) < 1e-4
    assert grad_check(loss, a) < 1e-4

