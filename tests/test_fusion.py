import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mvse.autodiff import ShapeError, Tensor, cosine, grad_check, hinge_sum
from mvse.fusion import (
    GateParams,
    GateStats,
    fuse,
    gate_weights,
    space_weights,
)

H = 8

sims_list = st.lists(
    st.floats(min_value=-1.0, max_value=1.0, allow_nan=False), min_size=1, max_size=3
)


def _gate(m: int, seed: int = 0) -> GateParams:
    rng = np.random.default_rng(seed)
    return GateParams(w=Tensor(rng.normal(size=(m, H))))


class TestGateWeights:
    def test_zero_gate_is_uniform(self):
        gate = GateParams(w=Tensor(np.zeros((3, H))))
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
        logits = gate.w.data @ phi
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
        # shifting every gate row by the same vector adds a constant to all logits
        shifted = GateParams(w=Tensor(gate.w.data.copy()))
        shifted.w.data += shift * np.ones((3, H)) * 0  # keep rows; shift via bias-free trick below
        logits = gate.w.data @ phi.data + shift
        e = np.exp(logits - logits.max())
        np.testing.assert_allclose(e / e.sum(), base, atol=1e-9)

    def test_weights_depend_only_on_sentence(self):
        gate = _gate(2, seed=11)
        phi = Tensor(np.random.default_rng(4).normal(size=H))
        a = gate_weights(phi, gate).data
        b = gate_weights(phi, gate).data
        assert np.array_equal(a, b)  # bit-identical: cacheable per query


class TestFuse:
    def test_even_average(self):
        out = fuse([Tensor(0.2), Tensor(0.8)], Tensor([0.5, 0.5]))
        assert out.item() == pytest.approx(0.5, abs=1e-15)

    def test_single_space_selection(self):
        out = fuse([Tensor(0.37), Tensor(0.9)], Tensor([1.0, 0.0]))
        assert out.item() == pytest.approx(0.37, abs=0)

    def test_hand_dot_product(self):
        # 0.52 * 0.9 + 0.48 * 0.1 = 0.516
        out = fuse([Tensor(0.9), Tensor(0.1)], Tensor([0.52, 0.48]))
        assert out.item() == pytest.approx(0.516, abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ShapeError, match="fuse"):
            fuse([Tensor(0.5)], Tensor([0.5, 0.5]))

    @given(sims=sims_list)
    @settings(max_examples=100)
    def test_fused_value_bounded_by_extremes(self, sims):
        m = len(sims)
        rng = np.random.default_rng(m)
        w = rng.dirichlet(np.ones(m))
        out = fuse([Tensor(s) for s in sims], Tensor(w)).item()
        assert min(sims) - 1e-12 <= out <= max(sims) + 1e-12


class TestFuseMode:
    def test_average_mode(self):
        phi = Tensor(np.random.default_rng(0).normal(size=H))
        w = space_weights(phi, _gate(2), "average")
        value = fuse([Tensor(0.4), Tensor(0.6)], w)
        assert value.item() == pytest.approx(0.5, abs=1e-15)
        np.testing.assert_allclose(w.data, [0.5, 0.5])

    @given(
        sims=st.lists(st.floats(min_value=-1, max_value=1), min_size=2, max_size=3),
        seed=st.integers(0, 100),
    )
    @settings(max_examples=50)
    def test_zero_gate_weighted_equals_average(self, sims, seed):
        m = len(sims)
        phi = Tensor(np.random.default_rng(seed).normal(size=H))
        zero_gate = GateParams(w=Tensor(np.zeros((m, H))))
        tensors = [Tensor(s) for s in sims]
        weighted = fuse(tensors, space_weights(phi, zero_gate, "weighted"))
        average = fuse(tensors, space_weights(phi, zero_gate, "average"))
        assert weighted.item() == pytest.approx(average.item(), abs=1e-12)

    def test_weighted_three_way_matches_composition_oracle(self):
        rng = np.random.default_rng(17)
        gate = _gate(3, seed=17)
        phi = rng.normal(size=H)
        sims = [0.3, -0.2, 0.85]
        logits = gate.w.data @ phi
        e = np.exp(logits - logits.max())
        expected = float((e / e.sum()) @ np.array(sims))
        value = fuse([Tensor(s) for s in sims], space_weights(Tensor(phi), gate, "weighted"))
        assert value.item() == pytest.approx(expected, abs=1e-12)

    def test_unknown_mode(self):
        phi = Tensor(np.zeros(H))
        with pytest.raises(ValueError, match="fuse mode"):
            space_weights(phi, _gate(2), "median")


def test_gate_and_fusion_gradients():
    rng = np.random.default_rng(23)
    gate = _gate(2, seed=23)
    phi = Tensor(rng.normal(size=H))
    a, b = Tensor(rng.normal(size=5)), Tensor(rng.normal(size=5))
    c, d = Tensor(rng.normal(size=5)), Tensor(rng.normal(size=5))

    def loss(_):
        sims = [cosine(a, b), cosine(c, d)]
        value = fuse(sims, space_weights(phi, gate, "weighted"))
        return hinge_sum([Tensor(0.0)], [value], 0.2)

    assert grad_check(loss, gate.w) < 1e-4
    assert grad_check(loss, phi) < 1e-4
    assert grad_check(loss, a) < 1e-4


class TestGateStats:
    def test_summary_and_histogram(self):
        stats = GateStats(spaces=("global", "sequential"))
        stats.record(np.array([0.6, 0.4]))
        stats.record(np.array([0.8, 0.2]))
        stats.record(np.array([0.4, 0.6]))
        s = stats.summary()
        assert s["global"]["mean"] == pytest.approx(0.6)
        assert s["global"]["min"] == pytest.approx(0.4)
        assert s["global"]["max"] == pytest.approx(0.8)
        hist = stats.cumulative_histogram()
        rows = dict(hist["global"])
        assert rows[1.0] == 1.0
        assert rows[0.5] == pytest.approx(1 / 3)
        assert rows[0.63] == pytest.approx(2 / 3)
        table = stats.summary_table()
        assert "global" in table and "0.6000" in table
        csv = stats.histogram_csv()
        assert csv.startswith("space,bin_upper,cumulative_fraction\n")
        assert len(csv.strip().split("\n")) == 1 + 2 * 100

    def test_empty_stats_raise(self):
        with pytest.raises(ValueError):
            GateStats(spaces=("global",)).summary()
