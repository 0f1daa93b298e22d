import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvse import text as mvse_text
from mvse.autodiff import Tape, Tensor, grad_check
from mvse.config import Dims
from mvse.model import init_params
from mvse.text import EmptySentenceError, GruParams, gru_encode, project_text

from oracle_ops import init_draw, sum_all, take

DIMS = Dims.small()


def _random_gru(e: int, h: int, seed: int) -> GruParams:
    rng = np.random.default_rng(seed)
    r = lambda shape: Tensor(rng.normal(scale=0.5, size=shape))
    return GruParams(w=r((3, h, e)), u=r((3, h, h)), b=r((3, h)))


def _reference_gru(xs: np.ndarray, p: GruParams) -> np.ndarray:
    """Scalar-by-scalar recurrence oracle, independent of the tensor engine."""
    sig = lambda v: 1.0 / (1.0 + np.exp(-v))
    (w_z, w_r, w_c), (u_z, u_r, u_c), (b_z, b_r, b_c) = p.w.data, p.u.data, p.b.data
    h = np.zeros(p.b.data.shape[1])
    for x in xs:
        z = sig(w_z @ x + u_z @ h + b_z)
        r = sig(w_r @ x + u_r @ h + b_r)
        c = np.tanh(w_c @ x + u_c @ (r * h) + b_c)
        h = (1 - z) * h + z * c
    return h


def _encode(xs: np.ndarray, params: GruParams) -> Tensor:
    """One sentence whose token vectors are the rows of ``xs``, encoded as a
    batch of one: [H]."""
    return take(gru_encode([list(range(len(xs)))], xs, params), 0)


class TestLookup:
    """The GRU gathers the table rows of the token ids it is given."""

    def _table(self):
        return np.arange(12, dtype=np.float64).reshape(3, 4) / 12.0

    def test_known_token_verbatim(self):
        table, params = self._table(), _random_gru(4, 3, seed=4)
        out = gru_encode([[1, 0]], table, params)
        np.testing.assert_allclose(out.data[0], _reference_gru(table[[1, 0]], params), atol=1e-12)

    def test_index_lookup(self):
        table, params = self._table(), _random_gru(4, 3, seed=5)
        out = gru_encode([[2, 0], [1], [0, 2, 2]], table, params)
        for q, ids in enumerate([[2, 0], [1], [0, 2, 2]]):
            np.testing.assert_allclose(out.data[q], _reference_gru(table[ids], params), atol=1e-12)

    def test_empty_raises(self):
        table, params = self._table(), _random_gru(4, 3, seed=6)
        for batch in ([[]], [[1, 2], []], [[0], [], [2]], []):
            with pytest.raises(EmptySentenceError):
                gru_encode(batch, table, params)

    @pytest.mark.parametrize("bad", [-1, 5])
    def test_token_id_outside_the_table_raises_before_any_compute(self, bad, monkeypatch):
        # a 5-row table: -1 must not wrap to row 4, and 5 is one past the end
        table = np.arange(20, dtype=np.float64).reshape(5, 4) / 20.0
        params = _random_gru(4, 3, seed=7)
        monkeypatch.setattr(mvse_text, "einsum", lambda *a: pytest.fail("computed before the id check"))
        with pytest.raises(ValueError, match=rf"^sentence 1: token id {bad} outside \[0, 5\)$"):
            gru_encode([[0, 1], [2, bad, 3]], table, params)

    @pytest.mark.parametrize("shape", [(12,), (3, 2, 2)], ids=["1-D", "3-D"])
    def test_a_table_that_is_not_2d_raises_before_any_compute(self, shape, monkeypatch):
        params = _random_gru(4, 3, seed=8)
        monkeypatch.setattr(mvse_text, "einsum", lambda *a: pytest.fail("computed before the table check"))
        message = f"embedding table must be [V, E], got {shape}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            gru_encode([[0, 1]], np.zeros(shape), params)


class TestGru:
    def test_zero_input_zero_bias_gives_zero(self):
        params = _random_gru(3, 4, seed=0)
        params.b.data[:] = 0.0
        phi = _encode(np.zeros((1, 3)), params)
        np.testing.assert_allclose(phi.data, 0.0, atol=1e-15)

    def test_two_step_matches_hand_unroll(self):
        rng = np.random.default_rng(42)
        xs = rng.normal(size=(2, 2))
        params = _random_gru(2, 2, seed=1)
        phi = _encode(xs, params)
        np.testing.assert_allclose(phi.data, _reference_gru(xs, params), atol=1e-12)

    @given(seed=st.integers(0, 2**31), t_steps=st.integers(1, 6))
    @settings(max_examples=40, deadline=None)
    def test_hidden_state_strictly_inside_unit_box(self, seed, t_steps):
        rng = np.random.default_rng(seed)
        xs = rng.normal(scale=3.0, size=(t_steps, 3))
        params = _random_gru(3, 5, seed=seed % 1000)
        phi = _encode(xs, params)
        assert np.all(np.abs(phi.data) < 1.0)

    def test_longer_sequence_matches_hand_unroll(self):
        rng = np.random.default_rng(7)
        xs = rng.normal(size=(5, 3))
        params = _random_gru(3, 4, seed=3)
        phi = _encode(xs, params)
        np.testing.assert_allclose(phi.data, _reference_gru(xs, params), atol=1e-12)

    def test_token_permutation_changes_phi(self):
        rng = np.random.default_rng(5)
        xs = rng.normal(size=(4, 3))
        params = _random_gru(3, 4, seed=9)
        phi = _encode(xs, params).data
        phi_perm = _encode(xs[::-1].copy(), params).data
        assert np.linalg.norm(phi - phi_perm) > 1e-6

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(12)
        xs = rng.normal(size=(3, 3))
        params = _random_gru(3, 4, seed=21)
        for tensor in (params.w, params.u, params.b):
            err = grad_check(lambda _: sum_all(_encode(xs, params)), tensor)
            assert err < 1e-4

    def test_embedding_table_stays_frozen(self):
        table = np.random.default_rng(0).normal(size=(6, 4))
        before = table.copy()
        params = _random_gru(4, 4, seed=2)
        with Tape() as tape:
            loss = sum_all(gru_encode([[0, 3]], table, params))
            tape.backward(loss)
        np.testing.assert_array_equal(table, before)
        # the gradient reaches the GRU's input weights through the token
        # constants, while the table array itself is untouched by it
        assert np.all(tape.grad(params.w) != 0)


class TestGruParams:
    @pytest.mark.parametrize("seed", [0, 3])
    def test_each_gate_block_is_drawn_from_its_own_name(self, seed):
        gru = init_params(DIMS, ("global",), seed=seed).gru
        h, e = DIMS.hidden, DIMS.token_dim
        assert gru.w.shape == (3, h, e) and gru.u.shape == (3, h, h) and gru.b.shape == (3, h)
        for n, gate in enumerate("zrc"):
            # the draw each gate's tensor had under its own name
            def draw(kind, shape, fan_in):
                return init_draw(f"gru.{kind}_{gate}", shape, fan_in, seed)

            np.testing.assert_array_equal(gru.w.data[n], draw("w", (h, e), e))
            np.testing.assert_array_equal(gru.u.data[n], draw("u", (h, h), h))
            np.testing.assert_array_equal(gru.b.data[n], draw("b", (h,), h))


class TestProjectText:
    def test_identity(self):
        phi = Tensor([1.0, -2.0, 3.0])
        np.testing.assert_allclose(project_text(phi, Tensor(np.eye(3)), Tensor(np.zeros(3))).data, phi.data)

    def test_constant_map(self):
        w, b = Tensor(np.zeros((2, 3))), Tensor([5.0, -1.0])
        for v in ([1.0, 2.0, 3.0], [0.0, 0.0, 9.0]):
            np.testing.assert_allclose(project_text(Tensor(v), w, b).data, [5.0, -1.0])

    def test_matches_matvec_oracle(self):
        rng = np.random.default_rng(31)
        w, b, phi = rng.normal(size=(4, 3)), rng.normal(size=4), rng.normal(size=3)
        out = project_text(Tensor(phi), Tensor(w), Tensor(b))
        np.testing.assert_allclose(out.data, w @ phi + b, atol=1e-14)
        phis = rng.normal(size=(5, 3))
        batch = project_text(Tensor(phis), Tensor(w), Tensor(b))
        assert batch.shape == (5, 4)
        for q in range(5):
            np.testing.assert_allclose(batch.data[q], w @ phis[q] + b, atol=1e-14)

    @given(alpha=st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=30)
    def test_projection_is_affine(self, alpha):
        rng = np.random.default_rng(8)
        w, b = Tensor(rng.normal(size=(3, 3))), Tensor(rng.normal(size=3))
        u, v = rng.normal(size=3), rng.normal(size=3)
        mixed = project_text(Tensor(alpha * u + (1 - alpha) * v), w, b).data
        combo = alpha * project_text(Tensor(u), w, b).data + (1 - alpha) * project_text(Tensor(v), w, b).data
        np.testing.assert_allclose(mixed, combo, atol=1e-9)


def test_init_params_projection_dims():
    params = init_params(DIMS, ("global", "sequential", "action"), seed=0)
    assert params.projections["global"][0].shape == (DIMS.embed_dim, DIMS.hidden)
    assert params.projections["action"][0].shape == (DIMS.c_action, DIMS.hidden)
    phi = Tensor(np.random.default_rng(0).normal(size=DIMS.hidden))
    assert project_text(phi, *params.projections["action"]).shape == (DIMS.c_action,)
