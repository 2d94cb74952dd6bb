"""Denoiser network: embedding, init, forward pass, analytic gradients."""

import math

import numpy as np
import pytest
import scipy.sparse as sp

from cgsorec.denoiser import (
    DenoiserParams,
    init_params,
    loss_and_grad,
    predict_x0,
    timestep_embedding,
)
from cgsorec.errors import ConfigError, NumericError
from cgsorec.schedule import loss_weights, make_schedule, q_sample

from reference import input_buffer
from test_pipeline import traced_peak


def dense_loss_and_grad(params, x0, t, eps, sched):
    """The dense formulas the training step is held to bitwise: q_sample on
    the densified batch, the concatenated input, a forward pass, and
    backpropagation, each as one whole-array expression.  Returns
    (loss, weight gradients, bias gradients)."""
    x0 = np.asarray(x0.todense() if sp.issparse(x0) else x0, dtype=np.float64)
    x_t = q_sample(x0, t, eps, sched)
    h = np.concatenate([x_t, timestep_embedding(t, params.time_embed_dim)], axis=1)
    acts = [h]
    for w, b in zip(params.weights[:-1], params.biases[:-1]):
        h = np.tanh(h @ w + b)
        acts.append(h)
    pred = h @ params.weights[-1] + params.biases[-1]
    w = loss_weights(sched)[t - 1]
    diff = pred - x0
    loss = float(np.mean(w * np.sum(diff * diff, axis=1)))
    g = (2.0 / x0.shape[0]) * w[:, None] * diff
    n_layers = len(params.weights)
    grads_w, grads_b = [None] * n_layers, [None] * n_layers
    for l in range(n_layers - 1, -1, -1):
        grads_w[l] = acts[l].T @ g
        grads_b[l] = g.sum(axis=0)
        if l > 0:
            g = (g @ params.weights[l].T) * (1.0 - acts[l] * acts[l])
    return loss, grads_w, grads_b


def hand_network() -> DenoiserParams:
    """[2, 2, 2] network with hand-set weights and time_embed_dim=2."""
    params = init_params((2, 2, 2), 2, seed=0)
    params.weights[0] = np.array(
        [[0.5, -0.25], [0.1, 0.3], [0.2, 0.0], [-0.1, 0.4]]  # 2 input + 2 temb rows
    )
    params.biases[0] = np.array([0.05, -0.02])
    params.weights[1] = np.array([[1.0, 0.5], [-0.5, 0.25]])
    params.biases[1] = np.array([0.0, 0.1])
    return params


class TestTimestepEmbedding:
    def test_deterministic_and_distinct(self):
        e1 = timestep_embedding(3, 8)
        e2 = timestep_embedding(3, 8)
        assert np.array_equal(e1, e2)
        for other in (1, 2, 4, 17):
            assert not np.array_equal(e1, timestep_embedding(other, 8))

    def test_shapes(self):
        assert timestep_embedding(1, 8).shape == (8,)
        assert timestep_embedding(1, 7).shape == (7,)
        batch = timestep_embedding(np.array([1, 2, 3]), 6)
        assert batch.shape == (3, 6)

    def test_odd_dim_zero_padded(self):
        e = timestep_embedding(5, 7)
        assert e[-1] == 0.0

    def test_values_bounded(self):
        e = timestep_embedding(1000, 16)
        assert np.all(np.abs(e) <= 1.0)


class TestInitParams:
    def test_deterministic_per_seed(self):
        a = init_params((4, 3, 4), 2, seed=11)
        b = init_params((4, 3, 4), 2, seed=11)
        for wa, wb in zip(a.weights, b.weights):
            assert wa.tobytes() == wb.tobytes()
        c = init_params((4, 3, 4), 2, seed=12)
        assert not np.array_equal(a.weights[0], c.weights[0])

    def test_biases_zero(self):
        p = init_params((5, 4, 5), 3, seed=0)
        for b in p.biases:
            assert np.array_equal(b, np.zeros_like(b))

    def test_weight_magnitude_bound(self):
        p = init_params((10, 6, 10), 4, seed=3)
        fan_in_first = 10 + 4
        assert np.all(np.abs(p.weights[0]) <= 1.0 / math.sqrt(fan_in_first))
        assert np.all(np.abs(p.weights[1]) <= 1.0 / math.sqrt(6))

    def test_requires_hidden_layer(self):
        with pytest.raises(ConfigError):
            init_params((4, 4), 2, seed=0)

    def test_rejects_zero_width(self):
        with pytest.raises(ConfigError):
            init_params((4, 0, 4), 2, seed=0)


class TestPredictX0:
    def test_zero_network_outputs_zero(self):
        p = init_params((3, 2, 3), 2, seed=0)
        for w in p.weights:
            w[:] = 0.0
        out = predict_x0(p, np.array([1.0, -2.0, 0.5]), 2)
        assert np.array_equal(out, np.zeros(3))

    def test_hand_forward_pass(self):
        p = hand_network()
        x = np.array([0.7, -0.3])
        t = 2
        emb = timestep_embedding(t, 2)
        z = np.concatenate([x, emb])
        h = np.tanh(z @ p.weights[0] + p.biases[0])
        expected = h @ p.weights[1] + p.biases[1]
        out = predict_x0(p, x, t)
        np.testing.assert_array_equal(out, expected)

    def test_purity(self):
        p = init_params((4, 3, 4), 2, seed=5)
        x = np.array([0.1, 0.2, 0.3, 0.4])
        assert predict_x0(p, x, 3).tobytes() == predict_x0(p, x, 3).tobytes()

    def test_shape_error(self):
        p = init_params((4, 3, 4), 2, seed=5)
        with pytest.raises(ConfigError, match="input width 5 != model width 4"):
            predict_x0(p, np.zeros(5), 1)

    def test_output_head_homogeneity(self):
        p = init_params((4, 3, 4), 2, seed=5)
        x = np.array([0.3, -0.1, 0.8, 0.2])
        base = predict_x0(p, x, 2)
        scaled = p.copy()
        scaled.weights[-1] *= 2.0
        scaled.biases[-1] *= 2.0
        np.testing.assert_allclose(predict_x0(scaled, x, 2), 2.0 * base, rtol=1e-14)

    def test_batch_matches_single(self, rng):
        # BLAS may round matrix-matrix and matrix-vector products
        # differently, so batch-vs-single agreement is to machine
        # precision, not bitwise (bitwise holds only at fixed shapes).
        p = init_params((4, 3, 4), 2, seed=5)
        xs = rng.standard_normal((3, 4))
        ts = np.array([1, 2, 2])
        batch = predict_x0(p, xs, ts)
        for i in range(3):
            np.testing.assert_allclose(
                batch[i], predict_x0(p, xs[i], int(ts[i])), rtol=1e-12, atol=1e-14
            )


class TestLossAndGrad:
    def test_loss_weight_scalar_example(self):
        w = loss_weights(make_schedule(2, 0.1, 0.2))
        assert math.isclose(w[1], 0.5 * (9.0 - 0.72 / 0.28), rel_tol=1e-12)

    def test_perfect_prediction_zero_loss_zero_grads(self):
        sched = make_schedule(3, 0.1, 0.2)
        p = init_params((3, 2, 3), 2, seed=1)
        for w in p.weights:
            w[:] = 0.0
        # x0 = 0 rows: the zero network predicts 0 = x0 exactly.
        x0 = np.zeros((2, 3))
        t = np.array([1, 3])
        eps = np.zeros((2, 3))
        loss, grads = loss_and_grad(p, x0, t, input_buffer(p, eps), sched)
        assert loss == 0.0
        assert np.array_equal(grads.weights[-1], np.zeros_like(grads.weights[-1]))
        assert np.array_equal(grads.biases[-1], np.zeros_like(grads.biases[-1]))

    def test_loss_value_matches_direct_formula(self, rng):
        sched = make_schedule(5, 0.05, 0.3)
        p = init_params((4, 3, 4), 2, seed=2)
        x0 = rng.standard_normal((3, 4))
        t = np.array([1, 2, 5])
        eps = rng.standard_normal((3, 4))
        loss, _ = loss_and_grad(p, x0, t, input_buffer(p, eps), sched)
        w = loss_weights(sched)
        total = 0.0
        for i in range(3):
            x_t = q_sample(x0[i], int(t[i]), eps[i], sched)
            diff = predict_x0(p, x_t, int(t[i])) - x0[i]
            total += w[t[i] - 1] * float(diff @ diff)
        assert math.isclose(loss, total / 3, rel_tol=1e-12)

    def test_finite_difference_gradients(self):
        sched = make_schedule(5, 0.05, 0.3)
        p = init_params((6, 4, 6), 3, seed=7)
        rng = np.random.default_rng(42)
        x0 = rng.standard_normal((3, 6))
        t = np.array([1, 3, 5])
        eps = rng.standard_normal((3, 6))

        _, grads = loss_and_grad(p, x0, t, input_buffer(p, eps), sched)

        def loss_at(params):
            val, _ = loss_and_grad(params, x0, t, input_buffer(params, eps), sched)
            return val

        h = 1e-5
        worst = 0.0
        for tensors, gtensors in (
            (p.weights, grads.weights),
            (p.biases, grads.biases),
        ):
            for tensor, gtensor in zip(tensors, gtensors):
                flat = tensor.ravel()
                gflat = gtensor.ravel()
                for idx in range(flat.size):
                    orig = flat[idx]
                    flat[idx] = orig + h
                    up = loss_at(p)
                    flat[idx] = orig - h
                    down = loss_at(p)
                    flat[idx] = orig
                    fd = (up - down) / (2 * h)
                    denom = max(abs(fd), abs(gflat[idx]), 1e-8)
                    worst = max(worst, abs(fd - gflat[idx]) / denom)
        assert worst < 1e-4

    def test_nonfinite_raises_numeric_error(self):
        sched = make_schedule(3, 0.1, 0.2)
        p = init_params((3, 2, 3), 2, seed=1)
        p.weights[-1][0, 0] = np.inf
        with pytest.raises(NumericError):
            loss_and_grad(p, np.ones((1, 3)), np.array([2]), input_buffer(p, np.zeros((1, 3))), sched)

    @pytest.mark.parametrize("shape, dtype", [((1, 4), np.float64), ((1, 5), np.float32)])
    def test_input_buffer_of_another_shape_or_dtype_rejected(self, shape, dtype):
        # the buffer holds the noise and the time embedding, in params' dtype
        sched = make_schedule(3, 0.1, 0.2)
        p = init_params((3, 2, 3), 2, seed=1)
        with pytest.raises(ConfigError, match=r"input buffer .* != \(1, 5\) float64"):
            loss_and_grad(p, np.ones((1, 3)), np.array([2]), np.zeros(shape, dtype), sched)

    def test_step_out_of_range_rejected(self):
        sched = make_schedule(3, 0.1, 0.2)
        p = init_params((3, 2, 3), 2, seed=1)
        with pytest.raises(Exception):
            loss_and_grad(p, np.ones((1, 3)), np.array([4]), input_buffer(p, np.zeros((1, 3))), sched)


def _batch(kind: str, rng, n: int):
    """A 7-row training batch of the given kind (see TestStepBitwise)."""
    if kind in ("binary_csr", "binary_dense"):
        x0 = (rng.random((7, n)) < 0.3).astype(np.float64)
        return sp.csr_matrix(x0) if kind == "binary_csr" else x0
    if kind == "real_dense":
        # negative values, and -0.0 wherever a negative draw is masked out
        x0 = rng.standard_normal((7, n)) * (rng.random((7, n)) < 0.5)
        assert np.signbit(x0[x0 == 0.0]).any()
        return x0
    rows = np.repeat(np.arange(7), 2)
    cols = np.tile([1, 4], 7)
    if kind == "explicit_zero":
        data = np.where(np.arange(14) % 3 == 0, 0.0, 1.0)
        x0 = sp.csr_matrix((data, (rows, cols)), shape=(7, n))
        assert (x0.data == 0.0).any()
        return x0
    assert kind == "duplicates"
    # every stored entry twice: CSR built straight from unsummed arrays
    indices = np.repeat(cols, 2)
    data = rng.standard_normal(28)
    x0 = sp.csr_matrix((data, indices, np.arange(0, 29, 4)), shape=(7, n))
    assert not x0.has_canonical_format
    return x0


def _snapshot(x):
    if sp.issparse(x):
        return [x.data.tobytes(), x.indices.tobytes(), x.indptr.tobytes()]
    return [np.asarray(x).tobytes()]


class TestStepBitwise:
    """loss_and_grad builds x_t and the residual from the sparse batch in
    place; it must equal the dense formulas to the last bit.  It writes
    only its input buffer, which ends holding the embedded input."""

    SCHED = make_schedule(5, 0.05, 0.3)

    def check(self, params, x0, t, eps):
        before = _snapshot(x0) + _snapshot(eps)
        h = input_buffer(params, eps)
        loss, grads = loss_and_grad(params, x0, t, h, self.SCHED)
        ref_loss, ref_w, ref_b = dense_loss_and_grad(params, x0, t, eps, self.SCHED)
        assert np.float64(loss).tobytes() == np.float64(ref_loss).tobytes()
        for got, ref in zip(grads.weights + grads.biases, ref_w + ref_b):
            assert got.shape == ref.shape
            assert got.tobytes() == ref.tobytes()
        assert _snapshot(x0) + _snapshot(eps) == before
        dense = np.asarray(x0.todense() if sp.issparse(x0) else x0, dtype=np.float64)
        x_t = q_sample(dense, t, eps, self.SCHED)
        embedded = np.concatenate([x_t, timestep_embedding(t, params.time_embed_dim)], axis=1)
        assert h.tobytes() == embedded.tobytes()

    @pytest.mark.parametrize("hidden", [(6,), (5, 4)])
    @pytest.mark.parametrize(
        "kind",
        ["binary_csr", "binary_dense", "real_dense", "explicit_zero", "duplicates"],
    )
    def test_batch_kinds(self, hidden, kind):
        rng = np.random.default_rng(17)
        n = 9
        params = init_params((n, *hidden, n), 3, seed=4)
        x0 = _batch(kind, rng, n)
        t = np.array([1, 2, 3, 4, 5, 5, 1])  # covers 1..T
        eps = rng.standard_normal((7, n))
        self.check(params, x0, t, eps)

    @pytest.mark.parametrize("hidden", [(6,), (5, 4)])
    def test_one_row_every_step(self, hidden):
        rng = np.random.default_rng(3)
        params = init_params((9, *hidden, 9), 4, seed=2)
        x0 = sp.csr_matrix((rng.random((1, 9)) < 0.4).astype(np.float64))
        for t in range(1, self.SCHED.T + 1):
            self.check(params, x0, np.array([t]), rng.standard_normal((1, 9)))


class TestFloat32Step:
    """float32 params (the trainer's) step in float32: every gradient is
    float32, the values are the float64 step's to float32 rounding, and
    no float64 array of the batch's size is made."""

    SCHED = make_schedule(5, 0.05, 0.3)

    def batch(self, n, hidden, B, density):
        rng = np.random.default_rng(23)
        params = init_params((n, *hidden, n), 3, seed=4).astype(np.float32)
        x0 = sp.csr_matrix((rng.random((B, n)) < density).astype(np.float64))
        t = rng.integers(1, self.SCHED.T + 1, size=B)
        eps = rng.standard_normal((B, n), dtype=np.float32)
        return params, x0, t, eps

    @pytest.mark.parametrize("hidden", [(6,), (5, 4)])
    def test_matches_the_float64_step_to_float32_rounding(self, hidden):
        params, x0, t, eps = self.batch(40, hidden, 16, 0.3)
        loss, grads = loss_and_grad(params, x0, t, input_buffer(params, eps), self.SCHED)
        # the same inputs, exactly: the float64 upcasts
        wide = params.astype(np.float64)
        ref_loss, ref = loss_and_grad(wide, x0, t, input_buffer(wide, eps), self.SCHED)
        assert all(g.dtype == np.float32 for g in grads.weights + grads.biases)
        tol = 64 * np.finfo(np.float32).eps
        assert abs(loss - ref_loss) <= tol * ref_loss
        for got, want in zip(grads.weights + grads.biases, ref.weights + ref.biases):
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= tol * np.abs(want).max()

    def test_holds_half_the_float64_steps_bytes(self):
        params, x0, t, eps = self.batch(2000, (16,), 100, 0.02)
        peaks = {}
        for name, p in (("f32", params), ("f64", params.astype(np.float64))):
            h = input_buffer(p, eps)
            peaks[name] = traced_peak(lambda: loss_and_grad(p, x0, t, h, self.SCHED))
        assert peaks["f32"] <= 0.55 * peaks["f64"], peaks
