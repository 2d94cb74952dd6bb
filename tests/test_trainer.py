"""Training loop, optimizer, and checkpoint persistence."""

import json
import math
import threading
from functools import partial

import numpy as np
import pytest
import scipy.sparse as sp

from cgsorec.corpus import split
from cgsorec.denoiser import ParamGrads, init_params, predict_x0, timestep_embedding
from cgsorec.errors import ConfigError, DataError, NumericError
from cgsorec.evaluation import recall_at_k, topk_lists
from cgsorec.guidance import STAGE_VALID
from cgsorec.schedule import loss_weights, make_schedule
from cgsorec.synth import planted
from cgsorec import pipeline, trainer
from cgsorec.store import Checkpoint, EpochStats, TrainConfig, load_checkpoint, save_checkpoint
from cgsorec.trainer import AdamState, optimizer_step, train_model

from conftest import whole_scores
from reference import to_matrices


def zero_grads(params) -> ParamGrads:
    return ParamGrads(
        weights=[np.zeros_like(w) for w in params.weights],
        biases=[np.zeros_like(b) for b in params.biases],
    )


def lowrank_rows(rng, n_users=20, n_items=30, rank=2) -> np.ndarray:
    """Binary matrix with a planted low-rank structure; easy to denoise."""
    u = rng.random((n_users, rank))
    v = rng.random((rank, n_items))
    return (u @ v > np.quantile(u @ v, 0.7)).astype(np.float64)


def textbook_adam(params, grads, m, v, step, cfg) -> None:
    """Adam with bias correction, one whole-tensor expression per line."""
    b1, b2 = cfg.beta1, cfg.beta2
    corr1 = 1.0 - b1**step
    corr2 = 1.0 - b2**step
    tensors = list(params.weights) + list(params.biases)
    gradients = list(grads.weights) + list(grads.biases)
    for theta, g, m_i, v_i in zip(tensors, gradients, m, v):
        m_i[...] = b1 * m_i + (1.0 - b1) * g
        v_i[...] = b2 * v_i + (1.0 - b2) * g * g
        theta[...] = theta - cfg.learning_rate * (m_i / corr1) / (
            np.sqrt(v_i / corr2) + cfg.epsilon_hat
        )


def dense_loss_and_grad_f32(params, x0, t, eps, sched):
    """test_denoiser.dense_loss_and_grad restated on float32 params: each
    whole-array expression in float32, with the schedule's coefficients
    and x0 rounded to float32 once, and the squared errors summed and the
    loss reduced in float64.  Returns (loss, weight and bias gradients)."""
    f32 = np.float32
    ab = sched.alpha_bar[t - 1][:, None]
    x0 = x0.astype(f32)
    x_t = np.sqrt(ab).astype(f32) * x0 + np.sqrt(1.0 - ab).astype(f32) * eps
    h = np.concatenate([x_t, timestep_embedding(t, params.time_embed_dim).astype(f32)], axis=1)
    acts = [h]
    for w, b in zip(params.weights[:-1], params.biases[:-1]):
        h = np.tanh(h @ w + b)
        acts.append(h)
    diff = h @ params.weights[-1] + params.biases[-1] - x0
    w = loss_weights(sched)[t - 1]
    loss = float(np.mean(w * np.sum(diff * diff, axis=1, dtype=np.float64)))
    g = ((2.0 / x0.shape[0]) * w).astype(f32)[:, None] * diff
    n_layers = len(params.weights)
    grads_w, grads_b = [None] * n_layers, [None] * n_layers
    for l in range(n_layers - 1, -1, -1):
        grads_w[l] = acts[l].T @ g
        grads_b[l] = g.sum(axis=0)
        if l > 0:
            g = (g @ params.weights[l].T) * (1.0 - acts[l] * acts[l])
    return loss, grads_w, grads_b


def halved_step(params, x0, t, eps, sched):
    """The batch's step as train_model splits it: the first ceil(B/2) rows,
    then the rest (none when B is 1), each through the dense float32 step,
    with its loss and gradients scaled by its share of the batch and
    added.  Returns (loss, weight and bias gradients)."""
    B = len(x0)
    h = -(-B // 2)
    loss, grads = 0.0, [0] * (2 * len(params.weights))
    for half in (slice(0, h), slice(h, B)):
        if half.start == half.stop:
            continue
        share = (half.stop - half.start) / B
        part, gw, gb = dense_loss_and_grad_f32(params, x0[half], t[half], eps[half], sched)
        loss += part * share
        grads = [g + d * share for g, d in zip(grads, gw + gb)]
    return loss, grads[: len(params.weights)], grads[len(params.weights) :]


def reference_train(data, cfg, sched, hidden, time_embed_dim, valid_target, valid_mask):
    """train_model restated on dense batches, with the dense float32 step
    in halves (halved_step) and textbook Adam in float32, validating the
    float64 upcast; returns (best params, per-epoch losses)."""
    dense = data.toarray()
    n_rows, width = dense.shape
    params = init_params(
        (width, *hidden, width), time_embed_dim, seed=cfg.seed, model_tag="CGD"
    ).astype(np.float32)
    tensors = list(params.weights) + list(params.biases)
    m = [np.zeros_like(a) for a in tensors]
    v = [np.zeros_like(a) for a in tensors]
    step, losses, best, best_metric = 0, [], None, -np.inf
    for epoch in range(1, cfg.epochs + 1):
        perm = np.random.default_rng([cfg.seed, 1, epoch]).permutation(n_rows)
        rng_noise = np.random.default_rng([cfg.seed, 2, epoch])
        total, n_batches = 0.0, 0
        for start in range(0, n_rows, cfg.batch_size):
            x0 = dense[perm[start : start + cfg.batch_size]]
            t = rng_noise.integers(1, sched.T + 1, size=len(x0))
            eps = rng_noise.standard_normal(x0.shape, dtype=np.float32)
            loss, gw, gb = halved_step(params, x0, t, eps, sched)
            step += 1
            textbook_adam(params, ParamGrads(gw, gb), m, v, step, cfg)
            total += loss
            n_batches += 1
        losses.append(total / n_batches)
        upcast = params.astype(np.float64)
        scores = whole_scores(upcast, sched, data, T_inf=sched.T, seed=cfg.seed, stage=STAGE_VALID)
        metric = recall_at_k(topk_lists(scores, 10, mask=valid_mask), valid_target)
        if metric > best_metric:
            best, best_metric = upcast, metric
    return best, losses


class TestTrainConfig:
    def test_defaults_valid(self):
        cfg = TrainConfig(learning_rate=1e-3, epochs=5, seed=0)
        assert cfg.batch_size == 400 and cfg.patience == 20

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"learning_rate": 0.0},
            {"learning_rate": -1e-3},
            {"epochs": 0},
            {"batch_size": 0},
            {"patience": 0},
            {"valid_every": 0},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        base = dict(learning_rate=1e-3, epochs=5, seed=0)
        base.update(kwargs)
        with pytest.raises(ConfigError):
            TrainConfig(**base)


class TestOptimizerStep:
    def test_zero_grads_fixed_point(self):
        params = init_params((4, 3, 4), 2, seed=0)
        before = [w.copy() for w in params.weights]
        cfg = TrainConfig(learning_rate=0.1, epochs=1, seed=0)
        optimizer_step(params, zero_grads(params), AdamState.zeros_like(params), cfg)
        for w, b in zip(params.weights, before):
            assert np.array_equal(w, b)

    def test_first_step_closed_form(self):
        params = init_params((3, 2, 3), 2, seed=1)
        before = [t.copy() for t in list(params.weights) + list(params.biases)]
        grads = zero_grads(params)
        rng = np.random.default_rng(5)
        for g in list(grads.weights) + list(grads.biases):
            g[:] = rng.standard_normal(g.shape)
        cfg = TrainConfig(learning_rate=0.01, epochs=1, seed=0)
        optimizer_step(params, grads, AdamState.zeros_like(params), cfg)
        after = list(params.weights) + list(params.biases)
        gs = list(grads.weights) + list(grads.biases)
        for b, a, g in zip(before, after, gs):
            # step 1 bias correction makes m_hat = g, v_hat = g^2, so the
            # update per coordinate is -lr * g / (|g| + eps_hat)
            expected = b - 0.01 * g / (np.abs(g) + cfg.epsilon_hat)
            np.testing.assert_allclose(a, expected, rtol=1e-12)

    def test_constant_grads_step_magnitude_approaches_lr(self):
        params = init_params((3, 2, 3), 2, seed=1)
        grads = zero_grads(params)
        for g in list(grads.weights) + list(grads.biases):
            g[:] = 0.37  # constant nonzero gradient everywhere
        cfg = TrainConfig(learning_rate=0.004, epochs=1, seed=0)
        state = AdamState.zeros_like(params)
        prev = params.weights[0].copy()
        for _ in range(600):
            prev = params.weights[0].copy()
            optimizer_step(params, grads, state, cfg)
        last_step = np.abs(params.weights[0] - prev)
        np.testing.assert_allclose(last_step, cfg.learning_rate, rtol=0.01)


class TestAdamBitwise:
    """optimizer_step computes in its params' dtype, each bitwise the
    textbook update in that dtype."""

    def test_equals_textbook_adam_over_five_steps(self):
        self.check(np.float64)

    def test_equals_textbook_adam_over_five_steps_in_float32(self):
        self.check(np.float32)

    def check(self, dtype):
        params = init_params((16389, 3, 16389), 4, seed=3).astype(dtype)
        tensors = list(params.weights) + list(params.biases)
        ref = params.copy()
        ref_tensors = list(ref.weights) + list(ref.biases)
        m = [np.zeros_like(a) for a in tensors]
        v = [np.zeros_like(a) for a in tensors]
        state = AdamState.zeros_like(params)
        cfg = TrainConfig(learning_rate=0.01, epochs=1, seed=0)
        rng = np.random.default_rng(8)
        for step in range(1, 6):
            grads = zero_grads(params)
            for g in list(grads.weights) + list(grads.biases):
                g[...] = rng.standard_normal(g.shape)
            gcopy = [g.copy() for g in list(grads.weights) + list(grads.biases)]
            optimizer_step(params, grads, state, cfg)
            textbook_adam(ref, grads, m, v, step, cfg)
            assert state.step == step
            for got, want in zip(tensors + state.m + state.v, ref_tensors + m + v):
                assert got.dtype == dtype
                assert got.tobytes() == want.tobytes()
            for g, c in zip(list(grads.weights) + list(grads.biases), gcopy):
                assert g.tobytes() == c.tobytes()


class TestTrainModel:
    def make_cfg(self, **kw):
        base = dict(
            learning_rate=5e-3, epochs=3, seed=11, batch_size=8, patience=3
        )
        base.update(kw)
        return TrainConfig(**base)

    def test_determinism(self, rng):
        data = lowrank_rows(rng)
        sched = make_schedule(4, 0.05, 0.2)
        a = train_model("CGD", data, self.make_cfg(), sched, hidden_dims=(6,), time_embed_dim=4)
        b = train_model("CGD", data, self.make_cfg(), sched, hidden_dims=(6,), time_embed_dim=4)
        for wa, wb in zip(a.params.weights, b.params.weights):
            assert wa.tobytes() == wb.tobytes()
        assert a.epoch == b.epoch

    def test_loss_decreases_by_half(self, rng):
        data = lowrank_rows(rng)
        sched = make_schedule(5, 1e-4, 0.02)
        history = train_model(
            "CGD",
            data,
            self.make_cfg(epochs=200, learning_rate=1e-3),
            sched,
            hidden_dims=(32,),
            time_embed_dim=8,
        ).history
        assert [h.epoch for h in history] == list(range(1, 201))
        assert history[-1].loss <= 0.5 * history[0].loss

    def test_sparse_input_equals_dense(self, rng):
        data = lowrank_rows(rng)
        sched = make_schedule(3, 0.05, 0.2)
        a = train_model("CGD", data, self.make_cfg(), sched, hidden_dims=(6,), time_embed_dim=4)
        b = train_model(
            "CGD", sp.csr_matrix(data), self.make_cfg(), sched,
            hidden_dims=(6,), time_embed_dim=4,
        )
        for wa, wb in zip(a.params.weights, b.params.weights):
            assert wa.tobytes() == wb.tobytes()

    def check_reference_loop(self, n_users: int, batch_size: int):
        """train_model with a validation every epoch equals reference_train
        bitwise on planted(0)'s first n_users rows: losses, the best epoch's
        metric and the weights it ships."""
        R, _ = to_matrices(planted(seed=0))
        bundle = split(R, (0.8, 0.1, 0.1), seed=0)
        train, valid = bundle.train.matrix[:n_users], bundle.valid.matrix[:n_users]
        assert train.shape[0] == n_users and n_users % batch_size  # the last batch is partial
        cfg = self.make_cfg(epochs=2, batch_size=batch_size, patience=5)
        sched = make_schedule(5, 1e-4, 0.02)
        ckpt = train_model(
            "CGD", train, cfg, sched, hidden_dims=(16,), time_embed_dim=8,
            validate=pipeline.recall_validator(train, valid, train, sched, cfg.seed),
        )
        history = ckpt.history
        best, losses = reference_train(train, cfg, sched, (16,), 8, valid, train)
        assert [h.valid_metric for h in history][ckpt.epoch - 1] == ckpt.valid_metric
        assert np.array(losses).tobytes() == np.array([h.loss for h in history]).tobytes()
        for got, want in zip(
            ckpt.params.weights + ckpt.params.biases, best.weights + best.biases
        ):
            assert got.tobytes() == want.tobytes()

    def test_equals_dense_reference_loop(self):
        # 200 rows in batches of 64: the last batch is partial
        self.check_reference_loop(200, 64)

    def test_a_one_row_last_batch_runs_on_the_calling_thread(self, monkeypatch):
        # 131 rows in batches of 65: each full batch steps 33 rows on this
        # thread and 32 on the helper, and the last batch's one row has no
        # second half
        traced, seen = trainer.loss_and_grad, []

        def loss_and_grad(params, x0, *args):
            seen.append((threading.current_thread() is threading.main_thread(), x0.shape[0]))
            return traced(params, x0, *args)

        monkeypatch.setattr(trainer, "loss_and_grad", loss_and_grad)
        self.check_reference_loop(131, 65)
        assert sorted(seen) == sorted([(True, 33), (False, 32)] * 4 + [(True, 1)] * 2)

    def test_validation_tracks_best_and_stops(self, rng):
        data = lowrank_rows(rng, n_users=15, n_items=60)
        holdout = np.zeros_like(data)
        for u in range(15):
            on = np.flatnonzero(data[u])
            if len(on) >= 2:
                holdout[u, on[0]] = 1.0
                data[u, on[0]] = 0.0
        sched = make_schedule(3, 0.05, 0.2)
        cfg = self.make_cfg(epochs=30, patience=2)
        ckpt = train_model(
            "CGD",
            data,
            cfg,
            sched,
            hidden_dims=(8,),
            time_embed_dim=4,
            validate=pipeline.recall_validator(
                sp.csr_matrix(data), sp.csr_matrix(holdout), sp.csr_matrix(data), sched, cfg.seed
            ),
        )
        history = ckpt.history
        metrics = [h.valid_metric for h in history]
        assert ckpt.valid_metric == max(m for m in metrics if m is not None)
        assert history[ckpt.epoch - 1].valid_metric == ckpt.valid_metric
        # patience 2: after the best epoch at most 2 stale validations ran
        assert len(history) <= 30

    def test_resume_continues_epoch_counter(self, rng):
        # epochs may change on resume (every other config field is checked
        # by test_resume_under_another_training_config_is_refused)
        data = lowrank_rows(rng)
        sched = make_schedule(3, 0.05, 0.2)
        first = train_model(
            "CGD", data, self.make_cfg(epochs=2), sched,
            hidden_dims=(6,), time_embed_dim=4,
        )
        assert first.epoch == 2
        before = [w.copy() for w in first.params.weights]
        resumed = train_model(
            "CGD", data, self.make_cfg(epochs=4), sched,
            hidden_dims=(6,), time_embed_dim=4, resume=first,
        )
        # the run trains a copy; the checkpoint it resumed stays as it was
        assert all(np.array_equal(w, b) for w, b in zip(first.params.weights, before))
        assert not np.array_equal(resumed.params.weights[0], before[0])
        assert resumed.epoch == 4
        assert [h.epoch for h in first.history] == [1, 2]
        assert [h.epoch for h in resumed.history] == [3, 4]

    def test_resume_keeps_better_baseline(self, rng):
        data = lowrank_rows(rng, n_items=60)
        holdout = np.zeros_like(data)
        holdout[0, 0] = 1.0
        sched = make_schedule(3, 0.05, 0.2)
        init = init_params((60, 6, 60), 4, seed=0, model_tag="CGD")
        previous = Checkpoint(init, sched, self.make_cfg(), epoch=1, valid_metric=1.0)
        cfg = self.make_cfg(epochs=2)
        ckpt = train_model(
            "CGD", data, cfg, sched,
            hidden_dims=(6,), time_embed_dim=4,
            validate=pipeline.recall_validator(
                sp.csr_matrix(data), sp.csr_matrix(holdout), sp.csr_matrix(data), sched, cfg.seed
            ),
            resume=previous,
        )
        # recall cannot strictly exceed 1.0, so the resumed run can never
        # displace the baseline checkpoint it started from
        assert ckpt.valid_metric == 1.0
        assert ckpt.epoch == 1
        assert [h.epoch for h in ckpt.history] == [2]
        for w_out, w_in in zip(ckpt.params.weights, init.weights):
            assert np.array_equal(w_out, w_in)

    def test_resume_of_a_value_float32_cannot_hold_is_refused(self, rng, monkeypatch):
        # 1e300 is a finite float64 but inf in float32, the training dtype
        data = lowrank_rows(rng)
        init = init_params((30, 6, 30), 4, seed=0, model_tag="CGD")
        init.biases[1][3] = 1e300
        previous = Checkpoint(init, make_schedule(3, 0.05, 0.2), self.make_cfg(), 1, float("nan"))

        def no_epoch(*args):
            raise AssertionError("an epoch ran")

        monkeypatch.setattr(trainer, "_train_epoch", no_epoch)
        shown = r"^biases\[1\] in the CGD checkpoint to resume holds a value beyond"
        with pytest.raises(NumericError, match=shown):
            train_model(
                "CGD", data, self.make_cfg(epochs=2), make_schedule(3, 0.05, 0.2),
                hidden_dims=(6,), time_embed_dim=4, resume=previous,
            )

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflow_in_an_epochs_last_step_is_refused(self, rng):
        # one batch per epoch and no validation: no later loss sees the
        # step, and float32 weights overflow to inf at this learning rate.
        # The update runs on a helper thread, and the weight check is the
        # only report: no "overflow encountered" warning comes before it
        data = lowrank_rows(rng)
        cfg = self.make_cfg(epochs=1, batch_size=len(data), learning_rate=1e200)
        with pytest.raises(NumericError, match=r"^CGD epoch 1: non-finite weights\[0\] after"):
            train_model(
                "CGD", data, cfg, make_schedule(3, 0.05, 0.2),
                hidden_dims=(6,), time_embed_dim=4,
            )

    @pytest.mark.parametrize("diverges", [False, True, "helper"])
    def test_no_thread_outlives_training(self, rng, monkeypatch, diverges):
        # at learning rate 1e200 the first update overflows, and the
        # second batch's loss is refused, naming its epoch and batch;
        # "helper": only the half of the first batch that the helper
        # steps is refused, and the message names that batch
        before = set(threading.enumerate())
        cfg = self.make_cfg(epochs=2, learning_rate=1e200 if diverges is True else 5e-3)
        run = partial(
            train_model, "CGD", lowrank_rows(rng), cfg, make_schedule(3, 0.05, 0.2),
            hidden_dims=(6,), time_embed_dim=4,
        )
        if diverges == "helper":
            traced = trainer.loss_and_grad

            def loss_and_grad(*args):
                if threading.current_thread() is not threading.main_thread():
                    raise NumericError("non-finite training loss")
                return traced(*args)

            monkeypatch.setattr(trainer, "loss_and_grad", loss_and_grad)
            with pytest.raises(NumericError, match=r"^CGD epoch 1 batch 1: non-finite"):
                run()
        elif diverges:
            with pytest.raises(NumericError, match=r"^CGD epoch 1 batch 2: non-finite"):
                run()
        else:
            assert [h.epoch for h in run().history] == [1, 2]
        assert set(threading.enumerate()) == before

    def test_validation_scores_the_saved_checkpoint(self, tmp_path):
        # training steps in float32, and both validation and the checkpoint
        # get its exact float64 upcast: the saved valid_metric is the
        # validator's metric of the weights the checkpoint holds
        R, _ = to_matrices(planted(seed=0))
        bundle = split(R, (0.8, 0.1, 0.1), seed=0)
        cfg = self.make_cfg(epochs=3, batch_size=64)
        sched = make_schedule(5, 1e-4, 0.02)
        validate = pipeline.recall_validator(
            bundle.train.matrix, bundle.valid.matrix, bundle.train.matrix, sched, cfg.seed
        )
        ckpt = train_model(
            "CGD", bundle.train.matrix, cfg, sched, hidden_dims=(16,), time_embed_dim=8,
            validate=validate,
        )
        save_checkpoint(ckpt, tmp_path / "ck")
        loaded = load_checkpoint(tmp_path / "ck")
        assert validate(loaded.params) == ckpt.valid_metric
        for a in loaded.params.weights + loaded.params.biases:
            assert a.dtype == np.float64
            assert np.array_equal(a.astype(np.float32).astype(np.float64), a)

    def test_resume_from_unvalidated_checkpoint_has_no_baseline(self, rng):
        # a NaN valid_metric (a run without validation) is no metric to
        # beat: the first validated epoch becomes the best
        data = lowrank_rows(rng, n_items=60)
        holdout = np.zeros_like(data)
        holdout[0, 0] = 1.0
        sched = make_schedule(3, 0.05, 0.2)
        init = init_params((60, 6, 60), 4, seed=0, model_tag="CGD")
        previous = Checkpoint(init, sched, self.make_cfg(), epoch=1, valid_metric=float("nan"))
        cfg = self.make_cfg(epochs=2)
        ckpt = train_model(
            "CGD", data, cfg, sched,
            hidden_dims=(6,), time_embed_dim=4,
            validate=pipeline.recall_validator(
                sp.csr_matrix(data), sp.csr_matrix(holdout), sp.csr_matrix(data), sched, cfg.seed
            ),
            resume=previous,
        )
        assert ckpt.epoch == 2
        assert ckpt.valid_metric == ckpt.history[0].valid_metric

    @pytest.mark.parametrize(
        "change, shown",
        [
            ({"kind": "CSD"}, "model_tag 'CGD' != 'CSD'"),
            ({"hidden_dims": (7,)}, "layer_dims [30, 6, 30] != [30, 7, 30]"),
            ({"hidden_dims": (6, 6)}, "layer_dims [30, 6, 30] != [30, 6, 6, 30]"),
            ({"width": 31}, "layer_dims [30, 6, 30] != [31, 6, 31]"),
            ({"time_embed_dim": 6}, "time_embed_dim 4 != 6"),
            ({"T": 4}, "schedule.T 3 != 4"),
            ({"beta_start": 0.04}, "schedule.beta_start 0.05 != 0.04"),
            ({"beta_end": 0.3}, "schedule.beta_end 0.2 != 0.3"),
        ],
    )
    def test_resume_of_another_model_is_refused(self, rng, monkeypatch, change, shown):
        data = lowrank_rows(rng)
        previous = Checkpoint(
            init_params((30, 6, 30), 4, seed=0, model_tag="CGD"), make_schedule(3, 0.05, 0.2),
            self.make_cfg(), epoch=1, valid_metric=float("nan"),
        )
        run = {"kind": "CGD", "width": 30, "hidden_dims": (6,), "time_embed_dim": 4,
               "T": 3, "beta_start": 0.05, "beta_end": 0.2, **change}

        def no_epoch(*args):
            raise AssertionError("an epoch ran")

        monkeypatch.setattr(trainer, "_train_epoch", no_epoch)
        with pytest.raises(ConfigError) as err:
            train_model(
                run["kind"], np.hstack([data, np.zeros((len(data), run["width"] - 30))]),
                self.make_cfg(epochs=3),
                make_schedule(run["T"], run["beta_start"], run["beta_end"]),
                hidden_dims=run["hidden_dims"], time_embed_dim=run["time_embed_dim"],
                resume=previous,
            )
        # the one field that differs is named, with both values
        assert str(err.value).endswith(f"(checkpoint != config): {shown}")

    @pytest.mark.parametrize(
        "change, shown",
        [
            ({"learning_rate": 0.5}, "config.learning_rate 0.005 != 0.5"),
            ({"seed": 7}, "config.seed 11 != 7"),
            ({"batch_size": 5}, "config.batch_size 8 != 5"),
            ({"patience": 1}, "config.patience 3 != 1"),
            ({"beta2": 0.99}, "config.beta2 0.999 != 0.99"),
        ],
    )
    def test_resume_under_another_training_config_is_refused(self, rng, change, shown):
        # every training config field but epochs must be the checkpoint's
        data = lowrank_rows(rng)
        previous = Checkpoint(
            init_params((30, 6, 30), 4, seed=0, model_tag="CGD"), make_schedule(3, 0.05, 0.2),
            self.make_cfg(), epoch=1, valid_metric=float("nan"),
        )
        with pytest.raises(ConfigError) as err:
            train_model(
                "CGD", data, self.make_cfg(epochs=4, **change), make_schedule(3, 0.05, 0.2),
                hidden_dims=(6,), time_embed_dim=4, resume=previous,
            )
        assert str(err.value).endswith(f"(checkpoint != config): {shown}")

    def test_resume_names_every_field_that_differs(self, rng):
        data = lowrank_rows(rng)
        previous = Checkpoint(
            init_params((30, 6, 30), 4, seed=0, model_tag="CGD"), make_schedule(3, 0.05, 0.2),
            self.make_cfg(), epoch=1, valid_metric=float("nan"),
        )
        with pytest.raises(ConfigError, match="layer_dims .*; time_embed_dim 4 != 5; schedule.T 3 != 5$"):
            train_model(
                "CGD", data, self.make_cfg(), make_schedule(5, 0.05, 0.2),
                hidden_dims=(8,), time_embed_dim=5, resume=previous,
            )


class TestCheckpointIO:
    def make_ckpt(self):
        sched = make_schedule(4, 0.05, 0.2)
        params = init_params((5, 3, 5), 4, seed=9, model_tag="CSD")
        cfg = TrainConfig(learning_rate=1e-3, epochs=7, seed=3)
        return Checkpoint(params=params, sched=sched, config=cfg, epoch=6, valid_metric=0.25)

    def test_roundtrip_bitwise(self, tmp_path):
        ckpt = self.make_ckpt()
        save_checkpoint(ckpt, tmp_path / "ck")
        loaded = load_checkpoint(tmp_path / "ck")
        # the history is not saved: a checkpoint that has one writes the
        # same bytes, and a loaded checkpoint's history is empty
        ckpt.history = [EpochStats(epoch=6, loss=0.5, valid_metric=0.25)]
        save_checkpoint(ckpt, tmp_path / "with-history")
        for name in ("manifest.json", "params.bin"):
            assert (tmp_path / "ck" / name).read_bytes() == (tmp_path / "with-history" / name).read_bytes()
        assert loaded.history == []
        x = np.linspace(-1, 1, 5)
        assert predict_x0(ckpt.params, x, 2).tobytes() == predict_x0(loaded.params, x, 2).tobytes()
        assert np.array_equal(loaded.sched.beta, ckpt.sched.beta)
        assert loaded.epoch == 6 and loaded.valid_metric == 0.25
        assert loaded.config.learning_rate == 1e-3
        assert loaded.params.model_tag == "CSD"

    def test_truncated_blob_is_integrity_error(self, tmp_path):
        ckpt = self.make_ckpt()
        save_checkpoint(ckpt, tmp_path / "ck")
        blob = (tmp_path / "ck" / "params.bin").read_bytes()
        (tmp_path / "ck" / "params.bin").write_bytes(blob[:-16])
        with pytest.raises(DataError, match=r"params\.bin holds \d+ doubles, manifest expects \d+"):
            load_checkpoint(tmp_path / "ck")

    def test_manifest_dim_mismatch_names_field(self, tmp_path):
        ckpt = self.make_ckpt()
        save_checkpoint(ckpt, tmp_path / "ck")
        manifest = json.loads((tmp_path / "ck" / "manifest.json").read_text())
        manifest["layer_dims"] = [5, 4, 5]
        (tmp_path / "ck" / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(DataError, match="layer_dims|tensor"):
            load_checkpoint(tmp_path / "ck")

    def test_missing_manifest_field(self, tmp_path):
        ckpt = self.make_ckpt()
        save_checkpoint(ckpt, tmp_path / "ck")
        manifest = json.loads((tmp_path / "ck" / "manifest.json").read_text())
        del manifest["schedule"]
        (tmp_path / "ck" / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(DataError, match="schedule"):
            load_checkpoint(tmp_path / "ck")

    @pytest.mark.parametrize(
        "path, value",
        [
            ("model_tag", None),
            ("model_tag", 7),
            ("format", None),
            ("format", 2),
            ("format", "1"),
            ("format", True),
            ("epoch", None),
            ("epoch", "six"),
            ("epoch", 1.5),
            ("epoch", "1"),
            ("epoch", True),
            ("epoch", 6.0),
            ("epoch", -3),
            ("valid_metric", None),
            ("valid_metric", "high"),
            ("valid_metric", "0.5"),
            ("valid_metric", True),
            ("valid_metric", float("inf")),
            ("layer_dims", [5, 3.0, 5]),
            ("layer_dims", [5, "3", 5]),
            ("layer_dims", [5, True, 5]),
            ("time_embed_dim", 4.0),
            ("time_embed_dim", "4"),
            ("tensor_shapes", [[9, 3.0], [3], [3, 5], [5]]),
            ("tensor_shapes", [[9, 3], ["3"], [3, 5], [5]]),
            ("schedule.T", None),
            ("schedule.T", 4.9),
            ("schedule.T", "4"),
            ("schedule.beta_start", None),
            ("schedule.beta_start", "0.05"),
            ("schedule.beta_start", float("nan")),
            ("schedule.beta_end", None),
            ("schedule.beta_end", 2.0),  # a schedule make_schedule refuses
            ("schedule.beta_end", True),
            ("config.epochs", 7.5),
            ("config.seed", "3"),
            ("config.batch_size", True),
            ("config.patience", 20.0),
            ("config.learning_rate", "0.001"),
            ("config.learning_rate", float("nan")),
            ("config.beta1", True),
            ("config.epsilon_hat", float("inf")),
            # the defaulted fields, each once loaded at its default
            ("config.batch_size", None),
            ("config.beta1", None),
            ("config.beta2", None),
            ("config.epsilon_hat", None),
            ("config.patience", None),
            ("config.valid_every", None),
            ("schedule.T", 10**17),  # too long to allocate
        ],
    )
    def test_bad_manifest_field_is_integrity_error(self, tmp_path, path, value):
        # each field is read by its JSON type, never converted; value None
        # deletes the field
        save_checkpoint(self.make_ckpt(), tmp_path / "ck")
        manifest = json.loads((tmp_path / "ck" / "manifest.json").read_text())
        *outer, name = path.split(".")
        section = manifest[outer[0]] if outer else manifest
        if value is None:
            del section[name]
        else:
            section[name] = value
        (tmp_path / "ck" / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(DataError, match="manifest missing/invalid field") as err:
            load_checkpoint(tmp_path / "ck")
        # the message names the field by its dotted path
        assert path in str(err.value)

    def test_non_finite_tensor_is_numeric_error(self, tmp_path):
        ckpt = self.make_ckpt()
        save_checkpoint(ckpt, tmp_path / "ck")
        blob = tmp_path / "ck" / "params.bin"
        values = np.fromfile(blob, dtype="<f8")
        values[(5 + 4) * 3 + 1] = np.inf  # second entry of biases[0]
        values.tofile(blob)
        with pytest.raises(NumericError, match=r"biases\[0\]"):
            load_checkpoint(tmp_path / "ck")

    def test_model_of_another_tag_is_refused_when_one_is_asked_for(self, tmp_path):
        save_checkpoint(self.make_ckpt(), tmp_path / "ck")  # a CSD model
        assert load_checkpoint(tmp_path / "ck", "CSD").params.model_tag == "CSD"
        shown = f"{tmp_path / 'ck' / 'manifest.json'}: model_tag 'CSD' where 'CGD' belongs"
        with pytest.raises(DataError) as err:
            load_checkpoint(tmp_path / "ck", "CGD")
        assert str(err.value) == shown

    def test_unreadable_manifest(self, tmp_path):
        (tmp_path / "ck").mkdir()
        (tmp_path / "ck" / "manifest.json").write_text("{broken")
        with pytest.raises(DataError, match="unreadable manifest"):
            load_checkpoint(tmp_path / "ck")
