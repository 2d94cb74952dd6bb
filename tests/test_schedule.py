"""Noise-schedule construction and closed-form diffusion quantities."""

import math

import numpy as np
import pytest

from cgsorec.errors import ConfigError
from cgsorec.schedule import (
    NoiseSchedule,
    loss_weights,
    make_schedule,
    model_mean,
    q_sample,
)

from reference import posterior_params


def bayes_posterior_1d(alpha_t, abar_prev, x_t, x0):
    """Independent 1-D Gaussian Bayes-rule oracle.

    q(x_{t-1} | x_t, x0) is proportional to q(x_t | x_{t-1}) * q(x_{t-1} | x0)
    with q(x_t | x_{t-1}) = N(sqrt(alpha_t) x_{t-1}, 1 - alpha_t) and
    q(x_{t-1} | x0) = N(sqrt(abar_prev) x0, 1 - abar_prev).  Completing the
    square gives precision tau and mean mu below.
    """
    tau = alpha_t / (1.0 - alpha_t) + 1.0 / (1.0 - abar_prev)
    mu = (
        math.sqrt(alpha_t) * x_t / (1.0 - alpha_t)
        + math.sqrt(abar_prev) * x0 / (1.0 - abar_prev)
    ) / tau
    return mu, 1.0 / tau


def schedule_for_pair(alpha_t, abar_prev) -> NoiseSchedule:
    """2-step schedule whose step 2 realizes an arbitrary (alpha_t, abar_prev)."""
    return NoiseSchedule(
        beta=np.array([1.0 - abar_prev, 1.0 - alpha_t]),
        alpha=np.array([abar_prev, alpha_t]),
        alpha_bar=np.array([abar_prev, abar_prev * alpha_t]),
    )


class TestMakeSchedule:
    def test_two_step_running_product(self):
        sched = make_schedule(2, 0.1, 0.2)
        np.testing.assert_allclose(sched.beta, [0.1, 0.2])
        np.testing.assert_allclose(sched.alpha, [0.9, 0.8])
        np.testing.assert_allclose(sched.alpha_bar, [0.9, 0.72])

    def test_single_step(self):
        sched = make_schedule(1, 0.1, 0.1)
        np.testing.assert_allclose(sched.alpha_bar, [0.9])
        assert sched.T == 1

    def test_constant_beta_powers(self):
        sched = make_schedule(3, 0.05, 0.05)
        np.testing.assert_allclose(
            sched.alpha_bar, [0.95, 0.9025, 0.857375], rtol=0, atol=1e-15
        )

    @pytest.mark.parametrize(
        "T,b0,b1",
        [(0, 0.1, 0.2), (2, 0.0, 0.2), (2, 0.1, 1.0), (2, 0.3, 0.1), (2, -0.1, 0.2)],
    )
    def test_bounds_rejected(self, T, b0, b1):
        with pytest.raises(ConfigError):
            make_schedule(T, b0, b1)

    def test_invariants_hold_exactly(self):
        for T, b0, b1 in [(1, 0.5, 0.5), (7, 1e-4, 0.02), (50, 0.01, 0.3)]:
            sched = make_schedule(T, b0, b1)
            assert np.all(sched.beta > 0) and np.all(sched.beta < 1)
            assert np.array_equal(sched.alpha, 1.0 - sched.beta)
            assert np.all(np.diff(sched.alpha_bar) < 0) or T == 1
            # alpha_bar_t / alpha_bar_{t-1} == alpha_t, with abar_0 := 1
            prev = np.concatenate(([1.0], sched.alpha_bar[:-1]))
            np.testing.assert_allclose(
                sched.alpha_bar, prev * sched.alpha, rtol=1e-15
            )
            assert sched.alpha_bar_prev(1) == 1.0

    def test_loss_weights_positive_everywhere(self):
        for T in (1, 2, 10, 100):
            w = loss_weights(make_schedule(T, 1e-4, 0.05))
            assert w.shape == (T,)
            assert np.all(w > 0)
            assert w[0] == 1.0

    def test_loss_weight_value(self):
        # abar = [0.9, 0.72] -> w_2 = (9 - 0.72/0.28) / 2
        w = loss_weights(make_schedule(2, 0.1, 0.2))
        expected = 0.5 * (0.9 / 0.1 - 0.72 / 0.28)
        assert math.isclose(w[1], expected, rel_tol=1e-12)
        assert math.isclose(w[1], 3.214286, rel_tol=1e-6)


class TestQSample:
    def test_zero_noise_scales_by_sqrt_abar(self):
        sched = make_schedule(2, 0.1, 0.2)  # abar_2 = 0.72... use 0.81 via custom
        sched = schedule_for_pair(0.9, 0.9)  # abar_2 = 0.81
        x0 = np.ones(4)
        out = q_sample(x0, 2, np.zeros(4), sched)
        np.testing.assert_allclose(out, 0.9, rtol=1e-15)

    def test_t_zero_is_identity(self):
        sched = make_schedule(3, 0.1, 0.2)
        x0 = np.array([0.3, -1.0, 2.0])
        out = q_sample(x0, 0, np.ones(3), sched)
        assert np.array_equal(out, x0)
        assert out is not x0

    def test_pure_noise_component(self):
        sched = schedule_for_pair(0.9, 0.75)  # abar_1 = 0.75
        out = q_sample(np.zeros(3), 1, np.ones(3), sched)
        np.testing.assert_allclose(out, 0.5, rtol=1e-15)

    def test_step_out_of_range(self):
        sched = make_schedule(3, 0.1, 0.2)
        with pytest.raises(ConfigError, match=r"timestep 4 outside \[1, 3\]"):
            q_sample(np.zeros(2), 4, np.zeros(2), sched)
        with pytest.raises(ConfigError, match=r"timestep -1 outside \[1, 3\]"):
            q_sample(np.zeros(2), -1, np.zeros(2), sched)

    def test_vector_t_matches_scalar_loop(self, rng):
        sched = make_schedule(6, 0.01, 0.3)
        x0 = rng.standard_normal((5, 3))
        eps = rng.standard_normal((5, 3))
        t = np.array([1, 2, 3, 6, 4])
        batch = q_sample(x0, t, eps, sched)
        rows = [q_sample(x0[i], int(t[i]), eps[i], sched) for i in range(5)]
        np.testing.assert_array_equal(batch, np.stack(rows))

    def test_empirical_mean_and_variance(self):
        sched = make_schedule(5, 0.05, 0.3)
        t = 4
        abar = sched.alpha_bar[t - 1]
        x0 = np.full(10_000, 0.7)
        eps = np.random.default_rng(99).standard_normal(10_000)
        out = q_sample(x0, t, eps, sched)
        se = math.sqrt(1.0 - abar) / math.sqrt(10_000)
        assert abs(out.mean() - math.sqrt(abar) * 0.7) < 4 * se
        assert abs(out.var() - (1.0 - abar)) / (1.0 - abar) < 0.05


class TestPosterior:
    def test_t1_boundary_returns_x0_exactly(self):
        sched = make_schedule(4, 0.1, 0.3)
        x0 = np.array([0.2, -0.5])
        x_t = np.array([5.0, 5.0])
        mu, sigma2 = posterior_params(x_t, x0, 1, sched)
        assert np.array_equal(mu, x0)
        assert sigma2 == 0.0

    def test_scalar_example(self):
        # alpha_2=0.9, abar_1=0.9, abar_2=0.81, x_t=x0=1:
        # both coefficients equal sqrt(0.9)*0.1/0.19, so
        # mu = 2*sqrt(0.9)*0.1/0.19 = 0.9986140, sigma2 = 0.01*0.9.../0.19
        sched = schedule_for_pair(0.9, 0.9)
        mu, sigma2 = posterior_params(np.array([1.0]), np.array([1.0]), 2, sched)
        assert math.isclose(mu[0], 2 * math.sqrt(0.9) * 0.1 / 0.19, rel_tol=1e-12)
        assert math.isclose(mu[0], 0.998614, abs_tol=5e-7)
        assert math.isclose(sigma2, 0.052632, abs_tol=5e-7)

    def test_zero_inputs_zero_mean(self):
        sched = make_schedule(5, 0.05, 0.2)
        for t in range(1, 6):
            mu, _ = posterior_params(np.zeros(3), np.zeros(3), t, sched)
            assert np.array_equal(mu, np.zeros(3))

    def test_bayes_consistency_random_tuples(self):
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(300):
            alpha_t = rng.uniform(0.05, 0.9999)
            abar_prev = rng.uniform(1e-3, 0.999)
            x_t, x0 = rng.normal(0, 2, size=2)
            sched = schedule_for_pair(alpha_t, abar_prev)
            mu, sigma2 = posterior_params(np.array([x_t]), np.array([x0]), 2, sched)
            mu_ref, var_ref = bayes_posterior_1d(alpha_t, abar_prev, x_t, x0)
            worst = max(
                worst,
                abs(mu[0] - mu_ref) / max(abs(mu_ref), 1e-300),
                abs(sigma2 - var_ref) / var_ref,
            )
        assert worst < 1e-10

    def test_step_out_of_range(self):
        sched = make_schedule(2, 0.1, 0.2)
        with pytest.raises(ConfigError, match=r"timestep 3 outside \[1, 2\]"):
            posterior_params(np.zeros(1), np.zeros(1), 3, sched)


class TestModelMean:
    def test_substitution_identity(self, rng):
        sched = make_schedule(5, 0.02, 0.3)
        x0 = rng.standard_normal(6)
        x_t = rng.standard_normal(6)
        for t in (1, 3, 5):
            mu, _ = posterior_params(x_t, x0, t, sched)
            assert np.array_equal(model_mean(x_t, x0, t, sched), mu)

    def test_t1_returns_prediction(self):
        sched = make_schedule(3, 0.1, 0.2)
        x0_hat = np.array([0.4, 0.6])
        out = model_mean(np.array([9.9, 9.9]), x0_hat, 1, sched)
        assert np.array_equal(out, x0_hat)

    def test_scalar_example(self):
        sched = schedule_for_pair(0.9, 0.9)
        out = model_mean(np.array([1.0]), np.array([1.0]), 2, sched)
        assert math.isclose(out[0], 0.998614, abs_tol=5e-7)
