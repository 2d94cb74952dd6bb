"""Noise schedule and the closed-form Gaussian quantities built on it.

Timesteps are 1-based: t runs over [1, T], and arrays are indexed with
t - 1.  The cumulative product at t = 0 is defined as 1, which makes the
t = 1 posterior well defined (it collapses onto the clean vector).

All schedule math is double precision: the training-loss weights subtract
two near-equal large ratios at small beta, which underflows in float32.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError


@dataclass(frozen=True)
class NoiseSchedule:
    """Per-step noise strengths and their running products.

    beta[t-1] is the noise variance added at step t, alpha = 1 - beta,
    alpha_bar[t-1] the product of alpha over steps 1..t.
    """

    beta: np.ndarray
    alpha: np.ndarray
    alpha_bar: np.ndarray

    @property
    def T(self) -> int:
        return len(self.beta)

    def alpha_bar_prev(self, t: int) -> float:
        """Cumulative product at t - 1, with the t = 1 boundary equal to 1."""
        return 1.0 if t == 1 else float(self.alpha_bar[t - 2])


def make_schedule(T: int, beta_start: float, beta_end: float) -> NoiseSchedule:
    """Build a linear schedule of T noise strengths.

    Raises ConfigError unless T >= 1 and 0 < beta_start <= beta_end < 1.
    """
    if T < 1:
        raise ConfigError(f"T must be >= 1, got {T}")
    if not 0.0 < beta_start < 1.0:
        raise ConfigError(f"beta_start must be in (0, 1), got {beta_start}")
    if not beta_start <= beta_end < 1.0:
        raise ConfigError(f"beta_end must be in [beta_start, 1), got {beta_end}")
    try:  # NumPy refuses a size it can never allocate before allocating
        beta = np.linspace(beta_start, beta_end, T, dtype=np.float64)
    except MemoryError as err:
        raise ConfigError(f"T has a bad value: {T} ({err})") from err
    alpha = 1.0 - beta
    alpha_bar = np.cumprod(alpha)
    sched = NoiseSchedule(beta=beta, alpha=alpha, alpha_bar=alpha_bar)
    # alpha_bar strictly decreasing guarantees positive loss weights; fail
    # loudly here rather than deep inside a training run.
    weights = loss_weights(sched)
    if not np.all(weights > 0.0):
        raise ConfigError("schedule yields non-positive loss weights")
    return sched


def _check_step(t: int, T: int) -> None:
    if not 1 <= t <= T:
        raise ConfigError(f"timestep {t} outside [1, {T}]")


def q_sample(x0: np.ndarray, t, eps: np.ndarray, sched: NoiseSchedule) -> np.ndarray:
    """Corrupt x0 to step t in closed form: sqrt(ab_t)*x0 + sqrt(1-ab_t)*eps.

    t may be a scalar in [0, T] (0 returns x0 unchanged) or, for batched
    x0 of shape (B, n), an integer array of length B with entries in [1, T].
    """
    x0 = np.asarray(x0, dtype=np.float64)
    eps = np.asarray(eps, dtype=np.float64)
    if x0.shape != eps.shape:
        raise ConfigError(f"eps shape {eps.shape} does not match x0 shape {x0.shape}")
    if np.ndim(t) == 0:
        t = int(t)
        if t == 0:
            return x0.copy()
        _check_step(t, sched.T)
        ab = sched.alpha_bar[t - 1]
        return np.sqrt(ab) * x0 + np.sqrt(1.0 - ab) * eps
    t = np.asarray(t)
    if np.any(t < 1) or np.any(t > sched.T):
        raise ConfigError(f"timestep array outside [1, {sched.T}]")
    ab = sched.alpha_bar[t - 1][:, None]
    return np.sqrt(ab) * x0 + np.sqrt(1.0 - ab) * eps


def posterior_coeffs(sched: NoiseSchedule, t: int) -> tuple[float, float, float]:
    """Coefficients (on x_t, on x0) of the exact reverse posterior mean,
    plus its variance, at step t."""
    _check_step(t, sched.T)
    a_t = sched.alpha[t - 1]
    ab_t = sched.alpha_bar[t - 1]
    ab_prev = sched.alpha_bar_prev(t)
    denom = 1.0 - ab_t
    c_xt = np.sqrt(a_t) * (1.0 - ab_prev) / denom
    c_x0 = np.sqrt(ab_prev) * (1.0 - a_t) / denom
    sigma2 = (1.0 - a_t) * (1.0 - ab_prev) / denom
    return float(c_xt), float(c_x0), float(sigma2)


def model_mean(
    x_t: np.ndarray, x0_hat: np.ndarray, t: int, sched: NoiseSchedule
) -> np.ndarray:
    """Reverse-step mean with the denoiser prediction in place of x0."""
    c_xt, c_x0, _ = posterior_coeffs(sched, t)
    return c_xt * np.asarray(x_t, dtype=np.float64) + c_x0 * np.asarray(
        x0_hat, dtype=np.float64
    )


def loss_weights(sched: NoiseSchedule) -> np.ndarray:
    """Per-step training-loss weights, indexed by t - 1.

    The first step is weighted 1 (plain reconstruction); later steps are
    weighted by half the drop in the signal-to-noise ratio ab/(1-ab)
    between consecutive steps.
    """
    ab = sched.alpha_bar
    snr = ab / (1.0 - ab)
    w = np.empty_like(ab)
    w[0] = 1.0
    if len(ab) > 1:
        w[1:] = 0.5 * (snr[:-1] - snr[1:])
    return w
