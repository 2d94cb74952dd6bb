"""Small readers the tests share that the program itself never calls: a
config from a dict, the exact reverse posterior, NDCG@k alone, a
synthetic dataset's two matrices, the blend of a chain pair, and a
training step's input buffer."""

import numpy as np

from cgsorec.config import ExperimentConfig, _merge, default_config
from cgsorec.corpus import InteractionMatrix, SocialMatrix, binary_pairs, social_graph
from cgsorec.evaluation import RankedLists, _ranking_metrics
from cgsorec.schedule import NoiseSchedule, posterior_coeffs
from cgsorec.synth import SyntheticDataset


def config_from_dict(user: dict) -> ExperimentConfig:
    """The validated config of `user`, as load_config reads it from a file."""
    return ExperimentConfig(_merge(default_config(), user)).validate()


def posterior_params(
    x_t: np.ndarray, x0: np.ndarray, t: int, sched: NoiseSchedule
) -> tuple[np.ndarray, float]:
    """Mean and variance of the true reverse transition given (x_t, x0)."""
    c_xt, c_x0, sigma2 = posterior_coeffs(sched, t)
    x_t = np.asarray(x_t, dtype=np.float64)
    x0 = np.asarray(x0, dtype=np.float64)
    return c_xt * x_t + c_x0 * x0, sigma2


def ndcg_at_k(lists: RankedLists, test, k: int | None = None) -> float:
    """Mean over users of DCG/IDCG with 1/log2(rank+1) gains."""
    return _ranking_metrics(lists, test, [k])[0][1][k]


def to_matrices(ds: SyntheticDataset) -> tuple[InteractionMatrix, SocialMatrix]:
    """The interaction matrix and the symmetric social graph of `ds`."""
    u, i = ds.interactions.T
    R = InteractionMatrix(binary_pairs(u, i, (ds.n_users, ds.n_items)))
    return R, social_graph(*ds.social_edges.T, ds.n_users)


def blend(a: np.ndarray, b: np.ndarray | None, w: float) -> np.ndarray:
    """(1 - w) * a + w * b; `a` itself when there is no b or w is 0: the
    scores evaluation.top_k_rows ranks for (a, b, w)."""
    if b is None or w == 0.0:
        return a
    return (1.0 - w) * a + w * b


def input_buffer(params, eps) -> np.ndarray:
    """A fresh (B, n + time_embed_dim) buffer in params' dtype whose first
    n columns hold eps: the input denoiser.loss_and_grad takes, and
    overwrites, as the trainer hands it a batch's noise."""
    eps = np.asarray(eps)
    B, n = eps.shape
    h = np.empty((B, n + params.time_embed_dim), dtype=params.weights[0].dtype)
    h[:, :n] = eps
    return h
