"""Condition-guided diffusion recommendation with social denoising.

Two diffusion models — one over user-item interaction rows, one over
user-user social rows — are trained unconditionally and composed at
inference time: the social model cleans the neighbor graph, the cleaned
graph yields an inverted-popularity item condition, and the item model's
reverse process is steered by it.  The package also ships the dataset
plumbing, a debiased evaluation harness, and a CLI (`cgsorec`).
"""

from .config import ExperimentConfig, derive_seed, load_config
from .corpus import (
    InteractionMatrix,
    ItemGroups,
    SocialMatrix,
    SplitBundle,
    build_debiased_test,
    copurchase,
    invert_preference,
    item_condition,
    load_interactions,
    load_social,
    longtail_submatrix,
    partition_items,
    social_condition,
    social_preference,
    split,
)
from .denoiser import DenoiserParams, init_params, loss_and_grad, predict_x0
from .errors import (
    CgsorecError,
    ConfigError,
    DataError,
    DimensionError,
    IntegrityError,
    NumericError,
    ParseError,
    ShapeError,
    StepError,
)
from .evaluation import (
    EvalReport,
    RankedList,
    evaluate_lists,
    frequency_histogram,
    group_metrics,
    ndcg_at_k,
    recall_at_k,
    topk_lists,
)
from .guidance import (
    GuidanceConfig,
    binarize_social,
    joint_chains,
    joint_inference,
    unconditional_scores,
)
from .schedule import (
    NoiseSchedule,
    loss_weights,
    make_schedule,
    model_mean,
    posterior_params,
    q_sample,
)
from .synth import SyntheticDataset, community_dataset, lastfm_like, planted, write_dataset
from .trainer import (
    Checkpoint,
    TrainConfig,
    load_checkpoint,
    optimizer_step,
    save_checkpoint,
    train_model,
)

__version__ = "0.1.0"
