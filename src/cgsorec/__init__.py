"""Condition-guided diffusion recommendation with social denoising.

Two diffusion models — one over user-item interaction rows, one over
user-user social rows — are trained unconditionally and composed at
inference time: the social model cleans the neighbor graph, the cleaned
graph yields an inverted-popularity item condition, and the item model's
reverse process is steered by it.  The package also ships the dataset
plumbing, a debiased evaluation harness, and a CLI (`cgsorec`).
"""

__version__ = "0.1.0"
