"""Independent reference for the benchmark's output checks.

Everything here is written from the method's definition in plain NumPy
and Python sets; nothing imports `cgsorec`.  It reads the program's
files (checkpoint directories, the split manifest, lists files) through
their documented formats, recomputes what the program should have
produced, and leaves the comparison to the caller.

Row conventions follow the program: timesteps run 1..T, every reverse
chain starts from its clean row corrupted to step T with the noise
stream keyed by (seed XOR user, stage), and ties in any ranking break
toward the lower id.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass

import numpy as np

# Noise-stream stages of the four inference chains (social A/B, item A/B).
STAGE_SOCIAL, STAGE_SOCIAL_COND, STAGE_ITEM, STAGE_ITEM_COND = 0, 1, 2, 3


def derive_seed(root: int, name: str) -> int:
    """Named sub-seed: first 8 bytes of sha256("root:name"), 63 bits."""
    digest = hashlib.sha256(f"{root}:{name}".encode()).digest()
    return int.from_bytes(digest[:8], "little") & (2**63 - 1)


# ------------------------------------------------------------- denoiser


@dataclass
class Model:
    weights: list
    biases: list
    temb: int
    beta: np.ndarray

    @property
    def T(self) -> int:
        return len(self.beta)


def read_checkpoint(path) -> Model:
    """Parse manifest.json + params.bin (W0, b0, W1, b1, ... as <f8)."""
    with open(os.path.join(path, "manifest.json"), encoding="utf-8") as fh:
        man = json.load(fh)
    blob = np.fromfile(os.path.join(path, "params.bin"), dtype="<f8")
    tensors, off = [], 0
    for shape in man["tensor_shapes"]:
        n = math.prod(shape)
        tensors.append(blob[off : off + n].reshape(shape))
        off += n
    if off != blob.size:
        raise ValueError(f"{path}: params.bin holds {blob.size} doubles, shapes need {off}")
    s = man["schedule"]
    return Model(
        weights=tensors[0::2],
        biases=tensors[1::2],
        temb=int(man["time_embed_dim"]),
        beta=np.linspace(s["beta_start"], s["beta_end"], int(s["T"])),
    )


def embed(t: int, dim: int) -> np.ndarray:
    """Sinusoidal step embedding: cos block then sin block, zero-padded."""
    half = dim // 2
    freqs = np.array([math.exp(-math.log(10000.0) * k / half) for k in range(half)])
    out = np.zeros(dim)
    out[:half] = np.cos(t * freqs)
    out[half : 2 * half] = np.sin(t * freqs)
    return out


def forward(model: Model, x: np.ndarray, t: int) -> np.ndarray:
    """Clean-row prediction: tanh hidden layers, then a linear head."""
    x = np.atleast_2d(x)
    h = np.hstack([x, np.tile(embed(t, model.temb), (x.shape[0], 1))])
    for w, b in zip(model.weights[:-1], model.biases[:-1]):
        h = np.tanh(h @ w + b)
    return h @ model.weights[-1] + model.biases[-1]


def _alpha_bar(beta: np.ndarray, t: int) -> float:
    """Product of (1 - beta) over steps 1..t; 1 at t = 0."""
    return float(np.prod(1.0 - beta[:t]))


def corrupt(model: Model, x0: np.ndarray, t: int, eps: np.ndarray) -> np.ndarray:
    ab = _alpha_bar(model.beta, t)
    return math.sqrt(ab) * x0 + math.sqrt(1.0 - ab) * eps


def posterior_mean(model: Model, x_t: np.ndarray, x0: np.ndarray, t: int) -> np.ndarray:
    """Mean of q(x_{t-1} | x_t, x0) by Bayes' rule on the two Gaussians."""
    beta_t = model.beta[t - 1]
    ab_t, ab_prev = _alpha_bar(model.beta, t), _alpha_bar(model.beta, t - 1)
    on_xt = math.sqrt(1.0 - beta_t) * (1.0 - ab_prev) / (1.0 - ab_t)
    on_x0 = math.sqrt(ab_prev) * beta_t / (1.0 - ab_t)
    return on_xt * x_t + on_x0 * x0


def weighted_loss(model: Model, x0: np.ndarray, t: np.ndarray, eps: np.ndarray) -> float:
    """Training objective: mean over rows of w_t * ||f(x_t, t) - x0||^2,
    with w_1 = 1 and w_t = (snr_{t-1} - snr_t) / 2 after."""
    snr = [_alpha_bar(model.beta, s) / (1.0 - _alpha_bar(model.beta, s))
           for s in range(1, model.T + 1)]
    total = 0.0
    for row, step, noise in zip(x0, t, eps):
        step = int(step)
        w = 1.0 if step == 1 else 0.5 * (snr[step - 2] - snr[step - 1])
        pred = forward(model, corrupt(model, row, step, noise), step)[0]
        total += w * float(np.sum((pred - row) ** 2))
    return total / len(x0)


def user_noise(seed: int, stage: int, user: int, width: int) -> np.ndarray:
    return np.random.default_rng([seed ^ int(user), stage]).standard_normal(width)


def chain(model: Model, x0: np.ndarray, cond, mix: float, seed: int, stage: int,
          user: int) -> np.ndarray:
    """Deterministic reverse chain for one user, one step at a time.

    Each step takes the posterior mean with the model's prediction as
    x0; with a condition row, that mean is mixed with the mean the same
    step gives at the clean condition row.
    """
    x = corrupt(model, x0, model.T, user_noise(seed, stage, user, len(x0)))
    for t in range(model.T, 0, -1):
        mean = posterior_mean(model, x, forward(model, x, t)[0], t)
        if cond is not None and mix > 0.0:
            cond_mean = posterior_mean(model, cond, forward(model, cond, t)[0], t)
            mean = (1.0 - mix) * mean + mix * cond_mean
        x = mean
    return x


# ------------------------------------------------ conditions and graphs


def hot_items(train_rows: list, n_items: int, hot_fraction: float) -> set:
    """The ceil(fraction * n) most-trained items, ties to the lower id."""
    counts = [0] * n_items
    for items in train_rows:
        for i in items:
            counts[i] += 1
    ranked = sorted(range(n_items), key=lambda i: (-counts[i], i))
    return set(ranked[: math.ceil(hot_fraction * n_items)])


def social_condition_row(u: int, social: list, train_rows: list, hot: set,
                         delta: float, n_users: int) -> np.ndarray:
    """S[u] plus delta times user u's co-interaction counts over tail items."""
    row = np.zeros(n_users)
    row[sorted(social[u])] = 1.0
    if delta:
        mine = set(train_rows[u]) - hot
        for v in range(n_users):
            shared = len(mine & (set(train_rows[v]) - hot))
            row[v] += delta * shared
    return row


def rebinarize(scores: np.ndarray, keep: int, self_id: int) -> list:
    """The `keep` best-scoring other users, ties to the lower id."""
    others = [v for v in range(len(scores)) if v != self_id]
    others.sort(key=lambda v: (-scores[v], v))
    return sorted(others[:keep])


def item_condition_row(u: int, neighbors: list, train_rows: list, lam: float,
                       n_items: int) -> np.ndarray:
    """R[u] plus lam times 1/count over items the denoised neighbors hold."""
    counts = np.zeros(n_items)
    for v in neighbors:
        counts[list(train_rows[v])] += 1.0
    row = np.zeros(n_items)
    row[list(train_rows[u])] = 1.0
    held = counts > 0
    row[held] += lam * (1.0 / counts[held])
    return row


def user_item_chains(u: int, item: Model, social_model: Model | None, social: list,
                     train_rows: list, n_items: int, hot: set, g: dict, seed: int):
    """Both item chains (A: guided on R[u], B: on the condition row) for
    one user, with the social side run first when lambda > 0.  Returns
    (A, B); B is None when w_r = 0."""
    n_users = len(train_rows)
    r_u = np.zeros(n_items)
    r_u[list(train_rows[u])] = 1.0
    r_cond = r_u
    if g["lambda"] > 0:
        s_u = np.zeros(n_users)
        s_u[sorted(social[u])] = 1.0
        s_cond = social_condition_row(u, social, train_rows, hot, g["delta"], n_users)
        s_bar = chain(social_model, s_u, s_cond, g["eta"], seed, STAGE_SOCIAL, u)
        if g["w_s"] > 0:
            s_b = chain(social_model, s_cond, None, 0.0, seed, STAGE_SOCIAL_COND, u)
            s_bar = (1.0 - g["w_s"]) * s_bar + g["w_s"] * s_b
        neighbors = rebinarize(s_bar, len(social[u]), u)
        r_cond = item_condition_row(u, neighbors, train_rows, g["lambda"], n_items)
    a = chain(item, r_u, r_cond, g["gamma"], seed, STAGE_ITEM, u)
    b = None
    if g["w_r"] > 0:
        b = chain(item, r_cond, None, 0.0, seed, STAGE_ITEM_COND, u)
    return a, b


def blend(a: np.ndarray, b, w: float) -> np.ndarray:
    return a if (w == 0 or b is None) else (1.0 - w) * a + w * b


# ------------------------------------------------------------- ranking


def topk_row(scores: np.ndarray, seen, K: int) -> list:
    """Best K unseen item ids by score, ties to the lower id."""
    seen = set(seen)
    cand = [i for i in range(len(scores)) if i not in seen]
    cand.sort(key=lambda i: (-scores[i], i))
    return cand[:K]


def topk_matrix(scores: np.ndarray, train_rows: list, K: int) -> list:
    """topk_row for every row.  A partition finds each row's K best; a
    row whose K-th best score is shared with an item outside them goes
    through topk_row so the lower-id rule decides."""
    masked = scores.copy()
    for u, items in enumerate(train_rows):
        masked[u, list(items)] = -np.inf
    part = np.argpartition(-masked, K - 1, axis=1)[:, :K]
    out = []
    for u in range(len(masked)):
        ids = part[u]
        vals = masked[u, ids]
        kth = vals.min()
        if np.count_nonzero(masked[u] >= kth) > K or not np.isfinite(kth):
            out.append(topk_row(scores[u], train_rows[u], K))
        else:
            out.append([int(i) for i in ids[np.lexsort((ids, -vals))]])
    return out


# ------------------------------------------------------------- metrics


def recall(lists: dict, test: list, k: int) -> float:
    """Summed hits over summed test-set sizes, users with tests only."""
    hits = relevant = 0
    for u, items in lists.items():
        truth = test[u]
        if truth:
            hits += len(set(items[:k]) & truth)
            relevant += len(truth)
    return hits / relevant


def ndcg(lists: dict, test: list, k: int) -> float:
    values = []
    for u, items in lists.items():
        truth = test[u]
        if not truth:
            continue
        top = items[:k]
        dcg = sum(1.0 / math.log2(r + 2) for r, i in enumerate(top) if i in truth)
        idcg = sum(1.0 / math.log2(r + 2) for r in range(min(len(truth), len(top))))
        values.append(dcg / idcg)
    return sum(values) / len(values)


def frequency(lists: dict, train_rows: list, hot: set, n_items: int) -> dict:
    """Top-K appearance counts: per popularity decile, hot, tail, total."""
    freq = [0] * n_items
    for items in lists.values():
        for i in items:
            freq[i] += 1
    pop = [0] * n_items
    for items in train_rows:
        for i in items:
            pop[i] += 1
    ranked = sorted(range(n_items), key=lambda i: (pop[i], i))
    deciles, start = {}, 0
    for d in range(10):
        size = n_items // 10 + (1 if d < n_items % 10 else 0)
        bucket = ranked[start : start + size]
        start += size
        deciles[str(d + 1)] = sum(freq[i] for i in bucket) / len(bucket) if bucket else 0.0
    tail = [i for i in range(n_items) if i not in hot]
    return {
        "decile_mean_freq": deciles,
        "hot_mean_freq": sum(freq[i] for i in hot) / len(hot),
        "tail_mean_freq": sum(freq[i] for i in tail) / len(tail),
        "total_count": sum(freq),
    }


def report(lists: dict, test: list, train_rows: list, hot: set, n_items: int,
           ks=(5, 10)) -> dict:
    """The figures `eval` writes, recomputed from sets."""
    groups = {"hot": hot, "tail": set(range(n_items)) - hot}
    per_group = {}
    for name, members in groups.items():
        sub = [t & members for t in test]
        if any(sub):
            per_group[name] = {
                "recall": {str(k): recall(lists, sub, k) for k in ks},
                "ndcg": {str(k): ndcg(lists, sub, k) for k in ks},
            }
    return {
        "recall": {str(k): recall(lists, test, k) for k in ks},
        "ndcg": {str(k): ndcg(lists, test, k) for k in ks},
        "per_group": per_group,
        "freq_hist": frequency(lists, train_rows, hot, n_items),
    }


# ----------------------------------------------------------- file input


def read_manifest(path) -> dict:
    """Split manifest -> per-user item sets for every split."""
    with open(path, encoding="utf-8") as fh:
        d = json.load(fh)
    n_users = int(d["n_users"])
    out = {"n_users": n_users, "n_items": int(d["n_items"])}
    for name in ("train", "valid", "test", "debiased_test"):
        rows = [set() for _ in range(n_users)]
        for u, i in d[name]:
            rows[u].add(i)
        out[name] = rows
    return out


def read_lists(path) -> dict:
    """user -> (items, scores) in file order."""
    out: dict = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            u, i, s = line.rstrip("\n").split("\t")
            items, scores = out.setdefault(int(u), ([], []))
            items.append(int(i))
            scores.append(float(s))
    return out


def read_social(path, n_users: int) -> list:
    """Neighbor sets of the symmetrized graph, self-loops dropped."""
    rows = [set() for _ in range(n_users)]
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            a, b = (int(x) for x in line.split("\t"))
            if a != b:
                rows[a].add(b)
                rows[b].add(a)
    return rows
