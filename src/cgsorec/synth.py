"""Synthetic interaction + social datasets with planted popularity bias.

The generator plants three regularities the pipeline is supposed to
exploit: a small universally-popular item set (the popularity bias), a
disjoint niche of long-tail items per user community (the recoverable
tail signal), and a social graph that is mostly intra-community (so a
user's neighbors reveal the niche).  Totals are exact — the requested
interaction and edge counts are hit to the unit, every user and every
item appears at least once — so dataset statistics are stable test
fixtures.

Optionally each community is further divided into friend circles of
``circle_size`` users.  A circle owns a private sliver of deep-tail
items, its members draw most of their noise interactions from that
sliver, and social edges concentrate inside the circle.  This plants
information that only the social graph carries: circle items co-occur
too rarely for item–item structure to pick up, but a neighbor's
endorsement marks them reliably.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

# community_dataset's fixed knobs: each user's share of picks outside its
# niche, the intra-community and mutual shares of social edges, the least
# interactions per user, and each friend circle's item pool, share of the
# noise picks and share of intra-community edges.
NOISE_SHARE = 0.08
HOMOPHILY = 0.9
MUTUAL = 0.8
MIN_DEGREE = 5
CIRCLE_POOL = 8
CIRCLE_SHARE = 0.8
CIRCLE_BIAS = 0.6


@dataclass(frozen=True)
class SyntheticDataset:
    n_users: int
    n_items: int
    interactions: np.ndarray
    social_edges: np.ndarray
    communities: np.ndarray


def _user_counts(
    rng: np.random.Generator, n_users: int, total: int, min_k: int, max_k: int
) -> np.ndarray:
    """Per-user interaction counts: lognormal skew, exact total, bounded."""
    weights = rng.lognormal(0.0, 0.35, size=n_users)
    k = np.clip(np.floor(total * weights / weights.sum()).astype(np.int64), min_k, max_k)
    # Walk the residual to zero one unit at a time over a seeded user cycle.
    diff = total - int(k.sum())
    order = rng.permutation(n_users)
    j = 0
    while diff != 0:
        u = order[j % n_users]
        if diff > 0 and k[u] < max_k:
            k[u] += 1
            diff -= 1
        elif diff < 0 and k[u] > min_k:
            k[u] -= 1
            diff += 1
        j += 1
        if j > 100 * n_users:
            raise ConfigError("interaction total unreachable under degree bounds")
    return k


def community_dataset(
    seed: int,
    n_users: int,
    n_items: int,
    n_interactions: int,
    n_social_edges: int,
    n_communities: int,
    n_hot: int,
    niche_size: int,
    hot_share: float = 0.4,
    hot_decay: float = 0.7,
    circle_size: int | None = None,
) -> SyntheticDataset:
    """Build one planted-bias dataset; see the module docstring for shape.

    Items 0..n_hot-1 are the popular set (with an internal popularity
    decay); the remaining ids are long-tail, the first
    n_communities*niche_size of them split into disjoint community
    niches.  With ``circle_size`` set, communities are chunked into
    friend circles that each own CIRCLE_POOL items past the niche
    range; a CIRCLE_SHARE fraction of noise picks lands there, and a
    CIRCLE_BIAS fraction of intra-community edges stays inside the
    circle.
    """
    if n_hot + n_communities * niche_size > n_items:
        raise ConfigError("niches plus hot set exceed the item catalog")
    if n_interactions < n_users * MIN_DEGREE or n_interactions < n_items:
        raise ConfigError("too few interactions to cover every user and item")
    rng = np.random.default_rng([seed, 0xC0FFEE])

    communities = rng.permutation(
        np.repeat(np.arange(n_communities), -(-n_users // n_communities))[:n_users]
    )
    tail_ids = rng.permutation(np.arange(n_hot, n_items))
    pools = [
        tail_ids[c * niche_size : (c + 1) * niche_size] for c in range(n_communities)
    ]
    circles: list[np.ndarray] | None = None
    circle_of = np.zeros(n_users, dtype=np.int64)
    circle_pools: list[np.ndarray] = []
    if circle_size is not None:
        if circle_size < 2:
            raise ConfigError("circle_size must be at least 2")
        circles = []
        for c in range(n_communities):
            m = np.flatnonzero(communities == c)
            for j in range(0, len(m), circle_size):
                grp = m[j : j + circle_size]
                circle_of[grp] = len(circles)
                circles.append(grp)
        offset = n_communities * niche_size
        if offset + len(circles) * CIRCLE_POOL > len(tail_ids):
            raise ConfigError("circle pools exceed the item catalog")
        circle_pools = [
            tail_ids[offset + g * CIRCLE_POOL : offset + (g + 1) * CIRCLE_POOL]
            for g in range(len(circles))
        ]
    hot_w = 1.0 / (1.0 + np.arange(n_hot)) ** hot_decay
    hot_w /= hot_w.sum()

    max_k = min(n_items, max(2 * n_interactions // n_users, MIN_DEGREE + 1))
    k_user = _user_counts(rng, n_users, n_interactions, MIN_DEGREE, max_k)

    chosen: list[np.ndarray] = []
    for u in range(n_users):
        k = int(k_user[u])
        pool = pools[communities[u]]
        outside = np.setdiff1d(tail_ids, pool, assume_unique=True)
        k_hot = int(np.clip(round(hot_share * k), 1, n_hot))
        k_niche = int(np.clip(k - k_hot - round(NOISE_SHARE * k), 1, len(pool)))
        k_noise = k - k_hot - k_niche
        if k_noise > len(outside):
            spill = k_noise - len(outside)
            k_noise = len(outside)
            bump = min(spill, n_hot - k_hot)
            k_hot += bump
            k_niche += spill - bump
        elif k_noise < 0:
            k_niche += k_noise
            k_noise = 0
            if k_niche < 1:
                k_hot += k_niche - 1
                k_niche = 1
        picks = [rng.choice(n_hot, size=k_hot, replace=False, p=hot_w)]
        picks.append(rng.choice(pool, size=k_niche, replace=False))
        if k_noise > 0:
            if circles is None:
                picks.append(rng.choice(outside, size=k_noise, replace=False))
            else:
                sliver = circle_pools[circle_of[u]]
                k_circ = min(round(CIRCLE_SHARE * k_noise), len(sliver))
                if k_circ:
                    picks.append(rng.choice(sliver, size=k_circ, replace=False))
                if k_noise > k_circ:
                    rest = np.setdiff1d(outside, sliver, assume_unique=True)
                    picks.append(
                        rng.choice(rest, size=k_noise - k_circ, replace=False)
                    )
        chosen.append(np.concatenate(picks))

    # Every item must appear at least once: swap uncovered items in for a
    # well-covered item of some user, keeping totals and row sizes exact.
    counts = np.bincount(np.concatenate(chosen), minlength=n_items)
    donors = rng.permutation(n_users)
    d = 0
    for j in np.flatnonzero(counts == 0):
        for _ in range(n_users):
            u = int(donors[d % n_users])
            d += 1
            row = chosen[u]
            replaceable = row[(counts[row] >= 2)]
            if len(replaceable) and j not in row:
                out = replaceable[np.argmax(counts[replaceable])]
                row[np.flatnonzero(row == out)[0]] = j
                counts[out] -= 1
                counts[j] += 1
                break
        else:
            raise ConfigError(f"could not place item {j} anywhere")
    users_arr = np.concatenate(
        [np.full(len(row), u, dtype=np.int64) for u, row in enumerate(chosen)]
    )
    items_arr = np.concatenate(chosen).astype(np.int64)
    interactions = np.stack([users_arr, items_arr], axis=1)

    # Social edges: seed one mutual intra-community edge per user, then
    # fill with mostly-mutual, mostly-intra-community pairs to the exact
    # target count of directed edges.
    members = [np.flatnonzero(communities == c) for c in range(n_communities)]
    edges: set[tuple[int, int]] = set()
    for u in range(n_users):
        peers = members[communities[u]] if circles is None else circles[circle_of[u]]
        if len(peers) < 2:
            peers = members[communities[u]]
        if len(peers) < 2:
            peers = np.arange(n_users)
        v = int(rng.choice(peers[peers != u]))
        edges.add((u, v))
        edges.add((v, u))
    if len(edges) > n_social_edges:
        raise ConfigError("edge target below the per-user connectivity floor")
    while len(edges) < n_social_edges:
        r = rng.random()
        if circles is not None and r < HOMOPHILY * CIRCLE_BIAS:
            peers = circles[int(rng.integers(len(circles)))]
            if len(peers) < 2:
                continue
            u, v = rng.choice(peers, size=2, replace=False)
        elif r < HOMOPHILY:
            c = int(rng.integers(n_communities))
            peers = members[c]
            if len(peers) < 2:
                continue
            u, v = rng.choice(peers, size=2, replace=False)
        else:
            u, v = rng.choice(n_users, size=2, replace=False)
        u, v = int(u), int(v)
        room = n_social_edges - len(edges)
        if rng.random() < MUTUAL and room >= 2:
            edges.add((u, v))
            edges.add((v, u))
        else:
            if (u, v) not in edges:
                edges.add((u, v))
            elif (v, u) not in edges and room >= 1:
                edges.add((v, u))
    social = np.array(sorted(edges), dtype=np.int64)
    return SyntheticDataset(
        n_users=n_users,
        n_items=n_items,
        interactions=interactions,
        social_edges=social,
        communities=communities,
    )


def lastfm_like(seed: int = 0) -> SyntheticDataset:
    """Stand-in matching the LastFM dataset's summary statistics: 1,853
    users, 2,698 items, 46,542 interactions, 25,435 directed social
    edges.  Niche and share values are tuned so that community structure
    is learnable at this density rather than drowned by the hot set."""
    return community_dataset(
        seed=seed,
        n_users=1853,
        n_items=2698,
        n_interactions=46542,
        n_social_edges=25435,
        n_communities=40,
        n_hot=135,
        niche_size=30,
        hot_share=0.3,
        hot_decay=1.1,
        circle_size=12,
    )


def planted(seed: int = 0, n_users: int = 200, n_items: int = 300) -> SyntheticDataset:
    """Small fixture with a strong planted bias for fast end-to-end runs.

    Internals scale with the requested shape so doubled-user or
    doubled-item variants keep the same planted structure.
    """
    n_hot = max(1, round(0.05 * n_items))
    n_communities = 10
    niche_size = max(4, (n_items - n_hot) // (n_communities + 2))
    return community_dataset(
        seed=seed,
        n_users=n_users,
        n_items=n_items,
        n_interactions=24 * n_users,
        n_social_edges=13 * n_users,
        n_communities=n_communities,
        n_hot=n_hot,
        niche_size=niche_size,
    )


def write_dataset(ds: SyntheticDataset, interactions_path, social_path) -> None:
    """Write the standard tab-separated files the loaders read back."""
    order = np.lexsort((ds.interactions[:, 1], ds.interactions[:, 0]))
    with open(interactions_path, "w", encoding="utf-8") as fh:
        for u, i in ds.interactions[order]:
            fh.write(f"{u}\t{i}\n")
    with open(social_path, "w", encoding="utf-8") as fh:
        for a, b in ds.social_edges:
            fh.write(f"{a}\t{b}\n")
