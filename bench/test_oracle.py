"""The oracle on tiny cases worked out by hand.

    python3 -m pytest bench/test_oracle.py
"""

from __future__ import annotations

import json
import math
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import oracle  # noqa: E402


def constant_model(width: int, value, beta, temb: int = 2) -> oracle.Model:
    """A one-hidden-layer denoiser whose output is `value` for any input."""
    return oracle.Model(
        weights=[np.zeros((width + temb, 1)), np.zeros((1, width))],
        biases=[np.zeros(1), np.asarray(value, dtype=float)],
        temb=temb,
        beta=np.asarray(beta, dtype=float),
    )


def test_embedding():
    assert oracle.embed(0, 4).tolist() == [1.0, 1.0, 0.0, 0.0]
    assert oracle.embed(1, 2).tolist() == [math.cos(1.0), math.sin(1.0)]
    assert oracle.embed(2, 3).tolist() == [math.cos(2.0), math.sin(2.0), 0.0]


def test_forward_tanh_then_linear_head():
    # input [x0, x1, cos t, sin t]; hidden unit reads x0 only.
    model = oracle.Model(
        weights=[np.array([[1.0], [0.0], [0.0], [0.0]]), np.array([[2.0, -1.0]])],
        biases=[np.array([0.0]), np.array([0.0, 1.0])],
        temb=2,
        beta=np.array([0.1]),
    )
    h = math.tanh(0.5)
    assert oracle.forward(model, np.array([0.5, 0.0]), 0).tolist() == [[2 * h, 1 - h]]


def test_posterior_mean_matches_bayes_rule():
    model = constant_model(1, [0.0], [0.1, 0.2])
    x_t, x0 = np.array([0.7]), np.array([1.3])
    # q(x1 | x0) = N(sqrt(0.9) x0, 0.1); q(x2 | x1) = N(sqrt(0.8) x1, 0.2).
    precision = 1 / 0.1 + 0.8 / 0.2
    bayes = (math.sqrt(0.9) * 1.3 / 0.1 + math.sqrt(0.8) * 0.7 / 0.2) / precision
    assert oracle.posterior_mean(model, x_t, x0, 2)[0] == pytest.approx(bayes, rel=1e-12)
    # At t = 1 the posterior collapses onto x0.
    assert oracle.posterior_mean(model, x_t, x0, 1)[0] == pytest.approx(1.3, rel=1e-12)


def test_chain_ends_on_the_models_prediction():
    # The last step's mean is the prediction itself, with or without a
    # condition, so a constant model ends every chain on its constant.
    model = constant_model(3, [0.25, -1.0, 2.0], [0.1, 0.2, 0.3])
    x0 = np.array([1.0, 0.0, 1.0])
    want = pytest.approx([0.25, -1.0, 2.0], rel=1e-15)
    assert oracle.chain(model, x0, None, 0.0, 5, 2, 7).tolist() == want
    cond = np.array([3.0, 3.0, 3.0])
    assert oracle.chain(model, x0, cond, 0.5, 5, 2, 7).tolist() == want


def test_noise_stream_keyed_by_seed_xor_user():
    a = oracle.user_noise(5, 2, 3, 4)
    assert a.tolist() == oracle.user_noise(6, 2, 0, 4).tolist()  # 5 ^ 3 == 6 ^ 0
    assert a.tolist() != oracle.user_noise(5, 3, 3, 4).tolist()


def test_weighted_loss_of_zero_model_at_t1():
    model = constant_model(2, [0.0, 0.0], [0.1])
    x0 = np.array([[1.0, 0.0], [1.0, 1.0]])
    loss = oracle.weighted_loss(model, x0, np.array([1, 1]), np.zeros_like(x0))
    assert loss == pytest.approx(1.5)  # (1 + 2) / 2, weight 1 at t = 1


def test_hot_items_ties_to_lower_id():
    assert oracle.hot_items([{0, 1}, {1}, {1, 2}], 3, 0.34) == {0, 1}


def test_social_condition_row():
    # Item 0 is hot; user 0 shares tail item 1 with itself and user 1.
    row = oracle.social_condition_row(0, [{1}, {0}, set()], [{0, 1}, {1, 2}, {0, 2}],
                                      {0}, 1.0, 3)
    assert row.tolist() == [1.0, 2.0, 0.0]


def test_rebinarize_keeps_degree_best_and_skips_self():
    assert oracle.rebinarize(np.array([0.5, 0.9, 0.9, 0.1]), 2, 1) == [0, 2]
    assert oracle.rebinarize(np.array([0.3, 0.3, 0.3]), 1, 0) == [1]


def test_item_condition_row_inverts_neighbor_counts():
    row = oracle.item_condition_row(0, [1, 2], [{0}, {0, 1}, {1, 2}], 2.0, 3)
    assert row.tolist() == [3.0, 1.0, 2.0]  # [1,0,0] + 2 * [1/1, 1/2, 1/1]


def test_topk_lower_id_wins_ties():
    assert oracle.topk_row(np.array([0.2, 0.5, 0.5, 0.9]), {3}, 2) == [1, 2]
    scores = np.array([[0.2, 0.5, 0.5, 0.9], [0.5, 0.5, 0.5, 0.1], [0.1, 0.4, 0.3, 0.2]])
    train = [{3}, set(), {1}]
    assert oracle.topk_matrix(scores, train, 2) == [[1, 2], [0, 1], [2, 3]]


def test_recall_and_ndcg():
    lists = {0: [1, 2, 3], 1: [4, 5, 6], 2: [7, 8, 9]}
    test = [{2, 9}, set(), {7}]
    assert oracle.recall(lists, test, 3) == 2 / 3
    assert oracle.recall(lists, test, 1) == 1 / 3
    user0 = (1 / math.log2(3)) / (1 + 1 / math.log2(3))
    assert oracle.ndcg(lists, test, 3) == pytest.approx((user0 + 1.0) / 2, rel=1e-15)


def test_frequency_histogram():
    hist = oracle.frequency({0: [0, 1], 1: [0, 2]}, [{0}, {0, 1}], {0}, 3)
    # Popularity 2, 1, 0: deciles run least popular first, one item each.
    assert hist["decile_mean_freq"] == {"1": 1.0, "2": 1.0, "3": 2.0, "4": 0.0, "5": 0.0,
                                        "6": 0.0, "7": 0.0, "8": 0.0, "9": 0.0, "10": 0.0}
    assert (hist["hot_mean_freq"], hist["tail_mean_freq"], hist["total_count"]) == (2.0, 1.0, 4)


def test_report_omits_a_group_without_tests():
    rep = oracle.report({0: [1, 2], 1: [2, 0]}, [{1}, {2}], [{0}, {0}], {0}, 3, ks=(1, 2))
    assert set(rep["per_group"]) == {"tail"}
    assert rep["recall"] == {"1": 1.0, "2": 1.0}
    assert rep["per_group"]["tail"]["ndcg"]["1"] == 1.0


def test_file_readers(tmp_path):
    (tmp_path / "s.tsv").write_text("0\t1\n2\t2\n1\t2\n")
    assert oracle.read_social(tmp_path / "s.tsv", 3) == [{1}, {0, 2}, {1}]
    (tmp_path / "l.tsv").write_text("0\t5\t0.5\n0\t3\t0.25\n1\t4\t1.0\n")
    assert oracle.read_lists(tmp_path / "l.tsv") == {0: ([5, 3], [0.5, 0.25]), 1: ([4], [1.0])}
    split = {"n_users": 2, "n_items": 3, "train": [[0, 1], [1, 2]], "valid": [],
             "test": [[0, 2]], "debiased_test": [[0, 2]]}
    (tmp_path / "splits.json").write_text(json.dumps(split))
    m = oracle.read_manifest(tmp_path / "splits.json")
    assert (m["train"], m["test"], m["valid"]) == ([{1}, {2}], [{2}, set()], [set(), set()])

    ck = tmp_path / "ck"
    ck.mkdir()
    shapes = [[3, 2], [2], [2, 1], [1]]
    (ck / "manifest.json").write_text(json.dumps({
        "tensor_shapes": shapes, "time_embed_dim": 2,
        "schedule": {"T": 3, "beta_start": 0.1, "beta_end": 0.3}}))
    np.arange(11, dtype="<f8").tofile(ck / "params.bin")
    model = oracle.read_checkpoint(ck)
    assert model.weights[1].tolist() == [[8.0], [9.0]] and model.biases[0].tolist() == [6.0, 7.0]
    assert model.beta.tolist() == pytest.approx([0.1, 0.2, 0.3])
