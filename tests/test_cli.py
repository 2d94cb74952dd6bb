"""End-to-end command tests, all in-process through main(argv)."""

import json
import os
import re
import shutil

import numpy as np
import pytest

from cgsorec import cli, pipeline
from cgsorec.cli import main
from cgsorec.config import load_config
from cgsorec.corpus import partition_items
from cgsorec.synth import community_dataset, planted, write_dataset
from cgsorec.trainer import save_checkpoint

from conftest import untrained_checkpoint


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def stdout_table(out):
    rows = {}
    for line in out.strip().splitlines():
        key, _, value = line.partition("\t")
        rows[key] = value
    return rows


def nan_planted_checkpoint(tmp_path):
    """Config path of a 1-epoch `planted` run whose CGD params.bin[0] is NaN."""
    write_dataset(planted(seed=0), tmp_path / "r.tsv", tmp_path / "s.tsv")
    cfg = {
        "seed": 1,
        "output_dir": str(tmp_path / "run"),
        "dataset": {
            "interactions": str(tmp_path / "r.tsv"),
            "social": str(tmp_path / "s.tsv"),
        },
        "cgd": {
            "T": 3, "hidden_dims": [16], "time_embed_dim": 8,
            "learning_rate": 1e-3, "epochs": 1, "batch_size": 64,
        },
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["prepare", str(cfg_path)]) == 0
    assert main(["train", str(cfg_path), "--model", "cgd"]) == 0
    blob = tmp_path / "run" / "ckpt-cgd" / "params.bin"
    params = np.fromfile(blob, dtype="<f8")
    params[0] = np.nan
    params.tofile(blob)
    return cfg_path


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_divergent_training_exits_4_without_checkpoint(tmp_path, capsys):
    # the step checks the loss before Adam touches the weights, so the
    # second batch of an exploding run stops the command, and no
    # checkpoint is written
    write_dataset(planted(seed=0), tmp_path / "r.tsv", tmp_path / "s.tsv")
    cfg = {
        "seed": 1,
        "output_dir": str(tmp_path / "run"),
        "dataset": {"interactions": str(tmp_path / "r.tsv")},
        "cgd": {
            "T": 3, "hidden_dims": [16], "time_embed_dim": 8,
            "learning_rate": 1e-3, "epochs": 1, "batch_size": 64,
        },
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["prepare", str(cfg_path)]) == 0
    code, _, err = run(
        capsys, "train", str(cfg_path), "--model", "cgd",
        "--set", "cgd.learning_rate=1e200",
    )
    assert code == 4
    assert "CGD epoch 1 batch 2: non-finite training loss" in err
    assert not (tmp_path / "run" / "ckpt-cgd").exists()


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """Workspace with a small dataset, config, and both trained checkpoints."""
    root = tmp_path_factory.mktemp("cliws")
    ds = community_dataset(
        seed=5, n_users=40, n_items=60, n_interactions=480,
        n_social_edges=240, n_communities=4, n_hot=6, niche_size=12,
    )
    write_dataset(ds, root / "interactions.tsv", root / "social.tsv")
    model = {
        "T": 3, "hidden_dims": [16], "time_embed_dim": 8,
        "learning_rate": 1e-3, "epochs": 2, "batch_size": 32,
        "patience": 3, "valid_every": 1,
    }
    cfg = {
        "seed": 7,
        "output_dir": str(root / "run"),
        "dataset": {
            "interactions": str(root / "interactions.tsv"),
            "social": str(root / "social.tsv"),
        },
        "cgd": model,
        "csd": dict(model),
    }
    cfg_path = root / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["prepare", str(cfg_path)]) == 0
    assert main(["train", str(cfg_path), "--model", "cgd"]) == 0
    assert main(["train", str(cfg_path), "--model", "csd"]) == 0
    return {"root": root, "cfg": str(cfg_path), "out": root / "run"}


class TestPrepare:
    def test_stats_and_manifest(self, ws, capsys):
        manifest = ws["out"] / "splits.json"
        before = manifest.read_bytes()
        code, out, _ = run(capsys, "prepare", ws["cfg"])
        assert code == 0
        rows = stdout_table(out)
        assert rows["users"] == "40"
        assert rows["items"] == "60"
        assert rows["interactions"] == "480"
        assert rows["connections"] == "240"
        parts = int(rows["train"]) + int(rows["valid"]) + int(rows["test"])
        assert parts == 480
        assert int(rows["debiased_test"]) <= int(rows["test"])
        assert int(rows["debiased_cap"]) >= 1
        # rerun rewrote the identical manifest
        assert manifest.read_bytes() == before

    def test_missing_social_named(self, ws, tmp_path, capsys):
        cfg = json.loads((ws["root"] / "config.json").read_text())
        cfg["dataset"]["social"] = str(tmp_path / "nope.tsv")
        bad = tmp_path / "cfg.json"
        bad.write_text(json.dumps(cfg))
        code, _, err = run(capsys, "prepare", str(bad))
        assert code == 2
        assert "dataset.social" in err

    def test_removed_stochastic_key_exits_2(self, ws, tmp_path, capsys):
        cfg = json.loads((ws["root"] / "config.json").read_text())
        cfg["guidance"] = {"stochastic": False}
        old = tmp_path / "cfg.json"
        old.write_text(json.dumps(cfg))
        code, _, err = run(capsys, "prepare", str(old))
        assert code == 2
        assert "unknown config key 'guidance.stochastic'" in err

    @pytest.mark.parametrize("section, key", [("dataset", "symmetrize_social"), ("eval", "recall_per_user")])
    def test_removed_knob_exits_2(self, ws, tmp_path, capsys, section, key):
        cfg = json.loads((ws["root"] / "config.json").read_text())
        cfg.setdefault(section, {})[key] = True
        old = tmp_path / "cfg.json"
        old.write_text(json.dumps(cfg))
        code, _, err = run(capsys, "prepare", str(old))
        assert code == 2
        assert f"unknown config key '{section}.{key}'" in err

    @pytest.mark.parametrize("which", ["interactions", "social"])
    def test_line_that_is_not_utf8_exits_3(self, tmp_path, capsys, which):
        files = {name: tmp_path / f"{name}.tsv" for name in ("interactions", "social")}
        write_dataset(planted(seed=0), files["interactions"], files["social"])
        lines = files[which].read_bytes().split(b"\n")
        lines[1] = b"\xff" + lines[1]
        files[which].write_bytes(b"\n".join(lines))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "output_dir": str(tmp_path / "run"),
            "dataset": {name: str(path) for name, path in files.items()},
        }))
        code, _, err = run(capsys, "prepare", str(cfg))
        assert code == 3
        assert f"{which}.tsv: line 2 is not user<TAB>" in err
        assert ": '\\\\xff" in err  # the bad byte, escaped

    @pytest.mark.parametrize(
        "old, new", [("\t", "\t+"), ("\t", "\t "), ("\t", "\t7_"), ("\t", "\t\u0663"), ("\n", "\t1\n")]
    )
    def test_line_outside_the_grammar_exits_3(self, tmp_path, capsys, old, new):
        files = {name: tmp_path / f"{name}.tsv" for name in ("interactions", "social")}
        write_dataset(planted(seed=0), files["interactions"], files["social"])
        lines = files["interactions"].read_text().splitlines(keepends=True)
        lines[2] = lines[2].replace(old, new, 1)
        files["interactions"].write_text("".join(lines))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "output_dir": str(tmp_path / "run"),
            "dataset": {name: str(path) for name, path in files.items()},
        }))
        code, _, err = run(capsys, "prepare", str(cfg))
        assert code == 3
        shown = repr(lines[2].removesuffix("\n"))
        assert f"interactions.tsv: line 3 is not user<TAB>item[<TAB>rating]: {shown}" in err

    def test_invalid_json_config(self, tmp_path, capsys):
        bad = tmp_path / "broken.json"
        bad.write_text("{oops")
        code, _, err = run(capsys, "prepare", str(bad))
        assert code == 2
        assert "config error" in err

    def test_unknown_override_key(self, ws, capsys):
        code, _, err = run(capsys, "prepare", ws["cfg"], "--set", "train.epochs=3")
        assert code == 2
        assert "unknown config key" in err

    @pytest.mark.parametrize(
        "assignment, shown",
        [
            ("guidance.gamma=abc", "'abc'"),
            ("cgd.epochs=abc", "'abc'"),
            ("eval.ks=abc", "'abc'"),
            ("split.ratios=5", ": 5"),
            ("cgd.epochs=2.5", ": 2.5"),
            ("eval.ks=[2.5]", ": [2.5]"),
            ("guidance.T_inf=true", ": True"),
            ("guidance.social_keep=2.7", ": 2.7"),
            ("split.debiased_cap=x", ": 'x'"),
            ("split.debiased_cap=[3]", ": [3]"),
            ("split.debiased_cap=2.5", ": 2.5"),
            ("split.debiased_cap=true", ": True"),
            ("guidance.w_s=true", ": True"),
            ('guidance.eta="0.5"', ": '0.5'"),
            ("cgd.learning_rate=true", ": True"),
            ("csd.beta_end=false", ": False"),
            ("split.ratios=[true,0,0]", ": [True, 0, 0]"),
            ('eval.hot_fraction="0.3"', ": '0.3'"),
            ("csd_valid_fraction=true", ": True"),
            ("guidance.lambda=NaN", ": nan"),
            ("cgd.learning_rate=Infinity", ": inf"),
        ],
    )
    def test_wrong_type_is_config_error(self, ws, capsys, assignment, shown):
        code, _, err = run(capsys, "prepare", ws["cfg"], "--set", assignment)
        assert code == 2
        key = assignment.partition("=")[0]
        assert err.startswith(f"config error: {key} has the wrong type")
        assert shown in err


class TestTrain:
    def test_checkpoints_written(self, ws):
        for kind in ("cgd", "csd"):
            d = ws["out"] / f"ckpt-{kind}"
            assert (d / "manifest.json").exists()
            assert any(p.suffix == ".bin" for p in d.iterdir())

    def test_train_stdout_contract(self, ws, capsys):
        code, out, _ = run(
            capsys, "train", ws["cfg"], "--model", "cgd",
            "--ckpt-dir", str(ws["root"] / "ckpt-extra"),
        )
        assert code == 0
        rows = stdout_table(out)
        assert rows["model"] == "cgd"
        assert int(rows["best_epoch"]) >= 1
        assert 0.0 <= float(rows["valid_recall@10"]) <= 1.0

    def test_resume_continues_epochs(self, ws, capsys):
        code, out, _ = run(
            capsys, "train", ws["cfg"], "--model", "cgd", "--resume",
            "--set", "cgd.epochs=3",
        )
        assert code == 0
        assert "resuming from epoch" in out

    def test_csd_needs_social(self, ws, tmp_path, capsys):
        cfg = json.loads((ws["root"] / "config.json").read_text())
        cfg["dataset"]["social"] = None
        cfg["output_dir"] = str(tmp_path / "run")
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code, _, err = run(capsys, "train", str(path), "--model", "csd")
        assert code == 3
        assert "social" in err

    def test_lr_zero_is_config_error(self, ws, capsys):
        code, _, err = run(
            capsys, "train", ws["cfg"], "--model", "cgd",
            "--set", "cgd.learning_rate=0",
        )
        assert code == 2

    def test_resume_of_another_model_exits_2(self, tmp_path, capsys):
        # a config that describes another model than the checkpoint holds
        # is refused before any epoch runs, and the checkpoint stays as it was
        write_dataset(planted(seed=0), tmp_path / "r.tsv", tmp_path / "s.tsv")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "seed": 1,
            "output_dir": str(tmp_path / "run"),
            "dataset": {"interactions": str(tmp_path / "r.tsv")},
            "cgd": {"T": 5, "hidden_dims": [8], "time_embed_dim": 4, "epochs": 1, "batch_size": 64},
        }))
        assert main(["prepare", str(cfg_path)]) == 0
        assert main(["train", str(cfg_path), "--model", "cgd"]) == 0
        ckpt = tmp_path / "run" / "ckpt-cgd"
        before = {f: (ckpt / f).read_bytes() for f in ("manifest.json", "params.bin")}
        capsys.readouterr()
        code, out, err = run(
            capsys, "train", str(cfg_path), "--model", "cgd", "--resume",
            "--set", "cgd.hidden_dims=[16]", "--set", "cgd.time_embed_dim=6",
            "--set", "cgd.T=10", "--set", "cgd.epochs=2",
        )
        assert code == 2
        assert "resuming from epoch 1" in out and "best_epoch" not in out
        assert "layer_dims [300, 8, 300] != [300, 16, 300]" in err
        assert "time_embed_dim 4 != 6" in err and "schedule.T 5 != 10" in err
        assert {f: (ckpt / f).read_bytes() for f in before} == before

    @pytest.mark.parametrize(
        "setting, shown",
        [
            ("cgd.learning_rate=0.5", r"config\.learning_rate 0\.0005 != 0\.5$"),
            ("seed=7", r"config\.seed [0-9]+ != [0-9]+$"),
            ("cgd.batch_size=32", r"config\.batch_size 64 != 32$"),
        ],
    )
    def test_resume_under_another_training_config_exits_2(self, tmp_path, capsys, setting, shown):
        # only cgd.epochs may change on resume: the saved checkpoint's
        # config must describe the whole run
        write_dataset(planted(seed=0), tmp_path / "r.tsv", tmp_path / "s.tsv")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "seed": 1,
            "output_dir": str(tmp_path / "run"),
            "dataset": {"interactions": str(tmp_path / "r.tsv")},
            "cgd": {"T": 5, "hidden_dims": [16], "epochs": 2, "batch_size": 64},
        }))
        assert main(["prepare", str(cfg_path)]) == 0
        assert main(["train", str(cfg_path), "--model", "cgd"]) == 0
        ckpt = tmp_path / "run" / "ckpt-cgd"
        before = {f: (ckpt / f).read_bytes() for f in ("manifest.json", "params.bin")}
        capsys.readouterr()
        code, out, err = run(
            capsys, "train", str(cfg_path), "--model", "cgd", "--resume",
            "--set", "cgd.epochs=3", "--set", setting,
        )
        assert code == 2
        assert "best_epoch" not in out
        assert re.search(shown, err.strip()), err
        assert {f: (ckpt / f).read_bytes() for f in before} == before

    def test_nan_checkpoint_resume_exits_4(self, tmp_path, capsys):
        # a checkpoint holding NaN is refused at load, before any epoch runs
        cfg_path = nan_planted_checkpoint(tmp_path)
        code, _, err = run(capsys, "train", str(cfg_path), "--model", "cgd", "--resume")
        assert code == 4
        assert "weights[0]" in err


class TestInfer:
    def test_lists_format(self, ws, capsys):
        out_path = ws["root"] / "lists5.tsv"
        code, out, _ = run(
            capsys, "infer", ws["cfg"], "--top", "5", "--out", str(out_path)
        )
        assert code == 0
        rows = stdout_table(out)
        assert rows["users"] == "40"
        assert rows["top_k"] == "5"
        lines = out_path.read_text().strip().splitlines()
        assert len(lines) == 40 * 5
        seen_users = []
        for line in lines:
            u, item, score = line.split("\t")
            int(u), int(item), float(score)
            if not seen_users or seen_users[-1] != int(u):
                seen_users.append(int(u))
        # one contiguous block per user, ascending
        assert seen_users == list(range(40))
        # rank order within each block: scores never increase
        by_user = {}
        for line in lines:
            u, _, score = line.split("\t")
            by_user.setdefault(int(u), []).append(float(score))
        for scores in by_user.values():
            assert all(a >= b for a, b in zip(scores, scores[1:]))

    def test_rerun_byte_identical(self, ws, capsys):
        a = ws["root"] / "lists_a.tsv"
        b = ws["root"] / "lists_b.tsv"
        assert run(capsys, "infer", ws["cfg"], "--out", str(a))[0] == 0
        assert run(capsys, "infer", ws["cfg"], "--out", str(b))[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_zero_guidance_ignores_social_checkpoint(self, ws, capsys):
        # all mixing coefficients are zero, so dropping the social model
        # entirely must not change a single byte
        with_social = ws["root"] / "with_social.tsv"
        without = ws["root"] / "without_social.tsv"
        assert run(capsys, "infer", ws["cfg"], "--out", str(with_social))[0] == 0
        code, _, _ = run(
            capsys, "infer", ws["cfg"], "--out", str(without),
            "--ckpt-csd", str(ws["root"] / "no-such-dir"),
        )
        assert code == 0
        assert with_social.read_bytes() == without.read_bytes()

    def test_unguided_run_reads_no_social_input(self, ws, tmp_path, capsys):
        # at lambda = 0 joint_chains never reads the social side, so infer
        # and sweep load neither the social file nor the CSD checkpoint;
        # with lambda > 0, or a grid holding one, both are read again
        broken = tmp_path / "ckpt-csd"
        broken.mkdir()
        (broken / "manifest.json").write_text("{not json")
        social = tmp_path / "social.tsv"
        social.write_text("not\ta social file\n")
        bad = ["--ckpt-csd", str(broken), "--set", f"dataset.social={social}"]
        base, got = tmp_path / "base.tsv", tmp_path / "got.tsv"
        assert run(capsys, "infer", ws["cfg"], "--out", str(base))[0] == 0
        code, _, err = run(capsys, "infer", ws["cfg"], "--out", str(got), *bad)
        assert code == 0, err
        assert got.read_bytes() == base.read_bytes()
        sweep = ["sweep", ws["cfg"], "--out-dir", str(tmp_path / "sweep"), *bad]
        code, _, err = run(capsys, *sweep, "--param", "guidance.w_r", "--values", "0,0.3")
        assert code == 0, err
        for guided in (
            ["infer", ws["cfg"], "--out", str(got), *bad, "--set", "guidance.lambda=1"],
            [*sweep, "--param", "guidance.lambda", "--values", "0,1"],
        ):
            code, _, err = run(capsys, *guided)
            assert code == 3 and "social.tsv" in err, err

    @pytest.mark.parametrize("top", ["0", "-2"])
    def test_top_below_one_exits_2_before_loading(self, ws, capsys, monkeypatch, top):
        def refuse(cfg):
            raise AssertionError("infer loaded data before checking --top")

        monkeypatch.setattr(pipeline, "load_dataset", refuse)
        monkeypatch.setattr(pipeline, "load_interaction_data", refuse)
        out_path = ws["root"] / f"lists_top{top}.tsv"
        code, _, err = run(capsys, "infer", ws["cfg"], "--top", top, "--out", str(out_path))
        assert code == 2
        assert f"--top must be at least 1, got {top}" in err
        assert not out_path.exists()

    def test_checkpoint_missing_a_field_exits_3(self, ws, tmp_path, capsys):
        ckpt = tmp_path / "ckpt-cgd"
        shutil.copytree(ws["out"] / "ckpt-cgd", ckpt)
        manifest = json.loads((ckpt / "manifest.json").read_text())
        del manifest["epoch"]
        (ckpt / "manifest.json").write_text(json.dumps(manifest))
        out = tmp_path / "lists.tsv"
        code, _, err = run(capsys, "infer", ws["cfg"], "--ckpt-cgd", str(ckpt), "--out", str(out))
        assert code == 3
        assert "data error" in err and "epoch" in err
        assert not out.exists()

    def test_nan_checkpoint_exits_4(self, tmp_path, capsys):
        # one NaN weight makes every score NaN; infer must stop, not rank
        # the masked train items first at -inf
        write_dataset(planted(seed=0), tmp_path / "r.tsv", tmp_path / "s.tsv")
        cfg = {
            "seed": 1,
            "output_dir": str(tmp_path / "run"),
            "dataset": {
                "interactions": str(tmp_path / "r.tsv"),
                "social": str(tmp_path / "s.tsv"),
            },
            "cgd": {
                "T": 3, "hidden_dims": [16], "time_embed_dim": 8,
                "learning_rate": 1e-3, "epochs": 1, "batch_size": 64,
            },
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["prepare", str(cfg_path)]) == 0
        assert main(["train", str(cfg_path), "--model", "cgd"]) == 0
        blob = tmp_path / "run" / "ckpt-cgd" / "params.bin"
        params = np.fromfile(blob, dtype="<f8")
        params[0] = np.nan
        params.tofile(blob)
        out = tmp_path / "lists.tsv"
        code, _, err = run(capsys, "infer", str(cfg_path), "--out", str(out))
        assert code == 4
        assert "item chain" in err and "user 0" in err
        assert not out.exists()


class TestGoldenFixtureThroughCli:
    def test_five_user_run_matches_library_path(self, tmp_path, capsys):
        R_rows = [
            [0, 2, 5], [0, 1, 4], [1, 2, 6], [0, 3, 7], [1, 4, 5],
        ]
        edges = [(0, 1), (1, 0), (1, 2), (2, 1), (2, 3), (3, 2),
                 (3, 4), (4, 3), (4, 0), (0, 4)]
        with open(tmp_path / "r.tsv", "w") as fh:
            for u, items in enumerate(R_rows):
                for i in items:
                    fh.write(f"{u}\t{i}\n")
        with open(tmp_path / "s.tsv", "w") as fh:
            for a, b in edges:
                fh.write(f"{a}\t{b}\n")
        cfg = {
            "seed": 3,
            "output_dir": str(tmp_path / "run"),
            "dataset": {
                "interactions": str(tmp_path / "r.tsv"),
                "social": str(tmp_path / "s.tsv"),
                "n_users": 5,
                "n_items": 8,
            },
            "guidance": {
                "eta": 0.3, "gamma": 0.4, "w_s": 0.25, "w_r": 0.5,
                "delta": 0.5, "lambda": 1.0, "T_inf": 2,
            },
            "eval": {"ks": [2, 3]},
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        d_item = tmp_path / "ck-item"
        d_social = tmp_path / "ck-social"
        save_checkpoint(untrained_checkpoint(8, T=3, seed=21), d_item)
        save_checkpoint(untrained_checkpoint(5, T=3, seed=22, tag="CSD"), d_social)

        assert main(["prepare", str(cfg_path)]) == 0
        out = tmp_path / "lists.tsv"
        code, _, _ = run(
            capsys, "infer", str(cfg_path), "--ckpt-cgd", str(d_item),
            "--ckpt-csd", str(d_social), "--out", str(out), "--top", "3",
        )
        assert code == 0

        # identical run through the library API
        cfg_obj = load_config(cfg_path)
        R, S = pipeline.load_dataset(cfg_obj)
        bundle = pipeline.ensure_bundle(cfg_obj, R)
        ckpt_social = untrained_checkpoint(5, T=3, seed=22, tag="CSD")
        ckpt_item = untrained_checkpoint(8, T=3, seed=21)
        lists = pipeline.joint_lists(cfg_obj, ckpt_social, ckpt_item, S, bundle, 3)
        expected = tmp_path / "expected.tsv"
        pipeline.write_lists(lists, expected)
        assert out.read_bytes() == expected.read_bytes()


def test_social_keep_changes_guided_lists(tmp_path, capsys):
    """guidance.social_keep reaches the lists through the item condition
    (lambda > 0), and a negative value is a config error."""
    write_dataset(planted(seed=0), tmp_path / "r.tsv", tmp_path / "s.tsv")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "seed": 1,
        "output_dir": str(tmp_path / "run"),
        "dataset": {"interactions": str(tmp_path / "r.tsv"), "social": str(tmp_path / "s.tsv")},
        "guidance": {"delta": 1.0, "eta": 0.2, "w_s": 0.5, "lambda": 2.0, "gamma": 0.5, "w_r": 0.2},
    }))
    ds = planted(seed=0)
    save_checkpoint(untrained_checkpoint(ds.n_items, T=3, seed=21), tmp_path / "ck-item")
    save_checkpoint(untrained_checkpoint(ds.n_users, T=3, seed=22, tag="CSD"), tmp_path / "ck-social")
    assert main(["prepare", str(cfg)]) == 0

    def infer(*overrides):
        out = tmp_path / f"lists{len(overrides)}.tsv"
        code, _, err = run(
            capsys, "infer", str(cfg), "--ckpt-cgd", str(tmp_path / "ck-item"),
            "--ckpt-csd", str(tmp_path / "ck-social"), "--out", str(out), *overrides,
        )
        return code, err, out

    default, keep_one = infer()[2], infer("--set", "guidance.social_keep=1")[2]
    assert default.read_bytes() != keep_one.read_bytes()
    code, err, _ = infer("--set", "guidance.social_keep=-1")
    assert code == 2
    assert "social_keep must be >= 0, got -1" in err


class TestEval:
    @pytest.fixture()
    def lists_path(self, ws, capsys):
        path = ws["root"] / "eval_lists.tsv"
        if not path.exists():
            assert run(capsys, "infer", ws["cfg"], "--out", str(path))[0] == 0
        return path

    def test_eval_writes_reports(self, ws, lists_path, capsys):
        out = ws["root"] / "report.json"
        code, stdout, _ = run(
            capsys, "eval", ws["cfg"], "--lists", str(lists_path),
            "--out", str(out),
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert set(payload["recall"]) == {"5", "10"}
        assert set(payload["ndcg"]) == {"5", "10"}
        assert "freq_hist" in payload
        assert "recall@5" in stdout and "ndcg@10" in stdout
        tsv = (str(out) + ".freq.tsv")
        lines = open(tsv).read().splitlines()
        assert lines[0] == "bucket\tmean_freq"
        assert len(lines) == 1 + 10 + 3  # header, deciles, hot/tail/total

    def test_eval_rerun_identical(self, ws, lists_path, capsys):
        a = ws["root"] / "rep_a.json"
        b = ws["root"] / "rep_b.json"
        for p in (a, b):
            assert run(
                capsys, "eval", ws["cfg"], "--lists", str(lists_path),
                "--out", str(p),
            )[0] == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("command", ["eval", "bias-report"])
    def test_fraction_leaving_no_tail_item_exits_2(self, ws, lists_path, tmp_path, capsys, command):
        # ceil(0.99 * 60) = 60: with no tail item the tail mean would be NaN
        out = tmp_path / "out.json"
        code, _, err = run(
            capsys, command, ws["cfg"], "--lists", str(lists_path), "--out", str(out),
            "--set", "eval.hot_fraction=0.99",
        )
        assert code == 2
        assert "eval.hot_fraction=0.99 makes all 60 items hot" in err
        assert not out.exists()

    def test_missing_lists_is_data_error(self, ws, capsys):
        code, _, err = run(
            capsys, "eval", ws["cfg"], "--lists", str(ws["root"] / "ghost.tsv")
        )
        assert code == 3
        assert "data error" in err

    def test_malformed_lists_is_data_error(self, ws, tmp_path, capsys):
        bad = tmp_path / "bad.tsv"
        bad.write_text("0\tnotanumber\t1.0\n")
        code, _, err = run(capsys, "eval", ws["cfg"], "--lists", str(bad))
        assert code == 3


@pytest.fixture(scope="module")
def planted_ws(tmp_path_factory):
    """A prepared `planted` dataset evaluated on its plain test split."""
    root = tmp_path_factory.mktemp("plantedws")
    write_dataset(planted(seed=0), root / "r.tsv", root / "s.tsv")
    cfg = {
        "seed": 1,
        "output_dir": str(root / "run"),
        "dataset": {"interactions": str(root / "r.tsv"), "social": str(root / "s.tsv")},
        "eval": {"split": "test"},
    }
    cfg_path = root / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["prepare", str(cfg_path)]) == 0
    return root, str(cfg_path)


class TestListsChecks:
    """eval and bias-report on hand-written lists files (K = 10)."""

    def run_on(self, capsys, planted_ws, command, rows):
        root, cfg = planted_ws
        path = root / f"{command}.tsv"
        path.write_text("".join(f"{u}\t{i}\t0.0\n" for u, items in rows for i in items))
        return run(capsys, command, cfg, "--lists", str(path), "--out", str(root / "out.json"))

    def test_group_the_listed_users_never_touch(self, planted_ws, capsys):
        root, cfg_path = planted_ws
        cfg = load_config(cfg_path)
        bundle = pipeline.ensure_bundle(cfg, pipeline.load_dataset(cfg)[0])
        hot = partition_items(bundle.train, cfg["eval.hot_fraction"])
        test = bundle.test.matrix
        tail_only = [
            u for u in range(test.shape[0])
            if test[u].nnz and not hot[test[u].indices].any()
        ][:2]
        assert len(tail_only) == 2 and test[:, hot].nnz > 0
        rows = [(u, range(10)) for u in tail_only]
        for command in ("eval", "bias-report"):
            code, out, err = self.run_on(capsys, planted_ws, command, rows)
            assert code == 0, err
            assert "group 'hot' has no test interactions" in out
            per_group = json.loads((root / "out.json").read_text())["per_group"]
            assert list(per_group) == ["tail"]

    def test_user_beyond_n_users(self, planted_ws, capsys):
        code, _, err = self.run_on(capsys, planted_ws, "eval", [(0, range(10)), (5000, range(10))])
        assert code == 3
        assert "user 5000: user id outside" in err

    def test_negative_user(self, planted_ws, capsys):
        code, _, err = self.run_on(capsys, planted_ws, "eval", [(-1, range(10)), (0, range(10))])
        assert code == 3
        assert "user -1: user id outside" in err

    def test_item_beyond_n_items(self, planted_ws, capsys):
        code, _, err = self.run_on(
            capsys, planted_ws, "bias-report", [(0, range(10)), (1, range(295, 305))]
        )
        assert code == 3
        assert "user 1: item id outside 0..299" in err

    def test_negative_item(self, planted_ws, capsys):
        code, _, err = self.run_on(capsys, planted_ws, "bias-report", [(0, range(-1, 9))])
        assert code == 3
        assert "user 0: item id outside" in err


class TestListsFileErrors:
    """A lists file is checked when it is read, whatever eval.ks is."""

    def run_on(self, capsys, planted_ws, command, text):
        root, cfg = planted_ws
        path = root / f"{command}-file.tsv"
        path.write_text(text)
        return run(capsys, command, cfg, "--lists", str(path), "--out", str(root / "out.json"))

    @pytest.mark.parametrize("command", ["eval", "bias-report"])
    def test_ragged_file_is_data_error(self, planted_ws, capsys, command):
        # the first list is shorter than max(eval.ks) = 10
        rows = [(0, range(2)), (1, range(10))]
        text = "".join(f"{u}\t{i}\t0.0\n" for u, items in rows for i in items)
        code, _, err = self.run_on(capsys, planted_ws, command, text)
        assert code == 3
        assert "user 1: list length differs from the first list's 2" in err

    @pytest.mark.parametrize("command", ["eval", "bias-report"])
    def test_empty_file_is_data_error(self, planted_ws, capsys, command):
        code, _, err = self.run_on(capsys, planted_ws, command, "")
        assert code == 3
        assert "data error" in err

    def test_line_that_is_not_utf8_is_data_error(self, planted_ws, capsys):
        root, cfg = planted_ws
        path = root / "not-utf8.tsv"
        path.write_bytes(b"0\t1\t0.5\n\xff0\t2\t0.5\n")
        code, _, err = run(capsys, "eval", cfg, "--lists", str(path), "--out", str(root / "o.json"))
        assert code == 3
        assert "not-utf8.tsv: line 2 is not user<TAB>item<TAB>score: '\\\\xff0\\t2\\t0.5'" in err


@pytest.mark.parametrize("indent", [None, 1])  # write_manifest's layout, and any other
class TestManifestChecks:
    """A split manifest whose splits contradict each other is refused with
    exit 3 by every command that reads it."""

    @pytest.fixture
    def prepared(self, tmp_path):
        write_dataset(planted(seed=0), tmp_path / "r.tsv", tmp_path / "s.tsv")
        cfg = tmp_path / "cfg.json"
        dataset = {"interactions": str(tmp_path / "r.tsv"), "social": str(tmp_path / "s.tsv")}
        cfg.write_text(json.dumps({"output_dir": str(tmp_path / "run"), "dataset": dataset}))
        assert main(["prepare", str(cfg)]) == 0
        lists = tmp_path / "lists.tsv"
        lists.write_text("".join(f"0\t{i}\t0.0\n" for i in range(10)))
        return str(cfg), tmp_path / "run" / "splits.json", str(lists)

    def eval_with(self, capsys, prepared, indent, edit):
        cfg, manifest, lists = prepared
        assert run(capsys, "eval", cfg, "--lists", lists)[0] == 0
        d = json.loads(manifest.read_text())
        edit(d)
        manifest.write_text(json.dumps(d, sort_keys=True, indent=indent) + "\n")
        return run(capsys, "eval", cfg, "--lists", lists)

    def test_repeated_train_pair_exits_3(self, prepared, capsys, indent):
        def repeat(d):  # a repeated pair would load as a train entry of 2.0
            d["train"].insert(1, d["train"][0])
        code, _, err = self.eval_with(capsys, prepared, indent, repeat)
        assert code == 3
        assert "train: pairs are repeated or out of (user, item) order" in err

    def test_pair_in_two_splits_exits_3(self, prepared, capsys, indent):
        def leak(d):
            d["train"] = sorted(d["train"] + [d["test"][0]])
        code, _, err = self.eval_with(capsys, prepared, indent, leak)
        assert code == 3
        assert "is in more than one of train, valid and test" in err

    @pytest.mark.parametrize(
        "field, value", [("n_users", 200.7), ("n_users", "200"), ("seed", "7"), ("seed", 1.5)]
    )
    def test_shape_or_seed_of_another_json_type_exits_3(self, prepared, capsys, indent, field, value):
        def edit(d):
            d[field] = value
        code, _, err = self.eval_with(capsys, prepared, indent, edit)
        assert code == 3
        assert f"{field} is not of type int: {value!r}" in err

    @pytest.mark.parametrize("cast", [lambda i: i + 0.5, str, bool], ids=["float", "str", "bool"])
    def test_non_integer_id_exits_3(self, prepared, capsys, indent, cast):
        def edit(d):  # an int64 cast would read [u, i + 0.5] as (u, i)
            d["train"][0][1] = cast(d["train"][0][1])
        code, _, err = self.eval_with(capsys, prepared, indent, edit)
        assert code == 3
        assert "train: every id must be an integer" in err


def test_commands_that_never_read_the_social_file_skip_it(ws, capsys, monkeypatch, tmp_path):
    def refuse(*args, **kwargs):
        raise AssertionError("the social file was loaded")

    monkeypatch.setattr(pipeline, "load_social", refuse)
    lists = tmp_path / "lists.tsv"
    lists.write_text("".join(f"{u}\t{i}\t0.0\n" for u in range(2) for i in range(10)))
    for argv in (
        ("eval", ws["cfg"], "--lists", str(lists), "--out", str(tmp_path / "report.json")),
        ("bias-report", ws["cfg"], "--lists", str(lists), "--out", str(tmp_path / "bias.json")),
        ("train", ws["cfg"], "--model", "cgd", "--ckpt-dir", str(tmp_path / "ckpt")),
    ):
        code, _, err = run(capsys, *argv)
        assert code == 0, err


class TestSweep:
    def test_wr_sweep_files(self, ws, capsys):
        out_dir = ws["root"] / "sweep-wr"
        code, out, _ = run(
            capsys, "sweep", ws["cfg"], "--param", "w_r",
            "--values", "0,0.3,0.6", "--out-dir", str(out_dir),
        )
        assert code == 0
        reports = {p.name for p in out_dir.glob("report_*.json")}
        assert reports == {
            "report_guidance-w_r=0.json",
            "report_guidance-w_r=0.3.json",
            "report_guidance-w_r=0.6.json",
        }
        lines = (out_dir / "summary.tsv").read_text().strip().splitlines()
        assert lines[0] == "value\trecall@5\trecall@10\tndcg@10"
        assert len(lines) == 4
        for line in lines[1:]:
            value, r5, r10, n10 = line.split("\t")
            assert 0.0 <= float(r10) <= 1.0
            assert 0.0 <= float(n10) <= 1.0

    def test_single_value_matches_eval(self, ws, capsys):
        # gamma=0 with everything else zero is exactly the default run
        out_dir = ws["root"] / "sweep-gamma"
        code, _, _ = run(
            capsys, "sweep", ws["cfg"], "--param", "gamma",
            "--values", "0", "--out-dir", str(out_dir),
        )
        assert code == 0
        lists = ws["root"] / "single.tsv"
        assert run(capsys, "infer", ws["cfg"], "--out", str(lists))[0] == 0
        report = ws["root"] / "single.json"
        assert run(
            capsys, "eval", ws["cfg"], "--lists", str(lists), "--out", str(report)
        )[0] == 0
        swept = json.loads((out_dir / "report_guidance-gamma=0.json").read_text())
        direct = json.loads(report.read_text())
        for section in ("recall", "ndcg", "per_group", "freq_hist"):
            assert swept[section] == direct[section]

    def test_bad_values_config_error(self, ws, capsys):
        code, _, err = run(
            capsys, "sweep", ws["cfg"], "--param", "w_r", "--values", "0,huh",
        )
        assert code == 2

    @pytest.mark.parametrize("w_r", [0, 0.3])
    def test_wr_value_matches_infer_then_eval(self, ws, capsys, w_r):
        out_dir = ws["root"] / "sweep-wr-direct"
        code, _, _ = run(
            capsys, "sweep", ws["cfg"], "--param", "w_r",
            "--values", "0,0.3", "--out-dir", str(out_dir),
        )
        assert code == 0
        lists = ws["root"] / f"direct-{w_r}.tsv"
        report = ws["root"] / f"direct-{w_r}.json"
        assert run(
            capsys, "infer", ws["cfg"], "--set", f"guidance.w_r={w_r}",
            "--out", str(lists),
        )[0] == 0
        assert run(
            capsys, "eval", ws["cfg"], "--lists", str(lists), "--out", str(report)
        )[0] == 0
        swept = json.loads((out_dir / f"report_guidance-w_r={w_r}.json").read_text())
        direct = json.loads(report.read_text())
        for section in ("recall", "ndcg", "per_group", "freq_hist"):
            assert swept[section] == direct[section]

    def test_eval_value_matches_infer_then_eval(self, ws, capsys):
        # each value is scored and evaluated under its own eval section
        out_dir = ws["root"] / "sweep-hot"
        code, _, _ = run(
            capsys, "sweep", ws["cfg"], "--param", "eval.hot_fraction",
            "--values", "0.05,0.3", "--out-dir", str(out_dir),
        )
        assert code == 0
        lists = ws["root"] / "direct-hot.tsv"
        report = ws["root"] / "direct-hot.json"
        hot = "--set=eval.hot_fraction=0.3"
        assert run(capsys, "infer", ws["cfg"], hot, "--out", str(lists))[0] == 0
        assert run(
            capsys, "eval", ws["cfg"], hot, "--lists", str(lists), "--out", str(report)
        )[0] == 0
        swept = json.loads((out_dir / "report_eval-hot_fraction=0.3.json").read_text())
        direct = json.loads(report.read_text())
        for section in ("recall", "ndcg", "per_group", "freq_hist"):
            assert swept[section] == direct[section]
        assert swept["config"]["swept"] == {"eval.hot_fraction": 0.3}

    @pytest.mark.parametrize("values", ["0,1.5", "0,-2", '"x"'])
    def test_invalid_value_writes_nothing(self, ws, capsys, tmp_path, values):
        # each value is validated like --set before any value is scored
        out_dir = tmp_path / "sweep"
        code, _, err = run(
            capsys, "sweep", ws["cfg"], "--param", "w_r", "--values", values,
            "--out-dir", str(out_dir),
        )
        assert code == 2
        assert "config error" in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("values", ["0,,0.3", "0,0.3,", ",0"])
    def test_empty_item_writes_nothing(self, ws, capsys, tmp_path, values):
        # --values holds the items of one JSON array, so a doubled or a
        # trailing comma is refused, not skipped
        out_dir = tmp_path / "sweep"
        code, _, err = run(
            capsys, "sweep", ws["cfg"], "--param", "w_r", "--values", values,
            "--out-dir", str(out_dir),
        )
        assert code == 2
        assert "--values must be JSON values separated by commas" in err
        assert not out_dir.exists()

    def test_fraction_leaving_no_tail_item_writes_nothing(self, ws, capsys, tmp_path):
        # the 60-item catalog has no tail item at 0.99
        out_dir = tmp_path / "sweep"
        code, _, err = run(
            capsys, "sweep", ws["cfg"], "--param", "eval.hot_fraction",
            "--values", "0.1,0.99", "--out-dir", str(out_dir),
        )
        assert code == 2
        assert "eval.hot_fraction=0.99 makes all 60 items hot" in err
        assert not out_dir.exists()


class TestSweepReusesChains:
    @pytest.fixture(scope="class")
    def trained(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("sweepreuse")
        write_dataset(planted(seed=0), root / "r.tsv", root / "s.tsv")
        model = {
            "T": 3, "hidden_dims": [16], "time_embed_dim": 8,
            "learning_rate": 1e-3, "epochs": 1, "batch_size": 64,
        }
        cfg = {
            "seed": 2,
            "output_dir": str(root / "run"),
            "dataset": {"interactions": str(root / "r.tsv"), "social": str(root / "s.tsv")},
            "cgd": model,
            "csd": model,
            "guidance": {"delta": 1.0, "eta": 0.2, "w_s": 0.5, "lambda": 2.0,
                         "gamma": 0.5, "w_r": 0.2},
        }
        cfg_path = root / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        for argv in (["prepare"], ["train", "--model", "cgd"], ["train", "--model", "csd"]):
            assert main([argv[0], str(cfg_path), *argv[1:]]) == 0
        return root, str(cfg_path)

    def assert_one_pair_serves(self, trained, capsys, monkeypatch, param, values):
        """The sweep runs joint_chains once, and each value's report equals
        infer + eval under that value's --set."""
        root, cfg = trained
        calls = []
        original = cli.joint_chains

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(cli, "joint_chains", counted)
        out_dir = root / f"sweep-{param}"
        code, _, err = run(
            capsys, "sweep", cfg, "--param", param, "--values", ",".join(values),
            "--out-dir", str(out_dir),
        )
        assert code == 0, err
        assert len(calls) == 1
        monkeypatch.undo()
        for value in map(json.loads, values):
            setting = f"--set={param}={json.dumps(value)}"
            lists, report = root / "lists.tsv", root / "report.json"
            assert run(capsys, "infer", cfg, setting, "--out", str(lists))[0] == 0
            assert run(
                capsys, "eval", cfg, setting, "--lists", str(lists), "--out", str(report)
            )[0] == 0
            name = f"report_{param.replace('.', '-')}={value}.json"
            swept = json.loads((out_dir / name).read_text())
            direct = json.loads(report.read_text())
            for section in ("recall", "ndcg", "per_group", "freq_hist"):
                assert swept[section] == direct[section]

    def test_eval_split_sweep_runs_the_chains_once(self, trained, capsys, monkeypatch):
        # eval.split never reaches the chains, so both values share one pair
        self.assert_one_pair_serves(
            trained, capsys, monkeypatch, "eval.split", ['"test"', '"debiased"']
        )

    def test_eval_ks_sweep_runs_the_chains_once(self, trained, capsys, monkeypatch):
        # the pair is ranked once at the largest K, and each value's lists
        # are cut to its own K
        self.assert_one_pair_serves(
            trained, capsys, monkeypatch, "eval.ks", ["[5]", "[20]", "[10]"]
        )
        # the summary adds both metrics at every cutoff beyond 5 and 10,
        # and a value without a cutoff shows nan there
        out_dir = trained[0] / "sweep-eval.ks"
        header, *rows = (out_dir / "summary.tsv").read_text().splitlines()
        assert header.split("\t") == [
            "value", "recall@5", "recall@10", "ndcg@10", "recall@20", "ndcg@20",
        ]
        table = {row.split("\t")[0]: row.split("\t")[1:] for row in rows}
        report = json.loads((out_dir / "report_eval-ks=[20].json").read_text())
        assert table["[20]"][3:] == [repr(report["recall"]["20"]), repr(report["ndcg"]["20"])]
        assert table["[20]"][:3] == ["nan"] * 3 and table["[5]"][3:] == ["nan"] * 2

    def test_list_values_keep_their_commas(self, trained, capsys, monkeypatch):
        # a value of several entries is one item of --values
        self.assert_one_pair_serves(
            trained, capsys, monkeypatch, "eval.ks", ["[5]", "[10]", "[5,10]"]
        )
        rows = (trained[0] / "sweep-eval.ks" / "summary.tsv").read_text().splitlines()
        assert [row.split("\t")[0] for row in rows] == ["value", "[5]", "[10]", "[5, 10]"]


class TestBiasReport:
    def test_bias_report_files(self, ws, capsys):
        lists = ws["root"] / "bias_lists.tsv"
        assert run(capsys, "infer", ws["cfg"], "--out", str(lists))[0] == 0
        out = ws["root"] / "bias.json"
        code, stdout, _ = run(
            capsys, "bias-report", ws["cfg"], "--lists", str(lists),
            "--out", str(out),
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert set(payload) == {"freq_hist", "per_group", "notices"}
        assert payload["freq_hist"]["total_count"] == 40 * 10
        assert "hot_mean_freq" in stdout
        assert os.path.exists(str(out) + ".freq.tsv")
