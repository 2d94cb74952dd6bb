"""Command-line entry point.

Subcommands: prepare, train, infer, eval, sweep, bias-report.  Every
command takes a JSON config path plus any number of --set key.path=value
overrides.  Exit codes: 0 ok, 2 configuration problem, 3 data problem,
4 numeric failure.  Output files never contain timestamps, so reruns
with the same inputs are byte-identical.
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import os
import sys

from . import pipeline
from .config import ExperimentConfig, apply_set, load_config
from .errors import ConfigError, DataError, NumericError
from .evaluation import frequency_histogram, group_metrics, keys_to_str
from .guidance import blend, joint_chains
from .trainer import load_checkpoint, save_checkpoint


def _ckpt_dir(cfg: ExperimentConfig, kind: str, override: str | None) -> str:
    return override or os.path.join(cfg.output_dir, f"ckpt-{kind}")


def _load_both_checkpoints(cfg, args):
    ckpt_item = load_checkpoint(_ckpt_dir(cfg, "cgd", args.ckpt_cgd))
    csd_dir = _ckpt_dir(cfg, "csd", args.ckpt_csd)
    ckpt_social = None
    if os.path.exists(os.path.join(csd_dir, "manifest.json")):
        ckpt_social = load_checkpoint(csd_dir)
    return ckpt_social, ckpt_item


def cmd_prepare(cfg: ExperimentConfig, args) -> int:
    R, S = pipeline.load_dataset(cfg)
    bundle = pipeline.make_bundle(cfg, R)
    path = pipeline.write_manifest(cfg, bundle)
    print(f"users\t{R.n_users}")
    print(f"items\t{R.n_items}")
    print(f"interactions\t{R.nnz}")
    if S is not None:
        print(f"connections\t{S.raw_edges}")
    print(f"train\t{bundle.train.nnz}")
    print(f"valid\t{bundle.valid.nnz}")
    print(f"test\t{bundle.test.nnz}")
    print(f"debiased_test\t{bundle.debiased_test.nnz}")
    print(f"debiased_cap\t{pipeline.resolved_cap(bundle)}")
    print(f"manifest\t{path}")
    return 0


def cmd_train(cfg: ExperimentConfig, args) -> int:
    kind = args.model
    R, S = pipeline.load_dataset(cfg)
    out_dir = _ckpt_dir(cfg, kind, args.ckpt_dir)
    log = print if args.verbose else None

    init = None
    start_epoch = 1
    baseline = -math.inf
    if args.resume:
        previous = load_checkpoint(out_dir)
        init = previous.params
        start_epoch = previous.epoch + 1
        if not math.isnan(previous.valid_metric):
            baseline = previous.valid_metric
        print(f"resuming from epoch {previous.epoch}")

    if kind == "cgd":
        bundle = pipeline.ensure_bundle(cfg, R)
        ckpt = pipeline.train_item_model(
            cfg, bundle, init=init, start_epoch=start_epoch,
            best_metric_init=baseline, log=log,
        )
    else:
        if S is None:
            raise DataError("csd training needs dataset.social")
        ckpt = pipeline.train_social_model(
            cfg, S, init=init, start_epoch=start_epoch,
            best_metric_init=baseline, log=log,
        )
    save_checkpoint(ckpt, out_dir)
    metric = "-" if math.isnan(ckpt.valid_metric) else f"{ckpt.valid_metric:.6f}"
    print(f"model\t{kind}")
    print(f"best_epoch\t{ckpt.epoch}")
    print(f"valid_recall@10\t{metric}")
    print(f"checkpoint\t{out_dir}")
    return 0


def cmd_infer(cfg: ExperimentConfig, args) -> int:
    R, S = pipeline.load_dataset(cfg)
    bundle = pipeline.ensure_bundle(cfg, R)
    ckpt_social, ckpt_item = _load_both_checkpoints(cfg, args)
    scores = pipeline.joint_scores(cfg, ckpt_social, ckpt_item, S, bundle)
    top_k = args.top or max(cfg.eval_ks)
    lists = pipeline.topk_lists(scores, top_k, mask=bundle.train)
    out = args.out or os.path.join(cfg.output_dir, "lists.tsv")
    os.makedirs(os.path.dirname(out) or ".", exist_ok=True)
    pipeline.write_lists(lists, out)
    print(f"users\t{len(lists.users)}")
    print(f"top_k\t{top_k}")
    print(f"lists\t{out}")
    return 0


def _write_freq_tsv(hist: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("bucket\tmean_freq\n")
        for decile, value in sorted(hist["decile_mean_freq"].items()):
            fh.write(f"decile_{decile}\t{value!r}\n")
        fh.write(f"hot\t{hist['hot_mean_freq']!r}\n")
        fh.write(f"tail\t{hist['tail_mean_freq']!r}\n")
        fh.write(f"total\t{hist['total_count']}\n")


def cmd_eval(cfg: ExperimentConfig, args) -> int:
    R, _ = pipeline.load_dataset(cfg)
    bundle = pipeline.ensure_bundle(cfg, R)
    lists = pipeline.read_lists(args.lists, R.n_users, R.n_items)
    report = pipeline.eval_report(cfg, lists, bundle)
    out = args.out or os.path.join(cfg.output_dir, "report.json")
    os.makedirs(os.path.dirname(out) or ".", exist_ok=True)
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(report.to_json())
    _write_freq_tsv(report.freq_hist, out + ".freq.tsv")
    for k in sorted(report.recall):
        print(f"recall@{k}\t{report.recall[k]!r}")
    for k in sorted(report.ndcg):
        print(f"ndcg@{k}\t{report.ndcg[k]!r}")
    for notice in report.notices:
        print(f"notice\t{notice}")
    print(f"report\t{out}")
    return 0


def cmd_sweep(cfg: ExperimentConfig, args) -> int:
    param = args.param if "." in args.param else f"guidance.{args.param}"
    try:
        values = [json.loads(v) for v in args.values.split(",") if v.strip()]
    except json.JSONDecodeError as err:
        raise ConfigError(f"--values must be comma-separated numbers: {err}") from err
    if not values:
        raise ConfigError("--values is empty")
    # Every value's config is validated before any value is scored.
    cfgs = []
    for v in values:
        raw = copy.deepcopy(cfg.raw)
        apply_set(raw, f"{param}={json.dumps(v)}")
        cfgs.append(ExperimentConfig(raw).validate())
    out_dir = args.out_dir or os.path.join(
        cfg.output_dir, "sweep-" + param.replace(".", "-")
    )
    os.makedirs(out_dir, exist_ok=True)

    R, S = pipeline.load_dataset(cfg)
    bundle = pipeline.ensure_bundle(cfg, R)
    ckpt_social, ckpt_item = _load_both_checkpoints(cfg, args)

    def chains(cfg_v):
        return joint_chains(*pipeline.chain_args(cfg_v, ckpt_social, ckpt_item, S, bundle))

    # The chains read w_r only as w_r > 0, so one pair, run under the
    # largest value, serves a whole w_r grid.  Any other value reuses the
    # previous pair while the chains' inputs (guidance knobs, hot/tail
    # groups, inference seed) stay the same, as for eval.split.
    shared = None
    if param == "guidance.w_r":
        shared = chains(max(cfgs, key=lambda c: c.guidance().w_r))
    pair, pair_key = None, None

    rows = []
    for v, cfg_v in zip(values, cfgs):
        if shared is None:
            key = (cfg_v.guidance(), cfg_v.hot_fraction, cfg_v.seed_for("inference"))
            if key != pair_key:
                pair = None  # the old pair is gone before the new one is built
                pair, pair_key = chains(cfg_v), key
        scores = blend(*(shared or pair), cfg_v.guidance().w_r)
        lists = pipeline.topk_lists(scores, max(cfg_v.eval_ks), mask=bundle.train)
        del scores  # one score matrix at a time: gone before the next is built
        report = pipeline.eval_report(cfg_v, lists, bundle)
        report.config_echo = dict(cfg.raw, swept={param: v})
        name = f"report_{param.replace('.', '-')}={v}.json"
        with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
            fh.write(report.to_json())
        rows.append(
            (
                v,
                report.recall.get(5, float("nan")),
                report.recall.get(10, float("nan")),
                report.ndcg.get(10, float("nan")),
            )
        )
        print(
            f"{param}={v}\trecall@5={rows[-1][1]!r}\t"
            f"recall@10={rows[-1][2]!r}\tndcg@10={rows[-1][3]!r}"
        )

    summary = os.path.join(out_dir, "summary.tsv")
    with open(summary, "w", encoding="utf-8") as fh:
        fh.write("value\trecall@5\trecall@10\tndcg@10\n")
        for v, r5, r10, n10 in rows:
            fh.write(f"{v}\t{r5!r}\t{r10!r}\t{n10!r}\n")
    print(f"summary\t{summary}")
    return 0


def cmd_bias_report(cfg: ExperimentConfig, args) -> int:
    R, _ = pipeline.load_dataset(cfg)
    bundle = pipeline.ensure_bundle(cfg, R)
    lists = pipeline.read_lists(args.lists, R.n_users, R.n_items)
    target, groups = pipeline.eval_target(cfg, bundle)
    hist = frequency_histogram(lists, bundle.train, groups)
    per_group, notices = group_metrics(lists, target, groups, cfg.eval_ks)
    out = args.out or os.path.join(cfg.output_dir, "bias.json")
    os.makedirs(os.path.dirname(out) or ".", exist_ok=True)
    payload = {"freq_hist": hist, "per_group": per_group, "notices": notices}
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(keys_to_str(payload), fh, indent=2, sort_keys=True)
        fh.write("\n")
    _write_freq_tsv(hist, out + ".freq.tsv")
    print(f"hot_mean_freq\t{hist['hot_mean_freq']!r}")
    print(f"tail_mean_freq\t{hist['tail_mean_freq']!r}")
    for notice in notices:
        print(f"notice\t{notice}")
    print(f"bias_report\t{out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cgsorec",
        description="Condition-guided diffusion recommender over interaction "
        "and social data",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("config", help="path to the JSON experiment config")
        p.add_argument(
            "--set",
            dest="overrides",
            action="append",
            default=[],
            metavar="KEY.PATH=VALUE",
            help="override one config value (repeatable)",
        )

    p = sub.add_parser("prepare", help="split the dataset and print its statistics")
    add_common(p)
    p.set_defaults(fn=cmd_prepare)

    p = sub.add_parser("train", help="train one of the two diffusion models")
    add_common(p)
    p.add_argument("--model", choices=["cgd", "csd"], required=True)
    p.add_argument("--ckpt-dir", default=None)
    p.add_argument("--resume", action="store_true", help="continue from the saved checkpoint")
    p.add_argument("--verbose", action="store_true", help="print per-epoch progress")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("infer", help="run joint inference and write top-K lists")
    add_common(p)
    p.add_argument("--ckpt-cgd", default=None)
    p.add_argument("--ckpt-csd", default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--top", type=int, default=None)
    p.set_defaults(fn=cmd_infer)

    p = sub.add_parser("eval", help="score a lists file against the held-out split")
    add_common(p)
    p.add_argument("--lists", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("sweep", help="evaluate a grid over one guidance parameter")
    add_common(p)
    p.add_argument("--param", required=True, help="config path, e.g. guidance.w_r")
    p.add_argument("--values", required=True, help="comma-separated values")
    p.add_argument("--out-dir", default=None)
    p.add_argument("--ckpt-cgd", default=None)
    p.add_argument("--ckpt-csd", default=None)
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser(
        "bias-report", help="popularity histogram and hot/tail breakdown of lists"
    )
    add_common(p)
    p.add_argument("--lists", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_bias_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config, args.overrides)
        return args.fn(cfg, args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except DataError as err:
        print(f"data error: {err}", file=sys.stderr)
        return 3
    except NumericError as err:
        print(f"numeric error: {err}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
