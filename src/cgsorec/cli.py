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
import dataclasses
import itertools
import json
import math
import os
import sys

from . import pipeline
from .config import SCHEMA, ExperimentConfig, apply_set, load_config
from .errors import ConfigError, DataError, NumericError
from .evaluation import RankedLists, report_json
from .evaluation import frequency_histogram, group_metrics  # noqa: F401  (bench/spans.py wraps them here)
from .guidance import check_chain_inputs, joint_chains
from .store import load_checkpoint, resolved_cap, save_checkpoint
from .trainer import float32_params


def _ckpt_dir(cfg: ExperimentConfig, kind: str, override: str | None) -> str:
    return override or os.path.join(cfg["output_dir"], f"ckpt-{kind}")


def _inference_inputs(cfg, args, cfgs):
    """(S, bundle, CSD checkpoint, CGD checkpoint) for inference under
    each of `cfgs`, all scored on cfg's split (ensure_bundle).
    joint_chains reads the social graph and the CSD model only when
    lambda > 0, so unless one of `cfgs` sets it neither is loaded and
    both are None; require_files still demands that both input files
    exist.  A checkpoint of the other model is refused."""
    social = any(c.guidance().lam > 0 for c in cfgs)
    if social:
        R, S = pipeline.load_dataset(cfg)
    else:
        R, S = pipeline.load_interaction_data(cfg), None
    bundle = pipeline.ensure_bundle(cfg, R)
    ckpt_item = load_checkpoint(_ckpt_dir(cfg, "cgd", args.ckpt_cgd), "CGD")
    csd_dir = _ckpt_dir(cfg, "csd", args.ckpt_csd)
    ckpt_social = None
    if social and os.path.exists(os.path.join(csd_dir, "manifest.json")):
        ckpt_social = load_checkpoint(csd_dir, "CSD")
    return S, bundle, ckpt_social, ckpt_item


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
    print(f"debiased_cap\t{resolved_cap(bundle)}")
    print(f"manifest\t{path}")
    return 0


def cmd_train(cfg: ExperimentConfig, args) -> int:
    kind = args.model
    if kind == "cgd":
        R, S = pipeline.load_interaction_data(cfg), None
    else:
        R, S = pipeline.load_dataset(cfg)
    out_dir = _ckpt_dir(cfg, kind, args.ckpt_dir)
    log = print if args.verbose else None

    resume = None
    if args.resume:
        resume = load_checkpoint(out_dir)
        # refused before anything runs or is written, naming the blob
        float32_params(resume.params, os.path.join(out_dir, "params.bin"))
        print(f"resuming from epoch {resume.epoch}")

    if kind == "cgd":
        bundle = pipeline.ensure_bundle(cfg, R)
        ckpt = pipeline.train_item_model(cfg, bundle, resume=resume, log=log)
    else:
        if S is None:
            raise DataError("csd training needs dataset.social")
        ckpt = pipeline.train_social_model(cfg, S, resume=resume, log=log)
    save_checkpoint(ckpt, out_dir)
    metric = "-" if math.isnan(ckpt.valid_metric) else f"{ckpt.valid_metric:.6f}"
    print(f"model\t{kind}")
    print(f"best_epoch\t{ckpt.epoch}")
    print(f"valid_recall@10\t{metric}")
    print(f"checkpoint\t{out_dir}")
    return 0


def cmd_infer(cfg: ExperimentConfig, args) -> int:
    if args.top is not None and args.top < 1:
        raise ConfigError(f"--top must be at least 1, got {args.top}")
    top_k = args.top or max(cfg["eval.ks"])
    S, bundle, ckpt_social, ckpt_item = _inference_inputs(cfg, args, [cfg])
    lists = pipeline.joint_lists(cfg, ckpt_social, ckpt_item, S, bundle, top_k)
    out = args.out or os.path.join(cfg["output_dir"], "lists.tsv")
    os.makedirs(os.path.dirname(out) or ".", exist_ok=True)
    pipeline.write_lists(lists, out)
    print(f"users\t{len(lists.users)}")
    print(f"top_k\t{top_k}")
    print(f"lists\t{out}")
    return 0


def _lists_report(cfg: ExperimentConfig, args, name: str) -> tuple[dict, str]:
    """The eval report of the lists file args.lists on cfg's split, and
    the path for it: args.out, else `name` under output_dir."""
    R = pipeline.load_interaction_data(cfg)
    bundle = pipeline.ensure_bundle(cfg, R)
    lists = pipeline.read_lists(args.lists, R.n_users, R.n_items)
    report = pipeline.eval_report(cfg, lists, bundle)
    out = args.out or os.path.join(cfg["output_dir"], name)
    os.makedirs(os.path.dirname(out) or ".", exist_ok=True)
    return report, out


def _write_report(payload: dict, path) -> None:
    """`payload` as JSON at `path`, and its histogram at path.freq.tsv."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(report_json(payload))
    hist = payload["freq_hist"]
    with open(path + ".freq.tsv", "w", encoding="utf-8") as fh:
        fh.write("bucket\tmean_freq\n")
        for decile, value in sorted(hist["decile_mean_freq"].items()):
            fh.write(f"decile_{decile}\t{value!r}\n")
        fh.write(f"hot\t{hist['hot_mean_freq']!r}\n")
        fh.write(f"tail\t{hist['tail_mean_freq']!r}\n")
        fh.write(f"total\t{hist['total_count']}\n")


def cmd_eval(cfg: ExperimentConfig, args) -> int:
    report, out = _lists_report(cfg, args, "report.json")
    _write_report(report, out)
    for metric in ("recall", "ndcg"):
        for k in sorted(report[metric]):
            print(f"{metric}@{k}\t{report[metric][k]!r}")
    for notice in report["notices"]:
        print(f"notice\t{notice}")
    print(f"report\t{out}")
    return 0


def cmd_sweep(cfg: ExperimentConfig, args) -> int:
    # a bare name is a guidance knob unless it is a top-level key
    param = args.param if "." in args.param or args.param in SCHEMA else f"guidance.{args.param}"
    if param in SCHEMA and param.partition(".")[0] not in ("guidance", "eval"):
        raise ConfigError(
            f"sweep cannot vary {param}: every value is scored on the base config's "
            "data, split and checkpoints"
        )
    try:  # the items of one JSON array, so that a list value keeps its commas
        values = json.loads("[" + args.values + "]")
    except json.JSONDecodeError as err:
        raise ConfigError(f"--values must be JSON values separated by commas: {err}") from err
    if not values:
        raise ConfigError("--values is empty")
    # Every value's config is validated before any value is scored.
    cfgs = []
    for v in values:
        raw = copy.deepcopy(cfg.raw)
        apply_set(raw, f"{param}={json.dumps(v)}")
        cfgs.append(ExperimentConfig(raw).validate())
    S, bundle, ckpt_social, ckpt_item = _inference_inputs(cfg, args, cfgs)
    for cfg_v in cfgs:  # and so are its hot/tail split and chain inputs, which need the data
        pipeline.eval_target(cfg_v, bundle)
        check_chain_inputs(ckpt_social, ckpt_item, S, bundle.train, cfg_v.guidance())
    out_dir = args.out_dir or os.path.join(
        cfg["output_dir"], "sweep-" + param.replace(".", "-")
    )
    os.makedirs(out_dir, exist_ok=True)

    def inputs(cfg_v):
        # chain A never reads w_r, and chain B runs whenever w_r > 0, so a
        # pair run under a group's largest w_r serves each of its values
        return dataclasses.replace(cfg_v.guidance(), w_r=0.0), cfg_v["eval.hot_fraction"]

    def ranked():
        """Each value's lists, in order.  Consecutive values whose chains
        read the same inputs share one pair, run under their largest w_r
        and ranked in one pass at their largest K, then cut to each
        value's own K."""
        for _, group in itertools.groupby(cfgs, key=inputs):
            group = list(group)
            top = max(group, key=lambda c: c.guidance().w_r)
            a, b = joint_chains(*pipeline.chain_args(top, ckpt_social, ckpt_item, S, bundle))
            K = max(max(c["eval.ks"]) for c in group)
            grid = [c.guidance().w_r for c in group]
            lists = pipeline.topk_lists(a, K, mask=bundle.train, other=b, w=grid)
            del a, b  # the pair is gone before the values are evaluated
            for cfg_v, full in zip(group, lists):
                k = max(cfg_v["eval.ks"])
                yield RankedLists(full.users, full.items[:, :k], full.scores[:, :k])

    # recall@5, recall@10 and ndcg@10 first, then both metrics at every
    # other cutoff some value evaluates, in ascending order
    extra = sorted({k for c in cfgs for k in c["eval.ks"]} - {5, 10})
    columns = [("recall", 5), ("recall", 10), ("ndcg", 10)]
    columns += [(metric, k) for k in extra for metric in ("recall", "ndcg")]
    names = [f"{metric}@{k}" for metric, k in columns]
    rows = []
    for v, cfg_v, lists in zip(values, cfgs, ranked()):
        report = pipeline.eval_report(cfg_v, lists, bundle)
        report["config"] = dict(cfg.raw, swept={param: v})
        name = f"report_{param.replace('.', '-')}={v}.json"
        with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
            fh.write(report_json(report))
        cells = [report[metric].get(k, float("nan")) for metric, k in columns]
        rows.append((v, cells))
        print(f"{param}={v}\t" + "\t".join(f"{n}={x!r}" for n, x in zip(names, cells)))

    summary = os.path.join(out_dir, "summary.tsv")
    with open(summary, "w", encoding="utf-8") as fh:
        fh.write("\t".join(["value", *names]) + "\n")
        for v, cells in rows:
            fh.write("\t".join([str(v), *map(repr, cells)]) + "\n")
    print(f"summary\t{summary}")
    return 0


def cmd_bias_report(cfg: ExperimentConfig, args) -> int:
    report, out = _lists_report(cfg, args, "bias.json")
    _write_report({key: report[key] for key in ("freq_hist", "per_group", "notices")}, out)
    hist = report["freq_hist"]
    print(f"hot_mean_freq\t{hist['hot_mean_freq']!r}")
    print(f"tail_mean_freq\t{hist['tail_mean_freq']!r}")
    for notice in report["notices"]:
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
    p.add_argument(
        "--values", required=True, help="comma-separated JSON values, e.g. 0,0.2,1 or [5],[5,10]"
    )
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
