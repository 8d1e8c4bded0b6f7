"""Experiment driver: generate data, fit, evaluate, retrieve, export scatters.

Subcommands: gen, fit, eval, retrieve, scatter, sweep. Every output directory
receives the effective config echo and seed; re-running with that echo
reproduces the numeric outputs bit-identically in every mode, with either
matcher (tests/test_golden.py checks this). `eval` and `sweep` exit nonzero when a configured
threshold fails, so pipelines can gate on it.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys

import numpy as np

from . import config as cfgmod
from . import datagen, embedio, matio, metrics, solver
from .numerics import ValidationError, blas_workers, side_by_side, substream

log = logging.getLogger("unisca")


def _setup_logging() -> None:
    level = os.environ.get("SCA_LOG", "info").lower()
    levels = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
    if level not in levels:
        raise ValidationError(f"SCA_LOG must be one of {sorted(levels)}")
    logging.basicConfig(level=levels[level], format="%(levelname)s %(message)s")


def _effective_config(args) -> dict:
    merged = cfgmod.merged_with_defaults(
        matio.read_json(args.config) if args.config else None)
    if getattr(args, "preset", None) is not None:
        merged["data"]["preset"] = args.preset
        merged["data"].pop("latent", None)
    if getattr(args, "n", None) is not None:
        merged["data"]["n"] = args.n
    if args.seed is not None:
        merged["seed"] = args.seed
    return cfgmod.validate_config(merged)


def _build_dataset(cfg: dict) -> datagen.SyntheticDataset:
    seed = cfg["seed"]
    data = cfg["data"]
    if "latent" in data:
        latent = datagen.LatentSpec.from_dict(data["latent"])
    else:
        latent, _ = datagen.preset(data["preset"],
                                   substream(seed, "datagen", "preset"))
    # Settings the config leaves out keep the defaults of datagen.
    template = datagen.MixingTemplate(
        **{k: data[k] for k in ("d1", "d2", "homogeneous") if k in data})
    mixing = template.realize(latent, substream(seed, "datagen", "mixing"))
    return datagen.generate_dataset(
        latent, mixing, data["n"], substream(seed, "datagen", "samples"),
        **{k: data[k] for k in ("test_fraction",) if k in data})


def cmd_gen(args) -> int:
    cfg = _effective_config(args)
    dataset = _build_dataset(cfg)
    datagen.save_dataset(dataset, args.out, seed=cfg["seed"])
    matio.write_json(os.path.join(args.out, "config.json"), cfg)
    log.info("dataset written to %s (%d train / %d test rows)",
             args.out, dataset.x1.shape[0], dataset.x1_test.shape[0])
    return 0


def _solver_config(cfg: dict, dataset=None) -> solver.SolverConfig:
    section = dict(cfg.get("solver", {}))
    section.setdefault("seed", cfg["seed"])
    sc = solver.SolverConfig(**section)
    if dataset is not None and sc.mode == "with_private":
        if sc.d_p1 == 0:
            sc.d_p1 = dataset.p1.shape[1]
        if sc.d_p2 == 0:
            sc.d_p2 = dataset.p2.shape[1]
    return sc


def _run_fit(cfg: dict, x1: np.ndarray, x2: np.ndarray,
             dataset: datagen.SyntheticDataset | None) -> solver.FitResult:
    """Fit in the configured mode; weak supervision samples its anchors from
    the dataset's hidden alignment."""
    sc = _solver_config(cfg, dataset)
    anchors = None
    if sc.mode == "weakly_supervised":
        if dataset is None:
            raise ValidationError("weak supervision requires a dataset directory")
        pairs = datagen.sample_anchors(dataset, cfg.get("anchors", sc.d_c),
                                       substream(sc.seed, "cli", "anchors"))
        anchors = solver.AnchorSet(pairs)
    return solver.fit(x1, x2, sc, anchors=anchors)


def _centred(x: np.ndarray) -> np.ndarray:
    """x less its column means, a constant column (zero range) as exact
    zeros. Less its mean, a column of 123.4 beside unit normals keeps a
    residual mean of 2.2e-12 at 1000 rows, which solver.fit refuses as not
    centred."""
    x = x - x.mean(axis=0)
    x[:, np.ptp(x, axis=0) == 0] = 0.0
    return x


def cmd_fit(args) -> int:
    cfg = _effective_config(args)
    if os.path.exists(args.out) and not os.path.isdir(args.out):
        raise ValidationError(f"--out {args.out} exists and is not a directory")
    if args.emb1 or args.emb2:
        if not (args.emb1 and args.emb2):
            raise ValidationError("--emb1 and --emb2 must be given together")
        x1 = _centred(embedio.read_vec_text(args.emb1).matrix)
        x2 = _centred(embedio.read_vec_text(args.emb2).matrix)
        dataset = None
    else:
        if not args.data:
            raise ValidationError("fit needs --data or --emb1/--emb2")
        dataset = datagen.load_dataset(args.data)
        x1, x2 = dataset.x1, dataset.x2
    result = _run_fit(cfg, x1, x2, dataset)
    solver.save_model(result, args.out)
    matio.write_json(os.path.join(args.out, "config.json"), cfg)
    log.info("model written to %s (%.1fs, final matcher %.4g)",
             args.out, result.wall_clock, result.trace[-1, 1])
    return 0


def _gate(values: dict, thresholds: dict, label: str = "") -> dict:
    """Print PASS/FAIL for each threshold and return {metric: passed}."""
    passed = {}
    for name, bound in thresholds.items():
        value = cfgmod.GATED[name](values[name])
        passed[name] = bool(value <= bound)
        print(f"{'PASS' if passed[name] else 'FAIL'} {label}{name}: "
              f"{value:.4f} (threshold {bound})")
    return passed


def cmd_eval(args) -> int:
    result = solver.load_model(args.model)
    dataset = datagen.load_dataset(args.data)
    report = metrics.evaluate_fit(result, dataset)
    thresholds = {}
    # Only the model's own echo may be absent; a --config path must exist.
    cfg_path = args.config or os.path.join(args.model, "config.json")
    if args.config or os.path.exists(cfg_path):
        cfg = cfgmod.validate_config(matio.read_json(cfg_path))
        thresholds = cfg.get("eval", {}).get("thresholds", {})
    doc = {"report": report.to_dict(), "thresholds": thresholds}
    doc["passed"] = _gate(doc["report"], thresholds)
    out = args.out or os.path.join(args.model, "report.json")
    matio.write_json(out, doc)
    log.info("report written to %s", out)
    return 0 if all(doc["passed"].values()) else 1


def cmd_retrieve(args) -> int:
    try:
        ks = [int(k) for k in args.ks.split(",")]
    except ValueError as exc:
        raise ValidationError(
            f"--ks must be comma-separated integers, got '{args.ks}'") from exc
    if min(ks) < 1 or args.k_csls < 1:  # retrieval_precision's check, early
        raise ValidationError(f"k and k_csls must be >= 1, got {min(ks)} "
                              f"and {args.k_csls}")
    result = solver.load_model(args.model)
    queries = embedio.read_vec_text(args.queries)
    references = embedio.read_vec_text(args.references)
    dictionary = embedio.read_dictionary(args.dictionary)
    xq, xr = _centred(queries.matrix), _centred(references.matrix)
    eq = result.q1.apply(xq)
    er = result.q2.apply(xr)
    table = {}
    for scorer in ("nn", "csls"):
        for k in ks:
            table[f"{scorer}@{k}"] = metrics.retrieval_precision(
                eq, er, dictionary, k, scorer=scorer, k_csls=args.k_csls)
    print(f"{'scorer':8s}" + "".join(f"P@{k:<8d}" for k in ks))
    for scorer in ("nn", "csls"):
        row = "".join(f"{table[f'{scorer}@{k}']:<10.1f}" for k in ks)
        print(f"{scorer:8s}{row}")
    if args.out:
        matio.write_json(args.out, table)
    return 0


def cmd_scatter(args) -> int:
    result = solver.load_model(args.model)
    dataset = datagen.load_dataset(args.data)
    if args.split == "test":
        x1, x2, c = dataset.x1_test, dataset.x2_test, dataset.c_test
        if c.shape[0] == 0:
            raise ValidationError("no held-out test rows to export; generate "
                                  "the data with data.test_fraction > 0")
    else:
        x1, c = dataset.x1, dataset.c
        x2 = dataset.x2[dataset.alignment]
    chat1 = result.q1.apply(x1)
    chat2 = result.q2.apply(x2)
    d_c = c.shape[1]
    k = chat1.shape[1]
    columns = ([f"c_{i}" for i in range(d_c)]
               + [f"chat1_{i}" for i in range(k)]
               + [f"chat2_{i}" for i in range(k)])
    matio.write_csv(args.out, np.hstack([c, chat1, chat2]), columns)
    log.info("scatter data written to %s (%d rows)", args.out, c.shape[0])
    return 0


def _sweep_one(cfg: dict, seed: int, out_root: str) -> dict:
    sub = os.path.join(out_root, f"seed-{seed}")
    run_cfg = {**cfg, "seed": seed}  # the seeds only read cfg's sections
    dataset = _build_dataset(run_cfg)
    data_dir = os.path.join(sub, "data")
    datagen.save_dataset(dataset, data_dir, seed=seed)
    matio.write_json(os.path.join(data_dir, "config.json"), run_cfg)
    result = _run_fit(run_cfg, dataset.x1, dataset.x2, dataset)
    model_dir = os.path.join(sub, "model")
    solver.save_model(result, model_dir)
    matio.write_json(os.path.join(model_dir, "config.json"), run_cfg)
    report = metrics.evaluate_fit(result, dataset)
    matio.write_json(os.path.join(sub, "report.json"), report.to_dict())
    log.info("seed %d done (pair_match_error %.3f)", seed,
             report.pair_match_error)
    return report.to_dict()


def cmd_sweep(args) -> int:
    if args.seeds < 1:
        raise ValidationError(f"--seeds must be >= 1, got {args.seeds}")
    cfg = _effective_config(args)
    if cfg["data"].get("test_fraction") == 0:
        raise ValidationError("config invalid at data/test_fraction: sweep "
                              "scores held-out pairs, so it must be > 0")
    seeds = [cfg["seed"] + i for i in range(args.seeds)]
    os.makedirs(args.out, exist_ok=True)
    reports = side_by_side(lambda s: _sweep_one(cfg, s, args.out), seeds,
                           blas_workers())
    # Per-view metrics take their median view by view.
    medians = {name: np.median([r[name] for r in reports], axis=0).tolist()
               for name in cfgmod.GATED}
    thresholds = cfg.get("eval", {}).get("thresholds", {})
    passed = _gate(medians, thresholds, label="median ")
    summary = {"seeds": seeds, "medians": medians, "reports": reports,
               "thresholds": thresholds}
    matio.write_json(os.path.join(args.out, "sweep.json"), summary)
    return 0 if all(passed.values()) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="unisca",
        description="Shared component recovery from unaligned multimodal mixtures")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="experiment config JSON")
        p.add_argument("--seed", type=int, help="override config seed")

    p = sub.add_parser("gen", help="generate a synthetic dataset directory")
    common(p)
    p.add_argument("--preset", help="named synthetic setup")
    p.add_argument("--n", type=int, help="samples per modality")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("fit", help="fit projections on a dataset")
    common(p)
    p.add_argument("--data", help="dataset directory from gen")
    p.add_argument("--emb1", help="word-vector text file, modality 1")
    p.add_argument("--emb2", help="word-vector text file, modality 2")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("eval", help="score a model against hidden ground truth")
    p.add_argument("--config", help="config with eval thresholds "
                                    "(defaults to the model's echo)")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", help="report path (default <model>/report.json)")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("retrieve", help="cross-domain retrieval precision")
    p.add_argument("--model", required=True)
    p.add_argument("--queries", required=True, help="query .vec file")
    p.add_argument("--references", required=True, help="reference .vec file")
    p.add_argument("--dictionary", required=True, help="two-column id pairs")
    p.add_argument("--ks", default="1,5,10")
    p.add_argument("--k-csls", type=int, default=10, dest="k_csls")
    p.add_argument("--out", help="optional JSON output path")
    p.set_defaults(func=cmd_retrieve)

    p = sub.add_parser("scatter", help="export (true c, recovered c) rows as CSV")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--split", choices=("test", "train"), default="test")
    p.set_defaults(func=cmd_scatter)

    p = sub.add_parser("sweep", help="multi-seed gen+fit+eval with medians")
    common(p)
    p.add_argument("--seeds", type=int, default=5, help="number of seeds")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _setup_logging()
        return args.func(args)
    except (ValidationError, solver.DivergenceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
