"""Command-line entry points wiring the pipeline modules together.

Subcommands: synthesize, preprocess, train, evaluate, predict,
montage list, gradcheck. Exit codes: 0 success, 1 runtime/data error,
2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import dsp, eeg_io, evaluation, gradcheck, model as model_mod, train as train_mod
from .checkpoint import load_checkpoint
from .errors import BadConfig, DataFileError, InsufficientData, PrognosisError

DEFAULT_RUNS_DIR_ENV = "PROGNOSIS_RUNS_DIR"


def _runs_root() -> Path:
    return Path(os.environ.get(DEFAULT_RUNS_DIR_ENV, "runs"))


def cmd_synthesize(args) -> int:
    root = Path(args.out)
    for outcome, count, seed in (
        (eeg_io.GOOD, args.good, args.seed),
        (eeg_io.POOR, args.poor, args.seed + 100000),
    ):
        for i in range(count):
            profile = eeg_io.SynthesisProfile(
                outcome=outcome, seed=seed + i, n_hours=args.hours, fs_hz=args.fs
            )
            recs, meta = eeg_io.synthesize_patient(profile)
            eeg_io.write_patient(meta, recs, root)
    print(
        f"wrote {args.good + args.poor} patients ({args.good} Good, {args.poor} Poor) "
        f"to {root}"
    )
    return 0


def _cache_dir(args) -> Path:
    return Path(args.cache) if args.cache else Path(args.data) / ".preprocessed"


def cmd_preprocess(args) -> int:
    dataset = eeg_io.load_dataset(args.data)
    cache = _cache_dir(args)
    store = train_mod.build_store(dataset, cache)
    for message in store.skipped:
        print(f"skipped: {message}", file=sys.stderr)
    n_hours = sum(len(store.hours(pid)) for pid in dataset)
    print(f"preprocessed {n_hours} hours from {len(dataset)} patients into {cache}")
    return 0


def cmd_train(args) -> int:
    cfg = model_mod.preset_config(args.preset)
    if args.dry_run:
        params = model_mod.init_params(cfg, seed=args.seed)
        n = model_mod.count_parameters(params)
        print(
            f"sequence dims: {cfg.seq_len}x{cfg.embed_dim} "
            f"({cfg.n_bipolar_channels} channels x {cfg.tokens_per_channel} tokens + 2)"
        )
        print(f"attention blocks: {cfg.n_attention_blocks}, heads: {cfg.n_heads}")
        print(f"parameters: {n}")
        rng = np.random.default_rng(args.seed)
        segment = rng.uniform(
            -1.0, 1.0, size=(dsp.N_BIPOLAR_CHANNELS, cfg.segment_len)
        ).astype(np.float32)
        out = model_mod.forward(params, cfg, segment)
        print(
            f"forward ok: poor_prob={out.poor_prob:.4f} cpc_pred={out.cpc_pred}"
        )
        return 0
    train_cfg = train_mod.TrainConfig(
        batch_size=args.batch,
        learning_rate=args.lr,
        max_iterations=args.iters,
        eval_every=args.eval_every,
        split_ratio=args.split_ratio,
        seed=args.seed,
    )
    dataset = eeg_io.load_dataset(args.data)
    run_dir = Path(args.run) if args.run else _runs_root() / f"run-{args.preset}-{args.seed}"
    # an unusable run directory fails before the corpus is preprocessed
    eeg_io.write_file(run_dir / "metrics.csv", "metrics", None)
    store = train_mod.build_store(dataset, _cache_dir(args))
    result = train_mod.train(
        dataset, store, cfg, train_cfg, run_dir, dataset_path=args.data
    )
    print(
        f"best val accuracy {result.best_val_accuracy:.4f} at iteration "
        f"{result.best_iteration}; checkpoints in {result.run_dir}"
    )
    return 0


def _split(meta: dict, which: str, checkpoint: str, dataset):
    """The patients of ``dataset`` in the checkpoint's recorded split ``which``."""
    if which == "all":
        return dataset
    ids = meta.get(f"{which}_patients")
    if not (type(ids) is list and ids and all(type(pid) is str for pid in ids)):
        raise DataFileError(f"{checkpoint}: recorded {which} split must be a non-empty "
                            f"list of patient ids, got {ids!r}")
    missing = [pid for pid in ids if pid not in dataset]
    if missing:
        raise InsufficientData(f"{checkpoint}: split patients absent from dataset: {missing}")
    return {pid: dataset[pid] for pid in ids}


def cmd_evaluate(args) -> int:
    config, params, _, meta = load_checkpoint(args.checkpoint)
    scored = _split(meta, args.split, args.checkpoint, eeg_io.load_dataset(args.data))
    # an unusable output directory fails before any patient is scored
    eeg_io.write_file(Path(args.out) / "report.json", "report", None)
    store = train_mod.build_store(scored, _cache_dir(args))
    report, rows = evaluation.evaluate_split(params, config, scored, store)
    evaluation.write_report(report, rows, args.out)
    print(f"challenge_metric={report['challenge_metric']}")
    return 0


def cmd_predict(args) -> int:
    if not 0.0 <= args.threshold <= 1.0:  # also refuses NaN
        raise BadConfig(f"threshold must lie in [0, 1], got {args.threshold}")
    config, params, _, _ = load_checkpoint(args.checkpoint)
    failures = []
    for path in args.paths:
        p = Path(path)
        try:
            recs = eeg_io.load_patient(p)[1] if p.is_dir() else [eeg_io.load_recording(p)]
            pred = evaluation.predict_patient(params, config, recs)
        except PrognosisError as exc:
            failures.append(f"{path}: {exc}")
            continue
        outcome = eeg_io.POOR if pred.poor_prob >= args.threshold else eeg_io.GOOD
        print(
            json.dumps(
                {
                    "patient_id": pred.patient_id,
                    "poor_prob": pred.poor_prob,
                    "outcome_pred": outcome,
                    "cpc_pred": pred.cpc_pred,
                }
            )
        )
    if failures:
        for f in failures:
            print(f"error: {f}", file=sys.stderr)
        return 1
    return 0


def cmd_montage(args) -> int:
    print("index,anode,cathode")  # "list" is the only action
    for i, pair in enumerate(dsp.MONTAGE):
        print(f"{i},{pair.anode},{pair.cathode}")
    return 0


def cmd_gradcheck(args) -> int:
    cfg = model_mod.preset_config(args.preset)
    result = gradcheck.check_model_gradients(
        cfg, n_coords=args.coords, seed=args.seed
    )
    print(
        f"checked {result.n_checked} coordinates; max relative error "
        f"{result.max_rel_error:.3e} at {result.worst_param}"
    )
    if not result.passed():
        print(f"FAIL: exceeds tolerance {gradcheck.TOLERANCE}", file=sys.stderr)
        return 1
    print("OK")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prognosis",
        description="EEG neuro-prognostication pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synthesize", help="generate a labeled synthetic corpus")
    p.add_argument("--good", type=int, required=True)
    p.add_argument("--poor", type=int, required=True)
    p.add_argument("--hours", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--fs", type=float, default=250.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synthesize)

    p = sub.add_parser("preprocess", help="build the preprocessed segment cache")
    p.add_argument("--data", required=True)
    p.add_argument("--cache")
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("train", help="train a model")
    defaults = train_mod.TrainConfig()
    p.add_argument("--data")
    p.add_argument("--preset", default="desk", choices=sorted(model_mod.PRESETS),
                   help="one row of the paper's architecture table")
    p.add_argument("--iters", type=int, default=defaults.max_iterations)
    p.add_argument("--batch", type=int, default=defaults.batch_size)
    p.add_argument("--lr", type=float, default=defaults.learning_rate)
    p.add_argument("--eval-every", type=int, default=defaults.eval_every)
    p.add_argument("--split-ratio", type=float, default=defaults.split_ratio)
    p.add_argument("--seed", type=int, default=defaults.seed)
    p.add_argument("--run", help="run directory (default under runs root)")
    p.add_argument("--cache")
    p.add_argument("--dry-run", action="store_true",
                   help="report dims and one forward pass, then exit")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="evaluate a checkpoint on a dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--split", default="all", choices=("all", "train", "val"))
    p.add_argument("--cache")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("predict", help="per-patient predictions as JSON lines")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--threshold", type=float, default=evaluation.POOR_THRESHOLD)
    p.add_argument("paths", nargs="+", help="patient directories or header files")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("montage", help="inspect the bipolar montage")
    p.add_argument("action", choices=("list",))
    p.set_defaults(func=cmd_montage)

    p = sub.add_parser("gradcheck", help="run the autodiff gradient oracle")
    p.add_argument("--preset", default="desk", choices=sorted(model_mod.PRESETS))
    p.add_argument("--coords", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "synthesize" and (
        min(args.good, args.poor) < 0 or args.good + args.poor < 1
    ):
        parser.error("--good and --poor must be >= 0 and give at least one patient")
    if args.command == "train" and not args.dry_run and not args.data:
        parser.error("--data is required unless --dry-run")
    try:
        return args.func(args)
    except PrognosisError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())
