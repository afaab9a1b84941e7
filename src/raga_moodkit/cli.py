"""Command-line front end binding the pipeline end to end.

Subcommands: ``synth`` (labeled test corpus), ``extract`` (WAVs -> feature
store), ``train`` / ``tune`` / ``evaluate`` (models and reports),
``classify`` (one WAV -> rasa scores) and ``recommend`` (feature store ->
playlist). Every artifact embeds the fully resolved configuration, and all
randomness flows from explicit seeds (``--seed``, falling back to the
``RAGA_MOODKIT_SEED`` environment variable, then 0), so reruns are
byte-identical.

Exit codes: 0 success, 1 validation error, 2 runtime/data error.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from .audio import parse_plan, read_wav
from .base import write_csv
from .bundle import ModelBundle
from .catalog import load_manifest, parse_rasa
from .errors import DataError, MoodkitError, ValidationError
from .experiments import (
    SCALER_KINDS,
    SPLIT_LEVELS,
    ExperimentConfig,
    evaluate_bundle,
    extract_features,
    run_on_features,
    song_features,
)
from .mfcc import MfccConfig, feature_correlation
from .models import FAMILY_ORDER
from .recommender import recommend_transition, score_library
from .store import read_store, write_correlation_csv, write_store
from .synth import SyntheticSpec, generate_corpus


def _parse_scalar(text: str):
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    return text


def parse_params(pairs) -> dict:
    """``k=v`` pairs; a comma-separated value becomes a tuple (e.g. hidden sizes)."""
    params = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise ValidationError(f"bad parameter {pair!r}; expected name=value")
        name, value = pair.split("=", 1)
        if "," in value:
            params[name] = tuple(_parse_scalar(v) for v in value.split(","))
        else:
            params[name] = _parse_scalar(value)
    return params


def parse_grid(pairs) -> dict:
    """``k=v1,v2`` pairs mapping each name to its candidate list."""
    grid = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise ValidationError(f"bad grid entry {pair!r}; expected name=v1,v2,...")
        name, values = pair.split("=", 1)
        grid[name] = [_parse_scalar(v) for v in values.split(",")]
    return grid


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ValidationError(message)


def _add_mfcc_options(parser):
    """One option per ``MfccConfig`` field (``--fft-size`` for ``fft_size``),
    defaulting to the field's default."""
    group = parser.add_argument_group("feature extraction")
    for f in fields(MfccConfig):
        kind = float if f.default is None else type(f.default)
        group.add_argument("--" + f.name.replace("_", "-"), type=kind, default=f.default)


def _mfcc_from_args(args) -> MfccConfig:
    return MfccConfig(**{f.name: getattr(args, f.name) for f in fields(MfccConfig)})


def _print_json(payload: dict) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


# --- synth -----------------------------------------------------------------------

def cmd_synth(args) -> int:
    spec = SyntheticSpec(
        files_per_class=args.files_per_class,
        duration_s=args.duration,
        seed=args.seed,
    )
    manifest = generate_corpus(spec, args.out, jobs=args.jobs)
    _print_json(
        {
            "command": "synth",
            "out": str(args.out),
            "files_per_class": args.files_per_class,
            "duration": args.duration,
            "seed": args.seed,
            "manifest": str(manifest),
            "n_files": args.files_per_class * 6,
        }
    )
    return 0


# --- extract ---------------------------------------------------------------------

def cmd_extract(args) -> int:
    config = _mfcc_from_args(args)
    plan = parse_plan(args.plan)
    records = load_manifest(args.manifest)
    table, failures = extract_features(
        records, plan, config, base_dir=Path(args.manifest).parent, jobs=args.jobs, strict=args.strict
    )
    for song_id, error in failures:
        print(f"extract: {song_id}: {error}", file=sys.stderr)
    if len(table) == 0:
        raise DataError("no features extracted; every file failed")

    echo = {
        "command": "extract",
        "manifest": str(args.manifest),
        "out": str(args.out),
        "plan": [list(c) for c in plan.cuts],
        "mfcc": config.get_params(),
        "strict": args.strict,
        "correlation_out": str(args.correlation_out) if args.correlation_out else None,
    }
    write_store(table, args.out, extra_meta={"config": echo, "failures": sorted(s for s, _ in failures)})
    if args.correlation_out:
        write_correlation_csv(feature_correlation(table.X), args.correlation_out)
    _print_json({**echo, "jobs": args.jobs, "n_rows": len(table), "n_failures": len(failures)})
    return 0


# --- train / tune / evaluate -------------------------------------------------------

def _run_training(args, grid: dict | None) -> int:
    table = read_store(args.features)
    config = ExperimentConfig(
        family=args.family,
        params=parse_params(args.params),
        grid=grid,
        scaler=args.scaler,
        split_level=args.split_level,
        val_fraction=args.val_fraction,
        seed=args.seed,
        cv=getattr(args, "cv", None),
    )
    report = run_on_features(table, config)
    echo = {
        "command": "tune" if grid is not None else "train",
        "features": str(args.features),
        "out": str(args.out),
        **config.get_params(),
    }
    # the report records the bundle's config, as ``evaluate``'s report of this bundle does
    report.bundle.config.update(echo, params=report.params)
    report.config = dict(report.bundle.config)
    report.bundle.save(args.out)
    if args.split_out:
        roles = report.bundle.split["roles"]
        write_csv(args.split_out, ["id", "role"], ([seg, roles[seg]] for seg in table.segment_ids))
    if getattr(args, "report_out", None):
        Path(args.report_out).write_text(report.to_json(), encoding="utf-8")
    print(report.to_markdown(), end="")
    if report.grid_rows is not None:
        for row in report.grid_rows:
            status = f"{row.validation_accuracy:.4f}" if row.error is None else f"failed: {row.error}"
            print(f"  grid {row.params} -> {status}")
    _print_json(
        {
            **echo,
            "params": report.params,
            "train_accuracy": report.train_accuracy,
            "validation_accuracy": report.validation_accuracy,
            "n_train_rows": report.n_train_rows,
            "n_val_rows": report.n_val_rows,
        }
    )
    print(f"completed in {report.wall_clock_s:.2f}s", file=sys.stderr)
    return 0


def cmd_train(args) -> int:
    return _run_training(args, grid=None)


def cmd_tune(args) -> int:
    return _run_training(args, grid=parse_grid(args.grid))


def cmd_evaluate(args) -> int:
    bundle = ModelBundle.load(args.model)
    table = read_store(args.features)
    report = evaluate_bundle(bundle, table)
    print(report.to_markdown(), end="")
    if args.out:
        Path(args.out).write_text(report.to_json(), encoding="utf-8")
    _print_json(
        {
            "command": "evaluate",
            "features": str(args.features),
            "model": str(args.model),
            "train_accuracy": report.train_accuracy,
            "validation_accuracy": report.validation_accuracy,
            "stored_train_accuracy": bundle.metrics.get("train_accuracy"),
            "stored_validation_accuracy": bundle.metrics.get("validation_accuracy"),
        }
    )
    print(f"completed in {report.wall_clock_s:.2f}s", file=sys.stderr)
    return 0


# --- classify / recommend -----------------------------------------------------------

def cmd_classify(args) -> int:
    bundle = ModelBundle.load(args.model)
    vectors = song_features(read_wav(args.wav), bundle.plan, bundle.mfcc, partial=True)
    scores = bundle.predict_scores(vectors).mean(axis=0)
    classes = [str(c) for c in bundle.model.classes_]
    predicted = classes[int(np.argmax(scores))]
    _print_json(
        {
            "command": "classify",
            "model": str(args.model),
            "wav": str(args.wav),
            "n_segments": len(vectors),
            "scores": {cls: float(s) for cls, s in zip(classes, scores)},
            "predicted": predicted,
        }
    )
    return 0


def cmd_recommend(args) -> int:
    current = parse_rasa(args.from_rasa)
    aspired = parse_rasa(args.to_rasa)
    bundle = ModelBundle.load(args.model)
    library = score_library(bundle, read_store(args.features))
    playlist = recommend_transition(library, current, aspired, args.length)
    print(
        f"transition {current.value} -> {aspired.value} "
        f"({len(playlist.slots)} of {len(library)} songs)"
    )
    print(playlist.to_text(), end="")
    if args.out:
        Path(args.out).write_text(playlist.to_json(), encoding="utf-8")
    return 0


# --- parser ------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="raga-moodkit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    # argparse reads a string default through the option's type, so a
    # malformed variable is refused like a malformed --seed
    seed = {"type": int, "default": os.environ.get("RAGA_MOODKIT_SEED", 0),
            "help": "default: $RAGA_MOODKIT_SEED, else 0"}

    p = sub.add_parser("synth", help="generate a labeled synthetic WAV corpus")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--files-per-class", type=int, default=SyntheticSpec.files_per_class)
    p.add_argument("--duration", type=float, default=SyntheticSpec.duration_s, help="seconds per file")
    p.add_argument("--seed", **seed)
    p.add_argument("--jobs", type=int, default=1, help="parallel workers")
    p.set_defaults(handler=cmd_synth)

    p = sub.add_parser("extract", help="extract per-segment features into a store")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True, help="feature store CSV path")
    p.add_argument("--plan", default="bisample",
                   help="segment plan preset or start:dur,start:dur list")
    p.add_argument("--correlation-out", default=None,
                   help="also write the feature correlation matrix CSV")
    p.add_argument("--strict", action="store_true",
                   help="fail (exit 2) if any file cannot be processed")
    p.add_argument("--jobs", type=int, default=1, help="parallel workers")
    _add_mfcc_options(p)
    p.set_defaults(handler=cmd_extract)

    def add_fit_options(p, with_grid):
        p.add_argument("--features", required=True, help="feature store CSV")
        p.add_argument("--out", required=True, help="model bundle path")
        p.add_argument("--family", required=True, choices=FAMILY_ORDER)
        p.add_argument("--params", nargs="*", default=[], metavar="NAME=VALUE")
        if with_grid:
            p.add_argument("--grid", nargs="+", required=True, metavar="NAME=V1,V2")
            p.add_argument("--report-out", default=None, help="grid report JSON path")
            p.add_argument("--cv", type=int, default=None,
                           help="select by k-fold inside the training split instead of the holdout")
        p.add_argument("--scaler", default=ExperimentConfig.scaler, choices=SCALER_KINDS)
        p.add_argument("--split-level", default=ExperimentConfig.split_level, choices=SPLIT_LEVELS)
        p.add_argument("--val-fraction", type=float, default=ExperimentConfig.val_fraction)
        p.add_argument("--split-out", default=None, help="write id,role split CSV")
        p.add_argument("--seed", **seed)

    p = sub.add_parser("train", help="fit one model with fixed parameters")
    add_fit_options(p, with_grid=False)
    p.set_defaults(handler=cmd_train)

    p = sub.add_parser("tune", help="holdout grid search, keep the best model")
    add_fit_options(p, with_grid=True)
    p.set_defaults(handler=cmd_tune)

    p = sub.add_parser("evaluate", help="score a saved model against a store")
    p.add_argument("--features", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--out", default=None, help="report JSON path")
    p.set_defaults(handler=cmd_evaluate)

    p = sub.add_parser("classify", help="score one WAV file")
    p.add_argument("--model", required=True)
    p.add_argument("--wav", required=True)
    p.set_defaults(handler=cmd_classify)

    p = sub.add_parser("recommend", help="mood-transition playlist from a feature store")
    p.add_argument("--model", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--from", dest="from_rasa", required=True, metavar="RASA")
    p.add_argument("--to", dest="to_rasa", required=True, metavar="RASA")
    p.add_argument("--length", type=int, default=5)
    p.add_argument("--out", default=None, help="playlist JSON path")
    p.set_defaults(handler=cmd_recommend)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (MoodkitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
