"""Batch command-line front end.

Subcommands mirror the pipeline stages: ``synth`` builds a seeded corpus,
``segment``/``test`` run eligibility and the bootstrap tests, ``match``
builds reference groups, ``features``/``train`` produce the learning
artifacts, and ``report`` aggregates everything into ``report.json``.

Each command computes all of its artifacts before any is saved, and
``write_artifacts`` saves them together. Exit codes: 0 success, 1 validation
error, 2 I/O error. A failing command adds no artifacts and leaves existing
ones as they were. The first command to parse a snapshot file leaves its
parse in ``--out`` as one more artifact, which later commands on the same
bytes load instead of parsing again (``snapcache``).
"""

from __future__ import annotations

import argparse
import errno
import functools
import json
import os
import sys
from dataclasses import asdict, fields
from pathlib import Path
from typing import BinaryIO, Callable, Optional, Sequence

from .campaign import EligibilityReport, offer_stats
from .cohort import parse_venues
from .config import RunConfig, build_run_config
from .errors import CampaignFxError, InvalidConfig
from .pipeline import (
    LoadedCorpus,
    load_corpus,
    match_stage,
    read_effects_csv,
    read_groups_csv,
    reference_test_stage,
    segment_stage,
    test_stage,
    write_campaigns_csv,
    write_effects_csv,
    write_groups_csv,
    write_skipped_csv,
    features_stage,
)
from .features import read_features_csv, write_features_csv
from .report import build_report, feature_auc_csv, render_report, train_models
from .series import MAX_GRID_DAYS, ParseError
from .snapcache import CACHE_NAME, cache_key, load_cache, read_lines, write_cache
from .synth import SynthConfig, generate_corpus_data

# every knob but horizon is a number flag of its default's type
_KNOB_FLAGS = tuple((f.name, type(f.default)) for f in fields(RunConfig) if f.name != "horizon")

# artifact file name -> its text, or a function writing its bytes to a file
Artifacts = dict[str, str | Callable[[BinaryIO], None]]


def write_artifacts(out: Path, artifacts: Artifacts) -> None:
    """Save every artifact under ``out``, or none of them.

    Each artifact first goes to a temporary sibling; only when all are
    written does each replace its target. Temporaries left by a failure are
    removed.
    """
    out.mkdir(parents=True, exist_ok=True)
    staged = []
    try:
        for name, content in artifacts.items():
            tmp, path = out / f".{name}.tmp", out / name
            if path.is_dir():  # the one target a replace would still refuse
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
            staged.append((tmp, path))
            if isinstance(content, str):
                tmp.write_text(content)
            else:
                with tmp.open("wb") as f:
                    content(f)
        for tmp, path in staged:
            os.replace(tmp, path)
            print(f"wrote {path}")
    finally:
        for tmp, _ in staged:
            tmp.unlink(missing_ok=True)


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", type=Path, help="key = value config file")
    for name, kind in _KNOB_FLAGS:
        parser.add_argument(f"--{name.replace('_', '-')}", dest=name, type=kind, default=None)
    parser.add_argument("--horizon", choices=("short", "long", "both"), default=None)


def _add_corpus_flags(parser: argparse.ArgumentParser, venues: bool = False) -> None:
    parser.add_argument("--snapshots", type=Path, required=True)
    parser.add_argument("--offers", type=Path, required=True)
    if venues:
        parser.add_argument("--venues", type=Path, required=True)


def _run_config(args: argparse.Namespace) -> RunConfig:
    file_text = args.config.read_text() if args.config is not None else None
    overrides = {name: getattr(args, name) for name, _ in _KNOB_FLAGS}
    overrides["horizon"] = args.horizon
    return build_run_config(file_text=file_text, overrides=overrides)


def _read_table(path: Path, reader: Callable[[str], list]) -> list:
    """``reader`` of the artifact CSV at ``path``; a malformed table is an error naming the file."""
    try:
        return reader(path.read_text())
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _warn_parse_errors(path: Path, errors: Sequence[ParseError]) -> None:
    if errors:
        print(
            f"warning: {len(errors)} malformed records skipped in {path} "
            f"(first: line {errors[0].line_no}: {errors[0].message})",
            file=sys.stderr,
        )


def _stage_inputs(
    args: argparse.Namespace, venues_required: Optional[str] = None
) -> tuple[RunConfig, LoadedCorpus, EligibilityReport, Artifacts]:
    """Config, loaded corpus and eligibility report of a corpus-reading command.

    With ``venues_required`` (the error message), the venues file is loaded
    too and must yield at least one profile. The artifacts returned hold the
    snapshot parse cache when it had to be parsed, and nothing otherwise.
    """
    config = _run_config(args)
    key = cache_key(args.snapshots)
    cached = load_cache(args.out / CACHE_NAME, key)
    inputs = [cached if cached is not None else read_lines(args.snapshots), read_lines(args.offers)]
    if venues_required:
        inputs.append(read_lines(args.venues))
    corpus = load_corpus(*inputs)
    artifacts: Artifacts = {}
    if cached is None:
        artifacts[CACHE_NAME] = functools.partial(write_cache, key=key, report=corpus.snapshot_parse)
    for name, errors in corpus.parse_errors.items():
        _warn_parse_errors(getattr(args, name), errors)
    for skipped, what, why in (
        (corpus.long_span_venues, "venues", f"readings span {MAX_GRID_DAYS} days or more"),
        ([o.special_id for o in corpus.unplaced_offers], "offers", "venue has no usable daily series"),
    ):
        if skipped:
            print(f"warning: {len(skipped)} {what} skipped: {why} (first: {skipped[0]})", file=sys.stderr)
    if venues_required and not corpus.profiles:
        raise InvalidConfig(venues_required)
    return config, corpus, segment_stage(corpus, config), artifacts


def cmd_synth(args: argparse.Namespace) -> Artifacts:
    cfg = SynthConfig(
        n_venues=args.venues,
        days=args.days,
        base_rate_log_mean=args.base_log_mean,
        base_rate_log_sd=args.base_log_sd,
        weekly_seasonality_amp=args.seasonality,
        platform_trend_per_day=args.trend,
        promo_fraction=args.promo_fraction,
        effect_multiplier=args.effect_multiplier,
        zero_venue_fraction=args.zero_fraction,
        seed=args.seed if args.seed is not None else 0,
        poll_jitter_hours=args.jitter_hours,
        venue_prefix=args.venue_prefix,
    )
    corpus = generate_corpus_data(cfg)
    truth = corpus.ground_truth_lines()
    return {
        "snapshots.jsonl": "\n".join(corpus.snapshot_lines()) + "\n",
        "offers.jsonl": "\n".join(corpus.offer_lines()) + "\n",
        "venues.jsonl": "\n".join(corpus.venue_lines()) + "\n",
        "ground_truth.jsonl": ("\n".join(truth) + "\n") if truth else "",
    }


def cmd_segment(args: argparse.Namespace) -> Artifacts:
    config, corpus, eligibility, artifacts = _stage_inputs(args)
    print(f"eligible campaigns: {len(eligibility.eligible)}, skipped: {len(eligibility.skipped)}")
    return artifacts | {
        "campaigns.csv": write_campaigns_csv(eligibility),
        "skipped.csv": write_skipped_csv(eligibility),
        "offer_stats.json": render_report(asdict(offer_stats(corpus.periods))),
    }


def cmd_test(args: argparse.Namespace) -> Artifacts:
    config, corpus, eligibility, artifacts = _stage_inputs(args)
    if args.groups is not None:
        groups = _read_table(args.groups, read_groups_csv)
        effects = reference_test_stage(corpus, groups, config)
        print(f"tested {len(effects)} reference windows")
        return artifacts | {"reference_effects.csv": write_effects_csv(effects)}
    effects = test_stage(corpus, eligibility, config)
    print(f"tested {len(effects)} campaign windows")
    return artifacts | {"effects.csv": write_effects_csv(effects)}


def cmd_match(args: argparse.Namespace) -> Artifacts:
    config, corpus, eligibility, artifacts = _stage_inputs(
        args, venues_required="matching requires a venues file with profiles"
    )
    result = match_stage(corpus, eligibility, config)
    filled = sum(len(g.members) for g in result.groups)
    print(
        f"groups: {len(result.groups)}, members: {filled}, "
        f"exhausted slots: {result.exhausted_count}, unfittable: {result.unfittable_count}, "
        f"zero-activity removed: {result.zero_removed}"
    )
    return artifacts | {"groups.csv": write_groups_csv(result.groups)}


def cmd_features(args: argparse.Namespace) -> Artifacts:
    config, corpus, eligibility, artifacts = _stage_inputs(
        args, venues_required="feature extraction requires a venues file"
    )
    effects = _read_table(args.effects, read_effects_csv)
    rows = features_stage(corpus, eligibility, effects, config)
    print(f"extracted {len(rows)} feature rows")
    return artifacts | {"features.csv": write_features_csv(rows)}


def cmd_train(args: argparse.Namespace) -> Artifacts:
    config = _run_config(args)
    rows = _read_table(args.features, read_features_csv)
    metrics, gaps = train_models(rows, config)
    payload = {
        "models": metrics,
        "rms_gaps": gaps,
        "seed": config.seed,
        "folds": config.folds,
    }
    print(f"trained {len(metrics)} model configurations")
    return {"model_metrics.json": render_report(payload)}


def cmd_report(args: argparse.Namespace) -> Artifacts:
    config = _run_config(args)
    effects = _read_table(args.effects, read_effects_csv)
    reference = _read_table(args.reference_effects, read_effects_csv) if args.reference_effects else []
    feature_rows = _read_table(args.features, read_features_csv) if args.features else []
    profiles = []
    if args.venues:
        venue_report = parse_venues(read_lines(args.venues))
        _warn_parse_errors(args.venues, venue_report.errors)
        profiles = venue_report.profiles
    model_payload = json.loads(args.model_metrics.read_text()) if args.model_metrics else {}

    promo_keys = {(e.venue_id, e.start_day) for e in effects}
    group_ids = {e.group_id for e in reference if e.group_id is not None}
    summary = {
        "n_venues": len(profiles) if profiles else None,
        "n_promotion_campaigns": len(promo_keys),
        "n_promotion_tests": len(effects),
        "n_long_term_tests": sum(1 for e in effects if e.horizon.value == "LongTerm"),
        "n_reference_tests": len(reference),
        "n_reference_groups": len(group_ids),
        "n_degenerate_tests": sum(1 for e in effects if e.result.degenerate),
    }
    report = build_report(
        config,
        summary,
        effects,
        reference,
        profiles,
        feature_rows,
        model_payload.get("models"),
        model_payload.get("rms_gaps"),
    )
    artifacts = {"report.json": render_report(report)}
    if feature_rows:
        artifacts["feature_aucs.csv"] = feature_auc_csv(report["feature_aucs"])
    return artifacts


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="campaignfx")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a seeded synthetic corpus")
    p.add_argument("--venues", type=int, required=True)
    p.add_argument("--days", type=int, default=120)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--promo-fraction", type=float, default=0.1)
    p.add_argument("--effect-multiplier", type=float, default=0.0)
    p.add_argument("--zero-fraction", type=float, default=0.0)
    p.add_argument("--seasonality", type=float, default=0.15)
    p.add_argument("--trend", type=float, default=0.0)
    p.add_argument("--jitter-hours", type=float, default=2.0)
    p.add_argument("--base-log-mean", type=float, default=1.0)
    p.add_argument("--base-log-sd", type=float, default=0.6)
    p.add_argument("--venue-prefix", default="v")
    p.add_argument("--out", type=Path, required=True)
    p.set_defaults(func=cmd_synth)

    stage = {}
    for name, func, help_text in (
        ("segment", cmd_segment, "eligibility filters and segmentation"),
        ("test", cmd_test, "bootstrap tests for eligible campaigns"),
        ("match", cmd_match, "build matched reference groups"),
        ("features", cmd_features, "extract feature vectors"),
        ("train", cmd_train, "cross-validate classifiers"),
        ("report", cmd_report, "aggregate results into report.json"),
    ):
        p = stage[name] = sub.add_parser(name, help=help_text)
        p.add_argument("--out", type=Path, required=True)
        _add_config_flags(p)
        p.set_defaults(func=func)

    _add_corpus_flags(stage["segment"])
    _add_corpus_flags(stage["test"])
    stage["test"].add_argument(
        "--groups", type=Path,
        help="reference groups CSV; tests only the reference groups' pseudo-campaigns "
             "(run test first for effects.csv)",
    )
    _add_corpus_flags(stage["match"], venues=True)
    _add_corpus_flags(stage["features"], venues=True)
    stage["features"].add_argument("--effects", type=Path, required=True)
    stage["train"].add_argument("--features", type=Path, required=True)

    p = stage["report"]
    p.add_argument("--effects", type=Path, required=True)
    p.add_argument("--reference-effects", type=Path)
    p.add_argument("--features", type=Path)
    p.add_argument("--model-metrics", type=Path)
    p.add_argument("--venues", type=Path)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        write_artifacts(args.out, args.func(args))
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (CampaignFxError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
