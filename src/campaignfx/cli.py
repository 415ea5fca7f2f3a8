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
from dataclasses import asdict
from pathlib import Path
from typing import Any, BinaryIO, Callable, Optional, Sequence

from .campaign import EligibilityReport, offer_stats
from .cohort import parse_venues
from .config import RunConfig, build_run_config, parse_config_file
from .effect import Horizon
from .errors import CampaignFxError, InvalidConfig
from .pipeline import (
    Drops,
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
from .series import ParseError
from .snapcache import CACHE_NAME, cache_key, load_cache, read_lines, write_cache
from .synth import SynthConfig, generate_corpus_data

# synth's flags in --help order: (flag, SynthConfig field, type, default); no default makes a flag required
_SYNTH_FLAGS = (
    ("--venues", "n_venues", int, None),
    ("--days", "days", int, 120),
    ("--seed", "seed", int, 0),
    ("--promo-fraction", "promo_fraction", float, 0.1),
    ("--effect-multiplier", "effect_multiplier", float, 0.0),
    ("--zero-fraction", "zero_venue_fraction", float, 0.0),
    ("--seasonality", "weekly_seasonality_amp", float, 0.15),
    ("--trend", "platform_trend_per_day", float, 0.0),
    ("--jitter-hours", "poll_jitter_hours", float, 2.0),
    ("--base-log-mean", "base_rate_log_mean", float, 1.0),
    ("--base-log-sd", "base_rate_log_sd", float, 0.6),
    ("--venue-prefix", "venue_prefix", str, "v"),
)

# every knob but horizon is a number flag of its default's type
_KNOB_FLAGS = tuple((name, type(value)) for name, value in asdict(RunConfig()).items() if name != "horizon")

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
    parser.add_argument("--horizon", choices=(*(h.flag for h in Horizon), "both"), default=None)


def _add_corpus_flags(parser: argparse.ArgumentParser, venues: bool = False) -> None:
    parser.add_argument("--snapshots", type=Path, required=True)
    parser.add_argument("--offers", type=Path, required=True)
    if venues:
        parser.add_argument("--venues", type=Path, required=True)


def _run_config(args: argparse.Namespace) -> RunConfig:
    file_values = _read_table(args.config, parse_config_file) if args.config is not None else None
    overrides = {name: getattr(args, name) for name, _ in _KNOB_FLAGS}
    overrides["horizon"] = args.horizon
    return build_run_config(file_values, overrides, file_name=str(args.config))


def _read_table(path: Path, reader: Callable[[str], Any]) -> Any:
    """``reader`` of the file at ``path``; a malformed file is an error naming it."""
    try:
        return reader(path.read_text())
    except (ValueError, InvalidConfig) as exc:
        raise ValueError(f"{path}: {exc}") from None


def _not_a_number(token: str) -> None:
    raise ValueError(f"{token} is not a finite number")


def _model_payload(text: str) -> dict:
    """``train``'s payload: a JSON object whose ``models``, where present, is a list of objects and whose
    ``rms_gaps``, where present, is an object of objects of numbers. ``NaN`` and ``Infinity`` are not numbers."""
    payload = json.loads(text, parse_constant=_not_a_number)
    if not isinstance(payload, dict):
        raise ValueError("expected a JSON object")
    models, gaps = payload.get("models", []), payload.get("rms_gaps", {})
    if not (isinstance(models, list) and all(isinstance(m, dict) for m in models)):
        raise ValueError("models must be a list of objects")
    if not (isinstance(gaps, dict) and all(
            isinstance(g, dict) and all(type(v) in (int, float) for v in g.values()) for g in gaps.values())):
        raise ValueError("rms_gaps must be an object of objects of numbers")
    return payload


def _warn(drops: Drops, start: int = 0) -> None:
    """One warning for each reason in ``drops``, from the ``start``-th on, that skipped anything."""
    for key, skipped in list(drops.items())[start:]:
        if skipped:
            print(f"warning: {len(skipped)} {key} (first: {skipped[0]})", file=sys.stderr)


def _malformed(path: Path, errors: Sequence[ParseError]) -> Drops:
    return {f"malformed records skipped in {path}": [f"line {e.line_no}: {e.message}" for e in errors]}


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
        _warn(_malformed(getattr(args, name), errors))
    _warn(corpus.drops)
    if venues_required and not corpus.profiles:
        raise InvalidConfig(venues_required)
    return config, corpus, segment_stage(corpus, config), artifacts


def cmd_synth(args: argparse.Namespace) -> Artifacts:
    corpus = generate_corpus_data(SynthConfig(**{name: getattr(args, name) for _, name, _, _ in _SYNTH_FLAGS}))
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
    loaded = len(corpus.drops)
    if args.groups is not None:
        effects = reference_test_stage(corpus, _read_table(args.groups, read_groups_csv), config)
        kind, name = "reference", "reference_effects.csv"
    else:
        effects = test_stage(corpus, eligibility, config)
        kind, name = "campaign", "effects.csv"
    _warn(corpus.drops, loaded)
    windows = len({(e.group_id, e.venue_id, e.start_day) for e in effects})  # one test per window and horizon
    print(f"tested {windows} {kind} windows ({len(effects)} tests)")
    return artifacts | {name: write_effects_csv(effects)}


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
    loaded = len(corpus.drops)
    rows = features_stage(corpus, eligibility, effects, config)
    _warn(corpus.drops, loaded)
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
        _warn(_malformed(args.venues, venue_report.errors))
        profiles = venue_report.profiles
    model_payload = _read_table(args.model_metrics, _model_payload) if args.model_metrics else {}
    report = build_report(
        config, effects, reference, profiles, feature_rows, model_payload.get("models"), model_payload.get("rms_gaps")
    )
    artifacts = {"report.json": render_report(report)}
    if feature_rows:
        artifacts["feature_aucs.csv"] = feature_auc_csv(report["feature_aucs"])
    return artifacts


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="campaignfx")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a seeded synthetic corpus")
    for flag, name, kind, default in _SYNTH_FLAGS:
        metavar = flag[2:].replace("-", "_").upper()  # argparse's own, from the flag rather than the field
        p.add_argument(flag, dest=name, metavar=metavar, type=kind, default=default, required=default is None)
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
