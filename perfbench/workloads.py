"""Workload definitions: seeded corpora and the CLI command sequence of each.

Every corpus comes from ``campaignfx.synth`` and is written as the three
input files the CLI reads. Before writing, a seeded fraction of snapshot
records is perturbed the way polled API data is: re-polls at an identical
timestamp, counter decreases, and venues with a single poll. The program
handles all three (dedupe, clamp, skip), so no operation fails, and the
data-quality counters the benchmark reports are never zero by construction.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path

from campaignfx.rng import derive_rng
from campaignfx.synth import SynthConfig, SynthCorpus, generate_corpus_data

DUPLICATE_POLL_RATE = 0.01
COUNTER_DROP_RATE = 0.005
SINGLE_POLL_VENUE_RATE = 0.005

INPUT_FILES = ("snapshots.jsonl", "offers.jsonl", "venues.jsonl")
SEED_STRIDE = 10  # corpus seeds of one run are this far apart; blocks take seed + i


@dataclass(frozen=True)
class Workload:
    name: str
    blocks: tuple[dict, ...]   # SynthConfig keyword sets, one per corpus block
    commands: tuple[str, ...]  # CLI subcommands, in pipeline order
    jobs: int
    n_groups: int
    folds: int = 10
    final_artifact: str = "report.json"


WORKLOADS = {
    # The paper's null-result shape (acceptance criterion 4 scaled down): no
    # planted lift, ~5% promoted, 20 reference groups. The box is shrunk with
    # the venue count so each 0.1-degree match cell holds as many candidates
    # per category as criterion 4's 42k-venue corpus. Reference-window
    # bootstraps dominate; models are never called.
    "cohort-null": Workload(
        name="cohort-null",
        blocks=(dict(
            n_venues=900, days=70, promo_fraction=0.05, zero_venue_fraction=0.05,
            base_rate_log_mean=1.6, base_rate_log_sd=0.6,
            platform_trend_per_day=0.008, weekly_seasonality_amp=0.45,
            bbox=(40.0, -80.0, 40.15, -79.85),
        ),),
        commands=("segment", "test", "match", "test-groups", "report"),
        jobs=2,
        n_groups=20,
    ),
    # The scripts/run_pipeline.py shape: one block with a planted lift and one
    # with a platform decline, so both outcome classes exist to train on.
    # 100-day series give full 28/28 long-term windows. Training dominates.
    # Higher, tighter base rates than the script's make most tests significant,
    # so the number of training rows varies little from seed to seed; the
    # forest work still varies by about a tenth. Two 36-venue blocks keep one
    # pass near 6 s, so a run covers each of its corpora at least once.
    "classify": Workload(
        name="classify",
        blocks=(
            dict(n_venues=36, days=100, promo_fraction=0.5, effect_multiplier=0.6,
                 platform_trend_per_day=0.01, zero_venue_fraction=0.05,
                 base_rate_log_mean=2.0, base_rate_log_sd=0.4,
                 weekly_seasonality_amp=0.15, venue_prefix="a"),
            dict(n_venues=36, days=100, promo_fraction=0.5,
                 platform_trend_per_day=-0.012, zero_venue_fraction=0.05,
                 base_rate_log_mean=2.0, base_rate_log_sd=0.4,
                 weekly_seasonality_amp=0.15, venue_prefix="b"),
        ),
        commands=("segment", "test", "match", "test-groups", "features", "train", "report"),
        jobs=2,
        n_groups=5,
        folds=5,
    ),
    # Every venue inside a ~0.05-degree box, single process: each command
    # re-parses the snapshots, and dense neighborhoods make the geographic
    # features read many other venues' readings.
    "ingest-dense": Workload(
        name="ingest-dense",
        blocks=(dict(
            n_venues=700, days=70, promo_fraction=0.10, weekly_seasonality_amp=0.15,
            bbox=(40.40, -80.02, 40.45, -79.97),
        ),),
        commands=("segment", "test", "match", "test-groups", "features"),
        jobs=1,
        n_groups=2,
        final_artifact="features.csv",
    ),
}


def corpus_seed(seed: int, k: int) -> int:
    """Seed of the k-th of the distinct corpora a run with ``seed`` uses."""
    return seed * 100 + SEED_STRIDE * k


def synth_configs(workload: Workload, seed: int) -> list[SynthConfig]:
    assert len(workload.blocks) <= SEED_STRIDE
    return [SynthConfig(seed=seed + i, **block) for i, block in enumerate(workload.blocks)]


def add_api_noise(corpus: SynthCorpus, seed: int) -> None:
    """Perturb snapshot readings in place with seeded polling defects."""
    rng = derive_rng(seed, "perfbench-noise")
    for venue in corpus.venues:
        readings = venue.readings
        if venue.planted is None and rng.random() < SINGLE_POLL_VENUE_RATE:
            venue.readings = readings[:1]
            continue
        out = [readings[0]]
        for prev, reading in zip(readings, readings[1:-1]):
            if prev.checkins >= 3 and rng.random() < COUNTER_DROP_RATE:
                reading = dataclasses.replace(
                    reading, checkins=prev.checkins - int(rng.integers(1, 4)))
            out.append(reading)
            if rng.random() < DUPLICATE_POLL_RATE:
                out.append(reading)
        out.append(readings[-1])
        venue.readings = out


def corpus_lines(workload: Workload, seed: int) -> dict[str, list[str]]:
    """The workload's input files for ``seed``, as lists of lines."""
    lines: dict[str, list[str]] = {name: [] for name in INPUT_FILES}
    for cfg in synth_configs(workload, seed):
        corpus = generate_corpus_data(cfg)
        add_api_noise(corpus, cfg.seed)
        lines["snapshots.jsonl"] += corpus.snapshot_lines()
        lines["offers.jsonl"] += corpus.offer_lines()
        lines["venues.jsonl"] += corpus.venue_lines()
    return lines


def write_corpus(workload: Workload, seed: int, out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    for name, body in corpus_lines(workload, seed).items():
        (out / name).write_text("\n".join(body) + "\n")


def command_args(workload: Workload, command: str, seed: int, corpus: Path, out: Path) -> list[str]:
    """Arguments for one CLI call, mirroring scripts/run_pipeline.py."""
    inputs = ["--snapshots", corpus / "snapshots.jsonl", "--offers", corpus / "offers.jsonl",
              "--seed", seed]
    venues = ["--venues", corpus / "venues.jsonl"]
    if command == "segment":
        args = ["segment", *inputs, "--out", out]
    elif command == "test":
        args = ["test", *inputs, "--jobs", workload.jobs, "--out", out]
    elif command == "match":
        args = ["match", *inputs, *venues, "--n-groups", workload.n_groups, "--out", out]
    elif command == "test-groups":
        args = ["test", *inputs, "--groups", out / "groups.csv", "--jobs", workload.jobs,
                "--out", out]
    elif command == "features":
        args = ["features", *inputs, *venues, "--effects", out / "effects.csv", "--out", out]
    elif command == "train":
        args = ["train", "--features", out / "features.csv", "--seed", seed,
                "--folds", workload.folds, "--out", out]
    elif command == "report":
        args = ["report", "--effects", out / "effects.csv",
                "--reference-effects", out / "reference_effects.csv", *venues,
                "--seed", seed, "--folds", workload.folds, "--out", out]
        if "features" in workload.commands:
            args += ["--features", out / "features.csv"]
        if "train" in workload.commands:
            args += ["--model-metrics", out / "model_metrics.json"]
    else:
        raise ValueError(f"unknown command {command!r}")
    return [str(a) for a in args]
