#!/usr/bin/env python3
"""End-to-end demo: synthesize a corpus and run every pipeline stage.

Builds a mixed corpus (one block of venues with a planted lift, one block
with a platform-wide decline so both outcome classes appear), then runs
segment -> test -> match -> reference test -> features -> train -> report
through the CLI and prints the headline numbers from report.json.

Usage: python scripts/run_pipeline.py [workdir] [--venues N] [--seed S]
"""

import argparse
import json
import sys
import tempfile
from pathlib import Path

from campaignfx.cli import main as cli


def run(args):
    code = cli([str(a) for a in args])
    if code != 0:
        sys.exit(f"command failed ({code}): {' '.join(str(a) for a in args)}")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("workdir", nargs="?", default=None)
    parser.add_argument("--venues", type=int, default=60, help="venues per corpus block")
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    base = Path(args.workdir) if args.workdir else Path(tempfile.mkdtemp(prefix="campaignfx-"))
    base.mkdir(parents=True, exist_ok=True)
    corpus = base / "corpus"
    out = base / "out"
    print(f"working directory: {base}")

    run(["synth", "--venues", args.venues, "--days", 100, "--promo-fraction", 0.5,
         "--effect-multiplier", 0.6, "--trend", 0.01, "--zero-fraction", 0.05,
         "--seed", args.seed, "--venue-prefix", "a", "--out", base / "block_a"])
    run(["synth", "--venues", args.venues, "--days", 100, "--promo-fraction", 0.5,
         "--trend", -0.012, "--zero-fraction", 0.05,
         "--seed", args.seed + 1, "--venue-prefix", "b", "--out", base / "block_b"])
    corpus.mkdir(exist_ok=True)
    for name in ("snapshots.jsonl", "offers.jsonl", "venues.jsonl"):
        (corpus / name).write_text(
            (base / "block_a" / name).read_text() + (base / "block_b" / name).read_text()
        )

    common = ["--snapshots", corpus / "snapshots.jsonl", "--offers", corpus / "offers.jsonl",
              "--seed", args.seed]
    run(["segment", *common, "--out", out])
    run(["test", *common, "--jobs", 2, "--out", out])
    run(["match", *common, "--venues", corpus / "venues.jsonl", "--n-groups", 5, "--out", out])
    run(["test", *common, "--groups", out / "groups.csv", "--jobs", 2, "--out", out])
    run(["features", *common, "--venues", corpus / "venues.jsonl",
         "--effects", out / "effects.csv", "--out", out])
    run(["train", "--features", out / "features.csv", "--seed", args.seed, "--folds", 5,
         "--out", out])
    run(["report", "--effects", out / "effects.csv",
         "--reference-effects", out / "reference_effects.csv",
         "--features", out / "features.csv", "--model-metrics", out / "model_metrics.json",
         "--venues", corpus / "venues.jsonl", "--seed", args.seed, "--folds", 5, "--out", out])

    report = json.loads((out / "report.json").read_text())
    print("\n--- headline numbers ---")
    print(f"promotion tests (one per campaign window and horizon): {report['cohort_summary']['n_promotion_tests']}")
    for horizon, tables in report["effect_tables"].items():
        promo = tables.get("promotion", {}).get("significant_only")
        ref = tables.get("reference", {}).get("significant_only")
        if promo:
            line = f"{horizon}: promotion increase fraction {promo['fraction']:.3f}"
            if ref:
                line += f" vs reference {ref['fraction']:.3f} [{ref['ci_low']:.3f}, {ref['ci_high']:.3f}]"
            print(line)
    best = max(
        (m for m in report["model_metrics"] if "metrics" in m),
        key=lambda m: m["metrics"]["auc"],
        default=None,
    )
    if best:
        print(f"best model: {best['model']} on {'+'.join(best['feature_sets'])} "
              f"({best['horizon']}) AUC {best['metrics']['auc']:.3f}")
    print(f"report: {out / 'report.json'}")


if __name__ == "__main__":
    main()
