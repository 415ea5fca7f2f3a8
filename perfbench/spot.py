#!/usr/bin/env python3
"""Re-measure the ROADMAP item 1 spot numbers once, single runs, no checks.

Run from the root of a checkout (takes a few minutes):

    python3 perfbench/spot.py

M corpus: 4,000 venues x 100 days, 10% promoted, seed 1; in-process
stages with --jobs 2 and the default 20 reference groups. Then the
``scripts/run_pipeline.py --venues 1000`` command sequence, timed per
command. Work files go under .bench_work/ and are removed.
"""

from __future__ import annotations

import json
import shutil
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "scripts"))

from campaignfx import cli  # noqa: E402
from campaignfx.config import RunConfig  # noqa: E402
from campaignfx.pipeline import (  # noqa: E402
    load_corpus, match_stage, reference_test_stage, segment_stage, test_stage,
)
from campaignfx.synth import SynthConfig, generate_corpus_data  # noqa: E402


def timed(fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - start


def m_corpus() -> dict:
    corpus = generate_corpus_data(SynthConfig(
        n_venues=4000, days=100, promo_fraction=0.10, weekly_seasonality_amp=0.15, seed=1))
    lines = (corpus.snapshot_lines(), corpus.offer_lines(), corpus.venue_lines())
    loaded, load_s = timed(load_corpus, *lines)
    config = RunConfig(seed=1, jobs=2)
    eligibility = segment_stage(loaded, config)
    effects, test_s = timed(test_stage, loaded, eligibility, config)
    match = match_stage(loaded, eligibility, config)
    reference, ref_s = timed(reference_test_stage, loaded, match.groups, config)
    return {
        "snapshot_lines": len(lines[0]),
        "load_corpus_s": load_s,
        "load_us_per_line": load_s / len(lines[0]) * 1e6,
        "promotion_windows": len(effects),
        "promotion_test_s": test_s,
        "reference_windows": len(reference),
        "reference_test_s": ref_s,
    }


def run_pipeline(work: Path) -> dict:
    import run_pipeline as rp

    times: dict[str, float] = {}

    def timed_cli(argv):
        start = time.perf_counter()
        code = cli.main(argv)
        name = argv[0] + ("-groups" if "--groups" in argv else "")
        times[name] = times.get(name, 0.0) + time.perf_counter() - start
        return code

    rp.cli = timed_cli
    sys.argv = ["run_pipeline.py", str(work), "--venues", "1000"]
    rp.main()
    times["total"] = sum(times.values())
    return times


def main() -> None:
    work = ROOT / ".bench_work" / "spot"
    try:
        result = {"m_corpus": m_corpus(), "run_pipeline_1000_s": run_pipeline(work)}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result, indent=2))


if __name__ == "__main__":
    main()
