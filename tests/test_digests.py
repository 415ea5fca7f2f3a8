"""Pinned SHA-256 digests of every artifact of the ``scripts/run_pipeline.py --seed 7`` sequence.

A change that alters an output on purpose updates ``PINNED`` and names each
artifact that moved, and why, in ``CHANGES.md``.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import campaignfx
from campaignfx.cli import main
from campaignfx.snapcache import CACHE_NAME

PINNED = {
    "campaigns.csv": "d20bf51d0e1e49f1fb0364ebd6d18c6612981a986188c150b17218f66b155d35",
    "effects.csv": "c1ce3d0bae1789c667e65ddafc2edb1af5cd208a390aaf373b368fdb9dfe4a07",
    "feature_aucs.csv": "baeb41a9f340d0cd38dcdf3e9b80de6632a93dd777dbedca2725bd89b18454c0",
    "features.csv": "e79eccf397cea46b2df7cf7f30a5f19f79b7f64e2068a633911ec48330b22611",
    "groups.csv": "090d49f5a95a47bbb85ecb95a142e233afb9be017dbcff8b40172bcdfd9fd055",
    "model_metrics.json": "2e717df401e0e51f6162b946e4fdb0d2e1d07915f68be4a5679b2773ef2dfd1d",
    "offer_stats.json": "4e9a84fe0ca46dbd201991bd3d93f85c8e4f1e04ca20a918c17d0b14f274de66",
    "reference_effects.csv": "b585171c350302689e1b912501e8331e1e518a815a53fc273fb995ba62a976b1",
    "report.json": "1e437707973634a76b0b76871b48b321ea98462b41e9868af7e6b48d431cc2e0",
    "skipped.csv": "0a8793bc02103af0c84529f2b343c49f9acf81d958cc9938886c0cf5365a0c69",
    CACHE_NAME: "5b43002fef594c24741986371a11043d59a5131f437ca39f9ac24198bfd9ada4",
}


def run(args):
    code = main([str(a) for a in args])
    assert code == 0, args


def pipeline_digests(base: Path, jobs: int, seed: int = 7, venues: int = 60) -> dict[str, str]:
    """SHA-256 of each file ``scripts/run_pipeline.py`` writes to ``base / "out"``, with ``--jobs jobs``.

    The cache's digest covers its payload: the bytes after its key and payload digest.
    """
    corpus, out = base / "corpus", base / "out"
    run(["synth", "--venues", venues, "--days", 100, "--promo-fraction", 0.5,
         "--effect-multiplier", 0.6, "--trend", 0.01, "--zero-fraction", 0.05,
         "--seed", seed, "--venue-prefix", "a", "--out", base / "block_a"])
    run(["synth", "--venues", venues, "--days", 100, "--promo-fraction", 0.5,
         "--trend", -0.012, "--zero-fraction", 0.05,
         "--seed", seed + 1, "--venue-prefix", "b", "--out", base / "block_b"])
    corpus.mkdir()
    for name in ("snapshots.jsonl", "offers.jsonl", "venues.jsonl"):
        (corpus / name).write_text(
            (base / "block_a" / name).read_text() + (base / "block_b" / name).read_text()
        )
    common = ["--snapshots", corpus / "snapshots.jsonl", "--offers", corpus / "offers.jsonl", "--seed", seed]
    run(["segment", *common, "--out", out])
    run(["test", *common, "--jobs", jobs, "--out", out])
    run(["match", *common, "--venues", corpus / "venues.jsonl", "--n-groups", 5, "--out", out])
    run(["test", *common, "--groups", out / "groups.csv", "--jobs", jobs, "--out", out])
    run(["features", *common, "--venues", corpus / "venues.jsonl", "--effects", out / "effects.csv", "--out", out])
    run(["train", "--features", out / "features.csv", "--seed", seed, "--folds", 5, "--jobs", jobs, "--out", out])
    run(["report", "--effects", out / "effects.csv", "--reference-effects", out / "reference_effects.csv",
         "--features", out / "features.csv", "--model-metrics", out / "model_metrics.json",
         "--venues", corpus / "venues.jsonl", "--seed", seed, "--folds", 5, "--out", out])
    return {
        path.name: hashlib.sha256(path.read_bytes()[64 if path.name == CACHE_NAME else 0:]).hexdigest()
        for path in sorted(out.iterdir())
    }


@pytest.mark.parametrize("jobs", [1, 2])
def test_pipeline_outputs_are_pinned(jobs, tmp_path):
    assert pipeline_digests(tmp_path, jobs) == PINNED


def test_forkserver_writes_the_pinned_outputs(tmp_path):
    """A fresh interpreter whose start method is ``forkserver`` writes the bytes a ``fork`` run writes."""
    code = (
        "import json, multiprocessing, sys\n"
        "multiprocessing.set_start_method('forkserver')\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "from test_digests import pipeline_digests\n"
        "from pathlib import Path\n"
        "print(json.dumps(pipeline_digests(Path(sys.argv[2]), 2)))\n"
    )
    src = str(Path(campaignfx.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code, str(Path(__file__).parent), str(tmp_path)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == PINNED
