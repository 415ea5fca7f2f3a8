import csv
import io
import json

import pytest

from campaignfx.cli import main
from campaignfx.config import build_run_config
from campaignfx.effect import EffectLabel, Horizon
from campaignfx.errors import InvalidConfig
from campaignfx.features import write_features_csv


def run(args):
    return main([str(a) for a in args])


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("corpus")
    assert run([
        "synth", "--venues", 30, "--days", 90, "--promo-fraction", 0.4,
        "--effect-multiplier", 0.8, "--zero-fraction", 0.1, "--seed", 3, "--out", d,
    ]) == 0
    return d


class TestRunConfig:
    def test_default_knobs(self):
        config = build_run_config(env={})
        assert (config.alpha, config.bootstraps, config.block_len, config.power_min) == (
            0.05, 4999, 2, 0.8,
        )
        assert (config.k, config.w_max, config.min_duration) == (28, 28, 7)
        assert (config.radius_miles, config.grid_deg, config.n_groups, config.folds) == (
            0.5, 0.1, 20, 10,
        )

    def test_env_seed_lowest_priority(self):
        config = build_run_config(env={"CAMPAIGNFX_SEED": "99"})
        assert config.seed == 99
        config = build_run_config(file_text="seed = 7", env={"CAMPAIGNFX_SEED": "99"})
        assert config.seed == 7
        config = build_run_config(
            file_text="seed = 7", overrides={"seed": 5}, env={"CAMPAIGNFX_SEED": "99"}
        )
        assert config.seed == 5

    def test_config_file_parsing(self):
        text = "alpha = 0.01  # tighter\nbootstraps=999\n\n# comment only\n"
        config = build_run_config(file_text=text, env={})
        assert config.alpha == 0.01
        assert config.bootstraps == 999

    def test_unknown_key_rejected(self):
        with pytest.raises(InvalidConfig):
            build_run_config(file_text="bogus = 1", env={})

    def test_invalid_value_rejected(self):
        with pytest.raises(InvalidConfig):
            build_run_config(file_text="alpha = 2.0", env={})


class TestSynthCommand:
    def test_artifacts_written(self, corpus_dir):
        for name in ("snapshots.jsonl", "offers.jsonl", "venues.jsonl", "ground_truth.jsonl"):
            assert (corpus_dir / name).exists()
        first = json.loads((corpus_dir / "snapshots.jsonl").read_text().splitlines()[0])
        assert set(first) == {"venue_id", "ts", "checkins", "users", "specials", "tips", "likes"}


class TestPipelineCommands:
    def test_segment_test_match_features_report(self, corpus_dir, tmp_path):
        out = tmp_path / "run"
        common = ["--snapshots", corpus_dir / "snapshots.jsonl", "--offers", corpus_dir / "offers.jsonl"]
        assert run(["segment", *common, "--out", out]) == 0
        assert (out / "campaigns.csv").exists()
        assert (out / "skipped.csv").exists()

        assert run(["test", *common, "--bootstraps", 499, "--seed", 4, "--out", out]) == 0
        effects = (out / "effects.csv").read_text()
        assert effects.splitlines()[0].startswith("group_id,venue_id")

        assert run([
            "match", *common, "--venues", corpus_dir / "venues.jsonl",
            "--n-groups", 3, "--seed", 4, "--out", out,
        ]) == 0
        groups = (out / "groups.csv").read_text()
        assert groups.splitlines()[0] == "group_id,venue_id,pseudo_start,pseudo_end"

        assert run([
            "test", *common, "--groups", out / "groups.csv",
            "--bootstraps", 499, "--seed", 4, "--out", out,
        ]) == 0
        assert (out / "reference_effects.csv").exists()

        assert run([
            "features", *common, "--venues", corpus_dir / "venues.jsonl",
            "--effects", out / "effects.csv", "--out", out,
        ]) == 0
        assert (out / "features.csv").exists()

        assert run([
            "report", "--effects", out / "effects.csv",
            "--reference-effects", out / "reference_effects.csv",
            "--features", out / "features.csv",
            "--venues", corpus_dir / "venues.jsonl",
            "--out", out,
        ]) == 0
        report = json.loads((out / "report.json").read_text())
        assert set(report) == {
            "config", "cohort_summary", "effect_tables", "feature_aucs",
            "model_metrics", "rms_gaps",
        }
        assert report["cohort_summary"]["n_promotion_campaigns"] > 0
        assert "short_term" in report["effect_tables"]
        assert (out / "feature_aucs.csv").read_text().splitlines()[0] == \
            "feature,auc_short,p_short,auc_long,p_long"

    def test_missing_offers_file_exits_2_without_artifacts(self, corpus_dir, tmp_path):
        out = tmp_path / "none"
        code = run([
            "test", "--snapshots", corpus_dir / "snapshots.jsonl",
            "--offers", corpus_dir / "missing.jsonl", "--out", out,
        ])
        assert code == 2
        assert not out.exists() or not any(out.iterdir())

    def test_groups_tests_only_reference_windows(self, corpus_dir, tmp_path):
        out = tmp_path / "run"
        common = ["--snapshots", corpus_dir / "snapshots.jsonl", "--offers", corpus_dir / "offers.jsonl"]
        assert run(["test", *common, "--bootstraps", 199, "--seed", 4, "--out", out]) == 0
        # the corpus's venues lie too far apart to share 0.1-degree match cells
        assert run([
            "match", *common, "--venues", corpus_dir / "venues.jsonl",
            "--n-groups", 3, "--grid-deg", 5, "--seed", 4, "--out", out,
        ]) == 0
        effects = (out / "effects.csv").read_bytes()
        # other knobs, so a re-test of the promotion windows would show in effects.csv
        assert run([
            "test", *common, "--groups", out / "groups.csv", "--bootstraps", 99, "--seed", 4,
            "--out", out,
        ]) == 0
        assert (out / "effects.csv").read_bytes() == effects
        rows = (out / "reference_effects.csv").read_text().splitlines()
        assert len(rows) > 1 and all(row.split(",")[0] for row in rows[1:])

    def test_failing_command_keeps_earlier_artifacts(self, corpus_dir, tmp_path):
        out = tmp_path / "run"
        common = ["--snapshots", corpus_dir / "snapshots.jsonl", "--offers", corpus_dir / "offers.jsonl"]
        other_knobs = ["--k", 35, "--min-duration", 10]
        assert run(["segment", *common, "--out", out]) == 0
        assert run(["segment", *common, *other_knobs, "--out", tmp_path / "other"]) == 0
        campaigns = (out / "campaigns.csv").read_bytes()
        assert (tmp_path / "other" / "campaigns.csv").read_bytes() != campaigns
        (out / "skipped.csv").unlink()
        (out / "skipped.csv").mkdir()
        # campaigns.csv is staged before the directory is met, so a partly
        # saved run would show there
        assert run(["segment", *common, *other_knobs, "--out", out]) == 2
        assert (out / "campaigns.csv").read_bytes() == campaigns
        assert not list(out.glob(".*.tmp"))

    def test_non_finite_numbers_are_skipped_records(self, corpus_dir, tmp_path, capsys):
        offers = ["--offers", corpus_dir / "offers.jsonl"]
        clean = corpus_dir / "snapshots.jsonl"
        first = json.loads(clean.read_text().splitlines()[0])
        dirty = tmp_path / "snapshots.jsonl"
        dirty.write_text(
            clean.read_text()
            + json.dumps({**first, "ts": float("nan")}) + "\n"
            + json.dumps({**first, "checkins": float("inf")}) + "\n"
        )
        assert run(["segment", "--snapshots", clean, *offers, "--out", tmp_path / "clean"]) == 0
        capsys.readouterr()
        assert run(["segment", "--snapshots", dirty, *offers, "--out", tmp_path / "dirty"]) == 0
        assert "warning: 2 malformed records skipped" in capsys.readouterr().err
        assert (tmp_path / "dirty" / "campaigns.csv").read_bytes() == \
            (tmp_path / "clean" / "campaigns.csv").read_bytes()

    def test_venue_spanning_too_many_days_is_skipped(self, corpus_dir, tmp_path, capsys):
        offers = ["--offers", corpus_dir / "offers.jsonl"]
        clean = corpus_dir / "snapshots.jsonl"
        first = json.loads(clean.read_text().splitlines()[0])
        far = {**first, "venue_id": "far"}
        dirty = tmp_path / "snapshots.jsonl"
        dirty.write_text(
            clean.read_text()
            + json.dumps({**far, "ts": 0}) + "\n"
            + json.dumps({**far, "ts": 1e300}) + "\n"
        )
        assert run(["segment", "--snapshots", clean, *offers, "--out", tmp_path / "clean"]) == 0
        capsys.readouterr()
        assert run(["segment", "--snapshots", dirty, *offers, "--out", tmp_path / "dirty"]) == 0
        err = capsys.readouterr().err
        assert "warning: 1 venues skipped: readings span 3660 days or more (first: far)" in err
        for name in ("campaigns.csv", "skipped.csv", "offer_stats.json"):
            assert (tmp_path / "dirty" / name).read_bytes() == (tmp_path / "clean" / name).read_bytes()

    def test_offer_for_venue_without_series_is_counted(self, corpus_dir, tmp_path, capsys):
        snapshots = ["--snapshots", corpus_dir / "snapshots.jsonl"]
        clean = corpus_dir / "offers.jsonl"
        first = json.loads(clean.read_text().splitlines()[0])
        dirty = tmp_path / "offers.jsonl"
        dirty.write_text(
            clean.read_text() + json.dumps({**first, "venue_id": "ghost", "special_id": "ghost-s0"}) + "\n"
        )
        assert run(["segment", *snapshots, "--offers", clean, "--out", tmp_path / "clean"]) == 0
        assert "offers skipped" not in capsys.readouterr().err
        assert run(["segment", *snapshots, "--offers", dirty, "--out", tmp_path / "dirty"]) == 0
        err = capsys.readouterr().err
        assert "warning: 1 offers skipped: venue has no usable daily series (first: ghost-s0)" in err
        for name in ("campaigns.csv", "skipped.csv", "offer_stats.json"):
            assert (tmp_path / "dirty" / name).read_bytes() == (tmp_path / "clean" / name).read_bytes()

    def test_report_warns_about_malformed_venue_lines(self, corpus_dir, tmp_path, capsys):
        out = tmp_path / "run"
        common = ["--snapshots", corpus_dir / "snapshots.jsonl", "--offers", corpus_dir / "offers.jsonl"]
        assert run(["test", *common, "--bootstraps", 99, "--horizon", "short", "--out", out]) == 0
        lines = (corpus_dir / "venues.jsonl").read_text().splitlines()
        bad = json.dumps({**json.loads(lines[0]), "venue_id": "bad", "lat": 95.0})
        venues = tmp_path / "venues.jsonl"
        venues.write_text("\n".join([*lines, bad]) + "\n")
        capsys.readouterr()
        assert run(["report", "--effects", out / "effects.csv", "--venues", venues, "--out", out]) == 0
        err = capsys.readouterr().err
        assert f"warning: 1 malformed records skipped (first: line {len(lines) + 1}: " in err
        report = json.loads((out / "report.json").read_text())
        assert report["cohort_summary"]["n_venues"] == len(lines)

    def test_invalid_knob_exits_1(self, corpus_dir, tmp_path):
        code = run([
            "segment", "--snapshots", corpus_dir / "snapshots.jsonl",
            "--offers", corpus_dir / "offers.jsonl", "--alpha", 3.0,
            "--out", tmp_path / "x",
        ])
        assert code == 1


@pytest.fixture(scope="module")
def stage_dir(corpus_dir, tmp_path_factory):
    """effects.csv and groups.csv of a quick test and match run on the module corpus."""
    out = tmp_path_factory.mktemp("stages")
    common = ["--snapshots", corpus_dir / "snapshots.jsonl", "--offers", corpus_dir / "offers.jsonl"]
    assert run(["test", *common, "--bootstraps", 99, "--horizon", "short", "--out", out]) == 0
    assert run([
        "match", *common, "--venues", corpus_dir / "venues.jsonl",
        "--n-groups", 3, "--grid-deg", 5, "--seed", 4, "--out", out,
    ]) == 0
    return out


def without_column(src, dst, name):
    """Copy the CSV at ``src`` to ``dst`` with column ``name`` left out."""
    rows = list(csv.reader(io.StringIO(src.read_text())))
    keep = [i for i, column in enumerate(rows[0]) if column != name]
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([[row[i] for i in keep] for row in rows])
    dst.write_text(buf.getvalue())
    return dst


class TestMalformedArtifacts:
    """A bad artifact CSV ends its command with exit 1 and one error line, not a traceback."""

    def assert_rejected(self, capsys, code, path, line_no):
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: line {line_no}: ")
        assert "Traceback" not in err

    def test_features_row_without_category(self, tmp_path, capsys):
        text = write_features_csv(crafted_features())
        header, *rows = text.splitlines()
        cells = rows[0].split(",")
        for i, column in enumerate(header.split(",")):
            if column.startswith("cat_"):
                cells[i] = "0.0"
        features = tmp_path / "features.csv"
        features.write_text("\n".join([header, ",".join(cells), *rows[1:]]) + "\n")
        out = tmp_path / "models"
        code = run(["train", "--features", features, "--folds", 5, "--out", out])
        self.assert_rejected(capsys, code, features, 2)
        assert not out.exists()

    def test_effects_without_diff_column(self, stage_dir, tmp_path, capsys):
        effects = without_column(stage_dir / "effects.csv", tmp_path / "effects.csv", "diff")
        out = tmp_path / "report"
        code = run(["report", "--effects", effects, "--out", out])
        self.assert_rejected(capsys, code, effects, 1)
        assert not out.exists()

    def test_groups_without_pseudo_end_column(self, corpus_dir, stage_dir, tmp_path, capsys):
        groups = without_column(stage_dir / "groups.csv", tmp_path / "groups.csv", "pseudo_end")
        out = tmp_path / "ref"
        code = run([
            "test", "--snapshots", corpus_dir / "snapshots.jsonl",
            "--offers", corpus_dir / "offers.jsonl", "--groups", groups, "--out", out,
        ])
        self.assert_rejected(capsys, code, groups, 1)
        assert not out.exists()


def crafted_features(n=60):
    from campaignfx.campaign import OfferKind
    from campaignfx.cohort import Category
    from campaignfx.features import FeatureVector, GeoFeatures, PromoFeatures, VenueFeatures
    from campaignfx.rng import derive_rng

    rng = derive_rng(81)
    rows = []
    for horizon in (Horizon.SHORT_TERM, Horizon.LONG_TERM):
        for i in range(n):
            positive = i % 2 == 0
            label = EffectLabel.SIGNIFICANT_INCREASE if positive else (
                EffectLabel.SIGNIFICANT_DECREASE if i % 4 == 1 else EffectLabel.POWERED_NULL
            )
            if i % 10 == 9:
                label = EffectLabel.INCONCLUSIVE
            rows.append(FeatureVector(
                venue_id=f"v{i:03d}",
                start_day=30,
                end_day=40,
                horizon=horizon,
                venue=VenueFeatures(
                    m_b=float(rng.normal(3.0 if positive else 1.0, 0.8)),
                    c_a=float(rng.uniform(50, 500)),
                    loyalty=1.0 + float(rng.random()),
                    likes=float(rng.integers(0, 50)),
                    tips=float(rng.integers(0, 20)),
                    category=list(Category)[i % 9],
                ),
                promo=PromoFeatures(7 + i % 10, frozenset({list(OfferKind)[i % 7]}), 0.1),
                geo=GeoFeatures(i % 5, float(rng.uniform(0, 300)), 0.4, 0.8),
                d_observed=float(rng.normal(0.4 if positive else -0.3, 0.2)),
                label=label,
            ))
    return rows


class TestTrainCommand:
    def test_train_writes_model_metrics(self, tmp_path):
        features = tmp_path / "features.csv"
        features.write_text(write_features_csv(crafted_features()))
        out = tmp_path / "models"
        assert run(["train", "--features", features, "--folds", 5, "--seed", 2, "--out", out]) == 0
        payload = json.loads((out / "model_metrics.json").read_text())
        assert len(payload["models"]) == 28  # 2 models x 7 combos x 2 horizons
        record = payload["models"][0]
        assert set(record) >= {"model", "feature_sets", "horizon", "metrics", "n_rows", "seed"}
        assert set(record["metrics"]) == {"accuracy", "f_measure", "auc"}
        assert "cv" in payload["rms_gaps"]
        assert payload["rms_gaps"]["cv"]["short_term"] >= 0.0

    def test_train_deterministic_bytes(self, tmp_path):
        features = tmp_path / "features.csv"
        features.write_text(write_features_csv(crafted_features()))
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert run(["train", "--features", features, "--folds", 5, "--seed", 2, "--out", out_a]) == 0
        assert run(["train", "--features", features, "--folds", 5, "--seed", 2, "--out", out_b]) == 0
        assert (out_a / "model_metrics.json").read_bytes() == (out_b / "model_metrics.json").read_bytes()

    def test_too_few_rows_exits_1(self, tmp_path):
        features = tmp_path / "tiny.csv"
        features.write_text(write_features_csv(crafted_features()[:5]))
        out = tmp_path / "models"
        assert run(["train", "--features", features, "--folds", 10, "--out", out]) == 1
        assert not (out / "model_metrics.json").exists()
        out.mkdir()
        (out / "model_metrics.json").write_text("earlier\n")
        assert run(["train", "--features", features, "--folds", 10, "--out", out]) == 1
        assert (out / "model_metrics.json").read_text() == "earlier\n"
        assert not list(out.glob(".*.tmp"))
