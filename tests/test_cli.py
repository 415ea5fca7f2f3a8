import collections
import csv
import dataclasses
import inspect
import io
import itertools
import json
import locale
import os
import re
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import campaignfx
from campaignfx import cli, pipeline
from campaignfx import config as config_mod
from campaignfx.campaign import eligible_campaigns
from campaignfx.cli import main
from campaignfx.cohort import assign_pseudo_periods, match_reference
from campaignfx.config import RunConfig, build_run_config, parse_config_file
from campaignfx.effect import EffectLabel, Horizon, TestConfig, classify_effect, evaluate_effect
from campaignfx.errors import InvalidConfig
from campaignfx.features import neighborhood, read_features_csv, write_features_csv
from campaignfx.learn import cross_validate
from campaignfx.rng import derive_rng
from campaignfx.series import segment
from campaignfx.snapcache import CACHE_NAME, read_lines
from campaignfx.synth import SynthConfig, generate_corpus_data


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

    @pytest.mark.parametrize("name, fed, param", [
        ("k", segment, "k"),
        ("w_max", segment, "w_max"),
        ("min_duration", segment, "min_duration"),
        ("k", eligible_campaigns, "min_history"),
        ("w_max", eligible_campaigns, "w_max"),
        ("min_duration", eligible_campaigns, "min_duration"),
        ("k", assign_pseudo_periods, "min_history"),
        ("min_duration", assign_pseudo_periods, "min_duration"),
        ("alpha", TestConfig, "alpha"),
        ("bootstraps", TestConfig, "bootstraps"),
        ("block_len", TestConfig, "block_len"),
        ("power_min", TestConfig, "power_min"),
        ("power_min", classify_effect, "power_min"),
        ("radius_miles", neighborhood, "r_miles"),
        ("n_groups", match_reference, "n_groups"),
        ("grid_deg", match_reference, "cell_deg"),
        ("folds", cross_validate, "k"),
    ])
    def test_default_is_the_library_default(self, name, fed, param):
        library = inspect.signature(fed).parameters[param].default
        value = getattr(RunConfig(), name)
        assert (type(value), value) == (type(library), library)

    def test_env_seed_lowest_priority(self):
        config = build_run_config(env={"CAMPAIGNFX_SEED": "99"})
        assert config.seed == 99
        config = build_run_config(parse_config_file("seed = 7"), env={"CAMPAIGNFX_SEED": "99"})
        assert config.seed == 7
        config = build_run_config(
            parse_config_file("seed = 7"), overrides={"seed": 5}, env={"CAMPAIGNFX_SEED": "99"}
        )
        assert config.seed == 5

    def test_config_file_parsing(self):
        text = "alpha = 0.01  # tighter\nbootstraps=999\n\n# comment only\n"
        config = build_run_config(parse_config_file(text), env={})
        assert config.alpha == 0.01
        assert config.bootstraps == 999

    def test_unknown_key_rejected(self):
        with pytest.raises(InvalidConfig):
            build_run_config(parse_config_file("bogus = 1"), env={})

    def test_invalid_value_rejected(self):
        with pytest.raises(InvalidConfig):
            build_run_config(parse_config_file("alpha = 2.0"), env={})

    def test_range_error_names_the_file_only_for_its_value(self):
        file_values = parse_config_file("seed = 3\nalpha = 2.0\n")
        with pytest.raises(InvalidConfig, match=r"^run\.cfg: config line 2: alpha must be in \(0, 1\)$"):
            build_run_config(file_values, env={}, file_name="run.cfg")
        assert build_run_config(file_values, overrides={"alpha": 0.5}, env={}).alpha == 0.5
        with pytest.raises(InvalidConfig, match=r"^alpha must be in \(0, 1\)$"):
            build_run_config(file_values, overrides={"alpha": 1.5}, env={}, file_name="run.cfg")
        with pytest.raises(InvalidConfig, match=r"^config key 'seed': invalid literal"):
            build_run_config(env={"CAMPAIGNFX_SEED": "x"})

    def test_default_jobs_are_the_usable_cpus(self, monkeypatch):
        assert RunConfig().jobs == len(os.sched_getaffinity(0))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5})
        assert RunConfig().jobs == 3
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 6)
        assert RunConfig().jobs == 6

    @pytest.mark.parametrize("key", ["radius_miles", "grid_deg"])
    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    def test_non_finite_distance_rejected(self, key, value):
        with pytest.raises(InvalidConfig, match=f"^{key} "):
            build_run_config(overrides={key: value}, env={})

    def test_is_a_frozen_test_config(self):
        config = build_run_config(parse_config_file("alpha = 0.1"), overrides={"seed": 3}, env={})
        assert isinstance(config, TestConfig)
        assert not set(vars(RunConfig)["__annotations__"]) & {f.name for f in dataclasses.fields(TestConfig)}
        for f in dataclasses.fields(RunConfig):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(config, f.name, getattr(config, f.name))


class TestUsableCpus:
    """The ``jobs`` default is the affinity count, capped by a cgroup CPU quota read from fake files."""

    @pytest.mark.parametrize("files, cpus", [
        ({}, 4),
        ({"cpu.max": "max 100000\n"}, 4),
        ({"cpu.max": "150000 100000\n"}, 2),
        ({"cpu.max": "50000 100000\n"}, 1),
        ({"cpu.max": "1 100000\n"}, 1),
        ({"cpu.max": "800000 100000\n"}, 4),
        ({"cpu.max": "150000\n"}, 4),
        ({"cpu.max": ""}, 4),
        ({"cpu.max": "max 100000\n", "cpu/cpu.cfs_quota_us": "100000\n", "cpu/cpu.cfs_period_us": "100000\n"}, 4),
        ({"cpu/cpu.cfs_quota_us": "-1\n", "cpu/cpu.cfs_period_us": "100000\n"}, 4),
        ({"cpu/cpu.cfs_quota_us": "200000\n", "cpu/cpu.cfs_period_us": "100000\n"}, 2),
        ({"cpu/cpu.cfs_quota_us": "250000\n", "cpu/cpu.cfs_period_us": "100000\n"}, 3),
        ({"cpu/cpu.cfs_quota_us": "200000\n"}, 4),
        ({"cpu/cpu.cfs_quota_us": "200000\n", "cpu/cpu.cfs_period_us": "0\n"}, 4),
    ])
    def test_quota_caps_the_affinity_count(self, files, cpus, tmp_path, monkeypatch):
        for name, text in files.items():
            (tmp_path / name).parent.mkdir(exist_ok=True)
            (tmp_path / name).write_text(text)
        monkeypatch.setattr(config_mod, "CGROUP_ROOT", tmp_path)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
        assert RunConfig().jobs == cpus


class TestSynthCommand:
    def test_artifacts_written(self, corpus_dir):
        for name in ("snapshots.jsonl", "offers.jsonl", "venues.jsonl", "ground_truth.jsonl"):
            assert (corpus_dir / name).exists()
        first = json.loads((corpus_dir / "snapshots.jsonl").read_text().splitlines()[0])
        assert set(first) == {"venue_id", "ts", "checkins", "users", "specials", "tips", "likes"}

    def test_flag_defaults(self, tmp_path):
        """Every flag left out takes the CLI's default; days and seasonality differ from ``SynthConfig``'s."""
        assert run(["synth", "--venues", 12, "--out", tmp_path]) == 0
        corpus = generate_corpus_data(SynthConfig(
            n_venues=12, days=120, base_rate_log_mean=1.0, base_rate_log_sd=0.6, weekly_seasonality_amp=0.15,
            platform_trend_per_day=0.0, promo_fraction=0.1, effect_multiplier=0.0, zero_venue_fraction=0.0,
            seed=0, poll_jitter_hours=2.0, venue_prefix="v",
        ))
        for name, lines in (
            ("snapshots.jsonl", corpus.snapshot_lines()), ("offers.jsonl", corpus.offer_lines()),
            ("venues.jsonl", corpus.venue_lines()), ("ground_truth.jsonl", corpus.ground_truth_lines()),
        ):
            assert lines, name
            assert (tmp_path / name).read_text() == "\n".join(lines) + "\n", name


class TestSettingsReachEveryWindow:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_each_window_is_tested_with_the_flags(self, corpus_dir, tmp_path, jobs):
        """The four test settings and the seed reach every window ``test`` bootstraps, in the pool and out of it."""
        settings = {"alpha": 0.1, "bootstraps": 299, "block_len": 3, "power_min": 0.25, "seed": 5}
        flags = [arg for name, value in settings.items() for arg in (f"--{name.replace('_', '-')}", value)]
        inputs = [corpus_dir / "snapshots.jsonl", corpus_dir / "offers.jsonl"]
        assert run(["test", "--snapshots", inputs[0], "--offers", inputs[1], *flags,
                    "--jobs", jobs, "--out", tmp_path]) == 0
        effects = pipeline.read_effects_csv((tmp_path / "effects.csv").read_text())
        eligible = pipeline.segment_stage(pipeline.load_corpus(*map(read_lines, inputs)), RunConfig()).eligible
        segments = {(c.period.venue_id, c.segments.start_day): c.segments for c in eligible}
        assert effects and len(effects) == sum(h.window(seg) is not None for seg in segments.values() for h in Horizon)
        for e in effects:
            seg, h = segments[e.venue_id, e.start_day], e.result.horizon
            rng = derive_rng(settings["seed"], "effect", e.venue_id, e.start_day, h.value)
            assert e.result == evaluate_effect(seg.before, h.window(seg), h, TestConfig(**settings), rng)


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

    def test_features_csv_reads_back_to_its_own_text(self, corpus_dir, stage_dir, tmp_path):
        out = tmp_path / "features"
        assert run([
            "features", "--snapshots", corpus_dir / "snapshots.jsonl", "--offers", corpus_dir / "offers.jsonl",
            "--venues", corpus_dir / "venues.jsonl", "--effects", stage_dir / "effects.csv",
            "--horizon", "short", "--out", out,
        ]) == 0
        text = (out / "features.csv").read_text()
        assert len(text.splitlines()) > 2
        assert write_features_csv(read_features_csv(text)) == text

    def test_missing_offers_file_exits_2_without_artifacts(self, corpus_dir, tmp_path):
        out = tmp_path / "none"
        code = run([
            "test", "--snapshots", corpus_dir / "snapshots.jsonl",
            "--offers", corpus_dir / "missing.jsonl", "--out", out,
        ])
        assert code == 2
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("command, name", [
        ("segment", "snapshots"), ("segment", "offers"),
        ("match", "snapshots"), ("match", "offers"), ("match", "venues"),
        ("report", "venues"), ("segment", "config"),
    ])
    def test_undecodable_input_names_its_file(self, command, name, corpus_dir, stage_dir, tmp_path,
                                              capsys, monkeypatch):
        monkeypatch.setattr(locale, "getpreferredencoding", lambda do_setlocale=True: "utf-8")
        data = b"seed = 4\nbootstraps = 99\n" if name == "config" else (corpus_dir / f"{name}.jsonl").read_bytes()
        cut = data.index(b"\n", len(data) // 2) + 1
        bad = tmp_path / f"{name}.jsonl"
        bad.write_bytes(data[:cut] + b"\xff" + data[cut:])
        paths = {key: corpus_dir / f"{key}.jsonl" for key in ("snapshots", "offers", "venues")} | {name: bad}
        if command == "report":
            args = ["--effects", stage_dir / "effects.csv", "--venues", paths["venues"]]
        else:
            args = ["--snapshots", paths["snapshots"], "--offers", paths["offers"]]
            args += ["--venues", paths["venues"]] if command == "match" else []
        args += ["--config", bad] if name == "config" else []
        assert run([command, *args, "--out", tmp_path / "run"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: 'utf-8' codec can't decode byte 0xff in position ")

    def test_config_line_error_names_its_file(self, corpus_dir, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_text("seed = 4\nbootstraps 99\n")
        code = run(["segment", "--snapshots", corpus_dir / "snapshots.jsonl", "--offers", corpus_dir / "offers.jsonl",
                    "--config", config, "--out", tmp_path / "run"])
        assert code == 1
        assert capsys.readouterr().err == f"error: {config}: config line 2: expected key = value\n"
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("text, message", [
        ("seed = 4\nalpha = 2.0\n", "config line 2: alpha must be in (0, 1)"),
        ("bogus = 1\n", "config line 1: unknown config key 'bogus'"),
        ("seed = 4\n\nbootstraps = x\n",
         "config line 3: config key 'bootstraps': invalid literal for int() with base 10: 'x'"),
    ])
    def test_config_value_error_names_its_file(self, text, message, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_text(text)
        features = tmp_path / "features.csv"
        features.write_text(write_features_csv(crafted_features()))
        code = run(["train", "--features", features, "--config", config, "--out", tmp_path / "run"])
        assert code == 1
        assert capsys.readouterr().err == f"error: {config}: {message}\n"
        assert not (tmp_path / "run").exists()

    def test_horizon_selects_its_rows(self, corpus_dir, tmp_path):
        """At ``--horizon short`` or ``long``, test, features and train write exactly the ``both``
        run's effects rows, feature rows and model records of that horizon."""
        assert [RunConfig(horizon=h).horizons for h in ("short", "long", "both")] == [
            (Horizon.SHORT_TERM,), (Horizon.LONG_TERM,), (Horizon.SHORT_TERM, Horizon.LONG_TERM)]
        common = ["--snapshots", corpus_dir / "snapshots.jsonl", "--offers", corpus_dir / "offers.jsonl",
                  "--bootstraps", 99, "--seed", 4]
        crafted = tmp_path / "crafted.csv"  # the module corpus has no negative rows to train on
        crafted.write_text(write_features_csv(crafted_features()))

        def outputs(horizon):
            out = tmp_path / horizon
            setting = ["--horizon", horizon, "--out", out]
            assert run(["test", *common, *setting]) == 0
            assert run(["features", *common, "--venues", corpus_dir / "venues.jsonl",
                        "--effects", out / "effects.csv", *setting]) == 0
            assert run(["train", "--features", crafted, "--folds", 5, "--seed", 2, *setting]) == 0
            effects, features = (list(csv.DictReader(io.StringIO((out / name).read_text())))
                                 for name in ("effects.csv", "features.csv"))
            return effects, features, json.loads((out / "model_metrics.json").read_text())

        effects, features, models = outputs("both")
        for flag, horizon in (("short", Horizon.SHORT_TERM), ("long", Horizon.LONG_TERM)):
            got_effects, got_features, got_models = outputs(flag)
            assert got_effects == [r for r in effects if r["horizon"] == horizon.value] != []
            assert got_features == [r for r in features if r["horizon"] == horizon.value] != []
            assert got_models["models"] == [m for m in models["models"] if m["horizon"] == f"{flag}_term"] != []
            assert got_models["rms_gaps"] == {split: {k: v for k, v in gaps.items() if k == f"{flag}_term"}
                                              for split, gaps in models["rms_gaps"].items()}

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

    def test_skipped_reference_windows_are_counted(self, corpus_dir, stage_dir, tmp_path, capsys):
        """Groups matched at the default --k, tested at a longer one: the short histories are named."""
        common = ["--snapshots", corpus_dir / "snapshots.jsonl", "--offers", corpus_dir / "offers.jsonl",
                  "--groups", stage_dir / "groups.csv", "--bootstraps", 99, "--horizon", "short"]

        def tested(out):
            return len((out / "reference_effects.csv").read_text().splitlines()) - 1

        assert run(["test", *common, "--out", tmp_path / "default"]) == 0
        assert "skipped" not in capsys.readouterr().err
        assert run(["test", *common, "--k", 60, "--out", tmp_path / "longer"]) == 0
        err = capsys.readouterr().err
        warned = re.fullmatch(
            r"warning: (\d+) reference windows skipped: ShortHistory \(first: \S+ days \d+-\d+\)\n", err)
        assert warned, err
        # one short-term test per window
        assert tested(tmp_path / "longer") == tested(tmp_path / "default") - int(warned[1]) > 0

    def test_tested_counts_windows_and_tests(self, corpus_dir, tmp_path, capsys):
        out = tmp_path / "run"
        common = ["--snapshots", corpus_dir / "snapshots.jsonl", "--offers", corpus_dir / "offers.jsonl",
                  "--bootstraps", 99, "--seed", 4, "--out", out]
        assert run(["test", *common]) == 0
        printed = capsys.readouterr().out
        assert run(["match", *common, "--venues", corpus_dir / "venues.jsonl", "--n-groups", 3, "--grid-deg", 5]) == 0
        capsys.readouterr()
        assert run(["test", *common, "--groups", out / "groups.csv"]) == 0
        printed += capsys.readouterr().out
        for kind, name in (("campaign", "effects.csv"), ("reference", "reference_effects.csv")):
            rows = list(csv.DictReader(io.StringIO((out / name).read_text())))
            windows = {(r["group_id"], r["venue_id"], r["start_day"]) for r in rows}
            assert len(rows) > len(windows) > 0  # some windows are tested at both horizons
            assert f"tested {len(windows)} {kind} windows ({len(rows)} tests)\n" in printed

    def test_test_command_leaves_numpy_ma_unimported(self, corpus_dir, tmp_path):
        """``np.quantile`` imports ``numpy.ma`` on its first call; the bootstrap's quantiles do not."""
        code = "import sys; from campaignfx.cli import main; main(sys.argv[1:]); print('numpy.ma' in sys.modules)"
        argv = ["test", "--snapshots", corpus_dir / "snapshots.jsonl", "--offers", corpus_dir / "offers.jsonl",
                "--bootstraps", 99, "--jobs", 1, "--out", tmp_path]
        src = str(Path(campaignfx.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-c", code, *map(str, argv)], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "False"

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

    def test_venue_with_one_reading_is_counted(self, corpus_dir, tmp_path, capsys):
        offers = ["--offers", corpus_dir / "offers.jsonl"]
        clean = corpus_dir / "snapshots.jsonl"
        first = json.loads(clean.read_text().splitlines()[0])
        dirty = tmp_path / "snapshots.jsonl"
        dirty.write_text(clean.read_text() + json.dumps({**first, "venue_id": "lonely"}) + "\n")
        assert run(["segment", "--snapshots", clean, *offers, "--out", tmp_path / "clean"]) == 0
        assert "venues skipped" not in capsys.readouterr().err
        assert run(["segment", "--snapshots", dirty, *offers, "--out", tmp_path / "dirty"]) == 0
        err = capsys.readouterr().err
        assert "warning: 1 venues skipped: too few readings for a daily series (first: lonely)" in err
        for name in ("campaigns.csv", "skipped.csv", "offer_stats.json"):
            assert (tmp_path / "dirty" / name).read_bytes() == (tmp_path / "clean" / name).read_bytes()

    def test_campaign_without_venue_profile_is_counted(self, corpus_dir, stage_dir, tmp_path, capsys):
        common = ["--snapshots", corpus_dir / "snapshots.jsonl", "--offers", corpus_dir / "offers.jsonl",
                  "--effects", stage_dir / "effects.csv", "--horizon", "short"]
        full = (corpus_dir / "venues.jsonl").read_text().splitlines()
        promoted = sorted({json.loads(line)["venue_id"]
                           for line in (corpus_dir / "offers.jsonl").read_text().splitlines()})
        venues = tmp_path / "venues.jsonl"
        venues.write_text("".join(line + "\n" for line in full if json.loads(line)["venue_id"] != promoted[0]))
        assert run(["features", *common, "--venues", corpus_dir / "venues.jsonl", "--out", tmp_path / "full"]) == 0
        assert "campaigns skipped" not in capsys.readouterr().err
        assert run(["features", *common, "--venues", venues, "--out", tmp_path / "part"]) == 0
        err = capsys.readouterr().err
        assert f"warning: 1 campaigns skipped: venue has no profile (first: {promoted[0]})" in err
        rows = (tmp_path / "full" / "features.csv").read_text().splitlines()
        kept = [row for row in rows if not row.startswith(promoted[0] + ",")]
        assert (tmp_path / "part" / "features.csv").read_text().splitlines() == kept

    def test_unicode_line_separators_stay_inside_records(self, tmp_path, capsys):
        venue_id = "v\u2028\u2029\x85x"  # raw in JSON strings, but splitlines() breaks at each
        snapshots = tmp_path / "snapshots.jsonl"
        snapshots.write_text("".join(
            json.dumps({"venue_id": venue_id, "ts": day * 86400, "checkins": 5 * day, "users": 1,
                        "specials": 0, "tips": 0, "likes": 0}, ensure_ascii=False) + "\n"
            for day in range(3)
        ), encoding="utf-8")
        offers = tmp_path / "offers.jsonl"
        offers.write_text(json.dumps({"venue_id": venue_id, "special_id": "s0", "type": "Flash",
                                      "start": 86400, "end": 86400}, ensure_ascii=False) + "\n",
                          encoding="utf-8")
        out = tmp_path / "run"
        assert run(["segment", "--snapshots", snapshots, "--offers", offers, "--out", out]) == 0
        assert "warning" not in capsys.readouterr().err
        rows = list(csv.reader(io.StringIO((out / "skipped.csv").read_text(encoding="utf-8"))))
        assert [row[0] for row in rows[1:]] == [venue_id]

    def test_snapshot_csv_error_names_its_line(self, tmp_path, capsys):
        snapshots = tmp_path / "snapshots.csv"
        snapshots.write_text(
            "venue_id,ts,checkins,users,specials,tips,likes\n"
            "v1,2012-10-22T00:00:00Z,1,1,0,0,0\n"
            "\n"
            "v1,2012-10-23T00:00:00Z,x,1,0,0,0\n"
            "v1,2012-10-24T00:00:00Z,3,1,0,0,0\n"
        )
        offers = tmp_path / "offers.jsonl"
        offers.write_text("")
        assert run(["segment", "--snapshots", snapshots, "--offers", offers, "--out", tmp_path / "run"]) == 0
        err = capsys.readouterr().err
        assert err.startswith(f"warning: 1 malformed records skipped in {snapshots} (first: line 4: ")

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
        assert f"warning: 1 malformed records skipped in {venues} (first: line {len(lines) + 1}: " in err
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
        return err

    def test_features_row_without_category(self, stage_dir, tmp_path, capsys):
        """A row whose flag cells are not 0/1, whose category is not exactly one, or with a
        non-finite cell is rejected by ``train`` and by ``report --features``."""
        text = write_features_csv(crafted_features())
        header, *rows = text.splitlines()
        columns = header.split(",")
        edits = {
            "no_category": {c: "0.0" for c in columns if c.startswith("cat_")},
            "every_category": {c: "1.0" for c in columns if c.startswith("cat_")},
            "fractional_kind": {next(c for c in columns if c.startswith("xi_")): "0.5"},
            "loyalty_missing_2": {"loyalty_missing": "2"},
            "loyalty_missing_nan": {"loyalty_missing": "nan"},
            "m_b_nan": {"m_b": "nan"},
            "m_b_inf": {"m_b": "inf"},
            "m_b_1e999": {"m_b": "1e999"},
        }
        for name, edit in edits.items():
            cells = rows[0].split(",")
            for i, column in enumerate(columns):
                cells[i] = edit.get(column, cells[i])
            features = tmp_path / f"{name}.csv"
            features.write_text("\n".join([header, ",".join(cells), *rows[1:]]) + "\n")
            for command in (["train", "--features", features, "--folds", 5],
                            ["report", "--effects", stage_dir / "effects.csv", "--features", features]):
                out = tmp_path / name / command[0]
                code = run([*command, "--out", out])
                self.assert_rejected(capsys, code, features, 2)
                assert not out.exists()

    def test_effects_without_diff_column(self, stage_dir, tmp_path, capsys):
        effects = without_column(stage_dir / "effects.csv", tmp_path / "effects.csv", "diff")
        out = tmp_path / "report"
        code = run(["report", "--effects", effects, "--out", out])
        self.assert_rejected(capsys, code, effects, 1)
        assert not out.exists()

    def test_effects_error_after_blank_line_names_its_line(self, stage_dir, tmp_path, capsys):
        header, first, second, *rest = (stage_dir / "effects.csv").read_text().splitlines()
        diff = header.split(",").index("diff")
        cells = second.split(",")
        cells[diff] = "x"
        effects = tmp_path / "effects.csv"
        effects.write_text("\n".join([header, first, "", ",".join(cells), *rest]) + "\n")
        out = tmp_path / "report"
        code = run(["report", "--effects", effects, "--out", out])
        self.assert_rejected(capsys, code, effects, 4)
        assert not out.exists()

    @pytest.mark.parametrize("column, value", [
        ("diff", "nan"), ("cohens_d", "nan"), ("cohens_d", "-inf"), ("p_value", "nan"), ("p_value", "1.5"),
        ("power", "inf"), ("power", "-0.1"), ("ci_low", "-inf"), ("ci_high", "1e999"),
        ("degenerate", "2"), ("degenerate", "-1"),
    ])
    def test_effects_cell_out_of_range(self, stage_dir, tmp_path, capsys, column, value):
        """A non-finite number, a p_value or power outside [0, 1], or a degenerate flag other than 0 or 1
        is rejected at its line, in promotion and in reference effects."""
        header, first, *rest = (stage_dir / "effects.csv").read_text().splitlines()
        cells = first.split(",")
        cells[header.split(",").index(column)] = value
        effects = tmp_path / "bad.csv"
        effects.write_text("\n".join([header, ",".join(cells), *rest]) + "\n")
        for flags in (["--effects", effects], ["--effects", stage_dir / "effects.csv", "--reference-effects", effects]):
            out = tmp_path / "report"
            err = self.assert_rejected(capsys, run(["report", *flags, "--out", out]), effects, 2)
            assert err.startswith(f"error: {effects}: line 2: {column} is {value!r}, not ")
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

    @pytest.mark.parametrize("blank", ["pseudo_end", "pseudo_start", "both"])
    def test_groups_row_with_half_a_pseudo_window(self, corpus_dir, stage_dir, tmp_path, capsys, blank):
        """A row without a whole pseudo-window is rejected at its line, not tested as half a window or dropped."""
        rows = list(csv.DictReader(io.StringIO((stage_dir / "groups.csv").read_text())))
        line_no = next(i for i, row in enumerate(rows, start=2) if row["pseudo_start"])
        for name in ("pseudo_start", "pseudo_end") if blank == "both" else (blank,):
            rows[line_no - 2][name] = ""
        groups = tmp_path / "groups.csv"
        with groups.open("w", newline="") as f:
            writer = csv.DictWriter(f, fieldnames=list(rows[0]), lineterminator="\n")
            writer.writeheader()
            writer.writerows(rows)
        out = tmp_path / "ref"
        code = run([
            "test", "--snapshots", corpus_dir / "snapshots.jsonl",
            "--offers", corpus_dir / "offers.jsonl", "--groups", groups, "--out", out,
        ])
        self.assert_rejected(capsys, code, groups, line_no)
        assert not out.exists()

    @pytest.mark.parametrize("artifact, key", [
        ("effects.csv", "(group_id, venue_id, start_day, horizon)"),
        ("groups.csv", "(group_id, venue_id)"),
        ("features.csv", "(venue_id, start_day, horizon)"),
    ])
    def test_repeated_row(self, corpus_dir, stage_dir, tmp_path, capsys, artifact, key):
        """A row whose key repeats an earlier row's, as written or with a number spelled with a
        leading zero, is rejected at its line, not read twice; the error quotes the cells as written."""
        text = write_features_csv(crafted_features()) if artifact == "features.csv" else (stage_dir / artifact).read_text()
        lines = text.splitlines()
        header, first = lines[0].split(","), lines[1].split(",")
        at = header.index("group_id" if artifact == "groups.csv" else "start_day")
        respelled = [*first[:at], "0" + first[at], *first[at + 1:]]
        path = tmp_path / artifact
        corpus = ["--snapshots", corpus_dir / "snapshots.jsonl", "--offers", corpus_dir / "offers.jsonl"]
        commands = {
            "effects.csv": [["report", "--effects", path]],
            "groups.csv": [["test", *corpus, "--groups", path]],
            "features.csv": [["train", "--features", path, "--folds", 5],
                             ["report", "--effects", stage_dir / "effects.csv", "--features", path]],
        }[artifact]
        for repeat in (first, respelled):
            path.write_text("\n".join([*lines, ",".join(repeat)]) + "\n")
            for command in commands:
                out = tmp_path / command[0]
                err = self.assert_rejected(capsys, run([*command, "--out", out]), path, len(lines) + 1)
                assert err.startswith(f"error: {path}: line {len(lines) + 1}: repeated {key} (")
                assert f"{repeat[at]!r}" in err
                assert not out.exists()

    @pytest.mark.parametrize("text", ["[]", '"x"', '{"models": {"a": 1}}', '{"models": null}',
                                      '{"models": [], "rms_gaps": []}', '{"models": [',
                                      '{"models": [1, "x"]}', '{"rms_gaps": {"cv": 5}}',
                                      '{"rms_gaps": {"cv": {"short_term": "0.1"}}}',
                                      '{"rms_gaps": {"cv": {"short_term": NaN}}}',
                                      '{"rms_gaps": {"cv": {"long_term": -Infinity}}}',
                                      '{"models": [{"metrics": {"auc": Infinity}}]}'])
    def test_malformed_model_metrics(self, stage_dir, tmp_path, capsys, text):
        metrics = tmp_path / "model_metrics.json"
        metrics.write_text(text)
        out = tmp_path / "report"
        code = run(["report", "--effects", stage_dir / "effects.csv", "--model-metrics", metrics, "--out", out])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {metrics}: ")
        assert "Traceback" not in err
        assert not out.exists()


def crafted_features(n=60):
    from campaignfx.campaign import OfferKind
    from campaignfx.cohort import Category
    from campaignfx.features import FeatureVector
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
            category = list(Category)[i % 9]
            kind = list(OfferKind)[i % 7]
            values = {
                "m_b": float(rng.normal(3.0 if positive else 1.0, 0.8)),
                "c_a": float(rng.uniform(50, 500)),
                "loyalty": 1.0 + float(rng.random()),
                "loyalty_missing": 0.0,
                "likes": float(rng.integers(0, 50)),
                "tips": float(rng.integers(0, 20)),
                **{f"cat_{c.value}": 1.0 if c is category else 0.0 for c in Category},
                "duration": float(7 + i % 10),
                **{f"xi_{k.value}": 1.0 if k is kind else 0.0 for k in OfferKind},
                "n_s": 0.1,
                "density": float(i % 5),
                "area_pop": float(rng.uniform(0, 300)),
                "competitiveness": 0.4,
                "entropy": 0.8,
            }
            rows.append(FeatureVector(
                venue_id=f"v{i:03d}",
                start_day=30,
                end_day=40,
                horizon=horizon,
                values=values,
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
        # crafted_features holds one constant column in each feature set
        constant = {"F_v": {"loyalty_missing"}, "F_p": {"n_s"}, "F_g": {"competitiveness", "entropy"}}
        for record in payload["models"]:
            if record["model"] == "forest":
                assert "dropped_columns" not in record and "not_converged" not in record
                continue
            want = sorted(set().union(*(constant[name] for name in record["feature_sets"])))
            assert record["dropped_columns"] == want
            assert record["not_converged"] == 0

    @pytest.mark.usefixtures("fork_start_method")
    def test_train_counts_unconverged_fits(self, tmp_path, monkeypatch):
        import campaignfx.models

        monkeypatch.setattr(campaignfx.models, "LOGISTIC_MAX_ITER", 1)
        features = tmp_path / "features.csv"
        features.write_text(write_features_csv(crafted_features()))
        out = tmp_path / "models"
        assert run(["train", "--features", features, "--folds", 5, "--seed", 2, "--out", out]) == 0
        payload = json.loads((out / "model_metrics.json").read_text())
        logistic = [r for r in payload["models"] if r["model"] == "logistic"]
        assert len(logistic) == 14
        # one Newton step converges nowhere: 5 fold fits and the full fit
        assert all(r["not_converged"] == 6 for r in logistic)

    def test_train_deterministic_bytes(self, tmp_path):
        features = tmp_path / "features.csv"
        features.write_text(write_features_csv(crafted_features()))
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert run(["train", "--features", features, "--folds", 5, "--seed", 2, "--out", out_a]) == 0
        assert run(["train", "--features", features, "--folds", 5, "--seed", 2, "--out", out_b]) == 0
        assert (out_a / "model_metrics.json").read_bytes() == (out_b / "model_metrics.json").read_bytes()

    @pytest.mark.parametrize("horizon", ["short", "long"])
    def test_jobs_do_not_change_models(self, horizon, tmp_path):
        features = tmp_path / "features.csv"
        features.write_text(write_features_csv(crafted_features()))
        written = []
        for i, jobs in enumerate((["--jobs", 1], ["--jobs", 2], [])):
            out = tmp_path / f"run{i}"
            assert run(["train", "--features", features, "--folds", 5, "--seed", 2,
                        "--horizon", horizon, *jobs, "--out", out]) == 0
            written.append((out / "model_metrics.json").read_bytes())
        assert written[0] == written[1] == written[2]

    @pytest.mark.usefixtures("fork_start_method")
    def test_worker_error_exits_as_in_process(self, tmp_path, monkeypatch, capsys):
        import campaignfx.learn

        def failing_forest(*args, **kwargs):
            raise ValueError("forest fit failed")

        pools = []

        class CountingPool(ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(kwargs["max_workers"])
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(campaignfx.learn, "train_forest", failing_forest)
        monkeypatch.setattr(pipeline, "ProcessPoolExecutor", CountingPool)
        features = tmp_path / "features.csv"
        features.write_text(write_features_csv(crafted_features()))
        errors = []
        for jobs in (1, 2):
            out = tmp_path / f"jobs{jobs}"
            assert run(["train", "--features", features, "--folds", 5, "--jobs", jobs, "--out", out]) == 1
            assert not out.exists()
            errors.append(capsys.readouterr().err)
        assert errors == ["error: forest fit failed\n"] * 2
        assert pools == [2]

    def test_jobs_1_starts_no_pool(self, tmp_path, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool was started")

        monkeypatch.setattr(pipeline, "ProcessPoolExecutor", no_pool)
        features = tmp_path / "features.csv"
        features.write_text(write_features_csv(crafted_features()))
        assert run(["train", "--features", features, "--folds", 5, "--jobs", 1, "--out", tmp_path / "run"]) == 0

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


def stage_commands(corpus_dir, snapshots, out):
    """The snapshot-reading commands of a run, in pipeline order."""
    common = ["--snapshots", snapshots, "--offers", corpus_dir / "offers.jsonl", "--seed", 4]
    venues = ["--venues", corpus_dir / "venues.jsonl"]
    return [
        ["segment", *common, "--out", out],
        ["test", *common, "--bootstraps", 99, "--out", out],
        ["match", *common, *venues, "--n-groups", 3, "--grid-deg", 5, "--out", out],
        ["test", *common, "--groups", out / "groups.csv", "--bootstraps", 99, "--out", out],
        ["features", *common, *venues, "--effects", out / "effects.csv", "--out", out],
    ]


def run_stages(corpus_dir, snapshots, out, capsys, before_each):
    """Exit code, stderr and every file in ``out`` but the cache after each stage command.

    ``before_each(i)`` runs before command ``i``.
    """
    outcomes = []
    for i, argv in enumerate(stage_commands(corpus_dir, snapshots, out)):
        before_each(i)
        code = run(argv)
        err = capsys.readouterr().err
        files = {p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.name != CACHE_NAME}
        outcomes.append((code, err, files))
    return outcomes


def flip_payload_bit(cache: bytes, where: str) -> bytes:
    """``cache`` with one bit flipped in the column block or in the JSON document.

    In the block, the last poll's timestamp grows by 2**256, so a cache that
    loaded it would warn about a venue spanning too many days; in the
    document, the first venue id's first character changes.
    """
    f = io.BytesIO(cache)
    f.seek(64)  # key and payload digest
    assert np.lib.format.read_magic(f) == (1, 0)
    (_, n_polls), _, _ = np.lib.format.read_array_header_1_0(f)
    if where == "block":
        at, bit = f.tell() + 8 * (n_polls - 1) + 7, 0x10  # the exponent's high byte
    else:
        at, bit = cache.rindex(b'{"venues": ["') + 13, 0x40
    damaged = bytearray(cache)
    damaged[at] ^= bit
    return bytes(damaged)


class TestSnapshotParseCache:
    """Whatever cache a stage command finds in ``--out``, it writes what a cold run writes.

    The snapshot file carries malformed lines, so every command has warnings
    that a cache hit must repeat.
    """

    @pytest.fixture
    def snapshots(self, corpus_dir, tmp_path):
        clean = (corpus_dir / "snapshots.jsonl").read_text()
        first = json.loads(clean.splitlines()[0])
        path = tmp_path / "snapshots.jsonl"
        path.write_text(clean + "{broken\n" + json.dumps({**first, "ts": float("nan")}) + "\n")
        return path

    @pytest.mark.parametrize("case", ["cold", "warm", "truncated", "garbage", "other_input", "edited_in_place",
                                      "block_flipped", "document_flipped"])
    def test_same_artifacts_and_warnings_as_cold_runs(self, case, corpus_dir, snapshots, tmp_path, capsys):
        original = snapshots.read_bytes()
        at = original.index(b"\n") + 1
        edited = original[:at] + b"[" + original[at + 1:]  # same size; line 2 is now malformed

        def content(i):
            return edited if case == "edited_in_place" and i > 0 else original

        def no_cache(i):
            snapshots.write_bytes(content(i))
            (tmp_path / "cold" / CACHE_NAME).unlink(missing_ok=True)

        expected = run_stages(corpus_dir, snapshots, tmp_path / "cold", capsys, no_cache)
        assert "warning: 2 malformed records skipped" in expected[0][1]
        assert ("warning: 3 malformed records skipped" in expected[1][1]) == (case == "edited_in_place")

        out, foreign = tmp_path / "case", tmp_path / "foreign"
        assert run(["segment", "--snapshots", corpus_dir / "snapshots.jsonl",
                    "--offers", corpus_dir / "offers.jsonl", "--out", foreign]) == 0
        capsys.readouterr()
        cache = out / CACHE_NAME

        def prepare(i):
            snapshots.write_bytes(content(i))
            if case == "warm" and i == 0:
                assert run(stage_commands(corpus_dir, snapshots, out)[0]) == 0
                capsys.readouterr()
            elif case == "truncated" and i > 0:
                cache.write_bytes(cache.read_bytes()[: cache.stat().st_size // 2])
            elif case.endswith("_flipped") and i > 0:
                cache.write_bytes(flip_payload_bit(cache.read_bytes(), case.removesuffix("_flipped")))
            elif case == "garbage":
                out.mkdir(exist_ok=True)
                cache.write_bytes(np.random.default_rng(i).bytes(4096))
            elif case == "other_input":
                out.mkdir(exist_ok=True)
                cache.write_bytes((foreign / CACHE_NAME).read_bytes())

        got = run_stages(corpus_dir, snapshots, out, capsys, prepare)
        for code, err, _ in got:
            assert code == 0 and "Traceback" not in err
        assert got == expected
        assert cache.is_file()

    def test_warm_cache_loads_once_and_parses_nothing(self, corpus_dir, tmp_path, monkeypatch):
        """The benchmark counts snapshot parses through these two names."""
        calls, reads = collections.Counter(), []

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(cli, "load_corpus", counted("load_corpus", cli.load_corpus))
        monkeypatch.setattr(pipeline, "parse_snapshots", counted("parse_snapshots", pipeline.parse_snapshots))
        monkeypatch.setattr(cli, "read_lines", lambda path: reads.append(path) or read_lines(path))
        snapshots = corpus_dir / "snapshots.jsonl"
        segment, test = stage_commands(corpus_dir, snapshots, tmp_path / "run")[:2]
        assert run(segment) == 0
        assert (calls["load_corpus"], calls["parse_snapshots"]) == (1, 1) and snapshots in reads
        calls.clear()
        reads.clear()
        assert run(test) == 0
        assert (calls["load_corpus"], calls["parse_snapshots"]) == (1, 0) and snapshots not in reads


def snapshot_forms(jsonl: str) -> dict[str, str]:
    """The polls of a JSONL snapshot file, in seven forms that must parse alike.

    JSONL as given, with ``\\r\\n`` endings, and with a blank line after every
    record; its lines interleaved across venues, each venue's own order kept;
    CSV; that CSV after two blank lines; and that CSV with ``\\r\\n`` endings.
    """
    lines = jsonl.splitlines()
    records = [json.loads(line) for line in lines]
    per_venue = collections.defaultdict(list)
    for line, record in zip(lines, records):
        per_venue[record["venue_id"]].append(line)
    interleaved = [line for turn in itertools.zip_longest(*per_venue.values()) for line in turn if line]
    fields = ["venue_id", "ts", "checkins", "users", "specials", "tips", "likes"]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(fields)
    writer.writerows([record[name] for name in fields] for record in records)
    return {
        "jsonl": jsonl,
        "jsonl crlf": "".join(line + "\r\n" for line in lines),
        "jsonl blank lines": "".join(line + "\n\n" for line in lines),
        "interleaved": "".join(line + "\n" for line in interleaved),
        "csv": buf.getvalue(),
        "csv after blank lines": "\n \n" + buf.getvalue(),
        "csv crlf": buf.getvalue().replace("\n", "\r\n"),
    }


def test_snapshot_forms_write_the_same_artifacts(corpus_dir, tmp_path, capsys):
    """Each stage command, parsing each form afresh, writes the same bytes and warnings as on JSONL."""
    outcomes = {}
    for form, text in snapshot_forms((corpus_dir / "snapshots.jsonl").read_text()).items():
        snapshots, out = tmp_path / form / "snapshots", tmp_path / form / "out"
        snapshots.parent.mkdir()
        snapshots.write_text(text)
        got = run_stages(corpus_dir, snapshots, out, capsys, lambda i: (out / CACHE_NAME).unlink(missing_ok=True))
        outcomes[form] = [(code, err.replace(str(snapshots), "<snapshots>"), files) for code, err, files in got]
    assert [code for code, _, _ in outcomes["jsonl"]] == [0] * 5
    assert len(outcomes["jsonl"][-1][2]) == 7  # every stage artifact, from campaigns.csv to features.csv
    assert len(outcomes) == 7
    for form in outcomes:
        assert outcomes[form] == outcomes["jsonl"], form


@pytest.fixture(scope="module")
def pin_corpus(corpus_dir, tmp_path_factory):
    """The module corpus with one item for every reason a run skips something.

    Snapshots: a malformed line, a venue with one poll and one whose polls
    span too many days. Offers: a malformed line and an offer for a venue
    with no series. Venues: a malformed line, and no profile for the first
    promoted venue.
    """
    d = tmp_path_factory.mktemp("pin")
    snapshots = (corpus_dir / "snapshots.jsonl").read_text()
    first = json.loads(snapshots.splitlines()[0])
    (d / "snapshots.jsonl").write_text(snapshots + "{broken\n" + "".join(
        json.dumps(rec) + "\n" for rec in (
            {**first, "venue_id": "lonely"},
            {**first, "venue_id": "far", "ts": 0},
            {**first, "venue_id": "far", "ts": 1e300},
        )))
    offers = (corpus_dir / "offers.jsonl").read_text()
    ghost = {**json.loads(offers.splitlines()[0]), "venue_id": "ghost", "special_id": "ghost-s0"}
    (d / "offers.jsonl").write_text(offers + '{"venue_id": 7}\n' + json.dumps(ghost) + "\n")
    promoted = min(json.loads(line)["venue_id"] for line in offers.splitlines())
    venues = [line for line in (corpus_dir / "venues.jsonl").read_text().splitlines()
              if json.loads(line)["venue_id"] != promoted]
    (d / "venues.jsonl").write_text("".join(line + "\n" for line in venues) + "[]\n")
    return d


def pin_commands(pin, out):
    """segment → test → match → test --groups at a longer --k → features → report on ``pin``."""
    common = ["--snapshots", pin / "snapshots.jsonl", "--offers", pin / "offers.jsonl",
              "--bootstraps", 99, "--seed", 4]
    venues = ["--venues", pin / "venues.jsonl"]
    return [
        ["segment", *common, "--out", out],
        ["test", *common, "--out", out],
        ["match", *common, *venues, "--n-groups", 3, "--grid-deg", 5, "--out", out],
        ["test", *common, "--groups", out / "groups.csv", "--k", 60, "--out", out],
        ["features", *common, *venues, "--effects", out / "effects.csv", "--out", out],
        ["report", "--effects", out / "effects.csv", "--reference-effects", out / "reference_effects.csv",
         "--features", out / "features.csv", *venues, "--out", out],
    ]


PIN_MALFORMED = {
    name: f"warning: 1 malformed records skipped in <pin>/{name}.jsonl (first: line {where})\n"
    for name, where in (
        ("snapshots", "2731: invalid JSON: Expecting property name enclosed in double quotes"),
        ("offers", "18: missing field 'type'"),
        ("venues", "30: record is not an object"),
    )
}
PIN_CORPUS_DROPS = (
    "warning: 1 venues skipped: too few readings for a daily series (first: lonely)\n"
    "warning: 1 venues skipped: readings span 3660 days or more (first: far)\n"
    "warning: 1 offers skipped: venue has no usable daily series (first: ghost-s0)\n"
)


class TestWarnings:
    def test_stderr_of_every_command(self, pin_corpus, tmp_path, capsys):
        """Each command's whole stderr on a corpus that skips something for every reason."""
        snapshots, offers, venues = PIN_MALFORMED.values()
        expected = [
            snapshots + offers + PIN_CORPUS_DROPS,
            snapshots + offers + PIN_CORPUS_DROPS,
            snapshots + offers + venues + PIN_CORPUS_DROPS,
            snapshots + offers + PIN_CORPUS_DROPS
            + "warning: 9 reference windows skipped: ShortHistory (first: v000001 days 51-67)\n",
            snapshots + offers + venues + PIN_CORPUS_DROPS
            + "warning: 1 campaigns skipped: venue has no profile (first: v000000)\n",
            venues,
        ]
        got = []
        for argv in pin_commands(pin_corpus, tmp_path / "run"):
            assert run(argv) == 0
            got.append(capsys.readouterr().err.replace(str(pin_corpus), "<pin>"))
        assert got == expected

    def test_library_prints_nothing_and_records_every_drop(self, pin_corpus, capfd):
        """The stages leave what they skip in ``corpus.drops``; only the CLI prints it."""
        corpus = pipeline.load_corpus(*(read_lines(pin_corpus / f"{name}.jsonl")
                                        for name in ("snapshots", "offers", "venues")))
        config = RunConfig(bootstraps=99, seed=4, n_groups=3, grid_deg=5, jobs=2)
        eligibility = pipeline.segment_stage(corpus, config)
        effects = pipeline.test_stage(corpus, eligibility, config)
        groups = pipeline.match_stage(corpus, eligibility, config).groups
        pipeline.reference_test_stage(corpus, groups, dataclasses.replace(config, k=60))
        assert pipeline.features_stage(corpus, eligibility, effects, config)
        assert capfd.readouterr().err == ""
        assert {name: len(errors) for name, errors in corpus.parse_errors.items()} == \
            {"snapshots": 1, "offers": 1, "venues": 1}
        assert {key: len(skipped) for key, skipped in corpus.drops.items()} == {
            "venues skipped: too few readings for a daily series": 1,
            "venues skipped: readings span 3660 days or more": 1,
            "offers skipped: venue has no usable daily series": 1,
            "reference windows skipped: ShortHistory": 9,
            "campaigns skipped: venue has no profile": 1,
            "campaign horizons skipped: no row in effects": 0,
        }

    def test_horizon_without_effects_row_is_counted(self, corpus_dir, stage_dir, tmp_path, capsys):
        """Effects tested at the short horizon only: features at both name each long-term window left out."""
        common = ["--snapshots", corpus_dir / "snapshots.jsonl", "--offers", corpus_dir / "offers.jsonl",
                  "--venues", corpus_dir / "venues.jsonl", "--effects", stage_dir / "effects.csv"]
        assert run(["segment", *common[:4], "--out", tmp_path / "short"]) == 0
        assert run(["features", *common, "--horizon", "short", "--out", tmp_path / "short"]) == 0
        assert "skipped" not in capsys.readouterr().err
        assert run(["features", *common, "--out", tmp_path / "both"]) == 0
        long_term = [row for row in csv.DictReader(io.StringIO((tmp_path / "short" / "campaigns.csv").read_text()))
                     if row["long_term_eligible"] == "1"]
        first = long_term[0]
        assert capsys.readouterr().err == (
            f"warning: {len(long_term)} campaign horizons skipped: no row in effects "
            f"(first: {first['venue_id']} days {first['start_day']}-{first['end_day']} LongTerm)\n"
        )
        assert (tmp_path / "both" / "features.csv").read_bytes() == (tmp_path / "short" / "features.csv").read_bytes()
