"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to stream them).
All randomness is derived from pinned seeds, so outcomes are reproducible
bit for bit; statistical bounds were verified against their sampling noise
when the seeds were pinned.
"""

import json
import math
import time

import numpy as np
import pytest

from campaignfx.cli import main as cli_main
from campaignfx.cohort import Category, FractionMode, VenueProfile, increase_fraction
from campaignfx.config import RunConfig
from campaignfx.effect import (
    EffectLabel,
    Horizon,
    TestConfig,
    bootstrap_test,
    classify_effect,
    cohens_d,
    evaluate_effect,
)
from campaignfx.features import extract_geo_features, neighborhood
from campaignfx.geo import EARTH_RADIUS_MILES, RadiusIndex
from campaignfx.learn import Dataset, cross_validate, feature_auc, mann_whitney
from campaignfx.models import train_forest, train_logistic
from campaignfx.pipeline import test_stage as run_test_stage
from campaignfx.pipeline import (
    build_corpus,
    match_stage,
    reference_test_stage,
    segment_stage,
    write_effects_csv,
)
from campaignfx.rng import derive_rng
from campaignfx.series import DailySeries, segment
from campaignfx.synth import (
    SynthConfig,
    delta_for_target_d,
    generate_corpus_data,
    sample_segment_pair,
)

from conftest import logistic_coefficients


def check(criterion: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"{status} criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_bootstrap_calibration():
    """Null rejection rate of the block-2 test stays within [0.03, 0.07]."""
    start = time.perf_counter()
    rejections = 0
    trials = 1000
    for i in range(trials):
        before, during = sample_segment_pair(3.0, 0.0, 28, 28, derive_rng(100, "camp", i))
        result = bootstrap_test(before, during, rng=derive_rng(100, "test", i))
        rejections += result.p_value < 0.05
    elapsed = time.perf_counter() - start
    rate = rejections / trials
    check(
        1,
        0.03 <= rate <= 0.07 and elapsed < 300.0,
        f"rejection rate {rate:.4f} in [0.03, 0.07] over {trials} null campaigns "
        f"(B=4999, block 2, alpha 0.05) in {elapsed:.0f}s (< 300s)",
    )


def test_criterion_2_power_monotonicity():
    """Detection of planted increases grows with effect size; >= 0.70 at d=0.8."""
    grid = (0.0, 0.2, 0.5, 0.8, 1.2)
    rates = []
    for d_target in grid:
        delta = delta_for_target_d(3.0, d_target, 28, 28)
        detected = 0
        for i in range(200):
            before, during = sample_segment_pair(3.0, delta, 28, 28, derive_rng(200, "c2", d_target, i))
            result = bootstrap_test(before, during, rng=derive_rng(200, "t", d_target, i))
            label = classify_effect(result.p_value, 0.0, result.diff)
            detected += label is EffectLabel.SIGNIFICANT_INCREASE
        rates.append(detected / 200)
    monotone = all(hi >= lo - 0.03 for lo, hi in zip(rates, rates[1:]))
    check(
        2,
        monotone and rates[3] >= 0.70,
        f"detection rates {rates} non-decreasing (0.03 slack), d=0.8 rate {rates[3]:.3f} >= 0.70",
    )


def test_criterion_3_anecdote_replica():
    """A planted d of about 0.52 with a long campaign is flagged reliably."""
    lam = 2.0
    n_during = 260
    delta = delta_for_target_d(lam, 0.52, 28, n_during)
    hits = 0
    runs = 100
    for i in range(runs):
        r = derive_rng(300, "anecdote", i)
        values = np.concatenate([
            r.poisson(lam, 36), r.poisson(lam * (1.0 + delta), n_during)
        ]).astype(float)
        s = DailySeries("anecdote", values)
        seg = segment(s, 36, 36 + n_during - 1)
        result = evaluate_effect(seg.before, seg.during, Horizon.SHORT_TERM, TestConfig(),
                                 derive_rng(300, "test", i))
        hits += result.label is EffectLabel.SIGNIFICANT_INCREASE
    check(
        3,
        hits >= 80,
        f"{hits}/{runs} runs labelled SignificantIncrease (>= 80) at planted d=0.52 "
        f"(36 pre-days, {n_during} during-days, delta={delta:.3f})",
    )


def _significant_only_fractions(corpus_cfg: SynthConfig, run_seed: int):
    corpus = generate_corpus_data(corpus_cfg)
    loaded = build_corpus(corpus.snapshots, corpus.offers, corpus.profiles)
    config = RunConfig(horizon="short", seed=run_seed, jobs=2)
    eligibility = segment_stage(loaded, config)
    effects = run_test_stage(loaded, eligibility, config)
    match = match_stage(loaded, eligibility, config)
    reference = reference_test_stage(loaded, match.groups, config)
    promo = increase_fraction([e.result for e in effects], FractionMode.SIGNIFICANT_ONLY)
    ref = increase_fraction(
        [e.result for e in reference], FractionMode.SIGNIFICANT_ONLY,
        groups=[e.group_id for e in reference],
    )
    return promo, ref


def test_criterion_4_null_result_reproduction():
    """Matched reference groups absorb externalities: no-effect corpora show
    no promotion edge, lifted corpora do."""
    null_cfg = SynthConfig(
        n_venues=42_000, days=70, promo_fraction=2000 / 42_000, zero_venue_fraction=0.05,
        base_rate_log_mean=1.6, base_rate_log_sd=0.6,
        platform_trend_per_day=0.008, weekly_seasonality_amp=0.45,
        effect_multiplier=0.0, seed=1040,
    )
    promo_null, ref_null = _significant_only_fractions(null_cfg, run_seed=1040)
    null_gap = abs(promo_null.fraction - ref_null.fraction)

    lifted_cfg = SynthConfig(
        n_venues=10_500, days=70, promo_fraction=500 / 10_500, zero_venue_fraction=0.05,
        base_rate_log_mean=1.6, base_rate_log_sd=0.6,
        effect_multiplier=0.3, seed=2040,
    )
    promo_lift, ref_lift = _significant_only_fractions(lifted_cfg, run_seed=2040)
    lift_margin = promo_lift.fraction - ref_lift.fraction

    check(
        4,
        null_gap < 0.03 and lift_margin > 0.10,
        f"delta=0 corpus (2000 promoted + 40000 pool): |{promo_null.fraction:.4f} - "
        f"{ref_null.fraction:.4f}| = {null_gap:.4f} < 0.03; delta=0.3 corpus: margin "
        f"{lift_margin:.3f} > 0.10",
    )


def test_criterion_5_auc_u_identity():
    """AUC equals U/(n_pos*n_neg) and brute-force pair counting exactly."""
    max_gap = 0.0
    for i in range(200):
        r = derive_rng(500, i)
        n_p = int(r.integers(1, 201))
        n_n = int(r.integers(1, 201))
        pos = r.integers(0, 12, n_p).astype(float)  # heavy ties
        neg = r.integers(0, 12, n_n).astype(float)
        u = mann_whitney(pos, neg).u
        auc = feature_auc(pos, neg)
        max_gap = max(max_gap, abs(auc - u / (n_p * n_n)))
        wins = float((pos[:, None] > neg).sum()) + 0.5 * float((pos[:, None] == neg).sum())
        if auc != wins / (n_p * n_n):
            check(5, False, f"instance {i}: AUC {auc} != brute force {wins / (n_p * n_n)}")
    check(5, max_gap <= 1e-12, f"max |AUC - U/(n_p n_n)| = {max_gap:.2e} <= 1e-12 over 200 "
                               "tied instances; brute-force pair counting equal exactly")


def _cohens_d_oracle(before, other):
    n1, n2 = len(before), len(other)
    m1 = math.fsum(before) / n1
    m2 = math.fsum(other) / n2
    v1 = math.fsum((x - m1) ** 2 for x in before) / (n1 - 1)
    v2 = math.fsum((x - m2) ** 2 for x in other) / (n2 - 1)
    pooled = math.sqrt(((n1 - 1) * v1 + (n2 - 1) * v2) / (n1 + n2 - 2))
    if pooled == 0.0:
        return 0.0 if m1 == m2 else None
    return (m2 - m1) / pooled


def test_criterion_6_effect_size_oracle():
    """Effect size matches an independent recomputation; invariances exact."""
    worst = 0.0
    for i in range(1000):
        r = derive_rng(600, i)
        a = r.normal(r.uniform(-10, 10), r.uniform(0.1, 5), int(r.integers(2, 60)))
        b = r.normal(r.uniform(-10, 10), r.uniform(0.1, 5), int(r.integers(2, 60)))
        expected = _cohens_d_oracle(a.tolist(), b.tolist())
        got = cohens_d(a, b)
        worst = max(worst, abs(got - expected))

    # power-of-two sample sizes, integer data, integer shift, power-of-two
    # scale: every fp step is exact, so invariance must hold bitwise
    r = derive_rng(601)
    before = r.integers(0, 12, 32).astype(float)
    other = r.integers(2, 16, 32).astype(float)

    def run(b, o):
        return evaluate_effect(b, o, Horizon.SHORT_TERM, TestConfig(), derive_rng(602, "inv"))

    base = run(before, other)
    shifted = run(before + 128.0, other + 128.0)
    scaled = run(before * 16.0, other * 16.0)
    location_exact = (
        shifted.p_value == base.p_value
        and shifted.power == base.power
        and shifted.cohens_d == base.cohens_d
    )
    scale_exact = (
        scaled.p_value == base.p_value
        and scaled.power == base.power
        and scaled.cohens_d == base.cohens_d
        and scaled.label == base.label
    )
    check(
        6,
        worst <= 1e-12 and location_exact and scale_exact,
        f"max |d - oracle| = {worst:.2e} <= 1e-12 over 1000 pairs; location shift and "
        "power-of-two scaling leave p, power, and d bit-identical",
    )


def _haversine_oracle(lat1, lon1, lat2, lon2):
    phi1 = math.radians(lat1)
    phi2 = math.radians(lat2)
    a = (
        math.sin(math.radians(lat2 - lat1) / 2.0) ** 2
        + math.cos(phi1) * math.cos(phi2) * math.sin(math.radians(lon2 - lon1) / 2.0) ** 2
    )
    return 2.0 * EARTH_RADIUS_MILES * math.asin(min(1.0, math.sqrt(a)))


def test_criterion_7_spatial_oracle():
    """Radius queries and geo features equal a brute-force all-pairs scan."""
    r = derive_rng(700)
    cats = list(Category)
    profiles = []
    for i in range(2600):
        profiles.append(VenueProfile(
            venue_id=f"v{i:04d}",
            category=cats[int(r.integers(9))],
            lat=40.3 + float(r.uniform(0, 0.25)),
            lon=-80.1 + float(r.uniform(0, 0.25)),
        ))
    # co-located duplicates exercise the zero-distance edge
    profiles.append(VenueProfile("dup0", Category.FOOD, profiles[0].lat, profiles[0].lon))
    profiles.append(VenueProfile("dup1", Category.ARTS, profiles[1].lat, profiles[1].lon))

    index = RadiusIndex(profiles, cell_deg=0.01)
    radius = 0.5
    coords = [(p.lat, p.lon) for p in profiles]
    mismatches = 0
    worst_feature_gap = 0.0
    for qi, probe in enumerate(profiles):
        brute = {
            p.venue_id for j, p in enumerate(profiles)
            if p.venue_id != probe.venue_id
            and _haversine_oracle(probe.lat, probe.lon, coords[j][0], coords[j][1]) <= radius
        }
        got_profiles = neighborhood(probe, index, radius)
        got = {p.venue_id for p in got_profiles}
        if got != brute:
            mismatches += 1
        if qi < 150:
            f = extract_geo_features(probe, got_profiles, {}, 0.0)
            nb = [p for p in profiles if p.venue_id in brute]
            density = len(nb)
            if density == 0:
                expected_k, expected_e = 0.0, 0.0
            else:
                expected_k = sum(1 for p in nb if p.category is probe.category) / density
                expected_e = 0.0
                for cat in cats:
                    count = sum(1 for p in nb if p.category is cat)
                    if count:
                        frac = count / density
                        expected_e -= frac * math.log(frac)
            worst_feature_gap = max(
                worst_feature_gap,
                abs(f["density"] - density),
                abs(f["competitiveness"] - expected_k),
                abs(f["entropy"] - expected_e),
            )
    check(
        7,
        mismatches == 0 and worst_feature_gap <= 1e-9,
        f"{len(profiles)} venues: 0 neighborhood set mismatches vs all-pairs scan; "
        f"max feature gap {worst_feature_gap:.2e} <= 1e-9",
    )


def test_criterion_8_model_sanity():
    """Classifiers recover planted structure and stay calibrated on noise."""
    r = derive_rng(800)
    n = 10_000
    x = r.normal(0.0, 1.0, n)
    y = (r.random(n) < 1.0 / (1.0 + np.exp(-(0.8 * x - 0.3)))).astype(float)
    model = train_logistic(x.reshape(-1, 1), y)
    coef, intercept = logistic_coefficients(model)
    recovery_ok = abs(coef[0] - 0.8) <= 0.05 and abs(intercept + 0.3) <= 0.05

    xs = np.array([[v] for v in (-3.0, -2.0, -1.5, -1.0, 1.0, 1.5, 2.0, 3.0)])
    ys = np.array([0.0, 0, 0, 0, 1, 1, 1, 1])
    separable_ok = bool(np.array_equal(train_logistic(xs, ys).predict_proba(xs) >= 0.5, ys == 1))

    rng_xor = derive_rng(801)
    X_train = rng_xor.uniform(-1, 1, size=(400, 2))
    y_train = ((X_train[:, 0] > 0) ^ (X_train[:, 1] > 0)).astype(float)
    X_test = rng_xor.uniform(-1, 1, size=(200, 2))
    y_test = ((X_test[:, 0] > 0) ^ (X_test[:, 1] > 0)).astype(float)
    forest = train_forest(X_train, y_train, derive_rng(802))
    xor_accuracy = float(np.mean((forest.predict_proba(X_test) >= 0.5) == (y_test == 1)))

    from test_cli import crafted_features  # reuse the synthetic feature builder

    rows = [row for row in crafted_features(n=300) if row.horizon is Horizon.SHORT_TERM]
    r2 = derive_rng(803)
    for row in rows:  # scramble labels: no real signal remains
        row.values["m_b"] = float(r2.normal())
        row.label = EffectLabel.SIGNIFICANT_INCREASE if r2.random() < 0.5 else EffectLabel.POWERED_NULL
    ds = Dataset.from_rows(rows)
    null_auc = cross_validate(ds, "logistic", ("F_v",), k=10, seed=804).metrics.auc

    check(
        8,
        recovery_ok and separable_ok and xor_accuracy >= 0.9 and 0.45 <= null_auc <= 0.55,
        f"logistic recovered (0.8, -0.3) as ({coef[0]:.3f}, {intercept:.3f}) within 0.05; "
        f"separable toy exact; forest XOR accuracy {xor_accuracy:.3f} >= 0.9; "
        f"random-label CV AUC {null_auc:.3f} in [0.45, 0.55]",
    )


def _run_cli_pipeline(base, corpus_dir, jobs):
    out = base / f"run_jobs{jobs}"
    snapshots = corpus_dir / "snapshots.jsonl"
    offers = corpus_dir / "offers.jsonl"
    venues = corpus_dir / "venues.jsonl"
    common = ["--snapshots", str(snapshots), "--offers", str(offers)]
    seed = ["--seed", "9"]
    assert cli_main(["segment", *common, *seed, "--out", str(out)]) == 0
    assert cli_main(["test", *common, *seed, "--jobs", str(jobs), "--out", str(out)]) == 0
    assert cli_main(["match", *common, "--venues", str(venues), *seed, "--n-groups", "5",
                     "--out", str(out)]) == 0
    assert cli_main(["test", *common, "--groups", str(out / "groups.csv"), *seed,
                     "--jobs", str(jobs), "--out", str(out)]) == 0
    assert cli_main(["features", *common, "--venues", str(venues), "--effects",
                     str(out / "effects.csv"), *seed, "--out", str(out)]) == 0
    assert cli_main(["train", "--features", str(out / "features.csv"), *seed,
                     "--folds", "5", "--out", str(out)]) == 0
    assert cli_main(["report", "--effects", str(out / "effects.csv"),
                     "--reference-effects", str(out / "reference_effects.csv"),
                     "--features", str(out / "features.csv"),
                     "--model-metrics", str(out / "model_metrics.json"),
                     "--venues", str(venues), *seed, "--folds", "5",
                     "--out", str(out)]) == 0
    return (out / "report.json").read_bytes()


def test_criterion_9_determinism(tmp_path):
    """Identical corpus and seed give byte-identical reports, at any --jobs."""
    corpus_dir = tmp_path / "corpus"
    assert cli_main([
        "synth", "--venues", "30", "--days", "100", "--promo-fraction", "0.5",
        "--effect-multiplier", "0.6", "--trend", "0.01", "--seed", "91",
        "--venue-prefix", "a", "--out", str(tmp_path / "a"),
    ]) == 0
    assert cli_main([
        "synth", "--venues", "30", "--days", "100", "--promo-fraction", "0.5",
        "--trend", "-0.012", "--seed", "92",
        "--venue-prefix", "b", "--out", str(tmp_path / "b"),
    ]) == 0
    corpus_dir.mkdir()
    for name in ("snapshots.jsonl", "offers.jsonl", "venues.jsonl"):
        text = (tmp_path / "a" / name).read_text() + (tmp_path / "b" / name).read_text()
        (corpus_dir / name).write_text(text)

    report_a = _run_cli_pipeline(tmp_path / "r1", corpus_dir, jobs=1)
    report_b = _run_cli_pipeline(tmp_path / "r2", corpus_dir, jobs=1)
    report_c = _run_cli_pipeline(tmp_path / "r3", corpus_dir, jobs=2)
    check(
        9,
        report_a == report_b == report_c,
        f"report.json byte-identical across two runs and across --jobs 1/2 "
        f"({len(report_a)} bytes)",
    )


def test_criterion_10_throughput():
    """One test+power pair under 100 ms; 10,000 campaigns end to end under 10 min."""
    before, during = sample_segment_pair(3.0, 0.2, 28, 28, derive_rng(1000, "pair"))
    start = time.perf_counter()
    bootstrap_test(before, during, rng=derive_rng(1000, "t"))
    bootstrap_test(before, during, rng=derive_rng(1000, "p")).power
    pair_ms = (time.perf_counter() - start) * 1000.0

    start = time.perf_counter()
    cfg = SynthConfig(
        n_venues=10_000, days=70, promo_fraction=1.0,
        base_rate_log_mean=1.3, base_rate_log_sd=0.6, effect_multiplier=0.2, seed=1001,
    )
    corpus = generate_corpus_data(cfg)
    loaded = build_corpus(corpus.snapshots, corpus.offers, corpus.profiles)
    config = RunConfig(horizon="short", seed=1001, jobs=2)
    eligibility = segment_stage(loaded, config)
    effects = run_test_stage(loaded, eligibility, config)
    write_effects_csv(effects)
    elapsed = time.perf_counter() - start
    check(
        10,
        pair_ms < 100.0 and len(effects) == 10_000 and elapsed < 600.0,
        f"test+power pair {pair_ms:.1f} ms < 100 ms; {len(effects)} campaigns "
        f"end-to-end in {elapsed:.0f}s < 600s",
    )
