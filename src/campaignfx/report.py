"""Aggregation of per-campaign results into plot-ready report tables.

The report mirrors the analysis outputs: increase-fraction tables with
confidence intervals for the promotion and reference cohorts, effect-size
ECDF points per venue category, a per-feature discrimination table, model
metrics for every feature-set combination, and the probability gap between
the with- and without-promotion-feature logistic models.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Optional, Sequence

from .cohort import CATEGORIES, FractionMode, VenueProfile, effect_ecdf, increase_fraction
from .config import RunConfig
from .effect import EffectLabel, Horizon
from .errors import EmptyDenominator, EmptyEvalSet, SingularFit, TooFewRows
from .features import FeatureVector
from .learn import Dataset, cross_validate, mann_whitney, metrics_from_scores, rms_gap, train_model
from .pipeline import CampaignEffect, fan_out
from .rng import derive_rng
from .series import csv_text

# numeric features reported in the per-feature table
TABLE_FEATURES = [
    "c_a", "m_b", "loyalty", "likes", "tips",
    "duration", "n_s",
    "density", "area_pop", "competitiveness", "entropy",
]

FEATURE_SET_COMBOS: tuple[tuple[str, ...], ...] = (
    ("F_p",),
    ("F_v",),
    ("F_g",),
    ("F_p", "F_v"),
    ("F_p", "F_g"),
    ("F_v", "F_g"),
    ("F_p", "F_v", "F_g"),
)

MODEL_KINDS = ("logistic", "forest")

RMS_PAIR = (("F_v", "F_g"), ("F_p", "F_v", "F_g"))


_FRACTION_MODES = (("raw_sign", FractionMode.RAW_SIGN), ("significant_only", FractionMode.SIGNIFICANT_ONLY))


def _fractions(results, groups=None, stream=None) -> dict:
    """Increase fraction of ``results`` in each mode; ``None`` where the mode counts nothing.

    With ``stream``, a grouped interval draws from ``derive_rng(*stream, mode)``.
    """
    out = {}
    for key, mode in _FRACTION_MODES:
        rng = derive_rng(*stream, key) if stream is not None else None
        try:
            out[key] = asdict(increase_fraction(results, mode, groups=groups, rng=rng))
        except EmptyDenominator:
            out[key] = None
    return out


def effect_tables(
    effects: Sequence[CampaignEffect],
    reference_effects: Sequence[CampaignEffect],
    profiles: Sequence[VenueProfile],
    seed: int,
) -> dict:
    """Increase fractions, label counts, and effect-size ECDFs per horizon."""
    category_of = {p.venue_id: p.category.value for p in profiles}
    tables: dict = {}
    for horizon in Horizon:
        promo = [e for e in effects if e.result.horizon is horizon]
        ref = [e for e in reference_effects if e.result.horizon is horizon]
        if not promo and not ref:
            continue
        entry: dict = {"n_promotion": len(promo), "n_reference": len(ref)}
        promo_results = [e.result for e in promo]
        ecdf_tables = {}
        if promo_results:
            entry["promotion"] = _fractions(promo_results)
            entry["label_counts"] = {
                label.value: sum(1 for r in promo_results if r.label is label)
                for label in EffectLabel
            }
            ecdf_tables["all"] = effect_ecdf([r.cohens_d for r in promo_results])
        if ref:
            entry["reference"] = _fractions(
                [e.result for e in ref], groups=[e.group_id for e in ref],
                stream=(seed, "fraction", f"{horizon.flag}_term", "reference"),
            )
        by_category = {}
        for cat in CATEGORIES:
            cat_results = [e.result for e in promo if category_of.get(e.venue_id) == cat.value]
            if cat_results:
                by_category[cat.value] = _fractions(cat_results)
                ecdf_tables[cat.value] = effect_ecdf([r.cohens_d for r in cat_results])
        entry["promotion_by_category"] = by_category
        entry["effect_ecdf"] = ecdf_tables
        tables[f"{horizon.flag}_term"] = entry
    return tables


def feature_auc_table(rows: Sequence[FeatureVector]) -> list[dict]:
    """Per-feature AUC and Mann-Whitney p for both horizons, one test per cell.

    The AUC is ``U / (n_pos * n_neg)``, the expression ``feature_auc`` returns.
    """
    datasets = {h: Dataset.from_rows([r for r in rows if r.horizon is h]) for h in Horizon}
    out = []
    for feature in TABLE_FEATURES:
        record: dict = {"feature": feature}
        for horizon, ds in datasets.items():
            values = ds.column(feature)
            pos, neg = values[ds.y == 1.0], values[ds.y == 0.0]
            if len(pos) and len(neg):
                mw = mann_whitney(pos, neg)
                record[f"auc_{horizon.flag}"] = mw.u / (len(pos) * len(neg))
                record[f"p_{horizon.flag}"] = mw.p_value
            else:
                record[f"auc_{horizon.flag}"] = None
                record[f"p_{horizon.flag}"] = None
        out.append(record)
    return out


def feature_auc_csv(table: Sequence[dict]) -> str:
    columns = ("feature", "auc_short", "p_short", "auc_long", "p_long")
    return csv_text(columns, ([rec[k] for k in columns] for rec in table))


@dataclass(frozen=True)
class _ModelTask:
    """One ``(horizon, kind, feature-set)`` configuration of ``train_models``."""

    ds: Dataset
    evals: Optional[Dataset]  # the out-of-sample rows, if any
    horizon: str              # report key, e.g. ``short_term``
    kind: str
    combo: tuple[str, ...]
    config: RunConfig


def _fit_configuration(task: _ModelTask) -> tuple[dict, dict]:
    """The model-metrics record of ``task``, and a fitted logistic model's scores by split
    (``cv``, and ``out_of_sample`` where there are such rows)."""
    ds, evals, kind, combo, seed = task.ds, task.evals, task.kind, task.combo, task.config.seed
    record = {
        "model": kind,
        "feature_sets": list(combo),
        "horizon": task.horizon,
        "n_rows": len(ds),
        "seed": seed,
        "standardized": kind == "logistic",
    }
    try:
        cv = cross_validate(ds, kind, combo, k=task.config.folds, seed=seed)
    except SingularFit as exc:
        # e.g. a corpus where every venue is isolated leaves the
        # geographic block constant; record and move on
        record["skipped"] = str(exc)
        return record, {}
    record["metrics"] = asdict(cv.metrics)
    fits = list(cv.models)
    scores = {"cv": cv.scores}
    if evals is not None:
        model = train_model(ds.matrix(combo)[0], ds.y, kind, combo, seed)
        fits.append(model)
        scores["out_of_sample"] = model.predict_proba(evals.matrix(combo)[0])
        record["out_of_sample"] = {
            "metrics": asdict(metrics_from_scores(evals.y, scores["out_of_sample"])),
            "n_rows": len(evals),
        }
    if kind != "logistic":
        return record, {}
    record["dropped_columns"] = sorted({cv.columns[j] for fit in fits for j in fit.dropped})
    record["not_converged"] = sum(not fit.converged for fit in fits)
    return record, scores


def train_models(
    rows: Sequence[FeatureVector], config: RunConfig
) -> tuple[list[dict], dict]:
    """Cross-validated and out-of-sample metrics for every model combo.

    Returns the model-metrics records and the RMS probability gaps between
    the logistic models with and without promotion features. The
    configurations are fitted through ``fan_out``, in up to ``config.jobs``
    worker processes.
    """
    tasks: list[_ModelTask] = []
    for horizon in config.horizons:
        key = f"{horizon.flag}_term"
        h_rows = [r for r in rows if r.horizon is horizon]
        if not h_rows:
            continue
        ds = Dataset.from_rows(h_rows)
        if len(ds) < config.folds:
            raise TooFewRows(
                f"{len(ds)} labelled rows for {key} < {config.folds} folds"
            )
        if ds.n_positive < 2 or ds.n_negative < 2:
            raise TooFewRows(
                f"{key}: need at least 2 rows per class "
                f"(got {ds.n_positive} positive, {ds.n_negative} negative)"
            )
        try:
            evals: Optional[Dataset] = Dataset.out_of_sample(h_rows)
        except EmptyEvalSet:
            evals = None
        tasks += [_ModelTask(ds, evals, key, kind, combo, config)
                  for kind in MODEL_KINDS for combo in FEATURE_SET_COMBOS]

    metrics_records: list[dict] = []
    scores_of: dict = {}  # (split, horizon key, combo) -> logistic scores
    for task, (record, scores) in zip(tasks, fan_out(_fit_configuration, tasks, config.jobs)):
        metrics_records.append(record)
        for split, split_scores in scores.items():
            scores_of[split, task.horizon, task.combo] = split_scores
    rms_gaps: dict = {"cv": {}, "out_of_sample": {}}
    pair_a, pair_b = RMS_PAIR
    for key in dict.fromkeys(task.horizon for task in tasks):
        for split, gaps in rms_gaps.items():
            if (split, key, pair_a) in scores_of and (split, key, pair_b) in scores_of:
                gaps[key] = rms_gap(scores_of[split, key, pair_a], scores_of[split, key, pair_b])
    return metrics_records, rms_gaps


def build_report(
    config: RunConfig,
    effects: Sequence[CampaignEffect],
    reference_effects: Sequence[CampaignEffect],
    profiles: Sequence[VenueProfile],
    feature_rows: Sequence[FeatureVector],
    model_metrics: Optional[list[dict]],
    rms_gaps: Optional[dict],
) -> dict:
    cohort_summary = {
        "n_venues": len(profiles) if profiles else None,
        "n_promotion_campaigns": len({(e.venue_id, e.start_day) for e in effects}),
        "n_promotion_tests": len(effects),
        "n_long_term_tests": sum(1 for e in effects if e.result.horizon is Horizon.LONG_TERM),
        "n_reference_tests": len(reference_effects),
        "n_reference_groups": len({e.group_id for e in reference_effects if e.group_id is not None}),
        "n_degenerate_tests": sum(1 for e in effects if e.result.degenerate),
    }
    return {
        "config": config.as_dict(),
        "cohort_summary": cohort_summary,
        "effect_tables": effect_tables(effects, reference_effects, profiles, config.seed),
        "feature_aucs": feature_auc_table(feature_rows) if feature_rows else [],
        "model_metrics": model_metrics or [],
        "rms_gaps": rms_gaps or {"cv": {}, "out_of_sample": {}},
    }


def render_report(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n"
