"""Aggregation of per-campaign results into plot-ready report tables.

The report mirrors the analysis outputs: increase-fraction tables with
confidence intervals for the promotion and reference cohorts, effect-size
ECDF points per venue category, a per-feature discrimination table, model
metrics for every feature-set combination, and the probability gap between
the with- and without-promotion-feature logistic models.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from typing import Optional, Sequence

from .cohort import CATEGORIES, FractionMode, VenueProfile, effect_ecdf, increase_fraction
from .config import RunConfig
from .effect import EffectLabel, Horizon
from .errors import EmptyDenominator, SingularFit, TooFewRows
from .features import FeatureVector, feature_values
from .learn import (
    Dataset,
    NEGATIVE_LABELS,
    POSITIVE_LABEL,
    cross_validate,
    mann_whitney,
    out_of_sample_eval,
    rms_gap,
    rms_probability_gap,
    train_model,
)
from .pipeline import CampaignEffect, _horizons
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


def _horizon_key(horizon: Horizon) -> str:
    return "short_term" if horizon is Horizon.SHORT_TERM else "long_term"


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


def _ecdf(ds) -> dict:
    ecdf = effect_ecdf(ds)
    return {"points": ecdf.points, "n": ecdf.n, "undefined": ecdf.undefined_count}


def effect_tables(
    effects: Sequence[CampaignEffect],
    reference_effects: Sequence[CampaignEffect],
    profiles: Sequence[VenueProfile],
    seed: int,
) -> dict:
    """Increase fractions, label counts, and effect-size ECDFs per horizon."""
    category_of = {p.venue_id: p.category.value for p in profiles}
    tables: dict = {}
    for horizon in (Horizon.SHORT_TERM, Horizon.LONG_TERM):
        promo = [e for e in effects if e.horizon is horizon]
        ref = [e for e in reference_effects if e.horizon is horizon]
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
            ecdf_tables["all"] = _ecdf([r.cohens_d for r in promo_results])
        if ref:
            entry["reference"] = _fractions(
                [e.result for e in ref], groups=[e.group_id for e in ref],
                stream=(seed, "fraction", _horizon_key(horizon), "reference"),
            )
        by_category = {}
        for cat in CATEGORIES:
            cat_results = [e.result for e in promo if category_of.get(e.venue_id) == cat.value]
            if cat_results:
                by_category[cat.value] = _fractions(cat_results)
                ecdf_tables[cat.value] = _ecdf([r.cohens_d for r in cat_results])
        entry["promotion_by_category"] = by_category
        entry["effect_ecdf"] = ecdf_tables
        tables[_horizon_key(horizon)] = entry
    return tables


def feature_auc_table(rows: Sequence[FeatureVector]) -> list[dict]:
    """Per-feature AUC and Mann-Whitney p for both horizons, one test per cell.

    The AUC is ``U / (n_pos * n_neg)``, the expression ``feature_auc`` returns.
    """
    classes = {}  # horizon -> (positive, negative) feature values, one dict per row
    for horizon in Horizon:
        in_horizon = [r for r in rows if r.horizon is horizon]
        classes[horizon] = (
            [feature_values(r) for r in in_horizon if r.label is POSITIVE_LABEL],
            [feature_values(r) for r in in_horizon if r.label in NEGATIVE_LABELS],
        )
    out = []
    for feature in TABLE_FEATURES:
        record: dict = {"feature": feature}
        for horizon, suffix in ((Horizon.SHORT_TERM, "short"), (Horizon.LONG_TERM, "long")):
            positives, negatives = classes[horizon]
            pos = [values[feature] for values in positives]
            neg = [values[feature] for values in negatives]
            if pos and neg:
                mw = mann_whitney(pos, neg)
                record[f"auc_{suffix}"] = mw.u / (len(pos) * len(neg))
                record[f"p_{suffix}"] = mw.p_value
            else:
                record[f"auc_{suffix}"] = None
                record[f"p_{suffix}"] = None
        out.append(record)
    return out


def feature_auc_csv(table: Sequence[dict]) -> str:
    columns = ("feature", "auc_short", "p_short", "auc_long", "p_long")
    return csv_text(columns, ([rec[k] for k in columns] for rec in table))


def train_models(
    rows: Sequence[FeatureVector], config: RunConfig
) -> tuple[list[dict], dict]:
    """Cross-validated and out-of-sample metrics for every model combo.

    Returns the model-metrics records and the RMS probability gaps between
    the logistic models with and without promotion features.
    """
    metrics_records: list[dict] = []
    rms_gaps: dict = {"cv": {}, "out_of_sample": {}}
    for horizon in _horizons(config):
        h_rows = [r for r in rows if r.horizon is horizon]
        if not h_rows:
            continue
        ds = Dataset.from_rows(h_rows)
        inconclusive = [r for r in h_rows if r.label is EffectLabel.INCONCLUSIVE]
        eval_rows = [r for r in inconclusive if r.d_observed is not None and r.d_observed != 0.0]
        if len(ds) < config.folds:
            raise TooFewRows(
                f"{len(ds)} labelled rows for {_horizon_key(horizon)} < {config.folds} folds"
            )
        if ds.n_positive < 2 or ds.n_negative < 2:
            raise TooFewRows(
                f"{_horizon_key(horizon)}: need at least 2 rows per class "
                f"(got {ds.n_positive} positive, {ds.n_negative} negative)"
            )
        cv_scores: dict = {}
        full_logistic: dict = {}
        for kind in MODEL_KINDS:
            for combo in FEATURE_SET_COMBOS:
                record = {
                    "model": kind,
                    "feature_sets": list(combo),
                    "horizon": _horizon_key(horizon),
                    "n_rows": len(ds),
                    "seed": config.seed,
                    "standardized": kind == "logistic",
                }
                try:
                    cv = cross_validate(ds, kind, combo, k=config.folds, seed=config.seed)
                except SingularFit as exc:
                    # e.g. a corpus where every venue is isolated leaves the
                    # geographic block constant; record and move on
                    record["skipped"] = str(exc)
                    metrics_records.append(record)
                    continue
                record["metrics"] = asdict(cv.metrics)
                fits = list(cv.models)
                if eval_rows:
                    model = train_model(ds.rows, ds.y, kind, combo, seed=config.seed)
                    fits.append(model.inner)
                    record["out_of_sample"] = {
                        "metrics": asdict(out_of_sample_eval(model, eval_rows)),
                        "n_rows": len(eval_rows),
                    }
                if kind == "logistic":
                    cv_scores[combo] = cv.scores
                    if eval_rows:
                        full_logistic[combo] = model
                    record["dropped_columns"] = sorted(
                        {cv.columns[j] for fit in fits for j in fit.dropped})
                    record["not_converged"] = sum(not fit.converged for fit in fits)
                metrics_records.append(record)

        pair_a, pair_b = RMS_PAIR
        if pair_a in cv_scores and pair_b in cv_scores:
            rms_gaps["cv"][_horizon_key(horizon)] = rms_gap(cv_scores[pair_a], cv_scores[pair_b])
        if pair_a in full_logistic and pair_b in full_logistic:
            rms_gaps["out_of_sample"][_horizon_key(horizon)] = rms_probability_gap(
                full_logistic[pair_a], full_logistic[pair_b], eval_rows
            )
    return metrics_records, rms_gaps


def build_report(
    config: RunConfig,
    cohort_summary: dict,
    effects: Sequence[CampaignEffect],
    reference_effects: Sequence[CampaignEffect],
    profiles: Sequence[VenueProfile],
    feature_rows: Sequence[FeatureVector],
    model_metrics: Optional[list[dict]],
    rms_gaps: Optional[dict],
) -> dict:
    return {
        "config": config.as_dict(),
        "cohort_summary": cohort_summary,
        "effect_tables": effect_tables(effects, reference_effects, profiles, config.seed),
        "feature_aucs": feature_auc_table(feature_rows) if feature_rows else [],
        "model_metrics": model_metrics or [],
        "rms_gaps": rms_gaps or {"cv": {}, "out_of_sample": {}},
    }


def render_report(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"
