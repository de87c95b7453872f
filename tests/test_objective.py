"""Objective terms and metrics report against independent recomputation."""
from __future__ import annotations

import numpy as np
import pytest

from regimelist.domain import DecisionList
from regimelist.errors import ValidationError
from regimelist.estimation import DRScoreMatrix
from regimelist.objective import (
    MetricsReport,
    ObjectiveWeights,
    compute_metrics,
    objective_value,
)

from conftest import (
    oracle_assessment_costs,
    oracle_assigned,
    oracle_objective,
    random_dataset,
    random_decision_list,
    random_scores,
    random_weights,
)


class TestWeights:
    def test_defaults_are_unit(self):
        w = ObjectiveWeights()
        assert (w.lambda1, w.lambda2, w.lambda3) == (1.0, 1.0, 1.0)

    def test_negative_weight_rejected(self):
        for bad in ({"lambda1": -0.5}, {"lambda1": float("nan")},
                    {"lambda2": float("nan")}, {"lambda3": float("inf")}):
            with pytest.raises(ValidationError):
                ObjectiveWeights(**bad)

    def test_round_trip(self):
        w = ObjectiveWeights(0.5, 1.5, 2.0)
        assert ObjectiveWeights.from_dict(w.to_dict()) == w


class TestObjectiveValue:
    def test_matches_oracle_on_random_instances(self):
        rng = np.random.default_rng(3)
        for _ in range(60):
            ds = random_dataset(rng, n_subjects=int(rng.integers(1, 50)))
            dl = random_decision_list(rng, ds)
            scores = random_scores(rng, ds)
            w = random_weights(rng)
            for full in (False, True):
                got = objective_value(ds, dl, scores, w, charge_default_full=full)
                want = oracle_objective(ds, dl, scores, w, charge_default_full=full)
                assert got == pytest.approx(want, abs=1e-9)

    def test_shape_mismatch_rejected(self):
        rng = np.random.default_rng(5)
        ds = random_dataset(rng, n_subjects=10, m=2)
        bad = DRScoreMatrix(
            scores=np.zeros((10, 3)),
            treatment_names=("t0", "t1", "x"),
        )
        dl = DecisionList(rules=(), default_treatment=0)
        with pytest.raises(ValidationError):
            objective_value(ds, dl, bad, ObjectiveWeights())

    def test_overflowing_weights_rejected(self):
        # a finite weight whose objective sums overflow exits as bad input,
        # never as an infinite objective
        rng = np.random.default_rng(7)
        ds = random_dataset(rng, n_subjects=10)
        scores = random_scores(rng, ds)
        dl = DecisionList(rules=(), default_treatment=0)
        for name in ("lambda1", "lambda2", "lambda3"):
            with pytest.raises(ValidationError, match="overflows"):
                compute_metrics(ds, dl, scores, ObjectiveWeights(**{name: 1e307}))
        report = compute_metrics(ds, dl, scores, ObjectiveWeights(lambda1=1e300))
        assert np.isfinite(report.objective)

    def test_empty_list_has_zero_assessment(self):
        rng = np.random.default_rng(9)
        ds = random_dataset(rng)
        dl = DecisionList(rules=(), default_treatment=1)
        rep = compute_metrics(ds, dl, random_scores(rng, ds))
        assert rep.mean_assessment_cost == 0.0
        assert rep.mean_treatment_cost == float(ds.treatment_costs[1])


class TestMetricsReport:
    def test_consistency_identity(self):
        # objective must equal l1*outcome - l2*assessment - l3*treatment
        # exactly as reported, to within accumulated rounding
        rng = np.random.default_rng(17)
        for _ in range(30):
            ds = random_dataset(rng, n_subjects=int(rng.integers(2, 60)))
            dl = random_decision_list(rng, ds)
            scores = random_scores(rng, ds)
            w = random_weights(rng)
            rep = compute_metrics(ds, dl, scores, w)
            recombined = (
                w.lambda1 * rep.estimated_outcome
                - w.lambda2 * rep.mean_assessment_cost
                - w.lambda3 * rep.mean_treatment_cost
            )
            assert abs(rep.objective - recombined) <= 1e-12

    def test_group_sizes_cover_everyone(self):
        rng = np.random.default_rng(23)
        ds = random_dataset(rng, n_subjects=35)
        dl = random_decision_list(rng, ds, max_rules=3)
        rep = compute_metrics(ds, dl, random_scores(rng, ds), ObjectiveWeights())
        assert len(rep.group_sizes) == len(dl.rules) + 1
        assert sum(rep.group_sizes) == ds.n_subjects

    def test_treatment_shares_sum_to_one(self):
        rng = np.random.default_rng(29)
        ds = random_dataset(rng, n_subjects=40)
        dl = random_decision_list(rng, ds)
        rep = compute_metrics(ds, dl, random_scores(rng, ds), ObjectiveWeights())
        assert sum(rep.treatment_shares.values()) == pytest.approx(1.0)
        assert set(rep.treatment_shares) == set(ds.treatment_names)

    def test_report_matches_term_functions(self):
        rng = np.random.default_rng(31)
        ds = random_dataset(rng, n_subjects=25)
        dl = random_decision_list(rng, ds)
        scores = random_scores(rng, ds)
        w = random_weights(rng)
        rep = compute_metrics(ds, dl, scores, w)
        assigned = oracle_assigned(ds, dl)
        n = ds.n_subjects
        g1 = sum(scores.scores[i, a] for i, a in enumerate(assigned)) / n
        g2 = sum(oracle_assessment_costs(ds, dl)) / n
        g3 = sum(float(ds.treatment_costs[a]) for a in assigned) / n
        assert rep.estimated_outcome == pytest.approx(g1, rel=0, abs=1e-12)
        assert rep.mean_assessment_cost == pytest.approx(g2, rel=0, abs=1e-12)
        assert rep.mean_treatment_cost == pytest.approx(g3, rel=0, abs=1e-12)
        assert rep.objective == objective_value(ds, dl, scores, w)

    def test_text_rendering_mentions_every_term(self):
        rng = np.random.default_rng(37)
        ds = random_dataset(rng, n_subjects=15)
        dl = random_decision_list(rng, ds, max_rules=2)
        rep = compute_metrics(ds, dl, random_scores(rng, ds), ObjectiveWeights())
        text = rep.to_text()
        for needle in ("objective", "outcome", "assessment", "treatment"):
            assert needle in text

    def test_to_dict_round_trips_through_json_types(self):
        import json

        rng = np.random.default_rng(41)
        ds = random_dataset(rng, n_subjects=12)
        dl = random_decision_list(rng, ds, max_rules=2)
        rep = compute_metrics(ds, dl, random_scores(rng, ds), ObjectiveWeights())
        d = json.loads(json.dumps(rep.to_dict()))
        assert d["objective"] == rep.objective
        assert d["n_subjects"] == ds.n_subjects


class TestWeightScaling:
    def test_scaling_all_weights_scales_objective(self):
        rng = np.random.default_rng(43)
        ds = random_dataset(rng, n_subjects=30)
        dl = random_decision_list(rng, ds)
        scores = random_scores(rng, ds)
        w = ObjectiveWeights(0.7, 1.3, 0.4)
        scaled = ObjectiveWeights(0.7 * 3, 1.3 * 3, 0.4 * 3)
        a = objective_value(ds, dl, scores, w)
        b = objective_value(ds, dl, scores, scaled)
        assert b == pytest.approx(3 * a, rel=1e-12)
