"""Synthetic generator: sampling distributions and closed-form policy values."""
from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from regimelist.domain import DecisionList, Pattern, Predicate, assign
from regimelist.errors import SizeLimitError, ValidationError
from regimelist.io import write_dataset_csv
from regimelist.mining import MiningConfig, mine_patterns
from regimelist.synth import (
    GeneratorSpec,
    Marginal,
    default_generator_spec,
    generate,
    true_objective,
    true_value,
)
from regimelist.objective import ObjectiveWeights

from conftest import oracle_true_objective, oracle_true_value


def planted_match_probability(gspec: GeneratorSpec, arm: int) -> float:
    """P(planted regime assigns ``arm``) from the marginals, by
    inclusion-exclusion over the planted rules (features are independent and
    no two rules share one)."""
    rule_probs = []
    for pattern, t in gspec.planted_regime.rules:
        p = 1.0
        for pred in pattern.predicates:
            marg = gspec.marginals[pred.feature]
            spec = gspec.specs[pred.feature]
            assert marg.kind == "levels" and pred.op == "="
            p *= marg.params[spec.levels.index(pred.value)]
        rule_probs.append((p, t))
    p_none = 1.0
    p_arm = 0.0
    for p, t in rule_probs:
        if t == arm:
            p_arm += p_none * p
            # first-match: remaining rules only see the miss mass
        p_none *= 1 - p
    if gspec.planted_regime.default_treatment == arm:
        p_arm += p_none
    return p_arm


class TestMarginal:
    def test_levels_probabilities_must_sum_to_one(self):
        with pytest.raises(ValidationError):
            Marginal("levels", (0.5, 0.6))

    def test_uniform_needs_ordered_bounds(self):
        with pytest.raises(ValidationError):
            Marginal("uniform", (5.0, 1.0))

    def test_normal_needs_positive_scale(self):
        with pytest.raises(ValidationError):
            Marginal("normal", (0.0, -1.0))

    @pytest.mark.parametrize("z, phi", [
        (0.0, 0.5),
        (1.0, 0.8413447460685429),
        (-1.96, 0.024997895148220435),
        (3.0, 0.9986501019683699),
        (-5.0, 2.866515718791939e-07),
        (8.0, 0.9999999999999993),
    ])
    @pytest.mark.parametrize("mu, sd", [(0.0, 1.0), (25.0, 4.0)])
    def test_normal_cdf_matches_reference(self, mu, sd, z, phi):
        assert Marginal("normal", (mu, sd)).cdf(mu + z * sd) == pytest.approx(phi, rel=1e-14)

    def test_normal_cdf_symmetric(self):
        m = Marginal("normal", (25.0, 4.0))
        for a in (0.1, 1.0, 2.5, 7.0, 40.0):
            assert m.cdf(25.0 - a) + m.cdf(25.0 + a) == pytest.approx(1.0, abs=1e-15)

    def test_uniform_cdf_clamped(self):
        m = Marginal("uniform", (2.0, 6.0))
        assert [m.cdf(x) for x in (-1e9, 1.0, 2.0, 3.0, 6.0, 7.5)] == \
            [0.0, 0.0, 0.0, 0.25, 1.0, 1.0]


class TestGenerate:
    def test_schema_matches_cost_table(self):
        gspec = default_generator_spec(n_subjects=100)
        costs = {s.name: s.cost for s in gspec.specs}
        assert costs["peak_flow"] == 2.0
        assert costs["spiro_test"] == 4.0
        assert costs["methacholine"] == 6.0
        cheap = [c for n, c in costs.items()
                 if n not in ("peak_flow", "spiro_test", "methacholine")]
        assert cheap == [1.0] * 13
        assert dict(zip(gspec.treatment_names, gspec.treatment_costs)) == {
            "quick_relief": 10.0,
            "controller": 15.0,
        }
        assert sorted(gspec.outcome_scores) == [0.0, 33.0, 66.0, 100.0]

    def test_deterministic_for_fixed_seed(self):
        gspec = default_generator_spec(n_subjects=500, seed=5)
        ds1, gt1 = generate(gspec)
        ds2, gt2 = generate(gspec)
        assert all(np.array_equal(a, b) for a, b in zip(ds1.columns, ds2.columns))
        assert np.array_equal(ds1.treatments, ds2.treatments)
        assert np.array_equal(ds1.outcomes, ds2.outcomes)
        assert gt1.planted_true_value == gt2.planted_true_value

    def test_csv_output_byte_identical_across_runs(self, tmp_path):
        gspec = default_generator_spec(n_subjects=200, seed=3)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_dataset_csv(generate(gspec)[0], a)
        write_dataset_csv(generate(gspec)[0], b)
        assert a.read_bytes() == b.read_bytes()

    def test_unconfounded_treatments_are_uniform(self):
        gspec = default_generator_spec(n_subjects=10000, seed=1,
                                       confounding_strength=0.0)
        ds, _ = generate(gspec)
        for a in range(ds.n_treatments):
            freq = float(np.mean(ds.treatments == a))
            assert abs(freq - 0.5) <= 0.02

    def test_confounding_shifts_treatment_by_features(self):
        gspec = default_generator_spec(n_subjects=8000, seed=2,
                                       confounding_strength=0.8)
        ds, _ = generate(gspec)
        wheezing = ds.feature_index("wheezing")
        yes = ds.columns[wheezing] == ds.specs[wheezing].levels.index("yes")
        controller = ds.treatment_code("controller")
        p_yes = float(np.mean(ds.treatments[yes] == controller))
        p_no = float(np.mean(ds.treatments[~yes] == controller))
        assert p_yes > p_no + 0.1

    def test_level_marginals_respected(self):
        gspec = default_generator_spec(n_subjects=20000, seed=4)
        ds, _ = generate(gspec)
        for f, (spec, marg) in enumerate(zip(gspec.specs, gspec.marginals)):
            if marg.kind != "levels":
                continue
            for k, p in enumerate(marg.params):
                freq = float(np.mean(ds.columns[f] == k))
                assert abs(freq - p) <= 0.02, (spec.name, k)

    def test_matched_subjects_score_higher(self):
        gspec = default_generator_spec(n_subjects=20000, seed=6)
        ds, gt = generate(gspec)
        best = assign(ds, gt.planted_regime)
        agree = ds.treatments == best
        assert float(ds.outcomes[agree].mean()) == pytest.approx(
            gspec.matched_mean, abs=1.0
        )
        assert float(ds.outcomes[~agree].mean()) == pytest.approx(
            gspec.mismatched_mean, abs=1.0
        )


class TestTrueValue:
    def test_planted_regime_attains_matched_mean(self):
        gspec = default_generator_spec(n_subjects=10)
        tv = true_value(gspec, gspec.planted_regime)
        assert isinstance(tv, float)
        assert tv == pytest.approx(gspec.matched_mean, abs=1e-9)

    def test_constant_policies_match_inclusion_exclusion(self):
        gspec = default_generator_spec(n_subjects=10)
        mm, delta = gspec.mismatched_mean, gspec.matched_mean - gspec.mismatched_mean
        for arm in range(len(gspec.treatment_names)):
            dl = DecisionList(rules=(), default_treatment=arm)
            tv = true_value(gspec, dl)
            want = mm + delta * planted_match_probability(gspec, arm)
            assert tv == pytest.approx(want, abs=1e-9)

    def test_planted_beats_every_constant_policy(self):
        gspec = default_generator_spec(n_subjects=10)
        planted = true_value(gspec, gspec.planted_regime)
        for arm in range(len(gspec.treatment_names)):
            dl = DecisionList(rules=(), default_treatment=arm)
            assert planted >= true_value(gspec, dl)

    def test_ground_truth_record_carries_planted_value(self):
        gspec = default_generator_spec(n_subjects=50, seed=8)
        _, gt = generate(gspec)
        assert gt.planted_true_value == true_value(gspec, gspec.planted_regime)
        d = gt.to_dict(gspec.specs, gspec.treatment_names)
        assert d["matched_mean"] == gspec.matched_mean

    def test_cell_limit_enforced(self):
        gspec = default_generator_spec(n_subjects=10)
        with pytest.raises(SizeLimitError):
            true_value(gspec, gspec.planted_regime, max_cells=1)

    def test_rule_reorder_preserves_value_when_assignment_unchanged(self):
        # planted rules all map to the same treatment, so any order induces
        # the same policy function and the same population value
        gspec = default_generator_spec(n_subjects=10)
        r = gspec.planted_regime.rules
        reordered = DecisionList(
            rules=(r[1], r[0], r[2]),
            default_treatment=gspec.planted_regime.default_treatment,
        )
        a = true_value(gspec, gspec.planted_regime)
        b = true_value(gspec, reordered)
        assert a == pytest.approx(b, abs=1e-9)

    def test_thresholds_on_reals_supported(self):
        gspec = default_generator_spec(n_subjects=10)
        age = next(f for f, s in enumerate(gspec.specs) if s.name == "age")
        dl = DecisionList(
            rules=((Pattern((Predicate(age, ">=", 60.0),)), 1),),
            default_treatment=0,
        )
        tv = true_value(gspec, dl)
        # P(age >= 60) = (90-60)/(90-18); match prob blends with the planted
        # regime, so just sanity-check the range
        assert gspec.mismatched_mean <= tv <= gspec.matched_mean


class TestTrueObjective:
    def test_metha_last_ordering_is_cheaper(self):
        gspec = default_generator_spec(n_subjects=10)
        r1, r2, r3 = gspec.planted_regime.rules
        d = gspec.planted_regime.default_treatment
        metha_last = DecisionList(rules=(r1, r2, r3), default_treatment=d)
        metha_first = DecisionList(rules=(r3, r1, r2), default_treatment=d)
        assert true_objective(gspec, metha_last) > true_objective(gspec, metha_first)

    def test_objective_decomposition(self):
        gspec = default_generator_spec(n_subjects=10)
        dl = gspec.planted_regime
        base = true_objective(gspec, dl, lambda1=1.0, lambda2=0.0, lambda3=0.0)
        assert base == pytest.approx(true_value(gspec, dl), abs=1e-9)
        with_costs = true_objective(gspec, dl)
        assert with_costs < base


@pytest.fixture(scope="module")
def mined_instance():
    gspec = default_generator_spec(n_subjects=2000, seed=3, confounding_strength=0.5)
    ds, _ = generate(gspec)
    cands = mine_patterns(ds, MiningConfig(min_support=0.05, max_predicates=2))
    return gspec, cands.patterns


class TestTruthOracle:
    def test_exact_truth_equals_cell_by_cell_oracle(self, mined_instance):
        # random lists over mined patterns, some rules replaced by a real
        # threshold no quantile produced, under every operator
        gspec, patterns = mined_instance
        reals = [f for f, s in enumerate(gspec.specs) if s.kind == "real"]
        rng = np.random.default_rng(71)
        n_real = 0
        for _ in range(120):
            rules = []
            for p in rng.choice(len(patterns), size=int(rng.integers(0, 4)), replace=False):
                pattern = patterns[int(p)]
                if rng.random() < 0.3:
                    f = reals[int(rng.integers(len(reals)))]
                    a, b = gspec.marginals[f].params
                    t = rng.uniform(a, b) if gspec.marginals[f].kind == "uniform" \
                        else a + b * rng.standard_normal()
                    op = ("=", "!=", "<", "<=", ">", ">=")[int(rng.integers(6))]
                    pattern = Pattern((Predicate(f, op, float(np.round(t, 2))),))
                rules.append((pattern, int(rng.integers(2))))
            dl = DecisionList(rules=tuple(rules), default_treatment=int(rng.integers(2)))
            n_real += any(gspec.specs[p.feature].kind == "real"
                          for pat, _ in rules for p in pat.predicates)
            assert true_value(gspec, dl) == oracle_true_value(gspec, dl)
            weights = [float(w) for w in np.round(rng.uniform(0.0, 2.0, 3), 3)]
            for full in (False, True):
                assert true_objective(gspec, dl, *weights, charge_default_full=full) \
                    == oracle_true_objective(gspec, dl, *weights, charge_default_full=full)
        assert n_real >= 60
