"""Partition, assignment, and cost vectors against row-by-row oracles."""
from __future__ import annotations

import numpy as np
import pytest

from regimelist.domain import (
    BINARY,
    REAL,
    CharacteristicSpec,
    Dataset,
    DecisionList,
    Pattern,
    Predicate,
    assessment_cost_vector,
    assign,
    billed_characteristics_vector,
    feature_set_cost,
    partition,
    pattern_mask,
    satisfy,
    treatment_cost_vector,
)
from regimelist.errors import InvalidPredicateError, ValidationError

from conftest import (
    oracle_assessment_costs,
    oracle_assigned,
    oracle_groups,
    random_dataset,
    random_decision_list,
)


SPECS = (
    CharacteristicSpec("age", REAL, 2.0),
    CharacteristicSpec("smoker", BINARY, 1.0, ("no", "yes")),
)


def tiny_dataset() -> Dataset:
    rows = [
        ((34.0, "yes"), "a", 10.0),
        ((52.0, "no"), "b", 20.0),
        ((41.0, "yes"), "a", 30.0),
    ]
    return Dataset.from_rows(SPECS, ("a", "b"), (5.0, 7.0), rows)


class TestPredicate:
    def test_real_comparisons(self):
        x = (40.0, "yes")
        assert Predicate(0, ">=", 40.0).holds(x, SPECS)
        assert not Predicate(0, ">", 40.0).holds(x, SPECS)
        assert Predicate(0, "<=", 40.0).holds(x, SPECS)
        assert not Predicate(0, "<", 40.0).holds(x, SPECS)
        assert Predicate(0, "=", 40.0).holds(x, SPECS)
        assert not Predicate(0, "!=", 40.0).holds(x, SPECS)

    def test_level_equality(self):
        x = (40.0, "yes")
        assert Predicate(1, "=", "yes").holds(x, SPECS)
        assert not Predicate(1, "=", "no").holds(x, SPECS)
        assert Predicate(1, "!=", "no").holds(x, SPECS)

    def test_unknown_level_rejected(self):
        with pytest.raises(InvalidPredicateError):
            Predicate(1, "=", "maybe").validate(SPECS)

    def test_order_op_on_level_feature_rejected(self):
        with pytest.raises(InvalidPredicateError):
            Predicate(1, ">=", "yes").validate(SPECS)

    def test_feature_out_of_range_rejected(self):
        with pytest.raises(InvalidPredicateError):
            Predicate(9, "=", 1.0).validate(SPECS)

    def test_satisfy_is_conjunction(self):
        pat = Pattern((Predicate(0, ">=", 40.0), Predicate(1, "=", "yes")))
        assert satisfy((41.0, "yes"), pat, SPECS) == 1
        assert satisfy((41.0, "no"), pat, SPECS) == 0
        assert satisfy((39.0, "yes"), pat, SPECS) == 0


class TestPatternMask:
    def test_matches_row_evaluation(self):
        ds = tiny_dataset()
        pat = Pattern((Predicate(0, ">=", 40.0), Predicate(1, "=", "yes")))
        mask = pattern_mask(ds, pat)
        expected = [satisfy(ds.row(i), pat, ds.specs) for i in range(ds.n_subjects)]
        assert mask.tolist() == [bool(e) for e in expected]

    def test_empty_pattern_rejected(self):
        with pytest.raises(ValidationError):
            Pattern(())

    def test_duplicate_predicate_rejected(self):
        with pytest.raises(ValidationError):
            Pattern((Predicate(0, ">=", 1.0), Predicate(0, ">=", 1.0)))

    def test_interval_on_one_feature_allowed(self):
        ds = tiny_dataset()
        pat = Pattern((Predicate(0, ">=", 35.0), Predicate(0, "<", 50.0)))
        assert pattern_mask(ds, pat).tolist() == [False, False, True]


class TestFirstMatchPartition:
    def test_hand_example(self):
        ds = tiny_dataset()
        dl = DecisionList(
            rules=(
                (Pattern((Predicate(1, "=", "yes"),)), 1),
                (Pattern((Predicate(0, ">=", 50.0),)), 0),
            ),
            default_treatment=0,
        )
        ga = partition(ds, dl)
        # subject 0 and 2 hit rule 0; subject 1 hits rule 1
        assert ga.group_of.tolist() == [0, 1, 0]
        assert assign(ds, dl).tolist() == [1, 0, 1]

    def test_earlier_rule_shadows_later(self):
        ds = tiny_dataset()
        pat = Pattern((Predicate(1, "=", "yes"),))
        dl = DecisionList(rules=((pat, 0), (pat, 1)), default_treatment=1)
        # both rules match subjects 0 and 2, the first one wins
        assert assign(ds, dl).tolist() == [0, 1, 0]

    def test_empty_list_assigns_default(self):
        ds = tiny_dataset()
        dl = DecisionList(rules=(), default_treatment=1)
        assert assign(ds, dl).tolist() == [1, 1, 1]
        assert assessment_cost_vector(ds, dl).tolist() == [0.0, 0.0, 0.0]

    def test_randomized_against_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            ds = random_dataset(rng, n_subjects=int(rng.integers(1, 60)))
            dl = random_decision_list(rng, ds)
            ga = partition(ds, dl)
            assert ga.group_of.tolist() == oracle_groups(ds, dl)
            assert assign(ds, dl).tolist() == oracle_assigned(ds, dl)


class TestCosts:
    def test_feature_set_cost_bills_each_feature_once(self):
        assert feature_set_cost(SPECS, [0, 0, 1]) == 3.0
        assert feature_set_cost(SPECS, []) == 0.0

    def test_cumulative_prefix_charging(self):
        ds = tiny_dataset()
        dl = DecisionList(
            rules=(
                (Pattern((Predicate(0, ">=", 50.0),)), 0),
                (Pattern((Predicate(1, "=", "yes"),)), 1),
            ),
            default_treatment=0,
        )
        costs = assessment_cost_vector(ds, dl)
        # subject 1 is in group 0: pays age only; subjects 0 and 2 fall through
        # to rule 2 and pay age + smoker
        assert costs.tolist() == [3.0, 2.0, 3.0]

    def test_default_group_pays_zero_by_default(self):
        ds = tiny_dataset()
        dl = DecisionList(
            rules=((Pattern((Predicate(0, ">=", 100.0),)), 0),),
            default_treatment=1,
        )
        assert assessment_cost_vector(ds, dl).tolist() == [0.0, 0.0, 0.0]

    def test_default_group_full_charge_switch(self):
        ds = tiny_dataset()
        dl = DecisionList(
            rules=((Pattern((Predicate(0, ">=", 100.0),)), 0),),
            default_treatment=1,
        )
        costs = assessment_cost_vector(ds, dl, charge_default_full=True)
        assert costs.tolist() == [2.0, 2.0, 2.0]

    def test_treatment_costs_follow_assignment(self):
        ds = tiny_dataset()
        dl = DecisionList(rules=(), default_treatment=1)
        assert treatment_cost_vector(ds, dl).tolist() == [7.0, 7.0, 7.0]

    def test_billed_characteristic_counts(self):
        ds = tiny_dataset()
        dl = DecisionList(
            rules=(
                (Pattern((Predicate(0, ">=", 50.0),)), 0),
                (Pattern((Predicate(1, "=", "yes"),)), 1),
            ),
            default_treatment=0,
        )
        assert billed_characteristics_vector(ds, dl).tolist() == [2.0, 1.0, 2.0]

    def test_randomized_against_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            ds = random_dataset(rng, n_subjects=int(rng.integers(1, 50)))
            dl = random_decision_list(rng, ds)
            for full in (False, True):
                got = assessment_cost_vector(ds, dl, charge_default_full=full)
                want = oracle_assessment_costs(ds, dl, charge_default_full=full)
                assert got.tolist() == pytest.approx(want)


class TestValidation:
    def test_missing_value_rejected(self):
        with pytest.raises(ValidationError, match="missing"):
            Dataset.from_rows(SPECS, ("a",), (1.0,), [((None, "yes"), "a", 1.0)])

    def test_unknown_treatment_rejected(self):
        with pytest.raises(ValidationError, match="treatment"):
            Dataset.from_rows(SPECS, ("a",), (1.0,), [((1.0, "yes"), "zzz", 1.0)])

    def test_bad_level_mentions_row(self):
        with pytest.raises(ValidationError, match="row 1"):
            Dataset.from_rows(
                SPECS,
                ("a",),
                (1.0,),
                [((1.0, "yes"), "a", 1.0), ((1.0, "purple"), "a", 1.0)],
            )

    def test_non_finite_number_rejected(self):
        with pytest.raises(ValidationError, match="row 1, column 'age': non-finite"):
            Dataset.from_rows(SPECS, ("a",), (1.0,),
                              [((1.0, "yes"), "a", 1.0), ((float("inf"), "no"), "a", 1.0)])

    def test_from_columns_matches_from_rows(self):
        ds = tiny_dataset()
        back = Dataset.from_columns(SPECS, ("a", "b"), (5.0, 7.0),
                                    [("34.0", "52.0", "41.0"), ("yes", "no", "yes")],
                                    ("a", "b", "a"), ("10", "20", "30"))
        for a, b in zip(back.columns, ds.columns):
            assert np.array_equal(a, b) and a.dtype == b.dtype
        assert np.array_equal(back.treatments, ds.treatments)
        assert np.array_equal(back.outcomes, ds.outcomes)

    def test_treatment_code_range_checked(self):
        ds = tiny_dataset()
        dl = DecisionList(rules=(), default_treatment=5)
        with pytest.raises(ValidationError):
            assign(ds, dl)

    def test_max_rules_enforced(self):
        ds = tiny_dataset()
        pat = Pattern((Predicate(1, "=", "yes"),))
        dl = DecisionList(rules=((pat, 0), (pat, 1)), default_treatment=0)
        with pytest.raises(ValidationError):
            dl.validate(ds.specs, ds.n_treatments, max_rules=1)
