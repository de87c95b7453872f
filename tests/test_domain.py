"""Partition, assignment, and cost vectors against row-by-row oracles."""
from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from regimelist.domain import (
    BINARY,
    CATEGORICAL,
    REAL,
    CharacteristicSpec,
    Dataset,
    DecisionList,
    Pattern,
    Predicate,
    assign,
    code_dtype,
    feature_set_cost,
    group_assessment_costs,
    group_billed_counts,
    partition,
    pattern_mask,
    predicate_mask,
)
from regimelist.errors import CellError, InvalidPredicateError, ValidationError
from regimelist.estimation import FeatureEncoder

from conftest import (
    dataset_from_rows,
    dataset_row,
    oracle_assessment_costs,
    oracle_assigned,
    oracle_groups,
    oracle_pattern_holds,
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
    return dataset_from_rows(SPECS, ("a", "b"), (5.0, 7.0), rows)


def one_subject(x: tuple) -> Dataset:
    return dataset_from_rows(SPECS, ("a",), (1.0,), [(x, "a", 0.0)])


class TestPredicate:
    def test_real_comparisons(self):
        ds = one_subject((40.0, "yes"))
        for op, want in ((">=", True), (">", False), ("<=", True),
                         ("<", False), ("=", True), ("!=", False)):
            assert predicate_mask(ds, Predicate(0, op, 40.0)).tolist() == [want]

    def test_level_equality(self):
        ds = one_subject((40.0, "yes"))
        assert predicate_mask(ds, Predicate(1, "=", "yes")).tolist() == [True]
        assert predicate_mask(ds, Predicate(1, "=", "no")).tolist() == [False]
        assert predicate_mask(ds, Predicate(1, "!=", "no")).tolist() == [True]
        assert predicate_mask(ds, Predicate(1, "!=", "yes")).tolist() == [False]

    def test_unknown_level_rejected(self):
        with pytest.raises(InvalidPredicateError):
            Predicate(1, "=", "maybe").validate(SPECS)

    def test_order_op_on_level_feature_rejected(self):
        with pytest.raises(InvalidPredicateError):
            Predicate(1, ">=", "yes").validate(SPECS)

    def test_feature_out_of_range_rejected(self):
        with pytest.raises(InvalidPredicateError):
            Predicate(9, "=", 1.0).validate(SPECS)


class TestPatternMask:
    def test_mask_is_conjunction(self):
        ds = dataset_from_rows(SPECS, ("a",), (1.0,), [
            ((41.0, "yes"), "a", 0.0), ((41.0, "no"), "a", 0.0),
            ((39.0, "yes"), "a", 0.0)])
        pat = Pattern((Predicate(0, ">=", 40.0), Predicate(1, "=", "yes")))
        assert pattern_mask(ds, pat).tolist() == [True, False, False]

    def test_matches_row_evaluation(self):
        ds = tiny_dataset()
        pat = Pattern((Predicate(0, ">=", 40.0), Predicate(1, "=", "yes")))
        mask = pattern_mask(ds, pat)
        expected = [oracle_pattern_holds(pat, dataset_row(ds, i), ds.specs)
                    for i in range(ds.n_subjects)]
        assert mask.tolist() == expected

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
        # subject 0 and 2 hit rule 0; subject 1 hits rule 1
        assert partition(ds, dl).tolist() == [0, 1, 0]
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
        costs = group_assessment_costs(ds.specs, dl)[partition(ds, dl)]
        assert costs.tolist() == [0.0, 0.0, 0.0]

    def test_randomized_against_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            ds = random_dataset(rng, n_subjects=int(rng.integers(1, 60)))
            dl = random_decision_list(rng, ds)
            assert partition(ds, dl).tolist() == oracle_groups(ds, dl)
            assert assign(ds, dl).tolist() == oracle_assigned(ds, dl)


class TestCosts:
    def test_feature_set_cost_bills_each_feature_once(self):
        assert feature_set_cost(SPECS, [0, 0, 1]) == 3.0
        assert feature_set_cost(SPECS, []) == 0.0

    def test_feature_set_cost_adds_in_ascending_order(self):
        # {1, 9, 12} iterates as 1, 12, 9; these costs round differently in
        # that order, and the sum must be the ascending one whatever the
        # order the features come in
        costs = {1: 0.1, 9: 0.2, 12: 2 / 3}
        specs = tuple(CharacteristicSpec(f"r{f}", REAL, costs.get(f, 1.0)) for f in range(13))
        assert list({1, 9, 12}) == [1, 12, 9]
        assert (0.1 + 2 / 3) + 0.2 != (0.1 + 0.2) + 2 / 3
        for order in ([1, 9, 12], [12, 9, 1], {1, 9, 12}, [9, 12, 1, 9]):
            assert feature_set_cost(specs, order) == (0.1 + 0.2) + 2 / 3

    def test_cumulative_prefix_charging(self):
        ds = tiny_dataset()
        dl = DecisionList(
            rules=(
                (Pattern((Predicate(0, ">=", 50.0),)), 0),
                (Pattern((Predicate(1, "=", "yes"),)), 1),
            ),
            default_treatment=0,
        )
        costs = group_assessment_costs(ds.specs, dl)[partition(ds, dl)]
        # subject 1 is in group 0: pays age only; subjects 0 and 2 fall through
        # to rule 2 and pay age + smoker
        assert costs.tolist() == [3.0, 2.0, 3.0]

    def test_default_group_pays_zero_by_default(self):
        ds = tiny_dataset()
        dl = DecisionList(
            rules=((Pattern((Predicate(0, ">=", 100.0),)), 0),),
            default_treatment=1,
        )
        costs = group_assessment_costs(ds.specs, dl)[partition(ds, dl)]
        assert costs.tolist() == [0.0, 0.0, 0.0]

    def test_default_group_full_charge_switch(self):
        ds = tiny_dataset()
        dl = DecisionList(
            rules=((Pattern((Predicate(0, ">=", 100.0),)), 0),),
            default_treatment=1,
        )
        per_group = group_assessment_costs(ds.specs, dl, charge_default_full=True)
        assert per_group[partition(ds, dl)].tolist() == [2.0, 2.0, 2.0]

    def test_treatment_costs_follow_assignment(self):
        ds = tiny_dataset()
        dl = DecisionList(rules=(), default_treatment=1)
        assert ds.treatment_costs[assign(ds, dl)].tolist() == [7.0, 7.0, 7.0]

    def test_billed_characteristic_counts(self):
        ds = tiny_dataset()
        dl = DecisionList(
            rules=(
                (Pattern((Predicate(0, ">=", 50.0),)), 0),
                (Pattern((Predicate(1, "=", "yes"),)), 1),
            ),
            default_treatment=0,
        )
        assert group_billed_counts(dl)[partition(ds, dl)].tolist() == [2.0, 1.0, 2.0]

    def test_randomized_against_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            ds = random_dataset(rng, n_subjects=int(rng.integers(1, 50)))
            dl = random_decision_list(rng, ds)
            for full in (False, True):
                got = group_assessment_costs(ds.specs, dl, full)[partition(ds, dl)]
                want = oracle_assessment_costs(ds, dl, charge_default_full=full)
                assert got.tolist() == pytest.approx(want)


class TestValidation:
    def test_missing_value_rejected(self):
        with pytest.raises(ValidationError, match="missing"):
            dataset_from_rows(SPECS, ("a",), (1.0,), [((None, "yes"), "a", 1.0)])

    def test_unknown_treatment_rejected(self):
        with pytest.raises(ValidationError, match="treatment"):
            dataset_from_rows(SPECS, ("a",), (1.0,), [((1.0, "yes"), "zzz", 1.0)])

    def test_bad_level_mentions_row(self):
        with pytest.raises(ValidationError, match="row 1"):
            dataset_from_rows(
                SPECS,
                ("a",),
                (1.0,),
                [((1.0, "yes"), "a", 1.0), ((1.0, "purple"), "a", 1.0)],
            )

    def test_non_finite_number_rejected(self):
        with pytest.raises(ValidationError, match="row 1, column 'age': non-finite"):
            dataset_from_rows(SPECS, ("a",), (1.0,),
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

    @pytest.mark.parametrize("cost", [-1.0, float("inf"), float("nan")])
    def test_bad_treatment_cost_rejected(self, cost):
        with pytest.raises(ValidationError, match="must be finite and >= 0"):
            dataset_from_rows(SPECS, ("a",), (cost,), [((1.0, "yes"), "a", 1.0)])

    def test_treatment_code_range_checked(self):
        ds = tiny_dataset()
        dl = DecisionList(rules=(), default_treatment=5)
        with pytest.raises(ValidationError):
            assign(ds, dl)


class TestCompactCodes:
    @pytest.mark.parametrize("n_names, dtype", [
        (1, np.uint8), (2, np.uint8), (255, np.uint8), (256, np.uint16),
        (65535, np.uint16), (65536, np.uint32)])
    def test_code_dtype_holds_every_code_and_the_unmatched_mark(self, n_names, dtype):
        assert code_dtype(n_names) == dtype
        assert np.iinfo(code_dtype(n_names)).max >= n_names

    @pytest.mark.parametrize("as_array", [False, True])
    @pytest.mark.parametrize("n_levels, dtype", [(255, np.uint8), (256, np.uint16)])
    def test_codes_at_the_edge_of_a_dtype(self, n_levels, dtype, as_array):
        # the last level's code is n_levels - 1, and n_levels marks a cell
        # that matches no level
        levels = tuple(f"v{k}" for k in range(n_levels))
        specs = (CharacteristicSpec("c", CATEGORICAL, 1.0, levels),)

        def build(cells):
            cells = np.array(cells) if as_array else cells
            return Dataset.from_columns(specs, ("a",), (1.0,), [cells],
                                        ["a"] * len(cells), [0.0] * len(cells))

        last = levels[-1]
        ds = build([last, "v0", last])
        assert ds.columns[0].dtype == dtype
        assert ds.columns[0].tolist() == [n_levels - 1, 0, n_levels - 1]
        with pytest.raises(CellError, match=f"row 1, column 'c': 'v{n_levels}' is not one of"):
            build([last, f"v{n_levels}", "v0"])

    def test_blocks_build_the_dataset_of_their_concatenation(self):
        cells = [("34.0", "52.0", "41.0", "7.5"), ("yes", "no", "yes", "no")]
        treatments, outcomes = ("a", "b", "a", "a"), ("10", "20", "30", "40")
        whole = Dataset.from_columns(SPECS, ("a", "b"), (5.0, 7.0), cells, treatments, outcomes)

        def blocks(cells):
            for rows in (slice(0, 1), slice(1, 4)):
                yield [c[rows] for c in cells], treatments[rows], outcomes[rows]

        ds = Dataset.from_blocks(SPECS, ("a", "b"), (5.0, 7.0), 4, blocks(cells))
        for a, b in zip((*ds.columns, ds.treatments, ds.outcomes),
                        (*whole.columns, whole.treatments, whole.outcomes)):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        with pytest.raises(CellError, match="row 2, column 'smoker': 'maybe'"):
            Dataset.from_blocks(SPECS, ("a", "b"), (5.0, 7.0), 4,
                                blocks([cells[0], ("yes", "no", "maybe", "no")]))
        with pytest.raises(ValidationError, match="one cell per subject"):
            Dataset.from_blocks(SPECS, ("a", "b"), (5.0, 7.0), 5, blocks(cells))

    def test_codes_act_as_int64_codes(self):
        rng = np.random.default_rng(31)
        for _ in range(5):
            ds = random_dataset(rng, n_subjects=300, n_features=6, m=3)
            wide = dataclasses.replace(
                ds, treatments=ds.treatments.astype(np.int64),
                columns=tuple(col if s.kind == REAL else col.astype(np.int64)
                              for s, col in zip(ds.specs, ds.columns)))
            assert all(col.dtype == np.uint8 for s, col in zip(ds.specs, ds.columns)
                       if s.kind != REAL)
            for f, spec in enumerate(ds.specs):
                for value in spec.levels or (0.0, 1.5):
                    for op in ("=", "!=") if spec.levels else ("<=", ">"):
                        pred = Predicate(f, op, value)
                        assert np.array_equal(predicate_mask(ds, pred),
                                              predicate_mask(wide, pred))
            encoder = FeatureEncoder.fit(ds)
            assert encoder.to_dict() == FeatureEncoder.fit(wide).to_dict()
            for (rows, block), (wide_rows, wide_block) in zip(encoder.design_blocks(ds),
                                                              encoder.design_blocks(wide)):
                assert rows == wide_rows and block.tobytes() == wide_block.tobytes()
            for _ in range(5):
                dl = random_decision_list(rng, ds)
                assert np.array_equal(partition(ds, dl), partition(wide, dl))
            assert np.array_equal(np.bincount(ds.treatments, minlength=3),
                                  np.bincount(wide.treatments, minlength=3))
