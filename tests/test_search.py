"""Search machinery: bounds, pruning, UCT, exhaustive, and greedy baselines."""
from __future__ import annotations

import dataclasses
import itertools
import math
import warnings

import numpy as np
import pytest

from regimelist.domain import DecisionList, feature_set_cost
from regimelist.errors import SizeLimitError, ValidationError
from regimelist.estimation import DRScoreMatrix
from regimelist.mining import CandidateSet, MiningConfig, mine_patterns
from regimelist.objective import ObjectiveWeights, objective_value
from regimelist import search
from regimelist.search import (
    SearchConfig,
    SearchProblem,
    exhaustive_search,
    greedy_baseline,
    uct_search,
)

from conftest import (
    dataset_row,
    oracle_pattern_holds,
    random_dataset,
    random_scores,
    random_weights,
)


def small_instance(rng, n_patterns=6, n_subjects=60, n_features=4, m=2):
    """Dataset + truncated candidate set small enough for exhaustive oracles."""
    for bump in range(6):
        ds = random_dataset(
            rng, n_subjects=n_subjects + 10 * bump, n_features=n_features, m=m
        )
        try:
            cands = mine_patterns(
                ds, MiningConfig(min_support=0.15, max_predicates=2, num_bins=3)
            )
        except Exception:
            continue
        if len(cands) >= n_patterns:
            cands = dataclasses.replace(
                cands,
                patterns=cands.patterns[:n_patterns],
                counts=cands.counts[:n_patterns],
            )
            return ds, cands
    raise AssertionError("could not build a small instance")


def decode(problem, action):
    """(pattern, treatment) of a rule's action code, (-1, d) of a default's."""
    return (-1, action + problem.m) if action < 0 else divmod(action, problem.m)


def actions(problem, state, L_max, min_new_coverage):
    """ordered_actions as (pattern, treatment) pairs, in the same order."""
    codes, _ = problem.ordered_actions(state, L_max, min_new_coverage)
    return [decode(problem, c) for c in codes.tolist()]


def check_state_consistency(problem, state):
    """Recompute covered set and incurred sums from the prefix; must match exactly."""
    covered = np.zeros(problem.n, dtype=bool)
    features: frozenset[int] = frozenset()
    assess = 0.0
    value = 0.0
    for p, t in state.prefix:
        mask = problem.masks_f[p] != 0
        newly = mask & ~covered
        covered |= mask
        features = features | problem.patterns[p].features
        assess += feature_set_cost(problem.ds.specs, features) * int(newly.sum())
        value += float(problem.value_mat[newly, t].sum())
    assert np.array_equal(covered, state.covered)
    assert state.features == sum(1 << f for f in features)
    assert state.incurred_assess == assess
    assert state.incurred_value == value


def enumerate_completions(problem, state, L_max, scores):
    """Every decision list extending ``state`` with unused distinct patterns
    (all treatment choices, all defaults), as exact objectives."""
    ds, w = problem.ds, problem.weights
    used = frozenset(p for p, _ in state.prefix)
    remaining = [p for p in range(len(problem.patterns)) if p not in used]
    m = ds.n_treatments
    out = []
    for extra in range(L_max - state.depth + 1):
        for pats in itertools.permutations(remaining, extra):
            for treats in itertools.product(range(m), repeat=extra):
                rules = tuple(
                    (problem.patterns[p], t) for p, t in state.prefix
                ) + tuple((problem.patterns[p], t) for p, t in zip(pats, treats))
                for d in range(m):
                    dl = DecisionList(rules=rules, default_treatment=d)
                    out.append(
                        objective_value(
                            ds, dl, scores, w,
                            charge_default_full=problem.charge_default_full,
                        )
                    )
    return out


class TestLegalActions:
    def test_action_count_fresh_state(self):
        rng = np.random.default_rng(51)
        ds, cands = small_instance(rng, n_patterns=3)
        problem = SearchProblem(ds, random_scores(rng, ds), cands, ObjectiveWeights())
        codes, his = problem.ordered_actions(problem.initial_state(), L_max=3,
                                             min_new_coverage=0.0)
        assert codes.dtype == np.int32 and his.dtype == np.float64
        assert len(codes) == len(his) == 3 * ds.n_treatments + ds.n_treatments

    def test_only_defaults_at_depth_limit(self):
        rng = np.random.default_rng(53)
        ds, cands = small_instance(rng, n_patterns=3)
        problem = SearchProblem(ds, random_scores(rng, ds), cands, ObjectiveWeights())
        state = problem.initial_state()
        acts = actions(problem, state, L_max=0, min_new_coverage=0.0)
        assert acts == [(-1, d) for d in range(ds.n_treatments)]

    def test_exhausted_coverage_excluded(self):
        rng = np.random.default_rng(55)
        ds, cands = small_instance(rng, n_patterns=4)
        problem = SearchProblem(ds, random_scores(rng, ds), cands, ObjectiveWeights())
        state = problem.apply(problem.initial_state(), 0)
        acts = actions(problem, state, L_max=4, min_new_coverage=0.0)
        # pattern 0 is used; a pattern with no new coverage may not reappear
        assert all(p != 0 for p, _ in acts if p >= 0)
        counts = ((problem.masks_f != 0) & ~state.covered).sum(axis=1)
        for p, _ in acts:
            if p >= 0:
                assert counts[p] >= 1

    def test_used_patterns_never_repeat(self):
        rng = np.random.default_rng(57)
        ds, cands = small_instance(rng)
        problem = SearchProblem(ds, random_scores(rng, ds), cands, ObjectiveWeights())
        state = problem.initial_state()
        seen = set()
        while True:
            codes, _ = problem.ordered_actions(state, 3, 0.0)
            rules = [c for c in codes.tolist() if c >= 0]
            if not rules:
                break
            p, _ = decode(problem, rules[0])
            assert p not in seen
            seen.add(p)
            state = problem.apply(state, rules[0])

    def test_ordered_actions_same_set_as_legal(self):
        # oracle: a rule is legal when its pattern is unused and newly covers
        # at least required_new subjects; closing with a default always is
        rng = np.random.default_rng(59)
        ds, cands = small_instance(rng)
        problem = SearchProblem(ds, random_scores(rng, ds), cands, random_weights(rng))
        need = max(1, math.ceil(0.2 * ds.n_subjects))
        state = problem.initial_state()
        while not state.terminal:
            used = {p for p, _ in state.prefix}
            legal = {(-1, d) for d in range(ds.n_treatments)}
            for p, pattern in enumerate(problem.patterns):
                newly = sum(
                    1 for i in range(ds.n_subjects)
                    if not state.covered[i]
                    and oracle_pattern_holds(pattern, dataset_row(ds, i), ds.specs))
                if p not in used and newly >= need:
                    legal |= {(p, t) for t in range(ds.n_treatments)}
            codes, _ = problem.ordered_actions(state, 3, 0.2)
            acts = [decode(problem, c) for c in codes.tolist()]
            assert len(acts) == len(set(acts))
            assert set(acts) == legal
            rules = [c for c in codes.tolist() if c >= 0]
            state = problem.apply(state, rules[-1] if rules else int(codes[0]))


class TestStateBound:
    def test_bound_dominates_every_completion(self):
        # the exact bound of a state, and the batched bound hi of each of
        # its children, against every completion and the child's exact bound
        rng = np.random.default_rng(61)
        for trial in range(10):
            ds, cands = small_instance(rng, n_patterns=3, n_subjects=40)
            scores = random_scores(rng, ds)
            w = random_weights(rng)
            for full in (False, True):
                problem = SearchProblem(ds, scores, cands, w,
                                        charge_default_full=full)

                def best_completion(state):
                    if state.terminal:
                        return objective_value(ds, problem.decision_list(state),
                                               scores, w, charge_default_full=full)
                    return max(enumerate_completions(problem, state, 3, scores))

                state = problem.initial_state()
                # walk a random prefix, checking at each step
                for _ in range(3):
                    # tiny slack: the bound and the objective accumulate
                    # floating point sums in different orders
                    assert problem.state_bound(state) >= best_completion(state) - 1e-9
                    codes, his = problem.ordered_actions(state, 3, 0.0)
                    for code, hi in zip(codes.tolist(), his.tolist()):
                        child = problem.apply(state, code)
                        assert hi >= problem.state_bound(child)
                        assert hi >= best_completion(child) - 1e-9
                    rules = [c for c in codes.tolist() if c >= 0]
                    if not rules:
                        break
                    state = problem.apply(state, rules[int(rng.integers(len(rules)))])

    def test_batched_bound_covers_float32_rounding(self):
        # scores near 1e6 over thousands of subjects: the float32 sums behind
        # hi are off by far more than float64 rounding, and the slack must
        # still keep hi at or above every child's exact bound
        rng = np.random.default_rng(62)
        ds = random_dataset(rng, n_subjects=3000, n_features=5, m=3)
        cands = mine_patterns(ds, MiningConfig(min_support=0.05, max_predicates=2))
        scores = DRScoreMatrix(
            scores=rng.normal(1e6, 3e5, size=(ds.n_subjects, ds.n_treatments)),
            treatment_names=ds.treatment_names)
        w = random_weights(rng)
        for full in (False, True):
            problem = SearchProblem(ds, scores, cands, w, charge_default_full=full)
            state = problem.initial_state()
            for _ in range(3):
                codes, his = problem.ordered_actions(state, 3, 0.0)
                for code, hi in zip(codes.tolist(), his.tolist()):
                    assert hi >= problem.state_bound(problem.apply(state, code))
                rules = [c for c in codes.tolist() if c >= 0]
                if not rules:
                    break
                state = problem.apply(state, rules[int(rng.integers(len(rules)))])

    def test_batched_bound_survives_float32_overflow(self):
        # a finite score beyond float32's range overflows the batched sums;
        # the children it touches must then get an infinite bound, silently
        rng = np.random.default_rng(64)
        ds, cands = small_instance(rng)
        scores = random_scores(rng, ds)
        scores.scores[0, 0] = -1e39
        problem = SearchProblem(ds, scores, cands, random_weights(rng))
        state = problem.initial_state()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            codes, his = problem.ordered_actions(state, 3, 0.0)
        assert np.isinf(his).any()
        for code, hi in zip(codes.tolist(), his.tolist()):
            assert hi >= problem.state_bound(problem.apply(state, code))

    def test_terminal_bound_is_exact_objective(self):
        rng = np.random.default_rng(63)
        ds, cands = small_instance(rng)
        scores = random_scores(rng, ds)
        w = random_weights(rng)
        for full in (False, True):
            problem = SearchProblem(ds, scores, cands, w,
                                    charge_default_full=full)
            for _ in range(12):
                length = int(rng.integers(0, 4))
                pats = rng.permutation(len(cands.patterns))[:length]
                state = problem.initial_state()
                for p in pats:
                    state = problem.apply(
                        state, int(p) * ds.n_treatments + int(rng.integers(ds.n_treatments)))
                state = problem.apply(state, int(rng.integers(ds.n_treatments)) - ds.n_treatments)
                assert state.terminal
                dl = problem.decision_list(state)
                want = objective_value(ds, dl, scores, w,
                                       charge_default_full=full)
                assert problem.state_bound(state) == pytest.approx(want, abs=1e-12)

    def test_single_treatment_empty_prefix_bound_is_policy_value(self):
        rng = np.random.default_rng(65)
        ds, cands = small_instance(rng, m=1)
        scores = random_scores(rng, ds)
        w = ObjectiveWeights(lambda1=1.0, lambda2=0.0, lambda3=1.0)
        problem = SearchProblem(ds, scores, cands, w)
        bound = problem.state_bound(problem.initial_state())
        only = objective_value(
            ds, DecisionList(rules=(), default_treatment=0), scores, w
        )
        assert bound == pytest.approx(only, abs=1e-9)


class TestSizeLimit:
    def test_subject_count_beyond_exact_coverage_refused(self, monkeypatch):
        rng = np.random.default_rng(109)
        ds, cands = small_instance(rng)
        scores = random_scores(rng, ds)
        monkeypatch.setattr(search, "MAX_EXACT_SUBJECTS", ds.n_subjects)
        SearchProblem(ds, scores, cands)
        monkeypatch.setattr(search, "MAX_EXACT_SUBJECTS", ds.n_subjects - 1)
        with pytest.raises(SizeLimitError, match=str(ds.n_subjects - 1)):
            SearchProblem(ds, scores, cands)


class TestStateConsistency:
    def test_incremental_sums_match_recomputation(self):
        rng = np.random.default_rng(67)
        for _ in range(5):
            ds, cands = small_instance(rng)
            problem = SearchProblem(ds, random_scores(rng, ds), cands,
                                    random_weights(rng))
            state = problem.initial_state()
            check_state_consistency(problem, state)
            while True:
                codes, _ = problem.ordered_actions(state, 4, 0.0)
                rules = [c for c in codes.tolist() if c >= 0]
                if not rules:
                    break
                state = problem.apply(state, rules[int(rng.integers(len(rules)))])
                check_state_consistency(problem, state)


class TestUCT:
    def test_single_pattern_instance_enumerated_exactly(self):
        rng = np.random.default_rng(69)
        ds, cands = small_instance(rng, n_patterns=1)
        scores = random_scores(rng, ds)
        w = ObjectiveWeights()
        res = uct_search(ds, scores, cands, w,
                         SearchConfig(iterations=200, L_max=1, seed=0,
                                      min_new_coverage=0.0))
        # best of: 2 default-only lists + 2x2 one-rule lists
        best = -np.inf
        for d in range(2):
            best = max(best, objective_value(
                ds, DecisionList(rules=(), default_treatment=d), scores, w))
            for t in range(2):
                dl = DecisionList(rules=((cands.patterns[0], t),),
                                  default_treatment=d)
                best = max(best, objective_value(ds, dl, scores, w))
        assert res.objective == pytest.approx(best, abs=1e-12)

    def test_matches_exhaustive_on_small_instances(self):
        rng = np.random.default_rng(71)
        for trial in range(5):
            ds, cands = small_instance(rng, n_patterns=5)
            scores = random_scores(rng, ds)
            w = random_weights(rng)
            exact = exhaustive_search(ds, scores, cands, w, L_max=2)
            res = uct_search(ds, scores, cands, w,
                             SearchConfig(iterations=4000, L_max=2, seed=3,
                                          min_new_coverage=0.0))
            assert res.objective == pytest.approx(exact.objective, abs=1e-9)

    def test_incumbent_monotone_over_iterations(self):
        rng = np.random.default_rng(73)
        ds, cands = small_instance(rng)
        res = uct_search(ds, random_scores(rng, ds), cands, ObjectiveWeights(),
                         SearchConfig(iterations=500, L_max=3, seed=1))
        seen = [r["incumbent_objective"] for r in res.log
                if r["incumbent_objective"] is not None]
        assert all(b >= a for a, b in zip(seen, seen[1:]))

    def test_fixed_seed_reproducible(self):
        rng = np.random.default_rng(75)
        ds, cands = small_instance(rng)
        scores = random_scores(rng, ds)
        cfg = SearchConfig(iterations=300, L_max=3, seed=9)
        a = uct_search(ds, scores, cands, ObjectiveWeights(), cfg)
        b = uct_search(ds, scores, cands, ObjectiveWeights(), cfg)
        assert a.decision_list == b.decision_list
        assert a.objective == b.objective
        assert a.log == b.log

    def test_zero_candidates_returns_best_default(self):
        rng = np.random.default_rng(77)
        ds = random_dataset(rng, n_subjects=30, m=3)
        scores = random_scores(rng, ds)
        cands = CandidateSet(patterns=(), counts=(), bins={},
                             n_subjects=ds.n_subjects, config=MiningConfig())
        w = ObjectiveWeights()
        res = uct_search(ds, scores, cands, w, SearchConfig(iterations=50, seed=0))
        best = max(
            objective_value(ds, DecisionList(rules=(), default_treatment=d),
                            scores, w)
            for d in range(3)
        )
        assert res.decision_list.rules == ()
        assert res.objective == pytest.approx(best, abs=1e-12)

    def test_every_built_state_is_consistent(self, monkeypatch):
        rng = np.random.default_rng(79)
        ds, cands = small_instance(rng)
        apply = SearchProblem.apply
        checked = []

        def checked_apply(problem, state, action):
            child = apply(problem, state, action)
            if not child.terminal:
                check_state_consistency(problem, child)
                checked.append(child)
            return child

        monkeypatch.setattr(SearchProblem, "apply", checked_apply)
        uct_search(ds, random_scores(rng, ds), cands, ObjectiveWeights(),
                   SearchConfig(iterations=200, L_max=2, seed=2))
        assert checked

    def test_batched_bounds_skip_building_pruned_children(self, monkeypatch):
        # a child whose batched bound cannot beat the incumbent is never
        # scored exactly: state_bound runs for the root, each kept child, each
        # rollout's end and only the few children the slack lets through
        rng = np.random.default_rng(0)
        ds = random_dataset(rng, n_subjects=1000, n_features=6, m=3)
        cands = mine_patterns(ds, MiningConfig(min_support=0.05, max_predicates=2))
        scores = random_scores(rng, ds)
        state_bound = SearchProblem.state_bound
        calls = []

        def counted(problem, state):
            calls.append(None)
            return state_bound(problem, state)

        monkeypatch.setattr(SearchProblem, "state_bound", counted)
        res = uct_search(ds, scores, cands, ObjectiveWeights(),
                         SearchConfig(iterations=1000, L_max=3, seed=1))
        assert res.n_pruned >= 1000
        assert len(calls) < res.tree_size + res.iterations_run + res.n_pruned // 10

    def test_log_schema(self):
        rng = np.random.default_rng(83)
        ds, cands = small_instance(rng)
        res = uct_search(ds, random_scores(rng, ds), cands, ObjectiveWeights(),
                         SearchConfig(iterations=100, L_max=2, seed=0))
        assert res.log, "search log must not be empty"
        for rec in res.log:
            assert set(rec) == {"iteration", "incumbent_objective",
                                "tree_size", "n_pruned"}


class TestExhaustive:
    def test_beats_every_enumerated_list(self):
        rng = np.random.default_rng(91)
        ds, cands = small_instance(rng, n_patterns=3)
        scores = random_scores(rng, ds)
        w = random_weights(rng)
        res = exhaustive_search(ds, scores, cands, w, L_max=2)
        problem = SearchProblem(ds, scores, cands, w)
        everything = enumerate_completions(problem, problem.initial_state(), 2, scores)
        assert res.objective == pytest.approx(max(everything), abs=1e-12)

    def test_pruning_preserves_the_optimum(self):
        rng = np.random.default_rng(93)
        pruned_somewhere = 0
        for _ in range(6):
            ds, cands = small_instance(rng, n_patterns=4)
            scores = random_scores(rng, ds)
            w = random_weights(rng)
            off = exhaustive_search(ds, scores, cands, w, L_max=2, use_bound=False)
            on = exhaustive_search(ds, scores, cands, w, L_max=2, use_bound=True)
            assert abs(on.objective - off.objective) <= 1e-12
            assert on.decision_list == off.decision_list
            pruned_somewhere += int(on.n_pruned > 0)
        assert pruned_somewhere >= 3

    def test_cost_only_objective_prefers_empty_list(self):
        rng = np.random.default_rng(95)
        ds, cands = small_instance(rng)
        scores = random_scores(rng, ds)
        w = ObjectiveWeights(lambda1=0.0, lambda2=1.0, lambda3=0.0)
        res = exhaustive_search(ds, scores, cands, w, L_max=2)
        assert res.decision_list.rules == ()

    def test_size_limits_enforced(self):
        rng = np.random.default_rng(97)
        ds, cands = small_instance(rng, n_patterns=11)
        scores = random_scores(rng, ds)
        with pytest.raises(SizeLimitError, match="11 patterns"):
            exhaustive_search(ds, scores, cands, ObjectiveWeights(), L_max=2)
        few = dataclasses.replace(cands, patterns=cands.patterns[:10],
                                  counts=cands.counts[:10])
        with pytest.raises(SizeLimitError, match="L_max 4"):
            exhaustive_search(ds, scores, few, ObjectiveWeights(), L_max=4)

    def test_evaluates_every_list_whose_rules_cover_something_new(self):
        # oracle: count row by row the lists in which every rule newly
        # covers at least one subject, times the rule and default treatments
        rng = np.random.default_rng(98)
        for n_patterns, L_max in ((4, 3), (6, 2), (8, 2)):
            ds, cands = small_instance(rng, n_patterns=n_patterns)
            rows = [dataset_row(ds, i) for i in range(ds.n_subjects)]
            sets = [frozenset(i for i, row in enumerate(rows)
                              if oracle_pattern_holds(pat, row, ds.specs))
                    for pat in cands.patterns]
            m = ds.n_treatments
            n_lists = 0
            for k in range(L_max + 1):
                for pats in itertools.permutations(range(n_patterns), k):
                    covered: frozenset[int] = frozenset()
                    for p in pats:
                        if not sets[p] - covered:
                            break
                        covered |= sets[p]
                    else:
                        n_lists += m ** k * m
            res = exhaustive_search(ds, random_scores(rng, ds), cands,
                                    random_weights(rng), L_max=L_max)
            assert res.n_evaluated == n_lists

    def test_deterministic_tie_break(self):
        rng = np.random.default_rng(99)
        ds, cands = small_instance(rng, n_patterns=3)
        scores = random_scores(rng, ds)
        a = exhaustive_search(ds, scores, cands, ObjectiveWeights(), L_max=2)
        b = exhaustive_search(ds, scores, cands, ObjectiveWeights(), L_max=2)
        assert a.decision_list == b.decision_list


class TestGreedy:
    def test_never_beats_exhaustive(self):
        rng = np.random.default_rng(101)
        for _ in range(6):
            ds, cands = small_instance(rng, n_patterns=4)
            scores = random_scores(rng, ds)
            w = random_weights(rng)
            exact = exhaustive_search(ds, scores, cands, w, L_max=3)
            greedy = greedy_baseline(ds, scores, cands, w, L_max=3)
            assert greedy.objective <= exact.objective + 1e-12

    def test_objective_reported_matches_list(self):
        rng = np.random.default_rng(103)
        ds, cands = small_instance(rng)
        scores = random_scores(rng, ds)
        w = random_weights(rng)
        res = greedy_baseline(ds, scores, cands, w, L_max=3)
        assert res.objective == pytest.approx(
            objective_value(ds, res.decision_list, scores, w), abs=1e-12
        )

    def test_deterministic(self):
        rng = np.random.default_rng(105)
        ds, cands = small_instance(rng)
        scores = random_scores(rng, ds)
        a = greedy_baseline(ds, scores, cands, ObjectiveWeights(), L_max=3)
        b = greedy_baseline(ds, scores, cands, ObjectiveWeights(), L_max=3)
        assert a.decision_list == b.decision_list


class TestConfigValidation:
    def test_bad_values_rejected(self):
        with pytest.raises(ValidationError):
            SearchConfig(iterations=0)
        with pytest.raises(ValidationError):
            SearchConfig(c_explore=-1.0)

    def test_round_trip(self):
        cfg = SearchConfig(iterations=123, L_max=2, seed=7, widen_c=3.0)
        assert SearchConfig.from_dict(cfg.to_dict()) == cfg

    def test_from_dict_checks_keys_and_types(self):
        cfg = SearchConfig.from_dict({"c_explore": 2, "iterations": 5})
        assert cfg.c_explore == 2.0 and isinstance(cfg.c_explore, float)
        assert cfg.iterations == 5
        for bad in ({"iteratons": 5}, {"iterations": "5"}, {"iterations": 5.0},
                    {"iterations": True}, {"charge_default_full": 1},
                    {"n_trees": 2}, {"debug_checks": True}):
            with pytest.raises(ValidationError):
                SearchConfig.from_dict(bad)
