"""Search machinery: bounds, pruning, UCT, exhaustive, and greedy baselines."""
from __future__ import annotations

import dataclasses
import gc
import itertools
import math
import tracemalloc
import warnings
from collections import Counter

import numpy as np
import pytest

from regimelist import search
from regimelist.domain import (
    REAL,
    DecisionList,
    Pattern,
    Predicate,
    feature_set_cost,
    pattern_mask,
)
from regimelist.errors import SizeLimitError, ValidationError
from regimelist.estimation import (
    DRScoreMatrix,
    compute_dr_scores,
    fit_outcome,
    fit_propensity,
)
from regimelist.mining import CandidateSet, MiningConfig, mine_patterns
from regimelist.objective import ObjectiveWeights, objective_value
from regimelist.search import (
    BLOCK,
    Frontier,
    SearchConfig,
    SearchProblem,
    SearchState,
    exhaustive_search,
    greedy_baseline,
    uct_search,
)
from regimelist.synth import default_generator_spec, generate

from conftest import (
    covered,
    dataset_row,
    largest_accepted_lambda1,
    oracle_greedy,
    oracle_cover_matrix,
    oracle_objective,
    oracle_open_bound,
    oracle_open_bounds,
    oracle_pattern_holds,
    oracle_predicate_holds,
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
    """(pattern, None) of a rule's action code, whose arm apply picks, and
    (-1, d) of a default's."""
    return (-1, action + problem.m) if action < 0 else (action, None)


def actions(problem, state):
    """ordered_actions decoded, in the same order."""
    codes, *_ = problem.ordered_actions(state)
    return [decode(problem, c) for c in codes.tolist()]


def check_state_consistency(problem, state, covers=None):
    """Recompute covered set and incurred sums from the prefix; must match
    exactly.  covers is the problem's oracle_cover_matrix, if already built."""
    if covers is None:
        covers = oracle_cover_matrix(problem)
    expected = np.zeros(problem.n, dtype=bool)
    features: frozenset[int] = frozenset()
    assess = 0.0
    value = 0.0
    for p, t in state.prefix:
        mask = covers[:, p]
        newly = mask & ~expected
        expected |= mask
        features = features | problem.patterns[p].features
        assess += feature_set_cost(problem.ds.specs, features) * int(newly.sum())
        value += float(problem.value_cols[t][newly].sum())
    assert np.array_equal(expected, covered(state, problem.n))
    assert np.array_equal(np.packbits(expected), state.packed)
    assert state.features == sum(1 << f for f in features)
    assert state.incurred_assess == assess
    assert state.incurred_value == value


def per_pattern_actions(problem, state, sums):
    """ordered_actions' rule codes, his and keys for a state whose rule sums
    are ``sums``, pricing each eligible pattern's extended feature set on its
    own."""
    lam2 = problem.weights.lambda2
    uncovered = ~covered(state, problem.n)
    uncov64 = uncovered.astype(np.float64)
    n_unc = int(np.count_nonzero(uncovered))
    settled = state.incurred_value - lam2 * state.incurred_assess
    default_sums = [np.compress(uncovered, row).sum() for row in problem.value_cols]
    counts = sums[0].astype(np.int64)
    eligible = np.flatnonzero(counts >= 1)
    cnt = counts[eligible]
    gains = sums[2:, eligible].T
    new_cost = np.array([problem.feature_cost(state.features | problem.pattern_features[p])
                         for p in eligible.tolist()], dtype=np.float64)
    charge = lam2 * new_cost * cnt
    keys = (gains - gains[:, int(np.argmax(default_sums)), None] - charge[:, None]).max(axis=1)
    order = np.argsort(keys, kind="stable")
    child_default = new_cost if problem.charge_default_full else 0.0
    per_pattern = (float(uncov64 @ problem.optimistic) - sums[1, eligible] - charge
                   - lam2 * child_default * (n_unc - cnt))
    estimate = settled + gains + per_pattern[:, None]
    slack = problem._slack_per_term * (2 * problem.coverage[eligible] - cnt) + problem._slack
    rule_his = (estimate + slack[:, None]) / problem.n
    return eligible[order], rule_his.max(axis=1)[order], keys[order]


def exact_bound(problem, state, scores):
    """A closed list's objective; an open prefix's bound on its completions."""
    if state.terminal:
        return problem.state_bound(state)
    return oracle_open_bound(problem, state, scores)


def every_arm_bound(problem, state, scores, covers, rules):
    """Per rule code, the largest over arms t of the oracle_open_bounds of
    the prefix extended by (pattern, t): what the rule's hi must reach."""
    bounds = oracle_open_bounds(problem, state, scores, covers,
                                [(p, t) for p in rules for t in range(problem.m)])
    return bounds.reshape(len(rules), problem.m).max(axis=1)


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


def confirm_every_leaf(monkeypatch):
    """Make every half-width ordered_actions returns inf, so lo + s beats any
    incumbent and UCT builds and scores exactly every full prefix it takes."""
    ordered_actions = SearchProblem.ordered_actions

    def unsure(problem, state, window=None):
        codes, his, los, halves = ordered_actions(problem, state, window)
        return codes, his, los, np.full_like(halves, np.inf)

    monkeypatch.setattr(SearchProblem, "ordered_actions", unsure)


class TestLegalActions:
    def test_action_count_fresh_state(self):
        rng = np.random.default_rng(51)
        ds, cands = small_instance(rng, n_patterns=3)
        problem = SearchProblem(ds, random_scores(rng, ds), cands, ObjectiveWeights(),
                                SearchConfig(L_max=3))
        codes, his, *_ = problem.ordered_actions(problem.initial_state())
        assert codes.dtype == np.int32 and his.dtype == np.float64
        assert len(codes) == len(his) == 3 + ds.n_treatments

    def test_only_defaults_at_depth_limit(self):
        rng = np.random.default_rng(53)
        ds, cands = small_instance(rng, n_patterns=3)
        problem = SearchProblem(ds, random_scores(rng, ds), cands, ObjectiveWeights(),
                                SearchConfig(L_max=0))
        state = problem.initial_state()
        acts = actions(problem, state)
        assert acts == [(-1, d) for d in range(ds.n_treatments)]

    def test_exhausted_coverage_excluded(self):
        rng = np.random.default_rng(55)
        ds, cands = small_instance(rng, n_patterns=4)
        problem = SearchProblem(ds, random_scores(rng, ds), cands, ObjectiveWeights(),
                                SearchConfig(L_max=4))
        state = problem.apply(problem.initial_state(), 0)
        acts = actions(problem, state)
        # pattern 0 is used; a pattern with no new coverage may not reappear
        assert all(p != 0 for p, _ in acts if p >= 0)
        counts = (oracle_cover_matrix(problem) & ~covered(state, problem.n)[:, None]).sum(axis=0)
        for p, _ in acts:
            if p >= 0:
                assert counts[p] >= 1

    def test_used_patterns_never_repeat(self):
        rng = np.random.default_rng(57)
        ds, cands = small_instance(rng)
        problem = SearchProblem(ds, random_scores(rng, ds), cands, ObjectiveWeights(),
                                SearchConfig(L_max=3))
        state = problem.initial_state()
        seen = set()
        while True:
            codes, *_ = problem.ordered_actions(state)
            rules = [c for c in codes.tolist() if c >= 0]
            if not rules:
                break
            p, _ = decode(problem, rules[0])
            assert p not in seen
            seen.add(p)
            state = problem.apply(state, rules[0])

    def test_ordered_actions_same_set_as_legal(self):
        # oracle: a rule is legal when its pattern is unused and newly covers
        # at least one subject; closing with a default always is
        rng = np.random.default_rng(59)
        ds, cands = small_instance(rng)
        problem = SearchProblem(ds, random_scores(rng, ds), cands, random_weights(rng),
                                SearchConfig(L_max=3))
        state = problem.initial_state()
        while not state.terminal:
            used = {p for p, _ in state.prefix}
            legal = {(-1, d) for d in range(ds.n_treatments)}
            for p, pattern in enumerate(problem.patterns):
                newly = sum(
                    1 for i in range(ds.n_subjects)
                    if not covered(state, problem.n)[i]
                    and oracle_pattern_holds(pattern, dataset_row(ds, i), ds.specs))
                if p not in used and newly >= 1:
                    legal.add((p, None))
            codes, *_ = problem.ordered_actions(state)
            acts = [decode(problem, c) for c in codes.tolist()]
            assert len(acts) == len(set(acts))
            assert set(acts) == legal
            rules = [c for c in codes.tolist() if c >= 0]
            state = problem.apply(state, rules[-1] if rules else int(codes[0]))

    def test_one_rule_code_per_pattern_that_covers_someone_new(self):
        # the rule codes are the indices of the patterns that newly cover
        # someone, once each, and each hi bounds the rule with every arm
        rng = np.random.default_rng(58)
        for trial in range(6):
            ds, cands = small_instance(rng, m=2 + trial % 2)
            scores = random_scores(rng, ds)
            # no depth limit below the pattern count: rules run out only
            # once no pattern covers anyone new
            problem = SearchProblem(ds, scores, cands, random_weights(rng),
                                    SearchConfig(L_max=len(cands.patterns) + 1,
                                                 charge_default_full=trial >= 3))
            covers = oracle_cover_matrix(problem)
            state = problem.initial_state()
            while True:
                codes, his, *_ = problem.ordered_actions(state)
                rules = codes[codes >= 0].tolist()
                newly = (covers & ~covered(state, problem.n)[:, None]).sum(axis=0)
                assert sorted(rules) == np.flatnonzero(newly >= 1).tolist()
                assert np.all(his[codes >= 0] >= every_arm_bound(problem, state, scores,
                                                                 covers, rules))
                if not rules:
                    break
                state = problem.apply(state, rules[int(rng.integers(len(rules)))])

    def test_rules_ordered_by_one_step_gain(self):
        # oracle, row by row: the gain of p is the largest over arms t of the
        # value of t on the subjects p newly covers, minus the best default's
        # value on them, minus lambda2 times the extended prefix's feature
        # cost per subject.  Expanded from the end, rules come in descending
        # gain, so the codes ascend in (gain, code).  Integer scores, costs
        # and weights keep every sum exact, and lambda2 = 0 makes ties.
        rng = np.random.default_rng(60)
        for trial in range(12):
            ds, cands = small_instance(rng, m=2 + trial % 2)
            m = ds.n_treatments
            scores = DRScoreMatrix(
                scores=rng.integers(-50, 100, size=(ds.n_subjects, m)).astype(float),
                treatment_names=ds.treatment_names)
            w = ObjectiveWeights(lambda1=float(rng.integers(1, 3)),
                                 lambda2=float(trial % 3),
                                 lambda3=float(rng.integers(0, 2)))
            problem = SearchProblem(ds, scores, cands, w, SearchConfig(L_max=4))
            rows = [dataset_row(ds, i) for i in range(ds.n_subjects)]

            def value(i, t):
                return w.lambda1 * scores.scores[i, t] - w.lambda3 * ds.treatment_costs[t]

            state = problem.initial_state()
            while True:
                codes, *_ = problem.ordered_actions(state)
                rules = [c for c in codes.tolist() if c >= 0]
                if not rules:
                    break
                uncovered = [i for i in range(ds.n_subjects) if not covered(state, problem.n)[i]]
                best = max(range(m), key=lambda d: sum(value(i, d) for i in uncovered))
                prefix_features = {f for p, _ in state.prefix
                                   for f in problem.patterns[p].features}
                gain = {}
                for code in rules:
                    p, _ = decode(problem, code)
                    pattern = problem.patterns[p]
                    newly = [i for i in uncovered
                             if oracle_pattern_holds(pattern, rows[i], ds.specs)]
                    cost = feature_set_cost(ds.specs, prefix_features | set(pattern.features))
                    gain[code] = max(sum(value(i, t) - value(i, best) for i in newly)
                                     - w.lambda2 * cost * len(newly) for t in range(m))
                assert rules == sorted(rules, key=lambda c: (gain[c], c))
                state = problem.apply(state, rules[int(rng.integers(len(rules)))])

    def test_feature_charges_priced_per_mask_equal_per_pattern(self):
        # ordered_actions prices each distinct pattern feature mask once; its
        # order (from the keys) and his must be those of pricing each pattern,
        # and each charge must be feature_cost's bit for bit.  With 13
        # features a set such as {1, 9, 12} iterates as 1, 12, 9, and with
        # costs such as 0.1 and 1/3 a sum in that order rounds differently
        rng = np.random.default_rng(61)
        odd_costs = (0.1, 1 / 3, 0.7, 2 / 3, 1.1, 0.3, 1e-3, 5 / 7)
        reordered = 0
        for n_features, costs in ((6, None), (13, odd_costs)):
            ds = random_dataset(rng, n_subjects=400, n_features=n_features, m=3)
            if costs:
                ds = dataclasses.replace(ds, specs=tuple(
                    dataclasses.replace(spec, cost=costs[f % len(costs)])
                    for f, spec in enumerate(ds.specs)))
            cands = mine_patterns(ds, MiningConfig(min_support=0.05, max_predicates=2))
            assert len(set(SearchProblem(ds, random_scores(rng, ds), cands).pattern_features)) > 1
            for full in (False, True):
                for _ in range(3):
                    problem = SearchProblem(ds, random_scores(rng, ds), cands, random_weights(rng),
                                            SearchConfig(L_max=4, charge_default_full=full))
                    state = problem.initial_state()
                    for _ in range(3):
                        codes, his, *_ = problem.ordered_actions(state)
                        rules = codes >= 0
                        want_codes, want_his, _ = per_pattern_actions(problem, state, state.sums)
                        assert np.array_equal(codes[rules], want_codes)
                        assert his[rules].tobytes() == want_his.tobytes()
                        masks = [state.features | f for f in problem.pattern_features]
                        charges = problem._charges(state.features)[problem._feature_index]
                        assert charges.tobytes() == np.array(
                            [problem.feature_cost(mask) for mask in masks]).tobytes()
                        reordered += sum(set_order_sum_differs(ds.specs, mask) for mask in masks)
                        if not rules.any():
                            break
                        state = problem.apply(state, int(rng.choice(codes[rules])))
        assert reordered > 0


def set_order_sum_differs(specs, mask):
    """Whether the costs of a feature mask, added in set iteration order,
    round to another sum than in ascending order."""
    features = [f for f in range(len(specs)) if mask >> f & 1]
    in_set_order = in_ascending_order = 0.0
    for f in set(features):
        in_set_order += specs[f].cost
    for f in features:
        in_ascending_order += specs[f].cost
    return in_set_order != in_ascending_order


class TestStateBound:
    def test_bound_dominates_every_completion(self):
        # the exact bound of an open state, and the batched bound hi of each
        # of its children, against every completion and the child's exact bound
        rng = np.random.default_rng(61)
        for trial in range(10):
            ds, cands = small_instance(rng, n_patterns=3, n_subjects=40)
            scores = random_scores(rng, ds)
            w = random_weights(rng)
            for full in (False, True):
                problem = SearchProblem(ds, scores, cands, w,
                                        SearchConfig(L_max=3, charge_default_full=full))
                covers = oracle_cover_matrix(problem)

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
                    assert (oracle_open_bound(problem, state, scores)
                            >= best_completion(state) - 1e-9)
                    codes, his, *_ = problem.ordered_actions(state)
                    for code, hi in zip(codes.tolist(), his.tolist()):
                        child = problem.apply(state, code)
                        assert hi >= exact_bound(problem, child, scores)
                        assert hi >= best_completion(child) - 1e-9
                    rules = [c for c in codes.tolist() if c >= 0]
                    # the array reference the float32 test relies on agrees
                    # with the row-by-row one
                    children = [problem.apply(state, c) for c in rules]
                    np.testing.assert_allclose(
                        oracle_open_bounds(problem, state, scores, covers,
                                           [child.prefix[-1] for child in children]),
                        [oracle_open_bound(problem, child, scores) for child in children],
                        rtol=0, atol=1e-9)
                    if not rules:
                        break
                    state = problem.apply(state, rules[int(rng.integers(len(rules)))])

    def test_batched_bound_covers_float32_rounding(self):
        # scores near 1e6 over thousands of subjects: the float32 sums behind
        # hi are off by far more than float64 rounding, and the slack must
        # still keep hi at or above every child's exact bound; the open
        # children's come from the cover-matrix reference, as the row-by-row
        # one takes milliseconds a child
        rng = np.random.default_rng(62)
        ds = random_dataset(rng, n_subjects=3000, n_features=5, m=3)
        cands = mine_patterns(ds, MiningConfig(min_support=0.05, max_predicates=2))
        scores = DRScoreMatrix(
            scores=rng.normal(1e6, 3e5, size=(ds.n_subjects, ds.n_treatments)),
            treatment_names=ds.treatment_names)
        w = random_weights(rng)
        covers = None
        for full in (False, True):
            problem = SearchProblem(ds, scores, cands, w,
                                    SearchConfig(L_max=3, charge_default_full=full))
            if covers is None:
                covers = oracle_cover_matrix(problem)
            state = problem.initial_state()
            for _ in range(3):
                codes, his, *_ = problem.ordered_actions(state)
                rules = [c for c in codes.tolist() if c >= 0]
                for code, hi in zip(codes.tolist(), his.tolist()):
                    if code < 0:
                        assert hi >= problem.state_bound(problem.apply(state, code))
                assert np.all(his[codes >= 0] >= every_arm_bound(problem, state, scores,
                                                                 covers, rules))
                if not rules:
                    break
                state = problem.apply(state, rules[int(rng.integers(len(rules)))])

    def test_batched_bound_survives_float32_overflow(self):
        # a finite score beyond float32's range would overflow the batched
        # float32 sums unscaled; every bound, estimate and key must stay
        # finite, silently, and each hi must still reach its exact bound
        rng = np.random.default_rng(64)
        ds, cands = small_instance(rng)
        scores = random_scores(rng, ds)
        covers = oracle_cover_matrix(SearchProblem(ds, scores, cands))
        # subject i is covered by patterns p and q, and q covers someone p
        # does not, so q stays legal after p
        n_patterns = len(cands.patterns)
        i, p, q = next((i, p, q) for i, p, q in itertools.product(
            range(ds.n_subjects), range(n_patterns), range(n_patterns))
            if p != q and covers[i, p] and covers[i, q]
            and (covers[:, q] & ~covers[:, p]).any())
        scores.scores[i, 0] = -1e39
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            problem = SearchProblem(ds, scores, cands, random_weights(rng),
                                    SearchConfig(L_max=3))
            root = problem.initial_state()
            # one level down, the rule on p has covered subject i, so the
            # child's arm-0 sum for q is the root's minus its own
            for state in (root, problem.apply(root, p)):
                children = codes, his, *_ = problem.ordered_actions(state)
                assert_finite_children(problem, state, children)
                for code, hi in zip(codes.tolist(), his.tolist()):
                    assert hi >= exact_bound(problem, problem.apply(state, code), scores)
            assert q in codes.tolist()
            assert lo_brackets(problem, rng)[0]
        assert problem._scale > 1

    def test_bounds_at_the_largest_accepted_weights_are_finite_and_sound(self):
        # at the edge of check_scores' headroom every sum, bound, estimate
        # and key stays finite, silently; each hi reaches its child's exact
        # bound, each lo brackets its closed list, and UCT finds the
        # exhaustive optimum.  Opposed arms, +score and about -score for all,
        # make a key nearly twice a pattern's sums, which without the
        # headroom overflows for patterns covering most subjects
        rng = np.random.default_rng(68)
        ds, cands = small_instance(rng, n_patterns=4, n_subjects=40)
        instances = [(ds, cands, random_scores(rng, ds))]
        ds = random_dataset(rng, n_subjects=40, n_features=4, m=2)
        cands = mine_patterns(ds, MiningConfig(min_support=0.55, max_predicates=2, num_bins=3))
        # n * score just below a power of two, the worst case for the edge
        score = 1.99 * 2 ** 10 / ds.n_subjects
        opposed = np.column_stack([np.full(ds.n_subjects, score),
                                   -score * rng.uniform(0.9, 1.0, ds.n_subjects)])
        instances.append((ds, cands, DRScoreMatrix(opposed, ds.treatment_names)))
        assert 0 < len(cands) <= 10
        for ds, cands, scores in instances:
            w = ObjectiveWeights(lambda1=largest_accepted_lambda1(ds, scores))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                for full in (False, True):
                    config = SearchConfig(iterations=2000, L_max=2, charge_default_full=full)
                    problem = SearchProblem(ds, scores, cands, w, config)
                    state = problem.initial_state()
                    while True:
                        children = codes, his, *_ = problem.ordered_actions(state)
                        assert_finite_children(problem, state, children)
                        for code, hi in zip(codes.tolist(), his.tolist()):
                            assert hi >= exact_bound(problem, problem.apply(state, code), scores)
                        rules = codes[codes >= 0]
                        if state.depth == problem.L_max or not len(rules):
                            break
                        state = problem.apply(state, int(rng.choice(rules)))
                    assert lo_brackets(problem, rng)[0]
                    exact = exhaustive_search(ds, scores, cands, w, config)
                    res = uct_search(ds, scores, cands, w, config)
                    assert res.objective == exact.objective
                    greedy = greedy_baseline(ds, scores, cands, w, config)
                    assert greedy.objective <= exact.objective
            assert problem._scale > 1

    def test_expanded_parent_and_apply_alone_agree(self):
        # a child of an expanded parent takes the parent's sums minus those of
        # the subjects it newly covers; the same child built by apply alone
        # sums its uncovered subjects afresh; both must give the same actions,
        # exact counts and sound bounds (1,300 subjects: a ragged last block)
        rng = np.random.default_rng(70)
        ds = random_dataset(rng, n_subjects=1300, n_features=5, m=3)
        cands = mine_patterns(ds, MiningConfig(min_support=0.05, max_predicates=2))
        covers = None
        for walk in range(4):
            scores = random_scores(rng, ds)
            problem = SearchProblem(ds, scores, cands, random_weights(rng),
                                    SearchConfig(L_max=4, charge_default_full=walk % 2 == 1))
            if covers is None:
                covers = oracle_cover_matrix(problem)
            state = problem.initial_state()
            for _ in range(3):
                alone = problem.initial_state()
                for p, _ in state.prefix:
                    alone = problem.apply(alone, p)
                assert alone.prefix == state.prefix
                want = (covers & ~covered(state, problem.n)[:, None]).sum(axis=0)
                results = []
                for built in (state, alone):
                    codes, his, *_ = problem.ordered_actions(built)
                    assert np.array_equal(built.sums[0], want)
                    rules = codes >= 0
                    assert np.all(his[rules] >= every_arm_bound(problem, built, scores, covers,
                                                                codes[rules].tolist()))
                    results.append(sorted(codes.tolist()))
                assert results[0] == results[1]
                rules = [c for c in results[0] if c >= 0]
                if not rules:
                    break
                state = problem.apply(state, rules[int(rng.integers(len(rules)))])

    def test_terminal_bound_is_exact_objective(self):
        rng = np.random.default_rng(63)
        ds, cands = small_instance(rng)
        scores = random_scores(rng, ds)
        w = random_weights(rng)
        for full in (False, True):
            problem = SearchProblem(ds, scores, cands, w,
                                    SearchConfig(charge_default_full=full))
            for _ in range(12):
                length = int(rng.integers(0, 4))
                pats = rng.permutation(len(cands.patterns))[:length]
                state = problem.initial_state()
                for p in pats:
                    state = problem.apply(state, int(p))
                state = problem.apply(state, int(rng.integers(ds.n_treatments)) - ds.n_treatments)
                assert state.terminal
                dl = problem.decision_list(state)
                want = objective_value(ds, dl, scores, w,
                                       charge_default_full=full)
                assert problem.state_bound(state) == pytest.approx(want, abs=1e-12)

    def test_close_takes_the_best_default(self):
        rng = np.random.default_rng(67)
        for trial in range(6):
            ds, cands = small_instance(rng, m=2 + trial % 2)
            scores = random_scores(rng, ds)
            w = random_weights(rng)
            m = ds.n_treatments
            for full in (False, True):
                problem = SearchProblem(ds, scores, cands, w,
                                        SearchConfig(charge_default_full=full))
                for _ in range(8):
                    # every pattern may be used, so coverage can be complete
                    length = int(rng.integers(0, len(cands.patterns) + 1))
                    state = problem.initial_state()
                    for p in rng.permutation(len(cands.patterns))[:length]:
                        state = problem.apply(state, int(p))
                    closed = problem.close(state)
                    assert closed.terminal and closed.prefix == state.prefix
                    best = max(problem.state_bound(problem.apply(state, d - m))
                               for d in range(m))
                    assert problem.state_bound(closed) == pytest.approx(best, abs=1e-12)

    def test_single_treatment_empty_prefix_bound_is_policy_value(self):
        rng = np.random.default_rng(65)
        ds, cands = small_instance(rng, m=1)
        scores = random_scores(rng, ds)
        w = ObjectiveWeights(lambda1=1.0, lambda2=0.0, lambda3=1.0)
        problem = SearchProblem(ds, scores, cands, w, SearchConfig(L_max=3))
        state = problem.initial_state()
        only = objective_value(
            ds, DecisionList(rules=(), default_treatment=0), scores, w
        )
        assert oracle_open_bound(problem, state, scores) == pytest.approx(only, abs=1e-9)
        # with one arm and no assessment cost every list is worth the same,
        # so each batched bound exceeds that value by its slack alone
        _, his, *_ = problem.ordered_actions(state)
        assert np.all(his >= only)
        assert np.all(his <= only + 1e-3)

    def test_open_state_has_no_exact_objective(self):
        rng = np.random.default_rng(66)
        ds, cands = small_instance(rng)
        problem = SearchProblem(ds, random_scores(rng, ds), cands, random_weights(rng))
        state = problem.initial_state()
        for p in range(2):
            with pytest.raises(ValidationError, match="terminal"):
                problem.state_bound(state)
            state = problem.apply(state, p)
        assert np.isfinite(problem.state_bound(problem.close(state)))


def assert_finite_children(problem, state, children):
    """Every hi, lo and half-width of a state's children, and every key
    ordering its rule children, is finite."""
    for a in children[1:]:
        assert np.all(np.isfinite(a))
    if state.depth < problem.L_max:
        assert np.all(np.isfinite(per_pattern_actions(problem, state, problem._sums(state))[2]))


def lo_brackets(problem, rng, walks=2):
    """Along random walks from the root, check that every child's bounds
    and keys are finite, that every rule child's lo lies within its
    half-width s of the exact objective of the list close makes of the
    child apply builds, and that a closing child's lo is its exact hi with
    s = 0.  Returns the rule children checked and the exact ties between
    the two best closing children seen."""
    checked = tied = 0
    for _ in range(walks):
        state = problem.initial_state()
        while True:
            children = codes, his, los, halves = problem.ordered_actions(state)
            assert_finite_children(problem, state, children)
            closing = codes < 0
            assert los[closing].tobytes() == his[closing].tobytes()
            assert not halves[closing].any() and np.all(halves >= 0)
            rules = codes[~closing]
            for code, lo, half in zip(rules.tolist(), los[~closing].tolist(),
                                      halves[~closing].tolist()):
                child = problem.apply(state, code)
                exact = problem.state_bound(problem.close(child))
                closed = sorted(problem.state_bound(problem.apply(child, d - problem.m))
                                for d in range(problem.m))
                assert exact == closed[-1]
                tied += closed[-1] == closed[-2]
                assert lo - half <= exact <= lo + half
                checked += 1
            if state.depth == problem.L_max or not len(rules):
                break
            state = problem.apply(state, int(rng.choice(rules)))
    return checked, tied


class TestClosedChildEstimate:
    def test_lo_brackets_the_closed_list_on_random_instances(self):
        # few and many subjects (1,300: a ragged last block), both default
        # charges, and states whose sums are their parent's minus their own
        rng = np.random.default_rng(290)
        checked = 0
        for trial in range(16):
            m, full = 2 + trial % 3, trial // 3 % 2 == 1
            if trial % 4 == 3:
                ds = random_dataset(rng, n_subjects=1300, n_features=5, m=m)
                cands = mine_patterns(ds, MiningConfig(min_support=0.05, max_predicates=2))
            else:
                ds, cands = small_instance(rng, n_patterns=int(rng.integers(3, 9)), m=m)
            problem = SearchProblem(ds, random_scores(rng, ds), cands, random_weights(rng),
                                    SearchConfig(L_max=3, charge_default_full=full))
            checked += lo_brackets(problem, rng)[0]
        assert checked > 1000

    def test_lo_at_scores_near_a_million(self):
        # the float32 sums behind lo are off by far more than float64
        # rounding here, and s must still cover them
        rng = np.random.default_rng(291)
        ds = random_dataset(rng, n_subjects=3000, n_features=5, m=3)
        cands = mine_patterns(ds, MiningConfig(min_support=0.05, max_predicates=2))
        scores = DRScoreMatrix(
            scores=rng.normal(1e6, 3e5, size=(ds.n_subjects, ds.n_treatments)),
            treatment_names=ds.treatment_names)
        w = random_weights(rng)
        for full in (False, True):
            problem = SearchProblem(ds, scores, cands, w,
                                    SearchConfig(L_max=2, charge_default_full=full))
            checked, _ = lo_brackets(problem, rng, walks=1)
            assert checked > 100

    def test_lo_of_an_exact_tie_between_arms(self):
        # arms 1 and 2 have identical scores and costs: their float32 sums
        # tie too, and lo brackets the list whichever arm apply and close pick
        rng = np.random.default_rng(292)
        ties = 0
        for full in (False, True):
            ds, cands = small_instance(rng, n_patterns=8, m=3)
            ds = dataclasses.replace(ds, treatment_costs=np.full(3, 4.0))
            base = rng.normal(0, 10, size=(ds.n_subjects, 2))
            scores = DRScoreMatrix(base[:, [0, 1, 1]], ds.treatment_names)
            problem = SearchProblem(ds, scores, cands, ObjectiveWeights(lambda2=0.1),
                                    SearchConfig(L_max=3, charge_default_full=full))
            checked, tied = lo_brackets(problem, rng, walks=3)
            assert checked
            ties += tied
        assert ties > 0

    def test_lo_of_a_score_beyond_float32_brackets_the_closed_list(self, monkeypatch):
        # one score beyond float32's range, or every score near it, would
        # overflow the pattern sums unscaled (see TestSums); every lo stays
        # finite within s of the exact objective, so UCT finds what it finds
        # when it builds and scores every full prefix exactly.  One huge
        # score widens every s past the gaps between the other lists, so
        # each full prefix is confirmed; with every score huge, s stays
        # narrow and most are scored by lo alone
        from_lo = {}
        for kind in ("one", "every"):
            rng, ds, cands, scores = shared_instance(1029, 70, 75)
            if kind == "one":
                scores.scores[int(rng.integers(ds.n_subjects)), 1] = 1e39
            else:
                scores.scores[...] *= 1e37
            w = random_weights(rng)
            config = SearchConfig(iterations=300, L_max=2)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                problem = SearchProblem(ds, scores, cands, w, config)
                assert lo_brackets(problem, rng, walks=1)[0]
                res = uct_search(ds, scores, cands, w, config)
                with monkeypatch.context() as patch:
                    confirm_every_leaf(patch)
                    confirmed = uct_search(ds, scores, cands, w, config)
            assert problem._scale > 1
            assert confirmed.leaves_from_lo == 0 and confirmed.leaves_confirmed > 0
            assert res.decision_list == confirmed.decision_list
            assert res.objective == confirmed.objective
            from_lo[kind] = res.leaves_from_lo
        assert from_lo["one"] == 0 and from_lo["every"] > 0


def shared_predicate_patterns(rng, ds, n_patterns):
    """n_patterns distinct patterns of 1 to 3 predicates, drawn from a few
    per feature (two thresholds per real one), so that patterns share them."""
    pool = [[Predicate(f, op, v) for op in (">=", "<") for v in (0.0, 1.0)]
            if spec.kind == REAL else
            [Predicate(f, op, v) for op in ("=", "!=") for v in spec.levels[:2]]
            for f, spec in enumerate(ds.specs)]
    patterns: dict[Pattern, None] = {}
    while len(patterns) < n_patterns:
        feats = sorted(rng.choice(len(pool), size=int(rng.integers(1, 4)), replace=False))
        patterns[Pattern(tuple(pool[f][int(rng.integers(len(pool[f])))] for f in feats))] = None
    return tuple(patterns)


def shared_instance(n, n_patterns, seed, m=2):
    """A random dataset of n subjects, its shared_predicate_patterns as the
    candidates, and random scores."""
    rng = np.random.default_rng(seed)
    ds = random_dataset(rng, n_subjects=n, n_features=5, m=m)
    patterns = shared_predicate_patterns(rng, ds, n_patterns)
    cands = CandidateSet(patterns=patterns,
                         counts=tuple(int(pattern_mask(ds, pat).sum()) for pat in patterns),
                         bins={}, n_subjects=n, config=MiningConfig())
    return rng, ds, cands, random_scores(rng, ds)


def prefixes_and_predicates(patterns):
    """The distinct prefixes (all predicates but the last; the empty one
    first) and the distinct predicates, each in order of first appearance:
    the column order of _prefix_bits and _pred_bits."""
    prefixes = dict.fromkeys([()] + [pat.predicates[:-1] for pat in patterns])
    preds = dict.fromkeys(pred for pat in patterns for pred in pat.predicates)
    return list(prefixes), list(preds)


class TestCoverage:
    @pytest.mark.parametrize("n_patterns", [0, 70])
    @pytest.mark.parametrize("n", [1, 7, 8, 9, 1029])
    def test_bits_rows_and_coverage_match_cover_matrix(self, n, n_patterns):
        # 70 patterns hold tens of predicates and prefixes, so their columns
        # fill whole bytes and part of one more; rows have a partial last
        # byte unless 8 divides n
        _, ds, cands, scores = shared_instance(n, n_patterns, n * 100 + n_patterns)
        problem = SearchProblem(ds, scores, cands)
        covers = oracle_cover_matrix(problem).reshape(n, n_patterns)
        prefixes, preds = prefixes_and_predicates(problem.patterns)
        rows = [dataset_row(ds, i) for i in range(n)]
        want_preds = np.array([[oracle_predicate_holds(pred, x, ds.specs) for pred in preds]
                               for x in rows], dtype=bool).reshape(n, len(preds))
        want_prefixes = np.array([[all(oracle_predicate_holds(pred, x, ds.specs) for pred in pre)
                                   for pre in prefixes] for x in rows], dtype=bool)
        for bits, want in ((problem._pred_bits, want_preds),
                           (problem._prefix_bits, want_prefixes)):
            assert bits.dtype == np.uint8 and bits.shape == (n, -(-want.shape[1] // 8))
            assert np.array_equal(np.unpackbits(bits, axis=1, count=want.shape[1]), want)
            assert not np.unpackbits(bits, axis=1)[:, want.shape[1]:].any()
        for p, pat in enumerate(problem.patterns):
            k, q = prefixes.index(pat.predicates[:-1]), preds.index(pat.predicates[-1])
            assert np.array_equal(want_prefixes[:, k] & want_preds[:, q], covers[:, p])
        assert np.array_equal(problem.coverage, covers.sum(axis=0))
        for p in range(n_patterns):
            row = problem.row(p)
            assert row.dtype == np.uint8 and row.shape == (-(-n // 8),)
            assert np.array_equal(np.unpackbits(row, count=n), covers[:, p])
            assert not np.unpackbits(row)[n:].any()

    def test_build_holds_no_coverage_sized_temporary(self):
        # the per-subject bits are transposed BLOCK subjects at a time from
        # packed predicate and prefix rows, so building the problem needs,
        # beyond what it keeps, only a few bytes per subject (the prefix rows
        # and the float64 columns _table is cast from), far less than a
        # subject by pattern bit matrix
        rng = np.random.default_rng(74)
        ds = random_dataset(rng, n_subjects=20000, n_features=6, m=2)
        cands = mine_patterns(ds, MiningConfig(min_support=0.01, max_predicates=3))
        scores = random_scores(rng, ds)
        tracemalloc.start()
        try:
            problem = SearchProblem(ds, scores, cands)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(problem.patterns) > 8 * 128
        assert peak - kept < 64 * problem.n

    def test_no_array_per_subject_and_pattern(self):
        # coverage is held once, as one packed row per distinct predicate,
        # plus the predicates and prefixes packed subject by subject; a
        # subject by pattern bit matrix would hold many times more
        rng = np.random.default_rng(71)
        ds = random_dataset(rng, n_subjects=2000, n_features=6, m=2)
        cands = mine_patterns(ds, MiningConfig(min_support=0.05, max_predicates=2))
        problem = SearchProblem(ds, random_scores(rng, ds), cands)
        held = sum(v.nbytes for v in vars(problem).values()
                   if isinstance(v, np.ndarray) and v.dtype == np.uint8)
        prefixes, preds = prefixes_and_predicates(problem.patterns)
        assert len(preds) < len(problem.patterns) / 8
        assert held <= ((-(-len(preds) // 8) + -(-len(prefixes) // 8)) * problem.n
                        + len(preds) * -(-problem.n // 8))

    def test_pattern_rows_unpack_to_cover_matrix(self):
        rng = np.random.default_rng(72)
        ds = random_dataset(rng, n_subjects=203, n_features=5, m=2)
        cands = mine_patterns(ds, MiningConfig(min_support=0.05, max_predicates=2))
        problem = SearchProblem(ds, random_scores(rng, ds), cands)
        covers = oracle_cover_matrix(problem)
        for p in range(len(problem.patterns)):
            assert problem.row(p).shape == (-(-problem.n // 8),)
            assert np.array_equal(np.unpackbits(problem.row(p), count=problem.n), covers[:, p])
            assert not np.unpackbits(problem.row(p))[problem.n:].any()

    def test_no_array_per_subject_and_node(self, monkeypatch):
        # a state holds its coverage packed, ceil(n / 8) bytes, and no other
        # array but its per-pattern sums (that a full prefix's state does
        # not outlive its scoring is TestFullPrefix's); every full prefix is
        # built, so as many states are checked as UCT can build
        rng = np.random.default_rng(73)
        ds = random_dataset(rng, n_subjects=2000, n_features=6, m=2)
        cands = mine_patterns(ds, MiningConfig(min_support=0.05, max_predicates=2))
        scores = random_scores(rng, ds)
        apply = SearchProblem.apply
        states = []

        def recording_apply(problem, state, action):
            states.append(apply(problem, state, action))
            return states[-1]

        monkeypatch.setattr(SearchProblem, "apply", recording_apply)
        confirm_every_leaf(monkeypatch)
        uct_search(ds, scores, cands, ObjectiveWeights(),
                   SearchConfig(iterations=300, L_max=3, seed=1))
        assert len(states) > 300
        for state in states:
            arrays = {f.name: getattr(state, f.name) for f in dataclasses.fields(state)
                      if isinstance(getattr(state, f.name), np.ndarray)}
            sums = arrays.pop("sums", None)
            assert sum(a.nbytes for a in arrays.values()) <= -(-ds.n_subjects // 8)
            assert sums is None or sums.shape == (ds.n_treatments + 2, len(cands))

    def test_tree_memory_per_node_does_not_grow_with_n(self, monkeypatch):
        # only an interior prefix is a node, and its frontier keeps a
        # window of its children, so what the tree holds per built child
        # (the search log's entry, the interior nodes' windows, sums and
        # n / 8-byte covered sets, and Python objects) is about 1.07 KB at
        # n = 64,000, measured as the traced memory still held when the
        # search ends, its tree alive, between 400 and 1,200 iterations;
        # one n / 8-byte covered set kept per built child would add 8 KB
        n = 64000
        ds, _ = generate(default_generator_spec(n_subjects=n, seed=0))
        scores = compute_dr_scores(ds, fit_propensity(ds), fit_outcome(ds))
        cands = mine_patterns(ds, MiningConfig(min_support=0.2, max_predicates=2))
        decision_list, held = SearchProblem.decision_list, []

        def at_the_end(problem, state):
            # uct_search's last call, while its tree is alive
            held.append(tracemalloc.get_traced_memory()[0])
            return decision_list(problem, state)

        monkeypatch.setattr(SearchProblem, "decision_list", at_the_end)
        for iterations in (400, 1200):
            tracemalloc.start()
            try:
                res = uct_search(ds, scores, cands, ObjectiveWeights(),
                                 SearchConfig(iterations=iterations, L_max=3))
            finally:
                tracemalloc.stop()
            assert res.tree_size == iterations + 1
        assert len(held) == 2
        assert (held[1] - held[0]) / 800 < n / 32

    def test_one_default_product_per_state(self, monkeypatch):
        # close sums each arm's row of value_cols over a new child's
        # uncovered set, and state_bound and ordered_actions reuse those sums;
        # every full prefix is built, so as many states are checked as UCT
        # can build
        rng = np.random.default_rng(79)
        ds = random_dataset(rng, n_subjects=500, n_features=5, m=3)
        cands = mine_patterns(ds, MiningConfig(min_support=0.05, max_predicates=2))
        scores = random_scores(rng, ds)
        init, apply, compress = SearchProblem.__init__, SearchProblem.apply, np.compress
        problems, states, row_sums = [], [], []

        def recording_init(problem, *args, **kwargs):
            init(problem, *args, **kwargs)
            problems.append(problem)

        def recording_apply(problem, state, action):
            states.append(apply(problem, state, action))
            return states[-1]

        def counting_compress(condition, a, *args, **kwargs):
            if np.ndim(a) == 1 and a.base is problems[-1].value_cols:
                row_sums.append(a)
            return compress(condition, a, *args, **kwargs)

        monkeypatch.setattr(SearchProblem, "__init__", recording_init)
        monkeypatch.setattr(SearchProblem, "apply", recording_apply)
        monkeypatch.setattr(np, "compress", counting_compress)
        confirm_every_leaf(monkeypatch)
        uct_search(ds, scores, cands, ObjectiveWeights(),
                   SearchConfig(iterations=300, L_max=3, seed=1))
        open_states = sum(not state.terminal for state in states)
        assert open_states > 100
        assert 0 < len(row_sums) <= ds.n_treatments * (1 + open_states)


class TestSums:
    @pytest.mark.parametrize("n_patterns", [0, 70])
    @pytest.mark.parametrize("n", [1, 7, 8, 9, 1029, 1537])
    def test_sums_match_float64_oracle_along_a_walk(self, n, n_patterns):
        # the root sums its subjects afresh, a child and a grandchild take
        # their parent's kept sums minus their newly covered subjects'; 1,537
        # subjects end in a one-subject block
        rng, ds, cands, scores = shared_instance(n, n_patterns, n * 100 + n_patterns + 1, m=3)
        w = random_weights(rng)
        problem = SearchProblem(ds, scores, cands, w, SearchConfig(L_max=4))
        covers = oracle_cover_matrix(problem).reshape(n, n_patterns)
        values = w.lambda1 * scores.scores - w.lambda3 * ds.treatment_costs
        optimistic = (w.lambda1 * scores.scores.max(axis=1)
                      - w.lambda3 * ds.treatment_costs.min())
        table = np.column_stack([np.ones(n), optimistic, values])
        state = problem.initial_state()
        for depth in range(3):
            codes, *_ = problem.ordered_actions(state)
            newly = covers & ~covered(state, problem.n)[:, None]
            want = table.T @ newly
            cnt = newly.sum(axis=0)
            assert state.sums.shape == want.shape
            assert np.array_equal(state.sums[0], cnt)
            slack = problem._slack_per_term * (2 * covers.sum(axis=0) - cnt)
            assert np.all(np.abs(state.sums[1:] - want[1:]) <= slack)
            rules = codes[codes >= 0]
            if not len(rules):
                break
            state = problem.apply(state, int(rng.choice(rules)))
        assert n_patterns == 0 or depth > 0

    def test_score_beyond_float32_keeps_every_sum_finite(self):
        # one subject's table entries lie beyond float32's range unscaled;
        # every pattern sums it or multiplies it by a 0 bit, at the root and
        # in the sums its descendants subtract from, and the sums must stay
        # within the slack of the float64 ones, the bounds finite and sound
        rng, ds, cands, scores = shared_instance(1029, 70, 75)
        scores.scores[int(rng.integers(ds.n_subjects)), 1] = 1e39
        w = random_weights(rng)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            problem = SearchProblem(ds, scores, cands, w, SearchConfig(L_max=4))
            covers = oracle_cover_matrix(problem)
            table = np.column_stack([
                np.ones(problem.n), problem.optimistic, problem.value_cols.T])
            state = problem.initial_state()
            for depth in range(3):
                children = codes, his, *_ = problem.ordered_actions(state)
                assert_finite_children(problem, state, children)
                newly = covers & ~covered(state, problem.n)[:, None]
                slack = problem._slack_per_term * (2 * covers.sum(axis=0) - newly.sum(axis=0))
                assert np.all(np.abs(state.sums[1:] - (table.T @ newly)[1:]) <= slack)
                rules = codes[codes >= 0]
                assert len(rules)
                assert np.all(his[codes >= 0] >= every_arm_bound(problem, state, scores,
                                                                 covers, rules.tolist()))
                state = problem.apply(state, int(rng.choice(rules)))
        assert problem._scale > 1 and np.abs(table).max() > np.finfo(np.float32).max

    def test_root_sums_hold_no_block_per_pattern(self):
        # a block of subjects is unpacked into prefix and predicate columns,
        # not pattern columns: beyond what it keeps, a root's ordered_actions
        # peaks at a few of those blocks and of the P x (m + 2) sums, far
        # below one float32 block of BLOCK subjects by P patterns
        rng = np.random.default_rng(74)
        ds = random_dataset(rng, n_subjects=20000, n_features=6, m=2)
        cands = mine_patterns(ds, MiningConfig(min_support=0.01, max_predicates=3))
        problem = SearchProblem(ds, random_scores(rng, ds), cands, ObjectiveWeights(),
                                SearchConfig(L_max=3))
        prefixes, preds = prefixes_and_predicates(problem.patterns)
        n_cols = problem.m + 2
        bound = 3 * (4 * BLOCK * (len(prefixes) + n_cols * len(preds))
                     + 8 * len(problem.patterns) * n_cols)
        assert bound < 4 * BLOCK * len(problem.patterns)
        state = problem.initial_state()
        problem.default_sums(state)
        tracemalloc.start()
        try:
            problem.ordered_actions(state)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - kept < bound


class TestStateConsistency:
    def test_rule_takes_the_arm_of_largest_value_on_its_new_subjects(self):
        rng = np.random.default_rng(68)
        for trial in range(8):
            ds, cands = small_instance(rng, m=2 + trial % 2)
            problem = SearchProblem(ds, random_scores(rng, ds), cands, random_weights(rng))
            covers = oracle_cover_matrix(problem)
            state = problem.initial_state()
            for p in rng.permutation(len(cands.patterns))[:4].tolist():
                newly = covers[:, p] & ~covered(state, problem.n)
                values = [float(problem.value_cols[t][newly].sum()) for t in range(problem.m)]
                child = problem.apply(state, p)
                # max returns the first of equal values: the lowest arm
                assert child.prefix == state.prefix + ((p, max(range(problem.m),
                                                               key=values.__getitem__)),)
                check_state_consistency(problem, child, covers)
                state = child

    def test_lowest_arm_wins_an_exact_tie(self):
        # arms 1 and 2 have identical scores and costs and beat arm 0 on
        # every subject, so every rule takes arm 1
        rng = np.random.default_rng(69)
        ds, cands = small_instance(rng, m=3)
        ds = dataclasses.replace(ds, treatment_costs=np.full(3, 4.0))
        base = rng.normal(0, 10, size=ds.n_subjects)
        scores = DRScoreMatrix(np.column_stack([base - 5.0, base, base]), ds.treatment_names)
        problem = SearchProblem(ds, scores, cands, random_weights(rng))
        covers = oracle_cover_matrix(problem)
        state = problem.initial_state()
        for p in range(len(cands.patterns)):
            if not (covers[:, p] & ~covered(state, problem.n)).any():
                continue
            state = problem.apply(state, p)
            assert state.prefix[-1] == (p, 1)
            check_state_consistency(problem, state, covers)

    def test_incremental_sums_match_recomputation(self):
        rng = np.random.default_rng(67)
        for _ in range(5):
            ds, cands = small_instance(rng)
            problem = SearchProblem(ds, random_scores(rng, ds), cands,
                                    random_weights(rng), SearchConfig(L_max=4))
            state = problem.initial_state()
            check_state_consistency(problem, state)
            while True:
                codes, *_ = problem.ordered_actions(state)
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
                         SearchConfig(iterations=200, L_max=1, seed=0))
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
            exact = exhaustive_search(ds, scores, cands, w, SearchConfig(L_max=2))
            res = uct_search(ds, scores, cands, w,
                             SearchConfig(iterations=4000, L_max=2, seed=3))
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

    def test_seed_does_not_change_the_search(self):
        # the search draws no random numbers: every seed walks the same tree
        rng = np.random.default_rng(76)
        for _ in range(3):
            ds, cands = small_instance(rng)
            scores = random_scores(rng, ds)
            w = random_weights(rng)
            runs = [uct_search(ds, scores, cands, w,
                               SearchConfig(iterations=300, L_max=3, seed=seed))
                    for seed in range(4)]
            for res in runs[1:]:
                assert res.decision_list == runs[0].decision_list
                assert res.log == runs[0].log
                assert res.tree_size == runs[0].tree_size
                assert res.n_pruned == runs[0].n_pruned

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
        scores = random_scores(rng, ds)
        covers = oracle_cover_matrix(SearchProblem(ds, scores, cands))
        apply = SearchProblem.apply
        checked = []

        def checked_apply(problem, state, action):
            child = apply(problem, state, action)
            if not child.terminal:
                check_state_consistency(problem, child, covers)
                checked.append(child)
            return child

        monkeypatch.setattr(SearchProblem, "apply", checked_apply)
        uct_search(ds, scores, cands, ObjectiveWeights(),
                   SearchConfig(iterations=200, L_max=2, seed=2))
        assert checked

    def test_batched_bounds_skip_building_pruned_children(self, monkeypatch):
        # an open prefix is bounded by hi alone, and a closing child by its
        # exact objective, which is its hi: state_bound scores only the list
        # that closes each new rule child, whose reward it is
        rng = np.random.default_rng(0)
        ds = random_dataset(rng, n_subjects=1000, n_features=6, m=3)
        cands = mine_patterns(ds, MiningConfig(min_support=0.05, max_predicates=2))
        scores = random_scores(rng, ds)
        counts = {"state_bound": 0, "closing": 0, "close": 0}
        originals = {name: getattr(SearchProblem, name)
                     for name in ("state_bound", "apply", "close")}

        def state_bound(problem, state):
            counts["state_bound"] += 1
            return originals["state_bound"](problem, state)

        def apply(problem, state, action):
            counts["closing"] += action < 0
            return originals["apply"](problem, state, action)

        def close(problem, state):
            counts["close"] += 1
            return originals["close"](problem, state)

        for name, fn in (("state_bound", state_bound), ("apply", apply), ("close", close)):
            monkeypatch.setattr(SearchProblem, name, fn)
        res = uct_search(ds, scores, cands, ObjectiveWeights(),
                         SearchConfig(iterations=1000, L_max=3, seed=1))
        assert res.n_pruned >= 300
        # close applies a default too, so closing children built are the rest
        assert counts["closing"] > counts["close"] > 0
        assert counts["state_bound"] == counts["close"]

    def test_tree_holds_only_prefixes_that_can_grow(self, monkeypatch):
        # a node holds an open prefix below L_max (the root, at L_max 0, is
        # full); closed lists and full prefixes are only counted in leaves,
        # never ordered, and never pruned: n_pruned is next_index's skips and
        # the interior nodes pruned at selection
        next_index, ordered_actions = Frontier.next_index, SearchProblem.ordered_actions
        rng = np.random.default_rng(280)
        for trial in range(24):
            m, L_max, full = 2 + trial % 3, trial // 3 % 4, trial // 12 % 2 == 1
            ds, cands = small_instance(rng, n_patterns=int(rng.integers(3, 9)), m=m)
            nodes, ordered, counters, skips = [], [], [], []

            class RecordingNode(search.SearchNode):
                def __init__(self, state, bound):
                    super().__init__(state, bound)
                    nodes.append(self)

            def recording_ordered_actions(problem, state, window=None):
                ordered.append(state.depth)
                return ordered_actions(problem, state, window)

            def counting_next_index(frontier, problem, incumbent, pruned):
                before = pruned.total()
                taken = next_index(frontier, problem, incumbent, pruned)
                counters.append(pruned)
                skips.append(pruned.total() - before)
                return taken

            with monkeypatch.context() as mp:
                mp.setattr(search, "SearchNode", RecordingNode)
                mp.setattr(SearchProblem, "ordered_actions", recording_ordered_actions)
                mp.setattr(Frontier, "next_index", counting_next_index)
                res = uct_search(ds, random_scores(rng, ds), cands, random_weights(rng),
                                 SearchConfig(iterations=300, L_max=L_max,
                                              charge_default_full=full))
            root, *interior = nodes
            assert root.state.depth == 0 and not root.state.terminal
            for node in interior:
                assert isinstance(node.state, SearchState) and not node.state.terminal
                assert 0 < node.state.depth < L_max
            assert res.tree_size == len(nodes) + sum(node.leaves for node in nodes)
            if L_max >= 1:
                assert max(ordered) < L_max
            pruned = counters[0]
            assert all(counter is pruned for counter in counters)
            assert set(pruned) <= {"hi", "node"} and pruned.total() == res.n_pruned
            assert res.pruned == {"hi": pruned["hi"], "lo": 0, "node": pruned["node"]}
            assert pruned["hi"] == sum(skips)
            assert pruned["node"] <= sum(node.fully_explored and node.bound <= res.objective
                                         for node in interior)

    def test_every_iteration_but_the_last_builds_one_node(self):
        # an iteration backs up the reward of the one child it builds; a
        # pruned child must leave no reward behind, or the iteration would
        # back one up without growing the tree
        rng = np.random.default_rng(85)
        for trial in range(8):
            ds, cands = small_instance(rng, n_patterns=4, m=2 + trial % 2)
            scores, w = random_scores(rng, ds), random_weights(rng)
            for L_max in (1, 2):
                res = uct_search(ds, scores, cands, w,
                                 SearchConfig(iterations=3000, L_max=L_max))
                steps = np.diff([1] + [rec["tree_size"] for rec in res.log])
                assert np.all(steps[:-1] == 1) and steps[-1] in (0, 1)

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
        # enumerate_completions tries every treatment of every rule, which
        # the search does not; its best list must still reach their maximum
        rng = np.random.default_rng(91)
        for trial in range(8):
            m, full = 2 + trial % 2, trial // 2 % 2 == 1
            ds, cands = small_instance(rng, n_patterns=6 if m == 2 else 5, m=m)
            scores = random_scores(rng, ds)
            w = random_weights(rng)
            config = SearchConfig(L_max=3, charge_default_full=full)
            problem = SearchProblem(ds, scores, cands, w, config)
            best = max(enumerate_completions(problem, problem.initial_state(), 3, scores))
            for use_bound in (False, True):
                res = exhaustive_search(ds, scores, cands, w, config, use_bound=use_bound)
                assert res.objective == pytest.approx(best, abs=1e-12)

    def test_pruning_preserves_the_optimum(self):
        rng = np.random.default_rng(93)
        pruned_somewhere = 0
        for _ in range(6):
            ds, cands = small_instance(rng, n_patterns=4)
            scores = random_scores(rng, ds)
            w = random_weights(rng)
            off = exhaustive_search(ds, scores, cands, w, SearchConfig(L_max=2), use_bound=False)
            on = exhaustive_search(ds, scores, cands, w, SearchConfig(L_max=2), use_bound=True)
            assert abs(on.objective - off.objective) <= 1e-12
            assert on.decision_list == off.decision_list
            pruned_somewhere += int(on.n_pruned > 0)
        assert pruned_somewhere >= 3

    def test_bound_prunes_rule_children_unbuilt(self, monkeypatch):
        # with use_bound, a rule child whose hi cannot beat the incumbent is
        # never built: every rule child apply builds is then expanded, with
        # one ordered_actions call, and the list is the unpruned one.  Nor is
        # a default child whose hi, its exact objective, cannot beat the
        # incumbent, which is the best of the default children built so far.
        rng = np.random.default_rng(94)
        counts = {"rules": 0, "expanded": 0, "defaults": 0, "defaults_offered": 0}
        apply = SearchProblem.apply
        ordered_actions = SearchProblem.ordered_actions
        # per expanded state, kept alive so that its id stays its own
        his_of: dict[int, tuple] = {}
        incumbent = [-math.inf]

        def counted_apply(problem, state, action):
            counts["rules"] += action >= 0
            if action < 0:
                counts["defaults"] += 1
                hi = his_of[id(state)][1][action]
                assert hi > incumbent[0]
                incumbent[0] = hi
            return apply(problem, state, action)

        def counted_ordered_actions(problem, state):
            counts["expanded"] += 1
            children = ordered_actions(problem, state)
            codes, his, *_ = children
            counts["defaults_offered"] += int(np.count_nonzero(codes < 0))
            his_of[id(state)] = (state, dict(zip(codes.tolist(), his.tolist())))
            return children

        pruned_somewhere = 0
        for _ in range(6):
            ds, cands = small_instance(rng, n_patterns=5)
            scores = random_scores(rng, ds)
            w = random_weights(rng)
            off = exhaustive_search(ds, scores, cands, w, SearchConfig(L_max=3), use_bound=False)
            with monkeypatch.context() as mp:
                mp.setattr(SearchProblem, "apply", counted_apply)
                mp.setattr(SearchProblem, "ordered_actions", counted_ordered_actions)
                counts.update(rules=0, expanded=0)
                his_of.clear()
                incumbent[0] = -math.inf
                on = exhaustive_search(ds, scores, cands, w, SearchConfig(L_max=3),
                                       use_bound=True)
            # the root is expanded without being built
            assert counts["rules"] == counts["expanded"] - 1
            assert (on.decision_list, on.objective) == (off.decision_list, off.objective)
            pruned_somewhere += int(on.n_pruned > 0)
        assert pruned_somewhere >= 3
        assert counts["defaults"] < counts["defaults_offered"]

    def test_cost_only_objective_prefers_empty_list(self):
        rng = np.random.default_rng(95)
        ds, cands = small_instance(rng)
        scores = random_scores(rng, ds)
        w = ObjectiveWeights(lambda1=0.0, lambda2=1.0, lambda3=0.0)
        res = exhaustive_search(ds, scores, cands, w, SearchConfig(L_max=2))
        assert res.decision_list.rules == ()

    def test_size_limits_enforced(self):
        rng = np.random.default_rng(97)
        ds, cands = small_instance(rng, n_patterns=11)
        scores = random_scores(rng, ds)
        with pytest.raises(SizeLimitError, match="11 patterns"):
            exhaustive_search(ds, scores, cands, ObjectiveWeights(), SearchConfig(L_max=2))
        few = dataclasses.replace(cands, patterns=cands.patterns[:10],
                                  counts=cands.counts[:10])
        with pytest.raises(SizeLimitError, match="L_max 5"):
            exhaustive_search(ds, scores, few, ObjectiveWeights(), SearchConfig(L_max=5))

    def test_evaluates_every_list_whose_rules_cover_something_new(self):
        # oracle: count row by row the pattern sequences in which every rule
        # newly covers at least one subject, times the default treatments;
        # each rule takes the one arm apply picks
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
                        n_lists += m
            res = exhaustive_search(ds, random_scores(rng, ds), cands,
                                    random_weights(rng), SearchConfig(L_max=L_max))
            assert res.n_evaluated == n_lists

    def test_deterministic_tie_break(self):
        rng = np.random.default_rng(99)
        ds, cands = small_instance(rng, n_patterns=3)
        scores = random_scores(rng, ds)
        a = exhaustive_search(ds, scores, cands, ObjectiveWeights(), SearchConfig(L_max=2))
        b = exhaustive_search(ds, scores, cands, ObjectiveWeights(), SearchConfig(L_max=2))
        assert a.decision_list == b.decision_list


class TestGreedy:
    def test_never_beats_exhaustive(self):
        rng = np.random.default_rng(101)
        for _ in range(6):
            ds, cands = small_instance(rng, n_patterns=4)
            scores = random_scores(rng, ds)
            w = random_weights(rng)
            exact = exhaustive_search(ds, scores, cands, w, SearchConfig(L_max=3))
            greedy = greedy_baseline(ds, scores, cands, w, SearchConfig(L_max=3))
            assert greedy.objective <= exact.objective + 1e-12

    def test_objective_reported_matches_list(self):
        rng = np.random.default_rng(103)
        ds, cands = small_instance(rng)
        scores = random_scores(rng, ds)
        w = random_weights(rng)
        res = greedy_baseline(ds, scores, cands, w, SearchConfig(L_max=3))
        assert res.objective == pytest.approx(
            objective_value(ds, res.decision_list, scores, w), abs=1e-12
        )

    def test_deterministic(self):
        rng = np.random.default_rng(105)
        ds, cands = small_instance(rng)
        scores = random_scores(rng, ds)
        a = greedy_baseline(ds, scores, cands, ObjectiveWeights(), SearchConfig(L_max=3))
        b = greedy_baseline(ds, scores, cands, ObjectiveWeights(), SearchConfig(L_max=3))
        assert a.decision_list == b.decision_list

    def test_one_product_per_step_and_lo_skips_keep_the_oracle_list(self, monkeypatch):
        # each step orders its children once and scores exactly only those
        # whose lo + s reaches the largest lo - s; the rest, counted under
        # "lo", cannot hold the step's best, so the list and its objective
        # bits are the oracle's that scores every (pattern, arm) rule
        ordered_actions, calls = SearchProblem.ordered_actions, []

        def counted(problem, state):
            calls.append(state.depth)
            return ordered_actions(problem, state)

        monkeypatch.setattr(SearchProblem, "ordered_actions", counted)
        rng = np.random.default_rng(109)
        skipped = 0
        for trial in range(8):
            m, full = 2 + trial % 3, trial // 3 % 2 == 1
            ds = random_dataset(rng, n_subjects=int(rng.integers(300, 1500)), n_features=5, m=m)
            cands = mine_patterns(ds, MiningConfig(min_support=0.05, max_predicates=2))
            scores, w = random_scores(rng, ds), random_weights(rng)
            calls.clear()
            res = greedy_baseline(ds, scores, cands, w,
                                  SearchConfig(L_max=3, charge_default_full=full))
            rules = len(res.decision_list.rules)
            assert calls == list(range(min(rules + 1, 3)))
            assert res.n_pruned == sum(res.pruned.values()) and res.pruned["node"] == 0
            skipped += res.pruned["lo"]
            if not full:
                assert ((res.decision_list, res.objective)
                        == oracle_greedy(ds, scores, cands, w, 3))
        assert skipped > 1000

    def test_bound_skipping_keeps_the_unpruned_result(self):
        # skipping children whose bound cannot beat the running best must
        # leave the list and its objective exactly those of scoring them all;
        # arms tie but for a bonus on two patterns' subjects, so the bounds
        # are tight enough to skip children
        rng = np.random.default_rng(107)
        skipped = 0
        for trial in range(16):
            ds, cands = small_instance(rng, n_patterns=8, m=2 + trial % 2)
            s = np.repeat(rng.normal(0, 10, size=(ds.n_subjects, 1)), ds.n_treatments, axis=1)
            for p in rng.choice(len(cands.patterns), size=2, replace=False):
                s[pattern_mask(ds, cands.patterns[p]), rng.integers(ds.n_treatments)] \
                    += rng.uniform(1, 3)
            scores = DRScoreMatrix(s, ds.treatment_names)
            w = ObjectiveWeights(1.0, float(rng.uniform(0, 0.05)), 0.0)
            problem = SearchProblem(ds, scores, cands, w, SearchConfig(L_max=3))
            codes, his, *_ = problem.ordered_actions(problem.initial_state())
            best = problem.state_bound(problem.close(problem.initial_state()))
            skipped += int(np.count_nonzero(his[codes >= 0] <= best))
            res = greedy_baseline(ds, scores, cands, w, SearchConfig(L_max=3))
            assert (res.decision_list, res.objective) == oracle_greedy(ds, scores, cands, w, 3)
        assert skipped > 0


def same_state(a, b):
    """Two states with the same list, covered set and incurred sums."""
    return (a.prefix == b.prefix and np.array_equal(a.packed, b.packed)
            and (a.features, a.terminal, a.default_treatment)
            == (b.features, b.terminal, b.default_treatment)
            and (a.incurred_assess, a.incurred_value) == (b.incurred_assess, b.incurred_value))


class TestFrontier:
    def problem(self, seed, L_max):
        rng = np.random.default_rng(seed)
        ds, cands = small_instance(rng, n_patterns=5, m=3)
        return SearchProblem(ds, random_scores(rng, ds), cands, random_weights(rng),
                             SearchConfig(L_max=L_max))

    def take_all(self, problem, frontier, incumbent):
        pruned: Counter[str] = Counter()
        taken = []
        while (t := frontier.take(problem, incumbent, pruned)) is not None:
            taken.append(t)
        return taken, pruned

    def test_children_come_from_the_end_and_match_apply(self):
        for seed in range(4):
            problem = self.problem(200 + seed, 2)
            state = problem.initial_state()
            codes, his, los, halves = problem.ordered_actions(state)
            taken, pruned = self.take_all(problem, Frontier(state, codes, his, los, halves), -math.inf)
            assert not pruned and len(taken) == len(codes)
            for k, (child, bound) in zip(range(len(codes) - 1, -1, -1), taken):
                want = problem.apply(state, int(codes[k]))
                assert same_state(child, want)
                assert bound == his[k]
            # by_code takes the same children in ascending code order
            taken, _ = self.take_all(problem, Frontier.by_code(state, codes, his, los, halves), -math.inf)
            for code, (child, _) in zip(sorted(codes.tolist()), taken):
                assert same_state(child, problem.apply(state, code))

    def test_child_whose_hi_cannot_beat_the_incumbent_is_never_built(self, monkeypatch):
        apply = SearchProblem.apply
        built = []

        def counted_apply(problem, state, action):
            built.append(action)
            return apply(problem, state, action)

        monkeypatch.setattr(SearchProblem, "apply", counted_apply)
        for seed in range(4):
            problem = self.problem(210 + seed, 2)
            state = problem.initial_state()
            codes, his, los, halves = problem.ordered_actions(state)
            incumbent = float(np.median(his))
            built.clear()
            _, pruned = self.take_all(problem, Frontier(state, codes, his, los, halves), incumbent)
            assert sorted(built) == sorted(codes[his > incumbent].tolist())
            assert pruned["hi"] == np.count_nonzero(his <= incumbent) > 0

    def test_closing_child_carries_its_exact_state_bound(self):
        for seed in range(4):
            problem = self.problem(220 + seed, 1)
            state = problem.initial_state()
            codes, *_ = problem.ordered_actions(state)
            state = problem.apply(state, int(codes[codes >= 0][-1]))
            codes, his, los, halves = problem.ordered_actions(state)
            assert np.all(codes < 0)
            taken, _ = self.take_all(problem, Frontier(state, codes, his, los, halves), -math.inf)
            exact = [problem.state_bound(problem.apply(state, c)) for c in codes.tolist()]
            assert [bound for _, bound in taken] == exact[::-1]
            # a closing child's hi is its objective, which cannot beat itself
            taken, pruned = self.take_all(problem, Frontier(state, codes, his, los, halves), max(exact))
            assert not taken and pruned == Counter(hi=len(codes))

    def test_reason_counts_add_up_to_the_skips(self):
        for seed in range(6):
            problem = self.problem(230 + seed, 2)
            state = problem.initial_state()
            codes, his, los, halves = problem.ordered_actions(state)
            closed = [problem.state_bound(problem.apply(state, c))
                      for c in codes[codes < 0].tolist()]
            for incumbent in (float(np.median(his)), max(closed), -math.inf):
                taken, pruned = self.take_all(problem, Frontier(state, codes, his, los, halves), incumbent)
                assert set(pruned) <= {"hi"}
                assert len(taken) + pruned.total() == len(codes)
                assert pruned["hi"] == np.count_nonzero(his <= incumbent)
                # the closing children skipped are those whose list cannot
                # beat the incumbent
                assert (np.count_nonzero(his[codes < 0] <= incumbent)
                        == sum(obj <= incumbent for obj in closed))

    def window_instances(self):
        """(kind, problem) pairs: random scores; small integer scores and
        costs, whose keys tie across window edges; and scores near float32's
        largest, some of whose pattern sums lie beyond float32's range."""
        for seed in range(4):
            yield "random", self.problem(250 + seed, 3)
        for seed in range(3):
            rng, ds, cands, _ = shared_instance(300, 40, 350 + seed)
            scores = DRScoreMatrix(rng.integers(0, 3, size=(ds.n_subjects, 2)).astype(float),
                                   ds.treatment_names)
            yield "tied", SearchProblem(ds, scores, cands, ObjectiveWeights(), SearchConfig(L_max=3))
        for seed in range(3):
            rng, ds, cands, scores = shared_instance(300, 40, 360 + seed)
            # three huge arm-1 values make arm 1 the best default, so the
            # key of a pattern covering two of them is the difference of two
            # sums beyond float32's largest
            huge = rng.choice(ds.n_subjects, size=5, replace=False)
            scores.scores[huge[:3], 1] = 3e38
            scores.scores[huge[3:], 0] = 3e38
            yield "huge", SearchProblem(ds, scores, cands, ObjectiveWeights(),
                                        SearchConfig(L_max=3))

    @pytest.mark.parametrize("window", [1, 2, 5, 9, 17])
    def test_windowed_frontier_takes_what_a_whole_one_does(self, monkeypatch, window):
        # ordered_actions asked for a window returns the tail of the whole
        # order, bit for bit, for every window, also across tied keys and
        # keys from sums beyond float32's range, all of them finite; a
        # windowed frontier orders the state's children again once it has
        # taken its window, and yields the same children with the same
        # bounds, and skips the same, as the whole order; the child's order
        # comes from the sums its parent keeps, both times
        monkeypatch.setattr(search, "WINDOW", window)
        cut, tied_edges, huge_sums = Counter(), 0, 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for kind, problem in self.window_instances():
                root = problem.initial_state()
                codes, *_ = problem.ordered_actions(root)
                for state in (root, problem.apply(root, int(codes[codes >= 0][-1]))):
                    children = codes, his, los, halves = problem.ordered_actions(state)
                    rules = np.count_nonzero(codes >= 0)
                    assert_finite_children(problem, state, children)
                    keys = per_pattern_actions(problem, state, state.sums)[2]
                    huge_sums += np.count_nonzero(np.abs(state.sums[2:]) > np.finfo(np.float32).max)
                    for k in range(1, len(codes) + 2):
                        for kept, whole in zip(problem.ordered_actions(state, k), children):
                            assert kept.tobytes() == whole[-k:].tobytes()
                        r = k - problem.m  # rules in the window
                        if kind == "tied" and 0 < r < rules:
                            tied_edges += keys[rules - r - 1] == keys[rules - r]
                    cut[kind] += len(codes) > window
                    for incumbent in (-math.inf, float(np.median(his)), float(his.max())):
                        whole, skipped = self.take_all(
                            problem, Frontier(state, codes, his, los, halves), incumbent)
                        # the window, behind the sign of earlier children
                        frontier = Frontier.windowed(problem, state)
                        assert frontier.earlier == (len(codes) > window)
                        for kept, whole_array in zip((frontier.codes, frontier.his, frontier.los,
                                                      frontier.halves), children):
                            assert kept.tobytes() == whole_array[-window - 1:].tobytes()
                        taken, pruned = self.take_all(problem, frontier, incumbent)
                        assert pruned == skipped
                        assert len(taken) == len(whole)
                        for (child, bound), (want, want_bound) in zip(taken, whole):
                            assert same_state(child, want)
                            assert bound.hex() == want_bound.hex()
        # a random instance has at most 5 + 3 children
        assert cut["tied"] and cut["huge"] and (cut["random"] or window > 5)
        assert tied_edges > 0 and huge_sums > 0


def one_arm_objective(problem, closed):
    """A closed list's objective summed as one arm's np.compress, in Python
    floats: each closing child's hi must equal it bit for bit."""
    lam2 = problem.weights.lambda2
    uncovered = ~covered(closed, problem.n)
    total = (closed.incurred_value - lam2 * closed.incurred_assess
             + float(np.compress(uncovered, problem.value_cols[closed.default_treatment]).sum())
             - lam2 * problem.default_assessment(closed) * np.count_nonzero(uncovered))
    return total / problem.n


class TestClosingChildren:
    @pytest.mark.parametrize("L_max", [0, 1, 2, 3])
    def test_full_prefix_yields_each_default_with_its_exact_objective(self, L_max):
        # a full prefix's frontier yields its closing children, the last arm
        # first, each with its exact objective bit for bit, and skips those
        # that cannot beat the incumbent; at L_max 0 the root is full
        rng = np.random.default_rng(240 + L_max)
        for trial in range(8):
            m, full = 2 + trial % 2, trial // 2 % 2 == 1
            ds, cands = small_instance(rng, m=m)
            scores, w = random_scores(rng, ds), random_weights(rng)
            problem = SearchProblem(ds, scores, cands, w,
                                    SearchConfig(L_max=L_max, charge_default_full=full))
            state = problem.initial_state()
            while state.depth < L_max:
                codes, *_ = problem.ordered_actions(state)
                rules = codes[codes >= 0]
                if not len(rules):
                    break
                state = problem.apply(state, int(rng.choice(rules)))
            full_prefix = SearchProblem(ds, scores, cands, w,
                                        SearchConfig(L_max=state.depth, charge_default_full=full))
            codes, his, los, halves = full_prefix.ordered_actions(state)
            assert codes.tolist() == list(range(-m, 0))
            # a closing child's lo is its exact objective, with no half-width
            assert los.tobytes() == his.tobytes() and not halves.any()
            closed = [problem.apply(state, d - m) for d in reversed(range(m))]
            exact = [problem.state_bound(child) for child in closed]
            assert exact == [one_arm_objective(problem, child) for child in closed]
            for child, obj in zip(closed, exact):
                assert obj == pytest.approx(oracle_objective(
                    ds, problem.decision_list(child), scores, w, charge_default_full=full),
                    abs=1e-9)
            for incumbent in (-math.inf, min(exact), float(np.median(exact)), max(exact),
                              max(exact) + 1.0):
                pruned: Counter[str] = Counter()
                frontier = Frontier(state, codes, his, los, halves)
                taken = []
                while (t := frontier.take(problem, incumbent, pruned)) is not None:
                    taken.append(t)
                want = [(child, obj) for child, obj in zip(closed, exact) if obj > incumbent]
                assert len(taken) == len(want)
                for (child, bound), (want_child, obj) in zip(taken, want):
                    assert same_state(child, want_child)
                    assert bound.hex() == obj.hex()
                assert set(pruned) <= {"hi"}
                assert pruned["hi"] == np.count_nonzero(np.array(exact) <= incumbent)


def uct_run(ds, scores, cands, w, config):
    """What uct_search returns that the window must not change: the list,
    the objective's bits, the counts and the log."""
    res = uct_search(ds, scores, cands, w, config)
    return res.decision_list, res.objective.hex(), res.n_pruned, res.tree_size, res.log


class TestWindow:
    def runs(self, monkeypatch, ds, scores, cands, w, config):
        """uct_run and its number of ordered_actions calls per WINDOW: 1, 2,
        5, then one that holds every child of any node."""
        ordered_actions, calls = SearchProblem.ordered_actions, Counter()

        def counted(problem, state, window=None):
            calls[search.WINDOW] += 1
            return ordered_actions(problem, state, window)

        monkeypatch.setattr(SearchProblem, "ordered_actions", counted)
        runs = {}
        for window in (1, 2, 5, len(cands.patterns) + ds.n_treatments):
            monkeypatch.setattr(search, "WINDOW", window)
            runs[window] = uct_run(ds, scores, cands, w, config)
        return runs, calls

    def test_window_keeps_the_search_on_random_instances(self, monkeypatch):
        # a narrow window makes nodes order their children again, which must
        # not change which child comes next, so the whole search repeats
        rng = np.random.default_rng(260)
        refills = Counter()
        for trial in range(60):
            m, L_max, full = 2 + trial % 3, 1 + trial // 3 % 3, trial // 9 % 2 == 1
            ds, cands = small_instance(rng, n_patterns=int(rng.integers(3, 9)), m=m)
            scores, w = random_scores(rng, ds), random_weights(rng)
            config = SearchConfig(iterations=300, L_max=L_max, charge_default_full=full)
            runs, calls = self.runs(monkeypatch, ds, scores, cands, w, config)
            *narrow, whole = runs
            for window in narrow:
                assert runs[window] == runs[whole]
                refills[window] += calls[window] - calls[whole]
        assert min(refills[window] for window in (1, 2, 5)) > 0

    def test_window_keeps_the_search_on_generated_data(self, monkeypatch):
        ds, _ = generate(default_generator_spec(n_subjects=2000, seed=0))
        scores = compute_dr_scores(ds, fit_propensity(ds), fit_outcome(ds))
        cands = mine_patterns(ds, MiningConfig(min_support=0.05, max_predicates=2))
        assert len(cands.patterns) > 5 * search.WINDOW
        runs, calls = self.runs(monkeypatch, ds, scores, cands, ObjectiveWeights(),
                                SearchConfig(iterations=300, L_max=3))
        *narrow, whole = runs
        for window in narrow:
            assert runs[window] == runs[whole]
            assert calls[window] > calls[whole]


class TestFullPrefix:
    def scored(self, monkeypatch, ds, scores, cands, w, config, confirm_all=False):
        """Each full prefix UCT takes, in order: its parent's state, its
        code, its lo and half-width, the incumbent it was taken against,
        and the exact objective of the list close makes of it if UCT built
        it, else None.  Checks that no node holds a full prefix, no frontier
        orders its children, and that the root's total reward sums every
        taken child's reward: a closed list's hi, an interior prefix's exact
        closed objective, and a full prefix's lo, or its exact objective
        where lo is inf.  With confirm_all every full prefix is built."""
        next_index, state_bound = Frontier.next_index, SearchProblem.state_bound
        ordered_actions = SearchProblem.ordered_actions
        taken, nodes = [], []

        def recording_next_index(frontier, problem, incumbent, pruned):
            k = next_index(frontier, problem, incumbent, pruned)
            if k is not None:
                taken.append({"parent": frontier.state, "code": int(frontier.codes[k]),
                              "hi": float(frontier.his[k]), "lo": float(frontier.los[k]),
                              "half": float(frontier.halves[k]), "incumbent": incumbent,
                              "exact": None})
            return k

        def recording_state_bound(problem, state):
            taken[-1]["exact"] = state_bound(problem, state)
            return taken[-1]["exact"]

        def checking_ordered_actions(problem, state, window=None):
            assert state.depth < problem.L_max
            codes, his, los, halves = ordered_actions(problem, state, window)
            if confirm_all:
                halves = np.full_like(halves, np.inf)
            return codes, his, los, halves

        class RecordingNode(search.SearchNode):
            def __init__(self, state, bound):
                super().__init__(state, bound)
                nodes.append(self)

        with monkeypatch.context() as mp:
            mp.setattr(Frontier, "next_index", recording_next_index)
            mp.setattr(SearchProblem, "state_bound", recording_state_bound)
            mp.setattr(SearchProblem, "ordered_actions", checking_ordered_actions)
            mp.setattr(search, "SearchNode", RecordingNode)
            res = uct_search(ds, scores, cands, w, config)
        assert all(node.state.depth < config.L_max for node in nodes)
        full = []
        total = 0.0
        for child in taken:
            if child["code"] < 0:
                total += child["hi"]
            elif child["parent"].depth + 1 < config.L_max:
                total += child["exact"]
            else:
                full.append(child)
                total += child["lo"] if child["lo"] < math.inf else child["exact"]
        assert nodes[0].total_reward == total
        built = sum(child["exact"] is not None for child in full)
        assert (res.leaves_confirmed, res.leaves_from_lo) == (built, len(full) - built)
        return full

    def check(self, monkeypatch, ds, scores, cands, w, config):
        """Every full prefix's lo lies within its half-width of the best of
        its closing children's objectives, each scored from scratch by
        another problem.  UCT builds a full prefix exactly when lo + s can
        beat the incumbent or lo is inf, and then that best is its exact
        objective; one it leaves unbuilt could not have beaten the
        incumbent.  Checked as UCT runs, and with every full prefix built;
        returns the largest two objectives of each full prefix, and how many
        were left unbuilt."""
        problem = SearchProblem(ds, scores, cands, w, config)
        tops, unbuilt = [], 0
        for confirm_all in (False, True):
            for child in self.scored(monkeypatch, ds, scores, cands, w, config, confirm_all):
                state = problem.apply(child["parent"], child["code"])
                exact = [problem.state_bound(problem.apply(state, d - problem.m))
                         for d in range(problem.m)]
                lo, half, best = child["lo"], child["half"], max(exact)
                assert lo == math.inf or lo - half <= best <= lo + half
                if child["exact"] is None:
                    assert lo + half <= child["incumbent"] and best <= child["incumbent"]
                    unbuilt += 1
                else:
                    assert confirm_all or not lo + half <= child["incumbent"]
                    assert child["exact"] == best
                tops.append(sorted(exact)[-2:])
        return tops, unbuilt

    def test_reward_is_the_best_closing_objective(self, monkeypatch):
        rng = np.random.default_rng(270)
        n_full = n_unbuilt = 0
        for trial in range(24):
            m, L_max, full = 2 + trial % 3, 1 + trial // 3 % 3, trial // 9 % 2 == 1
            ds, cands = small_instance(rng, n_patterns=int(rng.integers(3, 9)), m=m)
            tops, unbuilt = self.check(
                monkeypatch, ds, random_scores(rng, ds), cands, random_weights(rng),
                SearchConfig(iterations=300, L_max=L_max, charge_default_full=full))
            n_full += len(tops) - unbuilt
            n_unbuilt += unbuilt
        assert n_full > 100 and n_unbuilt > 100

    def test_reward_of_an_exact_tie_between_arms(self, monkeypatch):
        # arms 1 and 2 have identical scores and costs, so the closing
        # children of arms 1 and 2 tie exactly, and where they beat arm 0,
        # close picks arm 1, whose objective a built full prefix's is
        rng = np.random.default_rng(271)
        ds, cands = small_instance(rng, n_patterns=8, m=3)
        ds = dataclasses.replace(ds, treatment_costs=np.full(3, 4.0))
        base = rng.normal(0, 10, size=(ds.n_subjects, 2))
        scores = DRScoreMatrix(base[:, [0, 1, 1]], ds.treatment_names)
        tied = 0
        for full in (False, True):
            # a small lambda2 keeps assessment charges from pruning every rule
            tops, _ = self.check(monkeypatch, ds, scores, cands, ObjectiveWeights(lambda2=0.1),
                                 SearchConfig(iterations=300, L_max=2, charge_default_full=full))
            tied += sum(a == b for a, b in tops)
        assert tied > 0

    def test_reward_at_scores_near_a_million(self, monkeypatch):
        rng = np.random.default_rng(62)
        ds = random_dataset(rng, n_subjects=3000, n_features=5, m=3)
        cands = mine_patterns(ds, MiningConfig(min_support=0.05, max_predicates=2))
        scores = DRScoreMatrix(
            scores=rng.normal(1e6, 3e5, size=(ds.n_subjects, ds.n_treatments)),
            treatment_names=ds.treatment_names)
        w = random_weights(rng)
        for full in (False, True):
            tops, _ = self.check(monkeypatch, ds, scores, cands, w,
                                 SearchConfig(iterations=200, L_max=2, charge_default_full=full))
            assert tops

    def test_confirming_every_leaf_changes_nothing(self, monkeypatch):
        # which full prefixes are built and scored exactly decides only
        # whether one may set the incumbent, and one left unbuilt cannot
        # beat it: building them all returns the same list, objective bits,
        # counts and log, on random and on criterion 3's instances
        from test_acceptance import build_oracle_instances

        rng = np.random.default_rng(272)
        cases = []
        for trial in range(36):
            m, L_max, full = 2 + trial % 3, 1 + trial // 3 % 3, trial // 9 % 2 == 1
            ds, cands = small_instance(rng, n_patterns=int(rng.integers(3, 9)), m=m)
            cases.append((ds, random_scores(rng, ds), cands, random_weights(rng),
                          SearchConfig(iterations=300, L_max=L_max, charge_default_full=full)))
        for inst in build_oracle_instances():
            cases.append((inst["ds"], inst["scores"], inst["cands"], inst["weights"],
                          SearchConfig(iterations=10000, L_max=inst["L_max"])))
        from_lo = 0
        for case in cases:
            res = uct_search(*case)
            from_lo += res.leaves_from_lo
            with monkeypatch.context() as mp:
                confirm_every_leaf(mp)
                confirmed = uct_search(*case)
            assert confirmed.leaves_from_lo == 0
            assert confirmed.leaves_confirmed == res.leaves_confirmed + res.leaves_from_lo
            assert ((res.decision_list, res.objective.hex(), res.n_pruned, res.tree_size, res.log)
                    == (confirmed.decision_list, confirmed.objective.hex(), confirmed.n_pruned,
                        confirmed.tree_size, confirmed.log))
        assert from_lo > 100

    def test_state_dies_once_scored(self, monkeypatch):
        # UCT scores a full prefix it builds by closing it and keeps no node
        # of it, so whenever a later node orders its children, no full
        # prefix's state of the search is alive; every full prefix is built
        rng = np.random.default_rng(73)
        ds = random_dataset(rng, n_subjects=2000, n_features=6, m=2)
        cands = mine_patterns(ds, MiningConfig(min_support=0.05, max_predicates=2))
        scores = random_scores(rng, ds)
        confirm_every_leaf(monkeypatch)
        close, initial_state = SearchProblem.close, SearchProblem.initial_state
        ordered_actions = SearchProblem.ordered_actions
        roots, scored, alive = [], [], []

        def root_of(state):
            while state.parent is not None:
                state = state.parent
            return state

        def recording_initial_state(problem):
            roots.append(initial_state(problem))
            return roots[-1]

        def recording_close(problem, state):
            if state.depth == 3:
                scored.append(state.prefix)
            return close(problem, state)

        def checking_ordered_actions(problem, state, window=None):
            if scored and len(alive) < 40:
                alive.append(sum(isinstance(o, SearchState) and o.depth == problem.L_max
                                 and not o.terminal and root_of(o) is roots[-1]
                                 for o in gc.get_objects()))
            return ordered_actions(problem, state, window)

        monkeypatch.setattr(SearchProblem, "initial_state", recording_initial_state)
        monkeypatch.setattr(SearchProblem, "close", recording_close)
        monkeypatch.setattr(SearchProblem, "ordered_actions", checking_ordered_actions)
        uct_search(ds, scores, cands, ObjectiveWeights(),
                   SearchConfig(iterations=300, L_max=3))
        assert len(scored) > 100 and len(alive) >= 10
        assert not any(alive)


class TestConfigValidation:
    def test_bad_values_rejected(self):
        with pytest.raises(ValidationError):
            SearchConfig(iterations=0)
        for bad in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ValidationError):
                SearchConfig(c_explore=bad)

    def test_round_trip(self):
        cfg = SearchConfig(iterations=123, L_max=2, seed=7, c_explore=2.5)
        assert SearchConfig.from_dict(cfg.to_dict()) == cfg

    def test_from_dict_checks_keys_and_types(self):
        cfg = SearchConfig.from_dict({"c_explore": 2, "iterations": 5})
        assert cfg.c_explore == 2.0 and isinstance(cfg.c_explore, float)
        assert cfg.iterations == 5
        for bad in ({"iteratons": 5}, {"iterations": "5"}, {"iterations": 5.0},
                    {"iterations": True}, {"charge_default_full": 1},
                    {"n_trees": 2}, {"debug_checks": True}, {"widen_c": 2.0},
                    {"min_new_coverage": 0.01}):
            with pytest.raises(ValidationError):
                SearchConfig.from_dict(bad)
