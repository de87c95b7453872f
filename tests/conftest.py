"""Shared test helpers: random instance generators and brute-force oracles.

The oracles here are written independently of the library internals: plain
Python loops over rows, no vectorized shortcuts, so that agreement is
evidence rather than tautology.
"""
from __future__ import annotations

import itertools
import math
from typing import Iterable, Sequence

import numpy as np

from regimelist.domain import (
    BINARY,
    CATEGORICAL,
    REAL,
    CharacteristicSpec,
    Dataset,
    DecisionList,
    Pattern,
    Predicate,
)
from regimelist.errors import ValidationError
from regimelist.estimation import DRScoreMatrix, FeatureEncoder
from regimelist.objective import ObjectiveWeights, check_scores
from regimelist.search import SearchProblem, SearchState
from regimelist.synth import GeneratorSpec


# ---------------------------------------------------------------------------
# row-wise datasets


def dataset_from_rows(
    specs: Sequence[CharacteristicSpec],
    treatment_names: Sequence[str],
    treatment_costs: Sequence[float],
    rows: Iterable[tuple[Sequence, str, float]],
) -> Dataset:
    """A dataset from (values, treatment, outcome) rows, transposed into the
    columns that ``Dataset.from_columns`` checks."""
    rows = list(rows)
    for r, (values, _, _) in enumerate(rows):
        assert len(values) == len(specs), f"row {r} has {len(values)} values"
    values, treatments, outcomes = zip(*rows) if rows else ((), (), ())
    cells = list(zip(*values)) if values else [()] * len(specs)
    return Dataset.from_columns(specs, treatment_names, treatment_costs,
                                cells, treatments, outcomes)


def dataset_row(ds: Dataset, i: int) -> tuple:
    """Raw values of subject i (floats for real, level strings otherwise)."""
    return tuple(float(col[i]) if spec.kind == REAL else spec.levels[int(col[i])]
                 for spec, col in zip(ds.specs, ds.columns))


def n_features(ds: Dataset) -> int:
    """The number of characteristics each subject has."""
    return len(ds.specs)


# ---------------------------------------------------------------------------
# random instances


def random_specs(rng: np.random.Generator, n_features: int) -> tuple[CharacteristicSpec, ...]:
    specs = []
    for f in range(n_features):
        kind = (BINARY, CATEGORICAL, REAL)[int(rng.integers(3))]
        cost = float(int(rng.integers(1, 7)))
        if kind == BINARY:
            specs.append(CharacteristicSpec(f"b{f}", BINARY, cost, ("no", "yes")))
        elif kind == CATEGORICAL:
            k = int(rng.integers(3, 5))
            levels = tuple(f"v{j}" for j in range(k))
            specs.append(CharacteristicSpec(f"c{f}", CATEGORICAL, cost, levels))
        else:
            specs.append(CharacteristicSpec(f"r{f}", REAL, cost))
    return tuple(specs)


def random_dataset(
    rng: np.random.Generator,
    n_subjects: int = 40,
    n_features: int = 5,
    m: int = 3,
    specs: tuple[CharacteristicSpec, ...] | None = None,
) -> Dataset:
    if specs is None:
        specs = random_specs(rng, n_features)
    treatment_names = tuple(f"t{a}" for a in range(m))
    treatment_costs = [float(int(rng.integers(0, 20))) for _ in range(m)]
    rows = []
    for _ in range(n_subjects):
        values = []
        for spec in specs:
            if spec.kind == REAL:
                values.append(float(np.round(rng.normal(0, 2), 3)))
            else:
                values.append(spec.levels[int(rng.integers(len(spec.levels)))])
        a = treatment_names[int(rng.integers(m))]
        y = float(np.round(rng.normal(50, 20), 3))
        rows.append((values, a, y))
    return dataset_from_rows(specs, treatment_names, treatment_costs, rows)


def random_pattern(rng: np.random.Generator, ds: Dataset, max_preds: int = 2) -> Pattern:
    n_preds = int(rng.integers(1, max_preds + 1))
    feats = rng.choice(n_features(ds), size=min(n_preds, n_features(ds)), replace=False)
    preds = []
    for f in sorted(int(x) for x in feats):
        spec = ds.specs[f]
        if spec.kind == REAL:
            t = float(np.round(rng.normal(0, 2), 3))
            op = (">=", "<")[int(rng.integers(2))]
            preds.append(Predicate(f, op, t))
        else:
            level = spec.levels[int(rng.integers(len(spec.levels)))]
            op = ("=", "!=")[int(rng.integers(2))]
            preds.append(Predicate(f, op, level))
    return Pattern(tuple(preds))


def random_decision_list(rng: np.random.Generator, ds: Dataset, max_rules: int = 5) -> DecisionList:
    L = int(rng.integers(0, max_rules + 1))
    rules = tuple(
        (random_pattern(rng, ds), int(rng.integers(ds.n_treatments))) for _ in range(L)
    )
    return DecisionList(rules=rules, default_treatment=int(rng.integers(ds.n_treatments)))


def random_scores(rng: np.random.Generator, ds: Dataset) -> DRScoreMatrix:
    mat = rng.normal(50, 30, size=(ds.n_subjects, ds.n_treatments))
    return DRScoreMatrix(scores=mat, treatment_names=ds.treatment_names)


def random_weights(rng: np.random.Generator) -> ObjectiveWeights:
    return ObjectiveWeights(
        lambda1=float(np.round(rng.uniform(0.1, 2.0), 3)),
        lambda2=float(np.round(rng.uniform(0.0, 2.0), 3)),
        lambda3=float(np.round(rng.uniform(0.0, 2.0), 3)),
    )


def largest_accepted_lambda1(ds: Dataset, scores: DRScoreMatrix) -> float:
    """The largest power of two that check_scores accepts as lambda1, with
    unit lambda2 and lambda3: the edge of its headroom."""
    for k in range(1023, -1075, -1):
        try:
            check_scores(ds, scores, ObjectiveWeights(lambda1=2.0 ** k))
        except ValidationError:
            continue
        return 2.0 ** k
    raise AssertionError("check_scores accepts no lambda1")


# ---------------------------------------------------------------------------
# brute-force oracles (plain Python, row by row)


def oracle_predicate_holds(pred: Predicate, x: tuple, specs) -> bool:
    v = x[pred.feature]
    spec = specs[pred.feature]
    if spec.kind == REAL:
        t = float(pred.value)
        return {
            "=": v == t,
            "!=": v != t,
            "<": v < t,
            "<=": v <= t,
            ">": v > t,
            ">=": v >= t,
        }[pred.op]
    if pred.op == "=":
        return v == pred.value
    return v != pred.value


def oracle_pattern_holds(pattern: Pattern, x: tuple, specs) -> bool:
    return all(oracle_predicate_holds(p, x, specs) for p in pattern.predicates)


def oracle_group(dl: DecisionList, x: tuple, specs) -> int:
    """First matching rule index of subject vector x, len(rules) for the default."""
    for j, (pattern, _) in enumerate(dl.rules):
        if oracle_pattern_holds(pattern, x, specs):
            return j
    return len(dl.rules)


def oracle_treatment(dl: DecisionList, x: tuple, specs) -> int:
    g = oracle_group(dl, x, specs)
    return dl.rules[g][1] if g < len(dl.rules) else dl.default_treatment


def oracle_groups(ds: Dataset, dl: DecisionList) -> list[int]:
    """First matching rule index per subject, len(rules) for the default."""
    return [oracle_group(dl, dataset_row(ds, i), ds.specs) for i in range(ds.n_subjects)]


def oracle_assigned(ds: Dataset, dl: DecisionList) -> list[int]:
    groups = oracle_groups(ds, dl)
    return [
        dl.rules[g][1] if g < len(dl.rules) else dl.default_treatment for g in groups
    ]


def oracle_assessment_costs(
    ds: Dataset, dl: DecisionList, charge_default_full: bool = False
) -> list[float]:
    """Group j pays once for each distinct characteristic in patterns 1..j."""
    groups = oracle_groups(ds, dl)
    out = []
    for g in groups:
        if g == len(dl.rules):
            if charge_default_full and dl.rules:
                billed = set()
                for pattern, _ in dl.rules:
                    for p in pattern.predicates:
                        billed.add(p.feature)
                out.append(sum(ds.specs[f].cost for f in billed))
            else:
                out.append(0.0)
            continue
        billed = set()
        for pattern, _ in dl.rules[: g + 1]:
            for p in pattern.predicates:
                billed.add(p.feature)
        out.append(sum(ds.specs[f].cost for f in billed))
    return out


def oracle_objective(
    ds: Dataset,
    dl: DecisionList,
    scores: DRScoreMatrix,
    weights: ObjectiveWeights,
    charge_default_full: bool = False,
) -> float:
    assigned = oracle_assigned(ds, dl)
    assess = oracle_assessment_costs(ds, dl, charge_default_full)
    n = ds.n_subjects
    g1 = sum(scores.scores[i][assigned[i]] for i in range(n)) / n
    g2 = sum(assess) / n
    g3 = sum(float(ds.treatment_costs[assigned[i]]) for i in range(n)) / n
    return weights.lambda1 * g1 - weights.lambda2 * g2 - weights.lambda3 * g3


def oracle_open_bound(problem: SearchProblem, state, scores: DRScoreMatrix) -> float:
    """Upper bound on the objective of every list completing an open prefix.

    A subject a rule of the prefix covers is settled: its arm's score and
    treatment cost, and the characteristics of the rules up to that one.  An
    uncovered subject gets its best score minus the cheapest treatment, and
    pays the prefix's characteristics when charge_default_full is on.
    """
    ds, w = problem.ds, problem.weights
    rules = [(problem.patterns[p], t) for p, t in state.prefix]
    every = {pred.feature for pattern, _ in rules for pred in pattern.predicates}
    total = 0.0
    for i in range(ds.n_subjects):
        x = dataset_row(ds, i)
        billed: set[int] = set()
        for pattern, t in rules:
            billed |= {pred.feature for pred in pattern.predicates}
            if oracle_pattern_holds(pattern, x, ds.specs):
                total += (w.lambda1 * scores.scores[i][t]
                          - w.lambda3 * float(ds.treatment_costs[t])
                          - w.lambda2 * sum(ds.specs[f].cost for f in billed))
                break
        else:
            charge = (sum(ds.specs[f].cost for f in every)
                      if problem.charge_default_full and rules else 0.0)
            total += (w.lambda1 * max(scores.scores[i])
                      - w.lambda3 * float(min(ds.treatment_costs))
                      - w.lambda2 * charge)
    return total / ds.n_subjects


def oracle_cover_matrix(problem: SearchProblem) -> np.ndarray:
    """Subject by pattern: whether each pattern holds, row by row."""
    ds = problem.ds
    rows = [dataset_row(ds, i) for i in range(ds.n_subjects)]
    return np.array([[oracle_pattern_holds(pattern, x, ds.specs)
                      for pattern in problem.patterns] for x in rows], dtype=bool)


def oracle_open_bounds(problem: SearchProblem, state, scores: DRScoreMatrix,
                       covers: np.ndarray, children) -> np.ndarray:
    """oracle_open_bound of the prefix plus each rule (p, t) in children, in
    float64 array sums over the cover matrix instead of row by row."""
    ds, w = problem.ds, problem.weights
    values = np.asarray(scores.scores, dtype=np.float64)
    costs = np.asarray(ds.treatment_costs, dtype=np.float64)

    def features(p: int) -> set[int]:
        return {pred.feature for pred in problem.patterns[p].predicates}

    def charge(billed: set[int]) -> float:
        return sum(ds.specs[f].cost for f in billed)

    uncovered = np.ones(ds.n_subjects, dtype=bool)
    settled, billed = 0.0, set()
    for p, t in state.prefix:
        billed |= features(p)
        newly = uncovered & covers[:, p]
        settled += np.sum(w.lambda1 * values[newly, t] - w.lambda3 * costs[t]
                          - w.lambda2 * charge(billed))
        uncovered &= ~covers[:, p]
    optimistic = w.lambda1 * values.max(axis=1) - w.lambda3 * costs.min()
    bounds = []
    for p, t in children:
        child_billed = billed | features(p)
        newly = uncovered & covers[:, p]
        rest = uncovered & ~covers[:, p]
        default_charge = charge(child_billed) if problem.charge_default_full else 0.0
        bounds.append(settled
                      + np.sum(w.lambda1 * values[newly, t] - w.lambda3 * costs[t]
                               - w.lambda2 * charge(child_billed))
                      + np.sum(optimistic[rest] - w.lambda2 * default_charge))
    return np.array(bounds) / ds.n_subjects


def oracle_quantile_thresholds(values, num_bins: int) -> list[float]:
    """Sort-and-interpolate quantile cuts, strictly inside (min, max), deduped."""
    xs = sorted(float(v) for v in values)
    n = len(xs)
    cuts = []
    for k in range(1, num_bins):
        q = k / num_bins
        pos = q * (n - 1)
        lo = math.floor(pos)
        hi = math.ceil(pos)
        frac = pos - lo
        cuts.append(xs[lo] * (1 - frac) + xs[hi] * frac)
    out: list[float] = []
    for t in cuts:
        if xs[0] < t < xs[-1] and (not out or t != out[-1]):
            out.append(t)
    return out


# ---------------------------------------------------------------------------
# estimation on the whole (N, d + 1) design, which the library streams in blocks


def design_matrix(ds: Dataset, encoder: FeatureEncoder | None = None) -> np.ndarray:
    """The whole design of encoder (fit on ds when None): its encoded
    columns built one at a time from the dataset's columns, then an
    intercept of ones."""
    if encoder is None:
        encoder = FeatureEncoder.fit(ds)
    columns = [(ds.columns[col.feature] - encoder.means[j]) / encoder.scales[j]
               if col.level is None else (ds.columns[col.feature] == col.level).astype(float)
               for j, col in enumerate(encoder.columns)]
    return np.column_stack(columns + [np.ones(ds.n_subjects)])


def softmax_objective(design: np.ndarray, codes: np.ndarray, weights: np.ndarray,
                      l2: float) -> tuple[float, np.ndarray, np.ndarray]:
    """The propensity objective, the mean log-likelihood minus
    (l2/2)·||weights||², its gradient and the softmax probabilities, (N, m),
    over whole N-row arrays, written out here rather than taken from the
    library."""
    n = len(design)
    onehot = np.eye(len(weights))[codes]
    logits = design @ weights.T
    top = logits.max(axis=1, keepdims=True)
    log_probs = logits - top - np.log(np.exp(logits - top).sum(axis=1, keepdims=True))
    probs = np.exp(log_probs)
    value = float((log_probs * onehot).sum()) / n - 0.5 * l2 * float((weights ** 2).sum())
    return value, (onehot - probs).T @ design / n - l2 * weights, probs


def oracle_newton_propensity(ds: Dataset, l2: float = 1e-4, grad_tol: float = 1e-6,
                             max_iters: int = 5000) -> tuple[np.ndarray, int]:
    """The weights ``fit_propensity``'s method reaches on the whole design,
    and its number of Newton steps.

    Each Hessian block (a, b) is one -(Xᵀ · p_a(δ_ab − p_b)) @ X / n product,
    minus l2 on the diagonal; each step is the minimum-norm solution of the
    negative Hessian system, halved from 1 until the Armijo test passes.
    """
    design = design_matrix(ds)
    n, width = design.shape
    m = ds.n_treatments
    weights = np.zeros((m, width))
    value, grad, probs = softmax_objective(design, ds.treatments, weights, l2)
    for it in range(max_iters + 1):
        if math.sqrt(float((grad * grad).sum())) <= grad_tol:
            return weights, it
        hessian = -l2 * np.eye(m * width)
        for a in range(m):
            for b in range(m):
                w = probs[:, a] * ((a == b) - probs[:, b])
                hessian[a * width:(a + 1) * width, b * width:(b + 1) * width] -= \
                    (design.T * w) @ design / n
        direction = np.linalg.lstsq(-hessian, grad.ravel(), rcond=None)[0].reshape(m, width)
        slope = float((grad * direction).sum())
        alpha = 1.0
        while softmax_objective(design, ds.treatments, weights + alpha * direction,
                                l2)[0] < value + 1e-4 * alpha * slope:
            alpha *= 0.5
            assert alpha >= 1e-18, "oracle line search stalled"
        weights = weights + alpha * direction
        value, grad, probs = softmax_objective(design, ds.treatments, weights, l2)
    raise AssertionError(f"oracle Newton fit did not converge in {max_iters} steps")


def oracle_outcome_coefs(ds: Dataset, ridge: float = 1e-6) -> np.ndarray:
    """Per arm, the ridge solution on the whole design's rows under that
    arm, by one dense solve; the intercept is not penalized."""
    design = design_matrix(ds)
    reg = ridge * np.eye(design.shape[1])
    reg[-1, -1] = 0.0
    coefs = []
    for a in range(ds.n_treatments):
        rows = ds.treatments == a
        coefs.append(np.linalg.solve(design[rows].T @ design[rows] + reg,
                                     design[rows].T @ ds.outcomes[rows]))
    return np.array(coefs)


def oracle_dr_scores(ds: Dataset, weights: np.ndarray, coefs: np.ndarray,
                     clip_epsilon: float) -> np.ndarray:
    """The doubly robust scores, (N, m), of the given model parameters: the
    whole design's predictions, and on each subject's observed arm the
    residual over its clipped softmax probability, subject by subject."""
    design = design_matrix(ds)
    _, _, probs = softmax_objective(design, ds.treatments, weights, 0.0)
    scores = design @ coefs.T
    for i, a in enumerate(ds.treatments.tolist()):
        scores[i, a] += (ds.outcomes[i] - scores[i, a]) / max(probs[i, a], clip_epsilon)
    return scores


# ---------------------------------------------------------------------------
# propensity fit (first order: gradient ascent, no Hessian)


def oracle_fit_propensity(ds: Dataset, l2: float = 1e-4, grad_tol: float = 1e-6,
                          max_iters: int = 20000) -> np.ndarray:
    """Raw softmax probabilities, (N, m), of the propensity objective's
    maximizer found by plain gradient ascent from zero weights.

    Backtracking line search (Armijo) with the accepted step carried across
    iterations; stops when the gradient Frobenius norm drops to grad_tol.
    The objective is ``softmax_objective``'s.
    """
    design = design_matrix(ds)

    def evaluate(weights):
        """Objective, its gradient and the softmax probabilities at weights."""
        return softmax_objective(design, ds.treatments, weights, l2)

    weights = np.zeros((ds.n_treatments, design.shape[1]))
    step = 1.0
    value, grad, _ = evaluate(weights)
    for _ in range(max_iters):
        g2 = float((grad * grad).sum())
        if math.sqrt(g2) <= grad_tol:
            break
        alpha = min(step * 2.0, 1e6)
        while True:
            candidate = weights + alpha * grad
            if evaluate(candidate)[0] >= value + 1e-4 * alpha * g2:
                break
            alpha *= 0.5
            assert alpha >= 1e-18, "oracle line search stalled"
        weights = candidate
        step = alpha
        value, grad, _ = evaluate(weights)
    else:
        raise AssertionError(f"oracle fit did not converge in {max_iters} iterations")
    return evaluate(weights)[2]


# ---------------------------------------------------------------------------
# population truth (plain Python, cell by cell)


def oracle_cells(gspec: GeneratorSpec, dl: DecisionList):
    """(point, probability) for each joint cell of nonzero probability.

    The cells are those of the features dl or the planted regime reads, in
    itertools.product order; a real feature splits at every threshold an
    ordering predicate of either list compares it with, and is represented
    by a point inside each interval.  Other features hold 0.0.
    """
    lists = (dl, gspec.planted_regime)
    preds = [p for source in lists for pat, _ in source.rules for p in pat.predicates]
    used = sorted({p.feature for p in preds})
    per_feature = []
    for f in used:
        spec, marg = gspec.specs[f], gspec.marginals[f]
        if spec.kind != REAL:
            per_feature.append(list(zip(spec.levels, marg.params)))
            continue
        ts = sorted({float(p.value) for p in preds
                     if p.feature == f and p.op in ("<", "<=", ">", ">=")})
        edges = [-math.inf, *ts, math.inf]
        cells = []
        for lo, hi in zip(edges[:-1], edges[1:]):
            if lo == -math.inf:
                point = hi - 1.0
            elif hi == math.inf:
                point = lo + 1.0
            else:
                point = (lo + hi) / 2.0
            p_lo = 0.0 if lo == -math.inf else marg.cdf(lo)
            p_hi = 1.0 if hi == math.inf else marg.cdf(hi)
            cells.append((point, p_hi - p_lo))
        per_feature.append(cells)
    for combo in itertools.product(*per_feature):
        x = [0.0] * len(gspec.specs)
        prob = 1.0
        for f, (point, p) in zip(used, combo):
            x[f] = point
            prob *= p
        if prob != 0.0:
            yield tuple(x), prob


def oracle_true_value(gspec: GeneratorSpec, dl: DecisionList) -> float:
    """Mismatched mean plus the gap times P(dl agrees with the planted map)."""
    agree = 0.0
    for x, prob in oracle_cells(gspec, dl):
        if oracle_treatment(dl, x, gspec.specs) == \
                oracle_treatment(gspec.planted_regime, x, gspec.specs):
            agree += prob
    return gspec.mismatched_mean + (gspec.matched_mean - gspec.mismatched_mean) * agree


def oracle_true_objective(gspec: GeneratorSpec, dl: DecisionList,
                          lambda1: float = 1.0, lambda2: float = 1.0,
                          lambda3: float = 1.0,
                          charge_default_full: bool = False) -> float:
    """lambda1 * E[outcome] - lambda2 * E[assessment] - lambda3 * E[treatment
    cost], each expectation accumulated cell by cell."""
    prefix_costs = []
    billed: set[int] = set()
    for pattern, _ in dl.rules:
        billed |= {p.feature for p in pattern.predicates}
        prefix_costs.append(sum(gspec.specs[f].cost for f in billed))
    default_cost = prefix_costs[-1] if prefix_costs and charge_default_full else 0.0
    value = assess = treat = 0.0
    for x, prob in oracle_cells(gspec, dl):
        g = oracle_group(dl, x, gspec.specs)
        chosen = oracle_treatment(dl, x, gspec.specs)
        matched = chosen == oracle_treatment(gspec.planted_regime, x, gspec.specs)
        value += prob * (gspec.matched_mean if matched else gspec.mismatched_mean)
        assess += prob * (prefix_costs[g] if g < len(dl.rules) else default_cost)
        treat += prob * gspec.treatment_costs[chosen]
    return lambda1 * value - lambda2 * assess - lambda3 * treat


# ---------------------------------------------------------------------------
# greedy search over every (pattern, treatment) rule, without pruning


def covered(state: SearchState, n: int) -> np.ndarray:
    """The subjects a state's prefix covers, the first n of its packed bits
    as bools: packbits pads the last byte with zeros."""
    return np.unpackbits(state.packed, count=n).view(bool)


def rule_child(problem: SearchProblem, state: SearchState, p: int, t: int) -> SearchState:
    """The prefix extended by the rule (p, t), whichever arm apply would give
    p: the covered set ORed with p's row, plus t's value and the extended
    prefix's assessment cost over the newly covered subjects, in apply's
    float64 arithmetic."""
    row = problem.row(p)
    newly = np.unpackbits(row & ~state.packed, count=problem.n).view(bool)
    features = state.features | problem.pattern_features[p]
    return SearchState(
        prefix=state.prefix + ((p, t),),
        packed=state.packed | row,
        features=features,
        incurred_assess=(state.incurred_assess
                         + problem.feature_cost(features) * np.count_nonzero(newly)),
        incurred_value=(state.incurred_value
                        + float(np.compress(newly, problem.value_cols[t]).sum())),
    )


def oracle_greedy(ds: Dataset, scores: DRScoreMatrix, cands, weights: ObjectiveWeights,
                  L_max: int) -> tuple[DecisionList, float]:
    """The greedy loop that scores every rule (p, t) on an unused pattern
    exactly, built by rule_child: per step, the first in ascending (p, t)
    order whose closed list has the largest objective, kept only when it
    beats the list so far."""
    problem = SearchProblem(ds, scores, cands, weights)
    state = problem.initial_state()
    best_obj = problem.state_bound(problem.close(state))
    while state.depth < L_max:
        step_best = None
        used = {p for p, _ in state.prefix}
        for p, t in itertools.product(range(len(problem.patterns)), range(problem.m)):
            if p in used:
                continue
            child = rule_child(problem, state, p, t)
            obj = problem.state_bound(problem.close(child))
            if obj > best_obj and (step_best is None or obj > step_best[0]):
                step_best = (obj, child)
        if step_best is None:
            break
        best_obj, state = step_best
    return problem.decision_list(problem.close(state)), best_obj
