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
from regimelist.estimation import DRScoreMatrix
from regimelist.objective import ObjectiveWeights
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
    feats = rng.choice(ds.n_features, size=min(n_preds, ds.n_features), replace=False)
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
