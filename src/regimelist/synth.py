"""Synthetic observational data with a known best-treatment map.

Characteristics are sampled independently from configured marginals.  A
planted decision list defines the truly best treatment b(x) for every
subject; the observed treatment blends uniform randomization with a logistic
preference (confounding_strength interpolates), and the outcome score is
drawn from one categorical distribution when the observed treatment agrees
with b(x) and a worse one when it does not.  Because everything about the
mechanism is known, the exact expected outcome of any candidate decision
list is computable, which is what makes estimator and recovery tests
possible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .domain import (
    BINARY,
    CATEGORICAL,
    MAX_COUNT,
    ORDERING_OPS,
    REAL,
    CharacteristicSpec,
    Dataset,
    DecisionList,
    Pattern,
    Predicate,
    assign,
    code_dtype,
    group_assessment_costs,
    group_treatments,
    partition,
)
from .errors import SizeLimitError, ValidationError
from .io import decision_list_to_dict

# true_value and true_objective refuse a grid of more cells
MAX_CELLS = 2 * 10 ** 6

UNIFORM = "uniform"
NORMAL = "normal"
LEVELS = "levels"


@dataclass(frozen=True)
class Marginal:
    """Sampling distribution of one characteristic.

    uniform: params = (low, high); normal: params = (mean, sd);
    levels: params = one probability per level.
    """

    kind: str
    params: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.kind not in (UNIFORM, NORMAL, LEVELS):
            raise ValidationError(f"unknown marginal kind {self.kind!r}")
        if self.kind == LEVELS:
            total = sum(self.params)
            if not math.isclose(total, 1.0, abs_tol=1e-9):
                raise ValidationError("level probabilities must sum to 1")
            if any(p < 0 for p in self.params):
                raise ValidationError("level probabilities must be >= 0")
        elif len(self.params) != 2:
            raise ValidationError(f"{self.kind} marginal takes two parameters")
        elif self.kind == UNIFORM and self.params[0] >= self.params[1]:
            raise ValidationError("uniform marginal needs low < high")
        elif self.kind == NORMAL and self.params[1] <= 0:
            raise ValidationError("normal marginal needs a positive scale")

    def cdf(self, x: float) -> float:
        if self.kind == UNIFORM:
            lo, hi = self.params
            return min(1.0, max(0.0, (x - lo) / (hi - lo)))
        if self.kind == NORMAL:
            mu, sd = self.params
            return 0.5 * math.erfc((mu - x) / (sd * math.sqrt(2.0)))
        raise ValidationError("cdf is only defined for real marginals")


@dataclass(frozen=True)
class GeneratorSpec:
    """Complete description of the sampling mechanism."""

    n_subjects: int
    seed: int
    specs: tuple[CharacteristicSpec, ...]
    marginals: tuple[Marginal, ...]
    treatment_names: tuple[str, ...]
    treatment_costs: tuple[float, ...]
    outcome_scores: tuple[float, ...]
    matched_probs: tuple[float, ...]
    mismatched_probs: tuple[float, ...]
    planted_regime: DecisionList
    confounding_strength: float = 0.0
    # (feature, level, weight) terms added to the last treatment's logit
    confound_weights: tuple[tuple[int, int, float], ...] = ()
    confound_bias: float = 0.0

    def __post_init__(self) -> None:
        # numpy can hold no more than intp's maximum of subjects in a column
        if not 1 <= self.n_subjects <= np.iinfo(np.intp).max:
            raise ValidationError(f"n_subjects must lie in [1, {np.iinfo(np.intp).max}]")
        if self.seed < 0:
            raise ValidationError("seed must be nonnegative")
        if len(self.marginals) != len(self.specs):
            raise ValidationError("need one marginal per characteristic")
        for spec, marg in zip(self.specs, self.marginals):
            if spec.kind == REAL and marg.kind == LEVELS:
                raise ValidationError(f"{spec.name}: real feature, level marginal")
            if spec.kind != REAL:
                if marg.kind != LEVELS:
                    raise ValidationError(f"{spec.name}: level feature, real marginal")
                if len(marg.params) != len(spec.levels):
                    raise ValidationError(f"{spec.name}: marginal/level size mismatch")
        if not 0.0 <= self.confounding_strength <= 1.0:
            raise ValidationError("confounding_strength must lie in [0, 1]")
        for probs in (self.matched_probs, self.mismatched_probs):
            if len(probs) != len(self.outcome_scores):
                raise ValidationError("outcome probabilities must match scores")
            if not math.isclose(sum(probs), 1.0, abs_tol=1e-9):
                raise ValidationError("outcome probabilities must sum to 1")
        self.planted_regime.validate(self.specs, len(self.treatment_names))

    @property
    def matched_mean(self) -> float:
        return float(np.dot(self.outcome_scores, self.matched_probs))

    @property
    def mismatched_mean(self) -> float:
        return float(np.dot(self.outcome_scores, self.mismatched_probs))


def default_generator_spec(
    n_subjects: int = 10000,
    seed: int = 0,
    confounding_strength: float = 0.0,
) -> GeneratorSpec:
    """Asthma-style instance: 16 characteristics, 2 treatments, 3-rule truth.

    Thirteen cheap (cost 1) demographics and symptoms, then three clinical
    tests costing 2, 4 and 6.  The planted best-treatment map prescribes the
    controller drug for subjects flagged by any of three rules and the
    quick-relief drug otherwise; the expensive methacholine test appears
    only in the last rule, whose marginal coverage is about 8% of the
    population.
    """
    yes_no = ("no", "yes")
    specs = (
        CharacteristicSpec("age", REAL, cost=1.0),
        CharacteristicSpec("gender", BINARY, cost=1.0, levels=("female", "male")),
        CharacteristicSpec("bmi", REAL, cost=1.0),
        CharacteristicSpec("blood_pressure", CATEGORICAL, cost=1.0,
                           levels=("normal", "elevated", "high")),
        CharacteristicSpec("short_breath", BINARY, cost=1.0, levels=yes_no),
        CharacteristicSpec("temperature", REAL, cost=1.0),
        CharacteristicSpec("cough", CATEGORICAL, cost=1.0,
                           levels=("none", "low", "high")),
        CharacteristicSpec("chest_pain", BINARY, cost=1.0, levels=yes_no),
        CharacteristicSpec("wheezing", BINARY, cost=1.0, levels=yes_no),
        CharacteristicSpec("past_allergies", BINARY, cost=1.0, levels=yes_no),
        CharacteristicSpec("asthma_history", BINARY, cost=1.0, levels=yes_no),
        CharacteristicSpec("family_history", BINARY, cost=1.0, levels=yes_no),
        CharacteristicSpec("has_insurance", BINARY, cost=1.0, levels=yes_no),
        CharacteristicSpec("peak_flow", REAL, cost=2.0),
        CharacteristicSpec("spiro_test", BINARY, cost=4.0, levels=("neg", "pos")),
        CharacteristicSpec("methacholine", BINARY, cost=6.0, levels=("neg", "pos")),
    )
    marginals = (
        Marginal(UNIFORM, (18.0, 90.0)),
        Marginal(LEVELS, (0.52, 0.48)),
        Marginal(NORMAL, (27.0, 5.0)),
        Marginal(LEVELS, (0.5, 0.3, 0.2)),
        Marginal(LEVELS, (0.55, 0.45)),
        Marginal(NORMAL, (37.0, 0.6)),
        Marginal(LEVELS, (0.4, 0.35, 0.25)),
        Marginal(LEVELS, (0.62, 0.38)),
        Marginal(LEVELS, (0.5, 0.5)),
        Marginal(LEVELS, (0.65, 0.35)),
        Marginal(LEVELS, (0.55, 0.45)),
        Marginal(LEVELS, (0.7, 0.3)),
        Marginal(LEVELS, (0.2, 0.8)),
        Marginal(NORMAL, (400.0, 80.0)),
        Marginal(LEVELS, (0.6, 0.4)),
        Marginal(LEVELS, (0.67, 0.33)),
    )
    idx = {s.name: i for i, s in enumerate(specs)}
    planted = DecisionList(
        rules=(
            (Pattern((Predicate(idx["spiro_test"], "=", "pos"),
                      Predicate(idx["asthma_history"], "=", "yes"))), 1),
            (Pattern((Predicate(idx["wheezing"], "=", "yes"),
                      Predicate(idx["short_breath"], "=", "yes"))), 1),
            (Pattern((Predicate(idx["methacholine"], "=", "pos"),
                      Predicate(idx["chest_pain"], "=", "yes"))), 1),
        ),
        default_treatment=0,
    )
    return GeneratorSpec(
        n_subjects=n_subjects,
        seed=seed,
        specs=specs,
        marginals=marginals,
        treatment_names=("quick_relief", "controller"),
        treatment_costs=(10.0, 15.0),
        outcome_scores=(100.0, 66.0, 33.0, 0.0),
        matched_probs=(0.55, 0.25, 0.12, 0.08),
        mismatched_probs=(0.10, 0.20, 0.30, 0.40),
        planted_regime=planted,
        confounding_strength=confounding_strength,
        confound_weights=(
            (idx["wheezing"], 1, 1.2),
            (idx["asthma_history"], 1, 1.0),
            (idx["spiro_test"], 1, 0.8),
        ),
        confound_bias=-0.6,
    )


@dataclass(frozen=True)
class GroundTruth:
    """What the generator knows that an analyst would not."""

    planted_regime: DecisionList
    matched_mean: float
    mismatched_mean: float
    planted_true_value: float
    best_treatment_share: dict[str, float]

    def to_dict(self, specs, treatment_names) -> dict:
        return {
            "planted_regime": decision_list_to_dict(
                self.planted_regime, specs, treatment_names),
            "matched_mean": self.matched_mean,
            "mismatched_mean": self.mismatched_mean,
            "planted_true_value": self.planted_true_value,
            "best_treatment_share": dict(self.best_treatment_share),
        }


def _sample_codes(rng: np.random.Generator, probs: np.ndarray, n: int) -> np.ndarray:
    """Vectorized categorical draw; probs is (k,) or (n, k).  The codes take
    ``code_dtype(k)``, as a dataset read from a file holds them."""
    k = probs.shape[-1]
    cum = np.cumsum(np.broadcast_to(probs, (n, k)), axis=1)
    u = rng.random(n)
    return (u[:, None] > cum).sum(axis=1).astype(code_dtype(k))


def generate(gspec: GeneratorSpec) -> tuple[Dataset, GroundTruth]:
    """Sample a dataset; identical spec (seed included) gives identical data.
    More than MAX_COUNT subjects raise SizeLimitError."""
    n = gspec.n_subjects
    if n > MAX_COUNT:
        raise SizeLimitError(f"{n} subjects exceed the limit of {MAX_COUNT}")
    rng = np.random.default_rng(gspec.seed)
    columns = []
    for spec, marg in zip(gspec.specs, gspec.marginals):
        if marg.kind == UNIFORM:
            lo, hi = marg.params
            columns.append(rng.uniform(lo, hi, size=n))
        elif marg.kind == NORMAL:
            mu, sd = marg.params
            columns.append(mu + sd * rng.standard_normal(n))
        else:
            columns.append(_sample_codes(rng, np.asarray(marg.params), n))

    m = len(gspec.treatment_names)
    shell = Dataset(
        specs=gspec.specs,
        treatment_names=gspec.treatment_names,
        treatment_costs=np.asarray(gspec.treatment_costs, dtype=float),
        columns=tuple(columns),
        treatments=np.zeros(n, dtype=code_dtype(m)),
        outcomes=np.zeros(n, dtype=float),
    )
    best = assign(shell, gspec.planted_regime)

    logit = np.full(n, gspec.confound_bias)
    for f, level, w in gspec.confound_weights:
        logit += w * (columns[f] == level)
    z = np.zeros((n, m))
    z[:, m - 1] = logit
    z -= z.max(axis=1, keepdims=True)
    soft = np.exp(z)
    soft /= soft.sum(axis=1, keepdims=True)
    cs = gspec.confounding_strength
    treat_probs = (1.0 - cs) / m + cs * soft
    treatments = _sample_codes(rng, treat_probs, n)

    matched = treatments == best
    probs = np.where(matched[:, None],
                     np.asarray(gspec.matched_probs),
                     np.asarray(gspec.mismatched_probs))
    score_idx = _sample_codes(rng, probs, n)
    outcomes = np.asarray(gspec.outcome_scores, dtype=float)[score_idx]

    ds = replace(shell, treatments=treatments, outcomes=outcomes)
    share = {
        name: float((best == a).mean())
        for a, name in enumerate(gspec.treatment_names)
    }
    truth = GroundTruth(
        planted_regime=gspec.planted_regime,
        matched_mean=gspec.matched_mean,
        mismatched_mean=gspec.mismatched_mean,
        planted_true_value=true_value(gspec, gspec.planted_regime),
        best_treatment_share=share,
    )
    return ds, truth


def _feature_cells(gspec: GeneratorSpec, f: int,
                   thresholds: list[float]) -> list[tuple[float | int, float]]:
    """(representative value, probability) pairs partitioning feature f.

    Level features enumerate their level codes; real features split into
    the open intervals between the supplied thresholds, represented by an
    interior point.
    """
    spec = gspec.specs[f]
    marg = gspec.marginals[f]
    if spec.kind != REAL:
        return list(enumerate(marg.params))
    ts = sorted(set(thresholds))
    edges = [-math.inf] + ts + [math.inf]
    cells = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        if lo == -math.inf:
            rep = hi - 1.0
        elif hi == math.inf:
            rep = lo + 1.0
        else:
            rep = (lo + hi) / 2.0
        p_lo = 0.0 if lo == -math.inf else marg.cdf(lo)
        p_hi = 1.0 if hi == math.inf else marg.cdf(hi)
        cells.append((rep, p_hi - p_lo))
    return cells


def _grid(gspec: GeneratorSpec, dl: DecisionList) -> tuple[Dataset, np.ndarray]:
    """The population as a Dataset of cells, and each cell's probability.

    A cell picks one level or interval of each feature that dl or the
    planted regime reads (see _feature_cells; a real feature splits at every
    threshold either list compares it with), in itertools.product order,
    with probabilities multiplied feature by feature; cells of probability
    zero are dropped.  A column no list reads holds zeros, as a view that
    costs no memory per cell.  Refuses more than MAX_CELLS cells.
    """
    dl.validate(gspec.specs, len(gspec.treatment_names))
    preds = [p for source in (dl, gspec.planted_regime)
             for pat, _ in source.rules for p in pat.predicates]
    used = sorted({p.feature for p in preds})
    per_feature = [
        _feature_cells(gspec, f, [float(p.value) for p in preds
                                  if p.feature == f and p.op in ORDERING_OPS])
        for f in used]
    n_cells = math.prod(len(cells) for cells in per_feature)
    if n_cells > MAX_CELLS:
        raise SizeLimitError(
            f"{n_cells} cells exceeds the exact-summation limit of {MAX_CELLS}")
    prob = np.ones(1)
    for cells in per_feature:
        prob = np.multiply.outer(prob, [p for _, p in cells]).ravel()
    kept = np.flatnonzero(prob)
    n = len(kept)
    columns = [np.broadcast_to(np.zeros(1, dtype=float if s.kind == REAL else np.int64),
                               (n,)) for s in gspec.specs]
    stride = n_cells
    for f, cells in zip(used, per_feature):
        stride //= len(cells)
        columns[f] = np.asarray([rep for rep, _ in cells])[kept // stride % len(cells)]
    grid = Dataset(
        specs=gspec.specs,
        treatment_names=gspec.treatment_names,
        treatment_costs=np.asarray(gspec.treatment_costs, dtype=float),
        columns=tuple(columns),
        treatments=np.broadcast_to(np.zeros(1, dtype=np.int64), (n,)),
        outcomes=np.broadcast_to(np.zeros(1), (n,)),
    )
    return grid, prob[kept]


def _regime_cells(gspec: GeneratorSpec, dl: DecisionList):
    """Per grid cell: its probability, its group and treatment under dl, and
    whether that treatment is the planted map's."""
    grid, prob = _grid(gspec, dl)
    group_of = partition(grid, dl)
    chosen = group_treatments(dl)[group_of]
    return prob, group_of, chosen, chosen == assign(grid, gspec.planted_regime)


def _total(terms: np.ndarray) -> float:
    # one sequential pass in cell order, unlike np.sum's pairwise summation
    return float(np.cumsum(terms)[-1])


def true_value(gspec: GeneratorSpec, dl: DecisionList) -> float:
    """Exact expected outcome of a decision list under the generator.

    The outcome mean depends on x only through whether dl agrees with the
    planted map, so it suffices to sum over the joint cells of the features
    either list reads (see _grid; probabilities come from the marginal
    CDFs).  More than MAX_CELLS cells raise SizeLimitError.
    """
    prob, _, _, matched = _regime_cells(gspec, dl)
    delta = gspec.matched_mean - gspec.mismatched_mean
    return float(gspec.mismatched_mean + delta * _total(np.where(matched, prob, 0.0)))


def true_objective(
    gspec: GeneratorSpec,
    dl: DecisionList,
    lambda1: float = 1.0,
    lambda2: float = 1.0,
    lambda3: float = 1.0,
    charge_default_full: bool = False,
) -> float:
    """Exact population objective of a list under the generator's mechanism.

    The cells of true_value, also charged the expected assessment and
    treatment costs of the list itself, as compute_metrics charges subjects.
    """
    prob, group_of, chosen, matched = _regime_cells(gspec, dl)
    means = np.where(matched, gspec.matched_mean, gspec.mismatched_mean)
    assess = group_assessment_costs(gspec.specs, dl, charge_default_full)[group_of]
    treat = np.asarray(gspec.treatment_costs, dtype=float)[chosen]
    return float(lambda1 * _total(prob * means) - lambda2 * _total(prob * assess)
                 - lambda3 * _total(prob * treat))
