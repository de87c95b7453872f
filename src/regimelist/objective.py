"""Scalar objective for a decision list: mean score minus mean costs.

g1 is the doubly robust estimate of the population mean outcome under the
list's assignments.  g2 is the mean characteristic-assessment cost, where a
subject matched by rule l pays for every characteristic read by rules 1..l.
g3 is the mean cost of the assigned treatments.  The objective is
lambda1*g1 - lambda2*g2 - lambda3*g3.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .domain import (
    Dataset,
    DecisionList,
    feature_set_cost,
    group_assessment_costs,
    group_billed_counts,
    group_treatments,
    partition,
)
from .errors import ValidationError, config_values
from .estimation import DRScoreMatrix


@dataclass(frozen=True)
class ObjectiveWeights:
    lambda1: float = 1.0
    lambda2: float = 1.0
    lambda3: float = 1.0

    def __post_init__(self) -> None:
        for name in ("lambda1", "lambda2", "lambda3"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValidationError(f"{name} must be finite and nonnegative")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ObjectiveWeights":
        return cls(**config_values(d, asdict(cls()), "weights"))


def check_scores(ds: Dataset, scores: DRScoreMatrix, weights: ObjectiveWeights) -> None:
    """Refuse scores built for another dataset, and weights so large that 64
    times a sum over the subjects of weighted scores and costs overflows a
    double: the search's sums and bounds reach a few times that sum."""
    if scores.scores.shape != (ds.n_subjects, ds.n_treatments):
        raise ValidationError(
            f"score matrix shape {scores.scores.shape} does not match "
            f"({ds.n_subjects}, {ds.n_treatments})"
        )
    if scores.treatment_names != ds.treatment_names:
        raise ValidationError("score matrix was built for a different treatment set")
    magnitude = ds.n_subjects * (
        weights.lambda1 * float(np.abs(scores.scores).max(initial=0.0))
        + weights.lambda2 * feature_set_cost(ds.specs, range(len(ds.specs)))
        + weights.lambda3 * float(ds.treatment_costs.max(initial=0.0)))
    if not math.isfinite(64 * magnitude):
        raise ValidationError(
            f"weights lambda1={weights.lambda1!r}, lambda2={weights.lambda2!r}, "
            f"lambda3={weights.lambda3!r} are so large that the objective overflows")


def objective_value(
    ds: Dataset,
    dl: DecisionList,
    scores: DRScoreMatrix,
    weights: ObjectiveWeights = ObjectiveWeights(),
    charge_default_full: bool = False,
) -> float:
    """lambda1*g1 - lambda2*g2 - lambda3*g3, as compute_metrics reports it."""
    return compute_metrics(ds, dl, scores, weights, charge_default_full).objective


@dataclass(frozen=True)
class MetricsReport:
    """Per-list evaluation summary.

    group_sizes has one entry per rule plus one for the default group;
    treatment_shares maps treatment name to the fraction of subjects
    assigned it.
    """

    objective: float
    estimated_outcome: float
    mean_assessment_cost: float
    mean_treatment_cost: float
    group_sizes: tuple[int, ...]
    treatment_shares: dict[str, float]
    avg_num_characteristics: float
    n_subjects: int
    weights: ObjectiveWeights = field(default_factory=ObjectiveWeights)

    def to_dict(self) -> dict:
        return asdict(self)

    def to_text(self) -> str:
        lines = [
            f"objective                {self.objective!r}",
            f"estimated outcome        {self.estimated_outcome!r}",
            f"mean assessment cost     {self.mean_assessment_cost!r}",
            f"mean treatment cost      {self.mean_treatment_cost!r}",
            f"avg characteristics read {self.avg_num_characteristics!r}",
            f"subjects                 {self.n_subjects}",
            "group sizes              " + " ".join(str(g) for g in self.group_sizes),
        ]
        for name, share in self.treatment_shares.items():
            lines.append(f"share {name:<18} {share!r}")
        return "\n".join(lines)


def compute_metrics(
    ds: Dataset,
    dl: DecisionList,
    scores: DRScoreMatrix,
    weights: ObjectiveWeights = ObjectiveWeights(),
    charge_default_full: bool = False,
) -> MetricsReport:
    check_scores(ds, scores, weights)
    # the one partition every term below derives from
    group_of = partition(ds, dl)
    assigned = group_treatments(dl)[group_of]
    g1 = scores.mean_value(assigned)
    g2 = float(group_assessment_costs(ds.specs, dl, charge_default_full)[group_of].mean())
    g3 = float(ds.treatment_costs[assigned].mean())
    sizes = tuple(int(c) for c in np.bincount(group_of, minlength=len(dl.rules) + 1))
    shares = {
        name: float((assigned == a).mean())
        for a, name in enumerate(ds.treatment_names)
    }
    avg_chars = float(group_billed_counts(dl, charge_default_full)[group_of].mean())
    return MetricsReport(
        objective=weights.lambda1 * g1 - weights.lambda2 * g2 - weights.lambda3 * g3,
        estimated_outcome=g1,
        mean_assessment_cost=g2,
        mean_treatment_cost=g3,
        group_sizes=sizes,
        treatment_shares=shares,
        avg_num_characteristics=avg_chars,
        n_subjects=ds.n_subjects,
        weights=weights,
    )
