"""Scalar objective for a decision list: mean score minus mean costs.

g1 is the doubly robust estimate of the population mean outcome under the
list's assignments.  g2 is the mean characteristic-assessment cost, where a
subject matched by rule l pays for every characteristic read by rules 1..l.
g3 is the mean cost of the assigned treatments.  The objective is
lambda1*g1 - lambda2*g2 - lambda3*g3.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .domain import (
    Dataset,
    DecisionList,
    assessment_cost_vector,
    assign,
    group_assessment_costs,
    group_billed_counts,
    group_treatments,
    partition,
    treatment_cost_vector,
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
            if getattr(self, name) < 0:
                raise ValidationError(f"{name} must be nonnegative")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ObjectiveWeights":
        return cls(**config_values(d, asdict(cls()), "weights"))


def check_scores(ds: Dataset, scores: DRScoreMatrix) -> None:
    if scores.scores.shape != (ds.n_subjects, ds.n_treatments):
        raise ValidationError(
            f"score matrix shape {scores.scores.shape} does not match "
            f"({ds.n_subjects}, {ds.n_treatments})"
        )
    if scores.treatment_names != ds.treatment_names:
        raise ValidationError("score matrix was built for a different treatment set")


def estimated_outcome(ds: Dataset, dl: DecisionList, scores: DRScoreMatrix) -> float:
    """g1: mean doubly robust score under the list's assignments."""
    check_scores(ds, scores)
    return scores.mean_value(assign(ds, dl))


def mean_assessment_cost(ds: Dataset, dl: DecisionList,
                         charge_default_full: bool = False) -> float:
    """g2: mean per-subject characteristic-assessment cost."""
    return float(assessment_cost_vector(ds, dl, charge_default_full).mean())


def mean_treatment_cost(ds: Dataset, dl: DecisionList) -> float:
    """g3: mean cost of the treatments the list assigns."""
    return float(treatment_cost_vector(ds, dl).mean())


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
        return {
            "objective": self.objective,
            "estimated_outcome": self.estimated_outcome,
            "mean_assessment_cost": self.mean_assessment_cost,
            "mean_treatment_cost": self.mean_treatment_cost,
            "group_sizes": list(self.group_sizes),
            "treatment_shares": dict(self.treatment_shares),
            "avg_num_characteristics": self.avg_num_characteristics,
            "n_subjects": self.n_subjects,
            "weights": self.weights.to_dict(),
        }

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
    check_scores(ds, scores)
    # the one partition every term below derives from
    group_of = partition(ds, dl).group_of
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
