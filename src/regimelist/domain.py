"""Datasets, costs, predicates, rules and decision-list regime semantics.

A decision list is an ordered sequence of (pattern, treatment) rules plus a
default treatment.  Subjects are partitioned by first match: subject i lands
in group j when it satisfies rule j's pattern and none of the earlier ones.
The assessment cost of a subject in group j is the summed cost of every
distinct characteristic appearing in patterns 1..j (a subject had to be
screened on all of them before rule j could fire).  Subjects that fall
through to the default pay no assessment cost unless ``charge_default_full``
is set, in which case they pay for the full characteristic set of the list.

All functions here are pure over immutable inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import CellError, InvalidPredicateError, ValidationError

REAL = "real"
BINARY = "binary"
CATEGORICAL = "categorical"
KINDS = (REAL, BINARY, CATEGORICAL)

#: Comparison operators accepted by predicates. Ordering operators are only
#: valid for real-valued characteristics.
OPS = ("=", "!=", "<=", ">=", "<", ">")
ORDERING_OPS = ("<=", ">=", "<", ">")


@dataclass(frozen=True)
class CharacteristicSpec:
    """One subject characteristic: its kind, admissible values and cost."""

    name: str
    kind: str
    cost: float
    levels: tuple[str, ...] = ()

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValidationError(f"unknown kind {self.kind!r} for {self.name!r}")
        if not (self.cost >= 0):
            raise ValidationError(f"cost of {self.name!r} must be >= 0, got {self.cost}")
        if self.kind == BINARY and len(self.levels) != 2:
            raise ValidationError(f"binary {self.name!r} needs exactly 2 levels")
        if self.kind == CATEGORICAL and len(self.levels) < 2:
            raise ValidationError(f"categorical {self.name!r} needs >= 2 levels")
        if self.kind == REAL and self.levels:
            raise ValidationError(f"real {self.name!r} must not enumerate levels")
        if len(set(self.levels)) != len(self.levels):
            raise ValidationError(f"duplicate levels for {self.name!r}")


@dataclass(frozen=True)
class Dataset:
    """Observational data: N subjects with characteristics, treatment, outcome.

    Columns are stored columnar: float64 arrays for real characteristics and
    int64 level codes (indices into ``spec.levels``) for binary/categorical
    ones.  Outcomes are real, higher is better.
    """

    specs: tuple[CharacteristicSpec, ...]
    treatment_names: tuple[str, ...]
    treatment_costs: np.ndarray
    columns: tuple[np.ndarray, ...]
    treatments: np.ndarray
    outcomes: np.ndarray

    @property
    def n_subjects(self) -> int:
        return int(self.treatments.shape[0])

    @property
    def n_features(self) -> int:
        return len(self.specs)

    @property
    def n_treatments(self) -> int:
        return len(self.treatment_names)

    def treatment_code(self, name: str) -> int:
        try:
            return self.treatment_names.index(name)
        except ValueError:
            raise ValidationError(f"unknown treatment {name!r}") from None

    def feature_index(self, name: str) -> int:
        for i, spec in enumerate(self.specs):
            if spec.name == name:
                return i
        raise ValidationError(f"unknown characteristic {name!r}")

    @classmethod
    def from_columns(
        cls,
        specs: Sequence[CharacteristicSpec],
        treatment_names: Sequence[str],
        treatment_costs: Sequence[float],
        cells: Sequence[Sequence],
        treatments: Sequence[str],
        outcomes: Sequence,
    ) -> "Dataset":
        """Build and validate a dataset from one cell sequence per column:
        each characteristic's (numbers or numeric strings for reals, level
        names otherwise), the treatment names and the outcomes.  A missing,
        non-numeric or non-finite number, or an unknown level or treatment,
        raises CellError for the first bad row of its column."""
        specs = tuple(specs)
        treatment_names = tuple(treatment_names)
        if len(treatment_names) != len(set(treatment_names)):
            raise ValidationError("duplicate treatment names")
        costs = np.asarray(treatment_costs, dtype=float)
        if costs.shape != (len(treatment_names),):
            raise ValidationError("treatment_costs must match treatment_names")
        if not np.all(costs >= 0):
            raise ValidationError("treatment costs must be >= 0")
        n = len(treatments)
        if n == 0:
            raise ValidationError("dataset needs at least one subject")
        if len(cells) != len(specs) or any(len(c) != n for c in (*cells, outcomes)):
            raise ValidationError("every column needs one cell per subject")
        columns = tuple(
            _column(c, f, s.name, None if s.kind == REAL else s.levels)
            for f, (s, c) in enumerate(zip(specs, cells))
        )
        return cls(
            specs=specs,
            treatment_names=treatment_names,
            treatment_costs=costs,
            columns=columns,
            treatments=_column(treatments, len(specs), "treatment", treatment_names),
            outcomes=_column(outcomes, len(specs) + 1, "outcome"),
        )


def _column(cells: Sequence, col: int, name: str,
            names: tuple[str, ...] | None = None) -> np.ndarray:
    """Finite float64 numbers, or int64 codes into ``names`` when given.

    Converts the whole column at once; only a column that fails is scanned
    for its first bad cell, which CellError reports as ``col``.
    """
    try:
        if names is None:
            out = np.asarray(cells, dtype=float)
            if out.shape == (len(cells),) and np.isfinite(out).all():
                return out
        else:
            code = {v: k for k, v in enumerate(names)}
            return np.fromiter(map(code.__getitem__, cells), dtype=np.int64, count=len(cells))
    except (KeyError, TypeError, ValueError):
        pass
    for r, value in enumerate(cells):
        problem = _cell_problem(value, names)
        if problem:
            raise CellError(r, col, name, problem)
    raise ValidationError(f"column {name!r} does not convert")


def _cell_problem(value, names: tuple[str, ...] | None) -> str | None:
    """What is wrong with one cell of a ``_column``, or None."""
    if names is not None and value in names:
        return None
    if value is None or (isinstance(value, float) and math.isnan(value)) \
            or (isinstance(value, str) and not value.strip()):
        return f"missing value {value!r}"
    if names is not None:
        return f"{value!r} is not one of {', '.join(map(repr, names))}"
    try:
        number = float(value)
    except (TypeError, ValueError):
        return f"non-numeric value {value!r}"
    return None if math.isfinite(number) else f"non-finite value {value!r}"


@dataclass(frozen=True)
class Predicate:
    """A single test (feature, op, value) on one characteristic."""

    feature: int
    op: str
    value: float | str

    def __post_init__(self):
        if self.op not in OPS:
            raise InvalidPredicateError(f"unknown operator {self.op!r}")

    def validate(self, specs: Sequence[CharacteristicSpec]) -> None:
        if not 0 <= self.feature < len(specs):
            raise InvalidPredicateError(f"feature index {self.feature} out of range")
        spec = specs[self.feature]
        if spec.kind == REAL:
            if isinstance(self.value, bool) or not isinstance(self.value, (int, float)):
                raise InvalidPredicateError(
                    f"real {spec.name!r} requires a numeric threshold, got {self.value!r}"
                )
        else:
            if self.op in ORDERING_OPS:
                raise InvalidPredicateError(
                    f"ordering operator {self.op!r} not allowed on {spec.kind} {spec.name!r}"
                )
            if self.value not in spec.levels:
                raise InvalidPredicateError(
                    f"value {self.value!r} is not a level of {spec.name!r}"
                )


@dataclass(frozen=True)
class Pattern:
    """Conjunction of one or more predicates."""

    predicates: tuple[Predicate, ...]

    def __post_init__(self):
        if not self.predicates:
            raise ValidationError("pattern needs at least one predicate")
        seen = set()
        for p in self.predicates:
            key = (p.feature, p.op, p.value)
            if key in seen:
                raise ValidationError(f"duplicate predicate {key} in pattern")
            seen.add(key)

    @property
    def features(self) -> frozenset[int]:
        return frozenset(p.feature for p in self.predicates)

    def validate(self, specs: Sequence[CharacteristicSpec]) -> None:
        for p in self.predicates:
            p.validate(specs)


@dataclass(frozen=True)
class DecisionList:
    """Ordered (pattern, treatment) rules plus a default treatment."""

    rules: tuple[tuple[Pattern, int], ...]
    default_treatment: int

    def __len__(self) -> int:
        return len(self.rules)

    def validate(self, specs: Sequence[CharacteristicSpec], n_treatments: int,
                 max_rules: int | None = None) -> None:
        if max_rules is not None and len(self.rules) > max_rules:
            raise ValidationError(f"list has {len(self.rules)} rules, limit is {max_rules}")
        for pattern, t in self.rules:
            pattern.validate(specs)
            if not 0 <= t < n_treatments:
                raise ValidationError(f"treatment code {t} out of range")
        if not 0 <= self.default_treatment < n_treatments:
            raise ValidationError(f"default treatment code {self.default_treatment} out of range")

    def cumulative_features(self) -> tuple[frozenset[int], ...]:
        """Feature sets N_1..N_L: union of pattern features over each prefix."""
        out = []
        acc: frozenset[int] = frozenset()
        for pattern, _ in self.rules:
            acc = acc | pattern.features
            out.append(acc)
        return tuple(out)


@dataclass(frozen=True)
class GroupAssignment:
    """First-match rule groups. ``group_of[i]`` is the 0-based rule index of
    subject i, or ``len(rules)`` for the default group."""

    group_of: np.ndarray


def predicate_mask(ds: Dataset, pred: Predicate) -> np.ndarray:
    """Boolean vector over all subjects for a single predicate."""
    pred.validate(ds.specs)
    spec = ds.specs[pred.feature]
    col = ds.columns[pred.feature]
    if spec.kind == REAL:
        t = float(pred.value)
        if pred.op == "=":
            return col == t
        if pred.op == "!=":
            return col != t
        if pred.op == "<=":
            return col <= t
        if pred.op == ">=":
            return col >= t
        if pred.op == "<":
            return col < t
        return col > t
    code = spec.levels.index(pred.value)
    if pred.op == "=":
        return col == code
    return col != code


def pattern_mask(ds: Dataset, pattern: Pattern) -> np.ndarray:
    """Boolean vector over all subjects satisfying every predicate."""
    mask = predicate_mask(ds, pattern.predicates[0])
    for pred in pattern.predicates[1:]:
        mask = mask & predicate_mask(ds, pred)
    return mask


def partition(ds: Dataset, dl: DecisionList) -> GroupAssignment:
    """Assign every subject to the first rule it satisfies, else the default."""
    dl.validate(ds.specs, ds.n_treatments)
    n = ds.n_subjects
    group = np.full(n, len(dl.rules), dtype=np.int64)
    unassigned = np.ones(n, dtype=bool)
    for j, (pattern, _) in enumerate(dl.rules):
        newly = pattern_mask(ds, pattern) & unassigned
        group[newly] = j
        unassigned &= ~newly
    return GroupAssignment(group_of=group)


def group_treatments(dl: DecisionList) -> np.ndarray:
    """Treatment code of each group: one per rule, then the default's."""
    return np.asarray([t for _, t in dl.rules] + [dl.default_treatment], dtype=np.int64)


def assign(ds: Dataset, dl: DecisionList) -> np.ndarray:
    """Per-subject treatment codes under the regime."""
    return group_treatments(dl)[partition(ds, dl).group_of]


def feature_set_cost(specs: Sequence[CharacteristicSpec], features: Iterable[int]) -> float:
    """Total assessment cost of a set of characteristics, each billed once."""
    return float(sum(specs[f].cost for f in set(features)))


def _with_default(per_rule: list[float], charge_default_full: bool) -> np.ndarray:
    # the default group pays nothing, or what the last rule's group pays
    default = per_rule[-1] if per_rule and charge_default_full else 0.0
    return np.asarray(per_rule + [default], dtype=float)


def group_assessment_costs(specs: Sequence[CharacteristicSpec], dl: DecisionList,
                           charge_default_full: bool = False) -> np.ndarray:
    """Assessment cost of each group: one per rule, then the default's."""
    return _with_default(
        [feature_set_cost(specs, feats) for feats in dl.cumulative_features()],
        charge_default_full)


def group_billed_counts(dl: DecisionList, charge_default_full: bool = False) -> np.ndarray:
    """Distinct characteristics billed in each group (|N_j|), then the default's."""
    return _with_default([float(len(f)) for f in dl.cumulative_features()],
                         charge_default_full)


def assessment_cost_vector(
    ds: Dataset, dl: DecisionList, charge_default_full: bool = False
) -> np.ndarray:
    """Per-subject assessment cost: subjects in group j pay for every distinct
    characteristic appearing in patterns 1..j.  Default-group subjects pay 0,
    or the full-list cost when ``charge_default_full``."""
    ga = partition(ds, dl)
    return group_assessment_costs(ds.specs, dl, charge_default_full)[ga.group_of]


def treatment_cost_vector(ds: Dataset, dl: DecisionList) -> np.ndarray:
    """Per-subject cost of the treatment assigned by the regime."""
    return ds.treatment_costs[assign(ds, dl)]


def billed_characteristics_vector(
    ds: Dataset, dl: DecisionList, charge_default_full: bool = False
) -> np.ndarray:
    """Per-subject count of distinct characteristics billed (|N_j| by group)."""
    ga = partition(ds, dl)
    return group_billed_counts(dl, charge_default_full)[ga.group_of]
