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
import sys
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import CellError, InvalidPredicateError, ValidationError

REAL = "real"
BINARY = "binary"
CATEGORICAL = "categorical"
KINDS = (REAL, BINARY, CATEGORICAL)

#: Comparison operators accepted by predicates, each with the ufunc that
#: applies it to a column. Ordering operators are only valid for real-valued
#: characteristics.
COMPARE = {"=": np.equal, "!=": np.not_equal, "<=": np.less_equal,
           ">=": np.greater_equal, "<": np.less, ">": np.greater}
OPS = tuple(COMPARE)
ORDERING_OPS = ("<=", ">=", "<", ">")

#: The most subjects or quantile bins that an array may be sized from.  Up
#: to it numpy refuses an array too large to allocate with MemoryError.
#: Beyond it (numpy 2.4), a float64 array of more than intp's max // 8
#: entries raises ValueError, as does np.arange(1, b) from b = 2**60 - 63,
#: and np.arange(1, b) at b = 2**63 - 2 or 2**63 - 1 is empty.  Half of
#: intp's max // 8 stays clear of both.
MAX_COUNT = np.iinfo(np.intp).max // 16


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
        if not 0 <= self.cost < math.inf:
            raise ValidationError(
                f"cost of {self.name!r} must be finite and >= 0, got {self.cost}")
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
    level codes (indices into ``spec.levels``) for binary/categorical ones;
    treatments are codes into ``treatment_names``.  Codes take the smallest
    unsigned dtype that ``code_dtype`` gives, one byte for up to 255 names.
    Outcomes are real, higher is better.
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
    def n_treatments(self) -> int:
        return len(self.treatment_names)

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
        """Build and validate a dataset from one cell sequence or array per
        column: each characteristic's (numbers or numeric strings for reals,
        level names otherwise), the treatment names and the outcomes.  A
        missing, non-numeric or non-finite number, or an unknown level or
        treatment, raises CellError for the first bad row of its column."""
        return cls.from_blocks(specs, treatment_names, treatment_costs, len(treatments),
                               [(cells, treatments, outcomes)])

    @classmethod
    def from_blocks(
        cls,
        specs: Sequence[CharacteristicSpec],
        treatment_names: Sequence[str],
        treatment_costs: Sequence[float],
        n: int,
        blocks: Iterable[tuple[Sequence[Sequence], Sequence[str], Sequence]],
    ) -> "Dataset":
        """``from_columns`` of n subjects that come as blocks of consecutive
        ones, each a (cells, treatments, outcomes) triple.  Each block is
        converted straight into the dataset's preallocated columns, so no
        block need outlive its turn.  A block's columns are converted in
        order, and a CellError names the bad cell's row among all n
        subjects."""
        specs = tuple(specs)
        treatment_names = tuple(treatment_names)
        if len(treatment_names) != len(set(treatment_names)):
            raise ValidationError("duplicate treatment names")
        costs = np.asarray(treatment_costs, dtype=float)
        if costs.shape != (len(treatment_names),):
            raise ValidationError("treatment_costs must match treatment_names")
        if not np.all((costs >= 0) & (costs < np.inf)):
            raise ValidationError("treatment costs must be finite and >= 0")
        if n == 0:
            raise ValidationError("dataset needs at least one subject")
        # per column: its name, and its level names, or None for numbers
        kinds = [(s.name, None if s.kind == REAL else s.levels) for s in specs]
        kinds += [("treatment", treatment_names), ("outcome", None)]
        out = [np.empty(n, dtype=float if names is None else code_dtype(len(names)))
               for _, names in kinds]
        start = 0
        for cells, treatments, outcomes in blocks:
            stop = start + len(treatments)
            block = (*cells, treatments, outcomes)
            if len(cells) != len(specs) or stop > n \
                    or any(len(c) != stop - start for c in block):
                raise ValidationError("every column needs one cell per subject")
            for col, (c, (name, names)) in enumerate(zip(block, kinds)):
                _column(c, out[col][start:stop], col, name, names, start)
            start = stop
            # let the block go before the next one is made
            del cells, treatments, outcomes, block, c
        if start != n:
            raise ValidationError("every column needs one cell per subject")
        *columns, treatments, outcomes = out
        return cls(specs=specs, treatment_names=treatment_names, treatment_costs=costs,
                   columns=tuple(columns), treatments=treatments, outcomes=outcomes)


def code_dtype(n_names: int) -> np.dtype:
    """The dtype of the codes into n_names level or treatment names: the
    smallest unsigned one that also holds n_names itself, which ``_column``
    writes where a cell has yet to match a name (uint8 up to 255 names)."""
    return np.min_scalar_type(n_names)


def _column(cells: Sequence, out: np.ndarray, col: int, name: str,
            names: tuple[str, ...] | None = None, first_row: int = 0) -> None:
    """Write cells into out: finite float64 numbers, or codes into ``names``
    when given.

    Converts the whole block at once, a string ndarray by one ``==`` per
    name; only a block that fails is scanned for its first bad cell, which
    CellError reports as row ``first_row`` + its index and column ``col``.
    A bytes (``S``) ndarray of UTF-8 text is compared with names' UTF-8
    bytes: numpy finds no bytes equal to a str.
    """
    try:
        if names is None:
            values = np.asarray(cells, dtype=float)
            if values.shape == out.shape and np.isfinite(values).all():
                out[...] = values
                return
        elif isinstance(cells, np.ndarray):
            unmatched = len(names)
            out.fill(unmatched)
            for k, v in enumerate(names):
                out[cells == (v.encode() if cells.dtype.kind == "S" else v)] = k
            if (out < unmatched).all():
                return
            cells = cells.astype(str).tolist()
        else:
            code = {v: k for k, v in enumerate(names)}
            out[...] = np.fromiter(map(code.__getitem__, cells), dtype=out.dtype,
                                   count=len(cells))
            return
    except (KeyError, TypeError, ValueError):
        pass
    for r, value in enumerate(cells):
        problem = _cell_problem(value, names)
        if problem:
            raise CellError(first_row + r, col, name, problem)
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
            # refuses nan, +-inf and ints beyond the doubles; compares ints exactly
            if isinstance(self.value, bool) or not isinstance(self.value, (int, float)) \
                    or not abs(self.value) <= sys.float_info.max:
                raise InvalidPredicateError(
                    f"real {spec.name!r} requires a finite numeric threshold, "
                    f"got {self.value!r}")
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

    def validate(self, specs: Sequence[CharacteristicSpec], n_treatments: int) -> None:
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


def predicate_mask(ds: Dataset, pred: Predicate) -> np.ndarray:
    """Boolean vector over all subjects for a single predicate."""
    pred.validate(ds.specs)
    spec = ds.specs[pred.feature]
    # a level feature's column holds codes, so compare with the level's code
    value = float(pred.value) if spec.kind == REAL else spec.levels.index(pred.value)
    return COMPARE[pred.op](ds.columns[pred.feature], value)


def pattern_mask(ds: Dataset, pattern: Pattern) -> np.ndarray:
    """Boolean vector over all subjects satisfying every predicate."""
    mask = predicate_mask(ds, pattern.predicates[0])
    for pred in pattern.predicates[1:]:
        mask = mask & predicate_mask(ds, pred)
    return mask


def partition(ds: Dataset, dl: DecisionList) -> np.ndarray:
    """First-match groups: entry i is the 0-based index of the first rule
    subject i satisfies, or ``len(dl.rules)`` for the default group."""
    dl.validate(ds.specs, ds.n_treatments)
    n = ds.n_subjects
    group = np.full(n, len(dl.rules), dtype=np.int64)
    unassigned = np.ones(n, dtype=bool)
    for j, (pattern, _) in enumerate(dl.rules):
        newly = pattern_mask(ds, pattern) & unassigned
        group[newly] = j
        unassigned &= ~newly
    return group


def group_treatments(dl: DecisionList) -> np.ndarray:
    """Treatment code of each group: one per rule, then the default's."""
    return np.asarray([t for _, t in dl.rules] + [dl.default_treatment], dtype=np.int64)


def assign(ds: Dataset, dl: DecisionList) -> np.ndarray:
    """Per-subject treatment codes under the regime."""
    return group_treatments(dl)[partition(ds, dl)]


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
