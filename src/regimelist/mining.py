"""Frequent-pattern mining over a dataset's characteristics.

Atomic predicates are level equalities for binary/categorical features and
threshold splits (>= t, < t at empirical quantiles) for real ones.  Patterns
are conjunctions of atoms, at most one per feature, grown depth-first from
the frequent atoms and pruned exactly by the anti-monotone support bound.
The resulting candidate set, ordered by pattern length and then by atoms,
is the pattern universe the regime search composes decision lists from.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from math import ceil
from typing import Sequence

import numpy as np

from .domain import (MAX_COUNT, REAL, CharacteristicSpec, Dataset, Pattern, Predicate,
                     predicate_mask)
from .errors import (EmptyCandidateSetError, SizeLimitError, ValidationError, config_values,
                     malformed)
from .io import pattern_from_list, pattern_to_list


@dataclass(frozen=True)
class MiningConfig:
    min_support: float = 0.05
    max_predicates: int = 4
    num_bins: int = 4

    def __post_init__(self) -> None:
        if not 0.0 <= self.min_support <= 1.0:
            raise ValidationError("min_support must lie in [0, 1]")
        if self.max_predicates < 1:
            raise ValidationError("max_predicates must be at least 1")
        # numpy can hold no more than intp's maximum of discretize's quantiles
        if not 2 <= self.num_bins <= np.iinfo(np.intp).max:
            raise ValidationError(f"num_bins must lie in [2, {np.iinfo(np.intp).max}]")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "MiningConfig":
        return cls(**config_values(d, asdict(cls()), "mining"))


def discretize(ds: Dataset, num_bins: int = 4) -> dict[int, tuple[float, ...]]:
    """Quantile thresholds per real feature, strictly inside (min, max).

    Returns {feature index: ascending thresholds}; a constant column maps to
    an empty tuple.  Binary and categorical features are absent.  More than
    MAX_COUNT bins raise SizeLimitError.
    """
    if num_bins < 2:
        raise ValidationError("num_bins must be at least 2")
    if num_bins > MAX_COUNT:
        raise SizeLimitError(f"num_bins {num_bins} exceeds the limit of {MAX_COUNT}")
    out: dict[int, tuple[float, ...]] = {}
    qs = np.arange(1, num_bins) / num_bins
    for f, spec in enumerate(ds.specs):
        if spec.kind != REAL:
            continue
        col = ds.columns[f]
        lo, hi = float(col.min()), float(col.max())
        thresholds = []
        for t in np.quantile(col, qs):
            t = float(t)
            if lo < t < hi and (not thresholds or t > thresholds[-1]):
                thresholds.append(t)
        out[f] = tuple(thresholds)
    return out


def build_atoms(ds: Dataset, bins: dict[int, tuple[float, ...]]) -> tuple[Predicate, ...]:
    """Atomic predicates in canonical order: by feature, then level/threshold."""
    atoms: list[Predicate] = []
    for f, spec in enumerate(ds.specs):
        if spec.kind == REAL:
            for t in bins.get(f, ()):
                atoms.append(Predicate(f, ">=", t))
                atoms.append(Predicate(f, "<", t))
        else:
            for level in spec.levels:
                atoms.append(Predicate(f, "=", level))
    return tuple(atoms)


@dataclass(frozen=True)
class CandidateSet:
    """Immutable mining result: patterns with coverage counts, plus the bins."""

    patterns: tuple[Pattern, ...]
    counts: tuple[int, ...]
    bins: dict[int, tuple[float, ...]]
    n_subjects: int
    config: MiningConfig

    def __post_init__(self) -> None:
        if len(self.patterns) != len(self.counts):
            raise ValidationError("patterns and counts must align")

    def __len__(self) -> int:
        return len(self.patterns)

    def to_dict(self, specs: Sequence[CharacteristicSpec]) -> dict:
        return {
            "n_subjects": self.n_subjects,
            "config": self.config.to_dict(),
            "bins": {specs[f].name: list(ts) for f, ts in self.bins.items()},
            "patterns": [{"predicates": pattern_to_list(pat, specs), "count": c}
                         for pat, c in zip(self.patterns, self.counts)],
        }

    @classmethod
    def from_dict(cls, d: dict, specs: Sequence[CharacteristicSpec]) -> "CandidateSet":
        name_to_idx = {s.name: i for i, s in enumerate(specs)}
        with malformed("candidate set"):
            entries = d["patterns"]
            return cls(
                patterns=tuple(pattern_from_list(e["predicates"], specs) for e in entries),
                counts=tuple(int(e["count"]) for e in entries),
                bins={name_to_idx[name]: tuple(float(t) for t in ts)
                      for name, ts in d["bins"].items()},
                n_subjects=int(d["n_subjects"]),
                config=MiningConfig.from_dict(d.get("config", {})),
            )


def mine_patterns(ds: Dataset, config: MiningConfig = MiningConfig()) -> CandidateSet:
    """Depth-first frequent-conjunction mining.

    A pattern survives when it covers at least max(1, ceil(min_support * N))
    subjects.  Support is anti-monotone, so only a surviving pattern is
    extended, each time by a later surviving atom on a feature it does not
    read yet; the walk thus meets every surviving pattern exactly once.  The
    patterns come out by length, then by atom ids in canonical order.
    Raises EmptyCandidateSetError when nothing survives.
    """
    n = ds.n_subjects
    min_count = max(1, ceil(config.min_support * n))
    bins = discretize(ds, config.num_bins)
    atoms = build_atoms(ds, bins)
    # packed atom masks: a joint mask is their AND, a count its popcount
    masks = [np.packbits(predicate_mask(ds, a)) for a in atoms]

    singles: list[int] = []
    found: list[tuple[tuple[int, ...], int]] = []
    for j, mask in enumerate(masks):
        count = int(np.bitwise_count(mask).sum())
        if count >= min_count:
            singles.append(j)
            found.append(((j,), count))
    # patterns still to extend, with their joint masks and the position in
    # singles of their first possible extension; an explicit stack, so that
    # no input can exhaust Python's recursion limit
    stack = [((j,), masks[j], k + 1) for k, j in enumerate(singles)
             if config.max_predicates > 1]
    while stack:
        ids, mask, start = stack.pop()
        used = {atoms[i].feature for i in ids}
        for k in range(start, len(singles)):
            j = singles[k]
            if atoms[j].feature in used:
                continue
            joint = mask & masks[j]
            count = int(np.bitwise_count(joint).sum())
            if count >= min_count:
                cand = ids + (j,)
                found.append((cand, count))
                # a pattern of the last length is never extended: drop its mask
                if len(cand) < config.max_predicates:
                    stack.append((cand, joint, k + 1))

    if not found:
        raise EmptyCandidateSetError(
            f"no pattern covers {min_count} of {n} subjects; lower min_support"
        )
    found.sort(key=lambda e: (len(e[0]), e[0]))
    patterns = tuple(Pattern(tuple(atoms[i] for i in ids)) for ids, _ in found)
    return CandidateSet(patterns=patterns, counts=tuple(c for _, c in found), bins=bins,
                        n_subjects=n, config=config)
