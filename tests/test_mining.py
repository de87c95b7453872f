"""Pattern mining against exhaustive enumeration and quantile oracles."""
from __future__ import annotations

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from regimelist.domain import (
    BINARY,
    REAL,
    CharacteristicSpec,
    Pattern,
    pattern_mask,
)
from regimelist.errors import EmptyCandidateSetError, SizeLimitError, ValidationError
from regimelist.mining import (
    CandidateSet,
    MiningConfig,
    build_atoms,
    discretize,
    mine_patterns,
)

from conftest import dataset_from_rows, oracle_quantile_thresholds, random_dataset


def real_only_dataset(values, m=2):
    specs = (CharacteristicSpec("x", REAL, 1.0),)
    names = tuple(f"t{a}" for a in range(m))
    rows = [((float(v),), names[i % m], 0.0) for i, v in enumerate(values)]
    return dataset_from_rows(specs, names, tuple(1.0 for _ in names), rows)


class TestConfig:
    def test_bounds_checked(self):
        with pytest.raises(ValidationError):
            MiningConfig(min_support=1.5)
        with pytest.raises(ValidationError):
            MiningConfig(max_predicates=0)
        with pytest.raises(ValidationError):
            MiningConfig(num_bins=1)

    def test_round_trip(self):
        cfg = MiningConfig(min_support=0.2, max_predicates=3, num_bins=5)
        assert MiningConfig.from_dict(cfg.to_dict()) == cfg


class TestDiscretize:
    def test_quartiles_of_1_to_100(self):
        ds = real_only_dataset(range(1, 101))
        cuts = discretize(ds, num_bins=4)[0]
        assert cuts == pytest.approx((25.75, 50.5, 75.25))

    def test_matches_sort_and_interpolate_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            vals = rng.normal(0, 5, size=int(rng.integers(5, 80)))
            bins = int(rng.integers(2, 7))
            ds = real_only_dataset(vals)
            got = discretize(ds, num_bins=bins).get(0, ())
            assert list(got) == pytest.approx(
                oracle_quantile_thresholds(vals, bins)
            )

    def test_thresholds_strictly_inside_range(self):
        ds = real_only_dataset([1.0] * 7 + [2.0] * 3)
        cuts = discretize(ds, num_bins=4)[0]
        assert all(1.0 < t < 2.0 for t in cuts)

    def test_bins_beyond_the_count_limit_refused(self):
        # np.arange(1, 2**63 - 1) is empty, so no threshold would be made
        with pytest.raises(SizeLimitError):
            discretize(real_only_dataset(range(1, 101)), num_bins=2 ** 63 - 1)

    def test_constant_column_has_no_thresholds(self):
        ds = real_only_dataset([3.0] * 12)
        assert discretize(ds, num_bins=4).get(0, ()) == ()

    def test_duplicates_removed(self):
        ds = real_only_dataset([1.0, 1.0, 1.0, 1.0, 5.0])
        cuts = discretize(ds, num_bins=4)[0]
        assert len(cuts) == len(set(cuts))

    def test_level_features_not_discretized(self):
        specs = (CharacteristicSpec("b", BINARY, 1.0, ("no", "yes")),)
        rows = [(("yes",), "a", 0.0), (("no",), "a", 0.0)]
        ds = dataset_from_rows(specs, ("a",), (1.0,), rows)
        assert discretize(ds) == {}


class TestAtoms:
    def test_level_atoms_use_level_strings(self):
        specs = (CharacteristicSpec("b", BINARY, 1.0, ("no", "yes")),)
        rows = [(("yes",), "a", 0.0), (("no",), "a", 0.0)]
        ds = dataset_from_rows(specs, ("a",), (1.0,), rows)
        atoms = build_atoms(ds, discretize(ds))
        assert {(a.op, a.value) for a in atoms} == {("=", "no"), ("=", "yes")}

    def test_real_atoms_come_in_ge_lt_pairs(self):
        ds = real_only_dataset(range(1, 101))
        atoms = build_atoms(ds, discretize(ds, num_bins=2))
        assert {(a.op, a.value) for a in atoms} == {(">=", 50.5), ("<", 50.5)}


def brute_force_frequent(ds, config: MiningConfig) -> dict[frozenset, int]:
    """All patterns over the atom set meeting min support, one predicate per
    feature, by direct enumeration."""
    atoms = build_atoms(ds, discretize(ds, config.num_bins))
    min_count = max(1, math.ceil(config.min_support * ds.n_subjects))
    out: dict[frozenset, int] = {}
    for size in range(1, config.max_predicates + 1):
        for combo in itertools.combinations(range(len(atoms)), size):
            preds = [atoms[i] for i in combo]
            if len({p.feature for p in preds}) < size:
                continue
            pat = Pattern(tuple(preds))
            count = int(pattern_mask(ds, pat).sum())
            if count >= min_count:
                out[frozenset(combo)] = count
    return out


class TestMinePatterns:
    def test_matches_exhaustive_enumeration(self):
        rng = np.random.default_rng(33)
        for trial in range(8):
            ds = random_dataset(
                rng,
                n_subjects=int(rng.integers(8, 20)),
                n_features=int(rng.integers(2, 5)),
                m=2,
            )
            config = MiningConfig(
                min_support=float(rng.uniform(0.1, 0.4)),
                max_predicates=int(rng.integers(1, 4)),
                num_bins=3,
            )
            cands = mine_patterns(ds, config)
            atoms = build_atoms(ds, discretize(ds, config.num_bins))
            atom_key = {(a.feature, a.op, a.value): i for i, a in enumerate(atoms)}
            got = {
                frozenset(atom_key[(p.feature, p.op, p.value)] for p in pat.predicates): c
                for pat, c in zip(cands.patterns, cands.counts)
            }
            assert got == brute_force_frequent(ds, config)

    def test_counts_are_true_coverage(self):
        rng = np.random.default_rng(35)
        ds = random_dataset(rng, n_subjects=30)
        cands = mine_patterns(ds, MiningConfig(min_support=0.1, max_predicates=2))
        for pat, count in zip(cands.patterns, cands.counts):
            assert int(pattern_mask(ds, pat).sum()) == count

    @pytest.mark.parametrize("max_predicates", [1, 2, 3])
    def test_packed_counts_are_true_coverage(self, max_predicates):
        # counts are popcounts of packed masks; 2,003 subjects leave five
        # bits of the last byte unused, which no count may include
        rng = np.random.default_rng(36)
        ds = random_dataset(rng, n_subjects=2003)
        cands = mine_patterns(ds, MiningConfig(min_support=0.02, max_predicates=max_predicates))
        assert max(len(pat.predicates) for pat in cands.patterns) == max_predicates
        for pat, count in zip(cands.patterns, cands.counts):
            assert int(pattern_mask(ds, pat).sum()) == count

    def test_downward_closure(self):
        # every sub-pattern of a mined pattern must itself meet min support
        rng = np.random.default_rng(37)
        ds = random_dataset(rng, n_subjects=40)
        config = MiningConfig(min_support=0.15, max_predicates=3)
        cands = mine_patterns(ds, config)
        min_count = max(1, math.ceil(config.min_support * ds.n_subjects))
        for pat in cands.patterns:
            for k in range(1, len(pat.predicates)):
                for sub in itertools.combinations(pat.predicates, k):
                    assert int(pattern_mask(ds, Pattern(sub)).sum()) >= min_count

    def test_zero_support_keeps_singletons(self):
        rng = np.random.default_rng(39)
        ds = random_dataset(rng, n_subjects=15)
        cands = mine_patterns(ds, MiningConfig(min_support=0.0, max_predicates=1))
        # every atom that matches at least one subject must appear
        atoms = build_atoms(ds, discretize(ds))
        expect = sum(1 for a in atoms if pattern_mask(ds, Pattern((a,))).sum() >= 1)
        assert len(cands) == expect

    def test_impossible_support_raises(self):
        specs = (CharacteristicSpec("b", BINARY, 1.0, ("no", "yes")),)
        rows = [(("yes",), "a", 0.0), (("no",), "a", 0.0)]
        ds = dataset_from_rows(specs, ("a",), (1.0,), rows)
        with pytest.raises(EmptyCandidateSetError):
            mine_patterns(ds, MiningConfig(min_support=1.0))

    def test_deterministic_order(self):
        rng = np.random.default_rng(41)
        ds = random_dataset(rng, n_subjects=25)
        a = mine_patterns(ds, MiningConfig(min_support=0.1))
        b = mine_patterns(ds, MiningConfig(min_support=0.1))
        assert a.patterns == b.patterns
        assert a.counts == b.counts

    def test_last_level_keeps_no_masks(self):
        # a pattern of the last level is never extended, so mining must not
        # keep its joint mask: the peak stays below one bit per (subject,
        # level-2 pattern), which keeping them all packed would exceed.  The
        # first call in a process makes a larger one-time allocation, so a
        # warm-up call comes before the traced one.
        rng = np.random.default_rng(5)
        ds = random_dataset(rng, n_subjects=20000, n_features=6, m=2)
        mine_patterns(ds, MiningConfig(max_predicates=2))
        tracemalloc.start()
        try:
            cands = mine_patterns(ds, MiningConfig(max_predicates=2))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        level2 = sum(len(pat.predicates) == 2 for pat in cands.patterns)
        assert level2 >= 100
        assert peak < level2 * ds.n_subjects / 8

    def test_round_trip(self):
        rng = np.random.default_rng(43)
        ds = random_dataset(rng, n_subjects=25)
        cands = mine_patterns(ds, MiningConfig(min_support=0.1, max_predicates=2))
        back = CandidateSet.from_dict(cands.to_dict(ds.specs), ds.specs)
        assert back.patterns == cands.patterns
        assert back.counts == cands.counts
        assert back.bins == cands.bins
