"""Decision-list optimization over a mined candidate set.

The construction of a list is a sequential decision process: each action
appends one rule on a pattern to the prefix, or closes the list by choosing a
default treatment.  Because matching is first-match, a subject's score and
treatment cost are final the moment a rule covers it, so a prefix carries
exact incurred sums, and its uncovered remainder can add at most an
optimistic value per subject.  A rule's treatment changes only the value of
the subjects it newly covers, and no assessment cost depends on it, so an
optimal list gives each rule the arm of largest value over them, as CORELS
and SBRL fix a rule's label (arXiv 1704.01701, 1602.08610): a state has one
rule child per pattern, and ``apply`` picks its arm.  Three solvers share
this state machinery: UCT (the main engine), exhaustive enumeration
(small-instance oracle), and a greedy baseline.  ``SearchProblem.ordered_actions``
is their one legality rule and their one bound on an open prefix, batched
over all children in float32 products of bits packed per subject: a pattern
is a prefix, the AND of all its predicates but the last, and its last
predicate, so one product of prefix bits into predicate bits times the
summed columns prices every pattern.
A closing child's bound is its exact objective, all m of them from one pass
over the prefix's uncovered subjects.  The same product gives each rule
child ``lo``, the objective of the list that closes it with its best
default, to within a proven half-width.  ``Frontier.next_index`` is their
one expansion step: it yields only a child whose bound can beat the
incumbent, and counts every child it skips; ``Frontier.take`` builds that
child with ``apply``.  An open state holds its covered set packed like a
pattern's row, which ``apply`` ORs in: ``SearchProblem.row`` ANDs it from
packed predicate masks.  ``SearchProblem.close``, closing a prefix with its
best default, is how UCT and greedy complete a list.

The UCT tree holds only prefixes that can still grow.  A closed list, or a
full prefix whose only children are the defaults, is a leaf that its parent
only counts.  A closed list is scored by its exact ``hi``, a full prefix by
its ``lo``; it is built, closed and scored exactly only if ``lo`` plus its
half-width can beat the incumbent, which only an exact objective sets.
Greedy likewise scores exactly only the rule children whose ``lo`` range
reaches the best child's.  An interior node's frontier keeps, and
``ordered_actions`` bounds, only the WINDOW children it takes first, as
progressive widening lets it take few; it orders its children again, all
of them, only if it spends them.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .domain import Dataset, DecisionList, Predicate, feature_set_cost, predicate_mask
from .errors import SizeLimitError, ValidationError, config_values
from .estimation import DRScoreMatrix
from .mining import CandidateSet
from .objective import ObjectiveWeights, check_scores

Action = int
# p >= 0 appends a rule on pattern p, whose arm apply picks, and d - m closes
# the list with default d, so ascending codes run in pattern order with the
# defaults first.  A prefix stores its rules as (pattern, treatment) pairs.

# subjects per float32 product of _sums: up to 512 ones add exactly in float32
BLOCK = 512
EXHAUSTIVE_MAX_PATTERNS = 10
EXHAUSTIVE_MAX_DEPTH = 4
# progressive widening: a node may hold at most ceil(c * visits^alpha)
# children, so wide action spaces deepen instead of expanding breadth-first
WIDEN_C = 2.0
WIDEN_ALPHA = 0.3
# children whose codes and bounds a UCT frontier keeps at a time, a window
# wider than widening lets most nodes reach
WINDOW = 64


def _gamma(k: int, unit: float) -> float:
    """Bound on the relative error of k roundings of the given unit."""
    return k * unit / (1.0 - k * unit)


@dataclass(frozen=True)
class SearchConfig:
    iterations: int = 2000
    c_explore: float = 1.414
    # accepted and range-checked for existing configs; the search draws no
    # random numbers, so it does not change the result
    seed: int = 0
    L_max: int = 4
    charge_default_full: bool = False

    def __post_init__(self) -> None:
        if self.iterations < 1:
            raise ValidationError("iterations must be positive")
        if not 0 <= self.c_explore < math.inf:
            raise ValidationError("c_explore must be finite and nonnegative")
        if self.seed < 0:
            raise ValidationError("seed must be nonnegative")
        if self.L_max < 0:
            raise ValidationError("L_max must be nonnegative")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "SearchConfig":
        return cls(**config_values(d, asdict(cls()), "search"))


@dataclass(slots=True)
class SearchState:
    """A rule-list prefix with its exactly-incurred sums.

    packed holds the covered subjects in ceil(n / 8) bytes laid out like
    ``SearchProblem.row``'s, shared with the closed lists taken from it.
    features is the bitmask of the characteristics its patterns read;
    incurred_value is the sum over covered subjects of lambda1*score -
    lambda3*treatment_cost for their assigned arm; incurred_assess the sum
    of their prefix assessment costs.  UCT keeps a state only in an
    interior node, so a full prefix's lives only until it is scored.
    """

    prefix: tuple[tuple[int, int], ...]
    packed: np.ndarray
    features: int
    incurred_assess: float
    incurred_value: float
    # the closing default arm, -1 while the list is open
    default_treatment: int = -1
    # the state this one was built from; ordered_actions' sums, kept for children
    parent: SearchState | None = field(default=None, compare=False, repr=False)
    sums: np.ndarray | None = field(default=None, compare=False, repr=False)
    # SearchProblem.default_sums, computed once and shared with the closed
    # lists taken from the state
    default_sums: tuple[float, ...] | None = field(default=None, compare=False, repr=False)

    @property
    def depth(self) -> int:
        return len(self.prefix)

    @property
    def terminal(self) -> bool:
        return self.default_treatment >= 0


def _unpack(packed: np.ndarray, n: int) -> np.ndarray:
    """The first n bits of packbits bytes, as a bool array."""
    return np.unpackbits(packed, count=n).view(bool)


def _stable_tail(keys: np.ndarray, r: int) -> np.ndarray:
    """The last r entries of np.argsort(keys, kind="stable") for finite keys:
    keys ascending, equal keys in index order.  A partition finds the r-th
    largest key; every key above it is in the tail, and of those equal to
    it the last ones in index order fill the rest."""
    if r >= len(keys):
        return np.argsort(keys, kind="stable")
    if r <= 0:
        return np.empty(0, dtype=np.intp)
    kth = len(keys) - r
    pivot = keys[np.argpartition(keys, kth)[kth]]
    above = np.flatnonzero(keys > pivot)
    ties = np.flatnonzero(keys == pivot)
    tail = np.concatenate([ties[len(ties) - (r - len(above)):], above])
    return tail[np.argsort(keys[tail], kind="stable")]


def _tail(window: int | None, *arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """The arrays, or their last ``window`` entries if they are longer."""
    if window is None or len(arrays[0]) <= window:
        return arrays
    return tuple(a[len(a) - window:] for a in arrays)


def _by_subject(rows: np.ndarray, n: int) -> np.ndarray:
    """Rows of packed bits over n subjects, packed subject by subject instead:
    row j in bit 7 - j % 8 of byte j // 8, transposed BLOCK subjects at a time."""
    out = np.empty((n, -(-len(rows) // 8)), dtype=np.uint8)
    for i in range(0, n, BLOCK):
        bits = np.unpackbits(rows[:, i // 8:(i + BLOCK) // 8], axis=1, count=min(BLOCK, n - i))
        out[i:i + BLOCK] = np.packbits(bits.T, axis=1)
    return out


class SearchProblem:
    """Shared precomputation and transition logic for all three solvers."""

    def __init__(
        self,
        ds: Dataset,
        scores: DRScoreMatrix,
        cands: CandidateSet,
        weights: ObjectiveWeights = ObjectiveWeights(),
        config: SearchConfig = SearchConfig(),
    ):
        check_scores(ds, scores, weights)
        self.ds = ds
        self.weights = weights
        self.L_max = config.L_max
        self.charge_default_full = config.charge_default_full
        self.patterns = cands.patterns
        self.n = ds.n_subjects
        self.m = ds.n_treatments
        # the codes of the m defaults, which every ordered_actions call returns
        self.default_codes = np.arange(-self.m, 0, dtype=np.int32)
        self.default_codes.flags.writeable = False
        # each distinct predicate's mask, packed like SearchState.packed, and
        # each pattern's predicate rows there, which row ANDs on demand
        index: dict[Predicate, int] = {}
        self._pattern_preds = [[index.setdefault(pred, len(index)) for pred in pat.predicates]
                               for pat in self.patterns]
        self._pred_rows = np.empty((len(index), -(-self.n // 8)), dtype=np.uint8)
        for pred, q in index.items():
            self._pred_rows[q] = np.packbits(predicate_mask(ds, pred))
        self._pred_rows.flags.writeable = False
        self.coverage = np.array([np.bitwise_count(self.row(p)).sum()
                                  for p in range(len(self.patterns))], dtype=np.int64)
        # a pattern is its prefix, the AND of all its predicates but the last
        # (prefix 0: none, so every subject), and its last predicate
        prefixes: dict[tuple[int, ...], int] = {(): 0}
        self._prefix_of = np.array([prefixes.setdefault(tuple(qs[:-1]), len(prefixes))
                                    for qs in self._pattern_preds], dtype=np.intp)
        self._last_of = np.array([qs[-1] for qs in self._pattern_preds], dtype=np.intp)
        self._n_prefixes = len(prefixes)
        prefix_rows = np.full((len(prefixes), self._pred_rows.shape[1]), 255, dtype=np.uint8)
        for qs, k in prefixes.items():
            for q in qs:
                prefix_rows[k] &= self._pred_rows[q]
        # predicates and prefixes packed per subject, for _sums
        self._pred_bits = _by_subject(self._pred_rows, self.n)
        self._prefix_bits = _by_subject(prefix_rows, self.n)
        # per arm (row) and subject, its contribution once a rule assigns
        # that arm: lambda1 * score - lambda3 * cost, a contiguous row per arm
        self.value_cols = np.empty((self.m, self.n))
        np.multiply(scores.scores.T, weights.lambda1, out=self.value_cols)
        self.value_cols -= weights.lambda3 * ds.treatment_costs[:, None]
        # optimistic per-subject future value: best score and cheapest arm
        # taken independently, an upper bound on any actual assignment
        self.optimistic = (weights.lambda1 * scores.scores.max(axis=1)
                           - weights.lambda3 * float(ds.treatment_costs.min()))
        self.pattern_features = tuple(sum(1 << f for f in pat.features)
                                      for pat in self.patterns)
        # distinct pattern feature masks, as rows of feature bits, priced
        # once per state feature mask
        feature_masks, self._feature_index = np.unique(
            np.array(self.pattern_features, dtype=object), return_inverse=True)
        self._mask_bits = np.array([[mask >> f & 1 for f in range(len(ds.specs))]
                                    for mask in feature_masks.tolist()],
                                   dtype=bool).reshape(len(feature_masks), len(ds.specs))
        self._feature_costs = tuple(float(spec.cost) for spec in ds.specs)
        self._costs: dict[int, float] = {}
        self._mask_costs: dict[int, np.ndarray] = {}
        # a default's lo is its exact objective, with no half-width
        self._no_halves = np.zeros(self.m)
        self._no_halves.flags.writeable = False
        # the power of two _table's value columns are divided by, 1 unless
        # an entry reaches 2^118 (see ordered_actions)
        vo_max = float(np.abs(self.value_cols).max() + np.abs(self.optimistic).max())
        self._scale = 2.0 ** max(0, math.frexp(vo_max)[1] - 118)
        # rounding slack of ordered_actions' rule bounds, before the division
        # by n: per float32 term of a pattern's sums, and per bound
        g32 = _gamma(min(self.n, BLOCK) + 1, 2.0 ** -24)
        self._slack_per_term = g32 * vo_max + 2.0 ** -149 * self._scale
        self._slack = 2 * _gamma(3 * self.n + 16, 2.0 ** -53) * self.n * (
            (4 + 2 * g32) * vo_max
            + 3 * weights.lambda2 * feature_set_cost(ds.specs, range(len(ds.specs)))
        ) + 2.0 ** -1000
        # the float32 columns (1, optimistic, each arm's value) that _sums
        # adds up, all but the count divided by scale
        self._table = np.empty((self.n, self.m + 2), dtype=np.float32)
        self._table[:, 0] = 1.0
        np.divide(self.optimistic, self._scale, out=self._table[:, 1])
        np.divide(self.value_cols.T, self._scale, out=self._table[:, 2:])
        # _sums' buffers: per block the prefix and predicate bits as float32
        # and their product, per call the float64 totals over (prefix,
        # column, last predicate), and where in those each (column, pattern)
        # sum lies
        n_cols, n_preds, block = self.m + 2, len(index), min(BLOCK, self.n)
        self._left = np.empty((block, self._n_prefixes), dtype=np.float32)
        self._preds = np.empty((block, n_preds), dtype=np.float32)
        self._product = np.empty((self._n_prefixes, n_cols * n_preds), dtype=np.float32)
        self._gram = np.empty((self._n_prefixes, n_cols * n_preds))
        self._sum_at = (self._prefix_of * (n_cols * n_preds) + self._last_of
                        + (np.arange(n_cols) * n_preds)[:, None])

    def row(self, p: int) -> np.ndarray:
        """Pattern p's coverage, packed like ``SearchState.packed`` (read-only)."""
        first, *rest = self._pattern_preds[p]
        row = self._pred_rows[first]
        for q in rest:
            row = row & self._pred_rows[q]
        return row

    def initial_state(self) -> SearchState:
        return SearchState(prefix=(), packed=np.zeros(-(-self.n // 8), dtype=np.uint8),
                           features=0, incurred_assess=0.0, incurred_value=0.0)

    def feature_cost(self, features: int) -> float:
        """feature_set_cost of a feature bitmask, memoized per mask."""
        if features not in self._costs:
            self._costs[features] = feature_set_cost(
                self.ds.specs, [f for f in range(len(self.ds.specs)) if features >> f & 1])
        return self._costs[features]

    def _charges(self, features: int) -> np.ndarray:
        """Per distinct pattern feature mask, the feature cost of a prefix
        billing ``features`` extended by it, memoized per prefix mask: bit
        for bit ``feature_cost``, whose sum runs in ascending feature order."""
        if features not in self._mask_costs:
            costs = np.zeros(len(self._mask_bits))
            for f, cost in enumerate(self._feature_costs):
                if features >> f & 1:
                    costs += cost
                else:
                    np.add(costs, cost, out=costs, where=self._mask_bits[:, f])
            self._mask_costs[features] = costs
        return self._mask_costs[features]

    def ordered_actions(
            self, state: SearchState,
            window: int | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The legal actions of a non-terminal state, a bound per child, and
        an estimate of each child's closed list with its half-width.

        Returns int32 action codes (at depth L_max, the problem's read-only
        ``default_codes``) and, for each, a float64 ``hi`` at least
        the objective of every list completing apply(state, code), a float64
        ``lo`` and a float64 half-width ``s``, ordered
        for expansion from the end: defaults first, the last arm first, then
        rules by decreasing one-step gain.  Given a window, it returns only
        the last ``window`` of each array, bit for bit the tail of the whole:
        every rule child's key still sets the order, but only the rules in
        the window are bounded.  Any default is legal, and its
        ``hi`` is the closed list's exact objective, bit for bit
        ``state_bound``'s, all m from the state's ``default_sums``; so is its
        ``lo``, with ``s`` 0.  Below
        depth L_max, so is the rule on every pattern p that newly covers
        someone (a used pattern covers nobody new, and a rule covering
        nobody new only adds cost, so no optimum is lost).  The key of p is the largest over treatments t
        of the value of (p, t) on the cnt subjects p newly covers, minus what
        the state's best default would give them, minus lambda2 * cnt * the
        feature cost of the extended prefix; it orders the actions and never
        selects them.

        A rule's ``hi`` rounds up an exact bound: the largest over t of a
        rule (p, t)'s settled sums plus, per subject it leaves uncovered,
        the best score minus the cheapest treatment
        (``optimistic``) minus the child's default assessment charge.  No
        completion gives that subject more, or bills it less, as later groups
        bill a superset of features.  The one child ``apply`` builds for p is
        the rule (p, t*) for some arm t*, so the largest of the per-arm bounds
        bounds its completions; and fixing t* loses no optimum, as swapping a
        rule's arm for t* changes only the value of its newly covered
        subjects, and never lowers it.

        The rule bounds are batched: per pattern, float64 sums of the
        float32 columns (1, optimistic, each arm's value) over the subjects
        it would newly cover give its count cnt and its optimistic and
        per-arm value sums (``_sums``); ``default_sums`` picks the best
        default that the keys compare with.  The bounds are sound.  With
        gamma(k, u) = k*u / (1 - k*u), k roundings of unit u move a term by
        a factor within 1 +- gamma(k, u) in any summation order (Higham,
        Accuracy and Stability of Numerical Algorithms, Sec. 3.1).  With V =
        max|value_cols| + max|optimistic| < 2^e, the table holds the value
        columns divided by scale = 2^max(0, e - 118), exactly barring
        underflow, so no float32 sum of at most 2^9 entries overflows.  A
        block sums in float32 at most min(n, 512) exact products, a
        subject's prefix bit times its last-predicate bit times an entry
        rounded to float32, each thus off by a factor within 1 +- g, g =
        gamma(min(n, 512) + 1, 2^-24), plus 2^-150 if subnormal, which
        ``_sums``' exact multiplication back by scale makes 2^-150 * scale;
        its count is exact, as are float64 sums of counts, so cnt is exact
        for any n.
        Along the states a state's sums come from, a subject covered
        by p enters the first product, and one subtraction if a rule newly
        covers it: p's two sums in the estimate hold at most 2 * count_p -
        cnt float32 terms (count_p: p's coverage), off by at most d * (2 *
        count_p - cnt), d = g * V + 2^-149 * scale.
        In float64 a block result passes at most 3n roundings (2n blocks, n
        subtractions, each after a rule covering someone new), any other term
        at most 2n, plus 8 in the final expression; the terms total at most T
        = n * ((3 + 2g) * V + 3 * lambda2 * C), C the cost of all
        characteristics.  So the estimate, and any float64 evaluation of the
        exact bound, is off by at most gamma(3n + 8, 2^-53) * T, plus 2^-1075
        per underflowing product.  ``hi`` adds d * (2 * count_p - cnt) + 2 *
        gamma(3n + 16, 2^-53) * n * ((4 + 2g) * V + 3 * lambda2 * C) +
        2^-1000, whose excess covers its own rounding, before the monotone
        division by n.  No float64 term overflows: ``check_scores`` keeps 64
        times n * (lambda1 * max|score| + lambda2 * C + lambda3 * max cost)
        finite, and each term is a few times that at most.  A loose slack
        only costs building the children it lets through.

        A rule's ``lo`` is the objective, from the same sums, of the list
        that ``close`` makes of the child ``apply`` builds: (settled +
        max_t gains[p, t] - charge[p] + max_d(default_sums[d] - gains[p, d])
        - lambda2 * child default charge * (n_uncovered - cnt)) / n.  The
        child's arm has the largest exact value over the cnt subjects, its
        best default the largest exact sum over the rest, the state's
        ``default_sums`` minus theirs, and a max moves by at most the largest
        error of its arguments.  So, with exact the float64 objective
        ``state_bound`` gives that list, |lo - exact| <= s, where s = (2 * d
        * (2 * count_p - cnt) + the rule slack above) / n: two float32 sums
        of p, each off by at most the per-term bound above, and the float64
        rounding of both sides, each within gamma(3n + 8,
        2^-53) * T of the real objective (T's terms: the settled sums, the
        two gains, the charges and the default sums, at most n * ((3 + 2g)
        * V + 3 * lambda2 * C)), with the excess covering the divisions by n
        and the rounding of s itself.  The exact objective is a double, so
        lo + s and lo - s, rounded, still bracket it.
        """
        if state.terminal:
            raise ValidationError("terminal state has no actions")
        default_codes = self.default_codes
        default_sums = self.default_sums(state)
        default_his = self._closed(state, default_sums)
        if state.depth >= self.L_max:
            return _tail(window, default_codes, default_his, default_his, self._no_halves)

        lam2 = self.weights.lambda2
        uncov = _unpack(~state.packed, self.n)
        n_unc = int(np.count_nonzero(uncov))
        settled = state.incurred_value - lam2 * state.incurred_assess
        sums = self._sums(state)
        if state.depth + 1 < self.L_max:  # its children may append rules
            state.sums = sums
        counts = sums[0].astype(np.int64)
        eligible = np.flatnonzero(counts >= 1)
        cnt = counts[eligible]
        # gains[k, t]: total value of assigning t to the subjects pattern
        # eligible[k] would newly cover
        gains = sums[2:, eligible].T
        new_cost = self._charges(state.features)[self._feature_index[eligible]]
        best_default = int(np.argmax(default_sums))
        charge = lam2 * new_cost * cnt
        keys = (gains - gains[:, best_default, None] - charge[:, None]).max(axis=1)
        # stable: equal keys keep pattern order; a window needs only the
        # rules it has room for beside the defaults
        order = _stable_tail(keys, len(keys) if window is None else window - self.m)
        # the bounds of the rules kept, in order
        codes, cnt, gains, charge = eligible[order], cnt[order], gains[order], charge[order]
        child_default = new_cost[order] if self.charge_default_full else 0.0
        default_charge = lam2 * child_default * (n_unc - cnt)
        per_pattern = (float(uncov.astype(np.float64) @ self.optimistic)
                       - sums[1, codes] - charge - default_charge)
        estimate = settled + gains + per_pattern[:, None]
        term = self._slack_per_term * (2 * self.coverage[codes] - cnt)
        rule_his = ((estimate + (term + self._slack)[:, None]) / self.n).max(axis=1)
        rule_los = (settled + gains.max(axis=1) - charge
                    + (default_sums - gains).max(axis=1) - default_charge) / self.n
        halves = (2 * term + self._slack) / self.n
        return _tail(window,
                     np.concatenate([codes.astype(np.int32), default_codes]),
                     np.concatenate([rule_his, default_his]),
                     np.concatenate([rule_los, default_his]),
                     np.concatenate([halves, self._no_halves]))

    def _sums(self, state: SearchState) -> np.ndarray:
        """Per pattern (column), float64 totals of the float32 table's columns
        (rows) over the uncovered subjects it covers, the value rows
        multiplied back by scale: the parent's kept sums minus those over the
        newly covered, if it has any.  Per block of BLOCK subjects, one
        float32 product of the prefix bits into each table column times each
        predicate bit sums every column over every (prefix, last predicate)
        pair; a pattern takes its pair's sums."""
        parent = state.parent
        incremental = parent is not None and parent.sums is not None
        rows = np.flatnonzero(_unpack(
            state.packed & ~parent.packed if incremental else ~state.packed, self.n))
        n_cols, n_preds = self._table.shape[1], len(self._pred_rows)
        gram = self._gram
        gram.fill(0.0)
        for i in range(0, len(rows), BLOCK):
            block = rows[i:i + BLOCK]
            b = len(block)
            left, preds = self._left[:b], self._preds[:b]
            left[...] = np.unpackbits(self._prefix_bits[block], axis=1, count=self._n_prefixes)
            preds[...] = np.unpackbits(self._pred_bits[block], axis=1, count=n_preds)
            # each table entry times each predicate bit; einsum's product
            # of an entry by a 0 bit may be +0 where the plain one is -0,
            # which the float64 totals, filled with +0, never keep
            right = np.einsum("rc,rq->rcq", self._table[block], preds)
            np.matmul(left.T, right.reshape(b, n_cols * n_preds), out=self._product)
            gram += self._product
        sums = gram.take(self._sum_at)
        sums[1:] *= self._scale
        return parent.sums - sums if incremental else sums

    def apply(self, state: SearchState, action: Action) -> SearchState:
        """The child of an action: a closed list, or the prefix extended by a
        rule on pattern ``action`` with the arm of largest exact value over
        the subjects it newly covers, the lowest arm on a tie."""
        if action < 0:
            return replace(state, default_treatment=action + self.m)
        row = self.row(action)
        newly = _unpack(row & ~state.packed, self.n)
        # each arm's sum, bit for bit np.compress(newly, value_cols[t]).sum()
        values = np.compress(newly, self.value_cols, axis=1).sum(axis=1)
        t = int(np.argmax(values))
        features = state.features | self.pattern_features[action]
        return SearchState(
            prefix=state.prefix + ((action, t),),
            packed=state.packed | row,
            features=features,
            incurred_assess=(state.incurred_assess
                             + self.feature_cost(features) * np.count_nonzero(newly)),
            incurred_value=state.incurred_value + float(values[t]),
            parent=state,
        )

    def default_assessment(self, state: SearchState) -> float:
        if not self.charge_default_full or not state.prefix:
            return 0.0
        return self.feature_cost(state.features)

    def default_sums(self, state: SearchState) -> np.ndarray:
        """Per arm, its row of value_cols summed over the uncovered subjects
        by np.compress, one row at a time: what a default adds to the
        state's settled sums.  They are computed once per state and kept on
        it, for ``close``, ``ordered_actions`` and the closed lists taken
        from it, which ``state_bound`` scores."""
        if state.default_sums is None:
            uncovered = _unpack(~state.packed, self.n)
            state.default_sums = tuple(float(np.compress(uncovered, row).sum())
                                       for row in self.value_cols)
        return np.array(state.default_sums)

    def close(self, state: SearchState) -> SearchState:
        """The prefix closed with the default that gives its rules their best
        list: the largest value summed over the uncovered subjects."""
        return self.apply(state, int(np.argmax(self.default_sums(state))) - self.m)

    def state_bound(self, state: SearchState) -> float:
        """The exact objective of a closed list.  An open prefix has none; its
        children are bounded by ``ordered_actions``, a closing one by this
        same objective."""
        if not state.terminal:
            raise ValidationError("only a terminal state has an exact objective")
        return float(self._closed(state, self.default_sums(state)[state.default_treatment]))

    def _closed(self, state: SearchState, sums: float | np.ndarray) -> float | np.ndarray:
        """The exact objective of the state's prefix closed with a default
        whose ``default_sums`` entry is sums, or one per entry of an array."""
        lam2 = self.weights.lambda2
        n_uncovered = self.n - int(np.bitwise_count(state.packed).sum())
        return (state.incurred_value - lam2 * state.incurred_assess + sums
                - lam2 * self.default_assessment(state) * n_uncovered) / self.n

    def decision_list(self, state: SearchState) -> DecisionList:
        if not state.terminal:
            raise ValidationError("only a terminal state defines a decision list")
        rules = tuple((self.patterns[p], t) for p, t in state.prefix)
        return DecisionList(rules=rules, default_treatment=state.default_treatment)


class Frontier:
    """An open state's untried children: action codes, their bounds his,
    their closed-list estimates los and those estimates' half-widths, as
    ``ordered_actions`` returns them or reordered, taken from the end.

    A ``windowed`` frontier holds only the last of them and, in front of
    them, one earlier child if there are earlier ones, which it never takes:
    it orders the children again once it has taken the rest."""

    __slots__ = ("state", "codes", "his", "los", "halves", "cursor", "earlier")

    def __init__(self, state: SearchState, codes: np.ndarray, his: np.ndarray,
                 los: np.ndarray, halves: np.ndarray):
        self.state, self.codes, self.his, self.los, self.halves = state, codes, his, los, halves
        self.cursor = len(codes)
        self.earlier = False

    @classmethod
    def windowed(cls, problem: SearchProblem, state: SearchState) -> Frontier:
        """The WINDOW children taken first in ``ordered_actions``' order,
        which bounds only those and one more, the sign of earlier children,
        kept as it returns them.  The call is deterministic, so the state and
        the sums its parent keeps give the same order again."""
        frontier = cls(state, *problem.ordered_actions(state, WINDOW + 1))
        frontier.earlier = len(frontier.codes) > WINDOW
        return frontier

    @classmethod
    def by_code(cls, state: SearchState, codes: np.ndarray, his: np.ndarray,
                los: np.ndarray, halves: np.ndarray) -> Frontier:
        """The children taken in ascending code order: the defaults, then the
        rules in pattern order."""
        order = np.argsort(codes)[::-1]
        return cls(state, codes[order], his[order], los[order], halves[order])

    def next_index(self, problem: SearchProblem, incumbent: float,
                   pruned: Counter) -> int | None:
        """The index in the arrays of the next child that can beat the
        incumbent, which leaves the frontier; None once none is left.  A
        child whose ``hi`` cannot beat the incumbent is skipped, and
        counted under "hi"."""
        while self.cursor or self.earlier:
            if self.cursor == self.earlier:
                # the window is spent, all but the sign of earlier children:
                # order the children again, and keep them whole, of which
                # the earlier ones are left
                taken = len(self.codes) - 1
                self.codes, self.his, self.los, self.halves = problem.ordered_actions(self.state)
                self.cursor, self.earlier = len(self.codes) - taken, False
            self.cursor -= 1
            if self.his[self.cursor] <= incumbent:
                pruned["hi"] += 1
                continue
            return self.cursor
        return None

    def take(self, problem: SearchProblem, incumbent: float,
             pruned: Counter) -> tuple[SearchState, float] | None:
        """The next child that can beat the incumbent, built by ``apply``,
        with its ``hi``: a bound on every list completing it, a closing
        child's exact objective.  None once none is left; the children
        ``next_index`` skips are never built."""
        k = self.next_index(problem, incumbent, pruned)
        if k is None:
            return None
        return problem.apply(self.state, int(self.codes[k])), float(self.his[k])


class SearchNode:
    """An open prefix in the UCT tree: the root, or a prefix below depth
    L_max, which may still take rule children; its frontier is made when it
    is first selected.  A closed list or a full prefix it takes is a leaf:
    scored once, when it is taken, and only counted in ``leaves``."""

    __slots__ = ("state", "bound", "visits", "total_reward", "children", "leaves",
                 "frontier", "fully_explored")

    def __init__(self, state: SearchState, bound: float):
        self.state = state
        self.bound = bound
        self.visits = 0
        self.total_reward = 0.0
        self.children: list[SearchNode] = []
        self.leaves = 0
        self.frontier: Frontier | None = None
        self.fully_explored = False


@dataclass
class SearchResult:
    """pruned: children skipped by a bound, by reason ("hi": next_index's
    bound, "lo": greedy's children whose closed list cannot be the step's
    best, "node": UCT's built prefixes pruned at selection), 0 where a solver
    has none; n_evaluated: closed lists exhaustive_search kept;
    leaves_from_lo and leaves_confirmed: UCT's full prefixes scored by their
    parent's lo, and those built and scored exactly."""

    decision_list: DecisionList
    objective: float
    log: list[dict] = field(default_factory=list)
    tree_size: int = 0
    iterations_run: int = 0
    n_evaluated: int = 0
    pruned: dict[str, int] = field(default_factory=lambda: _by_reason(Counter()))
    leaves_from_lo: int = 0
    leaves_confirmed: int = 0

    @property
    def n_pruned(self) -> int:
        """Children skipped by a bound, whatever the reason."""
        return sum(self.pruned.values())


def _by_reason(pruned: Counter) -> dict[str, int]:
    return {reason: pruned[reason] for reason in ("hi", "lo", "node")}


def uct_search(
    ds: Dataset,
    scores: DRScoreMatrix,
    cands: CandidateSet,
    weights: ObjectiveWeights = ObjectiveWeights(),
    config: SearchConfig = SearchConfig(),
) -> SearchResult:
    """Monte-Carlo tree search with bound pruning over list prefixes.

    Each iteration selects by UCB1 (mean reward normalized to [0, 1] by the
    running min/max of rewards), takes the node's next child by
    ``Frontier.next_index`` in ``ordered_actions``' order, and backs up its
    reward along the path.  Only an interior prefix, below depth L_max,
    becomes a node, which takes its children from a ``Frontier.windowed``;
    its reward is the exact objective of the list ``SearchProblem.close``
    makes of it.  A closed list, or a full prefix, is a leaf that its parent
    counts towards progressive widening: once taken it can never beat the
    incumbent, which is at least its objective, a full prefix's the best of
    its closing children's.  A closed list's reward is its exact ``hi``, a
    full prefix's its ``lo``.  It is built, closed and scored exactly only
    when ``lo`` plus its half-width can beat the incumbent, and only an
    exact objective sets the incumbent, so which full prefixes are built
    never changes the path the search takes.  The search draws no random
    numbers, so ``config.seed`` does not change the result.  A built child
    keeps its bound, and is pruned at selection once that cannot beat the
    incumbent.
    A node whose children are all taken or pruned is fully explored; the
    search stops once the root is, every completion evaluated or excluded.
    """
    problem = SearchProblem(ds, scores, cands, weights, config)
    # the root is nobody's child, so its bound is never compared
    root = SearchNode(problem.initial_state(), math.inf)
    tree_size = 1
    # next_index's skips, and under "node" the built children pruned at selection
    pruned: Counter[str] = Counter()
    # full prefixes scored by their lo, and those confirmed exactly
    leaves: Counter[str] = Counter()
    best_obj = -math.inf
    # set by the first iteration, whose first child closes the root
    best_state: SearchState | None = None
    rmin, rmax = math.inf, -math.inf
    log: list[dict] = []

    def normalized(mean: float) -> float:
        return (mean - rmin) / (rmax - rmin) if rmax > rmin else 0.5

    def expand(path: list[SearchNode]) -> tuple[float, float, SearchState | None] | None:
        """The reward of the last node's next child that can beat the
        incumbent, the exact objective of the closed list that earns it and
        that list (-inf and None for a full prefix left unbuilt), or None.
        The node counts a leaf, and keeps an interior child, which joins the
        path."""
        node = path[-1]
        frontier = node.frontier
        k = frontier.next_index(problem, best_obj, pruned)
        if k is None:
            return None
        code = int(frontier.codes[k])
        if code >= 0 and node.state.depth + 1 == config.L_max:
            node.leaves += 1
            lo = float(frontier.los[k])
            if lo + float(frontier.halves[k]) <= best_obj:
                leaves["lo"] += 1
                return lo, -math.inf, None
            leaves["confirmed"] += 1
            closed = problem.close(problem.apply(node.state, code))
            exact = problem.state_bound(closed)
            return lo, exact, closed
        state = problem.apply(node.state, code)
        if state.terminal:
            node.leaves += 1
            return float(frontier.his[k]), float(frontier.his[k]), state
        node.children.append(SearchNode(state, float(frontier.his[k])))
        path.append(node.children[-1])
        closed = problem.close(state)
        exact = problem.state_bound(closed)
        return exact, exact, closed

    iterations_run = 0
    for it in range(1, config.iterations + 1):
        if root.fully_explored:
            break
        iterations_run = it
        path = [root]
        node = root
        reward: float | None = None
        while True:
            if node.frontier is None:
                node.frontier = Frontier.windowed(problem, node.state)
            for c in node.children:
                if not c.fully_explored and c.bound <= best_obj:
                    c.fully_explored = True
                    pruned["node"] += 1
            live = [c for c in node.children if not c.fully_explored]
            # progressive widening gates expansion unless nothing is selectable
            limit = math.ceil(WIDEN_C * max(node.visits, 1) ** WIDEN_ALPHA)
            if len(node.children) + node.leaves < limit or not live:
                built = expand(path)
                if built is not None:
                    reward, exact, closed = built
                    tree_size += 1
                    if exact > best_obj:
                        best_obj, best_state = exact, closed
                    rmin, rmax = min(rmin, reward), max(rmax, reward)
                    break
            if not live:
                node.fully_explored = True
                # dead end: go back one level and choose again there
                path.pop()
                if not path:
                    break
                node = path[-1]
                continue
            log_n = math.log(node.visits) if node.visits > 0 else 0.0
            best_child, best_ucb = None, -math.inf
            for c in live:
                ucb = (normalized(c.total_reward / c.visits)
                       + config.c_explore * math.sqrt(log_n / c.visits))
                if ucb > best_ucb:
                    best_child, best_ucb = c, ucb
            node = best_child
            path.append(node)
        if reward is not None:
            for n in path:
                n.visits += 1
                n.total_reward += reward
        log.append({
            "iteration": it,
            "incumbent_objective": best_obj if best_obj > -math.inf else None,
            "tree_size": tree_size,
            "n_pruned": pruned.total(),
        })

    return SearchResult(
        decision_list=problem.decision_list(best_state),
        objective=best_obj,
        log=log,
        tree_size=tree_size,
        iterations_run=iterations_run,
        pruned=_by_reason(pruned),
        leaves_from_lo=leaves["lo"],
        leaves_confirmed=leaves["confirmed"],
    )


def exhaustive_search(
    ds: Dataset,
    scores: DRScoreMatrix,
    cands: CandidateSet,
    weights: ObjectiveWeights = ObjectiveWeights(),
    config: SearchConfig = SearchConfig(),
    use_bound: bool = False,
) -> SearchResult:
    """Exact argmax by enumerating every legal pattern sequence up to
    ``config.L_max``; the config's iterations, c_explore and seed are unused.

    A rule is legal when ``ordered_actions`` allows it: its pattern is unused
    and newly covers at least one subject.  Each rule takes the arm ``apply``
    picks, which loses no optimum, so every sequence is closed with each
    default and no other treatment is tried.  Each prefix takes its children
    by ``Frontier.take`` in ascending code order, the defaults and then the
    rules in pattern order, and only a strict improvement replaces the
    incumbent, so ties resolve to the first list in that order.
    Instances beyond the EXHAUSTIVE_* limits are refused.  With use_bound,
    ``take`` skips every child that cannot beat the incumbent; without, its
    incumbent is -inf, so every legal list is scored.
    """
    if len(cands.patterns) > EXHAUSTIVE_MAX_PATTERNS:
        raise SizeLimitError(
            f"{len(cands.patterns)} patterns exceeds the exhaustive limit "
            f"of {EXHAUSTIVE_MAX_PATTERNS}")
    if config.L_max > EXHAUSTIVE_MAX_DEPTH:
        raise SizeLimitError(
            f"L_max {config.L_max} exceeds the exhaustive limit of {EXHAUSTIVE_MAX_DEPTH}")

    problem = SearchProblem(ds, scores, cands, weights, config)
    best_obj = -math.inf
    best_state: SearchState | None = None
    n_evaluated = 0
    pruned: Counter[str] = Counter()

    def visit(state: SearchState) -> None:
        nonlocal best_obj, best_state, n_evaluated
        frontier = Frontier.by_code(state, *problem.ordered_actions(state))
        while taken := frontier.take(problem, best_obj if use_bound else -math.inf, pruned):
            child, obj = taken
            if not child.terminal:
                visit(child)
                continue
            n_evaluated += 1
            if obj > best_obj:
                best_obj, best_state = obj, child

    visit(problem.initial_state())
    return SearchResult(
        decision_list=problem.decision_list(best_state),
        objective=best_obj,
        n_evaluated=n_evaluated,
        pruned=_by_reason(pruned),
    )


def greedy_baseline(
    ds: Dataset,
    scores: DRScoreMatrix,
    cands: CandidateSet,
    weights: ObjectiveWeights = ObjectiveWeights(),
    config: SearchConfig = SearchConfig(),
) -> SearchResult:
    """Appends the single rule with the largest exact objective gain.

    Each step makes one ``ordered_actions`` call.  The best rule child's
    exact objective is at least the largest lo - s over the children, and no
    child's is above its lo + s, so only the children whose lo + s reaches
    that floor can be the best: the rest are skipped unbuilt, counted under
    "lo".  The candidates are taken by ``Frontier.take`` in the order
    exhaustive_search tries them, against the best objective so far, and
    each is closed with ``SearchProblem.close`` and scored exactly, so the
    step takes the first child, in that order, of the largest exact
    objective.  It stops when no
    rule strictly improves the closed list's objective or ``config.L_max``
    is hit.  The config's iterations, c_explore and seed are unused.
    """
    problem = SearchProblem(ds, scores, cands, weights, config)
    state = problem.initial_state()
    best_obj = problem.state_bound(problem.close(state))
    pruned: Counter[str] = Counter()
    while state.depth < config.L_max:
        children = problem.ordered_actions(state)
        codes, _, los, halves = children
        rules = codes >= 0
        floor = np.max(los - halves, where=rules, initial=-np.inf)
        keep = rules & (los + halves >= floor)
        pruned["lo"] += int(np.count_nonzero(rules & ~keep))
        frontier = Frontier.by_code(state, *(a[keep] for a in children))
        step, threshold = None, best_obj
        while taken := frontier.take(problem, threshold, pruned):
            obj = problem.state_bound(problem.close(taken[0]))
            if obj > threshold:
                step, threshold = taken[0], obj
        if step is None:
            break
        best_obj, state = threshold, step
    return SearchResult(
        decision_list=problem.decision_list(problem.close(state)),
        objective=best_obj,
        pruned=_by_reason(pruned),
    )
