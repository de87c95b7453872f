"""Decision-list optimization over a mined candidate set.

The construction of a list is a sequential decision process: each action
appends one (pattern, treatment) rule to the prefix, or closes the list by
choosing a default treatment.  Because matching is first-match, a subject's
score and treatment cost are final the moment a rule covers it, so a prefix
carries exact incurred sums plus an optimistic bound on whatever the
uncovered remainder can still contribute.  Three solvers share this state
machinery: UCT (the main engine), exhaustive enumeration (small-instance
oracle), and a greedy baseline.  ``SearchProblem.ordered_actions`` is their
one legality rule and ``SearchProblem.state_bound`` their one scoring function.
``ordered_actions`` bounds every child of a node in one batched pass, so a
child is built with ``apply`` only if that bound lets it beat the incumbent.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .domain import Dataset, DecisionList, feature_set_cost, pattern_mask
from .errors import SizeLimitError, ValidationError, config_values
from .estimation import DRScoreMatrix
from .mining import CandidateSet
from .objective import ObjectiveWeights, check_scores

Action = int
# p * m + t appends the rule (pattern p, treatment t) and d - m closes the list
# with default d, so ascending codes run in (pattern, treatment) order with the
# defaults first.  A prefix stores its rules as (p, t) pairs.

# coverage counts round a float32 product, which counts exactly only while
# every count fits float32's 24-bit significand
MAX_EXACT_SUBJECTS = 2 ** 24
EXHAUSTIVE_MAX_PATTERNS = 10
EXHAUSTIVE_MAX_DEPTH = 3


def _gamma(k: int, unit: float) -> float:
    """Bound on the relative error of k roundings of the given unit."""
    return k * unit / (1.0 - k * unit)


@dataclass(frozen=True)
class SearchConfig:
    iterations: int = 2000
    c_explore: float = 1.414
    seed: int = 0
    L_max: int = 4
    min_new_coverage: float = 0.01
    charge_default_full: bool = False
    # progressive widening: a node may hold at most ceil(c * visits^alpha)
    # children, so wide action spaces deepen instead of expanding breadth-first
    widen_c: float = 2.0
    widen_alpha: float = 0.3

    def __post_init__(self) -> None:
        if self.iterations < 1:
            raise ValidationError("iterations must be positive")
        if self.c_explore < 0:
            raise ValidationError("c_explore must be nonnegative")
        if self.seed < 0:
            raise ValidationError("seed must be nonnegative")
        if self.L_max < 0:
            raise ValidationError("L_max must be nonnegative")
        if self.widen_c <= 0 or self.widen_alpha < 0:
            raise ValidationError("widening parameters must be positive")
        if not 0.0 <= self.min_new_coverage <= 1.0:
            raise ValidationError("min_new_coverage must lie in [0, 1]")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "SearchConfig":
        return cls(**config_values(d, asdict(cls()), "search"))


@dataclass
class SearchState:
    """A rule-list prefix with its exactly-incurred sums.

    features is the bitmask of the characteristics its patterns read;
    incurred_value is the sum over covered subjects of
    lambda1*score - lambda3*treatment_cost for their assigned arm;
    incurred_assess the sum of their prefix assessment costs.
    """

    prefix: tuple[tuple[int, int], ...]
    covered: np.ndarray
    features: int
    incurred_assess: float
    incurred_value: float
    terminal: bool = False
    default_treatment: int = -1

    @property
    def depth(self) -> int:
        return len(self.prefix)


class SearchProblem:
    """Shared precomputation and transition logic for all three solvers."""

    def __init__(
        self,
        ds: Dataset,
        scores: DRScoreMatrix,
        cands: CandidateSet,
        weights: ObjectiveWeights = ObjectiveWeights(),
        charge_default_full: bool = False,
    ):
        check_scores(ds, scores)
        if ds.n_subjects > MAX_EXACT_SUBJECTS:
            raise SizeLimitError(
                f"{ds.n_subjects} subjects exceeds the exact-coverage limit "
                f"of {MAX_EXACT_SUBJECTS}")
        self.ds = ds
        self.weights = weights
        self.charge_default_full = charge_default_full
        self.patterns = cands.patterns
        self.n = ds.n_subjects
        self.m = ds.n_treatments
        # pattern coverage as 0/1 in float32, the operand of the products in
        # ordered_actions; row p as a bool mask is ``masks_f[p] != 0``
        self.masks_f = np.empty((len(self.patterns), self.n), dtype=np.float32)
        for p, pat in enumerate(self.patterns):
            self.masks_f[p] = pattern_mask(ds, pat)
        # per-subject, per-arm contribution once a rule assigns that arm
        self.value_mat = (weights.lambda1 * scores.scores
                          - weights.lambda3 * ds.treatment_costs[None, :])
        # optimistic per-subject future value: best score and cheapest arm
        # taken independently, an upper bound on any actual assignment
        self.optimistic = (weights.lambda1 * scores.scores.max(axis=1)
                           - weights.lambda3 * float(ds.treatment_costs.min()))
        self.pattern_features = tuple(sum(1 << f for f in pat.features)
                                      for pat in self.patterns)
        self._costs: dict[int, float] = {}
        # rounding slack of ordered_actions' bounds, before the division by
        # n: per newly covered subject, and per bound (see ordered_actions)
        vo_max = float(np.abs(self.value_mat).max() + np.abs(self.optimistic).max())
        g32 = _gamma(self.n + 1, 2.0 ** -24)
        self._slack_per_subject = g32 * vo_max + 2.0 ** -149
        self._slack = 2 * _gamma(self.n + 16, 2.0 ** -53) * self.n * (
            (4 + g32) * vo_max
            + 3 * weights.lambda2 * feature_set_cost(ds.specs, range(len(ds.specs)))
        ) + 2.0 ** -1000
        # float32 operand of the batched product, refilled by ordered_actions
        self._operand = np.empty((self.n, self.m + 2), dtype=np.float32)

    def initial_state(self) -> SearchState:
        return SearchState(
            prefix=(),
            covered=np.zeros(self.n, dtype=bool),
            features=0,
            incurred_assess=0.0,
            incurred_value=0.0,
        )

    def feature_cost(self, features: int) -> float:
        """feature_set_cost of a feature bitmask, memoized per mask."""
        if features not in self._costs:
            self._costs[features] = feature_set_cost(
                self.ds.specs, [f for f in range(len(self.ds.specs)) if features >> f & 1])
        return self._costs[features]

    def required_new(self, min_new_coverage: float) -> int:
        # a rule matching nothing new is never allowed: it only adds cost
        return max(1, math.ceil(min_new_coverage * self.n))

    # a score beyond float32's range overflows the float32 operand and the
    # products over it; the bounds already turn that into an infinite hi, so
    # numpy's overflow and invalid-value warnings carry no news here
    @np.errstate(over="ignore", invalid="ignore")
    def ordered_actions(self, state: SearchState, L_max: int,
                        min_new_coverage: float) -> tuple[np.ndarray, np.ndarray]:
        """The legal actions of a non-terminal state, and a bound per child.

        Returns int32 action codes and, for each, a float64 ``hi`` >=
        state_bound(apply(state, code)), ordered for expansion from the end:
        defaults first, then rules by decreasing one-step gain.  Closing the
        list with any default is always legal; below depth L_max, so is
        appending (p, t) for every treatment t and every unused pattern p that
        newly covers at least required_new(min_new_coverage) subjects.

        The gain of (p, t) is the rule's value on the subjects it newly covers
        minus what the state's best default would give them, minus assessment
        charges.  The charge counts the marginal feature cost against the newly
        covered subjects and against the most subjects later rules could still
        cover (remaining slots times the largest remaining coverage), because
        prefix costs accumulate onto later groups; that pushes expensive
        features toward later positions.  Ordering never changes which actions
        exist.

        The bounds are batched: one float32 product of the pattern masks with
        the columns (uncovered, optimistic, each arm's value), zeroed on
        covered subjects, gives each pattern's new-coverage count cnt and its
        optimistic and per-arm value sums; one float64 product gives the
        defaults' sums.  They are sound.  With gamma(k, u) = k*u / (1 - k*u)
        and V = max|value_mat| + max|optimistic|: k roundings of unit u move a
        term by a factor within 1 +- gamma(k, u), in any summation order
        (Higham, Accuracy and Stability of Numerical Algorithms, Sec. 3.1).  A
        float32 sum has n terms, exact 0/1 products of float32-rounded
        entries, only cnt of them nonzero, so a pattern's two sums are off by
        at most g * cnt * V, g = gamma(n, 2^-24), finite and cnt exact as
        n < 2^24.  The float64 parts of the estimate and of the exact bound
        each add at most n + 6 terms of at most three roundings, of total
        magnitude at most T = n * ((4 + g) * V + 3 * lambda2 * C), C the cost
        of all characteristics, so each is off by at most gamma(n + 9, 2^-53)
        * T.  Underflow adds at most 2^-150 per float32 entry and 2^-1075 per
        float64 product.  ``hi`` adds gamma(n + 1, 2^-24) * cnt * V + 2^-149
        * cnt + 2 * gamma(n + 16, 2^-53) * T + 2^-1000, with room for its own
        rounding, before the monotone division by n, so it is at least the
        exact bound; a float32 sum that overflows makes ``hi`` infinite.  A
        loose slack only costs exact evaluations of the children it lets
        through.
        """
        if state.terminal:
            raise ValidationError("terminal state has no actions")
        lam2 = self.weights.lambda2
        uncov = ~state.covered
        uncov64 = uncov.astype(np.float64)
        n_unc = int(np.count_nonzero(uncov))
        settled = state.incurred_value - lam2 * state.incurred_assess
        default_sums = uncov64 @ self.value_mat
        default_codes = np.arange(-self.m, 0, dtype=np.int32)
        default_his = (settled + default_sums
                       - lam2 * self.default_assessment(state) * n_unc
                       + self._slack) / self.n
        if state.depth >= L_max:
            return default_codes, default_his

        op = self._operand
        op[:, 0] = uncov
        op[:, 1:] = 0.0
        np.copyto(op[:, 1], self.optimistic, casting="same_kind", where=uncov)
        np.copyto(op[:, 2:], self.value_mat, casting="same_kind",
                  where=uncov[:, None])
        sums = (self.masks_f @ op).astype(np.float64)
        counts = np.rint(sums[:, 0]).astype(np.int64)
        legal = counts >= self.required_new(min_new_coverage)
        legal[[p for p, _ in state.prefix]] = False
        eligible = np.flatnonzero(legal)
        cnt = counts[eligible]
        # gains[k, t]: total value of assigning t to the subjects pattern
        # eligible[k] would newly cover
        gains = sums[eligible, 2:]
        new_cost = np.array([self.feature_cost(state.features | self.pattern_features[p])
                             for p in eligible.tolist()], dtype=np.float64)

        slots = max(L_max - state.depth - 1, 0)
        later = np.minimum(n_unc - cnt, slots * int(cnt.max(initial=0)))
        charge = new_cost * cnt + (new_cost - self.feature_cost(state.features)) * later
        best_default = int(np.argmax(default_sums))
        keys = gains - gains[:, best_default, None] - (lam2 * charge)[:, None]
        # stable: equal keys keep (pattern, treatment) order
        order = np.argsort(keys, axis=None, kind="stable")

        child_default = new_cost if self.charge_default_full else 0.0
        per_pattern = (float(uncov64 @ self.optimistic) - sums[eligible, 1]
                       - lam2 * new_cost * cnt
                       - lam2 * child_default * (n_unc - cnt))
        estimate = settled + gains + per_pattern[:, None]
        slack = self._slack_per_subject * cnt + self._slack
        rule_his = (estimate + slack[:, None]) / self.n
        rule_his[~np.isfinite(rule_his)] = np.inf  # an overflowed float32 sum
        rule_codes = eligible[:, None] * self.m + np.arange(self.m)
        return (np.concatenate([rule_codes.ravel()[order].astype(np.int32),
                                default_codes]),
                np.concatenate([rule_his.ravel()[order], default_his]))

    def apply(self, state: SearchState, action: Action) -> SearchState:
        if action < 0:
            return replace(state, terminal=True, default_treatment=action + self.m)
        p, t = divmod(action, self.m)
        mask = self.masks_f[p] != 0
        newly = mask & ~state.covered
        features = state.features | self.pattern_features[p]
        return SearchState(
            prefix=state.prefix + ((p, t),),
            covered=state.covered | mask,
            features=features,
            incurred_assess=(state.incurred_assess
                             + self.feature_cost(features) * int(newly.sum())),
            incurred_value=state.incurred_value + float(self.value_mat[newly, t].sum()),
        )

    def default_assessment(self, state: SearchState) -> float:
        if not self.charge_default_full or not state.prefix:
            return 0.0
        return self.feature_cost(state.features)

    def state_bound(self, state: SearchState) -> float:
        """The exact objective of a closed list; for an open prefix, an upper
        bound on the objective of every completion.

        Covered subjects are settled.  An uncovered subject contributes its
        default's value once the list is closed, and at most its best score
        minus the cheapest treatment while it is open; either way it pays the
        already-committed default assessment charge when that policy is on.
        """
        tail = (self.value_mat[:, state.default_treatment] if state.terminal
                else self.optimistic)
        uncovered = ~state.covered
        n_unc = int(uncovered.sum())
        total = (state.incurred_value
                 - self.weights.lambda2 * state.incurred_assess
                 + float(tail[uncovered].sum())
                 - self.weights.lambda2 * self.default_assessment(state) * n_unc)
        return total / self.n

    def decision_list(self, state: SearchState) -> DecisionList:
        if not state.terminal:
            raise ValidationError("only a terminal state defines a decision list")
        rules = tuple((self.patterns[p], t) for p, t in state.prefix)
        return DecisionList(rules=rules, default_treatment=state.default_treatment)


class SearchNode:
    """One prefix in the UCT tree; codes[:cursor] and his[:cursor] of
    ordered_actions' output are its untried children, taken from the end."""

    __slots__ = ("state", "bound", "visits", "total_reward", "children",
                 "codes", "his", "cursor", "fully_explored")

    def __init__(self, state: SearchState, bound: float):
        self.state = state
        self.bound = bound
        self.visits = 0
        self.total_reward = 0.0
        self.children: list[SearchNode] = []
        self.codes: np.ndarray | None = None
        self.his: np.ndarray | None = None
        self.cursor = 0
        self.fully_explored = False


@dataclass
class SearchResult:
    decision_list: DecisionList
    objective: float
    log: list[dict] = field(default_factory=list)
    tree_size: int = 0
    n_pruned: int = 0
    iterations_run: int = 0


def uct_search(
    ds: Dataset,
    scores: DRScoreMatrix,
    cands: CandidateSet,
    weights: ObjectiveWeights = ObjectiveWeights(),
    config: SearchConfig = SearchConfig(),
) -> SearchResult:
    """Monte-Carlo tree search with bound pruning over list prefixes.

    Each iteration selects by UCB1 (mean reward normalized to [0, 1] by the
    running min/max of terminal rewards), expands one untried action, plays
    uniform-random legal actions to termination, and backs the terminal
    objective up the path.  Terminal expansions are scored exactly.  A child
    is pruned unbuilt when its batched bound ``hi`` from ``ordered_actions``
    cannot beat the incumbent, else built and pruned when its exact bound
    cannot; ``hi`` is never below the exact bound, so this prunes exactly
    the children that testing every exact bound would.  A subtree whose
    actions are all expanded or pruned is marked fully explored, and the
    search stops early once the root is (every completion has then been
    either evaluated or soundly excluded).
    """
    problem = SearchProblem(ds, scores, cands, weights, config.charge_default_full)
    rng = np.random.default_rng(config.seed)
    root = SearchNode(problem.initial_state(), problem.state_bound(problem.initial_state()))
    tree_size = 1
    n_pruned = 0
    best_obj = -math.inf
    # set by the first iteration, whose first child closes the root
    best_state: SearchState | None = None
    rmin = math.inf
    rmax = -math.inf
    log: list[dict] = []
    m = problem.m

    def record_terminal(state: SearchState, obj: float) -> None:
        nonlocal best_obj, best_state, rmin, rmax
        if obj > best_obj:
            best_obj = obj
            best_state = state
        rmin = min(rmin, obj)
        rmax = max(rmax, obj)

    def rollout(state: SearchState) -> float:
        # Uncovered subjects only shrink along a rollout, so a pattern that
        # failed the coverage filter once stays illegal: drop it and resample.
        used = {p for p, _ in state.prefix}
        active = [p for p in range(len(problem.patterns)) if p not in used]
        need = problem.required_new(config.min_new_coverage)
        while not state.terminal:
            if state.depth >= config.L_max:
                state = problem.apply(state, int(rng.integers(m)) - m)
                break
            k = int(rng.integers(len(active) * m + m))
            if k >= len(active) * m:
                state = problem.apply(state, k - len(active) * m - m)
                break
            p = active[k // m]
            if int(((problem.masks_f[p] != 0) & ~state.covered).sum()) < need:
                active.remove(p)
                continue
            state = problem.apply(state, p * m + k % m)
            active.remove(p)
        obj = problem.state_bound(state)
        record_terminal(state, obj)
        return obj

    def normalized(mean: float) -> float:
        if rmax > rmin:
            return (mean - rmin) / (rmax - rmin)
        return 0.5

    iterations_run = 0
    for it in range(1, config.iterations + 1):
        if root.fully_explored:
            break
        iterations_run = it
        path = [root]
        node = root
        reward: float | None = None
        while reward is None:
            if node.codes is None:
                node.codes, node.his = problem.ordered_actions(
                    node.state, config.L_max, config.min_new_coverage)
                node.cursor = len(node.codes)
            for c in node.children:
                if not c.fully_explored and c.bound <= best_obj:
                    c.fully_explored = True
                    n_pruned += 1
            live = [c for c in node.children if not c.fully_explored]
            # progressive widening gates expansion unless nothing is selectable
            limit = max(1, math.ceil(
                config.widen_c * max(node.visits, 1) ** config.widen_alpha))
            if node.cursor and (len(node.children) < limit or not live):
                # from the end: defaults first, then the best-ordered rules
                while node.cursor:
                    node.cursor -= 1
                    if node.his[node.cursor] <= best_obj:
                        n_pruned += 1
                        continue
                    child_state = problem.apply(node.state, int(node.codes[node.cursor]))
                    child_bound = problem.state_bound(child_state)
                    if child_bound <= best_obj:
                        n_pruned += 1
                        continue
                    child = SearchNode(child_state, child_bound)
                    tree_size += 1
                    node.children.append(child)
                    if child_state.terminal:
                        # a closed list's bound is its exact objective
                        reward = child_bound
                        record_terminal(child_state, reward)
                        child.fully_explored = True
                    else:
                        reward = rollout(child_state)
                    path.append(child)
                    break
            if reward is not None:
                break
            if not live:
                node.fully_explored = True
                # dead end: unwind and restart from the root this iteration
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
            "n_pruned": n_pruned,
        })

    return SearchResult(
        decision_list=problem.decision_list(best_state),
        objective=best_obj,
        log=log,
        tree_size=tree_size,
        n_pruned=n_pruned,
        iterations_run=iterations_run,
    )


@dataclass
class ExhaustiveResult:
    decision_list: DecisionList
    objective: float
    n_evaluated: int = 0
    n_pruned: int = 0


@dataclass
class BaselineResult:
    decision_list: DecisionList
    objective: float


def exhaustive_search(
    ds: Dataset,
    scores: DRScoreMatrix,
    cands: CandidateSet,
    weights: ObjectiveWeights = ObjectiveWeights(),
    L_max: int = 3,
    use_bound: bool = False,
    charge_default_full: bool = False,
) -> ExhaustiveResult:
    """Exact argmax by enumerating every legal rule sequence up to L_max.

    A rule is legal when ``ordered_actions`` allows it with no coverage
    threshold: its pattern is unused and newly covers at least one subject
    (a rule covering nothing new only adds cost, so no optimum is lost).
    Each prefix tries the defaults, then rules in ascending (pattern,
    treatment) order, and only a strict improvement replaces the incumbent,
    so ties resolve to the first list in that order.  Instances beyond the
    EXHAUSTIVE_* limits are refused.  With use_bound, subtrees whose
    optimistic bound cannot beat the incumbent are skipped and counted.
    """
    if len(cands.patterns) > EXHAUSTIVE_MAX_PATTERNS:
        raise SizeLimitError(
            f"{len(cands.patterns)} patterns exceeds the exhaustive limit "
            f"of {EXHAUSTIVE_MAX_PATTERNS}")
    if L_max > EXHAUSTIVE_MAX_DEPTH:
        raise SizeLimitError(f"L_max {L_max} exceeds the exhaustive limit of {EXHAUSTIVE_MAX_DEPTH}")

    problem = SearchProblem(ds, scores, cands, weights, charge_default_full)
    best_obj = -math.inf
    best_state: SearchState | None = None
    n_evaluated = 0
    n_pruned = 0

    def visit(state: SearchState) -> None:
        nonlocal best_obj, best_state, n_evaluated, n_pruned
        codes, _ = problem.ordered_actions(state, L_max, 0.0)
        for action in sorted(codes.tolist()):
            child = problem.apply(state, action)
            bound = problem.state_bound(child)
            if child.terminal:
                n_evaluated += 1
                if bound > best_obj:
                    best_obj = bound
                    best_state = child
            elif use_bound and bound <= best_obj:
                n_pruned += 1
            else:
                visit(child)

    visit(problem.initial_state())
    return ExhaustiveResult(
        decision_list=problem.decision_list(best_state),
        objective=best_obj,
        n_evaluated=n_evaluated,
        n_pruned=n_pruned,
    )


def greedy_baseline(
    ds: Dataset,
    scores: DRScoreMatrix,
    cands: CandidateSet,
    weights: ObjectiveWeights = ObjectiveWeights(),
    L_max: int = 4,
    charge_default_full: bool = False,
) -> BaselineResult:
    """Appends the single rule with the largest exact objective gain.

    Rules are those exhaustive_search enumerates, tried in the same order.
    After each append the default is re-optimized; the loop stops when no
    rule strictly improves the completed list's objective or L_max is hit.
    """
    problem = SearchProblem(ds, scores, cands, weights, charge_default_full)

    def best_completion(state: SearchState) -> tuple[float, int]:
        vals = [problem.state_bound(problem.apply(state, d - problem.m))
                for d in range(problem.m)]
        d = int(np.argmax(vals))
        return vals[d], d

    state = problem.initial_state()
    best_obj, best_d = best_completion(state)
    while True:
        step_best: tuple[float, int, SearchState] | None = None
        codes, _ = problem.ordered_actions(state, L_max, 0.0)
        for action in sorted(codes[codes >= 0].tolist()):
            child = problem.apply(state, action)
            obj, d = best_completion(child)
            if obj > best_obj and (step_best is None or obj > step_best[0]):
                step_best = (obj, d, child)
        if step_best is None:
            break
        best_obj, best_d, state = step_best
    final = problem.apply(state, best_d - problem.m)
    return BaselineResult(
        decision_list=problem.decision_list(final),
        objective=best_obj,
    )
