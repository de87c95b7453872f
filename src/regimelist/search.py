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

Action = tuple[int, int]
# (pattern index, treatment) appends a rule; (-1, d) closes with default d.

# new_coverage_counts rounds a float32 product, which counts exactly only
# while every count fits float32's 24-bit significand
MAX_EXACT_SUBJECTS = 2 ** 24
EXHAUSTIVE_MAX_PATTERNS = 10
EXHAUSTIVE_MAX_DEPTH = 3


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
    debug_checks: bool = False

    def __post_init__(self) -> None:
        if self.iterations < 1:
            raise ValidationError("iterations must be positive")
        if self.c_explore < 0:
            raise ValidationError("c_explore must be nonnegative")
        if self.L_max < 0:
            raise ValidationError("L_max must be nonnegative")
        if self.widen_c <= 0 or self.widen_alpha < 0:
            raise ValidationError("widening parameters must be positive")
        if not 0.0 <= self.min_new_coverage <= 1.0:
            raise ValidationError("min_new_coverage must lie in [0, 1]")

    def to_dict(self) -> dict:
        return {
            "iterations": self.iterations,
            "c_explore": self.c_explore,
            "seed": self.seed,
            "L_max": self.L_max,
            "min_new_coverage": self.min_new_coverage,
            "charge_default_full": self.charge_default_full,
            "widen_c": self.widen_c,
            "widen_alpha": self.widen_alpha,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SearchConfig":
        return cls(**config_values(d, asdict(cls()), "search"))


@dataclass
class SearchState:
    """A rule-list prefix with its exactly-incurred sums.

    incurred_value is the sum over covered subjects of
    lambda1*score - lambda3*treatment_cost for their assigned arm;
    incurred_assess the sum of their prefix assessment costs.
    """

    prefix: tuple[tuple[int, int], ...]
    covered: np.ndarray
    features: frozenset[int]
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
        self.pattern_features = tuple(pat.features for pat in self.patterns)

    def initial_state(self) -> SearchState:
        return SearchState(
            prefix=(),
            covered=np.zeros(self.n, dtype=bool),
            features=frozenset(),
            incurred_assess=0.0,
            incurred_value=0.0,
        )

    def new_coverage_counts(self, state: SearchState) -> np.ndarray:
        """How many not-yet-covered subjects each pattern matches."""
        uncovered = (~state.covered).astype(np.float32)
        return np.rint(self.masks_f @ uncovered).astype(np.int64)

    def required_new(self, min_new_coverage: float) -> int:
        # a rule matching nothing new is never allowed: it only adds cost
        return max(1, math.ceil(min_new_coverage * self.n))

    def ordered_actions(self, state: SearchState, L_max: int,
                        min_new_coverage: float) -> list[Action]:
        """The legal actions of a non-terminal state, ordered for expansion
        by pop(): defaults first, then rules by decreasing one-step gain.

        Closing the list with any default is always legal.  Below depth
        L_max, so is appending (p, t) for every treatment t and every unused
        pattern p that newly covers at least required_new(min_new_coverage)
        subjects.

        The gain of appending (p, t) is measured against closing the list
        right away with its best default: the rule's value on newly covered
        subjects versus handing those subjects to that default, minus
        assessment charges.  The charge counts the marginal feature cost not
        just against the newly covered subjects but also against the most
        subjects later rules could still cover (remaining rule slots times
        the largest remaining coverage), because prefix costs accumulate onto
        later groups; that pushes expensive features toward later positions.
        Ordering only affects which action gets expanded first, never which
        actions exist.
        """
        if state.terminal:
            raise ValidationError("terminal state has no actions")
        defaults: list[Action] = [(-1, d) for d in range(self.m)]
        if state.depth >= L_max:
            return defaults
        used = {p for p, _ in state.prefix}
        uncov = ~state.covered
        uncov_f = uncov.astype(np.float32)
        counts = self.new_coverage_counts(state)
        need = self.required_new(min_new_coverage)
        n_unc = int(uncov.sum())
        lam2 = self.weights.lambda2
        cur_cost = feature_set_cost(self.ds.specs, state.features)
        # val_sums[p, t]: total value of assigning t to the subjects pattern
        # p would newly cover
        val_sums = np.empty((len(self.patterns), self.m))
        for t in range(self.m):
            col = np.where(uncov, self.value_mat[:, t], 0.0).astype(np.float32)
            val_sums[:, t] = self.masks_f @ col
        best_default = int(np.argmax(uncov_f @ self.value_mat.astype(np.float32)))

        eligible = [p for p in range(len(self.patterns))
                    if p not in used and counts[p] >= need]
        slots = max(L_max - state.depth - 1, 0)
        count_cap = max((int(counts[p]) for p in eligible), default=0)

        keyed: list[tuple[float, int, int]] = []
        for p in eligible:
            new_cost = feature_set_cost(self.ds.specs,
                                        state.features | self.pattern_features[p])
            later = min(n_unc - int(counts[p]), slots * count_cap)
            charge = new_cost * int(counts[p]) + (new_cost - cur_cost) * later
            base = float(val_sums[p, best_default])
            for t in range(self.m):
                key = float(val_sums[p, t]) - base - lam2 * charge
                keyed.append((key, p, t))
        keyed.sort()
        return [(p, t) for _, p, t in keyed] + defaults

    def apply(self, state: SearchState, action: Action) -> SearchState:
        p, t = action
        if p < 0:
            return replace(state, terminal=True, default_treatment=t)
        mask = self.masks_f[p] != 0
        newly = mask & ~state.covered
        features = state.features | self.pattern_features[p]
        step_cost = feature_set_cost(self.ds.specs, features)
        return SearchState(
            prefix=state.prefix + ((p, t),),
            covered=state.covered | mask,
            features=features,
            incurred_assess=state.incurred_assess + step_cost * int(newly.sum()),
            incurred_value=state.incurred_value + float(self.value_mat[newly, t].sum()),
        )

    def default_assessment(self, state: SearchState) -> float:
        if not self.charge_default_full or not state.prefix:
            return 0.0
        return feature_set_cost(self.ds.specs, state.features)

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


def check_state_consistency(problem: SearchProblem, state: SearchState) -> None:
    """Recompute covered set and incurred sums from the prefix; must match exactly."""
    covered = np.zeros(problem.n, dtype=bool)
    features: frozenset[int] = frozenset()
    assess = 0.0
    value = 0.0
    for p, t in state.prefix:
        mask = problem.masks_f[p] != 0
        newly = mask & ~covered
        covered |= mask
        features = features | problem.pattern_features[p]
        assess += feature_set_cost(problem.ds.specs, features) * int(newly.sum())
        value += float(problem.value_mat[newly, t].sum())
    if not np.array_equal(covered, state.covered):
        raise AssertionError("state.covered diverged from prefix recomputation")
    if features != state.features:
        raise AssertionError("state.features diverged from prefix recomputation")
    if assess != state.incurred_assess:
        raise AssertionError(
            f"incurred_assess {state.incurred_assess!r} != recomputed {assess!r}")
    if value != state.incurred_value:
        raise AssertionError(
            f"incurred_value {state.incurred_value!r} != recomputed {value!r}")


class SearchNode:
    """One prefix in the UCT tree."""

    __slots__ = ("state", "bound", "visits", "total_reward", "children",
                 "untried", "fully_explored")

    def __init__(self, state: SearchState, bound: float):
        self.state = state
        self.bound = bound
        self.visits = 0
        self.total_reward = 0.0
        self.children: list[SearchNode] = []
        self.untried: list[Action] | None = None
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
    whose optimistic bound cannot beat the incumbent is pruned; a subtree
    whose actions are all expanded or pruned is marked fully explored, and
    the search stops early once the root is (every completion has then been
    either evaluated or soundly excluded).
    """
    problem = SearchProblem(ds, scores, cands, weights, config.charge_default_full)
    rng = np.random.default_rng(config.seed)
    root = SearchNode(problem.initial_state(), problem.state_bound(problem.initial_state()))
    tree_size = 1
    n_pruned = 0
    best_obj = -math.inf
    best_state: SearchState | None = None
    rmin = math.inf
    rmax = -math.inf
    log: list[dict] = []

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
                state = problem.apply(state, (-1, int(rng.integers(problem.m))))
                break
            k = int(rng.integers(len(active) * problem.m + problem.m))
            if k >= len(active) * problem.m:
                state = problem.apply(state, (-1, k - len(active) * problem.m))
                break
            p = active[k // problem.m]
            t = k % problem.m
            if int(((problem.masks_f[p] != 0) & ~state.covered).sum()) < need:
                active.remove(p)
                continue
            state = problem.apply(state, (p, t))
            active.remove(p)
            if config.debug_checks:
                check_state_consistency(problem, state)
        obj = problem.state_bound(state)
        record_terminal(state, obj)
        return obj

    def backup(path: list[SearchNode], reward: float) -> None:
        for node in path:
            node.visits += 1
            node.total_reward += reward

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
            if node.untried is None:
                node.untried = problem.ordered_actions(
                    node.state, config.L_max, config.min_new_coverage)
            live = [c for c in node.children
                    if not c.fully_explored and c.bound > best_obj]
            dropped = [c for c in node.children
                       if not c.fully_explored and c.bound <= best_obj]
            for c in dropped:
                c.fully_explored = True
                n_pruned += 1
            # progressive widening gates expansion unless nothing is selectable
            limit = max(1, math.ceil(
                config.widen_c * max(node.visits, 1) ** config.widen_alpha))
            if node.untried and (len(node.children) < limit or not live):
                # pop() takes defaults first, then the best-ordered rules
                while node.untried:
                    action = node.untried.pop()
                    child_state = problem.apply(node.state, action)
                    if config.debug_checks and not child_state.terminal:
                        check_state_consistency(problem, child_state)
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
            backup(path, reward)
        log.append({
            "iteration": it,
            "incumbent_objective": best_obj if best_obj > -math.inf else None,
            "tree_size": tree_size,
            "n_pruned": n_pruned,
        })

    if best_state is None:
        # only possible with a zero-iteration budget guard; close with arm 0
        best_state = problem.apply(problem.initial_state(), (-1, 0))
        best_obj = problem.state_bound(best_state)
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
        for action in sorted(problem.ordered_actions(state, L_max, 0.0)):
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
        vals = [problem.state_bound(problem.apply(state, (-1, d)))
                for d in range(problem.m)]
        d = int(np.argmax(vals))
        return vals[d], d

    state = problem.initial_state()
    best_obj, best_d = best_completion(state)
    while True:
        step_best: tuple[float, int, SearchState] | None = None
        for action in sorted(problem.ordered_actions(state, L_max, 0.0)):
            if action[0] < 0:
                continue
            child = problem.apply(state, action)
            obj, d = best_completion(child)
            if obj > best_obj and (step_best is None or obj > step_best[0]):
                step_best = (obj, d, child)
        if step_best is None:
            break
        best_obj, best_d, state = step_best
    final = problem.apply(state, (-1, best_d))
    return BaselineResult(
        decision_list=problem.decision_list(final),
        objective=best_obj,
    )
