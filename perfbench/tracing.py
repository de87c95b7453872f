"""In-process traced run of the pipeline.

The chain calls the same public library functions as the CLI steps, with
the same arguments and in the same order, and records a span around each
call into a layer.  ``SearchProblem`` methods are timed by wrapping them on
the class for the duration of the run, and only those that exist.  Spans
stay in memory as ``(name, start, end, parent index)`` and are written out
once the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import json
import resource
from pathlib import Path
from time import perf_counter

from workloads import (CONFOUNDING, DATA_SEED, L_MAX, MAX_PREDICATES, MIN_SUPPORT,
                       SEARCH_SEED, SETUP_STEPS, TIMED_STEPS, Workload)

SEARCH_METHODS = ("ordered_actions", "apply", "state_bound", "terminal_objective")


class Tracer:
    """Spans around calls into the library, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int] | None] = []
        self._stack = [-1]

    @contextlib.contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1]
        self._stack.append(idx)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent)

    def wrap(self, fn, name: str):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, stack[-1])

        return traced

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total time and self time.

        Self time is a span's duration minus the time its direct child spans
        cover; children of one span never overlap, since the run is serial.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for k, (name, start, end, _) in enumerate(self.spans):
            rec = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            rec["calls"] += 1
            rec["s"] += end - start
            rec["self_s"] += end - start - child_time[k]
        return out

    def dump(self, path: Path) -> None:
        names: dict[str, int] = {}
        rows = []
        t0 = self.spans[0][1] if self.spans else 0.0
        for name, start, end, parent in self.spans:
            rows.append([names.setdefault(name, len(names)),
                         round(start - t0, 7), round(end - t0, 7), parent])
        with open(path, "w") as fh:
            json.dump({"names": list(names), "columns": ["name", "start_s", "end_s", "parent"],
                       "spans": rows}, fh, separators=(",", ":"))
            fh.write("\n")


class NullTracer:
    """Same interface, records nothing: the untraced reference chain."""

    def span(self, name: str):
        return contextlib.nullcontext()


@contextlib.contextmanager
def traced_search_methods(search_module, tracer: Tracer):
    """Wrap SearchProblem construction and the methods that exist."""
    cls = search_module.SearchProblem
    names = ["__init__"] + [m for m in SEARCH_METHODS if m in vars(cls)]
    originals = {m: vars(cls)[m] for m in names}
    try:
        for m in names:
            label = "search.SearchProblem" if m == "__init__" else f"search.{m}"
            setattr(cls, m, tracer.wrap(originals[m], label))
        yield
    finally:
        for m, fn in originals.items():
            setattr(cls, m, fn)


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_chain(rl, wl: Workload, out: Path, tr) -> dict:
    """Run every step of the workload in-process, writing into ``out``.

    Mirrors ``regimelist.cli``: each data-reading step loads the schema and
    the CSV again, and each step writes the files its CLI command writes.
    Returns the exact counts the run produced.
    """
    io = rl.io
    out.mkdir(parents=True, exist_ok=True)
    facts: dict = {}

    def load():
        with tr.span("io.read_schema"):
            schema = io.read_schema(out / "schema.json")
        with tr.span("io.read_dataset"):
            return io.read_dataset(out / "data.csv", schema)

    def read_scores():
        with tr.span("io.scores_json.read"):
            return rl.DRScoreMatrix.from_dict(io.read_json(out / "scores.json"))

    def generate():
        gspec = rl.default_generator_spec(n_subjects=wl.n, seed=DATA_SEED,
                                          confounding_strength=CONFOUNDING)
        with tr.span("synth.generate"):
            ds, truth = rl.generate(gspec)
        schema = io.DataSchema(
            specs=gspec.specs,
            treatment_names=gspec.treatment_names,
            treatment_costs=tuple(float(c) for c in gspec.treatment_costs),
        )
        with tr.span("io.write_schema"):
            io.write_schema(schema, out / "schema.json")
        with tr.span("io.write_dataset_csv"):
            io.write_dataset_csv(ds, out / "data.csv")
        with tr.span("io.write_json"):
            io.write_json(truth.to_dict(gspec.specs, gspec.treatment_names),
                          out / "ground_truth.json")

    def mine():
        ds = load()
        config = rl.MiningConfig.from_dict(
            {"min_support": MIN_SUPPORT, "max_predicates": MAX_PREDICATES})
        with tr.span("mining.mine_patterns"):
            cands = rl.mine_patterns(ds, config)
        facts["patterns"] = len(cands)
        with tr.span("io.write_json"):
            io.write_json(cands.to_dict(ds.specs), out / "candidates.json")

    def fit():
        ds = load()
        with tr.span("estimation.fit_propensity"):
            propensity = rl.fit_propensity(ds, l2=1e-4, clip_epsilon=0.01,
                                           grad_tol=1e-6, max_iters=5000)
        facts["propensity_iters"] = propensity.n_iterations
        with tr.span("estimation.fit_outcome"):
            outcome = rl.fit_outcome(ds, ridge=1e-6)
        with tr.span("estimation.compute_dr_scores"):
            scores = rl.compute_dr_scores(ds, propensity, outcome)
        with tr.span("io.write_json"):
            io.write_json(propensity.to_dict(), out / "propensity.json")
            io.write_json(outcome.to_dict(), out / "outcome.json")
        with tr.span("io.scores_json.write"):
            io.write_json(scores.to_dict(), out / "scores.json")
        facts["scores_bytes"] = (out / "scores.json").stat().st_size

    def learn():
        ds = load()
        with tr.span("io.read_candidates"):
            cands = rl.CandidateSet.from_dict(io.read_json(out / "candidates.json"),
                                              ds.specs)
        scores = read_scores()
        weights = rl.ObjectiveWeights.from_dict({})
        config = rl.SearchConfig.from_dict(
            {"iterations": wl.iterations, "seed": SEARCH_SEED, "L_max": L_MAX})
        rss_before = _maxrss_mb()
        # uct_search itself, not the root_parallel_search wrapper the CLI
        # calls, which runs exactly this for a single tree
        with tr.span("search.uct_search"):
            result = rl.uct_search(ds, scores, cands, weights, config)
        facts["rss_growth_mb"] = _maxrss_mb() - rss_before
        counts = {"tree_size": result.tree_size, "n_pruned": result.n_pruned,
                  "iterations_run": result.iterations_run}
        facts.update(counts)
        dl = result.decision_list
        with tr.span("objective.objective_value"):
            objective = rl.objective_value(ds, dl, scores, weights,
                                           config.charge_default_full)
        record = {
            "strategy": "uct",
            "objective": objective,
            "weights": weights.to_dict(),
            "search": config.to_dict(),
            "decision_list": io.decision_list_to_dict(dl, ds.specs, ds.treatment_names),
        }
        record.update(counts)
        text = io.format_decision_list(dl, ds.specs, ds.treatment_names)
        with tr.span("io.write_json"):
            io.write_json(record, out / "regime.json")
            (out / "regime.txt").write_text(text + "\n")
            io.write_jsonl(result.log, out / "search_log.jsonl")

    def evaluate():
        ds = load()
        with tr.span("io.read_json"):
            record = io.read_json(out / "regime.json")["decision_list"]
        dl = io.decision_list_from_dict(record, ds.specs, ds.treatment_names)
        scores = read_scores()
        weights = rl.ObjectiveWeights.from_dict({})
        with tr.span("objective.compute_metrics"):
            report = rl.compute_metrics(ds, dl, scores, weights, False)
        with tr.span("io.write_json"):
            io.write_json(report.to_dict(), out / "metrics.json")
            (out / "metrics.txt").write_text(report.to_text() + "\n")

    steps = {"generate": generate, "mine": mine, "fit": fit, "learn": learn,
             "evaluate": evaluate}
    for step in SETUP_STEPS + TIMED_STEPS:
        with tr.span(f"step.{step}"):
            steps[step]()
    return facts


def layer_metrics(summary: dict, facts: dict) -> dict[str, float]:
    """Per-layer values of one traced chain."""

    def total(name: str, key: str = "s") -> float:
        return summary.get(name, {}).get(key, 0)

    m = {
        "io.read_dataset.s": total("io.read_dataset"),
        "io.read_dataset.calls": total("io.read_dataset", "calls"),
        "io.write_dataset_csv.s": total("io.write_dataset_csv"),
        "io.scores_json.write_s": total("io.scores_json.write"),
        "io.scores_json.read_s": total("io.scores_json.read"),
        "io.scores_json.bytes": facts.get("scores_bytes", 0),
        "synth.generate.s": total("synth.generate"),
        "estimation.fit_propensity.s": total("estimation.fit_propensity"),
        "estimation.fit_propensity.iters": facts.get("propensity_iters", 0),
        "estimation.fit_outcome.s": total("estimation.fit_outcome"),
        "estimation.compute_dr_scores.s": total("estimation.compute_dr_scores"),
        "mining.mine_patterns.s": total("mining.mine_patterns"),
        "mining.patterns": facts.get("patterns", 0),
        "search.SearchProblem.s": total("search.SearchProblem"),
        "search.rss_growth_mb": facts.get("rss_growth_mb", 0.0),
        "search.uct_search.s": total("search.uct_search"),
        "search.uct_search.self_s": total("search.uct_search", "self_s"),
        "objective.objective_value.s": total("objective.objective_value"),
        "objective.compute_metrics.s": total("objective.compute_metrics"),
    }
    iters = facts.get("iterations_run", 0)
    uct_s = m["search.uct_search.s"]
    m["search.iterations_run"] = iters
    m["search.iters_per_s"] = iters / uct_s
    tree = facts.get("tree_size", 0)
    pruned = facts.get("n_pruned", 0)
    m["search.tree_size"] = tree
    m["search.n_pruned"] = pruned
    attempted = max(tree - 1, 0) + pruned
    m["search.kept_ratio"] = (tree - 1) / attempted if attempted else 0.0
    for meth in SEARCH_METHODS:
        m[f"search.{meth}.calls"] = total(f"search.{meth}", "calls")
        m[f"search.{meth}.s"] = total(f"search.{meth}")
    m["search.state_bound.self_s"] = total("search.state_bound", "self_s")
    return m
