"""Command-line pipeline: generate, mine, fit, learn, evaluate.

Every command reads explicit input paths and writes fixed-name artifacts
into --out-dir, so a full run is reproducible from its config alone.
Numeric parameters resolve in three layers: built-in defaults, then the
--config JSON file, then command-line flags.

Exit codes: 0 success, 2 for validation problems (bad files, bad
parameters), 3 for convergence or size failures.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import io
from .domain import Dataset
from .errors import RegimeListError, ValidationError, config_values
from .estimation import (
    DRScoreMatrix,
    OutcomeModel,
    PropensityModel,
    compute_dr_scores,
    fit_outcome,
    fit_propensity,
)
from .mining import CandidateSet, MiningConfig, mine_patterns
from .objective import ObjectiveWeights, compute_metrics, objective_value
from .search import SearchConfig, exhaustive_search, greedy_baseline, uct_search
from .synth import default_generator_spec, generate


FIT_DEFAULTS = {"l2_reg": 1e-4, "ridge": 1e-6, "clip_epsilon": 0.01,
                "grad_tol": 1e-6, "max_iters": 5000}


def _section(cfg: dict, name: str) -> dict:
    sec = cfg.get(name, {})
    if not isinstance(sec, dict):
        raise ValidationError(f"config section {name!r} must be an object")
    return dict(sec)


def _override(sec: dict, args: argparse.Namespace, names: list[str]) -> dict:
    for name in names:
        value = getattr(args, name, None)
        if value is not None:
            sec[name] = value
    return sec


CONFIG_SECTIONS = ("mining", "models", "search", "weights")


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    data = io.read_json(_require(path, "config file"))
    if not isinstance(data, dict):
        raise ValidationError(f"{path}: config must be a JSON object")
    unknown = sorted(set(data) - set(CONFIG_SECTIONS))
    if unknown:
        raise ValidationError(
            f"{path}: unknown config section(s) {', '.join(map(repr, unknown))}; "
            f"known sections are {', '.join(CONFIG_SECTIONS)}")
    return data


def _require(path: str, what: str) -> Path:
    p = Path(path)
    if not p.exists():
        raise ValidationError(f"{what} not found: {path}")
    return p


def _load_dataset(args: argparse.Namespace) -> tuple[Dataset, io.DataSchema]:
    schema = io.read_schema(_require(args.schema, "schema file"))
    ds = io.read_dataset(_require(args.data, "dataset file"), schema)
    return ds, schema


def _weights(cfg: dict, args: argparse.Namespace) -> ObjectiveWeights:
    sec = _override(_section(cfg, "weights"), args, ["lambda1", "lambda2", "lambda3"])
    return ObjectiveWeights.from_dict(sec)


def _out_dir(args: argparse.Namespace) -> Path:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_generate(args: argparse.Namespace) -> int:
    _load_config(args.config)
    gspec = default_generator_spec(
        n_subjects=args.n,
        seed=args.seed if args.seed is not None else 0,
        confounding_strength=args.confounding,
    )
    ds, truth = generate(gspec)
    out = _out_dir(args)
    schema = io.DataSchema(
        specs=gspec.specs,
        treatment_names=gspec.treatment_names,
        treatment_costs=tuple(float(c) for c in gspec.treatment_costs),
    )
    io.write_schema(schema, out / "schema.json")
    io.write_dataset_csv(ds, out / "data.csv")
    io.write_json(truth.to_dict(gspec.specs, gspec.treatment_names),
                  out / "ground_truth.json")
    print(f"wrote {out / 'data.csv'} ({ds.n_subjects} subjects)")
    return 0


def cmd_mine(args: argparse.Namespace) -> int:
    cfg = _load_config(args.config)
    ds, _ = _load_dataset(args)
    sec = _override(_section(cfg, "mining"), args,
                    ["min_support", "max_predicates", "num_bins"])
    cands = mine_patterns(ds, MiningConfig.from_dict(sec))
    out = _out_dir(args)
    io.write_json(cands.to_dict(ds.specs), out / "candidates.json")
    print(f"wrote {out / 'candidates.json'} ({len(cands)} patterns)")
    return 0


def cmd_fit(args: argparse.Namespace) -> int:
    cfg = _load_config(args.config)
    ds, _ = _load_dataset(args)
    sec = _override(_section(cfg, "models"), args, list(FIT_DEFAULTS))
    sec = config_values(sec, FIT_DEFAULTS, "models")
    # the cheap outcome fit first, so its errors come before the propensity fit
    outcome = fit_outcome(ds, ridge=sec["ridge"])
    propensity = fit_propensity(
        ds,
        l2=sec["l2_reg"],
        clip_epsilon=sec["clip_epsilon"],
        grad_tol=sec["grad_tol"],
        max_iters=sec["max_iters"],
    )
    scores = compute_dr_scores(ds, propensity, outcome)
    out = _out_dir(args)
    io.write_json(propensity.to_dict(), out / "propensity.json")
    io.write_json(outcome.to_dict(), out / "outcome.json")
    io.write_json(scores.to_dict(), out / "scores.json")
    print(f"wrote {out / 'scores.json'} "
          f"(propensity converged in {propensity.n_iterations} iterations)")
    return 0


def cmd_learn(args: argparse.Namespace) -> int:
    cfg = _load_config(args.config)
    ds, schema = _load_dataset(args)
    cands = CandidateSet.from_dict(
        io.read_json(_require(args.candidates, "candidates file")), ds.specs)
    scores = DRScoreMatrix.from_dict(
        io.read_json(_require(args.scores, "scores file")))
    weights = _weights(cfg, args)
    sec = _override(_section(cfg, "search"), args,
                    ["iterations", "c_explore", "seed", "L_max",
                     "min_new_coverage", "charge_default_full"])
    sconfig = SearchConfig.from_dict(sec)

    log = None
    if args.strategy == "uct":
        result = uct_search(ds, scores, cands, weights, sconfig)
        dl = result.decision_list
        log = result.log
        extra = {"tree_size": result.tree_size, "n_pruned": result.n_pruned,
                 "iterations_run": result.iterations_run}
    elif args.strategy == "greedy":
        dl = greedy_baseline(ds, scores, cands, weights, sconfig.L_max,
                             sconfig.charge_default_full).decision_list
        extra = {}
    else:
        res = exhaustive_search(ds, scores, cands, weights, sconfig.L_max,
                                use_bound=True,
                                charge_default_full=sconfig.charge_default_full)
        dl = res.decision_list
        extra = {"n_evaluated": res.n_evaluated, "n_pruned": res.n_pruned}

    # report the objective through the same code path evaluate uses
    objective = objective_value(ds, dl, scores, weights,
                                sconfig.charge_default_full)
    out = _out_dir(args)
    record = {
        "strategy": args.strategy,
        "objective": objective,
        "weights": weights.to_dict(),
        "search": sconfig.to_dict(),
        "decision_list": io.decision_list_to_dict(dl, ds.specs, ds.treatment_names),
    }
    record.update(extra)
    io.write_json(record, out / "regime.json")
    text = io.format_decision_list(dl, ds.specs, ds.treatment_names)
    (out / "regime.txt").write_text(text + "\n")
    if log is not None:
        io.write_jsonl(log, out / "search_log.jsonl")
    print(text)
    print(f"objective {objective!r}")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    cfg = _load_config(args.config)
    ds, _ = _load_dataset(args)
    record = io.read_json(_require(args.regime, "regime file"))
    if isinstance(record, dict) and "decision_list" in record:
        record = record["decision_list"]
    dl = io.decision_list_from_dict(record, ds.specs, ds.treatment_names)
    scores = DRScoreMatrix.from_dict(
        io.read_json(_require(args.scores, "scores file")))
    weights = _weights(cfg, args)
    charge = SearchConfig.from_dict(_override(
        _section(cfg, "search"), args, ["charge_default_full"])).charge_default_full
    report = compute_metrics(ds, dl, scores, weights, charge)
    out = _out_dir(args)
    io.write_json(report.to_dict(), out / "metrics.json")
    (out / "metrics.txt").write_text(report.to_text() + "\n")
    print(report.to_text())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="regimelist",
        description="Learn cost-aware treatment regimes as decision lists.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file; flags override it")
    common.add_argument("--out-dir", default=".", help="output directory (default: .)")

    data_args = argparse.ArgumentParser(add_help=False)
    data_args.add_argument("--data", required=True, help="dataset CSV")
    data_args.add_argument("--schema", required=True, help="schema JSON")

    weight_args = argparse.ArgumentParser(add_help=False)
    weight_args.add_argument("--lambda1", type=float, help="outcome weight (default 1)")
    weight_args.add_argument("--lambda2", type=float,
                             help="assessment cost weight (default 1)")
    weight_args.add_argument("--lambda3", type=float,
                             help="treatment cost weight (default 1)")

    p = sub.add_parser("generate", parents=[common],
                       help="write a synthetic dataset with known ground truth")
    p.add_argument("--n", type=int, default=10000, help="subjects (default 10000)")
    p.add_argument("--seed", type=int, help="random seed (default 0)")
    p.add_argument("--confounding", type=float, default=0.0,
                   help="treatment-assignment confounding in [0, 1] (default 0)")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("mine", parents=[common, data_args],
                       help="mine frequent candidate patterns")
    p.add_argument("--min-support", dest="min_support", type=float,
                   help="minimum pattern coverage fraction (default 0.05)")
    p.add_argument("--max-predicates", dest="max_predicates", type=int,
                   help="predicates per pattern limit (default 4)")
    p.add_argument("--num-bins", dest="num_bins", type=int,
                   help="quantile bins for real features (default 4)")
    p.set_defaults(func=cmd_mine)

    p = sub.add_parser("fit", parents=[common, data_args],
                       help="fit propensity and outcome models, write scores")
    p.add_argument("--l2-reg", dest="l2_reg", type=float,
                   help="propensity L2 penalty (default 1e-4)")
    p.add_argument("--ridge", type=float, help="outcome ridge penalty (default 1e-6)")
    p.add_argument("--clip-epsilon", dest="clip_epsilon", type=float,
                   help="propensity floor (default 0.01)")
    p.add_argument("--grad-tol", dest="grad_tol", type=float,
                   help="gradient norm tolerance (default 1e-6)")
    p.add_argument("--max-iters", dest="max_iters", type=int,
                   help="gradient ascent iteration cap (default 5000)")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("learn", parents=[common, data_args, weight_args],
                       help="search for the best decision list")
    p.add_argument("--candidates", required=True, help="candidates JSON from mine")
    p.add_argument("--scores", required=True, help="scores JSON from fit")
    p.add_argument("--strategy", choices=("uct", "greedy", "exhaustive"),
                   default="uct", help="search strategy (default uct)")
    p.add_argument("--iterations", type=int, help="search iterations (default 2000)")
    p.add_argument("--c-explore", dest="c_explore", type=float,
                   help="UCB exploration constant (default 1.414)")
    p.add_argument("--seed", type=int, help="search seed (default 0)")
    p.add_argument("--l-max", dest="L_max", type=int,
                   help="maximum number of rules (default 4)")
    p.add_argument("--min-new-coverage", dest="min_new_coverage", type=float,
                   help="fraction of subjects a rule must newly cover (default 0.01)")
    p.add_argument("--charge-default-full", dest="charge_default_full",
                   action=argparse.BooleanOptionalAction,
                   help="bill default-group subjects the full list cost")
    p.set_defaults(func=cmd_learn)

    p = sub.add_parser("evaluate", parents=[common, data_args, weight_args],
                       help="score a regime file against a dataset")
    p.add_argument("--regime", required=True, help="regime JSON (from learn, or bare)")
    p.add_argument("--scores", required=True, help="scores JSON from fit")
    p.add_argument("--charge-default-full", dest="charge_default_full",
                   action=argparse.BooleanOptionalAction,
                   help="bill default-group subjects the full list cost")
    p.set_defaults(func=cmd_evaluate)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (RegimeListError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
