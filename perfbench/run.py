"""Benchmark of the regimelist pipeline, end to end and layer by layer.

    python3 perfbench/run.py --workload pipeline-10k --seed 0 --seconds 20 --trace 0

Run from the root of a checkout; the package is taken from ``src/``.

``--trace 0`` runs the real CLI steps one after another, each in its own
subprocess (a closed loop with one client), and reports the end-to-end
metrics.  The workload's input files are produced several times and the
median set-up time is reported; then the timed steps run as a chain, again
while the next chain still fits in ``--seconds``, and the medians over
chains are reported.  Each step's peak memory comes from the rusage that
``os.wait4`` returns for that child alone.

``--trace 1`` reports the per-layer metrics: the package import time, one
CLI run of every step, then the same chain in-process twice, traced and
untraced, whose time difference is the tracing overhead.

Outputs are checked on every run: every step exits 0, the regime parses
against the schema, ``metrics.json`` and ``regime.json`` report the same
objective, and repeated runs of a workload on the same code write
byte-identical artifacts (within the run, and across runs of the same
workload in the same checkout).  A step that fails or fails a check
counts in ``failed``, out of ``attempted`` steps.

Work files go to ``perfbench/.work/``; each run leaves its result record
(metrics, environment, learned decision list) under ``results/`` and the
spans of a traced run under ``traces/``.  The last line of standard output
is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import traceback
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path
from time import perf_counter

import tracing
from workloads import (CONFOUNDING, DATA_SEED, DETERMINISTIC, PRODUCES, SEARCH_SEED,
                       SETUP_STEPS, TIMED_STEPS, WORKLOADS, Workload, step_args)

ROOT = Path(__file__).resolve().parent.parent
WORK = Path(__file__).resolve().parent / ".work"
SETUP_RUNS = 3
IMPORT_RUNS = 3
STEP_TIMEOUT_S = 170.0
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
STEPS = ("generate", "mine", "fit", "learn", "evaluate")


@dataclass
class StepRun:
    label: str
    step: str
    out_dir: Path
    wall_s: float
    rss_mb: float
    returncode: int


class Ledger:
    """Steps attempted, and the ones that failed with why."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed: dict[str, str] = {}

    def attempt(self) -> None:
        self.attempted += 1

    def fail(self, label: str, reason: str) -> None:
        if label not in self.failed:
            self.failed[label] = reason
            print(f"FAILED {label}: {reason}", file=sys.stderr)


class Runner:
    """Runs CLI steps as subprocesses, one at a time."""

    def __init__(self, wl: Workload, ledger: Ledger, fail_step: str | None = None):
        self.wl = wl
        self.ledger = ledger
        self.fail_step = fail_step
        paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))

    def run_step(self, label: str, step: str, inputs: dict[str, str],
                 out_dir: Path) -> StepRun:
        argv = step_args(step, self.wl, inputs, str(out_dir))
        if step == self.fail_step:
            argv.append("--no-such-flag")  # forced failure, for the self-test
            self.fail_step = None
        # the same entry point the installed `regimelist` script calls
        cmd = [sys.executable, "-c",
               "import sys; from regimelist.cli import main; sys.exit(main())", *argv]
        out_dir.mkdir(parents=True, exist_ok=True)
        with open(out_dir / f"{step}.log", "wb") as log:
            start = perf_counter()
            proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, stdout=log,
                                    stderr=subprocess.STDOUT)
            timer = threading.Timer(STEP_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return StepRun(label, step, out_dir, wall, usage.ru_maxrss / 1024.0,
                       proc.returncode)

    def run_steps(self, tag: str, steps: tuple[str, ...], inputs: dict[str, str],
                  out_dir: Path) -> list[StepRun] | None:
        """Run steps in order; on a failed step the rest count as failed too."""
        inputs = dict(inputs)
        runs = []
        for k, step in enumerate(steps):
            self.ledger.attempt()
            run = self.run_step(f"{tag}.{step}", step, inputs, out_dir)
            runs.append(run)
            if run.returncode != 0:
                tail = (out_dir / f"{step}.log").read_text(errors="replace")[-400:]
                self.ledger.fail(run.label, f"exit code {run.returncode}: {tail.strip()}")
                for rest in steps[k + 1:]:
                    self.ledger.attempt()
                    self.ledger.fail(f"{tag}.{rest}", f"not run after {run.label} failed")
                return None
            inputs.update({f: str(out_dir / f) for f in PRODUCES[step]})
        return runs


def digests(runs: list[StepRun]) -> dict[str, tuple[str, str]]:
    """sha256 of each deterministic artifact, with the label of its step."""
    out = {}
    for run in runs:
        for name in DETERMINISTIC[run.step]:
            out[name] = (run.label, hashlib.sha256((run.out_dir / name).read_bytes()).hexdigest())
    return out


def check_same(ledger: Ledger, reference: dict, other: dict, what: str) -> None:
    for name, (label, digest) in other.items():
        if name in reference and reference[name][1] != digest:
            ledger.fail(label, f"{name} differs from {reference[name][0]} ({what})")


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def check_across_runs(ledger: Ledger, key: str, current: dict) -> None:
    """Compare with the digests an earlier run of this workload stored."""
    store = WORK / "digests.json"
    known = json.loads(store.read_text()) if store.exists() else {}
    earlier = known.get(key)
    if earlier is not None:
        check_same(ledger, {k: tuple(v) for k, v in earlier.items()}, current,
                   "an earlier run of the same code")
    else:
        known[key] = current
        store.write_text(json.dumps(known, indent=1) + "\n")


def check_learn_evaluate(rl, ledger: Ledger, chain: list[StepRun], schema_path: Path):
    """The regime parses against the schema; evaluate reports its objective."""
    learn, evaluate = (next(r for r in chain if r.step == s) for s in ("learn", "evaluate"))
    schema = rl.io.read_schema(schema_path)
    try:
        regime = json.loads((learn.out_dir / "regime.json").read_text())
        dl = rl.io.decision_list_from_dict(regime["decision_list"], schema.specs,
                                           schema.treatment_names)
        dl.validate(schema.specs, len(schema.treatment_names))
    except (ValueError, KeyError, TypeError, rl.RegimeListError) as e:
        ledger.fail(learn.label, f"regime.json does not parse against the schema: {e}")
        return None, None
    reported = json.loads((evaluate.out_dir / "metrics.json").read_text())["objective"]
    if reported != regime["objective"]:
        ledger.fail(evaluate.label, f"metrics.json objective {reported!r} != "
                    f"regime.json objective {regime['objective']!r}")
    return regime, dl


def true_objective(rl, wl: Workload, regime: dict, dl) -> float:
    gspec = rl.default_generator_spec(n_subjects=wl.n, seed=DATA_SEED,
                                      confounding_strength=CONFOUNDING)
    w = regime.get("weights", {})
    return float(rl.true_objective(gspec, dl, w.get("lambda1", 1.0),
                                   w.get("lambda2", 1.0), w.get("lambda3", 1.0)))


def environment(wl: Workload, seed: int, trace: int, seconds: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    versions = {}
    for pkg in ("numpy", "scipy"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = None
    return {
        "workload": wl.name, "n": wl.n,
        "iterations": wl.iterations, "seed": seed, "data_seed": DATA_SEED,
        "search_seed": SEARCH_SEED,
        "trace": trace, "seconds": seconds,
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "cpu_model": cpu, "python": platform.python_version(),
        "platform": platform.platform(), **versions,
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "source_digest": source_digest(),
    }


def run_untraced(rl, runner: Runner, wl: Workload, seconds: int, work: Path,
                 key: str) -> tuple[dict, dict]:
    ledger = runner.ledger
    setups = []
    for k in range(SETUP_RUNS):
        runs = runner.run_steps(f"setup{k}", SETUP_STEPS, {}, work / f"setup{k}")
        if runs is not None:
            setups.append(runs)
    if not setups:
        return {}, {}
    base = setups[0]
    inputs = {f: str(base[0].out_dir / f) for s in SETUP_STEPS for f in PRODUCES[s]}
    first = digests(base)
    for runs in setups[1:]:
        check_same(ledger, first, digests(runs), "repeated set-up")

    chains = []
    measure_start = perf_counter()
    last = 0.0
    while not chains or perf_counter() - measure_start + last <= seconds:
        t0 = perf_counter()
        runs = runner.run_steps(f"chain{len(chains)}", TIMED_STEPS, inputs,
                                work / f"chain{len(chains)}")
        last = perf_counter() - t0
        if runs is None:
            break
        chains.append(runs)
    extra: dict = {}
    objective = true_obj = 0.0
    if chains:
        chain_digests = [digests(c) for c in chains]
        for d in chain_digests[1:]:
            check_same(ledger, chain_digests[0], d, "repeated chain")
        check_across_runs(ledger, key, {**first, **chain_digests[0]})
        checked = [check_learn_evaluate(rl, ledger, c, Path(inputs["schema.json"]))
                   for c in chains]
        regime, dl = checked[0]
        if regime is not None:
            objective = float(regime["objective"])
            true_obj = true_objective(rl, wl, regime, dl)
            extra["decision_list"] = (chains[0][0].out_dir / "regime.txt").read_text()

    def med(values):
        return statistics.median(values) if values else 0.0

    def step_times(groups, step):
        return [r.wall_s for g in groups for r in g if r.step == step]

    metrics = {
        "setup_s": med([sum(r.wall_s for r in g) for g in setups]),
        "total_s": med([sum(r.wall_s for r in c) for c in chains]),
        "fit_s": med(step_times(chains, "fit")),
        "learn_s": med(step_times(chains, "learn")),
        "peak_rss_mb": med([max(r.rss_mb for r in c) for c in chains]),
        "objective": objective,
        "true_objective": true_obj,
    }
    extra.update({"setups": len(setups), "chains": len(chains),
                  "steps": [[r.label, round(r.wall_s, 4), round(r.rss_mb, 1)]
                            for g in setups + chains for r in g]})
    return metrics, extra


def import_time(runner: Runner) -> float:
    """Median subprocess `import regimelist` minus median bare interpreter start."""
    def med(code: str) -> float:
        times = []
        for _ in range(IMPORT_RUNS):
            start = perf_counter()
            subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=runner.env,
                           check=True, timeout=STEP_TIMEOUT_S)
            times.append(perf_counter() - start)
        return statistics.median(times)
    return med("import regimelist") - med("pass")


def run_traced(rl, runner: Runner, wl: Workload, work: Path, key: str,
               run_name: str) -> tuple[dict, dict]:
    ledger = runner.ledger
    metrics = {"cli.import_s": import_time(runner)}
    setup = runner.run_steps("cli.setup", SETUP_STEPS, {}, work / "cli")
    chain = None
    if setup is not None:
        inputs = {f: str(work / "cli" / f) for s in SETUP_STEPS for f in PRODUCES[s]}
        chain = runner.run_steps("cli.chain", TIMED_STEPS, inputs, work / "cli")
    cli_runs = (setup or []) + (chain or [])
    for r in cli_runs:
        metrics[f"cli.{r.step}.s"] = r.wall_s
        metrics[f"cli.{r.step}.rss_mb"] = r.rss_mb
    extra: dict = {}
    if chain is not None:
        check_across_runs(ledger, key, digests(cli_runs))
        regime, _ = check_learn_evaluate(rl, ledger, chain, work / "cli" / "schema.json")
        if regime is not None:
            extra["decision_list"] = (work / "cli" / "regime.txt").read_text()

    # traced first, so the search's rise in peak RSS is not hidden by an
    # earlier chain in this process
    chains = {}
    for mode in ("traced", "untraced"):
        tr = tracing.Tracer() if mode == "traced" else tracing.NullTracer()
        out = work / mode
        steps = SETUP_STEPS + TIMED_STEPS
        for _ in steps:
            ledger.attempt()
        start = perf_counter()
        try:
            if mode == "traced":
                with tracing.traced_search_methods(rl.search, tr):
                    facts = tracing.run_chain(rl, wl, out, tr)
            else:
                facts = tracing.run_chain(rl, wl, out, tr)
        except Exception:  # a library error fails this chain, not the run
            for step in steps:
                ledger.fail(f"{mode}.{step}", "in-process chain raised:\n"
                            + traceback.format_exc(limit=-3))
            continue
        chains[mode] = (perf_counter() - start, tr, facts)

    if "traced" in chains:
        elapsed, tr, facts = chains["traced"]
        summary = tr.summary()
        metrics.update(tracing.layer_metrics(summary, facts))
        metrics["trace.traced_chain_s"] = elapsed
        metrics["trace.spans"] = len(tr.spans)
        traces = WORK / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        tr.dump(traces / f"{run_name}.json")
        extra["span_summary"] = {k: {kk: round(v, 6) for kk, v in rec.items()}
                                 for k, rec in sorted(summary.items())}
    if "untraced" in chains:
        metrics["trace.untraced_chain_s"] = chains["untraced"][0]
    if len(chains) == 2:
        metrics["trace.overhead_s"] = chains["traced"][0] - chains["untraced"][0]

    # the in-process chains must write what the CLI wrote; of regime.json,
    # whose record the CLI assembles itself, only the result is compared
    cli_dir = work / "cli"
    for mode in chains:
        for step in STEPS:
            for name in DETERMINISTIC[step]:
                if name == "regime.json" or not (cli_dir / name).exists():
                    continue
                if (work / mode / name).read_bytes() != (cli_dir / name).read_bytes():
                    ledger.fail(f"{mode}.{step}", f"{name} differs from the CLI's")
        if chain is not None:
            cli_regime = json.loads((cli_dir / "regime.json").read_text())
            mine = json.loads((work / mode / "regime.json").read_text())
            for k in ("objective", "decision_list"):
                if mine[k] != cli_regime[k]:
                    ledger.fail(f"{mode}.learn", f"regime {k} differs from the CLI's")
    return metrics, extra


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for the self-test")
    parser.add_argument("--fail-step", choices=STEPS, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "regimelist" / "cli.py").is_file():
        print(f"error: no regimelist sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import regimelist as rl

    wl = WORKLOADS[args.workload]
    if args.smoke:
        wl = wl.smoke()
    env = environment(wl, args.seed, args.trace, args.seconds)
    run_name = f"{wl.name}-seed{args.seed}-trace{args.trace}" + ("-smoke" if args.smoke else "")
    work = WORK / "runs" / run_name
    shutil.rmtree(work, ignore_errors=True)
    key = f"{env['source_digest']}:{wl.name}:{wl.n}"
    ledger = Ledger()
    runner = Runner(wl, ledger, args.fail_step)
    try:
        if args.trace:
            values, extra = run_traced(rl, runner, wl, work, key, run_name)
        else:
            values, extra = run_untraced(rl, runner, wl, args.seconds, work, key)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # the metric names and units are the ones BENCHMARK.json declares
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    missing = sorted(set(declared) - set(values))
    if missing and not ledger.failed:
        ledger.fail("metrics", f"not measured: {missing}")
    metrics = {name: {"value": float(values.get(name, 0.0)), "unit": unit}
               for name, unit in declared.items()}
    failed = len(ledger.failed)
    result = {"correct": failed == 0 and ledger.attempted > 0,
              "attempted": ledger.attempted, "failed": failed, "metrics": metrics}
    record = {"environment": env, "result": result, "failures": ledger.failed, **extra}
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{run_name}.json").write_text(json.dumps(record, indent=1) + "\n")

    print("environment " + json.dumps(env))
    if "decision_list" in extra:
        print("learned decision list:\n" + extra["decision_list"].rstrip())
    for name, m in metrics.items():
        print(f"{name:34s} {m['value']:.6g} {m['unit']}")
    print(f"steps_failed {failed} of steps_attempted {ledger.attempted}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
