"""Self-test of the benchmark: a tiny run of every workload through run.py.

    python3 perfbench/selftest.py

Runs each workload at smoke size with tracing off and on, through the same
code as a full run, and checks that every metric ``BENCHMARK.json`` names is
reported with its unit and that all checks pass.  Then it forces a step to
fail and checks that the failure is counted, and checks that the benchmark
refuses to run, printing no result, without the package sources.  Exits 0
when everything holds.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(script: Path, cwd: Path, *args: str) -> tuple[int, dict | None]:
    proc = subprocess.run([sys.executable, str(script), "--seconds", "1", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    try:
        return proc.returncode, json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return proc.returncode, None


def check_result(label: str, result: dict | None, want: dict[str, str]) -> list[str]:
    if result is None:
        return [f"{label}: no JSON result on the last line"]
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append(f"{label}: result keys {sorted(result)}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append(f"{label}: attempted {result.get('attempted')!r}")
    got = result.get("metrics", {})
    if set(got) != set(want):
        problems.append(f"{label}: missing {sorted(set(want) - set(got))}, "
                        f"unexpected {sorted(set(got) - set(want))}")
    for name, unit in want.items():
        m = got.get(name)
        if m is None:
            continue
        if m.get("unit") != unit:
            problems.append(f"{label}: {name} has unit {m.get('unit')!r}, not {unit!r}")
        value = m.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{label}: {name} has value {value!r}")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {key: {m["name"]: m["unit"] for m in spec[key]}
             for key in ("end_to_end", "per_layer")}
    script = HERE / "run.py"
    problems = []

    for wl in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            label = f"{wl['name']} trace {trace}"
            rc, result = run(script, ROOT, "--smoke", "--workload", wl["name"],
                             "--seed", "0", "--trace", str(trace))
            found = check_result(label, result, units[key])
            if result is not None and (rc != 0 or not result.get("correct")
                                       or result.get("failed") != 0):
                found.append(f"{label}: exit {rc}, correct {result.get('correct')}, "
                             f"failed {result.get('failed')}")
            problems += found
            print(f"{label}: {'ok' if not found else 'FAILED'}", flush=True)

    label = "forced learn failure"
    rc, result = run(script, ROOT, "--smoke", "--workload", "pipeline-10k",
                     "--seed", "0", "--trace", "0", "--fail-step", "learn")
    found = check_result(label, result, units["end_to_end"])
    # learn fails and evaluate, which needs its output, cannot run
    if result is not None and (rc == 0 or result.get("correct") is not False
                               or result.get("failed") != 2):
        found.append(f"{label}: exit {rc}, correct {result.get('correct')}, "
                     f"failed {result.get('failed')}, expected 2 failed steps")
    problems += found
    print(f"{label}: {'ok' if not found else 'FAILED'}", flush=True)

    # a directory holding only BENCHMARK.json and the benchmark's own files
    label = "without sources"
    bare = HERE / ".work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns(".work"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        rc, result = run(bare / HERE.name / "run.py", bare, "--workload", "pipeline-10k",
                         "--seed", "0", "--trace", "0")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    found = [] if rc != 0 and result is None else [
        f"{label}: exit {rc}, result {result!r}; expected a failure and no result"]
    problems += found
    print(f"{label}: {'ok' if not found else 'FAILED'}", flush=True)

    for p in problems:
        print(p, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
