"""Workload definitions and the CLI argument lists of each pipeline step.

Every workload uses data from ``default_generator_spec`` with confounding
0.5, mines with ``--min-support 0.05 --max-predicates 2``, fits with the
defaults and searches with ``--l-max 3`` and default weights.

Each workload sets up its input with ``generate`` and times ``mine``,
``fit``, ``learn`` and ``evaluate``.  Every run uses the same inputs,
whatever its seed: the data of ``generate --seed 0`` and search seed 1, as
in the README's pipeline.  The workload seed is recorded with the result.
Inputs are fixed because the search's cost depends on them far beyond any
bound a median of ten runs could hold, and because the objective and the
search counts must repeat exactly:

- 3,000 UCT iterations at 10k: generate seeds 0 to 9 gave search times from
  8.4 s to 51 s (19,600 to 220,000 pruned children); seed 0 sits in the
  middle.  On seed-0 data, search seeds 1 to 8 gave 9.5 s to 12.1 s
  (26,900 to 38,100 pruned).
- 100 UCT iterations at 100k: search seeds 1 to 8 gave 4.4 s (185 pruned,
  objective 59.01), 11 s (six seeds, ~4,740 pruned, objective 60.93) and
  66 s (34,000 pruned, objective 60.16).  Seed 1 is the run the workload's
  sizing assumes, where the search is a small share of ``learn``.

The cost of pruned children is measured on ``pipeline-10k``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

CONFOUNDING = 0.5
MIN_SUPPORT = 0.05
MAX_PREDICATES = 2
L_MAX = 3
DATA_SEED = 0
SEARCH_SEED = 1
SETUP_STEPS = ("generate",)
TIMED_STEPS = ("mine", "fit", "learn", "evaluate")

# file each step writes that later steps read
PRODUCES = {
    "generate": ("schema.json", "data.csv", "ground_truth.json"),
    "mine": ("candidates.json",),
    "fit": ("propensity.json", "outcome.json", "scores.json"),
    "learn": ("regime.json", "regime.txt"),
    "evaluate": ("metrics.json", "metrics.txt"),
}
# artifacts covered by the determinism contract, by the step that writes them
DETERMINISTIC = {
    "generate": ("data.csv",),
    "mine": ("candidates.json",),
    "fit": ("scores.json",),
    "learn": ("regime.json",),
    "evaluate": ("metrics.json",),
}


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    iterations: int
    why: str

    def smoke(self) -> "Workload":
        """The same workload at a size that runs in seconds."""
        return replace(self, n=max(1500, self.n // 50), iterations=50)


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "pipeline-10k", 10_000, 3000,
            "UCT search dominates; masks fit in cache; every step pays the "
            "package import"),
        Workload(
            "pipeline-100k", 100_000, 100,
            "propensity fit and four CSV loads dominate; learn builds ~600 MB "
            "of masks, so this carries peak memory"),
    )
}


def step_args(step: str, wl: Workload, inputs: dict[str, str],
              out_dir: str) -> list[str]:
    """CLI arguments of one step; ``inputs`` maps a file name to its path."""
    data = ["--schema", inputs.get("schema.json", ""),
            "--data", inputs.get("data.csv", "")]
    if step == "generate":
        args = ["--n", str(wl.n), "--seed", str(DATA_SEED),
                "--confounding", str(CONFOUNDING)]
    elif step == "mine":
        args = data + ["--min-support", str(MIN_SUPPORT),
                       "--max-predicates", str(MAX_PREDICATES)]
    elif step == "fit":
        args = data
    elif step == "learn":
        args = data + ["--candidates", inputs.get("candidates.json", ""),
                       "--scores", inputs.get("scores.json", ""),
                       "--strategy", "uct", "--iterations", str(wl.iterations),
                       "--l-max", str(L_MAX), "--seed", str(SEARCH_SEED)]
    elif step == "evaluate":
        args = data + ["--regime", inputs.get("regime.json", ""),
                       "--scores", inputs.get("scores.json", "")]
    else:
        raise ValueError(f"unknown step {step!r}")
    return [step] + args + ["--out-dir", out_dir]
