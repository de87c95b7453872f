"""The benchmark's traced in-process chain against the library: a rename of
a function or method it calls or wraps fails here, not in the benchmark."""
from __future__ import annotations

from pathlib import Path

import regimelist as rl

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_traced_chain_runs_and_counts_search_calls(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing
    from workloads import WORKLOADS

    tr = tracing.Tracer()
    with tracing.traced_search_methods(rl.search, tr):
        tracing.run_chain(rl, WORKLOADS["pipeline-10k"].smoke(), tmp_path, tr)
    assert (tmp_path / "regime.json").is_file()
    summary = tr.summary()
    for name in ("search.ordered_actions", "search.apply", "search.state_bound"):
        assert summary.get(name, {}).get("calls", 0) > 0, name
