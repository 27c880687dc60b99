"""Self-tests of the benchmark (run: ``python3 -m pytest perfbench -q``).

* Every layer wrapper records calls on the workload the README's layer
  table assigns it to, and the traced pass reproduces the untraced pass's
  results byte for byte (``measure_traced`` fails its run otherwise).
* Work counts repeat exactly between two traced runs of the same seed, so
  later count-based claims can rest on them.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from layers import Recorder  # noqa: E402

#: Ops per pass: enough for every assigned layer to fire (one what-if
#: write episode happens every ``gen.WHATIF_WRITE_EVERY`` ops).
MAX_OPS = {"cold-sweep": 52, "whatif-edits": 1250, "layout-search": 1, "serve-warm": 40}

#: The layer -> workload assignment of README.md's table.
ASSIGNED = {
    "cold-sweep": (
        "vm.calls", "cache.replay_calls", "cache.sim_misses",
        "analysis.flow.calls", "program.paths.calls", "batch.point.self_s",
    ),
    "whatif-edits": (
        "cache.replay_calls", "analysis.crpd.pairs", "wcrt.fixpoints",
        "analysis.store.gets", "analysis.whatif.edits",
    ),
    "layout-search": (
        "vm.calls", "analysis.flow.calls", "analysis.store.gets",
        "optimize.evals", "optimize.self_s",
    ),
    "serve-warm": (
        "program.build.calls", "wcrt.fixpoints", "analysis.store.gets",
        "batch.pool.seeds", "serve.protocol_self_s", "serve.job_p50_ms",
        "serve.http_overhead_p50_ms",
    ),
}

SEED = 3


def _traced(name: str, seed: int = SEED) -> dict:
    with run.workspace(f"test-{name}") as work:
        return run.measure_traced(name, run.Context(seed, work), 3600, MAX_OPS[name])


@pytest.mark.parametrize("name", sorted(ASSIGNED))
def test_wrappers_fire_and_traced_pass_matches(name):
    outcome = _traced(name)
    assert outcome["failures"] == []
    assert outcome["summary"]["compared_ops"] > 0
    metrics = outcome["metrics"]
    for metric in ASSIGNED[name]:
        assert metrics[metric]["value"] > 0, f"{metric} never fired on {name}"


def _counts(name: str) -> dict:
    recorder = Recorder()
    with run.workspace(f"test-{name}") as work:
        ctx = run.Context(SEED, work)
        workload = workloads.WORKLOADS[name](ctx)
        stats, failures, _ = run.run_pass(workload, ctx, 3600, MAX_OPS[name], recorder=recorder)
    assert failures == [] and stats.failed == 0
    snap = recorder.snapshot()
    exact = ("vm.steps", "cache.sim_misses", "cache.replay_accesses",
             "wcrt.iterations", "batch.pool.ship_bytes")
    counts = {key: snap.get(key, 0) for key in exact}
    counts.update({
        key: value for key, value in snap.items()
        if key.startswith(("analysis.store.hits.", "analysis.store.misses."))
    })
    return counts


@pytest.mark.parametrize("name", ["cold-sweep", "whatif-edits"])
def test_counts_repeat_exactly(name):
    first = _counts(name)
    assert first["cache.sim_misses"] > 0
    assert any(key.startswith("analysis.store.hits.") for key in first)
    assert first == _counts(name)


def test_no_program_exits_nonzero(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert run.main(["--workload", "cold-sweep", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
