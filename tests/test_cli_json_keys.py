"""Pinned key sets of the CLI's JSON artifacts.

``repro sweep --json``, ``repro whatif --json`` and the move log of
``repro optimize --json`` are user-facing formats: scripts read them by
key.  These tests pin every key set (top level and nested) so a change
to the result types behind them cannot silently rename, drop or add a
field.
"""

from __future__ import annotations

import json

from repro.cli import main

APPROACH_KEYS = {"approach1", "approach2", "approach3", "approach4"}
APPROACH_IDS = {"1", "2", "3", "4"}
GRAPH_NODES = {"trace", "sim", "flow", "paths", "task", "pair", "wcrt"}
CONFIG_KEYS = {
    "num_sets", "ways", "line_size", "miss_penalty", "policy", "write_back",
}


def _run(tmp_path, argv: list) -> object:
    out = tmp_path / "out.json"
    assert main([*argv, "--json", str(out)]) == 0
    return json.loads(out.read_text())


class TestSweepJson:
    def test_row_and_summary_keys(self, tmp_path):
        report = _run(
            tmp_path,
            ["--no-cache", "sweep", "--experiment", "1", "--penalties", "10"],
        )
        assert set(report) == {"summary", "points"}
        assert set(report["summary"]) == {
            "points", "unique_points", "deduplicated", "elapsed_seconds",
            "pool", "store",
        }
        assert set(report["summary"]["pool"]) == {
            "tasks", "reuse", "ship_bytes", "fallbacks",
        }
        assert set(report["summary"]["store"]) == {"hits", "misses"}
        (row,) = report["points"]
        assert set(row) == {
            "experiment", "label", "miss_penalty", "geometry", "wcet",
            "lines", "wcrt", "schedulable", "soundness", "degradations",
            "analysis_seconds", "store",
        }
        assert set(row["geometry"]) == {"num_sets", "ways", "line_size"}
        assert set(row["wcet"]) == {"mr", "ed", "ofdm"}
        assert set(row["lines"]) == {"ed<-mr", "ofdm<-mr", "ofdm<-ed"}
        for per_pair in row["lines"].values():
            assert set(per_pair) == APPROACH_KEYS
        assert set(row["wcrt"]) == APPROACH_KEYS
        for per_task in row["wcrt"].values():
            assert set(per_task) == {"mr", "ed", "ofdm"}
        assert set(row["schedulable"]) == APPROACH_KEYS
        assert set(row["store"]) == {"hits", "misses"}
        assert isinstance(row["degradations"], int)


class TestWhatIfJson:
    def test_state_keys(self, tmp_path):
        states = _run(
            tmp_path,
            ["--no-cache", "whatif", "--base", "exp1", "--edit", "penalty=40"],
        )
        assert [state["label"] for state in states] == ["base", "penalty=40"]
        for state in states:
            assert set(state) == {
                "config", "periods", "jitters", "wcet", "lines", "wcrt",
                "status", "schedulable", "soundness", "events", "label",
                "elapsed_seconds", "invalidated", "reused", "warm_started",
            }
            assert set(state["config"]) == CONFIG_KEYS
            for per_pair in state["lines"].values():
                assert set(per_pair) == APPROACH_IDS
            assert set(state["wcrt"]) == APPROACH_IDS
            assert set(state["status"]) == APPROACH_IDS
            assert set(state["schedulable"]) == APPROACH_IDS
            assert set(state["invalidated"]) == GRAPH_NODES
            assert set(state["reused"]) == GRAPH_NODES


class TestOptimizeMoveLog:
    def test_eval_payload_keys(self, tmp_path):
        outcome = _run(
            tmp_path,
            [
                "--no-cache", "optimize", "--experiment", "exp1",
                "--seed", "3", "--budget-evals", "3", "--generation", "2",
                "--patience", "1", "--restarts", "1",
                "--cache-budgets", "64x2x32",
            ],
        )
        kinds = {entry["kind"] for entry in outcome["move_log"]}
        assert {"baseline", "generation"} <= kinds
        evaluated = [e for e in outcome["move_log"] if e["eval"] is not None]
        assert evaluated
        for entry in outcome["move_log"]:
            assert {
                "budget", "kind", "move", "valid", "accepted", "score",
                "assignment", "eval", "restart",
            } == set(entry)
        for entry in evaluated:
            payload = entry["eval"]
            assert set(payload) == {"wcet", "wcrt", "schedulable"}
            assert set(payload["wcrt"]) == APPROACH_IDS
            assert set(payload["schedulable"]) == APPROACH_IDS
            for per_task in payload["wcrt"].values():
                assert set(per_task) == set(payload["wcet"])
