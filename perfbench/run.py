"""Run one benchmark workload and print its metrics as JSON.

Usage (from the repository root)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` prints the end-to-end metrics, measured with no wrappers
installed.  ``--trace 1`` runs an untraced pass and then a traced pass of
the same length over the same inputs, and prints the per-layer metrics of
the traced pass plus the tracing overhead.  The last line of stdout is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; a human-readable summary goes to stderr.  The exit code is 1
when a correctness check fails and 2 when the program is not there to
run.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import tempfile
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: An untraced run sets up at least ``SETUP_REPEATS[0]`` times and until
#: ``SETUP_SECONDS`` of set-up were measured, at most ``SETUP_REPEATS[1]``
#: times; ``setup_s`` is the median.  Sub-second set-ups get more samples.
SETUP_REPEATS = (3, 9)
SETUP_SECONDS = 2.0
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


class Context:
    """Per-run settings shared by the workloads."""

    def __init__(self, seed: int, work: Path):
        self.root = ROOT
        self.seed = seed
        self.work = work
        self.pass_id = "main"
        self.serial = 0


@contextmanager
def workspace(prefix: str):
    """A working directory inside the checkout for everything a run writes
    (stores, pool spools, daemon logs); removed afterwards."""
    base = ROOT / ".perfbench_work"
    base.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{prefix}-", dir=base))
    (work / "tmp").mkdir()
    saved = {key: os.environ.get(key) for key in ("REPRO_CACHE_DIR", "TMPDIR")}
    saved_tempdir = tempfile.tempdir
    os.environ["REPRO_CACHE_DIR"] = str(work / "default-store")
    os.environ["TMPDIR"] = str(work / "tmp")
    tempfile.tempdir = str(work / "tmp")
    try:
        yield work
    finally:
        tempfile.tempdir = saved_tempdir
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
        shutil.rmtree(work, ignore_errors=True)
        try:
            base.rmdir()
        except OSError:
            pass


def layer_unit(name: str) -> str:
    if name.endswith("_s") and not name.endswith("ops_per_s"):
        return "s"
    if name.endswith("ops_per_s"):
        return "1/s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_pct"):
        return "%"
    if name.endswith("ratio"):
        return "ratio"
    if name.endswith("bytes"):
        return "bytes"
    return "count"


def window_metrics(stats) -> dict:
    """``ops_per_s``, ``op_p50_ms`` and ``op_p90_ms``: for each the median,
    over the timed phase's windows after the warm-up, of that window's
    own value."""
    from statistics import median

    from workloads import percentile

    windows = stats.windows[stats.warmup:] or [(0, len(stats.latencies), stats.elapsed)]
    per_window = [stats.latencies[first:end] for first, end, _ in windows]
    return {
        "ops_per_s": median(len(lat) / seconds for lat, (_, _, seconds) in zip(per_window, windows)),
        "op_p50_ms": median(percentile(lat, 50) for lat in per_window) * 1e3,
        "op_p90_ms": median(percentile(lat, 90) for lat in per_window) * 1e3,
    }


def _own_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_pass(workload, ctx, seconds, max_ops, traced=False, recorder=None):
    """Set up, run and check one pass; returns ``(stats, failures, rss_mb)``.

    With *recorder* (in-process workloads) the layer wrappers are
    installed around the timed phase only.
    """
    from layers import install

    state = workload.setup(traced)
    try:
        installation = install(recorder) if recorder is not None else None
        try:
            stats = workload.run(state, seconds, max_ops)
        finally:
            if installation is not None:
                installation.uninstall()
        rss = state["rss_mb"] if "rss_mb" in state else _own_rss_mb()
        failures = workload.check(state, stats)
    finally:
        workload.close(state)
    return stats, failures, rss


def measure_untraced(name, ctx, seconds, max_ops=float("inf")) -> dict:
    from statistics import median

    import workloads

    workload = workloads.WORKLOADS[name](ctx)
    samples = []
    while True:
        started = perf_counter()
        if name in workloads.IMPORTS:
            workloads.import_seconds(ctx.root, workloads.IMPORTS[name])
        state = workload.setup(False)
        samples.append(perf_counter() - started)
        least, most = SETUP_REPEATS
        if len(samples) >= most or (len(samples) >= least and sum(samples) >= SETUP_SECONDS):
            break
        workload.close(state)
    try:
        stats = workload.run(state, seconds, max_ops)
        rss = state["rss_mb"] if "rss_mb" in state else _own_rss_mb()
        failures = workload.check(state, stats)
    finally:
        workload.close(state)
    metrics = dict(window_metrics(stats), setup_s=median(samples), peak_rss_mb=rss)
    return {
        "metrics": {key: {"value": metrics[key], "unit": unit} for key, unit in END_TO_END},
        "stats": stats,
        "failures": failures,
        "summary": {
            "setup_samples_s": samples,
            "ops": stats.ops,
            "window_ops_per_s": [round((end - first) / seconds, 3) for first, end, seconds in stats.windows],
            "timed_s": stats.elapsed,
            "latency_samples": len(stats.latencies),
            "error_rate": (stats.failed + len(failures)) / max(1, stats.ops),
        },
    }


def measure_traced(name, ctx, seconds, max_ops=float("inf")) -> dict:
    import workloads
    from layers import LAYER_METRICS, Recorder, layer_metrics

    in_process = name != "serve-warm"
    ctx.pass_id = "plain"
    plain, plain_failures, _ = run_pass(workloads.WORKLOADS[name](ctx), ctx, seconds, max_ops)
    recorder = Recorder()
    ctx.pass_id = "traced"
    workload = (
        workloads.LayoutSearch(ctx, recorder)
        if name == "layout-search"
        else workloads.WORKLOADS[name](ctx)
    )
    traced, failures, _ = run_pass(
        workload, ctx, seconds, max_ops, traced=True,
        recorder=recorder if in_process else None,
    )
    failures = plain_failures + failures
    common = min(len(plain.digests), len(traced.digests))
    if plain.digests[:common] != traced.digests[:common]:
        failures.append(f"{name}: traced pass results differ from the untraced pass")
    if in_process:
        traced.snapshot = recorder.snapshot()
    values = dict.fromkeys(LAYER_METRICS, 0.0)
    values.update(layer_metrics(traced.snapshot))
    values.update(traced.layers)
    plain_rate = window_metrics(plain)["ops_per_s"]
    traced_rate = window_metrics(traced)["ops_per_s"]
    values["trace.ops_per_s"] = traced_rate
    values["trace.untraced_ops_per_s"] = plain_rate
    values["trace.overhead_pct"] = (plain_rate - traced_rate) / plain_rate * 100.0
    return {
        "metrics": {key: {"value": values[key], "unit": layer_unit(key)} for key in LAYER_METRICS},
        "stats": traced,
        "plain": plain,
        "failures": failures,
        "summary": {
            "compared_ops": common,
            "traced_elapsed_s": traced.elapsed,
            "traced_ops": traced.ops,
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program to measure ({ROOT / 'src' / 'repro'} is missing)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    with workspace(args.workload) as work:
        ctx = Context(args.seed, work)
        measure = measure_traced if args.trace else measure_untraced
        outcome = measure(args.workload, ctx, args.seconds)
    stats, failures = outcome["stats"], outcome["failures"]
    summary = dict(outcome["summary"], properties=stats.props, errors=stats.errors,
                   failures=failures[:10])
    print(json.dumps(summary, indent=1, sort_keys=True), file=sys.stderr)
    attempted = stats.ops + (outcome["plain"].ops if "plain" in outcome else 0)
    failed = stats.failed + (outcome["plain"].failed if "plain" in outcome else 0)
    print(json.dumps({
        "correct": not failures,
        "attempted": max(1, attempted),
        "failed": failed + len(failures),
        "metrics": outcome["metrics"],
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
