"""Start the real ``repro serve`` daemon for the serve-warm workload.

Usage: ``python perfbench/serve_launcher.py --trace 0|1 serve [ARGS...]``

Everything after ``--trace N`` is handed to ``repro.cli.main`` unchanged.
With ``--trace 1`` the layer wrappers (``layers.py``) are installed in
this process first, and each finished job's queue wait and run time is
recorded from its ``JobRecord`` timestamps.

The launcher reads commands from stdin, one per line, and answers on
stdout:

* ``reset`` — zero the layer counters and job timings (sent after the
  warm-up requests); answers ``reset-ok``;
* ``stats`` — answers ``stats-ok <json>`` with the counters and timings.

When stdin closes — the benchmark exited, normally or not — the launcher
sends itself SIGTERM, so the daemon drains and never outlives its client.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import threading
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


def _commands(recorder, jobs: dict, lock: threading.Lock) -> None:
    for line in sys.stdin:
        command = line.strip()
        if command == "reset" and recorder is not None:
            recorder.reset()
            with lock:
                jobs.clear()
            print("reset-ok", flush=True)
        elif command == "stats" and recorder is not None:
            with lock:
                report = {"layers": recorder.snapshot(), "jobs": dict(jobs)}
            print("stats-ok " + json.dumps(report), flush=True)
    os.kill(os.getpid(), signal.SIGTERM)


def main(argv: list) -> int:
    if len(argv) < 2 or argv[0] != "--trace" or argv[1] not in ("0", "1"):
        print("usage: serve_launcher.py --trace 0|1 serve [ARGS...]", file=sys.stderr)
        return 2
    recorder = None
    jobs: dict = {}
    lock = threading.Lock()
    if argv[1] == "1":
        from layers import Recorder, install
        from repro.serve.service import AnalysisService

        recorder = Recorder()
        install(recorder, serve=True)
        run_job = AnalysisService._run_job

        def timed_run_job(self, job):
            run_job(self, job)
            with lock:
                jobs[job.id] = (
                    job.started_at - job.submitted_at,
                    job.finished_at - job.started_at,
                )

        AnalysisService._run_job = timed_run_job
    threading.Thread(
        target=_commands, args=(recorder, jobs, lock), name="launcher-stdin", daemon=True
    ).start()
    from repro.cli import main as repro_main

    return repro_main(argv[2:])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
