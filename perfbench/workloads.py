"""The four benchmark workloads.

Each workload is a closed loop driven from this process through the
program's public APIs.  A workload has three phases:

* ``setup(traced)`` builds everything the first timed op needs and
  returns a state object;
* ``run(state, seconds, max_ops)`` is the timed phase.  It runs whole
  *windows* — blocks of ops with the same mix in every window — and
  starts another only while it is expected to end within *seconds*
  (see :func:`more_windows`), or until *max_ops* ops ran.  Each window's
  op count, duration and latencies are kept, and the end-to-end metrics
  are medians over the windows (``run.window_metrics``), so a slow
  stretch of a shared host that covers a minority of the windows does
  not move them;
* ``check(state, stats)`` runs the correctness checks outside the timed
  region and returns a list of failure messages.

``run`` returns :class:`RunStats`; ``stats.digests`` holds one canonical
result string per op for the first :data:`DIGEST_OPS` ops, which is what
the traced-vs-untraced identity check compares.
"""

from __future__ import annotations

import http.client
import json
import os
import select
import shutil
import signal
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from repro.errors import ReproError

import gen

#: Ops whose results are kept for the traced-vs-untraced identity check.
DIGEST_OPS = 200
#: Cold re-computations per run in the sampled correctness checks.
CHECK_SAMPLES = 5
#: Windows a timed phase always runs, however long they take; the first
#: of them is a warm-up (see ``RunStats.warmup``).
MIN_WINDOWS = 4
#: Modules a user of each workload imports before the first op.
IMPORTS = {
    "cold-sweep": ("repro.batch.engine", "repro.analysis.whatif", "repro.serve.protocol"),
    "whatif-edits": ("repro.analysis.whatif",),
    "layout-search": ("repro.optimize", "repro.batch.engine"),
}


@dataclass
class RunStats:
    ops: int = 0
    failed: int = 0
    elapsed: float = 0.0
    latencies: list = field(default_factory=list)
    #: ``(first, end, seconds)`` per window: ``latencies[first:end]`` are
    #: its ops, run in *seconds* of wall time.
    windows: list = field(default_factory=list)
    #: Leading windows left out of the end-to-end metrics: the first
    #: window after set-up runs slower (first calls, growing memos).
    warmup: int = 1
    digests: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    layers: dict = field(default_factory=dict)
    props: dict = field(default_factory=dict)
    #: Raw recorder counters of a traced pass (see ``layers.Recorder``).
    snapshot: dict = field(default_factory=dict)

    def fail(self, error: Exception) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(f"{type(error).__name__}: {error}")

    def close_window(self, first: int, started: float, state: dict) -> None:
        """End the window whose ops start at latency index *first* and
        whose first op started at *started*.

        At the end of window :data:`MIN_WINDOWS` this process's peak RSS
        so far goes to ``state["rss_mb"]``: every run has done that much
        work, so the figure does not depend on how many windows the
        host's speed allowed.
        """
        if len(self.latencies) > first:
            self.windows.append((first, len(self.latencies), perf_counter() - started))
        if len(self.windows) == MIN_WINDOWS and "rss_mb" not in state:
            state["rss_mb"] = _rss_mb(os.getpid())


def more_windows(stats: RunStats, started: float, seconds: float, max_ops) -> bool:
    """Whether a timed phase that began at *started* runs another window:
    always for the first :data:`MIN_WINDOWS`, then while the last
    window's duration still fits into *seconds*."""
    if stats.ops >= max_ops:
        return False
    if len(stats.windows) < MIN_WINDOWS:
        return True
    return perf_counter() - started + stats.windows[-1][2] <= seconds


def canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def import_seconds(root: Path, modules) -> float:
    """Wall time of a fresh interpreter importing *modules*: the start-up
    share of set-up, measured the same way on every repetition."""
    code = "import " + ", ".join(modules)
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    started = perf_counter()
    subprocess.run([sys.executable, "-c", code], env=env, cwd=root, check=True)
    return perf_counter() - started


def _lines_ordered(estimates) -> bool:
    """Approach 4 <= Approach 2 <= Approach 1 on every preemption pair."""
    from repro.analysis.crpd import Approach

    return all(
        e.lines[Approach(4)] <= e.lines[Approach(2)] <= e.lines[Approach(1)]
        for e in estimates
    )


# ----------------------------------------------------------------------
# cold-sweep
# ----------------------------------------------------------------------
class ColdSweep:
    """One system analysed at one geometry, from an empty disk store.

    A window is one round: both experiments at two new geometries each
    plus 24 generated systems, on a new empty store directory, so the
    VM, cache replay, flow and path layers do the work.  Every round has
    the same mix of system properties (see ``gen.sweep_round``).  The
    experiment points, the heaviest ops, are 4 of a round's 28, so a
    round's p90 falls among them rather than on the edge between them
    and the generated systems.
    """

    name = "cold-sweep"
    SYSTEMS = gen.ROTATION

    def __init__(self, ctx):
        self.ctx = ctx

    def setup(self, traced: bool):
        return {"round": gen.sweep_round(self.ctx.seed, 0, self.SYSTEMS)}

    def _op(self, op, store):
        from repro.batch.engine import SweepPoint, analyze_batch
        from repro.cache.config import CacheConfig
        from repro.analysis.whatif import WhatIfSession

        if op.kind == "point":
            sets, ways, line = op.geometry
            point = SweepPoint(
                experiment=op.experiment,
                cache=CacheConfig(num_sets=sets, ways=ways, line_size=line, miss_penalty=20),
            )
            return analyze_batch([point], store=store).results[0]
        return WhatIfSession(op.spec, store=store).result()

    def _canonical(self, op, result) -> str:
        if op.kind == "point":
            from repro.experiments.setup import ALL_SPECS
            from repro.serve.protocol import point_payload

            periods = {s.key: s for s in ALL_SPECS}[op.experiment].periods
            return canonical(point_payload(result, periods))
        return result.signature()

    def run(self, state, seconds: float, max_ops: int) -> RunStats:
        from repro.analysis.store import ArtifactStore

        stats = RunStats()
        state["done"] = []
        records = []
        started = perf_counter()
        round_index = 0
        ops = state["round"]
        while more_windows(stats, started, seconds, max_ops):
            if round_index:
                ops = gen.sweep_round(self.ctx.seed, round_index, self.SYSTEMS)
            directory = self.ctx.work / f"cold-{self.ctx.pass_id}-{round_index}"
            directory.mkdir(parents=True)
            store = ArtifactStore(directory=directory)
            first, window_started = len(stats.latencies), perf_counter()
            for op in ops:
                t0 = perf_counter()
                try:
                    result = self._op(op, store)
                except ReproError as error:
                    stats.fail(error)
                    result = None
                stats.latencies.append(perf_counter() - t0)
                stats.ops += 1
                state["done"].append((op, result, directory))
                if op.props is not None:
                    records.append(op.props)
                if stats.ops >= max_ops:
                    break
            stats.close_window(first, window_started, state)
            round_index += 1
        stats.elapsed = perf_counter() - started
        stats.digests = [
            self._canonical(op, result) if result is not None else None
            for op, result, _ in state["done"][:DIGEST_OPS]
        ]
        points = sum(op.kind == "point" for op, _, _ in state["done"])
        stats.props = {
            "rounds": round_index,
            "points": points,
            **gen.system_properties(records),
        }
        return stats

    def check(self, state, stats) -> list:
        from repro.analysis.store import ArtifactStore

        failures = []
        done = [item for item in state["done"] if item[1] is not None]
        for op, result, _ in done:
            if not _lines_ordered(result.estimates):
                failures.append(f"cold-sweep: A4 <= A2 <= A1 violated on {op}")
        rng = gen.rng_for("check", self.name, self.ctx.seed)
        for op, result, directory in rng.sample(done, min(CHECK_SAMPLES, len(done))):
            warm = self._op(op, ArtifactStore(directory=directory))
            if self._canonical(op, warm) != self._canonical(op, result):
                failures.append(f"cold-sweep: warm re-analysis differs for {op.kind} {op.experiment}")
        return failures

    def close(self, state) -> None:
        for path in self.ctx.work.glob(f"cold-{self.ctx.pass_id}-*"):
            shutil.rmtree(path, ignore_errors=True)


# ----------------------------------------------------------------------
# whatif-edits
# ----------------------------------------------------------------------
class WhatIfEdits:
    """One ``WhatIfSession.apply`` on warm sessions (see ``gen.EditStream``).

    A window is :data:`gen.WHATIF_WRITE_EVERY` ops: a whole number of
    session turns and one write episode.
    """

    name = "whatif-edits"
    GENERATED = 2

    def __init__(self, ctx):
        self.ctx = ctx

    def _bases(self):
        bases = ["exp1", "exp2"]
        for index in range(self.GENERATED):
            spec, _ = gen.generate_system(f"whatif:{self.ctx.seed}", index)
            bases.append(spec)
        return bases

    def setup(self, traced: bool):
        from repro.analysis.whatif import WhatIfSession

        sessions, infos = [], []
        for base in self._bases():
            session = WhatIfSession(base)
            result = session.result()
            config = result.config
            geometry = (config.num_sets, config.ways, config.line_size)
            for known in gen.WHATIF_KNOWN:
                session.apply("geometry={}x{}x{}".format(*known))
            session.apply("geometry={}x{}x{}".format(*geometry))
            tasks = sorted(result.periods)
            arrays = {}
            if not isinstance(base, str):
                arrays = {f"t{i}": list(task.program.arrays) for i, task in enumerate(base.tasks)}
            sessions.append(session)
            infos.append(
                {
                    "base": base,
                    "geometry": geometry,
                    "tasks": tasks,
                    "periods": dict(result.periods),
                    "arrays": arrays,
                    "colors": config.page_colors,
                    "assignment": session.layout_assignment(),
                }
            )
        return {"sessions": sessions, "infos": infos}

    def run(self, state, seconds: float, max_ops: int) -> RunStats:
        stats = RunStats()
        sessions, infos = state["sessions"], state["infos"]
        stream = gen.EditStream(self.ctx.seed, infos)
        arrays = [{task: list(words) for task, words in info["arrays"].items()} for info in infos]
        sample_rng = gen.rng_for("sample", self.name, self.ctx.seed)
        samples, kept = [], []
        started = perf_counter()
        while more_windows(stats, started, seconds, max_ops):
            first, window_started = len(stats.latencies), perf_counter()
            for _ in range(min(gen.WHATIF_WRITE_EVERY, max_ops - stats.ops)):
                index, kind, edit = next(stream)
                session = sessions[index]
                t0 = perf_counter()
                try:
                    if kind == "reset":
                        result = session.set_assignment(infos[index]["assignment"], label="reset")
                    else:
                        result = session.apply(edit)
                except ReproError as error:
                    stats.fail(error)
                    result = None
                stats.latencies.append(perf_counter() - t0)
                stats.ops += 1
                if result is None:
                    continue
                if kind.startswith("array"):
                    task, which = edit.split("=")[0].split(":")[1:]
                    arrays[index][task][int(which)] = int(edit.split("=")[1])
                if len(kept) < DIGEST_OPS:
                    kept.append(result)
                if kind.endswith("-new") or sample_rng.random() < 0.001:
                    samples.append(
                        (index, result, session.layout_assignment(),
                         {task: list(words) for task, words in arrays[index].items()})
                    )
            stats.close_window(first, window_started, state)
        stats.elapsed = perf_counter() - started
        stats.digests = [result.signature() for result in kept]
        state["samples"] = samples
        stats.props = {"sessions": len(sessions), "edit_shares": gen.edit_shares(stream.kinds)}
        return stats

    def check(self, state, stats) -> list:
        """Sampled states equal a cold session built at that configuration."""
        from dataclasses import replace

        from repro.analysis.whatif import WhatIfSession

        failures = []
        samples = state.get("samples", [])
        rng = gen.rng_for("check", self.name, self.ctx.seed)
        writes = [s for s in samples if s[1].label != "reset" and s[1].invalidated.get("trace")]
        chosen = writes[:2] + rng.sample(samples, min(CHECK_SAMPLES - 2, len(samples)))
        for index, result, assignment, arrays in chosen:
            base = state["infos"][index]["base"]
            if not isinstance(base, str):
                tasks = tuple(
                    replace(task, program=replace(task.program, arrays=tuple(arrays[f"t{i}"])))
                    for i, task in enumerate(base.tasks)
                )
                base = replace(base, tasks=tasks)
            cold = WhatIfSession(base, cache=result.config, period_overrides=result.periods)
            if cold.layout_assignment() == assignment:
                fresh = cold.result()
            else:
                fresh = cold.set_assignment(assignment)
            if fresh.signature() != result.signature():
                failures.append(f"whatif-edits: state {result.label!r} differs from a cold session")
        return failures

    def close(self, state) -> None:
        for session in state["sessions"]:
            session.close()


# ----------------------------------------------------------------------
# layout-search
# ----------------------------------------------------------------------
class LayoutSearch:
    """One layout evaluation inside seeded ``optimize`` runs.

    A round searches Experiment II then Experiment I at their own
    geometry; the timed phase runs whole rounds, another only while it
    is expected to end within *seconds*.  Op latency is per evaluation:
    the duration of each ``WhatIfSession.set_assignment`` jump the
    search scores (reverts excluded), and for generation batches the
    batch duration divided by its size.  A window is one search, so a
    window's p90 falls on its generation evaluations.
    """

    name = "layout-search"
    BASES = ("exp2", "exp1")
    # At 30 evaluations the search improved on both bases for every run
    # seed tried (1-12); at 20, Experiment I often ends where it started.
    EVALS = 30
    PATIENCE = 30
    # Generation batches of 8 candidates: p90 then falls inside
    # Experiment I's generation evaluations rather than on the edge
    # between the two bases' batches.
    GENERATION = 9

    def __init__(self, ctx, recorder=None):
        self.ctx = ctx
        self.recorder = recorder

    def setup(self, traced: bool):
        from repro.cache.config import CacheConfig

        return {"config": CacheConfig.scaled_8k(20)}

    def _timers(self, latencies):
        """Op-boundary timers on the search's two evaluation entry points."""
        import repro.batch.engine as engine
        from repro.analysis.whatif import WhatIfSession

        raw_jump = WhatIfSession.__dict__["set_assignment"]
        raw_batch = engine.analyze_batch

        def set_assignment(self, assignment, label=None):
            t0 = perf_counter()
            result = raw_jump(self, assignment, label=label)
            if label not in ("revert", "restart-seed"):
                latencies.append(perf_counter() - t0)
            return result

        def analyze_batch(points, *args, **kwargs):
            t0 = perf_counter()
            result = raw_batch(points, *args, **kwargs)
            share = (perf_counter() - t0) / max(1, len(points))
            latencies.extend([share] * len(points))
            return result

        WhatIfSession.set_assignment = set_assignment
        engine.analyze_batch = analyze_batch

        def restore():
            WhatIfSession.set_assignment = raw_jump
            engine.analyze_batch = raw_batch

        return restore

    def run(self, state, seconds: float, max_ops: int) -> RunStats:
        from repro.optimize import optimize

        search = optimize
        if self.recorder is not None:
            search = self.recorder.timed("optimize", optimize)
        stats = RunStats(warmup=0)
        outcomes = []
        restore = self._timers(stats.latencies)
        started = perf_counter()
        try:
            round_index, round_seconds = 0, 0.0
            while stats.ops < max_ops and (
                round_index == 0 or perf_counter() - started + round_seconds <= seconds
            ):
                round_started = perf_counter()
                for base in self.BASES:
                    if stats.ops >= max_ops:
                        break
                    seed = gen.rng_for("optimize", self.ctx.seed, round_index, base).randrange(2**31)
                    first, search_started = len(stats.latencies), perf_counter()
                    try:
                        outcome = search(
                            base,
                            seed=seed,
                            budget_evals=self.EVALS,
                            patience=self.PATIENCE,
                            generation=self.GENERATION,
                            cache_budgets=[state["config"]],
                        )
                    except ReproError as error:
                        stats.fail(error)
                        stats.ops += 1
                        continue
                    outcomes.append((base, outcome))
                    stats.ops += outcome.evals_used
                    stats.close_window(first, search_started, state)
                if round_index == 0:
                    # Peak RSS after the one round every run makes.
                    state["rss_mb"] = _rss_mb(os.getpid())
                round_index += 1
                round_seconds = perf_counter() - round_started
        finally:
            restore()
        stats.elapsed = perf_counter() - started
        state["outcomes"] = outcomes
        stats.digests = [canonical(outcome.to_dict()) for _, outcome in outcomes]
        local = [
            entry for _, outcome in outcomes for entry in outcome.move_log
            if entry["valid"] and entry["kind"] not in ("baseline", "generation")
        ]
        gains = [outcome.default_budget.improvement_pct() for _, outcome in outcomes]
        stats.layers = {
            "optimize.evals": sum(outcome.evals_used for _, outcome in outcomes),
            "optimize.accept_ratio": (
                sum(entry["accepted"] for entry in local) / len(local) if local else 0.0
            ),
            "optimize.search_gain_pct": sum(gains) / len(gains) if gains else 0.0,
        }
        stats.props = {
            "searches": len(outcomes),
            "gain_pct": {f"{base}#{i}": g for i, ((base, _), g) in enumerate(zip(outcomes, gains))},
        }
        return stats

    def check(self, state, stats) -> list:
        """The best layout re-scored cold through ``analyze_batch``."""
        from repro.batch.engine import SweepPoint, analyze_batch
        from repro.experiments.setup import ALL_SPECS
        from repro.optimize import payload_of_point, wcrt_score

        failures = []
        specs = {spec.key: spec for spec in ALL_SPECS}
        for base, outcome in state.get("outcomes", []):
            best = outcome.default_budget
            point = SweepPoint(experiment=base, cache=best.cache, layout=best.best_assignment)
            payload = payload_of_point(analyze_batch([point], path_engine="dense").results[0])
            score = wcrt_score(payload, outcome.approach, specs[base].periods)
            if canonical(payload) != canonical(best.best_payload) or score != best.best_score:
                failures.append(f"layout-search: {base} best layout re-scored cold differs")
        return failures

    def close(self, state) -> None:
        pass


# ----------------------------------------------------------------------
# serve-warm
# ----------------------------------------------------------------------
class ServeWarm:
    """One ``POST /v1/analyze`` with ``wait: true`` against ``repro serve``.

    The daemon runs as a subprocess (``serve_launcher.py``, which adds the
    layer wrappers on the traced pass) with 2 worker threads; 2 client
    threads each hold one keep-alive connection and post until *seconds*
    have passed.  A window is :data:`WINDOW` consecutive responses, in
    the order they arrived.
    """

    name = "serve-warm"
    CLIENTS = 2
    WINDOW = 100
    BOOT_TIMEOUT = 60.0

    def __init__(self, ctx):
        self.ctx = ctx

    def setup(self, traced: bool):
        started = perf_counter()
        self.ctx.serial += 1
        store = self.ctx.work / f"serve-store-{self.ctx.serial}"
        tmp = self.ctx.work / "tmp"
        env = dict(
            os.environ,
            PYTHONPATH=str(self.ctx.root / "src"),
            REPRO_CACHE_DIR=str(store),
            TMPDIR=str(tmp),
        )
        log = open(self.ctx.work / f"serve-{self.ctx.serial}.log", "wb")
        launcher = Path(__file__).resolve().parent / "serve_launcher.py"
        proc = subprocess.Popen(
            [sys.executable, str(launcher), "--trace", str(int(traced)),
             "serve", "--port", "0", "--serve-workers", "2"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=log,
            cwd=self.ctx.root, env=env,
        )
        state = {"proc": proc, "log": log, "traced": traced, "store": store}
        try:
            line = self._line(proc, "serving on ")
            host, port = line.rsplit("/", 1)[-1].rsplit(":", 1)
            state["address"] = (host, int(port))
            bodies = gen.serve_grid(self.ctx.seed)
            state["bodies"] = bodies
            state["payloads"] = [
                json.dumps(dict(body, wait=True)).encode() for body in bodies
            ]
            conn = http.client.HTTPConnection(host, int(port), timeout=120)
            for payload in state["payloads"]:
                status, _ = self._post(conn, payload, "warmup")
                if status != 200:
                    raise RuntimeError(f"serve-warm: warm-up request answered {status}")
            conn.close()
            if traced:
                self._command(state, "reset")
        except BaseException:
            self.close(state)
            raise
        state["setup_s"] = perf_counter() - started
        return state

    def _line(self, proc, prefix: str) -> str:
        deadline = perf_counter() + self.BOOT_TIMEOUT
        while perf_counter() < deadline:
            ready, _, _ = select.select([proc.stdout], [], [], 1.0)
            if not ready:
                if proc.poll() is not None:
                    break
                continue
            line = proc.stdout.readline().decode()
            if not line:
                break
            if line.startswith(prefix):
                return line.strip()
        raise RuntimeError(f"serve-warm: daemon never printed {prefix!r}")

    def _command(self, state, command: str) -> str:
        proc = state["proc"]
        proc.stdin.write(f"{command}\n".encode())
        proc.stdin.flush()
        return self._line(proc, f"{command}-ok")

    @staticmethod
    def _post(conn, payload: bytes, client: str):
        conn.request(
            "POST", "/v1/analyze", body=payload,
            headers={"Content-Type": "application/json", "X-Client": client},
        )
        response = conn.getresponse()
        return response.status, response.read()

    def run(self, state, seconds: float, max_ops: int) -> RunStats:
        stats = RunStats()
        host, port = state["address"]
        payloads = state["payloads"]
        per_client = [[] for _ in range(self.CLIENTS)]
        errors = []
        quota = max_ops / self.CLIENTS

        def client(index):
            conn = http.client.HTTPConnection(host, port, timeout=120)
            stream = gen.request_stream(self.ctx.seed, index, state["bodies"])
            out = per_client[index]
            try:
                while len(out) < quota and perf_counter() < deadline:
                    body = next(stream)
                    t0 = perf_counter()
                    status, data = self._post(conn, payloads[body], f"client-{index}")
                    end = perf_counter()
                    out.append((body, status, data, end - t0, end))
            except (OSError, http.client.HTTPException) as error:
                errors.append(error)
            finally:
                conn.close()

        threads = [threading.Thread(target=client, args=(i,)) for i in range(self.CLIENTS)]
        started = perf_counter()
        deadline = started + seconds
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        stats.elapsed = perf_counter() - started
        for error in errors:
            stats.fail(error)
        stats.ops = sum(len(out) for out in per_client) + len(errors)
        state["responses"] = per_client
        arrived = sorted((item for out in per_client for item in out), key=lambda item: item[4])
        stats.latencies = [item[3] for item in arrived]
        for a in range(0, len(arrived) - self.WINDOW + 1, self.WINDOW):
            since = arrived[a - 1][4] if a else started
            stats.windows.append((a, a + self.WINDOW, arrived[a + self.WINDOW - 1][4] - since))
        for out in per_client:
            for _, status, data, _, _ in out:
                if status != 200:
                    stats.failed += 1
        stats.digests = [
            canonical(json.loads(item[2]).get("result"))
            for item in per_client[0][:DIGEST_OPS]
        ]
        spec_share = sum(
            state["bodies"][item[0]]["kind"] == "spec" for out in per_client for item in out
        )
        stats.props = {
            "grid": len(state["bodies"]),
            "spec_share": round(spec_share / max(1, len(stats.latencies)), 4),
        }
        state["rss_mb"] = _rss_mb(state["proc"].pid)
        if state["traced"]:
            stats.layers = self._server_layers(state, per_client)
            stats.snapshot = state["snapshot"]
        return stats

    def _server_layers(self, state, per_client) -> dict:
        from layers import layer_metrics

        line = self._command(state, "stats")
        report = json.loads(line.split(" ", 1)[1])
        state["snapshot"] = report["layers"]
        jobs = report["jobs"]
        overhead = []
        for out in per_client:
            for _, _, data, latency, _ in out:
                job = jobs.get(json.loads(data).get("job"))
                if job is not None:
                    overhead.append(latency - job[0] - job[1])
        layers = layer_metrics(report["layers"])
        layers.update(
            {
                "serve.queue_wait_p50_ms": percentile([j[0] for j in jobs.values()], 50) * 1e3,
                "serve.job_p50_ms": percentile([j[1] for j in jobs.values()], 50) * 1e3,
                "serve.http_overhead_p50_ms": percentile(overhead, 50) * 1e3,
            }
        )
        return layers

    def check(self, state, stats) -> list:
        """Every response is byte-identical to direct computation."""
        from repro.analysis.store import ArtifactStore
        from repro.analysis.whatif import WhatIfSession
        from repro.batch.engine import SweepPoint, analyze_batch
        from repro.cache.config import CacheConfig
        from repro.experiments.setup import ALL_SPECS
        from repro.fuzz.spec import SystemSpec
        from repro.serve.protocol import parse_request, point_payload, whatif_payload

        specs = {spec.key: spec for spec in ALL_SPECS}
        store = ArtifactStore(directory=self.ctx.work / f"serve-direct-{self.ctx.pass_id}")
        expected = {}
        failures = []
        for out in state.get("responses", []):
            for body_index, status, data, _, _ in out:
                if status != 200:
                    continue
                if body_index not in expected:
                    body = state["bodies"][body_index]
                    request = parse_request(body)
                    if request.kind == "point":
                        cache = None
                        if request.geometry is not None:
                            sets, ways, line = request.geometry
                            cache = CacheConfig(
                                num_sets=sets, ways=ways, line_size=line,
                                miss_penalty=request.miss_penalty,
                            )
                        point = SweepPoint(request.experiment, request.miss_penalty, cache)
                        result = analyze_batch([point], store=store).results[0]
                        payload = point_payload(result, specs[request.experiment].periods)
                    else:
                        session = WhatIfSession(SystemSpec.from_json(request.spec), store=store)
                        payload = whatif_payload(session.result(), label=request.label)
                    expected[body_index] = canonical(payload)
                envelope = json.loads(data)
                if envelope.get("state") != "done" or canonical(envelope.get("result")) != expected[body_index]:
                    failures.append(f"serve-warm: response for body {body_index} differs from direct computation")
                    if len(failures) >= 5:
                        return failures
        return failures

    def close(self, state) -> None:
        proc = state["proc"]
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        for stream in (proc.stdin, proc.stdout):
            stream.close()
        state["log"].close()


# ----------------------------------------------------------------------
def percentile(values, q: float) -> float:
    """Linear-interpolated percentile (``q`` in 0..100)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def _rss_mb(pid: int) -> float:
    """Peak resident set of process *pid* (``VmHWM``), in MB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


WORKLOADS = {
    "cold-sweep": ColdSweep,
    "whatif-edits": WhatIfEdits,
    "layout-search": LayoutSearch,
    "serve-warm": ServeWarm,
}
