"""Seeded input generator for the benchmark workloads.

Deliberately independent of ``repro.fuzz.generator``: a change to the fuzz
campaign's case distribution must not shift a benchmark workload.  The
program only ever sees what this module produces — fuzz ``SystemSpec``
values, what-if edit strings and HTTP request bodies — built from the
public ``repro.fuzz.spec`` data types.

Every draw comes from ``random.Random`` seeded with a string, which is
stable across platforms and Python builds.  Each generator also returns a
*property record* (task counts, policy mix, working-set/cache ratios, edit
shares) so a later claim can state what share of a workload has the
property it depends on.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass

from repro.fuzz.spec import (
    BranchSpec,
    CacheSpec,
    LoopSpec,
    MemSpec,
    ProgramSpec,
    SystemSpec,
    TaskDef,
)

#: Second seed, never used while the benchmark was tuned; a later claim
#: of a gain must also hold on it.
HELD_OUT_SEED = 7919

POLICIES = ("lru", "fifo", "plru")
#: Working set (all arrays of all tasks) over cache capacity.  Four
#: values, so the rotation in :func:`generate_system` has period 24.
WS_RATIOS = (0.25, 0.75, 1.5, 4.0)
#: Period of the property rotation: lcm(3 policies, 6 for write policy
#: and task count, 4 ratios, 8 for capacity).
ROTATION = 24
TASK_COUNTS = (2, 3, 3)
#: Cache capacities in bytes; the seed picks the ways/line shape.
CAPACITIES = (256, 512)
CACHE_WAYS = (1, 2, 4)
CACHE_LINES = (16, 32)
#: Memory references one generated task makes per run, roughly; keeps the
#: VM cost of a generated system in a narrow band whatever its footprint.
TASK_ACCESSES = 240

#: Geometries (sets, ways, line) the experiments are analysed at.
EXP_GEOMETRIES = (
    (256, 2, 16),
    (128, 2, 32),
    (64, 4, 32),
    (512, 1, 16),
    (128, 4, 16),
    (256, 1, 32),
)


def rng_for(*parts) -> random.Random:
    return random.Random(":".join(str(part) for part in ("perfbench",) + parts))


# ----------------------------------------------------------------------
# Generated systems
# ----------------------------------------------------------------------
def _mem(rng: random.Random, array: int, words: int, store: bool, accesses: int):
    stride = rng.choice((1, 1, 2))
    count = max(1, words // stride)
    return MemSpec(
        array=array,
        count=count,
        stride=stride,
        store=store,
        reps=max(1, accesses // count),
    )


def _program(rng: random.Random, words_total: int, write_back: bool) -> ProgramSpec:
    n_arrays = rng.randint(1, 3)
    cuts = sorted(rng.sample(range(1, 64), n_arrays - 1))
    shares = [b - a for a, b in zip([0] + cuts, cuts + [64])]
    arrays = tuple(max(4, words_total * share // 64) for share in shares)
    budget = TASK_ACCESSES
    first = rng.randrange(n_arrays)
    body = [_mem(rng, first, arrays[first], write_back or rng.random() < 0.3, budget // 2)]
    other = rng.randrange(n_arrays)
    if rng.random() < 0.5:
        # Two feasible paths: the flag picks which sweep runs.
        body.append(
            BranchSpec(
                then=(_mem(rng, other, arrays[other], False, budget // 2),),
                orelse=(_mem(rng, first, arrays[first], True, budget // 4),),
            )
        )
    else:
        body.append(
            LoopSpec(
                bound=2,
                body=(_mem(rng, other, arrays[other], rng.random() < 0.5, budget // 4),),
            )
        )
    return ProgramSpec(arrays=arrays, body=tuple(body))


def generate_system(seed, index: int) -> tuple[SystemSpec, dict]:
    """System *index* of stream *seed*, plus its property record.

    The properties that set an analysis's cost rotate with *index* —
    policy, write policy, task count, capacity and working-set ratio —
    with a common period of :data:`ROTATION`, so every run of that many
    consecutive systems has the same cost mix on every seed; the seed
    draws cache shape, program structure and timing.
    """
    rng = rng_for("system", seed, index)
    policy = POLICIES[index % 3]
    write_back = (index // 3) % 2 == 1
    ratio = WS_RATIOS[index % len(WS_RATIOS)]
    capacity = CAPACITIES[(index // len(WS_RATIOS)) % len(CAPACITIES)]
    n_tasks = TASK_COUNTS[(index // 2) % len(TASK_COUNTS)]
    ways = rng.choice(CACHE_WAYS)
    line = rng.choice(CACHE_LINES)
    cache = CacheSpec(
        num_sets=capacity // (ways * line),
        ways=ways,
        line_size=line,
        miss_penalty=rng.choice((10, 20, 40)),
        policy=policy,
        write_back=write_back,
    )
    cache_words = capacity // 4
    per_task = max(8, int(ratio * cache_words) // n_tasks)
    tasks = tuple(
        TaskDef(
            program=_program(rng, per_task, write_back),
            period_mult=rng.randint(4, 9),
            jitter_pct=rng.choice((0, 0, 10)),
        )
        for _ in range(n_tasks)
    )
    spec = SystemSpec(
        cache=cache,
        tasks=tasks,
        context_switch=rng.choice((0, 7)),
        stagger=rng.random() < 0.5,
    )
    words = sum(sum(task.program.arrays) for task in tasks)
    props = {
        "tasks": n_tasks,
        "policy": policy,
        "write_back": write_back,
        "ws_ratio": round(words * 4 / (cache_words * 4), 3),
    }
    return spec, props


def system_properties(records: list) -> dict:
    """Aggregate property records into shares (the workload's record)."""
    n = len(records)
    if not n:
        return {}
    ratios = sorted(r["ws_ratio"] for r in records)
    return {
        "systems": n,
        "tasks": dict(Counter(str(r["tasks"]) for r in records)),
        "policy": dict(Counter(r["policy"] for r in records)),
        "write_back_share": round(sum(r["write_back"] for r in records) / n, 3),
        "ws_ratio_min": ratios[0],
        "ws_ratio_median": ratios[n // 2],
        "ws_ratio_max": ratios[-1],
        "ws_over_cache_share": round(sum(r > 1 for r in ratios) / n, 3),
    }


# ----------------------------------------------------------------------
# cold-sweep rounds
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SweepOp:
    """One cold-sweep op: an experiment point or a generated system."""

    kind: str  # "point" | "system"
    experiment: str = ""
    geometry: tuple = ()
    spec: "SystemSpec | None" = None
    props: "dict | None" = None


def sweep_round(seed, round_index: int, systems: int) -> list:
    """Ops of one cold-sweep round, in a seeded order.

    A round is Experiment I and Experiment II at two geometries each,
    so the second geometry of an experiment replays the traces the
    first recorded, plus *systems* generated systems.  The geometries
    rotate through :data:`EXP_GEOMETRIES` by round (Experiment II three
    steps behind Experiment I), the same on every seed; with *systems* a
    multiple of :data:`ROTATION` every round holds the same mix of the
    rotated system properties (see :func:`generate_system`).  The seed
    draws the systems and the order.
    """
    rng = rng_for("sweep", seed, round_index)
    n = len(EXP_GEOMETRIES)
    ops = [
        SweepOp(
            "point",
            experiment=experiment,
            geometry=EXP_GEOMETRIES[(2 * round_index + shift + i) % n],
        )
        for experiment, shift in (("exp1", 0), ("exp2", 3))
        for i in range(2)
    ]
    for index in range(systems):
        spec, props = generate_system(f"{seed}:{round_index}", index)
        ops.append(SweepOp("system", spec=spec, props=props))
    rng.shuffle(ops)
    return ops


# ----------------------------------------------------------------------
# whatif-edits stream
# ----------------------------------------------------------------------
#: Known geometry per session (visited during set-up); geometry reads
#: alternate between it and the session's base geometry.
WHATIF_KNOWN = ((128, 2, 32),)
#: Session turn order (indices into the bases: Experiment I, Experiment
#: II, two generated systems).  Reads cost generated < Experiment II <
#: Experiment I, so with 20 % / 60 % / 20 % of the turns the latency
#: median falls in the middle of Experiment II's reads and p90 in the
#: middle of Experiment I's, not on the edge between two sessions.
WHATIF_TURNS = (0, 1, 1, 2, 1, 1, 0, 1, 1, 3)
#: First-time geometry pool; each session draws without replacement.
#: At least 8 KB and 2 ways: on smaller caches an experiment task's WCET
#: can outgrow its period, which the analysis rejects as a config error.
WHATIF_FRESH = tuple(
    (sets, ways, line)
    for sets in (32, 64, 128, 256, 512)
    for ways in (2, 4, 8)
    for line in (16, 32, 64)
    if sets * ways * line >= 8192
)
#: One write episode (a cache-missing edit plus its revert) per this
#: many ops; fixed, so the write share is the same on every seed.
WHATIF_WRITE_EVERY = 1200
WRITE_KINDS = ("geometry", "array", "data", "color")


class EditStream:
    """The seeded, endless what-if edit stream over a set of sessions.

    Sessions take turns in :data:`WHATIF_TURNS` order.  Reads are ``penalty=``,
    ``period:`` and (one op in five) ``geometry=`` back to a known
    geometry.  Every :data:`WHATIF_WRITE_EVERY` ops a write episode runs
    on the next session: a first-time geometry, or an ``array:`` /
    ``data:`` / ``color:`` edit, always followed by the op that returns
    the session to its base placement, so a write never leaves the
    session in a state later reads would have to recompute.

    ``bases`` maps session index -> dict with ``periods`` (base periods),
    ``tasks``, ``arrays`` (per-task array word counts, spec bases only),
    ``data_bases`` (per-task data origin) and ``colors``.
    """

    def __init__(self, seed, bases: list):
        self._rng = rng_for("edits", seed)
        self._bases = bases
        self._fresh = []
        for index in range(len(bases)):
            pool = [g for g in WHATIF_FRESH if g not in WHATIF_KNOWN and g != bases[index]["geometry"]]
            rng_for("fresh", seed, index).shuffle(pool)
            self._fresh.append(pool)
        self._op = 0
        self._turn = 0
        self._pending: list = []
        self._writes = 0
        self._geometry = [base["geometry"] for base in bases]
        self.kinds: Counter = Counter()

    def __iter__(self):
        return self

    def __next__(self) -> tuple:
        """``(session index, kind, edit)``; *edit* is an edit string, or
        ``None`` for kind ``reset`` (jump back to the base placement)."""
        self._op += 1
        if self._pending:
            item = self._pending.pop(0)
        elif self._op % WHATIF_WRITE_EVERY == 0:
            item = self._write()
        else:
            item = self._read()
        self.kinds[item[1]] += 1
        return item

    def _next_session(self) -> int:
        index = WHATIF_TURNS[self._turn % len(WHATIF_TURNS)]
        self._turn += 1
        return index

    def _read(self) -> tuple:
        rng = self._rng
        index = self._next_session()
        base = self._bases[index]
        roll = rng.random()
        if roll < 0.2:
            choices = [base["geometry"], *WHATIF_KNOWN]
            geometry = rng.choice([g for g in choices if g != self._geometry[index]])
            self._geometry[index] = geometry
            return index, "geometry", "geometry={}x{}x{}".format(*geometry)
        if roll < 0.6:
            return index, "penalty", f"penalty={rng.choice((5, 10, 15, 20, 25, 30, 40, 50))}"
        task = rng.choice(base["tasks"])
        factor = rng.choice((1.0, 1.25, 1.5, 2.0, 3.0))
        return index, "period", f"period:{task}={int(base['periods'][task] * factor)}"

    def _write(self) -> tuple:
        # Kind, session and task rotate; only the values are drawn, so
        # every seed pays for the same mix of recomputations.  Array
        # edits need a generated system's program.
        rng = self._rng
        kind = WRITE_KINDS[self._writes % len(WRITE_KINDS)]
        nth = self._writes // len(WRITE_KINDS)
        self._writes += 1
        sessions = [
            i for i, base in enumerate(self._bases) if base["arrays"] or kind != "array"
        ]
        index = sessions[nth % len(sessions)]
        base = self._bases[index]
        task = base["tasks"][nth % len(base["tasks"])]
        if kind == "geometry":
            geometry = self._fresh[index].pop()
            back = self._geometry[index]
            self._pending.append(
                (index, "geometry", "geometry={}x{}x{}".format(*back))
            )
            return index, "geometry-new", "geometry={}x{}x{}".format(*geometry)
        if kind == "array":
            # Shrink, never grow: a grown array can run into the next
            # task's region, which the program rightly rejects.
            arrays = base["arrays"][task]
            which = rng.randrange(len(arrays))
            words = arrays[which] - rng.randint(1, arrays[which] // 2)
            self._pending.append(
                (index, "array", f"array:{task}:{which}={arrays[which]}")
            )
            return index, "array-new", f"array:{task}:{which}={words}"
        if kind == "data":
            # Fresh space far above every region; a new line offset each
            # time makes the moved trace a first-time one.
            address = 0x400000 + 0x10000 * self._writes + 16 * rng.randrange(64)
            self._pending.append((index, "reset", None))
            return index, "data-new", f"data:{task}={address:#x}"
        color = rng.randrange(base["colors"])
        self._pending.append((index, "reset", None))
        return index, "color-new", f"color:{task}:0={color}"


def edit_shares(kinds: Counter) -> dict:
    total = sum(kinds.values())
    return {kind: round(count / total, 4) for kind, count in sorted(kinds.items())} if total else {}


# ----------------------------------------------------------------------
# serve-warm request grid
# ----------------------------------------------------------------------
SERVE_PENALTIES = (10, 20, 40)
SERVE_GEOMETRIES = (None,)
#: Share of requests that are ``spec`` bodies (rebuilt what-if sessions).
SERVE_SPEC_SHARE = 0.2


def serve_grid(seed, specs: int = 4) -> list:
    """Request bodies: every experiment point of the grid plus *specs*
    generated systems.  All are posted once during set-up."""
    bodies = []
    for experiment in ("exp1", "exp2"):
        for penalty in SERVE_PENALTIES:
            for geometry in SERVE_GEOMETRIES:
                body = {"kind": "point", "experiment": experiment, "miss_penalty": penalty}
                if geometry is not None:
                    body["geometry"] = list(geometry)
                bodies.append(body)
    for index in range(specs):
        spec, _ = generate_system(f"serve:{seed}", index)
        bodies.append({"kind": "spec", "spec": spec.to_json()})
    return bodies


def request_stream(seed, client: int, bodies: list):
    """Endless seeded body indices for one client."""
    rng = rng_for("requests", seed, client)
    points = [i for i, body in enumerate(bodies) if body["kind"] == "point"]
    specs = [i for i, body in enumerate(bodies) if body["kind"] == "spec"]
    while True:
        if specs and rng.random() < SERVE_SPEC_SHARE:
            yield rng.choice(specs)
        else:
            yield rng.choice(points)
