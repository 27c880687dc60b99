"""Memory-reference traces and their per-node aggregation.

The paper derives "the memory trace of each task with the simulation method
as used in SYMTA" (Section III-B).  :class:`TraceRecorder` captures every
code fetch and data access the VM issues; :class:`CompactTrace` holds a
run in columns, and :class:`RelocatableTrace` holds it without its
placement, so one run serves every layout of the program.
:class:`NodeTraceAggregate` condenses traces — possibly from several runs
over different inputs — into the per-CFG-node reference information the
RMB/LMB and CIIP analyses need.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import groupby
from operator import add
from typing import Iterable, Iterator, Mapping

from repro.cache.config import CacheConfig


@dataclass(frozen=True)
class MemRef:
    """One memory reference: byte address, kind and issuing CFG node."""

    address: int
    kind: str  # "code", "read" or "write"
    node: str  # basic-block label

    def __post_init__(self) -> None:
        if self.kind not in ("code", "read", "write"):
            raise ValueError(f"unknown reference kind {self.kind!r}")


@dataclass
class TraceRecorder:
    """Accumulates the memory references of one or more VM runs."""

    events: list[MemRef] = field(default_factory=list)
    record_code: bool = True
    record_data: bool = True

    def record(self, address: int, kind: str, node: str) -> None:
        if kind == "code" and not self.record_code:
            return
        if kind in ("read", "write") and not self.record_data:
            return
        self.events.append(MemRef(address=address, kind=kind, node=node))

    def __len__(self) -> int:
        return len(self.events)

    def addresses(self) -> list[int]:
        return [event.address for event in self.events]

    def block_addresses(self, config: CacheConfig) -> frozenset[int]:
        """All distinct memory blocks referenced (the task's footprint M)."""
        return frozenset(config.block(event.address) for event in self.events)

    def block_sequence(self, config: CacheConfig) -> list[int]:
        """Memory-block address of every reference, in program order."""
        return [config.block(event.address) for event in self.events]

    def node_visit_sequences(self, config: CacheConfig) -> dict[str, list[tuple[int, ...]]]:
        """Per node, the block-reference sequence of each visit (see
        :meth:`CompactTrace.node_visit_sequences`)."""
        return CompactTrace.from_recorder(self).node_visit_sequences(config)


#: CompactTrace kind codes, index-aligned with :class:`MemRef` kinds.
_KIND_CODES = {"code": 0, "read": 1, "write": 2}
_KIND_NAMES = ("code", "read", "write")


@dataclass(frozen=True)
class CompactTrace:
    """A :class:`TraceRecorder`'s event stream in columnar form.

    Three parallel columns (8-byte addresses, 1-byte kinds, 4-byte
    node-table indices) instead of one ``MemRef`` object per reference:
    ~7x smaller to pickle, and the cache replay and the per-node flow
    aggregation both read the columns directly.
    """

    addresses: array  # typecode "Q"
    kinds: bytes  # one _KIND_CODES byte per event
    node_table: tuple[str, ...]
    node_ids: array  # typecode "I", indices into node_table

    @classmethod
    def from_recorder(cls, recorder: "TraceRecorder") -> "CompactTrace":
        events = recorder.events
        table: dict[str, int] = {}
        ids = array("I")
        for event in events:
            node_id = table.get(event.node)
            if node_id is None:
                node_id = len(table)
                table[event.node] = node_id
            ids.append(node_id)
        return cls(
            addresses=array("Q", [event.address for event in events]),
            kinds=bytes([_KIND_CODES[event.kind] for event in events]),
            node_table=tuple(table),
            node_ids=ids,
        )

    def expand(self) -> "TraceRecorder":
        """Rebuild the equivalent :class:`TraceRecorder` (exact round-trip)."""
        table = self.node_table
        events = [
            MemRef(address=address, kind=_KIND_NAMES[code], node=table[node_id])
            for address, code, node_id in zip(
                self.addresses, self.kinds, self.node_ids
            )
        ]
        return TraceRecorder(events=events)

    def replay(self, cache) -> None:
        """Drive every reference through *cache* (a ``CacheState``) in order.

        Re-derives hit/miss/writeback counts for a new geometry or a new
        placement without rebuilding ``MemRef`` objects.
        """
        access = cache.access
        for address, code in zip(self.addresses, self.kinds):
            access(address, write=code == 2)

    def node_visit_sequences(self, config: CacheConfig) -> dict[str, list[tuple[int, ...]]]:
        """Per node, the block-reference sequence of each visit.

        A *visit* is a maximal run of consecutive references issued by the
        same node.  The per-visit sequences feed the RMB/LMB transfer
        functions: identical visits permit strong updates, differing visits
        force conservative ones (see :mod:`repro.analysis.rmb_lmb`).
        Nodes appear in first-visit order.
        """
        mask = ~(config.line_size - 1)
        blocks = [address & mask for address in self.addresses]
        by_id: dict[int, list[tuple[int, ...]]] = {}
        start = 0
        for node_id, run in groupby(self.node_ids):
            end = start + len(list(run))
            visits = by_id.get(node_id)
            if visits is None:
                visits = by_id[node_id] = []
            visits.append(tuple(blocks[start:end]))
            start = end
        table = self.node_table
        return {table[node_id]: visits for node_id, visits in by_id.items()}

    def __len__(self) -> int:
        return len(self.kinds)


@dataclass(frozen=True)
class RelocatableTrace:
    """A reference stream with its placement factored out.

    The VM's control flow and data never depend on where a program sits
    in memory: a load/store address is ``symbol_base + index*scale +
    disp`` with bounds checked relative to the symbol, and a code fetch
    is ``instruction_address(node, pos)``.  So each reference is stored
    as a *region* (0 for code, ``i + 1`` for the ``i``-th array of
    ``program.arrays``) and a byte *offset* into it, and one recorded
    stream serves every layout of the program: :meth:`relocate` adds the
    regions' bases (:meth:`ProgramLayout.region_bases
    <repro.program.layout.ProgramLayout.region_bases>`) back.
    """

    regions: array  # typecode "H"
    offsets: array  # typecode "Q", byte offset within the region
    kinds: bytes
    node_table: tuple[str, ...]
    node_ids: array  # typecode "I"

    @classmethod
    def split(
        cls, recorder: "TraceRecorder", layout
    ) -> "tuple[RelocatableTrace, CompactTrace]":
        """The placement-free stream of *recorder* plus its placed columns.

        One pass over the events builds both: the node and kind columns
        are shared, and each data reference is attributed to the array
        whose span holds it (the VM never issues an out-of-bounds one).
        """
        bases = layout.region_bases()
        code_base = bases[0]
        data = sorted((base, region) for region, base in enumerate(bases) if region)
        starts = [base for base, _ in data]
        owners = [region for _, region in data]
        addresses = array("Q")
        regions = array("H")
        offsets = array("Q")
        kinds = bytearray()
        ids = array("I")
        table: dict[str, int] = {}
        put_address, put_region = addresses.append, regions.append
        put_offset, put_kind, put_id = offsets.append, kinds.append, ids.append
        for event in recorder.events:
            address = event.address
            kind = _KIND_CODES[event.kind]
            if kind:
                slot = bisect_right(starts, address) - 1
                put_region(owners[slot])
                put_offset(address - starts[slot])
            else:
                put_region(0)
                put_offset(address - code_base)
            put_address(address)
            put_kind(kind)
            node_id = table.get(event.node)
            if node_id is None:
                node_id = table[event.node] = len(table)
            put_id(node_id)
        node_table = tuple(table)
        kinds = bytes(kinds)
        return (
            cls(regions, offsets, kinds, node_table, ids),
            CompactTrace(addresses, kinds, node_table, ids),
        )

    def relocate(self, bases) -> CompactTrace:
        """The stream placed at *bases* (code base, then each array's)."""
        return CompactTrace(
            addresses=array(
                "Q", map(add, map(bases.__getitem__, self.regions), self.offsets)
            ),
            kinds=self.kinds,
            node_table=self.node_table,
            node_ids=self.node_ids,
        )

    def __len__(self) -> int:
        return len(self.kinds)


class LazyTraces(Mapping):
    """``scenario name -> TraceRecorder``, relocated and decoded on use.

    Drop-in for the plain dict in :attr:`WCETResult.traces
    <repro.analysis.wcet.WCETResult>`: consumers that never look at raw
    traces (the CRPD/WCRT pipeline) pay nothing, while reports and
    examples that do iterate get full recorders at the layout's *bases*
    transparently.  Pickling ships only the placement-free columns and
    the bases, never expanded recorders.
    """

    def __init__(self, traces: Mapping[str, RelocatableTrace], bases: tuple):
        self._traces = dict(traces)
        self._bases = tuple(bases)
        self._expanded: dict[str, TraceRecorder] = {}

    def __getitem__(self, name: str) -> TraceRecorder:
        recorder = self._expanded.get(name)
        if recorder is None:
            recorder = self._traces[name].relocate(self._bases).expand()
            self._expanded[name] = recorder
        return recorder

    def __iter__(self) -> Iterator[str]:
        return iter(self._traces)

    def __len__(self) -> int:
        return len(self._traces)

    def __getstate__(self):
        return (self._traces, self._bases)  # never pickle expanded recorders

    def __setstate__(self, state):
        self._traces, self._bases = state
        self._expanded = {}

    def __eq__(self, other) -> bool:
        if isinstance(other, LazyTraces):
            return (self._traces, self._bases) == (other._traces, other._bases)
        return NotImplemented


@dataclass(frozen=True)
class NodeRefs:
    """Aggregated memory-block reference information for one CFG node."""

    label: str
    visit_sequences: tuple[tuple[int, ...], ...]

    @property
    def deterministic(self) -> bool:
        """True when every observed visit issued the same block sequence."""
        return len(set(self.visit_sequences)) <= 1

    def blocks(self) -> frozenset[int]:
        """All blocks referenced by any visit of this node."""
        merged: set[int] = set()
        for sequence in self.visit_sequences:
            merged.update(sequence)
        return frozenset(merged)

    def representative_sequence(self) -> tuple[int, ...]:
        """The visit sequence when deterministic; empty otherwise."""
        if self.visit_sequences and self.deterministic:
            return self.visit_sequences[0]
        return ()


@dataclass
class NodeTraceAggregate:
    """Per-node reference data merged across one or more recorded runs."""

    config: CacheConfig
    node_refs: dict[str, NodeRefs] = field(default_factory=dict)

    @classmethod
    def from_recorders(
        cls,
        config: CacheConfig,
        recorders: "Iterable[TraceRecorder | CompactTrace]",
    ) -> "NodeTraceAggregate":
        """Merge the per-node visits of several runs (recorders or their
        columnar :class:`CompactTrace` form)."""
        visits: dict[str, list[tuple[int, ...]]] = {}
        for recorder in recorders:
            for node, sequences in recorder.node_visit_sequences(config).items():
                visits.setdefault(node, []).extend(sequences)
        node_refs = {
            label: NodeRefs(label=label, visit_sequences=tuple(sequences))
            for label, sequences in visits.items()
        }
        return cls(config=config, node_refs=node_refs)

    def refs(self, label: str) -> NodeRefs:
        """Reference info for *label*; empty if the node never executed."""
        return self.node_refs.get(label, NodeRefs(label=label, visit_sequences=()))

    def footprint(self) -> frozenset[int]:
        """Union of all blocks referenced by all nodes (the task's M)."""
        merged: set[int] = set()
        for refs in self.node_refs.values():
            merged.update(refs.blocks())
        return frozenset(merged)

    def per_node_blocks(self) -> dict[str, frozenset[int]]:
        return {label: refs.blocks() for label, refs in self.node_refs.items()}
