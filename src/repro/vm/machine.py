"""Steppable cycle-level virtual machine.

Executes a laid-out :class:`~repro.program.builder.Program` one instruction
at a time, charging base cycles per instruction plus cache hit/miss cycles
for every code fetch and data access through a shared
:class:`~repro.cache.state.CacheState`.  The machine is resumable — the
preemptive scheduler (:mod:`repro.sched.simulator`) suspends a machine
mid-program and later continues it, exactly like a task's saved context in
the paper's RTOS.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.cache.state import CacheState
from repro.errors import SimulationError
from repro.program.builder import ArrayDecl, Program
from repro.program.cfg import BasicBlock
from repro.program.instructions import (
    BinOp,
    Branch,
    Const,
    Halt,
    Jump,
    Load,
    Mov,
    Operand,
    Store,
    UnOp,
    evaluate_binop,
    evaluate_unop,
)
from repro.program.layout import ProgramLayout
from repro.vm.trace import TraceRecorder


class VMError(SimulationError):
    """Raised on runtime errors: unset registers, bad addresses, etc."""


@dataclass
class StepResult:
    """Outcome of executing one instruction."""

    cycles: int
    halted: bool
    node: str


@dataclass
class Machine:
    """One task's execution context plus the shared memory system.

    Attributes:
        layout: the program and its concrete addresses.
        cache: the (possibly shared) L1 cache all references go through.
        memory: byte-address -> word value store; pass a shared dict to let
            runs of the same task see earlier writes, or a fresh dict for an
            isolated run.
        trace: optional recorder for every memory reference.
    """

    layout: ProgramLayout
    cache: CacheState
    memory: dict[int, int] = field(default_factory=dict)
    trace: TraceRecorder | None = None

    def __post_init__(self) -> None:
        self.registers: dict[str, int] = {}
        self._block: BasicBlock = self.layout.program.cfg.block(
            self.layout.program.cfg.entry
        )
        self._position = 0
        self._halted = False
        self.cycles = 0
        self.steps = 0

    # ------------------------------------------------------------------
    # State inspection
    # ------------------------------------------------------------------
    @property
    def program(self) -> Program:
        return self.layout.program

    @property
    def halted(self) -> bool:
        return self._halted

    @property
    def current_node(self) -> str:
        return self._block.label

    def register(self, name: str) -> int:
        try:
            return self.registers[name]
        except KeyError:
            raise VMError(f"read of unset register {name!r}") from None

    def _resolve(self, operand: Operand) -> int:
        if isinstance(operand, int):
            return operand
        return self.register(operand)

    # ------------------------------------------------------------------
    # Memory helpers
    # ------------------------------------------------------------------
    def write_array(self, array: ArrayDecl | str, values: Iterable[int]) -> None:
        """Initialise a data array with *values* (one per element)."""
        name = array.name if isinstance(array, ArrayDecl) else array
        decl = self.program.array(name)
        values = list(values)
        if len(values) > decl.words:
            raise VMError(
                f"{len(values)} values exceed {name!r} capacity ({decl.words})"
            )
        base = self.layout.symbol_base(name)
        for offset, value in enumerate(values):
            self.memory[base + offset * decl.element_size] = value

    def read_array(self, array: ArrayDecl | str, count: int | None = None) -> list[int]:
        """Read back *count* (default: all) elements of a data array."""
        name = array.name if isinstance(array, ArrayDecl) else array
        decl = self.program.array(name)
        count = decl.words if count is None else count
        if count > decl.words:
            raise VMError(f"cannot read {count} elements from {name!r}")
        base = self.layout.symbol_base(name)
        return [
            self.memory.get(base + offset * decl.element_size, 0)
            for offset in range(count)
        ]

    def _effective_address(self, instr: Load | Store) -> int:
        base = self.layout.symbol_base(instr.symbol)
        index = 0 if instr.index is None else self._resolve(instr.index)
        offset = index * instr.scale + instr.disp
        decl = self.program.array(instr.symbol)
        if not 0 <= offset < decl.size_bytes:
            # Relative to the symbol, like the check itself: a run's
            # outcome never depends on the layout (see RelocatableTrace).
            raise VMError(
                f"offset {offset:#x} out of bounds for {instr.symbol!r} "
                f"({decl.size_bytes:#x} bytes) in node {self._block.label!r}"
            )
        return base + offset

    def _access(self, address: int, kind: str) -> int:
        if self.trace is not None:
            self.trace.record(address, kind, self._block.label)
        return self.cache.access(address, write=(kind == "write")).cycles

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> StepResult:
        """Execute one instruction (or terminator); return cycles consumed."""
        if self._halted:
            raise VMError("machine already halted")
        node = self._block.label
        if self._position < len(self._block.instructions):
            instr = self._block.instructions[self._position]
            cycles = instr.base_cycles
            cycles += self._access(
                self.layout.instruction_address(node, self._position), "code"
            )
            cycles += self._execute(instr)
            self._position += 1
        else:
            terminator = self._block.terminator
            assert terminator is not None  # CFG validated at build time
            cycles = terminator.base_cycles
            cycles += self._access(
                self.layout.instruction_address(node, self._position), "code"
            )
            self._take_terminator(terminator)
        self.cycles += cycles
        self.steps += 1
        return StepResult(cycles=cycles, halted=self._halted, node=node)

    def _execute(self, instr) -> int:
        """Run one straight-line instruction; return extra (memory) cycles."""
        if isinstance(instr, Const):
            self.registers[instr.dst] = instr.value
            return 0
        if isinstance(instr, Mov):
            self.registers[instr.dst] = self._resolve(instr.src)
            return 0
        if isinstance(instr, BinOp):
            lhs = self._resolve(instr.lhs)
            rhs = self._resolve(instr.rhs)
            if instr.op in ("div", "mod") and rhs == 0:
                raise VMError(f"division by zero in node {self._block.label!r}")
            self.registers[instr.dst] = evaluate_binop(instr.op, lhs, rhs)
            return 0
        if isinstance(instr, UnOp):
            self.registers[instr.dst] = evaluate_unop(
                instr.op, self._resolve(instr.src)
            )
            return 0
        if isinstance(instr, Load):
            address = self._effective_address(instr)
            cycles = self._access(address, "read")
            self.registers[instr.dst] = self.memory.get(address, 0)
            return cycles
        if isinstance(instr, Store):
            address = self._effective_address(instr)
            cycles = self._access(address, "write")
            self.memory[address] = self._resolve(instr.src)
            return cycles
        raise VMError(f"unknown instruction {instr!r}")

    def _take_terminator(self, terminator) -> None:
        if isinstance(terminator, Halt):
            self._halted = True
            return
        if isinstance(terminator, Jump):
            target = terminator.target
        elif isinstance(terminator, Branch):
            taken = self._resolve(terminator.cond) != 0
            target = terminator.then_target if taken else terminator.else_target
        else:
            raise VMError(f"unknown terminator {terminator!r}")
        self._block = self.program.cfg.block(target)
        self._position = 0

    def run(self, max_steps: int = 10_000_000) -> int:
        """Run to completion; return total cycles.  Guards against runaway."""
        while not self._halted:
            if self.steps >= max_steps:
                raise VMError(
                    f"exceeded {max_steps} steps without halting "
                    f"(program {self.program.name!r})"
                )
            self.step()
        return self.cycles


def run_isolated(
    layout: ProgramLayout,
    cache: CacheState,
    inputs: dict[str, list[int]] | None = None,
    trace: TraceRecorder | None = None,
    max_steps: int = 10_000_000,
) -> Machine:
    """Run one program start-to-finish on the given cache; return the machine.

    ``inputs`` maps array names to initial contents.  The cache is used as
    passed (invalidate it first for a cold-cache run).
    """
    machine = Machine(layout=layout, cache=cache, trace=trace)
    for name, values in (inputs or {}).items():
        machine.write_array(name, values)
    machine.run(max_steps=max_steps)
    return machine
