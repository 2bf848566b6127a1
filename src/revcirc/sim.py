"""Bit-exact forward/backward execution and exhaustive truth-table extraction.

Simulation is deliberately literal: a state is a vector of bits, a gate flips
one of them, and a run applies the gate list in order (or reversed). All
whole-function claims are checked by enumerating the input space, which is
refused above a configurable bound so exponential work never happens by
accident.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .ir import Circuit, Gate, InvalidCircuitError, Machine

# Largest input region truth_table and friends will enumerate by default.
# 2^20 rows is already slow; anything wider must be an explicit choice.
EXHAUSTIVE_BOUND = 20


class ExhaustiveBoundError(ValueError):
    """An enumeration was requested over more input bits than the bound allows."""


class RestorationViolationError(InvalidCircuitError):
    """A line declared restored did not return to its constant: the declaration is false.

    Carries the first failing input, the line, its declared constant and the
    value the line actually held.
    """

    def __init__(self, input_value: int, line: int, const: int, held: int):
        super().__init__(
            f"line {line} declared restored to {const} but holds {held} for input {input_value}"
        )
        self.input_value = input_value
        self.line = line
        self.const = const
        self.held = held


@dataclass(frozen=True)
class BitState:
    """Fixed-width vector of bits, one per circuit line."""

    width: int
    bits: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "bits", tuple(self.bits))
        if len(self.bits) != self.width:
            raise ValueError(f"expected {self.width} bits, got {len(self.bits)}")
        if any(b not in (0, 1) for b in self.bits):
            raise ValueError("bits must be 0 or 1")

    @classmethod
    def zeros(cls, width: int) -> BitState:
        return cls(width, (0,) * width)

    def value_of(self, lines: Sequence[int]) -> int:
        """Read the listed lines as an integer; the first listed line is bit 0."""
        return sum(self.bits[line] << i for i, line in enumerate(lines))

    def with_value(self, lines: Sequence[int], value: int) -> BitState:
        """Copy of this state with the listed lines set to encode `value`."""
        if not 0 <= value < (1 << len(lines)):
            raise ValueError(f"value {value} does not fit in {len(lines)} line(s)")
        bits = list(self.bits)
        for i, line in enumerate(lines):
            bits[line] = (value >> i) & 1
        return BitState(self.width, tuple(bits))

    def __str__(self) -> str:
        return "".join(str(b) for b in self.bits)


@dataclass(frozen=True)
class FunctionTable:
    """Exhaustive map of a machine's input value to (output value, garbage value)."""

    input_width: int
    output_width: int
    rows: dict[int, tuple[int, int]]

    def __post_init__(self) -> None:
        if len(self.rows) != 1 << self.input_width:
            raise ValueError(
                f"table must have {1 << self.input_width} rows, got {len(self.rows)}"
            )

    def output_of(self, x: int) -> int:
        return self.rows[x][0]

    def garbage_of(self, x: int) -> int:
        return self.rows[x][1]


def step(state: BitState, gate: Gate) -> BitState:
    """Apply one gate: flip the target iff every control bit is 1."""
    return run(Circuit(state.width, (gate,)), state)


def run(circuit: Circuit, state: BitState, direction: str = "forward") -> BitState:
    """Run the whole circuit on `state`, forward or backward.

    Backward is the forward run of the reversed gate list, which undoes the
    forward run exactly since every gate is self-inverse.
    """
    if direction not in ("forward", "backward"):
        raise ValueError(f"direction must be 'forward' or 'backward', got {direction!r}")
    if state.width != circuit.width:
        raise InvalidCircuitError(
            f"state width {state.width} != circuit width {circuit.width}"
        )
    gates = circuit.gates if direction == "forward" else tuple(reversed(circuit.gates))
    bits = list(state.bits)
    for gate in gates:
        if all(bits[c] for c in gate.controls):
            bits[gate.target] ^= 1
    return BitState(state.width, tuple(bits))


def initial_state(machine: Machine, x: int) -> BitState:
    """Legal starting state: input region encodes `x`, presets at their constants."""
    iface = machine.iface
    state = BitState.zeros(iface.width)
    for line, const in iface.preset_lines:
        if const:
            state = state.with_value([line], 1)
    return state.with_value(iface.input_lines, x)


def truth_table(machine: Machine, max_input_bits: int = EXHAUSTIVE_BOUND) -> FunctionTable:
    """Materialize the machine's whole function by enumerating every input.

    Also verifies, row by row, that every line declared restored actually
    holds its constant at the end; a violation means the interface lies.
    """
    iface = machine.iface
    n = iface.input_width
    if n > max_input_bits:
        raise ExhaustiveBoundError(
            f"input region has {n} bits; refusing exhaustive enumeration beyond "
            f"{max_input_bits} (pass max_input_bits to override)"
        )
    restored = iface.restored_lines
    rows: dict[int, tuple[int, int]] = {}
    for x in range(1 << n):
        final = run(machine.circuit, initial_state(machine, x))
        for line, const in restored:
            if final.bits[line] != const:
                raise RestorationViolationError(x, line, const, final.bits[line])
        rows[x] = (final.value_of(iface.output_lines), final.value_of(iface.garbage_lines))
    return FunctionTable(n, iface.output_width, rows)


def is_injective(table: FunctionTable) -> bool:
    """True iff no two inputs produce the same output-region value."""
    outputs = [out for out, _ in table.rows.values()]
    return len(set(outputs)) == len(outputs)
