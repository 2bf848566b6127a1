"""Bit-exact forward/backward execution and exhaustive truth-table extraction.

Single-state simulation is deliberately literal: a state is a vector of bits,
a gate flips one of them, and a run applies the gate list in order (or
reversed). `run` and `BitState` are the public single-state API and the
oracle for the bit-sliced `_run`, which makes every other pass of every
command, forward or backward, over a chunk or one lane: each line is one
integer holding its value on every lane, so a gate costs one big-integer
operation over all of them, and `_held` masks the lanes that hold constants.

All whole-function claims are checked by enumerating the input space.
`_passes` cuts and runs every chunked pass, of inputs forward here or of
garbage values backward in `invert`: all 2^b values in ascending order, or
given values in their order, in chunks of at most 2^`_CHUNK_BITS`, so its
memory does not grow with b. A one-lane pass is one `_run`. `_final_lines`
is the one place that decides whether the restored lines held, and
`_violation` the one pass run only for that verdict. `_transpose` is the
one bit-matrix transpose, its own inverse: it turns a chunk's region lines
into one integer per input, and given values into the columns a pass starts
from. It writes each column once into a buffer of little-endian bytes per
row, so its cost is linear in the column count, and reads rows of up to 64
bits back as one array of words, so that step is C work per row too.
Enumeration is refused above a configurable bound so exponential work never
happens by accident. `_refuse_beyond` raises every `ExhaustiveBoundError` of
every module, in one message shape: the input rows of
`check_enumeration_bound`, the garbage rows of blind search, and the regions
and configurations too wide to write in decimal. Beside it, `_decimal_bits` gives that decimal
bound, `_DECIMAL_BITS` or fewer under a lower `str()` digit limit, for every
report that writes a value in decimal. `_int_to_bits` is the one writer of a
value's bits, bit 0 first: one lane's start columns in `_lane`, `invert`'s
fit table and every bit string a report prints are read from it.
"""
from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from functools import reduce
from operator import and_, iadd
from typing import Iterable, Iterator, Sequence

from .ir import Circuit, Gate, InvalidCircuitError, Machine

# Largest input region truth_table and friends will enumerate by default.
# 2^20 rows takes about a second; anything wider must be an explicit choice.
EXHAUSTIVE_BOUND = 20

# A bit-sliced pass covers at most 2^14 values, whether inputs forward or
# garbage values and draws backward: a line is then at most 2 KiB, and one
# scan of draws about 0.6 MiB.
_CHUNK_BITS = 14


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
        return BitState(self.width, bits)

    def __str__(self) -> str:
        return "".join(str(b) for b in self.bits)


@dataclass(frozen=True)
class FunctionTable:
    """A machine's whole function as two columns of 2^input_width entries.

    Both are indexed by input value: `outputs[x]` and `garbage[x]` are the
    output-region and garbage-region values the machine leaves for input x.
    """

    input_width: int
    output_width: int
    outputs: tuple[int, ...]
    garbage: tuple[int, ...]

    def __post_init__(self) -> None:
        rows = 1 << self.input_width
        for name in ("outputs", "garbage"):
            column = tuple(getattr(self, name))
            object.__setattr__(self, name, column)
            if len(column) != rows:
                raise ValueError(f"table must have {rows} rows, {name} has {len(column)}")

    def output_of(self, x: int) -> int:
        return self.outputs[x]

    def garbage_of(self, x: int) -> int:
        return self.garbage[x]


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
    return BitState(state.width, bits)


def initial_state(machine: Machine, x: int) -> BitState:
    """Legal starting state: input region encodes `x`, presets at their constants."""
    iface = machine.iface
    bits = [0] * iface.width
    for line, const in iface.preset_lines:
        bits[line] = const
    return BitState(iface.width, bits).with_value(iface.input_lines, x)


def _refuse_beyond(what: str, bits: int, bound: int, doing: str, hint: str = "") -> None:
    """Raise `ExhaustiveBoundError` if `what` has more than `bound` bits: every size refusal of every command."""
    if bits > bound:
        raise ExhaustiveBoundError(f"{what} has {bits} bits; refusing {doing} beyond {bound}{hint}")


# The most bits of a value `str()` writes within Python's default limit of
# 4,300 digits: 2^14284 - 1 has 4,300 digits, 2^14285 - 1 has 4,301.
_DECIMAL_BITS = 14284


def _decimal_bits() -> int:
    """The most bits of a value `str()` writes: `_DECIMAL_BITS`, or fewer under a lower digit limit.

    A limit set by `PYTHONINTMAXSTRDIGITS`, `-X int_max_str_digits` or `sys.set_int_max_str_digits`
    counts; 0 means none, and Python before 3.10.7 has no such limit.
    """
    limit = getattr(sys, "get_int_max_str_digits", int)()
    return (10**limit).bit_length() - 1 if 0 < limit < 4300 else _DECIMAL_BITS


def check_enumeration_bound(input_bits: int, max_input_bits: int) -> None:
    """Refuse to enumerate an input region of more than `max_input_bits` bits."""
    hint = " (pass max_input_bits to override)"
    _refuse_beyond("input region", input_bits, max_input_bits, "exhaustive enumeration", hint)


def _input_column(i: int, rows: int) -> int:
    """Bit-sliced input line i over `rows` inputs: bit x is bit i of x.

    Equal to ``(M // ((1 << (1 << i)) + 1)) << (1 << i)`` with
    ``M = (1 << rows) - 1``, built by doubling a one-period pattern, which
    stays linear in `rows` where the big-int division does not.
    """
    half = 1 << i
    column, span = ((1 << half) - 1) << half, 2 * half
    while span < rows:
        column |= column << span
        span *= 2
    return column


# The array typecode of an unsigned int per item size in bytes, for the words
# `_transpose` reads back. C fixes only minimum sizes, so pick by size.
_WORD_CODE = {array(code).itemsize: code for code in "QLIHB"}
if not {1, 2, 4, 8} <= _WORD_CODE.keys():
    raise ImportError(f"no 1-, 2-, 4- and 8-byte array typecodes here: {_WORD_CODE}")
_BIG_ENDIAN = sys.byteorder == "big"

# _BYTE_OF_BIT[j] maps the ASCII digits "0"/"1" to the bytes 0 and 1 << j.
_BYTE_OF_BIT = [bytes.maketrans(b"01", bytes((0, 1 << j))) for j in range(8)]


def _transpose(columns: Sequence[int], rows: int) -> tuple[int, ...]:
    """Transpose a bit matrix: bit j of row x is bit x of `columns[j]`, so it is its own inverse.

    Bit-sliced region lines become one integer per lane, and `rows`-bit
    values, passed as the columns, become their `rows` bit-sliced columns.
    Each group of eight columns is spread one bit per row into one byte per
    row, and copied with one strided slice into a buffer that holds each
    row's value as little-endian bytes, row after row. So each column is
    written once. A row of at most 8 bytes is padded to a word of 1, 2, 4 or
    8 bytes (2 with no columns), and the buffer is read back as one array of
    words, which is C work per row; a wider row is read with one
    `int.from_bytes`.
    """
    groups = (len(columns) + 7) // 8
    size = 1 << (groups - 1).bit_length() if groups <= 8 else groups  # bytes per row
    spec = f"0{rows}b"  # a column's digits, row rows-1 first
    raw = bytearray(size * rows)  # row x's value at byte size * x, little-endian
    for g in range(groups):
        packed = 0
        for j, column in enumerate(columns[8 * g : 8 * g + 8]):
            packed |= int.from_bytes(format(column, spec).encode().translate(_BYTE_OF_BIT[j]), "big")
        raw[g::size] = packed.to_bytes(rows, "little")  # row x at byte x
    if size > 8:
        return tuple(int.from_bytes(raw[i : i + size], "little") for i in range(0, len(raw), size))
    words = array(_WORD_CODE[size], raw)
    if _BIG_ENDIAN:  # unreachable on the little-endian hosts CI runs on
        words.byteswap()
    return tuple(words)


def _apply_gates(lines: list[int], gates: Iterable[Gate], full: int) -> None:
    """Apply `gates` in order to bit-sliced `lines`, in place.

    Each line is one integer with a bit per evaluated state, and `full` has
    every one of those bits set; a gate is one XOR (and AND) over all of them.
    """
    for gate in gates:
        controls = gate.controls
        if len(controls) == 2:
            lines[gate.target] ^= lines[controls[0]] & lines[controls[1]]
        elif controls:
            lines[gate.target] ^= lines[controls[0]]
        else:
            lines[gate.target] ^= full


def _run(machine: Machine, columns: Sequence[int], full: int, backward: bool = False) -> list[int]:
    """Every line's value after one bit-sliced pass, with a lane per bit of `full`.

    Forward, `columns` start the input lines and each preset line its constant.
    Backward, they start the output and then the garbage lines, each restored
    line its constant, and the gates run in reverse to the start state.
    """
    iface, gates = machine.iface, machine.circuit.gates
    starts, constants = iface.input_lines, iface.preset_lines
    if backward:
        starts, constants, gates = iface.output_lines + iface.garbage_lines, iface.restored_lines, reversed(gates)
    lines = [0] * iface.width
    for line, column in zip(starts, columns):
        lines[line] = column
    for line, const in constants:
        lines[line] = full if const else 0
    _apply_gates(lines, gates, full)
    return lines


def _held(lines: Sequence[int], pairs: Iterable[tuple[int, int]], full: int) -> int:
    """The lanes of `full` on which every (line, constant) pair holds, as a mask."""
    return reduce(and_, (lines[line] if const else ~lines[line] for line, const in pairs), full)


def _int_to_bits(value: int, width: int) -> str:
    """The `width` bits of `value` as a string of 0/1 digits, bit 0 first: the one writer of a value's bits."""
    return format(value, f"0{width}b")[::-1] if width else ""


def _lane(value: int, width: int) -> list[int]:
    """The `width` bits of `value` as one lane's 0/1 columns, bit 0 first."""
    return list(map(int, _int_to_bits(value, width)))


def _lane_value(lines: Sequence[int], region: Sequence[int]) -> int:
    """The `region` lines of one lane of 0/1 `lines`, read as an integer; the first listed line is bit 0."""
    return int("".join([str(lines[line]) for line in reversed(region)]) or "0", 2)


def _passes(
    machine: Machine, values: Sequence[int] | None = None, y: int | None = None
) -> Iterator[tuple[int, list[int]]]:
    """Every line's value after each bit-sliced pass over at most 2^`_CHUNK_BITS` start values.

    With `y` None the values are inputs run forward; otherwise they are garbage
    values run backward from output `y`. With `values` None they are all 2^b
    values of that region in ascending order: the low columns count over the
    chunk, built once, and the chunk's index sets the columns above. Given
    values are cut into chunks in their order and bit-sliced with
    `_transpose`. Yields ``(full, lines)`` per chunk, bit j of each line
    being the chunk's j-th value and `full` having a bit set per value.
    """
    iface = machine.iface
    bits, output = (iface.input_width, []) if y is None else (iface.garbage_width, _lane(y, iface.output_width))
    if values is None:
        low = min(bits, _CHUNK_BITS)
        full = (1 << (1 << low)) - 1
        counting = [_input_column(i, 1 << low) for i in range(low)]
        chunks = ((full, counting + [full * (c >> i & 1) for i in range(bits - low)]) for c in range(1 << bits - low))
    else:
        parts = (values[done : done + (1 << _CHUNK_BITS)] for done in range(0, len(values), 1 << _CHUNK_BITS))
        chunks = (((1 << len(part)) - 1, list(_transpose(part, bits))) for part in parts)
    for full, columns in chunks:
        yield full, _run(machine, [full * bit for bit in output] + columns, full, y is not None)


def _final_lines(machine: Machine, max_input_bits: int) -> Iterator[tuple[int, list[int]]]:
    """Every line's final value, bit-sliced, on each `_passes` chunk of all inputs in turn.

    Yields ``(full, lines)`` per chunk, bit j of each line being the chunk's
    j-th input. Refuses more than `max_input_bits` input bits before the first
    chunk. A restored line that misses its constant raises
    `RestorationViolationError` at the lowest failing input, as a row scan would.
    """
    iface = machine.iface
    check_enumeration_bound(iface.input_width, max_input_bits)
    for chunk, (full, lines) in enumerate(_passes(machine)):
        failed = full & ~_held(lines, iface.restored_lines, full)
        if failed:
            lane = failed & -failed  # the lowest failing input
            line, const = next(pair for pair in iface.restored_lines if not _held(lines, (pair,), lane))
            x = chunk * full.bit_length() + lane.bit_length() - 1
            raise RestorationViolationError(x, line, const, 1 - const)
        yield full, lines


def _violation(machine: Machine, max_input_bits: int) -> RestorationViolationError | None:
    """What `_final_lines` raised for the lowest input on which a restored line missed its constant, or None.

    The one pass that runs only for its verdict; it refuses as `_final_lines` does.
    """
    try:
        for _ in _final_lines(machine, max_input_bits):
            pass
    except RestorationViolationError as violation:
        return violation
    return None


def truth_table(machine: Machine, max_input_bits: int = EXHAUSTIVE_BOUND) -> FunctionTable:
    """Materialize the machine's whole function, evaluating a chunk of inputs at once.

    Each `_final_lines` chunk, checked for the bound and the restored lines, is
    transposed into one output and garbage value per input. A lone chunk's
    tuples pass through whole, as `tuple()` of a tuple is free.
    """
    iface = machine.iface
    outputs: list[tuple[int, ...]] = []
    garbage: list[tuple[int, ...]] = []
    for full, lines in _final_lines(machine, max_input_bits):
        outputs.append(_transpose([lines[line] for line in iface.output_lines], full.bit_length()))
        garbage.append(_transpose([lines[line] for line in iface.garbage_lines], full.bit_length()))
    outputs, garbage = (p[0] if len(p) == 1 else reduce(iadd, p, []) for p in (outputs, garbage))
    return FunctionTable(iface.input_width, iface.output_width, outputs, garbage)


def is_injective(table: FunctionTable) -> bool:
    """True iff no two inputs produce the same output-region value."""
    return len(set(table.outputs)) == len(table.outputs)
