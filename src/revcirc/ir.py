"""Core circuit IR: gates, circuits, line-role declarations, structural algebra.

Everything here is immutable after construction and safe to share across
threads. A Circuit is just an ordered gate list over `width` lines; an
InterfaceSpec assigns roles to those lines (input/preset at the start,
output/garbage/restored at the end); a Machine bundles the two.

Large circuits hold tens of thousands of gates, so a Gate is a slotted
dataclass: three fields and no per-instance `__dict__`. It still compares,
hashes, copies and pickles as a value, and assigning a field raises
`FrozenInstanceError`. A GateKind is its mnemonic, and its control count
is the number of leading `c`s in it.

Validation happens once, where a value enters: in the public `Gate`,
`make_gate`, `Circuit` and `InterfaceSpec` constructors, in `remap` and in
the parser. `Gate` refuses a kind that is not a `GateKind`. One integer
rule reads every index the API takes: `_index` reads a line index, width
or constant through `operator.index`, so a bool or an int subclass is kept
as its plain int and anything else, a float or a string, is refused with
`InvalidCircuitError`. `_exact_ints` is the one type scan that lets a
tuple of exact ints through unread: `_indices` reads a tuple of line
indices with it, and `_int_pairs` its pairs. `Gate` reads its lines,
`Circuit` its width, `InterfaceSpec` its width and region lines and
`_int_pairs` each preset and restored pair through them, and `remap` its
new width and its map's image, and `transforms.copy_fanout` its lines and
width. `inverse`, `concat` and `remap` (after
checking its line map) build from gates already valid, and the trusted
builders — the `library` machines, `transforms.bennett`'s widening and
`transforms.copy_fanout` (after its own length, overlap and range
checks) — build gates valid by construction. All of them go through
`_trusted_gate` and `_trusted_circuit`, which skip `__post_init__`. Those
two are private: a caller must have checked what `__post_init__` would. A
`remap` whose map is the identity on the circuit's lines only widens it, so
the result shares the circuit's Gate objects.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import chain
from operator import index
from typing import Iterable, Mapping, Sequence


class InvalidCircuitError(ValueError):
    """A gate, circuit, or interface declaration breaks a structural invariant."""


def _index(value, what: str = "line index") -> int:
    """`value` read by `operator.index`, so a bool or an int subclass becomes a plain int; anything else is refused."""
    try:
        return index(value)
    except TypeError:
        raise InvalidCircuitError(f"{what} must be an integer, got {value!r}") from None


def _exact_ints(values: tuple) -> bool:
    """Whether every value is an exact int, by one type scan in C."""
    return {*map(type, values)} <= {int}


def _indices(values: tuple) -> tuple[int, ...]:
    """`values` with each line index read by `_index`; a tuple of exact ints is kept as it is."""
    return values if _exact_ints(values) else tuple(map(_index, values))


class GateKind(Enum):
    X = "x"
    CX = "cx"
    CCX = "ccx"

    @property
    def n_controls(self) -> int:
        """How many controls the kind takes: one per leading `c` of its mnemonic."""
        return len(self.value) - 1


@dataclass(frozen=True, slots=True)
class Gate:
    """One reversible primitive: the target line flips iff every control is 1.

    With two controls this is the Toffoli gate; with one, controlled-NOT;
    with none, plain NOT. Every kind is its own inverse.
    """

    kind: GateKind
    controls: tuple[int, ...]
    target: int

    def __post_init__(self) -> None:
        kind = self.kind
        if not isinstance(kind, GateKind):
            raise InvalidCircuitError(f"gate kind must be a GateKind, got {kind!r}")
        controls = _indices(tuple(self.controls))
        _set_controls(self, controls)
        _set_target(self, target := _index(self.target))
        if len(controls) != kind.n_controls:
            raise InvalidCircuitError(
                f"gate kind {kind.value!r} takes {kind.n_controls} "
                f"control(s), got {len(controls)}"
            )
        lines = controls + (target,)
        if min(lines) < 0:
            raise InvalidCircuitError(f"negative line index in gate: {lines}")
        if len(set(lines)) != len(lines):
            raise InvalidCircuitError(f"duplicate line in gate: {lines}")

    @property
    def lines(self) -> tuple[int, ...]:
        """All line indices the gate touches, controls first."""
        return self.controls + (self.target,)


# Gate's slot descriptors write a field past the frozen __setattr__, as
# object.__setattr__ would, without looking the name up on every call.
_new_gate = object.__new__
_set_kind = Gate.kind.__set__
_set_controls = Gate.controls.__set__
_set_target = Gate.target.__set__


def _trusted_gate(kind: GateKind, controls: tuple[int, ...], target: int) -> Gate:
    """A Gate whose arity, non-negative and distinct lines the caller has checked."""
    gate = _new_gate(Gate)
    _set_kind(gate, kind)
    _set_controls(gate, controls)
    _set_target(gate, target)
    return gate


def make_gate(kind: GateKind | str, controls: Sequence[int], target: int) -> Gate:
    """Build a validated Gate; `kind` may be given as 'x'/'cx'/'ccx'."""
    if isinstance(kind, str):
        try:
            kind = GateKind(kind.lower())
        except ValueError:
            raise InvalidCircuitError(f"unknown gate kind {kind!r}") from None
    return Gate(kind, tuple(controls), target)


@dataclass(frozen=True)
class Circuit:
    """An ordered gate sequence over `width` lines."""

    width: int
    gates: tuple[Gate, ...] = ()

    def __post_init__(self) -> None:
        width = _index(self.width, "circuit width")
        if width < 1:
            raise InvalidCircuitError("circuit width must be positive")
        gates = tuple(self.gates)
        object.__setattr__(self, "width", width)
        object.__setattr__(self, "gates", gates)
        for gate in gates:
            if max(gate.lines) >= width:
                raise InvalidCircuitError(f"gate on lines {gate.lines} out of range for width {width}")

    def __len__(self) -> int:
        return len(self.gates)


def _trusted_circuit(width: int, gates: tuple[Gate, ...]) -> Circuit:
    """A Circuit whose width is positive and whose gates all lie below it."""
    circuit = object.__new__(Circuit)
    object.__setattr__(circuit, "width", width)
    object.__setattr__(circuit, "gates", gates)
    return circuit


def inverse(circuit: Circuit) -> Circuit:
    """The circuit undoing `circuit`: gates in reverse order.

    Each primitive is self-inverse, so reversing the order is enough.
    """
    return _trusted_circuit(circuit.width, circuit.gates[::-1])


def remap(circuit: Circuit, line_map: Mapping[int, int], new_width: int) -> Circuit:
    """Relabel every line of `circuit` through `line_map` onto `new_width` lines.

    `line_map` must cover [0, circuit.width), be injective, and land inside
    [0, new_width); `new_width` and each image line are read by `_index`.
    Gate order, count, and kinds are preserved.
    """
    new_width = _index(new_width, "circuit width")
    image = tuple(map(line_map.get, range(circuit.width)))  # None where a line is left out, or maps to None
    missing = [line for line in range(circuit.width) if line not in line_map] if None in image else ()
    if missing:
        raise InvalidCircuitError(f"line map is not defined on lines {missing}")
    image = _indices(image)
    if len(set(image)) != len(image):
        raise InvalidCircuitError("non-injective line map")
    bad = [i for i in image if not 0 <= i < new_width]
    if bad:
        raise InvalidCircuitError(f"line map image out of range [0, {new_width}): {bad}")
    if image == tuple(range(circuit.width)):  # only a widening: the gates stay as they are
        return _trusted_circuit(new_width, circuit.gates)
    # An injective map into [0, new_width) keeps every gate's lines distinct and in range.
    # A Gate object at several positions is moved once and shared, found by `id` since
    # hashing a Gate runs the dataclass `__hash__` in Python.
    new_line = image.__getitem__
    moved: dict[int, Gate] = {}
    gates = []
    for g in circuit.gates:
        new = moved.get(id(g))
        if new is None:
            new = moved[id(g)] = _trusted_gate(g.kind, tuple(map(new_line, g.controls)), new_line(g.target))
        gates.append(new)
    return _trusted_circuit(new_width, tuple(gates))


def concat(a: Circuit, b: Circuit) -> Circuit:
    """Sequence two equal-width circuits: run `a`, then `b`."""
    if a.width != b.width:
        raise InvalidCircuitError(f"width mismatch: {a.width} vs {b.width}")
    return _trusted_circuit(a.width, a.gates + b.gates)


_flat = chain.from_iterable


def _int_pairs(pairs: Iterable) -> tuple[tuple[tuple[int, int], ...], tuple[int, ...]]:
    """`pairs` as a tuple of (int, int) tuples, and flattened; exact-int tuple pairs are kept."""
    pairs = tuple(pairs)
    if {*map(type, pairs)} <= {tuple} and {*map(len, pairs)} <= {2}:
        flat = tuple(_flat(pairs))
        if _exact_ints(flat):
            return pairs, flat
    pairs = tuple((_index(l), _index(c, "constant")) for l, c in pairs)
    return pairs, tuple(_flat(pairs))


@dataclass(frozen=True)
class InterfaceSpec:
    """Role declaration for a circuit's lines.

    Initially every line is either an input line or a preset line (held at a
    declared constant). Finally every line is an output line, a garbage line
    (data-dependent leftover), or a restored line (a preset that must return
    to its constant). Line order within input/output/garbage regions fixes
    the numeric encoding: the first listed line is bit 0.
    """

    width: int
    input_lines: tuple[int, ...] = ()
    preset_lines: tuple[tuple[int, int], ...] = ()
    output_lines: tuple[int, ...] = ()
    garbage_lines: tuple[int, ...] = ()
    restored_lines: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        # Each check runs over whole tuples in C; only a failed one walks the
        # items, to name the first bad one.
        object.__setattr__(self, "width", _index(self.width, "interface width"))
        for region in ("input_lines", "output_lines", "garbage_lines"):
            object.__setattr__(self, region, _indices(tuple(getattr(self, region))))
        presets, preset_flat = _int_pairs(self.preset_lines)
        object.__setattr__(self, "preset_lines", presets)
        restored, restored_flat = _int_pairs(self.restored_lines)
        object.__setattr__(self, "restored_lines", restored)

        if not {*preset_flat[1::2], *restored_flat[1::2]} <= {0, 1}:
            for line, const in presets + restored:
                if const not in (0, 1):
                    raise InvalidCircuitError(f"constant for line {line} must be 0 or 1, got {const}")

        self._check_partition("initial", (self.input_lines, preset_flat[::2]), self.width)
        self._check_partition(
            "final", (self.output_lines, self.garbage_lines, restored_flat[::2]), self.width
        )
        # Both partitions hold, so no line is preset or restored twice: each
        # restored pair is a preset pair exactly when its line is preset to its constant.
        if not set(presets).issuperset(restored):
            preset_map = dict(presets)
            for line, const in restored:
                if line not in preset_map:
                    raise InvalidCircuitError(f"restored line {line} is not a preset line")
                if preset_map[line] != const:
                    raise InvalidCircuitError(
                        f"restored line {line} declares constant {const}, preset says {preset_map[line]}"
                    )

    @staticmethod
    def _check_partition(which: str, groups: tuple[tuple[int, ...], ...], width: int) -> None:
        # Only the listed lines are ever collected, so a huge `width` costs nothing.
        seen: list[int] = []
        for group in groups:
            seen.extend(group)
        if len(seen) != len(set(seen)):
            raise InvalidCircuitError(f"{which} role declaration lists a line twice")
        if len(seen) != width or seen and not (min(seen) >= 0 and max(seen) < width):
            raise InvalidCircuitError(
                f"{which} role declaration does not cover every line exactly once"
            )

    @property
    def input_width(self) -> int:
        return len(self.input_lines)

    @property
    def output_width(self) -> int:
        return len(self.output_lines)

    @property
    def garbage_width(self) -> int:
        return len(self.garbage_lines)

    @property
    def preset_constants(self) -> dict[int, int]:
        return dict(self.preset_lines)

    @property
    def restored_constants(self) -> dict[int, int]:
        return dict(self.restored_lines)


@dataclass(frozen=True)
class Machine:
    """A circuit plus the interface declaring what its lines mean."""

    circuit: Circuit
    iface: InterfaceSpec

    def __post_init__(self) -> None:
        if self.circuit.width != self.iface.width:
            raise InvalidCircuitError(
                f"circuit width {self.circuit.width} != interface width {self.iface.width}"
            )

    @property
    def width(self) -> int:
        return self.circuit.width


def inverse_machine(machine: Machine) -> Machine:
    """The machine running `machine` backward, with roles swapped to match.

    The old final partition becomes the new initial one: outputs and garbage
    become inputs (in that order), restored presets stay presets. The old
    initial partition becomes the new final one: inputs become outputs, and
    presets that were not declared restored end at their constants but are
    listed as garbage, since the role vocabulary has no better slot for them.
    """
    iface = machine.iface
    restored = set(iface.restored_constants)
    unrestored_presets = tuple(l for l, _ in iface.preset_lines if l not in restored)
    new_iface = InterfaceSpec(
        width=iface.width,
        input_lines=iface.output_lines + iface.garbage_lines,
        preset_lines=iface.restored_lines,
        output_lines=iface.input_lines,
        garbage_lines=unrestored_presets,
        restored_lines=iface.restored_lines,
    )
    return Machine(inverse(machine.circuit), new_iface)
