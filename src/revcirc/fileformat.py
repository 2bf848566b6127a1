"""The .rvc circuit file format: a line-oriented text serialization of machines.

Grammar (tokens are whitespace-separated; `#` starts a comment anywhere):

    width N
    input I J K ...          # line order is significance order: first = bit 0
    preset I=B J=B ...       # B is 0 or 1
    output I J ...
    garbage I J ...
    restored I=B ...
    gate x T
    gate cx C T
    gate ccx C1 C2 T

All directives come before the first gate statement; empty directives are
omitted. Serialization is canonical: fixed directive order, single spaces,
lowercase mnemonics, one gate per line, trailing newline. Parsing a
serialized machine reproduces it structurally, and serialize-parse-serialize
is byte-identical.

The parser validates a document's gates, once. A gate line is split on
whitespace and checked for kind, arity, ASCII-digit indices below `width`
and distinct lines, then built through `ir`'s private trusted constructors
with no second check; equal gate lines share one Gate. Every other line,
including a gate line that fails the check, goes through the regex
tokenizer, whose errors carry the line and column of the offending token.
"""
from __future__ import annotations

import re

from .ir import Gate, GateKind, InterfaceSpec, InvalidCircuitError, Machine, make_gate
from .ir import _trusted_circuit, _trusted_gate

_DIRECTIVES = ("width", "input", "preset", "output", "garbage", "restored")
_TOKEN = re.compile(r"\S+")
_ASSIGN = re.compile(r"^([0-9]+)=([01])$")
# Gate kind by mnemonic, with the token count of a well-formed gate line.
_GATE_WORDS = {"x": (GateKind.X, 3), "cx": (GateKind.CX, 4), "ccx": (GateKind.CCX, 5)}
_GATE_LINE = {GateKind.X: "gate x %s", GateKind.CX: "gate cx %s %s", GateKind.CCX: "gate ccx %s %s %s"}


class CircuitSyntaxError(InvalidCircuitError):
    """A document failed to parse; carries 1-based line and column."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


def parse_circuit(text: str) -> Machine:
    """Parse a .rvc document into a validated Machine."""
    width: int | None = None
    regions: dict[str, list] = {name: [] for name in _DIRECTIVES[1:]}
    seen: set[str] = set()
    gates: list[Gate] = []
    gates_started = False
    known: dict[str, Gate] = {}  # gate line text -> its Gate, for this document only

    for lineno, raw in enumerate(text.splitlines(), start=1):
        gate = known.get(raw)
        if gate is None and width is not None:
            gate = _checked_gate(raw, width)
            if gate is not None:
                known[raw] = gate
        if gate is not None:
            gates_started = True
            gates.append(gate)
            continue
        line = raw.split("#", 1)[0]
        tokens = [(m.group(), m.start() + 1) for m in _TOKEN.finditer(line)]
        if not tokens:
            continue
        keyword, col = tokens[0]
        args = tokens[1:]

        if keyword == "gate":
            gates_started = True
            gates.append(_parse_gate(args, lineno, col, width))
        elif keyword in _DIRECTIVES:
            if gates_started:
                raise CircuitSyntaxError(
                    f"directive {keyword!r} after the first gate statement", lineno, col
                )
            if keyword in seen:
                raise CircuitSyntaxError(f"duplicate directive {keyword!r}", lineno, col)
            seen.add(keyword)
            if keyword == "width":
                if len(args) != 1:
                    raise CircuitSyntaxError("width takes exactly one argument", lineno, col)
                token, tcol = args[0]
                width = _parse_index(token, lineno, tcol, "width must be a positive integer")
                if width < 1:
                    raise CircuitSyntaxError(
                        f"width must be a positive integer, got {token!r}", lineno, tcol
                    )
            elif keyword in ("preset", "restored"):
                regions[keyword] = [_parse_assignment(t, lineno, c) for t, c in args]
            else:
                regions[keyword] = [_parse_index(t, lineno, c) for t, c in args]
        else:
            raise CircuitSyntaxError(f"unknown directive {keyword!r}", lineno, col)

    if width is None:
        raise CircuitSyntaxError("missing required directive 'width'", 1, 1)

    try:
        iface = InterfaceSpec(
            width=width,
            input_lines=tuple(regions["input"]),
            preset_lines=tuple(regions["preset"]),
            output_lines=tuple(regions["output"]),
            garbage_lines=tuple(regions["garbage"]),
            restored_lines=tuple(regions["restored"]),
        )
        # A gate before `width` fails the document (`width` may not follow a
        # gate), so every gate here was checked against `width`.
        return Machine(_trusted_circuit(width, tuple(gates)), iface)
    except InvalidCircuitError as exc:
        raise InvalidCircuitError(f"invalid circuit document: {exc}") from exc


def _checked_gate(raw: str, width: int) -> Gate | None:
    """The Gate a well-formed gate line spells, or None if the line needs the full parse."""
    words = raw.split("#", 1)[0].split() if "#" in raw else raw.split()
    if len(words) < 3 or words[0] != "gate":
        return None
    kind, count = _GATE_WORDS.get(words[1], (None, 0))
    if len(words) != count:
        return None
    del words[:2]
    digits = "".join(words)
    if not (digits.isascii() and digits.isdigit()):
        return None
    try:
        lines = tuple(map(int, words))
    except ValueError:  # more digits than int() converts
        return None
    if max(lines) >= width or len(set(lines)) != len(lines):
        return None
    return _trusted_gate(kind, lines[:-1], lines[-1])


def _parse_index(token: str, lineno: int, col: int, expected: str = "expected a line index") -> int:
    # ASCII only: str.isdigit also accepts digits such as '²' and '٣'.
    if token.isascii() and token.isdigit():
        try:
            return int(token)
        except ValueError:  # more digits than int() converts
            pass
    raise CircuitSyntaxError(f"{expected}, got {token!r}", lineno, col)


def _parse_assignment(token: str, lineno: int, col: int) -> tuple[int, int]:
    expected = "expected LINE=BIT with BIT 0 or 1"
    m = _ASSIGN.match(token)
    if m is None:
        raise CircuitSyntaxError(f"{expected}, got {token!r}", lineno, col)
    return _parse_index(m.group(1), lineno, col, expected), int(m.group(2))


def _parse_gate(
    args: list[tuple[str, int]], lineno: int, col: int, width: int | None
):
    if not args:
        raise CircuitSyntaxError("gate statement needs a kind and line indices", lineno, col)
    kind, kcol = args[0]
    if kind not in ("x", "cx", "ccx"):
        raise CircuitSyntaxError(f"unknown gate kind {kind!r}", lineno, kcol)
    arity = {"x": 1, "cx": 2, "ccx": 3}[kind]
    if len(args) - 1 != arity:
        raise CircuitSyntaxError(
            f"gate {kind!r} takes {arity} line indices, got {len(args) - 1}", lineno, kcol
        )
    lines = [_parse_index(t, lineno, c) for t, c in args[1:]]
    if width is not None:
        for (token, tcol), line in zip(args[1:], lines):
            if line >= width:
                raise CircuitSyntaxError(
                    f"line {line} out of range for width {width}", lineno, tcol
                )
    try:
        return make_gate(kind, lines[:-1], lines[-1])
    except InvalidCircuitError as exc:
        raise CircuitSyntaxError(str(exc), lineno, kcol) from exc


def serialize(machine: Machine) -> str:
    """Canonical text form of a machine; stable byte-for-byte across runs."""
    iface = machine.iface
    out = [f"width {iface.width}"]
    if iface.input_lines:
        out.append("input " + " ".join(str(l) for l in iface.input_lines))
    if iface.preset_lines:
        out.append("preset " + " ".join(f"{l}={c}" for l, c in iface.preset_lines))
    if iface.output_lines:
        out.append("output " + " ".join(str(l) for l in iface.output_lines))
    if iface.garbage_lines:
        out.append("garbage " + " ".join(str(l) for l in iface.garbage_lines))
    if iface.restored_lines:
        out.append("restored " + " ".join(f"{l}={c}" for l, c in iface.restored_lines))
    out.extend(_GATE_LINE[g.kind] % (*g.controls, g.target) for g in machine.circuit.gates)
    return "\n".join(out) + "\n"
