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

The parser reads every line one way: it cuts the line at `#`, splits it on
whitespace and checks the words once (keyword, kind, arity, ASCII digits,
range, distinct lines). A gate that passes is built through `ir`'s private
trusted constructors with no second check, and equal gate lines share one
Gate. A line's indices, and a `preset`/`restored` line's LINE=BIT words,
are checked as one batch; only a batch that fails is checked word by word,
and only a line that fails is tokenized again, to give the error the
column of the offending word.
"""
from __future__ import annotations

import re

from .ir import Gate, GateKind, InterfaceSpec, InvalidCircuitError, Machine
from .ir import _trusted_circuit, _trusted_gate

_DIRECTIVES = ("width", "input", "preset", "output", "garbage", "restored")
_ASSIGNED = ("preset", "restored")  # directives whose words are LINE=BIT
_TOKEN = re.compile(r"\S+")  # the words str.split() finds, with their columns
_GATE_WORDS = {kind.value: (kind, kind.n_controls + 1) for kind in GateKind}  # word -> kind, arity
# A gate's line template, indexed by its control count, which names its kind.
_GATE_LINE = tuple(
    "gate " + kind.value + " %s" * (kind.n_controls + 1)
    for kind in sorted(GateKind, key=lambda kind: kind.n_controls)
)
_BITS = {"=0", "=1"}  # how a LINE=BIT word may end


class CircuitSyntaxError(InvalidCircuitError):
    """A document failed to parse; carries 1-based line and column."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


def parse_circuit(text: str) -> Machine:
    """Parse a .rvc document into a validated Machine."""
    width: int | None = None
    regions: dict[str, tuple] = {}  # directive -> its values, once seen
    gates: list[Gate] = []
    known: dict[str, Gate] = {}  # gate line text -> its Gate, for this document only

    for lineno, raw in enumerate(text.splitlines(), start=1):
        gate = known.get(raw)
        if gate is not None:
            gates.append(gate)
            continue
        words = raw.partition("#")[0].split()
        if not words:
            continue
        keyword = words[0]
        if keyword == "gate":
            gates.append(_parse_gate(words, width, raw, lineno))
            known[raw] = gates[-1]
        elif keyword not in _DIRECTIVES:
            raise _error(f"unknown directive {keyword!r}", raw, lineno, 0)
        elif gates:
            raise _error(f"directive {keyword!r} after the first gate statement", raw, lineno, 0)
        elif keyword in regions:
            raise _error(f"duplicate directive {keyword!r}", raw, lineno, 0)
        elif keyword == "width":
            if len(words) != 2:
                raise _error("width takes exactly one argument", raw, lineno, 0)
            expected = "width must be a positive integer"
            width = _index(words[1], raw, lineno, 1, expected)
            if width < 1:
                raise _error(f"{expected}, got {words[1]!r}", raw, lineno, 1)
            regions[keyword] = (width,)
        elif keyword in _ASSIGNED:
            regions[keyword] = _assignments(words, raw, lineno)
        else:
            regions[keyword] = _indices(words, 1, raw, lineno)

    if width is None:
        raise CircuitSyntaxError("missing required directive 'width'", 1, 1)

    try:
        lines = {f"{name}_lines": regions.get(name, ()) for name in _DIRECTIVES[1:]}
        # A gate before `width` fails the document (`width` may not follow a
        # gate), so every gate here was checked against `width`.
        return Machine(_trusted_circuit(width, tuple(gates)), InterfaceSpec(width, **lines))
    except InvalidCircuitError as exc:
        raise InvalidCircuitError(f"invalid circuit document: {exc}") from exc


def _error(message: str, raw: str, lineno: int, word: int) -> CircuitSyntaxError:
    """The error placed at the column of word number `word` (from 0) of line `raw`."""
    # A word before a `#` starts where it does in the cut line.
    starts = [m.start() for m in _TOKEN.finditer(raw)]
    return CircuitSyntaxError(message, lineno, starts[word] + 1)


def _index(word: str, raw: str, lineno: int, i: int, expected: str = "expected a line index") -> int:
    # ASCII only: str.isdigit also accepts digits such as '²' and '٣'.
    if word.isascii() and word.isdigit():
        try:
            return int(word)
        except ValueError:  # more digits than int() converts
            pass
    raise _error(f"{expected}, got {word!r}", raw, lineno, i)


def _indices(words: list[str], first: int, raw: str, lineno: int) -> tuple[int, ...]:
    """The line indices spelled by words[first:]; the first bad word is refused."""
    texts = words[first:]
    digits = "".join(texts)
    if digits.isascii() and digits.isdigit():
        try:
            return tuple(map(int, texts))
        except ValueError:  # more digits than int() converts
            pass
    return tuple(_index(word, raw, lineno, i) for i, word in enumerate(texts, first))


def _assignments(words: list[str], raw: str, lineno: int) -> tuple[tuple[int, int], ...]:
    """The LINE=BIT pairs spelled by words[1:]; the first bad word is refused."""
    texts = words[1:]
    lines = [word[:-2] for word in texts]
    digits = "".join(lines)
    if digits.isascii() and digits.isdigit() and {word[-2:] for word in texts} <= _BITS:
        try:
            return tuple(zip(map(int, lines), [int(word[-1]) for word in texts]))
        except ValueError:  # an empty LINE, or more digits than int() converts
            pass
    return tuple(_assignment(word, raw, lineno, i) for i, word in enumerate(texts, 1))


def _assignment(word: str, raw: str, lineno: int, i: int) -> tuple[int, int]:
    expected = "expected LINE=BIT with BIT 0 or 1"
    line = word[:-2]
    if word[-2:] not in ("=0", "=1") or not (line.isascii() and line.isdigit()):
        raise _error(f"{expected}, got {word!r}", raw, lineno, i)
    return _index(line, raw, lineno, i, expected), int(word[-1])


def _parse_gate(words: list[str], width: int | None, raw: str, lineno: int) -> Gate:
    if len(words) < 2:
        raise _error("gate statement needs a kind and line indices", raw, lineno, 0)
    try:
        kind, arity = _GATE_WORDS[words[1]]
    except KeyError:
        raise _error(f"unknown gate kind {words[1]!r}", raw, lineno, 1) from None
    if len(words) != arity + 2:
        raise _error(
            f"gate {kind.value!r} takes {arity} line indices, got {len(words) - 2}", raw, lineno, 1
        )
    lines = _indices(words, 2, raw, lineno)
    if width is not None and max(lines) >= width:
        i = next(i for i, line in enumerate(lines) if line >= width)
        raise _error(f"line {lines[i]} out of range for width {width}", raw, lineno, i + 2)
    if len(set(lines)) != arity:
        raise _error(f"duplicate line in gate: {lines}", raw, lineno, 1)
    return _trusted_gate(kind, lines[:-1], lines[-1])


def serialize(machine: Machine) -> str:
    """Canonical text form of a machine; stable byte-for-byte across runs."""
    iface = machine.iface
    out = [f"width {iface.width}"]
    for name in _DIRECTIVES[1:]:
        word = " %s=%s" if name in _ASSIGNED else " %s"
        values = getattr(iface, f"{name}_lines")
        if values:
            out.append(name + "".join(word % value for value in values))
    out.extend(
        _GATE_LINE[len(g.controls)] % (g.controls + (g.target,)) for g in machine.circuit.gates
    )
    return "\n".join(out) + "\n"
