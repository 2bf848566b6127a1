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

The parser reads a document in one pass that raises nothing itself. Each
line is cut at `#` once, and a cut line is a prefix of its line, so every
column holds. One character rule then runs over the document's words: no
non-ASCII character, `+`, `-` or `_`. Besides ASCII digits these are the
only characters `int()` reads, so from here on every word that `int()`
reads is ASCII digits. Each directive line is split, its keyword must be
known and not yet seen, and its words are read in one expression: `int()`
of each index word, or of each LINE=BIT word's LINE with its `=0` or `=1`
ending looked up as the bit. The gate block, from the first gate line on,
is read once per distinct line: the line is split, its words unpacked by
their count, its keyword and kind matched exactly, its indices read with
`int()` and checked distinct, and its Gate built through `ir`'s private
trusted constructors with no second check, so equal gate lines share one
Gate. The largest index is checked against `width` once per document. A
document that fails anything is read again from its first cut line by one
walker, which tokenizes each line once, builds nothing and raises the
first error in line order, at the column of its offending word.
"""
from __future__ import annotations

import re
from itertools import chain

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
_BIT = {"=0": 0, "=1": 1}  # a LINE=BIT word's ending -> its bit
_X, _CX, _CCX = GateKind.X, GateKind.CX, GateKind.CCX
_SLICE = 4096  # gate lines `serialize` holds as separate strings at once


class CircuitSyntaxError(InvalidCircuitError):
    """A document failed to parse; carries 1-based line and column."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


def parse_circuit(text: str) -> Machine:
    """Parse a .rvc document into a validated Machine."""
    lines = text.splitlines()
    chars = text  # the document's characters, with its comments cut
    if "#" in text:  # a cut line is a prefix of its line, so every column holds
        lines = [raw.partition("#")[0] if "#" in raw else raw for raw in lines]
        chars = "\n".join(lines)
    if not chars.isascii():  # words may be split at non-ASCII whitespace: check the words alone
        chars = "".join(chars.split())
    # Besides ASCII digits, int() reads only a sign, `_` and non-ASCII digits, so
    # where these are absent, every word that int() reads is ASCII digits.
    plain = chars.isascii() and not ("-" in chars or "+" in chars or "_" in chars)
    del chars  # a cut document's copy is freed before anything is built
    header = _header(lines) if plain else None
    gates = None
    if header is not None:  # the gate block is read once the header's words are freed
        width, regions, start = header
        gates = _gate_block(lines[start:], width)
    if gates is None:
        _raise_first_error(lines)

    try:
        roles = {f"{name}_lines": regions.get(name, ()) for name in _DIRECTIVES[1:]}
        return Machine(_trusted_circuit(width, gates), InterfaceSpec(width, **roles))
    except InvalidCircuitError as exc:
        raise InvalidCircuitError(f"invalid circuit document: {exc}") from exc


def _header(lines: list[str]) -> tuple[int, dict[str, tuple], int] | None:
    """The width, the directives' values and the first gate line's index, or None if a line fails."""
    regions: dict[str, tuple] = {}  # directive -> its values, once seen
    for start, raw in enumerate(lines):
        words = raw.split()
        if not words:
            continue
        keyword = words[0]
        if keyword == "gate":
            break
        if keyword not in _DIRECTIVES or keyword in regions:
            return None
        texts = words[1:]
        try:
            if keyword in _ASSIGNED:
                bits = map(_BIT.__getitem__, [word[-2:] for word in texts])
                regions[keyword] = tuple(zip(map(int, [word[:-2] for word in texts]), bits))
            else:
                regions[keyword] = tuple(map(int, texts))
        except (ValueError, KeyError):  # a word int() does not read, or a BIT other than 0 or 1
            return None
    else:
        start = len(lines)
    widths = regions.get("width", ())  # none if it is missing or follows a gate
    if len(widths) != 1 or widths[0] < 1:
        return None
    return widths[0], regions, start


def _gate_block(block: list[str], width: int) -> tuple[Gate, ...] | None:
    """The gates of the lines from the first gate line on, or None if any line fails.

    Each distinct line is split and built once; the indices' range is checked
    once for the whole block.
    """
    distinct = list(dict.fromkeys(block))
    known: dict[str, Gate | None] = {}  # line -> its Gate, or None for a blank line
    top = 0  # the largest line index
    try:
        for raw, words in zip(distinct, map(str.split, distinct)):
            count = len(words)
            if count == 5:
                keyword, kind, a, b, t = words
                if keyword != "gate" or kind != "ccx":
                    return None
                a, b, t = int(a), int(b), int(t)
                if a == b or a == t or b == t:
                    return None
                known[raw] = _trusted_gate(_CCX, (a, b), t)
                if a > top:
                    top = a
                if b > top:
                    top = b
            elif count == 4:
                keyword, kind, a, t = words
                if keyword != "gate" or kind != "cx":
                    return None
                a, t = int(a), int(t)
                if a == t:
                    return None
                known[raw] = _trusted_gate(_CX, (a,), t)
                if a > top:
                    top = a
            elif count == 3:
                keyword, kind, t = words
                if keyword != "gate" or kind != "x":
                    return None
                t = int(t)
                known[raw] = _trusted_gate(_X, (), t)
            elif count == 0:
                known[raw] = None
                continue
            else:
                return None
            if t > top:
                top = t
    except ValueError:  # a word int() does not read, or too many digits for it
        return None
    if top >= width:
        return None
    return tuple(filter(None, map(known.__getitem__, block)))


def _raise_first_error(lines: list[str]) -> None:
    """Raise the first error in line order of a refused document's cut lines, at its line and column.

    Gates before `width` are not range-checked; a missing `width` is named only if no line fails.
    """
    width: int | None = None
    seen: set[str] = set()  # the keywords read so far: directives, and "gate" from the first gate line on
    for lineno, raw in enumerate(lines, start=1):
        tokens = [(m.group(), m.start() + 1) for m in _TOKEN.finditer(raw)]
        if not tokens:
            continue
        (keyword, column), *args = tokens
        if keyword == "gate":
            _check_gate(tokens, width, lineno)
        elif keyword not in _DIRECTIVES:
            raise CircuitSyntaxError(f"unknown directive {keyword!r}", lineno, column)
        elif "gate" in seen:
            raise CircuitSyntaxError(f"directive {keyword!r} after the first gate statement", lineno, column)
        elif keyword in seen:
            raise CircuitSyntaxError(f"duplicate directive {keyword!r}", lineno, column)
        elif keyword == "width":
            if len(args) != 1:
                raise CircuitSyntaxError("width takes exactly one argument", lineno, column)
            word, column = args[0]
            expected = "width must be a positive integer"
            width = _index(word, lineno, column, expected)
            if width < 1:
                raise CircuitSyntaxError(f"{expected}, got {word!r}", lineno, column)
        else:
            check = _assignment if keyword in _ASSIGNED else _index
            for word, column in args:
                check(word, lineno, column)
        seen.add(keyword)
    if width is None:
        raise CircuitSyntaxError("missing required directive 'width'", 1, 1)
    raise AssertionError("a document was refused, but each of its lines passes")


def _index(word: str, lineno: int, column: int, expected: str = "expected a line index") -> int:
    # ASCII only: str.isdigit also accepts digits such as '²' and '٣'.
    if word.isascii() and word.isdigit():
        try:
            return int(word)
        except ValueError:  # more digits than int() converts
            pass
    raise CircuitSyntaxError(f"{expected}, got {word!r}", lineno, column)


def _assignment(word: str, lineno: int, column: int) -> None:
    expected = "expected LINE=BIT with BIT 0 or 1"
    line = word[:-2]
    if word[-2:] not in _BIT or not (line.isascii() and line.isdigit()):
        raise CircuitSyntaxError(f"{expected}, got {word!r}", lineno, column)
    _index(line, lineno, column, expected)  # a LINE of more digits than int() converts


def _check_gate(tokens: list[tuple[str, int]], width: int | None, lineno: int) -> None:
    """Raise the first error of a gate line, given its words with their columns."""
    if len(tokens) < 2:
        raise CircuitSyntaxError("gate statement needs a kind and line indices", lineno, tokens[0][1])
    word, column = tokens[1]
    try:
        kind, arity = _GATE_WORDS[word]
    except KeyError:
        raise CircuitSyntaxError(f"unknown gate kind {word!r}", lineno, column) from None
    if len(tokens) != arity + 2:
        raise CircuitSyntaxError(
            f"gate {kind.value!r} takes {arity} line indices, got {len(tokens) - 2}", lineno, column
        )
    lines = tuple(_index(word, lineno, at) for word, at in tokens[2:])
    for line, (_, at) in zip(lines, tokens[2:]):
        if width is not None and line >= width:
            raise CircuitSyntaxError(f"line {line} out of range for width {width}", lineno, at)
    if len(set(lines)) != arity:
        raise CircuitSyntaxError(f"duplicate line in gate: {lines}", lineno, column)


def serialize(machine: Machine) -> str:
    """Canonical text form of a machine; stable byte-for-byte across runs."""
    iface = machine.iface
    out = [f"width {iface.width}"]
    for name in _DIRECTIVES[1:]:  # each line by one `%` over its word template, repeated
        values = getattr(iface, f"{name}_lines")
        if values and name in _ASSIGNED:
            out.append(name + " %s=%s" * len(values) % tuple(chain.from_iterable(values)))
        elif values:
            out.append(name + " %s" * len(values) % values)
    gates = machine.circuit.gates
    for i in range(0, len(gates), _SLICE):  # one piece per slice of gate lines
        lines = [_GATE_LINE[len(g.controls)] % (g.controls + (g.target,)) for g in gates[i : i + _SLICE]]
        out.append("\n".join(lines))
    out.append("")  # the trailing newline, without copying the document to add it
    return "\n".join(out)
