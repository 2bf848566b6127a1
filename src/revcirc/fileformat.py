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

The parser reads each directive line once: it cuts the line at `#`, splits
it on whitespace and checks the words (keyword, arity, ASCII digits). Its
indices, or its LINE=BIT words, are checked as one batch, and only a batch
that fails is checked word by word. The gate block, from the first gate
line on, is read once per distinct line: the line is split, its words
unpacked by their count, its keyword and kind matched exactly, its indices
read with `int()` and checked distinct, and its Gate built through `ir`'s
private trusted constructors with no second check, so equal gate lines
share one Gate. Two checks then run once per document: the largest index
against `width`, and one character check over the block's words (ASCII,
and no `+`, `-` or `_`), which with every `int()` succeeding means every
index is ASCII digits. A gate block that fails any of these is read again
line by line, in order, by a checker that builds nothing and only raises
the first error. Every error is placed at the column of its offending word.
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
    width: int | None = None
    regions: dict[str, tuple] = {}  # directive -> its values, once seen
    lines = text.splitlines()
    start = len(lines)  # index of the first gate line, which starts the gate block

    for lineno, raw in enumerate(lines, start=1):
        words = raw.partition("#")[0].split()
        if not words:
            continue
        keyword = words[0]
        if keyword == "gate":
            start = lineno - 1
            break
        elif keyword not in _DIRECTIVES:
            raise _error(f"unknown directive {keyword!r}", raw, lineno, 0)
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

    block = lines[start:]
    # Without `width` the document fails: it is missing, or follows a gate.
    gates = None if width is None else _gate_block(block, width)
    if gates is None:
        _raise_first_error(block, start + 1, width)

    try:
        roles = {f"{name}_lines": regions.get(name, ()) for name in _DIRECTIVES[1:]}
        return Machine(_trusted_circuit(width, gates), InterfaceSpec(width, **roles))
    except InvalidCircuitError as exc:
        raise InvalidCircuitError(f"invalid circuit document: {exc}") from exc


def _gate_block(block: list[str], width: int) -> tuple[Gate, ...] | None:
    """The gates of the lines from the first gate line on, or None if any line fails.

    Each distinct line is split and built once; the index words' characters
    and their range are checked once for the whole block.
    """
    distinct = list(dict.fromkeys(block))
    cut = distinct
    chars = "\n".join(distinct)
    if "#" in chars:
        cut = [raw.partition("#")[0] if "#" in raw else raw for raw in distinct]
        chars = "\n".join(cut)
    if not chars.isascii():  # words may be split at non-ASCII whitespace: check the words alone
        chars = "".join(chars.split())
    # Besides ASCII digits, int() reads only a sign, `_` and non-ASCII digits, so
    # where these pass and every int() succeeds, each index word is ASCII digits.
    if not chars.isascii() or "-" in chars or "+" in chars or "_" in chars:
        return None
    known: dict[str, Gate | None] = {}  # line -> its Gate, or None for a blank line
    top = 0  # the largest line index
    try:
        for raw, words in zip(distinct, map(str.split, cut)):
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


def _raise_first_error(block: list[str], first: int, width: int | None) -> None:
    """Raise the first error in a gate block `_gate_block` refused, with its place.

    `first` is the block's first line number. Lines are checked one at a
    time, in order, and no gate is built. With no `width`, gates are not
    range-checked and the document's error is the missing `width`, unless a
    line of the block fails first.
    """
    for lineno, raw in enumerate(block, start=first):
        words = raw.partition("#")[0].split()
        if not words:
            continue
        keyword = words[0]
        if keyword == "gate":
            _check_gate(words, width, raw, lineno)
        elif keyword not in _DIRECTIVES:
            raise _error(f"unknown directive {keyword!r}", raw, lineno, 0)
        else:
            raise _error(f"directive {keyword!r} after the first gate statement", raw, lineno, 0)
    if width is None:
        raise CircuitSyntaxError("missing required directive 'width'", 1, 1)
    raise AssertionError("a gate block was refused, but each of its lines passes")


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


def _check_gate(words: list[str], width: int | None, raw: str, lineno: int) -> None:
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


def serialize(machine: Machine) -> str:
    """Canonical text form of a machine; stable byte-for-byte across runs."""
    iface = machine.iface
    out = [f"width {iface.width}"]
    for name in _DIRECTIVES[1:]:
        word = " %s=%s" if name in _ASSIGNED else " %s"
        values = getattr(iface, f"{name}_lines")
        if values:
            out.append(name + "".join(word % value for value in values))
    gates = machine.circuit.gates
    for i in range(0, len(gates), _SLICE):  # one piece per slice of gate lines
        lines = [_GATE_LINE[len(g.controls)] % (g.controls + (g.target,)) for g in gates[i : i + _SLICE]]
        out.append("\n".join(lines))
    out.append("")  # the trailing newline, without copying the document to add it
    return "\n".join(out)
