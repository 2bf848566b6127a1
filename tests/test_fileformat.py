"""Parsing and canonical serialization of .rvc documents."""
from __future__ import annotations

import re
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from revcirc import (
    Circuit,
    CircuitSyntaxError,
    Gate,
    GateKind,
    InterfaceSpec,
    InvalidCircuitError,
    Machine,
    bennett,
    incrementer,
    inverse_machine,
    make_gate,
    parse_circuit,
    ripple_adder,
    serialize,
    truth_table,
    zero_garbage_compose,
    decrementer,
    fileformat,
)
from revcirc.fileformat import _GATE_WORDS
from conftest import machines, small_machine_roster

GOLDEN = Path(__file__).resolve().parent.parent / "golden"
MINIMAL = "width 1\ninput 0\noutput 0\ngate x 0\n"

_REF_DIRECTIVES = ("width", "input", "preset", "output", "garbage", "restored")
_REF_TOKEN = re.compile(r"\S+")
_REF_ASSIGN = re.compile(r"^([0-9]+)=([01])$")


def reference_parse_circuit(text: str) -> Machine:
    """The regex-tokenized parser that checks every gate again in `Gate` and
    `Circuit`, kept as the oracle for `parse_circuit`'s results and errors."""
    width = None
    regions: dict[str, list] = {name: [] for name in _REF_DIRECTIVES[1:]}
    seen: set[str] = set()
    gates = []
    gates_started = False

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        tokens = [(m.group(), m.start() + 1) for m in _REF_TOKEN.finditer(line)]
        if not tokens:
            continue
        keyword, col = tokens[0]
        args = tokens[1:]

        if keyword == "gate":
            gates_started = True
            gates.append(_ref_parse_gate(args, lineno, col, width))
        elif keyword in _REF_DIRECTIVES:
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
                width = _ref_parse_index(token, lineno, tcol, "width must be a positive integer")
                if width < 1:
                    raise CircuitSyntaxError(
                        f"width must be a positive integer, got {token!r}", lineno, tcol
                    )
            elif keyword in ("preset", "restored"):
                regions[keyword] = [_ref_parse_assignment(t, lineno, c) for t, c in args]
            else:
                regions[keyword] = [_ref_parse_index(t, lineno, c) for t, c in args]
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
        return Machine(Circuit(width, tuple(gates)), iface)
    except CircuitSyntaxError:
        raise
    except InvalidCircuitError as exc:
        raise InvalidCircuitError(f"invalid circuit document: {exc}") from exc


def _ref_parse_index(token, lineno, col, expected="expected a line index"):
    if token.isascii() and token.isdigit():
        try:
            return int(token)
        except ValueError:
            pass
    raise CircuitSyntaxError(f"{expected}, got {token!r}", lineno, col)


def _ref_parse_assignment(token, lineno, col):
    expected = "expected LINE=BIT with BIT 0 or 1"
    m = _REF_ASSIGN.match(token)
    if m is None:
        raise CircuitSyntaxError(f"{expected}, got {token!r}", lineno, col)
    return _ref_parse_index(m.group(1), lineno, col, expected), int(m.group(2))


def _ref_parse_gate(args, lineno, col, width):
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
    lines = [_ref_parse_index(t, lineno, c) for t, c in args[1:]]
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


def parse_outcome(parse, text: str):
    """What `parse` makes of `text`: the machine, or the error's type, message and place."""
    try:
        return parse(text)
    except InvalidCircuitError as exc:
        return type(exc), str(exc), getattr(exc, "line", None), getattr(exc, "column", None)


class TestParse:
    def test_minimal_document(self):
        m = parse_circuit(MINIMAL)
        assert m.width == 1
        assert m.circuit.gates[0].kind is GateKind.X
        t = truth_table(m)
        assert (t.outputs, t.garbage) == ((1, 0), (0, 0))

    def test_comments_and_blank_lines(self):
        text = "# a NOT machine\nwidth 1  # one line\n\ninput 0\noutput 0\n\ngate x 0\n"
        assert parse_circuit(text) == parse_circuit(MINIMAL)

    def test_round_trip_preserves_function(self):
        m = incrementer(3)
        again = parse_circuit(serialize(m))
        t, t_again = truth_table(m), truth_table(again)
        assert (t_again.outputs, t_again.garbage) == (t.outputs, t.garbage)

    @pytest.mark.parametrize("gates", ["", "gate x 0\n", "gate cx 0 1\n" * 1000], ids=["none", "one", "1000"])
    def test_width_zero_is_refused_before_the_gate_block(self, gates):
        # `_header` refuses width 0 itself, so a long width-0 document builds no gate block.
        def no_gate_block(block, width):
            raise AssertionError(f"the gate block was read under width {width}")

        text = "width 0\n" + gates
        with mock.patch.object(fileformat, "_gate_block", no_gate_block):
            assert parse_outcome(parse_circuit, text) == parse_outcome(reference_parse_circuit, text)

    def test_gate_line_out_of_range(self):
        text = "width 4\ninput 0 1 2 3\noutput 0 1 2 3\ngate cx 0 9\n"
        with pytest.raises(CircuitSyntaxError, match="out of range") as exc:
            parse_circuit(text)
        assert exc.value.line == 4

    def test_unknown_directive(self):
        with pytest.raises(CircuitSyntaxError, match="unknown directive"):
            parse_circuit("width 1\nqubits 1\n")

    def test_directive_after_gate(self):
        text = "width 2\ninput 0 1\noutput 0 1\ngate x 0\ngarbage 1\n"
        with pytest.raises(CircuitSyntaxError, match="after the first gate"):
            parse_circuit(text)

    def test_duplicate_directive(self):
        with pytest.raises(CircuitSyntaxError, match="duplicate directive"):
            parse_circuit("width 1\nwidth 2\n")

    def test_missing_width(self):
        with pytest.raises(CircuitSyntaxError, match="missing required"):
            parse_circuit("input 0\noutput 0\n")

    def test_duplicate_line_in_gate(self):
        text = "width 2\ninput 0 1\noutput 0 1\ngate cx 1 1\n"
        with pytest.raises(CircuitSyntaxError, match="duplicate line"):
            parse_circuit(text)

    def test_role_partition_violation(self):
        text = "width 2\ninput 0\noutput 0 1\n"
        with pytest.raises(InvalidCircuitError, match="initial role"):
            parse_circuit(text)

    def test_bad_assignment_token(self):
        with pytest.raises(CircuitSyntaxError, match="LINE=BIT"):
            parse_circuit("width 2\ninput 0\npreset 1=2\noutput 0 1\n")

    def test_error_location_is_reported(self):
        with pytest.raises(CircuitSyntaxError) as exc:
            parse_circuit("width 1\ninput 0\noutput 0\ngate swap 0\n")
        assert exc.value.line == 4
        assert exc.value.column == 6

    @pytest.mark.parametrize(
        "text,line,column",
        [
            ("width \u00b2\n", 1, 7),  # superscript two
            ("width \u0663\ninput 0 1 2\noutput 0 1 2\n", 1, 7),  # Arabic-Indic three
            ("width 2\ninput 0 1\noutput 0 1\ngate cx 0 \u00b2\n", 4, 11),
            ("width 2\ninput 0\npreset 1\u0663=0\noutput 0 1\n", 3, 8),
        ],
    )
    def test_non_ascii_digits_rejected(self, text, line, column):
        with pytest.raises(CircuitSyntaxError) as exc:
            parse_circuit(text)
        assert (exc.value.line, exc.value.column) == (line, column)

    @pytest.mark.parametrize("width", [10**6, 10**18])
    def test_huge_width_refused_without_allocating(self, width):
        tracemalloc.start()
        try:
            with pytest.raises(InvalidCircuitError, match="cover every line"):
                parse_circuit(f"width {width}\n")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_parsed_large_document_is_compact(self):
        # 41,992 gate lines, 20,994 of them distinct: one Gate each, with no
        # per-gate __dict__. This keeps 4.8 MiB on Python 3.10-3.12; a Gate
        # with a __dict__ kept 5.5-6.8 MiB.
        text = serialize(zero_garbage_compose(incrementer(3000), decrementer(3000)))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            machine = parse_circuit(text)
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(machine.circuit) == 41_992
        assert kept < 5 << 20


# str.isdigit() accepts each of these; only ASCII 0-9 may spell a number
_NON_ASCII_DIGITS = st.sampled_from(["\u00b2", "1\u00b2", "\u0663", "\uff11"])
_NUMBERS = st.one_of(st.integers(0, 8).map(str), st.integers(0, 10**18).map(str), _NON_ASCII_DIGITS)
_WORDS = st.one_of(
    _NUMBERS,
    st.sampled_from(["x", "cx", "ccx", "swap", "#", "=", "-1"]),
    st.tuples(_NUMBERS, st.sampled_from(["0", "1", "2", "\u00b2"])).map("=".join),
)
_STATEMENTS = st.tuples(
    st.sampled_from(["width", "input", "preset", "output", "garbage", "restored", "gate", "qubits"]),
    st.lists(_WORDS, max_size=5),
).map(lambda t: " ".join((t[0], *t[1])))


@st.composite
def _mutated_documents(draw):
    """A serialized machine with one operand swapped for a vocabulary word."""
    lines = [line.split() for line in serialize(draw(machines())).splitlines()]
    i = draw(st.integers(0, len(lines) - 1))
    lines[i][draw(st.integers(1, len(lines[i]) - 1))] = draw(st.one_of(_NON_ASCII_DIGITS, _WORDS))
    return "\n".join(" ".join(line) for line in lines)


_VOCABULARY_TEXT = st.one_of(st.lists(_STATEMENTS, max_size=10).map("\n".join), _mutated_documents())


def _parses_or_refuses(text: str) -> None:
    try:
        machine = parse_circuit(text)
    except InvalidCircuitError:
        return
    assert isinstance(machine, Machine)


class TestParseFuzz:
    @given(st.text())
    def test_arbitrary_text(self, text):
        _parses_or_refuses(text)

    @given(_VOCABULARY_TEXT)
    @example("width 1\ninput " + "1" * 5000 + "\noutput 0\n")  # past int()'s digit limit
    @example("width 2\ninput 0\npreset " + "1" * 5000 + "=0\noutput 0 1\n")
    def test_rvc_vocabulary(self, text):
        _parses_or_refuses(text)


_HUGE = "1" * 5000  # past int()'s digit limit
_EDITS = (
    "tabs", "spaces", "comment", "upper", "leading zero", "drop", "extra",
    "out of range", "duplicate", "odd digits", "gate first",
)


@st.composite
def _edited_documents(draw):
    """A serialized machine with a few lines edited the ways hand-written files differ."""
    m = draw(machines())
    lines = serialize(m).splitlines()
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        words = lines[i].split()
        numbers = [j for j, w in enumerate(words) if w.isdigit()]
        j = draw(st.sampled_from(numbers)) if numbers else None
        edit = draw(st.sampled_from(_EDITS))
        if edit == "tabs":
            lines[i] = "\t".join(words)
            continue
        if edit == "spaces":
            lines[i] = " " + "  ".join(words) + " "
            continue
        if edit == "comment":
            lines[i] += draw(st.sampled_from(["# note", " # gate x 0", "#", "\t#", " #1", "#0 1"]))
            continue
        if edit == "gate first":
            gate_lines = [k for k, line in enumerate(lines) if line.startswith("gate")]
            lines.insert(0, lines.pop(gate_lines[0]) if gate_lines else "gate x 0")
            continue
        if edit == "upper":
            k = draw(st.integers(0, min(1, len(words) - 1)))
            words[k] = words[k].upper()
        elif edit == "drop" and len(words) > 1:
            words.pop()
        elif edit == "extra":
            words.append(str(draw(st.integers(0, m.width))))
        elif edit == "duplicate" and len(numbers) >= 2:
            words[numbers[-1]] = words[numbers[0]]
        elif j is not None and edit == "leading zero":
            words[j] = "0" * draw(st.integers(1, 3)) + words[j]
        elif j is not None and edit == "out of range":
            words[j] = str(m.width + draw(st.integers(0, 2)))
        elif j is not None and edit == "odd digits":
            words[j] = draw(st.sampled_from([_HUGE, "\u00b2", "\u0663", "\uff11", "-1", "+1", "1_0"]))
        lines[i] = " ".join(words)
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(lines) + newline


_HEAD = "width 3\ninput 0 1 2\noutput 0 1 2\n"
_DOC = serialize(incrementer(4))  # width 6, ending "gate cx 0 1\ngate x 0\n"
HOSTILE = [
    _HEAD + "gate x " + _HUGE + "\n",
    _HEAD + "gate cx 0 " + "9" * 5000 + "\n",
    _HEAD + "gate cx 0 \u00b2\n",
    _HEAD + "gate cx \u0663 1\n",
    _HEAD + "gate x \uff11\n",
    _HEAD + "gate\n",
    _HEAD + "gate  # nothing to flip\n",
    _HEAD + "gate",
    _HEAD + "gate x 0\ngate",
    _HEAD + "gate x 0 gate\n",
    _HEAD + "gate ccx 0 1",
    _HEAD + "gate cx 0 #1\n",
    _HEAD + "gate x 3\n",
    _HEAD + "gate cx 2 2\n",
    "gate x 0\n" + _HEAD,
    _HEAD + "gate ccx 3 9 0\n",  # the first line out of range is named, not the largest
    # Directive lines.
    "width 3\ninput 0 1\npreset " + _HUGE + "=0\noutput 0 1 2\n",
    "width 3\ninput 0 1\npreset 2=0\noutput 0 1\nrestored " + _HUGE + "=0\n",
    "width 3\ninput 0 1 2\noutput 0 1\ngarbage " + _HUGE + "\n",
    "width 3\ninput 0 1\npreset " + _HUGE + "=0 x\noutput 0 1 2\n",
    "width 3\ninput 0 \u00b2 2\noutput 0 1 2\n",
    "width \u0663\ninput 0 1 2\noutput 0 1 2\n",
    "width 0\n",
    "width\ninput 0\noutput 0\n",
    "width 3 4\ninput 0 1 2\noutput 0 1 2\n",
    "width 3\ninput\t0\t\uff11\t2\noutput 0 1 2\n",
    "width 3\ninput 0 1\npreset 2=2\noutput 0 1 2\n",
    "width 3\ninput 0 1\npreset 2=0\noutput 0 1\nrestored 1=x\n",
    "width 3\ninput 0 -2 2\noutput 0 1 2\n",
    "width 3\ninput 0 +2 2\noutput 0 1 2\n",
    "width 3\ninput 0 1_0 2\noutput 0 1 2\n",
    "width 3\ninput 0 1 2\ngate x 0\noutput 0 1 2\n",
    _HEAD + "   qubits 3\n",
    "width 3\ninput\noutput 0 1 2\n",
    # LINE=BIT words, which are checked as one batch before any is read.
    "width 3\ninput 0 1\npreset =0\noutput 0 1 2\n",
    "width 3\ninput 0 1\npreset 2==0\noutput 0 1 2\n",
    "width 3\ninput 0 1\npreset 2=00\noutput 0 1 2\n",
    "width 3\ninput 0 1\npreset 2=0=1\noutput 0 1 2\n",
    "width 3\ninput 0 1\npreset \u0663=0\noutput 0 1 2\n",
    "width 5\ninput 0 1\npreset 2=0 3=1 4=0\noutput 0 1\nrestored 2=0 3=1 4=2\n",
    "width 5\ninput 0 1\npreset 2=0 3=1 4=0\noutput 0 1\nrestored 2=0 " + _HUGE + "=1 4=0\n",
    # A sign or `_` in a LINE=BIT word or in width, which the document's character rule refuses.
    "width 3\ninput 0 1\npreset +2=0\noutput 0 1 2\n",
    "width 3\ninput 0 1\npreset 2_0=0\noutput 0 1 2\n",
    "width +3\ninput 0 1 2\noutput 0 1 2\n",
    "width 1_0\ninput 0 1 2\noutput 0 1 2\n",
    # A header error named before a later bad gate line, and header errors the batch check refuses.
    "width 3\ninput 0 x\noutput 0 1 2\ngate cx 0 5\n",
    "width 3\nwidth 3\n",
    "qubits 3\nwidth 3\ninput 0 1 2\noutput 0 1 2\n",
    "width 3\ninput\u00a00\u30001 \u00b2\noutput 0 1 2\n",
    "# three lines\n\n   # all of them inputs\n\t\nwidth 3\ninput 0 1 2 # each\noutput 0 1 02x\n",
]
# Good directives, then a gate block whose first error only the per-line checker places.
GATE_BLOCK_HOSTILE = [
    # The only error is in the last gate line.
    _DOC + "gate x 6\n",
    _DOC + "gate ccx 0 1 1",
    _DOC + "gate cx 0 \u00b2\n",
    _DOC + "gate swap 0 1\n",
    _DOC + "gate x " + _HUGE + "\n",
    _DOC + "gate\n",
    _DOC.replace("\n", "\r\n") + "gate x 0 1\r\n",
    _DOC + "gate ccx 6 0 1\n",  # only the first control out of range
    _DOC + "gate cx 6 0\n",
    _DOC + "GATE cx 0 1\n",
    _DOC + "g x 0\n",
    # The first error is a directive after good gates.
    _DOC + "output 0\n",
    _DOC + "width 6\ngate x 9\n",
    _DOC + "qubits 3\n",
    _DOC + "output ccx 0 1 2\n",
    _DOC + "\n# done\n   restored 4=0\n",
    # A bad line repeating an earlier good line's words, with a bad suffix.
    _DOC + "gate cx 0 1 2\n",
    _DOC + "gate x 0 x\n",
    _DOC + "gate cx 5 3\u00b2\n",
    _DOC + "gate x 0\ngate x 0#\ngate x 0 -\n",
    # Comments and non-ASCII text after `#` in the gate block, before the error.
    _DOC + "gate x 0 # caf\u00e9 \u00b2 \u0663\ngate x 0 \u0663 # \u00b2\n",
    _HEAD + "gate cx 0 1 # \u00bd\ngate ccx 0 1 # 2\n",
    # CRLF line endings and blank lines between gates.
    "width 3\r\ninput 0 1 2\r\noutput 0 1 2\r\n\r\ngate x 0\r\n\r\n\r\ngate cx 0 3\r\n",
    "width 3\r\ninput 0 1 2\r\noutput 0 1 2\r\ngate x 0\r\n \r\n\tgate cx 1 1\r\n\r\n",
    # A `-`, `+` or `_` in an index, which int() reads.
    _HEAD + "gate x -0\n",
    _HEAD + "gate cx +1 2\n",
    _HEAD + "gate ccx 0 1 0_2\n",
    _HEAD + "gate x 1\ngate cx 0 1_\n",
    _HEAD + "gate x 2\ngate x -1\n",
    # Non-ASCII whitespace between the words of a bad line.
    _HEAD + "gate\u3000x \u00b2\n",
]
HOSTILE += GATE_BLOCK_HOSTILE
# Well-formed, though not as serialize writes them.
UNUSUAL = [
    _HEAD + "gate cx 0 1 # 2\n",
    _HEAD + "gate\tccx 0\t1  2\r\n",
    _HEAD + "  gate x 002\n",
    _HEAD + "gate x 2#\ngate x 2\n",
    "width 1\ninput\npreset 0=1\noutput 0\ngate x 0\n",
    "\twidth\t3 # lines\ninput 0\t01  2\npreset#\noutput 2 1 0\n",
    "width 3\ninput 0 1\npreset 002=1\noutput 0 1\nrestored 2=1 # kept\n",
    _DOC + "gate x 0 # caf\u00e9 \u00b2 \u0663\ngate cx 0 1#\u00b2\n",
    "width 3\r\ninput 0 1 2\r\noutput 0 1 2\r\n\r\ngate x 0\r\n\r\n\r\ngate cx 0 2\r\n\r\n",
    _HEAD + "gate x 0\n# between\n   \n\t\ngate x 1\n",
    _HEAD + "gate ccx 000 01 2\ngate ccx 0 1 2\ngate x 0002\n",
    _HEAD + "gate\u00a0x\u30002\ngate\u2003cx 0 1\n",  # non-ASCII whitespace
    "width\u00a03\ninput\u00a00\u00a01 2\npreset\u00a0\noutput 0\u00a01\u00a02\ngate x 0\n",
    "input 0 1 2\noutput 0 1 2\nwidth 3\ngate x 0\n",
    "width 3\ninput 0 1 2\noutput 0 1 2\ngarbage\ngate x 0\n",
    # Comments holding what the character rule refuses outside them, and a comment on every line.
    "width 3 # co-author_x +1 caf\u00e9\ninput 0 1 2 # \u00b2 - _\noutput 0 1 2\ngate x 0\n",
    "# +-_\u00e9\nwidth 3 # w\ninput 0 1 #-\npreset 2=1 # _\noutput 0 1 2 # +\ngate cx 0 1 # \u00b2\ngate x 2 #\n",
]


class TestParseMatchesReference:
    """`parse_circuit` against the regex-tokenized `reference_parse_circuit`."""

    @given(_edited_documents())
    def test_edited_documents(self, text):
        assert parse_outcome(parse_circuit, text) == parse_outcome(reference_parse_circuit, text)

    @given(_VOCABULARY_TEXT)
    def test_rvc_vocabulary(self, text):
        assert parse_outcome(parse_circuit, text) == parse_outcome(reference_parse_circuit, text)

    @pytest.mark.parametrize("text", HOSTILE)
    def test_hostile_documents_refused_alike(self, text):
        outcome = parse_outcome(parse_circuit, text)
        assert isinstance(outcome, tuple)
        assert outcome == parse_outcome(reference_parse_circuit, text)

    @pytest.mark.parametrize("text", UNUSUAL)
    def test_unusual_documents_parse_alike(self, text):
        machine = parse_circuit(text)
        assert machine == reference_parse_circuit(text)

    def test_huge_index_names_its_place(self):
        with pytest.raises(CircuitSyntaxError, match="expected a line index") as exc:
            parse_circuit(_HEAD + "gate x " + _HUGE + "\n")
        assert (exc.value.line, exc.value.column) == (4, 8)

    def test_equal_gate_lines_share_a_gate_within_one_parse(self):
        text = MINIMAL + "gate x 0\n"
        first, second = parse_circuit(text), parse_circuit(text)
        assert first.circuit.gates[0] is first.circuit.gates[1]
        assert first.circuit.gates[0] is not second.circuit.gates[0]


def _refuse(*args):
    raise AssertionError("the per-line checker ran on a valid document")


# The hostile documents whose error is a CircuitSyntaxError, not a role error found after parsing.
SYNTAX_HOSTILE = [text for text in HOSTILE if parse_outcome(reference_parse_circuit, text)[0] is CircuitSyntaxError]


class TestValidDocumentsTakeTheFastPath:
    """The per-line checker only raises, and only it: every valid document is built in one fast pass."""

    def test_roster_golden_and_unusual_documents(self):
        # The benchmark's documents, as `gen`, `bennett`, `inverse` and `zg-compose` write them; then one
        # with a comment on every line.
        incr, decr, add = incrementer(3000), decrementer(3000), ripple_adder(2000)
        large = [
            serialize(m)
            for m in (incr, decr, add, bennett(add), inverse_machine(incr), zero_garbage_compose(incr, decr))
        ]
        large.append("".join(line + " # gate-line_\u00e9\n" for line in large[-1].splitlines()))
        texts = [serialize(m) for _, m in small_machine_roster()]
        texts += [path.read_text() for path in sorted(GOLDEN.glob("*.rvc"))]
        texts += UNUSUAL + [serialize(zero_garbage_compose(incrementer(300), decrementer(300)))] + large
        with mock.patch.object(fileformat, "_raise_first_error", _refuse):
            for text in texts:
                assert parse_circuit(text) == reference_parse_circuit(text)
            # Each is written back byte for byte, and the comments change no gate.
            assert [serialize(parse_circuit(text)) for text in large] == large[:-1] + large[-2:-1]

    @given(_edited_documents())
    def test_edited_documents_the_reference_accepts(self, text):
        expected = parse_outcome(reference_parse_circuit, text)
        if isinstance(expected, Machine):
            with mock.patch.object(fileformat, "_raise_first_error", _refuse):
                assert parse_circuit(text) == expected

    @given(_edited_documents())
    def test_edited_documents_the_reference_refuses_reach_the_checker(self, text):
        expected = parse_outcome(reference_parse_circuit, text)
        if isinstance(expected, tuple) and expected[0] is CircuitSyntaxError:
            with mock.patch.object(fileformat, "_raise_first_error", _refuse):
                with pytest.raises(AssertionError, match="per-line checker"):
                    parse_circuit(text)

    @pytest.mark.parametrize("text", SYNTAX_HOSTILE)
    def test_refused_documents_reach_the_checker(self, text):
        with mock.patch.object(fileformat, "_raise_first_error", _refuse):
            with pytest.raises(AssertionError, match="per-line checker"):
                parse_circuit(text)


class TestSerialize:
    def test_every_kind_has_its_arity_and_canonical_line(self):
        for kind in GateKind:
            assert _GATE_WORDS[kind.value] == (kind, kind.n_controls + 1)
            lines = tuple(range(kind.n_controls + 1))
            iface = InterfaceSpec(3, (0, 1, 2), output_lines=(0, 1, 2))
            m = Machine(Circuit(3, (Gate(kind, lines[:-1], lines[-1]),)), iface)
            gate_line = f"gate {kind.value} " + " ".join(map(str, lines))
            assert serialize(m) == f"width 3\ninput 0 1 2\noutput 0 1 2\n{gate_line}\n"

    def test_canonical_gate_lines(self):
        text = serialize(incrementer(3))
        assert "gate ccx 0 1 3\n" in text
        assert text.endswith("\n")

    def test_gate_census_incrementer3(self):
        lines = serialize(incrementer(3)).splitlines()
        gates = [l.split()[1] for l in lines if l.startswith("gate ")]
        assert gates.count("ccx") == 1
        assert gates.count("cx") == 2
        assert gates.count("x") == 1

    def test_directive_order(self):
        zm = zero_garbage_compose(incrementer(3), decrementer(3))
        keywords = [l.split()[0] for l in serialize(zm).splitlines()]
        directives = [k for k in keywords if k != "gate"]
        assert directives == ["width", "input", "preset", "output", "restored"]
        # all gates after all directives
        first_gate = keywords.index("gate")
        assert all(k == "gate" for k in keywords[first_gate:])

    def test_fixpoint(self):
        for m in (incrementer(3), ripple_adder(2), bennett(incrementer(3))):
            text = serialize(m)
            assert serialize(parse_circuit(text)) == text

    def test_large_document_is_written_in_slices(self):
        # One str per gate line, held at once, peaked at 4.71 MiB for these 41,992
        # gates. Slices of lines joined into pieces, then the pieces joined, hold
        # the 0.82 MiB document about twice: about 1.7 MiB.
        m = zero_garbage_compose(incrementer(3000), decrementer(3000))
        tracemalloc.start()
        try:
            text = serialize(m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert text.count("\n") == 41_992 + 5
        assert peak < 5 << 19

    @given(machines())
    def test_round_trip_structural_identity(self, m):
        assert parse_circuit(serialize(m)) == m

    @given(machines())
    def test_serialize_is_canonical_fixpoint(self, m):
        text = serialize(m)
        assert serialize(parse_circuit(text)) == text
