"""Parsing and canonical serialization of .rvc documents."""
from __future__ import annotations

import tracemalloc

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from revcirc import (
    CircuitSyntaxError,
    GateKind,
    InvalidCircuitError,
    Machine,
    bennett,
    incrementer,
    parse_circuit,
    ripple_adder,
    serialize,
    truth_table,
    zero_garbage_compose,
    decrementer,
)
from conftest import machines

MINIMAL = "width 1\ninput 0\noutput 0\ngate x 0\n"


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


class TestSerialize:
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

    @given(machines())
    def test_round_trip_structural_identity(self, m):
        assert parse_circuit(serialize(m)) == m

    @given(machines())
    def test_serialize_is_canonical_fixpoint(self, m):
        text = serialize(m)
        assert serialize(parse_circuit(text)) == text
