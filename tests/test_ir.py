"""Gate/circuit construction and the structural circuit algebra."""
from __future__ import annotations

import copy
import dataclasses
import operator
import pickle
import re
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from revcirc import (
    BitState,
    Circuit,
    Gate,
    GateKind,
    InterfaceSpec,
    InvalidCircuitError,
    Machine,
    bennett,
    concat,
    decrementer,
    incrementer,
    inverse,
    inverse_machine,
    make_gate,
    parse_circuit,
    remap,
    run,
    serialize,
    step,
    zero_garbage_compose,
)
from revcirc.ir import _trusted_circuit, _trusted_gate
from conftest import circuits, machines, read_index

GOLDEN = Path(__file__).resolve().parent.parent / "golden"


class TestMakeGate:
    def test_toffoli(self):
        g = make_gate("ccx", [0, 1], 5)
        assert g.kind is GateKind.CCX
        assert g.controls == (0, 1)
        assert g.target == 5

    def test_plain_not(self):
        g = make_gate(GateKind.X, [], 3)
        assert g.controls == ()
        assert g.target == 3

    def test_duplicate_line_rejected(self):
        with pytest.raises(InvalidCircuitError, match="duplicate line"):
            make_gate("cx", [0], 0)
        with pytest.raises(InvalidCircuitError, match="duplicate line"):
            make_gate("ccx", [0, 0], 1)

    def test_arity_mismatch_rejected(self):
        with pytest.raises(InvalidCircuitError, match="control"):
            make_gate("x", [0], 1)
        with pytest.raises(InvalidCircuitError, match="control"):
            make_gate("ccx", [0], 1)

    def test_unknown_kind_rejected(self):
        with pytest.raises(InvalidCircuitError, match="unknown gate kind"):
            make_gate("swap", [0], 1)

    def test_negative_line_rejected(self):
        with pytest.raises(InvalidCircuitError, match="negative"):
            make_gate("cx", [-1], 0)


class TestCircuit:
    def test_line_out_of_width_rejected(self):
        with pytest.raises(InvalidCircuitError, match="width"):
            Circuit(2, (make_gate("cx", [0], 2),))

    def test_zero_width_rejected(self):
        with pytest.raises(InvalidCircuitError, match="positive"):
            Circuit(0)

    def test_immutable(self):
        c = Circuit(2, (make_gate("x", [], 0),))
        with pytest.raises(dataclasses.FrozenInstanceError):
            c.width = 3


class TestInverse:
    def test_reverses_gate_order(self):
        a = make_gate("ccx", [0, 1], 2)
        b = make_gate("cx", [0], 1)
        assert inverse(Circuit(3, (a, b))).gates == (b, a)

    def test_empty(self):
        assert inverse(Circuit(3)).gates == ()

    def test_undoes_incrementer_on_every_state(self):
        m = incrementer(3)
        inv = inverse(m.circuit)
        for v in range(1 << m.width):
            s = BitState.zeros(m.width).with_value(range(m.width), v)
            assert run(inv, run(m.circuit, s)) == s

    @given(circuits())
    def test_double_inverse_is_identity(self, c):
        assert inverse(inverse(c)) == c


class TestRemap:
    def test_relabels(self):
        c = Circuit(2, (make_gate("cx", [0], 1),))
        r = remap(c, {0: 4, 1: 5}, 6)
        assert r.width == 6
        assert r.gates == (make_gate("cx", [4], 5),)

    def test_identity_map(self):
        c = Circuit(3, (make_gate("ccx", [0, 1], 2),))
        assert remap(c, {0: 0, 1: 1, 2: 2}, 3) == c

    def test_non_injective_rejected(self):
        c = Circuit(2, (make_gate("cx", [0], 1),))
        with pytest.raises(InvalidCircuitError, match="non-injective"):
            remap(c, {0: 1, 1: 1}, 2)

    def test_image_out_of_range_rejected(self):
        c = Circuit(2, (make_gate("cx", [0], 1),))
        with pytest.raises(InvalidCircuitError, match="out of range"):
            remap(c, {0: 0, 1: 5}, 2)

    def test_partial_map_rejected(self):
        c = Circuit(3)
        with pytest.raises(InvalidCircuitError, match="not defined"):
            remap(c, {0: 0, 1: 1}, 3)

    @given(circuits())
    def test_preserves_count_and_kinds(self, c):
        shifted = remap(c, {i: i + 1 for i in range(c.width)}, c.width + 1)
        assert len(shifted.gates) == len(c.gates)
        assert [g.kind for g in shifted.gates] == [g.kind for g in c.gates]

    @pytest.mark.parametrize("extra", [0, 1, 7])
    def test_identity_map_shares_the_gates(self, extra):
        for m in (incrementer(5), decrementer(40), parse_circuit((GOLDEN / "incrementer_5.rvc").read_text())):
            c = m.circuit
            widened = remap(c, {i: i for i in range(c.width)}, c.width + extra)
            assert widened.width == c.width + extra
            assert len(widened.gates) == len(c.gates)
            assert all(new is old for new, old in zip(widened.gates, c.gates))

    def test_non_identity_map_shares_repeated_gates(self):
        # decrementer(n) runs its wrapping NOTs twice, and the parser shares identical lines
        for m in (decrementer(40), parse_circuit((GOLDEN / "decrementer_3.rvc").read_text())):
            c = m.circuit
            reversed_lines = {i: c.width - 1 - i for i in range(c.width)}
            moved = remap(c, reversed_lines, c.width + 2)
            assert moved == reference_remap(c, reversed_lines, c.width + 2)
            assert len({*map(id, moved.gates)}) == len({*map(id, c.gates)}) < len(c.gates)
            first = {}
            for old, new in zip(c.gates, moved.gates):
                assert first.setdefault(id(old), new) is new  # one moved Gate per input Gate

    def test_bennett_widening_shares_the_gates(self):
        m = decrementer(6)
        gates = bennett(m).circuit.gates
        assert all(new is old for new, old in zip(gates, m.circuit.gates))
        assert all(new is old for new, old in zip(gates[::-1], m.circuit.gates))


def reference_remap(circuit: Circuit, line_map, new_width: int) -> Circuit:
    """`remap` as written before an identity map shared its gates, reading each index one at a time."""
    new_width = read_index(new_width, "circuit width")
    missing = [line for line in range(circuit.width) if line not in line_map]
    if missing:
        raise InvalidCircuitError(f"line map is not defined on lines {missing}")
    image = [read_index(line_map[line]) for line in range(circuit.width)]
    if len(set(image)) != len(image):
        raise InvalidCircuitError("non-injective line map")
    bad = [i for i in image if not 0 <= i < new_width]
    if bad:
        raise InvalidCircuitError(f"line map image out of range [0, {new_width}): {bad}")
    new_line = image.__getitem__
    gates = tuple(
        _trusted_gate(g.kind, tuple(map(new_line, g.controls)), new_line(g.target))
        for g in circuit.gates
    )
    return _trusted_circuit(new_width, gates)


@st.composite
def line_maps(draw):
    """A circuit, a line map and a new width: injective, identity, or with one flaw."""
    c = draw(machines()).circuit
    new_width = c.width + draw(st.integers(-1, 3))
    lines = list(range(c.width))
    flaw = draw(st.sampled_from(["none", "identity", "missing", "collide", "outside"]))
    if flaw == "identity":
        return c, {i: i for i in lines}, max(new_width, c.width)
    image = draw(st.permutations(range(max(new_width, c.width))))[: c.width]
    line_map = dict(zip(lines, image))
    if flaw == "missing":
        del line_map[draw(st.sampled_from(lines))]
    elif flaw == "collide" and c.width > 1:
        a, b = draw(st.lists(st.sampled_from(lines), min_size=2, max_size=2, unique=True))
        line_map[a] = line_map[b]
    elif flaw == "outside":
        line_map[draw(st.sampled_from(lines))] = draw(st.sampled_from([-1, new_width, new_width + 4]))
    if draw(st.booleans()):
        line_map[c.width + draw(st.integers(0, 3))] = draw(st.integers(-2, 12))  # off the circuit: ignored
    return c, line_map, new_width


class TestRemapMatchesReference:
    """Same circuit, or the same error class and message (so the same check order), as before."""

    @given(line_maps())
    @example((Circuit(3), {0: 0, 1: 1}, 3))  # missing
    @example((Circuit(3), {0: 5, 1: 5}, 3))  # missing before non-injective
    @example((Circuit(2), {0: 1, 1: 1}, 2))  # non-injective
    @example((Circuit(2), {0: 5, 1: 5}, 2))  # non-injective before out of range
    @example((Circuit(2), {0: 0, 1: 5}, 2))  # out of range
    @example((Circuit(2), {0: -1, 1: 0}, 2))
    @example((Circuit(2, (Gate(GateKind.CX, (0,), 1),)), {0: 0, 1: 1}, 1))  # identity, too narrow
    def test_matches(self, args):
        got = built_or_refused(remap, *args)
        assert got == built_or_refused(reference_remap, *args)
        if isinstance(got, Circuit):
            assert type(got.gates) is tuple
            assert_as_if_validated(got)


class TestConcat:
    def test_orders_gates(self):
        a = Circuit(2, (make_gate("x", [], 0),))
        b = Circuit(2, (make_gate("cx", [0], 1),))
        assert concat(a, b).gates == a.gates + b.gates

    def test_empty_left_identity(self):
        c = Circuit(3, (make_gate("ccx", [0, 1], 2),))
        assert concat(Circuit(3), c) == c

    def test_width_mismatch_rejected(self):
        with pytest.raises(InvalidCircuitError, match="width mismatch"):
            concat(Circuit(3), Circuit(4))

    @given(circuits(max_width=5, max_gates=8))
    def test_with_inverse_acts_as_identity(self, c):
        round_trip = concat(c, inverse(c))
        for v in range(1 << c.width):
            s = BitState.zeros(c.width).with_value(range(c.width), v)
            assert run(round_trip, s) == s

    @given(circuits(max_width=5, max_gates=6), st.data())
    def test_concat_runs_sequentially(self, a, data):
        b = data.draw(circuits(min_width=a.width, max_width=a.width, max_gates=6))
        v = data.draw(st.integers(0, (1 << a.width) - 1))
        s = BitState.zeros(a.width).with_value(range(a.width), v)
        assert run(concat(a, b), s) == run(b, run(a, s))


class TestBijectivity:
    @given(circuits(max_width=6, max_gates=10))
    def test_every_circuit_permutes_the_state_space(self, c):
        images = {
            run(c, BitState.zeros(c.width).with_value(range(c.width), v)).value_of(
                range(c.width)
            )
            for v in range(1 << c.width)
        }
        assert len(images) == 1 << c.width

    @given(circuits(max_width=6, max_gates=8), st.data())
    def test_every_gate_is_an_involution(self, c, data):
        if not c.gates:
            return
        g = data.draw(st.sampled_from(c.gates))
        v = data.draw(st.integers(0, (1 << c.width) - 1))
        s = BitState.zeros(c.width).with_value(range(c.width), v)
        assert step(step(s, g), g) == s


class TestInterfaceSpec:
    def test_initial_partition_must_cover(self):
        with pytest.raises(InvalidCircuitError, match="initial"):
            InterfaceSpec(width=2, input_lines=(0,), output_lines=(0, 1))

    def test_duplicate_role_rejected(self):
        with pytest.raises(InvalidCircuitError, match="twice"):
            InterfaceSpec(
                width=2, input_lines=(0, 1), output_lines=(0, 0), garbage_lines=(1,)
            )

    def test_restored_must_be_preset(self):
        with pytest.raises(InvalidCircuitError, match="not a preset"):
            InterfaceSpec(
                width=2,
                input_lines=(0, 1),
                output_lines=(0,),
                restored_lines=((1, 0),),
            )

    def test_restored_constant_must_match(self):
        with pytest.raises(InvalidCircuitError, match="constant"):
            InterfaceSpec(
                width=2,
                input_lines=(0,),
                preset_lines=((1, 0),),
                output_lines=(0,),
                restored_lines=((1, 1),),
            )

    def test_machine_width_mismatch(self):
        iface = InterfaceSpec(width=3, input_lines=(0, 1, 2), output_lines=(0, 1, 2))
        with pytest.raises(InvalidCircuitError, match="width"):
            Machine(Circuit(4), iface)


class TestInverseMachine:
    def test_roles_swap(self):
        m = incrementer(3)
        inv = inverse_machine(m)
        assert inv.iface.input_lines == m.iface.output_lines + m.iface.garbage_lines
        assert inv.iface.output_lines == m.iface.input_lines
        assert inv.circuit == inverse(m.circuit)

    def test_backward_recovers_input(self):
        m = incrementer(3)
        inv = inverse_machine(m)
        for x in range(8):
            final = run(m.circuit, BitState.zeros(4).with_value(m.iface.input_lines, x))
            back = run(inv.circuit, final)
            assert back.value_of(m.iface.input_lines) == x


def assert_as_if_validated(circuit: Circuit) -> None:
    """`circuit` equals what the validating constructors build from its parts."""
    assert type(circuit.gates) is tuple
    assert Circuit(circuit.width, circuit.gates) == circuit
    for g in circuit.gates:
        public = Gate(g.kind, g.controls, g.target)
        assert type(g.controls) is tuple
        assert g == public and hash(g) == hash(public)


def derived_circuits(m: Machine) -> list[Circuit]:
    """Every circuit the algebra, the transforms and the parser derive from `m`."""
    c, w = m.circuit, m.width
    reversed_lines = {i: w - i for i in range(w)}
    return [
        concat(c, c),
        inverse(c),
        remap(c, reversed_lines, w + 1),
        inverse_machine(m).circuit,
        bennett(m).circuit,
        parse_circuit(serialize(m)).circuit,
    ]


class TestTrustedConstruction:
    """Circuits built without re-validation are the ones validation would build."""

    @given(machines())
    def test_generated_machines(self, m):
        for circuit in derived_circuits(m):
            assert_as_if_validated(circuit)

    def test_library_roster(self, roster):
        for _, m in roster:
            for circuit in derived_circuits(m):
                assert_as_if_validated(circuit)

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_zero_garbage_compose(self, n):
        for f, g in ((incrementer(n), decrementer(n)), (decrementer(n), incrementer(n))):
            assert_as_if_validated(zero_garbage_compose(f, g).circuit)

    @pytest.mark.parametrize("path", sorted(GOLDEN.glob("*.rvc")), ids=lambda p: p.name)
    def test_golden_files(self, path):
        m = parse_circuit(path.read_text())
        assert_as_if_validated(m.circuit)
        for circuit in derived_circuits(m):
            assert_as_if_validated(circuit)

    @pytest.mark.parametrize(
        "build,match",
        [
            (lambda: Gate(GateKind.CX, (0, 1), 2), "control"),
            (lambda: Gate(GateKind.X, (), -1), "negative"),
            (lambda: Gate(GateKind.CCX, (1, 1), 0), "duplicate line"),
            (lambda: make_gate("ccx", [0, 2], 0), "duplicate line"),
            (lambda: Circuit(2, (Gate(GateKind.CX, (0,), 2),)), "out of range"),
            (lambda: Circuit(3, (Gate(GateKind.X, (), 0), Gate(GateKind.X, (), 3))), "out of range"),
        ],
    )
    def test_public_constructors_still_validate(self, build, match):
        with pytest.raises(InvalidCircuitError, match=match):
            build()


MINIMAL_DOC = "width 2\ninput 0 1\noutput 0 1\ngate cx 0 1\n"


class TestValueSemantics:
    """A slotted, frozen Gate behaves as a value, alone and inside circuits and machines."""

    @staticmethod
    def values() -> list:
        zg = parse_circuit(serialize(zero_garbage_compose(incrementer(4), decrementer(4))))
        return [
            zg.circuit.gates[0],  # built by the parser, through _trusted_gate
            Gate(GateKind.CCX, [0, 1], 2),
            Gate(GateKind.X, (), 0),
            zg.circuit,
            zg,
        ]

    @pytest.mark.parametrize("i", range(5))
    def test_copies_are_equal_values(self, i):
        value = self.values()[i]
        protocols = range(pickle.HIGHEST_PROTOCOL + 1)
        copies = [pickle.loads(pickle.dumps(value, protocol)) for protocol in protocols]
        copies += [copy.copy(value), copy.deepcopy(value), dataclasses.replace(value)]
        for copied in copies:
            assert type(copied) is type(value)
            assert copied == value and hash(copied) == hash(value)

    def test_kinds_pickle_to_themselves(self):
        for kind in GateKind:
            assert pickle.loads(pickle.dumps(kind)) is kind
            assert copy.deepcopy(kind) is kind

    def test_replace_validates(self):
        g = Gate(GateKind.CX, (0,), 1)
        assert dataclasses.replace(g, target=2) == Gate(GateKind.CX, (0,), 2)
        with pytest.raises(InvalidCircuitError, match="duplicate line"):
            dataclasses.replace(g, target=0)

    def test_gate_fields_cannot_be_assigned(self):
        for g in (Gate(GateKind.CX, (0,), 1), parse_circuit(MINIMAL_DOC).circuit.gates[0]):
            for name, value in (("kind", GateKind.X), ("controls", ()), ("target", 7)):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(g, name, value)

    def test_gates_carry_no_dict(self):
        parsed = parse_circuit(MINIMAL_DOC).circuit.gates[0]
        for g in (parsed, Gate(GateKind.X, (), 0), copy.deepcopy(parsed)):
            assert not hasattr(g, "__dict__")
        assert Gate.__slots__ == ("kind", "controls", "target")


class TestPublicConstructorsReadIndices:
    """`Gate` takes only a `GateKind`, and `Gate` and `Circuit` read each index as a plain int or refuse it."""

    @pytest.mark.parametrize("kind", ["cx", None, 1])
    def test_gate_refuses_a_kind_that_is_not_a_gate_kind(self, kind):
        with pytest.raises(InvalidCircuitError, match=f"^gate kind must be a GateKind, got {re.escape(repr(kind))}$"):
            Gate(kind, (0,), 1)

    @pytest.mark.parametrize(
        "build,refused",
        [
            (lambda: Gate(GateKind.X, (), 1.0), "line index must be an integer, got 1.0"),
            (lambda: Gate(GateKind.CX, ("0",), 1), "line index must be an integer, got '0'"),
            (lambda: Gate(GateKind.CCX, (0, 1), None), "line index must be an integer, got None"),
            (lambda: Circuit(3.0, ()), "circuit width must be an integer, got 3.0"),
            (lambda: Circuit("3"), "circuit width must be an integer, got '3'"),
        ],
    )
    def test_an_index_that_is_not_an_integer_is_refused(self, build, refused):
        with pytest.raises(InvalidCircuitError, match=f"^{re.escape(refused)}$"):
            build()

    def test_bools_and_int_subclasses_become_plain_ints(self):
        for gate, want in (
            (Gate(GateKind.CX, (True,), 2), Gate(GateKind.CX, (1,), 2)),
            (Gate(GateKind.CCX, (Line(0), True), Line(3)), Gate(GateKind.CCX, (0, 1), 3)),
            (dataclasses.replace(Gate(GateKind.X, (), 0), target=True), Gate(GateKind.X, (), 1)),
        ):
            assert repr(gate) == repr(want)
            assert {*map(type, gate.lines)} == {int}
        for width in (True, Line(3)):
            assert type(Circuit(width).width) is int and Circuit(width).width == width

    def test_a_public_gate_serializes_and_parses_back(self):
        gates = (Gate(GateKind.CX, (True,), 2), Gate(GateKind.CCX, (Line(0), Line(2)), 1), Gate(GateKind.X, (), Line(0)))
        m = Machine(Circuit(Line(3), gates), InterfaceSpec(3, (0, 1, 2), (), (0, 1, 2)))
        text = serialize(m)
        assert text.endswith("gate cx 1 2\ngate ccx 0 2 1\ngate x 0\n") and text.startswith("width 3\n")
        assert parse_circuit(text) == m


# The public constructors' checks as written before Gate took slots, kept as
# the oracle for the cheaper forms in `ir`: same refusals, same messages.
_REF_CONTROL_COUNT = {GateKind.X: 0, GateKind.CX: 1, GateKind.CCX: 2}


def reference_gate(kind: GateKind, controls, target: int) -> Gate:
    controls = tuple(controls)
    if len(controls) != _REF_CONTROL_COUNT[kind]:
        raise InvalidCircuitError(
            f"gate kind {kind.value!r} takes {_REF_CONTROL_COUNT[kind]} "
            f"control(s), got {len(controls)}"
        )
    lines = controls + (target,)
    if any(line < 0 for line in lines):
        raise InvalidCircuitError(f"negative line index in gate: {lines}")
    if len(set(lines)) != len(lines):
        raise InvalidCircuitError(f"duplicate line in gate: {lines}")
    return _trusted_gate(kind, controls, target)


def reference_circuit(width: int, gates) -> Circuit:
    if width < 1:
        raise InvalidCircuitError("circuit width must be positive")
    gates = tuple(gates)
    for gate in gates:
        if max(gate.lines) >= width:
            raise InvalidCircuitError(f"gate on lines {gate.lines} out of range for width {width}")
    return _trusted_circuit(width, gates)


def reference_interface(width, input_lines, preset_lines, output_lines, garbage_lines, restored_lines):
    """The field values InterfaceSpec must hold for these arguments, or its error.

    Each index is read one at a time, in this order: the width, the input, output and garbage lines,
    and then each preset and restored pair's line and constant.
    """
    width = read_index(width, "interface width")
    input_lines, output_lines, garbage_lines = (
        tuple(map(read_index, lines)) for lines in (input_lines, output_lines, garbage_lines)
    )
    preset_lines = tuple((read_index(l), read_index(c, "constant")) for l, c in preset_lines)
    restored_lines = tuple((read_index(l), read_index(c, "constant")) for l, c in restored_lines)
    for line, const in preset_lines + restored_lines:
        if const not in (0, 1):
            raise InvalidCircuitError(f"constant for line {line} must be 0 or 1, got {const}")
    partitions = (
        ("initial", (input_lines, tuple(l for l, _ in preset_lines))),
        ("final", (output_lines, garbage_lines, tuple(l for l, _ in restored_lines))),
    )
    for which, groups in partitions:
        seen = [line for group in groups for line in group]
        if len(seen) != len(set(seen)):
            raise InvalidCircuitError(f"{which} role declaration lists a line twice")
        if len(seen) != width or not all(0 <= line < width for line in seen):
            raise InvalidCircuitError(
                f"{which} role declaration does not cover every line exactly once"
            )
    presets = dict(preset_lines)
    for line, const in restored_lines:
        if line not in presets:
            raise InvalidCircuitError(f"restored line {line} is not a preset line")
        if presets[line] != const:
            raise InvalidCircuitError(
                f"restored line {line} declares constant {const}, preset says {presets[line]}"
            )
    return (width, input_lines, preset_lines, output_lines, garbage_lines, restored_lines)


def built_or_refused(build, *args):
    try:
        value = build(*args)
    except InvalidCircuitError as exc:
        return type(exc), str(exc)
    if isinstance(value, InterfaceSpec):
        return tuple(getattr(value, f.name) for f in dataclasses.fields(value))
    return value


_LINES = st.integers(-3, 9)


@st.composite
def valid_gates(draw, max_line: int = 9):
    kind = draw(st.sampled_from(GateKind))
    lines = draw(st.lists(st.integers(0, max_line), min_size=kind.n_controls + 1,
                          max_size=kind.n_controls + 1, unique=True))
    return Gate(kind, tuple(lines[:-1]), lines[-1])


@st.composite
def role_declarations(draw):
    """InterfaceSpec arguments: arbitrary tuples, or a legal declaration with one edit."""
    consts = st.sampled_from([0, 1, 0, 1, -1, 2])
    if draw(st.booleans()):
        pairs = st.lists(st.tuples(_LINES, consts), max_size=4).map(tuple)
        singles = st.lists(_LINES, max_size=4).map(tuple)
        return (draw(st.integers(-1, 6)), draw(singles), draw(pairs), draw(singles),
                draw(singles), draw(pairs))
    iface = draw(machines()).iface
    fields = [getattr(iface, f.name) for f in dataclasses.fields(iface)]
    width, i = fields[0], draw(st.integers(1, 5))
    edit = draw(st.sampled_from(["none", "width", "drop", "append", "restore"]))
    if edit == "width":
        fields[0] += draw(st.sampled_from([-1, 1]))
    elif edit == "drop" and fields[i]:
        fields[i] = fields[i][1:]
    elif edit == "append":
        line = draw(st.one_of(_LINES, st.integers(0, width - 1)))
        fields[i] += ((line, draw(consts)),) if i in (2, 5) else (line,)
    elif edit == "restore" and fields[3]:
        # An output line declared restored instead: an input, or a preset
        # with the same or the other constant.
        fields[5] += ((fields[3][0], draw(consts)),)
        fields[3] = fields[3][1:]
    return tuple(fields)


class Line(int):
    """An int subclass with its own repr, so a field that kept it instead of an int shows."""

    def __repr__(self) -> str:
        return f"Line({int(self)})"


def fields_or_error(build, args):
    """The interface fields `build` gives, with their repr (which tells a bool or Line from an int), or its error."""
    try:
        value = build(*args)
    except (InvalidCircuitError, ValueError, TypeError) as exc:
        return type(exc), str(exc)
    fields = value if isinstance(value, tuple) else tuple(getattr(value, f.name) for f in dataclasses.fields(value))
    return fields, repr(fields)


def large_declaration(k: int = 2000, s: int = 1500) -> list:
    """k inputs that are also the outputs; s presets of alternating constants, all restored."""
    presets = tuple((k + j, j % 2) for j in range(s))
    return [k + s, tuple(range(k)), presets, tuple(range(k)), (), presets]


def as_lists(pairs):
    return [[line, const] for line, const in pairs]


def last_edited(pairs, edit):
    return tuple(pairs[:-1]) + (edit(pairs[-1]),)


def large_edit(edit: str) -> list:
    args = large_declaration()
    width, inputs, presets, outputs, _, restored = args
    if edit == "lists":
        args[2], args[5] = as_lists(presets), as_lists(restored)
    elif edit == "bools":
        args[2] = tuple((line, bool(const)) for line, const in presets)
    elif edit == "subclass":
        args[2] = tuple((Line(line), const) for line, const in presets)
        args[5] = tuple((line, Line(const)) for line, const in restored)
    elif edit == "one list last":
        args[5] = last_edited(restored, list)
    elif edit == "one bool last":
        args[2] = last_edited(presets, lambda p: (p[0], bool(p[1])))
    elif edit == "bad constant last":
        args[5] = last_edited(restored, lambda p: (p[0], 2))
    elif edit == "other constant last":
        args[5] = last_edited(restored, lambda p: (p[0], 1 - p[1]))
    elif edit == "unpreset last":
        # Input line 0 declared restored instead of output; the last preset becomes garbage.
        args[3], args[4] = outputs[1:], (restored[-1][0],)
        args[5] = restored[:-1] + ((0, 0),)
    elif edit == "twice last":
        args[5] = restored + (restored[0],)
    elif edit == "three last":
        args[2] = last_edited(presets, lambda p: (*p, 0))
    elif edit == "partial":
        args[4], args[5] = (restored[-1][0],), restored[:-1]  # bennett-like: a preset left as garbage
    elif edit == "out of range last":
        args[2] = last_edited(presets, lambda p: (width, p[1]))
    return args


LARGE_EDITS = [
    "none", "lists", "bools", "subclass", "one list last", "one bool last", "bad constant last",
    "other constant last", "unpreset last", "twice last", "three last", "partial", "out of range last",
]


@st.composite
def retyped_declarations(draw):
    """role_declarations() with pairs given as lists, bools or Line, each chosen per pair."""
    args = list(draw(role_declarations()))
    retype = st.sampled_from(["keep", "list", "bool line", "bool const", "Line"])
    for i in (2, 5):
        pairs = []
        for line, const in args[i]:
            how = draw(retype)
            if how == "list":
                pairs.append([line, const])
            elif how == "bool line" and line in (0, 1):
                pairs.append((bool(line), const))
            elif how == "bool const" and const in (0, 1):
                pairs.append((line, bool(const)))
            elif how == "Line":
                pairs.append((Line(line), Line(const)))
            else:
                pairs.append((line, const))
        args[i] = draw(st.sampled_from([tuple, list]))(pairs)
    return tuple(args)


class TestChecksMatchReference:
    """The public constructors refuse what the reference checks refuse, with their messages."""

    @given(st.sampled_from(GateKind), st.lists(_LINES, max_size=3), _LINES)
    @example(GateKind.CX, [], 0)
    @example(GateKind.CCX, [4, -1], 4)
    @example(GateKind.CCX, [4, 1], 4)
    def test_gate(self, kind, controls, target):
        got = built_or_refused(Gate, kind, controls, target)
        assert got == built_or_refused(reference_gate, kind, controls, target)
        if isinstance(got, Gate):
            assert type(got.controls) is tuple

    @given(st.integers(-2, 10), st.lists(valid_gates(), max_size=6))
    def test_circuit(self, width, gates):
        got = built_or_refused(Circuit, width, gates)
        assert got == built_or_refused(reference_circuit, width, gates)
        if isinstance(got, Circuit):
            assert type(got.gates) is tuple

    @given(role_declarations())
    @example((0, (), (), (), (), ()))
    @example((2, (0,), ((1, 0),), (0,), (0,), ((1, 0),)))  # final lists a line twice
    @example((2, (0, 1), (), (0, 2), (), ()))  # final does not cover
    @example((2, (0, -1), (), (0, 1), (), ()))
    @example((2, (0, 1), (), (0,), (), ((1, 0),)))  # restored, not preset
    @example((2, (0,), ((1, 0),), (0,), (), ((1, 1),)))  # restored with the other constant
    def test_interface(self, args):
        assert built_or_refused(InterfaceSpec, *args) == built_or_refused(reference_interface, *args)

    @pytest.mark.parametrize("edit", LARGE_EDITS)
    def test_interface_large(self, edit):
        args = large_edit(edit)
        got = fields_or_error(InterfaceSpec, args)
        assert got == fields_or_error(reference_interface, args)
        if edit in ("none", "partial"):
            assert isinstance(got[0], tuple) and got[0][2] is args[2]  # exact-int pairs kept as given

    @given(retyped_declarations())
    def test_interface_retyped(self, args):
        assert fields_or_error(InterfaceSpec, args) == fields_or_error(reference_interface, args)


def retyped(value):
    """A strategy for `value` as itself, a bool, an int subclass, a float or a string."""
    forms = [st.just(value), st.just(Line(value)), st.just(float(value)), st.just(str(value))]
    return st.one_of(*forms, *([st.just(bool(value))] if value in (0, 1) else []))


@st.composite
def retyped_regions(draw):
    """role_declarations() with the width and each region line kept, or given as another type."""
    args = list(draw(role_declarations()))
    if draw(st.booleans()):
        args[0] = draw(retyped(args[0]))
    for i in (1, 3, 4):
        args[i] = tuple(draw(retyped(line)) if draw(st.booleans()) else line for line in args[i])
    return tuple(args)


@st.composite
def retyped_maps(draw):
    """line_maps() with the new width and each image line kept, or given as another type."""
    c, line_map, new_width = draw(line_maps())
    line_map = {line: draw(retyped(to)) if draw(st.booleans()) else to for line, to in line_map.items()}
    return c, line_map, draw(retyped(new_width)) if draw(st.booleans()) else new_width


class TestIndicesAreReadAsInts:
    """`InterfaceSpec` and `remap` read every index as `Gate` and `Circuit` do: a bool or an int
    subclass as its plain int, anything else refused with `InvalidCircuitError`."""

    @pytest.mark.parametrize(
        "args,refused",
        [
            ((3, (0, 1.0, 2), (), (0, 1, 2)), "line index must be an integer, got 1.0"),
            ((3, (0, 1, 2), (), (0, 1, 2.0)), "line index must be an integer, got 2.0"),
            ((3, (0, 1, 2), (), (0,), ("1", 2)), "line index must be an integer, got '1'"),
            ((2.0, (0, 1), (), (0, 1)), "interface width must be an integer, got 2.0"),
            ((2, (0,), ((1.7, 0),), (0, 1)), "line index must be an integer, got 1.7"),
            ((2, (0,), (("1", 0),), (0, 1)), "line index must be an integer, got '1'"),
            ((2, (0,), ((1, "0"),), (0, 1)), "constant must be an integer, got '0'"),
            ((2, (0,), ((1, 0),), (0,), (), ((1, 0.0),)), "constant must be an integer, got 0.0"),
        ],
    )
    def test_interface_refuses_an_index_that_is_not_an_integer(self, args, refused):
        args += ((),) * (6 - len(args))
        with pytest.raises(InvalidCircuitError, match=f"^{re.escape(refused)}$"):
            InterfaceSpec(*args)
        assert fields_or_error(reference_interface, args) == (InvalidCircuitError, refused)

    def test_interface_reads_bools_and_int_subclasses_as_plain_ints(self):
        args = (Line(4), (True, Line(0), 2), ((Line(3), True),), (0, 1, 2), (), ((Line(3), Line(1)),))
        iface = InterfaceSpec(*args)
        fields = tuple(getattr(iface, f.name) for f in dataclasses.fields(iface))
        assert repr(fields) == repr((4, (1, 0, 2), ((3, 1),), (0, 1, 2), (), ((3, 1),)))
        assert fields_or_error(InterfaceSpec, args) == fields_or_error(reference_interface, args)

    def test_a_bool_line_serializes_as_its_int_and_parses_back(self):
        iface = InterfaceSpec(3, (0, True, 2), (), (0, 1, 2))
        m = Machine(Circuit(3, (Gate(GateKind.CX, (0,), 1),)), iface)
        assert serialize(m) == "width 3\ninput 0 1 2\noutput 0 1 2\ngate cx 0 1\n"
        assert parse_circuit(serialize(m)) == m

    def test_exact_int_regions_are_kept_as_given(self):
        args = large_declaration()
        iface = InterfaceSpec(*args)
        assert iface.input_lines is args[1] and iface.output_lines is args[3]

    @pytest.mark.parametrize(
        "line_map,new_width,refused",
        [
            ({0: 1.0, 1: 0.0}, 2, "line index must be an integer, got 1.0"),
            ({0: 0, 1: "1"}, 2, "line index must be an integer, got '1'"),
            ({0: 0, 1: 1}, 2.5, "circuit width must be an integer, got 2.5"),
            ({0: 0, 1: 1}, 2.0, "circuit width must be an integer, got 2.0"),
        ],
    )
    def test_remap_refuses_an_index_that_is_not_an_integer(self, line_map, new_width, refused):
        c = Circuit(2, (Gate(GateKind.CX, (0,), 1),))
        for build in (remap, reference_remap):
            with pytest.raises(InvalidCircuitError, match=f"^{re.escape(refused)}$"):
                build(c, line_map, new_width)

    def test_remap_reads_bools_and_int_subclasses_as_plain_ints(self):
        c = Circuit(2, (Gate(GateKind.CX, (0,), 1), Gate(GateKind.X, (), 0)))
        for line_map, new_width in (({0: True, 1: False}, 2), ({0: Line(2), 1: Line(0)}, Line(3)), ({0: 0, 1: 1}, True)):
            got = built_or_refused(remap, c, line_map, new_width)
            assert got == built_or_refused(reference_remap, c, line_map, new_width)
            if isinstance(got, Circuit):
                assert {*map(type, (got.width, *(line for g in got.gates for line in g.lines)))} == {int}
        assert remap(c, {0: True, 1: False}, 2).gates == (Gate(GateKind.CX, (1,), 0), Gate(GateKind.X, (), 1))
        with pytest.raises(InvalidCircuitError, match=re.escape("out of range [0, 1): [1]")):
            remap(c, {0: 0, 1: 1}, True)  # a width of True is 1

    @given(retyped_regions())
    @example((2.0, (0, 1), (), (0, 1), (), ()))
    @example((2, (0, 1.0), ((5, 2),), (0, 1), (), ()))  # the region line is read before the pair
    def test_interface_matches_reference(self, args):
        assert fields_or_error(InterfaceSpec, args) == fields_or_error(reference_interface, args)

    @given(retyped_maps())
    @example((Circuit(2), {0: 0.0, 1: 0}, 2))  # read before the non-injective check
    @example((Circuit(2), {0: 0}, 2.0))  # the width is read before the missing check
    @example((Circuit(2), {0: None, 1: 0}, 2))  # a line mapped to None is not missing, but refused
    def test_remap_matches_reference(self, args):
        assert built_or_refused(remap, *args) == built_or_refused(reference_remap, *args)
