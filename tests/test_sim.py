"""Gate semantics, execution, and truth-table extraction."""
from __future__ import annotations

import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path
from typing import Sequence
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

import revcirc
from revcirc import (
    EXHAUSTIVE_BOUND,
    BitState,
    Circuit,
    ExhaustiveBoundError,
    FunctionTable,
    GarbageProfile,
    InterfaceSpec,
    InvalidCircuitError,
    InversionError,
    Machine,
    NotInversePairError,
    RestorationViolationError,
    TrialBudgetExceededError,
    bennett,
    cli,
    conformance,
    decrementer,
    garbage_configs,
    garbage_profile,
    growth_report,
    incrementer,
    initial_state,
    invert_blind,
    invert_with_profile,
    is_injective,
    make_gate,
    parse_circuit,
    ripple_adder,
    run,
    sim,
    step,
    transforms,
    truth_table,
    zero_garbage_compose,
)
from conftest import circuits, copy_machine, late_liar, machines

GOLDEN = Path(__file__).resolve().parent.parent / "golden"

CCX = make_gate("ccx", [0, 1], 2)


def state(*bits: int) -> BitState:
    return BitState(len(bits), bits)


class TestStep:
    @pytest.mark.parametrize(
        "a,b,c_in,c_out",
        [
            (0, 0, 0, 0), (0, 0, 1, 1), (0, 1, 0, 0), (0, 1, 1, 1),
            (1, 0, 0, 0), (1, 0, 1, 1), (1, 1, 0, 1), (1, 1, 1, 0),
        ],
    )
    def test_toffoli_truth_table(self, a, b, c_in, c_out):
        # target flips exactly when both controls are 1, controls unchanged
        assert step(state(a, b, c_in), CCX) == state(a, b, c_out)

    def test_controlled_not(self):
        cx = make_gate("cx", [0], 1)
        assert step(state(1, 0), cx) == state(1, 1)
        assert step(state(0, 1), cx) == state(0, 1)

    def test_plain_not(self):
        x = make_gate("x", [], 0)
        assert step(state(0), x) == state(1)
        assert step(state(1), x) == state(0)

    def test_out_of_range_rejected(self):
        # step runs a one-gate Circuit, so the Circuit's own check refuses the gate
        message = r"gate on lines \(0, 1, 2\) out of range for width 2"
        with pytest.raises(InvalidCircuitError, match=message):
            step(state(0, 0), CCX)
        with pytest.raises(InvalidCircuitError, match=message):
            Circuit(2, (CCX,))


class TestRun:
    def test_empty_circuit_is_identity(self):
        s = state(1, 0, 1)
        assert run(Circuit(3), s) == s

    def test_forward_applies_in_order(self):
        c = Circuit(2, (make_gate("x", [], 0), make_gate("cx", [0], 1)))
        assert run(c, state(0, 0)) == state(1, 1)
        # reversed order would give (1, 0)
        assert run(c, state(0, 0), "backward") == state(1, 0)

    def test_width_mismatch_rejected(self):
        with pytest.raises(InvalidCircuitError, match="width"):
            run(Circuit(3), state(0, 0))

    def test_bad_direction_rejected(self):
        with pytest.raises(ValueError, match="direction"):
            run(Circuit(2), state(0, 0), "sideways")

    def test_incrementer_forward(self):
        m = incrementer(3)
        final = run(m.circuit, initial_state(m, 3))
        assert final.value_of(m.iface.output_lines) == 4
        assert final.value_of(m.iface.garbage_lines) == 1  # carry out of bit 1

    @given(circuits(max_width=6, max_gates=12), st.data())
    def test_backward_undoes_forward(self, c, data):
        v = data.draw(st.integers(0, (1 << c.width) - 1))
        s = BitState.zeros(c.width).with_value(range(c.width), v)
        assert run(c, run(c, s), "backward") == s


class TestBitState:
    def test_value_round_trip(self):
        s = BitState.zeros(5).with_value([1, 3, 4], 0b101)
        assert s.bits == (0, 1, 0, 0, 1)
        assert s.value_of([1, 3, 4]) == 0b101

    def test_value_too_big_rejected(self):
        with pytest.raises(ValueError, match="fit"):
            BitState.zeros(3).with_value([0], 2)

    def test_bad_bits_rejected(self):
        with pytest.raises(ValueError, match="bits"):
            BitState(2, (0, 2))
        with pytest.raises(ValueError, match="bits"):
            BitState(3, (0, 1))

    @given(machines(), st.data())
    def test_computed_states_are_valid_states(self, m, data):
        x = data.draw(st.integers(0, (1 << m.iface.input_width) - 1))
        start = initial_state(m, x)
        for state in (start, run(m.circuit, start), run(m.circuit, start, "backward")):
            assert type(state.bits) is tuple
            assert BitState(state.width, state.bits) == state

    def test_str_is_line_order(self):
        assert str(state(1, 0, 1, 1)) == "1011"


def reference_initial_state(machine: Machine, x: int) -> BitState:
    """`initial_state` as written with one copy of the whole state per preset at 1, kept as its oracle."""
    iface = machine.iface
    state = BitState.zeros(iface.width)
    for line, const in iface.preset_lines:
        if const:
            state = state.with_value([line], 1)
    return state.with_value(iface.input_lines, x)


class TestInitialState:
    def test_matches_per_preset_reference(self, roster, monkeypatch):
        # 3,000 presets, three in four at 1, around input lines placed out of order.
        inputs = (3003, 0, 1500, 7)
        presets = tuple((line, int(line % 4 != 0)) for line in range(3004) if line not in inputs)
        wide = Machine(
            Circuit(3004),
            InterfaceSpec(
                width=3004,
                input_lines=inputs,
                preset_lines=presets,
                output_lines=inputs,
                garbage_lines=tuple(line for line, _ in presets),
            ),
        )
        cases = [(m, x) for _, m in roster for x in range(1 << m.iface.input_width)] + [(wide, 0b1011)]
        built = []
        post_init = BitState.__post_init__

        def counted(state):
            built.append(state.width)
            post_init(state)

        monkeypatch.setattr(BitState, "__post_init__", counted)
        for m, x in cases:
            want = reference_initial_state(m, x)
            built.clear()
            assert initial_state(m, x) == want
            assert len(built) <= 2  # the state once, and once with its input written


class TestTruthTable:
    def test_incrementer_rows(self):
        t = truth_table(incrementer(3))
        assert (t.outputs[7], t.garbage[7]) == (0, 1)  # wraps, full carry chain
        assert (t.outputs[0], t.garbage[0]) == (1, 0)  # no carry out of bit 0
        assert len(t.outputs) == len(t.garbage) == 8

    def test_matches_integer_oracle_up_to_n10(self):
        for n in (2, 5, 10):
            t = truth_table(incrementer(n))
            assert all(t.output_of(x) == (x + 1) % (1 << n) for x in range(1 << n))

    def test_too_wide_rejected(self):
        with pytest.raises(ExhaustiveBoundError, match="refusing"):
            truth_table(incrementer(9), max_input_bits=8)

    def test_restoration_violation_detected(self):
        # declares line 1 restored to 0 but the circuit copies the input onto it
        iface = InterfaceSpec(
            width=2,
            input_lines=(0,),
            preset_lines=((1, 0),),
            output_lines=(0,),
            restored_lines=((1, 0),),
        )
        liar = Machine(Circuit(2, (make_gate("cx", [0], 1),)), iface)
        with pytest.raises(RestorationViolationError, match="restored") as exc:
            truth_table(liar)
        err = exc.value
        assert (err.input_value, err.line, err.const, err.held) == (1, 1, 0, 1)

    def test_row_count_invariant(self):
        with pytest.raises(ValueError, match="4 rows, outputs has 1"):
            FunctionTable(2, 1, (0,), (0, 0, 0, 0))
        with pytest.raises(ValueError, match="4 rows, garbage has 3"):
            FunctionTable(2, 1, (0, 1, 0, 1), (0, 0, 0))


class TestIsInjective:
    def test_incrementer_injective(self):
        assert is_injective(truth_table(incrementer(4)))

    def test_constant_machine_not_injective(self):
        # CX pair wipes the output line's dependence on the input
        iface = InterfaceSpec(
            width=2, input_lines=(0, 1), output_lines=(0,), garbage_lines=(1,)
        )
        m = Machine(Circuit(2), iface)  # identity: output = input bit 0 only
        assert not is_injective(truth_table(m))

    def test_adder_with_passthrough_injective(self):
        # (a, b) -> (a+b, b): recover a by subtraction, so no collisions
        assert is_injective(truth_table(ripple_adder(2)))


def reference_truth_table(machine: Machine) -> FunctionTable:
    """The literal per-row loop, kept as the oracle for the bit-sliced `truth_table`."""
    iface = machine.iface
    outputs: list[int] = []
    garbage: list[int] = []
    for x in range(1 << iface.input_width):
        final = run(machine.circuit, initial_state(machine, x))
        for line, const in iface.restored_lines:
            if final.bits[line] != const:
                raise RestorationViolationError(x, line, const, final.bits[line])
        outputs.append(final.value_of(iface.output_lines))
        garbage.append(final.value_of(iface.garbage_lines))
    return FunctionTable(iface.input_width, iface.output_width, outputs, garbage)


def outcome(tabulate, machine: Machine):
    """The table, or the type, message, input_value, line, const and held of the violation raised."""
    try:
        return tabulate(machine)
    except RestorationViolationError as exc:
        return type(exc), str(exc), exc.input_value, exc.line, exc.const, exc.held


def library_machine(name: str, n: int) -> Machine:
    base = {"incr": incrementer, "decr": decrementer, "adder": ripple_adder}
    if name.startswith("bennett-"):
        return bennett(library_machine(name.removeprefix("bennett-"), n))
    if name == "zg-incr":
        return zero_garbage_compose(incrementer(n), decrementer(n))
    if name == "zg-decr":
        return zero_garbage_compose(decrementer(n), incrementer(n))
    return base[name](n)


LIBRARY_SIZES = {"incr": range(2, 11), "decr": range(2, 11), "adder": range(1, 7)}
LIBRARY_ROSTER = (
    [(name, n) for name, sizes in LIBRARY_SIZES.items() for n in sizes]
    + [(f"bennett-{name}", n) for name, sizes in LIBRARY_SIZES.items() for n in sizes]
    + [(name, n) for name in ("zg-incr", "zg-decr") for n in range(2, 11)]
)


def lying_machine(gates, restored) -> Machine:
    """Inputs on lines 0 and 1, presets 0 on lines 2 and 3, `restored` declared."""
    restored_lines = {line for line, _ in restored}
    iface = InterfaceSpec(
        width=4,
        input_lines=(0, 1),
        preset_lines=((2, 0), (3, 0)),
        output_lines=(0, 1),
        garbage_lines=tuple(line for line in (2, 3) if line not in restored_lines),
        restored_lines=restored,
    )
    return Machine(Circuit(4, tuple(gates)), iface)


class TestBitSlicedTable:
    @given(machines(), st.sampled_from([sim._CHUNK_BITS, 0, 1, 2]))
    def test_matches_per_row_reference(self, m, chunk_bits):
        # machines() may declare restored lines falsely, so violations occur too
        with mock.patch.object(sim, "_CHUNK_BITS", chunk_bits):
            got = outcome(truth_table, m)
        assert got == outcome(reference_truth_table, m)

    @pytest.mark.parametrize("name,n", LIBRARY_ROSTER, ids=[f"{a}({n})" for a, n in LIBRARY_ROSTER])
    def test_library_roster(self, name, n):
        m = library_machine(name, n)
        assert truth_table(m) == reference_truth_table(m)

    @pytest.mark.parametrize("path", sorted(GOLDEN.glob("*.rvc")), ids=lambda p: p.name)
    def test_golden_files(self, path):
        m = parse_circuit(path.read_text())
        assert truth_table(m) == reference_truth_table(m)

    def test_lowest_failing_input_wins(self):
        # line 2 first fails at input 3 (x0 and x1), line 3 at input 2 (x1)
        m = lying_machine(
            [make_gate("ccx", [0, 1], 2), make_gate("cx", [1], 3)], ((2, 0), (3, 0))
        )
        with pytest.raises(RestorationViolationError) as exc:
            truth_table(m)
        err = exc.value
        assert (err.input_value, err.line, err.const, err.held) == (2, 3, 0, 1)
        assert outcome(truth_table, m) == outcome(reference_truth_table, m)

    def test_first_listed_line_wins_a_tie(self):
        # both lines fail first at input 1; line 3 is listed first
        m = lying_machine(
            [make_gate("cx", [0], 2), make_gate("cx", [0], 3)], ((3, 0), (2, 0))
        )
        with pytest.raises(RestorationViolationError) as exc:
            truth_table(m)
        err = exc.value
        assert (err.input_value, err.line, err.const, err.held) == (1, 3, 0, 1)
        assert outcome(truth_table, m) == outcome(reference_truth_table, m)

    def test_no_input_lines_is_one_row(self):
        iface = InterfaceSpec(
            width=3,
            preset_lines=((0, 1), (1, 0), (2, 1)),
            output_lines=(1,),
            garbage_lines=(0,),
            restored_lines=((2, 1),),
        )
        m = Machine(Circuit(3, (make_gate("cx", [0], 1),)), iface)
        t = truth_table(m)
        assert (t.outputs, t.garbage) == ((1,), (1,))
        assert t == reference_truth_table(m)
        liar = Machine(Circuit(3, (make_gate("x", [], 2),)), iface)
        assert outcome(truth_table, liar)[2:] == (0, 2, 1, 0)
        assert outcome(truth_table, liar) == outcome(reference_truth_table, liar)

    @pytest.mark.parametrize("region", ["output", "garbage"])
    def test_empty_region_reads_zero(self, region):
        lines = {"output_lines": (0, 1, 2), "garbage_lines": ()}
        if region == "output":
            lines = {"output_lines": (), "garbage_lines": (0, 1, 2)}
        iface = InterfaceSpec(width=3, input_lines=(0, 1, 2), **lines)
        m = Machine(Circuit(3, (make_gate("ccx", [0, 1], 2),)), iface)
        t = truth_table(m)
        empty, full = (t.outputs, t.garbage) if region == "output" else (t.garbage, t.outputs)
        assert empty == (0,) * 8
        assert set(full) == set(range(8))
        assert t == reference_truth_table(m)

    def test_region_wider_than_two_bytes(self):
        # 19 output lines take three byte groups in the transpose
        presets = tuple((line, line % 2) for line in range(3, 21))
        gates = [make_gate("cx", [line % 3], line) for line, _ in presets]
        gates.append(make_gate("ccx", [0, 1], 20))
        iface = InterfaceSpec(
            width=21,
            input_lines=(0, 1, 2),
            preset_lines=presets,
            output_lines=tuple(range(20, 2, -1)) + (0,),
            garbage_lines=(2, 1),
        )
        m = Machine(Circuit(21, tuple(gates)), iface)
        t = truth_table(m)
        assert t == reference_truth_table(m)
        assert max(t.outputs) >= 1 << 16

    @pytest.mark.parametrize("chunk_bits", [sim._CHUNK_BITS, 0, 1, 2])
    @pytest.mark.parametrize("tie,fields", [(False, (5, 3, 0, 1)), (True, (5, 4, 0, 1))])
    def test_violation_past_the_first_chunk(self, monkeypatch, chunk_bits, tie, fields):
        m = late_liar(tie)
        monkeypatch.setattr(sim, "_CHUNK_BITS", chunk_bits)
        got = outcome(truth_table, m)
        assert got == outcome(reference_truth_table, m)
        assert got[2:] == fields

    @pytest.mark.parametrize("chunk_bits", [0, 1, 3])
    @pytest.mark.parametrize(
        "m", [incrementer(7), ripple_adder(3), bennett(incrementer(4))], ids=["incr7", "adder3", "bennett-incr4"]
    )
    def test_chunks_join_into_the_whole_table(self, monkeypatch, m, chunk_bits):
        whole = truth_table(m)
        monkeypatch.setattr(sim, "_CHUNK_BITS", chunk_bits)
        assert truth_table(m) == whole == reference_truth_table(m)

    def test_spot_check_at_the_bound(self):
        # the differential tests stop at n = 10; this reaches the default bound
        n = EXHAUSTIVE_BOUND
        m = incrementer(n)
        t = truth_table(m)
        assert len(t.outputs) == len(t.garbage) == 1 << n
        rng = random.Random(2026)
        for x in [0, (1 << n) - 1] + [rng.randrange(1 << n) for _ in range(64)]:
            final = run(m.circuit, initial_state(m, x))
            expected = (final.value_of(m.iface.output_lines), final.value_of(m.iface.garbage_lines))
            assert (t.outputs[x], t.garbage[x]) == expected, x


@pytest.mark.parametrize("chunk_bits", [sim._CHUNK_BITS, 0, 1, 2, 3])
def test_domain_counts_up_in_chunks(monkeypatch, chunk_bits):
    # With no gates, and each of the first `bits` lines both an input and a garbage
    # line, a chunk's first `bits` lines are the start columns of its values,
    # forward and backward. With no bits, the one line is a preset line held at 0.
    monkeypatch.setattr(sim, "_CHUNK_BITS", chunk_bits)
    rng = random.Random(chunk_bits)
    for bits in range(7):
        held = () if bits else ((0, 0),)
        iface = InterfaceSpec(max(bits, 1), range(bits), held, garbage_lines=range(bits), restored_lines=held)
        m = Machine(Circuit(iface.width, ()), iface)
        given_values = list(range(1 << bits))[::-1] + [rng.randrange(1 << bits) for _ in range(5)]
        low = min(bits, chunk_bits)
        for values, sizes in (
            (None, [1 << low] * (1 << (bits - low))),
            (given_values, chunk_lanes(len(given_values), len(given_values), 1 << chunk_bits)),
        ):
            for y in (None, 0):
                seen, ran = [], []
                for full, lines in sim._passes(m, values, y):
                    ran.append(full.bit_length())
                    assert full == (1 << full.bit_length()) - 1
                    assert len(lines) == iface.width
                    seen += sim._transpose(lines[:bits], full.bit_length())
                assert ran == sizes
                assert seen == (list(range(1 << bits)) if values is None else values)


def reference_transpose(columns: Sequence[int], rows: int) -> tuple[int, ...]:
    """Row x's value read bit by bit from the columns, as the word transpose must give it."""
    return tuple(sum(((col >> x) & 1) << i for i, col in enumerate(columns)) for x in range(rows))


_TRANSPOSE_WIDTHS = [0, 1, 7, 8, 9, 63, 64, 65, 127, 128, 130, 192, 1000]
_TRANSPOSE_ROWS = [0, 1, 2, 3, 4, 8, 64, 1 << 10]


class TestWordTranspose:
    """`_transpose` reads a row of up to 64 columns as one word, and a wider row from its bytes;
    it is its own inverse, so it also bit-slices given values into columns."""

    # The last four are a full chunk of given values of 0, 9, 14 and 20 bits, as `_passes` bit-slices them.
    @pytest.mark.parametrize(
        "rows, width",
        [(r, w) for w in _TRANSPOSE_WIDTHS for r in _TRANSPOSE_ROWS]
        + [(64, 3000)]
        + [(bits, 1 << sim._CHUNK_BITS) for bits in (0, 9, 14, 20)],
    )
    def test_matches_per_row_reference(self, rows, width):
        rng = random.Random(width * 1000 + rows)
        columns = [rng.getrandbits(rows) for _ in range(width)]
        values = sim._transpose(columns, rows)
        assert type(values) is tuple and all(type(v) is int for v in values)
        assert values == reference_transpose(columns, rows)
        assert sim._transpose(values, width) == reference_transpose(values, width) == tuple(columns)

    @given(st.integers(0, 140), st.integers(0, 70), st.data())
    def test_random_columns_round_trip(self, width, rows, data):
        columns = data.draw(st.lists(st.integers(0, (1 << rows) - 1), min_size=width, max_size=width))
        values = sim._transpose(columns, rows)
        assert values == reference_transpose(columns, rows)
        assert sim._transpose(values, width) == reference_transpose(values, width) == tuple(columns)


def lanes(width: int):
    """One to nine `width`-bit values, one per lane of a bit-sliced run."""
    return st.lists(st.integers(0, (1 << width) - 1), min_size=1, max_size=9)


class TestRunCore:
    """`_run`, `_held`, `_lane` and `_lane_value` against the literal single-state simulator."""

    @given(machines(), st.data())
    def test_forward_matches_run(self, m, data):
        xs = data.draw(lanes(m.iface.input_width))
        lines = sim._run(m, sim._transpose(xs, m.iface.input_width), (1 << len(xs)) - 1)
        expected = [run(m.circuit, initial_state(m, x)).value_of(range(m.width)) for x in xs]
        assert list(sim._transpose(lines, len(xs))) == expected

    @given(machines(), st.data())
    def test_backward_matches_run(self, m, data):
        iface = m.iface
        region = iface.output_lines + iface.garbage_lines  # output value, then garbage above it
        values = data.draw(lanes(len(region)))
        lines = sim._run(m, sim._transpose(values, len(region)), (1 << len(values)) - 1, backward=True)

        def start_of(value: int) -> int:
            final = BitState.zeros(m.width).with_value(region, value)
            for line, const in iface.restored_lines:
                final = final.with_value([line], const)
            return run(m.circuit, final, "backward").value_of(range(m.width))

        assert list(sim._transpose(lines, len(values))) == [start_of(v) for v in values]

    @given(st.integers(1, 70), st.data())
    def test_held_is_every_pair_per_lane(self, width, data):
        states = data.draw(lanes(width))
        pairs = data.draw(st.lists(st.tuples(st.integers(0, width - 1), st.integers(0, 1)), max_size=6))
        held = sim._held(sim._transpose(states, width), pairs, (1 << len(states)) - 1)
        assert held == sum(all(s >> line & 1 == const for line, const in pairs) << j for j, s in enumerate(states))

    @pytest.mark.parametrize("width", [0, 1, 7, 8, 9, 63, 64, 65, 3000])
    def test_lane_round_trips_as_the_transpose(self, width):
        rng = random.Random(width)
        region = rng.sample(range(width), width)
        for value in sorted({0, (1 << width) - 1, 1 << width >> 1, rng.getrandbits(width), rng.getrandbits(width)}):
            lane = sim._lane(value, width)
            assert type(lane) is list and all(bit in (0, 1) and type(bit) is int for bit in lane)
            assert tuple(lane) == sim._transpose([value], width)
            assert sim._lane_value(lane, range(width)) == value
            assert sim._lane_value(lane, region) == sim._transpose([lane[line] for line in region], 1)[0]


def count_passes(monkeypatch) -> list[int]:
    """From now on, the lane count of every `sim._apply_gates` call, in order."""
    passes: list[int] = []
    apply_gates = sim._apply_gates

    def counted(lines, gates, full):
        passes.append(full.bit_length())
        apply_gates(lines, gates, full)

    monkeypatch.setattr(sim, "_apply_gates", counted)
    return passes


def chunk_lanes(upto: int, total: int, size: int) -> list[int]:
    """The lanes of each pass over `size`-value chunks of `total` values, up to the `upto`-th value."""
    return [min(size, total - done) for done in range(0, upto, size)]


class TestPassCounts:
    """Every pass is one `sim._run`, so a command's passes have a closed form."""

    @pytest.mark.parametrize(
        "n,chunk_bits", [(2, sim._CHUNK_BITS), (14, sim._CHUNK_BITS), (16, sim._CHUNK_BITS), (3, 2), (6, 2), (4, 0)]
    )
    def test_enumeration_is_one_pass_per_chunk(self, monkeypatch, n, chunk_bits):
        monkeypatch.setattr(sim, "_CHUNK_BITS", chunk_bits)
        m = incrementer(n)
        passes = count_passes(monkeypatch)
        for enumerate_inputs in (truth_table, garbage_configs, conformance):
            passes.clear()
            enumerate_inputs(m)
            assert passes == [1 << min(n, chunk_bits)] * (1 << max(0, n - chunk_bits))

    @pytest.mark.parametrize("k,chunk_bits", [(15, sim._CHUNK_BITS), (3, sim._CHUNK_BITS), (5, 2), (0, 2)])
    def test_blind_reads_one_fit_table(self, monkeypatch, k, chunk_bits):
        # Garbage g fits output y iff y == g; nothing fits 2^k.
        monkeypatch.setattr(sim, "_CHUNK_BITS", chunk_bits)
        m = copy_machine(k, 2 * k + 1)
        passes = count_passes(monkeypatch)
        fit_table = [1 << min(k, chunk_bits)] * (1 << max(0, k - chunk_bits))
        invert_blind(m, (1 << k) - 1, seed=0)
        assert passes == fit_table + [1]
        passes.clear()
        with pytest.raises(TrialBudgetExceededError):
            invert_blind(m, 1 << k, seed=0)
        assert passes == fit_table

    @pytest.mark.parametrize("k,chunk_bits,hit", [(16, sim._CHUNK_BITS, 40000), (5, 2, 20), (5, sim._CHUNK_BITS, 20)])
    def test_blind_under_two_to_the_k_runs_its_draws(self, monkeypatch, k, chunk_bits, hit):
        monkeypatch.setattr(sim, "_CHUNK_BITS", chunk_bits)
        m = copy_machine(k, 2 * k + 1)
        budget, size = (1 << k) - 1, 1 << min(k, chunk_bits)
        rng = random.Random(0)
        draws = [rng.getrandbits(k) for _ in range(hit)]
        passes = count_passes(monkeypatch)
        r = invert_blind(m, draws[-1], seed=0, max_trials=budget)
        assert r.trials == draws.index(draws[-1]) + 1
        assert passes == chunk_lanes(r.trials, budget, size) + [1]
        passes.clear()
        with pytest.raises(TrialBudgetExceededError):
            invert_blind(m, 1 << k, seed=0, max_trials=budget)
        assert passes == chunk_lanes(budget, budget, size)

    @pytest.mark.parametrize("chunk_bits", [sim._CHUNK_BITS, 0, 1])
    def test_table_method_runs_configurations_up_to_the_hit(self, monkeypatch, chunk_bits):
        monkeypatch.setattr(sim, "_CHUNK_BITS", chunk_bits)
        passes = count_passes(monkeypatch)
        for m, ys in ((incrementer(7), range(1 << 7)), (copy_machine(3, 7), [1 << 3])):
            profile = garbage_profile(m)
            configs, size = len(profile.configs), 1 << chunk_bits
            for y in ys:
                passes.clear()
                try:
                    r = invert_with_profile(m, y, profile)
                except InversionError:
                    assert passes == chunk_lanes(configs, configs, size)
                else:
                    assert passes == chunk_lanes(r.trials, configs, size) + [1]

    @pytest.mark.parametrize("n,chunk_bits", [(3, sim._CHUNK_BITS), (16, sim._CHUNK_BITS), (4, 2), (5, 0)])
    def test_zg_compose_checks_three_machines(self, monkeypatch, n, chunk_bits):
        # f and g are each checked if they declare restored lines, then the composed
        # machine; a false pair stops at its failing chunk and reads y and g(y) in
        # two one-lane passes. Library machines declare none, so only the composed
        # machine is run.
        monkeypatch.setattr(sim, "_CHUNK_BITS", chunk_bits)

        def refuse(*args, **kwargs):
            raise AssertionError("zero_garbage_compose built a truth table")

        monkeypatch.setattr(sim, "truth_table", refuse)
        assert not hasattr(transforms, "truth_table")
        passes = count_passes(monkeypatch)
        chunks = [1 << min(n, chunk_bits)] * (1 << max(0, n - chunk_bits))
        zero_garbage_compose(incrementer(n), decrementer(n))
        assert passes == chunks * 1
        # g also flips bit 0 when bit n-1 is set, so g(f(x)) = x first fails at 2^(n-1).
        g = decrementer(n)
        g = Machine(Circuit(g.width, g.circuit.gates + (make_gate("cx", [n - 1], 0),)), g.iface)
        passes.clear()
        with pytest.raises(NotInversePairError, match=f"expected {1 << (n - 1)}$"):
            zero_garbage_compose(incrementer(n), g)
        upto = (1 << (n - 1)) // chunks[0] + 1  # the chunks up to the failing one
        assert passes == chunks[:upto] + [1, 1]
        passes.clear()  # a pair of exactly max_input_bits bits is still checked
        with pytest.raises(NotInversePairError, match=f"expected {1 << (n - 1)}$"):
            zero_garbage_compose(incrementer(n), g, max_input_bits=n)
        assert passes == chunks[:upto] + [1, 1]
        # f with its top carry declared restored is still run, up to its chunk of
        # 2^(n-1) - 1, the carry's first 1, and its violation is reported first.
        f = incrementer(n)
        iface, top = f.iface, f.iface.garbage_lines[-1]
        liar = Machine(
            f.circuit,
            InterfaceSpec(
                width=iface.width,
                input_lines=iface.input_lines,
                preset_lines=iface.preset_lines,
                output_lines=iface.output_lines,
                garbage_lines=iface.garbage_lines[:-1],
                restored_lines=((top, 0),),
            ),
        )
        passes.clear()
        x = (1 << (n - 1)) - 1
        with pytest.raises(RestorationViolationError, match=f"^line {top} declared restored to 0 but holds 1 for input {x}$"):
            zero_garbage_compose(liar, g)
        assert passes == chunks[: x // chunks[0] + 1]
        passes.clear()
        for mg in (decrementer(n), g, incrementer(n)):  # trusted above the bound
            zero_garbage_compose(incrementer(n), mg, max_input_bits=n - 1)
        assert passes == []

    def test_default_bounds_refuse_21_bits_before_any_pass(self, monkeypatch):
        passes = count_passes(monkeypatch)
        with pytest.raises(ExhaustiveBoundError, match="^garbage region has 21 bits; refusing blind search beyond 20$"):
            invert_blind(copy_machine(21, 43), 0, seed=0)
        refused = "^input region has 21 bits; refusing exhaustive enumeration beyond 20 "
        for enumerate_inputs in (garbage_configs, conformance):
            with pytest.raises(ExhaustiveBoundError, match=refused):
                enumerate_inputs(incrementer(21))
        assert passes == []

    def test_growth_counts_up_to_20_bits_and_refuses_21_unenumerated(self, monkeypatch):
        passes = count_passes(monkeypatch)
        rep = growth_report(incrementer, range(18, 21))
        assert rep.points == ((18, 17), (19, 18), (20, 19))
        assert passes == [1 << sim._CHUNK_BITS] * ((1 << 4) + (1 << 5) + (1 << 6))
        passes.clear()
        with pytest.raises(ExhaustiveBoundError, match="^input region has 21 bits"):
            growth_report(incrementer, range(18, 22))
        assert passes == []

    def test_cli_sim_is_one_pass(self, monkeypatch, capsys):
        path = str(GOLDEN / "zg_incrementer_4.rvc")
        passes, backward = count_passes(monkeypatch), []
        apply_gates = cli._apply_gates

        def counted(lines, gates, full):
            backward.append(full.bit_length())
            apply_gates(lines, gates, full)

        monkeypatch.setattr(cli, "_apply_gates", counted)
        assert cli.main(["sim", "-c", path, "--int", "11", "--json"]) == 0
        final = json.loads(capsys.readouterr().out)["final_state"]
        assert (passes, backward) == ([1], [])
        assert cli.main(["sim", "-c", path, "--backward", "-x", final]) == 0
        assert (passes, backward) == ([1], [1])


def wide_garbage(bits: int) -> InterfaceSpec:
    """One input line, which is the output, and `bits` lines preset to 1 and declared garbage."""
    lines = tuple(range(1, bits + 1))
    return InterfaceSpec(bits + 1, (0,), tuple((line, 1) for line in lines), (0,), lines)


class TestSizeRefusals:
    """Every size refusal is `sim._refuse_beyond`: accepted at its bound, refused one bit past it, each in its words.

    Each case runs under a limit of 640 digits, which lowers both decimal bounds to 2,126 bits, so it stays cheap.
    """

    # each case's bound, how it runs with a given size and bound, and its message
    REFUSALS = {
        "input rows": (
            5,
            lambda bits, bound: truth_table(incrementer(bits), max_input_bits=bound),
            "input region has {bits} bits; refusing exhaustive enumeration beyond {bound} (pass max_input_bits to override)",
        ),
        "garbage rows": (
            5,
            lambda bits, bound: invert_blind(copy_machine(bits, 2 * bits), 0, seed=0, max_garbage_bits=bound),
            "garbage region has {bits} bits; refusing blind search beyond {bound}",
        ),
        "region in decimal": (
            2126,
            lambda bits, bound: cli._check_decimal(wide_garbage(bits), "input", "output", "garbage"),
            "garbage region has {bits} bits; refusing to write its values in decimal beyond {bound}",
        ),
        "configuration in decimal": (
            2126,
            lambda bits, bound: GarbageProfile("m", 1, bits, ((1 << bits) - 1,)).digest(),
            "a garbage configuration has {bits} bits; refusing to write it in decimal beyond {bound}",
        ),
    }

    @pytest.mark.parametrize("name", REFUSALS)
    def test_accepted_at_the_bound_and_refused_one_bit_past_it(self, name):
        bound, attempt, message = self.REFUSALS[name]
        previous = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            attempt(bound, bound)
            refused = "^" + re.escape(message.format(bits=bound + 1, bound=bound)) + "$"
            with pytest.raises(ExhaustiveBoundError, match=refused):
                attempt(bound + 1, bound)
        finally:
            sys.set_int_max_str_digits(previous)

    def test_blind_refuses_garbage_bits_before_judging_the_output(self, monkeypatch):
        # 21 garbage bits and an output one past the 22-bit region: the size refusal comes first, with no pass.
        m, y = copy_machine(21, 43), 1 << 22
        passes = count_passes(monkeypatch)
        with pytest.raises(ExhaustiveBoundError, match="^garbage region has 21 bits; refusing blind search beyond 20$"):
            invert_blind(m, y, seed=0)
        with pytest.raises(InvalidCircuitError, match="^output value 4194304 does not fit the 22-bit output region$"):
            invert_blind(m, y, seed=0, max_garbage_bits=21)
        assert passes == []

    def test_only_sim_raises_it(self):
        src = Path(revcirc.__file__).resolve().parent
        raised = {path.name: path.read_text().count("ExhaustiveBoundError(") for path in src.glob("*.py")}
        assert {name: count for name, count in raised.items() if count} == {"sim.py": 2}  # the class and its one raise


def test_import_does_not_load_numpy():
    # a heavier import would cost start-up time and memory on every command
    src = str(Path(revcirc.__file__).resolve().parent.parent)
    code = "import sys, revcirc, revcirc.cli; print('numpy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))},
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    assert out.stdout.strip() == "False"
