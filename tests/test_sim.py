"""Gate semantics, execution, and truth-table extraction."""
from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from revcirc import (
    BitState,
    Circuit,
    ExhaustiveBoundError,
    FunctionTable,
    InterfaceSpec,
    InvalidCircuitError,
    Machine,
    RestorationViolationError,
    incrementer,
    initial_state,
    is_injective,
    make_gate,
    ripple_adder,
    run,
    step,
    truth_table,
)
from conftest import circuits

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

    def test_str_is_line_order(self):
        assert str(state(1, 0, 1, 1)) == "1011"


class TestTruthTable:
    def test_incrementer_rows(self):
        t = truth_table(incrementer(3))
        assert t.rows[7] == (0, 1)  # wraps, full carry chain
        assert t.rows[0] == (1, 0)  # no carry out of bit 0
        assert len(t.rows) == 8

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
        with pytest.raises(ValueError, match="rows"):
            FunctionTable(2, 1, {0: (0, 0)})


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
