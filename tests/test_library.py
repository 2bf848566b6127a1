"""Library machines against independent integer-arithmetic oracles."""
from __future__ import annotations

import pytest

from revcirc import (
    Circuit,
    Gate,
    GateKind,
    InterfaceSpec,
    InvalidCircuitError,
    Machine,
    decrementer,
    garbage_profile,
    incrementer,
    initial_state,
    ripple_adder,
    run,
    truth_table,
)


def carry_chain(x: int, n: int) -> int:
    """Oracle: garbage value of the incrementer; bit i-1 set iff x's bits 0..i are all 1."""
    value = 0
    for i in range(1, n - 1):
        mask = (1 << (i + 1)) - 1
        if x & mask == mask:
            value |= 1 << (i - 1)
    return value


def adder_carries(a: int, b: int, n: int) -> int:
    """Oracle: carry into position i of a+b, for i = 1..n-1, as a packed value."""
    value = 0
    for i in range(1, n):
        mask = (1 << i) - 1
        if ((a & mask) + (b & mask)) >> i:
            value |= 1 << (i - 1)
    return value


class TestIncrementer:
    @pytest.mark.parametrize("n", range(2, 11))
    def test_function_and_garbage_match_oracle(self, n):
        t = truth_table(incrementer(n))
        for x in range(1 << n):
            assert t.output_of(x) == (x + 1) % (1 << n)
            assert t.garbage_of(x) == carry_chain(x, n)

    def test_paper_sized_example(self):
        m = incrementer(5)
        final = run(m.circuit, initial_state(m, 7))
        assert final.value_of(m.iface.output_lines) == 8
        # carries (c1, c2, c3) = (1, 1, 0)
        assert final.value_of(m.iface.garbage_lines) == 0b011

    def test_no_carry_from_even_input(self):
        t = truth_table(incrementer(3))
        assert (t.outputs[0], t.garbage[0]) == (1, 0)

    def test_width_and_layout(self):
        m = incrementer(5)
        assert m.width == 8
        assert m.iface.input_lines == (0, 1, 2, 3, 4)
        assert m.iface.garbage_lines == (5, 6, 7)
        assert all(c == 0 for _, c in m.iface.preset_lines)

    def test_gate_census_n3(self):
        kinds = [g.kind for g in incrementer(3).circuit.gates]
        assert kinds.count(GateKind.CCX) == 1
        assert kinds.count(GateKind.CX) == 2
        assert kinds.count(GateKind.X) == 1

    @pytest.mark.parametrize("n", range(2, 11))
    def test_config_count_grows_linearly(self, n):
        assert garbage_profile(incrementer(n)).config_count == n - 1

    def test_n5_config_set(self):
        # all-ones prefixes of the carry chain, written (c1, c2, c3) with c1 = bit 0
        assert garbage_profile(incrementer(5)).configs == (0b000, 0b001, 0b011, 0b111)

    def test_too_small_rejected(self):
        with pytest.raises(InvalidCircuitError, match="at least 2"):
            incrementer(1)


class TestDecrementer:
    def test_wraps_at_zero(self):
        t = truth_table(decrementer(3))
        assert t.output_of(0) == 7

    @pytest.mark.parametrize("n", range(2, 9))
    def test_table_is_inverse_permutation_of_incrementer(self, n):
        t_inc = truth_table(incrementer(n))
        t_dec = truth_table(decrementer(n))
        for x in range(1 << n):
            assert t_dec.output_of(t_inc.output_of(x)) == x
            assert t_inc.output_of(t_dec.output_of(x)) == x

    def test_garbage_is_borrow_chain(self):
        # conjugation oracle: borrows for x are the increment carries of ~x
        n = 3
        t = truth_table(decrementer(n))
        for x in range(1 << n):
            complement = (1 << n) - 1 - x
            expected = carry_chain(complement, n)
            assert t.garbage_of(x) == expected
        assert (t.outputs[1], t.garbage[1]) == (0, carry_chain(6, n))

    def test_too_small_rejected(self):
        with pytest.raises(InvalidCircuitError, match="at least 2"):
            decrementer(1)


class TestRippleAdder:
    @pytest.mark.parametrize("n", range(1, 5))
    def test_sum_and_passthrough_match_oracle(self, n):
        t = truth_table(ripple_adder(n))
        size = 1 << n
        for a in range(size):
            for b in range(size):
                x = a | (b << n)
                out = t.output_of(x)
                assert out & (size - 1) == (a + b) % size
                assert out >> n == b
                assert t.garbage_of(x) == adder_carries(a, b, n)

    def test_small_example(self):
        m = ripple_adder(2)
        final = run(m.circuit, initial_state(m, 1 | (1 << 2)))  # a=1, b=1
        assert final.value_of(m.iface.output_lines[:2]) == 2
        assert final.value_of(m.iface.output_lines[2:]) == 1
        assert final.value_of(m.iface.garbage_lines) == 1

    def test_adding_zero_leaves_no_garbage(self):
        n = 3
        t = truth_table(ripple_adder(n))
        for b in range(1 << n):
            x = 0 | (b << n)
            assert t.output_of(x) & ((1 << n) - 1) == b
            assert t.garbage_of(x) == 0

    @pytest.mark.parametrize("n", range(2, 6))
    def test_all_carry_strings_reachable(self, n):
        assert garbage_profile(ripple_adder(n)).config_count == 1 << (n - 1)

    def test_width(self):
        assert ripple_adder(3).width == 8

    def test_too_small_rejected(self):
        with pytest.raises(InvalidCircuitError, match="at least 1"):
            ripple_adder(0)


def rebuilt(m: Machine) -> Machine:
    """`m` rebuilt from its parts through the validating public constructors."""
    def pairs(lines):  # as lists, which InterfaceSpec turns back into int tuples
        return [[line, const] for line, const in lines]

    gates = tuple(Gate(g.kind, list(g.controls), g.target) for g in m.circuit.gates)
    iface = m.iface
    return Machine(
        Circuit(m.width, list(gates)),
        InterfaceSpec(
            iface.width,
            list(iface.input_lines),
            pairs(iface.preset_lines),
            list(iface.output_lines),
            list(iface.garbage_lines),
            pairs(iface.restored_lines),
        ),
    )


LIBRARY_SIZES = (
    [("incrementer", n) for n in [*range(2, 65), 3000]]
    + [("decrementer", n) for n in [*range(2, 65), 3000]]
    + [("ripple_adder", n) for n in [*range(1, 41), 2000]]
)
BUILDERS = {"incrementer": incrementer, "decrementer": decrementer, "ripple_adder": ripple_adder}


class TestTrustedBuilders:
    """Machines built without a second check equal their rebuild through `Gate`/`Circuit`."""

    @pytest.mark.parametrize("name,n", LIBRARY_SIZES, ids=[f"{b}({n})" for b, n in LIBRARY_SIZES])
    def test_equals_validated_rebuild(self, name, n):
        m = BUILDERS[name](n)
        assert m == rebuilt(m)
        assert type(m.circuit.gates) is tuple
        assert all(type(g.controls) is tuple and len(g.controls) == g.kind.n_controls for g in m.circuit.gates)
