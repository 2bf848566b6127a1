"""The compute-copy-uncompute transform and the garbage-free composition."""
from __future__ import annotations

import dataclasses
import random
import re

import pytest
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from revcirc import (
    EXHAUSTIVE_BOUND,
    BitState,
    Circuit,
    Gate,
    GateKind,
    InterfaceSpec,
    InvalidCircuitError,
    Machine,
    NotInversePairError,
    RestorationViolationError,
    bennett,
    copy_fanout,
    decrementer,
    garbage_profile,
    incrementer,
    initial_state,
    inverse,
    make_gate,
    remap,
    ripple_adder,
    run,
    serialize,
    sim,
    truth_table,
    zero_garbage_compose,
)

from conftest import read_index, reference_check_inverse_pair


class TestCopyFanout:
    def test_writes_copy_onto_zeros(self):
        c = copy_fanout([0, 1, 2], [3, 4, 5])
        s = BitState.zeros(6).with_value([0, 1, 2], 0b101)
        out = run(c, s)
        assert out.value_of([3, 4, 5]) == 0b101
        assert out.value_of([0, 1, 2]) == 0b101

    def test_erases_equal_values(self):
        c = copy_fanout([0, 1, 2], [3, 4, 5])
        s = BitState.zeros(6).with_value([0, 1, 2], 0b101).with_value([3, 4, 5], 0b101)
        assert run(c, s).value_of([3, 4, 5]) == 0

    def test_self_inverse(self):
        c = copy_fanout([0], [1])
        s = BitState(2, (1, 1))
        assert run(c, run(c, s)) == s

    def test_length_mismatch_rejected(self):
        with pytest.raises(InvalidCircuitError, match="lines"):
            copy_fanout([0, 1], [2])

    def test_overlap_rejected(self):
        with pytest.raises(InvalidCircuitError, match="overlap"):
            copy_fanout([0], [0])

    @pytest.mark.parametrize(
        "src,dst,width,refused",
        [
            ((0,), (1.5,), None, "line index must be an integer, got 1.5"),
            ((0.0,), (2.0,), 3, "line index must be an integer, got 0.0"),
            ((0, 1), (2, "3"), 4, "line index must be an integer, got '3'"),
            ((0,), (1,), 2.0, "circuit width must be an integer, got 2.0"),
            ((0,), (1,), "2", "circuit width must be an integer, got '2'"),
            (("0",), (1,), None, "line index must be an integer, got '0'"),
            ((0,), ("1",), None, "line index must be an integer, got '1'"),
        ],
    )
    def test_an_index_that_is_not_an_integer_is_refused(self, src, dst, width, refused):
        for build in (copy_fanout, reference_copy_fanout):
            with pytest.raises(InvalidCircuitError, match=f"^{re.escape(refused)}$"):
                build(src, dst, width)

    def test_bools_and_int_subclasses_become_plain_ints(self):
        class Line(int):
            pass

        for src, dst, width in (((True,), (2,), 3), ((Line(0),), (Line(1),), None), ((0,), (1,), Line(2))):
            got = copy_fanout(src, dst, width)
            assert got == reference_copy_fanout(src, dst, width)
            assert {*map(type, (got.width, *got.gates[0].lines))} == {int}
        assert copy_fanout((True,), (2,), 3).gates == (Gate(GateKind.CX, (1,), 2),)

    def test_refuses_in_the_order_of_the_reference(self):
        # length, then overlap, then every line read, sources first, then the width read,
        # then each gate in gate order, then the width's sign and each gate's range
        cases = (
            ((0.5,), (1, 2), 3),
            ((1.0,), (1,), 3),
            ((0, 1.5), (2.5, 3), 4),
            ((0,), (1.5,), 2.5),
            ((-1, 1.5), (2, 3), 4),
            ((-1,), (1,), 2.5),
            ((-1,), (1,), 0),
            ((0, 5), (1, 2), 0),
        )
        assert [built_or_refused(copy_fanout, *args) for args in cases] == [
            (InvalidCircuitError, "source has 1 lines, destination 2"),
            (InvalidCircuitError, "source and destination overlap on [1]"),
            (InvalidCircuitError, "line index must be an integer, got 1.5"),
            (InvalidCircuitError, "line index must be an integer, got 1.5"),
            (InvalidCircuitError, "line index must be an integer, got 1.5"),
            (InvalidCircuitError, "circuit width must be an integer, got 2.5"),
            (InvalidCircuitError, "negative line index in gate: (-1, 1)"),
            (InvalidCircuitError, "circuit width must be positive"),
        ]
        for args in cases:
            assert built_or_refused(copy_fanout, *args) == built_or_refused(reference_copy_fanout, *args)


class TestBennett:
    @pytest.mark.parametrize("n", range(2, 7))
    def test_full_final_state_contract(self, n):
        m = incrementer(n)
        bm = bennett(m)
        size = 1 << n
        for x in range(size):
            final = run(bm.circuit, initial_state(bm, x))
            # fresh lines hold the output
            assert final.value_of(bm.iface.output_lines) == (x + 1) % size
            # old input lines still hold the input; they are the garbage now
            assert final.value_of(bm.iface.garbage_lines) == x
            # every original preset is back at its constant
            for line, const in bm.iface.restored_lines:
                assert final.bits[line] == const

    def test_garbage_count_equals_input_count(self, roster):
        for name, m in roster:
            bm = bennett(m)
            assert bm.iface.garbage_width == m.iface.input_width, name

    def test_preserves_output_function(self):
        m = ripple_adder(2)
        bm = bennett(m)
        t, bt = truth_table(m), truth_table(bm)
        assert all(bt.output_of(x) == t.output_of(x) for x in range(16))

    def test_garbage_configs_are_exactly_the_inputs(self):
        for n in range(2, 7):
            p = garbage_profile(bennett(incrementer(n)))
            assert p.configs == tuple(range(1 << n))

    def test_applies_to_already_clean_machines(self):
        # structural, not minimal: a garbage-free machine still gains input-as-garbage
        zg_like = bennett(incrementer(2))
        again = bennett(zg_like)
        assert again.iface.garbage_width == zg_like.iface.input_width

    def test_gate_count_bound(self):
        m = incrementer(4)
        bm = bennett(m)
        assert len(bm.circuit) == 2 * len(m.circuit) + m.iface.output_width

    def test_widens_as_the_identity_remap_did(self, roster):
        # The circuit built through an identity `remap`, as bennett once did: equal, and with the same bytes.
        for name, m in roster:
            old, k = m.iface.width, m.iface.output_width
            widened = remap(m.circuit, {i: i for i in range(old)}, old + k)
            copy = copy_fanout(m.iface.output_lines, range(old, old + k), old + k)
            circuit = Circuit(old + k, widened.gates + copy.gates + inverse(widened).gates)
            bm = bennett(m)
            assert bm.circuit == circuit, name
            assert serialize(bm) == serialize(Machine(circuit, bm.iface)), name


class TestZeroGarbageCompose:
    @pytest.mark.parametrize("n", [*range(2, 7), 3000])
    def test_computes_f_with_everything_else_restored(self, n):
        zm = zero_garbage_compose_pair(n)
        size = 1 << n
        non_output = set(range(zm.width)) - set(zm.iface.output_lines)
        consts = zm.iface.preset_constants
        # every input, or at the benchmark's 3000 bits both ends and one drawn input
        for x in range(size) if n < 7 else (0, size - 1, random.Random(1).getrandbits(n)):
            start = initial_state(zm, x)
            final = run(zm.circuit, start)
            assert final.value_of(zm.iface.output_lines) == (x + 1) % size
            for line in non_output:
                assert final.bits[line] == consts[line], (x, line)
            assert run(zm.circuit, final, "backward") == start

    def test_garbage_region_is_empty(self):
        zm = zero_garbage_compose_pair(3)
        assert zm.iface.garbage_lines == ()
        assert garbage_profile(zm).config_count == 1

    def test_not_inverse_pair_rejected(self):
        with pytest.raises(NotInversePairError):
            zero_garbage_compose(incrementer(3), incrementer(3))

    def test_width_incompatible_rejected(self):
        with pytest.raises(InvalidCircuitError, match="width-compatible"):
            zero_garbage_compose(incrementer(3), decrementer(4))

    def test_inverse_writing_its_output_elsewhere_rejected(self):
        # decrementer(3) with its output read from its input lines in reverse order
        dec = decrementer(3)
        swapped = Machine(dec.circuit, dataclasses.replace(dec.iface, output_lines=dec.iface.output_lines[::-1]))
        with pytest.raises(
            InvalidCircuitError, match=r"^inverse machine must produce its output on its own input lines, in order$"
        ):
            zero_garbage_compose(incrementer(3), swapped)

    def test_gate_count_bound(self):
        mf, mg = incrementer(4), decrementer(4)
        zm = zero_garbage_compose(mf, mg)
        n = mf.iface.input_width
        assert len(zm.circuit) <= 2 * len(mf.circuit) + 2 * len(mg.circuit) + 2 * n

    def test_reconciles_differing_preset_constants(self):
        n = 3
        zm = zero_garbage_compose(incrementer(n), odd_decrementer(n))
        t = truth_table(zm)
        assert all(t.output_of(x) == (x + 1) % 8 for x in range(8))
        assert garbage_profile(zm).config_count == 1

    def test_pads_unequal_scratch_widths(self):
        n = 3
        zm = zero_garbage_compose(incrementer(n), padded_decrementer(n))
        assert zm.width == 2 * n + 2  # scratch sized for the larger machine
        t = truth_table(zm)
        assert all(t.output_of(x) == (x + 1) % 8 for x in range(8))
        assert garbage_profile(zm).config_count == 1


def zero_garbage_compose_pair(n: int):
    return zero_garbage_compose(incrementer(n), decrementer(n))


def odd_decrementer(n: int) -> Machine:
    """A decrementer (n >= 3) whose first carry line starts at 1 and is cleared first."""
    base = decrementer(n)
    line = base.iface.garbage_lines[0]
    circuit = Circuit(base.width, (make_gate("x", [], line),) + base.circuit.gates)
    iface = InterfaceSpec(
        width=base.width,
        input_lines=base.iface.input_lines,
        preset_lines=((line, 1),) + base.iface.preset_lines[1:],
        output_lines=base.iface.output_lines,
        garbage_lines=base.iface.garbage_lines,
    )
    return Machine(circuit, iface)


def padded_decrementer(n: int) -> Machine:
    """A decrementer with an idle extra preset line, declared restored."""
    base = decrementer(n)
    w = base.width + 1
    iface = InterfaceSpec(
        width=w,
        input_lines=base.iface.input_lines,
        preset_lines=base.iface.preset_lines + ((w - 1, 0),),
        output_lines=base.iface.output_lines,
        garbage_lines=base.iface.garbage_lines,
        restored_lines=((w - 1, 0),),
    )
    return Machine(Circuit(w, base.circuit.gates), iface)


def with_extra_gate(m: Machine, at: int, gate: Gate) -> Machine:
    """`m` with `gate` inserted before its `at`-th gate."""
    gates = m.circuit.gates
    return Machine(Circuit(m.width, gates[:at] + (gate,) + gates[at:]), m.iface)


def lying_about(m: Machine, line: int) -> Machine:
    """`m` with garbage `line` falsely declared restored to its preset constant."""
    iface = m.iface
    return Machine(
        m.circuit,
        InterfaceSpec(
            width=iface.width,
            input_lines=iface.input_lines,
            preset_lines=iface.preset_lines,
            output_lines=iface.output_lines,
            garbage_lines=tuple(l for l in iface.garbage_lines if l != line),
            restored_lines=iface.restored_lines + ((line, iface.preset_constants[line]),),
        ),
    )


def composed_or_refused(mf: Machine, mg: Machine, reference: bool = False):
    """The bytes `zero_garbage_compose` writes for the pair, or the class and message of what it raises.

    With `reference`, the pair is checked by `reference_check_inverse_pair`
    and the machine built trusted, as the check came before the build.
    """
    try:
        if reference:
            trusted = zero_garbage_compose(mf, mg, max_input_bits=-1)
            reference_check_inverse_pair(mf, mg, EXHAUSTIVE_BOUND)
            return serialize(trusted)
        return serialize(zero_garbage_compose(mf, mg))
    except InvalidCircuitError as exc:  # the error itself is the outcome compared
        return type(exc), str(exc)


_PAIRS = {
    "incr/decr": lambda n: (incrementer(n), decrementer(n)),
    "decr/incr": lambda n: (decrementer(n), incrementer(n)),
    "incr/odd decr": lambda n: (incrementer(n), odd_decrementer(n)),
    "incr/padded decr": lambda n: (incrementer(n), padded_decrementer(n)),
    "incr/incr": lambda n: (incrementer(n), incrementer(n)),
    "decr/decr": lambda n: (decrementer(n), decrementer(n)),
}


@st.composite
def compose_pairs(draw):
    """True and false pairs: a library pair, g perhaps given one more gate on a data line, f or g perhaps lying."""
    n = draw(st.integers(3, 7))
    mf, mg = _PAIRS[draw(st.sampled_from(sorted(_PAIRS)))](n)
    if draw(st.booleans()):
        data = draw(st.permutations(mg.iface.input_lines))
        gate = draw(st.sampled_from([make_gate("x", [], data[0]), make_gate("cx", [data[1]], data[0])]))
        mg = with_extra_gate(mg, draw(st.integers(0, len(mg.circuit))), gate)
    liars = draw(st.sampled_from(["", "", "", "f", "g", "fg"]))
    if "f" in liars:
        mf = lying_about(mf, draw(st.sampled_from(mf.iface.garbage_lines)))
    if "g" in liars:
        mg = lying_about(mg, draw(st.sampled_from(mg.iface.garbage_lines)))
    return mf, mg


class TestComposedCheckMatchesReference:
    """Checking the composed machine's restored lines gives the two-table check's bytes, or its error."""

    @settings(max_examples=150, deadline=None)
    @given(compose_pairs(), st.sampled_from([sim._CHUNK_BITS, 0, 1, 2]))
    def test_pairs(self, pair, chunk_bits):
        with mock.patch.object(sim, "_CHUNK_BITS", chunk_bits):
            assert composed_or_refused(*pair) == composed_or_refused(*pair, reference=True)

    @pytest.mark.parametrize("pair,n", [(p, n) for p in sorted(_PAIRS) for n in range(2, 9) if n > 2 or "odd" not in p])
    @pytest.mark.parametrize("chunk_bits", [sim._CHUNK_BITS, 0, 1, 2])
    def test_library_pairs(self, pair, n, chunk_bits):
        mf, mg = _PAIRS[pair](n)
        with mock.patch.object(sim, "_CHUNK_BITS", chunk_bits):
            got = composed_or_refused(mf, mg)
        assert got == composed_or_refused(mf, mg, reference=True)
        assert (type(got) is str) == (pair not in ("incr/incr", "decr/decr"))

    @pytest.mark.parametrize("chunk_bits", [sim._CHUNK_BITS, 0, 1, 2])
    def test_error_order(self, chunk_bits):
        # f's carry 5 first fails at x = 7, g's carry 4 at y = 3, and g(f(x)) = x + 2
        # everywhere: f's lie is reported, then g's, then the mismatch at x = 0.
        f, g = lying_about(incrementer(4), 5), lying_about(incrementer(4), 4)
        outcomes = [
            (RestorationViolationError, "line 5 declared restored to 0 but holds 1 for input 7"),
            (RestorationViolationError, "line 4 declared restored to 0 but holds 1 for input 3"),
            (NotInversePairError, "second machine maps 1 to 2, expected 0"),
        ]
        pairs = [(f, g), (incrementer(4), g), (incrementer(4), incrementer(4))]
        with mock.patch.object(sim, "_CHUNK_BITS", chunk_bits):
            assert [composed_or_refused(*pair) for pair in pairs] == outcomes
        assert [composed_or_refused(*pair, reference=True) for pair in pairs] == outcomes


def reference_copy_fanout(src, dst, width=None) -> Circuit:
    """`copy_fanout` as written before it built through the trusted constructors, reading each index one at a time."""
    src = tuple(src)
    dst = tuple(dst)
    if len(src) != len(dst):
        raise InvalidCircuitError(f"source has {len(src)} lines, destination {len(dst)}")
    if set(src) & set(dst):
        raise InvalidCircuitError(f"source and destination overlap on {sorted(set(src) & set(dst))}")
    src = tuple(map(read_index, src))
    dst = tuple(map(read_index, dst))
    width = max(src + dst, default=0) + 1 if width is None else read_index(width, "circuit width")
    gates = tuple(Gate(GateKind.CX, (s,), d) for s, d in zip(src, dst))
    return Circuit(width, gates)


def built_or_refused(build, *args):
    try:
        return build(*args)
    except InvalidCircuitError as exc:
        return type(exc), str(exc)


_FANOUT_LINES = st.lists(st.integers(-2, 9), max_size=5)


class TestCopyFanoutMatchesReference:
    """Same circuit, or the same error class and message, as the validating form."""

    @given(_FANOUT_LINES, _FANOUT_LINES, st.one_of(st.none(), st.integers(-1, 10)))
    @example([0, 1], [2], None)  # length mismatch
    @example([0, 1], [1, 2], 3)  # overlap
    @example([0, -1], [2, 3], 4)  # negative line
    @example([0, 1], [2, -1], None)  # negative line, width from the lines
    @example([0, 1], [2, 4], 4)  # a line at the width
    @example([5, 1], [2, 3], 4)  # a line past the width, first gate
    @example([0, 1], [2, 3], 0)  # width not positive
    @example([-1], [2], 0)  # negative line and width not positive: the line is named
    @example([], [], None)
    @example([], [], 0)
    @example([0, 0], [1, 2], None)  # one source fanned out twice
    @example([0, 1], [2, 2], 3)  # one destination written twice
    def test_matches(self, src, dst, width):
        got = built_or_refused(copy_fanout, src, dst, width)
        assert got == built_or_refused(reference_copy_fanout, src, dst, width)
        if isinstance(got, Circuit):
            assert type(got.gates) is tuple
            assert all(type(g.controls) is tuple for g in got.gates)

    @pytest.mark.parametrize("k", [1, 3000])
    def test_large_banks(self, k):
        src, dst = range(k), range(k, 2 * k)
        for width in (None, 2 * k, 2 * k + 5, 2 * k - 1):
            got = built_or_refused(copy_fanout, src, dst, width)
            assert got == built_or_refused(reference_copy_fanout, src, dst, width)
