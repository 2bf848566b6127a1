"""Shared strategies and machine rosters for the test suite."""
from __future__ import annotations

import pytest
from hypothesis import strategies as st

from revcirc import (
    Circuit,
    Gate,
    GateKind,
    InterfaceSpec,
    Machine,
    bennett,
    decrementer,
    incrementer,
    parse_circuit,
    ripple_adder,
    zero_garbage_compose,
)

_KIND_BY_CONTROLS = {0: GateKind.X, 1: GateKind.CX, 2: GateKind.CCX}


@st.composite
def circuits(draw, min_width: int = 1, max_width: int = 6, max_gates: int = 12):
    width = draw(st.integers(min_width, max_width))
    n_gates = draw(st.integers(0, max_gates))
    gates = []
    for _ in range(n_gates):
        n_controls = draw(st.integers(0, min(2, width - 1)))
        lines = draw(st.permutations(range(width)))[: n_controls + 1]
        gates.append(Gate(_KIND_BY_CONTROLS[n_controls], tuple(lines[:-1]), lines[-1]))
    return Circuit(width, tuple(gates))


@st.composite
def machines(draw, max_width: int = 6, max_gates: int = 10):
    """Structurally valid machines with arbitrary role assignments.

    The interface partitions are always legal; dynamic properties such as
    restored lines actually holding their constants are not guaranteed.
    """
    circuit = draw(circuits(max_width=max_width, max_gates=max_gates))
    w = circuit.width
    initial_order = draw(st.permutations(range(w)))
    n_inputs = draw(st.integers(0, w))
    inputs = tuple(initial_order[:n_inputs])
    presets = tuple((l, draw(st.integers(0, 1))) for l in initial_order[n_inputs:])
    preset_map = dict(presets)

    final_order = draw(st.permutations(range(w)))
    restorable = [l for l in final_order if l in preset_map]
    n_restored = draw(st.integers(0, len(restorable)))
    restored = tuple((l, preset_map[l]) for l in restorable[:n_restored])
    rest = [l for l in final_order if l not in {l for l, _ in restored}]
    n_outputs = draw(st.integers(0, len(rest)))
    iface = InterfaceSpec(
        width=w,
        input_lines=inputs,
        preset_lines=presets,
        output_lines=tuple(rest[:n_outputs]),
        garbage_lines=tuple(rest[n_outputs:]),
        restored_lines=restored,
    )
    return Machine(circuit, iface)


def late_liar(tie: bool = False) -> Machine:
    """Inputs on lines 0-2; lines 4 and 3, in that order, declared restored to 0.

    Line 3 first fails at input 5 and line 4 at input 6, or at 5 too on a tie,
    so the first violation lies past the first chunk at chunk bits 0, 1 and 2.
    """
    second = "0 2" if tie else "1 2"
    return parse_circuit(
        "width 5\ninput 0 1 2\npreset 3=0 4=0\noutput 0 1\ngarbage 2\nrestored 4=0 3=0\n"
        f"gate ccx 0 2 3\ngate ccx {second} 4\n"
    )


def small_machine_roster() -> list[tuple[str, Machine]]:
    """Every stdlib and transform-generated machine of width <= 8."""
    roster: list[tuple[str, Machine]] = []
    for n in range(2, 6):
        roster.append((f"incrementer({n})", incrementer(n)))
        roster.append((f"decrementer({n})", decrementer(n)))
    for n in range(1, 4):
        roster.append((f"ripple_adder({n})", ripple_adder(n)))
    for n in (2, 3):
        roster.append((f"bennett(incrementer({n}))", bennett(incrementer(n))))
    roster.append(("bennett(decrementer(3))", bennett(decrementer(3))))
    roster.append(("bennett(ripple_adder(1))", bennett(ripple_adder(1))))
    for n in (2, 3):
        roster.append(
            (f"zg(incrementer({n}))", zero_garbage_compose(incrementer(n), decrementer(n)))
        )
    assert all(m.width <= 8 for _, m in roster)
    return roster


@pytest.fixture(scope="session")
def roster() -> list[tuple[str, Machine]]:
    return small_machine_roster()
