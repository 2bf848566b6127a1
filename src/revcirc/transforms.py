"""Machine transformations that trade circuit size for garbage control.

Two constructions, both classical and exact:

* `bennett` — compute, reversibly copy the output to fresh zeroed lines,
  uncompute. The result leaves only a copy of the input behind, so the
  garbage-line count equals the input-line count no matter how messy the
  original machine was.

* `zero_garbage_compose` — given machines for a bijection and its inverse,
  build a machine computing the bijection with no garbage at all: every
  non-output line returns to its preset constant. Up to 20 input bits it
  checks that every input restores those lines, which holds exactly when
  the two machines are mutually inverse.

Both rely on the same copy gadget: a bank of controlled-NOTs writes a copy
onto zeroed lines, and (being self-inverse) erases one of two equal copies.

`bennett` keeps the machine's own line numbers and adds lines above them,
so it builds the wider circuit directly on the original's Gate objects,
valid by construction. `zero_garbage_compose` places each machine on its
lines with `remap`, which only widens, sharing the Gate objects, where the
machine's input lines come first and its presets next, as in every library
machine; only the inverse machine aimed at the copy lines, and the copy
gadgets, get new gates. `copy_fanout` reads its lines, sources first, and
then its width by `ir`'s integer rule, and builds through the trusted
constructors when they are in range; otherwise `Gate` and `Circuit` name
the first bad gate, or the width.
"""
from __future__ import annotations

from functools import reduce
from itertools import repeat
from typing import Sequence

from .ir import (
    Circuit,
    Gate,
    GateKind,
    InterfaceSpec,
    InvalidCircuitError,
    Machine,
    concat,
    inverse,
    remap,
)
from .ir import _index, _indices, _trusted_circuit, _trusted_gate
from .sim import EXHAUSTIVE_BOUND
from .sim import _lane, _lane_value, _run, _violation


class NotInversePairError(InvalidCircuitError):
    """The two machines' truth tables are not mutually inverse bijections."""


def copy_fanout(src: Sequence[int], dst: Sequence[int], width: int | None = None) -> Circuit:
    """Bank of controlled-NOTs: control src[i], target dst[i].

    On zeroed destination lines this writes a copy of the source; applied
    again on equal values it erases the destination back to zero.
    """
    src = tuple(src)
    dst = tuple(dst)
    if len(src) != len(dst):
        raise InvalidCircuitError(f"source has {len(src)} lines, destination {len(dst)}")
    if set(src) & set(dst):
        raise InvalidCircuitError(f"source and destination overlap on {sorted(set(src) & set(dst))}")
    src, dst = _indices(src), _indices(dst)
    lines = src + dst
    width = max(lines, default=0) + 1 if width is None else _index(width, "circuit width")
    if not 0 <= min(lines, default=0) <= max(lines, default=0) < width:
        # Let the validating constructors name the first bad gate, or the width.
        return Circuit(width, tuple(Gate(GateKind.CX, (s,), d) for s, d in zip(src, dst)))
    # Disjoint source and destination lines, all in range, make every gate valid.
    return _trusted_circuit(width, tuple(map(_trusted_gate, repeat(GateKind.CX), zip(src), dst)))


def bennett(machine: Machine) -> Machine:
    """Compute-copy-uncompute. Garbage-line count becomes the input-line count.

    The new machine appends one fresh zeroed line per output bit, runs the
    original circuit, copies the output region onto the fresh lines, then
    runs the original circuit backward. At the end the fresh lines hold the
    output, every original preset is back at its constant, and the original
    input lines still hold the input, which is all the garbage there is.
    """
    iface = machine.iface
    k = iface.output_width
    old_width = iface.width
    new_width = old_width + k
    fresh = tuple(range(old_width, new_width))

    widened = _trusted_circuit(new_width, machine.circuit.gates)  # its gates lie below old_width <= new_width
    copy = copy_fanout(iface.output_lines, fresh, width=new_width)
    circuit = concat(concat(widened, copy), inverse(widened))

    new_iface = InterfaceSpec(
        width=new_width,
        input_lines=iface.input_lines,
        preset_lines=iface.preset_lines + tuple((f, 0) for f in fresh),
        output_lines=fresh,
        garbage_lines=iface.input_lines,
        restored_lines=iface.preset_lines,
    )
    return Machine(circuit, new_iface)


def zero_garbage_compose(
    mf: Machine, mfinv: Machine, max_input_bits: int = EXHAUSTIVE_BOUND
) -> Machine:
    """Build a garbage-free machine for the bijection computed by `mf`.

    `mfinv` must compute the inverse bijection, with its output landing on
    its own input lines (in the same order); that is what lets the final
    backward run consume the surviving input copy in place.

    Line layout of the result (width 2n + s):

    * lines 0..n-1          input, and the output at the end
    * lines n..n+s-1        shared scratch, sized for the larger machine
    * lines n+s..2n+s-1     fresh copy lines, zeroed and restored

    Stages: run `mf` forward, copy its output onto the fresh lines, run `mf`
    backward; flip any scratch constants the second machine disagrees on;
    run `mfinv` forward reading the fresh lines, erase the recovered input
    copy on the fresh lines against the original, run `mfinv` backward
    re-aimed at the original input lines (turning the input into the
    output); flip the scratch constants back. On input x the copy lines end
    at g(f(x)) XOR x; when that is 0 the backward `mfinv` undoes a true run
    and restores the scratch lines too. So, within `max_input_bits`, `mf`,
    `mfinv` and then the result are checked to restore their restored lines
    on every input, which for the result holds exactly when the two machines
    are mutually inverse; a machine that declares none is not run. Above it
    the pair is trusted.
    """
    f_if, g_if = mf.iface, mfinv.iface
    n = f_if.input_width
    if g_if.output_width != n or f_if.output_width != g_if.input_width:
        raise InvalidCircuitError(
            "machines are not width-compatible: "
            f"{n}->{f_if.output_width} vs {g_if.input_width}->{g_if.output_width}"
        )
    if g_if.output_lines != g_if.input_lines:
        raise InvalidCircuitError(
            "inverse machine must produce its output on its own input lines, in order"
        )

    f_scratch = tuple(c for _, c in f_if.preset_lines)
    g_scratch = tuple(c for _, c in g_if.preset_lines)
    s = max(len(f_scratch), len(g_scratch))
    f_consts = f_scratch + (0,) * (s - len(f_scratch))
    g_consts = g_scratch + (0,) * (s - len(g_scratch))

    width = 2 * n + s
    r1 = tuple(range(n))
    r2 = tuple(range(n, n + s))
    r3 = tuple(range(n + s, 2 * n + s))

    def embedding(m: Machine, input_region: tuple[int, ...]) -> dict[int, int]:
        line_map = dict(zip(m.iface.input_lines, input_region))
        line_map.update(zip((l for l, _ in m.iface.preset_lines), r2))
        return line_map

    f_map = embedding(mf, r1)
    f_fwd = remap(mf.circuit, f_map, width)
    f_output = tuple(f_map[line] for line in f_if.output_lines)
    g_on_copy = remap(mfinv.circuit, embedding(mfinv, r3), width)
    g_on_input = remap(mfinv.circuit, embedding(mfinv, r1), width)
    const_fix = Circuit(
        width,
        tuple(Gate(GateKind.X, (), r2[j]) for j in range(s) if f_consts[j] != g_consts[j]),
    )

    stages = [
        f_fwd,
        copy_fanout(f_output, r3, width),
        inverse(f_fwd),
        const_fix,
        g_on_copy,
        copy_fanout(r1, r3, width),
        inverse(g_on_input),
        const_fix,
    ]
    circuit = reduce(concat, stages)

    constant_lines = tuple(zip(r2, f_consts)) + tuple((l, 0) for l in r3)  # scratch and copy lines
    iface = InterfaceSpec(
        width=width,
        input_lines=r1,
        preset_lines=constant_lines,
        output_lines=r1,
        garbage_lines=(),
        restored_lines=constant_lines,
    )
    composed = Machine(circuit, iface)
    if n <= max_input_bits:
        for m in (mf, mfinv):
            # with no restored lines the pass cannot fail
            if m.iface.restored_lines and (violation := _violation(m, max_input_bits)) is not None:
                raise violation
        if (violation := _violation(composed, max_input_bits)) is not None:
            x = violation.input_value
            y = _lane_value(_run(mf, _lane(x, n), 1), f_if.output_lines)
            back = _lane_value(_run(mfinv, _lane(y, n), 1), g_if.output_lines)
            raise NotInversePairError(f"second machine maps {y} to {back}, expected {x}")
    return composed
