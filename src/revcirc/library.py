"""Ready-made machines: increment, decrement, and ripple-carry add, all mod 2^n.

Shared layout conventions: line 0 is the least significant bit of the first
register, carry/scratch lines come after all data registers, and carries are
preset to 0 and left behind as garbage.

Every gate here is valid by construction: its arity matches its kind and its
lines are distinct and below the machine's width. So the circuits are built
through `_trusted_gate`/`_trusted_circuit`, without a second check; the
tests hold each machine equal to its rebuild through `Gate`/`Circuit`.
"""
from __future__ import annotations

from .ir import Gate, GateKind, InterfaceSpec, InvalidCircuitError, Machine, concat
from .ir import _trusted_circuit, _trusted_gate

_X, _CX, _CCX = GateKind.X, GateKind.CX, GateKind.CCX


def incrementer(n: int) -> Machine:
    """Machine sending x to (x + 1) mod 2^n on an n-bit register.

    Width 2n-2: data lines a0..a(n-1) (a0 least significant, doubling as both
    input and output), carry lines c1..c(n-2) preset to 0 and ending as
    garbage. A Toffoli chain accumulates the carries c_i = a0 AND ... AND a_i
    while the data bits still hold x; the increment itself is then a cascade
    of flips applied top-down, each controlled by the carry below it. a0
    needs no carry of its own: it both controls a1's flip and flips last.
    """
    if n < 2:
        raise InvalidCircuitError(f"incrementer needs at least 2 bits, got {n}")
    width = 2 * n - 2
    a = list(range(n))
    c = list(range(n, width))  # c[i] is the carry out of bit i+1

    gates: list[Gate] = []
    if c:
        gates.append(_trusted_gate(_CCX, (a[0], a[1]), c[0]))
        for i in range(2, n - 1):
            gates.append(_trusted_gate(_CCX, (c[i - 2], a[i]), c[i - 1]))
    for i in range(n - 1, 1, -1):
        gates.append(_trusted_gate(_CX, (c[i - 2],), a[i]))
    gates.append(_trusted_gate(_CX, (a[0],), a[1]))
    gates.append(_trusted_gate(_X, (), a[0]))

    iface = InterfaceSpec(
        width=width,
        input_lines=tuple(a),
        preset_lines=tuple((line, 0) for line in c),
        output_lines=tuple(a),
        garbage_lines=tuple(c),
    )
    return Machine(_trusted_circuit(width, tuple(gates)), iface)


def decrementer(n: int) -> Machine:
    """Machine sending x to (x - 1) mod 2^n; the incrementer conjugated by NOTs.

    Uses x - 1 = ~(~x + 1): complement the data register, increment, and
    complement again. Same line layout as the incrementer; the garbage
    carries now track borrows.
    """
    if n < 2:
        raise InvalidCircuitError(f"decrementer needs at least 2 bits, got {n}")
    inc = incrementer(n)
    wrap = _trusted_circuit(inc.width, tuple(_trusted_gate(_X, (), line) for line in inc.iface.input_lines))
    return Machine(concat(concat(wrap, inc.circuit), wrap), inc.iface)


def ripple_adder(n: int) -> Machine:
    """Machine mapping (a, b) to ((a + b) mod 2^n, b), ripple-carry style.

    Width 3n-1: the a register (lines 0..n-1) accumulates the sum, the b
    register (lines n..2n-1) passes through unchanged, and carry lines
    c1..c(n-1) are preset to 0 and end as garbage. Each position first
    computes its carry-out as the majority of (a_i, b_i, c_i) with Toffolis
    reading the original a_i, then folds b_i and c_i into a_i; position 0
    has no carry-in and the top position needs no carry-out.
    """
    if n < 1:
        raise InvalidCircuitError(f"ripple_adder needs at least 1 bit, got {n}")
    width = 3 * n - 1
    a = list(range(n))
    b = list(range(n, 2 * n))
    c = list(range(2 * n, width))  # c[i] is the carry into position i+1

    gates: list[Gate] = []
    for i in range(n):
        carry_in = c[i - 1] if i > 0 else None
        if i < n - 1:
            gates.append(_trusted_gate(_CCX, (a[i], b[i]), c[i]))
            if carry_in is not None:
                gates.append(_trusted_gate(_CCX, (a[i], carry_in), c[i]))
                gates.append(_trusted_gate(_CCX, (b[i], carry_in), c[i]))
        gates.append(_trusted_gate(_CX, (b[i],), a[i]))
        if carry_in is not None:
            gates.append(_trusted_gate(_CX, (carry_in,), a[i]))

    iface = InterfaceSpec(
        width=width,
        input_lines=tuple(a + b),
        preset_lines=tuple((line, 0) for line in c),
        output_lines=tuple(a + b),
        garbage_lines=tuple(c),
    )
    return Machine(_trusted_circuit(width, tuple(gates)), iface)
