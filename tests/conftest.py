"""Shared strategies and machine rosters for the test suite."""
from __future__ import annotations

import math
import operator
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from revcirc import (
    Circuit,
    Gate,
    GateKind,
    InsufficientPointsError,
    InterfaceSpec,
    InvalidCircuitError,
    Machine,
    NotInversePairError,
    analysis,
    bennett,
    decrementer,
    incrementer,
    make_gate,
    parse_circuit,
    ripple_adder,
    truth_table,
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


def assert_same_text(got: str, want: str, what: object = "text") -> None:
    """Fail at once unless `got == want`, naming both lengths and the first line that differs.

    For reports of 100 KB and more: pytest's diff of two such texts that differ on most lines can run
    for minutes, so a bare `assert got == want` would leave a broken writer looking hung.
    """
    if got == want:
        return
    got_lines, want_lines = got.splitlines(keepends=True), want.splitlines(keepends=True)
    at = next((i for i, (a, b) in enumerate(zip(got_lines, want_lines)) if a != b), min(len(got_lines), len(want_lines)))
    shown = [repr(lines[at]) if at < len(lines) else "the end of the text" for lines in (got_lines, want_lines)]
    raise AssertionError(
        f"{what}: {len(got)} characters where {len(want)} were expected; "
        f"line {at + 1} is {shown[0]} where {shown[1]} was expected"
    )


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


def copy_machine(k: int, width: int) -> Machine:
    """k input lines that double as garbage; line k + i gets a copy of input i.

    The remaining lines are untouched presets at 0, and every line from k up
    is output, so garbage g fits output y iff y is g on its low k bits and 0
    above them.
    """
    gates = tuple(make_gate("cx", [i], k + i) for i in range(k))
    iface = InterfaceSpec(
        width=width,
        input_lines=tuple(range(k)),
        preset_lines=tuple((line, 0) for line in range(k, width)),
        output_lines=tuple(range(k, width)),
        garbage_lines=tuple(range(k)),
    )
    return Machine(Circuit(width, gates), iface)


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


def read_index(value, what: str = "line index") -> int:
    """One index read by `operator.index`, as `Gate` reads each of its lines, or refused."""
    try:
        return operator.index(value)
    except TypeError:
        raise InvalidCircuitError(f"{what} must be an integer, got {value!r}") from None


def reference_check_inverse_pair(mf: Machine, mfinv: Machine, max_input_bits: int) -> None:
    """`zero_garbage_compose`'s inverse-pair check as written with two truth tables, kept as its oracle.

    Both machines map n bits to n bits (`zero_garbage_compose` checks the
    widths first), so g(f(x)) = x for every x already makes f injective on
    2^n values, hence a bijection, and g its inverse; f(g(y)) = y follows
    and is not checked again.
    """
    f = truth_table(mf, max_input_bits).outputs
    g = truth_table(mfinv, max_input_bits).outputs
    for x, y in enumerate(f):
        if g[y] != x:
            raise NotInversePairError(f"second machine maps {y} to {g[y]}, expected {x}")


def reference_classify_growth(points):
    """`classify_growth` as written with `Fraction` for its affine test, kept as its oracle."""
    pts = sorted(set((int(n), int(c)) for n, c in points))
    if len(pts) < 3:
        raise InsufficientPointsError(f"need at least 3 distinct (size, count) points, got {len(pts)}")
    ns = [n for n, _ in pts]
    cs = [c for _, c in pts]
    details: dict = {"basis": "empirical at desk scale", "points_used": len(pts)}

    if len(set(cs)) == 1:
        return "constant", details

    slope = Fraction(cs[1] - cs[0], ns[1] - ns[0])
    if all(Fraction(cs[i] - cs[0], ns[i] - ns[0]) == slope for i in range(1, len(pts))):
        details["slope"] = float(slope)
        return "linear", details

    rates = [
        (math.log(cs[i + 1]) - math.log(cs[i])) / (ns[i + 1] - ns[i])
        for i in range(len(pts) - 1)
    ]
    mean_rate = sum(rates) / len(rates)
    spread = max(abs(r - mean_rate) for r in rates)
    details["log_growth_per_size"] = round(mean_rate, 6)
    if mean_rate >= math.log(1.4) and spread <= 0.15 * abs(mean_rate):
        details["doubling_base"] = round(math.exp(mean_rate), 4)
        return "superpolynomial-suspect", details

    xs = [math.log(n) for n in ns]
    ys = [math.log(c) for c in cs]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    var = sum((x - mx) ** 2 for x in xs)
    loglog_slope = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / var
    intercept = my - loglog_slope * mx
    residuals = [abs(y - (loglog_slope * x + intercept)) for x, y in zip(xs, ys)]
    details["loglog_slope"] = round(loglog_slope, 4)
    details["max_log_residual"] = round(max(residuals), 4)
    degree = round(loglog_slope)
    if 0 < degree <= 4 and max(residuals) <= 0.25:
        return f"polynomial-fit({degree})", details
    return "superpolynomial-suspect", details


def _classifier_edges() -> list[tuple[list[tuple[int, int]], str]]:
    """A point list either side of each `classify_growth` threshold, with the label it gets.

    The log-growth floor log(1.4): a constant ratio of 1.39 and 1.41 per size.
    The degree cap 4: n^4 and n^5. The residual cap 0.25: n^2 with the n = 5
    count off by e^0.3 and e^0.45. The spread cap 0.15 of the mean: log ratios
    ln 2 * (1 + d, 1 - d, 1 + d). Each list's sizes run from 2 in steps of 1.
    """
    ratio = {r: [(n, round(1000 * r**n)) for n in range(2, 5)] for r in (1.39, 1.41)}
    power = {d: [(n, n**d) for n in range(2, 7)] for d in (4, 5)}
    bent = {e: [(n, round(100 * n * n * math.exp(e * (n == 5)))) for n in range(2, 8)] for e in (0.3, 0.45)}
    spread = {d: [(n, round(1000 * 2**s)) for n, s in zip(range(2, 6), (0, 1 + d, 2, 3 + d))] for d in (0.1, 0.2)}
    return [
        (ratio[1.39], "polynomial-fit(1)"),
        (ratio[1.41], "superpolynomial-suspect"),
        (power[4], "polynomial-fit(4)"),
        (power[5], "superpolynomial-suspect"),
        (bent[0.3], "polynomial-fit(2)"),
        (bent[0.45], "superpolynomial-suspect"),
        (spread[0.1], "superpolynomial-suspect"),
        (spread[0.2], "polynomial-fit(2)"),
    ]


CLASSIFIER_EDGES = _classifier_edges()


def classified_or_refused(classify, points):
    """What `classify` returns for `points`, or the class and message of what it raises."""
    try:
        label, details = classify(points)
    except (ArithmeticError, ValueError) as exc:  # the error itself is the outcome compared
        return type(exc), str(exc)
    return label, details, list(details)


def reference_growth_outcome(points):
    """`classified_or_refused` of the reference, with its `math domain error` read as the refusal now made first.

    The reference takes the log of every count once growth is neither
    constant nor affine, and the log of every size for the power-law fit;
    `classify_growth` names the first sorted point whose count, else whose
    size, is below 1 instead.
    """
    got = classified_or_refused(reference_classify_growth, points)
    if got != (ValueError, "math domain error"):
        return got
    pts = sorted(set((int(n), int(c)) for n, c in points))
    index, what = (1, "count") if any(c < 1 for _, c in pts) else (0, "size")
    point = next(p for p in pts if p[index] < 1)
    return ValueError, f"point {point} has {what} {point[index]}, below 1: its log is undefined"


CLASSIFY_GROWTH_CALLS: list = []


@pytest.fixture(scope="session", autouse=True)
def classify_growth_matches_reference():
    """Every `classify_growth` call made through `growth_report` (and so the CLI) is held to the reference."""
    real = analysis.classify_growth

    def checked(points):
        points = list(points)
        CLASSIFY_GROWTH_CALLS.append(points)
        got = classified_or_refused(real, points)
        assert got == reference_growth_outcome(points), points
        return real(points)

    analysis.classify_growth = checked
    yield
    analysis.classify_growth = real
