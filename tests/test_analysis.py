"""Garbage profiling, conformance reporting, and growth classification."""
from __future__ import annotations

import hashlib
import json
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from revcirc import (
    Circuit,
    ConformanceReport,
    ExhaustiveBoundError,
    GarbageProfile,
    InsufficientPointsError,
    InterfaceSpec,
    Machine,
    RestorationViolationError,
    analysis,
    bennett,
    classify_growth,
    conformance,
    decrementer,
    garbage_configs,
    garbage_profile,
    growth_report,
    incrementer,
    initial_state,
    make_gate,
    ripple_adder,
    parse_circuit,
    run,
    sim,
    truth_table,
    zero_garbage_compose,
)
from revcirc.analysis import ClauseResult
from revcirc.sim import _DECIMAL_BITS
from conftest import CLASSIFY_GROWTH_CALLS, classified_or_refused, reference_classify_growth, reference_growth_outcome
from conftest import CLASSIFIER_EDGES, late_liar, machines

GOLDEN = Path(__file__).resolve().parent.parent / "golden"


def bit_reversal(n: int) -> Machine:
    """Permutation machine with no garbage lines at all: swap line i with n-1-i."""
    gates = []
    for i in range(n // 2):
        j = n - 1 - i
        gates += [make_gate("cx", [i], j), make_gate("cx", [j], i), make_gate("cx", [i], j)]
    iface = InterfaceSpec(
        width=n, input_lines=tuple(range(n)), output_lines=tuple(range(n))
    )
    return Machine(Circuit(n, tuple(gates)), iface)


class TestGarbageProfile:
    def test_incrementer5_matches_known_set(self):
        p = garbage_profile(incrementer(5))
        assert p.config_count == 4
        assert p.configs == (0, 1, 3, 7)

    def test_adder3_count(self):
        assert garbage_profile(ripple_adder(3)).config_count == 4

    def test_bennett_garbage_is_input(self):
        p = garbage_profile(bennett(incrementer(3)))
        assert p.config_count == 8
        assert p.configs == tuple(range(8))

    def test_bounds_invariant(self, roster):
        for name, m in roster:
            p = garbage_profile(m)
            assert 1 <= p.config_count <= min(1 << p.garbage_bits, 1 << p.input_bits), name

    def test_per_output_present_only_when_injective(self):
        p = garbage_profile(incrementer(4))
        assert p.per_output is not None
        assert set(p.per_output.values()) <= set(p.configs)
        # one garbage value per output value
        assert len(p.per_output) == 16

    def test_per_output_omitted_for_many_to_one(self):
        # output region only sees input bit 0; bit 1 collides
        iface = InterfaceSpec(
            width=2, input_lines=(0, 1), output_lines=(0,), garbage_lines=(1,)
        )
        p = garbage_profile(Machine(Circuit(2), iface))
        assert p.per_output is None

    @pytest.mark.parametrize(
        "m", [incrementer(2), incrementer(9), ripple_adder(4), bennett(incrementer(3))], ids=["incr2", "incr9", "adder4", "bennett3"]
    )
    def test_as_dict_per_output_int_keys_ascending(self, m):
        p = garbage_profile(m)
        per_output = p.as_dict()["per_output"]
        assert all(type(y) is int for y in per_output)
        assert list(per_output) == sorted(p.per_output)
        assert per_output == p.per_output
        # the str-keyed form as_dict built before: json writes int keys as these strings
        old_form = {str(k): v for k, v in sorted(p.per_output.items())}
        assert json.dumps(per_output, indent=2) == json.dumps(old_form, indent=2)
        assert json.dumps(p.as_dict()) == json.dumps({**p.as_dict(), "per_output": old_form})

    def test_as_dict_sorts_a_hand_built_per_output(self):
        p = GarbageProfile("m", 2, 1, (0, 1), {3: 1, 0: 0, 2: 1, 1: 0})
        per_output = p.as_dict()["per_output"]
        assert list(per_output.items()) == [(0, 0), (1, 0), (2, 1), (3, 1)]
        assert json.dumps(per_output) == '{"0": 0, "1": 0, "2": 1, "3": 1}'

    def test_injectivity_read_from_the_map(self, roster):
        # per_output is present exactly when no two inputs share an output
        for name, m in roster:
            p, t = garbage_profile(m), truth_table(m)
            assert (p.per_output is not None) == sim.is_injective(t), name
            if p.per_output is not None:
                assert p.per_output == {t.outputs[x]: t.garbage[x] for x in range(len(t.outputs))}, name

    def test_deterministic(self):
        a = garbage_profile(ripple_adder(2))
        b = garbage_profile(ripple_adder(2))
        assert a == b
        assert a.digest() == b.digest()

    def test_digest_refuses_a_configuration_too_wide_for_decimal(self):
        # 2^14284 - 1 has 4,300 digits, Python's default str() limit; one bit more is refused
        fits = GarbageProfile("m", 1, _DECIMAL_BITS, ((1 << _DECIMAL_BITS) - 1,))
        assert fits.digest() == "536c86ff525bfcba"
        too_wide = GarbageProfile("m", 1, _DECIMAL_BITS + 1, ((1 << _DECIMAL_BITS + 1) - 1,))
        for call in (too_wide.digest, too_wide.as_dict):
            with pytest.raises(ExhaustiveBoundError, match="has 14285 bits; .* beyond 14284$"):
                call()
        # the bound is on the configurations, not the region: a wide region of small values digests
        assert GarbageProfile("m", 1, 15000, (0, 1)).digest() == "b8499e97b3e447e0"

    def test_digest_refuses_by_the_digit_limit_in_force(self):
        previous = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            assert GarbageProfile("m", 1, 2126, ((1 << 2126) - 1,)).digest()
            with pytest.raises(ExhaustiveBoundError, match="has 2127 bits; .* beyond 2126$"):
                GarbageProfile("m", 1, 2127, ((1 << 2127) - 1,)).digest()
        finally:
            sys.set_int_max_str_digits(previous)

    @given(
        st.integers(0, 40),
        st.sets(st.integers(0, 1 << 64) | st.integers(0, (1 << 300) - 1), max_size=40).map(sorted),
        st.booleans(),
    )
    @example(0, [], False)
    @example(3, [], True)
    def test_digest_matches_the_joined_str_formula(self, garbage_bits, configs, as_list):
        # The digest as first written, with a generator of `str()` calls; a list of configs digests the same.
        body = f"{garbage_bits}:" + ",".join(str(c) for c in configs)
        expected = hashlib.sha256(body.encode()).hexdigest()[:16]
        profile = GarbageProfile("m", 1, garbage_bits, configs if as_list else tuple(configs))
        assert profile.digest() == expected

    def test_label_overrides_hash(self):
        assert garbage_profile(incrementer(3), label="inc3").machine_id == "inc3"

    def test_too_wide_rejected(self):
        with pytest.raises(ExhaustiveBoundError):
            garbage_profile(incrementer(12), max_input_bits=8)


class TestConformance:
    def test_incrementer_passes_vacuously(self):
        rep = conformance(incrementer(4))
        assert rep.passed
        names = [c.name for c in rep.clauses]
        assert names == ["initial-partition", "final-partition", "restored-constants"]

    def test_zero_garbage_machine_passes_with_scratch_restored(self):
        zm = zero_garbage_compose(incrementer(4), decrementer(4))
        rep = conformance(zm)
        assert rep.passed
        assert len(zm.iface.restored_lines) == zm.width - zm.iface.output_width

    def test_false_restoration_reports_witness(self):
        iface = InterfaceSpec(
            width=2,
            input_lines=(0,),
            preset_lines=((1, 0),),
            output_lines=(0,),
            restored_lines=((1, 0),),
        )
        liar = Machine(Circuit(2, (make_gate("cx", [0], 1),)), iface)
        rep = conformance(liar)
        assert not rep.passed
        clause = {c.name: c for c in rep.clauses}["restored-constants"]
        assert clause.passed is False
        assert clause.witness == 1  # input 1 copies a 1 onto the "restored" line

    @given(machines(), st.sampled_from([sim._CHUNK_BITS, 0, 1, 2]))
    def test_matches_per_row_reference(self, m, chunk_bits):
        # machines() may declare restored lines falsely, so both verdicts occur
        with mock.patch.object(sim, "_CHUNK_BITS", chunk_bits):
            rep = conformance(m, label="m")
        assert rep == reference_conformance(m)

    @pytest.mark.parametrize("chunk_bits", [sim._CHUNK_BITS, 0, 1, 2])
    @pytest.mark.parametrize("tie,line", [(False, 3), (True, 4)])
    def test_violation_past_the_first_chunk(self, monkeypatch, chunk_bits, tie, line):
        m = late_liar(tie)
        monkeypatch.setattr(sim, "_CHUNK_BITS", chunk_bits)
        rep = conformance(m, label="m")
        assert rep == reference_conformance(m)
        assert rep.clauses[-1] == ClauseResult("restored-constants", False, 5, f"line {line} should hold 0 but holds 1")

    def test_memory_is_bounded_by_the_chunk(self):
        # 20 input bits: the whole-table lines would take 128 KiB each
        m = ripple_adder(10)
        tracemalloc.start()
        try:
            rep = conformance(m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.passed
        assert peak < 1 << 20


def reference_conformance(machine: Machine) -> ConformanceReport:
    """The literal per-row restored-lines scan, kept as the oracle for `conformance`."""
    iface = machine.iface
    clauses = [
        ClauseResult("initial-partition", True, detail="input and preset lines partition the width"),
        ClauseResult("final-partition", True, detail="output, garbage, and restored lines partition the width"),
    ]
    restored_clause = ClauseResult("restored-constants", True, detail="no restored lines declared" if not iface.restored_lines else "")
    for x in range(1 << iface.input_width):
        final = run(machine.circuit, initial_state(machine, x))
        bad = [
            (line, const)
            for line, const in iface.restored_lines
            if final.bits[line] != const
        ]
        if bad:
            line, const = bad[0]
            restored_clause = ClauseResult(
                "restored-constants",
                False,
                witness=x,
                detail=f"line {line} should hold {const} but holds {final.bits[line]}",
            )
            break
    clauses.append(restored_clause)
    return ConformanceReport("m", all(c.passed for c in clauses), tuple(clauses))


def table_configs(machine: Machine, max_input_bits: int = 20) -> list[int]:
    """The config set read off the transposed truth table: the oracle for `garbage_configs`."""
    return sorted(set(truth_table(machine, max_input_bits).garbage))


def config_outcome(configs_of, machine: Machine, *args):
    """The config list, or the type, message and fields of the error raised."""
    try:
        return configs_of(machine, *args)
    except RestorationViolationError as exc:
        return type(exc), str(exc), exc.input_value, exc.line, exc.const, exc.held
    except ExhaustiveBoundError as exc:
        return type(exc), str(exc)


class TestGarbageConfigs:
    # Caps of 0, 2 and 4 masks send the split to the transpose after 0, 1 or 2 lines.
    @given(
        machines(),
        st.sampled_from([analysis._MAX_SPLIT_CONFIGS, 0, 2, 4]),
        st.sampled_from([sim._CHUNK_BITS, 0, 1, 2]),
    )
    def test_matches_truth_table(self, m, cap, chunk_bits):
        with mock.patch.object(analysis, "_MAX_SPLIT_CONFIGS", cap), mock.patch.object(sim, "_CHUNK_BITS", chunk_bits):
            got = config_outcome(garbage_configs, m)
        assert got == config_outcome(table_configs, m)

    def test_roster_and_golden_files(self, roster):
        machines_ = [m for _, m in roster]
        machines_ += [parse_circuit(p.read_text()) for p in sorted(GOLDEN.glob("*.rvc"))]
        for m in machines_:
            assert garbage_configs(m) == table_configs(m)

    @pytest.mark.parametrize(
        "m", [incrementer(16), ripple_adder(8), bennett(incrementer(10))], ids=["incr16", "adder8", "bennett-incr10"]
    )
    def test_large_config_sets(self, m):
        # bennett(incrementer(10)) keeps a copy of its input: 1024 configs, past the split's cap
        assert garbage_configs(m) == table_configs(m)

    @pytest.mark.parametrize(
        "m", [ripple_adder(8), bennett(incrementer(10))], ids=["adder8", "bennett-incr10"]
    )
    def test_large_config_sets_in_chunks(self, monkeypatch, m):
        # chunks of 2^9 inputs; each of bennett(incrementer(10))'s two reaches 512 configs and is transposed
        want = table_configs(m)
        monkeypatch.setattr(sim, "_CHUNK_BITS", 9)
        assert garbage_configs(m) == want

    @pytest.mark.parametrize(
        "m,transposed",
        [(incrementer(16), 0), (ripple_adder(9), 0), (bennett(incrementer(10)), 1)],
        ids=["incr16", "adder9", "bennett-incr10"],
    )
    def test_masks_are_split_up_to_the_cap_and_transposed_past_it(self, monkeypatch, m, transposed):
        # ripple_adder(9) reaches exactly 256 configurations per chunk, the most the split keeps splitting;
        # bennett(incrementer(10))'s one chunk reaches 1024, so it is transposed once.
        calls = []
        monkeypatch.setattr(analysis, "_transpose", lambda *args: calls.append(1) or sim._transpose(*args))
        assert garbage_configs(m) == table_configs(m)
        assert len(calls) == transposed

    @pytest.mark.parametrize("chunk_bits", [sim._CHUNK_BITS, 0, 1, 2])
    @pytest.mark.parametrize("tie", [False, True])
    def test_violation_past_the_first_chunk(self, monkeypatch, chunk_bits, tie):
        m = late_liar(tie)
        want = config_outcome(table_configs, m)
        monkeypatch.setattr(sim, "_CHUNK_BITS", chunk_bits)
        assert config_outcome(garbage_configs, m) == want
        assert want[0] is RestorationViolationError and want[2] == 5

    def test_memory_is_bounded_by_the_chunk(self):
        # 512 configs over 20 input bits: one 2^20-bit mask per config would take 64 MiB
        m = ripple_adder(10)
        tracemalloc.start()
        try:
            configs = garbage_configs(m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(configs) == 512
        assert peak < 2 << 20

    def test_false_restoration_raises_like_truth_table(self):
        # line 1 is declared restored, but the gate copies the input onto it
        liar = parse_circuit("width 2\ninput 0\npreset 1=0\noutput 0\nrestored 1=0\ngate cx 0 1\n")
        got = config_outcome(garbage_configs, liar)
        assert got == config_outcome(table_configs, liar)
        assert got[0] is RestorationViolationError and got[2:] == (1, 1, 0, 1)

    def test_bound_refused_like_truth_table(self):
        got = config_outcome(garbage_configs, incrementer(9), 8)
        assert got == config_outcome(table_configs, incrementer(9), 8)
        assert got[0] is ExhaustiveBoundError

    def test_growth_counts_match_profiles(self):
        for family, sizes in ((incrementer, range(2, 9)), (ripple_adder, range(1, 6)), (bennett_incr, range(2, 7))):
            rep = growth_report(family, sizes)
            assert rep.points == tuple((n, garbage_profile(family(n)).config_count) for n in sizes)


def bennett_incr(n: int) -> Machine:
    return bennett(incrementer(n))


class TestGrowth:
    def test_incrementer_family_linear(self):
        rep = growth_report(incrementer, range(2, 11), family_name="incr")
        assert rep.points == tuple((n, n - 1) for n in range(2, 11))
        assert rep.classification == "linear"

    def test_adder_family_superpolynomial(self):
        rep = growth_report(ripple_adder, range(2, 6), family_name="adder")
        assert rep.points == tuple((n, 1 << (n - 1)) for n in range(2, 6))
        assert rep.classification == "superpolynomial-suspect"

    def test_constant_family(self):
        rep = growth_report(bit_reversal, range(2, 7))
        assert rep.classification == "constant"
        assert all(count == 1 for _, count in rep.points)

    def test_oversized_range_refused_before_enumerating(self, monkeypatch):
        def enumerate_nothing(*args, **kwargs):
            raise AssertionError("growth_report enumerated before checking the bound")

        monkeypatch.setattr("revcirc.analysis.truth_table", enumerate_nothing)
        monkeypatch.setattr("revcirc.analysis._final_lines", enumerate_nothing)
        # ripple_adder(11) has 22 input bits; sizes 2..10 fit the default bound
        with pytest.raises(ExhaustiveBoundError, match="input region has 22 bits"):
            growth_report(ripple_adder, range(2, 12))
        with pytest.raises(ExhaustiveBoundError, match="input region has 9 bits"):
            growth_report(incrementer, range(2, 10), max_input_bits=8)

    def test_oversized_range_refused_at_its_first_size_over_the_bound(self):
        built = []

        def counting_incrementer(n: int) -> Machine:
            built.append(n)
            return incrementer(n)

        with pytest.raises(ExhaustiveBoundError, match="input region has 9 bits"):
            growth_report(counting_incrementer, [30, 9, 2, 5, 9, 3], max_input_bits=8)
        assert built == [2, 3, 5, 9]
        built.clear()
        # incrementer(21) is the first size with more than 20 input bits
        with pytest.raises(ExhaustiveBoundError, match="input region has 21 bits"):
            growth_report(counting_incrementer, range(2, 10**6))
        assert built == list(range(2, 22))

    def test_insufficient_points_rejected(self):
        with pytest.raises(InsufficientPointsError):
            growth_report(incrementer, [2, 3])

    def test_classifier_on_synthetic_polynomials(self):
        label, _ = classify_growth([(n, n * n) for n in range(2, 9)])
        assert label == "polynomial-fit(2)"
        label, _ = classify_growth([(n, n**3) for n in range(2, 9)])
        assert label == "polynomial-fit(3)"
        for points, expected in CLASSIFIER_EDGES:
            assert classify_growth(points)[0] == expected, points

    def test_classifier_on_synthetic_exponential(self):
        label, details = classify_growth([(n, 2**n) for n in range(2, 9)])
        assert label == "superpolynomial-suspect"
        assert details["doubling_base"] == pytest.approx(2.0)

    def test_classifier_labels_desk_scale(self):
        _, details = classify_growth([(n, n) for n in range(2, 6)])
        assert details["basis"] == "empirical at desk scale"


@st.composite
def growth_points(draw):
    """(size, count) lists over distinct sizes: arbitrary, or exactly affine with a rational slope.

    Arbitrary lists reach sizes and counts below 1, which have no log.
    """
    if draw(st.booleans()):
        counts = draw(st.dictionaries(st.integers(-2, 64), st.integers(-2, 10**6), max_size=8))
        return list(counts.items())
    step, rise, start = draw(st.integers(1, 7)), draw(st.integers(-50, 50)), draw(st.integers(0, 10**4))
    ks = draw(st.lists(st.integers(1, 40), min_size=3, max_size=8, unique=True))
    return [(step * k, rise * k + start) for k in ks]


class TestClassifyGrowthMatchesReference:
    """Integer cross-multiplication reads growth exactly as the `Fraction` form did."""

    @given(growth_points())
    def test_point_lists(self, points):
        assert classified_or_refused(classify_growth, points) == reference_growth_outcome(points)

    @pytest.mark.parametrize(
        "points",
        [
            [(n, n * n) for n in range(2, 9)],
            [(n, n**3) for n in range(2, 9)],
            [(n, 2**n) for n in range(2, 9)],
            [(n, n) for n in range(2, 6)],
            [(3, 1), (6, 2), (9, 3)],  # slope 1/3, rounded once
            [(1, 10**30), (2, 10**30 + 7), (3, 10**30 + 14)],  # counts past float precision
            [(2, 5), (3, 5), (4, 5)],
            [(2, 1), (3, 2)],
        ],
    )
    def test_every_direct_call(self, points):
        assert classified_or_refused(classify_growth, points) == reference_growth_outcome(points)

    @pytest.mark.parametrize(
        "points,size,counts",
        [
            ([(2, 1), (2, 3), (3, 5)], 2, (1, 3)),
            ([(3, 5), (2, 3), (2, 1), (2, 3)], 2, (1, 3)),
            ([(2, 1), (3, 4), (3, 2), (4, 9)], 3, (2, 4)),
            ([(2, 5), (2, 3), (2, 1)], 2, (1, 3)),
        ],
    )
    def test_repeated_sizes_refused(self, points, size, counts):
        # Refused before any arithmetic; the reference, which hypothesis never
        # hands a repeated size, still divides by zero on these.
        with pytest.raises(ValueError) as exc:
            classify_growth(points)
        assert type(exc.value) is ValueError
        assert str(exc.value) == f"size {size} has two counts, {counts[0]} and {counts[1]}"
        with pytest.raises(ZeroDivisionError):
            reference_classify_growth(points)

    def test_too_few_points_refused_before_a_repeated_size(self):
        with pytest.raises(InsufficientPointsError, match="got 2"):
            classify_growth([(2, 1), (2, 3), (2, 1)])

    @pytest.mark.parametrize("points,got", [([(2, 1), (2, 3)], 2), ([(2, 1), (2, 3), (2, 1)], 2), ([(5, 1), (5, 1)], 1)])
    def test_too_few_points_message_counts_pairs(self, points, got):
        with pytest.raises(InsufficientPointsError) as exc:
            classify_growth(points)
        assert str(exc.value) == f"need at least 3 distinct (size, count) points, got {got}"

    @pytest.mark.parametrize(
        "points,message",
        [
            ([(1, 0), (2, 1), (3, 5)], "point (1, 0) has count 0, below 1: its log is undefined"),
            ([(3, 5), (2, -1), (1, 0)], "point (1, 0) has count 0, below 1: its log is undefined"),
            ([(0, -1), (1, 3), (2, 4)], "point (0, -1) has count -1, below 1: its log is undefined"),
            ([(0, 1), (1, 3), (2, 4)], "point (0, 1) has size 0, below 1: its log is undefined"),
            ([(-1, 1), (0, 3), (2, 4)], "point (-1, 1) has size -1, below 1: its log is undefined"),
        ],
    )
    def test_no_log_below_one(self, points, message):
        with pytest.raises(ValueError) as exc:
            classify_growth(points)
        assert (type(exc.value), str(exc.value)) == (ValueError, message)
        with pytest.raises(ValueError, match="math domain error"):
            reference_classify_growth(points)

    @pytest.mark.parametrize(
        "points,label",
        [
            ([(1, 0), (2, 0), (3, 0)], "constant"),
            ([(0, 0), (5, 0), (9, 0)], "constant"),
            ([(0, 1), (1, 2), (2, 3)], "linear"),
            ([(-3, 0), (0, -6), (1, -8)], "linear"),
            ([(0, 1), (1, 2), (2, 4), (3, 8)], "superpolynomial-suspect"),
        ],
    )
    def test_results_kept_below_one(self, points, label):
        # Sizes or counts below 1 that never reach a log read as they always did.
        assert classify_growth(points) == reference_classify_growth(points)
        assert classify_growth(points)[0] == label

    def test_growth_report_goes_through_the_checked_classifier(self):
        calls = len(CLASSIFY_GROWTH_CALLS)
        report = growth_report(incrementer, range(2, 7))
        assert len(CLASSIFY_GROWTH_CALLS) == calls + 1
        assert report.classification == "linear" and report.fit_details["slope"] == 1.0
