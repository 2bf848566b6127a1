"""Inversion by known configurations and by blind guessing."""
from __future__ import annotations

import dataclasses
import random
import statistics
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from revcirc import (
    BitState,
    Circuit,
    GarbageProfile,
    InterfaceSpec,
    InvalidCircuitError,
    InversionError,
    InversionResult,
    Machine,
    NoMatchingConfigError,
    TrialBudgetExceededError,
    decrementer,
    garbage_profile,
    incrementer,
    invert_blind,
    invert_with_profile,
    make_gate,
    ripple_adder,
    run,
    truth_table,
    zero_garbage_compose,
)
from revcirc import invert, sim

from conftest import copy_machine, late_liar, machines


def reference_trial(machine: Machine, y: int, config: int) -> BitState | None:
    """The per-trial body: the start state if the backward run fits, confirmed forward."""
    iface = machine.iface
    state = BitState.zeros(iface.width).with_value(iface.output_lines, y)
    state = state.with_value(iface.garbage_lines, config)
    for line, const in iface.restored_lines:
        state = state.with_value([line], const)
    start = run(machine.circuit, state, "backward")
    if any(start.bits[line] != const for line, const in iface.preset_lines):
        return None
    final = run(machine.circuit, start)
    if final.value_of(iface.output_lines) != y or final.value_of(iface.garbage_lines) != config:
        raise InversionError(
            "forward re-run did not reproduce the requested output; "
            "the machine or its interface is inconsistent"
        )
    return start


def reference_invert_blind(machine: Machine, y: int, seed: int, max_trials: int | None = None):
    """The guess-by-guess loop, kept as the oracle for the block search in `invert_blind`."""
    k = machine.iface.garbage_width
    if max_trials is None:
        max_trials = 64 << k
    rng = random.Random(seed)
    for trial in range(1, max_trials + 1):
        config = rng.getrandbits(k) if k else 0
        start = reference_trial(machine, y, config)
        if start is not None:
            # Each garbage value that fits runs back to its own preimage; a budget short of 2^k
            # has not tried them all.
            fits = (reference_trial(machine, y, g) is not None for g in range(1 << k))
            unique = max_trials >= 1 << k and sum(fits) == 1
            return InversionResult(start.value_of(machine.iface.input_lines), trial, "blind", config, unique)
    raise TrialBudgetExceededError(
        f"no consistent garbage string found for output {y} in {max_trials} trials "
        f"(k={k} garbage bits; expected cost grows as 2^k)",
        trials=max_trials,
    )


def reference_invert_with_profile(machine: Machine, y: int, profile: GarbageProfile):
    """The config-by-config loop, kept as the oracle for `invert_with_profile`'s search."""
    iface = machine.iface
    for trials, config in enumerate(profile.configs, start=1):
        if not 0 <= config < (1 << iface.garbage_width):
            raise InvalidCircuitError(
                f"profile configuration {config} does not fit the "
                f"{iface.garbage_width}-bit garbage region"
            )
        start = reference_trial(machine, y, config)
        if start is not None:
            input_value = start.value_of(iface.input_lines)
            return InversionResult(input_value, trials, "table", config, profile.per_output is not None)
    raise NoMatchingConfigError(
        f"no garbage configuration matches output {y}: it is not in the machine's image"
    )


def outcome(inverter, *args):
    """The result, or the type, message and trial count of the error raised."""
    try:
        return inverter(*args)
    except (InversionError, InvalidCircuitError) as exc:
        return type(exc), str(exc), getattr(exc, "trials", None)


def budget_edges(machine: Machine) -> list[int]:
    """Budgets at the edges of the draw chunks, which hold min(2^k, 2^14) draws."""
    space = 1 << machine.iface.garbage_width
    return sorted({1, 2, 3, max(1, space - 1), space, space + 1, 65})


class TestInvertWithProfile:
    def test_wraparound_case(self):
        m = incrementer(4)
        p = garbage_profile(m)
        r = invert_with_profile(m, 0, p)
        assert r.input_value == 15
        assert r.matched_config == p.configs[-1]  # all-ones carry chain
        assert r.method == "table"

    def test_trials_bounded_by_config_count(self):
        m = incrementer(4)
        p = garbage_profile(m)
        r = invert_with_profile(m, 5, p)
        assert r.input_value == 4
        assert r.trials <= p.config_count

    def test_every_output_inverts(self):
        for n in range(2, 7):
            m = incrementer(n)
            p = garbage_profile(m)
            t = truth_table(m)
            for y in range(1 << n):
                r = invert_with_profile(m, y, p)
                assert t.output_of(r.input_value) == y
                assert r.trials <= p.config_count

    def test_zero_garbage_machine_inverts_in_one_trial(self):
        zm = zero_garbage_compose(incrementer(4), decrementer(4))
        p = garbage_profile(zm)
        for y in range(16):
            r = invert_with_profile(zm, y, p)
            assert r.trials == 1
            assert (r.input_value + 1) % 16 == y

    def test_soundness_forward_check(self):
        m = incrementer(3)
        p = garbage_profile(m)
        r = invert_with_profile(m, 6, p)
        t = truth_table(m)
        assert (t.outputs[r.input_value], t.garbage[r.input_value]) == (6, r.matched_config)

    def test_value_out_of_image_rejected(self):
        # output region wider than the image: (x) -> (x, 0) never hits odd top bit
        iface = InterfaceSpec(
            width=2,
            input_lines=(0,),
            preset_lines=((1, 0),),
            output_lines=(0, 1),
        )
        m = Machine(Circuit(2), iface)
        p = garbage_profile(m)
        with pytest.raises(NoMatchingConfigError, match="image"):
            invert_with_profile(m, 0b10, p)

    def test_value_too_wide_rejected(self):
        m = incrementer(3)
        p = garbage_profile(m)
        with pytest.raises(InvalidCircuitError, match="fit"):
            invert_with_profile(m, 8, p)

    def test_profile_of_other_input_width_rejected(self):
        # incrementer(3) and ripple_adder(2) both have 1 garbage bit
        m = ripple_adder(2)
        p = garbage_profile(incrementer(3))
        assert p.garbage_bits == m.iface.garbage_width
        with pytest.raises(InvalidCircuitError, match="3 input and 1 garbage bits"):
            invert_with_profile(m, 0, p)

    def test_profile_of_other_garbage_width_rejected(self):
        m = incrementer(4)
        p = dataclasses.replace(garbage_profile(m), garbage_bits=3)
        with pytest.raises(InvalidCircuitError, match="4 input and 3 garbage bits"):
            invert_with_profile(m, 0, p)

    def test_config_too_wide_rejected(self):
        m = incrementer(4)
        p = dataclasses.replace(garbage_profile(m), configs=(0, 4))
        with pytest.raises(InvalidCircuitError, match="configuration 4 does not fit"):
            invert_with_profile(m, 0, p)  # 0 needs config 3, so config 4 is tried
        p = dataclasses.replace(p, configs=(-1,))
        with pytest.raises(InvalidCircuitError, match="configuration -1 does not fit"):
            invert_with_profile(m, 0, p)

    def test_empty_configuration_set_rejected(self):
        m = incrementer(4)
        p = dataclasses.replace(garbage_profile(m), configs=())
        with pytest.raises(InvalidCircuitError, match="^profile has no garbage configurations$"):
            invert_with_profile(m, 0, p)

    def test_non_injective_machine_flagged(self):
        iface = InterfaceSpec(
            width=2, input_lines=(0, 1), output_lines=(0,), garbage_lines=(1,)
        )
        m = Machine(Circuit(2), iface)
        p = garbage_profile(m)
        r = invert_with_profile(m, 1, p)
        assert r.unique_preimage is False
        assert r.input_value in (1, 3)  # some preimage of output bit 1


class TestInvertBlind:
    def test_deterministic_given_seed(self):
        m = incrementer(4)
        a = invert_blind(m, 0, seed=123)
        b = invert_blind(m, 0, seed=123)
        assert a == b

    def test_zero_garbage_always_one_trial(self):
        zm = zero_garbage_compose(incrementer(3), decrementer(3))
        for seed in range(20):
            r = invert_blind(zm, 5, seed=seed)
            assert r.trials == 1
            assert r.input_value == 4

    def test_budget_exhaustion(self):
        m = incrementer(4)
        # y=0 needs the all-ones carry config; find a seed whose first guess misses
        for seed in range(50):
            try:
                r = invert_blind(m, 0, seed=seed, max_trials=1)
            except TrialBudgetExceededError as exc:
                assert exc.trials == 1
                break
            assert r.trials == 1  # lucky first guess
        else:
            pytest.fail("50 seeds in a row guessed a 1-in-4 config first try")

    @pytest.mark.parametrize("max_trials", [0, -1])
    def test_budget_below_one_rejected(self, max_trials):
        with pytest.raises(ValueError, match="^max_trials must be at least 1$"):
            invert_blind(incrementer(4), 0, seed=0, max_trials=max_trials)


class TestOutputTooWideForDecimal:
    """An inversion refusal names `y` in decimal where `str()` writes it, and by its bit length past that."""

    NARROW = (1 << 14284) - 1  # the widest value `str()` writes at the default digit limit

    @pytest.fixture(scope="class")
    def wide(self):
        # 15,001 output lines, 15,000 of them preset to 0, and no garbage: y is in the image only when y < 2
        iface = InterfaceSpec(
            width=15001,
            input_lines=(0,),
            preset_lines=tuple((line, 0) for line in range(1, 15001)),
            output_lines=tuple(range(15001)),
        )
        m = Machine(Circuit(15001), iface)
        return m, garbage_profile(m)

    def test_no_matching_config(self, wide):
        m, p = wide
        for y, named in ((1 << 15000, "of 15001 bits"), (self.NARROW, str(self.NARROW))):
            with pytest.raises(NoMatchingConfigError) as info:
                invert_with_profile(m, y, p)
            assert str(info.value) == f"no garbage configuration matches output {named}: it is not in the machine's image"

    def test_trial_budget_exceeded(self, wide):
        m, _ = wide
        for y, named in ((1 << 15000, "of 15001 bits"), (self.NARROW, str(self.NARROW))):
            with pytest.raises(TrialBudgetExceededError) as info:
                invert_blind(m, y, seed=0)
            assert str(info.value) == (
                f"no consistent garbage string found for output {named} in 64 trials "
                "(k=0 garbage bits; expected cost grows as 2^k)"
            )

    def test_output_that_does_not_fit(self, wide):
        m, p = wide
        refused = "^output value of 15002 bits does not fit the 15001-bit output region$"
        with pytest.raises(InvalidCircuitError, match=refused):
            invert_blind(m, 1 << 15001, seed=0)
        with pytest.raises(InvalidCircuitError, match=refused):
            invert_with_profile(m, 1 << 15001, p)
        with pytest.raises(InvalidCircuitError, match="^output value 8 does not fit the 3-bit output region$"):
            invert_with_profile(incrementer(3), 8, garbage_profile(incrementer(3)))

    def test_profile_configuration_that_does_not_fit(self):
        m = incrementer(4)
        for config, named in ((1 << 15000, "of 15001 bits"), (self.NARROW, str(self.NARROW))):
            p = dataclasses.replace(garbage_profile(m), configs=(config,))
            with pytest.raises(InvalidCircuitError) as info:
                invert_with_profile(m, 0, p)
            assert str(info.value) == f"profile configuration {named} does not fit the 2-bit garbage region"

    @pytest.mark.parametrize("n,k", [(3, 1), (6, 4), (8, 6)])
    def test_mean_trials_tracks_two_to_the_k(self, n, k):
        m = incrementer(n)
        assert m.iface.garbage_width == k
        trials = [invert_blind(m, 0, seed=s).trials for s in range(1000)]
        mean = statistics.fmean(trials)
        assert mean == pytest.approx(2**k, rel=0.15)

    def test_unique_preimage_only_where_one_garbage_value_fits(self):
        # No gates: inputs 1 and 3 both map to output 1, through garbage values 0 and 1.
        iface = InterfaceSpec(width=2, input_lines=(0, 1), output_lines=(0,), garbage_lines=(1,))
        m = Machine(Circuit(2), iface)
        assert [invert_blind(m, 1, seed=seed).unique_preimage for seed in range(4)] == [False] * 4
        adder = ripple_adder(4)
        k = adder.iface.garbage_width
        ys = range(1 << adder.iface.output_width)
        assert all(invert_blind(adder, y, seed=y).unique_preimage for y in ys)
        # A budget short of 2^k runs no fit table, so it establishes nothing.
        short = [outcome(invert_blind, adder, y, y, (1 << k) - 1) for y in ys]
        hits = [r for r in short if isinstance(r, InversionResult)]
        assert hits and not any(r.unique_preimage for r in hits)

    def test_correct_answer_every_time(self):
        m = incrementer(5)
        t = truth_table(m)
        for seed in range(30):
            r = invert_blind(m, 9, seed=seed)
            assert t.output_of(r.input_value) == 9
            assert r.input_value == 8


class TestBlockSearch:
    @settings(max_examples=300, deadline=None)
    @given(machines(), st.data())
    def test_blind_matches_per_trial_reference(self, m, data):
        y = data.draw(st.integers(0, (1 << m.iface.output_width) - 1))
        seed = data.draw(st.integers(0, 2**64))
        max_trials = data.draw(st.sampled_from([None, *budget_edges(m)]))
        chunk_bits = data.draw(st.sampled_from([sim._CHUNK_BITS, 0, 1, 2]))
        with mock.patch.object(sim, "_CHUNK_BITS", chunk_bits):
            got = outcome(invert_blind, m, y, seed, max_trials)
        assert got == outcome(reference_invert_blind, m, y, seed, max_trials)

    @pytest.mark.parametrize(
        "m,ys",
        [
            (incrementer(10), (0, 1, 513)),
            (ripple_adder(9), (0, 300, 262143)),
            (decrementer(5), (0, 31)),
            # declared restored lines that are false: every output value
            (late_liar(), (0, 1, 2, 3)),
            (late_liar(tie=True), (0, 1, 2, 3)),
        ],
        ids=["incrementer(10)", "ripple_adder(9)", "decrementer(5)", "late_liar()", "late_liar(tie=True)"],
    )
    def test_blind_block_edges_match_reference(self, m, ys):
        for max_trials in budget_edges(m):
            for seed in range(20):
                y = ys[seed % len(ys)]
                assert outcome(invert_blind, m, y, seed, max_trials) == outcome(
                    reference_invert_blind, m, y, seed, max_trials
                ), (max_trials, seed)

    # ripple_adder(6) has 5 garbage bits: 32 values in chunks of 1, 2 and 4
    @pytest.mark.parametrize("chunk_bits", [0, 1, 2])
    def test_small_chunks_match_reference(self, monkeypatch, chunk_bits):
        m = ripple_adder(6)
        assert m.iface.garbage_width == 5
        monkeypatch.setattr(sim, "_CHUNK_BITS", chunk_bits)
        p = garbage_profile(m)
        for seed in range(40):
            y = (seed * 37) % (1 << m.iface.output_width)
            for max_trials in (None, 1, 2, 3, 4, 5, 7, 8, 9, 31, 32, 33):
                assert outcome(invert_blind, m, y, seed, max_trials) == outcome(
                    reference_invert_blind, m, y, seed, max_trials
                )
            assert outcome(invert_with_profile, m, y, p) == outcome(reference_invert_with_profile, m, y, p)

    @settings(max_examples=300, deadline=None)
    @given(machines(), st.data())
    def test_table_method_matches_reference(self, m, data):
        iface = m.iface
        k = iface.garbage_width
        y = data.draw(st.integers(0, (1 << iface.output_width) - 1))
        configs = data.draw(st.lists(st.integers(-2, (1 << k) + 1), min_size=1, max_size=80))
        per_output = data.draw(st.sampled_from([None, {}]))
        p = GarbageProfile("m", iface.input_width, k, tuple(configs), per_output)
        chunk_bits = data.draw(st.sampled_from([sim._CHUNK_BITS, 0, 1, 2]))
        with mock.patch.object(sim, "_CHUNK_BITS", chunk_bits):
            got = outcome(invert_with_profile, m, y, p)
        assert got == outcome(reference_invert_with_profile, m, y, p)

    def test_no_single_state_runs(self, monkeypatch):
        m = ripple_adder(9)
        p = garbage_profile(m)
        hit = reference_invert_blind(m, 5, 3)
        assert hit.trials > 1
        short = outcome(reference_invert_blind, m, 5, 3, hit.trials - 1)
        assert short[0] is TrialBudgetExceededError
        by_table = [reference_invert_with_profile(m, y, p) for y in (0, 5, 300, 262143)]

        def refuse(*args, **kwargs):
            raise AssertionError("inversion ran a single state")

        monkeypatch.setattr(sim, "run", refuse)
        monkeypatch.setattr(BitState, "zeros", refuse)
        monkeypatch.setattr(BitState, "with_value", refuse)
        assert invert_blind(m, 5, seed=3) == hit
        assert outcome(invert_blind, m, 5, 3, hit.trials - 1) == short
        assert [invert_with_profile(m, y, p) for y in (0, 5, 300, 262143)] == by_table

    @pytest.mark.parametrize("k,width", [(0, 1), (16, 33)])
    def test_exhaustion_draws_no_guess(self, monkeypatch, k, width):
        # The top output line is an untouched preset at 0, so no garbage fits y.
        class NoDrawRandom(random.Random):
            def getrandbits(self, bits):
                pytest.fail("drew a guess although no garbage value fits")

        monkeypatch.setattr(invert.random, "Random", NoDrawRandom)
        m = copy_machine(k, width)
        with pytest.raises(TrialBudgetExceededError, match="in 1000000000000 trials") as exc:
            invert_blind(m, 1 << (width - k - 1), seed=0, max_trials=10**12)
        assert exc.value.trials == 10**12

    @pytest.mark.parametrize("width", [40, 1024])
    def test_k20_search_memory_is_bounded(self, width):
        # Garbage g fits output y iff y == g. At width 40 the exhausted y is
        # 2^19, which seed 0 first draws at trial 2,559,631, past the budget;
        # at width 1,024 it is 2^1003, which nothing fits. y = 12345 is a hit.
        k = 20
        m = copy_machine(k, width)
        budget = 3 << 14
        rng = random.Random(0)
        first_draw = next(t for t in range(1, 1 << 24) if rng.getrandbits(k) == 12345)
        tracemalloc.start()
        try:
            r = invert_blind(m, 12345, seed=0)
            with pytest.raises(TrialBudgetExceededError) as exc:
                invert_blind(m, 1 << (width - k - 1), seed=0, max_trials=budget)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert exc.value.trials == budget
        assert (r.input_value, r.matched_config, r.trials) == (12345, 12345, first_draw)
        assert peak < 4 << 20

    def test_budget_below_two_to_the_k_costs_only_its_draws(self):
        # 1000 trials against 2^24 garbage values: the draws run backward
        # themselves, so neither time nor memory grows with 2^k. Nothing fits
        # y = 2^24, and y = the 500th draw of seed 0 is a hit.
        k = 24
        m = copy_machine(k, 49)
        rng = random.Random(0)
        draws = [rng.getrandbits(k) for _ in range(500)]
        tracemalloc.start()
        try:
            with pytest.raises(TrialBudgetExceededError, match="in 1000 trials") as exc:
                invert_blind(m, 1 << k, seed=0, max_trials=1000, max_garbage_bits=k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert exc.value.trials == 1000
        assert peak < 1 << 20
        r = invert_blind(m, draws[-1], seed=0, max_trials=1000, max_garbage_bits=k)
        first = draws.index(draws[-1]) + 1
        assert (r.input_value, r.matched_config, r.trials) == (draws[-1], draws[-1], first)
        assert r == reference_invert_blind(m, draws[-1], 0, max_trials=1000)
