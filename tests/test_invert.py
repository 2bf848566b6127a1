"""Inversion by known configurations and by blind guessing."""
from __future__ import annotations

import dataclasses
import statistics

import pytest

from revcirc import (
    Circuit,
    InterfaceSpec,
    InvalidCircuitError,
    Machine,
    NoMatchingConfigError,
    TrialBudgetExceededError,
    decrementer,
    garbage_profile,
    incrementer,
    invert_blind,
    invert_with_profile,
    ripple_adder,
    truth_table,
    zero_garbage_compose,
)


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

    @pytest.mark.parametrize("n,k", [(3, 1), (6, 4), (8, 6)])
    def test_mean_trials_tracks_two_to_the_k(self, n, k):
        m = incrementer(n)
        assert m.iface.garbage_width == k
        trials = [invert_blind(m, 0, seed=s).trials for s in range(1000)]
        mean = statistics.fmean(trials)
        assert mean == pytest.approx(2**k, rel=0.15)

    def test_correct_answer_every_time(self):
        m = incrementer(5)
        t = truth_table(m)
        for seed in range(30):
            r = invert_blind(m, 9, seed=seed)
            assert t.output_of(r.input_value) == 9
            assert r.input_value == 8
