"""Recover an input from an output by running the machine backward.

A backward run needs the whole final state, and the only unknown part is the
garbage region. Two strategies for supplying it:

* `invert_with_profile` walks the known reachable configurations in
  ascending order; the trial count is bounded by the configuration count.
* `invert_blind` guesses garbage strings uniformly at random; for k garbage
  bits the expected trial count is 2^k, which is the whole point of garbage
  as a defense.

A guess is accepted exactly when the backward run lands every preset line on
its declared constant; reversibility then guarantees the recovered input
really maps to the requested output, and both inverters re-run the machine
forward to confirm it before returning.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

from .ir import InvalidCircuitError, Machine
from .sim import EXHAUSTIVE_BOUND, BitState, ExhaustiveBoundError, run
from .analysis import GarbageProfile


class InversionError(Exception):
    """Base for inversion failures."""


class NoMatchingConfigError(InversionError):
    """No profiled garbage configuration produced a consistent backward run."""


class TrialBudgetExceededError(InversionError):
    """Random guessing hit the trial budget; expected for many garbage bits."""

    def __init__(self, message: str, trials: int):
        super().__init__(message)
        self.trials = trials


@dataclass(frozen=True)
class InversionResult:
    input_value: int
    trials: int
    method: str  # "table" or "blind"
    matched_config: int
    unique_preimage: bool = True

    def as_dict(self) -> dict:
        return {
            "input_value": self.input_value,
            "trials": self.trials,
            "method": self.method,
            "matched_config": self.matched_config,
            "unique_preimage": self.unique_preimage,
        }


def _final_state(machine: Machine, y: int, config: int) -> BitState:
    """Candidate final state: output = y, garbage = config, restored at constants."""
    iface = machine.iface
    state = BitState.zeros(iface.width)
    state = state.with_value(iface.output_lines, y)
    state = state.with_value(iface.garbage_lines, config)
    for line, const in iface.restored_lines:
        state = state.with_value([line], const)
    return state


def _check_output(machine: Machine, y: int) -> None:
    width = machine.iface.output_width
    if not 0 <= y < (1 << width):
        raise InvalidCircuitError(f"output value {y} does not fit the {width}-bit output region")


def _trial(machine: Machine, y: int, config: int) -> BitState | None:
    """Run backward from output `y` and garbage `config`; the start state if it fits.

    It fits when every preset line lands on its constant. A fitting start is
    confirmed by one forward run before it is returned.
    """
    iface = machine.iface
    start = run(machine.circuit, _final_state(machine, y, config), "backward")
    if any(start.bits[line] != const for line, const in iface.preset_lines):
        return None
    final = run(machine.circuit, start)
    if final.value_of(iface.output_lines) != y or final.value_of(iface.garbage_lines) != config:
        raise InversionError(
            "forward re-run did not reproduce the requested output; "
            "the machine or its interface is inconsistent"
        )
    return start


def invert_with_profile(machine: Machine, y: int, profile: GarbageProfile) -> InversionResult:
    """Invert by trying each known garbage configuration, smallest first.

    Only the configuration set is consulted, never the profile's per-output
    map: looking the answer up would not be an inversion. For a machine
    whose output function is not injective the first matching preimage wins
    and `unique_preimage` is False.
    """
    _check_output(machine, y)
    iface = machine.iface
    if (profile.input_bits, profile.garbage_bits) != (iface.input_width, iface.garbage_width):
        raise InvalidCircuitError(
            f"profile is of a machine with {profile.input_bits} input and "
            f"{profile.garbage_bits} garbage bits; this one has {iface.input_width} "
            f"and {iface.garbage_width}"
        )
    if not profile.configs:
        raise InvalidCircuitError("profile has no garbage configurations")
    for trials, config in enumerate(profile.configs, start=1):
        if not 0 <= config < (1 << iface.garbage_width):
            raise InvalidCircuitError(
                f"profile configuration {config} does not fit the "
                f"{iface.garbage_width}-bit garbage region"
            )
        start = _trial(machine, y, config)
        if start is not None:
            input_value = start.value_of(iface.input_lines)
            return InversionResult(input_value, trials, "table", config, profile.per_output is not None)
    raise NoMatchingConfigError(
        f"no garbage configuration matches output {y}: it is not in the machine's image"
    )


def invert_blind(
    machine: Machine,
    y: int,
    seed: int,
    max_trials: int | None = None,
    max_garbage_bits: int = EXHAUSTIVE_BOUND,
) -> InversionResult:
    """Invert by guessing garbage strings uniformly at random.

    Deterministic given `seed`. The default budget is 64 * 2^k trials, far
    past the 2^k expected for k garbage bits, so exhausting it on a machine
    whose output is actually in the image is astronomically unlikely.
    """
    k = machine.iface.garbage_width
    if k > max_garbage_bits:
        raise ExhaustiveBoundError(
            f"garbage region has {k} bits; refusing blind search beyond {max_garbage_bits}"
        )
    _check_output(machine, y)
    if max_trials is None:
        max_trials = 64 << k
    if max_trials < 1:
        raise ValueError("max_trials must be at least 1")
    rng = random.Random(seed)
    for trial in range(1, max_trials + 1):
        config = rng.getrandbits(k) if k else 0
        start = _trial(machine, y, config)
        if start is not None:
            return InversionResult(start.value_of(machine.iface.input_lines), trial, "blind", config)
    raise TrialBudgetExceededError(
        f"no consistent garbage string found for output {y} in {max_trials} trials "
        f"(k={k} garbage bits; expected cost grows as 2^k)",
        trials=max_trials,
    )
