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
really maps to the requested output.

Both inverters run their guesses backward in blocks, bit-sliced as
`truth_table` runs inputs forward: each line is one integer with a bit per
guess, so a gate costs one big-integer operation for the whole block. The
first accepted guess is the lowest set bit of the block's preset-line match,
so trials are still counted one guess at a time, and the blind draws are the
same seeded `getrandbits(k)` sequence a guess-by-guess search would make.
Only the accepted guess runs on single states: backward, and forward again
to confirm it before returning.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import islice, repeat
from typing import Iterator

from .ir import InvalidCircuitError, Machine
from .sim import EXHAUSTIVE_BOUND, BitState, ExhaustiveBoundError, _apply_gates, _region_columns, run
from .analysis import GarbageProfile

# A block of guesses holds each line as one integer with a bit per guess, and
# the guesses as integers and byte strings, one of each per guess; the caps
# keep each part near 1 MiB.
_BLOCK_BITS = 1 << 23
_BLOCK_GUESSES = 1 << 14


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


def _block_size(machine: Machine) -> int:
    """Guesses run backward together: max(64, 2^k), within the memory caps."""
    iface = machine.iface
    return min(max(64, 1 << iface.garbage_width), max(1, _BLOCK_BITS // iface.width), _BLOCK_GUESSES)


def _first_fit(machine: Machine, y: int, configs: list[int]) -> int | None:
    """Index of the first config whose backward run lands every preset line on its constant.

    Bit-sliced over the block: bit j of each line is its value in guess j.
    """
    iface = machine.iface
    full = (1 << len(configs)) - 1
    lines = [0] * iface.width
    for i, line in enumerate(iface.output_lines):
        lines[line] = full if y >> i & 1 else 0
    for line, column in zip(iface.garbage_lines, _region_columns(configs, iface.garbage_width)):
        lines[line] = column
    for line, const in iface.restored_lines:
        lines[line] = full if const else 0
    _apply_gates(lines, reversed(machine.circuit.gates), full)
    fits = full
    for line, const in iface.preset_lines:
        fits &= lines[line] if const else ~lines[line]
    return (fits & -fits).bit_length() - 1 if fits else None


def _search(
    machine: Machine, y: int, guesses: Iterator[int], budget: int
) -> tuple[int, int, BitState] | None:
    """The first of `budget` guesses that fits: its 1-based trial number, config and start state.

    Guesses are taken from `guesses` in order, a block at a time; the
    accepted one is confirmed by `_trial`.
    """
    block = _block_size(machine)
    done = 0
    while done < budget:
        configs = list(islice(guesses, min(block, budget - done)))
        hit = _first_fit(machine, y, configs)
        if hit is not None:
            return done + hit + 1, configs[hit], _trial(machine, y, configs[hit])
        done += len(configs)
    return None


def _trial(machine: Machine, y: int, config: int) -> BitState:
    """Confirm an accepted guess on single states; the start state it runs back to.

    The backward run from output `y` and garbage `config` must land every
    preset line on its constant, and the forward run from that start must
    give back `y` and `config`.
    """
    iface = machine.iface
    start = run(machine.circuit, _final_state(machine, y, config), "backward")
    final = run(machine.circuit, start)
    if any(start.bits[line] != const for line, const in iface.preset_lines) or (
        final.value_of(iface.output_lines) != y or final.value_of(iface.garbage_lines) != config
    ):
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
    configs = profile.configs
    # Configs before the first out-of-range one are tried; it is refused only if none fits.
    in_range = next(
        (j for j, config in enumerate(configs) if not 0 <= config < (1 << iface.garbage_width)),
        len(configs),
    )
    hit = _search(machine, y, iter(configs), in_range)
    if hit is not None:
        trials, config, start = hit
        input_value = start.value_of(iface.input_lines)
        return InversionResult(input_value, trials, "table", config, profile.per_output is not None)
    if in_range < len(configs):
        raise InvalidCircuitError(
            f"profile configuration {configs[in_range]} does not fit the "
            f"{iface.garbage_width}-bit garbage region"
        )
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
    hit = _search(machine, y, map(rng.getrandbits, repeat(k)), max_trials)
    if hit is not None:
        trials, config, start = hit
        return InversionResult(start.value_of(machine.iface.input_lines), trials, "blind", config)
    raise TrialBudgetExceededError(
        f"no consistent garbage string found for output {y} in {max_trials} trials "
        f"(k={k} garbage bits; expected cost grows as 2^k)",
        trials=max_trials,
    )
