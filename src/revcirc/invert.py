"""Recover an input from an output by running the machine backward.

A backward pass needs the whole final state, and the only unknown part is the
garbage region. Two strategies for supplying it:

* `invert_with_profile` walks the known reachable configurations in
  ascending order; the trial count is bounded by the configuration count.
* `invert_blind` guesses garbage strings uniformly at random; for k garbage
  bits the expected trial count is 2^k, which is the whole point of garbage
  as a defense.

A guess is accepted exactly when the backward pass lands every preset line on
its declared constant; reversibility then guarantees the recovered input
really maps to the requested output.

Guesses run backward a `sim._passes` chunk at a time, with a lane per guess,
and a guess fits where `sim._held` finds every preset line at its constant;
the fit table writes each chunk's fits bit 0 first with `sim._int_to_bits`.
`invert_blind` runs at most min(budget, 2^k) values backward: a budget of
2^k or more runs all 2^k values once, in one `sim._passes` walk, for the set
that fits, and reads the seeded `getrandbits(k)` draws against it (an empty
set ends the search before any draw); a smaller budget runs its draws
themselves. Every pass and draw block holds at most 2^`sim._CHUNK_BITS`
values, the bound every enumeration shares. Trials count single guesses. The
accepted guess's input is read from a one-lane backward `sim._run`; nothing
runs on single states. An output value in a message is written in decimal
only within `sim._decimal_bits()`, the bound every decimal writer shares.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import repeat
from operator import itemgetter
from typing import Sequence

from .ir import InvalidCircuitError, Machine
from . import sim
from .sim import EXHAUSTIVE_BOUND
from .sim import _decimal_bits, _held, _int_to_bits, _lane, _lane_value, _passes, _refuse_beyond, _run
from .analysis import GarbageProfile


class InversionError(Exception):
    """Base for inversion failures."""


class NoMatchingConfigError(InversionError):
    """No profiled garbage configuration produced a consistent backward pass."""


class TrialBudgetExceededError(InversionError):
    """Random guessing hit the trial budget; expected for many garbage bits."""

    def __init__(self, message: str, trials: int):
        super().__init__(message)
        self.trials = trials


@dataclass(frozen=True)
class InversionResult:
    """An inversion's answer and its cost.

    `unique_preimage` is True only where the search established that `input_value` is the one
    input mapping to the output: for the table method, that the profile found the output function
    injective; for the blind method, that exactly one garbage value fits the output in a fit table
    of all 2^k values. A budget short of 2^k runs no such table, so it reports False.
    """

    input_value: int
    trials: int
    method: str  # "table" or "blind"
    matched_config: int
    unique_preimage: bool

    def as_dict(self) -> dict:
        return {
            "input_value": self.input_value,
            "trials": self.trials,
            "method": self.method,
            "matched_config": self.matched_config,
            "unique_preimage": self.unique_preimage,
        }


def _named(value: int) -> str:
    """`value` in decimal where `str()` can write it, or else by its bit length."""
    return str(value) if value.bit_length() <= _decimal_bits() else f"of {value.bit_length()} bits"


def _check_output(machine: Machine, y: int) -> None:
    width = machine.iface.output_width
    if not 0 <= y < (1 << width):
        raise InvalidCircuitError(f"output value {_named(y)} does not fit the {width}-bit output region")


def _input_of(machine: Machine, y: int, config: int) -> int:
    """The input an accepted guess runs back to, from a one-lane backward `_run`."""
    iface = machine.iface
    state = _lane(y | config << iface.output_width, iface.output_width + iface.garbage_width)
    return _lane_value(_run(machine, state, 1, backward=True), iface.input_lines)


def _fit_table(machine: Machine, y: int) -> str:
    """Character g is "1" iff garbage value g fits output `y`, for all 2^k values.

    They go backward a `sim._passes` chunk at a time, in ascending order.
    """
    fits = ((full, _held(lines, machine.iface.preset_lines, full)) for full, lines in _passes(machine, y=y))
    return "".join(_int_to_bits(fit, full.bit_length()) for full, fit in fits)


def _first_fit(machine: Machine, y: int, guesses: Sequence[int]) -> int:
    """Index of the first guess that fits, or -1; runs them back a `sim._passes` chunk at a time."""
    presets, done = machine.iface.preset_lines, 0
    for full, lines in _passes(machine, guesses, y):
        fits = _held(lines, presets, full)
        if fits:
            return done + (fits & -fits).bit_length() - 1
        done += full.bit_length()
    return -1


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
    hit = _first_fit(machine, y, configs[:in_range])
    if hit >= 0:
        input_value = _input_of(machine, y, configs[hit])
        return InversionResult(input_value, hit + 1, "table", configs[hit], profile.per_output is not None)
    if in_range < len(configs):
        raise InvalidCircuitError(
            f"profile configuration {_named(configs[in_range])} does not fit the "
            f"{iface.garbage_width}-bit garbage region"
        )
    raise NoMatchingConfigError(
        f"no garbage configuration matches output {_named(y)}: it is not in the machine's image"
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

    Each garbage value that fits `y` runs back to a different preimage, so
    `unique_preimage` is True when a budget of at least 2^k (the default)
    finds exactly one value in its fit table. A smaller budget has not run
    every value and reports False.
    """
    k = machine.iface.garbage_width
    _refuse_beyond("garbage region", k, max_garbage_bits, "blind search")
    _check_output(machine, y)
    if max_trials is None:
        max_trials = 64 << k
    if max_trials < 1:
        raise ValueError("max_trials must be at least 1")
    # A budget short of 2^k runs its draws backward; a larger one reads them in a fit table.
    fit = _fit_table(machine, y) if max_trials >= 1 << k else None
    if fit is None or "1" in fit:
        rng = random.Random(seed)
        size = min(1 << k, 1 << sim._CHUNK_BITS)
        for done in range(0, max_trials, size):
            draws = list(map(rng.getrandbits, repeat(k, min(size, max_trials - done))))
            if fit is None:
                hit = _first_fit(machine, y, draws)
            else:
                hit = "".join(itemgetter(*draws)(fit)).find("1")  # one draw gives one character, which joins alike
            if hit >= 0:
                input_value = _input_of(machine, y, draws[hit])
                unique = fit is not None and fit.count("1") == 1
                return InversionResult(input_value, done + hit + 1, "blind", draws[hit], unique)
    raise TrialBudgetExceededError(
        f"no consistent garbage string found for output {_named(y)} in {max_trials} trials "
        f"(k={k} garbage bits; expected cost grows as 2^k)",
        trials=max_trials,
    )
