"""Host-speed probe: the benchmark's timings in seconds at a fixed reference speed.

The benchmark runs on a few cores of a shared host whose speed moves by up
to 1.9x, in spells of seconds to minutes; CPU time moves with wall time, so
the slowdown is the host's, not the scheduler's. No estimator over the
program's own timings removes a spell that covers a whole run.

So every timed command is bracketed by a short, fixed piece of pure-Python
work, the probe, whose cost never changes: a toy gate-list simulator, close
in kind to what revcirc spends its time on (bytecode dispatch, small lists,
tuples, a dict). ``scaled`` turns a measured time into seconds on a host
where the probe takes ``REFERENCE_S``, using the probes run just before and
just after it. On one 180 s trace of ``enum-profile`` rounds, per-command
spread (IQR/median over rounds) fell from 0.32-0.48 raw to 0.09-0.19
scaled, and the 30 s windows' sums of per-command medians from 0.13 to 0.05.

The probe is part of the benchmark, never of the program: an optimisation
of revcirc leaves it unchanged, so it shows in full in the scaled times.
"""
from __future__ import annotations

import math
import time

# Probe time on the reference host; scaled times are seconds at this speed.
# It is the probe's typical time on a quiet 2-vCPU KVM guest, Python 3.11.
REFERENCE_S = 0.002

_LINES = 12
_GATES = tuple((i % _LINES, (i * 5 + 1) % _LINES, (i * 7 + 3) % _LINES) for i in range(36))


def _simulate() -> int:
    table = {}
    for x in range(768):
        bits = [(x >> i) & 1 for i in range(_LINES)]
        for c1, c2, t in _GATES:
            if bits[c1] and bits[c2]:
                bits[t] ^= 1
        table[x] = tuple(bits)
    return len(table)


def probe() -> float:
    """Seconds one run of the fixed probe work takes now."""
    start = time.perf_counter()
    _simulate()
    return time.perf_counter() - start


def scaled(seconds: float, before: float, after: float) -> float:
    """`seconds` measured between probes `before` and `after`, at the reference speed."""
    return seconds * REFERENCE_S / math.sqrt(before * after)
