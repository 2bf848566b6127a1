"""The benchmark's workloads: CLI command lists generated from a seed.

Each workload is a fixed list of ``revcirc`` command lines plus the set-up
commands that write its input circuits. A run repeats the list ("a round")
until its time is up. The seed picks the values fed to the commands; sizes
are fixed per workload so that every seed asks for the same amount of work.

* ``enum-profile``: exhaustive enumeration (2^n forward runs times the gate
  count) in ``sim`` and ``analysis``: ``profile``, ``growth``, ``table`` and
  table-method ``invert``. A whole-table evaluation core must show here.
* ``invert-blind``: hundreds of short ``invert --blind`` commands, each a
  few hundred single-state backward runs; it never enumerates.
* ``build-large``: ``gen``, ``bennett``, ``inverse``, ``zg-compose`` and
  single-state ``sim`` on circuits with thousands of gates; the cost is
  parsing, validation, remapping and serialization, linear in gate count.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from pathlib import Path

import checks

WORKLOADS = ("enum-profile", "invert-blind", "build-large")

SIZES = {
    "full": {
        "profile_add": 7,
        "profile_incr": 14,
        "growth_incr": (2, 13),
        "growth_add": (2, 7),
        "table_incr": 12,
        "invert_incr": (10, 11, 12),
        "blind_add": (9, 10),
        "blind_per_size": 100,
        "large_incr": 3000,
        "large_add": 2000,
        "zg_small": 10,
    },
    "smoke": {
        "profile_add": 3,
        "profile_incr": 5,
        "growth_incr": (2, 5),
        "growth_add": (2, 4),
        "table_incr": 4,
        "invert_incr": (4, 5),
        "blind_add": (4, 5),
        "blind_per_size": 6,
        "large_incr": 40,
        "large_add": 30,
        "zg_small": 4,
    },
}

# Blind-inversion trial counts are geometric with mean 2^k. Each command is
# drawn to land within this share of a fixed quantile of that distribution,
# so every seed's round carries the same trial work and latency spread.
TRIAL_TOLERANCE = 0.02


@dataclass
class Command:
    argv: list[str]
    expect: dict  # what checks.check needs; expect["kind"] names the command kind
    rows: int = 0  # Σ 2^input_bits over inputs the command must cover
    gates: int = 0  # gates in every circuit the command reads or writes
    trials: int = 0  # inversion trials the command must report


@dataclass
class Plan:
    workload: str
    setup: list[list[str]] = field(default_factory=list)  # gen commands writing inputs
    commands: list[Command] = field(default_factory=list)

    def total(self, what: str, kind: str | None = None) -> int:
        """Σ of a Command field ("rows", "gates", "trials") over one round, or over one kind."""
        return sum(getattr(c, what) for c in self.commands if kind in (None, c.expect["kind"]))


def build(workload: str, seed: int, work: Path, size: str = "full") -> Plan:
    """The command plan for `workload`, with inputs written under `work`."""
    rng = random.Random(f"{workload}:{seed}")
    builder = {
        "enum-profile": _enum_profile,
        "invert-blind": _invert_blind,
        "build-large": _build_large,
    }[workload]
    plan = Plan(workload)
    builder(plan, rng, work, SIZES[size])
    return plan


def _gen(plan: Plan, work: Path, kind: str, n: int) -> str:
    path = str(work / f"{kind}{n}.rvc")
    argv = ["gen", kind, "--bits", str(n), "-o", path]
    if argv not in plan.setup:
        plan.setup.append(argv)
    return path


def _gates(kind: str, n: int) -> int:
    return checks.circuit_shape(kind, n)[1]


def _enum_profile(plan: Plan, rng: random.Random, work: Path, s: dict) -> None:
    n = s["profile_add"]
    path = _gen(plan, work, "add", n)
    plan.commands.append(Command(
        ["profile", "-c", path, "--json"],
        {"kind": "profile", "family": "add", "n": n},
        rows=1 << (2 * n), gates=_gates("add", n),
    ))
    n = s["profile_incr"]
    path = _gen(plan, work, "incr", n)
    plan.commands.append(Command(
        ["profile", "-c", path, "--json"],
        {"kind": "profile", "family": "incr", "n": n},
        rows=1 << n, gates=_gates("incr", n),
    ))
    for family, (lo, hi), bits_per_size in (
        ("incr", s["growth_incr"], 1),
        ("adder", s["growth_add"], 2),
    ):
        plan.commands.append(Command(
            ["growth", "--family", family, "--from", str(lo), "--to", str(hi), "--json"],
            {"kind": "growth", "family": family, "from": lo, "to": hi},
            rows=sum(1 << (bits_per_size * m) for m in range(lo, hi + 1)),
        ))
    n = s["table_incr"]
    path = _gen(plan, work, "incr", n)
    plan.commands.append(Command(
        ["table", "-c", path, "--json"],
        {"kind": "table", "n": n},
        rows=1 << n, gates=_gates("incr", n),
    ))
    for n in s["invert_incr"]:
        path = _gen(plan, work, "incr", n)
        y = rng.randrange(1 << n)
        x = (y - 1) % (1 << n)
        trials = checks.incr_configs(n).index(checks.incr_carries(n, x)) + 1
        plan.commands.append(Command(
            ["invert", "-c", path, "--int", str(y), "--json"],
            {"kind": "invert-table", "n": n, "y": y},
            rows=1 << n, gates=_gates("incr", n), trials=trials,
        ))


def _trial_targets(k: int, count: int) -> list[int]:
    """Trial counts at the midpoint quantiles of a geometric(2^-k) distribution."""
    q = math.log1p(-1.0 / (1 << k))
    return [max(1, math.ceil(math.log1p(-(i + 0.5) / count) / q)) for i in range(count)]


def _blind_picks(rng: random.Random, k: int, count: int) -> list[tuple[int, int, int]]:
    """(seed, carry config, trials) triples whose trials match the target quantiles.

    One seed's draw sequence fixes the first-occurrence index of every
    config at once, so each candidate seed offers 2^k (config, trials) pairs;
    each seed is used for one command, rarest target first.
    """
    bands = []
    for t in _trial_targets(k, count):
        bands.append((math.floor(t * (1 - TRIAL_TOLERANCE)), math.ceil(t * (1 + TRIAL_TOLERANCE))))
    limit = max(hi for _, hi in bands)
    open_slots = sorted(range(count), key=lambda i: -bands[i][1])
    picks: list[tuple[int, int, int]] = []
    while open_slots:
        seed = rng.getrandbits(31)
        draw = random.Random(seed).getrandbits
        config_at: dict[int, int] = {}
        seen: set[int] = set()
        for trial in range(1, limit + 1):
            config = draw(k)
            if config not in seen:
                seen.add(config)
                config_at[trial] = config
        for slot in open_slots:
            lo, hi = bands[slot]
            hits = [t for t in range(lo, hi + 1) if t in config_at]
            if hits:
                t = rng.choice(hits)
                picks.append((seed, config_at[t], t))
                open_slots.remove(slot)
                break
    return picks


def _adder_input(rng: random.Random, n: int, carries: int) -> tuple[int, int]:
    """Random (a, b) whose ripple-carry chain produces exactly `carries`."""
    a = b = 0
    carry_in = 0
    for i in range(n):
        if i < n - 1:
            carry_out = (carries >> i) & 1
            pairs = [(x, y) for x in (0, 1) for y in (0, 1) if (x + y + carry_in >= 2) == carry_out]
        else:
            carry_out, pairs = 0, [(0, 0), (0, 1), (1, 0), (1, 1)]
        x, y = rng.choice(pairs)
        a |= x << i
        b |= y << i
        carry_in = carry_out
    return a, b


def _invert_blind(plan: Plan, rng: random.Random, work: Path, s: dict) -> None:
    for n in s["blind_add"]:
        path = _gen(plan, work, "add", n)
        k = n - 1
        for seed, carries, trials in _blind_picks(rng, k, s["blind_per_size"]):
            a, b = _adder_input(rng, n, carries)
            y = ((a + b) & ((1 << n) - 1)) | (b << n)
            plan.commands.append(Command(
                ["invert", "-c", path, "--int", str(y), "--blind", "--seed", str(seed), "--json"],
                {"kind": "invert-blind", "n": n, "y": y, "seed": seed},
                gates=_gates("add", n), trials=trials,
            ))
    rng.shuffle(plan.commands)


def _build_large(plan: Plan, rng: random.Random, work: Path, s: dict) -> None:
    def written(argv, kind, shape, n, read=0, rows=0):
        path = argv[argv.index("-o") + 1]
        plan.commands.append(Command(
            argv + ["--json"],
            {"kind": kind, "shape": shape, "n": n, "path": path},
            rows=rows, gates=read + _gates(shape, n),
        ))
        return path

    def gen(kind, n):
        return written(["gen", kind, "--bits", str(n), "-o", str(work / f"{kind}{n}.rvc")], "gen", kind, n)

    n, m, small = s["large_incr"], s["large_add"], s["zg_small"]
    incr, decr, add = gen("incr", n), gen("decr", n), gen("add", m)
    written(["bennett", "-c", add, "-o", str(work / "bennett.rvc")], "bennett", "bennett-add", m,
            read=_gates("add", m))
    written(["inverse", "-c", incr, "-o", str(work / "inverse.rvc")], "inverse", "inverse-incr", n,
            read=_gates("incr", n))
    zg = written(["zg-compose", "--forward", incr, "--inverse", decr, "-o", str(work / "zg.rvc")],
                 "zg-compose", "zg-incr", n, read=_gates("incr", n) + _gates("decr", n))
    incr_s, decr_s = gen("incr", small), gen("decr", small)
    # Small enough for zg-compose to verify the pair by enumerating both tables.
    written(["zg-compose", "--forward", incr_s, "--inverse", decr_s, "-o", str(work / "zg_small.rvc")],
            "zg-compose", "zg-incr", small, read=_gates("incr", small) + _gates("decr", small),
            rows=2 << small)

    width, zg_gates, _ = checks.circuit_shape("zg-incr", n)
    extra = width - n
    x, y = rng.getrandbits(n), rng.getrandbits(n)
    plan.commands.append(Command(
        ["sim", "-c", zg, "--int", str(x), "--json"],
        {"kind": "sim", "n": n, "x": x, "extra_lines": extra},
        gates=zg_gates,
    ))
    plan.commands.append(Command(
        ["sim", "-c", zg, "--backward", "-x", checks.bits(y, n) + "0" * extra, "--json"],
        {"kind": "sim-backward", "n": n, "y": y, "extra_lines": extra},
        gates=zg_gates,
    ))
