"""Independent answer checker for the benchmark's CLI reports.

Every expectation here is a closed form worked out from the definitions of
the library machines and transforms, never from revcirc's own output:

* ``incrementer(n)`` maps x to (x + 1) mod 2^n; its n - 2 carry lines end
  as 2^j - 1, where j + 1 is the number of trailing ones of x (capped), so
  it has n - 1 reachable configurations.
* ``ripple_adder(n)`` maps (a, b) to ((a + b) mod 2^n, b); its n - 1 carry
  lines end as the carries into positions 1..n-1, so it has 2^(n-1)
  configurations.
* a blind inversion's trial count is the 1-based index of the first
  ``random.Random(seed).getrandbits(k)`` draw equal to the preimage's carries.
* gate counts and widths of generated and transformed circuits follow from
  the constructions, and written files are re-read with a parser of our own.

``check`` returns a list of problems; an empty list means the report is right.
"""
from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

# --- closed forms ---------------------------------------------------------


def incr_carries(n: int, x: int) -> int:
    """Garbage value incrementer(n) leaves for input x."""
    trailing_ones = (x ^ (x + 1)).bit_length() - 1
    j = min(n - 2, max(0, trailing_ones - 1))
    return (1 << j) - 1


def incr_configs(n: int) -> list[int]:
    return [(1 << j) - 1 for j in range(n - 1)]


def adder_carries(n: int, a: int, b: int) -> int:
    """Garbage value ripple_adder(n) leaves for (a, b): carries into bits 1..n-1."""
    return (((a + b) ^ a ^ b) >> 1) & ((1 << (n - 1)) - 1)


def adder_preimage(n: int, y: int) -> tuple[int, int]:
    """The (a, b) that ripple_adder(n) maps to output value y."""
    mask = (1 << n) - 1
    s, b = y & mask, y >> n
    return (s - b) & mask, b


def blind_trials(seed: int, k: int, config: int) -> int | None:
    """Index of the first seeded draw equal to `config`, or None past the 64 * 2^k budget."""
    draw = random.Random(seed).getrandbits
    for trial in range(1, (64 << k) + 1):
        if (draw(k) if k else 0) == config:
            return trial
    return None


def bits(value: int, width: int) -> str:
    """Little-endian bit string: first character is bit 0."""
    return "".join("1" if (value >> i) & 1 else "0" for i in range(width))


def digest(garbage_bits: int, configs: list[int]) -> str:
    body = f"{garbage_bits}:" + ",".join(str(c) for c in configs)
    return hashlib.sha256(body.encode()).hexdigest()[:16]


def circuit_shape(kind: str, n: int) -> tuple[int, int, int]:
    """(width, gates, garbage lines) of a generated or derived circuit."""
    return {
        "incr": (2 * n - 2, 2 * n - 2, n - 2),
        "decr": (2 * n - 2, 4 * n - 2, n - 2),
        "add": (3 * n - 1, 5 * n - 6, n - 1),
        # bennett(ripple_adder(n)): 2n fresh output copies, input left as garbage
        "bennett-add": (5 * n - 1, 2 * (5 * n - 6) + 2 * n, 2 * n),
        # inverse_machine(incrementer(n)): unrestored carry presets become garbage
        "inverse-incr": (2 * n - 2, 2 * n - 2, n - 2),
        # zero_garbage_compose(incrementer(n), decrementer(n))
        "zg-incr": (3 * n - 2, 2 * (2 * n - 2) + 2 * (4 * n - 2) + 2 * n, 0),
    }[kind]


def read_shape(path: Path) -> tuple[int, int, int]:
    """(width, gates, garbage lines) of an .rvc file, by a minimal reader."""
    width = garbage = -1
    gates = 0
    with open(path) as fh:
        for line in fh:
            tokens = line.split("#", 1)[0].split()
            if not tokens:
                continue
            if tokens[0] == "gate":
                gates += 1
            elif tokens[0] == "width":
                width = int(tokens[1])
            elif tokens[0] == "garbage":
                garbage = len(tokens) - 1
    return width, gates, max(garbage, 0)


# --- report checks ----------------------------------------------------------


def _short(value) -> str:
    text = repr(value)
    return text if len(text) <= 80 else f"{text[:38]}...{text[-38:]}"


def _expect(problems: list[str], what: str, got, want) -> None:
    if got != want:
        problems.append(f"{what}: got {_short(got)}, want {_short(want)}")


def _check_profile(p: list[str], rep: dict, family: str, n: int) -> None:
    if family == "incr":
        inputs, k, configs = n, n - 2, incr_configs(n)
        want_map = {(x + 1) % (1 << n): incr_carries(n, x) for x in range(1 << n)}
    else:
        inputs, k, configs = 2 * n, n - 1, list(range(1 << (n - 1)))
        mask = (1 << n) - 1
        want_map = {}
        for b in range(1 << n):
            for a in range(1 << n):
                want_map[((a + b) & mask) | (b << n)] = adder_carries(n, a, b)
    _expect(p, "input_bits", rep.get("input_bits"), inputs)
    _expect(p, "garbage_bits", rep.get("garbage_bits"), k)
    _expect(p, "config_count", rep.get("config_count"), len(configs))
    _expect(p, "configs", rep.get("configs"), configs)
    _expect(p, "configs_digest", rep.get("configs_digest"), digest(k, configs))
    per_output = rep.get("per_output") or {}
    _expect(p, "per_output size", len(per_output), len(want_map))
    bad = [y for y, g in want_map.items() if per_output.get(str(y)) != g]
    if bad:
        p.append(f"per_output wrong for {len(bad)} outputs, first y={bad[0]}")


def _check_written(p: list[str], rep: dict, cmd: dict) -> None:
    width, gates, garbage = circuit_shape(cmd["shape"], cmd["n"])
    _expect(p, "width", rep.get("width"), width)
    _expect(p, "gates", rep.get("gates"), gates)
    _expect(p, "garbage_lines", rep.get("garbage_lines"), garbage)
    _expect(p, "file shape", read_shape(Path(cmd["path"])), (width, gates, garbage))


def check(expect: dict, code: int, out: str) -> list[str]:
    """Problems with one command's exit code and JSON report."""
    if code != 0:
        return [f"exit code {code}, want 0"]
    try:
        rep = json.loads(out)
    except ValueError as exc:
        return [f"stdout is not one JSON object: {exc}"]
    p: list[str] = []
    kind = expect["kind"]
    _expect(p, "command", rep.get("command"), kind.split("-")[0] if kind != "zg-compose" else kind)
    if kind == "profile":
        _check_profile(p, rep, expect["family"], expect["n"])
        _expect(p, "conformance passed", (rep.get("conformance") or {}).get("passed"), True)
    elif kind == "growth":
        lo, hi, family = expect["from"], expect["to"], expect["family"]
        if family == "incr":
            points, label = [[n, n - 1] for n in range(lo, hi + 1)], "linear"
        else:
            points, label = [[n, 1 << (n - 1)] for n in range(lo, hi + 1)], "superpolynomial-suspect"
        _expect(p, "family", rep.get("family"), family)
        _expect(p, "points", rep.get("points"), points)
        _expect(p, "classification", rep.get("classification"), label)
    elif kind == "table":
        n = expect["n"]
        rows = [
            {"input": x, "output": (x + 1) % (1 << n), "garbage": incr_carries(n, x)}
            for x in range(1 << n)
        ]
        _expect(p, "input_bits", rep.get("input_bits"), n)
        _expect(p, "injective", rep.get("injective"), True)
        _expect(p, "rows", rep.get("rows"), rows)
    elif kind == "invert-table":
        n, y = expect["n"], expect["y"]
        x = (y - 1) % (1 << n)
        config = incr_carries(n, x)
        configs = incr_configs(n)
        trials = configs.index(config) + 1
        _expect(p, "method", rep.get("method"), "table")
        _expect(p, "output_value", rep.get("output_value"), y)
        _expect(p, "input_value", rep.get("input_value"), x)
        _expect(p, "trials", rep.get("trials"), trials)
        _expect(p, "matched_config", rep.get("matched_config"), config)
        _expect(p, "unique_preimage", rep.get("unique_preimage"), True)
        _expect(p, "input_bits string", rep.get("input_bits"), bits(x, n))
        _expect(
            p,
            "attempts",
            rep.get("attempts"),
            [{"config": c, "accepted": i == trials - 1} for i, c in enumerate(configs[:trials])],
        )
        _check_profile(p, rep.get("profile") or {}, "incr", n)
    elif kind == "invert-blind":
        n, y = expect["n"], expect["y"]
        a, b = adder_preimage(n, y)
        _expect(p, "method", rep.get("method"), "blind")
        _expect(p, "output_value", rep.get("output_value"), y)
        _expect(p, "seed", rep.get("seed"), expect["seed"])
        _expect(p, "input_value", rep.get("input_value"), a | (b << n))
        _expect(p, "matched_config", rep.get("matched_config"), adder_carries(n, a, b))
        _expect(p, "trials", rep.get("trials"), blind_trials(expect["seed"], n - 1, adder_carries(n, a, b)))
    elif kind in ("gen", "bennett", "inverse", "zg-compose"):
        _check_written(p, rep, expect)
    elif kind == "sim":
        n, x = expect["n"], expect["x"]
        y = (x + 1) % (1 << n)
        _expect(p, "direction", rep.get("direction"), "forward")
        _expect(p, "input_value", rep.get("input_value"), x)
        _expect(p, "output_value", rep.get("output_value"), y)
        _expect(p, "garbage_value", rep.get("garbage_value"), 0)
        _expect(p, "final_state", rep.get("final_state"), bits(y, n) + "0" * expect["extra_lines"])
    elif kind == "sim-backward":
        n, y = expect["n"], expect["y"]
        x = (y - 1) % (1 << n)
        _expect(p, "direction", rep.get("direction"), "backward")
        _expect(p, "input_value", rep.get("input_value"), x)
        _expect(p, "presets_consistent", rep.get("presets_consistent"), True)
        _expect(p, "initial_state", rep.get("initial_state"), bits(x, n) + "0" * expect["extra_lines"])
    else:
        p.append(f"no check for command kind {kind!r}")
    return p


# Field each report kind is corrupted in, to show the checker catches it.
CORRUPTIBLE = {
    "profile": ("config_count",),
    "growth": ("points", -1, 1),
    "table": ("rows", -1, "output"),
    "invert-table": ("trials",),
    "invert-blind": ("trials",),
    "gen": ("gates",),
    "bennett": ("gates",),
    "inverse": ("gates",),
    "zg-compose": ("gates",),
    "sim": ("output_value",),
    "sim-backward": ("input_value",),
}


def corrupt(kind: str, out: str) -> str:
    """The report with one checked integer field off by one."""
    rep = json.loads(out)
    *path, last = CORRUPTIBLE[kind]
    node = rep
    for key in path:
        node = node[key]
    node[last] += 1
    return json.dumps(rep)
