"""Exhaustive garbage-configuration profiling and growth classification.

The central measurement: run a machine on every input and collect the set of
values its garbage region can take. How that set grows with input size is
what separates algorithms whose backward runs can be steered from those
whose cannot, so the profiler is deliberately exact and the growth report is
explicitly labeled as an empirical desk-scale classification, never a
verdict about asymptotics.

`growth_report` counts configurations by splitting each chunk's input mask
by garbage column (`garbage_configs`), with no per-row table, so its memory
is bounded by the chunk, not by 2^n; a chunk that splits into too many masks
is read with `sim._transpose`, the one transpose. `garbage_profile` builds
the table, because its report carries the per-output map.
`GarbageProfile.digest` refuses a configuration wider than
`sim._decimal_bits()`, the bound every decimal writer shares.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .ir import Machine
from .sim import EXHAUSTIVE_BOUND, RestorationViolationError, check_enumeration_bound, truth_table
from .sim import _decimal_bits, _final_lines, _refuse_beyond, _transpose, _violation

# garbage_configs splits at most this many row masks per chunk, then transposes
# the chunk instead: the split costs two ANDs per mask and garbage line, so a
# chunk reaching thousands of configurations is faster to transpose.
_MAX_SPLIT_CONFIGS = 512


class InsufficientPointsError(ValueError):
    """Growth classification needs at least three profile points."""


@dataclass(frozen=True)
class GarbageProfile:
    """The set of garbage-region values a machine can leave behind.

    `configs` is sorted ascending. `per_output` maps each output value to its
    unique garbage value and is present only when the output function is
    injective; for many-to-one machines several garbage values can be
    "correct" per output, so no map is stored. `as_dict()` gives the map int
    keys in ascending order, whatever order it was built in; `json` writes
    them as their decimal strings.
    """

    machine_id: str
    input_bits: int
    garbage_bits: int
    configs: tuple[int, ...]
    per_output: dict[int, int] | None = None

    @property
    def config_count(self) -> int:
        return len(self.configs)

    def digest(self) -> str:
        """Stable hash of the sorted config set, for reproducible reports.

        Raises ExhaustiveBoundError if a configuration has more than 14,284 bits
        (fewer under a lower `str()` digit limit), which `str()` may not write in decimal.
        """
        import hashlib  # here, not at module level: most commands take no digest

        bits = max(self.configs, default=0).bit_length()
        _refuse_beyond("a garbage configuration", bits, _decimal_bits(), "to write it in decimal")
        configs = tuple(self.configs)  # `%` reads a tuple; a caller may pass a list
        body = f"{self.garbage_bits}:" + ",".join(["%d"] * len(configs)) % configs  # twice a str() join's speed
        return hashlib.sha256(body.encode()).hexdigest()[:16]

    def as_dict(self) -> dict:
        d = self._summary()
        if self.per_output is not None:
            d["per_output"] = {y: self.per_output[y] for y in sorted(self.per_output)}
        return d

    def _summary(self) -> dict:
        """`as_dict()` without its per_output map."""
        return {
            "machine_id": self.machine_id,
            "input_bits": self.input_bits,
            "garbage_bits": self.garbage_bits,
            "config_count": self.config_count,
            "configs": list(self.configs),
            "configs_digest": self.digest(),
        }


@dataclass(frozen=True)
class ClauseResult:
    name: str
    passed: bool
    witness: int | None = None
    detail: str = ""

    def as_dict(self) -> dict:
        d: dict = {"name": self.name, "passed": self.passed}
        if self.witness is not None:
            d["witness_input"] = self.witness
        if self.detail:
            d["detail"] = self.detail
        return d


@dataclass(frozen=True)
class ConformanceReport:
    """Pass/fail per interface clause, with a witnessing input on failure."""

    machine_id: str
    passed: bool
    clauses: tuple[ClauseResult, ...]

    def as_dict(self) -> dict:
        return {
            "machine_id": self.machine_id,
            "passed": self.passed,
            "clauses": [c.as_dict() for c in self.clauses],
        }

    @classmethod
    def from_outcome(
        cls, machine: Machine, machine_id: str, violation: RestorationViolationError | None
    ) -> ConformanceReport:
        """The report on `machine` given how its enumeration ended.

        `violation` is what `sim._violation` returns: the error for the first
        input on which a declared-restored line missed its constant, or None
        if every input held. `conformance` passes it on, and the CLI's
        `profile` passes what `garbage_profile` raised. The two partition
        clauses are structural, enforced when the interface was built, and
        re-stated for completeness.
        """
        restored = ClauseResult(
            "restored-constants", True, detail="" if machine.iface.restored_lines else "no restored lines declared"
        )
        if violation is not None:
            detail = f"line {violation.line} should hold {violation.const} but holds {violation.held}"
            restored = ClauseResult("restored-constants", False, violation.input_value, detail)
        clauses = (
            ClauseResult("initial-partition", True, detail="input and preset lines partition the width"),
            ClauseResult("final-partition", True, detail="output, garbage, and restored lines partition the width"),
            restored,
        )
        return cls(machine_id, all(c.passed for c in clauses), clauses)


@dataclass(frozen=True)
class GrowthReport:
    """Config counts across a family of sizes plus an empirical classification."""

    family: str
    points: tuple[tuple[int, int], ...]
    classification: str
    fit_details: dict

    def as_dict(self) -> dict:
        return {
            "family": self.family,
            "points": [[n, c] for n, c in self.points],
            "classification": self.classification,
            "fit_details": self.fit_details,
        }


def machine_id(machine: Machine, label: str | None = None) -> str:
    """A caller-supplied name, or a short stable hash of the canonical text."""
    if label is not None:
        return label
    import hashlib

    from .fileformat import serialize

    return hashlib.sha256(serialize(machine).encode()).hexdigest()[:12]


def garbage_profile(
    machine: Machine,
    label: str | None = None,
    max_input_bits: int = EXHAUSTIVE_BOUND,
) -> GarbageProfile:
    """Enumerate every input and collect the reachable garbage configurations.

    An empty garbage region still has exactly one configuration (the empty
    one, encoded as 0), so `config_count` is always at least 1.
    """
    table = truth_table(machine, max_input_bits)
    per_output = dict(zip(table.outputs, table.garbage))
    if len(per_output) != len(table.outputs):  # two inputs share an output: not injective
        per_output = None
    return GarbageProfile(
        machine_id=machine_id(machine, label),
        input_bits=table.input_width,
        garbage_bits=machine.iface.garbage_width,
        configs=tuple(sorted(set(table.garbage))),
        per_output=per_output,
    )


def garbage_configs(machine: Machine, max_input_bits: int = EXHAUSTIVE_BOUND) -> list[int]:
    """The sorted reachable garbage configurations, without a per-row table; raises as `truth_table`.

    In each chunk of inputs, each configuration keeps the mask of the inputs reaching it, and each
    garbage line splits every mask by its 0 and 1 rows. Past `_MAX_SPLIT_CONFIGS` masks it transposes
    the chunk with `_transpose` instead. The result is the union over the chunks.
    """
    configs: set[int] = set()
    for full, lines in _final_lines(machine, max_input_bits):
        columns = [lines[line] for line in machine.iface.garbage_lines]
        masks = {0: full}
        for bit, column in enumerate(columns):
            if len(masks) > _MAX_SPLIT_CONFIGS // 2:
                configs.update(_transpose(columns, full.bit_length()))
                break
            split = {}
            while masks:  # popped, so a mask is freed once split
                config, mask = masks.popitem()
                split[config | 1 << bit], split[config] = mask & column, mask & ~column
            masks = {config: mask for config, mask in split.items() if mask}
        else:
            configs.update(masks)
    return sorted(configs)


def conformance(
    machine: Machine,
    label: str | None = None,
    max_input_bits: int = EXHAUSTIVE_BOUND,
) -> ConformanceReport:
    """Check the interface declaration against actual behavior on every input.

    The report on `sim._violation`, the bit-sliced pass that verifies the
    restored lines on every input with no transpose: it names the first input
    on which a declared-restored line fails to hold its constant.
    """
    return ConformanceReport.from_outcome(machine, machine_id(machine, label), _violation(machine, max_input_bits))


def classify_growth(points: Sequence[tuple[int, int]]) -> tuple[str, dict]:
    """Empirical growth label for (size, count) points, most specific first.

    Order of tests: exact constancy, exact affine growth, a constant
    log-count increment per size step (the signature of exponential growth),
    then a log-log power-law fit. Everything is desk-scale curve reading,
    and the details say so.
    """
    pts = sorted(set((int(n), int(c)) for n, c in points))
    if len(pts) < 3:
        raise InsufficientPointsError(f"need at least 3 distinct (size, count) points, got {len(pts)}")
    for (n, c), (m, d) in zip(pts, pts[1:]):
        if n == m:
            raise ValueError(f"size {n} has two counts, {c} and {d}")
    ns = [n for n, _ in pts]
    cs = [c for _, c in pts]
    details: dict = {"basis": "empirical at desk scale", "points_used": len(pts)}

    if len(set(cs)) == 1:
        return "constant", details

    # Affine exactly when every point's rise over run from the first equals the
    # second point's, compared cross-multiplied in ints (every run is positive).
    rise, run = cs[1] - cs[0], ns[1] - ns[0]
    if all((cs[i] - cs[0]) * run == rise * (ns[i] - ns[0]) for i in range(2, len(pts))):
        details["slope"] = rise / run  # int true division rounds correctly, as float(Fraction) does
        return "linear", details

    # Exponential signature: log-count grows by the same amount per unit size.
    ys = _logs(pts, 1, "count")
    rates = [(ys[i + 1] - ys[i]) / (ns[i + 1] - ns[i]) for i in range(len(pts) - 1)]
    mean_rate = sum(rates) / len(rates)
    spread = max(abs(r - mean_rate) for r in rates)
    details["log_growth_per_size"] = round(mean_rate, 6)
    if mean_rate >= math.log(1.4) and spread <= 0.15 * abs(mean_rate):
        details["doubling_base"] = round(math.exp(mean_rate), 4)
        return "superpolynomial-suspect", details

    # Power-law fit: least squares on log count vs log size.
    xs = _logs(pts, 0, "size")
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


def _logs(pts: Sequence[tuple[int, int]], index: int, what: str) -> list[float]:
    """The log of every point's size (index 0) or count (1); refuses the first point where it is below 1."""
    for point in pts:
        if point[index] < 1:
            raise ValueError(f"point {point} has {what} {point[index]}, below 1: its log is undefined")
    return [math.log(point[index]) for point in pts]


def growth_report(
    family: Callable[[int], Machine],
    n_range: Sequence[int],
    family_name: str | None = None,
    max_input_bits: int = EXHAUSTIVE_BOUND,
) -> GrowthReport:
    """Count a family's garbage configurations across sizes and classify the growth.

    Sizes are built in ascending order and each is checked against the
    enumeration bound as it is built, before any is enumerated. An oversized
    range is refused at its first size over the bound, having cost only the
    sizes up to that one; an ascending `range` is not even listed.
    """
    if isinstance(n_range, range) and n_range.step > 0:
        sizes: Sequence[int] = n_range  # already ascending and distinct
    else:
        sizes = sorted(set(int(n) for n in n_range))
    if len(sizes) < 3:
        raise InsufficientPointsError(f"need at least 3 sizes, got {len(sizes)}")
    machines = []
    for n in sizes:
        machine = family(n)
        check_enumeration_bound(machine.iface.input_width, max_input_bits)
        machines.append(machine)
    points = tuple(
        (n, len(garbage_configs(m, max_input_bits))) for n, m in zip(sizes, machines)
    )
    classification, details = classify_growth(points)
    return GrowthReport(
        family=family_name or getattr(family, "__name__", "family"),
        points=points,
        classification=classification,
        fit_details=details,
    )
