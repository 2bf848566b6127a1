"""Command-line surface tying simulation, transforms, profiling, and inversion together.

Every command reads/writes the .rvc format, prints a human-readable report by
default, and a single JSON object with `--json`. Bitstrings on the command
line are little-endian with respect to the region's declared line order: the
leftmost character is the region's first listed line, which is bit 0 of the
integer encoding; `sim._int_to_bits` writes every such bitstring a report
prints. Every pass is one `sim._run`, except that `sim --backward` runs the
gates back from the whole state it is given.

Exit codes: 0 success, 1 usage error, 2 invalid circuit or document,
3 inversion failure, 4 exhaustive bound exceeded (or a region too wide for a
report to write its values in decimal: wider than `sim._decimal_bits()`).

The options several commands share (`-c/--circuit`, `-o/--output`, `--json`)
are each declared once, as are the type of an existing document, which
`-c/--circuit`, `--forward` and `--inverse` read, and `_FAMILIES`, the table
of library families that `gen` writes and `growth` profiles. A command
refuses every option it can judge without the document (`-x`/`-y` against
`--int`, `--backward` with `--int`, `--max-trials` below 1) before it reads
the document, so such a usage error costs no parse and wins over an invalid
document. `_region_value` then reads the `-x`/`-y` bits or the `--int` value
against the region's width. Every command writes its one report through
`_emit`.

`main` hands an argv that names a command straight to that command, whose
context is then the only one built; its name, "revcirc COMMAND", is the
command path the group would give it, so usage lines and help read the same.
The group's context is built only for an argv that names no command: none at
all, `--help`, an unknown command, or an option before the command.

`main` runs each command with the cyclic garbage collector paused and
restores its previous state on every exit: reference counting frees all a
command builds but the few dozen small objects of the cycle that `json`'s
encoder forms when `--json` sets `indent`, which hold no report text; a
collection would only rescan the live gates of a large document.
"""
from __future__ import annotations

import gc
import json
import sys

import click

from . import library
from .analysis import ConformanceReport, GarbageProfile, garbage_profile, growth_report, machine_id
from .fileformat import parse_circuit, serialize
from .invert import InversionError, invert_blind, invert_with_profile
from .ir import InterfaceSpec, InvalidCircuitError, Machine, inverse_machine
from .sim import (
    EXHAUSTIVE_BOUND,
    ExhaustiveBoundError,
    RestorationViolationError,
    check_enumeration_bound,
    is_injective,
    truth_table,
)
from .sim import _apply_gates, _decimal_bits, _held, _int_to_bits, _lane, _lane_value, _refuse_beyond, _run
from .transforms import bennett, zero_garbage_compose


def _load(path: str) -> Machine:
    """The machine of the document at `path`, read in one binary read and decoded once.

    `parse_circuit` splits lines at every boundary `str.splitlines` knows, so the CR LF and lone CR line
    ends that a text-mode read would turn into LF give the same machine, or the same refusal.
    """
    try:
        with open(path, "rb", buffering=0) as fh:
            text = fh.read().decode("utf-8")  # no name holds the bytes, so they are freed before the parse
    except UnicodeDecodeError as exc:
        raise InvalidCircuitError(f"{path} is not UTF-8 text: {exc}") from exc
    return parse_circuit(text)


def _region_value(bits: str | None, value: int | None, what: str, width: int) -> int:
    """The value of the `width`-bit `what` given as `-x`/`-y` bits or, where `bits` is None, as `--int`."""
    if bits is not None:
        if len(bits) != width or bits.strip("01"):
            raise click.UsageError(f"expected {width} characters of 0/1 for the {what}, got {bits!r}")
        return int(bits[::-1] or "0", 2)  # base 2 has no digit limit
    if not 0 <= value < (1 << width):
        raise click.UsageError(f"{what.split()[0]} value {value} does not fit {width} bits")
    return value


# A table row as `json.dumps(indent=2)` writes it in the report's "rows" list.
_ROW = '{\n      "input": %d,\n      "output": %d,\n      "garbage": %d\n    }'

# `json` writes the NUL standing for a section as this text, after the space of its `": "` or its list
# indent. Inside a string a space is never followed by a bare quote, so only a key or string that is
# a lone NUL could also match, and no report holds one: its keys are fixed names, and its strings are
# bits, digests, fixed words, messages and output paths that `open` accepted, which hold no NUL.
_HOLE = ' "\\u0000"'


class _Json:
    """A report section already written as `json.dumps(indent=2)` text at its indent; `_dumps` puts it in place."""

    __slots__ = ("text",)

    def __init__(self, text: str) -> None:
        self.text = text


def _check_decimal(iface: InterfaceSpec, *regions: str) -> None:
    """Refuse, before any run, a report writing values of a region too wide for `str()` in decimal."""
    for region in regions:
        bits = getattr(iface, f"{region}_width")
        _refuse_beyond(f"{region} region", bits, _decimal_bits(), "to write its values in decimal")


def _repeated(item: str, pad: str, brackets: str, *columns) -> _Json:
    """The `%` template `item` once per row of `columns`, as a container at indent `pad`.

    One `%` fills the copies with the columns' items in turn, `a[0], b[0], a[1], b[1], ...`; the first
    column gives the row count.
    """
    count = len(columns[0])
    if not count:
        return _Json(brackets)
    fields = [0] * (len(columns) * count)
    for i, column in enumerate(columns):
        fields[i :: len(columns)] = column
    inner = pad + "  "
    body = f",\n{inner}".join([item] * count) % tuple(fields)
    return _Json(f"{brackets[0]}\n{inner}{body}\n{pad}{brackets[1]}")


def _dumps(report: dict) -> str:
    """Exactly `json.dumps(report, indent=2)`, with each `_Json` section's text standing for its value.

    `json` cannot encode a `_Json`, so it calls `hole`, which keeps the section and has a NUL written in its place.
    """
    sections: list[_Json] = []

    def hole(section: _Json) -> str:
        sections.append(section)
        return "\0"

    parts = json.dumps(report, indent=2, default=hole).split(_HOLE)
    pieces = [piece for part, section in zip(parts, sections) for piece in (part, " ", section.text)]
    sections.clear()  # `json`'s encoder keeps `hole` in a cycle, which `main`'s paused collector leaves
    return "".join(pieces + parts[-1:])


def _profile_section(prof: GarbageProfile, pad: str) -> dict:
    """`prof.as_dict()` as a report section at indent `pad`, its configs and per_output map written as `_Json`."""
    section = prof._summary()
    section["configs"] = _repeated("%d", pad + "  ", "[]", prof.configs)
    if prof.per_output is not None:
        ys = sorted(prof.per_output)
        section["per_output"] = _repeated('"%d": %d', pad + "  ", "{}", ys, map(prof.per_output.__getitem__, ys))
    return section


def _emit(report: dict, as_json: bool, human: list[str]) -> None:
    click.echo(_dumps(report) if as_json else "\n".join(human))


@click.group()
def cli() -> None:
    """Reversible-logic circuit toolkit."""


# The options several commands share, and the type of every document a command reads, each declared once.
_document = click.Path(exists=True, dir_okay=False)
_circuit_option = click.option("-c", "--circuit", "path", required=True, type=_document)
_output_option = click.option("-o", "--output", "out", required=True, type=click.Path(dir_okay=False))
_json_option = click.option("--json", "as_json", is_flag=True)

# Each library family that `gen` writes or `growth` profiles: its constructor and its input bits per unit of size.
_FAMILIES = {"incr": (library.incrementer, 1), "decr": (library.decrementer, 1)}
_FAMILIES["add"] = _FAMILIES["adder"] = (library.ripple_adder, 2)


@cli.command()
@_circuit_option
@click.option("-x", "bits", default=None, help="Region bits (input region forward, full state backward).")
@click.option("--int", "value", type=int, default=None, help="Input region value (forward only).")
@click.option("--backward", is_flag=True, help="Run the gate list in reverse from a full state.")
@_json_option
def sim(path: str, bits: str | None, value: int | None, backward: bool, as_json: bool) -> None:
    """Simulate a machine on one input."""
    if (bits is None) == (value is None):
        raise click.UsageError("give exactly one of -x or --int")
    if backward and value is not None:
        raise click.UsageError("--backward needs the full final state via -x, not --int")
    machine = _load(path)
    iface = machine.iface

    if backward:
        lines = _lane(_region_value(bits, value, "final state", iface.width), iface.width)
        _check_decimal(iface, "input")
        _apply_gates(lines, reversed(machine.circuit.gates), 1)  # from the whole given state
        start = "".join(map(str, lines))
        input_value = _lane_value(lines, iface.input_lines)
        presets_ok = _held(lines, iface.preset_lines, 1) == 1
        report = {
            "command": "sim",
            "direction": "backward",
            "final_state": bits,
            "initial_state": start,
            "input_value": input_value,
            "presets_consistent": presets_ok,
        }
        human = [
            f"initial state: {start}",
            f"input region: {input_value} (bits {_int_to_bits(input_value, iface.input_width)})",
            f"presets consistent: {'yes' if presets_ok else 'no'}",
        ]
    else:
        x = _region_value(bits, value, "input region", iface.input_width)
        _check_decimal(iface, *(("input", "output", "garbage") if as_json else ("input", "output")))
        lines = _run(machine, _lane(x, iface.input_width), 1)
        final = "".join(map(str, lines))
        out = _lane_value(lines, iface.output_lines)
        garbage = _lane_value(lines, iface.garbage_lines)
        report = {
            "command": "sim",
            "direction": "forward",
            "input_value": x,
            "input_bits": _int_to_bits(x, iface.input_width),
            "final_state": final,
            "output_value": out,
            "output_bits": _int_to_bits(out, iface.output_width),
            "garbage_value": garbage,
            "garbage_bits": _int_to_bits(garbage, iface.garbage_width),
        }
        human = [
            f"input: {x} (bits {report['input_bits']})",
            f"output: {out} (bits {report['output_bits']})",
            f"garbage: {report['garbage_bits'] or '(none)'}",
            f"final state: {final}",
        ]
    _emit(report, as_json, human)


@cli.command()
@_circuit_option
@_json_option
def table(path: str, as_json: bool) -> None:
    """Print the machine's exhaustive truth table."""
    machine = _load(path)
    _check_decimal(machine.iface, *(("output", "garbage") if as_json else ("output",)))
    t = truth_table(machine)
    injective = is_injective(t)
    report = {
        "command": "table",
        "input_bits": t.input_width,
        "output_bits": t.output_width,
        "injective": injective,
    }
    human = []
    if as_json:  # each output mode builds only its own 2^n rows; here straight from the columns
        report["rows"] = _repeated(_ROW, "  ", "[]", range(len(t.outputs)), t.outputs, t.garbage)
    else:
        k = machine.iface.garbage_width
        human = [f"{'x':>6}  {'f(x)':>6}  garbage"]
        rows = enumerate(zip(t.outputs, t.garbage))
        human += [f"{x:>6}  {out:>6}  {_int_to_bits(g, k) or '-'}" for x, (out, g) in rows]
        human.append(f"injective: {'yes' if injective else 'no'}")
    _emit(report, as_json, human)


def _write(machine: Machine, out: str, command: str, as_json: bool) -> None:
    """Write `machine` to `out` as a .rvc document, then report what was written."""
    with open(out, "w", newline="\n") as fh:
        fh.write(serialize(machine))
    width, gates, garbage = machine.width, len(machine.circuit), machine.iface.garbage_width
    report = {"command": command, "path": out, "width": width, "gates": gates, "garbage_lines": garbage}
    _emit(report, as_json, [f"wrote {out}: width {width}, {gates} gates, {garbage} garbage line(s)"])


@cli.command()
@_circuit_option
@_output_option
@_json_option
def inverse(path: str, out: str, as_json: bool) -> None:
    """Write the machine that runs the given one backward."""
    _write(inverse_machine(_load(path)), out, "inverse", as_json)


@cli.command(name="bennett")
@_circuit_option
@_output_option
@_json_option
def bennett_cmd(path: str, out: str, as_json: bool) -> None:
    """Apply the compute-copy-uncompute transform and write the result."""
    _write(bennett(_load(path)), out, "bennett", as_json)


@cli.command(name="zg-compose")
@click.option("--forward", "fwd_path", required=True, type=_document)
@click.option("--inverse", "inv_path", required=True, type=_document)
@_output_option
@_json_option
def zg_compose(fwd_path: str, inv_path: str, out: str, as_json: bool) -> None:
    """Compose machines for f and its inverse into a garbage-free machine for f."""
    _write(zero_garbage_compose(_load(fwd_path), _load(inv_path)), out, "zg-compose", as_json)


@cli.command()
@_circuit_option
@_json_option
def profile(path: str, as_json: bool) -> None:
    """Enumerate the reachable garbage configurations."""
    machine = _load(path)
    if as_json:
        _check_decimal(machine.iface, "output", "garbage")
    try:
        prof = garbage_profile(machine)
    except RestorationViolationError as exc:
        conf = ConformanceReport.from_outcome(machine, machine_id(machine), exc)
        _emit({"command": "profile", "conformance": conf.as_dict()}, as_json, [
            f"machine: {conf.machine_id}",
            f"conformance: FAIL (input {exc.input_value}: {conf.clauses[-1].detail})",
        ])
        raise
    report, human = {}, []
    if as_json:  # each output mode builds only its own report
        conf = ConformanceReport.from_outcome(machine, prof.machine_id, None)
        report = {"command": "profile", **_profile_section(prof, ""), "conformance": conf.as_dict()}
    else:
        k = prof.garbage_bits
        human = [
            f"machine: {prof.machine_id}",
            f"input bits: {prof.input_bits}, garbage bits: {k}",
            f"reachable configurations: {prof.config_count}",
        ]
        human += [f"  {_int_to_bits(cfg, k) or '(empty)'}" for cfg in prof.configs]
        human.append("conformance: pass")  # an enumeration that finished broke no clause
    _emit(report, as_json, human)


@cli.command()
@click.option("--family", type=click.Choice(["incr", "adder"]), required=True)
@click.option("--from", "start", type=int, required=True)
@click.option("--to", "stop", type=int, required=True)
@_json_option
def growth(family: str, start: int, stop: int, as_json: bool) -> None:
    """Profile a circuit family across sizes and classify the growth."""
    if stop - start < 2:
        raise click.UsageError("need at least 3 sizes: --to must be at least --from + 2")
    build, bits_per_n = _FAMILIES[family]
    # growth_report refuses the first size over the bound once it is built; a
    # --from already over it is refused here, with the same error, unbuilt.
    check_enumeration_bound(bits_per_n * start, EXHAUSTIVE_BOUND)
    rep = growth_report(build, range(start, stop + 1), family_name=family)
    report = {"command": "growth", **rep.as_dict()}
    human = [f"{'n':>4}  configs"]
    human += [f"{n:>4}  {c}" for n, c in rep.points]
    human.append(f"classification: {rep.classification} (empirical at desk scale)")
    _emit(report, as_json, human)


@cli.command()
@_circuit_option
@click.option("-y", "bits", default=None, help="Output region bits.")
@click.option("--int", "value", type=int, default=None, help="Output region value.")
@click.option("--blind", is_flag=True, help="Guess garbage strings at random instead of using the profile.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--max-trials", type=int, default=None)
@_json_option
def invert(
    path: str, bits: str | None, value: int | None, blind: bool, seed: int, max_trials: int | None, as_json: bool
) -> None:
    """Recover the input that produced an output value."""
    if (bits is None) == (value is None):
        raise click.UsageError("give exactly one of -y or --int")
    if max_trials is not None and max_trials < 1:
        raise click.UsageError("--max-trials must be at least 1")
    machine = _load(path)
    iface = machine.iface
    y = _region_value(bits, value, "output region", iface.output_width)
    # The human report writes no output value, and names a too-wide one by its bit length.
    _check_decimal(iface, *(("input", "output", "garbage") if as_json else ("input",)))
    k = iface.garbage_width
    details = {}  # what the method adds to the report
    if blind:
        result = invert_blind(machine, y, seed=seed, max_trials=max_trials)
        details["seed"] = seed
        human = [f"method: blind (seed {seed}, {k} garbage bits)", f"trials: {result.trials}"]
    else:
        prof = garbage_profile(machine)
        result = invert_with_profile(machine, y, prof)
        tried = prof.configs[: result.trials]
        if as_json:  # the human report names the trials, not the profile
            details["attempts"] = [{"config": cfg, "accepted": i == len(tried)} for i, cfg in enumerate(tried, 1)]
            details["profile"] = _profile_section(prof, "  ")
        human = [
            f"method: table (profile built from {1 << prof.input_bits} forward runs, "
            f"{prof.config_count} configurations)"
        ]
        human += [
            f"trial {i}: garbage {_int_to_bits(cfg, k) or '(empty)'} -> {'accept' if i == len(tried) else 'reject'}"
            for i, cfg in enumerate(tried, 1)
        ]
    report = {"command": "invert", "output_value": y, **result.as_dict(), **details}
    report["matched_config_bits"] = _int_to_bits(result.matched_config, k)
    report["input_bits"] = _int_to_bits(result.input_value, iface.input_width)
    matched = report["matched_config_bits"] or "(empty)"
    human.append(f"input: {result.input_value} (bits {report['input_bits']}), matched garbage {matched}")
    _emit(report, as_json, human)


@cli.command()
@click.argument("kind", type=click.Choice(["incr", "decr", "add"]))
@click.option("--bits", "n", type=int, required=True)
@_output_option
@_json_option
def gen(kind: str, n: int, out: str, as_json: bool) -> None:
    """Write a library machine: incr, decr, or add on N bits."""
    _write(_FAMILIES[kind][0](n), out, "gen", as_json)


# Domain errors and their documented exit codes; no class here subclasses another.
_EXIT_CODES = ((ExhaustiveBoundError, 4), (InversionError, 3), (InvalidCircuitError, 2), (OSError, 1))


def main(argv: list[str] | None = None) -> int:
    """Run the CLI on `argv` (`sys.argv[1:]` when None), mapping domain errors to documented exit codes.

    An argv that names a command runs it with no group context (see the module docstring). The cyclic
    collector is paused for the command and left as the caller had it on every exit.
    """
    args = sys.argv[1:] if argv is None else argv
    command = cli.commands.get(args[0]) if args else None
    collecting = gc.isenabled()
    gc.disable()
    try:
        if command is None:
            code = cli.main(args=args, prog_name="revcirc", standalone_mode=False)
        else:
            code = command.main(args=args[1:], prog_name=f"revcirc {args[0]}", standalone_mode=False)
    except click.UsageError as exc:
        exc.show()
        return 1
    except click.Abort:
        click.echo("aborted", err=True)
        return 1
    except tuple(kind for kind, _ in _EXIT_CODES) as exc:
        click.echo(f"error: {exc}", err=True)
        return next(code for kind, code in _EXIT_CODES if isinstance(exc, kind))
    finally:
        if collecting:
            gc.enable()
    return code if isinstance(code, int) else 0  # click returns an Exit's code, or the command's None


def entry() -> None:
    sys.exit(main())
