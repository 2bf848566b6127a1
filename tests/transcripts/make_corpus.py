"""Write `corpus.json`: the CLI's transcript over a fixed command set, which every change must replay.

Each record holds a command's argv, its exit code, the sha256 of its stdout, its stderr text and
the sha256 of the file it was asked to write (null when it wrote none). The commands run in order,
in-process through `cli.main`, in one scratch directory holding the documents of `documents()`,
with every path relative to it. Later commands read the machines earlier ones wrote, so `gen`,
`bennett`, `inverse` and `zg-compose` are checked both by their bytes and by what reads them.

Regenerate after an intended change to the output, and list each record that changed:

    PYTHONPATH=src python tests/transcripts/make_corpus.py

Replay every record against the committed file, printing the argv of each that differs and
exiting 1 if any does; this needs only the standard library and click, not pytest:

    PYTHONPATH=src python tests/transcripts/make_corpus.py --check

`tests/test_transcripts.py` makes the same replay.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path
from unittest import mock

from revcirc import cli, initial_state, parse_circuit, run, truth_table

HERE = Path(__file__).resolve().parent
CORPUS = HERE / "corpus.json"
GOLDEN = HERE.parent.parent / "golden"


def preset_lines(count: int, bit: int) -> str:
    return " ".join(f"{line}={bit}" for line in range(1, count + 1))


def documents() -> dict[str, bytes]:
    """Every document the commands read that no command writes: the golden files and hand-written ones."""
    docs = {path.name: path.read_bytes() for path in sorted(GOLDEN.glob("*.rvc"))}
    texts = {
        # inputs 1 and 3 both map to output 1: no per_output map, and unique_preimage is false
        "non_injective.rvc": "width 2\ninput 0 1\noutput 0\ngarbage 1\n",
        # no input lines; and one input line with a preset restored line
        "zero_input.rvc": "width 2\npreset 0=1 1=0\noutput 0\ngarbage 1\ngate cx 0 1\n",
        "one_input.rvc": "width 2\ninput 0\npreset 1=1\noutput 1\ngarbage 0\ngate cx 0 1\n",
        # output 1 is outside the image
        "constant.rvc": "width 1\npreset 0=0\noutput 0\n",
        # line 1 is declared restored, but the gate copies the input onto it
        "liar.rvc": "width 2\ninput 0\npreset 1=0\noutput 0\nrestored 1=0\ngate cx 0 1\n",
        "bad_header.rvc": "width 2\ninput 0 x\noutput 0 1\ngate cx 0 5\n",
        "bad_gate.rvc": "width 2\ninput 0 1\noutput 0 1\ngate cx 0 5\n",
        "bad_partition.rvc": "width 2\ninput 0 1\noutput 0\n",
        "empty.rvc": "",
        # 15,000 garbage lines preset to 1: a region too wide to write in decimal
        "wide_garbage.rvc": (
            f"width 15001\ninput 0\npreset {preset_lines(15000, 1)}\n"
            f"output 0\ngarbage {' '.join(map(str, range(1, 15001)))}\n"
        ),
        # no garbage and 15,001 output lines: the output region is too wide to write in decimal
        "wide_output.rvc": (
            f"width 15001\ninput 0\npreset {preset_lines(15000, 0)}\noutput {' '.join(map(str, range(15001)))}\n"
        ),
        # 100 garbage lines preset to 0, each a cx or ccx of the 4 input lines: varied configurations past 64 lines
        "wide_varied.rvc": (
            f"width 104\ninput 0 1 2 3\npreset {' '.join(f'{line}=0' for line in range(4, 104))}\n"
            f"output 0 1 2 3\ngarbage {' '.join(map(str, range(4, 104)))}\n"
            + "".join(
                f"gate cx {g % 4} {g}\n" if g % 5 in (0, 2) else f"gate ccx {g % 4} {(g + 1 + g * g % 3) % 4} {g}\n"
                for g in range(4, 104)
            )
        ),
    }
    docs.update((name, text.encode()) for name, text in texts.items())
    docs["not_utf8.rvc"] = b"width 1\n# \xff\ninput 0\noutput 0\n"
    return docs


def machine_commands(name: str, writers: bool = True):
    """Every reading command, human and --json, on the machine in `name`; and its inverse and Bennett form."""
    machine = parse_circuit(Path(name).read_text())
    iface = machine.iface
    table = truth_table(machine)
    x = (1 << iface.input_width) // 3
    y = table.outputs[x]
    final = "".join(map(str, run(machine.circuit, initial_state(machine, x)).bits))
    stem = name.removesuffix(".rvc")
    for flags in ([], ["--json"]):
        yield ["sim", "-c", name, "--int", str(x), *flags]
        yield ["sim", "-c", name, "-x", cli._int_to_bits(x, iface.input_width), *flags]
        yield ["sim", "-c", name, "-x", "0" * iface.width, "--backward", *flags]
        yield ["sim", "-c", name, "-x", final, "--backward", *flags]
        yield ["table", "-c", name, *flags]
        yield ["profile", "-c", name, *flags]
        yield ["invert", "-c", name, "--int", str(y), *flags]
        yield ["invert", "-c", name, "-y", cli._int_to_bits(y, iface.output_width), "--blind", "--seed", "7", *flags]
        yield ["invert", "-c", name, "--int", str(y), "--blind", "--max-trials", "2", *flags]
        if writers:
            suffix = ".json" if flags else ""
            yield ["inverse", "-c", name, "-o", f"{stem}.inverse{suffix}.rvc", *flags]
            yield ["bennett", "-c", name, "-o", f"{stem}.bennett{suffix}.rvc", *flags]


def commands():
    """The fixed command set, in order. A generator: it reads machines the commands before it wrote."""
    yield []
    yield ["--help"]
    # argvs that name no command go through the group: an unknown command, and an option before the command
    yield ["nope"]
    yield ["--json", "table", "-c", "incrementer_3.rvc"]
    yield ["--help", "table"]
    for command in ("sim", "table", "profile", "growth", "invert", "gen", "inverse", "bennett", "zg-compose"):
        yield [command, "--help"]

    for name in sorted(path.name for path in GOLDEN.glob("*.rvc")):
        yield from machine_commands(name)

    # library machines at a few sizes, written by `gen`
    sizes = {"incr": (4, 8, 12), "decr": (4, 8), "add": (2, 4, 6)}
    for kind, ns in sizes.items():
        for n in ns:
            yield ["gen", kind, "--bits", str(n), "-o", f"{kind}{n}.rvc"]
            yield ["gen", kind, "--bits", str(n), "-o", f"{kind}{n}.json.rvc", "--json"]
    for kind, ns in sizes.items():
        for n in ns:
            yield from machine_commands(f"{kind}{n}.rvc", writers=n == ns[0])
    for flags, suffix in (([], ""), (["--json"], ".json")):
        yield ["zg-compose", "--forward", "incr4.rvc", "--inverse", "decr4.rvc", "-o", f"zg4{suffix}.rvc", *flags]
        yield ["zg-compose", "--forward", "incr8.rvc", "--inverse", "decr8.rvc", "-o", f"zg8{suffix}.rvc", *flags]
    for name in ("zg4.rvc", "incr4.bennett.rvc", "add2.inverse.rvc"):
        yield from machine_commands(name, writers=False)
    for name in ("non_injective.rvc", "zero_input.rvc", "one_input.rvc"):
        yield from machine_commands(name, writers=False)
    for flags in ([], ["--json"]):
        yield ["table", "-c", "wide_varied.rvc", *flags]
        yield ["profile", "-c", "wide_varied.rvc", *flags]
        yield ["invert", "-c", "wide_varied.rvc", "--int", "5", *flags]

    for flags in ([], ["--json"]):
        yield ["growth", "--family", "incr", "--from", "2", "--to", "7", *flags]
        yield ["growth", "--family", "adder", "--from", "1", "--to", "4", *flags]

    yield from refusals()


def refusals():
    """Commands that exit 1 (usage), 2 (invalid document), 3 (inversion failure) or 4 (a bound)."""
    yield ["gen", "incr", "--bits", "21", "-o", "incr21.rvc"]
    for flags in ([], ["--json"]):
        # 1: usage errors
        yield ["sim", "-c", "incr4.rvc", *flags]
        yield ["sim", "-c", "incr4.rvc", "-x", "0000", "--int", "0", *flags]
        yield ["sim", "-c", "incr4.rvc", "-x", "000", *flags]
        yield ["sim", "-c", "incr4.rvc", "-x", "00a0", *flags]
        yield ["sim", "-c", "incr4.rvc", "--int", "16", *flags]
        yield ["sim", "-c", "incr4.rvc", "--int", "-1", *flags]
        yield ["sim", "-c", "incr4.rvc", "--int", "1", "--backward", *flags]
        yield ["sim", "-c", "incr4.rvc", "-x", "0000", "--backward", *flags]
        yield ["invert", "-c", "incr4.rvc", *flags]
        yield ["invert", "-c", "incr4.rvc", "-y", "0000", "--int", "0", *flags]
        yield ["invert", "-c", "incr4.rvc", "-y", "00", *flags]
        yield ["invert", "-c", "incr4.rvc", "-y", "0x00", *flags]
        yield ["invert", "-c", "incr4.rvc", "--int", "16", *flags]
        yield ["invert", "-c", "incr4.rvc", "--int", "1", "--max-trials", "0", *flags]
        yield ["invert", "-c", "incr4.rvc", "--int", "1", "--blind", "--max-trials", "0", *flags]
        yield ["table", "-c", "missing.rvc", *flags]
        yield ["growth", "--family", "incr", "--from", "2", "--to", "3", *flags]
        yield ["gen", "mul", "--bits", "2", "-o", "mul.rvc", *flags]
        yield ["sim", "--int", "0", *flags]
        # 2: invalid documents, a false restored line, a pair that is not inverse, a size too small
        for name in ("bad_header.rvc", "bad_gate.rvc", "bad_partition.rvc", "empty.rvc", "not_utf8.rvc"):
            yield ["table", "-c", name, *flags]
        for command in (["profile"], ["table"], ["sim", "--int", "1"], ["invert", "--int", "1"]):
            yield [command[0], "-c", "liar.rvc", *command[1:], *flags]
        yield ["zg-compose", "--forward", "incr4.rvc", "--inverse", "incr4.rvc", "-o", "not_zg.rvc", *flags]
        yield ["growth", "--family", "incr", "--from", "0", "--to", "3", *flags]
        yield ["gen", "incr", "--bits", "0", "-o", "incr0.rvc", *flags]
        # 3: inversion failures
        yield ["invert", "-c", "constant.rvc", "--int", "1", *flags]
        yield ["invert", "-c", "constant.rvc", "--int", "1", "--blind", *flags]
        yield ["invert", "-c", "incr8.rvc", "--int", "0", "--blind", "--max-trials", "1", *flags]
        # 4: the enumeration bound, the blind-search bound and the decimal width
        yield ["growth", "--family", "incr", "--from", "21", "--to", "23", *flags]
        yield ["growth", "--family", "adder", "--from", "2", "--to", "12", *flags]
        for command in (["profile"], ["table"], ["invert", "--int", "0"]):
            yield [command[0], "-c", "incr21.rvc", *command[1:], *flags]
        yield ["invert", "-c", "incr21.rvc", "--int", "0", "--blind", *flags]
        for command in (
            ["profile"],
            ["table"],
            ["sim", "--int", "1"],
            ["sim", "-x", "1" * 15001, "--backward"],
            ["invert", "--int", "1"],
            ["invert", "--int", "1", "--blind"],
        ):
            yield [command[0], "-c", "wide_garbage.rvc", *command[1:], *flags]
        for blind in ([], ["--blind"]):
            yield ["invert", "-c", "wide_output.rvc", "-y", "0" * 15000 + "1", *blind, *flags]
    # an options error is refused before the document is read, so it wins over a bad document
    yield ["sim", "-c", "bad_header.rvc"]
    yield ["invert", "-c", "bad_header.rvc", "--int", "1", "--max-trials", "0"]


def record(argv: list[str]) -> dict:
    """Run one command in the current directory and return its record."""
    out, err = io.StringIO(), io.StringIO()
    written = argv[argv.index("-o") + 1] if "-o" in argv else None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    files = {}
    if written is not None:
        path = Path(written)
        files[written] = hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None
    return {
        "argv": argv,
        "exit": code,
        "stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest(),
        "stderr": err.getvalue(),
        "files": files,
    }


@contextlib.contextmanager
def session(directory: Path):
    """Write `documents()` into `directory` and run there, with click's help at a fixed 80 columns."""
    for name, data in documents().items():
        (directory / name).write_bytes(data)
    previous = os.getcwd()
    os.chdir(directory)
    try:
        with mock.patch.dict(os.environ, {"COLUMNS": "80"}):
            yield
    finally:
        os.chdir(previous)


def transcript(directory: Path) -> list[dict]:
    with session(directory):
        return [record(argv) for argv in commands()]


def replay(directory: Path, records: list[dict]) -> list[str]:
    """Run each record's argv in a `session` in `directory`; the argv of each record that differs.

    Each argv is one line, with an argument over 40 characters cut to its first 8 and its length.
    """
    with session(directory):
        differing = [want["argv"] for want in records if record(want["argv"]) != want]
    shown = [[arg if len(arg) <= 40 else f"{arg[:8]}...({len(arg)} chars)" for arg in argv] for argv in differing]
    return [" ".join(argv) for argv in shown]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true", help="replay the committed corpus instead of writing it")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as directory:
        if args.check:
            records = json.loads(CORPUS.read_text())
            differing = replay(Path(directory), records)
            for line in differing:
                print(line)
            print(f"{len(differing)} of {len(records)} records differ", file=sys.stderr)
            return 1 if differing else 0
        records = transcript(Path(directory))
    CORPUS.write_text(json.dumps(records, indent=1) + "\n")
    print(f"wrote {len(records)} records to {CORPUS}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
