"""Golden .rvc files: byte-stable, conformant, and functionally documented."""
from __future__ import annotations

import json
from pathlib import Path

import pytest

from revcirc import conformance, garbage_profile, parse_circuit, serialize, truth_table
from revcirc.cli import main

GOLDEN = Path(__file__).resolve().parent.parent / "golden"
DOCS = Path(__file__).resolve().parent.parent / "docs"

# name -> (input value -> expected output value) oracle, over the full input range
ORACLES = {
    "incrementer_3.rvc": lambda x: (x + 1) % 8,
    "incrementer_5.rvc": lambda x: (x + 1) % 32,
    "decrementer_3.rvc": lambda x: (x - 1) % 8,
    "ripple_adder_2.rvc": lambda x: ((x & 3) + (x >> 2)) % 4 | ((x >> 2) << 2),
    "ripple_adder_3.rvc": lambda x: ((x & 7) + (x >> 3)) % 8 | ((x >> 3) << 3),
    "bennett_incrementer_3.rvc": lambda x: (x + 1) % 8,
    "zg_incrementer_4.rvc": lambda x: (x + 1) % 16,
}


@pytest.mark.parametrize("name", sorted(ORACLES))
def test_golden_file_parses_and_is_byte_stable(name):
    text = (GOLDEN / name).read_text()
    machine = parse_circuit(text)
    assert serialize(machine) == text


@pytest.mark.parametrize("name", sorted(ORACLES))
def test_golden_file_conforms(name):
    machine = parse_circuit((GOLDEN / name).read_text())
    assert conformance(machine).passed


@pytest.mark.parametrize("name", sorted(ORACLES))
def test_golden_file_matches_documented_function(name, capsys):
    path = GOLDEN / name
    machine = parse_circuit(path.read_text())
    table = truth_table(machine)
    oracle = ORACLES[name]
    for x in range(1 << table.input_width):
        assert table.output_of(x) == oracle(x), (name, x)

    def report(*argv) -> dict:
        assert main([*map(str, argv), "--json"]) == 0, argv
        return json.loads(capsys.readouterr().out)

    # Through the CLI at 0, 1 and 2^n - 1: sim forward and back, and invert by table and blind, give back x.
    for x in sorted({0, 1, (1 << table.input_width) - 1}):
        forward = report("sim", "-c", path, "--int", x)
        assert forward["output_value"] == oracle(x), (name, x)
        back = report("sim", "-c", path, "--backward", "-x", forward["final_state"])
        assert (back["input_value"], back["presets_consistent"]) == (x, True), (name, x)
        for method in ((), ("--blind",)):
            assert report("invert", "-c", path, "--int", oracle(x), *method)["input_value"] == x, (name, x, method)


def test_golden_zero_garbage_machine_has_one_config():
    machine = parse_circuit((GOLDEN / "zg_incrementer_4.rvc").read_text())
    assert garbage_profile(machine).config_count == 1


def _console_commands(markdown: str) -> list[tuple[str, list[str]]]:
    """(command, output lines) for each `$ ` line of the ```console blocks.

    A command's output runs to the next `$ ` line or the end of its block;
    blank lines just before the next command only separate the two.
    """
    commands: list[tuple[str, list[str]]] = []
    lines = markdown.splitlines()
    i = 0
    while i < len(lines):
        if lines[i].strip() == "```console":
            j = i + 1
            assert lines[j].startswith("$ ")
            while lines[j].strip() != "```":
                if lines[j].startswith("$ "):
                    commands.append((lines[j][2:], []))
                else:
                    commands[-1][1].append(lines[j])
                j += 1
            i = j
        i += 1
    for _, output in commands:
        while output and not output[-1]:
            output.pop()
    return commands


def _check_transcript(commands: list[tuple[str, list[str]]], capsys) -> None:
    """Each command exits 0 and prints exactly its transcript lines."""
    for command, expected in commands:
        argv = command.split()
        assert argv[0] == "revcirc"
        assert main(argv[1:]) == 0, command
        assert capsys.readouterr().out == "".join(line + "\n" for line in expected), command


def test_walkthrough_transcript_matches_cli(capsys, monkeypatch):
    """Every console block in the walkthrough reproduces exactly."""
    monkeypatch.chdir(GOLDEN.parent)
    commands = _console_commands((DOCS / "inverting-by-table.md").read_text())
    assert [command.split()[1] for command, _ in commands] == ["profile", "invert", "sim", "invert"]
    _check_transcript(commands, capsys)


def test_readme_quick_tour_matches_cli(capsys, monkeypatch, tmp_path):
    """The README's Quick tour reproduces exactly, run in an empty directory."""
    monkeypatch.chdir(tmp_path)
    readme = (GOLDEN.parent / "README.md").read_text()
    tour = readme.split("\n## Quick tour\n", 1)[1].split("\n## ", 1)[0]
    commands = _console_commands(tour)
    assert [command.split()[1] for command, _ in commands] == ["gen", "sim", "profile", "invert", "growth"]
    _check_transcript(commands, capsys)
