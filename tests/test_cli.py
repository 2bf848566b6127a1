"""CLI commands, JSON reports, and documented exit codes."""
from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import click
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import revcirc
from revcirc import (
    BitState,
    Circuit,
    ConformanceReport,
    GarbageProfile,
    InterfaceSpec,
    InvalidCircuitError,
    Machine,
    RestorationViolationError,
    analysis,
    cli,
    decrementer,
    garbage_profile,
    incrementer,
    initial_state,
    invert_with_profile,
    parse_circuit,
    ripple_adder,
    run,
    serialize,
    truth_table,
    zero_garbage_compose,
)
from revcirc.analysis import machine_id
from revcirc.cli import _FAMILIES, _ROW, _Json, _dumps, _int_to_bits, _repeated, main
from revcirc.sim import _DECIMAL_BITS, _decimal_bits

from conftest import CLASSIFIER_EDGES, assert_same_text, machines, small_machine_roster
from transcripts.make_corpus import CORPUS

GOLDEN = Path(__file__).resolve().parent.parent / "golden"


@pytest.fixture()
def incr3(tmp_path, capsys):
    path = tmp_path / "incr3.rvc"
    assert main(["gen", "incr", "--bits", "3", "-o", str(path)]) == 0
    capsys.readouterr()
    return path


def run_cli(capsys, *argv: str) -> tuple[int, str]:
    code = main(list(argv))
    return code, capsys.readouterr().out


def run_json(capsys, *argv: str) -> dict:
    code, out = run_cli(capsys, *argv, "--json")
    assert code == 0
    return json.loads(out)


class TestSim:
    def test_forward_int(self, capsys, incr3):
        report = run_json(capsys, "sim", "-c", str(incr3), "--int", "3")
        assert report["output_value"] == 4
        assert report["garbage_bits"] == "1"

    def test_forward_bits(self, capsys, incr3):
        report = run_json(capsys, "sim", "-c", str(incr3), "-x", "110")
        assert report["input_value"] == 3
        assert report["output_value"] == 4

    def test_backward_full_state(self, capsys, incr3):
        report = run_json(capsys, "sim", "-c", str(incr3), "-x", "0011", "--backward")
        assert report["initial_state"] == "1100"
        assert report["input_value"] == 3
        assert report["presets_consistent"] is True

    def test_x_and_int_together_is_usage_error(self, capsys, incr3):
        assert main(["sim", "-c", str(incr3), "--int", "3", "-x", "110"]) == 1

    def test_backward_with_int_is_usage_error(self, capsys, incr3):
        assert main(["sim", "-c", str(incr3), "--int", "3", "--backward"]) == 1


def reference_sim(machine, x: int | None = None, final_bits: str | None = None) -> tuple[dict, list[str]]:
    """The `sim` report and human lines built on the literal `run`/`BitState` path: the CLI's oracle."""
    iface = machine.iface
    if final_bits is not None:
        state = BitState(iface.width, tuple(map(int, final_bits)))
        start = run(machine.circuit, state, "backward")
        presets_ok = all(start.bits[l] == c for l, c in iface.preset_lines)
        value = start.value_of(iface.input_lines)
        report = {
            "command": "sim", "direction": "backward", "final_state": str(state), "initial_state": str(start),
            "input_value": value, "presets_consistent": presets_ok,
        }
        return report, [
            f"initial state: {start}",
            f"input region: {value} (bits {old_int_to_bits(value, iface.input_width)})",
            f"presets consistent: {'yes' if presets_ok else 'no'}",
        ]
    final = run(machine.circuit, initial_state(machine, x))
    out, garbage = final.value_of(iface.output_lines), final.value_of(iface.garbage_lines)
    report = {
        "command": "sim", "direction": "forward", "input_value": x,
        "input_bits": old_int_to_bits(x, iface.input_width), "final_state": str(final),
        "output_value": out, "output_bits": old_int_to_bits(out, iface.output_width),
        "garbage_value": garbage, "garbage_bits": old_int_to_bits(garbage, iface.garbage_width),
    }
    return report, [
        f"input: {x} (bits {report['input_bits']})",
        f"output: {out} (bits {report['output_bits']})",
        f"garbage: {report['garbage_bits'] or '(none)'}",
        f"final state: {final}",
    ]


def check_sim_against_reference(machine, x: int, final_bits: str) -> None:
    """`sim` forward (by --int and by -x) and backward, human and --json, against `reference_sim`."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.rvc"
        path.write_text(serialize(machine))
        for args, (report, human) in [
            (["--int", str(x)], reference_sim(machine, x=x)),
            (["-x", old_int_to_bits(x, machine.iface.input_width)], reference_sim(machine, x=x)),
            (["-x", final_bits, "--backward"], reference_sim(machine, final_bits=final_bits)),
        ]:
            assert run_captured(["sim", "-c", str(path), *args]) == (0, "\n".join(human) + "\n"), args
            assert run_captured(["sim", "-c", str(path), *args, "--json"]) == (0, json.dumps(report, indent=2) + "\n"), args


@settings(max_examples=80, deadline=None)
@given(machines(), st.data())
def test_sim_matches_run_reference(m, data):
    x = data.draw(st.integers(0, (1 << m.iface.input_width) - 1))
    final_bits = "".join(data.draw(st.lists(st.sampled_from("01"), min_size=m.width, max_size=m.width)))
    check_sim_against_reference(m, x, final_bits)


@pytest.mark.parametrize(
    "m",
    [incrementer(700), ripple_adder(40), zero_garbage_compose(incrementer(3000), decrementer(3000))],
    ids=["incr700", "adder40", "zg3000"],
)
def test_sim_matches_run_reference_on_wide_machines(m):
    rng = random.Random(m.width)
    check_sim_against_reference(m, rng.getrandbits(m.iface.input_width), "".join(rng.choice("01") for _ in range(m.width)))


class TestTable:
    def test_rows_and_injectivity(self, capsys, incr3):
        report = run_json(capsys, "table", "-c", str(incr3))
        assert report["injective"] is True
        assert report["rows"][7] == {"input": 7, "output": 0, "garbage": 1}


class TestTransformCommands:
    def test_bennett_roundtrip(self, capsys, incr3, tmp_path):
        out = tmp_path / "b.rvc"
        assert main(["bennett", "-c", str(incr3), "-o", str(out)]) == 0
        m = parse_circuit(out.read_text())
        assert m.width == 7
        assert m.iface.garbage_width == 3

    def test_zg_compose(self, capsys, incr3, tmp_path):
        decr = tmp_path / "d.rvc"
        out = tmp_path / "zg.rvc"
        assert main(["gen", "decr", "--bits", "3", "-o", str(decr)]) == 0
        assert main(["zg-compose", "--forward", str(incr3), "--inverse", str(decr), "-o", str(out)]) == 0
        m = parse_circuit(out.read_text())
        assert m.iface.garbage_lines == ()
        t = truth_table(m)
        assert all(t.output_of(x) == (x + 1) % 8 for x in range(8))

    def test_zg_compose_rejects_non_inverse_pair(self, capsys, incr3, tmp_path):
        out = tmp_path / "zg.rvc"
        code = main(["zg-compose", "--forward", str(incr3), "--inverse", str(incr3), "-o", str(out)])
        assert code == 2

    def test_inverse_command(self, capsys, incr3, tmp_path):
        out = tmp_path / "inv.rvc"
        assert main(["inverse", "-c", str(incr3), "-o", str(out)]) == 0
        m = parse_circuit(out.read_text())
        assert m.iface.output_lines == (0, 1, 2)
        assert m.iface.input_lines == (0, 1, 2, 3)


class TestProfileAndGrowth:
    def test_profile_report(self, capsys, incr3):
        report = run_json(capsys, "profile", "-c", str(incr3))
        assert report["config_count"] == 2
        assert report["configs"] == [0, 1]
        assert report["conformance"]["passed"] is True

    def test_profile_reports_false_restoration(self, capsys, tmp_path):
        # line 1 is declared restored, but the gate copies the input onto it
        liar = tmp_path / "liar.rvc"
        liar.write_text("width 2\ninput 0\npreset 1=0\noutput 0\nrestored 1=0\ngate cx 0 1\n")
        code, out = run_cli(capsys, "profile", "-c", str(liar), "--json")
        assert code == 2
        conf = json.loads(out)["conformance"]
        assert conf["passed"] is False
        clause = {c["name"]: c for c in conf["clauses"]}["restored-constants"]
        assert clause["witness_input"] == 1

    def test_growth_incr(self, capsys):
        report = run_json(capsys, "growth", "--family", "incr", "--from", "2", "--to", "8")
        assert report["classification"] == "linear"
        assert report["points"] == [[n, n - 1] for n in range(2, 9)]

    def test_growth_adder(self, capsys):
        report = run_json(capsys, "growth", "--family", "adder", "--from", "2", "--to", "5")
        assert report["classification"] == "superpolynomial-suspect"

    def test_growth_json_gives_each_classifier_edge_its_label(self, capsys):
        # A zero-gate machine of width n per size, with the point list's count of configurations at n.
        def family(n: int) -> Machine:
            return Machine(Circuit(n), InterfaceSpec(width=n, input_lines=range(n), output_lines=range(n)))

        for points, expected in CLASSIFIER_EDGES:
            counts = dict(points)
            sizes = ["--from", str(min(counts)), "--to", str(max(counts))]
            with mock.patch.dict(_FAMILIES, {"incr": (family, 1)}), mock.patch.object(
                analysis, "garbage_configs", lambda machine, bound: [0] * counts[machine.width]
            ):
                report = run_json(capsys, "growth", "--family", "incr", *sizes)
            assert report["points"] == [list(point) for point in points]
            assert report["classification"] == expected, points

    def test_growth_range_too_short(self, capsys):
        assert main(["growth", "--family", "incr", "--from", "2", "--to", "3"]) == 1

    def test_growth_oversized_range_refused_at_once(self, capsys):
        # Sizes past 10 would cost seconds and hundreds of MiB each to build.
        assert main(["growth", "--family", "adder", "--from", "2", "--to", "1200"]) == 4
        assert capsys.readouterr().err == (
            "error: input region has 22 bits; refusing exhaustive enumeration beyond 20"
            " (pass max_input_bits to override)\n"
        )

    @pytest.mark.parametrize(
        "family,start,bits", [("adder", "20000", 40000), ("incr", "40000", 40000), ("adder", "11", 22), ("incr", "21", 21)]
    )
    def test_growth_from_over_the_bound_refused_unbuilt(self, capsys, family, start, bits):
        # the same line as when the first size is built and then refused, but no machine is built
        unbuilt = mock.Mock(side_effect=AssertionError("a family member was built"))
        with mock.patch.dict(_FAMILIES, {name: (unbuilt, bits) for name, (_, bits) in _FAMILIES.items()}):
            assert main(["growth", "--family", family, "--from", start, "--to", str(int(start) + 2)]) == 4
        assert unbuilt.call_count == 0
        assert capsys.readouterr().err == (
            f"error: input region has {bits} bits; refusing exhaustive enumeration beyond 20"
            " (pass max_input_bits to override)\n"
        )

    @pytest.mark.parametrize("name", sorted(_FAMILIES))
    def test_family_table_bits_per_size(self, name):
        build, bits_per_n = _FAMILIES[name]
        assert [build(n).iface.input_width for n in range(2, 7)] == [bits_per_n * n for n in range(2, 7)]

    def test_family_table_names_every_gen_kind_and_growth_family(self):
        names = {
            name
            for command, option in [(cli.gen, "kind"), (cli.growth, "family")]
            for param in command.params
            if param.name == option
            for name in param.type.choices
        }
        assert names == _FAMILIES.keys()  # and the table holds no family that no command names

    @pytest.mark.parametrize("family,start", [("incr", "0"), ("incr", "-3"), ("adder", "0")])
    def test_growth_from_below_the_family_is_invalid(self, capsys, family, start):
        # a size the constructor refuses is still reported before the bound
        assert main(["growth", "--family", family, "--from", start, "--to", "30"]) == 2
        assert "needs at least" in capsys.readouterr().err


class TestInvert:
    def test_table_method(self, capsys, incr3):
        report = run_json(capsys, "invert", "-c", str(incr3), "--int", "0")
        assert report["input_value"] == 7
        assert report["method"] == "table"
        assert report["trials"] == 2  # configs 0 then 1
        assert [a["config"] for a in report["attempts"]] == [0, 1]
        assert report["profile"]["config_count"] == 2

    def test_bits_flag(self, capsys, incr3):
        report = run_json(capsys, "invert", "-c", str(incr3), "-y", "101")
        assert report["output_value"] == 5
        assert report["input_value"] == 4

    def test_blind_method(self, capsys, incr3):
        report = run_json(capsys, "invert", "-c", str(incr3), "--int", "0", "--blind", "--seed", "1")
        assert report["method"] == "blind"
        assert report["input_value"] == 7

    def test_budget_exhaustion_exit_code(self, capsys, incr3):
        # y=0 needs garbage 1; find a seed whose first guess is 0
        for seed in range(20):
            code = main([
                "invert", "-c", str(incr3), "--int", "0",
                "--blind", "--seed", str(seed), "--max-trials", "1",
            ])
            capsys.readouterr()
            if code != 0:
                assert code == 3
                break
        else:
            pytest.fail("every seed guessed right on the first try")

    def test_exhaustion_outside_image_answers_at_once(self, capsys, tmp_path):
        # no garbage and an output line preset at 0: output 1 is outside the image
        path = tmp_path / "zero.rvc"
        path.write_text("width 1\npreset 0=0\noutput 0\n")
        code = main(["invert", "-c", str(path), "--int", "1", "--blind", "--max-trials", "1000000000000"])
        assert code == 3
        assert capsys.readouterr().err == (
            "error: no consistent garbage string found for output 1 in 1000000000000 trials "
            "(k=0 garbage bits; expected cost grows as 2^k)\n"
        )

    def test_human_trial_sequence(self, capsys, incr3):
        code, out = run_cli(capsys, "invert", "-c", str(incr3), "--int", "0")
        assert code == 0
        assert out.splitlines()[1:] == [
            "trial 1: garbage 0 -> reject",
            "trial 2: garbage 1 -> accept",
            "input: 7 (bits 111), matched garbage 1",
        ]


class TestExitCodes:
    def test_unknown_output_value_is_usage_error(self, capsys, incr3):
        assert main(["invert", "-c", str(incr3), "--int", "99"]) == 1

    def test_invalid_document(self, capsys, tmp_path):
        bad = tmp_path / "bad.rvc"
        bad.write_text("width 2\ninput 0 1\noutput 0 1\ngate ccx 0 1 5\n")
        assert main(["sim", "-c", str(bad), "--int", "1"]) == 2

    @pytest.mark.parametrize(
        "text", ["width \u00b2\n", "width 2\ninput 0 1\noutput 0 1\ngate cx 0 \u00b2\n"]
    )
    def test_non_ascii_digit_document(self, capsys, tmp_path, text):
        bad = tmp_path / "bad.rvc"
        bad.write_text(text, encoding="utf-8")
        assert main(["sim", "-c", str(bad), "--int", "0"]) == 2

    @pytest.mark.parametrize("data", [b"# caf\xe9\nwidth 1\n", bytes(range(128, 256))])
    def test_non_utf8_document(self, capsys, tmp_path, data):
        bad = tmp_path / "bad.rvc"
        bad.write_bytes(data)
        assert main(["table", "-c", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad} is not UTF-8 text: ")
        assert err.count("\n") == 1

    def test_partition_violation_document(self, capsys, tmp_path):
        bad = tmp_path / "bad.rvc"
        bad.write_text("width 2\ninput 0\noutput 0 1\n")
        assert main(["sim", "-c", str(bad), "--int", "0"]) == 2

    @pytest.mark.parametrize(
        "args,message",
        [
            (["sim", "-x", "01"], "expected 3 characters of 0/1 for the input region, got '01'"),
            (["sim", "-x", "0a1"], "expected 3 characters of 0/1 for the input region, got '0a1'"),
            (["sim", "-x", "01010", "--backward"], "expected 4 characters of 0/1 for the final state, got '01010'"),
            (["sim", "-x", "01 1", "--backward"], "expected 4 characters of 0/1 for the final state, got '01 1'"),
            (["sim", "--int", "8"], "input value 8 does not fit 3 bits"),
            (["sim", "--int", "-1"], "input value -1 does not fit 3 bits"),
            (["invert", "-y", "0101"], "expected 3 characters of 0/1 for the output region, got '0101'"),
            (["invert", "-y", "012"], "expected 3 characters of 0/1 for the output region, got '012'"),
            (["invert"], "give exactly one of -y or --int"),
            (["invert", "-y", "010", "--int", "2"], "give exactly one of -y or --int"),
            (["invert", "--int", "2", "--max-trials", "0"], "--max-trials must be at least 1"),
            (["invert", "--int", "2", "--blind", "--max-trials", "0"], "--max-trials must be at least 1"),
        ],
    )
    def test_refused_arguments(self, capsys, incr3, args, message):
        assert main([args[0], "-c", str(incr3), *args[1:]]) == 1
        assert capsys.readouterr() == (
            "",
            f"Usage: revcirc {args[0]} [OPTIONS]\nTry 'revcirc {args[0]} --help' for help.\n\nError: {message}\n",
        )

    def test_missing_file_is_usage_error(self, capsys):
        assert main(["sim", "-c", "/nonexistent.rvc", "--int", "0"]) == 1

    def test_exhaustive_bound_exceeded(self, capsys, tmp_path):
        big = tmp_path / "big.rvc"
        assert main(["gen", "add", "--bits", "11", "-o", str(big)]) == 0
        capsys.readouterr()
        assert main(["table", "-c", str(big)]) == 4  # 22 input bits > 20

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "Reversible-logic" in capsys.readouterr().out

    def test_main_returns_the_code_a_command_exits_with(self, capsys):
        @click.command()
        @click.pass_context
        def leave(ctx):
            ctx.exit(3)

        with mock.patch.dict(cli.cli.commands, {"leave": leave}):
            assert main(["leave"]) == 3
            assert main(["--help"]) == 0
        assert "leave" in capsys.readouterr().out


# Every line boundary `str.splitlines` knows; a text-mode read turned only the first two into "\n".
_LINE_ENDS = ["\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
_GOOD_LINES = ["width 3", "input 0 1 2", "output 0 1 2", "gate ccx 0 1 2", "gate x 0"]
_BAD_LINES = ["width 3", "input 0 1 2", "output 0 1 2", "gate x 0", "  gate cx 0 5"]  # line 5, column 13
_HEAD_BYTES = b"width 3\ninput 0 1 2\noutput 0 1 2\n#"
_READ_CASES = {f"{kind} {end!r}": end.join(lines + [""]).encode() for end in _LINE_ENDS
               for kind, lines in (("good", _GOOD_LINES), ("bad", _BAD_LINES))}
_READ_CASES.update({
    "mixed ends": b"width 3\r\r\ninput 0 1 2\n\routput 0 1 2\r\ngate x 0\rgate cx 0 1",
    "crlf across 8 KiB": _HEAD_BYTES + b"x" * (8191 - len(_HEAD_BYTES)) + b"\r\ngate cx 0 9\r\n",  # CR is byte 8191
    "utf-8 bom": b"\xef\xbb\xbf" + "\n".join(_GOOD_LINES).encode(),
    "utf-8 bom, crlf": b"\xef\xbb\xbf" + "\r\n".join(_GOOD_LINES).encode(),
    "not utf-8 past 8 KiB": b"width 1\ninput 0\noutput 0\n# " + b"x" * 9000 + b"\xff\n",
    "cut utf-8 at the end": b"width 1\ninput 0\noutput 0\n# caf\xc3",
})


def text_read_outcome(path: Path):
    """What `cli._load` gave for `path` when it read it with `Path.read_text`: its machine, or its refusal."""
    try:
        return parse_circuit(path.read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        return InvalidCircuitError, f"{path} is not UTF-8 text: {exc}"
    except InvalidCircuitError as exc:
        return type(exc), str(exc)


def loaded_outcome(path: Path):
    """What `cli._load` gives for `path`: its machine, or the class and text of its refusal, as above."""
    try:
        return cli._load(str(path))
    except InvalidCircuitError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("data", list(_READ_CASES.values()), ids=list(_READ_CASES))
def test_load_gives_what_the_text_read_gave(tmp_path, data):
    path = tmp_path / "doc.rvc"
    path.write_bytes(data)
    assert loaded_outcome(path) == text_read_outcome(path)


def test_load_frees_the_bytes_before_the_parse(tmp_path):
    # A text-mode read freed the file's bytes once it had decoded them; one binary read must too.
    path = tmp_path / "m.rvc"
    path.write_text(serialize(incrementer(1000)))
    size = path.stat().st_size
    held = []
    parse = cli.parse_circuit

    def measured(text):
        held.append(tracemalloc.get_traced_memory()[0])
        return parse(text)

    tracemalloc.start()
    try:
        with mock.patch.object(cli, "parse_circuit", measured):
            cli._load(str(path))
    finally:
        tracemalloc.stop()
    assert size < held[0] < 1.5 * size, (size, held)


@pytest.fixture()
def collector():
    """Yields nothing; restores the cyclic collector's state the test found, whatever the test did to it."""
    collecting = gc.isenabled()
    yield
    (gc.enable if collecting else gc.disable)()

class TestCollectorPause:
    """`main` pauses the cyclic collector for one command and leaves it as it found it."""

    # Each exit path of `main` with its code; the documents are written to tmp_path first.
    EXITS = [
        (["gen", "incr", "--bits", "3", "-o", "{tmp}/out.rvc"], 0),
        (["sim", "-c", "{tmp}/zero.rvc"], 1),
        (["sim", "-c", "{tmp}/bad.rvc", "--int", "0"], 2),
        (["invert", "-c", "{tmp}/zero.rvc", "--int", "1"], 3),
        (["growth", "--family", "incr", "--from", "21", "--to", "23"], 4),
    ]

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("argv, code", EXITS)
    def test_main_restores_the_collector_on_every_exit_path(self, tmp_path, collector, enabled, argv, code):
        (tmp_path / "zero.rvc").write_text("width 1\npreset 0=0\noutput 0\n")
        (tmp_path / "bad.rvc").write_text("width 2\ninput 0 1\noutput 0 1\ngate ccx 0 1 5\n")
        (gc.enable if enabled else gc.disable)()
        assert run_captured([word.format(tmp=tmp_path) for word in argv])[0] == code
        assert gc.isenabled() is enabled

    @pytest.mark.parametrize("enabled", [True, False])
    def test_main_restores_the_collector_when_a_command_raises(self, incr3, collector, enabled):
        during = []

        def fail(machine):
            during.append(gc.isenabled())
            raise RuntimeError("a command failed")

        (gc.enable if enabled else gc.disable)()
        with mock.patch.object(cli, "truth_table", fail), pytest.raises(RuntimeError, match="a command failed"):
            main(["table", "-c", str(incr3)])
        assert during == [False]
        assert gc.isenabled() is enabled

    def test_a_command_runs_no_collection_and_leaves_nothing_behind(self, tmp_path, collector):
        gc.enable()
        started = []  # the generation of each collection begun while `record` is registered

        def record(phase, info):
            if phase == "start":
                started.append(info["generation"])

        def run(argv: list[str]) -> str:
            """Run one command through `main`; return its stdout, and note what gc.collect() finds after it."""
            gc.collect()
            started.clear()
            out = io.StringIO()
            gc.callbacks.append(record)
            try:
                with contextlib.redirect_stdout(out):
                    code = main(argv)
                    during = len(started)  # read before anything allocates after `main` returns
            finally:
                gc.callbacks.remove(record)
            assert (code, during) == (0, 0), argv
            # Resumed, the collector runs at most one young pass, over what the command left alive.
            assert started in ([], [0]), argv
            found.append(gc.collect())
            return out.getvalue()

        found_at = {}  # bits -> what gc.collect() finds right after each command
        for bits in (30, 300):
            found = found_at[bits] = []
            d = tmp_path / str(bits)
            d.mkdir()
            run(["gen", "incr", "--bits", str(bits), "-o", f"{d}/incr.rvc"])
            run(["gen", "decr", "--bits", str(bits), "-o", f"{d}/decr.rvc"])
            run(["zg-compose", "--forward", f"{d}/incr.rvc", "--inverse", f"{d}/decr.rvc", "-o", f"{d}/zg.rvc"])
            run(["bennett", "-c", f"{d}/incr.rvc", "-o", f"{d}/bennett.rvc"])
            final = json.loads(run(["sim", "-c", f"{d}/zg.rvc", "--int", "5", "--json"]))["final_state"]
            assert json.loads(run(["sim", "-c", f"{d}/zg.rvc", "--backward", "-x", final, "--json"]))["input_value"] == 5
        assert found_at[30] == found_at[300]


def test_module_entry_point_smoke(tmp_path):
    out = tmp_path / "m.rvc"
    src = str(Path(revcirc.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "revcirc", "gen", "incr", "--bits", "4", "-o", str(out)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert "wrote" in proc.stdout
    proc = subprocess.run(
        [sys.executable, "-m", "revcirc", "sim", "-c", str(out), "--int", "9"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert "output: 10" in proc.stdout
    # A refusal leaves through `entry`'s sys.exit with its documented code.
    constant = tmp_path / "constant.rvc"
    constant.write_text("width 1\npreset 0=0\noutput 0\n")
    proc = subprocess.run(
        [sys.executable, "-m", "revcirc", "invert", "-c", str(constant), "--int", "1"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr == "error: no garbage configuration matches output 1: it is not in the machine's image\n"
    # An argv naming no command reaches the group through `entry`, where `main` reads sys.argv itself.
    records = {tuple(want["argv"]): want for want in json.loads(CORPUS.read_text())}
    for argv in ([], ["nope"]):
        proc = subprocess.run([sys.executable, "-m", "revcirc", *argv], capture_output=True, text=True, env=env)
        want = records[tuple(argv)]
        assert proc.returncode == want["exit"], argv
        assert hashlib.sha256(proc.stdout.encode()).hexdigest() == want["stdout_sha256"], argv
        assert proc.stderr.splitlines()[0] == want["stderr"].splitlines()[0], argv


def old_int_to_bits(value: int, width: int) -> str:
    """The per-bit join `_int_to_bits` replaced, kept as its oracle."""
    return "".join(str((value >> i) & 1) for i in range(width))


@given(st.integers(0, 70).flatmap(lambda w: st.tuples(st.integers(0, (1 << w) - 1), st.just(w))))
def test_int_to_bits_matches_per_bit_join(case):
    value, width = case
    assert _int_to_bits(value, width) == old_int_to_bits(value, width)


_INTS = st.integers() | st.integers(-(10**100), 10**100)
# Strings near `cli._HOLE`: the six characters \u0000, NULs beside other characters, and `%` forms.
# A lone NUL is left out: no report holds one, and it would read as a hole.
_TEXT = st.sampled_from(["\\u0000", "a\x00", '"\x00', " \x00", "%s", "%%"]) | st.text(max_size=6).filter(
    lambda text: text != "\x00"
)
_KEYS = st.sampled_from(["", "%", "%d", "a%%b", "caf\u00e9", "\x00\n\""]) | _TEXT
# json.dumps writes an int key as its decimal string: negative and huge ones too.
_INT_KEYS = st.integers(-3, 3) | _INTS
_SCALARS = st.none() | st.booleans() | _INTS | st.floats() | _TEXT
# Lists of dicts that share one key tuple and hold only ints: the shape of a table's rows.
_INT_ROWS = st.lists(_KEYS | _INT_KEYS, unique=True, max_size=4).flatmap(
    lambda keys: st.lists(st.fixed_dictionaries({k: _INTS for k in keys}), max_size=4)
)
_JSON = st.recursive(
    _SCALARS,
    lambda children: (
        st.lists(children, max_size=4)
        | st.dictionaries(_KEYS, children, max_size=4)
        | st.dictionaries(_INT_KEYS, children, max_size=4)
        | st.dictionaries(_KEYS | _INT_KEYS, children, max_size=4)
        | st.lists(_INTS, max_size=6)
        | st.dictionaries(_KEYS, _INTS, max_size=6)
        | st.dictionaries(_INT_KEYS, _INTS, max_size=6)
        | st.dictionaries(_KEYS | _INT_KEYS, _INTS | st.booleans(), max_size=6)
        | st.lists(st.dictionaries(_KEYS, _INTS | st.booleans(), max_size=3), max_size=4)
        | _INT_ROWS
    ),
    max_leaves=24,
)


def with_sections(value, depth: int, draw):
    """`value` with drawn subtrees below the root replaced by `_Json` sections written at their depth.

    A list of ints, or a dict of int keys and int values, is written by `_repeated`; any other
    subtree by `json.dumps(indent=2)`, its lines indented to its depth.
    """
    if depth and draw(st.booleans()):
        pad = "  " * depth
        if isinstance(value, list) and all(type(item) is int for item in value):
            return _repeated("%d", pad, "[]", value)
        if isinstance(value, dict) and all(type(k) is type(v) is int for k, v in value.items()):
            return _repeated('"%d": %d', pad, "{}", list(value), value.values())
        return _Json(json.dumps(value, indent=2).replace("\n", "\n" + pad))
    if isinstance(value, dict):
        return {key: with_sections(item, depth + 1, draw) for key, item in value.items()}
    if isinstance(value, list):
        return [with_sections(item, depth + 1, draw) for item in value]
    return value


@settings(max_examples=500)
@given(_JSON, st.data())
def test_dumps_matches_json_indent_2(value, data):
    assert _dumps(with_sections(value, 0, data.draw)) == json.dumps(value, indent=2)


@pytest.mark.parametrize("seed", range(4))
def test_dumps_bulk_sections_of_1024_rows(seed):
    # the sizes of a report's per_output map, configs and table rows, past what hypothesis draws
    rng = random.Random(seed)
    ints = [rng.choice([0, -1, rng.getrandbits(70), -rng.getrandbits(8)]) for _ in range(3 << 10)]
    per_output = dict(zip(rng.sample(range(-5000, 5000), 1 << 10), ints))
    rows = [{"input": x, "output": ints[x], "garbage": ints[x + 1024]} for x in range(1 << 10)]
    report = {"per_output": per_output, "rows": rows, "configs": ints, 7: [True] + ints[:5]}
    assert_same_text(_dumps(report), json.dumps(report, indent=2))
    sections = {
        "per_output": _repeated('"%d": %d', "  ", "{}", list(per_output), per_output.values()),
        "rows": _repeated(_ROW, "  ", "[]", range(1 << 10), ints[:1024], ints[1024:2048]),
        "configs": _repeated("%d", "  ", "[]", ints),
        7: report[7],
    }
    assert_same_text(_dumps(sections), json.dumps(report, indent=2))


@pytest.mark.parametrize(
    "value",
    [[True, 1], [1, False], {1: True}, {"a": 1, "b": False}, {1: 2, 3: False}, [{"a": True}, {"a": 1}], [{1: 1}, {1: False}]],
)
def test_dumps_keeps_bools_off_the_int_paths(value):
    # json writes a bool as true/false, never 1/0, also beside a section of ints
    assert _dumps(value) == json.dumps(value, indent=2)
    section = _repeated("%d", "  ", "[]", [1, 0])
    assert _dumps({"ints": section, "value": value}) == json.dumps({"ints": [1, 0], "value": value}, indent=2)


@pytest.mark.parametrize("value", [{True: 1}, {1.5: 1}, {None: 2}, [{False: 1}]])
def test_dumps_writes_other_keys_as_json_does(value):
    # a bool, float or None key is json's to write, as "true", "1.5" or "null"; the writer adds no rule
    assert _dumps(value) == json.dumps(value, indent=2)


def test_dumps_leaves_no_section_to_the_collector():
    # With `indent` set, `json`'s encoder forms a reference cycle holding `default`: a section it
    # held would stay alive, under `main`'s paused collector, beside the text written from it.
    section = _repeated("%d", "  ", "[]", [1, 2])
    collecting = gc.isenabled()
    gc.disable()
    try:
        held = sys.getrefcount(section)
        assert _dumps({"configs": section}) == json.dumps({"configs": [1, 2]}, indent=2)
        assert sys.getrefcount(section) == held
    finally:
        if collecting:
            gc.enable()


def json_argvs(machine, path: Path, out: Path) -> list[list[str]]:
    """Every machine-reading command with --json, with arguments valid for `machine`."""
    iface = machine.iface
    y = run(machine.circuit, initial_state(machine, 0)).value_of(iface.output_lines)
    p = str(path)
    argvs = [
        ["sim", "-c", p, "--int", "0"],
        ["sim", "-c", p, "-x", "0" * iface.width, "--backward"],
        ["table", "-c", p],
        ["profile", "-c", p],
        ["invert", "-c", p, "--int", str(y)],
        ["invert", "-c", p, "--int", str(y), "--blind", "--seed", "1"],
        ["inverse", "-c", p, "-o", str(out)],
        ["bennett", "-c", p, "-o", str(out)],
    ]
    return [argv + ["--json"] for argv in argvs]


def run_captured(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def assert_json_form(out: str) -> None:
    assert_same_text(out, json.dumps(json.loads(out), indent=2) + "\n")


def emitted_reports(argvs: list[list[str]]) -> list[tuple[int, str, list[dict]]]:
    """(exit code, stdout, reports passed to `_emit`) for each command."""
    results = []
    for argv in argvs:
        reports: list[dict] = []
        emit = cli._emit
        with mock.patch.object(cli, "_emit", lambda r, *a: (reports.append(r), emit(r, *a))):
            code, out = run_captured(argv)
        results.append((code, out, reports))
    return results


def reference_report(machine, argv: list[str]) -> tuple[int, dict | None] | None:
    """(exit code, report) of `table`, `profile` or table-method `invert`, built as dicts; None for other commands.

    The reports as the CLI built them before it wrote rows and per_output maps straight from the
    columns: one dict per table row, and the profile's sorted `as_dict()`. The writer's oracle.
    """
    command = argv[0]
    if command not in ("table", "profile", "invert") or "--blind" in argv:
        return None
    try:
        t = truth_table(machine)
    except RestorationViolationError as exc:
        if command != "profile":
            return 2, None
        conf = ConformanceReport.from_outcome(machine, machine_id(machine), exc)
        return 2, {"command": "profile", "conformance": conf.as_dict()}
    if command == "table":
        rows = [{"input": x, "output": out, "garbage": g} for x, (out, g) in enumerate(zip(t.outputs, t.garbage))]
        return 0, {
            "command": "table", "input_bits": t.input_width, "output_bits": t.output_width,
            "injective": len(set(t.outputs)) == len(t.outputs), "rows": rows,
        }
    prof = garbage_profile(machine)
    if command == "profile":
        conf = ConformanceReport.from_outcome(machine, prof.machine_id, None)
        return 0, {"command": "profile", **prof.as_dict(), "conformance": conf.as_dict()}
    y = int(argv[argv.index("--int") + 1])
    iface = machine.iface
    result = invert_with_profile(machine, y, prof)
    tried = prof.configs[: result.trials]
    return 0, {
        "command": "invert", "output_value": y, **result.as_dict(),
        "attempts": [{"config": cfg, "accepted": i == len(tried)} for i, cfg in enumerate(tried, 1)],
        "profile": prof.as_dict(),
        "matched_config_bits": old_int_to_bits(result.matched_config, iface.garbage_width),
        "input_bits": old_int_to_bits(result.input_value, iface.input_width),
    }


def check_emitted_bytes(machine, argv: list[str], code: int, out: str, reports: list[dict]) -> None:
    """stdout is `json.dumps(report, indent=2)` plus a newline, for the reference report or, where the
    CLI still builds its report as plain dicts, for the dict it gave `_emit`."""
    expected = reference_report(machine, argv)
    if expected is None:
        for r in reports:
            assert_same_text(out, json.dumps(r, indent=2) + "\n", argv)
        return
    want_code, report = expected
    assert code == want_code, argv
    assert_same_text(out, "" if report is None else json.dumps(report, indent=2) + "\n", argv)


def check_machine_reports(machine) -> int:
    """Run every --json command on `machine`; check its bytes against the reference; count reports."""
    count = 0
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.rvc"
        path.write_text(serialize(machine))
        argvs = json_argvs(machine, path, Path(tmp) / "o.rvc")
        for argv, (code, out, reports) in zip(argvs, emitted_reports(argvs)):
            check_emitted_bytes(machine, argv, code, out, reports)
            count += len(reports)
            if out:
                assert_json_form(out)
    return count


class TestJsonForm:
    """Every --json report is exactly `json.dumps(..., indent=2)` text plus a newline."""

    @settings(max_examples=60, deadline=None)
    @given(machines())
    def test_reports_on_generated_machines(self, m):
        assert check_machine_reports(m) >= 2  # both sim directions always report

    def test_reports_on_roster(self):
        for name, m in small_machine_roster():
            assert check_machine_reports(m) == 8, name

    @pytest.mark.parametrize("name", sorted(p.name for p in GOLDEN.glob("*.rvc")))
    def test_reports_on_golden_files(self, name):
        assert check_machine_reports(parse_circuit((GOLDEN / name).read_text())) == 8

    @pytest.mark.parametrize(
        "family,n",
        [(incrementer, 2), (incrementer, 6), (incrementer, 12), (ripple_adder, 1), (ripple_adder, 4), (ripple_adder, 7)],
    )
    def test_reports_on_library_sizes(self, family, n):
        assert check_machine_reports(family(n)) == 8

    def test_growth_gen_and_compose(self, tmp_path):
        incr, decr = str(tmp_path / "i.rvc"), str(tmp_path / "d.rvc")
        argvs = [
            ["growth", "--family", "incr", "--from", "2", "--to", "13"],
            ["growth", "--family", "adder", "--from", "2", "--to", "7"],
            ["gen", "incr", "--bits", "4", "-o", incr],
            ["gen", "decr", "--bits", "4", "-o", decr],
            ["gen", "add", "--bits", "3", "-o", str(tmp_path / "a.rvc")],
            ["zg-compose", "--forward", incr, "--inverse", decr, "-o", str(tmp_path / "z.rvc")],
            ["zg-compose", "--forward", str(GOLDEN / "incrementer_3.rvc"),
             "--inverse", str(GOLDEN / "decrementer_3.rvc"), "-o", str(tmp_path / "g.rvc")],
        ]
        for (code, out, reports), argv in zip(emitted_reports([a + ["--json"] for a in argvs]), argvs):
            assert code == 0, argv
            assert_json_form(out)
            assert [json.dumps(r, indent=2) + "\n" for r in reports] == [out]


# Machines of 0 and 1 input bits: a lone row, and two rows the output swaps.
_ZERO_INPUT = "width 2\npreset 0=1 1=0\noutput 0\ngarbage 1\ngate cx 0 1\n"
_ONE_INPUT = "width 2\ninput 0\npreset 1=1\noutput 1\ngarbage 0\ngate cx 0 1\n"


class TestColumnWriters:
    """`table`, `profile` and table-method `invert` --json write rows and per_output maps from the columns."""

    def test_row_template_is_gone(self):
        assert not hasattr(cli, "_row_template")

    @pytest.mark.parametrize(
        "text",
        [_ZERO_INPUT, _ONE_INPUT, serialize(incrementer(14)), serialize(incrementer(16))],
        ids=["n0", "n1", "incr14", "incr16-four-chunks"],
    )
    def test_bytes_match_the_dict_built_reports(self, tmp_path, text):
        machine = parse_circuit(text)
        path = tmp_path / "m.rvc"
        path.write_text(text)
        t = truth_table(machine)
        ys = sorted({t.outputs[0], t.outputs[-1]})
        argvs = [["table", "-c", str(path)], ["profile", "-c", str(path)]]
        argvs += [["invert", "-c", str(path), "--int", str(y)] for y in ys]
        expected = [reference_report(machine, argv) for argv in argvs]
        # Neither the sorted per_output dict nor any report's as_dict() is built on the way.
        unbuilt = mock.Mock(side_effect=AssertionError("as_dict() was built"))
        with mock.patch.object(GarbageProfile, "as_dict", unbuilt):
            got = [run_captured(argv + ["--json"]) for argv in argvs]
        for argv, (code, report), (got_code, out) in zip(argvs, expected, got):
            assert got_code == code, argv
            assert_same_text(out, json.dumps(report, indent=2) + "\n", argv)
        assert unbuilt.call_count == 0

    def test_human_profile_and_invert_build_no_map_and_no_digest(self, capsys, incr3):
        unbuilt = mock.Mock(side_effect=AssertionError("as_dict() or digest() was called"))
        with mock.patch.object(GarbageProfile, "as_dict", unbuilt), mock.patch.object(GarbageProfile, "digest", unbuilt):
            assert main(["profile", "-c", str(incr3)]) == 0
            assert main(["invert", "-c", str(incr3), "--int", "0"]) == 0
        assert unbuilt.call_count == 0
        assert capsys.readouterr().out.splitlines()[-1] == "input: 7 (bits 111), matched garbage 1"


def preset_garbage_document(garbage: int, bit: int = 1) -> str:
    """One input line, which is the output, and `garbage` lines preset to `bit` and declared garbage."""
    lines = range(1, garbage + 1)
    return (
        f"width {garbage + 1}\ninput 0\npreset {' '.join(f'{l}={bit}' for l in lines)}\n"
        f"output 0\ngarbage {' '.join(map(str, lines))}\n"
    )


class TestDecimalWidthRefusal:
    """A report never writes a value of a region too wide for `str()`; it refuses with exit 4 before running."""

    def test_bound_is_the_widest_region_str_writes(self):
        assert sys.get_int_max_str_digits() == 4300  # Python's default
        assert len(str((1 << _DECIMAL_BITS) - 1)) == 4300
        with pytest.raises(ValueError):
            str((1 << _DECIMAL_BITS + 1) - 1)

    # The 188 KB document of 15,000 garbage lines: each command's exit code, and what a refusal says.
    REFUSED = "error: garbage region has 15000 bits; refusing to write its values in decimal beyond 14284\n"
    CASES = [
        (["profile"], 0, ""),
        (["profile", "--json"], 4, REFUSED),
        (["table"], 0, ""),
        (["table", "--json"], 4, REFUSED),
        (["sim", "--int", "1"], 0, ""),
        (["sim", "--int", "1", "--json"], 4, REFUSED),
        (["sim", "-x", "1" * 15001, "--backward"], 0, ""),
        (["sim", "-x", "1" * 15001, "--backward", "--json"], 0, ""),  # writes only the 1-bit input region
        (["invert", "--int", "1"], 0, ""),
        (["invert", "--int", "1", "--json"], 4, REFUSED),
        (["invert", "--int", "1", "--blind"], 4, "error: garbage region has 15000 bits; refusing blind search beyond 20\n"),
        (["invert", "--int", "1", "--blind", "--json"], 4, REFUSED),
    ]

    def test_no_command_crashes_on_15000_preset_garbage_lines(self, tmp_path):
        path = tmp_path / "wide.rvc"
        path.write_text(preset_garbage_document(15000))
        assert 180_000 < path.stat().st_size < 200_000
        for args, code, err_text in self.CASES:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                assert main([args[0], "-c", str(path), *args[1:]]) == code, args
            assert err.getvalue() == err_text, args
            assert bool(out.getvalue()) == (code == 0), args
        assert run_captured(["invert", "-c", str(path), "--int", "1"])[1].endswith(f"matched garbage {'1' * 15000}\n")

    def test_refused_before_any_gate_runs(self, tmp_path):
        path = tmp_path / "wide.rvc"
        path.write_text(preset_garbage_document(15000))
        no_gates = mock.Mock(side_effect=AssertionError("a gate ran"))
        with mock.patch.object(revcirc.sim, "_apply_gates", no_gates), mock.patch.object(cli, "_apply_gates", no_gates):
            for args, code, err_text in self.CASES:
                if err_text == self.REFUSED:
                    assert run_captured([args[0], "-c", str(path), *args[1:]]) == (4, ""), args
        assert no_gates.call_count == 0

    # The exit code and message of each form of `invert -y 0…01` on a document of no garbage whose 15,001 lines
    # are all output: only --json writes y = 2^15000 in decimal; the human refusals name it by its bit length.
    TOO_WIDE_Y = {
        (): (3, "no garbage configuration matches output of 15001 bits: it is not in the machine's image"),
        ("--blind",): (
            3,
            "no consistent garbage string found for output of 15001 bits in 64 trials"
            " (k=0 garbage bits; expected cost grows as 2^k)",
        ),
        ("--json",): (4, "output region has 15001 bits; refusing to write its values in decimal beyond 14284"),
        ("--blind", "--json"): (4, "output region has 15001 bits; refusing to write its values in decimal beyond 14284"),
    }

    @pytest.mark.parametrize("flags", [[], ["--blind"], ["--json"], ["--blind", "--json"]])
    def test_invert_refuses_an_output_region_too_wide_for_its_messages(self, tmp_path, flags):
        path = tmp_path / "wide_output.rvc"
        path.write_text(f"width 15001\ninput 0\npreset {' '.join(f'{l}=0' for l in range(1, 15001))}\noutput {' '.join(map(str, range(15001)))}\n")
        code, message = self.TOO_WIDE_Y[tuple(flags)]
        no_gates = mock.Mock(side_effect=AssertionError("a gate ran"))
        gates = mock.patch.object(revcirc.sim, "_apply_gates", no_gates) if code == 4 else contextlib.nullcontext()
        out, err = io.StringIO(), io.StringIO()
        with gates, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            assert main(["invert", "-c", str(path), "-y", "0" * 15000 + "1", *flags]) == code
        assert (out.getvalue(), err.getvalue()) == ("", f"error: {message}\n")

    @pytest.mark.parametrize("limit", [0, 640, 641, 1000, 4299, 4300, 5000])
    def test_a_lower_digit_limit_lowers_the_bound(self, limit):
        previous = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(limit)
        try:
            bound = _decimal_bits()
            assert bound == (min(14284, (10**limit).bit_length() - 1) if 0 < limit < 4300 else 14284)
            str((1 << bound) - 1)  # the widest value writes; one bit more does not, up to the default limit
            if 0 < limit <= 4300:
                with pytest.raises(ValueError):
                    str((1 << bound + 1) - 1)
        finally:
            sys.set_int_max_str_digits(previous)

    def test_sim_json_refuses_under_a_lower_digit_limit(self, tmp_path):
        # `sim` formats its human lines even for --json, so the input region is refused at 2,127 bits under 640 digits.
        path = tmp_path / "incr3000.rvc"
        assert run_captured(["gen", "incr", "--bits", "3000", "-o", str(path)])[0] == 0
        previous = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            assert _decimal_bits() == 2126
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                assert main(["sim", "-c", str(path), "-x", "1" * 3000, "--json"]) == 4
            assert (out.getvalue(), err.getvalue()) == (
                "", "error: input region has 3000 bits; refusing to write its values in decimal beyond 2126\n"
            )
            for garbage, code in ((2126, 0), (2127, 4)):
                wide = tmp_path / f"g{garbage}.rvc"
                wide.write_text(preset_garbage_document(garbage))
                assert run_captured(["sim", "-c", str(wide), "--int", "1", "--json"])[0] == code, garbage
        finally:
            sys.set_int_max_str_digits(previous)

    def test_refusal_starts_one_bit_past_the_bound(self, tmp_path):
        for garbage, code in ((_DECIMAL_BITS, 0), (_DECIMAL_BITS + 1, 4)):
            path = tmp_path / f"g{garbage}.rvc"
            path.write_text(preset_garbage_document(garbage))
            got, out = run_captured(["sim", "-c", str(path), "--int", "1", "--json"])
            assert got == code, garbage
            if code == 0:
                assert json.loads(out)["garbage_value"] == (1 << garbage) - 1

    def test_the_cli_refuses_by_width_and_the_library_by_value(self, tmp_path):
        # Every configuration is 0, one digit; the CLI refuses by the region's width, before any gate runs.
        path = tmp_path / "zeros.rvc"
        path.write_text(preset_garbage_document(15000, bit=0))
        no_gates = mock.Mock(side_effect=AssertionError("a gate ran"))
        with mock.patch.object(revcirc.sim, "_apply_gates", no_gates):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                assert main(["profile", "-c", str(path), "--json"]) == 4
        assert (out.getvalue(), err.getvalue()) == ("", self.REFUSED)
        report = garbage_profile(parse_circuit(path.read_text())).as_dict()
        assert (report["configs"], report["config_count"]) == ([0], 1)
