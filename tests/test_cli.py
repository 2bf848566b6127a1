"""CLI commands, JSON reports, and documented exit codes."""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import revcirc
from revcirc import parse_circuit, truth_table
from revcirc.cli import main


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

    def test_growth_range_too_short(self, capsys):
        assert main(["growth", "--family", "incr", "--from", "2", "--to", "3"]) == 1


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


def test_module_entry_point_smoke(tmp_path):
    out = tmp_path / "m.rvc"
    src = str(Path(revcirc.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
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
