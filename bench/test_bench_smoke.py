"""The benchmark's smoke mode: every workload at tiny sizes, the answer checker and the trace writer."""
from __future__ import annotations

import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def test_benchmark_smoke():
    proc = subprocess.run(
        [sys.executable, str(RUN), "--smoke"],
        capture_output=True,
        text=True,
        timeout=300,
        cwd=RUN.parent.parent,
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
    results = [line for line in proc.stdout.splitlines() if line.startswith("{")]
    assert len(results) == 6  # three workloads, untraced and traced


def test_benchmark_refuses_without_sources(tmp_path):
    """Without src/revcirc beside it, the benchmark exits non-zero and prints no result."""
    bench = tmp_path / "bench"
    bench.mkdir()
    for path in RUN.parent.glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "build-large", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True,
        text=True,
        timeout=120,
        cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
