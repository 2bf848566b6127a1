"""Run each source mutant against the test files that must kill it.

A mutant replaces one exact text of one module of `src/revcirc` with another. Each is applied in a fresh
temporary copy of `src/`, `tests/`, `golden/`, `docs/`, `README.md` and `pyproject.toml` (the golden tests
read `docs/` and `README.md`), which holds no hypothesis database. Its named test files then run under
`pytest -x -q`, one mutant at a time, each run cut after TIMEOUT seconds. First, every named test file
runs once in an unmutated copy, and the harness stops with exit 1 if that run does not pass. A mutant
counts as killed only when pytest reports failed tests (exit 1); any other exit code is an error. Each
mutant's line says whether it was killed, and by which test, survived, timed out or met an error. The
exit status is 1 if any mutant met an error, or was not killed and is not marked equivalent. Only the
standard library is used, and pytest does not collect this file:

    python tests/mutants.py

`tests/test_mutants.py` checks that each mutant's old text occurs exactly once in its module.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "golden", "docs", "README.md", "pyproject.toml")
TIMEOUT = 300  # seconds per pytest run


class Mutant(NamedTuple):
    module: str  # a file of src/revcirc
    old: str  # occurs exactly once in the module
    new: str
    why: str
    tests: tuple[str, ...]  # test files, relative to the repository root
    equivalent: str | None = None  # why no test can kill it, if none can


_CLASSIFIER = ("tests/test_analysis.py", "tests/test_cli.py")
_COMPOSE = ("tests/test_sim.py", "tests/test_transforms.py")
_INVERT = ("tests/test_invert.py", "tests/test_cli.py")

MUTANTS = (
    Mutant("analysis.py", "mean_rate >= math.log(1.4)", "mean_rate >= math.log(1.6)",
           "the log-growth floor of the paper's superpolynomial verdict", _CLASSIFIER),
    Mutant("analysis.py", "spread <= 0.15 * abs(mean_rate)", "spread <= 0.30 * abs(mean_rate)",
           "how evenly the counts must grow to read as exponential", _CLASSIFIER),
    Mutant("analysis.py", "0 < degree <= 4", "0 < degree <= 6",
           "the highest degree read as polynomial", _CLASSIFIER),
    Mutant("analysis.py", "max(residuals) <= 0.25", "max(residuals) <= 0.5",
           "how close a power law must fit", _CLASSIFIER),
    Mutant("analysis.py", "for i in range(2, len(pts)))", "for i in range(2, len(pts) - 1))",
           "the affine test skips its last point, so a bend there reads as linear", _CLASSIFIER),
    Mutant("transforms.py", "if n <= max_input_bits:", "if n < max_input_bits:",
           "a pair of exactly max_input_bits bits must still be checked", _COMPOSE),
    Mutant("transforms.py", "for m in (mf, mfinv):", "for m in ():",
           "each machine's own restored lines are checked before the pair", _COMPOSE),
    Mutant("invert.py", "max_trials = 64 << k", "max_trials = 32 << k",
           "the default blind budget, which the refusal messages name", _INVERT),
    Mutant("invert.py", 'unique = fit is not None and fit.count("1") == 1', "unique = fit is not None",
           "unique_preimage must read how many garbage values fit", _INVERT),
    Mutant("analysis.py", "check_enumeration_bound(machine.iface.input_width, max_input_bits)", "pass",
           "growth refuses each oversized size before any size is enumerated",
           ("tests/test_sim.py", "tests/test_analysis.py")),
    Mutant("analysis.py", "_DECIMAL_BITS = 14284", "_DECIMAL_BITS = 14283",
           "the widest value str() writes in decimal", ("tests/test_cli.py", "tests/test_analysis.py")),
    Mutant("cli.py", "check_enumeration_bound(bits_per_n * start, EXHAUSTIVE_BOUND)", "pass",
           "growth refuses an oversized --from before it builds the machine", ("tests/test_cli.py",)),
    Mutant("sim.py", "if bits > bound:", "if bits >= bound:",
           "every size refusal accepts its bound and refuses one bit past it", ("tests/test_sim.py",)),
    Mutant("ir.py", "if not isinstance(kind, GateKind):", "if False:",
           "a Gate of a kind that is not a GateKind is refused as invalid, not by an AttributeError",
           ("tests/test_ir.py",)),
    Mutant("ir.py", "return index(value)", "return value",
           "a line index or width that is not an int is refused, and a bool is kept as its int",
           ("tests/test_ir.py",)),
)


def _copy_tree(into: Path, mutant: Mutant | None) -> None:
    skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in COPIED:
        source = ROOT / name
        if source.is_dir():
            shutil.copytree(source, into / name, ignore=skip)
        else:
            shutil.copy2(source, into / name)
    if mutant is None:
        return
    path = into / "src" / "revcirc" / mutant.module
    text = path.read_text()
    if text.count(mutant.old) != 1:
        raise SystemExit(f"{mutant.module}: {mutant.old!r} occurs {text.count(mutant.old)} times, not once")
    path.write_text(text.replace(mutant.old, mutant.new))


def _pytest(tests: tuple[str, ...], mutant: Mutant | None = None) -> subprocess.CompletedProcess:
    """`pytest -x -q` on `tests` in a fresh copy of the tree, with `mutant` applied if one is given."""
    with tempfile.TemporaryDirectory(prefix="revcirc-mutant-") as tmp:
        _copy_tree(Path(tmp), mutant)
        env = {**os.environ, "PYTHONPATH": str(Path(tmp) / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
        return subprocess.run(argv, cwd=tmp, env=env, capture_output=True, text=True, timeout=TIMEOUT)


def run(mutant: Mutant) -> tuple[str, str]:
    """The mutant's outcome, "killed", "survived", "timed out" or "error", and the killing test or why."""
    try:
        proc = _pytest(mutant.tests, mutant)
    except subprocess.TimeoutExpired:
        return "timed out", f"after {TIMEOUT} s"
    if proc.returncode == 0:
        return "survived", ""
    if proc.returncode != 1:
        return "error", f"pytest exit {proc.returncode}: {(proc.stdout + proc.stderr).strip()[-500:]}"
    failed = [line for line in proc.stdout.splitlines() if line.startswith(("FAILED ", "ERROR "))]
    return "killed", failed[0].split(" - ")[0] if failed else "pytest exit 1"


def main() -> int:
    start, counts, faults = time.perf_counter(), {}, 0
    files = tuple(sorted({test for mutant in MUTANTS for test in mutant.tests}))
    try:
        baseline = _pytest(files)
    except subprocess.TimeoutExpired:
        print(f"the unmutated test files did not finish within {TIMEOUT} s", flush=True)
        return 1
    if baseline.returncode != 0:
        print(f"the unmutated test files fail (pytest exit {baseline.returncode}):", flush=True)
        print(baseline.stdout[-2000:] + baseline.stderr[-2000:], flush=True)
        return 1
    for number, mutant in enumerate(MUTANTS, 1):
        outcome, detail = run(mutant)
        counts[outcome] = counts.get(outcome, 0) + 1
        faults += outcome == "error" or (outcome != "killed" and mutant.equivalent is None)
        note = f" (equivalent: {mutant.equivalent})" if mutant.equivalent else ""
        print(f"{number:>3} {outcome:<9} {mutant.module}: {mutant.old!r} -> {mutant.new!r}{note}", flush=True)
        print(f"      {detail or mutant.why}", flush=True)
    summary = ", ".join(f"{count} {outcome}" for outcome, count in sorted(counts.items()))
    print(f"{len(MUTANTS)} mutants: {summary} in {time.perf_counter() - start:.0f} s; {faults} not killed")
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main())
