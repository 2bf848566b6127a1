"""Run each source mutant against the test files that must kill it.

A mutant replaces one exact text of one module of `src/revcirc` with another. Each is applied in a fresh
temporary copy of `src/`, `tests/`, `golden/`, `docs/`, `README.md` and `pyproject.toml` (the golden tests
read `docs/` and `README.md`), which holds no hypothesis database. Its named test files then run under
`pytest -x -q`, one mutant at a time, each run cut after TIMEOUT seconds. First, every named test file
runs once in an unmutated copy, and the harness stops with exit 1 if that run does not pass. A mutant
counts as killed only when pytest reports failed tests (exit 1); any other exit code is an error. Each
mutant's line says whether it was killed, and by which test and exception, survived, timed out or met an
error. The exit status is 1 if any mutant was not killed. Only the standard library is used, and pytest
does not collect this file:

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


_CLASSIFIER = ("tests/test_analysis.py", "tests/test_cli.py")
_COMPOSE = ("tests/test_sim.py", "tests/test_transforms.py")
_DECIMAL = ("tests/test_cli.py", "tests/test_analysis.py")
_FILEFORMAT = ("tests/test_fileformat.py",)
_INVERT = ("tests/test_invert.py", "tests/test_cli.py")
_IR = ("tests/test_ir.py",)
_LIBRARY = ("tests/test_library.py",)
_TRANSFORMS = ("tests/test_transforms.py",)

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
    Mutant("invert.py", 'if fit is None or "1" in fit:', "if fit is None or True:",
           "a fit table with no garbage value that fits ends the search before any draw", _INVERT),
    Mutant("analysis.py", "check_enumeration_bound(machine.iface.input_width, max_input_bits)", "pass",
           "growth refuses each oversized size before any size is enumerated",
           ("tests/test_sim.py", "tests/test_analysis.py")),
    Mutant("sim.py", "_DECIMAL_BITS = 14284", "_DECIMAL_BITS = 14283",
           "the widest value str() writes in decimal", _DECIMAL),
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
    # The one integer rule of `ir`: every index the public constructors take is read by `_index`.
    Mutant("ir.py", "return {*map(type, values)} <= {int}", "return True",
           "a tuple of indices that holds a bool or a float is read one index at a time", _IR),
    Mutant("ir.py", '_index(c, "constant")', "int(c)",
           "a preset or restored constant that is not an int is refused, not truncated", _IR),
    Mutant("ir.py", 'object.__setattr__(self, "width", _index(self.width, "interface width"))', "pass",
           "an interface width that is not an int is refused before it reaches a document", _IR),
    Mutant("ir.py", 'new_width = _index(new_width, "circuit width")', "pass",
           "remap refuses a new width that is not an int", _IR),
    Mutant("ir.py", "new_line = image.__getitem__", "new_line = line_map.__getitem__",
           "remap builds its gates from the image read as ints, not from the map as given", _IR),
    Mutant("transforms.py", "src, dst = _indices(src), _indices(dst)", "pass",
           "copy_fanout reads its lines as ints before it builds or sizes anything", _TRANSFORMS),
    Mutant("transforms.py", 'else _index(width, "circuit width")', "else width",
           "copy_fanout reads a width it is given as an int", _TRANSFORMS),
    # The parser's fast path and its walker, each against the reference parser.
    Mutant("fileformat.py", "if a == b or a == t or b == t:", "if a == b or a == t:",
           "a Toffoli whose second control is its target is refused", _FILEFORMAT),
    Mutant("fileformat.py", "if top >= width:", "if top > width:",
           "a gate on the line numbered `width` is out of range", _FILEFORMAT),
    Mutant("fileformat.py", "if len(widths) != 1 or widths[0] < 1:", "if len(widths) != 1 or widths[0] < 0:",
           "width 0 is refused by the header, before a gate block of any length is built", _FILEFORMAT),
    Mutant("fileformat.py", "if width is not None and line >= width:", "if width is not None and line > width:",
           "the walker names a gate line at exactly `width` as out of range", _FILEFORMAT),
    Mutant("fileformat.py", '_BIT = {"=0": 0, "=1": 1}', '_BIT = {"=0": 0, "=1": 1, "=2": 1}',
           "a LINE=BIT word takes only the bits 0 and 1", _FILEFORMAT),
    Mutant("fileformat.py", 'plain = chars.isascii() and not ("-" in chars or "+" in chars or "_" in chars)',
           'plain = chars.isascii() and not ("-" in chars or "+" in chars)',
           "a word with `_`, which int() reads, is not taken as a plain index", _FILEFORMAT),
    Mutant("fileformat.py", 'lines = [raw.partition("#")[0] if "#" in raw else raw for raw in lines]',
           'lines = [raw.partition("#")[0] if raw.startswith("#") else raw for raw in lines]',
           "a comment is cut wherever its `#` stands on the line", _FILEFORMAT),
    Mutant("fileformat.py", "if len(set(lines)) != arity:", "if False:",
           "the walker names a gate line that lists a line twice", _FILEFORMAT),
    Mutant("fileformat.py", "_SLICE = 4096", "_SLICE = 1",
           "serialize joins its gate lines in slices, so it never holds one string per gate line", _FILEFORMAT),
    # The library machines, each against its closed-form oracle.
    Mutant("library.py", "for i in range(2, n - 1):", "for i in range(2, n - 2):",
           "the incrementer's carry chain reaches its last carry line", _LIBRARY),
    Mutant("library.py", "if i < n - 1:", "if i < n - 2:",
           "the adder computes a carry out of every position but the top one", _LIBRARY),
    Mutant("library.py", "concat(concat(wrap, inc.circuit), wrap)", "concat(wrap, inc.circuit)",
           "the decrementer complements its register again after the increment", _LIBRARY),
    # The evaluation core, the bit order and the decimal bound.
    Mutant("sim.py", "_CHUNK_BITS = 14", "_CHUNK_BITS = 13",
           "every chunked pass covers at most 2^14 values", ("tests/test_sim.py", "tests/test_invert.py")),
    Mutant("sim.py", 'return format(value, f"0{width}b")[::-1] if width else ""',
           'return format(value, f"0{width}b") if width else ""',
           "a value's bits are written bit 0 first", ("tests/test_sim.py",)),
    Mutant("sim.py", "0 < limit < 4300", "0 < limit",
           "a digit limit above the default leaves the decimal bound at 14,284 bits", _DECIMAL),
    Mutant("sim.py", "size = 1 << (groups - 1).bit_length() if groups <= 8 else groups",
           "size = 1 << (groups - 1).bit_length() if groups <= 4 else groups",
           "a region of 33 to 64 lines is read back as one array of 8-byte words", ("tests/test_sim.py",)),
    Mutant("sim.py", "x = chunk * full.bit_length() + lane.bit_length() - 1",
           "x = chunk * full.bit_length() + lane.bit_length()",
           "a restored-line violation names the lowest failing input", ("tests/test_sim.py",)),
    # The reports, the profile and the inversions built on the core.
    Mutant("cli.py", 'if len(bits) != width or bits.strip("01"):', "if len(bits) != width:",
           "-x/-y bits other than 0 and 1 are a usage error", ("tests/test_cli.py",)),
    Mutant("cli.py", "if not 0 <= value < (1 << width):", "if not 0 <= value <= (1 << width):",
           "an --int value of 2^width does not fit the region", ("tests/test_cli.py",)),
    Mutant("analysis.py", "_MAX_SPLIT_CONFIGS = 512", "_MAX_SPLIT_CONFIGS = 0",
           "garbage_configs splits masks up to its cap and transposes only past it", ("tests/test_analysis.py",)),
    Mutant("analysis.py", 'body = f"{self.garbage_bits}:"', 'body = f"{self.garbage_bits},"',
           "the configuration digest keeps the value every report and record holds", ("tests/test_analysis.py",)),
    Mutant("invert.py", "return done + (fits & -fits).bit_length() - 1", "return done + (fits & -fits).bit_length()",
           "the first guess that fits is the one accepted", _INVERT),
    Mutant("invert.py", "done += full.bit_length()", "done += full.bit_length() - 1",
           "a guess past the first draw block is counted at its own index", _INVERT),
    Mutant("transforms.py", "restored_lines=iface.preset_lines,", "restored_lines=(),",
           "bennett declares every original preset restored", _TRANSFORMS),
    Mutant("transforms.py", "if f_consts[j] != g_consts[j]", "if f_consts[j] == g_consts[j]",
           "the composed machine flips exactly the scratch constants the two machines disagree on", _COMPOSE),
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
        env["COLUMNS"] = "400"  # pytest cuts each summary line to this width: room for the exception
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
    return "killed", failed[0] if failed else "pytest exit 1"


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
        faults += outcome != "killed"
        print(f"{number:>3} {outcome:<9} {mutant.module}: {mutant.old!r} -> {mutant.new!r}", flush=True)
        print(f"      {detail or mutant.why}", flush=True)
    summary = ", ".join(f"{count} {outcome}" for outcome, count in sorted(counts.items()))
    print(f"{len(MUTANTS)} mutants: {summary} in {time.perf_counter() - start:.0f} s; {faults} not killed")
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main())
