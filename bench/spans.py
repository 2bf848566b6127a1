"""Outside-in tracing of revcirc's layers, and the per-layer metrics it yields.

A layer is one package module. ``Tracer.install`` wraps every public
function of each layer at every module binding that refers to it: the
defining module, the package namespace, and modules that did
``from .sim import run`` and the like. Patching only ``revcirc.sim.run``
would miss those callers. The program itself is not changed.

Each call records one span: id, name, parent span, command id, start, end,
a count taken from its arguments or result (gates run, rows tabulated, gates
parsed, trials) and whether it raised. Spans stay in memory in two flat
arrays and are written out once, at the end. A span's self time is its
duration minus the durations of its direct children.
"""
from __future__ import annotations

import functools
import gzip
import inspect
import itertools
import json
import sys
import time
from array import array
from pathlib import Path

LAYERS = ("cli", "fileformat", "ir", "library", "sim", "analysis", "transforms", "invert")

FIELDS = ("id", "name", "parent", "command", "count", "error", "start", "end")


def _first_arg(args, kwargs, name):
    return args[0] if args else kwargs[name]


# What a traced call counts, from (args, kwargs, result).
COUNTERS = {
    "sim.run": lambda a, k, r: len(_first_arg(a, k, "circuit").gates),
    "sim.truth_table": lambda a, k, r: 1 << r.input_width,
    "fileformat.parse_circuit": lambda a, k, r: len(r.circuit.gates),
    "fileformat.serialize": lambda a, k, r: len(_first_arg(a, k, "machine").circuit.gates),
    "invert.invert_blind": lambda a, k, r: r.trials,
    "invert.invert_with_profile": lambda a, k, r: r.trials,
}

# Calls that enumerate every input of a machine.
ENUMERATORS = ("sim.truth_table", "analysis.conformance")
IR_TRANSFORMS = ("ir.remap", "ir.concat", "ir.inverse", "ir.inverse_machine")
LIBRARY_BUILDERS = ("library.incrementer", "library.decrementer", "library.ripple_adder")


class SpanLog:
    """Recorded spans plus the command table they refer to."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.commands: list[list] = []  # command id -> [round, kind]
        self.ints = array("q")  # id, name, parent, command, count, error per span
        self.times = array("d")  # start, end per span

    def __len__(self) -> int:
        return len(self.times) // 2

    def write(self, path: Path, **meta) -> None:
        """One JSON header line (`meta`, field names, name and command tables), then a line per span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {**meta, "fields": FIELDS, "names": self.names, "commands": self.commands}
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(json.dumps(header) + "\n")
            ints, times = self.ints, self.times
            for i in range(len(self)):
                r = ints[6 * i: 6 * i + 6]
                fh.write(f"{r[0]} {r[1]} {r[2]} {r[3]} {r[4]} {r[5]} {times[2 * i]!r} {times[2 * i + 1]!r}\n")

    @classmethod
    def read(cls, path: Path) -> SpanLog:
        log = cls()
        with gzip.open(path, "rt") as fh:
            header = json.loads(fh.readline())
            log.names, log.commands = header["names"], header["commands"]
            for line in fh:
                f = line.split()
                log.ints.extend(int(v) for v in f[:6])
                log.times.extend((float(f[6]), float(f[7])))
        return log

    def round_counts(self) -> list[dict[str, tuple[int, int]]]:
        """Per traced round: calls and Σ count of every span name."""
        per_round: dict[int, dict[str, list[int]]] = {}
        ints = self.ints
        for i in range(len(self)):
            name, command, count = ints[6 * i + 1], ints[6 * i + 3], ints[6 * i + 4]
            tally = per_round.setdefault(self.commands[command][0], {}).setdefault(self.names[name], [0, 0])
            tally[0] += 1
            tally[1] += count
        return [{k: tuple(v) for k, v in per_round[r].items()} for r in sorted(per_round)]

    def metrics(self, rounds: int, rows_asked: int, profile_rows_asked: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics, per traced round, computed from the spans alone.

        `rows_asked` is Σ 2^input_bits the round's commands must cover, and
        `profile_rows_asked` the part asked by `profile` commands.
        """
        n = len(self)
        ints, times = self.ints, self.times
        name, command, count = (array("q", [0]) * n for _ in range(3))
        parent = array("q", [-1]) * n
        dur = array("d", [0.0]) * n
        k = len(self.names)
        calls, counts, errors = [0] * k, [0] * k, [0] * k
        total, self_time = [0.0] * k, [0.0] * k
        for i in range(n):
            sid, nm, parent[sid], command[sid], count[sid], err = ints[6 * i: 6 * i + 6]
            name[sid] = nm
            dur[sid] = times[2 * i + 1] - times[2 * i]
            calls[nm] += 1
            counts[nm] += count[sid]
            errors[nm] += err
            total[nm] += dur[sid]
            self_time[nm] += dur[sid]
        for sid in range(n):
            if parent[sid] >= 0:
                self_time[name[parent[sid]]] -= dur[sid]

        nid = {nm: i for i, nm in enumerate(self.names)}
        kind_of = [kind for _, kind in self.commands]

        def ids(*wanted):
            return {nid[w] for w in wanted if w in nid}

        def agg(table, *wanted):
            return sum(table[i] for i in ids(*wanted))

        def under(*marked):
            """Per span: is it, or an ancestor, one of the marked names?"""
            marks = ids(*marked)
            flag = bytearray(n)
            for sid in range(n):  # a parent starts, and so is numbered, before its children
                flag[sid] = name[sid] in marks or (parent[sid] >= 0 and flag[parent[sid]])
            return flag

        def outermost(*marked):
            """(Σ duration, calls) over marked spans with no marked ancestor."""
            marks = ids(*marked)
            inside = under(*marked)
            sel = [sid for sid in range(n) if name[sid] in marks and not (parent[sid] >= 0 and inside[parent[sid]])]
            return sum(dur[s] for s in sel), len(sel)

        per = 1.0 / rounds
        m: dict[str, tuple[float, str]] = {}
        for layer in LAYERS:
            mine = [nm for nm in self.names if nm.startswith(layer + ".")]
            m[f"{layer}.self_s"] = (agg(self_time, *mine) * per, "s")
            m[f"{layer}.errors"] = (agg(errors, *mine) * per, "count")

        m["cli.commands"] = (agg(calls, "cli.main") * per, "count")
        m["fileformat.parse_s"] = (agg(total, "fileformat.parse_circuit") * per, "s")
        m["fileformat.parse_gates"] = (agg(counts, "fileformat.parse_circuit") * per, "count")
        m["fileformat.serialize_s"] = (agg(total, "fileformat.serialize") * per, "s")
        m["fileformat.serialize_calls"] = (agg(calls, "fileformat.serialize") * per, "count")
        m["ir.make_gate_s"] = (agg(total, "ir.make_gate") * per, "s")
        m["ir.make_gate_calls"] = (agg(calls, "ir.make_gate") * per, "count")
        m["ir.transform_s"] = (outermost(*IR_TRANSFORMS)[0] * per, "s")
        build_s, build_n = outermost(*LIBRARY_BUILDERS)
        m["library.build_s"] = (build_s * per, "s")
        m["library.build_calls"] = (build_n * per, "count")

        m["sim.truth_table_s"] = (agg(total, "sim.truth_table") * per, "s")
        m["sim.truth_table_calls"] = (agg(calls, "sim.truth_table") * per, "count")
        run_s, gate_apps = agg(total, "sim.run"), agg(counts, "sim.run")
        m["sim.run_s"] = (run_s * per, "s")
        m["sim.run_calls"] = (agg(calls, "sim.run") * per, "count")
        m["sim.gate_apps"] = (gate_apps * per, "count")
        m["sim.ns_per_gate_app"] = (run_s * 1e9 / gate_apps if gate_apps else 0.0, "ns")

        m["analysis.garbage_profile_s"] = (agg(total, "analysis.garbage_profile") * per, "s")
        m["analysis.conformance_s"] = (agg(total, "analysis.conformance") * per, "s")
        m["analysis.growth_s"] = (agg(total, "analysis.growth_report") * per, "s")
        enumerating = under(*ENUMERATORS)
        run_ids = ids("sim.run")
        enum_runs = [sid for sid in range(n) if name[sid] in run_ids and enumerating[sid]]
        profile_runs = sum(1 for sid in enum_runs if kind_of[command[sid]] == "profile")
        m["analysis.row_efficiency"] = (rows_asked * rounds / len(enum_runs) if enum_runs else 0.0, "ratio")
        m["analysis.profile_row_efficiency"] = (
            profile_rows_asked * rounds / profile_runs if profile_runs else 0.0, "ratio")

        blind_s, trials = agg(total, "invert.invert_blind"), agg(counts, "invert.invert_blind")
        accepted = agg(calls, "invert.invert_blind") - agg(errors, "invert.invert_blind")
        m["invert.blind_s"] = (blind_s * per, "s")
        m["invert.trials"] = (trials * per, "count")
        m["invert.us_per_trial"] = (blind_s * 1e6 / trials if trials else 0.0, "us")
        m["invert.accept_ratio"] = (accepted / trials if trials else 0.0, "ratio")
        m["invert.table_s"] = (agg(total, "invert.invert_with_profile") * per, "s")
        m["invert.table_trials"] = (agg(counts, "invert.invert_with_profile") * per, "count")
        profiles, mains = ids("analysis.garbage_profile"), ids("cli.main")
        profile_build = sum(
            dur[sid] for sid in range(n)
            if name[sid] in profiles and parent[sid] >= 0 and name[parent[sid]] in mains
            and kind_of[command[sid]] == "invert-table"
        )
        m["invert.profile_build_s"] = (profile_build * per, "s")

        m["transforms.bennett_s"] = (agg(total, "transforms.bennett") * per, "s")
        m["transforms.zg_compose_s"] = (agg(total, "transforms.zero_garbage_compose") * per, "s")
        in_zg = under("transforms.zero_garbage_compose")
        tables = ids("sim.truth_table")
        verify_rows = sum(count[sid] for sid in range(n) if name[sid] in tables and in_zg[sid])
        m["transforms.verify_rows"] = (verify_rows * per, "count")
        m["trace.spans"] = (n * per, "count")
        return m


class Tracer:
    """Installs span-recording wrappers around revcirc's public functions."""

    def __init__(self) -> None:
        self.log = SpanLog()
        self._ids: dict[str, int] = {}
        self._stack = [-1]
        self._next_id = itertools.count()
        self._command = -1
        self._patches: list[tuple[object, str, object]] = []

    def begin_command(self, round_no: int, kind: str) -> None:
        self.log.commands.append([round_no, kind])
        self._command = len(self.log.commands) - 1

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items()) if name == "revcirc" or name.startswith("revcirc.")]
        wrappers: dict[int, tuple[object, object]] = {}
        for layer in LAYERS:
            module = sys.modules.get(f"revcirc.{layer}")
            if module is None:
                continue
            for attr, fn in vars(module).items():
                if not attr.startswith("_") and inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    wrappers[id(fn)] = (fn, self._wrap(fn, f"{layer}.{attr}"))
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patches.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patches):
            setattr(module, attr, value)
        self._patches.clear()

    def _wrap(self, fn, name: str):
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.log.names):
            self.log.names.append(name)
        counter = COUNTERS.get(name)
        stack, next_id, perf = self._stack, self._next_id, time.perf_counter
        ints, times = self.log.ints, self.log.times
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(next_id)
            parent = stack[-1]
            stack.append(sid)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = perf()
                stack.pop()
                ints.extend((sid, nid, parent, tracer._command, 0, 1))
                times.extend((start, end))
                raise
            end = perf()
            stack.pop()
            ints.extend((sid, nid, parent, tracer._command, counter(args, kwargs, result) if counter else 0, 0))
            times.extend((start, end))
            return result

        return traced
