#!/usr/bin/env python
"""Which functions of ``src/repro`` does nothing this repository runs enter?

``make reachability`` runs every entry point that CI, the examples and the
figure benches run (``ENTRY_POINTS`` mirrors ``.github/workflows/ci.yml``),
each with a call hook that records every Python function entered, and prints
the functions of ``src/repro`` that no process entered: per module, with
their line counts, and the totals. A listed function is a candidate for
deletion unless a stated rule keeps it (docs/TESTING.md, "What the entry
points run").

It also prints, per ``SNAPConfig`` field, which entry points construct a
config with a non-default value of it: the hook reads ``self`` when
``SNAPConfig.__post_init__`` returns and compares each field with a default
config's (normalized values on both sides, so ``compressor="ape"`` and
``CompressorSpec("ape")`` are both the default). A field no entry point sets
has no runner.

How the hook is installed, and why this way:

* a generated ``sitecustomize.py`` first on ``PYTHONPATH`` installs a
  ``sys.setprofile`` hook in every Python process the entry points start,
  so the subprocesses they spawn (the e2e suite runs each workload in its
  own) are traced too; each process writes what it entered at exit;
* pytest resets the profile hook, so once installed the hook ignores later
  ``sys.setprofile`` / ``threading.setprofile`` calls (a reset re-installs
  it, which is also how threads started later get it);
* a call hook, not a line tracer: ``sys.settrace`` slows the orchestrator
  enough that timing-driven functions (``HeartbeatMonitor.sweep``) stop
  running and read as unreached.

Functions are named ``def`` code objects, enumerated with the code-object
walk of ``scripts/check_coverage.py``; lambdas, comprehensions and class
bodies are not counted. A function's line count is the span from its
``def`` (or first decorator) to its last executable line.

No options, no allowlist. A run takes several minutes on 2 CPUs.
"""

from __future__ import annotations

import inspect
import json
import os
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

from check_coverage import code_lines, code_objects

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
PACKAGE = SRC / "repro"

#: Every process to trace, as ``python`` arguments run from the repo root;
#: ``{tmp}`` is a temporary directory for the outputs they write.
ENTRY_POINTS = [
    # CI bench-e2e-quick.
    ["-m", "benchmarks.e2e", "--seed", "7", "--quick", "--out", "{tmp}/quick.json"],
    # make verify-invariants, CI semisync-smoke, CI scenario-smoke (the
    # differential-smoke sweep is a prefix of the first).
    ["-m", "repro", "verify", "--scenarios", "25"],
    ["-m", "repro", "verify", "--scenarios", "10", "--master-seed", "0",
     "--semi-sync-smoke", "6", "--skip-selftest"],
    ["-m", "repro", "verify", "--scenarios", "0", "--skip-workloads"],
    # make orchestrate-smoke.
    ["-m", "repro", "orchestrate", "--slots", "6", "--devices", "5",
     "--rounds", "20", "--join-at", "7", "--leave-at", "12",
     "--heartbeat-s", "0.25", "--evict-after-misses", "3", "--jobs", "2",
     "--n-train", "600", "--n-test", "300"],
    # CI semisync-smoke, scale-smoke and topology-smoke gates.
    ["benchmarks/bench_async.py", "--out", "{tmp}/BENCH_async.json"],
    ["benchmarks/bench_scale.py", "--check"],
    ["benchmarks/bench_topology.py", "--check"],
    # make bench-figures: the paper-figure benches at default scale.
    ["-m", "pytest", "benchmarks", "--benchmark-only", "-q",
     "-p", "no:cacheprovider"],
] + [
    # CI examples-smoke.
    [str(example.relative_to(REPO))]
    for example in sorted((REPO / "examples").glob("*.py"))
]

#: Installed as ``sitecustomize`` in every traced process.
HOOK = '''\
import atexit, json, os, sys, tempfile, threading

_entered = set()
_record = _entered.add
_config = os.environ["REACHABILITY_PACKAGE"] + os.path.join("core", "config.py")
_defaults = {}
_set_fields = set()


def _note_config(config):
    # The hook is not re-entered while it runs, so building the default
    # config here traces nothing.
    if not _defaults:
        _defaults.update(vars(type(config)()))
    for name, default in _defaults.items():
        value = getattr(config, name, default)
        try:
            differs = value is not default and bool(value != default)
        except Exception:
            differs = True
        if differs:
            _set_fields.add(name)


def _hook(frame, event, arg):
    if event == "call":
        _record(frame.f_code)
    elif (
        event == "return"
        and frame.f_code.co_name == "__post_init__"
        and frame.f_code.co_filename == _config
    ):
        _note_config(frame.f_locals["self"])


_install = sys.setprofile
_install(_hook)
threading.setprofile(_hook)
sys.setprofile = lambda function: _install(_hook)
threading.setprofile = lambda function: None


@atexit.register
def _write():
    _install(None)
    prefix = os.environ["REACHABILITY_PACKAGE"]
    entered = sorted(
        {(code.co_filename, code.co_firstlineno, code.co_name)
         for code in list(_entered) if code.co_filename.startswith(prefix)}
    )
    handle, _ = tempfile.mkstemp(
        suffix=".json", dir=os.environ["REACHABILITY_OUT"]
    )
    with os.fdopen(handle, "w") as out:
        json.dump({"entered": entered, "fields": sorted(_set_fields)}, out)
'''


def functions(path: Path) -> dict[tuple[str, int, str], tuple[str, int, set]]:
    """(file, first line, name) -> (qualified name, line count, keys of the
    functions it is nested in) of every named function in one source file."""
    def key(code):
        return str(path), code.co_firstlineno, code.co_name

    def named(code):
        return code.co_flags & inspect.CO_OPTIMIZED and not code.co_name.startswith("<")

    module = compile(path.read_text(), str(path), "exec")
    codes = list(filter(named, code_objects(module)))
    found = {
        key(code): (
            code.co_qualname,
            max(code_lines(code)) - code.co_firstlineno + 1,
            set(),
        )
        for code in codes
    }
    for code in codes:
        for inner in filter(named, code_objects(code)):
            if inner is not code:
                found[key(inner)][2].add(key(code))
    return found


def trace_entry_points(
    hook_dir: Path, out_dir: Path, tmp: Path
) -> tuple[set[tuple], dict[str, set[int]]]:
    """Run every entry point under the hook: the union of what they entered,
    and per ``SNAPConfig`` field the indices of the entry points setting it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(hook_dir), str(SRC)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["REACHABILITY_PACKAGE"] = str(PACKAGE) + os.sep
    failed = []
    for index, arguments in enumerate(ENTRY_POINTS):
        env["REACHABILITY_OUT"] = str(out_dir / str(index))
        (out_dir / str(index)).mkdir()
        command = [sys.executable] + [a.format(tmp=tmp) for a in arguments]
        shown = " ".join(arguments)
        started = time.perf_counter()
        completed = subprocess.run(
            command, cwd=REPO, env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )
        elapsed = time.perf_counter() - started
        print(f"  [{elapsed:6.1f} s] exit {completed.returncode}  {shown}",
              flush=True)
        if completed.returncode != 0:
            failed.append(shown)
            print(completed.stderr[-3000:], file=sys.stderr)
    if failed:
        raise SystemExit(f"entry points failed: {failed}")
    entered = set()
    setters = defaultdict(set)
    for part in out_dir.glob("*/*.json"):
        found = json.loads(part.read_text())
        entered.update(tuple(key) for key in found["entered"])
        for name in found["fields"]:
            setters[name].add(int(part.parent.name))
    return entered, setters


def print_field_table(setters: dict[str, set[int]]) -> None:
    """Per ``SNAPConfig`` field, the entry points that set a non-default value."""
    sys.path.insert(0, str(SRC))
    from dataclasses import fields

    from repro.core.config import SNAPConfig

    names = [field.name for field in fields(SNAPConfig)]
    print("\nentry points:")
    for index, arguments in enumerate(ENTRY_POINTS):
        print(f"  E{index}: {' '.join(arguments)}")
    print(f"\nSNAPConfig fields set to a non-default value ({len(names)} fields):")
    print("| field | entry points |\n|---|---|")
    for name in names:
        runners = ", ".join(f"E{index}" for index in sorted(setters.get(name, ())))
        print(f"| `{name}` | {runners or '**none**'} |")
    unused = [name for name in names if not setters.get(name)]
    print(f"\n{len(unused)} of {len(names)} fields set by no entry point")


def main() -> int:
    defined = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        defined.update(functions(path))
    print(f"tracing {len(ENTRY_POINTS)} entry points:", flush=True)
    with tempfile.TemporaryDirectory() as work:
        work = Path(work)
        for name in ("hook", "out", "tmp"):
            (work / name).mkdir()
        (work / "hook" / "sitecustomize.py").write_text(HOOK)
        entered, setters = trace_entry_points(
            work / "hook", work / "out", work / "tmp"
        )

    # A function nested in an unreached one is listed, but its lines are
    # already counted in the enclosing function's.
    never = set(defined) - entered
    unreached = defaultdict(list)
    for key in sorted(never):
        path, line, _ = key
        qualname, span, outer = defined[key]
        counted = 0 if outer & never else span
        unreached[Path(path).relative_to(SRC)].append((line, qualname, counted))
    print("\nnever entered:")
    for module, rows in unreached.items():
        lines = sum(span for _, _, span in rows)
        print(f"{module}: {len(rows)} functions, {lines} lines")
        for line, qualname, span in rows:
            print(f"  {qualname}  (line {line}, {span} lines)")
    unreached_lines = sum(
        span for rows in unreached.values() for _, _, span in rows
    )
    total_lines = sum(
        span for _, span, outer in defined.values() if not outer
    )
    print(
        f"\n{len(never)} of {len(defined)} functions never entered "
        f"({unreached_lines} of {total_lines} lines)"
    )
    print_field_table(setters)
    return 0


if __name__ == "__main__":
    sys.exit(main())
