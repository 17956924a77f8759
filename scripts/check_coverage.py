#!/usr/bin/env python
"""Line-coverage floor for the compression and network packages.

``make coverage`` runs the compression + network test suites and fails if
line coverage of ``src/repro/compression`` or ``src/repro/network`` drops
below the committed floor — the two packages carry the paper's wire-format
and selection contracts, where an untested branch means silent accounting
drift rather than a crash.

Measured with one backend everywhere — a ``sys.settrace`` hook: a global
trace that activates local line tracing only inside the target packages,
with executable lines computed from compiled code objects' ``co_lines()``
tables. (It cannot apply ``# pragma: no cover`` pruning, so the floors are
calibrated against its slightly stricter denominator; CI never installs
``coverage.py``, and a second backend would make the same gate compute a
different percentage on a developer machine.)

No network, no extra dependencies, deterministic test selection — safe for
CI and the bare container alike.
"""

from __future__ import annotations

import sys
import types
from collections.abc import Iterator
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
sys.path.insert(0, str(SRC))

#: package (relative to src/) -> minimum line coverage, percent.
FLOORS = {
    "repro/compression": 90.0,
    "repro/network": 90.0,
}

#: The suites that exercise the measured packages. Kept to the directly
#: relevant directories so the traced run stays fast.
TEST_ARGS = [
    str(REPO / "tests" / "compression"),
    str(REPO / "tests" / "network"),
    "-q",
    "-p",
    "no:cacheprovider",
]


def target_files() -> dict[str, list[Path]]:
    """Python sources per measured package (``__init__`` included)."""
    return {
        package: sorted((SRC / package).rglob("*.py"))
        for package in FLOORS
    }


def code_objects(code: types.CodeType) -> Iterator[types.CodeType]:
    """``code`` and every code object nested in it (functions, classes, ...)."""
    stack = [code]
    while stack:
        current = stack.pop()
        yield current
        stack.extend(
            const
            for const in current.co_consts
            if isinstance(const, types.CodeType)
        )


def code_lines(code: types.CodeType) -> set[int]:
    """Line numbers carrying executable statements of ``code`` and its nested
    code objects, via ``co_lines()``."""
    return {
        line
        for current in code_objects(code)
        for _, _, line in current.co_lines()
        if line is not None
    }


def executable_lines(path: Path) -> set[int]:
    """Line numbers carrying executable statements of one source file."""
    return code_lines(compile(path.read_text(), str(path), "exec"))


def run_pytest() -> int:
    import pytest

    return pytest.main(TEST_ARGS)


def measure_with_settrace(prefixes: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Measure with a selective ``sys.settrace`` hook (stdlib only)."""
    hits: dict[str, set[int]] = {}
    prefix_tuple = tuple(prefixes)

    def local_trace(frame, event, arg):
        if event == "line":
            hits.setdefault(frame.f_code.co_filename, set()).add(frame.f_lineno)
        return local_trace

    def global_trace(frame, event, arg):
        # Activate line tracing only for frames inside the target packages;
        # returning None keeps every other frame untraced (fast path).
        if frame.f_code.co_filename.startswith(prefix_tuple):
            if event == "line":
                hits.setdefault(frame.f_code.co_filename, set()).add(
                    frame.f_lineno
                )
            return local_trace
        return None

    import threading

    threading.settrace(global_trace)
    sys.settrace(global_trace)
    try:
        exit_code = run_pytest()
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return exit_code, hits


def main() -> int:
    files = target_files()
    prefixes = [str(SRC / package) for package in FLOORS]
    exit_code, hits = measure_with_settrace(prefixes)
    if exit_code != 0:
        print(f"coverage run aborted: pytest exited {exit_code}")
        return int(exit_code) or 1

    print("\nline coverage (sys.settrace):")
    failures = []
    for package, sources in files.items():
        total = 0
        covered = 0
        worst: list[tuple[float, str]] = []
        for path in sources:
            lines = executable_lines(path)
            if not lines:
                continue
            file_hits = hits.get(str(path), set()) & lines
            total += len(lines)
            covered += len(file_hits)
            worst.append(
                (100.0 * len(file_hits) / len(lines), path.name)
            )
        percent = 100.0 * covered / total if total else 100.0
        floor = FLOORS[package]
        status = "ok" if percent >= floor else "BELOW FLOOR"
        print(
            f"  {package}: {percent:.1f}% ({covered}/{total} lines, "
            f"floor {floor:.0f}%) [{status}]"
        )
        if percent < floor:
            failures.append(package)
            for file_percent, name in sorted(worst)[:3]:
                print(f"    least covered: {name} at {file_percent:.1f}%")
    if failures:
        print(f"coverage floor violated for: {', '.join(failures)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
