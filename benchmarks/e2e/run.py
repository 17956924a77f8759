"""Entry point named by ``BENCHMARK.json``: ``python3 benchmarks/e2e/run.py``.

Runs from the root of any checkout without ``PYTHONPATH``: it puts the
checkout's ``src`` (the program under test) and root (this package) on
``sys.path`` itself, and caps BLAS at one thread *before* numpy is
imported — every workload is pinned to one CPU, where extra BLAS threads
would only contend.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path


def main() -> int:
    root = Path(__file__).resolve().parent.parent.parent
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(
            f"benchmarks/e2e: no program to measure under {root / 'src'}",
            file=sys.stderr,
        )
        return 3
    for variable in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[variable] = "1"
    for entry in (str(root), str(root / "src")):
        if entry not in sys.path:
            sys.path.insert(0, entry)
    from benchmarks.e2e.cli import main as cli_main

    return cli_main()


if __name__ == "__main__":
    sys.exit(main())
