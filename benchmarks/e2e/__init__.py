"""End-to-end and per-layer benchmark over the three engines, the TCP testbed and the fleet.

See ``README.md`` in this directory. Entry points:
``python3 benchmarks/e2e/run.py`` (the ``BENCHMARK.json`` command) and
``PYTHONPATH=src python -m benchmarks.e2e``.
"""
