"""Benchmark of the plane-sphere Casimir solver; run it with `python3 perfbench/run.py`."""
