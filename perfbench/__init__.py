"""kmsolve's benchmark: workloads, closed-loop harness and traced per-layer split.

Entry point: `python3 perfbench/run.py`; see README.md in this directory.
"""
