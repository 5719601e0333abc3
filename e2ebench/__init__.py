"""End-to-end benchmark of ``repro serve`` and the paper kernels.

Entry point: ``python3 e2ebench/run.py --workload NAME --seed N
--seconds S --trace 0|1`` from the repository root (see README.md).
"""
