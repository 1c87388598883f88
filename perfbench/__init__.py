"""The repository benchmark: four workloads, end-to-end and per-layer metrics.

Run from the repository root::

    python3 perfbench/run.py --workload warm-translate --seed 1 --seconds 12 --trace 0
"""
