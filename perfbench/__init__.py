"""Repository benchmark: seeded read, churn and serve workloads.

Run ``python3 perfbench/run.py --workload read --seed 1 --seconds 30 --trace 0``
from the repository root; see ``perfbench/README.md``.
"""
