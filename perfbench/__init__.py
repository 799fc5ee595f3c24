"""Layered end-to-end benchmark for zoneval.

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>``
from the root of a checkout; ``perfbench/NOTES.md`` describes the workloads, the
metrics and the output checks.
"""
