"""Host-cost benchmark of the speculative-scheduling simulator.

Run ``python3 perfbench/run.py --workload NAME`` from the repository
root; ``BENCHMARK.json`` lists the workloads and metrics.
"""
