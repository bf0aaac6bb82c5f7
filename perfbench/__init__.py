"""The repository benchmark: four simulator workloads, end-to-end host
metrics with an output check, and an outside-in per-layer trace.

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the repository root; ``BENCHMARK.json`` lists the
workloads and metrics.  Nothing here edits ``src/``: layers are timed by
wrapping the public callables of each ``repro`` module from outside.
"""
