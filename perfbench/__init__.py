"""The repository benchmark: five workloads over the estimation and
serving stacks, end-to-end metrics, and a traced per-layer run.

Entry point: ``python3 perfbench/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>`` from the repository root. See
``perfbench/README.md`` for the workloads, metrics and checks.
"""
