"""The repository's benchmark: host cost of the simulator, end to end and
layer by layer.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` runs one workload and prints every metric by name and
unit; the last line of standard output is the machine-readable result.
See ``perfbench/README.md`` for the workloads, metrics and layer map.
"""
