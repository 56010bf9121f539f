"""Wall-clock benchmark of the folded stencil paths and the compute service.

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the repository root; see ``perfbench/NOTES.md`` for the
workloads, the metrics and what each open roadmap item should move.
"""
