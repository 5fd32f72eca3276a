"""Time one cold set-up of a workload in a fresh interpreter.

Set-up is what a user pays before the first policy is priced: importing
``ehcr`` (with numpy and scipy), validating the model and constructing
the evaluators.  Prints the seconds it took.

    python3 perfbench/setup_probe.py <workload> <seed>
"""
import sys
import time

if __name__ == "__main__":
    start = time.perf_counter()
    import workloads

    workload = workloads.WORKLOADS[sys.argv[1]]
    workload.prepare(workload.inputs(int(sys.argv[2])))
    print(repr(time.perf_counter() - start))
