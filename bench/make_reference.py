"""Regenerate the reference payloads the correctness gate compares against.

    python3 bench/make_reference.py

Runs every operation of every input set of every size once and writes
``bench/reference/<size>-<workload>.json``.  Regenerate only when a change
of results is intended, and say so where the change is recorded.
"""

import json
import os
import shutil
import tempfile

from run import BLAS_THREADS

os.environ["OPENBLAS_NUM_THREADS"] = BLAS_THREADS  # as the benchmark runs; before numpy loads

from child import BENCH, OUT, run_op  # noqa: E402  (sets up the import path)
import gate  # noqa: E402
import workloads  # noqa: E402


def main():
    os.makedirs(OUT, exist_ok=True)
    tmpdir = tempfile.mkdtemp(dir=OUT)
    try:
        for size in workloads.SIZES:
            for workload in workloads.WORKLOADS:
                ref = {}
                for seed in range(workloads.INPUT_SEEDS):
                    for op in workloads.operations(workload, seed, size):
                        if op["key"] not in ref:
                            _, text = run_op(op, os.path.join(tmpdir, "op.json"))
                            ref[op["key"]] = json.loads(gate.mask(text))
                path = os.path.join(BENCH, "reference", f"{size}-{workload}.json")
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump(ref, fh, sort_keys=True, separators=(",", ":"))
                    fh.write("\n")
                print(f"{path}: {len(ref)} operations")
    finally:
        shutil.rmtree(tmpdir)


if __name__ == "__main__":
    main()
