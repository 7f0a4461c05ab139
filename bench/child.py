"""One workload process: set up, run passes over the operation list, gate them.

Started by ``run.py``.  It prints ``ready`` once spherekern and its
numpy/scipy imports are done and the inputs are generated; the parent takes
set-up time from its own clock up to that line.  With ``--setup-only`` it
exits there.  Otherwise it runs one warm-up pass, then measured passes
for at most ``--seconds`` (at least one; with ``--trace 1`` untraced and
traced passes alternate), and prints one ``RESULT {...}`` line.
"""

import argparse
import json
import os
import resource
import shutil
import sys
import tempfile
from time import perf_counter

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import spherekern  # noqa: E402
import spherekern.cli  # noqa: E402
import spherekern.kernels  # noqa: E402

import gate  # noqa: E402
import workloads  # noqa: E402

OUT = os.path.join(BENCH, "out")


class OpFailure(Exception):
    """An operation exited non-zero."""


def run_op(op, out_path):
    """Run one operation; returns (seconds, payload text).

    The clock covers the call only: for a CLI operation that is argument
    parsing, the computation, serialization and the write to ``--out``.
    """
    if op["kind"] == "cli":
        start = perf_counter()
        code = spherekern.cli.main(op["argv"] + ["--out", out_path])
        elapsed = perf_counter() - start
        if code != 0:
            raise OpFailure(f"exit code {code}")
        with open(out_path, encoding="utf-8") as fh:
            return elapsed, fh.read()
    start = perf_counter()
    result = spherekern.kernels.mc_estimate(
        spherekern.kernels.KernelSpec(op["family"], op["s"], d=3),
        op["x"], op["y"],
        spherekern.kernels.McOracleConfig(op["samples"], op["seed"]),
    )
    elapsed = perf_counter() - start
    return elapsed, json.dumps(list(result))


class Gate:
    """Checks every execution of every operation; counts attempts and failures."""

    def __init__(self, reference):
        self.reference = reference
        self.first = {}
        self.reference_misses = {}
        self.attempted = 0
        self.failed = 0

    def check(self, op, text, error):
        self.attempted += 1
        key = op["key"]
        if error is not None:
            misses = [f"raised {error}"]
        else:
            masked = gate.mask(text)
            if key not in self.first:
                self.first[key] = masked
                self.reference_misses[key] = (
                    gate.compare(json.loads(masked), self.reference[key])
                    if key in self.reference
                    else ["no reference payload for this operation"])
            if masked != self.first[key]:
                misses = ["payload differs from the first pass"]
            else:
                misses = self.reference_misses[key]
        if misses:
            self._miss(key, misses)

    def _miss(self, key, misses):
        self.failed += 1
        for line in misses[:5]:
            print(f"gate: {key}: {line}", file=sys.stderr)
        if len(misses) > 5:
            print(f"gate: {key}: ... {len(misses) - 5} more", file=sys.stderr)


def run_pass(ops, tmpdir, check, tracer=None, pass_index=None):
    """One pass over the operation list; returns its time in seconds."""
    total = 0.0
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op_id, tracer.pass_index = i, pass_index
        text = error = None
        try:
            elapsed, text = run_op(op, os.path.join(tmpdir, f"op{i}.json"))
            total += elapsed
        except (Exception, SystemExit) as exc:
            error = f"{type(exc).__name__}: {exc}"
        check(op, text, error)
    return total


def blas_info():
    """BLAS library and thread count as numpy and scipy report them."""
    info = {"numpy_version": np.__version__, "scipy_version": scipy.__version__}
    for name, module in (("numpy", np), ("scipy", scipy)):
        blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info[name] = f"{blas.get('name')} {blas.get('version')}"
    info["threads"] = openblas_threads()
    return info


def openblas_threads():
    """Thread counts of the OpenBLAS libraries loaded by numpy and scipy."""
    import ctypes
    import glob

    counts = {}
    for module in (np, scipy):
        libs = os.path.join(os.path.dirname(module.__file__), os.pardir,
                            module.__name__ + ".libs")
        for path in sorted(glob.glob(os.path.join(libs, "*openblas*.so*"))):
            lib = ctypes.CDLL(path)
            for fn in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
                if hasattr(lib, fn):
                    getter = getattr(lib, fn)
                    getter.restype = ctypes.c_int
                    counts[os.path.basename(path)] = getter()
                    break
    return counts or {"OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS")}


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=tuple(workloads.SIZES), default="full")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    if os.path.dirname(os.path.abspath(spherekern.__file__)) != os.path.join(SRC, "spherekern"):
        print(f"spherekern imported from {spherekern.__file__}, not from {SRC}",
              file=sys.stderr)
        return 1
    ops = workloads.operations(args.workload, args.seed, args.size)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    ref_path = os.path.join(BENCH, "reference", f"{args.size}-{args.workload}.json")
    with open(ref_path, encoding="utf-8") as fh:
        checker = Gate(json.load(fh))
    os.makedirs(OUT, exist_ok=True)
    tmpdir = tempfile.mkdtemp(dir=OUT)
    try:
        return _measure(args, ops, tmpdir, checker)
    finally:
        shutil.rmtree(tmpdir)


def _measure(args, ops, tmpdir, checker):
    run_pass(ops, tmpdir, checker.check)
    untraced, traced = [], []
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    start = perf_counter()
    while True:
        round_start = perf_counter()
        untraced.append(run_pass(ops, tmpdir, checker.check))
        if tracer is not None:
            with tracer.installed():
                traced.append(run_pass(ops, tmpdir, checker.check, tracer, len(traced)))
        now = perf_counter()
        # Stop before a further round would overrun the measuring time.
        if now - start + (now - round_start) > args.seconds:
            break

    result = {
        "attempted": checker.attempted,
        "failed": checker.failed,
        "pass_s": untraced,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "blas": blas_info(),
    }
    if tracer is not None:
        trace_path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.jsonl")
        tracer.write(trace_path)
        passes = list(range(len(traced)))
        tracer.check_coverage(args.workload, passes)
        result.update(traced_pass_s=traced, layers=tracer.metrics(passes),
                      trace_file=os.path.relpath(trace_path, ROOT))
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
