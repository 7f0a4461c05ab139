"""spherekern benchmark.

    python3 bench/run.py --workload error-rate|greedy|spectral|all \\
        --seed N --seconds S --trace 0|1

Each workload runs in its own child process (``child.py``), one client
issuing a fixed operation list in a closed loop.  With ``--trace 0`` it
prints the end-to-end metrics: ``setup_s`` (median over ``SETUP_RUNS``
fresh processes of the time until spherekern, numpy and scipy are imported
and the inputs generated), ``wall_s`` (median time of one pass over the
operation list, warm-up pass excluded), ``peak_rss_mb`` (peak resident
memory of the workload process) and the failure count.  With ``--trace 1``
it prints per-layer metrics from spans around spherekern's public
functions, and ``trace.overhead_ratio``.

Every operation passes a correctness gate (``gate.py``); a miss is printed
and counted as failed.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
line before it holds the run's metadata.  The benchmark runs one process
at a time, with one BLAS thread.
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
CHILD = os.path.join(BENCH, "child.py")
sys.path.insert(0, BENCH)

from workloads import WORKLOADS, SIZES, input_seed  # noqa: E402

SETUP_RUNS = 7
# One BLAS thread: the operations gain little from a second one, and a
# spinning second thread makes timings collapse when another process
# competes for the cores.
BLAS_THREADS = "1"
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    pass


def _start(cmd, env):
    """Start a child; returns (process, seconds until it printed ``ready``)."""
    start = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    line = proc.stdout.readline()
    ready = perf_counter() - start
    if line != "ready\n":
        _finish(proc, 10.0)
        raise BenchError(f"child did not set up (exit code {proc.returncode})")
    return proc, ready


def _finish(proc, timeout):
    """Wait for a child; kill it if it outlives ``timeout``.  Returns its stdout."""
    try:
        out, _ = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("child timed out")
    return out


def run_workload(workload, args, env, deadline):
    base = [sys.executable, CHILD, "--workload", workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--size", args.size]
    setup = []
    for _ in range(SETUP_RUNS - 1):
        proc, ready = _start(base + ["--setup-only"], env)
        _finish(proc, deadline - perf_counter())
        if proc.returncode != 0:
            raise BenchError(f"set-up child exited with code {proc.returncode}")
        setup.append(ready)
    proc, ready = _start(base, env)
    setup.append(ready)
    out = _finish(proc, deadline - perf_counter())
    if proc.returncode != 0:
        raise BenchError(f"{workload} child exited with code {proc.returncode}")
    lines = [line for line in out.splitlines() if line.startswith("RESULT ")]
    if not lines:
        raise BenchError(f"{workload} child printed no result")
    result = json.loads(lines[-1][len("RESULT "):])
    result["setup_s"] = setup
    return result


def metrics(result, trace):
    if trace:
        out = dict(result["layers"])
        out["trace.overhead_ratio"] = {
            "value": median(result["traced_pass_s"]) / median(result["pass_s"]),
            "unit": "ratio",
        }
        return out
    return {
        "setup_s": {"value": median(result["setup_s"]), "unit": "s"},
        "wall_s": {"value": median(result["pass_s"]), "unit": "s"},
        "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
    }


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _source_digest():
    """SHA-256 over the library's source files, which identifies the code outside git."""
    digest = hashlib.sha256()
    for path in sorted(Path(ROOT, "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def machine(nproc):
    return {
        "nproc": nproc,
        "cpu_model": _cpu_model(),
        "mem_total_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**20,
        "python": platform.python_version(),
        "commit": _commit(),
        "source_sha256": _source_digest(),
    }


def summary(workload, result, values):
    """Print the workload's metrics; returns the sample counts behind the medians."""
    samples = {"setup_processes": len(result["setup_s"]), "passes": len(result["pass_s"])}
    if "traced_pass_s" in result:
        samples["traced_passes"] = len(result["traced_pass_s"])
    print(f"{workload}: {result['failed']}/{result['attempted']} operations failed "
          f"(fail_ratio {result['failed'] / result['attempted']:.4g}); medians over "
          + ", ".join(f"{n} {k.replace('_', ' ')}" for k, n in samples.items())
          + " (warm-up pass excluded)")
    for name, m in values.items():
        print(f"  {name:32s} {m['value']:>14.6g} {m['unit']}")
    return samples


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=tuple(SIZES), default="full",
                   help="'tiny' runs the same operations at toy sizes (for tests)")
    args = p.parse_args(argv)

    deadline = perf_counter() + DEADLINE_S
    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ, OPENBLAS_NUM_THREADS=BLAS_THREADS,
               OMP_NUM_THREADS=BLAS_THREADS, MKL_NUM_THREADS=BLAS_THREADS)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    meta = {"seed": args.seed, "input_set": input_seed(args.seed), "size": args.size,
            "seconds": args.seconds, "trace": args.trace, **machine(nproc),
            "workloads": {}}
    attempted = failed = 0
    all_metrics = {}
    try:
        for workload in names:
            result = run_workload(workload, args, env, deadline)
            values = metrics(result, args.trace)
            samples = summary(workload, result, values)
            attempted += result["attempted"]
            failed += result["failed"]
            meta["workloads"][workload] = {
                "blas": result["blas"], "samples": samples,
                "trace_file": result.get("trace_file"),
            }
            prefix = "" if len(names) == 1 else workload + "."
            all_metrics.update({prefix + k: v for k, v in values.items()})
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if args.trace:
        from tracer import LAYERS

        meta["layer_moves"] = {layer.name: layer.moves for layer in LAYERS}
    print("meta " + json.dumps(meta, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": all_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
