"""Tests of the benchmark itself, at toy sizes.

    python3 -m pytest bench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import gate  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(root, workload, trace=0, seed=7):
    return subprocess.run(
        [sys.executable, str(root / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.2", "--trace", str(trace), "--size", "tiny"],
        cwd=root, capture_output=True, text=True, timeout=170,
    )


def result(proc):
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    return res


def units(metrics):
    return {name: m["unit"] for name, m in metrics.items()}


def copy_tree(dest, with_src=True):
    """A checkout holding BENCHMARK.json, the benchmark and optionally the sources."""
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    shutil.copytree(BENCH, dest / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    if with_src:
        shutil.copytree(ROOT / "src", dest / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_end_to_end_metrics(workload):
    res = result(run(ROOT, workload))
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert units(res["metrics"]) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in res["metrics"].values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_prints_layer_metrics(workload):
    res = result(run(ROOT, workload, trace=1))
    assert res["correct"] and res["failed"] == 0
    assert units(res["metrics"]) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for layer in tracer.EXPECTED[workload]:
        calls = [n for n, (lay, field, _, _) in tracer.METRICS.items()
                 if lay == layer and field == "calls"]
        self_s = [n for n, (lay, field, _, _) in tracer.METRICS.items()
                  if lay == layer and field == "self_s"]
        for name in calls + self_s:
            assert res["metrics"][name]["value"] > 0, name


def test_benchmark_json_lists_every_metric_and_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    per_layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    expected = {name: unit for name, (_, _, unit, _) in tracer.METRICS.items()}
    expected["trace.overhead_ratio"] = "ratio"
    assert per_layer == expected
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def _corrupt_float(ref):
    key = next(k for k in ref if k.startswith("mc_estimate"))
    ref[key][0] *= 1.0 + 1e-4
    return key


def _corrupt_int(ref):
    key = next(k for k in ref if k.startswith("sample-greedy"))
    ref[key]["payload"]["selected_indices"][0] += 1
    return key


@pytest.mark.parametrize("workload, corrupt, leaf", [
    ("spectral", _corrupt_float, "$[0]"),
    ("greedy", _corrupt_int, "$.payload.selected_indices[0]"),
])
def test_corrupted_reference_raises_fail_ratio(tmp_path, workload, corrupt, leaf):
    copy_tree(tmp_path)
    ref_path = tmp_path / "bench" / "reference" / f"tiny-{workload}.json"
    ref = json.loads(ref_path.read_text())
    key = corrupt(ref)
    ref_path.write_text(json.dumps(ref))
    seed = next(s for s in range(workloads.INPUT_SEEDS)
                if key in {op["key"] for op in workloads.operations(workload, s, "tiny")})
    proc = run(tmp_path, workload, seed=seed)
    res = result(proc)
    assert not res["correct"] and res["failed"] > 0
    assert f"gate: {key}: {leaf}" in proc.stderr


def test_fails_without_the_program(tmp_path):
    copy_tree(tmp_path, with_src=False)
    proc = run(tmp_path, "spectral")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_gate_tolerances():
    ref = {"payload": {"values": [1.0, 1e-20, 3], "name": "x"}}
    near = {"payload": {"values": [1.0 + 2e-16, 5e-13, 3], "name": "x"}}
    assert gate.compare(near, ref) == []
    for bad in ({"payload": {"values": [1.0 + 1e-5, 1e-20, 3], "name": "x"}},
                {"payload": {"values": [1.0, 1e-20, 4], "name": "x"}},
                {"payload": {"values": [1.0, 1e-20, 3.0], "name": "x"}},
                {"payload": {"values": [1.0, 1e-20], "name": "x"}},
                {"payload": {"values": [1.0, 1e-20, 3], "name": "y"}}):
        assert gate.compare(bad, ref)
    spectrum = {"eigenvalues": [1.0, 0.0, 1e-17, 0.5], "n_clamped": 1}
    assert gate.compare({**spectrum, "eigenvalues": [1.0, 1e-17, 0.0, 0.5],
                         "n_clamped": 2}, spectrum) == []
    assert gate.compare({**spectrum, "n_clamped": 4}, spectrum)
    text = '{\n  "meta": {\n    "timestamp": "2026-01-01T00:00:00Z",\n    "version": "1"\n  }\n}\n'
    assert gate.mask(text) == gate.mask(text.replace("2026-01-01", "2027-02-02"))


def test_wrappers_cover_every_binding_and_are_removed():
    sys.path.insert(0, str(ROOT / "src"))
    import spherekern.experiments
    import spherekern.kernels
    import spherekern.regression

    original = spherekern.kernels.gram
    t = tracer.Tracer()
    with t.installed():
        wrapped = spherekern.kernels.gram
        assert wrapped is not original
        assert spherekern.regression.gram is wrapped
        assert spherekern.experiments.gram is wrapped
        assert spherekern.gram is wrapped
    assert spherekern.regression.gram is original
    assert spherekern.experiments.gram is original
    with pytest.raises(tracer.CoverageError):
        t.check_coverage("spectral", [0])


def test_seed_selects_an_input_set():
    for workload in workloads.WORKLOADS:
        a = workloads.operations(workload, 3)
        assert [op["key"] for op in a] == [op["key"] for op in workloads.operations(workload, 3)]
        assert [op["key"] for op in a] == [
            op["key"] for op in workloads.operations(workload, 3 + workloads.INPUT_SEEDS)]
    keys = [op["key"] for op in workloads.operations("spectral", 0)]
    assert sum(k.startswith("mc_estimate") for k in keys) == 6 and len(keys) == 72
    assert keys != [op["key"] for op in workloads.operations("spectral", 1)]
