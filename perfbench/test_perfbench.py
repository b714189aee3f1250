"""Self-tests of the benchmark: the oracle, the checks and the contract.

    python3 -m pytest -q perfbench/test_perfbench.py

Kept out of the library's test run; they build the real workloads, so the
whole file takes about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path[:0] = [str(HERE), str(SRC)]

import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def mods():
    return run.load_modules(SRC)


@pytest.fixture(scope="module", params=sorted(workloads.WORKLOADS))
def workload(request, mods):
    built = workloads.WORKLOADS[request.param](mods, 3)
    built.attach_checks()
    return built


def _perturb(result):
    """The same result with one reported number moved by 1e-6."""
    if not isinstance(result, tuple):
        if isinstance(result, float):
            return result + 1e-6
        return replace(result, concurrence_lower_raw=result.concurrence_lower_raw + 1e-6)
    code, out, err = result
    if code != 0:
        return 0, out, err  # an exit code the request did not expect
    doc = json.loads(out)
    if "concurrence_lower_raw" in doc:
        doc["concurrence_lower_raw"] += 1e-6
    elif "params" in doc:
        doc["params"]["matrix"][0][0][0] += 1e-6
    elif "crossing_x" in doc:
        doc["crossing_x"] += 1e-6
    else:
        doc["suites"]["pure_equivalence"]["max_residual"] += 1e-6
    return code, json.dumps(doc), err


def _reserialized(result):
    if not isinstance(result, tuple) or result[0] != 0:
        return result
    code, out, err = result
    return code, json.dumps(json.loads(out)), err


@pytest.mark.parametrize("n,d", [(2, 2), (3, 2), (4, 2), (2, 3), (3, 3), (2, 4)])
@pytest.mark.parametrize("kind", ["random_pure", "random_mixed"])
def test_oracle_matches_all_tensors(mods, n, d, kind):
    ctx = mods["linalg"].PartitionContext(n, d)
    params = {"rank": 3} if kind == "random_mixed" else {}
    rho = mods["states"].make_state(mods["states"].StateSpec(kind, ctx, params, seed=11))
    norms = oracle.sector_norms(oracle.reduced_purities(mods["linalg"], rho), n, d)
    ts = mods["tensors"].all_tensors(rho)
    assert norms.keys() == ts.norms_sq.keys()
    for mask, value in ts.norms_sq.items():
        assert abs(norms[mask] - value) <= 1e-12 * max(1.0, value)


def test_every_op_passes_its_check(workload):
    stats = run.measure(workload, 0)
    assert stats["attempted"] == len(workload.ops)
    assert stats["failed"] == 0


def test_reserialized_result_still_passes(workload):
    for op in workload.ops:
        assert op.check(_reserialized(op.call())), op.label


def test_perturbed_result_raises_error_rate(workload):
    calls = [op.call for op in workload.ops]
    for op, call in zip(workload.ops, calls):
        op.call = lambda call=call: _perturb(call())
    try:
        stats = run.measure(workload, 0)
    finally:
        for op, call in zip(workload.ops, calls):
            op.call = call
    assert stats["failed"] == stats["attempted"] == len(workload.ops)


def test_raising_op_counts_as_failure(workload):
    op = workload.ops[0]
    call = op.call
    op.call = lambda: 1 / 0
    try:
        stats = run.measure(workload, 0)
    finally:
        op.call = call
    assert stats["failed"] == 1


def test_tracer_sees_calls_through_every_module_and_restores(mods):
    rho = mods["states"].make_state(mods["states"].StateSpec(
        "ghz", mods["linalg"].PartitionContext(3, 2)))
    originals = {name: getattr(mods[name.split(".")[0]], name.split(".")[1])
                 for name in tracing.Tracer(mods).names}
    tracer = tracing.Tracer(mods)
    tracer.op_id = 1
    tracer.install()
    try:
        mods["bounds"].analyze(rho)
    finally:
        tracer.uninstall()
    names = [tracer.names[s[0]] for s in tracer.spans]
    assert names[0] == "bounds.analyze"
    # bounds calls all_tensors and partial_trace through its own namespace
    assert "tensors.all_tensors" in names and "linalg.partial_trace" in names
    assert all(s[3] >= 0 for s in tracer.spans[1:])
    metrics = tracer.metrics(1, 0.0, [1.0])
    assert metrics["bounds.analyze.calls"] == 1
    assert metrics["tensors.entries"] == 2 ** 6 - 1
    assert 0 < metrics["bounds.analyze.self_s"] < metrics["bounds.analyze.busy_s"]
    # each span is scaled by the speed factor of its op
    doubled = tracer.metrics(1, 0.0, [2.0])
    assert doubled["bounds.analyze.busy_s"] == pytest.approx(
        2 * metrics["bounds.analyze.busy_s"])
    for name, original in originals.items():
        layer, fn = name.split(".")
        assert getattr(mods[layer], fn) is original
        assert getattr(mods["bounds"], fn, original) is original


def test_tail_is_slowest_op_median():
    medians = [0.3, 1.4, 0.2, 1.1]
    percentile, value = run.tail(medians)
    assert value == 1.4
    n = run.TAIL_WEIGHT * len(medians)
    assert percentile == 100.0 * (n - 10) / n


def test_end_to_end_does_not_follow_the_pass_count():
    medians = [0.05, 0.9, 0.12, 1.1, 0.4, 0.3]

    def stats(passes):
        per_op = [[1.01 * m] + [m] * (passes - 2) + [0.99 * m] for m in medians]
        return {"latencies": {"scaled": per_op}}

    four = run.end_to_end([1.0], stats(4), "scaled")
    six = run.end_to_end([1.0], stats(6), "scaled")
    for name in ("ops_per_s", "latency_p50_ms", "latency_tail_ms"):
        assert four[name]["value"] == pytest.approx(six[name]["value"], rel=1e-12)
    assert four["latency_tail_ms"]["value"] == pytest.approx(1100.0)


def test_benchmark_json_matches_what_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == list(tracing.PER_LAYER)
    assert all(m["bound"] <= 0.25 for m in spec["end_to_end"])


def test_directory_without_sources_fails_without_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-mix", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180, check=False)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_inputs_follow_the_seed(mods):
    first = workloads.RoofEstimate(mods, 5)
    again = workloads.RoofEstimate(mods, 5)
    other = workloads.RoofEstimate(mods, 6)
    assert all(np.array_equal(a.mat, b.mat)
               for a, b in zip(first.inputs, again.inputs))
    assert not np.array_equal(first.inputs[0].mat, other.inputs[0].mat)
