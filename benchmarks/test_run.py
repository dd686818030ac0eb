"""The benchmark's own test, at toy size.

    python3 -m pytest benchmarks/test_run.py -q
"""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
CLI_ONLY = ("antisym.", "oracle.", "cli.")


def _toy(name, trace, seed=1):
    return run.run(name, seed, 0.2, trace, "toy")


@pytest.mark.parametrize("name", workloads.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_reported_with_its_unit(name, trace):
    record = _toy(name, trace)
    result = record["result"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_traced_counts_repeat_and_wrappers_are_removed():
    first = _toy("isotropic", True)["result"]["metrics"]
    second = _toy("isotropic", True)["result"]["metrics"]
    counts = [k for k in first if not k.endswith(".self_s") and k != "trace.overhead_ratio"]
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}
    assert first["factor.choose_x.calls"]["value"] > 0
    assert all(first[k]["value"] == 0 for k in first if k.startswith(CLI_ONLY))
    package, mods = run.import_symfact()
    tracing.assert_untraced(package, mods)
    tracer = tracing.Tracer()
    tracer.install(package, mods)
    with pytest.raises(RuntimeError):
        tracing.assert_untraced(package, mods)
    tracer.remove()
    tracing.assert_untraced(package, mods)


def _corrupting_build(corrupt):
    real_build = workloads.build

    def build(*args, **kwargs):
        wl = real_build(*args, **kwargs)
        for op in wl.ops:
            op.run = (lambda run_op, label: lambda: corrupt(label, run_op()))(op.run, op.label)
        return wl
    return build


def test_corrupted_v_fails_the_dense_check(monkeypatch):
    def corrupt(label, result):
        return dataclasses.replace(result, V=result.V + 1e-3)

    monkeypatch.setattr(workloads, "build", _corrupting_build(corrupt))
    result = _toy("dense", False)["result"]
    assert not result["correct"]
    assert result["failed"] == result["attempted"]


def test_corrupted_v_in_a_cli_report_fails_the_check(monkeypatch):
    def corrupt(label, output):
        code, text = output
        if not label.startswith("factor:"):
            return output
        report = json.loads(text)
        report["result"]["V"][0][0][0] += 1e-6
        return code, json.dumps(report)

    monkeypatch.setattr(workloads, "build", _corrupting_build(corrupt))
    record = _toy("cli", False)
    assert not record["result"]["correct"]
    assert {f["op"].split(":")[0] for f in record["failures"]} == {"factor"}
    assert record["result"]["failed"] == sum(f["count"] for f in record["failures"]) > 0


@pytest.mark.parametrize("name", workloads.WORKLOAD_NAMES)
def test_recorded_input_digests_match_the_generators(name):
    recorded = json.loads(run.DIGEST_FILE.read_text(encoding="utf-8"))
    got = run.compute_digest(name, recorded["reference_seed"], workloads.SIZES["full"])
    assert got == recorded["digests"][name]


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail([float(i) for i in range(1, 1001)]) == (950.0, 95.0, 1000)
    assert run.tail([float(i) for i in range(1, 101)]) == (90.0, 90.0, 100)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)
