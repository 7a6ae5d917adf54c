"""Tests of the benchmark itself, at the tiny --smoke sizes.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import run as bench_run  # noqa: E402
import spans  # noqa: E402


def _run(*args, cwd=ROOT, script=os.path.join(BENCH_DIR, "run.py")):
    proc = subprocess.run(
        [sys.executable, script, "--smoke", "--seconds", "1", *args],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc, result


def test_benchmark_json_declares_the_metrics_run_py_emits():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench_run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench_run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(bench_run.WORKLOADS)


def test_smoke_emits_every_end_to_end_metric_with_its_unit():
    proc, result = _run("--trace", "0")
    assert proc.returncode == 0, proc.stderr
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    for w in bench_run.WORKLOADS:
        for name, unit in bench_run.END_TO_END.items():
            metric = result["metrics"][f"{w}.{name}"]
            assert metric["unit"] == unit
            assert metric["value"] > 0
    assert proc.stdout.count("fail_ratio") == len(bench_run.WORKLOADS)


def test_smoke_emits_every_per_layer_metric_with_its_unit():
    proc, result = _run("--trace", "1")
    assert proc.returncode == 0, proc.stderr
    for w in bench_run.WORKLOADS:
        for name, unit in bench_run.PER_LAYER.items():
            metric = result["metrics"][f"{w}.{name}"]
            assert metric["unit"] == unit
            assert metric["value"] is not None, f"{w} {name}"
        # B = 19 in smoke mode: one unpermuted triple plus 19 permuted ones.
        assert result["metrics"][f"{w}.ustat.triple_calls"]["value"] == 20
    assert result["metrics"]["cli-ghsic-wide.kernels.distance_passes"]["value"] == 4
    assert result["metrics"]["test-large.kernels.distance_passes"]["value"] == 2
    for name in bench_run.EXTRA_LAYER:
        assert proc.stdout.count(name) == len(bench_run.WORKLOADS)


def test_perturbed_reference_fails_the_run(tmp_path):
    for name in os.listdir(os.path.join(BENCH_DIR, "reference")):
        shutil.copy(os.path.join(BENCH_DIR, "reference", name), tmp_path)
    path = tmp_path / "test-large.smoke.json"
    doc = json.loads(path.read_text())
    doc["output"]["per_gamma"]["2"]["p_perm"] += 1.0 / 20
    path.write_text(json.dumps(doc))

    proc, result = _run("--workload", "test-large", "--seed", "0", "--reference-dir", str(tmp_path))
    assert proc.returncode != 0
    assert not result["correct"]
    assert result["failed"] > 0
    assert result["failed"] == result["attempted"]
    assert "T2 p_perm" in proc.stderr
    fail_line = next(l for l in proc.stdout.splitlines() if l.strip().startswith("fail_ratio"))
    assert float(fail_line.split()[1]) > 0


def test_without_program_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc, result = _run("--workload", "test-large", cwd=tmp_path,
                        script=str(tmp_path / "bench" / "run.py"))
    assert proc.returncode != 0
    assert result is None


def test_missing_trace_target_is_reported_absent(monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "src"))
    import workload

    renamed = tuple(
        (span, mod, ("PairStatCore", "triple_renamed")) if span == "ustat.PairStatCore.triple"
        else (span, mod, path)
        for span, mod, path in spans.TARGETS
    )
    monkeypatch.setattr(spans, "TARGETS", renamed)
    gd = workload._import_program()
    wl = workload.TestLarge(gd, 0, True, None)
    tracer = spans.Tracer()
    tracer.install()
    try:
        wl.call(wl.threads)
    finally:
        tracer.uninstall()
    assert tracer.absent == ["ustat.PairStatCore.triple"]
    layers, _extra = workload.layer_metrics(tracer, wl, [1.0], [1.0])
    assert layers["ustat.triple_calls"] is None
    assert layers["ustat.gather_gbps_computed"] is None
    assert layers["metric.calls"] == 20
