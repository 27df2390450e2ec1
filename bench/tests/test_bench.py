"""Tests of the benchmark itself: generator, tracer, metric lists, smoke runs.

Run with `PYTHONPATH=src python -m pytest -q bench/tests`.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import generate  # noqa: E402
import run  # noqa: E402
import socialpower  # noqa: E402
from spans import NAME, TARGETS, Tracer, layer_totals, self_times  # noqa: E402


def _files(directory: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("workload", generate.WORKLOADS)
def test_generator_is_deterministic_per_seed(tmp_path, workload):
    generate.generate(workload, 11, tmp_path / "a", tiny=True)
    generate.generate(workload, 11, tmp_path / "b", tiny=True)
    generate.generate(workload, 12, tmp_path / "c", tiny=True)
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert _files(tmp_path / "a") != _files(tmp_path / "c")


@pytest.mark.parametrize("workload", generate.WORKLOADS)
def test_generated_programs_validate_and_match_references(tmp_path, workload):
    manifest = generate.generate(workload, 5, tmp_path, tiny=True)
    refs = manifest["reference"]["matrices"]
    for fname in ("random_program.json", "periodic_program.json"):
        program = socialpower.load_program(tmp_path / fname)
        for ref, matrix in zip([r for r in refs if r["file"] == fname], program.matrices):
            assert ref["residual"] < 1e-12
            gamma = socialpower.dominant_left_eigenvector(matrix)
            assert np.abs(gamma - ref["gamma"]).sum() < 1e-8
            x = np.array(ref["fixed_point"])
            c = x * (1 - x) / np.array(ref["gamma"])
            assert abs(x.sum() - 1) < 1e-12 and np.ptp(c) / c.mean() < 1e-12


def test_near_star_hub_gamma_is_w_over_one_plus_w(tmp_path):
    size = generate.sizes("near-star-solvers")
    generate.generate("near-star-solvers", 7, tmp_path)
    program = socialpower.load_program(tmp_path / "random_program.json")
    hubs = [socialpower.dominant_left_eigenvector(m)[0] for m in program.matrices]
    expected = [w / (1 + w) for w in size["random_w"]]
    assert np.allclose(hubs, expected, atol=1e-9)
    # gamma_hub spans 0.474 (w = 0.9) to 0.4975 (w = 0.99)
    assert 0.47 < min(hubs) and max(hubs) < 0.498


def test_self_time_subtracts_union_of_children():
    # parent 0..100 ns; children overlap (10..30, 20..50) and one runs
    # past the parent's end (90..120): covered = 40 + 10 ns
    spans = [
        ["parent", 0, 100, -1, 1, 0],
        ["a", 10, 30, 0, 1, 0],
        ["b", 20, 50, 0, 1, 0],
        ["c", 90, 120, 0, 1, 0],
        ["grandchild", 12, 18, 1, 1, 0],
    ]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(50e-9)
    assert selfs[1] == pytest.approx(14e-9)
    assert selfs[4] == pytest.approx(6e-9)
    totals = layer_totals(spans)
    assert totals["parent"]["total_s"] == pytest.approx(100e-9)
    assert totals["parent/a"]["calls"] == 1

    # a round sliced out of a longer recording keeps global parent indices
    recorded = [["earlier", 0, 1, -1, 0, 0]] + [
        [name, start, end, parent + 1 if parent >= 0 else -1, op, work]
        for name, start, end, parent, op, work in spans
    ]
    assert layer_totals(recorded[1:], 1) == totals


def test_tracer_wraps_every_binding_and_restores():
    from socialpower import analysis, verification

    original = analysis.transform_chain
    tracer = Tracer()
    tracer.install()
    try:
        assert verification.transform_chain is analysis.transform_chain is not original
        assert socialpower.transform_chain is analysis.transform_chain
        with tracer.span("op.check", op=1):
            verification.check_contraction_certificates(np.array([0.2, 0.3, 0.5]), np.random.default_rng(0), 3)
    finally:
        tracer.uninstall()
    assert verification.transform_chain is original and socialpower.transform_chain is original
    names = [span[NAME] for span in tracer.spans]
    assert names.count("analysis.transform_chain") == 3
    assert names.count("verification.sample_interior") == 1
    totals = layer_totals(tracer.spans)
    assert totals["verification.sample_interior"]["work"] == 3
    outer = totals["op.check"]
    inner = sum(totals[k]["self_s"] for k in totals if "/" not in k and k != "op.check")
    assert outer["total_s"] == pytest.approx(outer["self_s"] + inner)


def test_summarize_scales_each_block_by_its_calibration():
    # a host twice as slow in the second half: times and kernel both double
    values = [1.0] * 5 + [2.0] * 5
    kernel = [run.CALIBRATION_S] * 5 + [2 * run.CALIBRATION_S] * 5
    assert run.summarize(values, kernel) == pytest.approx(1.0)
    assert run.summarize([3.0], [run.CALIBRATION_S / 2]) == pytest.approx(6.0)


def test_metric_lists_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    per_layer = {name: unit for name, (unit, _, _) in run.PER_LAYER.items()}
    per_layer[run.OVERHEAD[0]] = run.OVERHEAD[1]
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == per_layer
    assert [w["name"] for w in spec["workloads"]] == list(generate.WORKLOADS)
    span_names = {f"{mod}.{name}" for mod, name, _ in TARGETS}
    assert {span for _, span, _ in run.PER_LAYER.values()} <= span_names


def _bench(*args) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args], cwd=ROOT,
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", generate.WORKLOADS)
def test_tiny_smoke_run_has_no_errors(workload):
    result = _bench("--workload", workload, "--seed", "3", "--seconds", "0.1", "--trace", "0", "--tiny")
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 10
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_tiny_traced_run_reports_every_layer():
    result = _bench("--workload", "group6-switching", "--seed", "3", "--seconds", "0.1", "--trace", "1", "--tiny")
    assert result["correct"] and result["failed"] == 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in spec["per_layer"]}
    metrics = result["metrics"]
    assert metrics["dynamics.simulate.calls"]["value"] > 0
    assert metrics["analysis.fixed_point.self_s"]["value"] > 0


def test_refuses_to_run_without_the_package(tmp_path):
    bench = tmp_path / "bench"
    bench.mkdir()
    for path in BENCH.glob("*.py"):
        (bench / path.name).write_bytes(path.read_bytes())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "group6-switching", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
