"""Tests of the benchmark itself: output format, determinism of the traced
counts, tracing transparency, and that the checkers catch wrong outputs.

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

import dataclasses
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def _small_runs(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)


def bench(capsys, workload, trace, seed=3, seconds=0.01):
    code = run.main(["--workload", workload, "--seed", str(seed),
                     "--seconds", str(seconds), "--trace", str(trace)])
    assert code == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def units(result):
    return {k: v["unit"] for k, v in result["metrics"].items()}


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_run_prints_every_end_to_end_metric(capsys, workload):
    result = bench(capsys, workload, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert units(result) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_counted_block_repeats_at_a_seed(capsys):
    first = bench(capsys, "triangle_sweep", trace=0, seed=11)
    second = bench(capsys, "triangle_sweep", trace=0, seed=11)
    assert first["attempted"] == 22  # one round of the tiny run
    assert (first["attempted"], first["failed"]) == (second["attempted"], second["failed"])
    assert run.counted_rounds(workloads.TriangleSweep(), 30.0) > 1


@pytest.mark.parametrize("workload", ["triangle_sweep", "point_eval"])
def test_traced_calls_repeat_exactly(capsys, workload):
    first = bench(capsys, workload, trace=1)
    second = bench(capsys, workload, trace=1)
    assert units(first) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert first["correct"] and second["correct"]
    calls = [k for k in first["metrics"] if k.endswith((".calls", ".points", ".iters"))]
    assert calls
    for key in calls:
        assert first["metrics"][key]["value"] == second["metrics"][key]["value"], key
    assert first["metrics"]["kernels.premodular_at.calls"]["value"] > 0


@pytest.mark.parametrize("workload", ["triangle_sweep", "point_eval"])
def test_traced_outputs_equal_untraced(workload):
    wl = workloads.make(workload, "")
    block = wl.make_round(random.Random(f"{workload}:5"))[:40]
    plain = run.run_pass(wl, block, check=True)
    tr = tracer.Tracer()
    tr.install()
    try:
        traced = run.run_pass(wl, block, tr)
    finally:
        tr.uninstall()
    assert traced[1] == plain[1]
    assert len(tr.spans) > len(block)
    # every patch is undone
    from pvilab import locator, solutions

    assert locator._newton_z2 is solutions._newton_z2
    assert not hasattr(solutions.lambda_rs, "__wrapped__")


def test_t_oracle_flags_perturbed_t():
    wl = workloads.PointEval()
    inp = workloads.EvalInput(
        workloads.TorsionPair.of(0.3, 0.2), complex(0.2, 1.1), -1, True
    )
    good = wl.op(inp)
    assert wl.check(inp, good, 0) is None
    bad = dataclasses.replace(good, t=good.t * (1 + 1e-6))
    assert wl.check(inp, bad, 1) is None
    failures = wl.finish()
    assert list(failures) == [1]
    assert failures[1].kind == "check:t_oracle"


def test_algebraic_identity_flags_perturbed_lambda():
    wl = workloads.PointEval()
    inp = workloads.EvalInput(
        workloads.TorsionPair.of(*workloads.ALGEBRAIC[0]), complex(0.45, 0.8), 0, False
    )
    good = wl.op(inp)
    assert wl.check(inp, good, 0) is None
    bad = dataclasses.replace(good, lam=good.lam * (1 + 1e-6))
    assert wl.check(inp, bad, 0).kind == "check:algebraic_identity"


def test_count_checker_flags_wrong_p(tmp_path):
    wl = workloads.PoleCount(str(tmp_path))
    inp = workloads.CountInput(5)
    rc, text = wl.op(inp)
    assert wl.check(inp, (rc, text), 0) is None
    report = json.loads(text)
    report["results"]["P"] += 1
    assert wl.check(inp, (rc, json.dumps(report)), 1).kind == "check:P"
    assert workloads.expected_p(8) == 6


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "point_eval",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
