"""Tests of the benchmark itself: `python -m pytest perfbench/tests -q`."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
import bootstrap  # noqa: E402

bootstrap.use_checkout_source()

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from fractorus import linking, nonlinearity, theta  # noqa: E402

HELD_OUT_SEED = 7_340_213


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(workload):
    a = json.dumps(workloads.generate(workload, 5, 12), sort_keys=True)
    b = json.dumps(workloads.generate(workload, 5, 12), sort_keys=True)
    other = json.dumps(workloads.generate(workload, 6, 12), sort_keys=True)
    assert a == b
    assert a != other


def test_solve_1d_mix_has_one_modulated_item_in_five():
    items = workloads.generate("solve-1d-n64", 3, 40)
    kinds = [it["config"]["nonlinearity"]["kind"] for it in items]
    assert kinds.count("modulated_power") == 8
    assert {it["config"]["nonlinearity"]["p"] for it in items} == {2.0, 2.5, 3.0}


@pytest.fixture(scope="module")
def standard_solve(tmp_path_factory):
    out = tmp_path_factory.mktemp("standard")
    outcome = checks.run_item(workloads.WARMUP, out)
    assert outcome.code == 0
    return out


def _copy(src, tmp_path):
    dst = tmp_path / "out"
    shutil.copytree(src, dst)
    return dst


def test_checker_accepts_the_reference_solve(standard_solve, tmp_path):
    out = _copy(standard_solve, tmp_path)
    (op,) = checks.check_item(workloads.WARMUP, checks.Outcome(0), out)
    assert op.ok and not op.wrong


def test_checker_flags_one_perturbed_coefficient(standard_solve, tmp_path):
    out = _copy(standard_solve, tmp_path)
    doc = json.loads((out / "solution.json").read_text())
    doc["data"][3][0] += 1e-6
    (out / "solution.json").write_text(json.dumps(doc))
    (op,) = checks.check_item(workloads.WARMUP, checks.Outcome(0), out)
    assert not op.ok and op.wrong
    assert "residual" in op.cause


def test_checker_flags_a_level_off_by_1e_6(standard_solve, tmp_path):
    out = _copy(standard_solve, tmp_path)
    doc = json.loads((out / "energy.json").read_text())
    doc["level"] += 1e-6
    (out / "energy.json").write_text(json.dumps(doc))
    (op,) = checks.check_item(workloads.WARMUP, checks.Outcome(0), out)
    assert not op.ok and op.wrong
    assert op.cause == "reference_level"


def test_solver_failure_is_a_failure_not_a_wrong_answer(tmp_path):
    item = json.loads(json.dumps(workloads.WARMUP))
    item["reference"] = None
    # The known NoPositiveRidge instance of the baseline notes.
    item["config"].update(frac={"s": 0.3, "m": 0.25}, seed=0,
                          nonlinearity={"kind": "pure_power", "p": 3.0})
    outcome = checks.run_item(item, tmp_path)
    (op,) = checks.check_item(item, outcome, tmp_path)
    assert outcome.code == 3
    assert (op.ok, op.cause, op.wrong) == (False, "NoPositiveRidge", False)


def test_readme_sweep_matches_its_reference_alphas(tmp_path):
    (item,) = workloads.generate("sweep-1d-n256", 1, 1)
    assert item["reference"] == "readme-sweep"
    ops = checks.check_item(item, checks.run_item(item, tmp_path), tmp_path)
    assert [op.label for op in ops] == ["m=0.5", "m=0.1", "m=0.02", "m=0.004", "m=0"]
    assert all(op.ok for op in ops), [op.cause for op in ops]


def test_self_time_on_a_synthetic_nested_trace():
    # A[0,10] > (B[1,4] > D[2,3]), C[5,6.5];  E[11,12] is a second root.
    name = np.array([0, 1, 3, 2, 0])
    start = np.array([0.0, 1.0, 2.0, 5.0, 11.0])
    end = np.array([10.0, 4.0, 3.0, 6.5, 12.0])
    parent = np.array([-1, 0, 1, 0, -1])
    calls, total, self_s = tracing.layer_totals(name, start, end, parent, n_layers=4)
    assert calls.tolist() == [2, 1, 1, 1]
    assert total.tolist() == [11.0, 3.0, 1.5, 1.0]
    assert self_s.tolist() == [10.0 - 3.0 - 1.5 + 1.0, 2.0, 1.5, 1.0]


def test_tracer_wraps_imported_names_and_removes_every_wrapper():
    originals = (linking.pad_coeffs, nonlinearity.pad_coeffs,
                 theta.ThetaProfile.theta, linking.energy.multiplier)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert linking.pad_coeffs is nonlinearity.pad_coeffs
        assert linking.pad_coeffs.__wrapped__ is originals[0]
        assert linking.energy.multiplier.__wrapped__ is originals[3]
        theta.ThetaProfile(0.5).theta(np.array([0.5, 1.0, 2.0]))
    finally:
        tracer.remove()
    assert (linking.pad_coeffs, nonlinearity.pad_coeffs,
            theta.ThetaProfile.theta, linking.energy.multiplier) == originals
    metrics = tracer.metrics()
    assert metrics["theta.ThetaProfile.calls"][0] == 1
    assert metrics["theta.ThetaProfile.points"][0] == 3


@pytest.mark.parametrize("n_items", [1, 3, 7, 266])
def test_setup_probes_are_spread_over_the_run(n_items):
    slots = run.probe_slots(n_items, 7)
    assert len(slots) == n_items and sum(slots) == 7
    if n_items >= 7:
        assert max(slots) == 1
        first = slots.index(1)
        last = n_items - 1 - slots[::-1].index(1)
        assert first < n_items / 7 and last >= n_items * 6 / 7 - 1


def _bench(args, cwd):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_held_out_seed_run_completes(trace):
    proc = _bench(["--workload", "solve-1d-n64", "--seed", str(HELD_OUT_SEED),
                   "--seconds", "1", "--trace", trace], bootstrap.ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    spec = json.loads((bootstrap.ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["per_layer" if trace == "1" else "end_to_end"]]
    assert sorted(result["metrics"]) == sorted(names)


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(bootstrap.ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench(["--workload", "verify-mixed", "--seed", "1", "--seconds", "1",
                   "--trace", "0"], tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
