"""The benchmark's own tests, at tiny sizes.

Run from the root of the checkout:

    python3 -m pytest -q perfbench
"""

import json
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def _bench(*args, cwd=ROOT):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--size", "tiny",
           "--seconds", "0"] + list(args)
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd, timeout=170)


def _last_json(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _check_metrics(line, wanted):
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert set(line["metrics"]) == {m["name"] for m in wanted}
    units = {m["name"]: m["unit"] for m in wanted}
    for name, metric in line["metrics"].items():
        assert metric["unit"] == units[name]
        assert isinstance(metric["value"], (int, float))
        assert np.isfinite(metric["value"])


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_workload_runs_and_prints_every_end_to_end_metric(name):
    proc = _bench("--workload", name, "--trace", "0")
    line = _last_json(proc)
    _check_metrics(line, SPEC["end_to_end"])
    assert line["correct"] is True
    assert line["attempted"] >= 1
    for metric in line["metrics"].values():
        assert metric["value"] > 0.0
    # the only failing operation is the negative-control verify of a stored
    # diverged run, which raises instead of exiting 3
    failed = [ln for ln in proc.stdout.splitlines() if ln.strip().startswith("failed:")]
    assert len(failed) == line["failed"]
    assert all("verify control" in ln for ln in failed)
    if name != "missile-registry":
        assert line["failed"] == 0


@pytest.mark.parametrize("name", ["sweep-paper", "auto-verify"])
def test_traced_run_prints_every_per_layer_metric(name):
    line = _last_json(_bench("--workload", name, "--trace", "1"))
    _check_metrics(line, SPEC["per_layer"])
    assert line["correct"] is True
    metrics = {k: v["value"] for k, v in line["metrics"].items()}
    assert metrics["simkit.rk4_steps"] > 0
    assert metrics["scenarios.rhs_calls"] == 4 * metrics["simkit.rk4_steps"]
    if name == "auto-verify":
        assert metrics["autodiff.dual_ops_per_rhs"] > 0
        assert metrics["verify.audit_sample_us"] > 0
    else:
        assert metrics["autodiff.dual_ops_per_rhs"] == 0
        assert metrics["verify.mc_runs"] == workloads.SIZES["tiny"]["sweep_runs"]


def _small_trajectory():
    from purefb import scenarios

    return scenarios.build("stt-missile", T=0.05, decimation=1).run()


def test_output_check_rejects_a_perturbed_trajectory(tmp_path):
    traj = _small_trajectory()
    path = str(tmp_path / "trajectory.csv")
    traj.write_csv(path)
    assert workloads.csv_matches(path, traj)
    digest = workloads.csv_digest([traj], str(tmp_path))

    traj.data[7, 1] = np.nextafter(traj.data[7, 1], np.inf)
    assert not workloads.csv_matches(path, traj)
    assert workloads.csv_digest([traj], str(tmp_path)) != digest


def test_verdict_rejects_digest_drift_and_wrong_outputs():
    want = run._expected("sweep-paper")
    good = {"wrong": [], "digests": want["digests"], "traced": False}
    assert run.verdict("sweep-paper", want["seed"], "full", [good]) == (True, [])
    drifted = dict(good, digests=dict(want["digests"], csv="0" * 64))
    assert not run.verdict("sweep-paper", want["seed"], "full", [drifted])[0]
    assert not run.verdict("sweep-paper", want["seed"], "full", [good, drifted])[0]
    wrong = dict(good, wrong=["sweep run 3: failed ['state-tail']"])
    assert not run.verdict("sweep-paper", want["seed"], "full", [wrong])[0]


def test_refuses_to_run_outside_a_checkout(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "sweep-paper", "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert not proc.stdout.strip()


NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_follows_its_schema():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0.0 < m["bound"] <= 0.25 and UNIT.match(m["unit"])
        assert run.END_TO_END[m["name"]] == m["unit"]
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"} and UNIT.match(m["unit"])
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
