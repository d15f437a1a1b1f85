"""Run registry: content addressing, round trips, tamper detection."""

import json
import os
from pathlib import Path

import numpy as np
import pytest

from purefb import cli, runstore, scenarios
from purefb.config import load_text
from purefb.simkit import StatePoint


def short_config(out_dir):
    return load_text(
        "scenario.id = numeric-2d\n"
        "integrator.T = 2.0\n"
        "run.out = %s\n" % out_dir
    )


def run_once(cfg):
    scn = scenarios.build(cfg.sid, **cfg.scenario_overrides())
    return scn.run(seed=cfg.seed)


def test_save_and_load_round_trip(tmp_path):
    cfg = short_config(tmp_path)
    traj = run_once(cfg)
    paths = runstore.save_run(cfg, traj)
    assert os.path.isfile(paths.config)
    assert os.path.isfile(paths.trajectory)
    assert os.path.isfile(paths.summary)
    assert os.path.isfile(paths.record)
    cfg2, traj2 = runstore.load_run(str(tmp_path), cfg.run_id)
    assert cfg2.sha256 == cfg.sha256
    assert traj2.columns == traj.columns
    assert np.array_equal(traj2.data, traj.data)
    assert traj2.meta["adaptive"] == [1, 2]
    assert not traj2.diverged


def test_rerun_overwrites_same_directory(tmp_path):
    cfg = short_config(tmp_path)
    runstore.save_run(cfg, run_once(cfg))
    csv = Path(runstore.paths_for(str(tmp_path), cfg.run_id).trajectory)
    first = csv.read_bytes()
    runstore.save_run(cfg, run_once(cfg))
    second = csv.read_bytes()
    assert first == second
    assert runstore.list_runs(str(tmp_path)) == [cfg.run_id]


def test_unknown_id_lists_known_runs(tmp_path):
    cfg = short_config(tmp_path)
    runstore.save_run(cfg, run_once(cfg))
    with pytest.raises(runstore.RunStoreError, match=cfg.run_id):
        runstore.load_run(str(tmp_path), "feedbeefcafe")


def test_list_runs_empty_for_missing_root(tmp_path):
    assert runstore.list_runs(str(tmp_path / "void")) == []


def test_tampered_config_detected(tmp_path):
    cfg = short_config(tmp_path)
    paths = runstore.save_run(cfg, run_once(cfg))
    stored = Path(paths.config)
    stored.write_text(stored.read_text().replace("run.seed = 0", "run.seed = 99"))
    with pytest.raises(runstore.RunStoreError, match="hash"):
        runstore.load_run(str(tmp_path), cfg.run_id)


def test_report_and_aggregate_files(tmp_path):
    cfg = short_config(tmp_path)
    paths = runstore.save_run(cfg, run_once(cfg))
    rp = runstore.save_report(paths, {"verdict": "PASS"})
    assert json.loads(Path(rp).read_text())["verdict"] == "PASS"
    ap = runstore.save_aggregate(str(tmp_path), cfg.run_id, "mc-m2-s0",
                                 {"passes": 2})
    assert ap.endswith("aggregate-mc-m2-s0.json")
    assert json.loads(Path(ap).read_text())["passes"] == 2


def test_summary_holds_run_statistics(tmp_path):
    cfg = short_config(tmp_path)
    paths = runstore.save_run(cfg, run_once(cfg))
    with open(paths.summary) as fh:
        summary = json.load(fh)
    assert summary["sid"] == "numeric-2d"
    assert summary["samples"] == 21
    assert "x1" in summary["stats"]["terminal"]
    assert summary["meta"]["mode"] == "paper"


def test_diverged_run_round_trips_and_verifies(tmp_path, capsys):
    cfg = load_text(
        "scenario.id = numeric-2d\n"
        "integrator.T = 1.0\n"
        "design.sign_flip = true\n"
        "run.out = %s\n" % tmp_path
    )
    traj = run_once(cfg)
    assert traj.diverged
    runstore.save_run(cfg, traj)
    _, back = runstore.load_run(str(tmp_path), cfg.run_id)
    assert back.diverged
    assert isinstance(back.failure, StatePoint)
    assert back.failure == traj.failure
    assert cli.main(["verify", cfg.run_id, "--out", str(tmp_path)]) == 3
    assert "verdict: FAIL" in capsys.readouterr().out
