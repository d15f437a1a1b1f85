"""Run registry: content addressing, round trips, tamper detection."""

import json
import math
import os
from pathlib import Path

import numpy as np
import pytest

from purefb import cli, runstore, scenarios
from purefb.config import load_text
from purefb.simkit import StatePoint, integrate, read_csv


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
    assert os.path.isfile(paths.twin)
    assert os.path.isfile(paths.summary)
    assert os.path.isfile(paths.record)
    cfg2, scn2, traj2 = runstore.load_run(str(tmp_path), cfg.run_id)
    assert cfg2.sha256 == cfg.sha256
    assert traj2.meta == scn2.meta == traj.meta
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
    assert set(summary) == {"failure", "t_final", "terminal", "max_abs"}
    assert summary["failure"] is None
    assert summary["t_final"] == 2.0
    assert "x1" in summary["terminal"]


def test_summary_reports_terminal_and_extrema(tmp_path):
    """save_run lays out summary.json: the final time, and per column the
    last value and the largest |value|."""
    traj = integrate(lambda t, y: (-y[0], y[0] - 3.0), (2.0, 0.0), T=1.0, h=1e-2, sid="dec")
    paths = runstore.save_run(short_config(tmp_path), traj)
    summary = json.loads(Path(paths.summary).read_text())
    y1, y2 = traj.data[-1, 1:].tolist()
    assert summary == {"failure": None, "t_final": 1.0, "terminal": {"y1": y1, "y2": y2},
                       "max_abs": {"y1": 2.0, "y2": -y2}}
    assert y1 == pytest.approx(2.0 * math.exp(-1.0), rel=1e-8)
    assert y2 == pytest.approx(2.0 * (1.0 - math.exp(-1.0)) - 3.0, rel=1e-8)


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
    _, _, back = runstore.load_run(str(tmp_path), cfg.run_id)
    assert back.diverged
    assert isinstance(back.failure, StatePoint)
    assert back.failure == traj.failure
    assert cli.main(["verify", cfg.run_id, "--out", str(tmp_path)]) == 3
    assert "verdict: FAIL" in capsys.readouterr().out


# config texts of the tables the twin must hold bit for bit
TWIN_CASES = {
    "paper": "scenario.id = numeric-2d\nintegrator.T = 2.0\n",
    "auto": "scenario.id = numeric-2d\nintegrator.T = 2.0\ndesign.mode = auto\n",
    "missile": "scenario.id = stt-missile\nintegrator.decimation = 1\n",
    "sign-flip": "scenario.id = numeric-2d\nintegrator.T = 1.0\ndesign.sign_flip = true\n",
}


@pytest.mark.parametrize("case", list(TWIN_CASES))
def test_twin_holds_the_csv_table_bit_for_bit(tmp_path, case):
    cfg = load_text(TWIN_CASES[case] + "run.out = %s\n" % tmp_path)
    traj = run_once(cfg)
    paths = runstore.save_run(cfg, traj)
    _, _, back = runstore.load_run(str(tmp_path), cfg.run_id)
    parsed = read_csv(paths.trajectory)
    assert back.columns == parsed.columns == traj.columns
    assert back.data.dtype == parsed.data.dtype == np.float64
    assert back.data.shape == parsed.data.shape
    nan = np.isnan(parsed.data)
    assert np.array_equal(np.isnan(back.data), nan)
    assert np.array_equal(back.data.view(np.int64)[~nan], parsed.data.view(np.int64)[~nan])
    assert back.data.tobytes() == traj.data.tobytes()
    assert back.diverged == traj.diverged == (case == "sign-flip")


def test_sealed_run_does_not_parse_the_csv(tmp_path, monkeypatch):
    cfg = short_config(tmp_path)
    runstore.save_run(cfg, run_once(cfg))

    def refuse(*args, **kwargs):
        raise AssertionError("a sealed run parsed trajectory.csv")

    monkeypatch.setattr(runstore, "read_csv", refuse)
    runstore.load_run(str(tmp_path), cfg.run_id)


@pytest.mark.parametrize("seals", [{}, [], {"trajectory.csv": None}, {"trajectory.csv": 0}],
                         ids=["empty", "a-list", "a-null-digest", "a-number"])
def test_record_without_a_seal_of_each_file_is_rejected(tmp_path, seals):
    cfg = short_config(tmp_path)
    paths = runstore.save_run(cfg, run_once(cfg))
    with open(paths.record) as fh:
        record = json.load(fh)
    record["sha256"] = seals
    with open(paths.record, "w") as fh:
        json.dump(record, fh)
    with pytest.raises(runstore.RunStoreError,
                       match="trajectory.csv does not match its seal in .*record.json$"):
        runstore.load_run(str(tmp_path), cfg.run_id)
