"""Content-addressed run registry on the filesystem.

Each run lives under ``<out>/<run-id>/`` where the id is the first 12
hex digits of the SHA-256 of the canonical config text, so re-running
the same effective configuration lands in the same directory and
rewrites byte-identical data files.  Layout:

    config.cfg       canonical config text (hash input, exact)
    trajectory.csv   recorded samples
    summary.json     terminal values, extrema, column list, run metadata
    record.json      registry bookkeeping (id, timestamp, file list)
    report.json      verification report (written by the verify command)
    aggregate-*.json sweep aggregates
    plots/*.svg      rendered charts
"""

from __future__ import annotations

import datetime
import json
import os
from dataclasses import dataclass

import numpy as np

from . import config as configmod
from .simkit import StatePoint, read_csv

__all__ = ["RunPaths", "RunStoreError", "save_run", "load_run", "list_runs"]


class RunStoreError(ValueError):
    """Registry lookup or layout failure."""


@dataclass(frozen=True)
class RunPaths:
    run_id: str
    root: str

    @property
    def config(self):
        return os.path.join(self.root, "config.cfg")

    @property
    def trajectory(self):
        return os.path.join(self.root, "trajectory.csv")

    @property
    def summary(self):
        return os.path.join(self.root, "summary.json")

    @property
    def record(self):
        return os.path.join(self.root, "record.json")

    @property
    def report(self):
        return os.path.join(self.root, "report.json")

    @property
    def plots(self):
        return os.path.join(self.root, "plots")


def paths_for(out_dir, run_id):
    return RunPaths(run_id=run_id, root=os.path.join(out_dir, run_id))


def _jsonable(value):
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    return value


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(_jsonable(payload), fh, indent=2, sort_keys=True)
        fh.write("\n")


def save_run(cfg, traj):
    """Persist one run under its config hash; returns RunPaths."""
    paths = paths_for(cfg.out_dir, cfg.run_id)
    os.makedirs(paths.plots, exist_ok=True)
    with open(paths.config, "w") as fh:
        fh.write(cfg.canonical)
    traj.write_csv(paths.trajectory)
    summary = {
        "sid": traj.sid,
        "columns": list(traj.columns),
        "h": traj.h,
        "seed": traj.seed,
        "diverged": traj.diverged,
        "failure": traj.failure,
        "samples": traj.data.shape[0],
        "meta": traj.meta,
        "stats": traj.summary(),
    }
    _write_json(paths.summary, summary)
    record = {
        "run_id": cfg.run_id,
        "config_sha256": cfg.sha256,
        "scenario": cfg.sid,
        "written_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "files": ["config.cfg", "trajectory.csv", "summary.json"],
    }
    _write_json(paths.record, record)
    return paths


def save_report(paths, report):
    _write_json(paths.report, report)
    return paths.report


def save_aggregate(out_dir, run_id, tag, payload):
    paths = paths_for(out_dir, run_id)
    os.makedirs(paths.root, exist_ok=True)
    target = os.path.join(paths.root, "aggregate-%s.json" % tag)
    _write_json(target, payload)
    return target


def _failure_point(value, where):
    """StatePoint from a stored failure ``[t, [y...]]``; None stays None."""
    if value is None:
        return None
    if (isinstance(value, list) and len(value) == 2 and isinstance(value[1], list)
            and all(isinstance(v, (int, float)) for v in [value[0], *value[1]])):
        return StatePoint(value[0], tuple(value[1]))
    raise RunStoreError(
        "%s: failure must be null or [t, [y...]], got %r" % (where, value))


def load_run(out_dir, run_id):
    """Load (RunConfig, Trajectory) back from the registry."""
    paths = paths_for(out_dir, run_id)
    if not os.path.isdir(paths.root):
        known = ", ".join(list_runs(out_dir)) or "none"
        raise RunStoreError(
            "no run %r under %s (known: %s)" % (run_id, out_dir, known)
        )
    cfg = configmod.load_file(paths.config)
    if cfg.run_id != run_id:
        raise RunStoreError(
            "registry dir %s holds config hashing to %s" % (run_id, cfg.run_id)
        )
    try:
        with open(paths.summary) as fh:
            summary = json.load(fh)
        if not isinstance(summary, dict):
            raise RunStoreError("%s does not hold a JSON object" % paths.summary)
        if not isinstance(summary["meta"], dict):
            raise RunStoreError("%s: meta must be a JSON object" % paths.summary)
        traj = read_csv(
            paths.trajectory,
            sid=summary["sid"],
            h=summary["h"],
            seed=summary["seed"],
        )
        traj.diverged = summary["diverged"]
        traj.failure = _failure_point(summary["failure"], paths.summary)
        traj.meta = summary["meta"]
    except OSError as exc:
        raise RunStoreError("cannot read run %s: %s" % (run_id, exc)) from None
    except KeyError as exc:
        raise RunStoreError("%s lacks the key %s" % (paths.summary, exc)) from None
    return cfg, traj


def list_runs(out_dir):
    if not os.path.isdir(out_dir):
        return []
    out = []
    for name in sorted(os.listdir(out_dir)):
        if os.path.isfile(os.path.join(out_dir, name, "record.json")):
            out.append(name)
    return out
