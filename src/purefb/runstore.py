"""Content-addressed run registry on the filesystem.

Each run lives under ``<out>/<run-id>/`` where the id is the first 12
hex digits of the SHA-256 of the canonical config text, so re-running
the same effective configuration lands in the same directory and
rewrites byte-identical data files.  ``FILES`` is the one list of a run
directory's files, in this order:

    config.cfg       canonical config text (hash input, exact)
    trajectory.csv   recorded samples, the byte-exact record
    trajectory.npy   the same float64 table in numpy's binary format,
                     which ``load_run`` reads instead of parsing the CSV
    summary.json     the failure point, which neither table holds, and
                     for a human reader the final time, terminal values
                     and extrema, laid out by ``save_run`` alone
    record.json      registry bookkeeping (id, timestamp, file list) and
                     the SHA-256 seals of the ``SEALED`` files, the three
                     above (config.cfg's hash is the run id), written last
    report.json      verification report (written by the verify command)
    plots/*.svg      rendered charts

Sweep aggregates go next to them as aggregate-*.json.  ``paths_for``
gives a ``RunPaths``: run_id, root and one path per entry of ``FILES``.

Every JSON file is RFC 8259 JSON: an infinite or NaN float, such as an
extremum or a check margin of a diverged run, is written as null.

A stored run is its config and its trajectory: ``load_run`` rebuilds the
scenario from config.cfg, and that scenario alone gives the trajectory
its column groups and design values (``meta``).  It checks every seal of
record.json and takes the columns from the CSV header and the table from
the twin; a missing file or a wrong digest raises ``RunStoreError`` naming
the file (the CLI's exit 2), with no fallback.  Only a record without
seals, written before the twin existed, has its table parsed from
trajectory.csv.
"""

from __future__ import annotations

import datetime
import hashlib
import json
import math
import os
from collections import namedtuple

import numpy as np

from . import config as configmod
from .simkit import StatePoint, Trajectory, read_csv

__all__ = ["RunPaths", "RunStoreError", "save_run", "load_run", "list_runs"]


class RunStoreError(ValueError):
    """Registry lookup or layout failure."""


# each file of a run directory: its RunPaths attribute and its name
FILES = {
    "config": "config.cfg",
    "trajectory": "trajectory.csv",
    "twin": "trajectory.npy",
    "summary": "summary.json",
    "record": "record.json",
    "report": "report.json",
    "plots": "plots",
}
# the files record.json seals, by attribute
SEALED = ("trajectory", "twin", "summary")
# bytes hashed per read: a whole-file read would hold a run's CSV in memory
_CHUNK = 1 << 16

RunPaths = namedtuple("RunPaths", ("run_id", "root", *FILES))


def paths_for(out_dir, run_id):
    root = os.path.join(out_dir, run_id)
    return RunPaths(run_id, root, *(os.path.join(root, name) for name in FILES.values()))


def _finite(value):
    """value with every non-finite float replaced by None (JSON null)."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _finite(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite(v) for v in value]
    return value


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(_finite(payload), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(_CHUNK), b""):
            digest.update(chunk)
    return digest.hexdigest()


def save_run(cfg, traj):
    """Persist one run under its config hash; returns RunPaths."""
    paths = paths_for(cfg.out_dir, cfg.run_id)
    os.makedirs(paths.plots, exist_ok=True)
    with open(paths.config, "w") as fh:
        fh.write(cfg.canonical)
    traj.write_csv(paths.trajectory)
    np.save(paths.twin, traj.data, allow_pickle=False)
    # sid, h, seed and meta follow from config.cfg, the columns from the CSV
    names = traj.columns[1:]
    _write_json(paths.summary, {
        "failure": traj.failure, "t_final": float(traj.data[-1, 0]),
        "terminal": dict(zip(names, traj.data[-1, 1:].tolist())),
        "max_abs": dict(zip(names, traj.max_abs().tolist()))})
    record = {
        "run_id": cfg.run_id,
        "config_sha256": cfg.sha256,
        "scenario": cfg.sid,
        "written_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "files": [FILES[f] for f in ("config", *SEALED)],
        "sha256": {FILES[f]: _sha256(getattr(paths, f)) for f in SEALED},
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
            and all(type(v) in (int, float) for v in [value[0], *value[1]])):
        return StatePoint(value[0], tuple(value[1]))
    raise RunStoreError(
        "%s: failure must be null or [t, [y...]], got %r" % (where, value))


def _json_object(path):
    with open(path) as fh:
        try:
            value = json.load(fh)
        except ValueError as exc:
            raise RunStoreError("%s: %s" % (path, exc)) from None
    if not isinstance(value, dict):
        raise RunStoreError("%s does not hold a JSON object" % path)
    return value


def _check_seals(paths):
    """False for a record written before the seals; else True once the
    SHA-256 of each sealed file matches its seal, which raises otherwise."""
    seals = _json_object(paths.record).get("sha256")
    if seals is None:
        return False
    for f in SEALED:
        path = getattr(paths, f)
        if not isinstance(seals, dict) or _sha256(path) != seals.get(FILES[f]):
            raise RunStoreError("%s does not match its seal in %s" % (path, paths.record))
    return True


def _read_twin(paths, sid, h, seed):
    """The trajectory of a sealed run: the columns of the CSV header line,
    the table of trajectory.npy."""
    with open(paths.trajectory) as fh:
        columns = tuple(fh.readline().rstrip("\n").split(","))
    try:
        data = np.load(paths.twin, allow_pickle=False)
        if not isinstance(data, np.ndarray) or data.dtype != np.float64:
            raise ValueError("not a float64 table")
        return Trajectory(sid=sid, columns=columns, data=data, h=h, seed=seed)
    except (ValueError, EOFError) as exc:
        raise RunStoreError("%s: %s" % (paths.twin, exc)) from None


def load_run(out_dir, run_id):
    """Load (RunConfig, Scenario, Trajectory) back from the registry.

    The scenario is rebuilt from the hash-checked config.cfg.  It gives the
    trajectory its sid, h and ``meta``, and trajectory.csv must hold
    exactly its recorder's columns.  The seals of record.json are checked
    before any file they seal is read; the table then comes from
    trajectory.npy, or for a record without seals from trajectory.csv.
    Only ``failure`` is read from summary.json, so the summaries of
    earlier layouts load too.
    """
    paths = paths_for(out_dir, run_id)
    if not os.path.isdir(paths.root):
        known = ", ".join(list_runs(out_dir)) or "none"
        raise RunStoreError(
            "no run %r under %s (known: %s)" % (run_id, out_dir, known)
        )
    try:
        cfg = configmod.load_file(paths.config)
        if cfg.run_id != run_id:
            raise RunStoreError(
                "registry dir %s holds config hashing to %s" % (run_id, cfg.run_id)
            )
        scn = configmod.build(cfg)
    except configmod.ConfigError as exc:
        # a read error names the file already, a parse or build error does not
        text = str(exc)
        if paths.config not in text:
            text = "%s: %s" % (paths.config, text)
        raise RunStoreError(text) from None
    try:
        sealed = _check_seals(paths)
        summary = _json_object(paths.summary)
        if sealed:
            traj = _read_twin(paths, sid=scn.sid, h=scn.h, seed=cfg.seed)
        else:
            traj = read_csv(paths.trajectory, sid=scn.sid, h=scn.h, seed=cfg.seed)
        traj.failure = _failure_point(summary["failure"], paths.summary)
    except OSError as exc:
        raise RunStoreError("cannot read run %s: %s" % (run_id, exc)) from None
    except KeyError as exc:
        raise RunStoreError("%s lacks the key %s" % (paths.summary, exc)) from None
    columns = ("t", *scn.recorder[0])
    if traj.columns != columns:
        raise RunStoreError("%s has the columns %s, not %s" % (
            paths.trajectory, ",".join(traj.columns), ",".join(columns)))
    traj.meta = dict(scn.meta)
    return cfg, scn, traj


def list_runs(out_dir):
    if not os.path.isdir(out_dir):
        return []
    return [name for name in sorted(os.listdir(out_dir))
            if os.path.isfile(paths_for(out_dir, name).record)]
