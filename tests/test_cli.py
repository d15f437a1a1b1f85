"""Command-line behavior: subcommands, exit codes, persisted artifacts."""

import hashlib
import json
import os
from pathlib import Path

import numpy as np
import pytest

from purefb import config as configmod
from purefb import scenarios
from purefb.cli import main
from purefb.config import load_file, load_text

SHORT = (
    "scenario.id = numeric-2d\n"
    "integrator.T = 2.0\n"
)


@pytest.fixture()
def short_cfg(tmp_path):
    path = tmp_path / "short.cfg"
    path.write_text(SHORT)
    return str(path)


def write_cfg(tmp_path, text, name="case.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def registry(tmp_path):
    return str(tmp_path / "runs")


def only_run_id(out_dir):
    entries = [d for d in os.listdir(out_dir)
               if os.path.isdir(os.path.join(out_dir, d))]
    assert len(entries) == 1
    return entries[0]


def test_run_persists_and_exits_zero(short_cfg, tmp_path, capsys):
    out = registry(tmp_path)
    assert main(["run", "--config", short_cfg, "--out", out]) == 0
    lines = capsys.readouterr().out
    rid = only_run_id(out)
    assert rid in lines
    root = os.path.join(out, rid)
    for name in ("config.cfg", "trajectory.csv", "trajectory.npy", "summary.json",
                 "record.json"):
        assert os.path.isfile(os.path.join(root, name))
    plots = os.listdir(os.path.join(root, "plots"))
    assert "states.svg" in plots and "input.svg" in plots


def test_rerun_reproduces_csv_bytes(short_cfg, tmp_path):
    out_a = str(tmp_path / "a")
    out_b = str(tmp_path / "b")
    assert main(["run", "--config", short_cfg, "--out", out_a]) == 0
    assert main(["run", "--config", short_cfg, "--out", out_b]) == 0
    rid = only_run_id(out_a)
    assert rid == only_run_id(out_b)
    csv_a = Path(out_a, rid, "trajectory.csv").read_bytes()
    csv_b = Path(out_b, rid, "trajectory.csv").read_bytes()
    assert csv_a == csv_b


def test_verify_stored_run_writes_report(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "scenario.id = stt-missile\n"
                              "verify.tol_x = 0.00175\n")
    out = registry(tmp_path)
    assert main(["run", "--config", cfg, "--out", out]) == 0
    rid = only_run_id(out)
    capsys.readouterr()
    assert main(["verify", rid, "--out", out]) == 0
    text = capsys.readouterr().out
    assert "verdict: PASS" in text
    assert os.path.isfile(os.path.join(out, rid, "report.json"))


def test_verify_fresh_config(short_cfg, capsys):
    # T=2 leaves the state far from settled: monitors must say so
    assert main(["verify", "--config", short_cfg]) == 1
    assert "verdict: FAIL" in capsys.readouterr().out


def test_fresh_verify_rejects_out(short_cfg, tmp_path, capsys):
    out = registry(tmp_path)
    assert main(["verify", "--config", short_cfg, "--out", out]) == 2
    captured = capsys.readouterr()
    assert len(captured.err.splitlines()) == 1 and "--out" in captured.err
    assert "verdict" not in captured.out and not os.path.exists(out)
    # run.out set in the file is allowed
    cfg = write_cfg(tmp_path, SHORT + "run.out = %s\n" % out)
    assert main(["verify", "--config", cfg]) == 1
    assert "verdict: FAIL" in capsys.readouterr().out


def test_verify_full_horizon_passes(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "scenario.id = numeric-2d\n")
    assert main(["verify", "--config", cfg]) == 0
    text = capsys.readouterr().out
    assert "energy-budget" in text
    assert "verdict: PASS" in text


def test_sabotaged_run_diverges(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "scenario.id = numeric-2d\n"
                              "design.sign_flip = true\n")
    out = registry(tmp_path)
    assert main(["run", "--config", cfg, "--out", out]) == 3
    assert "DIVERGED" in capsys.readouterr().out
    assert main(["verify", "--config", cfg]) == 3


def strict_json(path):
    """The JSON in path, read by a parser that rejects Infinity and NaN."""
    def refuse(token):
        raise ValueError("non-standard JSON token %s in %s" % (token, path))

    return json.loads(Path(path).read_text(), parse_constant=refuse)


def test_diverged_run_writes_strict_json(tmp_path):
    """An infinite input or margin is stored as null, not as Infinity."""
    cfg = write_cfg(tmp_path, "scenario.id = stt-missile\n"
                              "integrator.T = 0.5\n"
                              "design.epsilon = 5e-324\n")
    out = registry(tmp_path)
    assert main(["run", "--config", cfg, "--out", out]) == 3
    rid = only_run_id(out)
    assert main(["verify", rid, "--out", out]) == 3
    root = Path(out, rid)
    summary = strict_json(root / "summary.json")
    assert summary["terminal"]["u"] is None and summary["max_abs"]["u"] is None
    complete = strict_json(root / "report.json")["invariants"]["checks"][0]
    assert complete["name"] == "complete" and complete["margin"] is None
    strict_json(root / "record.json")


def test_config_schema_error_exits_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "scenario.id = numeric-2d\n"
                              "design.mu = -1.0, 0.2\n")
    assert main(["run", "--config", cfg]) == 2
    assert "design.mu" in capsys.readouterr().err


def test_unknown_key_exits_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "scenario.id = numeric-2d\nwhat.ever = 1\n")
    assert main(["run", "--config", cfg]) == 2
    assert "what.ever" in capsys.readouterr().err


NON_FINITE = [
    ("integrator.T", "integrator.T = inf\n"),
    ("init.x0", "init.x0 = nan, 1.0\n"),
    ("uncertainty.theta", "uncertainty.theta = inf, 2.0\n"
                          "uncertainty.box_lo = 0.8, 1.6\n"
                          "uncertainty.box_hi = inf, 2.4\n"),
]


@pytest.mark.parametrize("key,text", NON_FINITE, ids=[k for k, _ in NON_FINITE])
def test_non_finite_float_exits_2_before_running(tmp_path, capsys, key, text):
    cfg = write_cfg(tmp_path, "scenario.id = numeric-2d\n" + text)
    out = registry(tmp_path)
    assert main(["run", "--config", cfg, "--out", out]) == 2
    err = capsys.readouterr().err
    assert "%s: must be finite" % key in err
    assert not os.path.exists(out)


def test_step_budget_exits_2_before_running(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "scenario.id = numeric-2d\nintegrator.h = 1e-9\n")
    out = registry(tmp_path)
    assert main(["run", "--config", cfg, "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: integrator.h:") and "budget" in err
    assert not os.path.exists(out)


def test_decimation_too_large_for_a_float_exits_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "scenario.id = numeric-2d\n"
                              "integrator.decimation = 1%s\n" % ("0" * 400))
    out = registry(tmp_path)
    assert main(["run", "--config", cfg, "--out", out]) == 2
    assert "decimation must divide" in capsys.readouterr().err


# (scenario, config lines, the key the error names): every value the config
# rejects at least once, before anything runs; a scenario keyword's rule is
# the library's, the rules of run.seed, run.out and verify.audit_* the config's
N2, MS = "numeric-2d", "stt-missile"
REJECTED = [
    (N2, "integrator.T = 0.0", "integrator.T"),
    (N2, "integrator.T = -1.0", "integrator.T"),
    (N2, "integrator.h = 0.0", "integrator.h"),
    (MS, "integrator.h = -0.001", "integrator.h"),
    (N2, "integrator.decimation = 0", "integrator.decimation"),
    (MS, "integrator.decimation = -5", "integrator.decimation"),
    (N2, "integrator.T = 1e300", "integrator.h"),
    (N2, "design.mu = -1.0, 0.2", "design.mu"),
    (N2, "design.mu = 0.2, 0.0", "design.mu"),
    (N2, "design.gamma = 0.0, 0.2", "design.gamma"),
    (N2, "design.gamma = 0.2, -1.0", "design.gamma"),
    (N2, "design.k0 = 0.0, 0.01", "design.k0"),
    (N2, "design.k0 = 0.01, -0.01", "design.k0"),
    (N2, "design.deadzone = -0.1", "design.deadzone"),
    (N2, "design.deadzone = -1e-9", "design.deadzone"),
    (N2, "design.smoothing = 0.0", "design.smoothing"),
    (N2, "design.smoothing = -1e-6", "design.smoothing"),
    (N2, "uncertainty.box_hi = 0.5, 2.0", "uncertainty.theta"),
    (N2, "uncertainty.box_lo = 0.0, 1.0", "uncertainty.box_lo"),
    (N2, "uncertainty.box_lo = 1.0, -2.0", "uncertainty.box_lo"),
    (N2, "uncertainty.theta = -1.0, 2.0", "uncertainty.theta"),
    (MS, "design.k1 = 0.0", "design.k1"),
    (MS, "design.k1 = -5.0", "design.k1"),
    (MS, "design.mu2 = 0.0", "design.mu2"),
    (MS, "design.mu3 = -0.5", "design.mu3"),
    (MS, "design.gamma2 = 0.0", "design.gamma2"),
    (MS, "design.gamma3 = -0.1", "design.gamma3"),
    (MS, "design.k20 = 0.0", "design.k20"),
    (MS, "design.k20 = -0.1", "design.k20"),
    (MS, "design.k30 = 0.0", "design.k30"),
    (MS, "design.k30 = -0.1", "design.k30"),
    (MS, "design.epsilon = 0.0", "design.epsilon"),
    (MS, "design.epsilon = -0.1", "design.epsilon"),
    (MS, "design.epsilon = 10.0", "design.k1"),  # k1 - 3 epsilon / 4 > 0
    (MS, "missile.s = 0.0", "missile.s"),
    (MS, "missile.s = -0.42", "missile.s"),
    (MS, "missile.l = -0.68", "missile.l"),
    (MS, "missile.jx = 0.0", "missile.jx"),
    (MS, "missile.tau_a = 0.0", "missile.tau_a"),
    (MS, "missile.tau_a = -0.01", "missile.tau_a"),
    (MS, "missile.rho_air = -0.7", "missile.rho_air"),
    (MS, "missile.v_mean = 0.0", "missile.v_mean"),
    (MS, "missile.v_mean = -200.0", "missile.v_mean"),
    (MS, "missile.v_amp = -0.1", "missile.v_amp"),
    (MS, "missile.v_amp = 1.0", "missile.v_amp"),
    (MS, "missile.v_amp = 1.5", "missile.v_amp"),
    (MS, "missile.v_freq = -2.0", "missile.v_freq"),
    (MS, "missile.v_freq = -1e-9", "missile.v_freq"),
    (MS, "missile.mx_mean = 0.0", "missile.mx_mean"),
    (MS, "missile.mx_mean = -2.12", "missile.mx_mean"),
    (MS, "missile.mx_amp = -0.2", "missile.mx_amp"),
    (MS, "missile.mx_amp = 1.0", "missile.mx_amp"),
    (MS, "missile.mx_freq = -1.0", "missile.mx_freq"),
    (MS, "missile.xi_const = 0.0", "missile.xi_const"),
    (MS, "missile.xi_const = -1.0", "missile.xi_const"),
    (N2, "run.seed = -1", "run.seed"),
    (N2, "verify.tail_frac = 0.9", "verify.tail_frac"),
    (N2, "verify.tail_frac = 0.0", "verify.tail_frac"),
    (MS, "verify.tail_frac = -0.1", "verify.tail_frac"),
    (MS, "verify.tol_x = 0.0", "verify.tol_x"),
    (N2, "verify.tol_k = -1e-3", "verify.tol_k"),
    (N2, "verify.z_tail = 0.0", "verify.z_tail"),
    (MS, "verify.energy_slack = -1e-6", "verify.energy_slack"),
    (N2, "verify.budget_slack = 0.0", "verify.budget_slack"),
    (MS, "verify.k_monotone = -1e-12", "verify.k_monotone"),
    (MS, "verify.audit_samples = 0", "verify.audit_samples"),
    (N2, "sweep.x0_lo = 3.0, 3.0\nsweep.x0_hi = -3.0, -3.0", "sweep.x0_lo / sweep.x0_hi"),
    (N2, "sweep.x0_lo = -1.0, 2.0\nsweep.x0_hi = 1.0, 1.5", "sweep.x0_lo / sweep.x0_hi"),
]


@pytest.mark.parametrize("sid,line,key", REJECTED, ids=[line for _, line, _ in REJECTED])
def test_rejected_value_exits_2_naming_its_key(tmp_path, capsys, sid, line, key):
    cfg = write_cfg(tmp_path, "scenario.id = %s\n%s\n" % (sid, line))
    out = registry(tmp_path)
    for argv in (["run", "--config", cfg, "--out", out], ["verify", "--config", cfg]):
        assert main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: %s: " % key), err
    assert not os.path.exists(out)


# (config lines, the key the error names) of a time grid that does not fit
GRIDS = [
    ("integrator.T = 1.0\nintegrator.h = 0.3", "integrator.T"),
    ("integrator.T = 0.05\nintegrator.decimation = 100", "integrator.decimation"),
    ("integrator.T = 1.0\nintegrator.h = 0.1\nintegrator.decimation = 3",
     "integrator.decimation"),
]


@pytest.mark.parametrize("lines,key", GRIDS, ids=["T-h", "decimation-50", "decimation-3"])
def test_time_grid_error_names_its_key_before_running(tmp_path, capsys, lines, key):
    cfg = write_cfg(tmp_path, "scenario.id = numeric-2d\n%s\n" % lines)
    out = registry(tmp_path)
    for argv in (["run", "--config", cfg, "--out", out],
                 ["montecarlo", "--config", cfg, "--runs", "2", "--out", out]):
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: %s: " % key)
    assert not os.path.exists(out)


@pytest.mark.parametrize("how", ["line", "flag"])
def test_empty_run_out_exits_2(tmp_path, monkeypatch, capsys, how):
    text = "scenario.id = numeric-2d\nintegrator.T = 0.1\n"
    argv = ["run", "--config", write_cfg(tmp_path, text + "run.out =\n" * (how == "line"))]
    argv += ["--out", ""] * (how == "flag")
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: run.out: must not be empty")
    assert os.listdir(tmp_path) == ["case.cfg"]


def test_stored_config_the_library_rejects_exits_2(tmp_path, capsys):
    cfg = load_text("scenario.id = numeric-2d\nintegrator.T = 1.0\nintegrator.h = 0.3\n")
    out = registry(tmp_path)
    os.makedirs(os.path.join(out, cfg.run_id))
    Path(out, cfg.run_id, "config.cfg").write_text(cfg.canonical)
    for command in ("verify", "plot"):
        assert main([command, cfg.run_id, "--out", out]) == 2
        err = capsys.readouterr().err
        assert "config.cfg: integrator.T: T must be an integer multiple of h" in err


def test_internal_error_exits_4_with_one_line(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "scenario.id = stt-missile\nintegrator.T = 0.1\n")
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    assert main(["run", "--config", cfg, "--out", str(blocker / "runs")]) == 4
    captured = capsys.readouterr()
    assert captured.err.startswith("error: internal error: NotADirectoryError:")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


def test_interrupt_is_not_swallowed(short_cfg, monkeypatch):
    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr("purefb.scenarios.build", interrupted)
    with pytest.raises(KeyboardInterrupt):
        main(["run", "--config", short_cfg])


def test_mode_flag_switches_synthesis(short_cfg, tmp_path):
    out = registry(tmp_path)
    assert main(["run", "--config", short_cfg, "--out", out,
                 "--mode", "auto"]) == 0
    rid = only_run_id(out)
    stored = Path(out, rid, "config.cfg").read_text()
    assert "design.mode = auto" in stored


def test_mode_flag_rejected_for_missile(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "scenario.id = stt-missile\n")
    assert main(["run", "--config", cfg, "--mode", "auto"]) == 2
    assert "design.mode" in capsys.readouterr().err


def test_unknown_run_id_exits_2(tmp_path, capsys):
    out = registry(tmp_path)
    os.makedirs(out)
    assert main(["verify", "cafecafecafe", "--out", out]) == 2
    assert "no run" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["summary.json", "trajectory.csv", "trajectory.npy",
                                  "record.json", "config.cfg"])
def test_stored_run_missing_file_exits_2(short_cfg, tmp_path, capsys, name):
    out = registry(tmp_path)
    assert main(["run", "--config", short_cfg, "--out", out]) == 0
    rid = only_run_id(out)
    path = os.path.join(out, rid, name)
    os.remove(path)
    capsys.readouterr()
    for command in ("verify", "plot"):
        assert main([command, rid, "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.count(path) == 1 and "internal error" not in err, err


def _empty(lines):
    return []


def _header_only(lines):
    return lines[:1]


def _short_row(lines):
    return lines[:3] + [",".join(lines[3].split(",")[:3])] + lines[4:]


def _cut_columns(lines):
    return [",".join(line.split(",")[:3]) for line in lines]


def _renamed_column(lines):
    return [lines[0].replace("psi1", "foo")] + lines[1:]


@pytest.mark.parametrize("damage", [_empty, _header_only, _short_row, _cut_columns,
                                    _renamed_column],
                         ids=["empty-file", "header-only", "short-row", "cut-columns",
                              "renamed-column"])
def test_stored_header_only_csv_exits_2(short_cfg, tmp_path, capsys, damage):
    # the CSV is parsed only where no seal and no twin stand in for it
    out = registry(tmp_path)
    assert main(["run", "--config", short_cfg, "--out", out]) == 0
    rid = only_run_id(out)
    as_parent_run(os.path.join(out, rid))
    path = Path(out, rid, "trajectory.csv")
    # each kept line ends in a newline; no line leaves a 0-byte file
    path.write_text("".join(line + "\n" for line in damage(path.read_text().splitlines())))
    capsys.readouterr()
    for command in ("verify", "plot"):
        assert main([command, rid, "--out", out]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "trajectory.csv" in err[0], err


FAILURES = {"bad-failure": [1.0], "bool-t": [True, [1.0, 2.0]],
            "bool-component": [1.0, [1.0, False]]}


@pytest.mark.parametrize("edit", ["missing-key", "not-an-object", *FAILURES])
def test_stored_summary_missing_key_exits_2(short_cfg, tmp_path, capsys, edit):
    out = registry(tmp_path)
    assert main(["run", "--config", short_cfg, "--out", out]) == 0
    rid = only_run_id(out)
    path = os.path.join(out, rid, "summary.json")
    if edit in FAILURES:
        with open(path) as fh:
            summary = json.load(fh)
        summary["failure"] = FAILURES[edit]
        text = json.dumps(summary)
    else:
        text = "{}" if edit == "missing-key" else "[]"
    with open(path, "w") as fh:
        fh.write(text + "\n")
    reseal(os.path.join(out, rid))
    capsys.readouterr()
    for command in ("verify", "plot"):
        assert main([command, rid, "--out", out]) == 2
        err = capsys.readouterr().err
        assert "summary.json" in err and "internal error" not in err
        assert "seal" not in err


@pytest.mark.parametrize("text", [b"{bad\n", b"\xff\xfe{}\n"], ids=["json", "utf-8"])
def test_stored_summary_that_does_not_parse_exits_2(short_cfg, tmp_path, capsys, text):
    out = registry(tmp_path)
    assert main(["run", "--config", short_cfg, "--out", out]) == 0
    rid = only_run_id(out)
    path = Path(out, rid, "summary.json")
    path.write_bytes(text)
    reseal(os.path.join(out, rid))
    capsys.readouterr()
    for command in ("verify", "plot"):
        assert main([command, rid, "--out", out]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and str(path) in err[0] and "seal" not in err[0], err


def test_stored_config_that_does_not_parse_exits_2(short_cfg, tmp_path, capsys):
    out = registry(tmp_path)
    assert main(["run", "--config", short_cfg, "--out", out]) == 0
    rid = only_run_id(out)
    with open(os.path.join(out, rid, "config.cfg"), "a") as fh:
        fh.write("bogus\n")
    capsys.readouterr()
    for command in ("verify", "plot"):
        assert main([command, rid, "--out", out]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "config.cfg" in err[0] and "line 26" in err[0], err


def test_stored_config_that_is_not_utf8_exits_2(short_cfg, tmp_path, capsys):
    out = registry(tmp_path)
    assert main(["run", "--config", short_cfg, "--out", out]) == 0
    rid = only_run_id(out)
    path = os.path.join(out, rid, "config.cfg")
    with open(path, "ab") as fh:
        fh.write(b"# caf\xe9\n")
    capsys.readouterr()
    for command in ("verify", "plot"):
        assert main([command, rid, "--out", out]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "config.cfg" in err[0] and "utf-8" in err[0], err
        assert err[0].count(path) == 1, err


def test_mode_help_names_the_scenarios_that_take_design_mode(capsys):
    assert main(["run", "--help"]) == 0
    text = " ".join(capsys.readouterr().out.split())
    start = text.index("override design.mode")
    mode_help = text[start:text.index(")", start)]
    named = {sid for sid in scenarios.SCENARIO_IDS if sid in mode_help}
    assert named == set(configmod._APPLIES_TO["design.mode"]) != set()


@pytest.mark.parametrize("flag", [["--config", "/nonexistent.cfg"], ["--seed", "9"],
                                  ["--mode", "auto"]],
                         ids=["config", "seed", "mode"])
def test_verify_stored_run_rejects_run_flags(short_cfg, tmp_path, capsys, flag):
    out = registry(tmp_path)
    assert main(["run", "--config", short_cfg, "--out", out]) == 0
    rid = only_run_id(out)
    capsys.readouterr()
    assert main(["verify", rid, "--out", out, *flag]) == 2
    captured = capsys.readouterr()
    assert flag[0] in captured.err and "verdict" not in captured.out
    assert not os.path.exists(os.path.join(out, rid, "report.json"))


def test_stored_non_finite_cell_fails_bounded(tmp_path, capsys):
    """A stored run that passes, with one recorded u cell made nan, fails
    the bounded check, which names u and the time of that row.  The cell
    is edited in the CSV of a run stored without seals, which verify
    parses."""
    cfg = write_cfg(tmp_path, "scenario.id = stt-missile\n"
                              "verify.tol_x = 0.00175\n")
    out = registry(tmp_path)
    assert main(["run", "--config", cfg, "--out", out]) == 0
    rid = only_run_id(out)
    as_parent_run(os.path.join(out, rid))
    path = Path(out, rid, "trajectory.csv")
    lines = path.read_text().splitlines()
    cells = lines[3].split(",")
    cells[lines[0].split(",").index("u")] = "nan"
    lines[3] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["verify", rid, "--out", out]) == 1
    text = capsys.readouterr().out
    assert "[non-finite value in u]" in text and "verdict: FAIL" in text
    bounded = strict_json(os.path.join(out, rid, "report.json"))["invariants"]["checks"][0]
    assert bounded["name"] == "bounded" and not bounded["passed"]
    assert bounded["where"] == float(cells[0])


def test_stored_cell_beyond_the_abort_limit_fails_bounded_without_a_warning(tmp_path, capsys):
    """A finite z2 cell of 1e300 fails bounded; V = z^2 / 2 overflows in
    the budget, and no numpy warning reaches stderr.  The cell is edited as
    in the test above."""
    cfg = write_cfg(tmp_path, "scenario.id = numeric-2d\nintegrator.T = 5.0\n")
    out = registry(tmp_path)
    assert main(["run", "--config", cfg, "--out", out]) == 0
    rid = only_run_id(out)
    as_parent_run(os.path.join(out, rid))
    path = Path(out, rid, "trajectory.csv")
    lines = path.read_text().splitlines()
    cells = lines[5].split(",")
    cells[lines[0].split(",").index("z2")] = "1e300"
    lines[5] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["verify", rid, "--out", out]) == 1
    captured = capsys.readouterr()
    assert "Warning" not in captured.err
    assert "[largest recorded magnitude 1e+300 in z2]" in captured.out
    report = strict_json(os.path.join(out, rid, "report.json"))
    bounded = report["invariants"]["checks"][0]
    assert bounded["name"] == "bounded" and not bounded["passed"]
    assert report["budget"]["min_slack"] is None  # -inf, written as null


def replay(out, rid):
    """Exit codes of verify and plot on a stored run, its report and SVG bytes."""
    root = os.path.join(out, rid)
    codes = (main(["verify", rid, "--out", out]), main(["plot", rid, "--out", out]))
    written = sorted(Path(root, "plots").iterdir())
    return (codes, Path(root, "report.json").read_bytes(),
            [p.read_bytes() for p in written])


def earlier_meta(cfg):
    """The meta block that earlier writers stored for a numeric-2d run.

    It held the scenario's meta and the mode, theta, box, sign and dead
    zone, which config.cfg also fixes.
    """
    over = cfg.scenario_overrides()
    return dict(scenarios.build(cfg.sid, **over).meta,
                mode=over["mode"], theta=list(over["theta"]),
                theta_box=[list(edge) for edge in over["theta_box"]],
                sign=over["sign"], deadzone=over["deadzone"])


def write_earlier_summary_layout(root, layout):
    """Rewrite summary.json in an earlier layout.

    "five-key" held failure, meta, t_final, terminal and max_abs.  Before
    it, "repeated" repeated sid, h, seed, the divergence flag, the columns
    and the sample count beside failure and meta, and again, merged with
    meta, under stats.  The result is byte for byte the file the earlier
    writer left for the same run.
    """
    cfg = load_file(os.path.join(root, "config.cfg"))
    path = Path(root, "summary.json")
    summary = json.loads(path.read_text())
    meta = earlier_meta(cfg)
    if layout == "five-key":
        earlier = dict(summary, meta=meta)
    else:
        lines = Path(root, "trajectory.csv").read_text().splitlines()
        meta.update(scenario=cfg.sid,
                    alpha_psi_power=[1, 1] if meta["mode"] == "paper" else [2, 2])
        common = {"h": cfg["integrator.h"], "seed": cfg.seed,
                  "samples": len(lines) - 1,
                  "diverged": summary["failure"] is not None}
        stats = {**common, "t_final": summary["t_final"],
                 "terminal": summary["terminal"], "max_abs": summary["max_abs"],
                 **meta}
        if summary["failure"] is not None:
            stats["failure_t"] = summary["failure"][0]
        earlier = dict(common, sid=cfg.sid, columns=lines[0].split(","),
                       failure=summary["failure"], meta=meta, stats=stats)
    path.write_text(json.dumps(earlier, indent=2, sort_keys=True) + "\n")


@pytest.mark.parametrize("extra,code", [("", 1), ("design.sign_flip = true\n", 3)],
                         ids=["clean", "sign-flip"])
def test_earlier_summary_layout_verifies_and_plots_the_same(tmp_path, capsys,
                                                            extra, code):
    cfg = write_cfg(tmp_path, SHORT + extra)
    out = registry(tmp_path)
    main(["run", "--config", cfg, "--out", out])
    rid = only_run_id(out)
    want = replay(out, rid)
    assert want[0] == (code, 0)
    # the writers of the earlier layouts sealed nothing
    as_parent_run(os.path.join(out, rid))
    for layout in ("five-key", "repeated"):
        write_earlier_summary_layout(os.path.join(out, rid), layout)
        assert replay(out, rid) == want, layout
    assert "internal error" not in capsys.readouterr().err


def test_stored_meta_does_not_change_the_verdict(tmp_path):
    # a config.cfg that is not touched fixes gamma and the column groups;
    # a summary.json that states others is not read
    cfg = write_cfg(tmp_path, "scenario.id = numeric-2d\nintegrator.T = 20.0\n")
    out = registry(tmp_path)
    assert main(["run", "--config", cfg, "--out", out]) == 0
    rid = only_run_id(out)
    want = replay(out, rid)
    assert want[0] == (0, 0)
    path = Path(out, rid, "summary.json")
    summary = json.loads(path.read_text())
    summary["meta"] = dict(earlier_meta(load_file(cfg)), gamma=[50.0, 50.0],
                           x_cols=["x1"])
    path.write_text(json.dumps(summary))
    reseal(os.path.join(out, rid))
    assert replay(out, rid) == want


def as_parent_run(root):
    """Rewrite a stored run as writers before the seals left it: no
    trajectory.npy, and a record.json without seals, byte for byte."""
    path = Path(root, "record.json")
    record = json.loads(path.read_text())
    del record["sha256"]
    record["files"].remove("trajectory.npy")
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    os.remove(os.path.join(root, "trajectory.npy"))


def reseal(root):
    """Seal a stored run's files as they are now, as save_run would."""
    path = Path(root, "record.json")
    record = json.loads(path.read_text())
    record["sha256"] = {name: hashlib.sha256(Path(root, name).read_bytes()).hexdigest()
                        for name in record["sha256"]}
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")


def _changed_digit(root):
    path = Path(root, "trajectory.csv")
    lines = path.read_text().splitlines()
    last = lines[5][-1]
    assert last.isdigit()
    lines[5] = lines[5][:-1] + ("1" if last != "1" else "2")
    path.write_text("\n".join(lines) + "\n")


def _flipped_byte(root):
    path = Path(root, "trajectory.npy")
    raw = bytearray(path.read_bytes())
    raw[-3] ^= 0x01
    path.write_bytes(bytes(raw))


def _edited_summary(root):
    path = Path(root, "summary.json")
    path.write_text(path.read_text().replace('"t_final": 2.0', '"t_final": 3.0'))


def _deleted_twin(root):
    os.remove(os.path.join(root, "trajectory.npy"))


@pytest.mark.parametrize("tamper,name", [(_changed_digit, "trajectory.csv"),
                                         (_flipped_byte, "trajectory.npy"),
                                         (_edited_summary, "summary.json"),
                                         (_deleted_twin, "trajectory.npy")],
                         ids=["csv-digit", "npy-byte", "summary", "no-twin"])
def test_broken_seal_exits_2_naming_the_file(short_cfg, tmp_path, capsys, tamper, name):
    out = registry(tmp_path)
    assert main(["run", "--config", short_cfg, "--out", out]) == 0
    rid = only_run_id(out)
    root = os.path.join(out, rid)
    before = Path(root, "record.json").read_bytes()
    tamper(root)
    assert Path(root, "record.json").read_bytes() == before
    capsys.readouterr()
    for command in ("verify", "plot"):
        assert main([command, rid, "--out", out]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and os.path.join(root, name) in err[0], err
        assert "internal error" not in err[0]
    assert not os.path.exists(os.path.join(root, "report.json"))


@pytest.mark.parametrize("table", [
    lambda data: data.astype(np.float32),
    lambda data: data[:, :-1],
    lambda data: data[:, 0],
    lambda data: data[::-1],
    lambda data: data[:0],
], ids=["float32", "one-column-short", "1-d", "time-reversed", "no-rows"])
def test_resealed_twin_must_be_the_recorded_table(short_cfg, tmp_path, capsys, table):
    out = registry(tmp_path)
    assert main(["run", "--config", short_cfg, "--out", out]) == 0
    rid = only_run_id(out)
    root = os.path.join(out, rid)
    twin = os.path.join(root, "trajectory.npy")
    np.save(twin, table(np.load(twin)), allow_pickle=False)
    reseal(root)
    capsys.readouterr()
    for command in ("verify", "plot"):
        assert main([command, rid, "--out", out]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: %s: " % twin), err


@pytest.mark.parametrize("text,codes", [(SHORT, (1, 0)),
                                        (SHORT + "design.sign_flip = true\n", (3, 0)),
                                        ("scenario.id = stt-missile\nintegrator.T = 2.0\n",
                                         (1, 0))],
                         ids=["numeric-2d", "sign-flip", "stt-missile"])
def test_run_stored_without_seals_verifies_and_plots_the_same(tmp_path, text, codes):
    """A run stored before the seals has no twin: its table is parsed from
    trajectory.csv, and its report and charts are those of a sealed run."""
    cfg = write_cfg(tmp_path, text)
    out = registry(tmp_path)
    main(["run", "--config", cfg, "--out", out])
    rid = only_run_id(out)
    want = replay(out, rid)
    assert want[0] == codes
    as_parent_run(os.path.join(out, rid))
    assert replay(out, rid) == want


def test_montecarlo_aggregate(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path,
        "scenario.id = numeric-2d\n"
        "integrator.T = 40.0\n"
        "uncertainty.box_lo = 0.8, 1.6\n"
        "uncertainty.box_hi = 1.2, 2.4\n",
    )
    out = registry(tmp_path)
    assert main(["montecarlo", "--config", cfg, "--runs", "2",
                 "--out", out, "--seed", "9"]) == 0
    text = capsys.readouterr().out
    assert "2/2 passed" in text
    rid = only_run_id(out)
    assert os.path.isfile(os.path.join(out, rid, "aggregate-mc-m2-s9.json"))


def test_montecarlo_usage_errors(tmp_path, capsys):
    missile = write_cfg(tmp_path, "scenario.id = stt-missile\n", "m.cfg")
    assert main(["montecarlo", "--config", missile, "--runs", "2"]) == 2
    two = write_cfg(tmp_path, SHORT, "n.cfg")
    assert main(["montecarlo", "--config", two, "--runs", "0"]) == 2


def test_plot_rerenders_identically(short_cfg, tmp_path):
    out = registry(tmp_path)
    assert main(["run", "--config", short_cfg, "--out", out]) == 0
    rid = only_run_id(out)
    states = Path(out, rid, "plots", "states.svg")
    first = states.read_bytes()
    states.unlink()
    assert main(["plot", rid, "--out", out]) == 0
    assert states.read_bytes() == first


def test_usage_error_without_subcommand(capsys):
    assert main([]) == 2
    capsys.readouterr()
    # verify needs a stored run id or a config file
    assert main(["verify"]) == 2
    assert "--config" in capsys.readouterr().err


N2_5S = "scenario.id = numeric-2d\nintegrator.T = 5.0\n"
MS_2S = "scenario.id = stt-missile\nintegrator.T = 2.0\n"

# SHA-256 of the files `run` and `verify <id>` write.  The numeric-2d
# digests, at T = 5 s, were recorded at the commit before Scenario assembled
# the closed loop.  numeric-2d's arithmetic is + - * / and sqrt, which IEEE
# 754 rounds the same way on every machine.  The sign-flipped run's
# report.json is not pinned: its -Infinity margin is now written as null.
# The stt-missile digests, at T = 2 s, were recorded at the commit before
# the config schema read its defaults from the library keywords; its flight
# condition also goes through the platform's cos and sin.
GOLDEN = {
    "paper": (N2_5S, (0, 1), {
        "trajectory.csv": "174790d398c80a76749a2c608bfed8603e4171e4d4e45c79f2d3fcf6e2c4d3e2",
        "summary.json": "15af3c2f7a4eec67cad6c0c181b22cc8f2760c01dedda8e2f95a7c28a467ce2a",
        "report.json": "9fc4a3ab736384de9f73097ec2318284449fcb24e367ee50eca8cad2efc8812a",
    }),
    "auto": (N2_5S + "design.mode = auto\nverify.audit_samples = 500\n", (0, 1), {
        "trajectory.csv": "763502e88dae9174f1c0b2496f7705bb7e29bb32c80d46c18495e047672605d4",
        "summary.json": "7d77d94dfbbb272c405bdcf0b315dc00f6aec26b7e1a5841f9e5c9ac7c5c31d4",
        "report.json": "6a9cb52bff0a5a13c9635bcafc9a765cbe7282ab4b5c2bed6e23afca80355e47",
    }),
    "deadzone": (N2_5S + "design.deadzone = 0.01\n", (0, 1), {
        "trajectory.csv": "5ed13146e145876147f0f3a5c20bc93755da2e16e86773a78d10289dcc0d6b87",
        "summary.json": "0637a499fbd1b2e74b035d98af0de95958a95eb2c5d8085781f7f965b09747c8",
        "report.json": "ec0719def77e7900c18aeb6362250a3fb95a470032fad828c76c01eb31214b0c",
    }),
    "sign-flip": (N2_5S + "design.sign_flip = true\n", (3, 3), {
        "trajectory.csv": "8643167030a5a7f5785291e4ad562813c97b9213c000d1588e1fdd7b592b030b",
        "summary.json": "6466de659240b5f6ec74484a439fc8935185e02b913e8ad5739d1ba80aa54ea7",
    }),
    # the first step fails, so no step is compiled: beyond the abort limit
    # at t = 0.001, and not finite at t = 0
    "auto-sign-flip": (N2_5S + "design.mode = auto\ndesign.sign_flip = true\n", (3, 3), {
        "trajectory.csv": "8567e6013713d71feb9957ad7ca866ed7863208cfeb327167bc68b15caf7b8b7",
        "summary.json": "370d5eda908ded62b659c4d97d1ddd0c920b89498fb9c3aca5e523e5d334ee6a",
    }),
    "far-x0": (N2_5S + "init.x0 = 10.0, -10.0\n", (3, 3), {
        "trajectory.csv": "f6f357e27a0782633c2b1db5db8e45a46624a46b582047ebce3ed1e71789c47b",
        "summary.json": "56a7e090a15ede3b11eb747318a2b6c6f382872f7c33672806d69834bca7beb5",
    }),
    "missile": (MS_2S, (0, 1), {
        "trajectory.csv": "9840602c195daeae31f41e4a0f995c3c44c50483434215359d23bf4870475117",
        "summary.json": "affe997d76e0a519363374a7a33f0f59e01678ad91501615a955f7dadf9041c0",
        "report.json": "c1bed7855db43274b4f6ee21dec03e1ea9178c37a2cf1d85b77c5d0a7c1882e2",
    }),
    "missile-sign-flip": (MS_2S + "design.sign_flip = true\n"
                          "integrator.decimation = 1\n", (3, 3), {
        "trajectory.csv": "826cb7a036fc58c2d2c636c9265ec2cec7a4a915612ecf6083480bf659c3fd2c",
        "summary.json": "adb14dd5e08eb07f99fb3e77ca6d24f98c232f72eee50cd5eb21a04f2760fc06",
        "report.json": "907488e64aaf549237afa98008a131d2bf326649beadf8f3ea54611e2452de48",
    }),
}


@pytest.mark.parametrize("case", list(GOLDEN))
def test_run_and_verify_write_the_recorded_bytes(tmp_path, case):
    text, codes, digests = GOLDEN[case]
    cfg = write_cfg(tmp_path, text)
    out = registry(tmp_path)
    assert main(["run", "--config", cfg, "--out", out]) == codes[0]
    rid = only_run_id(out)
    assert main(["verify", rid, "--out", out]) == codes[1]
    for name, digest in digests.items():
        assert hashlib.sha256(Path(out, rid, name).read_bytes()).hexdigest() == digest, name
