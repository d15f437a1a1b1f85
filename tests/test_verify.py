"""Stability monitors: invariant checks, energy budget, dominance audit."""

import json

import pytest

from purefb import scenarios
from purefb.verify import (
    VerifyTolerances,
    check_theorem1,
    dominance_audit,
    lyapunov_budget,
    monte_carlo,
)

CHECK_NAMES = (
    "bounded",
    "state-tail",
    "gain-monotone",
    "gain-settled",
    "error-energy",
    "error-tail-flat",
)


def test_nominal_run_passes_all_invariants(paper_run):
    traj, _ = paper_run
    report = check_theorem1(traj)
    assert report.applicable and not report.diverged
    assert tuple(c.name for c in report.checks) == CHECK_NAMES
    assert report.passed
    assert report.failed_names() == []
    for c in report.checks:
        assert c.margin >= 0.0, c.name


def test_equilibrium_run_passes_trivially():
    traj = scenarios.build("numeric-2d", x0=(0.0, 0.0), T=10.0).run()
    report = check_theorem1(traj)
    assert report.passed


def test_sign_flipped_controller_fails():
    """Destabilized loop: divergence is flagged and the report fails."""
    traj = scenarios.build("numeric-2d", sign=-1.0).run()
    assert traj.diverged
    report = check_theorem1(traj)
    assert not report.applicable
    assert not report.passed
    assert report.failed_names() == ["complete"]


def test_missing_metadata_is_an_error(paper_run):
    traj, _ = paper_run
    clone = type(traj)(
        sid=traj.sid, columns=traj.columns, data=traj.data, h=traj.h
    )
    with pytest.raises(ValueError, match="x_cols"):
        check_theorem1(clone)


def test_tight_tolerance_fails_cleanly(paper_run):
    traj, _ = paper_run
    report = check_theorem1(traj, VerifyTolerances(tol_x=1e-45))
    assert not report.passed
    assert "state-tail" in report.failed_names()


# ------------------------------------------------------------------ budget


def test_energy_budget_holds_on_nominal_run(paper_run):
    traj, _ = paper_run
    oracle = scenarios.build("numeric-2d").oracle
    report = lyapunov_budget(traj, oracle)
    assert report.applicable
    assert report.passed
    assert report.epsilon == 9.0
    assert report.min_slack >= 0.0


def test_energy_budget_detects_wrong_adaptation_rates(paper_run):
    """Inflated gamma breaks the anchored offset right at the start."""
    traj, _ = paper_run
    oracle = scenarios.build("numeric-2d").oracle
    report = lyapunov_budget(traj, oracle, gamma=(2.0, 2.0))
    assert report.applicable
    assert not report.passed
    assert report.min_slack < -1.0
    assert report.where == 0.0


def test_energy_budget_holds_in_auto_mode(auto_run):
    traj, _ = auto_run
    oracle = scenarios.build("numeric-2d").oracle
    report = lyapunov_budget(traj, oracle)
    assert report.applicable and report.passed


def test_energy_budget_not_applicable_without_full_adaptation(missile_run):
    # the roll design keeps its first-stage gain fixed
    traj, _ = missile_run
    oracle = scenarios.build("numeric-2d").oracle
    report = lyapunov_budget(traj, oracle)
    assert not report.applicable
    assert not report.passed


# --------------------------------------------------------------- dominance


def test_dominance_audit_clean(auto_scenario):
    report = dominance_audit(
        auto_scenario.stack, auto_scenario.bounds, auto_scenario.oracle,
        stage=2, samples=2000, seed=5,
    )
    assert report.samples == 2000
    assert report.violations == 0
    assert report.passed
    assert report.min_slack > 0.0
    assert report.vartheta == 2.0


def test_dominance_audit_negative_control(auto_scenario):
    """vartheta = 0 removes the right-hand side; nonzero z must violate."""
    report = dominance_audit(
        auto_scenario.stack, auto_scenario.bounds, auto_scenario.oracle,
        stage=2, samples=200, seed=5, vartheta=0.0,
    )
    assert report.violations == 200
    assert not report.passed


def test_dominance_audit_trivial_at_zero_error(auto_scenario):
    report = dominance_audit(
        auto_scenario.stack, auto_scenario.bounds, auto_scenario.oracle,
        stage=2, samples=50, seed=5, z_box=(0.0, 0.0),
    )
    assert report.violations == 0


def test_dominance_audit_guards(auto_scenario, paper_scenario):
    with pytest.raises(ValueError, match="stage 2"):
        dominance_audit(
            auto_scenario.stack, auto_scenario.bounds, auto_scenario.oracle,
            stage=1,
        )
    with pytest.raises(ValueError, match="auto"):
        dominance_audit(
            paper_scenario.stack, auto_scenario.bounds, auto_scenario.oracle,
            stage=2,
        )


# ------------------------------------------------------------- monte carlo


def test_monte_carlo_requires_runs():
    with pytest.raises(ValueError):
        monte_carlo("numeric-2d", 0, 1, x0_box=((-1.0, 1.0), (-1.0, 1.0)))


def test_monte_carlo_runs_in_one_process():
    with pytest.raises(ValueError, match="workers"):
        monte_carlo("numeric-2d", 1, 1, x0_box=((-1.0, 1.0), (-1.0, 1.0)),
                    workers=2)


def test_monte_carlo_deterministic_aggregate():
    kwargs = dict(
        x0_box=((-3.0, 3.0), (-3.0, 3.0)),
        theta_box=((0.8, 1.2), (1.6, 2.4)),
        overrides={"theta_box": ((0.8, 1.2), (1.6, 2.4)), "T": 40.0},
    )
    a = monte_carlo("numeric-2d", 3, 17, **kwargs)
    b = monte_carlo("numeric-2d", 3, 17, **kwargs)
    assert a.runs == 3 and a.passes == 3
    assert a.all_passed
    assert a.to_dict() == b.to_dict()
    # different seed -> different draws
    c = monte_carlo("numeric-2d", 3, 18, **kwargs)
    assert c.to_dict() != a.to_dict()


def test_monte_carlo_seed_prefix_property():
    """The first draws of a longer sweep replay a shorter one exactly."""
    kwargs = dict(
        x0_box=((-2.0, 2.0), (-2.0, 2.0)),
        theta_box=((0.8, 1.2), (1.6, 2.4)),
        overrides={"theta_box": ((0.8, 1.2), (1.6, 2.4)), "T": 40.0},
    )
    small = monte_carlo("numeric-2d", 2, 4, **kwargs)
    larger = monte_carlo("numeric-2d", 4, 4, **kwargs)
    assert larger.results[:2] == small.results


# ------------------------------------------------------------- JSON layout

CHECK_KEYS = {"name", "passed", "margin", "where", "detail"}
INVARIANT_KEYS = {"scenario", "applicable", "diverged", "passed", "detail", "checks"}
BUDGET_KEYS = {"scenario", "applicable", "passed", "min_slack", "where",
               "epsilon", "detail"}
AUDIT_KEYS = {"stage", "samples", "violations", "min_slack", "vartheta",
              "worst", "passed"}
MC_KEYS = {"scenario", "runs", "passes", "seed", "all_passed", "results"}
MC_RUN_KEYS = {"overrides", "diverged", "passed", "failed", "tail_sup_x"}


def test_report_json_layout(auto_scenario):
    """Every report's to_dict() keeps the key set report.json is read by."""
    good = scenarios.build("numeric-2d", T=2.0).run()
    bad = scenarios.build("numeric-2d", sign=-1.0, T=2.0).run()
    assert bad.diverged
    oracle = scenarios.build("numeric-2d").oracle
    layouts = []
    for traj in (good, bad):
        inv = check_theorem1(traj).to_dict()
        assert set(inv) == INVARIANT_KEYS
        assert inv["scenario"] == "numeric-2d"
        assert all(set(c) == CHECK_KEYS for c in inv["checks"])
        assert set(lyapunov_budget(traj, oracle).to_dict()) == BUDGET_KEYS
        layouts.append(inv)
    audit = dominance_audit(
        auto_scenario.stack, auto_scenario.bounds, auto_scenario.oracle,
        stage=2, samples=3, seed=5,
    ).to_dict()
    assert set(audit) == AUDIT_KEYS
    assert set(audit["worst"]) == {"z", "k", "lhs", "rhs", "sample"}
    mc = monte_carlo("numeric-2d", 1, 3, x0_box=((-1.0, 1.0), (-1.0, 1.0)),
                     overrides={"T": 2.0}).to_dict()
    assert set(mc) == MC_KEYS
    assert mc["scenario"] == "numeric-2d"
    assert [set(r) for r in mc["results"]] == [MC_RUN_KEYS]
    for d in (*layouts, audit, mc):
        json.dumps(d, sort_keys=True)
        assert type(d["passed" if "passed" in d else "all_passed"]) is bool
    for c in (c for inv in layouts for c in inv["checks"]):
        assert type(c["passed"]) is bool and type(c["margin"]) is float
        assert c["where"] is None or type(c["where"]) is float
