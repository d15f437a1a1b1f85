"""Stability monitors: invariant checks, energy budget, dominance audit."""

import dataclasses
import hashlib
import json
import os
from types import SimpleNamespace

import numpy as np
import pytest

from purefb import scenarios, verify
from purefb.plant import OracleConstants
from purefb.config import load_file
from purefb.simkit import ABORT_LIMIT, Trajectory
from purefb.tape import compile_lanes
from purefb.verify import (
    AuditReport,
    BudgetReport,
    CheckResult,
    InvariantReport,
    MonteCarloReport,
    VerifyTolerances,
    _audit_sample,
    check_theorem1,
    dominance_audit,
    lyapunov_budget,
    monte_carlo,
)

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

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


def test_non_finite_cell_fails_bounded_naming_its_column_and_time():
    traj = scenarios.build("numeric-2d", T=5.0).run()
    traj.data[7, traj.columns.index("u")] = np.nan
    bounded = check_theorem1(traj).checks[0]
    assert (bounded.name, bounded.passed, bounded.margin) == ("bounded", False, float("-inf"))
    assert bounded.detail == "non-finite value in u" and bounded.where == traj.t[7]
    # the first non-finite sample in time is named, whatever its column
    traj.data[3, traj.columns.index("k2")] = np.inf
    bounded = check_theorem1(traj).checks[0]
    assert bounded.detail == "non-finite value in k2" and bounded.where == traj.t[3]


def test_finite_cell_beyond_the_abort_limit_fails_bounded():
    traj = scenarios.build("numeric-2d", T=5.0).run()
    traj.data[40, traj.columns.index("z2")] = 1e300
    bounded = check_theorem1(traj).checks[0]
    assert (bounded.name, bounded.passed, bounded.margin) == ("bounded", False, ABORT_LIMIT - 1e300)
    assert bounded.detail == "largest recorded magnitude 1e+300 in z2" and bounded.where is None
    # V = z^2 / 2 overflows in that row: the budget reads -inf there, without a warning
    budget = lyapunov_budget(traj, scenarios.build("numeric-2d").oracle)
    assert (budget.min_slack, budget.where) == (float("-inf"), traj.t[40])


HAND_NAMES = ("x1", "x2", "z1", "z2", "k1", "k2", "u", "intz1", "intz2")


def hand_table(**cols):
    """A two-stage trajectory over t = 0, 1, 2, 3, 4 with the column
    grouping of a numeric-2d run; a column not given is all zeros."""
    data = np.column_stack([np.arange(5.0)] + [cols.get(name, [0.0] * 5) for name in HAND_NAMES])
    meta = {"x_cols": ["x1", "x2"], "z_cols": ["z1", "z2"], "k_cols": ["k1", "k2"],
            "intz_cols": ["intz1", "intz2"], "gamma": [1.0, 0.5], "mu": [1.0, 0.5],
            "n": 2, "adaptive": [1, 2]}
    return Trajectory(sid="hand", columns=("t", *HAND_NAMES), data=data, h=1.0, meta=meta)


def test_monitor_edge_rules_on_a_hand_table():
    """Ties go to the first column, then the first row; a NaN is never the
    minimum or the maximum.  With tail_frac 0.25 the tail starts at t = 3
    and the window before it at t = 2."""
    nan = float("nan")
    tol = VerifyTolerances(tail_frac=0.25)
    cols = dict(
        x1=[1.0, 0.5, 0.25, 0.0, 0.0],
        x2=[-2.0, 1.0, 0.5, 0.125, -0.0625],
        u=[0.0, 0.0, -3.0, 0.0, 0.0],
        # decrements: k1 1, -0.5, 0.5, 1 and k2 -0.5, 0.5, 0, 0.25
        k1=[1.0, 2.0, 1.5, 2.0, 3.0],
        k2=[1.0, 0.5, 1.0, 1.0, 1.25],
        intz1=[0.0, 1.0, 2.0, 2.5, 2.75],
        intz2=[0.0, 0.5, 1.0, 1.0, 1.0],
    )
    checks = {c.name: c for c in check_theorem1(hand_table(**cols), tol).checks}
    # |u| = 3 at t = 2 ties |k1| = 3 at t = 4: the earlier column is named
    assert checks["bounded"].detail == "largest recorded magnitude 3 in k1"
    assert (checks["bounded"].passed, checks["bounded"].margin) == (True, ABORT_LIMIT - 3.0)
    assert checks["state-tail"].margin == tol.tol_x - 0.125
    # the equal worst decrements -0.5: k1's at t = 2 wins over k2's at t = 1
    assert (checks["gain-monotone"].margin, checks["gain-monotone"].where) == (
        -0.5 + tol.k_monotone, 2.0)
    assert checks["gain-settled"].margin == tol.tol_k - 1.0  # k1: 3 - 2
    # gamma * int: 2.75 and 0.5 against k(T) - k(0): 2 and 0.25
    assert checks["error-energy"].margin == 2.0 + tol.energy_slack * 2.0 - 2.75
    assert checks["error-energy"].detail == (
        "intz1: gamma*int=2.75 dk=2; intz2: gamma*int=0.5 dk=0.25")
    # intz1 grows 0.25 in the tail, 0.5 before it; intz2 is flat
    assert not checks["error-tail-flat"].passed
    assert checks["error-tail-flat"].margin == tol.z_tail - 0.25

    cols["k1"][3] = nan  # k1's decrements 0.5 and 1 become NaN, as does its tail change
    cols["intz1"][4] = nan  # so do intz1's energy and tail increment
    checks = {c.name: c for c in check_theorem1(hand_table(**cols), tol).checks}
    assert (checks["bounded"].detail, checks["bounded"].where) == ("non-finite value in k1", 3.0)
    # a column holding a NaN decrement is passed over whole: -0.5 in k1 is not taken
    assert (checks["gain-monotone"].margin, checks["gain-monotone"].where) == (
        -0.5 + tol.k_monotone, 1.0)
    assert checks["gain-settled"].margin == tol.tol_k - 0.25  # k2: 1.25 - 1
    assert checks["error-energy"].margin == 0.25 + tol.energy_slack - 0.5
    assert checks["error-energy"].detail.startswith("intz1: gamma*int=nan dk=2;")
    assert checks["error-tail-flat"].passed
    assert checks["error-tail-flat"].margin == 1e-9  # intz2: 0 + 1e-9 - 0

    # a finite cell beyond the abort limit fails; one at the limit passes
    for cell, passed in ((2.0 * ABORT_LIMIT, False), (ABORT_LIMIT, True)):
        bounded = check_theorem1(hand_table(u=[0.0, cell, 0.0, 0.0, 0.0]), tol).checks[0]
        assert (bounded.passed, bounded.margin) == (passed, ABORT_LIMIT - cell)
        assert bounded.detail == "largest recorded magnitude %.6g in u" % cell


def test_budget_slack_is_the_first_minimum_on_a_hand_table():
    """b = 1 and mu = gamma give the bound -(k1^2 + k2^2) / 2 with epsilon 0,
    constant at gains held at 1, so each row's slack is budget_slack - V."""
    oracle = SimpleNamespace(b=(1.0, 1.0), epsilon=lambda: 0.0)
    ones = [1.0] * 5

    def budget(z1):
        return lyapunov_budget(hand_table(z1=z1, k1=ones, k2=ones), oracle, slack=0.0)

    # V = 2 at t = 1 and t = 3: the first row is reported
    report = budget([0.0, 2.0, 1.0, 2.0, 0.0])
    assert (report.min_slack, report.where, report.passed) == (-2.0, 1.0, False)
    # a NaN z cell makes its row's slack NaN, which reads as -inf and fails
    report = budget([0.0, 2.0, 1.0, float("nan"), 0.0])
    assert (report.min_slack, report.where, report.passed) == (float("-inf"), 3.0, False)
    # a NaN at t = 0 makes every slack NaN: the first row fails it
    report = budget([float("nan"), 2.0, 1.0, 2.0, 0.0])
    assert (report.min_slack, report.where, report.passed) == (float("-inf"), 0.0, False)


@pytest.mark.parametrize("name,value", [
    ("tail_frac", 0.0), ("tail_frac", -0.1), ("tail_frac", 0.6), ("tail_frac", 1.0),
    ("tol_x", 0.0), ("tol_k", -1e-3), ("z_tail", 0.0), ("energy_slack", -1e-6),
    ("budget_slack", 0.0), ("k_monotone", -1e-12), ("tol_x", float("nan")),
    ("tail_frac", float("nan")), ("k_monotone", float("nan")),
    # an infinite tolerance would make a margin inf - inf
    ("tol_x", float("inf")), ("k_monotone", float("inf")), ("tol_k", float("inf")),
    # not a real number, or a bool: rejected before the value rule
    ("tol_x", None), ("tol_x", "0.1"), ("tail_frac", None), ("k_monotone", True),
])
def test_tolerances_reject_a_value_naming_the_field(name, value):
    with pytest.raises(ValueError, match="^%s must " % name):
        VerifyTolerances(**{name: value})


def test_tolerances_store_their_fields_as_floats():
    tol = VerifyTolerances(tol_x=1, tol_k=np.float32(0.5), tail_frac=np.float64(0.25))
    assert [type(v) for v in tol.to_dict().values()] == [float] * 7
    assert (tol.tol_x, tol.tol_k, tol.tail_frac) == (1.0, 0.5, 0.25)
    json.dumps(tol.to_dict())


def test_every_verdict_and_count_is_derived():
    """No report takes a verdict or a count: a check passes when its margin
    is >= 0, so a NaN margin fails, and a sweep counts its results."""
    derived = {cls: {f.name for f in dataclasses.fields(cls) if not f.init} for cls in
               (CheckResult, InvariantReport, AuditReport, BudgetReport, MonteCarloReport)}
    assert derived == {CheckResult: {"passed"}, InvariantReport: {"applicable", "passed"},
                       AuditReport: {"passed"}, BudgetReport: {"passed"},
                       MonteCarloReport: {"runs", "passes", "all_passed"}}
    margins = (0.0, -0.0, 5e-324, -5e-324, float("inf"), float("-inf"), float("nan"))
    assert [CheckResult("c", m).passed for m in margins] == [True, True, True, False, True,
                                                            False, False]
    report = InvariantReport("s", True, [CheckResult("c", 1.0)])
    assert (report.applicable, report.passed) == (False, False)
    sweep = MonteCarloReport("s", 0, [{"passed": True}, {"passed": False}, {"passed": True}])
    assert (sweep.runs, sweep.passes, sweep.all_passed) == (3, 2, False)


def test_tolerances_accept_their_edges():
    tol = VerifyTolerances(tail_frac=0.5, k_monotone=0.0)
    assert (tol.tail_frac, tol.k_monotone) == (0.5, 0.0)


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


def test_energy_budget_detects_inflated_errors(paper_run):
    """Errors 100x larger than the run's after t = 0 exceed the budget."""
    traj, _ = paper_run
    oracle = scenarios.build("numeric-2d").oracle
    data = traj.data.copy()
    for name in traj.meta["z_cols"]:
        data[1:, traj.columns.index(name)] *= 100.0
    tampered = dataclasses.replace(traj, data=data)
    report = lyapunov_budget(tampered, oracle)
    assert report.applicable
    assert not report.passed
    assert report.min_slack < -1.0
    assert report.where > 0.0
    assert lyapunov_budget(traj, oracle).passed


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


@pytest.mark.parametrize("stage", [3, 7])
def test_dominance_audit_stage_lies_in_the_stack(auto_scenario, stage):
    with pytest.raises(ValueError, match="stack's 2 stages"):
        dominance_audit(
            auto_scenario.stack, auto_scenario.bounds, auto_scenario.oracle,
            stage=stage, samples=10,
        )


@pytest.mark.parametrize("samples", [0, -5])
def test_dominance_audit_needs_a_sample(auto_scenario, samples):
    with pytest.raises(ValueError, match="sample"):
        dominance_audit(
            auto_scenario.stack, auto_scenario.bounds, auto_scenario.oracle,
            stage=2, samples=samples,
        )


@pytest.mark.parametrize("box", [{"z_box": (-1e150, 1e150)}, {"k_box": (0.01, 1e150)}],
                         ids=["z", "k"])
def test_dominance_audit_fails_on_a_nan_slack(auto_scenario, box):
    """Draws this wide make every slack NaN (inf - inf): it reads as -inf,
    so each sample violates and the first is the worst."""
    scn = auto_scenario
    report = dominance_audit(scn.stack, scn.bounds, scn.oracle, stage=2, samples=1000, **box)
    assert (report.violations, report.min_slack, report.passed) == (1000, float("-inf"), False)
    assert report.worst["sample"] == 0


# keywords the monitors reject by name before they run, and each message
NAN, INF = float("nan"), float("inf")
BAD_AUDIT_KEYWORDS = [
    ({"samples": 2.5}, "samples must be a whole number"),
    ({"samples": 0}, "samples must be positive: the audit needs at least one sample, got 0$"),
    ({"stage": 2.5}, "stage must be a whole number"),
    ({"stage": 1}, "stage must be at least 2: the dominance construction starts at stage 2, "
                   "got 1$"),
    ({"seed": "1"}, "seed must be a whole number"),
    ({"seed": -1}, "seed must be non-negative, got -1"),
    ({"theta_box": 5}, r"theta_box must be a sequence of \(lo, hi\) pairs"),
    ({"theta_box": "ab"}, r"theta_box must be a sequence of \(lo, hi\) pairs"),
    ({"theta_box": ((1,),)}, r"theta_box\[1\] must be a \(lo, hi\) pair"),
    ({"theta_box": ((0.8, 1.2), (2.4, 1.6))}, r"theta_box\[2\] must have lo <= hi"),
    ({"z_box": (0.0,)}, r"z_box must be a \(lo, hi\) pair"),
    ({"z_box": (-INF, 5.0)}, r"z_box\[1\] must be finite, got -inf"),
    ({"k_box": (10.0, 0.01)}, "k_box must have lo <= hi"),
    ({"k_box": (0.01, NAN)}, r"k_box\[2\] must be finite, got nan"),
    ({"vartheta": NAN}, "vartheta must be finite"),
    ({"vartheta": INF}, "vartheta must be finite"),
    ({"vartheta": "2"}, "vartheta must be a real number"),
]


@pytest.mark.parametrize("kwargs, message", BAD_AUDIT_KEYWORDS, ids=[
    "samples-2.5", "samples-0", "stage-2.5", "stage-1", "seed-str", "seed-negative", "theta_box-int", "theta_box-str",
    "theta_box-one-entry", "theta_box-inverted", "z_box-one-entry", "z_box-inf", "k_box-inverted",
    "k_box-nan", "vartheta-nan", "vartheta-inf", "vartheta-str"])
def test_dominance_audit_rejects_a_malformed_keyword_by_name(auto_scenario, kwargs, message):
    scn = auto_scenario
    with pytest.raises(ValueError, match="^" + message):
        dominance_audit(scn.stack, scn.bounds, scn.oracle, **{"samples": 10, **kwargs})


def test_a_real_beyond_the_largest_float_is_rejected_by_name(auto_scenario):
    """An int too large for a float is an infinity where a float belongs."""
    with pytest.raises(ValueError, match="^tol_x must be finite, got inf$"):
        VerifyTolerances(tol_x=10 ** 400)
    scn = auto_scenario
    with pytest.raises(ValueError, match="^vartheta must be finite, got inf$"):
        dominance_audit(scn.stack, scn.bounds, scn.oracle, samples=10, vartheta=10 ** 400)


def test_dominance_audit_takes_whole_reals_as_ints(auto_scenario):
    scn = auto_scenario
    want = dominance_audit(scn.stack, scn.bounds, scn.oracle, stage=2, samples=20, seed=3)
    got = dominance_audit(scn.stack, scn.bounds, scn.oracle, stage=2.0, samples=np.int64(20),
                          seed=3.0, z_box=[-5, 5], k_box=(0.01, 10))
    assert got.to_dict() == want.to_dict()


def test_dominance_audit_draws_the_same_from_a_theta_box_of_ints_and_lists(auto_scenario):
    """theta_box only sets how many unused theta columns each sample draws."""
    scn = auto_scenario
    want = dominance_audit(scn.stack, scn.bounds, scn.oracle, samples=20,
                           theta_box=((0.8, 1.2), (1.6, 2.4))).to_dict()
    got = dominance_audit(scn.stack, scn.bounds, scn.oracle, samples=20,
                          theta_box=[[0.8, 1.2], np.array([1.6, 2.4])]).to_dict()
    assert got == want
    assert dominance_audit(scn.stack, scn.bounds, scn.oracle, samples=20).to_dict() != want


def oracle_of(stages):
    """An oracle of the given stage count from numeric-2d's constants."""
    oracle = scenarios.build("numeric-2d").oracle
    return OracleConstants(*((v * stages)[:stages] for v in (oracle.b, oracle.B, oracle.c)))


@pytest.mark.parametrize("stages", [1, 3])
def test_budget_rejects_an_oracle_of_another_stage_count(stages):
    traj = scenarios.build("numeric-2d", T=2.0).run()
    assert lyapunov_budget(traj, oracle_of(2)).passed
    with pytest.raises(ValueError, match="^oracle of %d stages for a 2-stage run$" % stages):
        lyapunov_budget(traj, oracle_of(stages))


@pytest.mark.parametrize("stages", [1, 3])
def test_dominance_audit_rejects_an_oracle_of_another_stage_count(auto_scenario, stages):
    scn = auto_scenario
    with pytest.raises(ValueError, match="^oracle of %d stages for a 2-stage stack$" % stages):
        dominance_audit(scn.stack, scn.bounds, oracle_of(stages), stage=2, samples=10)


@pytest.mark.parametrize("slack", [NAN, INF, -INF, None])
def test_budget_rejects_a_slack_that_is_not_a_finite_real(paper_run, slack):
    with pytest.raises(ValueError, match="^slack must be "):
        lyapunov_budget(paper_run[0], scenarios.build("numeric-2d").oracle, slack=slack)


def test_audit_lanes_equal_the_sample_on_floats(auto_scenario):
    """Every lane of the traced sample body holds the float body's bits."""
    scn = auto_scenario
    vt = scn.oracle.vartheta(1)
    u = np.random.default_rng(5).random((2000, 3))
    cols = [-5.0 + 10.0 * u[:, 0], -5.0 + 10.0 * u[:, 1], 0.01 + 9.99 * u[:, 2]]
    draws = np.column_stack(cols).tolist()

    def body(v):
        return _audit_sample(scn.stack, scn.bounds, vt, v[:2], v[2:])

    lanes = compile_lanes(body, draws[0])
    with np.errstate(all="ignore"):
        outs, miss = lanes(cols)
    assert not miss.any()
    got = [[v.hex() for v in out] for out in zip(*(out.tolist() for out in outs))]
    assert got == [[v.hex() for v in body(row)] for row in draws]


@pytest.mark.parametrize("masked", ["every-other", "untraceable"])
def test_masked_lanes_run_the_sample_on_floats(auto_scenario, monkeypatch, masked):
    """Lanes the lanes form masks, or every lane when it declines, give the same report."""
    scn = auto_scenario
    kwargs = dict(stage=2, samples=1200, seed=5)
    want = dominance_audit(scn.stack, scn.bounds, scn.oracle, **kwargs).to_dict()

    def every_other(fn, point):
        lanes = compile_lanes(fn, point)

        def masked_lanes(cols):
            outs, miss = lanes(cols)
            extra = np.arange(len(miss)) % 2 == 0
            return [np.where(extra, np.nan, out) for out in outs], miss | extra

        return masked_lanes

    patch = every_other if masked == "every-other" else (lambda fn, point: None)
    monkeypatch.setattr(verify, "compile_lanes", patch)
    assert dominance_audit(scn.stack, scn.bounds, scn.oracle, **kwargs).to_dict() == want
    report = dominance_audit(scn.stack, scn.bounds, scn.oracle, vartheta=0.0, **kwargs)
    assert report.violations == 1200


def _n2_auto_from_config():
    cfg = load_file(os.path.join(REPO, "configs", "numeric-2d.cfg"),
                    overrides={"design.mode": "auto"})
    return scenarios.build(cfg.sid, **cfg.scenario_overrides())


THETA_BOX = ((0.8, 1.2), (1.6, 2.4))

# AuditReport.to_dict() of the sample loop the lanes replaced
AUDIT_CASES = {
    "acceptance": (
        lambda: scenarios.build("numeric-2d", mode="auto", theta_box=THETA_BOX),
        dict(samples=10000, seed=0, z_box=(-5.0, 5.0), k_box=(0.01, 10.0),
             theta_box=THETA_BOX),
        {"stage": 2, "samples": 10000, "violations": 0,
         "min_slack": 0.2393450575891881,
         "worst": {"z": [0.1821398522761033, 0.008138087108603642],
                   "k": [0.06451726164496663], "lhs": 0.06070513656072105,
                   "rhs": 0.3000500641449027, "sample": 2657},
         "vartheta": 2.4, "passed": True},
    ),
    "auto-verify": (
        _n2_auto_from_config,
        dict(samples=10000, seed=11, theta_box=THETA_BOX),
        {"stage": 2, "samples": 10000, "violations": 0,
         "min_slack": 0.3916472159737175,
         "worst": {"z": [0.15032282056960167, -0.09404127825251507],
                   "k": [0.16464780537100207], "lhs": 0.10539740994486807,
                   "rhs": 0.49704447621413794, "sample": 405},
         "vartheta": 2.4, "passed": True},
    ),
    "negative-control": (
        lambda: scenarios.build("numeric-2d", mode="auto"),
        dict(samples=200, seed=0, vartheta=0.0),
        {"stage": 2, "samples": 200, "violations": 200,
         "min_slack": -99593.32635521672,
         "worst": {"z": [-4.834723644714709, 3.1327023920027237],
                   "k": [9.12842821700444], "lhs": 99593.32635531672,
                   "rhs": 0.0, "sample": 1},
         "vartheta": 0.0, "passed": False},
    ),
    "zero-error": (
        lambda: scenarios.build("numeric-2d", mode="auto"),
        dict(samples=50, seed=5, z_box=(0.0, 0.0)),
        {"stage": 2, "samples": 50, "violations": 0, "min_slack": 1e-07,
         "worst": {"z": [0.0, 0.0], "k": [5.158102354810999], "lhs": 0.0,
                   "rhs": 0.0, "sample": 0},
         "vartheta": 2.0, "passed": True},
    ),
}


@pytest.mark.parametrize("case", AUDIT_CASES)
def test_dominance_audit_report_is_pinned(case):
    build, kwargs, want = AUDIT_CASES[case]
    scn = build()
    report = dominance_audit(scn.stack, scn.bounds, scn.oracle, stage=2, **kwargs)
    assert report.to_dict() == want


def test_audit_lanes_source_is_pinned(auto_scenario, monkeypatch):
    """sha256 prefix of the lanes source the audit compiles (numeric-2d auto,
    stage 2); a change to the emitted code updates it and names itself in
    CHANGES.md."""
    compiled = []
    monkeypatch.setattr(verify, "compile_lanes",
                        lambda fn, point: compiled.append(compile_lanes(fn, point)) or compiled[0])
    scn = auto_scenario
    dominance_audit(scn.stack, scn.bounds, scn.oracle, stage=2, samples=1000, seed=1)
    assert hashlib.sha256(compiled[0].source.encode()).hexdigest()[:16] == "2237f173dcd8a1d1"


# ------------------------------------------------------------- monte carlo


@pytest.mark.parametrize("M, seed, message", [
    (2.5, 1, "M must be a whole number"), ("2", 1, "M must be a whole number"),
    (1, 1.5, "seed must be a whole number"), (1, None, "seed must be a whole number"),
    (1, -1, "seed must be non-negative, got -1"),
    (0, 1, "M must be positive: Monte-Carlo needs at least one run, got 0$"),
], ids=["M-2.5", "M-str", "seed-1.5", "seed-None", "seed-negative", "M-0"])
def test_monte_carlo_rejects_a_malformed_count_or_seed_by_name(M, seed, message):
    with pytest.raises(ValueError, match="^" + message):
        monte_carlo("numeric-2d", M, seed, x0_box=((-1.0, 1.0), (-1.0, 1.0)))


def test_monte_carlo_takes_whole_reals_as_ints():
    kwargs = dict(x0_box=((-1.0, 1.0), (-1.0, 1.0)), overrides={"T": 0.5})
    got = monte_carlo("numeric-2d", 2.0, 7.0, **kwargs).to_dict()
    assert got == monte_carlo("numeric-2d", 2, 7, **kwargs).to_dict()
    assert type(got["seed"]) is int


def test_monte_carlo_runs_in_one_process():
    with pytest.raises(ValueError) as info:
        monte_carlo("numeric-2d", 1, 1, x0_box=((-1.0, 1.0), (-1.0, 1.0)),
                    workers=2)
    assert str(info.value) == "workers must be 1: the sweep runs in one process, got 2"


# boxes monte_carlo rejects before it draws, and the start of each message
BAD_BOXES = [
    ("numeric-2d", {"x0_box": ((1.0, 0.0), (0.0, 1.0))}, r"x0_box\[1\] must have lo <= hi"),
    ("numeric-2d", {"x0_box": ((-1e308, 1e308), (0.0, 1.0))},
     r"x0_box\[1\] must have lo <= hi, a finite width apart"),
    ("numeric-2d", {"x0_box": ((0.0, 1.0),)}, "x0_box must have 2 entries"),
    ("numeric-2d", {"x0_box": ((0.0, 1.0), (0.0,))}, r"x0_box\[2\] must be a \(lo, hi\) pair"),
    ("numeric-2d", {"x0_box": ((0.0, 1.0), (0.0, "1"))}, r"x0_box\[2\]\[2\] must be a real"),
    ("numeric-2d", {"x0_box": ((0.0, 1.0), (0.0, 1.0)), "theta_box": ((1.2, 0.8), (1.6, 2.4))},
     r"theta_box\[1\] must have lo <= hi"),
    ("numeric-2d", {"x0_box": ((0.0, 1.0), (0.0, 1.0)), "theta_box": {(0.8, 1.2), (1.6, 2.4)}},
     "theta_box must be a sequence"),
    ("stt-missile", {"x0_box": ((0.0, 1.0),) * 3},
     "x0_box: scenario 'stt-missile' has no keyword x0"),
]


@pytest.mark.parametrize("sid, kwargs, message", BAD_BOXES, ids=[
    "x0-inverted", "x0-too-wide", "x0-one-entry", "x0-not-a-pair", "x0-str", "theta-inverted", "theta-set",
    "missile-x0"])
def test_monte_carlo_rejects_a_malformed_box_by_name(sid, kwargs, message):
    with pytest.raises(ValueError, match="^" + message):
        monte_carlo(sid, 1, 0, overrides={"T": 0.1}, **kwargs)


def test_monte_carlo_draws_the_same_from_a_box_of_ints_and_lists():
    kwargs = dict(overrides={"T": 2.0}, x0_box=((-1.0, 1.0), (-1.0, 1.0)),
                  theta_box=((1.0, 1.2), (2.0, 2.4)))
    loose = dict(overrides={"T": 2.0}, x0_box=[[-1, 1], np.array([-1, 1])],
                 theta_box=[(1, 1.2), [2, 2.4]])
    assert monte_carlo("numeric-2d", 2, 5, **loose).to_dict() == \
        monte_carlo("numeric-2d", 2, 5, **kwargs).to_dict()


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
