"""Runtime monitors for the closed-loop stability claims.

Every monitor is a pure function of (trajectory, oracle constants,
tolerances): the same inputs always produce the same report.  The oracle
constants are the true bounding constants of a scenario; the controller
never reads them, which keeps the unknown-constants premise intact while
still letting the test harness check the quantitative claims:

* ``check_theorem1``   boundedness, tail convergence of the state, gain
  monotonicity and settling, and a Barbalat-style tail test on the
  squared-error integrals carried inside the trajectory.
* ``dominance_audit``  pointwise sampling of the synthesized stage
  inequality (error-derivative bracket vs. vartheta * eta * sum |z_j|).
  One sample is traced and the rest run as numpy lanes of its tape
  (``tape.compile_lanes``), each bit-equal to the sample run on floats.
* ``lyapunov_budget``  the integrated energy bound, affine in the gains,
  with the constant epsilon computed from the oracle and the offset
  anchored at the first sample.
* ``monte_carlo``      seeded sweep of randomized initial states and
  uncertainty draws, aggregating check_theorem1 results.

An incomplete (diverged) trajectory is reported as not applicable and
failed, never silently passed.

A report's JSON is its fields: every report (and ``VerifyTolerances``)
shares one ``to_dict``, ``dataclasses.asdict``, and a verdict
(``passed``, ``all_passed``) is a field derived from the others when the
report is made.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from . import scenarios
from .simkit import ABORT_LIMIT
from .tape import compile_lanes, select_lt

__all__ = [
    "AuditReport",
    "BudgetReport",
    "CheckResult",
    "InvariantReport",
    "MonteCarloReport",
    "VerifyTolerances",
    "check_theorem1",
    "dominance_audit",
    "lyapunov_budget",
    "monte_carlo",
]


class _Fields:
    """A report's JSON layout is its dataclass fields."""

    def to_dict(self):
        return asdict(self)


@dataclass(frozen=True)
class VerifyTolerances(_Fields):
    """Thresholds operationalizing the asymptotic claims at a finite horizon."""

    tol_x: float = 1e-2  # tail sup-norm of the plant state
    tol_k: float = 1e-3  # gain settling over the tail window
    tail_frac: float = 0.1  # fraction of the horizon treated as "tail"
    k_monotone: float = 1e-12  # tolerated per-step gain decrease
    z_tail: float = 1e-2  # tail increment of each squared-error integral
    energy_slack: float = 1e-6  # slack in gamma_i int z_i^2 <= k_i(T)-k_i(0)
    budget_slack: float = 1e-6  # absolute slack of the energy budget


@dataclass
class CheckResult(_Fields):
    """One monitored condition: signed margin >= 0 means satisfied."""

    name: str
    passed: bool
    margin: float
    where: Optional[float] = None  # time of the worst margin, when meaningful
    detail: str = ""


@dataclass
class InvariantReport(_Fields):
    scenario: str
    applicable: bool
    diverged: bool
    checks: list = field(default_factory=list)
    detail: str = ""
    passed: bool = field(init=False)

    def __post_init__(self):
        self.passed = self.applicable and all(c.passed for c in self.checks)

    def failed_names(self):
        return [c.name for c in self.checks if not c.passed]


def _meta_cols(traj, key):
    cols = traj.meta.get(key)
    if not cols:
        raise ValueError(
            "trajectory metadata lacks %r; monitors need the column grouping "
            "recorded by the scenario" % key
        )
    return list(cols)


def check_theorem1(traj, tol=None):
    """Boundedness, convergence, gain settling and Barbalat-proxy checks.

    Expects the column grouping (x_cols, k_cols, intz_cols, gamma) in the
    trajectory metadata.  A diverged trajectory yields applicable=False and
    passed=False.
    """
    tol = tol or VerifyTolerances()
    if traj.diverged:
        return InvariantReport(
            scenario=traj.sid,
            applicable=False,
            diverged=True,
            checks=[
                CheckResult(
                    "complete", False, float("-inf"), traj.failure.t,
                    "run aborted before the horizon; invariants not evaluable",
                )
            ],
            detail="divergence flag set",
        )
    x_cols = _meta_cols(traj, "x_cols")
    k_cols = _meta_cols(traj, "k_cols")
    intz_cols = _meta_cols(traj, "intz_cols")
    gammas = [float(g) for g in _meta_cols(traj, "gamma")]
    t = traj.t
    t_final = float(t[-1])
    checks = []

    # (a) every recorded signal stays finite and below the abort threshold
    worst = 0.0
    worst_col = ""
    finite = True
    for name in traj.columns[1:]:
        colv = traj.col(name)
        if not np.all(np.isfinite(colv)):
            finite = False
            worst_col = name
            break
        m = float(np.max(np.abs(colv)))
        if m > worst:
            worst, worst_col = m, name
    checks.append(
        CheckResult(
            "bounded",
            finite,
            float("-inf") if not finite else ABORT_LIMIT - worst,
            None,
            "largest recorded magnitude %.6g in %s" % (worst, worst_col),
        )
    )

    # (b) tail convergence of the plant state
    t_tail = t_final * (1.0 - tol.tail_frac)
    sup = _tail_sup_x(traj, x_cols, tol.tail_frac)
    checks.append(
        CheckResult(
            "state-tail",
            sup <= tol.tol_x,
            tol.tol_x - sup,
            t_tail,
            "sup |x| over the tail window = %.6g (tol %.3g)" % (sup, tol.tol_x),
        )
    )

    # (c) gains nondecreasing and settled
    mono_margin = float("inf")
    mono_where = None
    settle_worst = 0.0
    i_tail = int(np.searchsorted(t, t_tail))
    for name in k_cols:
        kv = traj.col(name)
        if len(kv) > 1:
            d = np.diff(kv)
            j = int(np.argmin(d))
            if d[j] < mono_margin:
                mono_margin = float(d[j])
                mono_where = float(t[j + 1])
        settle_worst = max(settle_worst, float(kv[-1] - kv[i_tail]))
    checks.append(
        CheckResult(
            "gain-monotone",
            mono_margin >= -tol.k_monotone,
            mono_margin + tol.k_monotone,
            mono_where,
            "worst recorded gain decrement %.3g" % min(mono_margin, 0.0),
        )
    )
    checks.append(
        CheckResult(
            "gain-settled",
            settle_worst <= tol.tol_k,
            tol.tol_k - settle_worst,
            t_tail,
            "largest gain change over the tail = %.6g (tol %.3g)"
            % (settle_worst, tol.tol_k),
        )
    )

    # (d) squared-error integrals: bounded by the gain increments (the
    # update law gives gamma_i int z_i^2 <= k_i(T) - k_i(0) since psi >= 1)
    # and flattening out (Barbalat proxy on two equal tail windows)
    energy_margin = float("inf")
    energy_det = []
    flat_ok = True
    flat_margin = float("inf")
    t_prev = t_final * (1.0 - 2.0 * tol.tail_frac)
    i_prev = int(np.searchsorted(t, t_prev))
    for name, kname, g in zip(intz_cols, k_cols, gammas):
        iz = traj.col(name)
        kv = traj.col(kname)
        dk = float(kv[-1] - kv[0])
        lhs = g * float(iz[-1])
        m = dk + tol.energy_slack * max(1.0, abs(dk)) - lhs
        energy_margin = min(energy_margin, m)
        energy_det.append("%s: gamma*int=%.6g dk=%.6g" % (name, lhs, dk))
        tail_inc = float(iz[-1] - iz[i_tail])
        prev_inc = float(iz[i_tail] - iz[i_prev])
        flat_margin = min(
            flat_margin, tol.z_tail - tail_inc, prev_inc + 1e-9 - tail_inc
        )
        if tail_inc > tol.z_tail or tail_inc > prev_inc + 1e-9:
            flat_ok = False
    checks.append(
        CheckResult(
            "error-energy",
            energy_margin >= 0.0,
            energy_margin,
            None,
            "; ".join(energy_det),
        )
    )
    checks.append(
        CheckResult(
            "error-tail-flat",
            flat_ok,
            flat_margin,
            t_tail,
            "squared-error integrals must stop growing in the tail",
        )
    )
    return InvariantReport(
        scenario=traj.sid, applicable=True, diverged=False, checks=checks
    )


def _tail_sup_x(traj, x_cols, tail_frac):
    """sup |x| over the tail window, the last tail_frac of the horizon."""
    mask = traj.t >= float(traj.t[-1]) * (1.0 - tail_frac)
    return max(float(np.max(np.abs(traj.col(c)[mask]))) for c in x_cols)


@dataclass
class AuditReport(_Fields):
    stage: int
    samples: int
    violations: int
    min_slack: float
    worst: Optional[dict] = None
    vartheta: float = 1.0
    passed: bool = field(init=False)

    def __post_init__(self):
        self.passed = self.violations == 0


# relative step of the audit's central differences, and the relative
# tolerance of its inequality
_FD_REL = 1e-6
_AUDIT_REL_TOL = 1e-7


def _fd_partial(fn, args, j):
    base = args[j]
    a = abs(base)
    h = _FD_REL * select_lt(1.0, a, a, 1.0)  # max(1.0, a), NaN included
    hi = list(args)
    lo = list(args)
    hi[j] = base + h
    lo[j] = base - h
    return (fn(hi) - fn(lo)) / (2.0 * h)


def _audit_sample(stack, bounds, vt, zb, kb):
    """(lhs, rhs, slack) of the dominance inequality at one draw (zb, kb).

    Generic over the scalar: floats, or the tracing ``tape.Var`` that
    ``dominance_audit`` compiles to numpy lanes.
    """
    st = len(kb)
    gamma = stack.params.gamma
    x, psi, eta, _ = stack.reconstruct(zb, kb)

    def alpha_of_x(xs):
        return stack.alpha_value(st, xs, kb)

    def alpha_of_k(ks):
        return stack.alpha_value(st, x[:st], ks)

    lhs = bounds.rho[st](x) * sum(abs(v) for v in x)
    for j in range(st):
        dax = abs(_fd_partial(alpha_of_x, x[:st], j))
        dak = abs(_fd_partial(alpha_of_k, kb, j))
        part = bounds.rho[j](x[: j + 1]) * sum(abs(v) for v in x[: j + 1])
        part += bounds.phi[j](x[: j + 2]) * abs(x[j + 1])
        pj = psi[j]
        lhs += dax * part + gamma[j] * dak * pj * pj * zb[j] * zb[j]
    rhs = vt * eta[st] * sum(abs(v) for v in zb)
    return lhs, rhs, rhs + _AUDIT_REL_TOL * (1.0 + abs(rhs)) - lhs


# lanes per numpy block of the audit: each live tape line holds one column
# of this length, so the block bounds the audit's memory
_AUDIT_BLOCK = 512


def dominance_audit(
    stack,
    bounds,
    oracle,
    stage=2,
    samples=10000,
    seed=0,
    z_box=(-5.0, 5.0),
    k_box=(0.01, 10.0),
    theta_box=None,
    vartheta=None,
):
    """Sample the stage dominance inequality of the constructive synthesis.

    For each draw of (z, k) the reconstructed-state bracket

        rho_i sum|x_j| + sum_{j<i} ( |d alpha_{i-1}/d x_j| (rho_j sum_{l<=j}|x_l|
            + phi_j |x_{j+1}|) + gamma_j |d alpha_{i-1}/d k_j| psi_j^2 z_j^2 )

    is evaluated with central-difference partials and exact absolute values
    (independent of the dual-number path and its smoothing) and compared
    against vartheta_i * eta_i * sum|z_j|.  theta draws are taken when a box
    is given, but both sides of this inequality are theta-free; the
    uncertainty enters the stage derivative only through the oracle factor
    vartheta_i.  Pass vartheta=0.0 as a negative control: every sample with
    nonzero z must then violate.

    The sample body is traced once, at the first draw, and the draws are
    evaluated as lanes of ``tape.compile_lanes``, ``_AUDIT_BLOCK`` at a
    time; a lane that the lanes form masks runs the body on floats, in
    sample order.  Each lane holds the bits the body returns on floats, so
    the report is the one a loop over the draws gives.
    """
    if stage < 2:
        raise ValueError("the dominance construction starts at stage 2")
    if stage > stack.n:
        raise ValueError("stage %d is beyond the stack's %d stages" % (stage, stack.n))
    if stack.params.mode != "auto":
        raise ValueError("the audit targets the constructive (auto) synthesis")
    if samples < 1:
        raise ValueError("the audit needs at least one sample")
    i = stage
    st = stage - 1
    vt = oracle.vartheta(st) if vartheta is None else float(vartheta)
    rng = np.random.default_rng(seed)
    # a sample's draws, in the order of the per-sample uniform draws they
    # replace: z, k, then theta, drawn for sampling-policy uniformity (see
    # above) and unused; blocks of rows continue one stream of draws
    lo = np.array([float(z_box[0])] * i + [float(k_box[0])] * st)
    span = np.array([float(z_box[1])] * i + [float(k_box[1])] * st) - lo
    width = i + st + len(theta_box or ())

    def body(v):
        return _audit_sample(stack, bounds, vt, v[:i], v[i:])

    violations = 0
    min_slack = float("inf")
    worst = None
    for start in range(0, samples, _AUDIT_BLOCK):
        draws = lo + span * rng.random((min(_AUDIT_BLOCK, samples - start), width))[:, :i + st]
        if start == 0:
            lanes = compile_lanes(body, draws[0].tolist())
        if lanes is None:
            out = np.empty((3, len(draws)))
            miss = np.ones(len(draws), dtype=bool)
        else:
            with np.errstate(all="ignore"):
                values, miss = lanes(list(draws.T))
            out = np.array(values)
        for s in np.flatnonzero(miss).tolist():
            out[:, s] = body(draws[s].tolist())
        for s, slack in enumerate(out[2].tolist()):
            if slack < min_slack:
                min_slack = slack
                row = draws[s].tolist()
                worst = {"z": row[:i], "k": row[i:], "lhs": float(out[0, s]),
                         "rhs": float(out[1, s]), "sample": start + s}
            if slack < 0.0:
                violations += 1
    return AuditReport(
        stage=stage,
        samples=samples,
        violations=violations,
        min_slack=min_slack,
        worst=worst,
        vartheta=vt,
    )


@dataclass
class BudgetReport(_Fields):
    scenario: str
    applicable: bool
    min_slack: float
    where: Optional[float]
    epsilon: float
    detail: str = ""
    passed: bool = field(init=False)

    def __post_init__(self):
        self.passed = self.applicable and self.min_slack >= 0.0


def lyapunov_budget(traj, oracle, slack=VerifyTolerances.budget_slack):
    """Check the integrated energy bound along a recorded trajectory.

    The proof integrates the error-energy derivative into

        V(t) <= -1/2 sum_i (b_i mu_i / gamma_i) k_i(t)^2
                + 2 epsilon sum_i k_i(t) / gamma_i + C0,

    with V = 1/2 sum z_i^2, epsilon computed from the oracle constants and
    mu, gamma the design constants the run recorded.  The offset C0 is
    anchored at the first sample.

    Applicable only when every stage adapts its gain (the budget sums over
    all stages); otherwise reports not-applicable without judging.
    """
    if traj.diverged:
        return BudgetReport(
            traj.sid, False, float("-inf"), None, 0.0,
            "diverged run; budget not evaluable",
        )
    n = traj.meta.get("n")
    adaptive = list(traj.meta.get("adaptive", []))
    if n is None or adaptive != list(range(1, int(n) + 1)):
        return BudgetReport(
            traj.sid, False, 0.0, None, 0.0,
            "budget needs adaptation on every stage",
        )
    z_cols = _meta_cols(traj, "z_cols")
    k_cols = _meta_cols(traj, "k_cols")
    mu = [float(v) for v in _meta_cols(traj, "mu")]
    gamma = [float(v) for v in _meta_cols(traj, "gamma")]
    eps = oracle.epsilon()
    V = np.zeros(traj.data.shape[0])
    for name in z_cols:
        zv = traj.col(name)
        V += 0.5 * zv * zv

    def affine(krow):
        out = 0.0
        for bi, mi, gi, kv in zip(oracle.b, mu, gamma, krow):
            out += -0.5 * (bi * mi / gi) * kv * kv + 2.0 * eps * kv / gi
        return out

    kcols = [traj.col(name) for name in k_cols]
    k0 = [float(c[0]) for c in kcols]
    c0 = float(V[0]) - affine(k0)
    min_slack = float("inf")
    where = None
    for idx in range(len(V)):
        krow = [float(c[idx]) for c in kcols]
        s = affine(krow) + c0 + slack - float(V[idx])
        if s < min_slack:
            min_slack = s
            where = float(traj.t[idx])
    return BudgetReport(
        scenario=traj.sid,
        applicable=True,
        min_slack=min_slack,
        where=where,
        epsilon=eps,
        detail="offset anchored at t=0 with the run's recorded constants",
    )


@dataclass
class MonteCarloReport(_Fields):
    scenario: str
    runs: int
    passes: int
    seed: int
    results: list = field(default_factory=list)
    all_passed: bool = field(init=False)

    def __post_init__(self):
        self.all_passed = self.passes == self.runs


def _mc_run(sid, overrides, tol):
    scn = scenarios.build(sid, **overrides)
    traj = scn.run()
    report = check_theorem1(traj, tol)
    return {
        "overrides": {
            key: val for key, val in overrides.items() if key in ("x0", "theta")
        },
        "diverged": traj.diverged,
        "passed": report.passed,
        "failed": report.failed_names(),
        "tail_sup_x": (None if traj.diverged
                       else _tail_sup_x(traj, traj.meta["x_cols"], tol.tail_frac)),
    }


def monte_carlo(
    sid,
    M,
    seed,
    x0_box,
    theta_box=None,
    overrides=None,
    tol=None,
    workers=1,
):
    """Seeded robustness sweep: M randomized runs, theorem checks aggregated.

    Initial states are drawn uniformly from x0_box; when theta_box is given
    each run also draws a constant uncertainty vector from it (declared as
    the run's box).  All draws come from one generator seeded up front and
    the runs execute in order in this process, so the aggregate is
    deterministic.  ``workers`` must be 1.
    """
    if M < 1:
        raise ValueError("Monte-Carlo needs at least one run")
    if workers != 1:
        raise ValueError("the sweep runs in one process; workers must be 1")
    tol = tol or VerifyTolerances()
    rng = np.random.default_rng(seed)
    base = dict(overrides or {})
    results = []
    for _ in range(M):
        over = dict(base)
        over["x0"] = tuple(float(rng.uniform(lo, hi)) for lo, hi in x0_box)
        if theta_box is not None:
            over["theta"] = tuple(
                float(rng.uniform(lo, hi)) for lo, hi in theta_box
            )
            over["theta_box"] = tuple(tuple(edge) for edge in theta_box)
        results.append(_mc_run(sid, over, tol))
    passes = sum(1 for r in results if r["passed"])
    return MonteCarloReport(
        scenario=sid, runs=M, passes=passes, seed=seed, results=results
    )
