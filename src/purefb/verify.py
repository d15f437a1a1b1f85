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
from .autodiff import select_lt
from .simkit import ABORT_LIMIT
from .tape import compile_lanes

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

    def __post_init__(self):
        # each message starts with the field it rejects
        for name in ("tol_x", "tol_k", "z_tail", "energy_slack", "budget_slack"):
            if not getattr(self, name) > 0.0:
                raise ValueError("%s must be positive, got %r" % (name, getattr(self, name)))
        if not self.k_monotone >= 0.0:
            raise ValueError("k_monotone must be >= 0, got %r" % self.k_monotone)
        if not 0.0 < self.tail_frac <= 0.5:
            # above 0.5 the window before the tail is clipped at t = 0
            raise ValueError("tail_frac must lie in (0, 0.5], got %r" % self.tail_frac)


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


def _meta(traj, key):
    """The metadata entry ``key`` as an array: a column group (x_cols,
    k_cols, intz_cols, z_cols) as the rows x stages block of its columns,
    a per-stage constant (gamma, mu) as floats."""
    names = traj.meta.get(key)
    if not names:
        raise ValueError(
            "trajectory metadata lacks %r; monitors need the column grouping "
            "recorded by the scenario" % key
        )
    if key.endswith("_cols"):
        return np.column_stack([traj.col(name) for name in names])
    return np.array(names, dtype=float)


def _tail(t, frac):
    """The window of the last frac of the horizon: its start time and its
    first row (t is strictly increasing)."""
    start = float(t[-1]) * (1.0 - frac)
    return start, int(np.searchsorted(t, start))


def _first_min(v, below=float("inf")):
    """(value, index) of the first minimum of v where it lies below
    ``below``, else (below, None): what a scan ``if v[i] < best`` from
    best = below keeps.  A NaN compares false, so it is never the minimum."""
    hit = v < below
    if not hit.any():
        return below, None
    i = int(np.argmin(np.where(hit, v, np.inf)))
    return float(v[i]), i


@np.errstate(over="ignore", invalid="ignore")
def check_theorem1(traj, tol=None):
    """Boundedness, convergence, gain settling and Barbalat-proxy checks.

    Expects the column grouping (x_cols, k_cols, intz_cols, gamma) in the
    trajectory metadata.  A diverged trajectory yields applicable=False and
    passed=False.  Each check is arithmetic on the stage columns; a
    reduction over the stages folds as Python's min and max do: ties keep
    the first value, and a NaN is never taken over a number.
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
    sup = _tail_sup_x(traj, tol.tail_frac)
    K = _meta(traj, "k_cols")
    t = traj.t
    t_tail, i_tail = _tail(t, tol.tail_frac)
    i_prev = _tail(t, 2.0 * tol.tail_frac)[1]
    # the squared-error integrals where the window before the tail starts,
    # where the tail starts, and at the end
    iz_prev, iz_tail, iz_end = _meta(traj, "intz_cols")[[i_prev, i_tail, -1]]
    gamma = _meta(traj, "gamma")
    checks = []

    # (a) every recorded signal stays finite and within the abort limit;
    # max |x| per column comes from two reductions, not a copy of the
    # table, and is not finite where the column holds a non-finite cell
    body = traj.data[:, 1:]
    mags = np.maximum(np.max(body, axis=0), -np.min(body, axis=0))
    if not np.isfinite(mags).all():
        i, j = np.argwhere(~np.isfinite(body))[0]  # the first sample, then its first column
        checks.append(CheckResult("bounded", False, float("-inf"), float(t[i]),
                                  "non-finite value in %s" % traj.columns[1 + j]))
    else:
        j = int(np.argmax(mags))  # the first column on ties
        worst = abs(float(mags[j]))  # an all-zero table gives +0.0 and names no column
        name = traj.columns[1 + j] if worst > 0.0 else ""
        checks.append(CheckResult("bounded", worst <= ABORT_LIMIT, ABORT_LIMIT - worst, None,
                                  "largest recorded magnitude %.6g in %s" % (worst, name)))

    # (b) tail convergence of the plant state
    checks.append(
        CheckResult(
            "state-tail",
            sup <= tol.tol_x,
            tol.tol_x - sup,
            t_tail,
            "sup |x| over the tail window = %.6g (tol %.3g)" % (sup, tol.tol_x),
        )
    )

    # (c) gains nondecreasing and settled; the worst decrement is the first
    # column's on ties, and a column holding a NaN decrement (whose
    # minimum is NaN) is passed over whole
    dK = np.diff(K, axis=0)
    mono_margin, c = _first_min(np.min(dK, axis=0, initial=np.inf))
    mono_where = None if c is None else float(t[int(np.argmin(dK[:, c])) + 1])
    settle_worst = max(0.0, *(K[-1] - K[i_tail]).tolist())
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
    dk = K[-1] - K[0]
    lhs = gamma * iz_end
    energy = dk + tol.energy_slack * np.fmax(1.0, np.abs(dk)) - lhs
    tail_inc = iz_end - iz_tail
    prev_inc = iz_tail - iz_prev
    # per stage, in stage order: the tail's own margin, then its margin
    # against the window before it
    flat = np.column_stack((tol.z_tail - tail_inc, prev_inc + 1e-9 - tail_inc))
    energy_margin = min(float("inf"), *energy.tolist())
    checks.append(
        CheckResult(
            "error-energy",
            energy_margin >= 0.0,
            energy_margin,
            None,
            "; ".join("%s: gamma*int=%.6g dk=%.6g" % stage for stage in
                      zip(traj.meta["intz_cols"], lhs.tolist(), dk.tolist())),
        )
    )
    checks.append(
        CheckResult(
            "error-tail-flat",
            not np.any((tail_inc > tol.z_tail) | (tail_inc > prev_inc + 1e-9)),
            min(float("inf"), *flat.ravel().tolist()),
            t_tail,
            "squared-error integrals must stop growing in the tail",
        )
    )
    return InvariantReport(
        scenario=traj.sid, applicable=True, diverged=False, checks=checks
    )


def _tail_sup_x(traj, tail_frac):
    """sup |x| over the tail window; across the x columns it folds as
    Python's max does."""
    rows = _meta(traj, "x_cols")[_tail(traj.t, tail_frac)[1]:]
    return max(np.max(np.abs(rows), axis=0).tolist())


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
        violations += int(np.count_nonzero(out[2] < 0.0))
        min_slack, s = _first_min(out[2], min_slack)
        if s is not None:
            row = draws[s].tolist()
            worst = {"z": row[:i], "k": row[i:], "lhs": float(out[0, s]),
                     "rhs": float(out[1, s]), "sample": start + s}
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


@np.errstate(over="ignore", invalid="ignore")
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
    Z, K, mu, gamma = (_meta(traj, key) for key in ("z_cols", "k_cols", "mu", "gamma"))
    eps = oracle.epsilon()
    # V and the affine bound are summed stage by stage, so each row's
    # slack holds the bits of the sums taken on its floats
    V = sum(0.5 * z * z for z in Z.T)
    affine = sum(-0.5 * (bi * mi / gi) * k * k + 2.0 * eps * k / gi
                 for bi, mi, gi, k in zip(oracle.b, mu, gamma, K.T))
    min_slack, idx = _first_min(affine + (V[0] - affine[0]) + slack - V)
    return BudgetReport(
        scenario=traj.sid,
        applicable=True,
        min_slack=min_slack,
        where=None if idx is None else float(traj.t[idx]),
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
        "tail_sup_x": None if traj.diverged else _tail_sup_x(traj, tol.tail_frac),
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
