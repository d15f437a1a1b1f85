"""Bundled closed-loop scenarios.

Two benchmarks are registered:

``numeric-2d``
    Two-state pseudo-affine cascade with nonlinear input gain,

        dx1/dt = th1 x1 + th1 (1 + x2^2/5) x2
        dx2/dt = th2 x1 x2 + th2 (1 + u^2/7) u

    under constant uncertainty (th1, th2) inside a declared box.  Runs in
    either controller mode: "paper" uses the benchmark's own closed-form
    gain shapes (psi1 = 2 and an explicit psi2, both entering the virtual
    controls unsquared), "auto" synthesizes the shapes constructively with
    the squared general law.

``stt-missile``
    Three-state missile roll channel with actuator lag and time-varying
    flight condition; uses the specialized three-step law from
    ``missile``.

A scenario bundles the plant truth, the bound declarations the controller
is allowed to see, the oracle constants only the verifier may read, and the
closed loop as three pieces: the plant ``plant(t, x, u) -> dx/dt``, the
law ``law(x, k) -> (z, u, dk/dt, extra values)`` and the input ``sign``.
``Scenario`` alone lays out the augmented state y = (plant state x,
adaptive gains k, integrals of z_i^2) and applies the sign: it derives
``rhs_reference`` (plant rates at sign * u, gain rates, z_i^2 of each
adaptive stage) and the recorded row t, x1..xn, z1..zn, k_i, u, <extras>,
intz_i, with k_i and intz_i for each adaptive stage i.  A factory's
keywords are the run-config keys by name: ``section.key`` arrives as
``key`` (see ``RunConfig.scenario_overrides``).  Building checks every
rule on a keyword's value, and each ValueError starts with its keyword.

numeric-2d's plant is ``PlantSpec.rates``; its law is
``ControllerStack.evaluate`` and ``gain_rates``.  stt-missile's plant is
``stt_dynamics`` (flight condition through ``autodiff.cos``/``sin``) and
its law is ``missile_control``.  ``Scenario.run`` traces
``simkit.rk4_step`` of ``rhs_reference`` at the run's h, abort rule
included, and the row builder ``recorder`` holds, both at (0, y0), into
one compiled run loop (``tape.compile_loop``) and hands it to
``integrate``.  A step or row the loop cannot vouch for runs on the plain
path, one at a time, and the loop goes on after it.  A run is compiled
whole or not at all: where either trace fails (the first step already
diverges, say), or where ``rhs`` is no longer ``rhs_reference``, every
step and row is a plain one.  Building a scenario does not trace.

The exact squared-error integrals ride along as ODE components so the
update-law energy identity gamma_i * int z_i^2 = k_i(T) - k_i(0) can be
checked without quadrature error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

from .autodiff import cos, sin
from .backstep import ControllerStack, DesignParams
from .missile import MissileDesign, MissileParams, missile_control, stt_dynamics
from .plant import BoundSpec, OracleConstants, PlantSpec, UncertaintyProfile
from .simkit import integrate, rk4_step
from .tape import compile_loop

__all__ = ["Scenario", "build", "MODES", "SCENARIO_IDS", "STEP_BUDGET"]

# numeric-2d's controller modes: the benchmark's closed-form gain shapes, or
# constructive synthesis
MODES = ("paper", "auto")

# most integration steps (T / h) one run may ask for
STEP_BUDGET = 10_000_000


def _check(ok, message, *args):
    """ValueError(message % args) unless ok; each message starts with its keyword."""
    if not ok:
        raise ValueError(message % args)


@dataclass
class Scenario:
    """One runnable closed loop plus everything the verifier needs.

    Derives from ``plant``, ``law`` and ``sign`` the one layout of y:
    ``rhs_reference``, ``rhs`` (what ``run`` integrates) and ``recorder``
    (column names, row builder); also ``n`` (from x0) and the meta entries
    x_cols, z_cols, k_cols, intz_cols, n and adaptive.  Checks T and h > 0,
    at most ``STEP_BUDGET`` steps, T/h whole and divided by decimation.
    """

    sid: str
    x0: tuple
    adaptive: tuple  # 1-based stages with gain adaptation
    k0: tuple  # initial gains, aligned with adaptive
    theta: UncertaintyProfile
    plant: Callable  # (t, x, u) -> dx/dt
    law: Callable  # (x, k) -> (z, u, dk/dt, extra values)
    extra: tuple  # names of the law's extra values, recorded after u
    T: float
    h: float
    decimation: int
    sign: float  # the plant receives sign * u
    meta: dict = field(default_factory=dict)  # mu and gamma of the adaptive stages
    bounds: Optional[BoundSpec] = None
    oracle: Optional[OracleConstants] = None
    stack: Optional[ControllerStack] = None
    rhs_reference: Callable = field(init=False)  # the generic evaluation path
    rhs: Callable = field(init=False)  # what run() integrates
    n: int = field(init=False)

    def __post_init__(self):
        T, h = self.T, self.h = float(self.T), float(self.h)
        _check(T > 0.0, "T must be positive, got %r", T)
        _check(h > 0.0, "h must be positive, got %r", h)
        _check(T / h <= STEP_BUDGET, "h = %r asks for %.3g steps over T = %r, more than "
               "the budget of %d", h, T / h, T, STEP_BUDGET)
        steps = round(T / h)
        _check(steps >= 1 and abs(steps * h - T) <= 1e-9 * max(1.0, T),
               "T must be an integer multiple of h, got T = %r, h = %r", T, h)
        d = self.decimation
        if not isinstance(d, int):  # an int of any size is kept as it is
            try:
                whole = float(d).is_integer()
            except (TypeError, ValueError):
                whole = False
            _check(whole, "decimation must be a whole number, got %r", d)
        d = self.decimation = int(d)
        _check(d >= 1 and steps % d == 0,
               "decimation must divide the %d integration steps, got %d", steps, d)
        _check(len(self.k0) == len(self.adaptive), "need one initial gain per adaptive stage")
        self.sign = float(self.sign)
        self.n = len(self.x0)
        n, m = self.n, len(self.adaptive)
        plant, law, sign = self.plant, self.law, self.sign
        squared = [i - 1 for i in self.adaptive]  # 0-based stages whose z_i^2 is integrated

        def rhs_reference(t, y):
            x = y[:n]
            z, u, kdot, _ = law(x, y[n:n + m])
            return (*plant(t, x, sign * u), *kdot, *[z[i] * z[i] for i in squared])

        def build_row(t, y):
            z, u, _, extra = law(y[:n], y[n:n + m])
            return [*y[:n], *z, *y[n:n + m], sign * u, *extra, *y[n + m:]]

        self.rhs_reference = self.rhs = rhs_reference
        groups = {
            "x_cols": ["x%d" % i for i in range(1, n + 1)],
            "z_cols": ["z%d" % i for i in range(1, n + 1)],
            "k_cols": ["k%d" % i for i in self.adaptive],
            "intz_cols": ["intz%d" % i for i in self.adaptive],
        }
        self.meta.update(groups, n=n, adaptive=list(self.adaptive))
        names = (*groups["x_cols"], *groups["z_cols"], *groups["k_cols"], "u",
                 *self.extra, *groups["intz_cols"])
        self.recorder = (names, build_row)

    def y0(self):
        return tuple(self.x0) + tuple(self.k0) + (0.0,) * len(self.adaptive)

    def run(self, seed=None):
        y0 = self.y0()
        # the one place that traces, step and row, both at (0, y0); the
        # traced step is a step of rhs only while rhs is rhs_reference, so
        # a replaced rhs runs as given, rows included
        loop = None
        if self.rhs is self.rhs_reference:
            loop = compile_loop(lambda t, y: rk4_step(self.rhs_reference, y, t, self.h),
                                self.recorder[1], 0.0, [float(v) for v in y0])
        return integrate(
            self.rhs, y0, self.T, self.h, self.decimation,
            recorder=self.recorder, sid=self.sid, seed=seed, meta=self.meta,
            loop=loop,
        )


def _initial_gain(keyword, stage, value):
    """value as a float, once checked positive."""
    _check(value > 0.0, "%s: initial gain k%d must be positive, got %r", keyword, stage, value)
    return float(value)


# -- two-state numeric benchmark ------------------------------------------


def _n2_drift1(xb, th):
    return th[0] * xb[0]


def _n2_gain1(xb, th):
    return th[0] * (1.0 + xb[1] * xb[1] / 5.0)


def _n2_drift2(xb, th):
    return th[1] * xb[0] * xb[1]


def _n2_gain2(xb, th):
    return th[1] * (1.0 + xb[2] * xb[2] / 7.0)


def _n2_rho1(xb):
    return 1.0


def _n2_phi1(xb):
    return 1.0 + xb[1] * xb[1] / 5.0


def _n2_rho2(xb):
    return (1.0 + xb[0] * xb[0] + xb[1] * xb[1]) / 4.0


def _n2_psi2_closed_form(z1, k1, x1, x2, mu1, gamma1):
    """The benchmark's published second-stage gain shape."""
    rho2 = _n2_rho2((x1, x2))
    phi1 = _n2_phi1((x1, x2))
    mk = mu1 * k1
    return (
        (1.0 + 2.0 * mk) * rho2
        + 8.0 * gamma1 * mu1 * (z1 * z1)
        + phi1
        + 1.0
        + 2.0 * (1.0 + phi1 + 2.0 * mk * phi1) * mk
    )


def numeric2d(
    mode="paper",
    theta=(1.0, 2.0),
    theta_box=None,
    x0=(-2.0, 3.0),
    k0=(0.01, 0.01),
    mu=(0.2, 0.2),
    gamma=(0.2, 0.2),
    deadzone=0.0,
    smoothing=1e-6,
    sign=1.0,
    T=100.0,
    h=1e-3,
    decimation=100,
):
    theta = tuple(float(v) for v in theta)
    if theta_box is None:
        theta_box = tuple((v, v) for v in theta)
    theta_box = tuple((float(lo), float(hi)) for lo, hi in theta_box)
    for v, (lo, hi) in zip(theta, theta_box):
        _check(lo <= v <= hi, "theta %r leaves its declared box", theta)
    for i, (lo, hi) in enumerate(theta_box, 1):
        _check(lo > 0.0, "theta_box[%d] must be a positive interval, got (%r, %r)", i, lo, hi)

    # envelope constants follow the box: |th1 x1| <= th1_hi * 1 * |x1|,
    # |th2 x1 x2| <= th2_hi * rho2 * (|x1|+|x2|), gains bracketed by the box
    # edges times the declared phi caps
    oracle = OracleConstants(
        b=(theta_box[0][0], theta_box[1][0]),
        B=(theta_box[0][1], theta_box[1][1]),
        c=(theta_box[0][1], theta_box[1][1]),
    )
    spec = PlantSpec(drift=(_n2_drift1, _n2_drift2), gain=(_n2_gain1, _n2_gain2))
    bounds = BoundSpec(rho=(_n2_rho1, _n2_rho2), phi=(_n2_phi1,))
    mu = tuple(float(v) for v in mu)
    gamma = tuple(float(v) for v in gamma)
    k0 = tuple(_initial_gain("k0", i, v) for i, v in enumerate(k0, 1))
    _check(mode in MODES, "mode must be %s, got %r", " or ".join(map(repr, MODES)), mode)
    stages = None
    if mode == "paper":
        mu1, gamma1 = mu[0], gamma[0]
        stages = (
            lambda z, k, x: 2.0,
            lambda z, k, x: _n2_psi2_closed_form(z[0], k[0], x[0], x[1], mu1, gamma1),
        )
    params = DesignParams(
        mu=mu,
        gamma=gamma,
        deadzone=float(deadzone),
        smoothing=float(smoothing),
        paper_stages=stages,
    )
    stack = ControllerStack(bounds, params)

    def law(x, k):
        ev = stack.evaluate(x, k)
        shapes = ev.psi if mode == "paper" else (*ev.psi, ev.eta[1])
        return ev.z, ev.alpha[-1], stack.gain_rates(ev), shapes

    return Scenario(
        sid="numeric-2d",
        x0=tuple(float(v) for v in x0),
        adaptive=(1, 2),
        k0=k0,
        theta=UncertaintyProfile(box=theta_box),
        bounds=bounds,
        oracle=oracle,
        stack=stack,
        plant=lambda t, x, u: spec.rates(x, u, theta),
        law=law,
        extra=("psi1", "psi2", "eta2") if mode == "auto" else ("psi1", "psi2"),
        T=T,
        h=h,
        decimation=decimation,
        sign=sign,
        meta={"mu": list(mu), "gamma": list(gamma)},
    )


# -- missile roll channel --------------------------------------------------


def stt_missile(
    roll_deg=10.0,
    rate=0.0,
    defl=0.0,
    k1=5.0,
    mu2=0.5,
    mu3=0.5,
    gamma2=0.1,
    gamma3=0.1,
    k20=0.1,
    k30=0.1,
    epsilon=0.1,
    s=0.42,
    l=0.68,
    jx=100.0,
    tau_a=0.01,
    rho_air=0.7361,
    v_mean=200.0,
    v_amp=0.1,
    v_freq=2.0,
    mx_mean=2.12,
    mx_amp=0.2,
    mx_freq=1.0,
    xi_const=1.0,
    sign=1.0,
    T=20.0,
    h=1e-3,
    decimation=20,
):
    def speed(t):
        return v_mean * (1.0 + v_amp * cos(v_freq * t))

    def mx_slope(t):
        return mx_mean * (1.0 + mx_amp * sin(mx_freq * t))

    # cos and sin reach -1 and 1: a profile mean * (1 + amp * wave), amp >= 0,
    # is positive at every t exactly when mean > 0 and amp < 1
    for what, p, mean, amp, freq in (("speed", "v", v_mean, v_amp, v_freq),
                                     ("moment-slope", "mx", mx_mean, mx_amp, mx_freq)):
        _check(mean > 0.0, "%s_mean must be positive, got %r", p, mean)
        _check(0.0 <= amp < 1.0, "%s_amp must lie in [0, 1), or the %s profile is not "
               "positive; got %r", p, what, amp)
        _check(freq >= 0.0, "%s_freq must be >= 0, got %r", p, freq)
    mparams = MissileParams(
        s=s, l=l, jx=jx, tau_a=tau_a, rho_air=rho_air, speed=speed, mx_slope=mx_slope
    )
    box = (
        (v_mean * (1.0 - v_amp), v_mean * (1.0 + v_amp)),
        (mx_mean * (1.0 - mx_amp), mx_mean * (1.0 + mx_amp)),
    )
    design = MissileDesign(
        k1=k1,
        mu2=mu2,
        mu3=mu3,
        gamma2=gamma2,
        gamma3=gamma3,
        epsilon=epsilon,
        xi_const=xi_const,
    )

    def law(x, k):
        cmd, kd2, kd3, diag = missile_control(x, k, design)
        roll_deg = x[0] * (180.0 / math.pi)  # the bits of math.degrees, on a Var too
        return (diag.z1, diag.z2, diag.z3), cmd, (kd2, kd3), (diag.psi3, roll_deg)

    return Scenario(
        sid="stt-missile",
        x0=(math.radians(roll_deg), float(rate), float(defl)),
        adaptive=(2, 3),
        k0=(_initial_gain("k20", 2, k20), _initial_gain("k30", 3, k30)),
        theta=UncertaintyProfile(box=box),
        plant=lambda t, x, u: stt_dynamics(x, t, u, mparams),
        law=law,
        extra=("psi3", "roll_deg"),
        T=T,
        h=h,
        decimation=decimation,
        sign=sign,
        meta={"mu": [mu2, mu3], "gamma": [gamma2, gamma3]},
    )


SCENARIOS = {"numeric-2d": numeric2d, "stt-missile": stt_missile}
SCENARIO_IDS = tuple(sorted(SCENARIOS))


def build(sid, **overrides):
    """Construct a registered scenario, applying keyword overrides."""
    try:
        factory = SCENARIOS[sid]
    except KeyError:
        raise ValueError(
            "unknown scenario %r; registered: %s" % (sid, ", ".join(SCENARIO_IDS))
        )
    return factory(**overrides)
