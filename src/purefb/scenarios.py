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
    ``missile``.  It declares no theta box: its flight condition is a
    known profile, held with the airframe in ``MissileParams``.

A scenario bundles the plant truth, the bound declarations the controller
is allowed to see, the oracle constants only the verifier may read, and the
closed loop as three pieces: the plant ``plant(t, x, u) -> dx/dt``, the
law ``law(x, k) -> (z, u, dk/dt, extra values)`` and the input ``sign``.
``Scenario`` alone lays out the augmented state y = (plant state x,
adaptive gains k, integrals of z_i^2) and applies the sign: it derives
``rhs_reference`` (plant rates at sign * u, gain rates, z_i^2 of each
adaptive stage) and the recorded row t, x1..xn, z1..zn, k_i, u, <extras>,
intz_i, with k_i and intz_i for each adaptive stage i.  ``build`` alone
calls a factory, whose keywords are the run-config keys by name (see
``RunConfig.scenario_overrides``); it rejects any other keyword and types
each like its default in ``DEFAULTS`` by the library's one value rule,
``simkit._typed``.  Nothing behind ``build`` converts a value.  Each
ValueError of a keyword starts with it.

numeric-2d's plant is ``PlantSpec.rates``.  Its law is picked once, at
build time: the published ``_n2_paper_law`` in paper mode, or
``ControllerStack.evaluate`` in auto mode, the only mode that builds a
stack; both take ``DesignParams.gain_rates`` as update law.  stt-missile's
plant is ``stt_dynamics`` bound to its ``MissileParams`` (flight condition
through ``autodiff.cos``/``sin``) and its law is ``missile_control`` bound to
its ``MissileDesign``.
``Scenario.run`` traces ``simkit.rk4_step`` of ``rhs_reference`` at the
run's h, abort rule included, and the row builder ``recorder`` holds,
both at (0, y0), into one compiled run loop (``tape.compile_loop``) and
hands it to ``integrate``.  A step or row the loop cannot vouch for runs on the plain
path, one at a time, and the loop goes on after it.  A run is compiled
whole or not at all: where either trace fails (the first step already
diverges, say), or where ``rhs`` is no longer ``rhs_reference``, every
step and row is a plain one.  Building a scenario does not trace.

The exact squared-error integrals ride along as ODE components so the
update-law energy identity gamma_i * int z_i^2 = k_i(T) - k_i(0) can be
checked without quadrature error.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Optional

from .backstep import ControllerStack, DesignParams
from .missile import MissileDesign, MissileParams, missile_control, stt_dynamics
from .plant import BoundSpec, OracleConstants, PlantSpec, UncertaintyProfile
from .simkit import STEP_BUDGET, _check, _typed, check_grid, integrate, rk4_step
from .tape import compile_loop

__all__ = ["Scenario", "build", "DEFAULTS", "MODES", "SCENARIO_IDS", "STEP_BUDGET"]

# numeric-2d's controller modes: the benchmark's closed-form gain shapes, or
# constructive synthesis
MODES = ("paper", "auto")


@dataclass
class Scenario:
    """One runnable closed loop plus everything the verifier needs.

    Derives from ``plant``, ``law`` and ``sign`` the one layout of y:
    ``rhs_reference``, ``rhs`` (what ``run`` integrates) and ``recorder``
    (column names, row builder); also ``n`` (from x0) and the meta entries
    x_cols, z_cols, k_cols, intz_cols, n and adaptive.  Checks its time grid
    by ``simkit.check_grid`` when built, as ``integrate`` does on each run.
    """

    sid: str
    x0: tuple
    adaptive: tuple  # 1-based stages with gain adaptation
    k0: tuple  # initial gains, aligned with adaptive
    plant: Callable  # (t, x, u) -> dx/dt
    law: Callable  # (x, k) -> (z, u, dk/dt, extra values)
    extra: tuple  # names of the law's extra values, recorded after u
    T: float
    h: float
    decimation: int
    sign: float  # the plant receives sign * u
    meta: dict = field(default_factory=dict)  # mu and gamma of the adaptive stages
    theta: Optional[UncertaintyProfile] = None  # declared box of a constant theta
    bounds: Optional[BoundSpec] = None
    oracle: Optional[OracleConstants] = None
    stack: Optional[ControllerStack] = None
    rhs_reference: Callable = field(init=False)  # the generic evaluation path
    rhs: Callable = field(init=False)  # what run() integrates
    n: int = field(init=False)

    def __post_init__(self):
        check_grid(self.T, self.h, self.decimation)
        _check(len(self.k0) == len(self.adaptive), "need one initial gain per adaptive stage")
        _check(self.sign in (1.0, -1.0), "sign must be 1.0 or -1.0, got %r", self.sign)
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
        return self.x0 + self.k0 + (0.0,) * len(self.adaptive)

    def run(self, seed=None):
        y0 = self.y0()
        # the one place that traces, step and row, both at (0, y0); the
        # traced step is a step of rhs only while rhs is rhs_reference, so
        # a replaced rhs runs as given, rows included
        loop = None
        if self.rhs is self.rhs_reference:
            loop = compile_loop(lambda t, y: rk4_step(self.rhs_reference, y, t, self.h),
                                self.recorder[1], 0.0, y0)
        return integrate(
            self.rhs, y0, self.T, self.h, self.decimation,
            recorder=self.recorder, sid=self.sid, seed=seed, meta=self.meta,
            loop=loop,
        )


def _initial_gain(keyword, stage, value):
    """value, once checked positive."""
    _check(value > 0.0, "%s: initial gain k%d must be positive, got %r", keyword, stage, value)
    return value


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


def _n2_paper_law(params, x, k):
    """The benchmark's published law (z, u, dk/dt, shapes): psi1 = 2 and the
    closed-form psi2 enter the virtual controls unsquared."""
    mu, gamma = params.mu, params.gamma
    z1 = x[0]
    alpha1 = -(mu[0] * k[0] * 2.0 * z1)
    z2 = x[1] - alpha1
    psi2 = _n2_psi2_closed_form(z1, k[0], x[0], x[1], mu[0], gamma[0])
    z, psi = (z1, z2), (2.0, psi2)
    return z, -(mu[1] * k[1] * psi2 * z2), params.gain_rates(psi, z), psi


def _numeric2d(
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
    _check(mode in MODES, "mode must be %s, got %r", " or ".join(map(repr, MODES)), mode)
    point = tuple((v, v) for v in theta)
    theta_box = point if theta_box is None else _typed("theta_box", theta_box, point)
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
    k0 = tuple(_initial_gain("k0", i, v) for i, v in enumerate(k0, 1))
    params = DesignParams(mu=mu, gamma=gamma, deadzone=deadzone, smoothing=smoothing)
    if mode == "paper":
        stack, law, extra = None, partial(_n2_paper_law, params), ("psi1", "psi2")
    else:
        stack, extra = ControllerStack(bounds, params), ("psi1", "psi2", "eta2")

        def law(x, k):
            ev = stack.evaluate(x, k)
            return ev.z, ev.alpha[-1], params.gain_rates(ev.psi, ev.z), (*ev.psi, ev.eta[1])

    return Scenario(
        sid="numeric-2d",
        x0=x0,
        adaptive=(1, 2),
        k0=k0,
        theta=UncertaintyProfile(box=theta_box),
        bounds=bounds,
        oracle=oracle,
        stack=stack,
        plant=lambda t, x, u: spec.rates(x, u, theta),
        law=law,
        extra=extra,
        T=T, h=h, decimation=decimation, sign=sign,
        meta={"mu": list(mu), "gamma": list(gamma)},
    )


# -- missile roll channel --------------------------------------------------


def _stt_missile(
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
    mparams = MissileParams(
        s=s, l=l, jx=jx, tau_a=tau_a, rho_air=rho_air, v_mean=v_mean, v_amp=v_amp,
        v_freq=v_freq, mx_mean=mx_mean, mx_amp=mx_amp, mx_freq=mx_freq,
    )
    design = MissileDesign(k1=k1, mu2=mu2, mu3=mu3, gamma2=gamma2, gamma3=gamma3,
                           epsilon=epsilon, xi_const=xi_const)

    return Scenario(
        sid="stt-missile",
        x0=(math.radians(roll_deg), rate, defl),
        adaptive=(2, 3),
        k0=(_initial_gain("k20", 2, k20), _initial_gain("k30", 3, k30)),
        plant=partial(stt_dynamics, params=mparams),
        law=partial(missile_control, design=design),
        extra=("psi3", "roll_deg"),
        T=T, h=h, decimation=decimation, sign=sign,
        meta={"mu": [mu2, mu3], "gamma": [gamma2, gamma3]},
    )


SCENARIOS = {"numeric-2d": _numeric2d, "stt-missile": _stt_missile}
SCENARIO_IDS = tuple(sorted(SCENARIOS))
# each factory's keyword defaults, read once: what build types a keyword like
DEFAULTS = {sid: {p.name: p.default for p in inspect.signature(f).parameters.values()}
            for sid, f in SCENARIOS.items()}


def build(sid, **overrides):
    """Construct a registered scenario, each keyword override typed like its default."""
    if sid not in SCENARIOS:
        raise ValueError("unknown scenario %r; registered: %s" % (sid, ", ".join(SCENARIO_IDS)))
    factory, defaults = SCENARIOS[sid], DEFAULTS[sid]
    for keyword, value in overrides.items():
        if keyword not in defaults:
            raise ValueError("%s is not a keyword of %s; its keywords are %s"
                             % (keyword, sid, ", ".join(defaults)))
        like = defaults[keyword]
        kind = type(like)
        if type(value) is not kind or kind is tuple or kind is float and not math.isfinite(value):
            overrides[keyword] = _typed(keyword, value, like)  # else typed already
    return factory(**overrides)
