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
is allowed to see, the oracle constants only the verifier may read, the
closed-loop right-hand side over the augmented state

    y = (plant state, adaptive gains, integrals of z_i^2),

and a sample recorder producing the documented column layout
t, x*, z*, k*, u, psi*, eta* (plus trailing integral accumulator columns,
and a degrees copy of the roll angle for the missile).

numeric-2d has one source for each piece of its loop: the plant rates come
from ``PlantSpec.stage_rate``, the control and the gain update law from
``ControllerStack``, assembled by ``rhs_reference``.  ``rhs`` is that same
function traced (see ``tape``) by ``Scenario.run`` at the first evaluation
point of a run, (0, y0), and compiled to straight-line Python,
bit-identical to ``rhs_reference``; building a scenario does not trace.
The missile loop is integrated as written, since its flight condition
calls ``math.cos``/``math.sin`` of t.

The exact squared-error integrals ride along as ODE components so the
update-law energy identity gamma_i * int z_i^2 = k_i(T) - k_i(0) can be
checked without quadrature error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

from .backstep import ControllerStack, DesignParams, PaperStage, synthesize
from .missile import MissileDesign, MissileParams, missile_control, stt_dynamics
from .plant import BoundSpec, OracleConstants, PlantSpec, UncertaintyProfile
from .simkit import Trajectory, integrate
from .tape import Traced

__all__ = ["Scenario", "build", "scenario_ids", "SCENARIO_IDS"]


@dataclass
class Scenario:
    """One runnable closed loop plus everything the verifier needs."""

    sid: str
    n: int
    x0: tuple
    adaptive: tuple  # 1-based stages with gain adaptation
    k0: tuple  # initial gains, aligned with adaptive
    theta: UncertaintyProfile
    plant: Optional[PlantSpec]
    bounds: Optional[BoundSpec]
    oracle: Optional[OracleConstants]
    stack: Optional[ControllerStack]
    rhs: Callable  # what run() integrates
    rhs_reference: Callable  # the generic evaluation path
    recorder: tuple  # (column names, row builder)
    T: float
    h: float
    decimation: int
    meta: dict = field(default_factory=dict)
    missile_parts: Optional[tuple] = None  # (MissileParams, MissileDesign)
    traced: Optional[Traced] = None  # compiles rhs_reference into rhs

    def y0(self):
        return tuple(self.x0) + tuple(self.k0) + (0.0,) * len(self.adaptive)

    def run(self, T=None, h=None, decimation=None, seed=None, abort_limit=1e9):
        y0 = self.y0()
        if self.traced is not None:
            # the one place rhs is traced: its first evaluation is at (0, y0)
            self.traced.trace(0.0, [float(v) for v in y0])
        return integrate(
            self.rhs,
            y0,
            self.T if T is None else T,
            self.h if h is None else h,
            self.decimation if decimation is None else decimation,
            recorder=self.recorder,
            sid=self.sid,
            seed=seed,
            abort_limit=abort_limit,
            meta=self.meta,
        )


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


def _n2_phi2(xb):
    return 1.0 + xb[2] * xb[2] / 7.0


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
        if not lo <= v <= hi:
            raise ValueError("theta %r leaves its declared box" % (theta,))

    profile = UncertaintyProfile(value=lambda t: theta, box=theta_box)
    # envelope constants follow the box: |th1 x1| <= th1_hi * 1 * |x1|,
    # |th2 x1 x2| <= th2_hi * rho2 * (|x1|+|x2|), gains bracketed by the box
    # edges times the declared phi caps
    oracle = OracleConstants(
        b=(theta_box[0][0], theta_box[1][0]),
        B=(theta_box[0][1], theta_box[1][1]),
        c=(theta_box[0][1], theta_box[1][1]),
    )
    plant = PlantSpec(
        n=2, drift=(_n2_drift1, _n2_drift2), gain=(_n2_gain1, _n2_gain2)
    )
    bounds = BoundSpec(
        n=2, rho=(_n2_rho1, _n2_rho2), phi=(_n2_phi1, _n2_phi2)
    )
    mu = tuple(float(v) for v in mu)
    gamma = tuple(float(v) for v in gamma)
    k0 = tuple(float(v) for v in k0)
    if mode == "paper":
        mu1, gamma1 = mu[0], gamma[0]
        stages = (
            PaperStage(psi=lambda z, k, x: 2.0, alpha_psi_power=1),
            PaperStage(
                psi=lambda z, k, x: _n2_psi2_closed_form(
                    z[0], k[0], x[0], x[1], mu1, gamma1
                ),
                alpha_psi_power=1,
            ),
        )
    else:
        stages = None
    params = DesignParams(
        mu=mu,
        gamma=gamma,
        k0=k0,
        deadzone=float(deadzone),
        smoothing=float(smoothing),
        mode=mode,
        paper_stages=stages,
    )
    stack = synthesize(bounds, params)

    sign = float(sign)
    value = profile.value

    def rhs_reference(t, y):
        x = (y[0], y[1])
        th = value(t)
        ev = stack.evaluate(x, (y[2], y[3]))
        z1, z2 = ev.z
        return (
            plant.stage_rate(0, x, y[1], th),
            plant.stage_rate(1, x, sign * ev.alpha[1], th),
            *stack.gain_rates(ev),
            z1 * z1,
            z2 * z2,
        )

    traced = Traced(rhs_reference)

    columns = ["x1", "x2", "z1", "z2", "k1", "k2", "u", "psi1", "psi2"]
    if mode == "auto":
        columns.append("eta2")
    columns += ["intz1", "intz2"]

    def build_row(t, y):
        ev = stack.evaluate((y[0], y[1]), (y[2], y[3]))
        row = [y[0], y[1], ev.z[0], ev.z[1], y[2], y[3], sign * ev.alpha[1],
               ev.psi[0], ev.psi[1]]
        if ev.eta[1] is not None:
            row.append(ev.eta[1])
        row += [y[4], y[5]]
        return row

    meta = {
        "scenario": "numeric-2d",
        "mode": mode,
        "alpha_psi_power": [s.alpha_psi_power for s in stages] if stages else [2, 2],
        "theta": list(theta),
        "theta_box": [list(edge) for edge in theta_box],
        "sign": sign,
        "deadzone": params.deadzone,
        "x_cols": ["x1", "x2"],
        "z_cols": ["z1", "z2"],
        "k_cols": ["k1", "k2"],
        "intz_cols": ["intz1", "intz2"],
        "adaptive": [1, 2],
        "n": 2,
        "mu": list(mu),
        "gamma": list(gamma),
    }
    return Scenario(
        sid="numeric-2d",
        n=2,
        x0=tuple(float(v) for v in x0),
        adaptive=(1, 2),
        k0=k0,
        theta=profile,
        plant=plant,
        bounds=bounds,
        oracle=oracle,
        stack=stack,
        rhs=traced.call,
        rhs_reference=rhs_reference,
        recorder=(tuple(columns), build_row),
        T=float(T),
        h=float(h),
        decimation=int(decimation),
        meta=meta,
        traced=traced,
    )


# -- missile roll channel --------------------------------------------------


def stt_missile(
    roll0_deg=10.0,
    rate0=0.0,
    defl0=0.0,
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
    if not xi_const > 0.0:
        raise ValueError("xi_const must be positive")

    def speed(t):
        return v_mean * (1.0 + v_amp * math.cos(v_freq * t))

    def mx_slope(t):
        return mx_mean * (1.0 + mx_amp * math.sin(mx_freq * t))

    mparams = MissileParams(
        s=s, l=l, jx=jx, tau_a=tau_a, rho_air=rho_air, speed=speed, mx_slope=mx_slope
    )
    mparams.check_profiles(T)
    design = MissileDesign(
        k1=k1,
        mu2=mu2,
        mu3=mu3,
        gamma2=gamma2,
        gamma3=gamma3,
        k20=k20,
        k30=k30,
        epsilon=epsilon,
        xi=lambda defl: xi_const,
    )
    profile = UncertaintyProfile(
        value=lambda t: (speed(t), mx_slope(t)),
        box=(
            (v_mean * (1.0 - abs(v_amp)), v_mean * (1.0 + abs(v_amp))),
            (mx_mean * (1.0 - abs(mx_amp)), mx_mean * (1.0 + abs(mx_amp))),
        ),
        name="flight condition",
    )
    sign = float(sign)

    def rhs(t, y):
        state = (y[0], y[1], y[2])
        cmd, kd2, kd3, diag = missile_control(state, (y[3], y[4]), t, design, mparams)
        cmd = sign * cmd
        droll, drate, ddefl = stt_dynamics(state, t, cmd, mparams)
        return (
            droll,
            drate,
            ddefl,
            kd2,
            kd3,
            diag.z2 * diag.z2,
            diag.z3 * diag.z3,
        )

    columns = (
        "x1", "x2", "x3", "z1", "z2", "z3", "k2", "k3", "u", "psi3",
        "roll_deg", "intz2", "intz3",
    )

    def build_row(t, y):
        state = (y[0], y[1], y[2])
        cmd, _, _, diag = missile_control(state, (y[3], y[4]), t, design, mparams)
        return [
            y[0], y[1], y[2], diag.z1, diag.z2, diag.z3, y[3], y[4],
            sign * cmd, diag.psi3, math.degrees(y[0]), y[5], y[6],
        ]

    meta = {
        "scenario": "stt-missile",
        "mode": "threestep",
        "roll0_deg": float(roll0_deg),
        "sign": sign,
        "x_cols": ["x1", "x2", "x3"],
        "z_cols": ["z1", "z2", "z3"],
        "k_cols": ["k2", "k3"],
        "intz_cols": ["intz2", "intz3"],
        "adaptive": [2, 3],
        "n": 3,
        "mu": [mu2, mu3],
        "gamma": [gamma2, gamma3],
        "angles": "radians (roll_deg column is the degrees copy)",
    }
    return Scenario(
        sid="stt-missile",
        n=3,
        x0=(math.radians(roll0_deg), float(rate0), float(defl0)),
        adaptive=(2, 3),
        k0=(float(k20), float(k30)),
        theta=profile,
        plant=None,
        bounds=None,
        oracle=None,
        stack=None,
        rhs=rhs,
        rhs_reference=rhs,
        recorder=(columns, build_row),
        T=float(T),
        h=float(h),
        decimation=int(decimation),
        meta=meta,
        missile_parts=(mparams, design),
    )


SCENARIOS = {"numeric-2d": numeric2d, "stt-missile": stt_missile}
SCENARIO_IDS = tuple(sorted(SCENARIOS))


def scenario_ids():
    return SCENARIO_IDS


def build(sid, **overrides):
    """Construct a registered scenario, applying keyword overrides."""
    try:
        factory = SCENARIOS[sid]
    except KeyError:
        raise ValueError(
            "unknown scenario %r; registered: %s" % (sid, ", ".join(SCENARIO_IDS))
        )
    return factory(**overrides)
