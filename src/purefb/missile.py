"""STT missile roll-channel model and its three-step adaptive controller.

The roll channel of a skid-to-turn airframe, with pitch/yaw coupling
ignored, is the cascade

    d(roll)/dt  = rate
    d(rate)/dt  = rho_air V(t)^2 s l mx(t) / (2 Jx) * defl
    d(defl)/dt  = (cmd - defl) / tau_a

with a first-order actuator lag and the positive flight-condition profiles
V(t) = v_mean (1 + v_amp cos(v_freq t)), mx(t) = mx_mean (1 + mx_amp sin(mx_freq t)).
All angles are radians internally.

The controller fixes the first gain k1, adapts k2 and k3, and uses one
explicit gain shape on the last stage:

    z1 = roll,  z2 = rate + k1 z1,  z3 = defl + mu2 k2 z2,
    dk2/dt = gamma2 z2^2   (computed first, psi3 depends on it),
    psi3 = mu2 k2 + mu2 dk2 + phi2 mu2^2 k2^2 + phi2 mu2 k2 / 2
           + mu2 k1^2 k2 / sqrt(epsilon) + mu2 k1 k2 + phi2 + 1,
    dk3/dt = gamma3 psi3^2 z3^2,
    cmd = -mu3 k3 psi3^2 z3,

with phi2 = constant xi_const, a positive weight (1 by default).  The
completion-of-squares constant epsilon must satisfy k1 - 3 epsilon / 4 > 0,
which keeps the first error term negative definite.  ``stt_dynamics`` is
a scenario plant once ``params`` is bound, ``missile_control`` a law once
``design`` is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .autodiff import cos, sin

__all__ = ["MissileDesign", "MissileParams", "missile_control", "stt_dynamics"]


@dataclass(frozen=True)
class MissileParams:
    """Airframe constants and flight-condition profiles; profiles checked first."""

    s: float  # reference area, m^2
    l: float  # reference length, m
    jx: float  # roll inertia, kg m^2
    tau_a: float  # actuator time constant, s
    rho_air: float  # air density, kg/m^3
    v_mean: float  # airspeed profile: mean, m/s
    v_amp: float  # relative amplitude
    v_freq: float  # rad/s
    mx_mean: float  # roll-moment slope profile: mean, 1/rad
    mx_amp: float  # relative amplitude
    mx_freq: float  # rad/s

    def __post_init__(self):
        # cos and sin reach -1 and 1: a profile mean * (1 + amp * wave), amp >= 0,
        # is positive at every t exactly when mean > 0 and amp < 1
        for what, p, mean, amp, freq in (
                ("speed", "v", self.v_mean, self.v_amp, self.v_freq),
                ("moment-slope", "mx", self.mx_mean, self.mx_amp, self.mx_freq)):
            if not mean > 0.0:
                raise ValueError("%s_mean must be positive, got %r" % (p, mean))
            if not 0.0 <= amp < 1.0:
                raise ValueError("%s_amp must lie in [0, 1), or the %s profile is not "
                                 "positive; got %r" % (p, what, amp))
            if not freq >= 0.0:
                raise ValueError("%s_freq must be >= 0, got %r" % (p, freq))
        for name in ("s", "l", "jx", "tau_a", "rho_air"):
            if not getattr(self, name) > 0.0:
                raise ValueError("%s must be positive, got %r" % (name, getattr(self, name)))

    def moment_gain(self, t):
        """Deflection-to-roll-acceleration gain at time t, 1/s^2."""
        v = self.v_mean * (1.0 + self.v_amp * cos(self.v_freq * t))
        # the slope inline: the traced tape keeps its operation order
        return (self.rho_air * v * v * self.s * self.l
                * (self.mx_mean * (1.0 + self.mx_amp * sin(self.mx_freq * t))) / (2.0 * self.jx))


@dataclass(frozen=True)
class MissileDesign:
    """Controller constants for the three-step roll design."""

    k1: float
    mu2: float
    mu3: float
    gamma2: float
    gamma3: float
    epsilon: float
    xi_const: float = 1.0

    def __post_init__(self):
        for name in ("k1", "mu2", "mu3", "gamma2", "gamma3", "epsilon", "xi_const"):
            if not getattr(self, name) > 0.0:
                raise ValueError("%s must be positive, got %r" % (name, getattr(self, name)))
        if not self.k1 - 0.75 * self.epsilon > 0.0:
            raise ValueError(
                "k1 - 3*epsilon/4 must be positive, got k1=%g, epsilon=%g"
                % (self.k1, self.epsilon)
            )


def stt_dynamics(t, x, u, params):
    """Open-loop roll-channel derivative under deflection command u."""
    roll, rate, defl = x
    return (
        rate,
        params.moment_gain(t) * defl,
        (u - defl) / params.tau_a,
    )


def missile_control(x, k, design):
    """The law at state x and gains k = (k2, k3).

    Returns ((z1, z2, z3), cmd, (dk2, dk3), (psi3, roll_deg)).  dk2 is
    evaluated before psi3, which depends on it.  The law reads neither time
    nor the airframe: the flight condition enters only through
    ``stt_dynamics``.
    """
    roll, rate, defl = x
    k2, k3 = k
    d = design
    z1 = roll
    z2 = rate + d.k1 * z1
    z3 = defl + d.mu2 * k2 * z2
    dk2 = d.gamma2 * z2 * z2
    phi2 = d.xi_const
    m2 = d.mu2
    psi3 = (
        m2 * k2
        + m2 * dk2
        + phi2 * m2 * m2 * k2 * k2
        + 0.5 * phi2 * m2 * k2
        + m2 * d.k1 * d.k1 * k2 / math.sqrt(d.epsilon)
        + m2 * d.k1 * k2
        + phi2
        + 1.0
    )
    dk3 = d.gamma3 * psi3 * psi3 * z3 * z3
    cmd = -(d.mu3 * k3 * psi3 * psi3 * z3)
    roll_deg = roll * (180.0 / math.pi)  # the bits of math.degrees, on a Var too
    return (z1, z2, z3), cmd, (dk2, dk3), (psi3, roll_deg)
