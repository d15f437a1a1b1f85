"""STT missile roll-channel model and its three-step adaptive controller.

The roll channel of a skid-to-turn airframe, with pitch/yaw coupling
ignored, is the cascade

    d(roll)/dt  = rate
    d(rate)/dt  = rho_air V(t)^2 s l mx(t) / (2 Jx) * defl
    d(defl)/dt  = (cmd - defl) / tau_a

with a first-order actuator lag.  Speed and roll-moment slope vary with
time inside known positive bounds.  All angles are radians internally.

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
which keeps the first error term negative definite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

__all__ = [
    "MissileDesign",
    "MissileParams",
    "ControlDiag",
    "missile_control",
    "stt_dynamics",
]


@dataclass(frozen=True)
class MissileParams:
    """Airframe constants and time-varying flight condition profiles."""

    s: float  # reference area, m^2
    l: float  # reference length, m
    jx: float  # roll inertia, kg m^2
    tau_a: float  # actuator time constant, s
    rho_air: float  # air density, kg/m^3
    speed: Callable  # t -> airspeed, m/s
    mx_slope: Callable  # t -> roll-moment slope, 1/rad

    def __post_init__(self):
        for name in ("s", "l", "jx", "tau_a", "rho_air"):
            if not getattr(self, name) > 0.0:
                raise ValueError("%s must be positive, got %r" % (name, getattr(self, name)))

    def moment_gain(self, t):
        """Deflection-to-roll-acceleration gain at time t, 1/s^2."""
        v = self.speed(t)
        return self.rho_air * v * v * self.s * self.l * self.mx_slope(t) / (2.0 * self.jx)


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


def stt_dynamics(state, t, cmd, params):
    """Open-loop roll-channel derivative under deflection command cmd."""
    roll, rate, defl = state
    return (
        rate,
        params.moment_gain(t) * defl,
        (cmd - defl) / params.tau_a,
    )


class ControlDiag(NamedTuple):
    """Per-evaluation controller internals for recording."""

    z1: float
    z2: float
    z3: float
    psi3: float


def missile_control(state, gains, design):
    """Deflection command and gain rates at one state.

    Returns (cmd, dk2, dk3, diag).  dk2 is evaluated before psi3, which
    depends on it.  The law reads neither time nor the airframe: the flight
    condition enters only through ``stt_dynamics``.
    """
    roll, rate, defl = state
    k2, k3 = gains
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
    return cmd, dk2, dk3, ControlDiag(z1, z2, z3, psi3)
