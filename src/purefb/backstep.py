"""Adaptive high-gain backstepping synthesis for pure-feedback cascades.

Stage i uses the error coordinates z_1 = x_1, z_i = x_i - alpha_{i-1} and the
virtual control

    alpha_i = -mu_i k_i psi_i^2 z_i,      dk_i/dt = gamma_i psi_i^2 z_i^2,

where psi_i is a gain-shape function dominating every cross term of the
stage-i error derivative.  Both directions of the error transform run
through one forward sweep, ``ControllerStack._sweep``, where alpha_i is
written once: ``evaluate`` starts it from x (z_i = x_i - alpha_{i-1}),
``reconstruct`` from z (x_i = z_i + alpha_{i-1}).

psi_1 = rho_1 + 1.  For i >= 2 the shape is psi_i = eta_i + phi_{i-1} + 1
with eta_i built constructively:

  * reconstruct x-bar from (z-bar, k-bar),
  * differentiate alpha_{i-1} with respect to all state and gain arguments
    by a forward pass (derivatives wrapped in smooth_abs),
  * majorize each |x_q| by |z_q| + mu_{q-1} k_{q-1} psi_{q-1}^2 |z_{q-1}|
    and collect the bracket
        rho_i sum|x_j|
        + sum_j |d alpha_{i-1}/d x_j| (rho_j sum_{l<=j}|x_l| + phi_j |x_{j+1}|)
        + sum_j gamma_j |d alpha_{i-1}/d k_j| psi_j^2 z_j^2
    into nonnegative coefficients c_q of |z_q|,
  * eta_i = sum_q c_q, which dominates the bracket over sum|z_q|.

Because eta_i itself contains a derivative pass, synthesizing stage i+1
differentiates through it; the dual-number tower in ``autodiff`` makes that
legal.  The tower depth grows with the stage index, so automatic synthesis
is limited to four stages.  A design or bound set that cannot be
synthesized raises a plain ValueError.

``ControllerStack`` is this constructive synthesis only: a law with shapes
derived by hand (numeric-2d's published one) lives in ``scenarios``.  Both
numeric-2d laws take their gain update, dead zone included, from
``DesignParams.gain_rates``; ``missile.missile_control`` writes its own
gamma_2 z_2^2 and gamma_3 psi_3^2 z_3^2, since dk_2/dt enters psi_3.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .autodiff import partial, seed, select_lt, smooth_abs

__all__ = ["ControllerStack", "DesignParams", "StageEval"]

MAX_AUTO_STAGES = 4


@dataclass(frozen=True)
class DesignParams:
    """Per-stage design constants of the adaptive controller."""

    mu: tuple
    gamma: tuple
    deadzone: float = 0.0
    smoothing: float = 1e-6

    def __post_init__(self):
        n = len(self.mu)
        if len(self.gamma) != n:
            raise ValueError("mu and gamma must share one length")
        for name, vals in (("mu", self.mu), ("gamma", self.gamma)):
            for i, v in enumerate(vals):
                if not v > 0.0:
                    raise ValueError(
                        "%s[%d] must be positive, got %r" % (name, i + 1, v)
                    )
        if not self.deadzone >= 0.0:
            raise ValueError("deadzone must be >= 0")
        if not self.smoothing > 0.0:
            raise ValueError("smoothing must be positive")

    @property
    def n(self):
        return len(self.mu)

    def gain_rates(self, psi, z):
        """Update law gamma_i psi_i^2 z_i^2 of each stage from shapes psi and
        errors z; the dead zone is a ``select_lt``, so it traces branch-free."""
        dz = self.deadzone
        rates = []
        for g, ps, zi in zip(self.gamma, psi, z):
            rate = g * ps * ps * zi * zi
            rates.append(select_lt(abs(zi), dz, 0.0, rate) if dz > 0.0 else rate)
        return rates


class StageEval(NamedTuple):
    """One forward sweep of the controller at a state/gain point."""

    z: list
    psi: list
    eta: list
    alpha: list


class ControllerStack:
    """Synthesized stage functions for one bound/design pair.

    All evaluation methods are generic over the dual-number scalar tower, so
    any of them can sit inside a differentiation pass of a later stage.
    """

    def __init__(self, bounds, params):
        n = params.n
        if bounds is None:
            raise ValueError("automatic synthesis needs bound functions")
        if bounds.n != n:
            raise ValueError("bound and design stage counts differ")
        if n > MAX_AUTO_STAGES:
            raise ValueError(
                "automatic synthesis supports at most %d stages; the "
                "derivative tower depth grows with the stage index"
                % MAX_AUTO_STAGES
            )
        self.n = n
        self.params = params
        self.bounds = bounds

    # -- forward sweeps ----------------------------------------------------

    def _sweep(self, v, k, m, from_z):
        """The one forward sweep over stages 0..m-1, from x or from z.

        v holds state coordinates, or error coordinates when from_z; k holds
        the gains.  Returns (x, StageEval).  From x, alpha covers every
        stage; from z, every stage but the last, which x-bar does not need.
        """
        mu = self.params.mu
        x = [v[0]] if from_z else v
        z, psi, eta, alpha = [], [], [], []
        for st in range(m):
            if st == 0:
                zi = v[0]
            elif from_z:
                zi = v[st]
                x.append(zi + alpha[st - 1])
            else:
                zi = v[st] - alpha[st - 1]
            z.append(zi)
            if st == 0:  # psi_1 = rho_1 + 1; eta exists from stage 2 on
                ps, et = self.bounds.rho[0](x[:1]) + 1.0, None
            else:
                et = self._eta_core(st, z, k, x, psi)
                ps = et + self.bounds.phi[st - 1](x[: st + 1]) + 1.0
            psi.append(ps)
            eta.append(et)
            if from_z and st == m - 1:
                break
            body = ps * ps
            alpha.append(-(mu[st] * k[st] * body * zi))
        return x, StageEval(z, psi, eta, alpha)

    def evaluate(self, x, k, upto=None):
        """Forward sweep over stages 0..upto-1 from state coordinates.

        x and k are sequences of generic scalars with at least ``upto``
        entries; alpha[n-1] is the actual plant input.
        """
        return self._sweep(x, k, self.n if upto is None else upto, False)[1]

    def reconstruct(self, zbar, kbar):
        """Invert the error transform: x-bar from (z-bar, k-bar).

        kbar needs len(zbar) - 1 entries.  Returns (x, psi, eta, alpha) with
        alpha covering stages below the last.
        """
        x, ev = self._sweep(zbar, kbar, len(zbar), True)
        return x, ev.psi, ev.eta, ev.alpha

    def _eta_core(self, st, z, k, x, psi):
        """Dominance coefficient of stage st (0-based, st >= 1).

        z, k, x, psi are the sweep prefixes; one fresh differentiation pass
        of alpha_{st-1} with respect to (x_1..x_st, k_1..k_st) runs inside.
        """
        i = st
        eps = self.params.smoothing
        mu = self.params.mu
        gamma = self.params.gamma
        rho = self.bounds.rho
        phi = self.bounds.phi
        duals, tag = seed([x[j] for j in range(i)] + [k[j] for j in range(i)])
        xs = duals[:i]
        ks = duals[i:]
        a_prev = self.evaluate(xs, ks, upto=i).alpha[i - 1]
        dax = [smooth_abs(partial(a_prev, j, tag), eps) for j in range(i)]
        dak = [smooth_abs(partial(a_prev, i + j, tag), eps) for j in range(i)]
        # weight of |z_{r}| contributed by the majorant of |x_{r+1}|
        w1 = [mu[r] * k[r] * psi[r] * psi[r] for r in range(i)]
        c = []
        t0 = rho[i](x[: i + 1])
        for r in range(i + 1):
            c.append(t0)
        for r in range(i):
            c[r] = c[r] + t0 * w1[r]
        for j in range(i):
            arv = dax[j] * rho[j](x[: j + 1])
            for r in range(j + 1):
                c[r] = c[r] + arv
            for r in range(j):
                c[r] = c[r] + arv * w1[r]
            apv = dax[j] * phi[j](x[: j + 2])
            c[j + 1] = c[j + 1] + apv
            c[j] = c[j] + apv * w1[j]
            c[j] = c[j] + gamma[j] * dak[j] * psi[j] * psi[j] * smooth_abs(z[j], eps)
        eta = c[0]
        for r in range(1, i + 1):
            eta = eta + c[r]
        return eta
