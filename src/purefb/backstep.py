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
is limited to four stages.

A scenario may instead supply externally derived gain shapes ("paper"
stages): plain callables psi(z, k, x) of the growing prefixes (k holds the
gains of the stages below, x the reconstructed state prefix).  Their shape
enters the virtual control unsquared, alpha_i = -mu_i k_i psi_i z_i; the
update law, written once in ``ControllerStack.gain_rates``, always squares
the shape.  Supplied shapes must satisfy psi_i >= 1 by their own algebra
(see docs/modeling-notes.md); building a stack samples nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

from .autodiff import partial, seed, select_lt, smooth_abs

__all__ = [
    "ControllerStack",
    "DesignParams",
    "StageEval",
    "SynthesisError",
]

MAX_AUTO_STAGES = 4


class SynthesisError(ValueError):
    """A design parameter set or bound description cannot be synthesized."""


@dataclass(frozen=True)
class DesignParams:
    """Per-stage design constants of the adaptive controller.

    paper_stages holds one gain shape psi(z, k, x) per stage, or None to
    build the shapes from the bounds.  Supplied shapes must stay >= 1.
    """

    mu: tuple
    gamma: tuple
    deadzone: float = 0.0
    smoothing: float = 1e-6
    paper_stages: Optional[tuple] = None

    def __post_init__(self):
        n = len(self.mu)
        if len(self.gamma) != n:
            raise SynthesisError("mu and gamma must share one length")
        for name, vals in (("mu", self.mu), ("gamma", self.gamma)):
            for i, v in enumerate(vals):
                if not v > 0.0:
                    raise SynthesisError(
                        "%s[%d] must be positive, got %r" % (name, i + 1, v)
                    )
        if self.deadzone < 0.0:
            raise SynthesisError("deadzone must be >= 0")
        if not self.smoothing > 0.0:
            raise SynthesisError("smoothing must be positive")
        if self.paper_stages is not None and len(self.paper_stages) != n:
            raise SynthesisError("paper mode needs one gain shape per stage")

    @property
    def n(self):
        return len(self.mu)

    @property
    def mode(self):
        """Either "auto" (shapes synthesized from the bounds) or "paper"."""
        return "auto" if self.paper_stages is None else "paper"


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
        if params.mode == "auto":
            if bounds is None:
                raise SynthesisError("automatic synthesis needs bound functions")
            if bounds.n != n:
                raise SynthesisError("bound and design stage counts differ")
            if n > MAX_AUTO_STAGES:
                raise SynthesisError(
                    "automatic synthesis supports at most %d stages; the "
                    "derivative tower depth grows with the stage index"
                    % MAX_AUTO_STAGES
                )
        self.n = n
        self.params = params
        self.bounds = bounds

    # -- forward sweeps ----------------------------------------------------

    def _stage_psi_eta(self, st, z, k, x, psi):
        """Gain shape (and dominance coefficient, auto mode) of stage st."""
        paper = self.params.paper_stages
        if paper is not None:
            return paper[st](z, k, x), None
        if st == 0:
            return self.bounds.rho[0](x[:1]) + 1.0, None
        et = self._eta_core(st, z, k, x, psi)
        return et + self.bounds.phi[st - 1](x[: st + 1]) + 1.0, et

    def _sweep(self, v, k, m, from_z):
        """The one forward sweep over stages 0..m-1, from x or from z.

        v holds state coordinates, or error coordinates when from_z; k holds
        the gains.  Returns (x, StageEval).  From x, alpha covers every
        stage; from z, every stage but the last, which x-bar does not need.
        """
        mu = self.params.mu
        paper = self.params.paper_stages is not None
        x = [v[0]] if from_z else v
        z = []
        psi = []
        eta = []
        alpha = []
        for st in range(m):
            if st == 0:
                zi = v[0]
            elif from_z:
                zi = v[st]
                x.append(zi + alpha[st - 1])
            else:
                zi = v[st] - alpha[st - 1]
            z.append(zi)
            ps, et = self._stage_psi_eta(st, z, k, x, psi)
            psi.append(ps)
            eta.append(et)
            if from_z and st == m - 1:
                break
            body = ps if paper else ps * ps
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

    # -- point evaluations -------------------------------------------------

    def alpha_value(self, stage, xbar, kbar):
        """Virtual control of a 1-based stage at state coordinates."""
        return self.evaluate(xbar, kbar, upto=stage).alpha[stage - 1]

    def gain_rates(self, ev):
        """Update law gamma_i psi_i^2 z_i^2 of each stage of a sweep ev.

        The dead zone is written with ``select_lt``, so a traced sweep
        compiles it to a conditional expression rather than a guard.
        """
        dz = self.params.deadzone
        rates = []
        for g, ps, zi in zip(self.params.gamma, ev.psi, ev.z):
            rate = g * ps * ps * zi * zi
            rates.append(select_lt(abs(zi), dz, 0.0, rate) if dz > 0.0 else rate)
        return rates

