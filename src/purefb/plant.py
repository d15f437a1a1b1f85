"""Pseudo-affine pure-feedback plant descriptions and their assumption data.

A plant is a lower-triangular cascade

    dx_i/dt = f_i(x_1..x_i, theta) + g_i(x_1..x_{i+1}, theta) * x_{i+1}

for i < n, with the input u taking the role of x_{n+1} in the last stage.
Synthesis never sees the true f_i/g_i, only the declared bound functions:
rho_i dominating the drift growth and phi_i bounding the control gain from
above.  The true bounding constants are a verification-only oracle.  A
description that breaks its contract raises a plain ValueError.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["BoundSpec", "OracleConstants", "PlantSpec", "UncertaintyProfile"]


@dataclass(frozen=True)
class PlantSpec:
    """Stage functions of the cascade.

    drift[i] maps ((x_1..x_{i+1}), theta) -> real with drift[i](0, theta) = 0;
    gain[i] maps ((x_1..x_{i+1}, next), theta) -> real where ``next`` is
    x_{i+2} for inner stages and the input u for the last one.  Indices are
    0-based; both tuples have length n.
    """

    drift: tuple
    gain: tuple

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("state dimension must be >= 1")
        if len(self.gain) != self.n:
            raise ValueError(
                "drift/gain must each supply one function per stage"
            )

    @property
    def n(self):
        return len(self.drift)

    def stage_rate(self, i, x, next_val, theta):
        """dx_{i+1}/dt at 0-based stage i given the downstream value."""
        xbar = x[: i + 1]
        return self.drift[i](xbar, theta) + self.gain[i](
            tuple(xbar) + (next_val,), theta
        ) * next_val

    def rates(self, x, u, theta):
        """dx/dt of the cascade: x_{i+1} drives inner stage i, u the last."""
        return [self.stage_rate(i, x, v, theta) for i, v in enumerate((*x[1:], u))]


@dataclass(frozen=True)
class BoundSpec:
    """Known growth envelopes used by synthesis.

    rho[i] maps (x_1..x_{i+1}) -> real >= 0 and dominates the drift:
    |f_i| <= c_i rho_i sum|x_j|.  phi[i] maps (x_1..x_{i+2}) -> real > 0 and
    bounds the gain of inner stage i+1 from above, so phi has n - 1 entries.
    All bound functions must be built from the supported smooth primitives
    so they can be differentiated.
    """

    rho: tuple
    phi: tuple

    def __post_init__(self):
        if len(self.phi) != self.n - 1:
            raise ValueError("phi must cover stages 1..n-1")

    @property
    def n(self):
        return len(self.rho)


@dataclass(frozen=True)
class UncertaintyProfile:
    """Declared uncertainty box, one (lo, hi) pair per parameter."""

    box: tuple


@dataclass(frozen=True)
class OracleConstants:
    """True bounding constants of one concrete scenario; verification only.

    The controller path never reads these: synthesis receives PlantSpec,
    BoundSpec and design parameters and nothing else.  b/B bracket the
    control gains, c scales the drift envelopes.
    """

    b: tuple
    B: tuple
    c: tuple

    def __post_init__(self):
        n = len(self.b)
        if len(self.B) != n or len(self.c) != n:
            raise ValueError("oracle constant tuples must share one length")
        for i in range(n):
            if not 0.0 < self.b[i] <= self.B[i]:
                raise ValueError(
                    "need 0 < b[%d] <= B[%d], got %r, %r"
                    % (i + 1, i + 1, self.b[i], self.B[i])
                )
            if not self.c[i] >= 0.0:
                raise ValueError("c[%d] must be >= 0" % (i + 1,))

    @property
    def n(self):
        return len(self.b)

    def vartheta(self, i):
        """max(1, c_1..c_{i+1}, B_1..B_{i+1}) for 0-based stage i."""
        return max(1.0, max(self.c[: i + 1]), max(self.B[: i + 1]))

    def beta(self, i):
        """Per-stage drift coefficient of the integrated energy bound."""
        if i == 0:
            return self.c[0]
        th = self.vartheta(i)
        return (i + 1) * th * th + 1.0

    def sigma(self, i):
        return self.B[i] ** 2

    def epsilon(self):
        """Single constant absorbing every cross term of the energy budget."""
        n = self.n
        cands = [self.beta(i) for i in range(n)]
        cands.append(float(n))
        for j in range(1, n):
            cands.append((n - j) + self.sigma(j - 1))
        return max(cands)
