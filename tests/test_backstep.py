"""Controller synthesis: sweeps, dominance coefficients, gain shapes."""

import numpy as np
import pytest

from purefb.autodiff import gradient, smooth_abs
from purefb.backstep import (
    MAX_AUTO_STAGES,
    ControllerStack,
    DesignParams,
    SynthesisError,
)
from purefb.plant import BoundSpec
from purefb.scenarios import _n2_phi1, _n2_rho1, _n2_rho2, numeric2d

rng = np.random.default_rng(77103)


def two_state_bounds():
    return BoundSpec(rho=(_n2_rho1, _n2_rho2), phi=(_n2_phi1,))


def auto_params(n=2, deadzone=0.0):
    return DesignParams(
        mu=(0.2,) * n, gamma=(0.2,) * n, deadzone=deadzone
    )


def three_stage_stack():
    """Mildly nonlinear synthetic cascade exercising the nested tower."""
    bounds = BoundSpec(
        rho=(
            lambda xb: 1.0,
            lambda xb: 0.5 + 0.1 * xb[0] * xb[0],
            lambda xb: 0.3 + 0.05 * (xb[1] * xb[1] + xb[2] * xb[2]),
        ),
        phi=(
            lambda xb: 1.0 + 0.2 * xb[1] * xb[1],
            lambda xb: 1.0 + 0.1 * xb[2] * xb[2],
        ),
    )
    params = DesignParams(mu=(0.3, 0.3, 0.3), gamma=(0.1, 0.1, 0.1))
    return ControllerStack(bounds, params)


# --------------------------------------------------------------- sweeps


def test_paper_sweep_hand_values():
    """Benchmark start point: alpha1 = -mu1 k1 psi1 z1 with psi1 = 2."""
    stack = numeric2d(mode="paper").stack
    ev = stack.evaluate((-2.0, 3.0), (0.01, 0.01))
    assert ev.alpha[0] == pytest.approx(0.008, abs=0.0)
    assert ev.z[0] == -2.0
    assert ev.z[1] == pytest.approx(2.992, abs=0.0)
    # (1+2 mk) rho2 + 8 g1 mu1 z1^2 + phi1 + 1 + 2(1+phi1+2 mk phi1) mk
    assert ev.psi[1] == pytest.approx(8.6092448, rel=1e-15)
    assert ev.alpha[1] == pytest.approx(-0.2 * 0.01 * 8.6092448 * 2.992, rel=1e-15)
    assert ev.eta == [None, None]


def test_auto_sweep_hand_values():
    stack = numeric2d(mode="auto").stack
    ev = stack.evaluate((-2.0, 3.0), (0.01, 0.01))
    # psi1 = rho1 + 1 = 2 and the virtual control is quadratic in psi
    assert ev.psi[0] == 2.0
    assert ev.alpha[0] == pytest.approx(0.016, abs=0.0)
    assert ev.psi[1] == pytest.approx(ev.eta[1] + _n2_phi1((-2.0, 3.0)) + 1.0,
                                      rel=1e-15)
    assert ev.eta[1] > 0.0


def test_eta_closed_form_degenerate_cascade():
    """With rho == 0 and a constant phi the coefficient collapses.

    alpha1 = -mu1 k1 z1 there, so the assembly reduces to
    |mu1 k1| Phi (1 + mu1 k1) + gamma1 |mu1 z1| |z1| with the smooth
    absolute value in place of |.|.
    """
    phi_const = 3.0
    bounds = BoundSpec(
        rho=(lambda xb: 0.0, lambda xb: 0.0),
        phi=(lambda xb: phi_const,),
    )
    params = auto_params()
    stack = ControllerStack(bounds, params)
    eps = params.smoothing
    mu1, gamma1 = params.mu[0], params.gamma[0]
    for _ in range(50):
        z1 = float(rng.uniform(-3.0, 3.0))
        z2 = float(rng.uniform(-3.0, 3.0))
        k1 = float(rng.uniform(0.01, 5.0))
        got = stack.reconstruct([z1, z2], [k1])[2][1]
        want = (
            smooth_abs(mu1 * k1, eps) * phi_const * (1.0 + mu1 * k1)
            + gamma1 * smooth_abs(mu1 * z1, eps) * smooth_abs(z1, eps)
        )
        assert abs(got - want) <= 1e-10 * max(1.0, abs(want)), (z1, z2, k1)


def test_transform_reconstruct_round_trip():
    stack = numeric2d(mode="auto").stack
    for _ in range(1000):
        x = tuple(float(v) for v in rng.uniform(-4.0, 4.0, size=2))
        k = tuple(float(v) for v in rng.uniform(0.01, 8.0, size=2))
        z = stack.evaluate(x, k).z
        back, _, _, _ = stack.reconstruct(z, k[:1])
        for a, b in zip(x, back):
            assert abs(a - b) <= 1e-12 * max(1.0, abs(a))


@pytest.mark.parametrize("mode", ["paper", "auto"])
def test_psi_floor_holds_at_random_points(mode):
    """Every stage shape stays >= 1 over a wide (z, k) box."""
    stack = numeric2d(mode=mode).stack
    worst = np.inf
    for _ in range(10000):
        zb = [float(v) for v in rng.uniform(-5.0, 5.0, size=2)]
        kb = [float(v) for v in rng.uniform(0.01, 10.0, size=2)]
        _, psi, _, _ = stack.reconstruct(zb, kb)
        worst = min(worst, min(float(p) for p in psi))
    assert worst >= 1.0


def test_virtual_control_derivatives_match_finite_differences():
    """The dual tower through nested synthesis agrees with central FD."""
    stack = three_stage_stack()

    def a2(x1, x2, k1, k2):
        return stack.alpha_value(2, (x1, x2), (k1, k2))

    def a3(x1, x2, x3, k1, k2, k3):
        return stack.alpha_value(3, (x1, x2, x3), (k1, k2, k3))

    def central(f, point, j, h):
        hi = list(point)
        lo = list(point)
        hi[j] += h
        lo[j] -= h
        return (f(*hi) - f(*lo)) / (2.0 * h)

    for _ in range(100):
        x = rng.uniform(-1.5, 1.5, size=3)
        k = rng.uniform(0.05, 2.0, size=3)
        p2 = (float(x[0]), float(x[1]), float(k[0]), float(k[1]))
        p3 = tuple(float(v) for v in x) + tuple(float(v) for v in k)
        _, g2 = gradient(a2, p2)
        _, g3 = gradient(a3, p3)
        for j in range(4):
            fd = central(a2, p2, j, 1e-5)
            assert abs(g2[j] - fd) <= max(1e-5 * abs(fd), 1e-7), (p2, j)
        for j in range(6):
            fd = central(a3, p3, j, 1e-5)
            assert abs(g3[j] - fd) <= max(1e-5 * abs(fd), 1e-7), (p3, j)


# ------------------------------------------------------------ adaptation


@pytest.mark.parametrize("mode", ["paper", "auto"])
def test_origin_is_a_fixed_point(mode):
    stack = numeric2d(mode=mode).stack
    ev = stack.evaluate((0.0, 0.0), (0.01, 0.01))
    assert ev.z == [0.0, 0.0]
    assert ev.alpha == [0.0, 0.0]
    assert stack.gain_rates(ev) == [0.0, 0.0]


def test_gain_rate_dominates_raw_error_energy():
    # psi >= 1 makes gamma_i z_i^2 a lower bound on the update rate
    stack = numeric2d(mode="auto").stack
    gamma = stack.params.gamma
    for _ in range(300):
        zb = [float(v) for v in rng.uniform(-5.0, 5.0, size=2)]
        kb = [float(v) for v in rng.uniform(0.01, 10.0, size=2)]
        x = stack.reconstruct(zb, kb[:1])[0]
        ev = stack.evaluate(x, kb)
        for rate, g, zi in zip(stack.gain_rates(ev), gamma, ev.z):
            floor = g * zi ** 2
            assert rate >= floor - 1e-12 * max(1.0, floor)


def test_gain_rate_dead_zone():
    params = DesignParams(mu=(0.2,), gamma=(0.2,),
                          deadzone=0.1, paper_stages=(lambda z, k, x: 2.0,))
    stack = ControllerStack(None, params)
    assert stack.gain_rates(stack.evaluate((0.05,), (1.0,))) == [0.0]
    assert stack.gain_rates(stack.evaluate((-2.0,), (1.0,))) == [
        pytest.approx(3.2, rel=1e-15)]


# ------------------------------------------------------------- validation


def test_design_params_validation():
    with pytest.raises(SynthesisError):
        DesignParams(mu=(0.2,), gamma=(0.2, 0.2))
    with pytest.raises(SynthesisError, match=r"mu\[1\]"):
        DesignParams(mu=(-1.0,), gamma=(0.2,))
    with pytest.raises(SynthesisError, match="one gain shape per stage"):
        DesignParams(mu=(0.2, 0.2), gamma=(0.2, 0.2),
                     paper_stages=(lambda z, k, x: 2.0,))
    # the mode follows from whether gain shapes are supplied
    assert DesignParams(mu=(0.2,), gamma=(0.2,)).mode == "auto"
    assert DesignParams(mu=(0.2,), gamma=(0.2,),
                        paper_stages=(lambda z, k, x: 2.0,)).mode == "paper"
    with pytest.raises(ValueError, match="mode"):
        numeric2d(mode="other")


def test_auto_mode_stage_limit():
    n = MAX_AUTO_STAGES + 1
    bounds = BoundSpec(
        rho=tuple(lambda xb: 1.0 for _ in range(n)),
        phi=tuple(lambda xb: 1.0 for _ in range(n - 1)),
    )
    params = DesignParams(mu=(0.2,) * n, gamma=(0.2,) * n)
    with pytest.raises(SynthesisError, match="stages"):
        ControllerStack(bounds, params)


def test_auto_mode_needs_bounds():
    with pytest.raises(SynthesisError):
        ControllerStack(None, auto_params())
    with pytest.raises(SynthesisError, match="stage counts differ"):
        ControllerStack(two_state_bounds(), auto_params(n=3))

