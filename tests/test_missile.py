"""Roll-channel dynamics and the three-step adaptive control law."""

import math

import numpy as np
import pytest

from purefb.missile import (
    MissileDesign,
    MissileParams,
    missile_control,
    stt_dynamics,
)
from purefb.scenarios import stt_missile

rng = np.random.default_rng(90210)


def nominal_parts():
    """The paper's airframe and design at the registered defaults."""
    params = MissileParams(
        s=0.42, l=0.68, jx=100.0, tau_a=0.01, rho_air=0.7361,
        speed=lambda t: 200.0 * (1.0 + 0.1 * math.cos(2.0 * t)),
        mx_slope=lambda t: 2.12 * (1.0 + 0.2 * math.sin(1.0 * t)),
    )
    design = MissileDesign(k1=5.0, mu2=0.5, mu3=0.5, gamma2=0.1, gamma3=0.1,
                           epsilon=0.1)
    return params, design


def test_moment_gain_hand_value():
    params, _ = nominal_parts()
    # rho V^2 s l mx / (2 Jx) at t=0: V=220, mx=2.12
    want = 0.7361 * 220.0 ** 2 * 0.42 * 0.68 * 2.12 / 200.0
    assert params.moment_gain(0.0) == pytest.approx(want, rel=1e-15)
    assert want == pytest.approx(107.8564812864, rel=1e-12)


def test_actuator_lag_rate():
    params, _ = nominal_parts()
    # first-order lag: a -1 rad command from rest slews at -100 rad/s
    rates = stt_dynamics((0.0, 0.0, 0.0), 0.0, -1.0, params)
    assert rates[0] == 0.0
    assert rates[1] == 0.0
    assert rates[2] == pytest.approx(-100.0, rel=1e-15)


def test_roll_acceleration_is_gain_times_deflection():
    params, _ = nominal_parts()
    rates = stt_dynamics((0.1, -0.2, 0.05), 0.3, 0.0, params)
    assert rates[0] == -0.2
    assert rates[1] == pytest.approx(params.moment_gain(0.3) * 0.05, rel=1e-15)


def test_control_law_initial_point_hand_values():
    """Full hand evaluation of the cascade at the 10-degree start."""
    _, design = nominal_parts()
    state = (math.radians(10.0), 0.0, 0.0)
    cmd, dk2, dk3, diag = missile_control(state, (0.1, 0.1), design)
    z1 = math.radians(10.0)
    z2 = 5.0 * z1
    z3 = 0.5 * 0.1 * z2
    assert diag.z1 == pytest.approx(z1, rel=1e-15)
    assert diag.z2 == pytest.approx(z2, rel=1e-15)
    assert diag.z3 == pytest.approx(z3, rel=1e-15)
    # the second gain moves first and its rate feeds the third shape
    assert dk2 == pytest.approx(0.1 * z2 * z2, rel=1e-15)
    psi3 = (
        0.5 * 0.1            # mu2 k2
        + 0.5 * dk2          # mu2 dk2
        + 0.25 * 0.01        # xi mu2^2 k2^2
        + 0.5 * 0.5 * 0.1    # xi mu2 k2 / 2
        + 0.5 * 25.0 * 0.1 / math.sqrt(0.1)  # mu2 k1^2 k2 / sqrt(eps)
        + 0.5 * 5.0 * 0.1    # mu2 k1 k2
        + 1.0                # xi
        + 1.0
    )
    assert psi3 == pytest.approx(6.318424252683813, rel=1e-15)
    assert diag.psi3 == pytest.approx(psi3, rel=1e-15)
    assert cmd == pytest.approx(-0.5 * 0.1 * psi3 * psi3 * z3, rel=1e-15)
    assert dk3 == pytest.approx(0.1 * psi3 * psi3 * z3 * z3, rel=1e-15)


def test_equilibrium_is_quiet():
    params, design = nominal_parts()
    cmd, dk2, dk3, diag = missile_control((0.0, 0.0, 0.0), (0.1, 0.1), design)
    assert cmd == 0.0
    assert dk2 == 0.0
    assert dk3 == 0.0
    assert (diag.z1, diag.z2, diag.z3) == (0.0, 0.0, 0.0)
    assert stt_dynamics((0.0, 0.0, 0.0), 1.7, 0.0, params) == (0.0, 0.0, 0.0)


def test_gain_rates_never_negative():
    _, design = nominal_parts()
    for _ in range(10000):
        state = tuple(float(v) for v in rng.uniform(-2.0, 2.0, size=3))
        gains = tuple(float(v) for v in rng.uniform(0.01, 10.0, size=2))
        _, dk2, dk3, _ = missile_control(state, gains, design)
        assert dk2 >= 0.0
        assert dk3 >= 0.0


def test_params_validation():
    with pytest.raises(ValueError, match="tau_a"):
        MissileParams(s=0.42, l=0.68, jx=100.0, tau_a=-0.01, rho_air=0.7361,
                      speed=lambda t: 200.0, mx_slope=lambda t: 2.12)
    with pytest.raises(ValueError, match="jx"):
        MissileParams(s=0.42, l=0.68, jx=0.0, tau_a=0.01, rho_air=0.7361,
                      speed=lambda t: 200.0, mx_slope=lambda t: 2.12)


def test_design_validation():
    with pytest.raises(ValueError, match="k1 - 3"):
        MissileDesign(k1=0.07, mu2=0.5, mu3=0.5, gamma2=0.1, gamma3=0.1,
                      epsilon=0.1)
    with pytest.raises(ValueError, match="gamma2"):
        MissileDesign(k1=5.0, mu2=0.5, mu3=0.5, gamma2=0.0, gamma3=0.1,
                      epsilon=0.1)
    with pytest.raises(ValueError, match="xi"):
        MissileDesign(k1=5.0, mu2=0.5, mu3=0.5, gamma2=0.1, gamma3=0.1,
                      epsilon=0.1, xi=0.0)


def test_profile_positivity_guard():
    with pytest.raises(ValueError, match="not positive"):
        stt_missile(v_amp=1.2)
