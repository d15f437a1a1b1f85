"""Plant contracts: stage splitting, envelope probing, oracle constants."""

import numpy as np
import pytest

from purefb.autodiff import sin
from purefb.plant import (
    BoundSpec,
    OracleConstants,
    PlantConfigError,
    PlantSpec,
    ProbeReport,
    assumption_probe,
    box_sampler,
    check_origin,
    decompose,
)
from purefb.scenarios import (
    _n2_drift1,
    _n2_drift2,
    _n2_gain1,
    _n2_gain2,
    _n2_phi1,
    _n2_phi2,
    _n2_rho1,
    _n2_rho2,
)

rng = np.random.default_rng(415)


def two_state_plant():
    return PlantSpec(
        n=2, drift=(_n2_drift1, _n2_drift2), gain=(_n2_gain1, _n2_gain2)
    )


def two_state_bounds():
    return BoundSpec(n=2, rho=(_n2_rho1, _n2_rho2), phi=(_n2_phi1, _n2_phi2))


# ---------------------------------------------------------------- decompose


def test_decompose_cubic_example():
    # f = x1 + x2 + x2^3/5 splits at x2 = 1 into drift x1 and secant gain 1.2
    f = lambda xb, th: xb[0] + xb[1] + xb[1] ** 3 / 5.0
    varphi, g = decompose(f, (0.7, 1.0), ())
    assert varphi == pytest.approx(0.7, abs=0.0)
    assert g == pytest.approx(1.2, rel=1e-15)


def test_decompose_secant_identity():
    """varphi + g * x_last reproduces f exactly on the secant branch."""
    f = lambda xb, th: (
        th[0] * xb[0] * xb[1] + sin(xb[1]) + 0.3 * xb[1] ** 2 + xb[0]
    )
    for _ in range(200):
        x0 = float(rng.uniform(-2.0, 2.0))
        x1 = float(rng.uniform(-2.0, 2.0))
        if abs(x1) <= 1e-8:
            continue
        th = (float(rng.uniform(0.5, 1.5)),)
        varphi, g = decompose(f, (x0, x1), th)
        recon = varphi + g * x1
        want = f((x0, x1), th)
        assert abs(recon - want) <= 1e-12 * max(1.0, abs(want))


def test_decompose_derivative_branch_at_zero():
    # at x2 = 0 the gain falls back to the forward derivative x1 + 1
    f = lambda xb, th: xb[0] * xb[1] + sin(xb[1]) + xb[1] ** 2 / 3.0
    varphi, g = decompose(f, (1.4, 0.0), ())
    assert varphi == 0.0
    assert g == pytest.approx(2.4, rel=1e-14)


@pytest.mark.parametrize("eps_d", [1e-2, 1e-4, 1e-6])
def test_decompose_splice_is_continuous(eps_d):
    """Secant and derivative branches agree near the switch to O(eps_d)."""
    f = lambda xb, th: xb[0] * xb[1] + sin(xb[1]) + xb[1] ** 2 / 3.0
    x0 = 0.8
    _, g_secant = decompose(f, (x0, 1.02 * eps_d), (), eps_d=eps_d)
    _, g_deriv = decompose(f, (x0, 0.98 * eps_d), (), eps_d=eps_d)
    assert abs(g_secant - g_deriv) <= 2.0 * eps_d


def test_decompose_rejects_bad_eps():
    with pytest.raises(PlantConfigError):
        decompose(lambda xb, th: xb[0], (1.0,), (), eps_d=0.0)


# ------------------------------------------------------------- stage rates


def test_stage_rate_hand_values():
    plant = two_state_plant()
    th = (1.0, 2.0)
    # stage 1 at the benchmark start: -2 + 1*(1 + 9/5)*3
    assert plant.stage_rate(0, (-2.0, 3.0), 3.0, th) == pytest.approx(6.4, rel=1e-15)
    g2 = 2.0 * (1.0 + 0.25 / 7.0)
    assert plant.stage_rate(1, (-2.0, 3.0), 0.5, th) == pytest.approx(
        -12.0 + g2 * 0.5, rel=1e-15
    )


def test_plant_spec_validation():
    with pytest.raises(PlantConfigError):
        PlantSpec(n=0, drift=(), gain=())
    with pytest.raises(PlantConfigError):
        PlantSpec(n=2, drift=(_n2_drift1,), gain=(_n2_gain1, _n2_gain2))


def test_bound_spec_validation():
    with pytest.raises(PlantConfigError):
        BoundSpec(n=2, rho=(_n2_rho1,), phi=(_n2_phi1,))
    # last-stage phi is optional
    b = BoundSpec(n=2, rho=(_n2_rho1, _n2_rho2), phi=(_n2_phi1,))
    assert b.phi_at(0) is _n2_phi1
    assert b.phi_at(1) is None


def test_check_origin_two_state():
    plant = two_state_plant()
    draws = [tuple(rng.uniform(0.5, 2.5, size=2)) for _ in range(50)]
    assert check_origin(plant, draws) == 0.0


# --------------------------------------------------------- oracle constants


def test_oracle_derived_constants():
    oracle = OracleConstants(b=(1.0, 2.0), B=(1.0, 2.0), c=(1.0, 2.0))
    assert oracle.n == 2
    assert oracle.vartheta(0) == 1.0
    assert oracle.vartheta(1) == 2.0
    assert oracle.beta(0) == 1.0
    assert oracle.beta(1) == 9.0  # 2 * 2^2 + 1
    assert oracle.sigma(0) == 1.0
    assert oracle.sigma(1) == 4.0
    assert oracle.epsilon() == 9.0


def test_oracle_validation():
    with pytest.raises(PlantConfigError):
        OracleConstants(b=(2.0,), B=(1.0,), c=(1.0,))
    with pytest.raises(PlantConfigError):
        OracleConstants(b=(1.0,), B=(1.0,), c=(-0.5,))
    with pytest.raises(PlantConfigError):
        OracleConstants(b=(1.0, 1.0), B=(1.0,), c=(1.0,))


# ------------------------------------------------------------------ probing


def test_probe_two_state_envelopes_hold():
    """10^4 samples over the declared boxes: no envelope violation."""
    oracle = OracleConstants(b=(0.8, 1.6), B=(1.2, 2.4), c=(1.2, 2.4))
    sampler = box_sampler(
        x_box=((-3.0, 3.0), (-3.0, 3.0)),
        theta_box=((0.8, 1.2), (1.6, 2.4)),
        u_box=(-10.0, 10.0),
    )
    report = assumption_probe(
        two_state_plant(), two_state_bounds(), oracle, sampler, 10000, seed_=3
    )
    assert isinstance(report, ProbeReport)
    assert report.samples == 10000
    # drift + gain-low + gain-high for both stages at every sample
    assert report.checked == 60000
    assert report.violation_count == 0
    assert report.passed


def test_probe_flags_zero_gain_everywhere():
    plant = PlantSpec(n=1, drift=(lambda xb, th: 0.0,), gain=(lambda xb, th: 0.0,))
    bounds = BoundSpec(n=1, rho=(lambda xb: 1.0,), phi=())
    oracle = OracleConstants(b=(1.0,), B=(1.0,), c=(1.0,))
    sampler = box_sampler(((-1.0, 1.0),), ((0.0, 1.0),), (-1.0, 1.0))
    report = assumption_probe(plant, bounds, oracle, sampler, 500, seed_=0)
    assert report.violation_count == 500
    assert not report.passed
    assert len(report.violations) == 100  # recording is capped
    assert all(v.kind == "gain-low" for v in report.violations)


def test_probe_counts_match_analytic_predicate():
    """An undersized drift constant is flagged exactly where it should be."""
    oracle = OracleConstants(b=(1.0, 2.0), B=(1.0, 2.0), c=(1.0, 0.1))
    x_box = ((-2.0, 2.0), (-2.0, 2.0))
    theta_box = ((1.0, 1.0), (2.0, 2.0))
    u_box = (-1.0, 1.0)
    report = assumption_probe(
        two_state_plant(),
        two_state_bounds(),
        oracle,
        box_sampler(x_box, theta_box, u_box),
        2000,
        seed_=11,
    )
    # replay the sampler's draw order with the same generator
    replay = np.random.default_rng(11)
    expected = 0
    for _ in range(2000):
        x1 = float(replay.uniform(*x_box[0]))
        x2 = float(replay.uniform(*x_box[1]))
        replay.uniform(*theta_box[0])
        replay.uniform(*theta_box[1])
        replay.uniform(*u_box)
        lhs = abs(2.0 * x1 * x2)
        env = 0.1 * (1.0 + x1 * x1 + x2 * x2) / 4.0 * (abs(x1) + abs(x2))
        if lhs > env + 1e-12 * (1.0 + env):
            expected += 1
    assert expected > 0
    assert report.violation_count == expected
    assert all(v.stage == 2 and v.kind == "drift" for v in report.violations)
