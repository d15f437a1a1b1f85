"""Plant contracts: stage rates, envelope probing, oracle constants."""

import numpy as np
import pytest

from purefb.plant import (
    BoundSpec,
    OracleConstants,
    PlantConfigError,
    PlantSpec,
    ProbeReport,
    assumption_probe,
    box_sampler,
    check_origin,
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
