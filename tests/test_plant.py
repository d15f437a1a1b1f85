"""Plant contracts: stage rates, envelope probing, oracle constants."""

import numpy as np
import pytest

from purefb.plant import BoundSpec, OracleConstants, PlantSpec
from purefb.scenarios import (
    _n2_drift1,
    _n2_drift2,
    _n2_gain1,
    _n2_gain2,
    _n2_phi1,
    _n2_rho1,
    _n2_rho2,
    build,
)

rng = np.random.default_rng(415)


def two_state_plant():
    return PlantSpec(drift=(_n2_drift1, _n2_drift2), gain=(_n2_gain1, _n2_gain2))


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


def unit_cascade(n):
    """n stages with no drift and unit gain: each stage's rate is its next value.

    The gain also checks that stage i sees x_1..x_{i+1} and then the next value.
    """
    def gain(i):
        def g(xb, th):
            assert len(xb) == i + 2
            return th[0]
        return g

    return PlantSpec(drift=tuple(lambda xb, th: 0.0 for _ in range(n)),
                     gain=tuple(gain(i) for i in range(n)))


@pytest.mark.parametrize("n", [1, 3])
def test_rates_drive_inner_stages_by_the_next_state_and_the_last_by_u(n):
    x = (2.0, 3.0, 5.0)[:n]
    assert unit_cascade(n).rates(x, 7.0, (1.0,)) == [*x[1:], 7.0]
    assert unit_cascade(n).rates(x, 7.0, (-1.0,)) == [-v for v in (*x[1:], 7.0)]


def test_plant_spec_validation():
    with pytest.raises(ValueError, match="^state dimension must be >= 1"):
        PlantSpec(drift=(), gain=())
    with pytest.raises(ValueError, match="^drift/gain must each supply one function per stage"):
        PlantSpec(drift=(_n2_drift1,), gain=(_n2_gain1, _n2_gain2))
    assert two_state_plant().n == 2


def test_bound_spec_validation():
    with pytest.raises(ValueError, match=r"^phi must cover stages 1\.\.n-1"):
        BoundSpec(rho=(_n2_rho1,), phi=(_n2_phi1,))
    # phi covers the inner stages only
    with pytest.raises(ValueError, match=r"^phi must cover stages 1\.\.n-1"):
        BoundSpec(rho=(_n2_rho1, _n2_rho2), phi=(_n2_phi1, _n2_phi1))
    b = BoundSpec(rho=(_n2_rho1, _n2_rho2), phi=(_n2_phi1,))
    assert b.phi == (_n2_phi1,) and b.n == 2


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
    with pytest.raises(ValueError, match=r"^need 0 < b\[1\] <= B\[1\], got 2.0, 1.0"):
        OracleConstants(b=(2.0,), B=(1.0,), c=(1.0,))
    with pytest.raises(ValueError, match=r"^c\[1\] must be >= 0"):
        OracleConstants(b=(1.0,), B=(1.0,), c=(-0.5,))
    with pytest.raises(ValueError, match="^oracle constant tuples must share one length"):
        OracleConstants(b=(1.0, 1.0), B=(1.0,), c=(1.0,))


# ------------------------------------------------------------------ probing


def test_probe_two_state_envelopes_hold():
    """numeric-2d's own bounds and oracle dominate its plant.

    For the configured theta box and 20 random valid boxes, 2 000 samples
    each of theta in the box and of x_1, x_2, u with log-uniform magnitude
    in [10^-3, 10^3] (the stage-2 envelope is tightest near |x_j| = 0.7)
    meet |f_i| <= c_i rho_i sum_{j<=i} |x_j| and b_i <= g_i on both stages,
    and g_1 <= B_1 phi_1 on the inner one.
    """

    def signed_log_uniform():
        sign = rng.choice((-1.0, 1.0), size=2000)
        return sign * 10.0 ** rng.uniform(-3.0, 3.0, size=2000)

    boxes = [((0.8, 1.2), (1.6, 2.4))]
    for _ in range(20):
        lo = rng.uniform(0.01, 5.0, size=2)
        hi = lo + rng.uniform(0.0, 5.0, size=2)
        boxes.append(tuple(zip(lo.tolist(), hi.tolist())))
    plant = two_state_plant()
    for box in boxes:
        scn = build("numeric-2d", theta=tuple(lo for lo, _ in box), theta_box=box)
        bounds, oracle = scn.bounds, scn.oracle
        x = (signed_log_uniform(), signed_log_uniform())
        th = tuple(rng.uniform(lo, hi, size=2000) for lo, hi in box)
        u = signed_log_uniform()
        sum_abs = 0.0
        for i in range(2):
            xbar = x[: i + 1]
            sum_abs = sum_abs + np.abs(x[i])
            env = oracle.c[i] * bounds.rho[i](xbar) * sum_abs
            assert np.all(np.abs(plant.drift[i](xbar, th))
                          <= env + 1e-12 * (1.0 + env)), (box, i)
            nxt = x[1] if i == 0 else u
            g = plant.gain[i]((*xbar, nxt), th)
            assert np.all(g >= oracle.b[i] - 1e-12 * (1.0 + np.abs(g))), (box, i)
        cap = oracle.B[0] * bounds.phi[0](x)
        assert np.all(plant.gain[0](x, th) <= cap + 1e-12 * (1.0 + cap)), box
