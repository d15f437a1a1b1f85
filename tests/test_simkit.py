"""Fixed-step integration: accuracy, determinism, divergence handling."""

import math

import numpy as np
import pytest

from purefb.simkit import (
    DivergenceError,
    Trajectory,
    integrate,
    measure_order,
    read_csv,
    rk4_step,
)


def test_single_step_exponential_decay():
    # classic fourth-order check: local error ~ h^5 / 120
    y1 = rk4_step(lambda t, y: (-y[0],), (1.0,), 0.0, 0.1)
    assert abs(y1[0] - math.exp(-0.1)) < 1e-7
    assert y1[0] == pytest.approx(0.90483750, abs=5e-9)


def test_zero_field_is_exact():
    y1 = rk4_step(lambda t, y: (0.0, 0.0), (2.5, -1.0), 3.0, 0.7)
    assert list(y1) == [2.5, -1.0]


def test_cubic_time_polynomial_is_exact():
    # quadrature weights integrate t^3 with no error
    traj = integrate(lambda t, y: (t ** 3,), (0.0,), T=1.0, h=0.05)
    assert traj.data[-1, 1] == pytest.approx(0.25, rel=1e-15)


def test_measured_convergence_order():
    rhs = lambda t, y: (y[1], -math.sin(y[0]) - 0.2 * y[1])
    order = measure_order(rhs, (1.2, 0.0), T=2.0, h=0.02)
    assert 3.7 <= order <= 4.3


def test_integration_is_deterministic():
    rhs = lambda t, y: (y[1], -y[0] - 0.1 * y[1] * abs(y[1]))
    a = integrate(rhs, (1.0, 0.0), T=3.0, h=1e-3, decimation=10)
    b = integrate(rhs, (1.0, 0.0), T=3.0, h=1e-3, decimation=10)
    assert np.array_equal(a.data, b.data)


def test_sample_count_and_time_grid():
    traj = integrate(lambda t, y: (1.0,), (0.0,), T=2.0, h=1e-2, decimation=5)
    assert traj.data.shape == (41, 2)  # 200 steps / 5 + 1
    assert traj.t[0] == 0.0
    assert traj.t[-1] == pytest.approx(2.0, abs=1e-12)
    assert np.all(np.diff(traj.t) > 0)


def test_finite_escape_sets_divergence_flag():
    # dy/dt = y^2 from 1 blows up at t = 1; the run must stop, not raise
    traj = integrate(lambda t, y: (y[0] ** 2,), (1.0,), T=2.0, h=1e-3)
    assert traj.diverged
    assert traj.failure is not None
    assert 0.9 < traj.failure.t <= 2.0
    assert traj.data.shape[0] >= 1


def test_abort_limit_stops_growth():
    traj = integrate(lambda t, y: (1.0,), (0.0,), T=2.0, h=1e-2,
                     abort_limit=0.5)
    assert traj.diverged
    assert traj.failure.t <= 0.6


def test_rk4_step_wraps_arithmetic_failure():
    with pytest.raises(DivergenceError):
        rk4_step(lambda t, y: (1.0 / y[0],), (0.0,), 0.0, 0.1)


def test_declined_or_failing_step_runs_rk4_step():
    rhs = lambda t, y: (y[0] ** 2,)
    plain = integrate(rhs, (1.0,), T=2.0, h=1e-2)

    def declines(t, y):
        return None

    def fails(t, y):
        raise OverflowError("from the step")

    for step in (declines, fails):
        traj = integrate(rhs, (1.0,), T=2.0, h=1e-2, step=step)
        assert np.array_equal(traj.data, plain.data)
        assert traj.diverged and traj.failure == plain.failure


def test_accepted_step_replaces_rk4_step():
    calls = []

    def rhs(t, y):
        calls.append(t)
        return (-y[0],)

    def step(t, y):
        return rk4_step(lambda s, v: (-v[0],), y, t, 0.1) if t < 0.45 else None

    traj = integrate(rhs, (1.0,), T=1.0, h=0.1, step=step)
    assert np.array_equal(traj.data, integrate(rhs, (1.0,), T=1.0, h=0.1).data)
    assert len(calls) == 4 * 5 + 4 * 10  # the five declined steps, then the plain run


def test_step_consistency_errors():
    with pytest.raises(ValueError, match="integer"):
        integrate(lambda t, y: (0.0,), (0.0,), T=1.0, h=0.3)
    with pytest.raises(ValueError, match="decimation"):
        integrate(lambda t, y: (0.0,), (0.0,), T=1.0, h=0.1, decimation=3)
    with pytest.raises(ValueError):
        integrate(lambda t, y: (0.0,), (0.0,), T=-1.0, h=0.1)
    with pytest.raises(ValueError):
        integrate(lambda t, y: (0.0,), (0.0,), T=1.0, h=0.0)


def test_custom_recorder_columns():
    recorder = (
        ["y1", "twice"],
        lambda t, y: (y[0], 2.0 * y[0]),
    )
    traj = integrate(lambda t, y: (1.0,), (0.0,), T=1.0, h=0.1,
                     recorder=recorder)
    assert traj.columns == ("t", "y1", "twice")
    np.testing.assert_allclose(traj.col("twice"), 2.0 * traj.col("y1"))


def test_trajectory_validation():
    good = np.array([[0.0, 1.0], [1.0, 2.0]])
    with pytest.raises(ValueError):
        Trajectory(sid="s", columns=("t",), data=good, h=0.1)
    bad_t = np.array([[0.0, 1.0], [0.0, 2.0]])
    with pytest.raises(ValueError, match="increasing"):
        Trajectory(sid="s", columns=("t", "y1"), data=bad_t, h=0.1)


def test_csv_round_trip_is_exact(tmp_path):
    rhs = lambda t, y: (y[1], -1.7 * y[0])
    traj = integrate(rhs, (0.3, -0.2), T=2.0, h=1e-2, decimation=4, sid="osc")
    path = tmp_path / "osc.csv"
    traj.write_csv(path)
    back = read_csv(path, sid="osc", h=traj.h)
    assert back.columns == traj.columns
    # repr round-trip keeps every float bit-exact
    assert np.array_equal(back.data, traj.data)


def test_summary_reports_terminal_and_extrema():
    traj = integrate(lambda t, y: (-y[0],), (2.0,), T=1.0, h=1e-2, sid="dec")
    s = traj.summary()
    assert s["scenario"] == "dec"
    assert s["samples"] == 101
    assert s["terminal"]["y1"] == pytest.approx(2.0 * math.exp(-1.0), rel=1e-8)
    assert s["max_abs"]["y1"] == 2.0
