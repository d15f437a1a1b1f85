"""Fixed-step integration: accuracy, determinism, divergence handling."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from purefb import scenarios
from purefb.simkit import (
    ABORT_LIMIT,
    CSV_BLOCK_ROWS,
    DivergenceError,
    StatePoint,
    Trajectory,
    integrate,
    measure_order,
    read_csv,
    rk4_step,
)
from purefb.tape import compile_loop


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
    with pytest.raises(ValueError, match="too simple"):
        measure_order(lambda t, y: (0.0,), (1.0,), T=1.0, h=0.1)


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
    # starts 0.5 below the limit and crosses it at t = 0.5
    traj = integrate(lambda t, y: (1.0,), (ABORT_LIMIT - 0.5,), T=2.0, h=1e-2)
    assert traj.diverged
    assert traj.failure.t <= 0.6


def test_rk4_step_returns_a_state_inside_the_limit():
    out = rk4_step(lambda t, y: (1.0, 0.0), (ABORT_LIMIT - 1.0, -ABORT_LIMIT), 0.0, 0.5)
    assert out == [ABORT_LIMIT - 0.5, -ABORT_LIMIT]
    assert isinstance(out, list)


def test_rk4_step_stops_past_the_limit_at_the_new_point():
    rhs = lambda t, y: (1.0, -4.0)
    y = (ABORT_LIMIT - 0.25, -ABORT_LIMIT + 1.0)
    with pytest.raises(DivergenceError, match="abort limit") as info:
        rk4_step(rhs, y, 2.0, 0.5)
    assert info.value.point == (2.5, (ABORT_LIMIT + 0.25, -ABORT_LIMIT - 1.0))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_rk4_step_stops_a_non_finite_state_at_the_pre_step_point(bad):
    # a finite component past the limit does not move the point when another
    # is not finite
    y = (bad, 2.0 * ABORT_LIMIT)
    with pytest.raises(DivergenceError, match="non-finite") as info:
        rk4_step(lambda t, y: (0.0, 0.0), y, 1.0, 0.5)
    assert repr(info.value.point) == repr(StatePoint(1.0, y))


def test_rk4_step_wraps_arithmetic_failure():
    with pytest.raises(DivergenceError):
        rk4_step(lambda t, y: (1.0 / y[0],), (0.0,), 0.0, 0.1)


def test_declined_or_failing_step_runs_rk4_step():
    rhs = lambda t, y: (y[0] ** 4,)
    h = 1e-2
    plain = integrate(rhs, (1.0,), T=2.0, h=h)
    state = lambda t, y: y  # integrate's default row
    traced = compile_loop(lambda t, y: rk4_step(rhs, y, t, h), state, 0.0, [1.0])
    # the last step's stages overflow in ** inside the loop, which declines
    # that step; rk4_step meets the same error there
    s = round(plain.failure.t / h)
    assert s * h == plain.failure.t
    assert traced(s, list(plain.failure.y), 1, s + 1, h, 1, None)[0] == s
    with pytest.raises(DivergenceError) as info:
        rk4_step(rhs, plain.failure.y, plain.failure.t, h)
    assert isinstance(info.value.__cause__, OverflowError)
    # a step whose trace fails (float() of a traced value) compiles no loop
    untraced = compile_loop(lambda t, y: rk4_step(rhs, [float(v) for v in y], t, h),
                            state, 0.0, [1.0])
    assert untraced is None
    for loop in (untraced, traced):  # every step plain; the loop fails at the last
        traj = integrate(rhs, (1.0,), T=2.0, h=h, loop=loop)
        assert np.array_equal(traj.data, plain.data)
        assert traj.diverged and traj.failure == plain.failure


def test_accepted_step_replaces_rk4_step():
    calls = []

    def rhs(t, y):
        calls.append(t)
        return (-y[0],)

    def early(t, y):
        # vouches for the steps that start before 0.45: a guard on t
        return rk4_step(lambda s, v: (-v[0],), y, t, 0.1) if t < 0.45 else None

    loop = compile_loop(early, lambda t, y: y, 0.0, [1.0])
    traj = integrate(rhs, (1.0,), T=1.0, h=0.1, loop=loop)
    assert np.array_equal(traj.data, integrate(rhs, (1.0,), T=1.0, h=0.1).data)
    assert len(calls) == 4 * 5 + 4 * 10  # the five declined steps, then the plain run


def test_non_integral_decimation_is_rejected():
    """integrate takes its decimation from Scenario, which keeps whole numbers only."""
    with pytest.raises(ValueError, match="decimation must be a whole number, got 2.5"):
        scenarios.build("numeric-2d", T=0.1, h=0.01, decimation=2.5)
    # a whole float reaches integrate as an int: 10 steps, every 5th recorded
    traj = scenarios.build("numeric-2d", T=0.1, h=0.01, decimation=5.0).run()
    assert not traj.diverged
    assert traj.data[:, 0].tolist() == pytest.approx([0.0, 0.05, 0.1], abs=1e-12)
    with pytest.raises(ValueError, match="decimation must divide the 10 integration steps"):
        scenarios.build("numeric-2d", T=0.1, h=0.01, decimation=10 ** 400)


def test_custom_recorder_columns():
    recorder = (
        ["y1", "twice"],
        lambda t, y: (y[0], 2.0 * y[0]),
    )
    traj = integrate(lambda t, y: (1.0,), (0.0,), T=1.0, h=0.1,
                     recorder=recorder)
    assert traj.columns == ("t", "y1", "twice")
    np.testing.assert_allclose(traj.col("twice"), 2.0 * traj.col("y1"))
    with pytest.raises(KeyError, match=r"no column 'thrice'; have \['t', 'y1', 'twice'\]"):
        traj.col("thrice")


# cells whose float64 bits a conversion could lose: infinities, NaN, the
# sign of zero, the smallest subnormal, and an int
SPECIAL_CELLS = (math.inf, -math.inf, math.nan, -0.0, 5e-324, 7)


@pytest.mark.parametrize("rhs, T, diverged", [
    (lambda t, y: (-y[0],), 0.5, False),
    (lambda t, y: (y[0] * y[0],), 2.0, True),  # y = 1 / (1 - t) escapes at t = 1
], ids=["clean", "diverged"])
def test_flat_table_holds_the_bits_of_the_recorded_rows(rhs, T, diverged):
    built = []

    def build(t, y):
        row = [y[0], *SPECIAL_CELLS, -t]
        built.append([t, *row])
        return row

    names = ("y1", "inf", "ninf", "nan", "nzero", "tiny", "int", "negt")
    traj = integrate(rhs, (1.0,), T=T, h=0.01, recorder=(names, build))
    assert traj.diverged == diverged
    want = np.array(built, dtype=float)
    assert traj.data.shape == want.shape == (len(built), 1 + len(names))
    assert traj.data.dtype == np.float64 and traj.data.flags.c_contiguous
    assert np.array_equal(traj.data.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("build", [
    lambda t, y: (y[0], 1.0, 2.0),
    lambda t, y: (),
    lambda t, y: (y[0], 1.0) if t < 0.35 else (y[0],),
    lambda t, y: (y[0],) if t < 0.05 else (y[0], 1.0, 2.0),  # cell count fits
], ids=["too-wide", "too-narrow", "ragged", "short-then-long"])
def test_recorded_row_of_the_wrong_length_raises(build):
    with pytest.raises(ValueError, match="columns"):
        integrate(lambda t, y: (0.0,), (0.0,), T=1.0, h=0.1,
                  recorder=(("y1", "c"), build))


def _wide_table(steps, width=13):
    """A cheap decimation-1 run whose recorded table is steps+1 x width+1."""
    names, build = (tuple("c%d" % j for j in range(width)),
                    lambda t, y: [t * j for j in range(width)])
    rhs = lambda t, y: (0.0,)
    loop = compile_loop(lambda t, y: rk4_step(rhs, y, t, 1e-3), build, 0.0, [1.0])
    return integrate(rhs, (1.0,), T=steps * 1e-3, h=1e-3, recorder=(names, build), loop=loop)


def _traced_peak(fn):
    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_recording_and_writing_take_memory_in_proportion(tmp_path):
    traj, peak = _traced_peak(lambda: _wide_table(20_000))
    assert traj.data.shape == (20_001, 14)
    assert peak < 1.5 * traj.data.nbytes + 256 * 1024, (peak, traj.data.nbytes)
    path = tmp_path / "w.csv"
    _, small = _traced_peak(lambda: _wide_table(2_000).write_csv(path))
    _, large = _traced_peak(lambda: traj.write_csv(path))
    assert large < 1024 * 1024, large
    assert large < 1.1 * small + 16 * 1024, (small, large)


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


# block edges of the writer, plus the 4096 and 8195 row tables that span
# many blocks
@pytest.mark.parametrize(
    "rows", sorted({1, CSV_BLOCK_ROWS, 2 * CSV_BLOCK_ROWS + 3, 4096, 8195})
)
def test_csv_bytes_match_per_cell_repr(tmp_path, rows):
    specials = [-0.0, 5e-324, 0.1, 1.5e-7, 1e16, 1e22, 123456789.125]
    rng = np.random.default_rng(7)
    data = np.column_stack([
        0.1 * np.arange(rows),
        np.resize(specials, rows),
        -np.resize(specials[::-1], rows),
        rng.standard_normal(rows) * 10.0 ** rng.integers(-30, 30, rows),
    ])
    traj = Trajectory(sid="g", columns=("t", "a", "b", "c"), data=data, h=0.1)
    path = tmp_path / "g.csv"
    traj.write_csv(path)
    want = "t,a,b,c\n" + "".join(
        ",".join(repr(float(v)) for v in row) + "\n" for row in data
    )
    assert path.read_bytes() == want.encode()
    assert np.array_equal(read_csv(path).data, data)


# -0.0, subnormals and the edges of the float64 range, beside any finite value
FINITE = st.one_of(
    st.sampled_from([-0.0, 5e-324, -2.5e-310, 1.7e308, -1.7e308]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def tables(draw):
    t = sorted(draw(st.lists(FINITE, min_size=1, max_size=12, unique=True)))
    width = draw(st.integers(1, 4))
    row = st.lists(FINITE, min_size=width, max_size=width)
    return np.array([[ti, *draw(row)] for ti in t])


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=tables())
def test_csv_round_trip_is_bit_exact(tmp_path, data):
    columns = ("t",) + tuple("c%d" % j for j in range(1, data.shape[1]))
    path = tmp_path / "p.csv"
    Trajectory(sid="p", columns=columns, data=data, h=0.1).write_csv(path)
    back = read_csv(path)
    assert back.columns == columns
    assert back.data.tobytes() == data.tobytes()


def _written_and_wanted(tmp_path, data):
    """The bytes write_csv writes for data, and repr(float(v)) per cell."""
    columns = ("t",) + tuple("c%d" % j for j in range(1, data.shape[1]))
    path = tmp_path / "r.csv"
    Trajectory(sid="r", columns=columns, data=data, h=0.1).write_csv(path)
    want = ",".join(columns) + "\n" + "".join(
        ",".join(repr(float(v)) for v in row) + "\n" for row in data)
    return path.read_bytes(), want.encode()


def _nans(*payloads):
    return np.array([0x7FF0000000000000 | p for p in payloads], dtype=np.int64).view(float)


def _signed_zeros(rows):
    zeros = np.resize([0.0, -0.0, -0.0, 0.0, 1.0], rows)
    return np.column_stack([np.arange(rows), zeros, -zeros])


def _non_finite(rows):
    """A signalling NaN, two quiet NaN payloads, a negative NaN and +-inf."""
    nans = _nans(1, 0x8000000000001, 0x8000000000000)
    pool = np.concatenate([nans, [np.inf, -np.inf, -np.nan, 0.5]])
    return np.column_stack([np.arange(rows), np.resize(pool, rows),
                            np.resize(pool[::-1], rows)])


def _repeated_columns(rows):
    x = np.random.default_rng(3).standard_normal(rows)
    return np.column_stack([0.001 * np.arange(rows), x, x, np.full(rows, 0.1), x])


def _one_value(rows):
    return np.column_stack([np.arange(rows), np.full((rows, 5), -2.5e-310)])


def _flat_across_the_edge(rows):
    """A gain that settles inside one block and stays flat through the next."""
    k = np.minimum(np.arange(rows), CSV_BLOCK_ROWS - 3) * 1e-3 + 0.1
    return np.column_stack([0.001 * np.arange(rows), k, np.cumsum(k), k])


@pytest.mark.parametrize("table", [_signed_zeros, _non_finite, _repeated_columns,
                                   _one_value, _flat_across_the_edge])
@pytest.mark.parametrize("rows", [1, CSV_BLOCK_ROWS - 1, CSV_BLOCK_ROWS + 1,
                                  2 * CSV_BLOCK_ROWS + 3])
def test_repeated_cells_are_written_as_per_cell_repr(tmp_path, table, rows):
    data = table(rows)
    written, want = _written_and_wanted(tmp_path, data)
    assert written == want
    if np.isfinite(data).all():
        assert read_csv(tmp_path / "r.csv").data.tobytes() == data.tobytes()


def test_signed_zeros_of_one_block_keep_their_signs(tmp_path):
    written, _ = _written_and_wanted(tmp_path, _signed_zeros(5))
    assert written.splitlines()[1:] == [
        b"0.0,0.0,-0.0", b"1.0,-0.0,0.0", b"2.0,-0.0,0.0", b"3.0,0.0,-0.0", b"4.0,1.0,-1.0"]


# a few values, so that most cells of a block repeat one another
POOL = [0.0, -0.0, 0.1, -7.25e-300, 1e16, float("inf"), *_nans(1, 0x8000000000000)]


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(rows=st.integers(1, 3 * CSV_BLOCK_ROWS), width=st.integers(1, 6),
       cells=st.lists(st.sampled_from(POOL), min_size=1, max_size=40), seed=st.integers(0, 99))
def test_cells_from_a_small_pool_are_written_as_per_cell_repr(tmp_path, rows, width, cells,
                                                              seed):
    picks = np.random.default_rng(seed).integers(0, len(cells), (rows, width))
    data = np.column_stack([np.arange(rows) * 0.25, np.array(cells)[picks]])
    written, want = _written_and_wanted(tmp_path, data)
    assert written == want


def test_summary_reports_terminal_and_extrema():
    traj = integrate(lambda t, y: (-y[0],), (2.0,), T=1.0, h=1e-2, sid="dec")
    s = traj.summary()
    assert set(s) == {"t_final", "terminal", "max_abs"}
    assert s["t_final"] == pytest.approx(1.0)
    assert s["terminal"]["y1"] == pytest.approx(2.0 * math.exp(-1.0), rel=1e-8)
    assert s["max_abs"]["y1"] == 2.0
