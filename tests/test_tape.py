"""Compiled run loops and numpy lanes: guards, declined steps, bit-exact
rewrites, inlining."""

import math
import operator
import re

import numpy as np
import pytest

from purefb import autodiff, scenarios
from purefb.autodiff import partial, real_value, seed, select_lt
from purefb.simkit import ABORT_LIMIT, DivergenceError, integrate, rk4_step
from purefb.tape import Var, _Tape, compile_lanes, compile_loop


def guarded(t, y):
    """Dual division and sqrt: both carry data-dependent domain checks."""
    (d,), tag = seed([y[0]])
    q = 1.0 / d
    return (real_value(q), partial(q, 0, tag), autodiff.sqrt(y[1]) * t)


def branchy(t, y):
    return (y[0] * 3.0 if y[0] > 1.0 else y[0] - 3.0,)


def truthy(t, y):
    return (y[0] * 2.0 if y[0] else 1.0,)


def raised(fn, *args):
    with pytest.raises(Exception) as info:
        fn(*args)
    return type(info.value), str(info.value)


def wrapped(fn, *args):
    """Type of the error that fn's DivergenceError wraps."""
    with pytest.raises(DivergenceError) as info:
        fn(*args)
    return type(info.value.__cause__)


# a range guard of the abort rule on one component of the new state
RANGE_GUARD = r"if not v\d+ (>= \(-1000000000\.0\)|<= 1000000000\.0): break"


def guards(source):
    """The guard lines of a loop's source: each test that breaks out but the end-of-run one."""
    lines = [line.strip() for line in source.splitlines()]
    return [line for line in lines if line.startswith("if ") and line.endswith(": break")
            and line != "if s == steps: break"]


def step_bits(out):
    return None if out is None else [v.hex() for v in out]


def state_row(t, y):
    """integrate's default row: the state."""
    return y


def looped(fn, h, t, y, row=state_row):
    """The run loop of rk4_step(fn, ., ., h) and row, both traced at (t, y),
    or None where either trace fails."""
    return compile_loop(lambda t, y: rk4_step(fn, y, t, h), row, t, y)


def stepper(fn, h, t, y):
    """One step of the run loop of rk4_step(fn, ., ., h), traced at (t, y),
    as ``step(t, y)``: the new state where the loop vouches for the step
    from t = s * h, else None; a loop whose trace fails vouches for none.
    ``step.source`` is the loop's source, or None."""
    loop = looped(fn, h, t, y)

    def step(t, y):
        s = round(t / h)
        assert s * h == t  # the loop steps from t = s * h
        if loop is None:
            return None
        # the row after the step is due, and is recorded before the loop returns
        end, out, _ = loop(s, list(y), 1, s + 1, h, 1, [].append)
        return out if end == s + 1 else None

    step.source = None if loop is None else loop.source
    return step


def same_run(fused, plain):
    """Two trajectories with the same samples, flags and failure point, bit for bit."""
    assert fused.diverged == plain.diverged
    assert repr(fused.failure) == repr(plain.failure)
    assert [v.hex() for v in fused.data.ravel()] == [v.hex() for v in plain.data.ravel()]


@pytest.mark.parametrize("y", [[0.0, 9.0, 1.0], [4.0, -1.0, 1.0]], ids=["div-zero", "sqrt-domain"])
def test_guard_miss_raises_like_the_generic_path(y):
    """The loop declines the step, at the dual division's zero guard or
    where sqrt, which has no guard, raises ValueError; rk4_step raises."""
    h = 0.125
    step = stepper(guarded, h, 2.0, [4.0, 9.0, 1.0])
    assert "_sqrt(" in step.source
    assert step_bits(step(2.0, [4.0, 9.0, 1.0])) == step_bits(
        rk4_step(guarded, [4.0, 9.0, 1.0], 2.0, h))
    assert step(2.0, y) is None
    assert raised(rk4_step, guarded, y, 2.0, h)[0] is DivergenceError
    loop = looped(guarded, h, 2.0, [4.0, 9.0, 1.0])
    same_run(integrate(guarded, y, 1.0, h, loop=loop), integrate(guarded, y, 1.0, h))


def test_guard_miss_takes_the_other_branch():
    h = 0.125
    step = stepper(branchy, h, 0.0, [2.0])
    for v in (0.5, 1.0, 7.0, -0.0):
        # a first stage on the other branch declines; rk4_step then takes it
        want = step_bits(rk4_step(branchy, [v], 0.0, h)) if v > 1.0 else None
        assert step_bits(step(0.0, [v])) == want
    other = stepper(branchy, h, 0.0, [0.5])
    assert other(0.0, [2.0]) is None
    assert step_bits(other(0.0, [-0.0])) == step_bits(rk4_step(branchy, [-0.0], 0.0, h))
    # the truth test of a traced value is the guard != 0.0
    step = stepper(truthy, h, 0.0, [2.0])
    assert "if not y0 != 0.0: break" in guards(step.source)
    assert step_bits(step(0.0, [0.5])) == step_bits(rk4_step(truthy, [0.5], 0.0, h))
    assert step(0.0, [0.0]) is None and step(0.0, [-0.0]) is None
    # the first step, from y0 = 0, misses and runs plain; the loop takes the rest
    fused = integrate(truthy, [0.0], 1.0, h, loop=looped(truthy, h, 0.0, [2.0]))
    same_run(fused, integrate(truthy, [0.0], 1.0, h))


def test_select_compiles_to_a_conditional_expression():
    def dead_zone(t, y):
        return (select_lt(abs(y[0]), 0.5, 0.0, y[0] * y[1]), -y[1])

    h = 0.25
    step = stepper(dead_zone, h, 0.0, [2.0, 3.0])
    tests = guards(step.source)
    # only the range guards, two per component
    assert len(tests) == 4 and all(re.fullmatch(RANGE_GUARD, line) for line in tests)
    assert "(0.0 if" in step.source
    for y in ([0.1, 3.0], [-2.0, 3.0], [0.5, 1.0]):
        assert step_bits(step(0.0, y)) == step_bits(rk4_step(dead_zone, y, 0.0, h))


def test_only_exact_rewrites():
    def ops(t, y):
        a = y[0]
        return (a * 1.0, 1.0 * a, a / 1.0, a - 0.0, a + 0.0, a * 0.0, -(-a))

    h = 0.5
    step = stepper(ops, h, 0.0, [1.5] * 7)
    assert "* 1.0" not in step.source and "/ 1.0" not in step.source
    for v in (-0.0, 0.0, -2.5):
        assert step_bits(step(0.0, [v] * 7)) == step_bits(rk4_step(ops, [v] * 7, 0.0, h))
    for v in (math.inf, math.nan):
        assert step(0.0, [v] * 7) is None


def test_failing_trace_point_runs_the_reference_until_traced():
    h = 0.125
    y = [2.0, 4.0, 1.0]
    # 1/0 at the trace point: no loop is compiled, and no step is vouched for
    failed = stepper(guarded, h, 0.0, [0.0, 1.0, 1.0])
    assert failed(0.0, [0.0, 1.0, 1.0]) is None and failed(1.0, y) is None
    step = stepper(guarded, h, 1.0, y)
    assert step_bits(step(1.0, y)) == step_bits(rk4_step(guarded, y, 1.0, h))
    loop = looped(guarded, h, 0.0, [0.0, 1.0, 1.0])
    assert loop is None
    same_run(integrate(guarded, y, 1.0, h, loop=loop), integrate(guarded, y, 1.0, h, loop=None))
    loop = looped(guarded, h, 1.0, y)
    same_run(integrate(guarded, y, 1.0, h, loop=loop), integrate(guarded, y, 1.0, h, loop=None))


def test_untraceable_function_runs_the_reference():
    def uses_math(t, y):
        return (math.cos(t) * y[0],)

    assert stepper(uses_math, 0.25, 0.5, [2.0])(0.5, [2.0]) is None
    traj = integrate(uses_math, [2.0], 1.0, 0.25, loop=looped(uses_math, 0.25, 0.5, [2.0]))
    assert not traj.diverged and traj.data.shape == (5, 2)
    same_run(traj, integrate(uses_math, [2.0], 1.0, 0.25, loop=None))
    # a row cell a Var cannot record fails the row's trace, next to a step
    # that traces: a str, or a bool, which the plain run records as 1.0
    def halve(t, y):
        return (-0.5 * y[0],)

    assert looped(halve, 0.25, 0.0, [2.0]) is not None
    assert looped(halve, 0.25, 0.0, [2.0], row=lambda t, y: [y[0], "label"]) is None
    recorder = (("y1", "flag"), lambda t, y: [y[0], True])
    loop = looped(halve, 0.25, 0.0, [2.0], row=recorder[1])
    assert loop is None
    traj = integrate(halve, [2.0], 1.0, 0.25, recorder=recorder, loop=loop)
    assert traj.col("flag").tolist() == [1.0] * 5


# -- nesting ------------------------------------------------------------------


def test_long_single_use_chain_compiles_nested_and_exact():
    def chain(t, y):
        v = y[0]
        for _ in range(1000):
            v = v * 1.0001 + 0.5
        return (v, y[1] - v)

    step = stepper(chain, 0.01, 0.0, [1.0, 2.0])
    # nesting is capped, so the four 2000-line stages are cut into a few
    # hundred statements
    assert 40 < step.source.count("\n") < 1000
    for y in ([1.0, 2.0], [-3.5, 0.25], [0.0, -0.0]):
        assert step_bits(step(0.3, y)) == step_bits(rk4_step(chain, y, 0.3, 0.01))


def test_single_use_lines_are_inlined_and_raising_lines_are_not():
    def f(t, y):
        a = y[0] * y[1] + 2.0  # the product is read once, a twice
        return (y[1] / a + 1.0, a * 0.5, autodiff.sqrt(y[0] * 3.0) - 1.0)

    h = 0.125
    step = stepper(f, h, 0.0, [1.5, 2.0, 0.5])
    body = [line.strip() for line in step.source.splitlines()[1:]]
    assigned = [line.split(" = ")[1] for line in body if " = " in line]
    # a is read twice in each stage; the product is read once and nested
    assert "(y0 * y1) + 2.0" in assigned
    # the four stage divisions and square roots may raise, so they stay
    # statements; a square root has no domain guard, since it raises where
    # one would miss.  The only guards are the range guards of the three
    # components, last before the new state is taken
    assert sum(re.fullmatch(r"v\d+ / v\d+|y1 / v\d+", text) is not None for text in assigned) == 4
    assert sum(text.startswith("_sqrt(") for text in assigned) == 4
    assert len(guards(step.source)) == 6
    last = next(i for i, line in enumerate(body) if line.startswith("y0, y1, y2, = v"))
    assert all(re.fullmatch(RANGE_GUARD, line) for line in body[last - 6:last])
    # a * 0.5 of the first three stages is read twice; the last stage's is
    # read once, by the combination of the stages, and nested there
    assert sum(text.endswith(" * 0.5") for text in assigned) == 3
    assert re.fullmatch(r"y0, y1, y2, = v\d+, v\d+, v\d+,", body[last])
    for y in ([1.5, 2.0, 0.5], [0.5, 7.0, -1.0], [4.0, -1.25, 3.0]):
        assert step_bits(step(0.0, y)) == step_bits(rk4_step(f, y, 0.0, h))


# -- declined and raising steps -----------------------------------------------


def test_division_by_zero_in_a_later_stage_raises_like_the_generic_step():
    def inverse(t, y):
        return (1.0, 1.0 / y[0])

    h = 0.5
    step = stepper(inverse, h, 0.0, [1.0, 0.0])
    y = [-0.25, 0.0]  # the second stage evaluates at y[0] = -0.25 + 0.25 = 0
    # the loop declines the step where it raises; rk4_step meets the same error
    assert step(0.0, y) is None
    assert wrapped(rk4_step, inverse, y, 0.0, h) is ZeroDivisionError
    fused = integrate(inverse, y, 1.0, h, loop=looped(inverse, h, 0.0, [1.0, 0.0]))
    plain = integrate(inverse, y, 1.0, h)
    assert fused.diverged and plain.diverged
    assert fused.failure == plain.failure


def test_guard_miss_declines_the_step_and_the_run_is_unchanged():
    step = stepper(branchy, 0.125, 0.0, [2.0])
    assert step(0.0, [0.5]) is None  # the first stage takes the other branch
    assert step_bits(step(0.0, [2.0])) == step_bits(rk4_step(branchy, [2.0], 0.0, 0.125))
    # the state crosses the branch point y = 1 during the run
    fused = integrate(branchy, [1.5], 2.0, 0.125, loop=looped(branchy, 0.125, 0.0, [2.0]))
    plain = integrate(branchy, [1.5], 2.0, 0.125)
    assert not fused.diverged
    same_run(fused, plain)


def test_cos_of_infinity_declines_the_step_with_the_plain_error():
    def ripple(t, y):
        return (autodiff.cos(y[0]) * y[1], autodiff.sin(t) - y[1])

    h = 0.25
    step = stepper(ripple, h, 0.0, [0.5, 1.0])
    assert "_cos(" in step.source and "_sin(" in step.source
    for y in ([0.5, 1.0], [-3.0, 2.5]):
        assert step_bits(step(0.5, y)) == step_bits(rk4_step(ripple, y, 0.5, h))
    y = [math.inf, 1.0]
    # cos(inf) raises ValueError: the loop declines the step, rk4_step fails on it
    assert step(0.0, y) is None
    assert wrapped(rk4_step, ripple, y, 0.0, h) is ValueError
    fused = integrate(ripple, y, 1.0, h, loop=looped(ripple, h, 0.0, [0.5, 1.0]))
    plain = integrate(ripple, y, 1.0, h)
    assert fused.diverged and plain.diverged
    assert repr(fused.failure) == repr(plain.failure)


@pytest.mark.parametrize("name", sorted(autodiff.PRIMITIVES))
def test_a_loop_over_each_primitive_is_compiled_and_bit_equal(name):
    """An oscillator whose stiffness is a primitive of 0.25 + y0^2: the
    loop calls it as ``_<name>`` and runs the whole run, bit for bit."""
    prim = getattr(autodiff, name)

    def spring(t, y):
        return (y[1], -y[0] * prim(0.25 + y[0] * y[0]) - 0.5 * y[1])

    h, y0 = 0.01, [1.2, -0.3]
    loop = looped(spring, h, 0.0, y0)
    assert loop is not None and "_%s(" % name in loop.source
    assert loop(0, list(y0), 1, 200, h, 1, [].append)[0] == 200
    same_run(integrate(spring, y0, 2.0, h, loop=loop), integrate(spring, y0, 2.0, h, loop=None))


def test_a_loop_over_a_dual_select_guards_the_branch_and_is_bit_equal():
    """Dual.select_lt compares the innermost values: a traced leaf records
    that comparison as a guard, and steps on its other side run plain."""
    def slope(t, y):
        (d,), tag = seed([y[0]])
        f = select_lt(d, 1.0, 1.0, d) * d  # y0 below 1, else y0^2
        return (-0.5 * partial(f, 0, tag), y[0] - y[1])

    h, y0 = 0.01, [2.0, 0.0]
    loop = looped(slope, h, 0.0, y0)
    assert loop is not None and re.search(r"if y0 < 1\.0: break", loop.source)
    fused = integrate(slope, y0, 3.0, h, loop=loop)
    assert fused.data[-1, 1] < 1.0  # the run crosses the branch
    same_run(fused, integrate(slope, y0, 3.0, h, loop=None))


@pytest.mark.parametrize("y", [[math.nan], [ABORT_LIMIT * (1.0 - 1e-16) - 1.0], [-math.inf]],
                         ids=["nan", "out-of-range", "inf"])
def test_step_declines_states_the_integrator_stops_at(y):
    def grow(t, y):
        return (y[0] * 1e-3 + 10.0,)

    step = stepper(grow, 0.5, 0.0, [1.0])
    assert step(0.0, y) is None
    fused = integrate(grow, y, 1.0, 0.5, loop=looped(grow, 0.5, 0.0, [1.0]))
    plain = integrate(grow, y, 1.0, 0.5)
    assert fused.diverged and plain.diverged
    assert repr(fused.failure) == repr(plain.failure)


# -- run loops -----------------------------------------------------------------


def kicked(t, y):
    """A decay whose rate differs at the one stage time t == 1.75: the end of
    step 13 and the start of step 14 at h = 0.125."""
    return (-y[0] if t != 1.75 else 3.0 * y[0], y[0] - y[1])


def kicked_row(t, y):
    return [y[0] * y[1], t - y[1]]


@pytest.mark.parametrize("decimation", [1, 7])
def test_loop_step_guard_misses_run_the_plain_step_and_reenter(decimation):
    """At decimation 7, step 13 ends on a recorded row and step 14 does not;
    the loop is entered again at step 15, not a multiple of 7."""
    h, y = 0.125, [1.0, 0.5]
    stages = []

    def plain(t, y):
        stages.append(t)
        return kicked(t, y)

    loop = looped(kicked, h, 0.0, y, row=kicked_row)
    fused = integrate(plain, y, 3.5, h, decimation, recorder=(("a", "b"), kicked_row), loop=loop)
    assert sorted(set(stages)) == [1.625, 1.6875, 1.75, 1.8125, 1.875]  # steps 13 and 14
    calls = []  # (s, left) as the loop is entered, then as it returns

    def counted(s, y, left, *args):
        out = loop(s, y, left, *args)
        calls.append(((s, left), (out[0], out[2])))
        return out

    counted.width = loop.width
    integrate(kicked, y, 3.5, h, decimation, recorder=(("a", "b"), kicked_row), loop=counted)
    # the row at step 14 is recorded before step 14 misses, so that return
    # carries a full countdown
    assert calls == [((0, 0), (13, 1)), ((14, 0), (14, decimation)),
                     ((15, decimation - 1), (28, decimation))]
    plain_run = integrate(kicked, y, 3.5, h, decimation, recorder=(("a", "b"), kicked_row))
    same_run(fused, plain_run)
    assert len(fused.data) == 1 + 28 // decimation


def traced_bits(x):
    """A scalar's tape name (or None) and the bits of its value."""
    if x.__class__ is Var:
        return x.name, x.value.hex()
    return None, float(x).hex()


@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul, operator.truediv])
def test_a_var_on_the_left_of_a_dual_defers_to_the_dual(op):
    """Var's method declines a Dual, so the Dual's reflected method runs:
    the result is the reflected form's, value and partials."""
    var = Var(_Tape(), "y0", 2.0)
    (d,), tag = seed([3.0])
    got = op(var, d)
    want = getattr(d, "__r%s__" % op.__name__)(var)
    assert got.__class__ is autodiff.Dual and got.tag == want.tag == tag
    assert traced_bits(got.value) == traced_bits(want.value)
    assert [traced_bits(p) for p in got.partials] == [traced_bits(p) for p in want.partials]


def test_a_var_does_not_compare_with_a_dual():
    (d,), _tag = seed([3.0])
    with pytest.raises(TypeError):
        Var(_Tape(), "y0", 2.0) < d


# -- numpy lanes --------------------------------------------------------------


def root(x):
    """sqrt with no domain guard: math.sqrt on floats, the tape's own on a Var."""
    return x.primitive("sqrt") if x.__class__ is Var else math.sqrt(x)


def lanes_fn(v):
    """guarded's dual division and sqrt, bare raising lines, a branch and a constant."""
    t, y0, y1, w, r, b = v
    return (*guarded(t, [y0, y1]), t / w, root(r),
            b * 3.0 if b > 1.0 else b - 3.0, 0.5)


def test_lanes_mask_exactly_the_lanes_the_float_code_branches_or_raises_on():
    point = [2.0, 4.0, 9.0, 0.5, 2.0, 2.0]
    lanes = compile_lanes(lanes_fn, point)
    assert "_where" not in lanes.source and "_sqrt(" in lanes.source
    nan, inf = math.nan, math.inf
    rows = [  # (lane, what the float code does other than at the trace point)
        (point, None),
        ([-1.5, -0.25, 0.0, -3.0, 0.0, 7.0], None),
        ([2.0, 0.0, 9.0, 0.5, 2.0, 2.0], "raises"),  # dual division guard and 1/0
        ([2.0, 4.0, -1.0, 0.5, 2.0, 2.0], "raises"),  # sqrt domain guard
        ([2.0, 4.0, 9.0, -0.0, 2.0, 2.0], "raises"),  # t / -0.0
        ([2.0, 4.0, 9.0, 0.5, -2.0, 2.0], "raises"),  # math.sqrt(-2.0)
        ([2.0, 4.0, 9.0, 0.5, 2.0, 0.5], "branches"),
        ([nan, nan, nan, nan, nan, 2.0], None),  # NaN neither raises nor branches
        ([inf, inf, inf, inf, inf, inf], None),
    ]
    cols = [np.array(col) for col in zip(*(row for row, _ in rows))]
    with np.errstate(all="ignore"):
        outs, miss = lanes(cols)
    assert miss.tolist() == [other is not None for _, other in rows]
    assert all(out.shape == (len(rows),) and out.dtype == np.float64 for out in outs)
    for lane, (row, other) in enumerate(rows):
        if other == "raises":
            with pytest.raises((ArithmeticError, ValueError)):
                lanes_fn(row)
        elif other is None:
            want = [float(v).hex() for v in lanes_fn(row)]
            assert [float(out[lane]).hex() for out in outs] == want


def test_lanes_select_is_where_and_bit_equal():
    def dead_zone(v):
        return (select_lt(abs(v[0]), 0.5, 0.0, v[0] * v[1]),)

    lanes = compile_lanes(dead_zone, [2.0, 3.0])
    assert "_where(" in lanes.source and "miss |=" not in lanes.source
    xs = [0.1, -2.0, 0.5, -0.5, math.nan, -0.0]
    outs, miss = lanes([np.array(xs), np.full(len(xs), 3.0)])
    assert not miss.any()
    assert [v.hex() for v in outs[0].tolist()] == [dead_zone([x, 3.0])[0].hex() for x in xs]


def extremes(t, y):
    """Infinities and a NaN as operands, each leaving a finite rate:
    dy0 = -y0 and dy1 = 0.5 * y0 - y1 on finite states."""
    inf, nan = math.inf, math.nan
    return (select_lt(y[0], inf, -y[0], y[1]),
            select_lt(-inf, y[1], 0.5, 1.0) * y[0] + select_lt(y[1] + nan, 0.0, y[0], -y[1]))


def test_non_finite_constants_are_named_in_both_backends():
    h = 0.125
    step = stepper(extremes, h, 0.0, [1.0, 2.0])
    lanes = compile_lanes(lambda v: extremes(v[0], v[1:]), [0.0, 1.0, 2.0])
    for name in ("_c_inf", "_c_neginf", "_c_nan"):
        assert name in step.source and name in lanes.source
    for y in ([1.0, 2.0], [-3.5, 0.25], [0.0, -0.0]):
        assert step_bits(step(0.5, y)) == step_bits(rk4_step(extremes, y, 0.5, h))
    inf, nan = math.inf, math.nan
    rows = [[0.0, 1.0, 2.0], [0.5, -3.5, 0.25], [0.0, inf, 1.0], [0.0, -inf, nan], [0.0, nan, -0.0]]
    outs, miss = lanes([np.array(col) for col in zip(*rows)])
    assert not miss.any()
    for lane, row in enumerate(rows):
        want = [v.hex() for v in extremes(row[0], row[1:])]
        assert [float(out[lane]).hex() for out in outs] == want


@pytest.mark.parametrize("name", sorted(autodiff.PRIMITIVES))
def test_lanes_decline_every_primitive_but_sqrt(name):
    lanes = compile_lanes(lambda v: [getattr(autodiff, name)(v[0])], [0.5])
    assert (lanes is None) == (name != "sqrt")


def test_lanes_decline_operations_numpy_rounds_differently():
    scn = scenarios.build("stt-missile")
    y0 = [float(v) for v in scn.y0()]
    assert compile_lanes(lambda v: scn.rhs_reference(v[0], v[1:]), [0.0, *y0]) is None
    assert compile_lanes(lambda v: [v[0] ** 2], [3.0]) is None
    assert compile_lanes(lambda v: [math.cos(v[0])], [3.0]) is None  # untraceable
    assert compile_lanes(lanes_fn, [2.0, 0.0, 9.0, 0.5, 2.0, 2.0]) is None  # raises
