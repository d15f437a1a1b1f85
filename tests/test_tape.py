"""Traced right-hand sides and RK4 steps: guards, fallback, bit-exact rewrites, inlining."""

import math

import pytest

from purefb import autodiff
from purefb.autodiff import EvaluationError, partial, real_value, seed
from purefb.simkit import ABORT_LIMIT, integrate, rk4_combine, rk4_step
from purefb.tape import Traced, Var, select_lt


def guarded(t, y):
    """Dual division and sqrt: both carry data-dependent domain checks."""
    (d,), tag = seed([y[0]])
    q = 1.0 / d
    return (real_value(q), partial(q, 0, tag), autodiff.sqrt(y[1]) * t)


def raised(fn, *args):
    with pytest.raises(Exception) as info:
        fn(*args)
    return type(info.value), str(info.value)


def test_trace_compiles_into_the_same_function_object():
    tr = Traced(guarded)
    call = tr.call
    assert tr.trace(2.0, [4.0, 9.0])
    assert tr.call is call and call.__code__.co_name == "tape"
    assert "_sqrt(" in tr.source and "return _fallback(t, y)" in tr.source
    assert call(2.0, [4.0, 9.0]) == guarded(2.0, [4.0, 9.0])


@pytest.mark.parametrize("y", [[0.0, 9.0], [4.0, -1.0]], ids=["div-zero", "sqrt-domain"])
def test_guard_miss_raises_like_the_generic_path(y):
    tr = Traced(guarded)
    assert tr.trace(2.0, [4.0, 9.0])
    err = raised(tr.call, 2.0, y)
    assert err[0] is EvaluationError
    assert err == raised(guarded, 2.0, y)


def test_guard_miss_takes_the_other_branch():
    def branchy(t, y):
        return (y[0] * 3.0 if y[0] > 1.0 else y[0] - 3.0,)

    tr = Traced(branchy)
    assert tr.trace(0.0, [2.0])
    for v in (0.5, 1.0, 7.0, -0.0):
        assert tr.call(0.0, [v]) == branchy(0.0, [v])


def test_select_compiles_to_a_conditional_expression():
    def dead_zone(t, y):
        return (select_lt(abs(y[0]), 0.5, 0.0, y[0] * y[1]),)

    tr = Traced(dead_zone)
    assert tr.trace(0.0, [2.0, 3.0])
    assert "if not" not in tr.source and "(0.0 if" in tr.source
    for y in ([0.1, 3.0], [-2.0, 3.0], [0.5, 1.0]):
        assert tr.call(0.0, y) == dead_zone(0.0, y)


def test_only_exact_rewrites():
    def ops(t, y):
        a = y[0]
        return (a * 1.0, 1.0 * a, a / 1.0, a - 0.0, a + 0.0, a * 0.0, -(-a))

    tr = Traced(ops)
    assert tr.trace(0.0, [1.5])
    assert "* 1.0" not in tr.source and "/ 1.0" not in tr.source
    for v in (-0.0, 0.0, math.inf, math.nan, -2.5):
        assert [r.hex() for r in tr.call(0.0, [v])] == [r.hex() for r in ops(0.0, [v])]


def test_failing_trace_point_runs_the_reference_until_traced():
    tr = Traced(guarded)
    assert not tr.trace(0.0, [0.0, 1.0])
    assert raised(tr.call, 0.0, [0.0, 1.0]) == raised(guarded, 0.0, [0.0, 1.0])
    assert tr.call(1.0, [2.0, 4.0]) == guarded(1.0, [2.0, 4.0]) and tr.source is None
    assert tr.trace(1.0, [2.0, 4.0]) and tr.source is not None


def test_calls_never_trace():
    attempts = []

    def uses_math(t, y):
        if t.__class__ is Var:
            attempts.append(t)
        return (math.cos(t) * y[0],)

    tr = Traced(uses_math)
    assert not tr.trace(0.5, [2.0])
    for i in range(100):
        assert tr.call(0.5 + i, [2.0]) == uses_math(0.5 + i, [2.0])
    assert len(attempts) == 1 and tr.source is None


def test_untraceable_function_runs_the_reference():
    def uses_math(t, y):
        return (math.cos(t) * y[0],)

    tr = Traced(uses_math)
    assert not tr.trace(0.5, [2.0])
    assert tr.call(0.5, [2.0]) == uses_math(0.5, [2.0])
    assert tr.source is None


# -- the compiled RK4 step ----------------------------------------------------


def step_bits(out):
    return None if out is None else [v.hex() for v in out]


def test_long_single_use_chain_compiles_nested_and_exact():
    def chain(t, y):
        v = y[0]
        for _ in range(1000):
            v = v * 1.0001 + 0.5
        return (v, y[1] - v)

    tr = Traced(chain)
    assert tr.trace(0.0, [1.0, 2.0], 0.01)
    assert tr.step is not None
    # nesting is capped, so the 2000-line chain is cut into a few dozen statements
    assert 10 < tr.source.count("\n") < 200
    assert 40 < tr.step_source.count("\n") < 1000
    for y in ([1.0, 2.0], [-3.5, 0.25], [0.0, -0.0]):
        assert step_bits(tr.call(0.3, y)) == step_bits(chain(0.3, y))
        assert step_bits(tr.step(0.3, y)) == step_bits(rk4_step(chain, y, 0.3, 0.01))


def test_single_use_lines_are_inlined_and_raising_lines_are_not():
    def f(t, y):
        a = y[0] * y[1] + 2.0  # the product is read once, a twice
        return (y[1] / a + 1.0, a * 0.5, autodiff.sqrt(y[0] * 3.0) - 1.0)

    tr = Traced(f)
    assert tr.trace(0.0, [1.5, 2.0])
    body = tr.source.splitlines()[1:]
    assigned = [line.split(" = ")[1] for line in body if " = " in line]
    # y0, y1 and a are read more than once; the division and the sqrt may
    # raise; y0 * 3.0 is read by the domain guard and the sqrt
    assert len(assigned) == 6
    assert "(y0 * y1) + 2.0" in assigned
    assert any(text.startswith("y1 / v") for text in assigned)
    assert any(text.startswith("_sqrt(") for text in assigned)
    assert body[-1].strip().startswith("return ((v")
    for y in ([1.5, 2.0], [0.5, 7.0], [4.0, -1.25]):
        assert step_bits(tr.call(0.0, y)) == step_bits(f(0.0, y))


def test_division_by_zero_in_a_later_stage_raises_like_the_generic_step():
    def inverse(t, y):
        return (1.0, 1.0 / y[0])

    h = 0.5
    tr = Traced(inverse)
    assert tr.trace(0.0, [1.0, 0.0], h)
    y = [-0.25, 0.0]  # the second stage evaluates at y[0] = -0.25 + 0.25 = 0
    assert raised(tr.step, 0.0, y) == raised(rk4_combine, inverse, y, 0.0, h)
    assert raised(tr.step, 0.0, y)[0] is ZeroDivisionError
    fused = integrate(tr.call, y, 1.0, h, step=tr.step)
    plain = integrate(inverse, y, 1.0, h)
    assert fused.diverged and plain.diverged
    assert fused.failure == plain.failure


def test_guard_miss_declines_the_step_and_the_run_is_unchanged():
    def branchy(t, y):
        return (y[0] * 3.0 if y[0] > 1.0 else y[0] - 3.0,)

    tr = Traced(branchy)
    assert tr.trace(0.0, [2.0], 0.125)
    assert tr.step(0.0, [0.5]) is None  # the first stage takes the other branch
    assert step_bits(tr.step(0.0, [2.0])) == step_bits(rk4_step(branchy, [2.0], 0.0, 0.125))
    # the state crosses the branch point y = 1 during the run
    fused = integrate(tr.call, [1.5], 2.0, 0.125, step=tr.step)
    plain = integrate(branchy, [1.5], 2.0, 0.125)
    assert not fused.diverged
    assert [v.hex() for v in fused.data.ravel()] == [v.hex() for v in plain.data.ravel()]


def test_cos_of_infinity_declines_the_step_with_the_plain_error():
    def ripple(t, y):
        return (autodiff.cos(y[0]) * y[1], autodiff.sin(t) - y[1])

    h = 0.25
    tr = Traced(ripple)
    assert tr.trace(0.0, [0.5, 1.0], h)
    assert "_cos(" in tr.step_source and "_sin(" in tr.step_source
    for y in ([0.5, 1.0], [-3.0, 2.5]):
        assert step_bits(tr.call(0.3, y)) == step_bits(ripple(0.3, y))
        assert step_bits(tr.step(0.3, y)) == step_bits(rk4_step(ripple, y, 0.3, h))
    y = [math.inf, 1.0]
    assert raised(tr.step, 0.0, y) == raised(rk4_combine, ripple, y, 0.0, h)
    assert raised(tr.step, 0.0, y)[0] is ValueError
    assert raised(rk4_step, tr.call, y, 0.0, h) == raised(rk4_step, ripple, y, 0.0, h)
    fused = integrate(tr.call, y, 1.0, h, step=tr.step)
    plain = integrate(ripple, y, 1.0, h)
    assert fused.diverged and plain.diverged
    assert repr(fused.failure) == repr(plain.failure)


@pytest.mark.parametrize("y", [[math.nan], [ABORT_LIMIT * (1.0 - 1e-16) - 1.0], [-math.inf]],
                         ids=["nan", "out-of-range", "inf"])
def test_step_declines_states_the_integrator_stops_at(y):
    def grow(t, y):
        return (y[0] * 1e-3 + 10.0,)

    tr = Traced(grow)
    assert tr.trace(0.0, [1.0], 0.5)
    assert tr.step(0.0, y) is None
    fused = integrate(tr.call, y, 1.0, 0.5, step=tr.step)
    plain = integrate(grow, y, 1.0, 0.5)
    assert fused.diverged and plain.diverged
    assert repr(fused.failure) == repr(plain.failure)


def test_step_follows_the_step_size():
    def decay(t, y):
        return (-y[0],)

    tr = Traced(decay)
    assert tr.trace(0.0, [1.0], 0.1)
    first = tr.step
    assert tr.trace(0.0, [1.0], 0.1) and tr.step is first
    assert tr.trace(0.0, [1.0], 0.2) and tr.step is not first
    assert tr.step(0.0, [1.0]) == rk4_step(decay, [1.0], 0.0, 0.2)
